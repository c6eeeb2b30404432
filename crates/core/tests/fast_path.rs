//! Differential tests of the simulator fast path (DESIGN.md §18).
//!
//! A launch that repeats a shape runs its native body with memoised stats.
//! Every case here runs the same launch on a fresh, instrumented device and
//! as a memo hit on a second device, then requires bit-identical buffers
//! and equal kernel reports (stats and modelled timing).

use bifft::batch::Fft1dBatchGpu;
use bifft::five_step::FiveStepFft;
use fft_math::rng::SplitMix64;
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use gpu_sim::{BufferId, DeviceSpec, Gpu, KernelReport};

fn signal(len: usize, seed: u64) -> Vec<Complex32> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| Complex32::new(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
        .collect()
}

fn assert_bits_eq(got: &[Complex32], want: &[Complex32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what}: element {i} differs: {g} vs {w}"
        );
    }
}

fn assert_reports_eq(got: &[KernelReport], want: &[KernelReport], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: launch count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w, "{what}: report of {}", w.name);
    }
}

fn specs() -> [DeviceSpec; 2] {
    [DeviceSpec::gts8800(), DeviceSpec::gtx8800()]
}

/// One five-step transform of `host` on `gpu`; returns the step reports.
fn five_step(
    gpu: &mut Gpu,
    plan: &FiveStepFft,
    v: BufferId,
    w: BufferId,
    host: &[Complex32],
    dir: Direction,
) -> Vec<KernelReport> {
    plan.upload(gpu, v, host);
    plan.execute(gpu, v, w, dir).steps
}

fn five_step_case(spec: DeviceSpec, (nx, ny, nz): (usize, usize, usize), dir: Direction) {
    let what = format!("five-step {nx}x{ny}x{nz} {dir:?} on {}", spec.name);
    let host = signal(nx * ny * nz, 3);

    let mut fresh = Gpu::new(spec);
    let plan = FiveStepFft::new(&mut fresh, nx, ny, nz);
    let (v, w) = plan.alloc_buffers(&mut fresh).unwrap();
    let want = five_step(&mut fresh, &plan, v, w, &host, dir);
    assert_eq!(fresh.memo_counters().hits, 0, "{what}: fresh device hit");

    let mut gpu = Gpu::new(spec);
    let plan = FiveStepFft::new(&mut gpu, nx, ny, nz);
    let (v2, w2) = plan.alloc_buffers(&mut gpu).unwrap();
    five_step(&mut gpu, &plan, v2, w2, &signal(host.len(), 4), dir);
    let got = five_step(&mut gpu, &plan, v2, w2, &host, dir);
    assert_eq!(gpu.memo_counters().hits, 5, "{what}: second run must hit");

    assert_reports_eq(&got, &want, &what);
    assert_bits_eq(gpu.mem().as_slice(v2), fresh.mem().as_slice(v), &what);
    assert_bits_eq(gpu.mem().as_slice(w2), fresh.mem().as_slice(w), &what);
}

#[test]
fn five_step_memo_hits_are_bit_identical() {
    for spec in specs() {
        for dims in [(16, 16, 16), (32, 32, 32), (8, 16, 4)] {
            for dir in [Direction::Forward, Direction::Inverse] {
                five_step_case(spec, dims, dir);
            }
        }
    }
    five_step_case(DeviceSpec::gts8800(), (64, 64, 64), Direction::Forward);
    five_step_case(DeviceSpec::gtx8800(), (64, 64, 64), Direction::Inverse);
}

/// The paper's headline cell. Too slow for a debug build; CI runs it in
/// release (`cargo test --release -p bifft --test fast_path`).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "256³ needs a release build: cargo test --release -p bifft --test fast_path"
)]
fn five_step_256_memo_hit_is_bit_identical() {
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    let plan = FiveStepFft::new(&mut gpu, 256, 256, 256);
    let (v, w) = plan.alloc_buffers(&mut gpu).unwrap();
    let host = signal(plan.volume(), 1);
    let want = five_step(&mut gpu, &plan, v, w, &host, Direction::Forward);
    let want_spectrum = plan.download(&gpu, v);
    let got = five_step(&mut gpu, &plan, v, w, &host, Direction::Forward);
    assert_eq!(gpu.memo_counters().hits, 5);
    assert_reports_eq(&got, &want, "256³");
    assert_bits_eq(&plan.download(&gpu, v), &want_spectrum, "256³");
}

/// One batched 1-D launch; `in_place` transforms `src` itself.
fn batch(
    gpu: &mut Gpu,
    plan: &Fft1dBatchGpu,
    (src, dst): (BufferId, BufferId),
    host: &[Complex32],
    rows: usize,
    dir: Direction,
) -> KernelReport {
    gpu.mem_mut().upload(src, 0, host);
    plan.execute(gpu, src, dst, rows, dir)
}

#[test]
fn batch_1d_memo_hits_are_bit_identical() {
    for spec in specs() {
        for n in [4usize, 16, 64, 256, 512] {
            for rows in [1usize, 3, 64] {
                for dir in [Direction::Forward, Direction::Inverse] {
                    for in_place in [true, false] {
                        let what = format!(
                            "batch n={n} rows={rows} {dir:?} in_place={in_place} on {}",
                            spec.name
                        );
                        let host = signal(n * rows, n as u64 + rows as u64);
                        let bufs = |gpu: &mut Gpu| {
                            let src = gpu.mem_mut().alloc(n * rows).unwrap();
                            let dst = if in_place {
                                src
                            } else {
                                gpu.mem_mut().alloc(n * rows).unwrap()
                            };
                            (src, dst)
                        };

                        let mut fresh = Gpu::new(spec);
                        let plan = Fft1dBatchGpu::new(&mut fresh, n).unwrap();
                        let fb = bufs(&mut fresh);
                        let want = batch(&mut fresh, &plan, fb, &host, rows, dir);

                        let mut gpu = Gpu::new(spec);
                        let plan = Fft1dBatchGpu::new(&mut gpu, n).unwrap();
                        let gb = bufs(&mut gpu);
                        batch(&mut gpu, &plan, gb, &signal(host.len(), 9), rows, dir);
                        let got = batch(&mut gpu, &plan, gb, &host, rows, dir);
                        assert_eq!(gpu.memo_counters().hits, 1, "{what}");

                        assert_eq!(got, want, "{what}");
                        for (g, f) in [(gb.0, fb.0), (gb.1, fb.1)] {
                            assert_bits_eq(gpu.mem().as_slice(g), fresh.mem().as_slice(f), &what);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn trace_blocks_and_reallocation_change_the_key() {
    let n = 64;
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    let plan = Fft1dBatchGpu::new(&mut gpu, n).unwrap();
    let a = gpu.mem_mut().alloc(n).unwrap();
    let host = signal(n, 5);
    let run = |gpu: &mut Gpu, buf| batch(gpu, &plan, (buf, buf), &host, 1, Direction::Forward);

    run(&mut gpu, a);
    run(&mut gpu, a);
    assert_eq!(gpu.memo_counters().hits, 1);

    // Tracing more blocks changes the sampled stats: a new shape.
    gpu.trace_blocks += 1;
    run(&mut gpu, a);
    assert_eq!(gpu.memo_counters().hits, 1, "trace_blocks must be keyed");
    run(&mut gpu, a);
    assert_eq!(gpu.memo_counters().hits, 2);

    // A buffer re-allocated at a new base samples different addresses.
    let a_base = gpu.mem().addr(a, 0);
    gpu.mem_mut().free(a);
    let b = gpu.mem_mut().alloc(n).unwrap();
    assert_ne!(gpu.mem().addr(b, 0), a_base);
    run(&mut gpu, b);
    assert_eq!(gpu.memo_counters().hits, 2, "a new buffer must be keyed");
    assert_eq!(gpu.memo_counters().misses, 3);
}

#[test]
fn checked_runs_always_instrument() {
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    gpu.check_enable();
    let plan = FiveStepFft::new(&mut gpu, 16, 16, 16);
    let (v, w) = plan.alloc_buffers(&mut gpu).unwrap();
    let host = signal(plan.volume(), 2);
    let first = five_step(&mut gpu, &plan, v, w, &host, Direction::Forward);
    let second = five_step(&mut gpu, &plan, v, w, &host, Direction::Forward);
    let c = gpu.memo_counters();
    assert_eq!((c.hits, c.misses), (0, 10), "checked launches never hit");
    assert_reports_eq(&second, &first, "checked repeat");
    assert!(gpu.check_report().unwrap().clean());
}
