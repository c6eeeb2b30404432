//! `fivestep-256`: one 256³ forward five-step transform on a simulated
//! 8800 GTS, checked against the single-thread CPU FFT. Host time is almost
//! all per-element kernel execution (five launches per transform).

use crate::measure::{median, secs, Calib, Spans};
use crate::{repeat, Args, Inject, Outcome, KERNELS, PAPER_GFLOPS, SETUP_REPS};
use bifft::{FiveStepFft, RunReport};
use cpu_fft::CpuFft3d;
use fft_math::error::{fft_tolerance, rel_l2_error_f32};
use fft_math::flops::nominal_flops_3d;
use fft_math::rng::SplitMix64;
use fft_math::{Complex32, Direction};
use gpu_sim::trace::{TraceEvent, TraceSink};
use gpu_sim::{BufferId, DeviceSpec, Gpu};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

const N: usize = 256;

/// Seeded input volume, uniform in [-1, 1) on both parts.
fn volume(elems: usize, seed: u64) -> Vec<Complex32> {
    let mut rng = SplitMix64::new(seed);
    (0..elems)
        .map(|_| Complex32::new(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
        .collect()
}

/// Host instant of each kernel-completion event, with its modelled timing.
/// With `calib`, the calibration kernels run right after each stamp, so their
/// samples spread over a transform's seconds-long kernels; `resume` is the
/// instant it handed back.
#[derive(Default)]
struct KernelClock {
    ends: Vec<Stamp>,
    calib: Option<Rc<RefCell<Calib>>>,
}

struct Stamp {
    name: &'static str,
    end: Instant,
    resume: Instant,
    gbs: f64,
    coalesced: f64,
}

impl TraceSink for KernelClock {
    fn event(&mut self, ev: TraceEvent) {
        if let TraceEvent::KernelEnd {
            name,
            timing,
            coalesced_fraction,
            ..
        } = ev
        {
            let end = Instant::now();
            if let Some(c) = &self.calib {
                c.borrow_mut().sample();
            }
            self.ends.push(Stamp {
                name,
                end,
                resume: Instant::now(),
                gbs: timing.achieved_gbs,
                coalesced: coalesced_fraction,
            });
        }
    }
}

struct Fixture {
    gpu: Gpu,
    plan: FiveStepFft,
    v: BufferId,
    work: BufferId,
    input: Vec<Complex32>,
}

/// Device bring-up, plan build and payload generation; returns the
/// fixture, the total and the plan-build host seconds.
fn setup(seed: u64) -> (Fixture, f64, f64) {
    let t = Instant::now();
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    let tp = Instant::now();
    let plan = FiveStepFft::new(&mut gpu, N, N, N);
    let (v, work) = plan
        .alloc_buffers(&mut gpu)
        .expect("a 256³ volume fits on the 8800 GTS");
    let plan_s = secs(tp);
    let input = volume(N * N * N, seed);
    (
        Fixture {
            gpu,
            plan,
            v,
            work,
            input,
        },
        secs(t),
        plan_s,
    )
}

/// One transform's host split and results.
struct Rep {
    pack_s: f64,
    exec_s: f64,
    unpack_s: f64,
    report: RunReport,
    output: Vec<Complex32>,
    /// `(kernel, host s, model GB/s, coalesced fraction)` per launch.
    kernels: Vec<(&'static str, f64, f64, f64)>,
}

impl Rep {
    fn total_s(&self) -> f64 {
        self.pack_s + self.exec_s + self.unpack_s
    }

    /// Host seconds per phase: pack, each kernel, the rest of `execute`
    /// (launch set-up between kernels), unpack.
    fn phases(&self) -> Vec<f64> {
        let kernels: Vec<f64> = self.kernels.iter().map(|k| k.1).collect();
        let mut v = vec![self.pack_s];
        v.extend(&kernels);
        v.push(self.exec_s - kernels.iter().sum::<f64>());
        v.push(self.unpack_s);
        v
    }
}

/// upload (pack) → execute → download (unpack), each call timed. A kernel
/// clock stamps every launch's completion; the simulator calls a sink only
/// at launch boundaries, never per element, so it is installed in untraced
/// runs too. With `calib`, the calibration kernels sample at each
/// completion, and their time is left out of the transform's.
fn transform(
    fx: &mut Fixture,
    spans: &mut Spans,
    inject: Option<Inject>,
    calib: Option<&Rc<RefCell<Calib>>>,
) -> Rep {
    let clock = Rc::new(RefCell::new(KernelClock {
        ends: Vec::new(),
        calib: calib.cloned(),
    }));
    fx.gpu.set_sink(clock.clone());
    let root = spans.begin("rep.transform", Some(0));

    let s = spans.begin("bifft.pack", Some(0));
    let t = Instant::now();
    fx.plan.upload(&mut fx.gpu, fx.v, &fx.input);
    let pack_s = secs(t);
    spans.end(s);

    let s = spans.begin("bifft.execute", Some(0));
    let t = Instant::now();
    Inject::at(inject, Inject::BifftExecute);
    let report = fx
        .plan
        .execute(&mut fx.gpu, fx.v, fx.work, Direction::Forward);
    let mut exec_s = secs(t);
    // Kernel host time: from the previous completion stamp (or the call)
    // to this launch's completion stamp, less the calibration between.
    let mut kernels = Vec::new();
    let mut prev = t;
    for k in &clock.borrow().ends {
        spans.record("gpu_sim.kernel", prev, k.end, Some(0));
        kernels.push((k.name, (k.end - prev).as_secs_f64(), k.gbs, k.coalesced));
        exec_s -= (k.resume - k.end).as_secs_f64();
        prev = k.resume;
    }
    spans.end(s);

    let s = spans.begin("bifft.unpack", Some(0));
    let t = Instant::now();
    let output = fx.plan.download(&fx.gpu, fx.v);
    let unpack_s = secs(t);
    spans.end(s);
    spans.end(root);

    fx.gpu.clear_sink();
    Rep {
        pack_s,
        exec_s,
        unpack_s,
        report,
        output,
        kernels,
    }
}

/// Bare-device launch cost: a 64-point single-row batch, the smallest
/// launch the serving core issues. Median microseconds over 200 launches.
pub fn launch_us() -> f64 {
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    let plan = bifft::Fft1dBatchGpu::new(&mut gpu, 64).expect("64 is a supported length");
    let buf = gpu.mem_mut().alloc(64).expect("64 elements fit");
    gpu.mem_mut().upload(buf, 0, &volume(64, 7));
    let mut us = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        std::hint::black_box(plan.execute(&mut gpu, buf, buf, 1, Direction::Forward));
        us.push(secs(t) * 1e6);
    }
    median(&us)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let calib = Rc::new(RefCell::new(Calib::new()));

    // Set up repeatedly, each time on a fresh device; keep the last fixture.
    let mut plans = Vec::new();
    let mut fx = None;
    let setups = repeat(0.0, SETUP_REPS, |_| {
        drop(fx.take());
        let (f, s, p) = setup(args.seed);
        plans.push(p * 1e3);
        fx = Some(f);
        s
    });
    let mut fx = fx.expect("set up at least once");
    out.host("setup_s", &setups);
    out.host("bifft.plan_build_ms", &plans);

    // Warm-up: a 32³ transform through the same code paths.
    {
        let mut gpu = Gpu::new(DeviceSpec::gts8800());
        let plan = FiveStepFft::new(&mut gpu, 32, 32, 32);
        let (v, w) = plan.alloc_buffers(&mut gpu).expect("32³ fits");
        plan.upload(&mut gpu, v, &volume(32 * 32 * 32, args.seed));
        plan.execute(&mut gpu, v, w, Direction::Forward);
    }

    // Timed transforms. A traced run alternates untraced and traced ones,
    // so both clocks see the same machine state.
    let mut untraced = Spans::new(false);
    let mut traced = Spans::new(args.trace);
    let mut first: Option<Rep> = None;
    let mut identical = true;
    let (mut host, mut host_traced) = (Vec::new(), Vec::new());
    let (mut pack, mut exec, mut unpack) = (Vec::new(), Vec::new(), Vec::new());
    let mut rows = Vec::new();
    let min = if args.trace { 4 } else { 3 };
    repeat(args.seconds, min, |i| {
        calib.borrow_mut().sample();
        let tracing = args.trace && i % 2 == 1;
        let rep = transform(
            &mut fx,
            if tracing { &mut traced } else { &mut untraced },
            args.inject,
            // Traced transforms stay free of calibration time.
            (!tracing).then_some(&calib),
        );
        let total = rep.total_s();
        if tracing {
            host_traced.push(total);
            pack.push(rep.pack_s * 1e3);
            exec.push(rep.exec_s * 1e3);
            unpack.push(rep.unpack_s * 1e3);
            rows.push(rep.kernels.clone());
        } else {
            host.push(rep.phases());
        }
        match &first {
            None => first = Some(rep),
            Some(f) => identical &= f.output == rep.output,
        }
        total
    });
    let first = first.expect("at least one transform ran");
    out.attempted = (host.len() + host_traced.len()) as u64;
    out.host_reps(&host);
    // The one request's submit-to-result latency: the whole transform
    // call. One sample per repetition leaves no percentile above the median
    // with ten samples beyond it, so p99 reports the median too.
    let totals: Vec<f64> = host.iter().map(|r| r.iter().sum::<f64>() * 1e3).collect();
    out.host("ack_p50_ms", &totals);
    out.set("ack_p99_ms", median(&totals));
    out.check("every repetition's spectrum is bit-identical", identical);
    for _ in 0..5 {
        calib.borrow_mut().sample();
    }
    out.calibrate(&calib.borrow(), &[]);

    // Modelled clock: deterministic for the plan, independent of the data.
    let model_s = first.report.total_time_s();
    let gflops = first.report.gflops();
    out.set("model_gflops", gflops);
    out.set(
        "model_paper_err_pct",
        (gflops - PAPER_GFLOPS).abs() / PAPER_GFLOPS * 100.0,
    );
    out.set("model_p50_ms", model_s * 1e3);
    out.set("model_p99_ms", model_s * 1e3);
    let payload = 2 * 8 * (N * N * N) as u64;
    out.set("model_goodput_gbs", payload as f64 / model_s / 1e9);
    debug_assert_eq!(first.report.nominal_flops, nominal_flops_3d(N, N, N));

    // Output check against the single-thread CPU FFT.
    let mut reference = fx.input.clone();
    drop(fx);
    let cpu = CpuFft3d::with_threads(N, N, N, 1);
    let t = Instant::now();
    cpu.execute(&mut reference, Direction::Forward);
    let ref_ms = secs(t) * 1e3;
    out.set("cpu_fft.ref_ms", ref_ms);
    let err = rel_l2_error_f32(&first.output, &reference);
    out.set("max_rel_err", err);
    out.check(
        format!(
            "relative L2 error {err:.3e} vs cpu-fft within {:.3e}",
            fft_tolerance(N * N * N)
        ),
        err <= fft_tolerance(N * N * N),
    );

    if args.trace {
        out.host("bifft.pack_ms", &pack);
        out.host("bifft.execute_ms", &exec);
        out.host("bifft.unpack_ms", &unpack);
        out.set("sim_over_cpu", median(&exec) / ref_ms);
        let host_totals: Vec<f64> = host.iter().map(|r| r.iter().sum()).collect();
        out.set(
            "trace.overhead",
            median(&host_traced) / median(&host_totals),
        );
        for (j, k) in KERNELS.iter().enumerate() {
            debug_assert_eq!(first.kernels[j].0, *k);
            let ms: Vec<f64> = rows.iter().map(|r| r[j].1 * 1e3).collect();
            out.host(&format!("gpu_sim.kernel.{k}.host_ms"), &ms);
            out.set(&format!("gpu_sim.kernel.{k}.model_gbs"), first.kernels[j].2);
        }
        let min_coal = first.kernels.iter().map(|k| k.3).fold(1.0, f64::min);
        out.set("gpu_sim.kernel.min_coalesced_frac", min_coal);
        let kernel_total: Vec<f64> = rows.iter().map(|r| r.iter().map(|e| e.1).sum()).collect();
        out.set(
            "gpu_sim.exec.host_ns_per_elem_pass",
            median(&kernel_total) * 1e9 / (5 * N * N * N) as f64,
        );
        out.set("gpu_sim.launch.host_us", launch_us());
        out.self_times(&traced, host_traced.len());
        crate::write_spans(&traced, args);
    }
    out
}
