//! Simulator fast-path hit shares (DESIGN.md §18) on the shapes of the
//! benchmark's four workloads: how many launches repeat a shape their card
//! already ran instrumented, and so run their native body with memoised
//! stats.
//!
//! ```text
//! cargo run --release --example fast_path_hits
//! ```
//!
//! wire-tiny replays the serve-tiny schedule through the gateway into the
//! same in-process service (its report is byte-identical), so it issues the
//! same launches and has serve-tiny's hit share.

use fft_math::rng::SplitMix64;
use fft_serve::{
    open_loop_templates, QosConfig, ServeConfig, Shape, SubmitTemplate, TenantId, TenantPolicy,
    Workload,
};
use gpu_sim::MemoCounters;
use nukada_fft_repro::prelude::*;

fn line(workload: &str, c: MemoCounters) {
    println!(
        "{workload:<15} hits {:>6}  misses {:>5}  entries {:>4}  hit share {:.3}",
        c.hits,
        c.misses,
        c.entries,
        c.hit_share()
    );
}

/// fivestep-256: three 256³ forward transforms on one plan and buffer pair.
fn fivestep() -> MemoCounters {
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    let plan = FiveStepFft::new(&mut gpu, 256, 256, 256);
    let (v, work) = plan.alloc_buffers(&mut gpu).expect("256³ fits");
    let mut rng = SplitMix64::new(1);
    let volume: Vec<Complex32> = (0..plan.volume())
        .map(|_| c32(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
        .collect();
    for _ in 0..3 {
        plan.upload(&mut gpu, v, &volume);
        plan.execute(&mut gpu, v, work, Direction::Forward);
    }
    gpu.memo_counters()
}

/// One open-loop replay of `requests` draws of `workload` into a fresh
/// fleet, as the benchmark's serve workloads run it.
fn serve(cfg: ServeConfig, workload: &Workload, requests: u64, rate: f64) -> MemoCounters {
    let mut svc = FftService::new(cfg).expect("valid config");
    for (at_s, tpl) in open_loop_templates(workload, requests, rate, 1) {
        let _ = match tpl {
            SubmitTemplate::Single(spec) => svc.submit(spec.materialize(), at_s),
            SubmitTemplate::Pipeline(pipe) => svc.submit_pipeline(pipe.materialize(), at_s),
        };
    }
    svc.drain();
    svc.memo_counters()
}

fn main() {
    // serve-tiny: 2 cards, 3 tenants with shares 1:2:4, preemption on;
    // 3000 requests of 1–8 rows of 16–128 points at 200k req/s.
    let mut qos = QosConfig {
        preemption: true,
        ..QosConfig::default()
    };
    for (t, share) in [(0, 1.0), (1, 2.0), (2, 4.0)] {
        let policy = TenantPolicy {
            share,
            ..TenantPolicy::default()
        };
        qos.tenants.insert(TenantId(t), policy);
    }
    let tiny_cfg = ServeConfig::builder().gpus(2).qos(qos).build().unwrap();
    let mut shapes = Vec::new();
    for n in [16, 32, 64, 128] {
        for rows in [1, 2, 4, 8] {
            shapes.push((Shape::Rows1d { n, rows }, 1));
        }
    }
    let tiny = Workload {
        shapes,
        tenants: 3,
        ..Workload::rows()
    };
    let tiny_hits = serve(tiny_cfg, &tiny, 3000, 200_000.0);

    // serve-pipeline: 2 cards, the pipeline mix, 1000 requests at 5k req/s.
    let pipe_cfg = ServeConfig::builder().gpus(2).build().unwrap();
    let pipe_hits = serve(pipe_cfg, &Workload::pipeline(), 1000, 5_000.0);

    line("fivestep-256", fivestep());
    line("serve-tiny", tiny_hits);
    line("serve-pipeline", pipe_hits);
    line("wire-tiny", tiny_hits);
}
