//! `serve-tiny` and `serve-pipeline`: in-process, virtual-time open loops
//! through `FftService`, single-threaded. Also the shared pieces `wire-tiny`
//! reuses: the tiny configuration and schedule, model metrics from a
//! `ServeReport`, and the output checks.

use crate::fivestep::launch_us;
use crate::measure::{blocks, median, nearest_rank, secs, Calib, Spans};
use crate::{repeat, Args, Inject, Outcome, ATTR, PHASES, SETUP_REPS};
use bifft::{Fft1dBatchGpu, FiveStepFft};
use cpu_fft::CpuFft3d;
use fft_math::error::{fft_tolerance, rel_l2_error_f32};
use fft_math::fft1d::fft_pow2;
use fft_math::flops::{nominal_flops_3d, nominal_flops_batch};
use fft_math::rng::SplitMix64;
use fft_math::Complex32;
use fft_serve::pipeline::StageKind;
use fft_serve::telemetry::CATEGORIES;
use fft_serve::{
    open_loop_templates, FftService, QosConfig, RequestSpec, ServeConfig, ServeReport, Shape,
    SubmitTemplate, TenantId, TenantPolicy, Workload,
};
use gpu_sim::{DeviceSpec, Gpu};
use std::collections::BTreeMap;
use std::time::Instant;

/// Which in-process serving workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Tiny,
    Pipeline,
}

/// Requests per repetition. Both give well over ten samples beyond p99.
const TINY_REQUESTS: u64 = 3000;
const PIPELINE_REQUESTS: u64 = 1000;
/// Offered load, requests per modelled second.
const TINY_RATE: f64 = 200_000.0;
const PIPELINE_RATE: f64 = 5_000.0;

/// 2 cards, 3 weighted tenants (shares 1:2:4, no quotas), preemption on.
pub fn tiny_config() -> ServeConfig {
    let mut qos = QosConfig {
        preemption: true,
        ..QosConfig::default()
    };
    for (t, share) in [(0, 1.0), (1, 2.0), (2, 4.0)] {
        qos.tenants.insert(
            TenantId(t),
            TenantPolicy {
                share,
                ..TenantPolicy::default()
            },
        );
    }
    ServeConfig::builder()
        .gpus(2)
        .qos(qos)
        .build()
        .expect("the tiny fleet is a valid config")
}

/// 1-D rows of 16–128 points, 1–8 rows each, spread over 3 tenants.
fn tiny_workload() -> Workload {
    let mut shapes = Vec::new();
    for n in [16, 32, 64, 128] {
        for rows in [1, 2, 4, 8] {
            shapes.push((Shape::Rows1d { n, rows }, 1));
        }
    }
    Workload {
        shapes,
        tenants: 3,
        ..Workload::rows()
    }
}

fn config(kind: Kind) -> ServeConfig {
    match kind {
        Kind::Tiny => tiny_config(),
        Kind::Pipeline => ServeConfig::builder()
            .gpus(2)
            .build()
            .expect("a 2-card fleet is a valid config"),
    }
}

/// Seed of the traffic: the request mix (shapes, kinds, tenants,
/// priorities) and the Poisson arrival times.
const TRAFFIC_SEED: u64 = 1;

/// The open-loop schedule of a workload for `seed`: the library generator's
/// draw for [`TRAFFIC_SEED`], with every payload seed redrawn from `seed`.
/// Traffic stays fixed because a 1000-request sample of it is too small to
/// compare across seeds: letting `seed` redraw the mix moved
/// serve-pipeline's modelled p50 by 58% between seeds, and redrawing only
/// the arrival times still moved its p99 by 27%. Modelled metrics and
/// counts therefore repeat exactly for every seed; the seed changes the
/// data every output check runs on.
pub fn schedule(kind: Kind, seed: u64) -> Vec<(f64, SubmitTemplate)> {
    let (workload, requests, rate) = match kind {
        Kind::Tiny => (tiny_workload(), TINY_REQUESTS, TINY_RATE),
        Kind::Pipeline => (Workload::pipeline(), PIPELINE_REQUESTS, PIPELINE_RATE),
    };
    let mut rng = SplitMix64::new(seed);
    let mut sched = open_loop_templates(&workload, requests, rate, TRAFFIC_SEED);
    for (_, tpl) in &mut sched {
        match tpl {
            SubmitTemplate::Single(spec) => spec.seed = rng.next_u64(),
            SubmitTemplate::Pipeline(p) => {
                for s in &mut p.input_seeds {
                    *s = rng.next_u64();
                }
            }
        }
    }
    sched
}

/// What one submission turned into before it reached the service.
enum Payload {
    Single(RequestSpec),
    Pipe(fft_serve::PipelineRequest),
}

/// Expands a template into its payload (the load generator's work).
fn materialize(tpl: &SubmitTemplate) -> Payload {
    match tpl {
        SubmitTemplate::Single(spec) => Payload::Single(spec.materialize()),
        SubmitTemplate::Pipeline(pipe) => {
            pipe.validate().expect("generated DAGs are valid");
            Payload::Pipe(pipe.materialize())
        }
    }
}

/// One repetition's results.
pub struct Rep {
    pub svc: FftService,
    pub report: ServeReport,
    pub json: String,
    /// `(template index, admitted id)` per admitted submission.
    pub admitted: Vec<(usize, u64)>,
    pub submit_s: Vec<f64>,
    pub materialize_s: Vec<f64>,
    pub drain_s: f64,
    pub export_s: f64,
    pub host_s: f64,
    /// Fleet bring-up before the repetition, host seconds (set-up).
    pub bringup_s: f64,
}

impl Rep {
    /// Host seconds per phase: the submissions (materialize + submit) in
    /// [`PHASES`] blocks, then drain, then export.
    fn phases(&self) -> Vec<f64> {
        let calls: Vec<f64> = self
            .materialize_s
            .iter()
            .zip(&self.submit_s)
            .map(|(m, s)| m + s)
            .collect();
        let mut v = blocks(&calls, PHASES);
        v.push(self.drain_s);
        v.push(self.export_s);
        v
    }
}

/// Replays the schedule into a fresh service: materialize → submit per
/// request, then drain and export the documents a caller reads. With
/// `calib`, the calibration kernels tick between submissions, and their
/// time is left out of the repetition's.
pub fn rep(
    cfg: &ServeConfig,
    sched: &[(f64, SubmitTemplate)],
    spans: &mut Spans,
    inject: Option<Inject>,
    mut calib: Option<&mut Calib>,
) -> Rep {
    let t = Instant::now();
    let mut svc = FftService::new(cfg.clone()).expect("config validated at setup");
    let bringup_s = secs(t);
    let mut admitted = Vec::with_capacity(sched.len());
    let mut submit_s = Vec::with_capacity(sched.len());
    let mut materialize_s = Vec::with_capacity(sched.len());
    let mut calib_s = 0.0;
    let t0 = Instant::now();
    let root = spans.begin("rep.serve", None);
    for (i, (at_s, tpl)) in sched.iter().enumerate() {
        if let Some(c) = calib.as_deref_mut() {
            calib_s += c.tick();
        }
        let req = Some(i as u64);
        let s = spans.begin("loadgen.materialize", req);
        let t = Instant::now();
        let payload = materialize(tpl);
        materialize_s.push(secs(t));
        spans.end(s);

        let s = spans.begin("serve.submit", req);
        let t = Instant::now();
        Inject::at(inject, Inject::ServeSubmit);
        let ticket = match payload {
            Payload::Single(spec) => svc.submit(spec, *at_s),
            Payload::Pipe(pipe) => svc.submit_pipeline(pipe, *at_s),
        };
        submit_s.push(secs(t));
        spans.end(s);
        if let Ok(tk) = ticket {
            admitted.push((i, tk.id.0));
        }
    }
    let s = spans.begin("serve.drain", None);
    let t = Instant::now();
    svc.drain();
    let drain_s = secs(t);
    spans.end(s);

    let s = spans.begin("telemetry.export", None);
    let t = Instant::now();
    let report = svc.report();
    let json = report.to_json();
    std::hint::black_box((
        svc.metrics_json(),
        svc.attribution_json(),
        svc.prometheus_text(),
    ));
    let export_s = secs(t);
    spans.end(s);
    spans.end(root);
    Rep {
        host_s: secs(t0) - calib_s,
        bringup_s,
        svc,
        report,
        json,
        admitted,
        submit_s,
        materialize_s,
        drain_s,
        export_s,
    }
}

/// Nominal flops of one template (FFT stages only for pipelines).
fn flops(tpl: &SubmitTemplate) -> u64 {
    match tpl {
        SubmitTemplate::Single(spec) => match spec.shape {
            Shape::Rows1d { n, rows } => nominal_flops_batch(n, rows),
            Shape::Volume { nx, ny, nz } => nominal_flops_3d(nx, ny, nz),
        },
        SubmitTemplate::Pipeline(p) => {
            let ffts = p
                .stages
                .iter()
                .filter(|s| matches!(s.kind, StageKind::Forward | StageKind::Inverse))
                .count() as u64;
            ffts * nominal_flops_3d(p.dims.0, p.dims.1, p.dims.2)
        }
    }
}

/// Rejected plus failed submissions.
pub fn lost(r: &ServeReport) -> u64 {
    r.rejected_queue_full
        + r.rejected_deadline
        + r.rejected_unsupported
        + r.rejected_oversized
        + r.rejected_unallocatable
        + r.rejected_quota
        + r.failed
}

/// Modelled-clock end-to-end metrics of a served schedule.
pub fn model_metrics(out: &mut Outcome, r: &ServeReport, sched: &[(f64, SubmitTemplate)]) {
    out.set("model_p50_ms", r.latency.p50_s * 1e3);
    out.set("model_p99_ms", r.latency.p99_s * 1e3);
    out.set("model_goodput_gbs", r.goodput_gbs);
    let total: u64 = sched.iter().map(|(_, t)| flops(t)).sum();
    out.set("model_gflops", total as f64 / r.makespan_s / 1e9);
    // The model's only validation: the paper's headline cell, from the
    // same analytic timing the functional kernels use.
    let steps = FiveStepFft::estimate(&DeviceSpec::gts8800(), 256, 256, 256);
    let t: f64 = steps.iter().map(|(_, k)| k.time_s).sum();
    let gflops = nominal_flops_3d(256, 256, 256) as f64 / t / 1e9;
    out.set(
        "model_paper_err_pct",
        (gflops - crate::PAPER_GFLOPS).abs() / crate::PAPER_GFLOPS * 100.0,
    );
}

/// Served outputs of every admitted single against a CPU reference
/// (`fft_pow2` per row, the single-thread `CpuFft3d` per volume). Returns
/// `(worst relative L2 error, all within tolerance, reference host s)`.
pub fn check_outputs(
    svc: &FftService,
    sched: &[(f64, SubmitTemplate)],
    admitted: &[(usize, u64)],
) -> (f64, bool, f64) {
    let by_id: BTreeMap<u64, usize> = admitted.iter().map(|&(i, id)| (id, i)).collect();
    let (mut worst, mut ok, mut ref_s, mut checked) = (0.0f64, true, 0.0, 0usize);
    for c in svc.completions() {
        let (Some(out), Some(&i)) = (&c.output, by_id.get(&c.id.0)) else {
            continue;
        };
        let SubmitTemplate::Single(spec) = &sched[i].1 else {
            continue;
        };
        let mut want = spec.materialize().payload;
        let t = Instant::now();
        match spec.shape {
            Shape::Rows1d { n, .. } => {
                for row in want.chunks_mut(n) {
                    fft_pow2(row, spec.direction);
                }
            }
            Shape::Volume { nx, ny, nz } => {
                CpuFft3d::with_threads(nx, ny, nz, 1).execute(&mut want, spec.direction)
            }
        }
        ref_s += secs(t);
        let n = match spec.shape {
            Shape::Rows1d { n, .. } => n,
            s => s.elems(),
        };
        let err = rel_l2_error_f32(out, &want);
        worst = worst.max(err);
        ok &= err <= fft_tolerance(n);
        checked += 1;
    }
    (worst, ok && checked > 0, ref_s)
}

/// Replays the service's completed launches on a bare device through
/// `bifft` (upload → execute → download, plans cached per shape). Rows
/// requests that completed together on one card shared one batched launch,
/// and replay as one; a pipeline replays its inputs' uploads, its FFT
/// stages and one download (its pointwise and reduce stages, one pass each,
/// are left out). The result approximates the simulator's share of a
/// repetition; host seconds.
fn exec_replay(
    svc: &FftService,
    sched: &[(f64, SubmitTemplate)],
    admitted: &[(usize, u64)],
) -> f64 {
    let by_id: BTreeMap<u64, usize> = admitted.iter().map(|&(i, id)| (id, i)).collect();
    // (card, completion instant, n) -> rows payloads of one launch.
    let mut batches: BTreeMap<(Option<usize>, u64, usize), Vec<Complex32>> = BTreeMap::new();
    let mut volumes = Vec::new();
    let mut pipes = Vec::new();
    for c in svc.completions() {
        let spec = match by_id.get(&c.id.0).map(|&i| &sched[i].1) {
            Some(SubmitTemplate::Single(spec)) => spec,
            Some(SubmitTemplate::Pipeline(p)) => {
                pipes.push((p, p.materialize()));
                continue;
            }
            None => continue,
        };
        match spec.shape {
            Shape::Rows1d { n, .. } => batches
                .entry((c.card, c.completed_s.to_bits(), n))
                .or_default()
                .extend(spec.materialize().payload),
            Shape::Volume { .. } => volumes.push(spec.materialize()),
        }
    }
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    let mut rows_plans: BTreeMap<usize, Fft1dBatchGpu> = BTreeMap::new();
    let mut vol_plans: BTreeMap<(usize, usize, usize), FiveStepFft> = BTreeMap::new();
    let t = Instant::now();
    for (&(_, _, n), payload) in &batches {
        let plan = rows_plans
            .entry(n)
            .or_insert_with(|| Fft1dBatchGpu::new(&mut gpu, n).expect("served length"));
        let buf = gpu
            .mem_mut()
            .alloc(payload.len())
            .expect("a row batch fits");
        gpu.mem_mut().upload(buf, 0, payload);
        plan.execute(
            &mut gpu,
            buf,
            buf,
            payload.len() / n,
            fft_math::Direction::Forward,
        );
        let mut back = vec![Complex32::ZERO; payload.len()];
        gpu.mem().download(buf, 0, &mut back);
        gpu.mem_mut().free(buf);
        std::hint::black_box(back);
    }
    for spec in &volumes {
        let Shape::Volume { nx, ny, nz } = spec.shape else {
            unreachable!("only volumes are collected here")
        };
        let plan = vol_plans
            .entry((nx, ny, nz))
            .or_insert_with(|| FiveStepFft::new(&mut gpu, nx, ny, nz));
        let (v, w) = plan.alloc_buffers(&mut gpu).expect("a served volume fits");
        plan.upload(&mut gpu, v, &spec.payload);
        plan.execute(&mut gpu, v, w, spec.direction);
        std::hint::black_box(plan.download(&gpu, v));
        gpu.mem_mut().free(v);
        gpu.mem_mut().free(w);
    }
    for (tpl, req) in &pipes {
        let plan = vol_plans
            .entry(tpl.dims)
            .or_insert_with(|| FiveStepFft::new(&mut gpu, tpl.dims.0, tpl.dims.1, tpl.dims.2));
        let (v, w) = plan
            .alloc_buffers(&mut gpu)
            .expect("a pipeline volume fits");
        for input in &req.inputs {
            plan.upload(&mut gpu, v, input);
        }
        for stage in &tpl.stages {
            let dir = match stage.kind {
                StageKind::Forward => fft_math::Direction::Forward,
                StageKind::Inverse => fft_math::Direction::Inverse,
                _ => continue,
            };
            plan.execute(&mut gpu, v, w, dir);
        }
        std::hint::black_box(plan.download(&gpu, v));
        gpu.mem_mut().free(v);
        gpu.mem_mut().free(w);
    }
    secs(t)
}

/// Report- and ledger-derived per-layer metrics (deterministic for a seed).
pub fn report_layers(out: &mut Outcome, svc: &FftService, r: &ServeReport) {
    out.set("batcher.mean_batch", r.mean_batch_size());
    out.set(
        "batcher.launches",
        r.batch_histogram.values().sum::<u64>() as f64,
    );
    out.set("queue.mean_depth", r.queue_mean_depth);
    out.set("queue.max_depth", r.queue_max_depth as f64);
    let (hits, misses) = r
        .cards
        .iter()
        .fold((0, 0), |(h, m), c| (h + c.plan_hits, m + c.plan_misses));
    out.set("scheduler.plan_hit_frac", ratio(hits, hits + misses));
    let n = r.cards.len().max(1) as f64;
    out.set(
        "scheduler.compute_util",
        r.cards.iter().map(|c| c.utilization).sum::<f64>() / n,
    );
    out.set(
        "scheduler.copy_util",
        r.cards.iter().map(|c| c.copy_utilization).sum::<f64>() / n,
    );
    out.set("pcie.h2d_mib", r.h2d_bytes as f64 / (1 << 20) as f64);
    out.set("pcie.d2h_mib", r.d2h_bytes as f64 / (1 << 20) as f64);
    out.set("pipeline.dags", r.pipelines as f64);
    out.set("pipeline.stages", r.pipeline_stages as f64);
    out.set(
        "pipeline.resident_hit_frac",
        ratio(r.resident_hits, r.resident_hits + r.resident_misses),
    );
    out.set("pipeline.evictions", r.resident_evictions as f64);
    out.set("qos.fairness_index", r.fairness_index);
    out.set("qos.preemptions", r.preemptions as f64);
    let ledgers = svc.ledgers();
    let e2e: f64 = ledgers.iter().map(|l| l.e2e_s).sum();
    for a in ATTR {
        let cat = CATEGORIES
            .iter()
            .find(|c| c.label() == a)
            .expect("a ledger category");
        let part: f64 = ledgers.iter().map(|l| l.part_s(*cat)).sum();
        out.set(
            &format!("attr.{a}_share"),
            if e2e > 0.0 { part / e2e } else { 0.0 },
        );
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The output checks and deterministic metrics of one served repetition:
/// exact attribution conservation, served outputs against the CPU
/// reference, the modelled metrics and the report-derived layer counters.
/// Returns the CPU reference's host seconds.
pub fn check_rep(out: &mut Outcome, r: &Rep, sched: &[(f64, SubmitTemplate)]) -> f64 {
    let audit = r.svc.attribution_audit();
    out.check(
        format!(
            "attribution audit: {} ledgers, {} unbalanced",
            audit.requests, audit.unbalanced
        ),
        audit.ok() && audit.requests as u64 == r.report.completed,
    );
    let (err, ok, ref_s) = check_outputs(&r.svc, sched, &r.admitted);
    out.set("max_rel_err", err);
    out.set("cpu_fft.ref_ms", ref_s * 1e3);
    out.check(
        format!("served outputs vs CPU reference, worst {err:.3e}"),
        ok,
    );
    model_metrics(out, &r.report, sched);
    report_layers(out, &r.svc, &r.report);
    out.notes.push(format!(
        "model latency samples {} per repetition",
        r.report.latency.count
    ));
    ref_s
}

pub fn run(args: &Args, kind: Kind) -> Outcome {
    let mut out = Outcome::default();
    let mut calib = Calib::new();
    let cfg = config(kind);

    // Warm-up on a prefix of the schedule, then timed repetitions of the
    // whole schedule with outputs kept, as a caller would receive them. The
    // first timed repetition is checked (outside its timing) and dropped
    // before the next, so one fleet is alive at a time. A traced run
    // alternates untraced and traced repetitions.
    let mut keep = cfg.clone();
    keep.keep_outputs = true;
    let mut sched = schedule(kind, args.seed);
    drop(rep(
        &keep,
        &sched[..sched.len() / 10],
        &mut Spans::new(false),
        None,
        None,
    ));

    // Set-up: schedule generation and fleet bring-up, SETUP_REPS times
    // here and once more before every timed repetition, so the samples
    // spread over the run. Like those, they follow the warm-up, which takes
    // the first fleet's page faults, and stop before the fleet is dropped.
    let mut scheds = Vec::new();
    let mut setups = repeat(0.0, SETUP_REPS, |_| {
        let t = Instant::now();
        sched = schedule(kind, args.seed);
        scheds.push(secs(t) * 1e3);
        let svc = std::hint::black_box(FftService::new(cfg.clone()).expect("valid config"));
        let setup_s = secs(t);
        drop(svc);
        setup_s
    });
    let mut untraced = Spans::new(false);
    let mut traced = Spans::new(args.trace);
    let (mut host, mut host_traced) = (Vec::new(), Vec::new());
    let (mut ack50, mut ack99) = (Vec::new(), Vec::new());
    let (mut sub_t, mut mat_t, mut drain_t, mut export_t, mut ctl_t) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<String> = None;
    let mut replay = 0.0;
    let mut same = true;
    let mut ref_s = 0.0;
    let min = if args.trace { 4 } else { 3 };
    repeat(args.seconds, min, |i| {
        calib.sample();
        let tracing = args.trace && i % 2 == 1;
        let t = Instant::now();
        let sched = schedule(kind, args.seed);
        let schedule_s = secs(t);
        let r = rep(
            &keep,
            &sched,
            if tracing { &mut traced } else { &mut untraced },
            args.inject,
            // Traced repetitions stay free of calibration time, which would
            // land in their unattributed remainder.
            (!tracing).then_some(&mut calib),
        );
        setups.push(schedule_s + r.bringup_s);
        out.attempted += r.report.submitted;
        out.failed += lost(&r.report);
        match &first {
            None => {
                ref_s = check_rep(&mut out, &r, &sched);
                if args.trace {
                    replay = exec_replay(&r.svc, &sched, &r.admitted);
                }
                first = Some(r.json.clone());
            }
            Some(json) => same &= r.json == *json,
        }
        if tracing {
            host_traced.push(r.host_s);
            sub_t.extend(r.submit_s.iter().map(|s| s * 1e6));
            mat_t.extend(r.materialize_s.iter().map(|s| s * 1e6));
            drain_t.push(r.drain_s * 1e3);
            export_t.push(r.export_s * 1e3);
            ctl_t.push(r.submit_s.iter().sum::<f64>() + r.drain_s);
        } else {
            host.push(r.phases());
            let ms: Vec<f64> = r.submit_s.iter().map(|s| s * 1e3).collect();
            ack50.push(nearest_rank(&ms, 0.50));
            ack99.push(nearest_rank(&ms, 0.99));
        }
        r.host_s
    });
    out.check(
        "every repetition's report is byte-identical to the first's",
        same,
    );
    out.host("setup_s", &setups);
    out.host("loadgen.schedule_ms", &scheds);
    out.host_reps(&host);
    out.host("ack_p50_ms", &ack50);
    out.host("ack_p99_ms", &ack99);
    for _ in 0..5 {
        calib.sample();
    }
    // serve-tiny's p99 submit is one that preempts a lane: the fresh pair of
    // 8 MiB staging buffers is zero-filled inside it (60 of the 3000 calls).
    out.calibrate(
        &calib,
        if kind == Kind::Tiny {
            &["ack_p99_ms"]
        } else {
            &[]
        },
    );

    if args.trace {
        out.set("loadgen.materialize_us", median(&mat_t));
        out.set("serve.submit_us.p50", nearest_rank(&sub_t, 0.50));
        out.set("serve.submit_us.p99", nearest_rank(&sub_t, 0.99));
        out.host("serve.drain_ms", &drain_t);
        out.host("serve.export_ms", &export_t);
        out.set("serve.exec_replay_s", replay);
        out.set("serve.control_s", median(&ctl_t) - replay);
        let totals: Vec<f64> = host.iter().map(|r| r.iter().sum()).collect();
        out.set(
            "sim_over_cpu",
            median(&totals) / ref_s.max(f64::MIN_POSITIVE),
        );
        out.set("trace.overhead", median(&host_traced) / median(&totals));
        out.set("gpu_sim.launch.host_us", launch_us());
        out.self_times(&traced, host_traced.len());
        crate::write_spans(&traced, args);
    }
    out
}
