//! `perfbench`: one command that runs a named workload with a seed, checks
//! its outputs, and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fivestep-256 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with no spans
//! recorded; `--trace 1` prints the per-layer metrics of a traced run. The
//! last stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. A failed output check prints `"correct": false` and exits 1.
//! Every number names its clock: **host** (wall time on this machine) or
//! **model** (simulated GPU/PCIe time, which repeats exactly for a seed).
//! See `perfbench/NOTES.md` for why each workload and metric exists.

mod fivestep;
mod measure;
mod serve;
mod wire;

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics, `(name, unit)`: printed by every untraced run.
pub const END_TO_END: [(&str, &str); 12] = [
    ("host_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
    ("model_gflops", "GFLOP/s"),
    ("model_paper_err_pct", "%"),
    ("max_rel_err", "ratio"),
    ("model_p50_ms", "model-ms"),
    ("model_p99_ms", "model-ms"),
    ("model_goodput_gbs", "GB/s"),
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
];

/// Five-step kernel names, in launch order.
pub const KERNELS: [&str; 5] = [
    "step1_z16",
    "step2_z16",
    "step3_y16",
    "step4_y16",
    "step5_x",
];

/// Attribution categories reported as shares of served latency.
pub const ATTR: [&str; 8] = [
    "queue",
    "plan",
    "staging",
    "h2d",
    "compute",
    "d2h",
    "resident",
    "preempted",
];

/// Layers whose self time the traced run reports (span-name prefixes).
pub const LAYERS: [&str; 6] = ["gpu_sim", "bifft", "loadgen", "serve", "telemetry", "gate"];

/// Per-layer metrics, `(name, unit)`: printed by every traced run. A
/// layer a workload does not exercise reads 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: String, u: &'static str| v.push((n, u));
    for k in KERNELS {
        add(format!("gpu_sim.kernel.{k}.host_ms"), "ms");
    }
    add("gpu_sim.exec.host_ns_per_elem_pass".into(), "ns");
    for k in KERNELS {
        add(format!("gpu_sim.kernel.{k}.model_gbs"), "GB/s");
    }
    add("gpu_sim.kernel.min_coalesced_frac".into(), "ratio");
    add("gpu_sim.launch.host_us".into(), "us");
    for n in ["plan_build", "pack", "execute", "unpack"] {
        add(format!("bifft.{n}_ms"), "ms");
    }
    add("cpu_fft.ref_ms".into(), "ms");
    add("sim_over_cpu".into(), "ratio");
    add("loadgen.schedule_ms".into(), "ms");
    add("loadgen.materialize_us".into(), "us");
    add("serve.submit_us.p50".into(), "us");
    add("serve.submit_us.p99".into(), "us");
    add("serve.drain_ms".into(), "ms");
    add("serve.export_ms".into(), "ms");
    add("serve.exec_replay_s".into(), "s");
    add("serve.control_s".into(), "s");
    add("batcher.mean_batch".into(), "count");
    add("batcher.launches".into(), "count");
    add("queue.mean_depth".into(), "count");
    add("queue.max_depth".into(), "count");
    add("scheduler.plan_hit_frac".into(), "ratio");
    add("scheduler.compute_util".into(), "ratio");
    add("scheduler.copy_util".into(), "ratio");
    add("pcie.h2d_mib".into(), "MiB");
    add("pcie.d2h_mib".into(), "MiB");
    add("pipeline.dags".into(), "count");
    add("pipeline.stages".into(), "count");
    add("pipeline.resident_hit_frac".into(), "ratio");
    add("pipeline.evictions".into(), "count");
    add("qos.fairness_index".into(), "ratio");
    add("qos.preemptions".into(), "count");
    for a in ATTR {
        add(format!("attr.{a}_share"), "ratio");
    }
    add("gate.encode_ns_per_frame".into(), "ns");
    add("gate.decode_ns_per_frame".into(), "ns");
    add("gate.frame_bytes_mean".into(), "bytes");
    add("gate.bridge_us_per_submit".into(), "us");
    add("gate.server_hold_ms.p50".into(), "ms");
    add("gate.server_hold_ms.p99".into(), "ms");
    add("gate.inproc_replay_s".into(), "s");
    add("gate.overhead_s".into(), "s");
    for l in LAYERS {
        add(format!("self.{l}_ms"), "ms");
    }
    add("self.unattributed_ms".into(), "ms");
    add("trace.overhead".into(), "ratio");
    add("trace.spans".into(), "count");
    v
}

/// The paper's headline: 256³ five-step forward FFT on the 8800 GTS.
pub const PAPER_GFLOPS: f64 = 67.1;

/// Phases a serving repetition's calls are grouped into for `host_s`.
pub const PHASES: usize = 10;

/// Set-up runs this many times before the timed repetitions; `setup_s` is
/// the median over these and any set-up each repetition needs.
pub const SETUP_REPS: usize = 5;

/// A layer whose calls the sensitivity check wraps in a fixed busy-wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// `FiveStepFft::execute` on fivestep-256.
    BifftExecute,
    /// `FftService::submit` / `submit_pipeline` on serve-*.
    ServeSubmit,
    /// `Frame::encode` on wire-tiny.
    GateEncode,
}

impl Inject {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "bifft.execute" => Some(Inject::BifftExecute),
            "serve.submit" => Some(Inject::ServeSubmit),
            "gate.encode" => Some(Inject::GateEncode),
            _ => None,
        }
    }

    /// The fixed per-call delay: 1.5 × the `host_s` bound (25%) of the
    /// layer's home workload, spread over that workload's calls per
    /// repetition, from its raw (uncalibrated) repetition time on a 2-core
    /// Xeon (NOTES.md).
    pub fn delay(self) -> Duration {
        match self {
            // fivestep-256: ~8.3 s per transform, one execute call.
            Inject::BifftExecute => Duration::from_millis(3100),
            // serve-tiny: ~0.40 s per 3000-submit repetition.
            Inject::ServeSubmit => Duration::from_micros(50),
            // wire-tiny: ~0.44 s per 3000-encode repetition.
            Inject::GateEncode => Duration::from_micros(55),
        }
    }

    /// Busy-waits when `self` names `layer`.
    pub fn at(inject: Option<Inject>, layer: Inject) {
        if inject == Some(layer) {
            measure::spin(layer.delay());
        }
    }
}

/// Run parameters shared by every workload.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub inject: Option<Inject>,
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by name (end-to-end and per-layer).
    pub metrics: BTreeMap<String, f64>,
    /// Requests (or transforms) attempted.
    pub attempted: u64,
    /// Rejected or failed requests plus failed output checks.
    pub failed: u64,
    /// `(check, passed)` for every output check.
    pub checks: Vec<(String, bool)>,
    /// Human-readable lines (quartiles beside medians, counts).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_string(), v);
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.into(), ok));
    }

    /// Records a host-clock sample set: its median under `name`, and the
    /// quartiles and count on a note line.
    pub fn host(&mut self, name: &str, samples: &[f64]) {
        let (q1, med, q3) = measure::quartiles(samples);
        self.set(name, med);
        self.notes.push(format!(
            "{name}: median {med:.6} (q1 {q1:.6}, q3 {q3:.6}, n {})",
            samples.len()
        ));
    }

    /// Records `host_s` from repetitions that each time the same sequence
    /// of phases ([`measure::sum_of_medians`]), with the quartiles of the
    /// repetitions' totals on a note line.
    pub fn host_reps(&mut self, reps: &[Vec<f64>]) {
        self.set("host_s", measure::sum_of_medians(reps));
        let totals: Vec<f64> = reps.iter().map(|r| r.iter().sum()).collect();
        let (q1, med, q3) = measure::quartiles(&totals);
        self.notes.push(format!(
            "host_s: sum of per-phase medians {:.6} | repetition totals median {med:.6} (q1 {q1:.6}, q3 {q3:.6}, n {})",
            self.metrics["host_s"],
            totals.len()
        ));
    }

    /// Scales the end-to-end host metrics to the calibration kernels'
    /// reference speed; the raw values stay on a note line. `setup_s` and
    /// the names in `mem_bound` are scaled by the memory kernel, the rest by
    /// the compute kernel. Set-up is allocation and zero fill of device
    /// memory and staging buffers on every workload.
    pub fn calibrate(&mut self, calib: &measure::Calib, mem_bound: &[&str]) {
        let (f, fm) = (calib.factor(), calib.mem_factor());
        let mut raw = Vec::new();
        for name in ["host_s", "setup_s", "ack_p50_ms", "ack_p99_ms"] {
            if let Some(v) = self.metrics.get_mut(name) {
                raw.push(format!("{name} {v:.6}"));
                *v *= if name == "setup_s" || mem_bound.contains(&name) {
                    fm
                } else {
                    f
                };
            }
        }
        self.notes.push(format!(
            "calibration: factor {f:.4} (compute), {fm:.4} (memory) from {} samples; raw {}",
            calib.len(),
            raw.join(", ")
        ));
    }

    /// Self time per layer and the unattributed remainder, per traced
    /// repetition, from the span recorder.
    pub fn self_times(&mut self, spans: &measure::Spans, reps: usize) {
        let by = spans.self_time_by_layer();
        let per = |s: f64| s * 1e3 / reps.max(1) as f64;
        for l in LAYERS {
            self.set(
                &format!("self.{l}_ms"),
                per(by.get(l).copied().unwrap_or(0.0)),
            );
        }
        self.set(
            "self.unattributed_ms",
            per(by.get("rep").copied().unwrap_or(0.0)),
        );
        self.set("trace.spans", spans.len() as f64);
    }
}

/// Repeats `rep` (which returns its own host seconds) until `seconds` of
/// wall time have passed and at least `min` repetitions ran; never starts
/// a repetition the budget cannot hold once `min` is reached.
pub fn repeat(seconds: f64, min: usize, mut rep: impl FnMut(usize) -> f64) -> Vec<f64> {
    let t = std::time::Instant::now();
    let mut out: Vec<f64> = Vec::new();
    loop {
        let i = out.len();
        out.push(rep(i));
        let spent = measure::secs(t);
        let next = measure::median(&out);
        if out.len() >= min && spent + next > seconds {
            return out;
        }
    }
}

/// Writes a traced run's spans to `perfbench/out/spans-<workload>-<seed>.json`.
pub fn write_spans(spans: &measure::Spans, args: &Args) {
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans-{}-{}.json",
        args.workload, args.seed
    ));
    if let Err(e) = spans.write_json(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload fivestep-256|serve-tiny|serve-pipeline|wire-tiny \
         --seed N --seconds S --trace 0|1 [--inject bifft.execute|serve.submit|gate.encode]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut inject) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().ok(),
            "--seconds" => seconds = val.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--inject" => inject = Some(Inject::parse(&val).unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
            inject,
        },
        _ => usage(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fixes glibc's allocator settings that otherwise depend on the process's
/// history, so a repetition's memory behaviour does not:
///
/// - One arena for the whole process. wire-tiny brings up a fresh gateway
///   thread for every repetition; with an arena of its own, that thread
///   handed its memory back to the kernel when it ended, so every
///   repetition took about 246k minor page faults (the fleet's ~1 GiB of
///   staging buffers), whose cost on a shared host moves from run to run.
/// - A fixed 32 MiB mmap threshold and a 1 GiB trim threshold. By default
///   the mmap threshold rises with the first large frees, so serve-pipeline
///   fleets brought up before the first full repetition took 36-48 ms in
///   fresh pages and those after it 6-8 ms in reused heap.
///
/// Buffers of 32 MiB and more (fivestep-256's volumes) are still mapped
/// and unmapped on every allocation.
fn steady_malloc() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: glibc's `mallopt` only sets allocator parameters; it runs
        // here before any thread is spawned.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, 1 << 30);
        }
    }
}

fn main() {
    steady_malloc();
    let args = parse_args();
    let mut out = match args.workload.as_str() {
        "fivestep-256" => fivestep::run(&args),
        "serve-tiny" => serve::run(&args, serve::Kind::Tiny),
        "serve-pipeline" => serve::run(&args, serve::Kind::Pipeline),
        "wire-tiny" => wire::run(&args),
        _ => usage(),
    };
    if !out.metrics.contains_key("peak_rss_mib") {
        out.set("peak_rss_mib", measure::peak_rss_mib());
    }
    if out.attempted > 0 {
        out.set("ok_frac", 1.0 - out.failed as f64 / out.attempted as f64);
    }

    // Machine fingerprint: host numbers from different machines are never
    // compared blindly.
    println!(
        "# machine: nproc {} | cpu {} | cpu_fft.ref_ms {:.3}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model(),
        out.metrics.get("cpu_fft.ref_ms").copied().unwrap_or(0.0)
    );
    println!(
        "# workload {} seed {} seconds {} trace {} inject {:?}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.inject
    );
    for n in &out.notes {
        println!("# {n}");
    }
    for (c, ok) in &out.checks {
        println!("# check {}: {c}", if *ok { "ok" } else { "FAILED" });
    }

    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut fields = Vec::with_capacity(wanted.len());
    for (name, unit) in &wanted {
        let v = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            // Per-layer metrics of layers this workload does not exercise.
            None if args.trace => 0.0,
            other => {
                eprintln!("perfbench: metric {name} is missing or not finite ({other:?})");
                std::process::exit(1);
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = out.checks.iter().all(|(_, ok)| *ok) && !out.checks.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
