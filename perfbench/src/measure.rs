//! Host-clock measurement helpers: order statistics, the span recorder of
//! traced runs, the sensitivity busy-wait and process memory.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// `(q1, median, q3)` with the interpolation of Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so the
/// quartiles printed here match the ones the spread check computes.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        len => {
            let at = |i: usize| {
                // statistics.quantiles: j = i*m // n, delta = i*m - j*n,
                // with m = len + 1 and n = 4, clamped to the data.
                let m = len + 1;
                let j = i * m / 4;
                let delta = (i * m - j * 4) as f64;
                if j == 0 {
                    v[0]
                } else if j >= len {
                    v[len - 1]
                } else {
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                }
            };
            let mid = if len % 2 == 1 {
                v[len / 2]
            } else {
                (v[len / 2 - 1] + v[len / 2]) / 2.0
            };
            (at(1), mid, at(3))
        }
    }
}

/// `host_s` of a workload whose repetitions run the same sequence of
/// phases: the sum over phases of each phase's median across repetitions.
/// A burst of machine noise that slows a few phases of one repetition then
/// drops out, where it would move that repetition's total.
pub fn sum_of_medians(reps: &[Vec<f64>]) -> f64 {
    let calls = reps.first().map_or(0, Vec::len);
    debug_assert!(reps.iter().all(|r| r.len() == calls));
    (0..calls)
        .map(|j| median(&reps.iter().map(|r| r[j]).collect::<Vec<_>>()))
        .sum()
}

/// Sums `xs` over `n` contiguous blocks of (nearly) equal length: a
/// repetition's calls grouped into phases long enough that each phase's
/// time is not bimodal, as single calls that sometimes wait on a sleeping
/// gateway are.
pub fn blocks(xs: &[f64], n: usize) -> Vec<f64> {
    xs.chunks(xs.len().div_ceil(n.max(1)).max(1))
        .map(|c| c.iter().sum())
        .collect()
}

/// Nearest-rank percentile `p` in `[0, 1]` (the serving report's
/// convention, so host and modelled percentiles mean the same thing).
pub fn nearest_rank(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Spins (never sleeps) for `d`: the fixed delay the sensitivity check
/// wraps around one layer's calls.
pub fn spin(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host seconds one [`Calib`] compute sample takes at the reference speed:
/// the fastest state of the 2-core Xeon the benchmark was tuned on.
pub const CALIB_REF_S: f64 = 0.0036;

/// Host seconds one [`Calib`] memory sample takes at the reference speed.
/// On the same machine a sample takes 1.7-1.8 ms while a compute sample
/// takes 4.9-5.7 ms, so the two factors read alike there.
pub const CALIB_MEM_REF_S: f64 = 0.0012;

/// Machine-speed calibration. The host clock of a shared sandbox drifts
/// between discrete speed states that last minutes (repetition times of
/// 0.27, 0.335 and 0.416 s for one workload within one set of runs). Two
/// fixed kernels that belong to the benchmark, not the program, are timed
/// between repetitions:
///
/// - compute: 20 radix-2 FFTs of 4096 points, cache-resident;
/// - memory: a zero fill of a 16 MiB buffer, as the fleet's staging
///   allocations do.
///
/// A host end-to-end metric is scaled by `REF / median(samples)` of the
/// kernel that matches the work it times, a within-run ratio that a change
/// to the program cannot move.
pub struct Calib {
    re: Vec<f32>,
    im: Vec<f32>,
    mem: Vec<u8>,
    samples: Vec<f64>,
    mem_samples: Vec<f64>,
    last: Instant,
}

impl Calib {
    const N: usize = 4096;
    const MEM_BYTES: usize = 16 << 20;
    /// Wall seconds between the samples [`Calib::tick`] takes.
    const TICK_S: f64 = 0.2;

    pub fn new() -> Self {
        let mut c = Calib {
            re: (0..Self::N).map(|i| (i % 7) as f32).collect(),
            im: vec![0.0; Self::N],
            mem: vec![1; Self::MEM_BYTES],
            samples: Vec::new(),
            mem_samples: Vec::new(),
            last: Instant::now(),
        };
        for _ in 0..5 {
            c.sample();
        }
        c
    }

    /// Times 20 in-place radix-2 complex FFTs of 4096 points, then the
    /// zero fill of the 16 MiB buffer.
    pub fn sample(&mut self) {
        let t = Instant::now();
        for _ in 0..20 {
            fft_radix2(&mut self.re, &mut self.im);
        }
        std::hint::black_box((&self.re, &self.im));
        self.samples.push(secs(t));
        let t = Instant::now();
        std::hint::black_box(&mut self.mem).fill(0);
        std::hint::black_box(&self.mem);
        self.mem_samples.push(secs(t));
        self.last = Instant::now();
    }

    /// Samples when [`Calib::TICK_S`] have passed since the last sample, so
    /// the samples of a run with long repetitions spread over its whole
    /// timed phase. Returns the host seconds spent.
    pub fn tick(&mut self) -> f64 {
        if secs(self.last) < Self::TICK_S {
            return 0.0;
        }
        let t = Instant::now();
        self.sample();
        secs(t)
    }

    /// Reference seconds per host second, from the compute kernel.
    pub fn factor(&self) -> f64 {
        CALIB_REF_S / median(&self.samples)
    }

    /// Reference seconds per host second, from the memory kernel.
    pub fn mem_factor(&self) -> f64 {
        CALIB_MEM_REF_S / median(&self.mem_samples)
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }
}

/// Iterative in-place radix-2 FFT, scaled by 1/n so repeated calls stay
/// finite.
fn fft_radix2(re: &mut [f32], im: &mut [f32]) {
    let n = re.len();
    let mut j = 0;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f32::consts::PI / len as f32;
        for start in (0..n).step_by(len) {
            for k in 0..len / 2 {
                let (w_im, w_re) = (ang * k as f32).sin_cos();
                let (a, b) = (start + k, start + k + len / 2);
                let t_re = re[b] * w_re - im[b] * w_im;
                let t_im = re[b] * w_im + im[b] * w_re;
                re[b] = re[a] - t_re;
                im[b] = im[a] - t_im;
                re[a] += t_re;
                im[a] += t_im;
            }
        }
        len <<= 1;
    }
    let scale = 1.0 / n as f32;
    re.iter_mut().chain(im.iter_mut()).for_each(|x| *x *= scale);
}

/// One recorded span: a call into a layer, timed on the host clock.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Host seconds since the recorder started.
    pub start_s: f64,
    /// Host seconds since the recorder started.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to, if any.
    pub req: Option<u64>,
}

/// In-memory span recorder. When disabled every call is a no-op, so the
/// untimed bookkeeping of untraced runs stays out of their numbers.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str, req: Option<u64>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let now = secs(self.epoch);
        self.spans.push(Span {
            name,
            start_s: now,
            end_s: now,
            parent: self.open.last().copied(),
            req,
        });
        let i = self.spans.len() - 1;
        self.open.push(i);
        i
    }

    /// Closes span `i`, which must be the innermost open one.
    pub fn end(&mut self, i: usize) {
        if !self.on {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(i), "spans close innermost first");
        self.spans[i].end_s = secs(self.epoch);
    }

    /// Records an already-finished child of the innermost open span, from
    /// host instants taken elsewhere (the kernel clock's stamps).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: Option<u64>) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        self.spans.push(Span {
            name,
            start_s: at(start),
            end_s: at(end),
            parent: self.open.last().copied(),
            req,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer, seconds, summed over every span: a span's
    /// duration minus the part its children cover. Children never overlap
    /// one another (the harness is single-threaded per recorder), so the
    /// covered part is the sum of their durations.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.end_s - s.start_s;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_s) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += (s.end_s - s.start_s - c).max(0.0);
        }
        out
    }

    /// Writes every span as one JSON document (names, host seconds, parent
    /// index, request id).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = String::with_capacity(64 * self.spans.len() + 32);
        s.push_str("{\"clock\": \"host\", \"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let opt = |o: Option<u64>| o.map_or("null".to_string(), |v| v.to_string());
            s.push_str(&format!(
                "  {{\"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {}, \"req\": {}}}{}\n",
                sp.name,
                sp.start_s,
                sp.end_s,
                opt(sp.parent.map(|p| p as u64)),
                opt(sp.req),
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        s.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn sum_of_medians_drops_a_slow_phase() {
        let reps = vec![vec![1.0, 2.0], vec![1.0, 9.0], vec![1.0, 2.0]];
        assert_eq!(sum_of_medians(&reps), 3.0);
    }

    #[test]
    fn blocks_cover_every_call() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(blocks(&xs, 3), vec![10.0, 26.0, 19.0]);
        assert_eq!(blocks(&xs, 10).len(), 10);
    }

    #[test]
    fn radix2_transforms_an_impulse_to_a_constant() {
        let (mut re, mut im) = (vec![0.0f32; 8], vec![0.0f32; 8]);
        re[0] = 8.0;
        fft_radix2(&mut re, &mut im);
        assert!(re.iter().all(|&x| (x - 1.0).abs() < 1e-6));
        assert!(im.iter().all(|&x| x.abs() < 1e-6));
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new(true);
        let root = sp.begin("rep.total", None);
        let child = sp.begin("serve.submit", Some(1));
        spin(Duration::from_millis(2));
        sp.end(child);
        sp.end(root);
        let by = sp.self_time_by_layer();
        assert!(by["serve"] >= 0.002);
        assert!(by["rep"] < by["serve"]);
    }
}
