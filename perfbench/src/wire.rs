//! `wire-tiny`: the `serve-tiny` schedule sent through `fft-gate` over one
//! loopback TCP connection, in waves of the gateway's window. Two threads:
//! the gateway's poll loop and this client. The client speaks the wire
//! protocol with `Frame::encode` and `FrameDecoder` directly, so codec
//! calls are timed (and wrapped by the sensitivity check) from outside.

use crate::measure::{self, median, nearest_rank, secs, Calib, Spans};
use crate::serve::{self, Kind};
use crate::{repeat, Args, Inject, Outcome, PHASES, SETUP_REPS};
use fft_gate::{control, Frame, FrameDecoder, GateConfig, GateServer, Mode, PacedBridge, PROTO};
use fft_serve::SubmitTemplate;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One paced connection speaking raw frames.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
    /// Submits the gateway lets this connection keep in flight.
    window: usize,
}

impl Conn {
    fn open(addr: &str, first_s: Option<f64>) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let mut c = Conn {
            stream,
            decoder: FrameDecoder::new(),
            buf: vec![0; 64 * 1024],
            window: 1,
        };
        let hello = Frame::Hello {
            proto: PROTO.to_string(),
            client: "perfbench".to_string(),
            mode: Mode::Paced,
            first_s,
        };
        c.stream.write_all(&hello.encode())?;
        match c.recv(&mut 0.0)? {
            Frame::HelloAck { window, .. } => {
                c.window = usize::try_from(window).unwrap_or(1).max(1);
                Ok(c)
            }
            other => Err(std::io::Error::other(format!("handshake: got {other:?}"))),
        }
    }

    /// Blocks for the next frame; adds the decoder's host seconds to
    /// `decode_s`.
    fn recv(&mut self, decode_s: &mut f64) -> std::io::Result<Frame> {
        loop {
            let t = Instant::now();
            let next = self.decoder.next_frame();
            *decode_s += secs(t);
            match next {
                Ok(Some(f)) => return Ok(f),
                Ok(None) => {}
                Err((code, msg)) => {
                    return Err(std::io::Error::other(format!("decode {code}: {msg}")))
                }
            }
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(std::io::Error::other("gateway closed the connection"));
            }
            let t = Instant::now();
            self.decoder.feed(&self.buf[..n]);
            *decode_s += secs(t);
        }
    }
}

/// One repetition over the wire.
struct Rep {
    host_s: f64,
    /// Gateway bring-up and handshake before the repetition (set-up).
    bringup_s: f64,
    report_s: f64,
    json: String,
    ack_s: Vec<f64>,
    /// Wall seconds since the stream started, at each ack.
    done_s: Vec<f64>,
    hold_s: Vec<f64>,
    encode_s: Vec<f64>,
    decode_s: Vec<f64>,
    frame_bytes: u64,
    frames: u64,
    rejected: u64,
}

impl Rep {
    /// Wall seconds per phase: the stream cut into [`PHASES`] blocks of
    /// acks, then drain + report fetch.
    fn phases(&self) -> Vec<f64> {
        let per = self.done_s.len().div_ceil(PHASES).max(1);
        let mut prev = 0.0;
        let mut v: Vec<f64> = self
            .done_s
            .chunks(per)
            .map(|c| {
                let end = c[c.len() - 1];
                let d = end - prev;
                prev = end;
                d
            })
            .collect();
        v.push(self.report_s);
        v
    }
}

fn rep(
    cfg: &GateConfig,
    sched: &[(f64, SubmitTemplate)],
    spans: &mut Spans,
    inject: Option<Inject>,
) -> std::io::Result<Rep> {
    let t = Instant::now();
    let (addr, server) = GateServer::spawn("127.0.0.1:0", cfg.clone())?;
    let addr = addr.to_string();
    let result = (|| {
        let mut conn = Conn::open(&addr, sched.first().map(|e| e.0))?;
        let mut r = Rep {
            host_s: 0.0,
            bringup_s: secs(t),
            report_s: 0.0,
            json: String::new(),
            ack_s: Vec::with_capacity(sched.len()),
            done_s: Vec::with_capacity(sched.len()),
            hold_s: Vec::with_capacity(sched.len()),
            encode_s: Vec::with_capacity(sched.len()),
            decode_s: Vec::with_capacity(sched.len()),
            frame_bytes: 0,
            frames: 0,
            rejected: 0,
        };
        // Waves of the gateway's window: every submit of a wave is encoded
        // into one buffer and sent with one write, then the client waits
        // for all of the wave's acks. The client's and the gateway's work
        // alternate, so one thread runs at a time and the one-core
        // calibration kernels track the run. A client that refilled the
        // window on every ack overlapped the two threads: the kernel did not
        // track it, and a 25% slower run read a 60% higher ack p50. One
        // submit at a time raced the poll loop's 300 µs idle sleep into a
        // fast or a slow mode per run.
        let mut pending: BTreeSet<u64> = BTreeSet::new();
        let mut next = 0;
        let t0 = Instant::now();
        let root = spans.begin("rep.wire", None);
        while next < sched.len() {
            let end = (next + conn.window).min(sched.len());
            let t_wave = Instant::now();
            let mut wave = Vec::new();
            for (i, (at_s, tpl)) in sched.iter().enumerate().take(end).skip(next) {
                let SubmitTemplate::Single(spec) = tpl else {
                    unreachable!("the tiny schedule holds singles only")
                };
                let seq = i as u64;
                let frame = Frame::Submit {
                    seq,
                    at_s: Some(*at_s),
                    next_s: sched.get(i + 1).map(|e| e.0),
                    trace: Some(seq),
                    spec: *spec,
                };
                let s = spans.begin("gate.encode", Some(seq));
                let t = Instant::now();
                Inject::at(inject, Inject::GateEncode);
                let bytes = frame.encode();
                r.encode_s.push(secs(t));
                spans.end(s);
                wave.extend_from_slice(&bytes);
                r.frames += 1;
                pending.insert(seq);
            }
            r.frame_bytes += wave.len() as u64;
            let s = spans.begin("gate.io", None);
            conn.stream.write_all(&wave)?;
            spans.end(s);
            next = end;
            while !pending.is_empty() {
                let s = spans.begin("gate.io", None);
                let mut dec = 0.0;
                let ack = conn.recv(&mut dec)?;
                spans.end(s);
                r.decode_s.push(dec);
                r.frame_bytes += ack.encode().len() as u64;
                r.frames += 1;
                let seq = match ack {
                    Frame::SubmitAck {
                        seq, recv_s, ack_s, ..
                    } => {
                        r.hold_s.push(ack_s - recv_s);
                        seq
                    }
                    Frame::Error { seq: Some(seq), .. } => {
                        r.rejected += 1;
                        seq
                    }
                    other => {
                        return Err(std::io::Error::other(format!(
                            "expected an ack, got {other:?}"
                        )))
                    }
                };
                if !pending.remove(&seq) {
                    return Err(std::io::Error::other(format!(
                        "ack for seq {seq}, which is not in flight"
                    )));
                }
                r.ack_s.push(secs(t_wave));
                r.done_s.push(secs(t0));
            }
        }
        conn.stream.write_all(&Frame::Bye.encode())?;
        let s = spans.begin("gate.report", None);
        let t = Instant::now();
        let mut ctl = control(&addr)?;
        ctl.drain()?;
        r.json = ctl.report()?;
        r.report_s = secs(t);
        spans.end(s);
        spans.end(root);
        r.host_s = secs(t0);
        ctl.shutdown()?;
        Ok(r)
    })();
    if result.is_err() {
        // Best effort: ask the gateway to stop so its thread can be joined.
        if let Ok(mut c) = control(&addr) {
            let _ = c.shutdown();
        }
    }
    server
        .join()
        .map_err(|_| std::io::Error::other("the gateway thread panicked"))?;
    result
}

/// `PacedBridge` register → submit → release over the schedule, as the
/// gateway drives it for one paced connection. Host µs per submit.
fn bridge_us(sched: &[(f64, SubmitTemplate)]) -> f64 {
    let mut per = Vec::new();
    for _ in 0..5 {
        let mut b = PacedBridge::new();
        let t = Instant::now();
        b.register(0, sched.first().map(|e| e.0))
            .expect("finite first arrival");
        for (i, (at_s, tpl)) in sched.iter().enumerate() {
            b.submit(
                0,
                i as u64,
                *at_s,
                sched.get(i + 1).map(|e| e.0),
                Some(i as u64),
                0.0,
                tpl.clone(),
            )
            .expect("the schedule keeps its watermark promises");
            std::hint::black_box(b.release());
        }
        per.push(secs(t) * 1e6 / sched.len() as f64);
    }
    median(&per)
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins this thread, and so every thread it spawns later (the gateways),
/// to the first CPU it may run on. The wave client and the gateway take
/// turns, so the pair needs one core. Left free on two cores, the pair's
/// hand-offs crossed cores, and raw repetition times rose up to threefold
/// for minutes while the one-core compute kernel did not move. Pinned,
/// every hand-off is a switch on one core, and the calibration kernels run
/// on the core that does the work.
fn pin_to_one_cpu() {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: both calls read or write at most `size` bytes of `mask`;
        // pid 0 is the calling thread.
        unsafe {
            if sched_getaffinity(0, size, mask.as_mut_ptr()) != 0 {
                return;
            }
            let Some(w) = mask.iter().position(|&m| m != 0) else {
                return;
            };
            let bit = mask[w].trailing_zeros();
            let mut one = [0u64; 16];
            one[w] = 1 << bit;
            sched_setaffinity(0, size, one.as_ptr());
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    pin_to_one_cpu();
    let mut out = Outcome::default();
    let cfg = GateConfig {
        serve: serve::tiny_config(),
        ..GateConfig::default()
    };

    // Set-up: schedule generation plus gateway bring-up and handshake.
    let mut scheds = Vec::new();
    let mut sched = Vec::new();
    let mut setups = repeat(0.0, SETUP_REPS, |_| {
        let t = Instant::now();
        sched = serve::schedule(Kind::Tiny, args.seed);
        scheds.push(secs(t) * 1e3);
        let (addr, h) = GateServer::spawn("127.0.0.1:0", cfg.clone()).expect("loopback bind");
        let addr = addr.to_string();
        Conn::open(&addr, None).expect("handshake");
        let setup_s = secs(t);
        control(&addr)
            .and_then(|mut c| c.shutdown())
            .expect("gateway shutdown");
        h.join().expect("gateway thread");
        setup_s
    });

    // Timed repetitions over the wire (the first is the warm-up), with a
    // calibration sample before each while the gateway is down.
    let mut calib = Calib::new();
    let mut untraced = Spans::new(false);
    let mut traced = Spans::new(args.trace);
    let (mut host, mut host_traced) = (Vec::new(), Vec::new());
    let (mut ack50, mut ack99) = (Vec::new(), Vec::new());
    let (mut enc, mut dec, mut holds) = (Vec::new(), Vec::new(), Vec::new());
    let (mut bytes, mut frames) = (0u64, 0u64);
    let mut jsons = Vec::new();
    let mut error = None;
    let min = if args.trace { 7 } else { 6 };
    repeat(args.seconds, min, |i| {
        calib.sample();
        let tracing = args.trace && i % 2 == 0 && i > 0;
        let t = Instant::now();
        let sched = serve::schedule(Kind::Tiny, args.seed);
        let schedule_s = secs(t);
        let mut r = match rep(
            &cfg,
            &sched,
            if tracing { &mut traced } else { &mut untraced },
            args.inject,
        ) {
            Ok(r) => r,
            Err(e) => {
                error = Some(e.to_string());
                return f64::INFINITY;
            }
        };
        setups.push(schedule_s + r.bringup_s);
        out.attempted += sched.len() as u64;
        out.failed += r.rejected;
        jsons.push(std::mem::take(&mut r.json));
        if i == 0 {
            return r.host_s;
        }
        if tracing {
            host_traced.push(r.host_s);
            enc.extend(r.encode_s.iter().map(|s| s * 1e9));
            dec.extend(r.decode_s.iter().map(|s| s * 1e9));
            holds.extend(r.hold_s.iter().map(|s| s * 1e3));
            bytes += r.frame_bytes;
            frames += r.frames;
        } else {
            host.push(r.phases());
            let ms: Vec<f64> = r.ack_s.iter().map(|s| s * 1e3).collect();
            ack50.push(nearest_rank(&ms, 0.50));
            ack99.push(nearest_rank(&ms, 0.99));
        }
        r.host_s
    });
    if let Some(e) = error {
        eprintln!("perfbench: wire repetition failed: {e}");
        out.check(format!("wire repetition: {e}"), false);
        return out;
    }
    // The gateway's peak, read before the in-process replay below brings
    // up a second fleet in this thread.
    out.set("peak_rss_mib", measure::peak_rss_mib());

    // In-process replay of the same schedule: the reference report, the
    // output and attribution checks, and the modelled metrics.
    let mut keep = cfg.serve.clone();
    keep.keep_outputs = true;
    // Twice: the first pays the fleet's first-touch page faults.
    drop(serve::rep(
        &keep,
        &sched,
        &mut Spans::new(false),
        None,
        None,
    ));
    let local = serve::rep(&keep, &sched, &mut Spans::new(false), None, None);
    let replay_s = local.host_s;
    let ref_s = serve::check_rep(&mut out, &local, &sched);
    drop(local.svc);
    let mismatch = jsons.iter().filter(|j| **j != local.json).count();
    out.check(
        format!("every wire-fetched report is byte-identical to the in-process replay ({mismatch} differ)"),
        mismatch == 0,
    );
    out.host("setup_s", &setups);
    out.host("loadgen.schedule_ms", &scheds);
    out.host_reps(&host);
    out.host("ack_p50_ms", &ack50);
    out.host("ack_p99_ms", &ack99);
    for _ in 0..5 {
        calib.sample();
    }
    // The p99 ack ends one of the slowest waves. Those hold 3-4 lane
    // preemptions, each zero-filling a fresh pair of 8 MiB staging buffers.
    out.calibrate(&calib, &["ack_p99_ms"]);

    if args.trace {
        out.set("gate.encode_ns_per_frame", median(&enc));
        out.set("gate.decode_ns_per_frame", median(&dec));
        out.set("gate.frame_bytes_mean", bytes as f64 / frames.max(1) as f64);
        out.set("gate.bridge_us_per_submit", bridge_us(&sched));
        out.set("gate.server_hold_ms.p50", nearest_rank(&holds, 0.50));
        out.set("gate.server_hold_ms.p99", nearest_rank(&holds, 0.99));
        out.set("gate.inproc_replay_s", replay_s);
        let totals: Vec<f64> = host.iter().map(|r| r.iter().sum()).collect();
        out.set("gate.overhead_s", median(&totals) - replay_s);
        out.set(
            "sim_over_cpu",
            median(&totals) / ref_s.max(f64::MIN_POSITIVE),
        );
        out.set("trace.overhead", median(&host_traced) / median(&totals));
        out.set("gpu_sim.launch.host_us", crate::fivestep::launch_us());
        out.self_times(&traced, host_traced.len());
        crate::write_spans(&traced, args);
    }
    out
}
