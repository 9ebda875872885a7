//! The AdaptiveFL benchmark: one workload per invocation.
//!
//! ```text
//! perfbench --workload <cifar_resnet|widar_mobilenet|server_fanin>
//!           --seed <n> --seconds <s> --trace <0|1> [--commit <sha>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the program's
//! tracing off, each time scaled to the reference host (see [`host`]); `--trace 1` makes a separate traced run plus timed
//! calls into each layer and reports the per-layer metrics. Either way
//! the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; earlier lines are
//! a host stamp and human-readable notes.

mod host;
mod layers;
mod ops;
mod probe;
mod stats;
mod workload;

use std::sync::Arc;
use std::time::Instant;

use adaptivefl_core::methods::FlMethod;
use adaptivefl_core::metrics::RunResult;
use adaptivefl_core::sim::{SimConfig, Simulation};

use crate::probe::{PhaseLog, Probe};
use crate::workload::Workload;

/// Parsed command line.
pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        commit: get("--commit").unwrap_or("unknown").to_string(),
    })
}

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// The benchmark's verdict on one invocation.
#[derive(Default)]
pub struct Report {
    /// Problems found by the output checks (empty = correct).
    pub problems: Vec<String>,
    /// Client jobs dispatched by the checked runs.
    pub attempted: u64,
    /// Client jobs belonging to runs that failed a check.
    pub failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric; a non-finite value fails the invocation.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.problems.push(format!("metric {name} is {value}"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// Books one checked run: its jobs count as attempted, and as failed
    /// when any check found a problem.
    pub fn book(&mut self, label: &str, jobs: usize, problems: Vec<String>) {
        self.attempted += jobs as u64;
        if !problems.is_empty() {
            self.failed += jobs as u64;
        }
        self.problems
            .extend(problems.into_iter().map(|p| format!("{label}: {p}")));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite numbers are not JSON; `metric` has already
                // failed the invocation, so -1 only keeps the line parseable.
                let v = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A span's wall time and its time scaled to the reference host (see
/// [`host`]).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// As measured on the wall clock.
    pub raw: f64,
    /// Scaled by the calibration bursts around the span.
    pub scaled: f64,
}

/// One measured run: set-up, all rounds, and what the probe saw.
pub struct Measured {
    /// Seconds of data synthesis, fleet, pool split and method
    /// instantiation.
    pub setup: Span,
    /// Seconds of all rounds (including the evaluations), without the
    /// calibration bursts.
    pub run: Span,
    /// Wall seconds of all rounds, calibration bursts included.
    pub wall_s: f64,
    /// Milliseconds between successive exchange starts.
    pub intervals: Vec<Span>,
    /// The program's output.
    pub result: RunResult,
    /// Exchange and job records.
    pub probe: Probe,
}

/// Sets up a run of `cfg` between two calibration bursts; returns the
/// set-up, its time and the second burst.
pub fn timed_setup(w: Workload, cfg: &SimConfig) -> ((Simulation, Box<dyn FlMethod>), Span, f64) {
    let before = host::burst_ms();
    let t0 = Instant::now();
    let out = w.setup(cfg);
    let raw = t0.elapsed().as_secs_f64();
    let after = host::burst_ms();
    let span = Span {
        raw,
        scaled: raw * host::scale(before, after),
    };
    (out, span, after)
}

/// Sets up and runs `cfg` once, optionally under `tracer` and with
/// per-job timing.
pub fn run_once(
    w: Workload,
    cfg: &SimConfig,
    tracer: Option<Arc<PhaseLog>>,
    time_jobs: bool,
) -> Measured {
    let ((mut sim, method), setup, burst) = timed_setup(w, cfg);
    if let Some(t) = tracer {
        sim.set_tracer(t);
    }
    let mut probe = Probe::new(w.transport(), time_jobs);
    let begin = Instant::now();
    let result = sim.run_method_with_transport(method, &mut probe);
    let end = Instant::now();
    let spans = probe.spans(begin, burst, end, host::burst_ms());
    let ms = |(raw, scale): &(f64, f64)| Span {
        raw: *raw,
        scaled: raw * scale,
    };
    let intervals = spans[1..spans.len() - 1].iter().map(ms).collect();
    let run = Span {
        raw: spans.iter().map(|s| s.0).sum::<f64>() / 1e3,
        scaled: spans.iter().map(|s| s.0 * s.1).sum::<f64>() / 1e3,
    };
    Measured {
        setup,
        run,
        wall_s: (end - begin).as_secs_f64(),
        intervals,
        result,
        probe,
    }
}

/// A stable 64-bit digest (FNV-1a) of a run's complete output. `Debug`
/// prints every float in shortest round-trip form, so equal digests
/// mean bit-identical results.
pub fn digest(result: &RunResult) -> u64 {
    format!("{result:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The output checks every run must pass: the configured number of
/// rounds, finite accuracies, and the probe's own counts agreeing with
/// the program's records.
pub fn check(m: &Measured, cfg: &SimConfig) -> Vec<String> {
    let mut problems = Vec::new();
    let r = &m.result;
    if r.rounds.len() != cfg.rounds || m.probe.exchanges.len() != cfg.rounds {
        problems.push(format!(
            "{} round records and {} exchanges for {} rounds",
            r.rounds.len(),
            m.probe.exchanges.len(),
            cfg.rounds
        ));
    }
    let finite = !r.evals.is_empty()
        && r.evals
            .iter()
            .all(|e| e.full.is_finite() && e.levels.iter().all(|(_, a)| a.is_finite()));
    if !finite {
        problems.push("missing or non-finite accuracy".into());
    }
    let failures: usize = r.rounds.iter().map(|x| x.failures).sum();
    let undelivered: usize = m.probe.exchanges.iter().map(|e| e.undelivered).sum();
    if failures != undelivered {
        problems.push(format!(
            "RoundRecord failures {failures} != undelivered jobs {undelivered}"
        ));
    }
    let down: u64 = m.probe.exchanges.iter().map(|e| e.down_params).sum();
    let bytes_down = r.total_comm().bytes_down;
    if down * 4 != bytes_down {
        problems.push(format!(
            "dispatched params x4 = {} != comm bytes_down {bytes_down}",
            down * 4
        ));
    }
    let timed = m.probe.jobs.lock().expect("job log").len();
    if m.probe.times_jobs() && timed != m.probe.jobs_dispatched() {
        problems.push(format!(
            "{timed} timed jobs != {} dispatched",
            m.probe.jobs_dispatched()
        ));
    }
    problems
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Set-up timings per end-to-end invocation.
const SETUP_SAMPLES: usize = 21;

/// Measured runs per invocation: enough to fill `--seconds` at the
/// reference host's speed, and never fewer than three.
fn repetitions(args: &Args) -> usize {
    ((args.seconds / args.workload.nominal_run_seconds()).round() as usize).max(3)
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn end_to_end(args: &Args) -> Report {
    let w = args.workload;
    let mut report = Report::default();
    // Warm-up: a two-round run fills the allocator and caches; its
    // times are discarded, its output still checked.
    let warm_cfg = w.cfg(args.seed, 2);
    let warm = run_once(w, &warm_cfg, None, false);
    let warm_problems = check(&warm, &warm_cfg);
    report.book("warm-up", 0, warm_problems);

    let cfg = w.cfg(args.seed, w.rounds());
    let mut setup = Vec::new();
    let mut run = Vec::new();
    let mut intervals = Vec::new();
    let mut first: Option<(u64, f32)> = None;
    for rep in 0..repetitions(args) {
        let m = run_once(w, &cfg, None, false);
        let mut problems = check(&m, &cfg);
        let d = digest(&m.result);
        match first {
            None => first = Some((d, m.result.final_full_accuracy())),
            Some((d0, _)) if d0 != d => problems.push(format!(
                "digest {d:016x} differs from the first repetition's {d0:016x}"
            )),
            Some(_) => {}
        }
        report.book(
            &format!("repetition {rep}"),
            m.probe.jobs_dispatched(),
            problems,
        );
        setup.push(m.setup);
        run.push(m.run);
        intervals.extend(m.intervals);
    }
    // Set-up is cheap next to a run, so time it alone a few more
    // times for a steadier median.
    while setup.len() < SETUP_SAMPLES {
        setup.push(timed_setup(w, &cfg).1);
    }
    let (digest0, acc) = first.expect("at least one repetition");
    let raw = |v: &[Span]| v.iter().map(|s| s.raw).collect::<Vec<f64>>();
    let scaled = |v: &[Span]| v.iter().map(|s| s.scaled).collect::<Vec<f64>>();
    let (p, tail) = stats::tail(&scaled(&intervals));
    println!(
        "# {}: {} runs x {} rounds, digest {digest0:016x}, final accuracy {acc}; \
         round_ms_tail is p{p} of {} intervals",
        w.name(),
        run.len(),
        cfg.rounds,
        intervals.len()
    );
    println!(
        "# wall clock: run_s {:.3?}, setup_s median {:.4}, round_ms_p50 {:.1}",
        raw(&run),
        stats::median(&raw(&setup)),
        stats::median(&raw(&intervals))
    );
    println!("# scaled to the reference host: run_s {:.3?}", scaled(&run));
    report.metric("setup_s", stats::median(&scaled(&setup)), "s");
    report.metric("run_s", stats::median(&scaled(&run)), "s");
    report.metric("round_ms_p50", stats::median(&scaled(&intervals)), "ms");
    report.metric("round_ms_tail", tail, "ms");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report
}

/// The host stamp printed before any result.
fn host_stamp(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    #[cfg(target_arch = "x86_64")]
    let (avx512, avx2) = (
        std::arch::is_x86_feature_detected!("avx512f"),
        std::arch::is_x86_feature_detected!("avx2"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx512, avx2) = (false, false);
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"avx512f\": {avx512}, \"avx2\": {avx2}, \
         \"loadavg_1m\": \"{load}\", \"commit\": \"{}\", \"workload\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        args.commit,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", host_stamp(&args));
    let report = if args.trace {
        layers::traced(&args)
    } else {
        end_to_end(&args)
    };
    for p in &report.problems {
        println!("# CHECK FAILED: {p}");
    }
    println!("{}", report.json());
}
