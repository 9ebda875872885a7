//! Observation from outside the program: a [`Transport`] wrapper that
//! timestamps every exchange (after a host calibration burst) and,
//! optionally, every client job, and a [`Tracer`] that keeps exact
//! phase durations.
//!
//! Both only observe. The wrapper hands the inner transport the very
//! jobs it was given (each closure wrapped in a timer) and returns its
//! exchange untouched, so a probed run is bit-identical to a plain one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use adaptivefl_core::sim::Env;
use adaptivefl_core::transport::{ClientJob, Exchange, JobFn, LocalOutcome, Transport};
use adaptivefl_core::{Phase, TraceEvent, Tracer};
use rand_chacha::ChaCha8Rng;

use crate::host;

/// What one client job did, as seen around its closure.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    /// Wall-clock nanoseconds of the closure.
    pub nanos: u64,
    /// Local samples (0 when the client could not train).
    pub samples: usize,
    /// Forward MACs per sample of the trained submodel.
    pub macs_per_sample: u64,
    /// Whether the client produced an upload.
    pub trained: bool,
}

/// Per-exchange counts and timestamps.
#[derive(Debug, Clone, Copy)]
pub struct ExchangeRecord {
    /// The calibration burst run just before the exchange, in ms.
    pub burst_ms: f64,
    /// When the exchange began (after the burst).
    pub start: Instant,
    /// Wall-clock nanoseconds of the exchange.
    pub nanos: u64,
    /// Jobs dispatched.
    pub jobs: usize,
    /// Parameter elements dispatched (Σ `ClientJob::down_params`).
    pub down_params: u64,
    /// Jobs whose upload did not come back delivered.
    pub undelivered: usize,
}

/// A [`Transport`] that records every exchange and, when `time_jobs`
/// is set, wraps every `ClientJob::run` closure in a timer.
pub struct Probe {
    inner: Box<dyn Transport>,
    time_jobs: bool,
    /// One record per exchange, in order.
    pub exchanges: Vec<ExchangeRecord>,
    /// One record per timed job, in execution order.
    pub jobs: Arc<Mutex<Vec<JobRecord>>>,
}

impl Probe {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Transport>, time_jobs: bool) -> Self {
        Probe {
            inner,
            time_jobs,
            exchanges: Vec::new(),
            jobs: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Whether job closures are being timed.
    pub fn times_jobs(&self) -> bool {
        self.time_jobs
    }

    /// The run from `begin` to `end` cut at every exchange start, as
    /// `(ms, scale)` per span: wall milliseconds without the calibration
    /// bursts, and the factor to the reference host from the bursts on
    /// either side (`begin_burst` just before `begin`, `end_burst` just
    /// after `end`). All but the first and last span are the intervals
    /// between successive exchange starts.
    pub fn spans(
        &self,
        begin: Instant,
        begin_burst: f64,
        end: Instant,
        end_burst: f64,
    ) -> Vec<(f64, f64)> {
        let mut spans = Vec::with_capacity(self.exchanges.len() + 1);
        let (mut t, mut b) = (begin, begin_burst);
        for e in &self.exchanges {
            let ms = (e.start - t).as_secs_f64() * 1e3 - e.burst_ms;
            spans.push((ms, host::scale(b, e.burst_ms)));
            (t, b) = (e.start, e.burst_ms);
        }
        spans.push(((end - t).as_secs_f64() * 1e3, host::scale(b, end_burst)));
        spans
    }

    /// Σ jobs dispatched.
    pub fn jobs_dispatched(&self) -> usize {
        self.exchanges.iter().map(|e| e.jobs).sum()
    }
}

/// Wraps a job closure so its wall time and outcome land in `log`.
fn timed<'a>(log: &Arc<Mutex<Vec<JobRecord>>>, run: JobFn<'a>) -> JobFn<'a> {
    let log = Arc::clone(log);
    Box::new(move |rng: &mut ChaCha8Rng| {
        let t0 = Instant::now();
        let out: LocalOutcome = run(rng);
        let nanos = t0.elapsed().as_nanos() as u64;
        log.lock().expect("job log").push(JobRecord {
            nanos,
            samples: out.samples,
            macs_per_sample: out.macs_per_sample,
            trained: out.upload.is_some(),
        });
        out
    })
}

impl Transport for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn exchange(
        &mut self,
        env: &Env,
        round: usize,
        jobs: Vec<ClientJob<'_>>,
        rng: &mut ChaCha8Rng,
    ) -> Exchange {
        let burst_ms = host::burst_ms();
        let start = Instant::now();
        let n = jobs.len();
        let down_params = jobs.iter().map(|j| j.down_params).sum();
        let jobs = if self.time_jobs {
            jobs.into_iter()
                .map(|j| ClientJob {
                    run: timed(&self.jobs, j.run),
                    ..j
                })
                .collect()
        } else {
            jobs
        };
        let ex = self.inner.exchange(env, round, jobs, rng);
        self.exchanges.push(ExchangeRecord {
            burst_ms,
            start,
            nanos: start.elapsed().as_nanos() as u64,
            jobs: n,
            down_params,
            undelivered: ex
                .deliveries
                .iter()
                .filter(|d| !d.status.is_delivered())
                .count(),
        });
        ex
    }
}

/// A [`Tracer`] keeping every phase duration exactly (milliseconds),
/// in arrival order, and counting events.
#[derive(Default)]
pub struct PhaseLog {
    phases: Mutex<HashMap<&'static str, Vec<f64>>>,
    events: AtomicU64,
}

impl PhaseLog {
    /// Durations of one phase in milliseconds, in arrival order.
    pub fn ms(&self, phase: Phase) -> Vec<f64> {
        self.phases
            .lock()
            .expect("phase log")
            .get(phase.name())
            .cloned()
            .unwrap_or_default()
    }

    /// Events received.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }
}

impl Tracer for PhaseLog {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&self, _event: TraceEvent) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    fn phase(&self, phase: Phase, nanos: u64) {
        self.phases
            .lock()
            .expect("phase log")
            .entry(phase.name())
            .or_default()
            .push(nanos as f64 / 1e6);
    }
}
