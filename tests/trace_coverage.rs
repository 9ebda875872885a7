//! Trace coverage: every method kind emits the same round skeleton of
//! phase spans and events, and the full trace stream is pinned by a
//! digest.
//!
//! Each of the seven method kinds runs over the lossless
//! `PerfectTransport` and over a faulty one-thread `SimTransport` (one
//! thread keeps the event order deterministic). A probe tracer records
//! every event and phase span in arrival order, forwarding both to a
//! `RecordingTracer`, and a wrapping transport counts the client jobs
//! that actually ran. Per round the stream must hold exactly one
//! `Round`, `Dispatch`, `Collect` and `Aggregate` span, one
//! `ClientTrain` span per job run, as many `Collect` as `Dispatch`
//! events, and — for the AdaptiveFL kinds only — one `RlDispatch` per
//! `Dispatch` and one `RlReturn` per `Collect`. Finally an FNV-1a
//! digest of the whole stream (events with their payloads, spans by
//! name) is compared with `tests/goldens/trace-events.txt`.
//!
//! To regenerate after an *intentional* change of the trace stream:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test trace_coverage
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use adaptivefl::comm::{FaultPlan, SimTransport};
use adaptivefl::core::methods::MethodKind;
use adaptivefl::core::select::SelectionStrategy;
use adaptivefl::core::sim::{Env, SimConfig, Simulation};
use adaptivefl::core::trace::{Phase, TraceEvent, Tracer};
use adaptivefl::core::transport::{ClientJob, Exchange, PerfectTransport, Transport};
use adaptivefl::data::{Partition, SynthSpec};
use adaptivefl::trace::RecordingTracer;
use rand_chacha::ChaCha8Rng;

fn all_kinds() -> [MethodKind; 7] {
    [
        MethodKind::AdaptiveFl,
        MethodKind::AdaptiveFlGreedy,
        MethodKind::AdaptiveFlVariant(SelectionStrategy::Random),
        MethodKind::AllLarge,
        MethodKind::Decoupled,
        MethodKind::HeteroFl,
        MethodKind::ScaleFl,
    ]
}

fn is_adaptive(kind: MethodKind) -> bool {
    matches!(
        kind,
        MethodKind::AdaptiveFl | MethodKind::AdaptiveFlGreedy | MethodKind::AdaptiveFlVariant(_)
    )
}

fn cfg() -> SimConfig {
    SimConfig::quick_test(900)
}

fn prepare() -> Simulation {
    let mut spec = SynthSpec::test_spec(4);
    spec.input = (3, 8, 8);
    Simulation::prepare(&cfg(), &spec, Partition::Dirichlet(0.5))
}

/// Every fault class enabled, one worker thread.
fn faulty_transport() -> SimTransport {
    SimTransport::new().with_threads(1).with_faults(FaultPlan {
        upload_drop: 0.15,
        straggler_prob: 0.2,
        crash_prob: 0.1,
        truncate_prob: 0.05,
        seed: 7,
        ..Default::default()
    })
}

/// One entry of the recorded stream.
#[derive(Debug)]
enum Entry {
    Event(TraceEvent),
    Span(Phase),
}

/// Records events and phase spans in arrival order and forwards both
/// to a [`RecordingTracer`].
#[derive(Default)]
struct Probe {
    log: Mutex<Vec<Entry>>,
    recorder: RecordingTracer,
}

impl Tracer for Probe {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&self, event: TraceEvent) {
        self.log.lock().unwrap().push(Entry::Event(event.clone()));
        self.recorder.event(event);
    }

    fn phase(&self, phase: Phase, nanos: u64) {
        self.log.lock().unwrap().push(Entry::Span(phase));
        self.recorder.phase(phase, nanos);
    }
}

/// Wraps a transport and counts, per round, the client jobs it ran.
struct Counting<T> {
    inner: T,
    runs: Vec<Arc<AtomicUsize>>,
}

impl<T: Transport> Transport for Counting<T> {
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
        let count = Arc::new(AtomicUsize::new(0));
        self.runs.push(Arc::clone(&count));
        let jobs = jobs
            .into_iter()
            .map(|job| {
                let count = Arc::clone(&count);
                let run = job.run;
                ClientJob {
                    run: Box::new(move |rng: &mut ChaCha8Rng| {
                        count.fetch_add(1, Ordering::Relaxed);
                        run(rng)
                    }),
                    ..job
                }
            })
            .collect();
        self.inner.exchange(env, round, jobs, rng)
    }
}

/// Runs `kind` traced over `transport`; returns the recorded stream,
/// the recorder, and the number of jobs run per round.
fn traced_run<T: Transport>(
    kind: MethodKind,
    transport: T,
) -> (Vec<Entry>, RecordingTracer, Vec<usize>) {
    let mut sim = prepare();
    let probe = Arc::new(Probe::default());
    sim.set_tracer(Arc::clone(&probe) as Arc<dyn Tracer>);
    let mut counting = Counting {
        inner: transport,
        runs: Vec::new(),
    };
    let method = kind.instantiate(sim.env());
    sim.run_method_with_transport(method, &mut counting);
    drop(sim);
    let probe = Arc::try_unwrap(probe).unwrap_or_else(|_| panic!("probe still shared"));
    let runs = counting
        .runs
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    (probe.log.into_inner().unwrap(), probe.recorder, runs)
}

/// The entries of round `t`: from its `RoundStart` through its
/// `RoundEnd` event.
fn round_entries(log: &[Entry], t: usize) -> &[Entry] {
    let start = log
        .iter()
        .position(|e| matches!(e, Entry::Event(TraceEvent::RoundStart { round }) if *round == t))
        .unwrap_or_else(|| panic!("no RoundStart for round {t}"));
    let len = log[start..]
        .iter()
        .position(|e| matches!(e, Entry::Event(TraceEvent::RoundEnd { round, .. }) if *round == t))
        .unwrap_or_else(|| panic!("no RoundEnd for round {t}"));
    &log[start..=start + len]
}

fn spans(entries: &[Entry], phase: Phase) -> usize {
    entries
        .iter()
        .filter(|e| matches!(e, Entry::Span(p) if *p == phase))
        .count()
}

fn events<'a>(entries: &'a [Entry], kind: &str) -> Vec<&'a TraceEvent> {
    entries
        .iter()
        .filter_map(|e| match e {
            Entry::Event(ev) if ev.kind() == kind => Some(ev),
            _ => None,
        })
        .collect()
}

fn client_of(ev: &TraceEvent) -> usize {
    match ev {
        TraceEvent::Dispatch { client, .. }
        | TraceEvent::Collect { client, .. }
        | TraceEvent::RlDispatch { client, .. }
        | TraceEvent::RlReturn { client, .. } => *client,
        other => panic!("{} carries no client", other.kind()),
    }
}

/// FNV-1a (64-bit) over every entry's debug rendering, one per line.
fn digest(log: &[Entry]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for entry in log {
        let line = match entry {
            Entry::Event(ev) => format!("{ev:?}\n"),
            Entry::Span(p) => format!("span {}\n", p.name()),
        };
        for b in line.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn slug(kind: MethodKind) -> String {
    format!("{kind}")
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Checks the skeleton invariants of one run and returns its digest
/// line.
fn check_run<T: Transport>(kind: MethodKind, transport: T, label: &str) -> String {
    let (log, recorder, runs) = traced_run(kind, transport);
    let rounds = cfg().rounds;
    assert_eq!(runs.len(), rounds, "{kind}/{label}: one exchange per round");
    for (t, &jobs_run) in runs.iter().enumerate() {
        let r = round_entries(&log, t);
        for phase in [
            Phase::Round,
            Phase::Dispatch,
            Phase::Collect,
            Phase::Aggregate,
        ] {
            assert_eq!(
                spans(r, phase),
                1,
                "{kind}/{label} round {t}: {} spans",
                phase.name()
            );
        }
        assert_eq!(
            spans(r, Phase::ClientTrain),
            jobs_run,
            "{kind}/{label} round {t}: one client_train span per job run"
        );
        let dispatch = events(r, "dispatch");
        let collect = events(r, "collect");
        assert_eq!(
            dispatch.len(),
            collect.len(),
            "{kind}/{label} round {t}: dispatch vs collect events"
        );
        let rl_dispatch = events(r, "rl_dispatch");
        let rl_return = events(r, "rl_return");
        if is_adaptive(kind) {
            let clients = |evs: &[&TraceEvent]| -> Vec<usize> {
                let mut c: Vec<usize> = evs.iter().map(|e| client_of(e)).collect();
                c.sort_unstable();
                c
            };
            assert_eq!(
                clients(&rl_dispatch),
                clients(&dispatch),
                "{kind}/{label} round {t}: one rl_dispatch per dispatch"
            );
            assert_eq!(
                clients(&rl_return),
                clients(&collect),
                "{kind}/{label} round {t}: one rl_return per collect"
            );
        } else {
            assert!(
                rl_dispatch.is_empty() && rl_return.is_empty(),
                "{kind}/{label} round {t}: RL events from a non-RL method"
            );
        }
    }
    // No round-level span outside a round.
    let in_rounds: usize = (0..rounds)
        .map(|t| spans(round_entries(&log, t), Phase::Round))
        .sum();
    assert_eq!(spans(&log, Phase::Round), in_rounds, "{kind}/{label}");
    let total_jobs: usize = runs.iter().sum();
    assert_eq!(
        recorder
            .histogram(Phase::ClientTrain)
            .map_or(0, |h| h.count()),
        total_jobs as u64,
        "{kind}/{label}: recorder client_train spans"
    );
    format!(
        "{} {label} {:016x} {}\n",
        slug(kind),
        digest(&log),
        log.len()
    )
}

#[test]
fn every_method_traces_the_same_round_skeleton() {
    let mut lines = String::new();
    for kind in all_kinds() {
        lines += &check_run(kind, PerfectTransport, "perfect");
        lines += &check_run(kind, faulty_transport(), "faulty");
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/trace-events.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &lines).expect("write trace digest golden");
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDENS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        lines,
        want,
        "trace stream drifted from {} (if the change is intentional, \
         regenerate with UPDATE_GOLDENS=1)",
        path.display()
    );
}
