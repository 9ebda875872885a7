//! End-to-end crash/recovery: for every method kind, under both the
//! lossless sequential transport and a faulty parallel one, a run
//! checkpointed to disk mid-way and resumed in a fresh process-like
//! simulation reproduces the uninterrupted run bit-for-bit — same
//! accuracies, same simulated times, same [`CommStats`]. Plus the
//! corruption story: a damaged newest snapshot falls back to the
//! previous valid one, and resume still converges to the same result.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use adaptivefl_comm::{FaultPlan, SimTransport};
use adaptivefl_core::checkpoint::{ServerSnapshot, SnapshotSink};
use adaptivefl_core::methods::{AdaptiveFl, FlMethod, MethodKind};
use adaptivefl_core::metrics::RunResult;
use adaptivefl_core::select::SelectionStrategy;
use adaptivefl_core::sim::{RunHooks, SimConfig, Simulation};
use adaptivefl_core::trace::{Phase, TraceEvent, Tracer};
use adaptivefl_core::transport::{PerfectTransport, Transport};
use adaptivefl_core::CoreError;
use adaptivefl_data::{Partition, SynthSpec};
use adaptivefl_store::{run_or_resume, SnapshotStore};
use adaptivefl_trace::RecordingTracer;

fn spec() -> SynthSpec {
    let mut s = SynthSpec::test_spec(4);
    s.input = (3, 8, 8);
    s
}

fn prepare(seed: u64) -> Simulation {
    let mut cfg = SimConfig::quick_test(seed);
    cfg.rounds = 5;
    Simulation::prepare(&cfg, &spec(), Partition::Dirichlet(0.5))
}

fn faulty_transport() -> SimTransport {
    SimTransport::new()
        .with_threads(2)
        .with_faults(FaultPlan {
            upload_drop: 0.2,
            straggler_prob: 0.2,
            crash_prob: 0.1,
            ..Default::default()
        })
        .with_deadline(400.0)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afl-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs `kind` with checkpoint/halt hooks; `None` when halted.
fn run_hooked(
    sim: &mut Simulation,
    kind: MethodKind,
    transport: &mut dyn Transport,
    sink: &mut dyn SnapshotSink,
    checkpoint_every: usize,
    halt_after: Option<usize>,
) -> Option<RunResult> {
    let hooks = RunHooks {
        checkpoint_every,
        sink,
        halt_after,
    };
    sim.run_with(kind, transport, Some(hooks), None).unwrap()
}

/// Resumes a kind snapshot to completion.
fn resume(
    sim: &mut Simulation,
    snap: &ServerSnapshot,
    transport: &mut dyn Transport,
) -> Result<RunResult, CoreError> {
    let kind = snap.kind.expect("kind snapshot");
    Ok(sim
        .run_with(kind, transport, None, Some(snap))?
        .expect("no halt configured"))
}

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

/// Checkpoint at round 2 via the disk store, then resume from the file
/// in a fresh simulation; the result must equal the uninterrupted run.
fn assert_recovers(kind: MethodKind, make_transport: &dyn Fn() -> Box<dyn Transport>, tag: &str) {
    let control = prepare(700).run_method_with_transport(kind, &mut *make_transport());

    let dir = temp_dir(&format!("{tag}-{kind}"));
    let mut store = SnapshotStore::open(&dir).unwrap();
    run_hooked(
        &mut prepare(700),
        kind,
        &mut *make_transport(),
        &mut store,
        0,
        Some(2),
    );

    // Everything in-memory is gone; only the snapshot file survives.
    let (_, snap) = store
        .latest_valid()
        .unwrap()
        .expect("halt wrote a snapshot");
    assert_eq!(snap.completed_rounds, 2, "{kind}");
    let resumed = resume(&mut prepare(700), &snap, &mut *make_transport()).unwrap();
    assert_eq!(control, resumed, "{kind} over {tag} diverged after resume");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_kind_recovers_over_perfect_transport() {
    for kind in all_kinds() {
        assert_recovers(kind, &|| Box::new(PerfectTransport), "perfect");
    }
}

#[test]
fn every_kind_recovers_over_faulty_parallel_transport() {
    for kind in all_kinds() {
        assert_recovers(kind, &|| Box::new(faulty_transport()), "faulty");
    }
}

#[test]
fn faulty_transport_resume_is_thread_count_invariant() {
    // Checkpoint under a 2-thread transport, resume under 1 and 3
    // threads: all identical (the executor derives client RNG and
    // faults from (seed, round, client), not from scheduling).
    let kind = MethodKind::AdaptiveFl;
    let control = prepare(701).run_method_with_transport(kind, &mut faulty_transport());

    let dir = temp_dir("threads");
    let mut store = SnapshotStore::open(&dir).unwrap();
    run_hooked(
        &mut prepare(701),
        kind,
        &mut faulty_transport(),
        &mut store,
        0,
        Some(3),
    );
    let (_, snap) = store.latest_valid().unwrap().expect("snapshot saved");
    for threads in [1usize, 3] {
        let mut transport = faulty_transport().with_threads(threads);
        let resumed = resume(&mut prepare(701), &snap, &mut transport).unwrap();
        assert_eq!(control, resumed, "{threads}-thread resume diverged");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn run_or_resume_restarts_and_finishes_after_a_crash() {
    let kind = MethodKind::AdaptiveFl;
    let control = prepare(702).run_method_with_transport(kind, &mut PerfectTransport);

    let dir = temp_dir("run-or-resume");
    // "Process 1" crashes after 3 rounds (checkpointing every round).
    {
        let mut store = SnapshotStore::open(&dir).unwrap();
        let halted = run_hooked(
            &mut prepare(702),
            kind,
            &mut PerfectTransport,
            &mut store,
            1,
            Some(3),
        );
        assert!(halted.is_none());
    }
    // "Process 2" picks up from disk and completes.
    let mut store = SnapshotStore::open(&dir).unwrap();
    let mut sim = prepare(702);
    let resumed = run_or_resume(&mut sim, kind, &mut PerfectTransport, &mut store, 1).unwrap();
    assert_eq!(control, resumed);

    // A third call resumes from the last pre-final checkpoint and
    // reproduces the same completed result again.
    let mut sim = prepare(702);
    let again = run_or_resume(&mut sim, kind, &mut PerfectTransport, &mut store, 1).unwrap();
    assert_eq!(control, again);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_newest_snapshot_falls_back_and_still_matches() {
    let kind = MethodKind::HeteroFl;
    let control = prepare(703).run_method_with_transport(kind, &mut PerfectTransport);

    let dir = temp_dir("corrupt-fallback");
    let mut store = SnapshotStore::open(&dir).unwrap();
    let mut sim = prepare(703);
    // Full run, checkpointing every round (snapshots after rounds 1-4).
    run_hooked(&mut sim, kind, &mut PerfectTransport, &mut store, 1, None).unwrap();
    let paths = store.snapshots().unwrap();
    assert_eq!(paths.len(), 3, "retention keeps the last 3");

    // Bit-rot the newest snapshot on disk.
    let newest = paths.last().unwrap();
    let mut bytes = fs::read(newest).unwrap();
    let mid = bytes.len() / 3;
    bytes[mid] ^= 0x10;
    fs::write(newest, &bytes).unwrap();

    // The store skips it and resumes from the older valid snapshot —
    // re-running one extra round, landing on the identical result.
    let (path, snap) = store.latest_valid().unwrap().expect("fallback found");
    assert_ne!(&path, newest, "corrupt newest must be skipped");
    let resumed = resume(&mut prepare(703), &snap, &mut PerfectTransport).unwrap();
    assert_eq!(control, resumed);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_rejects_snapshot_from_other_run() {
    let dir = temp_dir("mismatch");
    let mut store = SnapshotStore::open(&dir).unwrap();
    run_hooked(
        &mut prepare(704),
        MethodKind::AdaptiveFl,
        &mut PerfectTransport,
        &mut store,
        2,
        None,
    )
    .unwrap();
    let (_, snap) = store.latest_valid().unwrap().expect("snapshot saved");

    // Same config, different method.
    assert!(resume(&mut prepare(704), &snap, &mut PerfectTransport).is_ok());
    let mut wrong = snap.clone();
    wrong.kind = Some(MethodKind::ScaleFl);
    assert!(resume(&mut prepare(704), &wrong, &mut PerfectTransport).is_err());

    // Different configuration entirely.
    assert!(resume(&mut prepare(705), &snap, &mut PerfectTransport).is_err());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explicit_method_resumes_through_run_or_resume() {
    // A reward-cap ablation variant: constructed explicitly, so its
    // snapshots carry no method kind.
    let make = |sim: &Simulation| -> Box<dyn FlMethod> {
        Box::new(
            AdaptiveFl::new(sim.env(), SelectionStrategy::CuriosityAndResource, false)
                .with_reward_cap(0.8),
        )
    };
    let mut sim = prepare(706);
    let method = make(&sim);
    let control = sim.run_method_with_transport(method, &mut PerfectTransport);

    let dir = temp_dir("explicit-method");
    {
        let mut store = SnapshotStore::open(&dir).unwrap();
        let mut sim = prepare(706);
        let method = make(&sim);
        let hooks = RunHooks {
            checkpoint_every: 0,
            sink: &mut store,
            halt_after: Some(2),
        };
        let halted = sim
            .run_with(method, &mut PerfectTransport, Some(hooks), None)
            .unwrap();
        assert!(halted.is_none(), "halt must abort the run");
    }
    let mut store = SnapshotStore::open(&dir).unwrap();
    let mut sim = prepare(706);
    let tracer = Arc::new(RecordingTracer::new());
    sim.set_tracer(Arc::clone(&tracer) as Arc<dyn Tracer>);
    let method = make(&sim);
    let resumed = run_or_resume(&mut sim, method, &mut PerfectTransport, &mut store, 1).unwrap();
    assert_eq!(control, resumed, "explicit-method resume diverged");
    let loads = tracer.events_where(|e| matches!(e, TraceEvent::CheckpointLoad { .. }));
    assert_eq!(loads, [TraceEvent::CheckpointLoad { round: 2 }]);
    // The load span plus one save span per completed round before the
    // last (rounds 3 and 4 of 5).
    let spans = tracer.histogram(Phase::Checkpoint).map_or(0, |h| h.count());
    assert_eq!(spans, 3, "checkpoint spans");
    let (_, snap) = store.latest_valid().unwrap().expect("snapshot saved");
    assert_eq!(
        snap.kind, None,
        "an explicit method's snapshots carry no kind"
    );
    fs::remove_dir_all(&dir).unwrap();
}
