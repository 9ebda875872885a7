//! Scratch-arena determinism: runs that share one [`Scratch`] arena —
//! including back-to-back runs that inherit each other's recycled,
//! dirty buffers — must produce fingerprints bit-identical to runs with
//! a fresh private arena. This is the arena's core contract (`take`
//! always hands out zeroed storage), exercised end-to-end through the
//! faulty parallel transport where buffer recycling order is
//! nondeterministic across worker threads.

use adaptivefl::comm::{FaultPlan, SimTransport};
use adaptivefl::core::methods::MethodKind;
use adaptivefl::core::sim::{SimConfig, Simulation};
use adaptivefl::data::{Partition, SynthSpec};
use adaptivefl::tensor::Scratch;

/// Same recipe as the golden fingerprint suite.
fn prepare() -> Simulation {
    let cfg = SimConfig::quick_test(900);
    let mut spec = SynthSpec::test_spec(4);
    spec.input = (3, 8, 8);
    Simulation::prepare(&cfg, &spec, Partition::Dirichlet(0.5))
}

/// The golden suite's faulty transport: every fault class enabled,
/// two worker threads.
fn faulty_transport() -> SimTransport {
    SimTransport::new().with_threads(2).with_faults(FaultPlan {
        upload_drop: 0.15,
        straggler_prob: 0.2,
        crash_prob: 0.1,
        truncate_prob: 0.05,
        seed: 7,
        ..Default::default()
    })
}

fn run_faulty(sim: &mut Simulation, kind: MethodKind) -> String {
    sim.run_method_with_transport(kind, &mut faulty_transport())
        .fingerprint()
}

/// For one method: a fresh-arena run is reproducible, and two
/// back-to-back runs sharing one arena (the second inheriting the
/// first's recycled buffers) both match it exactly.
fn check_method(kind: MethodKind) {
    let fresh_a = run_faulty(&mut prepare(), kind);
    let fresh_b = run_faulty(&mut prepare(), kind);
    assert_eq!(fresh_a, fresh_b, "{kind}: fresh runs not reproducible");

    let arena = Scratch::new();
    let mut sim1 = prepare();
    sim1.set_scratch(arena.clone());
    let shared_1 = run_faulty(&mut sim1, kind);
    let mut sim2 = prepare();
    sim2.set_scratch(arena.clone());
    let shared_2 = run_faulty(&mut sim2, kind);

    assert_eq!(
        shared_1, fresh_a,
        "{kind}: first shared-arena run drifted from fresh-arena run"
    );
    assert_eq!(
        shared_2, fresh_a,
        "{kind}: second shared-arena run (dirty recycled buffers) drifted"
    );
    assert!(
        arena.reuses() > 0,
        "{kind}: arena was never reused — the test exercised nothing"
    );
}

#[test]
fn adaptivefl_shared_arena_is_bit_identical() {
    check_method(MethodKind::AdaptiveFl);
}

#[test]
fn heterofl_shared_arena_is_bit_identical() {
    check_method(MethodKind::HeteroFl);
}
