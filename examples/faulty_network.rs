//! Faulty network: the same AdaptiveFL experiment over a perfect link
//! and over `SimTransport` with drops, stragglers, crashes, and a round
//! deadline — comparing accuracy, wall-clock, and the link statistics.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example faulty_network
//! ```

use adaptivefl::comm::{FaultPlan, SimTransport};
use adaptivefl::core::methods::MethodKind;
use adaptivefl::core::metrics::RunResult;
use adaptivefl::core::sim::{SimConfig, Simulation};
use adaptivefl::data::{Partition, SynthSpec};

fn prepare() -> Simulation {
    let spec = SynthSpec::test_spec(4);
    let mut cfg = SimConfig::quick_test(42);
    cfg.model.input = spec.input;
    cfg.rounds = 8;
    cfg.eval_every = 4;
    Simulation::prepare(&cfg, &spec, Partition::Dirichlet(0.6))
}

fn report(label: &str, res: &RunResult) {
    let comm = res.total_comm();
    let secs: f64 = res.rounds.iter().map(|r| r.sim_secs).sum();
    println!(
        "{label:<22} acc {:>5.1}%  waste {:>5.1}%  sim time {:>7.1}s  \
         down {:>6.1} MB  up {:>6.1} MB  drops {:>2}  stragglers {:>2}  \
         late {:>2}  crashes {:>2}",
        100.0 * res.final_full_accuracy(),
        100.0 * res.comm_waste_rate(),
        secs,
        comm.bytes_down as f64 / 1e6,
        comm.bytes_up as f64 / 1e6,
        comm.drops,
        comm.stragglers,
        comm.deadline_misses,
        comm.crashes,
    );
}

fn main() {
    // Baseline: the default lossless, sequential link.
    let clean = prepare().run(MethodKind::AdaptiveFl);
    report("perfect link", &clean);

    // The same experiment over a lossy link: 15% upload drops, 10%
    // stragglers at 4x slowdown, 5% client crashes.
    let plan = FaultPlan {
        upload_drop: 0.15,
        straggler_prob: 0.10,
        crash_prob: 0.05,
        ..Default::default()
    };
    let mut faulty = SimTransport::new().with_threads(4).with_faults(plan);
    let lossy = prepare().run_method_with_transport(MethodKind::AdaptiveFl, &mut faulty);
    report("lossy link", &lossy);

    // Add a round deadline: uploads slower than the budget are wasted
    // and the server stops waiting, trading accuracy for wall-clock.
    let deadline = 0.5
        * prepare().run(MethodKind::AdaptiveFl).rounds[0]
            .sim_secs
            .max(1e-6);
    let mut tight = SimTransport::new()
        .with_threads(4)
        .with_faults(plan)
        .with_deadline(deadline);
    let capped = prepare().run_method_with_transport(MethodKind::AdaptiveFl, &mut tight);
    report(&format!("deadline {:.0}ms", deadline * 1e3), &capped);

    // The parallel executor is deterministic: any thread count replays
    // the identical run.
    let rerun = {
        let mut t = SimTransport::new().with_threads(1).with_faults(plan);
        prepare().run_method_with_transport(MethodKind::AdaptiveFl, &mut t)
    };
    println!(
        "\n1-thread rerun identical to 4-thread run: {}",
        rerun == lossy
    );
}
