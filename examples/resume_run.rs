//! Crash and resume: a 30-round AdaptiveFL run over a faulty parallel
//! transport is checkpointed to disk, "killed" mid-way, and resumed in
//! a fresh simulation — producing a 9-decimal fingerprint identical to
//! the uninterrupted control run.
//!
//! Run the in-process demo with:
//!
//! ```text
//! cargo run --release --example resume_run
//! ```
//!
//! Or stage a real crash across processes (as the CI recovery job
//! does):
//!
//! ```text
//! cargo run --release --example resume_run -- --control --out control.txt
//! cargo run --release --example resume_run -- --halt-after 11 --dir ckpt/
//! cargo run --release --example resume_run -- --resume --dir ckpt/ --out resumed.txt
//! diff control.txt resumed.txt
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::exit;

use adaptivefl::comm::{FaultPlan, SimTransport};
use adaptivefl::core::methods::MethodKind;
use adaptivefl::core::metrics::RunResult;
use adaptivefl::core::sim::{RunHooks, SimConfig, Simulation};
use adaptivefl::data::{Partition, SynthSpec};
use adaptivefl::store::SnapshotStore;

const KIND: MethodKind = MethodKind::AdaptiveFl;
const SEED: u64 = 424;
const ROUNDS: usize = 30;
const HALT_DEFAULT: usize = 11;

fn spec() -> SynthSpec {
    let mut s = SynthSpec::test_spec(4);
    s.input = (3, 8, 8);
    s
}

fn prepare() -> Simulation {
    let mut cfg = SimConfig::quick_test(SEED);
    cfg.rounds = ROUNDS;
    cfg.eval_every = 5;
    Simulation::prepare(&cfg, &spec(), Partition::Dirichlet(0.5))
}

/// The faulty link both halves of the run must be configured with:
/// faults and deadlines derive from `(seed, round, client)`, so a
/// freshly built transport replays identically after a crash.
fn transport() -> SimTransport {
    SimTransport::new()
        .with_threads(2)
        .with_faults(FaultPlan {
            upload_drop: 0.15,
            straggler_prob: 0.2,
            crash_prob: 0.05,
            ..Default::default()
        })
        .with_deadline(500.0)
}

/// The 9-decimal fingerprint: any divergence between a resumed run and
/// its control shows up here, down to the last bit that matters.
fn fingerprint(r: &RunResult) -> String {
    let mut out = String::new();
    for rec in &r.rounds {
        out.push_str(&format!(
            "{} r{} sent={} back={} loss={:.9} secs={:.9} fail={} down={} up={} drop={} strag={} miss={} crash={}\n",
            r.method,
            rec.round,
            rec.sent_params,
            rec.returned_params,
            rec.train_loss,
            rec.sim_secs,
            rec.failures,
            rec.comm.bytes_down,
            rec.comm.bytes_up,
            rec.comm.drops,
            rec.comm.stragglers,
            rec.comm.deadline_misses,
            rec.comm.crashes,
        ));
    }
    for e in &r.evals {
        let levels: Vec<String> = e
            .levels
            .iter()
            .map(|(n, a)| format!("{n}={a:.9}"))
            .collect();
        out.push_str(&format!(
            "{} e{} full={:.9} {}\n",
            r.method,
            e.round,
            e.full,
            levels.join(" ")
        ));
    }
    out
}

fn emit(fp: &str, out: Option<&PathBuf>) {
    match out {
        Some(path) => fs::write(path, fp).expect("writing fingerprint file"),
        None => print!("{fp}"),
    }
}

struct Args {
    control: bool,
    resume: bool,
    halt_after: Option<usize>,
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        control: false,
        resume: false,
        halt_after: None,
        dir: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--control" => args.control = true,
            "--resume" => args.resume = true,
            "--halt-after" => {
                let v = it.next().expect("--halt-after needs a round count");
                args.halt_after = Some(v.parse().expect("--halt-after needs a number"));
            }
            "--dir" => args.dir = Some(PathBuf::from(it.next().expect("--dir needs a path"))),
            "--out" => args.out = Some(PathBuf::from(it.next().expect("--out needs a path"))),
            other => {
                eprintln!("unknown argument {other}");
                exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();

    if args.control {
        // The uninterrupted reference run.
        let result = prepare().run_method_with_transport(KIND, &mut transport());
        emit(&fingerprint(&result), args.out.as_ref());
        return;
    }

    if let Some(halt) = args.halt_after {
        // First half of a staged crash: checkpoint every 5 rounds, save
        // a final snapshot at `halt`, then exit as if killed.
        let dir = args.dir.expect("--halt-after needs --dir");
        let mut store = SnapshotStore::open(&dir).expect("opening store");
        let halted = prepare()
            .run_with(
                KIND,
                &mut transport(),
                Some(RunHooks {
                    checkpoint_every: 5,
                    sink: &mut store,
                    halt_after: Some(halt),
                }),
                None,
            )
            .expect("checkpointed run");
        assert!(halted.is_none(), "run should have halted at round {halt}");
        eprintln!("halted after {halt} rounds; snapshots in {}", dir.display());
        return;
    }

    if args.resume {
        // Second half: a fresh process finds the newest valid snapshot
        // and completes the run.
        let dir = args.dir.expect("--resume needs --dir");
        let store = SnapshotStore::open(&dir).expect("opening store");
        let (path, snap) = store
            .latest_valid()
            .expect("scanning store")
            .expect("no valid snapshot to resume from");
        eprintln!(
            "resuming from {} (after round {})",
            path.display(),
            snap.completed_rounds
        );
        let result = prepare()
            .run_with(KIND, &mut transport(), None, Some(&snap))
            .expect("resume")
            .expect("no halt");
        emit(&fingerprint(&result), args.out.as_ref());
        return;
    }

    // Default: the whole story in one process.
    println!("control: {ROUNDS} rounds of {KIND} over a faulty 2-thread transport");
    let control = prepare().run_method_with_transport(KIND, &mut transport());
    let control_fp = fingerprint(&control);

    let dir = std::env::temp_dir().join(format!("afl-resume-demo-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut store = SnapshotStore::open(&dir).expect("opening store");
    println!(
        "crash:   same run, checkpoint every 5 rounds, killed after {HALT_DEFAULT} \
         (snapshots in {})",
        dir.display()
    );
    let halted = prepare()
        .run_with(
            KIND,
            &mut transport(),
            Some(RunHooks {
                checkpoint_every: 5,
                sink: &mut store,
                halt_after: Some(HALT_DEFAULT),
            }),
            None,
        )
        .expect("checkpointed run");
    assert!(halted.is_none());

    // Everything in memory is dropped; only the .afs files remain.
    drop(store);
    let store = SnapshotStore::open(&dir).expect("reopening store");
    let (path, snap) = store
        .latest_valid()
        .expect("scanning store")
        .expect("snapshot survives the crash");
    println!(
        "resume:  {} (after round {}) → rounds {}..{ROUNDS}",
        path.file_name().unwrap().to_string_lossy(),
        snap.completed_rounds,
        snap.completed_rounds + 1
    );
    let resumed = prepare()
        .run_with(KIND, &mut transport(), None, Some(&snap))
        .expect("resume")
        .expect("no halt");
    let resumed_fp = fingerprint(&resumed);

    println!("\ncontrol fingerprint (last 3 lines):");
    for line in control_fp
        .lines()
        .rev()
        .take(3)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        println!("  {line}");
    }
    println!("resumed fingerprint (last 3 lines):");
    for line in resumed_fp
        .lines()
        .rev()
        .take(3)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        println!("  {line}");
    }

    let _ = fs::remove_dir_all(&dir);
    assert_eq!(
        control_fp, resumed_fp,
        "resumed run diverged from the control"
    );
    println!("\nfingerprints match: resume is bit-identical to the uninterrupted run");
}
