//! `--trace 1`: the per-layer breakdown.
//!
//! Three sources, all outside the program: a traced run (the
//! [`PhaseLog`] tracer plus the job-timing [`Probe`]) checked
//! bit-identical against an untraced run of the same seed; timed
//! direct calls into each set-up step and each step of one client
//! job; and the ops table of [`crate::ops`].

use std::sync::Arc;
use std::time::Instant;

use adaptivefl_comm::wire::{decode_update_up, encode_update_up};
use adaptivefl_comm::{UpdateUp, WireCodec};
use adaptivefl_core::aggregate::{aggregate_with_scratch, Upload};
use adaptivefl_core::methods::MethodKind;
use adaptivefl_core::sim::{Env, SimConfig};
use adaptivefl_core::trainer::evaluate;
use adaptivefl_core::{ModelPool, NoopTracer, Phase};
use adaptivefl_data::FederatedDataset;
use adaptivefl_device::DeviceFleet;
use adaptivefl_nn::layer::{Layer, LayerExt};
use adaptivefl_nn::loss::softmax_cross_entropy;
use adaptivefl_nn::optim::Sgd;
use adaptivefl_tensor::rng::derived;

use crate::ops::{self, OpClass};
use crate::probe::PhaseLog;
use crate::workload::Workload;
use crate::{check, digest, run_once, stats, timed_setup, Args, Report};

/// Milliseconds of one call.
fn ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Runs the traced measurements.
pub fn traced(args: &Args) -> Report {
    let w = args.workload;
    let mut report = Report::default();
    let warm_cfg = w.cfg(args.seed, 2);
    let warm = run_once(w, &warm_cfg, None, false);
    report.book("warm-up", 0, check(&warm, &warm_cfg));

    let cfg = w.cfg(args.seed, w.rounds());
    setup_parts(w, &cfg, &mut report);
    traced_run(w, &cfg, &mut report);

    let (sim, _) = w.setup(&cfg);
    let env = sim.env();
    let last = env.pool.len() - 1;
    for (label, index) in [("s3", 0), ("l1", last)] {
        anatomy(env, index, label, &mut report);
    }
    op_table(env, &mut report);
    report
}

/// Times each public set-up call on its own; the parts should sum to
/// `setup_s`.
fn setup_parts(w: Workload, cfg: &SimConfig, report: &mut Report) {
    const REPS: usize = 7;
    let spec = w.spec();
    let full = cfg.model.num_params(&cfg.model.full_plan());
    let (mut data, mut fleet, mut pool, mut init, mut whole) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        data.push(
            ms(|| {
                FederatedDataset::synthesize(
                    &spec,
                    cfg.num_clients,
                    cfg.samples_per_client,
                    cfg.test_samples,
                    w.partition(),
                    cfg.seed,
                )
            })
            .1,
        );
        fleet.push(
            ms(|| {
                let generated = DeviceFleet::with_proportions(
                    cfg.num_clients,
                    cfg.proportions,
                    full,
                    cfg.dynamics,
                    cfg.seed,
                );
                (generated, w.fleet(cfg))
            })
            .1,
        );
        pool.push(ms(|| ModelPool::split(&cfg.model, cfg.p, cfg.ratios)).1);
        let (sim, _) = w.setup(cfg);
        init.push(ms(|| MethodKind::AdaptiveFl.instantiate(sim.env())).1);
        whole.push(timed_setup(w, cfg).1.raw * 1e3);
    }
    let parts = [
        ("data.synthesize_ms", stats::median(&data)),
        ("device.fleet_ms", stats::median(&fleet)),
        ("core.pool_split_ms", stats::median(&pool)),
        ("core.method_init_ms", stats::median(&init)),
    ];
    let sum: f64 = parts.iter().map(|p| p.1).sum();
    println!(
        "# set-up parts sum to {sum:.3} ms against {:.3} ms for the whole set-up",
        stats::median(&whole)
    );
    for (name, v) in parts {
        report.metric(name, v, "ms");
    }
}

/// An untraced and a traced run of the same seed: bit-identity, the
/// phase and job breakdown, and the tracing overhead.
fn traced_run(w: Workload, cfg: &SimConfig, report: &mut Report) {
    let plain = run_once(w, cfg, None, false);
    report.book(
        "untraced run",
        plain.probe.jobs_dispatched(),
        check(&plain, cfg),
    );
    let log = Arc::new(PhaseLog::default());
    let t = run_once(w, cfg, Some(Arc::clone(&log)), true);
    let mut problems = check(&t, cfg);
    if digest(&t.result) != digest(&plain.result) {
        problems.push("traced result differs from the untraced one".into());
    }
    report.book("traced run", t.probe.jobs_dispatched(), problems);

    let jobs = t.probe.jobs.lock().expect("job log").clone();
    let job_ms: Vec<f64> = jobs.iter().map(|j| j.nanos as f64 / 1e6).collect();
    let epochs = cfg.local.epochs as f64;
    let trained: Vec<_> = jobs.iter().filter(|j| j.trained).collect();
    let train_macs: f64 = trained
        .iter()
        .map(|j| (j.macs_per_sample * j.samples as u64) as f64 * epochs)
        .sum();
    let train_ms: f64 = trained.iter().map(|j| j.nanos as f64 / 1e6).sum();
    let samples: usize = trained.iter().map(|j| j.samples).sum();
    let failures: usize = t.result.rounds.iter().map(|r| r.failures).sum();
    let (p, job_tail) = stats::tail(&job_ms);
    println!(
        "# {} jobs, core.job_ms_tail is p{p}; {} trace events",
        jobs.len(),
        log.events()
    );
    report.metric("core.jobs", jobs.len() as f64, "count");
    report.metric("core.jobs_failed", failures as f64, "count");
    report.metric("core.train_samples", samples as f64 * epochs, "count");
    report.metric("core.job_ms_p50", stats::median(&job_ms), "ms");
    report.metric("core.job_ms_tail", job_tail, "ms");
    report.metric(
        "core.train_gmac_per_s",
        train_macs / train_ms / 1e6,
        "GMAC/s",
    );

    let phase = |p: Phase| log.ms(p);
    report.metric(
        "core.client_train_ms_p50",
        stats::median(&phase(Phase::ClientTrain)),
        "ms",
    );
    report.metric(
        "core.dispatch_ms",
        stats::median(&phase(Phase::Dispatch)),
        "ms",
    );
    report.metric(
        "core.collect_ms",
        stats::median(&phase(Phase::Collect)),
        "ms",
    );
    report.metric(
        "core.aggregate_ms_p50",
        stats::median(&phase(Phase::Aggregate)),
        "ms",
    );
    report.metric("core.eval_ms_p50", stats::median(&phase(Phase::Eval)), "ms");
    let exchange: Vec<f64> = t
        .probe
        .exchanges
        .iter()
        .map(|e| e.nanos as f64 / 1e6)
        .collect();
    // The round phase also holds the probe's calibration burst.
    let server: Vec<f64> = phase(Phase::Round)
        .iter()
        .zip(&t.probe.exchanges)
        .map(|(r, e)| r - e.nanos as f64 / 1e6 - e.burst_ms)
        .collect();
    report.metric("sim.exchange_ms_p50", stats::median(&exchange), "ms");
    report.metric("sim.server_ms_p50", stats::median(&server), "ms");

    let wall = t.wall_s * 1e3;
    let share = |v: &[f64]| v.iter().sum::<f64>() / wall;
    for (name, p) in [
        ("sim.round_share", Phase::Round),
        ("core.client_train_share", Phase::ClientTrain),
        ("core.dispatch_share", Phase::Dispatch),
        ("core.collect_share", Phase::Collect),
        ("core.aggregate_share", Phase::Aggregate),
        ("core.eval_share", Phase::Eval),
    ] {
        report.metric(name, share(&phase(p)), "fraction");
    }
    report.metric("sim.exchange_share", share(&exchange), "fraction");
    report.metric("sim.server_share", share(&server), "fraction");
    report.metric(
        "sim.round_eval_share",
        share(&phase(Phase::Round)) + share(&phase(Phase::Eval)),
        "fraction",
    );

    let bursts: Vec<f64> = t.probe.exchanges.iter().map(|e| e.burst_ms).collect();
    report.metric("host.burst_ms", stats::median(&bursts), "ms");
    report.metric(
        "core.final_acc",
        f64::from(t.result.final_full_accuracy()),
        "fraction",
    );
    let comm = t.result.total_comm();
    report.metric("comm.bytes_down", comm.bytes_down as f64, "bytes");
    report.metric("comm.bytes_up", comm.bytes_up as f64, "bytes");
    report.metric("comm.drops", comm.drops as f64, "count");
    report.metric("comm.crashes", comm.crashes as f64, "count");
    report.metric("comm.stragglers", comm.stragglers as f64, "count");
    report.metric("comm.late", comm.deadline_misses as f64, "count");
    report.metric(
        "trace.overhead_pct",
        (t.run.scaled / plain.run.scaled - 1.0) * 100.0,
        "%",
    );
}

/// Replays one client job step by step at pool entry `index`: extract,
/// build, load, train, read back, encode and decode the upload,
/// aggregate it, and evaluate the trained submodel.
fn anatomy(env: &Env, index: usize, label: &str, report: &mut Report) {
    const REPS: usize = 5;
    let cfg = &env.cfg;
    let entry = env.pool.entry(index);
    let global = env.fresh_global();
    // The client whose shard size is closest to the configured one.
    let client = (0..env.data.num_clients())
        .filter(|&c| !env.data.client(c).is_empty())
        .min_by_key(|&c| env.data.client(c).len().abs_diff(cfg.samples_per_client))
        .expect("some client holds data");
    let data = env.data.client(client);
    let mut rng = derived(cfg.seed, "perfbench-anatomy");
    let mut t: [Vec<f64>; 9] = Default::default();
    for _ in 0..REPS {
        let (sub, a) = ms(|| env.pool.prune_plan(index).extract(&global));
        let (mut net, b) = ms(|| cfg.model.build(&entry.plan, &mut rng));
        let ((), c) = ms(|| net.load_param_map(&sub));
        let (_, d) = ms(|| {
            cfg.local
                .train_with_scratch(&mut net, data, &mut rng, &env.scratch)
        });
        let (params, e) = ms(|| net.param_map());
        let msg = UpdateUp {
            round: 0,
            client: client as u32,
            data_size: data.len() as u32,
            params: params.clone(),
        };
        let (frame, f) = ms(|| encode_update_up(&msg, WireCodec::Dense));
        let (decoded, g) = ms(|| decode_update_up(&frame));
        assert_eq!(decoded.ok().as_ref(), Some(&msg), "wire round trip");
        let mut next = global.clone();
        let upload = [Upload {
            params,
            weight: data.len() as f32,
        }];
        let ((), h) =
            ms(|| aggregate_with_scratch(&mut next, &upload, &NoopTracer, 0, &env.scratch));
        let (acc, i) = ms(|| evaluate(&mut net, env.data.test(), cfg.eval_batch));
        std::hint::black_box(acc);
        for (v, x) in t.iter_mut().zip([a, b, c, d, e, f, g, h, i]) {
            v.push(x);
        }
    }
    let names = [
        "core.extract_ms",
        "models.build_ms",
        "nn.load_params_ms",
        "core.local_train_ms",
        "nn.param_map_ms",
        "comm.encode_up_ms",
        "comm.decode_up_ms",
        "core.aggregate_upload_ms",
        "core.evaluate_ms",
    ];
    for (name, v) in names.iter().zip(&t) {
        report.metric(format!("{name}_{label}"), stats::median(v), "ms");
    }
}

/// The ops table at the full model's shapes and the training batch
/// size, plus the optimizer step over the whole full model.
fn op_table(env: &Env, report: &mut Report) {
    const REPS: usize = 9;
    let cfg = &env.cfg;
    let batch = cfg.local.batch_size;
    let plan = &env.pool.largest().plan;
    let table = ops::harvest(&cfg.model.full_blueprint(plan), cfg.model.input);
    let mut rng = derived(cfg.seed, "perfbench-ops");
    let rates = ops::measure(&table, batch, REPS, &mut rng);
    println!(
        "# ops table: {} distinct shapes at batch {batch}; layers per class {:?}",
        table.len(),
        rates
            .iter()
            .map(|(c, r)| (c.name(), r.layers))
            .collect::<Vec<_>>()
    );
    for class in OpClass::ALL {
        let r = rates.get(&class).copied().unwrap_or_default();
        let (unit, scale) = match class {
            OpClass::BatchNorm => ("Melem/s", 1e3),
            _ => ("GMAC/s", 1e6),
        };
        let stem = match class {
            OpClass::BatchNorm => "melem_per_s",
            _ => "gmac_per_s",
        };
        report.metric(
            format!("nn.{}.fwd_{stem}", class.name()),
            r.fwd_per_ms / scale,
            unit,
        );
        report.metric(
            format!("nn.{}.bwd_{stem}", class.name()),
            r.bwd_per_ms / scale,
            unit,
        );
    }

    // One optimizer step over every trainable element of the full
    // model, after a real forward/backward so gradients are populated.
    let mut net = cfg.model.build(plan, &mut rng);
    let idx: Vec<usize> = (0..batch.min(env.data.test().len())).collect();
    let b = env.data.test().batch(&idx);
    let logits = net.forward(b.x, true);
    let _ = net.backward(softmax_cross_entropy(&logits, &b.y).dlogits);
    let mut trainable = 0usize;
    net.visit_params(
        "",
        &mut |_: &str,
              kind: adaptivefl_nn::ParamKind,
              v: &adaptivefl_tensor::Tensor,
              _: &adaptivefl_tensor::Tensor| {
            if kind.is_trainable() {
                trainable += v.numel();
            }
        },
    );
    let mut opt = Sgd::new(cfg.local.lr, cfg.local.momentum).with_scratch(env.scratch.clone());
    let steps: Vec<f64> = (0..=REPS)
        .map(|_| ms(|| opt.step(&mut net)).1)
        .skip(1)
        .collect();
    report.metric(
        "nn.sgd.step_melem_per_s",
        trainable as f64 / stats::median(&steps) / 1e3,
        "Melem/s",
    );
}
