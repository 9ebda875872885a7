//! The FL methods under study: AdaptiveFL (with its selection-ablation
//! variants) and the four baselines of the paper's §4.2 — All-Large,
//! Decoupled, HeteroFL and ScaleFL.

mod adaptive;
mod all_large;
mod decoupled;
mod heterofl;
mod scalefl;
mod static_levels;

pub use adaptive::AdaptiveFl;
pub use all_large::AllLarge;
pub use decoupled::Decoupled;
pub use static_levels::StaticLevels;

use std::borrow::Cow;

use adaptivefl_models::{Blueprint, Network};
use adaptivefl_nn::layer::LayerExt;
use adaptivefl_nn::ParamMap;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::aggregate::{aggregate_with_scratch, Upload};
use crate::checkpoint::Checkpointable;
use crate::metrics::{EvalRecord, RoundRecord};
use crate::select::SelectionStrategy;
use crate::sim::Env;
use crate::trace::{status_name, Phase, PhaseTimer, TraceEvent};
use crate::trainer::evaluate;
use crate::transport::{ClientJob, Delivery, JobFn, LocalOutcome, Transport};

/// One dispatch decided by [`FlMethod::plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Target client.
    pub client: usize,
    /// Method-specific dispatch tag (pool index for AdaptiveFL, level
    /// index for the baselines), echoed back in the delivery.
    pub tag: usize,
    /// Parameter elements of the dispatched model (downlink size).
    pub down_params: u64,
}

/// A round's dispatch plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundPlan {
    /// The dispatches, in dispatch order.
    pub assignments: Vec<Assignment>,
    /// Selected clients that were never dispatched to (no downlink is
    /// spent); each counts as a round failure.
    pub skipped: usize,
}

/// The loss a client minimises locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Plain cross-entropy at the single exit.
    CrossEntropy,
    /// Cross-entropy at every exit plus self-distillation from the
    /// final exit (ScaleFL).
    MultiExit,
}

/// The model one client trains, as its method decides it.
pub struct LocalModel<'a> {
    /// Client-side tag reported back (e.g. the pool index the client
    /// pruned down to).
    pub tag: usize,
    /// Architecture to build.
    pub blueprint: Cow<'a, Blueprint>,
    /// Initial weights: a global model borrowed as is, or a submodel
    /// extracted from one.
    pub weights: Cow<'a, ParamMap>,
    /// Parameter elements of the trained model (uplink size).
    pub params: u64,
    /// Per-sample forward/backward MACs of the trained model.
    pub macs_per_sample: u64,
    /// Local training objective.
    pub objective: Objective,
}

/// A federated-learning method: owns its global model state and
/// supplies the *policy* of a round, while the provided
/// [`FlMethod::round`] plays the mechanics every method shares.
///
/// The round skeleton: [`plan`](FlMethod::plan) (selection) → the
/// `Dispatch` phase (one `Dispatch` event and
/// [`on_dispatch`](FlMethod::on_dispatch) per assignment, then job
/// construction) → `transport.exchange` → the `Collect` phase (one
/// `Collect` event and [`on_delivery`](FlMethod::on_delivery) per
/// delivery) → the `Aggregate` phase (Algorithm 2 into
/// [`globals_mut`](FlMethod::globals_mut)) → a [`RoundRecord`]. Each
/// client job runs the `ClientTrain` phase: the method's
/// [`local_model`](FlMethod::local_model), then build → load → train →
/// a `ClientTrain` event. Tracing coverage is therefore identical for
/// every method.
///
/// Every method is [`Checkpointable`]: its full server-side state can
/// be frozen into a
/// [`MethodState`](crate::checkpoint::MethodState) and restored later,
/// which is what makes mid-run snapshots and bit-identical resumes
/// possible (see [`Simulation::run_with`](crate::sim::Simulation::run_with)).
pub trait FlMethod: Send + Sync + Checkpointable {
    /// Display name used in tables and result files.
    fn name(&self) -> String;

    /// Selects this round's clients and what each is sent. Runs before
    /// the `Dispatch` phase; its RNG draws precede every client's.
    fn plan(&self, env: &Env, round: usize, rng: &mut ChaCha8Rng) -> RoundPlan;

    /// Server-side state update for one dispatch (AdaptiveFL's
    /// curiosity table), after its `Dispatch` event.
    fn on_dispatch(&mut self, _env: &Env, _round: usize, _assignment: &Assignment) {}

    /// Server-side state update for one delivery, delivered or not
    /// (AdaptiveFL's resource table), after its `Collect` event.
    fn on_delivery(&mut self, _env: &Env, _round: usize, _delivery: &Delivery) {}

    /// The client side of a job dispatched under `tag`: the model the
    /// client trains, or `None` when it cannot train anything (e.g. the
    /// dispatched model exceeds its current capacity).
    fn local_model(
        &self,
        env: &Env,
        round: usize,
        client: usize,
        tag: usize,
    ) -> Option<LocalModel<'_>>;

    /// The global model(s) uploads aggregate into. With more than one,
    /// a delivery's dispatch tag indexes them (Decoupled keeps one per
    /// level).
    fn globals_mut(&mut self) -> &mut [ParamMap];

    /// Evaluates the current global model(s) on the environment's test
    /// set: global ("full") accuracy plus per-level submodel
    /// accuracies.
    fn evaluate(&mut self, env: &Env, round: usize) -> EvalRecord;

    /// Executes one training round: dispatch client jobs through the
    /// transport, then consume whatever deliveries survived the link.
    fn round(
        &mut self,
        env: &Env,
        round: usize,
        transport: &mut dyn Transport,
        rng: &mut ChaCha8Rng,
    ) -> RoundRecord {
        let tracer = env.tracer();
        let plan = self.plan(env, round, rng);

        let dispatch_timer = PhaseTimer::start(tracer, Phase::Dispatch);
        for a in &plan.assignments {
            if tracer.enabled() {
                tracer.event(TraceEvent::Dispatch {
                    round,
                    client: a.client,
                    tag: a.tag,
                    params: a.down_params,
                });
            }
            self.on_dispatch(env, round, a);
        }
        let this = &*self;
        let jobs: Vec<ClientJob<'_>> = plan
            .assignments
            .iter()
            .map(|a| ClientJob {
                client: a.client,
                tag: a.tag,
                down_params: a.down_params,
                run: client_job(this, env, round, a.client, a.tag),
            })
            .collect();
        dispatch_timer.stop(tracer);

        let exchange = transport.exchange(env, round, jobs, rng);

        let collect_timer = PhaseTimer::start(tracer, Phase::Collect);
        let slots = self.globals_mut().len();
        let mut uploads: Vec<Vec<Upload>> = vec![Vec::new(); slots];
        let mut returned = 0u64;
        let mut loss_acc = 0.0f32;
        let mut trained = 0usize;
        let mut failures = plan.skipped;
        for d in exchange.deliveries {
            let delivered = d.status.is_delivered();
            if tracer.enabled() {
                tracer.event(TraceEvent::Collect {
                    round,
                    client: d.client,
                    status: status_name(d.status),
                    up_params: if delivered { d.up_params } else { 0 },
                });
            }
            self.on_delivery(env, round, &d);
            if delivered {
                returned += d.up_params;
                loss_acc += d.loss;
                trained += 1;
                let slot = if slots == 1 { 0 } else { d.tag };
                uploads[slot].push(d.upload.expect("delivered upload present"));
            } else {
                failures += 1;
            }
        }
        collect_timer.stop(tracer);

        let agg_timer = PhaseTimer::start(tracer, Phase::Aggregate);
        for (global, ups) in self.globals_mut().iter_mut().zip(&uploads) {
            aggregate_with_scratch(global, ups, tracer, round, &env.scratch);
        }
        agg_timer.stop(tracer);

        RoundRecord {
            round,
            sent_params: plan.assignments.iter().map(|a| a.down_params).sum(),
            returned_params: returned,
            train_loss: if trained > 0 {
                loss_acc / trained as f32
            } else {
                0.0
            },
            sim_secs: exchange.round_secs,
            failures,
            comm: exchange.stats,
        }
    }
}

/// Distillation weight of the early exits toward the final exit
/// ([`Objective::MultiExit`]).
const KD_WEIGHT: f32 = 0.5;
/// Distillation temperature ([`Objective::MultiExit`]).
const KD_TEMPERATURE: f32 = 2.0;

/// The client-side closure of one job: the method's local model, then
/// build → load → train, timed as the `ClientTrain` phase.
fn client_job<'a, M: FlMethod + ?Sized>(
    method: &'a M,
    env: &'a Env,
    round: usize,
    client: usize,
    tag: usize,
) -> JobFn<'a> {
    Box::new(move |rng: &mut ChaCha8Rng| {
        let tracer = env.tracer();
        let train_timer = PhaseTimer::start(tracer, Phase::ClientTrain);
        let Some(local) = method.local_model(env, round, client, tag) else {
            // The dispatched model still travelled down the link; the
            // transport charges the downlink.
            train_timer.stop(tracer);
            return LocalOutcome::failure();
        };
        let mut net = Network::build(&local.blueprint, rng);
        net.load_param_map(&local.weights);
        let data = env.data.client(client);
        let trainer = &env.cfg.local;
        let loss = match local.objective {
            Objective::CrossEntropy => {
                trainer.train_with_scratch(&mut net, data, rng, &env.scratch)
            }
            Objective::MultiExit => trainer.train_multi_exit_with_scratch(
                &mut net,
                data,
                KD_WEIGHT,
                KD_TEMPERATURE,
                rng,
                &env.scratch,
            ),
        };
        train_timer.stop(tracer);
        if tracer.enabled() {
            tracer.event(TraceEvent::ClientTrain {
                round,
                client,
                tag: local.tag,
                loss,
                samples: data.len(),
                macs_per_sample: local.macs_per_sample,
            });
        }
        LocalOutcome {
            upload: Some(Upload {
                params: net.param_map(),
                weight: data.len() as f32,
            }),
            loss,
            tag: local.tag,
            macs_per_sample: local.macs_per_sample,
            samples: data.len(),
            up_params: local.params,
        }
    })
}

/// Method selector for the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MethodKind {
    /// AdaptiveFL with the full RL selection (`+CS`).
    AdaptiveFl,
    /// AdaptiveFL with a selection-ablation strategy.
    AdaptiveFlVariant(SelectionStrategy),
    /// "AdaptiveFL+Greed": always dispatch the largest model.
    AdaptiveFlGreedy,
    /// FedAvg on the full model with every client (non-resource
    /// reference).
    AllLarge,
    /// Per-level FedAvg without cross-level sharing.
    Decoupled,
    /// Static uniform width pruning (Diao et al.).
    HeteroFl,
    /// Two-dimensional width+depth pruning with early exits and
    /// self-distillation (Ilhan et al.).
    ScaleFl,
}

impl MethodKind {
    /// Instantiates the method's state against an environment.
    pub fn instantiate(self, env: &Env) -> Box<dyn FlMethod> {
        match self {
            MethodKind::AdaptiveFl => Box::new(AdaptiveFl::new(
                env,
                SelectionStrategy::CuriosityAndResource,
                false,
            )),
            MethodKind::AdaptiveFlVariant(s) => Box::new(AdaptiveFl::new(env, s, false)),
            MethodKind::AdaptiveFlGreedy => {
                Box::new(AdaptiveFl::new(env, SelectionStrategy::Random, true))
            }
            MethodKind::AllLarge => Box::new(AllLarge::new(env)),
            MethodKind::Decoupled => Box::new(Decoupled::new(env)),
            MethodKind::HeteroFl => Box::new(StaticLevels::heterofl(env)),
            MethodKind::ScaleFl => Box::new(StaticLevels::scalefl(env)),
        }
    }

    /// All methods compared in the paper's Table 2.
    pub fn table2_lineup() -> [MethodKind; 5] {
        [
            MethodKind::AllLarge,
            MethodKind::Decoupled,
            MethodKind::HeteroFl,
            MethodKind::ScaleFl,
            MethodKind::AdaptiveFl,
        ]
    }
}

impl std::fmt::Display for MethodKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MethodKind::AdaptiveFl => write!(f, "AdaptiveFL"),
            MethodKind::AdaptiveFlVariant(s) => write!(f, "AdaptiveFL+{s}"),
            MethodKind::AdaptiveFlGreedy => write!(f, "AdaptiveFL+Greed"),
            MethodKind::AllLarge => write!(f, "All-Large"),
            MethodKind::Decoupled => write!(f, "Decoupled"),
            MethodKind::HeteroFl => write!(f, "HeteroFL"),
            MethodKind::ScaleFl => write!(f, "ScaleFL"),
        }
    }
}

/// Samples `clients_per_round` distinct clients uniformly among those
/// holding data and currently online.
pub(crate) fn sample_clients(env: &Env, round: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut eligible = env.eligible_clients(round);
    eligible.shuffle(rng);
    eligible.truncate(env.cfg.clients_per_round);
    eligible
}

/// Builds `blueprint` on the evaluation RNG, loads `weights`, and
/// returns its test-set accuracy.
pub(crate) fn test_accuracy(env: &Env, blueprint: &Blueprint, weights: &ParamMap) -> f32 {
    let mut net = Network::build(blueprint, &mut env.eval_rng());
    net.load_param_map(weights);
    evaluate(&mut net, env.data.test(), env.cfg.eval_batch)
}

/// An evaluation record whose full accuracy is that of the last
/// (largest) level.
pub(crate) fn levels_record(round: usize, levels: Vec<(String, f32)>) -> EvalRecord {
    EvalRecord {
        round,
        full: levels.last().map_or(0.0, |(_, a)| *a),
        levels,
    }
}
