//! Decoupled: one independent FedAvg federation per level (S/M/L) with
//! no cross-level parameter sharing — the paper's weakest baseline.

use std::borrow::Cow;

use adaptivefl_models::cost::cost_of;
use adaptivefl_models::{Blueprint, Network};
use adaptivefl_nn::layer::LayerExt;
use adaptivefl_nn::ParamMap;
use rand_chacha::ChaCha8Rng;

use crate::checkpoint::{Checkpointable, MethodState};
use crate::error::CoreError;
use crate::methods::{
    levels_record, sample_clients, test_accuracy, Assignment, FlMethod, LocalModel, Objective,
    RoundPlan,
};
use crate::metrics::EvalRecord;
use crate::sim::Env;

/// One Decoupled level: its architecture and size.
struct LevelCfg {
    name: String,
    blueprint: Blueprint,
    params: u64,
    macs: u64,
}

/// Per-level global models (`S_1`, `M_1`, `L_1`), each trained only by
/// the clients that can afford that level.
pub struct Decoupled {
    /// Ascending by size.
    levels: Vec<LevelCfg>,
    /// One global model per level, index-aligned with `levels`.
    globals: Vec<ParamMap>,
}

impl Decoupled {
    /// Initialises one independent global model per level.
    pub fn new(env: &Env) -> Self {
        let (levels, globals) = env
            .pool
            .level_representatives()
            .into_iter()
            .map(|rep| {
                let blueprint = env.cfg.model.full_blueprint(&rep.plan);
                let mut rng = adaptivefl_tensor::rng::derived(env.cfg.seed, "decoupled-init");
                let global = Network::build(&blueprint, &mut rng).param_map();
                let level = LevelCfg {
                    name: rep.name(),
                    macs: cost_of(&blueprint, env.cfg.model.input).macs,
                    blueprint,
                    params: rep.params,
                };
                (level, global)
            })
            .unzip();
        Decoupled { levels, globals }
    }
}

impl Checkpointable for Decoupled {
    fn capture(&self) -> MethodState {
        MethodState {
            params: self
                .levels
                .iter()
                .zip(&self.globals)
                .map(|(level, global)| (level.name.clone(), global.clone()))
                .collect(),
            rl: None,
            extra: Vec::new(),
        }
    }

    fn restore(&mut self, state: MethodState) -> Result<(), CoreError> {
        if state.params.len() != self.levels.len() {
            return Err(CoreError::Snapshot(format!(
                "Decoupled snapshot has {} level models, environment builds {}",
                state.params.len(),
                self.levels.len()
            )));
        }
        for ((name, _), level) in state.params.iter().zip(&self.levels) {
            if *name != level.name {
                return Err(CoreError::Snapshot(format!(
                    "Decoupled level mismatch: snapshot {name}, environment {}",
                    level.name
                )));
            }
        }
        self.globals = state.params.into_iter().map(|(_, g)| g).collect();
        Ok(())
    }
}

impl FlMethod for Decoupled {
    fn name(&self) -> String {
        "Decoupled".to_string()
    }

    fn plan(&self, env: &Env, round: usize, rng: &mut ChaCha8Rng) -> RoundPlan {
        let mut plan = RoundPlan::default();
        for client in sample_clients(env, round, rng) {
            let capacity = env.fleet.device(client).capacity_at(round);
            // Largest level that fits the client right now. A client
            // with no affordable level is never dispatched to at all —
            // no downlink is spent, unlike the other baselines.
            match self.levels.iter().rposition(|l| l.params <= capacity) {
                Some(li) => plan.assignments.push(Assignment {
                    client,
                    tag: li,
                    down_params: self.levels[li].params,
                }),
                None => plan.skipped += 1,
            }
        }
        plan
    }

    fn local_model(
        &self,
        _env: &Env,
        _round: usize,
        _client: usize,
        tag: usize,
    ) -> Option<LocalModel<'_>> {
        let level = &self.levels[tag];
        Some(LocalModel {
            tag,
            blueprint: Cow::Borrowed(&level.blueprint),
            weights: Cow::Borrowed(&self.globals[tag]),
            params: level.params,
            macs_per_sample: level.macs,
            objective: Objective::CrossEntropy,
        })
    }

    fn globals_mut(&mut self) -> &mut [ParamMap] {
        &mut self.globals
    }

    fn evaluate(&mut self, env: &Env, round: usize) -> EvalRecord {
        let levels = self
            .levels
            .iter()
            .zip(&self.globals)
            .map(|(level, global)| {
                (
                    level.name.clone(),
                    test_accuracy(env, &level.blueprint, global),
                )
            })
            .collect();
        levels_record(round, levels)
    }
}
