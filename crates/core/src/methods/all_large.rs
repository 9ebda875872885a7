//! All-Large: classic FedAvg on the full model with every selected
//! client (McMahan et al.), the paper's non-resource-constrained
//! reference.

use std::borrow::Cow;

use adaptivefl_models::cost::cost_of;
use adaptivefl_models::Blueprint;
use adaptivefl_nn::ParamMap;
use rand_chacha::ChaCha8Rng;

use crate::checkpoint::{Checkpointable, MethodState};
use crate::error::CoreError;
use crate::methods::{
    sample_clients, test_accuracy, Assignment, FlMethod, LocalModel, Objective, RoundPlan,
};
use crate::metrics::EvalRecord;
use crate::sim::Env;

/// FedAvg on `L_1` with uniformly sampled clients. Resource limits are
/// deliberately ignored (the paper trains All-Large "with all clients
/// under the classic FedAvg" as an upper reference in non-resource
/// scenarios).
pub struct AllLarge {
    global: ParamMap,
    /// The full model's architecture, size and per-sample MACs.
    blueprint: Blueprint,
    params: u64,
    macs: u64,
}

impl AllLarge {
    /// Initialises the global model.
    pub fn new(env: &Env) -> Self {
        let full = env.pool.largest();
        let blueprint = env.cfg.model.full_blueprint(&full.plan);
        AllLarge {
            global: env.fresh_global(),
            macs: cost_of(&blueprint, env.cfg.model.input).macs,
            blueprint,
            params: full.params,
        }
    }
}

impl Checkpointable for AllLarge {
    fn capture(&self) -> MethodState {
        MethodState::single(self.global.clone())
    }

    fn restore(&mut self, state: MethodState) -> Result<(), CoreError> {
        self.global = state.into_single()?;
        Ok(())
    }
}

impl FlMethod for AllLarge {
    fn name(&self) -> String {
        "All-Large".to_string()
    }

    fn plan(&self, env: &Env, round: usize, rng: &mut ChaCha8Rng) -> RoundPlan {
        RoundPlan {
            assignments: sample_clients(env, round, rng)
                .into_iter()
                .map(|client| Assignment {
                    client,
                    tag: 0,
                    down_params: self.params,
                })
                .collect(),
            skipped: 0,
        }
    }

    fn local_model(
        &self,
        _env: &Env,
        _round: usize,
        _client: usize,
        _tag: usize,
    ) -> Option<LocalModel<'_>> {
        Some(LocalModel {
            tag: 0,
            blueprint: Cow::Borrowed(&self.blueprint),
            weights: Cow::Borrowed(&self.global),
            params: self.params,
            macs_per_sample: self.macs,
            objective: Objective::CrossEntropy,
        })
    }

    fn globals_mut(&mut self) -> &mut [ParamMap] {
        std::slice::from_mut(&mut self.global)
    }

    fn evaluate(&mut self, env: &Env, round: usize) -> EvalRecord {
        EvalRecord {
            round,
            full: test_accuracy(env, &self.blueprint, &self.global),
            levels: Vec::new(),
        }
    }
}
