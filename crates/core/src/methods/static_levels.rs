//! The baselines that assign submodels statically: each client gets the
//! fixed level (`S_1`, `M_1`, `L_1`) of its device capability class, and
//! there is no client-side adaptation — if a client's currently
//! available resources cannot hold its assigned submodel, the round
//! fails for that client. HeteroFL and ScaleFL differ only in how the
//! levels are cut and trained (see [`StaticLevels::heterofl`] and
//! [`StaticLevels::scalefl`]).

use std::borrow::Cow;

use adaptivefl_device::DeviceClass;
use adaptivefl_models::Blueprint;
use adaptivefl_nn::ParamMap;
use rand_chacha::ChaCha8Rng;

use crate::checkpoint::{Checkpointable, MethodState};
use crate::error::CoreError;
use crate::methods::{
    levels_record, sample_clients, test_accuracy, Assignment, FlMethod, LocalModel, Objective,
    RoundPlan,
};
use crate::metrics::EvalRecord;
use crate::prune::PrunePlan;
use crate::sim::Env;

/// One statically assigned submodel level.
pub(crate) struct ClassLevel {
    pub(crate) name: String,
    pub(crate) blueprint: Blueprint,
    pub(crate) params: u64,
    pub(crate) macs: u64,
    /// Precomputed extraction table for this level's shape list.
    pub(crate) prune: PrunePlan,
}

/// HeteroFL or ScaleFL server state: one global model and the three
/// static levels cut from it.
pub struct StaticLevels {
    pub(crate) name: &'static str,
    pub(crate) global: ParamMap,
    /// Ascending by size; the last level is the global model itself.
    pub(crate) levels: Vec<ClassLevel>,
    pub(crate) objective: Objective,
}

impl Checkpointable for StaticLevels {
    fn capture(&self) -> MethodState {
        MethodState::single(self.global.clone())
    }

    fn restore(&mut self, state: MethodState) -> Result<(), CoreError> {
        self.global = state.into_single()?;
        Ok(())
    }
}

impl FlMethod for StaticLevels {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn plan(&self, env: &Env, round: usize, rng: &mut ChaCha8Rng) -> RoundPlan {
        let assignments = sample_clients(env, round, rng)
            .into_iter()
            .map(|client| {
                let tag = match env.fleet.device(client).class() {
                    DeviceClass::Weak => 0,
                    DeviceClass::Medium => 1,
                    DeviceClass::Strong => 2,
                };
                Assignment {
                    client,
                    tag,
                    down_params: self.levels[tag].params,
                }
            })
            .collect();
        RoundPlan {
            assignments,
            skipped: 0,
        }
    }

    fn local_model(
        &self,
        env: &Env,
        round: usize,
        client: usize,
        tag: usize,
    ) -> Option<LocalModel<'_>> {
        let level = &self.levels[tag];
        if env.fleet.device(client).capacity_at(round) < level.params {
            return None;
        }
        Some(LocalModel {
            tag,
            blueprint: Cow::Borrowed(&level.blueprint),
            weights: Cow::Owned(level.prune.extract(&self.global)),
            params: level.params,
            macs_per_sample: level.macs,
            objective: self.objective,
        })
    }

    fn globals_mut(&mut self) -> &mut [ParamMap] {
        std::slice::from_mut(&mut self.global)
    }

    // Each level is evaluated at its own final exit; the last level
    // spans the whole global model, so its accuracy is the full one.
    fn evaluate(&mut self, env: &Env, round: usize) -> EvalRecord {
        let levels = self
            .levels
            .iter()
            .map(|level| {
                let sub = level.prune.extract(&self.global);
                (
                    level.name.clone(),
                    test_accuracy(env, &level.blueprint, &sub),
                )
            })
            .collect();
        levels_record(round, levels)
    }
}
