//! AdaptiveFL — Algorithm 1 of the paper.

use std::borrow::Cow;

use adaptivefl_models::cost::cost_of;
use adaptivefl_nn::ParamMap;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::checkpoint::{Checkpointable, MethodState};
use crate::error::CoreError;
use crate::methods::{
    levels_record, test_accuracy, Assignment, FlMethod, LocalModel, Objective, RoundPlan,
};
use crate::metrics::EvalRecord;
use crate::rl::RlState;
use crate::select::{select_client, SelectionStrategy};
use crate::sim::Env;
use crate::trace::TraceEvent;
use crate::transport::Delivery;

/// AdaptiveFL server state: the full global model, the RL tables, and
/// the selection strategy (ablation variants reuse this struct).
pub struct AdaptiveFl {
    global: ParamMap,
    rl: RlState,
    strategy: SelectionStrategy,
    /// "AdaptiveFL+Greed": skip the random model pick and always
    /// dispatch `L_1`.
    greedy_dispatch: bool,
}

impl AdaptiveFl {
    /// Initialises the global model and RL tables for an environment.
    pub fn new(env: &Env, strategy: SelectionStrategy, greedy_dispatch: bool) -> Self {
        AdaptiveFl {
            global: env.fresh_global(),
            rl: RlState::new(env.pool.p(), env.data.num_clients()),
            strategy,
            greedy_dispatch,
        }
    }

    /// Overrides the resource-reward cap (paper default 0.5) — used by
    /// the design-choice ablation benches.
    pub fn with_reward_cap(mut self, cap: f64) -> Self {
        self.rl = self.rl.with_reward_cap(cap);
        self
    }

    /// Read access to the RL state (for diagnostics/tests).
    pub fn rl(&self) -> &RlState {
        &self.rl
    }
}

impl Checkpointable for AdaptiveFl {
    fn capture(&self) -> MethodState {
        let mut state = MethodState::single(self.global.clone());
        state.rl = Some(self.rl.clone());
        state
    }

    fn restore(&mut self, state: MethodState) -> Result<(), CoreError> {
        let Some(rl) = state.rl.clone() else {
            return Err(CoreError::Snapshot(
                "AdaptiveFL snapshot lacks RL tables".into(),
            ));
        };
        if rl.num_clients() != self.rl.num_clients() {
            return Err(CoreError::Snapshot(format!(
                "RL tables track {} clients, environment has {}",
                rl.num_clients(),
                self.rl.num_clients()
            )));
        }
        self.global = state.into_single()?;
        self.rl = rl;
        Ok(())
    }
}

impl FlMethod for AdaptiveFl {
    fn name(&self) -> String {
        if self.greedy_dispatch {
            "AdaptiveFL+Greed".to_string()
        } else {
            match self.strategy {
                SelectionStrategy::CuriosityAndResource => "AdaptiveFL".to_string(),
                s => format!("AdaptiveFL+{s}"),
            }
        }
    }

    fn plan(&self, env: &Env, round: usize, rng: &mut ChaCha8Rng) -> RoundPlan {
        let pool = &env.pool;
        let k = env.cfg.clients_per_round;
        let mut eligible = env.eligible_clients(round);

        // Step 2+3: pick (model, client) pairs; clients are distinct
        // within a round.
        let mut assignments = Vec::with_capacity(k);
        for _ in 0..k {
            if eligible.is_empty() {
                break;
            }
            let m_idx = if self.greedy_dispatch {
                pool.len() - 1
            } else {
                // RandomSel: the paper leaves the distribution over the
                // pool unspecified; we sample a level uniformly, then a
                // member within the level, so the full model is trained
                // as often as each pruned level (pure uniform over the
                // 2p+1 entries starves L_1 at small round budgets).
                let level = crate::pool::Level::all()[rng.gen_range(0..3)];
                let members = pool.level_indices(level);
                members[rng.gen_range(0..members.len())]
            };
            let Some(c) = select_client(self.strategy, &self.rl, pool, m_idx, &eligible, rng)
            else {
                break;
            };
            eligible.retain(|&x| x != c);
            assignments.push(Assignment {
                client: c,
                tag: m_idx,
                down_params: pool.entry(m_idx).params,
            });
        }
        RoundPlan {
            assignments,
            skipped: 0,
        }
    }

    // Steps 4-5: curiosity update for every dispatched model.
    fn on_dispatch(&mut self, env: &Env, round: usize, a: &Assignment) {
        let level = env.pool.entry(a.tag).level;
        self.rl.update_on_dispatch(level, a.client);
        if env.tracer().enabled() {
            env.tracer().event(TraceEvent::RlDispatch {
                round,
                client: a.client,
                level: level.type_index(),
            });
        }
    }

    // Step 6: resource-table update. Resource failures and transport
    // losses (drops, late uploads, crashes) look the same from the
    // server: the dispatched model never came back, so `T_r` records a
    // total failure.
    fn on_delivery(&mut self, env: &Env, round: usize, d: &Delivery) {
        let returned = d.status.is_delivered().then_some(d.client_tag);
        self.rl
            .update_on_return(&env.pool, d.tag, returned, d.client);
        if env.tracer().enabled() {
            env.tracer().event(TraceEvent::RlReturn {
                round,
                client: d.client,
                sent: d.tag,
                returned,
            });
        }
    }

    // The client side: adaptive pruning to the currently available
    // resources.
    fn local_model(
        &self,
        env: &Env,
        round: usize,
        client: usize,
        tag: usize,
    ) -> Option<LocalModel<'_>> {
        let capacity = env.fleet.device(client).capacity_at(round);
        let fit = env.pool.largest_fitting(tag, capacity)?;
        let blueprint = env.cfg.model.full_blueprint(&fit.plan);
        Some(LocalModel {
            tag: fit.index,
            macs_per_sample: cost_of(&blueprint, env.cfg.model.input).macs,
            blueprint: Cow::Owned(blueprint),
            weights: Cow::Owned(env.pool.prune_plan(fit.index).extract(&self.global)),
            params: fit.params,
            objective: Objective::CrossEntropy,
        })
    }

    fn globals_mut(&mut self) -> &mut [ParamMap] {
        std::slice::from_mut(&mut self.global)
    }

    fn evaluate(&mut self, env: &Env, round: usize) -> EvalRecord {
        // Full accuracy = the L_1 (global) model, which is the last rep.
        let levels = env
            .pool
            .level_representatives()
            .into_iter()
            .map(|rep| {
                let sub = env.pool.prune_plan(rep.index).extract(&self.global);
                let bp = env.cfg.model.full_blueprint(&rep.plan);
                (rep.name(), test_accuracy(env, &bp, &sub))
            })
            .collect();
        levels_record(round, levels)
    }
}
