//! ScaleFL (Ilhan et al., CVPR 2023): two-dimensional width+depth
//! scaling with early-exit classifiers and self-distillation during
//! local training.
//!
//! The global model is the full-depth network with every exit head
//! instantiated; level submodels truncate depth (keeping the exit at
//! their last segment) and scale width uniformly. Like HeteroFL, the
//! level assignment is static per capability class and there is no
//! client-side adaptation.

use adaptivefl_models::cost::cost_of;
use adaptivefl_models::{Network, PruneSpec};
use adaptivefl_nn::layer::LayerExt;

use crate::methods::static_levels::{ClassLevel, StaticLevels};
use crate::methods::Objective;
use crate::prune::PrunePlan;
use crate::sim::Env;

impl StaticLevels {
    /// ScaleFL: initialises the multi-exit global model and the three
    /// level configurations (width × depth chosen to land near the
    /// paper's 0.25× / 0.5× / 1.0× model-size levels). Local training
    /// distils the early exits toward the final exit (weight 0.5,
    /// temperature 2).
    pub fn scalefl(env: &Env) -> Self {
        let cfg = &env.cfg.model;
        let d = cfg.max_depth();
        let combos: [(&str, f32, usize); 3] = [
            ("S_1", 0.60, d.div_ceil(2)),
            ("M_1", 0.80, (3 * d).div_ceil(4)),
            ("L_1", 1.0, d),
        ];
        let levels: Vec<ClassLevel> = combos
            .iter()
            .map(|&(name, r, depth)| {
                let plan = if r >= 1.0 {
                    cfg.full_plan()
                } else {
                    cfg.plan(&PruneSpec::new(r, 0))
                };
                let blueprint = cfg.blueprint(&plan, depth, true);
                ClassLevel {
                    name: name.to_string(),
                    prune: PrunePlan::from_shapes(&blueprint.shapes()),
                    params: blueprint.num_params() as u64,
                    macs: cost_of(&blueprint, cfg.input).macs,
                    blueprint,
                }
            })
            .collect();

        // Global = full width, full depth, all exits: exactly the L_1
        // level's blueprint.
        let mut rng = adaptivefl_tensor::rng::derived(env.cfg.seed, "scalefl-init");
        let global = Network::build(&levels[2].blueprint, &mut rng).param_map();
        StaticLevels {
            name: "ScaleFL",
            global,
            levels,
            objective: Objective::MultiExit,
        }
    }
}
