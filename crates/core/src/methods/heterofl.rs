//! HeteroFL (Diao et al., ICLR 2021): static *uniform* width pruning —
//! every hidden layer scaled by the same ratio, submodel level fixed by
//! the server's knowledge of each client's capability class.
//!
//! Two deliberate contrasts with AdaptiveFL, both from the papers:
//! the pruning is coarse (no per-layer start index, shallow layers are
//! pruned too), and there is no client-side adaptation — if a client's
//! currently available resources cannot hold its statically assigned
//! submodel, the round fails for that client.

use adaptivefl_models::cost::cost_of;
use adaptivefl_models::PruneSpec;

use crate::methods::static_levels::{ClassLevel, StaticLevels};
use crate::methods::Objective;
use crate::prune::PrunePlan;
use crate::sim::Env;

/// Uniform width ratios per level: 1.0× / 0.5× / 0.25× model size,
/// i.e. width ratios 1.0 / √0.5 / 0.5 (params scale ≈ quadratically in
/// width).
const WIDTH_RATIOS: [(&str, f32); 3] = [("S_1", 0.5), ("M_1", 0.707), ("L_1", 1.0)];

impl StaticLevels {
    /// HeteroFL: initialises the global model and the three static
    /// submodels.
    pub fn heterofl(env: &Env) -> Self {
        let cfg = &env.cfg.model;
        let levels = WIDTH_RATIOS
            .iter()
            .map(|&(name, r)| {
                let plan = if r >= 1.0 {
                    cfg.full_plan()
                } else {
                    // start_unit = 0: prune every unit (uniform/coarse).
                    cfg.plan(&PruneSpec::new(r, 0))
                };
                let blueprint = cfg.full_blueprint(&plan);
                let cost = cost_of(&blueprint, cfg.input);
                ClassLevel {
                    name: name.to_string(),
                    prune: PrunePlan::from_shapes(&blueprint.shapes()),
                    blueprint,
                    params: cost.params,
                    macs: cost.macs,
                }
            })
            .collect();
        StaticLevels {
            name: "HeteroFL",
            global: env.fresh_global(),
            levels,
            objective: Objective::CrossEntropy,
        }
    }
}
