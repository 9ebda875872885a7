//! Statistical verdicts: every paper claim the experiment suite
//! checks by eye, re-evaluated as a paired sign test over the sweep's
//! per-seed records and written as machine-readable `verdicts.json`.
//!
//! Each claim reduces the records to one paired difference per
//! comparison unit (a `(group, seed)` pair, or just a seed), oriented
//! so that a positive difference supports the paper. The verdict is
//! then mechanical:
//!
//! * `reproduced` — more wins than losses, sign-test p ≤ 0.05;
//! * `partial` — wins ≥ losses but not significant (or all ties);
//! * `not` — more losses than wins;
//! * `no-data` — the sweep did not cover the claim's cells.
//!
//! The file carries no timestamps: same records in, same bytes out.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use super::record::CellRecord;
use super::stats::{SampleStats, SignTest};

/// Schema version of `verdicts.json`.
pub const VERDICTS_VERSION: u32 = 1;

/// Significance threshold for `reproduced`.
pub const ALPHA: f64 = 0.05;

/// Tolerance (absolute accuracy) for the Figure 3 monotonicity
/// claims: a level may trail the next smaller one by this much.
const MONOTONE_TOL: f64 = 0.02;

/// One claim's verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClaimOutcome {
    /// Stable claim identifier (kebab-case).
    pub id: String,
    /// Experiment the claim belongs to.
    pub experiment: String,
    /// Human-readable statement of the claim.
    pub description: String,
    /// Paired comparisons evaluated.
    pub n: usize,
    /// Comparisons supporting the claim (difference > 0).
    pub wins: usize,
    /// Comparisons contradicting it (difference < 0).
    pub losses: usize,
    /// Exact ties.
    pub ties: usize,
    /// Two-sided exact sign-test p-value (1.0 when `n` = 0).
    pub p: f64,
    /// Mean paired difference (claim units; accuracy fractions).
    pub mean_diff: f64,
    /// `reproduced` / `partial` / `not` / `no-data`.
    pub status: String,
}

/// The complete `verdicts.json` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerdictsFile {
    /// Schema version ([`VERDICTS_VERSION`]).
    pub version: u32,
    /// Experiments the evaluated records covered, sorted.
    pub experiments: Vec<String>,
    /// Seeds the records covered, sorted.
    pub seeds: Vec<u64>,
    /// One outcome per claim, in fixed claim order.
    pub claims: Vec<ClaimOutcome>,
}

impl VerdictsFile {
    /// Schema validation for `sweep --check`: field ranges and
    /// cross-field consistency. Typed deserialization has already
    /// enforced presence and types; this catches semantic damage.
    pub fn validate(&self) -> Result<(), String> {
        if self.version != VERDICTS_VERSION {
            return Err(format!("unsupported version {}", self.version));
        }
        if self.claims.is_empty() {
            return Err("no claims".into());
        }
        let mut ids = BTreeSet::new();
        for c in &self.claims {
            if !ids.insert(&c.id) {
                return Err(format!("duplicate claim id {:?}", c.id));
            }
            if c.wins + c.losses + c.ties != c.n {
                return Err(format!("{}: wins+losses+ties != n", c.id));
            }
            if !(0.0..=1.0).contains(&c.p) {
                return Err(format!("{}: p = {} out of range", c.id, c.p));
            }
            if !c.mean_diff.is_finite() {
                return Err(format!("{}: non-finite mean_diff", c.id));
            }
            let valid_status = match c.status.as_str() {
                "no-data" => c.n == 0,
                "reproduced" | "partial" | "not" => c.n > 0,
                _ => return Err(format!("{}: unknown status {:?}", c.id, c.status)),
            };
            if !valid_status {
                return Err(format!(
                    "{}: status {:?} inconsistent with n = {}",
                    c.id, c.status, c.n
                ));
            }
        }
        Ok(())
    }

    /// Number of claims per status, as `(reproduced, partial, not,
    /// no-data)`.
    pub fn tally(&self) -> (usize, usize, usize, usize) {
        let count = |s: &str| self.claims.iter().filter(|c| c.status == s).count();
        (
            count("reproduced"),
            count("partial"),
            count("not"),
            count("no-data"),
        )
    }
}

/// Evaluates every claim against the records (partial sweeps simply
/// leave uncovered claims at `no-data`).
pub fn evaluate_claims(records: &[CellRecord]) -> VerdictsFile {
    let experiments: Vec<String> = records
        .iter()
        .map(|r| r.experiment.clone())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let seeds: Vec<u64> = records
        .iter()
        .map(|r| r.seed)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    let claims = vec![
        claim(
            "table2-adaptivefl-best",
            "table2",
            "AdaptiveFL has the best avg accuracy in every Table 2 column",
            champion_diffs(records, "table2", "AdaptiveFL", |r| r.best_avg),
        ),
        claim(
            "table3-adaptivefl-best",
            "table3",
            "AdaptiveFL has the best avg accuracy under every device proportion",
            champion_diffs(records, "table3", "AdaptiveFL", |r| r.best_avg),
        ),
        claim(
            "table3-strong-devices-help",
            "table3",
            "Every method's full accuracy improves from 8:1:1 to 1:1:8 devices",
            table3_strong_diffs(records),
        ),
        claim(
            "table4-fine-beats-coarse",
            "table4",
            "Fine-grained pruning (p=3) beats coarse (p=1) in every Table 4 cell",
            variant_pair_diffs(records, "table4", "fine", "coarse", |r| r.best_full),
        ),
        claim(
            "fig2-adaptivefl-on-top",
            "fig2",
            "AdaptiveFL's learning curve peaks highest in every Figure 2 panel",
            champion_diffs(records, "fig2", "AdaptiveFL", |r| r.best_avg),
        ),
        claim(
            "fig2-adaptivefl-least-variation",
            "fig2",
            "AdaptiveFL's curve fluctuates least in every Figure 2 panel",
            least_variation_diffs(records),
        ),
        claim(
            "fig3-adaptivefl-monotone",
            "fig3",
            "AdaptiveFL's submodel accuracy grows with submodel size",
            fig3_monotone_diffs(records, "AdaptiveFL", true),
        ),
        claim(
            "fig3-baselines-inverted",
            "fig3",
            "HeteroFL's and ScaleFL's largest submodels do not beat their smallest",
            fig3_inversion_diffs(records),
        ),
        claim(
            "fig4-adaptivefl-highest",
            "fig4",
            "AdaptiveFL reaches the highest full accuracy at every client count",
            champion_diffs(records, "fig4", "AdaptiveFL", |r| r.best_full),
        ),
        claim(
            "fig5-cs-best-accuracy",
            "fig5",
            "The full +CS selection reaches the highest accuracy of the Figure 5 variants",
            champion_diffs(records, "fig5", "AdaptiveFL", |r| r.best_full),
        ),
        claim(
            "fig5-greed-highest-waste",
            "fig5",
            "Greedy dispatch has the highest communication-waste rate",
            champion_diffs(records, "fig5", "AdaptiveFL+Greed", |r| r.comm_waste),
        ),
        claim(
            "fig6-adaptivefl-best",
            "fig6",
            "AdaptiveFL reaches the best accuracy on the 17-device test-bed",
            champion_diffs(records, "fig6", "AdaptiveFL", |r| r.best_full),
        ),
        claim(
            "ablation-finer-p-helps",
            "ablation",
            "p=3 pool granularity beats p=1 on full accuracy",
            variant_pair_diffs(records, "ablation", "p=3", "p=1", |r| r.best_full),
        ),
        claim(
            "ablation-reward-cap-helps",
            "ablation",
            "The paper's 0.5 success-rate reward cap beats an uncapped reward",
            variant_pair_diffs(
                records,
                "ablation",
                "cap=0.5 (paper)",
                "cap=1.0 (off)",
                |r| r.best_full,
            ),
        ),
        claim(
            "ablation-paper-ratios-best",
            "ablation",
            "The paper's (0.40, 0.66) width ratios beat the neighbouring pairs",
            ratios_best_diffs(records),
        ),
    ];

    VerdictsFile {
        version: VERDICTS_VERSION,
        experiments,
        seeds,
        claims,
    }
}

fn claim(id: &str, experiment: &str, description: &str, diffs: Vec<f64>) -> ClaimOutcome {
    let test = SignTest::from_diffs(&diffs);
    let mean_diff = SampleStats::from_samples(&diffs).mean;
    let status = if diffs.is_empty() {
        "no-data"
    } else if test.wins > test.losses && test.p <= ALPHA {
        "reproduced"
    } else if test.wins >= test.losses {
        "partial"
    } else {
        "not"
    };
    ClaimOutcome {
        id: id.into(),
        experiment: experiment.into(),
        description: description.into(),
        n: diffs.len(),
        wins: test.wins,
        losses: test.losses,
        ties: test.ties,
        p: test.p,
        mean_diff,
        status: status.into(),
    }
}

/// Records of one experiment, keyed by `(group, seed)` — the
/// comparison unit of most claims. BTreeMap order keeps diff
/// collection deterministic.
fn panels<'a>(
    records: &'a [CellRecord],
    experiment: &str,
) -> BTreeMap<(&'a str, u64), Vec<&'a CellRecord>> {
    let mut map: BTreeMap<(&str, u64), Vec<&CellRecord>> = BTreeMap::new();
    for r in records.iter().filter(|r| r.experiment == experiment) {
        map.entry((r.group.as_str(), r.seed)).or_default().push(r);
    }
    map
}

/// Champion-vs-best-rival differences: for each `(group, seed)` that
/// holds the champion and at least one rival,
/// `metric(champion) - max(metric(rivals))`.
fn champion_diffs(
    records: &[CellRecord],
    experiment: &str,
    champion: &str,
    metric: impl Fn(&CellRecord) -> f64,
) -> Vec<f64> {
    let mut diffs = Vec::new();
    for group in panels(records, experiment).values() {
        let Some(champ) = group.iter().find(|r| r.method == champion) else {
            continue;
        };
        let rival = group
            .iter()
            .filter(|r| r.method != champion)
            .map(|r| metric(r))
            .max_by(f64::total_cmp);
        if let Some(rival) = rival {
            diffs.push(metric(champ) - rival);
        }
    }
    diffs
}

/// Variant-vs-variant differences within each `(group, seed)`:
/// `metric(a) - metric(b)` wherever both variants exist.
fn variant_pair_diffs(
    records: &[CellRecord],
    experiment: &str,
    a: &str,
    b: &str,
    metric: impl Fn(&CellRecord) -> f64,
) -> Vec<f64> {
    let mut diffs = Vec::new();
    for group in panels(records, experiment).values() {
        let va = group.iter().find(|r| r.variant == a);
        let vb = group.iter().find(|r| r.variant == b);
        if let (Some(va), Some(vb)) = (va, vb) {
            diffs.push(metric(va) - metric(vb));
        }
    }
    diffs
}

/// Table 3's proportion claim: per `(method, seed)`, full accuracy at
/// 1:1:8 (strong-heavy) minus at 8:1:1 (weak-heavy).
fn table3_strong_diffs(records: &[CellRecord]) -> Vec<f64> {
    let mut by_method_seed: BTreeMap<(&str, u64), [Option<f64>; 2]> = BTreeMap::new();
    for r in records.iter().filter(|r| r.experiment == "table3") {
        let slot = match r.group.as_str() {
            "1:1:8" => 0,
            "8:1:1" => 1,
            _ => continue,
        };
        by_method_seed
            .entry((r.method.as_str(), r.seed))
            .or_default()[slot] = Some(r.best_full);
    }
    by_method_seed
        .values()
        .filter_map(|[strong, weak]| Some((*strong)? - (*weak)?))
        .collect()
}

/// Figure 2's stability claim: per `(panel, seed)`, the smallest
/// rival curve variation minus AdaptiveFL's (positive when AdaptiveFL
/// fluctuates least).
fn least_variation_diffs(records: &[CellRecord]) -> Vec<f64> {
    let mut diffs = Vec::new();
    for group in panels(records, "fig2").values() {
        let Some(champ) = group.iter().find(|r| r.method == "AdaptiveFL") else {
            continue;
        };
        let rival = group
            .iter()
            .filter(|r| r.method != "AdaptiveFL")
            .map(|r| r.avg_curve_variation())
            .min_by(f64::total_cmp);
        if let Some(rival) = rival {
            diffs.push(rival - champ.avg_curve_variation());
        }
    }
    diffs
}

/// Figure 3 monotonicity margin for one method: per seed, the
/// smallest small-to-large accuracy step plus the tolerance —
/// positive iff accuracy is (tolerantly) non-decreasing with size.
/// With `expect_monotone = false` the sign flips, so a positive value
/// means the ordering is violated (the baseline-inversion claim).
fn fig3_monotone_diffs(records: &[CellRecord], method: &str, expect_monotone: bool) -> Vec<f64> {
    let mut diffs = Vec::new();
    let mut matching: Vec<&CellRecord> = records
        .iter()
        .filter(|r| r.experiment == "fig3" && r.method == method)
        .collect();
    matching.sort_by_key(|r| r.seed);
    for r in matching {
        if r.levels.len() < 2 {
            continue;
        }
        let min_step = r
            .levels
            .windows(2)
            .map(|w| w[1].1 - w[0].1)
            .min_by(f64::total_cmp)
            .expect("at least one step");
        let margin = min_step + MONOTONE_TOL;
        diffs.push(if expect_monotone { margin } else { -margin });
    }
    diffs
}

/// The baseline half of Figure 3: HeteroFL and ScaleFL are expected
/// to *break* monotonicity (their largest model does not beat their
/// smallest).
fn fig3_inversion_diffs(records: &[CellRecord]) -> Vec<f64> {
    let mut diffs = fig3_monotone_diffs(records, "HeteroFL", false);
    diffs.extend(fig3_monotone_diffs(records, "ScaleFL", false));
    diffs
}

/// Width-ratio claim: per seed, the paper's (0.40, 0.66) pair against
/// the best of its neighbours.
fn ratios_best_diffs(records: &[CellRecord]) -> Vec<f64> {
    let mut diffs = Vec::new();
    for group in panels(records, "ablation").values() {
        if group.iter().any(|r| r.group != "ratios") {
            continue;
        }
        let Some(paper) = group.iter().find(|r| r.variant == "S=0.4,M=0.66") else {
            continue;
        };
        let rival = group
            .iter()
            .filter(|r| r.variant != "S=0.4,M=0.66")
            .map(|r| r.best_full)
            .max_by(f64::total_cmp);
        if let Some(rival) = rival {
            diffs.push(paper.best_full - rival);
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::record::RECORD_VERSION;

    fn rec(experiment: &str, group: &str, method: &str, seed: u64, best: f64) -> CellRecord {
        CellRecord {
            version: RECORD_VERSION,
            experiment: experiment.into(),
            slug: format!("{experiment}-{group}-{method}"),
            group: group.into(),
            method: method.into(),
            model: "M".into(),
            dataset: "D".into(),
            partition: "IID".into(),
            variant: String::new(),
            seed,
            best_full: best,
            best_avg: best,
            final_full: best,
            final_avg: best,
            comm_waste: 0.1,
            sim_secs: 1.0,
            levels: vec![],
            curve: vec![],
            fingerprint_fnv: 0,
        }
    }

    fn champion_scenario(adaptive_lead: f64, seeds: u64) -> Vec<CellRecord> {
        let mut recs = Vec::new();
        for seed in 0..seeds {
            recs.push(rec("table2", "g", "AdaptiveFL", seed, 0.6 + adaptive_lead));
            recs.push(rec("table2", "g", "HeteroFL", seed, 0.6));
            recs.push(rec("table2", "g", "ScaleFL", seed, 0.55));
        }
        recs
    }

    #[test]
    fn champion_wins_everywhere_is_reproduced_with_enough_seeds() {
        let v = evaluate_claims(&champion_scenario(0.05, 6));
        let c = v
            .claims
            .iter()
            .find(|c| c.id == "table2-adaptivefl-best")
            .unwrap();
        assert_eq!((c.n, c.wins, c.losses), (6, 6, 0));
        assert!(c.p <= ALPHA, "p = {}", c.p);
        assert_eq!(c.status, "reproduced");
        assert!((c.mean_diff - 0.05).abs() < 1e-12);
    }

    #[test]
    fn few_seeds_cap_at_partial() {
        // 3/3 wins: p = 0.25 — right, but not significant.
        let v = evaluate_claims(&champion_scenario(0.05, 3));
        let c = v
            .claims
            .iter()
            .find(|c| c.id == "table2-adaptivefl-best")
            .unwrap();
        assert_eq!(c.status, "partial");
    }

    #[test]
    fn champion_losing_is_not_reproduced() {
        let v = evaluate_claims(&champion_scenario(-0.05, 6));
        let c = v
            .claims
            .iter()
            .find(|c| c.id == "table2-adaptivefl-best")
            .unwrap();
        assert_eq!(c.status, "not");
    }

    #[test]
    fn uncovered_claims_report_no_data() {
        let v = evaluate_claims(&champion_scenario(0.05, 2));
        let fig6 = v
            .claims
            .iter()
            .find(|c| c.id == "fig6-adaptivefl-best")
            .unwrap();
        assert_eq!(fig6.status, "no-data");
        assert_eq!(fig6.n, 0);
        assert!((fig6.p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_margin_uses_levels() {
        let mut up = rec("fig3", "fig3", "AdaptiveFL", 0, 0.6);
        up.levels = vec![
            ("S_1".into(), 0.4),
            ("M_1".into(), 0.5),
            ("L_1".into(), 0.6),
        ];
        let mut down = rec("fig3", "fig3", "HeteroFL", 0, 0.6);
        down.levels = vec![
            ("S_1".into(), 0.6),
            ("M_1".into(), 0.5),
            ("L_1".into(), 0.4),
        ];
        let v = evaluate_claims(&[up, down]);
        let mono = v
            .claims
            .iter()
            .find(|c| c.id == "fig3-adaptivefl-monotone")
            .unwrap();
        assert_eq!((mono.wins, mono.losses), (1, 0));
        let inv = v
            .claims
            .iter()
            .find(|c| c.id == "fig3-baselines-inverted")
            .unwrap();
        assert_eq!((inv.wins, inv.losses), (1, 0));
    }

    #[test]
    fn file_round_trips_and_validates() {
        let v = evaluate_claims(&champion_scenario(0.05, 4));
        v.validate().expect("fresh verdicts validate");
        let text = serde_json::to_string_pretty(&v).unwrap();
        let back: VerdictsFile = serde_json::from_str(&text).unwrap();
        assert_eq!(v, back);
        let (r, p, n, nd) = v.tally();
        assert_eq!(r + p + n + nd, v.claims.len());
    }

    #[test]
    fn validate_rejects_damage() {
        let mut v = evaluate_claims(&champion_scenario(0.05, 4));
        v.claims[0].p = 1.5;
        assert!(v.validate().is_err());
        let mut v2 = evaluate_claims(&champion_scenario(0.05, 4));
        v2.claims[0].status = "maybe".into();
        assert!(v2.validate().is_err());
        let mut v3 = evaluate_claims(&champion_scenario(0.05, 4));
        v3.version = 9;
        assert!(v3.validate().is_err());
    }
}
