//! The parallel multi-seed sweep engine — the one way to run an
//! experiment grid.
//!
//! At this scale run-to-run noise on a single cell is several
//! accuracy points, so one sample per cell cannot check the paper's
//! claims. This module turns the grids into `cells × seeds` jobs:
//!
//! * [`grids`] exposes every experiment's cell grid as data;
//! * [`scheduler`] fans the jobs out over worker threads that pull
//!   from a shared atomic queue; every job is fully isolated (own
//!   environment, own RNG streams derived from its seed, own scratch
//!   arena, optional private checkpoint dir and trace file), so a
//!   sweep's per-`(cell, seed)` results are byte-identical at any
//!   thread count — `tests/sweep_determinism.rs` asserts it;
//! * [`record`] + [`io`] persist one JSON record per `(cell, seed)`
//!   under `<out>/<slug>/<seed>.json` ([`default_out`] by default);
//! * [`stats`] aggregates mean / std / 95 % CI per cell and provides
//!   the paired sign test;
//! * [`verdicts`] re-evaluates every EXPERIMENTS.md claim as a
//!   machine-checkable statistical verdict (`verdicts.json`).
//!
//! Run it with the `sweep` binary (a single seed is the plain
//! single-run reproduction of a table or figure):
//!
//! ```text
//! cargo run --release -p adaptivefl-bench --bin sweep -- --experiments fig3
//! cargo run --release -p adaptivefl-bench --bin sweep -- --seeds 3 --jobs 8
//! ```

use std::path::PathBuf;

pub mod cell;
pub mod grids;
pub mod io;
pub mod record;
pub mod scheduler;
pub mod stats;
pub mod verdicts;

pub use cell::{Cell, CellRun, FleetSpec, JobOpts};
pub use io::{read_records, write_record};
pub use record::{CellRecord, CurvePoint};
pub use scheduler::run_parallel;
pub use stats::{summarize_cells, CellSummary, SampleStats, SignTest};
pub use verdicts::{evaluate_claims, ClaimOutcome, VerdictsFile};

/// The default record directory, relative to the repository root:
/// `results/sweep` in fast mode, `results/sweep-full` with `--full`.
/// Grid slugs do not encode the mode, and the sweep skips every
/// `(slug, seed)` already recorded, so the two modes must never share
/// a directory.
pub fn default_out(full: bool) -> PathBuf {
    PathBuf::from(if full {
        "results/sweep-full"
    } else {
        "results/sweep"
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_out_separates_fast_and_full_records() {
        assert_eq!(default_out(false), PathBuf::from("results/sweep"));
        assert_eq!(default_out(true), PathBuf::from("results/sweep-full"));
    }
}
