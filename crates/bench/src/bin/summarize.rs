//! Renders every record under `results/` into one markdown report
//! (`results/SUMMARY.md`) — handy after `./run_experiments.sh`. With
//! `--resume <dir>` it also reads the newest valid checkpoint of every
//! run under `<dir>` and reports the persisted histories (method,
//! completed rounds, best accuracy, communication waste). With
//! `--sweep <dir>` (default `results/sweep`, or `results/sweep-full`
//! with `--full`, when it exists) it adds cross-seed mean±95 % CI
//! tables and the statistical verdict for every paper claim the sweep
//! covered.
//!
//! ```text
//! cargo run --release -p adaptivefl-bench --bin summarize \
//!     [--full] [--resume <dir>] [--sweep <dir>]
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use adaptivefl_bench::sweep::{default_out, evaluate_claims, read_records, summarize_cells};
use adaptivefl_bench::{results_dir, Args};
use adaptivefl_core::metrics::RunResult;
use adaptivefl_store::SnapshotStore;
use serde_json::Value;

/// Cross-seed section: one mean±CI table per experiment plus the
/// claim verdicts, all recomputed from the record files so the
/// section never disagrees with what is on disk.
fn sweep_section(out: &mut String, dir: &Path, label: &str) {
    let records = match read_records(dir) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(out, "\n## sweep ({label})\n\n*(unreadable: {e})*");
            return;
        }
    };
    let _ = writeln!(out, "\n## sweep ({label})\n");
    if records.is_empty() {
        let _ = writeln!(out, "*(no sweep records — run the `sweep` binary first)*");
        return;
    }

    let summaries = summarize_cells(&records);
    let mut current = "";
    for s in &summaries {
        if s.experiment != current {
            current = &s.experiment;
            let _ = writeln!(out, "\n### {current} (mean±95 % CI)\n");
            let _ = writeln!(out, "| cell | seeds | full % | avg % | waste % |");
            let _ = writeln!(out, "|---|---|---|---|---|");
        }
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} |",
            s.slug,
            s.seeds.len(),
            s.best_full.pct_pm(),
            s.best_avg.pct_pm(),
            s.comm_waste.pct_pm(),
        );
    }

    let verdicts = evaluate_claims(&records);
    let _ = writeln!(out, "\n### verdicts\n");
    let _ = writeln!(
        out,
        "| claim | status | n | wins/losses/ties | p | mean diff |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    for c in &verdicts.claims {
        let _ = writeln!(
            out,
            "| {} | **{}** | {} | {}/{}/{} | {:.4} | {:+.4} |",
            c.id, c.status, c.n, c.wins, c.losses, c.ties, c.p, c.mean_diff,
        );
    }
    let (reproduced, partial, not, no_data) = verdicts.tally();
    let _ = writeln!(
        out,
        "\n*({} claims: {reproduced} reproduced, {partial} partial, {not} not, {no_data} no-data; seeds {:?})*",
        verdicts.claims.len(),
        verdicts.seeds,
    );
}

/// One markdown table row per run directory under `dir`, built from
/// each run's newest valid snapshot. Histories round-trip through the
/// stable `RoundRecord`/`EvalRecord` codecs, so the derived metrics
/// (`comm_waste_rate`, best accuracies) match the live run exactly.
fn checkpoint_section(out: &mut String, dir: &Path) {
    let _ = writeln!(out, "\n## checkpoints ({})\n", dir.display());
    let mut runs: Vec<_> = match fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect(),
        Err(e) => {
            let _ = writeln!(out, "*(unreadable: {e})*");
            return;
        }
    };
    runs.sort();
    let _ = writeln!(
        out,
        "| run | method | rounds | best full % | best avg % | waste % | sim secs |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    let mut shown = 0usize;
    for run in runs {
        let name = run.file_name().and_then(|s| s.to_str()).unwrap_or("?");
        let store = match SnapshotStore::open(&run) {
            Ok(s) => s,
            Err(_) => continue,
        };
        let Ok(Some((_, snap))) = store.latest_valid() else {
            let _ = writeln!(out, "| {name} | - | no valid snapshot | - | - | - | - |");
            continue;
        };
        let rounds_done = snap.completed_rounds;
        let r = RunResult::from_history(snap.method_name.clone(), snap.rounds, snap.evals);
        let _ = writeln!(
            out,
            "| {name} | {} | {rounds_done} | {:.1} | {:.1} | {:.1} | {:.1} |",
            r.method,
            100.0 * r.best_full_accuracy(),
            100.0 * r.best_avg_accuracy(),
            100.0 * r.comm_waste_rate(),
            r.total_sim_secs(),
        );
        shown += 1;
    }
    let _ = writeln!(out, "\n*({shown} checkpointed runs)*");
}

fn main() {
    let (args, rest) = Args::parse_from(std::env::args().skip(1));
    let mut sweep_dir: Option<PathBuf> = None;
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sweep" => {
                sweep_dir = Some(PathBuf::from(it.next().expect("--sweep needs a directory")))
            }
            other => eprintln!("ignoring unknown argument {other}"),
        }
    }
    let dir = results_dir();
    // Default to the sweep's own default directory when it exists, so
    // a plain `summarize` after a sweep picks the statistics up without
    // extra flags. The label keeps the committed report free of
    // absolute paths.
    let default_sweep = default_out(args.full);
    let mut sweep_label = default_sweep.display().to_string();
    let default_sweep = dir.join("..").join(default_sweep);
    match &sweep_dir {
        Some(d) => sweep_label = d.display().to_string(),
        None if default_sweep.is_dir() => sweep_dir = Some(default_sweep),
        None => {}
    }
    let mut out = String::from("# AdaptiveFL reproduction — results summary\n");
    let mut entries: Vec<_> = fs::read_dir(&dir)
        .expect("results dir readable")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();

    for path in entries {
        let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("?");
        let Ok(body) = fs::read_to_string(&path) else {
            continue;
        };
        let Ok(value) = serde_json::from_str::<Value>(&body) else {
            continue;
        };
        let _ = writeln!(out, "\n## {name}\n");
        match &value {
            Value::Array(rows) if !rows.is_empty() => {
                // Render an array of flat objects as a table.
                if let Some(Value::Object(first)) = rows.first() {
                    let cols: Vec<&String> = first.keys().collect();
                    let _ = writeln!(
                        out,
                        "| {} |",
                        cols.iter()
                            .map(|c| c.as_str())
                            .collect::<Vec<_>>()
                            .join(" | ")
                    );
                    let _ = writeln!(
                        out,
                        "|{}|",
                        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
                    );
                    for row in rows {
                        if let Value::Object(obj) = row {
                            let cells: Vec<String> = cols
                                .iter()
                                .map(|c| match obj.get(c) {
                                    Some(Value::Number(n)) => {
                                        let f = n.as_f64().unwrap_or(0.0);
                                        if f.fract() == 0.0 && f.abs() < 1e15 {
                                            format!("{f:.0}")
                                        } else {
                                            format!("{f:.4}")
                                        }
                                    }
                                    Some(Value::String(s)) => s.clone(),
                                    Some(v) => v.to_string(),
                                    None => String::new(),
                                })
                                .collect();
                            let _ = writeln!(out, "| {} |", cells.join(" | "));
                        }
                    }
                } else {
                    let _ = writeln!(out, "```json\n{body}\n```");
                }
            }
            _ => {
                let _ = writeln!(out, "```json\n{body}\n```");
            }
        }
        let _ = writeln!(
            out,
            "\n*({} entries)*",
            value.as_array().map_or(1, Vec::len)
        );
    }

    if let Some(sweep) = &sweep_dir {
        sweep_section(&mut out, sweep, &sweep_label);
    }

    if let Some(ckpt_dir) = &args.resume {
        checkpoint_section(&mut out, ckpt_dir);
    }

    let target = dir.join("SUMMARY.md");
    fs::write(&target, out).expect("write summary");
    println!("wrote {}", target.display());
}
