//! Runs the experiment grids — every table and figure of the paper
//! except the analytic Table 1 — over one or more seeds, with
//! statistical aggregation and machine-readable verdicts.
//!
//! ```text
//! cargo run --release -p adaptivefl-bench --bin sweep -- \
//!     [--full] [--seed N] [--seeds N|a,b,c] [--jobs M] \
//!     [--experiments table3,fig3] [--tiny] [--out DIR] \
//!     [--resume DIR] [--trace DIR]
//! cargo run --release -p adaptivefl-bench --bin sweep -- --check FILE
//! ```
//!
//! Runs `cells × seeds` fully isolated jobs across `--jobs` worker
//! threads (hardware default), writing one record per job under
//! `<out>/<slug>/<seed>.json` (default `results/sweep/`, or
//! `results/sweep-full/` with `--full`), then
//! aggregates mean ± 95 % CI per cell into `<out>/stats.json` and
//! re-evaluates every paper claim as a sign-test verdict in
//! `<out>/verdicts.json`. Jobs already recorded are skipped, so an
//! interrupted sweep resumes where it stopped; `--check FILE`
//! schema-validates an existing verdicts file and exits.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

use adaptivefl_bench::sweep::io::{read_records, record_path, write_record};
use adaptivefl_bench::sweep::{
    default_out, evaluate_claims, grids, run_parallel, summarize_cells, Cell, CellRecord, JobOpts,
    VerdictsFile,
};
use adaptivefl_bench::{print_table, Args};

struct SweepFlags {
    tiny: bool,
    experiments: Option<Vec<String>>,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
}

fn parse_sweep_flags(leftovers: Vec<String>) -> SweepFlags {
    let mut flags = SweepFlags {
        tiny: false,
        experiments: None,
        out: None,
        check: None,
    };
    let mut it = leftovers.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiny" => flags.tiny = true,
            "--experiments" => {
                let list = it
                    .next()
                    .expect("--experiments needs a comma-separated list");
                flags.experiments = Some(
                    list.split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                );
            }
            "--out" => flags.out = Some(PathBuf::from(it.next().expect("--out needs a directory"))),
            "--check" => {
                flags.check = Some(PathBuf::from(it.next().expect("--check needs a file")))
            }
            other => {
                eprintln!("unknown sweep argument {other}");
                std::process::exit(2);
            }
        }
    }
    flags
}

fn check_verdicts(path: &PathBuf) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let file: VerdictsFile = match serde_json::from_str(&text) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{} is not a verdicts file: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    match file.validate() {
        Ok(()) => {
            let (r, p, n, nd) = file.tally();
            println!(
                "{} valid: {} claims ({r} reproduced, {p} partial, {n} not, {nd} no-data), seeds {:?}",
                path.display(),
                file.claims.len(),
                file.seeds
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{} invalid: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let (args, leftovers) = Args::parse_from(std::env::args().skip(1));
    let flags = parse_sweep_flags(leftovers);
    if let Some(path) = &flags.check {
        return check_verdicts(path);
    }
    let out = flags.out.unwrap_or_else(|| default_out(args.full));

    let cells: Vec<Cell> = if flags.tiny {
        grids::tiny(args.seed)
    } else {
        let names: Vec<String> = flags
            .experiments
            .clone()
            .unwrap_or_else(|| grids::EXPERIMENTS.iter().map(|s| s.to_string()).collect());
        names
            .iter()
            .flat_map(|name| {
                grids::experiment(name, args.full, args.seed).unwrap_or_else(|| {
                    eprintln!(
                        "unknown experiment {name:?} (known: {})",
                        grids::EXPERIMENTS.join(", ")
                    );
                    std::process::exit(2);
                })
            })
            .collect()
    };

    // One job per (cell, seed) not yet recorded on disk.
    let jobs: Vec<(&Cell, u64)> = cells
        .iter()
        .flat_map(|c| args.seeds.iter().map(move |s| (c, *s)))
        .filter(|(c, s)| !record_path(&out, &c.slug, *s).exists())
        .collect();
    let skipped = cells.len() * args.seeds.len() - jobs.len();
    let threads = args
        .jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    println!(
        "sweep: {} cells x {} seeds = {} jobs ({} already recorded), {} thread(s), out {}",
        cells.len(),
        args.seeds.len(),
        jobs.len(),
        skipped,
        threads,
        out.display()
    );
    if jobs.is_empty() {
        println!("all records present; skipping straight to aggregation");
    }

    let opts = JobOpts {
        resume: args.resume.clone(),
        trace: args.trace.clone(),
    };
    let finished = AtomicUsize::new(0);
    let total = jobs.len();
    run_parallel(&jobs, threads, |_, (cell, seed)| {
        let result = cell.execute(*seed, &opts);
        let record = CellRecord::new(cell, *seed, &result);
        let path = write_record(&out, &record).expect("write sweep record");
        let n = finished.fetch_add(1, Ordering::Relaxed) + 1;
        println!(
            "[{n}/{total}] {} s{seed}: full {:.3} avg {:.3} -> {}",
            cell.slug,
            record.best_full,
            record.best_avg,
            path.display()
        );
    });

    // Aggregate everything recorded under the out dir (this run plus
    // any earlier partial runs).
    let records = read_records(&out).expect("read sweep records");
    if records.is_empty() {
        eprintln!("no records under {}", out.display());
        return ExitCode::FAILURE;
    }
    let summaries = summarize_cells(&records);
    let mut current = "";
    let mut rows: Vec<Vec<String>> = Vec::new();
    for s in &summaries {
        if s.experiment != current && !rows.is_empty() {
            print_table(
                &format!("sweep: {current} (mean\u{b1}95% CI)"),
                &["cell", "n", "full %", "avg %", "waste %"],
                &rows,
            );
            rows.clear();
        }
        current = &s.experiment;
        rows.push(vec![
            s.slug.clone(),
            s.best_full.n.to_string(),
            s.best_full.pct_pm(),
            s.best_avg.pct_pm(),
            s.comm_waste.pct_pm(),
        ]);
    }
    if !rows.is_empty() {
        print_table(
            &format!("sweep: {current} (mean\u{b1}95% CI)"),
            &["cell", "n", "full %", "avg %", "waste %"],
            &rows,
        );
    }

    let stats_path = out.join("stats.json");
    std::fs::write(
        &stats_path,
        serde_json::to_string_pretty(&summaries).expect("serialise stats"),
    )
    .expect("write stats.json");
    println!("[wrote {}]", stats_path.display());

    let verdicts = evaluate_claims(&records);
    let verdicts_path = out.join("verdicts.json");
    std::fs::write(
        &verdicts_path,
        serde_json::to_string_pretty(&verdicts).expect("serialise verdicts"),
    )
    .expect("write verdicts.json");
    println!("[wrote {}]", verdicts_path.display());

    println!("\n== verdicts ==");
    for c in &verdicts.claims {
        println!(
            "  {:<11} {:<32} wins {:>2} losses {:>2} ties {:>2}  p={:.4}  {}",
            c.status, c.id, c.wins, c.losses, c.ties, c.p, c.description
        );
    }
    let (r, p, n, nd) = verdicts.tally();
    println!("\n{r} reproduced, {p} partial, {n} not reproduced, {nd} without data");
    ExitCode::SUCCESS
}
