//! Renders human-readable reports from `.jsonl` traces produced by
//! the `sweep` binary's `--trace <dir>` flag.
//!
//! ```text
//! trace_report <file-or-dir> [more files or dirs...] [--merge]
//! ```
//!
//! By default each trace file gets its own report (per-phase wall-time
//! breakdown plus the per-layer Algorithm-2 coverage table); `--merge`
//! folds every file into one combined report instead.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use adaptivefl_trace::{read_trace, TraceReport};

fn collect_traces(path: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
            .collect();
        entries.sort();
        out.extend(entries);
    } else {
        out.push(path.to_path_buf());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut merge = false;
    let mut inputs: Vec<PathBuf> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--merge" => merge = true,
            "--help" | "-h" => {
                eprintln!("usage: trace_report <file-or-dir>... [--merge]");
                return ExitCode::SUCCESS;
            }
            other => inputs.push(PathBuf::from(other)),
        }
    }
    if inputs.is_empty() {
        eprintln!("usage: trace_report <file-or-dir>... [--merge]");
        return ExitCode::FAILURE;
    }

    let mut files = Vec::new();
    for input in &inputs {
        if let Err(e) = collect_traces(input, &mut files) {
            eprintln!("error: cannot read {}: {e}", input.display());
            return ExitCode::FAILURE;
        }
    }
    if files.is_empty() {
        eprintln!("error: no .jsonl traces found under the given paths");
        return ExitCode::FAILURE;
    }

    let mut merged = TraceReport::new();
    let mut failed = false;
    for file in &files {
        match read_trace(file) {
            Ok(lines) => {
                if merge {
                    merged.add_lines(&lines);
                } else {
                    println!("=== {} ===", file.display());
                    println!("{}", TraceReport::from_lines(&lines).render());
                }
            }
            Err(e) => {
                eprintln!("error: {}: {e}", file.display());
                failed = true;
            }
        }
    }
    if merge {
        println!("=== merged ({} traces) ===", files.len());
        println!("{}", merged.render());
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
