//! `render-experiments`: regenerates every marked `EXPERIMENTS.md`
//! section from the committed `bench_results/BENCH_<suite>.json`
//! artifacts.
//!
//! CI runs this followed by `git diff --exit-code EXPERIMENTS.md` as a
//! drift check: the tables between `<!-- BENCH:<suite>:begin/end -->`
//! markers must always be exactly what the current renderer produces
//! from the committed artifacts — hand-edited numbers or a renderer
//! change without a regenerated report fail the build.
//!
//! Only suites whose markers already exist in the report are touched
//! (artifacts without a section, e.g. `BENCH_table4.json`, are listed as
//! skipped); sections are never appended here, so the tool is idempotent
//! over a clean tree.
//!
//! With `ESG_RESULTS_DIR` set, it reads the artifacts there and renders
//! into the `EXPERIMENTS.md` beside them (`ESG_EXPERIMENTS_MD` names
//! another report).

use esg_bench::{
    experiments_md_path, render_bench_markdown, render_overhead_markdown, render_replay_markdown,
    render_scale_markdown, results_dir,
};
use serde_json::Value;
use std::process::ExitCode;

fn main() -> ExitCode {
    let dir = results_dir();
    let report = experiments_md_path();
    let current = match std::fs::read_to_string(&report) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("render-experiments: cannot read {}: {e}", report.display());
            return ExitCode::FAILURE;
        }
    };

    let mut entries: Vec<_> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd.filter_map(Result::ok).map(|e| e.path()).collect(),
        Err(e) => {
            eprintln!("render-experiments: cannot list {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    entries.sort();

    let mut updated = 0usize;
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(suite) = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        if !current.contains(&format!("<!-- BENCH:{suite}:begin -->")) {
            eprintln!("[md] suite {suite}: no markers in report, skipping");
            continue;
        }
        let doc: Value = match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
        {
            Ok(d) => d,
            Err(e) => {
                eprintln!("render-experiments: cannot load {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        // Suites carrying sweep records render as scheduler tables; the
        // overhead and scale microbenches have their own shapes.
        let markdown = if suite == "overhead" {
            render_overhead_markdown(&doc)
        } else if suite == "scale" {
            render_scale_markdown(&doc)
        } else if suite == "replay" {
            render_replay_markdown(&doc)
        } else {
            render_bench_markdown(&doc)
        };
        if esg_bench::update_experiments_md(suite, &markdown).is_none() {
            eprintln!("render-experiments: failed to update suite {suite}");
            return ExitCode::FAILURE;
        }
        updated += 1;
    }
    println!("regenerated {updated} section(s) in {}", report.display());
    ExitCode::SUCCESS
}
