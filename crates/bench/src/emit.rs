//! Artifact emission: CSV/JSON files under `bench_results/` and the
//! self-documenting `EXPERIMENTS.md` pipeline.
//!
//! Emission is best-effort everywhere — the printed output is the primary
//! artifact of a bench target; files are for plotting and regression
//! diffing. [`render_bench_markdown`] turns the exact document written as
//! `BENCH_<suite>.json` into paper-style Markdown tables, and
//! [`update_experiments_md`] splices them into `EXPERIMENTS.md` between
//! `<!-- BENCH:<suite>:begin/end -->` markers, so reported numbers always
//! regenerate from artifacts instead of rotting by hand.

use serde_json::Value;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Whether this is a smoke run (`ESG_SMOKE` set to anything but empty
/// or `0`): bench targets shrink their workloads, artifacts default to a
/// scratch directory ([`results_dir`]) and `EXPERIMENTS.md` is left
/// alone ([`update_experiments_md`]), so smoke-sized numbers never
/// overwrite the committed full-run ones.
pub fn smoke() -> bool {
    std::env::var("ESG_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The artifact directory: `$ESG_RESULTS_DIR` when set; else
/// `target/bench_results_smoke/` in a [`smoke`] run; else the
/// workspace-level `bench_results/`.
pub fn results_dir() -> PathBuf {
    resolve_results_dir(std::env::var_os("ESG_RESULTS_DIR"), smoke())
}

/// [`results_dir`] from the value of `$ESG_RESULTS_DIR` and [`smoke`].
/// Both defaults are anchored at the workspace root, since bench binaries
/// run with CWD = the package dir.
fn resolve_results_dir(explicit: Option<std::ffi::OsString>, smoke: bool) -> PathBuf {
    let workspace = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    match explicit {
        Some(dir) => PathBuf::from(dir),
        None if smoke => workspace.join("target/bench_results_smoke"),
        None => workspace.join("bench_results"),
    }
}

/// Writes rows as `<name>.csv` under the results directory.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    write_csv_to(&results_dir(), name, header, rows);
}

fn write_csv_to(dir: &Path, name: &str, header: &str, rows: &[String]) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = writeln!(f, "{header}");
        for r in rows {
            let _ = writeln!(f, "{r}");
        }
        eprintln!("[csv] wrote {}", path.display());
    }
}

/// Writes `value` (pretty-printed) as `<name>.json` under the results
/// directory, returning the path on success.
pub fn write_json(name: &str, value: &Value) -> Option<PathBuf> {
    write_json_to(&results_dir(), name, value)
}

fn write_json_to(dir: &Path, name: &str, value: &Value) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("{name}.json"));
    let mut payload = serde_json::to_string_pretty(value);
    payload.push('\n');
    std::fs::write(&path, payload).ok()?;
    eprintln!("[json] wrote {}", path.display());
    Some(path)
}

/// Renders a `BENCH_<suite>.json` document (the value produced by
/// `Sweep::to_json` and written by `Sweep::write_artifacts`) into
/// paper-style Markdown tables: one table per `(scenario, cluster,
/// traffic)` group, schedulers as rows, headline metrics as columns.
pub fn render_bench_markdown(doc: &Value) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let suite = doc.get("suite").and_then(Value::as_str).unwrap_or("?");
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .unwrap_or_default();
    writeln!(
        out,
        "Suite `{suite}` — {} runs × {run_seconds:.0} s of arrivals \
(regenerate: `cargo bench --bench {suite}`).",
        runs.len()
    )
    .expect("writing to String cannot fail");

    // Group runs by (scenario, cluster, traffic), preserving cell
    // order. Keys stay a tuple of fields — labels are user-settable, so
    // joining them on a delimiter would corrupt grouping for names
    // containing it.
    fn key_of(r: &Value) -> (&str, &str, &str) {
        let s = |k: &str| r.get(k).and_then(Value::as_str).unwrap_or("?");
        (s("scenario"), s("cluster"), s("traffic"))
    }
    let mut group_order: Vec<(&str, &str, &str)> = Vec::new();
    for r in runs {
        let k = key_of(r);
        if !group_order.contains(&k) {
            group_order.push(k);
        }
    }
    // Documents produced before the round-policy pipeline carry no
    // shed_rate key; rendering them must stay byte-identical (the CI
    // drift check regenerates EXPERIMENTS.md from committed artifacts).
    let with_shed = runs.iter().any(|r| r.get("shed_rate").is_some());
    // Likewise, transfer telemetry appears only in documents whose cells
    // ran with the contended GPU data plane.
    let with_transfers = runs.iter().any(|r| r.get("transfers_started").is_some());
    // ToR-pool telemetry exists only on server-topology clusters; a
    // locality sweep renders the column for every row of the document.
    let with_cross = runs
        .iter()
        .any(|r| r.get("transfer_cross_server_mb").is_some());
    for key in &group_order {
        let (scenario, cluster, traffic) = *key;
        writeln!(
            out,
            "\n**Scenario `{scenario}` · cluster `{cluster}` · traffic `{traffic}`**\n"
        )
        .expect("writing to String cannot fail");
        if with_shed {
            out.push_str(
                "| scheduler | seed | SLO hit % | shed % | cost/inv (¢) | cold-start % | \
locality % | mean overhead (ms) | vGPU util % |",
            );
        } else {
            out.push_str(
                "| scheduler | seed | SLO hit % | cost/inv (¢) | cold-start % | \
locality % | mean overhead (ms) | vGPU util % |",
            );
        }
        if with_transfers {
            out.push_str(" transfers | queued | replans | moved (MB) |");
            if with_cross {
                out.push_str(" cross-server (MB) |");
            }
        }
        out.push('\n');
        out.push_str(if with_shed {
            "|---|---:|---:|---:|---:|---:|---:|---:|---:|"
        } else {
            "|---|---:|---:|---:|---:|---:|---:|---:|"
        });
        if with_transfers {
            out.push_str("---:|---:|---:|---:|");
            if with_cross {
                out.push_str("---:|");
            }
        }
        out.push('\n');
        for r in runs.iter().filter(|r| key_of(r) == *key) {
            let s = |k: &str| r.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
            let f = |k: &str| r.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            let u = |k: &str| r.get(k).and_then(Value::as_u64).unwrap_or(0);
            let seed = r.get("seed").and_then(Value::as_u64).unwrap_or(0);
            let shed = if with_shed {
                format!(" {:.1} |", 100.0 * f("shed_rate"))
            } else {
                String::new()
            };
            let transfers = if with_transfers {
                let mut cols = format!(
                    " {} | {} | {} | {:.0} |",
                    u("transfers_started"),
                    u("transfers_queued"),
                    u("transfer_replans"),
                    f("transfer_total_mb"),
                );
                if with_cross {
                    cols.push_str(&format!(" {:.0} |", f("transfer_cross_server_mb")));
                }
                cols
            } else {
                String::new()
            };
            writeln!(
                out,
                "| {} | {} | {:.1} |{} {:.3} | {:.1} | {:.1} | {:.2} | {:.1} |{}",
                s("scheduler"),
                seed,
                100.0 * f("avg_hit_rate"),
                shed,
                f("cost_per_invocation_cents"),
                100.0 * f("cold_start_rate"),
                100.0 * f("locality_rate"),
                f("mean_overhead_ms"),
                100.0 * f("vgpu_utilisation"),
                transfers,
            )
            .expect("writing to String cannot fail");
        }
    }
    out
}

/// Renders a `BENCH_overhead.json` document (written by `cargo bench
/// --bench overhead`) into the "Scheduling overhead" Markdown tables:
/// cold-search vs warm-cache-hit medians per (pipeline width, GSLO
/// tightness), plus the fresh-alloc vs reused-scratch A* comparison.
pub fn render_overhead_markdown(doc: &Value) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let samples = doc.get("samples").and_then(Value::as_u64).unwrap_or(0);
    let cases = doc
        .get("cases")
        .and_then(Value::as_array)
        .unwrap_or_default();
    writeln!(
        out,
        "Suite `overhead` — per-dispatch planning latency, {samples} samples per case \
(regenerate: `cargo bench --bench overhead`). *Cold* runs the miss path \
as the scheduler runs it (memoised stage table + A\\* search); *warm* \
copies a memoised plan out of the plan cache. Medians, wall clock."
    )
    .expect("writing to String cannot fail");

    let field = |c: &Value, k: &str| c.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
    let median_us = |c: &Value| c.get("median_ns").and_then(Value::as_f64).unwrap_or(0.0) / 1_000.0;
    let find = |kind: &str, width: u64, slo: &str| {
        cases.iter().find(|c| {
            field(c, "kind") == kind
                && c.get("width").and_then(Value::as_u64) == Some(width)
                && field(c, "slo") == slo
        })
    };

    // Main table: cold vs warm per (width, tightness), in case order.
    let mut seen: Vec<(u64, String)> = Vec::new();
    for c in cases {
        if field(c, "kind") != "cold" {
            continue;
        }
        if let Some(w) = c.get("width").and_then(Value::as_u64) {
            let key = (w, field(c, "slo"));
            if !seen.contains(&key) {
                seen.push(key);
            }
        }
    }
    out.push_str(
        "\n| stages | GSLO tightness | cold search (µs) | warm hit (µs) | speedup (×) |\n\
|---:|---|---:|---:|---:|\n",
    );
    for (w, slo) in &seen {
        let (Some(cold), Some(warm)) = (find("cold", *w, slo), find("warm", *w, slo)) else {
            continue;
        };
        let (c_us, w_us) = (median_us(cold), median_us(warm));
        let speedup = if w_us > 0.0 { c_us / w_us } else { 0.0 };
        writeln!(
            out,
            "| {w} | {slo} | {c_us:.2} | {w_us:.3} | {speedup:.0} |"
        )
        .expect("writing to String cannot fail");
    }

    // Secondary table: the zero-alloc A* rework (fresh allocations per
    // call vs reused SearchScratch arena).
    let mut widths: Vec<u64> = cases
        .iter()
        .filter(|c| field(c, "kind") == "astar-alloc")
        .filter_map(|c| c.get("width").and_then(Value::as_u64))
        .collect();
    widths.dedup();
    if !widths.is_empty() {
        out.push_str(
            "\n| stages | fresh-alloc A\\* (µs) | reused-scratch A\\* (µs) | scratch gain (×) |\n\
|---:|---:|---:|---:|\n",
        );
        for w in widths {
            let (Some(alloc), Some(scratch)) = (
                find("astar-alloc", w, "medium"),
                find("astar-scratch", w, "medium"),
            ) else {
                continue;
            };
            let (a_us, s_us) = (median_us(alloc), median_us(scratch));
            let gain = if s_us > 0.0 { a_us / s_us } else { 0.0 };
            writeln!(out, "| {w} | {a_us:.2} | {s_us:.2} | {gain:.2} |")
                .expect("writing to String cannot fail");
        }
    }

    // Tertiary table: cluster visibility — per-decision snapshot rebuild
    // (the pre-round-API contract) vs the incremental touch-and-refresh
    // the platform now runs (zero allocations in steady state).
    let mut nodes: Vec<u64> = cases
        .iter()
        .filter(|c| field(c, "kind") == "view-snapshot")
        .filter_map(|c| c.get("width").and_then(Value::as_u64))
        .collect();
    nodes.dedup();
    if !nodes.is_empty() {
        out.push_str(
            "\n| nodes | snapshot rebuild (µs) | incremental refresh (µs) | removed cost (×) |\n\
|---:|---:|---:|---:|\n",
        );
        for n in nodes {
            let (Some(snap), Some(inc)) = (
                find("view-snapshot", n, "n/a"),
                find("view-incremental", n, "n/a"),
            ) else {
                continue;
            };
            let (s_us, i_us) = (median_us(snap), median_us(inc));
            let gain = if i_us > 0.0 { s_us / i_us } else { 0.0 };
            writeln!(out, "| {n} | {s_us:.2} | {i_us:.3} | {gain:.0} |")
                .expect("writing to String cannot fail");
        }
    }

    // Quaternary table: the round-driver ablation — the pre-policy
    // driver (no stack) vs the empty classic stack's fast path vs a
    // two-stage pass-through pipeline. Cases measure a batch of rounds
    // per iteration; medians are already per-batch, so only the ratios
    // matter (full overhead runs assert the empty stack within +25% of
    // the pre-policy driver).
    let mut round_qs: Vec<u64> = cases
        .iter()
        .filter(|c| field(c, "kind") == "round-classic")
        .filter_map(|c| c.get("width").and_then(Value::as_u64))
        .collect();
    round_qs.dedup();
    if !round_qs.is_empty() {
        out.push_str(
            "\n| queues | pre-policy driver (µs) | empty stack (µs) | staged stack (µs) | \
empty-stack overhead (%) |\n\
|---:|---:|---:|---:|---:|\n",
        );
        for q in round_qs {
            let (Some(classic), Some(empty), Some(staged)) = (
                find("round-classic", q, "n/a"),
                find("round-empty-stack", q, "n/a"),
                find("round-stack", q, "n/a"),
            ) else {
                continue;
            };
            let (c_us, e_us, s_us) = (median_us(classic), median_us(empty), median_us(staged));
            let overhead = if c_us > 0.0 {
                (e_us / c_us - 1.0) * 100.0
            } else {
                0.0
            };
            writeln!(
                out,
                "| {q} | {c_us:.2} | {e_us:.2} | {s_us:.2} | {overhead:+.1} |"
            )
            .expect("writing to String cannot fail");
        }
    }
    out
}

/// Renders a `BENCH_scale.json` document (written by `cargo bench
/// --bench scale`) into the "Control-plane scale" Markdown table: the
/// end-to-end streaming replay cases (`kind == "replay"`), with
/// per-invocation medians and the constant-memory high-water marks.
pub fn render_scale_markdown(doc: &Value) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "Suite `scale` — end-to-end streaming replay (regenerate: `cargo bench \
--bench scale`): Azure-shaped arrivals pulled lazily through the full \
platform (ESG scheduler, round driver, arena state, binary-heap event \
queue); medians are per invocation, and the arena/event-queue \
high-water marks pin the constant-memory property.\n\n\
| case | invocations | ns/invocation | invocations/sec | \
peak live invocations | peak pending events |\n\
|---|---:|---:|---:|---:|---:|\n",
    );
    let replays = doc
        .get("cases")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter(|c| c.get("kind").and_then(Value::as_str) == Some("replay"));
    for c in replays {
        let s = |k: &str| c.get(k).and_then(Value::as_str).unwrap_or("?");
        let u = |k: &str| c.get(k).and_then(Value::as_u64).unwrap_or(0);
        let f = |k: &str| c.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        writeln!(
            out,
            "| {} | {} | {:.0} | {:.0} | {} | {} |",
            s("case"),
            u("invocations"),
            f("median_ns"),
            f("invocations_per_sec"),
            u("peak_live_invocations"),
            u("peak_pending_events"),
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// The generated experiment report: `$ESG_EXPERIMENTS_MD` when set;
/// else `EXPERIMENTS.md` inside `$ESG_RESULTS_DIR` when that is set, so
/// a run whose artifacts go elsewhere leaves the workspace report in
/// step with the committed ones; else the workspace-level
/// `EXPERIMENTS.md`.
pub fn experiments_md_path() -> PathBuf {
    resolve_experiments_md(
        std::env::var_os("ESG_EXPERIMENTS_MD"),
        std::env::var_os("ESG_RESULTS_DIR"),
    )
}

/// [`experiments_md_path`] from the values of `$ESG_EXPERIMENTS_MD` and
/// `$ESG_RESULTS_DIR`.
fn resolve_experiments_md(
    explicit: Option<std::ffi::OsString>,
    results_dir: Option<std::ffi::OsString>,
) -> PathBuf {
    match (explicit, results_dir) {
        (Some(path), _) => PathBuf::from(path),
        (None, Some(dir)) => PathBuf::from(dir).join("EXPERIMENTS.md"),
        (None, None) => {
            Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join("EXPERIMENTS.md")
        }
    }
}

/// Splices `markdown` into the experiment report between
/// `<!-- BENCH:<suite>:begin -->` / `<!-- BENCH:<suite>:end -->` markers,
/// appending a new marked section when the suite has none yet. Best
/// effort; returns the path on success. A [`smoke`] run reports, not
/// records: it leaves the report untouched and returns `None`. The
/// report is [`experiments_md_path`], so a run with `$ESG_RESULTS_DIR`
/// set splices into the report beside its artifacts.
pub fn update_experiments_md(suite: &str, markdown: &str) -> Option<PathBuf> {
    if smoke() {
        eprintln!("[md] smoke mode: not updating EXPERIMENTS.md (section {suite})");
        return None;
    }
    update_experiments_md_at(&experiments_md_path(), suite, markdown)
}

fn update_experiments_md_at(path: &Path, suite: &str, markdown: &str) -> Option<PathBuf> {
    let begin = format!("<!-- BENCH:{suite}:begin -->");
    let end = format!("<!-- BENCH:{suite}:end -->");
    let body = format!("{begin}\n{}\n{end}", markdown.trim_end());
    let current = std::fs::read_to_string(path).unwrap_or_default();
    let next = match (current.find(&begin), current.find(&end)) {
        (Some(b), Some(e)) if e >= b => {
            format!("{}{}{}", &current[..b], body, &current[e + end.len()..])
        }
        (None, None) => {
            let mut s = current;
            if !s.is_empty() && !s.ends_with('\n') {
                s.push('\n');
            }
            format!("{s}\n## Suite `{suite}`\n\n{body}\n")
        }
        // One marker without the other (or out of order): splicing could
        // eat hand-written prose between a stale marker and a fresh one.
        // Refuse to touch the file rather than risk data loss.
        _ => {
            eprintln!(
                "[md] inconsistent BENCH:{suite} markers in {}; not updating",
                path.display()
            );
            return None;
        }
    };
    std::fs::write(path, next).ok()?;
    eprintln!("[md] updated {} (section {suite})", path.display());
    Some(path.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn json_and_csv_round_trip() {
        // The directory is passed explicitly — tests never touch the
        // process-global ESG_RESULTS_DIR (env mutation races with
        // concurrently running tests).
        let dir = std::env::temp_dir().join("esg_emit_test");
        let _ = std::fs::remove_dir_all(&dir);
        write_csv_to(&dir, "emit_test", "a,b", &["1,2".into()]);
        let p = write_json_to(&dir, "emit_test", &json!({"k": [1, 2]})).expect("writable");
        let content = std::fs::read_to_string(p).expect("written");
        assert!(content.contains("\"k\""));
        let csv = std::fs::read_to_string(dir.join("emit_test.csv")).expect("csv");
        assert_eq!(csv, "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn smoke_runs_default_their_artifacts_under_target() {
        let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let full = resolve_results_dir(None, false);
        let smoke = resolve_results_dir(None, true);
        assert_eq!(full, workspace.join("bench_results"));
        assert_eq!(smoke, workspace.join("target/bench_results_smoke"));
        // An explicit directory wins in both modes.
        for mode in [false, true] {
            let dir = resolve_results_dir(Some("/tmp/esg-fresh".into()), mode);
            assert_eq!(dir, Path::new("/tmp/esg-fresh"));
        }
    }

    #[test]
    fn the_report_follows_the_artifacts_unless_named() {
        let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(
            resolve_experiments_md(None, None),
            workspace.join("EXPERIMENTS.md")
        );
        assert_eq!(
            resolve_experiments_md(None, Some("/tmp/esg-fresh".into())),
            Path::new("/tmp/esg-fresh/EXPERIMENTS.md")
        );
        // An explicit report wins, with or without a results directory.
        for dir in [None, Some("/tmp/esg-fresh".into())] {
            let path = resolve_experiments_md(Some("/tmp/report.md".into()), dir);
            assert_eq!(path, Path::new("/tmp/report.md"));
        }
    }

    #[test]
    fn emission_into_unwritable_dir_is_a_no_op() {
        write_csv_to(Path::new("/proc/esg_no_such_dir"), "x", "a", &[]);
        assert!(write_json_to(Path::new("/proc/esg_no_such_dir"), "x", &json!(null)).is_none());
    }

    fn sample_doc() -> Value {
        json!({
            "suite": "demo",
            "run_seconds": 4.0,
            "cells": 2,
            "runs": [
                {
                    "scheduler": "ESG", "scenario": "strict-light",
                    "cluster": "paper-16xa100", "traffic": "steady", "seed": 42,
                    "avg_hit_rate": 0.93, "cost_per_invocation_cents": 0.412,
                    "cold_start_rate": 0.05, "locality_rate": 0.8,
                    "mean_overhead_ms": 1.25, "vgpu_utilisation": 0.4
                },
                {
                    "scheduler": "Orion", "scenario": "strict-light",
                    "cluster": "skewed+churn", "traffic": "bursty", "seed": 42,
                    "avg_hit_rate": 0.71, "cost_per_invocation_cents": 0.63,
                    "cold_start_rate": 0.2, "locality_rate": 0.4,
                    "mean_overhead_ms": 45.0, "vgpu_utilisation": 0.3
                }
            ]
        })
    }

    #[test]
    fn markdown_renders_one_table_per_group() {
        let md = render_bench_markdown(&sample_doc());
        assert!(md.contains("Suite `demo`"));
        assert!(md.contains("cluster `paper-16xa100` · traffic `steady`"));
        assert!(md.contains("cluster `skewed+churn` · traffic `bursty`"));
        assert!(md.contains("| ESG | 42 | 93.0 | 0.412 | 5.0 | 80.0 | 1.25 | 40.0 |"));
        assert!(md.contains("| Orion | 42 | 71.0 |"));
        assert_eq!(md.matches("| scheduler | seed |").count(), 2);
    }

    #[test]
    fn experiments_md_sections_append_then_replace() {
        let dir = std::env::temp_dir().join("esg_experiments_md_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("EXPERIMENTS.md");
        std::fs::write(&path, "# Report\n\nintro\n").expect("seed file");
        // First write appends a marked section.
        update_experiments_md_at(&path, "demo", "v1 rows").expect("writable");
        let one = std::fs::read_to_string(&path).expect("written");
        assert!(one.contains("intro"));
        assert!(one.contains("<!-- BENCH:demo:begin -->\nv1 rows\n<!-- BENCH:demo:end -->"));
        // Second write replaces in place without duplicating.
        update_experiments_md_at(&path, "demo", "v2 rows").expect("writable");
        let two = std::fs::read_to_string(&path).expect("written");
        assert!(two.contains("v2 rows"));
        assert!(!two.contains("v1 rows"));
        assert_eq!(two.matches("<!-- BENCH:demo:begin -->").count(), 1);
        // Other suites get their own section.
        update_experiments_md_at(&path, "other", "other rows").expect("writable");
        let three = std::fs::read_to_string(&path).expect("written");
        assert!(three.contains("## Suite `other`"));
        assert!(three.contains("v2 rows"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overhead_markdown_renders_pairs_and_speedups() {
        let doc = json!({
            "suite": "overhead",
            "samples": 30,
            "cases": [
                {"case": "overhead/cold/w3/tight", "kind": "cold", "width": 3,
                 "slo": "tight", "median_ns": 50_000.0, "mean_ns": 51_000.0,
                 "min_ns": 48_000.0, "samples": 30},
                {"case": "overhead/warm/w3/tight", "kind": "warm", "width": 3,
                 "slo": "tight", "median_ns": 500.0, "mean_ns": 510.0,
                 "min_ns": 480.0, "samples": 30},
                {"case": "overhead/astar-alloc/w3/medium", "kind": "astar-alloc",
                 "width": 3, "slo": "medium", "median_ns": 40_000.0,
                 "mean_ns": 40_000.0, "min_ns": 39_000.0, "samples": 30},
                {"case": "overhead/astar-scratch/w3/medium", "kind": "astar-scratch",
                 "width": 3, "slo": "medium", "median_ns": 20_000.0,
                 "mean_ns": 20_000.0, "min_ns": 19_000.0, "samples": 30},
                {"case": "overhead/view-snapshot/n16", "kind": "view-snapshot",
                 "width": 16, "slo": "n/a", "median_ns": 5_000.0,
                 "mean_ns": 5_000.0, "min_ns": 4_800.0, "samples": 30},
                {"case": "overhead/view-incremental/n16", "kind": "view-incremental",
                 "width": 16, "slo": "n/a", "median_ns": 250.0,
                 "mean_ns": 255.0, "min_ns": 240.0, "samples": 30}
            ]
        });
        let md = render_overhead_markdown(&doc);
        assert!(md.contains("30 samples per case"));
        // 50 µs cold vs 0.5 µs warm → 100× speedup.
        assert!(md.contains("| 3 | tight | 50.00 | 0.500 | 100 |"), "{md}");
        // 40 µs alloc vs 20 µs scratch → 2.00× gain.
        assert!(md.contains("| 3 | 40.00 | 20.00 | 2.00 |"), "{md}");
        // 5 µs snapshot vs 0.25 µs incremental → 20× removed cost.
        assert!(md.contains("| 16 | 5.00 | 0.250 | 20 |"), "{md}");
    }

    #[test]
    fn shed_column_renders_only_when_present() {
        // Pre-policy documents (committed hetero artifacts) carry no
        // shed_rate key: their rendering must stay byte-identical.
        let legacy = render_bench_markdown(&sample_doc());
        assert!(!legacy.contains("shed %"), "{legacy}");
        // A policy-sweep document gains the column.
        let doc = json!({
            "suite": "packing", "run_seconds": 4.0, "cells": 2,
            "runs": [
                {
                    "scheduler": "ESG+admit", "scenario": "moderate-normal",
                    "cluster": "paper-16xa100", "traffic": "bursty", "seed": 42,
                    "avg_hit_rate": 0.93, "shed_rate": 0.25,
                    "cost_per_invocation_cents": 0.412,
                    "cold_start_rate": 0.05, "locality_rate": 0.8,
                    "mean_overhead_ms": 1.25, "vgpu_utilisation": 0.4
                },
                {
                    "scheduler": "Orion", "scenario": "moderate-normal",
                    "cluster": "paper-16xa100", "traffic": "bursty", "seed": 42,
                    "avg_hit_rate": 0.71, "cost_per_invocation_cents": 0.63,
                    "cold_start_rate": 0.2, "locality_rate": 0.4,
                    "mean_overhead_ms": 45.0, "vgpu_utilisation": 0.3
                }
            ]
        });
        let md = render_bench_markdown(&doc);
        assert!(
            md.contains("| scheduler | seed | SLO hit % | shed % |"),
            "{md}"
        );
        assert!(
            md.contains("| ESG+admit | 42 | 93.0 | 25.0 | 0.412 |"),
            "{md}"
        );
        // A row without the key in a shed-aware doc renders 0.0.
        assert!(md.contains("| Orion | 42 | 71.0 | 0.0 |"), "{md}");
    }

    #[test]
    fn transfer_columns_render_only_when_present() {
        // Scalar-model documents carry no transfer keys: their rendering
        // must stay byte-identical to the pre-data-plane renderer.
        let legacy = render_bench_markdown(&sample_doc());
        assert!(!legacy.contains("transfers |"), "{legacy}");
        // A data-plane sweep document gains the trailing columns.
        let doc = json!({
            "suite": "transfer", "run_seconds": 4.0, "cells": 2,
            "runs": [
                {
                    "scheduler": "ESG+bw-pack", "scenario": "moderate-normal",
                    "cluster": "slow-fabric", "traffic": "bursty", "seed": 42,
                    "avg_hit_rate": 0.93, "shed_rate": 0.0,
                    "cost_per_invocation_cents": 0.412,
                    "cold_start_rate": 0.05, "locality_rate": 0.8,
                    "mean_overhead_ms": 1.25, "vgpu_utilisation": 0.4,
                    "transfers_started": 120, "transfers_queued": 7,
                    "transfer_replans": 31, "transfer_total_mb": 512.5
                },
                {
                    "scheduler": "ESG+pack", "scenario": "moderate-normal",
                    "cluster": "slow-fabric", "traffic": "bursty", "seed": 42,
                    "avg_hit_rate": 0.71, "cost_per_invocation_cents": 0.63,
                    "cold_start_rate": 0.2, "locality_rate": 0.4,
                    "mean_overhead_ms": 45.0, "vgpu_utilisation": 0.3
                }
            ]
        });
        let md = render_bench_markdown(&doc);
        assert!(
            md.contains("vGPU util % | transfers | queued | replans | moved (MB) |"),
            "{md}"
        );
        assert!(
            md.contains("| ESG+bw-pack | 42 | 93.0 | 0.0 | 0.412 | 5.0 | 80.0 | 1.25 | 40.0 | 120 | 7 | 31 | 512 |"),
            "{md}"
        );
        // A row without the keys in a transfer-aware doc renders zeros.
        assert!(md.contains("| ESG+pack | 42 | 71.0 | 0.0 | 0.630 | 20.0 | 40.0 | 45.00 | 30.0 | 0 | 0 | 0 | 0 |"), "{md}");
    }

    #[test]
    fn overhead_markdown_renders_round_driver_table() {
        let doc = json!({
            "suite": "overhead", "samples": 10,
            "cases": [
                {"case": "overhead/round-classic/q4", "kind": "round-classic",
                 "width": 4, "slo": "n/a", "median_ns": 2_000.0,
                 "mean_ns": 2_000.0, "min_ns": 1_900.0, "samples": 10},
                {"case": "overhead/round-empty-stack/q4", "kind": "round-empty-stack",
                 "width": 4, "slo": "n/a", "median_ns": 2_100.0,
                 "mean_ns": 2_100.0, "min_ns": 2_000.0, "samples": 10},
                {"case": "overhead/round-stack/q4", "kind": "round-stack",
                 "width": 4, "slo": "n/a", "median_ns": 16_000.0,
                 "mean_ns": 16_000.0, "min_ns": 15_000.0, "samples": 10}
            ]
        });
        let md = render_overhead_markdown(&doc);
        // 2.0 µs classic, 2.1 µs empty (+5.0%), 16 µs staged.
        assert!(md.contains("| queues | pre-policy driver"), "{md}");
        assert!(md.contains("| 4 | 2.00 | 2.10 | 16.00 | +5.0 |"), "{md}");
    }

    #[test]
    fn overhead_markdown_skips_unpaired_cases() {
        let doc = json!({
            "suite": "overhead", "samples": 5,
            "cases": [
                {"case": "overhead/cold/w2/loose", "kind": "cold", "width": 2,
                 "slo": "loose", "median_ns": 1000.0, "mean_ns": 1000.0,
                 "min_ns": 900.0, "samples": 5}
            ]
        });
        let md = render_overhead_markdown(&doc);
        assert!(
            !md.contains("| 2 | loose |"),
            "cold without warm must be dropped"
        );
    }

    #[test]
    fn delimiter_in_cluster_label_does_not_corrupt_grouping() {
        let doc = json!({
            "suite": "s", "run_seconds": 1.0, "cells": 1,
            "runs": [{
                "scheduler": "ESG", "scenario": "strict-light",
                "cluster": "a100|t4-mix", "traffic": "steady", "seed": 1,
                "avg_hit_rate": 1.0, "cost_per_invocation_cents": 0.1,
                "cold_start_rate": 0.0, "locality_rate": 0.5,
                "mean_overhead_ms": 0.5, "vgpu_utilisation": 0.2
            }]
        });
        let md = render_bench_markdown(&doc);
        assert!(md.contains("cluster `a100|t4-mix` · traffic `steady`"));
        assert_eq!(md.matches("| scheduler | seed |").count(), 1);
    }

    #[test]
    fn scale_markdown_renders_the_replay_table() {
        let doc = json!({
            "suite": "scale",
            "cases": [
                {"case": "scale/replay/heap", "kind": "replay", "invocations": 1_048_576,
                 "median_ns": 34_000.0, "invocations_per_sec": 29_412.0,
                 "peak_live_invocations": 642, "invocation_slots": 642,
                 "task_slots": 631, "peak_pending_events": 636},
                {"case": "scale/other", "kind": "other", "median_ns": 1.0}
            ]
        });
        let md = render_scale_markdown(&doc);
        assert!(md.contains("end-to-end streaming replay"), "{md}");
        assert!(
            md.contains("| scale/replay/heap | 1048576 | 34000 | 29412 | 642 | 636 |"),
            "{md}"
        );
        // Only replay cases render.
        assert!(!md.contains("scale/other"), "{md}");
    }

    #[test]
    fn inconsistent_markers_refuse_to_update() {
        let dir = std::env::temp_dir().join("esg_experiments_md_markers_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("EXPERIMENTS.md");
        // A begin marker whose end was lost to a manual edit: splicing
        // here could eat the prose after it, so the update must refuse.
        let damaged = "# Report\n\n<!-- BENCH:demo:begin -->\nold rows\n\nhand-written prose\n";
        std::fs::write(&path, damaged).expect("seed file");
        assert!(update_experiments_md_at(&path, "demo", "new rows").is_none());
        assert_eq!(std::fs::read_to_string(&path).expect("file"), damaged);
        // End before begin is equally malformed.
        let reversed = "<!-- BENCH:demo:end -->\nprose\n<!-- BENCH:demo:begin -->\n";
        std::fs::write(&path, reversed).expect("seed file");
        assert!(update_experiments_md_at(&path, "demo", "new rows").is_none());
        assert_eq!(std::fs::read_to_string(&path).expect("file"), reversed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
