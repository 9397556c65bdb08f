//! The replay scenario axis: record one reference run's event-sourced
//! trace, then re-drive the recorded arrival stream across schedulers
//! and compare dispatch-trace digests.
//!
//! Built on `esg-sim`'s trace subsystem: [`record_reference`] runs a
//! `(scheduler, scenario)` cell observed by a
//! [`TraceRecorder`] and loads the written document back as a
//! [`TraceReplay`]; [`replay_matrix`] fans the recorded load out over a
//! list of schedulers, observing each replay with a
//! [`TraceDigest`](esg_sim::TraceDigest) so every row carries the
//! canonical dispatch-trace digest. A replay under the recorded
//! scheduler must reproduce the recorded
//! digest bit for bit (`matches_recording`) — the `replay` bench target
//! asserts it, and `tests/trace_roundtrip.rs` pins it per commit.

use crate::{standard_config, workload_for, SchedKind};
use esg_model::Scenario;
use esg_sim::{ExperimentResult, SimEnv, TraceError, TraceRecorder, TraceReplay};
use serde_json::{json, Value};
use std::path::Path;

/// One replayed scheduler.
pub struct ReplayRun {
    /// Display name of the replayed scheduler.
    pub scheduler: &'static str,
    /// FNV digest of the replay's dispatch/churn/shed trace.
    pub digest: u64,
    /// Whether `digest` equals the recorded run's digest.
    pub matches_recording: bool,
    /// The replay's full metrics.
    pub result: ExperimentResult,
}

/// Records the reference run: `kind` on `scenario`'s workload
/// (`run_seconds` of arrivals at the shared [`SEED`](crate::SEED)) with
/// trace recording to `path`, then loads the written trace back as a
/// [`TraceReplay`]. Returns the recorded run's metrics alongside it.
pub fn record_reference(
    kind: SchedKind,
    scenario: Scenario,
    run_seconds: f64,
    path: &Path,
) -> Result<(ExperimentResult, TraceReplay), TraceError> {
    let cfg = standard_config();
    let mut recorder = TraceRecorder::new(path.to_path_buf());
    let env = SimEnv::standard(scenario.slo);
    let workload = workload_for(scenario, crate::SEED, run_seconds);
    let mut sched = kind.build();
    let result = esg_sim::run_simulation(
        &env,
        cfg,
        sched.as_mut(),
        &workload,
        &format!("record/{scenario}"),
        Some(&mut recorder),
    )
    .expect("a standard cell passes the run checks");
    recorder.finish()?;
    let replay = TraceReplay::load(path)?;
    Ok((result, replay))
}

/// Re-drives the recorded load under each of `kinds`, one
/// [`ReplayRun`] per scheduler in order. Every replay is observed by a
/// dispatch digest ([`TraceReplay::run_digest`]), so rows carry the
/// dispatch digest of their own run.
pub fn replay_matrix(replay: &TraceReplay, kinds: &[SchedKind]) -> Vec<ReplayRun> {
    let recorded = replay.trace().dispatch_digest();
    kinds
        .iter()
        .map(|&kind| {
            let (result, digest) = replay
                .run_digest(kind.build().as_mut(), &format!("replay/{}", kind.name()))
                .expect("a loaded trace passes the run checks");
            ReplayRun {
                scheduler: kind.name(),
                digest,
                matches_recording: digest == recorded,
                result,
            }
        })
        .collect()
}

/// Assembles the `BENCH_replay.json` document from a recorded reference
/// and its replay grid.
pub fn replay_doc(
    scenario: Scenario,
    replay: &TraceReplay,
    recorded: &ExperimentResult,
    rows: &[ReplayRun],
    smoke: bool,
) -> Value {
    let trace = replay.trace();
    let runs: Vec<Value> = rows
        .iter()
        .map(|r| {
            json!({
                "scheduler": (r.scheduler),
                "digest": (format!("{:016x}", r.digest)),
                "matches_recording": (r.matches_recording),
                "avg_hit_rate": (r.result.avg_hit_rate()),
                "shed_rate": (r.result.shed_rate()),
                "cost_per_invocation_cents": (r.result.cost_per_invocation_cents()),
                "dispatches": (r.result.dispatches),
                "shed_jobs": (r.result.shed_jobs),
            })
        })
        .collect();
    json!({
        "suite": "replay",
        "smoke": smoke,
        "scenario": (scenario.to_string()),
        "recorded": {
            "scheduler": (trace.scheduler.clone()),
            "seed": (trace.config.seed),
            "arrivals": (trace.arrivals.len()),
            "events": (trace.events.len()),
            "digest": (format!("{:016x}", trace.dispatch_digest())),
            "avg_hit_rate": (recorded.avg_hit_rate()),
        },
        "runs": (Value::Array(runs)),
    })
}

/// Renders a `BENCH_replay.json` document into the "Trace replay"
/// Markdown table: the recorded reference in the preamble, one row per
/// replayed scheduler with its digest and headline
/// metrics.
pub fn render_replay_markdown(doc: &Value) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let scenario = doc.get("scenario").and_then(Value::as_str).unwrap_or("?");
    let rec = doc.get("recorded");
    let rec_str = |k: &str| {
        rec.and_then(|r| r.get(k))
            .and_then(Value::as_str)
            .unwrap_or("?")
    };
    let rec_u64 = |k: &str| {
        rec.and_then(|r| r.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    writeln!(
        out,
        "Suite `replay` — a recorded `{scenario}` run under `{}` (seed {}, \
{} arrivals, {} control-plane events, dispatch digest `{}`) re-driven from \
its event-sourced trace across schedulers (regenerate: \
`cargo bench --bench replay`). *= recorded* marks a replay whose \
dispatch-trace digest reproduces the recording bit for bit.",
        rec_str("scheduler"),
        rec_u64("seed"),
        rec_u64("arrivals"),
        rec_u64("events"),
        rec_str("digest"),
    )
    .expect("writing to String cannot fail");
    out.push_str(
        "\n| scheduler | digest | = recorded | SLO hit % | shed % | \
cost/inv (¢) | dispatches |\n\
|---|---|:---:|---:|---:|---:|---:|\n",
    );
    for r in doc
        .get("runs")
        .and_then(Value::as_array)
        .unwrap_or_default()
    {
        let s = |k: &str| r.get(k).and_then(Value::as_str).unwrap_or("?");
        let f = |k: &str| r.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let u = |k: &str| r.get(k).and_then(Value::as_u64).unwrap_or(0);
        let matches = r
            .get("matches_recording")
            .and_then(|v| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            })
            .unwrap_or(false);
        writeln!(
            out,
            "| {} | `{}` | {} | {:.1} | {:.1} | {:.3} | {} |",
            s("scheduler"),
            s("digest"),
            if matches { "yes" } else { "no" },
            100.0 * f("avg_hit_rate"),
            100.0 * f("shed_rate"),
            f("cost_per_invocation_cents"),
            u("dispatches"),
        )
        .expect("writing to String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_model::Scenario;

    #[test]
    fn record_then_replay_same_scheduler_matches_digest() {
        let path =
            std::env::temp_dir().join(format!("esg-bench-replay-unit-{}.json", std::process::id()));
        let (recorded, replay) =
            record_reference(SchedKind::Infless, Scenario::MODERATE_NORMAL, 8.0, &path)
                .expect("reference records");
        let rows = replay_matrix(&replay, &[SchedKind::Infless, SchedKind::Orion]);
        assert_eq!(rows.len(), 2);
        let same = &rows[0];
        assert!(same.matches_recording, "same scheduler must reproduce");
        assert_eq!(same.result.arrivals, recorded.arrivals);
        let other = &rows[1];
        assert_eq!(
            other.result.arrivals, recorded.arrivals,
            "a different scheduler sees the same offered load"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn markdown_renders_recorded_preamble_and_rows() {
        let doc = json!({
            "suite": "replay", "smoke": false, "scenario": "strict-light",
            "recorded": {"scheduler": "ESG", "seed": 42, "arrivals": 240,
                         "events": 900, "digest": "00deadbeef00cafe",
                         "avg_hit_rate": 0.9},
            "runs": [
                {"scheduler": "ESG", "digest": "00deadbeef00cafe",
                 "matches_recording": true, "avg_hit_rate": 0.9,
                 "shed_rate": 0.0, "cost_per_invocation_cents": 0.4,
                 "dispatches": 200, "shed_jobs": 0},
                {"scheduler": "Orion", "digest": "0123456789abcdef",
                 "matches_recording": false, "avg_hit_rate": 0.7,
                 "shed_rate": 0.1, "cost_per_invocation_cents": 0.6,
                 "dispatches": 180, "shed_jobs": 5}
            ]
        });
        let md = render_replay_markdown(&doc);
        assert!(md.contains("dispatch digest `00deadbeef00cafe`"), "{md}");
        assert!(
            md.contains("| ESG | `00deadbeef00cafe` | yes | 90.0 | 0.0 | 0.400 | 200 |"),
            "{md}"
        );
        assert!(
            md.contains("| Orion | `0123456789abcdef` | no | 70.0 | 10.0 | 0.600 | 180 |"),
            "{md}"
        );
    }
}
