//! Trace-replay sweep: record one reference run's event-sourced trace,
//! then re-drive the recorded arrival stream across schedulers and
//! compare dispatch-trace digests.
//!
//! The reference run is ESG on `strict-light` at the shared seed,
//! recorded by a [`TraceRecorder`](esg_sim::TraceRecorder) to a scratch
//! file; the sweep replays that exact offered load under three
//! schedulers. Two invariants are asserted every run:
//!
//! * replaying the recorded scheduler reproduces the recorded
//!   dispatch digest bit for bit (the
//!   round-trip fidelity the trace format exists for), and
//! * every replay sees exactly the recorded arrival count (the offered
//!   load is scheduler-independent).
//!
//! Results land in `BENCH_replay.json` / `BENCH_replay.csv` and the
//! "Trace replay" table of `EXPERIMENTS.md`
//! (`<!-- BENCH:replay:begin/end -->`). `ESG_SMOKE=1` shortens the
//! recorded run and skips the report update; the code paths are the
//! real ones.

use esg_bench::{
    record_reference, render_replay_markdown, replay_doc, replay_matrix, section,
    update_experiments_md, write_csv, write_json, SchedKind,
};
use esg_model::Scenario;

fn main() {
    let smoke = esg_bench::smoke();
    let run_seconds = if smoke { 40.0 } else { esg_bench::RUN_SECONDS };
    section(if smoke {
        "Trace replay: recorded sweep × schedulers (smoke mode)"
    } else {
        "Trace replay: recorded sweep × schedulers"
    });

    let scenario = Scenario::STRICT_LIGHT;
    let path = std::env::temp_dir().join(format!("esg-replay-bench-{}.json", std::process::id()));
    let (recorded, replay) = record_reference(SchedKind::Esg, scenario, run_seconds, &path)
        .expect("reference run records a loadable trace");
    let trace = replay.trace();
    println!(
        "recorded {scenario} under {}: {} arrivals, {} events, digest {:016x}",
        trace.scheduler,
        trace.arrivals.len(),
        trace.events.len(),
        trace.dispatch_digest(),
    );

    let kinds = [SchedKind::Esg, SchedKind::Orion, SchedKind::FastGShare];
    let rows = replay_matrix(&replay, &kinds);

    println!(
        "\n{:<12}  {:>16}  {:>9}  {:>9}  {:>7}  {:>10}",
        "scheduler", "digest", "=recorded", "hit %", "shed %", "dispatches"
    );
    for r in &rows {
        println!(
            "{:<12}  {:>16}  {:>9}  {:>8.1}%  {:>6.1}%  {:>10}",
            r.scheduler,
            format!("{:016x}", r.digest),
            if r.matches_recording { "yes" } else { "no" },
            r.result.avg_hit_rate() * 100.0,
            r.result.shed_rate() * 100.0,
            r.result.dispatches,
        );
    }

    // Round-trip fidelity: the recorded scheduler must reproduce the
    // recording exactly.
    let same = rows
        .iter()
        .find(|r| r.scheduler == SchedKind::Esg.name())
        .expect("the recorded scheduler is replayed");
    assert!(
        same.matches_recording,
        "replaying {} did not reproduce the recorded digest ({:016x} vs {:016x})",
        same.scheduler,
        same.digest,
        trace.dispatch_digest(),
    );
    // The offered load is scheduler-independent.
    for r in &rows {
        assert_eq!(
            r.result.arrivals, recorded.arrivals,
            "{} saw a different offered load",
            r.scheduler
        );
    }

    let doc = replay_doc(scenario, &replay, &recorded, &rows, smoke);
    write_json("BENCH_replay", &doc);
    let csv_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{},{:016x},{},{:.4},{:.4},{:.4},{},{}",
                r.scheduler,
                r.digest,
                r.matches_recording,
                r.result.avg_hit_rate(),
                r.result.shed_rate(),
                r.result.cost_per_invocation_cents(),
                r.result.dispatches,
                r.result.shed_jobs,
            )
        })
        .collect();
    write_csv(
        "BENCH_replay",
        "scheduler,digest,matches_recording,avg_hit_rate,shed_rate,\
cost_per_invocation_cents,dispatches,shed_jobs",
        &csv_rows,
    );
    update_experiments_md("replay", &render_replay_markdown(&doc));
    std::fs::remove_file(&path).ok();
}
