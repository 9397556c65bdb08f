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
    record_reference, render_replay_markdown, replay_doc, replay_matrix, smoke_section,
    update_experiments_md, write_json, Col, Csv, SchedKind, Table,
};
use esg_model::Scenario;

#[rustfmt::skip]
const COLUMNS: [Col; 9] = [
    Col::show("scheduler", 12).left().csv("scheduler", Csv::Plain),
    Col::show("digest", 17).csv("digest", Csv::Plain),
    Col::show("=recorded", 10),
    Col::csv_only("matches_recording", Csv::Plain),
    Col::show("hit %", 10).pct(1).csv("avg_hit_rate", Csv::Fixed(4)),
    Col::show("shed %", 8).pct(1).csv("shed_rate", Csv::Fixed(4)),
    Col::csv_only("cost_per_invocation_cents", Csv::Fixed(4)),
    Col::show("dispatches", 11).csv("dispatches", Csv::Plain),
    Col::csv_only("shed_jobs", Csv::Plain),
];

fn main() {
    let smoke = smoke_section("Trace replay: recorded sweep × schedulers");
    let run_seconds = if smoke { 40.0 } else { esg_bench::RUN_SECONDS };

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
    let mut table = Table::new(&COLUMNS);
    for r in &rows {
        let m = &r.result;
        let matches = r.matches_recording;
        table.row([
            r.scheduler.into(),
            format!("{:016x}", r.digest).into(),
            (if matches { "yes" } else { "no" }).into(),
            matches.into(),
            m.avg_hit_rate().into(),
            m.shed_rate().into(),
            m.cost_per_invocation_cents().into(),
            m.dispatches.into(),
            m.shed_jobs.into(),
        ]);
    }
    println!();
    table.emit("BENCH_replay");
    update_experiments_md("replay", &render_replay_markdown(&doc));
    std::fs::remove_file(&path).ok();
}
