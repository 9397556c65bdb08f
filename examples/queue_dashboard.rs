//! Live queue dashboard: periodic per-queue latency/backlog/shed
//! snapshots collected by a `QueueHealthMonitor` passed to the run as its
//! observer, rendered as a text dashboard and a CSV under
//! `bench_results/` (`target/bench_results_smoke/` in smoke mode, unless
//! `ESG_RESULTS_DIR` names another directory).
//!
//! Run with: `cargo run --release --example queue_dashboard [seconds]`
//! (`ESG_SMOKE=1` defaults to a 20-second run for CI.)

use esg::prelude::*;
use esg_bench::{dashboard_csv_header, dashboard_csv_rows, render_dashboard_text, write_csv};

fn main() -> Result<(), SimError> {
    let smoke = std::env::var("ESG_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let seconds: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 20.0 } else { 60.0 });
    let scenario = Scenario::MODERATE_NORMAL;
    let workload = WorkloadGen::new(scenario.workload, esg::model::standard_app_ids(), 42)
        .generate_for(seconds * 1000.0);
    println!(
        "{} invocations over {seconds:.0} s of {scenario} arrivals",
        workload.len()
    );

    let env = SimEnv::standard(scenario.slo);
    // Snapshot every 10 simulated seconds.
    let mut monitor = QueueHealthMonitor::new(10_000.0);
    let result = run_simulation(
        &env,
        SimConfig::default(),
        &mut EsgScheduler::new(),
        &workload,
        "dashboard",
        Some(&mut monitor),
    )?;
    let snapshots = monitor.finish(result.makespan_ms);

    // Terminal view: the full series in smoke mode is noisy, so print
    // the first and last snapshots — the CSV has every one.
    let shown: Vec<HealthSnapshot> = match snapshots.as_slice() {
        [first, .., last] if snapshots.len() > 2 => vec![first.clone(), last.clone()],
        other => other.to_vec(),
    };
    println!("\n{}", render_dashboard_text(&shown));
    println!(
        "({} snapshots total; hit rate {:.1}%, {} dispatches, {} shed)",
        snapshots.len(),
        result.avg_hit_rate() * 100.0,
        result.dispatches,
        result.shed_jobs,
    );
    write_csv(
        "DASHBOARD_queue_health",
        &dashboard_csv_header(),
        &dashboard_csv_rows(&snapshots),
    );
    Ok(())
}
