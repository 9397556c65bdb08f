//! Figure 10 — ESG's scheduling-overhead distribution per scenario
//! (function group size 3): box statistics of the per-decision simulated
//! overhead, plus the real Rust wall time for honesty. A thin declaration
//! over the sweep engine (ESG × the three paper scenarios).

use esg_bench::{section, write_csv, ExperimentSuite, ScenarioMatrix, SchedKind};
use esg_model::{Scenario, SimTime};

/// Decisions charged at most this much are left out of the box.
const FILTER_MS: f64 = 0.25;

fn main() {
    section("Figure 10: ESG scheduling overhead distribution (group size 3)");
    let sweep = ExperimentSuite::new(
        "fig10",
        ScenarioMatrix::new()
            .schedulers([SchedKind::Esg])
            .scenarios(Scenario::all()),
    )
    .run();
    sweep.write_artifacts();

    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>12}",
        "setting", "min", "q1", "median", "q3", "max", "mean", "wall mean"
    );
    let mut csv = Vec::new();
    let mut left_out = Vec::new();
    for cell in &sweep.results {
        let r = &cell.result;
        // Every ESG decision runs (or replays from its plan cache) a
        // search and is charged 0.2 ms plus 0.43 µs per configuration
        // examined, so the FILTER_MS cut leaves out the decisions whose
        // searches examined at most 115 configurations. Many of those
        // cost exactly 0.200 ms: searches that examined at most one
        // configuration because none fit the remaining budget. In
        // strict-light that is most decisions; the count left out is
        // printed below the table.
        let b = r
            .overhead_ms
            .box_above(FILTER_MS)
            .expect("decisions recorded");
        let at_most: u64 = r
            .overhead_ms
            .entries()
            .iter()
            .filter(|&&(us, _)| SimTime::from_us(us).as_ms() <= FILTER_MS)
            .map(|&(_, n)| n)
            .sum();
        left_out.push(format!(
            "{}: {at_most} of {} decisions",
            cell.scenario,
            r.overhead_ms.len()
        ));
        let wall_mean = r.wall_overhead_ms.mean_ms();
        println!(
            "{:<18} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>9.3}ms",
            cell.scenario.to_string(),
            b.min,
            b.q1,
            b.median,
            b.q3,
            b.max,
            b.mean,
            wall_mean
        );
        csv.push(format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.5}",
            cell.scenario, b.min, b.q1, b.median, b.q3, b.max, b.mean, wall_mean
        ));
    }
    println!(
        "\nleft out at or below {FILTER_MS} ms: {}",
        left_out.join("; ")
    );
    println!(
        "\npaper shape: overhead below 10 ms in all settings and growing with SLO\n\
         relaxation (looser targets prune less). The 'wall mean' column is this\n\
         Rust implementation's true per-decision time."
    );
    write_csv(
        "fig10",
        "setting,min_ms,q1_ms,median_ms,q3_ms,max_ms,mean_ms,wall_mean_ms",
        &csv,
    );
}
