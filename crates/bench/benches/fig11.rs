//! Figure 11 — sensitivity to K (the configuration-priority-queue depth)
//! in the strict-light setting: search overhead, end-to-end latency, and
//! cost (normalized to K = 5). Declared as a sweep over `esg-k<K>`
//! scheduler variants.

use esg_bench::{section, write_csv, ExperimentSuite, ScenarioMatrix, SchedSpec};
use esg_core::EsgScheduler;
use esg_model::Scenario;

const KS: [usize; 6] = [1, 5, 10, 20, 40, 80];

fn main() {
    section("Figure 11: sensitivity to K (strict-light)");
    let sweep = ExperimentSuite::new(
        "fig11",
        ScenarioMatrix::new()
            .schedulers(KS.map(|k| {
                SchedSpec::new(format!("esg-k{k}"), move || {
                    Box::new(EsgScheduler::new().with_k(k))
                })
            }))
            .scenarios([Scenario::STRICT_LIGHT]),
    )
    .run();
    sweep.write_artifacts();

    println!(
        "{:<6} {:>14} {:>14} {:>12} {:>14}",
        "K", "overhead (ms)", "latency (ms)", "hit %", "cost vs K=5"
    );
    let rows: Vec<(usize, f64, f64, f64, f64)> = KS
        .iter()
        .zip(&sweep.results)
        .map(|(&k, cell)| {
            let r = &cell.result;
            // The decisions above the base cost (see fig10.rs).
            let ovh = r.overhead_ms.box_above(0.25).map_or(0.0, |b| b.mean);
            let lat = r.apps.iter().map(|a| a.mean_latency_ms()).sum::<f64>() / r.apps.len() as f64;
            (k, ovh, lat, r.avg_hit_rate(), r.cost_per_invocation_cents())
        })
        .collect();
    let k5_cost = rows
        .iter()
        .find(|(k, ..)| *k == 5)
        .map(|r| r.4)
        .expect("K=5 run");
    let mut csv = Vec::new();
    for (k, ovh, lat, hit, cost) in &rows {
        println!(
            "{:<6} {:>14.2} {:>14.0} {:>11.1}% {:>14.3}",
            k,
            ovh,
            lat,
            hit * 100.0,
            cost / k5_cost
        );
        csv.push(format!(
            "{k},{ovh:.4},{lat:.2},{hit:.4},{:.4}",
            cost / k5_cost
        ));
    }
    println!(
        "\npaper shape: overhead grows mildly with K (3→8 ms from K=1 to K=80),\n\
         latency stays flat, cost decreases slightly. Default K = 5."
    );
    write_csv(
        "fig11",
        "k,mean_overhead_ms,mean_latency_ms,avg_hit_rate,cost_vs_k5",
        &csv,
    );
}
