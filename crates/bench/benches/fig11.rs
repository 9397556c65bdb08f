//! Figure 11 — sensitivity to K (the configuration-priority-queue depth)
//! in the strict-light setting: search overhead, end-to-end latency, and
//! cost (normalized to K = 5). Declared as a sweep over `esg-k<K>`
//! scheduler variants.

use esg_bench::{section, Col, Csv, ExperimentSuite, ScenarioMatrix, SchedSpec, Table};
use esg_core::EsgScheduler;
use esg_model::Scenario;

const KS: [usize; 6] = [1, 5, 10, 20, 40, 80];

#[rustfmt::skip]
const COLUMNS: [Col; 5] = [
    Col::show("K", 6).left().csv("k", Csv::Plain),
    Col::show("overhead (ms)", 14).fixed(2).csv("mean_overhead_ms", Csv::Fixed(4)),
    Col::show("latency (ms)", 14).fixed(0).csv("mean_latency_ms", Csv::Fixed(2)),
    Col::show("hit %", 12).pct(1).csv("avg_hit_rate", Csv::Fixed(4)),
    Col::show("cost vs K=5", 14).fixed(3).csv("cost_vs_k5", Csv::Fixed(4)),
];

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

    let k5_cost = sweep.results[KS.iter().position(|&k| k == 5).expect("K=5 run")]
        .result
        .cost_per_invocation_cents();
    let mut table = Table::new(&COLUMNS);
    for (&k, cell) in KS.iter().zip(&sweep.results) {
        let r = &cell.result;
        // The decisions above the base cost (see fig10.rs).
        let ovh = r.overhead_ms.box_above(0.25).map_or(0.0, |b| b.mean);
        let lat = r.apps.iter().map(|a| a.mean_latency_ms()).sum::<f64>() / r.apps.len() as f64;
        let cost = r.cost_per_invocation_cents() / k5_cost;
        table.row([
            k.into(),
            ovh.into(),
            lat.into(),
            r.avg_hit_rate().into(),
            cost.into(),
        ]);
    }
    table.note(
        "paper shape: overhead grows mildly with K (3→8 ms from K=1 to K=80),\n\
         latency stays flat, cost decreases slightly. Default K = 5.",
    );
    table.emit("fig11");
}
