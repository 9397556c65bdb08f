//! Figure 7 — end-to-end latency of each application in the relaxed-heavy
//! setting, per scheduler (the paper plots the full series over finished
//! jobs; we print summary percentiles and dump the series as CSV). A thin
//! declaration over the sweep engine.

use esg_bench::{section, write_csv, Col, ExperimentSuite, ScenarioMatrix, SchedKind, Table};
use esg_model::Scenario;

#[rustfmt::skip]
const COLUMNS: [Col; 7] = [
    Col::show("scheduler", 12).left(),
    Col::show("SLO(ms)", 9).fixed(0),
    Col::show("p25", 9).fixed(0),
    Col::show("p50", 9).fixed(0),
    Col::show("p75", 9).fixed(0),
    Col::show("p95", 9).fixed(0),
    Col::show("hit %", 8).pct(1),
];

fn main() {
    section("Figure 7: end-to-end latency per application (relaxed-heavy)");
    let sweep = ExperimentSuite::new(
        "fig7",
        ScenarioMatrix::new()
            .schedulers(SchedKind::all())
            .scenarios([Scenario::RELAXED_HEAVY]),
    )
    .run();
    sweep.write_artifacts();

    let mut table = Table::new(&COLUMNS);
    let mut csv = Vec::new();
    let apps = esg_model::standard_apps();
    for (ai, app) in apps.iter().enumerate() {
        table.group(app.name);
        for cell in &sweep.results {
            let m = &cell.result.apps[ai];
            let p = |q: f64| m.latency_percentile(q).unwrap_or(0.0);
            table.row([
                cell.scheduler.as_str().into(),
                m.slo_ms.into(),
                p(25.0).into(),
                p(50.0).into(),
                p(75.0).into(),
                p(95.0).into(),
                m.hit_rate().into(),
            ]);
            for (j, lat) in m.latencies_ms.iter().enumerate() {
                csv.push(format!("{},{},{j},{lat:.2}", app.name, cell.scheduler));
            }
        }
    }
    table.note(
        "paper shape: ESG sits below-but-close to each SLO line; FaST-GShare and\n\
         INFless run the largest latencies on the expanded pipeline; cold-start\n\
         strikes appear as spikes in the series CSV.",
    );
    table.print();
    write_csv("fig7", "app,scheduler,finished_job,latency_ms", &csv);
}
