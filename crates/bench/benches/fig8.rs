//! Figure 8 — per-application SLO hit rates and cost for all five
//! schedulers in all three scenarios (12 panels). A thin declaration over
//! the sweep engine's paper grid.

use esg_bench::{section, Col, Csv, ExperimentSuite, ScenarioMatrix, SchedKind, Table};
use esg_model::Scenario;

#[rustfmt::skip]
const COLUMNS: [Col; 7] = [
    Col::csv_only("scenario", Csv::Plain),
    Col::csv_only("app", Csv::Plain),
    Col::show("scheduler", 12).left().csv("scheduler", Csv::Plain),
    Col::show("hit %", 9).pct(1).csv("hit_rate", Csv::Fixed(4)),
    Col::show("cost (¢)", 14).fixed(2).csv("cost_cents", Csv::Fixed(4)),
    Col::show("¢/invocation", 11).fixed(4).csv("cost_per_invocation_cents", Csv::Fixed(4)),
    Col::show("", 0),
];

fn main() {
    section("Figure 8: per-application SLO hit rate and cost");
    let sweep = ExperimentSuite::new("fig8", ScenarioMatrix::paper()).run();
    sweep.write_artifacts();

    let apps = esg_model::standard_apps();
    let mut table = Table::new(&COLUMNS);
    for scenario in Scenario::all() {
        for (ai, app) in apps.iter().enumerate() {
            table.group(format!("{scenario} / {}", app.name));
            let per_inv = |c: &esg_bench::SweepResult| {
                let m = &c.result.apps[ai];
                m.cost_cents / m.completed.max(1) as f64
            };
            let esg = sweep
                .find(SchedKind::Esg.name(), scenario)
                .expect("ESG cell");
            for cell in sweep.for_scenario(scenario) {
                let m = &cell.result.apps[ai];
                let vs_esg = format!("({:.2}x ESG)", per_inv(cell) / per_inv(esg));
                table.row([
                    scenario.to_string().into(),
                    app.name.into(),
                    cell.scheduler.as_str().into(),
                    m.hit_rate().into(),
                    m.cost_cents.into(),
                    per_inv(cell).into(),
                    vs_esg.into(),
                ]);
            }
        }
    }
    table.note(
        "paper shape: ESG has the highest per-app hit rate at lower cost in every\n\
         panel; INFless consumes the most resources.",
    );
    table.emit("fig8");
}
