//! Figure 6 — average SLO hit rate and normalized cost for the five
//! schedulers under the three SLO/workload settings. A thin declaration
//! over the sweep engine: the paper grid, printed per scenario.

use esg_bench::{section, Col, Csv, ExperimentSuite, ScenarioMatrix, SchedKind, Table};
use esg_model::Scenario;

#[rustfmt::skip]
const COLUMNS: [Col; 5] = [
    Col::csv_only("scenario", Csv::Plain),
    Col::show("scheduler", 12).left().csv("scheduler", Csv::Plain),
    Col::show("SLO hit %", 10).pct(1).csv("avg_hit_rate", Csv::Fixed(4)),
    Col::show("cost (¢/inv)", 14).fixed(4).csv("cost_per_invocation_cents", Csv::Fixed(6)),
    Col::show("cost vs ESG", 16).fixed(2).suffix("x").csv("cost_vs_esg", Csv::Fixed(4)),
];

fn main() {
    section("Figure 6: average SLO hit rate and normalized cost (ESG = 1)");
    let sweep = ExperimentSuite::new("fig6", ScenarioMatrix::paper()).run();
    sweep.write_artifacts();

    let mut table = Table::new(&COLUMNS);
    for scenario in Scenario::all() {
        table.group(scenario);
        let esg_cost = sweep
            .find(SchedKind::Esg.name(), scenario)
            .map(|c| c.result.cost_per_invocation_cents())
            .expect("ESG cell present");
        for cell in sweep.for_scenario(scenario) {
            let r = &cell.result;
            let cost = r.cost_per_invocation_cents();
            table.row([
                scenario.to_string().into(),
                cell.scheduler.as_str().into(),
                r.avg_hit_rate().into(),
                cost.into(),
                (cost / esg_cost).into(),
            ]);
        }
    }
    table.note(
        "paper shape: ESG highest hit rate in every scenario at the lowest cost;\n\
         INFless/FaST-GShare trail by 36-61% in strict-light; Orion and Aquatope\n\
         lose 46-80%; baseline costs run 1.47-2.87x ESG.",
    );
    table.emit("fig6");
}
