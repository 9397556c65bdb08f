//! Table 4 — pre-planned scheduling miss rate.
//!
//! "the percentage of times when the configurations fail to apply to a
//! function because the batch size in the configuration is even greater
//! than the number of jobs in the queue of that function when it is time
//! to be scheduled" — for Orion (best-first search) and Aquatope (BO),
//! across the three scenarios. ESG adapts and never pre-plans a missable
//! batch, which the harness verifies. Declared as one sweep over the
//! three schedulers × three paper scenarios.

use esg_bench::{section, Col, Csv, ExperimentSuite, ScenarioMatrix, SchedKind, Table};
use esg_model::Scenario;

#[rustfmt::skip]
const COLUMNS: [Col; 4] = [
    Col::show("setting", 18).left().csv("setting", Csv::Plain),
    Col::show("best-first (Orion)", 22).pct(2).csv("orion_miss", Csv::Fixed(4)),
    Col::show("BO (Aquatope)", 18).pct(2).csv("aquatope_miss", Csv::Fixed(4)),
    Col::show("ESG", 10).pct(2).csv("esg_miss", Csv::Fixed(4)),
];

fn main() {
    section("Table 4: pre-planned scheduling miss rate");
    let sweep = ExperimentSuite::new(
        "table4",
        ScenarioMatrix::new()
            .schedulers([SchedKind::Orion, SchedKind::Aquatope, SchedKind::Esg])
            .scenarios(Scenario::all()),
    )
    .run();
    sweep.write_artifacts();

    let mut table = Table::new(&COLUMNS);
    for scenario in Scenario::all() {
        let cell = |kind: SchedKind| {
            &sweep
                .find(kind.name(), scenario)
                .expect("matrix fully populated")
                .result
        };
        let esg = cell(SchedKind::Esg);
        assert_eq!(
            esg.config_misses, 0,
            "ESG adapts its batch to the live queue and must never miss"
        );
        let miss = |kind| cell(kind).config_miss_rate();
        table.row([
            scenario.to_string().into(),
            miss(SchedKind::Orion).into(),
            miss(SchedKind::Aquatope).into(),
            esg.config_miss_rate().into(),
        ]);
    }
    table.note("paper: Orion 9.6% / 27.32% / 51.68%; Aquatope 85.5% / 59.85% / 58.72%");
    table.emit("table4");
}
