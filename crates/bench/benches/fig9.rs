//! Figure 9 — the effect of Orion's search time on its SLO hit rate
//! (strict-light): the same cut-off sweep with the search time charged to
//! the affected jobs ("Orion") and not charged ("Orion w/o searching
//! overhead"). Declared as two suites over the same cut-off scheduler
//! axis, differing only in the platform's `charge_overhead` flag.

use esg_baselines::OrionScheduler;
use esg_bench::{
    section, standard_config, Col, Csv, ExperimentSuite, ScenarioMatrix, SchedSpec, Sweep, Table,
};
use esg_model::Scenario;
use esg_sim::SimConfig;

const CUTOFFS_MS: [f64; 7] = [1.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 2000.0];

#[rustfmt::skip]
const COLUMNS: [Col; 3] = [
    Col::show("cutoff (ms)", 14).left().csv("cutoff_ms", Csv::Plain),
    Col::show("Orion hit %", 18).pct(1).csv("hit_rate_charged", Csv::Fixed(4)),
    Col::show("w/o overhead hit %", 24).pct(1).csv("hit_rate_uncharged", Csv::Fixed(4)),
];

fn cutoff_matrix() -> ScenarioMatrix {
    ScenarioMatrix::new()
        .schedulers(CUTOFFS_MS.map(|cutoff| {
            SchedSpec::new(format!("orion@{cutoff}ms"), move || {
                Box::new(OrionScheduler::new(cutoff))
            })
        }))
        .scenarios([Scenario::STRICT_LIGHT])
}

fn main() {
    section("Figure 9: Orion search time vs SLO hit rate (strict-light)");
    let charged = ExperimentSuite::new("fig9_charged", cutoff_matrix()).run();
    let free = ExperimentSuite::new("fig9_uncharged", cutoff_matrix())
        .with_sim_config(SimConfig {
            charge_overhead: false,
            ..standard_config()
        })
        .run();
    charged.write_artifacts();
    free.write_artifacts();

    let mut table = Table::new(&COLUMNS);
    for (i, &cutoff) in CUTOFFS_MS.iter().enumerate() {
        let hit = |sweep: &Sweep| sweep.results[i].result.avg_hit_rate();
        table.row([cutoff.into(), hit(&charged).into(), hit(&free).into()]);
    }
    table.note(
        "paper shape: without overhead the hit rate rises with the cut-off and\n\
         plateaus (~16%); with overhead counted it collapses as the cut-off grows.",
    );
    table.emit("fig9");
}
