//! §5.4 — the function group size `g`.
//!
//! "The default maximal group size is set to 3 because when the size
//! increases to 4, the search time jumps to 1201ms (for 256 configurations
//! per function) due to the exponential growth of the configuration
//! space." This target sweeps g ∈ {1,2,3,4,5} on the expanded image
//! classification pipeline (5 stages) and reports search effort and the
//! end-to-end quality of the resulting runs (the latter as a sweep over
//! `esg-g<g>` scheduler variants).

use esg_bench::{section, Col, Csv, ExperimentSuite, ScenarioMatrix, SchedSpec, Table};
use esg_core::{astar_search, EsgScheduler, StageTable};
use esg_model::{standard_apps, standard_catalog, ConfigGrid, PriceModel, Scenario};
use esg_profile::ProfileTable;
use esg_sim::decision_time;
use std::time::Instant;

#[rustfmt::skip]
const SEARCH: [Col; 4] = [
    Col::show("g", 4).left().csv("g", Csv::Plain),
    Col::show("expansions", 14).csv("expansions", Csv::Plain),
    Col::show("modelled (ms)", 16).fixed(1).csv("modelled_ms", Csv::Fixed(2)),
    Col::show("wall (ms)", 12).fixed(3).csv("wall_ms", Csv::Fixed(4)),
];

#[rustfmt::skip]
const E2E: [Col; 4] = [
    Col::show("g", 4).left().csv("g", Csv::Plain),
    Col::show("hit %", 10).pct(1).csv("avg_hit_rate", Csv::Fixed(4)),
    Col::show("cost (¢/inv)", 16).fixed(4).csv("cost_per_invocation_cents", Csv::Fixed(6)),
    Col::show("mean ovh (ms)", 16).fixed(2).csv("mean_overhead_ms", Csv::Fixed(4)),
];

fn main() {
    section("§5.4: function group size sweep");
    // Isolated search cost on a single group of g stages at ~256 configs.
    let catalog = standard_catalog();
    let grid = ConfigGrid::with_total_configs(256);
    let profiles = ProfileTable::build(&catalog, &grid, &PriceModel::default());
    let app = &standard_apps()[3]; // 5 stages
    let mut search = Table::new(&SEARCH);
    for g in 1..=5usize {
        let stages: Vec<_> = app.nodes[..g].to_vec();
        let table = StageTable::build(&stages, &profiles, 8);
        let gslo = table.min_total_time() * 1.35;
        let t0 = Instant::now();
        let r = astar_search(&table, gslo, 5);
        let wall = t0.elapsed().as_secs_f64() * 1000.0;
        let modelled = decision_time(r.expansions).as_ms();
        search.row([g.into(), r.expansions.into(), modelled.into(), wall.into()]);
    }
    search.note("paper: g=3 by default; g=4 jumps to 1201 ms at 256 configs/function.");
    search.emit("sec5_4_groupsize_search");

    // End-to-end effect of the group size (moderate-normal).
    let gs: [usize; 4] = [1, 2, 3, 4];
    let sweep = ExperimentSuite::new(
        "sec5_4_groupsize",
        ScenarioMatrix::new()
            .schedulers(gs.map(|g| {
                SchedSpec::new(format!("esg-g{g}"), move || {
                    Box::new(EsgScheduler::new().with_group_size(g))
                })
            }))
            .scenarios([Scenario::MODERATE_NORMAL]),
    )
    .run();
    sweep.write_artifacts();

    println!();
    let mut e2e = Table::new(&E2E);
    for (&g, cell) in gs.iter().zip(&sweep.results) {
        let r = &cell.result;
        // The decisions above the base cost (see fig10.rs).
        let ovh = r.overhead_ms.box_above(0.25).map_or(0.0, |b| b.mean);
        e2e.row([
            g.into(),
            r.avg_hit_rate().into(),
            r.cost_per_invocation_cents().into(),
            ovh.into(),
        ]);
    }
    e2e.emit("sec5_4_groupsize_e2e");
}
