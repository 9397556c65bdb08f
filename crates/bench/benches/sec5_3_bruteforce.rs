//! §5.3 — scheduling overhead versus brute force.
//!
//! "In the case where each function has 256 configurations, the search
//! time is 7258ms" for brute force, versus under 10 ms for ESG. The
//! modelled time converts expansions at the calibrated §5.3 rate; the wall
//! column is this Rust implementation's real time.

use esg_bench::{section, Col, Csv, Table};
use esg_core::{astar_search, brute_force, stagewise_search, StageTable};
use esg_model::{standard_apps, standard_catalog, ConfigGrid, PriceModel};
use esg_profile::ProfileTable;
use esg_sim::decision_time;
use std::time::Instant;

#[rustfmt::skip]
const COLUMNS: [Col; 5] = [
    Col::show("search", 22).left().csv("search", Csv::Plain),
    Col::show("expansions", 14).csv("expansions", Csv::Plain),
    Col::show("modelled (ms)", 14).fixed(1).csv("modelled_ms", Csv::Fixed(2)),
    Col::show("wall (ms)", 12).fixed(3).csv("wall_ms", Csv::Fixed(4)),
    Col::show("best cost (¢)", 14).fixed(5).csv("best_cost_cents", Csv::Fixed(6)),
];

fn main() {
    section("§5.3: ESG search vs brute force at ~256 configurations/function");
    let catalog = standard_catalog();
    let grid = ConfigGrid::with_total_configs(256);
    println!("grid: {} configurations per function", grid.len());
    let profiles = ProfileTable::build(&catalog, &grid, &PriceModel::default());
    // A three-stage group (the default g=3) from image classification.
    let app = &standard_apps()[0];
    let stages = app.nodes.clone();
    let table = StageTable::build(&stages, &profiles, 8);
    let gslo = table.min_total_time() * 1.35; // a moderate target

    let mut out = Table::new(&COLUMNS);
    let mut run = |name: &str, f: &dyn Fn() -> esg_core::SearchResult| {
        let t0 = Instant::now();
        let r = f();
        let wall = t0.elapsed().as_secs_f64() * 1000.0;
        let modelled = decision_time(r.expansions).as_ms();
        out.row([
            name.into(),
            r.expansions.into(),
            modelled.into(),
            wall.into(),
            r.paths[0].cost_cents.into(),
        ]);
        r
    };

    let astar = run("ESG_1Q (A*)", &|| astar_search(&table, gslo, 5));
    let sw = run("ESG_1Q (stage-wise)", &|| stagewise_search(&table, gslo, 5));
    let brute = run("brute force", &|| brute_force(&table, gslo, 5));
    assert!(
        (astar.paths[0].cost_cents - brute.paths[0].cost_cents).abs() < 1e-9,
        "pruning must not change the optimum"
    );
    assert!(
        (sw.paths[0].cost_cents - brute.paths[0].cost_cents).abs() < 1e-9,
        "pruning must not change the optimum"
    );
    out.note(
        "paper: brute force ≈ 7258 ms at 256 configs/function; ESG < 10 ms.\n\
         Both pruned searches return the brute-force optimum (asserted).",
    );
    out.emit("sec5_3_bruteforce");
}
