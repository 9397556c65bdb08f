//! §5.4 — the function group size `g`.
//!
//! "The default maximal group size is set to 3 because when the size
//! increases to 4, the search time jumps to 1201ms (for 256 configurations
//! per function) due to the exponential growth of the configuration
//! space." This target sweeps g ∈ {1,2,3,4,5} on the expanded image
//! classification pipeline (5 stages) and reports search effort and the
//! end-to-end quality of the resulting runs (the latter as a sweep over
//! `esg-g<g>` scheduler variants).

use esg_bench::{section, write_csv, ExperimentSuite, ScenarioMatrix, SchedSpec};
use esg_core::{astar_search, EsgScheduler, StageTable};
use esg_model::{standard_apps, standard_catalog, ConfigGrid, PriceModel, Scenario};
use esg_profile::ProfileTable;
use esg_sim::decision_time;
use std::time::Instant;

fn main() {
    section("§5.4: function group size sweep");
    // Isolated search cost on a single group of g stages at ~256 configs.
    let catalog = standard_catalog();
    let grid = ConfigGrid::with_total_configs(256);
    let profiles = ProfileTable::build(&catalog, &grid, &PriceModel::default());
    let app = &standard_apps()[3]; // 5 stages
    println!(
        "{:<4} {:>14} {:>16} {:>12}",
        "g", "expansions", "modelled (ms)", "wall (ms)"
    );
    let mut csv = Vec::new();
    for g in 1..=5usize {
        let stages: Vec<_> = app.nodes[..g].to_vec();
        let table = StageTable::build(&stages, &profiles, 8);
        let gslo = table.min_total_time() * 1.35;
        let t0 = Instant::now();
        let r = astar_search(&table, gslo, 5);
        let wall = t0.elapsed().as_secs_f64() * 1000.0;
        let modelled = decision_time(r.expansions).as_ms();
        println!(
            "{:<4} {:>14} {:>16.1} {:>12.3}",
            g, r.expansions, modelled, wall
        );
        csv.push(format!("{g},{},{modelled:.2},{wall:.4}", r.expansions));
    }
    println!("\npaper: g=3 by default; g=4 jumps to 1201 ms at 256 configs/function.");

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
    println!(
        "{:<4} {:>10} {:>16} {:>16}",
        "g", "hit %", "cost (¢/inv)", "mean ovh (ms)"
    );
    let mut csv2 = Vec::new();
    for (&g, cell) in gs.iter().zip(&sweep.results) {
        let r = &cell.result;
        // The decisions above the base cost (see fig10.rs).
        let ovh = r.overhead_ms.box_above(0.25).map_or(0.0, |b| b.mean);
        println!(
            "{:<4} {:>9.1}% {:>16.4} {:>16.2}",
            g,
            r.avg_hit_rate() * 100.0,
            r.cost_per_invocation_cents(),
            ovh
        );
        csv2.push(format!(
            "{g},{:.4},{:.6},{ovh:.4}",
            r.avg_hit_rate(),
            r.cost_per_invocation_cents()
        ));
    }
    write_csv(
        "sec5_4_groupsize_search",
        "g,expansions,modelled_ms,wall_ms",
        &csv,
    );
    write_csv(
        "sec5_4_groupsize_e2e",
        "g,avg_hit_rate,cost_per_invocation_cents,mean_overhead_ms",
        &csv2,
    );
}
