//! Quickstart: run ESG_1Q on the image-classification pipeline and read
//! the configuration priority queue it produces — the paper's Fig. 3
//! walk-through, on real profile data.
//!
//! Run with: `cargo run --release --example quickstart`
//! (`ESG_SMOKE=1` shrinks the end-to-end run for CI.)

use esg::core::{astar_search, brute_force, StageTable};
use esg::prelude::*;

fn main() -> Result<(), SimError> {
    let smoke = std::env::var("ESG_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");

    // The paper's standard platform. Knobs are plain `SimConfig` fields;
    // `run_simulation` checks them before the run starts, so a bad knob
    // or churn script comes back as a typed SimError, not as a panic
    // deep inside the event loop.
    let env = SimEnv::standard(SloClass::Moderate);
    let cfg = SimConfig {
        warmup_exclude_ms: if smoke { 1_000.0 } else { 15_000.0 }, // steady-state measurement
        ..SimConfig::default()
    };
    let app = &env.apps[0]; // super-resolution -> segmentation -> classification
    println!("application: {}", app.name);

    let l = env.base_latency_ms(AppId(0));
    let slo = env.slo_ms(AppId(0));
    println!("base latency L = {l:.0} ms, moderate SLO = {slo:.0} ms");

    // ESG_1Q over the three stages, batch unconstrained, K = 5.
    let table = StageTable::build(&app.nodes, &env.profiles, 8);
    let result = astar_search(&table, slo, 5);
    println!(
        "\nESG_1Q (A* + dual-blade pruning): {} expansions, feasible = {}",
        result.expansions, result.feasible
    );
    println!("configuration priority queue (cheapest first):");
    for (rank, path) in result.paths.iter().enumerate() {
        let cfgs: Vec<String> = path.configs.iter().map(|c| c.to_string()).collect();
        println!(
            "  #{rank}: {}  time {:.0} ms, {:.4} cents/job",
            cfgs.join(" -> "),
            path.time_ms,
            path.cost_cents
        );
    }

    // Cross-check the optimum against exhaustive search (the 5.3 oracle).
    let oracle = brute_force(&table, slo, 1);
    println!(
        "\nbrute force agrees: {:.4} cents/job over {} expansions ({}x more work)",
        oracle.paths[0].cost_cents,
        oracle.expansions,
        oracle.expansions / result.expansions.max(1)
    );
    assert!((oracle.paths[0].cost_cents - result.paths[0].cost_cents).abs() < 1e-9);

    // And run a small end-to-end simulation with the full scheduler.
    let n = if smoke { 150 } else { 1500 };
    let workload =
        WorkloadGen::new(WorkloadClass::Normal, esg::model::standard_app_ids(), 7).generate(n);
    let mut esg = EsgScheduler::new();
    let r = run_simulation(&env, cfg, &mut esg, &workload, "quickstart", None)?;
    println!(
        "\nend-to-end: {} invocations, SLO hit rate {:.1}%, cost {:.2} cents",
        r.total_completed(),
        r.avg_hit_rate() * 100.0,
        r.total_cost_cents()
    );
    Ok(())
}
