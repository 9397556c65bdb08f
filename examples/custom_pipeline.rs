//! Custom DAG application: a diamond workflow (split/join) showing the
//! dominator-based SLO distribution (paper 3.3, Fig. 4) and the simulator
//! handling parallel branches.
//!
//! Run with: `cargo run --release --example custom_pipeline`
//! (`ESG_SMOKE=1` shrinks the run for CI.)

use esg::dag::{average_normalized_length, Dag, DominatorTree, Hierarchy, SloPlan};
use esg::model::catalog::functions as f;
use esg::prelude::*;

fn main() -> Result<(), SimError> {
    let smoke = std::env::var("ESG_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");

    // deblur -> {super-resolution, segmentation} -> classification
    let app = AppSpec::dag(
        "diamond_classification",
        vec![
            f::DEBLUR,
            f::SUPER_RESOLUTION,
            f::SEGMENTATION,
            f::CLASSIFICATION,
        ],
        vec![(0, 1), (0, 2), (1, 3), (2, 3)],
    );
    let dag = Dag::from_app(&app).expect("valid DAG");

    // Dominator tree (the backbone of the SLO distribution).
    let domtree = DominatorTree::build(&dag);
    println!("dominator tree:");
    for v in 0..dag.len() {
        println!(
            "  node {v} ({}) idom = {:?}",
            ["deblur", "super_res", "segmentation", "classification"][v],
            domtree.idom(v)
        );
    }

    // Hierarchical reduction: the DAG collapses to chain-parallel-chain.
    let h = Hierarchy::build(&dag).expect("hierarchically reducible");
    println!(
        "\nreduced hierarchy: {} top-level items, nesting depth {}",
        h.items.len(),
        h.nesting_depth()
    );

    // The standard environment with the custom app as its only one.
    // `run_simulation` checks it before the run (an empty or stage-less
    // app list, or a stage outside the catalog, is a typed SimError, not
    // a later panic); `?` surfaces any rejection.
    let mut env = SimEnv::standard(SloClass::Moderate);
    env.apps = vec![app.clone()];
    let cfg = SimConfig {
        warmup_exclude_ms: if smoke { 1_000.0 } else { 15_000.0 },
        ..SimConfig::default()
    };

    // ANL labelling from the profile substrate and the SLO plan.
    let times = env.profiles.stage_times(&app);
    let anl = average_normalized_length(&times);
    println!("\nANL labels: {anl:?}");
    let plan = SloPlan::build(&dag, &anl, 3).expect("plan");
    println!("SLO groups (g = 3):");
    for (i, g) in plan.groups().iter().enumerate() {
        println!(
            "  group {i}: stages {:?} get {:.1}% of the SLO",
            g.members,
            g.fraction * 100.0
        );
    }

    // Simulate the custom app end to end under ESG. A single application
    // receives the whole arrival stream, so use the light class to keep
    // the one pipeline inside cluster capacity.
    let n = if smoke { 150 } else { 1200 };
    let workload = WorkloadGen::new(WorkloadClass::Light, vec![AppId(0)], 11).generate(n);
    let mut esg = EsgScheduler::new();
    let r = run_simulation(&env, cfg, &mut esg, &workload, "diamond", None)?;
    println!(
        "\nsimulated {} invocations: SLO hit rate {:.1}%, mean latency {:.0} ms \
         (SLO {:.0} ms), {:.1}% local hand-offs",
        r.total_completed(),
        r.avg_hit_rate() * 100.0,
        r.apps[0].mean_latency_ms(),
        r.apps[0].slo_ms,
        r.locality_rate() * 100.0
    );
    Ok(())
}
