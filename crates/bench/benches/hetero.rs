//! Heterogeneous-cluster × dynamic-scenario sweep: ESG vs the four
//! baselines across three cluster specs (homogeneous paper testbed,
//! mixed-MIG, skewed-with-churn) under three traffic shapes (steady,
//! bursty, diurnal).
//!
//! Beyond the paper: Table 2 is homogeneous and §4.1 traffic is steady;
//! Appendix A claims heterogeneity tolerance, and the related work
//! (HAS-GPU, FaaSTube) argues mixed GPUs and topology-sensitive transfer
//! change the SLO/cost trade-off. This target measures that claim.
//!
//! Artifacts: `BENCH_hetero.{json,csv}` under `bench_results/`, plus
//! regenerated Markdown tables spliced into `EXPERIMENTS.md` between the
//! `<!-- BENCH:hetero:begin/end -->` markers.
//!
//! `ESG_SMOKE=1` shortens the arrival window for CI smoke runs.

use esg_bench::{
    section, standard_config, ClusterCase, ExperimentSuite, ScenarioMatrix, SchedKind, RUN_SECONDS,
    WARMUP_SECONDS,
};
use esg_model::{ChurnPlan, ClusterSpec, NodeClass, NodeId, Scenario, TrafficShape};
use esg_sim::SimConfig;

/// The three cluster cases of the sweep. The skewed case also churns: its
/// fastest node drains a third into the run and a T4 replacement joins
/// shortly after — the hardest placement regime.
fn cluster_cases(run_seconds: f64) -> [ClusterCase; 3] {
    let churn_at = run_seconds * 1000.0 / 3.0;
    [
        ClusterCase::new(ClusterSpec::paper()),
        ClusterCase::new(ClusterSpec::mixed_mig()),
        ClusterCase::new(ClusterSpec::skewed()).with_churn(ChurnPlan::rolling_replace(
            churn_at,
            2_000.0,
            NodeId(0),
            NodeClass::t4(),
        )),
    ]
}

fn main() {
    let smoke = esg_bench::smoke();
    let run_seconds = if smoke { 3.0 } else { RUN_SECONDS };
    section(if smoke {
        "Heterogeneous clusters × traffic shapes (smoke mode)"
    } else {
        "Heterogeneous clusters × traffic shapes"
    });

    let matrix = ScenarioMatrix::new()
        .schedulers(SchedKind::all())
        .scenarios([Scenario::MODERATE_NORMAL])
        .clusters(cluster_cases(run_seconds))
        .traffic([
            TrafficShape::Steady,
            TrafficShape::Bursty,
            TrafficShape::Diurnal,
        ]);
    assert_eq!(
        matrix.len(),
        5 * 3 * 3,
        "5 schedulers × 3 clusters × 3 shapes"
    );

    // Keep the warm-up exclusion proportional so smoke runs still report
    // non-empty metrics (the standard 30 s window would swallow a 3 s run).
    let warmup_seconds = WARMUP_SECONDS * run_seconds / RUN_SECONDS;
    let sweep = ExperimentSuite::new("hetero", matrix)
        .with_sim_config(SimConfig {
            warmup_exclude_ms: warmup_seconds * 1000.0,
            ..standard_config()
        })
        .with_run_seconds(run_seconds)
        .run();
    sweep.write_artifacts();
    sweep.write_experiments_section();

    for case in cluster_cases(run_seconds) {
        println!("\n--- cluster {} ---", case.name);
        println!(
            "{:<12} {:>8} {:>10} {:>14} {:>12} {:>12}",
            "scheduler", "traffic", "SLO hit %", "cost (¢/inv)", "cold %", "vGPU util %"
        );
        for cell in sweep.results.iter().filter(|c| c.cluster == case.name) {
            let r = &cell.result;
            println!(
                "{:<12} {:>8} {:>9.1}% {:>14.4} {:>11.1}% {:>11.1}%",
                cell.scheduler,
                cell.traffic.to_string(),
                r.avg_hit_rate() * 100.0,
                r.cost_per_invocation_cents(),
                r.cold_start_rate() * 100.0,
                r.vgpu_utilisation * 100.0,
            );
        }
    }
    println!(
        "\nexpected shape: every scheduler loses hit rate moving paper → mixed-MIG\n\
         → skewed+churn and steady → bursty; ESG's speed-scaled stage tables and\n\
         locality-first dispatch should keep it ahead of the pre-planned baselines,\n\
         which mispredict on slow classes (HAS-GPU/FaaSTube's argument)."
    );
}
