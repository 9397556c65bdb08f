//! Round-policy sweep: classic ESG vs the composable policy stacks —
//! cross-queue packing (`BandwidthAwarePacking`; no data plane here, so
//! it ranks on GSLO tightness and warm affinity), SLO-aware admission
//! (`SloAdmission`), and their combination — across the hetero cluster
//! grid under steady, bursty, and Azure-replay traffic.
//!
//! Beyond the paper: ESG's evaluation decides queues in controller scan
//! order and never sheds. HAS-GPU/INFless-style systems argue admission
//! and placement are separable SLO-aware decisions; this target measures
//! both stages on top of the unchanged per-queue ESG search. Read the
//! tables as: *GSLO hit rate over completed work* (must be no worse than
//! classic ESG) with the *shed rate* reported alongside (admission only
//! drops provably-hopeless invocations, so sheds convert certain misses
//! into explicit rejections instead of wasted capacity).
//!
//! Artifacts: `BENCH_packing.{json,csv}` under `bench_results/`, plus
//! the Markdown tables spliced into `EXPERIMENTS.md` between the
//! `<!-- BENCH:packing:begin/end -->` markers.
//!
//! `ESG_SMOKE=1` shortens the arrival window for CI smoke runs.

use esg_bench::{
    section, standard_config, ClusterCase, ExperimentSuite, ScenarioMatrix, SchedSpec, RUN_SECONDS,
    WARMUP_SECONDS,
};
use esg_core::{BandwidthAwarePacking, EsgScheduler};
use esg_model::{ChurnPlan, ClusterSpec, NodeClass, NodeId, Scenario, TrafficShape};
use esg_sim::{PolicyStack, SimConfig, SloAdmission};

/// The hetero grid (same three cases as `cargo bench --bench hetero`).
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

/// The ESG policy-stack variants under comparison.
fn variants() -> [SchedSpec; 4] {
    [
        SchedSpec::new("ESG", || Box::new(EsgScheduler::new())),
        SchedSpec::new("ESG+pack", || {
            Box::new(
                EsgScheduler::new()
                    .with_policy(PolicyStack::new().with(BandwidthAwarePacking::default())),
            )
        }),
        SchedSpec::new("ESG+admit", || {
            Box::new(
                EsgScheduler::new().with_policy(PolicyStack::new().with(SloAdmission::default())),
            )
        }),
        SchedSpec::new("ESG+pack+admit", || {
            Box::new(
                EsgScheduler::new().with_policy(
                    PolicyStack::new()
                        .with(SloAdmission::default())
                        .with(BandwidthAwarePacking::default()),
                ),
            )
        }),
    ]
}

fn main() {
    let smoke = esg_bench::smoke();
    let run_seconds = if smoke { 3.0 } else { RUN_SECONDS };
    section(if smoke {
        "Round-policy stacks: packing × admission (smoke mode)"
    } else {
        "Round-policy stacks: packing × admission"
    });

    let matrix = ScenarioMatrix::new()
        .schedulers(variants())
        .scenarios([Scenario::MODERATE_NORMAL])
        .clusters(cluster_cases(run_seconds))
        .traffic([
            TrafficShape::Steady,
            TrafficShape::Bursty,
            TrafficShape::AzureReplay,
        ]);
    assert_eq!(matrix.len(), 4 * 3 * 3, "4 stacks × 3 clusters × 3 shapes");

    let warmup_seconds = WARMUP_SECONDS * run_seconds / RUN_SECONDS;
    let sweep = ExperimentSuite::new("packing", matrix)
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
            "{:<15} {:>8} {:>10} {:>7} {:>14} {:>10}",
            "stack", "traffic", "SLO hit %", "shed %", "cost (¢/inv)", "deferred"
        );
        for cell in sweep.results.iter().filter(|c| c.cluster == case.name) {
            let r = &cell.result;
            println!(
                "{:<15} {:>8} {:>9.1}% {:>6.1}% {:>14.4} {:>10}",
                cell.scheduler,
                cell.traffic.to_string(),
                r.avg_hit_rate() * 100.0,
                r.shed_rate() * 100.0,
                r.cost_per_invocation_cents(),
                r.scheduler_stats.policy.queues_deferred,
            );
        }
    }

    // Acceptance guard: policy stacks must not lose GSLO hit rate vs
    // classic ESG on the same (cluster, traffic) cell, up to a 2 pp
    // tolerance for cells where shedding changes the completed set
    // (full runs only; 3 s smoke cells are too noisy to gate).
    let mut worst: f64 = 0.0;
    for cell in &sweep.results {
        if cell.scheduler == "ESG" {
            continue;
        }
        let classic = sweep
            .results
            .iter()
            .find(|c| {
                c.scheduler == "ESG" && c.cluster == cell.cluster && c.traffic == cell.traffic
            })
            .expect("classic row exists for every cell");
        let delta = classic.result.avg_hit_rate() - cell.result.avg_hit_rate();
        worst = worst.max(delta);
    }
    println!(
        "\nworst hit-rate regression of any stack vs classic ESG: {:.2} pp \
(tolerance ≤ 2 pp; sheds only remove provably-hopeless work)",
        worst * 100.0
    );
    if !smoke {
        assert!(
            worst <= 0.02,
            "a policy stack lost {:.2} pp of GSLO hit rate vs classic ESG",
            worst * 100.0
        );
    }
}
