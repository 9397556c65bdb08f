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
    hetero_clusters, scaled_config, smoke_section, Col, ExperimentSuite, ScenarioMatrix, SchedSpec,
    Table, RUN_SECONDS,
};
use esg_core::{BandwidthAwarePacking, EsgScheduler};
use esg_model::{Scenario, TrafficShape};
use esg_sim::{PolicyStack, SloAdmission};

#[rustfmt::skip]
const COLUMNS: [Col; 6] = [
    Col::show("stack", 15).left(),
    Col::show("traffic", 8),
    Col::show("SLO hit %", 10).pct(1),
    Col::show("shed %", 7).pct(1),
    Col::show("cost (¢/inv)", 14).fixed(4),
    Col::show("deferred", 10),
];

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
    let smoke = smoke_section("Round-policy stacks: packing × admission");
    let run_seconds = if smoke { 3.0 } else { RUN_SECONDS };

    let matrix = ScenarioMatrix::new()
        .schedulers(variants())
        .scenarios([Scenario::MODERATE_NORMAL])
        .clusters(hetero_clusters(run_seconds))
        .traffic([
            TrafficShape::Steady,
            TrafficShape::Bursty,
            TrafficShape::AzureReplay,
        ]);
    assert_eq!(matrix.len(), 4 * 3 * 3, "4 stacks × 3 clusters × 3 shapes");

    let sweep = ExperimentSuite::new("packing", matrix)
        .with_sim_config(scaled_config(run_seconds))
        .with_run_seconds(run_seconds)
        .run();
    sweep.write_artifacts();
    sweep.write_experiments_section();

    let mut table = Table::new(&COLUMNS);
    for case in hetero_clusters(run_seconds) {
        table.group(format!("cluster {}", case.name));
        for cell in sweep.results.iter().filter(|c| c.cluster == case.name) {
            let r = &cell.result;
            table.row([
                cell.scheduler.as_str().into(),
                cell.traffic.to_string().into(),
                r.avg_hit_rate().into(),
                r.shed_rate().into(),
                r.cost_per_invocation_cents().into(),
                r.scheduler_stats.policy.queues_deferred.into(),
            ]);
        }
    }
    table.print();

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
            .paired("ESG", cell)
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
