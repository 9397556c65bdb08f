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
    hetero_clusters, scaled_config, smoke_section, Col, ExperimentSuite, ScenarioMatrix, SchedKind,
    Table, RUN_SECONDS,
};
use esg_model::{Scenario, TrafficShape};

#[rustfmt::skip]
const COLUMNS: [Col; 6] = [
    Col::show("scheduler", 12).left(),
    Col::show("traffic", 8),
    Col::show("SLO hit %", 10).pct(1),
    Col::show("cost (¢/inv)", 14).fixed(4),
    Col::show("cold %", 12).pct(1),
    Col::show("vGPU util %", 12).pct(1),
];

fn main() {
    let smoke = smoke_section("Heterogeneous clusters × traffic shapes");
    let run_seconds = if smoke { 3.0 } else { RUN_SECONDS };

    let matrix = ScenarioMatrix::new()
        .schedulers(SchedKind::all())
        .scenarios([Scenario::MODERATE_NORMAL])
        .clusters(hetero_clusters(run_seconds))
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

    let sweep = ExperimentSuite::new("hetero", matrix)
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
                r.cost_per_invocation_cents().into(),
                r.cold_start_rate().into(),
                r.vgpu_utilisation.into(),
            ]);
        }
    }
    table.note(
        "expected shape: every scheduler loses hit rate moving paper → mixed-MIG\n\
         → skewed+churn and steady → bursty; ESG's speed-scaled stage tables and\n\
         locality-first dispatch should keep it ahead of the pre-planned baselines,\n\
         which mispredict on slow classes (HAS-GPU/FaaSTube's argument).",
    );
    table.print();
}
