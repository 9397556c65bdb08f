//! Experiment layer: the [`ExperimentSuite`] scenario-sweep engine plus
//! shared setup for the per-figure/per-table bench targets.
//!
//! The engine turns a declarative [`ScenarioMatrix`] — schedulers × SLO
//! classes × workload classes × seeds — into independent simulation runs
//! executed in parallel (rayon), with deterministic per-run seeding so a
//! parallel sweep is bit-identical to a serial one. Results come back as
//! structured [`SweepResult`] records inside a [`Sweep`], which knows how
//! to emit `BENCH_<suite>.json` and `BENCH_<suite>.csv` artifacts under
//! `bench_results/`.
//!
//! The fig/table bench targets are thin declarations over this engine:
//! they build a matrix, run it, and push one typed value per column and
//! row into a [`Table`]. A target declares each table once, as a list of
//! [`Col`]s: a column names its console header, width and number format,
//! and its CSV key and [`Csv`] format, either side optional.
//! [`Table::emit`] then prints the paper-style rows and writes
//! `<name>.csv` from the same values. Every target shares the same
//! standard setup — the Table-2 cluster, 120 s of class-appropriate
//! arrivals, a 30 s warm-up window excluded from the metrics, and seed 42.

#![warn(missing_docs)]

mod dashboard;
mod emit;
mod replay;
mod suite;
mod table;

pub use dashboard::{
    dashboard_csv_header, dashboard_csv_rows, render_dashboard_text, render_snapshot_text,
};
pub use emit::{
    experiments_md_path, render_bench_markdown, render_overhead_markdown, render_scale_markdown,
    results_dir, smoke, update_experiments_md, write_csv, write_json,
};
pub use replay::{record_reference, render_replay_markdown, replay_doc, replay_matrix, ReplayRun};
pub use suite::{
    ClusterCase, Csv, ExperimentSuite, RunSpec, ScenarioMatrix, SchedSpec, Sweep, SweepResult,
};
pub use table::{Col, Table};

use esg_baselines::{AquatopeScheduler, FastGShareScheduler, InflessScheduler, OrionScheduler};
use esg_core::EsgScheduler;
use esg_model::{
    standard_app_ids, ChurnPlan, ClusterSpec, NodeClass, NodeId, Scenario, TrafficShape,
};
use esg_sim::{Scheduler, SimConfig};
use esg_workload::{shaped_workload, Workload, WorkloadGen};

/// Simulated seconds of arrivals per experiment run.
pub const RUN_SECONDS: f64 = 120.0;
/// Warm-up window excluded from metrics, seconds.
pub const WARMUP_SECONDS: f64 = 30.0;
/// Workload seed shared by all experiments.
pub const SEED: u64 = 42;

/// The five compared schedulers (paper §4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedKind {
    /// The paper's contribution.
    Esg,
    /// INFless baseline.
    Infless,
    /// FaST-GShare baseline.
    FastGShare,
    /// Orion baseline (default 100 ms cut-off).
    Orion,
    /// Aquatope baseline (offline BO).
    Aquatope,
}

impl SchedKind {
    /// All five, figure order.
    pub fn all() -> [SchedKind; 5] {
        [
            SchedKind::Esg,
            SchedKind::Infless,
            SchedKind::FastGShare,
            SchedKind::Orion,
            SchedKind::Aquatope,
        ]
    }

    /// Instantiates the scheduler.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedKind::Esg => Box::new(EsgScheduler::new()),
            SchedKind::Infless => Box::new(InflessScheduler::new()),
            SchedKind::FastGShare => Box::new(FastGShareScheduler::new()),
            SchedKind::Orion => Box::new(OrionScheduler::default()),
            SchedKind::Aquatope => Box::new(AquatopeScheduler::default()),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SchedKind::Esg => "ESG",
            SchedKind::Infless => "INFless",
            SchedKind::FastGShare => "FaST-GShare",
            SchedKind::Orion => "Orion",
            SchedKind::Aquatope => "Aquatope",
        }
    }
}

/// The standard workload of a scenario: [`RUN_SECONDS`] of arrivals at the
/// shared [`SEED`].
pub fn standard_workload(scenario: Scenario) -> Workload {
    workload_for(scenario, SEED, RUN_SECONDS)
}

/// A scenario's workload at an explicit seed and duration (the sweep
/// engine's per-cell generator for steady traffic).
pub fn workload_for(scenario: Scenario, seed: u64, run_seconds: f64) -> Workload {
    WorkloadGen::new(scenario.workload, standard_app_ids(), seed).generate_for(run_seconds * 1000.0)
}

/// A scenario's workload under an arbitrary traffic shape (the sweep
/// engine's per-cell generator). `Steady` matches [`workload_for`]
/// bit-for-bit.
pub fn workload_for_shape(
    scenario: Scenario,
    shape: TrafficShape,
    seed: u64,
    run_seconds: f64,
) -> Workload {
    shaped_workload(
        scenario.workload,
        shape,
        &standard_app_ids(),
        seed,
        run_seconds * 1000.0,
    )
}

/// The standard platform configuration (Table 2 + steady-state warm-up).
pub fn standard_config() -> SimConfig {
    scaled_config(RUN_SECONDS)
}

/// Prints a rule-off section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints the section header of a target that shortens its runs under
/// [`smoke`] mode, marking a smoke run; returns whether this is one.
pub fn smoke_section(title: &str) -> bool {
    let smoke = smoke();
    section(&format!(
        "{title}{}",
        if smoke { " (smoke mode)" } else { "" }
    ));
    smoke
}

/// The standard configuration for runs of `run_seconds` of arrivals: the
/// warm-up exclusion shrinks in proportion, so that a 3 s smoke run
/// still reports metrics (the 30 s window would swallow it).
pub fn scaled_config(run_seconds: f64) -> SimConfig {
    let warmup_seconds = WARMUP_SECONDS * run_seconds / RUN_SECONDS;
    SimConfig {
        warmup_exclude_ms: warmup_seconds * 1000.0,
        ..SimConfig::default()
    }
}

/// The cluster axis of the heterogeneous sweeps (`hetero`, `packing`):
/// the paper testbed, mixed MIG, and a skewed cluster whose fastest node
/// drains a third into the run while a T4 replacement joins shortly
/// after, the hardest placement regime.
pub fn hetero_clusters(run_seconds: f64) -> [ClusterCase; 3] {
    let churn_at = run_seconds * 1000.0 / 3.0;
    let replace = ChurnPlan::rolling_replace(churn_at, 2_000.0, NodeId(0), NodeClass::t4());
    [
        ClusterCase::new(ClusterSpec::paper()),
        ClusterCase::new(ClusterSpec::mixed_mig()),
        ClusterCase::new(ClusterSpec::skewed()).with_churn(replace),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_factory_names() {
        for kind in SchedKind::all() {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn standard_workload_covers_run_window() {
        let w = standard_workload(Scenario::STRICT_LIGHT);
        assert!(w.span_ms() <= RUN_SECONDS * 1000.0);
        assert!(w.span_ms() > 0.8 * RUN_SECONDS * 1000.0);
    }

    #[test]
    fn workload_is_seed_deterministic() {
        let a = workload_for(Scenario::MODERATE_NORMAL, 7, 10.0);
        let b = workload_for(Scenario::MODERATE_NORMAL, 7, 10.0);
        let c = workload_for(Scenario::MODERATE_NORMAL, 8, 10.0);
        assert_eq!(a.intervals_ms(), b.intervals_ms());
        assert_ne!(a.intervals_ms(), c.intervals_ms());
    }
}
