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
//! they build a matrix, run it, and format paper-style rows from the
//! returned records. Every target shares the same standard setup — the
//! Table-2 cluster, 120 s of class-appropriate arrivals, a 30 s warm-up
//! window excluded from the metrics, and seed 42.

#![warn(missing_docs)]

mod dashboard;
mod emit;
mod replay;
mod suite;

pub use dashboard::{
    dashboard_csv_header, dashboard_csv_rows, render_dashboard_text, render_snapshot_text,
};
pub use emit::{
    experiments_md_path, render_bench_markdown, render_overhead_markdown, render_scale_markdown,
    results_dir, update_experiments_md, write_csv, write_json,
};
pub use replay::{record_reference, render_replay_markdown, replay_doc, replay_matrix, ReplayRun};
pub use suite::{
    ClusterCase, ExperimentSuite, RunSpec, ScenarioMatrix, SchedSpec, Sweep, SweepResult,
};

use esg_baselines::{AquatopeScheduler, FastGShareScheduler, InflessScheduler, OrionScheduler};
use esg_core::EsgScheduler;
use esg_model::{standard_app_ids, Scenario, SloClass, TrafficShape};
use esg_sim::{ExperimentResult, Scheduler, SimConfig};
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
    SimConfig {
        warmup_exclude_ms: WARMUP_SECONDS * 1000.0,
        ..SimConfig::default()
    }
}

/// Runs one `(scheduler, scenario)` cell of the evaluation at the
/// standard configuration and shared [`SEED`].
///
/// One-off convenience for exploratory runs; sweeps should use
/// [`ExperimentSuite`], which parallelises and records coordinates.
pub fn run_cell(kind: SchedKind, scenario: Scenario) -> ExperimentResult {
    run_cell_with(kind, scenario, standard_config())
}

/// [`run_cell`] with a custom platform configuration. Unlike the sweep
/// engine (whose seed axis controls both the workload and `cfg.seed`),
/// this honours the caller's `cfg.seed` verbatim and keeps the workload
/// at the shared [`SEED`].
pub fn run_cell_with(kind: SchedKind, scenario: Scenario, cfg: SimConfig) -> ExperimentResult {
    let env = esg_sim::SimEnv::standard(scenario.slo);
    let workload = standard_workload(scenario);
    let mut sched = kind.build();
    esg_sim::run_simulation(&env, cfg, sched.as_mut(), &workload, &scenario.to_string())
}

/// Runs every cell of `kinds × scenarios` in parallel via the sweep
/// engine, returning results in deterministic `(scenario-major,
/// kind-minor)` order.
///
/// The bench targets declare [`ExperimentSuite`]s directly; this wrapper
/// remains public API for callers that want a paired comparison as a flat
/// list without touching sweep records.
pub fn run_matrix(
    kinds: &[SchedKind],
    scenarios: &[Scenario],
) -> Vec<(Scenario, SchedKind, ExperimentResult)> {
    let sweep = ExperimentSuite::new(
        "matrix",
        ScenarioMatrix::new()
            .schedulers(kinds.iter().copied())
            .scenarios(scenarios.iter().copied())
            .seeds([SEED]),
    )
    .run();
    // Cells expand scenario-major, scheduler-minor, seed-innermost; with a
    // single seed that is exactly the promised order.
    let mut out = Vec::with_capacity(sweep.results.len());
    let mut it = sweep.results.into_iter();
    for &scenario in scenarios {
        for &kind in kinds {
            let cell = it.next().expect("matrix fully populated");
            debug_assert_eq!(cell.scenario, scenario);
            debug_assert_eq!(cell.scheduler, kind.name());
            out.push((scenario, kind, cell.result));
        }
    }
    out
}

/// The SLO class of a scenario sweep cell (helper for custom sweeps).
pub fn slo_of(scenario: Scenario) -> SloClass {
    scenario.slo
}

/// Prints a rule-off section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
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
