//! Parallel sweeps must be bit-identical to serial sweeps.
//!
//! The `ExperimentSuite` engine promises that a sweep's records are a pure
//! function of the matrix cells (deterministic per-run seeding, shared
//! workload materialisation, wall-clock excluded from canonical records).
//! This test runs the acceptance-grade 24-cell matrix — 2 schedulers × 2
//! SLO classes × 2 workload classes × 3 seeds — both ways and compares
//! everything: the canonical digests (`ExperimentResult::canonical`
//! encodings; f64 `Debug` formatting round-trips exactly, so string
//! equality here is bit equality), the JSON artifact, and the CSV rows.

use esg_bench::{ExperimentSuite, ScenarioMatrix, SchedKind, SweepResult};
use esg_model::{SloClass, WorkloadClass};

fn acceptance_matrix() -> ScenarioMatrix {
    ScenarioMatrix::new()
        .schedulers([SchedKind::Esg, SchedKind::Infless])
        .cross(
            [SloClass::Strict, SloClass::Relaxed],
            [WorkloadClass::Light, WorkloadClass::Heavy],
        )
        .seeds([42, 43, 44])
}

fn suite() -> ExperimentSuite {
    // A short arrival window keeps 48 simulations test-sized; determinism
    // does not depend on the window length.
    ExperimentSuite::new("determinism", acceptance_matrix()).with_run_seconds(4.0)
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let matrix = acceptance_matrix();
    assert!(matrix.len() >= 24, "acceptance grid is at least 24 cells");

    let parallel = suite().run();
    let serial = suite().serial().run();

    assert_eq!(parallel.results.len(), matrix.len());
    assert_eq!(serial.results.len(), matrix.len());

    // Cell-by-cell coordinates line up (same expansion order)…
    for (p, s) in parallel.results.iter().zip(&serial.results) {
        assert_eq!(p.scheduler, s.scheduler);
        assert_eq!(p.scenario, s.scenario);
        assert_eq!(p.seed, s.seed);
        // …and the full simulation output is identical, wall clock aside.
        assert_eq!(
            p.result.canonical(),
            s.result.canonical(),
            "cell ({}, {}, seed {}) diverged between parallel and serial",
            p.scheduler,
            p.scenario,
            p.seed
        );
    }

    // Whole-sweep digests and artifacts agree byte-for-byte.
    assert_eq!(parallel.canonical_digest(), serial.canonical_digest());
    assert_eq!(
        serde_json::to_string(&parallel.to_json()),
        serde_json::to_string(&serial.to_json())
    );
    let rows_p: Vec<String> = parallel.results.iter().map(SweepResult::csv_row).collect();
    let rows_s: Vec<String> = serial.results.iter().map(SweepResult::csv_row).collect();
    assert_eq!(rows_p, rows_s);
}

#[test]
fn repeated_parallel_sweeps_are_reproducible() {
    // Thread scheduling must not leak into results: two parallel runs of
    // the same suite agree with each other too.
    let a = suite().run();
    let b = suite().run();
    assert_eq!(a.canonical_digest(), b.canonical_digest());
}

#[test]
fn distinct_seeds_produce_distinct_runs() {
    // Guards against a seeding bug collapsing the seed axis (which would
    // make the determinism assertions above vacuous).
    let sweep = suite().run();
    let mut per_seed: Vec<String> = sweep
        .results
        .iter()
        .filter(|c| c.scheduler == "ESG")
        .map(|c| c.result.canonical())
        .collect();
    let total = per_seed.len();
    per_seed.sort();
    per_seed.dedup();
    assert_eq!(per_seed.len(), total, "every (scenario, seed) cell differs");
}
