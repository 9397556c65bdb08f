//! Bit-reproducibility: identical seeds give identical runs; different
//! seeds differ.

use esg::prelude::*;

fn run(seed: u64, sched_seed: u64) -> ExperimentResult {
    let env = SimEnv::with_grid(
        SloClass::Moderate,
        ConfigGrid::new(vec![1, 2, 4], vec![1, 2, 4], vec![1, 2]),
    );
    let w =
        WorkloadGen::new(WorkloadClass::Light, esg::model::standard_app_ids(), seed).generate(80);
    let mut s = esg::core::EsgScheduler::new();
    let cfg = SimConfig {
        seed: sched_seed,
        ..SimConfig::default()
    };
    run_simulation(&env, cfg, &mut s, &w, "det", None).expect("valid run")
}

#[test]
fn identical_seeds_reproduce_exactly() {
    let a = run(3, 42);
    let b = run(3, 42);
    assert_eq!(a.total_completed(), b.total_completed());
    assert_eq!(a.dispatches, b.dispatches);
    assert_eq!(a.cold_starts, b.cold_starts);
    assert_eq!(a.overhead_ms, b.overhead_ms);
    for (x, y) in a.apps.iter().zip(&b.apps) {
        assert_eq!(x.latencies_ms, y.latencies_ms);
        assert!((x.cost_cents - y.cost_cents).abs() < 1e-12);
    }
}

#[test]
fn noise_seed_changes_latencies() {
    let a = run(3, 42);
    let b = run(3, 43);
    let same = a
        .apps
        .iter()
        .zip(&b.apps)
        .all(|(x, y)| x.latencies_ms == y.latencies_ms);
    assert!(!same, "different noise seeds must perturb latencies");
}

#[test]
fn workload_seed_changes_arrivals() {
    let a = run(3, 42);
    let b = run(4, 42);
    assert!(a.makespan_ms != b.makespan_ms || a.dispatches != b.dispatches);
}
