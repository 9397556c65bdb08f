//! End-to-end platform runs for every scheduler: everything completes,
//! resources balance, metrics are internally consistent.

use esg::baselines::bo::BoOptimizer;
use esg::prelude::*;

fn small_env(slo: SloClass) -> SimEnv {
    // Reduced grid keeps debug-mode search time low without changing the
    // platform semantics under test.
    SimEnv::with_grid(
        slo,
        ConfigGrid::new(vec![1, 2, 4], vec![1, 2, 4, 8], vec![1, 2]),
    )
}

fn workload(n: usize) -> Workload {
    WorkloadGen::new(WorkloadClass::Normal, esg::model::standard_app_ids(), 9).generate(n)
}

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(esg::core::EsgScheduler::new()),
        Box::new(esg::baselines::InflessScheduler::new()),
        Box::new(esg::baselines::FastGShareScheduler::new()),
        Box::new(esg::baselines::OrionScheduler::new(5.0)),
        Box::new(esg::baselines::AquatopeScheduler::new(BoOptimizer::tiny(4))),
        Box::new(MinScheduler),
    ]
}

#[test]
fn every_scheduler_completes_every_invocation() {
    let env = small_env(SloClass::Relaxed);
    let w = workload(120);
    for mut s in schedulers() {
        let r = run_simulation(&env, SimConfig::default(), s.as_mut(), &w, "e2e", None)
            .expect("valid run");
        assert_eq!(r.arrivals, 120, "{}", r.scheduler);
        assert_eq!(r.total_completed(), 120, "{} left work behind", r.scheduler);
        assert_eq!(
            r.warm_starts + r.cold_starts,
            r.dispatches,
            "{} start accounting",
            r.scheduler
        );
        assert!(r.total_cost_cents() > 0.0);
        assert!(r.vgpu_utilisation > 0.0 && r.vgpu_utilisation <= 1.0);
        assert!(r.vcpu_utilisation > 0.0 && r.vcpu_utilisation <= 1.0);
        // Every dispatched job is accounted: batch sizes sum to the exact
        // number of stage-jobs the workload generates.
        let jobs_dispatched = r.batch_size.sum();
        let total_jobs: f64 = w
            .arrivals
            .iter()
            .map(|a| env.apps[a.app.index()].num_stages() as f64)
            .sum();
        assert!(
            (jobs_dispatched - total_jobs).abs() < 0.5,
            "{}: dispatched {jobs_dispatched} vs expected {total_jobs}",
            r.scheduler
        );
    }
}

#[test]
fn latency_series_lengths_match_completions() {
    let env = small_env(SloClass::Moderate);
    let w = workload(100);
    let mut s = esg::core::EsgScheduler::new();
    let r =
        run_simulation(&env, SimConfig::default(), &mut s, &w, "series", None).expect("valid run");
    for a in &r.apps {
        assert_eq!(a.latencies_ms.len() as u64, a.completed);
        assert!(a.slo_hits <= a.completed);
        assert!(a.latencies_ms.iter().all(|&l| l > 0.0));
    }
}

#[test]
fn warmup_window_excludes_early_invocations() {
    let env = small_env(SloClass::Moderate);
    let w = workload(150);
    let mut a = esg::core::EsgScheduler::new();
    let full =
        run_simulation(&env, SimConfig::default(), &mut a, &w, "full", None).expect("valid run");
    let mut b = esg::core::EsgScheduler::new();
    let cfg = SimConfig {
        warmup_exclude_ms: w.span_ms() / 2.0,
        ..SimConfig::default()
    };
    let trimmed = run_simulation(&env, cfg, &mut b, &w, "trim", None).expect("valid run");
    assert!(trimmed.total_completed() < full.total_completed());
    assert!(trimmed.total_completed() > 0);
}

#[test]
fn relaxing_the_slo_only_helps_a_fixed_policy() {
    // With a policy that ignores the SLO (MinScheduler), the execution is
    // identical across SLO classes, so a looser deadline can only raise
    // the hit rate. (Adaptive schedulers legitimately change behaviour
    // with the SLO, so this monotonicity is only a fixed-policy property.)
    let w = workload(150);
    let hit = |slo| {
        let env = small_env(slo);
        let mut s = MinScheduler;
        run_simulation(&env, SimConfig::default(), &mut s, &w, "ord", None)
            .expect("valid run")
            .avg_hit_rate()
    };
    assert!(hit(SloClass::Relaxed) + 1e-9 >= hit(SloClass::Strict));
}
