//! The plan cache must be semantically invisible: dispatch with the memo
//! enabled produces bit-identical `ExperimentResult`s to dispatch without
//! it, including across cluster churn (which the cache outlives) and
//! bursty traffic (which exercises the batch-hold probes), and a
//! scheduler reused on another environment decides like a fresh one.
//!
//! This holds because the search budget is quantized onto the cache's
//! bucket grid whether or not the cache is consulted, and a cache hit
//! replays the memoised search result verbatim — expansions included, so
//! even the simulated-overhead accounting cannot diverge.

use esg::model::{Catalog, FunctionSpec};
use esg::prelude::*;
use proptest::prelude::*;

/// The comparison form: [`ExperimentResult::canonical`] without the
/// scheduler's self-reported counters, which legitimately differ between
/// a cached and an uncached run (that difference is the point).
/// Everything else must match bit-for-bit.
fn canonical(mut r: ExperimentResult) -> String {
    r.scheduler_stats = SchedulerStats::default();
    r.canonical()
}

fn churny_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        cluster: Some(ClusterSpec::skewed()),
        churn: ChurnPlan::none()
            .drain(600.0, NodeId(0))
            .join(1_000.0, NodeClass::t4())
            .drain(1_800.0, NodeId(2))
            .join(2_400.0, NodeClass::v100()),
        ..SimConfig::default()
    }
}

fn run_pair(
    slo: SloClass,
    workload: &Workload,
    cfg: &SimConfig,
) -> (ExperimentResult, ExperimentResult) {
    let env = SimEnv::standard(slo);
    let mut cached = EsgScheduler::new();
    let mut uncached = EsgScheduler::new().without_plan_cache();
    let a = run_simulation(&env, cfg.clone(), &mut cached, workload, "cache-eq", None)
        .expect("valid run");
    let b = run_simulation(&env, cfg.clone(), &mut uncached, workload, "cache-eq", None)
        .expect("valid run");
    (a, b)
}

#[test]
fn cached_dispatch_is_bit_identical_under_heavy_churn() {
    let workload = shaped_workload(
        WorkloadClass::Normal,
        TrafficShape::Bursty,
        &esg::model::standard_app_ids(),
        42,
        4_000.0,
    );
    let (cached, uncached) = run_pair(SloClass::Moderate, &workload, &churny_config(42));
    assert!(cached.arrivals > 0);
    assert!(
        cached.scheduler_stats.plan_cache_hits > 0,
        "the memo never fired — the equivalence below would be vacuous"
    );
    assert_eq!(
        cached.scheduler_stats.plan_cache_invalidations, 0,
        "churn must leave the cache intact, got {:?}",
        cached.scheduler_stats
    );
    assert_eq!(
        uncached.scheduler_stats.plan_cache_hits + uncached.scheduler_stats.plan_cache_misses,
        0,
        "the uncached scheduler must not consult a cache"
    );
    assert_eq!(canonical(cached), canonical(uncached));
}

#[test]
fn tiny_cache_thrashes_but_stays_equivalent() {
    // A capacity-2 cache evicts constantly; eviction must be as invisible
    // as hits are.
    let workload = shaped_workload(
        WorkloadClass::Normal,
        TrafficShape::Steady,
        &esg::model::standard_app_ids(),
        7,
        3_000.0,
    );
    let env = SimEnv::standard(SloClass::Strict);
    let mut tiny = EsgScheduler::new().with_plan_cache_capacity(2);
    let mut off = EsgScheduler::new().without_plan_cache();
    let cfg = churny_config(7);
    let a = run_simulation(&env, cfg.clone(), &mut tiny, &workload, "cache-eq", None)
        .expect("valid run");
    let b = run_simulation(&env, cfg, &mut off, &workload, "cache-eq", None).expect("valid run");
    assert!(
        a.scheduler_stats.plan_cache_evictions > 0,
        "capacity 2 must evict, got {:?}",
        a.scheduler_stats
    );
    assert_eq!(canonical(a), canonical(b));
}

/// The default capacity must hold the working set of the benchmark's
/// Azure-shaped replay: an LRU smaller than the keys in use evicts on
/// almost every miss (at 512 entries it evicted 70 481 times for 70 993
/// insertions over 20 trace-minutes), and every such eviction costs a
/// repeated A* search. Each miss inserts exactly once, so misses count
/// the insertions.
#[test]
fn default_capacity_holds_the_azure_replay_working_set() {
    let stream = AzureLikeTrace {
        mean_per_minute: 2_500.0,
        period_minutes: 120.0,
        burst_probability: 0.0,
        seed: 42,
        ..AzureLikeTrace::default()
    }
    .stream(esg::model::standard_app_ids(), Some(2));
    let env = SimEnv::standard(SloClass::Moderate);
    let mut esg = EsgScheduler::new();
    let r = run_streamed(
        &env,
        SimConfig::default(),
        &mut esg,
        stream,
        "capacity",
        None,
    )
    .expect("valid run");
    let s = r.scheduler_stats;
    assert!(r.arrivals > 4_000, "two trace-minutes at 2 500/min");
    assert_eq!(s.plan_cache_invalidations, 0, "no churn, no flush");
    assert!(
        s.plan_cache_evictions * 100 <= s.plan_cache_misses,
        "the plan cache thrashes at its default capacity: {} evictions for {} insertions",
        s.plan_cache_evictions,
        s.plan_cache_misses
    );
}

/// The same holds under rolling churn on the mixed-MIG cluster, where
/// every drain and join moves dispatches between node classes and so
/// between budgets: the cache keeps every key across the churn events,
/// and the working set still fits the default capacity.
#[test]
fn default_capacity_holds_the_strict_churn_working_set() {
    const MINUTES: usize = 6;
    let spec = ClusterSpec::mixed_mig();
    let mut churn = ChurnPlan::none();
    for minute in 1..MINUTES {
        // One drain a minute, replaced by the same class 10 s later.
        let at = minute as f64 * 60_000.0;
        let victim = minute * 5 % spec.nodes.len();
        churn = churn
            .drain(at, NodeId(victim as u32))
            .join(at + 10_000.0, spec.nodes[victim].clone());
    }
    let cfg = SimConfig {
        seed: 42,
        cluster: Some(spec),
        churn,
        ..SimConfig::default()
    };
    let workload = shaped_stream(
        WorkloadClass::Light,
        TrafficShape::Steady,
        &esg::model::standard_app_ids(),
        42,
    )
    .until_ms(MINUTES as f64 * 60_000.0);
    let env = SimEnv::standard(SloClass::Strict);
    let mut esg = EsgScheduler::new();
    let r = run_simulation(&env, cfg, &mut esg, &workload, "capacity", None).expect("valid run");
    let s = r.scheduler_stats;
    assert!(r.arrivals > 5_000, "{} arrivals", r.arrivals);
    assert_eq!(s.plan_cache_invalidations, 0, "churn must not flush");
    assert!(
        s.plan_cache_evictions * 100 <= s.plan_cache_misses,
        "the plan cache thrashes at its default capacity: {} evictions for {} insertions",
        s.plan_cache_evictions,
        s.plan_cache_misses
    );
    assert!(
        s.plan_cache_hits > 10 * s.plan_cache_misses,
        "churn must not cost the memo its hits: {s:?}"
    );
}

/// Runs `sched` on `env` and returns the result without its scheduler
/// counters.
fn run_on(env: &SimEnv, sched: &mut EsgScheduler, workload: &Workload) -> String {
    canonical(
        run_simulation(env, SimConfig::default(), sched, workload, "reuse", None)
            .expect("valid run"),
    )
}

/// A scheduler reused on an environment with the same apps in another
/// order must rebuild its per-app plans: stale plans index the wrong
/// app's stages.
#[test]
fn a_reused_scheduler_follows_reordered_apps() {
    let workload = shaped_workload(
        WorkloadClass::Light,
        TrafficShape::Steady,
        &esg::model::standard_app_ids(),
        5,
        2_000.0,
    );
    let env = SimEnv::standard(SloClass::Moderate);
    let mut reordered = env.clone();
    reordered.apps.reverse();
    let mut reused = EsgScheduler::new();
    run_on(&env, &mut reused, &workload);
    assert_eq!(
        run_on(&reordered, &mut reused, &workload),
        run_on(&reordered, &mut EsgScheduler::new(), &workload)
    );
}

/// A scheduler reused on a profile table over the same grid and prices
/// but with other latencies must drop its stage tables and plans.
#[test]
fn a_reused_scheduler_follows_new_profile_latencies() {
    let workload = shaped_workload(
        WorkloadClass::Light,
        TrafficShape::Steady,
        &esg::model::standard_app_ids(),
        5,
        2_000.0,
    );
    let env = SimEnv::standard(SloClass::Moderate);
    let mut slower = env.clone();
    slower.catalog = Catalog::new();
    for (_, spec) in env.catalog.iter() {
        slower.catalog.add(FunctionSpec {
            exec_ms: spec.exec_ms * 1.5,
            ..spec.clone()
        });
    }
    slower.profiles = ProfileTable::build(&slower.catalog, env.profiles.grid(), &env.price);
    let mut reused = EsgScheduler::new();
    run_on(&env, &mut reused, &workload);
    assert_eq!(
        run_on(&slower, &mut reused, &workload),
        run_on(&slower, &mut EsgScheduler::new(), &workload)
    );
    assert_eq!(reused.stats().plan_cache_invalidations, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property form of the equivalence: random seeds, SLO classes, and
    /// traffic shapes over the churning skewed cluster.
    #[test]
    fn cached_equals_uncached_across_random_churny_sweeps(
        seed in 0u64..1_000,
        slo_idx in 0usize..3,
        shape_idx in 0usize..3,
    ) {
        let slo = [SloClass::Strict, SloClass::Moderate, SloClass::Relaxed][slo_idx];
        let shape = [TrafficShape::Steady, TrafficShape::Bursty, TrafficShape::Diurnal][shape_idx];
        let workload = shaped_workload(
            WorkloadClass::Light,
            shape,
            &esg::model::standard_app_ids(),
            seed,
            2_500.0,
        );
        let (cached, uncached) = run_pair(slo, &workload, &churny_config(seed));
        prop_assert_eq!(canonical(cached), canonical(uncached));
    }
}
