//! Allocation budget of the platform's steady-state decision path.
//!
//! Runs the real `Simulation` → `EsgScheduler` loop under a counting
//! global allocator and pins the heap allocation calls per scheduling
//! decision over the second half of the run (warm buffers, warm plan
//! cache). Two configurations:
//!
//! * **fabric** — a split PCIe fabric with the contended data plane on
//!   and bandwidth-aware packing: every dispatch starts a flow and
//!   re-plans others, and every round runs the policy stack;
//! * **classic** — the paper cluster, no data plane, the classic stack;
//! * **uncached** — classic with the plan cache off, so every decision
//!   runs its searches.
//!
//! What still allocates per decision is what the `Scheduler` API forces
//! (the `Vec` `schedule_round` returns, `Outcome::candidates`) and
//! amortised growth of result series; a search allocates nothing once its
//! scratch has grown, so classic and uncached count the same. A budget
//! breach means a per-event `Vec` crept back onto the dispatch path.
//!
//! The allocator counts only the thread that runs the simulation, so the
//! test harness's other threads cannot move the figure. Counts are
//! deterministic for a given toolchain; the budgets sit just above the
//! measured values.

use esg::core::{BandwidthAwarePacking, EsgScheduler};
use esg::prelude::*;
use esg::sim::{DataPlaneConfig, Outcome, QueueKey};
use esg_alloc_count::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Forwards to the inner scheduler and meters allocations between the
/// first round at or after `from_ms` and the last round of the run.
struct Metered<S> {
    inner: S,
    from_ms: f64,
    /// Allocation count at the first metered round.
    first: Option<u64>,
    /// Allocation count after the latest metered round.
    last: u64,
    /// Decisions returned by metered rounds.
    decisions: u64,
}

impl<S: Scheduler> Scheduler for Metered<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }
    fn schedule(&mut self, ctx: &SchedCtx<'_>) -> Outcome {
        self.inner.schedule(ctx)
    }
    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
        self.inner.place(ctx, config)
    }
    fn schedule_round(&mut self, ctx: &RoundCtx<'_>) -> Vec<(QueueKey, Outcome)> {
        if self.first.is_none() && ctx.now_ms >= self.from_ms {
            self.first = Some(esg_alloc_count::count());
        }
        let decisions = self.inner.schedule_round(ctx);
        if self.first.is_some() {
            self.decisions += decisions.len() as u64;
            self.last = esg_alloc_count::count();
        }
        decisions
    }
    fn on_event(&mut self, event: &SchedulerEvent<'_>) {
        self.inner.on_event(event);
    }
    fn on_run_start(&mut self) {
        self.inner.on_run_start();
    }
    fn stats(&self) -> SchedulerStats {
        self.inner.stats()
    }
}

/// Runs `sched` over `workload` and returns steady-state allocation calls
/// per decision (second half of the arrival window).
fn allocs_per_decision(
    env: &SimEnv,
    cfg: SimConfig,
    sched: EsgScheduler,
    workload: &Workload,
    window_ms: f64,
) -> f64 {
    let mut metered = Metered {
        inner: sched,
        from_ms: window_ms / 2.0,
        first: None,
        last: 0,
        decisions: 0,
    };
    esg_alloc_count::start();
    let result = Simulation::new(env, cfg, &mut metered, workload).run();
    esg_alloc_count::stop();
    assert_eq!(
        result.total_completed(),
        result.arrivals,
        "every invocation completes"
    );
    let first = metered.first.expect("the second half holds decisions");
    assert!(metered.decisions > 5_000, "{} decisions", metered.decisions);
    (metered.last - first) as f64 / metered.decisions as f64
}

const WINDOW_MS: f64 = 60_000.0;

fn workload(class: WorkloadClass, seed: u64) -> Workload {
    shaped_stream(
        class,
        TrafficShape::Steady,
        &esg::model::standard_app_ids(),
        seed,
    )
    .until_ms(WINDOW_MS)
}

/// Fabric: 22.73 allocation calls per decision on the path before the
/// data-plane member index, the stack-owned policy buffers and the
/// recycled platform buffers; 1.243 since searches and batch-hold
/// evaluation stopped allocating. The rest are the per-round `Vec` and
/// the candidate lists.
const FABRIC_BEFORE: f64 = 22.73;
const FABRIC_BUDGET: f64 = 1.25;

/// Classic: 13.94 before the platform buffers, 3.028 while each search
/// allocated its paths and each batch-hold evaluation its batch list,
/// 1.982 since.
const CLASSIC_BEFORE: f64 = 13.94;
const CLASSIC_BUDGET: f64 = 1.99;

/// Uncached: 10.851 while each search allocated its paths, candidates
/// and `minRSC`; 1.982 since, the same as with the cache.
const UNCACHED_BEFORE: f64 = 10.851;
const UNCACHED_BUDGET: f64 = 1.99;

// Each budget is at most a third of the old path's count.
const _: () = assert!(FABRIC_BUDGET * 3.0 <= FABRIC_BEFORE);
const _: () = assert!(CLASSIC_BUDGET * 3.0 <= CLASSIC_BEFORE);
const _: () = assert!(UNCACHED_BUDGET * 3.0 <= UNCACHED_BEFORE);

#[test]
fn fabric_decisions_stay_within_the_allocation_budget() {
    let narrow = NodeClass::a100()
        .with_bandwidth(0.2, 0.2, 300.0)
        .with_staging_mb(32.0);
    let mut env = SimEnv::standard(SloClass::Moderate);
    env.transfer = TransferModel {
        local_base_ms: 0.2,
        local_ms_per_mb: 1.0,
        remote_base_ms: 5.0,
        remote_ms_per_mb: 10.0,
    };
    let cfg = SimConfig {
        cluster: Some(
            ClusterSpec::new("split-fabric")
                .with(narrow, 4)
                .with(NodeClass::a100(), 4),
        ),
        data_plane: Some(DataPlaneConfig::default()),
        seed: 42,
        ..SimConfig::default()
    };
    let sched = EsgScheduler::new().with_policy(PolicyStack::new().with(
        BandwidthAwarePacking::new(BandwidthPackingConfig {
            contention_bias: 0.6,
            defer_queue_depth: 6,
            ..BandwidthPackingConfig::default()
        }),
    ));
    let w = workload(WorkloadClass::Heavy, 42);
    let per = allocs_per_decision(&env, cfg, sched, &w, WINDOW_MS);
    println!("fabric: {per:.3} allocation calls per decision");
    assert!(per <= FABRIC_BUDGET, "fabric: {per:.3} > {FABRIC_BUDGET}");
}

#[test]
fn classic_decisions_stay_within_the_allocation_budget() {
    let env = SimEnv::standard(SloClass::Moderate);
    let cfg = SimConfig {
        seed: 42,
        ..SimConfig::default()
    };
    let w = workload(WorkloadClass::Heavy, 42);
    let per = allocs_per_decision(&env, cfg, EsgScheduler::new(), &w, WINDOW_MS);
    println!("classic: {per:.3} allocation calls per decision");
    assert!(
        per <= CLASSIC_BUDGET,
        "classic: {per:.3} > {CLASSIC_BUDGET}"
    );
}

#[test]
fn uncached_decisions_stay_within_the_allocation_budget() {
    let env = SimEnv::standard(SloClass::Moderate);
    let cfg = SimConfig {
        seed: 42,
        ..SimConfig::default()
    };
    let w = workload(WorkloadClass::Heavy, 42);
    let sched = EsgScheduler::new().without_plan_cache();
    let per = allocs_per_decision(&env, cfg, sched, &w, WINDOW_MS);
    println!("uncached: {per:.3} allocation calls per decision");
    assert!(
        per <= UNCACHED_BUDGET,
        "uncached: {per:.3} > {UNCACHED_BUDGET}"
    );
}
