//! Properties of the composable round-policy pipeline.
//!
//! 1. **Neutral stacks are invisible** — a `PolicyStack` whose admission
//!    stage admits everything and whose rank stage replays classic scan
//!    order must be *dispatch-trace-identical* (FNV digests, the PR 4
//!    harness) to the provided default driver. This pins the full
//!    pipeline path (admit → rank → dispatch through stage merging)
//!    against the classic fast path, for ESG and a baseline.
//! 2. **`SloAdmission` never sheds a feasible queue** — an oracle
//!    recomputed independently from the profile table and node classes
//!    (brute enumeration over nodes × entries) must agree that every
//!    shed queue was hopeless at shed time.
//! 3. Shedding is observable end to end: metrics, `SchedulerStats`, and
//!    `QueueShed` events (through the `QueueHealthMonitor` counters)
//!    stay consistent.
//! 4. **Observers change no decision** — a run under the digest, the
//!    recorder or the monitor equals the unobserved run.

use esg::prelude::*;
use esg::sim::AdmissionPlan;

/// An admission stage that admits everything — through the non-default
/// code path (an explicit plan rewrite), so the stack pipeline is
/// genuinely exercised.
struct AdmitEverything;

impl RoundPolicy for AdmitEverything {
    fn name(&self) -> &'static str {
        "admit-everything"
    }
    fn admit(&mut self, ctx: &RoundCtx<'_>, plan: &mut AdmissionPlan) {
        plan.reset(ctx.queues.len());
    }
}

/// A rank stage that replays classic scan order explicitly.
struct ClassicOrder;

impl RoundPolicy for ClassicOrder {
    fn name(&self) -> &'static str {
        "classic-order"
    }
    fn rank(&mut self, _ctx: &RoundCtx<'_>, admitted: &[usize], order: &mut Vec<usize>) {
        order.extend_from_slice(admitted);
    }
}

fn neutral_stack() -> PolicyStack {
    PolicyStack::new().with(AdmitEverything).with(ClassicOrder)
}

const SHAPES: [TrafficShape; 3] = [
    TrafficShape::Steady,
    TrafficShape::Bursty,
    TrafficShape::AzureReplay,
];

fn specs() -> [ClusterSpec; 3] {
    [
        ClusterSpec::paper(),
        ClusterSpec::mixed_mig(),
        ClusterSpec::skewed(),
    ]
}

fn run_traced(
    mut sched: Box<dyn Scheduler>,
    spec: &ClusterSpec,
    shape: TrafficShape,
    seed: u64,
) -> (String, u64) {
    let env = SimEnv::standard(SloClass::Moderate);
    let workload = shaped_workload(
        WorkloadClass::Light,
        shape,
        &esg::model::standard_app_ids(),
        seed,
        2_000.0,
    );
    let cfg = SimConfig {
        cluster: Some(spec.clone()),
        seed,
        ..SimConfig::default()
    };
    let mut digest = TraceDigest::new();
    let r = run_simulation(
        &env,
        cfg,
        sched.as_mut(),
        &workload,
        "policy-stack",
        Some(&mut digest),
    )
    .expect("valid run");
    (r.canonical(), digest.digest())
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    /// Admit-everything + classic-order stacks are bit-identical to the
    /// provided default driver: same dispatch-trace FNV digest, same
    /// canonical results. Exercised for ESG (plan cache, adaptive
    /// batching) and INFless (a migrated baseline).
    #[test]
    fn neutral_stack_replays_the_default_driver(
        seed in 0u64..1_000,
        spec_idx in 0usize..3,
        shape_idx in 0usize..3,
        baseline in proptest::prelude::any::<bool>(),
    ) {
        let spec = specs()[spec_idx].clone();
        let shape = SHAPES[shape_idx];
        let default_sched: Box<dyn Scheduler> = if baseline {
            Box::new(InflessScheduler::new())
        } else {
            Box::new(EsgScheduler::new())
        };
        let stacked: Box<dyn Scheduler> = if baseline {
            Box::new(InflessScheduler::new().with_policy(neutral_stack()))
        } else {
            Box::new(EsgScheduler::new().with_policy(neutral_stack()))
        };
        let (res_a, trace_a) = run_traced(default_sched, &spec, shape, seed);
        let (res_b, trace_b) = run_traced(stacked, &spec, shape, seed);
        proptest::prop_assert_eq!(trace_a, trace_b, "dispatch traces diverged");
        proptest::prop_assert_eq!(res_a, res_b);
    }

    /// `SloAdmission` never sheds a queue the independent oracle judges
    /// feasible. The oracle brute-enumerates (online node × profile
    /// entry) pairs at shed time — fit against node totals, latency
    /// scaled by the class speed — and is checked inside the admission
    /// call itself, so every shed decision of the whole run is audited.
    #[test]
    fn slo_admission_never_sheds_feasible_queues(
        seed in 0u64..1_000,
        spec_idx in 0usize..3,
        shape_idx in 0usize..3,
    ) {
        /// Wraps SloAdmission and audits every Shed verdict in place.
        struct OracleChecked {
            inner: SloAdmission,
        }

        impl RoundPolicy for OracleChecked {
            fn name(&self) -> &'static str {
                "oracle-checked-admission"
            }
            fn admit(&mut self, ctx: &RoundCtx<'_>, plan: &mut AdmissionPlan) {
                self.inner.admit(ctx, plan);
                for (i, d) in plan.decisions().iter().enumerate() {
                    if !matches!(d, esg::sim::AdmissionDecision::Shed { .. }) {
                        continue;
                    }
                    let q = &ctx.queues[i];
                    // Independent oracle: brute enumeration over every
                    // job of the shed queue (shedding kills ALL of its
                    // invocations, so each one must be hopeless on its
                    // own slack), no shared helper with the policy
                    // under test.
                    for j in q.jobs {
                        let slack = j.slack_ms;
                        let feasible = ctx.cluster.nodes().iter().any(|n| {
                            n.online
                                && ctx.profiles.profile(q.function).entries().iter().any(|e| {
                                    n.total.contains(e.config.resources())
                                        && e.latency_ms * n.speed <= slack
                                })
                        });
                        assert!(
                            !feasible,
                            "SloAdmission shed queue {:?} holding a feasible \
invocation {:?} (slack {slack} ms)",
                            q.key, j.invocation
                        );
                    }
                }
            }
            fn stats(&self) -> esg::sim::PolicyStats {
                self.inner.stats()
            }
        }

        let spec = specs()[spec_idx].clone();
        let shape = SHAPES[shape_idx];
        let mut sched = EsgScheduler::new().with_policy(PolicyStack::new().with(OracleChecked {
            inner: SloAdmission::default(),
        }));
        // Tight SLO + bursty shapes manufacture hopeless queues; the
        // in-place oracle asserts on any false shed.
        let env = SimEnv::standard(SloClass::Strict);
        let workload = shaped_workload(
            WorkloadClass::Heavy,
            shape,
            &esg::model::standard_app_ids(),
            seed,
            2_000.0,
        );
        let cfg = SimConfig {
            cluster: Some(spec),
            seed,
            ..SimConfig::default()
        };
        let r = run_simulation(&env, cfg, &mut sched, &workload, "oracle-admission", None)
            .expect("valid run");
        // Accounting consistency: every shed invocation left the system,
        // and policy-side counters can only see the *queue-level* sheds
        // (platform-side purges of sibling jobs are extra).
        proptest::prop_assert_eq!(
            r.arrivals,
            r.total_completed() + r.shed_invocations,
            "every arrival either completed or was shed"
        );
        proptest::prop_assert!(r.shed_jobs >= r.scheduler_stats.policy.jobs_shed);
    }
}

#[test]
fn shedding_is_observable_end_to_end() {
    // A workload whose deadlines are all blown by construction: strict
    // SLO on a cluster of absurdly slow nodes. Admission must shed, and
    // every observability surface must agree.
    let env = SimEnv::standard(SloClass::Strict);
    let workload =
        WorkloadGen::new(WorkloadClass::Normal, esg::model::standard_app_ids(), 3).generate(40);
    let slow = NodeClass::a100().with_speed(500.0).named("glacial");
    let cfg = SimConfig {
        cluster: Some(ClusterSpec::new("glacial").with(slow, 4)),
        ..SimConfig::default()
    };
    let mut sched =
        EsgScheduler::new().with_policy(PolicyStack::new().with(SloAdmission::default()));
    let mut monitor = QueueHealthMonitor::new(1_000.0);
    let r = run_simulation(
        &env,
        cfg,
        &mut sched,
        &workload,
        "shed-everything",
        Some(&mut monitor),
    )
    .expect("valid run");
    assert_eq!(r.arrivals, 40);
    assert_eq!(r.shed_invocations, 40, "every deadline is unattainable");
    assert_eq!(r.total_completed(), 0);
    assert_eq!(r.shed_rate(), 1.0);
    assert!(
        r.scheduler_stats.policy.queues_shed > 0,
        "policy counters surface"
    );
    // The health monitor saw the QueueShed events and drained backlogs.
    let last = monitor
        .finish(r.makespan_ms)
        .pop()
        .expect("closing snapshot");
    let shed_jobs: u64 = last.queues.iter().map(|q| q.counters.shed_jobs).sum();
    assert_eq!(shed_jobs, r.shed_jobs);
    assert_eq!(last.total_backlog, 0);
    // Shed counters are part of the canonical encoding.
    let dump = r.canonical();
    assert!(dump.contains("shed_invocations: 40"), "{dump}");
}

#[test]
fn deferring_admission_variant_makes_progress() {
    // shed = false defers hopeless queues instead; the run must still
    // terminate (forced-minimum recheck path keeps draining) and shed
    // nothing.
    let env = SimEnv::standard(SloClass::Strict);
    let workload =
        WorkloadGen::new(WorkloadClass::Light, esg::model::standard_app_ids(), 9).generate(10);
    let cfg = SimConfig {
        max_sim_ms: 600_000.0,
        ..SimConfig::default()
    };
    let sched = EsgScheduler::new().with_policy(PolicyStack::new().with(SloAdmission::new(
        SloAdmissionConfig {
            shed: false,
            ..SloAdmissionConfig::default()
        },
    )));
    let mut s = sched;
    let r = run_simulation(&env, cfg, &mut s, &workload, "defer-only", None).expect("valid run");
    assert_eq!(r.shed_invocations, 0);
    assert_eq!(r.total_completed(), 10, "deferred work still completes");
}

#[test]
fn observers_change_no_decision() {
    // One run with churn, the contended data plane and a policy stack.
    // An observer sees only `&` data, never the scheduler, so the run
    // under each observer equals the unobserved one.
    fn run(sched: &mut dyn Scheduler, observer: Option<&mut dyn Observer>) -> ExperimentResult {
        let env = SimEnv::standard(SloClass::Strict);
        let workload =
            WorkloadGen::new(WorkloadClass::Normal, esg::model::standard_app_ids(), 4).generate(60);
        let cfg = SimConfig {
            churn: ChurnPlan::none()
                .drain(1_000.0, NodeId(3))
                .join(2_000.0, NodeClass::t4()),
            data_plane: Some(DataPlaneConfig::default()),
            ..SimConfig::default()
        };
        run_simulation(&env, cfg, sched, &workload, "observed", observer).expect("valid run")
    }
    let esg = |warm_bias| -> Box<dyn Scheduler> {
        let pack = BandwidthPackingConfig {
            warm_bias,
            ..BandwidthPackingConfig::default()
        };
        let stack = PolicyStack::new()
            .with(SloAdmission::default())
            .with(BandwidthAwarePacking::new(pack));
        Box::new(EsgScheduler::new().with_policy(stack))
    };
    let bare = run(esg(0.25).as_mut(), None);
    let classic = run(&mut EsgScheduler::new(), None);
    assert_ne!(bare.canonical(), classic.canonical(), "the stack decides");
    assert!(bare.transfers.started > 0, "the data plane moves bytes");

    let path = std::env::temp_dir().join(format!("esg-observed-{}.json", std::process::id()));
    let mut digest = TraceDigest::new();
    let mut recorder = TraceRecorder::new(path.clone());
    let mut monitor = QueueHealthMonitor::new(1_000.0);
    for observer in [
        &mut digest as &mut dyn Observer,
        &mut recorder,
        &mut monitor,
    ] {
        let observed = run(esg(0.25).as_mut(), Some(observer));
        assert_eq!(observed.canonical(), bare.canonical());
    }
    let recorded = TraceFile::load(recorder.finish().expect("trace written")).expect("loads");
    std::fs::remove_file(&path).ok();
    assert!(esg::sim::dispatch_trace(&recorded.events).contains("C n3 drain;"));
    assert_eq!(digest.digest(), recorded.dispatch_digest());
    let last = monitor
        .finish(bare.makespan_ms)
        .pop()
        .expect("closing snapshot");
    let dispatches: u64 = last.queues.iter().map(|q| q.counters.dispatches).sum();
    assert_eq!(dispatches, bare.dispatches);

    // `Traced`, the benchmark crate's wrapper, forwards `round_policy`
    // and `schedule_round`: the stack it wraps drives the run, and
    // `run_simulation` checks that stack's knobs through it.
    let mut traced = esg::sim::Traced::new(esg(0.25));
    assert_eq!(run(&mut traced, None).canonical(), bare.canonical());
    assert_eq!(traced.trace_digest(), digest.digest());
    let env = SimEnv::standard(SloClass::Strict);
    let workload =
        WorkloadGen::new(WorkloadClass::Normal, esg::model::standard_app_ids(), 4).generate(30);
    let mut bad = esg::sim::Traced::new(esg(-1.0));
    match run_simulation(&env, SimConfig::default(), &mut bad, &workload, "bad", None) {
        Err(SimError::InvalidKnob { knob, .. }) => assert_eq!(knob, "policy.warm_bias"),
        other => panic!("{other:?}"),
    }
}
