//! What a scheduler sees of a decision, and what it may keep across runs.
//!
//! * The platform builds each queue's `QueueView` in one place: every
//!   placement of a round decision sees the view, instant and environment
//!   fingerprint the decision saw, and a recheck retry sees the queue as
//!   it is at the retry's instant.
//! * A baseline reused for another run, on the same environment or on
//!   another one (more apps, another SLO class), decides exactly as a
//!   fresh one does: it drops every share, rate, plan and memo of the
//!   last run when the next one starts.

use esg::baselines::bo::BoOptimizer;
use esg::model::{InvocationId, NodeClass};
use esg::prelude::*;
use esg::sim::{JobView, Outcome, QueueKey};
use std::collections::HashMap;

/// An owned copy of what one `SchedCtx` showed.
#[derive(Clone, Debug, PartialEq)]
struct Seen {
    now_ms: f64,
    key: QueueKey,
    jobs: Vec<JobView>,
    function: FnId,
    slo_ms: f64,
    base_latency_ms: f64,
    queue_interval_ms: Option<f64>,
    env_fingerprint: u64,
}

impl Seen {
    fn of(ctx: &SchedCtx<'_>) -> Seen {
        let q = &ctx.queue;
        Seen {
            now_ms: ctx.now_ms,
            key: q.key,
            jobs: q.jobs.to_vec(),
            function: q.function,
            slo_ms: q.slo_ms,
            base_latency_ms: q.base_latency_ms,
            queue_interval_ms: q.queue_interval_ms,
            env_fingerprint: ctx.env_fingerprint,
        }
    }
}

/// Asks for half a node per task, so that a loaded, churning cluster
/// often cannot place it and queues park, and checks every context that
/// `place` receives.
#[derive(Default)]
struct Recorder {
    /// The latest decision's context; cleared by the recheck tick that
    /// precedes the retries of parked queues.
    decided: Option<Seen>,
    /// Each queue's invocations, oldest first, kept from the events.
    queues: HashMap<QueueKey, Vec<InvocationId>>,
    /// Contexts a round decision's placement received.
    round_places: usize,
    /// Contexts a recheck retry's placement received.
    retry_places: usize,
}

impl Scheduler for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }

    fn capabilities(&self) -> Capabilities {
        MinScheduler.capabilities()
    }

    fn schedule(&mut self, ctx: &SchedCtx<'_>) -> Outcome {
        self.decided = Some(Seen::of(ctx));
        Outcome::single(Config::new(2, 8, 4), 1)
    }

    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
        let seen = Seen::of(ctx);
        match &self.decided {
            Some(decided) => {
                assert_eq!(&seen, decided, "placement saw another context");
                self.round_places += 1;
            }
            None => {
                // A retry: the view must be refilled at this instant.
                let live: Vec<InvocationId> = seen.jobs.iter().map(|j| j.invocation).collect();
                assert_eq!(live, self.queues[&seen.key], "retry saw stale jobs");
                for j in &seen.jobs {
                    let slack = j.invocation_arrival_ms + seen.slo_ms - seen.now_ms;
                    assert!(
                        (j.slack_ms - slack).abs() < 1e-3,
                        "retry at {} ms saw slack {} instead of {slack}",
                        seen.now_ms,
                        j.slack_ms
                    );
                    assert!(j.ready_at_ms <= seen.now_ms);
                }
                self.retry_places += 1;
            }
        }
        ctx.cluster.most_free(config.resources())
    }

    fn on_event(&mut self, event: &SchedulerEvent<'_>) {
        match *event {
            SchedulerEvent::JobArrived {
                key, invocation, ..
            } => self.queues.entry(key).or_default().push(invocation),
            SchedulerEvent::Dispatched {
                key, invocations, ..
            }
            | SchedulerEvent::QueueShed {
                key, invocations, ..
            } => {
                let queue = self.queues.get_mut(&key).expect("a queued key");
                queue.retain(|i| !invocations.contains(i));
            }
            SchedulerEvent::RecheckTick { .. } => self.decided = None,
            _ => {}
        }
    }
}

#[test]
fn placement_and_retries_see_the_view_the_platform_built_for_them() {
    let env = SimEnv::standard(SloClass::Moderate);
    let workload = WorkloadGen::new(WorkloadClass::Heavy, esg::model::standard_app_ids(), 7)
        .generate_for(3_000.0);
    let cfg = SimConfig {
        cluster: Some(ClusterSpec::mixed_mig()),
        churn: ChurnPlan::none()
            .drain(800.0, NodeId(0))
            .drain(1_500.0, NodeId(9))
            .join(1_200.0, NodeClass::v100()),
        ..SimConfig::default()
    };
    let mut recorder = Recorder::default();
    let r =
        run_simulation(&env, cfg, &mut recorder, &workload, "recorder", None).expect("valid run");
    assert!(r.rechecks > 0, "the run must park queues");
    assert!(recorder.round_places > 0);
    assert!(
        recorder.retry_places > 0,
        "the run must retry parked queues"
    );
}

/// A small grid keeps the baselines' searches test-sized.
fn grid() -> ConfigGrid {
    ConfigGrid::new(vec![1, 2, 4], vec![1, 2, 4, 8], vec![1, 2])
}

/// Runs `sched` on `env` over its apps' arrivals; returns the canonical
/// result and the dispatch digest.
fn run(env: &SimEnv, sched: &mut dyn Scheduler) -> (String, u64) {
    let apps = (0..env.apps.len() as u32).map(AppId).collect();
    let workload = WorkloadGen::new(WorkloadClass::Normal, apps, 11).generate_for(3_000.0);
    let mut digest = TraceDigest::new();
    let r = run_simulation(
        env,
        SimConfig::default(),
        sched,
        &workload,
        "reuse",
        Some(&mut digest),
    )
    .expect("valid run");
    (r.canonical(), digest.digest())
}

/// A fresh baseline scheduler, with test-sized search budgets.
fn baseline(name: &str) -> Box<dyn Scheduler> {
    match name {
        "INFless" => Box::new(InflessScheduler::new()),
        "FaST-GShare" => Box::new(FastGShareScheduler::new()),
        "Orion" => Box::new(OrionScheduler::new(20.0)),
        "Aquatope" => Box::new(AquatopeScheduler::new(BoOptimizer::tiny(42))),
        other => unreachable!("unknown baseline {other}"),
    }
}

#[test]
fn a_baseline_reused_on_another_environment_decides_as_a_fresh_one() {
    let env_a = SimEnv::with_grid(SloClass::Moderate, grid());
    // One more app, under another SLO class.
    let mut env_b = SimEnv::with_grid(SloClass::Strict, grid());
    let extra = AppSpec::pipeline(
        "extra",
        vec![env_b.apps[0].nodes[0], env_b.apps[1].nodes[1]],
    );
    env_b.apps.push(extra);
    for name in ["INFless", "FaST-GShare", "Orion", "Aquatope"] {
        let mut reused = baseline(name);
        run(&env_a, reused.as_mut());
        let (canonical, digest) = run(&env_b, reused.as_mut());
        let (fresh_canonical, fresh_digest) = run(&env_b, baseline(name).as_mut());
        assert_eq!(digest, fresh_digest, "{name}: dispatches moved");
        assert_eq!(canonical, fresh_canonical, "{name}: results moved");
    }
}

#[test]
fn a_baseline_reused_on_the_same_environment_decides_as_a_fresh_one() {
    let env = SimEnv::with_grid(SloClass::Moderate, grid());
    for name in ["INFless", "FaST-GShare", "Orion", "Aquatope"] {
        let mut reused = baseline(name);
        let first = run(&env, reused.as_mut());
        let second = run(&env, reused.as_mut());
        assert_eq!(second.1, first.1, "{name}: dispatches moved");
        assert_eq!(second.0, first.0, "{name}: results moved");
    }
}
