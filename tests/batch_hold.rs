//! The batch-formation hold contract (`Outcome::hold`, `BatchHold`).
//!
//! A held queue is re-decided exactly once: at the hold's deadline, at
//! the enqueue that brings it to `min_jobs`, or after a shed killed its
//! jobs — never before the holding decision's instant plus its charged
//! overhead. Outcomes without a hold keep the platform's polling: a
//! plain skip is re-decided every `idle_backoff_ms`.

use esg::prelude::*;
use esg::sim::platform::IDLE_BACKOFF_MS;
use esg::sim::{decision_time, AdmissionDecision, BatchHold, Outcome, QueueKey};
use esg::workload::Arrival;

/// Expansions the scripted holds report: a charged overhead well below
/// the 1 ms idle back-off, but far from zero.
const HOLD_EXPANSIONS: u64 = 1_000;

/// Simulated overhead the platform charges a decision of
/// [`HOLD_EXPANSIONS`], ms.
fn hold_overhead_ms() -> f64 {
    decision_time(HOLD_EXPANSIONS).as_ms()
}

fn arrivals(app: u32, at_ms: &[f64]) -> Workload {
    Workload {
        arrivals: at_ms
            .iter()
            .map(|&at_ms| Arrival {
                at_ms,
                app: AppId(app),
            })
            .collect(),
    }
}

/// A scripted scheduler: the first decision of `target` returns
/// `first`; every other decision dispatches the minimum configuration.
/// Records the instant of every decision of `target`.
struct Scripted {
    target: QueueKey,
    first: Option<Outcome>,
    calls: Vec<f64>,
}

impl Scripted {
    fn new(target: QueueKey, first: Outcome) -> Self {
        Scripted {
            target,
            first: Some(first),
            calls: Vec::new(),
        }
    }
}

impl Scheduler for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn capabilities(&self) -> Capabilities {
        MinScheduler.capabilities()
    }

    fn schedule(&mut self, ctx: &SchedCtx<'_>) -> Outcome {
        if ctx.queue.key == self.target {
            self.calls.push(ctx.now_ms);
            if let Some(first) = self.first.take() {
                return first;
            }
        }
        Outcome::single(Config::MIN, 1)
    }

    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
        ctx.cluster.most_free(config.resources())
    }
}

fn stage(app: u32, stage: usize) -> QueueKey {
    QueueKey {
        app: AppId(app),
        stage,
    }
}

fn hold(until_ms: f64, min_jobs: u32) -> Outcome {
    Outcome {
        expansions: HOLD_EXPANSIONS,
        hold: Some(BatchHold { until_ms, min_jobs }),
        ..Outcome::default()
    }
}

/// Runs `sched` over `w` on the standard environment and returns the
/// recorded decision instants of its target queue.
fn run(mut sched: Scripted, w: &Workload) -> Vec<f64> {
    let env = SimEnv::standard(SloClass::Relaxed);
    let r =
        run_simulation(&env, SimConfig::default(), &mut sched, w, "hold", None).expect("valid run");
    assert_eq!(r.total_completed(), w.len() as u64, "held work must finish");
    sched.calls
}

#[test]
fn held_queue_is_redecided_once_at_its_deadline() {
    // Two more arrivals land inside the hold but never reach min_jobs.
    let w = arrivals(0, &[10.0, 20.0, 30.0]);
    let calls = run(Scripted::new(stage(0, 0), hold(60.0004, 100)), &w);
    assert_eq!(calls[0], 10.0);
    // Exactly one re-decision, on the deadline rounded up to the µs grid.
    assert_eq!(calls[1], 60.001, "decisions: {calls:?}");
}

#[test]
fn held_queue_wakes_at_the_enqueue_that_reaches_min_jobs() {
    let w = arrivals(0, &[10.0, 12.0, 14.5, 700.0]);
    let calls = run(Scripted::new(stage(0, 0), hold(500.0, 3)), &w);
    // The second arrival leaves the queue below min_jobs: no decision.
    assert_eq!(&calls[..2], &[10.0, 14.5], "decisions: {calls:?}");
}

#[test]
fn early_wake_waits_for_the_holding_decisions_overhead() {
    // min_jobs is reached 0.2 ms into a hold whose decision charged
    // more than that: the re-decision lands on decision + overhead.
    let w = arrivals(0, &[10.0, 10.1, 10.2]);
    let calls = run(Scripted::new(stage(0, 0), hold(500.0, 3)), &w);
    let earliest = SimTime::from_ms(10.0 + hold_overhead_ms()).as_ms();
    assert!(
        earliest > 10.2,
        "overhead {} ms too small",
        hold_overhead_ms()
    );
    assert_eq!(&calls[..2], &[10.0, earliest], "decisions: {calls:?}");
}

/// Skips `target` (no hold) until `until_ms`, then dispatches.
struct Skipper {
    target: QueueKey,
    until_ms: f64,
    calls: Vec<f64>,
}

impl Scheduler for Skipper {
    fn name(&self) -> &'static str {
        "skipper"
    }

    fn capabilities(&self) -> Capabilities {
        MinScheduler.capabilities()
    }

    fn schedule(&mut self, ctx: &SchedCtx<'_>) -> Outcome {
        if ctx.queue.key == self.target {
            self.calls.push(ctx.now_ms);
            if ctx.now_ms < self.until_ms {
                return Outcome::skip();
            }
        }
        Outcome::single(Config::MIN, 1)
    }

    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
        ctx.cluster.most_free(config.resources())
    }
}

#[test]
fn plain_skip_is_still_repolled_every_idle_backoff() {
    let env = SimEnv::standard(SloClass::Relaxed);
    let cfg = SimConfig::default();
    let backoff = IDLE_BACKOFF_MS;
    let mut s = Skipper {
        target: stage(0, 0),
        until_ms: 20.0,
        calls: Vec::new(),
    };
    let r =
        run_simulation(&env, cfg, &mut s, &arrivals(0, &[10.0]), "skip", None).expect("valid run");
    assert_eq!(r.total_completed(), 1);
    let expected: Vec<f64> = (0..=10).map(|i| 10.0 + f64::from(i) * backoff).collect();
    assert_eq!(s.calls, expected);
}

/// An admission stage that sheds stage 0 of app 0 once, at or after
/// `at_ms`.
#[derive(Clone)]
struct ShedOnce {
    at_ms: f64,
    done: bool,
}

impl RoundPolicy for ShedOnce {
    fn name(&self) -> &'static str {
        "shed-once"
    }

    fn admit(&mut self, ctx: &RoundCtx<'_>, plan: &mut AdmissionPlan) {
        if !self.done && ctx.now_ms >= self.at_ms {
            if let Some(i) = ctx.queues.iter().position(|q| q.key == stage(0, 0)) {
                plan.set(
                    i,
                    AdmissionDecision::Shed {
                        reason: ShedReason::Overload,
                    },
                );
                self.done = true;
            }
        }
    }
}

/// Defers stage 0 to `defer_ms` and holds stage 1 for a long time on
/// their first decisions; records every stage-1 decision.
struct ShedScript {
    policy: PolicyStack,
    defer_ms: f64,
    first: [bool; 2],
    held_calls: Vec<f64>,
}

impl Scheduler for ShedScript {
    fn name(&self) -> &'static str {
        "shed-script"
    }

    fn capabilities(&self) -> Capabilities {
        MinScheduler.capabilities()
    }

    fn schedule(&mut self, ctx: &SchedCtx<'_>) -> Outcome {
        let s = ctx.queue.key.stage;
        if s == 1 {
            self.held_calls.push(ctx.now_ms);
        }
        if std::mem::take(&mut self.first[s]) {
            return if s == 0 {
                Outcome::defer(self.defer_ms)
            } else {
                hold(1_000.0, 100)
            };
        }
        Outcome::single(Config::MIN, 1)
    }

    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
        ctx.cluster.most_free(config.resources())
    }

    fn round_policy(&mut self) -> Option<&mut PolicyStack> {
        Some(&mut self.policy)
    }
}

#[test]
fn a_shed_drops_the_hold_so_the_next_arrival_is_decided_at_once() {
    // One app with two parallel entry stages: every invocation queues a
    // job in both, so shedding stage 0 purges the held stage-1 job.
    let mut env = SimEnv::standard(SloClass::Relaxed);
    let fns = env.apps[0].nodes.clone();
    env.apps = vec![AppSpec::dag("twin", vec![fns[0], fns[1]], vec![])];
    let mut s = ShedScript {
        policy: PolicyStack::new().with(ShedOnce {
            at_ms: 30.0,
            done: false,
        }),
        defer_ms: 30.0,
        first: [true, true],
        held_calls: Vec::new(),
    };
    let w = arrivals(0, &[10.0, 40.0]);
    // The oracle also checks that the purge takes the emptied stage-1
    // queue off the controller's eligible set before its hold releases.
    let cfg = SimConfig {
        validate_cluster_state: true,
        ..SimConfig::default()
    };
    let r = run_simulation(&env, cfg, &mut s, &w, "shed", None).expect("valid run");
    assert_eq!(r.shed_invocations, 1, "the first invocation is shed");
    assert_eq!(r.total_completed(), 1, "the second one completes");
    // Held at 10 ms; the shed at 30 ms empties the queue; the fresh
    // arrival at 40 ms is decided on arrival, not at the 1 s deadline.
    assert_eq!(s.held_calls, vec![10.0, 40.0]);
}

#[test]
fn esg_replay_makes_few_decisions_per_dispatch() {
    // Two trace-minutes of the `scale/replay` stream: without polling,
    // a batch-formation hold costs one decision, not one per back-off.
    let env = SimEnv::standard(SloClass::Moderate);
    let trace = AzureLikeTrace {
        mean_per_minute: 2_500.0,
        period_minutes: 120.0,
        burst_probability: 0.02,
        seed: 42,
        ..AzureLikeTrace::default()
    };
    let cfg = SimConfig {
        seed: 42,
        ..SimConfig::default()
    };
    let mut sched = EsgScheduler::new();
    let stream = trace.stream(esg::model::standard_app_ids(), Some(2));
    let r = Simulation::from_stream(&env, cfg, &mut sched, stream).run();
    assert!(r.dispatches > 0);
    assert_eq!(r.arrivals, r.total_completed() + r.shed_invocations);
    let per_dispatch = r.overhead_ms.len() as f64 / r.dispatches as f64;
    assert!(
        per_dispatch <= 1.5,
        "{} decisions for {} dispatches ({per_dispatch:.2} per dispatch)",
        r.overhead_ms.len(),
        r.dispatches
    );
}
