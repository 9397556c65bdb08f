//! The scheduler plug-in interface: rounds, events, and queries.
//!
//! The platform and schedulers meet at three seams:
//!
//! * **State** — schedulers borrow the platform's incrementally
//!   maintained [`ClusterState`] (see `crate::state`); nothing is
//!   rebuilt or cloned per decision.
//! * **Rounds** — each controller round presents *all* eligible queues
//!   through a [`RoundCtx`]; [`Scheduler::schedule_round`] returns ranked
//!   decisions `(queue, Outcome)` which the platform applies in order
//!   (placement via [`Scheduler::place`], then dispatch). The provided
//!   default replays the classic one-queue-at-a-time contract — it
//!   decides only the first eligible queue via [`Scheduler::schedule`]
//!   and lets the platform re-invoke the round with the rest, so
//!   single-queue algorithms migrate mechanically while cross-queue
//!   policies (global admission, cross-queue packing) can override the
//!   round and see the whole queue set at once.
//! * **Events** — the platform narrates its progress through one
//!   [`Scheduler::on_event`] hook carrying typed [`SchedulerEvent`]s
//!   (arrivals, dispatches, completions, churn, recheck ticks).
//!
//! A scheduling algorithm answers the §3.1 question per queue: a ranked
//! list of configuration candidates (ESG's configuration priority queue)
//! that the platform tries to *place* in rank order (ESG_Dispatch
//! semantics) until one fits; on total failure the queue enters the
//! recheck list. A decision sees one [`SchedCtx`]: the queue's
//! [`QueueView`], the live cluster and the run's [`SimEnv`]; a round's
//! [`RoundCtx`] adds the other eligible queues and the data-plane view.
//! Schedulers report their search effort in *expanded configurations*;
//! [`decision_time`] converts effort to simulated controller time (see
//! the crate docs for the calibration to the paper's §5.3 numbers).

use crate::platform::SimEnv;
use crate::policy::{PolicyStack, PolicyStats, ShedReason};
use crate::state::ClusterState;
use crate::workflow::Job;
use esg_model::{AppId, AppSpec, Config, FnId, InvocationId, NodeId, Resources, SimTime};

/// Identifies one AFW queue: `(application, DAG stage)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueueKey {
    /// Application id.
    pub app: AppId,
    /// Stage index within the app's DAG.
    pub stage: usize,
}

/// A queued job as seen by schedulers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobView {
    /// Owning invocation.
    pub invocation: InvocationId,
    /// When the job entered the queue, ms.
    pub ready_at_ms: f64,
    /// When the owning invocation arrived (start of its SLO clock), ms.
    pub invocation_arrival_ms: f64,
    /// Remaining time until the invocation's deadline, ms (can be negative).
    pub slack_ms: f64,
    /// Node holding this job's input (None = entry stage / remote gateway).
    pub pred_node: Option<NodeId>,
}

/// One AFW queue as a scheduler sees it. The platform builds every view
/// it hands out, to a round and to placement alike, in one place.
///
/// `function`, `slo_ms` and `base_latency_ms` follow from the key and the
/// environment, but stay fields: the platform computes them once per app
/// ([`SimEnv::slo_ms`] walks the app's profiles on every call).
#[derive(Clone, Copy, Debug)]
pub struct QueueView<'a> {
    /// The queue.
    pub key: QueueKey,
    /// Queued jobs, oldest first.
    pub jobs: &'a [JobView],
    /// The function this queue's stage runs.
    pub function: FnId,
    /// End-to-end SLO of the owning application, ms.
    pub slo_ms: f64,
    /// Base latency `L` of the owning application, ms.
    pub base_latency_ms: f64,
    /// Smoothed inter-arrival interval of jobs into this queue, ms
    /// (`None` until two arrivals have been observed). Batching policies
    /// use it to predict how long forming a larger batch would take.
    pub queue_interval_ms: Option<f64>,
}

/// Everything a scheduler may consult when deciding one queue: the queue,
/// the live cluster and the run's environment.
pub struct SchedCtx<'a> {
    /// Current simulated time, ms.
    pub now_ms: f64,
    /// The queue under consideration.
    pub queue: QueueView<'a>,
    /// The platform's live cluster state (borrowed, never copied).
    pub cluster: &'a ClusterState,
    /// The run's environment: profiles, apps (index by `AppId`), catalog,
    /// prices, transfer and noise models.
    pub env: &'a SimEnv,
    /// [`SimEnv::fingerprint`] of `env`: state derived from its apps and
    /// profiles is current exactly when it was derived under this value.
    pub env_fingerprint: u64,
}

impl SchedCtx<'_> {
    /// The app spec of this queue.
    pub fn app_spec(&self) -> &AppSpec {
        &self.env.apps[self.queue.key.app.index()]
    }

    /// Longest waiting time among queued jobs (Algorithm 1's `w`), ms.
    pub fn longest_wait_ms(&self) -> f64 {
        self.queue
            .jobs
            .first()
            .map(|j| (self.now_ms - j.ready_at_ms).max(0.0))
            .unwrap_or(0.0)
    }
}

/// One controller round: every eligible queue, the live cluster and the
/// run's environment. Queues appear in the controller's scan order (the
/// order the classic contract decided them in).
pub struct RoundCtx<'a> {
    /// Current simulated time, ms.
    pub now_ms: f64,
    /// All eligible queues this round (non-empty, not busy, not parked
    /// on the recheck list), in scan order.
    pub queues: &'a [QueueView<'a>],
    /// The platform's live cluster state (borrowed, never copied).
    pub cluster: &'a ClusterState,
    /// The run's environment (see [`SchedCtx::env`]).
    pub env: &'a SimEnv,
    /// [`SimEnv::fingerprint`] of `env` (see [`SchedCtx::env_fingerprint`]).
    pub env_fingerprint: u64,
    /// Live data-plane occupancy (`Some` only when the contended data
    /// plane is enabled via `SimConfig::data_plane`). Bandwidth-aware
    /// policies fold its per-node contention estimates into their
    /// ranking; everything else ignores it.
    pub dataplane: Option<&'a crate::dataplane::DataPlaneView>,
}

impl RoundCtx<'_> {
    /// The single-queue context of `queues[i]` — what
    /// [`Scheduler::schedule`] and [`Scheduler::place`] consume.
    pub fn sched_ctx(&self, i: usize) -> SchedCtx<'_> {
        SchedCtx {
            now_ms: self.now_ms,
            queue: self.queues[i],
            cluster: self.cluster,
            env: self.env,
            env_fingerprint: self.env_fingerprint,
        }
    }
}

/// A typed control-plane notification, delivered through
/// [`Scheduler::on_event`] as the platform applies state changes.
///
/// Events are *informational*: the default handler ignores them.
/// Pre-planning schedulers stash per-invocation plans on `Dispatched`. A run's
/// [`Observer`](crate::Observer) receives the same events.
#[derive(Clone, Copy, Debug)]
pub enum SchedulerEvent<'a> {
    /// A job entered queue `key` (arrival or upstream-stage completion).
    JobArrived {
        /// The queue the job joined.
        key: QueueKey,
        /// The owning invocation.
        invocation: InvocationId,
        /// Simulated time, ms.
        now_ms: f64,
    },
    /// The platform dispatched a task from queue `key` covering
    /// `invocations`, as `config` on `node`.
    Dispatched {
        /// The drained queue.
        key: QueueKey,
        /// The invocations covered by the dispatched batch.
        invocations: &'a [InvocationId],
        /// The dispatched configuration (batch already clamped).
        config: Config,
        /// The hosting node.
        node: NodeId,
        /// Simulated time, ms.
        now_ms: f64,
    },
    /// A task of queue `key` finished on `node` and released its
    /// resources.
    TaskCompleted {
        /// The queue whose task completed.
        key: QueueKey,
        /// The node that hosted it.
        node: NodeId,
        /// The completed task's configuration.
        config: Config,
        /// Simulated time, ms.
        now_ms: f64,
    },
    /// Cluster membership changed: `node` drained (`joined == false`) or
    /// joined (`joined == true`).
    Churn {
        /// The affected node.
        node: NodeId,
        /// Join (true) vs drain (false).
        joined: bool,
        /// Simulated time, ms.
        now_ms: f64,
    },
    /// An admission policy shed queue `key`: the listed invocations were
    /// killed and their jobs (including sibling-stage jobs in other
    /// queues) dropped.
    QueueShed {
        /// The shed queue.
        key: QueueKey,
        /// The invocations killed by this shed.
        invocations: &'a [InvocationId],
        /// Why the admission stage dropped the queue.
        reason: ShedReason,
        /// Simulated time, ms.
        now_ms: f64,
    },
    /// The platform is about to retry the parked (recheck) queues.
    RecheckTick {
        /// Simulated time, ms.
        now_ms: f64,
    },
    /// A data-plane transfer flow activated on `node`'s bandwidth pools
    /// (only emitted when `SimConfig::data_plane` is set).
    TransferStarted {
        /// The destination node.
        node: NodeId,
        /// Total MB of the aggregated flow.
        mb: f64,
        /// Simulated time, ms.
        now_ms: f64,
    },
    /// A dispatched batch's transfer could not reserve staging space on
    /// `node` and queued (FIFO) for the buffer — delayed, never dropped.
    TransferQueued {
        /// The destination node.
        node: NodeId,
        /// Total MB of the aggregated flow.
        mb: f64,
        /// Simulated time, ms.
        now_ms: f64,
    },
    /// A data-plane transfer flow completed on `node` and released its
    /// pool memberships and staging reservation.
    TransferCompleted {
        /// The destination node.
        node: NodeId,
        /// Total MB of the aggregated flow.
        mb: f64,
        /// Simulated time, ms.
        now_ms: f64,
    },
}

impl SchedulerEvent<'_> {
    /// The event's simulated time, ms (every variant carries one).
    ///
    /// ```
    /// use esg_sim::SchedulerEvent;
    /// assert_eq!(SchedulerEvent::RecheckTick { now_ms: 7.5 }.now_ms(), 7.5);
    /// ```
    pub fn now_ms(&self) -> f64 {
        match *self {
            SchedulerEvent::JobArrived { now_ms, .. }
            | SchedulerEvent::Dispatched { now_ms, .. }
            | SchedulerEvent::TaskCompleted { now_ms, .. }
            | SchedulerEvent::Churn { now_ms, .. }
            | SchedulerEvent::QueueShed { now_ms, .. }
            | SchedulerEvent::RecheckTick { now_ms }
            | SchedulerEvent::TransferStarted { now_ms, .. }
            | SchedulerEvent::TransferQueued { now_ms, .. }
            | SchedulerEvent::TransferCompleted { now_ms, .. } => now_ms,
        }
    }
}

/// A batch-formation hold (§3.1: an AFW queue waits for a cost-optimal
/// batch). The held queue is re-decided exactly once, at the first of:
///
/// * `until_ms` (rounded up to the µs grid, and never before the idle
///   back-off or the holding decision's charged overhead has elapsed);
/// * the enqueue that brings the queue to `min_jobs` jobs (but never
///   before the holding decision's instant plus its charged overhead);
/// * a shed that kills any of the queue's jobs (same lower bound).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchHold {
    /// Re-decide the queue at this instant at the latest, ms.
    pub until_ms: f64,
    /// Re-decide the queue as soon as it holds this many jobs.
    pub min_jobs: u32,
}

/// The outcome of a scheduling decision.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Ranked configuration candidates (best first). Empty = skip this
    /// queue for now.
    pub candidates: Vec<Config>,
    /// Search effort in expanded configurations (drives simulated
    /// overhead).
    pub expansions: u64,
    /// The batch size the scheduler *planned* (pre-adaptation). When it
    /// exceeds the queue length at dispatch, the platform records a
    /// configuration miss (Table 4) and clamps.
    pub planned_batch: Option<u32>,
    /// For skip outcomes (no candidates): do not re-decide this queue
    /// before this instant, ms. `None` keeps the platform's idle
    /// back-off. Produced by `AdmissionDecision::Defer`.
    pub defer_until_ms: Option<f64>,
    /// For skip outcomes: hold the queue for batch formation. Unlike a
    /// plain skip, which is re-polled every idle back-off, a held queue
    /// is re-decided once, when the hold ends (see [`BatchHold`]).
    pub hold: Option<BatchHold>,
    /// Admission verdict: drop the queue's jobs (their invocations are
    /// killed; see `SchedulerEvent::QueueShed`). Candidates are ignored.
    pub shed: Option<ShedReason>,
}

impl Outcome {
    /// An outcome that skips the queue.
    pub fn skip() -> Outcome {
        Outcome::default()
    }

    /// A single-candidate outcome.
    pub fn single(config: Config, expansions: u64) -> Outcome {
        Outcome {
            candidates: vec![config],
            expansions,
            planned_batch: Some(config.batch),
            ..Outcome::default()
        }
    }

    /// A skip outcome that parks the queue until `until_ms`.
    pub fn defer(until_ms: f64) -> Outcome {
        Outcome {
            defer_until_ms: Some(until_ms),
            ..Outcome::default()
        }
    }

    /// A shed outcome: the platform drops the queue's jobs.
    pub fn shed(reason: ShedReason) -> Outcome {
        Outcome {
            shed: Some(reason),
            ..Outcome::default()
        }
    }
}

/// Self-reported scheduler counters, collected into `ExperimentResult`
/// at the end of a run.
///
/// The interesting story is the plan cache: a scheduler that memoises its
/// searches reports how often dispatch was answered from the memo instead
/// of a fresh search. Cache hits replay the memoised expansion count, so
/// the *simulated* overhead model stays identical between cached and
/// uncached runs (results are comparable bit-for-bit); the saving is
/// real wall-clock planning time, measured by `cargo bench --bench
/// overhead`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Full searches actually executed (cache misses + uncached runs).
    pub searches: u64,
    /// Dispatch decisions answered from the plan cache.
    pub plan_cache_hits: u64,
    /// Plan-cache lookups that fell through to a real search.
    pub plan_cache_misses: u64,
    /// Plan-cache entries dropped by the LRU bound.
    pub plan_cache_evictions: u64,
    /// Wholesale plan-cache invalidations: a reused scheduler meeting a
    /// new environment. Churn does not flush the cache.
    pub plan_cache_invalidations: u64,
    /// Round-policy counters (sheds, defers), embedded as the whole
    /// [`PolicyStats`] struct rather than copied field by field — a
    /// counter added to `PolicyStats` can no longer be silently dropped
    /// on the way into `ExperimentResult` (the PR-5 fields were copied
    /// one by one, which is exactly how a new field gets forgotten).
    pub policy: PolicyStats,
}

impl SchedulerStats {
    /// Fraction of cache lookups answered from the memo (0 when the
    /// scheduler never consulted a cache).
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let lookups = self.plan_cache_hits + self.plan_cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / lookups as f64
        }
    }

    /// Installs a round policy's counters wholesale (schedulers call
    /// this from `Scheduler::stats`).
    pub fn with_policy(mut self, p: PolicyStats) -> SchedulerStats {
        self.policy = p;
        self
    }
}

/// Feature matrix entries (paper Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capabilities {
    /// Schedules fractions of GPUs (vGPUs).
    pub gpu_sharing: bool,
    /// Considers inter-function relations along the workflow.
    pub inter_function_relation: bool,
    /// Adapts decisions to runtime state between stages.
    pub adaptive: bool,
    /// Places tasks for data locality.
    pub data_locality: bool,
    /// Pre-warms containers.
    pub pre_warming: bool,
}

/// Has no values: a scheduler's round policy is the [`PolicyStack`] it
/// carries. Kept only for [`Scheduler::adopt_policy`]'s signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicySpec {}

/// A pluggable scheduling algorithm.
pub trait Scheduler {
    /// Display name (figure legends).
    fn name(&self) -> &'static str;

    /// Table-1 feature row.
    fn capabilities(&self) -> Capabilities;

    /// Chooses ranked configuration candidates for one queue.
    fn schedule(&mut self, ctx: &SchedCtx<'_>) -> Outcome;

    /// Chooses a node for `config`, or `None` when nothing fits. Called
    /// for each candidate in rank order, and again on recheck rounds.
    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId>;

    /// The round-policy stack driving the provided
    /// [`schedule_round`](Self::schedule_round), when the scheduler
    /// carries one. `None` (the default) behaves exactly like the
    /// classic (empty) stack: admit everything, classic scan order.
    fn round_policy(&mut self) -> Option<&mut PolicyStack> {
        None
    }

    /// Never called ([`PolicySpec`] has no values); kept so wrappers
    /// outside this workspace that forward it still compile.
    fn adopt_policy(&mut self, spec: &PolicySpec) -> bool {
        match *spec {}
    }

    /// Decides one controller round over *all* eligible queues.
    ///
    /// Returns decisions in the order the platform should apply them
    /// (placement + dispatch per decision, against the live
    /// [`ClusterState`]). Decisions for queues not presented in `ctx`
    /// are ignored; at most one decision per queue per round is applied.
    ///
    /// This is a provided method that drives the scheduler's
    /// [`round_policy`](Self::round_policy) stack through the typed
    /// pipeline of `crate::policy`: **admit** classifies every queue
    /// (defer/shed verdicts translate directly to [`Outcome::defer`]/
    /// [`Outcome::shed`] decisions), **rank** orders the admitted set,
    /// and the *first* ranked queue is decided via
    /// [`schedule`](Self::schedule) — the platform re-invokes the round
    /// with the remaining queues, so every dispatch still observes the
    /// cluster state left by the previous one while the policy re-ranks
    /// against fresh state each time.
    ///
    /// With no stack (or the empty classic stack) this takes a fast
    /// path that replays the classic one-queue-at-a-time contract: it
    /// decides only the first eligible queue and returns — bit-identical
    /// to the pre-policy platform, as pinned by
    /// `tests/control_plane_equivalence.rs`. Schedulers may still
    /// override the whole round, but composing reusable
    /// [`RoundPolicy`](crate::RoundPolicy) stages is the supported seam.
    fn schedule_round(&mut self, ctx: &RoundCtx<'_>) -> Vec<(QueueKey, Outcome)> {
        if self.round_policy().is_none_or(|p| p.is_empty()) {
            return match ctx.queues.first() {
                Some(q) => vec![(q.key, self.schedule(&ctx.sched_ctx(0)))],
                None => Vec::new(),
            };
        }
        if ctx.queues.is_empty() {
            return Vec::new();
        }
        // Stages 1 and 2, admission and cross-queue ranking, run in the
        // stack's retained buffers; defer/shed verdicts become decisions
        // directly. Each call below is a short-lived borrow of the stack,
        // so the dispatch stage can still take `&mut self`.
        let mut decisions: Vec<(QueueKey, Outcome)> = Vec::new();
        let first = self
            .round_policy()
            .and_then(|p| p.admit_and_rank(ctx, &mut decisions));
        // Stage 3: the classic per-queue dispatch on the most urgent
        // admitted queue.
        if let Some(i) = first {
            decisions.push((ctx.queues[i].key, self.schedule(&ctx.sched_ctx(i))));
        }
        if let Some(p) = self.round_policy() {
            p.observe(ctx, &decisions);
        }
        decisions
    }

    /// Control-plane notification hook; see [`SchedulerEvent`]. The
    /// default ignores every event.
    fn on_event(&mut self, event: &SchedulerEvent<'_>) {
        let _ = event;
    }

    /// Called by the platform once before a run's first event. A
    /// scheduler reused for another run drops here whatever it derived
    /// or learned in the last one, so that every run starts as a fresh
    /// scheduler's would. The default does nothing.
    fn on_run_start(&mut self) {}

    /// End-of-run counters, copied into `ExperimentResult::scheduler_stats`
    /// by the platform. The default reports nothing.
    fn stats(&self) -> SchedulerStats {
        SchedulerStats::default()
    }
}

/// Fixed simulated controller time per decision, µs: queue handling and
/// dispatch messaging.
pub const DECISION_BASE_US: f64 = 200.0;

/// Simulated controller time per expanded configuration, µs. Calibration:
/// §5.3 reports a brute-force search of 256³ ≈ 16.8 M paths at 7258 ms,
/// ≈ 0.4326 µs per expansion.
pub const US_PER_EXPANSION: f64 = 7_258_000.0 / (256.0 * 256.0 * 256.0);

/// Converts search effort (expanded configurations) into simulated
/// controller time.
pub fn decision_time(expansions: u64) -> SimTime {
    SimTime::from_us((DECISION_BASE_US + US_PER_EXPANSION * expansions as f64).round() as u64)
}

/// OpenWhisk's home-invoker hash (§2): a deterministic hash of the
/// function's identity (namespace ≈ app, action ≈ stage) onto a node.
pub fn home_node(key: QueueKey, num_nodes: usize) -> NodeId {
    // FNV-1a over the key bytes; any stable hash works.
    let mut h = esg_model::Fnv::new();
    h.write_bytes(&key.app.0.to_le_bytes());
    h.write_u64(key.stage as u64);
    NodeId((h.finish() % num_nodes as u64) as u32)
}

/// Shared placement policy: locality first (§3.4). Tries, in order, the
/// preferred (predecessor) node, the home invoker, any warm invoker with
/// capacity, and finally the cold invoker with the most free resources.
pub fn place_locality_first(
    ctx: &SchedCtx<'_>,
    demand: Resources,
    preferred: Option<NodeId>,
) -> Option<NodeId> {
    let home = home_node(ctx.queue.key, ctx.cluster.len());
    if let Some(p) = preferred {
        if ctx.cluster.node(p).fits(demand) {
            return Some(p);
        }
    }
    if ctx.cluster.node(home).fits(demand) {
        return Some(home);
    }
    // Warm invokers with capacity (deterministic id order).
    for n in ctx.cluster.nodes() {
        if n.has_warm(ctx.queue.function) && n.fits(demand) {
            return Some(n.id);
        }
    }
    ctx.cluster.most_free(demand)
}

/// Shared placement policy: minimise leftover fragmentation (INFless-style
/// best fit over weighted resources).
pub fn place_min_fragmentation(
    cluster: &ClusterState,
    demand: Resources,
    cpu_weight: f64,
    gpu_weight: f64,
) -> Option<NodeId> {
    cluster
        .feasible(demand)
        .min_by(|a, b| {
            let left_a = (a.free - demand).weighted(cpu_weight, gpu_weight);
            let left_b = (b.free - demand).weighted(cpu_weight, gpu_weight);
            left_a.total_cmp(&left_b).then(a.id.0.cmp(&b.id.0))
        })
        .map(|n| n.id)
}

/// Converts queued [`Job`]s into scheduler-facing views, rebuilding into
/// `out` (retained capacity — the platform's per-queue buffers make this
/// allocation-free in steady state).
pub fn fill_job_views<'j>(
    out: &mut Vec<JobView>,
    jobs: impl Iterator<Item = &'j Job>,
    now: SimTime,
    arrivals: impl Fn(&Job) -> (SimTime, SimTime),
) {
    out.clear();
    out.extend(jobs.map(|j| {
        let (arrived, deadline) = arrivals(j);
        JobView {
            invocation: j.invocation,
            ready_at_ms: j.ready_at.as_ms(),
            invocation_arrival_ms: arrived.as_ms(),
            slack_ms: deadline.as_ms() - now.as_ms(),
            pred_node: j.pred_node,
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NodeView;

    #[test]
    fn overhead_model_calibration() {
        // Brute force over a 3-stage group with 256 configs each.
        let t = decision_time(256 * 256 * 256);
        assert!(
            (t.as_ms() - 7258.0).abs() < 1.0,
            "brute force should cost ~7258 ms, got {}",
            t.as_ms()
        );
        // A pruned search of ~10k expansions costs a few ms.
        let t = decision_time(10_000);
        assert!(t.as_ms() > 3.0 && t.as_ms() < 6.0, "{}", t.as_ms());
    }

    #[test]
    fn home_node_is_stable_and_spread() {
        let a = home_node(
            QueueKey {
                app: AppId(0),
                stage: 0,
            },
            16,
        );
        let b = home_node(
            QueueKey {
                app: AppId(0),
                stage: 0,
            },
            16,
        );
        assert_eq!(a, b);
        // Different stages of different apps spread across nodes.
        let mut distinct = std::collections::HashSet::new();
        for app in 0..4u32 {
            for stage in 0..5usize {
                distinct.insert(home_node(
                    QueueKey {
                        app: AppId(app),
                        stage,
                    },
                    16,
                ));
            }
        }
        assert!(
            distinct.len() >= 8,
            "only {} distinct homes",
            distinct.len()
        );
    }

    #[test]
    fn min_fragmentation_picks_tightest_fit() {
        let n0 = NodeView::idle(NodeId(0), Resources::new(16, 7));
        let mut n1 = NodeView::idle(NodeId(1), Resources::new(16, 7));
        n1.free = Resources::new(4, 2);
        let state = ClusterState::from_views(vec![n0, n1]);
        // Best fit leaves the least behind -> node 1.
        assert_eq!(
            place_min_fragmentation(&state, Resources::new(4, 2), 1.0, 2.0),
            Some(NodeId(1))
        );
        // Offline nodes are skipped.
        let mut off = NodeView::idle(NodeId(0), Resources::new(16, 7));
        off.online = false;
        off.free = Resources::ZERO;
        let n1 = NodeView::idle(NodeId(1), Resources::new(4, 2));
        let state = ClusterState::from_views(vec![off, n1]);
        assert_eq!(
            place_min_fragmentation(&state, Resources::new(1, 1), 1.0, 2.0),
            Some(NodeId(1))
        );
    }

    #[test]
    fn outcome_constructors() {
        let s = Outcome::skip();
        assert!(s.candidates.is_empty());
        let o = Outcome::single(Config::new(2, 1, 1), 5);
        assert_eq!(o.candidates.len(), 1);
        assert_eq!(o.planned_batch, Some(2));
        assert_eq!(o.expansions, 5);
    }

    #[test]
    fn fill_job_views_reuses_capacity() {
        let jobs: Vec<Job> = (0..4u64)
            .map(|i| Job {
                invocation: InvocationId(i),
                slot: i as u32,
                stage: 0,
                ready_at: SimTime::from_ms(i as f64),
                pred_node: None,
            })
            .collect();
        let mut out = Vec::new();
        let arrivals = |_: &Job| (SimTime::ZERO, SimTime::from_ms(100.0));
        fill_job_views(&mut out, jobs.iter(), SimTime::from_ms(10.0), arrivals);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].slack_ms, 90.0);
        let ptr = out.as_ptr();
        fill_job_views(
            &mut out,
            jobs.iter().take(2),
            SimTime::from_ms(20.0),
            arrivals,
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out.as_ptr(), ptr, "refill must reuse the buffer");
    }
}
