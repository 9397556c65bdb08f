//! The composable round-policy pipeline: admission → cross-queue ranking
//! → per-queue dispatch, as typed, stackable stages.
//!
//! This module splits a controller round into the three decisions
//! HAS-GPU/INFless-style systems treat as separable:
//!
//! 1. **Admission** — [`RoundPolicy::admit`] classifies every eligible
//!    queue, into an [`AdmissionPlan`] the stack owns, as
//!    [`Admit`](AdmissionDecision::Admit),
//!    [`Defer`](AdmissionDecision::Defer) (retry no earlier than a given
//!    instant), or [`Shed`](AdmissionDecision::Shed) (drop the queue's
//!    jobs, killing their invocations — surfaced through
//!    [`SchedulerEvent::QueueShed`](crate::SchedulerEvent::QueueShed));
//! 2. **Ranking** — [`RoundPolicy::rank`] orders the admitted queues
//!    across the whole round (which queue deserves the next search),
//!    into an order buffer the stack owns;
//! 3. **Dispatch** — the scheduler's per-queue
//!    [`schedule`](crate::Scheduler::schedule)/
//!    [`place`](crate::Scheduler::place) pair.
//!
//! Stages compose through a [`PolicyStack`]: admission verdicts merge by
//! severity (a later stage can only tighten an earlier one), rank stages
//! successively reorder the admitted set, and
//! [`RoundPolicy::observe`] feeds every stage the round's decisions so
//! budget-sharing policies can meter themselves. The stack keeps every
//! per-round buffer (plans, admitted list, orders) across rounds, so a
//! round allocates nothing once they have grown. The provided
//! [`Scheduler::schedule_round`](crate::Scheduler::schedule_round)
//! drives whatever stack the scheduler exposes through
//! [`round_policy`](crate::Scheduler::round_policy); the empty
//! ("classic") stack takes a fast path that decides only the first
//! eligible queue (pinned by `tests/golden/control_plane.digest` and the
//! stack-equivalence property test).
//!
//! The first sim-layer stage, [`SloAdmission`], sheds or defers queues
//! whose deadline is provably lost; ESG's cross-queue packing stage
//! lives in `esg-core` (it needs the search machinery). Every run checks
//! its scheduler's stack with [`PolicyStack::validate`] before it starts.

use crate::builder::{non_negative, positive, SimError};
use crate::sched::{Outcome, QueueKey, RoundCtx};
use esg_model::Config;
use std::fmt;

/// Why an admission stage dropped a queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// Even the fastest configuration on the fastest node class cannot
    /// finish within the queue's remaining slack: the deadline is lost
    /// and serving the jobs would only steal capacity from invocations
    /// that can still win.
    GsloUnattainable,
    /// The policy judged the cluster too overloaded to serve the queue.
    Overload,
}

impl ShedReason {
    /// The reason's name, as traces and reports print it.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::GsloUnattainable => "gslo-unattainable",
            ShedReason::Overload => "overload",
        }
    }
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One queue's admission verdict.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdmissionDecision {
    /// Hand the queue to the ranking stage.
    Admit,
    /// Skip the queue this round; do not re-decide before `until_ms`.
    Defer {
        /// Earliest re-decision instant, ms.
        until_ms: f64,
    },
    /// Drop the queue's jobs (their invocations are killed; sibling
    /// jobs in other queues are purged by the platform).
    Shed {
        /// Why the queue was dropped.
        reason: ShedReason,
    },
}

impl AdmissionDecision {
    /// Merge severity: Shed > Defer > Admit.
    fn severity(&self) -> u8 {
        match self {
            AdmissionDecision::Admit => 0,
            AdmissionDecision::Defer { .. } => 1,
            AdmissionDecision::Shed { .. } => 2,
        }
    }
}

/// An admission stage's verdict over every queue of a round, parallel to
/// [`RoundCtx::queues`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdmissionPlan {
    decisions: Vec<AdmissionDecision>,
}

impl AdmissionPlan {
    /// Admits all `n` queues.
    pub fn admit_all(n: usize) -> AdmissionPlan {
        AdmissionPlan {
            decisions: vec![AdmissionDecision::Admit; n],
        }
    }

    /// Re-initialises the plan to admit all `n` queues, in place.
    pub fn reset(&mut self, n: usize) {
        self.decisions.clear();
        self.decisions.resize(n, AdmissionDecision::Admit);
    }

    /// The per-queue decisions, indexed like `RoundCtx::queues`.
    pub fn decisions(&self) -> &[AdmissionDecision] {
        &self.decisions
    }

    /// Overrides queue `i`'s decision.
    pub fn set(&mut self, i: usize, decision: AdmissionDecision) {
        self.decisions[i] = decision;
    }

    /// Overrides every queue's decision.
    pub fn set_all(&mut self, decision: AdmissionDecision) {
        self.decisions.fill(decision);
    }

    /// Number of queues covered.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// True when the plan covers no queues.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Indices still admitted, ascending.
    pub fn admitted(&self) -> impl Iterator<Item = usize> + '_ {
        self.decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| matches!(d, AdmissionDecision::Admit))
            .map(|(i, _)| i)
    }

    /// Merges `other` in, most severe verdict per queue winning
    /// (stacked admission stages can only tighten each other; two defers
    /// keep the later retry instant).
    pub fn tighten(&mut self, other: &AdmissionPlan) {
        debug_assert_eq!(self.len(), other.len(), "plans cover the same round");
        for (mine, theirs) in self.decisions.iter_mut().zip(&other.decisions) {
            match (&mut *mine, theirs) {
                (
                    AdmissionDecision::Defer { until_ms: a },
                    AdmissionDecision::Defer { until_ms: b },
                ) => *a = a.max(*b),
                (m, t) if t.severity() > m.severity() => *mine = *t,
                _ => {}
            }
        }
    }
}

/// Counters a policy stage reports; the owning scheduler merges them
/// into its [`SchedulerStats`](crate::SchedulerStats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Queues dropped by admission shedding.
    pub queues_shed: u64,
    /// Jobs dropped by admission shedding.
    pub jobs_shed: u64,
    /// Queue-rounds deferred. In a [`PolicyStack`]'s merged stats this
    /// is the *final-decision* count tallied by the stack's `observe`
    /// (a stage voting Defer cannot know whether another stage's Shed
    /// out-severities it, so stage-local defer guesses are not summed).
    pub queues_deferred: u64,
}

impl PolicyStats {
    /// Component-wise sum.
    pub fn merge(self, other: PolicyStats) -> PolicyStats {
        PolicyStats {
            queues_shed: self.queues_shed + other.queues_shed,
            jobs_shed: self.jobs_shed + other.jobs_shed,
            queues_deferred: self.queues_deferred + other.queues_deferred,
        }
    }
}

/// One stage of a round-policy pipeline.
///
/// Every method has a neutral default, so a stage implements only the
/// decision it owns: an admission stage overrides [`admit`](Self::admit),
/// a packing stage overrides [`rank`](Self::rank) (and usually
/// [`observe`](Self::observe) to meter a shared budget).
pub trait RoundPolicy {
    /// Stage name (diagnostics, `PolicyStack` Debug output).
    fn name(&self) -> &'static str;

    /// Classifies every eligible queue of the round by overriding
    /// verdicts in `plan`, which arrives admitting all
    /// `ctx.queues.len()` queues. The default leaves it so.
    fn admit(&mut self, ctx: &RoundCtx<'_>, plan: &mut AdmissionPlan) {
        let _ = (ctx, plan);
    }

    /// Proposes a dispatch order for the `admitted` queues (indices into
    /// `ctx.queues`, in the previous stage's order) by pushing them onto
    /// `order`, which arrives empty; most urgent first. The default
    /// keeps the order it is given (at the bottom of a stack, the
    /// classic controller scan order).
    fn rank(&mut self, ctx: &RoundCtx<'_>, admitted: &[usize], order: &mut Vec<usize>) {
        let _ = ctx;
        order.extend_from_slice(admitted);
    }

    /// Feedback hook: the decisions the driver produced for this round
    /// invocation (budget-sharing stages meter `Outcome::expansions`
    /// here). The default ignores them.
    fn observe(&mut self, ctx: &RoundCtx<'_>, decisions: &[(QueueKey, Outcome)]) {
        let _ = (ctx, decisions);
    }

    /// End-of-run counters. The default reports nothing.
    fn stats(&self) -> PolicyStats {
        PolicyStats::default()
    }

    /// Checks the stage's knobs ([`SimError::InvalidKnob`]); the default
    /// accepts everything.
    fn validate(&self) -> Result<(), SimError> {
        Ok(())
    }
}

/// An ordered stack of [`RoundPolicy`] stages.
///
/// * **admit** — stages run in order; verdicts merge by severity
///   ([`AdmissionPlan::tighten`]), so a later stage can only tighten an
///   earlier one.
/// * **rank** — each stage reorders the order produced by the previous
///   one. A stage's output is sanitised against its input (duplicates
///   and foreign indices dropped, omitted queues re-appended in their
///   previous order), so no stage can starve a queue by accident.
/// * **observe**/**stats** — fan out to / merge over all stages.
///
/// Every per-round buffer lives in the stack and keeps its capacity
/// across rounds.
///
/// The empty stack ([`PolicyStack::new`]) is the classic
/// one-queue-at-a-time contract; the provided
/// [`Scheduler::schedule_round`](crate::Scheduler::schedule_round)
/// recognises it and takes a zero-overhead fast path.
#[derive(Default)]
pub struct PolicyStack {
    stages: Vec<Box<dyn RoundPolicy>>,
    /// Final deferred-queue decisions observed across the run (the
    /// authoritative `queues_deferred`; see [`PolicyStats`]).
    deferred: u64,
    /// The merged admission plan of the current round.
    plan: AdmissionPlan,
    /// One stage's admission verdicts, before merging.
    stage_plan: AdmissionPlan,
    /// The admitted queues of the current round, ascending.
    admitted: Vec<usize>,
    /// The current rank order.
    order: Vec<usize>,
    /// One rank stage's proposal, before sanitising.
    proposed: Vec<usize>,
    /// The sanitised proposal, swapped into `order`.
    sanitised: Vec<usize>,
    /// Per-queue membership stamp for `sanitise_order`, all zero
    /// between calls.
    stamp: Vec<u8>,
}

impl PolicyStack {
    /// An empty stack: admit everything, classic scan order. Drives the
    /// fast path in the provided `schedule_round`; stages follow through
    /// [`with`](Self::with).
    pub fn new() -> PolicyStack {
        PolicyStack::default()
    }

    /// Appends a stage (builder form).
    pub fn with(mut self, stage: impl RoundPolicy + 'static) -> PolicyStack {
        self.stages.push(Box::new(stage));
        self
    }

    /// True when the stack has no stages (the classic contract).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Checks every stage's knobs, bottom stage first, and returns the
    /// first rejection.
    pub fn validate(&self) -> Result<(), SimError> {
        self.stages.iter().try_for_each(|s| s.validate())
    }

    /// The stage names, bottom (first-run) first.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Merged counters of every stage, with `queues_deferred` replaced
    /// by the stack's own final-decision tally (see
    /// [`PolicyStats::queues_deferred`]).
    pub fn policy_stats(&self) -> PolicyStats {
        let mut stats = self
            .stages
            .iter()
            .fold(PolicyStats::default(), |acc, s| acc.merge(s.stats()));
        stats.queues_deferred = self.deferred;
        stats
    }
}

impl fmt::Debug for PolicyStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicyStack")
            .field("stages", &self.stage_names())
            .finish()
    }
}

/// Restricts a stage's `proposed` order to `prev`'s members
/// (deduplicated, stage order preserved) and re-appends anything the
/// stage omitted, in `prev` order, into `out` (cleared first).
///
/// Linear in `proposed` and `prev`: `stamp[i]` marks queue `i` as a
/// member not yet placed (`PENDING`) or placed (`PLACED`). `stamp` must
/// be all zero on entry and is all zero again on return.
fn sanitise_order(proposed: &[usize], prev: &[usize], stamp: &mut Vec<u8>, out: &mut Vec<usize>) {
    const PENDING: u8 = 1;
    const PLACED: u8 = 2;
    out.clear();
    for &i in prev {
        if i >= stamp.len() {
            stamp.resize(i + 1, 0);
        }
        stamp[i] = PENDING;
    }
    for &i in proposed {
        if stamp.get(i) == Some(&PENDING) {
            stamp[i] = PLACED;
            out.push(i);
        }
    }
    for &i in prev {
        if stamp[i] == PENDING {
            out.push(i);
        }
        stamp[i] = 0;
    }
}

impl PolicyStack {
    /// Runs every stage's admission over the round and returns the
    /// merged plan (a buffer the stack owns).
    pub fn admit(&mut self, ctx: &RoundCtx<'_>) -> &AdmissionPlan {
        let n = ctx.queues.len();
        self.plan.reset(n);
        for stage in &mut self.stages {
            self.stage_plan.reset(n);
            stage.admit(ctx, &mut self.stage_plan);
            self.plan.tighten(&self.stage_plan);
        }
        &self.plan
    }

    /// Runs every stage's ranking over `admitted` and returns the final
    /// order (a buffer the stack owns): a permutation of `admitted`.
    pub fn rank(&mut self, ctx: &RoundCtx<'_>, admitted: &[usize]) -> &[usize] {
        self.order.clear();
        self.order.extend_from_slice(admitted);
        for stage in &mut self.stages {
            self.proposed.clear();
            stage.rank(ctx, &self.order, &mut self.proposed);
            sanitise_order(
                &self.proposed,
                &self.order,
                &mut self.stamp,
                &mut self.sanitised,
            );
            std::mem::swap(&mut self.order, &mut self.sanitised);
        }
        &self.order
    }

    /// Admission and ranking for one round of the provided
    /// [`Scheduler::schedule_round`](crate::Scheduler::schedule_round):
    /// pushes a defer or shed decision onto `decisions` for every queue
    /// admission did not admit (in queue order) and returns the most
    /// urgent admitted queue, if any.
    pub fn admit_and_rank(
        &mut self,
        ctx: &RoundCtx<'_>,
        decisions: &mut Vec<(QueueKey, Outcome)>,
    ) -> Option<usize> {
        self.admit(ctx);
        let mut admitted = std::mem::take(&mut self.admitted);
        admitted.clear();
        for (i, d) in self.plan.decisions().iter().enumerate() {
            match *d {
                AdmissionDecision::Admit => admitted.push(i),
                AdmissionDecision::Defer { until_ms } => {
                    decisions.push((ctx.queues[i].key, Outcome::defer(until_ms)));
                }
                AdmissionDecision::Shed { reason } => {
                    decisions.push((ctx.queues[i].key, Outcome::shed(reason)));
                }
            }
        }
        let first = if admitted.is_empty() {
            None
        } else {
            self.rank(ctx, &admitted).first().copied()
        };
        self.admitted = admitted;
        first
    }

    /// Feeds every stage the decisions the round produced, and tallies
    /// the round's final deferrals.
    pub fn observe(&mut self, ctx: &RoundCtx<'_>, decisions: &[(QueueKey, Outcome)]) {
        // Tally the round's FINAL deferrals here: only the merged plan
        // knows whether a stage's Defer vote survived severity merging.
        self.deferred += decisions
            .iter()
            .filter(|(_, o)| {
                o.shed.is_none() && o.candidates.is_empty() && o.defer_until_ms.is_some()
            })
            .count() as u64;
        for stage in &mut self.stages {
            stage.observe(ctx, decisions);
        }
    }
}

/// The policy stages' back-off, ms: how long [`SloAdmission`] defers a
/// queue the saturated cluster cannot host, and the default of
/// [`BandwidthPackingConfig::defer_ms`].
pub const DEFER_MS: f64 = 5.0;

/// SLO-aware admission (INFless/HAS-GPU-style): sheds queues whose
/// deadline is provably lost and defers queues the cluster cannot host
/// right now.
///
/// The shed test is an *optimistic lower bound*: a queue is dropped only
/// when even the fastest profiled configuration, run on the fastest
/// online node class whose **total** capacity could host it, with zero
/// transfer/cold-start/queueing cost, still misses the remaining slack
/// of the queue's *most slack-rich* job ([`gslo_attainable`] is
/// monotone in slack, so that proves every queued invocation hopeless).
/// Anything the oracle could conceivably finish in time is admitted —
/// pinned by the oracle property test in
/// `tests/policy_stack_equivalence.rs`, which audits every job of every
/// shed queue.
///
/// The defer test uses *free* capacity: when no online node currently
/// fits even the minimum configuration, deciding the queue would only
/// burn a search and park it on the recheck list, so it is deferred for
/// [`DEFER_MS`] instead.
#[derive(Clone, Debug, Default)]
pub struct SloAdmission {
    stats: PolicyStats,
}

/// Whether *any* (online node class, profiled configuration) pair could
/// finish one task of `function` within `slack_ms`: the optimistic
/// lower bound [`SloAdmission`] sheds against. Fit is judged against
/// node **total** capacity (capacity in use frees up; a drained node
/// does not come back), and the bound ignores transfers, cold starts,
/// noise, and queueing — all of which only add time.
pub fn gslo_attainable(ctx: &RoundCtx<'_>, function: esg_model::FnId, slack_ms: f64) -> bool {
    if slack_ms <= 0.0 {
        return false;
    }
    let entries = ctx.env.profiles.profile(function).entries();
    ctx.cluster.nodes().iter().filter(|n| n.online).any(|n| {
        entries
            .iter()
            .any(|e| n.total.contains(e.config.resources()) && e.latency_ms * n.speed <= slack_ms)
    })
}

impl RoundPolicy for SloAdmission {
    fn name(&self) -> &'static str {
        "slo-admission"
    }

    fn admit(&mut self, ctx: &RoundCtx<'_>, plan: &mut AdmissionPlan) {
        let saturated = ctx
            .cluster
            .feasible(Config::MIN.resources())
            .next()
            .is_none();
        for (i, q) in ctx.queues.iter().enumerate() {
            if q.jobs.is_empty() {
                continue;
            }
            // Shedding drops the WHOLE queue, so it must be judged on
            // the most slack-rich job: attainability is monotone in
            // slack, so if even that job is hopeless, every job is —
            // a queue mixing one dead job with feasible younger ones is
            // admitted (the dead job drains best-effort and the young
            // ones keep their chance).
            let slack = q
                .jobs
                .iter()
                .map(|j| j.slack_ms)
                .fold(f64::NEG_INFINITY, f64::max);
            if !gslo_attainable(ctx, q.function, slack) {
                self.stats.queues_shed += 1;
                self.stats.jobs_shed += q.jobs.len() as u64;
                plan.set(
                    i,
                    AdmissionDecision::Shed {
                        reason: ShedReason::GsloUnattainable,
                    },
                );
                continue;
            }
            if saturated {
                plan.set(
                    i,
                    AdmissionDecision::Defer {
                        until_ms: ctx.now_ms + DEFER_MS,
                    },
                );
            }
        }
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

/// Knobs of ESG's cross-queue packing stage (`esg-core`'s
/// `BandwidthAwarePacking`). The contention terms read the live
/// data-plane view (`RoundCtx::dataplane`); without a data plane, or with
/// `contention_bias: 0.0` and `defer_queue_depth: 0`, the stage ranks on
/// GSLO tightness and warm affinity under the round budget alone.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BandwidthPackingConfig {
    /// Shared search budget per controller instant, in expanded
    /// configurations: once a round's decisions have spent it, the
    /// remaining queues are deferred instead of searched.
    pub round_budget: u64,
    /// Back-off for deferred queues, ms ([`DEFER_MS`] by default).
    pub defer_ms: f64,
    /// Rank bonus (in normalised-tightness units) for queues whose
    /// predecessor node holds a warm container for the queue's function
    /// — dispatching them first co-locates sibling stages while the
    /// warm slot is still free.
    pub warm_bias: f64,
    /// Rank penalty (normalised-tightness units) per flow already
    /// contending for the predecessor node's ingress path — warm
    /// affinity onto a saturated link stops looking free.
    pub contention_bias: f64,
    /// Defer a queue (by `defer_ms`) when its predecessor node has at
    /// least this many transfers queued for staging: the input tensors
    /// cannot even start moving, so burning search budget now buys
    /// nothing. 0 disables the check.
    pub defer_queue_depth: u32,
}

impl Default for BandwidthPackingConfig {
    fn default() -> Self {
        BandwidthPackingConfig {
            round_budget: 200_000,
            defer_ms: DEFER_MS,
            warm_bias: 0.25,
            contention_bias: 0.1,
            defer_queue_depth: 4,
        }
    }
}

impl BandwidthPackingConfig {
    /// Rejects each knob out of range as [`SimError::InvalidKnob`].
    pub fn validate(&self) -> Result<(), SimError> {
        if self.round_budget == 0 {
            return Err(SimError::InvalidKnob {
                knob: "policy.round_budget",
                value: 0.0,
                requirement: "at least 1 expanded configuration per round",
            });
        }
        positive("policy.defer_ms", self.defer_ms)?;
        non_negative("policy.warm_bias", self.warm_bias)?;
        non_negative("policy.contention_bias", self.contention_bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{JobView, QueueView};
    use crate::state::{ClusterState, NodeView};
    use crate::SimEnv;
    use esg_model::{AppId, InvocationId, NodeId, Resources, SloClass};

    fn job(slack: f64) -> JobView {
        JobView {
            invocation: InvocationId(0),
            ready_at_ms: 0.0,
            invocation_arrival_ms: 0.0,
            slack_ms: slack,
            pred_node: None,
        }
    }

    fn round_ctx<'a>(
        env: &'a SimEnv,
        cluster: &'a ClusterState,
        queues: &'a [QueueView<'a>],
    ) -> RoundCtx<'a> {
        RoundCtx {
            now_ms: 100.0,
            queues,
            cluster,
            env,
            env_fingerprint: env.fingerprint(),
            dataplane: None,
        }
    }

    fn queue_view<'a>(
        env: &'a SimEnv,
        jobs: &'a [JobView],
        app: u32,
        stage: usize,
    ) -> QueueView<'a> {
        QueueView {
            key: QueueKey {
                app: AppId(app),
                stage,
            },
            jobs,
            function: env.apps[app as usize].nodes[stage],
            slo_ms: env.slo_ms(AppId(app)),
            base_latency_ms: env.base_latency_ms(AppId(app)),
            queue_interval_ms: None,
        }
    }

    /// `stage`'s admission verdicts over the round.
    fn admit(stage: &mut SloAdmission, ctx: &RoundCtx<'_>) -> AdmissionPlan {
        let mut plan = AdmissionPlan::admit_all(ctx.queues.len());
        stage.admit(ctx, &mut plan);
        plan
    }

    fn idle_cluster(n: usize) -> ClusterState {
        ClusterState::from_views(
            (0..n as u32)
                .map(|i| NodeView::idle(NodeId(i), Resources::new(16, 7)))
                .collect(),
        )
    }

    #[test]
    fn admission_plans_tighten_by_severity() {
        let mut a = AdmissionPlan::admit_all(3);
        let mut b = AdmissionPlan::admit_all(3);
        b.set(0, AdmissionDecision::Defer { until_ms: 10.0 });
        b.set(
            1,
            AdmissionDecision::Shed {
                reason: ShedReason::Overload,
            },
        );
        a.tighten(&b);
        assert_eq!(
            a.decisions()[0],
            AdmissionDecision::Defer { until_ms: 10.0 }
        );
        assert!(matches!(a.decisions()[1], AdmissionDecision::Shed { .. }));
        assert_eq!(a.decisions()[2], AdmissionDecision::Admit);
        assert_eq!(a.admitted().collect::<Vec<_>>(), vec![2]);
        // Defer + Defer keeps the later instant; Shed survives anything.
        let defer_all = |n: usize, until_ms: f64| {
            let mut plan = AdmissionPlan::default();
            plan.reset(n);
            plan.set_all(AdmissionDecision::Defer { until_ms });
            plan
        };
        let mut c = defer_all(3, 20.0);
        c.tighten(&defer_all(3, 5.0));
        assert_eq!(
            c.decisions()[0],
            AdmissionDecision::Defer { until_ms: 20.0 }
        );
        let mut d = AdmissionPlan::admit_all(1);
        d.set(
            0,
            AdmissionDecision::Shed {
                reason: ShedReason::GsloUnattainable,
            },
        );
        d.tighten(&defer_all(1, 99.0));
        assert!(matches!(d.decisions()[0], AdmissionDecision::Shed { .. }));
    }

    /// The quadratic definition `sanitise_order` replaced, kept as the
    /// reference its membership stamp must reproduce.
    fn sanitise_order_reference(proposed: &[usize], prev: &[usize]) -> Vec<usize> {
        let mut out = Vec::new();
        for &i in proposed {
            if prev.contains(&i) && !out.contains(&i) {
                out.push(i);
            }
        }
        for &i in prev {
            if !out.contains(&i) {
                out.push(i);
            }
        }
        out
    }

    /// A previous order: a shuffled subset of queues 0..24.
    fn arb_prev() -> impl proptest::strategy::Strategy<Value = Vec<usize>> {
        use proptest::prelude::*;
        (
            proptest::sample::subsequence((0..24usize).collect::<Vec<_>>(), 0..=24),
            proptest::collection::vec(any::<u32>(), 24),
        )
            .prop_map(|(mut prev, keys)| {
                prev.sort_by_key(|&i| keys[i]);
                prev
            })
    }

    proptest::proptest! {
        /// Foreign indices and duplicates are dropped; omissions come
        /// back in previous order — exactly as the reference orders them.
        /// Proposals draw from 0..32, so they mix members, duplicates and
        /// indices outside `prev`.
        #[test]
        fn sanitise_order_preserves_membership(
            prev in arb_prev(),
            proposed in proptest::collection::vec(0usize..32, 0..40),
        ) {
            let mut stamp = Vec::new();
            let mut out = vec![7];
            sanitise_order(&[2, 9, 2, 0], &[0, 1, 2], &mut stamp, &mut out);
            proptest::prop_assert_eq!(&out, &vec![2, 0, 1]);
            sanitise_order(&[], &[3, 4], &mut stamp, &mut out);
            proptest::prop_assert_eq!(&out, &vec![3, 4]);
            sanitise_order(&proposed, &prev, &mut stamp, &mut out);
            proptest::prop_assert_eq!(&out, &sanitise_order_reference(&proposed, &prev));
            proptest::prop_assert!(stamp.iter().all(|&s| s == 0), "stamp left dirty");
        }
    }

    /// A rank stage reversing the current order, for stack tests.
    struct Reverse;
    impl RoundPolicy for Reverse {
        fn name(&self) -> &'static str {
            "reverse"
        }
        fn rank(&mut self, _ctx: &RoundCtx<'_>, admitted: &[usize], order: &mut Vec<usize>) {
            order.extend(admitted.iter().rev());
        }
    }

    #[test]
    fn stack_composes_rank_stages_in_order() {
        let env = SimEnv::standard(SloClass::Moderate);
        let cluster = idle_cluster(2);
        let j0 = [job(500.0)];
        let j1 = [job(400.0)];
        let j2 = [job(300.0)];
        let queues = [
            queue_view(&env, &j0, 0, 0),
            queue_view(&env, &j1, 1, 0),
            queue_view(&env, &j2, 2, 0),
        ];
        let ctx = round_ctx(&env, &cluster, &queues);
        let mut stack = PolicyStack::new().with(Reverse).with(Reverse);
        assert!(!stack.is_empty());
        assert_eq!(stack.stage_names(), vec!["reverse", "reverse"]);
        // Two reversals cancel out.
        assert_eq!(stack.rank(&ctx, &[0, 1, 2]), &[0, 1, 2]);
        let mut single = PolicyStack::new().with(Reverse);
        assert_eq!(single.rank(&ctx, &[0, 1, 2]), &[2, 1, 0]);
        // The empty stack is classic and ranks in scan order.
        let mut classic = PolicyStack::new();
        assert!(classic.is_empty());
        assert_eq!(classic.rank(&ctx, &[1, 2]), &[1, 2]);
        assert_eq!(
            classic.admit(&ctx).decisions(),
            AdmissionPlan::admit_all(3).decisions()
        );
    }

    #[test]
    fn slo_admission_sheds_hopeless_and_admits_feasible() {
        let env = SimEnv::standard(SloClass::Moderate);
        let cluster = idle_cluster(4);
        let dead = [job(-5.0)];
        let fine = [job(10_000.0)];
        let mixed = [job(-5.0), job(10_000.0)];
        let queues = [
            queue_view(&env, &dead, 0, 0),
            queue_view(&env, &fine, 1, 0),
            // A queue mixing a dead job with a feasible one must NOT be
            // shed: shedding drops every queued invocation.
            queue_view(&env, &mixed, 2, 0),
        ];
        let ctx = round_ctx(&env, &cluster, &queues);
        let mut adm = SloAdmission::default();
        let plan = admit(&mut adm, &ctx);
        assert!(matches!(
            plan.decisions()[0],
            AdmissionDecision::Shed {
                reason: ShedReason::GsloUnattainable
            }
        ));
        assert_eq!(plan.decisions()[1], AdmissionDecision::Admit);
        assert_eq!(plan.decisions()[2], AdmissionDecision::Admit);
        assert_eq!(adm.stats().queues_shed, 1);
        assert_eq!(adm.stats().jobs_shed, 1);
    }

    #[test]
    fn slo_admission_defers_when_saturated() {
        let env = SimEnv::standard(SloClass::Moderate);
        let mut cluster = idle_cluster(2);
        for i in 0..2u32 {
            cluster.node_mut(NodeId(i)).free = Resources::ZERO;
        }
        let fine = [job(10_000.0)];
        let queues = [queue_view(&env, &fine, 0, 0)];
        let ctx = round_ctx(&env, &cluster, &queues);
        let mut adm = SloAdmission::default();
        let plan = admit(&mut adm, &ctx);
        assert_eq!(
            plan.decisions()[0],
            AdmissionDecision::Defer { until_ms: 105.0 }
        );
    }

    #[test]
    fn gslo_attainability_tracks_speed_and_capacity() {
        let env = SimEnv::standard(SloClass::Moderate);
        let queues: [QueueView<'_>; 0] = [];
        // Fast idle cluster: generous slack is attainable, negative is not.
        let cluster = idle_cluster(2);
        let ctx = round_ctx(&env, &cluster, &queues);
        let f = env.apps[0].nodes[0];
        assert!(gslo_attainable(&ctx, f, 1e9));
        assert!(!gslo_attainable(&ctx, f, -1.0));
        assert!(!gslo_attainable(&ctx, f, 0.0));
        // A cluster of absurdly slow nodes cannot attain a tight slack
        // that a baseline-speed cluster could.
        let fastest = env
            .profiles
            .profile(f)
            .entries()
            .iter()
            .map(|e| e.latency_ms)
            .fold(f64::INFINITY, f64::min);
        let mut slow = idle_cluster(2);
        for i in 0..2u32 {
            slow.node_mut(NodeId(i)).speed = 1000.0;
        }
        let slow_ctx = round_ctx(&env, &slow, &queues);
        assert!(!gslo_attainable(&slow_ctx, f, fastest * 2.0));
        // Offline nodes never count.
        let mut off = idle_cluster(1);
        off.node_mut(NodeId(0)).online = false;
        let off_ctx = round_ctx(&env, &off, &queues);
        assert!(!gslo_attainable(&off_ctx, f, 1e9));
        // Capacity in use does NOT make a deadline unattainable (fit is
        // judged on totals), it only defers.
        let mut busy = idle_cluster(1);
        busy.node_mut(NodeId(0)).free = Resources::ZERO;
        let busy_ctx = round_ctx(&env, &busy, &queues);
        assert!(gslo_attainable(&busy_ctx, f, 1e9));
    }

    #[test]
    fn stack_tallies_final_deferrals_from_decisions() {
        // queues_deferred counts the round's FINAL defer decisions: a
        // shed (which out-severities a defer vote) and a dispatch must
        // not count, no matter what any stage voted.
        let env = SimEnv::standard(SloClass::Moderate);
        let cluster = idle_cluster(1);
        let queues: [QueueView<'_>; 0] = [];
        let ctx = round_ctx(&env, &cluster, &queues);
        let key = QueueKey {
            app: AppId(0),
            stage: 0,
        };
        let mut stack = PolicyStack::new().with(SloAdmission::default());
        stack.observe(
            &ctx,
            &[
                (key, Outcome::defer(123.0)),
                (key, Outcome::shed(ShedReason::Overload)),
                (key, Outcome::single(Config::MIN, 1)),
                (key, Outcome::skip()), // plain skip: no defer horizon
            ],
        );
        assert_eq!(stack.policy_stats().queues_deferred, 1);
        assert_eq!(stack.policy_stats().queues_shed, 0, "stage saw no shed");
    }

    #[test]
    fn policy_stats_merge_and_stack_debug() {
        let a = PolicyStats {
            queues_shed: 1,
            jobs_shed: 3,
            queues_deferred: 2,
        };
        let b = PolicyStats {
            queues_shed: 2,
            jobs_shed: 1,
            queues_deferred: 0,
        };
        let m = a.merge(b);
        assert_eq!(m.queues_shed, 3);
        assert_eq!(m.jobs_shed, 4);
        assert_eq!(m.queues_deferred, 2);
        let stack = PolicyStack::new().with(SloAdmission::default());
        assert_eq!(
            format!("{stack:?}"),
            "PolicyStack { stages: [\"slo-admission\"] }"
        );
        assert_eq!(
            ShedReason::GsloUnattainable.to_string(),
            "gslo-unattainable"
        );
        assert_eq!(ShedReason::Overload.to_string(), "overload");
    }
}
