//! [`BandwidthAwarePacking`]: ESG's cross-queue packing stage for the
//! round-policy pipeline.
//!
//! The classic contract decides queues in controller scan order — an
//! accident of queue numbering. This stage ranks every admitted queue of
//! a round so the per-queue ESG search (the dispatch stage) is spent
//! where it matters most:
//!
//! * **GSLO tightness first** — queues are ordered by their oldest job's
//!   remaining slack normalised by the application SLO, tightest first:
//!   the queue closest to blowing its group SLO gets the next search and
//!   the freshest view of the cluster.
//! * **Warm co-location bias** — a queue whose predecessor node still
//!   holds a warm container for the queue's function is boosted by
//!   [`BandwidthPackingConfig::warm_bias`]: dispatching it *now* lets
//!   ESG_Dispatch's locality-first placement land the batch next to its
//!   input while the warm slot is free, co-locating sibling stages
//!   instead of racing other queues onto the node.
//! * **Shared search budget** — all decisions at one controller instant
//!   share [`BandwidthPackingConfig::round_budget`] expanded
//!   configurations, metered through [`RoundPolicy::observe`]. Once a
//!   round's decisions have spent it, the stage defers the remaining
//!   queues by [`BandwidthPackingConfig::defer_ms`] instead of admitting
//!   further searches — bounding worst-case controller occupancy under a
//!   queue storm (the pipeline analogue of Orion's cut-off time, but
//!   round-global rather than per-decision).
//!
//! Warm affinity alone is wrong in transfer-bound regimes: co-locating a
//! stage next to its input is a *loss* when the predecessor node's PCIe
//! ingress pool is already saturated — the batch's own input tensors
//! then crawl in at a fraction of the link while an idle node would have
//! taken them at full rate. With a data plane on (`RoundCtx::dataplane`)
//! the stage makes two corrections:
//!
//! * **Estimated contention** — every job whose predecessor node has
//!   flows active or queued on its ingress path drags the owning
//!   queue's rank down by [`BandwidthPackingConfig::contention_bias`]
//!   per contending flow (the worst predecessor decides), opposing the
//!   warm bias once a link is busy.
//! * **Staging backpressure defer** — a queue whose predecessor node
//!   has at least [`BandwidthPackingConfig::defer_queue_depth`]
//!   transfers queued for staging is deferred outright: its input
//!   cannot even start moving, so spending search budget on it now buys
//!   nothing.
//!
//! Without a data plane, or with `contention_bias: 0.0` and
//! `defer_queue_depth: 0`, both corrections vanish and the stage ranks
//! and admits on warm affinity and the budget alone.
//!
//! The stage is pure ranking/admission: dispatch still runs
//! `EsgScheduler::schedule` per queue, so plan-cache equivalence and the
//! §3.1 semantics are untouched.

use esg_sim::{
    AdmissionDecision, AdmissionPlan, BandwidthPackingConfig, DataPlaneView, Outcome, QueueKey,
    RoundCtx, RoundPolicy, SimError,
};

/// Cross-queue packing for [`EsgScheduler`](crate::EsgScheduler); see
/// the module docs. Install it with
/// `EsgScheduler::new().with_policy(PolicyStack::new().with(BandwidthAwarePacking::default()))`;
/// [`run_simulation`](esg_sim::run_simulation) checks its knobs before
/// the run starts.
#[derive(Clone, Debug)]
pub struct BandwidthAwarePacking {
    cfg: BandwidthPackingConfig,
    /// The controller instant the current budget window belongs to.
    round_now: f64,
    /// Expansions spent by decisions at `round_now`.
    spent: u64,
    /// Scratch: `(score, queue)` pairs of one ranking.
    scored: Vec<(f64, usize)>,
}

impl Default for BandwidthAwarePacking {
    fn default() -> Self {
        BandwidthAwarePacking::new(BandwidthPackingConfig::default())
    }
}

impl BandwidthAwarePacking {
    /// A packing stage with explicit knobs.
    pub fn new(cfg: BandwidthPackingConfig) -> BandwidthAwarePacking {
        BandwidthAwarePacking {
            cfg,
            round_now: f64::NEG_INFINITY,
            spent: 0,
            scored: Vec::new(),
        }
    }

    /// Expansions spent in the current budget window.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    fn roll_window(&mut self, now_ms: f64) {
        if now_ms != self.round_now {
            self.round_now = now_ms;
            self.spent = 0;
        }
    }

    /// The ranking score of queue `i`: normalised slack, minus the warm
    /// co-location bias, plus the contention penalty. Lower is more
    /// urgent. Without contention the penalty term is skipped, not
    /// added as zero, so the score is the warm-affinity score bit for
    /// bit.
    fn score(&self, ctx: &RoundCtx<'_>, i: usize) -> f64 {
        let q = &ctx.queues[i];
        let slack = q
            .jobs
            .iter()
            .map(|j| j.slack_ms)
            .fold(f64::INFINITY, f64::min);
        let tightness = slack / q.slo_ms.max(f64::MIN_POSITIVE);
        let warm = q.jobs.iter().filter_map(|j| j.pred_node).any(|n| {
            n.index() < ctx.cluster.len() && {
                let view = ctx.cluster.node(n);
                view.online && view.has_warm(q.function)
            }
        });
        let base = if warm {
            tightness - self.cfg.warm_bias
        } else {
            tightness
        };
        match self.worst_pred(ctx, i, DataPlaneView::contending_flows) {
            0 => base,
            flows => base + self.cfg.contention_bias * f64::from(flows),
        }
    }

    /// The worst (largest) `load` among the queue's predecessor nodes;
    /// 0 without a data plane.
    fn worst_pred(
        &self,
        ctx: &RoundCtx<'_>,
        i: usize,
        load: impl Fn(&DataPlaneView, usize) -> u32,
    ) -> u32 {
        let Some(dp) = ctx.dataplane else { return 0 };
        ctx.queues[i]
            .jobs
            .iter()
            .filter_map(|j| j.pred_node)
            .filter(|n| n.index() < dp.len())
            .map(|n| load(dp, n.index()))
            .max()
            .unwrap_or(0)
    }
}

impl RoundPolicy for BandwidthAwarePacking {
    fn name(&self) -> &'static str {
        "esg-packing"
    }

    fn admit(&mut self, ctx: &RoundCtx<'_>, plan: &mut AdmissionPlan) {
        self.roll_window(ctx.now_ms);
        let until_ms = ctx.now_ms + self.cfg.defer_ms;
        if self.spent >= self.cfg.round_budget {
            // Budget exhausted at this instant: defer the whole round
            // (deferred queues re-enter with a fresh budget window; the
            // owning PolicyStack tallies the FINAL deferred decisions,
            // since a verdict here may be out-severitied by a shed).
            plan.set_all(AdmissionDecision::Defer { until_ms });
            return;
        }
        // Defer queues whose input is stuck behind a full staging
        // buffer.
        if self.cfg.defer_queue_depth > 0 {
            for i in 0..ctx.queues.len() {
                let queued = self.worst_pred(ctx, i, |dp, n| dp.node(n).queued);
                if queued >= self.cfg.defer_queue_depth {
                    plan.set(i, AdmissionDecision::Defer { until_ms });
                }
            }
        }
    }

    fn rank(&mut self, ctx: &RoundCtx<'_>, admitted: &[usize], order: &mut Vec<usize>) {
        let mut scored = std::mem::take(&mut self.scored);
        scored.clear();
        scored.extend(admitted.iter().map(|&i| (self.score(ctx, i), i)));
        // Deterministic: ties broken by queue index (controller scan
        // order), scores are pure functions of the round context. The
        // keys are distinct, so the in-place unstable sort gives the
        // one total order.
        scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        order.extend(scored.iter().map(|&(_, i)| i));
        self.scored = scored;
    }

    fn observe(&mut self, ctx: &RoundCtx<'_>, decisions: &[(QueueKey, Outcome)]) {
        self.roll_window(ctx.now_ms);
        self.spent += decisions.iter().map(|(_, o)| o.expansions).sum::<u64>();
    }

    fn validate(&self) -> Result<(), SimError> {
        self.cfg.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_model::{AppId, InvocationId, NodeId, Resources, SloClass};
    use esg_sim::{ClusterState, JobView, NodeLoad, NodeView, QueueView, SimEnv};

    fn job(slack: f64, pred: Option<NodeId>) -> JobView {
        JobView {
            invocation: InvocationId(0),
            ready_at_ms: 0.0,
            invocation_arrival_ms: 0.0,
            slack_ms: slack,
            pred_node: pred,
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

    fn round_ctx<'a>(
        env: &'a SimEnv,
        cluster: &'a ClusterState,
        queues: &'a [QueueView<'a>],
        now_ms: f64,
    ) -> RoundCtx<'a> {
        RoundCtx {
            now_ms,
            queues,
            cluster,
            env,
            env_fingerprint: env.fingerprint(),
            dataplane: None,
        }
    }

    /// The stage's admission verdicts over the round.
    fn admit(stage: &mut BandwidthAwarePacking, ctx: &RoundCtx<'_>) -> AdmissionPlan {
        let mut plan = AdmissionPlan::admit_all(ctx.queues.len());
        stage.admit(ctx, &mut plan);
        plan
    }

    /// The stage's proposed order over `admitted`.
    fn rank(
        stage: &mut BandwidthAwarePacking,
        ctx: &RoundCtx<'_>,
        admitted: &[usize],
    ) -> Vec<usize> {
        let mut order = Vec::new();
        stage.rank(ctx, admitted, &mut order);
        order
    }

    fn idle_cluster(n: usize) -> ClusterState {
        ClusterState::from_views(
            (0..n as u32)
                .map(|i| NodeView::idle(NodeId(i), Resources::new(16, 7)))
                .collect(),
        )
    }

    /// The warm-affinity-only knobs: no contention penalty, no staging
    /// defer.
    fn warm_only() -> BandwidthPackingConfig {
        BandwidthPackingConfig {
            contention_bias: 0.0,
            defer_queue_depth: 0,
            ..BandwidthPackingConfig::default()
        }
    }

    #[test]
    fn ranks_tightest_gslo_first() {
        let env = SimEnv::standard(SloClass::Moderate);
        let cluster = idle_cluster(4);
        let loose = [job(5_000.0, None)];
        let tight = [job(50.0, None)];
        let medium = [job(800.0, None)];
        let queues = [
            queue_view(&env, &loose, 0, 0),
            queue_view(&env, &tight, 1, 0),
            queue_view(&env, &medium, 2, 0),
        ];
        let ctx = round_ctx(&env, &cluster, &queues, 100.0);
        let mut pack = BandwidthAwarePacking::default();
        let order = rank(&mut pack, &ctx, &[0, 1, 2]);
        assert_eq!(order[0], 1, "tightest slack first, got {order:?}");
        // Normalisation: relative tightness, not raw slack, decides. The
        // queues share comparable SLOs here so medium before loose.
        assert_eq!(order[2], 0);
    }

    #[test]
    fn warm_predecessor_boosts_a_queue() {
        let env = SimEnv::standard(SloClass::Moderate);
        let mut cluster = idle_cluster(4);
        let f1 = env.apps[0].nodes[1];
        cluster.node_mut(NodeId(2)).warm = vec![f1];
        // Same slack everywhere; queue 1's input sits on the warm node.
        let cold_jobs = [job(500.0, None)];
        let warm_jobs = [job(500.0, Some(NodeId(2)))];
        let queues = [
            queue_view(&env, &cold_jobs, 0, 0),
            queue_view(&env, &warm_jobs, 0, 1),
        ];
        let ctx = round_ctx(&env, &cluster, &queues, 100.0);
        let mut pack = BandwidthAwarePacking::default();
        let order = rank(&mut pack, &ctx, &[0, 1]);
        assert_eq!(order[0], 1, "warm co-location must win the tie");
        // Without the bias the tie breaks on queue index.
        let mut flat = BandwidthAwarePacking::new(BandwidthPackingConfig {
            warm_bias: 0.0,
            ..BandwidthPackingConfig::default()
        });
        assert_eq!(rank(&mut flat, &ctx, &[0, 1])[0], 0);
    }

    #[test]
    fn budget_exhaustion_defers_and_resets_per_instant() {
        let env = SimEnv::standard(SloClass::Moderate);
        let cluster = idle_cluster(2);
        let jobs = [job(500.0, None)];
        let queues = [queue_view(&env, &jobs, 0, 0)];
        let ctx = round_ctx(&env, &cluster, &queues, 100.0);
        let mut pack = BandwidthAwarePacking::new(BandwidthPackingConfig {
            round_budget: 10,
            defer_ms: 3.0,
            warm_bias: 0.25,
            ..BandwidthPackingConfig::default()
        });
        // Fresh window: admitted.
        assert!(matches!(
            admit(&mut pack, &ctx).decisions()[0],
            AdmissionDecision::Admit
        ));
        // A decision spends past the budget…
        pack.observe(
            &ctx,
            &[(
                QueueKey {
                    app: AppId(0),
                    stage: 0,
                },
                Outcome {
                    expansions: 50,
                    ..Outcome::default()
                },
            )],
        );
        assert_eq!(pack.spent(), 50);
        // …so the same instant defers the rest of the round.
        let plan = admit(&mut pack, &ctx);
        assert_eq!(
            plan.decisions()[0],
            AdmissionDecision::Defer { until_ms: 103.0 }
        );
        // A later instant opens a fresh window.
        let later = round_ctx(&env, &cluster, &queues, 200.0);
        assert!(matches!(
            admit(&mut pack, &later).decisions()[0],
            AdmissionDecision::Admit
        ));
        assert_eq!(pack.spent(), 0);
    }

    #[test]
    fn contention_on_the_pred_node_cancels_the_warm_bias() {
        let env = SimEnv::standard(SloClass::Moderate);
        let mut cluster = idle_cluster(4);
        let f1 = env.apps[0].nodes[1];
        cluster.node_mut(NodeId(2)).warm = vec![f1];
        let cold_jobs = [job(500.0, None)];
        let warm_jobs = [job(500.0, Some(NodeId(2)))];
        let queues = [
            queue_view(&env, &cold_jobs, 0, 0),
            queue_view(&env, &warm_jobs, 0, 1),
        ];
        // Node 2's ingress pool carries 4 contending flows: at the
        // default contention_bias (0.1/flow) the 0.25 warm bonus flips
        // into a net penalty, so the cold queue must now rank first —
        // while warm-only packing (blind to the link) still boosts
        // queue 1.
        let mut loads = vec![NodeLoad::default(); 4];
        loads[2].active_in = 3;
        loads[2].queued = 1;
        let view = DataPlaneView::from_loads(loads);
        let ctx = RoundCtx {
            dataplane: Some(&view),
            ..round_ctx(&env, &cluster, &queues, 100.0)
        };
        let mut bw = BandwidthAwarePacking::default();
        assert_eq!(rank(&mut bw, &ctx, &[0, 1])[0], 0);
        let mut blind = BandwidthAwarePacking::new(warm_only());
        assert_eq!(rank(&mut blind, &ctx, &[0, 1])[0], 1);
        // Idle link: the warm bonus stands and both knob sets agree.
        let idle = DataPlaneView::from_loads(vec![NodeLoad::default(); 4]);
        let idle_ctx = RoundCtx {
            dataplane: Some(&idle),
            ..round_ctx(&env, &cluster, &queues, 100.0)
        };
        assert_eq!(rank(&mut bw, &idle_ctx, &[0, 1])[0], 1);
    }

    #[test]
    fn without_a_data_plane_default_knobs_match_zero_contention_knobs() {
        let env = SimEnv::standard(SloClass::Moderate);
        let mut cluster = idle_cluster(4);
        let f1 = env.apps[0].nodes[1];
        cluster.node_mut(NodeId(2)).warm = vec![f1];
        let cold_jobs = [job(500.0, None)];
        let warm_jobs = [job(500.0, Some(NodeId(2)))];
        let stuck_jobs = [job(300.0, Some(NodeId(1)))];
        let queues = [
            queue_view(&env, &cold_jobs, 0, 0),
            queue_view(&env, &warm_jobs, 0, 1),
            queue_view(&env, &stuck_jobs, 1, 1),
        ];
        let ctx = round_ctx(&env, &cluster, &queues, 100.0);
        let mut default = BandwidthAwarePacking::default();
        let mut zero = BandwidthAwarePacking::new(warm_only());
        assert_eq!(
            admit(&mut default, &ctx).decisions(),
            admit(&mut zero, &ctx).decisions()
        );
        assert_eq!(
            rank(&mut default, &ctx, &[0, 1, 2]),
            rank(&mut zero, &ctx, &[0, 1, 2])
        );
        for i in 0..queues.len() {
            assert_eq!(
                default.score(&ctx, i).to_bits(),
                zero.score(&ctx, i).to_bits()
            );
        }
    }

    #[test]
    fn zero_contention_knobs_ignore_a_contended_data_plane() {
        let env = SimEnv::standard(SloClass::Moderate);
        let mut cluster = idle_cluster(4);
        let f1 = env.apps[0].nodes[1];
        cluster.node_mut(NodeId(2)).warm = vec![f1];
        let cold_jobs = [job(500.0, None)];
        let warm_jobs = [job(500.0, Some(NodeId(2)))];
        let stuck_jobs = [job(300.0, Some(NodeId(1)))];
        let queues = [
            queue_view(&env, &cold_jobs, 0, 0),
            queue_view(&env, &warm_jobs, 0, 1),
            queue_view(&env, &stuck_jobs, 1, 1),
        ];
        // Node 2's ingress is busy and node 1's staging buffer is backed
        // up: default knobs would re-rank queue 1 and defer queue 2.
        let mut loads = vec![NodeLoad::default(); 4];
        loads[2].active_in = 5;
        loads[1].queued = 8;
        let view = DataPlaneView::from_loads(loads);
        let blind_ctx = round_ctx(&env, &cluster, &queues, 100.0);
        let contended = RoundCtx {
            dataplane: Some(&view),
            ..round_ctx(&env, &cluster, &queues, 100.0)
        };
        let mut pack = BandwidthAwarePacking::new(warm_only());
        let admitted = admit(&mut pack, &contended);
        assert_eq!(
            admitted.decisions(),
            admit(&mut pack, &blind_ctx).decisions()
        );
        assert!(admitted
            .decisions()
            .iter()
            .all(|d| matches!(d, AdmissionDecision::Admit)));
        assert_eq!(
            rank(&mut pack, &contended, &[0, 1, 2]),
            rank(&mut pack, &blind_ctx, &[0, 1, 2])
        );
        let mut bw = BandwidthAwarePacking::default();
        assert_ne!(
            admit(&mut bw, &contended).decisions(),
            admitted.decisions(),
            "the default knobs react to the same view"
        );
    }

    #[test]
    fn staging_backpressure_defers_the_starved_queue() {
        let env = SimEnv::standard(SloClass::Moderate);
        let cluster = idle_cluster(4);
        let free_jobs = [job(500.0, None)];
        let stuck_jobs = [job(500.0, Some(NodeId(1)))];
        let queues = [
            queue_view(&env, &free_jobs, 0, 0),
            queue_view(&env, &stuck_jobs, 0, 1),
        ];
        let mut loads = vec![NodeLoad::default(); 4];
        loads[1].queued = 4;
        let view = DataPlaneView::from_loads(loads);
        let ctx = RoundCtx {
            dataplane: Some(&view),
            ..round_ctx(&env, &cluster, &queues, 100.0)
        };
        let mut bw = BandwidthAwarePacking::new(BandwidthPackingConfig::default());
        let plan = admit(&mut bw, &ctx);
        assert!(matches!(plan.decisions()[0], AdmissionDecision::Admit));
        assert_eq!(
            plan.decisions()[1],
            AdmissionDecision::Defer {
                until_ms: 100.0 + BandwidthPackingConfig::default().defer_ms
            }
        );
    }

    #[test]
    fn offline_or_foreign_pred_nodes_get_no_bonus() {
        let env = SimEnv::standard(SloClass::Moderate);
        let mut cluster = idle_cluster(2);
        let f = env.apps[0].nodes[0];
        cluster.node_mut(NodeId(1)).warm = vec![f];
        cluster.node_mut(NodeId(1)).online = false;
        let offline_pred = [job(500.0, Some(NodeId(1)))];
        let foreign_pred = [job(500.0, Some(NodeId(9)))];
        let queues = [
            queue_view(&env, &offline_pred, 0, 0),
            queue_view(&env, &foreign_pred, 0, 0),
        ];
        let ctx = round_ctx(&env, &cluster, &queues, 0.0);
        let pack = BandwidthAwarePacking::default();
        assert_eq!(pack.score(&ctx, 0), pack.score(&ctx, 1));
    }
}
