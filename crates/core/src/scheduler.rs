//! [`EsgScheduler`]: ESG plugged into the simulation platform.
//!
//! Per decision (§3.1, Fig. 2d):
//!
//! 1. look up the queue's stage in the app's dominator-based SLO plan;
//! 2. convert the oldest queued invocation's *current slack* into the
//!    group target `GSLO` (re-deriving the quota from live state is what
//!    makes ESG adaptive: delays upstream shrink the budget downstream,
//!    head-room upstream relaxes it);
//! 3. run ESG_1Q over the remaining stages of the group, with the first
//!    stage's batch capped at the live queue length;
//! 4. return the configuration priority queue (first-stage configs of the
//!    K cheapest paths);
//! 5. place with locality first (§3.4): predecessor invoker, home invoker,
//!    warm invokers, freest cold invoker.

use crate::bounds::StageTableMemo;
use crate::cache::{quantize_gslo, PlanCache, PlanKey};
use crate::plan::AppPlans;
use crate::search::{astar_summary, SearchScratch, SearchSummary};
use esg_model::{Config, NodeId};
use esg_sim::{
    place_locality_first, BatchHold, Capabilities, Outcome, PolicyStack, SchedCtx, Scheduler,
    SchedulerStats,
};

/// State derived from a context's apps and profile table: the SLO plans
/// and the memoised stage tables.
#[derive(Debug)]
struct EnvState {
    /// The `SchedCtx::env_fingerprint` the state was built under; a
    /// context with another gets new state.
    fingerprint: u64,
    plans: AppPlans,
    tables: StageTableMemo,
}

impl EnvState {
    fn build(ctx: &SchedCtx<'_>, group_size: usize) -> EnvState {
        let plans = AppPlans::build(&ctx.env.apps, &ctx.env.profiles, group_size);
        EnvState {
            fingerprint: ctx.env_fingerprint,
            tables: StageTableMemo::new(&ctx.env.profiles, plans.num_windows()),
            plans,
        }
    }
}

/// The ESG scheduling algorithm.
#[derive(Debug)]
pub struct EsgScheduler {
    group_size: usize,
    k: usize,
    /// Built from the first context; rebuilt (and the plan cache dropped)
    /// when a context brings another environment, whose stage-table slots
    /// the cache keys would otherwise conflate.
    env: Option<EnvState>,
    /// Memoised searches (None = caching disabled; the search budget is
    /// quantized either way, so disabling the cache cannot change
    /// decisions — see `crate::cache`).
    cache: Option<PlanCache>,
    /// Reused search allocations; its candidates are those of the latest
    /// [`plan_window`](Self::plan_window).
    scratch: SearchScratch,
    /// Full searches actually executed.
    searches: u64,
    /// The round-policy stack driving `schedule_round` (classic/empty by
    /// default — bit-identical to the pre-policy contract).
    policy: PolicyStack,
}

impl Default for EsgScheduler {
    fn default() -> Self {
        EsgScheduler::new()
    }
}

impl EsgScheduler {
    /// ESG with the paper's defaults: group size 3, K = 5, A* search,
    /// plan cache on.
    pub fn new() -> EsgScheduler {
        EsgScheduler {
            group_size: 3,
            k: 5,
            env: None,
            cache: Some(PlanCache::new()),
            scratch: SearchScratch::new(),
            searches: 0,
            policy: PolicyStack::new(),
        }
    }

    /// Replaces the round-policy stack (e.g. `PolicyStack::new()
    /// .with(SloAdmission::default()).with(BandwidthAwarePacking::default())`).
    pub fn with_policy(mut self, policy: PolicyStack) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the maximum function-group size (§5.4 sensitivity). The
    /// SLO plans and stage tables are rebuilt for the new groups, and the
    /// plan cache starts afresh: its keys name the old groups' windows.
    pub fn with_group_size(mut self, g: usize) -> Self {
        assert!(g >= 1);
        self.group_size = g;
        self.env = None;
        self.fresh_cache()
    }

    /// Overrides the solution count K (§5.4 sensitivity, Fig. 11). The
    /// plan cache starts afresh: its keys leave K out.
    pub fn with_k(mut self, k: usize) -> Self {
        assert!(k >= 1);
        self.k = k;
        self.fresh_cache()
    }

    /// An empty plan cache of the same capacity, if caching is on.
    fn fresh_cache(mut self) -> Self {
        self.cache = self.cache.map(|c| PlanCache::with_capacity(c.capacity()));
        self
    }

    /// Bounds the plan cache to `capacity` entries.
    pub fn with_plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = Some(PlanCache::with_capacity(capacity));
        self
    }

    /// Disables the plan cache (every dispatch searches from scratch).
    /// Decisions are unchanged — the cache is a pure memo — which
    /// `tests/plan_cache_equivalence.rs` pins bit-for-bit.
    pub fn without_plan_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// The configured K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The configured group size.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// One memoised ESG_1Q invocation over the search window of `app`'s
    /// `stage`, with the first stage's batch capped at `cap`; its
    /// candidates are left in `self.scratch`.
    ///
    /// The effective budget is quantized onto the cache's bucket grid
    /// first (cache on or off — quantization is what makes the memo
    /// semantically invisible), then the cache is consulted before a real
    /// search runs. A miss searches the window's memoised stage table.
    /// `probe` selects the cheap K=1 exact form used for wait-target
    /// evaluation; dispatch-quality searches use K with a 50% premium
    /// band (alternates far above the optimum never beat re-running the
    /// search).
    fn plan_window(
        &mut self,
        ctx: &SchedCtx<'_>,
        app: usize,
        stage: usize,
        cap: u32,
        gslo_eff: f64,
        probe: bool,
    ) -> SearchSummary {
        let gslo_q = quantize_gslo(gslo_eff);
        let env = self
            .env
            .as_mut()
            .expect("env state is built before planning");
        let plan = env.plans.plan(app);
        let window = plan.window_id(stage);
        let key = PlanKey::new(env.tables.slot(window, cap), probe, gslo_q);
        if let Some(cache) = &mut self.cache {
            if let Some(hit) = cache.get(&key, &mut self.scratch.candidates) {
                return hit;
            }
        }
        let table = env
            .tables
            .table(window, plan.window_fns(stage), cap, &ctx.env.profiles);
        self.searches += 1;
        let (k, premium) = if probe { (1, 0.0) } else { (self.k, 0.5) };
        let summary = astar_summary(table, gslo_q, k, premium, &mut self.scratch);
        if let Some(cache) = &mut self.cache {
            cache.insert(key, summary, self.scratch.candidates());
        }
        summary
    }

    /// The latest plan's candidates, each batch clamped to `qlen`.
    fn clamped_candidates(&self, qlen: u32) -> Vec<Config> {
        self.scratch
            .candidates()
            .iter()
            .map(|c| c.clamp_batch(qlen))
            .collect()
    }
}

impl Scheduler for EsgScheduler {
    fn name(&self) -> &'static str {
        "ESG"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            gpu_sharing: true,
            inter_function_relation: true,
            adaptive: true,
            data_locality: true,
            pre_warming: true,
        }
    }

    fn schedule(&mut self, ctx: &SchedCtx<'_>) -> Outcome {
        if ctx.queue.jobs.is_empty() {
            return Outcome::skip();
        }
        if self
            .env
            .as_ref()
            .is_none_or(|e| e.fingerprint != ctx.env_fingerprint)
        {
            if self.env.is_some() {
                if let Some(cache) = &mut self.cache {
                    cache.invalidate();
                }
            }
            self.env = Some(EnvState::build(ctx, self.group_size));
        }
        let app_idx = ctx.queue.key.app.index();
        let stage = ctx.queue.key.stage;
        let plan = self.env.as_ref().expect("just built").plans.plan(app_idx);

        // Remaining stages of this stage's group.
        let app = ctx.app_spec();
        let window = plan.search_window(stage);

        // GSLO from live slack: the oldest invocation's remaining time,
        // scaled by the window's share of all remaining work, minus the
        // overheads the profile does not model — input transfers for the
        // window's stages (locality-dependent) and a dispatch/queueing
        // margin per stage. Without this margin the search fills the whole
        // budget with execution time and the hand-off costs push the
        // end-to-end latency just past the SLO.
        let slack = ctx
            .queue
            .jobs
            .iter()
            .map(|j| j.slack_ms)
            .fold(f64::INFINITY, f64::min);
        let transfer_est: f64 = window
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let input = ctx.env.catalog.get(app.nodes[v]).input_mb;
                let local = if i == 0 {
                    // First stage: entry inputs come from the gateway.
                    ctx.queue
                        .jobs
                        .first()
                        .is_some_and(|j| j.pred_node.is_some())
                } else {
                    true // later window stages co-locate under ESG_Dispatch
                };
                ctx.env.transfer.ms(input, local)
            })
            .sum();
        const DISPATCH_MARGIN_MS: f64 = 5.0;
        let margin = transfer_est + DISPATCH_MARGIN_MS * window.len() as f64;
        let window_share = plan.window_share(stage);
        let gslo = ((slack - margin) * window_share).max(0.0);

        // Plan against the noise tail, not the mean: a path whose *mean*
        // time equals the budget misses half the time. Scaling the target
        // by 1/P95 makes the selected path's 95th percentile fit (the same
        // device Orion uses, §4.2; ESG lands "below but close to the SLO").
        let p95 = ctx.env.noise.p95_factor();

        // Heterogeneity: the stage tables hold baseline-class latencies,
        // but this batch will run `speed ×` slower on the node ESG_Dispatch
        // is about to pick. Probe the dispatch policy with a minimal
        // demand to learn that node's class, then shrink the search budget
        // by its factor — dividing the budget is equivalent to scaling
        // every stage-table latency by the class (Appendix A). The probe
        // is refined after the search: see below. On a cluster of
        // baseline nodes every probe reads 1.0, so none is run.
        let preferred = ctx.queue.jobs.iter().find_map(|j| j.pred_node);
        let unit_speed = ctx.cluster.unit_speed();
        let speed_at = |demand: esg_model::Resources| {
            if unit_speed {
                return 1.0;
            }
            place_locality_first(ctx, demand, preferred)
                .map(|n| ctx.cluster.speed_of(n))
                .unwrap_or(1.0)
        };
        let mut speed = speed_at(Config::MIN.resources());
        let mut gslo_eff = gslo / (p95 * speed);

        let qlen = ctx.queue.jobs.len() as u32;

        // First search without a batch cap: ESG_1Q explores the full
        // (batch, vCPUs, vGPUs) space (§3.1 — "ESG_1Q does not consider
        // current resource availability constraints"). The plan cache is
        // consulted before any table is built or search run; a hit replays
        // the memoised result (same expansions, so the simulated overhead
        // accounting is cache-oblivious).
        let max_batch = ctx.env.profiles.grid().max_batch();
        let mut planned = self.plan_window(ctx, app_idx, stage, max_batch, gslo_eff, false);
        let mut expansions = planned.expansions;

        // Refine the class probe: the MIN-demand probe can land on a fast
        // node that lacks room for the *chosen* config's real demand, in
        // which case dispatch falls through to a slower class and the
        // planned latency is optimistic. Re-probe with the winning
        // config's demand; if the refined class is slower, re-run the
        // search once under the tighter budget (bounded: one extra pass,
        // only in the SLO-dangerous direction).
        if planned.feasible {
            let refined = speed_at(self.scratch.candidates()[0].resources());
            if refined > speed + 1e-9 {
                speed = refined;
                gslo_eff = gslo / (p95 * speed);
                planned = self.plan_window(ctx, app_idx, stage, max_batch, gslo_eff, false);
                expansions += planned.expansions;
            }
        }

        if !planned.feasible {
            // No path fits the conservative (tail- and margin-adjusted)
            // budget. Two very different situations hide here:
            //
            // * *Borderline*: the raw slack still covers the window's
            //   fastest path — race for the deadline with the fastest
            //   configurations (`setDefaultPaths` semantics).
            // * *Hopeless*: the deadline is already lost. Draining with
            //   resource-maximal configs would steal capacity from
            //   invocations that can still win; drain cost-efficiently
            //   instead (largest affordable batch, cheapest per job).
            // "Winnable" is judged at the *fastest* class any feasible
            // node offers — a borderline deadline may still be met by
            // racing on a fast node even when the locality pick is slow.
            let best_speed = ctx
                .cluster
                .fastest_speed(Config::MIN.resources())
                .unwrap_or(speed);
            let winnable = planned.min_total_ms * best_speed <= slack.max(0.0) * window_share;
            let cheapest = if winnable {
                None
            } else {
                let profile = ctx.env.profiles.profile(ctx.queue.function);
                profile.entries_by_cost().find(|e| e.config.batch <= qlen)
            };
            return Outcome {
                candidates: match cheapest {
                    Some(e) => vec![e.config],
                    None => self.clamped_candidates(qlen),
                },
                expansions,
                planned_batch: None,
                ..Outcome::default()
            };
        }

        let best_batch = self.scratch.candidates()[0].batch;
        if best_batch > qlen {
            // The cost-optimal batch needs more jobs than are queued. Try
            // batch targets in descending order: hold the queue for the
            // largest batch whose formation wait plus (tail-adjusted) path
            // time still fits the budget; otherwise adapt to the live
            // queue (the adaptation Table 4 credits ESG with —
            // pre-planned schedulers clamp and miss instead).
            if let Some(interval) = ctx.queue.queue_interval_ms {
                // Grid batches are ascending (`ConfigGrid::max_batch`
                // relies on it too).
                let batches = ctx.env.profiles.grid().batches.iter().rev();
                for &b in batches.filter(|&&b| b > qlen && b <= best_batch) {
                    // The first target is `best_batch` itself, whose plan
                    // (and candidates) are the dispatch search's.
                    let p = if b == best_batch {
                        planned
                    } else {
                        let p = self.plan_window(ctx, app_idx, stage, b, gslo_eff, true);
                        expansions += p.expansions;
                        p
                    };
                    if !p.feasible {
                        continue;
                    }
                    let actual = self.scratch.candidates()[0].batch;
                    if actual <= qlen {
                        // The cap pushed the optimum inside the queue.
                        return Outcome {
                            candidates: self.scratch.candidates().to_vec(),
                            expansions,
                            planned_batch: None,
                            ..Outcome::default()
                        };
                    }
                    let wait = (actual - qlen) as f64 * interval;
                    if p.best_time_ms * p95 * speed + wait <= gslo {
                        // The platform re-decides the queue once the
                        // batch has formed or the wait has run out.
                        return Outcome {
                            expansions,
                            hold: Some(BatchHold {
                                until_ms: ctx.now_ms + wait,
                                min_jobs: actual,
                            }),
                            ..Outcome::default()
                        };
                    }
                }
            }
            let capped = self.plan_window(ctx, app_idx, stage, qlen, gslo_eff, false);
            return Outcome {
                candidates: self.scratch.candidates().to_vec(),
                expansions: expansions + capped.expansions,
                planned_batch: None,
                ..Outcome::default()
            };
        }

        // Clamp cheaper K-th alternatives that still over-batch.
        Outcome {
            candidates: self.clamped_candidates(qlen),
            expansions,
            planned_batch: None,
            ..Outcome::default()
        }
    }

    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
        // Prefer the predecessor invoker of the jobs that will form the
        // batch (§3.4); the oldest job decides on disagreement.
        let preferred = ctx
            .queue
            .jobs
            .iter()
            .take(config.batch as usize)
            .find_map(|j| j.pred_node);
        place_locality_first(ctx, config.resources(), preferred)
    }

    fn round_policy(&mut self) -> Option<&mut PolicyStack> {
        Some(&mut self.policy)
    }

    fn stats(&self) -> SchedulerStats {
        let c = self.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        SchedulerStats {
            searches: self.searches,
            plan_cache_hits: c.hits,
            plan_cache_misses: c.misses,
            plan_cache_evictions: c.evictions,
            plan_cache_invalidations: c.invalidations,
            ..SchedulerStats::default()
        }
        .with_policy(self.policy.policy_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_model::{AppId, Resources, SloClass};

    use esg_sim::{ClusterState, NodeView, QueueKey, QueueView, SimEnv};

    fn env() -> SimEnv {
        SimEnv::standard(SloClass::Moderate)
    }

    fn idle_cluster(n: usize) -> ClusterState {
        ClusterState::from_views(
            (0..n as u32)
                .map(|i| NodeView::idle(NodeId(i), Resources::new(16, 7)))
                .collect(),
        )
    }

    fn ctx<'a>(
        env: &'a SimEnv,
        cluster: &'a ClusterState,
        jobs: &'a [esg_sim::JobView],
        app: u32,
        stage: usize,
    ) -> SchedCtx<'a> {
        let queue = QueueView {
            key: QueueKey {
                app: AppId(app),
                stage,
            },
            jobs,
            function: env.apps[app as usize].nodes[stage],
            slo_ms: env.slo_ms(AppId(app)),
            base_latency_ms: env.base_latency_ms(AppId(app)),
            queue_interval_ms: None,
        };
        SchedCtx {
            now_ms: 100.0,
            queue,
            cluster,
            env,
            env_fingerprint: env.fingerprint(),
        }
    }

    fn job(slack: f64, pred: Option<NodeId>) -> esg_sim::JobView {
        esg_sim::JobView {
            invocation: esg_model::InvocationId(0),
            ready_at_ms: 90.0,
            invocation_arrival_ms: 50.0,
            slack_ms: slack,
            pred_node: pred,
        }
    }

    #[test]
    fn produces_candidates_within_queue_batch() {
        let env = env();
        let cluster = idle_cluster(4);
        let jobs = vec![job(500.0, None), job(480.0, None)];
        let mut s = EsgScheduler::new();
        let out = s.schedule(&ctx(&env, &cluster, &jobs, 0, 0));
        assert!(!out.candidates.is_empty());
        assert!(out.expansions > 0);
        assert!(out.candidates.iter().all(|c| c.batch <= 2));
        assert!(out.planned_batch.is_none());
    }

    #[test]
    fn empty_queue_skips() {
        let env = env();
        let cluster = idle_cluster(4);
        let mut s = EsgScheduler::new();
        let out = s.schedule(&ctx(&env, &cluster, &[], 0, 0));
        assert!(out.candidates.is_empty());
    }

    #[test]
    fn tight_slack_prefers_faster_configs() {
        let env = env();
        let cluster = idle_cluster(4);
        let mut s = EsgScheduler::new();
        let generous = vec![job(2000.0, None)];
        let tight = vec![job(300.0, None)];
        let out_g = s.schedule(&ctx(&env, &cluster, &generous, 0, 0));
        let out_t = s.schedule(&ctx(&env, &cluster, &tight, 0, 0));
        let p = &env.profiles;
        let lat = |c: Config| {
            p.profile(env.apps[0].nodes[0])
                .find(c)
                .expect("grid config")
                .latency_ms
        };
        assert!(
            lat(out_t.candidates[0]) <= lat(out_g.candidates[0]),
            "tight slack should not pick a slower config"
        );
    }

    #[test]
    fn expired_slack_still_yields_candidates() {
        let env = env();
        let cluster = idle_cluster(4);
        let mut s = EsgScheduler::new();
        let out = s.schedule(&ctx(&env, &cluster, &[job(-100.0, None)], 0, 0));
        // Deadline already blown: fall back to the fastest path (best
        // effort) rather than stalling the queue.
        assert_eq!(out.candidates.len(), 1);
    }

    #[test]
    fn placement_prefers_predecessor_node() {
        let env = env();
        let cluster = idle_cluster(8);
        let jobs = vec![job(800.0, Some(NodeId(5)))];
        let mut s = EsgScheduler::new();
        let c = ctx(&env, &cluster, &jobs, 0, 1);
        let out = s.schedule(&c);
        let node = s.place(&c, out.candidates[0]).expect("idle cluster fits");
        assert_eq!(node, NodeId(5));
    }

    #[test]
    fn placement_falls_back_when_pred_full() {
        let env = env();
        let mut cluster = idle_cluster(8);
        cluster.node_mut(NodeId(5)).free = Resources::new(0, 0);
        let jobs = vec![job(800.0, Some(NodeId(5)))];
        let mut s = EsgScheduler::new();
        let c = ctx(&env, &cluster, &jobs, 0, 1);
        let out = s.schedule(&c);
        let node = s.place(&c, out.candidates[0]).expect("others fit");
        assert_ne!(node, NodeId(5));
    }

    #[test]
    fn a_used_scheduler_plans_for_its_new_group_size() {
        let env = env();
        let cluster = idle_cluster(4);
        let jobs = vec![job(900.0, None)];
        let c = ctx(&env, &cluster, &jobs, 0, 0);
        let mut used = EsgScheduler::new();
        used.schedule(&c);
        let mut used = used.with_group_size(1);
        let mut fresh = EsgScheduler::new().with_group_size(1);
        assert_eq!(
            format!("{:?}", used.schedule(&c)),
            format!("{:?}", fresh.schedule(&c))
        );
    }

    #[test]
    fn k_controls_candidate_count() {
        let env = env();
        let cluster = idle_cluster(4);
        let jobs = vec![job(1500.0, None)];
        let mut k1 = EsgScheduler::new().with_k(1);
        let mut k8 = EsgScheduler::new().with_k(8);
        let c = ctx(&env, &cluster, &jobs, 2, 0);
        let o1 = k1.schedule(&c);
        let o8 = k8.schedule(&c);
        assert_eq!(o1.candidates.len(), 1);
        assert!(o8.candidates.len() >= o1.candidates.len());
    }

    #[test]
    fn slow_node_class_tightens_the_chosen_config() {
        let env = env();
        let fast = idle_cluster(4);
        let mut slow = idle_cluster(4);
        for i in 0..4u32 {
            slow.node_mut(NodeId(i)).speed = 2.5;
        }
        let jobs = vec![job(900.0, None)];
        let mut a = EsgScheduler::new();
        let mut b = EsgScheduler::new();
        let out_fast = a.schedule(&ctx(&env, &fast, &jobs, 0, 0));
        let out_slow = b.schedule(&ctx(&env, &slow, &jobs, 0, 0));
        assert!(!out_fast.candidates.is_empty());
        assert!(!out_slow.candidates.is_empty());
        let p = &env.profiles;
        let lat = |c: Config| {
            p.profile(env.apps[0].nodes[0])
                .find(c)
                .expect("grid config")
                .latency_ms
        };
        // The slow class eats the budget: ESG must pick a config at least
        // as fast (in baseline profile terms) as on the fast cluster.
        assert!(
            lat(out_slow.candidates[0]) <= lat(out_fast.candidates[0]),
            "slow cluster chose a slower config"
        );
    }

    #[test]
    fn queue_lengths_with_one_effective_cap_share_a_plan() {
        // The default grid's batches are 1, 2, 4 and 8: queues of 5, 6
        // and 7 jobs search the same cap-4 table, so only the first one
        // misses the cache.
        let env = env();
        let cluster = idle_cluster(4);
        let mut s = EsgScheduler::new();
        for qlen in 5..=7 {
            let jobs: Vec<_> = (0..qlen).map(|_| job(3000.0, None)).collect();
            let out = s.schedule(&ctx(&env, &cluster, &jobs, 0, 0));
            assert!(out.candidates.iter().all(|c| c.batch <= 4), "{out:?}");
        }
        let stats = s.stats();
        // One uncapped search planning batch 8, one capped at 4.
        assert_eq!((stats.searches, stats.plan_cache_hits), (2, 4), "{stats:?}");
    }

    #[test]
    fn a_new_profile_table_rebuilds_the_env_state() {
        use esg_model::{standard_app_ids, ConfigGrid, TrafficShape, WorkloadClass};
        use esg_sim::{run_simulation, ExperimentResult, SimConfig};
        // Wall-clock samples vary run to run, and the reused scheduler's
        // counters accumulate across both runs.
        fn canonical(mut r: ExperimentResult) -> String {
            r.scheduler_stats = SchedulerStats::default();
            r.canonical()
        }
        let workload = esg_workload::shaped_workload(
            WorkloadClass::Normal,
            TrafficShape::Bursty,
            &standard_app_ids(),
            7,
            2_000.0,
        );
        let envs = [
            SimEnv::with_grid(SloClass::Moderate, ConfigGrid::minimal()),
            SimEnv::standard(SloClass::Moderate),
        ];
        let mut reused = EsgScheduler::new();
        for env in &envs {
            let run = |s: &mut EsgScheduler| {
                canonical(
                    run_simulation(env, SimConfig::default(), s, &workload, "env", None)
                        .expect("valid run"),
                )
            };
            assert_eq!(run(&mut reused), run(&mut EsgScheduler::new()));
        }
        assert_eq!(reused.stats().plan_cache_invalidations, 1);
    }

    #[test]
    fn capabilities_match_table1() {
        let s = EsgScheduler::new();
        let c = s.capabilities();
        assert!(c.gpu_sharing);
        assert!(c.inter_function_relation);
        assert!(c.adaptive);
        assert!(c.data_locality);
        assert!(c.pre_warming);
    }
}
