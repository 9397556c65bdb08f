//! Orion (Mahgoub et al., OSDI '22) extended with GPU sharing (§4.2).
//!
//! "Its scheduling uses best-first search, which creates a priority queue
//! … we expand its state definition to a vector of (batch size, #vCPUs,
//! and #vGPUs), one for each stage. The algorithm examines possible
//! states, with each new state increasing the current state in one
//! dimension of the configuration vector, and the start state S0 has the
//! minimum values for every stage function. The scheduling method decides
//! the schedule for all the stages of an application at the invocation of
//! the first stage; no dynamic adaptation between stages. As in the
//! original work, P95 latency is used as the search goal. The
//! configuration with the closest latency to the SLO is returned when the
//! search exceeds a cut-off time (e.g., 100ms) before reaching the goal."

use esg_model::{AppSpec, Config, InvocationId, NodeId};
use esg_profile::latency_ms;
use esg_sim::{
    place_locality_first, Capabilities, Outcome, OverheadModel, PolicyStack, SchedCtx, Scheduler,
    SchedulerEvent, SchedulerStats,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// One joint state: per-stage indices into the grid's option lists.
type State = Vec<[u8; 3]>;

/// The Orion baseline scheduler.
#[derive(Debug)]
pub struct OrionScheduler {
    cutoff_ms: f64,
    /// Expansion budget derived from the cut-off via the shared
    /// effort→time calibration.
    budget: u64,
    /// Plans fixed at stage-0 dispatch, per invocation.
    plans: HashMap<InvocationId, Vec<Config>>,
    /// The plan computed by the latest stage-0 `schedule` call, bound to
    /// invocations when the platform dispatches.
    pending: Option<Vec<Config>>,
    /// Memoised per-app search results. The search inputs (profiles, SLO)
    /// are static, so every stage-0 decision reproduces the same plan; the
    /// cache avoids recomputing it while the reported `expansions` still
    /// charge the full search to every decision, as the paper measures
    /// (Fig. 9 counts Orion's search time per scheduling decision).
    cache: HashMap<u32, (Vec<Config>, u64)>,
    /// Round-policy stack driving `schedule_round` (classic by default).
    policy: PolicyStack,
}

impl Default for OrionScheduler {
    fn default() -> Self {
        OrionScheduler::new(100.0)
    }
}

impl OrionScheduler {
    /// Creates Orion with a search cut-off in (modelled) milliseconds; the
    /// paper's default is 100 ms, and Fig. 9 sweeps it.
    pub fn new(cutoff_ms: f64) -> OrionScheduler {
        let per_exp = OverheadModel::default().us_per_expansion;
        OrionScheduler {
            cutoff_ms,
            budget: ((cutoff_ms * 1000.0 / per_exp).max(1.0)) as u64,
            plans: HashMap::new(),
            pending: None,
            cache: HashMap::new(),
            policy: PolicyStack::new(),
        }
    }

    /// Replaces the round-policy stack (see `esg_sim::PolicyStack`).
    pub fn with_policy(mut self, policy: PolicyStack) -> Self {
        self.policy = policy;
        self
    }

    fn plan_cached(&mut self, ctx: &SchedCtx<'_>, app: &AppSpec) -> (Vec<Config>, u64) {
        if let Some(hit) = self.cache.get(&ctx.key.app.0) {
            return hit.clone();
        }
        let result = self.plan_app(ctx, app);
        self.cache.insert(ctx.key.app.0, result.clone());
        result
    }

    /// The configured cut-off.
    pub fn cutoff_ms(&self) -> f64 {
        self.cutoff_ms
    }

    /// Best-first search over the joint configuration vector.
    ///
    /// States are ordered by total per-job cost (cheapest first, the
    /// resource-frugal direction); the goal is an estimated end-to-end P95
    /// within the SLO. Returns `(plan, expansions)`.
    fn plan_app(&self, ctx: &SchedCtx<'_>, app: &AppSpec) -> (Vec<Config>, u64) {
        let grid = ctx.profiles.grid();
        let dims = [grid.batches.len(), grid.vcpus.len(), grid.vgpus.len()];
        let stages = app.num_stages();
        let p95 = ctx.noise.p95_factor();
        let slo = ctx.slo_ms;

        let config_of = |s: &[u8; 3]| -> Config {
            Config::new(
                grid.batches[s[0] as usize],
                grid.vcpus[s[1] as usize],
                grid.vgpus[s[2] as usize],
            )
        };
        let evaluate = |state: &State| -> (f64, f64) {
            let mut lat = 0.0;
            let mut cost = 0.0;
            for (i, s) in state.iter().enumerate() {
                let cfg = config_of(s);
                let spec = ctx.catalog.get(app.nodes[i]);
                let l = latency_ms(spec, cfg);
                lat += l;
                cost += ctx.price.per_job_cost_cents(cfg, l);
            }
            (lat * p95, cost)
        };

        #[derive(PartialEq)]
        struct Node(f64, State);
        impl Eq for Node {}
        impl PartialOrd for Node {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Node {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0
                    .total_cmp(&other.0)
                    .then_with(|| self.1.cmp(&other.1))
            }
        }

        // Best-first guided by P95 distance to the SLO ("P95 latency is
        // used as the search goal"): the frontier marches towards
        // SLO-adjacent states — which is where the cheap large-batch
        // right-sizings live — instead of wandering the cheap-but-slow
        // corner of the joint space.
        let start: State = vec![[0, 0, 0]; stages];
        let mut heap: BinaryHeap<Reverse<Node>> = BinaryHeap::new();
        let mut visited: HashSet<State> = HashSet::new();
        let (start_lat, start_cost) = evaluate(&start);
        heap.push(Reverse(Node((start_lat - slo).abs(), start.clone())));
        visited.insert(start);

        let mut expansions: u64 = 0;
        let mut closest: (f64, State) = (f64::INFINITY, vec![[0, 0, 0]; stages]);
        // Cheapest goal found so far. Per-job cost is not monotone along
        // expansion (bigger batches are cheaper), so the search keeps
        // going until the cut-off looking for cheaper SLO-meeting states —
        // this is what drives Orion's plans towards large batches and the
        // Table-4 configuration misses.
        let mut best_goal: Option<(f64, State)> = None;

        while let Some(Reverse(Node(_, state))) = heap.pop() {
            let (lat, cost) = evaluate(&state);
            let gap = (lat - slo).abs();
            if gap < closest.0 {
                closest = (gap, state.clone());
            }
            if lat <= slo && best_goal.as_ref().is_none_or(|(c, _)| cost < *c) {
                best_goal = Some((cost, state.clone()));
            }
            if expansions >= self.budget {
                break; // cut-off
            }
            'expand: for stage in 0..stages {
                for dim in 0..3 {
                    if (state[stage][dim] as usize) + 1 >= dims[dim] {
                        continue;
                    }
                    let mut next = state.clone();
                    next[stage][dim] += 1;
                    expansions += 1;
                    if visited.insert(next.clone()) {
                        let (lat, _) = evaluate(&next);
                        heap.push(Reverse(Node((lat - slo).abs(), next)));
                    }
                    if expansions >= self.budget {
                        break 'expand;
                    }
                }
            }
        }
        let _ = (start_lat, start_cost);
        let chosen = match best_goal {
            Some((_, state)) => state,
            None => closest.1,
        };
        let plan = chosen.iter().map(config_of).collect();
        // A cut-off search consumes its whole budget on the controller
        // even when cheap goals were found early (Fig. 9).
        let charged = if expansions >= self.budget {
            self.budget
        } else {
            expansions.max(1)
        };
        (plan, charged)
    }
}

impl Scheduler for OrionScheduler {
    fn name(&self) -> &'static str {
        "Orion"
    }

    fn capabilities(&self) -> Capabilities {
        // Table 1 row: GPU sharing ×, inter-function relation √,
        // adaptive ×, data locality ×, pre-warming √.
        Capabilities {
            gpu_sharing: false,
            inter_function_relation: true,
            adaptive: false,
            data_locality: false,
            pre_warming: true,
        }
    }

    fn schedule(&mut self, ctx: &SchedCtx<'_>) -> Outcome {
        if ctx.jobs.is_empty() {
            return Outcome::skip();
        }
        let app = ctx.app_spec();
        if ctx.key.stage == 0 {
            // Plan the whole workflow at the invocation of the first stage.
            let (plan, expansions) = self.plan_cached(ctx, app);
            let config = plan[0];
            self.pending = Some(plan);
            return Outcome {
                candidates: vec![config],
                expansions,
                planned_batch: Some(config.batch),
                ..Outcome::default()
            };
        }
        // Later stages replay the stage-0 plan of the oldest invocation —
        // no adaptation (§4.2), which is where Table 4's misses come from.
        let planned = ctx
            .jobs
            .first()
            .and_then(|j| self.plans.get(&j.invocation))
            .map(|plan| plan[ctx.key.stage]);
        match planned {
            Some(config) => Outcome {
                candidates: vec![config],
                expansions: 1,
                planned_batch: Some(config.batch),
                ..Outcome::default()
            },
            None => {
                // The invocation predates this scheduler (or the plan was
                // evicted): re-plan once.
                let (plan, expansions) = self.plan_cached(ctx, app);
                let config = plan[ctx.key.stage];
                self.pending = Some(plan);
                Outcome {
                    candidates: vec![config],
                    expansions,
                    planned_batch: Some(config.batch),
                    ..Outcome::default()
                }
            }
        }
    }

    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
        let preferred = ctx
            .jobs
            .iter()
            .take(config.batch as usize)
            .find_map(|j| j.pred_node);
        place_locality_first(ctx, config.resources(), preferred)
    }

    fn on_event(&mut self, event: &SchedulerEvent<'_>) {
        let SchedulerEvent::Dispatched {
            key, invocations, ..
        } = *event
        else {
            return;
        };
        if key.stage == 0 {
            if let Some(plan) = self.pending.take() {
                for &inv in invocations {
                    self.plans.insert(inv, plan.clone());
                }
            }
        } else {
            // Drop plans after the final stage to bound memory.
            for &inv in invocations {
                if let Some(plan) = self.plans.get(&inv) {
                    if key.stage + 1 >= plan.len() {
                        self.plans.remove(&inv);
                    }
                }
            }
        }
    }

    fn round_policy(&mut self) -> Option<&mut PolicyStack> {
        Some(&mut self.policy)
    }

    fn stats(&self) -> SchedulerStats {
        SchedulerStats::default().with_policy(self.policy.policy_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{ctx_for, idle_cluster, jobs_with_slack};
    use esg_model::SloClass;
    use esg_sim::SimEnv;

    #[test]
    fn stage0_plans_whole_workflow() {
        // Small grid so the P95 goal is reachable within the cut-off (on
        // the full grid the joint space is ~11M states and Orion usually
        // hits the cut-off first — exactly the paper's Fig. 9 story).
        let env = esg_sim::SimEnv::with_grid(
            SloClass::Moderate,
            esg_model::ConfigGrid::new(vec![1, 2, 4], vec![1, 2, 4, 8], vec![1, 2]),
        );
        let cluster = idle_cluster(4);
        let jobs = jobs_with_slack(&[500.0, 480.0]);
        let mut s = OrionScheduler::default();
        let c = ctx_for(&env, &cluster, &jobs, 0, 0, 20.0);
        let out = s.schedule(&c);
        assert_eq!(out.candidates.len(), 1);
        assert!(out.expansions >= 1);
        let pending = s.pending.as_ref().expect("plan cached");
        assert_eq!(pending.len(), 3);
        // Plan must satisfy the P95 goal under a moderate SLO.
        let p95 = env.noise.p95_factor();
        let total: f64 = pending
            .iter()
            .zip(&env.apps[0].nodes)
            .map(|(cfg, &f)| latency_ms(env.catalog.get(f), *cfg) * p95)
            .sum();
        assert!(total <= c.slo_ms + 1e-9, "{total} > {}", c.slo_ms);
    }

    #[test]
    fn full_grid_hits_cutoff_and_returns_closest() {
        // On the default grid the cheap-first frontier rarely reaches the
        // expensive fast region before the cut-off; Orion then returns the
        // state with latency closest to the SLO (§4.2).
        let env = SimEnv::standard(SloClass::Moderate);
        let cluster = idle_cluster(4);
        let jobs = jobs_with_slack(&[500.0]);
        let mut s = OrionScheduler::new(5.0); // tiny cut-off
        let c = ctx_for(&env, &cluster, &jobs, 0, 0, 20.0);
        let out = s.schedule(&c);
        assert_eq!(out.candidates.len(), 1);
        assert!(out.expansions <= s.budget + 1);
        // Same inputs -> memoised plan, same expansions charged again.
        let mut s2 = OrionScheduler::new(5.0);
        let out2 = s2.schedule(&c);
        assert_eq!(out.candidates, out2.candidates);
        assert_eq!(out.expansions, out2.expansions);
    }

    #[test]
    fn plans_bound_to_invocations_and_replayed() {
        let env = SimEnv::standard(SloClass::Moderate);
        let cluster = idle_cluster(4);
        let jobs = jobs_with_slack(&[500.0, 490.0]);
        let mut s = OrionScheduler::default();
        let c0 = ctx_for(&env, &cluster, &jobs, 0, 0, 20.0);
        let out0 = s.schedule(&c0);
        let invs: Vec<InvocationId> = jobs.iter().map(|j| j.invocation).collect();
        s.on_event(&SchedulerEvent::Dispatched {
            key: c0.key,
            invocations: &invs,
            config: out0.candidates[0],
            node: NodeId(0),
            now_ms: 20.0,
        });
        assert_eq!(s.plans.len(), 2);

        // Stage 1 replays the plan for the oldest invocation.
        let c1 = ctx_for(&env, &cluster, &jobs, 0, 1, 250.0);
        let out1 = s.schedule(&c1);
        assert_eq!(out1.expansions, 1, "no re-search at later stages");
        assert_eq!(
            out1.candidates[0], s.plans[&jobs[0].invocation][1],
            "stage-1 config must come from the stage-0 plan"
        );
        // Plans are dropped after the last stage dispatch.
        let c2 = ctx_for(&env, &cluster, &jobs, 0, 2, 400.0);
        let out2 = s.schedule(&c2);
        s.on_event(&SchedulerEvent::Dispatched {
            key: c2.key,
            invocations: &invs,
            config: out2.candidates[0],
            node: NodeId(0),
            now_ms: 400.0,
        });
        assert!(s.plans.is_empty());
    }

    #[test]
    fn cutoff_limits_expansions() {
        let env = SimEnv::standard(SloClass::Strict);
        let cluster = idle_cluster(4);
        let jobs = jobs_with_slack(&[100.0]);
        // 1 ms cut-off -> ~2.3k expansions max.
        let mut tiny = OrionScheduler::new(1.0);
        // Long pipeline + strict SLO makes the goal hard to reach.
        let c = ctx_for(&env, &cluster, &jobs, 3, 0, 5.0);
        let out = tiny.schedule(&c);
        assert!(
            out.expansions <= tiny.budget + 1,
            "{} > {}",
            out.expansions,
            tiny.budget
        );
        assert_eq!(out.candidates.len(), 1, "closest state returned at cutoff");
    }

    #[test]
    fn bigger_cutoff_never_worse_latency_goal() {
        let env = SimEnv::standard(SloClass::Strict);
        let cluster = idle_cluster(4);
        let jobs = jobs_with_slack(&[100.0]);
        let mut small = OrionScheduler::new(0.5);
        let mut large = OrionScheduler::new(500.0);
        let c = ctx_for(&env, &cluster, &jobs, 3, 0, 5.0);
        let eval = |plan: &[Config]| -> f64 {
            plan.iter()
                .zip(&env.apps[3].nodes)
                .map(|(cfg, &f)| latency_ms(env.catalog.get(f), *cfg))
                .sum::<f64>()
                * env.noise.p95_factor()
        };
        small.schedule(&c);
        large.schedule(&c);
        let lat_small = eval(small.pending.as_ref().expect("plan"));
        let lat_large = eval(large.pending.as_ref().expect("plan"));
        // The larger budget gets at least as close to the SLO target.
        assert!(
            (lat_large - c.slo_ms).abs() <= (lat_small - c.slo_ms).abs() + 1e-9,
            "large {lat_large}, small {lat_small}, slo {}",
            c.slo_ms
        );
    }

    #[test]
    fn miss_accounting_setup() {
        // Orion reports planned_batch so the platform can count Table-4
        // configuration misses when the plan's batch exceeds the queue.
        let env = SimEnv::standard(SloClass::Relaxed);
        let cluster = idle_cluster(4);
        let jobs = jobs_with_slack(&[2000.0]);
        let mut s = OrionScheduler::default();
        let c = ctx_for(&env, &cluster, &jobs, 0, 0, 10.0);
        let out = s.schedule(&c);
        assert_eq!(out.planned_batch, Some(out.candidates[0].batch));
    }
}
