//! FaST-GShare (Gu et al. '23) as characterised in §4.2/§5.2.
//!
//! "This work uses FaST-Manager to manage spatio-temporal resources for
//! GPU multiplexing. It also employs an enumeration-based scheduling
//! algorithm which enumerates the configurations based on throughput
//! performance metrics. Its node selection tries to minimize GPU resource
//! fragmentation."
//!
//! The throughput orientation is the behavioural key: FaST-GShare sizes a
//! function to *sustain the arrival rate with the least GPU share*, which
//! satisfies throughput but lets task latency drift high — §5.1 observes
//! its configurations "run too slow" and Fig. 7 shows it at the largest
//! end-to-end latency.

use crate::slo_split::split_all;
use esg_model::{Config, NodeId};
use esg_sim::{Capabilities, Outcome, PolicyStack, SchedCtx, Scheduler, SchedulerStats};

/// The FaST-GShare baseline scheduler.
#[derive(Debug, Default)]
pub struct FastGShareScheduler {
    /// Per-app SLO shares (static, relation-blind), derived at the run's
    /// first decision.
    shares: Vec<Vec<f64>>,
    /// EWMA of per-queue arrival rate (jobs per ms), keyed by (app, stage).
    rates: std::collections::HashMap<(u32, usize), f64>,
    /// Last observed queue state for rate estimation.
    last_seen: std::collections::HashMap<(u32, usize), (f64, usize)>,
    /// Round-policy stack driving `schedule_round` (classic by default).
    policy: PolicyStack,
}

impl FastGShareScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        FastGShareScheduler::default()
    }

    /// Replaces the round-policy stack (see `esg_sim::PolicyStack`).
    pub fn with_policy(mut self, policy: PolicyStack) -> Self {
        self.policy = policy;
        self
    }

    /// Required throughput (jobs/ms): EWMA of observed queue inflow.
    fn required_rate(&mut self, ctx: &SchedCtx<'_>) -> f64 {
        let key = (ctx.queue.key.app.0, ctx.queue.key.stage);
        let now = ctx.now_ms;
        let qlen = ctx.queue.jobs.len();
        let inst = match self.last_seen.insert(key, (now, qlen)) {
            Some((prev_t, _)) if now > prev_t + 1e-9 => qlen as f64 / (now - prev_t),
            _ => {
                // First sight (or same-instant revisit): infer from the
                // oldest wait.
                let wait = ctx.longest_wait_ms().max(1.0);
                qlen as f64 / wait
            }
        };
        let rate = self.rates.entry(key).or_insert(inst);
        *rate = 0.3 * inst + 0.7 * *rate;
        *rate
    }
}

impl Scheduler for FastGShareScheduler {
    fn name(&self) -> &'static str {
        "FaST-GShare"
    }

    fn capabilities(&self) -> Capabilities {
        // Table 1 row: GPU sharing √, inter-function relation ×,
        // adaptive √, data locality ×, pre-warming ×.
        Capabilities {
            gpu_sharing: true,
            inter_function_relation: false,
            adaptive: true,
            data_locality: false,
            pre_warming: false,
        }
    }

    fn schedule(&mut self, ctx: &SchedCtx<'_>) -> Outcome {
        if ctx.queue.jobs.is_empty() {
            return Outcome::skip();
        }
        if self.shares.is_empty() {
            self.shares = split_all(ctx.env);
        }
        let required = self.required_rate(ctx);
        let key = ctx.queue.key;
        let target_ms = ctx.queue.slo_ms * self.shares[key.app.index()][key.stage];
        let qlen = ctx.queue.jobs.len() as u32;
        let entries = ctx.env.profiles.profile(ctx.queue.function).entries();

        // FaST-GShare also forms batches within a fixed window: holding a
        // sparse queue briefly lets a single GPU share sustain the rate.
        const BATCH_WINDOW_MS: f64 = 20.0;
        let preferred_batch = entries
            .iter()
            .filter(|e| e.config.batch as f64 / e.latency_ms >= required)
            .map(|e| e.config.batch)
            .min()
            .unwrap_or(1);
        if preferred_batch > qlen && ctx.longest_wait_ms() < BATCH_WINDOW_MS {
            return Outcome {
                candidates: Vec::new(),
                expansions: entries.len() as u64,
                planned_batch: None,
                ..Outcome::default()
            };
        }

        // Enumerate: among batchable configurations sustaining the arrival
        // rate, pick the minimal GPU share (then minimal vCPUs, then cost).
        // Prefer deadline-meeting ones when any exist at that GPU share.
        let mut expansions = 0u64;
        let mut best: Option<(&esg_profile::ProfileEntry, bool)> = None;
        for e in entries {
            expansions += 1;
            if e.config.batch > qlen {
                continue;
            }
            let tput = e.config.batch as f64 / e.latency_ms;
            if tput < required {
                continue;
            }
            let meets = e.latency_ms <= target_ms;
            let better = match best {
                None => true,
                Some((cur, cur_meets)) => {
                    let key_new = (
                        e.config.vgpus,
                        !meets as u8,
                        e.config.vcpus,
                        e.per_job_cost_cents,
                    );
                    let key_cur = (
                        cur.config.vgpus,
                        !cur_meets as u8,
                        cur.config.vcpus,
                        cur.per_job_cost_cents,
                    );
                    key_new < key_cur
                }
            };
            if better {
                best = Some((e, meets));
            }
        }

        let candidates = match best {
            Some((e, _)) => vec![e.config],
            None => {
                // Cannot sustain the rate: take the highest-throughput
                // batchable configuration.
                let e = entries
                    .iter()
                    .filter(|e| e.config.batch <= qlen)
                    .max_by(|a, b| {
                        (a.config.batch as f64 / a.latency_ms)
                            .total_cmp(&(b.config.batch as f64 / b.latency_ms))
                    });
                vec![e.map(|e| e.config).unwrap_or(Config::MIN)]
            }
        };
        let planned = candidates.first().map(|c| c.batch);
        Outcome {
            candidates,
            expansions,
            planned_batch: planned,
            ..Outcome::default()
        }
    }

    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
        // Minimise *GPU* fragmentation: tightest remaining vGPU fit.
        ctx.cluster
            .feasible(config.resources())
            .min_by(|a, b| {
                let left_a = a.free.vgpus - config.vgpus;
                let left_b = b.free.vgpus - config.vgpus;
                left_a.cmp(&left_b).then(a.id.0.cmp(&b.id.0))
            })
            .map(|n| n.id)
    }

    fn round_policy(&mut self) -> Option<&mut PolicyStack> {
        Some(&mut self.policy)
    }

    fn on_run_start(&mut self) {
        self.shares.clear();
        self.rates.clear();
        self.last_seen.clear();
    }

    fn stats(&self) -> SchedulerStats {
        SchedulerStats::default().with_policy(self.policy.policy_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{ctx_for, idle_cluster, jobs_with_slack};
    use esg_model::{Resources, SloClass};
    use esg_sim::SimEnv;

    #[test]
    fn prefers_minimal_gpu_share() {
        let env = SimEnv::standard(SloClass::Relaxed);
        let cluster = idle_cluster(4);
        let jobs = jobs_with_slack(&[2000.0]);
        let mut s = FastGShareScheduler::new();
        let c = ctx_for(&env, &cluster, &jobs, 0, 0, 1000.0);
        let out = s.schedule(&c);
        // Single queued job at a slow rate: one vGPU suffices.
        assert_eq!(out.candidates[0].vgpus, 1, "got {}", out.candidates[0]);
    }

    #[test]
    fn high_rate_forces_bigger_config() {
        let env = SimEnv::standard(SloClass::Relaxed);
        let cluster = idle_cluster(4);
        // A long backlog that arrived fast.
        let jobs = jobs_with_slack(&[1500.0; 8]);
        let mut s = FastGShareScheduler::new();
        // First call seeds the rate from queue/wait; slow stage 2 of
        // background elimination (U2Net 1047ms) needs batching to keep up.
        let c = ctx_for(&env, &cluster, &jobs, 2, 2, 20.0);
        let out = s.schedule(&c);
        assert!(
            out.candidates[0].batch > 1 || out.candidates[0].vgpus > 1,
            "rate pressure should force batching or more vGPUs, got {}",
            out.candidates[0]
        );
    }

    #[test]
    fn gpu_defrag_placement() {
        let env = SimEnv::standard(SloClass::Moderate);
        let mut cluster = idle_cluster(3);
        cluster.node_mut(NodeId(2)).free = Resources::new(16, 2);
        let jobs = jobs_with_slack(&[500.0]);
        let mut s = FastGShareScheduler::new();
        let c = ctx_for(&env, &cluster, &jobs, 0, 0, 50.0);
        // 2 vGPUs fit node 2 exactly -> zero GPU fragmentation there.
        assert_eq!(s.place(&c, Config::new(1, 2, 2)), Some(NodeId(2)));
    }

    #[test]
    fn skip_on_empty_queue() {
        let env = SimEnv::standard(SloClass::Moderate);
        let cluster = idle_cluster(2);
        let mut s = FastGShareScheduler::new();
        let c = ctx_for(&env, &cluster, &[], 1, 0, 5.0);
        assert!(s.schedule(&c).candidates.is_empty());
    }

    #[test]
    fn always_offers_a_candidate_for_nonempty_queue() {
        let env = SimEnv::standard(SloClass::Strict);
        let cluster = idle_cluster(2);
        let jobs = jobs_with_slack(&[10.0; 3]);
        let mut s = FastGShareScheduler::new();
        let c = ctx_for(&env, &cluster, &jobs, 3, 2, 1.0);
        let out = s.schedule(&c);
        assert_eq!(out.candidates.len(), 1);
        assert!(out.planned_batch.is_some());
    }
}
