//! Experiment metrics.
//!
//! One [`ExperimentResult`] per simulation run carries everything the §5
//! figures need: per-application SLO hits, latency series (Fig. 7/8),
//! costs, scheduling-overhead samples (Fig. 10), configuration-miss counts
//! (Table 4), start/transfer counters, and utilisation (Fig. 12).

use crate::dataplane::TransferSummary;
use crate::sched::SchedulerStats;
use esg_model::{AppId, BoxStats, Resources, Summary};

/// End-of-run summary of one cluster node (heterogeneity/churn audit
/// trail: the capacity property tests assert `peak_used ≤ total` here).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeSummary {
    /// Node-class name ("a100", "t4", "custom-16c/7g", …).
    pub class: String,
    /// Total capacity of the node.
    pub total: Resources,
    /// Peak simultaneous resource attachment observed.
    pub peak_used: Resources,
    /// Whether the node was still accepting placements at run end
    /// (false = drained).
    pub online: bool,
}

/// Per-application accumulators.
#[derive(Clone, Debug, Default)]
pub struct AppMetrics {
    /// Application name (for reports).
    pub name: String,
    /// Completed invocations.
    pub completed: u64,
    /// Invocations finishing within their SLO.
    pub slo_hits: u64,
    /// End-to-end latency of every completed invocation, ms, in completion
    /// order (Fig. 7 plots these series).
    pub latencies_ms: Vec<f64>,
    /// Deadline (SLO) in ms used for this app.
    pub slo_ms: f64,
    /// Accumulated resource cost, cents.
    pub cost_cents: f64,
}

impl AppMetrics {
    /// SLO hit rate in [0, 1]; 0 when nothing completed.
    pub fn hit_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.slo_hits as f64 / self.completed as f64
        }
    }

    /// Mean end-to-end latency, ms.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            0.0
        } else {
            self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64
        }
    }

    /// Latency percentile, ms.
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        esg_model::percentile(&self.latencies_ms, p)
    }
}

/// The result of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct ExperimentResult {
    /// Scheduler name.
    pub scheduler: String,
    /// Scenario label (e.g. "strict-light").
    pub scenario: String,
    /// Per-app metrics, indexed by `AppId`.
    pub apps: Vec<AppMetrics>,
    /// Simulated scheduling overhead per decision, ms (Fig. 10).
    pub overhead_ms: Vec<f64>,
    /// Real wall-clock overhead per decision, ms (honesty track).
    pub wall_overhead_ms: Vec<f64>,
    /// Dispatches whose planned batch exceeded the queue length (Table 4).
    pub config_misses: u64,
    /// Total dispatched tasks.
    pub dispatches: u64,
    /// Tasks that started on a warm container.
    pub warm_starts: u64,
    /// Tasks that paid a cold start.
    pub cold_starts: u64,
    /// Per-job input hand-offs served locally.
    pub local_transfers: u64,
    /// Per-job input hand-offs served remotely.
    pub remote_transfers: u64,
    /// Queue→recheck-list transitions.
    pub rechecks: u64,
    /// Forced minimum-configuration dispatches (recheck overflow).
    pub forced_min_dispatches: u64,
    /// Mean cluster vCPU utilisation in [0, 1].
    pub vcpu_utilisation: f64,
    /// Mean cluster vGPU utilisation in [0, 1].
    pub vgpu_utilisation: f64,
    /// Per-task wait of the oldest batched job, ms.
    pub batch_wait_ms: Summary,
    /// Distribution of dispatched batch sizes.
    pub batch_size: Summary,
    /// Invocations that arrived (for completeness accounting).
    pub arrivals: u64,
    /// Simulated makespan, ms.
    pub makespan_ms: f64,
    /// Per-job time from queue entry to dispatch, ms.
    pub phase_queue_wait_ms: Summary,
    /// Per-task init phase (cold start + transfer), ms.
    pub phase_init_ms: Summary,
    /// Per-task wait for node capacity after init, ms.
    pub phase_exec_queue_ms: Summary,
    /// Per-task execution, ms.
    pub phase_exec_ms: Summary,
    /// Per-node end-of-run summaries, in `NodeId` order (includes nodes
    /// drained or joined by churn).
    pub nodes: Vec<NodeSummary>,
    /// Scheduler-reported counters (searches run, plan-cache hit/miss/
    /// eviction/invalidation totals). Deterministic — cache hits replay
    /// memoised expansion counts, so these are a pure function of the run.
    pub scheduler_stats: SchedulerStats,
    /// Invocations killed by admission shedding (`QueueShed` events).
    pub shed_invocations: u64,
    /// Jobs dropped by admission shedding, including sibling-stage jobs
    /// purged from other queues when their invocation was killed.
    pub shed_jobs: u64,
    /// Data-plane transfer counters (all-default when the run used the
    /// classic scalar transfer model).
    pub transfers: TransferSummary,
}

impl ExperimentResult {
    /// The run's canonical encoding: the derived `Debug` dump with the
    /// wall-clock samples (`wall_overhead_ms`, host-dependent by nature)
    /// left out. Everything else is a pure function of the run, and f64
    /// `Debug` formatting round-trips exactly, so two runs are equivalent
    /// iff their encodings are equal; the golden digests hash this string.
    ///
    /// ```
    /// let mut r = esg_sim::ExperimentResult::default();
    /// r.wall_overhead_ms.push(0.7);
    /// assert_eq!(r.canonical(), esg_sim::ExperimentResult::default().canonical());
    /// ```
    pub fn canonical(&self) -> String {
        let mut r = self.clone();
        r.wall_overhead_ms.clear();
        format!("{r:?}")
    }

    /// Average of per-app SLO hit rates (Fig. 6's headline metric).
    pub fn avg_hit_rate(&self) -> f64 {
        let active: Vec<&AppMetrics> = self.apps.iter().filter(|a| a.completed > 0).collect();
        if active.is_empty() {
            return 0.0;
        }
        active.iter().map(|a| a.hit_rate()).sum::<f64>() / active.len() as f64
    }

    /// Overall job-level hit rate (hits / completions across apps).
    pub fn overall_hit_rate(&self) -> f64 {
        let (hits, total) = self
            .apps
            .iter()
            .fold((0u64, 0u64), |(h, t), a| (h + a.slo_hits, t + a.completed));
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Total cost across apps, cents.
    pub fn total_cost_cents(&self) -> f64 {
        self.apps.iter().map(|a| a.cost_cents).sum()
    }

    /// Total completed invocations.
    pub fn total_completed(&self) -> u64 {
        self.apps.iter().map(|a| a.completed).sum()
    }

    /// Cost per completed invocation, cents.
    pub fn cost_per_invocation_cents(&self) -> f64 {
        let n = self.total_completed();
        if n == 0 {
            0.0
        } else {
            self.total_cost_cents() / n as f64
        }
    }

    /// Configuration miss rate (Table 4): misses / dispatches.
    pub fn config_miss_rate(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.config_misses as f64 / self.dispatches as f64
        }
    }

    /// Box statistics of the simulated scheduling overhead (Fig. 10).
    pub fn overhead_box(&self) -> Option<BoxStats> {
        BoxStats::from(&self.overhead_ms)
    }

    /// Mean simulated scheduling overhead, ms.
    pub fn mean_overhead_ms(&self) -> f64 {
        if self.overhead_ms.is_empty() {
            0.0
        } else {
            self.overhead_ms.iter().sum::<f64>() / self.overhead_ms.len() as f64
        }
    }

    /// Fraction of arrived invocations killed by admission shedding.
    pub fn shed_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.shed_invocations as f64 / self.arrivals as f64
        }
    }

    /// Cold-start fraction of dispatches.
    pub fn cold_start_rate(&self) -> f64 {
        let starts = self.warm_starts + self.cold_starts;
        if starts == 0 {
            0.0
        } else {
            self.cold_starts as f64 / starts as f64
        }
    }

    /// Fraction of hand-offs served locally.
    pub fn locality_rate(&self) -> f64 {
        let t = self.local_transfers + self.remote_transfers;
        if t == 0 {
            0.0
        } else {
            self.local_transfers as f64 / t as f64
        }
    }

    /// Per-app metrics accessor.
    pub fn app(&self, id: AppId) -> &AppMetrics {
        &self.apps[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentResult {
        ExperimentResult {
            apps: vec![
                AppMetrics {
                    name: "a".into(),
                    completed: 10,
                    slo_hits: 8,
                    latencies_ms: vec![100.0; 10],
                    slo_ms: 120.0,
                    cost_cents: 5.0,
                },
                AppMetrics {
                    name: "b".into(),
                    completed: 10,
                    slo_hits: 4,
                    latencies_ms: vec![200.0; 10],
                    slo_ms: 150.0,
                    cost_cents: 15.0,
                },
            ],
            dispatches: 20,
            config_misses: 5,
            warm_starts: 15,
            cold_starts: 5,
            local_transfers: 30,
            remote_transfers: 10,
            ..ExperimentResult::default()
        }
    }

    #[test]
    fn rates() {
        let r = sample();
        assert!((r.avg_hit_rate() - 0.6).abs() < 1e-12);
        assert!((r.overall_hit_rate() - 0.6).abs() < 1e-12);
        assert!((r.total_cost_cents() - 20.0).abs() < 1e-12);
        assert!((r.config_miss_rate() - 0.25).abs() < 1e-12);
        assert!((r.cold_start_rate() - 0.25).abs() < 1e-12);
        assert!((r.locality_rate() - 0.75).abs() < 1e-12);
        assert!((r.cost_per_invocation_cents() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn avg_vs_overall_differ_when_unbalanced() {
        let mut r = sample();
        r.apps[0].completed = 100;
        r.apps[0].slo_hits = 100;
        // avg: (1.0 + 0.4)/2 = 0.7; overall: 104/110.
        assert!((r.avg_hit_rate() - 0.7).abs() < 1e-12);
        assert!((r.overall_hit_rate() - 104.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn empty_result_is_all_zeroes() {
        let r = ExperimentResult::default();
        assert_eq!(r.avg_hit_rate(), 0.0);
        assert_eq!(r.total_cost_cents(), 0.0);
        assert_eq!(r.config_miss_rate(), 0.0);
        assert_eq!(r.overhead_box(), None);
        assert_eq!(r.mean_overhead_ms(), 0.0);
    }

    #[test]
    fn app_metrics_stats() {
        let a = AppMetrics {
            name: "x".into(),
            completed: 4,
            slo_hits: 2,
            latencies_ms: vec![10.0, 20.0, 30.0, 40.0],
            slo_ms: 25.0,
            cost_cents: 1.0,
        };
        assert!((a.hit_rate() - 0.5).abs() < 1e-12);
        assert!((a.mean_latency_ms() - 25.0).abs() < 1e-12);
        assert_eq!(a.latency_percentile(100.0), Some(40.0));
    }

    #[test]
    fn overhead_box_built_from_samples() {
        let r = ExperimentResult {
            overhead_ms: vec![1.0, 2.0, 3.0, 4.0, 5.0],
            ..ExperimentResult::default()
        };
        let b = r.overhead_box().expect("non-empty");
        assert_eq!(b.median, 3.0);
        assert!((r.mean_overhead_ms() - 3.0).abs() < 1e-12);
    }
}
