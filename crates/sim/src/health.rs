//! Live queue-health dashboard: periodic per-queue
//! latency/backlog/shed snapshots rolled up from the event stream while
//! a run executes.
//!
//! [`QueueHealthMonitor`] consumes the same [`SchedulerEvent`] stream as
//! every other observability sink, keeps exact per-queue
//! ([`QueueCounters`]) and data-plane ([`TransferCounters`]) counters,
//! and cuts a [`HealthSnapshot`] each time simulated time crosses its
//! sampling interval. It is an [`Observer`]: pass it to any run to
//! collect snapshots without touching the scheduler; `esg-bench` renders
//! them as a text dashboard or CSV (see `examples/queue_dashboard.rs`).
//!
//! ```
//! use esg_model::{AppId, InvocationId};
//! use esg_sim::{Observer, QueueHealthMonitor, QueueKey, SchedulerEvent};
//!
//! let mut mon = QueueHealthMonitor::new(1_000.0);
//! let key = QueueKey { app: AppId(0), stage: 0 };
//! mon.on_event(&SchedulerEvent::JobArrived {
//!     key,
//!     invocation: InvocationId(0),
//!     now_ms: 10.0,
//! });
//! // Crossing the 1-second boundary cuts a snapshot of everything
//! // observed before it.
//! mon.on_event(&SchedulerEvent::RecheckTick { now_ms: 1_500.0 });
//! let snaps = mon.snapshots();
//! assert_eq!(snaps.len(), 1);
//! assert_eq!(snaps[0].at_ms, 1_000.0);
//! assert_eq!(snaps[0].total_backlog, 1);
//! ```

use crate::eventlog::Observer;
use crate::sched::{QueueKey, SchedulerEvent};
use esg_model::InvocationId;
use std::collections::HashMap;

/// Per-queue counters accumulated from the event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueueCounters {
    /// Jobs that entered the queue.
    pub arrivals: u64,
    /// Batches dispatched.
    pub dispatches: u64,
    /// Jobs covered by dispatched batches.
    pub dispatched_jobs: u64,
    /// Tasks completed.
    pub completions: u64,
    /// Jobs dropped by admission shedding.
    pub shed_jobs: u64,
    /// Jobs currently queued, as seen through the event stream.
    pub backlog: u64,
    /// Sum of per-job queue waits (arrival → dispatch), ms.
    pub wait_sum_ms: f64,
    /// Largest observed per-job queue wait, ms.
    pub wait_max_ms: f64,
}

impl QueueCounters {
    /// Mean queue wait of dispatched jobs, ms (0 when none dispatched).
    pub fn mean_wait_ms(&self) -> f64 {
        if self.dispatched_jobs == 0 {
            0.0
        } else {
            self.wait_sum_ms / self.dispatched_jobs as f64
        }
    }
}

/// Data-plane transfer totals accumulated from the event stream (all
/// zero when the run used the classic scalar transfer model, which
/// emits no transfer events).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TransferCounters {
    /// Transfers that started moving.
    pub started: u64,
    /// Transfers held back by a full staging buffer (each later starts,
    /// so `queued` counts delays, not drops).
    pub queued: u64,
    /// Transfers that finished.
    pub completed: u64,
    /// Transfers currently in flight (started − completed).
    pub inflight: u64,
    /// High-water mark of in-flight transfers.
    pub peak_inflight: u64,
    /// Cumulative payload started, MB.
    pub total_mb: f64,
}

/// One queue's health at a snapshot instant. Counters are cumulative
/// since the start of the run (the dashboard diffs consecutive
/// snapshots when it wants rates); `backlog` is the live queue depth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueueHealth {
    /// The queue.
    pub key: QueueKey,
    /// Jobs currently queued.
    pub backlog: u64,
    /// Cumulative counters behind the rollup (arrivals, dispatches,
    /// completions, sheds, queue-wait aggregates).
    pub counters: QueueCounters,
}

impl QueueHealth {
    /// Mean queue wait of dispatched jobs so far, ms.
    pub fn mean_wait_ms(&self) -> f64 {
        self.counters.mean_wait_ms()
    }

    /// Largest observed per-job queue wait so far, ms.
    pub fn max_wait_ms(&self) -> f64 {
        self.counters.wait_max_ms
    }
}

/// A point-in-time rollup across every queue the event stream has
/// touched, cut by [`QueueHealthMonitor`] at each sampling boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthSnapshot {
    /// The sampling boundary the snapshot represents, ms of simulated
    /// time. Events at exactly this instant belong to the *next*
    /// snapshot.
    pub at_ms: f64,
    /// Per-queue health, ordered by `(app, stage)` for stable rendering.
    pub queues: Vec<QueueHealth>,
    /// Live backlog summed across queues.
    pub total_backlog: u64,
    /// Cumulative data-plane transfer counters (all zero on scalar runs,
    /// which emit no transfer events; `inflight` is the live count at
    /// the boundary).
    pub transfers: TransferCounters,
}

impl HealthSnapshot {
    /// The health row for `key`, if the queue has appeared.
    pub fn queue(&self, key: QueueKey) -> Option<&QueueHealth> {
        self.queues.iter().find(|q| q.key == key)
    }
}

/// Rolls the control-plane event stream into periodic
/// [`HealthSnapshot`]s.
///
/// Pass it to a run as its [`Observer`] (or feed it events through
/// [`on_event`](Observer::on_event)); whenever an event's simulated time
/// reaches the next sampling boundary, the monitor cuts one snapshot
/// per elapsed interval (idle gaps repeat the last state, so snapshot
/// spacing is always exactly `interval_ms`).
#[derive(Clone, Debug)]
pub struct QueueHealthMonitor {
    interval_ms: f64,
    next_at_ms: f64,
    counters: HashMap<QueueKey, QueueCounters>,
    /// Queue-entry instant of each live job, keyed `(queue, invocation)`
    /// — bounded by the number of queued jobs, drained at dispatch/shed.
    pending: HashMap<(QueueKey, InvocationId), f64>,
    transfers: TransferCounters,
    snapshots: Vec<HealthSnapshot>,
}

impl QueueHealthMonitor {
    /// A monitor sampling every `interval_ms` of simulated time.
    ///
    /// # Panics
    /// When `interval_ms` is not finite and positive.
    pub fn new(interval_ms: f64) -> QueueHealthMonitor {
        assert!(
            interval_ms.is_finite() && interval_ms > 0.0,
            "sampling interval must be finite and > 0, got {interval_ms}"
        );
        QueueHealthMonitor {
            interval_ms,
            next_at_ms: interval_ms,
            counters: HashMap::new(),
            pending: HashMap::new(),
            transfers: TransferCounters::default(),
            snapshots: Vec::new(),
        }
    }

    /// Folds one event into the per-queue and transfer counters.
    fn count(&mut self, event: &SchedulerEvent<'_>) {
        match *event {
            SchedulerEvent::JobArrived {
                key,
                invocation,
                now_ms,
            } => {
                let c = self.counters.entry(key).or_default();
                c.arrivals += 1;
                c.backlog += 1;
                self.pending.insert((key, invocation), now_ms);
            }
            SchedulerEvent::Dispatched {
                key,
                invocations,
                now_ms,
                ..
            } => {
                let mut wait_sum = 0.0f64;
                let mut wait_max = 0.0f64;
                for &inv in invocations {
                    if let Some(entered) = self.pending.remove(&(key, inv)) {
                        let w = (now_ms - entered).max(0.0);
                        wait_sum += w;
                        wait_max = wait_max.max(w);
                    }
                }
                let c = self.counters.entry(key).or_default();
                c.dispatches += 1;
                c.dispatched_jobs += invocations.len() as u64;
                c.backlog = c.backlog.saturating_sub(invocations.len() as u64);
                c.wait_sum_ms += wait_sum;
                c.wait_max_ms = c.wait_max_ms.max(wait_max);
            }
            SchedulerEvent::TaskCompleted { key, .. } => {
                self.counters.entry(key).or_default().completions += 1;
            }
            SchedulerEvent::QueueShed {
                key, invocations, ..
            } => {
                for &inv in invocations {
                    self.pending.remove(&(key, inv));
                }
                let c = self.counters.entry(key).or_default();
                c.shed_jobs += invocations.len() as u64;
                c.backlog = c.backlog.saturating_sub(invocations.len() as u64);
            }
            SchedulerEvent::TransferStarted { mb, .. } => {
                let t = &mut self.transfers;
                t.started += 1;
                t.inflight += 1;
                t.total_mb += mb;
                t.peak_inflight = t.peak_inflight.max(t.inflight);
            }
            SchedulerEvent::TransferQueued { .. } => self.transfers.queued += 1,
            SchedulerEvent::TransferCompleted { .. } => {
                self.transfers.completed += 1;
                self.transfers.inflight = self.transfers.inflight.saturating_sub(1);
            }
            SchedulerEvent::Churn { .. } | SchedulerEvent::RecheckTick { .. } => {}
        }
    }

    /// The snapshots cut so far, oldest first.
    pub fn snapshots(&self) -> &[HealthSnapshot] {
        &self.snapshots
    }

    /// Cuts one final snapshot at `now_ms` (e.g. the run's makespan) and
    /// returns the full series — any sampling boundaries not yet crossed
    /// by an observed event, then the closing state.
    pub fn finish(mut self, now_ms: f64) -> Vec<HealthSnapshot> {
        while now_ms >= self.next_at_ms {
            let snap = self.snapshot_at(self.next_at_ms);
            self.snapshots.push(snap);
            self.next_at_ms += self.interval_ms;
        }
        let last = self.snapshot_at(now_ms);
        self.snapshots.push(last);
        self.snapshots
    }

    /// Builds the rollup of everything observed so far, stamped `at_ms`.
    fn snapshot_at(&self, at_ms: f64) -> HealthSnapshot {
        let mut queues: Vec<QueueHealth> = self
            .counters
            .iter()
            .map(|(&key, &counters)| QueueHealth {
                key,
                backlog: counters.backlog,
                counters,
            })
            .collect();
        queues.sort_by_key(|q| (q.key.app.0, q.key.stage));
        HealthSnapshot {
            at_ms,
            total_backlog: queues.iter().map(|q| q.backlog).sum(),
            queues,
            transfers: self.transfers,
        }
    }
}

impl Observer for QueueHealthMonitor {
    /// Ingests one control-plane event, cutting snapshots for every
    /// sampling boundary the event's timestamp has crossed.
    fn on_event(&mut self, event: &SchedulerEvent<'_>) {
        let now = event.now_ms();
        while now >= self.next_at_ms {
            let snap = self.snapshot_at(self.next_at_ms);
            self.snapshots.push(snap);
            self.next_at_ms += self.interval_ms;
        }
        self.count(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ShedReason;
    use esg_model::{AppId, Config, NodeId};

    fn key(app: u32, stage: usize) -> QueueKey {
        QueueKey {
            app: AppId(app),
            stage,
        }
    }

    /// A monitor whose sampling interval no test reaches, so every
    /// check reads the live counters through `snapshot_at`.
    fn monitor() -> QueueHealthMonitor {
        QueueHealthMonitor::new(1e12)
    }

    fn counters(mon: &QueueHealthMonitor, k: QueueKey) -> QueueCounters {
        mon.snapshot_at(0.0).queue(k).expect("tracked").counters
    }

    #[test]
    fn counters_track_backlog_and_wait() {
        let mut mon = monitor();
        let k = key(0, 1);
        for (i, t) in [(0u64, 10.0), (1, 14.0)] {
            mon.on_event(&SchedulerEvent::JobArrived {
                key: k,
                invocation: InvocationId(i),
                now_ms: t,
            });
        }
        assert_eq!(counters(&mon, k).backlog, 2);
        assert_eq!(mon.snapshot_at(0.0).total_backlog, 2);
        let invs = [InvocationId(0), InvocationId(1)];
        mon.on_event(&SchedulerEvent::Dispatched {
            key: k,
            invocations: &invs,
            config: Config::new(2, 1, 1),
            node: NodeId(3),
            now_ms: 20.0,
        });
        let c = counters(&mon, k);
        assert_eq!(c.backlog, 0);
        assert_eq!(c.dispatches, 1);
        assert_eq!(c.dispatched_jobs, 2);
        // Waits: 10 ms and 6 ms → mean 8, max 10.
        assert!((c.mean_wait_ms() - 8.0).abs() < 1e-12);
        assert_eq!(c.wait_max_ms, 10.0);
        mon.on_event(&SchedulerEvent::TaskCompleted {
            key: k,
            node: NodeId(3),
            config: Config::new(2, 1, 1),
            now_ms: 30.0,
        });
        assert_eq!(counters(&mon, k).completions, 1);
    }

    #[test]
    fn shed_drains_backlog_and_counts() {
        let mut mon = monitor();
        let k = key(1, 0);
        for i in 0..3u64 {
            mon.on_event(&SchedulerEvent::JobArrived {
                key: k,
                invocation: InvocationId(i),
                now_ms: 1.0,
            });
        }
        let invs = [InvocationId(0), InvocationId(1), InvocationId(2)];
        mon.on_event(&SchedulerEvent::QueueShed {
            key: k,
            invocations: &invs,
            reason: ShedReason::GsloUnattainable,
            now_ms: 2.0,
        });
        let c = counters(&mon, k);
        assert_eq!(c.shed_jobs, 3);
        assert_eq!(c.backlog, 0);
        assert_eq!(c.dispatched_jobs, 0);
        assert!(mon.pending.is_empty(), "shed jobs leave no entry instant");
    }

    #[test]
    fn transfer_events_roll_up_without_queue_counters() {
        let mut mon = monitor();
        for node in [2u32, 5] {
            mon.on_event(&SchedulerEvent::TransferStarted {
                node: NodeId(node),
                mb: 64.0,
                now_ms: 1.0,
            });
        }
        mon.on_event(&SchedulerEvent::TransferQueued {
            node: NodeId(2),
            mb: 256.0,
            now_ms: 2.0,
        });
        mon.on_event(&SchedulerEvent::TransferCompleted {
            node: NodeId(2),
            mb: 64.0,
            now_ms: 3.0,
        });
        let snap = mon.snapshot_at(3.0);
        let t = snap.transfers;
        assert_eq!(t.started, 2);
        assert_eq!(t.queued, 1);
        assert_eq!(t.completed, 1);
        assert_eq!(t.inflight, 1);
        assert_eq!(t.peak_inflight, 2);
        assert!((t.total_mb - 128.0).abs() < 1e-12);
        assert!(snap.queues.is_empty(), "no queue counters touched");
    }

    #[test]
    fn churn_and_recheck_record_without_queue_counters() {
        let mut mon = monitor();
        mon.on_event(&SchedulerEvent::Churn {
            node: NodeId(4),
            joined: false,
            now_ms: 9.0,
        });
        mon.on_event(&SchedulerEvent::RecheckTick { now_ms: 10.0 });
        let snap = mon.snapshot_at(10.0);
        assert!(snap.queues.is_empty());
        assert_eq!(snap.transfers, TransferCounters::default());
    }

    #[test]
    fn boundaries_cut_one_snapshot_per_interval() {
        let mut mon = QueueHealthMonitor::new(100.0);
        mon.on_event(&SchedulerEvent::JobArrived {
            key: key(0, 0),
            invocation: InvocationId(0),
            now_ms: 10.0,
        });
        // 350 ms crosses the 100/200/300 boundaries: three snapshots,
        // all reflecting the single arrival.
        mon.on_event(&SchedulerEvent::RecheckTick { now_ms: 350.0 });
        let snaps = mon.snapshots();
        assert_eq!(
            snaps.iter().map(|s| s.at_ms).collect::<Vec<_>>(),
            vec![100.0, 200.0, 300.0]
        );
        assert!(snaps.iter().all(|s| s.total_backlog == 1));
        let q = snaps[0].queue(key(0, 0)).expect("tracked");
        assert_eq!(q.counters.arrivals, 1);
    }

    #[test]
    fn snapshots_track_drains() {
        let mut mon = QueueHealthMonitor::new(50.0);
        let k = key(1, 0);
        for i in 0..3u64 {
            mon.on_event(&SchedulerEvent::JobArrived {
                key: k,
                invocation: InvocationId(i),
                now_ms: 5.0,
            });
        }
        let invs = [InvocationId(0), InvocationId(1)];
        mon.on_event(&SchedulerEvent::Dispatched {
            key: k,
            invocations: &invs,
            config: Config::MIN,
            node: NodeId(0),
            now_ms: 20.0,
        });
        let snaps = mon.finish(60.0);
        assert_eq!(snaps.len(), 2, "one boundary + the closing snapshot");
        let last = snaps.last().expect("closing snapshot");
        assert_eq!(last.at_ms, 60.0);
        assert_eq!(last.total_backlog, 1);
        let q = last.queue(k).expect("tracked");
        assert_eq!(q.counters.dispatched_jobs, 2);
        assert!((q.mean_wait_ms() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn snapshots_carry_transfer_counters() {
        let mut mon = QueueHealthMonitor::new(100.0);
        mon.on_event(&SchedulerEvent::TransferStarted {
            node: NodeId(1),
            mb: 32.0,
            now_ms: 10.0,
        });
        mon.on_event(&SchedulerEvent::TransferQueued {
            node: NodeId(1),
            mb: 512.0,
            now_ms: 20.0,
        });
        mon.on_event(&SchedulerEvent::TransferCompleted {
            node: NodeId(1),
            mb: 32.0,
            now_ms: 90.0,
        });
        let snaps = mon.finish(150.0);
        let last = snaps.last().expect("closing snapshot");
        assert_eq!(last.transfers.started, 1);
        assert_eq!(last.transfers.queued, 1);
        assert_eq!(last.transfers.completed, 1);
        assert_eq!(last.transfers.inflight, 0);
        assert!((last.transfers.total_mb - 32.0).abs() < 1e-12);
        assert_eq!(snaps[0].transfers, last.transfers, "cumulative counters");
    }

    #[test]
    #[should_panic(expected = "sampling interval")]
    fn zero_interval_is_rejected() {
        QueueHealthMonitor::new(0.0);
    }
}
