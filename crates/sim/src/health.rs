//! Live queue-health dashboard: periodic per-queue
//! latency/backlog/shed snapshots rolled up from the [`EventLog`] tap
//! while a run executes.
//!
//! [`QueueHealthMonitor`] consumes the same [`SchedulerEvent`] stream as
//! every other observability sink and cuts a [`HealthSnapshot`] each
//! time simulated time crosses its sampling interval. Wrap any
//! scheduler in [`Monitored`] to collect snapshots without touching the
//! scheduler itself; `esg-bench` renders them as a text dashboard or
//! CSV (see `examples/queue_dashboard.rs`).
//!
//! ```
//! use esg_model::{AppId, InvocationId};
//! use esg_sim::{QueueHealthMonitor, QueueKey, SchedulerEvent};
//!
//! let mut mon = QueueHealthMonitor::new(1_000.0);
//! let key = QueueKey { app: AppId(0), stage: 0 };
//! mon.observe(&SchedulerEvent::JobArrived {
//!     key,
//!     invocation: InvocationId(0),
//!     now_ms: 10.0,
//! });
//! // Crossing the 1-second boundary cuts a snapshot of everything
//! // observed before it.
//! mon.observe(&SchedulerEvent::RecheckTick { now_ms: 1_500.0 });
//! let snaps = mon.snapshots();
//! assert_eq!(snaps.len(), 1);
//! assert_eq!(snaps[0].at_ms, 1_000.0);
//! assert_eq!(snaps[0].total_backlog, 1);
//! ```

use crate::eventlog::{EventLog, QueueCounters, TransferCounters};
use crate::sched::{
    Capabilities, Outcome, QueueKey, RoundCtx, SchedCtx, Scheduler, SchedulerEvent, SchedulerStats,
};
use esg_model::{Config, NodeId};

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
/// Feed it every event (via [`observe`](Self::observe), or by wrapping
/// the scheduler in [`Monitored`]); whenever an event's simulated time
/// reaches the next sampling boundary, the monitor cuts one snapshot
/// per elapsed interval (idle gaps repeat the last state, so snapshot
/// spacing is always exactly `interval_ms`).
#[derive(Clone, Debug)]
pub struct QueueHealthMonitor {
    interval_ms: f64,
    next_at_ms: f64,
    log: EventLog,
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
            // Counters are exact at any ring capacity and the monitor
            // only reads counters, so keep the replay ring minimal.
            log: EventLog::with_capacity(1),
            snapshots: Vec::new(),
        }
    }

    /// The sampling interval, ms.
    pub fn interval_ms(&self) -> f64 {
        self.interval_ms
    }

    /// Ingests one control-plane event, cutting snapshots for every
    /// sampling boundary the event's timestamp has crossed.
    pub fn observe(&mut self, event: &SchedulerEvent<'_>) {
        let now = event.now_ms();
        while now >= self.next_at_ms {
            let snap = self.snapshot_at(self.next_at_ms);
            self.snapshots.push(snap);
            self.next_at_ms += self.interval_ms;
        }
        self.log.observe(event);
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
            .log
            .queues()
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
            transfers: self.log.transfer_stats(),
        }
    }
}

/// Wraps a scheduler and feeds every control-plane event through a
/// [`QueueHealthMonitor`] — the zero-intrusion way to collect dashboard
/// snapshots from any run (same shape as
/// [`Traced`](crate::trace::Traced), different sink).
pub struct Monitored {
    /// The wrapped scheduler.
    pub inner: Box<dyn Scheduler>,
    /// The dashboard sink.
    pub monitor: QueueHealthMonitor,
}

impl Monitored {
    /// Wraps `inner`, sampling every `interval_ms`.
    pub fn new(inner: Box<dyn Scheduler>, interval_ms: f64) -> Monitored {
        Monitored {
            inner,
            monitor: QueueHealthMonitor::new(interval_ms),
        }
    }
}

impl Scheduler for Monitored {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn schedule(&mut self, ctx: &SchedCtx<'_>) -> Outcome {
        self.inner.schedule(ctx)
    }

    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
        self.inner.place(ctx, config)
    }

    fn schedule_round(&mut self, ctx: &RoundCtx<'_>) -> Vec<(QueueKey, Outcome)> {
        // Forwarded so a wrapped scheduler's round-policy stack (if any)
        // is exercised rather than silently replaced by the default
        // one-queue replay.
        self.inner.schedule_round(ctx)
    }

    fn on_event(&mut self, event: &SchedulerEvent<'_>) {
        self.monitor.observe(event);
        self.inner.on_event(event);
    }

    fn stats(&self) -> SchedulerStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_model::{AppId, InvocationId};

    fn key(app: u32, stage: usize) -> QueueKey {
        QueueKey {
            app: AppId(app),
            stage,
        }
    }

    #[test]
    fn boundaries_cut_one_snapshot_per_interval() {
        let mut mon = QueueHealthMonitor::new(100.0);
        mon.observe(&SchedulerEvent::JobArrived {
            key: key(0, 0),
            invocation: InvocationId(0),
            now_ms: 10.0,
        });
        // 350 ms crosses the 100/200/300 boundaries: three snapshots,
        // all reflecting the single arrival.
        mon.observe(&SchedulerEvent::RecheckTick { now_ms: 350.0 });
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
            mon.observe(&SchedulerEvent::JobArrived {
                key: k,
                invocation: InvocationId(i),
                now_ms: 5.0,
            });
        }
        let invs = [InvocationId(0), InvocationId(1)];
        mon.observe(&SchedulerEvent::Dispatched {
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
        mon.observe(&SchedulerEvent::TransferStarted {
            node: NodeId(1),
            mb: 32.0,
            now_ms: 10.0,
        });
        mon.observe(&SchedulerEvent::TransferQueued {
            node: NodeId(1),
            mb: 512.0,
            now_ms: 20.0,
        });
        mon.observe(&SchedulerEvent::TransferCompleted {
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
