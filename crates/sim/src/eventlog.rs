//! A small observability tap over the [`SchedulerEvent`] stream: a
//! bounded ring buffer of typed records plus per-queue backlog/latency
//! counters.
//!
//! The event stream is the control plane's narration of everything it
//! does; until this module, its only consumer was the golden-digest
//! harness in `tests/control_plane_equivalence.rs`, which rebuilt its
//! own ad-hoc string log. `EventLog` is the shared hook (the first slice
//! of the event-sourced-observability roadmap item): tests replay the
//! ring to fingerprint a run's dispatch trace, and policies or
//! dashboards read the per-queue counters (live backlog, dispatch
//! counts, queue-wait aggregates, shed totals) without bookkeeping of
//! their own.
//!
//! Feed it from any [`Scheduler::on_event`](crate::Scheduler::on_event)
//! (or a wrapper around one):
//!
//! ```
//! use esg_sim::{EventLog, SchedulerEvent};
//! use esg_model::{AppId, InvocationId};
//!
//! let mut log = EventLog::new();
//! log.observe(&SchedulerEvent::JobArrived {
//!     key: esg_sim::QueueKey { app: AppId(0), stage: 0 },
//!     invocation: InvocationId(7),
//!     now_ms: 12.0,
//! });
//! assert_eq!(log.queue(esg_sim::QueueKey { app: AppId(0), stage: 0 }).backlog, 1);
//! ```

use crate::policy::ShedReason;
use crate::sched::{QueueKey, SchedulerEvent};
use esg_model::{Config, InvocationId, NodeId};
use std::collections::{HashMap, VecDeque};

/// One captured event (the borrowed invocation lists of the live event
/// are flattened to counts so records are `'static`).
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Simulated time of the event, ms.
    pub now_ms: f64,
    /// What happened.
    pub kind: EventKind,
}

impl EventRecord {
    /// Captures a live [`SchedulerEvent`] as an owned record (borrowed
    /// invocation lists flatten to counts). This is the one conversion
    /// every tap — [`EventLog`], the trace recorder — shares, so a new
    /// event variant cannot be captured two different ways.
    ///
    /// ```
    /// use esg_sim::{EventKind, EventRecord, SchedulerEvent};
    ///
    /// let r = EventRecord::capture(&SchedulerEvent::RecheckTick { now_ms: 4.0 });
    /// assert_eq!(r, EventRecord { now_ms: 4.0, kind: EventKind::RecheckTick });
    /// ```
    pub fn capture(event: &SchedulerEvent<'_>) -> EventRecord {
        let (now_ms, kind) = match *event {
            SchedulerEvent::JobArrived {
                key,
                invocation,
                now_ms,
            } => (now_ms, EventKind::JobArrived { key, invocation }),
            SchedulerEvent::Dispatched {
                key,
                invocations,
                config,
                node,
                now_ms,
            } => (
                now_ms,
                EventKind::Dispatched {
                    key,
                    config,
                    node,
                    jobs: invocations.len(),
                },
            ),
            SchedulerEvent::TaskCompleted {
                key,
                node,
                config,
                now_ms,
            } => (now_ms, EventKind::TaskCompleted { key, node, config }),
            SchedulerEvent::Churn {
                node,
                joined,
                now_ms,
            } => (now_ms, EventKind::Churn { node, joined }),
            SchedulerEvent::QueueShed {
                key,
                invocations,
                reason,
                now_ms,
            } => (
                now_ms,
                EventKind::QueueShed {
                    key,
                    jobs: invocations.len(),
                    reason,
                },
            ),
            SchedulerEvent::RecheckTick { now_ms } => (now_ms, EventKind::RecheckTick),
            SchedulerEvent::TransferStarted { node, mb, now_ms } => {
                (now_ms, EventKind::TransferStarted { node, mb })
            }
            SchedulerEvent::TransferQueued { node, mb, now_ms } => {
                (now_ms, EventKind::TransferQueued { node, mb })
            }
            SchedulerEvent::TransferCompleted { node, mb, now_ms } => {
                (now_ms, EventKind::TransferCompleted { node, mb })
            }
        };
        EventRecord { now_ms, kind }
    }
}

/// The owned mirror of [`SchedulerEvent`].
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A job entered `key`.
    JobArrived {
        /// The queue the job joined.
        key: QueueKey,
        /// The owning invocation.
        invocation: InvocationId,
    },
    /// A batch left `key` for `node`.
    Dispatched {
        /// The drained queue.
        key: QueueKey,
        /// The dispatched configuration.
        config: Config,
        /// The hosting node.
        node: NodeId,
        /// Invocations covered by the batch.
        jobs: usize,
    },
    /// A task of `key` finished on `node`.
    TaskCompleted {
        /// The queue whose task completed.
        key: QueueKey,
        /// The hosting node.
        node: NodeId,
        /// The completed task's configuration.
        config: Config,
    },
    /// Cluster membership changed.
    Churn {
        /// The affected node.
        node: NodeId,
        /// Join (true) vs drain (false).
        joined: bool,
    },
    /// An admission policy shed `key`.
    QueueShed {
        /// The shed queue.
        key: QueueKey,
        /// Invocations killed.
        jobs: usize,
        /// Why.
        reason: ShedReason,
    },
    /// The platform retried the parked queues.
    RecheckTick,
    /// A data-plane transfer started moving onto `node` (data plane
    /// enabled only).
    TransferStarted {
        /// The destination node.
        node: NodeId,
        /// Aggregate payload, MB.
        mb: f64,
    },
    /// A transfer was held back by `node`'s full staging buffer.
    TransferQueued {
        /// The destination node.
        node: NodeId,
        /// Aggregate payload, MB.
        mb: f64,
    },
    /// A transfer onto `node` finished and released its staging reserve.
    TransferCompleted {
        /// The destination node.
        node: NodeId,
        /// Aggregate payload, MB.
        mb: f64,
    },
}

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

/// The ring-buffer tap: bounded record history + per-queue counters.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    capacity: usize,
    ring: VecDeque<EventRecord>,
    dropped: u64,
    counters: HashMap<QueueKey, QueueCounters>,
    /// Queue-entry instant of each live job, keyed `(queue, invocation)`
    /// — bounded by the number of queued jobs, drained at dispatch/shed.
    pending: HashMap<(QueueKey, InvocationId), f64>,
    /// Totals accumulated from the transfer event family (data plane
    /// enabled only; all zero otherwise).
    transfers: TransferCounters,
}

/// Default ring capacity (records beyond it evict the oldest).
pub const DEFAULT_EVENT_LOG_CAPACITY: usize = 4096;

impl EventLog {
    /// A log holding the last [`DEFAULT_EVENT_LOG_CAPACITY`] records.
    pub fn new() -> EventLog {
        EventLog::with_capacity(DEFAULT_EVENT_LOG_CAPACITY)
    }

    /// A log holding the last `capacity` records (counters are exact
    /// regardless of capacity; only the replayable history is bounded).
    pub fn with_capacity(capacity: usize) -> EventLog {
        EventLog {
            capacity: capacity.max(1),
            ring: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            dropped: 0,
            counters: HashMap::new(),
            pending: HashMap::new(),
            transfers: TransferCounters::default(),
        }
    }

    /// Ingests one control-plane event.
    pub fn observe(&mut self, event: &SchedulerEvent<'_>) {
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
            SchedulerEvent::Churn { .. } | SchedulerEvent::RecheckTick { .. } => {}
            SchedulerEvent::TransferStarted { mb, .. } => {
                self.transfers.started += 1;
                self.transfers.inflight += 1;
                self.transfers.total_mb += mb;
                self.transfers.peak_inflight =
                    self.transfers.peak_inflight.max(self.transfers.inflight);
            }
            SchedulerEvent::TransferQueued { .. } => {
                self.transfers.queued += 1;
            }
            SchedulerEvent::TransferCompleted { .. } => {
                self.transfers.completed += 1;
                self.transfers.inflight = self.transfers.inflight.saturating_sub(1);
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
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(EventRecord::capture(event));
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &EventRecord> {
        self.ring.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// One queue's counters (zeroes when the queue never appeared).
    pub fn queue(&self, key: QueueKey) -> QueueCounters {
        self.counters.get(&key).copied().unwrap_or_default()
    }

    /// All per-queue counters, in unspecified order.
    pub fn queues(&self) -> impl Iterator<Item = (&QueueKey, &QueueCounters)> {
        self.counters.iter()
    }

    /// Total live backlog across queues.
    pub fn total_backlog(&self) -> u64 {
        self.counters.values().map(|c| c.backlog).sum()
    }

    /// Data-plane transfer totals seen so far (all zero on scalar runs,
    /// which emit no transfer events).
    pub fn transfer_stats(&self) -> TransferCounters {
        self.transfers
    }

    /// Forgets history and counters (capacity is kept).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.dropped = 0;
        self.counters.clear();
        self.pending.clear();
        self.transfers = TransferCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_model::AppId;

    fn key(app: u32, stage: usize) -> QueueKey {
        QueueKey {
            app: AppId(app),
            stage,
        }
    }

    #[test]
    fn counters_track_backlog_and_wait() {
        let mut log = EventLog::new();
        let k = key(0, 1);
        for (i, t) in [(0u64, 10.0), (1, 14.0)] {
            log.observe(&SchedulerEvent::JobArrived {
                key: k,
                invocation: InvocationId(i),
                now_ms: t,
            });
        }
        assert_eq!(log.queue(k).backlog, 2);
        assert_eq!(log.total_backlog(), 2);
        let invs = [InvocationId(0), InvocationId(1)];
        log.observe(&SchedulerEvent::Dispatched {
            key: k,
            invocations: &invs,
            config: Config::new(2, 1, 1),
            node: NodeId(3),
            now_ms: 20.0,
        });
        let c = log.queue(k);
        assert_eq!(c.backlog, 0);
        assert_eq!(c.dispatches, 1);
        assert_eq!(c.dispatched_jobs, 2);
        // Waits: 10 ms and 6 ms → mean 8, max 10.
        assert!((c.mean_wait_ms() - 8.0).abs() < 1e-12);
        assert_eq!(c.wait_max_ms, 10.0);
        log.observe(&SchedulerEvent::TaskCompleted {
            key: k,
            node: NodeId(3),
            config: Config::new(2, 1, 1),
            now_ms: 30.0,
        });
        assert_eq!(log.queue(k).completions, 1);
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn shed_drains_backlog_and_counts() {
        let mut log = EventLog::new();
        let k = key(1, 0);
        for i in 0..3u64 {
            log.observe(&SchedulerEvent::JobArrived {
                key: k,
                invocation: InvocationId(i),
                now_ms: 1.0,
            });
        }
        let invs = [InvocationId(0), InvocationId(1), InvocationId(2)];
        log.observe(&SchedulerEvent::QueueShed {
            key: k,
            invocations: &invs,
            reason: ShedReason::GsloUnattainable,
            now_ms: 2.0,
        });
        let c = log.queue(k);
        assert_eq!(c.shed_jobs, 3);
        assert_eq!(c.backlog, 0);
        assert_eq!(c.dispatched_jobs, 0);
        assert!(matches!(
            log.records().last().expect("recorded").kind,
            EventKind::QueueShed { jobs: 3, .. }
        ));
    }

    #[test]
    fn ring_is_bounded_counters_are_exact() {
        let mut log = EventLog::with_capacity(2);
        let k = key(0, 0);
        for i in 0..5u64 {
            log.observe(&SchedulerEvent::JobArrived {
                key: k,
                invocation: InvocationId(i),
                now_ms: i as f64,
            });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.queue(k).arrivals, 5, "counters outlive evictions");
        let first = log.records().next().expect("retained");
        assert_eq!(first.now_ms, 3.0, "oldest retained record is #3");
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.queue(k), QueueCounters::default());
    }

    #[test]
    fn transfer_events_roll_up_without_queue_counters() {
        let mut log = EventLog::new();
        for node in [2u32, 5] {
            log.observe(&SchedulerEvent::TransferStarted {
                node: NodeId(node),
                mb: 64.0,
                now_ms: 1.0,
            });
        }
        log.observe(&SchedulerEvent::TransferQueued {
            node: NodeId(2),
            mb: 256.0,
            now_ms: 2.0,
        });
        log.observe(&SchedulerEvent::TransferCompleted {
            node: NodeId(2),
            mb: 64.0,
            now_ms: 3.0,
        });
        let t = log.transfer_stats();
        assert_eq!(t.started, 2);
        assert_eq!(t.queued, 1);
        assert_eq!(t.completed, 1);
        assert_eq!(t.inflight, 1);
        assert_eq!(t.peak_inflight, 2);
        assert!((t.total_mb - 128.0).abs() < 1e-12);
        assert_eq!(log.queues().count(), 0, "no queue counters touched");
        assert_eq!(log.len(), 4);
        log.clear();
        assert_eq!(log.transfer_stats(), TransferCounters::default());
    }

    #[test]
    fn churn_and_recheck_record_without_queue_counters() {
        let mut log = EventLog::new();
        log.observe(&SchedulerEvent::Churn {
            node: NodeId(4),
            joined: false,
            now_ms: 9.0,
        });
        log.observe(&SchedulerEvent::RecheckTick { now_ms: 10.0 });
        assert_eq!(log.len(), 2);
        assert_eq!(log.queues().count(), 0);
        assert_eq!(
            log.records().next().expect("churn").kind,
            EventKind::Churn {
                node: NodeId(4),
                joined: false
            }
        );
    }
}
