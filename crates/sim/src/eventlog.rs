//! The observer hook on a run's event stream, and the owned form of the
//! stream: one [`EventRecord`] per event, by [`EventRecord::capture`].
//!
//! The event stream is the control plane's narration of everything it
//! does; a run hands it to its one [`Observer`]. The
//! [`TraceDigest`](crate::TraceDigest) renders each record into the
//! canonical dispatch trace, the [`TraceRecorder`](crate::TraceRecorder)
//! writes records to disk, and a loaded [`TraceFile`](crate::TraceFile)
//! holds them. Live counters (backlog, queue waits, sheds, transfers)
//! are the [`QueueHealthMonitor`](crate::QueueHealthMonitor)'s.
//!
//! ```
//! use esg_model::{AppId, Config, InvocationId, NodeId};
//! use esg_sim::{EventKind, EventRecord, QueueKey, SchedulerEvent};
//!
//! let key = QueueKey { app: AppId(0), stage: 1 };
//! let invocations = [InvocationId(7), InvocationId(8)];
//! let live = SchedulerEvent::Dispatched {
//!     key,
//!     invocations: &invocations,
//!     config: Config::MIN,
//!     node: NodeId(2),
//!     now_ms: 12.0,
//! };
//! // The borrowed invocation list flattens to a job count.
//! let record = EventRecord::capture(&live);
//! assert_eq!(record.now_ms, 12.0);
//! assert!(matches!(record.kind, EventKind::Dispatched { jobs: 2, .. }));
//! ```

use crate::platform::{SimConfig, SimEnv};
use crate::policy::ShedReason;
use crate::sched::{QueueKey, SchedulerEvent};
use esg_model::{Config, InvocationId, NodeId};
use esg_workload::Arrival;

/// A read-only tap on one run: the platform calls it once with the run's
/// header, then with each arrival and each control-plane event as they
/// happen. It receives only shared references and never sees the
/// scheduler, so observing a run cannot change one of its decisions.
pub trait Observer {
    /// The run is about to start: its environment, configuration and the
    /// scheduler's name.
    fn begin(&mut self, _env: &SimEnv, _cfg: &SimConfig, _scheduler: &str) {}

    /// A workload arrival is being delivered (before its entry jobs
    /// enqueue).
    fn on_arrival(&mut self, _arrival: &Arrival) {}

    /// The platform emitted `event` (also delivered to the scheduler's
    /// [`on_event`](crate::Scheduler::on_event)).
    fn on_event(&mut self, event: &SchedulerEvent<'_>);
}

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
    /// every observer — the trace digest, the trace recorder — shares,
    /// so a new event variant cannot be captured two different ways.
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
