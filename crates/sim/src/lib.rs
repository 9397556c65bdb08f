//! Discrete-event serverless-platform simulator.
//!
//! The paper evaluates ESG with "a framework that can emulate various
//! serverless workloads and scenarios … based on actual performance of the
//! serverless functions measured on actual machines" (§4). This crate is
//! that framework, rebuilt as a deterministic discrete-event simulation:
//!
//! * a cluster of invoker nodes — the paper's homogeneous Table-2 testbed
//!   (16 nodes × 16 vCPUs × 7 MIG vGPUs) by default, or any
//!   `esg_model::ClusterSpec` of heterogeneous node classes (per-class
//!   capacity, execution-speed, link, and price scale factors), with
//!   scripted churn (`esg_model::ChurnPlan` node drains/joins) applied by
//!   the event loop mid-run;
//! * container lifecycle with Table-3 cold starts, a 10-minute keep-alive
//!   (OpenWhisk's policy, §2), and EWMA-driven pre-warming (§4);
//! * app-function-wise (AFW) job queues on the controller (§3.1);
//! * a controller loop that scans queues round-robin, charges each
//!   scheduling decision's search effort as controller busy time, maintains
//!   the recheck list, and forces minimum-configuration dispatch after
//!   three failed rounds (§3.1);
//! * per-job data transfers that are cheap on-node and expensive across
//!   nodes (§3.4);
//! * metrics for every figure of §5: SLO hits, per-app latency series,
//!   cost, scheduling-overhead distribution, configuration-miss rates,
//!   cold/warm starts, and GPU/CPU utilisation.
//!
//! Scheduling algorithms plug in through the [`Scheduler`] trait; the ESG
//! algorithm lives in `esg-core` and the four baselines in `esg-baselines`.
//!
//! # Overhead model
//!
//! The paper reports scheduler overhead in milliseconds on its testbed
//! (Fig. 9, Fig. 10, §5.3). A Rust reimplementation is orders of magnitude
//! faster in wall-clock terms, so charging *measured* wall time would erase
//! the trade-off the paper studies. Instead, schedulers report their search
//! effort in *expanded configurations*, and [`decision_time`] converts the
//! effort into simulated controller time, calibrated so a brute-force
//! search of a 3-stage group at 256 configurations per function costs the
//! paper's 7258 ms (§5.3: ≈0.43 µs per expansion). Real wall time is also
//! recorded, and both are reported in the generated `EXPERIMENTS.md` at
//! the workspace root (rendered by `esg-bench`'s emitter from the
//! `BENCH_<suite>.json` artifacts).

#![warn(missing_docs)]

pub mod arena;
pub mod builder;
pub mod cluster;
pub mod dataplane;
pub mod event;
pub mod eventlog;
pub mod health;
pub mod metrics;
pub mod platform;
pub mod policy;
pub mod sched;
pub mod state;
pub mod trace;
pub mod workflow;

pub use arena::Arena;
pub use builder::SimError;
pub use cluster::{Cluster, Node};
pub use dataplane::{
    BandwidthPool, DataPlane, DataPlaneConfig, DataPlaneView, NodeLoad, NodeTransferStats,
    TransferSummary,
};
pub use event::{Event, EventQueue};
pub use eventlog::{EventKind, EventRecord, Observer};
pub use health::{
    HealthSnapshot, QueueCounters, QueueHealth, QueueHealthMonitor, TransferCounters,
};
pub use metrics::{AppMetrics, ExperimentResult, NodeSummary, OverheadTable, Tally};
pub use platform::{
    run_simulation, run_streamed, MemoryFootprint, MinScheduler, SimConfig, SimEnv, Simulation,
};
pub use policy::{
    gslo_attainable, AdmissionDecision, AdmissionPlan, BandwidthPackingConfig, PolicyStack,
    PolicyStats, RoundPolicy, ShedReason, SloAdmission,
};
pub use sched::{
    decision_time, fill_job_views, home_node, place_locality_first, place_min_fragmentation,
    BatchHold, Capabilities, JobView, Outcome, PolicySpec, QueueKey, QueueView, RoundCtx, SchedCtx,
    Scheduler, SchedulerEvent, SchedulerStats, DECISION_BASE_US, US_PER_EXPANSION,
};
pub use state::{ClusterState, NodeView};
pub use trace::{
    dispatch_trace, fnv64, TraceDigest, TraceError, TraceFile, TraceRecorder, TraceReplay, Traced,
    TRACE_FORMAT, TRACE_VERSION,
};
pub use workflow::{AfwQueue, Job, WorkflowInstance};
