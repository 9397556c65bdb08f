//! Facade crate: the full ESG reproduction behind one dependency.
//!
//! Re-exports the public API of every workspace crate:
//!
//! * [`model`] — domain types, Table-3 catalog, applications, scenarios;
//! * [`dag`] — dominator trees and dominator-based SLO distribution;
//! * [`profile`] — the performance-profile substrate;
//! * [`workload`] — arrival generators and the EWMA predictor;
//! * [`sim`] — the discrete-event serverless platform;
//! * [`core`] — the ESG scheduling algorithm;
//! * [`baselines`] — INFless, FaST-GShare, Orion, Aquatope.
//!
//! # Quickstart
//!
//! ```
//! use esg::prelude::*;
//!
//! // A strict-light scenario on the paper's standard environment.
//! let env = SimEnv::standard(SloClass::Strict);
//! let workload = WorkloadGen::new(
//!     WorkloadClass::Light,
//!     esg::model::standard_app_ids(),
//!     42,
//! )
//! .generate(50);
//!
//! let mut esg = EsgScheduler::new();
//! // The one way to start a run: every knob is checked first.
//! let result = run_simulation(&env, SimConfig::default(), &mut esg, &workload, "demo", None)?;
//! assert_eq!(result.arrivals, 50);
//! println!("SLO hit rate: {:.1}%", result.avg_hit_rate() * 100.0);
//! # Ok::<(), SimError>(())
//! ```

#![warn(missing_docs)]

pub use esg_baselines as baselines;
pub use esg_core as core;
pub use esg_dag as dag;
pub use esg_model as model;
pub use esg_profile as profile;
pub use esg_sim as sim;
pub use esg_workload as workload;

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use esg_baselines::{
        AquatopeScheduler, FastGShareScheduler, InflessScheduler, OrionScheduler,
    };
    pub use esg_core::{
        BandwidthAwarePacking, EsgScheduler, PlanCache, SearchScratch, SearchVariant,
    };
    pub use esg_dag::{Dag, DominatorTree, SloPlan};
    pub use esg_model::{
        standard_apps, standard_catalog, AppId, AppSpec, ChurnPlan, ClusterSpec, Config,
        ConfigGrid, FnId, NodeClass, NodeId, PriceModel, Resources, Scenario, SimTime, SloClass,
        TrafficShape, WorkloadClass,
    };
    pub use esg_profile::{latency_ms, NoiseModel, ProfileTable, TransferModel};
    pub use esg_sim::{
        fnv64, run_simulation, run_streamed, AdmissionDecision, AdmissionPlan,
        BandwidthPackingConfig, Capabilities, ClusterState, DataPlane, DataPlaneConfig,
        DataPlaneView, EventKind, EventRecord, ExperimentResult, HealthSnapshot, MemoryFootprint,
        MinScheduler, NodeLoad, NodeSummary, NodeTransferStats, NodeView, Observer, OverheadModel,
        PolicyStack, PolicyStats, QueueCounters, QueueHealth, QueueHealthMonitor, QueueView,
        RoundCtx, RoundPolicy, SchedCtx, Scheduler, SchedulerEvent, SchedulerStats, ShedReason,
        SimConfig, SimEnv, SimError, Simulation, SloAdmission, SloAdmissionConfig, TraceDigest,
        TraceError, TraceFile, TraceRecorder, TraceReplay, TransferCounters, TransferSummary,
    };
    pub use esg_workload::{
        shaped_stream, shaped_workload, ArrivalPredictor, ArrivalStream, AzureLikeTrace, RateFn,
        Workload, WorkloadGen,
    };
}
