//! Domain model for the ESG reproduction.
//!
//! This crate holds the vocabulary types shared by every other crate in the
//! workspace: identifiers, the three-dimensional serverless configuration
//! `(batch size, #vCPUs, #vGPUs)` introduced by the paper (§3.2), the cluster
//! resource vector, the pricing model (§4.1), the Table-3 function catalog,
//! the four evaluated applications, the SLO/workload scenario definitions,
//! the heterogeneous-cluster vocabulary ([`NodeClass`], [`ClusterSpec`],
//! [`ChurnPlan`], [`TrafficShape`]), and small deterministic statistics
//! helpers (Box–Muller Gaussian sampling, summary statistics) used
//! throughout the emulation.
//!
//! Everything here is plain data with no scheduling or simulation logic, so
//! that the algorithm crates (`esg-core`, `esg-baselines`) and the substrate
//! crates (`esg-profile`, `esg-sim`, `esg-workload`) can share it without
//! dependency cycles.

#![warn(missing_docs)]

pub mod apps;
pub mod catalog;
pub mod cluster;
pub mod config;
pub mod fnv;
pub mod ids;
pub mod price;
pub mod resources;
pub mod scenario;
pub mod stats;
pub mod time;

pub use apps::{standard_app_ids, standard_apps, AppSpec};
pub use catalog::{standard_catalog, Catalog, FunctionSpec};
pub use cluster::{ChurnEvent, ChurnPlan, ClusterSpec, GpuFlavor, NodeClass, ServerTopology};
pub use config::{Config, ConfigGrid};
pub use fnv::Fnv;
pub use ids::{AppId, FnId, InvocationId, JobId, NodeId};
pub use price::PriceModel;
pub use resources::Resources;
pub use scenario::{Scenario, SloClass, TrafficShape, WorkloadClass};
pub use stats::{percentile, BoxStats, Ewma, Gaussian, Summary};
pub use time::SimTime;
