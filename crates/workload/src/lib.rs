//! Workload substrate.
//!
//! The paper derives job arrival rates from the public Azure Functions
//! traces and distils them into three interval classes (§4.1, Fig. 5):
//! heavy [10, 16.8] ms, normal [20, 33.6] ms, light [40, 67.2] ms, with
//! one of the four applications picked at random for each arrival.
//!
//! * [`arrivals`] — the class-based generator used by every evaluation
//!   scenario;
//! * [`azure`] — a synthetic Azure-like per-minute rate trace (diurnal
//!   pattern plus bursts) for the pre-warming study, replacing the
//!   proprietary raw traces (see DESIGN.md substitutions);
//! * [`shapes`] — traffic-shape generators (`steady`, `bursty`,
//!   `diurnal`, `azure` replay) keyed by `esg_model::TrafficShape`, all
//!   holding the class mean rate so shapes compare apples-to-apples;
//! * [`predictor`] — the EWMA inter-arrival predictor the pre-warming
//!   proxy threads use (§4);
//! * [`stream`] — the lazy [`ArrivalStream`] iterator every generator
//!   above drains: constant-memory, time-ordered, bit-identical to the
//!   materialised workloads, and the source the simulator's streaming
//!   replay mode pulls from.

#![warn(missing_docs)]

pub mod arrivals;
pub mod azure;
pub mod predictor;
pub mod shapes;
pub mod stream;

pub use arrivals::{Arrival, Workload, WorkloadGen};
pub use azure::AzureLikeTrace;
pub use predictor::ArrivalPredictor;
pub use shapes::{shaped_stream, shaped_workload, RateFn};
pub use stream::ArrivalStream;
