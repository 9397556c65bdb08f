//! The four comparison schedulers of the paper's evaluation (§4.2).
//!
//! * [`InflessScheduler`] — INFless: per-stage enumeration maximising
//!   throughput subject to a statically split stage deadline, placement by
//!   resource-efficiency / fragmentation-minimisation. Relation-blind.
//! * [`FastGShareScheduler`] — FaST-GShare: enumeration against a
//!   throughput requirement with minimal GPU share, placement minimising
//!   GPU fragmentation. Relation-blind.
//! * [`OrionScheduler`] — Orion's best-first search over the joint
//!   configuration vector of *all* stages, targeting P95 latency, with a
//!   cut-off time; the plan is fixed at the first stage's invocation
//!   (no adaptation — the source of Table 4's configuration misses).
//! * [`AquatopeScheduler`] — Aquatope: offline Bayesian-optimisation
//!   training (100 bootstrap samples + 50 rounds × 5 candidates on a
//!   Gaussian-process surrogate with expected improvement), then static
//!   deployment of the learned configurations.
//!
//! The GP/Cholesky/EI machinery Aquatope needs is built from scratch in
//! [`bo`] (no external linear-algebra crates, per the dependency policy).
//!
//! Per §4.2, all baselines run on the same platform services as ESG — GPU
//! sharing, batching, pre-warming — differing only in the scheduling
//! algorithm (and in their published placement policies).

#![warn(missing_docs)]

pub mod aquatope;
pub mod bo;
pub mod fastgshare;
pub mod infless;
pub mod orion;
pub mod slo_split;

#[cfg(test)]
pub(crate) mod test_support;

pub use aquatope::AquatopeScheduler;
pub use fastgshare::FastGShareScheduler;
pub use infless::InflessScheduler;
pub use orion::OrionScheduler;
pub use slo_split::average_service_split;
