//! DAG analysis substrate for ESG.
//!
//! ESG's *dominator-based SLO distribution* (paper §3.3, Fig. 4) keeps the
//! configuration search scalable on long workflows: it builds the dominator
//! tree of the application DAG, labels nodes with their *average normalized
//! length* (ANL), hierarchically reduces parallel branches into generated
//! nodes, partitions the resulting chain into groups of at most `g`
//! consecutive functions, and splits the end-to-end SLO across groups
//! proportionally to ANL. ESG_1Q then searches one group at a time.
//!
//! This crate provides the pieces in layers:
//!
//! * [`Dag`] — validated DAG with topological order and reachability;
//! * [`DominatorTree`] — iterative Cooper–Harvey–Kennedy dominators
//!   (the classic compiler algorithm family the paper cites);
//! * [`anl::average_normalized_length`] — ANL labelling from profiles;
//! * [`reduce::Hierarchy`] — the reduction of the dominator tree into a
//!   series/parallel chain structure (paper Fig. 4 b→d);
//! * [`slo::SloPlan`] — group partitioning + proportional SLO quotas.

#![warn(missing_docs)]

pub mod anl;
pub mod dominator;
pub mod graph;
pub mod reduce;
pub mod slo;

pub use anl::average_normalized_length;
pub use dominator::DominatorTree;
pub use graph::{Dag, DagError};
pub use reduce::{Hierarchy, Item};
pub use slo::{SloGroup, SloPlan};
