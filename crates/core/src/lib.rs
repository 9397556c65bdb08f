//! The ESG scheduling algorithm (the paper's primary contribution).
//!
//! ESG treats the shareable GPU as a first-order scheduling factor and
//! searches the three-dimensional configuration space `(batch, vCPUs,
//! vGPUs)` of a pipeline's stages as a path-finding problem (§3.3):
//!
//! * [`bounds`] — the per-stage aggregates behind *dual-blade pruning*:
//!   `tLow` (time lower bound), `rscLow` (cost lower bound) and
//!   `rscFastest` (an achievable cost upper bound used to tighten the
//!   cost blade), and the [`StageTableMemo`] that builds each search
//!   window's table once;
//! * [`search`] — ESG_1Q in both published forms: the stage-wise
//!   Algorithm-1 variant and the A* best-first variant (allocation-free
//!   inner loop over a reusable [`SearchScratch`] arena), each returning
//!   the configuration priority queue of the K cheapest SLO-feasible
//!   paths;
//! * [`cache`] — the [`PlanCache`]: memoised search summaries keyed on
//!   exactly what a search reads (the stage-table slot, the probe flag
//!   and the quantized effective GSLO), LRU-bounded (O(1) per
//!   operation), with compact entries; churn leaves it intact;
//! * [`brute`] — exhaustive search, the §5.3 baseline and the oracle for
//!   optimality tests;
//! * [`plan`] — per-application dominator-based SLO distribution
//!   (`esg-dag`) with per-stage quota fractions;
//! * [`scheduler`] — [`EsgScheduler`], the adapter that plugs ESG into the
//!   `esg-sim` platform: optimality-guided *adaptive* scheduling (the
//!   search re-runs before every stage dispatch) plus the locality-first
//!   ESG_Dispatch placement (§3.4);
//! * [`policy`] — ESG's stage for the composable round-policy pipeline:
//!   [`BandwidthAwarePacking`] ranks a whole round's queues by GSLO
//!   tightness under one shared search budget, preferring warm
//!   co-location unless the data plane shows the link is contended
//!   (stacks with `esg_sim::SloAdmission`).

#![warn(missing_docs)]

pub mod bounds;
pub mod brute;
pub mod cache;
pub mod plan;
pub mod policy;
pub mod scheduler;
pub mod search;

pub use bounds::{SearchEntry, StageTable, StageTableMemo};
pub use brute::brute_force;
pub use cache::{quantize_gslo, CacheStats, PlanCache, PlanKey};
pub use plan::AppPlans;
pub use policy::BandwidthAwarePacking;
pub use scheduler::{EsgScheduler, SearchVariant};
pub use search::{
    astar_search, astar_search_bounded, astar_search_with, astar_summary, stagewise_search,
    PathCandidate, SearchResult, SearchScratch, SearchSummary,
};
