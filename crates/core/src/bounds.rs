//! Per-stage tables and the dual-blade bounds (§3.3).
//!
//! For a partial path `p` over the first stages of a group, ESG_1Q computes:
//!
//! * `tLow(p)` — `time(p)` plus the **minimum latency** of every uncovered
//!   stage: a lower bound on any completion's time. Used by the time blade.
//! * `rscLow(p)` — `cost(p)` plus the **minimum cost** of every uncovered
//!   stage: a lower bound on any completion's cost. Used by the cost blade.
//! * `rscFastest(p)` — `cost(p)` plus the cost of running every uncovered
//!   stage **at its fastest configuration**: the cost of an achievable
//!   completion (the fastest one), hence an upper bound that tightens
//!   `best_full_paths_maxCost`.
//!
//! The table pre-computes suffix sums of the three per-stage aggregates so
//! each bound is O(1) during the search.
//!
//! A table is a pure function of `(window functions, first-stage batch
//! cap)` over an immutable profile table, and a cap only matters through
//! the largest grid batch it admits. [`StageTableMemo`] exploits both: it
//! builds each `(window, effective cap)` table once, and the tables share
//! their per-stage entry lists (one `StageEntries` per function and
//! effective cap), so the memo is bounded by functions × grid batches.

use esg_model::{Config, FnId};
use esg_profile::{ProfileEntry, ProfileTable};
use std::rc::Rc;

/// Entries per cost-minimum block: the A* child scan skips a whole block
/// when its cheapest entry already fails the cost blade.
pub(crate) const BLOCK: usize = 8;

/// One configuration as the search sees it: the three [`ProfileEntry`]
/// fields the search reads (32 bytes instead of 48).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchEntry {
    /// Mean task latency in ms (the whole batch).
    pub latency_ms: f64,
    /// Resource cost attributed to each job in cents.
    pub per_job_cost_cents: f64,
    /// The configuration.
    pub config: Config,
}

impl From<&ProfileEntry> for SearchEntry {
    fn from(e: &ProfileEntry) -> SearchEntry {
        SearchEntry {
            latency_ms: e.latency_ms,
            per_job_cost_cents: e.per_job_cost_cents,
            config: e.config,
        }
    }
}

/// One stage's searchable configurations, ascending by latency, with the
/// minimum per-job cost of every aligned [`BLOCK`] of entries.
#[derive(Debug)]
pub(crate) struct StageEntries {
    entries: Box<[SearchEntry]>,
    block_min_cost: Box<[f64]>,
}

impl StageEntries {
    /// The entries of `profile` (ascending by latency) whose batch is at
    /// most `max_batch`. A grid without a small-enough batch keeps its
    /// smallest batch instead; the dispatcher clamps it to the live queue
    /// length anyway.
    pub(crate) fn build(profile: &[ProfileEntry], max_batch: u32) -> StageEntries {
        let mut entries: Vec<SearchEntry> = profile
            .iter()
            .filter(|e| e.config.batch <= max_batch)
            .map(SearchEntry::from)
            .collect();
        if entries.is_empty() {
            let min_batch = profile
                .iter()
                .map(|e| e.config.batch)
                .min()
                .expect("non-empty profile");
            entries.extend(
                profile
                    .iter()
                    .filter(|e| e.config.batch == min_batch)
                    .map(SearchEntry::from),
            );
        }
        debug_assert!(
            entries
                .windows(2)
                .all(|w| w[0].latency_ms <= w[1].latency_ms),
            "profiles must arrive sorted ascending by latency"
        );
        let block_min_cost = entries
            .chunks(BLOCK)
            .map(|b| {
                b.iter()
                    .map(|e| e.per_job_cost_cents)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        StageEntries {
            entries: entries.into_boxed_slice(),
            block_min_cost,
        }
    }

    /// The entries, ascending by latency.
    #[inline]
    pub(crate) fn entries(&self) -> &[SearchEntry] {
        &self.entries
    }

    /// Minimum per-job cost of each block `entries[BLOCK*i..BLOCK*(i+1)]`.
    #[inline]
    pub(crate) fn block_min_cost(&self) -> &[f64] {
        &self.block_min_cost
    }
}

/// Suffix sums over stages `s..` of the three per-stage aggregates.
#[derive(Clone, Copy, Debug, Default)]
struct Suffix {
    min_lat: f64,
    min_cost: f64,
    fastest_cost: f64,
}

/// Pre-processed stage data for one ESG_1Q invocation.
///
/// Each stage is a shared `StageEntries` list (profiles arrive sorted
/// ascending by latency, so nothing is re-sorted); the first stage's batch
/// is capped at the queue length. Tables built by [`StageTableMemo`]
/// share their lists; [`StageTable::build`] builds private ones.
#[derive(Clone, Debug)]
pub struct StageTable {
    stages: Vec<Rc<StageEntries>>,
    /// `suffix[s]` aggregates stages `s..`; `suffix[n]` is zero.
    suffix: Vec<Suffix>,
}

impl StageTable {
    /// Builds the table for a stage sequence. `first_stage_max_batch` caps
    /// the batch dimension of stage 0 (ESG adapts the batch to the actual
    /// queue length; later stages are unconstrained).
    pub fn build(
        stages: &[FnId],
        profiles: &ProfileTable,
        first_stage_max_batch: u32,
    ) -> StageTable {
        assert!(!stages.is_empty(), "need at least one stage");
        StageTable::from_stages(
            stages
                .iter()
                .enumerate()
                .map(|(i, &f)| {
                    let cap = if i == 0 {
                        first_stage_max_batch
                    } else {
                        u32::MAX
                    };
                    Rc::new(StageEntries::build(profiles.profile(f).entries(), cap))
                })
                .collect(),
        )
    }

    /// Assembles a table from per-stage entry lists.
    fn from_stages(stages: Vec<Rc<StageEntries>>) -> StageTable {
        let n = stages.len();
        let mut suffix = vec![Suffix::default(); n + 1];
        for s in (0..n).rev() {
            let stage = stages[s].entries();
            let fastest = stage.first().expect("non-empty");
            let min_cost = stage
                .iter()
                .map(|e| e.per_job_cost_cents)
                .fold(f64::INFINITY, f64::min);
            suffix[s] = Suffix {
                min_lat: suffix[s + 1].min_lat + fastest.latency_ms,
                min_cost: suffix[s + 1].min_cost + min_cost,
                fastest_cost: suffix[s + 1].fastest_cost + fastest.per_job_cost_cents,
            };
        }
        StageTable { stages, suffix }
    }

    /// Number of stages.
    #[inline]
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Entries of stage `s`, ascending latency.
    #[inline]
    pub fn entries(&self, s: usize) -> &[SearchEntry] {
        self.stages[s].entries()
    }

    /// Stage `s` with its block cost minima.
    #[inline]
    pub(crate) fn stage(&self, s: usize) -> &StageEntries {
        &self.stages[s]
    }

    /// `tLow`: `time_so_far` plus the minimal remaining latency from stage
    /// `next` on.
    #[inline]
    pub fn t_low(&self, time_so_far: f64, next: usize) -> f64 {
        time_so_far + self.suffix[next].min_lat
    }

    /// `rscLow`: `cost_so_far` plus the minimal remaining cost.
    #[inline]
    pub fn rsc_low(&self, cost_so_far: f64, next: usize) -> f64 {
        cost_so_far + self.suffix[next].min_cost
    }

    /// `rscFastest`: `cost_so_far` plus the cost of finishing fastest.
    #[inline]
    pub fn rsc_fastest(&self, cost_so_far: f64, next: usize) -> f64 {
        cost_so_far + self.suffix[next].fastest_cost
    }

    /// The fastest full path (each stage at its minimum-latency config):
    /// the default when no path meets the target (`setDefaultPaths`).
    pub fn fastest_path(&self) -> (Vec<Config>, f64, f64) {
        let mut configs = Vec::with_capacity(self.num_stages());
        let mut time = 0.0;
        let mut cost = 0.0;
        for s in 0..self.num_stages() {
            let e = &self.entries(s)[0];
            configs.push(e.config);
            time += e.latency_ms;
            cost += e.per_job_cost_cents;
        }
        (configs, time, cost)
    }

    /// The quickest achievable total time — used to detect infeasible
    /// targets up front.
    #[inline]
    pub fn min_total_time(&self) -> f64 {
        self.suffix[0].min_lat
    }
}

/// Stage tables built once per `(search window, effective batch cap)`.
///
/// The effective cap of `cap` is the largest grid batch `<= cap` (the
/// smallest grid batch when none is): the first stage's filter admits
/// exactly the same entries under both, so the tables are identical.
/// Entry lists are shared per `(function, effective cap)` — later stages
/// always use the uncapped list — so memory is bounded by functions ×
/// grid batches plus one small table header per `(window, cap)`,
/// independent of run length.
#[derive(Debug)]
pub struct StageTableMemo {
    /// Grid batches, ascending and deduplicated.
    batches: Vec<u32>,
    /// `lists[f * batches.len() + c]`: function `f`'s entries under the
    /// `c`-th effective cap.
    lists: Vec<Option<Rc<StageEntries>>>,
    /// `tables[w * batches.len() + c]`: window `w` under the `c`-th cap.
    tables: Vec<Option<StageTable>>,
}

impl StageTableMemo {
    /// An empty memo over `profiles`' grid for `windows` search windows.
    pub fn new(profiles: &ProfileTable, windows: usize) -> StageTableMemo {
        let mut batches = profiles.grid().batches.clone();
        batches.sort_unstable();
        batches.dedup();
        let caps = batches.len();
        StageTableMemo {
            batches,
            lists: vec![None; profiles.len() * caps],
            tables: vec![None; windows * caps],
        }
    }

    /// Index of `cap`'s effective cap in the grid's batch list.
    #[inline]
    pub fn cap_index(&self, cap: u32) -> usize {
        self.batches
            .partition_point(|&b| b <= cap)
            .saturating_sub(1)
    }

    /// The slot of window `window`'s table under `cap`: caps with the
    /// same effective cap share a slot, and so a table.
    #[inline]
    pub fn slot(&self, window: usize, cap: u32) -> usize {
        window * self.batches.len() + self.cap_index(cap)
    }

    /// The table of window `window` (functions `fns`) with the first
    /// stage capped at `cap`, built on first use.
    pub fn table(
        &mut self,
        window: usize,
        fns: &[FnId],
        cap: u32,
        profiles: &ProfileTable,
    ) -> &StageTable {
        assert!(!fns.is_empty(), "need at least one stage");
        let caps = self.batches.len();
        let first_cap = self.cap_index(cap);
        let slot = self.slot(window, cap);
        if self.tables[slot].is_none() {
            let stages = fns
                .iter()
                .enumerate()
                .map(|(i, &f)| {
                    let c = if i == 0 { first_cap } else { caps - 1 };
                    let batch = self.batches[c];
                    self.lists[f.index() * caps + c]
                        .get_or_insert_with(|| {
                            Rc::new(StageEntries::build(profiles.profile(f).entries(), batch))
                        })
                        .clone()
                })
                .collect();
            self.tables[slot] = Some(StageTable::from_stages(stages));
        }
        self.tables[slot].as_ref().expect("just built")
    }
}

/// A bounded "K smallest values" list: the paper's `minRSC`, tracking the K
/// best `rscFastest` upper bounds; `kth()` is `best_full_paths_maxCost`.
#[derive(Clone, Debug)]
pub struct MinRsc {
    k: usize,
    values: Vec<f64>, // ascending, at most k
}

impl MinRsc {
    /// Creates an empty list of capacity `k >= 1`.
    pub fn new(k: usize) -> MinRsc {
        assert!(k >= 1, "K must be at least 1");
        MinRsc {
            k,
            values: Vec::with_capacity(k + 1),
        }
    }

    /// The K-th smallest value seen (the pruning threshold); infinite until
    /// K values arrive.
    #[inline]
    pub fn kth(&self) -> f64 {
        if self.values.len() < self.k {
            f64::INFINITY
        } else {
            self.values[self.k - 1]
        }
    }

    /// Inserts a value, keeping the K smallest.
    pub fn insert(&mut self, v: f64) {
        let pos = self.values.partition_point(|&x| x <= v);
        if pos >= self.k {
            return;
        }
        self.values.insert(pos, v);
        self.values.truncate(self.k);
    }

    /// Inserts a value unless an (approximately) equal one is present.
    ///
    /// The A* variant accumulates `rscFastest` upper bounds across stages,
    /// where several prefixes of the *same* completion insert the same
    /// value; counting them as distinct paths would inflate the K-th-best
    /// threshold and over-prune. Suppressing near-equal values is safe in
    /// both directions: duplicate same-path bounds are counted once, and
    /// genuinely tied distinct paths merely loosen the blade.
    pub fn insert_distinct(&mut self, v: f64) {
        let near = |x: f64| (x - v).abs() <= 1e-9 * x.abs().max(1.0);
        if self.values.iter().any(|&x| near(x)) {
            return;
        }
        self.insert(v);
    }

    /// Clears the list (Algorithm 1 resets `minRSC` per stage).
    pub fn reset(&mut self) {
        self.values.clear();
    }

    /// Clears the list and sets its capacity to `k >= 1`, keeping the
    /// allocation.
    pub fn reset_to(&mut self, k: usize) {
        assert!(k >= 1, "K must be at least 1");
        self.k = k;
        self.values.clear();
    }
}

impl Default for MinRsc {
    /// An empty list of capacity 1 that allocates on first insert.
    fn default() -> MinRsc {
        MinRsc {
            k: 1,
            values: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_model::{standard_catalog, ConfigGrid, PriceModel};

    fn table(stages: &[FnId], cap: u32) -> StageTable {
        let profiles = ProfileTable::build(
            &standard_catalog(),
            &ConfigGrid::default(),
            &PriceModel::default(),
        );
        StageTable::build(stages, &profiles, cap)
    }

    #[test]
    fn suffix_sums_monotone() {
        let t = table(&[FnId(0), FnId(1), FnId(3)], 8);
        assert_eq!(t.num_stages(), 3);
        assert!(t.t_low(0.0, 0) > t.t_low(0.0, 1));
        assert!(t.t_low(0.0, 2) > 0.0);
        assert_eq!(t.t_low(5.0, 3), 5.0);
        assert!(t.rsc_low(0.0, 0) > t.rsc_low(0.0, 1));
        assert!(t.rsc_fastest(0.0, 0) >= t.rsc_low(0.0, 0));
    }

    #[test]
    fn batch_cap_restricts_first_stage_only() {
        let capped = table(&[FnId(0), FnId(1)], 1);
        assert!(capped.entries(0).iter().all(|e| e.config.batch == 1));
        assert!(capped.entries(1).iter().any(|e| e.config.batch > 1));
        let free = table(&[FnId(0), FnId(1)], 8);
        assert!(free.entries(0).len() > capped.entries(0).len());
    }

    #[test]
    fn fastest_path_is_min_time() {
        let t = table(&[FnId(0), FnId(2)], 8);
        let (configs, time, cost) = t.fastest_path();
        assert_eq!(configs.len(), 2);
        assert!((time - t.min_total_time()).abs() < 1e-9);
        assert!(cost > 0.0);
        // Fastest path cost equals the rscFastest bound of the empty path.
        assert!((cost - t.rsc_fastest(0.0, 0)).abs() < 1e-12);
    }

    #[test]
    fn entries_sorted_ascending_latency() {
        let t = table(&[FnId(4)], 4);
        for w in t.entries(0).windows(2) {
            assert!(w[0].latency_ms <= w[1].latency_ms);
        }
    }

    fn assert_same_table(a: &StageTable, b: &StageTable) {
        assert_eq!(a.num_stages(), b.num_stages());
        for s in 0..a.num_stages() {
            assert_eq!(a.entries(s), b.entries(s), "stage {s}");
            assert_eq!(a.stage(s).block_min_cost(), b.stage(s).block_min_cost());
        }
        for s in 0..=a.num_stages() {
            assert_eq!(a.t_low(0.0, s).to_bits(), b.t_low(0.0, s).to_bits());
            assert_eq!(a.rsc_low(0.0, s).to_bits(), b.rsc_low(0.0, s).to_bits());
            assert_eq!(
                a.rsc_fastest(0.0, s).to_bits(),
                b.rsc_fastest(0.0, s).to_bits()
            );
        }
    }

    #[test]
    fn memo_effective_cap_reproduces_build() {
        // Batches 2/4/8: caps 0 and 1 fall below the smallest batch and
        // must get build's smallest-batch fallback; caps between grid
        // batches must get the largest batch below them.
        let grid = ConfigGrid::new(vec![8, 2, 4], vec![1, 2, 4], vec![1, 3]);
        let profiles = ProfileTable::build(&standard_catalog(), &grid, &PriceModel::default());
        let windows: [&[FnId]; 3] = [
            &[FnId(0), FnId(1), FnId(3)],
            &[FnId(4)],
            &[FnId(2), FnId(0)],
        ];
        let mut memo = StageTableMemo::new(&profiles, windows.len());
        for round in 0..2 {
            for (w, fns) in windows.iter().enumerate() {
                for cap in 0..=11 {
                    let built = StageTable::build(fns, &profiles, cap);
                    let memoised = memo.table(w, fns, cap, &profiles);
                    assert_same_table(&built, memoised);
                    assert!(
                        built
                            .entries(0)
                            .iter()
                            .all(|e| e.config.batch <= cap.max(2)),
                        "round {round} cap {cap}"
                    );
                }
            }
        }
        assert_eq!(memo.cap_index(0), 0);
        assert_eq!(memo.cap_index(3), 0);
        assert_eq!(memo.cap_index(4), 1);
        assert_eq!(memo.cap_index(u32::MAX), 2);
    }

    #[test]
    fn memo_tables_share_entry_lists() {
        let profiles = ProfileTable::build(
            &standard_catalog(),
            &ConfigGrid::default(),
            &PriceModel::default(),
        );
        let mut memo = StageTableMemo::new(&profiles, 2);
        let max = profiles.grid().max_batch();
        let a = memo.table(0, &[FnId(0), FnId(1)], 2, &profiles).stages[1].clone();
        let b = memo.table(1, &[FnId(1)], max, &profiles).stages[0].clone();
        assert!(Rc::ptr_eq(&a, &b), "later stages reuse the uncapped list");
    }

    #[test]
    fn block_minima_cover_every_entry() {
        let t = table(&[FnId(0)], 8);
        let stage = t.stage(0);
        assert_eq!(
            stage.block_min_cost().len(),
            stage.entries().len().div_ceil(BLOCK)
        );
        for (i, e) in stage.entries().iter().enumerate() {
            assert!(stage.block_min_cost()[i / BLOCK] <= e.per_job_cost_cents);
        }
    }

    #[test]
    fn min_rsc_tracks_k_smallest() {
        let mut m = MinRsc::new(3);
        assert_eq!(m.kth(), f64::INFINITY);
        m.insert(5.0);
        m.insert(1.0);
        assert_eq!(m.kth(), f64::INFINITY); // only 2 values
        m.insert(3.0);
        assert_eq!(m.kth(), 5.0);
        m.insert(2.0);
        assert_eq!(m.kth(), 3.0);
        m.insert(10.0); // ignored, too large
        assert_eq!(m.kth(), 3.0);
        m.reset();
        assert_eq!(m.kth(), f64::INFINITY);
    }

    #[test]
    fn min_rsc_k1_tracks_best() {
        let mut m = MinRsc::new(1);
        m.insert(4.0);
        assert_eq!(m.kth(), 4.0);
        m.insert(2.0);
        assert_eq!(m.kth(), 2.0);
        m.insert(3.0);
        assert_eq!(m.kth(), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_stage_list_panics() {
        let _ = table(&[], 1);
    }
}
