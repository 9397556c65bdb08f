//! ESG_1Q: the configuration-path search (§3.3, Appendix B).
//!
//! Two published variants are implemented over the same [`StageTable`]:
//!
//! * [`stagewise_search`] — Algorithm 1 (Appendix B): stages are expanded
//!   level by level; within a stage, configurations are scanned in
//!   ascending latency so the time blade can `break` (every later
//!   configuration is slower) while the cost blade `continue`s; `minRSC`
//!   keeps the K best `rscFastest` upper bounds and is reset per stage.
//! * [`astar_search`] — the A* formulation the paper builds on: a best-
//!   first priority queue ordered by the admissible cost heuristic
//!   `f = cost(p) + Σ min-cost(uncovered)`, with the same dual-blade
//!   pruning. The first K goals popped are the K cheapest feasible paths.
//!
//! Both return the *configuration priority queue* (§3.1): up to K full
//! paths meeting the target latency, cheapest first, falling back to the
//! fastest path when the target is unreachable (`setDefaultPaths`).

use crate::bounds::{MinRsc, SearchEntry, StageTable, BLOCK};
use esg_model::Config;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One full configuration path through the stage group.
#[derive(Clone, Debug, PartialEq)]
pub struct PathCandidate {
    /// Per-stage configurations.
    pub configs: Vec<Config>,
    /// Total estimated time, ms.
    pub time_ms: f64,
    /// Total estimated per-job cost, cents.
    pub cost_cents: f64,
}

/// The result of one ESG_1Q invocation.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// Up to K paths, cheapest first (the configuration priority queue).
    pub paths: Vec<PathCandidate>,
    /// Number of configuration expansions examined (drives the simulated
    /// scheduling overhead).
    pub expansions: u64,
    /// False when no path met the target and the fastest path was
    /// substituted.
    pub feasible: bool,
}

/// A search reduced to what dispatch reads of it. The deduplicated
/// first-stage configurations of its paths (the dispatch candidates) stay
/// in the [`SearchScratch`] that summarised it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchSummary {
    /// Configuration expansions examined (drives the simulated
    /// scheduling overhead).
    pub expansions: u64,
    /// False when no path met the target and the fastest path was
    /// substituted.
    pub feasible: bool,
    /// Total time of the best path, ms.
    pub best_time_ms: f64,
    /// `StageTable::min_total_time()` of the searched table.
    pub min_total_ms: f64,
}

/// Safety valve on the stage-wise frontier: with very loose targets the
/// level-by-level frontier can grow combinatorially before the cost blade
/// tightens; keeping the cheapest prefixes preserves the optimum (they
/// dominate) while bounding memory.
const MAX_FRONTIER: usize = 8192;

#[derive(Clone, Debug)]
struct Partial {
    configs: Vec<Config>,
    time_ms: f64,
    cost_cents: f64,
}

fn fallback(table: &StageTable, expansions: u64) -> SearchResult {
    let (configs, time_ms, cost_cents) = table.fastest_path();
    SearchResult {
        paths: vec![PathCandidate {
            configs,
            time_ms,
            cost_cents,
        }],
        expansions,
        feasible: false,
    }
}

/// Algorithm 1: stage-wise expansion with dual-blade pruning.
pub fn stagewise_search(table: &StageTable, gslo_ms: f64, k: usize) -> SearchResult {
    assert!(k >= 1, "K must be at least 1");
    let n = table.num_stages();
    let mut expansions: u64 = 0;

    let mut frontier = vec![Partial {
        configs: Vec::new(),
        time_ms: 0.0,
        cost_cents: 0.0,
    }];

    for s in 0..n {
        let mut next: Vec<Partial> = Vec::new();
        // Algorithm 1 resets minRSC at every stage.
        let mut min_rsc = MinRsc::new(k);
        for p in &frontier {
            for e in table.entries(s) {
                expansions += 1;
                let time = p.time_ms + e.latency_ms;
                // Time blade: entries are sorted by latency, so everything
                // after the first violation is also infeasible.
                if table.t_low(time, s + 1) > gslo_ms {
                    break;
                }
                let cost = p.cost_cents + e.per_job_cost_cents;
                // Cost blade: a lower bound at/above the K-th best upper
                // bound cannot enter the top K.
                if table.rsc_low(cost, s + 1) >= min_rsc.kth() {
                    continue;
                }
                min_rsc.insert(table.rsc_fastest(cost, s + 1));
                let mut configs = p.configs.clone();
                configs.push(e.config);
                next.push(Partial {
                    configs,
                    time_ms: time,
                    cost_cents: cost,
                });
            }
        }
        next.sort_by(|a, b| a.cost_cents.total_cmp(&b.cost_cents));
        next.truncate(MAX_FRONTIER);
        frontier = next;
        if frontier.is_empty() {
            return fallback(table, expansions);
        }
    }

    frontier.truncate(k);
    SearchResult {
        paths: frontier
            .into_iter()
            .map(|p| PathCandidate {
                configs: p.configs,
                time_ms: p.time_ms,
                cost_cents: p.cost_cents,
            })
            .collect(),
        expansions,
        feasible: true,
    }
}

/// A per-stage Pareto frontier over `(time, cost)` prefixes, keeping up to
/// `k` exact ties per point.
struct ParetoFront {
    k: usize,
    points: Vec<(f64, f64, usize)>, // (time, cost, tie count)
}

impl ParetoFront {
    fn new(k: usize) -> ParetoFront {
        ParetoFront {
            k,
            points: Vec::new(),
        }
    }

    /// Empties the frontier for reuse under a (possibly different) tie
    /// budget, keeping the point allocation.
    fn reset(&mut self, k: usize) {
        self.k = k;
        self.points.clear();
    }

    /// Returns true when a prefix with `(time, cost)` is worth keeping,
    /// recording it; false when an existing prefix dominates it.
    fn admit(&mut self, time: f64, cost: f64) -> bool {
        const EPS: f64 = 1e-9;
        for p in &mut self.points {
            let tie = (p.0 - time).abs() <= EPS && (p.1 - cost).abs() <= EPS;
            if tie {
                if p.2 < self.k {
                    p.2 += 1;
                    return true;
                }
                return false;
            }
            if p.0 <= time + EPS && p.1 <= cost + EPS {
                return false; // strictly dominated (not a tie)
            }
        }
        // Non-dominated: insert and drop points it dominates.
        self.points
            .retain(|p| !(time <= p.0 + EPS && cost <= p.1 + EPS));
        self.points.push((time, cost, 1));
        true
    }
}

/// Ordered heap node for the A* variant. The partial path lives in the
/// [`SearchScratch`] arena; the heap node carries only its index plus the
/// running totals, so pushing a child never clones a configuration vector.
struct AstarNode {
    f: f64, // cost so far + admissible remaining-cost heuristic
    time_ms: f64,
    cost_cents: f64,
    /// Index of this prefix's last arena entry (`u32::MAX` = empty root).
    arena: u32,
    next_stage: u32,
}

impl PartialEq for AstarNode {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f
    }
}
impl Eq for AstarNode {}
impl PartialOrd for AstarNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for AstarNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.f.total_cmp(&other.f)
    }
}

/// One expanded prefix step: the chosen configuration plus a parent
/// pointer into the same arena (`u32::MAX` terminates at the root).
#[derive(Clone, Copy, Debug)]
struct ArenaStep {
    config: Config,
    parent: u32,
}

/// A goal popped by [`astar_drive`]: the last arena step of a full path
/// plus its totals.
#[derive(Clone, Copy, Debug)]
struct Goal {
    arena: u32,
    time_ms: f64,
    cost_cents: f64,
}

/// Reusable allocations for the A* searches: the parent-pointer arena of
/// expanded prefixes, the open list, the per-stage Pareto fronts,
/// `minRSC`, the goal list and the dispatch candidates. A long-lived
/// searcher (the scheduler) keeps one scratch and passes it to every
/// search; `reset` clears lengths but keeps capacity, so
/// [`astar_summary`] runs without heap allocation once the buffers have
/// grown. [`astar_search_with`] allocates only the paths it returns.
#[derive(Default)]
pub struct SearchScratch {
    arena: Vec<ArenaStep>,
    heap: BinaryHeap<Reverse<AstarNode>>,
    fronts: Vec<ParetoFront>,
    min_rsc: MinRsc,
    goals: Vec<Goal>,
    /// First-stage configurations of the last summarised search.
    pub(crate) candidates: Vec<Config>,
}

impl SearchScratch {
    /// An empty scratch; capacity grows on first use and is retained.
    pub fn new() -> SearchScratch {
        SearchScratch::default()
    }

    /// Clears per-search state, keeping allocations, and sizes the Pareto
    /// fronts for an `n`-stage search with tie budget `k`.
    fn reset(&mut self, n: usize, k: usize) {
        self.arena.clear();
        self.heap.clear();
        self.goals.clear();
        self.min_rsc.reset_to(k);
        for f in &mut self.fronts {
            f.reset(k);
        }
        while self.fronts.len() <= n {
            self.fronts.push(ParetoFront::new(k));
        }
    }

    /// The deduplicated first-stage configurations of the last summarised
    /// search's paths, in path order: the dispatch candidates.
    pub fn candidates(&self) -> &[Config] {
        &self.candidates
    }

    /// Materialises the `len`-stage path ending at arena index `last`.
    fn path(&self, last: u32, len: usize) -> Vec<Config> {
        let mut configs = vec![Config::MIN; len];
        let mut cur = last;
        for slot in configs.iter_mut().rev() {
            let step = self.arena[cur as usize];
            *slot = step.config;
            cur = step.parent;
        }
        debug_assert_eq!(cur, u32::MAX, "path length must match arena chain");
        configs
    }

    /// The first-stage configuration of the path ending at arena index
    /// `last`: the root end of its parent chain.
    fn first_config(&self, last: u32) -> Config {
        let mut step = self.arena[last as usize];
        while step.parent != u32::MAX {
            step = self.arena[step.parent as usize];
        }
        step.config
    }

    /// The goals of the last [`astar_drive`] as a [`SearchResult`] over
    /// `table`.
    fn result(&self, table: &StageTable, expansions: u64) -> SearchResult {
        if self.goals.is_empty() {
            return fallback(table, expansions);
        }
        SearchResult {
            paths: self
                .goals
                .iter()
                .map(|g| PathCandidate {
                    configs: self.path(g.arena, table.num_stages()),
                    time_ms: g.time_ms,
                    cost_cents: g.cost_cents,
                })
                .collect(),
            expansions,
            feasible: true,
        }
    }

    /// Summarises the goals of the last [`astar_drive`], leaving their
    /// first-stage configurations in [`candidates`](Self::candidates).
    /// Equal to [`summarise`](Self::summarise) of
    /// [`result`](Self::result), without materialising a path.
    fn summarise_goals(&mut self, table: &StageTable, expansions: u64) -> SearchSummary {
        self.candidates.clear();
        let Some(best) = self.goals.first() else {
            // `fallback`'s fastest path: each stage's fastest entry.
            let mut best_time_ms = 0.0;
            for s in 0..table.num_stages() {
                best_time_ms += table.entries(s)[0].latency_ms;
            }
            self.candidates.push(table.entries(0)[0].config);
            return SearchSummary {
                expansions,
                feasible: false,
                best_time_ms,
                min_total_ms: table.min_total_time(),
            };
        };
        let best_time_ms = best.time_ms;
        for i in 0..self.goals.len() {
            let c = self.first_config(self.goals[i].arena);
            if !self.candidates.contains(&c) {
                self.candidates.push(c);
            }
        }
        SearchSummary {
            expansions,
            feasible: true,
            best_time_ms,
            min_total_ms: table.min_total_time(),
        }
    }

    /// Summarises `result`, a search over `table`, leaving the
    /// first-stage configurations of its paths, deduplicated and in path
    /// order, in [`candidates`](Self::candidates) (ESG re-plans later
    /// stages anyway).
    pub fn summarise(&mut self, table: &StageTable, result: &SearchResult) -> SearchSummary {
        self.candidates.clear();
        for p in &result.paths {
            if !self.candidates.contains(&p.configs[0]) {
                self.candidates.push(p.configs[0]);
            }
        }
        SearchSummary {
            expansions: result.expansions,
            feasible: result.feasible,
            best_time_ms: result.paths[0].time_ms,
            min_total_ms: table.min_total_time(),
        }
    }
}

impl std::fmt::Debug for SearchScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchScratch")
            .field("arena_capacity", &self.arena.capacity())
            .field("fronts", &self.fronts.len())
            .finish()
    }
}

/// The A* formulation: best-first over partial paths with
/// `f(p) = cost(p) + Σ min-cost(uncovered stages)` (admissible and
/// consistent, so the first K goals are the K cheapest feasible paths),
/// pruned by the same dual blades.
pub fn astar_search(table: &StageTable, gslo_ms: f64, k: usize) -> SearchResult {
    astar_search_with(table, gslo_ms, k, f64::INFINITY, &mut SearchScratch::new())
}

/// [`astar_search`] over caller-owned [`SearchScratch`] storage, with a
/// *premium bound*: once the optimal path is known, alternates costing
/// more than `(1 + premium)` times the optimum are abandoned. Rank-1
/// optimality is unaffected; ranks 2..K become "K best within the premium
/// band". The scheduler uses this because a dispatch alternate far above
/// the optimum would never be worth its search time, and cost plateaus
/// otherwise make exact K-best exploration degenerate on loose targets.
/// Results are bit-identical for a fresh and a reused scratch — the
/// scratch only changes where intermediate state lives, not the expansion
/// order (heap ordering keys are unchanged).
pub fn astar_search_with(
    table: &StageTable,
    gslo_ms: f64,
    k: usize,
    premium: f64,
    scratch: &mut SearchScratch,
) -> SearchResult {
    let expansions = astar_drive(table, gslo_ms, k, premium, scratch, expand_blocked);
    scratch.result(table, expansions)
}

/// [`astar_search_with`] reduced to what dispatch reads: equal to
/// `scratch.summarise(table, &astar_search_with(..))`, but no path is
/// materialised, so it allocates nothing once the scratch has grown.
pub fn astar_summary(
    table: &StageTable,
    gslo_ms: f64,
    k: usize,
    premium: f64,
    scratch: &mut SearchScratch,
) -> SearchSummary {
    let expansions = astar_drive(table, gslo_ms, k, premium, scratch, expand_blocked);
    scratch.summarise_goals(table, expansions)
}

/// The A* search loop, generic over the child scan so tests can run it with
/// the plain linear scan as a reference. Leaves the goals (up to K, in
/// pop order) in the scratch and returns the expansion count.
fn astar_drive(
    table: &StageTable,
    gslo_ms: f64,
    k: usize,
    premium: f64,
    scratch: &mut SearchScratch,
    expand: impl Fn(&StageTable, f64, &AstarNode, &mut SearchScratch) -> u64,
) -> u64 {
    assert!(k >= 1, "K must be at least 1");
    let n = table.num_stages();
    let mut expansions: u64 = 0;
    scratch.reset(n, k);
    // Third blade: per-stage Pareto dominance. A prefix that is no faster
    // *and* no cheaper than an existing prefix at the same stage cannot
    // complete into a better path (completions are identical sets). Up to
    // `k` exact ties are kept so alternates survive; rank-1 optimality is
    // preserved because some non-dominated prefix always carries a path of
    // the optimal cost.

    scratch.heap.push(Reverse(AstarNode {
        f: table.rsc_low(0.0, 0),
        time_ms: 0.0,
        cost_cents: 0.0,
        arena: u32::MAX,
        next_stage: 0,
    }));

    while let Some(Reverse(node)) = scratch.heap.pop() {
        if let Some(first) = scratch.goals.first() {
            // f is non-decreasing along pops (consistent heuristic): once
            // the frontier exceeds the premium band, no acceptable
            // alternate remains.
            if node.f > first.cost_cents * (1.0 + premium) {
                break;
            }
        }
        if node.next_stage as usize == n {
            scratch.goals.push(Goal {
                arena: node.arena,
                time_ms: node.time_ms,
                cost_cents: node.cost_cents,
            });
            if scratch.goals.len() >= k {
                break;
            }
            continue;
        }
        expansions += expand(table, gslo_ms, &node, scratch);
    }
    expansions
}

/// Expands `node` by the entries of its next stage, returning the number
/// of entries the linear scan would examine.
///
/// Equivalent to scanning the stage in ascending latency, breaking at the
/// first time-blade violation, and offering every earlier entry to
/// [`offer_child`]:
///
/// * the time blade is monotone in latency, so its cut is a binary search,
///   and the linear scan examines `min(cut + 1, len)` entries;
/// * an aligned block whose cheapest entry fails the cost blade is skipped
///   whole. Float addition is monotone, so every entry of the block would
///   have failed, and a failed entry changes no state (neither the
///   fronts nor `minRSC`), so the surviving children, their order and the
///   evolution of `minRSC` are exactly the linear scan's.
fn expand_blocked(
    table: &StageTable,
    gslo_ms: f64,
    node: &AstarNode,
    scratch: &mut SearchScratch,
) -> u64 {
    let s = node.next_stage as usize;
    let stage = table.stage(s);
    let entries = stage.entries();
    // Negated rather than `<=` so a NaN budget never cuts, like the
    // linear scan's `>` break.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    let cut =
        entries.partition_point(|e| !(table.t_low(node.time_ms + e.latency_ms, s + 1) > gslo_ms));
    for (b, &block_min) in stage.block_min_cost().iter().enumerate() {
        let lo = b * BLOCK;
        if lo >= cut {
            break;
        }
        if table.rsc_low(node.cost_cents + block_min, s + 1) > scratch.min_rsc.kth() {
            continue;
        }
        for e in &entries[lo..cut.min(lo + BLOCK)] {
            offer_child(table, node, e, scratch);
        }
    }
    (cut + 1).min(entries.len()) as u64
}

/// The cost blade, the Pareto blade and the push for one child of `node`
/// that passed the time blade.
#[inline]
fn offer_child(table: &StageTable, node: &AstarNode, e: &SearchEntry, scratch: &mut SearchScratch) {
    let s = node.next_stage as usize;
    let time = node.time_ms + e.latency_ms;
    let cost = node.cost_cents + e.per_job_cost_cents;
    let f = table.rsc_low(cost, s + 1);
    // Strict comparison: a child whose lower bound ties the K-th
    // distinct upper bound may still *be* that K-th path.
    if f > scratch.min_rsc.kth() {
        return;
    }
    if !scratch.fronts[s + 1].admit(time, cost) {
        return;
    }
    scratch
        .min_rsc
        .insert_distinct(table.rsc_fastest(cost, s + 1));
    let idx = scratch.arena.len() as u32;
    scratch.arena.push(ArenaStep {
        config: e.config,
        parent: node.arena,
    });
    scratch.heap.push(Reverse(AstarNode {
        f,
        time_ms: time,
        cost_cents: cost,
        arena: idx,
        next_stage: node.next_stage + 1,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force;
    use esg_model::{standard_catalog, ConfigGrid, FnId, PriceModel};
    use esg_profile::ProfileTable;

    fn profiles(grid: ConfigGrid) -> ProfileTable {
        ProfileTable::build(&standard_catalog(), &grid, &PriceModel::default())
    }

    fn small_grid() -> ConfigGrid {
        ConfigGrid::new(vec![1, 2, 4], vec![1, 2, 4], vec![1, 2])
    }

    /// The plain linear child scan: every entry in ascending latency until
    /// the first time-blade violation. The reference `expand_blocked` must
    /// reproduce exactly.
    fn expand_linear(
        table: &StageTable,
        gslo_ms: f64,
        node: &AstarNode,
        scratch: &mut SearchScratch,
    ) -> u64 {
        let s = node.next_stage as usize;
        let mut expansions = 0;
        for e in table.entries(s) {
            expansions += 1;
            if table.t_low(node.time_ms + e.latency_ms, s + 1) > gslo_ms {
                break; // ascending latency
            }
            offer_child(table, node, e, scratch);
        }
        expansions
    }

    /// The A* search with the linear child scan.
    fn astar_linear(
        table: &StageTable,
        gslo_ms: f64,
        k: usize,
        premium: f64,
        scratch: &mut SearchScratch,
    ) -> SearchResult {
        let expansions = astar_drive(table, gslo_ms, k, premium, scratch, expand_linear);
        scratch.result(table, expansions)
    }

    fn assert_bit_identical(a: &SearchResult, b: &SearchResult) {
        assert_eq!(a.feasible, b.feasible);
        assert_eq!(a.expansions, b.expansions);
        assert_eq!(a.paths.len(), b.paths.len());
        for (x, y) in a.paths.iter().zip(&b.paths) {
            assert_eq!(x.configs, y.configs);
            assert_eq!(x.time_ms.to_bits(), y.time_ms.to_bits());
            assert_eq!(x.cost_cents.to_bits(), y.cost_cents.to_bits());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn block_skipping_scan_matches_linear_scan(
            fns in proptest::collection::vec(0u32..6, 1..5),
            default_grid in proptest::strategy::any::<bool>(),
            cap in 1u32..11,
            mult in 0.8f64..4.0,
            k_idx in 0usize..3,
            premium_idx in 0usize..3,
        ) {
            let grid = if default_grid { ConfigGrid::default() } else { small_grid() };
            let p = profiles(grid);
            let stages: Vec<FnId> = fns.into_iter().map(FnId).collect();
            let table = StageTable::build(&stages, &p, cap);
            let gslo = table.min_total_time() * mult;
            let k = [1, 5, 8][k_idx];
            let premium = [0.0, 0.5, f64::INFINITY][premium_idx];
            let mut scratch = SearchScratch::new();
            let linear = astar_linear(&table, gslo, k, premium, &mut scratch);
            let blocked = astar_search_with(&table, gslo, k, premium, &mut scratch);
            assert_bit_identical(&linear, &blocked);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn summary_matches_the_materialised_result(
            fns in proptest::collection::vec(0u32..6, 1..5),
            cap in 1u32..11,
            mult in 0.8f64..4.0,
            k_idx in 0usize..3,
        ) {
            let p = profiles(ConfigGrid::default());
            let stages: Vec<FnId> = fns.into_iter().map(FnId).collect();
            let table = StageTable::build(&stages, &p, cap);
            let gslo = table.min_total_time() * mult;
            let k = [1, 5, 8][k_idx];
            let mut scratch = SearchScratch::new();
            let result = astar_search_with(&table, gslo, k, 0.5, &mut scratch);
            let want = scratch.summarise(&table, &result);
            let want_candidates = scratch.candidates().to_vec();
            let got = astar_summary(&table, gslo, k, 0.5, &mut scratch);
            assert_eq!(got.expansions, want.expansions);
            assert_eq!(got.feasible, want.feasible);
            assert_eq!(got.best_time_ms.to_bits(), want.best_time_ms.to_bits());
            assert_eq!(got.min_total_ms.to_bits(), want.min_total_ms.to_bits());
            assert_eq!(scratch.candidates(), &want_candidates[..]);
        }
    }

    #[test]
    fn nan_budget_scans_like_the_linear_scan() {
        let p = profiles(small_grid());
        let table = StageTable::build(&[FnId(0), FnId(1)], &p, 4);
        let mut scratch = SearchScratch::new();
        let linear = astar_linear(&table, f64::NAN, 5, 0.5, &mut scratch);
        let blocked = astar_search_with(&table, f64::NAN, 5, 0.5, &mut scratch);
        assert_bit_identical(&linear, &blocked);
    }

    #[test]
    fn both_variants_match_brute_force_optimum() {
        let p = profiles(small_grid());
        let stages = [FnId(0), FnId(1), FnId(3)]; // image classification
        for cap in [1u32, 2, 8] {
            let table = StageTable::build(&stages, &p, cap);
            for gslo in [300.0, 450.0, 600.0, 900.0, 2000.0] {
                let oracle = brute_force(&table, gslo, 1);
                let sw = stagewise_search(&table, gslo, 1);
                let astar = astar_search(&table, gslo, 1);
                assert_eq!(oracle.feasible, sw.feasible, "gslo={gslo} cap={cap}");
                assert_eq!(oracle.feasible, astar.feasible, "gslo={gslo} cap={cap}");
                if oracle.feasible {
                    let oc = oracle.paths[0].cost_cents;
                    assert!(
                        (sw.paths[0].cost_cents - oc).abs() < 1e-9,
                        "stagewise {} vs oracle {} at gslo={gslo} cap={cap}",
                        sw.paths[0].cost_cents,
                        oc
                    );
                    assert!(
                        (astar.paths[0].cost_cents - oc).abs() < 1e-9,
                        "astar {} vs oracle {} at gslo={gslo} cap={cap}",
                        astar.paths[0].cost_cents,
                        oc
                    );
                }
            }
        }
    }

    #[test]
    fn k_best_costs_match_brute_force() {
        let p = profiles(small_grid());
        let stages = [FnId(2), FnId(0), FnId(5)]; // depth recognition
        let table = StageTable::build(&stages, &p, 8);
        let gslo = 1800.0;
        let k = 5;
        let oracle = brute_force(&table, gslo, k);
        let sw = stagewise_search(&table, gslo, k);
        let astar = astar_search(&table, gslo, k);
        assert!(oracle.feasible);
        // The stage-wise Algorithm-1 form returns the exact K-best ranks.
        for (i, o) in oracle.paths.iter().enumerate() {
            assert!(
                (sw.paths[i].cost_cents - o.cost_cents).abs() < 1e-9,
                "stagewise rank {i}"
            );
        }
        // A* adds Pareto-dominance pruning, so ranks 2..K are the best
        // *surviving* alternates: rank-1 stays exact, later ranks are
        // feasible, sorted, and never better than the oracle's same rank.
        assert!(
            (astar.paths[0].cost_cents - oracle.paths[0].cost_cents).abs() < 1e-9,
            "astar rank 0"
        );
        for (i, path) in astar.paths.iter().enumerate() {
            assert!(path.time_ms <= gslo + 1e-9);
            assert!(
                path.cost_cents + 1e-9 >= oracle.paths[i].cost_cents,
                "astar rank {i} beat the oracle"
            );
        }
        for w in astar.paths.windows(2) {
            assert!(w[0].cost_cents <= w[1].cost_cents + 1e-12);
        }
    }

    #[test]
    fn results_meet_target_latency() {
        let p = profiles(small_grid());
        let table = StageTable::build(&[FnId(0), FnId(1)], &p, 8);
        let gslo = 500.0;
        for search in [stagewise_search, astar_search] {
            let r = search(&table, gslo, 3);
            assert!(r.feasible);
            for path in &r.paths {
                assert!(path.time_ms <= gslo, "{} > {gslo}", path.time_ms);
                assert_eq!(path.configs.len(), 2);
            }
            // Cheapest first.
            for w in r.paths.windows(2) {
                assert!(w[0].cost_cents <= w[1].cost_cents + 1e-12);
            }
        }
    }

    #[test]
    fn infeasible_target_falls_back_to_fastest() {
        let p = profiles(small_grid());
        let table = StageTable::build(&[FnId(4), FnId(5)], &p, 8);
        let impossible = table.min_total_time() * 0.5;
        for search in [stagewise_search, astar_search] {
            let r = search(&table, impossible, 5);
            assert!(!r.feasible);
            assert_eq!(r.paths.len(), 1);
            let (fast_cfgs, fast_time, _) = table.fastest_path();
            assert_eq!(r.paths[0].configs, fast_cfgs);
            assert!((r.paths[0].time_ms - fast_time).abs() < 1e-9);
        }
    }

    #[test]
    fn pruning_reduces_expansions_vs_brute_force() {
        let p = profiles(ConfigGrid::default());
        let stages = [FnId(0), FnId(1), FnId(3)];
        let table = StageTable::build(&stages, &p, 8);
        let total = (table.entries(0).len() as u64)
            * (table.entries(1).len() as u64)
            * (table.entries(2).len() as u64);
        let gslo = table.min_total_time() * 1.3;
        let sw = stagewise_search(&table, gslo, 5);
        let astar = astar_search(&table, gslo, 5);
        assert!(sw.feasible && astar.feasible);
        assert!(
            sw.expansions * 10 < total,
            "stage-wise expanded {} of {total}",
            sw.expansions
        );
        assert!(
            astar.expansions * 10 < total,
            "A* expanded {} of {total}",
            astar.expansions
        );
    }

    #[test]
    fn tighter_slo_prunes_more() {
        // §5.3: "searching overhead increases with more relaxed SLO
        // settings … fewer configurations being pruned".
        let p = profiles(ConfigGrid::default());
        let table = StageTable::build(&[FnId(0), FnId(1), FnId(3)], &p, 8);
        let tight = stagewise_search(&table, table.min_total_time() * 1.05, 5);
        let loose = stagewise_search(&table, table.min_total_time() * 3.0, 5);
        assert!(
            tight.expansions < loose.expansions,
            "tight {} !< loose {}",
            tight.expansions,
            loose.expansions
        );
    }

    #[test]
    fn reused_scratch_is_bit_identical_to_fresh() {
        let p = profiles(small_grid());
        let mut scratch = SearchScratch::new();
        // Interleave tables of different widths and targets so stale arena
        // or front state from one search would corrupt the next.
        let windows: [&[FnId]; 3] = [
            &[FnId(0), FnId(1), FnId(3)],
            &[FnId(4)],
            &[FnId(2), FnId(0)],
        ];
        for stages in windows {
            let table = StageTable::build(stages, &p, 8);
            for mult in [0.9, 1.05, 1.5, 3.0] {
                let gslo = table.min_total_time() * mult;
                for k in [1, 5] {
                    for premium in [0.0, 0.5, f64::INFINITY] {
                        let fresh =
                            astar_search_with(&table, gslo, k, premium, &mut SearchScratch::new());
                        let reused = astar_search_with(&table, gslo, k, premium, &mut scratch);
                        assert_eq!(fresh.feasible, reused.feasible);
                        assert_eq!(fresh.expansions, reused.expansions);
                        assert_eq!(fresh.paths.len(), reused.paths.len());
                        for (a, b) in fresh.paths.iter().zip(&reused.paths) {
                            assert_eq!(a.configs, b.configs);
                            assert_eq!(a.time_ms.to_bits(), b.time_ms.to_bits());
                            assert_eq!(a.cost_cents.to_bits(), b.cost_cents.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn first_stage_candidates_dedup() {
        let table = StageTable::build(&[FnId(0), FnId(1)], &profiles(small_grid()), 4);
        let r = SearchResult {
            paths: vec![
                PathCandidate {
                    configs: vec![Config::new(1, 1, 1), Config::new(2, 1, 1)],
                    time_ms: 1.0,
                    cost_cents: 1.0,
                },
                PathCandidate {
                    configs: vec![Config::new(1, 1, 1), Config::new(4, 1, 1)],
                    time_ms: 2.0,
                    cost_cents: 2.0,
                },
                PathCandidate {
                    configs: vec![Config::new(2, 2, 1), Config::new(1, 1, 1)],
                    time_ms: 3.0,
                    cost_cents: 3.0,
                },
            ],
            expansions: 0,
            feasible: true,
        };
        let mut scratch = SearchScratch::new();
        let summary = scratch.summarise(&table, &r);
        assert_eq!(
            scratch.candidates(),
            [Config::new(1, 1, 1), Config::new(2, 2, 1)]
        );
        assert_eq!(summary.best_time_ms, 1.0);
        assert_eq!(summary.min_total_ms, table.min_total_time());
    }

    #[test]
    fn single_stage_group() {
        let p = profiles(small_grid());
        let table = StageTable::build(&[FnId(3)], &p, 4);
        let r = astar_search(&table, 1000.0, 5);
        assert!(r.feasible);
        assert!(r.paths.len() <= 5);
        assert_eq!(r.paths[0].configs.len(), 1);
        // Cheapest feasible single config == brute force.
        let oracle = brute_force(&table, 1000.0, 1);
        assert!((r.paths[0].cost_cents - oracle.paths[0].cost_cents).abs() < 1e-12);
    }

    #[test]
    fn batch_cap_respected_in_results() {
        let p = profiles(small_grid());
        let table = StageTable::build(&[FnId(0), FnId(1)], &p, 2);
        let r = stagewise_search(&table, 2000.0, 5);
        for path in &r.paths {
            assert!(path.configs[0].batch <= 2, "{:?}", path.configs[0]);
        }
    }
}
