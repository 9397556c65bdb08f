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

impl SearchResult {
    /// First-stage configurations of the K paths, deduplicated, in path
    /// order — the dispatch candidates (ESG re-plans later stages anyway).
    pub fn first_stage_candidates(&self) -> Vec<Config> {
        let mut out: Vec<Config> = Vec::with_capacity(self.paths.len());
        for p in &self.paths {
            let c = p.configs[0];
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }
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

/// Reusable allocations for [`astar_search_with`]: the parent-pointer
/// arena of expanded prefixes, the open list, the per-stage Pareto
/// fronts and the goal list. A long-lived searcher (the scheduler) keeps
/// one scratch and passes it to every search; `reset` clears lengths but
/// keeps capacity, so steady-state dispatch runs the A* inner loop
/// without heap allocation. The result's paths are the only per-call
/// allocation, sized exactly: a memoised result holds no spare capacity.
#[derive(Default)]
pub struct SearchScratch {
    arena: Vec<ArenaStep>,
    heap: BinaryHeap<Reverse<AstarNode>>,
    fronts: Vec<ParetoFront>,
    goals: Vec<PathCandidate>,
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
        for f in &mut self.fronts {
            f.reset(k);
        }
        while self.fronts.len() <= n {
            self.fronts.push(ParetoFront::new(k));
        }
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
    astar_search_bounded(table, gslo_ms, k, f64::INFINITY)
}

/// [`astar_search`] with a *premium bound*: once the optimal path is
/// known, alternates costing more than `(1 + premium)` times the optimum
/// are abandoned. Rank-1 optimality is unaffected; ranks 2..K become
/// "K best within the premium band". The scheduler uses this because a
/// dispatch alternate far above the optimum would never be worth its
/// search time, and cost plateaus otherwise make exact K-best exploration
/// degenerate on loose targets.
pub fn astar_search_bounded(
    table: &StageTable,
    gslo_ms: f64,
    k: usize,
    premium: f64,
) -> SearchResult {
    astar_search_with(table, gslo_ms, k, premium, &mut SearchScratch::new())
}

/// [`astar_search_bounded`] over caller-owned [`SearchScratch`] storage.
/// Results are bit-identical to the one-shot form — the scratch only
/// changes where intermediate state lives, not the expansion order (heap
/// ordering keys are unchanged).
pub fn astar_search_with(
    table: &StageTable,
    gslo_ms: f64,
    k: usize,
    premium: f64,
    scratch: &mut SearchScratch,
) -> SearchResult {
    astar_drive(table, gslo_ms, k, premium, scratch, expand_blocked)
}

/// The A* driver, generic over the child scan so tests can run it with
/// the plain linear scan as a reference.
fn astar_drive(
    table: &StageTable,
    gslo_ms: f64,
    k: usize,
    premium: f64,
    scratch: &mut SearchScratch,
    expand: impl Fn(&StageTable, f64, &AstarNode, &mut MinRsc, &mut SearchScratch) -> u64,
) -> SearchResult {
    assert!(k >= 1, "K must be at least 1");
    let n = table.num_stages();
    let mut expansions: u64 = 0;
    scratch.reset(n, k);
    let mut min_rsc = MinRsc::new(k);
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
            let configs = scratch.path(node.arena, n);
            scratch.goals.push(PathCandidate {
                configs,
                time_ms: node.time_ms,
                cost_cents: node.cost_cents,
            });
            if scratch.goals.len() >= k {
                break;
            }
            continue;
        }
        expansions += expand(table, gslo_ms, &node, &mut min_rsc, scratch);
    }

    if scratch.goals.is_empty() {
        return fallback(table, expansions);
    }
    SearchResult {
        paths: scratch.goals.drain(..).collect(),
        expansions,
        feasible: true,
    }
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
    min_rsc: &mut MinRsc,
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
        if table.rsc_low(node.cost_cents + block_min, s + 1) > min_rsc.kth() {
            continue;
        }
        for e in &entries[lo..cut.min(lo + BLOCK)] {
            offer_child(table, node, e, min_rsc, scratch);
        }
    }
    (cut + 1).min(entries.len()) as u64
}

/// The cost blade, the Pareto blade and the push for one child of `node`
/// that passed the time blade.
#[inline]
fn offer_child(
    table: &StageTable,
    node: &AstarNode,
    e: &SearchEntry,
    min_rsc: &mut MinRsc,
    scratch: &mut SearchScratch,
) {
    let s = node.next_stage as usize;
    let time = node.time_ms + e.latency_ms;
    let cost = node.cost_cents + e.per_job_cost_cents;
    let f = table.rsc_low(cost, s + 1);
    // Strict comparison: a child whose lower bound ties the K-th
    // distinct upper bound may still *be* that K-th path.
    if f > min_rsc.kth() {
        return;
    }
    if !scratch.fronts[s + 1].admit(time, cost) {
        return;
    }
    min_rsc.insert_distinct(table.rsc_fastest(cost, s + 1));
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
        min_rsc: &mut MinRsc,
        scratch: &mut SearchScratch,
    ) -> u64 {
        let s = node.next_stage as usize;
        let mut expansions = 0;
        for e in table.entries(s) {
            expansions += 1;
            if table.t_low(node.time_ms + e.latency_ms, s + 1) > gslo_ms {
                break; // ascending latency
            }
            offer_child(table, node, e, min_rsc, scratch);
        }
        expansions
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
            let linear = astar_drive(&table, gslo, k, premium, &mut scratch, expand_linear);
            let blocked = astar_search_with(&table, gslo, k, premium, &mut scratch);
            assert_bit_identical(&linear, &blocked);
        }
    }

    #[test]
    fn nan_budget_scans_like_the_linear_scan() {
        let p = profiles(small_grid());
        let table = StageTable::build(&[FnId(0), FnId(1)], &p, 4);
        let mut scratch = SearchScratch::new();
        let linear = astar_drive(&table, f64::NAN, 5, 0.5, &mut scratch, expand_linear);
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
                        let fresh = astar_search_bounded(&table, gslo, k, premium);
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
        assert_eq!(
            r.first_stage_candidates(),
            vec![Config::new(1, 1, 1), Config::new(2, 2, 1)]
        );
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
