//! The plan cache: memoised ESG_1Q searches keyed on what the search
//! actually depends on.
//!
//! §5.3's headline is that pipeline-conscious scheduling stays cheap
//! enough to run per request; this module makes that cheaper still by
//! never re-running a search whose inputs were just solved. A search is a
//! pure function of `(stage table, effective GSLO, K, premium, variant)`,
//! and the stage table is itself a pure function of `(window functions,
//! batch cap)` over the immutable profile table — so a [`PlanKey`] built
//! from those coordinates plus the reduced-DAG fingerprint
//! (`esg_dag::Hierarchy::fingerprint`) identifies the result exactly.
//!
//! The effective GSLO is continuous (it is derived from live slack), so
//! exact keys would never repeat. [`quantize_gslo`] therefore buckets it:
//! the scheduler *searches with the bucket's representative* (the budget
//! rounded down by at most one part in 2^[`GSLO_MANTISSA_BITS`], i.e.
//! tightened, never loosened — the SLO-safe direction), which makes the
//! memo semantically invisible: cached and uncached dispatch are
//! bit-identical because both quantize (`tests/plan_cache_equivalence.rs`
//! pins this across a churn-heavy sweep).
//!
//! The cache is LRU-bounded, counts hits/misses/evictions (surfaced as
//! `esg_sim::SchedulerStats` through `ExperimentResult`), and is
//! invalidated wholesale on cluster-churn notifications. Because keys
//! capture every search input (the node-class speed factor included),
//! invalidation is a memory/robustness bound rather than a correctness
//! requirement: a regime change re-populates the cache with the keys the
//! new cluster actually produces instead of letting a dead regime's
//! entries squat in the LRU.

use crate::search::SearchResult;
use esg_model::FnId;
use std::rc::Rc;

/// Explicit mantissa bits kept by [`quantize_gslo`]: buckets are ~0.8%
/// wide (2^-7), tight enough that the tightened budget is within profile
/// noise, wide enough that per-request GSLOs repeat across requests.
pub const GSLO_MANTISSA_BITS: u32 = 7;

/// Rounds a search budget down onto the plan-cache bucket grid by
/// clearing all but the top [`GSLO_MANTISSA_BITS`] mantissa bits.
/// Monotone, deterministic, and never larger than the input (for
/// non-negative finite inputs), so a path feasible under the quantized
/// budget is feasible under the real one. Non-finite or non-positive
/// budgets collapse to 0 (the search then falls back to the fastest
/// path, exactly as it would unquantized).
pub fn quantize_gslo(gslo_ms: f64) -> f64 {
    if !gslo_ms.is_finite() || gslo_ms <= 0.0 {
        return 0.0;
    }
    const DROP: u64 = (1u64 << (52 - GSLO_MANTISSA_BITS as u64)) - 1;
    f64::from_bits(gslo_ms.to_bits() & !DROP)
}

/// Everything an ESG_1Q invocation depends on, collapsed to a hashable
/// key. Two dispatches with equal keys would run byte-identical searches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Reduced-DAG fingerprint of the application
    /// (`esg_dag::Hierarchy::fingerprint`, falling back to
    /// `esg_dag::Dag::fingerprint` for non-reducible DAGs).
    pub dag_fp: u64,
    /// FNV over the search window's function ids and the first-stage
    /// batch cap — identifies the stage table within the app.
    pub window_fp: u64,
    /// Bit pattern of the *quantized* effective GSLO (the value the
    /// search actually runs with).
    pub gslo_bits: u64,
    /// Bit pattern of the node-class speed factor the budget was scaled
    /// by (redundant with `gslo_bits` in the common path, but it keys the
    /// scheduler's post-search feasibility arithmetic too).
    pub speed_bits: u64,
    /// Solution count K of the search.
    pub k: u32,
    /// Bit pattern of the premium band (0.0 for probes, 0.5 for
    /// dispatch-quality searches).
    pub premium_bits: u64,
    /// Search-variant tag (0 = A*, 1 = stage-wise).
    pub variant: u8,
}

impl PlanKey {
    /// FNV-1a over a window's function ids plus the batch cap (the
    /// `window_fp` component) — the same `esg_dag::Fnv` the DAG
    /// fingerprints use.
    pub fn window_fingerprint(fns: &[FnId], batch_cap: u32) -> u64 {
        Self::window_fingerprint_from(Self::window_prefix(fns), batch_cap)
    }

    /// The cap-independent part of [`window_fingerprint`](Self::window_fingerprint):
    /// the hash state after the window's function ids. A caller that
    /// fingerprints the same window under many caps keeps this and
    /// finishes it with [`window_fingerprint_from`](Self::window_fingerprint_from).
    pub fn window_prefix(fns: &[FnId]) -> esg_dag::Fnv {
        let mut h = esg_dag::Fnv::new();
        h.write_u64(fns.len() as u64);
        for f in fns {
            h.write_u64(f.0 as u64);
        }
        h
    }

    /// Finishes a [`window_prefix`](Self::window_prefix) with the batch cap.
    pub fn window_fingerprint_from(mut prefix: esg_dag::Fnv, batch_cap: u32) -> u64 {
        prefix.write_u64(batch_cap as u64);
        prefix.finish()
    }
}

/// A memoised search result plus the table aggregate the scheduler needs
/// when the result is infeasible (the "winnable race" check), so a cache
/// hit skips the table build entirely.
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// The search result, exactly as the search produced it.
    pub result: SearchResult,
    /// `StageTable::min_total_time()` of the searched table.
    pub min_total_ms: f64,
}

/// Hit/miss accounting of one [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that fell through to a real search.
    pub misses: u64,
    /// Entries written.
    pub insertions: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Wholesale invalidations (churn notifications, and a scheduler
    /// meeting a different profile table).
    pub invalidations: u64,
}

/// Slot number terminating the recency list and marking an empty index
/// bucket.
const NIL: u32 = u32::MAX;

/// One slab entry: the memoised plan plus its links in the recency list.
struct Slot {
    key: PlanKey,
    plan: Rc<CachedPlan>,
    /// Next more-recently-used slot (`NIL` at the head).
    newer: u32,
    /// Next less-recently-used slot (`NIL` at the tail).
    older: u32,
}

/// Maps keys to slab slots: linear probing over a power-of-two table of
/// slot numbers, kept at most half full. A bucket is 4 bytes where a
/// `HashMap<PlanKey, u32>` entry is 56; the keys live in the slots.
#[derive(Default)]
struct SlotIndex {
    buckets: Vec<u32>,
}

impl SlotIndex {
    /// The home bucket hash of `key`: one multiply-rotate step per field.
    /// Key fields are already fingerprints and bit patterns, so SipHash's
    /// flooding resistance buys nothing; nothing iterates the index, so
    /// the hash cannot influence any decision.
    fn hash(key: &PlanKey) -> usize {
        let fields = [
            key.dag_fp,
            key.window_fp,
            key.gslo_bits,
            key.speed_bits,
            key.k as u64,
            key.premium_bits,
            key.variant as u64,
        ];
        let h = fields.iter().fold(0u64, |h, &v| {
            (h.rotate_left(5) ^ v).wrapping_mul(0xf135_7aea_2e62_a9c5)
        });
        // The multiply mixes into the high bits; buckets take the low ones.
        (h ^ (h >> 32)) as usize
    }

    /// `Ok(bucket)` holding `key`'s slot, or `Err(bucket)`: the empty
    /// bucket that ends its probe sequence. The table must be non-empty.
    fn find(&self, key: &PlanKey, slots: &[Slot]) -> Result<usize, usize> {
        let mask = self.buckets.len() - 1;
        let mut b = Self::hash(key) & mask;
        loop {
            match self.buckets[b] {
                NIL => return Err(b),
                i if slots[i as usize].key == *key => return Ok(b),
                _ => b = (b + 1) & mask,
            }
        }
    }

    /// The slot holding `key`.
    fn get(&self, key: &PlanKey, slots: &[Slot]) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        self.find(key, slots).ok().map(|b| self.buckets[b])
    }

    /// Indexes slot `i` under its key, which must not be indexed yet.
    /// Every slot in `slots` other than `i` must already be indexed.
    fn insert(&mut self, i: u32, slots: &[Slot]) {
        if 2 * slots.len() > self.buckets.len() {
            // Rebuild at twice the size from the slots themselves.
            self.buckets = vec![NIL; (2 * slots.len()).next_power_of_two()];
            for j in 0..slots.len() as u32 {
                if j != i {
                    self.place(j, slots);
                }
            }
        }
        self.place(i, slots);
    }

    fn place(&mut self, i: u32, slots: &[Slot]) {
        match self.find(&slots[i as usize].key, slots) {
            Err(b) => self.buckets[b] = i,
            Ok(_) => unreachable!("key indexed twice"),
        }
    }

    /// Removes `key`, which must be indexed, shifting later entries of
    /// its probe run back so no lookup crosses a hole.
    fn remove(&mut self, key: &PlanKey, slots: &[Slot]) {
        let mask = self.buckets.len() - 1;
        let mut hole = self.find(key, slots).expect("removed key is indexed");
        let mut b = (hole + 1) & mask;
        while self.buckets[b] != NIL {
            let home = Self::hash(&slots[self.buckets[b] as usize].key) & mask;
            // The entry may fill the hole when the hole lies on its probe
            // path from `home` to `b`.
            if b.wrapping_sub(home) & mask >= b.wrapping_sub(hole) & mask {
                self.buckets[hole] = self.buckets[b];
                hole = b;
            }
            b = (b + 1) & mask;
        }
        self.buckets[hole] = NIL;
    }

    fn clear(&mut self) {
        self.buckets.fill(NIL);
    }
}

/// A bounded LRU memo of [`CachedPlan`]s keyed by [`PlanKey`].
///
/// Entries live in a slab threaded by an intrusive recency list: a hit or
/// an insert moves its entry to the head, and eviction takes the tail, so
/// every operation is O(1). The victim is the entry whose last hit or
/// insert is the oldest — the same entry a scan for the minimum
/// last-used tick would pick — and it never depends on hash order,
/// which sweep determinism relies on.
pub struct PlanCache {
    index: SlotIndex,
    slots: Vec<Slot>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot: the next victim.
    tail: u32,
    capacity: usize,
    stats: CacheStats,
}

impl PlanCache {
    /// Default entry bound: comfortably covers the standard environment's
    /// (app, stage, bucket, class) population while capping memory at a
    /// few hundred K-path results.
    pub const DEFAULT_CAPACITY: usize = 512;

    /// An empty cache bounded to `capacity` entries (min 1).
    pub fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            index: SlotIndex::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    /// An empty cache at [`Self::DEFAULT_CAPACITY`].
    pub fn new() -> PlanCache {
        PlanCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Looks up `key`, refreshing its recency on a hit; the hit shares the
    /// memoised plan instead of copying it. Counts a miss on `None` (the
    /// caller is expected to search and [`insert`](Self::insert)).
    pub fn get(&mut self, key: &PlanKey) -> Option<Rc<CachedPlan>> {
        match self.index.get(key, &self.slots) {
            Some(i) => {
                self.stats.hits += 1;
                self.touch(i);
                Some(Rc::clone(&self.slots[i as usize].plan))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Memoises `plan` under `key`, evicting the least-recently-used
    /// entry when the bound is reached.
    pub fn insert(&mut self, key: PlanKey, plan: Rc<CachedPlan>) {
        self.stats.insertions += 1;
        if let Some(i) = self.index.get(&key, &self.slots) {
            self.slots[i as usize].plan = plan;
            self.touch(i);
            return;
        }
        let i = if self.slots.len() >= self.capacity {
            // Reuse the victim's slot for the new entry.
            let victim = self.tail;
            self.unlink(victim);
            let old = self.slots[victim as usize].key;
            self.index.remove(&old, &self.slots);
            let slot = &mut self.slots[victim as usize];
            slot.key = key;
            slot.plan = plan;
            self.stats.evictions += 1;
            victim
        } else {
            self.slots.push(Slot {
                key,
                plan,
                newer: NIL,
                older: NIL,
            });
            (self.slots.len() - 1) as u32
        };
        self.index.insert(i, &self.slots);
        self.push_head(i);
    }

    /// Moves slot `i` to the head of the recency list.
    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.push_head(i);
        }
    }

    /// Detaches slot `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let Slot { newer, older, .. } = self.slots[i as usize];
        match newer {
            NIL => self.head = older,
            n => self.slots[n as usize].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.slots[o as usize].newer = newer,
        }
    }

    /// Links the detached slot `i` in as the most recently used.
    fn push_head(&mut self, i: u32) {
        let slot = &mut self.slots[i as usize];
        slot.newer = NIL;
        slot.older = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h as usize].newer = i,
        }
        self.head = i;
    }

    /// Drops every entry (cluster-membership churn: the speed landscape
    /// that shaped recent keys is gone, so let the new regime repopulate).
    pub fn invalidate(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
        self.stats.invalidations += 1;
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the memo holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Accumulated counters (they survive invalidation).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("len", &self.slots.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::PathCandidate;
    use esg_model::Config;
    use std::collections::HashMap;

    fn key(i: u64) -> PlanKey {
        PlanKey {
            dag_fp: i,
            window_fp: i.wrapping_mul(31),
            gslo_bits: 0,
            speed_bits: 1f64.to_bits(),
            k: 5,
            premium_bits: 0.5f64.to_bits(),
            variant: 0,
        }
    }

    fn plan(cost: f64) -> Rc<CachedPlan> {
        Rc::new(CachedPlan {
            result: SearchResult {
                paths: vec![PathCandidate {
                    configs: vec![Config::MIN],
                    time_ms: 1.0,
                    cost_cents: cost,
                }],
                expansions: 10,
                feasible: true,
            },
            min_total_ms: 1.0,
        })
    }

    #[test]
    fn quantize_rounds_down_within_one_bucket() {
        for &v in &[0.37, 1.0, 12.345, 400.0, 1e6] {
            let q = quantize_gslo(v);
            assert!(q <= v, "{q} > {v}");
            assert!(
                q >= v * (1.0 - 2.0f64.powi(-(GSLO_MANTISSA_BITS as i32))),
                "{q} more than one bucket below {v}"
            );
            // Idempotent: a representative maps to itself.
            assert_eq!(quantize_gslo(q).to_bits(), q.to_bits());
        }
        assert_eq!(quantize_gslo(0.0), 0.0);
        assert_eq!(quantize_gslo(-5.0), 0.0);
        assert_eq!(quantize_gslo(f64::INFINITY), 0.0);
        assert_eq!(quantize_gslo(f64::NAN), 0.0);
    }

    #[test]
    fn quantize_buckets_nearby_values_together() {
        // Values within a fraction of a bucket share a representative…
        assert_eq!(
            quantize_gslo(400.0).to_bits(),
            quantize_gslo(400.0 * (1.0 + 2.0f64.powi(-10))).to_bits()
        );
        // …and clearly distinct budgets do not.
        assert_ne!(
            quantize_gslo(400.0).to_bits(),
            quantize_gslo(430.0).to_bits()
        );
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c = PlanCache::with_capacity(4);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), plan(1.0));
        let got = c.get(&key(1)).expect("hit");
        assert_eq!(got.result.paths[0].cost_cents, 1.0);
        assert!(c.get(&key(2)).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 2, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PlanCache::with_capacity(2);
        c.insert(key(1), plan(1.0));
        c.insert(key(2), plan(2.0));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(&key(1)).is_some());
        c.insert(key(3), plan(3.0));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(2)).is_none(), "LRU entry must be gone");
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let mut c = PlanCache::with_capacity(2);
        c.insert(key(1), plan(1.0));
        c.insert(key(2), plan(2.0));
        c.insert(key(2), plan(20.0)); // overwrite in place
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(
            c.get(&key(2)).expect("hit").result.paths[0].cost_cents,
            20.0
        );
    }

    #[test]
    fn invalidation_clears_entries_but_keeps_counters() {
        let mut c = PlanCache::with_capacity(8);
        c.insert(key(1), plan(1.0));
        c.insert(key(2), plan(2.0));
        assert!(c.get(&key(1)).is_some());
        c.invalidate();
        assert!(c.is_empty());
        assert!(c.get(&key(1)).is_none(), "churn must drop cached plans");
        let s = c.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.hits, 1, "counters survive invalidation");
        assert_eq!(s.insertions, 2);
    }

    #[test]
    fn window_fingerprint_is_order_and_cap_sensitive() {
        let a = PlanKey::window_fingerprint(&[FnId(0), FnId(1)], 8);
        let b = PlanKey::window_fingerprint(&[FnId(1), FnId(0)], 8);
        let c = PlanKey::window_fingerprint(&[FnId(0), FnId(1)], 4);
        assert_ne!(a, b, "stage order is part of the table identity");
        assert_ne!(a, c, "batch cap is part of the table identity");
        assert_eq!(a, PlanKey::window_fingerprint(&[FnId(0), FnId(1)], 8));
        let prefix = PlanKey::window_prefix(&[FnId(0), FnId(1)]);
        assert_eq!(a, PlanKey::window_fingerprint_from(prefix.clone(), 8));
        assert_eq!(c, PlanKey::window_fingerprint_from(prefix, 4));
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut c = PlanCache::with_capacity(0);
        assert_eq!(c.capacity(), 1);
        c.insert(key(1), plan(1.0));
        c.insert(key(2), plan(2.0));
        assert_eq!(c.len(), 1);
    }

    /// The pre-slab cache: a map of last-used ticks whose eviction victim
    /// is the minimum tick, found by a full scan.
    struct MinTickModel {
        map: HashMap<PlanKey, (f64, u64)>,
        capacity: usize,
        tick: u64,
        stats: CacheStats,
    }

    impl MinTickModel {
        fn new(capacity: usize) -> MinTickModel {
            MinTickModel {
                map: HashMap::new(),
                capacity: capacity.max(1),
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn get(&mut self, key: &PlanKey) -> Option<f64> {
            self.tick += 1;
            match self.map.get_mut(key) {
                Some(slot) => {
                    slot.1 = self.tick;
                    self.stats.hits += 1;
                    Some(slot.0)
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, key: PlanKey, cost: f64) {
            self.tick += 1;
            if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
                let victim = *self
                    .map
                    .iter()
                    .min_by_key(|(_, s)| s.1)
                    .map(|(k, _)| k)
                    .expect("full map");
                self.map.remove(&victim);
                self.stats.evictions += 1;
            }
            self.stats.insertions += 1;
            self.map.insert(key, (cost, self.tick));
        }

        fn invalidate(&mut self) {
            self.map.clear();
            self.stats.invalidations += 1;
        }
    }

    /// The keys held, checking that the index finds each at its slot.
    fn held_keys(c: &PlanCache) -> Vec<u64> {
        for (i, s) in c.slots.iter().enumerate() {
            assert_eq!(c.index.get(&s.key, &c.slots), Some(i as u32));
        }
        let mut keys: Vec<u64> = c.slots.iter().map(|s| s.key.dag_fp).collect();
        keys.sort_unstable();
        keys
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        #[test]
        fn lru_matches_the_min_tick_model(
            capacity in 1usize..9,
            ops in proptest::collection::vec((0u8..10, 0u64..12), 1..200),
        ) {
            let mut cache = PlanCache::with_capacity(capacity);
            let mut model = MinTickModel::new(capacity);
            for (step, (op, k)) in ops.into_iter().enumerate() {
                match op {
                    0..=4 => {
                        let got = cache.get(&key(k)).map(|p| p.result.paths[0].cost_cents);
                        assert_eq!(got, model.get(&key(k)), "get at step {step}");
                    }
                    5..=8 => {
                        let cost = step as f64;
                        cache.insert(key(k), plan(cost));
                        model.insert(key(k), cost);
                    }
                    _ => {
                        cache.invalidate();
                        model.invalidate();
                    }
                }
                let mut expected: Vec<u64> = model.map.keys().map(|k| k.dag_fp).collect();
                expected.sort_unstable();
                assert_eq!(held_keys(&cache), expected, "held keys at step {step}");
                assert_eq!(cache.stats(), model.stats, "counters at step {step}");
            }
        }
    }

    #[test]
    fn index_survives_growth_and_eviction_churn() {
        // Far more keys than capacity, in a scrambled order, so the index
        // grows, probe runs collide, and evictions punch holes mid-run.
        let capacity = 300;
        let mut cache = PlanCache::with_capacity(capacity);
        let mut model = MinTickModel::new(capacity);
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for step in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = key(x % 700);
            if (x >> 32) % 2 == 0 {
                cache.insert(k, plan(step as f64));
                model.insert(k, step as f64);
            } else {
                let got = cache.get(&k).map(|p| p.result.paths[0].cost_cents);
                assert_eq!(got, model.get(&k), "get at step {step}");
            }
        }
        let mut expected: Vec<u64> = model.map.keys().map(|k| k.dag_fp).collect();
        expected.sort_unstable();
        assert_eq!(held_keys(&cache), expected);
        assert_eq!(cache.stats(), model.stats);
        let stats = cache.stats();
        assert!(stats.hits > 500 && stats.evictions > 1_000, "{stats:?}");
    }
}
