//! The plan cache: memoised ESG_1Q searches keyed on exactly what a
//! search reads.
//!
//! §5.3's headline is that pipeline-conscious scheduling stays cheap
//! enough to run per request; this module makes that cheaper still by
//! never re-running a search whose inputs were just solved. A search reads
//! its stage table, its budget, its solution count K, its premium band and
//! its variant. One scheduler fixes the variant, and its probe flag fixes
//! K and the band (probes search K = 1 exactly; dispatch searches use the
//! scheduler's K with a 50 % band). The table is named by its
//! `StageTableMemo` slot (search window × effective batch cap), so a
//! [`PlanKey`] of slot, probe flag and budget identifies the result
//! exactly. Queue caps that admit the same grid batches (5, 6 and 7 on
//! the default grid) share a slot, and so an entry.
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
//! An entry holds what dispatch reads of a search — a [`SearchSummary`]
//! and the deduplicated first-stage candidates — with every entry's
//! candidates in one flat pool, so a miss allocates nothing once the
//! cache has grown. The cache is LRU-bounded and counts
//! hits/misses/evictions (surfaced as `esg_sim::SchedulerStats` through
//! `ExperimentResult`). Cluster churn leaves it intact: churn moves
//! dispatches between node classes, which changes the budget a search
//! runs with, never the result a key names. Only a scheduler meeting a
//! new environment invalidates it, since slots then name other tables.

use crate::search::SearchSummary;
use esg_model::Config;

/// Explicit mantissa bits kept by [`quantize_gslo`]: buckets are ~0.8%
/// wide (2^-7), tight enough that the tightened budget is within profile
/// noise, wide enough that per-request GSLOs repeat across requests.
pub const GSLO_MANTISSA_BITS: u32 = 7;

/// The low bits [`quantize_gslo`] clears.
const DROPPED: u64 = (1u64 << (52 - GSLO_MANTISSA_BITS as u64)) - 1;

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
    f64::from_bits(gslo_ms.to_bits() & !DROPPED)
}

/// Everything one scheduler's ESG_1Q invocation reads, in one word: the
/// quantized budget's bit pattern, whose low bits [`quantize_gslo`]
/// cleared, carries the stage-table slot and the probe flag there. Two
/// searches with equal keys are byte-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey(u64);

impl PlanKey {
    /// The key of a search over the table in `StageTableMemo` slot
    /// `table` with the quantized budget `gslo_q`. Panics when `gslo_q`
    /// is not a [`quantize_gslo`] output or the slot does not fit.
    pub fn new(table: usize, probe: bool, gslo_q: f64) -> PlanKey {
        let bits = gslo_q.to_bits();
        assert_eq!(bits & DROPPED, 0, "the budget must be quantized");
        let id = (table as u64) << 1 | probe as u64;
        assert!(id <= DROPPED, "stage-table slot {table} out of range");
        PlanKey(bits | id)
    }
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
    /// Wholesale invalidations (a scheduler meeting a new environment).
    pub invalidations: u64,
}

/// Slot number terminating the recency list and marking an empty index
/// bucket.
const NIL: u32 = u32::MAX;

/// One slab entry: the memoised summary plus its links in the recency
/// list. Its candidates live in the pool.
struct Slot {
    key: PlanKey,
    summary: SearchSummary,
    /// Candidates held in the pool.
    candidates: u32,
    /// Next more-recently-used slot (`NIL` at the head).
    newer: u32,
    /// Next less-recently-used slot (`NIL` at the tail).
    older: u32,
}

/// Maps keys to slab slots: linear probing over a power-of-two table of
/// slot numbers, kept at most half full. A bucket is 4 bytes; the keys
/// live in the slots.
#[derive(Default)]
struct SlotIndex {
    buckets: Vec<u32>,
}

impl SlotIndex {
    /// The home bucket hash of `key`: one multiply. The key is already a
    /// bit pattern, so SipHash's flooding resistance buys nothing; nothing
    /// iterates the index, so the hash cannot influence any decision.
    fn hash(key: &PlanKey) -> usize {
        let h = key.0.wrapping_mul(0xf135_7aea_2e62_a9c5);
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

/// A bounded LRU memo of [`SearchSummary`]s and their candidates, keyed
/// by [`PlanKey`].
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
    /// Slot `i`'s candidates start at `pool[i * stride]`.
    pool: Vec<Config>,
    /// Pool entries per slot: the longest candidate list inserted yet.
    stride: usize,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot: the next victim.
    tail: u32,
    capacity: usize,
    stats: CacheStats,
}

impl PlanCache {
    /// Default entry bound: the smallest power of two with no
    /// eviction-driven misses on any `perfbench` workload. A 20-minute
    /// window (seed 42) touches 2 189 distinct keys on `azure_replay`,
    /// 2 513 on `strict_churn` (whose churn no longer flushes the cache)
    /// and 3 594 on `fabric_contention`. At 512, `azure_replay` evicted
    /// about one entry per insertion. The slab grows lazily, so a run
    /// pays only for the keys it actually produces.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// An empty cache bounded to `capacity` entries (min 1).
    pub fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            index: SlotIndex::default(),
            slots: Vec::new(),
            pool: Vec::new(),
            stride: 0,
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

    /// Looks up `key`, refreshing its recency on a hit and copying its
    /// candidates into `candidates`. Counts a miss on `None` (the caller
    /// is expected to search and [`insert`](Self::insert)).
    pub fn get(&mut self, key: &PlanKey, candidates: &mut Vec<Config>) -> Option<SearchSummary> {
        let Some(i) = self.index.get(key, &self.slots) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.touch(i);
        let slot = &self.slots[i as usize];
        let at = i as usize * self.stride;
        candidates.clear();
        candidates.extend_from_slice(&self.pool[at..at + slot.candidates as usize]);
        Some(slot.summary)
    }

    /// Memoises `summary` and `candidates` under `key`, evicting the
    /// least-recently-used entry when the bound is reached.
    pub fn insert(&mut self, key: PlanKey, summary: SearchSummary, candidates: &[Config]) {
        self.stats.insertions += 1;
        if candidates.len() > self.stride {
            self.widen(candidates.len());
        }
        let i = match self.index.get(&key, &self.slots) {
            Some(i) => {
                self.touch(i);
                i
            }
            None => {
                let i = if self.slots.len() >= self.capacity {
                    // Reuse the victim's slot for the new entry.
                    let victim = self.tail;
                    self.unlink(victim);
                    let old = self.slots[victim as usize].key;
                    self.index.remove(&old, &self.slots);
                    self.slots[victim as usize].key = key;
                    self.stats.evictions += 1;
                    victim
                } else {
                    self.slots.push(Slot {
                        key,
                        summary,
                        candidates: 0,
                        newer: NIL,
                        older: NIL,
                    });
                    self.pool
                        .resize(self.slots.len() * self.stride, Config::MIN);
                    (self.slots.len() - 1) as u32
                };
                self.index.insert(i, &self.slots);
                self.push_head(i);
                i
            }
        };
        let slot = &mut self.slots[i as usize];
        slot.summary = summary;
        slot.candidates = candidates.len() as u32;
        let at = i as usize * self.stride;
        self.pool[at..at + candidates.len()].copy_from_slice(candidates);
    }

    /// Re-lays the pool out at `stride` entries per slot.
    fn widen(&mut self, stride: usize) {
        let mut pool = vec![Config::MIN; self.slots.len() * stride];
        for (i, slot) in self.slots.iter().enumerate() {
            let n = slot.candidates as usize;
            let from = i * self.stride;
            pool[i * stride..i * stride + n].copy_from_slice(&self.pool[from..from + n]);
        }
        self.pool = pool;
        self.stride = stride;
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

    /// Drops every entry (the scheduler met a new environment, whose
    /// stage-table slots name other tables).
    pub fn invalidate(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.pool.clear();
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
    use std::collections::HashMap;

    fn key(i: u64) -> PlanKey {
        PlanKey::new(i as usize, i % 3 == 0, quantize_gslo(100.0 + i as f64))
    }

    /// A summary whose best time carries `v`.
    fn plan(v: f64) -> SearchSummary {
        SearchSummary {
            expansions: 10,
            feasible: true,
            best_time_ms: v,
            min_total_ms: 1.0,
        }
    }

    /// The best time of `key`'s entry, if held.
    fn lookup(c: &mut PlanCache, key: &PlanKey) -> Option<f64> {
        c.get(key, &mut Vec::new()).map(|p| p.best_time_ms)
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
        assert_eq!(lookup(&mut c, &key(1)), None);
        c.insert(key(1), plan(1.0), &[]);
        assert_eq!(lookup(&mut c, &key(1)), Some(1.0));
        assert_eq!(lookup(&mut c, &key(2)), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 2, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PlanCache::with_capacity(2);
        c.insert(key(1), plan(1.0), &[]);
        c.insert(key(2), plan(2.0), &[]);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(lookup(&mut c, &key(1)).is_some());
        c.insert(key(3), plan(3.0), &[]);
        assert_eq!(c.len(), 2);
        assert!(lookup(&mut c, &key(2)).is_none(), "LRU entry must be gone");
        assert!(lookup(&mut c, &key(1)).is_some());
        assert!(lookup(&mut c, &key(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let mut c = PlanCache::with_capacity(2);
        c.insert(key(1), plan(1.0), &[]);
        c.insert(key(2), plan(2.0), &[]);
        c.insert(key(2), plan(20.0), &[]); // overwrite in place
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(lookup(&mut c, &key(2)), Some(20.0));
    }

    #[test]
    fn invalidation_clears_entries_but_keeps_counters() {
        let mut c = PlanCache::with_capacity(8);
        c.insert(key(1), plan(1.0), &[]);
        c.insert(key(2), plan(2.0), &[]);
        assert!(lookup(&mut c, &key(1)).is_some());
        c.invalidate();
        assert!(c.is_empty());
        assert!(
            lookup(&mut c, &key(1)).is_none(),
            "invalidation must drop cached plans"
        );
        let s = c.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.hits, 1, "counters survive invalidation");
        assert_eq!(s.insertions, 2);
    }

    #[test]
    fn candidates_round_trip_through_a_widening_pool() {
        let mut c = PlanCache::with_capacity(4);
        let short = [Config::new(2, 1, 1)];
        let long = [Config::new(4, 2, 1), Config::MIN, Config::new(8, 8, 7)];
        c.insert(key(1), plan(1.0), &short);
        c.insert(key(2), plan(2.0), &long);
        c.insert(key(3), plan(3.0), &[]);
        let mut out = vec![Config::MIN; 9];
        assert_eq!(c.get(&key(1), &mut out).map(|p| p.best_time_ms), Some(1.0));
        assert_eq!(out, short);
        c.get(&key(2), &mut out).expect("hit");
        assert_eq!(out, long);
        c.get(&key(3), &mut out).expect("hit");
        assert!(out.is_empty());
        // Overwriting in place replaces the list.
        c.insert(key(2), plan(2.0), &short);
        c.get(&key(2), &mut out).expect("hit");
        assert_eq!(out, short);
    }

    #[test]
    fn keys_separate_slot_probe_and_budget() {
        let q = quantize_gslo(250.0);
        let keys = [
            PlanKey::new(3, false, q),
            PlanKey::new(4, false, q),
            PlanKey::new(3, true, q),
            PlanKey::new(3, false, quantize_gslo(300.0)),
            PlanKey::new(3, false, 0.0),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(keys[0], PlanKey::new(3, false, quantize_gslo(250.1)));
    }

    #[test]
    #[should_panic(expected = "quantized")]
    fn an_unquantized_budget_is_rejected() {
        let _ = PlanKey::new(0, false, 250.123);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut c = PlanCache::with_capacity(0);
        assert_eq!(c.capacity(), 1);
        c.insert(key(1), plan(1.0), &[]);
        c.insert(key(2), plan(2.0), &[]);
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
        let mut keys: Vec<u64> = c.slots.iter().map(|s| s.key.0).collect();
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
                        let mut out = Vec::new();
                        let got = cache.get(&key(k), &mut out).map(|p| p.best_time_ms);
                        assert_eq!(got, model.get(&key(k)), "get at step {step}");
                        if got.is_some() {
                            assert_eq!(out, [Config::new(k as u32 + 1, 1, 1)], "step {step}");
                        }
                    }
                    5..=8 => {
                        let cost = step as f64;
                        cache.insert(key(k), plan(cost), &[Config::new(k as u32 + 1, 1, 1)]);
                        model.insert(key(k), cost);
                    }
                    _ => {
                        cache.invalidate();
                        model.invalidate();
                    }
                }
                let mut expected: Vec<u64> = model.map.keys().map(|k| k.0).collect();
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
                cache.insert(k, plan(step as f64), &[]);
                model.insert(k, step as f64);
            } else {
                let got = lookup(&mut cache, &k);
                assert_eq!(got, model.get(&k), "get at step {step}");
            }
        }
        let mut expected: Vec<u64> = model.map.keys().map(|k| k.0).collect();
        expected.sort_unstable();
        assert_eq!(held_keys(&cache), expected);
        assert_eq!(cache.stats(), model.stats);
        let stats = cache.stats();
        assert!(stats.hits > 500 && stats.evictions > 1_000, "{stats:?}");
    }
}
