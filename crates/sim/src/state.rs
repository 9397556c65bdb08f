//! The scheduler-facing cluster state, maintained incrementally by the
//! platform.
//!
//! Before this module existed the platform rebuilt an owned snapshot —
//! one `NodeView` per node, each cloning its warm-function set — for
//! *every* scheduling decision, which made cluster visibility the last
//! per-dispatch allocation on the serving hot path. [`ClusterState`]
//! replaces the snapshot-rebuild contract:
//!
//! * the platform owns one `ClusterState` for the whole run and updates
//!   it **in place**. Dirtiness is per function: a dispatch, completion
//!   or pre-warm changes one function's warm slots on one node and calls
//!   [`touch_fn`](ClusterState::touch_fn); a cold task winning its
//!   commitment changes free capacity only and calls
//!   [`touch_resources`](ClusterState::touch_resources); a drain or the
//!   start-up pre-warm calls [`touch`](ClusterState::touch), a full
//!   re-sync of the node; [`note_join`](ClusterState::note_join) appends
//!   a freshly joined node;
//! * [`refresh`](ClusterState::refresh) re-syncs exactly what is dirty.
//!   A partially dirty node gets its free capacity plus, per dirty
//!   function, one [`Node::warm_state`] scan of that function's slots
//!   and a binary-search insert or remove in the sorted warm set. A node
//!   whose warm set can have changed *passively* (a slot expiring, a
//!   pre-warmed container becoming ready) since its last sync gets a full
//!   re-sync. Each node keeps one passive horizon, a conservative lower
//!   bound: a per-function sync only lowers it to `min(old, h)`, and a
//!   bound that proves early costs one full re-sync, which recomputes it
//!   exactly. The `touch*` calls list each node the first time it turns
//!   dirty, so a refresh before the earliest passive horizon of any node
//!   visits only the listed nodes; once the clock reaches that horizon it
//!   scans every node, which recomputes the horizon exactly. Warm sets are
//!   sorted slices kept in retained buffers and the touched list keeps
//!   its capacity, so steady-state refreshes allocate nothing (asserted
//!   by the `snapshot-vs-incremental` ablation in `cargo bench --bench
//!   overhead`);
//! * schedulers *borrow* the state (`SchedCtx::cluster`,
//!   `RoundCtx::cluster`) instead of receiving a fresh copy, and use the
//!   same query helpers that lived on the old snapshot type —
//!   [`feasible`](ClusterState::feasible),
//!   [`most_free`](ClusterState::most_free),
//!   [`fastest_speed`](ClusterState::fastest_speed),
//!   [`speed_of`](ClusterState::speed_of),
//!   [`unit_speed`](ClusterState::unit_speed).
//!
//! Equivalence with the old contract is pinned two ways: the
//! `validate_cluster_state` oracle (the platform rebuilds a from-scratch
//! snapshot at every refresh point and asserts equality) and the golden
//! digests of `tests/control_plane_equivalence.rs`.

use crate::cluster::{Cluster, Node};
use esg_model::{FnId, NodeId, Resources, SimTime};

/// One node as schedulers see it.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeView {
    /// Node id.
    pub id: NodeId,
    /// Free resources (total minus commitments; zero while draining).
    pub free: Resources,
    /// Total resources.
    pub total: Resources,
    /// Functions with a usable warm container right now, **sorted** —
    /// [`has_warm`](Self::has_warm) binary-searches it.
    pub warm: Vec<FnId>,
    /// Execution-latency scale factor of the node's class (1.0 = the
    /// Table-2 baseline the profiles were measured on; larger is slower).
    pub speed: f64,
    /// Remote-transfer latency scale factor of the node's class.
    pub link_scale: f64,
    /// False while the node drains: no new placements land here.
    pub online: bool,
}

impl NodeView {
    /// A baseline-class view: full capacity free, no warmth, Table-2
    /// scale factors. Tests and custom states tweak from here.
    pub fn idle(id: NodeId, total: Resources) -> NodeView {
        NodeView {
            id,
            free: total,
            total,
            warm: Vec::new(),
            speed: 1.0,
            link_scale: 1.0,
            online: true,
        }
    }

    /// True when the node has a warm container for `f` (binary search
    /// over the sorted warm set).
    pub fn has_warm(&self, f: FnId) -> bool {
        debug_assert!(
            self.warm.is_sorted(),
            "warm set must stay sorted (hand mutations must preserve order)"
        );
        self.warm.binary_search(&f).is_ok()
    }

    /// True when the node accepts placements and can host `demand`.
    pub fn fits(&self, demand: Resources) -> bool {
        self.online && self.free.contains(demand)
    }
}

/// What the platform changed on one node's record since its last sync.
#[derive(Clone, Debug, Default)]
struct Dirty {
    /// Anything may have changed: re-sync the whole view.
    full: bool,
    /// Free capacity changed, and so did the warm slots of `fns`.
    partial: bool,
    /// Functions whose warm slots changed (distinct).
    fns: Vec<FnId>,
}

/// The incrementally maintained cluster state schedulers decide against.
#[derive(Clone, Debug, Default)]
pub struct ClusterState {
    nodes: Vec<NodeView>,
    dirty: Vec<Dirty>,
    /// Lower bound on the next instant each node's warm set changes
    /// without a mutation (pending slot expiry / pre-warm readiness);
    /// exact after a full sync.
    warm_next_change: Vec<SimTime>,
    /// The dirty nodes, each recorded once, by the `touch*` call that
    /// first dirtied it since its last sync. Invariant: a node is dirty
    /// iff it is listed. A refresh clears the list but keeps its
    /// capacity, so steady state allocates nothing.
    touched: Vec<u32>,
    /// Lower bound on `min(warm_next_change)`: the earliest instant any
    /// node's warm set can change passively. Before this instant only the
    /// touched nodes can need a sync, so a refresh visits just those (and
    /// with none touched returns at once). Exact after a full scan;
    /// touched-only refreshes only ever lower it.
    earliest_passive: SimTime,
    /// True only when every node view has speed 1.0 (the Table-2
    /// baseline); may read false on such a state after a hand mutation
    /// through [`node_mut`](Self::node_mut).
    unit_speed: bool,
}

impl ClusterState {
    /// A state over explicit node views (tests and custom scenarios).
    /// Warm sets are sorted on entry so `has_warm` may binary-search.
    pub fn from_views(mut nodes: Vec<NodeView>) -> ClusterState {
        for n in &mut nodes {
            n.warm.sort_unstable();
        }
        let len = nodes.len();
        let unit_speed = nodes.iter().all(|n| n.speed == 1.0);
        ClusterState {
            unit_speed,
            nodes,
            dirty: vec![Dirty::default(); len],
            warm_next_change: vec![SimTime(u64::MAX); len],
            touched: Vec::new(),
            earliest_passive: SimTime(u64::MAX),
        }
    }

    /// A from-scratch snapshot of `cluster` at `now` — the pre-redesign
    /// per-decision rebuild. The platform uses it once at start-up (and
    /// under the `validate_cluster_state` oracle); the overhead bench's
    /// `snapshot-vs-incremental` ablation measures it against
    /// [`refresh`](Self::refresh).
    pub fn from_cluster(cluster: &Cluster, now: SimTime) -> ClusterState {
        let mut state = ClusterState::from_views(
            cluster
                .nodes()
                .iter()
                .map(|n| NodeView::idle(n.id, n.total))
                .collect(),
        );
        for i in 0..state.nodes.len() {
            state.sync_node(i, &cluster.nodes()[i], now);
        }
        state
    }

    /// All nodes, indexed by `NodeId`.
    #[inline]
    pub fn nodes(&self) -> &[NodeView] {
        &self.nodes
    }

    /// One node's view.
    #[inline]
    pub fn node(&self, id: NodeId) -> &NodeView {
        &self.nodes[id.index()]
    }

    /// Mutable access for hand-built states (tests tweaking free
    /// resources, speeds, warmth). Clears [`unit_speed`](Self::unit_speed),
    /// since the caller may change the speed; hand mutations do not
    /// participate in incremental dirtiness tracking.
    pub fn node_mut(&mut self, id: NodeId) -> &mut NodeView {
        self.unit_speed = false;
        &mut self.nodes[id.index()]
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the state has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True when every node runs at speed 1.0, so any placement runs at
    /// the baseline class. False positives never occur; a false negative
    /// only after [`node_mut`](Self::node_mut).
    #[inline]
    pub fn unit_speed(&self) -> bool {
        self.unit_speed
    }

    /// Marks `node` as mutated on the cluster side in any way (drain,
    /// bulk pre-warm); the next [`refresh`](Self::refresh) re-syncs its
    /// whole view.
    pub fn touch(&mut self, node: NodeId) {
        self.mark(node).full = true;
    }

    /// Marks `node`'s free capacity and `f`'s warm slots on it as mutated
    /// (a dispatch, completion or pre-warm); the next refresh re-syncs
    /// only those.
    pub fn touch_fn(&mut self, node: NodeId, f: FnId) {
        let d = self.mark(node);
        if !d.fns.contains(&f) {
            d.fns.push(f);
        }
        d.partial = true;
    }

    /// Marks `node`'s free capacity as mutated (a commitment); the next
    /// refresh re-syncs only that.
    pub fn touch_resources(&mut self, node: NodeId) {
        self.mark(node).partial = true;
    }

    /// `node`'s dirtiness record, listing the node in `touched` if this
    /// is the first touch since its last sync.
    fn mark(&mut self, node: NodeId) -> &mut Dirty {
        let d = &mut self.dirty[node.index()];
        if !d.full && !d.partial {
            self.touched.push(node.0);
        }
        d
    }

    /// Appends the view of a freshly joined node.
    pub fn note_join(&mut self, node: &Node, now: SimTime) {
        debug_assert_eq!(
            node.id.index(),
            self.nodes.len(),
            "join ids are append-only"
        );
        self.nodes.push(NodeView::idle(node.id, node.total));
        self.dirty.push(Dirty::default());
        self.warm_next_change.push(SimTime(u64::MAX));
        let i = self.nodes.len() - 1;
        self.sync_node(i, node, now);
    }

    /// Re-syncs every node that is dirty or whose warm set can have
    /// changed passively since its last sync. Before the earliest passive
    /// horizon only the touched nodes are visited; in steady state
    /// (nothing dirty, no pending expiry) this touches nothing and
    /// allocates nothing.
    pub fn refresh(&mut self, cluster: &Cluster, now: SimTime) {
        debug_assert_eq!(self.nodes.len(), cluster.len(), "state tracks every node");
        if now < self.earliest_passive {
            // No lease can have expired yet, so the full scan would sync
            // exactly the touched nodes. Each sync lowers
            // `earliest_passive` to the node's new horizon when that is
            // earlier, so it stays a lower bound; a horizon a sync raises
            // is picked up by the next full scan.
            for k in 0..self.touched.len() {
                let i = self.touched[k] as usize;
                self.sync_due(i, &cluster.nodes()[i], now);
            }
            self.touched.clear();
            return;
        }
        let mut earliest = SimTime(u64::MAX);
        for i in 0..self.nodes.len() {
            self.sync_due(i, &cluster.nodes()[i], now);
            if self.warm_next_change[i] < earliest {
                earliest = self.warm_next_change[i];
            }
        }
        self.touched.clear();
        self.earliest_passive = earliest;
    }

    /// Re-syncs node `i` if it is dirty or its passive horizon is due.
    fn sync_due(&mut self, i: usize, n: &Node, now: SimTime) {
        if self.dirty[i].full || now >= self.warm_next_change[i] {
            self.sync_node(i, n, now);
        } else if self.dirty[i].partial {
            self.sync_fns(i, n, now);
        }
    }

    fn sync_node(&mut self, i: usize, n: &Node, now: SimTime) {
        let v = &mut self.nodes[i];
        v.free = advertised_free(n);
        v.total = n.total;
        v.speed = n.class.speed;
        if v.speed != 1.0 {
            self.unit_speed = false;
        }
        v.link_scale = n.class.link_scale;
        v.online = n.online;
        self.warm_next_change[i] = n.warm_functions_into(now, &mut v.warm);
        if self.warm_next_change[i] < self.earliest_passive {
            self.earliest_passive = self.warm_next_change[i];
        }
        let d = &mut self.dirty[i];
        d.full = false;
        d.partial = false;
        d.fns.clear();
    }

    /// Re-syncs a partially dirty node: free capacity, plus the warm
    /// membership of each dirty function. The caller has checked that
    /// the node's passive horizon is still ahead of `now`, so every other
    /// function's membership is unchanged since the last sync.
    fn sync_fns(&mut self, i: usize, n: &Node, now: SimTime) {
        let v = &mut self.nodes[i];
        let d = &mut self.dirty[i];
        v.free = advertised_free(n);
        for &f in &d.fns {
            let (usable, next_change) = n.warm_state(f, now);
            match (v.warm.binary_search(&f), usable) {
                (Err(pos), true) => v.warm.insert(pos, f),
                (Ok(pos), false) => {
                    v.warm.remove(pos);
                }
                _ => {}
            }
            // The other functions' horizons still hold, so the old bound
            // stays a lower bound once lowered to `f`'s.
            if next_change < self.warm_next_change[i] {
                self.warm_next_change[i] = next_change;
            }
        }
        if self.warm_next_change[i] < self.earliest_passive {
            self.earliest_passive = self.warm_next_change[i];
        }
        d.partial = false;
        d.fns.clear();
    }

    /// Nodes able to host `demand`.
    pub fn feasible(&self, demand: Resources) -> impl Iterator<Item = &NodeView> {
        self.nodes.iter().filter(move |n| n.fits(demand))
    }

    /// The feasible node with the most free resources (weighted), used for
    /// cold placement and the forced-minimum fallback. Deterministic
    /// tie-break on node id.
    pub fn most_free(&self, demand: Resources) -> Option<NodeId> {
        self.feasible(demand)
            .max_by(|a, b| {
                a.free
                    .weighted(1.0, 16.0 / 7.0)
                    .total_cmp(&b.free.weighted(1.0, 16.0 / 7.0))
                    .then(b.id.0.cmp(&a.id.0))
            })
            .map(|n| n.id)
    }

    /// The execution-latency scale factor of `node` (1.0 when out of
    /// range, which cannot happen for ids taken from this state).
    pub fn speed_of(&self, node: NodeId) -> f64 {
        self.nodes.get(node.index()).map_or(1.0, |n| n.speed)
    }

    /// The lowest speed factor of any node able to host `demand`;
    /// `None` when none can. Speed-aware schedulers use this to bound how
    /// fast the cluster can run `demand` right now.
    pub fn fastest_speed(&self, demand: Resources) -> Option<f64> {
        self.feasible(demand)
            .map(|n| n.speed)
            .min_by(f64::total_cmp)
    }
}

/// The free capacity a node advertises. Placement admits against
/// commitments: a task in its init phase still owns its slot. A draining
/// node advertises nothing.
fn advertised_free(n: &Node) -> Resources {
    if n.online {
        n.uncommitted()
    } else {
        Resources::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_state_queries() {
        let mut n0 = NodeView::idle(NodeId(0), Resources::new(16, 7));
        n0.free = Resources::new(2, 1);
        n0.warm = vec![FnId(1)];
        let mut n1 = NodeView::idle(NodeId(1), Resources::new(16, 7));
        n1.free = Resources::new(10, 3);
        let state = ClusterState::from_views(vec![n0, n1]);
        assert_eq!(state.feasible(Resources::new(4, 1)).count(), 1);
        assert_eq!(state.most_free(Resources::new(1, 1)), Some(NodeId(1)));
        assert_eq!(state.most_free(Resources::new(32, 1)), None);
        assert!(state.node(NodeId(0)).has_warm(FnId(1)));
        assert!(!state.node(NodeId(1)).has_warm(FnId(1)));
    }

    #[test]
    fn warm_sets_are_sorted_and_binary_searched() {
        let mut n = NodeView::idle(NodeId(0), Resources::new(16, 7));
        n.warm = vec![FnId(5), FnId(0), FnId(3)];
        let state = ClusterState::from_views(vec![n]);
        assert_eq!(state.node(NodeId(0)).warm, vec![FnId(0), FnId(3), FnId(5)]);
        for f in [0, 3, 5] {
            assert!(state.node(NodeId(0)).has_warm(FnId(f)));
        }
        for f in [1, 2, 4, 6] {
            assert!(!state.node(NodeId(0)).has_warm(FnId(f)));
        }
    }

    #[test]
    fn offline_nodes_are_never_feasible() {
        let mut n0 = NodeView::idle(NodeId(0), Resources::new(16, 7));
        n0.online = false;
        n0.free = Resources::ZERO; // the platform zeroes a draining node's view
        let n1 = NodeView::idle(NodeId(1), Resources::new(4, 2));
        let state = ClusterState::from_views(vec![n0, n1]);
        assert!(!state.node(NodeId(0)).fits(Resources::new(1, 0)));
        assert_eq!(state.feasible(Resources::new(1, 1)).count(), 1);
        assert_eq!(state.most_free(Resources::new(1, 1)), Some(NodeId(1)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `fastest_speed` reads exactly the speed of the node the
        /// deleted `fastest_fit` picked: the feasible node of lowest speed,
        /// ties broken by most free weighted resources, then id. Nodes are
        /// drawn offline, at equal speeds and too small for the demand.
        #[test]
        fn fastest_speed_is_the_speed_of_the_fastest_fit(
            nodes in proptest::collection::vec(
                (0u32..3, 0u32..17, 0u32..8, 0u32..5),
                0..7,
            ),
            demand in (0u32..17, 0u32..8),
        ) {
            const SPEEDS: [f64; 3] = [1.0, 1.35, 2.2];
            let views: Vec<NodeView> = nodes
                .iter()
                .enumerate()
                .map(|(i, &(speed, cpus, gpus, online))| (i, speed, cpus, gpus, online != 0))
                .map(|(i, speed, cpus, gpus, online)| NodeView {
                    speed: SPEEDS[speed as usize],
                    online,
                    free: if online { Resources::new(cpus, gpus) } else { Resources::ZERO },
                    ..NodeView::idle(NodeId(i as u32), Resources::new(16, 7))
                })
                .collect();
            let state = ClusterState::from_views(views);
            let demand = Resources::new(demand.0, demand.1);
            let fastest_fit = state
                .feasible(demand)
                .min_by(|a, b| {
                    a.speed
                        .total_cmp(&b.speed)
                        .then(
                            b.free
                                .weighted(1.0, 16.0 / 7.0)
                                .total_cmp(&a.free.weighted(1.0, 16.0 / 7.0)),
                        )
                        .then(a.id.0.cmp(&b.id.0))
                })
                .map(|n| n.id);
            let reference = fastest_fit.map(|n| state.speed_of(n));
            proptest::prop_assert_eq!(
                state.fastest_speed(demand).map(f64::to_bits),
                reference.map(f64::to_bits)
            );
            proptest::prop_assert_eq!(
                state.unit_speed(),
                state.nodes().iter().all(|n| n.speed == 1.0)
            );
        }
    }

    #[test]
    fn incremental_refresh_tracks_snapshot_rebuild() {
        use esg_model::NodeClass;
        let keep = SimTime::from_secs(600.0);
        let mut cluster = Cluster::new(3, Resources::new(16, 7));
        let t0 = SimTime::from_ms(0.0);
        let mut state = ClusterState::from_cluster(&cluster, t0);
        assert_eq!(
            state.nodes(),
            ClusterState::from_cluster(&cluster, t0).nodes()
        );
        assert!(state.unit_speed(), "baseline nodes only");

        // A dispatch-shaped mutation: commit + warm claim on node 1.
        cluster
            .node_mut(NodeId(1))
            .return_slot(FnId(2), t0, keep, false);
        assert!(cluster.node_mut(NodeId(1)).commit(Resources::new(4, 2)));
        state.touch(NodeId(1));
        let t1 = SimTime::from_ms(10.0);
        state.refresh(&cluster, t1);
        assert_eq!(
            state.nodes(),
            ClusterState::from_cluster(&cluster, t1).nodes()
        );
        assert_eq!(state.node(NodeId(1)).free, Resources::new(12, 5));
        assert!(state.node(NodeId(1)).has_warm(FnId(2)));

        // Passive change: the warm slot expires with no platform mutation.
        let late = t0 + keep + SimTime::from_ms(1.0);
        state.refresh(&cluster, late);
        assert!(!state.node(NodeId(1)).has_warm(FnId(2)));
        assert_eq!(
            state.nodes(),
            ClusterState::from_cluster(&cluster, late).nodes()
        );

        // Passive change the other way: a pre-warm becoming ready.
        cluster
            .node_mut(NodeId(0))
            .prewarm(FnId(4), late + SimTime::from_ms(50.0), keep);
        state.touch(NodeId(0));
        state.refresh(&cluster, late);
        assert!(!state.node(NodeId(0)).has_warm(FnId(4)));
        let ready = late + SimTime::from_ms(50.0);
        state.refresh(&cluster, ready);
        assert!(state.node(NodeId(0)).has_warm(FnId(4)));
        assert_eq!(
            state.nodes(),
            ClusterState::from_cluster(&cluster, ready).nodes()
        );

        // Churn: drain node 2, join a T4.
        cluster.node_mut(NodeId(2)).drain(ready);
        state.touch(NodeId(2));
        let joined = cluster.join(NodeClass::t4(), ready);
        state.note_join(cluster.node(joined), ready);
        state.refresh(&cluster, ready);
        assert_eq!(
            state.nodes(),
            ClusterState::from_cluster(&cluster, ready).nodes()
        );
        assert!(!state.node(NodeId(2)).online);
        assert_eq!(state.node(NodeId(2)).free, Resources::ZERO);
        assert_eq!(state.len(), 4);
        assert!(!state.unit_speed(), "the T4 runs at 2.2");

        // A hand mutation may change a speed, so it clears the flag.
        let mut hand = ClusterState::from_cluster(&Cluster::new(1, Resources::new(16, 7)), t0);
        assert!(hand.unit_speed());
        hand.node_mut(NodeId(0)).free = Resources::ZERO;
        assert!(!hand.unit_speed());
    }

    /// Random platform-shaped mutation sequences — pre-warm installs,
    /// warm claims, slot returns, commitments, drains and joins, with time
    /// stepping past readiness and expiry horizons, each followed by the
    /// touch the platform issues for it — must leave the incremental
    /// state equal to a fresh snapshot at every refresh.
    #[test]
    fn random_mutations_keep_incremental_state_equal_to_the_snapshot() {
        use esg_model::NodeClass;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let keep = SimTime::from_ms(40.0);
        let demand = Resources::new(2, 1);
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cluster = Cluster::new(3, Resources::new(16, 7));
            let mut now = SimTime::ZERO;
            let mut state = ClusterState::from_cluster(&cluster, now);
            // Running tasks: (node, function, warm-claimed, committed).
            let mut running: Vec<(NodeId, FnId, bool, bool)> = Vec::new();
            for step in 0..300 {
                let node = NodeId(rng.random_range(0..cluster.len() as u32));
                let f = FnId(rng.random_range(0..5u32));
                match rng.random_range(0..10u32) {
                    0 | 1 => {
                        let ready = now + SimTime::from_ms(rng.random_range(0.0..30.0));
                        cluster.node_mut(node).prewarm(f, ready, keep);
                        state.touch_fn(node, f);
                    }
                    2 | 3 => {
                        let n = cluster.node_mut(node);
                        let warm = n.claim_warm(f, now);
                        let committed = n.commit(demand);
                        state.touch_fn(node, f);
                        running.push((node, f, warm, committed));
                    }
                    4 | 5 if !running.is_empty() => {
                        let i = rng.random_range(0..running.len());
                        let (node, f, warm, committed) = running.swap_remove(i);
                        let n = cluster.node_mut(node);
                        if committed {
                            n.uncommit(demand);
                        }
                        n.return_slot(f, now, keep, warm);
                        state.touch_fn(node, f);
                    }
                    6 => {
                        let committed = cluster.node_mut(node).commit(demand);
                        state.touch_resources(node);
                        running.push((node, FnId(99), false, committed));
                    }
                    7 if rng.random_bool(0.2) => {
                        cluster.node_mut(node).drain(now);
                        state.touch(node);
                    }
                    8 if rng.random_bool(0.2) => {
                        let joined = cluster.join(NodeClass::t4(), now);
                        state.note_join(cluster.node(joined), now);
                    }
                    _ => now += SimTime::from_ms(rng.random_range(0.0..25.0)),
                }
                if rng.random_bool(0.5) {
                    state.refresh(&cluster, now);
                    assert_eq!(
                        state.nodes(),
                        ClusterState::from_cluster(&cluster, now).nodes(),
                        "seed {seed} step {step} t={} ms",
                        now.as_ms()
                    );
                }
            }
        }
    }

    #[test]
    fn steady_state_refresh_reuses_warm_buffers() {
        let keep = SimTime::from_secs(600.0);
        let mut cluster = Cluster::new(2, Resources::new(16, 7));
        let t0 = SimTime::ZERO;
        for f in 0..6u32 {
            cluster
                .node_mut(NodeId(0))
                .return_slot(FnId(f), t0, keep, false);
        }
        let mut state = ClusterState::from_cluster(&cluster, t0);
        let ptr_before = state.node(NodeId(0)).warm.as_ptr();
        let cap_before = state.node(NodeId(0)).warm.capacity();
        // Dispatch-shaped churn on the same node: touch + refresh many
        // times; the warm buffer must be rebuilt in place.
        for step in 1..200u64 {
            state.touch(NodeId(0));
            state.refresh(&cluster, SimTime::from_ms(step as f64));
        }
        assert_eq!(state.node(NodeId(0)).warm.as_ptr(), ptr_before);
        assert_eq!(state.node(NodeId(0)).warm.capacity(), cap_before);
        assert_eq!(state.node(NodeId(0)).warm.len(), 6);
    }

    #[test]
    fn steady_state_per_function_refresh_reuses_warm_buffers() {
        let keep = SimTime::from_secs(600.0);
        let mut cluster = Cluster::new(2, Resources::new(16, 7));
        let t0 = SimTime::ZERO;
        for f in 0..6u32 {
            cluster
                .node_mut(NodeId(0))
                .return_slot(FnId(f), t0, keep, false);
        }
        let mut state = ClusterState::from_cluster(&cluster, t0);
        let ptr_before = state.node(NodeId(0)).warm.as_ptr();
        let cap_before = state.node(NodeId(0)).warm.capacity();
        // Dispatch/completion-shaped churn: claim and return one
        // function's slot, so it leaves and re-enters the warm set.
        let mut touched_buf = None;
        for step in 1..200u64 {
            let now = SimTime::from_ms(step as f64);
            let f = FnId((step % 6) as u32);
            let n = cluster.node_mut(NodeId(0));
            assert!(n.claim_warm(f, now));
            state.touch_fn(NodeId(0), f);
            state.refresh(&cluster, now);
            assert_eq!(state.node(NodeId(0)).warm.len(), 5);
            cluster.node_mut(NodeId(0)).return_slot(f, now, keep, true);
            state.touch_fn(NodeId(0), f);
            state.refresh(&cluster, now);
            // The touched list is cleared, never freed.
            let buf = (state.touched.as_ptr(), state.touched.capacity());
            assert_eq!(*touched_buf.get_or_insert(buf), buf);
        }
        assert_eq!(state.node(NodeId(0)).warm.as_ptr(), ptr_before);
        assert_eq!(state.node(NodeId(0)).warm.capacity(), cap_before);
        assert_eq!(state.node(NodeId(0)).warm.len(), 6);
        assert_eq!(
            state.nodes(),
            ClusterState::from_cluster(&cluster, SimTime::from_ms(200.0)).nodes()
        );
    }

    #[test]
    fn completion_on_a_drained_node_leaves_no_warm_slot() {
        let keep = SimTime::from_secs(600.0);
        let demand = Resources::new(4, 2);
        let f = FnId(2);
        let mut cluster = Cluster::new(2, Resources::new(16, 7));
        let mut state = ClusterState::from_cluster(&cluster, SimTime::ZERO);
        // A task is admitted cold, then its node drains while it runs.
        let n = cluster.node_mut(NodeId(1));
        assert!(!n.claim_warm(f, SimTime::ZERO));
        assert!(n.commit(demand));
        state.touch_fn(NodeId(1), f);
        let t1 = SimTime::from_ms(10.0);
        cluster.node_mut(NodeId(1)).drain(t1);
        state.touch(NodeId(1));
        state.refresh(&cluster, t1);
        // The task completes on the drained node: its container is gone.
        let t2 = SimTime::from_ms(20.0);
        let n = cluster.node_mut(NodeId(1));
        n.uncommit(demand);
        n.return_slot(f, t2, keep, false);
        state.touch_fn(NodeId(1), f);
        state.refresh(&cluster, t2);
        assert_eq!(cluster.node(NodeId(1)).slot_count(f, t2), 0);
        assert!(state.node(NodeId(1)).warm.is_empty());
        assert_eq!(
            state.nodes(),
            ClusterState::from_cluster(&cluster, t2).nodes()
        );
    }

    #[test]
    fn steady_state_refresh_early_outs_without_scanning() {
        let keep = SimTime::from_secs(600.0);
        let mut cluster = Cluster::new(4, Resources::new(16, 7));
        cluster
            .node_mut(NodeId(1))
            .return_slot(FnId(3), SimTime::ZERO, keep, false);
        let mut state = ClusterState::from_cluster(&cluster, SimTime::ZERO);
        // Nothing dirty, well before the lease expiry: provable no-op.
        assert!(state.touched.is_empty());
        assert!(SimTime::from_ms(1.0) < state.earliest_passive);
        state.refresh(&cluster, SimTime::from_ms(1.0));
        // The early-out must never skip a due passive expiry: at the
        // expiry horizon the scan runs and drops the warm slot.
        assert!(state.node(NodeId(1)).has_warm(FnId(3)));
        let late = SimTime::ZERO + keep + SimTime::from_ms(1.0);
        assert!(late >= state.earliest_passive);
        state.refresh(&cluster, late);
        assert!(!state.node(NodeId(1)).has_warm(FnId(3)));
        assert_eq!(
            state.nodes(),
            ClusterState::from_cluster(&cluster, late).nodes()
        );
        // ...and a touch always defeats the early-out.
        assert!(cluster.node_mut(NodeId(2)).commit(Resources::new(4, 2)));
        state.touch(NodeId(2));
        state.refresh(&cluster, late);
        assert_eq!(state.node(NodeId(2)).free, Resources::new(12, 5));
    }

    /// A full sync that raises one node's passive horizon leaves
    /// `earliest_passive` at the old, now stale, lower bound; refreshes of
    /// touched nodes only lower it. A refresh landing exactly on an
    /// untouched node's lease expiry must still scan and sync that node.
    #[test]
    fn touched_only_refresh_keeps_a_lower_bound_across_a_raised_horizon() {
        let keep = SimTime::from_ms(100.0);
        let long = SimTime::from_secs(60.0);
        let ms = SimTime::from_ms;
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        let mut cluster = Cluster::new(3, Resources::new(16, 7));
        cluster
            .node_mut(a)
            .return_slot(FnId(1), ms(0.0), keep, false);
        cluster
            .node_mut(b)
            .return_slot(FnId(2), ms(20.0), keep, false);
        let mut state = ClusterState::from_cluster(&cluster, ms(20.0));
        assert_eq!(state.earliest_passive, ms(100.0));
        let check = |state: &ClusterState, cluster: &Cluster, now: SimTime| {
            assert_eq!(
                state.nodes(),
                ClusterState::from_cluster(cluster, now).nodes(),
                "t={} ms",
                now.as_ms()
            );
        };

        // `a`'s lease is renewed to 150 ms and `a` re-synced in full: its
        // horizon rises, the global bound stays at 100 ms.
        let n = cluster.node_mut(a);
        assert!(n.claim_warm(FnId(1), ms(50.0)));
        n.return_slot(FnId(1), ms(50.0), keep, true);
        state.touch(a);
        state.refresh(&cluster, ms(50.0));
        check(&state, &cluster, ms(50.0));
        assert_eq!(state.warm_next_change[a.index()], ms(150.0));
        assert_eq!(state.earliest_passive, ms(100.0));

        // Touched-only refreshes on `c`; none may raise the bound.
        for t in [60.0, 80.0, 99.0] {
            let n = cluster.node_mut(c);
            assert!(n.commit(Resources::new(1, 0)));
            n.return_slot(FnId(3), ms(t), long, false);
            state.touch_fn(c, FnId(3));
            state.refresh(&cluster, ms(t));
            check(&state, &cluster, ms(t));
            assert_eq!(state.earliest_passive, ms(100.0));
        }

        // At the stale bound the full scan runs and recomputes it exactly:
        // `b`'s lease expiry.
        state.refresh(&cluster, ms(100.0));
        check(&state, &cluster, ms(100.0));
        assert_eq!(state.earliest_passive, ms(120.0));
        assert!(state.node(b).has_warm(FnId(2)));

        // Exactly at `b`'s expiry, with `b` never touched: it must sync.
        state.refresh(&cluster, ms(120.0));
        check(&state, &cluster, ms(120.0));
        assert!(!state.node(b).has_warm(FnId(2)));
        assert!(state.node(a).has_warm(FnId(1)));
        assert!(state.touched.is_empty());
    }
}
