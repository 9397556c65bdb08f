//! The invoker cluster: nodes, node classes, resources, container warmth,
//! and membership churn.
//!
//! Each node models an invoker machine of some [`NodeClass`] (the paper's
//! Table-2 testbed is 16 identical A100 nodes; Appendix A tolerates
//! heterogeneity): a pool of vCPUs and vGPUs (MIG partitions), a set of
//! *warm slots* per function implementing OpenWhisk's 10-minute keep-alive
//! (§2), and time-weighted utilisation accounting. Warm slots hold no
//! compute resources (a paused container keeps memory only); a task that
//! finds a warm slot skips the Table-3 cold start.
//!
//! Clusters are dynamic: a node can [`drain`](Node::drain) (stop accepting
//! new placements; admitted work completes; its capacity stays owned until
//! run end for utilisation accounting) and new nodes can
//! [`join`](Cluster::join) mid-run.

use esg_model::{ClusterSpec, FnId, NodeClass, NodeId, Resources, SimTime};

/// A warm (or warming) container slot for one function on one node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WarmSlot {
    /// When the slot becomes usable (end of its cold start).
    pub ready_at: SimTime,
    /// When keep-alive evicts the slot.
    pub expires_at: SimTime,
    /// Whether a running task currently uses the slot.
    pub in_use: bool,
}

/// One invoker node.
#[derive(Clone, Debug)]
pub struct Node {
    /// Node id.
    pub id: NodeId,
    /// The node's class: capacity plus speed/link/price scale factors.
    pub class: NodeClass,
    /// Total resources.
    pub total: Resources,
    /// Physically unattached resources (attachment spans execution only).
    pub free: Resources,
    /// Resources committed to assigned tasks (dispatch → completion).
    /// Placement admits against commitments, not physical attachment, so a
    /// task in its init phase still claims its slot on the node.
    pub committed: Resources,
    /// Whether the node accepts new placements. Draining flips this off;
    /// already-admitted tasks run to completion.
    pub online: bool,
    /// Warm slots per function, indexed by [`FnId::index`] (catalog ids
    /// are dense); grows on the first slot of a higher id.
    warm: Vec<Vec<WarmSlot>>,
    // Utilisation accounting: time-weighted busy- and capacity-resource
    // integrals. Capacity integrates from the node's join time, so a
    // late-joining node does not dilute utilisation for the span it did
    // not exist; a drained node keeps owning its capacity until run end.
    busy_vcpu_area_us: f64,
    busy_vgpu_area_us: f64,
    cap_vcpu_area_us: f64,
    cap_vgpu_area_us: f64,
    peak_used: Resources,
    last_change: SimTime,
}

impl Node {
    /// Creates an idle node of a synthesized baseline-speed class (the
    /// homogeneous Table-2 path).
    pub fn new(id: NodeId, total: Resources) -> Node {
        Node::with_class(id, NodeClass::custom(total), SimTime::ZERO)
    }

    /// Creates an idle node of `class`, existing from `since` (join time;
    /// utilisation accounting starts there).
    pub fn with_class(id: NodeId, class: NodeClass, since: SimTime) -> Node {
        let total = class.resources();
        Node {
            id,
            class,
            total,
            free: total,
            committed: Resources::ZERO,
            online: true,
            warm: Vec::new(),
            busy_vcpu_area_us: 0.0,
            busy_vgpu_area_us: 0.0,
            cap_vcpu_area_us: 0.0,
            cap_vgpu_area_us: 0.0,
            peak_used: Resources::ZERO,
            last_change: since,
        }
    }

    fn accumulate(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_change).0 as f64;
        let busy = self.total - self.free;
        self.busy_vcpu_area_us += busy.vcpus as f64 * dt;
        self.busy_vgpu_area_us += busy.vgpus as f64 * dt;
        self.cap_vcpu_area_us += self.total.vcpus as f64 * dt;
        self.cap_vgpu_area_us += self.total.vgpus as f64 * dt;
        self.last_change = now;
    }

    /// Takes the node out of placement rotation: no new work lands here,
    /// warm containers are killed, admitted tasks complete normally.
    pub fn drain(&mut self, now: SimTime) {
        self.accumulate(now);
        self.online = false;
        self.warm.clear();
    }

    /// Peak simultaneous resource attachment observed so far.
    #[inline]
    pub fn peak_used(&self) -> Resources {
        self.peak_used
    }

    /// Placement-available resources: total minus commitments.
    #[inline]
    pub fn uncommitted(&self) -> Resources {
        self.total - self.committed
    }

    /// Commits capacity for a newly assigned task; false when the node's
    /// uncommitted capacity cannot host `demand`.
    pub fn commit(&mut self, demand: Resources) -> bool {
        if !self.uncommitted().contains(demand) {
            return false;
        }
        self.committed += demand;
        true
    }

    /// Returns committed capacity when an assigned task completes.
    pub fn uncommit(&mut self, demand: Resources) {
        self.committed -= demand;
        debug_assert!(self.total.contains(self.committed));
    }

    /// Attempts to allocate `demand`; returns false without change when the
    /// node lacks capacity.
    pub fn allocate(&mut self, demand: Resources, now: SimTime) -> bool {
        if !self.free.contains(demand) {
            return false;
        }
        self.accumulate(now);
        self.free -= demand;
        let used = self.total - self.free;
        self.peak_used = Resources::new(
            self.peak_used.vcpus.max(used.vcpus),
            self.peak_used.vgpus.max(used.vgpus),
        );
        true
    }

    /// Releases previously allocated resources.
    pub fn release(&mut self, demand: Resources, now: SimTime) {
        self.accumulate(now);
        self.free += demand;
        assert!(
            self.total.contains(self.free),
            "release overflow on node {}: free {} total {}",
            self.id,
            self.free,
            self.total
        );
    }

    /// `f`'s slot list, created empty on first use.
    fn slots_mut(&mut self, f: FnId) -> &mut Vec<WarmSlot> {
        if f.index() >= self.warm.len() {
            self.warm.resize_with(f.index() + 1, Vec::new);
        }
        &mut self.warm[f.index()]
    }

    /// `f`'s slot list (empty when `f` never had a slot here).
    fn slots(&self, f: FnId) -> &[WarmSlot] {
        self.warm.get(f.index()).map_or(&[], Vec::as_slice)
    }

    /// True when a usable warm slot for `f` exists at `now` (ready, alive,
    /// not in use).
    pub fn has_warm(&self, f: FnId, now: SimTime) -> bool {
        self.slots(f)
            .iter()
            .any(|s| !s.in_use && s.ready_at <= now && s.expires_at > now)
    }

    /// Claims a warm slot for a task starting at `now`. Returns true on a
    /// warm start; false means the caller pays the cold start.
    pub fn claim_warm(&mut self, f: FnId, now: SimTime) -> bool {
        if let Some(slots) = self.warm.get_mut(f.index()) {
            // Evict dead slots opportunistically.
            slots.retain(|s| s.in_use || s.expires_at > now);
            if let Some(slot) = slots
                .iter_mut()
                .find(|s| !s.in_use && s.ready_at <= now && s.expires_at > now)
            {
                slot.in_use = true;
                return true;
            }
        }
        false
    }

    /// Returns a slot after its task completes: the container stays warm
    /// for `keep_alive` from `now`. `was_warm_claimed` distinguishes a
    /// reused slot from a cold-started container that now becomes warm.
    /// A no-op on a drained node: the drain killed the container.
    pub fn return_slot(
        &mut self,
        f: FnId,
        now: SimTime,
        keep_alive: SimTime,
        was_warm_claimed: bool,
    ) {
        if !self.online {
            return;
        }
        let slots = self.slots_mut(f);
        if was_warm_claimed {
            if let Some(slot) = slots.iter_mut().find(|s| s.in_use) {
                slot.in_use = false;
                slot.expires_at = now + keep_alive;
                return;
            }
        }
        slots.push(WarmSlot {
            ready_at: now,
            expires_at: now + keep_alive,
            in_use: false,
        });
    }

    /// Installs a pre-warmed slot that becomes ready at `ready_at`.
    pub fn prewarm(&mut self, f: FnId, ready_at: SimTime, keep_alive: SimTime) {
        self.slots_mut(f).push(WarmSlot {
            ready_at,
            expires_at: ready_at + keep_alive,
            in_use: false,
        });
    }

    /// Number of live slots (warm, warming, or in use) for `f` at `now` —
    /// the pre-warm proxy caps its pool with this.
    pub fn slot_count(&self, f: FnId, now: SimTime) -> usize {
        self.slots(f)
            .iter()
            .filter(|s| s.in_use || s.expires_at > now)
            .count()
    }

    /// `f`'s contribution to [`warm_functions_into`](Self::warm_functions_into),
    /// from `f`'s slots alone: whether `f` has a usable warm slot at `now`,
    /// and the next instant that can change without a platform mutation
    /// (`SimTime(u64::MAX)` when only a mutation can change it).
    pub fn warm_state(&self, f: FnId, now: SimTime) -> (bool, SimTime) {
        let mut usable = false;
        let mut next_change = SimTime(u64::MAX);
        for s in self.slots(f) {
            if s.in_use {
                continue; // leaves the pool only via return_slot
            }
            if s.ready_at > now {
                next_change = next_change.min(s.ready_at); // warms later
            } else if s.expires_at > now {
                usable = true;
                next_change = next_change.min(s.expires_at); // dies later
            }
        }
        (usable, next_change)
    }

    /// Functions with a usable warm slot at `now`.
    pub fn warm_functions(&self, now: SimTime) -> Vec<FnId> {
        let mut out = Vec::new();
        self.warm_functions_into(now, &mut out);
        out
    }

    /// Writes the functions with a usable warm slot at `now` into `out`
    /// (sorted, since the pool is walked in function order; reusing
    /// `out`'s capacity — steady-state callers allocate nothing) and
    /// returns the next instant the set can change *without* a platform
    /// mutation: the earliest pending expiry of a usable slot or ready
    /// time of a warming slot (`SimTime(u64::MAX)` when the set can only
    /// change through an explicit mutation).
    pub fn warm_functions_into(&self, now: SimTime, out: &mut Vec<FnId>) -> SimTime {
        out.clear();
        let mut next_change = SimTime(u64::MAX);
        for (i, slots) in self.warm.iter().enumerate() {
            let mut usable = false;
            for s in slots {
                if s.in_use {
                    continue; // leaves the pool only via return_slot
                }
                if s.ready_at > now {
                    next_change = next_change.min(s.ready_at); // warms later
                } else if s.expires_at > now {
                    usable = true;
                    next_change = next_change.min(s.expires_at); // dies later
                }
            }
            if usable {
                out.push(FnId(i as u32));
            }
        }
        next_change
    }

    /// Finalises utilisation accounting at the end of the run and returns
    /// `(vcpu_busy_area_us, vgpu_busy_area_us)`.
    pub fn finish(&mut self, now: SimTime) -> (f64, f64) {
        self.accumulate(now);
        (self.busy_vcpu_area_us, self.busy_vgpu_area_us)
    }

    /// Capacity-time integrals `(vcpu_area_us, vgpu_area_us)` accumulated
    /// so far (complete after [`finish`](Self::finish)): the utilisation
    /// denominator, which respects join times on churning clusters.
    pub fn capacity_areas(&self) -> (f64, f64) {
        (self.cap_vcpu_area_us, self.cap_vgpu_area_us)
    }
}

/// The whole invoker cluster.
#[derive(Clone, Debug)]
pub struct Cluster {
    nodes: Vec<Node>,
}

impl Cluster {
    /// Creates `n` identical nodes.
    pub fn new(n: usize, per_node: Resources) -> Cluster {
        Cluster {
            nodes: (0..n as u32)
                .map(|i| Node::new(NodeId(i), per_node))
                .collect(),
        }
    }

    /// Creates a heterogeneous cluster from explicit node capacities at
    /// baseline scale factors (Appendix A notes the algorithms tolerate
    /// heterogeneity). For classed nodes use [`Cluster::from_spec`].
    pub fn heterogeneous(capacities: &[Resources]) -> Cluster {
        Cluster {
            nodes: capacities
                .iter()
                .enumerate()
                .map(|(i, &r)| Node::new(NodeId(i as u32), r))
                .collect(),
        }
    }

    /// Materialises a declarative [`ClusterSpec`]: one node per spec
    /// entry, in [`NodeId`] order.
    pub fn from_spec(spec: &ClusterSpec) -> Cluster {
        Cluster {
            nodes: spec
                .nodes
                .iter()
                .enumerate()
                .map(|(i, c)| Node::with_class(NodeId(i as u32), c.clone(), SimTime::ZERO))
                .collect(),
        }
    }

    /// Adds a fresh (cold, idle) node of `class` at `now` and returns its
    /// id. Ids are append-only; drained nodes keep theirs.
    pub fn join(&mut self, class: NodeClass, now: SimTime) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::with_class(id, class, now));
        id
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable node access.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable node access.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Iterates over nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Iterates mutably over nodes.
    pub fn nodes_mut(&mut self) -> &mut [Node] {
        &mut self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(NodeId(0), Resources::new(16, 7))
    }

    #[test]
    fn allocate_and_release() {
        let mut n = node();
        assert!(n.allocate(Resources::new(4, 2), SimTime::from_ms(0.0)));
        assert_eq!(n.free, Resources::new(12, 5));
        assert!(!n.allocate(Resources::new(13, 0), SimTime::from_ms(1.0)));
        n.release(Resources::new(4, 2), SimTime::from_ms(2.0));
        assert_eq!(n.free, Resources::new(16, 7));
    }

    #[test]
    #[should_panic(expected = "release overflow")]
    fn over_release_panics() {
        let mut n = node();
        n.release(Resources::new(1, 0), SimTime::from_ms(0.0));
    }

    #[test]
    fn warm_lifecycle() {
        let mut n = node();
        let f = FnId(3);
        let keep = SimTime::from_secs(600.0);
        let t0 = SimTime::from_ms(0.0);
        assert!(!n.has_warm(f, t0));
        assert!(!n.claim_warm(f, t0));
        // Cold-started task completes at t1: slot becomes warm.
        let t1 = SimTime::from_ms(100.0);
        n.return_slot(f, t1, keep, false);
        assert!(n.has_warm(f, t1));
        // Claim it; it is busy, so a second task cannot claim it.
        assert!(n.claim_warm(f, t1));
        assert!(!n.claim_warm(f, t1));
        assert!(!n.has_warm(f, t1));
        // Return after use; expiry refreshed.
        let t2 = SimTime::from_ms(500.0);
        n.return_slot(f, t2, keep, true);
        assert!(n.has_warm(f, t2));
        // Far beyond keep-alive the slot is dead.
        let late = t2 + keep + SimTime::from_ms(1.0);
        assert!(!n.has_warm(f, late));
        assert!(!n.claim_warm(f, late));
    }

    #[test]
    fn prewarm_becomes_ready_later() {
        let mut n = node();
        let f = FnId(1);
        let keep = SimTime::from_secs(600.0);
        n.prewarm(f, SimTime::from_ms(50.0), keep);
        assert!(!n.has_warm(f, SimTime::from_ms(10.0)));
        assert_eq!(n.slot_count(f, SimTime::from_ms(10.0)), 1);
        assert!(n.has_warm(f, SimTime::from_ms(50.0)));
        assert!(n.claim_warm(f, SimTime::from_ms(60.0)));
    }

    #[test]
    fn warm_functions_listing() {
        let mut n = node();
        let keep = SimTime::from_secs(600.0);
        n.return_slot(FnId(2), SimTime::from_ms(1.0), keep, false);
        n.return_slot(FnId(0), SimTime::from_ms(1.0), keep, false);
        assert_eq!(
            n.warm_functions(SimTime::from_ms(2.0)),
            vec![FnId(0), FnId(2)]
        );
        assert!(n.warm_functions(SimTime::from_secs(700.0)).is_empty());
    }

    #[test]
    fn utilisation_accounting() {
        let mut n = node();
        // Busy 8 vCPUs / 2 vGPUs for 100 ms.
        assert!(n.allocate(Resources::new(8, 2), SimTime::from_ms(0.0)));
        n.release(Resources::new(8, 2), SimTime::from_ms(100.0));
        let (cpu_area, gpu_area) = n.finish(SimTime::from_ms(200.0));
        assert!((cpu_area - 8.0 * 100_000.0).abs() < 1.0);
        assert!((gpu_area - 2.0 * 100_000.0).abs() < 1.0);
    }

    #[test]
    fn cluster_construction() {
        let c = Cluster::new(16, Resources::new(16, 7));
        assert_eq!(c.len(), 16);
        assert_eq!(c.node(NodeId(5)).total, Resources::new(16, 7));
        let h = Cluster::heterogeneous(&[Resources::new(8, 2), Resources::new(32, 7)]);
        assert_eq!(h.len(), 2);
        assert_eq!(h.node(NodeId(1)).total, Resources::new(32, 7));
    }

    #[test]
    fn from_spec_and_join_and_drain() {
        use esg_model::{ClusterSpec, NodeClass};
        let mut c = Cluster::from_spec(&ClusterSpec::mixed_mig());
        assert_eq!(c.len(), 16);
        assert_eq!(c.node(NodeId(0)).class.name, "a100");
        assert_eq!(c.node(NodeId(15)).class.name, "t4");
        assert_eq!(c.node(NodeId(15)).total, Resources::new(8, 2));
        // Join a node mid-run.
        let id = c.join(NodeClass::v100(), SimTime::from_ms(500.0));
        assert_eq!(id, NodeId(16));
        assert_eq!(c.len(), 17);
        assert!(c.node(id).online);
        // Drain kills warmth and takes the node offline.
        let keep = SimTime::from_secs(600.0);
        c.node_mut(NodeId(0))
            .return_slot(FnId(1), SimTime::from_ms(10.0), keep, false);
        c.node_mut(NodeId(0)).drain(SimTime::from_ms(600.0));
        assert!(!c.node(NodeId(0)).online);
        assert!(!c.node(NodeId(0)).has_warm(FnId(1), SimTime::from_ms(700.0)));
    }

    #[test]
    fn peak_usage_tracks_high_water_mark() {
        let mut n = node();
        assert!(n.allocate(Resources::new(4, 2), SimTime::from_ms(0.0)));
        assert!(n.allocate(Resources::new(8, 1), SimTime::from_ms(1.0)));
        n.release(Resources::new(8, 1), SimTime::from_ms(2.0));
        assert!(n.allocate(Resources::new(2, 0), SimTime::from_ms(3.0)));
        assert_eq!(n.peak_used(), Resources::new(12, 3));
    }

    #[test]
    fn late_join_capacity_area_starts_at_join() {
        use esg_model::NodeClass;
        let mut n = Node::with_class(NodeId(9), NodeClass::a100(), SimTime::from_ms(100.0));
        let _ = n.finish(SimTime::from_ms(300.0));
        let (cpu_cap, gpu_cap) = n.capacity_areas();
        // 200 ms of existence × (16 vCPU, 7 vGPU).
        assert!((cpu_cap - 16.0 * 200_000.0).abs() < 1.0);
        assert!((gpu_cap - 7.0 * 200_000.0).abs() < 1.0);
    }

    /// Random slot operations: each function's own `warm_state` must agree
    /// with `has_warm` and with the full-node `warm_functions_into`, whose
    /// horizon is the minimum of the per-function horizons.
    #[test]
    fn warm_state_agrees_with_the_full_node_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let keep = SimTime::from_ms(40.0);
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut n = node();
            let mut now = SimTime::ZERO;
            // Claimed slots awaiting return: (function, warm-claimed).
            let mut running: Vec<(FnId, bool)> = Vec::new();
            let mut listed = Vec::new();
            for step in 0..300 {
                let f = FnId(rng.random_range(0..6u32));
                match rng.random_range(0..8u32) {
                    0 | 1 => {
                        let ready = now + SimTime::from_ms(rng.random_range(0.0..30.0));
                        n.prewarm(f, ready, keep);
                    }
                    2 | 3 => running.push((f, n.claim_warm(f, now))),
                    4 | 5 if !running.is_empty() => {
                        let (f, warm) = running.swap_remove(rng.random_range(0..running.len()));
                        n.return_slot(f, now, keep, warm);
                    }
                    _ => now += SimTime::from_ms(rng.random_range(0.0..25.0)),
                }
                let horizon = n.warm_functions_into(now, &mut listed);
                let mut min_h = SimTime(u64::MAX);
                for f in (0..8u32).map(FnId) {
                    let (usable, h) = n.warm_state(f, now);
                    assert_eq!(usable, n.has_warm(f, now), "seed {seed} step {step} {f:?}");
                    assert_eq!(usable, listed.contains(&f), "seed {seed} step {step} {f:?}");
                    min_h = min_h.min(h);
                }
                assert_eq!(min_h, horizon, "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn two_parallel_warm_slots() {
        let mut n = node();
        let f = FnId(0);
        let keep = SimTime::from_secs(600.0);
        let t = SimTime::from_ms(10.0);
        n.return_slot(f, t, keep, false);
        n.return_slot(f, t, keep, false);
        assert!(n.claim_warm(f, t));
        assert!(n.claim_warm(f, t));
        assert!(!n.claim_warm(f, t));
    }
}
