//! The contended GPU data plane: per-node bandwidth pools, host-memory
//! staging, and fair-share transfer progress.
//!
//! The scalar transfer model (`esg_profile::TransferModel`) prices a
//! batch's input movement as a fixed latency — contention-free, so
//! co-locating transfer-heavy stages and spreading them apart cost the
//! same under load. FaaSTube and HAS-GPU (PAPERS.md) show the opposite:
//! GPU-serverless transfer time is dominated by *contended* PCIe/NVLink
//! bandwidth and host-memory staging of intermediate tensors. This
//! module models exactly that, as an opt-in refinement
//! ([`SimConfig::data_plane`](crate::SimConfig)) over the same event
//! loop:
//!
//! * **Pools** — every node owns three [`BandwidthPool`]s fed by the
//!   `NodeClass` bandwidth fields: PCIe ingress (tensors arriving from
//!   remote producers or the gateway), PCIe egress (tensors leaving for
//!   remote consumers), and an intra-server NVLink class (same-node
//!   hand-offs). Capacity is in MB/ms (≡ GB/s).
//! * **Flows** — one dispatched batch is one aggregated flow (the
//!   platform already batches same-edge small tensors into a single
//!   rate/base aggregate). A flow's bandwidth demand is
//!   `total_mb / work_ms` and applies to *every* pool it touches; pools
//!   are shared fair-share style, so a flow's progress rate is
//!   `ρ = min(1, min_pool(capacity/members) / demand)`.
//! * **Re-planning** — a flow's finish is an [`Event`](crate::Event) in
//!   the simulation's [`EventQueue`](crate::EventQueue). When membership
//!   changes on any pool a flow shares (found through each pool's
//!   member index), its ρ is recomputed; only a *bitwise* ρ change
//!   drains elapsed progress and re-plans the finish: the platform
//!   pushes the new finish and the queue moves the flow's one pending
//!   event in place, so no superseded finish is ever queued. At
//!   effectively infinite bandwidth ρ is 1.0 for
//!   every flow forever, so no re-plan ever fires and the planned finish
//!   is the *same f64 expression* as the scalar model — dispatch traces
//!   stay bit-identical (`tests/dataplane_equivalence.rs`).
//! * **Staging** — remote ingress bytes must reserve room in the
//!   destination node's bounded host-memory staging buffer before the
//!   flow activates. When the buffer is full the flow queues FIFO — it
//!   is delayed, never dropped — and activates as completions free
//!   space.
//!
//! Live occupancy is exported as a [`DataPlaneView`] through
//! `RoundCtx::dataplane` so round policies (`BandwidthAwarePacking` in
//! `esg-core`) can fold estimated contention into their ranking, and as
//! a [`TransferSummary`] into `ExperimentResult` at the end of a run.

use crate::cluster::Cluster;
use esg_model::{NodeClass, NodeId, ServerTopology, SimTime};
use std::collections::VecDeque;

/// Turns the contended data plane on (`SimConfig::data_plane`; `None`
/// keeps the classic scalar model). The plane has no knobs: its pool
/// capacities and staging buffers are the `NodeClass` and
/// `ServerTopology` values as given. Braced rather than a unit struct,
/// so `DataPlaneConfig::default()`, the form existing callers write,
/// stays lint-clean.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DataPlaneConfig {}

/// Same-edge tensors at or below this size, MB, count as batched into
/// their edge's aggregated flow (the platform's per-dispatch transfer
/// batching; reported as `TransferSummary::batched_small`).
pub(crate) const BATCH_MAX_MB: f64 = 8.0;

/// Pool classes per node, in index order.
const PCIE_IN: u8 = 0;
const PCIE_OUT: u8 = 1;
const NVLINK: u8 = 2;
/// The per-*server* top-of-rack uplink pool class. Membership tuples of
/// this kind index the server table, not the node table; only clusters
/// declaring a [`ServerTopology`] have ToR pools, and only flows with a
/// cross-server producer join them — intra-server and flat-cluster
/// flows see exactly the pre-topology pool set (and thus the same ρ).
const TOR: u8 = 3;

/// One contended link: a capacity in MB/ms and the number of flows
/// currently sharing it (each member gets `capacity / members`).
#[derive(Clone, Copy, Debug)]
pub struct BandwidthPool {
    /// Capacity, MB/ms (the class's or the topology's GB/s as given).
    pub capacity: f64,
    /// Flows currently sharing the pool.
    pub members: u32,
}

impl BandwidthPool {
    /// The fair share one member gets, MB/ms.
    #[inline]
    pub fn share(&self) -> f64 {
        if self.members == 0 {
            self.capacity
        } else {
            self.capacity / self.members as f64
        }
    }
}

/// One pool plus its member index: the task ids of the active flows
/// sharing it, in no particular order (between calls,
/// `flows.len() == pool.members`).
#[derive(Clone, Debug)]
struct Link {
    pool: BandwidthPool,
    flows: Vec<u64>,
}

impl Link {
    fn new(capacity: f64) -> Link {
        Link {
            pool: BandwidthPool {
                capacity,
                members: 0,
            },
            flows: Vec::new(),
        }
    }
}

/// Host-memory staging for one node: a bounded buffer plus the FIFO of
/// flows waiting for room.
#[derive(Clone, Debug)]
struct Staging {
    capacity_mb: f64,
    used_mb: f64,
    queue: VecDeque<u64>,
}

impl Staging {
    /// Whether a reservation of `mb` can be admitted now. An oversized
    /// reservation (larger than the whole buffer) is admitted when the
    /// buffer is empty, so every flow eventually progresses — delayed,
    /// never dropped.
    fn fits(&self, mb: f64) -> bool {
        self.used_mb + mb <= self.capacity_mb || self.used_mb == 0.0
    }
}

/// One aggregated transfer request: the pre-exec data movement of one
/// dispatched batch, as computed by the platform's dispatch path.
#[derive(Clone, Copy, Debug)]
pub struct TransferReq<'a> {
    /// The running-task id the flow belongs to.
    pub task: u64,
    /// Destination node index.
    pub dst: usize,
    /// Distinct remote producer node indices (each contributes PCIe
    /// egress membership); gateway inputs have no producer entry.
    pub remote_srcs: &'a [usize],
    /// MB arriving over the destination's PCIe ingress (remote
    /// producers + gateway).
    pub remote_mb: f64,
    /// MB moving over the destination's intra-server NVLink class
    /// (same-node producers).
    pub local_mb: f64,
    /// Progress at rate 1 regardless of bandwidth: cold start plus the
    /// scalar base latency (`cold_ms + base_ms`), ms.
    pub base_ms: f64,
    /// Bandwidth-shaped portion: the scalar per-MB rate sum
    /// (`rate_ms`), ms at full rate.
    pub work_ms: f64,
    /// The classic scalar pre-exec total, grouped *exactly* as the
    /// scalar model computes it: `cold_ms + (base_ms + rate_ms)`. The
    /// uncontended (ρ = 1) plan reuses this value verbatim so the
    /// planned finish is bit-identical to the scalar event time.
    pub scalar_total_ms: f64,
    /// Same-edge small tensors merged into this aggregated flow beyond
    /// the first per edge (observability only).
    pub batched_small: u32,
    /// MB arriving from producers in a *different server* than the
    /// destination (0 on flat clusters) — the traffic that crosses the
    /// ToR uplinks.
    pub cross_mb: f64,
}

/// A planned finish to schedule: `(task, finish)`.
pub type Plan = (u64, SimTime);

/// A staged flow that just activated (notify started; its finish is in
/// [`DataPlane::plans`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Activation {
    /// Task id of the activated flow.
    pub task: u64,
    /// Destination node index (for notifications).
    pub node: usize,
    /// Total MB of the flow.
    pub mb: f64,
}

/// The outcome of [`DataPlane::begin`]. Re-plans of other flows whose
/// share the new flow changed are in [`DataPlane::plans`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Admission {
    /// The flow activated immediately; schedule its finish.
    Active {
        /// Planned finish time.
        finish: SimTime,
    },
    /// The destination staging buffer is full; the flow queued and will
    /// activate (FIFO) as space frees.
    Queued,
}

/// The outcome of [`DataPlane::on_due`]. The finishes to schedule —
/// re-plans of still-running flows and those of staged flows that
/// activated on the freed space — are in [`DataPlane::plans`], the
/// activations themselves in [`DataPlane::activated`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DueOutcome {
    /// Pre-exec elapsed for the completed flow (dispatch → now), ms.
    pub elapsed_ms: f64,
    /// Destination node of the completed flow.
    pub node: usize,
    /// Total MB of the completed flow.
    pub mb: f64,
}

/// Live per-node occupancy, for round policies (`RoundCtx::dataplane`).
#[derive(Clone, Debug, Default)]
pub struct DataPlaneView {
    nodes: Vec<NodeLoad>,
}

/// One node's live data-plane load.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeLoad {
    /// Flows sharing the PCIe ingress pool.
    pub active_in: u32,
    /// Flows sharing the PCIe egress pool.
    pub active_out: u32,
    /// Flows sharing the NVLink pool.
    pub active_nvlink: u32,
    /// Flows queued for staging space.
    pub queued: u32,
    /// Staging buffer in use, MB.
    pub staging_used_mb: f64,
    /// Staging buffer capacity, MB.
    pub staging_cap_mb: f64,
    /// PCIe ingress capacity, MB/ms.
    pub pcie_in_capacity: f64,
}

impl DataPlaneView {
    /// A view over explicit per-node loads (policy tests and benches
    /// synthesise contention states without running a data plane).
    pub fn from_loads(nodes: Vec<NodeLoad>) -> DataPlaneView {
        DataPlaneView { nodes }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the view covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The load of node `i`.
    pub fn node(&self, i: usize) -> &NodeLoad {
        &self.nodes[i]
    }

    /// Flows contending for node `i`'s ingress path — active ingress
    /// members plus flows queued for staging (the estimated-contention
    /// term bandwidth-aware ranking uses).
    pub fn contending_flows(&self, i: usize) -> u32 {
        let n = &self.nodes[i];
        n.active_in + n.queued
    }
}

/// Cumulative per-node transfer counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeTransferStats {
    /// Flows activated on this node (as destination).
    pub started: u64,
    /// Flows completed on this node.
    pub completed: u64,
    /// Flows that had to queue for staging space.
    pub queued: u64,
    /// Cumulative MB moved to this node.
    pub mb: f64,
    /// Max concurrent members across the node's pools.
    pub peak_active: u32,
    /// High-water mark of the staging buffer, MB.
    pub peak_staging_mb: f64,
}

/// End-of-run transfer rollup (`ExperimentResult::transfers`); all
/// zeros/empty when the data plane is off.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TransferSummary {
    /// Flows activated.
    pub started: u64,
    /// Flows completed.
    pub completed: u64,
    /// Flows that queued for staging.
    pub queued: u64,
    /// Same-edge small tensors batched into aggregated flows.
    pub batched_small: u64,
    /// Finish re-plans caused by pool membership changes.
    pub replans: u64,
    /// Cumulative MB moved.
    pub total_mb: f64,
    /// MB that crossed a server boundary (through ToR pools); 0 on flat
    /// clusters, and strictly less than `total_mb` when locality-first
    /// routing keeps hot workflows intra-server.
    pub cross_server_mb: f64,
    /// Max concurrent members on any single pool.
    pub peak_active: u32,
    /// High-water mark of any staging buffer, MB.
    pub peak_staging_mb: f64,
    /// Per-node breakdown, node-index order.
    pub per_node: Vec<NodeTransferStats>,
}

/// Where a flow slot is in its life.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
enum FlowState {
    /// No flow: the task id is not in transfer.
    #[default]
    Free,
    /// Waiting FIFO for staging space.
    Queued,
    /// Joined to its pools and draining.
    Active,
}

/// One slot of the flow slab. A freed slot keeps its `pools` buffer for
/// the next flow of that task id.
#[derive(Clone, Debug, Default)]
struct Flow {
    state: FlowState,
    dispatched_at: SimTime,
    dst: usize,
    remote_mb: f64,
    local_mb: f64,
    base_ms: f64,
    work_ms: f64,
    scalar_total_ms: f64,
    cross_mb: f64,
    /// The finish last planned for the active flow.
    finish: SimTime,
    /// The pools the flow joins while active, fixed at `begin`.
    pools: Vec<(usize, u8)>,
    // Drain state while active.
    rho: f64,
    demand: f64,
    base_left: f64,
    work_left: f64,
    last_update: SimTime,
}

impl Flow {
    fn total_mb(&self) -> f64 {
        self.remote_mb + self.local_mb
    }
}

/// The live node→server assignment of a [`ServerTopology`] cluster.
/// Nodes that join after the map was built are *unassigned*: they join
/// no ToR pool, and a hand-off to or from them counts as cross-server.
#[derive(Clone, Debug)]
struct ServerMap {
    /// `assignment[node] = Some(server)`, `None` for joined nodes.
    assignment: Vec<Option<usize>>,
}

impl ServerMap {
    /// The map of `topology` over `nodes` consecutive nodes.
    fn from_topology(topology: &ServerTopology, nodes: usize) -> ServerMap {
        ServerMap {
            assignment: (0..nodes).map(|n| Some(topology.server_of(n))).collect(),
        }
    }

    /// The server hosting `node`, or `None` for unassigned joiners.
    fn server_of(&self, node: NodeId) -> Option<usize> {
        self.assignment.get(node.0 as usize).copied().flatten()
    }

    /// Whether `a` and `b` sit in the same server (false when either is
    /// unassigned).
    fn same_server(&self, a: NodeId, b: NodeId) -> bool {
        match (self.server_of(a), self.server_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Records a churn join: the new node exists but belongs to no
    /// server.
    fn note_join(&mut self) {
        self.assignment.push(None);
    }
}

/// The data-plane subsystem: pools, staging, and the active-flow table.
///
/// Every pool carries a member index (the task ids of its active
/// flows), so a membership change re-plans only the flows sharing a
/// touched pool, in task-id order. Flows live in a slab indexed by task
/// id. Activation, re-plan and completion write into retained buffers:
/// once they have grown to the run's working set, a transfer allocates
/// nothing.
#[derive(Clone, Debug)]
pub struct DataPlane {
    /// Per-node pool triples, indexed by pool class.
    pools: Vec<[Link; 3]>,
    /// Per-server ToR uplink pools (empty on flat clusters).
    tor: Vec<Link>,
    /// The node→server assignment (`None` on flat clusters).
    servers: Option<ServerMap>,
    staging: Vec<Staging>,
    /// Flow slab indexed by task id (the platform's dense task arena
    /// slots); grows to the peak task id in transfer.
    flows: Vec<Flow>,
    /// Finishes planned by the last `begin`/`on_due`, in push order.
    plans: Vec<Plan>,
    /// Activations produced by the last `begin`/`on_due`.
    activated: Vec<Activation>,
    /// Scratch: the affected-flow ids of one re-plan sweep.
    affected: Vec<u64>,
    view: DataPlaneView,
    stats: Vec<NodeTransferStats>,
    batched_small: u64,
    replans: u64,
    cross_mb: f64,
    /// Test-only reference mode: re-plan sweeps scan every flow instead
    /// of reading the member index.
    #[cfg(test)]
    scan_all: bool,
}

impl DataPlane {
    /// Builds pools and staging buffers from the live cluster's node
    /// classes; a declared `topology` additionally maps nodes onto
    /// servers sharing one ToR uplink pool each.
    pub fn new(cluster: &Cluster, topology: Option<ServerTopology>) -> DataPlane {
        let servers = topology.map(|t| ServerMap::from_topology(&t, cluster.len()));
        let tor = match &topology {
            Some(t) => vec![Link::new(t.tor_gbps); t.num_servers(cluster.len())],
            None => Vec::new(),
        };
        let mut dp = DataPlane {
            pools: Vec::new(),
            tor,
            servers,
            staging: Vec::new(),
            flows: Vec::new(),
            plans: Vec::new(),
            activated: Vec::new(),
            affected: Vec::new(),
            view: DataPlaneView::default(),
            stats: Vec::new(),
            batched_small: 0,
            replans: 0,
            cross_mb: 0.0,
            #[cfg(test)]
            scan_all: false,
        };
        for node in cluster.nodes() {
            dp.push_node(&node.class);
        }
        dp.sync_view();
        dp
    }

    /// Whether a hand-off from `src` to `dst` crosses a server boundary:
    /// false on flat clusters, true under a topology when the two sit in
    /// different servers or either is an unassigned joiner.
    pub(crate) fn crosses_servers(&self, src: NodeId, dst: NodeId) -> bool {
        self.servers
            .as_ref()
            .is_some_and(|map| !map.same_server(src, dst))
    }

    /// The pool a membership tuple names: `TOR` entries index the
    /// server table, everything else a node's pool triple.
    fn link(&self, idx: usize, kind: u8) -> &Link {
        if kind == TOR {
            &self.tor[idx]
        } else {
            &self.pools[idx][kind as usize]
        }
    }

    fn link_mut(&mut self, idx: usize, kind: u8) -> &mut Link {
        if kind == TOR {
            &mut self.tor[idx]
        } else {
            &mut self.pools[idx][kind as usize]
        }
    }

    /// A churn join added a node of `class`: grow pools, staging, and
    /// counters to match the cluster. Under a server topology the new
    /// node is unassigned (no ToR pool) until re-planned.
    pub fn note_join(&mut self, class: &NodeClass) {
        self.push_node(class);
        if let Some(map) = self.servers.as_mut() {
            map.note_join();
        }
        self.sync_view();
    }

    fn push_node(&mut self, class: &NodeClass) {
        self.pools.push([
            Link::new(class.pcie_in_gbps),
            Link::new(class.pcie_out_gbps),
            Link::new(class.nvlink_gbps),
        ]);
        self.staging.push(Staging {
            capacity_mb: class.staging_mb,
            used_mb: 0.0,
            queue: VecDeque::new(),
        });
        self.stats.push(NodeTransferStats::default());
    }

    /// Admits the pre-exec flow of a freshly dispatched batch at `now`
    /// (the dispatch instant). Re-plans of other flows are left in
    /// [`plans`](Self::plans).
    pub fn begin(&mut self, req: TransferReq<'_>, now: SimTime) -> Admission {
        self.plans.clear();
        self.activated.clear();
        self.batched_small += req.batched_small as u64;
        let t = req.task as usize;
        if self.flows.len() <= t {
            self.flows.resize_with(t + 1, Flow::default);
        }
        let mut pools = std::mem::take(&mut self.flows[t].pools);
        pools.clear();
        self.plan_pools(&req, &mut pools);
        let flow = &mut self.flows[t];
        debug_assert_eq!(flow.state, FlowState::Free, "task {t} already in transfer");
        *flow = Flow {
            state: FlowState::Queued,
            dispatched_at: now,
            dst: req.dst,
            remote_mb: req.remote_mb,
            local_mb: req.local_mb,
            base_ms: req.base_ms,
            work_ms: req.work_ms,
            scalar_total_ms: req.scalar_total_ms,
            cross_mb: req.cross_mb,
            pools,
            ..Flow::default()
        };
        let (dst, staged) = (req.dst, req.remote_mb);
        let admitted = staged <= 0.0 || {
            let s = &self.staging[dst];
            s.queue.is_empty() && s.fits(staged)
        };
        let out = if admitted {
            self.reserve_staging(dst, staged);
            let finish = self.activate(req.task, now);
            Admission::Active { finish }
        } else {
            self.staging[dst].queue.push_back(req.task);
            self.stats[dst].queued += 1;
            Admission::Queued
        };
        self.sync_view();
        out
    }

    /// The pools `req` joins while active, in the order ρ is taken over.
    fn plan_pools(&self, req: &TransferReq<'_>, pools: &mut Vec<(usize, u8)>) {
        if req.work_ms <= 0.0 {
            return;
        }
        if req.remote_mb > 0.0 {
            pools.push((req.dst, PCIE_IN));
            for &src in req.remote_srcs {
                pools.push((src, PCIE_OUT));
            }
            // Cross-server producers additionally contend for the ToR
            // uplinks on both ends: the destination's first, then each
            // distinct producer server. Intra-server and gateway traffic
            // joins no ToR pool, so a topology cluster with purely local
            // routing shares exactly the flat pool set.
            if let Some(map) = &self.servers {
                let dst_srv = map.server_of(NodeId(req.dst as u32));
                let first_cross = pools.len();
                for &src in req.remote_srcs {
                    if let Some(s) = map.server_of(NodeId(src as u32)) {
                        if Some(s) != dst_srv && !pools[first_cross..].contains(&(s, TOR)) {
                            pools.push((s, TOR));
                        }
                    }
                }
                if let Some(d) = dst_srv.filter(|_| pools.len() > first_cross) {
                    pools.insert(first_cross, (d, TOR));
                }
            }
        }
        if req.local_mb > 0.0 {
            pools.push((req.dst, NVLINK));
        }
    }

    /// Handles a `TransferDue(task)` event: the active flow of `task` is
    /// complete — release its resources, re-plan affected flows and
    /// activate queued ones ([`plans`](Self::plans),
    /// [`activated`](Self::activated)).
    pub fn on_due(&mut self, task: u64, now: SimTime) -> DueOutcome {
        let t = task as usize;
        debug_assert_eq!(
            self.flows[t].state,
            FlowState::Active,
            "task {t} not in transfer"
        );
        self.plans.clear();
        self.activated.clear();
        let pools = std::mem::take(&mut self.flows[t].pools);
        for &(idx, kind) in &pools {
            let link = self.link_mut(idx, kind);
            link.pool.members -= 1;
            let at = link
                .flows
                .iter()
                .position(|&id| id == task)
                .expect("an active flow is indexed in each of its pools");
            link.flows.swap_remove(at);
        }
        let flow = &mut self.flows[t];
        flow.state = FlowState::Free;
        let out = DueOutcome {
            elapsed_ms: now.saturating_since(flow.dispatched_at).as_ms(),
            node: flow.dst,
            mb: flow.total_mb(),
        };
        let (dst, staged) = (flow.dst, flow.remote_mb);
        self.release_staging(dst, staged);
        self.stats[dst].completed += 1;
        self.recompute_members(&pools, now);
        self.flows[t].pools = pools;
        // Freed staging space activates waiting flows FIFO; each
        // activation can in turn squeeze shares, so re-plans chain.
        while let Some(&head) = self.staging[dst].queue.front() {
            let mb = self.flows[head as usize].remote_mb;
            if !self.staging[dst].fits(mb) {
                break;
            }
            self.staging[dst].queue.pop_front();
            self.reserve_staging(dst, mb);
            let total = self.flows[head as usize].total_mb();
            self.activate(head, now);
            self.activated.push(Activation {
                task: head,
                node: dst,
                mb: total,
            });
        }
        // The activated flows' finishes follow the re-plans. One that a
        // later activation re-planned is already there, at its re-plan's
        // place.
        let replans = self.plans.len();
        for a in &self.activated {
            if !self.plans[..replans].iter().any(|&(id, _)| id == a.task) {
                self.plans
                    .push((a.task, self.flows[a.task as usize].finish));
            }
        }
        self.sync_view();
        out
    }

    /// Finishes to schedule from the last [`begin`](Self::begin) (other
    /// flows' re-plans) or [`on_due`](Self::on_due) (re-plans, then
    /// activated flows), in the order their events are to be pushed. A
    /// flow appears more than once only when re-planned again; its last
    /// entry is its current finish.
    pub fn plans(&self) -> &[Plan] {
        &self.plans
    }

    /// Staged flows the last [`on_due`](Self::on_due)
    /// activated on the freed space, FIFO (empty after a
    /// [`begin`](Self::begin)).
    pub fn activated(&self) -> &[Activation] {
        &self.activated
    }

    /// Live occupancy (kept in sync after every mutation).
    pub fn view(&self) -> &DataPlaneView {
        &self.view
    }

    /// The end-of-run rollup.
    pub fn summary(&self) -> TransferSummary {
        let mut s = TransferSummary {
            batched_small: self.batched_small,
            replans: self.replans,
            cross_server_mb: self.cross_mb,
            per_node: self.stats.clone(),
            ..TransferSummary::default()
        };
        for n in &self.stats {
            s.started += n.started;
            s.completed += n.completed;
            s.queued += n.queued;
            s.total_mb += n.mb;
            s.peak_active = s.peak_active.max(n.peak_active);
            s.peak_staging_mb = s.peak_staging_mb.max(n.peak_staging_mb);
        }
        s
    }

    /// Activates `task` at `now`: joins its pools, plans its finish, and
    /// re-plans every other flow whose share changed.
    fn activate(&mut self, task: u64, now: SimTime) -> SimTime {
        let t = task as usize;
        let pools = std::mem::take(&mut self.flows[t].pools);
        for &(idx, kind) in &pools {
            self.link_mut(idx, kind).pool.members += 1;
        }
        let flow = &self.flows[t];
        let demand = if flow.work_ms > 0.0 {
            flow.total_mb() / flow.work_ms
        } else {
            0.0
        };
        let rho = self.rho_of(&pools, demand);
        // ρ = 1 reproduces the scalar pre-exec window *bitwise*: the
        // f64 sum is grouped exactly as the classic model groups it.
        let finish = if rho == 1.0 {
            now + SimTime::from_ms(flow.scalar_total_ms)
        } else {
            now + SimTime::from_ms(flow.base_ms + flow.work_ms / rho)
        };
        let (dst, total_mb, cross_mb) = (flow.dst, flow.total_mb(), flow.cross_mb);
        let flow = &mut self.flows[t];
        flow.finish = finish;
        flow.rho = rho;
        flow.demand = demand;
        flow.base_left = flow.base_ms;
        flow.work_left = flow.work_ms;
        flow.last_update = now;
        self.cross_mb += cross_mb;
        let st = &mut self.stats[dst];
        st.started += 1;
        st.mb += total_mb;
        for &(idx, kind) in &pools {
            let members = self.link(idx, kind).pool.members;
            // ToR members peak on the destination node's counter (the
            // server table has no per-node stats row).
            let stat_node = if kind == TOR { dst } else { idx };
            let peak = &mut self.stats[stat_node].peak_active;
            *peak = (*peak).max(members);
        }
        // Re-plan the flows already sharing these pools, then index this
        // one, so the sweep never visits the flow that caused it.
        self.recompute_members(&pools, now);
        for &(idx, kind) in &pools {
            self.link_mut(idx, kind).flows.push(task);
        }
        let flow = &mut self.flows[t];
        flow.state = FlowState::Active;
        flow.pools = pools;
        finish
    }

    /// Re-plans every indexed flow sharing any of `touched`, in task-id
    /// order, appending to `plans`. Only a bitwise ρ change re-plans
    /// — an unchanged share leaves the planned finish untouched.
    fn recompute_members(&mut self, touched: &[(usize, u8)], now: SimTime) {
        let mut affected = std::mem::take(&mut self.affected);
        affected.clear();
        for &(idx, kind) in touched {
            affected.extend_from_slice(&self.link(idx, kind).flows);
        }
        #[cfg(test)]
        if self.scan_all {
            affected.clear();
            affected.extend((0..self.flows.len() as u64).filter(|&id| {
                let f = &self.flows[id as usize];
                f.state == FlowState::Active && f.pools.iter().any(|p| touched.contains(p))
            }));
        }
        affected.sort_unstable();
        affected.dedup();
        for &id in &affected {
            let f = &self.flows[id as usize];
            let rho = self.rho_of(&f.pools, f.demand);
            let a = &mut self.flows[id as usize];
            if rho == a.rho {
                continue;
            }
            // Drain elapsed progress at the old rate: the base portion
            // runs at rate 1, the work portion at ρ.
            let elapsed = now.saturating_since(a.last_update).as_ms();
            if elapsed <= a.base_left {
                a.base_left -= elapsed;
            } else {
                a.work_left = (a.work_left - (elapsed - a.base_left) * a.rho).max(0.0);
                a.base_left = 0.0;
            }
            a.last_update = now;
            a.rho = rho;
            a.finish = now + SimTime::from_ms(a.base_left + a.work_left / rho);
            self.replans += 1;
            self.plans.push((id, a.finish));
        }
        self.affected = affected;
    }

    /// The progress rate of a flow with `demand` MB/ms across `pools`:
    /// `min(1, min_pool(share) / demand)`.
    fn rho_of(&self, pools: &[(usize, u8)], demand: f64) -> f64 {
        if pools.is_empty() || demand <= 0.0 {
            return 1.0;
        }
        let min_share = pools
            .iter()
            .map(|&(idx, kind)| self.link(idx, kind).pool.share())
            .fold(f64::INFINITY, f64::min);
        (min_share / demand).min(1.0)
    }

    fn reserve_staging(&mut self, node: usize, mb: f64) {
        if mb <= 0.0 {
            return;
        }
        let s = &mut self.staging[node];
        s.used_mb += mb;
        let peak = &mut self.stats[node].peak_staging_mb;
        *peak = peak.max(s.used_mb);
    }

    fn release_staging(&mut self, node: usize, mb: f64) {
        if mb <= 0.0 {
            return;
        }
        let s = &mut self.staging[node];
        s.used_mb = (s.used_mb - mb).max(0.0);
    }

    fn sync_view(&mut self) {
        self.view.nodes.clear();
        for (p, s) in self.pools.iter().zip(&self.staging) {
            self.view.nodes.push(NodeLoad {
                active_in: p[PCIE_IN as usize].pool.members,
                active_out: p[PCIE_OUT as usize].pool.members,
                active_nvlink: p[NVLINK as usize].pool.members,
                queued: s.queue.len() as u32,
                staging_used_mb: s.used_mb,
                staging_cap_mb: s.capacity_mb,
                pcie_in_capacity: p[PCIE_IN as usize].pool.capacity,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::event::{Event, EventQueue};
    use esg_model::ClusterSpec;

    #[test]
    fn server_map_tracks_topology_and_joins() {
        let topology = ClusterSpec::paper()
            .with_topology(4, 10.0)
            .topology
            .unwrap();
        let mut map = ServerMap::from_topology(&topology, 16);
        assert_eq!(map.server_of(NodeId(0)), Some(0));
        assert_eq!(map.server_of(NodeId(7)), Some(1));
        assert!(map.same_server(NodeId(4), NodeId(7)));
        assert!(!map.same_server(NodeId(3), NodeId(4)));
        // A churn join is visible but unassigned: never intra-server.
        map.note_join();
        assert_eq!(map.server_of(NodeId(16)), None);
        assert!(!map.same_server(NodeId(16), NodeId(16)));
    }

    fn plane(classes: &[NodeClass]) -> DataPlane {
        let spec = ClusterSpec {
            name: "test".into(),
            nodes: classes.to_vec(),
            topology: None,
        };
        DataPlane::new(&Cluster::from_spec(&spec), None)
    }

    /// A 4-node plane grouped 2-per-server with a `tor_gbps` ToR uplink.
    fn topo_plane(tor_gbps: f64) -> DataPlane {
        let class = NodeClass::a100().with_bandwidth(10.0, 10.0, 10.0);
        let spec = ClusterSpec {
            name: "test".into(),
            nodes: vec![class.clone(), class.clone(), class.clone(), class],
            topology: Some(ServerTopology::new(2, tor_gbps)),
        };
        DataPlane::new(&Cluster::from_spec(&spec), spec.topology)
    }

    /// Node indices as `'static` one-element slices for `remote_srcs`.
    const NODES: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

    /// A remote flow into node 0 whose demand saturates a `capacity`
    /// MB/ms ingress solo: `total_mb / work_ms == capacity`.
    fn req(task: u64, total_mb: f64, work_ms: f64) -> TransferReq<'static> {
        TransferReq {
            task,
            dst: 0,
            remote_srcs: &NODES[1..2],
            remote_mb: total_mb,
            local_mb: 0.0,
            base_ms: 0.0,
            work_ms,
            scalar_total_ms: work_ms,
            batched_small: 0,
            cross_mb: 0.0,
        }
    }

    fn finish_of(adm: &Admission) -> SimTime {
        match adm {
            Admission::Active { finish, .. } => *finish,
            Admission::Queued => panic!("expected an active admission"),
        }
    }

    /// Pushes the finishes the last `begin`/`on_due` planned in the
    /// platform's order: the admitted flow's own, then [`DataPlane::plans`].
    fn schedule(q: &mut EventQueue, dp: &DataPlane, admitted: Option<Plan>) {
        for (task, at) in admitted.into_iter().chain(dp.plans().iter().copied()) {
            q.push(at, Event::TransferDue(task));
        }
    }

    /// The queue's pending transfer finishes, by task id.
    fn dues(q: &EventQueue) -> Vec<(SimTime, u64)> {
        let mut dues: Vec<_> = q.pending_dues().collect();
        dues.sort_unstable_by_key(|&(_, task)| task);
        dues
    }

    #[test]
    fn solo_flow_matches_scalar_time() {
        // Capacity 10 MB/ms, demand 10 MB/ms: solo ρ = 1, finish is the
        // scalar expression verbatim.
        let class = NodeClass::a100().with_bandwidth(10.0, 10.0, 10.0);
        let mut dp = plane(&[class.clone(), class]);
        let adm = dp.begin(req(1, 100.0, 10.0), SimTime::ZERO);
        assert_eq!(finish_of(&adm), SimTime::from_ms(10.0));
        assert!(dp.plans().is_empty());
    }

    #[test]
    fn two_flows_on_one_pool_halve_each_other() {
        let class = NodeClass::a100().with_bandwidth(10.0, 10.0, 10.0);
        let mut dp = plane(&[class.clone(), class]);
        // Flow 1 saturates ingress solo (ρ = 1, finish at 10 ms).
        let a1 = dp.begin(req(1, 100.0, 10.0), SimTime::ZERO);
        assert_eq!(finish_of(&a1), SimTime::from_ms(10.0));
        // Flow 2 joins at t = 4: both now get half the pool (ρ = ½).
        let a2 = dp.begin(req(2, 100.0, 10.0), SimTime::from_ms(4.0));
        // Flow 2 runs its whole 10 ms work window at ½ rate → 20 ms.
        assert_eq!(finish_of(&a2), SimTime::from_ms(24.0));
        // Flow 1 drained 4 ms at full rate; 6 ms left doubles to 12.
        assert_eq!(dp.plans(), &[(1, SimTime::from_ms(16.0))]);
        // Its re-planned finish completes and restores flow 2 to full
        // rate: 8 ms of work left at ½ becomes 4 ms.
        dp.on_due(1, SimTime::from_ms(16.0));
        assert_eq!(dp.plans(), &[(2, SimTime::from_ms(20.0))]);
        dp.on_due(2, SimTime::from_ms(20.0));
        let s = dp.summary();
        assert_eq!((s.started, s.completed, s.replans), (2, 2, 2));
    }

    #[test]
    fn a_reused_slot_holds_only_the_new_flows_finish() {
        let class = NodeClass::a100().with_bandwidth(10.0, 10.0, 10.0);
        let mut dp = plane(&[class.clone(), class]);
        let mut q = EventQueue::new();
        let complete_next = |dp: &mut DataPlane, q: &mut EventQueue| {
            let Some((at, Event::TransferDue(task))) = q.pop() else {
                panic!("a pending transfer finish")
            };
            dp.on_due(task, at);
            schedule(q, dp, None);
            (at, task)
        };
        // Flows 1 and 2 contend: flow 2 is planned to finish at 24 ms, and
        // flow 1's finish moves from 10 ms to 16 ms.
        let a1 = dp.begin(req(1, 100.0, 10.0), SimTime::ZERO);
        schedule(&mut q, &dp, Some((1, finish_of(&a1))));
        let a2 = dp.begin(req(2, 100.0, 10.0), SimTime::from_ms(4.0));
        schedule(&mut q, &dp, Some((2, finish_of(&a2))));
        let ms = SimTime::from_ms;
        assert_eq!(dues(&q), [(ms(16.0), 1), (ms(24.0), 2)]);
        // Flow 1 completes; flow 2's finish moves to 20 ms and completes
        // there.
        assert_eq!(complete_next(&mut dp, &mut q), (ms(16.0), 1));
        assert_eq!(dues(&q), [(ms(20.0), 2)]);
        assert_eq!(complete_next(&mut dp, &mut q), (ms(20.0), 2));
        assert!(q.is_empty());
        // Task slot 2 is reused by a solo flow due at 31 ms: the slot's
        // one pending finish is the new flow's, not the first flow's
        // original 24 ms plan.
        let reused = dp.begin(req(2, 100.0, 10.0), ms(21.0));
        schedule(&mut q, &dp, Some((2, finish_of(&reused))));
        assert_eq!(dues(&q), [(ms(31.0), 2)]);
        assert_eq!(complete_next(&mut dp, &mut q), (ms(31.0), 2));
        assert!(q.is_empty());
        assert_eq!(dp.summary().completed, 3);
    }

    #[test]
    fn infinite_bandwidth_never_replans() {
        let t4 = NodeClass::t4();
        let class = t4
            .clone()
            .with_bandwidth(
                t4.pcie_in_gbps * 1e12,
                t4.pcie_out_gbps * 1e12,
                t4.nvlink_gbps * 1e12,
            )
            .with_staging_mb(t4.staging_mb * 1e12);
        let mut dp = plane(&[class.clone(), class]);
        for task in 0..50u64 {
            let adm = dp.begin(req(task, 500.0, 25.0), SimTime::ZERO);
            assert_eq!(finish_of(&adm), SimTime::from_ms(25.0));
            assert!(dp.plans().is_empty(), "ρ stays 1.0 at infinite capacity");
        }
        assert_eq!(dp.summary().replans, 0);
    }

    #[test]
    fn staging_backpressure_delays_never_drops() {
        let class = NodeClass::a100()
            .with_bandwidth(10.0, 10.0, 10.0)
            .with_staging_mb(100.0);
        let mut dp = plane(&[class.clone(), class]);
        // 80 MB fits; the second 80 MB flow must queue.
        let a1 = dp.begin(req(1, 80.0, 8.0), SimTime::ZERO);
        assert_eq!(finish_of(&a1), SimTime::from_ms(8.0));
        assert!(matches!(
            dp.begin(req(2, 80.0, 8.0), SimTime::ZERO),
            Admission::Queued
        ));
        assert_eq!(dp.view().contending_flows(0), 2);
        assert_eq!(dp.view().node(0).queued, 1);
        // Flow 1 completes → flow 2 activates from *now*, full window.
        dp.on_due(1, SimTime::from_ms(8.0));
        assert_eq!(dp.activated().len(), 1);
        assert_eq!(dp.activated()[0].task, 2);
        assert_eq!(dp.plans(), &[(2, SimTime::from_ms(16.0))]);
        dp.on_due(2, SimTime::from_ms(16.0));
        let s = dp.summary();
        assert_eq!((s.started, s.completed, s.queued), (2, 2, 1));
        assert_eq!(s.peak_staging_mb, 80.0);
    }

    #[test]
    fn an_activation_re_planned_by_a_later_one_is_due_at_its_re_plan() {
        let class = NodeClass::a100()
            .with_bandwidth(10.0, 10.0, 10.0)
            .with_staging_mb(100.0);
        let mut dp = plane(&[class.clone(), class]);
        let mut q = EventQueue::new();
        // Flow 1 fills the staging buffer; flows 2 and 3 queue behind it.
        let a1 = dp.begin(req(1, 100.0, 10.0), SimTime::ZERO);
        schedule(&mut q, &dp, Some((1, finish_of(&a1))));
        for (task, mb, work) in [(2, 40.0, 4.0), (3, 20.0, 2.0)] {
            assert_eq!(
                dp.begin(req(task, mb, work), SimTime::ZERO),
                Admission::Queued
            );
        }
        // Flow 1 completes at 10 ms and both activate. Flow 2 alone would
        // finish at 14 ms, but flow 3 halves its share at once: flow 2's
        // one finish is its re-plan at 18 ms, scheduled before flow 3's.
        let ms = SimTime::from_ms;
        assert_eq!(q.pop(), Some((ms(10.0), Event::TransferDue(1))));
        dp.on_due(1, ms(10.0));
        assert_eq!(dp.activated().len(), 2);
        assert_eq!(dp.plans(), &[(2, ms(18.0)), (3, ms(14.0))]);
        schedule(&mut q, &dp, None);
        assert_eq!(dues(&q), [(ms(18.0), 2), (ms(14.0), 3)]);
    }

    #[test]
    fn oversized_reservation_waits_for_an_empty_buffer() {
        let class = NodeClass::a100()
            .with_bandwidth(10.0, 10.0, 10.0)
            .with_staging_mb(50.0);
        let mut dp = plane(&[class.clone(), class]);
        let _ = dp.begin(req(1, 40.0, 4.0), SimTime::ZERO);
        // 120 MB exceeds the whole buffer: queued, not dropped…
        assert!(matches!(
            dp.begin(req(2, 120.0, 12.0), SimTime::ZERO),
            Admission::Queued
        ));
        // …and admitted the moment the buffer is empty.
        dp.on_due(1, SimTime::from_ms(4.0));
        assert_eq!(dp.activated().len(), 1);
        assert_eq!(dp.activated()[0].task, 2);
    }

    #[test]
    fn join_grows_the_plane() {
        let class = NodeClass::a100();
        let mut dp = plane(&[class]);
        assert_eq!(dp.view().len(), 1);
        dp.note_join(&NodeClass::t4());
        assert_eq!(dp.view().len(), 2);
        assert_eq!(dp.view().node(1).pcie_in_capacity, 8.0);
    }

    /// A flow `src → dst` whose demand saturates a `10` MB/ms endpoint
    /// solo, with `cross_mb` marked for topology cases.
    fn req_edge(
        task: u64,
        src: usize,
        dst: usize,
        total_mb: f64,
        work_ms: f64,
        cross: bool,
    ) -> TransferReq<'static> {
        TransferReq {
            remote_srcs: &NODES[src..=src],
            dst,
            cross_mb: if cross { total_mb } else { 0.0 },
            ..req(task, total_mb, work_ms)
        }
    }

    #[test]
    fn narrow_tor_throttles_only_cross_server_flows() {
        // Servers {0,1} and {2,3}; endpoints 10 MB/ms, ToR 5 MB/ms.
        // Intra-server (1 → 0) never touches a ToR pool: ρ = 1, the
        // same finish a flat cluster plans.
        let mut dp = topo_plane(5.0);
        let adm = dp.begin(req_edge(1, 1, 0, 100.0, 10.0, false), SimTime::ZERO);
        assert_eq!(finish_of(&adm), SimTime::from_ms(10.0));
        dp.on_due(1, SimTime::from_ms(10.0));
        // Cross-server (2 → 0) shares both ToR uplinks: the 5 MB/ms
        // ToR halves a 10 MB/ms demand → ρ = ½, 10 ms of work → 20 ms.
        let adm = dp.begin(req_edge(2, 2, 0, 100.0, 10.0, true), SimTime::ZERO);
        assert_eq!(finish_of(&adm), SimTime::from_ms(20.0));
        dp.on_due(2, SimTime::from_ms(20.0));
        let s = dp.summary();
        assert_eq!(s.completed, 2);
        assert_eq!(s.total_mb, 200.0);
        assert_eq!(s.cross_server_mb, 100.0);
    }

    #[test]
    fn cross_server_flows_contend_on_the_destination_tor() {
        // ToR 10 MB/ms matches the endpoints: one cross flow runs at
        // ρ = 1. A second cross flow into a *different node of the same
        // destination server* shares no endpoint pool with the first —
        // only the two ToR uplinks — yet both halve to ρ = ½.
        let mut dp = topo_plane(10.0);
        let a1 = dp.begin(req_edge(1, 2, 0, 100.0, 10.0, true), SimTime::ZERO);
        assert_eq!(finish_of(&a1), SimTime::from_ms(10.0));
        let a2 = dp.begin(req_edge(2, 3, 1, 100.0, 10.0, true), SimTime::from_ms(4.0));
        assert_eq!(finish_of(&a2), SimTime::from_ms(24.0));
        assert_eq!(dp.plans(), &[(1, SimTime::from_ms(16.0))]);
    }

    #[test]
    fn joined_nodes_are_unassigned_and_skip_tor_pools() {
        let mut dp = topo_plane(5.0);
        dp.note_join(&NodeClass::a100().with_bandwidth(10.0, 10.0, 10.0));
        // Node 4 belongs to no server: its traffic joins no ToR pool
        // even on a topology cluster (ρ stays endpoint-limited).
        let adm = dp.begin(req_edge(1, 4, 0, 100.0, 10.0, true), SimTime::ZERO);
        assert_eq!(finish_of(&adm), SimTime::from_ms(10.0));
    }

    impl DataPlane {
        /// Panics unless every pool's member index matches its counter
        /// and holds exactly the active flows that name the pool.
        fn assert_index_consistent(&self) {
            let links = self.pools.iter().flatten().chain(&self.tor);
            for link in links {
                assert_eq!(link.flows.len(), link.pool.members as usize);
            }
            for (id, f) in self.flows.iter().enumerate() {
                for &(idx, kind) in &f.pools {
                    let indexed = self.link(idx, kind).flows.contains(&(id as u64));
                    assert_eq!(indexed, f.state == FlowState::Active, "flow {id}");
                }
            }
        }
    }

    /// One step of a random data-plane history.
    #[derive(Clone, Debug)]
    enum Step {
        /// Begin a flow after `dt_ms`: destination, remote producer
        /// mask, remote MB, local MB, base ms, work ms.
        Begin(f64, usize, u8, f64, f64, f64, f64),
        /// Complete the flow with the earliest pending finish.
        Due,
    }

    fn arb_step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        prop_oneof![
            (
                (0.0f64..4.0, 0usize..4, 0u8..16),
                (0.0f64..60.0, 0.0f64..20.0, 0.0f64..2.0, 0.0f64..8.0),
            )
                .prop_map(|((dt, dst, srcs), (rmb, lmb, base, work))| {
                    Step::Begin(dt, dst, srcs, rmb, lmb, base, work)
                }),
            Just(Step::Due),
        ]
    }

    /// Drives `steps` through the indexed plane and the full-scan
    /// reference on the same cluster (flat, or two 2-node servers),
    /// asserting identical admissions, re-plans, activations and
    /// completions, and a consistent member index after every step. The
    /// finishes go through an [`EventQueue`] as the platform pushes them;
    /// after every step its pending finishes are exactly the active
    /// flows, each at its planned finish.
    fn check_against_full_scan(steps: &[Step], topology: bool, staging_mb: f64) {
        let class = NodeClass::a100()
            .with_bandwidth(6.0, 4.0, 9.0)
            .with_staging_mb(staging_mb);
        let spec = ClusterSpec {
            name: "prop".into(),
            nodes: vec![class; 4],
            topology: topology.then(|| ServerTopology::new(2, 5.0)),
        };
        let cluster = Cluster::from_spec(&spec);
        let mut fast = DataPlane::new(&cluster, spec.topology);
        let mut slow = fast.clone();
        slow.scan_all = true;
        let mut q = EventQueue::new();
        // Free task ids are reused LIFO like the platform's task arena.
        let mut free: Vec<u64> = Vec::new();
        let mut next_task = 0u64;
        let mut now = SimTime::ZERO;
        for step in steps {
            match *step {
                Step::Begin(dt, dst, mask, remote_mb, local_mb, base_ms, work_ms) => {
                    now += SimTime::from_ms(dt);
                    let srcs: Vec<usize> =
                        (0..4).filter(|&n| n != dst && mask >> n & 1 == 1).collect();
                    let task = free.pop().unwrap_or_else(|| {
                        next_task += 1;
                        next_task - 1
                    });
                    let req = TransferReq {
                        task,
                        dst,
                        remote_srcs: &srcs,
                        remote_mb,
                        local_mb,
                        base_ms,
                        work_ms,
                        scalar_total_ms: base_ms + work_ms,
                        batched_small: 0,
                        cross_mb: 0.0,
                    };
                    let a = fast.begin(req, now);
                    assert_eq!(a, slow.begin(req, now));
                    assert_eq!(fast.plans(), slow.plans());
                    let admitted = match a {
                        Admission::Active { finish } => Some((task, finish)),
                        Admission::Queued => None,
                    };
                    schedule(&mut q, &fast, admitted);
                }
                Step::Due => {
                    let Some((at, event)) = q.pop() else {
                        continue;
                    };
                    let Event::TransferDue(task) = event else {
                        panic!("only transfer finishes are queued")
                    };
                    now = now.max(at);
                    let out = fast.on_due(task, now);
                    assert_eq!(out, slow.on_due(task, now));
                    assert_eq!(fast.plans(), slow.plans());
                    assert_eq!(fast.activated(), slow.activated());
                    free.push(task);
                    schedule(&mut q, &fast, None);
                }
            }
            fast.assert_index_consistent();
            assert_eq!(fast.summary(), slow.summary());
            let active: Vec<(SimTime, u64)> = (fast.flows.iter().enumerate())
                .filter(|(_, f)| f.state == FlowState::Active)
                .map(|(t, f)| (f.finish, t as u64))
                .collect();
            assert_eq!(dues(&q), active);
        }
    }

    proptest::proptest! {
        #[test]
        fn member_index_replans_like_a_full_scan(
            steps in proptest::collection::vec(arb_step(), 1..80),
            topology in 0u8..2,
            staging in 0u8..2,
        ) {
            let staging_mb = if staging == 1 { 40.0 } else { 1e9 };
            check_against_full_scan(&steps, topology == 1, staging_mb);
        }
    }
}
