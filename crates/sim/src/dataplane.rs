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
//!   changes on any pool a flow shares, its ρ is recomputed; only a
//!   *bitwise* ρ change drains elapsed progress and re-plans the finish
//!   (a fresh event under a bumped generation; the stale event is
//!   skipped on pop). At effectively infinite bandwidth ρ is 1.0 for
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
use std::collections::{BTreeMap, VecDeque};

/// Knobs for the contended data plane (`SimConfig::data_plane`;
/// `None` keeps the classic scalar model).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DataPlaneConfig {
    /// Multiplier on every `NodeClass` pool bandwidth (a huge value,
    /// e.g. `1e12`, makes the plane contention-free — the equivalence
    /// tests' configuration).
    pub bandwidth_scale: f64,
    /// Multiplier on every `NodeClass::staging_mb` buffer.
    pub staging_scale: f64,
    /// Same-edge tensors at or below this size, MB, count as batched
    /// into their edge's aggregated flow (accounting for the platform's
    /// per-dispatch transfer batching).
    pub batch_max_mb: f64,
}

impl Default for DataPlaneConfig {
    fn default() -> Self {
        DataPlaneConfig {
            bandwidth_scale: 1.0,
            staging_scale: 1.0,
            batch_max_mb: 8.0,
        }
    }
}

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
    /// Capacity, MB/ms (scaled by [`DataPlaneConfig::bandwidth_scale`]).
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

/// The three pools of one node.
#[derive(Clone, Copy, Debug)]
struct NodePools {
    pools: [BandwidthPool; 3],
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
#[derive(Clone, Debug)]
pub struct TransferReq {
    /// The running-task id the flow belongs to.
    pub task: u64,
    /// Destination node index.
    pub dst: usize,
    /// Distinct remote producer node indices (each contributes PCIe
    /// egress membership); gateway inputs have no producer entry.
    pub remote_srcs: Vec<usize>,
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

impl TransferReq {
    fn total_mb(&self) -> f64 {
        self.remote_mb + self.local_mb
    }
}

/// A re-planned finish to (re-)schedule: `(task, generation, finish)`.
pub type Replan = (u64, u64, SimTime);

/// A staged flow that just activated (schedule + notify started).
#[derive(Clone, Debug)]
pub struct Activation {
    /// Task id of the activated flow.
    pub task: u64,
    /// Its new event generation.
    pub gen: u64,
    /// Its planned finish.
    pub finish: SimTime,
    /// Destination node index (for notifications).
    pub node: usize,
    /// Total MB of the flow.
    pub mb: f64,
}

/// The outcome of [`DataPlane::begin`].
#[derive(Clone, Debug)]
pub enum Admission {
    /// The flow activated immediately; schedule its finish and push any
    /// re-plans of flows whose share it changed.
    Active {
        /// Event generation of the planned finish.
        gen: u64,
        /// Planned finish time.
        finish: SimTime,
        /// Finishes of other flows to re-schedule.
        replans: Vec<Replan>,
    },
    /// The destination staging buffer is full; the flow queued and will
    /// activate (FIFO) as space frees.
    Queued,
}

/// The outcome of a completed [`DataPlane::on_due`] (a stale generation
/// returns `None` instead).
#[derive(Clone, Debug, Default)]
pub struct DueOutcome {
    /// Pre-exec elapsed for the completed flow (dispatch → now), ms.
    pub elapsed_ms: f64,
    /// Destination node of the completed flow.
    pub node: usize,
    /// Total MB of the completed flow.
    pub mb: f64,
    /// Finishes of still-running flows to re-schedule.
    pub replans: Vec<Replan>,
    /// Staged flows that activated on the freed space.
    pub activated: Vec<Activation>,
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

/// The flow's drain state while active.
#[derive(Clone, Debug)]
struct ActiveFlow {
    rho: f64,
    demand: f64,
    base_left: f64,
    work_left: f64,
    last_update: SimTime,
    pools: Vec<(usize, u8)>,
}

#[derive(Clone, Debug)]
enum FlowState {
    Queued,
    Active(ActiveFlow),
}

#[derive(Clone, Debug)]
struct Flow {
    gen: u64,
    req: TransferReq,
    dispatched_at: SimTime,
    state: FlowState,
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
#[derive(Clone, Debug)]
pub struct DataPlane {
    cfg: DataPlaneConfig,
    pools: Vec<NodePools>,
    /// Per-server ToR uplink pools (empty on flat clusters).
    tor: Vec<BandwidthPool>,
    /// The node→server assignment (`None` on flat clusters).
    servers: Option<ServerMap>,
    staging: Vec<Staging>,
    /// Flows by task id — a `BTreeMap` so re-plan sweeps visit flows in
    /// deterministic (task-id) order regardless of hashing.
    flows: BTreeMap<u64, Flow>,
    view: DataPlaneView,
    stats: Vec<NodeTransferStats>,
    batched_small: u64,
    replans: u64,
    cross_mb: f64,
}

impl DataPlane {
    /// Builds pools and staging buffers from the live cluster's node
    /// classes; a declared `topology` additionally maps nodes onto
    /// servers sharing one ToR uplink pool each.
    pub fn new(
        cfg: DataPlaneConfig,
        cluster: &Cluster,
        topology: Option<ServerTopology>,
    ) -> DataPlane {
        let servers = topology.map(|t| ServerMap::from_topology(&t, cluster.len()));
        let tor = match &topology {
            Some(t) => vec![
                BandwidthPool {
                    capacity: t.tor_gbps * cfg.bandwidth_scale,
                    members: 0,
                };
                t.num_servers(cluster.len())
            ],
            None => Vec::new(),
        };
        let mut dp = DataPlane {
            cfg,
            pools: Vec::new(),
            tor,
            servers,
            staging: Vec::new(),
            flows: BTreeMap::new(),
            view: DataPlaneView::default(),
            stats: Vec::new(),
            batched_small: 0,
            replans: 0,
            cross_mb: 0.0,
        };
        for node in cluster.nodes() {
            dp.push_node(&node.class);
        }
        dp.sync_view();
        dp
    }

    /// The configured knobs.
    pub fn config(&self) -> DataPlaneConfig {
        self.cfg
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
    fn pool(&self, idx: usize, kind: u8) -> &BandwidthPool {
        if kind == TOR {
            &self.tor[idx]
        } else {
            &self.pools[idx].pools[kind as usize]
        }
    }

    fn pool_mut(&mut self, idx: usize, kind: u8) -> &mut BandwidthPool {
        if kind == TOR {
            &mut self.tor[idx]
        } else {
            &mut self.pools[idx].pools[kind as usize]
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
        let scale = self.cfg.bandwidth_scale;
        let pool = |gbps: f64| BandwidthPool {
            capacity: gbps * scale,
            members: 0,
        };
        self.pools.push(NodePools {
            pools: [
                pool(class.pcie_in_gbps),
                pool(class.pcie_out_gbps),
                pool(class.nvlink_gbps),
            ],
        });
        self.staging.push(Staging {
            capacity_mb: class.staging_mb * self.cfg.staging_scale,
            used_mb: 0.0,
            queue: VecDeque::new(),
        });
        self.stats.push(NodeTransferStats::default());
    }

    /// Admits the pre-exec flow of a freshly dispatched batch at `now`
    /// (the dispatch instant).
    pub fn begin(&mut self, req: TransferReq, now: SimTime) -> Admission {
        self.batched_small += req.batched_small as u64;
        let task = req.task;
        let dst = req.dst;
        let staged = req.remote_mb;
        self.flows.insert(
            task,
            Flow {
                gen: 0,
                req,
                dispatched_at: now,
                state: FlowState::Queued,
            },
        );
        let admitted = staged <= 0.0 || {
            let s = &self.staging[dst];
            s.queue.is_empty() && s.fits(staged)
        };
        let out = if admitted {
            self.reserve_staging(dst, staged);
            let (gen, finish, replans) = self.activate(task, now);
            Admission::Active {
                gen,
                finish,
                replans,
            }
        } else {
            self.staging[dst].queue.push_back(task);
            self.stats[dst].queued += 1;
            Admission::Queued
        };
        self.sync_view();
        out
    }

    /// Handles a `TransferDue(task, gen)` event. Returns `None` when the
    /// generation is stale (the flow was re-planned after this event was
    /// scheduled); otherwise the flow is complete — release its
    /// resources, re-plan affected flows, and activate queued ones.
    pub fn on_due(&mut self, task: u64, gen: u64, now: SimTime) -> Option<DueOutcome> {
        match self.flows.get(&task) {
            Some(f) if f.gen == gen && matches!(f.state, FlowState::Active(_)) => {}
            _ => return None,
        }
        let flow = self.flows.remove(&task).expect("flow checked present");
        let FlowState::Active(active) = flow.state else {
            unreachable!("flow checked active")
        };
        let dst = flow.req.dst;
        let staged = flow.req.remote_mb;
        for &(idx, kind) in &active.pools {
            self.pool_mut(idx, kind).members -= 1;
        }
        self.release_staging(dst, staged);
        self.stats[dst].completed += 1;
        let mut out = DueOutcome {
            elapsed_ms: now.saturating_since(flow.dispatched_at).as_ms(),
            node: dst,
            mb: flow.req.total_mb(),
            replans: self.recompute_members(&active.pools, now, u64::MAX),
            activated: Vec::new(),
        };
        // Freed staging space activates waiting flows FIFO; each
        // activation can in turn squeeze shares, so re-plans chain.
        while let Some(&head) = self.staging[dst].queue.front() {
            let mb = self.flows[&head].req.remote_mb;
            if !self.staging[dst].fits(mb) {
                break;
            }
            self.staging[dst].queue.pop_front();
            self.reserve_staging(dst, mb);
            let total = self.flows[&head].req.total_mb();
            let (gen, finish, replans) = self.activate(head, now);
            out.replans.extend(replans);
            out.activated.push(Activation {
                task: head,
                gen,
                finish,
                node: dst,
                mb: total,
            });
        }
        self.sync_view();
        Some(out)
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
    fn activate(&mut self, task: u64, now: SimTime) -> (u64, SimTime, Vec<Replan>) {
        let flow = self.flows.get_mut(&task).expect("activating a known flow");
        let req = &flow.req;
        let mut pools: Vec<(usize, u8)> = Vec::new();
        if req.work_ms > 0.0 {
            if req.remote_mb > 0.0 {
                pools.push((req.dst, PCIE_IN));
                for &src in &req.remote_srcs {
                    pools.push((src, PCIE_OUT));
                }
                // Cross-server producers additionally contend for the
                // ToR uplinks on both ends. Intra-server and gateway
                // traffic joins no ToR pool, so a topology cluster with
                // purely local routing shares exactly the flat pool set.
                if let Some(map) = &self.servers {
                    let dst_srv = map.server_of(NodeId(req.dst as u32));
                    let mut cross: Vec<usize> = Vec::new();
                    for &src in &req.remote_srcs {
                        if let Some(s) = map.server_of(NodeId(src as u32)) {
                            if Some(s) != dst_srv && !cross.contains(&s) {
                                cross.push(s);
                            }
                        }
                    }
                    if !cross.is_empty() {
                        if let Some(d) = dst_srv {
                            pools.push((d, TOR));
                        }
                        for s in cross {
                            pools.push((s, TOR));
                        }
                    }
                }
            }
            if req.local_mb > 0.0 {
                pools.push((req.dst, NVLINK));
            }
        }
        let demand = if req.work_ms > 0.0 {
            req.total_mb() / req.work_ms
        } else {
            0.0
        };
        let (base_ms, work_ms, scalar_total_ms) = (req.base_ms, req.work_ms, req.scalar_total_ms);
        let total_mb = req.total_mb();
        let cross_mb = req.cross_mb;
        let dst = req.dst;
        flow.gen += 1;
        let gen = flow.gen;
        for &(idx, kind) in &pools {
            self.pool_mut(idx, kind).members += 1;
        }
        let rho = self.rho_of(&pools, demand);
        // ρ = 1 reproduces the scalar pre-exec window *bitwise*: the
        // f64 sum is grouped exactly as the classic model groups it.
        let finish = if rho == 1.0 {
            now + SimTime::from_ms(scalar_total_ms)
        } else {
            now + SimTime::from_ms(base_ms + work_ms / rho)
        };
        let flow = self.flows.get_mut(&task).expect("flow still present");
        flow.state = FlowState::Active(ActiveFlow {
            rho,
            demand,
            base_left: base_ms,
            work_left: work_ms,
            last_update: now,
            pools: pools.clone(),
        });
        self.cross_mb += cross_mb;
        let st = &mut self.stats[dst];
        st.started += 1;
        st.mb += total_mb;
        for &(idx, kind) in &pools {
            let members = self.pool(idx, kind).members;
            // ToR members peak on the destination node's counter (the
            // server table has no per-node stats row).
            let stat_node = if kind == TOR { dst } else { idx };
            let peak = &mut self.stats[stat_node].peak_active;
            *peak = (*peak).max(members);
        }
        let replans = self.recompute_members(&pools, now, task);
        (gen, finish, replans)
    }

    /// Re-plans every active flow (except `skip`) sharing any of
    /// `touched`, in task-id order. Only a bitwise ρ change re-plans —
    /// an unchanged share leaves the planned finish untouched.
    fn recompute_members(
        &mut self,
        touched: &[(usize, u8)],
        now: SimTime,
        skip: u64,
    ) -> Vec<Replan> {
        let affected: Vec<u64> = self
            .flows
            .iter()
            .filter(|(&id, f)| {
                id != skip
                    && match &f.state {
                        FlowState::Active(a) => a.pools.iter().any(|p| touched.contains(p)),
                        FlowState::Queued => false,
                    }
            })
            .map(|(&id, _)| id)
            .collect();
        let mut replans = Vec::new();
        for id in affected {
            let (pools, demand) = {
                let FlowState::Active(a) = &self.flows[&id].state else {
                    unreachable!("affected flows are active")
                };
                (a.pools.clone(), a.demand)
            };
            let rho = self.rho_of(&pools, demand);
            let flow = self.flows.get_mut(&id).expect("affected flow present");
            let FlowState::Active(a) = &mut flow.state else {
                unreachable!("affected flows are active")
            };
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
            flow.gen += 1;
            let finish = now + SimTime::from_ms(a.base_left + a.work_left / rho);
            self.replans += 1;
            replans.push((id, flow.gen, finish));
        }
        replans
    }

    /// The progress rate of a flow with `demand` MB/ms across `pools`:
    /// `min(1, min_pool(share) / demand)`.
    fn rho_of(&self, pools: &[(usize, u8)], demand: f64) -> f64 {
        if pools.is_empty() || demand <= 0.0 {
            return 1.0;
        }
        let min_share = pools
            .iter()
            .map(|&(idx, kind)| self.pool(idx, kind).share())
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
        for i in 0..self.pools.len() {
            let p = &self.pools[i].pools;
            let s = &self.staging[i];
            self.view.nodes.push(NodeLoad {
                active_in: p[PCIE_IN as usize].members,
                active_out: p[PCIE_OUT as usize].members,
                active_nvlink: p[NVLINK as usize].members,
                queued: s.queue.len() as u32,
                staging_used_mb: s.used_mb,
                staging_cap_mb: s.capacity_mb,
                pcie_in_capacity: p[PCIE_IN as usize].capacity,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
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

    fn plane(cfg: DataPlaneConfig, classes: &[NodeClass]) -> DataPlane {
        let spec = ClusterSpec {
            name: "test".into(),
            nodes: classes.to_vec(),
            topology: None,
        };
        DataPlane::new(cfg, &Cluster::from_spec(&spec), None)
    }

    /// A 4-node plane grouped 2-per-server with a `tor_gbps` ToR uplink.
    fn topo_plane(tor_gbps: f64) -> DataPlane {
        let class = NodeClass::a100().with_bandwidth(10.0, 10.0, 10.0);
        let spec = ClusterSpec {
            name: "test".into(),
            nodes: vec![class.clone(), class.clone(), class.clone(), class],
            topology: Some(ServerTopology::new(2, tor_gbps)),
        };
        DataPlane::new(
            DataPlaneConfig::default(),
            &Cluster::from_spec(&spec),
            spec.topology,
        )
    }

    /// A remote flow into node 0 whose demand saturates a `capacity`
    /// MB/ms ingress solo: `total_mb / work_ms == capacity`.
    fn req(task: u64, total_mb: f64, work_ms: f64) -> TransferReq {
        TransferReq {
            task,
            dst: 0,
            remote_srcs: vec![1],
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

    #[test]
    fn solo_flow_matches_scalar_time() {
        // Capacity 10 MB/ms, demand 10 MB/ms: solo ρ = 1, finish is the
        // scalar expression verbatim.
        let class = NodeClass::a100().with_bandwidth(10.0, 10.0, 10.0);
        let mut dp = plane(DataPlaneConfig::default(), &[class.clone(), class]);
        let adm = dp.begin(req(1, 100.0, 10.0), SimTime::ZERO);
        assert_eq!(finish_of(&adm), SimTime::from_ms(10.0));
        assert!(matches!(adm, Admission::Active { ref replans, .. } if replans.is_empty()));
    }

    #[test]
    fn two_flows_on_one_pool_halve_each_other() {
        let class = NodeClass::a100().with_bandwidth(10.0, 10.0, 10.0);
        let mut dp = plane(DataPlaneConfig::default(), &[class.clone(), class]);
        // Flow 1 saturates ingress solo (ρ = 1, finish at 10 ms).
        let a1 = dp.begin(req(1, 100.0, 10.0), SimTime::ZERO);
        assert_eq!(finish_of(&a1), SimTime::from_ms(10.0));
        // Flow 2 joins at t = 4: both now get half the pool (ρ = ½).
        let a2 = dp.begin(req(2, 100.0, 10.0), SimTime::from_ms(4.0));
        // Flow 2 runs its whole 10 ms work window at ½ rate → 20 ms.
        assert_eq!(finish_of(&a2), SimTime::from_ms(24.0));
        // Flow 1 drained 4 ms at full rate; 6 ms left doubles to 12.
        let Admission::Active { replans, .. } = a2 else {
            panic!("flow 2 must activate")
        };
        assert_eq!(replans, vec![(1, 2, SimTime::from_ms(16.0))]);
        // Flow 1's original event at 10 ms is now stale.
        assert!(dp.on_due(1, 1, SimTime::from_ms(10.0)).is_none());
        // Its re-planned finish completes and restores flow 2 to full
        // rate: 8 ms of work left at ½ becomes 4 ms.
        let out = dp.on_due(1, 2, SimTime::from_ms(16.0)).expect("completes");
        assert_eq!(out.replans, vec![(2, 2, SimTime::from_ms(20.0))]);
        assert!(dp.on_due(2, 2, SimTime::from_ms(20.0)).is_some());
        let s = dp.summary();
        assert_eq!((s.started, s.completed, s.replans), (2, 2, 2));
    }

    #[test]
    fn infinite_bandwidth_never_replans() {
        let cfg = DataPlaneConfig {
            bandwidth_scale: 1e12,
            staging_scale: 1e12,
            ..DataPlaneConfig::default()
        };
        let class = NodeClass::t4();
        let mut dp = plane(cfg, &[class.clone(), class]);
        for task in 0..50u64 {
            let adm = dp.begin(req(task, 500.0, 25.0), SimTime::ZERO);
            assert_eq!(finish_of(&adm), SimTime::from_ms(25.0));
            let Admission::Active { replans, .. } = adm else {
                panic!("must activate")
            };
            assert!(replans.is_empty(), "ρ stays 1.0 at infinite capacity");
        }
        assert_eq!(dp.summary().replans, 0);
    }

    #[test]
    fn staging_backpressure_delays_never_drops() {
        let class = NodeClass::a100()
            .with_bandwidth(10.0, 10.0, 10.0)
            .with_staging_mb(100.0);
        let mut dp = plane(DataPlaneConfig::default(), &[class.clone(), class]);
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
        let out = dp.on_due(1, 1, SimTime::from_ms(8.0)).expect("completes");
        assert_eq!(out.activated.len(), 1);
        let act = &out.activated[0];
        assert_eq!((act.task, act.finish), (2, SimTime::from_ms(16.0)));
        assert!(dp.on_due(2, act.gen, act.finish).is_some());
        let s = dp.summary();
        assert_eq!((s.started, s.completed, s.queued), (2, 2, 1));
        assert_eq!(s.peak_staging_mb, 80.0);
    }

    #[test]
    fn oversized_reservation_waits_for_an_empty_buffer() {
        let class = NodeClass::a100()
            .with_bandwidth(10.0, 10.0, 10.0)
            .with_staging_mb(50.0);
        let mut dp = plane(DataPlaneConfig::default(), &[class.clone(), class]);
        let _ = dp.begin(req(1, 40.0, 4.0), SimTime::ZERO);
        // 120 MB exceeds the whole buffer: queued, not dropped…
        assert!(matches!(
            dp.begin(req(2, 120.0, 12.0), SimTime::ZERO),
            Admission::Queued
        ));
        // …and admitted the moment the buffer is empty.
        let out = dp.on_due(1, 1, SimTime::from_ms(4.0)).expect("completes");
        assert_eq!(out.activated.len(), 1);
        assert_eq!(out.activated[0].task, 2);
    }

    #[test]
    fn join_grows_the_plane() {
        let class = NodeClass::a100();
        let mut dp = plane(DataPlaneConfig::default(), &[class]);
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
    ) -> TransferReq {
        TransferReq {
            remote_srcs: vec![src],
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
        assert!(dp.on_due(1, 1, SimTime::from_ms(10.0)).is_some());
        // Cross-server (2 → 0) shares both ToR uplinks: the 5 MB/ms
        // ToR halves a 10 MB/ms demand → ρ = ½, 10 ms of work → 20 ms.
        let adm = dp.begin(req_edge(2, 2, 0, 100.0, 10.0, true), SimTime::ZERO);
        assert_eq!(finish_of(&adm), SimTime::from_ms(20.0));
        assert!(dp.on_due(2, 1, SimTime::from_ms(20.0)).is_some());
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
        let Admission::Active { replans, .. } = a2 else {
            panic!("flow 2 must activate")
        };
        assert_eq!(replans, vec![(1, 2, SimTime::from_ms(16.0))]);
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
}
