//! Heterogeneous-cluster vocabulary: node classes, cluster specs, and
//! cluster-churn plans.
//!
//! The paper's testbed is 16 identical invokers (Table 2: 16 vCPUs and an
//! A100 split into 7 MIG vGPUs per node), but Appendix A notes the
//! algorithms tolerate heterogeneous hardware. These types describe such
//! clusters declaratively: a [`NodeClass`] names a GPU flavor, its vGPU
//! slice count, vCPU count, a latency scale factor, and per-flavor
//! pricing; a [`ClusterSpec`] is an ordered multiset of classes; a
//! [`ChurnPlan`] scripts node drains and joins at simulated times.
//!
//! Everything here is plain data — `esg-sim` turns a spec into live nodes
//! and applies churn events inside its event loop.

use crate::ids::NodeId;
use crate::resources::Resources;

/// A GPU flavor a node class can carry.
///
/// Flavors matter only through the scale factors on the owning
/// [`NodeClass`]; the enum exists so reports and axes can name hardware
/// the way the related work does (HAS-GPU's mixed fine-grained GPUs,
/// FaSTube's topology-sensitive transfer paths).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GpuFlavor {
    /// NVIDIA A100 with MIG partitioning — the paper's Table-2 hardware.
    A100,
    /// NVIDIA V100: no MIG; vGPUs model MPS time slices.
    V100,
    /// NVIDIA T4: small inference card, coarse slices.
    T4,
}

impl std::fmt::Display for GpuFlavor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GpuFlavor::A100 => "a100",
            GpuFlavor::V100 => "v100",
            GpuFlavor::T4 => "t4",
        };
        f.write_str(s)
    }
}

/// One class of invoker node in a (possibly heterogeneous) cluster.
#[derive(Clone, PartialEq, Debug)]
pub struct NodeClass {
    /// Display name (axis labels, reports).
    pub name: String,
    /// GPU flavor backing the vGPU slices.
    pub gpu: GpuFlavor,
    /// vGPU slices per node (7 MIG partitions on the paper's A100s).
    pub vgpu_slices: u32,
    /// vCPUs per node.
    pub vcpus: u32,
    /// Execution-latency scale factor relative to the Table-2 A100
    /// baseline: profiles are measured on the baseline, so a task on this
    /// class runs `speed ×` the profiled latency (1.0 = baseline, larger
    /// is slower).
    pub speed: f64,
    /// Scale factor on *remote* transfer latency for hand-offs touching
    /// this node (per-class topology: a T4 box on a slower link pays more
    /// per MB than an A100 box on the fast fabric).
    pub link_scale: f64,
    /// Per-flavor price multiplier on the §4.1 resource prices.
    pub price_scale: f64,
    /// PCIe ingress bandwidth, GB/s (tensors arriving from remote nodes
    /// or the gateway; 1 GB/s ≡ 1 MB/ms). Only the contended data plane
    /// (`esg-sim`'s `dataplane`) reads it; the scalar transfer model
    /// ignores it.
    pub pcie_in_gbps: f64,
    /// PCIe egress bandwidth, GB/s (tensors leaving for remote consumers).
    pub pcie_out_gbps: f64,
    /// Intra-server NVLink-class bandwidth, GB/s (same-node stage
    /// hand-offs between co-located containers).
    pub nvlink_gbps: f64,
    /// Host-memory staging buffer for in-flight inter-stage tensors, MB.
    /// Transfers that cannot reserve staging queue (FIFO) until space
    /// frees; they are never dropped.
    pub staging_mb: f64,
}

impl NodeClass {
    /// The paper's Table-2 node: 16 vCPUs, an A100 in 7 MIG slices,
    /// baseline speed, fabric link, baseline pricing.
    pub fn a100() -> NodeClass {
        NodeClass {
            name: "a100".into(),
            gpu: GpuFlavor::A100,
            vgpu_slices: 7,
            vcpus: 16,
            speed: 1.0,
            link_scale: 1.0,
            price_scale: 1.0,
            pcie_in_gbps: 25.0,
            pcie_out_gbps: 25.0,
            nvlink_gbps: 300.0,
            staging_mb: 32_768.0,
        }
    }

    /// A V100 node: same vCPU count, 4 coarser vGPU slices, ~40% slower
    /// per profiled latency, cheaper per slice.
    pub fn v100() -> NodeClass {
        NodeClass {
            name: "v100".into(),
            gpu: GpuFlavor::V100,
            vgpu_slices: 4,
            vcpus: 16,
            speed: 1.4,
            link_scale: 1.0,
            price_scale: 0.7,
            pcie_in_gbps: 12.0,
            pcie_out_gbps: 12.0,
            nvlink_gbps: 150.0,
            staging_mb: 16_384.0,
        }
    }

    /// A T4 node: 8 vCPUs, 2 big slices, ~2.2× the baseline latency, on a
    /// slower link, at a fraction of the price.
    pub fn t4() -> NodeClass {
        NodeClass {
            name: "t4".into(),
            gpu: GpuFlavor::T4,
            vgpu_slices: 2,
            vcpus: 8,
            speed: 2.2,
            link_scale: 1.25,
            price_scale: 0.35,
            pcie_in_gbps: 8.0,
            pcie_out_gbps: 8.0,
            nvlink_gbps: 32.0,
            staging_mb: 8_192.0,
        }
    }

    /// A custom class over explicit capacities at baseline scale factors
    /// (the class of every node of `Cluster::new` and
    /// [`ClusterSpec::homogeneous`]).
    pub fn custom(resources: Resources) -> NodeClass {
        NodeClass {
            name: format!("custom-{resources}"),
            gpu: GpuFlavor::A100,
            vgpu_slices: resources.vgpus,
            vcpus: resources.vcpus,
            speed: 1.0,
            link_scale: 1.0,
            price_scale: 1.0,
            pcie_in_gbps: 25.0,
            pcie_out_gbps: 25.0,
            nvlink_gbps: 300.0,
            staging_mb: 32_768.0,
        }
    }

    /// Renames the class (distinct axis labels for tweaked variants).
    pub fn named(mut self, name: impl Into<String>) -> NodeClass {
        self.name = name.into();
        self
    }

    /// Overrides the latency scale factor.
    pub fn with_speed(mut self, speed: f64) -> NodeClass {
        assert!(speed > 0.0, "speed factor must be positive");
        self.speed = speed;
        self
    }

    /// Overrides the data-plane bandwidths (PCIe in/out and NVLink-class
    /// intra-server), GB/s.
    pub fn with_bandwidth(mut self, pcie_in: f64, pcie_out: f64, nvlink: f64) -> NodeClass {
        assert!(
            pcie_in > 0.0 && pcie_out > 0.0 && nvlink > 0.0,
            "bandwidths must be positive"
        );
        self.pcie_in_gbps = pcie_in;
        self.pcie_out_gbps = pcie_out;
        self.nvlink_gbps = nvlink;
        self
    }

    /// Overrides the host-memory staging buffer, MB.
    pub fn with_staging_mb(mut self, staging_mb: f64) -> NodeClass {
        assert!(staging_mb > 0.0, "staging buffer must be positive");
        self.staging_mb = staging_mb;
        self
    }

    /// The class's per-node resource vector.
    #[inline]
    pub fn resources(&self) -> Resources {
        Resources::new(self.vcpus, self.vgpu_slices)
    }
}

impl std::fmt::Display for NodeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.name, self.resources())
    }
}

/// The server/rack level of a cluster: consecutive nodes group into
/// physical servers that share a top-of-rack uplink.
///
/// The per-node PCIe/NVLink bandwidths on [`NodeClass`] describe
/// *endpoint* links; `ServerTopology` adds the level above them —
/// `NodeId(i)` lives in server `i / gpus_per_server`, intra-server
/// hand-offs ride the endpoint pools alone, and cross-server hand-offs
/// additionally share the server pair's ToR pools (`tor_gbps` each).
/// The contended data plane (`esg-sim`'s `dataplane`) is the only
/// consumer; without it the topology is inert placement vocabulary for
/// server-aware schedulers.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ServerTopology {
    /// GPUs (nodes) per server; consecutive `NodeId`s group together.
    /// Must be ≥ 1 — a run rejects 0 as an `InvalidKnob`.
    pub gpus_per_server: usize,
    /// Shared top-of-rack uplink bandwidth per server, GB/s
    /// (1 GB/s ≡ 1 MB/ms). Every cross-server flow touching the server —
    /// in either direction — shares this pool fairly.
    pub tor_gbps: f64,
}

impl ServerTopology {
    /// A topology of `gpus_per_server` nodes per server behind a
    /// `tor_gbps` top-of-rack uplink.
    pub fn new(gpus_per_server: usize, tor_gbps: f64) -> ServerTopology {
        ServerTopology {
            gpus_per_server,
            tor_gbps,
        }
    }

    /// The server index hosting `node` (id-order grouping). Callers must
    /// have validated `gpus_per_server > 0`.
    #[inline]
    pub fn server_of(&self, node: usize) -> usize {
        node / self.gpus_per_server.max(1)
    }

    /// Number of servers covering `nodes` nodes (last server may be
    /// partial).
    pub fn num_servers(&self, nodes: usize) -> usize {
        nodes.div_ceil(self.gpus_per_server.max(1))
    }
}

/// A declarative cluster: a name plus one [`NodeClass`] per node, in
/// [`NodeId`] order.
#[derive(Clone, PartialEq, Debug)]
pub struct ClusterSpec {
    /// Display name (sweep-axis labels, reports).
    pub name: String,
    /// One class per node; `NodeId(i)` gets `nodes[i]`.
    pub nodes: Vec<NodeClass>,
    /// Optional server/rack grouping. `None` (the default everywhere) is
    /// the flat pre-topology cluster: no ToR pools, no server locality.
    pub topology: Option<ServerTopology>,
}

impl ClusterSpec {
    /// An empty spec to be filled with [`with`](Self::with).
    pub fn new(name: impl Into<String>) -> ClusterSpec {
        ClusterSpec {
            name: name.into(),
            nodes: Vec::new(),
            topology: None,
        }
    }

    /// Appends `count` nodes of `class`.
    pub fn with(mut self, class: NodeClass, count: usize) -> ClusterSpec {
        self.nodes.extend(std::iter::repeat_n(class, count));
        self
    }

    /// The paper's homogeneous testbed: 16 × [`NodeClass::a100`].
    pub fn paper() -> ClusterSpec {
        ClusterSpec::new("paper-16xa100").with(NodeClass::a100(), 16)
    }

    /// A mixed-MIG cluster: 8 A100s, 4 V100s, 4 T4s — same node count as
    /// the paper, heterogeneous capacity and speed (HAS-GPU's setting).
    pub fn mixed_mig() -> ClusterSpec {
        ClusterSpec::new("mixed-mig")
            .with(NodeClass::a100(), 8)
            .with(NodeClass::v100(), 4)
            .with(NodeClass::t4(), 4)
    }

    /// A skewed cluster: 4 fast A100s carry most capacity, 12 slow T4s on
    /// slower links pad it out — the placement-hostile case FaaSTube's
    /// topology argument targets.
    pub fn skewed() -> ClusterSpec {
        ClusterSpec::new("skewed")
            .with(NodeClass::a100(), 4)
            .with(NodeClass::t4(), 12)
    }

    /// A homogeneous spec of `count` nodes at explicit capacities.
    pub fn homogeneous(count: usize, per_node: Resources) -> ClusterSpec {
        ClusterSpec::new(format!("{count}x{per_node}")).with(NodeClass::custom(per_node), count)
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the spec has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total cluster capacity.
    pub fn total_resources(&self) -> Resources {
        self.nodes
            .iter()
            .fold(Resources::ZERO, |acc, c| acc + c.resources())
    }

    /// Groups the nodes into servers of `gpus_per_server` behind a
    /// `tor_gbps` top-of-rack uplink each (appends "/srvN" to the name so
    /// sweep axes distinguish topology variants of the same node mix).
    pub fn with_topology(mut self, gpus_per_server: usize, tor_gbps: f64) -> ClusterSpec {
        self.name = format!("{}/srv{gpus_per_server}", self.name);
        self.topology = Some(ServerTopology::new(gpus_per_server, tor_gbps));
        self
    }

    /// The server hosting `node`, when a topology is set.
    pub fn server_of(&self, node: usize) -> Option<usize> {
        self.topology.map(|t| t.server_of(node))
    }

    /// Number of servers under the spec's topology (0 without one).
    pub fn num_servers(&self) -> usize {
        self.topology.map_or(0, |t| t.num_servers(self.nodes.len()))
    }
}

/// One scripted cluster-membership change.
#[derive(Clone, PartialEq, Debug)]
pub enum ChurnEvent {
    /// Node `node` stops accepting new placements at `at_ms`; tasks
    /// already admitted run to completion.
    Drain {
        /// Simulated time of the drain, ms.
        at_ms: f64,
        /// The node to drain.
        node: NodeId,
    },
    /// A new node of `class` joins the cluster at `at_ms` (cold: no warm
    /// containers).
    Join {
        /// Simulated time of the join, ms.
        at_ms: f64,
        /// The class of the joining node.
        class: NodeClass,
    },
}

impl ChurnEvent {
    /// The event's simulated time, ms.
    pub fn at_ms(&self) -> f64 {
        match self {
            ChurnEvent::Drain { at_ms, .. } | ChurnEvent::Join { at_ms, .. } => *at_ms,
        }
    }
}

/// A scripted sequence of cluster-membership changes for one run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ChurnPlan {
    /// The events, in any order (the simulator's event queue orders them
    /// by time).
    pub events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// The empty plan: a static cluster.
    pub fn none() -> ChurnPlan {
        ChurnPlan::default()
    }

    /// True when no churn is scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends a drain of `node` at `at_ms`.
    pub fn drain(mut self, at_ms: f64, node: NodeId) -> ChurnPlan {
        self.events.push(ChurnEvent::Drain { at_ms, node });
        self
    }

    /// Appends a join of a `class` node at `at_ms`.
    pub fn join(mut self, at_ms: f64, class: NodeClass) -> ChurnPlan {
        self.events.push(ChurnEvent::Join { at_ms, class });
        self
    }

    /// A rolling-restart-style plan: drain one node and join a same-class
    /// replacement `gap_ms` later, starting at `start_ms`.
    pub fn rolling_replace(
        start_ms: f64,
        gap_ms: f64,
        node: NodeId,
        class: NodeClass,
    ) -> ChurnPlan {
        ChurnPlan::none()
            .drain(start_ms, node)
            .join(start_ms + gap_ms, class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_matches_table2() {
        let s = ClusterSpec::paper();
        assert_eq!(s.len(), 16);
        assert!(s
            .nodes
            .iter()
            .all(|c| c.resources() == Resources::new(16, 7)));
        assert!(s
            .nodes
            .iter()
            .all(|c| c.speed == 1.0 && c.price_scale == 1.0));
        assert_eq!(s.total_resources(), Resources::new(256, 112));
    }

    #[test]
    fn presets_are_heterogeneous() {
        let m = ClusterSpec::mixed_mig();
        assert_eq!(m.len(), 16);
        let distinct: std::collections::HashSet<&str> =
            m.nodes.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(distinct.len(), 3);
        let s = ClusterSpec::skewed();
        assert_eq!(s.len(), 16);
        assert!(s.nodes[4].speed > s.nodes[0].speed);
        assert!(s.nodes[4].link_scale > s.nodes[0].link_scale);
    }

    #[test]
    fn class_builders() {
        let fast_t4 = NodeClass::t4().with_speed(1.5).named("t4-oc");
        assert_eq!(fast_t4.name, "t4-oc");
        assert_eq!(fast_t4.speed, 1.5);
        assert_eq!(
            NodeClass::custom(Resources::new(8, 4)).resources(),
            Resources::new(8, 4)
        );
        assert_eq!(NodeClass::a100().to_string(), "a100(16c/7g)");
    }

    #[test]
    fn bandwidth_builders_and_flavor_defaults() {
        // Flavors order the same way on every bandwidth axis as on speed.
        let (a, v, t) = (NodeClass::a100(), NodeClass::v100(), NodeClass::t4());
        assert!(a.pcie_in_gbps > v.pcie_in_gbps && v.pcie_in_gbps > t.pcie_in_gbps);
        assert!(a.nvlink_gbps > v.nvlink_gbps && v.nvlink_gbps > t.nvlink_gbps);
        assert!(a.staging_mb > v.staging_mb && v.staging_mb > t.staging_mb);
        let slow = NodeClass::a100()
            .with_bandwidth(2.0, 3.0, 40.0)
            .with_staging_mb(256.0);
        assert_eq!(slow.pcie_in_gbps, 2.0);
        assert_eq!(slow.pcie_out_gbps, 3.0);
        assert_eq!(slow.nvlink_gbps, 40.0);
        assert_eq!(slow.staging_mb, 256.0);
    }

    #[test]
    fn homogeneous_builder() {
        let s = ClusterSpec::homogeneous(4, Resources::new(8, 2));
        assert_eq!(s.len(), 4);
        assert_eq!(s.total_resources(), Resources::new(32, 8));
    }

    #[test]
    fn server_topology_groups_consecutive_nodes() {
        let flat = ClusterSpec::paper();
        assert!(flat.topology.is_none());
        assert_eq!(flat.num_servers(), 0);
        assert_eq!(flat.server_of(3), None);

        let s = ClusterSpec::paper().with_topology(4, 10.0);
        assert_eq!(s.name, "paper-16xa100/srv4");
        assert_eq!(s.num_servers(), 4);
        assert_eq!(s.server_of(0), Some(0));
        assert_eq!(s.server_of(3), Some(0));
        assert_eq!(s.server_of(4), Some(1));
        assert_eq!(s.server_of(15), Some(3));

        // A partial trailing server still counts.
        let odd = ClusterSpec::new("odd")
            .with(NodeClass::t4(), 5)
            .with_topology(2, 10.0);
        assert_eq!(odd.num_servers(), 3);
        assert_eq!(odd.server_of(4), Some(2));
    }

    #[test]
    fn churn_plan_builders() {
        let p = ChurnPlan::none()
            .drain(1000.0, NodeId(3))
            .join(2000.0, NodeClass::t4());
        assert_eq!(p.events.len(), 2);
        assert_eq!(p.events[0].at_ms(), 1000.0);
        assert!(matches!(p.events[1], ChurnEvent::Join { .. }));
        let r = ChurnPlan::rolling_replace(500.0, 250.0, NodeId(0), NodeClass::a100());
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.events[1].at_ms(), 750.0);
        assert!(ChurnPlan::none().is_empty());
    }
}
