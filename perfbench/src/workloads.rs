//! The three benchmark workloads: what the simulated platform is given.
//!
//! A run of seed `s` simulates [`windows`] independent arrival windows
//! of [`TRACE_MINUTES`] each; window `i` uses seed [`window_seed`]`(s, i)`
//! for its arrival schedule and the platform's execution noise. The
//! cluster and churn script do not depend on the seed. `azure_replay` is
//! the `scale/replay` configuration of `cargo bench --bench scale` over
//! its 20 smoke-mode trace minutes, without rate bursts.

use esg_core::{BandwidthAwarePacking, EsgScheduler};
use esg_model::{
    standard_app_ids, ChurnPlan, ClusterSpec, NodeClass, NodeId, SloClass, TrafficShape,
    WorkloadClass,
};
use esg_profile::TransferModel;
use esg_sim::{BandwidthPackingConfig, DataPlaneConfig, PolicyStack, SimConfig, SimEnv};
use esg_workload::{shaped_stream, ArrivalStream, AzureLikeTrace, Workload};

/// Trace minutes every workload replays. Long enough that each run
/// completes well over 10 000 invocations (≥ 10 samples beyond p99.9).
pub const TRACE_MINUTES: usize = 20;
const WINDOW_MS: f64 = TRACE_MINUTES as f64 * 60_000.0;

/// Seed stride between the windows of one run: seeds below it never
/// share a window.
const WINDOW_SEED_STRIDE: u64 = 1_000_003;

/// `strict_churn`: simulated gap between a drain and its replacement's
/// join, ms.
const JOIN_GAP_MS: f64 = 10_000.0;
/// `strict_churn`: stride through the live node list between drains
/// (coprime with 16, so consecutive drains hit different node classes).
const DRAIN_STRIDE: usize = 5;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Streamed Azure-shaped replay on the paper cluster, classic ESG.
    AzureReplay,
    /// Strict SLOs, light steady load, mixed-MIG cluster under rolling
    /// churn.
    StrictChurn,
    /// Contended data plane on a split fabric, bandwidth-aware packing.
    FabricContention,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::AzureReplay, Kind::StrictChurn, Kind::FabricContention];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::AzureReplay => "azure_replay",
            Kind::StrictChurn => "strict_churn",
            Kind::FabricContention => "fabric_contention",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Independent windows an end-to-end run simulates: enough that the mean
/// of per-window tail latency varies little from seed to seed.
/// `strict_churn` windows are small, so it takes more of them.
pub fn windows(kind: Kind) -> u64 {
    match kind {
        Kind::AzureReplay | Kind::FabricContention => 7,
        Kind::StrictChurn => 9,
    }
}

/// Host seconds one untraced simulation of a window took on the baseline
/// commit (release build, 2.1 GHz Xeon vCPU). An end-to-end run turns
/// `--seconds` into a fixed number of simulations with it, so a faster
/// build finishes sooner but takes its minima over as many samples.
pub fn baseline_window_s(kind: Kind) -> f64 {
    match kind {
        Kind::AzureReplay | Kind::FabricContention => 1.7,
        Kind::StrictChurn => 0.26,
    }
}

/// The seed of window `i` of a run with seed `seed` (window 0 is the
/// run seed itself).
pub fn window_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i.wrapping_mul(WINDOW_SEED_STRIDE))
}

/// Where a run's arrivals come from.
pub enum Arrivals {
    /// Pulled lazily by `Simulation::from_stream`.
    Streamed(Box<ArrivalStream>),
    /// Materialised up front and replayed by `Simulation::new`.
    Materialised(Workload),
}

/// Everything the platform receives for one run.
pub struct Inputs {
    /// Catalog, apps, profiles, tariffs and SLO class.
    pub env: SimEnv,
    /// Platform knobs, cluster and churn script.
    pub cfg: SimConfig,
    /// The arrival schedule.
    pub arrivals: Arrivals,
}

/// The fresh arrival stream of `kind` at `seed`. Class streams are
/// infinite; [`window_ms`] bounds them.
pub fn stream(kind: Kind, seed: u64) -> ArrivalStream {
    let apps = standard_app_ids();
    match kind {
        // `scale/replay`'s trace without its 2 %-per-minute 3x bursts:
        // whether a 20-minute window holds one is a coin flip per seed,
        // and one burst minute moves the window's GSLO and p99.9 by more
        // than every bound of the benchmark.
        Kind::AzureReplay => AzureLikeTrace {
            mean_per_minute: 2_500.0,
            period_minutes: 120.0,
            burst_probability: 0.0,
            seed,
            ..AzureLikeTrace::default()
        }
        .stream(apps, Some(TRACE_MINUTES)),
        Kind::StrictChurn => shaped_stream(WorkloadClass::Light, TrafficShape::Steady, &apps, seed),
        Kind::FabricContention => {
            shaped_stream(WorkloadClass::Normal, TrafficShape::Steady, &apps, seed)
        }
    }
}

/// The arrival window a class stream is cut to, ms (`None`: the stream
/// is bounded itself).
pub fn window_ms(kind: Kind) -> Option<f64> {
    match kind {
        Kind::AzureReplay => None,
        Kind::StrictChurn | Kind::FabricContention => Some(WINDOW_MS),
    }
}

/// Builds the platform inputs of `kind` at `seed`.
pub fn inputs(kind: Kind, seed: u64) -> Inputs {
    let base = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let arrivals = match window_ms(kind) {
        None => Arrivals::Streamed(Box::new(stream(kind, seed))),
        Some(ms) => Arrivals::Materialised(stream(kind, seed).until_ms(ms)),
    };
    match kind {
        Kind::AzureReplay => Inputs {
            env: SimEnv::standard(SloClass::Moderate),
            cfg: base,
            arrivals,
        },
        Kind::StrictChurn => {
            let spec = ClusterSpec::mixed_mig();
            let churn = rolling_churn(&spec);
            Inputs {
                env: SimEnv::standard(SloClass::Strict),
                cfg: SimConfig {
                    cluster: Some(spec),
                    churn,
                    ..base
                },
                arrivals,
            }
        }
        Kind::FabricContention => {
            let mut env = SimEnv::standard(SloClass::Moderate);
            env.transfer = transfer_bound_tariffs();
            Inputs {
                env,
                cfg: SimConfig {
                    cluster: Some(split_fabric()),
                    data_plane: Some(DataPlaneConfig::default()),
                    ..base
                },
                arrivals,
            }
        }
    }
}

/// The scheduler under test: ESG, with bandwidth-aware packing on the
/// contended fabric.
pub fn scheduler(kind: Kind) -> EsgScheduler {
    match kind {
        Kind::AzureReplay | Kind::StrictChurn => EsgScheduler::new(),
        Kind::FabricContention => EsgScheduler::new().with_policy(PolicyStack::new().with(
            BandwidthAwarePacking::new(BandwidthPackingConfig {
                contention_bias: 0.6,
                defer_queue_depth: 6,
                ..BandwidthPackingConfig::default()
            }),
        )),
    }
}

/// One drain per trace minute (from minute 1), each followed
/// [`JOIN_GAP_MS`] later by a join of the same class. Drains walk the
/// live node list with [`DRAIN_STRIDE`]; replacements join the list.
fn rolling_churn(spec: &ClusterSpec) -> ChurnPlan {
    let mut live: Vec<(NodeId, NodeClass)> = spec
        .nodes
        .iter()
        .enumerate()
        .map(|(i, c)| (NodeId(i as u32), c.clone()))
        .collect();
    let mut plan = ChurnPlan::none();
    for minute in 1..TRACE_MINUTES {
        let at = minute as f64 * 60_000.0;
        let (node, class) = live.remove((minute * DRAIN_STRIDE) % live.len());
        plan = plan.drain(at, node).join(at + JOIN_GAP_MS, class.clone());
        // Joined nodes take the next ids in join order.
        let joined = NodeId((spec.nodes.len() + minute - 1) as u32);
        live.push((joined, class));
    }
    plan
}

/// Four A100s on a narrow PCIe fabric (0.2 MB/ms, 32 MB staging) beside
/// four stock A100s: the `transfer` bench's split fabric.
fn split_fabric() -> ClusterSpec {
    let narrow = NodeClass::a100()
        .with_bandwidth(0.2, 0.2, 300.0)
        .with_staging_mb(32.0);
    ClusterSpec::new("split-fabric")
        .with(narrow, 4)
        .with(NodeClass::a100(), 4)
}

/// The `transfer` bench's tariffs: paper-grade remote rates with a
/// doubled intra-node rate, so the pools, not the scalar hand-off,
/// bound the run.
fn transfer_bound_tariffs() -> TransferModel {
    TransferModel {
        local_base_ms: 0.2,
        local_ms_per_mb: 1.0,
        remote_base_ms: 5.0,
        remote_ms_per_mb: 10.0,
    }
}
