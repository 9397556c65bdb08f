//! Transfer-bound sweep: warm-affinity packing vs bandwidth-aware
//! packing on clusters whose data fabric — not their compute — is the
//! bottleneck.
//!
//! The contended GPU data plane (`esg_sim::dataplane`) is enabled on
//! clusters whose PCIe pools are an order of magnitude narrower than
//! the paper's testbed, so inter-stage tensor movement — not the GPUs —
//! decides end-to-end latency. In this regime warm affinity alone is
//! provably wrong: it keeps piling work onto the nodes that already
//! hold warm containers, which are exactly the nodes whose ingress
//! pools are saturated — every extra co-located dispatch dilutes the
//! fair share of every in-flight transfer on that node. Both stacks run
//! `BandwidthAwarePacking`: the warm-affinity row zeroes its contention
//! knobs, the bandwidth-aware row folds live pool occupancy into the
//! same score (and defers queues whose predecessor staging buffers are
//! backed up), trading a warm start for an uncontended pool when the
//! transfer cost outweighs the init saving.
//!
//! Two more cluster cases group the paper's 16 A100s into servers of 4
//! and 8 GPUs behind 0.05 MB/ms top-of-rack uplinks: intra-server
//! hand-offs ride the endpoint pools, cross-server ones additionally
//! squeeze through the ToR pools (`transfer_cross_server_mb`).
//!
//! Artifacts: `BENCH_transfer.{json,csv}` under `bench_results/`, plus
//! the Markdown tables spliced into `EXPERIMENTS.md` between the
//! `<!-- BENCH:transfer:begin/end -->` markers.
//!
//! `ESG_SMOKE=1` shortens the arrival window for CI smoke runs.

use esg_bench::{
    scaled_config, smoke_section, ClusterCase, Col, ExperimentSuite, ScenarioMatrix, SchedSpec,
    Table, RUN_SECONDS,
};
use esg_core::{BandwidthAwarePacking, EsgScheduler};
use esg_model::{ClusterSpec, NodeClass, Scenario, TrafficShape};
use esg_profile::TransferModel;
use esg_sim::{BandwidthPackingConfig, DataPlaneConfig, PolicyStack, SimConfig};

#[rustfmt::skip]
const COLUMNS: [Col; 8] = [
    Col::show("stack", 14).left(),
    Col::show("traffic", 8),
    Col::show("SLO hit %", 10).pct(1),
    Col::show("transfers", 10),
    Col::show("queued", 8),
    Col::show("replans", 9),
    Col::show("moved (MB)", 11).fixed(0),
    Col::show("cross (MB)", 11).fixed(0),
];

/// Paper-grade remote tariffs with a doubled intra-node rate: the
/// transfer-bound regime comes from the *pools* below, not from
/// inflating every scalar hand-off (which would just blow every SLO
/// and flatten the comparison).
fn transfer_bound_tariffs() -> TransferModel {
    TransferModel {
        local_base_ms: 0.2,
        local_ms_per_mb: 1.0,
        remote_base_ms: 5.0,
        remote_ms_per_mb: 10.0,
    }
}

/// The transfer-bound cluster axis: a uniformly narrow fabric (every
/// ingress pool saturates under co-located dispatch), a skewed one
/// (half the nodes have paper-grade links, half are starved — the warm
/// set and the well-connected set diverge quickly), and the paper
/// testbed grouped 4 or 8 GPUs per server behind a 0.05 MB/ms ToR
/// uplink — two orders of magnitude narrower than the endpoint pools,
/// so crossing a server boundary is what a transfer pays for.
fn cluster_cases() -> [ClusterCase; 4] {
    // 0.2 MB/ms ingress/egress sits just above the sweep's steady-state
    // per-node transfer demand: a solo flow runs at full rate, but a
    // handful of co-located dispatches drags every flow on the pool
    // below it — exactly the regime where dispatch *timing* decides
    // whether the fabric stays stable. 32 MB of staging is a few
    // aggregated batches deep, so sustained co-location backs the
    // buffer up and the policy's queue-depth signal actually fires.
    let narrow = NodeClass::a100()
        .with_bandwidth(0.2, 0.2, 300.0)
        .with_staging_mb(32.0);
    let wide = NodeClass::a100();
    [
        ClusterCase::new(ClusterSpec::new("narrow-fabric").with(narrow.clone(), 8)),
        ClusterCase::new(
            ClusterSpec::new("split-fabric")
                .with(narrow, 4)
                .with(wide, 4),
        ),
        ClusterCase::new(ClusterSpec::paper().with_topology(4, 0.05)),
        ClusterCase::new(ClusterSpec::paper().with_topology(8, 0.05)),
    ]
}

/// Warm-affinity-only packing vs the bandwidth-aware stage.
fn variants() -> [SchedSpec; 2] {
    [
        SchedSpec::new("ESG+warm-pack", || {
            Box::new(EsgScheduler::new().with_policy(PolicyStack::new().with(
                BandwidthAwarePacking::new(BandwidthPackingConfig {
                    contention_bias: 0.0,
                    defer_queue_depth: 0,
                    ..BandwidthPackingConfig::default()
                }),
            )))
        }),
        SchedSpec::new("ESG+bw-pack", || {
            // A heavier contention bias than the library default (0.6 vs
            // 0.1) and a deeper defer trigger (6 vs 4): the narrow pools
            // here are an order of magnitude tighter than the defaults
            // assume, and a too-eager defer threshold feeds back on
            // itself (defer → jobs pile up → staging never drains).
            Box::new(EsgScheduler::new().with_policy(PolicyStack::new().with(
                BandwidthAwarePacking::new(BandwidthPackingConfig {
                    contention_bias: 0.6,
                    defer_queue_depth: 6,
                    ..BandwidthPackingConfig::default()
                }),
            )))
        }),
    ]
}

fn main() {
    let smoke = smoke_section("Transfer-bound packing: warm affinity vs bandwidth awareness");
    let run_seconds = if smoke { 3.0 } else { RUN_SECONDS };

    let matrix = ScenarioMatrix::new()
        .schedulers(variants())
        .scenarios([Scenario::MODERATE_NORMAL])
        .clusters(cluster_cases())
        .traffic([TrafficShape::Steady, TrafficShape::Bursty]);
    assert_eq!(matrix.len(), 2 * 4 * 2, "2 stacks × 4 clusters × 2 shapes");

    let sweep = ExperimentSuite::new("transfer", matrix)
        .with_sim_config(SimConfig {
            data_plane: Some(DataPlaneConfig::default()),
            ..scaled_config(run_seconds)
        })
        .with_transfer(transfer_bound_tariffs())
        .with_run_seconds(run_seconds)
        .run();
    sweep.write_artifacts();
    sweep.write_experiments_section();

    let mut table = Table::new(&COLUMNS);
    for case in cluster_cases() {
        table.group(format!("cluster {}", case.name));
        for cell in sweep.results.iter().filter(|c| c.cluster == case.name) {
            let t = &cell.result.transfers;
            let hit = cell.result.avg_hit_rate();
            table.row([
                cell.scheduler.as_str().into(),
                cell.traffic.to_string().into(),
                hit.into(),
                t.started.into(),
                t.queued.into(),
                t.replans.into(),
                t.total_mb.into(),
                t.cross_server_mb.into(),
            ]);
        }
    }
    table.print();

    // Every cell must actually exercise the data plane — a transfer
    // bench whose flows never contend would gate nothing — and every
    // topology cluster must route bytes through its ToR pools (summed
    // over its cells: a 3 s smoke cell on 8-GPU servers may stay local).
    for case in cluster_cases().iter().filter(|c| c.spec.topology.is_some()) {
        let cross: f64 = sweep
            .results
            .iter()
            .filter(|c| c.cluster == case.name)
            .map(|c| c.result.transfers.cross_server_mb)
            .sum();
        assert!(
            cross > 0.0,
            "cluster {} moved nothing across servers",
            case.name
        );
    }
    for cell in &sweep.results {
        assert!(
            cell.result.transfers.started > 0,
            "cell {}/{}/{} started no transfers",
            cell.scheduler,
            cell.cluster,
            cell.traffic
        );
        assert_eq!(
            cell.result.transfers.started, cell.result.transfers.completed,
            "transfers may be delayed, never dropped"
        );
    }

    // Acceptance guard (full runs only; 3 s smoke cells are too noisy):
    // bandwidth-aware packing must be no worse than warm-affinity-only
    // packing on any transfer-bound cell, and strictly better somewhere
    // — the existence proof that warm affinity alone mis-ranks under
    // fabric contention.
    // Cells where both stacks land at 0.0 % (the bursty narrow-fabric
    // cell saturates beyond rescue) tie exactly; every other cell must
    // not lose more than a noise-floor half point.
    let mut worst: f64 = f64::NEG_INFINITY;
    let mut best: f64 = f64::NEG_INFINITY;
    for cell in &sweep.results {
        if cell.scheduler != "ESG+bw-pack" {
            continue;
        }
        let plain = sweep
            .paired("ESG+warm-pack", cell)
            .expect("paired warm-affinity row exists for every cell");
        let gain = cell.result.avg_hit_rate() - plain.result.avg_hit_rate();
        worst = worst.max(-gain);
        best = best.max(gain);
    }
    println!(
        "\nbandwidth-aware vs warm-affinity packing: best gain {:+.2} pp, \
worst regression {:+.2} pp",
        best * 100.0,
        worst * 100.0
    );
    if !smoke {
        assert!(
            worst <= 0.005,
            "bandwidth-aware packing lost {:.2} pp of GSLO hit rate on a transfer-bound cell",
            worst * 100.0
        );
        assert!(
            best > 0.0,
            "bandwidth-aware packing never beat warm affinity — the scenario is not transfer-bound"
        );
    }
}
