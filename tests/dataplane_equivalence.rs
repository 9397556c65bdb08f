//! Data-plane vs scalar-transfer equivalence: with the contended GPU
//! data plane enabled at effectively infinite bandwidth
//! (`bandwidth_scale = 1e12`), every flow's fair share exceeds its
//! demand, so progress is never throttled, nothing queues for staging,
//! and no finish is ever re-planned — the run must be dispatch-trace
//! **bit-identical** to the classic scalar transfer model across the
//! hetero grid (cluster specs × traffic shapes × seeds).
//!
//! Only the dispatch trace and the completion/SLO counters are
//! compared, not the full `ExperimentResult::canonical` encoding: the data
//! plane books transfer elapsed through the µs-quantized event clock,
//! so `phase_init_ms` accounting can differ in the last few ulps while
//! every scheduling decision (the thing the plane must not perturb at
//! infinite bandwidth) stays identical.
//!
//! The companion integration tests pin the *contended* regime: finite
//! bandwidth moves real bytes, queued transfers are delayed but never
//! dropped, and a starved plane genuinely changes the outcome
//! (proving the equivalence above is not vacuous).

use esg::prelude::*;

/// Simulated arrival window per cell, ms (test-sized).
const RUN_MS: f64 = 2_000.0;

/// Contention-free data plane: the equivalence configuration.
fn infinite_plane() -> DataPlaneConfig {
    DataPlaneConfig {
        bandwidth_scale: 1e12,
        staging_scale: 1e12,
        ..DataPlaneConfig::default()
    }
}

/// One run: ESG on the given cluster/shape, with or without
/// the data plane. Returns the dispatch digest plus the counters the
/// equivalence compares.
fn traced_run(
    seed: u64,
    spec: &ClusterSpec,
    churn: &ChurnPlan,
    shape: TrafficShape,
    plane: Option<DataPlaneConfig>,
) -> (u64, u64, u64, TransferSummary) {
    let env = SimEnv::standard(SloClass::Moderate);
    let workload = shaped_workload(
        WorkloadClass::Light,
        shape,
        &esg::model::standard_app_ids(),
        seed,
        RUN_MS,
    );
    let cfg = SimConfig {
        cluster: Some(spec.clone()),
        churn: churn.clone(),
        warmup_exclude_ms: RUN_MS * 0.25,
        seed,
        data_plane: plane,
        ..SimConfig::default()
    };
    let mut digest = TraceDigest::new();
    let mut sched = EsgScheduler::new();
    let r = run_simulation(
        &env,
        cfg,
        &mut sched,
        &workload,
        "dataplane-eq",
        Some(&mut digest),
    )
    .expect("valid run");
    let slo_hits: u64 = r.apps.iter().map(|a| a.slo_hits).sum();
    (digest.digest(), r.total_completed(), slo_hits, r.transfers)
}

const SHAPES: [TrafficShape; 3] = [
    TrafficShape::Steady,
    TrafficShape::Bursty,
    TrafficShape::Diurnal,
];

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

    /// Infinite-bandwidth data plane ≡ scalar model, across the hetero
    /// grid: identical dispatch traces (every dispatch and churn
    /// notification the scheduler saw, in order), identical completion
    /// and SLO-hit counts, zero replans and zero staging queueing on
    /// the plane side.
    #[test]
    fn infinite_bandwidth_plane_matches_scalar(
        seed in 0u64..1_000,
        spec_idx in 0usize..3,
        shape_idx in 0usize..3,
    ) {
        let specs = [
            ClusterSpec::paper(),
            ClusterSpec::mixed_mig(),
            ClusterSpec::skewed(),
        ];
        let spec = specs[spec_idx].clone();
        let shape = SHAPES[shape_idx];
        let churn = if spec_idx == 2 {
            ChurnPlan::rolling_replace(RUN_MS / 3.0, 2_000.0, NodeId(0), NodeClass::t4())
        } else {
            ChurnPlan::none()
        };

        let (scalar_digest, scalar_done, scalar_hits, _) =
            traced_run(seed, &spec, &churn, shape, None);
        let (plane_digest, plane_done, plane_hits, transfers) =
            traced_run(seed, &spec, &churn, shape, Some(infinite_plane()));

        proptest::prop_assert_eq!(
            scalar_digest,
            plane_digest,
            "dispatch trace diverged (spec={}, shape={:?}, seed={})",
            spec_idx, shape, seed
        );
        proptest::prop_assert_eq!(scalar_done, plane_done);
        proptest::prop_assert_eq!(scalar_hits, plane_hits);
        // Infinite fair share: nothing contends, nothing waits.
        proptest::prop_assert_eq!(transfers.replans, 0);
        proptest::prop_assert_eq!(transfers.queued, 0);
        proptest::prop_assert_eq!(transfers.started, transfers.completed);
    }
}

/// A cluster whose pools are narrow enough that the standard workload
/// contends: a few MB/ms of PCIe against multi-MB tensor hand-offs.
fn slow_cluster() -> ClusterSpec {
    ClusterSpec::new("slow-fabric").with(
        NodeClass::t4()
            .with_bandwidth(0.05, 0.05, 0.5)
            .with_staging_mb(64.0),
        6,
    )
}

fn contended_run(plane: Option<DataPlaneConfig>) -> (u64, u64, TransferSummary) {
    let (trace, done, _, transfers) = traced_run(
        7,
        &slow_cluster(),
        &ChurnPlan::none(),
        TrafficShape::Bursty,
        plane,
    );
    (trace, done, transfers)
}

#[test]
fn contended_plane_moves_bytes_and_never_drops() {
    let (_, done, t) = contended_run(Some(DataPlaneConfig::default()));
    assert!(done > 0, "workload must complete under contention");
    assert!(t.started > 0, "transfer-bound cluster must start flows");
    assert!(t.total_mb > 0.0);
    assert_eq!(
        t.started, t.completed,
        "every started flow drains by end of run — delayed, never dropped"
    );
}

#[test]
fn queued_transfers_are_delayed_never_dropped() {
    // Starve the staging buffers so admissions queue.
    let plane = DataPlaneConfig {
        staging_scale: 1e-3,
        ..DataPlaneConfig::default()
    };
    let (_, done, t) = contended_run(Some(plane));
    assert!(done > 0);
    assert!(t.queued > 0, "tiny staging buffers must force queueing");
    assert_eq!(
        t.started, t.completed,
        "queued flows activate FIFO and still complete"
    );
}

#[test]
fn starved_bandwidth_changes_the_outcome() {
    // The equivalence above must not be vacuous: squeeze the pools and
    // the plane genuinely perturbs scheduling.
    let plane = DataPlaneConfig {
        bandwidth_scale: 1e-3,
        ..DataPlaneConfig::default()
    };
    let (scalar_digest, _, _) = contended_run(None);
    let (plane_digest, _, t) = contended_run(Some(plane));
    assert!(
        t.replans > 0 || t.queued > 0,
        "a starved plane must contend"
    );
    assert_ne!(
        scalar_digest, plane_digest,
        "a starved data plane must change dispatch behaviour"
    );
}

/// Arrival window of the topology runs, ms: long enough that ESG's
/// locality-first placement spills some hand-offs across servers.
const TOPOLOGY_RUN_MS: f64 = 10_000.0;

/// ESG on `spec` with warm-up exclusion off, so every arrival is
/// accounted for: the dispatch digest and the full result.
fn whole_run(
    seed: u64,
    spec: &ClusterSpec,
    plane: Option<DataPlaneConfig>,
) -> (u64, ExperimentResult) {
    let env = SimEnv::standard(SloClass::Moderate);
    let workload = shaped_workload(
        WorkloadClass::Normal,
        TrafficShape::Steady,
        &esg::model::standard_app_ids(),
        seed,
        TOPOLOGY_RUN_MS,
    );
    let cfg = SimConfig {
        cluster: Some(spec.clone()),
        seed,
        data_plane: plane,
        ..SimConfig::default()
    };
    let mut digest = TraceDigest::new();
    let mut sched = EsgScheduler::new();
    let r = run_simulation(
        &env,
        cfg,
        &mut sched,
        &workload,
        "topology",
        Some(&mut digest),
    )
    .expect("valid run");
    (digest.digest(), r)
}

/// The paper testbed grouped 4 GPUs per server behind a 10 MB/ms
/// top-of-rack uplink.
fn server_cluster() -> ClusterSpec {
    ClusterSpec::paper().with_topology(4, 10.0)
}

#[test]
fn topology_cluster_conserves_work_and_crosses_servers() {
    let (trace, r) = whole_run(5, &server_cluster(), Some(DataPlaneConfig::default()));
    assert!(r.arrivals > 0);
    assert_eq!(
        r.total_completed() + r.shed_invocations,
        r.arrivals,
        "arrivals = completed + shed"
    );
    let t = &r.transfers;
    assert!(
        t.cross_server_mb > 0.0,
        "some hand-offs must cross a server"
    );
    assert!(t.cross_server_mb <= t.total_mb);
    assert_eq!(t.started, t.completed, "delayed, never dropped");
    // Seed-deterministic: the same seed replays the same decisions and
    // the same byte counts.
    let (again, r2) = whole_run(5, &server_cluster(), Some(DataPlaneConfig::default()));
    assert_eq!(trace, again);
    assert_eq!(&r2.transfers, t);
    assert_eq!(r2.total_completed(), r.total_completed());
}

#[test]
fn topology_without_a_data_plane_matches_the_flat_cluster() {
    // Only the data plane reads the server map: with the plane off, the
    // grouping into servers must not move a single decision.
    for seed in [3, 5] {
        let (flat, flat_r) = whole_run(seed, &ClusterSpec::paper(), None);
        let (grouped, grouped_r) = whole_run(seed, &server_cluster(), None);
        assert!(flat_r.dispatches > 0, "seed {seed} dispatched nothing");
        assert_eq!(flat, grouped, "seed {seed}");
        assert_eq!(flat_r.total_completed(), grouped_r.total_completed());
        assert_eq!(grouped_r.transfers, TransferSummary::default());
    }
}
