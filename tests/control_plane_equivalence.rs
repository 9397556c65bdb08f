//! Old-vs-new control-plane equivalence: the redesigned event-driven API
//! (incremental `ClusterState`, `schedule_round` with the default
//! one-queue replay, `on_event` notifications) must reproduce the
//! pre-redesign snapshot-rebuild platform *bit for bit*.
//!
//! The pin is a golden digest recorded from the pre-redesign platform on
//! the hetero sweep grid (3 cluster specs × 3 traffic shapes × 5
//! schedulers, churn on the skewed case — the same grid as `cargo bench
//! --bench hetero`, at a test-sized arrival window): for every cell, an
//! FNV fingerprint of the *dispatch trace* (every dispatch and churn
//! notification of the run, in order) and of the run's
//! canonical encoding (`ExperimentResult::canonical`).
//!
//! Provenance: `tests/golden/control_plane.digest` was blessed on the
//! snapshot-rebuild platform *before* the API migration, using an
//! earlier revision of this harness whose `Traced` wrapper logged
//! through the then-extant `notify_dispatch`/`notify_churn` hooks (the
//! pair `SchedulerEvent::Dispatched`/`Churn` subsume) — so the file
//! really does freeze pre-redesign behaviour, which the streamed
//! `TraceDigest` observer below must reproduce. Regenerate with `ESG_BLESS=1 cargo
//! test --test control_plane_equivalence` — only ever from a commit
//! whose platform behaviour is the agreed baseline, noting the new
//! baseline's provenance here.
//!
//! Re-base: the five `ESG|` lines paper/bursty, mixed-mig/bursty and
//! skewed+churn/{steady,bursty,diurnal} were re-blessed when ESG's
//! batch-formation hold moved into the `Outcome` contract
//! (`Outcome::hold`). The platform now re-decides a held queue once —
//! at the hold's deadline, at the arrival that completes the batch, or
//! after a shed — instead of re-polling it every `idle_backoff_ms`, so
//! ESG dispatches a formed batch up to one back-off earlier and records
//! no 16-expansion re-check decisions. Every other line — the four
//! baselines, and the ESG cells in which ESG never held a queue — is
//! byte-identical to the pre-redesign blessing.
//!
//! Re-base: every `result=` field was re-blessed when the hand-gated
//! `Debug` impls of `ExperimentResult` and `SchedulerStats` became
//! derived ones. The canonical encoding now always lists
//! `shed_invocations`, `shed_jobs`, `transfers` and the embedded
//! `PolicyStats`, which the gates left out while they were zero. No
//! decision moved: every `trace=`, `completed=`, `dispatches=` and
//! `rechecks=` field is byte-identical to the previous blessing.

use esg::baselines::bo::BoOptimizer;
use esg::prelude::*;

/// Simulated arrival window per cell, ms (test-sized stand-in for the
/// hetero bench's 120 s window; the grid shape is what matters).
const RUN_MS: f64 = 2_500.0;

/// The five compared schedulers. Orion runs a reduced cut-off and
/// Aquatope a reduced BO budget so the debug-mode grid stays test-sized;
/// both still exercise their full notification/plan machinery.
fn build_sched(name: &str) -> Box<dyn Scheduler> {
    match name {
        "ESG" => Box::new(EsgScheduler::new()),
        "INFless" => Box::new(InflessScheduler::new()),
        "FaST-GShare" => Box::new(FastGShareScheduler::new()),
        "Orion" => Box::new(OrionScheduler::new(20.0)),
        "Aquatope" => Box::new(AquatopeScheduler::new(BoOptimizer::tiny(42))),
        other => panic!("unknown scheduler {other}"),
    }
}

const SCHEDULERS: [&str; 5] = ["ESG", "INFless", "FaST-GShare", "Orion", "Aquatope"];
const SHAPES: [TrafficShape; 3] = [
    TrafficShape::Steady,
    TrafficShape::Bursty,
    TrafficShape::Diurnal,
];

/// The hetero bench's cluster axis: paper testbed, mixed MIG, and the
/// skewed case whose fastest node is churned out a third into the run.
fn cluster_cases() -> Vec<(&'static str, ClusterSpec, ChurnPlan)> {
    vec![
        ("paper", ClusterSpec::paper(), ChurnPlan::none()),
        ("mixed-mig", ClusterSpec::mixed_mig(), ChurnPlan::none()),
        (
            "skewed+churn",
            ClusterSpec::skewed(),
            ChurnPlan::rolling_replace(RUN_MS / 3.0, 2_000.0, NodeId(0), NodeClass::t4()),
        ),
    ]
}

fn golden_line(
    sched_name: &str,
    cluster_name: &str,
    spec: &ClusterSpec,
    churn: &ChurnPlan,
    shape: TrafficShape,
) -> String {
    let env = SimEnv::standard(SloClass::Moderate);
    let workload = shaped_workload(
        WorkloadClass::Normal,
        shape,
        &esg::model::standard_app_ids(),
        42,
        RUN_MS,
    );
    let cfg = SimConfig {
        cluster: Some(spec.clone()),
        churn: churn.clone(),
        warmup_exclude_ms: RUN_MS * 0.25,
        seed: 42,
        ..SimConfig::default()
    };
    let mut digest = TraceDigest::new();
    let r = run_simulation(
        &env,
        cfg,
        build_sched(sched_name).as_mut(),
        &workload,
        "control-plane",
        Some(&mut digest),
    )
    .expect("valid run");
    format!(
        "{sched_name}|{cluster_name}|{shape}|trace={:016x}|result={:016x}|\
completed={}|dispatches={}|rechecks={}",
        digest.digest(),
        fnv64(&r.canonical()),
        r.total_completed(),
        r.dispatches,
        r.rechecks,
    )
}

fn grid_digest() -> String {
    let mut out = String::new();
    for (cluster_name, spec, churn) in &cluster_cases() {
        for &shape in &SHAPES {
            for sched in SCHEDULERS {
                let line = golden_line(sched, cluster_name, spec, churn, shape);
                out.push_str(&line);
                out.push('\n');
            }
        }
    }
    out
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/control_plane.digest")
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    /// Property form across cluster specs × traffic shapes × churn
    /// plans × seeds: every run executes with the
    /// `validate_cluster_state` oracle, which rebuilds the pre-redesign
    /// from-scratch snapshot at every refresh point and asserts it
    /// equals the incrementally maintained `ClusterState` — and the
    /// oracle itself must be inert (bit-identical results and dispatch
    /// traces with it on or off).
    #[test]
    fn incremental_state_is_equivalent_to_snapshot_rebuild(
        seed in 0u64..1_000,
        spec_idx in 0usize..3,
        shape_idx in 0usize..3,
        churn_variant in 0usize..3,
    ) {
        let specs = [
            ClusterSpec::paper(),
            ClusterSpec::mixed_mig(),
            ClusterSpec::skewed(),
        ];
        let spec = specs[spec_idx].clone();
        let shape = SHAPES[shape_idx];
        let churn = match churn_variant {
            0 => ChurnPlan::none(),
            1 => ChurnPlan::rolling_replace(600.0, 400.0, NodeId(1), NodeClass::v100()),
            _ => ChurnPlan::none()
                .drain(400.0, NodeId(0))
                .join(700.0, NodeClass::t4())
                .drain(1_100.0, NodeId(2)),
        };
        let workload = shaped_workload(
            WorkloadClass::Light,
            shape,
            &esg::model::standard_app_ids(),
            seed,
            2_000.0,
        );
        let env = SimEnv::standard(SloClass::Moderate);
        let run = |validate: bool| {
            let mut trace = TraceDigest::text();
            let cfg = SimConfig {
                cluster: Some(spec.clone()),
                churn: churn.clone(),
                seed,
                validate_cluster_state: validate,
                ..SimConfig::default()
            };
            let mut sched = EsgScheduler::new();
            let r = run_simulation(&env, cfg, &mut sched, &workload, "oracle", Some(&mut trace))
                .expect("valid run");
            (r.canonical(), trace.trace().to_string())
        };
        // The validated run's per-refresh assertions are the equivalence
        // proof; comparing against the unvalidated run proves the oracle
        // observes without perturbing.
        let (validated, trace_v) = run(true);
        let (plain, trace_p) = run(false);
        proptest::prop_assert_eq!(validated, plain);
        proptest::prop_assert_eq!(trace_v, trace_p);
    }
}

/// The oracle on the busiest path the platform has: ESG with
/// bandwidth-aware packing over a contended data plane, the pre-warm
/// proxy, and a drain/join script. Every refresh asserts the incremental
/// state against a fresh snapshot; the run must be bit-identical
/// (result and dispatch trace) to the unvalidated one.
#[test]
fn validated_state_esg_run_with_prewarm_churn_and_data_plane_is_bit_identical() {
    let narrow = NodeClass::a100()
        .with_bandwidth(0.2, 0.2, 300.0)
        .with_staging_mb(32.0);
    let spec = ClusterSpec::new("split-fabric")
        .with(narrow, 3)
        .with(NodeClass::a100(), 3);
    let churn = ChurnPlan::none()
        .drain(500.0, NodeId(1))
        .join(900.0, NodeClass::t4())
        .drain(1_400.0, NodeId(4));
    let workload = shaped_workload(
        WorkloadClass::Normal,
        TrafficShape::Bursty,
        &esg::model::standard_app_ids(),
        11,
        2_500.0,
    );
    let env = SimEnv::standard(SloClass::Moderate);
    let run = |validate: bool| {
        let mut sched = EsgScheduler::new().with_policy(PolicyStack::new().with(
            BandwidthAwarePacking::new(BandwidthPackingConfig {
                contention_bias: 0.6,
                defer_queue_depth: 6,
                ..BandwidthPackingConfig::default()
            }),
        ));
        let mut trace = TraceDigest::text();
        let cfg = SimConfig {
            cluster: Some(spec.clone()),
            churn: churn.clone(),
            prewarm: true,
            data_plane: Some(DataPlaneConfig::default()),
            validate_cluster_state: validate,
            ..SimConfig::default()
        };
        let r = run_simulation(&env, cfg, &mut sched, &workload, "oracle", Some(&mut trace))
            .expect("valid run");
        assert!(r.transfers.replans > 0, "the data plane must contend");
        (r.canonical(), trace.trace().to_string())
    };
    let (validated, trace_v) = run(true);
    let (plain, trace_p) = run(false);
    assert_eq!(validated, plain);
    assert_eq!(trace_v, trace_p);
}

#[test]
fn hetero_grid_matches_pre_redesign_golden_digest() {
    let digest = grid_digest();
    let path = golden_path();
    if std::env::var("ESG_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(&path, &digest).expect("write golden digest");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden digest missing — run ESG_BLESS=1 cargo test --test control_plane_equivalence from the agreed baseline commit");
    // Line-by-line comparison so a divergence names its cell.
    for (got, want) in digest.lines().zip(golden.lines()) {
        assert_eq!(got, want, "control-plane behaviour diverged on this cell");
    }
    assert_eq!(
        digest.lines().count(),
        golden.lines().count(),
        "cell count changed"
    );
}
