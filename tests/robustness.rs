//! Robustness: recheck/forced-minimum progress under a starved cluster,
//! heterogeneous nodes, ablated grids, and pathological workloads.

use esg::prelude::*;

#[test]
fn tiny_cluster_still_makes_progress() {
    // Two nodes only: placements fail often, the recheck list and the
    // forced-minimum path must keep the system live.
    let env = SimEnv::with_grid(
        SloClass::Relaxed,
        ConfigGrid::new(vec![1, 2], vec![1, 2, 4], vec![1, 2]),
    );
    let w = WorkloadGen::new(WorkloadClass::Light, esg::model::standard_app_ids(), 13).generate(60);
    let mut s = esg::core::EsgScheduler::new();
    let cfg = SimConfig {
        cluster: Some(ClusterSpec::homogeneous(2, Resources::new(16, 7))),
        ..SimConfig::default()
    };
    let r = run_simulation(&env, cfg, &mut s, &w, "tiny", None).expect("valid run");
    assert_eq!(
        r.total_completed(),
        60,
        "forced-min must guarantee progress"
    );
}

#[test]
fn heterogeneous_capacity_configs() {
    // Appendix A: the algorithms tolerate heterogeneous hardware. Model a
    // smaller node class via a homogeneous spec and confirm completion.
    let env = SimEnv::with_grid(
        SloClass::Relaxed,
        ConfigGrid::new(vec![1, 2], vec![1, 2, 4], vec![1, 2]),
    );
    let w = WorkloadGen::new(WorkloadClass::Light, esg::model::standard_app_ids(), 5).generate(50);
    let mut s = esg::core::EsgScheduler::new();
    let cfg = SimConfig {
        cluster: Some(ClusterSpec::homogeneous(8, Resources::new(8, 4))),
        ..SimConfig::default()
    };
    let r = run_simulation(&env, cfg, &mut s, &w, "hetero", None).expect("valid run");
    assert_eq!(r.total_completed(), 50);
}

#[test]
fn no_batching_grid_still_completes() {
    let env = SimEnv::with_grid(
        SloClass::Relaxed,
        ConfigGrid::new(vec![1, 2, 4], vec![1, 2, 4], vec![1, 2]).without_batching(),
    );
    let w = WorkloadGen::new(WorkloadClass::Light, esg::model::standard_app_ids(), 2).generate(60);
    let mut s = esg::core::EsgScheduler::new();
    let r =
        run_simulation(&env, SimConfig::default(), &mut s, &w, "nobatch", None).expect("valid run");
    assert_eq!(r.total_completed(), 60);
    // Batch can never exceed 1.
    assert!(r.batch_size.max().unwrap_or(1.0) <= 1.0 + 1e-9);
}

#[test]
fn no_gpu_sharing_grid_still_completes() {
    let env = SimEnv::with_grid(
        SloClass::Relaxed,
        ConfigGrid::default().without_gpu_sharing(7),
    );
    let w = WorkloadGen::new(WorkloadClass::Light, esg::model::standard_app_ids(), 2).generate(40);
    let mut s = esg::core::EsgScheduler::new();
    let r = run_simulation(&env, SimConfig::default(), &mut s, &w, "nogpushare", None)
        .expect("valid run");
    assert_eq!(r.total_completed(), 40);
}

#[test]
fn burst_arrival_pattern_drains() {
    // All invocations arrive in one burst: queues must drain through
    // batching without deadlock.
    let arrivals: Vec<esg::workload::Arrival> = (0..80)
        .map(|i| esg::workload::Arrival {
            at_ms: 1.0 + (i % 7) as f64,
            app: AppId(i % 4),
        })
        .collect();
    let w = Workload::from_arrivals(arrivals);
    // vCPUs up to 8: the CPU side of a batched task scales with the batch,
    // so large batches only fit time budgets with enough CPU parallelism.
    let env = SimEnv::with_grid(
        SloClass::Relaxed,
        ConfigGrid::new(vec![1, 2, 4, 8], vec![1, 2, 4, 8], vec![1, 2]),
    );
    let mut s = esg::core::EsgScheduler::new();
    let r =
        run_simulation(&env, SimConfig::default(), &mut s, &w, "burst", None).expect("valid run");
    assert_eq!(r.total_completed(), 80);
    // The burst is admitted immediately (container init does not hold
    // compute resources), so queues stay short; the contention shows up
    // as exec-phase waiting on node capacity instead.
    assert!(r.phase_queue_wait_ms.max().unwrap_or(0.0) < 1000.0);
    assert!(r.phase_exec_queue_ms.max().unwrap_or(0.0) > 0.0);
}

#[test]
fn single_invocation_runs_alone() {
    let env = SimEnv::standard(SloClass::Relaxed);
    let w = Workload::from_arrivals(vec![esg::workload::Arrival {
        at_ms: 5.0,
        app: AppId(3),
    }]);
    let mut s = esg::core::EsgScheduler::new();
    let r =
        run_simulation(&env, SimConfig::default(), &mut s, &w, "single", None).expect("valid run");
    assert_eq!(r.total_completed(), 1);
    let m = &r.apps[3];
    // Alone on a warm cluster, the 5-stage pipeline meets a relaxed SLO.
    assert_eq!(
        m.slo_hits, 1,
        "latency {:?} vs slo {}",
        m.latencies_ms, m.slo_ms
    );
}

#[test]
fn truly_heterogeneous_cluster_completes_and_respects_capacities() {
    // Mixed node classes (Appendix A): two big, two medium, two small.
    use esg::model::{ClusterSpec, NodeClass};
    let spec = ClusterSpec::new("robustness-mixed")
        .with(NodeClass::custom(Resources::new(16, 7)), 2)
        .with(NodeClass::custom(Resources::new(8, 4)), 2)
        .with(NodeClass::custom(Resources::new(4, 2)), 2);
    let env = SimEnv::with_grid(
        SloClass::Relaxed,
        ConfigGrid::new(vec![1, 2], vec![1, 2, 4], vec![1, 2]),
    );
    let w = WorkloadGen::new(WorkloadClass::Light, esg::model::standard_app_ids(), 17).generate(60);
    let mut s = esg::core::EsgScheduler::new();
    let cfg = SimConfig {
        cluster: Some(spec),
        ..SimConfig::default()
    };
    let r = run_simulation(&env, cfg, &mut s, &w, "hetero-mixed", None).expect("valid run");
    assert_eq!(r.total_completed(), 60);
    assert!(r.vgpu_utilisation > 0.0 && r.vgpu_utilisation <= 1.0);
    // No node's peak attachment may exceed its own capacity.
    assert_eq!(r.nodes.len(), 6);
    for n in &r.nodes {
        assert!(
            n.total.contains(n.peak_used),
            "node class {} exceeded capacity: peak {} total {}",
            n.class,
            n.peak_used,
            n.total
        );
    }
}

#[test]
fn mixed_speed_cluster_under_every_traffic_shape() {
    // The full hetero surface at once: classed nodes (speed, link, price
    // scale), each traffic shape, and a mid-run drain+join — everything
    // must complete and respect capacity.
    use esg::model::{ChurnPlan, ClusterSpec, NodeClass, TrafficShape};
    let env = SimEnv::with_grid(
        SloClass::Relaxed,
        ConfigGrid::new(vec![1, 2], vec![1, 2, 4], vec![1, 2]),
    );
    for shape in TrafficShape::all() {
        let w = esg::workload::shaped_workload(
            WorkloadClass::Light,
            shape,
            &esg::model::standard_app_ids(),
            23,
            8_000.0,
        );
        let mut s = esg::core::EsgScheduler::new();
        let cfg = SimConfig {
            cluster: Some(ClusterSpec::mixed_mig()),
            churn: ChurnPlan::rolling_replace(500.0, 400.0, esg::model::NodeId(1), NodeClass::t4()),
            max_sim_ms: 120_000.0,
            ..SimConfig::default()
        };
        let r = run_simulation(&env, cfg, &mut s, &w, "hetero-shape", None).expect("valid run");
        assert_eq!(
            r.total_completed(),
            w.len() as u64,
            "{shape}: {} of {} completed",
            r.total_completed(),
            w.len()
        );
        for n in &r.nodes {
            assert!(n.total.contains(n.peak_used), "{shape}: capacity exceeded");
        }
    }
}

#[test]
fn the_longest_valid_tariff_never_schedules_into_the_past() {
    // `SimTime::MAX_MS` per remote MB passes validation, but the instants
    // it produces lie past `SimTime::MAX`, where a prewarm instant
    // computed in f64 ms could round below `now` (a debug assert in the
    // event queue). The run must complete every invocation.
    let mut env = SimEnv::standard(SloClass::Moderate);
    env.transfer = TransferModel {
        remote_ms_per_mb: SimTime::MAX_MS,
        ..TransferModel::default()
    };
    let w = WorkloadGen::new(WorkloadClass::Light, esg::model::standard_app_ids(), 42).generate(10);
    let mut s = EsgScheduler::new();
    let r = run_simulation(&env, SimConfig::default(), &mut s, &w, "max-tariff", None)
        .expect("valid run");
    assert_eq!(r.total_completed(), 10);
}
