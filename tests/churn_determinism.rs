//! Parallel sweeps over churning heterogeneous clusters must be
//! bit-identical to serial sweeps.
//!
//! `tests/sweep_determinism.rs` pins the engine's core promise on the
//! paper's static homogeneous cluster; this test pins it on the new axes:
//! cluster cases with node drains/joins mid-run, heterogeneous specs, and
//! non-steady traffic shapes. Churn goes through the event queue, so the
//! deterministic `(time, sequence)` ordering must make membership changes
//! reproducible regardless of rayon's thread schedule.

use esg_bench::{ClusterCase, ExperimentSuite, ScenarioMatrix, SchedKind, SweepResult};
use esg_model::{ChurnPlan, ClusterSpec, NodeClass, NodeId, Scenario, TrafficShape};

fn churny_matrix() -> ScenarioMatrix {
    ScenarioMatrix::new()
        .schedulers([SchedKind::Esg, SchedKind::Infless])
        .scenarios([Scenario::MODERATE_NORMAL])
        .clusters([
            ClusterCase::new(ClusterSpec::mixed_mig()).with_churn(
                ChurnPlan::none()
                    .drain(800.0, NodeId(0))
                    .drain(1_500.0, NodeId(9))
                    .join(1_200.0, NodeClass::v100())
                    .join(2_000.0, NodeClass::t4()),
            ),
            ClusterCase::new(ClusterSpec::skewed()).with_churn(ChurnPlan::rolling_replace(
                1_000.0,
                500.0,
                NodeId(1),
                NodeClass::a100(),
            )),
        ])
        .traffic([TrafficShape::Steady, TrafficShape::Bursty])
        .seeds([42, 43])
}

fn suite() -> ExperimentSuite {
    // Short windows keep 16 churning simulations test-sized; churn events
    // at 0.8–2 s land inside the 4 s arrival window.
    ExperimentSuite::new("churn_determinism", churny_matrix()).with_run_seconds(4.0)
}

#[test]
fn parallel_churn_sweep_is_bit_identical_to_serial() {
    let matrix = churny_matrix();
    assert_eq!(
        matrix.len(),
        16,
        "2 scheds × 2 clusters × 2 shapes × 2 seeds"
    );

    let parallel = suite().run();
    let serial = suite().serial().run();

    for (p, s) in parallel.results.iter().zip(&serial.results) {
        assert_eq!(p.scheduler, s.scheduler);
        assert_eq!(p.cluster, s.cluster);
        assert_eq!(p.traffic, s.traffic);
        assert_eq!(p.seed, s.seed);
        assert_eq!(
            p.result.canonical(),
            s.result.canonical(),
            "cell ({}, {}, {}, seed {}) diverged between parallel and serial",
            p.scheduler,
            p.cluster,
            p.traffic,
            p.seed
        );
    }
    assert_eq!(parallel.canonical_digest(), serial.canonical_digest());
    assert_eq!(
        serde_json::to_string(&parallel.to_json()),
        serde_json::to_string(&serial.to_json())
    );
    let rows_p: Vec<String> = parallel.results.iter().map(SweepResult::csv_row).collect();
    let rows_s: Vec<String> = serial.results.iter().map(SweepResult::csv_row).collect();
    assert_eq!(rows_p, rows_s);
}

#[test]
fn churn_actually_changes_membership_and_stays_bounded() {
    // Guards against the churn axis silently no-opping (which would make
    // the determinism assertions vacuous) and re-checks the capacity
    // invariant on every churned cell.
    let sweep = suite().run();
    for cell in &sweep.results {
        let nodes = &cell.result.nodes;
        match cell.cluster.as_str() {
            "mixed-mig+churn" => {
                assert_eq!(nodes.len(), 18, "16 + 2 joins");
                assert_eq!(nodes.iter().filter(|n| !n.online).count(), 2);
                assert_eq!(nodes[17].class, "t4");
            }
            "skewed+churn" => {
                assert_eq!(nodes.len(), 17, "16 + 1 join");
                assert_eq!(nodes.iter().filter(|n| !n.online).count(), 1);
                assert_eq!(nodes[16].class, "a100");
            }
            other => panic!("unexpected cluster label {other}"),
        }
        for n in nodes {
            assert!(
                n.total.contains(n.peak_used),
                "{}: node class {} exceeded capacity",
                cell.cluster,
                n.class
            );
        }
    }
}

#[test]
fn repeated_parallel_churn_sweeps_are_reproducible() {
    let a = suite().run();
    let b = suite().run();
    assert_eq!(a.canonical_digest(), b.canonical_digest());
}
