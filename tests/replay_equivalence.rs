//! The streaming replay engine's equivalence battery.
//!
//! The million-invocation replay path rests on two pinned invariants,
//! each checked here at test scale:
//!
//! 1. **Streamed == materialised** — pulling arrivals lazily from an
//!    [`ArrivalStream`] as simulated time advances must replay a
//!    pre-materialised `Workload` bit for bit (`TraceDigest` dispatch-trace
//!    digests and canonical results), for every
//!    `WorkloadClass` and every `TrafficShape` (including the
//!    Azure-like replay). The trick that makes the comparison exact:
//!    cap both runs at the same `max_sim_ms` horizon and materialise
//!    *past* the horizon, so both paths always hold a pending arrival
//!    and stop at the first event beyond the cap.
//! 2. **Constant-memory generation** — the streamed run's arena and
//!    event-queue high-water marks ([`MemoryFootprint`]) scale with
//!    *live* work, not with the number of arrivals replayed.

use esg::prelude::*;

const SHAPES: [TrafficShape; 4] = [
    TrafficShape::Steady,
    TrafficShape::Bursty,
    TrafficShape::Diurnal,
    TrafficShape::AzureReplay,
];

const CLASSES: [WorkloadClass; 3] = [
    WorkloadClass::Heavy,
    WorkloadClass::Normal,
    WorkloadClass::Light,
];

/// Runs ESG capped at `horizon_ms`, either streaming `class`/`shape`
/// arrivals lazily or over the same stream materialised past the
/// horizon, returning the canonical result and trace digest.
fn run_horizon(
    class: WorkloadClass,
    shape: TrafficShape,
    seed: u64,
    horizon_ms: f64,
    streamed: bool,
) -> (String, u64) {
    let env = SimEnv::standard(SloClass::Moderate);
    let apps = esg::model::standard_app_ids();
    let cfg = SimConfig {
        seed,
        max_sim_ms: horizon_ms,
        ..SimConfig::default()
    };
    let mut sched = EsgScheduler::new();
    let mut digest = TraceDigest::new();
    let r = if streamed {
        run_streamed(
            &env,
            cfg,
            &mut sched,
            shaped_stream(class, shape, &apps, seed),
            "replay",
            Some(&mut digest),
        )
        .expect("valid run")
    } else {
        // Materialise one minute past the horizon so the materialised
        // run, like the streamed one, never drains its arrival source.
        let workload = shaped_stream(class, shape, &apps, seed).until_ms(horizon_ms + 60_000.0);
        run_simulation(
            &env,
            cfg,
            &mut sched,
            &workload,
            "replay",
            Some(&mut digest),
        )
        .expect("valid run")
    };
    (r.canonical(), digest.digest())
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    /// Invariant 1: a streamed run is bit-identical to the same stream
    /// materialised, for every workload class and traffic shape.
    #[test]
    fn streamed_replay_matches_materialised(
        seed in 0u64..1_000,
        class_idx in 0usize..3,
        shape_idx in 0usize..4,
    ) {
        let class = CLASSES[class_idx];
        let shape = SHAPES[shape_idx];
        let (res_m, trace_m) = run_horizon(class, shape, seed, 2_000.0, false);
        let (res_s, trace_s) = run_horizon(class, shape, seed, 2_000.0, true);
        proptest::prop_assert_eq!(trace_m, trace_s, "dispatch traces diverged");
        proptest::prop_assert_eq!(res_m, res_s);
    }
}

/// Both arrival sources agree on one fixed scenario (a cheap smoke
/// check that fails with a readable diff before the proptests shrink
/// anything).
#[test]
fn streamed_and_materialised_sources_agree() {
    let run = |streamed| {
        run_horizon(
            WorkloadClass::Normal,
            TrafficShape::AzureReplay,
            42,
            2_500.0,
            streamed,
        )
    };
    let (materialised, streamed) = (run(false), run(true));
    assert_eq!(materialised.1, streamed.1, "trace diverged");
    assert_eq!(materialised.0, streamed.0, "result diverged");
}

/// Invariant 2: the streamed replay's memory proxy plateaus at the
/// steady-state backlog — doubling the replay length must not grow the
/// arena or event-queue high-water marks, and they stay far below the
/// number of arrivals replayed.
#[test]
fn streamed_replay_memory_scales_with_live_work_not_replay_length() {
    let footprint = |max_sim_ms: f64| {
        let env = SimEnv::standard(SloClass::Moderate);
        let cfg = SimConfig {
            seed: 7,
            max_sim_ms,
            ..SimConfig::default()
        };
        let stream =
            ArrivalStream::of_class(WorkloadClass::Heavy, esg::model::standard_app_ids(), 7);
        let mut sched = MinScheduler;
        Simulation::from_stream(&env, cfg, &mut sched, stream).run_with_footprint()
    };
    let (r_short, fp_short) = footprint(60_000.0);
    let (r_long, fp_long) = footprint(120_000.0);
    assert!(r_short.arrivals > 3_000, "expected a few thousand arrivals");
    assert!(
        r_long.arrivals > r_short.arrivals * 3 / 2,
        "the long replay must actually process more arrivals"
    );
    // Twice the replay, same high-water marks: memory tracks live work.
    // (A sliver of slack tolerates a late burst peaking past the short
    // window; today the peaks are bit-equal.)
    let slack = |n: usize| n + n / 10;
    assert!(
        fp_long.invocation_slots <= slack(fp_short.invocation_slots),
        "invocation arena grew with replay length: {} -> {}",
        fp_short.invocation_slots,
        fp_long.invocation_slots
    );
    assert!(
        fp_long.task_slots <= slack(fp_short.task_slots),
        "task arena grew with replay length: {} -> {}",
        fp_short.task_slots,
        fp_long.task_slots
    );
    assert!(
        fp_long.peak_pending_events <= slack(fp_short.peak_pending_events),
        "event queue grew with replay length: {} -> {}",
        fp_short.peak_pending_events,
        fp_long.peak_pending_events
    );
    // And the plateau itself is far below the replay length.
    let arrivals = r_long.arrivals as usize;
    assert!(fp_long.invocation_slots < arrivals / 4);
    assert!(fp_long.peak_pending_events < arrivals / 4);
    assert!(fp_long.peak_live_invocations <= fp_long.invocation_slots);
    assert!(fp_long.peak_live_tasks <= fp_long.task_slots);
}
