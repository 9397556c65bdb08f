//! Round-trip fidelity of the event-sourced trace format: a run
//! recorded through [`SimBuilder::record_trace`] and replayed through
//! [`TraceReplay`] under the same scheduler and seed must reproduce the
//! recorded dispatch-trace digest bit for bit — and a damaged trace
//! file must surface a typed [`TraceError`], never a panic.
//!
//! This is the integration-level pin of the PR's acceptance criterion;
//! the bench target (`cargo bench --bench replay`) asserts the same
//! identity over the full-length evaluation runs.

use esg::prelude::*;
use esg::sim::TRACE_VERSION;
use proptest::prelude::*;

/// A scratch path unique to this process and `tag` (tests in one binary
/// run concurrently; traces must not collide).
fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("esg-roundtrip-{tag}-{}.json", std::process::id()))
}

/// Records `invocations` of `class` arrivals under the given scheduler
/// and churn, returning the recorded metrics and the loaded replay.
fn record(
    sched: &mut dyn Scheduler,
    slo: SloClass,
    class: WorkloadClass,
    seed: u64,
    invocations: usize,
    churn: ChurnPlan,
    tag: &str,
) -> (ExperimentResult, TraceReplay, std::path::PathBuf) {
    let path = scratch(tag);
    let sim = SimBuilder::new(slo)
        .seed(seed)
        .churn(churn)
        .record_trace(&path)
        .build()
        .expect("valid configuration");
    let w = WorkloadGen::new(class, esg::model::standard_app_ids(), seed).generate(invocations);
    let recorded = sim.run(sched, &w, "record");
    let replay = TraceReplay::load(&path).expect("recorded trace loads");
    (recorded, replay, path)
}

#[test]
fn recorded_and_replayed_esg_runs_share_one_digest() {
    let (recorded, replay, path) = record(
        &mut EsgScheduler::new(),
        SloClass::Strict,
        WorkloadClass::Light,
        42,
        120,
        ChurnPlan::none(),
        "esg",
    );
    let trace = replay.trace();
    assert_eq!(trace.scheduler, "ESG");
    assert_eq!(trace.arrivals.len() as u64, recorded.arrivals);

    let (replayed, digest) = replay.run_digest(Box::new(EsgScheduler::new()), "replay");
    assert_eq!(
        digest,
        trace.dispatch_digest(),
        "replaying the recorded scheduler must reproduce the recorded dispatch trace"
    );
    assert_eq!(replayed.arrivals, recorded.arrivals);
    assert_eq!(replayed.dispatches, recorded.dispatches);
    assert_eq!(replayed.cold_starts, recorded.cold_starts);
    std::fs::remove_file(&path).ok();
}

#[test]
fn churned_runs_round_trip_with_their_cluster_events() {
    // Churn lands in both the config (the replay re-applies it) and the
    // digest (`C n… drain;` records): a drain mid-run must survive the
    // trip exactly.
    let churn = ChurnPlan::none().drain(4_000.0, NodeId(3));
    let (recorded, replay, path) = record(
        &mut EsgScheduler::new(),
        SloClass::Moderate,
        WorkloadClass::Normal,
        7,
        90,
        churn,
        "churn",
    );
    let trace = replay.trace();
    assert!(
        trace.dispatch_trace().contains("C n3 drain;"),
        "the recorded trace must carry the churn record"
    );
    let (replayed, digest) = replay.run_digest(Box::new(EsgScheduler::new()), "replay");
    assert_eq!(digest, trace.dispatch_digest());
    assert_eq!(replayed.arrivals, recorded.arrivals);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_different_scheduler_replays_the_same_offered_load() {
    let (recorded, replay, path) = record(
        &mut EsgScheduler::new(),
        SloClass::Relaxed,
        WorkloadClass::Light,
        11,
        80,
        ChurnPlan::none(),
        "cross",
    );
    let (other, digest) = replay.run_digest(Box::new(OrionScheduler::default()), "replay-orion");
    assert_eq!(
        other.arrivals, recorded.arrivals,
        "the recorded arrival stream is scheduler-independent"
    );
    // Orion makes different decisions, so (at test scale) its dispatch
    // trace differs from ESG's recording — the digest is a fingerprint
    // of decisions, not of the offered load.
    assert_ne!(digest, replay.trace().dispatch_digest());
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_and_corrupt_traces_error_instead_of_panicking() {
    let (_, replay, path) = record(
        &mut MinScheduler,
        SloClass::Moderate,
        WorkloadClass::Light,
        3,
        40,
        ChurnPlan::none(),
        "corrupt",
    );
    drop(replay);
    let text = std::fs::read_to_string(&path).expect("trace written");
    std::fs::remove_file(&path).ok();

    // Truncation at any prefix must be a typed error, never a panic.
    // The document is pure ASCII, so every byte offset is a char
    // boundary.
    assert!(text.is_ascii(), "trace documents are ASCII");
    for cut in [0, 1, 10, text.len() / 2, text.len() - 1] {
        let err = TraceFile::from_json(&text[..cut]).expect_err("truncated trace must not load");
        assert!(
            matches!(err, TraceError::Parse { .. } | TraceError::Schema { .. }),
            "byte {cut}: unexpected error {err:?}"
        );
    }

    // A future schema version is refused with the version pair.
    let future = text.replacen(&format!("\"version\":{TRACE_VERSION}"), "\"version\":99", 1);
    assert_ne!(future, text, "version field located");
    assert!(matches!(
        TraceFile::from_json(&future),
        Err(TraceError::Version {
            found: 99,
            supported: TRACE_VERSION
        })
    ));

    // An arrival naming an app outside the standard set would index
    // past the application list on replay.
    let start = text.find("\"arrivals\":[[").expect("arrivals located") + "\"arrivals\":[[".len();
    let end = start + text[start..].find(']').expect("first arrival closes");
    let stray = format!("{}0.5,99{}", &text[..start], &text[end..]);
    assert!(matches!(
        TraceFile::from_json(&stray),
        Err(TraceError::Schema { .. })
    ));

    // A field of the wrong shape is schema drift, reported as such.
    let drifted = text.replacen("\"slo\":\"moderate\"", "\"slo\":3", 1);
    assert_ne!(drifted, text, "slo field located");
    assert!(matches!(
        TraceFile::from_json(&drifted),
        Err(TraceError::Schema { .. })
    ));
}

/// `text` with the scalar or array value of the one `"key":` field
/// replaced by `value`.
fn set_field(text: &str, key: &str, value: &str) -> String {
    let tag = format!("\"{key}\":");
    assert_eq!(text.matches(&tag).count(), 1, "{key} occurs once");
    let start = text.find(&tag).expect("located") + tag.len();
    let rest = &text[start..];
    let len = if rest.starts_with('[') {
        rest.find(']').expect("closed array") + 1
    } else {
        rest.find([',', '}']).expect("value ends")
    };
    format!("{}{value}{}", &text[..start], &rest[len..])
}

#[test]
fn damaged_configs_are_schema_errors_not_replay_panics() {
    let (_, replay, path) = record(
        &mut MinScheduler,
        SloClass::Moderate,
        WorkloadClass::Light,
        5,
        20,
        ChurnPlan::none(),
        "damaged",
    );
    drop(replay);
    let text = std::fs::read_to_string(&path).expect("trace written");
    std::fs::remove_file(&path).ok();
    assert!(text.contains("\"cluster\":null"), "homogeneous cluster");

    // Each knob would panic or silently misbehave on replay, so the
    // loader must refuse it through the builder's own validation.
    for (key, value, mentions) in [
        ("nodes", "0", "no usable node"),
        ("prewarm_alpha", "-5", "prewarm_alpha"),
        ("keep_alive_ms", "-1", "keep_alive_ms"),
        ("recheck_limit", "0", "recheck_limit"),
        ("churn", "[[\"drain\",100,99]]", "churn event #0"),
        ("churn", "[[\"drain\",1e300,0]]", "churn event #0"),
        ("node_resources", "[16,0]", "minimum configuration"),
        ("node_resources", "[0,7]", "minimum configuration"),
        ("remote_ms_per_mb", "-1", "transfer.remote_ms_per_mb"),
    ] {
        let damaged = set_field(&text, key, value);
        match TraceFile::from_json(&damaged) {
            Err(TraceError::Schema { context }) => assert!(
                context.contains(mentions),
                "{key} = {value}: {context:?} should mention {mentions:?}"
            ),
            Err(e) => panic!("{key} = {value}: expected a schema error, got {e:?}"),
            Ok(_) => panic!("{key} = {value}: loaded a config the builder refuses"),
        }
    }
}

#[test]
fn out_of_range_arrival_times_are_schema_errors_not_replay_panics() {
    let (_, replay, path) = record(
        &mut MinScheduler,
        SloClass::Moderate,
        WorkloadClass::Light,
        6,
        20,
        ChurnPlan::none(),
        "arrival-range",
    );
    drop(replay);
    let text = std::fs::read_to_string(&path).expect("trace written");
    std::fs::remove_file(&path).ok();

    // The first arrival's time, replaced: far past the maximum simulated
    // time (the replay would overflow `SimTime` arithmetic), just past
    // it, and negative.
    let start = text.find("\"arrivals\":[[").expect("arrivals located") + "\"arrivals\":[[".len();
    let end = start + text[start..].find(',').expect("first arrival time ends");
    for at in ["1e300", "9007199254741", "-1"] {
        let damaged = format!("{}{at}{}", &text[..start], &text[end..]);
        match TraceFile::from_json(&damaged) {
            Err(TraceError::Schema { context }) => {
                assert!(context.contains("arrival #0"), "{at}: {context:?}")
            }
            other => panic!("arrival at {at} ms: expected a schema error, got {other:?}"),
        }
    }
    // The maximum itself still loads.
    let at_max = format!("{}{}{}", &text[..start], SimTime::MAX_MS, &text[end..]);
    assert!(TraceFile::from_json(&at_max).is_ok());
}

#[test]
fn custom_transfer_tariffs_replay_their_digest() {
    let path = scratch("tariffs");
    let tariffs = TransferModel {
        local_base_ms: 0.2,
        local_ms_per_mb: 4.0,
        remote_base_ms: 50.0,
        remote_ms_per_mb: 40.0,
    };
    let sim = SimBuilder::new(SloClass::Moderate)
        .transfer(tariffs)
        .record_trace(&path)
        .build()
        .expect("valid configuration");
    let w =
        WorkloadGen::new(WorkloadClass::Normal, esg::model::standard_app_ids(), 42).generate(200);
    let recorded = sim.run(&mut EsgScheduler::new(), &w, "record");
    let replay = TraceReplay::load(&path).expect("recorded trace loads");
    std::fs::remove_file(&path).ok();
    assert_eq!(replay.trace().transfer, tariffs);

    let (replayed, digest) = replay.run_digest(Box::new(EsgScheduler::new()), "replay");
    assert_eq!(
        digest,
        replay.trace().dispatch_digest(),
        "a replay under the recorded tariffs reproduces the recorded dispatches"
    );
    assert_eq!(replayed.avg_hit_rate(), recorded.avg_hit_rate());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Digest identity is not a property of one lucky seed: across
    /// seeds, SLO classes, and workload sizes, a recorded run replayed
    /// under the same (deterministic) scheduler reproduces its digest.
    #[test]
    fn replay_digest_matches_recording_for_any_seed(
        seed in 0u64..1_000,
        slo_pick in 0usize..3,
        invocations in 20usize..60,
    ) {
        let slo = [SloClass::Strict, SloClass::Moderate, SloClass::Relaxed][slo_pick];
        let (recorded, replay, path) = record(
            &mut MinScheduler,
            slo,
            WorkloadClass::Light,
            seed,
            invocations,
            ChurnPlan::none(),
            &format!("prop-{seed}-{slo_pick}-{invocations}"),
        );
        let (replayed, digest) = replay.run_digest(Box::new(MinScheduler), "replay");
        prop_assert_eq!(digest, replay.trace().dispatch_digest());
        prop_assert_eq!(replayed.arrivals, recorded.arrivals);
        prop_assert_eq!(replayed.dispatches, recorded.dispatches);
        std::fs::remove_file(&path).ok();
    }
}
