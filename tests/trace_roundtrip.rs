//! Round-trip fidelity of the event-sourced trace format: a run
//! recorded by a [`TraceRecorder`] and replayed through
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
use serde_json::Value;

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
    let cfg = SimConfig {
        seed,
        churn,
        ..SimConfig::default()
    };
    let w = WorkloadGen::new(class, esg::model::standard_app_ids(), seed).generate(invocations);
    let mut recorder = TraceRecorder::new(path.clone());
    let env = SimEnv::standard(slo);
    let recorded =
        run_simulation(&env, cfg, sched, &w, "record", Some(&mut recorder)).expect("valid run");
    recorder.finish().expect("trace written");
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

    let (replayed, digest) = replay
        .run_digest(&mut EsgScheduler::new(), "replay")
        .expect("valid replay");
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
        esg::sim::dispatch_trace(&trace.events).contains("C n3 drain;"),
        "the recorded trace must carry the churn record"
    );
    let (replayed, digest) = replay
        .run_digest(&mut EsgScheduler::new(), "replay")
        .expect("valid replay");
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
    let (other, digest) = replay
        .run_digest(&mut OrionScheduler::default(), "replay-orion")
        .expect("valid replay");
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
    assert!(text.contains("\"cluster\":null"), "paper cluster");

    // A recorded cluster of `class_json` nodes (empty for "").
    let cluster = |class_json: &str| {
        format!("{{\"name\":\"damaged\",\"nodes\":[{class_json}],\"topology\":null}}")
    };
    // A paper-shaped class with `vcpus` vCPUs and `slices` vGPU slices.
    let class = |vcpus: u32, slices: u32| {
        format!(
            "{{\"name\":\"c\",\"gpu\":\"a100\",\"vgpu_slices\":{slices},\"vcpus\":{vcpus},\
\"speed\":1,\"link_scale\":1,\"price_scale\":1,\"pcie_in_gbps\":25,\
\"pcie_out_gbps\":25,\"nvlink_gbps\":300,\"staging_mb\":32768}}"
        )
    };

    // Each knob would panic or silently misbehave on replay, so the
    // loader must refuse it through the run's own validation.
    let no_nodes = cluster("");
    let cpu_only = cluster(&class(16, 0));
    let gpu_only = cluster(&class(0, 7));
    let no_speed = cluster(&class(16, 7).replace("\"speed\":1,", "\"speed\":0,"));
    for (key, value, mentions) in [
        ("cluster", no_nodes.as_str(), "no usable node"),
        ("warmup_exclude_ms", "-1", "warmup_exclude_ms"),
        ("churn", "[[\"drain\",100,99]]", "churn event #0"),
        ("churn", "[[\"drain\",1e300,0]]", "churn event #0"),
        ("cluster", cpu_only.as_str(), "minimum configuration"),
        ("cluster", gpu_only.as_str(), "minimum configuration"),
        ("cluster", no_speed.as_str(), "class.speed"),
        ("data_plane", "false", "data_plane"),
        ("data_plane", "{}", "data_plane"),
        ("remote_ms_per_mb", "-1", "transfer.remote_ms_per_mb"),
        // Durations added to instants, past `SimTime::MAX_MS`.
        ("local_base_ms", "1e300", "transfer.local_base_ms"),
        ("local_ms_per_mb", "1e300", "transfer.local_ms_per_mb"),
        ("remote_base_ms", "1e300", "transfer.remote_base_ms"),
        ("remote_ms_per_mb", "1e300", "transfer.remote_ms_per_mb"),
    ] {
        let damaged = set_field(&text, key, value);
        match TraceFile::from_json(&damaged) {
            Err(TraceError::Schema { context }) => assert!(
                context.contains(mentions),
                "{key} = {value}: {context:?} should mention {mentions:?}"
            ),
            Err(e) => panic!("{key} = {value}: expected a schema error, got {e:?}"),
            Ok(_) => panic!("{key} = {value}: loaded a config a run refuses"),
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
    let mut env = SimEnv::standard(SloClass::Moderate);
    env.transfer = tariffs;
    let w =
        WorkloadGen::new(WorkloadClass::Normal, esg::model::standard_app_ids(), 42).generate(200);
    let mut recorder = TraceRecorder::new(path.clone());
    let recorded = run_simulation(
        &env,
        SimConfig::default(),
        &mut EsgScheduler::new(),
        &w,
        "record",
        Some(&mut recorder),
    )
    .expect("valid run");
    recorder.finish().expect("trace written");
    let replay = TraceReplay::load(&path).expect("recorded trace loads");
    std::fs::remove_file(&path).ok();
    assert_eq!(replay.trace().transfer, tariffs);

    let (replayed, digest) = replay
        .run_digest(&mut EsgScheduler::new(), "replay")
        .expect("valid replay");
    assert_eq!(
        digest,
        replay.trace().dispatch_digest(),
        "a replay under the recorded tariffs reproduces the recorded dispatches"
    );
    assert_eq!(replayed.avg_hit_rate(), recorded.avg_hit_rate());
}

#[test]
fn a_failed_trace_write_is_a_typed_error() {
    // The run itself succeeds; writing under a regular file cannot.
    let parent = scratch("not-a-directory");
    std::fs::write(&parent, "a regular file").expect("scratch file");
    let path = parent.join("trace.json");
    let w = WorkloadGen::new(WorkloadClass::Light, esg::model::standard_app_ids(), 4).generate(10);
    let mut recorder = TraceRecorder::new(path.clone());
    let env = SimEnv::standard(SloClass::Moderate);
    let cfg = SimConfig::default();
    let result = run_simulation(
        &env,
        cfg,
        &mut MinScheduler,
        &w,
        "record",
        Some(&mut recorder),
    );
    assert_eq!(result.expect("the run is valid").arrivals, 10);
    let err = recorder.finish().expect_err("nothing can be written there");
    std::fs::remove_file(&parent).ok();
    assert!(
        matches!(&err, TraceError::Io { path: p, .. } if *p == path),
        "{err:?}"
    );
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
        let (replayed, digest) = replay.run_digest(&mut MinScheduler, "replay")
        .expect("valid replay");
        prop_assert_eq!(digest, replay.trace().dispatch_digest());
        prop_assert_eq!(replayed.arrivals, recorded.arrivals);
        prop_assert_eq!(replayed.dispatches, recorded.dispatches);
        std::fs::remove_file(&path).ok();
    }
}

/// A structural mutation of one JSON node: replace a number with 0,
/// -1, 1e300 or a string (by `n % 4`); remove an object member; keep
/// only the first `n % len` elements of an array; or insert a copy of
/// element `n % len` right after it.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    Set(usize),
    Drop,
    Truncate(usize),
    Duplicate(usize),
}

/// `v` with `m` applied to its `target`-th eligible node in document
/// order; `seen` counts the eligible nodes walked, so a walk with
/// `target = usize::MAX` only counts them.
fn mutate(v: &Value, m: Mutation, target: usize, seen: &mut usize) -> Value {
    let len = v.as_array().map_or(0, <[Value]>::len);
    let hit = match (m, v) {
        (Mutation::Set(_), Value::Number(_) | Value::Int(_)) => true,
        (Mutation::Truncate(_) | Mutation::Duplicate(_), _) => len > 0,
        _ => false,
    } && {
        *seen += 1;
        *seen - 1 == target
    };
    match (m, v) {
        (Mutation::Set(n), _) if hit => {
            serde_json::from_str(["0", "-1", "1e300", "\"x\""][n % 4]).expect("valid JSON")
        }
        (Mutation::Truncate(n), Value::Array(items)) if hit => {
            Value::Array(items[..n % len].to_vec())
        }
        (Mutation::Duplicate(n), Value::Array(items)) if hit => {
            let mut items = items.to_vec();
            items.insert(n % len + 1, items[n % len].clone());
            Value::Array(items)
        }
        (_, Value::Array(items)) => {
            Value::Array(items.iter().map(|i| mutate(i, m, target, seen)).collect())
        }
        (_, Value::Object(map)) => {
            let mut out = serde_json::Map::new();
            for (k, item) in map.iter() {
                if matches!(m, Mutation::Drop) {
                    *seen += 1;
                    if *seen - 1 == target {
                        continue;
                    }
                }
                out.insert(k, mutate(item, m, target, seen));
            }
            Value::Object(out)
        }
        _ => v.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A damaged trace either loads to a typed error or replays without
    /// a panic; a replay with no warm-up window accounts for every
    /// arrival as completed or shed.
    #[test]
    fn damaged_traces_load_to_typed_errors_or_replay_cleanly(
        picks in proptest::collection::vec((0u32..4, any::<u32>(), any::<u32>()), 1..4),
    ) {
        // Six invocations under `MinScheduler` with one mid-run drain.
        let (_, replay, path) = record(
            &mut MinScheduler,
            SloClass::Moderate,
            WorkloadClass::Light,
            11,
            6,
            ChurnPlan::none().drain(200.0, NodeId(2)),
            "mutants",
        );
        drop(replay);
        let text = std::fs::read_to_string(&path).expect("trace written");
        std::fs::remove_file(&path).ok();
        let mut doc = serde_json::from_str(&text).expect("recorded JSON parses");
        let mut applied = Vec::new();
        for (kind, pick, n) in picks {
            let n = n as usize;
            let m = [Mutation::Set(n), Mutation::Drop, Mutation::Truncate(n), Mutation::Duplicate(n)]
                [kind as usize];
            let mut eligible = 0;
            mutate(&doc, m, usize::MAX, &mut eligible);
            if eligible > 0 {
                let target = pick as usize % eligible;
                doc = mutate(&doc, m, target, &mut 0);
                applied.push((m, target));
            }
        }
        let Ok(trace) = TraceFile::from_json(&serde_json::to_string(&doc)) else {
            return Ok(());
        };
        // Printed only when the case fails (the harness captures it).
        eprintln!("mutations: {applied:?}");
        let no_warmup = trace.config.warmup_exclude_ms == 0.0;
        let r = TraceReplay::new(trace)
            .run(&mut MinScheduler, "damaged", None)
            .expect("a trace that loads passes the run checks");
        if no_warmup {
            prop_assert_eq!(r.arrivals, r.total_completed() + r.shed_invocations);
        }
    }
}

#[test]
fn every_run_entry_checks_the_schedulers_policy_stack() {
    // A contention bias that is not a number: each entry refuses the
    // stack before its event loop starts, a replay included.
    let nan_bias = || {
        let packing = BandwidthAwarePacking::new(BandwidthPackingConfig {
            contention_bias: f64::NAN,
            ..BandwidthPackingConfig::default()
        });
        EsgScheduler::new().with_policy(PolicyStack::new().with(packing))
    };
    let refused = |r: Result<ExperimentResult, SimError>| match r {
        Err(SimError::InvalidKnob { knob, .. }) => knob,
        other => panic!("expected a refused knob, got {other:?}"),
    };
    let env = SimEnv::standard(SloClass::Moderate);
    let gen = WorkloadGen::new(WorkloadClass::Light, esg::model::standard_app_ids(), 3);
    let materialised = gen.generate(20);
    let cfg = SimConfig {
        max_sim_ms: 5_000.0,
        ..SimConfig::default()
    };
    let direct = run_simulation(
        &env,
        cfg.clone(),
        &mut nan_bias(),
        &materialised,
        "nan",
        None,
    );
    assert_eq!(refused(direct), "policy.contention_bias");
    let streamed = run_streamed(&env, cfg, &mut nan_bias(), gen.stream(), "nan", None);
    assert_eq!(refused(streamed), "policy.contention_bias");
    let (_, replay, path) = record(
        &mut MinScheduler,
        SloClass::Moderate,
        WorkloadClass::Light,
        3,
        20,
        ChurnPlan::none(),
        "nan-bias",
    );
    std::fs::remove_file(&path).ok();
    let replayed = replay.run(&mut nan_bias(), "nan", None);
    assert_eq!(refused(replayed), "policy.contention_bias");
}
