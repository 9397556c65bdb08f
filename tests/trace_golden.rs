//! The esg-trace document's bytes, pinned: one small recorded run that
//! reaches every branch of the trace codec (a heterogeneous cluster
//! with a server topology, a drain and a join, the data plane with
//! staging small enough to queue transfers, custom tariffs and
//! admission shedding) must write exactly the document the golden file
//! names, and load back to exactly the values it names. A codec change
//! that moves a byte of the format or a decoded value fails here.
//! Regenerate with `ESG_BLESS=1 cargo test --test trace_golden` from the
//! agreed baseline commit.
//!
//! The same recording also checks the format's documentation: every
//! top-level key and every `config` key of the document is named in
//! OBSERVABILITY.md's "The trace file format" table.

use esg::prelude::*;
use serde_json::Value;
use std::path::{Path, PathBuf};

fn workspace_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

/// Records the codec-covering run and returns the document's text.
fn recorded_document() -> String {
    let path = std::env::temp_dir().join(format!("esg-golden-trace-{}.json", std::process::id()));
    let mut env = SimEnv::standard(SloClass::Strict);
    env.transfer = TransferModel {
        local_base_ms: 0.25,
        local_ms_per_mb: 3.5,
        remote_base_ms: 12.0,
        remote_ms_per_mb: 20.5,
    };
    let cfg = SimConfig {
        cluster: Some(
            ClusterSpec::new("golden")
                .with(NodeClass::a100(), 2)
                .with(
                    NodeClass::t4()
                        .named("slow-t4")
                        .with_bandwidth(0.05, 0.05, 0.5)
                        .with_staging_mb(64.0),
                    2,
                )
                .with_topology(2, 25.0),
        ),
        churn: ChurnPlan::none()
            .drain(1_000.0, NodeId(3))
            .join(2_000.0, NodeClass::t4()),
        seed: 17,
        data_plane: Some(DataPlaneConfig {
            staging_scale: 1e-3,
            ..DataPlaneConfig::default()
        }),
        ..SimConfig::default()
    };
    let workload =
        WorkloadGen::new(WorkloadClass::Normal, esg::model::standard_app_ids(), 17).generate(60);
    let mut sched =
        EsgScheduler::new().with_policy(PolicyStack::new().with(SloAdmission::default()));
    let mut recorder = TraceRecorder::new(path.clone());
    run_simulation(
        &env,
        cfg,
        &mut sched,
        &workload,
        "golden",
        Some(&mut recorder),
    )
    .expect("valid run");
    recorder.finish().expect("trace written");
    let text = std::fs::read_to_string(&path).expect("trace readable");
    std::fs::remove_file(&path).ok();
    text
}

#[test]
fn recorded_document_matches_the_golden_bytes() {
    let text = recorded_document();
    let doc = serde_json::from_str(&text).expect("the recorder writes JSON");
    let tags: Vec<&str> = doc
        .get("events")
        .and_then(Value::as_array)
        .expect("an event array")
        .iter()
        .filter_map(|e| e.as_array().and_then(|a| a.first()).and_then(Value::as_str))
        .collect();
    for tag in ["J", "D", "T", "C", "S", "R", "TS", "TQ", "TC"] {
        assert!(tags.contains(&tag), "the run records no {tag:?} event");
    }
    let loaded = TraceFile::from_json(&text).expect("the recording loads");
    let pinned = format!(
        "document fnv64={:016x} bytes={}\nloaded fnv64={:016x}\n",
        fnv64(&text),
        text.len(),
        fnv64(&format!("{loaded:?}")),
    );
    let path = workspace_file("tests/golden/trace.digest");
    if std::env::var("ESG_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(&path, &pinned).expect("write golden digest");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).expect(
        "golden digest missing — run ESG_BLESS=1 cargo test --test trace_golden \
from the agreed baseline commit",
    );
    assert_eq!(
        pinned, golden,
        "the esg-trace bytes or their decoding moved"
    );
}

#[test]
fn every_recorded_key_is_documented() {
    let text = recorded_document();
    let doc = serde_json::from_str(&text).expect("the recorder writes JSON");
    let guide = std::fs::read_to_string(workspace_file("OBSERVABILITY.md")).expect("guide");
    let section = guide
        .split("## The trace file format")
        .nth(1)
        .and_then(|s| s.split("\n## ").next())
        .expect("OBSERVABILITY.md has a trace-format section");
    let table: String = section.lines().filter(|l| l.starts_with('|')).collect();
    let keys = |v: &Value| -> Vec<String> {
        v.as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.to_string())
            .collect()
    };
    let config = doc.get("config").expect("a config object");
    for key in keys(&doc).into_iter().chain(keys(config)) {
        assert!(
            table.contains(&format!("`{key}`")),
            "the trace-format table in OBSERVABILITY.md does not name `{key}`"
        );
    }
}
