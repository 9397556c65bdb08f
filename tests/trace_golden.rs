//! The esg-trace document's bytes, pinned: one small recorded run that
//! reaches every branch of the trace codec (a heterogeneous cluster
//! with a server topology, a drain and a join, the data plane with
//! staging small enough to queue transfers, custom tariffs and
//! admission shedding) must write exactly the document the golden file
//! names, and load back to exactly the values it names. A codec change
//! that moves a byte of the format or a decoded value fails here.
//! Regenerate with `ESG_BLESS=1 cargo test --test trace_golden` from the
//! agreed baseline commit; the golden file's `#` lines, which say why it
//! was last blessed, are kept.
//!
//! The same recording also checks the format's documentation: every key
//! of every record outside the arrival and event arrays (the top level,
//! `config`, the cluster, its node classes, the topology, the grid and
//! the tariffs) and every churn tag is named in OBSERVABILITY.md's "The
//! trace file format" table.

use esg::prelude::*;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn workspace_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

/// Records the codec-covering run and returns the document's text. Each
/// call writes its own file: the tests run in parallel threads.
fn recorded_document() -> String {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "esg-golden-trace-{}-{call}.json",
        std::process::id()
    ));
    let mut env = SimEnv::standard(SloClass::Strict);
    env.transfer = TransferModel {
        local_base_ms: 0.25,
        local_ms_per_mb: 3.5,
        remote_base_ms: 12.0,
        remote_ms_per_mb: 20.5,
    };
    // Staging a thousandth of each class's own buffer, so transfers queue.
    let small_staging = |class: NodeClass| {
        let mb = class.staging_mb * 1e-3;
        class.with_staging_mb(mb)
    };
    let cfg = SimConfig {
        cluster: Some(
            ClusterSpec::new("golden")
                .with(small_staging(NodeClass::a100()), 2)
                .with(
                    small_staging(
                        NodeClass::t4()
                            .named("slow-t4")
                            .with_bandwidth(0.05, 0.05, 0.5)
                            .with_staging_mb(64.0),
                    ),
                    2,
                )
                .with_topology(2, 25.0),
        ),
        churn: ChurnPlan::none()
            .drain(1_000.0, NodeId(3))
            .join(2_000.0, small_staging(NodeClass::t4())),
        seed: 17,
        data_plane: Some(DataPlaneConfig::default()),
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
    let file = std::fs::read_to_string(&path).unwrap_or_default();
    let (header, golden): (Vec<&str>, Vec<&str>) = file.lines().partition(|l| l.starts_with('#'));
    if std::env::var("ESG_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        let header: String = header.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, header + &pinned).expect("write golden digest");
        eprintln!("blessed {}", path.display());
        return;
    }
    assert!(
        !golden.is_empty(),
        "golden digest missing — run ESG_BLESS=1 cargo test --test trace_golden \
from the agreed baseline commit"
    );
    let golden: String = golden.iter().map(|l| format!("{l}\n")).collect();
    assert_eq!(
        pinned, golden,
        "the esg-trace bytes or their decoding moved"
    );
}

/// Every key of every object in `v` and the tag of every tagged array
/// (one whose first item is a string), except inside the arrival and
/// event arrays.
fn recorded_names(v: &Value, out: &mut Vec<String>) {
    match v {
        Value::Object(m) => {
            for (key, item) in m.iter() {
                out.push(key.to_string());
                if key != "arrivals" && key != "events" {
                    recorded_names(item, out);
                }
            }
        }
        Value::Array(items) => {
            out.extend(items.first().and_then(Value::as_str).map(str::to_string));
            for item in items {
                recorded_names(item, out);
            }
        }
        _ => {}
    }
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
    let mut names = Vec::new();
    recorded_names(&doc, &mut names);
    for nested in ["topology", "gpus_per_server", "staging_mb", "drain", "join"] {
        assert!(
            names.iter().any(|n| n == nested),
            "the recording has no `{nested}`"
        );
    }
    for name in names {
        assert!(
            table.contains(&format!("`{name}`")),
            "the trace-format table in OBSERVABILITY.md does not name `{name}`"
        );
    }
}
