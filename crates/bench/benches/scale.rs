//! End-to-end streaming replay bench.
//!
//! The `scale/replay/heap` case drives the *whole* platform — streamed
//! Azure-shaped arrivals pulled lazily from an `ArrivalStream`, the ESG
//! scheduler, the round driver, arena-backed invocation/task state, and
//! the binary-heap event queue — through ≥1M invocations per full-mode
//! sample (`ESG_SMOKE=1` replays a shorter trace window; medians are
//! reported *per invocation*, so smoke and full runs stay label- and
//! scale-comparable). Each replay also asserts the engine's
//! constant-memory promise: the arena and event-queue high-water marks
//! must stay under a fixed ceiling regardless of replay length.
//!
//! Results land in `BENCH_scale.json` and the "Control-plane scale"
//! table of `EXPERIMENTS.md` (`<!-- BENCH:scale:begin/end -->`).

use esg_bench::{render_scale_markdown, section, update_experiments_md, write_json};
use esg_core::EsgScheduler;
use esg_model::SloClass;
use esg_sim::{MemoryFootprint, SimConfig, SimEnv, Simulation};
use esg_workload::AzureLikeTrace;
use serde_json::json;
use std::time::Instant;

/// The replay case's label in `BENCH_scale.json`.
const REPLAY_LABEL: &str = "scale/replay/heap";
/// Azure-trace window replayed per full-mode sample, minutes. At the
/// trace's ~2.5k arrivals/min this crosses one million invocations
/// (asserted below); the rate sits just under the paper cluster's
/// capacity so the backlog plateaus instead of growing.
const REPLAY_MINUTES_FULL: usize = 400;
/// Smoke-mode trace window: same label and per-invocation metric,
/// CI-sized work.
const REPLAY_MINUTES_SMOKE: usize = 20;
/// Constant-memory ceiling for a replay, in arena entries / pending
/// events. Live state tracks the steady-state backlog (~1k invocations
/// plus burst spikes), never the replay length — a millionfold replay
/// must stay under the same fixed bound as a smoke run.
const REPLAY_MEMORY_CEILING: usize = 32_768;

/// The Azure-shaped replay workload: diurnal cycle, rare 3× bursts,
/// lognormal-ish dispersion, mean pinned below cluster capacity.
fn replay_trace() -> AzureLikeTrace {
    AzureLikeTrace {
        mean_per_minute: 2_500.0,
        period_minutes: 120.0,
        burst_probability: 0.02,
        seed: 42,
        ..AzureLikeTrace::default()
    }
}

/// Result of one timed replay sample.
struct ReplaySample {
    wall_ns: u64,
    arrivals: u64,
    completed: u64,
    shed: u64,
    footprint: MemoryFootprint,
}

/// Streams `minutes` of the Azure trace through the full platform with
/// the ESG scheduler.
fn run_replay(minutes: usize) -> ReplaySample {
    let env = SimEnv::standard(SloClass::Moderate);
    let cfg = SimConfig {
        seed: 42,
        ..SimConfig::default()
    };
    let stream = replay_trace().stream(esg_model::standard_app_ids(), Some(minutes));
    let mut sched = EsgScheduler::new();
    let t0 = Instant::now();
    let (r, footprint) =
        Simulation::from_stream(&env, cfg, &mut sched, stream).run_with_footprint();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    ReplaySample {
        wall_ns,
        arrivals: r.arrivals,
        completed: r.total_completed(),
        shed: r.shed_invocations,
        footprint,
    }
}

fn main() {
    let smoke = esg_bench::smoke();
    // A sample is tens of seconds, not microseconds, so replays are
    // timed directly rather than through criterion.
    let replay_samples = if smoke { 1 } else { 3 };
    let replay_minutes = if smoke {
        REPLAY_MINUTES_SMOKE
    } else {
        REPLAY_MINUTES_FULL
    };
    section(if smoke {
        "Control-plane scale: end-to-end streaming replay (smoke mode)"
    } else {
        "Control-plane scale: end-to-end streaming replay"
    });
    println!("{REPLAY_LABEL}: {replay_minutes} trace minutes per sample");

    let mut samples_ns: Vec<f64> = Vec::new();
    let mut last: Option<ReplaySample> = None;
    for _ in 0..replay_samples {
        let s = run_replay(replay_minutes);
        assert_eq!(
            s.arrivals,
            s.completed + s.shed,
            "{REPLAY_LABEL}: replay stranded work"
        );
        if !smoke {
            assert!(
                s.arrivals >= 1_000_000,
                "{REPLAY_LABEL}: full replay must cross one million invocations (got {})",
                s.arrivals
            );
        }
        // The constant-memory promise: live state tracks the backlog,
        // never the replay length.
        let fp = s.footprint;
        for (what, n) in [
            ("invocation arena", fp.invocation_slots),
            ("task arena", fp.task_slots),
            ("event queue", fp.peak_pending_events),
        ] {
            assert!(
                n < REPLAY_MEMORY_CEILING,
                "{REPLAY_LABEL}: {what} grew past the replay memory ceiling \
({n} >= {REPLAY_MEMORY_CEILING})"
            );
        }
        samples_ns.push(s.wall_ns as f64 / s.arrivals as f64);
        last = Some(s);
    }
    let last = last.expect("at least one replay sample");
    samples_ns.sort_by(f64::total_cmp);
    let median_ns = samples_ns[samples_ns.len() / 2];
    let mean_ns = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
    let min_ns = samples_ns[0];
    println!(
        "  {:<28} {:>8.0} ns/invocation  {:>9.0} inv/s  ({} invocations, peak {} live)",
        REPLAY_LABEL,
        median_ns,
        1e9 / median_ns,
        last.arrivals,
        last.footprint.peak_live_invocations,
    );

    let doc = json!({
        "suite": "scale",
        "smoke": smoke,
        "cases": [{
            "case": REPLAY_LABEL,
            "kind": "replay",
            "invocations": (last.arrivals),
            "trace_minutes": replay_minutes,
            "median_ns": median_ns,
            "mean_ns": mean_ns,
            "min_ns": min_ns,
            "samples": replay_samples,
            "invocations_per_sec": (1e9 / median_ns),
            "peak_live_invocations": (last.footprint.peak_live_invocations),
            "invocation_slots": (last.footprint.invocation_slots),
            "task_slots": (last.footprint.task_slots),
            "peak_pending_events": (last.footprint.peak_pending_events),
            "completed": (last.completed),
            "shed": (last.shed),
        }],
    });
    write_json("BENCH_scale", &doc);
    update_experiments_md("scale", &render_scale_markdown(&doc));
}
