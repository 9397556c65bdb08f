//! Azure-shaped *arrival* trace replay: a diurnal, bursty arrival stream
//! (the synthetic stand-in for the Azure Functions traces the paper
//! derives its rates from) generated by `AzureLikeTrace` and driven
//! through the platform under ESG.
//!
//! This is not an esg-trace record/replay: nothing is recorded or loaded.
//! The run is observed by a `TraceDigest`, which streams the dispatch
//! digest. To record a run's full event stream and re-drive the same
//! offered load under any scheduler, pass a `TraceRecorder` as the
//! observer instead and load its file with `TraceReplay`
//! (OBSERVABILITY.md, "Recording a trace").
//!
//! Run with: `cargo run --release --example trace_replay [minutes]`
//! (`ESG_SMOKE=1` defaults to a 1-minute replay for CI.)

use esg::prelude::*;

fn main() -> Result<(), SimError> {
    let smoke = std::env::var("ESG_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let minutes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 1 } else { 3 });
    let trace = AzureLikeTrace {
        mean_per_minute: 1500.0,
        diurnal_amplitude: 0.5,
        period_minutes: 8.0, // compressed "day" so the demo shows a cycle
        burst_probability: 0.1,
        burst_multiplier: 2.5,
        seed: 5,
    };
    let rates = trace.rates(minutes);
    println!(
        "per-minute arrival rates: {:?}",
        rates.iter().map(|r| r.round() as u64).collect::<Vec<_>>()
    );

    let workload = trace.generate(minutes, &esg::model::standard_app_ids());
    println!("{} invocations over {minutes} min", workload.len());

    let env = SimEnv::standard(SloClass::Relaxed);
    let cfg = SimConfig {
        warmup_exclude_ms: if smoke { 5_000.0 } else { 20_000.0 },
        ..SimConfig::default()
    };
    let mut esg = EsgScheduler::new();
    let mut digest = TraceDigest::new();
    let r = run_simulation(&env, cfg, &mut esg, &workload, "trace", Some(&mut digest))?;
    println!(
        "ESG on the trace: hit rate {:.1}%, {:.4} cents/invocation, mean batch {:.2}, \
         {:.0}% local hand-offs, GPU util {:.0}%, dispatch digest {:016x}",
        r.avg_hit_rate() * 100.0,
        r.cost_per_invocation_cents(),
        r.batch_size.mean(),
        r.locality_rate() * 100.0,
        r.vgpu_utilisation * 100.0,
        digest.digest()
    );
    for a in &r.apps {
        println!(
            "  {:<32} hit {:>5.1}%  p95 {:>6.0} ms (SLO {:.0})",
            a.name,
            a.hit_rate() * 100.0,
            a.latency_percentile(95.0).unwrap_or(0.0),
            a.slo_ms
        );
    }
    Ok(())
}
