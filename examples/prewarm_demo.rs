//! Pre-warming demo: the EWMA proxy (paper section 4) predicting
//! invocation intervals and hiding cold starts, versus a platform without
//! it.
//!
//! Run with: `cargo run --release --example prewarm_demo`
//! (`ESG_SMOKE=1` shrinks the run for CI.)

use esg::prelude::*;
use esg::workload::ArrivalPredictor;

fn main() -> Result<(), SimError> {
    let smoke = std::env::var("ESG_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");

    // The predictor on its own: periodic arrivals.
    let mut p = ArrivalPredictor::new(0.3);
    for i in 0..10 {
        p.observe(i as f64 * 120.0);
    }
    println!(
        "after 10 arrivals at ~120 ms: predicted interval {:.1} ms, next at {:.0} ms",
        p.predicted_interval_ms().expect("trained"),
        p.predicted_next_ms().expect("trained"),
    );
    let deblur_cold = standard_catalog()
        .get(esg::model::catalog::functions::DEBLUR)
        .cold_start_ms;
    println!(
        "deblur cold start is {deblur_cold:.0} ms -> proxy would begin warming at {:.0} ms",
        p.prewarm_at_ms(deblur_cold, 1080.0).expect("trained")
    );

    // Platform effect: same workload, pre-warming on vs off. The cluster
    // starts with one warm container per (node, function); under load the
    // proxy's job is growing pools ahead of concurrency spikes.
    let span_ms = if smoke { 20_000.0 } else { 120_000.0 };
    let workload = WorkloadGen::new(WorkloadClass::Normal, esg::model::standard_app_ids(), 3)
        .generate_for(span_ms);
    println!(
        "\n{} invocations over {:.0} s:",
        workload.len(),
        span_ms / 1000.0
    );
    let env = SimEnv::standard(SloClass::Relaxed);
    for (label, prewarm) in [("with pre-warming", true), ("without", false)] {
        let cfg = SimConfig {
            prewarm,
            ..SimConfig::default()
        };
        let mut esg = EsgScheduler::new();
        let r = run_simulation(&env, cfg, &mut esg, &workload, label, None)?;
        println!(
            "  {label:<18} cold starts {:>4} ({:>4.1}%), hit rate {:>5.1}%, mean latency {:>6.0} ms",
            r.cold_starts,
            r.cold_start_rate() * 100.0,
            r.avg_hit_rate() * 100.0,
            r.apps.iter().map(|a| a.mean_latency_ms()).sum::<f64>() / r.apps.len() as f64
        );
    }
    Ok(())
}
