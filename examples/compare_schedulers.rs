//! Compare ESG with the four baselines on one scenario, then ESG's
//! composable round-policy stacks against classic ESG.
//!
//! A scaled-down version of the paper's Fig. 6: every scheduler runs the
//! same workload on the same platform; only the scheduling algorithm
//! differs (§4.2). The second table hand-composes ESG's round-policy
//! stack (`EsgScheduler::with_policy`): SLO-aware admission (sheds
//! provably hopeless queues), ESG cross-queue packing (GSLO-tightness
//! ranking under one shared search budget), and their stack. A stack
//! with an out-of-range knob is refused by `run_simulation`.
//!
//! Run with: `cargo run --release --example compare_schedulers [scenario]`
//! where scenario is `strict-light` (default), `moderate-normal`, or
//! `relaxed-heavy`. (`ESG_SMOKE=1` shrinks the run for CI.)

use esg::prelude::*;

fn main() -> Result<(), SimError> {
    let smoke = std::env::var("ESG_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let arg = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "strict-light".into());
    let scenario = match arg.as_str() {
        "strict-light" => Scenario::STRICT_LIGHT,
        "moderate-normal" => Scenario::MODERATE_NORMAL,
        "relaxed-heavy" => Scenario::RELAXED_HEAVY,
        other => {
            eprintln!("unknown scenario {other}; using strict-light");
            Scenario::STRICT_LIGHT
        }
    };
    let n_arrivals = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 120 } else { 600 });

    let env = SimEnv::standard(scenario.slo);
    let workload = WorkloadGen::new(scenario.workload, esg::model::standard_app_ids(), 42)
        .generate(n_arrivals);
    println!(
        "scenario {scenario}: {} invocations over {:.1}s",
        workload.len(),
        workload.span_ms() / 1000.0
    );

    let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(EsgScheduler::new()),
        Box::new(InflessScheduler::new()),
        Box::new(FastGShareScheduler::new()),
        Box::new(OrionScheduler::default()),
        Box::new(AquatopeScheduler::default()),
    ];

    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>9} {:>9} {:>8} {:>8}",
        "scheduler", "SLO-hit%", "cost(¢)", "¢/invoc", "miss%", "cold%", "local%", "ovh(ms)"
    );
    let mut esg_cost = None;
    for s in schedulers.iter_mut() {
        let r = run_simulation(
            &env,
            SimConfig::default(),
            s.as_mut(),
            &workload,
            &scenario.to_string(),
            None,
        )?;
        let norm = *esg_cost.get_or_insert(r.total_cost_cents());
        println!(
            "{:<12} {:>7.1}% {:>10.1} {:>10.3} {:>8.1}% {:>8.1}% {:>7.1}% {:>8.2}  (cost vs ESG: {:.2}x)",
            r.scheduler,
            r.avg_hit_rate() * 100.0,
            r.total_cost_cents(),
            r.cost_per_invocation_cents(),
            r.config_miss_rate() * 100.0,
            r.cold_start_rate() * 100.0,
            r.locality_rate() * 100.0,
            r.mean_overhead_ms(),
            r.total_cost_cents() / norm,
        );
    }

    // Round-policy stacks, hand-composed into ESG; the classic row is
    // the same contract as the table above.
    println!(
        "\nESG round-policy stacks:\n{:<12} {:>8} {:>7} {:>10} {:>9}",
        "policy", "SLO-hit%", "shed%", "¢/invoc", "deferred"
    );
    let (admit, pack) = (SloAdmission::default, BandwidthAwarePacking::default);
    let stacks = [
        ("classic", PolicyStack::new()),
        ("admit", PolicyStack::new().with(admit())),
        ("pack", PolicyStack::new().with(pack())),
        ("pack+admit", PolicyStack::new().with(admit()).with(pack())),
    ];
    for (label, stack) in stacks {
        let mut esg = EsgScheduler::new().with_policy(stack);
        let r = run_simulation(
            &env,
            SimConfig::default(),
            &mut esg,
            &workload,
            &scenario.to_string(),
            None,
        )?;
        println!(
            "{:<12} {:>7.1}% {:>6.1}% {:>10.3} {:>9}",
            label,
            r.avg_hit_rate() * 100.0,
            r.shed_rate() * 100.0,
            r.cost_per_invocation_cents(),
            r.scheduler_stats.policy.queues_deferred,
        );
    }

    // Stage knobs are checked before a run starts: a contention bias
    // that is not a number is a typed error, not a misranked run.
    let nan = BandwidthAwarePacking::new(BandwidthPackingConfig {
        contention_bias: f64::NAN,
        ..BandwidthPackingConfig::default()
    });
    let mut bad = EsgScheduler::new().with_policy(PolicyStack::new().with(nan));
    let err = run_simulation(
        &env,
        SimConfig::default(),
        &mut bad,
        &workload,
        "knob-check",
        None,
    )
    .expect_err("a NaN contention bias is refused");
    println!("\nbad knob check: {err}");
    Ok(())
}
