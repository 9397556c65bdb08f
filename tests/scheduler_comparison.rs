//! The headline result on a reduced setting: ESG meets or beats the
//! baselines on SLO hit rate at equal-or-lower cost, and the Table-4 miss
//! pattern holds (only pre-planned schedulers miss).

use esg::baselines::bo::BoOptimizer;
use esg::prelude::*;

fn env() -> SimEnv {
    SimEnv::with_grid(
        SloClass::Moderate,
        ConfigGrid::new(vec![1, 2, 4], vec![1, 2, 4, 8], vec![1, 2]),
    )
}

fn workload() -> Workload {
    WorkloadGen::new(WorkloadClass::Normal, esg::model::standard_app_ids(), 21)
        .generate_for(40_000.0)
}

fn cfg() -> SimConfig {
    SimConfig {
        warmup_exclude_ms: 10_000.0,
        ..SimConfig::default()
    }
}

#[test]
fn esg_beats_relation_blind_baselines_on_hit_rate() {
    let env = env();
    let w = workload();
    let mut esg = esg::core::EsgScheduler::new();
    let r_esg = run_simulation(&env, cfg(), &mut esg, &w, "esg", None).expect("valid run");
    let mut infless = esg::baselines::InflessScheduler::new();
    let r_inf = run_simulation(&env, cfg(), &mut infless, &w, "infless", None).expect("valid run");
    let mut fgs = esg::baselines::FastGShareScheduler::new();
    let r_fgs = run_simulation(&env, cfg(), &mut fgs, &w, "fgs", None).expect("valid run");
    assert!(
        r_esg.avg_hit_rate() >= r_inf.avg_hit_rate(),
        "ESG {:.3} vs INFless {:.3}",
        r_esg.avg_hit_rate(),
        r_inf.avg_hit_rate()
    );
    assert!(
        r_esg.avg_hit_rate() >= r_fgs.avg_hit_rate(),
        "ESG {:.3} vs FaST-GShare {:.3}",
        r_esg.avg_hit_rate(),
        r_fgs.avg_hit_rate()
    );
    // Cost: ESG spends no more per invocation than either baseline.
    assert!(r_esg.cost_per_invocation_cents() <= r_inf.cost_per_invocation_cents() * 1.02);
    assert!(r_esg.cost_per_invocation_cents() <= r_fgs.cost_per_invocation_cents() * 1.02);
}

#[test]
fn only_preplanned_schedulers_miss_configurations() {
    let env = env();
    let w = workload();
    let mut esg = esg::core::EsgScheduler::new();
    let r_esg = run_simulation(&env, cfg(), &mut esg, &w, "esg", None).expect("valid run");
    assert_eq!(r_esg.config_misses, 0, "ESG adapts and never misses");

    let mut aq = esg::baselines::AquatopeScheduler::new(BoOptimizer::tiny(5));
    let r_aq = run_simulation(&env, cfg(), &mut aq, &w, "aq", None).expect("valid run");
    // The BO plan regularly wants a bigger batch than the live queue holds.
    assert!(
        r_aq.config_misses > 0,
        "Aquatope's static plans should miss sometimes"
    );
}

#[test]
fn orion_overhead_costs_hit_rate() {
    // Fig. 9's premise: the same Orion with its search time charged does
    // no better than with the search free.
    let env = env();
    let w = workload();
    let charged = {
        let mut s = esg::baselines::OrionScheduler::new(100.0);
        run_simulation(&env, cfg(), &mut s, &w, "orion", None).expect("valid run")
    };
    let free = {
        let mut s = esg::baselines::OrionScheduler::new(100.0);
        let c = SimConfig {
            charge_overhead: false,
            ..cfg()
        };
        run_simulation(&env, c, &mut s, &w, "orion-free", None).expect("valid run")
    };
    assert!(charged.avg_hit_rate() <= free.avg_hit_rate() + 0.02);
}

#[test]
fn esg_locality_beats_fragmentation_placement() {
    let env = env();
    let w = workload();
    let mut esg = esg::core::EsgScheduler::new();
    let r_esg = run_simulation(&env, cfg(), &mut esg, &w, "esg", None).expect("valid run");
    let mut infless = esg::baselines::InflessScheduler::new();
    let r_inf = run_simulation(&env, cfg(), &mut infless, &w, "infless", None).expect("valid run");
    assert!(
        r_esg.locality_rate() > r_inf.locality_rate(),
        "ESG local {:.2} vs INFless {:.2}",
        r_esg.locality_rate(),
        r_inf.locality_rate()
    );
}
