//! Cross-crate property tests: invariants that only hold when the layers
//! compose correctly.

use esg::core::{astar_search, brute_force, StageTable};
use esg::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// ESG_1Q on arbitrary stage sequences from the real catalog matches
    /// brute force and respects the grid.
    #[test]
    fn search_matches_oracle_on_catalog_pipelines(
        stages in proptest::collection::vec(0u32..6, 1..4),
        slack in 0.9f64..3.0,
        cap in 1u32..9,
    ) {
        let grid = ConfigGrid::new(vec![1, 2, 4], vec![1, 2, 4], vec![1, 2]);
        let env = SimEnv::with_grid(SloClass::Moderate, grid);
        let fns: Vec<FnId> = stages.iter().map(|&i| FnId(i)).collect();
        let table = StageTable::build(&fns, &env.profiles, cap);
        let gslo = table.min_total_time() * slack;
        let fast = astar_search(&table, gslo, 3);
        let oracle = brute_force(&table, gslo, 3);
        prop_assert_eq!(fast.feasible, oracle.feasible);
        prop_assert!((fast.paths[0].cost_cents - oracle.paths[0].cost_cents).abs() < 1e-9);
        prop_assert!(fast.expansions <= oracle.expansions);
    }

    /// Simulated runs conserve work for random small workloads.
    #[test]
    fn simulation_conserves_invocations(n in 5usize..40, seed in 0u64..500) {
        let env = SimEnv::with_grid(
            SloClass::Relaxed,
            ConfigGrid::new(vec![1, 2], vec![1, 2], vec![1]),
        );
        let w = WorkloadGen::new(WorkloadClass::Light, esg::model::standard_app_ids(), seed)
            .generate(n);
        let mut s = MinScheduler;
        let r = run_simulation(&env, SimConfig::default(), &mut s, &w, "prop", None)
            .expect("valid run");
        prop_assert_eq!(r.arrivals as usize, n);
        prop_assert_eq!(r.total_completed() as usize, n);
        prop_assert_eq!(r.warm_starts + r.cold_starts, r.dispatches);
        // Latency is bounded below by each app's base execution time.
        for (i, a) in r.apps.iter().enumerate() {
            let base = env.base_latency_ms(AppId(i as u32));
            for &l in &a.latencies_ms {
                prop_assert!(l >= base * 0.7, "latency {l} below plausible floor {base}");
            }
        }
    }

    /// Heterogeneous placement never exceeds any node's own capacity:
    /// whatever mix of classes a cluster carries, each node's peak
    /// simultaneous attachment stays inside that node's resources, and
    /// every invocation still completes.
    #[test]
    fn heterogeneous_placement_respects_per_node_capacity(
        picks in proptest::collection::vec(0usize..3, 2..7),
        n in 8usize..25,
        seed in 0u64..200,
    ) {
        use esg::model::{ClusterSpec, NodeClass};
        let classes = [NodeClass::a100(), NodeClass::v100(), NodeClass::t4()];
        let spec = picks
            .iter()
            .fold(ClusterSpec::new("prop-hetero"), |s, &i| {
                s.with(classes[i].clone(), 1)
            });
        let env = SimEnv::with_grid(
            SloClass::Relaxed,
            ConfigGrid::new(vec![1, 2], vec![1, 2], vec![1, 2]),
        );
        let w = WorkloadGen::new(WorkloadClass::Light, esg::model::standard_app_ids(), seed)
            .generate(n);
        let mut s = esg::core::EsgScheduler::new();
        let cfg = SimConfig {
            cluster: Some(spec.clone()),
            ..SimConfig::default()
        };
        let r = run_simulation(&env, cfg, &mut s, &w, "prop-hetero", None).expect("valid run");
        prop_assert_eq!(r.total_completed() as usize, n);
        prop_assert_eq!(r.nodes.len(), spec.len());
        for (node, class) in r.nodes.iter().zip(&spec.nodes) {
            prop_assert_eq!(&node.class, &class.name);
            prop_assert_eq!(node.total, class.resources());
            prop_assert!(
                node.total.contains(node.peak_used),
                "class {} peak {} exceeds total {}",
                node.class,
                node.peak_used,
                node.total
            );
        }
    }

    /// The SLO plan of every catalog app always covers all stages exactly
    /// once with positive quotas, regardless of group size.
    #[test]
    fn slo_plans_cover_catalog_apps(g in 1usize..6) {
        let env = SimEnv::standard(SloClass::Moderate);
        for app in &env.apps {
            let dag = esg::dag::Dag::from_app(app).expect("valid");
            let times = env.profiles.stage_times(app);
            let anl = esg::dag::average_normalized_length(&times);
            let plan = esg::dag::SloPlan::build(&dag, &anl, g).expect("reducible");
            let mut seen = vec![0usize; app.num_stages()];
            for grp in plan.groups() {
                prop_assert!(grp.members.len() <= g);
                prop_assert!(grp.fraction > 0.0);
                for &m in &grp.members {
                    seen[m] += 1;
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1));
        }
    }
}
