//! Per-application SLO plans.
//!
//! Caches, for each application, the dominator-based SLO distribution
//! (`esg-dag`): the group partition (max size `g`), each stage's share of
//! the end-to-end SLO, and the reachability-weighted remaining share used
//! to turn an invocation's *current slack* into a group target — the
//! quantity ESG_1Q receives as `GSLO` (§3.3, Algorithm 1).

use esg_dag::{average_normalized_length, Dag, Hierarchy, SloPlan};
use esg_model::{AppSpec, FnId};
use esg_profile::ProfileTable;

/// The cached plan of one application.
#[derive(Clone, Debug)]
pub struct AppPlan {
    /// The dominator-based SLO distribution.
    pub plan: SloPlan,
    /// Reduced-DAG fingerprint (`Hierarchy::fingerprint`, falling back to
    /// the raw `Dag::fingerprint` when the DAG is not reducible) — the
    /// application component of the scheduler's plan-cache key.
    pub fingerprint: u64,
    /// Each stage's individual share of the end-to-end SLO
    /// (`group fraction × ANL(stage)/ANL(group)`).
    pub stage_fraction: Vec<f64>,
    /// For each stage, the summed share of the stage and all its DAG
    /// descendants — the denominator when re-distributing remaining slack.
    pub remaining_fraction: Vec<f64>,
    /// Each stage's search window as functions, in execution order.
    window_fns: Vec<Box<[FnId]>>,
    /// Each stage's [`window_share`](Self::window_share).
    window_share: Vec<f64>,
    /// Id of stage 0's search window among all apps' windows (stage `s`
    /// is `first_window + s`).
    first_window: usize,
}

impl AppPlan {
    fn build(
        app: &AppSpec,
        profiles: &ProfileTable,
        group_size: usize,
        first_window: usize,
    ) -> AppPlan {
        let dag = Dag::from_app(app).expect("app specs are validated DAGs");
        let fingerprint = Hierarchy::build(&dag)
            .map(|h| h.fingerprint())
            .unwrap_or_else(|_| dag.fingerprint());
        let times = profiles.stage_times(app);
        let anl = average_normalized_length(&times);
        let plan = SloPlan::build(&dag, &anl, group_size).unwrap_or_else(|_| {
            // Non-reducible DAGs fall back to per-stage groups with ANL
            // shares: always valid, just group-free.
            let per_stage = SloPlan::build(&dag, &anl, 1);
            per_stage.unwrap_or_else(|_| SloPlan::single_group(app.num_stages()))
        });

        let n = app.num_stages();
        let mut stage_fraction = vec![0.0; n];
        for g in plan.groups() {
            let group_anl: f64 = g.members.iter().map(|&m| anl[m]).sum();
            for &m in &g.members {
                stage_fraction[m] = if group_anl > 0.0 {
                    g.fraction * anl[m] / group_anl
                } else {
                    g.fraction / g.members.len() as f64
                };
            }
        }

        let remaining_fraction: Vec<f64> = (0..n)
            .map(|s| {
                let rf: f64 = (0..n)
                    .filter(|&v| dag.reaches(s, v))
                    .map(|v| stage_fraction[v])
                    .sum();
                debug_assert!(rf > 0.0);
                rf
            })
            .collect();

        let window_fns = (0..n)
            .map(|s| {
                plan.remaining_in_group(s)
                    .iter()
                    .map(|&v| app.nodes[v])
                    .collect()
            })
            .collect();
        let window_share = (0..n)
            .map(|s| {
                let window: f64 = plan
                    .remaining_in_group(s)
                    .iter()
                    .map(|&v| stage_fraction[v])
                    .sum();
                (window / remaining_fraction[s]).clamp(0.0, 1.0)
            })
            .collect();

        AppPlan {
            plan,
            fingerprint,
            stage_fraction,
            remaining_fraction,
            window_fns,
            window_share,
            first_window,
        }
    }

    /// The stages ESG_1Q should search when `stage` is about to dispatch:
    /// `stage` and the rest of its group, in execution order.
    pub fn search_window(&self, stage: usize) -> &[usize] {
        self.plan.remaining_in_group(stage)
    }

    /// [`search_window`](Self::search_window) as the stages' functions.
    #[inline]
    pub fn window_fns(&self, stage: usize) -> &[FnId] {
        &self.window_fns[stage]
    }

    /// The id of `stage`'s search window, dense over all apps' stages
    /// (see [`AppPlans::num_windows`]).
    #[inline]
    pub fn window_id(&self, stage: usize) -> usize {
        self.first_window + stage
    }

    /// The share of remaining slack owned by the search window of `stage`:
    /// `Σ stage_fraction(window) / Σ stage_fraction(descendants)`.
    #[inline]
    pub fn window_share(&self, stage: usize) -> f64 {
        self.window_share[stage]
    }
}

/// Plans for every application of an environment.
#[derive(Clone, Debug)]
pub struct AppPlans {
    plans: Vec<AppPlan>,
    group_size: usize,
    windows: usize,
}

impl AppPlans {
    /// Builds plans for all `apps` with group size `g` (ESG default 3).
    pub fn build(apps: &[AppSpec], profiles: &ProfileTable, group_size: usize) -> AppPlans {
        let mut windows = 0;
        let plans = apps
            .iter()
            .map(|a| {
                let plan = AppPlan::build(a, profiles, group_size, windows);
                windows += a.num_stages();
                plan
            })
            .collect();
        AppPlans {
            plans,
            group_size,
            windows,
        }
    }

    /// Number of search windows over all apps (one per stage).
    #[inline]
    pub fn num_windows(&self) -> usize {
        self.windows
    }

    /// The plan of one app.
    #[inline]
    pub fn plan(&self, app: usize) -> &AppPlan {
        &self.plans[app]
    }

    /// The group size the plans were built with.
    #[inline]
    pub fn group_size(&self) -> usize {
        self.group_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_model::{standard_apps, standard_catalog, ConfigGrid, PriceModel};

    fn plans(g: usize) -> AppPlans {
        let profiles = ProfileTable::build(
            &standard_catalog(),
            &ConfigGrid::default(),
            &PriceModel::default(),
        );
        AppPlans::build(&standard_apps(), &profiles, g)
    }

    #[test]
    fn stage_fractions_sum_to_one_on_linear_apps() {
        let p = plans(3);
        for (i, app) in standard_apps().iter().enumerate() {
            let sum: f64 = p.plan(i).stage_fraction.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", app.name);
        }
    }

    #[test]
    fn remaining_fraction_decreases_along_pipeline() {
        let p = plans(3);
        let plan = p.plan(3); // 5-stage expanded image classification
        for w in plan.remaining_fraction.windows(2) {
            assert!(w[0] > w[1]);
        }
        assert!((plan.remaining_fraction[0] - 1.0).abs() < 1e-9);
        // Last stage's remaining share is its own share.
        assert!((plan.remaining_fraction[4] - plan.stage_fraction[4]).abs() < 1e-12);
    }

    #[test]
    fn search_window_respects_groups() {
        let p = plans(3);
        let plan = p.plan(3); // 5 stages, groups [0,1,2] and [3,4]
        assert_eq!(plan.search_window(0), &[0, 1, 2]);
        assert_eq!(plan.search_window(1), &[1, 2]);
        assert_eq!(plan.search_window(2), &[2]);
        assert_eq!(plan.search_window(3), &[3, 4]);
        assert_eq!(plan.search_window(4), &[4]);
    }

    #[test]
    fn window_share_is_sane() {
        let p = plans(3);
        for app in 0..4 {
            let plan = p.plan(app);
            let n = plan.stage_fraction.len();
            for s in 0..n {
                let share = plan.window_share(s);
                assert!(share > 0.0 && share <= 1.0, "app {app} stage {s}: {share}");
            }
            // At stage 0 of a <=3-stage app the window covers everything.
            if n <= 3 {
                assert!((plan.window_share(0) - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn fingerprints_are_stable_and_shape_sensitive() {
        let a = plans(3);
        let b = plans(3);
        for (i, app) in standard_apps().iter().enumerate() {
            assert_eq!(
                a.plan(i).fingerprint,
                b.plan(i).fingerprint,
                "{}: fingerprint must be deterministic",
                app.name
            );
        }
        // The 3-stage and 5-stage chains must not collide.
        assert_ne!(a.plan(0).fingerprint, a.plan(3).fingerprint);
    }

    #[test]
    fn window_functions_and_ids_follow_the_search_windows() {
        let p = plans(3);
        let apps = standard_apps();
        let mut next_id = 0;
        for (i, app) in apps.iter().enumerate() {
            let plan = p.plan(i);
            for s in 0..app.num_stages() {
                let fns: Vec<FnId> = plan
                    .search_window(s)
                    .iter()
                    .map(|&v| app.nodes[v])
                    .collect();
                assert_eq!(plan.window_fns(s), &fns[..]);
                assert_eq!(plan.window_id(s), next_id);
                next_id += 1;
            }
        }
        assert_eq!(p.num_windows(), next_id);
    }

    #[test]
    fn group_size_one_gives_single_stage_windows() {
        let p = plans(1);
        let plan = p.plan(0);
        for s in 0..3 {
            assert_eq!(plan.search_window(s), &[s]);
        }
    }

    #[test]
    fn heavier_stages_get_bigger_fractions() {
        let p = plans(3);
        // Image classification: super_resolution (86ms) vs segmentation
        // (293ms): segmentation must own a bigger share.
        let plan = p.plan(0);
        assert!(plan.stage_fraction[1] > plan.stage_fraction[0]);
    }

    #[test]
    fn diamond_app_plan() {
        let apps = vec![AppSpec::dag(
            "diamond",
            vec![FnId(0), FnId(1), FnId(2), FnId(3)],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        )];
        let profiles = ProfileTable::build(
            &standard_catalog(),
            &ConfigGrid::default(),
            &PriceModel::default(),
        );
        let plans = AppPlans::build(&apps, &profiles, 3);
        let plan = plans.plan(0);
        // Branch stages share the parallel quota; every fraction positive.
        assert!(plan.stage_fraction.iter().all(|&f| f > 0.0));
        // Stage 0 reaches everything: remaining fraction counts one branch
        // fully (fractions of both branches counted — remaining is a
        // conservative denominator on DAGs).
        assert!(plan.remaining_fraction[0] >= plan.stage_fraction[0]);
        assert!(plan.window_share(3) > 0.0);
    }
}
