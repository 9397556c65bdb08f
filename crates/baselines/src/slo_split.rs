//! Average-service-time SLO distribution.
//!
//! "INFless provides no method for distributing an application's SLO to
//! its functions. Our experiment follows a prior work \[GrandSLAm\] to do
//! the distribution based on the average service times of the functions"
//! (§4.2). The same split is applied to FaST-GShare.
//!
//! Each stage receives `SLO × t_i / Σ_j t_j`, with `t` the minimum-
//! configuration execution time. The split is *static*: late stages do not
//! inherit slack or delay from early stages (§5.2 explains how this hurts
//! long pipelines).

use esg_model::{AppSpec, Catalog};
use esg_sim::SimEnv;

/// Per-stage shares of the end-to-end SLO, proportional to minimum-config
/// service times. Sums to 1.
pub fn average_service_split(app: &AppSpec, catalog: &Catalog) -> Vec<f64> {
    let times: Vec<f64> = app.nodes.iter().map(|&f| catalog.get(f).exec_ms).collect();
    let total: f64 = times.iter().sum();
    assert!(total > 0.0, "service times must be positive");
    times.into_iter().map(|t| t / total).collect()
}

/// [`average_service_split`] of every app of `env`, indexed by `AppId`.
pub(crate) fn split_all(env: &SimEnv) -> Vec<Vec<f64>> {
    env.apps
        .iter()
        .map(|a| average_service_split(a, &env.catalog))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_model::{standard_apps, standard_catalog};

    #[test]
    fn shares_sum_to_one() {
        let catalog = standard_catalog();
        for app in standard_apps() {
            let s = average_service_split(&app, &catalog);
            assert_eq!(s.len(), app.num_stages());
            assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(s.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn proportional_to_service_time() {
        let catalog = standard_catalog();
        let apps = standard_apps();
        // Image classification: SR 86, Seg 293, Cls 147.
        let s = average_service_split(&apps[0], &catalog);
        let total = 86.0 + 293.0 + 147.0;
        assert!((s[0] - 86.0 / total).abs() < 1e-12);
        assert!((s[1] - 293.0 / total).abs() < 1e-12);
        assert!((s[2] - 147.0 / total).abs() < 1e-12);
    }
}
