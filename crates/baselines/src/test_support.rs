//! Shared fixtures for baseline scheduler tests (test builds only).

use esg_model::{AppId, InvocationId, NodeId, Resources};
use esg_sim::{ClusterState, JobView, NodeView, QueueKey, SchedCtx, SimEnv};

/// An idle cluster of `n` standard (Table-2 baseline class) nodes.
pub fn idle_cluster(n: usize) -> ClusterState {
    ClusterState::from_views(
        (0..n as u32)
            .map(|i| NodeView::idle(NodeId(i), Resources::new(16, 7)))
            .collect(),
    )
}

/// Jobs with the given slacks, all ready and arriving slightly in the past.
pub fn jobs_with_slack(slacks: &[f64]) -> Vec<JobView> {
    slacks
        .iter()
        .enumerate()
        .map(|(i, &s)| JobView {
            invocation: InvocationId(i as u64),
            ready_at_ms: 10.0 + i as f64,
            invocation_arrival_ms: 5.0,
            slack_ms: s,
            pred_node: None,
        })
        .collect()
}

/// Builds a scheduling context for `(app, stage)` at `now_ms`.
pub fn ctx_for<'a>(
    env: &'a SimEnv,
    cluster: &'a ClusterState,
    jobs: &'a [JobView],
    app: u32,
    stage: usize,
    now_ms: f64,
) -> SchedCtx<'a> {
    let key = QueueKey {
        app: AppId(app),
        stage,
    };
    SchedCtx {
        now_ms,
        key,
        jobs,
        function: env.apps[app as usize].nodes[stage],
        slo_ms: env.slo_ms(AppId(app)),
        base_latency_ms: env.base_latency_ms(AppId(app)),
        queue_interval_ms: None,
        cluster,
        profiles: &env.profiles,
        apps: &env.apps,
        catalog: &env.catalog,
        price: &env.price,
        transfer: &env.transfer,
        noise: &env.noise,
        env_fingerprint: env.fingerprint(),
    }
}
