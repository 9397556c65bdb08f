//! The checks every run passes before its event loop starts, and the
//! typed [`SimError`] they return.
//!
//! `SimEnv`/`SimConfig` are plain records: a struct literal accepts an
//! empty cluster, a negative warm-up window, or a churn script draining a
//! node that never exists. [`run_simulation`](crate::run_simulation) and
//! [`run_streamed`](crate::run_streamed), the one checked way to start a
//! run, first check the configuration ([`SimConfig::validate`]), the
//! environment's applications and transfer tariffs, and the knobs of the
//! scheduler's round-policy stack, so such a mistake is a typed
//! [`SimError`] instead of a panic deep inside the event loop (or a
//! silently ignored churn event). Both also check every arrival:
//! `run_simulation` scans the workload before the run, `run_streamed`
//! checks each arrival as it is pulled. The trace loader runs the
//! configuration, tariff and arrival checks on a recorded run.
//!
//! ```
//! use esg_model::{ClusterSpec, SloClass, WorkloadClass};
//! use esg_sim::{run_simulation, MinScheduler, SimConfig, SimEnv, SimError};
//! use esg_workload::WorkloadGen;
//!
//! let env = SimEnv::standard(SloClass::Moderate);
//! let workload = WorkloadGen::new(
//!     WorkloadClass::Light,
//!     esg_model::standard_app_ids(),
//!     7,
//! )
//! .generate(10);
//! let cfg = SimConfig {
//!     warmup_exclude_ms: 1_000.0,
//!     seed: 7,
//!     ..SimConfig::default()
//! };
//! let result = run_simulation(&env, cfg, &mut MinScheduler, &workload, "doc", None)?;
//! assert_eq!(result.arrivals, 10);
//!
//! // A cluster without nodes is refused before the run starts.
//! let empty = SimConfig {
//!     cluster: Some(ClusterSpec::new("empty")),
//!     ..SimConfig::default()
//! };
//! let refused = run_simulation(&env, empty, &mut MinScheduler, &workload, "doc", None);
//! assert_eq!(refused.err(), Some(SimError::EmptyCluster));
//! # Ok::<(), SimError>(())
//! ```

use crate::platform::{SimConfig, SimEnv, NODES};
use crate::sched::Scheduler;
use esg_model::{AppId, ChurnEvent, Config, NodeClass, Resources, SimTime};
use esg_profile::TransferModel;
use esg_workload::Arrival;

/// A setting refused before a run's event loop starts, by
/// [`run_simulation`](crate::run_simulation),
/// [`run_streamed`](crate::run_streamed) or [`SimConfig::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The cluster would have no usable node (zero nodes, or a node with
    /// no resources at all).
    EmptyCluster,
    /// The environment would have no applications (or an app without
    /// stages), so no queue could ever form.
    NoApplications,
    /// A scalar knob is out of its valid range.
    InvalidKnob {
        /// Which knob.
        knob: &'static str,
        /// The offending value.
        value: f64,
        /// What the knob requires.
        requirement: &'static str,
    },
    /// A churn event is inconsistent with cluster membership at its
    /// scripted time (e.g. draining a node that will not exist).
    InvalidChurn {
        /// Index into the churn plan's event list.
        index: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A custom application references a function outside the catalog.
    UnknownFunction {
        /// The offending application's name.
        app: String,
        /// The out-of-catalog function id.
        function: esg_model::FnId,
    },
    /// A workload arrival's time is not a valid input instant (see
    /// [`SimTime::is_input_ms`]).
    InvalidArrival {
        /// Index into the workload's arrival list.
        index: usize,
        /// The offending time, ms.
        at_ms: f64,
    },
    /// A workload arrival precedes the one before it (equal times are
    /// in order).
    UnsortedArrival {
        /// Index into the workload's arrival list.
        index: usize,
        /// The offending time, ms.
        at_ms: f64,
    },
    /// A workload arrival names an application the environment does not
    /// have.
    UnknownApp {
        /// Index into the workload's arrival list.
        index: usize,
        /// The out-of-range application id.
        app: AppId,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EmptyCluster => write!(f, "cluster has no usable node"),
            SimError::NoApplications => write!(f, "environment has no runnable application"),
            SimError::InvalidKnob {
                knob,
                value,
                requirement,
            } => write!(f, "knob {knob} = {value} violates: {requirement}"),
            SimError::InvalidChurn { index, reason } => {
                write!(f, "churn event #{index}: {reason}")
            }
            SimError::UnknownFunction { app, function } => {
                write!(f, "app {app} references {function:?}, not in the catalog")
            }
            SimError::InvalidArrival { index, at_ms } => write!(
                f,
                "arrival #{index} at t = {at_ms} ms is outside [0, {}] ms",
                SimTime::MAX_MS
            ),
            SimError::UnsortedArrival { index, at_ms } => write!(
                f,
                "arrival #{index} at t = {at_ms} ms precedes arrival #{}",
                index - 1
            ),
            SimError::UnknownApp { index, app } => {
                write!(f, "arrival #{index} names {app:?}, not in the environment")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The checks [`run_simulation`](crate::run_simulation) and
/// [`run_streamed`](crate::run_streamed) make before the event loop
/// starts: the configuration, the environment, the `arrivals` (one scan
/// of [`check_arrival`]) and the knobs of every stage in `sched`'s
/// round-policy stack, in that order.
pub(crate) fn check_run(
    env: &SimEnv,
    cfg: &SimConfig,
    arrivals: &[Arrival],
    sched: &mut dyn Scheduler,
) -> Result<(), SimError> {
    cfg.validate()?;
    validate_transfer(&env.transfer)?;
    if env.apps.is_empty() || env.apps.iter().any(|a| a.num_stages() == 0) {
        return Err(SimError::NoApplications);
    }
    // Every stage must name a catalog function: an out-of-range id would
    // otherwise surface as an index panic at the first dispatch touching
    // it.
    let known = env.catalog.iter().count();
    for a in &env.apps {
        if let Some(&f) = a.nodes.iter().find(|f| f.index() >= known) {
            return Err(SimError::UnknownFunction {
                app: a.name.to_string(),
                function: f,
            });
        }
    }
    let mut previous_ms = 0.0;
    for (index, a) in arrivals.iter().enumerate() {
        check_arrival(index, a, env.apps.len(), previous_ms)?;
        previous_ms = a.at_ms;
    }
    sched.round_policy().map_or(Ok(()), |p| p.validate())
}

impl SimConfig {
    /// Checks every cross-field invariant of the configuration: cluster
    /// shape, node classes, topology, scalar knobs and churn script.
    /// Every run checks it, and so does the trace loader on a recorded
    /// config, so a configuration that would panic inside the event loop
    /// is a typed error in both.
    pub fn validate(&self) -> Result<(), SimError> {
        // Cluster shape (`None` is the paper cluster, valid as it is).
        if let Some(spec) = &self.cluster {
            if spec.nodes.is_empty() || spec.nodes.iter().any(|c| c.resources() == Resources::ZERO)
            {
                return Err(SimError::EmptyCluster);
            }
            for class in &spec.nodes {
                validate_class(class)?;
            }
            if let Some(t) = spec.topology {
                if t.gpus_per_server == 0 {
                    return Err(SimError::InvalidKnob {
                        knob: "topology.gpus_per_server",
                        value: 0.0,
                        requirement: "at least 1 node per server",
                    });
                }
                positive("topology.tor_gbps", t.tor_gbps)?;
            }
            // Some node must fit the minimum configuration, or no task
            // can ever be placed and the run ends with nothing completed.
            let min = Config::MIN.resources();
            if !spec.nodes.iter().any(|c| c.resources().contains(min)) {
                return Err(SimError::InvalidKnob {
                    knob: "cluster.nodes",
                    value: 0.0,
                    requirement: "at least one node fits the minimum configuration \
(1 vCPU and 1 vGPU slice)",
                });
            }
        }
        // Joined classes run tasks and feed the same bandwidth pools.
        for ev in &self.churn.events {
            if let ChurnEvent::Join { class, .. } = ev {
                validate_class(class)?;
            }
        }

        non_negative("warmup_exclude_ms", self.warmup_exclude_ms)?;
        non_negative("max_sim_ms", self.max_sim_ms)?;

        // Churn script vs cluster membership: replay the plan in time
        // order and check that every drain names a node that exists by
        // then (the platform would otherwise skip it silently).
        validate_churn(self)
    }
}

/// `knob` must be finite and > 0.
pub(crate) fn positive(knob: &'static str, value: f64) -> Result<(), SimError> {
    if value > 0.0 && value.is_finite() {
        return Ok(());
    }
    Err(SimError::InvalidKnob {
        knob,
        value,
        requirement: "finite and > 0",
    })
}

/// `knob` must be finite and >= 0.
pub(crate) fn non_negative(knob: &'static str, value: f64) -> Result<(), SimError> {
    if value >= 0.0 && value.is_finite() {
        return Ok(());
    }
    Err(SimError::InvalidKnob {
        knob,
        value,
        requirement: "finite and >= 0",
    })
}

/// `knob`, worth `value` ms, is a duration the platform adds to instants,
/// so it must lie in `[0, SimTime::MAX_MS]` ms like an input time
/// ([`SimTime::is_input_ms`]).
fn duration(knob: &'static str, value: f64) -> Result<(), SimError> {
    if SimTime::is_input_ms(value) {
        return Ok(());
    }
    Err(SimError::InvalidKnob {
        knob,
        value,
        requirement: "finite and within [0, SimTime::MAX_MS] ms",
    })
}

/// The transfer tariffs (scalar and data-plane modes both read them).
pub(crate) fn validate_transfer(t: &TransferModel) -> Result<(), SimError> {
    duration("transfer.local_base_ms", t.local_base_ms)?;
    duration("transfer.local_ms_per_mb", t.local_ms_per_mb)?;
    duration("transfer.remote_base_ms", t.remote_base_ms)?;
    duration("transfer.remote_ms_per_mb", t.remote_ms_per_mb)
}

/// Per-class invariants: every scale factor, bandwidth and staging
/// buffer must be finite and > 0. A speed or link scale out of that
/// range makes task or transfer times zero, negative or NaN, and a price
/// scale makes costs so; a bandwidth or staging value would make a
/// pool's fair share degenerate (division by the member count of a
/// zero-capacity pool, or a NaN finish time).
fn validate_class(class: &NodeClass) -> Result<(), SimError> {
    positive("class.speed", class.speed)?;
    positive("class.link_scale", class.link_scale)?;
    positive("class.price_scale", class.price_scale)?;
    positive("class.pcie_in_gbps", class.pcie_in_gbps)?;
    positive("class.pcie_out_gbps", class.pcie_out_gbps)?;
    positive("class.nvlink_gbps", class.nvlink_gbps)?;
    positive("class.staging_mb", class.staging_mb)
}

fn validate_churn(cfg: &SimConfig) -> Result<(), SimError> {
    let initial = cfg.cluster.as_ref().map_or(NODES, |spec| spec.nodes.len());
    // Stable sort by time replays the event queue's (time, push-order)
    // delivery.
    let mut order: Vec<usize> = (0..cfg.churn.events.len()).collect();
    order.sort_by(|&a, &b| {
        cfg.churn.events[a]
            .at_ms()
            .total_cmp(&cfg.churn.events[b].at_ms())
    });
    let mut members = initial;
    for index in order {
        let ev = &cfg.churn.events[index];
        let at = ev.at_ms();
        if !SimTime::is_input_ms(at) {
            return Err(SimError::InvalidChurn {
                index,
                reason: format!(
                    "scripted at t = {at} ms (must be within [0, {}] ms)",
                    SimTime::MAX_MS
                ),
            });
        }
        match ev {
            ChurnEvent::Drain { node, .. } => {
                if node.index() >= members {
                    return Err(SimError::InvalidChurn {
                        index,
                        reason: format!(
                            "drains {node:?} but only {members} nodes exist at t = {at} ms"
                        ),
                    });
                }
            }
            ChurnEvent::Join { .. } => members += 1,
        }
    }
    Ok(())
}

/// Arrival `index` of a run over `apps` applications is at an input
/// instant ([`SimTime::is_input_ms`]), names one of them, and is no
/// earlier than `previous_ms`, the time of the arrival before it. A run
/// checks every arrival so; the trace loader, whose workload sorts its
/// arrivals, checks recorded ones with `f64::NEG_INFINITY`.
pub(crate) fn check_arrival(
    index: usize,
    a: &Arrival,
    apps: usize,
    previous_ms: f64,
) -> Result<(), SimError> {
    let at_ms = a.at_ms;
    if !SimTime::is_input_ms(at_ms) {
        return Err(SimError::InvalidArrival { index, at_ms });
    }
    if a.app.index() >= apps {
        return Err(SimError::UnknownApp { index, app: a.app });
    }
    if at_ms < previous_ms {
        return Err(SimError::UnsortedArrival { index, at_ms });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{run_simulation, run_streamed, MinScheduler};
    use crate::policy::{BandwidthPackingConfig, PolicyStack, RoundPolicy, SloAdmission};
    use esg_model::{AppSpec, ChurnPlan, ClusterSpec, FnId, NodeId, SloClass, WorkloadClass};
    use esg_workload::{Workload, WorkloadGen};

    /// `MinScheduler`'s decisions under a hand-composed policy stack.
    struct Stacked(PolicyStack);

    impl Scheduler for Stacked {
        fn name(&self) -> &'static str {
            "stacked"
        }
        fn capabilities(&self) -> crate::sched::Capabilities {
            MinScheduler.capabilities()
        }
        fn schedule(&mut self, ctx: &crate::sched::SchedCtx<'_>) -> crate::sched::Outcome {
            MinScheduler.schedule(ctx)
        }
        fn place(&mut self, ctx: &crate::sched::SchedCtx<'_>, config: Config) -> Option<NodeId> {
            MinScheduler.place(ctx, config)
        }
        fn round_policy(&mut self) -> Option<&mut PolicyStack> {
            Some(&mut self.0)
        }
    }

    /// A neutral stage carrying packing knobs, checked as `esg-core`'s
    /// packing stage checks them.
    struct Packing(BandwidthPackingConfig);

    impl RoundPolicy for Packing {
        fn name(&self) -> &'static str {
            "packing-knobs"
        }
        fn validate(&self) -> Result<(), SimError> {
            self.0.validate()
        }
    }

    /// The checked entry's verdict on `cfg` in `env`, over no arrivals.
    fn check_in(env: &SimEnv, cfg: SimConfig) -> Result<(), SimError> {
        let none = Workload::default();
        run_simulation(env, cfg, &mut MinScheduler, &none, "check", None).map(drop)
    }

    /// [`check_in`] on the standard environment.
    fn check(cfg: SimConfig) -> Result<(), SimError> {
        check_in(&SimEnv::standard(SloClass::Moderate), cfg)
    }

    /// [`check`] on the default configuration over `spec`.
    fn check_cluster(spec: ClusterSpec) -> Result<(), SimError> {
        check(SimConfig {
            cluster: Some(spec),
            ..SimConfig::default()
        })
    }

    /// The knob a refused run names, or `None` when the run passes its
    /// checks.
    fn knob<T>(r: Result<T, SimError>) -> Option<&'static str> {
        match r {
            Ok(_) => None,
            Err(SimError::InvalidKnob { knob, .. }) => Some(knob),
            Err(e) => panic!("{e}"),
        }
    }

    #[test]
    fn default_builder_runs() {
        let env = SimEnv::standard(SloClass::Relaxed);
        let w =
            WorkloadGen::new(WorkloadClass::Light, esg_model::standard_app_ids(), 3).generate(12);
        let r = run_simulation(
            &env,
            SimConfig::default(),
            &mut MinScheduler,
            &w,
            "default",
            None,
        )
        .expect("valid");
        assert_eq!(r.total_completed(), 12);
        assert_eq!(r.scenario, "default");
    }

    #[test]
    fn streamed_run_matches_the_materialised_path() {
        let apps = esg_model::standard_app_ids();
        let gen = WorkloadGen::new(WorkloadClass::Normal, apps, 21);
        // Streamed vs materialised over a shared horizon: cap both runs at
        // `H` and materialise past `H` so both paths always hold a pending
        // arrival and stop at the first event beyond the cap — the traces
        // must then be bit-identical.
        let horizon = 30_000.0;
        let beyond = gen.stream().until_ms(horizon + 60_000.0);
        let env = SimEnv::standard(SloClass::Moderate);
        let capped = SimConfig {
            seed: 21,
            max_sim_ms: horizon,
            ..SimConfig::default()
        };
        let r_mat = run_simulation(&env, capped.clone(), &mut MinScheduler, &beyond, "eq", None)
            .expect("valid");
        let r_str =
            run_streamed(&env, capped, &mut MinScheduler, gen.stream(), "eq", None).expect("valid");
        assert_eq!(r_mat.canonical(), r_str.canonical());
    }

    #[test]
    fn streamed_arrivals_are_checked_as_they_are_pulled() {
        // A stream naming an app the environment lacks ends the run with
        // the error the materialised form of the same arrivals gets, at
        // the same index — first arrival or mid-run.
        let env = SimEnv::standard(SloClass::Moderate);
        let cfg = SimConfig {
            max_sim_ms: 60_000.0,
            ..SimConfig::default()
        };
        for apps in [vec![AppId(99)], vec![AppId(0), AppId(1), AppId(99)]] {
            let stream =
                || esg_workload::ArrivalStream::of_class(WorkloadClass::Light, apps.clone(), 7);
            let materialised = stream().take_workload(200);
            let want = run_simulation(
                &env,
                cfg.clone(),
                &mut MinScheduler,
                &materialised,
                "m",
                None,
            )
            .expect_err("an unknown app is refused");
            assert!(
                matches!(want, SimError::UnknownApp { app: AppId(99), .. }),
                "{want:?}"
            );
            let got = run_streamed(&env, cfg.clone(), &mut MinScheduler, stream(), "s", None)
                .expect_err("an unknown app is refused");
            assert_eq!(got, want);
        }
    }

    #[test]
    fn empty_cluster_is_rejected() {
        let no_nodes = || SimConfig {
            cluster: Some(ClusterSpec::new("none")),
            ..SimConfig::default()
        };
        assert_eq!(check(no_nodes()), Err(SimError::EmptyCluster));
        // The same check on a bare config, as the trace loader runs it.
        assert_eq!(no_nodes().validate(), Err(SimError::EmptyCluster));
        assert_eq!(SimConfig::default().validate(), Ok(()));
        let resourceless = ClusterSpec::homogeneous(2, Resources::ZERO);
        assert_eq!(check_cluster(resourceless), Err(SimError::EmptyCluster));
    }

    #[test]
    fn bad_knobs_are_rejected() {
        let d = SimConfig::default;
        for (name, cfg) in [
            (
                "warmup_exclude_ms",
                SimConfig {
                    warmup_exclude_ms: -1.0,
                    ..d()
                },
            ),
            (
                "warmup_exclude_ms",
                SimConfig {
                    warmup_exclude_ms: f64::INFINITY,
                    ..d()
                },
            ),
            (
                "max_sim_ms",
                SimConfig {
                    max_sim_ms: f64::NAN,
                    ..d()
                },
            ),
        ] {
            assert_eq!(knob(check(cfg)), Some(name), "{name}");
        }
    }

    #[test]
    fn churn_script_membership_is_checked() {
        let churn = |plan: ChurnPlan| {
            check(SimConfig {
                churn: plan,
                ..SimConfig::default()
            })
        };
        // Draining node 16 on a 16-node cluster: out of range…
        let err = churn(ChurnPlan::none().drain(100.0, NodeId(16))).expect_err("rejected");
        assert!(matches!(err, SimError::InvalidChurn { index: 0, .. }));
        // …unless a join earlier in time has created it.
        let joined = ChurnPlan::none()
            .join(50.0, NodeClass::t4())
            .drain(100.0, NodeId(16));
        assert_eq!(churn(joined), Ok(()));
        // Negative, non-finite and past-the-maximum timestamps are
        // rejected.
        for at in [-1.0, f64::NAN, f64::INFINITY, 1e300, SimTime::MAX_MS * 1.01] {
            assert!(
                matches!(
                    churn(ChurnPlan::none().drain(at, NodeId(0))),
                    Err(SimError::InvalidChurn { index: 0, .. })
                ),
                "churn at {at} ms"
            );
        }
        assert_eq!(
            churn(ChurnPlan::none().drain(SimTime::MAX_MS, NodeId(0))),
            Ok(())
        );
    }

    #[test]
    fn clusters_that_fit_no_minimum_task_are_rejected() {
        let unhostable = |r: Result<(), SimError>| {
            matches!(
                r,
                Err(SimError::InvalidKnob {
                    requirement,
                    ..
                }) if requirement.contains("minimum configuration")
            )
        };
        // Homogeneous nodes with vCPUs but no vGPUs, and the reverse.
        for r in [Resources::new(16, 0), Resources::new(0, 7)] {
            assert!(unhostable(check_cluster(ClusterSpec::homogeneous(16, r))));
        }
        // Every class lacks vGPUs, or every class lacks vCPUs.
        let cpu_only = NodeClass {
            vgpu_slices: 0,
            ..NodeClass::a100()
        };
        let gpu_only = NodeClass {
            vcpus: 0,
            ..NodeClass::a100()
        };
        let spec = ClusterSpec::new("split")
            .with(cpu_only.clone(), 2)
            .with(gpu_only, 2);
        assert!(unhostable(check_cluster(spec)));
        // One hostable class is enough.
        let spec = ClusterSpec::new("mixed")
            .with(cpu_only, 2)
            .with(NodeClass::t4(), 1);
        assert_eq!(check_cluster(spec), Ok(()));
    }

    #[test]
    fn custom_apps_are_validated() {
        // Two arrivals for app 0 of an environment whose apps are `apps`.
        let run = |apps: Vec<AppSpec>| {
            let mut env = SimEnv::standard(SloClass::Moderate);
            env.apps = apps;
            let w = Workload::from_arrivals(
                [1.0, 2.0]
                    .map(|at_ms| Arrival {
                        at_ms,
                        app: AppId(0),
                    })
                    .to_vec(),
            );
            run_simulation(
                &env,
                SimConfig::default(),
                &mut MinScheduler,
                &w,
                "apps",
                None,
            )
        };
        assert_eq!(run(Vec::new()).err(), Some(SimError::NoApplications));
        let one = run(vec![AppSpec::pipeline("one", vec![FnId(0)])]).expect("valid");
        assert_eq!(one.total_completed(), 2);
        // A stage naming a function outside the Table-3 catalog is a
        // typed error, not a later index panic.
        let err = run(vec![AppSpec::pipeline("bogus", vec![FnId(99)])]).expect_err("rejected");
        assert!(matches!(
            err,
            SimError::UnknownFunction {
                function: FnId(99),
                ..
            }
        ));
    }

    #[test]
    fn policy_knob_scalars_are_validated() {
        let env = SimEnv::standard(SloClass::Moderate);
        let cfg = SimConfig {
            max_sim_ms: 2_000.0,
            ..SimConfig::default()
        };
        let gen = WorkloadGen::new(WorkloadClass::Light, esg_model::standard_app_ids(), 5);
        let w = gen.generate(6);
        // The knob both run entries reject in admission below packing, as
        // `pack` edits the packing knobs, or `None` when both run.
        let rejected = |pack: fn(&mut BandwidthPackingConfig)| {
            let stacked = || {
                let mut p = BandwidthPackingConfig::default();
                pack(&mut p);
                let admission = PolicyStack::new().with(SloAdmission::default());
                Stacked(admission.with(Packing(p)))
            };
            let run = knob(run_simulation(
                &env,
                cfg.clone(),
                &mut stacked(),
                &w,
                "knobs",
                None,
            ));
            let streamed = run_streamed(
                &env,
                cfg.clone(),
                &mut stacked(),
                gen.stream(),
                "knobs",
                None,
            );
            assert_eq!(run, knob(streamed), "the run entries agree");
            run
        };
        assert_eq!(rejected(|_| {}), None);
        let defer = Some("policy.defer_ms");
        assert_eq!(rejected(|p| p.defer_ms = -1.0), defer);
        let budget = Some("policy.round_budget");
        assert_eq!(rejected(|p| p.round_budget = 0), budget);
        let warm = Some("policy.warm_bias");
        assert_eq!(rejected(|p| p.warm_bias = f64::NAN), warm);
        assert_eq!(rejected(|p| p.warm_bias = -1.0), warm);
        let contention = Some("policy.contention_bias");
        assert_eq!(rejected(|p| p.contention_bias = -0.1), contention);
        assert_eq!(rejected(|p| p.contention_bias = f64::NAN), contention);
        assert_eq!(rejected(|p| p.contention_bias = f64::INFINITY), contention);
        // The warm-only knobs (no contention terms) are valid.
        let warm_only = |p: &mut BandwidthPackingConfig| {
            p.contention_bias = 0.0;
            p.defer_queue_depth = 0;
        };
        assert_eq!(rejected(warm_only), None);
    }

    #[test]
    fn transfer_tariffs_are_validated() {
        let tariff = |edit: fn(&mut TransferModel)| {
            let mut env = SimEnv::standard(SloClass::Moderate);
            edit(&mut env.transfer);
            check_in(&env, SimConfig::default())
        };
        // Valid tariffs pass, up to the bound.
        assert_eq!(tariff(|t| t.remote_ms_per_mb = 40.0), Ok(()));
        assert_eq!(tariff(|t| t.remote_ms_per_mb = SimTime::MAX_MS), Ok(()));
        // Negative, non-finite and past-`SimTime::MAX_MS` tariffs are
        // typed errors.
        for (name, result) in [
            ("remote_ms_per_mb", tariff(|t| t.remote_ms_per_mb = -1.0)),
            ("local_base_ms", tariff(|t| t.local_base_ms = f64::NAN)),
            (
                "remote_base_ms",
                tariff(|t| t.remote_base_ms = f64::INFINITY),
            ),
            ("local_base_ms", tariff(|t| t.local_base_ms = 1e300)),
            ("local_ms_per_mb", tariff(|t| t.local_ms_per_mb = 1e300)),
            ("remote_base_ms", tariff(|t| t.remote_base_ms = 1e300)),
            ("remote_ms_per_mb", tariff(|t| t.remote_ms_per_mb = 1e300)),
        ] {
            let k = knob(result).expect("rejected");
            assert_eq!(k.strip_prefix("transfer."), Some(name), "{name}");
        }
    }

    #[test]
    fn topology_knobs_are_validated() {
        use esg_model::ServerTopology;
        // A sane topology runs.
        assert_eq!(
            check_cluster(ClusterSpec::paper().with_topology(4, 10.0)),
            Ok(())
        );
        // Zero-width servers are a typed error, not a division hazard.
        let mut spec = ClusterSpec::paper();
        spec.topology = Some(ServerTopology::new(0, 10.0));
        assert_eq!(knob(check_cluster(spec)), Some("topology.gpus_per_server"));
        // The shared uplink must have real bandwidth.
        let no_uplink = ClusterSpec::paper().with_topology(4, 0.0);
        assert_eq!(knob(check_cluster(no_uplink)), Some("topology.tor_gbps"));
    }

    #[test]
    fn cluster_class_bandwidths_are_validated() {
        let mut broken = NodeClass::a100();
        broken.pcie_in_gbps = 0.0;
        let spec = ClusterSpec::new("bw").with(broken.clone(), 1);
        assert_eq!(knob(check_cluster(spec)), Some("class.pcie_in_gbps"));
        // Churn joins feed the same pools, so their classes are checked
        // too.
        let joins_broken = SimConfig {
            churn: ChurnPlan::none().join(10.0, broken),
            ..SimConfig::default()
        };
        assert_eq!(knob(check(joins_broken)), Some("class.pcie_in_gbps"));
    }

    #[test]
    fn cluster_class_scale_factors_are_validated() {
        let t4 = NodeClass::t4;
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            for (name, broken) in [
                ("class.speed", NodeClass { speed: bad, ..t4() }),
                (
                    "class.link_scale",
                    NodeClass {
                        link_scale: bad,
                        ..t4()
                    },
                ),
                (
                    "class.price_scale",
                    NodeClass {
                        price_scale: bad,
                        ..t4()
                    },
                ),
            ] {
                let spec = ClusterSpec::new("scales")
                    .with(NodeClass::a100(), 1)
                    .with(broken.clone(), 1);
                assert_eq!(knob(check_cluster(spec)), Some(name), "{name} = {bad}");
                let joins_broken = SimConfig {
                    churn: ChurnPlan::none().join(10.0, broken),
                    ..SimConfig::default()
                };
                assert_eq!(
                    knob(check(joins_broken)),
                    Some(name),
                    "joined {name} = {bad}"
                );
            }
        }
    }

    #[test]
    fn arrivals_outside_the_input_range_are_a_typed_error() {
        let env = SimEnv::standard(SloClass::Relaxed);
        let run = |arrivals: Vec<Arrival>| {
            let w = Workload { arrivals };
            run_simulation(
                &env,
                SimConfig::default(),
                &mut MinScheduler,
                &w,
                "damaged",
                None,
            )
        };
        let at = |at_ms| Arrival {
            at_ms,
            app: AppId(0),
        };
        for bad in [f64::NAN, 1e300, f64::INFINITY, -5.0] {
            let err = run(vec![at(1.0), at(bad), at(2.0)]).expect_err("rejected");
            assert!(
                matches!(err, SimError::InvalidArrival { index: 1, at_ms } if at_ms.to_bits() == bad.to_bits()),
                "{bad} ms: {err:?}"
            );
            assert!(err.to_string().starts_with("arrival #1 at t = "), "{err}");
        }
        assert!(run(vec![at(0.0), at(SimTime::MAX_MS)]).is_ok());
    }

    #[test]
    fn unsorted_arrivals_and_unknown_apps_are_typed_errors() {
        let env = SimEnv::standard(SloClass::Relaxed);
        let run = |arrivals: &[(f64, u32)]| {
            let arrivals = arrivals
                .iter()
                .map(|&(at_ms, app)| Arrival {
                    at_ms,
                    app: AppId(app),
                })
                .collect();
            let w = Workload { arrivals };
            run_simulation(
                &env,
                SimConfig::default(),
                &mut MinScheduler,
                &w,
                "damaged",
                None,
            )
        };
        let err = run(&[(1.0, 0), (3.0, 1), (2.0, 0)]).expect_err("rejected");
        assert!(matches!(err, SimError::UnsortedArrival { index: 2, .. }));
        assert!(
            err.to_string().ends_with("2 ms precedes arrival #1"),
            "{err}"
        );
        let err = run(&[(1.0, 0), (2.0, 99)]).expect_err("rejected");
        assert!(matches!(err, SimError::UnknownApp { index: 1, app } if app == AppId(99)));
        // Equal times are in order.
        let r = run(&[(1.0, 0), (1.0, 1), (1.0, 0)]).expect("valid");
        assert_eq!(r.arrivals, 3);
    }

    #[test]
    fn errors_render_useful_messages() {
        let msgs = [
            SimError::EmptyCluster.to_string(),
            SimError::NoApplications.to_string(),
            SimError::InvalidKnob {
                knob: "max_sim_ms",
                value: -1.0,
                requirement: "finite and >= 0",
            }
            .to_string(),
            SimError::InvalidChurn {
                index: 2,
                reason: "x".into(),
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
