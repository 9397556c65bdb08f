//! The validating front door for simulation runs: [`SimBuilder`] →
//! [`Sim`] → [`ExperimentResult`].
//!
//! `SimEnv`/`SimConfig` are plain knob records: a struct literal accepts
//! an empty cluster, a zero keep-alive, or a churn script draining a
//! node that never exists, and the mistake surfaces as a panic deep
//! inside the event loop (or as a silently ignored churn event). The
//! builder checks every cross-field invariant up front and returns a
//! typed [`SimError`] instead, then bundles the validated environment
//! and configuration as a reusable [`Sim`]. The configuration checks
//! live in [`SimConfig::validate`], which the trace loader also runs on
//! a recorded configuration.
//!
//! ```
//! use esg_sim::{MinScheduler, SimBuilder};
//! use esg_model::{SloClass, WorkloadClass};
//! use esg_workload::WorkloadGen;
//!
//! let sim = SimBuilder::new(SloClass::Moderate)
//!     .warmup_exclude_ms(1_000.0)
//!     .seed(7)
//!     .build()
//!     .expect("valid configuration");
//! let workload = WorkloadGen::new(
//!     WorkloadClass::Light,
//!     esg_model::standard_app_ids(),
//!     7,
//! )
//! .generate(10);
//! let mut sched = MinScheduler;
//! let result = sim.run(&mut sched, &workload, "doc");
//! assert_eq!(result.arrivals, 10);
//! ```

use crate::dataplane::DataPlaneConfig;
use crate::metrics::ExperimentResult;
use crate::platform::{run_simulation, run_streamed, SimConfig, SimEnv};
use crate::policy::{BandwidthPackingConfig, PolicySpec, SloAdmissionConfig};
use crate::sched::{OverheadModel, Scheduler};
use esg_model::{
    AppSpec, ChurnEvent, ChurnPlan, ClusterSpec, Config, ConfigGrid, NodeClass, Resources, SimTime,
    SloClass,
};
use esg_profile::TransferModel;
use esg_workload::{ArrivalStream, Workload};

/// A configuration rejected by [`SimBuilder::build`] or
/// [`SimConfig::validate`].
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
        }
    }
}

impl std::error::Error for SimError {}

/// Fluent, validating constructor for simulation runs.
///
/// Every setter mirrors a [`SimConfig`]/[`SimEnv`] knob;
/// [`build`](Self::build) validates the whole bundle and returns a
/// [`Sim`] or a typed [`SimError`]. Defaults are the paper's Table-2
/// platform on the standard environment.
#[derive(Clone, Debug)]
pub struct SimBuilder {
    slo: SloClass,
    grid: ConfigGrid,
    apps: Option<Vec<AppSpec>>,
    transfer: Option<TransferModel>,
    cfg: SimConfig,
    policy: PolicySpec,
}

impl SimBuilder {
    /// A builder for the standard environment under `slo`.
    pub fn new(slo: SloClass) -> SimBuilder {
        SimBuilder {
            slo,
            grid: ConfigGrid::default(),
            apps: None,
            transfer: None,
            cfg: SimConfig::default(),
            policy: PolicySpec::Classic,
        }
    }

    /// Selects the round-policy stack schedulers run under (default:
    /// the classic one-queue-at-a-time contract). The spec's scalar
    /// knobs are validated at [`build`](Self::build); a scheduler that
    /// cannot honour the spec makes [`Sim::try_run`] return
    /// [`SimError::InvalidKnob`].
    pub fn policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the configuration grid (ablations restrict it, overhead
    /// sweeps enlarge it).
    pub fn grid(mut self, grid: ConfigGrid) -> Self {
        self.grid = grid;
        self
    }

    /// Replaces the §4.1 standard applications with custom specs.
    pub fn apps(mut self, apps: Vec<AppSpec>) -> Self {
        self.apps = Some(apps);
        self
    }

    /// A homogeneous cluster of `n` nodes (Table-2 resources unless
    /// [`node_resources`](Self::node_resources) overrides them).
    pub fn nodes(mut self, n: usize) -> Self {
        self.cfg.nodes = n;
        self.cfg.cluster = None;
        self
    }

    /// Per-node resources for the homogeneous path.
    pub fn node_resources(mut self, r: Resources) -> Self {
        self.cfg.node_resources = r;
        self
    }

    /// A declarative heterogeneous cluster (overrides
    /// [`nodes`](Self::nodes)).
    pub fn cluster(mut self, spec: ClusterSpec) -> Self {
        self.cfg.cluster = Some(spec);
        self
    }

    /// Scripted node drains/joins applied mid-run.
    pub fn churn(mut self, plan: ChurnPlan) -> Self {
        self.cfg.churn = plan;
        self
    }

    /// Replaces the environment's per-job transfer tariffs (§3.4
    /// defaults otherwise). Every `*_ms_per_mb`/`*_base_ms` must be
    /// finite and >= 0; [`build`](Self::build) rejects the rest as
    /// [`SimError::InvalidKnob`].
    pub fn transfer(mut self, model: TransferModel) -> Self {
        self.transfer = Some(model);
        self
    }

    /// Enables the contended-bandwidth data plane: per-node PCIe/NVLink
    /// pools, bounded staging buffers, and transfer batching replace
    /// the scalar per-dispatch transfer charge. Off by default — the
    /// classic scalar model stays bit-identical to the pinned golden
    /// digests; at `bandwidth_scale` high enough that no pool ever
    /// saturates, the data plane reproduces the scalar timings exactly
    /// (pinned by `tests/dataplane_equivalence.rs`).
    pub fn data_plane(mut self, dp: DataPlaneConfig) -> Self {
        self.cfg.data_plane = Some(dp);
        self
    }

    /// Warm-container keep-alive, ms.
    pub fn keep_alive_ms(mut self, ms: f64) -> Self {
        self.cfg.keep_alive_ms = ms;
        self
    }

    /// Search-effort → controller-time conversion.
    pub fn overhead(mut self, model: OverheadModel) -> Self {
        self.cfg.overhead = model;
        self
    }

    /// Whether decision time occupies the controller ("w/o searching
    /// overhead" variants disable it).
    pub fn charge_overhead(mut self, on: bool) -> Self {
        self.cfg.charge_overhead = on;
        self
    }

    /// Enables/disables the EWMA pre-warming proxy.
    pub fn prewarm(mut self, on: bool) -> Self {
        self.cfg.prewarm = on;
        self
    }

    /// EWMA smoothing factor for the pre-warmer, in `(0, 1]`.
    pub fn prewarm_alpha(mut self, alpha: f64) -> Self {
        self.cfg.prewarm_alpha = alpha;
        self
    }

    /// Warm containers per (node, function) installed at t = 0.
    pub fn initial_warm_per_node(mut self, n: u32) -> Self {
        self.cfg.initial_warm_per_node = n;
        self
    }

    /// Pool cap the pre-warm proxy grows towards per (node, function).
    pub fn prewarm_pool_cap(mut self, cap: usize) -> Self {
        self.cfg.prewarm_pool_cap = cap;
        self
    }

    /// Warm-up window excluded from SLO/latency metrics, ms.
    pub fn warmup_exclude_ms(mut self, ms: f64) -> Self {
        self.cfg.warmup_exclude_ms = ms;
        self
    }

    /// RNG seed (noise and stochastic scheduler choices).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Recheck rounds before a forced minimum-configuration dispatch.
    pub fn recheck_limit(mut self, rounds: u32) -> Self {
        self.cfg.recheck_limit = rounds;
        self
    }

    /// Controller back-off when a scan found only skips, ms.
    pub fn idle_backoff_ms(mut self, ms: f64) -> Self {
        self.cfg.idle_backoff_ms = ms;
        self
    }

    /// Records every run's full control-plane event stream (arrivals,
    /// dispatches, completions, churn, sheds) to `path`,
    /// replayable via [`TraceReplay`](crate::TraceReplay). The write
    /// happens at the end of each run and is best-effort (a failure is
    /// reported on stderr); loading is fully typed through
    /// [`TraceError`](crate::TraceError).
    pub fn record_trace(mut self, path: impl AsRef<std::path::Path>) -> Self {
        self.cfg.record_trace = Some(path.as_ref().to_path_buf());
        self
    }

    /// Safety cap on simulated time, ms (0 = none).
    pub fn max_sim_ms(mut self, ms: f64) -> Self {
        self.cfg.max_sim_ms = ms;
        self
    }

    /// Turns on the incremental-vs-snapshot `ClusterState` equivalence
    /// oracle (test runs only; costs a rebuild per refresh).
    pub fn validate_cluster_state(mut self, on: bool) -> Self {
        self.cfg.validate_cluster_state = on;
        self
    }

    /// Validates the bundle and materialises the environment.
    pub fn build(self) -> Result<Sim, SimError> {
        let SimBuilder {
            slo,
            grid,
            apps,
            transfer,
            cfg,
            policy,
        } = self;

        validate_policy(&policy)?;
        cfg.validate()?;
        if let Some(t) = &transfer {
            validate_transfer(t)?;
        }

        let mut env = SimEnv::with_grid(slo, grid);
        if let Some(t) = transfer {
            env.transfer = t;
        }
        if let Some(apps) = apps {
            if apps.is_empty() || apps.iter().any(|a| a.num_stages() == 0) {
                return Err(SimError::NoApplications);
            }
            // Every stage must name a catalog function — an out-of-range
            // id would otherwise surface as an index panic at the first
            // dispatch touching it.
            let known = env.catalog.iter().count();
            for a in &apps {
                if let Some(&f) = a.nodes.iter().find(|f| f.index() >= known) {
                    return Err(SimError::UnknownFunction {
                        app: a.name.to_string(),
                        function: f,
                    });
                }
            }
            env.apps = apps;
        }
        Ok(Sim { env, cfg, policy })
    }
}

impl SimConfig {
    /// Checks every cross-field invariant of the configuration: cluster
    /// shape, class bandwidths, topology, data plane, scalar knobs,
    /// recheck limit and churn script. [`SimBuilder::build`] runs it, and
    /// so does the trace loader on a recorded config, so a configuration
    /// that would panic inside the event loop is a typed error in both.
    pub fn validate(&self) -> Result<(), SimError> {
        // Cluster shape.
        match &self.cluster {
            Some(spec) => {
                if spec.nodes.is_empty() {
                    return Err(SimError::EmptyCluster);
                }
                if spec.nodes.iter().any(|c| c.resources() == Resources::ZERO) {
                    return Err(SimError::EmptyCluster);
                }
                for class in &spec.nodes {
                    validate_class_bandwidth(class)?;
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
            }
            None => {
                if self.nodes == 0 || self.node_resources == Resources::ZERO {
                    return Err(SimError::EmptyCluster);
                }
            }
        }
        // Some node must fit the minimum configuration, or no task can
        // ever be placed and the run ends with nothing completed.
        let min = Config::MIN.resources();
        let hostable = match &self.cluster {
            Some(spec) => spec.nodes.iter().any(|c| c.resources().contains(min)),
            None => self.node_resources.contains(min),
        };
        if !hostable {
            return Err(SimError::InvalidKnob {
                knob: if self.cluster.is_some() {
                    "cluster.nodes"
                } else {
                    "node_resources"
                },
                value: 0.0,
                requirement: "at least one node fits the minimum configuration \
(1 vCPU and 1 vGPU slice)",
            });
        }
        // Joined classes feed the same bandwidth pools.
        for ev in &self.churn.events {
            if let ChurnEvent::Join { class, .. } = ev {
                validate_class_bandwidth(class)?;
            }
        }

        // Data-plane knobs.
        if let Some(dp) = &self.data_plane {
            positive("data_plane.bandwidth_scale", dp.bandwidth_scale)?;
            positive("data_plane.staging_scale", dp.staging_scale)?;
            non_negative("data_plane.batch_max_mb", dp.batch_max_mb)?;
        }

        // Scalar knobs.
        positive("keep_alive_ms", self.keep_alive_ms)?;
        positive("prewarm_alpha", self.prewarm_alpha)?;
        positive("idle_backoff_ms", self.idle_backoff_ms)?;
        if self.prewarm_alpha > 1.0 {
            return Err(SimError::InvalidKnob {
                knob: "prewarm_alpha",
                value: self.prewarm_alpha,
                requirement: "within (0, 1]",
            });
        }
        non_negative("warmup_exclude_ms", self.warmup_exclude_ms)?;
        non_negative("max_sim_ms", self.max_sim_ms)?;
        if self.recheck_limit == 0 {
            return Err(SimError::InvalidKnob {
                knob: "recheck_limit",
                value: 0.0,
                requirement: "at least 1 round before the forced minimum",
            });
        }

        // Churn script vs cluster membership: replay the plan in time
        // order and check that every drain names a node that exists by
        // then (the platform would otherwise skip it silently).
        validate_churn(self)
    }
}

/// `knob` must be finite and > 0.
fn positive(knob: &'static str, value: f64) -> Result<(), SimError> {
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
fn non_negative(knob: &'static str, value: f64) -> Result<(), SimError> {
    if value >= 0.0 && value.is_finite() {
        return Ok(());
    }
    Err(SimError::InvalidKnob {
        knob,
        value,
        requirement: "finite and >= 0",
    })
}

/// The transfer tariffs (scalar and data-plane modes both read them).
pub(crate) fn validate_transfer(t: &TransferModel) -> Result<(), SimError> {
    non_negative("transfer.local_base_ms", t.local_base_ms)?;
    non_negative("transfer.local_ms_per_mb", t.local_ms_per_mb)?;
    non_negative("transfer.remote_base_ms", t.remote_base_ms)?;
    non_negative("transfer.remote_ms_per_mb", t.remote_ms_per_mb)
}

/// Scalar validation of a policy spec's knobs (the scheduler-combo check
/// happens at [`Sim::try_run`], where the scheduler exists).
fn validate_policy(policy: &PolicySpec) -> Result<(), SimError> {
    fn admission(cfg: &SloAdmissionConfig) -> Result<(), SimError> {
        positive("policy.defer_ms", cfg.defer_ms)
    }
    fn packing(cfg: &BandwidthPackingConfig) -> Result<(), SimError> {
        if cfg.round_budget == 0 {
            return Err(SimError::InvalidKnob {
                knob: "policy.round_budget",
                value: 0.0,
                requirement: "at least 1 expanded configuration per round",
            });
        }
        positive("policy.defer_ms", cfg.defer_ms)?;
        non_negative("policy.warm_bias", cfg.warm_bias)?;
        non_negative("policy.contention_bias", cfg.contention_bias)
    }
    match policy {
        PolicySpec::Classic => Ok(()),
        PolicySpec::SloAdmission(a) => admission(a),
        PolicySpec::Packing(p) => packing(p),
        PolicySpec::PackingWithAdmission(a, p) => {
            admission(a)?;
            packing(p)
        }
    }
}

/// Per-class bandwidth/staging invariants: a zero or non-finite value
/// would make a pool's fair share degenerate (division by the member
/// count of a zero-capacity pool, or a NaN finish time).
fn validate_class_bandwidth(class: &NodeClass) -> Result<(), SimError> {
    positive("class.pcie_in_gbps", class.pcie_in_gbps)?;
    positive("class.pcie_out_gbps", class.pcie_out_gbps)?;
    positive("class.nvlink_gbps", class.nvlink_gbps)?;
    positive("class.staging_mb", class.staging_mb)
}

fn validate_churn(cfg: &SimConfig) -> Result<(), SimError> {
    let initial = match &cfg.cluster {
        Some(spec) => spec.nodes.len(),
        None => cfg.nodes,
    };
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
        if !(0.0..=SimTime::MAX_MS).contains(&at) {
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

/// A validated environment + configuration bundle, ready to run any
/// number of schedulers/workloads over the same setting.
#[derive(Clone, Debug)]
pub struct Sim {
    env: SimEnv,
    cfg: SimConfig,
    policy: PolicySpec,
}

impl Sim {
    /// The validated environment.
    pub fn env(&self) -> &SimEnv {
        &self.env
    }

    /// The validated platform configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The round policy every run installs via
    /// [`Scheduler::adopt_policy`].
    pub fn policy(&self) -> PolicySpec {
        self.policy
    }

    /// Runs `sched` over `workload`, labelling the result `scenario`.
    ///
    /// Panics when `sched` rejects the configured round policy (only
    /// possible for non-classic [`SimBuilder::policy`] selections);
    /// [`try_run`](Self::try_run) returns the typed error instead.
    pub fn run(
        &self,
        sched: &mut dyn Scheduler,
        workload: &Workload,
        scenario: &str,
    ) -> ExperimentResult {
        self.try_run(sched, workload, scenario)
            .expect("scheduler rejected the configured round policy (use Sim::try_run)")
    }

    /// Runs `sched` over `workload`, surfacing an incompatible
    /// scheduler/policy combo as [`SimError::InvalidKnob`] instead of
    /// panicking.
    ///
    /// The default `PolicySpec::Classic` imposes nothing — a scheduler
    /// already carrying a hand-composed stack (`with_policy`) keeps it;
    /// any other spec is installed via [`Scheduler::adopt_policy`].
    pub fn try_run(
        &self,
        sched: &mut dyn Scheduler,
        workload: &Workload,
        scenario: &str,
    ) -> Result<ExperimentResult, SimError> {
        if !matches!(self.policy, PolicySpec::Classic) && !sched.adopt_policy(&self.policy) {
            return Err(SimError::InvalidKnob {
                knob: "policy",
                value: 0.0,
                requirement: "a round-policy stack this scheduler supports \
(ESG packing needs EsgScheduler; MinScheduler is classic-only)",
            });
        }
        Ok(run_simulation(
            &self.env,
            self.cfg.clone(),
            sched,
            workload,
            scenario,
        ))
    }

    /// Runs `sched` over a lazily generated [`ArrivalStream`], labelling
    /// the result `scenario`. Arrivals are pulled one at a time as
    /// simulated time advances, so memory stays constant in the stream
    /// length; the dispatch trace is bit-identical to materialising the
    /// same stream and calling [`run`](Self::run).
    ///
    /// Panics when `sched` rejects the configured round policy;
    /// [`try_run_streamed`](Self::try_run_streamed) returns the typed
    /// error instead.
    pub fn run_streamed(
        &self,
        sched: &mut dyn Scheduler,
        stream: ArrivalStream,
        scenario: &str,
    ) -> ExperimentResult {
        self.try_run_streamed(sched, stream, scenario)
            .expect("scheduler rejected the configured round policy (use Sim::try_run_streamed)")
    }

    /// Streamed counterpart of [`try_run`](Self::try_run): surfaces an
    /// incompatible scheduler/policy combo as [`SimError::InvalidKnob`].
    pub fn try_run_streamed(
        &self,
        sched: &mut dyn Scheduler,
        stream: ArrivalStream,
        scenario: &str,
    ) -> Result<ExperimentResult, SimError> {
        if !matches!(self.policy, PolicySpec::Classic) && !sched.adopt_policy(&self.policy) {
            return Err(SimError::InvalidKnob {
                knob: "policy",
                value: 0.0,
                requirement: "a round-policy stack this scheduler supports \
(ESG packing needs EsgScheduler; MinScheduler is classic-only)",
            });
        }
        Ok(run_streamed(
            &self.env,
            self.cfg.clone(),
            sched,
            stream,
            scenario,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::MinScheduler;
    use esg_model::{NodeClass, NodeId, SloClass, WorkloadClass};
    use esg_workload::WorkloadGen;

    #[test]
    fn default_builder_runs() {
        let sim = SimBuilder::new(SloClass::Relaxed).build().expect("valid");
        let w =
            WorkloadGen::new(WorkloadClass::Light, esg_model::standard_app_ids(), 3).generate(12);
        let mut s = MinScheduler;
        let r = sim.run(&mut s, &w, "builder");
        assert_eq!(r.total_completed(), 12);
        assert_eq!(r.scenario, "builder");
    }

    #[test]
    fn builder_matches_struct_literal_bit_for_bit() {
        let w =
            WorkloadGen::new(WorkloadClass::Light, esg_model::standard_app_ids(), 9).generate(15);
        let sim = SimBuilder::new(SloClass::Moderate)
            .warmup_exclude_ms(500.0)
            .seed(11)
            .build()
            .expect("valid");
        let mut a = MinScheduler;
        let ra = sim.run(&mut a, &w, "x");
        let env = SimEnv::standard(SloClass::Moderate);
        let mut b = MinScheduler;
        let rb = run_simulation(
            &env,
            SimConfig {
                warmup_exclude_ms: 500.0,
                seed: 11,
                ..SimConfig::default()
            },
            &mut b,
            &w,
            "x",
        );
        let canon = |mut r: ExperimentResult| {
            r.wall_overhead_ms.clear();
            format!("{r:?}")
        };
        assert_eq!(canon(ra), canon(rb));
    }

    #[test]
    fn streamed_run_matches_the_materialised_path() {
        let canon = |mut r: ExperimentResult| {
            r.wall_overhead_ms.clear();
            format!("{r:?}")
        };
        let apps = esg_model::standard_app_ids();
        let gen = WorkloadGen::new(WorkloadClass::Normal, apps, 21);
        // Streamed vs materialised over a shared horizon: cap both runs at
        // `H` and materialise past `H` so both paths always hold a pending
        // arrival and stop at the first event beyond the cap — the traces
        // must then be bit-identical.
        let horizon = 30_000.0;
        let beyond = gen.stream().until_ms(horizon + 60_000.0);
        let capped = SimBuilder::new(SloClass::Moderate)
            .seed(21)
            .max_sim_ms(horizon)
            .build()
            .expect("valid");
        let r_mat = capped.run(&mut MinScheduler, &beyond, "eq");
        let r_str = capped.run_streamed(&mut MinScheduler, gen.stream(), "eq");
        assert_eq!(canon(r_mat), canon(r_str));
    }

    #[test]
    fn empty_cluster_is_rejected() {
        assert_eq!(
            SimBuilder::new(SloClass::Strict).nodes(0).build().err(),
            Some(SimError::EmptyCluster)
        );
        // The same check on a bare config, as the trace loader runs it.
        assert_eq!(
            SimConfig {
                nodes: 0,
                ..SimConfig::default()
            }
            .validate(),
            Err(SimError::EmptyCluster)
        );
        assert_eq!(SimConfig::default().validate(), Ok(()));
        assert_eq!(
            SimBuilder::new(SloClass::Strict)
                .cluster(ClusterSpec::new("none"))
                .build()
                .err(),
            Some(SimError::EmptyCluster)
        );
    }

    #[test]
    fn bad_knobs_are_rejected() {
        let err = SimBuilder::new(SloClass::Moderate)
            .keep_alive_ms(0.0)
            .build()
            .expect_err("rejected");
        assert!(matches!(
            err,
            SimError::InvalidKnob {
                knob: "keep_alive_ms",
                ..
            }
        ));
        assert!(SimBuilder::new(SloClass::Moderate)
            .prewarm_alpha(1.5)
            .build()
            .is_err());
        assert!(SimBuilder::new(SloClass::Moderate)
            .recheck_limit(0)
            .build()
            .is_err());
        assert!(SimBuilder::new(SloClass::Moderate)
            .max_sim_ms(f64::NAN)
            .build()
            .is_err());
    }

    #[test]
    fn churn_script_membership_is_checked() {
        // Draining node 16 on a 16-node cluster: out of range…
        let err = SimBuilder::new(SloClass::Moderate)
            .churn(ChurnPlan::none().drain(100.0, NodeId(16)))
            .build()
            .expect_err("rejected");
        assert!(matches!(err, SimError::InvalidChurn { index: 0, .. }));
        // …unless a join earlier in time has created it.
        assert!(SimBuilder::new(SloClass::Moderate)
            .churn(
                ChurnPlan::none()
                    .join(50.0, NodeClass::t4())
                    .drain(100.0, NodeId(16))
            )
            .build()
            .is_ok());
        // Negative, non-finite and past-the-maximum timestamps are
        // rejected.
        for at in [-1.0, f64::NAN, f64::INFINITY, 1e300, SimTime::MAX_MS * 1.01] {
            assert!(
                matches!(
                    SimBuilder::new(SloClass::Moderate)
                        .churn(ChurnPlan::none().drain(at, NodeId(0)))
                        .build(),
                    Err(SimError::InvalidChurn { index: 0, .. })
                ),
                "churn at {at} ms"
            );
        }
        assert!(SimBuilder::new(SloClass::Moderate)
            .churn(ChurnPlan::none().drain(SimTime::MAX_MS, NodeId(0)))
            .build()
            .is_ok());
    }

    #[test]
    fn clusters_that_fit_no_minimum_task_are_rejected() {
        let unhostable = |r: Result<Sim, SimError>| {
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
            assert!(unhostable(
                SimBuilder::new(SloClass::Moderate)
                    .node_resources(r)
                    .build()
            ));
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
        assert!(unhostable(
            SimBuilder::new(SloClass::Moderate).cluster(spec).build()
        ));
        // One hostable class is enough.
        let spec = ClusterSpec::new("mixed")
            .with(cpu_only, 2)
            .with(NodeClass::t4(), 1);
        assert!(SimBuilder::new(SloClass::Moderate)
            .cluster(spec)
            .build()
            .is_ok());
    }

    #[test]
    fn custom_apps_are_validated() {
        assert_eq!(
            SimBuilder::new(SloClass::Moderate)
                .apps(Vec::new())
                .build()
                .err(),
            Some(SimError::NoApplications)
        );
        let app = AppSpec::pipeline("one", vec![esg_model::FnId(0)]);
        let sim = SimBuilder::new(SloClass::Moderate)
            .apps(vec![app])
            .build()
            .expect("valid");
        assert_eq!(sim.env().apps.len(), 1);
        // A stage naming a function outside the Table-3 catalog is a
        // typed error, not a later index panic.
        let bogus = AppSpec::pipeline("bogus", vec![esg_model::FnId(99)]);
        let err = SimBuilder::new(SloClass::Moderate)
            .apps(vec![bogus])
            .build()
            .expect_err("rejected");
        assert!(matches!(
            err,
            SimError::UnknownFunction {
                function: esg_model::FnId(99),
                ..
            }
        ));
    }

    #[test]
    fn policy_knob_scalars_are_validated() {
        use crate::policy::SloAdmissionConfig;
        // Defaults pass.
        assert!(SimBuilder::new(SloClass::Moderate)
            .policy(PolicySpec::packing_with_admission())
            .build()
            .is_ok());
        // Bad admission back-off.
        let err = SimBuilder::new(SloClass::Moderate)
            .policy(PolicySpec::SloAdmission(SloAdmissionConfig {
                defer_ms: 0.0,
                ..SloAdmissionConfig::default()
            }))
            .build()
            .expect_err("rejected");
        assert!(matches!(
            err,
            SimError::InvalidKnob {
                knob: "policy.defer_ms",
                ..
            }
        ));
        // Zero search budget.
        let err = SimBuilder::new(SloClass::Moderate)
            .policy(PolicySpec::Packing(BandwidthPackingConfig {
                round_budget: 0,
                ..BandwidthPackingConfig::default()
            }))
            .build()
            .expect_err("rejected");
        assert!(matches!(
            err,
            SimError::InvalidKnob {
                knob: "policy.round_budget",
                ..
            }
        ));
        // Non-finite warm bias.
        assert!(SimBuilder::new(SloClass::Moderate)
            .policy(PolicySpec::Packing(BandwidthPackingConfig {
                warm_bias: f64::NAN,
                ..BandwidthPackingConfig::default()
            }))
            .build()
            .is_err());
        // Negative contention bias, also under admission.
        let err = SimBuilder::new(SloClass::Moderate)
            .policy(PolicySpec::PackingWithAdmission(
                SloAdmissionConfig::default(),
                BandwidthPackingConfig {
                    contention_bias: -0.1,
                    ..BandwidthPackingConfig::default()
                },
            ))
            .build()
            .expect_err("rejected");
        assert!(matches!(
            err,
            SimError::InvalidKnob {
                knob: "policy.contention_bias",
                ..
            }
        ));
        // The warm-only knobs (no contention terms) are valid.
        assert!(SimBuilder::new(SloClass::Moderate)
            .policy(PolicySpec::Packing(BandwidthPackingConfig {
                contention_bias: 0.0,
                defer_queue_depth: 0,
                ..BandwidthPackingConfig::default()
            }))
            .build()
            .is_ok());
    }

    #[test]
    fn transfer_tariffs_are_validated() {
        use esg_profile::TransferModel;
        // Valid tariffs land in the environment.
        let sim = SimBuilder::new(SloClass::Moderate)
            .transfer(TransferModel {
                remote_ms_per_mb: 40.0,
                ..TransferModel::default()
            })
            .build()
            .expect("valid");
        assert_eq!(sim.env().transfer.remote_ms_per_mb, 40.0);
        // Negative and non-finite tariffs are typed errors.
        for bad in [
            TransferModel {
                remote_ms_per_mb: -1.0,
                ..TransferModel::default()
            },
            TransferModel {
                local_base_ms: f64::NAN,
                ..TransferModel::default()
            },
            TransferModel {
                remote_base_ms: f64::INFINITY,
                ..TransferModel::default()
            },
        ] {
            let err = SimBuilder::new(SloClass::Moderate)
                .transfer(bad)
                .build()
                .expect_err("rejected");
            assert!(matches!(err, SimError::InvalidKnob { knob, .. }
                if knob.starts_with("transfer.")));
        }
    }

    #[test]
    fn data_plane_knobs_are_validated() {
        use crate::dataplane::DataPlaneConfig;
        assert!(SimBuilder::new(SloClass::Moderate)
            .data_plane(DataPlaneConfig::default())
            .build()
            .is_ok());
        let err = SimBuilder::new(SloClass::Moderate)
            .data_plane(DataPlaneConfig {
                bandwidth_scale: 0.0,
                ..DataPlaneConfig::default()
            })
            .build()
            .expect_err("rejected");
        assert!(matches!(
            err,
            SimError::InvalidKnob {
                knob: "data_plane.bandwidth_scale",
                ..
            }
        ));
        assert!(SimBuilder::new(SloClass::Moderate)
            .data_plane(DataPlaneConfig {
                staging_scale: f64::NAN,
                ..DataPlaneConfig::default()
            })
            .build()
            .is_err());
        assert!(SimBuilder::new(SloClass::Moderate)
            .data_plane(DataPlaneConfig {
                batch_max_mb: -4.0,
                ..DataPlaneConfig::default()
            })
            .build()
            .is_err());
    }

    #[test]
    fn topology_knobs_are_validated() {
        use esg_model::ServerTopology;
        // A sane topology builds.
        assert!(SimBuilder::new(SloClass::Moderate)
            .cluster(ClusterSpec::paper().with_topology(4, 10.0))
            .build()
            .is_ok());
        // Zero-width servers are a typed error, not a division hazard.
        let mut spec = ClusterSpec::paper();
        spec.topology = Some(ServerTopology::new(0, 10.0));
        let err = SimBuilder::new(SloClass::Moderate)
            .cluster(spec)
            .build()
            .expect_err("rejected");
        assert!(matches!(
            err,
            SimError::InvalidKnob {
                knob: "topology.gpus_per_server",
                ..
            }
        ));
        // The shared uplink must have real bandwidth.
        let err = SimBuilder::new(SloClass::Moderate)
            .cluster(ClusterSpec::paper().with_topology(4, 0.0))
            .build()
            .expect_err("rejected");
        assert!(matches!(
            err,
            SimError::InvalidKnob {
                knob: "topology.tor_gbps",
                ..
            }
        ));
    }

    #[test]
    fn cluster_class_bandwidths_are_validated() {
        let mut broken = NodeClass::a100();
        broken.pcie_in_gbps = 0.0;
        let err = SimBuilder::new(SloClass::Moderate)
            .cluster(ClusterSpec::new("bw").with(broken.clone(), 1))
            .build()
            .expect_err("rejected");
        assert!(matches!(
            err,
            SimError::InvalidKnob {
                knob: "class.pcie_in_gbps",
                ..
            }
        ));
        // Churn joins feed the same pools, so their classes are checked
        // too.
        let err = SimBuilder::new(SloClass::Moderate)
            .churn(ChurnPlan::none().join(10.0, broken))
            .build()
            .expect_err("rejected");
        assert!(matches!(
            err,
            SimError::InvalidKnob {
                knob: "class.pcie_in_gbps",
                ..
            }
        ));
    }

    #[test]
    fn incompatible_scheduler_policy_combo_is_a_typed_error() {
        // MinScheduler carries no policy stack: any non-classic spec must
        // surface as InvalidKnob through try_run, and the classic default
        // must keep working.
        let w =
            WorkloadGen::new(WorkloadClass::Light, esg_model::standard_app_ids(), 5).generate(6);
        let sim = SimBuilder::new(SloClass::Relaxed)
            .policy(PolicySpec::slo_admission())
            .build()
            .expect("valid spec");
        let mut s = MinScheduler;
        let err = sim.try_run(&mut s, &w, "combo").expect_err("rejected");
        assert!(matches!(err, SimError::InvalidKnob { knob: "policy", .. }));
        let classic = SimBuilder::new(SloClass::Relaxed).build().expect("valid");
        assert_eq!(classic.policy(), PolicySpec::Classic);
        let r = classic.try_run(&mut s, &w, "combo").expect("classic runs");
        assert_eq!(r.total_completed(), 6);
    }

    #[test]
    fn errors_render_useful_messages() {
        let msgs = [
            SimError::EmptyCluster.to_string(),
            SimError::NoApplications.to_string(),
            SimError::InvalidKnob {
                knob: "keep_alive_ms",
                value: -1.0,
                requirement: "finite and > 0",
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
