//! The scenario-sweep engine: declarative matrices expanded into
//! independent, deterministically seeded simulation runs executed in
//! parallel.
//!
//! Five axes: schedulers × scenarios (SLO/workload pairings) × cluster
//! cases (a [`ClusterSpec`] plus optional churn) × traffic shapes × seeds.
//! The cluster and traffic axes default to singletons — the platform
//! configuration's cluster and steady arrivals — so paper-style sweeps
//! stay two-axis declarations.

use crate::{standard_config, workload_for_shape, SchedKind, RUN_SECONDS, SEED};
use esg_model::{
    ChurnPlan, ClusterSpec, ConfigGrid, Scenario, SloClass, TrafficShape, WorkloadClass,
};
use esg_profile::TransferModel;
use esg_sim::{run_simulation, ExperimentResult, Scheduler, SimConfig, SimEnv, TransferSummary};
use esg_workload::Workload;
use rayon::prelude::*;
use serde_json::{Map, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A named scheduler factory: one point on the scheduler axis of a
/// [`ScenarioMatrix`]. Factories (not instances) are swept because every
/// cell needs a fresh scheduler with no state carried across runs.
#[derive(Clone)]
pub struct SchedSpec {
    name: String,
    factory: Arc<dyn Fn() -> Box<dyn Scheduler> + Send + Sync>,
}

impl SchedSpec {
    /// A scheduler axis point built from a closure, labelled `name`
    /// (sweeps over parameterised variants: `orion@50ms`, `esg-k20`, …).
    pub fn new(
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn Scheduler> + Send + Sync + 'static,
    ) -> Self {
        SchedSpec {
            name: name.into(),
            factory: Arc::new(factory),
        }
    }

    /// The label used in records and reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instantiates a fresh scheduler for one run.
    pub fn build(&self) -> Box<dyn Scheduler> {
        (self.factory)()
    }
}

impl From<SchedKind> for SchedSpec {
    fn from(kind: SchedKind) -> Self {
        SchedSpec::new(kind.name(), move || kind.build())
    }
}

impl std::fmt::Debug for SchedSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedSpec")
            .field("name", &self.name)
            .finish()
    }
}

/// One point on the cluster axis: a declarative [`ClusterSpec`] plus an
/// optional scripted [`ChurnPlan`], under a display label.
#[derive(Clone, Debug)]
pub struct ClusterCase {
    /// Axis label (records, CSV, reports).
    pub name: String,
    /// The cluster to materialise for every cell of this case.
    pub spec: ClusterSpec,
    /// Node drains/joins applied mid-run. Empty = inherit whatever churn
    /// the suite's platform configuration carries (usually none).
    pub churn: ChurnPlan,
}

impl ClusterCase {
    /// A static-cluster case labelled with the spec's own name.
    pub fn new(spec: ClusterSpec) -> ClusterCase {
        ClusterCase {
            name: spec.name.clone(),
            spec,
            churn: ChurnPlan::none(),
        }
    }

    /// Attaches a churn plan and tags the label with `+churn`.
    pub fn with_churn(mut self, churn: ChurnPlan) -> ClusterCase {
        if !churn.is_empty() && !self.name.ends_with("+churn") {
            self.name.push_str("+churn");
        }
        self.churn = churn;
        self
    }

    /// Overrides the axis label.
    pub fn named(mut self, name: impl Into<String>) -> ClusterCase {
        self.name = name.into();
        self
    }
}

impl From<ClusterSpec> for ClusterCase {
    fn from(spec: ClusterSpec) -> Self {
        ClusterCase::new(spec)
    }
}

/// A declarative sweep grid: schedulers × scenarios × cluster cases ×
/// traffic shapes × seeds, where the scenario axis is either an explicit
/// list (the paper's three pairings) or a full SLO-class × workload-class
/// cross product. Cluster and traffic axes default to singletons (the
/// platform configuration's cluster; steady arrivals).
#[derive(Clone, Debug, Default)]
pub struct ScenarioMatrix {
    schedulers: Vec<SchedSpec>,
    scenarios: Vec<Scenario>,
    clusters: Vec<ClusterCase>,
    traffic: Vec<TrafficShape>,
    seeds: Vec<u64>,
}

impl ScenarioMatrix {
    /// An empty matrix (defaults to the shared [`SEED`] until
    /// [`seeds`](Self::seeds) is called).
    pub fn new() -> Self {
        ScenarioMatrix::default()
    }

    /// The paper's headline grid: all five schedulers over the three
    /// paired scenarios at the shared seed.
    pub fn paper() -> Self {
        ScenarioMatrix::new()
            .schedulers(SchedKind::all())
            .scenarios(Scenario::all())
    }

    /// Sets the scheduler axis ([`SchedKind`]s and [`SchedSpec`]s mix
    /// freely via `Into`).
    pub fn schedulers<S: Into<SchedSpec>>(
        mut self,
        schedulers: impl IntoIterator<Item = S>,
    ) -> Self {
        self.schedulers = schedulers.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the scenario axis to an explicit list of pairings.
    pub fn scenarios(mut self, scenarios: impl IntoIterator<Item = Scenario>) -> Self {
        self.scenarios = scenarios.into_iter().collect();
        self
    }

    /// Sets the scenario axis to the full `slos × workloads` cross
    /// product (SLO-major, matching the paper's panel ordering).
    pub fn cross(
        mut self,
        slos: impl IntoIterator<Item = SloClass>,
        workloads: impl IntoIterator<Item = WorkloadClass>,
    ) -> Self {
        let workloads: Vec<WorkloadClass> = workloads.into_iter().collect();
        self.scenarios = slos
            .into_iter()
            .flat_map(|slo| {
                workloads
                    .iter()
                    .map(move |&workload| Scenario { slo, workload })
            })
            .collect();
        self
    }

    /// Sets the cluster axis ([`ClusterSpec`]s and [`ClusterCase`]s mix
    /// freely via `Into`). Unset = every cell runs the suite's platform
    /// configuration cluster (the Table-2 default).
    pub fn clusters<C: Into<ClusterCase>>(mut self, clusters: impl IntoIterator<Item = C>) -> Self {
        self.clusters = clusters.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the traffic-shape axis. Unset = steady (§4.1) arrivals only.
    pub fn traffic(mut self, shapes: impl IntoIterator<Item = TrafficShape>) -> Self {
        self.traffic = shapes.into_iter().collect();
        self
    }

    /// Sets the seed axis.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    fn seed_axis(&self) -> Vec<u64> {
        if self.seeds.is_empty() {
            vec![SEED]
        } else {
            self.seeds.clone()
        }
    }

    fn cluster_axis(&self) -> Vec<Option<ClusterCase>> {
        if self.clusters.is_empty() {
            vec![None]
        } else {
            self.clusters.iter().cloned().map(Some).collect()
        }
    }

    fn traffic_axis(&self) -> Vec<TrafficShape> {
        if self.traffic.is_empty() {
            vec![TrafficShape::Steady]
        } else {
            self.traffic.clone()
        }
    }

    /// Number of cells in the expanded matrix.
    pub fn len(&self) -> usize {
        self.schedulers.len()
            * self.scenarios.len()
            * self.cluster_axis().len()
            * self.traffic_axis().len()
            * self.seed_axis().len()
    }

    /// Whether the matrix expands to no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into concrete run specifications: scenario-major,
    /// then cluster case, traffic shape, scheduler, seed-innermost. The
    /// order is part of the API: sweep results always come back in cell
    /// order.
    pub fn cells(&self) -> Vec<RunSpec> {
        let seeds = self.seed_axis();
        let clusters = self.cluster_axis();
        let traffic = self.traffic_axis();
        let mut cells = Vec::with_capacity(self.len());
        for &scenario in &self.scenarios {
            for cluster in &clusters {
                for &shape in &traffic {
                    for sched in &self.schedulers {
                        for &seed in &seeds {
                            cells.push(RunSpec {
                                index: cells.len(),
                                scheduler: sched.clone(),
                                scenario,
                                cluster: cluster.clone(),
                                traffic: shape,
                                seed,
                            });
                        }
                    }
                }
            }
        }
        cells
    }
}

/// One fully specified cell of a sweep.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Position in matrix cell order.
    pub index: usize,
    /// Scheduler factory for this run.
    pub scheduler: SchedSpec,
    /// SLO/workload pairing.
    pub scenario: Scenario,
    /// Cluster case; `None` = the suite's platform-configuration cluster.
    pub cluster: Option<ClusterCase>,
    /// Traffic shape of this cell's arrival stream.
    pub traffic: TrafficShape,
    /// Seed for this run's workload stream and platform noise. Cells
    /// sharing `(scenario, traffic, seed)` see bit-identical arrivals,
    /// so scheduler and cluster comparisons are paired.
    pub seed: u64,
}

impl RunSpec {
    /// The cluster-axis label ("default" when the cell runs the platform
    /// configuration's cluster).
    pub fn cluster_label(&self) -> &str {
        self.cluster.as_ref().map_or("default", |c| c.name.as_str())
    }
}

/// A configured sweep: a [`ScenarioMatrix`] plus the platform/environment
/// settings shared by every cell.
pub struct ExperimentSuite {
    name: String,
    matrix: ScenarioMatrix,
    config: SimConfig,
    grid: ConfigGrid,
    transfer: Option<TransferModel>,
    run_seconds: f64,
    parallel: bool,
}

impl ExperimentSuite {
    /// A suite named `name` (the artifact basename: `BENCH_<name>.json`)
    /// over `matrix`, with the standard platform configuration.
    pub fn new(name: impl Into<String>, matrix: ScenarioMatrix) -> Self {
        ExperimentSuite {
            name: name.into(),
            matrix,
            config: standard_config(),
            grid: ConfigGrid::default(),
            transfer: None,
            run_seconds: RUN_SECONDS,
            parallel: true,
        }
    }

    /// Replaces the platform configuration template. The per-run seed
    /// still comes from the matrix's seed axis.
    pub fn with_sim_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the configuration grid of every cell's environment
    /// (ablations restrict it, overhead sweeps enlarge it).
    pub fn with_grid(mut self, grid: ConfigGrid) -> Self {
        self.grid = grid;
        self
    }

    /// Replaces every cell environment's data-transfer tariffs
    /// (transfer-bound sweeps crank the remote path to make data
    /// movement, not compute, the bottleneck).
    pub fn with_transfer(mut self, transfer: TransferModel) -> Self {
        self.transfer = Some(transfer);
        self
    }

    /// Sets the simulated arrival window per run, seconds.
    pub fn with_run_seconds(mut self, seconds: f64) -> Self {
        self.run_seconds = seconds;
        self
    }

    /// Forces single-threaded execution (the determinism test compares
    /// this against the default parallel mode).
    pub fn serial(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// The suite name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Executes every cell and collects the records in cell order.
    ///
    /// Environments (one per distinct SLO class) and workloads (one per
    /// distinct scenario × traffic × seed) are materialised once and
    /// shared by all runs — both for speed and so that paired cells
    /// provably consume identical inputs.
    ///
    /// Every cell goes through [`run_simulation`]'s checks; a cell they
    /// refuse panics with the suite name, the cell's coordinates and the
    /// [`SimError`](esg_sim::SimError) text before its event loop starts.
    pub fn run(&self) -> Sweep {
        let cells = self.matrix.cells();

        let mut envs: HashMap<SloClass, SimEnv> = HashMap::new();
        let mut workloads: HashMap<(Scenario, TrafficShape, u64), Workload> = HashMap::new();
        for cell in &cells {
            envs.entry(cell.scenario.slo).or_insert_with(|| {
                let mut env = SimEnv::with_grid(cell.scenario.slo, self.grid.clone());
                if let Some(t) = self.transfer {
                    env.transfer = t;
                }
                env
            });
            workloads
                .entry((cell.scenario, cell.traffic, cell.seed))
                .or_insert_with(|| {
                    workload_for_shape(cell.scenario, cell.traffic, cell.seed, self.run_seconds)
                });
        }

        let run_one = |spec: RunSpec| -> SweepResult {
            let env = &envs[&spec.scenario.slo];
            let workload = &workloads[&(spec.scenario, spec.traffic, spec.seed)];
            let mut cfg = SimConfig {
                seed: spec.seed,
                ..self.config.clone()
            };
            if let Some(case) = &spec.cluster {
                cfg.cluster = Some(case.spec.clone());
                // A case without its own churn inherits any plan set via
                // `with_sim_config` rather than silently cancelling it.
                if !case.churn.is_empty() {
                    cfg.churn = case.churn.clone();
                }
            }
            let mut sched = spec.scheduler.build();
            let scheduler = spec.scheduler.name().to_string();
            let cluster = spec.cluster_label().to_string();
            let scenario = spec.scenario.to_string();
            let result = run_simulation(env, cfg, sched.as_mut(), workload, &scenario, None)
                .unwrap_or_else(|e| {
                    panic!(
                        "suite {}: cell {scheduler} / {scenario} / cluster {cluster} / \
traffic {} / seed {} refused: {e}",
                        self.name, spec.traffic, spec.seed
                    )
                });
            SweepResult {
                suite: self.name.clone(),
                scheduler,
                scenario: spec.scenario,
                cluster,
                traffic: spec.traffic,
                seed: spec.seed,
                result,
            }
        };

        let results: Vec<SweepResult> = if self.parallel && cells.len() > 1 {
            cells.into_par_iter().map(run_one).collect()
        } else {
            cells.into_iter().map(run_one).collect()
        };

        Sweep {
            suite: self.name.clone(),
            run_seconds: self.run_seconds,
            results,
        }
    }
}

/// One structured record of a sweep: the cell coordinates plus the full
/// simulation result.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Owning suite name.
    pub suite: String,
    /// Scheduler label.
    pub scheduler: String,
    /// SLO/workload pairing.
    pub scenario: Scenario,
    /// Cluster-case label ("default" = the suite's platform cluster).
    pub cluster: String,
    /// Traffic shape of the cell's arrival stream.
    pub traffic: TrafficShape,
    /// The cell's seed.
    pub seed: u64,
    /// Full simulation metrics.
    pub result: ExperimentResult,
}

impl SweepResult {
    /// The record as a JSON object. Wall-clock fields
    /// (`wall_overhead_ms`) are deliberately excluded: every field here
    /// is a pure function of the cell coordinates, so records are
    /// bit-identical across parallel/serial execution and across hosts.
    pub fn to_json(&self) -> Value {
        let r = &self.result;
        let mut o = Map::new();
        o.insert("scheduler", self.scheduler.as_str());
        o.insert("slo", self.scenario.slo.to_string());
        o.insert("workload", self.scenario.workload.to_string());
        o.insert("scenario", self.scenario.to_string());
        o.insert("cluster", self.cluster.as_str());
        o.insert("traffic", self.traffic.to_string());
        o.insert("seed", self.seed);
        o.insert("arrivals", r.arrivals);
        o.insert("completed", r.total_completed());
        o.insert("avg_hit_rate", r.avg_hit_rate());
        o.insert("overall_hit_rate", r.overall_hit_rate());
        o.insert("total_cost_cents", r.total_cost_cents());
        o.insert("cost_per_invocation_cents", r.cost_per_invocation_cents());
        o.insert("config_miss_rate", r.config_miss_rate());
        o.insert("cold_start_rate", r.cold_start_rate());
        o.insert("locality_rate", r.locality_rate());
        o.insert("shed_rate", r.shed_rate());
        o.insert("shed_invocations", r.shed_invocations);
        o.insert("queues_deferred", r.scheduler_stats.policy.queues_deferred);
        o.insert("mean_overhead_ms", r.mean_overhead_ms());
        o.insert("searches", r.scheduler_stats.searches);
        o.insert("plan_cache_hits", r.scheduler_stats.plan_cache_hits);
        o.insert("plan_cache_misses", r.scheduler_stats.plan_cache_misses);
        o.insert(
            "plan_cache_hit_rate",
            r.scheduler_stats.plan_cache_hit_rate(),
        );
        o.insert("vcpu_utilisation", r.vcpu_utilisation);
        o.insert("vgpu_utilisation", r.vgpu_utilisation);
        o.insert("makespan_ms", r.makespan_ms);
        // Data-plane telemetry appears only when the cell ran with a
        // contended GPU data plane: scalar-model documents (and every
        // artifact committed before the plane existed) stay byte-stable.
        if r.transfers != TransferSummary::default() {
            let t = &r.transfers;
            o.insert("transfers_started", t.started);
            o.insert("transfers_completed", t.completed);
            o.insert("transfers_queued", t.queued);
            o.insert("transfers_batched_small", t.batched_small);
            o.insert("transfer_replans", t.replans);
            o.insert("transfer_total_mb", t.total_mb);
            // Only server-topology clusters route bytes through ToR
            // pools; flat-cluster documents keep their exact shape.
            if t.cross_server_mb > 0.0 {
                o.insert("transfer_cross_server_mb", t.cross_server_mb);
            }
            o.insert("transfer_peak_active", u64::from(t.peak_active));
            o.insert("transfer_peak_staging_mb", t.peak_staging_mb);
        }
        let apps: Vec<Value> = r
            .apps
            .iter()
            .map(|a| {
                let mut m = Map::new();
                m.insert("name", a.name.as_str());
                m.insert("completed", a.completed);
                m.insert("slo_hits", a.slo_hits);
                m.insert("hit_rate", a.hit_rate());
                m.insert("slo_ms", a.slo_ms);
                m.insert("cost_cents", a.cost_cents);
                m.insert("mean_latency_ms", a.mean_latency_ms());
                m.insert("p50_ms", a.latency_percentile(50.0).unwrap_or(0.0));
                m.insert("p95_ms", a.latency_percentile(95.0).unwrap_or(0.0));
                Value::Object(m)
            })
            .collect();
        o.insert("apps", apps);
        Value::Object(o)
    }

    /// The record's CSV row, matching [`Sweep::CSV_HEADER`].
    pub fn csv_row(&self) -> String {
        let r = &self.result;
        format!(
            "{},{},{},{},{},{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.3}",
            self.suite,
            self.scheduler,
            self.scenario.slo,
            self.scenario.workload,
            self.scenario,
            self.cluster,
            self.traffic,
            self.seed,
            r.arrivals,
            r.total_completed(),
            r.avg_hit_rate(),
            r.overall_hit_rate(),
            r.total_cost_cents(),
            r.cost_per_invocation_cents(),
            r.config_miss_rate(),
            r.cold_start_rate(),
            r.locality_rate(),
            r.shed_rate(),
            r.mean_overhead_ms(),
            r.vcpu_utilisation,
            r.vgpu_utilisation,
            r.makespan_ms,
        )
    }
}

/// The collected output of one [`ExperimentSuite::run`], in matrix cell
/// order.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Suite name (artifact basename).
    pub suite: String,
    /// Simulated arrival window per run, seconds.
    pub run_seconds: f64,
    /// One record per cell, in cell order.
    pub results: Vec<SweepResult>,
}

impl Sweep {
    /// Header line for [`SweepResult::csv_row`].
    pub const CSV_HEADER: &'static str = "suite,scheduler,slo,workload,scenario,cluster,traffic,\
seed,arrivals,completed,avg_hit_rate,overall_hit_rate,total_cost_cents,\
cost_per_invocation_cents,config_miss_rate,cold_start_rate,locality_rate,\
shed_rate,mean_overhead_ms,vcpu_utilisation,vgpu_utilisation,makespan_ms";

    /// The whole sweep as one JSON document.
    pub fn to_json(&self) -> Value {
        let mut o = Map::new();
        o.insert("suite", self.suite.as_str());
        o.insert("run_seconds", self.run_seconds);
        o.insert("cells", self.results.len() as u64);
        let runs: Vec<Value> = self.results.iter().map(SweepResult::to_json).collect();
        o.insert("runs", runs);
        Value::Object(o)
    }

    /// Writes `BENCH_<suite>.json` and `BENCH_<suite>.csv` under the
    /// results directory (best effort, like all artifact emission).
    pub fn write_artifacts(&self) {
        crate::emit::write_json(&format!("BENCH_{}", self.suite), &self.to_json());
        let rows: Vec<String> = self.results.iter().map(SweepResult::csv_row).collect();
        crate::emit::write_csv(&format!("BENCH_{}", self.suite), Self::CSV_HEADER, &rows);
    }

    /// Paper-style Markdown tables rendered from the same document that
    /// backs `BENCH_<suite>.json`.
    pub fn to_markdown(&self) -> String {
        crate::emit::render_bench_markdown(&self.to_json())
    }

    /// Splices [`to_markdown`](Self::to_markdown) into `EXPERIMENTS.md`
    /// between this suite's markers (best effort).
    pub fn write_experiments_section(&self) {
        crate::emit::update_experiments_md(&self.suite, &self.to_markdown());
    }

    /// The first record for `(scheduler, scenario)`, any seed.
    pub fn find(&self, scheduler: &str, scenario: Scenario) -> Option<&SweepResult> {
        self.results
            .iter()
            .find(|c| c.scheduler == scheduler && c.scenario == scenario)
    }

    /// All records of one scenario, in cell order.
    pub fn for_scenario(&self, scenario: Scenario) -> impl Iterator<Item = &SweepResult> {
        self.results.iter().filter(move |c| c.scenario == scenario)
    }

    /// Every record's coordinates and [`ExperimentResult::canonical`]
    /// encoding, one line per record; two sweeps of the same suite are
    /// equivalent iff their digests are equal.
    pub fn canonical_digest(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for c in &self.results {
            writeln!(
                out,
                "{}|{}|{}|{}|{}|{}",
                c.scheduler,
                c.scenario,
                c.cluster,
                c.traffic,
                c.seed,
                c.result.canonical()
            )
            .expect("writing to String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_expansion_order_and_size() {
        let m = ScenarioMatrix::new()
            .schedulers([SchedKind::Esg, SchedKind::Infless])
            .cross(
                [SloClass::Strict, SloClass::Relaxed],
                [WorkloadClass::Light, WorkloadClass::Heavy],
            )
            .seeds([1, 2, 3]);
        assert_eq!(m.len(), 24);
        let cells = m.cells();
        assert_eq!(cells.len(), 24);
        // Scenario-major, scheduler-minor, seed-innermost.
        assert_eq!(cells[0].scheduler.name(), "ESG");
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[1].seed, 2);
        assert_eq!(cells[3].scheduler.name(), "INFless");
        assert_eq!(cells[6].scenario.workload, WorkloadClass::Heavy);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn default_seed_axis_is_shared_seed() {
        let m = ScenarioMatrix::new()
            .schedulers([SchedKind::Esg])
            .scenarios([Scenario::STRICT_LIGHT]);
        assert_eq!(m.cells()[0].seed, SEED);
    }

    #[test]
    fn sched_spec_from_kind_builds_matching_scheduler() {
        let spec: SchedSpec = SchedKind::Orion.into();
        assert_eq!(spec.name(), "Orion");
        assert_eq!(spec.build().name(), "Orion");
    }

    #[test]
    fn paper_matrix_is_the_headline_grid() {
        let m = ScenarioMatrix::paper();
        assert_eq!(m.len(), 15);
    }

    #[test]
    fn csv_header_matches_row_arity() {
        let cols = Sweep::CSV_HEADER.split(',').count();
        let row = SweepResult {
            suite: "t".into(),
            scheduler: "ESG".into(),
            scenario: Scenario::STRICT_LIGHT,
            cluster: "default".into(),
            traffic: TrafficShape::Steady,
            seed: 1,
            result: ExperimentResult::default(),
        }
        .csv_row();
        assert_eq!(row.split(',').count(), cols);
    }

    #[test]
    fn cluster_and_traffic_axes_multiply_and_label() {
        let m = ScenarioMatrix::new()
            .schedulers([SchedKind::Esg])
            .scenarios([Scenario::MODERATE_NORMAL])
            .clusters([
                ClusterCase::new(ClusterSpec::paper()),
                ClusterCase::new(ClusterSpec::skewed())
                    .with_churn(ChurnPlan::none().drain(1000.0, esg_model::NodeId(0))),
            ])
            .traffic([TrafficShape::Steady, TrafficShape::Bursty]);
        assert_eq!(m.len(), 4);
        let cells = m.cells();
        assert_eq!(cells[0].cluster_label(), "paper-16xa100");
        assert_eq!(cells[0].traffic, TrafficShape::Steady);
        assert_eq!(cells[1].traffic, TrafficShape::Bursty);
        assert_eq!(cells[2].cluster_label(), "skewed+churn");
        assert!(!cells[2].cluster.as_ref().unwrap().churn.is_empty());
    }

    #[test]
    fn cluster_case_without_churn_inherits_suite_churn() {
        // A churn plan set via with_sim_config must survive a cluster
        // axis whose cases carry no plan of their own.
        let suite = ExperimentSuite::new(
            "churn_inherit",
            ScenarioMatrix::new()
                .schedulers([SchedKind::Esg])
                .scenarios([Scenario::RELAXED_HEAVY])
                .clusters([ClusterCase::new(ClusterSpec::paper())]),
        )
        .with_sim_config(SimConfig {
            churn: ChurnPlan::none().drain(50.0, esg_model::NodeId(3)),
            ..SimConfig::default()
        })
        .with_run_seconds(2.0);
        let sweep = suite.run();
        let nodes = &sweep.results[0].result.nodes;
        assert_eq!(nodes.iter().filter(|n| !n.online).count(), 1);
    }

    #[test]
    fn default_axes_are_singletons() {
        let m = ScenarioMatrix::new()
            .schedulers([SchedKind::Esg])
            .scenarios([Scenario::STRICT_LIGHT]);
        assert_eq!(m.len(), 1);
        let cell = &m.cells()[0];
        assert!(cell.cluster.is_none());
        assert_eq!(cell.cluster_label(), "default");
        assert_eq!(cell.traffic, TrafficShape::Steady);
    }

    /// The panic message of a one-cell ESG strict-light suite named
    /// `name` under `config`.
    fn refusal(name: &str, config: SimConfig) -> String {
        let suite = ExperimentSuite::new(
            name,
            ScenarioMatrix::new()
                .schedulers([SchedKind::Esg])
                .scenarios([Scenario::STRICT_LIGHT]),
        )
        .with_sim_config(config);
        let run = std::panic::AssertUnwindSafe(|| suite.run());
        let payload = std::panic::catch_unwind(run).expect_err("the cell is refused");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("a formatted panic message")
    }

    #[test]
    fn a_cell_without_nodes_is_refused_before_its_run() {
        let msg = refusal(
            "empty",
            SimConfig {
                nodes: 0,
                ..standard_config()
            },
        );
        assert!(
            msg.starts_with(
                "suite empty: cell ESG / strict-light / cluster default / traffic steady / seed 42"
            ),
            "{msg}"
        );
        assert!(
            msg.ends_with("refused: cluster has no usable node"),
            "{msg}"
        );
    }

    #[test]
    fn a_cell_with_a_negative_keep_alive_is_refused() {
        let msg = refusal(
            "keep",
            SimConfig {
                keep_alive_ms: -1.0,
                ..standard_config()
            },
        );
        assert!(msg.contains("knob keep_alive_ms = -1"), "{msg}");
    }
}
