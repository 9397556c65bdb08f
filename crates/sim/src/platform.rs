//! The simulation platform: environment, configuration, and the
//! discrete-event loop with the controller model.
//!
//! The controller mirrors the paper's §3.1 workflow, expressed through
//! the round-based control-plane API: each controller round collects
//! every eligible AFW queue and presents the set to the scheduler
//! ([`Scheduler::schedule_round`]); returned decisions are applied in
//! order — the dispatcher tries each candidate's placement against the
//! live [`ClusterState`], on total failure the queue enters the recheck
//! list, is retried after every subsequent round, and is forcibly
//! dispatched at the minimum configuration after `recheck_limit` rounds.
//! Each decision's search effort occupies the controller for simulated
//! time given by [`decision_time`], which is how scheduler overhead
//! degrades SLO attainment (Fig. 9) and how batches form naturally under
//! load.
//!
//! The cluster state is maintained *incrementally*: dispatches,
//! completions, pre-warms, and churn mark the affected node and
//! [`ClusterState::refresh`] re-syncs exactly those nodes (plus passive
//! warm-set changes) — nothing is rebuilt per decision, and the
//! scheduler-facing job views live in per-queue buffers with retained
//! capacity. `SimConfig::validate_cluster_state` turns on the
//! equivalence oracle: every refresh point also rebuilds a from-scratch
//! snapshot and asserts it equals the incremental state, and every
//! controller round checks its eligible queues against a full scan.

use crate::arena::Arena;
use crate::builder::{check_arrival, check_run, SimError};
use crate::cluster::Cluster;
use crate::dataplane::{Admission, DataPlane, DataPlaneConfig, TransferReq, BATCH_MAX_MB};
use crate::event::{Event, EventQueue};
use crate::eventlog::Observer;
use crate::metrics::{AppMetrics, ExperimentResult, NodeSummary};
use crate::policy::ShedReason;
use crate::sched::{
    decision_time, fill_job_views, home_node, JobView, Outcome, QueueKey, QueueView, RoundCtx,
    SchedCtx, Scheduler, SchedulerEvent,
};
use crate::state::ClusterState;
use crate::workflow::{AfwQueue, Job, WorkflowInstance};
use esg_model::{
    standard_apps, standard_catalog, AppId, AppSpec, Catalog, ChurnEvent, ChurnPlan, ClusterSpec,
    Config, ConfigGrid, FnId, InvocationId, NodeId, PriceModel, Resources, SimTime, SloClass,
};
use esg_profile::{latency_ms, NoiseModel, ProfileTable, TransferModel};
use esg_workload::{Arrival, ArrivalPredictor, ArrivalStream, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The static experiment environment: catalog, applications, profiles,
/// noise, transfer, pricing, and the SLO class.
#[derive(Clone, Debug)]
pub struct SimEnv {
    /// Function catalog (Table 3).
    pub catalog: Catalog,
    /// Application specs (§4.1).
    pub apps: Vec<AppSpec>,
    /// Performance profiles over the configuration grid.
    pub profiles: ProfileTable,
    /// Execution-time noise.
    pub noise: NoiseModel,
    /// Data-transfer model.
    pub transfer: TransferModel,
    /// Pricing (§4.1).
    pub price: PriceModel,
    /// SLO strictness.
    pub slo: SloClass,
}

impl SimEnv {
    /// The paper's standard environment: Table-3 catalog, the four §4.1
    /// apps, the default configuration grid and prices.
    pub fn standard(slo: SloClass) -> SimEnv {
        SimEnv::with_grid(slo, ConfigGrid::default())
    }

    /// Standard environment over a custom configuration grid (ablations
    /// restrict the grid; overhead sweeps enlarge it).
    pub fn with_grid(slo: SloClass, grid: ConfigGrid) -> SimEnv {
        let catalog = standard_catalog();
        let apps = standard_apps();
        let price = PriceModel::default();
        let profiles = ProfileTable::build(&catalog, &grid, &price);
        SimEnv {
            catalog,
            apps,
            profiles,
            noise: NoiseModel::default(),
            transfer: TransferModel::default(),
            price,
            slo,
        }
    }

    /// Base latency `L` of an app, ms.
    pub fn base_latency_ms(&self, app: AppId) -> f64 {
        self.profiles.base_latency_ms(&self.apps[app.index()])
    }

    /// End-to-end SLO of an app under the environment's SLO class, ms.
    pub fn slo_ms(&self, app: AppId) -> f64 {
        self.base_latency_ms(app) * self.slo.factor()
    }

    /// A fingerprint of the apps and the profile table: environments
    /// whose apps and profiles hold the same content share it, and any
    /// one changed word moves it. The platform computes it once per run
    /// and hands it to the scheduler as [`SchedCtx::env_fingerprint`], so
    /// a scheduler can check state it derived from apps and profiles in
    /// O(1) per decision.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over words: each step is a bijection of the state, so a
        // single changed word always changes the result.
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x100000001b3);
        mix(self.apps.len() as u64);
        for app in &self.apps {
            mix(app.nodes.len() as u64);
            app.nodes.iter().for_each(|f| mix(f.0 as u64));
            mix(app.edges.len() as u64);
            for &(a, b) in &app.edges {
                mix(a as u64);
                mix(b as u64);
            }
        }
        let p = &self.profiles;
        for axis in [&p.grid().batches, &p.grid().vcpus, &p.grid().vgpus] {
            mix(axis.len() as u64);
            axis.iter().for_each(|&v| mix(v as u64));
        }
        mix(p.price().vcpu_cents_per_sec.to_bits());
        mix(p.price().vgpu_cents_per_sec.to_bits());
        mix(p.len() as u64);
        for f in 0..p.len() {
            let profile = p.profile(esg_model::FnId(f as u32));
            mix(profile.entries().len() as u64);
            for e in profile.entries().iter().chain([profile.min_config_entry()]) {
                mix(e.config.batch as u64);
                mix(e.config.vcpus as u64);
                mix(e.config.vgpus as u64);
                mix(e.latency_ms.to_bits());
                mix(e.per_job_latency_ms.to_bits());
                mix(e.task_cost_cents.to_bits());
                mix(e.per_job_cost_cents.to_bits());
            }
        }
        h
    }
}

/// Invoker nodes of the paper cluster (Table 2), used when
/// [`SimConfig::cluster`] is `None`.
pub(crate) const NODES: usize = 16;

/// Resources per paper-cluster node: 16 vCPUs and an A100 in 7 MIG
/// slices (Table 2).
const NODE_RESOURCES: Resources = Resources::new(16, 7);

/// Keep-alive for warm containers, ms (OpenWhisk: 10 minutes, §2).
const KEEP_ALIVE_MS: f64 = 600_000.0;

/// EWMA smoothing factor of the pre-warm proxy's arrival predictors (§4).
const PREWARM_ALPHA: f64 = 0.3;

/// Warm containers per (node, function) installed at t = 0. The
/// evaluation measures a cluster in steady state (the paper's proxy
/// threads have been pre-warming from prior traffic); starting cold would
/// make the multi-second Table-3 cold starts dominate any run shorter
/// than minutes.
const INITIAL_WARM_PER_NODE: u32 = 1;

/// Upper bound on live containers per (node, function) that the pre-warm
/// proxy grows towards under concurrency pressure.
const PREWARM_POOL_CAP: usize = 4;

/// `recheck_limit`: recheck rounds before a parked queue is "dispatched
/// with the minimum configuration to ensure progress" (§3.1).
const RECHECK_LIMIT: u32 = 3;

/// `idle_backoff_ms`: the controller's back-off when a decision skipped a
/// queue or its placement failed, ms; also the least gap between two
/// retries of a parked queue.
pub const IDLE_BACKOFF_MS: f64 = 1.0;

/// Platform knobs. The paper's fixed platform choices (cluster shape,
/// keep-alive, pre-warm proxy tuning, recheck limit, idle back-off and
/// [`decision_time`]) are constants of the platform, not fields.
///
/// A plain record: set a knob by its field. [`run_simulation`] and
/// [`run_streamed`] check it ([`SimConfig::validate`]) before the run
/// starts and return a typed [`SimError`] instead of panicking deep
/// inside the event loop on inconsistent settings.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Declarative cluster: per-node classes with speed/link/price scale
    /// factors (Appendix A: the algorithms tolerate heterogeneous
    /// hardware). `None` is the paper cluster: 16 nodes of 16 vCPUs and
    /// 7 vGPU slices (Table 2).
    pub cluster: Option<ClusterSpec>,
    /// Scripted node drains/joins applied by the event loop mid-run.
    pub churn: ChurnPlan,
    /// Whether decision time occupies the controller and delays dispatch
    /// (disable for "w/o searching overhead" variants, Fig. 9).
    pub charge_overhead: bool,
    /// Enable the EWMA pre-warming proxy (§4).
    pub prewarm: bool,
    /// Invocations arriving before this time are excluded from SLO/latency
    /// metrics (warm-up window); costs always accrue.
    pub warmup_exclude_ms: f64,
    /// RNG seed (noise and any stochastic scheduler choices).
    pub seed: u64,
    /// Safety cap on simulated time, ms (0 = none).
    pub max_sim_ms: f64,
    /// Equivalence oracle: assert at every refresh point that the
    /// incrementally maintained [`ClusterState`] equals a from-scratch
    /// snapshot of the cluster (the pre-redesign per-decision rebuild),
    /// and in every controller round that the eligible queues read off
    /// the queue bitset are those a full scan finds. Costs a full rebuild
    /// per refresh and a scan per round — test runs only. It stays an
    /// opt-in reference check rather than being on in every debug
    /// build: on in every debug run, it took the tier-1 suite from 43 s
    /// to 98 s on a 2-vCPU box and failed the three allocation budgets
    /// of `tests/alloc_budget.rs`, whose counts the rebuilds inflate.
    pub validate_cluster_state: bool,
    /// Contended GPU data plane (`crate::dataplane`): per-node PCIe/
    /// NVLink bandwidth pools with fair-share transfer progress and
    /// bounded host-memory staging, sized by the cluster's node classes
    /// and topology. `None` (the default) keeps the
    /// classic scalar transfer model; at effectively infinite bandwidth
    /// the plane is dispatch-trace bit-identical to the scalar model
    /// (`tests/dataplane_equivalence.rs`).
    pub data_plane: Option<DataPlaneConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cluster: None,
            churn: ChurnPlan::none(),
            charge_overhead: true,
            prewarm: true,
            warmup_exclude_ms: 0.0,
            seed: 42,
            max_sim_ms: 0.0,
            validate_cluster_state: false,
            data_plane: None,
        }
    }
}

struct RunningTask {
    key: QueueKey,
    config: Config,
    node: NodeId,
    jobs: Vec<Job>,
    was_warm: bool,
    /// Execution time (resources held and billed for this span only; the
    /// cold start and transfer happen in a non-occupying init phase — a
    /// container being provisioned does not hold its MIG slice or vCPUs).
    exec_ms: f64,
    init_ready_at: SimTime,
    /// Whether the task currently holds a capacity commitment on its node.
    /// Warm tasks commit at dispatch (their init is only the transfer);
    /// cold tasks commit when their multi-second container init finishes,
    /// so provisioning does not hold the cluster hostage.
    committed: bool,
}

struct RecheckEntry {
    /// The parked queue's index.
    qi: usize,
    candidates: Vec<Config>,
    planned_batch: Option<u32>,
    rounds: u32,
    /// Last retry time: rounds are paced, not per-event, so a burst of
    /// completions does not race a queue to the forced minimum.
    last_retry: SimTime,
}

/// Where a run's arrivals come from: a materialised workload slice or a
/// lazy [`ArrivalStream`]. Both feed the same one-at-a-time pull loop
/// (the platform holds at most one undelivered arrival), so streamed
/// and materialised runs are bit-identical by construction.
enum ArrivalSource<'a> {
    /// Iterating a pre-generated `Workload`.
    Materialised(std::slice::Iter<'a, Arrival>),
    /// Pulling a lazy stream as simulated time advances (boxed: the
    /// stream's RNG + look-ahead state dwarfs the slice iterator).
    Streamed(Box<ArrivalStream>),
}

impl ArrivalSource<'_> {
    fn next(&mut self) -> Option<Arrival> {
        match self {
            ArrivalSource::Materialised(it) => it.next().copied(),
            ArrivalSource::Streamed(s) => s.next(),
        }
    }
}

/// Peak live-population counters and metric-table size from one run —
/// the RSS proxy the streaming replay bench asserts its memory ceiling
/// against. The population counters are bounded by the in-flight
/// population (arrival rate × residence time) and the overhead table by
/// the distinct overhead values, not by the total invocation count,
/// which is what makes streamed replays constant-memory.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryFootprint {
    /// High-water mark of live invocations in the arena.
    pub peak_live_invocations: usize,
    /// Invocation arena slots ever allocated (live + free list).
    pub invocation_slots: usize,
    /// High-water mark of live running tasks in the arena.
    pub peak_live_tasks: usize,
    /// Task arena slots ever allocated.
    pub task_slots: usize,
    /// High-water mark of pending events in the queue.
    pub peak_pending_events: usize,
    /// Entries of the decision-overhead table, one per distinct overhead
    /// value ([`crate::OverheadTable`]): bounded by the values the
    /// overhead model yields, not by the number of decisions.
    pub overhead_entries: usize,
}

/// One simulation run binding an environment, a configuration, a scheduler
/// and a workload.
///
/// This is the unchecked engine that [`run_simulation`] and
/// [`run_streamed`] drive after their checks: it trusts its inputs, so
/// an invalid configuration panics inside the event loop or runs
/// silently. Drive it directly only with settings those entries accept
/// (benchmarks do, to measure the event loop alone).
pub struct Simulation<'a> {
    env: &'a SimEnv,
    cfg: SimConfig,
    sched: &'a mut dyn Scheduler,
    source: ArrivalSource<'a>,
    /// The next arrival, already scheduled in the event queue; the pull
    /// loop replaces it when its event pops. `None` once the source is
    /// exhausted.
    pending_arrival: Option<Arrival>,
    /// Index the next arrival event will carry (the streamed twin of the
    /// materialised workload's vector index).
    next_arrival_idx: usize,

    now: SimTime,
    events: EventQueue,
    cluster: Cluster,
    /// The scheduler-facing cluster state, maintained incrementally (see
    /// `crate::state`).
    state: ClusterState,
    /// Queues are numbered densely, app by app: app `a`'s stage `s` is
    /// queue `app_base[a] + s`. One trailing entry holds the queue count,
    /// so app `a` has `app_base[a + 1] - app_base[a]` stages.
    app_base: Vec<usize>,
    /// What schedulers see of each queue.
    facts: QueueFacts,
    queues: Vec<AfwQueue>,
    /// Live invocations, slot-addressed ([`Job::slot`]). Ids stay
    /// monotone via `next_invocation`; slots recycle.
    invocations: Arena<WorkflowInstance>,
    next_invocation: u64,
    /// Running tasks; the arena slot *is* the task id carried by
    /// `ExecReady`/`TaskComplete` events (each id has exactly one of
    /// each in flight, so recycling a completed task's slot is safe).
    tasks: Arena<RunningTask>,
    /// Per-queue scheduling-busy horizon: a queue whose previous decision
    /// charged overhead is not re-decided before this time (the paper's
    /// controller schedules queues concurrently; search time delays only
    /// the affected queue's jobs).
    queue_busy_until: Vec<SimTime>,
    /// Per-queue batch-formation hold ([`BatchHold`](crate::BatchHold)):
    /// the job count that ends it early, and the earliest instant the
    /// queue may then be re-decided (holding decision + charged overhead).
    queue_hold: Vec<Option<(u32, SimTime)>>,
    /// Queues that failed placement, retried by `process_recheck`; at
    /// most one entry per queue.
    recheck: Vec<RecheckEntry>,
    /// `parked[qi]` is true while queue `qi` has an entry on `recheck`
    /// (a parked queue is not eligible for new decisions).
    parked: Vec<bool>,
    /// Bit `qi` (word `qi / 64`) is set iff queue `qi` is non-empty and
    /// not parked; kept by [`sync_ready`](Self::sync_ready) wherever
    /// either changes, so a controller step visits only these queues.
    ready: Vec<u64>,
    /// Tasks whose init finished but whose node lacked capacity, FIFO per
    /// node; drained on every resource release.
    waiting_exec: Vec<std::collections::VecDeque<u64>>,
    predictors: Vec<ArrivalPredictor>,
    queue_last_arrival: Vec<Option<SimTime>>,
    last_node: Vec<Option<NodeId>>,
    /// Reused eligible-queue index buffer for the round driver.
    eligible: Vec<usize>,
    /// `decided_stamp[qi] == round_seq` marks a queue already decided in
    /// the current controller step (each queue is decided at most once
    /// per step, as in the classic single-pass scan).
    decided_stamp: Vec<u64>,
    /// `views_stamp[qi] == round_seq` marks a queue whose job views are
    /// already current for this step — views are time-invariant within a
    /// step (fixed `now`, and an undecided queue's jobs cannot change),
    /// so each queue is refilled at most once per step even though the
    /// default replay runs one round per decision.
    views_stamp: Vec<u64>,
    round_seq: u64,
    noise: NoiseModel,
    rng: StdRng,
    metrics: ExperimentResult,
    /// [`SimEnv::fingerprint`] of `env`, computed when the run starts so
    /// the set-up does not pay for hashing every profile entry.
    env_fingerprint: u64,
    /// The run's observer, fed alongside the scheduler by
    /// [`notify`](Self::notify) and by `handle_arrival`.
    observer: Option<&'a mut dyn Observer>,
    /// The contended data plane (`cfg.data_plane`); `None` keeps the
    /// classic scalar transfer model.
    dataplane: Option<DataPlane>,
    /// Retained per-event buffers. Each is emptied before use and grows
    /// lazily to the run's working set, after which the dispatch path
    /// allocates nothing for them.
    bufs: Buffers,
}

/// What schedulers see of each queue, indexed by queue.
/// [`view`](Self::view) builds every [`QueueView`] the platform hands
/// out, to a round and to placement alike.
struct QueueFacts {
    keys: Vec<QueueKey>,
    functions: Vec<FnId>,
    /// End-to-end SLO per app, ms, computed once per run.
    slo_ms: Vec<f64>,
    /// Base latency `L` per app, ms, computed once per run.
    base_ms: Vec<f64>,
    /// Smoothed inter-arrival interval per queue (batching policies).
    intervals: Vec<esg_model::Ewma>,
    /// Job views, rebuilt in place per round (retained capacity — no
    /// per-decision allocation).
    jobs: Vec<Vec<JobView>>,
}

impl QueueFacts {
    /// Queue `qi` as schedulers see it.
    fn view(&self, qi: usize) -> QueueView<'_> {
        let key = self.keys[qi];
        QueueView {
            key,
            jobs: &self.jobs[qi],
            function: self.functions[qi],
            slo_ms: self.slo_ms[key.app.index()],
            base_latency_ms: self.base_ms[key.app.index()],
            queue_interval_ms: self.intervals[qi].value(),
        }
    }
}

/// Spare finished instances and batch vectors kept for reuse, at most:
/// enough to absorb the turnover between arrivals and completions (64
/// saves as many allocations as an unbounded pool on every benchmark
/// workload), while the surplus of a load peak is freed instead of
/// staying pinned in the pool.
const SPARE_CAP: usize = 64;

/// The platform loop's retained per-event buffers (see
/// [`Simulation::bufs`]).
#[derive(Default)]
struct Buffers {
    /// Dispatched batches' job vectors, returned on task completion
    /// (at most [`SPARE_CAP`]).
    jobs: Vec<Vec<Job>>,
    /// Finished invocations, reused for new arrivals (at most
    /// [`SPARE_CAP`]).
    instances: Vec<WorkflowInstance>,
    /// The `Dispatched` event's invocation list.
    dispatched: Vec<InvocationId>,
    /// A round's `QueueView` list, kept empty between rounds (its
    /// elements borrow the per-queue job views).
    queue_views: Vec<QueueView<'static>>,
    /// `process_recheck`'s list of the entries it is retrying.
    recheck: Vec<RecheckEntry>,
    /// Stages made ready by an arrival or a completed stage.
    stages: Vec<usize>,
    /// A dispatch's distinct remote producers with their job counts.
    src_counts: Vec<(usize, u32)>,
    /// A dispatch's distinct remote producers.
    remote_srcs: Vec<usize>,
}

impl Buffers {
    /// Keeps a finished invocation for reuse, unless enough are spare.
    fn spare_instance(&mut self, inst: WorkflowInstance) {
        if self.instances.len() < SPARE_CAP {
            self.instances.push(inst);
        }
    }
}

/// Empties `v` and returns its allocation re-typed as a `Vec<U>`. `T`
/// and `U` must share size and alignment (here: one view type under two
/// lifetimes), which makes the collect reuse the buffer in place; with no
/// element left the closure never runs.
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

impl<'a> Simulation<'a> {
    /// Prepares a run over a materialised workload.
    pub fn new(
        env: &'a SimEnv,
        cfg: SimConfig,
        sched: &'a mut dyn Scheduler,
        workload: &'a Workload,
    ) -> Simulation<'a> {
        Simulation::new_with_source(
            env,
            cfg,
            sched,
            ArrivalSource::Materialised(workload.arrivals.iter()),
        )
    }

    /// Prepares a run pulling arrivals lazily from `stream` as simulated
    /// time advances — constant memory in the arrival count. The stream
    /// must yield time-ordered arrivals (every [`ArrivalStream`] does).
    /// Unbounded streams need `cfg.max_sim_ms > 0` to terminate.
    pub fn from_stream(
        env: &'a SimEnv,
        cfg: SimConfig,
        sched: &'a mut dyn Scheduler,
        stream: ArrivalStream,
    ) -> Simulation<'a> {
        Simulation::new_with_source(env, cfg, sched, ArrivalSource::Streamed(Box::new(stream)))
    }

    fn new_with_source(
        env: &'a SimEnv,
        cfg: SimConfig,
        sched: &'a mut dyn Scheduler,
        source: ArrivalSource<'a>,
    ) -> Simulation<'a> {
        let mut app_base = Vec::with_capacity(env.apps.len() + 1);
        let mut queue_keys = Vec::new();
        let mut queue_fn = Vec::new();
        for (ai, app) in env.apps.iter().enumerate() {
            app_base.push(queue_keys.len());
            for stage in 0..app.num_stages() {
                queue_keys.push(QueueKey {
                    app: AppId(ai as u32),
                    stage,
                });
                queue_fn.push(app.nodes[stage]);
            }
        }
        let nq = queue_keys.len();
        app_base.push(nq);
        let slo_ms: Vec<f64> = (0..env.apps.len())
            .map(|i| env.slo_ms(AppId(i as u32)))
            .collect();
        let base_ms: Vec<f64> = (0..env.apps.len())
            .map(|i| env.base_latency_ms(AppId(i as u32)))
            .collect();
        let mut metrics = ExperimentResult {
            scheduler: sched.name().to_string(),
            ..ExperimentResult::default()
        };
        metrics.apps = env
            .apps
            .iter()
            .enumerate()
            .map(|(i, a)| AppMetrics {
                name: a.name.to_string(),
                slo_ms: slo_ms[i],
                ..AppMetrics::default()
            })
            .collect();
        let cluster = match &cfg.cluster {
            Some(spec) => Cluster::from_spec(spec),
            None => Cluster::new(NODES, NODE_RESOURCES),
        };
        let state = ClusterState::from_cluster(&cluster, SimTime::ZERO);
        let initial_nodes = cluster.len();
        let seed = cfg.seed;
        let topology = cfg.cluster.as_ref().and_then(|s| s.topology);
        let dataplane = cfg.data_plane.map(|_| DataPlane::new(&cluster, topology));
        Simulation {
            env,
            cfg,
            sched,
            source,
            pending_arrival: None,
            next_arrival_idx: 0,
            now: SimTime::ZERO,
            events: EventQueue::new(),
            cluster,
            state,
            queues: vec![AfwQueue::new(); nq],
            predictors: vec![ArrivalPredictor::new(PREWARM_ALPHA); nq],
            queue_last_arrival: vec![None; nq],
            last_node: vec![None; nq],
            app_base,
            facts: QueueFacts {
                keys: queue_keys,
                functions: queue_fn,
                slo_ms,
                base_ms,
                intervals: vec![esg_model::Ewma::new(0.3); nq],
                jobs: vec![Vec::new(); nq],
            },
            invocations: Arena::new(),
            next_invocation: 0,
            tasks: Arena::new(),
            queue_busy_until: vec![SimTime::ZERO; nq],
            queue_hold: vec![None; nq],
            recheck: Vec::new(),
            parked: vec![false; nq],
            ready: vec![0; nq.div_ceil(64)],
            waiting_exec: vec![std::collections::VecDeque::new(); initial_nodes],
            eligible: Vec::new(),
            decided_stamp: vec![0; nq],
            views_stamp: vec![0; nq],
            round_seq: 0,
            noise: env.noise.clone(),
            rng: StdRng::seed_from_u64(seed),
            metrics,
            env_fingerprint: 0,
            observer: None,
            dataplane,
            bufs: Buffers::default(),
        }
    }

    /// Publishes one control-plane event to the run's observer (if any)
    /// and the scheduler's `on_event`. All event emission goes through
    /// here so an observed stream can never diverge from what the
    /// scheduler saw.
    fn notify(&mut self, event: &SchedulerEvent<'_>) {
        if let Some(obs) = self.observer.as_mut() {
            obs.on_event(event);
        }
        self.sched.on_event(event);
    }

    /// Pulls the arrival after the one at `previous_ms` from the source
    /// and schedules its event. The source is time-ordered, so the event
    /// is never in the past and at most one arrival is outstanding at a
    /// time. A streamed arrival is checked as it is pulled (a workload was
    /// checked before the run); one that fails ends the run with the error.
    fn pump_arrival(&mut self, previous_ms: f64) -> Result<(), SimError> {
        debug_assert!(self.pending_arrival.is_none());
        if let Some(a) = self.source.next() {
            let idx = self.next_arrival_idx;
            if let ArrivalSource::Streamed(_) = self.source {
                check_arrival(idx, &a, self.env.apps.len(), previous_ms)?;
            }
            self.next_arrival_idx += 1;
            self.pending_arrival = Some(a);
            self.events
                .push(SimTime::from_ms(a.at_ms), Event::Arrival(idx));
        }
        Ok(())
    }

    /// Runs to completion and returns the metrics.
    pub fn run(self) -> ExperimentResult {
        self.run_with_footprint().0
    }

    /// Runs to completion, also reporting the run's peak-memory proxy
    /// (arena and event-queue high-water marks). Panics on a streamed
    /// arrival that fails its check ([`run_streamed`] returns the error).
    pub fn run_with_footprint(self) -> (ExperimentResult, MemoryFootprint) {
        self.execute(None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The event loop, observed by `observer`.
    fn execute<'o: 'a>(
        mut self,
        observer: Option<&'o mut (dyn Observer + 'o)>,
    ) -> Result<(ExperimentResult, MemoryFootprint), SimError> {
        self.sched.on_run_start();
        self.observer = observer.map(|o| o as &'a mut dyn Observer);
        if let Some(obs) = self.observer.as_mut() {
            obs.begin(self.env, &self.cfg, self.sched.name());
        }
        self.env_fingerprint = self.env.fingerprint();
        // Steady-state start: the pre-warm proxy has been serving traffic.
        let keep = SimTime::from_ms(KEEP_ALIVE_MS);
        let fns: Vec<FnId> = self.env.catalog.iter().map(|(id, _)| id).collect();
        for n in self.cluster.nodes_mut() {
            for &f in &fns {
                for _ in 0..INITIAL_WARM_PER_NODE {
                    n.prewarm(f, SimTime::ZERO, keep);
                }
            }
        }
        for i in 0..self.cluster.len() {
            self.state.touch(NodeId(i as u32));
        }
        // Arrival pull loop: exactly one undelivered arrival is scheduled
        // at a time; delivering it pulls the next from the source. With a
        // materialised workload this replays the historical preloaded
        // heap bit for bit (the queue ranks arrivals by index, not
        // insertion order); with a streamed source it is what makes the
        // run constant-memory.
        self.pump_arrival(0.0)?;
        for (i, ev) in self.cfg.churn.events.iter().enumerate() {
            self.events
                .push(SimTime::from_ms(ev.at_ms()), Event::Churn(i));
        }
        while let Some((t, ev)) = self.events.pop() {
            if self.cfg.max_sim_ms > 0.0 && t.as_ms() > self.cfg.max_sim_ms {
                break;
            }
            // All work is done: no arrivals left to deliver, no live
            // invocations, no running tasks. Remaining events (pre-warm
            // timers, scripted churn past the workload) cannot create
            // work, and letting them advance the clock would inflate the
            // makespan and dilute the utilisation denominators.
            if self.pending_arrival.is_none()
                && self.invocations.is_empty()
                && self.tasks.is_empty()
            {
                break;
            }
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            match ev {
                Event::Arrival(_) => {
                    let arrival = self
                        .pending_arrival
                        .take()
                        .expect("arrival event without a pending payload");
                    self.handle_arrival(arrival);
                    self.pump_arrival(arrival.at_ms)?;
                    self.wake_controller();
                }
                Event::ControllerStep => self.controller_step(),
                Event::ExecReady(id) => self.exec_ready(id),
                Event::TransferDue(id) => self.transfer_due(id),
                Event::TaskComplete(id) => {
                    self.complete_task(id);
                    self.wake_controller();
                }
                Event::Prewarm(node, f) => self.handle_prewarm(NodeId(node), FnId(f)),
                Event::Churn(i) => {
                    self.handle_churn(i);
                    self.wake_controller();
                }
            }
        }
        let footprint = MemoryFootprint {
            peak_live_invocations: self.invocations.peak_live(),
            invocation_slots: self.invocations.slots(),
            peak_live_tasks: self.tasks.peak_live(),
            task_slots: self.tasks.slots(),
            peak_pending_events: self.events.peak_len(),
            overhead_entries: self.metrics.overhead_ms.entries().len(),
        };
        Ok((self.finish(), footprint))
    }

    /// Applies the `i`-th scripted membership change: a drain takes the
    /// node out of placement rotation (admitted work completes), a join
    /// appends a fresh cold node.
    fn handle_churn(&mut self, i: usize) {
        match self.cfg.churn.events[i].clone() {
            ChurnEvent::Drain { node, .. } => {
                if node.index() < self.cluster.len() {
                    self.cluster.node_mut(node).drain(self.now);
                    self.state.touch(node);
                    self.notify(&SchedulerEvent::Churn {
                        node,
                        joined: false,
                        now_ms: self.now.as_ms(),
                    });
                }
            }
            ChurnEvent::Join { class, .. } => {
                if let Some(dp) = self.dataplane.as_mut() {
                    dp.note_join(&class);
                }
                let joined = self.cluster.join(class, self.now);
                self.waiting_exec.push(std::collections::VecDeque::new());
                self.state.note_join(self.cluster.node(joined), self.now);
                self.notify(&SchedulerEvent::Churn {
                    node: joined,
                    joined: true,
                    now_ms: self.now.as_ms(),
                });
            }
        }
    }

    fn wake_controller(&mut self) {
        // Scans are idempotent; coalescing beyond same-instant duplicates
        // is unnecessary.
        self.events.push(self.now, Event::ControllerStep);
    }

    fn handle_arrival(&mut self, arrival: Arrival) {
        if let Some(obs) = self.observer.as_mut() {
            obs.on_arrival(&arrival);
        }
        let app_idx = arrival.app.index();
        let app = &self.env.apps[app_idx];
        let id = InvocationId(self.next_invocation);
        self.next_invocation += 1;
        let slo = SimTime::from_ms(self.facts.slo_ms[app_idx]);
        let inst = match self.bufs.instances.pop() {
            Some(mut inst) => {
                inst.reset(id, arrival.app, app, self.now, slo);
                inst
            }
            None => WorkflowInstance::new(id, arrival.app, app, self.now, slo),
        };
        let mut entries = std::mem::take(&mut self.bufs.stages);
        entries.clear();
        entries.extend(inst.entry_stages());
        let slot = self.invocations.insert(inst);
        self.metrics.arrivals += 1;
        for &stage in &entries {
            self.enqueue_job(
                QueueKey {
                    app: arrival.app,
                    stage,
                },
                Job {
                    invocation: id,
                    slot,
                    stage,
                    ready_at: self.now,
                    pred_node: None,
                },
            );
        }
        self.bufs.stages = entries;
    }

    /// The index of `key`'s queue; `None` for an unknown app or a stage
    /// past the app's last (keys from a scheduler are not trusted).
    fn queue_of(&self, key: QueueKey) -> Option<usize> {
        let a = key.app.index();
        let (&base, &end) = (self.app_base.get(a)?, self.app_base.get(a + 1)?);
        (key.stage < end - base).then_some(base + key.stage)
    }

    fn enqueue_job(&mut self, key: QueueKey, job: Job) {
        let qi = self
            .queue_of(key)
            .expect("a live invocation's stage has a queue");
        self.queues[qi].push(job);
        self.sync_ready(qi);
        self.notify(&SchedulerEvent::JobArrived {
            key,
            invocation: job.invocation,
            now_ms: self.now.as_ms(),
        });
        if let Some(prev) = self.queue_last_arrival[qi] {
            self.facts.intervals[qi].update(self.now.saturating_since(prev).as_ms());
        }
        self.queue_last_arrival[qi] = Some(self.now);
        if self.queue_hold[qi]
            .is_some_and(|(min_jobs, _)| self.queues[qi].len() >= min_jobs as usize)
        {
            self.release_hold(qi);
        }
        if self.cfg.prewarm {
            self.predictors[qi].observe(self.now.as_ms());
            let f = self.facts.functions[qi];
            let cold = self.env.catalog.get(f).cold_start_ms;
            if let Some(at) = self.predictors[qi].prewarm_at_ms(cold, self.now.as_ms()) {
                let node = self.last_node[qi].unwrap_or_else(|| home_node(key, self.cluster.len()));
                // An instant past `SimTime::MAX` loses precision in the
                // ms -> µs conversion and may round below `now`.
                let at = SimTime::from_ms(at).max(self.now);
                self.events.push(at, Event::Prewarm(node.0, f.0));
            }
        }
    }

    /// Re-derives queue `qi`'s bit in `ready` from its length and its
    /// parked flag.
    fn sync_ready(&mut self, qi: usize) {
        let bit = 1u64 << (qi % 64);
        if self.queues[qi].is_empty() || self.parked[qi] {
            self.ready[qi / 64] &= !bit;
        } else {
            self.ready[qi / 64] |= bit;
        }
    }

    /// Ends queue `qi`'s batch-formation hold early: the queue becomes
    /// decidable again as soon as the holding decision's charged overhead
    /// has elapsed. Callers wake the controller at `now` themselves.
    fn release_hold(&mut self, qi: usize) {
        if let Some((_, earliest)) = self.queue_hold[qi].take() {
            self.queue_busy_until[qi] = earliest.max(self.now);
            if earliest > self.now {
                self.events.push(earliest, Event::ControllerStep);
            }
        }
    }

    fn handle_prewarm(&mut self, node: NodeId, f: FnId) {
        let keep = SimTime::from_ms(KEEP_ALIVE_MS);
        let cold = SimTime::from_ms(self.env.catalog.get(f).cold_start_ms);
        let now = self.now;
        let n = self.cluster.node_mut(node);
        // Drained nodes take no new containers; grow the pool when no idle
        // warm slot exists (concurrency pressure), bounded by the pool cap.
        if n.online && !n.has_warm(f, now) && n.slot_count(f, now) < PREWARM_POOL_CAP {
            n.prewarm(f, now + cold, keep);
            self.state.touch_fn(node, f);
        }
    }

    /// Re-syncs the scheduler-facing state with the cluster (cheap no-op
    /// when nothing changed). Under `validate_cluster_state`, also
    /// asserts equivalence with a from-scratch snapshot — the
    /// pre-redesign per-decision rebuild.
    fn refresh_state(&mut self) {
        self.state.refresh(&self.cluster, self.now);
        if self.cfg.validate_cluster_state {
            let fresh = ClusterState::from_cluster(&self.cluster, self.now);
            assert_eq!(
                fresh.nodes(),
                self.state.nodes(),
                "incremental ClusterState diverged from the snapshot rebuild at t={} ms",
                self.now.as_ms()
            );
            assert_eq!(fresh.unit_speed(), self.state.unit_speed());
        }
    }

    /// Rebuilds queue `qi`'s scheduler-facing job views in place.
    fn refill_queue_views(&mut self, qi: usize) {
        let now = self.now;
        let invocations = &self.invocations;
        fill_job_views(&mut self.facts.jobs[qi], self.queues[qi].jobs(), now, |j| {
            let inst = invocations.get(j.slot).expect("queued job's invocation");
            debug_assert_eq!(inst.id, j.invocation, "stale job slot in a live queue");
            (inst.arrived_at, inst.deadline)
        });
    }

    /// One controller step: retry the recheck list, then run scheduling
    /// rounds until every eligible queue has been decided once. Each
    /// round presents all still-eligible queues; the default
    /// [`Scheduler::schedule_round`] decides the first and is re-invoked
    /// with the rest, so every decision observes the cluster state left
    /// by the previous dispatch (the classic one-queue-at-a-time
    /// contract). Queues are scheduled concurrently — a decision's
    /// search time delays that queue's dispatch, not the whole cluster
    /// (the paper's Fig. 9 charges Orion's search time to the affected
    /// jobs).
    fn controller_step(&mut self) {
        self.process_recheck();
        self.round_seq += 1;
        loop {
            // Only non-empty, unparked queues have their bit set; of those,
            // the busy and the already decided sit this round out.
            self.eligible.clear();
            for (w, &word) in self.ready.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let qi = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if self.decided_stamp[qi] != self.round_seq
                        && self.queue_busy_until[qi] <= self.now
                    {
                        self.eligible.push(qi);
                    }
                }
            }
            if self.cfg.validate_cluster_state {
                let scan: Vec<usize> = (0..self.facts.keys.len())
                    .filter(|&qi| {
                        self.decided_stamp[qi] != self.round_seq
                            && !self.queues[qi].is_empty()
                            && self.queue_busy_until[qi] <= self.now
                            && !self.parked[qi]
                    })
                    .collect();
                assert_eq!(
                    self.eligible,
                    scan,
                    "eligible bitset diverged from the full queue scan at t={} ms",
                    self.now.as_ms()
                );
            }
            if self.eligible.is_empty() {
                return;
            }
            self.refresh_state();
            for idx in 0..self.eligible.len() {
                let qi = self.eligible[idx];
                if self.views_stamp[qi] != self.round_seq {
                    self.refill_queue_views(qi);
                    self.views_stamp[qi] = self.round_seq;
                }
            }
            let (decisions, mut wall_ms) = {
                // Each `QueueView` borrows its queue's job-view buffer,
                // which is re-borrowed mutably next round, so the list
                // lives for this round only; its allocation is recycled.
                let mut queues: Vec<QueueView<'_>> =
                    recycle(std::mem::take(&mut self.bufs.queue_views));
                queues.extend(self.eligible.iter().map(|&qi| self.facts.view(qi)));
                let ctx = RoundCtx {
                    now_ms: self.now.as_ms(),
                    queues: &queues,
                    cluster: &self.state,
                    env: self.env,
                    env_fingerprint: self.env_fingerprint,
                    dataplane: self.dataplane.as_ref().map(|dp| dp.view()),
                };
                let t0 = Instant::now();
                let decisions = self.sched.schedule_round(&ctx);
                let wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
                self.bufs.queue_views = recycle(queues);
                (decisions, wall_ms)
            };
            let mut applied = 0usize;
            for (key, outcome) in decisions {
                let Some(qi) = self.queue_of(key) else {
                    continue; // unknown queue: ignore
                };
                // Only queues presented this round are decidable, once.
                if self.decided_stamp[qi] == self.round_seq || !self.eligible.contains(&qi) {
                    continue;
                }
                self.decided_stamp[qi] = self.round_seq;
                applied += 1;
                if self.apply_decision(qi, key, outcome, wall_ms) {
                    wall_ms = 0.0; // the round's wall time is charged once
                }
            }
            if applied == 0 {
                // The scheduler declined the round (or returned only
                // already-decided queues): nothing further to do now.
                return;
            }
        }
    }

    /// Applies one round decision: shed (admission verdict), charge
    /// simulated overhead, then dispatch (placing candidates in rank
    /// order against the live state), skip with back-off, or park on the
    /// recheck list. Returns whether the decision consumed the round's
    /// wall-clock sample (sheds and purged-empty no-ops do not).
    fn apply_decision(&mut self, qi: usize, key: QueueKey, outcome: Outcome, wall_ms: f64) -> bool {
        self.queue_hold[qi] = None;
        if let Some(reason) = outcome.shed {
            // Admission verdict, not a search: no overhead is charged and
            // no wall sample recorded (the overhead series keeps its
            // one-entry-per-dispatch-or-recheck shape).
            self.shed_queue(qi, key, reason);
            return false;
        }
        // A shed applied earlier in this round may have purged this
        // queue's jobs (parallel DAG branches share invocations); the
        // decision is moot then.
        if self.queues[qi].is_empty() {
            return false;
        }
        let overhead = decision_time(outcome.expansions);
        self.metrics.overhead_ms.record(overhead);
        self.metrics.wall_overhead_ms.record(wall_ms);
        let charged = if self.cfg.charge_overhead {
            overhead
        } else {
            SimTime::ZERO
        };

        if outcome.candidates.is_empty() {
            // Skip: re-check after the decision time, the idle back-off,
            // or an admission defer / batch-formation hold deadline
            // (rounded up, so the queue never wakes just before it),
            // whichever is furthest. A hold may also end early.
            let mut busy = self.now + charged.max(SimTime::from_ms(IDLE_BACKOFF_MS));
            if let Some(until) = outcome.defer_until_ms {
                busy = busy.max(SimTime::from_ms_ceil(until));
            }
            if let Some(hold) = outcome.hold {
                busy = busy.max(SimTime::from_ms_ceil(hold.until_ms));
                self.queue_hold[qi] = Some((hold.min_jobs, self.now + charged));
            }
            self.queue_busy_until[qi] = busy;
            self.events
                .push(self.queue_busy_until[qi], Event::ControllerStep);
            return true;
        }

        // Placement sees the state left by any earlier decision applied
        // this round (cheap no-op refresh otherwise).
        self.refresh_state();
        if let Some((config, node)) = self.place_first(qi, &outcome.candidates) {
            self.dispatch(qi, config, node, outcome.planned_batch, charged);
            self.queue_busy_until[qi] = self.now + charged;
            self.events
                .push(self.queue_busy_until[qi], Event::ControllerStep);
        } else {
            self.metrics.rechecks += 1;
            self.park(RecheckEntry {
                qi,
                candidates: outcome.candidates,
                planned_batch: outcome.planned_batch,
                rounds: 0,
                last_retry: self.now,
            });
            // Retried by process_recheck on future wakes; completions that
            // free capacity wake the controller.
            self.events.push(
                self.now + SimTime::from_ms(IDLE_BACKOFF_MS),
                Event::ControllerStep,
            );
        }
        true
    }

    /// Applies a shed verdict: drops every job of queue `qi`, kills the
    /// owning invocations, and purges their sibling-stage jobs from
    /// every other queue (a killed invocation can never complete, and a
    /// stale sibling job would panic the job-view refill). Emits one
    /// [`SchedulerEvent::QueueShed`] for the shed queue and one per
    /// purged sibling queue.
    fn shed_queue(&mut self, qi: usize, key: QueueKey, reason: ShedReason) {
        let jobs = self.queues[qi].take_all();
        self.sync_ready(qi);
        if jobs.is_empty() {
            return;
        }
        self.metrics.shed_jobs += jobs.len() as u64;
        let mut shed: Vec<InvocationId> = Vec::with_capacity(jobs.len());
        for j in &jobs {
            // Guard against slot reuse: only remove when the slot still
            // holds this job's invocation (parallel branches can queue
            // two jobs of one invocation; the first removal frees the
            // slot).
            if self
                .invocations
                .get(j.slot)
                .is_some_and(|inst| inst.id == j.invocation)
            {
                let inst = self.invocations.remove(j.slot).expect("checked live");
                self.bufs.spare_instance(inst);
                shed.push(j.invocation);
            }
        }
        self.metrics.shed_invocations += shed.len() as u64;
        // Purge siblings (parallel DAG branches) queue by queue.
        let mut purged: Vec<(usize, Vec<InvocationId>)> = Vec::new();
        for oq in 0..self.queues.len() {
            if oq == qi {
                continue;
            }
            let mut gone: Vec<InvocationId> = Vec::new();
            let invocations = &self.invocations;
            self.queues[oq].retain(|j| {
                let live = invocations
                    .get(j.slot)
                    .is_some_and(|inst| inst.id == j.invocation);
                if !live {
                    gone.push(j.invocation);
                }
                live
            });
            if !gone.is_empty() {
                self.sync_ready(oq);
                self.metrics.shed_jobs += gone.len() as u64;
                // The hold was computed for killed jobs: fresh arrivals
                // must not wait out its deadline.
                self.release_hold(oq);
                purged.push((oq, gone));
            }
        }
        // Re-sync any job views already built for this controller step.
        for &(oq, _) in &purged {
            if self.views_stamp[oq] == self.round_seq {
                self.refill_queue_views(oq);
            }
        }
        if self.views_stamp[qi] == self.round_seq {
            self.refill_queue_views(qi);
        }
        self.notify(&SchedulerEvent::QueueShed {
            key,
            invocations: &shed,
            reason,
            now_ms: self.now.as_ms(),
        });
        for (oq, gone) in &purged {
            self.notify(&SchedulerEvent::QueueShed {
                key: self.facts.keys[*oq],
                invocations: gone,
                reason,
                now_ms: self.now.as_ms(),
            });
        }
    }

    /// Asks the scheduler to place each of queue `qi`'s `candidates` in
    /// rank order against the current state; returns the first that fits
    /// with its node. The context borrows the queue facts and the state,
    /// fields disjoint from the scheduler's `&mut self`.
    fn place_first(&mut self, qi: usize, candidates: &[Config]) -> Option<(Config, NodeId)> {
        let ctx = SchedCtx {
            now_ms: self.now.as_ms(),
            queue: self.facts.view(qi),
            cluster: &self.state,
            env: self.env,
            env_fingerprint: self.env_fingerprint,
        };
        candidates
            .iter()
            .find_map(|&cand| self.sched.place(&ctx, cand).map(|node| (cand, node)))
    }

    /// Puts `entry` on the recheck list.
    fn park(&mut self, entry: RecheckEntry) {
        debug_assert!(!self.parked[entry.qi], "queue parked twice");
        self.parked[entry.qi] = true;
        self.sync_ready(entry.qi);
        self.recheck.push(entry);
    }

    /// Retries parked queues; forces minimum-configuration dispatch after
    /// `recheck_limit` rounds (§3.1: "dispatched with the minimum
    /// configuration to ensure progress").
    fn process_recheck(&mut self) {
        if self.recheck.is_empty() {
            return;
        }
        self.notify(&SchedulerEvent::RecheckTick {
            now_ms: self.now.as_ms(),
        });
        let min_gap = SimTime::from_ms(IDLE_BACKOFF_MS);
        // Swap the list with the retained spare: re-parked entries go
        // back onto `self.recheck` while this pass drains the old list.
        let mut entries = std::mem::take(&mut self.bufs.recheck);
        std::mem::swap(&mut entries, &mut self.recheck);
        for mut entry in entries.drain(..) {
            let qi = entry.qi;
            self.parked[qi] = false; // until re-parked below
            self.sync_ready(qi);
            if self.queues[qi].is_empty() {
                continue; // queue drained by a forced dispatch already
            }
            if self.now.saturating_since(entry.last_retry) < min_gap && entry.rounds > 0 {
                self.park(entry);
                continue;
            }
            entry.last_retry = self.now;
            self.refresh_state();
            self.refill_queue_views(qi);
            if let Some((config, node)) = self.place_first(qi, &entry.candidates) {
                self.dispatch(qi, config, node, entry.planned_batch, SimTime::ZERO);
                continue;
            }
            entry.rounds += 1;
            if entry.rounds >= RECHECK_LIMIT {
                // Forced minimum configuration on the freest node.
                if let Some(node) = self.state.most_free(Config::MIN.resources()) {
                    self.metrics.forced_min_dispatches += 1;
                    self.dispatch(qi, Config::MIN, node, None, SimTime::ZERO);
                    continue;
                }
                // Not even (1,1,1) fits; keep parked at the cap.
                entry.rounds = RECHECK_LIMIT;
            }
            self.park(entry);
        }
        self.bufs.recheck = entries;
    }

    fn dispatch(
        &mut self,
        qi: usize,
        config: Config,
        node: NodeId,
        planned_batch: Option<u32>,
        delay: SimTime,
    ) {
        let key = self.facts.keys[qi];
        let avail = self.queues[qi].len() as u32;
        debug_assert!(avail > 0, "dispatch on empty queue {key:?}");
        if planned_batch.is_some_and(|b| b > avail) {
            self.metrics.config_misses += 1;
        }
        let config = config.clamp_batch(avail);
        let f = self.facts.functions[qi];
        let spec = self.env.catalog.get(f);
        let mut jobs = self.bufs.jobs.pop().unwrap_or_default();
        self.queues[qi].take_into(config.batch as usize, &mut jobs);
        self.sync_ready(qi);

        let start = self.now + delay;
        let was_warm = self.cluster.node_mut(node).claim_warm(f, start);
        let committed = if was_warm {
            let ok = self.cluster.node_mut(node).commit(config.resources());
            assert!(ok, "placement promised uncommitted capacity on node {node}");
            true
        } else {
            // Cold task: the container provisions for seconds; capacity is
            // claimed when it is actually ready to execute.
            false
        };
        self.state.touch_fn(node, f);
        let cold_ms = if was_warm { 0.0 } else { spec.cold_start_ms };
        if was_warm {
            self.metrics.warm_starts += 1;
        } else {
            self.metrics.cold_starts += 1;
        }

        // Data transfer: one input per job; local when the producing node is
        // this node. Entry-stage inputs come from the gateway (remote).
        // Remote hand-offs respect per-class topology: the slower of the
        // two endpoints' links scales the cost (§3.4; FaaSTube's
        // cross-node-transfer argument).
        let dst_link = self.cluster.node(node).class.link_scale;
        let mut rate_ms = 0.0;
        let mut base_ms = 0.0f64;
        // Data-plane aggregates (one aggregated flow per dispatched
        // batch): same-node MB, remote/gateway MB, and the distinct
        // remote producers with their same-edge job counts.
        let mut local_jobs = 0u32;
        let mut remote_jobs = 0u32;
        // Jobs whose producer sits in a different server than `node`
        // (ToR traffic; 0 on flat clusters and for gateway inputs).
        let mut cross_jobs = 0u32;
        let mut src_counts = std::mem::take(&mut self.bufs.src_counts);
        src_counts.clear();
        for j in &jobs {
            let local = j.pred_node == Some(node);
            if local {
                self.metrics.local_transfers += 1;
                rate_ms += self.env.transfer.local_ms_per_mb * spec.input_mb;
                base_ms = base_ms.max(self.env.transfer.local_base_ms);
                local_jobs += 1;
            } else {
                let link = match j.pred_node {
                    Some(src) if src.index() < self.cluster.len() => {
                        dst_link.max(self.cluster.node(src).class.link_scale)
                    }
                    _ => dst_link, // gateway: only the destination link counts
                };
                self.metrics.remote_transfers += 1;
                rate_ms += self.env.transfer.remote_ms_per_mb * spec.input_mb * link;
                base_ms = base_ms.max(self.env.transfer.remote_base_ms * link);
                remote_jobs += 1;
                if let Some(dp) = &self.dataplane {
                    if let Some(src) = j.pred_node.filter(|s| s.index() < self.cluster.len()) {
                        match src_counts.iter_mut().find(|(s, _)| *s == src.index()) {
                            Some((_, c)) => *c += 1,
                            None => src_counts.push((src.index(), 1)),
                        }
                        if dp.crosses_servers(src, node) {
                            cross_jobs += 1;
                        }
                    }
                }
            }
        }
        let transfer_ms = base_ms + rate_ms;
        // Profiles are measured on the baseline class; this node runs at
        // its class's latency scale factor.
        let node_speed = self.cluster.node(node).class.speed;
        let exec_ms = self
            .noise
            .noisy_ms(latency_ms(spec, config) * node_speed, &mut self.rng);

        self.metrics.dispatches += 1;
        if let Some(oldest) = jobs.first() {
            self.metrics
                .batch_wait_ms
                .add(self.now.saturating_since(oldest.ready_at).as_ms());
        }
        for j in &jobs {
            self.metrics
                .phase_queue_wait_ms
                .add(self.now.saturating_since(j.ready_at).as_ms());
        }
        self.metrics.batch_size.add(config.batch as f64);
        self.last_node[qi] = Some(node);

        let mut dispatched = std::mem::take(&mut self.bufs.dispatched);
        dispatched.clear();
        dispatched.extend(jobs.iter().map(|j| j.invocation));
        self.notify(&SchedulerEvent::Dispatched {
            key,
            invocations: &dispatched,
            config,
            node,
            now_ms: self.now.as_ms(),
        });
        self.bufs.dispatched = dispatched;

        // The task's arena slot is its event id: a completed task's slot
        // (and id) is recycled, which is safe because each id has exactly
        // one `ExecReady` and one `TaskComplete` in flight and both are
        // consumed before the slot is freed.
        let id = self.tasks.insert(RunningTask {
            key,
            config,
            node,
            jobs,
            was_warm,
            exec_ms,
            init_ready_at: SimTime::ZERO,
            committed,
        }) as u64;
        // Init phase (cold start + transfer) holds no compute resources: a
        // container being provisioned has not attached its vCPUs/MIG slice
        // yet. Resources attach at ExecReady.
        if let Some(dp) = self.dataplane.as_mut() {
            // Contended data plane: the batch's movement becomes one
            // aggregated flow through the endpoint bandwidth pools. The
            // uncontended plan lands at the *same instant* the scalar
            // `ExecReady` would (`scalar_total_ms` is the identical f64
            // expression), under the same class-2 event rank.
            let batchable = spec.input_mb <= BATCH_MAX_MB;
            let batched_small = if batchable {
                let edges = src_counts.len() as u32
                    + u32::from(local_jobs > 0)
                    + u32::from(remote_jobs > src_counts.iter().map(|&(_, c)| c).sum::<u32>());
                (local_jobs + remote_jobs).saturating_sub(edges.max(1))
            } else {
                0
            };
            let mb = spec.input_mb;
            let remote_srcs = &mut self.bufs.remote_srcs;
            remote_srcs.clear();
            remote_srcs.extend(src_counts.iter().map(|&(s, _)| s));
            let req = TransferReq {
                task: id,
                dst: node.index(),
                remote_srcs,
                remote_mb: remote_jobs as f64 * mb,
                local_mb: local_jobs as f64 * mb,
                base_ms: cold_ms + base_ms,
                work_ms: rate_ms,
                scalar_total_ms: cold_ms + transfer_ms,
                batched_small,
                cross_mb: cross_jobs as f64 * mb,
            };
            let total_mb = req.remote_mb + req.local_mb;
            match dp.begin(req, start) {
                Admission::Active { finish } => {
                    // A re-planned flow's push moves its pending finish.
                    self.events.push(finish, Event::TransferDue(id));
                    for &(t, at) in dp.plans() {
                        self.events.push(at, Event::TransferDue(t));
                    }
                    self.notify(&SchedulerEvent::TransferStarted {
                        node,
                        mb: total_mb,
                        now_ms: self.now.as_ms(),
                    });
                }
                Admission::Queued => {
                    self.notify(&SchedulerEvent::TransferQueued {
                        node,
                        mb: total_mb,
                        now_ms: self.now.as_ms(),
                    });
                }
            }
        } else {
            self.metrics.phase_init_ms.add(cold_ms + transfer_ms);
            let ready = start + SimTime::from_ms(cold_ms + transfer_ms);
            self.events.push(ready, Event::ExecReady(id));
        }
        self.bufs.src_counts = src_counts;
    }

    /// A data-plane transfer's planned finish fired (the queue holds only
    /// each flow's latest plan): complete the flow, re-plan squeezed
    /// neighbours, activate staged flows on the freed buffer space, and
    /// run the task's exec-ready path at this very instant — exactly
    /// where the scalar model's `ExecReady` would have run.
    fn transfer_due(&mut self, id: u64) {
        let dp = self
            .dataplane
            .as_mut()
            .expect("transfers need the data plane");
        let now = self.now;
        let out = dp.on_due(id, now);
        // Notifications do not touch the event queue, so pushing every
        // due event first keeps their order and sequence numbers.
        for &(t, at) in dp.plans() {
            self.events.push(at, Event::TransferDue(t));
        }
        let started = dp.activated().len();
        self.metrics.phase_init_ms.add(out.elapsed_ms);
        self.notify(&SchedulerEvent::TransferCompleted {
            node: NodeId(out.node as u32),
            mb: out.mb,
            now_ms: now.as_ms(),
        });
        for k in 0..started {
            let act = self.dataplane.as_ref().expect("data plane on").activated()[k];
            self.notify(&SchedulerEvent::TransferStarted {
                node: NodeId(act.node as u32),
                mb: act.mb,
                now_ms: now.as_ms(),
            });
        }
        self.exec_ready(id);
    }

    /// A task's init phase finished: attach resources and run, or queue on
    /// the node until capacity frees.
    fn exec_ready(&mut self, id: u64) {
        let (node, demand, committed) = {
            let t = self.tasks.get_mut(id as u32).expect("live task");
            t.init_ready_at = self.now;
            (t.node, t.config.resources(), t.committed)
        };
        if self.try_attach(id, node, demand, committed) {
            self.begin_exec(id);
        } else {
            self.waiting_exec[node.index()].push_back(id);
        }
    }

    /// Attaches a task's resources: uncommitted (cold) tasks must first win
    /// a commitment; physical attachment then always fits (used ≤
    /// committed is an invariant).
    fn try_attach(&mut self, id: u64, node: NodeId, demand: Resources, committed: bool) -> bool {
        let n = self.cluster.node_mut(node);
        if !committed {
            if !n.commit(demand) {
                return false;
            }
            self.tasks.get_mut(id as u32).expect("live task").committed = true;
            self.state.touch_resources(node);
        }
        let ok = self.cluster.node_mut(node).allocate(demand, self.now);
        assert!(
            ok,
            "physical capacity must cover commitments on node {node}"
        );
        true
    }

    fn begin_exec(&mut self, id: u64) {
        let (key, config, exec_ms, price_scale) = {
            let t = self.tasks.get(id as u32).expect("live task");
            self.metrics
                .phase_exec_queue_ms
                .add(self.now.saturating_since(t.init_ready_at).as_ms());
            self.metrics.phase_exec_ms.add(t.exec_ms);
            (
                t.key,
                t.config,
                t.exec_ms,
                self.cluster.node(t.node).class.price_scale,
            )
        };
        // Billing covers the span resources are actually attached, at the
        // hosting class's per-flavor price.
        let cost = self.env.price.task_cost_cents(config, exec_ms) * price_scale;
        self.metrics.apps[key.app.index()].cost_cents += cost;
        self.events.push(
            self.now + SimTime::from_ms(exec_ms),
            Event::TaskComplete(id),
        );
    }

    fn complete_task(&mut self, id: u64) {
        let task = self.tasks.remove(id as u32).expect("unknown task");
        let keep = SimTime::from_ms(KEEP_ALIVE_MS);
        let f = self.env.apps[task.key.app.index()].nodes[task.key.stage];
        {
            let n = self.cluster.node_mut(task.node);
            n.release(task.config.resources(), self.now);
            n.uncommit(task.config.resources());
            n.return_slot(f, self.now, keep, task.was_warm);
        }
        self.state.touch_fn(task.node, f);
        // Freed capacity may admit init-complete tasks waiting on this node.
        self.drain_waiting(task.node);
        self.notify(&SchedulerEvent::TaskCompleted {
            key: task.key,
            node: task.node,
            config: task.config,
            now_ms: self.now.as_ms(),
        });
        let app_spec = &self.env.apps[task.key.app.index()];
        let mut ready = std::mem::take(&mut self.bufs.stages);
        for job in &task.jobs {
            // The invocation may have been shed while this task ran; its
            // slot may even hold a newer invocation by now — match on id.
            let Some(inst) = self
                .invocations
                .get_mut(job.slot)
                .filter(|inst| inst.id == job.invocation)
            else {
                continue;
            };
            ready.clear();
            inst.complete_stage(job.stage, task.node, app_spec, &mut ready);
            if inst.is_complete() {
                // A complete invocation made no stage ready.
                let inst = self.invocations.remove(job.slot).expect("present");
                // Invocations inside the warm-up window are excluded from
                // the reported metrics (§4-style steady-state measurement).
                if inst.arrived_at.as_ms() >= self.cfg.warmup_exclude_ms {
                    let m = &mut self.metrics.apps[task.key.app.index()];
                    m.completed += 1;
                    if self.now <= inst.deadline {
                        m.slo_hits += 1;
                    }
                    m.latencies_ms
                        .push(self.now.saturating_since(inst.arrived_at).as_ms());
                }
                self.bufs.spare_instance(inst);
            }
            for &stage in &ready {
                let pred_node = self
                    .invocations
                    .get(job.slot)
                    .and_then(|inst| inst.pred_node(stage, app_spec));
                self.enqueue_job(
                    QueueKey {
                        app: task.key.app,
                        stage,
                    },
                    Job {
                        invocation: job.invocation,
                        slot: job.slot,
                        stage,
                        ready_at: self.now,
                        pred_node,
                    },
                );
            }
        }
        self.bufs.stages = ready;
        if self.bufs.jobs.len() < SPARE_CAP {
            let mut jobs = task.jobs;
            jobs.clear();
            self.bufs.jobs.push(jobs);
        }
    }

    /// Starts as many waiting tasks on `node` as now fit, in FIFO order
    /// (head-of-line blocking preserved: a big task is not overtaken).
    fn drain_waiting(&mut self, node: NodeId) {
        while let Some(&id) = self.waiting_exec[node.index()].front() {
            let (demand, committed) = {
                let t = self.tasks.get(id as u32).expect("live task");
                (t.config.resources(), t.committed)
            };
            if self.try_attach(id, node, demand, committed) {
                self.waiting_exec[node.index()].pop_front();
                self.begin_exec(id);
            } else {
                break;
            }
        }
    }

    fn finish(mut self) -> ExperimentResult {
        let mut cpu_area = 0.0;
        let mut gpu_area = 0.0;
        let mut cpu_cap_area = 0.0;
        let mut gpu_cap_area = 0.0;
        let now = self.now;
        for n in self.cluster.nodes_mut() {
            let (c, g) = n.finish(now);
            cpu_area += c;
            gpu_area += g;
            let (cc, gc) = n.capacity_areas();
            cpu_cap_area += cc;
            gpu_cap_area += gc;
            self.metrics.nodes.push(NodeSummary {
                class: n.class.name.clone(),
                total: n.total,
                peak_used: n.peak_used(),
                online: n.online,
            });
        }
        // Capacity-time denominators: on a static cluster this equals
        // `total × span`; on a churning one, joins only count from their
        // join time.
        self.metrics.vcpu_utilisation = if cpu_cap_area > 0.0 {
            cpu_area / cpu_cap_area
        } else {
            0.0
        };
        self.metrics.vgpu_utilisation = if gpu_cap_area > 0.0 {
            gpu_area / gpu_cap_area
        } else {
            0.0
        };
        self.metrics.makespan_ms = self.now.as_ms();
        if let Some(dp) = &self.dataplane {
            self.metrics.transfers = dp.summary();
        }
        self.metrics.scheduler_stats = self.sched.stats();
        self.metrics
    }
}

/// A reference scheduler that always proposes the minimum configuration and
/// places it on the freest node. Useful as a floor in tests and examples.
#[derive(Debug, Default)]
pub struct MinScheduler;

impl Scheduler for MinScheduler {
    fn name(&self) -> &'static str {
        "min"
    }

    fn capabilities(&self) -> crate::sched::Capabilities {
        crate::sched::Capabilities {
            gpu_sharing: true,
            inter_function_relation: false,
            adaptive: false,
            data_locality: false,
            pre_warming: true,
        }
    }

    fn schedule(&mut self, _ctx: &SchedCtx<'_>) -> Outcome {
        Outcome::single(Config::MIN, 1)
    }

    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
        ctx.cluster.most_free(config.resources())
    }
}

/// Runs `sched` over `workload` in `env` under `cfg`, labelling the
/// result `scenario`: the checked way to start a run. `observer`, when
/// given, sees the run's header, each arrival and each control-plane
/// event (see [`Observer`]); it cannot change a decision.
///
/// Before the event loop starts, the configuration
/// ([`SimConfig::validate`]), the environment's applications and transfer
/// tariffs, every arrival (time range, order and application) and the
/// knobs of the scheduler's round-policy stack are checked; a violation
/// is a typed [`SimError`], not a panic mid-run.
pub fn run_simulation(
    env: &SimEnv,
    cfg: SimConfig,
    sched: &mut dyn Scheduler,
    workload: &Workload,
    scenario: &str,
    observer: Option<&mut dyn Observer>,
) -> Result<ExperimentResult, SimError> {
    check_run(env, &cfg, &workload.arrivals, sched)?;
    let (mut result, _) = Simulation::new(env, cfg, sched, workload).execute(observer)?;
    result.scenario = scenario.to_string();
    Ok(result)
}

/// [`run_simulation`] pulling arrivals lazily from `stream`, with the
/// same checks; each arrival is checked as it is pulled, and the first
/// that fails ends the run with the error the materialised form of the
/// stream would get. Bit-identical to `run_simulation` over the
/// materialised form of the same stream; memory stays constant in the
/// arrival count. Unbounded streams need `cfg.max_sim_ms > 0` to
/// terminate.
pub fn run_streamed(
    env: &SimEnv,
    cfg: SimConfig,
    sched: &mut dyn Scheduler,
    stream: ArrivalStream,
    scenario: &str,
    observer: Option<&mut dyn Observer>,
) -> Result<ExperimentResult, SimError> {
    check_run(env, &cfg, &[], sched)?;
    let (mut result, _) = Simulation::from_stream(env, cfg, sched, stream).execute(observer)?;
    result.scenario = scenario.to_string();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_model::WorkloadClass;
    use esg_workload::WorkloadGen;
    use std::collections::HashMap;

    fn small_workload(n: usize) -> Workload {
        WorkloadGen::new(WorkloadClass::Light, (0..4u32).map(AppId).collect(), 7).generate(n)
    }

    #[test]
    fn min_scheduler_completes_everything() {
        let env = SimEnv::standard(SloClass::Relaxed);
        let w = small_workload(50);
        let mut s = MinScheduler;
        let r = run_simulation(&env, SimConfig::default(), &mut s, &w, "test", None)
            .expect("valid run");
        assert_eq!(r.arrivals, 50);
        assert_eq!(r.total_completed(), 50);
        assert!(r.dispatches >= 50 * 3, "each stage needs a task");
        assert!(r.total_cost_cents() > 0.0);
        assert!(r.makespan_ms > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let env = SimEnv::standard(SloClass::Moderate);
        let w = small_workload(30);
        let run = || {
            let mut s = MinScheduler;
            run_simulation(&env, SimConfig::default(), &mut s, &w, "det", None).expect("valid run")
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_completed(), b.total_completed());
        assert_eq!(a.dispatches, b.dispatches);
        assert!((a.total_cost_cents() - b.total_cost_cents()).abs() < 1e-9);
        for (x, y) in a.apps.iter().zip(&b.apps) {
            assert_eq!(x.latencies_ms, y.latencies_ms);
        }
    }

    #[test]
    fn validated_state_run_is_bit_identical_to_unvalidated() {
        // The oracle is read-only: turning it on must not perturb the run
        // (and the run must survive every per-refresh equivalence
        // assertion and every round's check of the eligible list against
        // a full queue scan, including across churn).
        use esg_model::{ChurnPlan, NodeClass, NodeId};
        let env = SimEnv::standard(SloClass::Moderate);
        let w = small_workload(30);
        let run = |validate: bool| {
            let mut s = MinScheduler;
            run_simulation(
                &env,
                SimConfig {
                    churn: ChurnPlan::none()
                        .drain(100.0, NodeId(1))
                        .join(300.0, NodeClass::t4()),
                    validate_cluster_state: validate,
                    ..SimConfig::default()
                },
                &mut s,
                &w,
                "oracle",
                None,
            )
            .expect("valid run")
        };
        assert_eq!(run(true).canonical(), run(false).canonical());
    }

    #[test]
    fn slo_hits_scale_with_class() {
        // The same workload under relaxed SLO should hit at least as often
        // as under strict.
        let w = small_workload(40);
        let hit = |slo| {
            let env = SimEnv::standard(slo);
            let mut s = MinScheduler;
            run_simulation(&env, SimConfig::default(), &mut s, &w, "x", None)
                .expect("valid run")
                .overall_hit_rate()
        };
        assert!(hit(SloClass::Relaxed) >= hit(SloClass::Strict));
    }

    #[test]
    fn cold_starts_then_warm_starts() {
        let env = SimEnv::standard(SloClass::Relaxed);
        let w = small_workload(60);
        let mut s = MinScheduler;
        let r = run_simulation(&env, SimConfig::default(), &mut s, &w, "warm", None)
            .expect("valid run");
        assert!(r.cold_starts > 0);
        // MinScheduler scatters tasks over the freest nodes, so warm reuse
        // is limited — but keep-alive must still produce some warm starts.
        assert!(
            r.warm_starts > 0,
            "keep-alive should give some warm starts: warm={} cold={}",
            r.warm_starts,
            r.cold_starts
        );
        assert_eq!(r.warm_starts + r.cold_starts, r.dispatches);
    }

    #[test]
    fn prewarming_reduces_cold_starts() {
        let env = SimEnv::standard(SloClass::Relaxed);
        let w = small_workload(80);
        let mut on = MinScheduler;
        let mut off = MinScheduler;
        let r_on =
            run_simulation(&env, SimConfig::default(), &mut on, &w, "p", None).expect("valid run");
        let r_off = run_simulation(
            &env,
            SimConfig {
                prewarm: false,
                ..SimConfig::default()
            },
            &mut off,
            &w,
            "np",
            None,
        )
        .expect("valid run");
        assert!(
            r_on.cold_starts <= r_off.cold_starts,
            "prewarm {} vs no-prewarm {}",
            r_on.cold_starts,
            r_off.cold_starts
        );
    }

    #[test]
    fn overhead_recorded() {
        let env = SimEnv::standard(SloClass::Moderate);
        let w = small_workload(20);
        let mut s = MinScheduler;
        let r =
            run_simulation(&env, SimConfig::default(), &mut s, &w, "o", None).expect("valid run");
        assert_eq!(r.overhead_ms.len() as u64, r.dispatches + r.rechecks);
        // MinScheduler searches nothing: every decision costs the base.
        let decisions = r.overhead_ms.len() as u64;
        assert_eq!(r.overhead_ms.entries(), &[(200, decisions)]);
        assert_eq!(r.wall_overhead_ms.len(), r.overhead_ms.len());
    }

    #[test]
    fn utilisation_bounded() {
        let env = SimEnv::standard(SloClass::Moderate);
        let w = small_workload(40);
        let mut s = MinScheduler;
        let r =
            run_simulation(&env, SimConfig::default(), &mut s, &w, "u", None).expect("valid run");
        assert!(r.vcpu_utilisation >= 0.0 && r.vcpu_utilisation <= 1.0);
        assert!(r.vgpu_utilisation >= 0.0 && r.vgpu_utilisation <= 1.0);
        assert!(r.vgpu_utilisation > 0.0);
    }

    #[test]
    fn hetero_cluster_from_spec_slows_and_reprices_execution() {
        use esg_model::{ClusterSpec, NodeClass};
        let env = SimEnv::standard(SloClass::Relaxed);
        let w = small_workload(30);
        let run = |spec: ClusterSpec| {
            let mut s = MinScheduler;
            run_simulation(
                &env,
                SimConfig {
                    cluster: Some(spec),
                    ..SimConfig::default()
                },
                &mut s,
                &w,
                "spec",
                None,
            )
            .expect("valid run")
        };
        // 16 "T4-speed" nodes at paper capacity vs the paper baseline:
        // identical placement decisions, scaled latency and price.
        let slow_class = NodeClass::a100().with_speed(2.0).named("a100-half");
        let base = run(ClusterSpec::paper());
        let slow = run(ClusterSpec::new("slow").with(slow_class, 16));
        assert_eq!(base.total_completed(), 30);
        assert_eq!(slow.total_completed(), 30);
        let mean = |r: &ExperimentResult| {
            r.apps.iter().map(AppMetrics::mean_latency_ms).sum::<f64>() / r.apps.len() as f64
        };
        assert!(
            mean(&slow) > 1.3 * mean(&base),
            "slow {} vs base {}",
            mean(&slow),
            mean(&base)
        );
        // Same spec, cheaper flavor: identical latency, scaled cost.
        let cheap_class = NodeClass::a100().named("a100-cheap");
        let mut cheap_class = cheap_class;
        cheap_class.price_scale = 0.5;
        let cheap = run(ClusterSpec::new("cheap").with(cheap_class, 16));
        assert!((cheap.total_cost_cents() - 0.5 * base.total_cost_cents()).abs() < 1e-6);
        // Node summaries record the classes.
        assert_eq!(base.nodes.len(), 16);
        assert!(base.nodes.iter().all(|n| n.class == "a100"));
        assert!(base.nodes.iter().all(|n| n.total.contains(n.peak_used)));
    }

    #[test]
    fn drain_stops_new_placements_but_completes_admitted_work() {
        use esg_model::{ChurnPlan, NodeId};
        let env = SimEnv::standard(SloClass::Relaxed);
        let w = small_workload(40);
        // Drain half the cluster early: everything must still complete on
        // the remaining nodes.
        let mut plan = ChurnPlan::none();
        for i in 0..8u32 {
            plan = plan.drain(50.0, NodeId(i));
        }
        let mut s = MinScheduler;
        let r = run_simulation(
            &env,
            SimConfig {
                churn: plan,
                ..SimConfig::default()
            },
            &mut s,
            &w,
            "drain",
            None,
        )
        .expect("valid run");
        assert_eq!(r.total_completed(), 40);
        assert_eq!(r.nodes.iter().filter(|n| !n.online).count(), 8);
    }

    #[test]
    fn join_mid_run_adds_capacity_and_summary() {
        use esg_model::{ChurnPlan, NodeClass};
        let env = SimEnv::standard(SloClass::Relaxed);
        let w = small_workload(30);
        let plan = ChurnPlan::none()
            .join(100.0, NodeClass::a100().named("late-a100"))
            .join(200.0, NodeClass::t4());
        let mut s = MinScheduler;
        let r = run_simulation(
            &env,
            SimConfig {
                churn: plan,
                ..SimConfig::default()
            },
            &mut s,
            &w,
            "join",
            None,
        )
        .expect("valid run");
        assert_eq!(r.total_completed(), 30);
        assert_eq!(r.nodes.len(), 18);
        assert_eq!(r.nodes[16].class, "late-a100");
        assert_eq!(r.nodes[17].class, "t4");
        assert!(r.vgpu_utilisation > 0.0 && r.vgpu_utilisation <= 1.0);
    }

    #[test]
    fn trailing_churn_does_not_inflate_makespan_or_dilute_utilisation() {
        use esg_model::{ChurnPlan, NodeClass, NodeId};
        let env = SimEnv::standard(SloClass::Relaxed);
        let w = small_workload(20);
        let base = {
            let mut s = MinScheduler;
            run_simulation(&env, SimConfig::default(), &mut s, &w, "b", None).expect("valid run")
        };
        // Churn scripted long after the last completion must not advance
        // the simulation clock.
        let mut s = MinScheduler;
        let late = run_simulation(
            &env,
            SimConfig {
                churn: ChurnPlan::none()
                    .drain(10_000_000.0, NodeId(0))
                    .join(20_000_000.0, NodeClass::t4()),
                ..SimConfig::default()
            },
            &mut s,
            &w,
            "late-churn",
            None,
        )
        .expect("valid run");
        assert_eq!(late.total_completed(), 20);
        assert!(
            late.makespan_ms <= base.makespan_ms + 1.0,
            "trailing churn inflated makespan: {} vs {}",
            late.makespan_ms,
            base.makespan_ms
        );
        assert!((late.vgpu_utilisation - base.vgpu_utilisation).abs() < 1e-9);
    }

    #[test]
    fn churn_runs_are_deterministic() {
        use esg_model::{ChurnPlan, NodeClass, NodeId};
        let env = SimEnv::standard(SloClass::Moderate);
        let w = small_workload(25);
        let run = || {
            let mut s = MinScheduler;
            run_simulation(
                &env,
                SimConfig {
                    cluster: Some(esg_model::ClusterSpec::mixed_mig()),
                    churn: ChurnPlan::rolling_replace(80.0, 120.0, NodeId(2), NodeClass::v100()),
                    ..SimConfig::default()
                },
                &mut s,
                &w,
                "churn-det",
                None,
            )
            .expect("valid run")
        };
        let a = run();
        let b = run();
        assert_eq!(format!("{:?}", a.nodes), format!("{:?}", b.nodes));
        assert_eq!(a.dispatches, b.dispatches);
        for (x, y) in a.apps.iter().zip(&b.apps) {
            assert_eq!(x.latencies_ms, y.latencies_ms);
        }
    }

    #[test]
    fn max_sim_cap_stops_early() {
        let env = SimEnv::standard(SloClass::Moderate);
        let w = small_workload(100);
        let mut s = MinScheduler;
        let r = run_simulation(
            &env,
            SimConfig {
                max_sim_ms: 500.0,
                ..SimConfig::default()
            },
            &mut s,
            &w,
            "cap",
            None,
        )
        .expect("valid run");
        assert!(r.total_completed() < 100);
        assert!(r.makespan_ms <= 500.0 + 1.0);
    }

    /// A cross-queue scheduler exercising the multi-decision round path:
    /// it decides *every* eligible queue in one `schedule_round` call
    /// (shortest-queue-first), rather than relying on the default
    /// one-at-a-time replay.
    struct GreedyRoundScheduler;

    impl Scheduler for GreedyRoundScheduler {
        fn name(&self) -> &'static str {
            "greedy-round"
        }

        fn capabilities(&self) -> crate::sched::Capabilities {
            MinScheduler.capabilities()
        }

        fn schedule(&mut self, _ctx: &SchedCtx<'_>) -> Outcome {
            Outcome::single(Config::MIN, 1)
        }

        fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
            ctx.cluster.most_free(config.resources())
        }

        fn schedule_round(&mut self, ctx: &RoundCtx<'_>) -> Vec<(QueueKey, Outcome)> {
            let mut order: Vec<usize> = (0..ctx.queues.len()).collect();
            order.sort_by_key(|&i| (ctx.queues[i].jobs.len(), i));
            order
                .into_iter()
                .map(|i| (ctx.queues[i].key, self.schedule(&ctx.sched_ctx(i))))
                .collect()
        }
    }

    #[test]
    fn cross_queue_rounds_complete_all_work() {
        let env = SimEnv::standard(SloClass::Relaxed);
        let w = small_workload(40);
        let mut s = GreedyRoundScheduler;
        let r = run_simulation(
            &env,
            SimConfig {
                validate_cluster_state: true,
                ..SimConfig::default()
            },
            &mut s,
            &w,
            "round",
            None,
        )
        .expect("valid run");
        assert_eq!(r.total_completed(), 40);
        assert_eq!(r.warm_starts + r.cold_starts, r.dispatches);
        assert_eq!(r.overhead_ms.len() as u64, r.dispatches + r.rechecks);
    }

    /// [`GreedyRoundScheduler`] that, when `bogus`, opens every round by
    /// shedding keys that name no queue: each app's one-past-last stage
    /// and an app past the last. Dense queue numbering puts `(a,
    /// num_stages(a))` right where app `a + 1`'s stage 0 lives, so an
    /// unchecked lookup would shed that queue's jobs.
    struct BogusKeys {
        bogus: bool,
    }

    impl Scheduler for BogusKeys {
        fn name(&self) -> &'static str {
            "bogus-keys"
        }

        fn capabilities(&self) -> crate::sched::Capabilities {
            MinScheduler.capabilities()
        }

        fn schedule(&mut self, ctx: &SchedCtx<'_>) -> Outcome {
            GreedyRoundScheduler.schedule(ctx)
        }

        fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
            GreedyRoundScheduler.place(ctx, config)
        }

        fn schedule_round(&mut self, ctx: &RoundCtx<'_>) -> Vec<(QueueKey, Outcome)> {
            let mut decisions = Vec::new();
            if self.bogus {
                let shed = || Outcome::shed(ShedReason::Overload);
                for (a, app) in ctx.env.apps.iter().enumerate() {
                    let key = QueueKey {
                        app: AppId(a as u32),
                        stage: app.num_stages(),
                    };
                    decisions.push((key, shed()));
                }
                let app = AppId(ctx.env.apps.len() as u32);
                decisions.push((QueueKey { app, stage: 0 }, shed()));
            }
            decisions.extend(GreedyRoundScheduler.schedule_round(ctx));
            decisions
        }
    }

    #[test]
    fn keys_naming_no_queue_are_ignored() {
        let env = SimEnv::standard(SloClass::Relaxed);
        let w = small_workload(40);
        let run = |bogus: bool| {
            let mut s = BogusKeys { bogus };
            run_simulation(&env, SimConfig::default(), &mut s, &w, "keys", None).expect("valid run")
        };
        let clean = run(false);
        assert_eq!(clean.total_completed(), 40);
        assert_eq!(run(true).canonical(), clean.canonical());
    }

    /// Defers each queue once to an off-grid deadline (1.0004 ms out),
    /// then dispatches; panics if a queue is re-decided before its
    /// deadline.
    #[derive(Default)]
    struct OffGridDefer {
        due: HashMap<QueueKey, f64>,
        redecided: usize,
    }

    impl Scheduler for OffGridDefer {
        fn name(&self) -> &'static str {
            "off-grid-defer"
        }

        fn capabilities(&self) -> crate::sched::Capabilities {
            MinScheduler.capabilities()
        }

        fn schedule(&mut self, ctx: &SchedCtx<'_>) -> Outcome {
            if let Some(due) = self.due.remove(&ctx.queue.key) {
                assert!(
                    ctx.now_ms >= due,
                    "{:?} re-decided at {} ms, before its {due} ms deadline",
                    ctx.queue.key,
                    ctx.now_ms
                );
                self.redecided += 1;
                return Outcome::single(Config::MIN, 1);
            }
            let due = ctx.now_ms + 1.0004;
            self.due.insert(ctx.queue.key, due);
            Outcome::defer(due)
        }

        fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
            ctx.cluster.most_free(config.resources())
        }
    }

    #[test]
    fn defer_deadlines_round_up_to_the_microsecond_grid() {
        let env = SimEnv::standard(SloClass::Relaxed);
        let w = small_workload(20);
        let mut s = OffGridDefer::default();
        let r = run_simulation(&env, SimConfig::default(), &mut s, &w, "defer", None)
            .expect("valid run");
        assert_eq!(r.total_completed(), 20);
        assert!(s.redecided >= 20, "every entry queue defers at least once");
    }
}
