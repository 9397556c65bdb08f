//! Event-sourced trace record/replay: serialise a run's full
//! [`EventRecord`] stream to a versioned on-disk format, load it back,
//! and re-drive any scheduler against the recorded arrival/churn stream.
//!
//! Three layers:
//!
//! * [`TraceRecorder`] — the recording [`Observer`]. Passed to a run, it
//!   takes the run's environment header (SLO class, configuration grid,
//!   transfer tariffs, full [`SimConfig`]) from the run itself, captures
//!   every arrival and control-plane event (dispatches, completions,
//!   churn, sheds), and [`finish`](TraceRecorder::finish) writes one
//!   compact JSON document via the vendored `serde_json`.
//! * [`TraceFile`] — the loaded, validated form of that document, with
//!   typed [`TraceError`]s for anything short of a well-formed
//!   current-version trace (truncated file, corrupt JSON, any other
//!   version, schema drift, a recorded configuration
//!   [`SimConfig::validate`] refuses).
//! * [`TraceReplay`] — re-drives a scheduler against the recorded
//!   arrivals and churn under the recorded configuration and tariffs,
//!   producing an [`ExperimentResult`] and a dispatch-trace digest
//!   comparable with the recorded stream's own
//!   [`TraceFile::dispatch_digest`].
//!
//! The module is also the single owner of the canonical dispatch-trace
//! rendering ([`render_record`]) and of [`TraceDigest`], the observer
//! that streams it into an [`Fnv`] digest (or keeps the text) — the
//! digest the golden equivalence suites pin: a run replayed under the
//! same scheduler and seed must reproduce the recorded digest bit for
//! bit.
//!
//! ```
//! use esg_model::{SloClass, WorkloadClass};
//! use esg_sim::{run_simulation, MinScheduler, SimConfig, SimEnv, TraceRecorder, TraceReplay};
//! use esg_workload::WorkloadGen;
//!
//! let path = std::env::temp_dir().join(format!("esg-trace-doc-{}.json", std::process::id()));
//! let env = SimEnv::standard(SloClass::Moderate);
//! let w = WorkloadGen::new(WorkloadClass::Light, esg_model::standard_app_ids(), 7).generate(8);
//! let mut recorder = TraceRecorder::new(path.clone());
//! let cfg = SimConfig::default();
//! let recorded = run_simulation(&env, cfg, &mut MinScheduler, &w, "record", Some(&mut recorder))?;
//! recorder.finish().expect("trace written");
//!
//! let replay = TraceReplay::load(&path).expect("well-formed trace");
//! let replayed = replay.run(&mut MinScheduler, "replay", None)?;
//! assert_eq!(replayed.arrivals, recorded.arrivals);
//! std::fs::remove_file(&path).ok();
//! # Ok::<(), esg_sim::SimError>(())
//! ```

use crate::builder::{check_arrival, validate_transfer, SimError};
use crate::eventlog::{EventKind, EventRecord, Observer};
use crate::metrics::ExperimentResult;
use crate::platform::{run_simulation, SimConfig, SimEnv};
use crate::policy::{PolicyStack, ShedReason};
use crate::sched::{
    Capabilities, Outcome, QueueKey, RoundCtx, SchedCtx, Scheduler, SchedulerEvent, SchedulerStats,
};
use esg_model::{
    standard_apps, AppId, ChurnEvent, ChurnPlan, ClusterSpec, Config, ConfigGrid, Fnv, GpuFlavor,
    InvocationId, NodeClass, NodeId, SloClass,
};
use esg_profile::TransferModel;
use esg_workload::{Arrival, Workload};
use serde_json::{Map, Value};
use std::fmt;
use std::path::{Path, PathBuf};

/// Format marker written into every trace header.
pub const TRACE_FORMAT: &str = "esg-trace";

/// Current trace schema version. [`TraceFile::load`] rejects every other
/// version with [`TraceError::Version`]: a format change bumps it and
/// adds no loader for the old one.
pub const TRACE_VERSION: u32 = 3;

/// A typed failure while writing or loading a trace. Corrupt or
/// truncated files surface here — never as a panic.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceError {
    /// The file could not be read or written.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The OS error, rendered.
        message: String,
    },
    /// The document is not well-formed JSON (truncation lands here).
    Parse {
        /// Byte offset where parsing failed.
        offset: usize,
        /// What was expected or found.
        message: String,
    },
    /// The document is JSON but not a supported trace version.
    Version {
        /// The version the file claims.
        found: i64,
        /// The version this build reads.
        supported: u32,
    },
    /// The document is missing a field or holds one of the wrong shape.
    Schema {
        /// Which field, and what was wrong with it.
        context: String,
    },
    /// The run cannot be recorded/replayed faithfully (e.g. custom
    /// application specs, which the standard-environment loader cannot
    /// reconstruct).
    Unsupported {
        /// What was unsupported.
        what: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io { path, message } => {
                write!(f, "trace i/o on {}: {message}", path.display())
            }
            TraceError::Parse { offset, message } => {
                write!(f, "trace parse error at byte {offset}: {message}")
            }
            TraceError::Version { found, supported } => {
                write!(f, "trace version {found} (this build reads {supported})")
            }
            TraceError::Schema { context } => write!(f, "trace schema: {context}"),
            TraceError::Unsupported { what } => write!(f, "unsupported trace: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// [`Fnv`] over the bytes of `s`: the digest of a rendered trace, equal
/// to the [`TraceDigest`] streamed while it was rendered.
///
/// ```
/// assert_eq!(esg_sim::trace::fnv64(""), 0xcbf29ce484222325);
/// ```
pub fn fnv64(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.write_bytes(s.as_bytes());
    h.finish()
}

/// Appends one record's canonical trace text to `out`: `D {app}.{stage}
/// {config} n{node} x{jobs};` per dispatch, `C n{node} join|drain;` per
/// churn event, `S {app}.{stage} x{jobs} {reason};` per shed. Arrivals,
/// completions, recheck ticks, and transfer events render nothing, so
/// new telemetry kinds cannot move existing digests.
///
/// ```
/// use esg_sim::{trace::render_record, EventRecord, SchedulerEvent};
///
/// let churn = SchedulerEvent::Churn { node: esg_model::NodeId(3), joined: false, now_ms: 5.0 };
/// let mut out = String::new();
/// render_record(&mut out, &EventRecord::capture(&churn)).unwrap();
/// assert_eq!(out, "C n3 drain;");
/// ```
///
/// The record is assembled in a stack buffer without `core::fmt` and
/// reaches `out` in one `write_str`; the text is the one `Config`'s
/// `Display` and `ShedReason`'s name give.
pub fn render_record(out: &mut impl fmt::Write, record: &EventRecord) -> fmt::Result {
    let mut line = Line::default();
    match record.kind {
        EventKind::Dispatched {
            key,
            config,
            node,
            jobs,
        } => line
            .text("D ")
            .key(key)
            .text(" (b=")
            .num(config.batch.into())
            .text(",c=")
            .num(config.vcpus.into())
            .text(",g=")
            .num(config.vgpus.into())
            .text(") n")
            .num(node.0.into())
            .text(" x")
            .num(jobs as u64)
            .text(";"),
        EventKind::Churn { node, joined } => {
            line.text("C n")
                .num(node.0.into())
                .text(if joined { " join;" } else { " drain;" })
        }
        EventKind::QueueShed { key, jobs, reason } => line
            .text("S ")
            .key(key)
            .text(" x")
            .num(jobs as u64)
            .text(" ")
            .text(reason.name())
            .text(";"),
        _ => return Ok(()),
    };
    out.write_str(line.as_str())
}

/// One rendered trace record: ASCII on the stack, longer than the
/// longest record (109 bytes: a dispatch with every number at its
/// type's maximum).
struct Line {
    buf: [u8; 128],
    len: usize,
}

impl Default for Line {
    fn default() -> Line {
        Line {
            buf: [0; 128],
            len: 0,
        }
    }
}

impl Line {
    fn bytes(&mut self, b: &[u8]) -> &mut Line {
        self.buf[self.len..self.len + b.len()].copy_from_slice(b);
        self.len += b.len();
        self
    }

    fn text(&mut self, s: &str) -> &mut Line {
        self.bytes(s.as_bytes())
    }

    /// Appends `v` in decimal.
    fn num(&mut self, mut v: u64) -> &mut Line {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.bytes(&digits[start..])
    }

    /// Appends `{app}.{stage}`.
    fn key(&mut self, key: QueueKey) -> &mut Line {
        self.num(key.app.0.into()).text(".").num(key.stage as u64)
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("digits and ASCII literals")
    }
}

/// Renders the canonical dispatch/churn/shed trace the golden digests
/// hash: [`render_record`] over every record, in order.
pub fn dispatch_trace<'a>(records: impl IntoIterator<Item = &'a EventRecord>) -> String {
    let mut text = TraceDigest::text();
    records.into_iter().for_each(|r| text.record(r));
    text.sink
}

/// The observer behind every dispatch digest: it writes each record's
/// canonical text ([`render_record`]) into its [`fmt::Write`] sink as
/// the run goes. Over an [`Fnv`] ([`TraceDigest::new`]) it streams the
/// digest in constant memory; over a `String` ([`TraceDigest::text`]) it
/// keeps the text too, for tests that compare two traces; its `fnv64`
/// is the streamed digest of the same run.
#[derive(Clone, Debug, Default)]
pub struct TraceDigest<W = Fnv> {
    sink: W,
}

impl TraceDigest {
    /// A streaming digest: nothing is kept but the [`Fnv`] state.
    pub fn new() -> TraceDigest {
        TraceDigest::default()
    }

    /// FNV digest of everything rendered so far.
    pub fn digest(&self) -> u64 {
        self.sink.finish()
    }
}

impl TraceDigest<String> {
    /// A digest that keeps the rendered text.
    pub fn text() -> TraceDigest<String> {
        TraceDigest::default()
    }

    /// The canonical rendering so far.
    pub fn trace(&self) -> &str {
        &self.sink
    }
}

impl<W: fmt::Write> TraceDigest<W> {
    /// Renders one record into the sink.
    pub(crate) fn record(&mut self, record: &EventRecord) {
        render_record(&mut self.sink, record).expect("an Fnv or a String accepts every write");
    }
}

impl<W: fmt::Write> Observer for TraceDigest<W> {
    fn on_event(&mut self, event: &SchedulerEvent<'_>) {
        self.record(&EventRecord::capture(event));
    }
}

/// A scheduler wrapper rendering its run's dispatch trace through a
/// [`TraceDigest`]: kept only as the benchmark crate's shim, which checks
/// its own streaming digest against it. Pass a [`TraceDigest`] observer
/// instead.
pub struct Traced {
    /// The wrapped scheduler.
    pub inner: Box<dyn Scheduler>,
    /// The rendered trace so far.
    digest: TraceDigest<String>,
}

impl Traced {
    /// Wraps `inner` with an empty trace.
    pub fn new(inner: Box<dyn Scheduler>) -> Traced {
        Traced {
            inner,
            digest: TraceDigest::text(),
        }
    }

    /// The canonical dispatch/churn/shed rendering of the tapped run
    /// (see [`dispatch_trace`]).
    pub fn trace(&self) -> String {
        self.digest.trace().to_string()
    }

    /// FNV digest of [`trace`](Self::trace).
    pub fn trace_digest(&self) -> u64 {
        fnv64(self.digest.trace())
    }
}

impl Scheduler for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn schedule(&mut self, ctx: &SchedCtx<'_>) -> Outcome {
        self.inner.schedule(ctx)
    }

    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
        self.inner.place(ctx, config)
    }

    fn round_policy(&mut self) -> Option<&mut PolicyStack> {
        self.inner.round_policy()
    }

    fn schedule_round(&mut self, ctx: &RoundCtx<'_>) -> Vec<(QueueKey, Outcome)> {
        // Forwarded so a wrapped scheduler's round-policy stack (if any)
        // is exercised rather than silently replaced by the default
        // one-queue replay.
        self.inner.schedule_round(ctx)
    }

    fn on_event(&mut self, event: &SchedulerEvent<'_>) {
        self.digest.on_event(event);
        self.inner.on_event(event);
    }

    fn stats(&self) -> SchedulerStats {
        self.inner.stats()
    }
}

/// The recording [`Observer`]: pass it to a run, then
/// [`finish`](Self::finish) writes the versioned document. The header
/// comes from the observed run's own [`begin`](Observer::begin), so it
/// cannot disagree with the run; arrivals and events accumulate in
/// memory until `finish`.
pub struct TraceRecorder {
    path: PathBuf,
    /// The document's header fields, taken from the run; `None` until a
    /// replayable run (one over the standard applications) began.
    header: Option<Map>,
    arrivals: Vec<Arrival>,
    events: Vec<EventRecord>,
}

impl TraceRecorder {
    /// A recorder that will write the observed run's trace to `path`.
    pub fn new(path: PathBuf) -> TraceRecorder {
        TraceRecorder {
            path,
            header: None,
            arrivals: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Serialises and writes the trace, returning the path written; a
    /// failed write is [`TraceError::Io`].
    ///
    /// Runs over custom application specs are refused with
    /// [`TraceError::Unsupported`]: `AppSpec`s carry static names and
    /// DAG shapes the standard-environment loader cannot reconstruct,
    /// so such a trace could never replay faithfully.
    pub fn finish(self) -> Result<PathBuf, TraceError> {
        let mut doc = self.header.ok_or_else(|| TraceError::Unsupported {
            what: "no run over the standard applications was observed (custom \
application specs cannot be replayed from the standard environment)"
                .to_string(),
        })?;
        doc.insert(
            "arrivals",
            Value::Array(
                self.arrivals
                    .iter()
                    .map(|a| Value::Array(vec![a.at_ms.into(), a.app.0.into()]))
                    .collect(),
            ),
        );
        doc.insert(
            "events",
            Value::Array(self.events.iter().map(encode_event).collect()),
        );
        let text = serde_json::to_string(&Value::Object(doc));
        std::fs::write(&self.path, text).map_err(|e| TraceError::Io {
            path: self.path.clone(),
            message: e.to_string(),
        })?;
        Ok(self.path)
    }
}

impl Observer for TraceRecorder {
    /// Starts the trace afresh with `env`'s and `cfg`'s header.
    fn begin(&mut self, env: &SimEnv, cfg: &SimConfig, scheduler: &str) {
        self.arrivals.clear();
        self.events.clear();
        self.header = (env.apps == standard_apps()).then(|| {
            let mut doc = Map::new();
            doc.insert("format", TRACE_FORMAT);
            doc.insert("version", TRACE_VERSION);
            doc.insert("scheduler", scheduler);
            doc.insert("slo", env.slo.to_string());
            doc.insert("apps", "standard");
            doc.insert("grid", grid_to_json(env.profiles.grid()));
            doc.insert("transfer", transfer_to_json(&env.transfer));
            doc.insert("config", config_to_json(cfg));
            doc
        });
    }

    fn on_arrival(&mut self, arrival: &Arrival) {
        self.arrivals.push(*arrival);
    }

    fn on_event(&mut self, event: &SchedulerEvent<'_>) {
        self.events.push(EventRecord::capture(event));
    }
}

/// A loaded, validated trace document.
#[derive(Clone, Debug)]
pub struct TraceFile {
    /// Name of the scheduler that drove the recorded run.
    pub scheduler: String,
    /// SLO class of the recorded environment.
    pub slo: SloClass,
    /// Configuration grid of the recorded environment.
    pub grid: ConfigGrid,
    /// Transfer tariffs of the recorded environment.
    pub transfer: TransferModel,
    /// The recorded platform configuration.
    pub config: SimConfig,
    /// The recorded arrival stream, in arrival order.
    pub arrivals: Vec<Arrival>,
    /// The recorded control-plane event stream, in emission order.
    pub events: Vec<EventRecord>,
}

impl TraceFile {
    /// Reads and validates the trace at `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<TraceFile, TraceError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| TraceError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        TraceFile::from_json(&text)
    }

    /// Parses and validates a trace document from its JSON text.
    pub fn from_json(text: &str) -> Result<TraceFile, TraceError> {
        let doc = serde_json::from_str(text).map_err(|e| TraceError::Parse {
            offset: e.offset,
            message: e.message,
        })?;
        let format = str_field(&doc, "format")?;
        if format != TRACE_FORMAT {
            return Err(TraceError::Schema {
                context: format!("format marker {format:?} is not {TRACE_FORMAT:?}"),
            });
        }
        let found = int_field(&doc, "version")?;
        if found != TRACE_VERSION as i64 {
            return Err(TraceError::Version {
                found,
                supported: TRACE_VERSION,
            });
        }
        let apps = str_field(&doc, "apps")?;
        if apps != "standard" {
            return Err(TraceError::Unsupported {
                what: format!("application set {apps:?} (only \"standard\" replays)"),
            });
        }
        let slo = slo_from_str(str_field(&doc, "slo")?)?;
        let grid = grid_from_json(field(&doc, "grid")?)?;
        let transfer = transfer_from_json(field(&doc, "transfer")?)?;
        let config = config_from_json(field(&doc, "config")?)?;
        let known_apps = standard_apps().len();
        let arrivals = field(&doc, "arrivals")?
            .as_array()
            .ok_or_else(|| schema("arrivals is not an array"))?
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let a = v
                    .as_array()
                    .filter(|a| a.len() == 2)
                    .ok_or_else(|| schema(&format!("arrival #{i} is not a [t, app] pair")))?;
                let arrival = Arrival {
                    at_ms: f64_at(a, 0, "arrival time")?,
                    app: AppId(u32_at(a, 1, "arrival app")?),
                };
                check_arrival(i, &arrival, known_apps, f64::NEG_INFINITY)
                    .map_err(|e| schema(&e.to_string()))?;
                Ok(arrival)
            })
            .collect::<Result<Vec<_>, TraceError>>()?;
        let events = field(&doc, "events")?
            .as_array()
            .ok_or_else(|| schema("events is not an array"))?
            .iter()
            .enumerate()
            .map(|(i, v)| decode_event(v, i))
            .collect::<Result<Vec<_>, TraceError>>()?;
        Ok(TraceFile {
            scheduler: str_field(&doc, "scheduler")?.to_string(),
            slo,
            grid,
            transfer,
            config,
            arrivals,
            events,
        })
    }

    /// The recorded arrivals as a runnable [`Workload`].
    pub fn workload(&self) -> Workload {
        Workload::from_arrivals(self.arrivals.clone())
    }

    /// FNV digest of the recorded events' [`dispatch_trace`], streamed
    /// without rendering it — compare against
    /// [`TraceReplay::run_digest`] to check replay fidelity.
    pub fn dispatch_digest(&self) -> u64 {
        let mut digest = TraceDigest::new();
        self.events.iter().for_each(|r| digest.record(r));
        digest.digest()
    }
}

/// Re-drives schedulers against a recorded run: same arrivals, same
/// churn, same platform configuration, any policy.
#[derive(Clone, Debug)]
pub struct TraceReplay {
    trace: TraceFile,
}

impl TraceReplay {
    /// Loads the trace at `path` (see [`TraceFile::load`]).
    pub fn load(path: impl AsRef<Path>) -> Result<TraceReplay, TraceError> {
        Ok(TraceReplay::new(TraceFile::load(path)?))
    }

    /// Wraps an already-loaded trace.
    pub fn new(trace: TraceFile) -> TraceReplay {
        TraceReplay { trace }
    }

    /// The underlying trace document.
    pub fn trace(&self) -> &TraceFile {
        &self.trace
    }

    /// Re-drives `sched` against the recorded arrivals under the
    /// recorded environment (grid and transfer tariffs), labelling the
    /// result `scenario` and feeding `observer` like any run's. A replay
    /// under the same scheduler and seed is bit-identical to the recorded
    /// run (pinned by the round-trip suite); a different scheduler sees
    /// the exact same offered load. The replay goes through
    /// [`run_simulation`], so the replaying scheduler's round-policy
    /// stack is checked like any run's.
    pub fn run(
        &self,
        sched: &mut dyn Scheduler,
        scenario: &str,
        observer: Option<&mut dyn Observer>,
    ) -> Result<ExperimentResult, SimError> {
        let mut env = SimEnv::with_grid(self.trace.slo, self.trace.grid.clone());
        env.transfer = self.trace.transfer;
        let workload = self.trace.workload();
        let cfg = self.trace.config.clone();
        run_simulation(&env, cfg, sched, &workload, scenario, observer)
    }

    /// [`run`](Self::run) observed by a [`TraceDigest`]: the result and
    /// its dispatch digest, for comparison with
    /// [`TraceFile::dispatch_digest`].
    pub fn run_digest(
        &self,
        sched: &mut dyn Scheduler,
        scenario: &str,
    ) -> Result<(ExperimentResult, u64), SimError> {
        let mut digest = TraceDigest::new();
        let result = self.run(sched, scenario, Some(&mut digest))?;
        Ok((result, digest.digest()))
    }
}

// ---------------------------------------------------------------------
// JSON encoding/decoding (compact tagged arrays for the event stream,
// a plain object for the header).

fn schema(context: &str) -> TraceError {
    TraceError::Schema {
        context: context.to_string(),
    }
}

fn field<'a>(doc: &'a Value, key: &str) -> Result<&'a Value, TraceError> {
    doc.get(key)
        .ok_or_else(|| schema(&format!("missing field {key:?}")))
}

fn str_field<'a>(doc: &'a Value, key: &str) -> Result<&'a str, TraceError> {
    field(doc, key)?
        .as_str()
        .ok_or_else(|| schema(&format!("field {key:?} is not a string")))
}

fn int_field(doc: &Value, key: &str) -> Result<i64, TraceError> {
    match field(doc, key)? {
        Value::Int(n) => {
            i64::try_from(*n).map_err(|_| schema(&format!("field {key:?} is out of the i64 range")))
        }
        _ => Err(schema(&format!("field {key:?} is not an integer"))),
    }
}

fn f64_field(doc: &Value, key: &str) -> Result<f64, TraceError> {
    field(doc, key)?
        .as_f64()
        .ok_or_else(|| schema(&format!("field {key:?} is not a number")))
}

fn bool_field(doc: &Value, key: &str) -> Result<bool, TraceError> {
    match field(doc, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(schema(&format!("field {key:?} is not a boolean"))),
    }
}

fn u64_field(doc: &Value, key: &str) -> Result<u64, TraceError> {
    field(doc, key)?
        .as_u64()
        .ok_or_else(|| schema(&format!("field {key:?} is not an unsigned integer")))
}

fn u32_field(doc: &Value, key: &str) -> Result<u32, TraceError> {
    u32::try_from(u64_field(doc, key)?)
        .map_err(|_| schema(&format!("field {key:?} is out of the u32 range")))
}

fn usize_field(doc: &Value, key: &str) -> Result<usize, TraceError> {
    usize::try_from(u64_field(doc, key)?)
        .map_err(|_| schema(&format!("field {key:?} is out of the usize range")))
}

fn f64_at(a: &[Value], i: usize, what: &str) -> Result<f64, TraceError> {
    a.get(i)
        .and_then(Value::as_f64)
        .ok_or_else(|| schema(&format!("{what} (slot {i}) is not a number")))
}

fn u64_at(a: &[Value], i: usize, what: &str) -> Result<u64, TraceError> {
    a.get(i)
        .and_then(Value::as_u64)
        .ok_or_else(|| schema(&format!("{what} (slot {i}) is not an unsigned integer")))
}

fn u32_at(a: &[Value], i: usize, what: &str) -> Result<u32, TraceError> {
    u32::try_from(u64_at(a, i, what)?)
        .map_err(|_| schema(&format!("{what} (slot {i}) is out of the u32 range")))
}

fn usize_at(a: &[Value], i: usize, what: &str) -> Result<usize, TraceError> {
    usize::try_from(u64_at(a, i, what)?)
        .map_err(|_| schema(&format!("{what} (slot {i}) is out of the usize range")))
}

fn str_at<'a>(a: &'a [Value], i: usize, what: &str) -> Result<&'a str, TraceError> {
    a.get(i)
        .and_then(Value::as_str)
        .ok_or_else(|| schema(&format!("{what} (slot {i}) is not a string")))
}

fn bool_at(a: &[Value], i: usize, what: &str) -> Result<bool, TraceError> {
    match a.get(i) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(schema(&format!("{what} (slot {i}) is not a boolean"))),
    }
}

fn slo_from_str(s: &str) -> Result<SloClass, TraceError> {
    match s {
        "strict" => Ok(SloClass::Strict),
        "moderate" => Ok(SloClass::Moderate),
        "relaxed" => Ok(SloClass::Relaxed),
        other => Err(schema(&format!("unknown SLO class {other:?}"))),
    }
}

fn reason_from_str(s: &str) -> Result<ShedReason, TraceError> {
    match s {
        "gslo-unattainable" => Ok(ShedReason::GsloUnattainable),
        "overload" => Ok(ShedReason::Overload),
        other => Err(schema(&format!("unknown shed reason {other:?}"))),
    }
}

fn flavor_from_str(s: &str) -> Result<GpuFlavor, TraceError> {
    match s {
        "a100" => Ok(GpuFlavor::A100),
        "v100" => Ok(GpuFlavor::V100),
        "t4" => Ok(GpuFlavor::T4),
        other => Err(schema(&format!("unknown GPU flavor {other:?}"))),
    }
}

fn grid_to_json(grid: &ConfigGrid) -> Value {
    let mut m = Map::new();
    m.insert("batches", grid.batches.clone());
    m.insert("vcpus", grid.vcpus.clone());
    m.insert("vgpus", grid.vgpus.clone());
    Value::Object(m)
}

fn u32_list(doc: &Value, key: &str) -> Result<Vec<u32>, TraceError> {
    field(doc, key)?
        .as_array()
        .ok_or_else(|| schema(&format!("field {key:?} is not an array")))?
        .iter()
        .enumerate()
        .map(|(i, v)| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| schema(&format!("{key}[{i}] is not a u32")))
        })
        .collect()
}

fn grid_from_json(doc: &Value) -> Result<ConfigGrid, TraceError> {
    let (batches, vcpus, vgpus) = (
        u32_list(doc, "batches")?,
        u32_list(doc, "vcpus")?,
        u32_list(doc, "vgpus")?,
    );
    if [&batches, &vcpus, &vgpus]
        .iter()
        .any(|l| l.is_empty() || l.contains(&0))
    {
        return Err(schema("grid dimensions must be non-empty lists of >= 1"));
    }
    Ok(ConfigGrid::new(batches, vcpus, vgpus))
}

fn class_to_json(c: &NodeClass) -> Value {
    let mut m = Map::new();
    m.insert("name", c.name.clone());
    m.insert("gpu", c.gpu.to_string());
    m.insert("vgpu_slices", c.vgpu_slices);
    m.insert("vcpus", c.vcpus);
    m.insert("speed", c.speed);
    m.insert("link_scale", c.link_scale);
    m.insert("price_scale", c.price_scale);
    m.insert("pcie_in_gbps", c.pcie_in_gbps);
    m.insert("pcie_out_gbps", c.pcie_out_gbps);
    m.insert("nvlink_gbps", c.nvlink_gbps);
    m.insert("staging_mb", c.staging_mb);
    Value::Object(m)
}

fn class_from_json(doc: &Value) -> Result<NodeClass, TraceError> {
    Ok(NodeClass {
        name: str_field(doc, "name")?.to_string(),
        gpu: flavor_from_str(str_field(doc, "gpu")?)?,
        vgpu_slices: u32_field(doc, "vgpu_slices")?,
        vcpus: u32_field(doc, "vcpus")?,
        speed: f64_field(doc, "speed")?,
        link_scale: f64_field(doc, "link_scale")?,
        price_scale: f64_field(doc, "price_scale")?,
        pcie_in_gbps: f64_field(doc, "pcie_in_gbps")?,
        pcie_out_gbps: f64_field(doc, "pcie_out_gbps")?,
        nvlink_gbps: f64_field(doc, "nvlink_gbps")?,
        staging_mb: f64_field(doc, "staging_mb")?,
    })
}

fn churn_to_json(plan: &ChurnPlan) -> Value {
    Value::Array(
        plan.events
            .iter()
            .map(|ev| match ev {
                ChurnEvent::Drain { at_ms, node } => {
                    Value::Array(vec!["drain".into(), (*at_ms).into(), node.0.into()])
                }
                ChurnEvent::Join { at_ms, class } => {
                    Value::Array(vec!["join".into(), (*at_ms).into(), class_to_json(class)])
                }
            })
            .collect(),
    )
}

fn churn_from_json(doc: &Value) -> Result<ChurnPlan, TraceError> {
    let events = doc
        .as_array()
        .ok_or_else(|| schema("churn is not an array"))?
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let a = v
                .as_array()
                .filter(|a| a.len() == 3)
                .ok_or_else(|| schema(&format!("churn event #{i} is not a 3-slot array")))?;
            match str_at(a, 0, "churn tag")? {
                "drain" => Ok(ChurnEvent::Drain {
                    at_ms: f64_at(a, 1, "churn time")?,
                    node: NodeId(u32_at(a, 2, "churn node")?),
                }),
                "join" => Ok(ChurnEvent::Join {
                    at_ms: f64_at(a, 1, "churn time")?,
                    class: class_from_json(&a[2])?,
                }),
                other => Err(schema(&format!("unknown churn tag {other:?}"))),
            }
        })
        .collect::<Result<Vec<_>, TraceError>>()?;
    Ok(ChurnPlan { events })
}

fn config_to_json(cfg: &SimConfig) -> Value {
    let mut m = Map::new();
    m.insert(
        "cluster",
        match &cfg.cluster {
            None => Value::Null,
            Some(spec) => {
                let mut c = Map::new();
                c.insert("name", spec.name.clone());
                c.insert(
                    "nodes",
                    Value::Array(spec.nodes.iter().map(class_to_json).collect()),
                );
                c.insert(
                    "topology",
                    match spec.topology {
                        None => Value::Null,
                        Some(t) => {
                            let mut topo = Map::new();
                            topo.insert("gpus_per_server", t.gpus_per_server);
                            topo.insert("tor_gbps", t.tor_gbps);
                            Value::Object(topo)
                        }
                    },
                );
                Value::Object(c)
            }
        },
    );
    m.insert("churn", churn_to_json(&cfg.churn));
    m.insert("charge_overhead", cfg.charge_overhead);
    m.insert("prewarm", cfg.prewarm);
    m.insert("warmup_exclude_ms", cfg.warmup_exclude_ms);
    m.insert("seed", cfg.seed);
    m.insert("max_sim_ms", cfg.max_sim_ms);
    m.insert("validate_cluster_state", cfg.validate_cluster_state);
    m.insert(
        "data_plane",
        match &cfg.data_plane {
            None => Value::Null,
            Some(dp) => {
                let mut d = Map::new();
                d.insert("bandwidth_scale", dp.bandwidth_scale);
                d.insert("staging_scale", dp.staging_scale);
                d.insert("batch_max_mb", dp.batch_max_mb);
                Value::Object(d)
            }
        },
    );
    Value::Object(m)
}

/// Decodes the recorded config and checks it with
/// [`SimConfig::validate`], the check every run makes: a config a run
/// would refuse is [`TraceError::Schema`], not a replay error.
fn config_from_json(doc: &Value) -> Result<SimConfig, TraceError> {
    let cluster = match field(doc, "cluster")? {
        Value::Null => None,
        spec => Some(ClusterSpec {
            name: str_field(spec, "name")?.to_string(),
            nodes: field(spec, "nodes")?
                .as_array()
                .ok_or_else(|| schema("cluster.nodes is not an array"))?
                .iter()
                .map(class_from_json)
                .collect::<Result<Vec<_>, TraceError>>()?,
            topology: match field(spec, "topology")? {
                Value::Null => None,
                t => Some(esg_model::ServerTopology::new(
                    usize_field(t, "gpus_per_server")?,
                    f64_field(t, "tor_gbps")?,
                )),
            },
        }),
    };
    let cfg = SimConfig {
        cluster,
        churn: churn_from_json(field(doc, "churn")?)?,
        charge_overhead: bool_field(doc, "charge_overhead")?,
        prewarm: bool_field(doc, "prewarm")?,
        warmup_exclude_ms: f64_field(doc, "warmup_exclude_ms")?,
        seed: u64_field(doc, "seed")?,
        max_sim_ms: f64_field(doc, "max_sim_ms")?,
        validate_cluster_state: bool_field(doc, "validate_cluster_state")?,
        data_plane: match field(doc, "data_plane")? {
            Value::Null => None,
            dp => Some(crate::dataplane::DataPlaneConfig {
                bandwidth_scale: f64_field(dp, "bandwidth_scale")?,
                staging_scale: f64_field(dp, "staging_scale")?,
                batch_max_mb: f64_field(dp, "batch_max_mb")?,
            }),
        },
    };
    cfg.validate()
        .map_err(|e| schema(&format!("config rejected: {e}")))?;
    Ok(cfg)
}

fn transfer_to_json(t: &TransferModel) -> Value {
    let mut m = Map::new();
    m.insert("local_base_ms", t.local_base_ms);
    m.insert("local_ms_per_mb", t.local_ms_per_mb);
    m.insert("remote_base_ms", t.remote_base_ms);
    m.insert("remote_ms_per_mb", t.remote_ms_per_mb);
    Value::Object(m)
}

/// Decodes the recorded tariffs and checks them with the tariff check
/// every run makes.
fn transfer_from_json(doc: &Value) -> Result<TransferModel, TraceError> {
    let t = TransferModel {
        local_base_ms: f64_field(doc, "local_base_ms")?,
        local_ms_per_mb: f64_field(doc, "local_ms_per_mb")?,
        remote_base_ms: f64_field(doc, "remote_base_ms")?,
        remote_ms_per_mb: f64_field(doc, "remote_ms_per_mb")?,
    };
    validate_transfer(&t).map_err(|e| schema(&format!("transfer rejected: {e}")))?;
    Ok(t)
}

fn encode_event(r: &EventRecord) -> Value {
    let t: Value = r.now_ms.into();
    Value::Array(match r.kind {
        EventKind::JobArrived { key, invocation } => vec![
            "J".into(),
            t,
            key.app.0.into(),
            key.stage.into(),
            invocation.0.into(),
        ],
        EventKind::Dispatched {
            key,
            config,
            node,
            jobs,
        } => vec![
            "D".into(),
            t,
            key.app.0.into(),
            key.stage.into(),
            config.batch.into(),
            config.vcpus.into(),
            config.vgpus.into(),
            node.0.into(),
            jobs.into(),
        ],
        EventKind::TaskCompleted { key, node, config } => vec![
            "T".into(),
            t,
            key.app.0.into(),
            key.stage.into(),
            config.batch.into(),
            config.vcpus.into(),
            config.vgpus.into(),
            node.0.into(),
        ],
        EventKind::Churn { node, joined } => vec!["C".into(), t, node.0.into(), joined.into()],
        EventKind::QueueShed { key, jobs, reason } => vec![
            "S".into(),
            t,
            key.app.0.into(),
            key.stage.into(),
            jobs.into(),
            reason.to_string().into(),
        ],
        EventKind::RecheckTick => vec!["R".into(), t],
        EventKind::TransferStarted { node, mb } => {
            vec!["TS".into(), t, node.0.into(), mb.into()]
        }
        EventKind::TransferQueued { node, mb } => {
            vec!["TQ".into(), t, node.0.into(), mb.into()]
        }
        EventKind::TransferCompleted { node, mb } => {
            vec!["TC".into(), t, node.0.into(), mb.into()]
        }
    })
}

fn decode_event(v: &Value, idx: usize) -> Result<EventRecord, TraceError> {
    let a = v
        .as_array()
        .ok_or_else(|| schema(&format!("event #{idx} is not an array")))?;
    let ctx = format!("event #{idx}");
    let tag = str_at(a, 0, &ctx)?;
    let now_ms = f64_at(a, 1, &ctx)?;
    let expect_len = |n: usize| {
        if a.len() == n {
            Ok(())
        } else {
            Err(schema(&format!(
                "{ctx} ({tag:?}) has {} slots, expected {n}",
                a.len()
            )))
        }
    };
    let key = |app_slot: usize| -> Result<QueueKey, TraceError> {
        Ok(QueueKey {
            app: AppId(u32_at(a, app_slot, &ctx)?),
            stage: usize_at(a, app_slot + 1, &ctx)?,
        })
    };
    let config = |slot: usize| -> Result<Config, TraceError> {
        let (b, c, g) = (
            u32_at(a, slot, &ctx)?,
            u32_at(a, slot + 1, &ctx)?,
            u32_at(a, slot + 2, &ctx)?,
        );
        if b == 0 || c == 0 || g == 0 {
            return Err(schema(&format!(
                "{ctx}: configuration dimensions must be >= 1"
            )));
        }
        Ok(Config::new(b, c, g))
    };
    let kind = match tag {
        "J" => {
            expect_len(5)?;
            EventKind::JobArrived {
                key: key(2)?,
                invocation: InvocationId(u64_at(a, 4, &ctx)?),
            }
        }
        "D" => {
            expect_len(9)?;
            EventKind::Dispatched {
                key: key(2)?,
                config: config(4)?,
                node: NodeId(u32_at(a, 7, &ctx)?),
                jobs: usize_at(a, 8, &ctx)?,
            }
        }
        "T" => {
            expect_len(8)?;
            EventKind::TaskCompleted {
                key: key(2)?,
                node: NodeId(u32_at(a, 7, &ctx)?),
                config: config(4)?,
            }
        }
        "C" => {
            expect_len(4)?;
            EventKind::Churn {
                node: NodeId(u32_at(a, 2, &ctx)?),
                joined: bool_at(a, 3, &ctx)?,
            }
        }
        "S" => {
            expect_len(6)?;
            EventKind::QueueShed {
                key: key(2)?,
                jobs: usize_at(a, 4, &ctx)?,
                reason: reason_from_str(str_at(a, 5, &ctx)?)?,
            }
        }
        "R" => {
            expect_len(2)?;
            EventKind::RecheckTick
        }
        "TS" => {
            expect_len(4)?;
            EventKind::TransferStarted {
                node: NodeId(u32_at(a, 2, &ctx)?),
                mb: f64_at(a, 3, &ctx)?,
            }
        }
        "TQ" => {
            expect_len(4)?;
            EventKind::TransferQueued {
                node: NodeId(u32_at(a, 2, &ctx)?),
                mb: f64_at(a, 3, &ctx)?,
            }
        }
        "TC" => {
            expect_len(4)?;
            EventKind::TransferCompleted {
                node: NodeId(u32_at(a, 2, &ctx)?),
                mb: f64_at(a, 3, &ctx)?,
            }
        }
        other => return Err(schema(&format!("{ctx}: unknown event tag {other:?}"))),
    };
    Ok(EventRecord { now_ms, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_model::NodeClass;

    fn sample_records() -> Vec<EventRecord> {
        let k = QueueKey {
            app: AppId(2),
            stage: 1,
        };
        vec![
            EventRecord {
                now_ms: 0.5,
                kind: EventKind::JobArrived {
                    key: k,
                    invocation: InvocationId(7),
                },
            },
            EventRecord {
                now_ms: 3.25,
                kind: EventKind::Dispatched {
                    key: k,
                    config: Config::new(2, 3, 1),
                    node: NodeId(4),
                    jobs: 2,
                },
            },
            EventRecord {
                now_ms: 9.0,
                kind: EventKind::TaskCompleted {
                    key: k,
                    node: NodeId(4),
                    config: Config::new(2, 3, 1),
                },
            },
            EventRecord {
                now_ms: 10.0,
                kind: EventKind::Churn {
                    node: NodeId(1),
                    joined: false,
                },
            },
            EventRecord {
                now_ms: 11.0,
                kind: EventKind::QueueShed {
                    key: k,
                    jobs: 3,
                    reason: ShedReason::Overload,
                },
            },
            EventRecord {
                now_ms: 12.0,
                kind: EventKind::RecheckTick,
            },
            EventRecord {
                now_ms: 14.0,
                kind: EventKind::TransferStarted {
                    node: NodeId(4),
                    mb: 96.5,
                },
            },
            EventRecord {
                now_ms: 15.0,
                kind: EventKind::TransferQueued {
                    node: NodeId(4),
                    mb: 1024.0,
                },
            },
            EventRecord {
                now_ms: 16.0,
                kind: EventKind::TransferCompleted {
                    node: NodeId(4),
                    mb: 96.5,
                },
            },
        ]
    }

    #[test]
    fn every_event_kind_round_trips_through_json() {
        for r in sample_records() {
            let text = serde_json::to_string(&encode_event(&r));
            let parsed = serde_json::from_str(&text).expect("own encoding parses");
            assert_eq!(decode_event(&parsed, 0).expect("decodes"), r, "{text}");
        }
    }

    #[test]
    fn config_round_trips_including_cluster_and_churn() {
        let cfg = SimConfig {
            cluster: Some(ClusterSpec::mixed_mig().with_topology(2, 25.0)),
            churn: ChurnPlan::none()
                .drain(1_000.0, NodeId(3))
                .join(2_000.0, NodeClass::t4()),
            seed: u64::MAX,
            warmup_exclude_ms: 123.5,
            data_plane: Some(crate::dataplane::DataPlaneConfig {
                bandwidth_scale: 0.5,
                staging_scale: 2.0,
                batch_max_mb: 16.0,
            }),
            ..SimConfig::default()
        };
        let text = serde_json::to_string(&config_to_json(&cfg));
        let parsed = serde_json::from_str(&text).expect("own encoding parses");
        let back = config_from_json(&parsed).expect("decodes");
        // Every field must survive exactly (f64 via the writer's
        // shortest-roundtrip form, u64 via the parser's exact integer
        // lane).
        assert_eq!(format!("{back:?}"), format!("{:?}", cfg.clone()));
    }

    #[test]
    fn dispatch_trace_matches_the_golden_format() {
        // Transfer telemetry (last three sample records) must not move
        // the digest — only dispatch/churn/shed render.
        let s = dispatch_trace(&sample_records());
        assert_eq!(s, "D 2.1 (b=2,c=3,g=1) n4 x2;C n1 drain;S 2.1 x3 overload;");
        assert_eq!(fnv64(""), 0xcbf29ce484222325);
        assert_ne!(fnv64(&s), fnv64(""));
    }

    /// The `write!` rendering `render_record` replaced, kept as the
    /// reference its bytes must equal.
    fn formatted(record: &EventRecord) -> String {
        match record.kind {
            EventKind::Dispatched {
                key,
                config,
                node,
                jobs,
            } => format!(
                "D {}.{} {} n{} x{};",
                key.app.0, key.stage, config, node.0, jobs
            ),
            EventKind::Churn { node, joined } => {
                format!("C n{} {};", node.0, if joined { "join" } else { "drain" })
            }
            EventKind::QueueShed { key, jobs, reason } => {
                format!("S {}.{} x{} {};", key.app.0, key.stage, jobs, reason)
            }
            _ => String::new(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn render_record_writes_the_formatted_bytes(
            kind in 0u8..3,
            app in proptest::prop_oneof![0u32..8, proptest::prelude::Just(u32::MAX)],
            stage in proptest::prop_oneof![0usize..12, proptest::prelude::Just(usize::MAX)],
            config in (1u32..9, 1u32..1000, proptest::prop_oneof![1u32..8, proptest::prelude::Just(u32::MAX)]),
            node in proptest::prop_oneof![0u32..64, proptest::prelude::Just(u32::MAX)],
            jobs in proptest::prop_oneof![0usize..100_000, proptest::prelude::Just(usize::MAX)],
            flag in proptest::prelude::any::<bool>(),
        ) {
            let key = QueueKey { app: AppId(app), stage };
            let kind = match kind {
                0 => EventKind::Dispatched {
                    key,
                    config: Config::new(config.0, config.1, config.2),
                    node: NodeId(node),
                    jobs,
                },
                1 => EventKind::Churn { node: NodeId(node), joined: flag },
                _ => EventKind::QueueShed {
                    key,
                    jobs,
                    reason: if flag { ShedReason::Overload } else { ShedReason::GsloUnattainable },
                },
            };
            let record = EventRecord { now_ms: 1.0, kind };
            let mut out = String::new();
            render_record(&mut out, &record).expect("a String accepts every write");
            proptest::prop_assert_eq!(out, formatted(&record));
        }
    }

    #[test]
    fn streamed_and_text_digests_agree_on_a_run() {
        use crate::MinScheduler;
        use esg_model::WorkloadClass;
        use esg_workload::WorkloadGen;

        let env = SimEnv::standard(SloClass::Moderate);
        let w =
            WorkloadGen::new(WorkloadClass::Light, esg_model::standard_app_ids(), 7).generate(8);
        let (mut streamed, mut text) = (TraceDigest::new(), TraceDigest::text());
        for obs in [&mut streamed as &mut dyn Observer, &mut text] {
            let cfg = SimConfig::default();
            run_simulation(&env, cfg, &mut MinScheduler, &w, "digest", Some(obs)).expect("valid");
        }
        assert!(text.trace().starts_with("D "), "{}", text.trace());
        assert_eq!(streamed.digest(), fnv64(text.trace()));
    }

    #[test]
    fn v1_documents_get_a_version_error() {
        use crate::MinScheduler;
        use esg_model::WorkloadClass;
        use esg_workload::WorkloadGen;

        let path = std::env::temp_dir().join(format!("esg-trace-v1-{}.json", std::process::id()));
        let w =
            WorkloadGen::new(WorkloadClass::Light, esg_model::standard_app_ids(), 5).generate(10);
        let env = SimEnv::standard(SloClass::Moderate);
        let mut rec = TraceRecorder::new(path.clone());
        let cfg = SimConfig::default();
        run_simulation(&env, cfg, &mut MinScheduler, &w, "record", Some(&mut rec)).expect("valid");
        rec.finish().expect("written");
        let current = std::fs::read_to_string(&path).expect("recorded");
        std::fs::remove_file(&path).ok();
        TraceFile::from_json(&current).expect("own recording loads");
        // The recorder's own output relabelled as each earlier version,
        // and a minimal v1.0 document (no minor, bandwidth, data-plane or
        // tariff fields).
        let relabelled = |found: i64| {
            let doc = current.replacen(
                &format!("\"version\":{TRACE_VERSION}"),
                &format!("\"version\":{found}"),
                1,
            );
            assert_ne!(doc, current, "version field located");
            (found, doc)
        };
        let v1_0 = "{\"format\": \"esg-trace\", \"version\": 1, \"scheduler\": \"min\", \
\"slo\": \"moderate\", \"apps\": \"standard\", \
\"grid\": {\"batches\": [1], \"vcpus\": [1], \"vgpus\": [1]}, \
\"config\": {\"nodes\": 2, \"node_resources\": [16, 7], \"cluster\": null, \"churn\": []}, \
\"arrivals\": [], \"events\": []}";
        for (found, doc) in [relabelled(1), relabelled(2), (1, v1_0.to_string())] {
            assert_eq!(
                TraceFile::from_json(&doc).err(),
                Some(TraceError::Version {
                    found,
                    supported: 3
                })
            );
        }
    }

    #[test]
    fn loader_surfaces_typed_errors() {
        // Corrupt JSON (truncation) → Parse.
        assert!(matches!(
            TraceFile::from_json("{\"format\": \"esg-tr"),
            Err(TraceError::Parse { .. })
        ));
        // Wrong format marker → Schema.
        assert!(matches!(
            TraceFile::from_json("{\"format\": \"not-a-trace\"}"),
            Err(TraceError::Schema { .. })
        ));
        // Future version → Version.
        assert!(matches!(
            TraceFile::from_json("{\"format\": \"esg-trace\", \"version\": 99}"),
            Err(TraceError::Version {
                found: 99,
                supported: TRACE_VERSION
            })
        ));
        // Missing file → Io.
        assert!(matches!(
            TraceFile::load("/nonexistent/esg-trace.json"),
            Err(TraceError::Io { .. })
        ));
        // Errors render.
        for e in [
            TraceError::Parse {
                offset: 3,
                message: "x".into(),
            },
            TraceError::Unsupported { what: "y".into() },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn recorder_refuses_custom_apps() {
        let env = {
            let mut env = SimEnv::standard(SloClass::Moderate);
            env.apps = vec![esg_model::AppSpec::pipeline(
                "one",
                vec![esg_model::FnId(0)],
            )];
            env
        };
        let mut rec = TraceRecorder::new(std::env::temp_dir().join("esg-never-written.json"));
        rec.begin(&env, &SimConfig::default(), "min");
        assert!(matches!(rec.finish(), Err(TraceError::Unsupported { .. })));
    }
}
