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
use crate::dataplane::DataPlaneConfig;
use crate::eventlog::{EventKind, EventRecord, Observer};
use crate::metrics::ExperimentResult;
use crate::platform::{run_simulation, SimConfig, SimEnv};
use crate::policy::{PolicyStack, ShedReason};
use crate::sched::{
    Capabilities, Outcome, QueueKey, RoundCtx, SchedCtx, Scheduler, SchedulerEvent, SchedulerStats,
};
use esg_model::{
    standard_apps, AppId, ChurnEvent, ChurnPlan, ClusterSpec, Config, ConfigGrid, Fnv, GpuFlavor,
    InvocationId, NodeClass, NodeId, ServerTopology, SloClass,
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
pub const TRACE_VERSION: u32 = 4;

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

    fn on_run_start(&mut self) {
        self.inner.on_run_start();
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
    /// The document, its header taken from the run; `None` until a
    /// replayable run (one over the standard applications) began.
    doc: Option<Document>,
}

impl TraceRecorder {
    /// A recorder that will write the observed run's trace to `path`.
    pub fn new(path: PathBuf) -> TraceRecorder {
        TraceRecorder { path, doc: None }
    }

    /// Serialises and writes the trace, returning the path written; a
    /// failed write is [`TraceError::Io`].
    ///
    /// Runs over custom application specs are refused with
    /// [`TraceError::Unsupported`]: `AppSpec`s carry static names and
    /// DAG shapes the standard-environment loader cannot reconstruct,
    /// so such a trace could never replay faithfully.
    pub fn finish(self) -> Result<PathBuf, TraceError> {
        let doc = self.doc.ok_or_else(|| TraceError::Unsupported {
            what: "no run over the standard applications was observed (custom \
application specs cannot be replayed from the standard environment)"
                .to_string(),
        })?;
        let text = serde_json::to_string(&doc.encode());
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
        self.doc = (env.apps == standard_apps()).then(|| Document {
            format: TRACE_FORMAT.to_string(),
            version: TRACE_VERSION.into(),
            scheduler: scheduler.to_string(),
            slo: env.slo,
            apps: STANDARD_APPS.to_string(),
            grid: env.profiles.grid().clone(),
            transfer: env.transfer,
            config: cfg.clone(),
            arrivals: Vec::new(),
            events: Vec::new(),
        });
    }

    fn on_arrival(&mut self, arrival: &Arrival) {
        if let Some(doc) = &mut self.doc {
            doc.arrivals.push(*arrival);
        }
    }

    fn on_event(&mut self, event: &SchedulerEvent<'_>) {
        if let Some(doc) = &mut self.doc {
            doc.events.push(EventRecord::capture(event));
        }
    }
}

/// The `apps` value of a replayable trace: the standard application set.
const STANDARD_APPS: &str = "standard";

/// The document as written, one field per top-level key in order.
struct Document {
    format: String,
    version: i64,
    scheduler: String,
    slo: SloClass,
    apps: String,
    grid: ConfigGrid,
    transfer: TransferModel,
    config: SimConfig,
    arrivals: Vec<Arrival>,
    events: Vec<EventRecord>,
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
        // The marker, the version and the application set are checked
        // before the rest decodes, so a document of another format or
        // version is reported as such whatever else it holds.
        let root: At = &String::new;
        let format: String = member(&doc, "format", root)?;
        if format != TRACE_FORMAT {
            return Err(schema(format!(
                "format marker {format:?} is not {TRACE_FORMAT:?}"
            )));
        }
        let found = member(&doc, "version", root)?;
        if found != i64::from(TRACE_VERSION) {
            return Err(TraceError::Version {
                found,
                supported: TRACE_VERSION,
            });
        }
        let apps: String = member(&doc, "apps", root)?;
        if apps != STANDARD_APPS {
            return Err(TraceError::Unsupported {
                what: format!("application set {apps:?} (only {STANDARD_APPS:?} replays)"),
            });
        }
        let Document {
            scheduler,
            slo,
            grid,
            transfer,
            config,
            arrivals,
            events,
            ..
        } = Document::decode(&doc, root)?;
        let known_apps = standard_apps().len();
        for (i, arrival) in arrivals.iter().enumerate() {
            check_arrival(i, arrival, known_apps, f64::NEG_INFINITY)
                .map_err(|e| schema(e.to_string()))?;
        }
        Ok(TraceFile {
            scheduler,
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
// The codec. Each recorded type is declared once below (an object's
// keys, a tagged array's slots, an enum's variants), and that one
// declaration drives both the encoder and the decoder.

fn schema(context: impl Into<String>) -> TraceError {
    TraceError::Schema {
        context: context.into(),
    }
}

/// Where a value sits in the document (`config.cluster.nodes[2].speed`),
/// rendered only when decoding it fails.
type At<'a> = &'a dyn Fn() -> String;

/// A type the trace stores: how it encodes, and how it decodes with a
/// typed error naming where it sat.
trait Codec: Sized {
    fn encode(&self) -> Value;
    fn decode(v: &Value, at: At) -> Result<Self, TraceError>;

    /// Appends the value to a tagged array: one slot, unless the type
    /// spreads its fields over several (see `positional!`).
    fn put(&self, out: &mut Vec<Value>) {
        out.push(self.encode());
    }

    /// The array-slot accessor: reads the value from the next slot(s).
    fn take(slots: &mut Slots<'_>) -> Result<Self, TraceError> {
        let (v, i) = slots.next()?;
        let at = slots.at;
        Self::decode(v, &|| format!("{}[{i}]", at()))
    }
}

/// The object-key accessor: decodes member `name` of `v`.
fn member<T: Codec>(v: &Value, name: &str, at: At) -> Result<T, TraceError> {
    let here = || match at() {
        base if base.is_empty() => name.to_string(),
        base => format!("{base}.{name}"),
    };
    let value = v
        .get(name)
        .ok_or_else(|| schema(format!("missing field {}", here())))?;
    T::decode(value, &here)
}

/// An array read slot by slot through [`Codec::take`], whose
/// [`end`](Self::end) insists that every slot was read.
struct Slots<'a> {
    items: &'a [Value],
    next: usize,
    at: At<'a>,
}

impl<'a> Slots<'a> {
    fn new(v: &'a Value, at: At<'a>) -> Result<Slots<'a>, TraceError> {
        let items = v
            .as_array()
            .ok_or_else(|| schema(format!("{} is not an array", at())))?;
        Ok(Slots { items, next: 0, at })
    }

    fn next(&mut self) -> Result<(&'a Value, usize), TraceError> {
        let i = self.next;
        let v = self
            .items
            .get(i)
            .ok_or_else(|| self.error("has too few slots"))?;
        self.next += 1;
        Ok((v, i))
    }

    fn end(self) -> Result<(), TraceError> {
        match self.items.len() {
            n if n == self.next => Ok(()),
            n => Err(self.error(&format!("has {n} slots, expected {}", self.next))),
        }
    }

    fn error(&self, what: &str) -> TraceError {
        schema(format!("{} {what}", (self.at)()))
    }
}

/// Scalars: encoded by `serde_json`'s own conversion, decoded by the
/// given accessor.
macro_rules! scalar {
    ($($ty:ty: $what:literal, |$v:ident| $get:expr;)*) => {$(
        impl Codec for $ty {
            fn encode(&self) -> Value {
                Value::from(self.to_owned())
            }

            fn decode($v: &Value, at: At) -> Result<Self, TraceError> {
                $get.ok_or_else(|| schema(format!("{} is not {}", at(), $what)))
            }
        }
    )*};
}

scalar! {
    bool: "a boolean", |v| match v { Value::Bool(b) => Some(*b), _ => None };
    f64: "a number", |v| v.as_f64();
    u64: "an unsigned integer", |v| v.as_u64();
    u32: "a u32", |v| v.as_u64().and_then(|n| u32::try_from(n).ok());
    usize: "a usize", |v| v.as_u64().and_then(|n| usize::try_from(n).ok());
    i64: "an integer", |v| match v { Value::Int(n) => i64::try_from(*n).ok(), _ => None };
    String: "a string", |v| v.as_str().map(str::to_string);
}

/// Identifiers, stored as their raw number.
macro_rules! id {
    ($($ty:ident),*) => {$(
        impl Codec for $ty {
            fn encode(&self) -> Value {
                self.0.encode()
            }

            fn decode(v: &Value, at: At) -> Result<Self, TraceError> {
                Codec::decode(v, at).map($ty)
            }
        }
    )*};
}

id!(AppId, NodeId, InvocationId);

/// Enums stored by their `Display` name. Every variant is listed; the
/// `match` fails to compile when one is missing.
macro_rules! named {
    ($($ty:ident [$($variant:ident),*];)*) => {$(
        impl Codec for $ty {
            fn encode(&self) -> Value {
                self.to_string().into()
            }

            fn decode(v: &Value, at: At) -> Result<Self, TraceError> {
                let _every_variant = |x: $ty| match x { $($ty::$variant => ()),* };
                let name = String::decode(v, at)?;
                [$($ty::$variant),*]
                    .into_iter()
                    .find(|x| x.to_string() == name)
                    .ok_or_else(|| {
                        schema(format!("{} names no {} ({name:?})", at(), stringify!($ty)))
                    })
            }
        }
    )*};
}

named! {
    SloClass [Strict, Moderate, Relaxed];
    ShedReason [GsloUnattainable, Overload];
    GpuFlavor [A100, V100, T4];
}

/// `null` for `None`.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::encode)
    }

    fn decode(v: &Value, at: At) -> Result<Self, TraceError> {
        match v {
            Value::Null => Ok(None),
            v => T::decode(v, at).map(Some),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self) -> Value {
        Value::Array(self.iter().map(T::encode).collect())
    }

    fn decode(v: &Value, at: At) -> Result<Self, TraceError> {
        v.as_array()
            .ok_or_else(|| schema(format!("{} is not an array", at())))?
            .iter()
            .enumerate()
            .map(|(i, item)| T::decode(item, &|| format!("{}[{i}]", at())))
            .collect()
    }
}

/// A struct stored as an object with one key per listed field, in the
/// listed order. The struct literal fails to compile when a field is
/// missing. `then` checks (and may normalise) the decoded value.
macro_rules! record {
    ($ty:ident { $($field:ident),* $(,)? } $(then $check:path)?) => {
        impl Codec for $ty {
            fn encode(&self) -> Value {
                let mut m = Map::new();
                $(m.insert(stringify!($field), self.$field.encode());)*
                Value::Object(m)
            }

            fn decode(v: &Value, at: At) -> Result<Self, TraceError> {
                let value = $ty { $($field: member(v, stringify!($field), at)?),* };
                $(let value = $check(value).map_err(|e| schema(format!("{}: {e}", at())))?;)?
                Ok(value)
            }
        }
    };
}

record! {
    Document {
        format, version, scheduler, slo, apps, grid, transfer, config, arrivals, events,
    }
}
record! { ConfigGrid { batches, vcpus, vgpus } then checked_grid }
record! {
    TransferModel { local_base_ms, local_ms_per_mb, remote_base_ms, remote_ms_per_mb }
    then checked_transfer
}
record! {
    NodeClass {
        name, gpu, vgpu_slices, vcpus, speed, link_scale, price_scale, pcie_in_gbps,
        pcie_out_gbps, nvlink_gbps, staging_mb,
    }
}
record! { ServerTopology { gpus_per_server, tor_gbps } }
record! { ClusterSpec { name, nodes, topology } }
record! {
    SimConfig {
        cluster, churn, charge_overhead, prewarm, warmup_exclude_ms, seed, max_sim_ms,
        validate_cluster_state, data_plane,
    }
    then checked_config
}

/// The data plane has no knobs, so an enabled one is `true` (a disabled
/// one is `null`, like every `None`).
impl Codec for DataPlaneConfig {
    fn encode(&self) -> Value {
        true.into()
    }

    fn decode(v: &Value, at: At) -> Result<Self, TraceError> {
        match bool::decode(v, at)? {
            true => Ok(DataPlaneConfig::default()),
            false => Err(schema(format!(
                "{} is false (a disabled plane is null)",
                at()
            ))),
        }
    }
}

fn checked_grid(g: ConfigGrid) -> Result<ConfigGrid, String> {
    if [&g.batches, &g.vcpus, &g.vgpus]
        .iter()
        .any(|l| l.is_empty() || l.contains(&0))
    {
        return Err("dimensions must be non-empty lists of >= 1".into());
    }
    Ok(ConfigGrid::new(g.batches, g.vcpus, g.vgpus))
}

/// The tariff check every run makes.
fn checked_transfer(t: TransferModel) -> Result<TransferModel, String> {
    validate_transfer(&t).map_err(|e| format!("rejected: {e}"))?;
    Ok(t)
}

/// [`SimConfig::validate`], the check every run makes: a config a run
/// would refuse is [`TraceError::Schema`], not a replay error.
fn checked_config(cfg: SimConfig) -> Result<SimConfig, String> {
    cfg.validate().map_err(|e| format!("rejected: {e}"))?;
    Ok(cfg)
}

/// A struct stored by position: an array of its listed fields where it
/// stands alone (an arrival), or spread over consecutive slots inside a
/// tagged array (a queue key takes 2, a configuration 3). `then` checks
/// the decoded value.
macro_rules! positional {
    ($ty:ident [$($field:ident),*] $(then $check:path)?) => {
        impl Codec for $ty {
            fn encode(&self) -> Value {
                let mut out = Vec::new();
                self.put(&mut out);
                Value::Array(out)
            }

            fn decode(v: &Value, at: At) -> Result<Self, TraceError> {
                let mut slots = Slots::new(v, at)?;
                let value = Self::take(&mut slots)?;
                slots.end()?;
                Ok(value)
            }

            fn put(&self, out: &mut Vec<Value>) {
                $(self.$field.put(out);)*
            }

            fn take(slots: &mut Slots<'_>) -> Result<Self, TraceError> {
                let value = $ty { $($field: Codec::take(slots)?),* };
                $(let value = $check(value).map_err(|e| slots.error(&e))?;)?
                Ok(value)
            }
        }
    };
}

positional!(Arrival [at_ms, app]);
positional!(QueueKey [app, stage]);
positional!(Config [batch, vcpus, vgpus] then checked_dimensions);

fn checked_dimensions(c: Config) -> Result<Config, String> {
    match c.batch.min(c.vcpus).min(c.vgpus) {
        0 => Err("has configuration dimensions below 1".into()),
        _ => Ok(c),
    }
}

/// An enum stored as a tagged array: a variant's tag, then (after any
/// slots the enclosing record puts first) its listed fields' slots.
trait Tagged: Sized {
    /// Appends the variant's field slots and returns its tag.
    fn put_fields(&self, out: &mut Vec<Value>) -> &'static str;
    /// Reads the fields of the variant `tag` names.
    fn take_fields(tag: &str, slots: &mut Slots<'_>) -> Result<Self, TraceError>;
}

macro_rules! tagged {
    ($ty:ident { $($variant:ident $tag:literal { $($field:ident),* }),* $(,)? }) => {
        impl Tagged for $ty {
            fn put_fields(&self, out: &mut Vec<Value>) -> &'static str {
                match self {
                    $($ty::$variant { $($field),* } => {
                        $($field.put(out);)*
                        $tag
                    })*
                }
            }

            fn take_fields(tag: &str, slots: &mut Slots<'_>) -> Result<Self, TraceError> {
                Ok(match tag {
                    $($tag => $ty::$variant { $($field: Codec::take(slots)?),* },)*
                    other => return Err(slots.error(&format!("has an unknown tag {other:?}"))),
                })
            }
        }
    };
}

tagged!(EventKind {
    JobArrived "J" { key, invocation },
    Dispatched "D" { key, config, node, jobs },
    TaskCompleted "T" { key, config, node },
    Churn "C" { node, joined },
    QueueShed "S" { key, jobs, reason },
    RecheckTick "R" {},
    TransferStarted "TS" { node, mb },
    TransferQueued "TQ" { node, mb },
    TransferCompleted "TC" { node, mb },
});
tagged!(ChurnEvent {
    Drain "drain" { at_ms, node },
    Join "join" { at_ms, class },
});

/// `[tag, head.., fields..]`.
fn encode_tagged<T: Tagged>(head: Option<Value>, value: &T) -> Value {
    let mut out = vec![Value::Null];
    out.extend(head);
    let tag = value.put_fields(&mut out);
    out[0] = tag.into();
    Value::Array(out)
}

/// Reads a tagged array's tag, then the rest with `read`, which must use
/// every slot.
fn decode_tagged<T>(
    v: &Value,
    at: At,
    read: impl FnOnce(&str, &mut Slots<'_>) -> Result<T, TraceError>,
) -> Result<T, TraceError> {
    let mut slots = Slots::new(v, at)?;
    let tag = String::take(&mut slots)?;
    let value = read(&tag, &mut slots)?;
    slots.end()?;
    Ok(value)
}

impl Codec for ChurnEvent {
    fn encode(&self) -> Value {
        encode_tagged(None, self)
    }

    fn decode(v: &Value, at: At) -> Result<Self, TraceError> {
        decode_tagged(v, at, Self::take_fields)
    }
}

/// An event puts its time right after the tag.
impl Codec for EventRecord {
    fn encode(&self) -> Value {
        encode_tagged(Some(self.now_ms.into()), &self.kind)
    }

    fn decode(v: &Value, at: At) -> Result<Self, TraceError> {
        decode_tagged(v, at, |tag, slots| {
            Ok(EventRecord {
                now_ms: Codec::take(slots)?,
                kind: EventKind::take_fields(tag, slots)?,
            })
        })
    }
}

/// A churn plan is its bare event array.
impl Codec for ChurnPlan {
    fn encode(&self) -> Value {
        self.events.encode()
    }

    fn decode(v: &Value, at: At) -> Result<Self, TraceError> {
        Codec::decode(v, at).map(|events| ChurnPlan { events })
    }
}

#[cfg(test)]
fn encode_event(r: &EventRecord) -> Value {
    r.encode()
}

#[cfg(test)]
fn decode_event(v: &Value, idx: usize) -> Result<EventRecord, TraceError> {
    EventRecord::decode(v, &|| format!("events[{idx}]"))
}

#[cfg(test)]
fn config_to_json(cfg: &SimConfig) -> Value {
    cfg.encode()
}

#[cfg(test)]
fn config_from_json(doc: &Value) -> Result<SimConfig, TraceError> {
    SimConfig::decode(doc, &|| "config".to_string())
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
            data_plane: Some(DataPlaneConfig::default()),
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
        let earlier = [relabelled(1), relabelled(2), relabelled(3)];
        for (found, doc) in earlier.into_iter().chain([(1, v1_0.to_string())]) {
            assert_eq!(
                TraceFile::from_json(&doc).err(),
                Some(TraceError::Version {
                    found,
                    supported: 4
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
