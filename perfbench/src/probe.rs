//! Scheduler wrappers that observe the `esg-core` layer from outside.
//!
//! * [`Digesting`] is the untraced wrapper: it forwards every call
//!   unchanged and folds the dispatch/churn/shed events it sees into a
//!   running [`Fnv`] digest.
//! * [`Probe`] (outer) and [`Timed`] (inner) are the traced pair. The
//!   provided `Scheduler::schedule_round` calls `self.schedule`, so one
//!   level cannot time both: the outer level overrides and times
//!   `schedule_round`, `place` and `on_event`; the inner level keeps the
//!   provided `schedule_round`, forwards `round_policy` to the ESG stack,
//!   and times each nested `schedule`. Round self time is the outer span
//!   minus the inner level's nested spans.
//!
//! Per-call latencies go into fixed log buckets ([`LogHist`]), so tracing
//! memory does not grow with run length.

use esg_model::{Config, NodeId};
use esg_sim::{
    dispatch_trace, Capabilities, EventRecord, Outcome, PolicySpec, PolicyStack, QueueKey,
    RoundCtx, SchedCtx, Scheduler, SchedulerEvent, SchedulerStats,
};
use std::time::Instant;

/// Linear sub-buckets per power of two: relative bucket width 1/16.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A fixed-size log-bucketed histogram of nanosecond durations. The
/// reported percentile is its bucket's midpoint (error ≤ 1/32 relative).
#[derive(Clone)]
pub struct LogHist {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }
}

impl LogHist {
    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) as usize & (SUB - 1);
        (exp - SUB_BITS + 1) as usize * SUB + sub
    }

    fn midpoint(idx: usize) -> f64 {
        if idx < SUB {
            return idx as f64;
        }
        let exp = (idx / SUB) as u32 + SUB_BITS - 1;
        let width = 1u64 << (exp - SUB_BITS);
        let lo = (1u64 << exp) + (idx % SUB) as u64 * width;
        lo as f64 + width as f64 / 2.0
    }

    /// Adds one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// The `q`-quantile (0..=1) in nanoseconds; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::midpoint(i);
            }
        }
        unreachable!("rank never exceeds the sample total")
    }
}

/// Calls, summed nanoseconds and the latency histogram of one layer
/// boundary.
#[derive(Clone, Default)]
pub struct Clock {
    /// Calls observed.
    pub calls: u64,
    /// Summed duration, ns.
    pub ns: u64,
    /// Per-call durations.
    pub hist: LogHist,
}

impl Clock {
    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
        self.hist.record(ns);
    }

    /// Summed duration, ms.
    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }

    /// 99.9th-percentile call duration, µs.
    pub fn p999_us(&self) -> f64 {
        self.hist.quantile_ns(0.999) / 1e3
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

/// A streaming FNV-1a digest of the canonical dispatch/churn/shed trace:
/// it equals `esg_sim::fnv64(&dispatch_trace(..))` without buffering the
/// trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf29ce484222325)
    }
}

impl Fnv {
    /// Folds one control-plane event as `dispatch_trace` renders it (an
    /// empty string, with no allocation, for every event kind other than
    /// dispatch, churn and shed).
    pub fn fold(&mut self, event: &SchedulerEvent<'_>) {
        let record = EventRecord::capture(event);
        for b in dispatch_trace(std::iter::once(&record)).bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// Untraced wrapper: forwards everything, digests the event stream.
pub struct Digesting<S> {
    /// The wrapped scheduler.
    pub inner: S,
    /// Digest of the dispatch/churn/shed events seen so far.
    pub digest: Fnv,
}

impl<S> Digesting<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Digesting {
            inner,
            digest: Fnv::default(),
        }
    }
}

impl<S: Scheduler> Scheduler for Digesting<S> {
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
    fn adopt_policy(&mut self, spec: &PolicySpec) -> bool {
        self.inner.adopt_policy(spec)
    }
    fn schedule_round(&mut self, ctx: &RoundCtx<'_>) -> Vec<(QueueKey, Outcome)> {
        self.inner.schedule_round(ctx)
    }
    fn on_event(&mut self, event: &SchedulerEvent<'_>) {
        self.digest.fold(event);
        self.inner.on_event(event);
    }
    fn stats(&self) -> SchedulerStats {
        self.inner.stats()
    }
}

/// Inner traced level: times each `schedule` call and classifies it by
/// the scheduler's own counters. Does not override `schedule_round`.
pub struct Timed<S> {
    inner: S,
    /// Calls that ran at least one search.
    pub search: Clock,
    /// Calls answered from the plan cache without a search.
    pub hit: Clock,
    /// Calls that neither searched nor hit (batch-formation holds, skips).
    pub hold: Clock,
    /// Time spent diffing counters around each call (tracing cost that
    /// sits inside a core span but belongs to no core layer), ns.
    pub probe_ns: u64,
    /// Everything spent inside `schedule`, counter diffs included, ns;
    /// the outer level subtracts it from the round span.
    nested_ns: u64,
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }
    fn schedule(&mut self, ctx: &SchedCtx<'_>) -> Outcome {
        let t0 = Instant::now();
        let before = self.inner.stats();
        let t1 = Instant::now();
        let outcome = self.inner.schedule(ctx);
        let t2 = Instant::now();
        let after = self.inner.stats();
        let t3 = Instant::now();
        let call = ns_between(t1, t2);
        let clock = if after.searches != before.searches {
            &mut self.search
        } else if after.plan_cache_hits != before.plan_cache_hits {
            &mut self.hit
        } else {
            &mut self.hold
        };
        clock.record(call);
        let whole = ns_between(t0, t3);
        self.nested_ns += whole;
        self.probe_ns += whole - call;
        outcome
    }
    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
        self.inner.place(ctx, config)
    }
    fn round_policy(&mut self) -> Option<&mut PolicyStack> {
        self.inner.round_policy()
    }
    fn adopt_policy(&mut self, spec: &PolicySpec) -> bool {
        self.inner.adopt_policy(spec)
    }
    fn on_event(&mut self, event: &SchedulerEvent<'_>) {
        self.inner.on_event(event);
    }
    fn stats(&self) -> SchedulerStats {
        self.inner.stats()
    }
}

/// Outer traced level: times rounds (self time), placement and event
/// delivery, and digests the event stream like [`Digesting`].
pub struct Probe<S> {
    /// The inner level (per-`schedule` clocks).
    pub timed: Timed<S>,
    /// `schedule_round` self time: the span minus nested `schedule` calls.
    pub round: Clock,
    /// `place` calls.
    pub place: Clock,
    /// `on_event` calls.
    pub on_event: Clock,
    /// Decisions returned by rounds that charge a decision in the
    /// platform (everything except sheds).
    pub charged_decisions: u64,
    /// Digest of the dispatch/churn/shed events seen so far.
    pub digest: Fnv,
}

impl<S> Probe<S> {
    /// Wraps `inner` in both levels.
    pub fn new(inner: S) -> Self {
        Probe {
            timed: Timed {
                inner,
                search: Clock::default(),
                hit: Clock::default(),
                hold: Clock::default(),
                probe_ns: 0,
                nested_ns: 0,
            },
            round: Clock::default(),
            place: Clock::default(),
            on_event: Clock::default(),
            charged_decisions: 0,
            digest: Fnv::default(),
        }
    }

    /// Every nanosecond attributed to the core layer (all clocks plus the
    /// counter-diff cost inside them).
    pub fn core_ns(&self) -> u64 {
        let t = &self.timed;
        self.round.ns
            + t.search.ns
            + t.hit.ns
            + t.hold.ns
            + t.probe_ns
            + self.place.ns
            + self.on_event.ns
    }
}

impl<S: Scheduler> Scheduler for Probe<S> {
    fn name(&self) -> &'static str {
        self.timed.name()
    }
    fn capabilities(&self) -> Capabilities {
        self.timed.capabilities()
    }
    fn schedule(&mut self, ctx: &SchedCtx<'_>) -> Outcome {
        self.timed.schedule(ctx)
    }
    fn schedule_round(&mut self, ctx: &RoundCtx<'_>) -> Vec<(QueueKey, Outcome)> {
        let nested_before = self.timed.nested_ns;
        let t0 = Instant::now();
        let decisions = self.timed.schedule_round(ctx);
        let span = ns_between(t0, Instant::now());
        let nested = self.timed.nested_ns - nested_before;
        self.round.record(span.saturating_sub(nested));
        self.charged_decisions += decisions.iter().filter(|(_, o)| o.shed.is_none()).count() as u64;
        decisions
    }
    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
        let t0 = Instant::now();
        let node = self.timed.place(ctx, config);
        self.place.record(ns_between(t0, Instant::now()));
        node
    }
    fn round_policy(&mut self) -> Option<&mut PolicyStack> {
        self.timed.round_policy()
    }
    fn adopt_policy(&mut self, spec: &PolicySpec) -> bool {
        self.timed.adopt_policy(spec)
    }
    fn on_event(&mut self, event: &SchedulerEvent<'_>) {
        self.digest.fold(event);
        let t0 = Instant::now();
        self.timed.on_event(event);
        self.on_event.record(ns_between(t0, Instant::now()));
    }
    fn stats(&self) -> SchedulerStats {
        self.timed.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_core::EsgScheduler;
    use esg_model::{standard_app_ids, ChurnPlan, NodeId, SloClass, WorkloadClass};
    use esg_sim::{SimConfig, SimEnv, Simulation, Traced};
    use esg_workload::ArrivalStream;

    /// Runs a short churned simulation under `sched`.
    fn short_run(sched: &mut dyn Scheduler) -> esg_sim::ExperimentResult {
        let env = SimEnv::standard(SloClass::Strict);
        let cfg = SimConfig {
            churn: ChurnPlan::none().drain(2_000.0, NodeId(3)),
            ..SimConfig::default()
        };
        let workload =
            ArrivalStream::of_class(WorkloadClass::Heavy, standard_app_ids(), 7).until_ms(5_000.0);
        Simulation::new(&env, cfg, sched, &workload).run()
    }

    #[test]
    fn streaming_digest_matches_the_buffered_trace_digest() {
        let mut traced = Traced::new(Box::new(EsgScheduler::new()));
        short_run(&mut traced);
        let mut digesting = Digesting::new(EsgScheduler::new());
        short_run(&mut digesting);
        let mut probe = Probe::new(EsgScheduler::new());
        short_run(&mut probe);
        assert!(traced.trace().contains("C n3 drain;"));
        assert_eq!(digesting.digest.0, traced.trace_digest());
        assert_eq!(probe.digest.0, traced.trace_digest());
        assert!(probe.round.calls > 0 && probe.place.calls > 0);
    }

    #[test]
    fn log_buckets_are_monotone_and_tight() {
        let mut last = 0;
        for ns in [0u64, 1, 15, 16, 17, 31, 32, 1000, 1 << 20, u64::MAX] {
            let i = LogHist::index(ns);
            assert!(i >= last && i < BUCKETS, "{ns} -> {i}");
            last = i;
            if (16..(1 << 40)).contains(&ns) {
                let mid = LogHist::midpoint(i);
                assert!((mid - ns as f64).abs() <= ns as f64 / 16.0, "{ns} vs {mid}");
            }
        }
    }

    #[test]
    fn quantile_picks_the_rank_bucket() {
        let mut h = LogHist::default();
        for ns in 1..=1000u64 {
            h.record(ns * 1000);
        }
        let p50 = h.quantile_ns(0.5);
        assert!((p50 - 500_000.0).abs() < 500_000.0 / 16.0, "{p50}");
        let p999 = h.quantile_ns(0.999);
        assert!((p999 - 999_000.0).abs() < 999_000.0 / 16.0, "{p999}");
    }
}
