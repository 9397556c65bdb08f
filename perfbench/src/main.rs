//! Outside-in benchmark of the ESG simulator: host cost of simulating and
//! the simulated platform's SLO/cost outcomes, attributed per layer.
//!
//! ```text
//! esg-perfbench --workload <azure_replay|strict_churn|fabric_contention>
//!               --seed <n> --seconds <s> --trace <0|1>
//! esg-perfbench --workload all --seed <n> --seconds <s>
//! ```
//!
//! Simulations run one at a time on one thread. With `--trace 0` the
//! workload's independent windows are simulated round-robin, untraced,
//! as many times as fill `--seconds` at the baseline speed, and the final
//! line carries the end-to-end metrics. With `--trace 1` untraced and
//! traced simulations of window 0 alternate for `--seconds` and the final
//! line carries the per-layer metrics. `all` does both for every workload
//! and runs the baseline shape checks. The last line of standard output
//! is one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. See README.md.

mod probe;
mod workloads;

use esg_sim::{ExperimentResult, MemoryFootprint, Scheduler, Simulation};
use probe::{Digesting, Probe};
use serde_json::{Map, Value};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Arrivals, Inputs, Kind};

/// Passes over its windows an end-to-end run makes at least, whatever
/// `--seconds` says: every window is simulated twice, so each has a
/// repeat to check determinism against and a minimum of two samples.
const MIN_PASSES: usize = 2;
/// Set-ups (built, not run) an end-to-end run times after each
/// simulation, of the window just simulated.
const SETUP_REPEATS: usize = 3;
/// Traced simulations a per-layer run makes at least.
const MIN_TRACED: usize = 3;
/// Samples that must lie beyond the reported latency tail percentile.
const TAIL_SAMPLES: u64 = 10;

/// The simulated outcome of one window. Everything here is a pure
/// function of the workload and window seed, so repetitions must agree
/// exactly.
#[derive(Clone, Debug, PartialEq)]
struct SimOutcome {
    arrivals: u64,
    completed: u64,
    shed: u64,
    slo_hits: u64,
    cost_cents: f64,
    latency_samples: u64,
    latency_p50_ms: f64,
    latency_p999_ms: f64,
    digest: u64,
    decisions: u64,
    dispatches: u64,
    rechecks: u64,
    forced_min: u64,
    searches: u64,
    plan_cache_hits: u64,
    plan_cache_misses: u64,
    transfers: u64,
    replans: u64,
    queued: u64,
    peak_pending_events: u64,
    peak_live_invocations: u64,
    metric_samples: u64,
}

impl SimOutcome {
    fn new(r: &ExperimentResult, fp: &MemoryFootprint, digest: u64) -> SimOutcome {
        let mut lat: Vec<f64> = r
            .apps
            .iter()
            .flat_map(|a| a.latencies_ms.iter().copied())
            .collect();
        lat.sort_by(f64::total_cmp);
        let s = &r.scheduler_stats;
        SimOutcome {
            arrivals: r.arrivals,
            completed: r.total_completed(),
            shed: r.shed_invocations,
            slo_hits: r.apps.iter().map(|a| a.slo_hits).sum(),
            cost_cents: r.total_cost_cents(),
            latency_samples: lat.len() as u64,
            latency_p50_ms: nearest_rank(&lat, 0.5),
            latency_p999_ms: nearest_rank(&lat, 0.999),
            digest,
            decisions: r.overhead_ms.len() as u64,
            dispatches: r.dispatches,
            rechecks: r.rechecks,
            forced_min: r.forced_min_dispatches,
            searches: s.searches,
            plan_cache_hits: s.plan_cache_hits,
            plan_cache_misses: s.plan_cache_misses,
            transfers: r.transfers.started,
            replans: r.transfers.replans,
            queued: r.transfers.queued,
            peak_pending_events: fp.peak_pending_events as u64,
            peak_live_invocations: fp.peak_live_invocations as u64,
            metric_samples: (r.overhead_ms.len()
                + r.wall_overhead_ms.len()
                + r.apps.iter().map(|a| a.latencies_ms.len()).sum::<usize>())
                as u64,
        }
    }

    fn failed(&self) -> u64 {
        self.arrivals.saturating_sub(self.completed)
    }

    /// Samples strictly beyond the p99.9 rank.
    fn tail_samples(&self) -> u64 {
        let n = self.latency_samples;
        n - ((0.999 * n as f64).ceil() as u64).min(n)
    }

    /// Conservation and tail-size checks of one window.
    fn check(&self, what: &str, fail: &mut Vec<String>) {
        if self.arrivals != self.completed + self.shed {
            fail.push(format!(
                "{what}: arrivals {} != completed {} + shed {}",
                self.arrivals, self.completed, self.shed
            ));
        }
        if self.tail_samples() < TAIL_SAMPLES {
            fail.push(format!(
                "{what}: only {} latency samples lie beyond p99.9; need {TAIL_SAMPLES}",
                self.tail_samples()
            ));
        }
    }
}

/// Nearest-rank quantile of sorted values (0 when empty).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_secs(d: impl Iterator<Item = Duration>) -> f64 {
    median(d.map(|d| d.as_secs_f64()).collect())
}

/// One simulated window: run time and what it simulated.
struct Window {
    run: Duration,
    out: SimOutcome,
}

/// Builds the window's inputs, wraps its scheduler and constructs the
/// `Simulation` (the set-up), then hands the simulation to `then`.
/// Returns the wrapped scheduler and what `then` returned.
fn with_simulation<S: Scheduler, R>(
    kind: Kind,
    seed: u64,
    wrap: impl FnOnce(esg_core::EsgScheduler) -> S,
    then: impl FnOnce(Simulation<'_>) -> R,
) -> (S, R) {
    let Inputs { env, cfg, arrivals } = workloads::inputs(kind, seed);
    let mut sched = wrap(workloads::scheduler(kind));
    let r = match arrivals {
        Arrivals::Streamed(stream) => then(Simulation::from_stream(&env, cfg, &mut sched, *stream)),
        Arrivals::Materialised(workload) => then(Simulation::new(&env, cfg, &mut sched, &workload)),
    };
    (sched, r)
}

/// Sets up one window without running it; returns the set-up time.
fn set_up(kind: Kind, seed: u64) -> Duration {
    let t0 = Instant::now();
    with_simulation(kind, seed, Digesting::new, |sim| {
        let setup = t0.elapsed();
        drop(black_box(sim));
        setup
    })
    .1
}

/// Sets up and runs one window; only the run is timed.
fn simulate<S: Scheduler>(
    kind: Kind,
    seed: u64,
    wrap: impl FnOnce(esg_core::EsgScheduler) -> S,
) -> (S, Window) {
    let (sched, (r, fp, run)) = with_simulation(kind, seed, wrap, |sim| {
        let t0 = Instant::now();
        let (r, fp) = sim.run_with_footprint();
        (r, fp, t0.elapsed())
    });
    let out = SimOutcome::new(&r, &fp, 0);
    (sched, Window { run, out })
}

fn run_untraced(kind: Kind, seed: u64) -> Window {
    let (sched, mut w) = simulate(kind, seed, Digesting::new);
    w.out.digest = sched.digest.0;
    w
}

/// One traced simulation plus the separately timed arrival pull.
struct TracedWindow {
    window: Window,
    probe: Probe<esg_core::EsgScheduler>,
    pull_ns_per_arrival: f64,
    pulled: u64,
}

fn run_traced(kind: Kind, seed: u64) -> TracedWindow {
    let (probe, mut window) = simulate(kind, seed, Probe::new);
    window.out.digest = probe.digest.0;
    // `ArrivalStream` is a concrete type the platform pulls directly, so
    // it is timed beside the run: drain a fresh, identical stream.
    let stream = workloads::stream(kind, seed);
    let t0 = Instant::now();
    let pulled = match workloads::window_ms(kind) {
        None => black_box(stream).count(),
        Some(ms) => black_box(stream).take_while(|a| a.at_ms <= ms).count(),
    } as u64;
    let pull = t0.elapsed();
    TracedWindow {
        window,
        probe,
        pull_ns_per_arrival: ratio(pull.as_nanos() as f64, pulled as f64),
        pulled,
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The untraced end-to-end runs of one workload: simulations of its
/// windows, round-robin, so `runs[n]` is window `n % windows`.
struct EndToEnd {
    windows: usize,
    peak_rss_mb: f64,
    runs: Vec<Window>,
    /// `setup_s[n]`: the fastest of the [`SETUP_REPEATS`] set-ups timed
    /// after `runs[n]`, s.
    setup_s: Vec<f64>,
    failures: Vec<String>,
}

impl EndToEnd {
    /// The first pass: one simulation of every window.
    fn first_pass(&self) -> &[Window] {
        &self.runs[..self.windows]
    }

    /// Each window's smallest sample, mean over windows; `samples[n]`
    /// belongs to window `n % windows`, like `runs[n]`.
    fn mean_window_minimum(&self, samples: impl Iterator<Item = f64>) -> f64 {
        let mut fastest = vec![f64::INFINITY; self.windows];
        for (n, s) in samples.enumerate() {
            let f = &mut fastest[n % self.windows];
            *f = f.min(s);
        }
        fastest.iter().sum::<f64>() / self.windows as f64
    }
}

/// Simulations an end-to-end run makes: as many as fill `seconds` at the
/// baseline speed, and at least [`MIN_PASSES`] passes. The count depends
/// on the workload and `seconds` only, so every build takes its minima
/// over the same samples.
fn simulations(kind: Kind, seconds: f64) -> usize {
    let windows = workloads::windows(kind) as usize;
    let fill = (seconds / workloads::baseline_window_s(kind)).round() as usize;
    fill.max(MIN_PASSES * windows)
}

/// Simulates the windows round-robin [`simulations`] times, timing
/// [`SETUP_REPEATS`] set-ups of the window after each simulation, so the
/// set-up samples are spread over the run like the simulations. Window 0
/// is the first simulation of the process, so the process peak RSS read
/// right after it is that simulation's peak.
fn measure_end_to_end(kind: Kind, seed: u64, seconds: f64) -> Result<EndToEnd, String> {
    let windows = workloads::windows(kind) as usize;
    let window_seed = |n: usize| workloads::window_seed(seed, (n % windows) as u64);
    let fastest_set_up = |n: usize| {
        (0..SETUP_REPEATS)
            .map(|_| set_up(kind, window_seed(n)).as_secs_f64())
            .fold(f64::INFINITY, f64::min)
    };
    let mut runs = vec![run_untraced(kind, window_seed(0))];
    let peak_rss_mb = peak_rss_mb()?;
    let mut setup_s = vec![fastest_set_up(0)];
    while runs.len() < simulations(kind, seconds) {
        let n = runs.len();
        runs.push(run_untraced(kind, window_seed(n)));
        setup_s.push(fastest_set_up(n));
    }
    let mut failures = Vec::new();
    for (i, w) in runs[..windows].iter().enumerate() {
        w.out.check(&format!("window {i}"), &mut failures);
    }
    for (n, w) in runs.iter().enumerate().skip(windows) {
        let first = &runs[n % windows].out;
        if &w.out != first {
            failures.push(format!(
                "window {} diverged on simulation {n}:\n  {:?}\nvs\n  {first:?}",
                n % windows,
                w.out
            ));
        }
    }
    Ok(EndToEnd {
        windows,
        peak_rss_mb,
        runs,
        setup_s,
        failures,
    })
}

/// The per-layer runs of one workload: untraced and traced simulations
/// of window 0, alternating.
struct PerLayer {
    plain: Vec<Window>,
    traced: Vec<TracedWindow>,
    failures: Vec<String>,
}

fn measure_per_layer(kind: Kind, seed: u64, seconds: f64) -> PerLayer {
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while traced.len() < MIN_TRACED || start.elapsed().as_secs_f64() < seconds {
        plain.push(run_untraced(kind, seed));
        traced.push(run_traced(kind, seed));
    }
    let mut failures = Vec::new();
    let reference = &plain[0].out;
    reference.check("window 0", &mut failures);
    let outs = plain
        .iter()
        .map(|w| ("untraced", &w.out))
        .chain(traced.iter().map(|t| ("traced", &t.window.out)));
    for (what, o) in outs {
        if o != reference {
            failures.push(format!(
                "{what} run diverged from the first untraced run:\n  {o:?}\nvs\n  {reference:?}"
            ));
        }
    }
    for t in &traced {
        reconcile(t, &mut failures);
    }
    PerLayer {
        plain,
        traced,
        failures,
    }
}

/// The wrapper's counts must agree with what the platform recorded.
fn reconcile(t: &TracedWindow, fail: &mut Vec<String>) {
    let (p, o) = (&t.probe, &t.window.out);
    // Rounds can return more than one charged decision (admission
    // defers), so the exact identity is over returned decisions; with
    // the classic stack it is one per round.
    if p.charged_decisions != o.decisions {
        fail.push(format!(
            "rounds returned {} charged decisions, the platform recorded {}",
            p.charged_decisions, o.decisions
        ));
    }
    if p.round.calls > o.decisions {
        fail.push(format!(
            "core.round.calls {} > sim.decisions {}",
            p.round.calls, o.decisions
        ));
    }
    if p.timed.search.calls > o.searches {
        fail.push(format!(
            "core.schedule.search.calls {} > core.searches {}",
            p.timed.search.calls, o.searches
        ));
    }
    if p.place.calls < o.dispatches {
        fail.push(format!(
            "core.place.calls {} < sim.dispatches {}",
            p.place.calls, o.dispatches
        ));
    }
    if u128::from(p.core_ns()) > t.window.run.as_nanos() {
        fail.push("core time exceeds the traced wall time".to_string());
    }
    if t.pulled != o.arrivals {
        fail.push(format!(
            "a fresh stream yielded {} arrivals, the run saw {}",
            t.pulled, o.arrivals
        ));
    }
}

/// Direction in which a metric improves.
#[derive(Clone, Copy)]
enum Better {
    Lower,
    Higher,
}

/// One reported metric.
#[derive(Clone)]
struct Metric {
    name: String,
    unit: &'static str,
    better: Better,
    value: f64,
}

fn metric(name: &str, unit: &'static str, better: Better, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        value,
    }
}

/// Host µs per arrived invocation of one simulation.
fn host_us(w: &Window) -> f64 {
    w.run.as_secs_f64() * 1e6 / w.out.arrivals as f64
}

/// End-to-end metrics. Host time: per window, the fastest of its
/// simulations' µs per arrival (interference from other work on the
/// machine only adds time, so the minimum is the steadiest estimate of
/// the program's own cost), mean over windows. Set-up: the same statistic
/// over the set-ups timed after each simulation. Simulated outcomes:
/// counts pooled over the windows; latency percentiles per window, mean
/// over windows (a window's p99.9 falls in one of two modes ~10 % apart,
/// so a median over windows jumps between them from seed to seed).
fn end_to_end(e: &EndToEnd) -> Vec<Metric> {
    use Better::*;
    let first = e.first_pass();
    let sum = |f: fn(&SimOutcome) -> u64| first.iter().map(|w| f(&w.out)).sum::<u64>() as f64;
    let arrivals = sum(|o| o.arrivals);
    let completed = sum(|o| o.completed);
    let cost: f64 = first.iter().map(|w| w.out.cost_cents).sum();
    let per_window = |f: fn(&SimOutcome) -> f64| {
        first.iter().map(|w| f(&w.out)).sum::<f64>() / first.len() as f64
    };
    vec![
        metric(
            "host_us_per_inv",
            "us",
            Lower,
            e.mean_window_minimum(e.runs.iter().map(host_us)),
        ),
        metric("peak_rss_mb", "MB", Lower, e.peak_rss_mb),
        metric(
            "setup_s",
            "s",
            Lower,
            e.mean_window_minimum(e.setup_s.iter().copied()),
        ),
        metric(
            "gslo_hit_rate",
            "ratio",
            Higher,
            ratio(sum(|o| o.slo_hits), arrivals),
        ),
        metric("cost_cents_per_inv", "cents", Lower, ratio(cost, completed)),
        metric(
            "sim_latency_p50_ms",
            "ms",
            Lower,
            per_window(|o| o.latency_p50_ms),
        ),
        metric(
            "sim_latency_p999_ms",
            "ms",
            Lower,
            per_window(|o| o.latency_p999_ms),
        ),
        metric(
            "completed_frac",
            "ratio",
            Higher,
            ratio(completed, arrivals),
        ),
    ]
}

/// Per-layer metrics from the traced simulation with the median wall
/// time (one simulation, so its layer times sum to its wall time).
fn per_layer(l: &PerLayer) -> Vec<Metric> {
    use Better::*;
    let mut by_wall: Vec<&TracedWindow> = l.traced.iter().collect();
    by_wall.sort_by_key(|t| t.window.run);
    let t = by_wall[by_wall.len() / 2];
    let (p, inner, o) = (&t.probe, &t.probe.timed, &t.window.out);
    let wall_ms = t.window.run.as_secs_f64() * 1e3;
    let traced_s = median_secs(l.traced.iter().map(|t| t.window.run));
    let untraced_s = median_secs(l.plain.iter().map(|w| w.run));
    let lookups = o.plan_cache_hits + o.plan_cache_misses;
    let count = |name: &str, better, v: u64| metric(name, "count", better, v as f64);
    vec![
        count("workload.arrivals", Higher, t.pulled),
        metric(
            "workload.pull_ns_per_arrival",
            "ns",
            Lower,
            median(l.traced.iter().map(|t| t.pull_ns_per_arrival).collect()),
        ),
        count("core.round.calls", Lower, p.round.calls),
        metric("core.round.self_ms", "ms", Lower, p.round.ms()),
        metric("core.round.p999_us", "us", Lower, p.round.p999_us()),
        count("core.schedule.search.calls", Lower, inner.search.calls),
        metric("core.schedule.search.ms", "ms", Lower, inner.search.ms()),
        metric(
            "core.schedule.search.p999_us",
            "us",
            Lower,
            inner.search.p999_us(),
        ),
        count("core.schedule.hit.calls", Lower, inner.hit.calls),
        metric("core.schedule.hit.ms", "ms", Lower, inner.hit.ms()),
        count("core.schedule.hold.calls", Lower, inner.hold.calls),
        metric("core.schedule.hold.ms", "ms", Lower, inner.hold.ms()),
        count("core.place.calls", Lower, p.place.calls),
        metric("core.place.ms", "ms", Lower, p.place.ms()),
        count("core.on_event.calls", Lower, p.on_event.calls),
        metric("core.on_event.ms", "ms", Lower, p.on_event.ms()),
        metric(
            "core.trace_probe_ms",
            "ms",
            Lower,
            inner.probe_ns as f64 / 1e6,
        ),
        count("core.searches", Lower, o.searches),
        count("core.plan_cache_lookups", Lower, lookups),
        metric(
            "core.plan_cache_hit_rate",
            "ratio",
            Higher,
            ratio(o.plan_cache_hits as f64, lookups as f64),
        ),
        metric(
            "sim.self_ms",
            "ms",
            Lower,
            wall_ms - p.core_ns() as f64 / 1e6,
        ),
        metric("sim.traced_wall_ms", "ms", Lower, wall_ms),
        count("sim.decisions", Lower, o.decisions),
        count("sim.dispatches", Lower, o.dispatches),
        metric(
            "sim.dispatch_yield",
            "ratio",
            Higher,
            ratio(o.dispatches as f64, o.decisions as f64),
        ),
        count("sim.rechecks", Lower, o.rechecks),
        count("sim.forced_min", Lower, o.forced_min),
        count("sim.peak_pending_events", Lower, o.peak_pending_events),
        count("sim.peak_live_invocations", Lower, o.peak_live_invocations),
        count("sim.metric_samples", Lower, o.metric_samples),
        count("sim.dataplane.transfers", Lower, o.transfers),
        count("sim.dataplane.replans", Lower, o.replans),
        metric(
            "sim.dataplane.replans_per_transfer",
            "ratio",
            Lower,
            ratio(o.replans as f64, o.transfers as f64),
        ),
        count("sim.dataplane.queued", Lower, o.queued),
        metric(
            "trace_overhead_frac",
            "ratio",
            Lower,
            traced_s / untraced_s - 1.0,
        ),
    ]
}

fn print_table(metrics: &[Metric]) {
    for m in metrics {
        let dir = match m.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        println!(
            "    {:<36} {:>16.6} {:<6} {dir} is better",
            m.name, m.value, m.unit
        );
    }
}

fn print_outcome(label: &str, o: &SimOutcome) {
    println!(
        "    {label}: arrived {} (attempted), completed {}, shed {}, failed_frac {}, \
{} latency samples ({} beyond p99.9), dispatch digest {:016x}",
        o.arrivals,
        o.completed,
        o.shed,
        ratio(o.failed() as f64, o.arrivals as f64),
        o.latency_samples,
        o.tail_samples(),
        o.digest
    );
}

fn print_end_to_end(kind: Kind, seed: u64, e: &EndToEnd, metrics: &[Metric]) {
    println!(
        "{} seed {}: end to end, untraced; {} simulations of {} windows x {} trace-minutes",
        kind.name(),
        seed,
        e.runs.len(),
        e.windows,
        workloads::TRACE_MINUTES
    );
    println!(
        "    host us/inv of each simulation, one line per pass over the windows \
(host_us_per_inv: per-window minimum, mean over windows):"
    );
    for pass in e.runs.chunks(e.windows) {
        let us: Vec<String> = pass.iter().map(|w| format!("{:8.3}", host_us(w))).collect();
        println!("     {}", us.join(" "));
    }
    for (i, w) in e.first_pass().iter().enumerate() {
        print_outcome(
            &format!(
                "window {i} (seed {})",
                workloads::window_seed(seed, i as u64)
            ),
            &w.out,
        );
    }
    print_table(metrics);
    println!(
        "    gslo_hit_rate, cost_cents_per_inv and sim_* are simulated outcomes of an \
unvalidated model: the repository holds no hardware reference results"
    );
    for f in &e.failures {
        println!("  CHECK FAILED: {f}");
    }
}

fn print_per_layer(kind: Kind, seed: u64, l: &PerLayer, metrics: &[Metric]) {
    println!(
        "{} seed {}: per layer; window 0 simulated {} times untraced and {} times \
traced, the median-wall traced simulation shown",
        kind.name(),
        seed,
        l.plain.len(),
        l.traced.len()
    );
    print_outcome("window 0", &l.plain[0].out);
    print_table(metrics);
    for f in &l.failures {
        println!("  CHECK FAILED: {f}");
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: Map) -> Value {
    let mut doc = Map::new();
    doc.insert("correct", correct);
    doc.insert("attempted", attempted);
    doc.insert("failed", failed);
    doc.insert("metrics", metrics);
    doc.into()
}

fn metrics_json(metrics: &[Metric]) -> Map {
    let mut out = Map::new();
    for m in metrics {
        let mut entry = Map::new();
        entry.insert("value", m.value);
        entry.insert("unit", m.unit);
        out.insert(m.name.as_str(), entry);
    }
    out
}

/// Runs one workload and procedure, prints its report, and returns
/// whether every check passed and its result line.
fn run_one(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<(bool, Value), String> {
    let (failures, metrics, attempted, failed) = if trace {
        let l = measure_per_layer(kind, seed, seconds);
        let metrics = per_layer(&l);
        print_per_layer(kind, seed, &l, &metrics);
        let o = &l.plain[0].out;
        (l.failures, metrics, o.arrivals, o.failed())
    } else {
        let e = measure_end_to_end(kind, seed, seconds)?;
        let metrics = end_to_end(&e);
        print_end_to_end(kind, seed, &e, &metrics);
        let first = e.first_pass();
        let attempted = first.iter().map(|w| w.out.arrivals).sum();
        let failed = first.iter().map(|w| w.out.failed()).sum();
        (e.failures, metrics, attempted, failed)
    };
    let correct = failures.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    let doc = result_json(correct, attempted, failed, metrics_json(&metrics));
    Ok((correct, doc))
}

/// `--workload all`: both procedures on every workload, each in a fresh
/// child process (so `peak_rss_mb` stays one simulation's peak), then the
/// shape checks. Metric names are prefixed with the workload.
fn run_all(seed: u64, seconds: f64) -> Result<(bool, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Map::new();
    let mut layers = Vec::new();
    for kind in Kind::ALL {
        for trace in ["0", "1"] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", kind.name(), "--trace", trace])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", kind.name()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let (report, last) = stdout
                .trim_end()
                .rsplit_once('\n')
                .ok_or(format!("{} printed no result", kind.name()))?;
            println!("{report}");
            let doc = serde_json::from_str(last).map_err(|e| format!("bad result line: {e}"))?;
            correct &= out.status.success() && doc.get("correct") == Some(&Value::Bool(true));
            if trace == "0" {
                attempted += doc.get("attempted").and_then(Value::as_u64).unwrap_or(0);
                failed += doc.get("failed").and_then(Value::as_u64).unwrap_or(0);
            }
            for (name, m) in doc
                .get("metrics")
                .and_then(Value::as_object)
                .into_iter()
                .flat_map(Map::iter)
            {
                metrics.insert(format!("{}.{name}", kind.name()), m.clone());
            }
            if trace == "1" {
                layers.push((kind, doc));
            }
        }
    }
    correct &= shape_checks(&layers);
    Ok((correct, result_json(correct, attempted, failed, metrics)))
}

/// The baseline shape checks over every workload's per-layer result:
/// the structure the exploratory probes showed, which later changes cite.
fn shape_checks(layers: &[(Kind, Value)]) -> bool {
    let get = |kind: Kind, name: &str| -> f64 {
        layers
            .iter()
            .find(|(k, _)| *k == kind)
            .and_then(|(_, doc)| doc.get("metrics")?.get(name)?.get("value")?.as_f64())
            .unwrap_or(f64::NAN)
    };
    let mut ok = true;
    println!("shape checks (baseline):");
    let mut expect = |pass: bool, what: String| {
        println!("  {} {what}", if pass { "PASS" } else { "FAIL" });
        ok &= pass;
    };
    let yield_azure = get(Kind::AzureReplay, "sim.dispatch_yield");
    let yield_strict = get(Kind::StrictChurn, "sim.dispatch_yield");
    expect(
        yield_azure < 0.2,
        format!("azure_replay sim.dispatch_yield {yield_azure:.4} < 0.2"),
    );
    expect(
        yield_strict > 0.8,
        format!("strict_churn sim.dispatch_yield {yield_strict:.4} > 0.8"),
    );
    for kind in Kind::ALL {
        let replans = get(kind, "sim.dataplane.replans");
        let want = kind == Kind::FabricContention;
        expect(
            (replans > 0.0) == want,
            format!(
                "{} sim.dataplane.replans {replans} {}",
                kind.name(),
                if want { "> 0" } else { "== 0" }
            ),
        );
    }
    let hold_azure = get(Kind::AzureReplay, "core.schedule.hold.ms");
    let hold_strict = get(Kind::StrictChurn, "core.schedule.hold.ms");
    expect(
        hold_azure >= 5.0 * hold_strict,
        format!(
            "core.schedule.hold.ms azure_replay {hold_azure:.3} >= 5 x strict_churn \
{hold_strict:.3}"
        ),
    );
    ok
}

/// What a command line asks to run.
enum Run {
    /// One workload, end to end (`--trace 0`) or per layer (`--trace 1`).
    One { kind: Kind, trace: bool },
    /// `--workload all`: both procedures on every workload (no `--trace`).
    All,
}

/// Parsed command line.
struct Args {
    run: Run,
    seed: u64,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    let run = match (workload.as_str(), trace) {
        ("all", None) => Run::All,
        ("all", Some(_)) => {
            return Err("--workload all runs both procedures; it takes no --trace".into())
        }
        (name, trace) => Run::One {
            kind: Kind::parse(name).ok_or(format!("unknown workload {name}"))?,
            trace: trace.ok_or("--trace is required")?,
        },
    };
    Ok(Args {
        run,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("esg-perfbench: {e}");
            eprintln!(
                "usage: esg-perfbench --workload \
<azure_replay|strict_churn|fabric_contention> --seed <n> --seconds <s> --trace <0|1>\n       \
esg-perfbench --workload all --seed <n> --seconds <s>"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.run {
        Run::One { kind, trace } => run_one(kind, args.seed, args.seconds, trace),
        Run::All => run_all(args.seed, args.seconds),
    };
    match result {
        Ok((correct, doc)) => {
            println!("{}", serde_json::to_string(&doc));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("esg-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
