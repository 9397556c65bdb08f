//! Scheduler-overhead microbenches: cold search vs warm plan-cache hit.
//!
//! §5.3 argues ESG's pruned search keeps per-request planning ~ms-scale;
//! this target measures our implementation's actual wall-clock planning
//! latency and the plan cache's amortisation on top of it, across
//! pipeline widths (1–8 stages) and GSLO tightness levels (tight budgets
//! prune harder, §5.3's "overhead increases with more relaxed SLO"). A
//! second table isolates the zero-alloc A\* rework: fresh allocations per
//! call vs the reused `SearchScratch` arena.
//!
//! Artifacts: `BENCH_overhead.json` under `bench_results/` (the
//! committed copy is the CI perf-gate baseline — see
//! `.github/workflows/ci.yml` and `esg-bench`'s `perf-gate` binary) and
//! the "Scheduling overhead" tables in `EXPERIMENTS.md` between the
//! `<!-- BENCH:overhead:begin/end -->` markers.
//!
//! A third ablation, `snapshot-vs-incremental`, measures the control
//! plane's cluster-visibility cost: rebuilding the scheduler-facing view
//! from scratch per decision (the pre-round-API contract,
//! `ClusterState::from_cluster`) against the incremental
//! touch-and-refresh path the platform now runs — and asserts the
//! incremental path performs **zero per-decision allocations** in steady
//! state (every node's warm buffer must stay pointer- and
//! capacity-stable across thousands of full-node and per-function
//! dispatch-shaped refreshes).
//!
//! `ESG_SMOKE=1` cuts the sample count for CI runs; case labels are
//! unchanged so smoke runs stay comparable to the committed baseline.

use criterion::{BenchmarkId, Criterion};
use esg_bench::{render_overhead_markdown, smoke_section, update_experiments_md, write_json};
use esg_core::{
    astar_search_with, astar_summary, quantize_gslo, PlanCache, PlanKey, SearchScratch, StageTable,
    StageTableMemo,
};
use esg_model::{
    standard_catalog, AppId, Config, ConfigGrid, FnId, InvocationId, NodeId, PriceModel, Resources,
    SimTime, SloClass,
};
use esg_profile::ProfileTable;
use esg_sim::{
    Capabilities, Cluster, ClusterState, JobView, Outcome, PolicyStack, QueueKey, QueueView,
    RoundCtx, RoundPolicy, SchedCtx, Scheduler, SimEnv,
};
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

const WIDTHS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
const TIGHTNESS: [(&str, f64); 3] = [("tight", 1.1), ("medium", 1.5), ("loose", 3.0)];
/// Widths for the alloc-vs-scratch ablation (medium tightness only).
const SCRATCH_WIDTHS: [usize; 3] = [2, 4, 8];
/// Cluster sizes for the snapshot-vs-incremental view ablation.
const VIEW_NODES: [usize; 2] = [16, 64];
/// Eligible-queue counts for the round-driver ablation.
const ROUND_QUEUES: [usize; 2] = [4, 16];
/// Rounds per measured iteration in the round-driver ablation (one
/// round is ~100 ns; batching lifts the case above the perf gate's
/// timer-noise floor so it is actually gated).
const ROUNDS_PER_ITER: usize = 128;

/// Full runs assert the classic empty stack's round costs at most this
/// multiple of the pre-policy driver's; smoke runs assert nothing.
const EMPTY_STACK_BOUND: f64 = 1.25;

/// The round driver's documented budget: the classic empty stack within
/// ±5 % of the pre-policy driver. Reported against the interleaved A/B
/// comparison below; nothing asserts it while the comparison's spread
/// is wider than the budget itself.
const AB_BUDGET_PCT: f64 = 5.0;
/// Rounds per timed A or B sample in the interleaved comparison (~1 ms).
const AB_ROUNDS: usize = 8_192;

/// A warmed, partially committed cluster — the steady state the platform
/// refreshes views in.
fn busy_cluster(n: usize) -> Cluster {
    let keep = SimTime::from_secs(600.0);
    let mut cluster = Cluster::new(n, Resources::new(16, 7));
    for i in 0..n as u32 {
        for f in 0..6u32 {
            cluster
                .node_mut(NodeId(i))
                .return_slot(FnId(f), SimTime::ZERO, keep, false);
        }
        assert!(cluster.node_mut(NodeId(i)).commit(Resources::new(4, 2)));
    }
    cluster
}

/// Case coordinates recorded next to each criterion report.
struct CaseMeta {
    label: String,
    kind: &'static str,
    width: usize,
    slo: &'static str,
}

/// A `width`-stage pipeline cycling through the Table-3 catalog.
fn fns_for(width: usize) -> Vec<FnId> {
    (0..width).map(|i| FnId((i % 6) as u32)).collect()
}

/// A minimal scheduler for the round-driver ablation: O(1) `schedule`,
/// so the measured cost is the provided `schedule_round` driver itself
/// (fast path vs policy pipeline), not the search.
struct DriverProbe {
    policy: Option<PolicyStack>,
}

impl Scheduler for DriverProbe {
    fn name(&self) -> &'static str {
        "driver-probe"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            gpu_sharing: true,
            inter_function_relation: false,
            adaptive: false,
            data_locality: false,
            pre_warming: false,
        }
    }

    fn schedule(&mut self, _ctx: &SchedCtx<'_>) -> Outcome {
        Outcome::single(Config::MIN, 1)
    }

    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
        ctx.cluster.most_free(config.resources())
    }

    fn round_policy(&mut self) -> Option<&mut PolicyStack> {
        self.policy.as_mut()
    }
}

/// Wall time of `AB_ROUNDS` rounds of `sched` over `ctx`, ns.
fn time_rounds(sched: &mut DriverProbe, ctx: &RoundCtx<'_>) -> f64 {
    let t0 = Instant::now();
    for _ in 0..AB_ROUNDS {
        black_box(sched.schedule_round(ctx));
    }
    t0.elapsed().as_nanos() as f64
}

/// Interleaved A/B: `pairs` pairs of (pre-policy driver, empty classic
/// stack) samples, alternating which runs first so drift and cache
/// warmth fall on both sides alike. Returns the per-pair ratios
/// `empty / pre-policy`, sorted.
fn paired_ratios(ctx: &RoundCtx<'_>, pairs: usize) -> Vec<f64> {
    let mut pre = DriverProbe { policy: None };
    let mut empty = DriverProbe {
        policy: Some(PolicyStack::new()),
    };
    // Warm both paths before the first pair.
    time_rounds(&mut pre, ctx);
    time_rounds(&mut empty, ctx);
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            let (a, b) = if i % 2 == 0 {
                let a = time_rounds(&mut pre, ctx);
                (a, time_rounds(&mut empty, ctx))
            } else {
                let b = time_rounds(&mut empty, ctx);
                (time_rounds(&mut pre, ctx), b)
            };
            b / a
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios
}

/// The `q`-quantile of sorted `xs` (nearest rank).
fn quantile(xs: &[f64], q: f64) -> f64 {
    xs[((xs.len() - 1) as f64 * q).round() as usize]
}

/// A stage that admits everything and keeps scan order through the
/// default trait methods — the cheapest non-empty pipeline.
struct PassThrough;

impl RoundPolicy for PassThrough {
    fn name(&self) -> &'static str {
        "pass-through"
    }
}

fn main() {
    let smoke = smoke_section("Scheduling overhead: cold search vs warm plan cache");
    // Smoke keeps enough samples for a stable median: the perf-gate
    // compares this run against the committed full-run baseline, and 5
    // samples under CI-runner load produced ±40% medians on µs cases.
    let samples = if smoke { 15 } else { 40 };

    let profiles = ProfileTable::build(
        &standard_catalog(),
        &ConfigGrid::default(),
        &PriceModel::default(),
    );
    let cap = profiles.grid().max_batch();
    let mut c = Criterion::default().sample_size(samples);
    let mut metas: Vec<CaseMeta> = Vec::new();
    // Interleaved round-driver comparisons: (queues, sorted ratios).
    let mut ab: Vec<(usize, Vec<f64>)> = Vec::new();

    {
        let mut group = c.benchmark_group("overhead");
        let mut scratch = SearchScratch::new();
        for &w in &WIDTHS {
            let fns = fns_for(w);
            for (slo_name, mult) in TIGHTNESS {
                let table = StageTable::build(&fns, &profiles, cap);
                // The budget the scheduler would search with: quantized
                // onto the plan-cache bucket grid.
                let gslo = quantize_gslo(table.min_total_time() * mult);

                // Cold: the miss path as the scheduler runs it — the
                // window's memoised stage table plus the dispatch-quality
                // A* (K=5, 50% premium band).
                let param = format!("w{w}/{slo_name}");
                let mut memo = StageTableMemo::new(&profiles, 1);
                group.bench_with_input(BenchmarkId::new("cold", &param), &fns, |b, fns| {
                    b.iter(|| {
                        let t = memo.table(0, fns, cap, &profiles);
                        black_box(astar_search_with(t, gslo, 5, 0.5, &mut scratch))
                    })
                });
                metas.push(CaseMeta {
                    label: format!("overhead/cold/{param}"),
                    kind: "cold",
                    width: w,
                    slo: slo_name,
                });

                // Warm: the hit path — the key from the window's table
                // slot plus an LRU lookup copying out the memoised
                // candidates.
                let key = PlanKey::new(memo.slot(0, cap), false, gslo);
                let mut cache = PlanCache::new();
                let summary = astar_summary(&table, gslo, 5, 0.5, &mut scratch);
                cache.insert(key, summary, scratch.candidates());
                let mut candidates = Vec::new();
                group.bench_with_input(BenchmarkId::new("warm", &param), &cap, |b, &cap| {
                    b.iter(|| {
                        let k = PlanKey::new(memo.slot(0, cap), false, gslo);
                        black_box(cache.get(&k, &mut candidates))
                            .expect("pre-populated key must hit")
                    })
                });
                metas.push(CaseMeta {
                    label: format!("overhead/warm/{param}"),
                    kind: "warm",
                    width: w,
                    slo: slo_name,
                });
            }
        }

        // The zero-alloc rework in isolation: identical searches, fresh
        // allocations per call vs the reused scratch arena.
        for &w in &SCRATCH_WIDTHS {
            let fns = fns_for(w);
            let table = StageTable::build(&fns, &profiles, cap);
            let gslo = quantize_gslo(table.min_total_time() * 1.5);
            let param = format!("w{w}/medium");
            group.bench_with_input(BenchmarkId::new("astar-alloc", &param), &table, |b, t| {
                b.iter(|| {
                    black_box(astar_search_with(
                        t,
                        gslo,
                        5,
                        0.5,
                        &mut SearchScratch::new(),
                    ))
                })
            });
            metas.push(CaseMeta {
                label: format!("overhead/astar-alloc/{param}"),
                kind: "astar-alloc",
                width: w,
                slo: "medium",
            });
            group.bench_with_input(BenchmarkId::new("astar-scratch", &param), &table, |b, t| {
                b.iter(|| black_box(astar_search_with(t, gslo, 5, 0.5, &mut scratch)))
            });
            metas.push(CaseMeta {
                label: format!("overhead/astar-scratch/{param}"),
                kind: "astar-scratch",
                width: w,
                slo: "medium",
            });
        }

        // Snapshot-vs-incremental view ablation: what one decision's
        // cluster visibility costs under the old rebuild contract vs the
        // new in-place refresh (one dispatch-shaped touch per decision).
        for &n in &VIEW_NODES {
            let cluster = busy_cluster(n);
            let now = SimTime::from_ms(10.0);
            let param = format!("n{n}");
            group.bench_with_input(
                BenchmarkId::new("view-snapshot", &param),
                &cluster,
                |b, c| b.iter(|| black_box(ClusterState::from_cluster(c, now))),
            );
            metas.push(CaseMeta {
                label: format!("overhead/view-snapshot/{param}"),
                kind: "view-snapshot",
                width: n,
                slo: "n/a",
            });
            let mut state = ClusterState::from_cluster(&cluster, now);
            group.bench_with_input(
                BenchmarkId::new("view-incremental", &param),
                &cluster,
                |b, c| {
                    b.iter(|| {
                        state.touch(NodeId(0));
                        state.refresh(c, now);
                        black_box(&state);
                    })
                },
            );
            metas.push(CaseMeta {
                label: format!("overhead/view-incremental/{param}"),
                kind: "view-incremental",
                width: n,
                slo: "n/a",
            });

            // Zero-alloc assertion: across thousands of full-node and
            // dispatch-shaped per-function refreshes touching every node,
            // no view buffer may move or grow — i.e. steady-state dispatch
            // performs zero per-decision cluster-view allocations.
            let fingerprint = |s: &ClusterState| -> Vec<(*const FnId, usize)> {
                s.nodes()
                    .iter()
                    .map(|v| (v.warm.as_ptr(), v.warm.capacity()))
                    .collect()
            };
            let before = fingerprint(&state);
            for step in 0..10_000u64 {
                state.touch(NodeId((step % n as u64) as u32));
                state.refresh(&cluster, now);
            }
            // A dispatch claims a function's warm slot and its completion
            // returns it, so the function leaves and re-enters the set.
            let mut churned = cluster.clone();
            for step in 0..10_000u64 {
                let node = NodeId((step % n as u64) as u32);
                let f = FnId((step % 6) as u32);
                assert!(churned.node_mut(node).claim_warm(f, now));
                state.touch_fn(node, f);
                state.refresh(&churned, now);
                churned
                    .node_mut(node)
                    .return_slot(f, now, SimTime::from_secs(600.0), true);
                state.touch_fn(node, f);
                state.refresh(&churned, now);
            }
            assert_eq!(
                before,
                fingerprint(&state),
                "incremental refresh reallocated a view buffer (n = {n})"
            );
            println!(
                "zero-alloc check (n={n}): all {n} warm buffers pointer- and \
capacity-stable across 10k full and 20k per-function dispatch-shaped refreshes"
            );
        }

        // Round-driver ablation: the pre-policy driver (no stack) vs the
        // classic empty stack's fast path vs a two-stage pass-through
        // pipeline. Measures what the policy indirection costs one
        // controller round (full runs assert the empty stack against
        // EMPTY_STACK_BOUND).
        let env = SimEnv::standard(SloClass::Moderate);
        let round_cluster = ClusterState::from_cluster(&busy_cluster(16), SimTime::from_ms(10.0));
        let jobs: Vec<JobView> = (0..4u64)
            .map(|i| JobView {
                invocation: InvocationId(i),
                ready_at_ms: 5.0,
                invocation_arrival_ms: 0.0,
                slack_ms: 500.0,
                pred_node: None,
            })
            .collect();
        for &nq in &ROUND_QUEUES {
            let queues: Vec<QueueView<'_>> = (0..nq)
                .map(|i| {
                    let app = AppId((i % env.apps.len()) as u32);
                    QueueView {
                        key: QueueKey { app, stage: 0 },
                        jobs: &jobs,
                        function: env.apps[app.index()].nodes[0],
                        slo_ms: env.slo_ms(app),
                        base_latency_ms: env.base_latency_ms(app),
                        queue_interval_ms: None,
                    }
                })
                .collect();
            let ctx = RoundCtx {
                now_ms: 10.0,
                queues: &queues,
                cluster: &round_cluster,
                env: &env,
                env_fingerprint: env.fingerprint(),
                dataplane: None,
            };
            let variants: [(&'static str, Option<PolicyStack>); 3] = [
                ("round-classic", None),
                ("round-empty-stack", Some(PolicyStack::new())),
                (
                    "round-stack",
                    Some(PolicyStack::new().with(PassThrough).with(PassThrough)),
                ),
            ];
            ab.push((nq, paired_ratios(&ctx, if smoke { 15 } else { 41 })));
            for (kind, policy) in variants {
                let mut sched = DriverProbe { policy };
                let param = format!("q{nq}");
                group.bench_with_input(BenchmarkId::new(kind, &param), &(), |b, _| {
                    b.iter(|| {
                        for _ in 0..ROUNDS_PER_ITER {
                            black_box(sched.schedule_round(&ctx));
                        }
                    })
                });
                metas.push(CaseMeta {
                    label: format!("overhead/{kind}/{param}"),
                    kind,
                    width: nq,
                    slo: "n/a",
                });
            }
        }
        group.finish();
    }

    // Assemble the artifact from the collected reports.
    let cases: Vec<serde_json::Value> = metas
        .iter()
        .map(|m| {
            let r = c
                .reports()
                .iter()
                .find(|r| r.label == m.label)
                .unwrap_or_else(|| panic!("no report for case {}", m.label));
            json!({
                "case": (m.label.clone()),
                "kind": (m.kind),
                "width": (m.width),
                "slo": (m.slo),
                "median_ns": (r.median_ns),
                "mean_ns": (r.mean_ns),
                "min_ns": (r.min_ns),
                "samples": (r.samples),
            })
        })
        .collect();
    let doc = json!({
        "suite": "overhead",
        "samples": samples,
        "smoke": smoke,
        "cases": cases,
    });
    write_json("BENCH_overhead", &doc);
    update_experiments_md("overhead", &render_overhead_markdown(&doc));

    // Headline: the warm/cold amortisation factor per case pair.
    let median = |label: &str| {
        c.reports()
            .iter()
            .find(|r| r.label == label)
            .map(|r| r.median_ns)
            .unwrap_or(0.0)
    };
    let mut worst = f64::INFINITY;
    for &w in &WIDTHS {
        for (slo_name, _) in TIGHTNESS {
            let cold = median(&format!("overhead/cold/w{w}/{slo_name}"));
            let warm = median(&format!("overhead/warm/w{w}/{slo_name}"));
            if warm > 0.0 {
                worst = worst.min(cold / warm);
            }
        }
    }
    println!("\nminimum warm-cache speedup across cases: {worst:.0}× (target ≥5×)");

    // Round-driver indirection headline: the classic empty stack must
    // cost (within noise) what the pre-policy driver cost. Full runs
    // assert EMPTY_STACK_BOUND; smoke runs on loaded CI boxes assert
    // nothing here and are guarded by the perf gate's per-case medians.
    for &nq in &ROUND_QUEUES {
        let classic = median(&format!("overhead/round-classic/q{nq}"));
        let empty = median(&format!("overhead/round-empty-stack/q{nq}"));
        let staged = median(&format!("overhead/round-stack/q{nq}"));
        if classic <= 0.0 {
            continue;
        }
        let per_round = classic / ROUNDS_PER_ITER as f64;
        let overhead_pct = (empty / classic - 1.0) * 100.0;
        let bound_pct = (EMPTY_STACK_BOUND - 1.0) * 100.0;
        let bound = if smoke {
            format!("bound ≤{bound_pct:+.0}% asserted on full runs only")
        } else {
            format!("asserted ≤{bound_pct:+.0}%")
        };
        println!(
            "round driver q{nq}: pre-policy {per_round:.0} ns/round, empty stack \
{overhead_pct:+.1}% ({bound}), staged stack {:.2}×",
            staged / classic
        );
        if !smoke {
            assert!(
                empty <= classic * EMPTY_STACK_BOUND,
                "classic-stack fast path drifted {overhead_pct:+.1}% above the \
pre-policy round driver (q{nq})"
            );
        }
    }

    // The same comparison as interleaved A/B pairs within this run: the
    // median paired ratio and its interquartile range. Informational —
    // a budget can only be asserted once the spread sits inside it.
    for (nq, ratios) in &ab {
        let pct = |q: f64| (quantile(ratios, q) - 1.0) * 100.0;
        let (q1, median, q3) = (pct(0.25), pct(0.5), pct(0.75));
        let verdict = if q3 - q1 < AB_BUDGET_PCT {
            if median.abs() <= AB_BUDGET_PCT {
                "spread below the budget; median within it"
            } else {
                "spread below the budget; median OUTSIDE it"
            }
        } else {
            "spread wider than the budget: informational"
        };
        println!(
            "round driver q{nq} interleaved A/B ({} pairs): empty stack vs pre-policy \
median {median:+.1}%, IQR {q1:+.1}%..{q3:+.1}% (budget ±{AB_BUDGET_PCT:.0}%; {verdict})",
            ratios.len()
        );
    }
}
