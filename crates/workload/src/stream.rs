//! Lazy, constant-memory arrival streams.
//!
//! [`ArrivalStream`] is the single code path behind every generator in
//! this crate: [`WorkloadGen::generate`](crate::arrivals::WorkloadGen::generate),
//! [`generate_for`](crate::arrivals::WorkloadGen::generate_for), the
//! [`shaped_workload`](crate::shapes::shaped_workload) family and the
//! Azure-like trace all materialise by draining a stream. A stream
//! yields time-ordered [`Arrival`]s one at a time — O(1) memory no
//! matter how many are drawn — and is bit-identical, for the same
//! seed, to the eager `Vec`-building generators it replaced: the RNG
//! draw sequence per emitted arrival is unchanged, laziness only
//! changes *when* the draws happen.
//!
//! The simulator's streaming replay mode
//! (`esg_sim::Simulation::from_stream`) pulls arrivals from an
//! `ArrivalStream` as simulated time advances, so million-invocation
//! replays never hold a workload vector in memory.

use crate::arrivals::{Arrival, Workload};
use crate::azure::AzureLikeTrace;
use crate::shapes::RateFn;
use esg_model::{AppId, Gaussian, TrafficShape, WorkloadClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The per-arrival application draw: uniform over `apps` (paper §4.1),
/// one integer draw per arrival.
struct AppPicker {
    apps: Vec<AppId>,
}

impl AppPicker {
    fn uniform(apps: Vec<AppId>) -> AppPicker {
        assert!(!apps.is_empty(), "need at least one application");
        AppPicker { apps }
    }

    fn pick(&self, rng: &mut StdRng) -> AppId {
        self.apps[rng.random_range(0..self.apps.len())]
    }
}

/// A lazily evaluated, time-ordered arrival sequence.
///
/// Construct one with [`of_class`](ArrivalStream::of_class),
/// [`modulated`](ArrivalStream::modulated),
/// [`azure`](ArrivalStream::azure) or
/// [`shaped`](ArrivalStream::shaped), then drain it through the
/// [`Iterator`] impl or the [`take_workload`](ArrivalStream::take_workload)
/// / [`until_ms`](ArrivalStream::until_ms) materialisers. Class and
/// modulated streams are infinite; Azure streams are infinite unless a
/// minute bound is given.
pub struct ArrivalStream {
    inner: Inner,
}

enum Inner {
    Class(ClassStream),
    Modulated(ModulatedStream),
    Azure(AzureStream),
}

impl ArrivalStream {
    /// An infinite steady stream for `class`: uniform intervals from the
    /// class range, applications drawn uniformly from `apps` (paper
    /// §4.1). Identical draw-for-draw to `WorkloadGen`.
    pub fn of_class(class: WorkloadClass, apps: Vec<AppId>, seed: u64) -> ArrivalStream {
        assert!(!apps.is_empty(), "need at least one application");
        let (lo, hi) = class.interval_range_ms();
        ArrivalStream {
            inner: Inner::Class(ClassStream {
                rng: StdRng::seed_from_u64(seed),
                lo,
                hi,
                picker: AppPicker::uniform(apps),
                t: 0.0,
            }),
        }
    }

    /// An infinite rate-modulated stream: each uniform class interval is
    /// divided by `rate.multiplier(t)` (a multiplier on the class mean
    /// rate, floored at `1e-3`).
    pub fn modulated(
        class: WorkloadClass,
        apps: Vec<AppId>,
        seed: u64,
        rate: RateFn,
    ) -> ArrivalStream {
        assert!(!apps.is_empty(), "need at least one application");
        let (lo, hi) = class.interval_range_ms();
        ArrivalStream {
            inner: Inner::Modulated(ModulatedStream {
                rng: StdRng::seed_from_u64(seed),
                lo,
                hi,
                picker: AppPicker::uniform(apps),
                t: 0.0,
                rate,
            }),
        }
    }

    /// An Azure-like Poisson stream over per-minute rates from `trace`.
    ///
    /// With `minutes: Some(n)` the stream ends after minute `n` of trace
    /// time (matching `AzureLikeTrace::generate`); with `None` it is
    /// unbounded, computing each minute's rate lazily as simulated time
    /// reaches it. Unbounded streams require a positive mean rate so a
    /// next arrival always exists.
    pub fn azure(trace: AzureLikeTrace, apps: Vec<AppId>, minutes: Option<usize>) -> ArrivalStream {
        assert!(!apps.is_empty(), "need at least one application");
        assert!(
            minutes.is_some() || trace.mean_per_minute > 0.0,
            "an unbounded Azure stream needs a positive mean rate"
        );
        let rate_rng = StdRng::seed_from_u64(trace.seed);
        let arr_rng = StdRng::seed_from_u64(trace.seed.wrapping_add(1));
        ArrivalStream {
            inner: Inner::Azure(AzureStream {
                trace,
                picker: AppPicker::uniform(apps),
                rate_rng,
                noise: Gaussian::new(1.0, 0.15),
                arr_rng,
                next_minute: 0,
                limit_minutes: minutes,
                minute_end_ms: 0.0,
                mean_gap_ms: 0.0,
                t: 0.0,
                in_minute: false,
            }),
        }
    }

    /// An infinite stream for any [`TrafficShape`], keeping the class
    /// mean rate (see [`crate::shapes`]). This is the streaming twin of
    /// [`shaped_workload`](crate::shapes::shaped_workload).
    pub fn shaped(
        class: WorkloadClass,
        shape: TrafficShape,
        apps: &[AppId],
        seed: u64,
    ) -> ArrivalStream {
        crate::shapes::shaped_stream(class, shape, apps, seed)
    }

    /// Materialises the first `count` arrivals.
    pub fn take_workload(self, count: usize) -> Workload {
        let mut arrivals = Vec::with_capacity(count);
        arrivals.extend(self.take(count));
        Workload { arrivals }
    }

    /// Materialises every arrival with `at_ms <= duration_ms`.
    ///
    /// Stops at the first arrival past the window, so this terminates on
    /// infinite streams (every stream's arrival times grow without
    /// bound).
    pub fn until_ms(self, duration_ms: f64) -> Workload {
        let mut arrivals = Vec::new();
        for a in self {
            if a.at_ms > duration_ms {
                break;
            }
            arrivals.push(a);
        }
        Workload { arrivals }
    }
}

impl Iterator for ArrivalStream {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        match &mut self.inner {
            Inner::Class(s) => Some(s.next()),
            Inner::Modulated(s) => Some(s.next()),
            Inner::Azure(s) => s.next(),
        }
    }
}

impl std::fmt::Debug for ArrivalStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.inner {
            Inner::Class(_) => "class",
            Inner::Modulated(_) => "modulated",
            Inner::Azure(_) => "azure",
        };
        f.debug_struct("ArrivalStream")
            .field("kind", &kind)
            .finish()
    }
}

struct ClassStream {
    rng: StdRng,
    lo: f64,
    hi: f64,
    picker: AppPicker,
    t: f64,
}

impl ClassStream {
    fn next(&mut self) -> Arrival {
        let interval: f64 = self.rng.random_range(self.lo..=self.hi);
        self.t += interval;
        let app = self.picker.pick(&mut self.rng);
        Arrival { at_ms: self.t, app }
    }
}

struct ModulatedStream {
    rng: StdRng,
    lo: f64,
    hi: f64,
    picker: AppPicker,
    t: f64,
    rate: RateFn,
}

impl ModulatedStream {
    fn next(&mut self) -> Arrival {
        let base: f64 = self.rng.random_range(self.lo..=self.hi);
        let m = self.rate.multiplier(self.t).max(1e-3);
        self.t += base / m;
        let app = self.picker.pick(&mut self.rng);
        Arrival { at_ms: self.t, app }
    }
}

/// Minute-lazy Azure stream. The per-minute rate RNG and the arrival
/// RNG are independent (different seeds), so interleaving "compute rate
/// for minute m" with "emit minute m's arrivals" draws exactly the
/// values the eager rates-then-arrivals generator drew.
struct AzureStream {
    trace: AzureLikeTrace,
    picker: AppPicker,
    rate_rng: StdRng,
    noise: Gaussian,
    arr_rng: StdRng,
    next_minute: usize,
    limit_minutes: Option<usize>,
    minute_end_ms: f64,
    mean_gap_ms: f64,
    t: f64,
    in_minute: bool,
}

impl AzureStream {
    fn next(&mut self) -> Option<Arrival> {
        loop {
            if self.in_minute {
                // Exponential inter-arrival: -ln(U) * mean.
                let u: f64 = 1.0 - self.arr_rng.random::<f64>();
                self.t += -u.ln() * self.mean_gap_ms;
                if self.t >= self.minute_end_ms {
                    self.in_minute = false;
                    continue;
                }
                let app = self.picker.pick(&mut self.arr_rng);
                return Some(Arrival { at_ms: self.t, app });
            }
            if self.limit_minutes.is_some_and(|l| self.next_minute >= l) {
                return None;
            }
            let m = self.next_minute;
            self.next_minute += 1;
            let rate = self
                .trace
                .rate_for_minute(m, &mut self.rate_rng, &mut self.noise);
            if rate <= 0.0 {
                continue;
            }
            self.t = m as f64 * 60_000.0;
            self.minute_end_ms = self.t + 60_000.0;
            self.mean_gap_ms = 60_000.0 / rate;
            self.in_minute = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::WorkloadGen;
    use crate::shapes::shaped_workload;

    fn apps4() -> Vec<AppId> {
        (0..4u32).map(AppId).collect()
    }

    #[test]
    fn class_stream_is_infinite_and_ordered() {
        let mut s = ArrivalStream::of_class(WorkloadClass::Heavy, apps4(), 3);
        let mut prev = 0.0;
        for _ in 0..10_000 {
            let a = s.next().expect("class streams never end");
            assert!(a.at_ms > prev);
            prev = a.at_ms;
        }
    }

    #[test]
    fn take_matches_generate_bit_for_bit() {
        for class in WorkloadClass::all() {
            let eager = WorkloadGen::new(class, apps4(), 17).generate(500);
            let lazy = ArrivalStream::of_class(class, apps4(), 17).take_workload(500);
            assert_eq!(eager.arrivals, lazy.arrivals, "{class}");
        }
    }

    #[test]
    fn until_matches_generate_for_bit_for_bit() {
        for class in WorkloadClass::all() {
            let eager = WorkloadGen::new(class, apps4(), 23).generate_for(5_000.0);
            let lazy = ArrivalStream::of_class(class, apps4(), 23).until_ms(5_000.0);
            assert_eq!(eager.arrivals, lazy.arrivals, "{class}");
        }
    }

    #[test]
    fn shaped_stream_matches_shaped_workload_for_every_shape() {
        for shape in TrafficShape::all() {
            let eager = shaped_workload(WorkloadClass::Normal, shape, &apps4(), 42, 10_000.0);
            let lazy = ArrivalStream::shaped(WorkloadClass::Normal, shape, &apps4(), 42)
                .until_ms(10_000.0);
            assert_eq!(eager.arrivals, lazy.arrivals, "{shape}");
        }
    }

    #[test]
    fn azure_stream_matches_trace_generate() {
        let trace = AzureLikeTrace {
            mean_per_minute: 200.0,
            seed: 11,
            ..AzureLikeTrace::default()
        };
        let eager = trace.generate(5, &apps4());
        let lazy: Vec<Arrival> = ArrivalStream::azure(trace, apps4(), Some(5)).collect();
        assert_eq!(eager.arrivals, lazy);
    }

    #[test]
    fn unbounded_azure_stream_crosses_minute_boundaries() {
        let trace = AzureLikeTrace {
            mean_per_minute: 30.0,
            seed: 7,
            ..AzureLikeTrace::default()
        };
        let mut s = ArrivalStream::azure(trace, apps4(), None);
        let mut prev = 0.0;
        let mut n = 0usize;
        while prev < 10.0 * 60_000.0 {
            let a = s.next().expect("unbounded azure streams never end");
            assert!(a.at_ms >= prev, "unsorted at {n}");
            prev = a.at_ms;
            n += 1;
        }
        assert!(n > 100, "ten minutes at ~30/min should emit >100, got {n}");
    }

    #[test]
    fn streams_are_seed_deterministic() {
        for shape in TrafficShape::all() {
            let a: Vec<Arrival> = ArrivalStream::shaped(WorkloadClass::Light, shape, &apps4(), 9)
                .take(200)
                .collect();
            let b: Vec<Arrival> = ArrivalStream::shaped(WorkloadClass::Light, shape, &apps4(), 9)
                .take(200)
                .collect();
            assert_eq!(a, b, "{shape}");
            let c: Vec<Arrival> = ArrivalStream::shaped(WorkloadClass::Light, shape, &apps4(), 10)
                .take(200)
                .collect();
            assert_ne!(a, c, "{shape} ignored the seed");
        }
    }
}
