//! Traffic-shape generators: one deterministic arrival stream per
//! [`TrafficShape`].
//!
//! Every shape keeps the *mean* rate of its [`WorkloadClass`] (so SLO/cost
//! comparisons across shapes are apples-to-apples) and modulates the
//! instantaneous rate:
//!
//! * **steady** — uniform intervals from the class range (paper §4.1);
//! * **bursty** — episodic bursts at several times the class rate with
//!   quiet stretches in between, same long-run mean;
//! * **diurnal** — a sinusoidal rate cycle around the class mean;
//! * **azure** — the [`AzureLikeTrace`] generator (diurnal + random
//!   bursts + dispersion) pinned to the class mean rate.
//!
//! All four are pure functions of `(class, shape, apps, seed)`.

use crate::arrivals::Workload;
use crate::azure::AzureLikeTrace;
use crate::stream::ArrivalStream;
use esg_model::{AppId, TrafficShape, WorkloadClass};

/// Burst windows run at this multiple of the class rate.
const BURST_RATE_MULTIPLIER: f64 = 4.0;
/// Fraction of each bursty cycle spent inside the burst window.
const BURST_DUTY: f64 = 0.2;
/// Length of one bursty cycle, ms.
const BURST_CYCLE_MS: f64 = 4_000.0;
/// Diurnal rate amplitude as a fraction of the mean.
const DIURNAL_AMPLITUDE: f64 = 0.6;
/// Diurnal period, ms (compressed "day" so bench-length runs see full
/// cycles).
const DIURNAL_PERIOD_MS: f64 = 60_000.0;

/// Mean arrival interval of a class, ms.
fn class_mean_interval_ms(class: WorkloadClass) -> f64 {
    let (lo, hi) = class.interval_range_ms();
    (lo + hi) / 2.0
}

/// An instantaneous-rate multiplier over the class mean, used by
/// [`ArrivalStream::modulated`]. An enum (not a closure) so streams stay
/// nameable, sendable and cheap to construct.
#[derive(Clone, Copy, Debug)]
pub enum RateFn {
    /// Episodic bursts: within the first `BURST_DUTY` of each
    /// `BURST_CYCLE_MS` cycle the rate is `BURST_RATE_MULTIPLIER`×;
    /// `quiet` slows the remainder so the cycle mean matches the class
    /// mean.
    Bursty {
        /// Rate multiplier outside the burst window.
        quiet: f64,
    },
    /// A sinusoidal rate cycle around the class mean
    /// (`DIURNAL_AMPLITUDE` over `DIURNAL_PERIOD_MS`).
    Diurnal,
}

impl RateFn {
    /// The bursty modulation with its quiet rate solved for a unit mean:
    /// mean = duty·burst + (1−duty)·quiet.
    pub fn bursty() -> RateFn {
        let quiet = (1.0 - BURST_DUTY * BURST_RATE_MULTIPLIER) / (1.0 - BURST_DUTY);
        RateFn::Bursty {
            quiet: quiet.max(0.05),
        }
    }

    /// The diurnal modulation.
    pub fn diurnal() -> RateFn {
        RateFn::Diurnal
    }

    /// The rate multiplier at time `t` (ms).
    pub fn multiplier(&self, t: f64) -> f64 {
        match *self {
            RateFn::Bursty { quiet } => {
                let phase = (t / BURST_CYCLE_MS).fract();
                if phase < BURST_DUTY {
                    BURST_RATE_MULTIPLIER
                } else {
                    quiet
                }
            }
            RateFn::Diurnal => {
                1.0 + DIURNAL_AMPLITUDE * (2.0 * std::f64::consts::PI * t / DIURNAL_PERIOD_MS).sin()
            }
        }
    }
}

/// The Azure-like trace pinned to `class`'s mean rate (the
/// `TrafficShape::AzureReplay` parameterisation).
fn azure_trace_for(class: WorkloadClass, seed: u64) -> AzureLikeTrace {
    AzureLikeTrace {
        mean_per_minute: 60_000.0 / class_mean_interval_ms(class),
        period_minutes: DIURNAL_PERIOD_MS / 60_000.0 * 2.0,
        seed,
        ..AzureLikeTrace::default()
    }
}

/// The infinite lazy stream for `class` shaped by `shape` — the
/// streaming twin of [`shaped_workload`], for replay runs that pull
/// arrivals as simulated time advances instead of materialising a
/// `Vec`. Deterministic in `seed` and bit-identical to
/// [`shaped_workload`] over any duration window.
pub fn shaped_stream(
    class: WorkloadClass,
    shape: TrafficShape,
    apps: &[AppId],
    seed: u64,
) -> ArrivalStream {
    assert!(!apps.is_empty(), "need at least one application");
    match shape {
        TrafficShape::Steady => ArrivalStream::of_class(class, apps.to_vec(), seed),
        TrafficShape::Bursty => {
            ArrivalStream::modulated(class, apps.to_vec(), seed, RateFn::bursty())
        }
        TrafficShape::Diurnal => {
            ArrivalStream::modulated(class, apps.to_vec(), seed, RateFn::diurnal())
        }
        TrafficShape::AzureReplay => {
            ArrivalStream::azure(azure_trace_for(class, seed), apps.to_vec(), None)
        }
    }
}

/// Generates `duration_ms` of arrivals for `class` shaped by `shape`,
/// applications drawn uniformly from `apps`. Deterministic in `seed`.
/// Drains [`shaped_stream`] (Azure with the historical minute bound, so
/// the rate RNG stops exactly at the window's last minute).
pub fn shaped_workload(
    class: WorkloadClass,
    shape: TrafficShape,
    apps: &[AppId],
    seed: u64,
    duration_ms: f64,
) -> Workload {
    assert!(!apps.is_empty(), "need at least one application");
    match shape {
        TrafficShape::AzureReplay => {
            let minutes = ((duration_ms / 60_000.0).ceil() as usize).max(1);
            ArrivalStream::azure(azure_trace_for(class, seed), apps.to_vec(), Some(minutes))
                .until_ms(duration_ms)
        }
        _ => shaped_stream(class, shape, apps, seed).until_ms(duration_ms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::WorkloadGen;

    fn apps() -> Vec<AppId> {
        (0..4u32).map(AppId).collect()
    }

    const DUR: f64 = 30_000.0;

    #[test]
    fn steady_matches_workload_gen() {
        let a = shaped_workload(WorkloadClass::Light, TrafficShape::Steady, &apps(), 42, DUR);
        let b = WorkloadGen::new(WorkloadClass::Light, apps(), 42).generate_for(DUR);
        assert_eq!(a.arrivals, b.arrivals);
    }

    #[test]
    fn all_shapes_deterministic_and_in_window() {
        for shape in TrafficShape::all() {
            let a = shaped_workload(WorkloadClass::Normal, shape, &apps(), 7, DUR);
            let b = shaped_workload(WorkloadClass::Normal, shape, &apps(), 7, DUR);
            assert_eq!(a.arrivals, b.arrivals, "{shape} not deterministic");
            assert!(!a.is_empty(), "{shape} produced no arrivals");
            assert!(a.span_ms() <= DUR, "{shape} escaped the window");
            for pair in a.arrivals.windows(2) {
                assert!(pair[0].at_ms <= pair[1].at_ms, "{shape} unsorted");
            }
        }
    }

    #[test]
    fn shapes_keep_roughly_the_class_mean_rate() {
        let expected = DUR / class_mean_interval_ms(WorkloadClass::Normal);
        for shape in TrafficShape::all() {
            let w = shaped_workload(WorkloadClass::Normal, shape, &apps(), 11, DUR);
            let n = w.len() as f64;
            assert!(
                n > 0.5 * expected && n < 1.8 * expected,
                "{shape}: {n} arrivals vs expected ~{expected}"
            );
        }
    }

    #[test]
    fn bursty_has_heavier_interval_tail_than_steady() {
        let steady = shaped_workload(WorkloadClass::Normal, TrafficShape::Steady, &apps(), 3, DUR);
        let bursty = shaped_workload(WorkloadClass::Normal, TrafficShape::Bursty, &apps(), 3, DUR);
        let max_gap = |w: &Workload| w.intervals_ms().into_iter().fold(0.0, f64::max);
        // Quiet stretches stretch the longest gap well past the steady
        // class maximum.
        assert!(max_gap(&bursty) > 1.5 * max_gap(&steady));
        // And burst windows compress the shortest gap below the steady
        // class minimum.
        let min_gap = |w: &Workload| w.intervals_ms().into_iter().fold(f64::INFINITY, f64::min);
        assert!(min_gap(&bursty) < min_gap(&steady));
    }

    #[test]
    fn diurnal_rate_varies_across_half_periods() {
        let w = shaped_workload(
            WorkloadClass::Normal,
            TrafficShape::Diurnal,
            &apps(),
            5,
            DIURNAL_PERIOD_MS,
        );
        let half = DIURNAL_PERIOD_MS / 2.0;
        let first = w.arrivals.iter().filter(|a| a.at_ms < half).count();
        let second = w.len() - first;
        // Rate peaks in the first half-period (sin > 0) and troughs in the
        // second.
        assert!(
            first as f64 > 1.3 * second as f64,
            "first {first} second {second}"
        );
    }

    #[test]
    fn distinct_seeds_differ() {
        for shape in TrafficShape::all() {
            let a = shaped_workload(WorkloadClass::Heavy, shape, &apps(), 1, DUR);
            let b = shaped_workload(WorkloadClass::Heavy, shape, &apps(), 2, DUR);
            assert_ne!(a.arrivals, b.arrivals, "{shape} ignored the seed");
        }
    }
}
