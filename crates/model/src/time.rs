//! Simulation time.
//!
//! The discrete-event simulator keeps time as integer **microseconds** so
//! event ordering is exact and runs are bit-reproducible; the modelling
//! layers (profiles, workloads, metrics) speak floating-point milliseconds.
//! This module is the single conversion point.

use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// The latest instant a run accepts an input at (an arrival or a
    /// scripted churn event): 2^53 µs, about 285 years. Inputs at or
    /// before it convert from milliseconds exactly enough, and keep every
    /// instant the platform derives from them (an input plus durations
    /// far shorter than `MAX`) inside `u64`; see the [`Add`] impl. Every
    /// input boundary checks its times with
    /// [`is_input_ms`](Self::is_input_ms).
    pub const MAX: SimTime = SimTime(1 << 53);

    /// [`MAX`](Self::MAX) in milliseconds, the unit inputs are given in.
    pub const MAX_MS: f64 = (1u64 << 53) as f64 / 1000.0;

    /// True when `ms` is a time a run accepts as input: finite and within
    /// `[0, MAX_MS]` (NaN, infinities and negative times are not).
    ///
    /// ```
    /// use esg_model::SimTime;
    /// assert!(SimTime::is_input_ms(0.0) && SimTime::is_input_ms(SimTime::MAX_MS));
    /// for bad in [-5.0, f64::NAN, f64::INFINITY, 1e300] {
    ///     assert!(!SimTime::is_input_ms(bad));
    /// }
    /// ```
    #[inline]
    pub fn is_input_ms(ms: f64) -> bool {
        (0.0..=Self::MAX_MS).contains(&ms)
    }

    /// Builds a time from fractional milliseconds (rounded to the nearest
    /// microsecond; negative inputs clamp to zero).
    #[inline]
    pub fn from_ms(ms: f64) -> Self {
        SimTime((ms.max(0.0) * 1000.0).round() as u64)
    }

    /// Builds a time from fractional milliseconds, rounded *up* to the
    /// microsecond grid, so `SimTime::from_ms_ceil(ms).as_ms() >= ms`:
    /// a wake-up scheduled on a deadline never fires before it.
    #[inline]
    pub fn from_ms_ceil(ms: f64) -> Self {
        let t = SimTime((ms.max(0.0) * 1000.0).ceil() as u64);
        if t.as_ms() < ms {
            SimTime(t.0.saturating_add(1))
        } else {
            t
        }
    }

    /// Builds a time from whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds a time from whole seconds.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        SimTime::from_ms(s * 1000.0)
    }

    /// The time as fractional milliseconds.
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The time as fractional seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating difference `self - earlier` (zero when `earlier > self`).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

/// Overflow contract: like integer `+`, the sum panics on `u64`
/// overflow in debug builds and wraps in release builds. The platform
/// only forms sums of an instant at most [`SimTime::MAX`] and durations
/// well below it, which stay far inside `u64` (`2 × MAX < u64::MAX`), so
/// an input time must be checked against `MAX` before it is scheduled.
impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}ms", self.as_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        let t = SimTime::from_ms(12.345);
        assert_eq!(t.0, 12_345);
        assert!((t.as_ms() - 12.345).abs() < 1e-9);
        assert_eq!(SimTime::from_secs(1.5).0, 1_500_000);
        assert!((SimTime::from_us(2_000_000).as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn negative_ms_clamps() {
        assert_eq!(SimTime::from_ms(-5.0), SimTime::ZERO);
        assert_eq!(SimTime::from_ms_ceil(-5.0), SimTime::ZERO);
    }

    #[test]
    fn ceil_conversion_never_lands_before_the_deadline() {
        assert_eq!(SimTime::from_ms(1.0004).0, 1_000);
        assert_eq!(SimTime::from_ms_ceil(1.0004).0, 1_001);
        assert_eq!(SimTime::from_ms_ceil(12.345).0, 12_345);
        for i in 0..10_000u32 {
            let ms = f64::from(i) * 0.1 + 0.2;
            assert!(SimTime::from_ms_ceil(ms).as_ms() >= ms, "{ms}");
        }
    }

    #[test]
    fn max_converts_and_leaves_headroom() {
        assert_eq!(SimTime::from_ms(SimTime::MAX_MS), SimTime::MAX);
        assert!(SimTime::MAX.0.checked_mul(2).is_some());
        assert!(SimTime::MAX + SimTime::MAX > SimTime::MAX);
    }

    #[test]
    fn arithmetic_and_order() {
        let a = SimTime::from_ms(10.0);
        let b = SimTime::from_ms(4.0);
        assert_eq!(a + b, SimTime::from_ms(14.0));
        assert_eq!(a - b, SimTime::from_ms(6.0));
        assert_eq!(b.saturating_since(a), SimTime::ZERO);
        assert_eq!(a.saturating_since(b), SimTime::from_ms(6.0));
        assert!(b < a);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_ms(1.5).to_string(), "1.500ms");
    }
}
