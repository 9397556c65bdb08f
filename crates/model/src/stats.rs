//! Deterministic statistics helpers.
//!
//! * [`Gaussian`] — Box–Muller normal sampling on top of any `rand::Rng`
//!   (the approved dependency list contains `rand` but not `rand_distr`,
//!   so the transform is implemented here; ~20 lines, well tested).
//! * [`Ewma`] — the exponentially weighted moving average the pre-warming
//!   proxy uses to predict invocation intervals (paper §4).
//! * [`Summary`] / [`BoxStats`] / [`percentile`] — descriptive statistics
//!   for the metrics and figure harnesses (Fig. 10 is a box plot).

use rand::Rng;

/// A normal distribution sampled via the Box–Muller transform.
///
/// Keeps the spare variate so consecutive calls consume uniform draws in
/// pairs; sampling is deterministic given a seeded `Rng`.
#[derive(Clone, Debug)]
pub struct Gaussian {
    mean: f64,
    std_dev: f64,
    spare: Option<f64>,
}

impl Gaussian {
    /// Creates a normal distribution with the given mean and standard
    /// deviation (`std_dev >= 0`).
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        Gaussian {
            mean,
            std_dev,
            spare: None,
        }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if self.std_dev == 0.0 {
            return self.mean;
        }
        let z = if let Some(s) = self.spare.take() {
            s
        } else {
            // Box–Muller: two uniforms in (0,1] -> two independent N(0,1).
            let u1: f64 = 1.0 - rng.random::<f64>(); // (0, 1]
            let u2: f64 = rng.random::<f64>();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            self.spare = Some(r * theta.sin());
            r * theta.cos()
        };
        self.mean + self.std_dev * z
    }

    /// Draws one sample truncated to `mean ± k·std_dev` (resampling-free
    /// clamping — adequate for noise modelling and keeps determinism simple).
    pub fn sample_clamped<R: Rng + ?Sized>(&mut self, rng: &mut R, k: f64) -> f64 {
        let lo = self.mean - k * self.std_dev;
        let hi = self.mean + k * self.std_dev;
        self.sample(rng).clamp(lo, hi)
    }
}

/// Exponentially weighted moving average, used by the pre-warming proxy to
/// predict the next invocation interval of a function (paper §4).
#[derive(Clone, Copy, Debug)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha ∈ (0, 1]`. Larger alpha
    /// weighs recent observations more.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, value: None }
    }

    /// Feeds an observation and returns the updated average.
    pub fn update(&mut self, obs: f64) -> f64 {
        let v = match self.value {
            None => obs,
            Some(prev) => self.alpha * obs + (1.0 - self.alpha) * prev,
        };
        self.value = Some(v);
        v
    }

    /// The current prediction, if any observation has been seen.
    #[inline]
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Clears the state.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

/// Returns the `p`-th percentile (0 ≤ p ≤ 100) of `values` using linear
/// interpolation between closest ranks. Returns `None` on empty input.
/// The input order is not assumed; a sorted copy is made.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in percentile input"));
    Some(percentile_sorted(&sorted, p))
}

/// [`percentile`] on an already-sorted slice (no allocation).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    interpolated(sorted.len(), p, |i| sorted[i])
}

/// The `p`-th percentile of `n ≥ 1` ascending samples whose `i`-th is
/// `at(i)`, interpolated linearly between closest ranks.
fn interpolated(n: usize, p: f64, at: impl Fn(usize) -> f64) -> f64 {
    if n == 1 {
        return at(0);
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    at(lo) + (at(hi) - at(lo)) * frac
}

/// Five-number summary plus mean, for box plots (Fig. 10/11 harnesses).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoxStats {
    /// Minimum observation.
    pub min: f64,
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Maximum observation.
    pub max: f64,
    /// Arithmetic mean (Fig. 10 marks it with a green triangle).
    pub mean: f64,
}

impl BoxStats {
    /// Computes box statistics; `None` on empty input.
    pub fn from(values: &[f64]) -> Option<BoxStats> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Some(BoxStats {
            min: sorted[0],
            q1: percentile_sorted(&sorted, 25.0),
            median: percentile_sorted(&sorted, 50.0),
            q3: percentile_sorted(&sorted, 75.0),
            max: *sorted.last().expect("non-empty"),
            mean,
        })
    }

    /// [`BoxStats::from`] over a multiset given as `(value, count)` pairs
    /// in ascending value order, without expanding it. Every field is the
    /// number `from` gives on the expanded samples, bit for bit: the
    /// quartiles interpolate between the same ranks, and the mean sums
    /// the samples in the same ascending order. `None` when the counts
    /// sum to zero.
    pub fn from_counts(pairs: &[(f64, u64)]) -> Option<BoxStats> {
        let n = pairs.iter().map(|&(_, c)| c).sum::<u64>() as usize;
        if n == 0 {
            return None;
        }
        let at = |i: usize| {
            let mut seen = 0;
            for &(v, c) in pairs {
                seen += c as usize;
                if i < seen {
                    return v;
                }
            }
            unreachable!("rank {i} is below the total count {n}")
        };
        let sum: f64 = pairs
            .iter()
            .flat_map(|&(v, c)| std::iter::repeat_n(v, c as usize))
            .sum();
        Some(BoxStats {
            min: at(0),
            q1: interpolated(n, 25.0, at),
            median: interpolated(n, 50.0, at),
            q3: interpolated(n, 75.0, at),
            max: at(n - 1),
            mean: sum / n as f64,
        })
    }
}

/// Streaming summary statistics (count, mean, min, max, variance via
/// Welford's algorithm) — used by the simulator's metric counters where
/// storing every sample would be wasteful.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean, or 0.0 when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n-1 denominator), or 0.0 with < 2 observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Merges another summary into this one (parallel sweeps).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut g = Gaussian::new(5.0, 2.0);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 5.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn gaussian_zero_stddev_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = Gaussian::new(3.0, 0.0);
        for _ in 0..10 {
            assert_eq!(g.sample(&mut rng), 3.0);
        }
    }

    #[test]
    fn gaussian_clamped_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = Gaussian::new(1.0, 0.1);
        for _ in 0..10_000 {
            let x = g.sample_clamped(&mut rng, 3.0);
            assert!((1.0 - 0.3 - 1e-12..=1.0 + 0.3 + 1e-12).contains(&x));
        }
    }

    #[test]
    fn gaussian_deterministic_under_seed() {
        let run = || {
            let mut rng = StdRng::seed_from_u64(99);
            let mut g = Gaussian::new(0.0, 1.0);
            (0..16).map(|_| g.sample(&mut rng)).collect::<Vec<f64>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ewma_constant_series_converges_immediately() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        for _ in 0..5 {
            e.update(10.0);
        }
        assert!((e.value().expect("seen obs") - 10.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_tracks_shift() {
        let mut e = Ewma::new(0.5);
        e.update(0.0);
        for _ in 0..20 {
            e.update(100.0);
        }
        assert!(e.value().expect("seen obs") > 99.9);
    }

    #[test]
    fn ewma_stays_within_observed_range() {
        let mut e = Ewma::new(0.3);
        let obs = [5.0, 9.0, 7.0, 6.0, 8.0];
        for &o in &obs {
            let v = e.update(o);
            assert!((5.0..=9.0).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn percentile_basics() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
    }

    #[test]
    fn percentile_is_order_independent() {
        let a = vec![3.0, 1.0, 2.0];
        let b = vec![1.0, 2.0, 3.0];
        assert_eq!(percentile(&a, 75.0), percentile(&b, 75.0));
    }

    #[test]
    fn box_stats() {
        let v: Vec<f64> = (1..=101).map(|i| i as f64).collect();
        let b = BoxStats::from(&v).expect("non-empty");
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 101.0);
        assert_eq!(b.median, 51.0);
        assert_eq!(b.q1, 26.0);
        assert_eq!(b.q3, 76.0);
        assert_eq!(b.mean, 51.0);
        assert_eq!(BoxStats::from(&[]), None);
    }

    #[test]
    fn box_stats_from_counts_equals_the_expanded_samples() {
        let pairs = [(0.2, 3), (0.25, 0), (0.5, 1), (1.75, 4)];
        let expanded: Vec<f64> = pairs
            .iter()
            .flat_map(|&(v, c)| std::iter::repeat_n(v, c as usize))
            .collect();
        assert_eq!(BoxStats::from_counts(&pairs), BoxStats::from(&expanded));
        assert_eq!(BoxStats::from_counts(&[(1.0, 0)]), None);
        assert_eq!(BoxStats::from_counts(&[]), None);
    }

    #[test]
    fn summary_welford_matches_naive() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = Summary::new();
        for &x in &data {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // naive sample variance = 32/7
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn summary_merge_equals_single_pass() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &data {
            whole.add(x);
        }
        let mut left = Summary::new();
        let mut right = Summary::new();
        for &x in &data[..400] {
            left.add(x);
        }
        for &x in &data[400..] {
            right.add(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::new();
        a.add(1.0);
        let b = Summary::new();
        let mut a2 = a;
        a2.merge(&b);
        assert_eq!(a2.count(), 1);
        let mut c = Summary::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 1.0);
    }

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }
}
