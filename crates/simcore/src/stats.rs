//! Online statistics, empirical CDFs, and exact percentile extraction.
//!
//! The metrics layer needs three things: cheap running summaries
//! ([`OnlineStats`]), the distribution shape ([`Ecdf`]) and the exact
//! percentiles the paper reports ([`percentile`], P50/P99 of TTFT and
//! TBT). Everything here is deterministic and allocation-light.

use serde::{Deserialize, Serialize};

/// Welford-style running mean/variance plus min/max.
///
/// ```
/// use chameleon_simcore::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { s.push(x); }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `x` is NaN.
    pub fn push(&mut self, x: f64) {
        debug_assert!(!x.is_nan(), "NaN observation");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 when fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact percentile of a sample by sorting a copy (nearest-rank with linear
/// interpolation, the same convention NumPy's default uses).
///
/// Returns `None` for an empty sample.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
///
/// ```
/// use chameleon_simcore::stats::percentile;
/// let xs = [10.0, 20.0, 30.0, 40.0];
/// assert_eq!(percentile(&xs, 50.0), Some(25.0));
/// assert_eq!(percentile(&xs, 100.0), Some(40.0));
/// ```
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if xs.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    Some(percentile_of_sorted(&v, p))
}

/// Percentile of an already-sorted slice. Callers that extract several
/// percentiles should sort once and use this.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or the slice is empty.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    assert!(!sorted.is_empty(), "empty sample");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Empirical CDF: the `(value, fraction ≤ value)` staircase of a sample.
///
/// This is the exact object plotted in Figures 7, 8 and 14 of the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF from a sample (copied and sorted).
    ///
    /// # Panics
    ///
    /// Panics if the sample contains NaN.
    pub fn from_samples(xs: &[f64]) -> Self {
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        Ecdf { sorted }
    }

    /// Number of underlying observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when built from an empty sample.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of observations ≤ `x`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: smallest sample value with cumulative fraction ≥ `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q));
        if self.sorted.is_empty() {
            return None;
        }
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        Some(self.sorted[idx.min(self.sorted.len() - 1)])
    }

    /// Evenly spaced `(value, cum_fraction)` points for plotting, at most
    /// `max_points` of them.
    pub fn curve(&self, max_points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || max_points == 0 {
            return Vec::new();
        }
        let n = self.sorted.len();
        let step = (n as f64 / max_points as f64).max(1.0);
        let mut pts = Vec::new();
        let mut i = 0.0;
        while (i as usize) < n {
            let idx = i as usize;
            pts.push((self.sorted[idx], (idx + 1) as f64 / n as f64));
            i += step;
        }
        if pts.last().map(|&(v, _)| v) != self.sorted.last().copied() {
            pts.push((self.sorted[n - 1], 1.0));
        }
        pts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn percentile_matches_known_values() {
        let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), Some(15.0));
        assert_eq!(percentile(&xs, 50.0), Some(35.0));
        assert_eq!(percentile(&xs, 100.0), Some(50.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn ecdf_eval_and_quantile() {
        let e = Ecdf::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(2.0), 0.5);
        assert_eq!(e.eval(10.0), 1.0);
        assert_eq!(e.quantile(0.5), Some(2.0));
        assert_eq!(e.quantile(1.0), Some(4.0));
        assert_eq!(e.quantile(0.0), Some(1.0));
    }

    #[test]
    fn ecdf_curve_is_monotone() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 37) % 100) as f64).collect();
        let e = Ecdf::from_samples(&xs);
        let curve = e.curve(50);
        assert!(!curve.is_empty());
        for w in curve.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    proptest! {
        /// ECDF eval is a valid CDF: in [0,1] and monotone.
        #[test]
        fn prop_ecdf_monotone(xs in proptest::collection::vec(-1e3f64..1e3, 1..200)) {
            let e = Ecdf::from_samples(&xs);
            let mut prev = 0.0;
            for i in -10..=10 {
                let x = i as f64 * 100.0;
                let v = e.eval(x);
                prop_assert!((0.0..=1.0).contains(&v));
                prop_assert!(v >= prev);
                prev = v;
            }
        }

        /// Welford mean equals naive mean.
        #[test]
        fn prop_online_mean_matches(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s = OnlineStats::new();
            for &x in &xs { s.push(x); }
            let naive = xs.iter().sum::<f64>() / xs.len() as f64;
            prop_assert!((s.mean() - naive).abs() < 1e-6 * (1.0 + naive.abs()));
        }
    }
}
