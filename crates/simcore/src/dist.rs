//! Probability distributions used by the workload and system models.
//!
//! The paper's methodology (§5.1) needs: Poisson arrivals (exponential
//! inter-arrival times), heavy-tailed request lengths (log-normal), skewed
//! adapter popularity (Zipf / power-law), and uniform choices. All samplers
//! draw from a [`SimRng`] so experiments stay deterministic.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// A distribution over `f64` that can be sampled with a [`SimRng`].
pub trait Sample {
    /// Draws one value.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution mean, when known in closed form.
    fn mean(&self) -> f64;
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Inter-arrival times of a Poisson process with `lambda` events per second.
///
/// ```
/// use chameleon_simcore::dist::{Exponential, Sample};
/// use chameleon_simcore::rng::SimRng;
/// let d = Exponential::new(8.0); // 8 requests per second
/// let mut rng = SimRng::seed(1);
/// let x = d.sample(&mut rng);
/// assert!(x >= 0.0);
/// assert!((d.mean() - 0.125).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with `lambda` events per unit time.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda > 0.0, "invalid rate: {lambda}");
        Exponential { lambda }
    }

    /// The rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse CDF; 1-u avoids ln(0).
        -(1.0 - rng.f64()).ln() / self.lambda
    }
    fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
}

/// Log-normal distribution parameterised by the *underlying normal*'s
/// `mu` and `sigma`.
///
/// Used for the heavy-tailed input/output token lengths observed in the
/// Splitwise production trace (§3.3, Figure 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal from the underlying normal parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is not finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        LogNormal { mu, sigma }
    }

    /// Creates a log-normal whose *median* is `median` and whose shape is
    /// `sigma`. Convenient because trace papers report medians.
    ///
    /// # Panics
    ///
    /// Panics if `median` is not strictly positive.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        LogNormal::new(median.ln(), sigma)
    }

    /// Standard normal draw via Box–Muller.
    fn std_normal(rng: &mut SimRng) -> f64 {
        let u1: f64 = 1.0 - rng.f64(); // (0, 1]
        let u2: f64 = rng.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * Self::std_normal(rng)).exp()
    }
    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }
}

/// Zipf (power-law) distribution over ranks `1..=n` with exponent `s`:
/// `P(k) ∝ 1/k^s`.
///
/// Models the skewed adapter popularity of §5.1 ("power-law distribution for
/// adapter popularity within a rank"). Sampling is by inverse CDF over a
/// precomputed table, O(log n) per draw.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` items with exponent `s`.
    ///
    /// `s = 0` degenerates to the uniform distribution; larger `s` is more
    /// skewed. Typical adapter-popularity skew in the LoRA-serving
    /// literature uses `s ≈ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero items");
        assert!(s.is_finite() && s >= 0.0, "invalid exponent: {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the distribution covers no items (never: constructor
    /// forbids it), provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws an item index in `[0, n)` (0 is the most popular item).
    pub fn sample_index(&self, rng: &mut SimRng) -> usize {
        let u = rng.f64();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// The probability mass of item `k` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn pmf(&self, k: usize) -> f64 {
        let prev = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        self.cdf[k] - prev
    }
}

/// Uniform integer distribution over `[lo, hi]` (inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformInt {
    lo: u64,
    hi: u64,
}

impl UniformInt {
    /// Creates the distribution; bounds are inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        UniformInt { lo, hi }
    }

    /// Draws a value.
    pub fn sample_int(&self, rng: &mut SimRng) -> u64 {
        self.lo + rng.below(self.hi - self.lo + 1)
    }
}

impl Sample for UniformInt {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sample_int(rng) as f64
    }
    fn mean(&self) -> f64 {
        (self.lo + self.hi) as f64 / 2.0
    }
}

/// A Poisson arrival process generating a stream of arrival instants.
///
/// ```
/// use chameleon_simcore::dist::PoissonProcess;
/// use chameleon_simcore::rng::SimRng;
/// use chameleon_simcore::time::SimTime;
///
/// let mut rng = SimRng::seed(11);
/// let mut p = PoissonProcess::new(10.0); // 10 req/s
/// let t1 = p.next_arrival(&mut rng);
/// let t2 = p.next_arrival(&mut rng);
/// assert!(t2 > t1);
/// ```
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    inter: Exponential,
    now: crate::time::SimTime,
}

impl PoissonProcess {
    /// Creates a process with `rate` arrivals per second, starting at t=0.
    pub fn new(rate: f64) -> Self {
        PoissonProcess {
            inter: Exponential::new(rate),
            now: crate::time::SimTime::ZERO,
        }
    }

    /// Advances the process and returns the next arrival instant.
    pub fn next_arrival(&mut self, rng: &mut SimRng) -> crate::time::SimTime {
        let gap = SimDuration::from_secs_f64(self.inter.sample(rng));
        self.now += gap;
        self.now
    }

    /// The configured arrival rate (per second).
    pub fn rate(&self) -> f64 {
        self.inter.lambda()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::new(4.0);
        let mut rng = SimRng::seed(1);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let emp = sum / n as f64;
        assert!((emp - 0.25).abs() < 0.01, "empirical mean {emp}");
    }

    #[test]
    fn lognormal_median_matches() {
        let d = LogNormal::from_median(100.0, 0.8);
        let mut rng = SimRng::seed(2);
        let mut xs: Vec<f64> = (0..20_001).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!(
            (median - 100.0).abs() / 100.0 < 0.05,
            "empirical median {median}"
        );
    }

    #[test]
    fn lognormal_is_heavy_tailed() {
        let d = LogNormal::from_median(100.0, 1.0);
        // Mean well above median is the heavy-tail signature.
        assert!(d.mean() > 150.0);
    }

    #[test]
    fn zipf_is_skewed_and_normalised() {
        let z = Zipf::new(100, 1.0);
        assert!(z.pmf(0) > 10.0 * z.pmf(99));
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(z.len(), 100);
        assert!(!z.is_empty());
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_empirical_head_dominates() {
        let z = Zipf::new(50, 1.0);
        let mut rng = SimRng::seed(3);
        let mut counts = [0u32; 50];
        for _ in 0..50_000 {
            counts[z.sample_index(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[25] * 5);
    }

    #[test]
    fn uniform_int_inclusive_bounds() {
        let d = UniformInt::new(3, 5);
        let mut rng = SimRng::seed(4);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let v = d.sample_int(&mut rng);
            assert!((3..=5).contains(&v));
            seen[v as usize] = true;
        }
        assert!(seen[3] && seen[4] && seen[5]);
        assert_eq!(d.mean(), 4.0);
    }

    #[test]
    fn poisson_process_is_monotone_and_calibrated() {
        let mut p = PoissonProcess::new(8.0);
        let mut rng = SimRng::seed(5);
        let mut last = crate::time::SimTime::ZERO;
        let n = 8000;
        for _ in 0..n {
            let t = p.next_arrival(&mut rng);
            assert!(t >= last);
            last = t;
        }
        let horizon = last.as_secs_f64();
        let rate = n as f64 / horizon;
        assert!((rate - 8.0).abs() < 0.4, "empirical rate {rate}");
    }

    proptest! {
        #[test]
        fn prop_zipf_pmf_is_monotone_nonincreasing(n in 1usize..200, s in 0.0f64..3.0) {
            let z = Zipf::new(n, s);
            for k in 1..n {
                prop_assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12);
            }
        }

        #[test]
        fn prop_exponential_nonnegative(lambda in 0.01f64..100.0, seed in 0u64..1000) {
            let d = Exponential::new(lambda);
            let mut rng = SimRng::seed(seed);
            prop_assert!(d.sample(&mut rng) >= 0.0);
        }
    }
}
