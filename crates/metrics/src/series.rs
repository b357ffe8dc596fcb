//! Time-binned series for the over-time figures.

use chameleon_simcore::stats::percentile;
use chameleon_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A series of `(time, value)` observations reducible into fixed-width bins.
///
/// Used for the paper's over-time plots: P99 TTFT over elapsed time
/// (Figures 15 and 19) and PCIe bandwidth over time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BinnedSeries {
    samples: Vec<(SimTime, f64)>,
}

impl BinnedSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        BinnedSeries::default()
    }

    /// Appends an observation.
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.samples.push((at, value));
    }

    /// Number of raw observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Reduces the series into bins of width `bin`, applying `f` to each
    /// non-empty bin's values. Returns `(bin_start_time, f(values))` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn reduce_bins<F>(&self, bin: SimDuration, mut f: F) -> Vec<(SimTime, f64)>
    where
        F: FnMut(&[f64]) -> f64,
    {
        assert!(!bin.is_zero(), "zero bin width");
        if self.samples.is_empty() {
            return Vec::new();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut out = Vec::new();
        let mut bucket: Vec<f64> = Vec::new();
        let mut bin_idx = sorted[0].0.as_nanos() / bin.as_nanos();
        for (t, v) in sorted {
            let idx = t.as_nanos() / bin.as_nanos();
            if idx != bin_idx {
                if !bucket.is_empty() {
                    out.push((SimTime::from_nanos(bin_idx * bin.as_nanos()), f(&bucket)));
                    bucket.clear();
                }
                bin_idx = idx;
            }
            bucket.push(v);
        }
        if !bucket.is_empty() {
            out.push((SimTime::from_nanos(bin_idx * bin.as_nanos()), f(&bucket)));
        }
        out
    }

    /// Per-bin P99 — the Figure 15/19 reduction.
    pub fn p99_bins(&self, bin: SimDuration) -> Vec<(SimTime, f64)> {
        self.reduce_bins(bin, |xs| percentile(xs, 99.0).expect("non-empty bin"))
    }
}

/// One snapshot of GPU memory occupancy — a point of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemorySample {
    /// Snapshot instant.
    pub at: SimTime,
    /// Bytes of base-model weights.
    pub weights: u64,
    /// Bytes of KV cache.
    pub kv: u64,
    /// Bytes of adapters referenced by running requests.
    pub adapters_in_use: u64,
    /// Bytes held by the adapter cache.
    pub adapter_cache: u64,
    /// Device capacity.
    pub capacity: u64,
}

impl MemorySample {
    /// Total bytes in use.
    pub fn total_used(&self) -> u64 {
        self.weights + self.kv + self.adapters_in_use + self.adapter_cache
    }

    /// Idle bytes (Figure 6's "IdleMem").
    pub fn idle(&self) -> u64 {
        self.capacity - self.total_used()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn bins_partition_correctly() {
        let mut s = BinnedSeries::new();
        s.push(t(0.1), 1.0);
        s.push(t(0.9), 3.0);
        s.push(t(1.5), 10.0);
        s.push(t(3.2), 7.0);
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let bins = s.reduce_bins(SimDuration::from_secs(1), mean);
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[0].1, 2.0);
        assert_eq!(bins[1].1, 10.0);
        assert_eq!(bins[2].1, 7.0);
        assert_eq!(bins[2].0, t(3.0));
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut s = BinnedSeries::new();
        s.push(t(5.0), 2.0);
        s.push(t(1.0), 4.0);
        let bins = s.reduce_bins(SimDuration::from_secs(1), |xs| xs.iter().sum::<f64>());
        assert_eq!(bins[0], (t(1.0), 4.0));
        assert_eq!(bins[1], (t(5.0), 2.0));
    }

    #[test]
    fn p99_reduction() {
        let mut s = BinnedSeries::new();
        for i in 0..100 {
            s.push(t(0.5), i as f64);
        }
        let bins = s.p99_bins(SimDuration::from_secs(1));
        assert_eq!(bins.len(), 1);
        assert!(bins[0].1 > 97.0);
    }

    #[test]
    fn empty_series() {
        let s = BinnedSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.p99_bins(SimDuration::from_secs(1)).is_empty());
    }

    #[test]
    fn memory_sample_arithmetic() {
        let m = MemorySample {
            at: t(1.0),
            weights: 500,
            kv: 200,
            adapters_in_use: 50,
            adapter_cache: 100,
            capacity: 1000,
        };
        assert_eq!(m.total_used(), 850);
        assert_eq!(m.idle(), 150);
    }
}
