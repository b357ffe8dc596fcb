//! Order statistics and run fingerprints.

use chameleon_core::RunReport;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Buckets per narrowing pass of [`percentile_ns`].
const BUCKETS: u64 = 1 << 16;

/// The `p`-th percentile (0–100), in seconds, of a sample of nanosecond
/// values, linearly interpolated between the two nearest ranks exactly as
/// `chameleon_simcore::stats::percentile_of_sorted` does on the sample in
/// seconds. `sample` is iterated several times instead of being copied
/// and sorted: a run's TBT sample runs to millions of values.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile_ns<I, F>(sample: F, p: f64) -> f64
where
    F: Fn() -> I,
    I: Iterator<Item = u64>,
{
    let (mut n, mut min, mut max) = (0u64, u64::MAX, 0u64);
    for v in sample() {
        n += 1;
        min = min.min(v);
        max = max.max(v);
    }
    assert!(n > 0, "empty sample");
    let secs = |ns: u64| chameleon_simcore::SimDuration::from_nanos(ns).as_secs_f64();
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as u64;
    let frac = rank - lo as f64;
    let lo_v = secs(order_statistic(&sample, lo, min, max));
    if frac == 0.0 {
        return lo_v;
    }
    let hi_v = secs(order_statistic(&sample, lo + 1, min, max));
    lo_v + (hi_v - lo_v) * frac
}

/// The `k`-th smallest (from 0) of the sample values in `[lo, hi]`, found
/// by narrowing `[lo, hi]` to one histogram bucket per pass.
fn order_statistic<I, F>(sample: &F, mut k: u64, mut lo: u64, mut hi: u64) -> u64
where
    F: Fn() -> I,
    I: Iterator<Item = u64>,
{
    let mut counts = Vec::new();
    while lo < hi {
        let span = hi - lo;
        let shift = (64 - (span / BUCKETS).leading_zeros()).min(63);
        counts.clear();
        counts.resize((span >> shift) as usize + 1, 0u64);
        for v in sample().filter(|v| (lo..=hi).contains(v)) {
            counts[((v - lo) >> shift) as usize] += 1;
        }
        let mut below = 0;
        let bucket = counts
            .iter()
            .position(|&c| {
                below += c;
                k < below
            })
            .expect("rank within the sample");
        k -= below - counts[bucket];
        lo += (bucket as u64) << shift;
        hi = hi.min(lo.saturating_add((1u64 << shift) - 1));
    }
    lo
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile of `xs`, by the method of
/// Python's `statistics.quantiles(xs, n=4)` (the default, "exclusive").
/// A single value is its own quartiles.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let n = 4;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        *q = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// A digest of everything a run simulated: every request's timeline plus
/// the cache, link, KV and routing counters. Two runs of one trace on
/// one system must produce the same fingerprint.
pub fn fingerprint(r: &RunReport) -> u64 {
    let mut h = DefaultHasher::new();
    let opt = |t: Option<chameleon_simcore::SimTime>| t.map_or(u64::MAX, |t| t.as_nanos());
    for rec in &r.records {
        (
            rec.id.0,
            opt(rec.admitted),
            opt(rec.first_token),
            opt(rec.finished),
            rec.tbt_gaps.len(),
            rec.load_on_critical_path.as_nanos(),
            rec.squashes,
            rec.bypasses,
        )
            .hash(&mut h);
    }
    let c = &r.cache_stats;
    (c.hits, c.misses, c.evictions, c.bytes_loaded).hash(&mut h);
    (r.pcie_total_bytes, r.pcie_busy.as_nanos(), r.squashes).hash(&mut h);
    (r.events_processed, r.horizon.as_nanos(), r.slo.as_nanos()).hash(&mut h);
    let k = &r.kv;
    (
        k.refused,
        k.storms,
        k.demotions,
        k.restores,
        k.pressure_peak.to_bits(),
    )
        .hash(&mut h);
    let rt = &r.routing;
    (rt.dispatched, rt.affinity_hits, rt.spills, &rt.per_engine).hash(&mut h);
    h.finish()
}

/// A digest of a report's `canonical_text`.
pub fn canonical_digest(r: &RunReport) -> u64 {
    let mut h = DefaultHasher::new();
    r.canonical_text().hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_ns_matches_sorted_interpolation() {
        let data: Vec<u64> = (0..1001u64).map(|i| (i * 7919) % 1001 * 500_017).collect();
        let mut sorted: Vec<f64> = data
            .iter()
            .map(|&ns| chameleon_simcore::SimDuration::from_nanos(ns).as_secs_f64())
            .collect();
        sorted.sort_by(f64::total_cmp);
        for p in [0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let want = chameleon_simcore::stats::percentile_of_sorted(&sorted, p);
            assert_eq!(percentile_ns(|| data.iter().copied(), p), want, "p{p}");
        }
        // Heavy ties and a single value.
        let ties = [5u64, 5, 5, 9, 9, 1 << 40];
        assert_eq!(
            percentile_ns(|| ties.iter().copied(), 50.0),
            5e-9 + (9e-9 - 5e-9) * 0.5
        );
        assert_eq!(percentile_ns(|| [7u64].into_iter(), 99.0), 7e-9);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
