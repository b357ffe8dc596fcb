//! 1-D K-means clustering for queue configuration (§4.3.4).
//!
//! The Chameleon scheduler clusters the observed WRS distribution with
//! K-means for K in `1..=K_max` and derives per-queue cut-offs as midpoints
//! between consecutive centroids.
//!
//! The paper says it "picks the K that yields minimal WCSS"; taken
//! literally that always selects `K_max` because WCSS is non-increasing in
//! K. We read it as the standard elbow criterion: stop increasing K once
//! the marginal WCSS improvement falls below a threshold.
//!
//! [`choose_queues`] sorts the sample once and runs every K on it. On
//! sorted data each cluster is a contiguous range, so a Lloyd round in
//! `kmeans_sorted` places the range boundaries by binary search and sums
//! each range in data order, and the WCSS takes one merge walk. A round
//! whose centroids are too close for the rounded distances to keep that
//! order runs per value instead. Centroids and WCSS keep the bits of the
//! per-value algorithm, which the tests keep as their reference.

/// Result of clustering at one K.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Sorted cluster centroids.
    pub centroids: Vec<f64>,
    /// Within-cluster sum of squares.
    pub wcss: f64,
}

#[cfg(test)]
thread_local! {
    /// Lloyd rounds this thread ran per value (the non-monotone fallback).
    static PER_VALUE_ROUNDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How one Lloyd round assigned the sorted sample to the centroids.
#[derive(Debug, Clone, PartialEq)]
enum Assignment {
    /// Cluster `c` holds `sorted[bounds[c]..bounds[c + 1]]`.
    Ranges(Vec<usize>),
    /// The cluster of every value, from a round whose nearest-centroid
    /// test need not be monotone along the data.
    PerValue(Vec<usize>),
}

impl Assignment {
    /// The cluster of every value.
    fn per_value(&self, n: usize) -> Vec<usize> {
        match self {
            Assignment::PerValue(a) => a.clone(),
            Assignment::Ranges(bounds) => {
                let mut a = Vec::with_capacity(n);
                for (c, w) in bounds.windows(2).enumerate() {
                    a.resize(w[1], c);
                }
                a
            }
        }
    }

    /// True when the two assignments put some value in different clusters.
    fn differs(&self, other: &Assignment, n: usize) -> bool {
        match (self, other) {
            (Assignment::Ranges(a), Assignment::Ranges(b)) => a != b,
            _ => self.per_value(n) != other.per_value(n),
        }
    }
}

/// Lloyd's algorithm specialised for 1-D data, deterministic (quantile
/// initialisation), at most `iters` refinement rounds, on `sorted` data
/// (ascending).
///
/// Each value joins its nearest centroid by `(v - c).abs()`, the lowest
/// index winning ties. On sorted data with sorted centroids that test is
/// monotone along the data, so a round finds each cluster's range by
/// binary search and sums the range in data order. Rounding can break the
/// monotonicity only when two adjacent centroids lie within
/// `4·ε·max|v|` of each other (the distances' rounding error is at most
/// half that), or when that bound is itself subnormal; such a round
/// assigns, sums and tests for change per value. Both forms yield the
/// same bits as testing every value against every centroid.
///
/// Returns `None` for an empty sample or `k == 0`.
fn kmeans_sorted(sorted: &[f64], k: usize, iters: usize) -> Option<Clustering> {
    if sorted.is_empty() || k == 0 {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "kmeans_sorted needs ascending data"
    );
    let n = sorted.len();
    let k = k.min(n);
    // Quantile initialisation: evenly spaced order statistics.
    let mut centroids: Vec<f64> = (0..k)
        .map(|i| {
            let idx = (i * 2 + 1) * n / (2 * k);
            sorted[idx.min(n - 1)]
        })
        .collect();
    centroids.dedup();
    let m = centroids.len();
    let tie_gap = 4.0 * f64::EPSILON * sorted[0].abs().max(sorted[n - 1].abs());
    // Every value starts in cluster 0.
    let mut assignment = Assignment::Ranges(
        std::iter::once(0)
            .chain(std::iter::repeat_n(n, m))
            .collect(),
    );
    let mut sums = vec![0.0; m];
    let mut counts = vec![0usize; m];
    for _ in 0..iters {
        let monotone =
            tie_gap >= f64::MIN_POSITIVE && centroids.windows(2).all(|w| w[1] - w[0] > tie_gap);
        let next = if monotone {
            // Cluster j + 1 starts at the first value it strictly beats
            // cluster j on.
            let mut bounds = vec![0; m + 1];
            for j in 0..m - 1 {
                let (lo, here, up) = (bounds[j], centroids[j], centroids[j + 1]);
                bounds[j + 1] =
                    lo + sorted[lo..].partition_point(|&v| (v - up).abs() >= (v - here).abs());
            }
            bounds[m] = n;
            for (c, w) in bounds.windows(2).enumerate() {
                let mut sum = 0.0;
                for &v in &sorted[w[0]..w[1]] {
                    sum += v;
                }
                sums[c] = sum;
                counts[c] = w[1] - w[0];
            }
            Assignment::Ranges(bounds)
        } else {
            #[cfg(test)]
            PER_VALUE_ROUNDS.with(|r| r.set(r.get() + 1));
            sums.fill(0.0);
            counts.fill(0);
            let per_value = sorted
                .iter()
                .map(|&v| {
                    let mut best = 0;
                    let mut best_d = f64::INFINITY;
                    for (c, &ctr) in centroids.iter().enumerate() {
                        let d = (v - ctr).abs();
                        if d < best_d {
                            best_d = d;
                            best = c;
                        }
                    }
                    sums[best] += v;
                    counts[best] += 1;
                    best
                })
                .collect();
            Assignment::PerValue(per_value)
        };
        let changed = next.differs(&assignment, n);
        assignment = next;
        // Update.
        for c in 0..m {
            if counts[c] > 0 {
                centroids[c] = sums[c] / counts[c] as f64;
            }
        }
        centroids.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        if !changed {
            break;
        }
    }
    // Drop empty/duplicate centroids.
    centroids.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    // Rounding is monotone, so the smallest squared distance from `v` is
    // to one of the two centroids bracketing it: a merge walk over the
    // sorted data finds the same minimum as scanning every centroid.
    let mut above = 0;
    let wcss = sorted
        .iter()
        .map(|&v| {
            while above < centroids.len() && centroids[above] <= v {
                above += 1;
            }
            let sq = |c: f64| (v - c) * (v - c);
            let lower = above
                .checked_sub(1)
                .map_or(f64::INFINITY, |i| sq(centroids[i]));
            let upper = centroids.get(above).map_or(f64::INFINITY, |&c| sq(c));
            lower.min(upper)
        })
        .sum();
    Some(Clustering { centroids, wcss })
}

/// Chooses the number of queues: the smallest K in `1..=k_max` after which
/// adding a cluster improves WCSS by less than `elbow_threshold`
/// (relative), evaluated with `kmeans_sorted`.
///
/// Sorts `values` in place once; every K runs on that order. Returns the
/// chosen clustering, `None` for an empty sample.
///
/// # Panics
///
/// Panics if a value is NaN.
pub fn choose_queues(values: &mut [f64], k_max: usize, elbow_threshold: f64) -> Option<Clustering> {
    if values.is_empty() || k_max == 0 {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN WRS"));
    let mut best = kmeans_sorted(values, 1, 32)?;
    for k in 2..=k_max {
        if best.wcss <= f64::EPSILON {
            break;
        }
        let next = kmeans_sorted(values, k, 32)?;
        let improvement = (best.wcss - next.wcss) / best.wcss;
        if improvement < elbow_threshold {
            break;
        }
        best = next;
    }
    Some(best)
}

/// Queue cut-offs from centroids: the boundary between cluster `i` and
/// `i+1` is `(centroid_i + centroid_{i+1}) / 2` (§4.3.4). A clustering with
/// `n` centroids yields `n-1` boundaries.
pub fn cutoffs(centroids: &[f64]) -> Vec<f64> {
    centroids.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
}

/// Maps a WRS value onto its queue index given sorted `cutoffs`:
/// queue 0 holds values below the first cut-off, and so on.
pub fn queue_of(wrs: f64, cutoffs: &[f64]) -> usize {
    cutoffs.partition_point(|&c| wrs >= c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_simcore::rng::SimRng;
    use proptest::prelude::*;

    /// [`kmeans_sorted`] on a sorted copy of `values`.
    fn kmeans_of(values: &[f64], k: usize, iters: usize) -> Option<Clustering> {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN WRS"));
        kmeans_sorted(&sorted, k, iters)
    }

    /// The per-value Lloyd's algorithm [`kmeans_sorted`] replaces: every
    /// round tests every value against every centroid. The reference the
    /// range form must match bit for bit.
    fn kmeans_1d(values: &[f64], k: usize, iters: usize) -> Option<Clustering> {
        if values.is_empty() || k == 0 {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN WRS"));
        let k = k.min(sorted.len());
        // Quantile initialisation: evenly spaced order statistics.
        let mut centroids: Vec<f64> = (0..k)
            .map(|i| {
                let idx = (i * 2 + 1) * sorted.len() / (2 * k);
                sorted[idx.min(sorted.len() - 1)]
            })
            .collect();
        centroids.dedup();
        let mut assignment = vec![0usize; sorted.len()];
        for _ in 0..iters {
            // Assign: nearest centroid.
            let mut changed = false;
            for (i, &v) in sorted.iter().enumerate() {
                let mut best = 0;
                let mut best_d = f64::INFINITY;
                for (c, &ctr) in centroids.iter().enumerate() {
                    let d = (v - ctr).abs();
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                if assignment[i] != best {
                    assignment[i] = best;
                    changed = true;
                }
            }
            // Update.
            let mut sums = vec![0.0; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for (i, &v) in sorted.iter().enumerate() {
                sums[assignment[i]] += v;
                counts[assignment[i]] += 1;
            }
            for c in 0..centroids.len() {
                if counts[c] > 0 {
                    centroids[c] = sums[c] / counts[c] as f64;
                }
            }
            centroids.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            if !changed {
                break;
            }
        }
        // Drop empty/duplicate centroids.
        centroids.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let wcss = sorted
            .iter()
            .map(|&v| {
                centroids
                    .iter()
                    .map(|&c| (v - c) * (v - c))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        Some(Clustering { centroids, wcss })
    }

    /// Bit patterns of a clustering, so `-0.0` and `0.0` differ too.
    fn bits(c: &Clustering) -> (Vec<u64>, u64) {
        (
            c.centroids.iter().map(|x| x.to_bits()).collect(),
            c.wcss.to_bits(),
        )
    }

    /// Runs both algorithms on `values` and asserts bit-equal results;
    /// returns the per-value rounds the range form fell back to.
    fn assert_matches_reference(values: &[f64], k: usize, iters: usize) -> u64 {
        let before = PER_VALUE_ROUNDS.with(|r| r.get());
        let got = kmeans_of(values, k, iters).expect("non-empty sample");
        let fallbacks = PER_VALUE_ROUNDS.with(|r| r.get()) - before;
        let want = kmeans_1d(values, k, iters).expect("non-empty sample");
        assert_eq!(
            bits(&got),
            bits(&want),
            "k={k} iters={iters} got {got:?} want {want:?} on {values:?}"
        );
        fallbacks
    }

    /// `x` moved by `ulps` representable values (same sign, finite `x`).
    fn ulps_from(x: f64, ulps: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + ulps) as u64)
    }

    /// The rounding case the per-value fallback exists for: centroids two
    /// ulps apart near 1.0 and values near 1e6, where `(v - c).abs()`
    /// rounds equal for both close centroids and the lower index wins
    /// values that lie on the far side of the upper one.
    #[test]
    fn close_centroids_fall_back_to_per_value_rounds() {
        let mut rng = SimRng::seed(11);
        let mut fell_back = 0;
        for _ in 0..200 {
            let mut vals: Vec<f64> = (0..8)
                .map(|_| ulps_from(1.0, rng.below(5) as i64 - 2))
                .collect();
            vals.extend((0..11).map(|_| rng.range_f64(2.8e5, 9.7e5)));
            rng.shuffle(&mut vals);
            fell_back += assert_matches_reference(&vals, 4, 32);
        }
        assert!(fell_back > 0, "no round took the per-value fallback");
    }

    /// The range form against the per-value reference on generated
    /// samples: uniform values, heavy duplicates, runs of adjacent floats,
    /// values spanning many binades (negative and subnormal ones too), at
    /// every K the scheduler uses and beyond, with short and full round
    /// budgets. Deterministic loop: the property-test runner's 48 cases
    /// are too few for the rare shapes.
    #[test]
    fn range_rounds_match_per_value_reference() {
        let mut rng = SimRng::seed(5);
        let (mut cases, mut fell_back) = (0u64, 0u64);
        for case in 0..3000 {
            let n = 1 + rng.below(if case % 10 == 0 { 400 } else { 60 }) as usize;
            let vals: Vec<f64> = match case % 6 {
                // Uniform on [0, 1), the WRS range.
                0 => (0..n).map(|_| rng.f64()).collect(),
                // A handful of distinct values, each repeated.
                1 => {
                    let distinct: Vec<f64> = (0..1 + rng.below(4)).map(|_| rng.f64()).collect();
                    (0..n)
                        .map(|_| *rng.pick(&distinct).expect("non-empty"))
                        .collect()
                }
                // Runs of adjacent floats around a few bases.
                2 => {
                    let bases: Vec<f64> = (0..1 + rng.below(3))
                        .map(|_| rng.range_f64(0.5, 2.0) * 10f64.powi(rng.below(7) as i32 - 3))
                        .collect();
                    (0..n)
                        .map(|_| {
                            ulps_from(*rng.pick(&bases).expect("non-empty"), rng.below(8) as i64)
                        })
                        .collect()
                }
                // Several binades, either sign.
                3 => (0..n)
                    .map(|_| {
                        let x = rng.range_f64(1.0, 2.0) * 2f64.powi(rng.below(60) as i32 - 30);
                        if rng.chance(0.2) {
                            -x
                        } else {
                            x
                        }
                    })
                    .collect(),
                // Tight clusters far from the origin plus near-tied ones.
                4 => {
                    let mut v: Vec<f64> = (0..n / 2 + 1)
                        .map(|_| ulps_from(1.0, rng.below(5) as i64 - 2))
                        .collect();
                    v.extend((0..n / 2).map(|_| rng.range_f64(1e3, 1e7)));
                    v
                }
                // Subnormals and zeros.
                _ => (0..n)
                    .map(|_| match rng.below(3) {
                        0 => 0.0,
                        1 => f64::from_bits(1 + rng.below(64)),
                        _ => f64::MIN_POSITIVE * rng.f64(),
                    })
                    .collect(),
            };
            let k = 1 + rng.below(6) as usize;
            let iters = [0, 1, 2, 5, 32][rng.below(5) as usize];
            fell_back += assert_matches_reference(&vals, k, iters);
            cases += 1;
        }
        assert_eq!(cases, 3000);
        assert!(fell_back > 0, "the generated samples never fell back");
    }

    /// `choose_queues` over one sort equals the per-K reference loop.
    #[test]
    fn choose_queues_matches_per_k_reference() {
        let mut rng = SimRng::seed(9);
        for _ in 0..200 {
            let n = 1 + rng.below(300) as usize;
            let vals: Vec<f64> = (0..n).map(|_| rng.f64() * rng.f64()).collect();
            let (k_max, elbow) = (1 + rng.below(5) as usize, rng.range_f64(0.01, 0.3));
            let mut want = kmeans_1d(&vals, 1, 32).expect("non-empty");
            for k in 2..=k_max {
                let next = kmeans_1d(&vals, k, 32).expect("non-empty");
                if want.wcss <= f64::EPSILON || (want.wcss - next.wcss) / want.wcss < elbow {
                    break;
                }
                want = next;
            }
            let got = choose_queues(&mut vals.clone(), k_max, elbow).expect("non-empty");
            assert_eq!(bits(&got), bits(&want), "k_max={k_max} elbow={elbow}");
        }
    }

    #[test]
    fn recovers_separated_clusters() {
        let mut vals = Vec::new();
        for i in 0..50 {
            vals.push(0.1 + (i % 5) as f64 * 0.001);
            vals.push(0.5 + (i % 5) as f64 * 0.001);
            vals.push(0.9 + (i % 5) as f64 * 0.001);
        }
        let c = kmeans_of(&vals, 3, 32).unwrap();
        assert_eq!(c.centroids.len(), 3);
        assert!((c.centroids[0] - 0.102).abs() < 0.01);
        assert!((c.centroids[1] - 0.502).abs() < 0.01);
        assert!((c.centroids[2] - 0.902).abs() < 0.01);
        assert!(c.wcss < 0.01);
    }

    #[test]
    fn wcss_non_increasing_in_k() {
        let vals: Vec<f64> = (0..200).map(|i| ((i * 37) % 100) as f64 / 100.0).collect();
        let mut prev = f64::INFINITY;
        for k in 1..=6 {
            let c = kmeans_of(&vals, k, 32).unwrap();
            assert!(c.wcss <= prev + 1e-9, "WCSS rose at k={k}");
            prev = c.wcss;
        }
    }

    #[test]
    fn elbow_picks_three_for_three_clusters() {
        let mut vals = Vec::new();
        for _ in 0..60 {
            vals.extend_from_slice(&[0.1, 0.5, 0.9]);
        }
        let c = choose_queues(&mut vals, 4, 0.15).unwrap();
        assert_eq!(c.centroids.len(), 3, "centroids: {:?}", c.centroids);
    }

    #[test]
    fn elbow_picks_one_for_uniform_point() {
        let mut vals = vec![0.4; 100];
        let c = choose_queues(&mut vals, 4, 0.15).unwrap();
        assert_eq!(c.centroids.len(), 1);
    }

    #[test]
    fn respects_k_max() {
        let mut vals: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let c = choose_queues(&mut vals, 2, 0.01).unwrap();
        assert!(c.centroids.len() <= 2);
    }

    #[test]
    fn cutoffs_are_midpoints() {
        let b = cutoffs(&[0.1, 0.5, 0.9]);
        assert_eq!(b, vec![0.3, 0.7]);
        assert!(cutoffs(&[0.5]).is_empty());
    }

    #[test]
    fn queue_assignment() {
        let b = vec![0.3, 0.7];
        assert_eq!(queue_of(0.0, &b), 0);
        assert_eq!(queue_of(0.29, &b), 0);
        assert_eq!(queue_of(0.3, &b), 1, "boundary belongs to upper queue");
        assert_eq!(queue_of(0.69, &b), 1);
        assert_eq!(queue_of(0.99, &b), 2);
        assert_eq!(queue_of(0.5, &[]), 0, "single queue when no cutoffs");
    }

    #[test]
    fn degenerate_inputs() {
        assert!(kmeans_of(&[], 3, 10).is_none());
        assert!(kmeans_of(&[1.0], 0, 10).is_none());
        assert!(choose_queues(&mut [], 4, 0.1).is_none());
        let single = kmeans_of(&[0.7], 4, 10).unwrap();
        assert_eq!(single.centroids, vec![0.7]);
        assert_eq!(single.wcss, 0.0);
    }

    proptest! {
        /// queue_of is consistent with cutoffs: a value lands in queue q iff
        /// it is ≥ all boundaries below q and < the boundary at q.
        #[test]
        fn prop_queue_of_consistent(wrs in 0.0f64..1.0, c1 in 0.1f64..0.4, c2 in 0.5f64..0.9) {
            let b = vec![c1, c2];
            let q = queue_of(wrs, &b);
            match q {
                0 => prop_assert!(wrs < c1),
                1 => prop_assert!(wrs >= c1 && wrs < c2),
                2 => prop_assert!(wrs >= c2),
                _ => prop_assert!(false),
            }
        }

        /// Every centroid lies within the data range.
        #[test]
        fn prop_centroids_in_range(vals in proptest::collection::vec(0.0f64..1.0, 1..100), k in 1usize..5) {
            let c = kmeans_of(&vals, k, 16).unwrap();
            let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for &ctr in &c.centroids {
                prop_assert!(ctr >= lo - 1e-9 && ctr <= hi + 1e-9);
            }
        }
    }
}
