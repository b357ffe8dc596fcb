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

/// Result of clustering at one K.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Sorted cluster centroids.
    pub centroids: Vec<f64>,
    /// Within-cluster sum of squares.
    pub wcss: f64,
}

/// Lloyd's algorithm specialised for 1-D data, deterministic (quantile
/// initialisation), `iters` refinement rounds.
///
/// Returns `None` for an empty sample or `k == 0`.
pub fn kmeans_1d(values: &[f64], k: usize, iters: usize) -> Option<Clustering> {
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
        // Assign: nearest centroid (sorted data + sorted centroids →
        // boundaries are midpoints, single sweep).
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
            let d = centroids
                .iter()
                .map(|&c| (v - c) * (v - c))
                .fold(f64::INFINITY, f64::min);
            d
        })
        .sum();
    Some(Clustering { centroids, wcss })
}

/// Chooses the number of queues: the smallest K in `1..=k_max` after which
/// adding a cluster improves WCSS by less than `elbow_threshold`
/// (relative), evaluated with `kmeans_1d`.
///
/// Returns the chosen clustering. `None` for an empty sample.
pub fn choose_queues(values: &[f64], k_max: usize, elbow_threshold: f64) -> Option<Clustering> {
    if values.is_empty() || k_max == 0 {
        return None;
    }
    let mut best = kmeans_1d(values, 1, 32)?;
    for k in 2..=k_max {
        let next = kmeans_1d(values, k, 32)?;
        if best.wcss <= f64::EPSILON {
            break;
        }
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
    use proptest::prelude::*;

    #[test]
    fn recovers_separated_clusters() {
        let mut vals = Vec::new();
        for i in 0..50 {
            vals.push(0.1 + (i % 5) as f64 * 0.001);
            vals.push(0.5 + (i % 5) as f64 * 0.001);
            vals.push(0.9 + (i % 5) as f64 * 0.001);
        }
        let c = kmeans_1d(&vals, 3, 32).unwrap();
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
            let c = kmeans_1d(&vals, k, 32).unwrap();
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
        let c = choose_queues(&vals, 4, 0.15).unwrap();
        assert_eq!(c.centroids.len(), 3, "centroids: {:?}", c.centroids);
    }

    #[test]
    fn elbow_picks_one_for_uniform_point() {
        let vals = vec![0.4; 100];
        let c = choose_queues(&vals, 4, 0.15).unwrap();
        assert_eq!(c.centroids.len(), 1);
    }

    #[test]
    fn respects_k_max() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let c = choose_queues(&vals, 2, 0.01).unwrap();
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
        assert!(kmeans_1d(&[], 3, 10).is_none());
        assert!(kmeans_1d(&[1.0], 0, 10).is_none());
        assert!(choose_queues(&[], 4, 0.1).is_none());
        let single = kmeans_1d(&[0.7], 4, 10).unwrap();
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
            let c = kmeans_1d(&vals, k, 16).unwrap();
            let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for &ctr in &c.centroids {
                prop_assert!(ctr >= lo - 1e-9 && ctr <= hi + 1e-9);
            }
        }
    }
}
