//! Eviction policies for the adapter cache.
//!
//! All policies expose one operation: given the set of eviction candidates,
//! pick the next victim. Scores are computed over the *candidate set* so
//! that normalisation (the paper's frequency/recency/size factors are
//! dimensionless) is well defined.

use chameleon_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// A candidate for eviction, as seen by a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Stable index into the caller's candidate list.
    pub index: usize,
    /// Adapter weight bytes (eviction frees this much).
    pub bytes: u64,
    /// Uses within the current accounting window.
    pub frequency: u32,
    /// Last time the adapter was used.
    pub last_used: SimTime,
}

/// Which replacement algorithm the cache runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used adapter.
    Lru,
    /// Evict the least-frequently-used adapter.
    Lfu,
    /// The paper's compound score with equal weights (§5.3 "FairShare").
    FairShare,
    /// The paper's tuned compound score: F=0.45, R=0.10, S=0.45 (§4.2).
    ChameleonScore {
        /// Frequency weight.
        f: f64,
        /// Recency weight.
        r: f64,
        /// Size weight.
        s: f64,
    },
    /// Greedy-Dual-Size-Frequency (web-cache classic, §5.3 comparison):
    /// score = frequency · cost / size, with an aging floor.
    Gdsf,
}

impl EvictionPolicy {
    /// The paper's tuned weights (§4.2: "F, R, and S are set to 0.45, 0.10,
    /// and 0.45").
    pub fn chameleon() -> Self {
        EvictionPolicy::ChameleonScore {
            f: 0.45,
            r: 0.10,
            s: 0.45,
        }
    }

    /// Short label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::Lfu => "lfu",
            EvictionPolicy::FairShare => "fair-share",
            EvictionPolicy::ChameleonScore { .. } => "chameleon",
            EvictionPolicy::Gdsf => "gdsf",
        }
    }

    /// The `(F, R, S)` weights of a compound (normalised) policy, `None`
    /// for the keyed policies (LRU/LFU/GDSF) whose victim order
    /// admits a stable per-entry key.
    pub fn compound_weights(&self) -> Option<(f64, f64, f64)> {
        match self {
            EvictionPolicy::FairShare => {
                let w = 1.0 / 3.0;
                Some((w, w, w))
            }
            EvictionPolicy::ChameleonScore { f, r, s } => Some((*f, *r, *s)),
            _ => None,
        }
    }

    /// Picks the victim among `candidates`; returns its `index` field.
    ///
    /// `now` anchors recency; `gdsf_floor` is the GreedyDual aging value
    /// maintained by the cache (ignored by other policies).
    ///
    /// Returns `None` when there are no candidates.
    pub fn pick_victim(
        &self,
        candidates: &[Candidate],
        now: SimTime,
        gdsf_floor: f64,
    ) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        match self {
            EvictionPolicy::Lru => candidates
                .iter()
                .min_by_key(|c| (c.last_used, c.index))
                .map(|c| c.index),
            EvictionPolicy::Lfu => candidates
                .iter()
                .min_by_key(|c| (c.frequency, c.last_used, c.index))
                .map(|c| c.index),
            EvictionPolicy::FairShare => {
                let w = 1.0 / 3.0;
                Self::pick_by_compound(candidates, now, w, w, w)
            }
            EvictionPolicy::ChameleonScore { f, r, s } => {
                Self::pick_by_compound(candidates, now, *f, *r, *s)
            }
            EvictionPolicy::Gdsf => candidates
                .iter()
                .map(|c| {
                    // Cost ≈ reload latency: a fixed per-load part plus a
                    // size-proportional part (in MB to keep magnitudes sane).
                    let mb = c.bytes as f64 / (1 << 20) as f64;
                    let cost = 8.0 + mb / 10.0;
                    let score = gdsf_floor + c.frequency as f64 * cost / mb.max(1e-9);
                    (score, c.index)
                })
                .min_by(|a, b| a.partial_cmp(b).expect("finite scores"))
                .map(|(_, i)| i),
        }
    }

    /// Compound score (§4.2): `F·freq_n + R·rec_n + S·size_n`, all factors
    /// normalised to `[0, 1]` over the candidate set; the *lowest* score is
    /// the least critical adapter and is evicted first. Higher frequency,
    /// more recent use and larger size all make an adapter more worth
    /// keeping (larger adapters are costlier to reload, §4.2's
    /// cost-awareness: "prioritize the eviction of smaller adapters").
    fn pick_by_compound(
        candidates: &[Candidate],
        now: SimTime,
        f: f64,
        r: f64,
        s: f64,
    ) -> Option<usize> {
        let max_freq = candidates.iter().map(|c| c.frequency).max()? as f64;
        let max_bytes = candidates.iter().map(|c| c.bytes).max()? as f64;
        let max_age = candidates
            .iter()
            .map(|c| now.saturating_since(c.last_used).as_secs_f64())
            .fold(0.0_f64, f64::max);
        candidates
            .iter()
            .map(|c| {
                let freq_n = if max_freq > 0.0 {
                    c.frequency as f64 / max_freq
                } else {
                    0.0
                };
                let age = now.saturating_since(c.last_used).as_secs_f64();
                let rec_n = if max_age > 0.0 {
                    1.0 - age / max_age
                } else {
                    1.0
                };
                let size_n = if max_bytes > 0.0 {
                    c.bytes as f64 / max_bytes
                } else {
                    0.0
                };
                let score = f * freq_n + r * rec_n + s * size_n;
                (score, c.index)
            })
            .min_by(|a, b| a.partial_cmp(b).expect("finite scores"))
            .map(|(_, i)| i)
    }

    /// The GDSF score of a single candidate (used by the cache to advance
    /// its aging floor on eviction).
    pub fn gdsf_score(candidate: &Candidate, gdsf_floor: f64) -> f64 {
        let mb = candidate.bytes as f64 / (1 << 20) as f64;
        let cost = 8.0 + mb / 10.0;
        gdsf_floor + candidate.frequency as f64 * cost / mb.max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(index: usize, bytes: u64, frequency: u32, last_used_s: f64) -> Candidate {
        Candidate {
            index,
            bytes,
            frequency,
            last_used: SimTime::from_secs_f64(last_used_s),
        }
    }

    fn now() -> SimTime {
        SimTime::from_secs_f64(100.0)
    }

    #[test]
    fn lru_picks_oldest() {
        let cs = [
            cand(0, 10, 5, 90.0),
            cand(1, 10, 5, 10.0),
            cand(2, 10, 5, 50.0),
        ];
        assert_eq!(EvictionPolicy::Lru.pick_victim(&cs, now(), 0.0), Some(1));
    }

    #[test]
    fn lfu_picks_least_frequent() {
        let cs = [
            cand(0, 10, 5, 90.0),
            cand(1, 10, 1, 95.0),
            cand(2, 10, 9, 50.0),
        ];
        assert_eq!(EvictionPolicy::Lfu.pick_victim(&cs, now(), 0.0), Some(1));
    }

    #[test]
    fn chameleon_prefers_evicting_small_cold_unpopular() {
        // Candidate 1 is small, old, and rarely used — the clear victim
        // under the tuned compound score.
        let cs = [
            cand(0, 256 << 20, 50, 99.0),
            cand(1, 16 << 20, 1, 10.0),
            cand(2, 128 << 20, 30, 95.0),
        ];
        assert_eq!(
            EvictionPolicy::chameleon().pick_victim(&cs, now(), 0.0),
            Some(1)
        );
    }

    #[test]
    fn chameleon_size_beats_recency_at_tuned_weights() {
        // Same frequency; a small recently-used adapter loses to a large
        // old one because S(0.45) ≫ R(0.10): reloading the small one is
        // cheap.
        let cs = [
            cand(0, 256 << 20, 10, 10.0), // large, old
            cand(1, 8 << 20, 10, 99.0),   // small, fresh
        ];
        assert_eq!(
            EvictionPolicy::chameleon().pick_victim(&cs, now(), 0.0),
            Some(1)
        );
        // FairShare weighs recency equally and keeps the fresh one instead.
        assert_eq!(
            EvictionPolicy::FairShare.pick_victim(&cs, now(), 0.0),
            Some(0)
        );
    }

    #[test]
    fn gdsf_evicts_large_moderate_frequency_adapters() {
        // §5.3: GDSF "aggressively evicts larger adapters with moderate use
        // frequency" because score ∝ freq/size.
        let cs = [
            cand(0, 256 << 20, 10, 90.0), // large, moderately popular
            cand(1, 8 << 20, 10, 90.0),   // small, same popularity
        ];
        assert_eq!(EvictionPolicy::Gdsf.pick_victim(&cs, now(), 0.0), Some(0));
    }

    #[test]
    fn gdsf_score_monotone_in_frequency() {
        let lo = EvictionPolicy::gdsf_score(&cand(0, 64 << 20, 1, 0.0), 0.0);
        let hi = EvictionPolicy::gdsf_score(&cand(0, 64 << 20, 10, 0.0), 0.0);
        assert!(hi > lo);
    }

    #[test]
    fn empty_candidates_yield_none() {
        for p in [
            EvictionPolicy::Lru,
            EvictionPolicy::Lfu,
            EvictionPolicy::FairShare,
            EvictionPolicy::chameleon(),
            EvictionPolicy::Gdsf,
        ] {
            assert_eq!(p.pick_victim(&[], now(), 0.0), None);
        }
    }

    #[test]
    fn single_candidate_always_picked() {
        let cs = [cand(7, 10, 0, 0.0)];
        for p in [
            EvictionPolicy::Lru,
            EvictionPolicy::Lfu,
            EvictionPolicy::FairShare,
            EvictionPolicy::chameleon(),
            EvictionPolicy::Gdsf,
        ] {
            assert_eq!(p.pick_victim(&cs, now(), 0.0), Some(7), "{}", p.name());
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EvictionPolicy::chameleon().name(), "chameleon");
        assert_eq!(EvictionPolicy::Lru.name(), "lru");
        assert_eq!(EvictionPolicy::Gdsf.name(), "gdsf");
    }
}
