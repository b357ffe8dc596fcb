//! Histogram-based adapter-load prediction.
//!
//! §4.2 (3): "we explore techniques that predict future load, such as a
//! histogram-based approach \[48\], and prefetch adapters even for requests
//! that are not currently queued". Reference \[48\] is Serverless in the Wild,
//! whose keep-alive policy tracks per-function inter-arrival histograms.
//! [`HistogramLoadPredictor`] applies the same idea per adapter: observe
//! arrival gaps, predict the next use as `last_use + median_gap`, and
//! surface adapters expected within a prefetch window.
//!
//! Two consumers drive the API:
//!
//! * the single-engine prefetcher, which only needs the ordered candidate
//!   list ([`HistogramLoadPredictor::candidates`]);
//! * the cluster-level predictive control plane, which also needs *how
//!   hot* each candidate is — [`HistogramLoadPredictor::forecast`]
//!   returns `(adapter, predicted time, estimated rate)` triples so
//!   forecast-driven autoscaling can sum expected arrivals, not just
//!   count imminent adapters.
//!
//! Both orderings are pinned: candidates sort by predicted time with ties
//! broken by ascending [`AdapterId`], so every consumer (and every
//! serial↔parallel bit-identity test built on top) sees one deterministic
//! sequence regardless of hash-map iteration order.

use chameleon_models::AdapterId;
use chameleon_simcore::{SimDuration, SimTime};
use std::collections::HashMap;

/// Per-adapter inter-arrival statistics.
#[derive(Debug, Clone)]
struct AdapterHistory {
    last_seen: SimTime,
    /// Log-scale histogram of inter-arrival gaps (bucket k covers
    /// `[2^k, 2^(k+1))` milliseconds).
    gap_buckets: Vec<u32>,
    observations: u32,
}

const NUM_BUCKETS: usize = 24; // up to ~2^24 ms ≈ 4.6 hours

fn bucket_of(gap: SimDuration) -> usize {
    let ms = gap.as_millis_f64().max(1.0);
    (ms.log2().floor() as usize).min(NUM_BUCKETS - 1)
}

fn bucket_mid(bucket: usize) -> SimDuration {
    SimDuration::from_millis_f64(1.5 * (1u64 << bucket) as f64)
}

impl AdapterHistory {
    fn new(at: SimTime) -> Self {
        AdapterHistory {
            last_seen: at,
            gap_buckets: vec![0; NUM_BUCKETS],
            observations: 0,
        }
    }

    fn observe(&mut self, at: SimTime) {
        if at > self.last_seen {
            let gap = at.saturating_since(self.last_seen);
            self.gap_buckets[bucket_of(gap)] += 1;
            self.observations += 1;
        }
        self.last_seen = self.last_seen.max(at);
    }

    /// Median inter-arrival gap (bucket midpoint).
    fn median_gap(&self) -> Option<SimDuration> {
        if self.observations == 0 {
            return None;
        }
        let target = self.observations.div_ceil(2);
        let mut acc = 0;
        for (k, &c) in self.gap_buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(bucket_mid(k));
            }
        }
        None
    }
}

/// One adapter the predictor expects to be used soon.
///
/// Produced by [`HistogramLoadPredictor::forecast`]; the cluster control
/// plane sums `rate` over an interval into a predicted-arrivals signal
/// for the autoscaler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Forecast {
    /// The adapter predicted to arrive.
    pub adapter: AdapterId,
    /// Predicted instant of its next use (never in the past).
    pub predicted_at: SimTime,
    /// Estimated arrival rate in requests/second (the reciprocal of the
    /// median inter-arrival gap).
    pub rate: f64,
}

/// Predicts which adapters will be needed soon, from observed arrivals.
///
/// ```
/// use chameleon_predictor::HistogramLoadPredictor;
/// use chameleon_models::AdapterId;
/// use chameleon_simcore::{SimDuration, SimTime};
///
/// let mut p = HistogramLoadPredictor::new();
/// // Adapter 1 arrives every second.
/// for s in 0..10 {
///     p.observe(AdapterId(1), SimTime::from_secs_f64(s as f64));
/// }
/// let next = p.predict_next_use(AdapterId(1), SimTime::from_secs_f64(10.0)).unwrap();
/// assert!(next <= SimTime::from_secs_f64(12.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct HistogramLoadPredictor {
    histories: HashMap<AdapterId, AdapterHistory>,
}

impl HistogramLoadPredictor {
    /// Creates an empty predictor.
    pub fn new() -> Self {
        HistogramLoadPredictor::default()
    }

    /// Records that a request for `adapter` arrived at `at`.
    pub fn observe(&mut self, adapter: AdapterId, at: SimTime) {
        self.histories
            .entry(adapter)
            .or_insert_with(|| AdapterHistory::new(at))
            .observe(at);
    }

    /// Number of adapters with any history.
    pub fn tracked(&self) -> usize {
        self.histories.len()
    }

    /// Predicts the next use of `adapter`: `max(now, last_seen + median
    /// gap)`. Returns `None` before two observations exist (no gap yet).
    pub fn predict_next_use(&self, adapter: AdapterId, now: SimTime) -> Option<SimTime> {
        let h = self.histories.get(&adapter)?;
        let gap = h.median_gap()?;
        Some((h.last_seen + gap).max(now))
    }

    /// Estimated arrival rate of `adapter` in requests/second: the
    /// reciprocal of the median inter-arrival gap. `None` before two
    /// observations exist.
    pub fn predicted_rate(&self, adapter: AdapterId) -> Option<f64> {
        let gap = self.histories.get(&adapter)?.median_gap()?;
        let secs = gap.as_secs_f64();
        (secs > 0.0).then(|| 1.0 / secs)
    }

    /// Adapters predicted to be used within `window` from `now`, most
    /// imminent first — the prefetch candidate list.
    ///
    /// Ordering is pinned: ascending predicted time, ties broken by
    /// ascending [`AdapterId`] (two adapters whose bucket midpoints
    /// collapse to the same instant always list in id order).
    pub fn candidates(&self, now: SimTime, window: SimDuration) -> Vec<AdapterId> {
        let mut out = Vec::new();
        self.forecast_into(now, window, &mut out);
        out.into_iter().map(|f| f.adapter).collect()
    }

    /// The full forecast behind [`candidates`](Self::candidates):
    /// `(adapter, predicted time, rate)` for every adapter predicted
    /// within `window` of `now`, sorted by `(predicted_at, adapter)`.
    pub fn forecast(&self, now: SimTime, window: SimDuration) -> Vec<Forecast> {
        let mut out = Vec::new();
        self.forecast_into(now, window, &mut out);
        out
    }

    /// [`forecast`](Self::forecast) into a caller-owned buffer (cleared
    /// first), so repeated control-plane queries allocate nothing in the
    /// steady state.
    ///
    /// An overdue prediction is clamped to `now` rather than the past —
    /// but only within a grace period of [`STALE_GAPS`] median gaps since
    /// the last observation. Past that the adapter has *missed* several
    /// predicted arrivals (its regime changed: a popularity shift, a
    /// tenant going quiet) and it drops out of the forecast until seen
    /// again. Without this cutoff a formerly hot adapter would sort at
    /// the head of every forecast forever — crowding the prefetcher's
    /// candidate list and permanently inflating predicted-arrival
    /// signals.
    pub fn forecast_into(&self, now: SimTime, window: SimDuration, out: &mut Vec<Forecast>) {
        let deadline = now + window;
        out.clear();
        for (&id, h) in &self.histories {
            let Some(gap) = h.median_gap() else { continue };
            if now.saturating_since(h.last_seen) > gap.mul_f64(STALE_GAPS) {
                continue; // several predicted arrivals missed: stale
            }
            let predicted_at = (h.last_seen + gap).max(now);
            if predicted_at > deadline {
                continue;
            }
            let secs = gap.as_secs_f64();
            if secs <= 0.0 {
                continue;
            }
            out.push(Forecast {
                adapter: id,
                predicted_at,
                rate: 1.0 / secs,
            });
        }
        // Pinned tie-break: predicted instant, then adapter id. The map
        // iteration order above is arbitrary; this sort is what makes the
        // forecast deterministic.
        out.sort_unstable_by_key(|f| (f.predicted_at, f.adapter));
    }
}

/// Median gaps an adapter may go unseen before its forecast goes stale:
/// one gap is merely "due now", a few more is jitter, beyond that the
/// arrival pattern the histogram learned no longer describes the present.
pub const STALE_GAPS: f64 = 4.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn needs_two_observations() {
        let mut p = HistogramLoadPredictor::new();
        assert_eq!(p.predict_next_use(AdapterId(1), t(0.0)), None);
        p.observe(AdapterId(1), t(1.0));
        assert_eq!(p.predict_next_use(AdapterId(1), t(1.0)), None);
        p.observe(AdapterId(1), t(2.0));
        assert!(p.predict_next_use(AdapterId(1), t(2.0)).is_some());
        assert_eq!(p.tracked(), 1);
    }

    #[test]
    fn periodic_adapter_predicted_on_time() {
        let mut p = HistogramLoadPredictor::new();
        for s in 0..20 {
            p.observe(AdapterId(1), t(s as f64));
        }
        let next = p.predict_next_use(AdapterId(1), t(19.0)).unwrap();
        // 1 s gaps land in the [1024 ms, 2048 ms) bucket → midpoint 1.536 s.
        assert!(next > t(19.0) && next <= t(21.0), "predicted {next}");
    }

    #[test]
    fn prediction_never_in_past() {
        let mut p = HistogramLoadPredictor::new();
        p.observe(AdapterId(1), t(0.0));
        p.observe(AdapterId(1), t(1.0));
        let next = p.predict_next_use(AdapterId(1), t(100.0)).unwrap();
        assert!(next >= t(100.0));
    }

    #[test]
    fn candidates_ordered_by_imminence() {
        let mut p = HistogramLoadPredictor::new();
        // Adapter 1: 1 s period, last seen t=10.
        for s in 0..=10 {
            p.observe(AdapterId(1), t(s as f64));
        }
        // Adapter 2: 4 s period, last seen t=8.
        for s in (0..=8).step_by(4) {
            p.observe(AdapterId(2), t(s as f64));
        }
        // Adapter 3: seen once — unpredictable.
        p.observe(AdapterId(3), t(9.0));
        let c = p.candidates(t(10.0), SimDuration::from_secs(30));
        assert_eq!(c.len(), 2);
        assert_eq!(c[0], AdapterId(1), "1s-period adapter is most imminent");
        assert_eq!(c[1], AdapterId(2));
        // Tight window keeps only the most imminent adapter: adapter 1 is
        // predicted at ~10.77 s (768 ms bucket midpoint after last_seen=10),
        // adapter 2 at ~11.07 s (3.07 s midpoint after last_seen=8).
        let tight = p.candidates(t(10.0), SimDuration::from_millis(900));
        assert_eq!(tight, vec![AdapterId(1)]);
    }

    #[test]
    fn bursty_history_uses_median_not_mean() {
        let mut p = HistogramLoadPredictor::new();
        // Nine 100 ms gaps and one 100 s outlier: median stays ~100 ms.
        let mut now = 0.0;
        p.observe(AdapterId(7), t(now));
        for _ in 0..9 {
            now += 0.1;
            p.observe(AdapterId(7), t(now));
        }
        now += 100.0;
        p.observe(AdapterId(7), t(now));
        let next = p.predict_next_use(AdapterId(7), t(now)).unwrap();
        let gap = next.saturating_since(t(now));
        assert!(
            gap < SimDuration::from_secs(1),
            "median-based gap should be small, got {gap}"
        );
    }

    #[test]
    fn equal_predicted_times_tie_break_by_adapter_id() {
        // Give several adapters *identical* histories (same gaps, same
        // last-seen instant): every predicted time collapses to the same
        // value, so ordering is decided purely by the pinned tie-break.
        // Insertion order is scrambled to catch any map-order leakage.
        let mut p = HistogramLoadPredictor::new();
        for &id in &[9u32, 2, 17, 5, 11] {
            for s in 0..6 {
                p.observe(AdapterId(id), t(s as f64));
            }
        }
        let c = p.candidates(t(5.0), SimDuration::from_secs(10));
        assert_eq!(
            c,
            vec![
                AdapterId(2),
                AdapterId(5),
                AdapterId(9),
                AdapterId(11),
                AdapterId(17)
            ],
            "equal predicted times must order by ascending AdapterId"
        );
        // And the full forecast agrees with the candidate list.
        let f = p.forecast(t(5.0), SimDuration::from_secs(10));
        assert_eq!(
            f.iter().map(|x| x.adapter).collect::<Vec<_>>(),
            c,
            "forecast and candidates must share one pinned order"
        );
        assert!(f.windows(2).all(|w| w[0].predicted_at <= w[1].predicted_at));
    }

    #[test]
    fn forecast_is_deterministic_and_sorted() {
        let mut p = HistogramLoadPredictor::new();
        for a in 0..40u32 {
            // Distinct periods and phases per adapter.
            let period = 0.5 + f64::from(a % 7) * 0.3;
            for k in 0..8 {
                p.observe(AdapterId(a), t(f64::from(a % 3) * 0.1 + k as f64 * period));
            }
        }
        let now = t(8.0);
        let w = SimDuration::from_secs(5);
        let first = p.forecast(now, w);
        assert_eq!(
            first,
            p.forecast(now, w),
            "forecast must be a pure function"
        );
        assert!(
            first
                .windows(2)
                .all(|w| (w[0].predicted_at, w[0].adapter) < (w[1].predicted_at, w[1].adapter)),
            "forecast must be strictly sorted by (time, id)"
        );
    }

    #[test]
    fn forecast_drops_stale_adapters() {
        let mut p = HistogramLoadPredictor::new();
        // Two 1 Hz adapters; adapter 2 keeps arriving, adapter 1 stops.
        for s in 0..10 {
            p.observe(AdapterId(1), t(s as f64));
            p.observe(AdapterId(2), t(s as f64));
        }
        for s in 10..40 {
            p.observe(AdapterId(2), t(s as f64));
        }
        let w = SimDuration::from_secs(60);
        // Just overdue (within the grace period): still forecast, at now.
        let soon = p.forecast(t(11.0), w);
        assert!(soon.iter().any(|f| f.adapter == AdapterId(1)));
        // Dozens of missed arrivals later: adapter 1 has aged out, the
        // still-active adapter 2 remains.
        let late = p.forecast(t(39.0), w);
        assert!(
            !late.iter().any(|f| f.adapter == AdapterId(1)),
            "an adapter silent for ~30 predicted periods must leave the forecast"
        );
        assert!(late.iter().any(|f| f.adapter == AdapterId(2)));
        // A fresh observation brings it straight back.
        p.observe(AdapterId(1), t(40.0));
        let back = p.forecast(t(40.0), w);
        assert!(back.iter().any(|f| f.adapter == AdapterId(1)));
    }

    #[test]
    fn rate_estimator_tracks_period() {
        let mut p = HistogramLoadPredictor::new();
        assert_eq!(p.predicted_rate(AdapterId(1)), None);
        for s in 0..20 {
            p.observe(AdapterId(1), t(s as f64));
        }
        // 1 s gaps land in the [512, 1024) ms bucket (midpoint 768 ms):
        // the estimated rate is 1/0.768 ≈ 1.3/s — same order as the true
        // 1/s rate, which is all the thresholding needs.
        let rate = p.predicted_rate(AdapterId(1)).unwrap();
        assert!((0.5..=2.0).contains(&rate), "rate {rate}");
        // A 10x slower adapter estimates a ~10x smaller rate.
        for s in 0..20 {
            p.observe(AdapterId(2), t(s as f64 * 10.0));
        }
        let slow = p.predicted_rate(AdapterId(2)).unwrap();
        assert!(slow < rate / 4.0, "slow {slow} vs fast {rate}");
        // Forecast rows carry the same estimate.
        let f = p.forecast(t(200.0), SimDuration::from_secs(60));
        for row in &f {
            assert_eq!(Some(row.rate), p.predicted_rate(row.adapter));
        }
    }

    #[test]
    fn duplicate_timestamps_ignored() {
        let mut p = HistogramLoadPredictor::new();
        p.observe(AdapterId(1), t(1.0));
        p.observe(AdapterId(1), t(1.0));
        assert_eq!(p.predict_next_use(AdapterId(1), t(1.0)), None);
    }
}
