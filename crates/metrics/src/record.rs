//! Per-request measurement records.

use chameleon_models::{AdapterId, AdapterRank};
use chameleon_simcore::{SimDuration, SimTime};
use chameleon_workload::RequestId;
use serde::{Deserialize, Serialize};

/// The size class a scheduler assigned to a request (Figure 16 buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SizeClass {
    /// Smallest-request queue.
    Small,
    /// Middle queue(s).
    Medium,
    /// Largest-request queue.
    Large,
}

impl SizeClass {
    /// Maps a queue index out of `total` queues onto the three reporting
    /// buckets the paper uses (first queue → small, last → large).
    pub fn from_queue_index(index: usize, total: usize) -> SizeClass {
        debug_assert!(total > 0 && index < total);
        if index == 0 {
            SizeClass::Small
        } else if index + 1 == total {
            if total == 1 {
                SizeClass::Small
            } else {
                SizeClass::Large
            }
        } else {
            SizeClass::Medium
        }
    }
}

impl std::fmt::Display for SizeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SizeClass::Small => "small",
            SizeClass::Medium => "medium",
            SizeClass::Large => "large",
        };
        f.write_str(s)
    }
}

/// Everything measured about one request's journey through the system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// The request's identity.
    pub id: RequestId,
    /// Arrival at the frontend.
    pub arrival: SimTime,
    /// Prompt length.
    pub input_tokens: u32,
    /// True output length.
    pub output_tokens: u32,
    /// Adapter used.
    pub adapter: AdapterId,
    /// Rank of that adapter.
    pub rank: AdapterRank,
    /// First admission into a running batch.
    pub admitted: Option<SimTime>,
    /// First output token produced (end of prefill).
    pub first_token: Option<SimTime>,
    /// Last output token produced.
    pub finished: Option<SimTime>,
    /// Gaps between consecutive output tokens (TBT samples).
    pub tbt_gaps: Vec<SimDuration>,
    /// Adapter-load time that remained on the request's critical path at
    /// admission (zero on a cache hit; Figure 14's metric).
    pub load_on_critical_path: SimDuration,
    /// Size class assigned by the scheduler, when it classifies.
    pub class: Option<SizeClass>,
    /// Times this request was squashed and re-queued (§4.3.3).
    pub squashes: u32,
    /// Times this request bypassed a blocked older request (§4.3.3).
    pub bypasses: u32,
}

impl RequestRecord {
    /// Creates an empty record for an arriving request.
    pub fn arrive(
        id: RequestId,
        arrival: SimTime,
        input_tokens: u32,
        output_tokens: u32,
        adapter: AdapterId,
        rank: AdapterRank,
    ) -> Self {
        RequestRecord {
            id,
            arrival,
            input_tokens,
            output_tokens,
            adapter,
            rank,
            admitted: None,
            first_token: None,
            finished: None,
            tbt_gaps: Vec::new(),
            load_on_critical_path: SimDuration::ZERO,
            class: None,
            squashes: 0,
            bypasses: 0,
        }
    }

    /// Time-to-first-token, when the request produced one.
    pub fn ttft(&self) -> Option<SimDuration> {
        self.first_token.map(|t| t.saturating_since(self.arrival))
    }

    /// End-to-end latency, when the request completed.
    pub fn e2e(&self) -> Option<SimDuration> {
        self.finished.map(|t| t.saturating_since(self.arrival))
    }

    /// Time spent waiting in scheduler queues before first admission.
    pub fn queue_delay(&self) -> Option<SimDuration> {
        self.admitted.map(|t| t.saturating_since(self.arrival))
    }

    /// True when the request finished generating.
    pub fn is_complete(&self) -> bool {
        self.finished.is_some()
    }

    /// Number of inter-token gaps recorded (the request's TBT samples).
    pub fn tbt_count(&self) -> usize {
        self.tbt_gaps.len()
    }

    /// Sum of the request's inter-token gaps.
    pub fn tbt_sum(&self) -> SimDuration {
        self.tbt_gaps.iter().copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> RequestRecord {
        RequestRecord::arrive(
            RequestId(1),
            SimTime::from_secs_f64(10.0),
            100,
            20,
            AdapterId(2),
            AdapterRank::new(16),
        )
    }

    #[test]
    fn latencies_from_timestamps() {
        let mut r = rec();
        assert_eq!(r.ttft(), None);
        assert_eq!(r.e2e(), None);
        assert_eq!(r.queue_delay(), None);
        assert!(!r.is_complete());
        r.admitted = Some(SimTime::from_secs_f64(10.5));
        r.first_token = Some(SimTime::from_secs_f64(11.0));
        r.finished = Some(SimTime::from_secs_f64(12.0));
        assert_eq!(r.queue_delay(), Some(SimDuration::from_millis(500)));
        assert_eq!(r.ttft(), Some(SimDuration::from_secs(1)));
        assert_eq!(r.e2e(), Some(SimDuration::from_secs(2)));
        assert!(r.is_complete());
    }

    #[test]
    fn tbt_count_and_sum_read_the_gaps() {
        let mut r = rec();
        assert_eq!((r.tbt_count(), r.tbt_sum()), (0, SimDuration::ZERO));
        r.tbt_gaps = vec![SimDuration::from_millis(30), SimDuration::from_millis(45)];
        assert_eq!(r.tbt_count(), 2);
        assert_eq!(r.tbt_sum(), SimDuration::from_millis(75));
    }

    #[test]
    fn class_mapping_three_queues() {
        assert_eq!(SizeClass::from_queue_index(0, 3), SizeClass::Small);
        assert_eq!(SizeClass::from_queue_index(1, 3), SizeClass::Medium);
        assert_eq!(SizeClass::from_queue_index(2, 3), SizeClass::Large);
    }

    #[test]
    fn class_mapping_edge_cases() {
        assert_eq!(SizeClass::from_queue_index(0, 1), SizeClass::Small);
        assert_eq!(SizeClass::from_queue_index(1, 2), SizeClass::Large);
        assert_eq!(SizeClass::from_queue_index(1, 4), SizeClass::Medium);
        assert_eq!(SizeClass::from_queue_index(2, 4), SizeClass::Medium);
        assert_eq!(SizeClass::from_queue_index(3, 4), SizeClass::Large);
    }

    #[test]
    fn display_labels() {
        assert_eq!(SizeClass::Small.to_string(), "small");
        assert_eq!(SizeClass::Medium.to_string(), "medium");
        assert_eq!(SizeClass::Large.to_string(), "large");
    }
}
