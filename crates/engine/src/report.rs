//! Per-engine run reports.

use chameleon_cache::CacheStats;
use chameleon_metrics::{KvStats, MemorySample, RequestRecord, RoutingStats};
use chameleon_simcore::SimDuration;

/// Everything one engine measured over a run. The core crate aggregates
/// this into the experiment-level [`RunReport`](https://docs.rs/chameleon-core).
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Per-request records, sorted by arrival.
    pub records: Vec<RequestRecord>,
    /// Adapter-cache statistics.
    pub cache_stats: CacheStats,
    /// Total bytes moved over the host link.
    pub pcie_total_bytes: u64,
    /// Total time the host link was busy.
    pub pcie_busy: SimDuration,
    /// Transfers over the host link.
    pub pcie_transfers: u64,
    /// Memory-occupancy samples (Figure 6).
    pub mem_series: Vec<MemorySample>,
    /// Requests squashed for re-execution (§4.3.3).
    pub squashes: u64,
    /// Scheduler label.
    pub scheduler: &'static str,
    /// Cluster-routing statistics. Default (empty) for single-engine runs;
    /// the cluster stamps the merged report with its dispatcher's stats.
    pub routing: RoutingStats,
    /// KV-memory-economy counters (admission refusals, requeue-front
    /// storms, demotions/restores, peak pressure). Default (disabled)
    /// unless a `KvSpec` armed the run.
    pub kv: KvStats,
}

impl EngineReport {
    /// Number of completed requests.
    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.is_complete()).count()
    }

    /// Fraction of requests that were squashed at least once.
    pub fn squash_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.squashes > 0).count() as f64 / self.records.len() as f64
    }

    /// Merges another engine's report into this one (data-parallel
    /// clusters aggregate per-engine reports). Routing statistics are
    /// cluster-scoped, not per-engine, so `merge` leaves them untouched —
    /// the cluster stamps them onto the merged report afterwards.
    pub fn merge(&mut self, other: EngineReport) {
        self.records.extend(other.records);
        self.records.sort_by_key(|r| (r.arrival, r.id));
        self.cache_stats.hits += other.cache_stats.hits;
        self.cache_stats.misses += other.cache_stats.misses;
        self.cache_stats.evictions += other.cache_stats.evictions;
        self.cache_stats.bytes_evicted += other.cache_stats.bytes_evicted;
        self.cache_stats.bytes_loaded += other.cache_stats.bytes_loaded;
        self.pcie_total_bytes += other.pcie_total_bytes;
        self.pcie_busy += other.pcie_busy;
        self.pcie_transfers += other.pcie_transfers;
        self.mem_series.extend(other.mem_series);
        self.squashes += other.squashes;
        self.kv.merge(&other.kv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_models::{AdapterId, AdapterRank};
    use chameleon_simcore::SimTime;
    use chameleon_workload::RequestId;

    fn report_with(n: usize, squashed: usize) -> EngineReport {
        let records = (0..n)
            .map(|i| {
                let mut r = RequestRecord::arrive(
                    RequestId(i as u64),
                    SimTime::from_secs_f64(i as f64),
                    10,
                    10,
                    AdapterId(0),
                    AdapterRank::new(8),
                );
                r.finished = Some(SimTime::from_secs_f64(i as f64 + 1.0));
                if i < squashed {
                    r.squashes = 1;
                }
                r
            })
            .collect();
        EngineReport {
            records,
            cache_stats: CacheStats::default(),
            pcie_total_bytes: 100,
            pcie_busy: SimDuration::from_millis(5),
            pcie_transfers: 0,
            mem_series: Vec::new(),
            squashes: squashed as u64,
            scheduler: "test",
            routing: RoutingStats::default(),
            kv: KvStats::default(),
        }
    }

    #[test]
    fn squash_fraction() {
        let r = report_with(10, 2);
        assert!((r.squash_fraction() - 0.2).abs() < 1e-12);
        assert_eq!(r.completed(), 10);
        assert_eq!(report_with(0, 0).squash_fraction(), 0.0);
    }

    #[test]
    fn merge_aggregates() {
        let mut a = report_with(3, 1);
        let b = report_with(2, 0);
        a.merge(b);
        assert_eq!(a.records.len(), 5);
        assert_eq!(a.pcie_total_bytes, 200);
        assert_eq!(a.squashes, 1);
    }
}
