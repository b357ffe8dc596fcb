//! Experiment-level run reports.

use chameleon_cache::CacheStats;
use chameleon_engine::EngineReport;
use chameleon_metrics::series::BinnedSeries;
use chameleon_metrics::{
    KvStats, LatencySummary, MemorySample, RequestRecord, RoutingStats, SizeClass,
};
use chameleon_models::adapter::adapter_bytes;
use chameleon_models::LlmSpec;
use chameleon_sched::WrsConfig;
use chameleon_simcore::stats::percentile;
use chameleon_simcore::{SimDuration, SimTime};
use chameleon_trace::{BarrierProfile, FlightDump, TraceLog};
use chameleon_workload::RequestId;
use std::collections::HashMap;

/// Everything measured in one run of one system over one trace.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// System label (preset name).
    pub label: String,
    /// Base model served (for rank → bytes in per-rank breakdowns).
    pub llm: LlmSpec,
    /// Per-request records sorted by arrival.
    pub records: Vec<RequestRecord>,
    /// Adapter-cache statistics.
    pub cache_stats: CacheStats,
    /// Total bytes over the host link.
    pub pcie_total_bytes: u64,
    /// Total host-link busy time.
    pub pcie_busy: SimDuration,
    /// Transfers over the host link.
    pub pcie_transfers: u64,
    /// GPU memory-occupancy series (Figure 6).
    pub mem_series: Vec<MemorySample>,
    /// Squash count (§4.3.3).
    pub squashes: u64,
    /// The TTFT SLO in effect.
    pub slo: SimDuration,
    /// Instant of the last processed event.
    pub horizon: SimTime,
    /// Per-request isolated E2E latency (slowdown denominator, §3.3).
    pub isolated_e2e: HashMap<RequestId, SimDuration>,
    /// WRS configuration used (for post-hoc classification).
    pub wrs: WrsConfig,
    /// Mean offered load of the trace, requests/second.
    pub offered_rps: f64,
    /// Scheduler label.
    pub scheduler: &'static str,
    /// Cluster-routing statistics (empty for single-engine runs).
    pub routing: RoutingStats,
    /// KV-memory-economy counters (admission refusals, requeue-front
    /// storms, demotions/restores, peak pressure). Disabled — and absent
    /// from [`canonical_text`](RunReport::canonical_text) — unless the
    /// run armed a `KvSpec`.
    pub kv: KvStats,
    /// Simulation events processed by the run, arrivals included: the
    /// `events=` field of [`canonical_text`](RunReport::canonical_text)
    /// and perfbench's `simcore.events`.
    pub events_processed: u64,
    /// The merged deterministic decision stream, present only when the
    /// system opted into tracing ([`SystemConfig::trace`]). Never feeds
    /// [`canonical_text`](RunReport::canonical_text): traced and
    /// untraced runs of the same system are behaviourally identical.
    ///
    /// [`SystemConfig::trace`]: crate::SystemConfig
    pub trace: Option<TraceLog>,
    /// Flight-recorder dumps from the armed anomaly predicates (empty
    /// when tracing is off or nothing fired).
    pub flight_dumps: Vec<FlightDump>,
    /// Total anomaly firings, including those past the dump cap.
    pub flight_firings: u64,
    /// Wall-clock barrier/epoch profile of a cluster run, for callers
    /// that drive a `Cluster` with `enable_barrier_profiling` and fill it
    /// in themselves; [`Simulation`](crate::Simulation) leaves it `None`.
    /// Host-dependent by nature — excluded from the canonical text.
    pub barrier_profile: Option<BarrierProfile>,
}

impl RunReport {
    /// Assembles a report from an engine report plus run context.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        label: String,
        llm: LlmSpec,
        engine: EngineReport,
        slo: SimDuration,
        horizon: SimTime,
        isolated_e2e: HashMap<RequestId, SimDuration>,
        wrs: WrsConfig,
        offered_rps: f64,
        events_processed: u64,
    ) -> Self {
        RunReport {
            label,
            llm,
            routing: engine.routing,
            kv: engine.kv,
            records: engine.records,
            cache_stats: engine.cache_stats,
            pcie_total_bytes: engine.pcie_total_bytes,
            pcie_busy: engine.pcie_busy,
            pcie_transfers: engine.pcie_transfers,
            mem_series: engine.mem_series,
            squashes: engine.squashes,
            slo,
            horizon,
            isolated_e2e,
            wrs,
            offered_rps,
            scheduler: engine.scheduler,
            events_processed,
            trace: None,
            flight_dumps: Vec::new(),
            flight_firings: 0,
            barrier_profile: None,
        }
    }

    /// Completed requests.
    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.is_complete()).count()
    }

    /// TTFT samples in seconds (completed requests only).
    pub fn ttft_seconds(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(|r| r.ttft())
            .map(|d| d.as_secs_f64())
            .collect()
    }

    /// Every inter-token gap of the run (its TBT samples), in record
    /// order.
    pub fn tbt_gaps(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.records.iter().flat_map(|r| r.tbt_gaps.iter().copied())
    }

    /// All inter-token gaps in seconds (TBT samples).
    pub fn tbt_seconds(&self) -> Vec<f64> {
        self.tbt_gaps().map(|d| d.as_secs_f64()).collect()
    }

    /// TTFT percentile summary.
    pub fn ttft_summary(&self) -> Option<LatencySummary> {
        LatencySummary::from_seconds(&self.ttft_seconds())
    }

    /// TBT percentile summary.
    pub fn tbt_summary(&self) -> Option<LatencySummary> {
        LatencySummary::from_seconds(&self.tbt_seconds())
    }

    /// P99 TTFT in seconds (0 when empty) — the headline metric.
    pub fn p99_ttft(&self) -> f64 {
        self.ttft_summary().map(|s| s.p99).unwrap_or(0.0)
    }

    /// P50 TTFT in seconds (0 when empty).
    pub fn p50_ttft(&self) -> f64 {
        self.ttft_summary().map(|s| s.p50).unwrap_or(0.0)
    }

    /// Fraction of requests whose TTFT exceeds the SLO.
    pub fn slo_violation_fraction(&self) -> f64 {
        LatencySummary::violation_fraction(&self.ttft_seconds(), self.slo.as_secs_f64())
    }

    /// Adapter-cache hit rate.
    pub fn hit_rate(&self) -> f64 {
        self.cache_stats.hit_rate()
    }

    /// Fraction of cluster dispatches that landed on an engine with the
    /// request's adapter already resident (0 for single-engine runs).
    pub fn affinity_hit_rate(&self) -> f64 {
        self.routing.affinity_hit_rate()
    }

    /// Fraction of cluster dispatches diverted off their home engine by
    /// load-aware spill (0 for non-affinity routing).
    pub fn spill_rate(&self) -> f64 {
        self.routing.spill_rate()
    }

    /// Coefficient of variation of per-engine dispatch counts (0 for
    /// single-engine runs).
    pub fn load_imbalance(&self) -> f64 {
        self.routing.load_imbalance()
    }

    /// Mean consumed PCIe bandwidth over the served span, from time zero
    /// to the last completion (bytes/second). The horizon would also
    /// count the engines' trailing periodic ticks, up to one refresh
    /// interval past the last completion.
    pub fn pcie_mean_bandwidth(&self) -> f64 {
        let served = self.records.iter().filter_map(|r| r.finished).max();
        let secs = served.map_or(0.0, SimTime::as_secs_f64);
        if secs <= 0.0 {
            0.0
        } else {
            self.pcie_total_bytes as f64 / secs
        }
    }

    /// Per-request slowdowns: observed E2E / isolated E2E (§3.3).
    pub fn slowdowns(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(|r| {
                let e2e = r.e2e()?;
                let iso = self.isolated_e2e.get(&r.id)?;
                Some(e2e.as_secs_f64() / iso.as_secs_f64().max(1e-9))
            })
            .collect()
    }

    /// Adapter-load latency on the critical path, in seconds (Figure 14).
    pub fn load_on_path_seconds(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.is_complete())
            .map(|r| r.load_on_critical_path.as_secs_f64())
            .collect()
    }

    /// The WRS of a record, using its *true* lengths (post-hoc analysis).
    pub fn wrs_of(&self, r: &RequestRecord) -> f64 {
        self.wrs.compute(
            r.input_tokens,
            r.output_tokens,
            adapter_bytes(&self.llm, r.rank),
        )
    }

    /// Classifies records into small/medium/large by WRS tertiles of this
    /// run (the cross-policy classification Figure 16 needs) and returns
    /// the mean queue delay per class in seconds.
    pub fn queue_delay_by_class(&self) -> Vec<(SizeClass, f64, usize)> {
        let wrs: Vec<f64> = self.records.iter().map(|r| self.wrs_of(r)).collect();
        if wrs.is_empty() {
            return Vec::new();
        }
        let t1 = percentile(&wrs, 33.3).expect("non-empty");
        let t2 = percentile(&wrs, 66.6).expect("non-empty");
        let mut sums = [0.0f64; 3];
        let mut counts = [0usize; 3];
        for (r, &w) in self.records.iter().zip(&wrs) {
            let Some(delay) = r.queue_delay() else {
                continue;
            };
            let class = if w < t1 {
                0
            } else if w < t2 {
                1
            } else {
                2
            };
            sums[class] += delay.as_secs_f64();
            counts[class] += 1;
        }
        vec![
            (SizeClass::Small, avg(sums[0], counts[0]), counts[0]),
            (SizeClass::Medium, avg(sums[1], counts[1]), counts[1]),
            (SizeClass::Large, avg(sums[2], counts[2]), counts[2]),
        ]
    }

    /// Per-time-bin P99 TTFT (Figures 15/19), keyed by arrival time.
    pub fn ttft_over_time(&self, bin: SimDuration) -> Vec<(SimTime, f64)> {
        let mut series = BinnedSeries::new();
        for r in &self.records {
            if let Some(ttft) = r.ttft() {
                series.push(r.arrival, ttft.as_secs_f64());
            }
        }
        series.p99_bins(bin)
    }

    /// P99 TTFT restricted to requests of one adapter rank (Figure 17/18).
    pub fn p99_ttft_for_rank(&self, rank: u32) -> Option<f64> {
        let xs: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.rank.get() == rank)
            .filter_map(|r| r.ttft())
            .map(|d| d.as_secs_f64())
            .collect();
        percentile(&xs, 99.0)
    }

    /// Fraction of requests squashed at least once (§4.3.3 bound check).
    pub fn squash_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.squashes > 0).count() as f64 / self.records.len() as f64
    }

    /// Requests the run finished without (shed at admission or failed
    /// past the retry budget). Zero unless the fault plane was armed.
    pub fn requests_lost_to_faults(&self) -> u64 {
        self.routing.fault.requests_shed + self.routing.fault.requests_failed
    }

    /// Fraction of offered requests served (not shed, not failed) —
    /// `1.0` for fault-free runs.
    pub fn availability(&self, offered: usize) -> f64 {
        self.routing.fault.availability(offered as u64)
    }

    /// P99 TTFT in seconds over **all** `offered` requests: every request
    /// without a first token (shed, failed, or still waiting at the
    /// horizon) counts as an infinite sample, so abandoning work shows in
    /// the tail instead of improving it. The sample is the
    /// `ceil(0.99 · offered)`-th smallest.
    ///
    /// # Panics
    ///
    /// Panics if `offered` is zero or smaller than the number of requests
    /// that produced a first token.
    pub fn p99_ttft_offered(&self, offered: usize) -> f64 {
        let mut xs = self.ttft_seconds();
        assert!(xs.len() <= offered, "more first tokens than offered");
        xs.resize(offered, f64::INFINITY);
        xs.sort_by(f64::total_cmp);
        xs[((offered as f64 * 0.99).ceil() as usize).max(1) - 1]
    }

    /// Verifies request conservation against the number of requests the
    /// trace offered: every offered request must be accounted for exactly
    /// once — completed, still in flight at the horizon, shed at
    /// admission, or failed past the retry budget — and no request may
    /// appear in the records twice (a crash re-dispatch that duplicated
    /// work would).
    pub fn verify_request_conservation(&self, offered: usize) -> Result<(), String> {
        let mut seen = std::collections::HashSet::with_capacity(self.records.len());
        for rec in &self.records {
            if !seen.insert(rec.id) {
                return Err(format!("request {} recorded twice", rec.id.0));
            }
        }
        let accounted = self.records.len() as u64 + self.requests_lost_to_faults();
        if accounted != offered as u64 {
            return Err(format!(
                "conservation violated: offered={} but records={} + shed={} + failed={} = {}",
                offered,
                self.records.len(),
                self.routing.fault.requests_shed,
                self.routing.fault.requests_failed,
                accounted,
            ));
        }
        Ok(())
    }

    /// Panicking form of [`verify_request_conservation`] for tests.
    ///
    /// [`verify_request_conservation`]: RunReport::verify_request_conservation
    pub fn assert_request_conservation(&self, offered: usize) {
        if let Err(e) = self.verify_request_conservation(offered) {
            panic!("{e} (label={})", self.label);
        }
    }

    /// Canonical textual serialisation of the run: stable field order,
    /// integer nanoseconds for every instant/duration, and exact IEEE-754
    /// bit patterns for floats. Two runs are behaviourally identical iff
    /// their canonical texts are byte-identical — this is what the
    /// parallel-vs-serial sweep determinism tests and the benchmark
    /// harness compare. (The workspace's `serde` is an offline no-op stub,
    /// so serialisation is hand-rolled.)
    pub fn canonical_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(64 + self.records.len() * 96);
        let _ = writeln!(
            s,
            "label={} sched={} slo_ns={} horizon_ns={} rps_bits={:016x} events={}",
            self.label,
            self.scheduler,
            self.slo.as_nanos(),
            self.horizon.as_nanos(),
            self.offered_rps.to_bits(),
            self.events_processed,
        );
        let c = &self.cache_stats;
        let _ = writeln!(
            s,
            "cache hits={} misses={} evictions={} bytes_evicted={} bytes_loaded={}",
            c.hits, c.misses, c.evictions, c.bytes_evicted, c.bytes_loaded
        );
        let _ = writeln!(
            s,
            "pcie bytes={} busy_ns={} transfers={} squashes={}",
            self.pcie_total_bytes,
            self.pcie_busy.as_nanos(),
            self.pcie_transfers,
            self.squashes
        );
        let r = &self.routing;
        let ids: Vec<u32> = r.engine_ids.iter().map(|e| e.0).collect();
        let _ = writeln!(
            s,
            "routing policy={} dispatched={} engines={:?} per_engine={:?} affinity_hits={} \
             spills={} added={} drained={} rehomed={}",
            r.policy,
            r.dispatched,
            ids,
            r.per_engine,
            r.affinity_hits,
            r.spills,
            r.engines_added,
            r.engines_drained,
            r.adapters_rehomed,
        );
        // The predictive line exists only for runs that opted into the
        // control plane: non-predictive runs stay byte-identical to the
        // pre-control-plane format (the opt-in oracle suite pins this).
        if r.predictive.enabled {
            let p = &r.predictive;
            let _ = writeln!(
                s,
                "predictive slo_scaleups={} forecast_scaleups={}",
                p.slo_scaleups, p.forecast_scaleups,
            );
        }
        // Like the predictive line, the fault line exists only for runs
        // that armed the fault plane: fault-free runs stay byte-identical
        // to the pre-fault-plane format.
        if r.fault.enabled {
            let f = &r.fault;
            // MTTR means print as bit patterns: byte-for-byte f64
            // equality is exactly the serial↔parallel claim, and a
            // decimal rendering could round two different means onto the
            // same text.
            let _ = writeln!(
                s,
                "fault engines_failed={} recovered={} retries={} failed={} shed={} \
                 pcie_retries={} shard_n={} shard_bytes={} prov_delays={} prov_failures={} \
                 domains_failed={} partitions={} mttr_redispatch={:016x} mttr_complete={:016x}",
                f.engines_failed,
                f.requests_recovered,
                f.retries,
                f.requests_failed,
                f.requests_shed,
                f.pcie_retries,
                f.shard_adapters_recovered,
                f.shard_bytes_recovered,
                f.provision_delays,
                f.provision_failures,
                f.domains_failed,
                f.partitions,
                f.mttr_redispatch.to_bits(),
                f.mttr_complete.to_bits(),
            );
        }
        // Like predictive and fault, the kv line exists only for runs
        // that armed the KV-economy axis: unmetered runs stay
        // byte-identical to the pre-KV-plane format. Peak pressure is a
        // float, so it prints as its IEEE-754 bit pattern.
        if self.kv.enabled {
            let k = &self.kv;
            let _ = writeln!(
                s,
                "kv admission={} hybrid={} refused={} storms={} demotions={} restores={} \
                 restore_bytes={} proxy_peak={} pressure_bits={:016x}",
                k.admission,
                k.hybrid,
                k.refused,
                k.storms,
                k.demotions,
                k.restores,
                k.restore_bytes,
                k.proxy_bytes_peak,
                k.pressure_peak.to_bits(),
            );
        }
        let opt = |t: Option<SimTime>| t.map(|t| t.as_nanos()).unwrap_or(u64::MAX);
        for rec in &self.records {
            let _ = writeln!(
                s,
                "req {} arr={} in={} out={} a={} rank={} adm={} ft={} fin={} tbt_n={} tbt_ns={} load_ns={} sq={} by={}",
                rec.id.0,
                rec.arrival.as_nanos(),
                rec.input_tokens,
                rec.output_tokens,
                rec.adapter.0,
                rec.rank.get(),
                opt(rec.admitted),
                opt(rec.first_token),
                opt(rec.finished),
                rec.tbt_count(),
                rec.tbt_sum().as_nanos(),
                rec.load_on_critical_path.as_nanos(),
                rec.squashes,
                rec.bypasses,
            );
        }
        let mut iso: Vec<(RequestId, SimDuration)> =
            self.isolated_e2e.iter().map(|(&k, &v)| (k, v)).collect();
        iso.sort_unstable_by_key(|&(id, _)| id);
        for (id, d) in iso {
            let _ = writeln!(s, "iso {} {}", id.0, d.as_nanos());
        }
        s
    }

    /// One-line human-readable summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<20} rps={:>5.1} n={:>5} p50={:>7.3}s p99={:>7.3}s hit={:>5.1}% viol={:>5.1}%",
            self.label,
            self.offered_rps,
            self.completed(),
            self.p50_ttft(),
            self.p99_ttft(),
            self.hit_rate() * 100.0,
            self.slo_violation_fraction() * 100.0,
        )
    }
}

fn avg(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_models::{AdapterId, AdapterRank};

    fn record(id: u64, arrival: f64, ttft: f64, e2e: f64, rank: u32) -> RequestRecord {
        let mut r = RequestRecord::arrive(
            RequestId(id),
            SimTime::from_secs_f64(arrival),
            100,
            20,
            AdapterId(0),
            AdapterRank::new(rank),
        );
        r.admitted = Some(SimTime::from_secs_f64(arrival + ttft / 2.0));
        r.first_token = Some(SimTime::from_secs_f64(arrival + ttft));
        r.finished = Some(SimTime::from_secs_f64(arrival + e2e));
        r
    }

    fn report(records: Vec<RequestRecord>) -> RunReport {
        let iso: HashMap<RequestId, SimDuration> = records
            .iter()
            .map(|r| (r.id, SimDuration::from_secs(1)))
            .collect();
        RunReport {
            label: "test".into(),
            llm: LlmSpec::llama_7b(),
            records,
            cache_stats: CacheStats::default(),
            pcie_total_bytes: 1_000_000,
            pcie_busy: SimDuration::from_millis(10),
            pcie_transfers: 0,
            mem_series: Vec::new(),
            squashes: 0,
            slo: SimDuration::from_secs(5),
            horizon: SimTime::from_secs_f64(100.0),
            isolated_e2e: iso,
            wrs: WrsConfig::paper(1000.0, 1000.0, (256u64 << 20) as f64),
            offered_rps: 1.0,
            scheduler: "test",
            routing: RoutingStats::default(),
            kv: KvStats::default(),
            events_processed: 0,
            trace: None,
            flight_dumps: Vec::new(),
            flight_firings: 0,
            barrier_profile: None,
        }
    }

    #[test]
    fn pcie_bandwidth_divides_by_the_last_completion_not_the_horizon() {
        // The last request finishes at 5 s; the horizon lies at 100 s.
        let r = report(vec![
            record(0, 0.0, 0.1, 2.0, 8),
            record(1, 1.0, 0.2, 4.0, 8),
        ]);
        assert!(r.horizon > SimTime::from_secs_f64(5.0));
        assert_eq!(r.pcie_mean_bandwidth(), 1_000_000.0 / 5.0);
        assert_eq!(report(Vec::new()).pcie_mean_bandwidth(), 0.0);
    }

    #[test]
    fn summaries_and_percentiles() {
        let r = report(vec![
            record(0, 0.0, 0.1, 2.0, 8),
            record(1, 1.0, 0.2, 3.0, 16),
            record(2, 2.0, 0.3, 4.0, 32),
        ]);
        assert_eq!(r.completed(), 3);
        let s = r.ttft_summary().unwrap();
        assert!((s.p50 - 0.2).abs() < 1e-9);
        assert!(r.p99_ttft() > 0.29);
        assert_eq!(r.slo_violation_fraction(), 0.0);
        // Slowdowns: e2e / 1s isolated.
        let sd = r.slowdowns();
        assert_eq!(sd.len(), 3);
        assert!((sd[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn violation_fraction_counts() {
        let mut rep = report(vec![
            record(0, 0.0, 6.0, 7.0, 8),
            record(1, 0.0, 1.0, 2.0, 8),
        ]);
        rep.slo = SimDuration::from_secs(5);
        assert!((rep.slo_violation_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn per_rank_p99() {
        let r = report(vec![
            record(0, 0.0, 0.1, 1.0, 8),
            record(1, 0.0, 0.5, 1.0, 128),
        ]);
        assert!(r.p99_ttft_for_rank(128).unwrap() > r.p99_ttft_for_rank(8).unwrap());
        assert!(r.p99_ttft_for_rank(64).is_none());
    }

    #[test]
    fn class_delays_partition_records() {
        // Ranks 8 vs 128 put requests in different WRS classes.
        let recs: Vec<RequestRecord> = (0..30)
            .map(|i| {
                record(
                    i,
                    0.0,
                    0.2,
                    1.0,
                    if i < 10 {
                        8
                    } else if i < 20 {
                        32
                    } else {
                        128
                    },
                )
            })
            .collect();
        let by_class = report(recs).queue_delay_by_class();
        assert_eq!(by_class.len(), 3);
        let total: usize = by_class.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn ttft_over_time_bins_by_arrival() {
        let r = report(vec![
            record(0, 0.5, 0.1, 1.0, 8),
            record(1, 0.6, 0.3, 1.0, 8),
            record(2, 5.0, 0.9, 1.5, 8),
        ]);
        let series = r.ttft_over_time(SimDuration::from_secs(1));
        assert_eq!(series.len(), 2);
        assert!(series[0].1 >= 0.29);
        assert!((series[1].1 - 0.9).abs() < 1e-9);
    }

    #[test]
    fn conservation_accounts_for_shed_and_failed() {
        let mut r = report(vec![
            record(0, 0.0, 0.1, 1.0, 8),
            record(1, 1.0, 0.2, 1.0, 8),
        ]);
        r.verify_request_conservation(2)
            .expect("clean run conserves");
        assert!(r.verify_request_conservation(3).is_err(), "missing request");
        r.routing.fault.requests_shed = 1;
        r.verify_request_conservation(3).expect("shed accounted");
        assert!((r.availability(3) - 2.0 / 3.0).abs() < 1e-9);
        // A duplicated record id is a conservation violation even when
        // the totals line up.
        let dup = r.records[0].clone();
        r.records.push(dup);
        assert!(r.verify_request_conservation(4).is_err(), "duplicate id");
    }

    #[test]
    fn offered_p99_counts_unserved_requests_as_infinite() {
        // 150 served: the sample is the ceil(0.99 · 150) = 149th smallest.
        let r = report(
            (0..150)
                .map(|i| record(i, 0.0, 0.01 * (150 - i) as f64, 5.0, 8))
                .collect(),
        );
        let mut sorted = r.ttft_seconds();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(r.p99_ttft_offered(150), sorted[148]);
        assert!(r.p99_ttft_offered(150) < sorted[149]);

        // 99 of 100 served and one shed: index 98 is the slowest served.
        let mut r = report(
            (0..99)
                .map(|i| record(i, 0.0, 0.1 + 0.01 * i as f64, 5.0, 8))
                .collect(),
        );
        r.routing.fault.requests_shed = 1;
        r.verify_request_conservation(100).expect("shed accounted");
        let slowest = r.ttft_seconds().into_iter().fold(0.0, f64::max);
        assert_eq!(r.p99_ttft_offered(100), slowest);

        // One more lost to a failure: index 98 is now an unserved request.
        r.records.pop();
        r.routing.fault.requests_failed = 1;
        r.verify_request_conservation(100)
            .expect("failed accounted");
        assert_eq!(r.p99_ttft_offered(100), f64::INFINITY);
    }

    #[test]
    fn canonical_text_kv_line_is_armed_only() {
        let mut r = report(vec![record(0, 0.0, 0.1, 1.0, 8)]);
        let off = r.canonical_text();
        assert!(!off.contains("\nkv "), "unmetered runs carry no kv line");
        r.kv.enabled = true;
        r.kv.admission = true;
        r.kv.refused = 3;
        r.kv.pressure_peak = 0.9;
        let on = r.canonical_text();
        assert!(on.contains("kv admission=true hybrid=false refused=3"));
        assert!(on.contains(&format!("pressure_bits={:016x}", 0.9f64.to_bits())));
    }

    #[test]
    fn summary_line_contains_label() {
        let r = report(vec![record(0, 0.0, 0.1, 1.0, 8)]);
        assert!(r.summary_line().contains("test"));
    }
}
