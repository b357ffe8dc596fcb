//! Cluster-routing outcome statistics.
//!
//! The data-parallel cluster records one entry per dispatched request:
//! which engine it went to (by stable [`EngineId`], so the statistics
//! survive engines joining and draining mid-run), whether the chosen
//! engine already had the request's adapter resident (an *affinity hit* —
//! the placement-level precursor of an adapter-cache hit), and whether an
//! affinity policy had to *spill* the request off its home engine for
//! load reasons. Fleet lifecycle is tracked alongside: engines added and
//! drained, and how many adapters were re-homed by those changes (the
//! rendezvous minimal-re-homing guarantee, measured).
//!
//! # Order-independence under parallel cluster execution
//!
//! All mutation happens on the cluster's coordinator thread, strictly in
//! dispatch/fleet-change order — engine stepping (the part that runs on
//! worker threads under parallel execution) never touches these
//! statistics. Serial and parallel cluster runs therefore produce
//! *identical* `RoutingStats`, and the per-engine rows are keyed by
//! registration order (`engine_ids`), not by retirement or merge order,
//! so the merged report is insensitive to when each engine's report was
//! folded in.

use chameleon_router::EngineId;
use serde::{Deserialize, Serialize};

/// Outcome counters of the predictive control plane (SLO/forecast
/// autoscaling triggers). All-zero — and absent
/// from `canonical_text` — unless the control plane was enabled for the
/// run: prediction is a strict opt-in overlay, and the byte-level oracles
/// for non-predictive runs must not see these fields.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PredictiveStats {
    /// The control plane was active this run (gates report emission).
    pub enabled: bool,
    /// Scale-ups fired by the per-engine TTFT-violation estimate while the
    /// queue-depth thresholds alone would have held.
    pub slo_scaleups: u64,
    /// Scale-ups fired by the predicted-arrivals signal while realised
    /// queue depth alone would have held.
    pub forecast_scaleups: u64,
}

/// Outcome counters of the fault-injection and recovery plane. All-zero —
/// and absent from `canonical_text` — unless a `FaultSpec` armed the run:
/// like [`PredictiveStats`], faults are a strict opt-in overlay and the
/// byte-level oracles for fault-free runs must not see these fields.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// The fault plane was active this run (gates report emission).
    pub enabled: bool,
    /// Engines declared dead by the failure detector.
    pub engines_failed: u64,
    /// Requests extracted from dead engines (queued + in-flight) and
    /// re-dispatched through the router.
    pub requests_recovered: u64,
    /// Re-dispatch attempts, summed over all recovered requests.
    pub retries: u64,
    /// Requests that exhausted their retry budget and left the system.
    pub requests_failed: u64,
    /// Requests refused admission by SLO-aware shedding.
    pub requests_shed: u64,
    /// PCIe transfers that failed and were re-issued.
    pub pcie_retries: u64,
    /// Adapters from dead engines' shards re-homed onto survivors.
    pub shard_adapters_recovered: u64,
    /// Total bytes re-loaded by shard recovery.
    pub shard_bytes_recovered: u64,
    /// Scale-ups that landed late because of injected provisioning delay.
    pub provision_delays: u64,
    /// Scale-ups that failed outright to provision.
    pub provision_failures: u64,
    /// Whole fault domains (racks) crashed by correlated injections.
    pub domains_failed: u64,
    /// Coordinator↔domain partitions opened.
    pub partitions: u64,
    /// Mean time-to-redispatch in seconds over closed recovery episodes:
    /// crash (or partition) barrier → last victim re-dispatched. `0.0`
    /// when no episode produced victims or none closed.
    pub mttr_redispatch: f64,
    /// Mean time-to-complete in seconds over recovery episodes whose
    /// victims finished: crash barrier → last victim completed.
    pub mttr_complete: f64,
}

impl FaultStats {
    /// Fraction of offered requests the fleet actually served:
    /// `1 - (failed + shed) / offered` (1 when nothing was offered).
    pub fn availability(&self, offered: u64) -> f64 {
        if offered == 0 {
            return 1.0;
        }
        1.0 - rate(self.requests_failed + self.requests_shed, offered)
    }
}

/// Outcome counters of the amortised-dispatch (batched-barrier) path.
/// All-zero — and absent from `canonical_text`, like the trace and
/// barrier-profile planes — unless the run opted into batched dispatch
/// via `DispatchSpec`: the state-independent byte-identity oracle
/// compares batched against per-arrival digests, so batching must never
/// add a report line of its own.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DispatchStats {
    /// Batched dispatch was active this run.
    pub enabled: bool,
    /// Arrival barriers executed (each coalesced ≥1 arrivals).
    pub batches: u64,
    /// Arrivals routed (or shed) through batched barriers.
    pub batched_arrivals: u64,
    /// Snapshot generations filled for routing (arrival barriers plus
    /// fault-barrier retry refreshes; generation reuse refreshes nothing).
    pub snapshot_refreshes: u64,
    /// Fault-barrier retry batches that reused an arrival barrier's
    /// snapshot generation instead of refreshing.
    pub retry_generation_reuses: u64,
    /// Largest single batch observed.
    pub max_batch: u64,
}

impl DispatchStats {
    /// Records one arrival batch of `size` members.
    pub fn on_batch(&mut self, size: u64) {
        self.batches += 1;
        self.batched_arrivals += size;
        self.max_batch = self.max_batch.max(size);
    }

    /// Mean arrivals coalesced per barrier (0 when nothing was batched).
    pub fn mean_batch(&self) -> f64 {
        rate(self.batched_arrivals, self.batches)
    }
}

/// Aggregate routing statistics for one cluster run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoutingStats {
    /// Routing policy label (empty for single-engine runs, which never
    /// dispatch through a router).
    pub policy: String,
    /// Every engine that was ever part of the fleet, in registration
    /// order (initial fleet first, then engines added at runtime).
    /// Draining an engine retires it from dispatch but keeps its row.
    pub engine_ids: Vec<EngineId>,
    /// Requests dispatched to each engine, parallel to `engine_ids`.
    pub per_engine: Vec<u64>,
    /// Dispatches that landed on an engine with the adapter resident.
    pub affinity_hits: u64,
    /// Dispatches diverted off their home engine by load-aware spill.
    pub spills: u64,
    /// Total dispatches.
    pub dispatched: u64,
    /// Engines added after the initial fleet was built.
    pub engines_added: u64,
    /// Engines drained (retired from dispatch) during the run.
    pub engines_drained: u64,
    /// Adapters whose rendezvous home moved because the fleet changed —
    /// with minimal re-homing this is exactly the sum of the joining /
    /// departing engines' shard sizes. Zero for affinity-free policies.
    pub adapters_rehomed: u64,
    /// Predictive-control-plane counters; default (all-zero, disabled)
    /// unless the run opted into prediction.
    pub predictive: PredictiveStats,
    /// Fault-plane counters; default (all-zero, disabled) unless the run
    /// armed a fault spec.
    pub fault: FaultStats,
    /// Batched-dispatch counters; default (all-zero, disabled) unless the
    /// run opted into amortised dispatch barriers.
    pub dispatch: DispatchStats,
}

impl RoutingStats {
    /// Creates empty statistics for the initial fleet `engines` under
    /// `policy`.
    pub fn new(policy: impl Into<String>, engines: &[EngineId]) -> Self {
        RoutingStats {
            policy: policy.into(),
            engine_ids: engines.to_vec(),
            per_engine: vec![0; engines.len()],
            ..RoutingStats::default()
        }
    }

    /// Position of `id` in the registration order, if known.
    fn position(&self, id: EngineId) -> Option<usize> {
        // Fleets are small (single digits); a scan beats a map.
        self.engine_ids.iter().position(|&e| e == id)
    }

    /// Registers an engine added to the fleet at runtime.
    pub fn on_engine_added(&mut self, id: EngineId) {
        assert!(self.position(id).is_none(), "engine {id} registered twice");
        self.engine_ids.push(id);
        self.per_engine.push(0);
        self.engines_added += 1;
    }

    /// Records an engine draining out of the fleet.
    pub fn on_engine_drained(&mut self, id: EngineId) {
        assert!(self.position(id).is_some(), "unknown engine {id} drained");
        self.engines_drained += 1;
    }

    /// Records `n` adapters re-homed by a fleet change.
    pub fn on_adapters_rehomed(&mut self, n: u64) {
        self.adapters_rehomed += n;
    }

    /// Records one dispatch to `engine`.
    ///
    /// # Panics
    ///
    /// Panics if `engine` was never registered.
    pub fn record(&mut self, engine: EngineId, affinity_hit: bool, spilled: bool) {
        let pos = self
            .position(engine)
            .unwrap_or_else(|| panic!("dispatch to unregistered engine {engine}"));
        self.per_engine[pos] += 1;
        self.dispatched += 1;
        if affinity_hit {
            self.affinity_hits += 1;
        }
        if spilled {
            self.spills += 1;
        }
    }

    /// Requests dispatched to `engine` (0 for unknown engines).
    pub fn dispatched_to(&self, engine: EngineId) -> u64 {
        self.position(engine).map_or(0, |pos| self.per_engine[pos])
    }

    /// Fraction of dispatches that landed where the adapter was already
    /// resident, in `[0, 1]` (0 when nothing was dispatched).
    pub fn affinity_hit_rate(&self) -> f64 {
        rate(self.affinity_hits, self.dispatched)
    }

    /// Fraction of dispatches diverted off their home engine.
    pub fn spill_rate(&self) -> f64 {
        rate(self.spills, self.dispatched)
    }

    /// Load-imbalance coefficient: the coefficient of variation
    /// (standard deviation / mean) of per-engine dispatch counts over
    /// every engine that was ever registered. 0 means perfectly even; 0
    /// is also returned for empty or single-engine runs.
    pub fn load_imbalance(&self) -> f64 {
        if self.per_engine.len() < 2 || self.dispatched == 0 {
            return 0.0;
        }
        let n = self.per_engine.len() as f64;
        let mean = self.dispatched as f64 / n;
        let var = self
            .per_engine
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<EngineId> {
        (0..n).map(EngineId).collect()
    }

    #[test]
    fn empty_stats_are_all_zero() {
        let s = RoutingStats::new("jsq", &ids(4));
        assert_eq!(s.affinity_hit_rate(), 0.0);
        assert_eq!(s.spill_rate(), 0.0);
        assert_eq!(s.load_imbalance(), 0.0);
        assert_eq!(s.adapters_rehomed, 0);
    }

    #[test]
    fn rates_count_correctly() {
        let mut s = RoutingStats::new("affinity", &ids(2));
        s.record(EngineId(0), true, false);
        s.record(EngineId(0), true, false);
        s.record(EngineId(1), false, true);
        s.record(EngineId(1), false, false);
        assert_eq!(s.dispatched, 4);
        assert_eq!(s.per_engine, vec![2, 2]);
        assert_eq!(s.dispatched_to(EngineId(1)), 2);
        assert!((s.affinity_hit_rate() - 0.5).abs() < 1e-12);
        assert!((s.spill_rate() - 0.25).abs() < 1e-12);
        assert_eq!(s.load_imbalance(), 0.0, "even split has zero CV");
    }

    #[test]
    fn imbalance_grows_with_skew() {
        let mut even = RoutingStats::new("x", &ids(2));
        let mut skewed = RoutingStats::new("x", &ids(2));
        for i in 0..100u32 {
            even.record(EngineId(i % 2), false, false);
            skewed.record(EngineId(u32::from(i % 10 == 0)), false, false);
        }
        assert!(skewed.load_imbalance() > even.load_imbalance());
        // 90/10 split over two engines: CV = 0.8.
        assert!((skewed.load_imbalance() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn single_engine_has_no_imbalance() {
        let mut s = RoutingStats::new("", &ids(1));
        s.record(EngineId(0), true, false);
        assert_eq!(s.load_imbalance(), 0.0);
    }

    #[test]
    fn fleet_lifecycle_is_tracked() {
        let mut s = RoutingStats::new("affinity", &ids(2));
        s.on_engine_added(EngineId(7));
        s.record(EngineId(7), false, false);
        s.on_adapters_rehomed(31);
        s.on_engine_drained(EngineId(0));
        s.on_adapters_rehomed(12);
        assert_eq!(s.engine_ids, vec![EngineId(0), EngineId(1), EngineId(7)]);
        assert_eq!(s.per_engine, vec![0, 0, 1]);
        assert_eq!(s.engines_added, 1);
        assert_eq!(s.engines_drained, 1);
        assert_eq!(s.adapters_rehomed, 43);
        // The drained engine keeps its dispatch row.
        assert_eq!(s.dispatched_to(EngineId(0)), 0);
    }

    #[test]
    fn predictive_stats_default_is_disabled_and_empty() {
        let s = RoutingStats::new("affinity", &ids(3));
        assert_eq!(s.predictive, PredictiveStats::default());
        assert!(!s.predictive.enabled);
    }

    #[test]
    fn fault_stats_default_is_disabled_and_fully_available() {
        let s = RoutingStats::new("jsq", &ids(2));
        assert_eq!(s.fault, FaultStats::default());
        assert!(!s.fault.enabled);
        assert_eq!(s.fault.availability(100), 1.0);
        assert_eq!(s.fault.availability(0), 1.0);
    }

    #[test]
    fn fault_availability_counts_failed_and_shed() {
        let f = FaultStats {
            enabled: true,
            requests_failed: 5,
            requests_shed: 15,
            ..FaultStats::default()
        };
        assert!((f.availability(100) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn dispatch_stats_default_is_disabled_and_empty() {
        let s = RoutingStats::new("jsq", &ids(2));
        assert_eq!(s.dispatch, DispatchStats::default());
        assert!(!s.dispatch.enabled);
        assert_eq!(s.dispatch.mean_batch(), 0.0);
    }

    #[test]
    fn dispatch_stats_track_batches() {
        let mut d = DispatchStats {
            enabled: true,
            ..DispatchStats::default()
        };
        d.on_batch(1);
        d.on_batch(7);
        d.on_batch(4);
        d.snapshot_refreshes = 3;
        assert_eq!(d.batches, 3);
        assert_eq!(d.batched_arrivals, 12);
        assert_eq!(d.max_batch, 7);
        assert!((d.mean_batch() - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unregistered engine")]
    fn dispatch_to_unknown_engine_panics() {
        let mut s = RoutingStats::new("x", &ids(1));
        s.record(EngineId(5), false, false);
    }
}
