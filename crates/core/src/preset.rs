//! Named systems from the paper's evaluation, plus cluster-scale variants
//! built on the routing subsystem.

use crate::system::{
    AutoscaleSpec, CachePolicy, EngineSpec, FleetSpec, SchedPolicy, SystemConfig, TopologySpec,
};
use chameleon_engine::{DispatchSpec, FaultSpec, KvSpec, PredictiveSpec};
use chameleon_router::RouterPolicy;
use chameleon_simcore::SimTime;

/// S-LoRA (§5.1 baseline): FIFO iteration-level scheduling, asynchronous
/// adapter prefetching for queued requests, **no** adapter caching
/// (adapters are discarded when unused).
pub fn slora() -> SystemConfig {
    SystemConfig {
        sched: SchedPolicy::Fifo,
        cache: CachePolicy::Discard,
        // S-LoRA has no output-length predictor: admission must reserve
        // worst-case KV memory (§5.2.1).
        worst_case_predictor: true,
        ..SystemConfig::base("S-LoRA")
    }
}

/// S-LoRA with μServe's SJF scheduler (§5.3 "S-LoRA+SJF").
pub fn slora_sjf() -> SystemConfig {
    SystemConfig {
        sched: SchedPolicy::Sjf {
            aging_tokens_per_sec: chameleon_sched::sjf::DEFAULT_AGING_TOKENS_PER_SEC,
        },
        cache: CachePolicy::Discard,
        ..SystemConfig::base("S-LoRA+SJF")
    }
}

/// S-LoRA with chunked-prefill iteration-level scheduling (the Figure 8
/// "Chunk-Prefill" baseline).
pub fn slora_chunked() -> SystemConfig {
    SystemConfig {
        sched: SchedPolicy::Fifo,
        cache: CachePolicy::Discard,
        chunked_prefill: true,
        worst_case_predictor: true,
        ..SystemConfig::base("Chunk-Prefill")
    }
}

/// The full Chameleon system: adapter cache with the tuned cost-aware
/// eviction policy + the adapter-aware multi-level-queue scheduler.
pub fn chameleon() -> SystemConfig {
    SystemConfig {
        sched: SchedPolicy::ChameleonMlq {
            dynamic: true,
            bypass: true,
            output_only: false,
        },
        cache: CachePolicy::Chameleon,
        ..SystemConfig::base("Chameleon")
    }
}

/// Ablation: Chameleon's scheduler without its cache (Figure 11
/// "ChNoCache").
pub fn chameleon_no_cache() -> SystemConfig {
    SystemConfig {
        cache: CachePolicy::Discard,
        ..chameleon()
    }
    .with_label("ChameleonNoCache")
}

/// Ablation: Chameleon's cache without its scheduler (Figure 11
/// "ChNoSch").
pub fn chameleon_no_sched() -> SystemConfig {
    SystemConfig {
        sched: SchedPolicy::Fifo,
        ..chameleon()
    }
    .with_label("ChameleonNoSched")
}

/// Chameleon plus histogram-based predictive prefetching (Figure 18
/// "Chameleon+Prefetch").
pub fn chameleon_prefetch() -> SystemConfig {
    SystemConfig {
        predictive_prefetch: true,
        ..chameleon()
    }
    .with_label("Chameleon+Prefetch")
}

/// Chameleon's cache with LRU eviction (Figure 17 "Ch-LRU").
pub fn chameleon_lru() -> SystemConfig {
    SystemConfig {
        cache: CachePolicy::Lru,
        ..chameleon()
    }
    .with_label("Ch-LRU")
}

/// Chameleon's cache with the equal-weight compound score (Figure 17
/// "Ch-FairShare").
pub fn chameleon_fairshare() -> SystemConfig {
    SystemConfig {
        cache: CachePolicy::FairShare,
        ..chameleon()
    }
    .with_label("Ch-FairShare")
}

/// Chameleon's cache with the GDSF web-caching score (§5.3 discussion).
pub fn chameleon_gdsf() -> SystemConfig {
    SystemConfig {
        cache: CachePolicy::Gdsf,
        ..chameleon()
    }
    .with_label("Ch-GDSF")
}

/// The §5.4.5 "Static" queue configuration: 4 equal queues, equal quotas,
/// no dynamic reconfiguration (cache identical to Chameleon's).
pub fn static_mlq() -> SystemConfig {
    SystemConfig {
        sched: SchedPolicy::StaticMlq,
        ..chameleon()
    }
    .with_label("Static")
}

/// Chameleon with the degree-1 linear WRS (§4.3.1's "polynomial of degree
/// 1" ablation).
pub fn chameleon_linear_wrs() -> SystemConfig {
    SystemConfig {
        sched: SchedPolicy::ChameleonLinearWrs,
        ..chameleon()
    }
    .with_label("Ch-LinearWRS")
}

/// Chameleon scaled out to a data-parallel cluster of `engines` behind
/// the paper's §4.4 two-level scheduler: join-shortest-queue global
/// dispatch, adapter cache *replicated* on every engine.
pub fn chameleon_cluster(engines: usize) -> SystemConfig {
    chameleon()
        .with_data_parallel(engines)
        .with_router(RouterPolicy::JoinShortestQueue)
        .with_label(format!("Chameleon-DP{engines}"))
}

/// Chameleon cluster with adapter-affinity routing: rendezvous hashing
/// gives every adapter a home engine (load-aware spill when the home is
/// saturated), so the fleet *partitions* the adapter working set instead
/// of replicating it — the cache-friendly alternative to
/// [`chameleon_cluster`] under many-adapter memory pressure.
pub fn chameleon_cluster_partitioned(engines: usize) -> SystemConfig {
    chameleon()
        .with_data_parallel(engines)
        .with_router(RouterPolicy::AdapterAffinity)
        .with_label(format!("Chameleon-DP{engines}-Affinity"))
}

/// [`chameleon_cluster_partitioned`] with the deterministic fault plane
/// armed: engine 1 crashes ten seconds in, the coordinator's timeout
/// detector re-dispatches its queued and in-flight requests through the
/// router with capped exponential backoff, its adapter shard re-homes
/// onto the survivors, and admission sheds when the whole fleet's
/// estimated TTFT exceeds 8× the SLO. Identical to the partitioned
/// preset in every other knob — the pair is the failover comparison the
/// recovery-efficacy tests run.
pub fn chameleon_cluster_faulted(engines: usize) -> SystemConfig {
    chameleon_cluster_partitioned(engines)
        .with_fault(
            FaultSpec::new()
                .with_crash(1, SimTime::from_secs_f64(10.0))
                .with_shedding(8.0),
        )
        .with_label(format!("Chameleon-DP{engines}-Faulted"))
}

/// [`chameleon_cluster_partitioned`] on a two-rack topology with
/// domain-aware anti-affinity placement: the fleet's first half lives on
/// rack 0, the second on rack 1, and affinity spill prefers the
/// best-ranked engine *outside* the primary's rack, so a whole-domain
/// failure never takes a primary and all of its spilled work together.
/// Pair it with a `FaultSpec` carrying `with_domain_crash` and
/// `with_shard_recovery` (a crashed engine's shard is warmed onto the
/// survivors), and with `.without_anti_affinity()` on the topology, for
/// the correlated-failure efficacy comparison. Its seed-7 anti-affinity
/// win (`tests/fault_domains.rs`, `examples/fault_domains.rs`) holds only
/// with recovery armed: without it, blind placement reads 0.589 s offered
/// P99 against anti-affinity's 0.705 s.
///
/// # Panics
///
/// Panics if `engines < 2` (a topology needs two racks to matter).
pub fn chameleon_cluster_domains(engines: usize) -> SystemConfig {
    assert!(engines >= 2, "a two-rack topology needs at least 2 engines");
    let racks: Vec<u32> = (0..engines).map(|i| u32::from(i >= engines / 2)).collect();
    chameleon_cluster_partitioned(engines)
        .with_fleet(FleetSpec::homogeneous(engines, 1).with_topology(TopologySpec::racks(&racks)))
        .with_label(format!("Chameleon-DP{engines}-Domains"))
}

/// Chameleon cluster on *pure* weighted-rendezvous routing: every request
/// goes to its adapter's home engine, spill disabled. Placement reads no
/// load state at all — the state-independent routing class — which is
/// what makes this preset the byte-identity oracle for amortised dispatch
/// ([`chameleon_cluster_batched`] must reproduce it exactly).
pub fn chameleon_cluster_rendezvous(engines: usize) -> SystemConfig {
    chameleon()
        .with_data_parallel(engines)
        .with_router(RouterPolicy::AdapterAffinityNoSpill)
        .with_label(format!("Chameleon-DP{engines}-Rendezvous"))
}

/// [`chameleon_cluster_rendezvous`] with amortised dispatch barriers:
/// consecutive arrivals coalesce into a single barrier and the whole
/// batch routes with zero snapshot refreshes (the router is
/// state-independent, so its staleness budget is unbounded). Identical to
/// the rendezvous preset in every other knob — and byte-identical in
/// results, per the determinism suite; only the barrier count drops.
pub fn chameleon_cluster_batched(engines: usize) -> SystemConfig {
    chameleon_cluster_rendezvous(engines)
        .with_dispatch(DispatchSpec::new())
        .with_label(format!("Chameleon-DP{engines}-Batched"))
}

/// [`chameleon_cluster_partitioned`] with amortised dispatch barriers
/// under the *bounded-staleness* contract: the load-aware affinity
/// router (spill enabled) declares a `(32 requests, 50 ms)` staleness
/// budget, and batches route from a cached snapshot generation with the
/// coordinator's own placements echoed in — per-engine queue-depth error
/// is bounded by the batch size. Identical to the partitioned preset in
/// every other knob.
pub fn chameleon_cluster_bounded_staleness(engines: usize) -> SystemConfig {
    chameleon_cluster_partitioned(engines)
        .with_dispatch(DispatchSpec::new())
        .with_label(format!("Chameleon-DP{engines}-BoundedStaleness"))
}

/// [`chameleon_cluster_elastic`] with the predictive control plane: the
/// autoscaler additionally fires on per-engine TTFT-violation estimates
/// and predicted arrivals (growing *before* a forecast burst lands).
pub fn chameleon_cluster_elastic_predictive() -> SystemConfig {
    chameleon_cluster_elastic()
        .with_predictive(PredictiveSpec::new())
        .with_label("Chameleon-Elastic-Predictive")
}

/// Chameleon on a heterogeneous fleet — two TP1 engines next to a TP2 and
/// a TP4 (the §5.6 tensor-parallel axis as cluster members) behind
/// capacity-weighted adapter-affinity routing, so the wider engines win
/// proportionally larger adapter shards.
pub fn chameleon_cluster_hetero() -> SystemConfig {
    chameleon()
        .with_fleet(FleetSpec::mixed_tp(&[1, 1, 2, 4]))
        .with_router(RouterPolicy::AdapterAffinity)
        .with_label("Chameleon-Hetero-TP1124")
}

/// Chameleon on an elastic fleet: two TP1 engines that the queue-depth
/// watching autoscaler grows to at most four (adding TP2 engines) under
/// load and drains back when the backlog clears — each fleet change
/// re-homing only the joining/departing engine's adapter shard.
pub fn chameleon_cluster_elastic() -> SystemConfig {
    chameleon()
        .with_fleet(FleetSpec::homogeneous(2, 1))
        .with_router(RouterPolicy::AdapterAffinity)
        .with_autoscale(AutoscaleSpec::new(2, 4).with_growth(vec![EngineSpec::tp(2)]))
        .with_label("Chameleon-Elastic")
}

/// Chameleon with the unified GPU-memory economy armed: KV-aware
/// admission (batch formation refuses admissions whose block-rounded KV
/// footprint — input plus predicted output, consulting the release
/// schedule — cannot complete, instead of optimistically allocating and
/// unwinding through requeue-front) plus the Apt-Serve-style hybrid
/// cache (under pressure a running request's full KV demotes to a
/// compact hidden-state proxy; restoration is a modelled PCIe
/// transfer). Identical to [`chameleon`] in every other knob — the pair
/// is the optimistic-vs-guarded comparison the KV economy tests run.
pub fn chameleon_kv_guarded() -> SystemConfig {
    chameleon()
        .with_kv(KvSpec::new())
        .with_label("Chameleon-KvGuarded")
}

/// [`chameleon_kv_guarded`]'s observe-only arm: the KV economy's meters
/// run (pressure, storm, and refusal-candidate accounting) but neither
/// admission control nor hybrid demotion intervenes — behaviourally the
/// optimistic baseline, with the `kv` canonical line attached. This is
/// the control arm of that comparison.
pub fn chameleon_kv_observed() -> SystemConfig {
    chameleon()
        .with_kv(KvSpec::observe())
        .with_label("Chameleon-KvObserved")
}

/// Chameleon with the WRS reduced to predicted output length only
/// (Figure 19 "OutputOnly").
pub fn chameleon_output_only() -> SystemConfig {
    SystemConfig {
        sched: SchedPolicy::ChameleonMlq {
            dynamic: true,
            bypass: true,
            output_only: true,
        },
        ..chameleon()
    }
    .with_label("OutputOnly")
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_engine::FaultTarget;

    #[test]
    fn baselines_have_no_cache() {
        assert_eq!(slora().cache, CachePolicy::Discard);
        assert_eq!(slora_sjf().cache, CachePolicy::Discard);
        assert_eq!(chameleon_no_cache().cache, CachePolicy::Discard);
    }

    #[test]
    fn chameleon_is_fully_enabled() {
        let c = chameleon();
        assert_eq!(c.cache, CachePolicy::Chameleon);
        assert!(matches!(
            c.sched,
            SchedPolicy::ChameleonMlq {
                dynamic: true,
                bypass: true,
                output_only: false
            }
        ));
        assert!(!c.predictive_prefetch);
        assert!(c.prefetch_queued);
    }

    #[test]
    fn ablations_differ_in_exactly_one_axis() {
        let full = chameleon();
        let no_cache = chameleon_no_cache();
        assert_eq!(no_cache.sched, full.sched);
        assert_ne!(no_cache.cache, full.cache);
        let no_sched = chameleon_no_sched();
        assert_eq!(no_sched.cache, full.cache);
        assert_ne!(no_sched.sched, full.sched);
    }

    #[test]
    fn cluster_presets_differ_only_in_routing() {
        let replicated = chameleon_cluster(4);
        let partitioned = chameleon_cluster_partitioned(4);
        assert_eq!(replicated.data_parallel, 4);
        assert_eq!(partitioned.data_parallel, 4);
        assert_eq!(replicated.router, RouterPolicy::JoinShortestQueue);
        assert_eq!(partitioned.router, RouterPolicy::AdapterAffinity);
        assert_eq!(replicated.sched, partitioned.sched);
        assert_eq!(replicated.cache, partitioned.cache);
        // Single-engine presets keep the paper's default dispatch.
        assert_eq!(chameleon().router, RouterPolicy::JoinShortestQueue);
    }

    #[test]
    fn hetero_preset_mixes_tp_degrees() {
        let c = chameleon_cluster_hetero();
        assert_eq!(c.engine_count(), 4);
        assert_eq!(c.router, RouterPolicy::AdapterAffinity);
        let tps: Vec<u32> = (0..4).map(|i| c.engine_spec(i).tp_degree).collect();
        assert_eq!(tps, vec![1, 1, 2, 4]);
        assert!(c.autoscale.is_none());
    }

    #[test]
    fn elastic_preset_scales_two_to_four() {
        let c = chameleon_cluster_elastic();
        assert_eq!(c.engine_count(), 2);
        let auto = c.autoscale.as_ref().expect("elastic preset autoscales");
        assert_eq!(auto.controller.min_engines, 2);
        assert_eq!(auto.controller.max_engines, 4);
        assert_eq!(c.growth_spec(0).tp_degree, 2, "grows by TP2 engines");
        assert_eq!(c.router, RouterPolicy::AdapterAffinity);
    }

    #[test]
    fn predictive_presets_differ_only_in_the_control_plane() {
        let reactive = chameleon_cluster_elastic();
        let predictive = chameleon_cluster_elastic_predictive();
        assert!(reactive.predictive.is_none());
        assert_eq!(predictive.predictive, Some(PredictiveSpec::new()));
        assert_eq!(predictive.router, reactive.router);
        assert_eq!(predictive.sched, reactive.sched);
        assert_eq!(predictive.cache, reactive.cache);
        assert!(predictive.autoscale.is_some());
        // The base presets remain reactive.
        for cfg in [
            chameleon(),
            chameleon_cluster_partitioned(4),
            chameleon_cluster_domains(4),
            chameleon_cluster_hetero(),
        ] {
            assert!(cfg.predictive.is_none(), "{} gained prediction", cfg.label);
        }
    }

    #[test]
    fn faulted_preset_differs_only_in_the_fault_plane() {
        let clean = chameleon_cluster_partitioned(4);
        let faulted = chameleon_cluster_faulted(4);
        assert!(clean.fault.is_none());
        let spec = faulted.fault.as_ref().expect("fault plane armed");
        assert_eq!(
            spec.crashes,
            vec![(FaultTarget::Engine(1), SimTime::from_secs_f64(10.0))]
        );
        assert!(spec.sheds());
        assert_eq!(faulted.router, clean.router);
        assert_eq!(faulted.sched, clean.sched);
        assert_eq!(faulted.cache, clean.cache);
        assert_eq!(faulted.data_parallel, clean.data_parallel);
    }

    #[test]
    fn batched_presets_differ_only_in_the_dispatch_axis() {
        let rendezvous = chameleon_cluster_rendezvous(4);
        let batched = chameleon_cluster_batched(4);
        assert!(rendezvous.dispatch.is_none());
        assert_eq!(batched.dispatch, Some(DispatchSpec::new()));
        assert_eq!(batched.router, rendezvous.router);
        assert_eq!(rendezvous.router, RouterPolicy::AdapterAffinityNoSpill);
        assert_eq!(batched.sched, rendezvous.sched);
        assert_eq!(batched.cache, rendezvous.cache);
        assert_eq!(batched.data_parallel, rendezvous.data_parallel);

        let partitioned = chameleon_cluster_partitioned(4);
        let bounded = chameleon_cluster_bounded_staleness(4);
        assert!(partitioned.dispatch.is_none());
        assert_eq!(bounded.dispatch, Some(DispatchSpec::new()));
        assert_eq!(bounded.router, RouterPolicy::AdapterAffinity);
        assert_eq!(bounded.sched, partitioned.sched);
        assert_eq!(bounded.cache, partitioned.cache);

        // Every pre-existing preset stays on per-arrival dispatch.
        for cfg in [
            chameleon(),
            chameleon_cluster(4),
            chameleon_cluster_partitioned(4),
            chameleon_cluster_hetero(),
            chameleon_cluster_elastic(),
        ] {
            assert!(cfg.dispatch.is_none(), "{} gained batching", cfg.label);
        }
    }

    #[test]
    fn kv_presets_differ_only_in_the_memory_economy() {
        let optimistic = chameleon();
        let guarded = chameleon_kv_guarded();
        let observed = chameleon_kv_observed();
        assert!(optimistic.kv.is_none());
        let g = guarded.kv.expect("guarded arm armed");
        assert!(g.admission && g.hybrid);
        let o = observed.kv.expect("observed arm metered");
        assert!(!o.admission && !o.hybrid);
        for armed in [&guarded, &observed] {
            assert_eq!(armed.sched, optimistic.sched);
            assert_eq!(armed.cache, optimistic.cache);
            assert_eq!(armed.router, optimistic.router);
            assert_eq!(armed.data_parallel, optimistic.data_parallel);
        }
        // Every pre-existing preset stays unmetered.
        for cfg in [
            slora(),
            chameleon(),
            chameleon_cluster(4),
            chameleon_cluster_partitioned(4),
            chameleon_cluster_hetero(),
            chameleon_cluster_elastic(),
        ] {
            assert!(cfg.kv.is_none(), "{} gained KV metering", cfg.label);
        }
    }

    #[test]
    fn domains_preset_shape() {
        let c = chameleon_cluster_domains(4);
        let topo = c.topology().expect("topology attached");
        assert!(topo.anti_affinity);
        assert_eq!(topo.racks, vec![0, 0, 1, 1]);
        assert!(c.predictive.is_none() && c.fault.is_none());
        assert_eq!(c.router, RouterPolicy::AdapterAffinity);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = [
            slora(),
            slora_sjf(),
            slora_chunked(),
            chameleon(),
            chameleon_no_cache(),
            chameleon_no_sched(),
            chameleon_prefetch(),
            chameleon_lru(),
            chameleon_fairshare(),
            chameleon_gdsf(),
            chameleon_cluster(4),
            chameleon_cluster_partitioned(4),
            chameleon_cluster_faulted(4),
            chameleon_cluster_domains(4),
            chameleon_cluster_rendezvous(4),
            chameleon_cluster_batched(4),
            chameleon_cluster_bounded_staleness(4),
            chameleon_cluster_elastic_predictive(),
            chameleon_cluster_hetero(),
            chameleon_cluster_elastic(),
            chameleon_kv_guarded(),
            chameleon_kv_observed(),
            static_mlq(),
            chameleon_output_only(),
            chameleon_linear_wrs(),
        ]
        .iter()
        .map(|c| c.label.clone())
        .collect();
        let distinct: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(distinct.len(), labels.len());
    }
}
