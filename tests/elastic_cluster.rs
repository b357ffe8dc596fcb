//! Integration tests for the identity-based, capacity-weighted, elastic
//! routing stack.
//!
//! The headline guarantee: the identity/weight refactor is
//! *behaviour-preserving* for the paper's fixed homogeneous fleet. A
//! verbatim re-implementation of the pre-refactor dispatch loop —
//! index-keyed unweighted rendezvous with least-loaded spill — is kept
//! here as an oracle, and a fixed 4-engine homogeneous `AdapterAffinity`
//! cluster (with the legacy spill target) must reproduce it byte for
//! byte at the `RunReport::canonical_text()` level.

use chameleon_repro::cache::{AdapterCache, EvictionPolicy};
use chameleon_repro::core::{preset, sim::Simulation, workloads, RunReport};
use chameleon_repro::engine::{Cluster, Engine, EngineConfig, EngineEvent, EngineReport};
use chameleon_repro::metrics::RoutingStats;
use chameleon_repro::models::{AdapterId, AdapterPool, GpuSpec, LlmSpec, PoolConfig};
use chameleon_repro::predictor::OraclePredictor;
use chameleon_repro::router::{AdapterAffinity, EngineId, SpillTarget};
use chameleon_repro::sched::{FifoScheduler, WrsConfig};
use chameleon_repro::simcore::{EventQueue, SimDuration, SimRng, SimTime};
use chameleon_repro::workload::{ArrivalModel, LengthModel, Trace, TraceGenerator};
use std::collections::HashMap;

const N_ENGINES: usize = 4;

fn pool() -> AdapterPool {
    AdapterPool::generate(&LlmSpec::llama_7b(), &PoolConfig::paper_default(120))
}

fn engine(pool: &AdapterPool) -> Engine {
    Engine::new(
        EngineConfig::new(LlmSpec::llama_7b(), GpuSpec::a40()),
        pool.clone(),
        Box::new(FifoScheduler::new()),
        Box::new(OraclePredictor::new()),
        AdapterCache::new(EvictionPolicy::chameleon()),
        WrsConfig::paper(2048.0, 1024.0, (256 << 20) as f64),
    )
}

/// An overload trace: enough concurrent pressure that affinity homes
/// saturate and the spill path actually fires.
fn overload_trace(pool: &AdapterPool, n: usize) -> Trace {
    let gen = TraceGenerator::new(
        LengthModel::Custom {
            input: chameleon_repro::workload::generator::TokenLengthModel {
                median: 96.0,
                sigma: 0.6,
                min: 16,
                max: 384,
            },
            output: chameleon_repro::workload::generator::TokenLengthModel {
                median: 24.0,
                sigma: 0.5,
                min: 4,
                max: 96,
            },
        },
        ArrivalModel::poisson(400.0),
    );
    let mut rng = SimRng::seed(1234);
    gen.generate_n(pool, n, &mut rng)
}

/// Wraps a cluster-level engine report as a `RunReport` with fixed
/// metadata, so the comparison covers exactly what the two runs computed.
fn run_report(rep: EngineReport, horizon: SimTime, events: u64) -> RunReport {
    RunReport {
        label: "affinity-preservation".into(),
        llm: LlmSpec::llama_7b(),
        routing: rep.routing,
        records: rep.records,
        cache_stats: rep.cache_stats,
        pcie_total_bytes: rep.pcie_total_bytes,
        pcie_busy: rep.pcie_busy,
        pcie_transfers: rep.pcie_transfers,
        mem_series: rep.mem_series,
        squashes: rep.squashes,
        kv: rep.kv,
        slo: SimDuration::from_secs(5),
        horizon,
        isolated_e2e: HashMap::new(),
        wrs: WrsConfig::paper(2048.0, 1024.0, (256 << 20) as f64),
        offered_rps: 0.0,
        scheduler: rep.scheduler,
        events_processed: events,
        trace: None,
        flight_dumps: Vec::new(),
        flight_firings: 0,
        barrier_profile: None,
    }
}

/// The pre-refactor HRW mix, keyed on the engine *index*.
fn legacy_score(adapter: AdapterId, engine: usize) -> u64 {
    let mut z = (u64::from(adapter.0) << 32) ^ (engine as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn legacy_home(adapter: AdapterId, n_engines: usize) -> usize {
    (0..n_engines)
        .max_by_key(|&e| legacy_score(adapter, e))
        .expect("non-empty range")
}

/// Verbatim re-implementation of the pre-refactor cluster: `Vec<Engine>`
/// indexed by position, unweighted index-keyed rendezvous, spill to the
/// globally least-loaded engine (factor 2.0, slack 4096), and the
/// original event loop.
struct ReferenceAffinityCluster {
    engines: Vec<Engine>,
    stats: RoutingStats,
    events_processed: u64,
}

impl ReferenceAffinityCluster {
    fn new(n: usize, pool: &AdapterPool) -> Self {
        let ids: Vec<EngineId> = (0..n).map(|i| EngineId(i as u32)).collect();
        ReferenceAffinityCluster {
            engines: (0..n).map(|_| engine(pool)).collect(),
            stats: RoutingStats::new("adapter-affinity", &ids),
            events_processed: 0,
        }
    }

    fn route(&self, adapter: AdapterId) -> (usize, bool) {
        let home = legacy_home(adapter, self.engines.len());
        let home_load = self.engines[home].outstanding_tokens();
        let (least, least_load) = self
            .engines
            .iter()
            .enumerate()
            .map(|(i, e)| (i, e.outstanding_tokens()))
            .min_by_key(|&(_, load)| load)
            .expect("non-empty cluster");
        let threshold = 4096 + (2.0 * least_load as f64).min(u64::MAX as f64 / 2.0) as u64;
        if home_load > threshold && least != home {
            (least, true)
        } else {
            (home, false)
        }
    }

    fn run(&mut self, trace: &Trace) -> SimTime {
        enum Ev {
            Arrival(chameleon_repro::workload::Request),
            Engine(usize, EngineEvent),
        }
        let mut q: EventQueue<Ev> = EventQueue::with_capacity(trace.len() * 4);
        let mut arrivals_left = trace.len();
        for r in trace {
            q.push(r.arrival(), Ev::Arrival(*r));
        }
        let mem_int = self.engines[0].config().mem_sample_interval;
        let refresh_int = self.engines[0].config().refresh_interval;
        for i in 0..self.engines.len() {
            q.push(
                SimTime::ZERO + mem_int,
                Ev::Engine(i, EngineEvent::MemSample),
            );
            q.push(
                SimTime::ZERO + refresh_int,
                Ev::Engine(i, EngineEvent::Refresh),
            );
        }
        let mut out = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some((t, ev)) = q.pop() {
            last = t;
            match ev {
                Ev::Arrival(req) => {
                    arrivals_left -= 1;
                    let (target, spilled) = self.route(req.adapter());
                    let hit = self.engines[target].is_adapter_resident(req.adapter());
                    self.stats.record(EngineId(target as u32), hit, spilled);
                    self.engines[target].handle(t, EngineEvent::Arrival(req), &mut out);
                    for (at, e) in out.drain(..) {
                        q.push(at, Ev::Engine(target, e));
                    }
                }
                Ev::Engine(i, ev) => {
                    let reschedule = match &ev {
                        EngineEvent::MemSample => Some((t + mem_int, EngineEvent::MemSample)),
                        EngineEvent::Refresh => Some((t + refresh_int, EngineEvent::Refresh)),
                        _ => None,
                    };
                    let periodic = reschedule.is_some();
                    self.engines[i].handle(t, ev, &mut out);
                    for (at, e) in out.drain(..) {
                        q.push(at, Ev::Engine(i, e));
                    }
                    if periodic && (arrivals_left > 0 || self.engines[i].has_work()) {
                        let (at, e) = reschedule.expect("periodic");
                        q.push(at, Ev::Engine(i, e));
                    }
                }
            }
        }
        self.events_processed = q.processed();
        last
    }

    fn into_report(self) -> (EngineReport, u64) {
        let stats = self.stats;
        let events = self.events_processed;
        let mut reports = self.engines.into_iter().map(Engine::into_report);
        let mut merged = reports.next().expect("non-empty cluster");
        for r in reports {
            merged.merge(r);
        }
        merged.routing = stats;
        (merged, events)
    }
}

/// The acceptance criterion: a fixed 4-engine homogeneous
/// `AdapterAffinity` cluster produces byte-identical
/// `RunReport::canonical_text()` through the identity/weight refactor
/// (legacy spill target pins the one deliberately changed policy knob).
#[test]
fn identity_weight_refactor_preserves_fixed_affinity_cluster_byte_for_byte() {
    let pool = pool();
    let trace = overload_trace(&pool, 900);

    let mut cluster = Cluster::with_router(
        N_ENGINES,
        |_| engine(&pool),
        Box::new(
            AdapterAffinity::with_spill(2.0, 4096).with_spill_target(SpillTarget::LeastLoaded),
        ),
    );
    let horizon = cluster.run(&trace);
    let events = cluster.events_processed();
    let stats = cluster.routing_stats().clone();
    assert!(
        stats.spills > 0,
        "scenario must exercise the spill path to be a meaningful oracle"
    );
    assert_eq!(stats.dispatched as usize, trace.len());
    let new_text = run_report(cluster.into_report(), horizon, events).canonical_text();

    let mut reference = ReferenceAffinityCluster::new(N_ENGINES, &pool);
    let ref_horizon = reference.run(&trace);
    let (ref_report, ref_events) = reference.into_report();
    let old_text = run_report(ref_report, ref_horizon, ref_events).canonical_text();

    assert_eq!(
        new_text, old_text,
        "identity/weight refactor changed fixed-fleet behaviour"
    );
}

/// End-to-end elasticity: the autoscaled preset grows through a burst and
/// drains back afterwards, migrating adapters on every fleet change, and
/// the whole elastic run is deterministic.
#[test]
fn elastic_simulation_grows_through_burst_and_drains_back() {
    let run = || {
        let mut cfg = preset::chameleon_cluster_elastic();
        let auto = cfg.autoscale.as_mut().expect("elastic preset");
        auto.controller.interval = SimDuration::from_secs(1);
        auto.controller.cooldown = SimDuration::from_secs(3);
        auto.controller.scale_up_mean_queue = 4.0;
        auto.controller.scale_down_mean_queue = 0.5;
        let mut sim = Simulation::new(cfg, 21);
        let trace = workloads::splitwise_bursty(4.0, 60.0, 10.0, 10.0, 20.0, 21, sim.pool());
        let n = trace.len();
        let report = sim.run(&trace);
        assert_eq!(report.completed(), n, "elastic run lost requests");
        report
    };
    let report = run();
    let r = &report.routing;
    assert!(r.engines_added > 0, "burst never grew the fleet: {r:?}");
    assert!(r.engines_drained > 0, "fleet never drained back: {r:?}");
    assert!(r.adapters_rehomed > 0, "fleet changes migrated nothing");
    assert_eq!(
        r.engine_ids.len(),
        2 + r.engines_added as usize,
        "every added engine gets a fresh stable id"
    );
    // The newcomers actually served traffic.
    assert!(
        r.engine_ids
            .iter()
            .skip(2)
            .any(|&id| r.dispatched_to(id) > 0),
        "no added engine received dispatches: {r:?}"
    );
    // Elastic runs are as deterministic as fixed ones.
    assert_eq!(
        report.canonical_text(),
        run().canonical_text(),
        "elastic run is not deterministic"
    );
}

/// Heterogeneous fleets: capacity-weighted rendezvous gives the TP4
/// engine a larger adapter shard — and with it more dispatches — than a
/// TP1 engine, while every engine still participates.
#[test]
fn hetero_fleet_weights_shards_by_capacity() {
    let mut cfg = preset::chameleon_cluster_hetero().with_adapters(300);
    cfg.rank_popularity = chameleon_repro::models::PopularityDist::power_law();
    let mut sim = Simulation::new(cfg, 9);
    let trace = workloads::lmsys(24.0, 40.0, 9, sim.pool());
    let n = trace.len();
    let report = sim.run(&trace);
    assert_eq!(report.completed(), n);
    let r = &report.routing;
    assert_eq!(r.engine_ids.len(), 4);
    assert!(r.per_engine.iter().all(|&c| c > 0), "starved engine: {r:?}");
    let tp1 = r.per_engine[0].min(r.per_engine[1]);
    let tp4 = r.per_engine[3];
    assert!(
        tp4 > tp1,
        "TP4 engine should out-serve a TP1 engine: {:?}",
        r.per_engine
    );
}
