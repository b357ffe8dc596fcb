//! Determinism suite for parallel cluster execution.
//!
//! The epoch/barrier cluster loop must be **bit-identical** between
//! [`ClusterExecution::Serial`] and [`ClusterExecution::Parallel`] — for
//! every worker count (including a single worker and oversubscribed
//! pools), across seeds, for fixed, heterogeneous, and elastic fleets
//! (engines joining and draining mid-trace), and for explicit
//! `add_engine`/`drain_engine` calls between runs. Equality is asserted
//! at the [`RunReport::canonical_text`] level: stable field order,
//! integer nanoseconds, exact IEEE-754 bit patterns.

use chameleon_repro::cache::{AdapterCache, EvictionPolicy};
use chameleon_repro::core::{
    preset, sim::Simulation, workloads, ClusterExecution, PredictiveSpec, RunReport, SystemConfig,
};
use chameleon_repro::engine::{Cluster, Engine, EngineConfig, EngineReport};
use chameleon_repro::models::{AdapterPool, GpuSpec, LlmSpec, PoolConfig};
use chameleon_repro::predictor::OraclePredictor;
use chameleon_repro::router::AdapterAffinity;
use chameleon_repro::sched::{FifoScheduler, WrsConfig};
use chameleon_repro::simcore::{SimDuration, SimTime};
use chameleon_repro::workload::Trace;
use std::collections::HashMap;

const SEEDS: [u64; 2] = [3, 11];
/// One worker (trivially serial), two, and an oversubscribed pool (more
/// workers than engines or host cores).
const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

fn canonical(cfg: SystemConfig, seed: u64, rps: f64, secs: f64) -> String {
    let mut sim = Simulation::new(cfg, seed);
    let trace = workloads::splitwise(rps, secs, seed, sim.pool());
    let report = sim.run(&trace);
    report.assert_request_conservation(trace.len());
    report.canonical_text()
}

#[test]
fn fixed_affinity_fleet_is_bit_identical_across_worker_counts() {
    for seed in SEEDS {
        let serial = canonical(preset::chameleon_cluster_partitioned(4), seed, 24.0, 10.0);
        for workers in WORKER_COUNTS {
            let parallel = canonical(
                preset::chameleon_cluster_partitioned(4).with_parallel_cluster(workers),
                seed,
                24.0,
                10.0,
            );
            assert_eq!(
                serial, parallel,
                "seed {seed}, {workers} workers: parallel diverged from serial"
            );
        }
    }
}

#[test]
fn hetero_fleet_is_bit_identical_across_worker_counts() {
    for seed in SEEDS {
        let serial = canonical(preset::chameleon_cluster_hetero(), seed, 16.0, 10.0);
        for workers in WORKER_COUNTS {
            let parallel = canonical(
                preset::chameleon_cluster_hetero().with_parallel_cluster(workers),
                seed,
                16.0,
                10.0,
            );
            assert_eq!(
                serial, parallel,
                "seed {seed}, {workers} workers: hetero fleet diverged"
            );
        }
    }
}

/// The elastic preset with a controller tight enough that a short bursty
/// trace forces both a scale-up and a drain-back — so the barriers apply
/// real mid-trace `add_engine`/`drain_engine` fleet changes.
fn elastic_cfg() -> SystemConfig {
    let mut cfg = preset::chameleon_cluster_elastic();
    let auto = cfg.autoscale.as_mut().expect("elastic preset");
    auto.controller.interval = SimDuration::from_secs(1);
    auto.controller.cooldown = SimDuration::from_secs(3);
    auto.controller.scale_up_mean_queue = 4.0;
    auto.controller.scale_down_mean_queue = 0.5;
    cfg
}

fn elastic_report(exec: ClusterExecution, seed: u64) -> RunReport {
    let mut sim = Simulation::new(elastic_cfg().with_cluster_exec(exec), seed);
    let trace = workloads::splitwise_bursty(4.0, 60.0, 10.0, 10.0, 20.0, seed, sim.pool());
    let report = sim.run(&trace);
    report.assert_request_conservation(trace.len());
    report
}

#[test]
fn elastic_fleet_with_mid_trace_scaling_is_bit_identical() {
    for seed in SEEDS {
        let serial = elastic_report(ClusterExecution::Serial, seed);
        // The scenario must actually change the fleet mid-trace to mean
        // anything: barriers apply adds and graceful drains.
        assert!(
            serial.routing.engines_added > 0,
            "seed {seed}: burst never grew the fleet: {:?}",
            serial.routing
        );
        assert!(
            serial.routing.engines_drained > 0,
            "seed {seed}: fleet never drained back: {:?}",
            serial.routing
        );
        let serial_text = serial.canonical_text();
        for workers in WORKER_COUNTS {
            let parallel =
                elastic_report(ClusterExecution::Parallel { workers }, seed).canonical_text();
            assert_eq!(
                serial_text, parallel,
                "seed {seed}, {workers} workers: elastic run diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Predictive control plane: every configuration must stay bit-identical
// serial↔parallel — predictor updates and forecast signals happen at
// coordinator barriers.
// ---------------------------------------------------------------------

#[test]
fn predictive_fixed_fleet_is_bit_identical_across_worker_counts() {
    let cfg = || preset::chameleon_cluster_partitioned(4).with_predictive(PredictiveSpec::new());
    for seed in SEEDS {
        let serial = canonical(cfg(), seed, 24.0, 10.0);
        assert!(
            serial.contains("\npredictive "),
            "seed {seed}: control plane never reported"
        );
        for workers in WORKER_COUNTS {
            let parallel = canonical(cfg().with_parallel_cluster(workers), seed, 24.0, 10.0);
            assert_eq!(
                serial, parallel,
                "seed {seed}, {workers} workers: predictive fixed fleet diverged"
            );
        }
    }
}

#[test]
fn predictive_hetero_fleet_is_bit_identical_across_worker_counts() {
    let cfg = || preset::chameleon_cluster_hetero().with_predictive(PredictiveSpec::new());
    for seed in SEEDS {
        let serial = canonical(cfg(), seed, 16.0, 10.0);
        for workers in WORKER_COUNTS {
            let parallel = canonical(cfg().with_parallel_cluster(workers), seed, 16.0, 10.0);
            assert_eq!(
                serial, parallel,
                "seed {seed}, {workers} workers: predictive hetero fleet diverged"
            );
        }
    }
}

/// The full control plane (SLO + forecast autoscaling included) on the
/// elastic scenario: predictive scale-up decisions are barrier decisions
/// too, so the whole run stays bit-identical.
#[test]
fn full_predictive_elastic_is_bit_identical() {
    let cfg = || elastic_cfg().with_predictive(PredictiveSpec::new());
    for seed in SEEDS {
        let mut sim = Simulation::new(cfg(), seed);
        let trace = workloads::splitwise_bursty(4.0, 60.0, 10.0, 10.0, 20.0, seed, sim.pool());
        let serial = sim.run(&trace);
        let p = &serial.routing.predictive;
        assert!(
            p.slo_scaleups + p.forecast_scaleups > 0,
            "seed {seed}: a predictive signal should fire in this scenario: {p:?}"
        );
        let serial_text = serial.canonical_text();
        for workers in WORKER_COUNTS {
            let mut sim = Simulation::new(
                cfg().with_cluster_exec(ClusterExecution::Parallel { workers }),
                seed,
            );
            let parallel = sim.run(&trace).canonical_text();
            assert_eq!(
                serial_text, parallel,
                "seed {seed}, {workers} workers: full predictive run diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Direct Cluster API: explicit drain/add between runs on one cluster.
// ---------------------------------------------------------------------

fn pool() -> AdapterPool {
    AdapterPool::generate(&LlmSpec::llama_7b(), &PoolConfig::paper_default(60))
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

/// Wraps a cluster's merged report as a `RunReport` with fixed metadata
/// so the byte-level comparison covers exactly what the runs computed.
fn run_report(rep: EngineReport, horizon: SimTime, events: u64) -> RunReport {
    RunReport {
        label: "parallel-cluster".into(),
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

/// Runs the same three-phase script — first half-trace, then an explicit
/// `drain_engine` + `add_engine` fleet change, then the rest — under one
/// execution mode, and returns the canonical text.
fn scripted_run(pool: &AdapterPool, trace: &Trace, exec: ClusterExecution) -> String {
    let mut c = Cluster::with_router(3, |_| engine(pool), Box::new(AdapterAffinity::new()));
    let half = Trace::new(trace.requests()[..trace.len() / 2].to_vec());
    let rest = Trace::new(trace.requests()[trace.len() / 2..].to_vec());
    let h1 = c.run_with(&half, exec);
    // Fleet change between runs: engine 1 drains (its in-flight work is
    // done, so it retires during the next run), a fresh engine joins.
    assert!(c.drain_engine(chameleon_repro::router::EngineId(1)));
    c.add_engine(engine(pool));
    let h2 = c.run_with(&rest, exec);
    let events = c.events_processed();
    run_report(c.into_report(), h1.max(h2), events).canonical_text()
}

#[test]
fn explicit_drain_and_add_between_runs_is_bit_identical() {
    let pool = pool();
    for seed in SEEDS {
        let trace = workloads::splitwise(30.0, 8.0, seed, &pool);
        let serial = scripted_run(&pool, &trace, ClusterExecution::Serial);
        assert!(
            serial.contains("drained=1"),
            "script must exercise the drain path"
        );
        for workers in WORKER_COUNTS {
            let parallel = scripted_run(&pool, &trace, ClusterExecution::Parallel { workers });
            assert_eq!(
                serial, parallel,
                "seed {seed}, {workers} workers: scripted fleet change diverged"
            );
        }
    }
}
