//! Determinism oracle for the trace plane.
//!
//! The decision stream is part of the simulation contract: the merged
//! `TraceLog` (and hence its JSONL rendering) must be **byte-identical**
//! whether the cluster steps serially or on an epoch-synchronised worker
//! pool, for any worker count. These tests pin that across seeds and
//! worker counts on the fixed affinity fleet and — because autoscale
//! and drain events ride the coordinator lane — on the elastic preset
//! through a 20x burst.

use chameleon_repro::core::{
    preset, sim::Simulation, workloads, ClusterExecution, FaultSpec, SystemConfig, TraceSpec,
};
use chameleon_repro::simcore::{SimDuration, SimTime};

const SEEDS: [u64; 2] = [3, 11];
const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

/// Runs `cfg` traced under `exec` on the pinned splitwise trace and
/// returns `(canonical_text, trace_jsonl)`.
fn traced_run(
    cfg: SystemConfig,
    exec: ClusterExecution,
    seed: u64,
    rps: f64,
    secs: f64,
) -> (String, String) {
    let mut sim = Simulation::new(cfg.with_cluster_exec(exec), seed);
    let trace = workloads::splitwise(rps, secs, seed, sim.pool());
    let report = sim.run(&trace);
    report.assert_request_conservation(trace.len());
    let jsonl = report
        .trace
        .as_ref()
        .expect("traced run carries a log")
        .to_jsonl();
    (report.canonical_text(), jsonl)
}

/// Fixed 4-engine affinity fleet: the serial trace stream is the oracle,
/// and every pooled worker count must reproduce it byte-for-byte — same
/// events, same order, same sequence numbers — across seeds.
#[test]
fn trace_stream_is_byte_identical_across_worker_counts() {
    for seed in SEEDS {
        let cfg = preset::chameleon_cluster_partitioned(4).with_trace(TraceSpec::new());
        let (serial_text, serial_jsonl) =
            traced_run(cfg.clone(), ClusterExecution::Serial, seed, 24.0, 10.0);
        assert!(!serial_jsonl.is_empty(), "traced run emitted no events");
        assert!(serial_jsonl.contains("\"ev\":\"route\""));
        assert!(serial_jsonl.contains("\"ev\":\"first_token\""));
        for workers in WORKER_COUNTS {
            let (text, jsonl) = traced_run(
                cfg.clone(),
                ClusterExecution::Parallel { workers },
                seed,
                24.0,
                10.0,
            );
            assert_eq!(
                text, serial_text,
                "seed {seed}, {workers} workers: simulation diverged from serial"
            );
            assert_eq!(
                jsonl, serial_jsonl,
                "seed {seed}, {workers} workers: trace stream diverged from serial"
            );
        }
    }
}

/// The tightened elastic preset of the determinism suite, so the traced
/// run exercises real mid-trace scale-up and drain-back.
fn elastic_traced_cfg() -> SystemConfig {
    let mut cfg = preset::chameleon_cluster_elastic();
    let auto = cfg.autoscale.as_mut().expect("elastic preset");
    auto.controller.interval = SimDuration::from_secs(1);
    auto.controller.cooldown = SimDuration::from_secs(3);
    auto.controller.scale_up_mean_queue = 4.0;
    auto.controller.scale_down_mean_queue = 0.5;
    cfg.with_trace(TraceSpec::new())
}

fn elastic_traced_run(exec: ClusterExecution, seed: u64) -> String {
    let mut sim = Simulation::new(elastic_traced_cfg().with_cluster_exec(exec), seed);
    let trace = workloads::splitwise_bursty(4.0, 60.0, 10.0, 10.0, 20.0, seed, sim.pool());
    sim.run(&trace)
        .trace
        .as_ref()
        .expect("traced run carries a log")
        .to_jsonl()
}

/// Elastic burst: the coordinator-lane events (autoscale triggers, drain
/// starts) interleave with engine-lane events in a pinned
/// order that the worker pool must reproduce exactly.
#[test]
fn coordinator_lane_events_are_mode_invariant() {
    let serial = elastic_traced_run(ClusterExecution::Serial, 3);
    assert!(
        serial.contains("\"ev\":\"autoscale\""),
        "elastic burst must trip the autoscaler for this oracle to mean anything"
    );
    assert!(serial.contains("\"ev\":\"drain\""));
    for workers in [2usize, 7] {
        let pooled = elastic_traced_run(ClusterExecution::Parallel { workers }, 3);
        assert_eq!(
            pooled, serial,
            "{workers} workers: coordinator-lane interleaving diverged from serial"
        );
    }
}

/// Correlated-fault trace events — `domain_failed` at the whole-rack
/// crash and `partition_healed` when the coordinator↔domain link comes
/// back — ride the coordinator lane and must interleave identically
/// across worker counts.
#[test]
fn correlated_fault_events_are_mode_invariant() {
    let cfg = preset::chameleon_cluster_domains(4)
        .with_fault(
            FaultSpec::new()
                .with_partition(0, SimTime::from_secs_f64(3.0), SimTime::from_secs_f64(6.0))
                .with_domain_crash(1, SimTime::from_secs_f64(8.0))
                .with_shard_recovery(),
        )
        .with_trace(TraceSpec::new());
    let run = |exec: ClusterExecution| {
        let mut sim = Simulation::new(cfg.clone().with_cluster_exec(exec), 5);
        let trace = workloads::splitwise(24.0, 12.0, 5, sim.pool());
        let n = trace.len();
        let report = sim.run(&trace);
        report.assert_request_conservation(n);
        report
            .trace
            .as_ref()
            .expect("traced run carries a log")
            .to_jsonl()
    };
    let serial = run(ClusterExecution::Serial);
    assert!(serial.contains("\"ev\":\"domain_failed\""));
    assert!(serial.contains("\"ev\":\"partition_healed\""));
    assert!(serial.contains("\"ev\":\"engine_failed\""));
    for workers in WORKER_COUNTS {
        assert_eq!(
            run(ClusterExecution::Parallel { workers }),
            serial,
            "{workers} workers: correlated-fault trace stream diverged from serial"
        );
    }
}
