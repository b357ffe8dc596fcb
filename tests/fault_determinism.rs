//! Determinism oracle for the fault-injection plane.
//!
//! Faults are coordinator decisions observed only at cluster barriers, so
//! a fault-armed run — crashes, stragglers, flaky PCIe, delayed
//! provisioning, retries, shedding — must be **byte-identical** whether
//! the cluster steps serially or on an epoch-synchronised worker pool,
//! for any worker count, on fixed and elastic fleets alike. And with no
//! `FaultSpec` set, the canonical text must carry no fault line at all:
//! the plane is a strict opt-in overlay.

use chameleon_repro::core::{
    preset, sim::Simulation, workloads, ClusterExecution, FaultSpec, SystemConfig, TraceSpec,
};
use chameleon_repro::simcore::{SimDuration, SimTime};

const SEEDS: [u64; 2] = [3, 11];
const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

fn run_text(cfg: SystemConfig, exec: ClusterExecution, seed: u64, rps: f64, secs: f64) -> String {
    let mut sim = Simulation::new(cfg.with_cluster_exec(exec), seed);
    let trace = workloads::splitwise(rps, secs, seed, sim.pool());
    let n = trace.len();
    let report = sim.run(&trace);
    report.assert_request_conservation(n);
    report.canonical_text()
}

/// A fault spec exercising every injector at once on a fixed fleet:
/// a crash, a straggler window and a flaky host link.
fn kitchen_sink_faults() -> FaultSpec {
    FaultSpec::new()
        .with_crash(1, SimTime::from_secs_f64(6.0))
        .with_straggler(
            2,
            SimTime::from_secs_f64(2.0),
            SimTime::from_secs_f64(9.0),
            3.0,
        )
        .with_pcie_fail_prob(0.05)
        .with_shedding(8.0)
}

/// Fixed 4-engine affinity fleet under the kitchen-sink fault spec: the
/// serial run is the oracle and every pooled worker count must reproduce
/// its canonical text byte-for-byte, across seeds.
#[test]
fn fault_armed_runs_are_bit_identical_across_worker_counts() {
    for seed in SEEDS {
        let cfg = preset::chameleon_cluster_partitioned(4).with_fault(kitchen_sink_faults());
        let serial = run_text(cfg.clone(), ClusterExecution::Serial, seed, 24.0, 12.0);
        assert!(
            serial.contains("fault engines_failed=1"),
            "seed {seed}: the crash never landed"
        );
        for workers in WORKER_COUNTS {
            let pooled = run_text(
                cfg.clone(),
                ClusterExecution::Parallel { workers },
                seed,
                24.0,
                12.0,
            );
            assert_eq!(
                pooled, serial,
                "seed {seed}, {workers} workers: fault-armed run diverged from serial"
            );
        }
    }
}

/// The tightened elastic preset with provisioning faults layered on top
/// of a crash: scale-ups are delayed and sometimes fail outright, and
/// the worker pool must still reproduce the serial run exactly.
#[test]
fn elastic_fault_runs_are_bit_identical() {
    let cfg = || {
        let mut cfg = preset::chameleon_cluster_elastic();
        let auto = cfg.autoscale.as_mut().expect("elastic preset");
        auto.controller.interval = SimDuration::from_secs(1);
        auto.controller.cooldown = SimDuration::from_secs(3);
        auto.controller.scale_up_mean_queue = 4.0;
        cfg.with_fault(
            FaultSpec::new()
                .with_crash(0, SimTime::from_secs_f64(15.0))
                .with_provisioning(SimDuration::from_secs(2), 0.3),
        )
    };
    let run = |exec: ClusterExecution, seed: u64| {
        let mut sim = Simulation::new(cfg().with_cluster_exec(exec), seed);
        let trace = workloads::splitwise_bursty(4.0, 40.0, 8.0, 10.0, 20.0, seed, sim.pool());
        let n = trace.len();
        let report = sim.run(&trace);
        report.assert_request_conservation(n);
        report.canonical_text()
    };
    for seed in SEEDS {
        let serial = run(ClusterExecution::Serial, seed);
        assert!(serial.contains("fault engines_failed=1"));
        for workers in [2usize, 7] {
            assert_eq!(
                run(ClusterExecution::Parallel { workers }, seed),
                serial,
                "seed {seed}, {workers} workers: elastic fault run diverged"
            );
        }
    }
}

/// Correlated injections on a domain fleet — a rack-scoped brownout, a
/// coordinator↔domain partition and a whole-domain crash — ride the same
/// barrier-observed timeline as engine-scoped faults, so these runs too
/// must be byte-identical across worker counts and seeds, MTTR aggregates
/// included (the canonical text prints them as exact bit patterns).
#[test]
fn correlated_fault_runs_are_bit_identical() {
    for seed in SEEDS {
        let cfg = preset::chameleon_cluster_domains(6).with_fault(
            FaultSpec::new()
                .with_domain_brownout(
                    1,
                    SimTime::from_secs_f64(1.0),
                    SimTime::from_secs_f64(6.0),
                    3.0,
                )
                .with_partition(0, SimTime::from_secs_f64(2.0), SimTime::from_secs_f64(5.0))
                .with_domain_crash(1, SimTime::from_secs_f64(7.0))
                .with_shedding(8.0)
                .with_shard_recovery(),
        );
        let serial = run_text(cfg.clone(), ClusterExecution::Serial, seed, 24.0, 12.0);
        assert!(
            serial.contains("domains_failed=1"),
            "seed {seed}: the domain crash never landed"
        );
        assert!(
            serial.contains("partitions=1"),
            "seed {seed}: the partition never opened"
        );
        for workers in WORKER_COUNTS {
            let pooled = run_text(
                cfg.clone(),
                ClusterExecution::Parallel { workers },
                seed,
                24.0,
                12.0,
            );
            assert_eq!(
                pooled, serial,
                "seed {seed}, {workers} workers: correlated-fault run diverged from serial"
            );
        }
    }
}

/// A trace-armed crash run: the merged JSONL decision stream — including
/// the `engine_failed`, `retry` and `shard_recovered` events — is
/// byte-identical across execution modes.
#[test]
fn fault_trace_stream_is_byte_identical() {
    let cfg = preset::chameleon_cluster_faulted(4).with_trace(TraceSpec::new());
    let run = |exec: ClusterExecution| {
        let mut sim = Simulation::new(cfg.clone().with_cluster_exec(exec), 5);
        let trace = workloads::splitwise(24.0, 15.0, 5, sim.pool());
        let report = sim.run(&trace);
        report
            .trace
            .as_ref()
            .expect("traced run carries a log")
            .to_jsonl()
    };
    let serial = run(ClusterExecution::Serial);
    assert!(serial.contains("\"ev\":\"engine_failed\""));
    assert!(serial.contains("\"ev\":\"retry\""));
    for workers in WORKER_COUNTS {
        assert_eq!(
            run(ClusterExecution::Parallel { workers }),
            serial,
            "{workers} workers: fault trace stream diverged from serial"
        );
    }
}

/// With no `FaultSpec` set the canonical text carries no fault line —
/// fault-free runs stay byte-identical to the pre-fault-plane format
/// (the digest-pinned oracle suite holds the exact bytes; this pins the
/// structural reason they can't change).
#[test]
fn fault_line_appears_only_when_armed() {
    let seed = 2;
    let mut clean = Simulation::new(preset::chameleon_cluster_partitioned(2), seed);
    let trace = workloads::splitwise(8.0, 8.0, seed, clean.pool());
    let text = clean.run(&trace).canonical_text();
    assert!(
        !text.contains("\nfault "),
        "unarmed run leaked a fault line into the canonical text"
    );

    let mut armed = Simulation::new(
        preset::chameleon_cluster_partitioned(2)
            .with_fault(FaultSpec::new().with_crash(1, SimTime::from_secs_f64(3.0))),
        seed,
    );
    let trace = workloads::splitwise(8.0, 8.0, seed, armed.pool());
    let text = armed.run(&trace).canonical_text();
    assert!(text.contains("\nfault engines_failed=1"));
}
