//! Chaos-sweep harness: seeded random fault schedules over the
//! domain-aware affinity fleet.
//!
//! Each schedule is derived deterministically from its seed through the
//! fault plane's own counter-hashed dice (`fault_roll`), so the sweep is
//! reproducible bit-for-bit anywhere. Every schedule — whatever mix of
//! whole-domain crashes, partitions, brownouts and lone-engine crashes
//! the dice picked — must hold three invariants:
//!
//! * **conservation** — every offered request is completed, shed or
//!   deliberately failed, exactly once;
//! * **availability floor** — correlated failures on a three-rack fleet
//!   never cost more than half the offered traffic;
//! * **determinism** — the serial run and the epoch-synchronised worker
//!   pool produce byte-identical canonical reports.
//!
//! The injection guards (never crash or partition the fleet to zero
//! reachable engines, skip memberless racks) are deliberately in play:
//! some schedules draw conflicting faults and the guards must refuse
//! them identically in every execution mode.
//!
//! `CHAMELEON_WORKERS` scales the pooled arm in CI; the schedule count
//! here is the full sweep the acceptance criteria name (>= 8).

mod common;

use chameleon_repro::core::{sim::Simulation, workloads, ClusterExecution};
use common::{chaos_fleet, chaos_schedule};

const SCHEDULES: u64 = 8;
const AVAILABILITY_FLOOR: f64 = 0.5;

/// Returns `(canonical_text, availability, correlated_faults_landed)`
/// for one schedule under one execution mode.
fn run_schedule(seed: u64, exec: ClusterExecution) -> (String, f64, u64) {
    let cfg = chaos_fleet()
        .with_fault(chaos_schedule(seed))
        .with_cluster_exec(exec);
    let mut sim = Simulation::new(cfg, seed);
    let trace = workloads::splitwise(16.0, 10.0, seed, sim.pool());
    let offered = trace.len();
    let report = sim.run(&trace);
    report.assert_request_conservation(offered);
    let f = &report.routing.fault;
    (
        report.canonical_text(),
        report.availability(offered),
        f.domains_failed + f.partitions,
    )
}

/// The full sweep: every seeded schedule conserves requests, stays above
/// the availability floor, and is bit-identical between serial and
/// pooled execution. Across the sweep the dice must actually land
/// correlated faults — a silently-degenerate generator would pass the
/// invariants without testing anything.
#[test]
fn chaos_sweep_holds_invariants_on_every_schedule() {
    let mut correlated_total = 0;
    for seed in 0..SCHEDULES {
        let (serial, availability, correlated) = run_schedule(seed, ClusterExecution::Serial);
        assert!(
            availability >= AVAILABILITY_FLOOR,
            "schedule {seed}: availability {availability:.3} fell through the floor"
        );
        let (pooled, pooled_availability, _) =
            run_schedule(seed, ClusterExecution::Parallel { workers: 2 });
        assert_eq!(
            pooled, serial,
            "schedule {seed}: pooled run diverged from serial"
        );
        assert_eq!(pooled_availability.to_bits(), availability.to_bits());
        correlated_total += correlated;
    }
    assert!(
        correlated_total >= SCHEDULES / 2,
        "the sweep landed only {correlated_total} correlated faults — generator degenerated"
    );
}
