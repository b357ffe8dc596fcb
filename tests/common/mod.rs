//! Fault schedules and fleets shared by the integration suites. Each
//! suite uses a subset, hence the crate-level `dead_code` allowance.
#![allow(dead_code)]

use chameleon_repro::core::{preset, FaultSpec, FleetSpec, SystemConfig, TopologySpec};
use chameleon_repro::fault::fault_roll;
use chameleon_repro::simcore::SimTime;

/// A fault spec exercising every injector at once: a crash, a straggler
/// window, a flaky host link, and SLO shedding.
pub fn kitchen_sink_faults() -> FaultSpec {
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

/// Three racks of two: one crashed rack plus one partitioned rack still
/// leaves a reachable rack, so most schedules pass the injection guards
/// and actually land. Pair it with a fault spec that arms shard
/// recovery, as [`chaos_schedule`] does, to warm crashed shards onto the
/// survivors.
pub fn chaos_fleet() -> SystemConfig {
    preset::chameleon_cluster_partitioned(6)
        .with_fleet(
            FleetSpec::homogeneous(6, 1).with_topology(TopologySpec::racks(&[0, 0, 1, 1, 2, 2])),
        )
        .with_label("Chameleon-DP6-Chaos")
}

/// One seeded random schedule, with crashed shards warmed onto the
/// survivors. Streams partition the dice so adding a fault class never
/// perturbs the draws of another.
pub fn chaos_schedule(seed: u64) -> FaultSpec {
    let roll = |stream: u64, counter: u64| fault_roll(seed, stream, counter);
    let mut spec = FaultSpec::new().with_shedding(8.0).with_shard_recovery();

    // Usually a whole-domain crash somewhere mid-trace.
    let crash_rack = (roll(1, 0) * 3.0) as u32;
    if roll(1, 1) < 0.75 {
        let at = 3.0 + roll(1, 2) * 5.0;
        spec = spec.with_domain_crash(crash_rack, SimTime::from_secs_f64(at));
    }

    // Often a partition on one of the other racks.
    if roll(2, 0) < 0.6 {
        let rack = (crash_rack + 1 + (roll(2, 1) * 2.0) as u32) % 3;
        let from = 2.0 + roll(2, 2) * 4.0;
        let until = from + 1.0 + roll(2, 3) * 3.0;
        spec = spec.with_partition(
            rack,
            SimTime::from_secs_f64(from),
            SimTime::from_secs_f64(until),
        );
    }

    // Sometimes a domain-scoped brownout.
    if roll(3, 0) < 0.5 {
        let rack = (roll(3, 1) * 3.0) as u32;
        let from = 1.0 + roll(3, 2) * 3.0;
        let until = from + 2.0 + roll(3, 3) * 4.0;
        let factor = 1.5 + roll(3, 4) * 4.0;
        spec = spec.with_domain_brownout(
            rack,
            SimTime::from_secs_f64(from),
            SimTime::from_secs_f64(until),
            factor,
        );
    }

    // Sometimes a lone-engine crash on top of the correlated faults.
    if roll(4, 0) < 0.4 {
        let engine = (roll(4, 1) * 6.0) as u32;
        let at = 4.0 + roll(4, 2) * 4.0;
        spec = spec.with_crash(engine, SimTime::from_secs_f64(at));
    }

    spec
}
