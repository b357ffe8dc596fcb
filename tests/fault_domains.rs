//! Behavioural oracle for correlated-failure resilience: fault domains,
//! domain-aware anti-affinity placement, whole-domain crashes, partitions,
//! brownouts, and MTTR accounting.
//!
//! The headline claims, each pinned here:
//!
//! * a whole-domain crash takes every member engine and still loses
//!   nothing — victims are re-dispatched (or deliberately counted failed)
//!   with finite mean time to re-dispatch;
//! * under the identical domain-crash schedule and trace, anti-affinity
//!   placement never loses more requests than the topology-blind ablation
//!   (seeds 1–12), and on seed 7 it **strictly beats** it on offered-P99
//!   TTFT and on requests lost. Seed 7 is one of 4 seeds in 1–20 where
//!   anti-affinity is strictly better (fewer requests lost, or as many
//!   with a lower offered-P99); the other 16 tie. The seed-7 win holds
//!   only with crash-time shard recovery armed, as these scenarios arm
//!   it (`FaultSpec::with_shard_recovery`): without it, blind placement
//!   reads 0.589 s offered P99 against anti-affinity's 0.705 s, with one
//!   request lost in each arm;
//! * a coordinator↔domain partition routes traffic around the dark rack
//!   and re-dispatches the stranded work, and the rack rejoins on heal.

use chameleon_repro::core::{
    preset, report::RunReport, sim::Simulation, workloads, FaultSpec, FleetSpec, SystemConfig,
    TopologySpec, TraceSpec,
};
use chameleon_repro::simcore::SimTime;
use chameleon_repro::trace::TraceEvent;

const SEED: u64 = 7;

/// The topology-blind ablation: identical fleet and racks, anti-affinity
/// off. Placement ignores domains, but the correlated injections still
/// hit whole racks — so the comparison isolates the placement policy.
fn without_anti_affinity(mut cfg: SystemConfig) -> SystemConfig {
    let fleet = cfg.fleet.as_mut().expect("domains preset carries a fleet");
    let topo = fleet
        .topology
        .take()
        .expect("domains preset carries a topology");
    fleet.topology = Some(topo.without_anti_affinity());
    cfg.with_label("Chameleon-DP-DomainsBlind")
}

fn run_faulted(cfg: SystemConfig, seed: u64, rps: f64, secs: f64) -> (RunReport, usize) {
    let mut sim = Simulation::new(cfg, seed);
    let trace = workloads::splitwise(rps, secs, seed, sim.pool());
    let n = trace.len();
    (sim.run(&trace), n)
}

/// A whole-domain crash takes both member engines down at one barrier,
/// emits a single `DomainFailed` event ahead of the per-engine failures,
/// and still loses nothing: every victim is re-dispatched and completes,
/// with a finite MTTR ledger.
#[test]
fn domain_crash_kills_every_member_and_loses_nothing() {
    let cfg = preset::chameleon_cluster_domains(4)
        .with_fault(
            FaultSpec::new()
                .with_domain_crash(1, SimTime::from_secs_f64(10.0))
                .with_shedding(8.0)
                .with_shard_recovery(),
        )
        .with_trace(TraceSpec::new());
    let (report, offered) = run_faulted(cfg, SEED, 12.0, 25.0);
    let f = &report.routing.fault;
    assert_eq!(f.domains_failed, 1, "the scheduled domain crash must land");
    assert_eq!(f.engines_failed, 2, "both rack-1 members must die");
    assert!(
        f.requests_recovered > 0,
        "crash hit an idle rack — scenario too light"
    );
    assert_eq!(f.requests_failed, 0, "default budget recovers everything");
    report.assert_request_conservation(offered);
    assert_eq!(
        report.completed() as u64 + f.requests_shed,
        offered as u64,
        "recovered requests must finish, not linger incomplete"
    );

    // MTTR: the episode opened at the crash barrier closes when the last
    // victim re-dispatches, and completion trails re-dispatch.
    assert!(
        f.mttr_redispatch > 0.0 && f.mttr_redispatch.is_finite(),
        "re-dispatch MTTR must be finite and positive: {}",
        f.mttr_redispatch
    );
    assert!(
        f.mttr_complete >= f.mttr_redispatch,
        "victims cannot complete before they re-dispatch ({} < {})",
        f.mttr_complete,
        f.mttr_redispatch
    );

    // One DomainFailed event naming the rack and its member count, pushed
    // before any of the member EngineFailed events.
    let log = report.trace.as_ref().expect("traced run");
    let events = log.events();
    let domain_at = events
        .iter()
        .position(|e| {
            matches!(
                e.event,
                TraceEvent::DomainFailed {
                    rack: 1,
                    engines: 2
                }
            )
        })
        .expect("domain crash emits a DomainFailed event");
    let first_engine = events
        .iter()
        .position(|e| matches!(e.event, TraceEvent::EngineFailed { .. }))
        .expect("members emit EngineFailed events");
    assert!(
        domain_at < first_engine,
        "the correlated event must precede its member crashes"
    );
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::EngineFailed { .. }))
            .count(),
        2
    );
}

/// The domain-crash efficacy scenario on `seed`: a 2x burst over 10-20 s
/// and a rack-1 crash mid-burst at 14 s with shard recovery armed, run
/// with anti-affinity placement and with the topology-blind ablation on
/// the identical trace. Returns
/// `(affine, blind, offered)` after checking conservation and that the
/// crash took both rack members in each arm.
fn domain_crash_arms(seed: u64) -> (RunReport, RunReport, usize) {
    let fault = || {
        FaultSpec::new()
            .with_domain_crash(1, SimTime::from_secs_f64(14.0))
            .with_shedding(16.0)
            .with_shard_recovery()
    };
    let affine_cfg = preset::chameleon_cluster_domains(4).with_fault(fault());
    let blind_cfg = without_anti_affinity(preset::chameleon_cluster_domains(4)).with_fault(fault());

    // The rack dies mid-burst with deep queues, so where the spilled work
    // sat is exactly what separates the two arms.
    let pool = Simulation::new(affine_cfg.clone(), seed).pool().clone();
    let trace = workloads::splitwise_bursty(6.0, 40.0, 10.0, 10.0, 2.0, seed, &pool);
    let offered = trace.len();

    let affine = Simulation::new(affine_cfg, seed).run(&trace);
    let blind = Simulation::new(blind_cfg, seed).run(&trace);
    for (name, r) in [("affine", &affine), ("blind", &blind)] {
        r.assert_request_conservation(offered);
        assert_eq!(r.routing.fault.domains_failed, 1, "{name}: crash missed");
        assert_eq!(r.routing.fault.engines_failed, 2, "{name}: partial crash");
    }
    (affine, blind, offered)
}

/// The fault-domain efficacy pin: on the identical trace and
/// domain-crash schedule, anti-affinity placement strictly beats the
/// topology-blind ablation on offered-P99 TTFT and on requests lost to
/// faults. Blind placement lets burst spill share the primary's rack, so
/// the mid-burst rack crash takes more queued work with it — the
/// survivors inherit a deeper backlog, shed more arrivals, and push the
/// offered tail out; anti-affinity keeps a live foothold outside the
/// blast radius.
#[test]
fn anti_affinity_strictly_beats_blind_placement_under_a_domain_crash() {
    let (affine, blind, offered) = domain_crash_arms(SEED);
    for (name, r) in [("affine", &affine), ("blind", &blind)] {
        assert!(
            r.routing.spills > 0,
            "{name}: no request ever spilled — comparison is vacuous"
        );
    }

    let p99_affine = affine.p99_ttft_offered(offered);
    let p99_blind = blind.p99_ttft_offered(offered);
    assert!(
        p99_affine < p99_blind,
        "anti-affinity ({p99_affine:.3}s) must strictly beat blind ({p99_blind:.3}s) on offered P99"
    );
    assert!(
        affine.requests_lost_to_faults() < blind.requests_lost_to_faults(),
        "anti-affinity ({}) must strictly beat blind ({}) on requests lost",
        affine.requests_lost_to_faults(),
        blind.requests_lost_to_faults()
    );

    // MTTR is finite with 100% of victims re-dispatched.
    let f = &affine.routing.fault;
    assert!(f.requests_recovered > 0);
    assert_eq!(f.requests_failed, 0, "every victim must re-dispatch");
    assert!(f.retries >= f.requests_recovered);
    assert!(f.mttr_redispatch > 0.0 && f.mttr_redispatch.is_finite());
}

/// Seed by seed, anti-affinity never loses more requests to the rack
/// crash than topology-blind placement does.
#[test]
fn anti_affinity_never_loses_more_requests_than_blind_placement() {
    for seed in 1..=12 {
        let (affine, blind, _) = domain_crash_arms(seed);
        assert!(
            affine.requests_lost_to_faults() <= blind.requests_lost_to_faults(),
            "seed {seed}: anti-affinity lost {} vs {} blind",
            affine.requests_lost_to_faults(),
            blind.requests_lost_to_faults()
        );
    }
}

/// A coordinator↔domain partition makes the rack unreachable without
/// retiring it: stranded work is evacuated and re-dispatched around the
/// dark rack, nothing is lost, and the rack rejoins at heal (pinned by
/// the `PartitionHealed` trace event).
#[test]
fn partition_routes_around_the_dark_rack_and_heals() {
    let cfg = preset::chameleon_cluster_domains(4)
        .with_fault(FaultSpec::new().with_partition(
            1,
            SimTime::from_secs_f64(5.0),
            SimTime::from_secs_f64(9.0),
        ))
        .with_trace(TraceSpec::new());
    let (report, offered) = run_faulted(cfg, 9, 16.0, 15.0);
    let f = &report.routing.fault;
    assert_eq!(f.partitions, 1, "the scheduled partition must open");
    assert_eq!(f.engines_failed, 0, "a partition retires nothing");
    assert!(
        f.requests_recovered > 0,
        "partition caught no in-flight work — scenario too light"
    );
    assert_eq!(f.requests_failed, 0);
    report.assert_request_conservation(offered);
    assert_eq!(
        report.completed(),
        offered,
        "work stranded in the dark rack must still finish"
    );
    assert!(
        f.mttr_redispatch > 0.0 && f.mttr_redispatch.is_finite(),
        "partition victims must re-dispatch in finite time"
    );
    let log = report.trace.as_ref().expect("traced run");
    assert!(
        log.events()
            .iter()
            .any(|e| matches!(e.event, TraceEvent::PartitionHealed { rack: 1 })),
        "the heal must be traced so operators can see the rack rejoin"
    );
}

/// A domain-scoped brownout slows every member (and therefore the tail)
/// without losing or duplicating anything.
#[test]
fn domain_brownout_degrades_the_tail_but_loses_nothing() {
    let seed = 5;
    let clean_cfg = preset::chameleon_cluster_domains(4);
    let slow_cfg = clean_cfg
        .clone()
        .with_fault(FaultSpec::new().with_domain_brownout(
            0,
            SimTime::from_secs_f64(2.0),
            SimTime::from_secs_f64(12.0),
            8.0,
        ));
    let pool = Simulation::new(clean_cfg.clone(), seed).pool().clone();
    let trace = workloads::splitwise(18.0, 15.0, seed, &pool);
    let offered = trace.len();
    let clean = Simulation::new(clean_cfg, seed).run(&trace);
    let slow = Simulation::new(slow_cfg, seed).run(&trace);
    slow.assert_request_conservation(offered);
    assert_eq!(
        slow.completed(),
        clean.completed(),
        "brownout lost requests"
    );
    assert!(
        slow.p99_ttft() > clean.p99_ttft(),
        "an 8x whole-rack brownout must show up in the tail ({} vs {})",
        slow.p99_ttft(),
        clean.p99_ttft()
    );
}

/// Two engines racked as one domain, the whole rack crashed at 5 s.
fn one_rack_crash() -> SystemConfig {
    preset::chameleon_cluster_partitioned(2)
        .with_fleet(FleetSpec::homogeneous(2, 1).with_topology(TopologySpec::racks(&[0, 0])))
        .with_fault(
            FaultSpec::new()
                .with_domain_crash(0, SimTime::from_secs_f64(5.0))
                .with_shard_recovery(),
        )
        .with_label("Chameleon-DP2-OneRack")
}

/// Single-domain degradation: when every engine shares one rack, a
/// domain crash may not take the fleet to zero — the guard spares the
/// last reachable engine and the run still drains.
#[test]
fn single_rack_domain_crash_spares_the_last_engine() {
    let (report, offered) = run_faulted(one_rack_crash(), 3, 8.0, 12.0);
    let f = &report.routing.fault;
    assert_eq!(f.domains_failed, 1);
    assert_eq!(f.engines_failed, 1, "the guard must spare the last engine");
    report.assert_request_conservation(offered);
    assert_eq!(report.completed(), offered);
}

/// `DomainFailed` counts the engines the crash took down: when the
/// last-engine guard spares one of the rack's two members, the event —
/// still ahead of the member's `EngineFailed` — reads one engine.
#[test]
fn domain_failed_counts_the_engines_the_crash_took_down() {
    let (report, _) = run_faulted(one_rack_crash().with_trace(TraceSpec::new()), 3, 8.0, 12.0);
    let events = report.trace.as_ref().expect("traced run").events();
    let domain = events
        .iter()
        .position(|e| matches!(e.event, TraceEvent::DomainFailed { .. }))
        .expect("domain crash emits a DomainFailed event");
    assert_eq!(
        events[domain].event,
        TraceEvent::DomainFailed {
            rack: 0,
            engines: 1
        },
        "the guard spared one of the two members"
    );
    let failed: Vec<usize> = (0..events.len())
        .filter(|&i| matches!(events[i].event, TraceEvent::EngineFailed { .. }))
        .collect();
    assert_eq!(failed.len(), 1);
    assert!(domain < failed[0], "the rack event precedes its member's");
}

/// Overlapping partition windows on one rack keep it cut off until the
/// last of them ends: with rack 1 (engines 2 and 3) partitioned over
/// 2-6 s and 4-9 s, no request routes to it before 9 s, it heals once, at
/// 9 s, and the two windows count as one partition. Routing reaches the
/// rack again after the heal.
#[test]
fn overlapping_partitions_keep_the_rack_cut_off_until_the_last_heal() {
    let secs = SimTime::from_secs_f64;
    let cfg = preset::chameleon_cluster_domains(4)
        .with_fault(
            FaultSpec::new()
                .with_partition(1, secs(2.0), secs(6.0))
                .with_partition(1, secs(4.0), secs(9.0)),
        )
        .with_trace(TraceSpec::new());
    let (report, offered) = run_faulted(cfg, 3, 8.0, 12.0);
    report.assert_request_conservation(offered);
    assert_eq!(report.routing.fault.partitions, 1);
    let events = report.trace.as_ref().expect("traced run").events();
    let to_rack_1 = |from: f64, until: f64| {
        events
            .iter()
            .filter(|e| (secs(from)..secs(until)).contains(&e.at))
            .filter(|e| matches!(e.event, TraceEvent::RouteDecision { chosen: 2 | 3, .. }))
            .count()
    };
    assert_eq!(to_rack_1(2.0, 9.0), 0, "requests reached the cut-off rack");
    assert!(to_rack_1(9.0, 12.0) > 0, "the rack never rejoined");
    let heals: Vec<SimTime> = events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::PartitionHealed { rack: 1 }))
        .map(|e| e.at)
        .collect();
    assert_eq!(heals, [secs(9.0)]);
}

/// Overlapping slowdown windows run at the largest open factor: a ×2
/// brownout of rack 0 nested inside a ×3 straggler window on engine 0
/// (rack 0's only member) neither speeds the straggler up when it opens
/// nor cancels it when it closes, so every request fares exactly as
/// under the straggler alone. Only the header's `events=` differs, by the
/// brownout's two fault barriers.
#[test]
fn nested_brownout_leaves_a_harsher_straggler_alone() {
    let secs = SimTime::from_secs_f64;
    let straggler = FaultSpec::new().with_straggler(0, secs(2.0), secs(9.0), 3.0);
    let nested = straggler
        .clone()
        .with_domain_brownout(0, secs(4.0), secs(6.0), 2.0);
    for seed in [3, 11] {
        let [alone, overlapped] = [&straggler, &nested].map(|fault| {
            let cfg = preset::chameleon_cluster_domains(2).with_fault(fault.clone());
            let (report, offered) = run_faulted(cfg, seed, 8.0, 12.0);
            report.assert_request_conservation(offered);
            let text = report.canonical_text();
            let reqs: Vec<String> = text
                .lines()
                .filter(|l| l.starts_with("req "))
                .map(str::to_owned)
                .collect();
            assert!(!reqs.is_empty(), "seed {seed}: no request ran");
            reqs
        });
        assert_eq!(
            alone, overlapped,
            "seed {seed}: the nested brownout changed how requests fared"
        );
    }
}
