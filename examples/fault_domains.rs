//! Correlated failures and fault domains, end to end: a whole rack dies
//! mid-burst on a 4-engine, two-rack fleet, on identical traces, two
//! ways — with domain-aware anti-affinity placement and without it.
//!
//! 1. **anti-affinity** — the fleet knows its topology: spill targets
//!    prefer the best engine *outside* the primary's rack, so when rack
//!    1 takes both its engines down at one barrier, the spilled work is
//!    already on the surviving rack.
//! 2. **topology-blind** — the identical fleet and racks, but second
//!    choices rank engines by weight alone. Some of them land on the
//!    primary's own rack and die with it, so the survivors inherit a
//!    deeper backlog and the shed gate trips more.
//!
//! Both arms arm crash-time shard recovery
//! (`FaultSpec::with_shard_recovery`): the dead rack's shard is
//! warm-loaded onto the engines that inherit it. The seed-7 win of
//! anti-affinity holds only with recovery armed: without it, blind
//! placement reads 0.589 s offered P99 against anti-affinity's 0.705 s,
//! with one request lost in each arm.
//!
//! A third scenario shows the partition injector: the coordinator loses
//! sight of rack 1 for four seconds, routes around the dark rack, and
//! re-dispatches every stranded request when the link heals — nothing
//! is lost.
//!
//! Run with `cargo run --release --example fault_domains`. The claims
//! are asserted, so CI fails if domain awareness stops paying for
//! itself: anti-affinity strictly beats blind placement on offered P99
//! and on requests lost to the fault, the MTTR ledger closes every
//! crash episode, and the partition run completes every offered request.

use chameleon_repro::core::{
    preset, sim::Simulation, workloads, FaultSpec, RunReport, SystemConfig,
};
use chameleon_repro::simcore::SimTime;

const SEED: u64 = 7;
const CRASH_AT_SECS: f64 = 14.0;

/// The same fleet with the anti-affinity preference switched off: spill
/// second choices ignore the racks (the racks themselves stay, so the
/// crash scopes identically).
fn topology_blind(mut cfg: SystemConfig) -> SystemConfig {
    let fleet = cfg.fleet.as_mut().expect("domains preset carries a fleet");
    let topo = fleet
        .topology
        .take()
        .expect("domains preset carries a topology");
    fleet.topology = Some(topo.without_anti_affinity());
    cfg.with_label("Chameleon-DP4-DomainsBlind")
}

fn show(name: &str, r: &RunReport, offered: usize) {
    let f = &r.routing.fault;
    let p99 = r.p99_ttft_offered(offered);
    println!(
        "  {name:<20} served={:<4} lost={:<3} recovered={:<3} availability={:>6.2}% \
         p99-offered={}",
        r.completed(),
        r.requests_lost_to_faults(),
        f.requests_recovered,
        r.availability(offered) * 100.0,
        if p99.is_finite() {
            format!("{p99:.3}s")
        } else {
            "inf".into()
        },
    );
}

fn main() {
    println!("== Whole-rack crash mid-burst: anti-affinity vs topology-blind ==");
    let fault = || {
        FaultSpec::new()
            .with_domain_crash(1, SimTime::from_secs_f64(CRASH_AT_SECS))
            .with_shedding(16.0)
            .with_shard_recovery()
    };
    let affine_cfg = preset::chameleon_cluster_domains(4).with_fault(fault());
    let blind_cfg = topology_blind(preset::chameleon_cluster_domains(4).with_fault(fault()));

    let pool = Simulation::new(affine_cfg.clone(), SEED).pool().clone();
    // A 2x burst from 10 s to 20 s; rack 1 dies at 14 s, inside it.
    let trace = workloads::splitwise_bursty(6.0, 40.0, 10.0, 10.0, 2.0, SEED, &pool);
    let offered = trace.len();
    println!(
        "  {offered} requests over 40s, 2x burst 10s-20s, rack 1 (engines 2+3) dies at \
         {CRASH_AT_SECS}s\n"
    );

    let affine = Simulation::new(affine_cfg, SEED).run(&trace);
    let blind = Simulation::new(blind_cfg, SEED).run(&trace);
    show("anti-affinity", &affine, offered);
    show("topology-blind", &blind, offered);

    // Nothing lost, nothing duplicated — and the crash scoped identically.
    affine.assert_request_conservation(offered);
    blind.assert_request_conservation(offered);
    for (arm, run) in [("affine", &affine), ("blind", &blind)] {
        let f = &run.routing.fault;
        assert_eq!(f.domains_failed, 1, "{arm}: the rack crash must land");
        assert_eq!(f.engines_failed, 2, "{arm}: both rack members must die");
    }

    // The efficacy claim: placing second choices off-rack strictly wins
    // on the offered tail and on requests lost to the fault.
    let f = &affine.routing.fault;
    let p99_affine = affine.p99_ttft_offered(offered);
    let p99_blind = blind.p99_ttft_offered(offered);
    assert!(
        p99_affine < p99_blind,
        "anti-affinity ({p99_affine}s) must strictly beat blind ({p99_blind}s) on offered P99"
    );
    assert!(
        affine.requests_lost_to_faults() < blind.requests_lost_to_faults(),
        "anti-affinity must lose strictly fewer requests than blind placement"
    );
    assert!(f.requests_recovered > 0, "the crash hit an idle rack");
    assert_eq!(f.requests_failed, 0, "recovery abandoned victim requests");

    // The MTTR ledger closed the episode: finite time-to-redispatch, and
    // the last victim completion can only come later.
    assert!(
        f.mttr_redispatch > 0.0 && f.mttr_redispatch.is_finite(),
        "MTTR-redispatch never recorded"
    );
    assert!(f.mttr_complete >= f.mttr_redispatch);
    println!(
        "\n  rack crash episode: MTTR {:.3}s to full re-dispatch, {:.3}s to last victim \
         completion; anti-affinity lost {} vs {} blind\n",
        f.mttr_redispatch,
        f.mttr_complete,
        affine.requests_lost_to_faults(),
        blind.requests_lost_to_faults(),
    );

    println!("== Coordinator<->rack partition: route around the dark rack, heal, re-dispatch ==");
    let part_cfg =
        preset::chameleon_cluster_domains(4).with_fault(FaultSpec::new().with_partition(
            1,
            SimTime::from_secs_f64(5.0),
            SimTime::from_secs_f64(9.0),
        ));
    let mut sim = Simulation::new(part_cfg, SEED);
    let trace = workloads::splitwise(16.0, 15.0, SEED, sim.pool());
    let offered = trace.len();
    let part = sim.run(&trace);
    part.assert_request_conservation(offered);
    let f = &part.routing.fault;
    assert_eq!(f.partitions, 1, "the partition never opened");
    assert_eq!(f.engines_failed, 0, "a partition is not a crash");
    assert!(
        f.requests_recovered > 0,
        "no stranded work was re-dispatched"
    );
    assert_eq!(
        part.completed() as usize,
        offered,
        "a healed partition must lose nothing"
    );
    println!(
        "  rack 1 dark 5s-9s: {} stranded requests re-dispatched, {}/{offered} served, \
         0 lost",
        f.requests_recovered,
        part.completed(),
    );
}
