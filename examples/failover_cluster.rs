//! Fault injection and failure recovery, end to end: a mid-burst engine
//! crash on a 4-engine affinity fleet, on identical traces, three ways.
//!
//! 1. **clean** — no faults: the baseline the degraded runs are measured
//!    against.
//! 2. **crash + recovery** — engine 1 dies in the thick of a 3× burst.
//!    The coordinator's timeout detector notices at the next barrier,
//!    re-homes the dead engine's adapter shard onto the survivors and
//!    re-dispatches every queued and in-flight victim request through
//!    the router with capped exponential backoff; admission sheds only
//!    if the whole fleet's estimated TTFT blows past 20× the SLO (the
//!    estimate prices each engine's *entire* backlog, so mid-burst it
//!    runs far ahead of realised TTFT — a tight multiple would refuse
//!    work the fleet can absorb).
//! 3. **crash, no recovery** — the same crash with a zero retry budget:
//!    every victim request is abandoned, the honest cost of not having
//!    a failover path.
//!
//! Run with `cargo run --release --example failover_cluster`. The
//! failover claims are asserted, so CI fails if recovery stops working:
//! 100% of the dead engine's queue is re-dispatched, nothing is lost or
//! duplicated, and the P99 degradation stays bounded instead of going
//! infinite like the no-recovery ablation's.

use chameleon_repro::core::{preset, sim::Simulation, workloads, FaultSpec, RunReport};
use chameleon_repro::simcore::{SimDuration, SimTime};

const SEED: u64 = 7;
const CRASH_AT_SECS: f64 = 10.0;

fn show(name: &str, r: &RunReport, offered: usize) {
    let f = &r.routing.fault;
    let p99 = r.p99_ttft_offered(offered);
    println!(
        "  {name:<20} served={:<4} failed={:<3} shed={:<3} recovered={:<3} retries={:<3} \
         availability={:>6.2}% p99-offered={}",
        r.completed(),
        f.requests_failed,
        f.requests_shed,
        f.requests_recovered,
        f.retries,
        r.availability(offered) * 100.0,
        if p99.is_finite() {
            format!("{p99:.3}s")
        } else {
            "inf".into()
        },
    );
}

fn main() {
    println!("== Mid-burst crash of 1-of-4 engines: recovery vs abandonment ==");
    let clean_cfg = preset::chameleon_cluster_partitioned(4);
    let recovery_cfg = clean_cfg.clone().with_fault(
        FaultSpec::new()
            .with_crash(1, SimTime::from_secs_f64(CRASH_AT_SECS))
            .with_shedding(20.0),
    );
    let ablation_cfg = clean_cfg.clone().with_fault(
        FaultSpec::new()
            .with_crash(1, SimTime::from_secs_f64(CRASH_AT_SECS))
            .with_retry_policy(SimDuration::from_millis(50), SimDuration::from_secs(2), 0),
    );

    let pool = Simulation::new(clean_cfg.clone(), SEED).pool().clone();
    // A 3x burst from 8 s to 16 s; the crash lands at 10 s, inside it.
    let trace = workloads::splitwise_bursty(5.0, 25.0, 8.0, 8.0, 3.0, SEED, &pool);
    let offered = trace.len();
    println!("  {offered} requests over 25s, 3x burst 8s-16s, engine 1 dies at {CRASH_AT_SECS}s\n");

    let clean = Simulation::new(clean_cfg, SEED).run(&trace);
    let recovery = Simulation::new(recovery_cfg, SEED).run(&trace);
    let ablation = Simulation::new(ablation_cfg, SEED).run(&trace);
    show("clean", &clean, offered);
    show("crash + recovery", &recovery, offered);
    show("crash, no recovery", &ablation, offered);

    // Nothing lost, nothing duplicated — on every variant.
    clean.assert_request_conservation(offered);
    recovery.assert_request_conservation(offered);
    ablation.assert_request_conservation(offered);

    // Full re-dispatch: the crash actually hit live work, and every
    // victim request was recovered rather than counted failed.
    let f = &recovery.routing.fault;
    assert_eq!(f.engines_failed, 1, "the scheduled crash must land");
    assert!(f.requests_recovered > 0, "crash hit an idle engine");
    assert_eq!(
        f.requests_failed, 0,
        "recovery abandoned {} victim requests",
        f.requests_failed
    );
    assert!(
        recovery.routing.adapters_rehomed > 0,
        "shard never re-homed"
    );

    // Bounded degradation: losing a quarter of the fleet mid-burst hurts
    // the tail, but recovery keeps every offered request's TTFT finite
    // and the P99 within an order of magnitude of the clean run —
    // while the no-recovery ablation's offered-P99 is infinite.
    let p99_clean = clean.p99_ttft_offered(offered);
    let p99_recovery = recovery.p99_ttft_offered(offered);
    let p99_ablation = ablation.p99_ttft_offered(offered);
    assert!(p99_recovery.is_finite(), "recovery left unserved requests");
    assert!(
        p99_recovery <= 10.0 * p99_clean,
        "P99 degradation unbounded: {p99_recovery:.3}s vs clean {p99_clean:.3}s"
    );
    assert!(
        p99_ablation.is_infinite(),
        "ablation served everything — the comparison is vacuous"
    );

    println!(
        "\n  recovery re-dispatched {}/{} victim requests; P99 {:.3}s -> {:.3}s \
         (no-recovery: inf, {} requests abandoned)",
        f.requests_recovered,
        f.requests_recovered + f.requests_failed,
        p99_clean,
        p99_recovery,
        ablation.routing.fault.requests_failed,
    );
}
