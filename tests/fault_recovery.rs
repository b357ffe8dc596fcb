//! Behavioural oracle for failure recovery: failover efficacy, request
//! conservation, load shedding, stragglers, flaky links, and the
//! flight-recorder predicates that watch the recovery path.
//!
//! The headline claims of the fault plane, each pinned here:
//!
//! * a crash loses **nothing** — every request queued or running on the
//!   dead engine is re-dispatched through the router (or deliberately
//!   counted failed past the retry budget), with zero duplicates;
//! * recovery + shedding strictly beats a no-recovery ablation on P99
//!   TTFT over *all offered* requests (unserved = infinite TTFT) on the
//!   identical trace;
//! * a crash landing while engines are mid-step never strands the
//!   redirected queue — the run drains to completion (the PR 4
//!   phantom-busy bug class).

use chameleon_repro::core::{
    preset, report::RunReport, sim::Simulation, workloads, FaultSpec, SystemConfig, TraceSpec,
};
use chameleon_repro::simcore::{SimDuration, SimTime};
use chameleon_repro::trace::TraceEvent;
use chameleon_repro::workload::Trace;

fn run_faulted(cfg: SystemConfig, seed: u64, rps: f64, secs: f64) -> (RunReport, usize) {
    let mut sim = Simulation::new(cfg, seed);
    let trace = workloads::splitwise(rps, secs, seed, sim.pool());
    let n = trace.len();
    (sim.run(&trace), n)
}

/// The failover efficacy oracle: on the faulted preset's mid-trace crash,
/// 100% of the dead engine's queued + in-flight requests are accounted
/// for (recovered or deliberately failed), nothing is lost or duplicated,
/// and with the default retry budget everything actually completes.
#[test]
fn crash_redispatches_the_entire_victim_queue() {
    let cfg = preset::chameleon_cluster_faulted(4).with_trace(TraceSpec::new());
    let (report, offered) = run_faulted(cfg, 7, 12.0, 25.0);
    let f = &report.routing.fault;
    assert_eq!(f.engines_failed, 1, "the scheduled crash must land");
    assert!(
        f.requests_recovered > 0,
        "crash hit an idle engine — scenario too light"
    );

    // The EngineFailed trace event records exactly what died with the
    // engine; recovery must account for every one of those requests.
    let log = report.trace.as_ref().expect("traced run");
    let (queued, running) = log
        .events()
        .iter()
        .find_map(|e| match e.event {
            TraceEvent::EngineFailed {
                queued, running, ..
            } => Some((queued, running)),
            _ => None,
        })
        .expect("crash emits an EngineFailed event");
    assert_eq!(
        u64::from(queued) + u64::from(running),
        f.requests_recovered + f.requests_failed,
        "victim requests leaked: not every one was re-dispatched or counted failed"
    );
    assert_eq!(
        f.requests_failed, 0,
        "default budget should recover everything"
    );
    assert!(
        f.retries >= f.requests_recovered,
        "each recovery is at least one retry"
    );

    report.assert_request_conservation(offered);
    assert_eq!(
        report.completed() as u64 + f.requests_shed,
        offered as u64,
        "recovered requests must finish, not linger incomplete"
    );
    // The crash re-homed the dead engine's adapter shard onto survivors.
    assert!(report.routing.adapters_rehomed > 0);
    assert!(report.availability(offered) > 0.9);
}

/// Recovery + shedding strictly beats the no-recovery ablation (retry
/// budget zero, shedding off) on P99 TTFT over all offered requests, on
/// the identical trace. The ablation abandons the victim queue, so its
/// P99 over offered requests is infinite; recovery keeps it finite.
#[test]
fn recovery_beats_no_recovery_ablation_on_p99() {
    let seed = 7;
    let recovery_cfg = preset::chameleon_cluster_faulted(4);
    let ablation_cfg = preset::chameleon_cluster_partitioned(4)
        .with_fault(
            FaultSpec::new()
                .with_crash(1, SimTime::from_secs_f64(10.0))
                .with_retry_policy(SimDuration::from_millis(50), SimDuration::from_secs(2), 0),
        )
        .with_label("Chameleon-DP4-NoRecovery");

    let pool = Simulation::new(recovery_cfg.clone(), seed).pool().clone();
    // Light enough that the post-crash fleet absorbs the re-dispatch
    // without shedding: recovery serves 100%, so its all-offered P99 is
    // finite while the ablation's (5% of requests abandoned) is not.
    let trace = workloads::splitwise(8.0, 25.0, seed, &pool);
    let offered = trace.len();

    let recovery = Simulation::new(recovery_cfg, seed).run(&trace);
    let ablation = Simulation::new(ablation_cfg, seed).run(&trace);
    recovery.assert_request_conservation(offered);
    ablation.assert_request_conservation(offered);

    assert!(
        ablation.routing.fault.requests_failed > 0,
        "ablation must actually drop the victim queue for the comparison to bite"
    );
    let p99_recovery = recovery.p99_ttft_offered(offered);
    let p99_ablation = ablation.p99_ttft_offered(offered);
    assert!(
        p99_recovery.is_finite(),
        "recovery left unserved requests in the P99 tail"
    );
    assert!(
        p99_recovery < p99_ablation,
        "recovery ({p99_recovery:.3}s) must strictly beat no-recovery ({p99_ablation:.3}s)"
    );
}

/// SLO-aware shedding: when the whole fleet's estimated TTFT blows past
/// the shed threshold, admission refuses requests instead of queueing
/// them into a hopeless backlog — and every shed is still conserved.
#[test]
fn overload_sheds_at_admission_and_conserves() {
    let seed = 13;
    let cfg = preset::chameleon_cluster_partitioned(2)
        .with_fault(FaultSpec::new().with_shedding(1.0))
        .with_trace(TraceSpec::new());
    let mut sim = Simulation::new(cfg, seed);
    // A sustained 12x burst two engines cannot absorb.
    let trace = workloads::splitwise_bursty(6.0, 30.0, 5.0, 15.0, 12.0, seed, sim.pool());
    let offered = trace.len();
    let report = sim.run(&trace);
    let f = &report.routing.fault;
    assert!(f.requests_shed > 0, "burst never tripped the shed gate");
    assert!(f.engines_failed == 0 && f.requests_failed == 0);
    report.assert_request_conservation(offered);
    let log = report.trace.as_ref().expect("traced run");
    let sheds = log
        .events()
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::RequestShed { .. }))
        .count() as u64;
    assert_eq!(sheds, f.requests_shed, "every shed is traced");
    assert!(report.availability(offered) < 1.0);
}

/// A straggler window slows its engine (and therefore the tail) without
/// losing or duplicating anything; outside the window behaviour recovers.
#[test]
fn straggler_degrades_the_tail_but_loses_nothing() {
    let seed = 5;
    let clean_cfg = preset::chameleon_cluster_partitioned(3);
    let slow_cfg = clean_cfg
        .clone()
        .with_fault(FaultSpec::new().with_straggler(
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
        "straggler lost requests"
    );
    assert!(
        slow.p99_ttft() > clean.p99_ttft(),
        "an 8x straggler window must show up in the tail ({} vs {})",
        slow.p99_ttft(),
        clean.p99_ttft()
    );
}

/// A flaky host link retries failed adapter transfers transparently:
/// latency pressure, never lost work.
#[test]
fn flaky_pcie_retries_transparently() {
    let seed = 9;
    let cfg = preset::chameleon_cluster_partitioned(2)
        .with_fault(FaultSpec::new().with_pcie_fail_prob(0.2));
    let (report, offered) = run_faulted(cfg, seed, 12.0, 15.0);
    assert!(
        report.routing.fault.pcie_retries > 0,
        "a 20% flaky link must actually fail some transfers"
    );
    report.assert_request_conservation(offered);
    assert_eq!(report.completed(), offered);
}

/// Regression pin for the PR 4 phantom-busy bug class: a crash landing
/// while every engine is deep in a busy step must re-dispatch the victim
/// queue onto engines whose in-flight work the coordinator hasn't
/// harvested yet — and the run must still drain to completion with every
/// survivor served exactly once. Saturating arrival pressure plus a
/// crash in the thick of it maximises the chance of a stranded queue.
#[test]
fn crash_during_busy_step_never_strands_the_redirected_queue() {
    for seed in [1u64, 4, 8] {
        let cfg = preset::chameleon_cluster_partitioned(3).with_fault(
            FaultSpec::new()
                .with_crash(2, SimTime::from_secs_f64(7.5))
                .with_detect_timeout(SimDuration::from_millis(10)),
        );
        let mut sim = Simulation::new(cfg, seed);
        let trace = workloads::splitwise_bursty(10.0, 20.0, 5.0, 8.0, 6.0, seed, sim.pool());
        let offered = trace.len();
        let report = sim.run(&trace);
        let f = &report.routing.fault;
        assert_eq!(f.engines_failed, 1, "seed {seed}: crash missed");
        assert!(
            f.requests_recovered > 0,
            "seed {seed}: crash hit an idle engine"
        );
        report.assert_request_conservation(offered);
        assert_eq!(
            report.completed(),
            offered,
            "seed {seed}: redirected queue stranded — {} of {} completed",
            report.completed(),
            offered
        );
    }
}

/// The retry-storm flight-recorder predicate fires on the crash's
/// re-dispatch burst and hands back a dump ending in a retry event.
#[test]
fn retry_storm_predicate_catches_the_failover_burst() {
    let cfg = preset::chameleon_cluster_faulted(4)
        .with_trace(TraceSpec::new().with_retry_storm_trigger(3, SimDuration::from_secs(5)));
    let (report, _) = run_faulted(cfg, 7, 24.0, 25.0);
    assert!(
        report.routing.fault.retries >= 3,
        "not enough retries to storm"
    );
    assert!(report.flight_firings > 0, "storm predicate never fired");
    let dump = report
        .flight_dumps
        .iter()
        .find(|d| d.predicate == "retry-storm")
        .expect("retry-storm dump captured");
    assert!(matches!(
        dump.events.last().expect("non-empty ring").event,
        TraceEvent::RequestRetried { .. }
    ));

    // The same scenario without faults gives the predicate nothing.
    let clean = preset::chameleon_cluster_partitioned(4)
        .with_trace(TraceSpec::new().with_retry_storm_trigger(3, SimDuration::from_secs(5)));
    let (report, _) = run_faulted(clean, 7, 24.0, 25.0);
    assert_eq!(report.flight_firings, 0);
}

/// Fault injection composes with tracing without perturbing behaviour:
/// the traced faulted run is byte-identical to the untraced one.
#[test]
fn tracing_does_not_change_faulted_results() {
    let run = |traced: bool| {
        let mut cfg = preset::chameleon_cluster_faulted(3);
        if traced {
            cfg = cfg.with_trace(TraceSpec::new());
        }
        let mut sim = Simulation::new(cfg, 6);
        let trace = workloads::splitwise(18.0, 18.0, 6, sim.pool());
        sim.run(&trace).canonical_text()
    };
    assert_eq!(run(false), run(true));
}

/// Sanity: an empty trace through a faulted cluster neither panics nor
/// fabricates work.
#[test]
fn faulted_cluster_survives_an_empty_trace() {
    let mut sim = Simulation::new(preset::chameleon_cluster_faulted(2), 1);
    let report = sim.run(&Trace::new(Vec::new()));
    report.assert_request_conservation(0);
    assert_eq!(
        report.routing.fault.engines_failed, 1,
        "scheduled crash still fires"
    );
}
