//! The timing wrappers and the traced assembly must not change what is
//! simulated: for every routing policy and for the Chameleon, FIFO and
//! static-MLQ schedulers, a traced run's `canonical_text` equals the plain
//! `Simulation::run`'s byte for byte.

use chameleon_core::{preset, workloads, DispatchSpec, RouterPolicy, Simulation, SystemConfig};
use perfbench::assemble::traced_run;
use perfbench::spans::Kind;
use perfbench::wrap::TimedRouter;

const SEED: u64 = 11;

fn assert_inert(cfg: SystemConfig) -> perfbench::assemble::TracedRun {
    let label = cfg.label.clone();
    let mut sim = Simulation::new(cfg, SEED);
    let trace = workloads::splitwise(9.0, 40.0, SEED, sim.pool());
    let plain = sim.run(&trace).canonical_text();
    let traced = traced_run(&sim, SEED, &trace);
    assert!(
        traced.report.canonical_text() == plain,
        "{label}: the traced run simulated something else"
    );
    let run = traced.recording.agg(Kind::Run);
    assert_eq!(run.calls, 1, "{label}: one root span");
    traced
}

#[test]
fn every_router_policy_is_inert() {
    // Batched dispatch sizes its batches from `Router::staleness`, so a
    // wrapper that dropped that default would show up there.
    for policy in RouterPolicy::ALL {
        for batched in [false, true] {
            let mut cfg = preset::chameleon()
                .with_data_parallel(3)
                .with_router(policy)
                .with_label(format!("dp3-{}-batched-{batched}", policy.name()));
            if batched {
                cfg = cfg.with_dispatch(DispatchSpec::new());
            }
            let traced = assert_inert(cfg);
            let route = traced.recording.agg(Kind::Route);
            assert!(route.calls > 0, "{}: routes were timed", policy.name());
            assert!(traced.profile.is_some_and(|p| p.epochs > 0));
        }
    }
}

#[test]
fn router_wrapper_forwards_default_methods() {
    for policy in RouterPolicy::ALL {
        let inner = policy.build(SEED);
        let wrapped = TimedRouter(policy.build(SEED));
        use chameleon_router::Router;
        assert_eq!(wrapped.staleness(), inner.staleness(), "{}", policy.name());
        assert_eq!(wrapped.needs_residency(), inner.needs_residency());
        assert_eq!(wrapped.uses_affinity(), inner.uses_affinity());
        assert_eq!(wrapped.name(), inner.name());
    }
}

#[test]
fn single_engine_schedulers_are_inert() {
    for cfg in [
        preset::chameleon(),
        preset::chameleon_no_sched(),
        preset::static_mlq(),
        preset::slora(),
        preset::chameleon_kv_guarded(),
    ] {
        let traced = assert_inert(cfg);
        let rec = &traced.recording;
        assert!(rec.agg(Kind::SchedFormBatch).calls > 0);
        assert!(rec.agg(Kind::Handle).calls > 0);
        assert!(rec.agg(Kind::Predict).calls > 0);
        assert_eq!(rec.agg(Kind::Route).calls, 0);
        // Self times partition the root span.
        let run = rec.agg(Kind::Run);
        let children = rec.agg(Kind::Build).total_ns
            + rec.agg(Kind::Driver).total_ns
            + rec.agg(Kind::Report).total_ns;
        assert_eq!(run.child_ns, children);
    }
}
