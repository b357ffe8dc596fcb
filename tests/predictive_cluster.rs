//! End-to-end efficacy of the predictive control plane.
//!
//! The opt-in oracle suite (`predictive_oracle.rs`) proves the control
//! plane changes *nothing* when disabled; this suite proves it changes
//! the *right things* when enabled: the SLO/forecast autoscaler signals
//! grow the fleet before queues (and P99 TTFT) blow out.
//! Assertions are directional (counts, not floats): the scenarios are
//! deterministic, but the claims should survive retuning.

use chameleon_repro::core::{
    preset, sim::Simulation, workloads, PredictiveSpec, RunReport, SystemConfig,
};
use chameleon_repro::simcore::SimDuration;
use chameleon_repro::workload::Trace;

const SEED: u64 = 7;

fn run(cfg: SystemConfig, trace: &Trace) -> RunReport {
    Simulation::new(cfg, SEED).run(trace)
}

/// The tightened elastic scenario of the determinism suite: a 20× burst
/// grows the 2-engine fleet and drains it back while backlog clears.
fn elastic_cfg(predictive: Option<PredictiveSpec>) -> SystemConfig {
    let mut cfg = preset::chameleon_cluster_elastic();
    let auto = cfg.autoscale.as_mut().expect("elastic preset");
    auto.controller.interval = SimDuration::from_secs(1);
    auto.controller.cooldown = SimDuration::from_secs(3);
    auto.controller.scale_up_mean_queue = 4.0;
    auto.controller.scale_down_mean_queue = 0.5;
    cfg.predictive = predictive;
    cfg
}

/// The full control plane on the elastic burst: fewer cold misses than
/// reactive, the SLO estimate firing scale-ups before queue depth trips,
/// and no P99 TTFT regression.
#[test]
fn full_control_plane_beats_reactive_on_elastic_burst() {
    let mut sim = Simulation::new(elastic_cfg(None), SEED);
    let trace = workloads::splitwise_bursty(4.0, 60.0, 10.0, 10.0, 20.0, SEED, sim.pool());
    let reactive = sim.run(&trace);
    let full = run(elastic_cfg(Some(PredictiveSpec::new())), &trace);

    assert_eq!(full.completed(), trace.len());
    let p = &full.routing.predictive;
    assert!(
        p.slo_scaleups + p.forecast_scaleups > 0,
        "no predictive signal ever fired a scale-up: {p:?}"
    );
    assert!(
        full.cache_stats.misses < reactive.cache_stats.misses,
        "full control plane must cut cold misses: {} vs {}",
        full.cache_stats.misses,
        reactive.cache_stats.misses
    );
    assert!(
        full.p99_ttft() <= reactive.p99_ttft(),
        "predictive scale-up must not worsen P99 TTFT: {:.3}s vs {:.3}s",
        full.p99_ttft(),
        reactive.p99_ttft()
    );
}

/// Predictive runs are as deterministic as reactive ones: identical
/// canonical text across repeat runs, including every control-plane
/// counter.
#[test]
fn predictive_runs_are_deterministic() {
    let text = |_: usize| {
        let cfg = elastic_cfg(Some(PredictiveSpec::new()));
        let mut sim = Simulation::new(cfg, SEED);
        let trace = workloads::splitwise_bursty(4.0, 60.0, 10.0, 10.0, 20.0, SEED, sim.pool());
        let report = sim.run(&trace);
        report.assert_request_conservation(trace.len());
        report.canonical_text()
    };
    assert_eq!(
        text(0),
        text(1),
        "predictive elastic run is not deterministic"
    );
}
