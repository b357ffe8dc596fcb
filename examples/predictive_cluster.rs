//! Predictive control plane, end to end: reactive vs predictive elastic
//! clusters on an identical trace.
//!
//! **Elastic burst with drain-back** (2→4 fleet): the autoscaler grows
//! through a 20× burst and drains back afterwards. The full control plane
//! additionally scales up on TTFT-violation estimates and forecast
//! arrivals before queues back up.
//!
//! Run with `cargo run --release --example predictive_cluster`. The
//! directional claims are asserted, so CI fails if prediction stops
//! paying for itself.

use chameleon_repro::core::{preset, sim::Simulation, workloads, PredictiveSpec, RunReport};
use chameleon_repro::simcore::{SimDuration, SimTime};

const SEED: u64 = 7;

fn show(name: &str, r: &RunReport) {
    let p = &r.routing.predictive;
    println!(
        "  {name:<22} cold-misses={:<4} hit-rate={:>5.1}% spills={:<4} p99-ttft={:.3}s \
         slo-scaleups={} forecast-scaleups={}",
        r.cache_stats.misses,
        r.hit_rate() * 100.0,
        r.routing.spills,
        r.p99_ttft(),
        p.slo_scaleups,
        p.forecast_scaleups,
    );
}

fn main() {
    println!("== Elastic 20x burst: 2..4 fleet with drain-back ==");
    let elastic = |predictive: Option<PredictiveSpec>| {
        let mut cfg = preset::chameleon_cluster_elastic();
        let auto = cfg.autoscale.as_mut().expect("elastic preset");
        auto.controller.interval = SimDuration::from_secs(1);
        auto.controller.cooldown = SimDuration::from_secs(3);
        auto.controller.scale_up_mean_queue = 4.0;
        auto.controller.scale_down_mean_queue = 0.5;
        cfg.predictive = predictive;
        cfg
    };
    let mut sim = Simulation::new(elastic(None), SEED);
    let burst = workloads::splitwise_bursty(4.0, 60.0, 10.0, 10.0, 20.0, SEED, sim.pool());
    let reactive = sim.run(&burst);
    let full = Simulation::new(elastic(Some(PredictiveSpec::new())), SEED).run(&burst);
    show("reactive", &reactive);
    show("full control plane", &full);
    assert!(
        full.cache_stats.misses < reactive.cache_stats.misses,
        "the full control plane should cut cold misses"
    );
    assert!(
        full.p99_ttft() <= reactive.p99_ttft(),
        "predictive scale-up should not worsen P99 TTFT ({:.3}s vs {:.3}s)",
        full.p99_ttft(),
        reactive.p99_ttft()
    );
    let horizon = burst
        .requests()
        .last()
        .map(|r| r.arrival())
        .unwrap_or(SimTime::ZERO);
    println!(
        "\n  {} requests over {:.0}s: prediction cut cold misses {} -> {}, P99 {:.3}s -> {:.3}s",
        burst.len(),
        horizon.as_secs_f64(),
        reactive.cache_stats.misses,
        full.cache_stats.misses,
        reactive.p99_ttft(),
        full.p99_ttft(),
    );
}
