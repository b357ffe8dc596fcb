//! The traced run: the same system `Simulation::run` builds, assembled
//! here from public parts with the timing wrappers slotted in.
//!
//! [`traced_run`] mirrors `Simulation::build_engine` and `run_inner`: the
//! SLO and WRS derivation, the scheduler and predictor choice, the
//! single-engine driver loop (`driver::run_engine_counted`, copied so
//! spans can sit around its queue operations and `Engine::handle`), the
//! cluster path through `Cluster::with_router` with barrier profiling
//! on, and the report assembly. Its `canonical_text` must equal the plain
//! run's; the benchmark checks that on every traced run, which proves the
//! wrappers inert and the mirror faithful.

use crate::spans::{self, Kind, Recording};
use crate::wrap::{self, Counters, TimedPredictor, TimedRouter, TimedScheduler};
use chameleon_cache::AdapterCache;
use chameleon_core::{isolated, BarrierProfile, CachePolicy, RunReport, SchedPolicy, Simulation};
use chameleon_core::{EngineSpec, SystemConfig};
use chameleon_engine::{Cluster, Engine, EngineConfig, EngineEvent};
use chameleon_predictor::{
    NoisyBucketPredictor, OraclePredictor, OutputLenPredictor, WorstCasePredictor,
};
use chameleon_sched::{
    ChameleonConfig, ChameleonScheduler, FifoScheduler, Scheduler, SjfScheduler,
    StaticMlqScheduler, WrsConfig,
};
use chameleon_simcore::{EventQueue, SimDuration, SimRng, SimTime};
use chameleon_workload::{Request, Trace};

/// What one traced run produced.
pub struct TracedRun {
    /// The run's report, identical to the plain run's.
    pub report: RunReport,
    /// Every span of the run, aggregated, plus the first raw spans.
    pub recording: Recording,
    /// The wrappers' work counters.
    pub counters: Counters,
    /// The cluster's barrier profile (fleet runs only).
    pub profile: Option<BarrierProfile>,
}

/// Runs `trace` through `sim`'s system with every layer boundary timed.
/// `seed` must be the seed `sim` was created with.
///
/// # Panics
///
/// Panics for systems the mirror does not cover: decision tracing, an
/// autoscaled fleet, or a fleet with a topology, predictive or fault plane.
pub fn traced_run(sim: &Simulation, seed: u64, trace: &Trace) -> TracedRun {
    let cfg = sim.config();
    assert!(
        cfg.trace.is_none(),
        "the traced assembly runs untraced systems"
    );
    assert!(
        cfg.autoscale.is_none()
            && cfg.topology().is_none()
            && cfg.predictive.is_none()
            && cfg.fault.is_none(),
        "the traced assembly covers fixed fleets without topology, predictive or fault planes"
    );
    wrap::take_counters();
    spans::start();
    let (report, profile) = {
        let _run = spans::open(Kind::Run);
        let (slo, wrs, max_output) = {
            let _b = spans::open(Kind::Build);
            let wrs = wrs_config(sim, trace);
            (sim.slo_for(trace), wrs, trace.summary().max_output)
        };
        let build = |idx: usize| build_engine(sim, seed, slo, wrs, idx, max_output);
        if cfg.is_cluster() {
            run_cluster(sim, seed, trace, slo, wrs, &build)
        } else {
            let mut engine = {
                let _b = spans::open(Kind::Build);
                build(0)
            };
            let (last, events) = drive(&mut engine, trace);
            let _r = spans::open(Kind::Report);
            let report = finish_report(sim, trace, engine.into_report(), slo, wrs, last, events);
            (report, None)
        }
    };
    TracedRun {
        report,
        recording: spans::finish(),
        counters: wrap::take_counters(),
        profile,
    }
}

fn run_cluster(
    sim: &Simulation,
    seed: u64,
    trace: &Trace,
    slo: SimDuration,
    wrs: WrsConfig,
    build: &dyn Fn(usize) -> Engine,
) -> (RunReport, Option<BarrierProfile>) {
    let cfg = sim.config();
    let mut cluster = {
        let _b = spans::open(Kind::Build);
        let router = Box::new(TimedRouter(cfg.router.build(seed)));
        let mut cluster = Cluster::with_router(cfg.engine_count(), build, router);
        if let Some(spec) = &cfg.dispatch {
            cluster.set_dispatch(*spec);
        }
        cluster.enable_barrier_profiling();
        cluster
    };
    let last = {
        let _c = spans::open(Kind::ClusterRun);
        cluster.run_with(trace, cfg.cluster_exec)
    };
    let _r = spans::open(Kind::Report);
    let events = cluster.events_processed();
    let (engine_report, _, profile) = cluster.into_report_with_trace();
    let mut report = finish_report(sim, trace, engine_report, slo, wrs, last, events);
    report.barrier_profile = profile;
    (report, profile)
}

/// The WRS normalisation for `trace` (mirrors `Simulation::wrs_config`).
fn wrs_config(sim: &Simulation, trace: &Trace) -> WrsConfig {
    let s = trace.summary();
    let max_in = f64::from(s.max_input.max(1));
    let max_out = f64::from(s.max_output.max(1));
    let max_bytes = sim.pool().max_adapter_bytes().max(1) as f64;
    let wrs = WrsConfig::paper(max_in, max_out, max_bytes);
    match sim.config().sched {
        SchedPolicy::ChameleonMlq {
            output_only: true, ..
        } => wrs.output_only(),
        SchedPolicy::ChameleonLinearWrs => wrs.linear(),
        _ => wrs,
    }
}

/// Mirrors `Simulation::build_scheduler` (no `K_max` override).
fn build_scheduler(cfg: &SystemConfig, slo: SimDuration, wrs: WrsConfig) -> Box<dyn Scheduler> {
    match &cfg.sched {
        SchedPolicy::Fifo => Box::new(FifoScheduler::new()),
        SchedPolicy::Sjf {
            aging_tokens_per_sec,
        } => Box::new(SjfScheduler::with_aging(*aging_tokens_per_sec)),
        SchedPolicy::ChameleonMlq {
            dynamic, bypass, ..
        } => {
            let c = ChameleonConfig {
                dynamic: *dynamic,
                enable_bypass: *bypass,
                ..ChameleonConfig::paper(slo)
            };
            Box::new(ChameleonScheduler::new(c, wrs))
        }
        SchedPolicy::ChameleonLinearWrs => {
            Box::new(ChameleonScheduler::new(ChameleonConfig::paper(slo), wrs))
        }
        SchedPolicy::StaticMlq => Box::new(StaticMlqScheduler::new(slo, wrs, 0.0, 1.0)),
    }
}

/// Mirrors `Simulation::build_predictor`.
fn build_predictor(
    cfg: &SystemConfig,
    seed: u64,
    idx: usize,
    max_output: u32,
) -> Box<dyn OutputLenPredictor> {
    if cfg.worst_case_predictor {
        return Box::new(WorstCasePredictor::new(max_output.max(1)));
    }
    if cfg.predictor_accuracy >= 1.0 {
        Box::new(OraclePredictor::new())
    } else {
        let mut rng = SimRng::seed(seed ^ 0x9e37_79b9_7f4a_7c15);
        let rng = rng.fork(&format!("predictor-{idx}"));
        Box::new(NoisyBucketPredictor::new(cfg.predictor_accuracy, rng))
    }
}

/// Mirrors `Simulation::build_engine`, wrapping the scheduler and the
/// predictor.
fn build_engine(
    sim: &Simulation,
    seed: u64,
    slo: SimDuration,
    wrs: WrsConfig,
    idx: usize,
    max_output: u32,
) -> Engine {
    let cfg = sim.config();
    let spec: EngineSpec = cfg.engine_spec(idx);
    let gpu = spec.gpu.clone().unwrap_or_else(|| cfg.gpu.clone());
    let mut ecfg = EngineConfig::new(cfg.llm.clone(), gpu).with_tp(spec.tp_degree);
    ecfg.max_batch_requests = cfg.max_batch_requests;
    ecfg.chunked_prefill = cfg.chunked_prefill;
    ecfg.prefetch_queued = cfg.prefetch_queued;
    ecfg.predictive_prefetch = cfg.predictive_prefetch;
    ecfg.kv = cfg.kv;
    ecfg.block_on_load = matches!(cfg.cache, CachePolicy::Discard);
    let cache = match cfg.cache.to_eviction() {
        Some(policy) => AdapterCache::new(policy),
        None => AdapterCache::discard_mode(),
    };
    Engine::new(
        ecfg,
        sim.pool().clone(),
        Box::new(TimedScheduler(build_scheduler(cfg, slo, wrs))),
        Box::new(TimedPredictor(build_predictor(cfg, seed, idx, max_output))),
        cache,
        wrs,
    )
}

/// The benchmark's copy of `driver::run_engine_counted`, with spans
/// around the event-queue operations and every `Engine::handle`.
fn drive(engine: &mut Engine, trace: &Trace) -> (SimTime, u64) {
    let _loop = spans::open(Kind::Driver);
    let mem_int = engine.config().mem_sample_interval;
    let refresh_int = engine.config().refresh_interval;
    let mut q: EventQueue<EngineEvent> = {
        let _q = spans::open(Kind::Queue);
        let mut q = EventQueue::with_capacity(trace.len() + 16);
        for r in trace {
            q.push(r.arrival(), EngineEvent::Arrival(*r));
        }
        q.push(SimTime::ZERO + mem_int, EngineEvent::MemSample);
        q.push(SimTime::ZERO + refresh_int, EngineEvent::Refresh);
        q
    };
    let mut arrivals_left = trace.len();
    let mut out = Vec::new();
    let mut last = SimTime::ZERO;
    loop {
        let popped = {
            let _q = spans::open(Kind::Queue);
            q.pop()
        };
        let Some((t, ev)) = popped else {
            break;
        };
        last = t;
        let periodic = matches!(ev, EngineEvent::MemSample | EngineEvent::Refresh);
        let request = match &ev {
            EngineEvent::Arrival(r) => {
                arrivals_left -= 1;
                Some(r.id().0)
            }
            _ => None,
        };
        let reschedule = match &ev {
            EngineEvent::MemSample => Some((t + mem_int, EngineEvent::MemSample)),
            EngineEvent::Refresh => Some((t + refresh_int, EngineEvent::Refresh)),
            _ => None,
        };
        {
            let _h = spans::open_for(Kind::Handle, request);
            engine.handle(t, ev, &mut out);
        }
        if !out.is_empty() {
            let _q = spans::open(Kind::Queue);
            for (at, e) in out.drain(..) {
                q.push(at, e);
            }
        }
        if periodic && (arrivals_left > 0 || engine.has_work()) {
            let (at, e) = reschedule.expect("periodic events always reschedule");
            let _q = spans::open(Kind::Queue);
            q.push(at, e);
        }
    }
    (last, q.processed())
}

/// Mirrors the report half of `Simulation::run_inner`.
fn finish_report(
    sim: &Simulation,
    trace: &Trace,
    engine_report: chameleon_engine::EngineReport,
    slo: SimDuration,
    wrs: WrsConfig,
    horizon: SimTime,
    events: u64,
) -> RunReport {
    let cfg = sim.config();
    let isolated_e2e = engine_report
        .records
        .iter()
        .map(|r| {
            let req = Request::new(
                r.id,
                r.arrival,
                r.input_tokens,
                r.output_tokens,
                r.adapter,
                r.rank,
            );
            (r.id, isolated::isolated(sim.cost_model(), &req, true).e2e)
        })
        .collect();
    RunReport::new(
        cfg.label.clone(),
        cfg.llm.clone(),
        engine_report,
        slo,
        horizon,
        isolated_e2e,
        wrs,
        trace.summary().mean_rps,
        events,
    )
}
