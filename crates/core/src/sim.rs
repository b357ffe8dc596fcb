//! The simulation runner: configured system × trace → report.

use crate::isolated;
use crate::report::RunReport;
use crate::system::{SchedPolicy, SystemConfig};
use chameleon_cache::AdapterCache;
use chameleon_engine::{run_alone, Autoscaler, Cluster, Engine, EngineConfig};
use chameleon_gpu::CostModel;
use chameleon_models::AdapterPool;
use chameleon_predictor::{NoisyBucketPredictor, OraclePredictor, OutputLenPredictor};
use chameleon_sched::{
    ChameleonConfig, ChameleonScheduler, FifoScheduler, Scheduler, SjfScheduler,
    StaticMlqScheduler, WrsConfig,
};
use chameleon_simcore::{SimDuration, SimRng};
use chameleon_trace::{
    AnomalyPredicate, FlightRecorder, Lane, RetryStormPredicate, ShedIdlePredicate, TraceBuffer,
    TtftSloPredicate, FLIGHT_CAPACITY, MAX_DUMPS,
};
use chameleon_workload::trace::TraceSummary;
use chameleon_workload::Trace;

/// Runs traces through one configured serving system.
///
/// See the crate docs for a quickstart. The adapter pool is generated once
/// per simulation (from the config and seed) so that different policies
/// compared under the same seed see the same adapters.
pub struct Simulation {
    cfg: SystemConfig,
    seed: u64,
    pool: AdapterPool,
    cost: CostModel,
}

impl Simulation {
    /// Creates a simulation of `cfg` with a deterministic `seed`.
    pub fn new(cfg: SystemConfig, seed: u64) -> Self {
        let pool = AdapterPool::generate(&cfg.llm, &cfg.pool_config());
        let cost = CostModel::new(cfg.llm.clone(), cfg.gpu.clone(), cfg.tp_degree);
        Simulation {
            pool,
            cost,
            cfg,
            seed,
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The adapter pool requests draw from.
    pub fn pool(&self) -> &AdapterPool {
        &self.pool
    }

    /// The cost model of the configured engine (isolated-latency oracle).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The WRS normalisation for a trace with summary `s`.
    fn wrs_config(&self, s: &TraceSummary) -> WrsConfig {
        let max_in = f64::from(s.max_input.max(1));
        let max_out = f64::from(s.max_output.max(1));
        let cfg = WrsConfig::paper(max_in, max_out, self.pool.max_adapter_bytes().max(1) as f64);
        match self.cfg.sched {
            SchedPolicy::ChameleonMlq {
                output_only: true, ..
            } => cfg.output_only(),
            SchedPolicy::ChameleonLinearWrs => cfg.linear(),
            _ => cfg,
        }
    }

    /// The TTFT SLO in effect for `trace`: 5× the mean isolated E2E
    /// (§5.1).
    pub fn slo_for(&self, trace: &Trace) -> SimDuration {
        isolated::derive_slo(&self.cost, trace)
    }

    fn build_scheduler(
        &self,
        slo: SimDuration,
        wrs: WrsConfig,
        k_max: Option<usize>,
    ) -> Box<dyn Scheduler> {
        let apply_k = |mut cfg: ChameleonConfig| {
            if let Some(k) = k_max {
                cfg.k_max = k;
            }
            cfg
        };
        match &self.cfg.sched {
            SchedPolicy::Fifo => Box::new(FifoScheduler::new()),
            SchedPolicy::Sjf {
                aging_tokens_per_sec,
            } => Box::new(SjfScheduler::with_aging(*aging_tokens_per_sec)),
            SchedPolicy::ChameleonMlq {
                dynamic, bypass, ..
            } => {
                let cfg = apply_k(ChameleonConfig {
                    dynamic: *dynamic,
                    enable_bypass: *bypass,
                    ..ChameleonConfig::paper(slo)
                });
                Box::new(ChameleonScheduler::new(cfg, wrs))
            }
            SchedPolicy::ChameleonLinearWrs => {
                let cfg = apply_k(ChameleonConfig::paper(slo));
                Box::new(ChameleonScheduler::new(cfg, wrs))
            }
            SchedPolicy::StaticMlq => Box::new(StaticMlqScheduler::new(slo, wrs, 0.0, 1.0)),
        }
    }

    fn build_predictor(&self, engine_idx: usize, max_output: u32) -> Box<dyn OutputLenPredictor> {
        if self.cfg.worst_case_predictor {
            return Box::new(chameleon_predictor::WorstCasePredictor::new(
                max_output.max(1),
            ));
        }
        if self.cfg.predictor_accuracy >= 1.0 {
            Box::new(OraclePredictor::new())
        } else {
            let mut rng = SimRng::seed(self.seed ^ 0x9e37_79b9_7f4a_7c15);
            let rng = rng.fork(&format!("predictor-{engine_idx}"));
            Box::new(NoisyBucketPredictor::new(self.cfg.predictor_accuracy, rng))
        }
    }

    fn build_engine(
        &self,
        slo: SimDuration,
        wrs: WrsConfig,
        idx: usize,
        max_output: u32,
        k_max: Option<usize>,
        spec: &crate::system::EngineSpec,
    ) -> Engine {
        let gpu = spec.gpu.clone().unwrap_or_else(|| self.cfg.gpu.clone());
        let mut ecfg = EngineConfig::new(self.cfg.llm.clone(), gpu).with_tp(spec.tp_degree);
        ecfg.max_batch_requests = self.cfg.max_batch_requests;
        ecfg.chunked_prefill = self.cfg.chunked_prefill;
        ecfg.prefetch_queued = self.cfg.prefetch_queued;
        ecfg.predictive_prefetch = self.cfg.predictive_prefetch;
        // The KV-economy axis applies per engine, so single-engine and
        // cluster paths both honour it through this shared constructor.
        ecfg.kv = self.cfg.kv;
        // Systems without the Chameleon cache follow S-LoRA's synchronous
        // load-before-batch semantics (§2); the cache manager is async.
        ecfg.block_on_load = matches!(self.cfg.cache, crate::system::CachePolicy::Discard);
        let cache = match self.cfg.cache.to_eviction() {
            Some(policy) => AdapterCache::new(policy),
            None => AdapterCache::discard_mode(),
        };
        Engine::new(
            ecfg,
            self.pool.clone(),
            self.build_scheduler(slo, wrs, k_max),
            self.build_predictor(idx, max_output),
            cache,
            wrs,
        )
    }

    /// Runs `trace` to completion and reports.
    pub fn run(&mut self, trace: &Trace) -> RunReport {
        self.run_inner(trace, None)
    }

    /// Runs `trace` with the Chameleon scheduler's `K_max` overridden —
    /// the §4.3.4 queue-count ablation. Non-Chameleon schedulers ignore it.
    pub fn run_with_k_max(&mut self, trace: &Trace, k_max: usize) -> RunReport {
        self.run_inner(trace, Some(k_max))
    }

    fn run_inner(&mut self, trace: &Trace, k_max: Option<usize>) -> RunReport {
        let slo = self.slo_for(trace);
        let summary = trace.summary();
        let wrs = self.wrs_config(&summary);
        let max_output = summary.max_output;
        let tracing = self.cfg.trace.is_some();
        let (engine_report, horizon, events, trace_log) = if self.cfg.is_cluster() {
            let initial = self.cfg.engine_count();
            let mut cluster = Cluster::with_router(
                initial,
                |i| self.build_engine(slo, wrs, i, max_output, k_max, &self.cfg.engine_spec(i)),
                self.cfg.router.build(self.seed),
            );
            if let Some(topo) = self.cfg.topology() {
                cluster.set_topology(&topo.racks, topo.anti_affinity);
            }
            if let Some(spec) = &self.cfg.predictive {
                cluster.set_predictive(*spec);
            }
            if let Some(spec) = &self.cfg.fault {
                cluster.set_fault(spec.clone(), Some(slo));
            }
            if let Some(spec) = &self.cfg.dispatch {
                cluster.set_dispatch(*spec);
            }
            if tracing {
                cluster.enable_tracing();
            }
            let exec = self.cfg.cluster_exec;
            let last = match &self.cfg.autoscale {
                Some(auto) => {
                    let mut controller = auto.controller.clone();
                    // The predictive SLO signal compares per-engine TTFT
                    // violation estimates against this run's SLO (§5.1,
                    // derived from the isolated oracle).
                    if self.cfg.predictive.is_some_and(|p| p.slo_autoscale)
                        && controller.ttft_slo.is_none()
                    {
                        controller.ttft_slo = Some(slo);
                    }
                    let mut scaler = Autoscaler::new(controller);
                    let mut grow = |id: chameleon_router::EngineId| {
                        let spec = self
                            .cfg
                            .growth_spec((id.0 as usize).saturating_sub(initial));
                        self.build_engine(slo, wrs, id.0 as usize, max_output, k_max, &spec)
                    };
                    cluster.run_elastic_with(trace, &mut scaler, &mut grow, exec)
                }
                None => cluster.run_with(trace, exec),
            };
            let events = cluster.events_processed();
            let (report, log, _) = cluster.into_report_with_trace();
            (report, last, events, log)
        } else {
            let spec = self.cfg.engine_spec(0);
            let mut engine = self.build_engine(slo, wrs, 0, max_output, k_max, &spec);
            if tracing {
                engine.enable_tracing();
            }
            let (mut engine, last, events) = run_alone(engine, trace);
            // A lone engine is lane 0, matching its cluster EngineId.
            let log = tracing.then(|| {
                let mut buf = TraceBuffer::new();
                buf.extend_lane(Lane::Engine(0), engine.take_trace_events());
                buf.finish()
            });
            (engine.into_report(), last, events, log)
        };
        let isolated_e2e = isolated::isolated_e2e_by_id(&self.cost, &engine_report.records);
        let mut report = RunReport::new(
            self.cfg.label.clone(),
            self.cfg.llm.clone(),
            engine_report,
            slo,
            horizon,
            isolated_e2e,
            wrs,
            summary.mean_rps,
            events,
        );
        if let (Some(spec), Some(log)) = (&self.cfg.trace, trace_log) {
            let mut predicates: Vec<Box<dyn AnomalyPredicate>> = Vec::new();
            if let Some(trigger) = spec.ttft_slo_trigger {
                predicates.push(Box::new(TtftSloPredicate::new(trigger)));
            }
            if let Some((count, window)) = spec.retry_storm_trigger {
                predicates.push(Box::new(RetryStormPredicate::new(count, window)));
            }
            if spec.shed_idle_trigger {
                predicates.push(Box::new(ShedIdlePredicate));
            }
            if !predicates.is_empty() {
                let recorder = FlightRecorder::new(FLIGHT_CAPACITY, MAX_DUMPS);
                let (dumps, firings) = recorder.scan(&log, &mut predicates);
                report.flight_dumps = dumps;
                report.flight_firings = firings;
            }
            report.trace = Some(log);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preset;
    use crate::workloads;

    #[test]
    fn slora_runs_a_small_trace() {
        let mut sim = Simulation::new(preset::slora(), 1);
        let trace = workloads::splitwise(4.0, 20.0, 1, sim.pool());
        let n = trace.len();
        let report = sim.run(&trace);
        assert_eq!(report.completed(), n);
        assert!(report.ttft_summary().is_some());
        assert!(report.slo.as_secs_f64() > 0.1);
    }

    #[test]
    fn chameleon_runs_and_caches() {
        let mut sim = Simulation::new(preset::chameleon(), 1);
        let trace = workloads::splitwise(4.0, 30.0, 1, sim.pool());
        let report = sim.run(&trace);
        assert!(report.hit_rate() > 0.0, "some adapter reuse expected");
        assert_eq!(report.scheduler, "chameleon-mlq");
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut sim = Simulation::new(preset::chameleon(), 9);
            let trace = workloads::splitwise(5.0, 15.0, 9, sim.pool());
            let r = sim.run(&trace);
            (
                r.completed(),
                r.ttft_summary().map(|s| s.p99),
                r.cache_stats.hits,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tracing_harvests_a_log_and_arms_the_recorder() {
        use chameleon_trace::{TraceEvent, TraceSpec};
        let cfg = preset::chameleon()
            .with_trace(TraceSpec::new().with_ttft_slo_trigger(SimDuration::from_nanos(1)));
        let mut sim = Simulation::new(cfg, 5);
        let trace = workloads::splitwise(5.0, 10.0, 5, sim.pool());
        let report = sim.run(&trace);
        let log = report.trace.as_ref().expect("traced run carries a log");
        assert!(!log.is_empty());
        assert!(log
            .events()
            .iter()
            .any(|e| matches!(e.event, TraceEvent::FirstToken { .. })));
        // Every first token beats a 1ns SLO trigger, so the recorder fires.
        assert!(report.flight_firings > 0);
        assert!(!report.flight_dumps.is_empty());
        // Untraced runs carry nothing.
        let mut plain = Simulation::new(preset::chameleon(), 5);
        let trace = workloads::splitwise(5.0, 10.0, 5, plain.pool());
        let r = plain.run(&trace);
        assert!(r.trace.is_none() && r.flight_dumps.is_empty() && r.flight_firings == 0);
    }

    #[test]
    fn tracing_does_not_change_results() {
        let run = |traced: bool| {
            let mut cfg = preset::chameleon();
            cfg.data_parallel = 2;
            if traced {
                cfg = cfg.with_trace(chameleon_trace::TraceSpec::new());
            }
            let mut sim = Simulation::new(cfg, 7);
            let trace = workloads::splitwise(6.0, 12.0, 7, sim.pool());
            sim.run(&trace).canonical_text()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn data_parallel_runs() {
        let mut cfg = preset::chameleon();
        cfg.data_parallel = 2;
        let mut sim = Simulation::new(cfg, 2);
        let trace = workloads::splitwise(6.0, 15.0, 2, sim.pool());
        let n = trace.len();
        let report = sim.run(&trace);
        assert_eq!(report.completed(), n);
    }

    #[test]
    fn hetero_fleet_runs() {
        let mut sim = Simulation::new(preset::chameleon_cluster_hetero(), 4);
        let trace = workloads::splitwise(8.0, 15.0, 4, sim.pool());
        let n = trace.len();
        let report = sim.run(&trace);
        assert_eq!(report.completed(), n);
        assert_eq!(report.routing.engine_ids.len(), 4);
        assert_eq!(report.routing.dispatched as usize, n);
    }

    #[test]
    fn elastic_fleet_scales_up_under_a_burst() {
        let mut cfg = preset::chameleon_cluster_elastic();
        // Tighten the controller so a short test trace exercises it.
        let auto = cfg.autoscale.as_mut().expect("elastic preset");
        auto.controller.interval = SimDuration::from_millis(500);
        auto.controller.cooldown = SimDuration::from_secs(2);
        auto.controller.scale_up_mean_queue = 4.0;
        let mut sim = Simulation::new(cfg, 6);
        let trace = workloads::splitwise(60.0, 20.0, 6, sim.pool());
        let n = trace.len();
        let report = sim.run(&trace);
        assert_eq!(report.completed(), n, "elastic run lost requests");
        assert!(
            report.routing.engines_added > 0,
            "overload never grew the fleet: {:?}",
            report.routing
        );
        assert!(report.routing.adapters_rehomed > 0);
        assert!(report.routing.engine_ids.len() > 2);
    }
}
