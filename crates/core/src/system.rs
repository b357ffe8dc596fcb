//! System configuration: every knob of a serving system under study.

use chameleon_engine::{
    AutoscalerConfig, ClusterExecution, DispatchSpec, FaultSpec, KvSpec, PredictiveSpec,
};
use chameleon_models::{GpuSpec, LlmSpec, PoolConfig, PopularityDist};
use chameleon_router::RouterPolicy;
use chameleon_trace::TraceSpec;

/// Shape of one engine in a (possibly heterogeneous) fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSpec {
    /// Tensor-parallel degree of this engine.
    pub tp_degree: u32,
    /// GPU platform override; `None` uses the system's default GPU.
    pub gpu: Option<GpuSpec>,
}

impl EngineSpec {
    /// A TP-`tp` engine on the system's default GPU.
    pub fn tp(tp_degree: u32) -> Self {
        EngineSpec {
            tp_degree,
            gpu: None,
        }
    }
}

/// Physical topology of the initial fleet: the rack (power/network
/// domain, the correlated failure unit) of each engine in `EngineId`
/// order. Rack-targeted fault injections
/// ([`FaultSpec::with_domain_crash`] and friends) hit every engine of a
/// rack, and domain-aware placement keeps spilled work *outside* the
/// primary's rack so exactly that work survives. Engines added by the
/// autoscaler belong to no rack (nothing else fails with them).
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// The rack of each engine, in `EngineId` order.
    pub racks: Vec<u32>,
    /// When true (the default) the weighted-rendezvous *second* choice —
    /// the spill target — prefers the best-ranked engine outside the
    /// primary's rack whenever one exists. `false` keeps the racks (so
    /// rack-targeted injections still resolve their members) but keeps
    /// placement topology-blind — the efficacy ablation.
    pub anti_affinity: bool,
}

impl TopologySpec {
    /// Engine `i` lives in rack `racks[i]`; anti-affinity on.
    pub fn racks(racks: &[u32]) -> Self {
        TopologySpec {
            racks: racks.to_vec(),
            anti_affinity: true,
        }
    }

    /// Builder-style: keeps the racks but makes placement ignore them
    /// (the topology-blind ablation).
    pub fn without_anti_affinity(mut self) -> Self {
        self.anti_affinity = false;
        self
    }
}

/// Per-engine description of a data-parallel fleet — the heterogeneous
/// generalisation of a bare engine count. The §5.6 tensor-parallel
/// evaluation becomes a fleet axis: `FleetSpec::mixed_tp(&[1, 1, 2, 4])`
/// builds a fleet whose capacity-weighted rendezvous shards are
/// proportional to each engine's memory.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// One spec per engine, in `EngineId` order.
    pub engines: Vec<EngineSpec>,
    /// Physical fault-domain layout of the fleet. `None` — the default —
    /// treats every engine as its own domain and keeps placement
    /// byte-identical to the topology-less stack.
    pub topology: Option<TopologySpec>,
}

impl FleetSpec {
    /// `n` identical TP-`tp` engines.
    pub fn homogeneous(n: usize, tp_degree: u32) -> Self {
        FleetSpec {
            engines: vec![EngineSpec::tp(tp_degree); n],
            topology: None,
        }
    }

    /// One engine per entry of `tps`, each with that TP degree.
    pub fn mixed_tp(tps: &[u32]) -> Self {
        FleetSpec {
            engines: tps.iter().map(|&tp| EngineSpec::tp(tp)).collect(),
            topology: None,
        }
    }

    /// Builder-style: attaches a fault-domain topology (one rack per
    /// engine; must match the fleet size).
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        assert_eq!(
            topology.racks.len(),
            self.engines.len(),
            "topology must name one fault domain per engine"
        );
        self.topology = Some(topology);
        self
    }

    /// Number of engines in the initial fleet.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// True for an empty fleet (rejected by the simulation).
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }
}

/// Runtime fleet-scaling configuration: the controller tunables plus what
/// kind of engine the fleet grows by.
#[derive(Debug, Clone)]
pub struct AutoscaleSpec {
    /// The queue-depth/SLO-watching controller's tunables.
    pub controller: AutoscalerConfig,
    /// Specs for engines added at runtime, cycled in growth order (the
    /// fleet can grow heterogeneously). Empty falls back to the system's
    /// default engine shape.
    pub growth: Vec<EngineSpec>,
}

impl AutoscaleSpec {
    /// Scale between `min` and `max` engines with the default controller
    /// tunables, growing by TP-1 default-GPU engines.
    pub fn new(min_engines: usize, max_engines: usize) -> Self {
        AutoscaleSpec {
            controller: AutoscalerConfig {
                min_engines,
                max_engines,
                ..AutoscalerConfig::default()
            },
            growth: Vec::new(),
        }
    }

    /// Sets the growth engine shapes (cycled).
    pub fn with_growth(mut self, growth: Vec<EngineSpec>) -> Self {
        self.growth = growth;
        self
    }
}

/// Which iteration-level scheduling policy the system runs (§3.3, §4.3).
#[derive(Debug, Clone, PartialEq)]
pub enum SchedPolicy {
    /// S-LoRA's FIFO.
    Fifo,
    /// μServe's speculative SJF with aging (tokens/second of credit).
    Sjf {
        /// Aging credit in predicted-tokens per second of waiting.
        aging_tokens_per_sec: f64,
    },
    /// The Chameleon multi-level queue (§4.3).
    ChameleonMlq {
        /// Re-derive queues/quotas every `T_refresh` (§4.3.4); false gives
        /// the §5.4.5 "Static" behaviour when combined with fixed cutoffs.
        dynamic: bool,
        /// Opportunistic bypass (§4.3.3).
        bypass: bool,
        /// Use only the predicted output length in the WRS (§5.4
        /// "OutputOnly") instead of the full formula.
        output_only: bool,
    },
    /// Chameleon with the degree-1 (linear) WRS — the §4.3.1 ablation.
    ChameleonLinearWrs,
    /// The §5.4.5 static four-queue baseline.
    StaticMlq,
}

/// Which adapter-cache policy the system runs (§4.2, §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// No cache: discard adapters when unused (S-LoRA, §2).
    Discard,
    /// LRU eviction.
    Lru,
    /// LFU eviction.
    Lfu,
    /// Equal-weight compound score (§5.3 "FairShare").
    FairShare,
    /// The tuned Chameleon compound score (F=0.45, R=0.10, S=0.45).
    Chameleon,
    /// Greedy-Dual-Size-Frequency (§5.3 comparison).
    Gdsf,
}

impl CachePolicy {
    /// Converts to the cache crate's policy (None = discard mode).
    pub fn to_eviction(self) -> Option<chameleon_cache::EvictionPolicy> {
        use chameleon_cache::EvictionPolicy as E;
        match self {
            CachePolicy::Discard => None,
            CachePolicy::Lru => Some(E::Lru),
            CachePolicy::Lfu => Some(E::Lfu),
            CachePolicy::FairShare => Some(E::FairShare),
            CachePolicy::Chameleon => Some(E::chameleon()),
            CachePolicy::Gdsf => Some(E::Gdsf),
        }
    }
}

/// Full description of a serving system plus its adapter environment.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Human-readable label used in reports.
    pub label: String,
    /// Base LLM.
    pub llm: LlmSpec,
    /// GPU platform.
    pub gpu: GpuSpec,
    /// Tensor-parallel degree.
    pub tp_degree: u32,
    /// Data-parallel engine count (a homogeneous fleet; superseded by
    /// [`fleet`](Self::fleet) when set).
    pub data_parallel: usize,
    /// Per-engine fleet description for heterogeneous clusters. `None`
    /// builds `data_parallel` identical engines.
    pub fleet: Option<FleetSpec>,
    /// Runtime fleet scaling; `None` keeps the fleet fixed for the run.
    pub autoscale: Option<AutoscaleSpec>,
    /// Cluster-level predictive control plane (SLO/forecast autoscaling
    /// signals). `None` — the default — keeps the cluster purely reactive
    /// and byte-identical to the pre-control-plane stack; ignored for
    /// single-engine runs.
    pub predictive: Option<PredictiveSpec>,
    /// Deterministic fault-injection and recovery plane: scheduled engine
    /// crashes, straggler windows, flaky PCIe transfers and delayed
    /// autoscaler provisioning, recovered through timeout detection,
    /// capped-backoff re-dispatch, shard re-homing and SLO-aware load
    /// shedding. `None` — the default — injects nothing and keeps every
    /// run byte-identical to the fault-free stack; ignored for
    /// single-engine runs (faults are observed at cluster barriers).
    pub fault: Option<FaultSpec>,
    /// Amortised dispatch barriers: consecutive arrivals coalesce into a
    /// single cluster barrier, routed from one cached snapshot generation
    /// under the router's declared staleness budget (optionally tightened
    /// by the spec). `None` — the default — dispatches per arrival (the
    /// one-request budget), byte-identical to the pre-batching stack;
    /// ignored for single-engine runs.
    pub dispatch: Option<DispatchSpec>,
    /// Unified GPU-memory economy: KV-aware admission control (refuse
    /// admissions whose block-rounded KV footprint cannot complete,
    /// instead of optimistically allocating and unwinding) and the
    /// Apt-Serve-style hybrid cache (demote running requests to compact
    /// hidden-state proxies under pressure instead of squashing). `None`
    /// — the default — keeps every engine byte-identical to the
    /// optimistic baseline. Applies per engine, single-engine and cluster
    /// runs alike.
    pub kv: Option<KvSpec>,
    /// Global routing policy dispatching requests across data-parallel
    /// engines (ignored for single-engine runs). The paper's two-level
    /// scheduler uses [`RouterPolicy::JoinShortestQueue`];
    /// [`RouterPolicy::AdapterAffinity`] partitions the adapter working
    /// set across engines instead of replicating it.
    pub router: RouterPolicy,
    /// How cluster runs step their engines between dispatch/autoscale
    /// barriers: on the coordinator thread
    /// ([`ClusterExecution::Serial`], the default) or on an
    /// epoch-synchronised worker pool ([`ClusterExecution::Parallel`],
    /// bit-identical results for every worker count). Ignored for
    /// single-engine runs.
    pub cluster_exec: ClusterExecution,
    /// Number of distinct adapters `N_a` (§5.1; default 100).
    pub num_adapters: usize,
    /// Rank-popularity distribution (§5.1: uniform by default).
    pub rank_popularity: PopularityDist,
    /// Within-rank adapter popularity (§5.1: power-law by default).
    pub within_rank_popularity: PopularityDist,
    /// Scheduling policy.
    pub sched: SchedPolicy,
    /// Adapter-cache policy.
    pub cache: CachePolicy,
    /// Chunked-prefill execution (the Figure 8 baseline).
    pub chunked_prefill: bool,
    /// Prefetch adapters of queued requests (S-LoRA and Chameleon both do).
    pub prefetch_queued: bool,
    /// Histogram-based predictive prefetch (Chameleon+Prefetch, Fig. 18).
    pub predictive_prefetch: bool,
    /// Output-length predictor accuracy in `[0, 1]`; `1.0` uses the oracle.
    pub predictor_accuracy: f64,
    /// The system has no output-length predictor and must provision KV
    /// memory for the worst case (S-LoRA, §5.2.1).
    pub worst_case_predictor: bool,
    /// Maximum concurrent requests per engine.
    pub max_batch_requests: usize,
    /// Decision tracing and flight-recorder configuration. `None` — the
    /// default — emits nothing and keeps every run byte-for-byte
    /// identical to the untraced stack; `Some` records the deterministic
    /// decision stream into [`RunReport::trace`](crate::RunReport) and
    /// arms the spec's anomaly predicates.
    pub trace: Option<TraceSpec>,
}

impl SystemConfig {
    /// Baseline skeleton on the paper's primary platform (Llama-7B, A40,
    /// 100 adapters).
    pub fn base(label: impl Into<String>) -> Self {
        SystemConfig {
            label: label.into(),
            llm: LlmSpec::llama_7b(),
            gpu: GpuSpec::a40(),
            tp_degree: 1,
            data_parallel: 1,
            fleet: None,
            autoscale: None,
            predictive: None,
            fault: None,
            dispatch: None,
            kv: None,
            router: RouterPolicy::JoinShortestQueue,
            cluster_exec: ClusterExecution::Serial,
            num_adapters: 100,
            rank_popularity: PopularityDist::Uniform,
            within_rank_popularity: PopularityDist::power_law(),
            sched: SchedPolicy::Fifo,
            cache: CachePolicy::Discard,
            chunked_prefill: false,
            prefetch_queued: true,
            predictive_prefetch: false,
            predictor_accuracy: 0.8,
            worst_case_predictor: false,
            max_batch_requests: 256,
            trace: None,
        }
    }

    /// The adapter-pool configuration implied by this system.
    pub fn pool_config(&self) -> PoolConfig {
        PoolConfig {
            num_adapters: self.num_adapters,
            ranks: chameleon_models::AdapterRank::PAPER_SET.to_vec(),
            rank_popularity: self.rank_popularity,
            within_rank_popularity: self.within_rank_popularity,
        }
    }

    /// Builder-style: sets the model.
    pub fn with_llm(mut self, llm: LlmSpec) -> Self {
        self.llm = llm;
        self
    }

    /// Builder-style: sets the GPU.
    pub fn with_gpu(mut self, gpu: GpuSpec) -> Self {
        self.gpu = gpu;
        self
    }

    /// Builder-style: sets the adapter count.
    pub fn with_adapters(mut self, n: usize) -> Self {
        self.num_adapters = n;
        self
    }

    /// Builder-style: sets tensor parallelism.
    pub fn with_tp(mut self, tp: u32) -> Self {
        self.tp_degree = tp;
        self
    }

    /// Builder-style: sets the data-parallel engine count.
    pub fn with_data_parallel(mut self, engines: usize) -> Self {
        self.data_parallel = engines;
        self
    }

    /// Builder-style: sets a per-engine (possibly heterogeneous) fleet.
    pub fn with_fleet(mut self, fleet: FleetSpec) -> Self {
        assert!(!fleet.is_empty(), "empty fleet");
        self.fleet = Some(fleet);
        self
    }

    /// Builder-style: enables runtime fleet scaling.
    pub fn with_autoscale(mut self, autoscale: AutoscaleSpec) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Builder-style: enables the predictive control plane.
    pub fn with_predictive(mut self, predictive: PredictiveSpec) -> Self {
        self.predictive = Some(predictive);
        self
    }

    /// Builder-style: arms the fault-injection plane.
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Builder-style: enables amortised dispatch barriers.
    pub fn with_dispatch(mut self, dispatch: DispatchSpec) -> Self {
        self.dispatch = Some(dispatch);
        self
    }

    /// Builder-style: arms the unified GPU-memory economy (KV-aware
    /// admission + hybrid cache).
    pub fn with_kv(mut self, kv: KvSpec) -> Self {
        self.kv = Some(kv);
        self
    }

    /// The fault-domain topology of the initial fleet, when one is
    /// attached via [`FleetSpec::with_topology`].
    pub fn topology(&self) -> Option<&TopologySpec> {
        self.fleet.as_ref().and_then(|f| f.topology.as_ref())
    }

    /// Number of engines the initial fleet is built with.
    pub fn engine_count(&self) -> usize {
        self.fleet
            .as_ref()
            .map_or(self.data_parallel, FleetSpec::len)
    }

    /// True when the run goes through the cluster dispatch layer (more
    /// than one engine, or a fleet that can scale past one).
    pub fn is_cluster(&self) -> bool {
        self.engine_count() > 1 || self.autoscale.is_some()
    }

    /// The shape of engine `i` in the initial fleet.
    pub fn engine_spec(&self, i: usize) -> EngineSpec {
        match &self.fleet {
            Some(fleet) => fleet.engines[i % fleet.engines.len()].clone(),
            None => EngineSpec::tp(self.tp_degree),
        }
    }

    /// The shape of the `k`-th engine added by the autoscaler (cycling
    /// through the growth specs; the system default when none are given).
    pub fn growth_spec(&self, k: usize) -> EngineSpec {
        match self.autoscale.as_ref().filter(|a| !a.growth.is_empty()) {
            Some(a) => a.growth[k % a.growth.len()].clone(),
            None => EngineSpec::tp(self.tp_degree),
        }
    }

    /// Builder-style: sets the cluster routing policy.
    pub fn with_router(mut self, router: RouterPolicy) -> Self {
        self.router = router;
        self
    }

    /// Builder-style: sets the cluster execution mode.
    pub fn with_cluster_exec(mut self, exec: ClusterExecution) -> Self {
        self.cluster_exec = exec;
        self
    }

    /// Builder-style: parallel cluster execution with `workers` worker
    /// threads (`0` = auto: `CHAMELEON_WORKERS`, else the machine's
    /// cores).
    pub fn with_parallel_cluster(self, workers: usize) -> Self {
        self.with_cluster_exec(ClusterExecution::Parallel { workers })
    }

    /// Builder-style: sets the predictor accuracy.
    pub fn with_predictor_accuracy(mut self, acc: f64) -> Self {
        self.predictor_accuracy = acc;
        self
    }

    /// Builder-style: relabels the system.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Builder-style: enables decision tracing with `spec`.
    pub fn with_trace(mut self, spec: TraceSpec) -> Self {
        self.trace = Some(spec);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_matches_paper_defaults() {
        let c = SystemConfig::base("test");
        assert_eq!(c.num_adapters, 100);
        assert_eq!(c.llm.name(), "Llama-7B");
        assert_eq!(c.gpu.name(), "A40");
        assert_eq!(c.rank_popularity, PopularityDist::Uniform);
        assert!(matches!(
            c.within_rank_popularity,
            PopularityDist::PowerLaw { .. }
        ));
    }

    #[test]
    fn cache_policy_mapping() {
        assert!(CachePolicy::Discard.to_eviction().is_none());
        assert!(CachePolicy::Chameleon.to_eviction().is_some());
        assert_eq!(
            CachePolicy::Lru.to_eviction(),
            Some(chameleon_cache::EvictionPolicy::Lru)
        );
    }

    #[test]
    fn builders_chain() {
        let c = SystemConfig::base("x")
            .with_llm(LlmSpec::llama_13b())
            .with_gpu(GpuSpec::a100_80gb())
            .with_adapters(500)
            .with_tp(4)
            .with_predictor_accuracy(0.6)
            .with_label("y");
        assert_eq!(c.llm.name(), "Llama-13B");
        assert_eq!(c.num_adapters, 500);
        assert_eq!(c.tp_degree, 4);
        assert_eq!(c.predictor_accuracy, 0.6);
        assert_eq!(c.label, "y");
    }

    #[test]
    fn fleet_overrides_data_parallel_count() {
        let c = SystemConfig::base("x").with_fleet(FleetSpec::mixed_tp(&[1, 2, 4]));
        assert_eq!(c.engine_count(), 3);
        assert!(c.is_cluster());
        assert_eq!(c.engine_spec(0), EngineSpec::tp(1));
        assert_eq!(c.engine_spec(2), EngineSpec::tp(4));
        // Without a fleet, the spec falls back to the system's TP.
        let d = SystemConfig::base("y").with_tp(2).with_data_parallel(4);
        assert_eq!(d.engine_count(), 4);
        assert_eq!(d.engine_spec(3), EngineSpec::tp(2));
        assert!(!SystemConfig::base("z").is_cluster());
    }

    #[test]
    fn autoscale_growth_cycles_and_defaults() {
        let c = SystemConfig::base("x").with_autoscale(
            AutoscaleSpec::new(1, 4).with_growth(vec![EngineSpec::tp(2), EngineSpec::tp(4)]),
        );
        assert!(c.is_cluster(), "an elastic single engine is a cluster");
        assert_eq!(c.growth_spec(0), EngineSpec::tp(2));
        assert_eq!(c.growth_spec(1), EngineSpec::tp(4));
        assert_eq!(c.growth_spec(2), EngineSpec::tp(2));
        let d = SystemConfig::base("y").with_autoscale(AutoscaleSpec::new(1, 2));
        assert_eq!(d.growth_spec(0), EngineSpec::tp(1), "default shape");
    }

    #[test]
    fn cluster_exec_axis_defaults_serial() {
        let c = SystemConfig::base("x");
        assert_eq!(c.cluster_exec, ClusterExecution::Serial);
        assert_eq!(c.cluster_exec.worker_count(), 1);
        let p = SystemConfig::base("x").with_parallel_cluster(3);
        assert_eq!(p.cluster_exec, ClusterExecution::Parallel { workers: 3 });
        assert_eq!(p.cluster_exec.worker_count(), 3);
        // Auto resolves to at least one worker.
        assert!(ClusterExecution::parallel_auto().worker_count() >= 1);
    }

    #[test]
    fn telemetry_axes_default_off() {
        let c = SystemConfig::base("x");
        assert!(c.trace.is_none());
        let t = SystemConfig::base("x").with_trace(TraceSpec::new().with_shed_idle_trigger());
        assert!(t.trace.is_some_and(|s| s.shed_idle_trigger));
    }

    #[test]
    fn fault_axis_defaults_off() {
        use chameleon_simcore::SimTime;
        let c = SystemConfig::base("x");
        assert!(c.fault.is_none());
        let f = SystemConfig::base("x").with_fault(
            FaultSpec::new()
                .with_crash(1, SimTime::from_secs_f64(10.0))
                .with_shedding(8.0),
        );
        let spec = f.fault.expect("fault plane armed");
        assert_eq!(spec.crashes.len(), 1);
        assert!(spec.sheds());
    }

    #[test]
    fn topology_attaches_fault_domains_per_engine() {
        let c = SystemConfig::base("x");
        assert!(c.topology().is_none(), "no fleet, no topology");
        let t = SystemConfig::base("x").with_fleet(
            FleetSpec::homogeneous(4, 1).with_topology(TopologySpec::racks(&[0, 0, 1, 1])),
        );
        let topo = t.topology().expect("topology attached");
        assert!(topo.anti_affinity, "anti-affinity defaults on");
        assert_eq!(topo.racks, vec![0, 0, 1, 1]);
        let blind = TopologySpec::racks(&[0, 1]).without_anti_affinity();
        assert!(!blind.anti_affinity);
    }

    #[test]
    #[should_panic(expected = "one fault domain per engine")]
    fn topology_must_cover_the_fleet() {
        let _ = FleetSpec::homogeneous(3, 1).with_topology(TopologySpec::racks(&[0, 1]));
    }

    #[test]
    fn kv_axis_defaults_off() {
        let c = SystemConfig::base("x");
        assert!(c.kv.is_none());
        let armed = SystemConfig::base("x").with_kv(KvSpec::new());
        let spec = armed.kv.expect("kv plane armed");
        assert!(spec.admission && spec.hybrid);
        let observed = SystemConfig::base("x").with_kv(KvSpec::observe());
        assert!(observed.kv.is_some_and(|s| !s.admission && !s.hybrid));
    }

    #[test]
    fn pool_config_reflects_distributions() {
        let c = SystemConfig::base("x").with_adapters(50);
        let p = c.pool_config();
        assert_eq!(p.num_adapters, 50);
        assert_eq!(p.ranks.len(), 5);
    }
}
