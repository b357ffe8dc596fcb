//! The serving engine: event-driven continuous batching with adapter
//! orchestration (§2, §4).
//!
//! [`Engine`] models one inference engine — a GPU (or tensor-parallel GPU
//! group) running a base LLM with LoRA adapters:
//!
//! * **Iteration-level scheduling** (Orca-style continuous batching): at
//!   every iteration boundary the active [`Scheduler`] may admit waiting
//!   requests into the running batch and completed requests leave.
//! * **Adapter orchestration**: admissions acquire their adapter from the
//!   [`AdapterCache`] (hit) or trigger a host→GPU load over the shared
//!   [`PcieLink`] (miss); prefill cannot start before the adapter is
//!   resident, which puts loading on the TTFT critical path exactly as in
//!   S-LoRA (§3.2). Queued-request adapters are prefetched asynchronously.
//! * **Memory discipline**: KV blocks, in-use adapters and cached adapters
//!   share one [`MemoryPool`]; the cache dynamically shrinks under load
//!   (§4.2 dynamic sizing) and admission is bounded by real memory.
//! * **Bypass & squash** (§4.3.3): memory-blocked heads can be bypassed by
//!   the Chameleon scheduler; the engine squashes the bypasser if the
//!   blocked request's memory frees early, and squashes the youngest
//!   running request if KV growth hits an out-of-memory condition.
//!
//! [`run_alone`] steps a single engine through a trace on the same
//! per-engine stepper a fleet uses; [`cluster::Cluster`] runs N
//! data-parallel engines behind the paper's
//! two-level (global + local) scheduler (§4.4). The global level is
//! delegated to the `chameleon_router` subsystem: each arrival is routed
//! through a pluggable [`Router`] fed per-engine [`EngineSnapshot`]s
//! (stable identity, capacity weight, queue depth, outstanding tokens,
//! estimated TTFT, built by [`Engine::snapshot`]).
//! [`Cluster::new`] keeps the paper's join-shortest-queue dispatch with
//! replicated adapter caches; [`Cluster::with_router`] swaps in any
//! policy — adapter-affinity routing partitions the adapter working set
//! across the fleet instead, with capacity-weighted rendezvous shards on
//! heterogeneous (mixed-TP) fleets.
//!
//! The fleet is *elastic*: [`Cluster::add_engine`] and
//! [`Cluster::drain_engine`] change it at runtime (a drain stops new
//! dispatches, lets in-flight work finish, and re-homes only the
//! departing adapter shard), and [`Cluster::run_elastic`] drives a trace
//! with a queue-depth-watching [`Autoscaler`] growing and shrinking the
//! fleet mid-trace. Routing outcomes (per-engine dispatch counts keyed by
//! `EngineId`, affinity hit rate, spill rate, load imbalance, engines
//! added/drained, adapters re-homed) land in [`EngineReport::routing`].
//!
//! Cluster runs step engines between cross-engine barriers in *epochs*
//! (see the [`cluster`] module docs); [`Cluster::run_with`] and
//! [`Cluster::run_elastic_with`] select a [`ClusterExecution`] mode —
//! [`ClusterExecution::Parallel`] steps the engines on worker threads
//! with results bit-identical to the serial loop.
//!
//! [`Scheduler`]: chameleon_sched::Scheduler
//! [`AdapterCache`]: chameleon_cache::AdapterCache
//! [`PcieLink`]: chameleon_gpu::PcieLink
//! [`MemoryPool`]: chameleon_gpu::MemoryPool
//! [`Router`]: chameleon_router::Router
//! [`EngineSnapshot`]: chameleon_router::EngineSnapshot

pub mod autoscaler;
pub mod cluster;
pub mod config;
pub mod dispatch;
pub mod engine;
pub mod kv_spec;
pub mod predictive;
pub mod probe;
pub mod report;

pub use autoscaler::{Autoscaler, AutoscalerConfig, ForecastSignal, ScaleAction, ScaleTrigger};
pub use chameleon_fault::{FaultSpec, StragglerWindow};
pub use cluster::{run_alone, Cluster, ClusterExecution};
pub use config::EngineConfig;
pub use dispatch::DispatchSpec;
pub use engine::{Engine, EngineEvent, EngineWork};
pub use kv_spec::KvSpec;
pub use predictive::PredictiveSpec;
pub use report::EngineReport;
