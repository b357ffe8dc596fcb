//! Chameleon — adaptive caching and scheduling for many-adapter LLM
//! inference (MICRO 2025), reproduced as a calibrated discrete-event
//! simulation.
//!
//! This crate is the public face of the reproduction: it wires the
//! substrate crates (GPU models, schedulers, adapter cache, serving
//! engine) into runnable *systems* and provides the experiment machinery
//! the paper's evaluation needs.
//!
//! * [`system`] — [`SystemConfig`]: every knob of a serving system
//!   (model, GPU, parallelism, scheduler policy, cache policy, prefetch,
//!   predictor accuracy).
//! * [`preset`] — the named systems of the paper: `slora()`,
//!   `slora_sjf()`, `chameleon()`, the ablations `chameleon_no_cache()` /
//!   `chameleon_no_sched()`, cache-policy variants, and more.
//! * [`sim`] — [`Simulation`]: runs a workload trace through a configured
//!   system and produces a [`RunReport`].
//! * [`report`] — [`RunReport`]: TTFT/TBT/E2E summaries, slowdowns,
//!   per-class queue delays, cache and PCIe statistics.
//! * [`isolated`] — the isolated-execution oracle behind the paper's
//!   slowdown metric (§3.3) and SLO definition (§5.1).
//! * [`sweep`] — load sweeps and SLO-bounded throughput (§5.2), and the
//!   routing-policy axis.
//! * [`ablation`] — measurable versions of the paper's un-figured design
//!   claims (WRS degree, eviction weights, bypass, K_max).
//! * [`workloads`] — the scaled-down paper workloads (§5.1).
//!
//! # Quickstart
//!
//! ```
//! use chameleon_core::{preset, sim::Simulation, workloads};
//!
//! let cfg = preset::chameleon();
//! let mut sim = Simulation::new(cfg, 42);
//! let trace = workloads::splitwise(8.0, 30.0, 42, sim.pool());
//! let report = sim.run(&trace);
//! assert!(report.completed() > 0);
//! println!("P99 TTFT = {:.3}s", report.ttft_summary().unwrap().p99);
//! ```

pub mod ablation;
pub mod isolated;
pub mod preset;
pub mod report;
pub mod sim;
pub mod sweep;
pub mod system;
pub mod workloads;

pub use chameleon_engine::{
    ClusterExecution, DispatchSpec, FaultSpec, FaultTarget, KvSpec, PredictiveSpec, SlowdownWindow,
};
pub use chameleon_router::{EngineId, RouterPolicy};
pub use chameleon_trace::{BarrierProfile, FlightDump, TraceLog, TraceSpec};
pub use report::RunReport;
pub use sim::Simulation;
pub use system::{
    AutoscaleSpec, CachePolicy, EngineSpec, FleetSpec, SchedPolicy, SystemConfig, TopologySpec,
};
