//! Umbrella crate for the Chameleon reproduction.
//!
//! Re-exports every subsystem crate under one roof so examples, integration
//! tests and downstream users can depend on a single package. See the
//! repository `README.md` for the architecture overview and the experiments
//! it reproduces.
//!
//! ```
//! use chameleon_repro::models::LlmSpec;
//! let llama = LlmSpec::llama_7b();
//! assert_eq!(llama.name(), "Llama-7B");
//! ```

pub use chameleon_cache as cache;
pub use chameleon_core as core;
pub use chameleon_engine as engine;
pub use chameleon_fault as fault;
pub use chameleon_gpu as gpu;
pub use chameleon_metrics as metrics;
pub use chameleon_models as models;
pub use chameleon_predictor as predictor;
pub use chameleon_router as router;
pub use chameleon_sched as sched;
pub use chameleon_simcore as simcore;
pub use chameleon_trace as trace;
pub use chameleon_workload as workload;

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use chameleon_core::preset;
    pub use chameleon_core::report::RunReport;
    pub use chameleon_core::sim::Simulation;
    pub use chameleon_core::system::SystemConfig;
    pub use chameleon_models::{AdapterRank, GpuSpec, LlmSpec};
    pub use chameleon_router::RouterPolicy;
    pub use chameleon_simcore::{SimDuration, SimRng, SimTime};
    pub use chameleon_workload::{Request, Trace};
}
