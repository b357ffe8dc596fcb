//! Inference request workloads for the Chameleon reproduction.
//!
//! * [`request`] — the [`Request`] record every layer of the system passes
//!   around: arrival time, input/output token counts and the attached LoRA
//!   adapter.
//! * [`trace`] — ordered request collections ([`Trace`]) with summary
//!   statistics and the §5.1 constant-factor length scaling.
//! * [`csv`] — CSV import/export so traces can be inspected or replaced by
//!   externally prepared request logs.
//! * [`generator`] — synthetic production-like trace generation: heavy-tailed
//!   log-normal length models matched to the Splitwise, WildChat-1M and
//!   LMSYS-Chat-1M characteristics, Poisson arrivals (§5.1) and optional
//!   burst episodes (the §5.4 predictor-sensitivity workload).

pub mod csv;
pub mod generator;
pub mod request;
pub mod trace;

pub use generator::{ArrivalModel, BurstEpisode, LengthModel, TraceGenerator};
pub use request::{IdHashBuilder, IdHasher, Request, RequestId, Slot};
pub use trace::Trace;
