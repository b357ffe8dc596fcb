//! The repository benchmark: three open-loop workloads, end-to-end
//! metrics from plain `Simulation::run`, and a traced run that attributes
//! wall time to the simulator's crates from outside.
//!
//! * [`workloads`] — the workloads and their declared regimes.
//! * [`spans`] — the in-memory span recorder.
//! * [`wrap`] — timing wrappers around `Scheduler`, `OutputLenPredictor`
//!   and `Router`.
//! * [`assemble`] — the traced run, assembled from public parts.
//! * [`stats`] — percentiles, quartiles and run fingerprints.

pub mod assemble;
pub mod spans;
pub mod stats;
pub mod workloads;
pub mod wrap;
