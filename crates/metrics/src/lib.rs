//! Measurement layer for the Chameleon reproduction.
//!
//! Everything the paper reports is computed here, from per-request records:
//!
//! * [`record`] — the per-request ledger ([`RequestRecord`]) the engine
//!   fills in as requests move through the system: arrival, admission,
//!   first token (TTFT), inter-token gaps (TBT), completion (E2E),
//!   adapter-load time on the critical path, bypass/squash counters.
//! * [`collector`] — the engine-facing sink ([`Collector`]).
//! * [`summary`] — percentile summaries ([`LatencySummary`]) and SLO
//!   accounting.
//! * [`series`] — time-binned series for the over-time figures (memory
//!   occupancy for Figure 6, P99-over-time for Figures 15/19).
//! * [`routing`] — cluster-routing statistics ([`RoutingStats`]): per-
//!   engine dispatch counts, affinity hit rate, spill rate, and the
//!   load-imbalance coefficient of the global dispatcher.

pub mod collector;
pub mod kv;
pub mod record;
pub mod routing;
pub mod series;
pub mod summary;

pub use collector::Collector;
pub use kv::KvStats;
pub use record::{RequestRecord, SizeClass};
pub use routing::{DispatchStats, FaultStats, PredictiveStats, RoutingStats};
pub use series::{BinnedSeries, MemorySample};
pub use summary::LatencySummary;
