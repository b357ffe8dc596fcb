//! Decision tracing, flight recording, and barrier profiling — the
//! simulator's instrument panel.
//!
//! Every layer of the stack (router, cache, scheduler, autoscaler,
//! cluster coordinator) makes decisions that end-of-run aggregates erase:
//! *which* engine a request was routed to and who the candidates were,
//! *which* eviction pushed an adapter out just before its burst landed,
//! *when* the autoscaler fired and on what signal. This crate
//! captures those decisions as a typed, deterministic event stream:
//!
//! * [`TraceEvent`] — the typed decision vocabulary. Every variant
//!   carries the inputs of the decision (candidate sets, compound-score
//!   components, trigger signals), not just the outcome.
//! * [`Lane`] / [`TaggedEvent`] / [`TraceBuffer`] — the determinism
//!   machinery. Events are buffered per *lane* (the coordinator, or one
//!   engine) in each lane's own execution order, then merged into a
//!   single stream under the pinned total order `(time, lane, seq)` —
//!   the same tie-break discipline the cluster's dispatch loop uses, so
//!   serial and parallel runs of the same scenario emit **byte-identical**
//!   streams.
//! * [`TraceLog`] — the merged stream, serialisable as JSONL (hand-rolled;
//!   the workspace's `serde` is an offline no-op stub).
//! * [`FlightRecorder`] — a bounded ring over the stream that dumps the
//!   last N decisions when an [`AnomalyPredicate`] fires (TTFT over SLO,
//!   a retry storm, a shed beside idle capacity, or anything custom).
//! * [`BarrierProfile`] — wall-clock breakdown of a cluster run into
//!   coordinator dispatch, worker stepping, and barrier wait. Wall-clock
//!   numbers are host-dependent by nature, so they live **outside** the
//!   deterministic event stream.
//! * [`TraceSpec`] — the plain-data configuration carried by
//!   `SystemConfig`: tracing is a strict opt-in overlay, and with it
//!   disabled every run is byte-for-byte what it was before this crate
//!   existed.

pub mod event;
pub mod profile;
pub mod recorder;
pub mod spec;

pub use event::{AutoscaleAction, Lane, TaggedEvent, TraceBuffer, TraceEvent, TraceLog};
pub use profile::BarrierProfile;
pub use recorder::{
    AnomalyPredicate, FlightDump, FlightRecorder, RetryStormPredicate, ShedIdlePredicate,
    TtftSloPredicate,
};
pub use spec::{TraceSpec, FLIGHT_CAPACITY, MAX_DUMPS};
