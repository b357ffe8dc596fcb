//! Amortised dispatch barriers: configuration for arrival batching and
//! bounded-staleness routing.
//!
//! The cluster has one dispatch path. Each arrival barrier opens a
//! snapshot *generation* and routes a batch of consecutive arrivals from
//! it, within a `(max_batch, max_age)` budget. Without a spec the budget
//! is `(1, 0)`: one barrier per arriving request, each routed from a
//! freshly filled snapshot — per-arrival dispatch. That makes arrival
//! rate, not engine work, set the epoch count and cap parallel speedup.
//! A [`DispatchSpec`] widens the budget to the router's declared
//! staleness class, tightened by the spec:
//!
//! * **State-independent** routers (pure weighted rendezvous with spill
//!   disabled, round-robin) never read load fields, so batches are
//!   unbounded — they end only at the next *non-coalescible* cross event
//!   (autoscaler tick, fault barrier) — and the routed placements are
//!   byte-identical to per-arrival dispatch (digest-pinned oracle in
//!   `tests/batched_dispatch.rs`).
//! * **Bounded-staleness** routers (JSQ, power-of-two,
//!   adapter-affinity-with-spill) declare a `(max_batch, max_age)`
//!   budget via `Router::staleness`; the coordinator refreshes the
//!   snapshots at each batch barrier and *echoes its own placements*
//!   into the cached generation (queue depth +1, outstanding tokens +=
//!   request charge), so the only state a batch member cannot observe is
//!   work that completed since the refresh. The cached queue depth
//!   therefore never drifts from the frozen generation by more than the
//!   batch size per engine — the documented, property-tested imbalance
//!   bound (`chameleon_router::policies` property suite).
//!
//! A generation serves at most `max_batch` requests at its own instant:
//! crash-recovery retries due at an arrival batch's instant share the
//! batch's generation only while it has room, and open a fresh one
//! otherwise — so under the per-arrival budget every retry, too, routes
//! from a fresh snapshot. The spec changes only the budget; setting it
//! also arms the batching plane's reporting (`DispatchStats` and the
//! `dispatch_batch`/`retry_batch` trace events), which stays silent
//! without one.

use chameleon_simcore::SimDuration;

/// Opt-in configuration for amortised dispatch barriers.
///
/// Presence of a spec enables arrival batching; the optional fields
/// *tighten* the router's declared staleness budget (they can never
/// loosen it — the effective budget is the minimum of both). For
/// state-independent routers the declared budget is unbounded, so the
/// overrides are the only limit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DispatchSpec {
    /// Cap on arrivals coalesced into one barrier (`None` = the router's
    /// declared budget).
    pub max_batch: Option<u32>,
    /// Cap on the trace-time span of one batch (`None` = the router's
    /// declared budget).
    pub max_age: Option<SimDuration>,
}

impl DispatchSpec {
    /// Batched dispatch at the router's own declared staleness budget.
    pub fn new() -> Self {
        DispatchSpec::default()
    }

    /// Batched dispatch with an explicit budget tighter than (or equal
    /// to) the router's declaration.
    pub fn with_budget(max_batch: u32, max_age: SimDuration) -> Self {
        assert!(max_batch > 0, "a zero batch budget cannot dispatch");
        DispatchSpec {
            max_batch: Some(max_batch),
            max_age: Some(max_age),
        }
    }

    /// The effective budget against a router-declared `(max_batch,
    /// max_age)`: the spec can only tighten.
    pub fn effective(&self, declared_batch: u32, declared_age: SimDuration) -> (u32, SimDuration) {
        (
            self.max_batch
                .map_or(declared_batch, |b| b.min(declared_batch)),
            self.max_age.map_or(declared_age, |a| a.min(declared_age)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_defers_to_the_router_budget() {
        let spec = DispatchSpec::new();
        assert_eq!(
            spec.effective(32, SimDuration::from_millis(50)),
            (32, SimDuration::from_millis(50))
        );
    }

    #[test]
    fn overrides_only_tighten() {
        let spec = DispatchSpec::with_budget(8, SimDuration::from_millis(10));
        assert_eq!(
            spec.effective(32, SimDuration::from_millis(50)),
            (8, SimDuration::from_millis(10))
        );
        // Against an unbounded (state-independent) declaration the spec
        // is the only limit.
        assert_eq!(
            spec.effective(u32::MAX, SimDuration::MAX),
            (8, SimDuration::from_millis(10))
        );
        // A looser spec cannot widen a tight declaration.
        let loose = DispatchSpec::with_budget(1000, SimDuration::from_secs(1));
        assert_eq!(
            loose.effective(32, SimDuration::from_millis(50)),
            (32, SimDuration::from_millis(50))
        );
    }

    #[test]
    #[should_panic(expected = "zero batch budget")]
    fn zero_batch_budget_is_rejected() {
        let _ = DispatchSpec::with_budget(0, SimDuration::ZERO);
    }
}
