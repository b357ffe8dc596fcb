//! The per-engine state snapshot routers decide on.

use chameleon_models::AdapterId;
use std::collections::HashSet;

/// Stable identity of one engine across the lifetime of a cluster.
///
/// Unlike a position in a `Vec<Engine>`, an `EngineId` survives fleet
/// changes: engines added later get fresh ids, and draining an engine
/// retires its id without renumbering the survivors. Everything
/// identity-sensitive — rendezvous placement, routing statistics,
/// re-homing accounting — keys off this id, which is what makes the
/// rendezvous minimal-re-homing guarantee hold across an elastic fleet:
/// the hash of `(adapter, id)` is unchanged for every surviving engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EngineId(pub u32);

impl std::fmt::Display for EngineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Immutable view of one engine at a dispatch instant.
///
/// Built by the engine's introspection API (`Engine::snapshot`) and handed
/// to [`Router::route`](crate::Router::route) once per arrival. Routers see
/// only the *live* (non-draining) engines, in registration order; the
/// fields are the signals the built-in policies need, and richer policies
/// can combine them freely.
///
/// Snapshots are collected at the cluster's dispatch *barrier*: every
/// engine has processed exactly its events before the arrival instant,
/// whether the engines were stepped serially or on worker threads — so
/// the snapshot set (contents *and* order) is identical under both
/// cluster execution modes, which is what keeps routing decisions, and
/// with them whole runs, bit-identical.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// Stable engine identity (not a position — see [`EngineId`]).
    pub id: EngineId,
    /// Relative serving capacity of this engine (any consistent scale;
    /// rendezvous scores are scale-invariant). Heterogeneous fleets derive
    /// it from total GPU memory, so a TP4 engine weighs 4× a TP1 engine
    /// and wins a proportionally larger adapter shard.
    pub weight: f64,
    /// Requests waiting in the engine's local scheduler queue.
    pub queue_depth: usize,
    /// Requests in the running batch.
    pub running: usize,
    /// Outstanding resource tokens (running + queued) — the paper's
    /// join-shortest-queue signal.
    pub outstanding_tokens: u64,
    /// Estimated TTFT, in seconds, of a request dispatched to this engine
    /// right now: the engine's outstanding backlog priced through its
    /// isolated-latency oracle (per-token decode cost × outstanding
    /// tokens). The SLO-aware autoscaler compares this against the TTFT
    /// SLO to treat a saturated engine as a violation *in the making*,
    /// before the queue-depth thresholds trip.
    pub est_ttft_secs: f64,
    /// Adapters currently resident on the engine (cached, in use, or in
    /// flight from host memory). Only populated for routers whose
    /// [`needs_residency`](crate::Router::needs_residency) returns `true`;
    /// empty otherwise, so queue-depth-only policies pay nothing for it.
    pub resident_adapters: HashSet<AdapterId>,
    /// Rack (correlated fault domain) this engine lives in. `None` — the
    /// default — means the engine is its own singleton domain, which
    /// makes domain-aware placement coincide exactly with the
    /// topology-blind policy. Only stamped by the cluster when a fleet
    /// topology with anti-affinity is attached.
    pub rack: Option<u32>,
}

impl EngineSnapshot {
    /// Snapshot of a completely idle unit-weight engine (useful in tests).
    pub fn idle(id: EngineId) -> Self {
        EngineSnapshot {
            id,
            weight: 1.0,
            queue_depth: 0,
            running: 0,
            outstanding_tokens: 0,
            est_ttft_secs: 0.0,
            resident_adapters: HashSet::new(),
            rack: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_snapshot_is_empty() {
        let s = EngineSnapshot::idle(EngineId(3));
        assert_eq!(s.id, EngineId(3));
        assert_eq!(s.weight, 1.0);
        assert_eq!((s.queue_depth, s.running, s.outstanding_tokens), (0, 0, 0));
        assert!(s.resident_adapters.is_empty());
    }

    #[test]
    fn engine_id_displays_compactly() {
        assert_eq!(EngineId(7).to_string(), "e7");
    }
}
