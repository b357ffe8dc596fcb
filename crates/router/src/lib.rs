//! Cluster-level request routing and placement (the §4.4 global scheduler,
//! generalised to heterogeneous, elastic fleets).
//!
//! Chameleon's data-parallel mode uses a fixed two-level scheduler: a
//! global dispatcher sends each arriving request to one engine
//! (join-shortest-queue in the paper's production-standard setup) and each
//! engine schedules locally, with the adapter cache *replicated* on every
//! engine. At fleet scale the global dispatch decision is the dominant
//! lever for adapter locality: routing on queue depth alone forces every
//! engine to cache every popular adapter, while adapter-aware placement
//! lets the fleet *partition* the adapter working set.
//!
//! This crate turns that decision into a first-class subsystem — and,
//! unlike the paper's fixed fleet, one that survives the fleet changing
//! underneath it:
//!
//! * [`EngineId`] — stable engine identity. Routing keys off identity,
//!   not position, so adding or draining an engine never renumbers the
//!   survivors and rendezvous assignments for them are untouched.
//! * [`EngineSnapshot`] — the per-engine state a router sees at each
//!   arrival: identity, capacity weight, queue depth, outstanding
//!   resource tokens, estimated TTFT, rack, and — for routers that ask
//!   for it — the resident-adapter set.
//! * [`Router`] — the placement policy trait: request + live snapshots →
//!   [`RouteDecision`].
//! * [`policies`] — the built-in policies:
//!   [`RoundRobin`], [`JoinShortestQueue`] (the paper's global
//!   scheduler, extracted from the cluster unchanged),
//!   [`PowerOfTwoChoices`], and [`AdapterAffinity`] — capacity-weighted
//!   rendezvous hashing on the adapter id (wider/TP-larger engines win
//!   proportional shards) with load-aware spill to the adapter's stable
//!   *second* rendezvous choice (2-replica partitioning).
//! * [`policies::rendezvous_home`] / [`policies::rendezvous_top2`] — the
//!   pure weighted-rendezvous functions, exposed so tests and capacity
//!   planners can reason about placement and the minimal-re-homing
//!   guarantee directly.
//! * [`RouterPolicy`] — a plain-data policy selector so routing is a
//!   configurable experiment axis next to scheduler and eviction policy.
//!
//! The engine crate's `Cluster` delegates every dispatch here; routing
//! outcome statistics (per-engine dispatch counts keyed by [`EngineId`],
//! affinity hit rate, spill rate, load imbalance, engines added/drained,
//! adapters re-homed) are tracked by the cluster in
//! `chameleon_metrics::RoutingStats` and flow into run reports.

pub mod policies;
pub mod snapshot;

pub use policies::{
    AdapterAffinity, JoinShortestQueue, PowerOfTwoChoices, RoundRobin, SpillTarget,
};
pub use snapshot::{EngineId, EngineSnapshot};

use chameleon_simcore::SimDuration;
use chameleon_workload::Request;

/// How sensitive a policy's placement decisions are to snapshot age — the
/// contract that lets the cluster coalesce consecutive arrivals into one
/// dispatch barrier instead of refreshing `snap_buf` per request.
///
/// The coordinator consults this once per run (policies never change
/// class mid-run) and sizes arrival batches accordingly:
///
/// * [`StateIndependent`](StalenessClass::StateIndependent) — placement
///   reads no load fields (queue depth, outstanding tokens, TTFT
///   estimates), only stable facts that change exclusively at true
///   barriers: fleet membership, identities, and capacity weights. Whole
///   arrival batches route from one snapshot generation with zero
///   refreshes and the result is byte-identical to per-arrival dispatch.
/// * [`BoundedStaleness`](StalenessClass::BoundedStaleness) — placement
///   reads load fields, so routing from a cached generation admits
///   bounded error: at most `max_batch` arrivals (and no more than
///   `max_age` of trace time) are placed between refreshes. Because the
///   coordinator echoes its own placements into the cached snapshots
///   (queue depth +1, outstanding tokens += request estimate per
///   placement), the only state a batch member cannot see is work that
///   *completed* since the refresh — so the cached queue depth
///   over-counts the live engine by at most the batch size, and never
///   under-counts it. Per-engine queue-depth error is therefore bounded
///   by the declared batch budget (property-tested in
///   `policies::properties`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StalenessClass {
    /// Placement depends only on fleet membership and capacity weights;
    /// batches are unbounded (the next non-coalescible barrier ends them).
    StateIndependent,
    /// Placement reads load fields; refresh the snapshots after
    /// `max_batch` placements or `max_age` of trace time, whichever
    /// comes first.
    BoundedStaleness {
        /// Maximum placements per snapshot generation.
        max_batch: u32,
        /// Maximum trace-time age of a snapshot generation.
        max_age: SimDuration,
    },
}

impl StalenessClass {
    /// Default staleness budget for load-aware policies: small enough
    /// that queue-depth error stays well inside one scheduling quantum,
    /// large enough to amortise the barrier.
    pub const DEFAULT_BOUNDED: StalenessClass = StalenessClass::BoundedStaleness {
        max_batch: 32,
        max_age: SimDuration::from_millis(50),
    };
}

/// Where a request was placed, and whether the placement was a spill
/// (an affinity router diverted the request away from its home engine
/// because the home was saturated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Position of the chosen engine in the snapshot slice handed to
    /// [`Router::route`] (the live engine listing, *not* an [`EngineId`] —
    /// the caller owns the position → identity mapping).
    pub engine: usize,
    /// True when an affinity policy diverted the request off its home
    /// engine for load reasons. Always false for affinity-free policies.
    pub spilled: bool,
}

impl RouteDecision {
    /// A non-spill placement on the engine at `engine` in the live
    /// listing.
    pub fn to(engine: usize) -> Self {
        RouteDecision {
            engine,
            spilled: false,
        }
    }
}

/// A cluster-level placement policy.
///
/// Implementations may keep internal state (round-robin cursors, RNG
/// streams, load estimates); the cluster calls [`route`](Router::route)
/// exactly once per arriving request, in arrival order, passing snapshots
/// of the engines that may accept work (draining engines are excluded).
pub trait Router {
    /// Chooses the engine for `req` given one snapshot per live engine.
    ///
    /// `engines` is never empty; the returned
    /// [`RouteDecision::engine`] indexes into it.
    fn route(&mut self, req: &Request, engines: &[EngineSnapshot]) -> RouteDecision;

    /// Whether [`route`](Router::route) reads
    /// [`EngineSnapshot::resident_adapters`]. Snapshot construction skips
    /// the per-engine residency-set copy when this is `false` (the
    /// default) — none of the built-in policies need it (rendezvous
    /// hashing derives the home engine from the adapter id alone), and
    /// copying every engine's resident set on every arrival would make
    /// dispatch cost grow with the adapter pool.
    fn needs_residency(&self) -> bool {
        false
    }

    /// Whether this policy assigns adapters stable rendezvous homes.
    /// The cluster uses this to account adapter re-homing when the fleet
    /// grows or shrinks; queue-depth-only policies have no homes, so the
    /// migration counters stay zero for them.
    fn uses_affinity(&self) -> bool {
        false
    }

    /// How stale a snapshot this policy tolerates (see [`StalenessClass`]).
    /// The conservative default declares a small bounded budget; policies
    /// whose placement ignores load fields override this to
    /// [`StalenessClass::StateIndependent`] and batch without limit.
    fn staleness(&self) -> StalenessClass {
        StalenessClass::DEFAULT_BOUNDED
    }

    /// Policy label for reports.
    fn name(&self) -> &'static str;
}

/// Plain-data selector for the built-in policies — the configuration-level
/// counterpart of [`Router`], usable as an experiment sweep axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouterPolicy {
    /// Cycle through engines in order.
    RoundRobin,
    /// Least outstanding resource tokens (the paper's global scheduler).
    JoinShortestQueue,
    /// Sample two engines, keep the less loaded one.
    PowerOfTwoChoices,
    /// Weighted-rendezvous-hash the adapter to a home engine; spill to its
    /// second rendezvous choice when the home is saturated.
    AdapterAffinity,
    /// Pure weighted-rendezvous placement — [`AdapterAffinity`] with the
    /// spill branch disabled. Placement never reads load state, so it is
    /// [`StalenessClass::StateIndependent`] and batches without limit.
    AdapterAffinityNoSpill,
}

impl RouterPolicy {
    /// Every built-in policy, in presentation order.
    pub const ALL: [RouterPolicy; 5] = [
        RouterPolicy::RoundRobin,
        RouterPolicy::JoinShortestQueue,
        RouterPolicy::PowerOfTwoChoices,
        RouterPolicy::AdapterAffinity,
        RouterPolicy::AdapterAffinityNoSpill,
    ];

    /// Instantiates the policy. `seed` feeds the randomised policies'
    /// private RNG streams; deterministic policies ignore it.
    pub fn build(self, seed: u64) -> Box<dyn Router> {
        match self {
            RouterPolicy::RoundRobin => Box::new(RoundRobin::new()),
            RouterPolicy::JoinShortestQueue => Box::new(JoinShortestQueue::new()),
            RouterPolicy::PowerOfTwoChoices => Box::new(PowerOfTwoChoices::new(seed)),
            RouterPolicy::AdapterAffinity => Box::new(AdapterAffinity::new()),
            RouterPolicy::AdapterAffinityNoSpill => Box::new(AdapterAffinity::without_spill()),
        }
    }

    /// Policy label (matches the built Router's `name()`).
    pub fn name(self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::JoinShortestQueue => "join-shortest-queue",
            RouterPolicy::PowerOfTwoChoices => "power-of-two",
            RouterPolicy::AdapterAffinity => "adapter-affinity",
            RouterPolicy::AdapterAffinityNoSpill => "adapter-affinity-nospill",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_models::{AdapterId, AdapterRank};
    use chameleon_simcore::SimTime;
    use chameleon_workload::RequestId;

    fn req(id: u64, adapter: u32) -> Request {
        Request::new(
            RequestId(id),
            SimTime::ZERO,
            64,
            8,
            AdapterId(adapter),
            AdapterRank::new(8),
        )
    }

    fn idle_snapshots(n: usize) -> Vec<EngineSnapshot> {
        (0..n)
            .map(|i| EngineSnapshot::idle(EngineId(i as u32)))
            .collect()
    }

    #[test]
    fn policy_names_match_router_names() {
        for p in RouterPolicy::ALL {
            assert_eq!(p.name(), p.build(1).name());
        }
    }

    #[test]
    fn every_policy_routes_in_bounds() {
        let snaps = idle_snapshots(5);
        for p in RouterPolicy::ALL {
            let mut r = p.build(7);
            for i in 0..200 {
                let d = r.route(&req(i, (i % 17) as u32), &snaps);
                assert!(d.engine < 5, "{} routed out of bounds", r.name());
            }
        }
    }

    #[test]
    fn single_engine_cluster_is_trivial() {
        let snaps = idle_snapshots(1);
        for p in RouterPolicy::ALL {
            let mut r = p.build(3);
            let d = r.route(&req(0, 4), &snaps);
            assert_eq!(d.engine, 0);
            assert!(!d.spilled);
        }
    }

    #[test]
    fn only_affinity_declares_homes() {
        for p in RouterPolicy::ALL {
            let expects =
                p == RouterPolicy::AdapterAffinity || p == RouterPolicy::AdapterAffinityNoSpill;
            assert_eq!(p.build(1).uses_affinity(), expects, "{}", p.name());
        }
    }

    #[test]
    fn staleness_classes_match_what_each_policy_reads() {
        for p in RouterPolicy::ALL {
            let state_independent = matches!(
                p,
                RouterPolicy::RoundRobin | RouterPolicy::AdapterAffinityNoSpill
            );
            let expects = if state_independent {
                StalenessClass::StateIndependent
            } else {
                StalenessClass::DEFAULT_BOUNDED
            };
            assert_eq!(p.build(1).staleness(), expects, "{}", p.name());
        }
    }

    #[test]
    fn bounded_budget_is_positive() {
        let StalenessClass::BoundedStaleness { max_batch, max_age } =
            StalenessClass::DEFAULT_BOUNDED
        else {
            panic!("default budget must be bounded");
        };
        assert!(max_batch > 0);
        assert!(!max_age.is_zero());
    }
}
