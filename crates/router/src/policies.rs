//! The built-in placement policies.

use crate::snapshot::{EngineId, EngineSnapshot};
use crate::{RouteDecision, Router, StalenessClass};
use chameleon_models::AdapterId;
use chameleon_simcore::SimRng;
use chameleon_workload::Request;

/// Cycles through engines in listing order, ignoring all state. The
/// baseline every load-aware policy must beat.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates a round-robin router starting at the first listed engine.
    pub fn new() -> Self {
        RoundRobin { next: 0 }
    }
}

impl Router for RoundRobin {
    fn route(&mut self, _req: &Request, engines: &[EngineSnapshot]) -> RouteDecision {
        let engine = self.next % engines.len();
        self.next = (engine + 1) % engines.len();
        RouteDecision::to(engine)
    }

    /// The cursor reads only the fleet *size*, which changes exclusively
    /// at true (non-coalescible) barriers — no load field is consulted.
    fn staleness(&self) -> StalenessClass {
        StalenessClass::StateIndependent
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// The paper's global scheduler (§4.4): dispatch to the engine with the
/// least outstanding resource tokens at arrival. Ties break toward the
/// first listed engine, exactly as the original inlined dispatcher did.
#[derive(Debug, Default)]
pub struct JoinShortestQueue;

impl JoinShortestQueue {
    /// Creates the JSQ router.
    pub fn new() -> Self {
        JoinShortestQueue
    }
}

impl Router for JoinShortestQueue {
    fn route(&mut self, _req: &Request, engines: &[EngineSnapshot]) -> RouteDecision {
        let engine = engines
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.outstanding_tokens)
            .map(|(i, _)| i)
            .expect("non-empty cluster");
        RouteDecision::to(engine)
    }

    /// Reads `outstanding_tokens`, so it tolerates only the default
    /// bounded staleness budget: between refreshes the cached snapshots
    /// drift from the live engines by at most the batch size per engine
    /// (the coordinator echoes its own placements into the cache).
    fn staleness(&self) -> StalenessClass {
        StalenessClass::DEFAULT_BOUNDED
    }

    fn name(&self) -> &'static str {
        "join-shortest-queue"
    }
}

/// Power-of-two-choices: sample two distinct engines uniformly, keep the
/// one with fewer outstanding tokens. O(1) state reads per dispatch with
/// near-JSQ balance — the classic scalable alternative when probing every
/// engine is too expensive.
#[derive(Debug)]
pub struct PowerOfTwoChoices {
    rng: SimRng,
}

impl PowerOfTwoChoices {
    /// Creates the router with its own deterministic RNG stream.
    pub fn new(seed: u64) -> Self {
        let mut root = SimRng::seed(seed);
        PowerOfTwoChoices {
            rng: root.fork("power-of-two-router"),
        }
    }
}

impl Router for PowerOfTwoChoices {
    fn route(&mut self, _req: &Request, engines: &[EngineSnapshot]) -> RouteDecision {
        let n = engines.len();
        if n == 1 {
            return RouteDecision::to(0);
        }
        let a = self.rng.below(n as u64) as usize;
        let mut b = self.rng.below((n - 1) as u64) as usize;
        if b >= a {
            b += 1;
        }
        let engine = if engines[b].outstanding_tokens < engines[a].outstanding_tokens
            || (engines[b].outstanding_tokens == engines[a].outstanding_tokens && b < a)
        {
            b
        } else {
            a
        };
        RouteDecision::to(engine)
    }

    /// Samples `outstanding_tokens` of its pair, so it declares the same
    /// bounded budget as JSQ.
    fn staleness(&self) -> StalenessClass {
        StalenessClass::DEFAULT_BOUNDED
    }

    fn name(&self) -> &'static str {
        "power-of-two"
    }
}

/// Where an overloaded adapter-affinity home diverts its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillTarget {
    /// The adapter's *second* rendezvous choice: every adapter gets a
    /// stable fallback engine, so spilled load forms a 2-replica partition
    /// instead of scattering across whichever engine happens to be idle.
    SecondChoice,
    /// The globally least-loaded engine — the pre-weighted-rendezvous
    /// behaviour, kept for behaviour-preservation oracles and comparison.
    LeastLoaded,
}

/// Adapter-affinity placement: weighted rendezvous (highest-random-weight)
/// hashing maps each adapter to a *home* engine, concentrating an
/// adapter's requests so its weights stay hot on one replica — the fleet
/// partitions the adapter working set instead of replicating it. When the
/// home engine is saturated relative to the spill target, the request
/// *spills* there instead, trading a likely cache miss for load balance;
/// with the default [`SpillTarget::SecondChoice`] even the spills land on
/// one stable fallback engine per adapter.
///
/// Rendezvous hashing over stable [`EngineId`]s gives the elasticity
/// property the cluster needs: when an engine joins, only the adapters
/// whose top-scoring engine is the new one move, and when an engine
/// drains, only the adapters it was home to move; every other assignment
/// is untouched (no global reshuffle). Capacity weights make unequal
/// engines (TP4 next to TP1, A100 next to A40) win proportional shards.
#[derive(Debug)]
pub struct AdapterAffinity {
    /// Spill when `home_load > spill_slack + spill_factor × target_load`.
    spill_factor: f64,
    /// Absolute token slack before the factor test can trigger.
    spill_slack: u64,
    /// Where spilled requests go.
    spill_target: SpillTarget,
    /// When false, the spill branch is disabled entirely: placement is
    /// pure weighted rendezvous on `(id, weight)` and never reads a load
    /// field, making the policy state-independent.
    spill: bool,
}

impl Default for AdapterAffinity {
    fn default() -> Self {
        Self::new()
    }
}

impl AdapterAffinity {
    /// Default spill thresholds: tolerate up to 2× the spill target's load
    /// plus 4096 tokens of slack before abandoning affinity; spill to the
    /// adapter's second rendezvous choice.
    pub fn new() -> Self {
        AdapterAffinity {
            spill_factor: 2.0,
            spill_slack: 4096,
            spill_target: SpillTarget::SecondChoice,
            spill: true,
        }
    }

    /// Pure weighted-rendezvous placement: every request goes to its
    /// adapter's home engine unconditionally. Placement depends only on
    /// fleet identity and capacity weights, so the policy declares
    /// [`StalenessClass::StateIndependent`] and whole arrival batches
    /// route from a single snapshot generation byte-identically to
    /// per-arrival dispatch.
    pub fn without_spill() -> Self {
        AdapterAffinity {
            spill: false,
            ..AdapterAffinity::new()
        }
    }

    /// Overrides the spill thresholds.
    pub fn with_spill(spill_factor: f64, spill_slack: u64) -> Self {
        assert!(
            spill_factor >= 1.0,
            "factor {spill_factor} < 1 always spills"
        );
        AdapterAffinity {
            spill_factor,
            spill_slack,
            ..AdapterAffinity::new()
        }
    }

    /// Overrides where spilled requests are diverted.
    pub fn with_spill_target(mut self, target: SpillTarget) -> Self {
        self.spill_target = target;
        self
    }
}

impl Router for AdapterAffinity {
    fn route(&mut self, req: &Request, engines: &[EngineSnapshot]) -> RouteDecision {
        // Racks are `None` unless the cluster stamped a fault-domain
        // topology, in which case the spill fallback is anti-affine: the
        // best-ranked engine outside the home's rack.
        let (home, second) = rendezvous_top2_domains(
            req.adapter(),
            engines.iter().map(|s| (s.id, s.weight, s.rack)),
        );
        if !self.spill {
            return RouteDecision::to(home);
        }
        let target = match self.spill_target {
            SpillTarget::SecondChoice => second,
            SpillTarget::LeastLoaded => engines
                .iter()
                .enumerate()
                .map(|(i, s)| (i, s.outstanding_tokens))
                .min_by_key(|&(_, load)| load)
                .map(|(i, _)| i),
        };
        let Some(target) = target.filter(|&t| t != home) else {
            return RouteDecision::to(home);
        };
        let home_load = engines[home].outstanding_tokens;
        let target_load = engines[target].outstanding_tokens;
        let threshold = self.spill_slack
            + (self.spill_factor * target_load as f64).min(u64::MAX as f64 / 2.0) as u64;
        if home_load > threshold {
            RouteDecision {
                engine: target,
                spilled: true,
            }
        } else {
            RouteDecision::to(home)
        }
    }

    fn uses_affinity(&self) -> bool {
        true
    }

    /// With spill enabled the policy reads `outstanding_tokens` and keeps
    /// the conservative bounded budget; with spill disabled it is pure
    /// rendezvous and state-independent.
    fn staleness(&self) -> StalenessClass {
        if self.spill {
            StalenessClass::DEFAULT_BOUNDED
        } else {
            StalenessClass::StateIndependent
        }
    }

    fn name(&self) -> &'static str {
        if self.spill {
            "adapter-affinity"
        } else {
            "adapter-affinity-nospill"
        }
    }
}

/// The weighted-rendezvous home of `adapter` over `(id, weight)` pairs:
/// the position (in iteration order) of the highest-scoring engine.
///
/// Pure in the pair set: `home` is independent of listing order up to the
/// returned position, of any engine *not* listed, and of uniform weight
/// rescaling. Growing or shrinking the set only remaps adapters whose
/// top choice is the added/removed engine — the minimal-re-homing
/// guarantee the elastic cluster asserts end to end.
///
/// # Panics
///
/// Panics if `engines` is empty or any weight is not positive.
pub fn rendezvous_home<I>(adapter: AdapterId, engines: I) -> usize
where
    I: IntoIterator<Item = (EngineId, f64)>,
{
    rendezvous_top2(adapter, engines).0
}

/// The top two weighted-rendezvous choices of `adapter`: the home
/// position and, when more than one engine is listed, the stable
/// second-choice position (the spill fallback of 2-replica partitioning).
///
/// # Panics
///
/// Panics if `engines` is empty or any weight is not positive.
pub fn rendezvous_top2<I>(adapter: AdapterId, engines: I) -> (usize, Option<usize>)
where
    I: IntoIterator<Item = (EngineId, f64)>,
{
    rendezvous_top2_domains(adapter, engines.into_iter().map(|(id, w)| (id, w, None)))
}

/// Domain-aware top two: the home is the plain weighted-rendezvous argmax
/// (identical to [`rendezvous_top2`] — homes never move when a topology is
/// attached, preserving minimal re-homing), but the second choice prefers
/// the best-ranked engine *outside the home's fault domain* whenever one
/// exists. Engines racked `None` are singleton domains, so an all-`None`
/// set reproduces [`rendezvous_top2`] exactly; a single-domain fleet
/// degrades gracefully to the plain (same-domain) second choice.
///
/// # Panics
///
/// Panics if `engines` is empty or any weight is not positive.
pub fn rendezvous_top2_domains<I>(adapter: AdapterId, engines: I) -> (usize, Option<usize>)
where
    I: IntoIterator<Item = (EngineId, f64, Option<u32>)>,
{
    // Score = weight / -ln(h), h ∈ (0,1) from the 64-bit mix — the
    // standard weighted-HRW construction: an engine's win probability is
    // proportional to its weight, and scores for surviving engines are
    // unchanged when the set changes. Ties (possible only through f64
    // mantissa collapse of nearby hashes) break on the raw hash, which
    // makes the equal-weight case order engines *exactly* like the
    // pre-weight refactor's raw-u64 argmax.
    let beats = |a: &(usize, f64, u64), b: &(usize, f64, u64)| {
        // Later entries win exact ties, matching `Iterator::max_by_key`
        // over the raw hashes.
        (a.1, a.2) >= (b.1, b.2)
    };
    // `None` racks are singleton domains: only two engines in the *same*
    // `Some` rack count as co-located.
    let same_domain = |a: Option<u32>, b: Option<u32>| a.is_some() && a == b;
    let mut best: Option<((usize, f64, u64), Option<u32>)> = None;
    // Plain runner-up (the topology-blind second) — the fallback when no
    // other domain exists.
    let mut second: Option<(usize, f64, u64)> = None;
    // Best candidate outside `best`'s domain. When the overall best moves
    // to a *different* domain the dethroned best dominates every other
    // seen candidate and is itself eligible, so it takes this slot; when
    // the best is merely replaced within its own domain the eligible set
    // is unchanged.
    let mut other: Option<(usize, f64, u64)> = None;
    let mut n = 0usize;
    for (pos, (id, weight, rack)) in engines.into_iter().enumerate() {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "engine {id} has non-positive weight {weight}"
        );
        n += 1;
        let raw = rendezvous_score(adapter, id);
        // (raw >> 11) + 0.5 maps the hash into (0, 2^53): h never hits 0
        // or 1, so -ln(h) is finite and positive.
        let h = ((raw >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
        let score = weight / -h.ln();
        let cand = (pos, score, raw);
        match best {
            Some((b, dom)) if !beats(&cand, &b) => {
                if second.is_none_or(|s| beats(&cand, &s)) {
                    second = Some(cand);
                }
                if !same_domain(rack, dom) && other.is_none_or(|o| beats(&cand, &o)) {
                    other = Some(cand);
                }
            }
            Some((b, dom)) => {
                second = Some(b);
                if !same_domain(rack, dom) {
                    other = Some(b);
                }
                best = Some((cand, rack));
            }
            None => {
                best = Some((cand, rack));
            }
        }
    }
    assert!(n > 0, "empty cluster");
    (best.expect("non-empty").0 .0, other.or(second).map(|s| s.0))
}

/// The HRW score of `(adapter, engine)` — a stateless 64-bit mix keyed on
/// the engine's stable identity.
fn rendezvous_score(adapter: AdapterId, engine: EngineId) -> u64 {
    let mut z =
        (u64::from(adapter.0) << 32) ^ u64::from(engine.0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_models::AdapterRank;
    use chameleon_simcore::SimTime;
    use chameleon_workload::RequestId;
    use std::collections::HashSet;

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

    fn uniform(n: usize) -> Vec<(EngineId, f64)> {
        (0..n).map(|i| (EngineId(i as u32), 1.0)).collect()
    }

    fn snaps_with_loads(loads: &[u64]) -> Vec<EngineSnapshot> {
        loads
            .iter()
            .enumerate()
            .map(|(i, &load)| EngineSnapshot {
                outstanding_tokens: load,
                ..EngineSnapshot::idle(EngineId(i as u32))
            })
            .collect()
    }

    /// The pre-refactor unweighted rendezvous: raw-u64 argmax over engine
    /// positions 0..n. The weighted function with uniform weights must
    /// reproduce it exactly (the identity/weight refactor is
    /// behaviour-preserving for fixed homogeneous fleets).
    fn legacy_home(adapter: AdapterId, n_engines: usize) -> usize {
        (0..n_engines)
            .max_by_key(|&e| rendezvous_score(adapter, EngineId(e as u32)))
            .expect("non-empty range")
    }

    #[test]
    fn uniform_weights_reproduce_legacy_rendezvous_exactly() {
        for n in 1..9usize {
            for a in 0..600 {
                assert_eq!(
                    rendezvous_home(AdapterId(a), uniform(n)),
                    legacy_home(AdapterId(a), n),
                    "adapter {a} over {n} engines"
                );
            }
        }
    }

    #[test]
    fn round_robin_cycles() {
        let snaps = snaps_with_loads(&[0, 0, 0]);
        let mut r = RoundRobin::new();
        let picks: Vec<usize> = (0..6).map(|i| r.route(&req(i, 0), &snaps).engine).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn jsq_picks_least_loaded_lowest_index_on_tie() {
        let mut r = JoinShortestQueue::new();
        assert_eq!(r.route(&req(0, 0), &snaps_with_loads(&[5, 2, 9])).engine, 1);
        assert_eq!(r.route(&req(1, 0), &snaps_with_loads(&[4, 4, 9])).engine, 0);
    }

    #[test]
    fn power_of_two_prefers_lighter_of_its_pair() {
        // With one empty engine and the rest heavily loaded, p2c must land
        // on the empty engine whenever it is sampled; over many trials the
        // empty engine receives well over its uniform share.
        let snaps = snaps_with_loads(&[10_000, 10_000, 0, 10_000]);
        let mut r = PowerOfTwoChoices::new(42);
        let mut hits = 0;
        for i in 0..1000 {
            if r.route(&req(i, 0), &snaps).engine == 2 {
                hits += 1;
            }
        }
        assert!(hits > 400, "engine 2 only got {hits}/1000");
    }

    #[test]
    fn power_of_two_is_deterministic_per_seed() {
        let snaps = snaps_with_loads(&[3, 1, 4, 1, 5]);
        let run = |seed| {
            let mut r = PowerOfTwoChoices::new(seed);
            (0..64)
                .map(|i| r.route(&req(i, 0), &snaps).engine)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn affinity_sticks_to_home_when_balanced() {
        let snaps = snaps_with_loads(&[100, 100, 100, 100]);
        let mut r = AdapterAffinity::new();
        for a in 0..50 {
            let d = r.route(&req(u64::from(a), a), &snaps);
            assert_eq!(d.engine, rendezvous_home(AdapterId(a), uniform(4)));
            assert!(!d.spilled);
        }
    }

    #[test]
    fn affinity_spills_to_second_choice_off_saturated_home() {
        let mut r = AdapterAffinity::with_spill(2.0, 100);
        // Find an adapter homed on engine 0 whose second choice is NOT the
        // least-loaded engine, then overload engine 0.
        let (a, second) = (0..1000)
            .map(AdapterId)
            .filter_map(|a| {
                let (home, second) = rendezvous_top2(a, uniform(4));
                (home == 0).then(|| (a, second.expect("4 engines")))
            })
            .find(|&(_, second)| second != 1)
            .expect("some adapter homes on 0 with second choice off engine 1");
        let mut loads = [10u64; 4];
        loads[0] = 50_000;
        loads[1] = 0; // global least-loaded, deliberately not the fallback
        let d = r.route(&req(0, a.0), &snaps_with_loads(&loads));
        assert!(d.spilled);
        assert_eq!(
            d.engine, second,
            "spill goes to the adapter's second rendezvous choice"
        );
        // Balanced again: back home, no spill.
        let d = r.route(&req(1, a.0), &snaps_with_loads(&[30, 10, 20, 25]));
        assert_eq!(d.engine, 0);
        assert!(!d.spilled);
    }

    #[test]
    fn no_spill_variant_is_pure_rendezvous_even_when_saturated() {
        let mut r = AdapterAffinity::without_spill();
        assert_eq!(r.name(), "adapter-affinity-nospill");
        assert_eq!(r.staleness(), StalenessClass::StateIndependent);
        assert!(r.uses_affinity());
        // A grotesquely overloaded home still receives its shard: the load
        // columns are never consulted.
        for a in 0..50 {
            let mut loads = [10u64; 4];
            let home = rendezvous_home(AdapterId(a), uniform(4));
            loads[home] = u64::MAX / 4;
            let d = r.route(&req(u64::from(a), a), &snaps_with_loads(&loads));
            assert_eq!(d.engine, home);
            assert!(!d.spilled);
        }
    }

    #[test]
    fn spilling_affinity_keeps_the_bounded_budget() {
        assert_eq!(
            AdapterAffinity::new().staleness(),
            StalenessClass::DEFAULT_BOUNDED
        );
        assert_eq!(AdapterAffinity::new().name(), "adapter-affinity");
    }

    #[test]
    fn legacy_spill_target_goes_to_least_loaded() {
        let mut r =
            AdapterAffinity::with_spill(2.0, 100).with_spill_target(SpillTarget::LeastLoaded);
        let a = (0..1000)
            .map(AdapterId)
            .find(|&a| rendezvous_home(a, uniform(3)) == 0)
            .expect("some adapter homes on engine 0");
        let snaps = snaps_with_loads(&[50_000, 10, 20]);
        let d = r.route(&req(0, a.0), &snaps);
        assert!(d.spilled);
        assert_eq!(d.engine, 1, "legacy spill goes to the least-loaded");
    }

    #[test]
    fn second_choice_is_stable_and_distinct() {
        for a in 0..300 {
            let (home, second) = rendezvous_top2(AdapterId(a), uniform(5));
            let second = second.expect("5 engines");
            assert_ne!(home, second);
            assert_eq!(
                (home, Some(second)),
                rendezvous_top2(AdapterId(a), uniform(5))
            );
            // Removing the home promotes the second choice to home.
            let without_home: Vec<(EngineId, f64)> = uniform(5)
                .into_iter()
                .enumerate()
                .filter(|&(pos, _)| pos != home)
                .map(|(_, e)| e)
                .collect();
            let new_home_pos = rendezvous_home(AdapterId(a), without_home.clone());
            assert_eq!(
                without_home[new_home_pos].0,
                EngineId(second as u32),
                "adapter {a}: second choice must take over when home drains"
            );
        }
    }

    #[test]
    fn rendezvous_covers_all_engines() {
        // 500 adapters over 8 engines: every engine is some adapter's home,
        // and no engine hoards more than a few times its fair share.
        let n = 8;
        let mut counts = vec![0u32; n];
        for a in 0..500 {
            counts[rendezvous_home(AdapterId(a), uniform(n))] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "uncovered engine: {counts:?}"
        );
        let max = *counts.iter().max().unwrap();
        assert!(max < 3 * (500 / n as u32), "hot spot: {counts:?}");
    }

    #[test]
    fn capacity_weights_win_proportional_shards() {
        // Weights 1,1,2,4: the TP4 engine should take roughly half the
        // adapters, the TP2 engine roughly a quarter.
        let engines = vec![
            (EngineId(0), 1.0),
            (EngineId(1), 1.0),
            (EngineId(2), 2.0),
            (EngineId(3), 4.0),
        ];
        let total = 4000u32;
        let mut counts = [0u32; 4];
        for a in 0..total {
            counts[rendezvous_home(AdapterId(a), engines.clone())] += 1;
        }
        let share = |i: usize| f64::from(counts[i]) / f64::from(total);
        assert!((share(3) - 0.5).abs() < 0.05, "TP4 shard: {counts:?}");
        assert!((share(2) - 0.25).abs() < 0.05, "TP2 shard: {counts:?}");
        assert!((share(0) - 0.125).abs() < 0.04, "TP1 shard: {counts:?}");
        // Rescaling all weights uniformly changes nothing.
        let scaled: Vec<(EngineId, f64)> = engines.iter().map(|&(id, w)| (id, w * 7.5)).collect();
        for a in 0..500 {
            assert_eq!(
                rendezvous_home(AdapterId(a), engines.clone()),
                rendezvous_home(AdapterId(a), scaled.clone())
            );
        }
    }

    #[test]
    fn rendezvous_is_stable_when_an_engine_is_added() {
        // Growing the set moves only adapters whose new home is the new
        // engine; every other assignment is untouched. Ids are deliberately
        // non-contiguous: identity, not position, is what matters.
        for n in 1..8usize {
            let before: Vec<(EngineId, f64)> =
                (0..n).map(|i| (EngineId(i as u32 * 3 + 1), 1.0)).collect();
            let mut after = before.clone();
            after.push((EngineId(99), 2.0));
            let mut moved_elsewhere = 0;
            let mut moved_to_new = HashSet::new();
            for a in 0..400 {
                let home_before = before[rendezvous_home(AdapterId(a), before.clone())].0;
                let home_after = after[rendezvous_home(AdapterId(a), after.clone())].0;
                if home_after != home_before {
                    if home_after == EngineId(99) {
                        moved_to_new.insert(a);
                    } else {
                        moved_elsewhere += 1;
                    }
                }
            }
            assert_eq!(
                moved_elsewhere, 0,
                "n={n}: adapters moved between surviving engines"
            );
            assert!(
                !moved_to_new.is_empty(),
                "n={n}: the new engine attracted nothing"
            );
            // The weight-2 newcomer expects ~2/(n+2) of 400; allow slack.
            assert!(
                moved_to_new.len() < 400 * 6 / (n + 2),
                "n={n}: {} adapters moved",
                moved_to_new.len(),
            );
        }
    }

    fn uniform_racked(racks: &[u32]) -> Vec<(EngineId, f64, Option<u32>)> {
        racks
            .iter()
            .enumerate()
            .map(|(i, &r)| (EngineId(i as u32), 1.0, Some(r)))
            .collect()
    }

    #[test]
    fn all_none_racks_reproduce_plain_top2_exactly() {
        for n in 1..9usize {
            for a in 0..400 {
                let plain = rendezvous_top2(AdapterId(a), uniform(n));
                let domained = rendezvous_top2_domains(
                    AdapterId(a),
                    uniform(n).into_iter().map(|(id, w)| (id, w, None)),
                );
                assert_eq!(plain, domained, "adapter {a} over {n} unracked engines");
            }
        }
    }

    #[test]
    fn anti_affine_second_leaves_the_home_rack() {
        let racks = [0u32, 0, 1, 1];
        let set = uniform_racked(&racks);
        for a in 0..400 {
            let (home, second) = rendezvous_top2_domains(AdapterId(a), set.iter().copied());
            let second = second.expect("4 engines");
            // Homes are topology-blind: identical to plain rendezvous.
            assert_eq!(home, rendezvous_home(AdapterId(a), uniform(4)));
            assert_ne!(
                racks[home], racks[second],
                "adapter {a}: spill target colocated with its primary"
            );
        }
    }

    #[test]
    fn single_rack_fleet_degrades_to_plain_second() {
        let set = uniform_racked(&[7, 7, 7, 7, 7]);
        for a in 0..300 {
            assert_eq!(
                rendezvous_top2_domains(AdapterId(a), set.iter().copied()),
                rendezvous_top2(AdapterId(a), uniform(5)),
                "adapter {a}: one rack means nothing to avoid"
            );
        }
    }

    #[test]
    fn affinity_spill_prefers_the_other_rack() {
        let mut r = AdapterAffinity::with_spill(2.0, 100);
        let racks = [0u32, 0, 1, 1];
        // An adapter homed in rack 0 whose *plain* second choice is also in
        // rack 0 — anti-affinity must divert the spill to rack 1.
        let adapter = (0..2000)
            .map(AdapterId)
            .find(|&a| {
                let (home, second) = rendezvous_top2(a, uniform(4));
                home < 2 && second.expect("4 engines") < 2
            })
            .expect("some adapter has both top choices in rack 0");
        let mut snaps = snaps_with_loads(&[10, 10, 10, 10]);
        for (s, &rack) in snaps.iter_mut().zip(racks.iter()) {
            s.rack = Some(rack);
        }
        let home = rendezvous_home(adapter, uniform(4));
        snaps[home].outstanding_tokens = 50_000;
        let d = r.route(&req(0, adapter.0), &snaps);
        assert!(d.spilled);
        assert!(
            racks[d.engine] != racks[home],
            "spill landed in the home's rack"
        );
    }

    #[test]
    fn rendezvous_is_deterministic() {
        for a in 0..100 {
            assert_eq!(
                rendezvous_top2(AdapterId(a), uniform(5)),
                rendezvous_top2(AdapterId(a), uniform(5))
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Builds a fleet with distinct ids from raw draws; weights come
        /// from the TP-like set {1, 2, 4}.
        fn fleet(raw_ids: &[u32], raw_weights: &[u8]) -> Vec<(EngineId, f64)> {
            let mut seen = std::collections::HashSet::new();
            raw_ids
                .iter()
                .filter(|&&id| seen.insert(id))
                .zip(raw_weights.iter().cycle())
                .map(|(&id, &w)| (EngineId(id), f64::from(1u32 << (w % 3))))
                .collect()
        }

        fn home_id(adapter: AdapterId, set: &[(EngineId, f64)]) -> EngineId {
            set[rendezvous_home(adapter, set.iter().copied())].0
        }

        /// Attaches racks (drawn from a small pool) to a fleet.
        fn rack_fleet(
            set: &[(EngineId, f64)],
            raw_racks: &[u8],
            rack_pool: u8,
        ) -> Vec<(EngineId, f64, Option<u32>)> {
            set.iter()
                .zip(raw_racks.iter().cycle())
                .map(|(&(id, w), &r)| (id, w, Some(u32::from(r % rack_pool.max(1)))))
                .collect()
        }

        proptest! {
            /// Adding an engine re-homes only the adapters whose new home
            /// is the newcomer — the minimal shard.
            #[test]
            fn prop_add_rehomes_only_the_new_shard(
                raw_ids in proptest::collection::vec(0u32..500, 1..8),
                raw_weights in proptest::collection::vec(0u8..3, 8..9),
                new_weight in 0u8..3,
            ) {
                let before = fleet(&raw_ids, &raw_weights);
                let newcomer = EngineId(999);
                let mut after = before.clone();
                after.push((newcomer, f64::from(1u32 << (new_weight % 3))));
                for a in 0..160 {
                    let (hb, ha) = (home_id(AdapterId(a), &before), home_id(AdapterId(a), &after));
                    if ha != hb {
                        prop_assert_eq!(
                            ha, newcomer,
                            "adapter {} moved between surviving engines", a
                        );
                    }
                }
            }

            /// Draining an engine re-homes exactly its shard: every adapter
            /// it was home to moves, nothing else does.
            #[test]
            fn prop_drain_rehomes_exactly_the_departing_shard(
                raw_ids in proptest::collection::vec(0u32..500, 2..8),
                raw_weights in proptest::collection::vec(0u8..3, 8..9),
                pick in 0usize..8,
            ) {
                let before = fleet(&raw_ids, &raw_weights);
                if before.len() < 2 {
                    continue;
                }
                let victim = before[pick % before.len()].0;
                let after: Vec<(EngineId, f64)> = before
                    .iter()
                    .copied()
                    .filter(|&(id, _)| id != victim)
                    .collect();
                for a in 0..160 {
                    let (hb, ha) = (home_id(AdapterId(a), &before), home_id(AdapterId(a), &after));
                    if hb == victim {
                        prop_assert!(ha != victim, "adapter {} stayed on drained engine", a);
                    } else {
                        prop_assert_eq!(ha, hb, "adapter {} moved off a survivor", a);
                    }
                }
            }

            /// Reweighting one engine upward only attracts adapters to it;
            /// no adapter moves between the other engines.
            #[test]
            fn prop_upweight_only_attracts_to_the_reweighted_engine(
                raw_ids in proptest::collection::vec(0u32..500, 2..8),
                raw_weights in proptest::collection::vec(0u8..3, 8..9),
                pick in 0usize..8,
            ) {
                let before = fleet(&raw_ids, &raw_weights);
                if before.len() < 2 {
                    continue;
                }
                let target = before[pick % before.len()].0;
                let after: Vec<(EngineId, f64)> = before
                    .iter()
                    .map(|&(id, w)| (id, if id == target { w * 8.0 } else { w }))
                    .collect();
                for a in 0..160 {
                    let (hb, ha) = (home_id(AdapterId(a), &before), home_id(AdapterId(a), &after));
                    if ha != hb {
                        prop_assert_eq!(ha, target, "adapter {} moved away on upweight", a);
                    }
                }
            }

            /// The second choice is deterministic and, when the home
            /// drains, is exactly the engine the adapter re-homes to — the
            /// spill target becomes the new primary.
            #[test]
            fn prop_draining_the_home_promotes_the_second_choice(
                raw_ids in proptest::collection::vec(0u32..500, 2..8),
                raw_weights in proptest::collection::vec(0u8..3, 8..9),
                adapter in 0u32..100_000,
            ) {
                let set = fleet(&raw_ids, &raw_weights);
                if set.len() < 2 {
                    continue;
                }
                let a = AdapterId(adapter);
                let first = rendezvous_top2(a, set.iter().copied());
                prop_assert_eq!(first, rendezvous_top2(a, set.iter().copied()));
                let (home, second) = first;
                let second = second.expect("≥2 engines always have a second choice");
                let survivors: Vec<(EngineId, f64)> = set
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(pos, _)| pos != home)
                    .map(|(_, e)| e)
                    .collect();
                let new_home = survivors[rendezvous_home(a, survivors.iter().copied())].0;
                prop_assert_eq!(
                    new_home, set[second].0,
                    "draining the home must promote exactly the second choice"
                );
            }

            /// The bounded-staleness contract ([`StalenessClass`]): route a
            /// batch of `k ≤ max_batch` requests through JSQ from one
            /// frozen snapshot generation, echoing each placement into the
            /// cache (queue depth +1, outstanding tokens += charge) the way
            /// the cluster coordinator does. Per engine, the cached view
            /// drifts from the frozen generation by exactly its share of
            /// the batch — never more than the declared budget — and the
            /// true queue depth (initial + placements, completions being
            /// the only unobservable) never exceeds the cached view.
            #[test]
            fn prop_bounded_staleness_drift_never_exceeds_the_batch_budget(
                initial in proptest::collection::vec(0u64..5_000, 2..8),
                charges in proptest::collection::vec(1u64..2_048, 1..33),
            ) {
                let StalenessClass::BoundedStaleness { max_batch, .. } =
                    StalenessClass::DEFAULT_BOUNDED
                else {
                    unreachable!("default budget is bounded");
                };
                prop_assert!(charges.len() as u32 <= max_batch);
                let mut snaps = snaps_with_loads(&initial);
                let depth0: Vec<usize> = snaps.iter().map(|s| s.queue_depth).collect();
                let mut placed = vec![0usize; snaps.len()];
                let mut r = JoinShortestQueue::new();
                for (i, &charge) in charges.iter().enumerate() {
                    let d = r.route(&req(i as u64, i as u32), &snaps);
                    prop_assert!(d.engine < snaps.len());
                    placed[d.engine] += 1;
                    snaps[d.engine].queue_depth += 1;
                    snaps[d.engine].outstanding_tokens += charge;
                }
                for (e, snap) in snaps.iter().enumerate() {
                    let drift = snap.queue_depth - depth0[e];
                    prop_assert_eq!(drift, placed[e], "echo must track placements exactly");
                    prop_assert!(
                        drift <= charges.len(),
                        "engine {} drifted {} > batch size {}", e, drift, charges.len()
                    );
                    prop_assert!(
                        drift as u32 <= max_batch,
                        "engine {} drifted past the declared budget", e
                    );
                }
            }

            /// With equal initial loads and equal charges, echoed JSQ
            /// spreads a batch evenly: no engine receives more than one
            /// request over its fair share, so batching cannot manufacture
            /// imbalance beyond the documented bound.
            #[test]
            fn prop_echoed_jsq_spreads_a_uniform_batch_evenly(
                n in 2usize..8,
                k in 1usize..33,
                base in 0u64..1_000,
            ) {
                let mut snaps = snaps_with_loads(&vec![base; n]);
                let mut placed = vec![0usize; n];
                let mut r = JoinShortestQueue::new();
                for i in 0..k {
                    let d = r.route(&req(i as u64, 0), &snaps);
                    placed[d.engine] += 1;
                    snaps[d.engine].queue_depth += 1;
                    snaps[d.engine].outstanding_tokens += 512;
                }
                let max = *placed.iter().max().unwrap();
                let min = *placed.iter().min().unwrap();
                prop_assert!(
                    max - min <= 1,
                    "uniform batch spread {:?} is lumpier than round-robin", placed
                );
            }

            /// Anti-affinity never selects a same-domain spill target
            /// while another domain has capacity:
            /// whenever the fleet spans ≥2 racks, the second choice lives
            /// outside the home's rack — and the home itself is exactly
            /// the topology-blind rendezvous home (homes never move when a
            /// topology is attached).
            #[test]
            fn prop_anti_affinity_never_colocates_while_another_domain_has_capacity(
                raw_ids in proptest::collection::vec(0u32..500, 2..8),
                raw_weights in proptest::collection::vec(0u8..3, 8..9),
                raw_racks in proptest::collection::vec(0u8..4, 8..9),
                rack_pool in 2u8..4,
                adapter in 0u32..100_000,
            ) {
                let set = fleet(&raw_ids, &raw_weights);
                if set.len() < 2 {
                    continue;
                }
                let racked = rack_fleet(&set, &raw_racks, rack_pool);
                let a = AdapterId(adapter);
                let (home, second) =
                    rendezvous_top2_domains(a, racked.iter().copied());
                prop_assert_eq!(
                    home,
                    rendezvous_home(a, set.iter().copied()),
                    "topology moved a home"
                );
                let second = second.expect("≥2 engines have a second choice");
                let racks: std::collections::HashSet<_> =
                    racked.iter().map(|e| e.2).collect();
                if racks.len() >= 2 {
                    prop_assert!(
                        racked[second].2 != racked[home].2,
                        "adapter {} colocated with its primary while rack capacity existed",
                        adapter
                    );
                }
            }

            /// A single-domain fleet degrades gracefully: the domain-aware
            /// top-2 equals the plain top-2 exactly, both when every
            /// engine shares one rack and when no engine is racked at all.
            #[test]
            fn prop_single_domain_degrades_to_plain_top2(
                raw_ids in proptest::collection::vec(0u32..500, 1..8),
                raw_weights in proptest::collection::vec(0u8..3, 8..9),
                rack in 0u32..8,
                adapter in 0u32..100_000,
            ) {
                let set = fleet(&raw_ids, &raw_weights);
                let a = AdapterId(adapter);
                let plain = rendezvous_top2(a, set.iter().copied());
                let one_rack: Vec<_> =
                    set.iter().map(|&(id, w)| (id, w, Some(rack))).collect();
                prop_assert_eq!(
                    rendezvous_top2_domains(a, one_rack.iter().copied()),
                    plain,
                    "single-rack fleet diverged from plain rendezvous"
                );
                let unracked: Vec<_> =
                    set.iter().map(|&(id, w)| (id, w, None)).collect();
                prop_assert_eq!(
                    rendezvous_top2_domains(a, unracked.iter().copied()),
                    plain,
                    "unracked fleet diverged from plain rendezvous"
                );
            }

            /// Add/drain re-homing stays minimal with a topology attached:
            /// because domain-aware homes equal plain homes, growing the
            /// racked fleet moves only the newcomer's shard and draining
            /// an engine moves exactly its shard.
            #[test]
            fn prop_rehoming_stays_minimal_with_topology_attached(
                raw_ids in proptest::collection::vec(0u32..500, 2..8),
                raw_weights in proptest::collection::vec(0u8..3, 8..9),
                raw_racks in proptest::collection::vec(0u8..4, 9..10),
                rack_pool in 1u8..4,
                pick in 0usize..8,
            ) {
                let set = fleet(&raw_ids, &raw_weights);
                if set.len() < 2 {
                    continue;
                }
                let racked = rack_fleet(&set, &raw_racks, rack_pool);
                let home_of = |a: AdapterId, s: &[(EngineId, f64, Option<u32>)]| {
                    s[rendezvous_top2_domains(a, s.iter().copied()).0].0
                };
                // Grow: only the newcomer attracts adapters.
                let mut grown = racked.clone();
                grown.push((EngineId(999), 2.0, Some(u32::from(rack_pool))));
                for a in 0..120 {
                    let (hb, ha) = (home_of(AdapterId(a), &racked), home_of(AdapterId(a), &grown));
                    if ha != hb {
                        prop_assert_eq!(ha, EngineId(999), "adapter {} moved off a survivor", a);
                    }
                }
                // Drain: exactly the victim's shard moves.
                let victim = racked[pick % racked.len()].0;
                let drained: Vec<_> = racked
                    .iter()
                    .copied()
                    .filter(|&(id, _, _)| id != victim)
                    .collect();
                for a in 0..120 {
                    let (hb, ha) =
                        (home_of(AdapterId(a), &racked), home_of(AdapterId(a), &drained));
                    if hb == victim {
                        prop_assert!(ha != victim, "adapter {} stayed on drained engine", a);
                    } else {
                        prop_assert_eq!(ha, hb, "adapter {} moved off a survivor", a);
                    }
                }
            }

            /// Placement (home and spill fallback) is a deterministic pure
            /// function of the fleet.
            #[test]
            fn prop_top2_is_deterministic(
                raw_ids in proptest::collection::vec(0u32..500, 1..8),
                raw_weights in proptest::collection::vec(0u8..3, 8..9),
                adapter in 0u32..100_000,
            ) {
                let set = fleet(&raw_ids, &raw_weights);
                let first = rendezvous_top2(AdapterId(adapter), set.iter().copied());
                let again = rendezvous_top2(AdapterId(adapter), set.iter().copied());
                prop_assert_eq!(first, again);
                let (home, second) = first;
                prop_assert!(home < set.len());
                if let Some(second) = second {
                    prop_assert!(second < set.len());
                    prop_assert!(second != home);
                } else {
                    prop_assert_eq!(set.len(), 1);
                }
            }
        }
    }
}
