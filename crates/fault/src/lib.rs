//! Deterministic fault injection for the cluster simulator.
//!
//! A [`FaultSpec`] is a *seeded, pre-compiled schedule* of failures plus
//! the recovery policy knobs (failure-detection timeout, capped
//! exponential retry backoff, retry budget, SLO-aware shedding
//! threshold, crash-time shard recovery).
//!
//! Every scheduled fault names what it hits, a [`FaultTarget`]: one
//! engine, or every engine the fleet topology assigns to a rack (the
//! correlated failure unit). The schedule is three lists:
//!
//! * `crashes` — hard crashes at fixed times; a rack target is a
//!   whole-domain crash;
//! * `slowdowns` — [`SlowdownWindow`]s multiplying step durations, a
//!   straggler on an engine or a brownout on a rack; an engine inside
//!   several open windows runs at the largest factor;
//! * `partitions` — [`PartitionWindow`]s cutting a rack off from the
//!   coordinator until they heal.
//!
//! PCIe transfer failures with a per-transfer probability and delayed or
//! failed autoscaler provisioning complete the plane.
//!
//! Determinism is the design constraint everything here serves:
//!
//! * Scheduled faults ([`FaultTimeline`]) are compiled once from the spec
//!   into a sorted event list; the cluster coordinator observes them only
//!   at barriers, exactly like arrivals and autoscale ticks, so serial
//!   and parallel execution stay bit-identical by construction.
//! * Probabilistic faults (PCIe transfer failures, provisioning failures)
//!   are *counter-hashed*, not drawn from a shared RNG: each roll hashes
//!   `(seed, stream, counter)` with a splitmix64 finaliser. Engine-local
//!   streams are keyed by engine id and advance with engine-local
//!   counters, so thread-confined engine state rolls the same sequence
//!   regardless of worker count or step interleaving.
//!
//! The spec is carried as `Option<FaultSpec>` by the system config; when
//! absent no layer allocates, rolls, or branches beyond a single `None`
//! check, and every run is byte-for-byte what it was before the fault
//! plane existed.

use chameleon_simcore::{SimDuration, SimTime};

/// What a scheduled fault hits: one engine, or every engine of one rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// One engine, by raw id (the cluster's `EngineId.0`). A fault aimed
    /// at an engine that is not in the fleet is moot.
    Engine(u32),
    /// Every engine pinned to the rack (fault domain) by the fleet
    /// topology. A rack no engine lives in is moot.
    Rack(u32),
}

/// One transient slowdown window: between `from` and `until` the target's
/// step (iteration) durations are multiplied by `factor` — a straggler
/// when the target is an engine, a brownout (a shared power cap, a
/// top-of-rack switch melting down) when it is a rack. An engine inside
/// several open windows runs at the largest factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownWindow {
    /// The engine or rack that slows down.
    pub target: FaultTarget,
    /// Window start (inclusive), observed at the first barrier ≥ `from`.
    pub from: SimTime,
    /// Window end, observed at the first barrier ≥ `until`.
    pub until: SimTime,
    /// Per-step slowdown factor (e.g. `3.0` = steps take 3× as long).
    pub factor: f64,
}

/// One coordinator↔domain partition window: between `from` and `until`
/// the rack is unreachable — dispatch and retry traffic routes around it,
/// in-flight victims are pulled into the retry ledger (re-dispatched on
/// heal or timeout, whichever is sooner) and the engines rejoin intact
/// when the partition heals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    /// Rack (fault domain) cut off from the coordinator.
    pub rack: u32,
    /// Partition start (inclusive), observed at the first barrier ≥ `from`.
    pub from: SimTime,
    /// Heal time, observed at the first barrier ≥ `until`.
    pub until: SimTime,
}

/// A seeded, deterministic fault schedule plus the recovery policy.
///
/// Constructed with [`FaultSpec::new`] (recovery armed with sane defaults,
/// no faults scheduled) and populated with the `with_*` builders. Carried
/// as `Option<FaultSpec>` on the system config: `None` is the existing
/// perfect-world stack, byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed for the counter-hashed probabilistic faults.
    pub seed: u64,
    /// Hard crashes: `(target, crash time)`. A rack target takes out
    /// every engine of the rack at once. Observed at the first
    /// coordinator barrier ≥ the crash time; the failure detector then
    /// declares the engines dead `detect_timeout` later.
    pub crashes: Vec<(FaultTarget, SimTime)>,
    /// Transient slowdown windows: stragglers and brownouts.
    pub slowdowns: Vec<SlowdownWindow>,
    /// Coordinator↔domain partition windows.
    pub partitions: Vec<PartitionWindow>,
    /// Probability that any single PCIe adapter transfer fails and must
    /// be re-issued (the failed attempt still occupies the link).
    pub pcie_fail_prob: f64,
    /// How long after the crash the failure detector declares the engine
    /// dead and recovery (re-dispatch, shard re-homing) begins.
    pub detect_timeout: SimDuration,
    /// Base retry backoff: attempt `n` waits `retry_backoff · 2^(n-1)`,
    /// capped at [`max_backoff`](Self::max_backoff).
    pub retry_backoff: SimDuration,
    /// Cap on the exponential backoff.
    pub max_backoff: SimDuration,
    /// Retry budget per request; a request that fails more times than
    /// this is counted as failed and leaves the system.
    pub max_retries: u32,
    /// SLO-aware load shedding: refuse admission when the *least-loaded*
    /// engine's estimated TTFT exceeds `shed_multiple × SLO`. `0.0` (the
    /// default) disables shedding.
    pub shed_multiple: f64,
    /// Extra provisioning latency for autoscaler scale-ups: the new
    /// engine joins this long after the controller asked for it.
    pub provision_delay: SimDuration,
    /// Probability that a requested scale-up fails outright (the
    /// controller retries on its own cadence).
    pub provision_fail_prob: f64,
    /// Crash-time shard recovery: warm-load a crashed engine's shard onto
    /// the survivors that inherit it, racing the backlog's re-dispatch.
    /// `false` (the default) leaves the survivors to load it on demand.
    pub shard_recovery: bool,
}

impl FaultSpec {
    /// Recovery policy armed with defaults, no faults scheduled: a 100 ms
    /// failure detector, 50 ms base backoff capped at 2 s, 3 retries,
    /// shedding, provisioning faults and shard recovery off.
    pub fn new() -> Self {
        FaultSpec {
            seed: 0,
            crashes: Vec::new(),
            slowdowns: Vec::new(),
            partitions: Vec::new(),
            pcie_fail_prob: 0.0,
            detect_timeout: SimDuration::from_millis(100),
            retry_backoff: SimDuration::from_millis(50),
            max_backoff: SimDuration::from_secs(2),
            max_retries: 3,
            shed_multiple: 0.0,
            provision_delay: SimDuration::ZERO,
            provision_fail_prob: 0.0,
            shard_recovery: false,
        }
    }

    /// Overrides the fault seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedules a hard crash of `engine` at `at`.
    pub fn with_crash(mut self, engine: u32, at: SimTime) -> Self {
        self.crashes.push((FaultTarget::Engine(engine), at));
        self
    }

    /// Schedules a straggler window on `engine`.
    ///
    /// # Panics
    ///
    /// Panics on an empty window or a factor below 1.
    pub fn with_straggler(self, engine: u32, from: SimTime, until: SimTime, factor: f64) -> Self {
        self.with_slowdown(FaultTarget::Engine(engine), from, until, factor)
    }

    /// Schedules a whole-domain crash: every engine in `rack` crashes at
    /// `at` (correlated failure of a host/rack/power domain).
    pub fn with_domain_crash(mut self, rack: u32, at: SimTime) -> Self {
        self.crashes.push((FaultTarget::Rack(rack), at));
        self
    }

    /// Schedules a domain-scoped brownout: every engine in `rack` runs
    /// `factor`× slower between `from` and `until`.
    ///
    /// # Panics
    ///
    /// Panics on an empty window or a factor below 1.
    pub fn with_domain_brownout(
        self,
        rack: u32,
        from: SimTime,
        until: SimTime,
        factor: f64,
    ) -> Self {
        self.with_slowdown(FaultTarget::Rack(rack), from, until, factor)
    }

    /// The body of [`with_straggler`](Self::with_straggler) and
    /// [`with_domain_brownout`](Self::with_domain_brownout).
    fn with_slowdown(
        mut self,
        target: FaultTarget,
        from: SimTime,
        until: SimTime,
        factor: f64,
    ) -> Self {
        let kind = match target {
            FaultTarget::Engine(_) => "straggler",
            FaultTarget::Rack(_) => "brownout",
        };
        assert!(from < until, "empty {kind} window");
        assert!(factor >= 1.0 && factor.is_finite(), "slowdown factor < 1");
        self.slowdowns.push(SlowdownWindow {
            target,
            from,
            until,
            factor,
        });
        self
    }

    /// Schedules a coordinator↔domain partition: `rack` is unreachable
    /// between `from` and `until`.
    ///
    /// # Panics
    ///
    /// Panics on an empty window.
    pub fn with_partition(mut self, rack: u32, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "empty partition window");
        self.partitions.push(PartitionWindow { rack, from, until });
        self
    }

    /// Arms per-transfer PCIe failures with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p < 1` (a probability of 1 would livelock the
    /// link).
    pub fn with_pcie_fail_prob(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "pcie_fail_prob must be in [0, 1)");
        self.pcie_fail_prob = p;
        self
    }

    /// Overrides the failure-detection timeout.
    pub fn with_detect_timeout(mut self, timeout: SimDuration) -> Self {
        self.detect_timeout = timeout;
        self
    }

    /// Overrides the retry policy (base backoff, cap, budget).
    pub fn with_retry_policy(
        mut self,
        backoff: SimDuration,
        max_backoff: SimDuration,
        max_retries: u32,
    ) -> Self {
        self.retry_backoff = backoff;
        self.max_backoff = max_backoff;
        self.max_retries = max_retries;
        self
    }

    /// Arms SLO-aware shedding at `multiple × SLO` of estimated TTFT.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or non-finite multiple.
    pub fn with_shedding(mut self, multiple: f64) -> Self {
        assert!(multiple > 0.0 && multiple.is_finite(), "bad shed multiple");
        self.shed_multiple = multiple;
        self
    }

    /// Arms provisioning faults: scale-ups land `delay` late and fail
    /// outright with probability `fail_prob`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ fail_prob < 1`.
    pub fn with_provisioning(mut self, delay: SimDuration, fail_prob: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&fail_prob),
            "provision_fail_prob must be in [0, 1)"
        );
        self.provision_delay = delay;
        self.provision_fail_prob = fail_prob;
        self
    }

    /// Arms crash-time shard recovery: a crashed engine's resident
    /// adapters that homed on it are warm-loaded onto their new homes.
    pub fn with_shard_recovery(mut self) -> Self {
        self.shard_recovery = true;
        self
    }

    /// The capped exponential backoff before retry `attempt` (1-based).
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(20);
        let backed =
            SimDuration::from_nanos(self.retry_backoff.as_nanos().saturating_mul(1u64 << exp));
        backed.min(self.max_backoff)
    }

    /// True when shedding is armed.
    pub fn sheds(&self) -> bool {
        self.shed_multiple > 0.0
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::new()
    }
}

/// One scheduled fault popped off the [`FaultTimeline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// The target's engines halt; the failure detector fires
    /// `detect_timeout` later and recovery begins.
    Crash(FaultTarget),
    /// A slowdown window opens: the target's steps slow down by the
    /// factor.
    SlowdownStart(FaultTarget, f64),
    /// The slowdown window with this factor closes; the target's engines
    /// fall back to the largest factor still open on them.
    SlowdownEnd(FaultTarget, f64),
    /// The rack becomes unreachable: traffic routes around it and
    /// in-flight victims enter the retry ledger, due at the carried heal
    /// instant or their retry timeout, whichever is sooner.
    PartitionStart(u32, SimTime),
    /// The partition heals: the rack's engines rejoin the fleet intact.
    PartitionEnd(u32),
}

impl FaultAction {
    /// Rank among faults due at the same instant: engine slowdowns,
    /// engine crashes, rack crashes, rack slowdowns, then partitions.
    fn tie_rank(self) -> u8 {
        match self {
            FaultAction::SlowdownStart(FaultTarget::Engine(_), _)
            | FaultAction::SlowdownEnd(FaultTarget::Engine(_), _) => 0,
            FaultAction::Crash(FaultTarget::Engine(_)) => 1,
            FaultAction::Crash(FaultTarget::Rack(_)) => 2,
            FaultAction::SlowdownStart(FaultTarget::Rack(_), _)
            | FaultAction::SlowdownEnd(FaultTarget::Rack(_), _) => 3,
            FaultAction::PartitionStart(..) | FaultAction::PartitionEnd(_) => 4,
        }
    }
}

/// The spec's scheduled faults compiled into one sorted, replayable event
/// list. Compilation is pure, so every execution mode sees the identical
/// timeline.
#[derive(Debug, Clone)]
pub struct FaultTimeline {
    events: Vec<(SimTime, FaultAction)>,
    next: usize,
}

impl FaultTimeline {
    /// Compiles the spec's crashes, slowdown windows and partitions,
    /// sorted by time; faults at the same instant sort by kind (see
    /// [`FaultAction`]'s tie rank), then by spec order.
    pub fn compile(spec: &FaultSpec) -> Self {
        let mut events = Vec::with_capacity(
            spec.crashes.len() + 2 * spec.slowdowns.len() + 2 * spec.partitions.len(),
        );
        for &(target, at) in &spec.crashes {
            events.push((at, FaultAction::Crash(target)));
        }
        for w in &spec.slowdowns {
            events.push((w.from, FaultAction::SlowdownStart(w.target, w.factor)));
            events.push((w.until, FaultAction::SlowdownEnd(w.target, w.factor)));
        }
        for w in &spec.partitions {
            events.push((w.from, FaultAction::PartitionStart(w.rack, w.until)));
            events.push((w.until, FaultAction::PartitionEnd(w.rack)));
        }
        events.sort_by_key(|&(t, action)| (t, action.tie_rank()));
        FaultTimeline { events, next: 0 }
    }

    /// Time of the next unobserved scheduled fault.
    pub fn peek(&self) -> Option<SimTime> {
        self.events.get(self.next).map(|&(t, _)| t)
    }

    /// Pops the next fault if it is due at or before `t`.
    pub fn pop_due(&mut self, t: SimTime) -> Option<FaultAction> {
        match self.events.get(self.next) {
            Some(&(at, action)) if at <= t => {
                self.next += 1;
                Some(action)
            }
            _ => None,
        }
    }

    /// Number of scheduled faults not yet observed.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }
}

/// splitmix64 finaliser: a high-quality 64-bit mix.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One deterministic uniform roll in `[0, 1)` from `(seed, stream,
/// counter)`. Pure: the same triple always rolls the same value, on any
/// thread, in any execution mode.
pub fn fault_roll(seed: u64, stream: u64, counter: u64) -> f64 {
    let h = mix64(seed ^ mix64(stream ^ mix64(counter)));
    // 53 mantissa bits → uniform in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Engine-local PCIe fault injector: a per-stream counter over
/// [`fault_roll`]. Each transfer attempt consumes one counter tick;
/// because engine state is thread-confined between barriers, the sequence
/// of ticks — and therefore of failures — is identical across serial and
/// parallel execution.
#[derive(Debug, Clone)]
pub struct PcieFaultInjector {
    seed: u64,
    stream: u64,
    counter: u64,
    prob: f64,
    failures: u64,
}

impl PcieFaultInjector {
    /// Creates the injector for one engine's transfer stream.
    pub fn new(seed: u64, stream: u64, prob: f64) -> Self {
        PcieFaultInjector {
            seed,
            stream,
            counter: 0,
            prob,
            failures: 0,
        }
    }

    /// Rolls one transfer attempt; true means the transfer fails and must
    /// be re-issued.
    pub fn transfer_fails(&mut self) -> bool {
        let roll = fault_roll(self.seed, self.stream, self.counter);
        self.counter += 1;
        let failed = roll < self.prob;
        if failed {
            self.failures += 1;
        }
        failed
    }

    /// Transfer failures rolled so far.
    pub fn failures(&self) -> u64 {
        self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults_schedule_nothing() {
        let s = FaultSpec::new();
        assert!(s.crashes.is_empty() && s.slowdowns.is_empty());
        assert_eq!(s.pcie_fail_prob, 0.0);
        assert!(!s.sheds() && !s.shard_recovery);
        assert_eq!(s.max_retries, 3);
        assert_eq!(FaultTimeline::compile(&s).remaining(), 0);
    }

    #[test]
    fn builders_schedule_and_arm() {
        let s = FaultSpec::new()
            .with_seed(7)
            .with_crash(1, SimTime::from_secs_f64(3.0))
            .with_straggler(
                0,
                SimTime::from_secs_f64(1.0),
                SimTime::from_secs_f64(2.0),
                4.0,
            )
            .with_pcie_fail_prob(0.1)
            .with_detect_timeout(SimDuration::from_millis(250))
            .with_retry_policy(SimDuration::from_millis(10), SimDuration::from_secs(1), 5)
            .with_shedding(3.0)
            .with_provisioning(SimDuration::from_secs(1), 0.25)
            .with_shard_recovery();
        assert_eq!(s.seed, 7);
        assert_eq!(
            s.crashes,
            vec![(FaultTarget::Engine(1), SimTime::from_secs_f64(3.0))]
        );
        assert_eq!(s.slowdowns.len(), 1);
        assert_eq!(s.pcie_fail_prob, 0.1);
        assert_eq!(s.detect_timeout, SimDuration::from_millis(250));
        assert_eq!(s.max_retries, 5);
        assert!(s.sheds());
        assert_eq!(s.provision_delay, SimDuration::from_secs(1));
        assert!(s.shard_recovery);
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let s = FaultSpec::new().with_retry_policy(
            SimDuration::from_millis(50),
            SimDuration::from_millis(300),
            10,
        );
        assert_eq!(s.backoff_for(1), SimDuration::from_millis(50));
        assert_eq!(s.backoff_for(2), SimDuration::from_millis(100));
        assert_eq!(s.backoff_for(3), SimDuration::from_millis(200));
        assert_eq!(s.backoff_for(4), SimDuration::from_millis(300), "capped");
        assert_eq!(s.backoff_for(60), SimDuration::from_millis(300));
    }

    #[test]
    fn timeline_sorted_and_replayable() {
        let s = FaultSpec::new()
            .with_crash(2, SimTime::from_secs_f64(5.0))
            .with_straggler(
                0,
                SimTime::from_secs_f64(1.0),
                SimTime::from_secs_f64(6.0),
                2.0,
            );
        let mut t = FaultTimeline::compile(&s);
        assert_eq!(t.remaining(), 3);
        assert_eq!(t.peek(), Some(SimTime::from_secs_f64(1.0)));
        assert_eq!(
            t.pop_due(SimTime::from_secs_f64(1.0)),
            Some(FaultAction::SlowdownStart(FaultTarget::Engine(0), 2.0))
        );
        assert_eq!(t.pop_due(SimTime::from_secs_f64(1.0)), None, "not yet due");
        assert_eq!(
            t.pop_due(SimTime::from_secs_f64(5.0)),
            Some(FaultAction::Crash(FaultTarget::Engine(2)))
        );
        assert_eq!(
            t.pop_due(SimTime::from_secs_f64(6.0)),
            Some(FaultAction::SlowdownEnd(FaultTarget::Engine(0), 2.0))
        );
        assert_eq!(t.peek(), None);
    }

    #[test]
    fn correlated_faults_compile_onto_the_timeline() {
        let s = FaultSpec::new()
            .with_domain_crash(1, SimTime::from_secs_f64(4.0))
            .with_domain_brownout(
                0,
                SimTime::from_secs_f64(1.0),
                SimTime::from_secs_f64(2.0),
                3.0,
            )
            .with_partition(1, SimTime::from_secs_f64(5.0), SimTime::from_secs_f64(7.0));
        assert_eq!(
            s.crashes,
            vec![(FaultTarget::Rack(1), SimTime::from_secs_f64(4.0))]
        );
        assert_eq!(s.slowdowns.len(), 1);
        assert_eq!(s.partitions.len(), 1);
        let mut t = FaultTimeline::compile(&s);
        assert_eq!(t.remaining(), 5);
        assert_eq!(
            t.pop_due(SimTime::from_secs_f64(1.0)),
            Some(FaultAction::SlowdownStart(FaultTarget::Rack(0), 3.0))
        );
        assert_eq!(
            t.pop_due(SimTime::from_secs_f64(2.0)),
            Some(FaultAction::SlowdownEnd(FaultTarget::Rack(0), 3.0))
        );
        assert_eq!(
            t.pop_due(SimTime::from_secs_f64(4.0)),
            Some(FaultAction::Crash(FaultTarget::Rack(1)))
        );
        assert_eq!(
            t.pop_due(SimTime::from_secs_f64(5.0)),
            Some(FaultAction::PartitionStart(1, SimTime::from_secs_f64(7.0))),
            "partition start carries its heal instant"
        );
        assert_eq!(
            t.pop_due(SimTime::from_secs_f64(7.0)),
            Some(FaultAction::PartitionEnd(1))
        );
    }

    #[test]
    fn same_instant_correlated_faults_sort_after_legacy_kinds() {
        // A crash and a domain crash at the same instant: the engine
        // crash goes first whatever the spec order.
        let at = SimTime::from_secs_f64(2.0);
        let s = FaultSpec::new().with_domain_crash(9, at).with_crash(0, at);
        let mut t = FaultTimeline::compile(&s);
        assert_eq!(
            t.pop_due(at),
            Some(FaultAction::Crash(FaultTarget::Engine(0)))
        );
        assert_eq!(
            t.pop_due(at),
            Some(FaultAction::Crash(FaultTarget::Rack(9)))
        );

        // Every kind at one instant, scheduled in reverse of the pinned
        // order: engine slowdowns, engine crashes, rack crashes, rack
        // slowdowns, then partitions; the windows' ends keep that order.
        let end = SimTime::from_secs_f64(5.0);
        let s = FaultSpec::new()
            .with_partition(1, at, end)
            .with_domain_brownout(0, at, end, 2.0)
            .with_domain_crash(1, at)
            .with_crash(0, at)
            .with_straggler(2, at, end, 3.0);
        let mut t = FaultTimeline::compile(&s);
        let pops: Vec<FaultAction> = std::iter::from_fn(|| t.pop_due(end)).collect();
        let (engine, rack) = (FaultTarget::Engine, FaultTarget::Rack);
        assert_eq!(
            pops,
            vec![
                FaultAction::SlowdownStart(engine(2), 3.0),
                FaultAction::Crash(engine(0)),
                FaultAction::Crash(rack(1)),
                FaultAction::SlowdownStart(rack(0), 2.0),
                FaultAction::PartitionStart(1, end),
                FaultAction::SlowdownEnd(engine(2), 3.0),
                FaultAction::SlowdownEnd(rack(0), 2.0),
                FaultAction::PartitionEnd(1),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "empty partition window")]
    fn rejects_empty_partition_window() {
        let at = SimTime::from_secs_f64(1.0);
        let _ = FaultSpec::new().with_partition(0, at, at);
    }

    #[test]
    fn rolls_are_pure_and_uniform_ish() {
        assert_eq!(fault_roll(1, 2, 3), fault_roll(1, 2, 3));
        assert_ne!(fault_roll(1, 2, 3), fault_roll(1, 2, 4));
        assert_ne!(fault_roll(1, 2, 3), fault_roll(1, 3, 3));
        let n = 10_000;
        let hits = (0..n).filter(|&c| fault_roll(42, 0, c) < 0.2).count() as f64;
        let rate = hits / n as f64;
        assert!((0.17..0.23).contains(&rate), "rate {rate} far from 0.2");
    }

    #[test]
    fn pcie_injector_is_deterministic_per_stream() {
        let run = |stream: u64| {
            let mut inj = PcieFaultInjector::new(9, stream, 0.3);
            (0..100).map(|_| inj.transfer_fails()).collect::<Vec<_>>()
        };
        assert_eq!(run(0), run(0));
        assert_ne!(run(0), run(1), "streams are independent");
        let mut inj = PcieFaultInjector::new(9, 0, 0.3);
        for _ in 0..100 {
            inj.transfer_fails();
        }
        assert!(inj.failures() > 10 && inj.failures() < 60);
    }

    #[test]
    #[should_panic(expected = "empty straggler window")]
    fn rejects_empty_straggler_window() {
        let _ = FaultSpec::new().with_straggler(
            0,
            SimTime::from_secs_f64(2.0),
            SimTime::from_secs_f64(2.0),
            2.0,
        );
    }

    #[test]
    #[should_panic(expected = "pcie_fail_prob")]
    fn rejects_certain_pcie_failure() {
        let _ = FaultSpec::new().with_pcie_fail_prob(1.0);
    }
}
