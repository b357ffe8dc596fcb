//! Data-parallel multi-engine cluster (§4.4), elastic and heterogeneous.
//!
//! "In DP, Chameleon uses a two-level scheduler: a global scheduler
//! dispatches requests to the different engines, and each engine has its
//! local scheduler." The global scheduler is a pluggable [`Router`] from
//! `chameleon_router`: [`Cluster::new`] keeps the paper's
//! production-standard join-shortest-queue dispatch (over outstanding
//! resource tokens) and its replicated-adapter-cache behaviour, while
//! [`Cluster::with_router`] accepts any placement policy — notably
//! `AdapterAffinity`, which partitions the adapter working set across
//! engines instead of replicating it.
//!
//! Beyond the paper's fixed fleet, the cluster is *elastic*: every engine
//! carries a stable [`EngineId`] (identity, not position), and the fleet
//! can change while a trace is in flight. [`Cluster::add_engine`] joins a
//! new engine — of any capacity: heterogeneous fleets mix TP1/TP2/TP4
//! engines whose weighted rendezvous shards are proportional to memory —
//! and [`Cluster::drain_engine`] retires one gracefully: the drained
//! engine stops receiving dispatches immediately, finishes its in-flight
//! and queued work, and leaves; identity-keyed rendezvous guarantees that
//! only the departing engine's adapter shard is re-homed, which the
//! cluster measures (`adapters_rehomed`) rather than assumes.
//! [`Cluster::run_elastic`] drives a trace with an [`Autoscaler`]
//! watching queue depth and scaling the fleet mid-trace.
//!
//! Every dispatch is recorded in [`RoutingStats`]: per-engine counts
//! keyed by [`EngineId`], affinity hits (the chosen engine already had
//! the adapter resident), spills, load imbalance, and the fleet-change
//! counters, all flowing into the merged [`EngineReport`].
//!
//! # Epochs, barriers, and parallel execution
//!
//! The cluster loop is organised around a single observation: between
//! two *cross-engine* events — an arrival barrier, an autoscaler
//! evaluation tick or a fault barrier — every pending event is engine-local
//! (step completions, adapter loads, periodic ticks, pokes), and an
//! engine's local events can only ever schedule more events *for the
//! same engine*. The run is therefore a sequence of **epochs**: each
//! engine owns a local [`EventQueue`] and steps it up to (strictly
//! before) the next cross-engine instant, after which the coordinator
//! applies the routing, autoscaling or fault decision at the **barrier**
//! with exclusive access to every engine, exactly as the old single-heap
//! loop would have.
//!
//! Dispatch has one path. An arrival barrier routes a *batch* of
//! consecutive arrivals from one snapshot generation, within a `(batch
//! size, age)` budget; per-arrival dispatch — the default — is the batch
//! whose budget is `(1, 0)`, and [`Cluster::set_dispatch`] widens it.
//! A lone engine runs on the same per-engine stepper through
//! [`run_alone`], as per-arrival dispatch would step it, without the
//! router.
//!
//! Because engine state is thread-confined between barriers (the
//! zero-alloc scratch from the hot-path overhaul lives inside each
//! [`Engine`]), epochs parallelise: [`ClusterExecution::Parallel`] steps
//! the engines on a [`chameleon_simcore::shard`] worker pool instead of
//! in a slot-order loop. Simultaneous events are ordered by a fixed
//! class precedence (arrivals, then autoscaler ticks, then engine-local
//! events; within a class, trace/push order) that both execution modes
//! share, so **serial and parallel runs are bit-identical** — the
//! determinism suite asserts `RunReport::canonical_text()` equality
//! across seeds, worker counts, and mid-trace fleet changes.

use crate::autoscaler::{Autoscaler, ForecastSignal, ScaleAction, ScaleTrigger};
use crate::dispatch::DispatchSpec;
use crate::engine::{Engine, EngineEvent};
use crate::predictive::PredictiveSpec;
use crate::report::EngineReport;
use chameleon_fault::{
    fault_roll, FaultAction, FaultSpec, FaultTarget, FaultTimeline, PcieFaultInjector,
};
use chameleon_metrics::RoutingStats;
use chameleon_models::AdapterId;
use chameleon_predictor::{Forecast, HistogramLoadPredictor};
use chameleon_router::{
    policies, EngineId, EngineSnapshot, JoinShortestQueue, Router, StalenessClass,
};
use chameleon_simcore::shard::{self, ShardPool};
use chameleon_simcore::{EventQueue, SimDuration, SimTime};
use chameleon_trace::{AutoscaleAction, BarrierProfile, Lane, TraceBuffer, TraceEvent, TraceLog};
use chameleon_workload::{Request, Trace};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

/// Counter-hash stream for provisioning-fault rolls. Engine PCIe streams
/// use the engine id (always below `u32::MAX`), so the coordinator's own
/// stream can never collide with one.
const PROVISION_STREAM: u64 = u64::MAX;

/// How a cluster run steps its engines between barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterExecution {
    /// Step every engine on the coordinator thread (the default).
    #[default]
    Serial,
    /// Step engines on an epoch-synchronised worker pool. Bit-identical
    /// to [`ClusterExecution::Serial`] for every worker count.
    Parallel {
        /// Worker threads; `0` means auto (the `CHAMELEON_WORKERS`
        /// environment variable, falling back to the machine's cores).
        workers: usize,
    },
}

impl ClusterExecution {
    /// Parallel execution with the automatic worker count.
    pub fn parallel_auto() -> Self {
        ClusterExecution::Parallel { workers: 0 }
    }

    /// The effective worker count (≥ 1) this mode resolves to.
    pub fn worker_count(self) -> usize {
        match self {
            ClusterExecution::Serial => 1,
            ClusterExecution::Parallel { workers: 0 } => {
                shard::workers_from_env().unwrap_or_else(shard::default_workers)
            }
            ClusterExecution::Parallel { workers } => workers,
        }
    }
}

/// The per-epoch command the coordinator hands every engine stepper.
#[derive(Debug, Clone, Copy)]
struct EpochCmd {
    /// Step local events with time strictly below this; `None` drains
    /// everything (no cross-engine event is pending). Simultaneous
    /// events at the boundary instant belong to the *next* epoch: the
    /// cross event (arrival or autoscaler tick) wins equal-time ties.
    boundary: Option<SimTime>,
    /// Periodic ticks before this instant stay alive on an idle engine:
    /// until then a dispatch can still reach it (the trace's last
    /// arrival, or the latest pending retry). Later ticks survive only
    /// while their engine has work.
    ticks_until: SimTime,
}

/// The class of the next cross-engine event. Simultaneous cross events
/// resolve by this fixed precedence — arrivals, then the autoscaler
/// tick, then fault barriers — shared by both execution modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrossEvent {
    Arrival,
    Scale,
    Fault,
}

/// One crash-recovery re-dispatch waiting out its backoff. A request
/// is in the retry list at most once, so the episode it was queued
/// under is the one its re-dispatch closes.
#[derive(Debug, Clone, Copy)]
struct RetryEntry {
    due: SimTime,
    attempt: u32,
    req: Request,
    /// Index into `FaultState::episodes`.
    episode: usize,
}

/// The MTTR ledger entry for one recovery episode: a crash (or a
/// partition's victim extraction) and the fate of the requests it
/// orphaned. `mttr_redispatch` closes when the last victim re-enters an
/// engine; `mttr_complete` is settled from the merged report, where the
/// victims' completion instants live.
struct RecoveryEpisode {
    /// The barrier the victims were extracted at.
    at: SimTime,
    /// Victims still waiting out detection + backoff.
    outstanding: u32,
    /// Instant the last victim so far was re-dispatched.
    redispatch_last: Option<SimTime>,
    /// Request ids extracted into the retry ledger by this episode.
    victims: Vec<u64>,
}

/// Coordinator-owned fault-plane state ([`Cluster::set_fault`]). Every
/// field is observed and mutated only at barriers, which is what keeps
/// fault-armed runs bit-identical between serial and parallel execution.
struct FaultState {
    spec: FaultSpec,
    /// Scheduled crashes, slowdown windows and partitions, replayed in
    /// time order.
    timeline: FaultTimeline,
    /// TTFT SLO the shedding gate prices against (the run's SLO axis).
    slo: Option<SimDuration>,
    /// Pending re-dispatches, sorted by `(due, arrival, id)`.
    retries: Vec<RetryEntry>,
    /// Ready instants of autoscaler provisions slowed by injected delay.
    pending_provisions: Vec<SimTime>,
    /// Counter for the provisioning-failure roll stream.
    provision_counter: u64,
    /// Crash count per request id — the retry budget ledger.
    attempts: HashMap<u64, u32>,
    /// Racks currently cut off from the coordinator, each with the heal
    /// instants of its open partition windows. Members leave the routing
    /// candidate set until the last window heals.
    partitioned: BTreeMap<u32, Vec<SimTime>>,
    /// MTTR ledger: one entry per crash / partition that orphaned work.
    episodes: Vec<RecoveryEpisode>,
}

/// One engine plus its cluster-lifecycle state and its shard of the
/// event horizon (the engine-local future-event queue).
struct EngineSlot {
    id: EngineId,
    /// The rack [`Cluster::set_topology`] assigned this engine to. `None`
    /// without a topology and for engines provisioned after it: each is
    /// its own singleton domain, which anti-affinity treats as "always a
    /// different rack".
    rack: Option<u32>,
    /// Factors of the slowdown windows open on this engine; it runs at
    /// the largest (full speed when none is open).
    slowdowns: Vec<f64>,
    /// Draining engines accept no new dispatches; they finish their
    /// queued and running work and are then retired.
    draining: bool,
    /// Set by the epoch stepper the moment a draining engine runs out of
    /// work: the coordinator retires the slot at the next barrier.
    retire_ready: bool,
    engine: Engine,
    /// Engine-local future events. Only this slot's stepper (during an
    /// epoch) and the coordinator (at barriers) touch it.
    queue: EventQueue<EngineEvent>,
    /// Reused `Engine::handle` output buffer, thread-confined with its
    /// slot.
    out: Vec<(SimTime, EngineEvent)>,
    /// Events this slot processed during the current run.
    processed: u64,
    /// Instant of this slot's last processed event this run.
    last: SimTime,
    /// Batch members routed here at the last arrival barrier that arrive
    /// after it, in arrival order, delivered by `step_to` interleaved
    /// with local events (arrival wins an equal-time tie — the order a
    /// member handled at its own barrier gets, since same-instant local
    /// events wait for the next epoch). Kept separate from the event
    /// queue because the queue breaks same-instant ties by insertion
    /// order, which would put pre-existing same-time events *before* the
    /// arrival.
    arrivals: VecDeque<(SimTime, Request)>,
    /// Adapter-resident-at-delivery count for routed arrivals, harvested
    /// into `RoutingStats::affinity_hits`. Every arrival is measured on
    /// delivery — at its barrier or inside the next epoch — with all
    /// local events before its instant applied, which keeps batches of
    /// state-independent routers byte-identical to one barrier per
    /// arrival.
    arrival_hits: u64,
}

impl EngineSlot {
    fn new(id: EngineId, draining: bool, engine: Engine) -> Self {
        EngineSlot {
            id,
            rack: None,
            slowdowns: Vec::new(),
            draining,
            retire_ready: false,
            engine,
            queue: EventQueue::with_capacity(32),
            out: Vec::new(),
            processed: 0,
            last: SimTime::ZERO,
            arrivals: VecDeque::new(),
            arrival_hits: 0,
        }
    }

    /// Resets the per-run state and schedules the first periodic ticks
    /// (the queue is always empty between runs: a run returns only after
    /// every local queue drained or its slot retired).
    fn begin_run(&mut self) {
        debug_assert!(self.queue.is_empty());
        debug_assert!(self.arrivals.is_empty());
        debug_assert_eq!(self.arrival_hits, 0, "hits harvested at run end");
        self.processed = 0;
        self.last = SimTime::ZERO;
        self.retire_ready = false;
        self.seed_ticks(SimTime::ZERO);
    }

    /// Schedules the engine's first periodic ticks one interval of its
    /// own cadence after `t`, the instant it joins the run.
    fn seed_ticks(&mut self, t: SimTime) {
        let cfg = self.engine.config();
        let (mem, refresh) = (t + cfg.mem_sample_interval, t + cfg.refresh_interval);
        self.queue.push(mem, EngineEvent::MemSample);
        self.queue.push(refresh, EngineEvent::Refresh);
    }

    /// True when this slot has a local event due before `boundary` or an
    /// undelivered batch member (the coordinator guarantees every routed
    /// arrival lands at or before the boundary).
    fn has_pending(&self, boundary: Option<SimTime>) -> bool {
        !self.arrivals.is_empty()
            || match self.queue.peek_time() {
                Some(t) => boundary.is_none_or(|b| t < b),
                None => false,
            }
    }

    /// Steps this engine's local events up to the epoch boundary. This is
    /// the per-shard body of both execution modes and of [`run_alone`]; it
    /// touches nothing outside the slot, which is what makes parallel
    /// stepping sound and bit-identical to serial.
    fn step_to(&mut self, cmd: &EpochCmd) {
        loop {
            // Deliver routed batch members interleaved with local events,
            // arrival first on an equal-time tie — the order a member
            // handled at its own barrier gets (same-instant local events
            // in the next epoch). Every pending arrival is at or before
            // the epoch boundary by construction, so none survives the
            // epoch.
            let next_arrival = self.arrivals.front().map(|&(ta, _)| ta);
            let next_local = self.queue.peek_time();
            let deliver = match (next_arrival, next_local) {
                (Some(ta), Some(tl)) => ta <= tl,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if deliver {
                let (ta, req) = self.arrivals.pop_front().expect("peeked arrival");
                self.deliver(ta, req);
                continue;
            }
            let Some(t) = next_local else { break };
            if let Some(b) = cmd.boundary {
                if t >= b {
                    break;
                }
            }
            let (t, ev) = self.queue.pop().expect("peeked event");
            let cfg = self.engine.config();
            let reschedule = match &ev {
                EngineEvent::MemSample => {
                    Some((t + cfg.mem_sample_interval, EngineEvent::MemSample))
                }
                EngineEvent::Refresh => Some((t + cfg.refresh_interval, EngineEvent::Refresh)),
                _ => None,
            };
            self.engine.handle(t, ev, &mut self.out);
            for (at, e) in self.out.drain(..) {
                self.queue.push(at, e);
            }
            if let Some((at, e)) = reschedule {
                if t < cmd.ticks_until || self.engine.has_work() {
                    self.queue.push(at, e);
                }
            }
            self.processed += 1;
            self.last = t;
            if self.draining && !self.engine.has_work() {
                // A drained engine retires the moment it goes idle; its
                // remaining events (stale periodic ticks) are exactly the
                // ones the single-heap loop would pop and drop later.
                self.retire_ready = true;
                self.queue.clear();
                break;
            }
        }
        debug_assert!(
            self.arrivals.is_empty(),
            "batched arrivals must drain within their epoch"
        );
    }

    /// Arms this engine's PCIe fault injector, seeded by its id, when
    /// `spec` injects PCIe transfer failures.
    fn arm_pcie_faults(&mut self, spec: &FaultSpec) {
        if spec.pcie_fail_prob > 0.0 {
            self.engine.set_pcie_fault_injector(PcieFaultInjector::new(
                spec.seed,
                u64::from(self.id.0),
                spec.pcie_fail_prob,
            ));
        }
    }

    /// Hands a routed arrival to the engine at its own instant `ta`,
    /// counting an affinity hit when its adapter is resident on delivery.
    fn deliver(&mut self, ta: SimTime, req: Request) {
        if self.engine.is_adapter_resident(req.adapter()) {
            self.arrival_hits += 1;
        }
        self.engine
            .handle(ta, EngineEvent::Arrival(req), &mut self.out);
        for (at, e) in self.out.drain(..) {
            self.queue.push(at, e);
        }
        self.processed += 1;
        self.last = ta;
    }
}

/// Runs a lone engine through `trace` on the fleet's own stepper, as a
/// one-engine fleet under per-arrival dispatch would, without the
/// router: one epoch up to each arrival (the boundary is exclusive, so
/// the arrival wins an equal-time tie), the arrival's delivery at the
/// barrier, then one unbounded epoch that drains the engine.
///
/// Returns the engine, the instant of its last event and the number of
/// events it processed, arrivals included (the `events=` field of
/// `RunReport::canonical_text`).
pub fn run_alone(engine: Engine, trace: &Trace) -> (Engine, SimTime, u64) {
    let arrivals = trace.requests();
    debug_assert!(
        arrivals.is_sorted_by_key(Request::arrival),
        "a Trace keeps its requests sorted by arrival"
    );
    let mut slot = EngineSlot::new(EngineId(0), false, engine);
    slot.begin_run();
    let mut cmd = EpochCmd {
        boundary: None,
        ticks_until: arrivals.last().map_or(SimTime::ZERO, Request::arrival),
    };
    for &req in arrivals {
        cmd.boundary = Some(req.arrival());
        slot.step_to(&cmd);
        slot.deliver(req.arrival(), req);
    }
    cmd.boundary = None;
    slot.step_to(&cmd);
    (slot.engine, slot.last, slot.processed)
}

/// A data-parallel group of engines behind a global dispatcher.
pub struct Cluster {
    slots: Vec<EngineSlot>,
    next_id: u32,
    router: Box<dyn Router>,
    stats: RoutingStats,
    /// The open snapshot generation: one snapshot per engine the
    /// coordinator can dispatch to, reused across refills (dispatch is
    /// the hot path).
    snap_buf: Vec<EngineSnapshot>,
    /// Slot position of each snapshot in `snap_buf` (parallel).
    snap_slots: Vec<usize>,
    /// Reports of engines drained and retired during the run, tagged
    /// with their stable id so the final merge is order-independent.
    retired: Vec<(EngineId, EngineReport)>,
    /// Events processed across all [`Cluster::run`] calls.
    events_processed: u64,
    /// The current run's horizon: the instant of its last arrival or
    /// live-engine event. A trailing controller tick cannot inflate it,
    /// and stale events of retired engines count toward neither it nor
    /// `events_processed`.
    horizon: SimTime,
    /// Predictive control plane (SLO/forecast autoscaling); `None` keeps
    /// the cluster purely reactive — and byte-identical to the
    /// pre-control-plane stack.
    predictive: Option<PredictiveSpec>,
    /// Coordinator-owned arrival-history predictor behind the forecast
    /// signal. Observed and queried only at barriers, which is what keeps
    /// every predictive decision bit-identical between serial and
    /// parallel execution.
    forecaster: HistogramLoadPredictor,
    /// Reused forecast scratch, refilled at each autoscaler evaluation.
    forecast_buf: Vec<Forecast>,
    /// Decision-trace merge buffer: the coordinator pushes its own lane
    /// directly; engine lanes are drained at retirement and finalisation.
    /// `None` (the default) keeps every emission site one branch and all
    /// presets byte-identical to the untraced stack.
    tracer: Option<TraceBuffer>,
    /// Monotone epoch counter for barrier open/close events.
    trace_epoch: u64,
    /// Wall-clock barrier profile; accumulated across runs. Lives outside
    /// the deterministic trace stream by design.
    profile: Option<BarrierProfile>,
    /// Fault-injection and recovery plane ([`Cluster::set_fault`]);
    /// `None` keeps every run byte-identical to the pre-fault stack.
    fault: Option<FaultState>,
    /// The `(batch size, age)` budget of one snapshot generation: `(1,
    /// 0)` — per-arrival dispatch — by default, and the router's declared
    /// [`StalenessClass`] tightened by the spec once
    /// [`Cluster::set_dispatch`] is called.
    budget: (u32, SimDuration),
    /// Monotone snapshot-generation counter: bumped by every
    /// [`Cluster::refresh_snapshots`], stamped into the
    /// `DispatchBatch`/`RetryBatch` trace events so tests can assert
    /// which placements shared a generation.
    snap_gen: u64,
    /// The barrier instant the open generation in `snap_buf` was filled
    /// at, or `None` when it is unusable — any plain refill (autoscaler
    /// path) or fleet mutation (add/drain/retire/partition) invalidates
    /// it, because `snap_slots` positions go stale the moment the slot
    /// vector changes.
    snap_filled_at: Option<SimTime>,
    /// Requests the open generation has decided (routed or shed). A
    /// generation serves at most the budget's batch size at its own
    /// instant: a fault barrier at an arrival batch's instant routes its
    /// retries from the batch's generation (and its echoes) while it has
    /// room, and from a fresh one otherwise.
    snap_served: u32,
    /// Whether placement (spill second choices) sees the slots' racks
    /// ([`Cluster::set_topology`]). Fault scoping (rack crash, brownout,
    /// partition membership) reads the racks regardless: a
    /// topology-blind ablation still lives on real racks.
    anti_affinity: bool,
}

impl Cluster {
    /// Builds a cluster of `n` engines from a factory, dispatching with
    /// the paper's global scheduler (join-shortest-queue over outstanding
    /// resource tokens). The factory is called with each engine's
    /// [`EngineId`] value (`0..n`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new<F: FnMut(usize) -> Engine>(n: usize, factory: F) -> Self {
        Cluster::with_router(n, factory, Box::new(JoinShortestQueue::new()))
    }

    /// Builds a cluster of `n` engines dispatching through `router`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_router<F: FnMut(usize) -> Engine>(
        n: usize,
        mut factory: F,
        router: Box<dyn Router>,
    ) -> Self {
        assert!(n > 0, "empty cluster");
        let slots: Vec<EngineSlot> = (0..n)
            .map(|i| EngineSlot::new(EngineId(i as u32), false, factory(i)))
            .collect();
        let ids: Vec<EngineId> = slots.iter().map(|s| s.id).collect();
        let stats = RoutingStats::new(router.name(), &ids);
        Cluster {
            next_id: n as u32,
            snap_buf: Vec::with_capacity(n),
            snap_slots: Vec::with_capacity(n),
            retired: Vec::new(),
            slots,
            router,
            stats,
            events_processed: 0,
            horizon: SimTime::ZERO,
            predictive: None,
            forecaster: HistogramLoadPredictor::new(),
            forecast_buf: Vec::new(),
            tracer: None,
            trace_epoch: 0,
            profile: None,
            fault: None,
            budget: (1, SimDuration::ZERO),
            snap_gen: 0,
            snap_filled_at: None,
            snap_served: 0,
            anti_affinity: false,
        }
    }

    /// Turns on decision tracing for the whole cluster: the coordinator's
    /// routing/scaling/barrier decisions and every engine's local events
    /// (first tokens, cache admits/evicts, batch formations, samples)
    /// merge into one [`TraceLog`] under the pinned `(time, lane, seq)`
    /// total order, so serial and parallel runs emit byte-identical
    /// streams. Engines joining later inherit tracing automatically.
    pub fn enable_tracing(&mut self) {
        if self.tracer.is_none() {
            self.tracer = Some(TraceBuffer::new());
        }
        for slot in &mut self.slots {
            slot.engine.enable_tracing();
        }
    }

    /// Turns on the wall-clock barrier profiler: per-epoch coordinator
    /// dispatch vs worker stepping vs barrier wait, accumulated across
    /// runs into a [`BarrierProfile`]. Wall-clock only — profiled runs
    /// stay bit-identical to unprofiled ones.
    pub fn enable_barrier_profiling(&mut self) {
        self.profile.get_or_insert_with(BarrierProfile::default);
    }

    /// Enables the predictive control plane: the forecast signal into
    /// elastic runs' autoscaler, per `spec`'s switches. Strictly additive
    /// — a cluster without this call behaves byte-for-byte as if the
    /// control plane did not exist.
    pub fn set_predictive(&mut self, spec: PredictiveSpec) {
        self.predictive = Some(spec);
        self.stats.predictive.enabled = true;
    }

    /// Enables amortised dispatch barriers: widens the dispatch budget
    /// from per-arrival `(1, 0)` to the router's declared
    /// [`StalenessClass`] tightened by `spec`, so consecutive arrivals
    /// coalesce into a single barrier routed from one cached snapshot
    /// generation, and arms the batching plane's stats and trace
    /// events. State-independent routers
    /// (pure rendezvous with spill off, round-robin) batch without
    /// bounds and place byte-identically to per-arrival dispatch;
    /// load-aware routers see coordinator-echoed snapshots whose queue
    /// depths drift from the frozen generation by at most the batch
    /// size per engine.
    pub fn set_dispatch(&mut self, spec: DispatchSpec) {
        let (declared_batch, declared_age) = match self.router.staleness() {
            StalenessClass::StateIndependent => (u32::MAX, SimDuration::MAX),
            StalenessClass::BoundedStaleness { max_batch, max_age } => (max_batch, max_age),
        };
        self.budget = spec.effective(declared_batch, declared_age);
        self.stats.dispatch.enabled = true;
    }

    /// Arms the fault-injection and recovery plane: `spec`'s scheduled
    /// crashes, slowdown windows and partitions replay at coordinator
    /// barriers, PCIe fault injectors (seeded per engine id) attach to
    /// every engine, and recovery — timeout-detected failover with capped
    /// exponential backoff, plus warm shard re-homing and SLO-aware
    /// shedding against `slo` where `spec` arms them — switches on.
    /// Strictly additive: a cluster without this call behaves
    /// byte-for-byte as if the plane did not exist.
    pub fn set_fault(&mut self, spec: FaultSpec, slo: Option<SimDuration>) {
        let timeline = FaultTimeline::compile(&spec);
        for slot in &mut self.slots {
            slot.arm_pcie_faults(&spec);
        }
        self.stats.fault.enabled = true;
        self.fault = Some(FaultState {
            timeline,
            slo,
            spec,
            retries: Vec::new(),
            pending_provisions: Vec::new(),
            provision_counter: 0,
            attempts: HashMap::new(),
            partitioned: BTreeMap::new(),
            episodes: Vec::new(),
        });
    }

    /// Pins each engine to a fault domain (rack), in slot order — one
    /// rack id per engine currently in the fleet. With `anti_affinity`
    /// on, second-choice placement (affinity spill) prefers the
    /// best-ranked engine *outside* the primary's rack; with it off the
    /// racks scope only correlated faults (rack crash, brownout,
    /// partition) — the topology-blind ablation.
    ///
    /// # Panics
    ///
    /// Panics if `racks` does not name exactly one domain per engine.
    pub fn set_topology(&mut self, racks: &[u32], anti_affinity: bool) {
        assert_eq!(
            racks.len(),
            self.slots.len(),
            "topology must name one fault domain per engine"
        );
        for (slot, &rack) in self.slots.iter_mut().zip(racks) {
            slot.rack = Some(rack);
        }
        self.anti_affinity = anti_affinity;
        self.snap_filled_at = None;
    }

    /// True while `slot`'s rack is cut off from the coordinator.
    fn is_unreachable(&self, slot: &EngineSlot) -> bool {
        match (slot.rack, self.fault.as_ref()) {
            (Some(rack), Some(fs)) => fs.partitioned.contains_key(&rack),
            _ => false,
        }
    }

    /// Engines the coordinator can currently dispatch to: active and not
    /// behind a partition. Equals [`Cluster::active_engines`] whenever no
    /// partition is in flight.
    fn reachable_active(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !s.draining && !self.is_unreachable(s))
            .count()
    }

    /// True when taking the active engine at `pos` out of the fleet would
    /// leave no active engine, or none the coordinator can reach (arrivals
    /// would find an empty candidate set for as long as the partition
    /// lasts): a fleet never drains or crashes to zero.
    fn is_last_standing(&self, pos: usize) -> bool {
        self.spares(pos, self.active_engines(), self.reachable_active())
    }

    /// True when the engine at slot position `pos` would be the last one
    /// standing among `active` active engines, `reachable` of them
    /// reachable: the crash and drain guards spare it.
    fn spares(&self, pos: usize, active: usize, reachable: usize) -> bool {
        active <= 1 || (!self.is_unreachable(&self.slots[pos]) && reachable <= 1)
    }

    /// Slot positions of the engines `target` hits, in slot order: the
    /// engine while it is in the fleet, or every engine assigned to the
    /// rack.
    fn members(&self, target: FaultTarget) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&pos| match target {
                FaultTarget::Engine(id) => self.slots[pos].id.0 == id,
                FaultTarget::Rack(rack) => self.slots[pos].rack == Some(rack),
            })
            .collect()
    }

    /// Events processed across all run calls so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of engines currently in the cluster (active + draining;
    /// drained engines have left).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the cluster has no engines (never: the constructor
    /// forbids it and the last active engine cannot be drained).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of engines accepting new dispatches.
    pub fn active_engines(&self) -> usize {
        self.slots.iter().filter(|s| !s.draining).count()
    }

    /// Ids of the engines accepting new dispatches, in registration order.
    pub fn active_engine_ids(&self) -> Vec<EngineId> {
        self.slots
            .iter()
            .filter(|s| !s.draining)
            .map(|s| s.id)
            .collect()
    }

    /// The stable id the next engine to join will be registered under —
    /// the single mint point for engine identities.
    pub fn next_engine_id(&self) -> EngineId {
        EngineId(self.next_id)
    }

    /// Requests dispatched to each engine ever registered, in
    /// registration order (see [`RoutingStats::engine_ids`]).
    pub fn dispatch_counts(&self) -> &[u64] {
        &self.stats.per_engine
    }

    /// Routing statistics so far.
    pub fn routing_stats(&self) -> &RoutingStats {
        &self.stats
    }

    /// Joins `engine` to the fleet and returns its id. The newcomer
    /// starts receiving dispatches on the next arrival; with an affinity
    /// router, exactly the adapters whose weighted-rendezvous top choice
    /// is the new engine re-home onto it (measured into
    /// `adapters_rehomed`).
    pub fn add_engine(&mut self, engine: Engine) -> EngineId {
        let id = self.next_engine_id();
        self.next_id += 1;
        if self.router.uses_affinity() {
            let moved = self.count_rehomed(&engine, Some((id, engine.capacity_weight())), None);
            self.stats.on_adapters_rehomed(moved);
        }
        self.stats.on_engine_added(id);
        let mut slot = EngineSlot::new(id, false, engine);
        if self.tracer.is_some() {
            slot.engine.enable_tracing();
        }
        if let Some(fs) = &self.fault {
            slot.arm_pcie_faults(&fs.spec);
        }
        self.slots.push(slot);
        // The cached routing generation indexes slot positions; any
        // fleet change invalidates it.
        self.snap_filled_at = None;
        id
    }

    /// Starts draining engine `id`: it stops receiving new dispatches
    /// immediately, finishes its in-flight and queued work, and is then
    /// retired (its measurements are folded into the final report). With
    /// an affinity router, exactly the departing engine's adapter shard
    /// re-homes onto the survivors.
    ///
    /// Returns `false` (and does nothing) when `id` is unknown, already
    /// draining, or the last active engine — a cluster never drains to
    /// zero.
    pub fn drain_engine(&mut self, id: EngineId) -> bool {
        let Some(pos) = self.slots.iter().position(|s| s.id == id) else {
            return false;
        };
        if self.slots[pos].draining || self.is_last_standing(pos) {
            return false;
        }
        if self.router.uses_affinity() {
            let moved = self.count_rehomed(&self.slots[pos].engine, None, Some(id));
            self.stats.on_adapters_rehomed(moved);
        }
        self.slots[pos].draining = true;
        self.stats.on_engine_drained(id);
        self.snap_filled_at = None;
        true
    }

    /// The `(id, capacity weight)` pairs of the engines currently
    /// accepting dispatches — the candidate set every placement and
    /// re-homing computation works over. Engines behind a partition are
    /// unreachable and drop out until the heal.
    fn active_weights(&self) -> Vec<(EngineId, f64)> {
        self.slots
            .iter()
            .filter(|s| !s.draining && !self.is_unreachable(s))
            .map(|s| (s.id, s.engine.capacity_weight()))
            .collect()
    }

    /// Counts adapters whose weighted-rendezvous home differs between the
    /// current active set and the same set with `joining` added or
    /// `leaving` removed — the measured (not assumed) migration cost of a
    /// fleet change. `pool_of` only lends its adapter pool (all engines
    /// share one).
    fn count_rehomed(
        &self,
        pool_of: &Engine,
        joining: Option<(EngineId, f64)>,
        leaving: Option<EngineId>,
    ) -> u64 {
        let before = self.active_weights();
        let mut after = before.clone();
        if let Some(e) = joining {
            after.push(e);
        }
        if let Some(id) = leaving {
            after.retain(|&(e, _)| e != id);
        }
        if before.is_empty() || after.is_empty() {
            return 0;
        }
        let home = |set: &[(EngineId, f64)], a: AdapterId| {
            set[policies::rendezvous_home(a, set.iter().copied())].0
        };
        pool_of
            .pool()
            .iter()
            .filter(|spec| home(&before, spec.id()) != home(&after, spec.id()))
            .count() as u64
    }

    /// The weighted-rendezvous home (engine id) of `adapter` over the
    /// currently active engines — what an affinity router would pick on an
    /// unloaded fleet. Exposed for tests and capacity planning.
    pub fn home_of(&self, adapter: AdapterId) -> EngineId {
        let active = self.active_weights();
        active[policies::rendezvous_home(adapter, active.iter().copied())].0
    }

    /// Refills the reusable snapshot buffer with the engines the
    /// coordinator can dispatch to, closing the open generation.
    /// Residency sets are copied only when the router declares it reads
    /// them, so queue-depth-only policies stay cheap per arrival.
    fn fill_snapshots(&mut self) {
        let with_residency = self.router.needs_residency();
        self.snap_buf.clear();
        self.snap_slots.clear();
        self.snap_filled_at = None;
        for (pos, slot) in self.slots.iter().enumerate() {
            if slot.draining || self.is_unreachable(slot) {
                continue;
            }
            let mut snap = slot.engine.snapshot(slot.id, with_residency);
            // Racks ride along only under an anti-affinity topology, so
            // the blind ablation routes byte-identically to the
            // topology-free stack.
            snap.rack = slot.rack.filter(|_| self.anti_affinity);
            self.snap_buf.push(snap);
            self.snap_slots.push(pos);
        }
    }

    /// [`Cluster::fill_snapshots`] for routing: opens a new snapshot
    /// *generation* at `at`, which every member of an arrival batch —
    /// and, while it has room, each fault-barrier retry at the same
    /// instant — routes from, with the coordinator's own placements
    /// echoed in, instead of re-snapshotting per request.
    fn refresh_snapshots(&mut self, at: SimTime) {
        self.fill_snapshots();
        self.snap_gen += 1;
        self.snap_filled_at = Some(at);
        self.snap_served = 0;
        if self.stats.dispatch.enabled {
            self.stats.dispatch.snapshot_refreshes += 1;
        }
    }

    /// Routes `req` from the open snapshot generation and echoes the
    /// placement into it (queue depth +1, outstanding tokens += the
    /// request's charge), so later routings from the generation observe
    /// it — what keeps the bounded-staleness queue-depth error within
    /// the batch budget. Returns the chosen slot position and whether
    /// the router spilled.
    fn route_one(&mut self, req: &Request) -> (usize, bool) {
        let decision = self.router.route(req, &self.snap_buf);
        assert!(
            decision.engine < self.snap_buf.len(),
            "router out of bounds"
        );
        let snap = &mut self.snap_buf[decision.engine];
        snap.queue_depth += 1;
        snap.outstanding_tokens += u64::from(req.input_tokens()) + u64::from(req.output_tokens());
        (self.snap_slots[decision.engine], decision.spilled)
    }

    /// Folds slot `pos`'s run counters into the cluster's: its events,
    /// its last instant (the horizon) and its affinity hits.
    fn fold_run(&mut self, pos: usize) {
        let slot = &mut self.slots[pos];
        self.events_processed += slot.processed;
        self.horizon = self.horizon.max(slot.last);
        self.stats.affinity_hits += std::mem::take(&mut slot.arrival_hits);
    }

    /// Retires slot `pos`: its run counters fold into the cluster's, its
    /// report (tagged with its stable id) is stashed for the final merge,
    /// and its pending events are dropped with it — exactly the stale
    /// ticks the pre-epoch single-heap loop popped and dropped.
    fn retire_slot(&mut self, pos: usize) {
        self.fold_run(pos);
        let mut slot = self.slots.remove(pos);
        self.snap_filled_at = None;
        self.stats.fault.pcie_retries += slot.engine.pcie_fault_retries();
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.extend_lane(Lane::Engine(slot.id.0), slot.engine.take_trace_events());
        }
        self.retired.push((slot.id, slot.engine.into_report()));
    }

    /// Retires every slot the last epoch marked retire-ready, in slot
    /// order (the merged report is id-ordered anyway, so this order is
    /// not observable).
    fn harvest_retired(&mut self) {
        let mut pos = 0;
        while pos < self.slots.len() {
            if self.slots[pos].retire_ready {
                self.retire_slot(pos);
            } else {
                pos += 1;
            }
        }
    }

    /// One epoch: advances every engine's local queue up to `boundary`
    /// (exclusive). Engines with nothing due are skipped entirely; a
    /// lone busy engine is stepped inline even in parallel mode (a
    /// barrier would cost more than it buys); otherwise the shard pool —
    /// when one is attached — fans the engines out to worker threads.
    /// All three paths run the identical `EngineSlot::step_to`, which is
    /// what makes them bit-identical.
    fn run_epoch(
        &mut self,
        boundary: Option<SimTime>,
        ticks_until: SimTime,
        pool: Option<&ShardPool<'_, EngineSlot, EpochCmd>>,
    ) {
        let cmd = EpochCmd {
            boundary,
            ticks_until,
        };
        let mut pending = 0usize;
        let mut lone = usize::MAX;
        for (pos, slot) in self.slots.iter().enumerate() {
            if slot.has_pending(boundary) {
                pending += 1;
                lone = pos;
            }
        }
        // Step-count snapshot for the barrier-close event. The slot set
        // cannot change during an epoch (retirement happens at barriers),
        // so positional deltas are sound.
        let stepped_before: Option<Vec<u64>> = (self.tracer.is_some() && pending > 0)
            .then(|| self.slots.iter().map(|s| s.processed).collect());
        let epoch_start = self.profile.is_some().then(Instant::now);
        let pooled = pool.is_some() && pending > 1;
        match (pool, pending) {
            (_, 0) => {}
            (_, 1) => self.slots[lone].step_to(&cmd),
            (Some(pool), _) => pool.epoch(&mut self.slots, cmd),
            (None, _) => {
                for slot in &mut self.slots {
                    slot.step_to(&cmd);
                }
            }
        }
        if let Some(start) = epoch_start {
            let dt = start.elapsed().as_nanos() as u64;
            let p = self.profile.as_mut().expect("profiling enabled");
            p.epochs += 1;
            p.step_wall_ns += dt;
            if pooled {
                p.pool_epochs += 1;
                p.pool_step_wall_ns += dt;
            }
        }
        if let Some(before) = stepped_before {
            // Event time: the barrier instant. The final (unbounded) epoch
            // closes at the last event any engine processed — identical in
            // both execution modes because stepping is.
            let at = boundary.unwrap_or_else(|| {
                self.slots
                    .iter()
                    .map(|s| s.last)
                    .max()
                    .unwrap_or(SimTime::ZERO)
            });
            let stepped: Vec<(u32, u64)> = self
                .slots
                .iter()
                .zip(before)
                .filter(|(slot, was)| slot.processed > *was)
                .map(|(slot, was)| (slot.id.0, slot.processed - was))
                .collect();
            let epoch = self.trace_epoch;
            self.trace_epoch += 1;
            let tracer = self.tracer.as_mut().expect("tracing enabled");
            tracer.push(
                at,
                Lane::Coordinator,
                TraceEvent::BarrierOpen {
                    epoch,
                    boundary,
                    pending: pending as u32,
                },
            );
            tracer.push(
                at,
                Lane::Coordinator,
                TraceEvent::BarrierClose { epoch, stepped },
            );
        }
    }

    /// The predicted-arrivals signal for one autoscaler evaluation:
    /// expected requests within the controller's next interval, summed
    /// over every adapter the forecaster places there (each contributes
    /// at least one arrival, hot adapters their rate × interval).
    fn forecast_signal(&mut self, now: SimTime, interval: SimDuration) -> ForecastSignal {
        let enabled = self.predictive.is_some_and(|s| s.forecast_autoscale);
        if !enabled {
            return ForecastSignal::default();
        }
        let mut buf = std::mem::take(&mut self.forecast_buf);
        self.forecaster.forecast_into(now, interval, &mut buf);
        let secs = interval.as_secs_f64();
        let predicted_arrivals = buf.iter().map(|f| (f.rate * secs).max(1.0)).sum();
        self.forecast_buf = buf;
        ForecastSignal { predicted_arrivals }
    }

    /// The instant of the next fault-plane cross event: the earliest of
    /// the scheduled-fault timeline head, the first due retry, and any
    /// pending delayed provision. `None` when no plane is armed or it
    /// has nothing left to do.
    fn next_fault_time(&self) -> Option<SimTime> {
        let fs = self.fault.as_ref()?;
        let mut next = fs.timeline.peek();
        if let Some(r) = fs.retries.first() {
            next = Some(next.map_or(r.due, |n| n.min(r.due)));
        }
        if let Some(&p) = fs.pending_provisions.iter().min() {
            next = Some(next.map_or(p, |n| n.min(p)));
        }
        next
    }

    /// One fault barrier: applies every fault-plane item due at `t`, in a
    /// fixed order — scheduled faults (crashes, slowdown windows,
    /// partitions), then delayed provisions completing, then due
    /// re-dispatches. Runs on the coordinator with exclusive fleet
    /// access, like every other barrier.
    fn fault_barrier(
        &mut self,
        t: SimTime,
        scale: &mut Option<(&mut Autoscaler, &mut dyn FnMut(EngineId) -> Engine)>,
    ) {
        self.events_processed += 1;
        loop {
            let action = match self.fault.as_mut() {
                Some(fs) => fs.timeline.pop_due(t),
                None => None,
            };
            let Some(action) = action else { break };
            match action {
                FaultAction::Crash(FaultTarget::Engine(id)) => self.fault_crash(EngineId(id), t),
                FaultAction::Crash(FaultTarget::Rack(rack)) => self.fault_domain_crash(rack, t),
                FaultAction::SlowdownStart(target, factor) => self.slowdown(target, factor, true),
                FaultAction::SlowdownEnd(target, factor) => self.slowdown(target, factor, false),
                FaultAction::PartitionStart(rack, heal) => self.partition_start(rack, heal, t),
                FaultAction::PartitionEnd(rack) => self.partition_end(rack, t),
            }
        }
        loop {
            let due = {
                let fs = self.fault.as_mut().expect("fault barrier without plane");
                match fs.pending_provisions.iter().position(|&p| p <= t) {
                    Some(pos) => fs.pending_provisions.remove(pos),
                    None => break,
                }
            };
            debug_assert!(due <= t);
            let (_, grow) = scale
                .as_mut()
                .expect("delayed provision without autoscaler");
            self.provision(t, grow);
        }
        // Due re-dispatches route from the open snapshot generation while
        // it has room — the arrival batch's, when one routed at this
        // instant and the fleet has not changed since (crashes and
        // provisions above invalidate it) — and from a fresh one
        // otherwise. Under the per-arrival budget every retry therefore
        // reads a fresh snapshot. Retries sharing a generation form one
        // retry batch: `(size, reused)`.
        let mut batch: Option<(u32, bool)> = None;
        loop {
            let entry = {
                let fs = self.fault.as_mut().expect("fault barrier without plane");
                if fs.retries.first().is_some_and(|r| r.due <= t) {
                    fs.retries.remove(0)
                } else {
                    break;
                }
            };
            let room = self.snap_filled_at == Some(t) && self.snap_served < self.budget.0;
            if !room {
                self.report_retry_batch(t, batch.take());
                self.refresh_snapshots(t);
            }
            batch.get_or_insert((0, room)).0 += 1;
            self.snap_served += 1;
            self.dispatch_retry(t, entry);
        }
        self.report_retry_batch(t, batch);
    }

    /// Reports one retry batch — `(size, reused)`, routed from the open
    /// generation — to the batching plane's stats and trace.
    fn report_retry_batch(&mut self, t: SimTime, batch: Option<(u32, bool)>) {
        let Some((size, reused)) = batch.filter(|_| self.stats.dispatch.enabled) else {
            return;
        };
        if reused {
            self.stats.dispatch.retry_generation_reuses += 1;
        }
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.push(
                t,
                Lane::Coordinator,
                TraceEvent::RetryBatch {
                    generation: self.snap_gen,
                    size,
                    reused,
                },
            );
        }
    }

    /// Provisions one engine from `grow` at `t`. The factory sees the id
    /// the newcomer will be registered under (per-engine RNG streams and
    /// growth specs key off it), and the newcomer's ticks start at `t`.
    fn provision(&mut self, t: SimTime, grow: &mut dyn FnMut(EngineId) -> Engine) {
        let id = self.next_engine_id();
        let assigned = self.add_engine(grow(id));
        assert_eq!(assigned, id, "engine id minted twice");
        let slot = self.slots.last_mut().expect("engine just added");
        slot.seed_ticks(t);
    }

    /// Kills engine `victim` at `t`: its shard re-homes (warm, when the
    /// fault spec arms shard recovery), its unfinished requests are
    /// evacuated, as a partition's are, for router re-dispatch after the
    /// detection timeout plus per-request capped exponential backoff, and
    /// the corpse is retired at once (the records of requests it
    /// *completed* survive into the report, which reads none of the
    /// reservations the evacuation released).
    /// The last active engine refuses to die — a fleet never crashes to
    /// zero — and a crash aimed at an engine that already left is moot.
    fn fault_crash(&mut self, victim: EngineId, t: SimTime) {
        let Some(pos) = self.slots.iter().position(|s| s.id == victim) else {
            return;
        };
        let was_draining = self.slots[pos].draining;
        if !was_draining && self.is_last_standing(pos) {
            return;
        }
        let queued = self.slots[pos].engine.queue_len() as u32;
        let running = self.slots[pos].engine.running_len() as u32;
        self.stats.fault.engines_failed += 1;
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.push(
                t,
                Lane::Coordinator,
                TraceEvent::EngineFailed {
                    engine: victim.0,
                    queued,
                    running,
                },
            );
        }
        if !was_draining {
            if self.router.uses_affinity() {
                let moved = self.count_rehomed(&self.slots[pos].engine, None, Some(victim));
                self.stats.on_adapters_rehomed(moved);
            }
            // Out of the routing candidate set before any recovery
            // decision looks at the fleet.
            self.slots[pos].draining = true;
            if self.fault.as_ref().is_some_and(|fs| fs.spec.shard_recovery) {
                self.recover_shard(victim, t);
            }
        }
        let lost = self.slots[pos].engine.evacuate_unfinished(t);
        self.enqueue_victims(lost, t, None);
        self.retire_slot(pos);
    }

    /// Pushes extracted victims into the retry ledger — detection
    /// timeout plus per-request capped exponential backoff, clamped to
    /// `heal` when the victims sit behind a partition (whichever the
    /// coordinator observes first re-dispatches them) — and opens one
    /// MTTR episode over those that stayed within their retry budget.
    fn enqueue_victims(&mut self, victims: Vec<Request>, t: SimTime, heal: Option<SimTime>) {
        let fs = self.fault.as_mut().expect("victims without fault plane");
        // A victim crashed out of an earlier episode joins this one: its
        // earlier re-dispatch already closed it there.
        let episode = fs.episodes.len();
        let mut recovered: Vec<u64> = Vec::new();
        for req in victims {
            let attempt = {
                let a = fs.attempts.entry(req.id().0).or_insert(0);
                *a += 1;
                *a
            };
            if attempt > fs.spec.max_retries {
                self.stats.fault.requests_failed += 1;
                continue;
            }
            self.stats.fault.requests_recovered += 1;
            let mut due = t + fs.spec.detect_timeout + fs.spec.backoff_for(attempt);
            if let Some(heal) = heal {
                due = due.min(heal);
            }
            recovered.push(req.id().0);
            fs.retries.push(RetryEntry {
                due,
                attempt,
                req,
                episode,
            });
        }
        if !recovered.is_empty() {
            fs.episodes.push(RecoveryEpisode {
                at: t,
                outstanding: recovered.len() as u32,
                redispatch_last: None,
                victims: recovered,
            });
        }
        fs.retries
            .sort_by_key(|r| (r.due, r.req.arrival(), r.req.id().0));
    }

    /// Kills every engine of `rack` at `t`, in slot order — the
    /// correlated failure anti-affinity placement exists to survive. A
    /// rack with no members (engines all retired, or topology absent) is
    /// moot; the last-engine refusal in [`Cluster::fault_crash`] still
    /// applies per member, so a rack holding the whole fleet loses all
    /// but one engine. The `DomainFailed` event ahead of the members'
    /// `EngineFailed` events counts the engines the crash takes down.
    fn fault_domain_crash(&mut self, rack: u32, t: SimTime) {
        let positions = self.members(FaultTarget::Rack(rack));
        if positions.is_empty() {
            return;
        }
        self.stats.fault.domains_failed += 1;
        let engines = self.crash_toll(&positions);
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.push(
                t,
                Lane::Coordinator,
                TraceEvent::DomainFailed { rack, engines },
            );
        }
        let members: Vec<EngineId> = positions.iter().map(|&pos| self.slots[pos].id).collect();
        for victim in members {
            self.fault_crash(victim, t);
        }
    }

    /// How many of the engines at slot positions `positions` crashing them
    /// in order with [`Cluster::fault_crash`] takes down: every draining
    /// one, and every active one its last-engine guard does not spare.
    fn crash_toll(&self, positions: &[usize]) -> u32 {
        let (mut active, mut reachable) = (self.active_engines(), self.reachable_active());
        let mut toll = 0;
        for &pos in positions {
            if !self.slots[pos].draining {
                if self.spares(pos, active, reachable) {
                    continue;
                }
                active -= 1;
                reachable -= usize::from(!self.is_unreachable(&self.slots[pos]));
            }
            toll += 1;
        }
        toll
    }

    /// Opens (`open`) or closes a slowdown window of `factor` on every
    /// engine `target` hits. Each engine then runs at the largest factor
    /// among its open windows, so a milder window nested in a harsher one
    /// changes nothing.
    fn slowdown(&mut self, target: FaultTarget, factor: f64, open: bool) {
        for pos in self.members(target) {
            let slot = &mut self.slots[pos];
            if open {
                slot.slowdowns.push(factor);
            } else if let Some(i) = slot.slowdowns.iter().position(|&f| f == factor) {
                slot.slowdowns.swap_remove(i);
            }
            let worst = slot.slowdowns.iter().copied().fold(1.0, f64::max);
            slot.engine.set_slowdown(worst);
        }
    }

    /// Cuts `rack` off from the coordinator until `heal`: its engines
    /// leave the routing candidate set (traffic routes around the
    /// domain), and their in-flight work — which the coordinator must
    /// presume lost — is evacuated into the retry ledger, due at the
    /// heal or the detection timeout, whichever lands first. The engines
    /// themselves stay up and rejoin at [`Cluster::partition_end`]. A
    /// partition that would leave the coordinator with no reachable
    /// engine is refused, as is one for a memberless rack. A window on a
    /// rack that is already cut off keeps it cut off until this window's
    /// heal too, without a second evacuation.
    fn partition_start(&mut self, rack: u32, heal: SimTime, t: SimTime) {
        let members = self.members(FaultTarget::Rack(rack));
        if members.is_empty() {
            return;
        }
        let remaining = self
            .slots
            .iter()
            .filter(|s| !s.draining && !self.is_unreachable(s) && s.rack != Some(rack))
            .count();
        if remaining == 0 {
            return;
        }
        {
            let fs = self.fault.as_mut().expect("partition without fault plane");
            let heals = fs.partitioned.entry(rack).or_default();
            heals.push(heal);
            if heals.len() > 1 {
                return;
            }
        }
        self.stats.fault.partitions += 1;
        self.snap_filled_at = None;
        let mut victims: Vec<Request> = Vec::new();
        for &pos in &members {
            victims.extend(self.slots[pos].engine.evacuate_unfinished(t));
        }
        self.enqueue_victims(victims, t, Some(heal));
    }

    /// Closes the partition windows on `rack` whose heal has come, and
    /// heals the rack once none is left open: its engines rejoin the
    /// candidate set at the next snapshot fill, and the victims whose
    /// retry clamp was this heal re-dispatch at this same barrier (actions
    /// run before due retries). The end of a refused window finds no
    /// window of its own to close and leaves an accepted one open.
    fn partition_end(&mut self, rack: u32, t: SimTime) {
        let fs = self.fault.as_mut().expect("partition without fault plane");
        let Some(heals) = fs.partitioned.get_mut(&rack) else {
            return;
        };
        heals.retain(|&heal| heal > t);
        if !heals.is_empty() {
            return;
        }
        fs.partitioned.remove(&rack);
        self.snap_filled_at = None;
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.push(t, Lane::Coordinator, TraceEvent::PartitionHealed { rack });
        }
    }

    /// Crash-time shard recovery: warm-loads the shard of dead engine
    /// `victim` — its resident adapters that *homed* on it — onto the
    /// survivors that inherit them (each adapter to its post-crash
    /// rendezvous home), as PCIe-cost-modelled warm transfers on the
    /// survivors' links. Spilled copies the victim happened to hold are
    /// not part of the shard and stay behind. The copies race the
    /// backlog's re-dispatch, and the fault ledger counts them.
    fn recover_shard(&mut self, victim: EngineId, now: SimTime) {
        let survivors = self.active_weights();
        if survivors.is_empty() {
            return;
        }
        let vpos = self
            .slots
            .iter()
            .position(|s| s.id == victim)
            .expect("crashed engine is present");
        let mut before = survivors.clone();
        before.push((victim, self.slots[vpos].engine.capacity_weight()));
        let mut shard: Vec<AdapterId> = self.slots[vpos]
            .engine
            .resident_adapters()
            .into_iter()
            .collect();
        // The residency set iterates in arbitrary order; transfers queue
        // on each survivor's PCIe link, so the order must be pinned.
        shard.sort_unstable();
        let mut moved = 0u64;
        let mut bytes_total = 0u64;
        for a in shard {
            let home_before = before[policies::rendezvous_home(a, before.iter().copied())].0;
            if home_before != victim {
                continue;
            }
            let new_home = survivors[policies::rendezvous_home(a, survivors.iter().copied())].0;
            let pos = self
                .slots
                .iter()
                .position(|s| s.id == new_home)
                .expect("survivor is present");
            let slot = &mut self.slots[pos];
            if let Some(bytes) = slot.engine.warm_load(a, now, &mut slot.out) {
                for (at, e) in slot.out.drain(..) {
                    slot.queue.push(at, e);
                }
                moved += 1;
                bytes_total += bytes;
            }
        }
        if moved > 0 {
            self.stats.fault.shard_adapters_recovered += moved;
            self.stats.fault.shard_bytes_recovered += bytes_total;
            if let Some(tracer) = self.tracer.as_mut() {
                tracer.push(
                    now,
                    Lane::Coordinator,
                    TraceEvent::ShardRecovered {
                        from: victim.0,
                        adapters: moved as u32,
                        bytes: bytes_total,
                    },
                );
            }
        }
    }

    /// Re-dispatches one recovered request through the router, exactly
    /// like a fresh arrival handled at its barrier (routing from the open
    /// generation, routing stats, engine handoff) — except it bypasses
    /// the shedding gate (the system already owes this request) and does
    /// not feed the forecaster (its adapter's arrival was observed once,
    /// at the original dispatch). The caller ([`Cluster::fault_barrier`])
    /// prepares the generation.
    fn dispatch_retry(&mut self, t: SimTime, entry: RetryEntry) {
        let (pos, spilled) = self.route_one(&entry.req);
        let chosen = self.slots[pos].id;
        let affinity_hit = self.slots[pos]
            .engine
            .is_adapter_resident(entry.req.adapter());
        self.stats.record(chosen, affinity_hit, spilled);
        self.stats.fault.retries += 1;
        if let Some(fs) = self.fault.as_mut() {
            // Close the victim's MTTR episode leg: re-dispatched.
            let e = &mut fs.episodes[entry.episode];
            e.outstanding = e.outstanding.saturating_sub(1);
            e.redispatch_last = Some(e.redispatch_last.map_or(t, |p| p.max(t)));
        }
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.push(
                t,
                Lane::Coordinator,
                TraceEvent::RequestRetried {
                    req: entry.req.id().0,
                    attempt: entry.attempt,
                    target: chosen.0,
                },
            );
        }
        let slot = &mut self.slots[pos];
        slot.engine
            .handle(t, EngineEvent::Arrival(entry.req), &mut slot.out);
        for (at, e) in slot.out.drain(..) {
            slot.queue.push(at, e);
        }
        self.horizon = self.horizon.max(t);
    }

    /// Runs `trace` through the (fixed) cluster until drained, serially.
    /// Returns the instant of the last processed event.
    pub fn run(&mut self, trace: &Trace) -> SimTime {
        self.run_with(trace, ClusterExecution::Serial)
    }

    /// [`Cluster::run`] with an explicit [`ClusterExecution`] mode.
    /// Parallel runs are bit-identical to serial for every worker count.
    pub fn run_with(&mut self, trace: &Trace, exec: ClusterExecution) -> SimTime {
        self.dispatch_run(trace, None, exec)
    }

    /// Runs `trace` with `autoscaler` evaluating the fleet every
    /// [`AutoscalerConfig::interval`](crate::autoscaler::AutoscalerConfig)
    /// and `grow` building each engine the fleet scales up by (called
    /// with the newcomer's id). Scale-downs drain gracefully — only the
    /// departing engine's adapter shard re-homes.
    pub fn run_elastic(
        &mut self,
        trace: &Trace,
        autoscaler: &mut Autoscaler,
        grow: &mut dyn FnMut(EngineId) -> Engine,
    ) -> SimTime {
        self.run_elastic_with(trace, autoscaler, grow, ClusterExecution::Serial)
    }

    /// [`Cluster::run_elastic`] with an explicit [`ClusterExecution`]
    /// mode; fleet changes happen at barriers, so elastic parallel runs
    /// are bit-identical to serial too.
    pub fn run_elastic_with(
        &mut self,
        trace: &Trace,
        autoscaler: &mut Autoscaler,
        grow: &mut dyn FnMut(EngineId) -> Engine,
        exec: ClusterExecution,
    ) -> SimTime {
        self.dispatch_run(trace, Some((autoscaler, grow)), exec)
    }

    /// Resolves the execution mode and enters the epoch loop, with a
    /// shard pool wrapped around it when the run is parallel.
    fn dispatch_run(
        &mut self,
        trace: &Trace,
        scale: Option<(&mut Autoscaler, &mut dyn FnMut(EngineId) -> Engine)>,
        exec: ClusterExecution,
    ) -> SimTime {
        let workers = exec.worker_count().max(1);
        let t0 = self.profile.is_some().then(Instant::now);
        let horizon = match workers {
            1 => self.run_loop(trace, scale, None),
            workers => {
                let profiling = self.profile.is_some();
                shard::with_shard_pool(
                    workers,
                    |cmd: &EpochCmd, slot: &mut EngineSlot| slot.step_to(cmd),
                    |pool| {
                        if profiling {
                            pool.enable_profiling();
                        }
                        let horizon = self.run_loop(trace, scale, Some(pool));
                        if let Some(p) = self.profile.as_mut() {
                            p.worker_busy_ns += pool.busy_ns();
                        }
                        horizon
                    },
                )
            }
        };
        if let (Some(p), Some(t0)) = (self.profile.as_mut(), t0) {
            p.run_wall_ns += t0.elapsed().as_nanos() as u64;
            if workers > 1 {
                p.workers = p.workers.max(workers);
            }
        }
        horizon
    }

    /// The epoch loop shared by serial and parallel execution: partition
    /// the event horizon at the next cross-engine event (arrival barrier,
    /// autoscaler tick or fault barrier), step every engine's local queue
    /// to that boundary ([`Cluster::run_epoch`]), then hand the barrier
    /// to the event's handler, which has exclusive access to the whole
    /// fleet.
    ///
    /// Simultaneous events follow a fixed precedence both modes share:
    /// arrivals (in trace order), then the autoscaler tick, then fault
    /// barriers, then engine-local events (in per-engine schedule order)
    /// — the same order the pre-epoch single-heap loop produced for
    /// arrivals, and a pinned choice for the (previously
    /// push-order-dependent) tick-vs-scale tie.
    fn run_loop(
        &mut self,
        trace: &Trace,
        mut scale: Option<(&mut Autoscaler, &mut dyn FnMut(EngineId) -> Engine)>,
        pool: Option<&ShardPool<'_, EngineSlot, EpochCmd>>,
    ) -> SimTime {
        // Arrivals in dispatch order: by time, ties by trace position
        // (the old heap's FIFO tie-break for the up-front pushes).
        let arrivals = trace.requests();
        debug_assert!(
            arrivals.is_sorted_by_key(Request::arrival),
            "a Trace keeps its requests sorted by arrival"
        );
        for slot in &mut self.slots {
            slot.begin_run();
        }
        self.horizon = SimTime::ZERO;
        let last_arrival = arrivals.last().map_or(SimTime::ZERO, Request::arrival);
        let mut next_scale = scale
            .as_ref()
            .map(|(autoscaler, _)| SimTime::ZERO + autoscaler.config().interval);
        let mut next_arr = 0usize;
        loop {
            let arr_t = arrivals.get(next_arr).map(Request::arrival);
            let fault_t = self.next_fault_time();
            // The next cross-engine event. Equal-time ties resolve by the
            // fixed [`CrossEvent`] class precedence (arrivals, then the
            // autoscaler tick, then fault barriers); the loop below keeps
            // an earlier-listed class on a time tie.
            let mut cross: Option<(SimTime, CrossEvent)> = None;
            for (cand, kind) in [
                (arr_t, CrossEvent::Arrival),
                (next_scale, CrossEvent::Scale),
                (fault_t, CrossEvent::Fault),
            ] {
                if let Some(cand) = cand {
                    if cross.is_none_or(|(best, _)| cand < best) {
                        cross = Some((cand, kind));
                    }
                }
            }
            let ticks_until = self.ticks_until(last_arrival);
            self.run_epoch(cross.map(|(t, _)| t), ticks_until, pool);
            self.harvest_retired();
            let Some((t, kind)) = cross else {
                break; // final epoch drained every local queue
            };
            match kind {
                CrossEvent::Arrival => {
                    // A batch coalesces arrivals up to the next
                    // non-coalescible cross event, inclusive: the arrival
                    // class wins an equal-time tie.
                    let limit = next_scale.into_iter().chain(fault_t).min();
                    next_arr += self.dispatch_arrivals(t, limit, &arrivals[next_arr..]);
                }
                CrossEvent::Scale => {
                    let (autoscaler, grow) = scale.as_mut().expect("scale event without scaler");
                    next_scale = self.scale_tick(t, autoscaler, grow, last_arrival);
                }
                CrossEvent::Fault => self.fault_barrier(t, &mut scale),
            }
        }
        // Retired engines folded their run counters at retirement.
        for pos in 0..self.slots.len() {
            self.fold_run(pos);
        }
        self.horizon
    }

    /// One arrival barrier at `t`, the instant of `pending[0]`: opens a
    /// snapshot generation and routes from it each arrival of `pending`
    /// (the undispatched arrivals, in dispatch order) that the budget
    /// admits — at most its batch size, spanning at most its age, none
    /// after `limit`. Per-arrival dispatch is the budget `(1, 0)`.
    ///
    /// A member arriving at `t` is handled here, at the barrier, as a
    /// retry is; a later member waits in its engine's `arrivals` deque
    /// and is handled inside the next epoch at its own instant. Sheds
    /// stay coordinator events. Returns the number of arrivals the batch
    /// took.
    fn dispatch_arrivals(
        &mut self,
        t: SimTime,
        limit: Option<SimTime>,
        pending: &[Request],
    ) -> usize {
        let (max_batch, max_age) = self.budget;
        self.refresh_snapshots(t);
        let mut size: u32 = 0;
        for &req in pending {
            let ta = req.arrival();
            if size > 0
                && (limit.is_some_and(|l| ta > l)
                    || size >= max_batch
                    || ta.saturating_since(t) > max_age)
            {
                break;
            }
            size += 1;
            self.horizon = self.horizon.max(ta);
            // Forecast signal: arrival history is observed here, at the
            // dispatch barrier, on the coordinator — never on worker
            // threads — so predictions are identical in both modes.
            if self.predictive.is_some_and(|s| s.forecast_autoscale) {
                self.forecaster.observe(req.adapter(), ta);
            }
            if !self.shed(&req) {
                self.route_arrival(t, req);
            }
        }
        self.snap_served = size;
        if self.stats.dispatch.enabled {
            self.stats.dispatch.on_batch(u64::from(size));
            if let Some(tracer) = self.tracer.as_mut() {
                tracer.push(
                    t,
                    Lane::Coordinator,
                    TraceEvent::DispatchBatch {
                        generation: self.snap_gen,
                        size,
                        span: pending[size as usize - 1].arrival().saturating_since(t),
                    },
                );
            }
        }
        size as usize
    }

    /// SLO-aware load shedding: when even the least-loaded engine's
    /// estimated TTFT is past `shed_multiple` × SLO, admitting `req`
    /// would both miss its own SLO and deepen everyone else's backlog —
    /// refuse it at the door and count it, rather than time it out
    /// silently. The gate prices against the open generation's frozen
    /// TTFT estimates (echoes bump queue depth and outstanding tokens,
    /// not the estimate), so a brownout verdict holds for a whole batch.
    /// Returns whether `req` was shed.
    fn shed(&mut self, req: &Request) -> bool {
        let Some(fs) = self.fault.as_ref() else {
            return false;
        };
        let Some(slo) = fs.slo.filter(|_| fs.spec.sheds()) else {
            return false;
        };
        let min_est = self
            .snap_buf
            .iter()
            .map(|s| s.est_ttft_secs)
            .fold(f64::INFINITY, f64::min);
        if min_est > fs.spec.shed_multiple * slo.as_secs_f64() {
            let idle = self
                .snap_buf
                .iter()
                .filter(|s| s.queue_depth == 0 && s.running == 0)
                .count() as u32;
            self.stats.fault.requests_shed += 1;
            self.events_processed += 1;
            if let Some(tracer) = self.tracer.as_mut() {
                tracer.push(
                    req.arrival(),
                    Lane::Coordinator,
                    TraceEvent::RequestShed {
                        req: req.id().0,
                        est_ttft: SimDuration::from_secs_f64(min_est),
                        idle_engines: idle,
                    },
                );
            }
            return true;
        }
        false
    }

    /// Routes one member of the arrival batch opened at `t` and hands it
    /// to its engine: now, when it arrives at the barrier, or inside the
    /// next epoch at its own instant otherwise. Its affinity hit is
    /// counted on delivery either way (`EngineSlot::arrival_hits`);
    /// residency at routing time feeds only the trace.
    fn route_arrival(&mut self, t: SimTime, req: Request) {
        let ta = req.arrival();
        let candidates: Option<Vec<(u32, u64)>> = self.tracer.is_some().then(|| {
            self.snap_buf
                .iter()
                .map(|s| (s.id.0, s.outstanding_tokens))
                .collect()
        });
        let (pos, spilled) = self.route_one(&req);
        let chosen = self.slots[pos].id;
        self.stats.record(chosen, false, spilled);
        if let (Some(tracer), Some(candidates)) = (self.tracer.as_mut(), candidates) {
            tracer.push(
                ta,
                Lane::Coordinator,
                TraceEvent::RouteDecision {
                    req: req.id().0,
                    adapter: req.adapter().0,
                    chosen: chosen.0,
                    spilled,
                    affinity_hit: self.slots[pos].engine.is_adapter_resident(req.adapter()),
                    candidates,
                },
            );
        }
        let slot = &mut self.slots[pos];
        if ta == t {
            slot.deliver(ta, req);
        } else {
            slot.arrivals.push_back((ta, req));
        }
    }

    /// The keep-alive instant of periodic ticks, the engines' and the
    /// autoscaler's alike: a tick before it survives even on an idle
    /// fleet, because until then a dispatch can still arrive — the
    /// trace's last arrival, or the latest pending crash-recovery retry.
    /// Later ticks survive only while there is work.
    fn ticks_until(&self, last_arrival: SimTime) -> SimTime {
        let latest_retry = self.fault.as_ref().and_then(|fs| fs.retries.last());
        latest_retry.map_or(last_arrival, |r| r.due.max(last_arrival))
    }

    /// One autoscaler tick at `t`: the controller reads a fresh fleet
    /// snapshot and holds, scales up through `grow` (subject to
    /// provisioning faults), or drains an engine. Returns the next
    /// tick's instant — `None` once `t` has reached
    /// [`Cluster::ticks_until`] and every engine is idle.
    fn scale_tick(
        &mut self,
        t: SimTime,
        autoscaler: &mut Autoscaler,
        grow: &mut dyn FnMut(EngineId) -> Engine,
        last_arrival: SimTime,
    ) -> Option<SimTime> {
        self.events_processed += 1;
        self.fill_snapshots();
        let signal = self.forecast_signal(t, autoscaler.config().interval);
        let draining = self.slots.len() - self.snap_buf.len();
        let action = autoscaler.decide_with(t, &self.snap_buf, draining, &signal);
        let trigger = match autoscaler.last_trigger() {
            Some(ScaleTrigger::SloEstimate) => "slo-estimate",
            Some(ScaleTrigger::Forecast) => "forecast",
            _ => "queue-depth",
        };
        match action {
            ScaleAction::Hold => {}
            ScaleAction::ScaleUp => {
                // Provisioning faults: a scale-up can fail outright (the
                // controller simply retries on a later tick) or be slowed
                // by an injected delay, in which case the engine joins at
                // the fault barrier where its provision completes.
                let mut skip_add = false;
                if let Some(fs) = self.fault.as_mut() {
                    if fs.spec.provision_fail_prob > 0.0 {
                        let roll = fault_roll(fs.spec.seed, PROVISION_STREAM, fs.provision_counter);
                        fs.provision_counter += 1;
                        if roll < fs.spec.provision_fail_prob {
                            self.stats.fault.provision_failures += 1;
                            skip_add = true;
                        }
                    }
                    if !skip_add && !fs.spec.provision_delay.is_zero() {
                        fs.pending_provisions.push(t + fs.spec.provision_delay);
                        self.stats.fault.provision_delays += 1;
                        skip_add = true;
                    }
                }
                if !skip_add {
                    self.provision(t, grow);
                    if self.predictive.is_some() {
                        match autoscaler.last_trigger() {
                            Some(ScaleTrigger::SloEstimate) => {
                                self.stats.predictive.slo_scaleups += 1;
                            }
                            Some(ScaleTrigger::Forecast) => {
                                self.stats.predictive.forecast_scaleups += 1;
                            }
                            _ => {}
                        }
                    }
                    if let Some(tracer) = self.tracer.as_mut() {
                        tracer.push(
                            t,
                            Lane::Coordinator,
                            TraceEvent::AutoscaleTrigger {
                                action: AutoscaleAction::ScaleUp,
                                trigger,
                            },
                        );
                    }
                }
            }
            ScaleAction::Drain(victim) => {
                if self.drain_engine(victim) {
                    if let Some(tracer) = self.tracer.as_mut() {
                        tracer.push(
                            t,
                            Lane::Coordinator,
                            TraceEvent::AutoscaleTrigger {
                                action: AutoscaleAction::Drain(victim.0),
                                trigger,
                            },
                        );
                        tracer.push(
                            t,
                            Lane::Coordinator,
                            TraceEvent::DrainStarted { engine: victim.0 },
                        );
                    }
                    let pos = self
                        .slots
                        .iter()
                        .position(|s| s.id == victim)
                        .expect("drained engine is present");
                    if !self.slots[pos].engine.has_work() {
                        self.retire_slot(pos);
                    }
                }
            }
        }
        let keep_alive =
            t < self.ticks_until(last_arrival) || self.slots.iter().any(|s| s.engine.has_work());
        keep_alive.then(|| t + autoscaler.config().interval)
    }

    /// Total completed requests across live and retired engines.
    pub fn completed(&self) -> u64 {
        let live: u64 = self.slots.iter().map(|s| s.engine.completed()).sum();
        let retired: u64 = self.retired.iter().map(|(_, r)| r.completed() as u64).sum();
        live + retired
    }

    /// Finalises into one merged report carrying the routing statistics
    /// (retired engines included). Reports are merged in stable-id order
    /// regardless of when each engine retired, so the result is
    /// independent of retirement timing — and therefore identical
    /// between serial and parallel execution by construction.
    pub fn into_report(self) -> EngineReport {
        self.into_report_with_trace().0
    }

    /// [`Cluster::into_report`] plus the telemetry the run accumulated:
    /// the merged deterministic trace log (when tracing was enabled) and
    /// the wall-clock barrier profile (when profiling was enabled).
    /// Live engines' buffered events are drained into their lanes before
    /// the log is sealed, so late-run decisions are never lost.
    pub fn into_report_with_trace(
        mut self,
    ) -> (EngineReport, Option<TraceLog>, Option<BarrierProfile>) {
        if let Some(tracer) = self.tracer.as_mut() {
            for slot in &mut self.slots {
                tracer.extend_lane(Lane::Engine(slot.id.0), slot.engine.take_trace_events());
            }
        }
        let log = self.tracer.take().map(TraceBuffer::finish);
        let profile = self.profile.take();
        let fault = self.fault.take();
        let mut stats = self.stats;
        stats.fault.pcie_retries += self
            .slots
            .iter()
            .map(|s| s.engine.pcie_fault_retries())
            .sum::<u64>();
        let mut tagged = self.retired;
        tagged.extend(
            self.slots
                .into_iter()
                .map(|s| (s.id, s.engine.into_report())),
        );
        tagged.sort_by_key(|&(id, _)| id.0);
        let mut reports = tagged.into_iter().map(|(_, r)| r);
        let mut merged = reports.next().expect("non-empty cluster");
        for r in reports {
            merged.merge(r);
        }
        // Settle the MTTR ledger. Redispatch legs closed during the run;
        // completion legs need the merged records, where every victim's
        // finish instant lives regardless of which engine it landed on.
        if let Some(fs) = fault {
            let redis: Vec<f64> = fs
                .episodes
                .iter()
                .filter(|e| e.outstanding == 0)
                .filter_map(|e| {
                    e.redispatch_last
                        .map(|r| r.saturating_since(e.at).as_secs_f64())
                })
                .collect();
            if !redis.is_empty() {
                stats.fault.mttr_redispatch = redis.iter().sum::<f64>() / redis.len() as f64;
            }
            if !fs.episodes.is_empty() {
                let finished: HashMap<u64, SimTime> = merged
                    .records
                    .iter()
                    .filter_map(|r| r.finished.map(|f| (r.id.0, f)))
                    .collect();
                let spans: Vec<f64> = fs
                    .episodes
                    .iter()
                    .filter_map(|e| {
                        e.victims
                            .iter()
                            .filter_map(|v| finished.get(v).copied())
                            .max()
                            .map(|f| f.saturating_since(e.at).as_secs_f64())
                    })
                    .collect();
                if !spans.is_empty() {
                    stats.fault.mttr_complete = spans.iter().sum::<f64>() / spans.len() as f64;
                }
            }
        }
        merged.routing = stats;
        (merged, log, profile)
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("engines", &self.slots.len())
            .field("active", &self.active_engines())
            .field("retired", &self.retired.len())
            .field("router", &self.router.name())
            .field("dispatched", &self.stats.per_engine)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscaler::AutoscalerConfig;
    use crate::config::EngineConfig;
    use chameleon_cache::{AdapterCache, EvictionPolicy};
    use chameleon_models::{AdapterPool, GpuSpec, LlmSpec, PoolConfig};
    use chameleon_predictor::OraclePredictor;
    use chameleon_router::{AdapterAffinity, RouterPolicy};
    use chameleon_sched::{FifoScheduler, WrsConfig};
    use chameleon_simcore::SimRng;
    use chameleon_workload::{ArrivalModel, LengthModel, TraceGenerator};

    fn cluster_and_trace(n_engines: usize, n_reqs: usize) -> (Cluster, Trace) {
        let (factory, trace) = factory_and_trace(n_reqs);
        (Cluster::new(n_engines, factory), trace)
    }

    fn factory_and_trace(n_reqs: usize) -> (impl FnMut(usize) -> Engine, Trace) {
        factory_and_trace_at(20.0, n_reqs)
    }

    fn factory_and_trace_at(rps: f64, n_reqs: usize) -> (impl FnMut(usize) -> Engine, Trace) {
        let llm = LlmSpec::llama_7b();
        let pool = AdapterPool::generate(&llm, &PoolConfig::paper_default(10));
        let gen = TraceGenerator::new(
            LengthModel::Custom {
                input: chameleon_workload::generator::TokenLengthModel {
                    median: 64.0,
                    sigma: 0.5,
                    min: 8,
                    max: 256,
                },
                output: chameleon_workload::generator::TokenLengthModel {
                    median: 8.0,
                    sigma: 0.5,
                    min: 2,
                    max: 32,
                },
            },
            ArrivalModel::poisson(rps),
        );
        let mut rng = SimRng::seed(7);
        let trace = gen.generate_n(&pool, n_reqs, &mut rng);
        let factory = move |_| {
            Engine::new(
                EngineConfig::new(LlmSpec::llama_7b(), GpuSpec::a40()),
                pool.clone(),
                Box::new(FifoScheduler::new()),
                Box::new(OraclePredictor::new()),
                AdapterCache::new(EvictionPolicy::chameleon()),
                WrsConfig::paper(2048.0, 1024.0, (256 << 20) as f64),
            )
        };
        (factory, trace)
    }

    #[test]
    fn completes_everything_and_balances() {
        let (mut c, trace) = cluster_and_trace(3, 60);
        c.run(&trace);
        assert_eq!(c.completed(), 60);
        // JSQ keeps dispatch counts reasonably balanced.
        let counts = c.dispatch_counts().to_vec();
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min.max(1.0) < 4.0, "imbalanced: {counts:?}");
        let report = c.into_report();
        assert_eq!(report.records.len(), 60);
        assert!(report.records.iter().all(|r| r.is_complete()));
    }

    #[test]
    fn more_engines_cut_latency_under_load() {
        let (mut one, trace) = cluster_and_trace(1, 80);
        let (mut four, _) = cluster_and_trace(4, 0);
        one.run(&trace);
        four.run(&trace);
        let p99 = |rep: &EngineReport| {
            let mut v: Vec<f64> = rep
                .records
                .iter()
                .filter_map(|r| r.ttft())
                .map(|d| d.as_secs_f64())
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let i = ((v.len() as f64 * 0.99) as usize).min(v.len() - 1);
            v[i]
        };
        let r1 = one.into_report();
        let r4 = four.into_report();
        assert_eq!(r4.records.len(), 80);
        assert!(
            p99(&r4) <= p99(&r1),
            "4 engines should not be slower than 1"
        );
    }

    /// The extracted JoinShortestQueue policy reproduces the seed
    /// dispatcher byte for byte: `Cluster::new` (which delegates to the
    /// router) and a hand-rolled min-outstanding-tokens dispatch make
    /// identical choices, so the refactor is behaviour-preserving.
    #[test]
    fn default_router_preserves_jsq_dispatch_behaviour() {
        let (factory, trace) = factory_and_trace(120);
        let mut via_router = Cluster::new(3, factory);
        via_router.run(&trace);

        // Reference run: the pre-refactor inlined global scheduler.
        let (factory, _) = factory_and_trace(0);
        let mut reference = ReferenceJsqCluster::new(3, factory);
        reference.run(&trace);

        assert_eq!(via_router.dispatch_counts(), &reference.dispatched[..]);
        assert_eq!(via_router.completed(), reference.completed());
        let a = via_router.into_report();
        let b = reference.into_report();
        let key = |rep: &EngineReport| {
            rep.records
                .iter()
                .map(|r| (r.id, r.first_token, r.finished))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b), "per-request timings diverged");
    }

    /// Verbatim re-implementation of the pre-refactor cluster dispatch
    /// loop (global scheduler inlined as `min_by_key(outstanding_tokens)`),
    /// kept as the behaviour-preservation oracle.
    struct ReferenceJsqCluster {
        engines: Vec<Engine>,
        dispatched: Vec<u64>,
    }

    impl ReferenceJsqCluster {
        fn new<F: FnMut(usize) -> Engine>(n: usize, mut factory: F) -> Self {
            ReferenceJsqCluster {
                engines: (0..n).map(&mut factory).collect(),
                dispatched: vec![0; n],
            }
        }

        fn completed(&self) -> u64 {
            self.engines.iter().map(|e| e.completed()).sum()
        }

        fn into_report(self) -> EngineReport {
            let mut reports = self.engines.into_iter().map(Engine::into_report);
            let mut merged = reports.next().expect("non-empty cluster");
            for r in reports {
                merged.merge(r);
            }
            merged
        }

        fn run(&mut self, trace: &Trace) -> SimTime {
            enum Ev {
                Arrival(chameleon_workload::Request),
                Engine(usize, EngineEvent),
            }
            let mut q: EventQueue<Ev> = EventQueue::with_capacity(trace.len() * 4);
            let mut arrivals_left = trace.len();
            for r in trace {
                q.push(r.arrival(), Ev::Arrival(*r));
            }
            let mem_int = self.engines[0].config().mem_sample_interval;
            let refresh_int = self.engines[0].config().refresh_interval;
            for i in 0..self.engines.len() {
                q.push(
                    SimTime::ZERO + mem_int,
                    Ev::Engine(i, EngineEvent::MemSample),
                );
                q.push(
                    SimTime::ZERO + refresh_int,
                    Ev::Engine(i, EngineEvent::Refresh),
                );
            }
            let mut out = Vec::new();
            let mut last = SimTime::ZERO;
            while let Some((t, ev)) = q.pop() {
                last = t;
                match ev {
                    Ev::Arrival(req) => {
                        arrivals_left -= 1;
                        let target = (0..self.engines.len())
                            .min_by_key(|&i| self.engines[i].outstanding_tokens())
                            .expect("non-empty cluster");
                        self.dispatched[target] += 1;
                        self.engines[target].handle(t, EngineEvent::Arrival(req), &mut out);
                        for (at, e) in out.drain(..) {
                            q.push(at, Ev::Engine(target, e));
                        }
                    }
                    Ev::Engine(i, ev) => {
                        let reschedule = match &ev {
                            EngineEvent::MemSample => Some((t + mem_int, EngineEvent::MemSample)),
                            EngineEvent::Refresh => Some((t + refresh_int, EngineEvent::Refresh)),
                            _ => None,
                        };
                        let periodic = reschedule.is_some();
                        self.engines[i].handle(t, ev, &mut out);
                        for (at, e) in out.drain(..) {
                            q.push(at, Ev::Engine(i, e));
                        }
                        if periodic && (arrivals_left > 0 || self.engines[i].has_work()) {
                            let (at, e) = reschedule.expect("periodic");
                            q.push(at, Ev::Engine(i, e));
                        }
                    }
                }
            }
            last
        }
    }

    #[test]
    fn every_policy_drains_the_cluster() {
        for policy in RouterPolicy::ALL {
            let (factory, trace) = factory_and_trace(50);
            let mut c = Cluster::with_router(3, factory, policy.build(11));
            c.run(&trace);
            assert_eq!(c.completed(), 50, "{} lost requests", policy.name());
            let stats = c.routing_stats().clone();
            assert_eq!(stats.dispatched, 50);
            assert_eq!(stats.per_engine.iter().sum::<u64>(), 50);
            assert_eq!(stats.policy, policy.name());
            let report = c.into_report();
            assert_eq!(report.routing, stats, "routing stats reach the report");
        }
    }

    #[test]
    fn round_robin_splits_exactly() {
        let (factory, trace) = factory_and_trace(60);
        let mut c = Cluster::with_router(3, factory, RouterPolicy::RoundRobin.build(0));
        c.run(&trace);
        assert_eq!(c.dispatch_counts(), &[20, 20, 20]);
        assert_eq!(c.routing_stats().load_imbalance(), 0.0);
    }

    #[test]
    fn drain_stops_dispatch_finishes_work_and_rehomes_one_shard() {
        let (mut factory, trace) = factory_and_trace(80);
        let probe = factory(0);
        let mut c = Cluster::with_router(4, factory, Box::new(AdapterAffinity::new()));

        // The departing shard, computed independently of the cluster's
        // accounting from the pure rendezvous function. Drain an engine
        // (other than 0, which must survive) that is home to something.
        let weights: Vec<(EngineId, f64)> = (0..4)
            .map(|i| (EngineId(i), probe.capacity_weight()))
            .collect();
        let shard_of = |victim: EngineId| -> Vec<AdapterId> {
            probe
                .pool()
                .iter()
                .map(|s| s.id())
                .filter(|&a| {
                    weights[policies::rendezvous_home(a, weights.iter().copied())].0 == victim
                })
                .collect()
        };
        let victim = (1..4)
            .map(EngineId)
            .find(|&v| !shard_of(v).is_empty())
            .expect("some engine past 0 holds a shard");
        let shard = shard_of(victim);
        let survivors: Vec<(EngineId, f64)> = weights
            .iter()
            .copied()
            .filter(|&(id, _)| id != victim)
            .collect();

        assert!(c.drain_engine(victim));
        assert!(!c.drain_engine(victim), "double drain is refused");
        assert_eq!(c.active_engines(), 3);
        assert_eq!(
            c.routing_stats().adapters_rehomed,
            shard.len() as u64,
            "drain must migrate exactly the departing shard"
        );
        // Every re-homed adapter now homes where the survivors' rendezvous
        // puts it.
        for &a in &shard {
            let expect = survivors[policies::rendezvous_home(a, survivors.iter().copied())].0;
            assert_eq!(c.home_of(a), expect);
        }

        c.run(&trace);
        assert_eq!(c.completed(), 80, "drain lost requests");
        assert_eq!(
            c.routing_stats().dispatched_to(victim),
            0,
            "drained engine must receive no dispatches"
        );
        assert_eq!(c.len(), 3, "idle drained engine was retired");
        let report = c.into_report();
        assert_eq!(report.records.len(), 80);
        assert_eq!(report.routing.engines_drained, 1);
    }

    #[test]
    fn drain_mid_run_finishes_in_flight_work_on_the_victim() {
        // Dispatch some work first, then drain an engine that has it.
        let (factory, trace) = factory_and_trace(60);
        let mut c = Cluster::with_router(2, factory, Box::new(AdapterAffinity::new()));
        let half: Trace = Trace::new(trace.requests()[..30].to_vec());
        let rest: Trace = Trace::new(trace.requests()[30..].to_vec());
        c.run(&half);
        let before = c.routing_stats().dispatched_to(EngineId(0));
        assert!(c.drain_engine(EngineId(0)));
        c.run(&rest);
        assert_eq!(c.completed(), 60);
        assert_eq!(
            c.routing_stats().dispatched_to(EngineId(0)),
            before,
            "no dispatches after drain"
        );
        assert!(!c.drain_engine(EngineId(1)), "last active engine stays");
    }

    #[test]
    fn add_engine_attracts_only_its_own_shard() {
        let (mut factory, trace) = factory_and_trace(60);
        let newcomer = factory(9);
        let mut c = Cluster::with_router(2, factory, Box::new(AdapterAffinity::new()));
        let before: Vec<(EngineId, f64)> = c
            .active_engine_ids()
            .iter()
            .map(|&id| (id, newcomer.capacity_weight()))
            .collect();
        let mut after = before.clone();
        after.push((EngineId(2), newcomer.capacity_weight()));
        let expected: u64 = newcomer
            .pool()
            .iter()
            .filter(|s| {
                before[policies::rendezvous_home(s.id(), before.iter().copied())].0
                    != after[policies::rendezvous_home(s.id(), after.iter().copied())].0
            })
            .count() as u64;
        let id = c.add_engine(newcomer);
        assert_eq!(id, EngineId(2));
        assert_eq!(c.routing_stats().adapters_rehomed, expected);
        assert_eq!(c.routing_stats().engines_added, 1);
        c.run(&trace);
        assert_eq!(c.completed(), 60);
        assert!(
            c.routing_stats().dispatched_to(id) > 0,
            "newcomer received nothing"
        );
    }

    #[test]
    fn jsq_fleet_changes_rehome_nothing() {
        let (mut factory, _) = factory_and_trace(0);
        let newcomer = factory(9);
        let mut c = Cluster::new(2, factory);
        c.add_engine(newcomer);
        c.drain_engine(EngineId(0));
        assert_eq!(
            c.routing_stats().adapters_rehomed,
            0,
            "queue-depth policies have no homes to migrate"
        );
    }

    /// A second `run` whose trace timeline starts before the busy horizon
    /// carried over from the first run must still dispatch (regression:
    /// the phantom-busy state used to leave queued requests stranded with
    /// no event ever re-triggering dispatch).
    #[test]
    fn second_run_starting_inside_previous_busy_horizon_makes_progress() {
        // Overload burst: backlog processing extends well past the last
        // arrival instant, so the second run's arrivals replay "inside"
        // the first run's busy horizon.
        let (factory, trace) = factory_and_trace_at(2000.0, 120);
        let mut c = Cluster::new(2, factory);
        let reqs = trace.requests().to_vec();
        c.run(&Trace::new(reqs[..60].to_vec()));
        c.run(&Trace::new(reqs[60..].to_vec()));
        assert_eq!(c.completed(), 120, "second run stalled");
    }

    #[test]
    fn autoscaler_grows_and_drains_mid_trace() {
        // An overload burst on a deliberately small fleet: the controller
        // must grow, then drain back while the backlog clears.
        let (factory, trace) = factory_and_trace_at(2000.0, 600);
        let mut grow_factory = {
            let (mut f, _) = factory_and_trace(0);
            move |id: EngineId| f(id.0 as usize)
        };
        let mut c = Cluster::with_router(2, factory, Box::new(AdapterAffinity::new()));
        let mut scaler = Autoscaler::new(AutoscalerConfig {
            min_engines: 2,
            max_engines: 4,
            interval: SimDuration::from_millis(100),
            scale_up_mean_queue: 4.0,
            scale_up_max_queue: 32,
            scale_down_mean_queue: 0.5,
            cooldown: SimDuration::from_millis(250),
            ttft_slo: None,
        });
        c.run_elastic(&trace, &mut scaler, &mut grow_factory);
        assert_eq!(c.completed(), 600, "elastic run lost requests");
        let stats = c.routing_stats();
        assert!(
            stats.engines_added > 0,
            "burst never triggered scale-up: {:?}",
            scaler.actions()
        );
        assert!(
            stats.engines_drained > 0,
            "fleet never shrank back: {:?}",
            scaler.actions()
        );
        assert!(stats.adapters_rehomed > 0, "no migration accounted");
        let report = c.into_report();
        assert_eq!(report.records.len(), 600);
        assert!(report.records.iter().all(|r| r.is_complete()));
    }

    /// The merged trace stream is a deterministic artefact: serial and
    /// parallel runs of the same trace produce byte-identical JSONL.
    #[test]
    fn trace_stream_is_identical_across_execution_modes() {
        let run = |exec: ClusterExecution| {
            let (mut c, trace) = cluster_and_trace(3, 120);
            c.enable_tracing();
            c.run_with(&trace, exec);
            let (report, log, _) = c.into_report_with_trace();
            (
                format!("{:?}", report.records),
                log.expect("tracing on").to_jsonl(),
            )
        };
        let (serial_report, serial_jsonl) = run(ClusterExecution::Serial);
        assert!(!serial_jsonl.is_empty(), "traced run produced no events");
        assert!(serial_jsonl.contains("\"ev\":\"route\""));
        assert!(serial_jsonl.contains("\"ev\":\"barrier_close\""));
        for workers in [2, 7] {
            let (report, jsonl) = run(ClusterExecution::Parallel { workers });
            assert_eq!(
                serial_report, report,
                "results diverged at {workers} workers"
            );
            assert_eq!(serial_jsonl, jsonl, "trace diverged at {workers} workers");
        }
    }

    /// Profiling measures wall time without perturbing simulation
    /// results, and pool runs account their worker busy time.
    #[test]
    fn barrier_profile_measures_without_perturbing() {
        let (mut plain, trace) = cluster_and_trace(3, 120);
        plain.run_with(&trace, ClusterExecution::Parallel { workers: 2 });
        let baseline = format!("{:?}", plain.into_report().records);

        let (mut c, trace) = cluster_and_trace(3, 120);
        c.enable_barrier_profiling();
        c.run_with(&trace, ClusterExecution::Parallel { workers: 2 });
        let (report, _, profile) = c.into_report_with_trace();
        let p = profile.expect("profiling on");
        assert_eq!(
            format!("{:?}", report.records),
            baseline,
            "profiling changed results"
        );
        assert_eq!(p.workers, 2);
        assert!(p.epochs > 0, "no epochs counted");
        assert!(p.run_wall_ns > 0, "no wall time measured");
        assert!(p.run_wall_ns >= p.step_wall_ns, "step exceeds run wall");
        assert!(p.step_wall_ns >= p.pool_step_wall_ns);
    }

    /// A cluster run's observable fingerprint for batched-vs-per-arrival
    /// comparisons: per-request timings, routing counters, processed
    /// totals.
    fn fingerprint(c: Cluster) -> (Vec<u64>, u64, u64, u64, u64, String) {
        let counts = c.dispatch_counts().to_vec();
        let events = c.events_processed();
        let stats = c.routing_stats();
        let (hits, spills, dispatched) = (stats.affinity_hits, stats.spills, stats.dispatched);
        let report = c.into_report();
        let records = format!(
            "{:?}",
            report
                .records
                .iter()
                .map(|r| (r.id, r.first_token, r.finished))
                .collect::<Vec<_>>()
        );
        (counts, events, hits, spills, dispatched, records)
    }

    /// Tentpole oracle (engine level): with a state-independent router —
    /// pure weighted rendezvous, spill disabled — batched dispatch
    /// produces the same placements, timings, affinity hits, and event
    /// totals as per-arrival dispatch. Zero snapshot refreshes per
    /// arrival become one per batch.
    #[test]
    fn batched_dispatch_matches_per_arrival_for_state_independent_router() {
        for policy in [
            RouterPolicy::AdapterAffinityNoSpill,
            RouterPolicy::RoundRobin,
        ] {
            let run = |batched: bool| {
                let (factory, trace) = factory_and_trace_at(200.0, 300);
                let mut c = Cluster::with_router(3, factory, policy.build(0));
                if batched {
                    c.set_dispatch(DispatchSpec::new());
                }
                c.run(&trace);
                let stats = c.routing_stats();
                assert_eq!(stats.dispatch.enabled, batched);
                if batched {
                    assert!(
                        stats.dispatch.mean_batch() > 1.0,
                        "{}: arrivals at 200 rps should coalesce (mean {})",
                        policy.name(),
                        stats.dispatch.mean_batch()
                    );
                    assert_eq!(stats.dispatch.snapshot_refreshes, stats.dispatch.batches);
                }
                fingerprint(c)
            };
            assert_eq!(
                run(false),
                run(true),
                "{}: batched dispatch diverged from per-arrival",
                policy.name()
            );
        }
    }

    /// Bounded-staleness batching (the default JSQ router) stays a
    /// complete, balanced run: every request finishes, batches form, and
    /// the per-engine queue-depth error is bounded by the batch budget
    /// (the router property suite covers the bound itself; here the
    /// end-to-end run must not lose or duplicate work).
    #[test]
    fn bounded_staleness_batching_completes_everything() {
        let (factory, trace) = factory_and_trace_at(200.0, 300);
        let mut c = Cluster::new(3, factory);
        c.set_dispatch(DispatchSpec::new());
        c.run(&trace);
        assert_eq!(c.completed(), 300);
        let stats = c.routing_stats();
        assert_eq!(stats.dispatched, 300);
        assert_eq!(stats.dispatch.batched_arrivals, 300);
        assert!(stats.dispatch.batches < 300, "no coalescing happened");
        assert!(
            stats.dispatch.max_batch <= 32,
            "JSQ's declared budget (32) was exceeded: {}",
            stats.dispatch.max_batch
        );
        let report = c.into_report();
        assert!(report.records.iter().all(|r| r.is_complete()));
    }

    /// The spec's overrides tighten the router's declared budget: a
    /// max_batch of 1 degenerates to per-arrival barriers (one batch per
    /// request) even though JSQ declares 32.
    #[test]
    fn spec_budget_caps_batch_size() {
        let (factory, trace) = factory_and_trace_at(200.0, 120);
        let mut c = Cluster::new(3, factory);
        c.set_dispatch(DispatchSpec::with_budget(1, SimDuration::from_secs(3600)));
        c.run(&trace);
        let stats = c.routing_stats();
        assert_eq!(stats.dispatch.max_batch, 1);
        assert_eq!(stats.dispatch.batches, 120);
    }

    /// Batched runs emit `dispatch_batch` coordinator events carrying
    /// the generation, and route decisions at each member's own arrival
    /// instant — and stay bit-identical between serial and parallel
    /// execution.
    #[test]
    fn batched_trace_is_identical_across_execution_modes() {
        let run = |exec: ClusterExecution| {
            let (factory, trace) = factory_and_trace_at(200.0, 200);
            let mut c = Cluster::new(3, factory);
            c.set_dispatch(DispatchSpec::new());
            c.enable_tracing();
            c.run_with(&trace, exec);
            let (report, log, _) = c.into_report_with_trace();
            (
                format!("{:?}", report.records),
                log.expect("tracing on").to_jsonl(),
            )
        };
        let (serial_report, serial_jsonl) = run(ClusterExecution::Serial);
        assert!(serial_jsonl.contains("\"ev\":\"dispatch_batch\""));
        assert!(serial_jsonl.contains("\"ev\":\"route\""));
        for workers in [2, 7] {
            let (report, jsonl) = run(ClusterExecution::Parallel { workers });
            assert_eq!(
                serial_report, report,
                "results diverged at {workers} workers"
            );
            assert_eq!(serial_jsonl, jsonl, "trace diverged at {workers} workers");
        }
    }

    fn small_trace(n: usize, rps: f64) -> (AdapterPool, Trace) {
        let llm = LlmSpec::llama_7b();
        let pool = AdapterPool::generate(&llm, &PoolConfig::paper_default(20));
        let gen = TraceGenerator::new(
            LengthModel::Custom {
                input: chameleon_workload::generator::TokenLengthModel {
                    median: 64.0,
                    sigma: 0.5,
                    min: 8,
                    max: 256,
                },
                output: chameleon_workload::generator::TokenLengthModel {
                    median: 16.0,
                    sigma: 0.5,
                    min: 2,
                    max: 64,
                },
            },
            ArrivalModel::poisson(rps),
        );
        let mut rng = SimRng::seed(42);
        let trace = gen.generate_n(&pool, n, &mut rng);
        (pool, trace)
    }

    fn engine(pool: AdapterPool) -> Engine {
        let cfg = EngineConfig::new(LlmSpec::llama_7b(), GpuSpec::a40());
        Engine::new(
            cfg,
            pool,
            Box::new(FifoScheduler::new()),
            Box::new(OraclePredictor::new()),
            AdapterCache::new(EvictionPolicy::chameleon()),
            WrsConfig::paper(2048.0, 1024.0, (256 << 20) as f64),
        )
    }

    #[test]
    fn drains_full_trace() {
        let (pool, trace) = small_trace(50, 5.0);
        let (e, last, _) = run_alone(engine(pool), &trace);
        assert_eq!(e.completed(), 50);
        assert!(!e.has_work());
        assert!(last >= trace.requests().last().unwrap().arrival());
        let report = e.into_report();
        assert!(report.records.iter().all(|r| r.is_complete()));
        assert!(!report.mem_series.is_empty(), "memory was sampled");
    }

    #[test]
    fn deterministic_across_runs() {
        let (pool, trace) = small_trace(40, 8.0);
        let run = || {
            let (e, _, _) = run_alone(engine(pool.clone()), &trace);
            let rep = e.into_report();
            rep.records
                .iter()
                .map(|r| (r.id, r.first_token, r.finished))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// A reference loop for [`run_alone`] that pushes the whole trace up
    /// front, so an arrival wins an equal-time tie by its lower sequence
    /// number. Also returns every event's instant and kind.
    fn heap_reference(engine: &mut Engine, trace: &Trace) -> (SimTime, u64, Vec<(SimTime, Kind)>) {
        let mut q: EventQueue<EngineEvent> = EventQueue::new();
        for r in trace {
            q.push(r.arrival(), EngineEvent::Arrival(*r));
        }
        let mem_int = engine.config().mem_sample_interval;
        let refresh_int = engine.config().refresh_interval;
        q.push(SimTime::ZERO + mem_int, EngineEvent::MemSample);
        q.push(SimTime::ZERO + refresh_int, EngineEvent::Refresh);
        let mut arrivals_left = trace.len();
        let (mut out, mut log) = (Vec::new(), Vec::new());
        let mut last = SimTime::ZERO;
        while let Some((t, ev)) = q.pop() {
            last = t;
            log.push((t, Kind::of(&ev)));
            let periodic = matches!(ev, EngineEvent::MemSample | EngineEvent::Refresh);
            if matches!(ev, EngineEvent::Arrival(_)) {
                arrivals_left -= 1;
            }
            let reschedule = match &ev {
                EngineEvent::MemSample => Some((t + mem_int, EngineEvent::MemSample)),
                EngineEvent::Refresh => Some((t + refresh_int, EngineEvent::Refresh)),
                _ => None,
            };
            engine.handle(t, ev, &mut out);
            for (at, e) in out.drain(..) {
                q.push(at, e);
            }
            if periodic && (arrivals_left > 0 || engine.has_work()) {
                let (at, e) = reschedule.expect("periodic events always reschedule");
                q.push(at, e);
            }
        }
        (last, q.processed(), log)
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Arrival,
        StepDone,
        MemSample,
        Other,
    }

    impl Kind {
        fn of(ev: &EngineEvent) -> Kind {
            match ev {
                EngineEvent::Arrival(_) => Kind::Arrival,
                EngineEvent::StepDone(_) => Kind::StepDone,
                EngineEvent::MemSample => Kind::MemSample,
                _ => Kind::Other,
            }
        }
    }

    /// A copy of `base` arriving at `at` under a fresh id.
    fn arriving_at(base: &Request, id: u64, at: SimTime) -> Request {
        Request::new(
            chameleon_workload::RequestId(id),
            at,
            base.input_tokens(),
            base.output_tokens(),
            base.adapter(),
            base.rank(),
        )
    }

    /// Arrivals that land on the instant of a pending `StepDone` or
    /// `MemSample` are handled before it, as in the heap reference: both
    /// loops see the same ties and produce the same run.
    #[test]
    fn arrival_first_on_ties_matches_heap_reference() {
        let (pool, base) = small_trace(40, 6.0);
        let mut reqs = base.requests().to_vec();
        let mut id = reqs.len() as u64;
        // MemSample fires every whole second while arrivals remain.
        for secs in [2, 4] {
            let at = SimTime::ZERO + SimDuration::from_secs(secs);
            reqs.push(arriving_at(&reqs[0], id, at));
            id += 1;
        }
        // Adding an arrival at `t` leaves every event before `t` as it
        // was, so a StepDone the reference ran at `t` is still pending
        // there: pick one per round, later each time.
        let mut step_ties = Vec::new();
        let mut after = SimTime::ZERO;
        for _ in 0..4 {
            let trace = Trace::new(reqs.clone());
            let (_, _, log) = heap_reference(&mut engine(pool.clone()), &trace);
            let t = log
                .iter()
                .filter(|&&(t, k)| k == Kind::StepDone && t > after)
                .map(|&(t, _)| t)
                .find(|&t| !reqs.iter().any(|r| r.arrival() == t))
                .expect("a later step to tie with");
            reqs.push(arriving_at(&reqs[1], id, t));
            id += 1;
            step_ties.push(t);
            after = t + SimDuration::from_secs(1);
        }
        let trace = Trace::new(reqs);
        let mut reference = engine(pool.clone());
        let (ref_last, ref_events, log) = heap_reference(&mut reference, &trace);
        let at = |t: SimTime| log.iter().filter(move |&&(u, _)| u == t).map(|&(_, k)| k);
        for secs in [2, 4] {
            let kinds: Vec<Kind> = at(SimTime::ZERO + SimDuration::from_secs(secs)).collect();
            assert_eq!(kinds[..2], [Kind::Arrival, Kind::MemSample], "{secs} s");
        }
        for &t in &step_ties {
            let kinds: Vec<Kind> = at(t).collect();
            assert_eq!(kinds[0], Kind::Arrival, "{t}");
            assert!(kinds.contains(&Kind::StepDone), "no step at {t}");
        }
        let (streamed, last, events) = run_alone(engine(pool), &trace);
        assert_eq!((last, events), (ref_last, ref_events));
        let (a, b) = (streamed.into_report(), reference.into_report());
        assert_eq!(a.records, b.records);
        assert_eq!(a.mem_series, b.mem_series);
        assert_eq!(a.squashes, b.squashes);
    }

    /// At 0.2 rps the engine idles between arrivals. Its periodic ticks
    /// must keep firing until the last arrival, as in the heap reference,
    /// which keeps them while any arrival is undelivered.
    #[test]
    fn sparse_trace_keeps_ticks_until_the_last_arrival() {
        let (pool, trace) = small_trace(30, 0.2);
        let mut reference = engine(pool.clone());
        let (ref_last, ref_events, _) = heap_reference(&mut reference, &trace);
        let (streamed, last, events) = run_alone(engine(pool), &trace);
        assert_eq!((last, events), (ref_last, ref_events));
        let (a, b) = (streamed.into_report(), reference.into_report());
        assert_eq!(a.records, b.records);
        assert_eq!(a.mem_series, b.mem_series);
        let last_arrival = trace.requests().last().expect("non-empty").arrival();
        assert!(
            b.mem_series.len() as u64 >= last_arrival.as_nanos() / 1_000_000_000,
            "one memory sample per second until the last arrival"
        );
    }

    #[test]
    fn empty_trace_is_fine() {
        let (pool, _) = small_trace(1, 1.0);
        let (e, last, _) = run_alone(engine(pool), &Trace::new(vec![]));
        assert_eq!(e.completed(), 0);
        assert!(last >= SimTime::ZERO);
    }
}
