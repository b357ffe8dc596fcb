//! The engine state machine.
//!
//! [`Engine`] is deliberately reactive: it owns no event queue. The
//! cluster's per-engine stepper ([`crate::cluster`], which also runs a lone
//! engine through [`crate::run_alone`]) feeds it [`EngineEvent`]s and
//! collects the future events the engine wants scheduled. This keeps one
//! implementation reusable for both single-engine runs and data-parallel
//! clusters, and makes every transition unit-testable.

use crate::config::{
    EngineConfig, ACTIVATION_HEADROOM, KV_BLOCK_TOKENS, MAX_PREFILL_BATCH_TOKENS, PREFETCH_DEPTH,
    PREFETCH_WINDOW, PREFILL_CHUNK_TOKENS,
};
use crate::kv_spec::{KvSpec, MAX_PROXIES, PROXY_RATIO};
use crate::probe::{EngineProbe, ProbeScalars, ReleaseSchedule, Releases};
use crate::report::EngineReport;
use chameleon_cache::{AdapterCache, CacheJournalEvent};
use chameleon_fault::PcieFaultInjector;
use chameleon_gpu::cost::{DecodeBatch, DecodeItem, PrefillItem};
use chameleon_gpu::memory::{MemoryPool, Region};
use chameleon_gpu::{CostModel, KvAllocator, KvSeq, PcieLink};
use chameleon_metrics::{Collector, KvStats, MemorySample, SizeClass};
use chameleon_models::{AdapterId, AdapterPool, AdapterStamps};
use chameleon_predictor::{HistogramLoadPredictor, OutputLenPredictor};
use chameleon_sched::{AdmissionOutcome, QueuedRequest, Scheduler, WrsConfig};
use chameleon_simcore::{SimDuration, SimTime};
use chameleon_trace::TraceEvent;
use chameleon_workload::{Request, Slot};
use std::cmp::Reverse;
use std::collections::{HashSet, VecDeque};

/// Events driving the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineEvent {
    /// A request reached the frontend.
    Arrival(Request),
    /// The iteration started earlier finished (tagged with its sequence
    /// number so stale completions are ignored).
    StepDone(u64),
    /// An adapter load (or prefetch) completed.
    LoadDone(AdapterId),
    /// Periodic reconfiguration tick (`T_refresh`).
    Refresh,
    /// Periodic memory-occupancy sample (Figure 6).
    MemSample,
    /// Retry dispatch after a fully idle engine could not admit a waiting
    /// request (e.g. a blocked head banking memory across cycles).
    Poke,
}

/// A request in the running batch.
#[derive(Debug, Clone)]
struct Running {
    req: Request,
    /// The request's dense bookkeeping slot: its collector record and its
    /// entry in the slot → batch-position table.
    slot: Slot,
    /// The request's sequence in the KV allocator.
    kv: KvSeq,
    queue_index: usize,
    charged_tokens: u64,
    predicted_output: u32,
    /// Prompt tokens not yet prefilled.
    prefill_remaining: u32,
    /// Output tokens produced — in the decode set, those produced when
    /// the request joined it; [`produced`](Self::produced) adds the rest.
    produced: u32,
    /// The request's stint in the decode set, while it is in it.
    stint: Option<Stint>,
    /// KV tokens reserved for this request — in the decode set, those its
    /// KV sequence held when it joined or last crossed into a new block;
    /// [`kv_reserved`](Self::kv_reserved) derives the rest.
    kv_reserved: u32,
    admitted_at: SimTime,
    /// Debug builds: output tokens counted one at a time in each
    /// iteration's decode order, the reference the lazy count must match.
    #[cfg(debug_assertions)]
    eager_produced: u32,
    /// Debug builds: KV tokens reserved, grown one token at a time with
    /// each eager token past the reservation, the reference the derived
    /// reservation and the allocator's block count must match.
    #[cfg(debug_assertions)]
    eager_reserved: u32,
}

/// A running request's membership of the decode set: every decode
/// iteration launched while it is a member gives it one token, and once
/// its context outgrows its KV reservation, one token of reservation.
#[derive(Debug, Clone, Copy)]
struct Stint {
    /// Decode iterations completed when the request joined.
    joined: u64,
    /// Engine-unique number of the stint, which keys its due events.
    stamp: u64,
    /// Context tokens the outgrown reservation lacks: the context's excess
    /// over the reservation at the join, plus each token whose block
    /// crossing failed for want of memory.
    lag: u32,
}

impl Running {
    /// Output tokens produced once `done` decode iterations completed.
    fn produced(&self, done: u64) -> u32 {
        match self.stint {
            Some(s) => self.produced + (done - s.joined) as u32,
            None => self.produced,
        }
    }

    /// KV tokens reserved once `done` decode iterations completed: fixed
    /// until the context outgrows it, then the context less the stint's
    /// lag, since every token past the reservation grows it by one.
    fn kv_reserved(&self, done: u64) -> u32 {
        match self.stint {
            Some(s) => {
                let context = self.req.input_tokens() + self.produced(done);
                self.kv_reserved.max(context - s.lag)
            }
            None => self.kv_reserved,
        }
    }

    fn finished(&self, done: u64) -> bool {
        self.prefill_remaining == 0 && self.produced(done) >= self.req.output_tokens()
    }

    /// The output reservation for running this request again after a
    /// squash or a demotion: the system has seen it produce `produced`
    /// tokens, so at least that plus a block of headroom — otherwise an
    /// under-predicted request would OOM and preempt again forever.
    fn replanned_output(&self) -> u32 {
        debug_assert!(
            self.stint.is_none(),
            "a preempted request left the decode set"
        );
        self.predicted_output
            .max(self.produced + KV_BLOCK_TOKENS)
            .min(self.req.output_tokens().max(1))
    }
}

/// An in-flight adapter transfer.
#[derive(Debug, Clone)]
struct Loading {
    ready_at: SimTime,
    bytes: u64,
    /// Requests already admitted and waiting on this adapter.
    waiters: u32,
}

/// In-flight adapter transfers, indexed by adapter id and sized from the
/// engine's pool. Iteration runs in id order.
#[derive(Debug, Clone)]
struct LoadingTable {
    slots: Vec<Option<Loading>>,
    in_flight: usize,
}

impl LoadingTable {
    fn new(adapters: usize) -> Self {
        LoadingTable {
            slots: vec![None; adapters],
            in_flight: 0,
        }
    }

    fn get_mut(&mut self, id: AdapterId) -> Option<&mut Loading> {
        self.slots.get_mut(id.0 as usize)?.as_mut()
    }

    fn contains(&self, id: AdapterId) -> bool {
        self.slots.get(id.0 as usize).is_some_and(Option::is_some)
    }

    /// Starts tracking `id`'s transfer.
    ///
    /// # Panics
    ///
    /// Panics if `id` lies outside the pool the table was sized for.
    fn insert(&mut self, id: AdapterId, loading: Loading) {
        let slot = &mut self.slots[id.0 as usize];
        if slot.replace(loading).is_none() {
            self.in_flight += 1;
        }
    }

    fn remove(&mut self, id: AdapterId) -> Option<Loading> {
        let loading = self.slots.get_mut(id.0 as usize)?.take()?;
        self.in_flight -= 1;
        Some(loading)
    }

    fn len(&self) -> usize {
        self.in_flight
    }

    fn is_empty(&self) -> bool {
        self.in_flight == 0
    }

    fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.in_flight = 0;
    }

    fn iter(&self) -> impl Iterator<Item = (AdapterId, &Loading)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, l)| Some((AdapterId(i as u32), l.as_ref()?)))
    }
}

/// `batch_pos` entry of a slot that is not in the running batch.
const NOT_RUNNING: u32 = u32::MAX;

/// KV blocks of free memory a warm load leaves untouched.
const WARM_LOAD_HEADROOM_BLOCKS: u64 = 4;

/// Exact counts of the engine's bookkeeping work. Deterministic, so a
/// profile can compare two versions of the engine by count instead of by
/// timer; kept out of every report and canonical text.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineWork {
    /// Output tokens applied to running requests.
    pub tokens_applied: u64,
    /// Scheduler probes taken (dispatches and refreshes).
    pub probes: u64,
    /// Release schedules built, each on a probe's first memory-wait
    /// estimate.
    pub release_schedules: u64,
    /// Protected-adapter sets built for eviction or bypass bookkeeping.
    pub protected_sets: u64,
    /// KV allocator growth calls on the decode path, each for the block a
    /// decoding request's next token crosses into.
    pub kv_grows: u64,
}

/// Appends each running request's predicted `(remaining steps, bytes
/// freed)` once `done` decode iterations completed: its remaining decode
/// tokens plus pending prompt at 64 tokens a step, and its block-rounded
/// KV plus adapter bytes — what `KvAllocator::free` and the cache release
/// at retirement.
fn release_pairs(
    out: &mut Releases,
    running: &[Running],
    done: u64,
    kv: &KvAllocator,
    pool: &AdapterPool,
) {
    out.extend(running.iter().map(|r| {
        let produced = r.produced(done);
        let remaining = u64::from(r.predicted_output.max(produced).saturating_sub(produced))
            + u64::from(r.prefill_remaining) / 64;
        let freed = kv.bytes_for(r.kv_reserved(done))
            + pool.get(r.req.adapter()).map(|a| a.bytes()).unwrap_or(0);
        (remaining, freed)
    }));
}

/// True when `slot` runs in the decode stint `stamp` names.
fn in_stint(running: &[Running], batch_pos: &[u32], slot: Slot, stamp: u64) -> bool {
    let pos = batch_pos[slot.index()];
    pos != NOT_RUNNING
        && running[pos as usize]
            .stint
            .is_some_and(|s| s.stamp == stamp)
}

/// A running request demoted to a compact hidden-state proxy entry
/// (hybrid cache mode, Apt-Serve-style). Progress is frozen in `run`,
/// whose KV sequence now holds the proxy, the full KV blocks are
/// released, and the scheduler quota stays charged — the request never
/// left the system, so its eventual retirement credits the quota exactly
/// once.
#[derive(Debug, Clone)]
struct Demoted {
    run: Running,
    /// Proxy bytes left resident (the PCIe payload of the restore).
    proxy_bytes: u64,
    demoted_at: SimTime,
}

/// A demoted request whose full KV is being re-materialised over PCIe;
/// it rejoins the running batch when the transfer lands. The restore set
/// `d.run.kv_reserved` to the tokens it reserved.
#[derive(Debug, Clone)]
struct Restoring {
    d: Demoted,
    ready_at: SimTime,
}

/// What the engine is executing right now: `prefill` processes each
/// `(slot, tokens)` chunk of prompt, and a `decode` iteration produces one
/// token for every request in the decode set. A dedicated prefill
/// iteration does not decode; in chunked-prefill mode the chunks fold
/// into a decode iteration.
#[derive(Debug, Clone, Default)]
struct StepPlan {
    prefill: Vec<(Slot, u32)>,
    decode: bool,
}

/// An event of a decode stint, due at the decode iteration whose token
/// triggers it: the request's last token, or its first token past the
/// KV blocks its sequence holds, which needs a new block. A stint that
/// ended early leaves its events stale.
#[derive(Debug, Clone, Copy)]
struct Due {
    stamp: u64,
    slot: Slot,
    grows: bool,
}

/// A record of an opportunistic bypass: `r2` jumped over a blocked head
/// needing `r1_tokens`; if that much frees while `r2` runs, `r2` squashes.
#[derive(Debug, Clone, Copy)]
struct BypassPair {
    r2: Slot,
    r1_tokens: u64,
}

/// One LLM serving engine (a GPU or TP group).
pub struct Engine {
    cfg: EngineConfig,
    cost: CostModel,
    pool: AdapterPool,
    mem: MemoryPool,
    kv: KvAllocator,
    link: PcieLink,
    cache: AdapterCache,
    sched: Box<dyn Scheduler>,
    predictor: Box<dyn OutputLenPredictor>,
    wrs_cfg: WrsConfig,
    load_predictor: HistogramLoadPredictor,
    collector: Collector,
    running: Vec<Running>,
    /// Resource tokens charged to the running requests, kept by
    /// `push_running` and `take_running`.
    charged_total: u64,
    /// Position in `running` of each registered slot, `NOT_RUNNING` when
    /// the request is queued, demoted, restoring or gone. Kept current by
    /// `push_running` and `take_running`, the only ways in and out of
    /// the batch.
    batch_pos: Vec<u32>,
    /// Running requests per adapter, indexed by adapter id.
    adapter_users: Vec<u32>,
    /// Running requests with prompt left to prefill, in no order.
    prefilling: Vec<Slot>,
    /// Running requests past prefill whose adapter is still loading (a
    /// restore that landed before its adapter's `LoadDone`); each joins
    /// the decode set at the first launch after the load.
    awaiting_adapter: Vec<Slot>,
    /// The decode set's pricing sums. The decode set is the running
    /// requests past prefill, unfinished, whose adapter is on the GPU;
    /// `join_decode` and `leave_decode` keep the sums live, and every
    /// decode iteration advances them.
    decode_batch: DecodeBatch,
    /// End instant of every decode iteration, oldest first; its length is
    /// the count of decode iterations completed. A request leaving the
    /// decode set reads the times of its tokens here.
    decode_ends: Vec<SimTime>,
    /// Decode stints begun, the source of their stamps.
    stints: u64,
    /// Due events of the decode stints by iteration: `due[k]` holds those
    /// of the decode iteration after the next `k`. Drained buckets return
    /// to the back, so the calendar spans the longest lookahead seen.
    due: VecDeque<Vec<Due>>,
    /// Decode-set requests whose token of the iteration just completed
    /// crosses into a KV block their sequence does not hold yet.
    crossing: Vec<Slot>,
    /// Running requests that may have produced their last token, checked
    /// and retired at the end of the next iteration: due finishes,
    /// prefills whose first token was the last, and restored requests
    /// that were demoted after their last token.
    retiring: Vec<Slot>,
    loading: LoadingTable,
    /// KV plane (unified GPU-memory economy): `None` keeps every path
    /// byte-identical to the optimistic allocate-then-unwind baseline.
    kv_spec: Option<KvSpec>,
    kv_stats: KvStats,
    /// Requests demoted to hidden-state proxies, oldest first.
    demoted: Vec<Demoted>,
    /// Demotion reversals in flight over PCIe.
    restoring: Vec<Restoring>,
    current_step: Option<StepPlan>,
    step_seq: u64,
    busy_until: SimTime,
    bypass_pairs: Vec<BypassPair>,
    poke_pending: bool,
    mem_series: Vec<MemorySample>,
    squashes: u64,
    completed: u64,
    kv_bytes_per_token: u64,
    /// Isolated per-token decode cost (seconds) from the cost model,
    /// cached at construction — the oracle behind the O(1) per-snapshot
    /// TTFT-violation estimate.
    isolated_secs_per_token: f64,
    /// Seconds per prefill token from the cost model, cached at
    /// construction for the probe.
    prefill_secs_per_token: f64,
    /// The release schedule of the latest probe, built on demand from the
    /// first `release_batch` running requests, those running when the
    /// probe was taken.
    release: ReleaseSchedule,
    release_batch: usize,
    /// Free bytes below which no warm load can start: the pool's
    /// smallest adapter plus the KV headroom `warm_load` keeps.
    prefetch_floor: u64,
    work: EngineWork,
    // --- reusable per-step scratch (zero-alloc stepping) ------------------
    // Every buffer below is cleared and refilled in place each iteration,
    // so the steady-state event loop performs no heap allocation.
    admit_buf: Vec<AdmissionOutcome>,
    requeue_buf: Vec<AdmissionOutcome>,
    /// The §4.2 protected adapters (those of queued requests), as the
    /// scheduler's ordered list and as a set, valid while
    /// `protected_ready` is set.
    adapters_buf: Vec<AdapterId>,
    protected_buf: AdapterStamps,
    protected_ready: bool,
    prefetch_buf: Vec<AdapterId>,
    prefill_items: Vec<PrefillItem>,
    /// The buffers of the last finished step, refilled by the next.
    spare_plan: StepPlan,
    pairs_scratch: Vec<BypassPair>,
    /// The growth pass's requests as `(launch position, slot)`.
    growth_order: Vec<(u32, Slot)>,
    /// Requests a preemption's `swap_remove` moved during the growth
    /// pass, with their launch positions.
    moved: Vec<(Slot, u32)>,
    /// Debug builds: the decode set of the iteration in flight in batch
    /// order, and how far its eager token count has gone.
    #[cfg(debug_assertions)]
    eager_decode: (Vec<Slot>, usize),
    #[cfg(test)]
    residency_audit: Option<tests::ResidencyAudit>,
    /// Decision-trace buffer in this engine's own execution order; `None`
    /// (the default) keeps every emission site a single branch. The run
    /// drains it via [`take_trace_events`](Self::take_trace_events) and
    /// assigns the lane — the engine never knows its cluster id.
    trace: Option<Vec<(SimTime, TraceEvent)>>,
    /// Fault plane: injected PCIe transfer failures. `None` (the default)
    /// keeps the load path byte-identical to a fault-free build.
    pcie_faults: Option<PcieFaultInjector>,
    /// Fault plane: straggler slowdown multiplier applied to every step
    /// duration. Exactly `1.0` outside an injected straggler window, and
    /// the multiply is skipped entirely then so the fault hook cannot
    /// perturb a healthy engine's floating-point timeline.
    slowdown: f64,
}

impl Engine {
    /// Builds an engine.
    ///
    /// # Panics
    ///
    /// Panics if the base model does not fit in the configured GPU memory.
    pub fn new(
        cfg: EngineConfig,
        pool: AdapterPool,
        sched: Box<dyn Scheduler>,
        predictor: Box<dyn OutputLenPredictor>,
        mut cache: AdapterCache,
        wrs_cfg: WrsConfig,
    ) -> Self {
        cache.size_for_pool(pool.len());
        let cost = CostModel::new(cfg.llm.clone(), cfg.gpu.clone(), cfg.tp_degree);
        let total_mem = cfg.total_memory_bytes();
        let mut mem = MemoryPool::new(total_mem);
        mem.reserve(Region::Weights, cfg.llm.weight_bytes())
            .expect("base model must fit in GPU memory");
        let headroom = (total_mem as f64 * ACTIVATION_HEADROOM) as u64;
        mem.reserve(Region::Activations, headroom)
            .expect("activation headroom must fit");
        let kv_bytes_per_token = cfg.llm.kv_bytes_per_token();
        let kv = KvAllocator::new(kv_bytes_per_token, KV_BLOCK_TOKENS);
        let link = PcieLink::new(cfg.gpu.effective_copy_bytes_per_sec());
        let isolated_secs_per_token = cost
            .decode_step_time(&[DecodeItem {
                kv_tokens: 256,
                rank: None,
            }])
            .as_secs_f64();
        let prefill_secs_per_token = {
            let t1k = cost.base_prefill_time(1024).as_secs_f64();
            let t0 = cost.base_prefill_time(1).as_secs_f64();
            (t1k - t0) / 1023.0
        };
        let prefetch_floor = pool
            .iter()
            .map(|a| a.bytes())
            .min()
            .unwrap_or(u64::MAX)
            .saturating_add(WARM_LOAD_HEADROOM_BLOCKS * kv.block_bytes());
        let kv_spec = cfg.kv;
        let kv_stats = KvStats {
            enabled: kv_spec.is_some(),
            admission: kv_spec.is_some_and(|s| s.admission),
            hybrid: kv_spec.is_some_and(|s| s.hybrid),
            ..KvStats::default()
        };
        Engine {
            cost,
            mem,
            kv,
            link,
            cache,
            sched,
            predictor,
            wrs_cfg,
            load_predictor: HistogramLoadPredictor::new(),
            collector: Collector::new(),
            running: Vec::new(),
            charged_total: 0,
            batch_pos: Vec::new(),
            adapter_users: vec![0; pool.len()],
            prefilling: Vec::new(),
            awaiting_adapter: Vec::new(),
            decode_batch: DecodeBatch::default(),
            decode_ends: Vec::new(),
            stints: 0,
            due: VecDeque::new(),
            crossing: Vec::new(),
            retiring: Vec::new(),
            loading: LoadingTable::new(pool.len()),
            pool,
            kv_spec,
            kv_stats,
            demoted: Vec::new(),
            restoring: Vec::new(),
            current_step: None,
            step_seq: 0,
            busy_until: SimTime::ZERO,
            bypass_pairs: Vec::new(),
            poke_pending: false,
            mem_series: Vec::new(),
            squashes: 0,
            completed: 0,
            kv_bytes_per_token,
            isolated_secs_per_token,
            prefill_secs_per_token,
            release: ReleaseSchedule::default(),
            release_batch: 0,
            prefetch_floor,
            work: EngineWork::default(),
            cfg,
            admit_buf: Vec::new(),
            requeue_buf: Vec::new(),
            adapters_buf: Vec::new(),
            protected_buf: AdapterStamps::default(),
            protected_ready: false,
            prefetch_buf: Vec::new(),
            prefill_items: Vec::new(),
            spare_plan: StepPlan::default(),
            pairs_scratch: Vec::new(),
            growth_order: Vec::new(),
            moved: Vec::new(),
            #[cfg(debug_assertions)]
            eager_decode: (Vec::new(), 0),
            #[cfg(test)]
            residency_audit: None,
            trace: None,
            pcie_faults: None,
            slowdown: 1.0,
        }
    }

    /// Turns on decision tracing: first-token, queue-sample, and batch
    /// events buffer here, and the cache's admit/evict journal is enabled
    /// and re-tagged into the same buffer. Strict opt-in overlay — until
    /// this is called every emission site is one `is_some` branch.
    pub fn enable_tracing(&mut self) {
        self.trace.get_or_insert_with(Vec::new);
        self.cache.enable_journal();
    }

    /// Drains buffered trace events in this engine's execution order.
    /// Returns an empty vec when tracing is off.
    pub fn take_trace_events(&mut self) -> Vec<(SimTime, TraceEvent)> {
        match self.trace.as_mut() {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    /// Arms injected PCIe transfer failures. Fault plane only — never
    /// called on a fault-free run.
    pub fn set_pcie_fault_injector(&mut self, injector: PcieFaultInjector) {
        self.pcie_faults = Some(injector);
    }

    /// Injected PCIe transfer failures absorbed so far (each one occupied
    /// the link for a full transfer before the retry went through).
    pub fn pcie_fault_retries(&self) -> u64 {
        self.pcie_faults.as_ref().map_or(0, |f| f.failures())
    }

    /// Sets the straggler slowdown multiplier (`1.0` = healthy). Fault
    /// plane only; the coordinator flips this at fault barriers.
    pub fn set_slowdown(&mut self, factor: f64) {
        debug_assert!(factor >= 1.0, "a straggler cannot speed up");
        self.slowdown = factor;
    }

    /// Rips every unfinished request out of the engine when the
    /// coordinator loses it — a crash, or a network partition, after
    /// which the engine stays up and rejoins the fleet at the heal. The
    /// queued backlog, the running batch and the parked (demoted and
    /// restoring) requests lose all progress, their collector records
    /// are deleted (each will re-arrive on a surviving engine, whose
    /// collector must register it fresh), and the requests come back
    /// sorted by `(arrival, id)` so the re-dispatch order is independent
    /// of internal container order. Records of requests the engine
    /// *finished* survive — that work really happened. Every reservation
    /// the unfinished work held — KV blocks and proxies, scheduler quota,
    /// adapter-cache references, in-flight load reservations — is
    /// released, so a partitioned engine comes back idle and consistent,
    /// able to admit fresh work; events the dead work left in flight
    /// (step or load completions) are ignored as stale when they land.
    pub fn evacuate_unfinished(&mut self, now: SimTime) -> Vec<Request> {
        // Cache references: a running request holds one on its adapter
        // unless it is still waiting on an in-flight load (that
        // reference would only have materialised at the LoadDone that is
        // now stale). Restoring requests re-acquired their adapter at
        // restore initiation under the same discipline; demoted requests
        // released theirs at demotion.
        let mut held: Vec<AdapterId> = self
            .running
            .iter()
            .chain(self.restoring.iter().map(|r| &r.d.run))
            .map(|r| r.req.adapter())
            .filter(|&a| !self.loading.contains(a))
            .collect();
        held.sort_unstable();
        for a in held {
            self.cache.release(&mut self.mem, a, now);
        }
        // In-flight load reservations die with their waiters.
        let mut loads: Vec<u64> = self.loading.iter().map(|(_, l)| l.bytes).collect();
        loads.sort_unstable();
        for bytes in loads {
            self.mem.release(Region::AdaptersInUse, bytes);
        }
        self.loading.clear();
        let mut queued = Vec::new();
        self.sched.drain_queued_into(&mut queued);
        let mut lost: Vec<Request> = queued.iter().map(|q| *q.request()).collect();
        while let Some(last) = self.running.len().checked_sub(1) {
            let r = self.take_running(last);
            self.kv.free(&mut self.mem, r.kv);
            self.sched.on_finish(r.queue_index, r.charged_tokens);
            lost.push(r.req);
        }
        // Demoted requests drop their proxy; in-flight restores free the
        // full KV they had already re-reserved.
        let parked = self.demoted.drain(..);
        for d in parked.chain(self.restoring.drain(..).map(|r| r.d)) {
            if self.kv.has_proxy(d.run.kv) {
                self.kv.drop_proxy(&mut self.mem, d.run.kv);
            } else {
                self.kv.free(&mut self.mem, d.run.kv);
            }
            self.sched
                .on_finish(d.run.queue_index, d.run.charged_tokens);
            lost.push(d.run.req);
        }
        debug_assert_eq!(self.charged_total, 0, "evacuation leaves no charge behind");
        debug_assert!(self.bypass_pairs.is_empty(), "only running requests bypass");
        debug_assert!(self.decode_batch.is_empty() && self.prefilling.is_empty());
        // Every due event and retirement candidate named a request just
        // evacuated.
        self.due.clear();
        self.retiring.clear();
        self.current_step = None;
        self.poke_pending = false;
        for req in &lost {
            self.collector.remove(req.id());
        }
        lost.sort_by_key(|r| (r.arrival(), r.id()));
        lost
    }

    /// The engine's WRS configuration (used by callers for reporting).
    pub fn wrs_config(&self) -> &WrsConfig {
        &self.wrs_cfg
    }

    /// The engine's static configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The engine's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The adapter pool this engine serves.
    pub fn pool(&self) -> &AdapterPool {
        &self.pool
    }

    /// Relative serving capacity for weighted rendezvous placement: total
    /// GPU memory across the TP group, in GiB. Any consistent scale works
    /// (rendezvous scores are scale-invariant), so a homogeneous fleet
    /// behaves exactly like the unweighted scheme while a TP4 engine
    /// weighs 4× its TP1 neighbour and wins a proportional adapter shard.
    pub fn capacity_weight(&self) -> f64 {
        self.cfg.total_memory_bytes() as f64 / (1u64 << 30) as f64
    }

    /// True while any request is queued, running, demoted/restoring, or
    /// loading an adapter.
    pub fn has_work(&self) -> bool {
        !self.running.is_empty()
            || !self.sched.is_empty()
            || !self.loading.is_empty()
            || !self.demoted.is_empty()
            || !self.restoring.is_empty()
    }

    /// Outstanding resource tokens (running + parked + queued) — the JSQ
    /// signal for the cluster's global scheduler. Demoted and restoring
    /// requests keep their charge: they never left the system. Each
    /// queued request is priced at the running requests' mean charge
    /// (256 tokens on an empty batch).
    pub fn outstanding_tokens(&self) -> u64 {
        debug_assert_eq!(
            self.charged_total,
            self.running.iter().map(|r| r.charged_tokens).sum::<u64>(),
            "charged total out of step"
        );
        let parked: u64 = self
            .demoted
            .iter()
            .chain(self.restoring.iter().map(|r| &r.d))
            .map(|d| d.run.charged_tokens)
            .sum();
        let mean = if self.running.is_empty() {
            256
        } else {
            self.charged_total / self.running.len() as u64
        };
        self.charged_total + parked + self.sched.len() as u64 * mean
    }

    /// Number of requests in the running batch.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Free GPU memory in bytes, counting evictable idle cache bytes —
    /// the memory signal the scheduler's probe and admission see.
    ///
    /// O(1): idle cached adapters are billed to [`Region::AdapterCache`],
    /// so the pool's region counter equals `cache.idle_bytes()` (the
    /// cache ↔ pool accounting invariant, property-tested in
    /// `chameleon-cache`).
    pub fn free_memory_bytes(&self) -> u64 {
        self.mem.free() + self.mem.used(Region::AdapterCache)
    }

    /// Estimated TTFT, in seconds, of a request dispatched to this engine
    /// behind an `outstanding` backlog (running + queued resource
    /// tokens), priced through the isolated-latency oracle (per-token
    /// decode cost at batch 1). A crude but monotone estimate — exactly
    /// what the SLO-aware autoscaler needs to see a saturated engine as a
    /// TTFT violation in the making. O(1) per call.
    fn ttft_secs_of(&self, outstanding: u64) -> f64 {
        outstanding as f64 * self.isolated_secs_per_token
    }

    /// Adapters whose weights are on (or in flight to) this engine.
    pub fn resident_adapters(&self) -> HashSet<AdapterId> {
        self.cache
            .resident_adapters()
            .chain(self.loading.iter().map(|(id, _)| id))
            .collect()
    }

    /// True when the adapter's weights are on (or in flight to) this
    /// engine — the O(1) residency query behind the router's affinity-hit
    /// accounting.
    pub fn is_adapter_resident(&self, id: AdapterId) -> bool {
        self.cache.is_resident(id) || self.loading.contains(id)
    }

    /// Introspection snapshot for the cluster router (§4.4's global
    /// scheduler input, generalised): queue depth, outstanding work,
    /// capacity weight, and — when `with_residency` is set, for routers
    /// that ask for it — the resident-adapter set, tagged with this
    /// engine's stable `id` in the cluster.
    pub fn snapshot(
        &self,
        id: chameleon_router::EngineId,
        with_residency: bool,
    ) -> chameleon_router::EngineSnapshot {
        let outstanding = self.outstanding_tokens();
        chameleon_router::EngineSnapshot {
            id,
            weight: self.capacity_weight(),
            queue_depth: self.sched.len(),
            running: self.running.len(),
            outstanding_tokens: outstanding,
            est_ttft_secs: self.ttft_secs_of(outstanding),
            resident_adapters: if with_residency {
                self.resident_adapters()
            } else {
                HashSet::new()
            },
            // The engine does not know where it is racked; the cluster
            // stamps the fault domain when a topology is attached.
            rack: None,
        }
    }

    /// Number of queued requests.
    pub fn queue_len(&self) -> usize {
        self.sched.len()
    }

    /// Total completed requests.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Exact counts of the bookkeeping work done so far.
    pub fn work(&self) -> EngineWork {
        // Tokens of the decode set are applied when a request leaves it.
        let done = self.decode_done();
        let unapplied: u64 = self
            .running
            .iter()
            .map(|r| u64::from(r.produced(done) - r.produced))
            .sum();
        EngineWork {
            tokens_applied: self.work.tokens_applied + unapplied,
            release_schedules: self.release.builds(),
            ..self.work
        }
    }

    /// Scheduler-internal state dump for diagnostics.
    pub fn scheduler_debug(&self) -> String {
        format!(
            "sched[{}] queued={} running={} loading={} :: {}",
            self.sched.name(),
            self.sched.len(),
            self.running.len(),
            self.loading.len(),
            self.sched.debug_state()
        )
    }

    /// Handles one event at `now`, appending any future events to `out`.
    pub fn handle(
        &mut self,
        now: SimTime,
        event: EngineEvent,
        out: &mut Vec<(SimTime, EngineEvent)>,
    ) {
        match event {
            EngineEvent::Arrival(req) => self.on_arrival(now, req, out),
            EngineEvent::StepDone(seq) => self.on_step_done(now, seq, out),
            EngineEvent::LoadDone(id) => self.on_load_done(now, id, out),
            EngineEvent::Refresh => self.on_refresh(now),
            EngineEvent::MemSample => self.sample_memory(now),
            EngineEvent::Poke => {
                self.poke_pending = false;
                self.try_dispatch(now, out);
            }
        }
        if self.trace.is_some() {
            self.drain_cache_journal(now);
        }
    }

    /// Re-tags cache-journal decisions accumulated during this event into
    /// the trace buffer. Every cache mutation happens inside `handle` (the
    /// cluster's `warm_load` only reserves memory; the admit lands at
    /// `LoadDone`), so draining here timestamps each decision with the
    /// event that caused it.
    fn drain_cache_journal(&mut self, now: SimTime) {
        let journal = self.cache.drain_journal();
        if journal.is_empty() {
            return;
        }
        let buf = self.trace.as_mut().expect("tracing checked by caller");
        for ev in journal {
            let mapped = match ev {
                CacheJournalEvent::Admit {
                    adapter,
                    bytes,
                    refs,
                } => TraceEvent::CacheAdmit {
                    adapter: adapter.0,
                    bytes,
                    refs,
                },
                CacheJournalEvent::Evict {
                    adapter,
                    bytes,
                    frequency,
                    last_used,
                } => TraceEvent::CacheEvict {
                    adapter: adapter.0,
                    bytes,
                    frequency,
                    last_used,
                },
            };
            buf.push((now, mapped));
        }
    }

    /// Finalises the engine into its report.
    pub fn into_report(self) -> EngineReport {
        EngineReport {
            records: self.collector.into_records(),
            cache_stats: self.cache.stats(),
            pcie_total_bytes: self.link.total_bytes(),
            pcie_busy: self.link.total_busy(),
            pcie_transfers: self.link.transfers(),
            mem_series: self.mem_series,
            squashes: self.squashes,
            scheduler: self.sched.name(),
            routing: chameleon_metrics::RoutingStats::default(),
            kv: self.kv_stats,
        }
    }

    /// KV-accounting invariant view: `(allocator bytes, pool KV-region
    /// bytes)`. The two are equal at every event boundary — the
    /// engine-level property the cross-crate invariant suite asserts
    /// across growth/squash/demotion/crash interleavings.
    pub fn kv_accounting(&self) -> (u64, u64) {
        (self.kv.total_bytes(), self.mem.used(Region::KvCache))
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_arrival(&mut self, now: SimTime, req: Request, out: &mut Vec<(SimTime, EngineEvent)>) {
        let spec = self
            .pool
            .get(req.adapter())
            .unwrap_or_else(|| panic!("unknown adapter {}", req.adapter()))
            .clone();
        let slot = self.register(&req);
        // Only the predictive prefetcher reads the load predictor.
        if self.cfg.predictive_prefetch {
            self.load_predictor.observe(req.adapter(), now);
        }
        let predicted = self.predictor.predict(&req);
        let wrs = self
            .wrs_cfg
            .compute(req.input_tokens(), predicted, spec.bytes());
        let adapter_token_equiv = spec.bytes() / self.kv_bytes_per_token;
        let queued =
            QueuedRequest::new(req, predicted, spec.bytes(), adapter_token_equiv, wrs, now)
                .with_slot(slot);
        let class = SizeClass::from_queue_index(
            self.sched.queue_index_for(wrs),
            self.sched.num_queues().max(1),
        );
        self.collector.on_classified(slot, class);
        self.sched.enqueue(queued);
        self.try_dispatch(now, out);
        self.prefetch(now, out);
    }

    /// Registers an arriving request with the collector and gives its slot
    /// an entry in the batch-position table.
    fn register(&mut self, req: &Request) -> Slot {
        // The ledger clocks TTFT/E2E from the request's *original* arrival
        // (identical to `now` on every normal dispatch; later than `now`
        // only for crash-recovery re-dispatches, whose dead-engine and
        // backoff time must stay on the record).
        let slot = self.collector.on_arrival(
            req.id(),
            req.arrival(),
            req.input_tokens(),
            req.output_tokens(),
            req.adapter(),
            req.rank(),
        );
        debug_assert_eq!(slot.index(), self.batch_pos.len(), "slots are dense");
        self.batch_pos.push(NOT_RUNNING);
        slot
    }

    /// Position of `slot` in the running batch, if it is running.
    fn batch_index(&self, slot: Slot) -> Option<usize> {
        match self.batch_pos[slot.index()] {
            NOT_RUNNING => None,
            pos => Some(pos as usize),
        }
    }

    /// Decode iterations completed so far.
    fn decode_done(&self) -> u64 {
        self.decode_ends.len() as u64
    }

    /// Appends `r` to the running batch, where it prefills, joins the
    /// decode set, waits for its adapter's load or, when it was demoted
    /// after its last token, waits to be retired.
    fn push_running(&mut self, r: Running) {
        debug_assert!(
            r.stint.is_none(),
            "a request joins the decode set in the batch"
        );
        let (slot, idx) = (r.slot, self.running.len());
        self.batch_pos[slot.index()] = idx as u32;
        self.adapter_users[r.req.adapter().0 as usize] += 1;
        self.charged_total += r.charged_tokens;
        let loading = self.loading.contains(r.req.adapter());
        let state = (r.prefill_remaining > 0, r.finished(self.decode_done()));
        self.running.push(r);
        match state {
            (true, _) => self.prefilling.push(slot),
            (false, true) => self.retiring.push(slot),
            (false, false) if loading => self.awaiting_adapter.push(slot),
            (false, false) => self.join_decode(idx),
        }
    }

    /// Removes the request at batch position `idx` by `swap_remove`, the
    /// removal order the timeline depends on, keeping the slot table and
    /// the per-adapter counts current and dissolving the request's bypass
    /// pair. A request in the decode set leaves it with every token the
    /// completed decode iterations gave it.
    fn take_running(&mut self, idx: usize) -> Running {
        self.leave_decode(idx, self.decode_done());
        let r = self.running.swap_remove(idx);
        self.batch_pos[r.slot.index()] = NOT_RUNNING;
        if let Some(moved) = self.running.get(idx) {
            self.batch_pos[moved.slot.index()] = idx as u32;
        }
        self.adapter_users[r.req.adapter().0 as usize] -= 1;
        self.charged_total -= r.charged_tokens;
        self.bypass_pairs.retain(|p| p.r2 != r.slot);
        let list = if r.prefill_remaining > 0 {
            &mut self.prefilling
        } else {
            &mut self.awaiting_adapter
        };
        if let Some(i) = list.iter().position(|&s| s == r.slot) {
            list.swap_remove(i);
        }
        r
    }

    /// Puts the running request at batch position `idx` in the decode set
    /// and schedules its stint's due events: the iteration of its last
    /// token and, unless it finishes first, that of its first block
    /// crossing.
    fn join_decode(&mut self, idx: usize) {
        let done = self.decode_done();
        self.stints += 1;
        let stamp = self.stints;
        let r = &mut self.running[idx];
        debug_assert!(r.prefill_remaining == 0 && !r.finished(done));
        let context = r.req.input_tokens() + r.produced;
        r.stint = Some(Stint {
            joined: done,
            stamp,
            lag: context.saturating_sub(r.kv_reserved),
        });
        self.decode_batch.push(
            self.cost.llm(),
            DecodeItem {
                kv_tokens: context,
                rank: Some(r.req.rank()),
            },
        );
        let slot = r.slot;
        let last = r.req.output_tokens().checked_sub(r.produced + 1);
        let last = last.expect("a finished request never joins the decode set");
        self.book_due(
            last,
            Due {
                stamp,
                slot,
                grows: false,
            },
        );
        self.book_crossing(idx);
    }

    /// Books the next block crossing of decode-set request `idx`: the
    /// iteration whose token its reservation, grown a token per token past
    /// it, no longer fits in the blocks its sequence holds — unless the
    /// request finishes first.
    fn book_crossing(&mut self, idx: usize) {
        let r = &self.running[idx];
        let stint = r.stint.expect("only the decode set grows its KV");
        let produced = r.produced(self.decode_done());
        // The reservation fills its blocks at the context `capacity +
        // lag`; the token after that one crosses.
        let capacity = self.kv.blocks_for(r.kv_reserved) * KV_BLOCK_TOKENS;
        let k = capacity + stint.lag - (r.req.input_tokens() + produced);
        if r.req.output_tokens().checked_sub(produced + 1) >= Some(k) {
            let due = Due {
                stamp: stint.stamp,
                slot: r.slot,
                grows: true,
            };
            self.book_due(k, due);
        }
    }

    /// Files `due` for the decode iteration after the next `k`.
    fn book_due(&mut self, k: u32, due: Due) {
        let k = k as usize;
        if k >= self.due.len() {
            self.due.resize_with(k + 1, Vec::new);
        }
        self.due[k].push(due);
    }

    /// Takes the running request at batch position `idx` out of the
    /// decode set, if it is in it, with the tokens of the decode
    /// iterations up to `through`: its count, its reservation, its
    /// record's gaps and the work counter. The pricing sums drop the
    /// context they hold for it.
    fn leave_decode(&mut self, idx: usize, through: u64) {
        let done = self.decode_done();
        let r = &mut self.running[idx];
        let Some(stint) = r.stint else {
            return;
        };
        let through = through.max(stint.joined);
        r.kv_reserved = r.kv_reserved(through);
        r.stint = None;
        self.decode_batch.remove(
            self.cost.llm(),
            DecodeItem {
                kv_tokens: r.req.input_tokens() + r.produced + (done - stint.joined) as u32,
                rank: Some(r.req.rank()),
            },
        );
        let tokens = &self.decode_ends[stint.joined as usize..through as usize];
        r.produced += tokens.len() as u32;
        self.collector.on_tokens(r.slot, tokens);
        self.work.tokens_applied += tokens.len() as u64;
        #[cfg(debug_assertions)]
        {
            let id = r.req.id();
            assert_eq!(r.produced, r.eager_produced, "{id} left decoding");
            assert_eq!(r.kv_reserved, r.eager_reserved, "{id} reservation");
        }
    }

    /// Gives back a preempted request's hold on `adapter`: its cache
    /// reference, or — when the adapter is still in flight, as for a
    /// request preempted before its prefill ever started — its place
    /// among the load's waiters, since the reference would only have
    /// materialised at the `LoadDone`.
    fn drop_adapter_hold(&mut self, adapter: AdapterId, now: SimTime) {
        if let Some(l) = self.loading.get_mut(adapter) {
            l.waiters = l.waiters.saturating_sub(1);
        } else {
            self.cache.release(&mut self.mem, adapter, now);
        }
    }

    fn on_load_done(&mut self, now: SimTime, id: AdapterId, out: &mut Vec<(SimTime, EngineEvent)>) {
        let Some(loading) = self.loading.remove(id) else {
            return; // duplicate completion (cannot normally happen)
        };
        // The load reservation becomes a cache entry with the waiting
        // requests' references.
        self.mem.release(Region::AdaptersInUse, loading.bytes);
        let spec = self.pool.get(id).expect("loaded adapter exists").clone();
        self.cache
            .insert_loaded(&mut self.mem, &spec, now, loading.waiters)
            .expect("reservation was released just above");
        self.try_dispatch(now, out);
    }

    fn on_refresh(&mut self, now: SimTime) {
        self.with_probe(now, |sched, probe| sched.on_refresh(probe));
        self.cache.decay_frequencies();
    }

    fn sample_memory(&mut self, now: SimTime) {
        self.mem_series.push(MemorySample {
            at: now,
            weights: self.mem.used(Region::Weights),
            kv: self.mem.used(Region::KvCache),
            adapters_in_use: self.mem.used(Region::AdaptersInUse),
            adapter_cache: self.mem.used(Region::AdapterCache),
            capacity: self.mem.capacity(),
        });
        if self.kv_stats.enabled {
            let p = self.kv_pressure();
            self.kv_stats.note_pressure(p);
        }
        if let Some(buf) = self.trace.as_mut() {
            buf.push((
                now,
                TraceEvent::QueueSample {
                    queued: self.sched.len() as u32,
                    running: self.running.len() as u32,
                    kv_bytes: self.mem.used(Region::KvCache),
                    cache_bytes: self.mem.used(Region::AdapterCache),
                },
            ));
        }
    }

    fn on_step_done(&mut self, now: SimTime, seq: u64, out: &mut Vec<(SimTime, EngineEvent)>) {
        if seq != self.step_seq {
            return; // stale completion from a squashed plan
        }
        let Some(plan) = self.current_step.take() else {
            return;
        };
        if plan.decode {
            // Every request in the decode set produced a token.
            self.decode_ends.push(now);
            self.decode_batch.advance();
            self.take_due_events();
        }
        for &(slot, chunk) in &plan.prefill {
            self.apply_prefill_progress(slot, chunk, now);
        }
        if plan.decode {
            self.grow_past_reservations(now);
        }
        self.spare_plan = plan;
        self.retire_finished(now);
        self.try_dispatch(now, out);
        self.prefetch(now, out);
    }

    fn apply_prefill_progress(&mut self, slot: Slot, chunk: u32, now: SimTime) {
        let Some(idx) = self.batch_index(slot) else {
            return; // squashed mid-step
        };
        let r = &mut self.running[idx];
        r.prefill_remaining = r.prefill_remaining.saturating_sub(chunk);
        if r.prefill_remaining > 0 {
            return;
        }
        if r.produced == 0 {
            // Prefill completion produces the first token.
            r.produced = 1;
            #[cfg(debug_assertions)]
            {
                r.eager_produced = 1;
            }
            let (id, arrival) = (r.req.id(), r.req.arrival());
            self.collector.on_token(slot, now);
            self.work.tokens_applied += 1;
            if let Some(buf) = self.trace.as_mut() {
                buf.push((
                    now,
                    TraceEvent::FirstToken {
                        req: id.0,
                        ttft: now.saturating_since(arrival),
                    },
                ));
            }
        }
        if let Some(i) = self.prefilling.iter().position(|&s| s == slot) {
            self.prefilling.swap_remove(i);
        }
        // The adapter that ran the prefill stays on the GPU.
        debug_assert!(!self.loading.contains(self.running[idx].req.adapter()));
        if self.running[idx].finished(self.decode_done()) {
            self.retiring.push(slot);
        } else {
            self.join_decode(idx);
        }
    }

    /// Moves the stint events due at the decode iteration just completed
    /// into this iteration's block crossings and the retirement
    /// candidates, dropping those of stints that already ended.
    fn take_due_events(&mut self) {
        let Some(mut bucket) = self.due.pop_front() else {
            return;
        };
        for due in bucket.drain(..) {
            if !in_stint(&self.running, &self.batch_pos, due.slot, due.stamp) {
                continue;
            }
            if due.grows {
                self.crossing.push(due.slot);
            } else {
                self.retiring.push(due.slot);
            }
        }
        self.due.push_back(bucket);
    }

    /// Reserves the new KV block of every decode-set request whose token
    /// of this iteration crossed into one, in the iteration's decode order
    /// — batch order at launch — so that each out-of-memory preemption
    /// picks its victim from the batch exactly as a per-token pass over the
    /// decode set would have left it. A token that stays inside its
    /// sequence's blocks needs no memory and cannot fail, so the derived
    /// reservation covers it without an allocator call.
    fn grow_past_reservations(&mut self, now: SimTime) {
        let mut order = std::mem::take(&mut self.growth_order);
        order.clear();
        let batch_pos = &self.batch_pos;
        order.extend(
            self.crossing
                .drain(..)
                .map(|slot| (batch_pos[slot.index()], slot)),
        );
        order.sort_unstable_by_key(|&(pos, _)| pos);
        self.moved.clear();
        for &(pos, slot) in &order {
            #[cfg(debug_assertions)]
            self.eager_tokens(Some(slot));
            // A preemption earlier in this pass may have taken it.
            if self.batch_index(slot).is_some() {
                self.grow_decoder(slot, pos, now);
            }
        }
        #[cfg(debug_assertions)]
        self.eager_tokens(None);
        self.growth_order = order;
    }

    /// Reserves the KV block that decode-set request `slot`, at
    /// `launch_pos` in the iteration's decode order, needs for this
    /// iteration's token, and books its next crossing. On OOM it preempts
    /// the youngest other running request and retries once; if that fails
    /// too, the reservation lags a token and the crossing retries next
    /// iteration.
    fn grow_decoder(&mut self, slot: Slot, launch_pos: u32, now: SimTime) {
        let grown = self.ensure_kv_growth(slot, now) || {
            self.preempt_youngest_but(slot, launch_pos, now);
            self.ensure_kv_growth(slot, now)
        };
        let idx = self.batch_index(slot).expect("a growing request runs");
        if !grown {
            let stint = self.running[idx].stint.as_mut();
            stint.expect("a growing request decodes").lag += 1;
        }
        self.book_crossing(idx);
    }

    /// Preempts the youngest running request other than `slot`, at
    /// `launch_pos` in the iteration's decode order, to free memory for
    /// its KV: demoted to a compact hidden-state proxy when the hybrid
    /// cache allows it, squashed outright otherwise (recompute-style
    /// preemption).
    fn preempt_youngest_but(&mut self, slot: Slot, launch_pos: u32, now: SimTime) {
        let done = self.decode_done();
        let youngest = self
            .running
            .iter()
            .enumerate()
            .filter(|(_, r)| r.slot != slot)
            .max_by_key(|(_, r)| (r.admitted_at, r.req.id()))
            .map(|(i, _)| i);
        let Some(idx) = youngest else {
            return;
        };
        // A victim after `slot` in the decode order has not had this
        // iteration's token yet.
        let through = if self.launch_pos(self.running[idx].slot) > launch_pos {
            done.saturating_sub(1)
        } else {
            done
        };
        self.leave_decode(idx, through);
        // The preemption's `swap_remove` moves the batch's last request
        // into the victim's place.
        let last = self.running.len() - 1;
        let tail = self.running[last].slot;
        if idx != last && !self.moved.iter().any(|&(s, _)| s == tail) {
            self.moved.push((tail, last as u32));
        }
        if !self.try_demote(idx, now) {
            self.squash(idx, now);
        }
    }

    /// Position of running request `slot` in the batch when the iteration
    /// in progress launched.
    fn launch_pos(&self, slot: Slot) -> u32 {
        self.moved
            .iter()
            .find(|&&(s, _)| s == slot)
            .map_or(self.batch_pos[slot.index()], |&(_, pos)| pos)
    }

    /// Debug builds: gives the iteration's token to each request of its
    /// decode set in decode order, up to and including `upto` (all of
    /// them for `None`), skipping requests preempted earlier in the
    /// iteration, and grows by that token the reservation of each one the
    /// token takes past it — the per-token counts the lazy ones must
    /// match. A token that needs a new block must be `upto`'s, the
    /// crossing the growth pass serves next, whose allocator call decides
    /// whether its reservation grows.
    #[cfg(debug_assertions)]
    fn eager_tokens(&mut self, upto: Option<Slot>) {
        let (decode, cursor) = &mut self.eager_decode;
        while let Some(&slot) = decode.get(*cursor) {
            *cursor += 1;
            let pos = self.batch_pos[slot.index()];
            if pos != NOT_RUNNING {
                let r = &mut self.running[pos as usize];
                r.eager_produced += 1;
                let past = r.req.input_tokens() + r.eager_produced > r.eager_reserved;
                let room = self.kv.blocks_for(r.eager_reserved) * KV_BLOCK_TOKENS;
                let crosses = past && r.eager_reserved == room;
                assert_eq!(crosses, Some(slot) == upto, "{} crossing", r.req.id());
                if past && !crosses {
                    r.eager_reserved += 1;
                }
            }
            if Some(slot) == upto {
                return;
            }
        }
        assert!(upto.is_none(), "{upto:?} grew outside the decode set");
    }

    /// KV pressure: KV-cache bytes over usable (non-weight,
    /// non-activation) memory, in `[0, 1]`.
    fn kv_pressure(&self) -> f64 {
        let usable = self
            .mem
            .capacity()
            .saturating_sub(self.mem.used(Region::Weights))
            .saturating_sub(self.mem.used(Region::Activations));
        if usable == 0 {
            return 1.0;
        }
        self.mem.used(Region::KvCache) as f64 / usable as f64
    }

    /// Hybrid cache mode (Apt-Serve): under KV pressure, demotes the
    /// running request at batch position `idx` to a compact proxy entry
    /// instead of squashing it. The victim's full blocks free, a
    /// [`PROXY_RATIO`] fraction stays resident, and the scheduler quota
    /// stays charged — retirement after restore credits it exactly once.
    /// Returns whether a demotion happened.
    fn try_demote(&mut self, idx: usize, now: SimTime) -> bool {
        let Some(spec) = self.kv_spec else {
            return false;
        };
        if !spec.hybrid
            || self.demoted.len() + self.restoring.len() >= MAX_PROXIES
            || self.kv_pressure() < spec.pressure_threshold
        {
            return false;
        }
        let run = self.take_running(idx);
        let (full, proxy) = self.kv.demote(&mut self.mem, run.kv, PROXY_RATIO);
        self.drop_adapter_hold(run.req.adapter(), now);
        self.kv_stats.on_demoted(self.kv.proxy_bytes());
        if let Some(buf) = self.trace.as_mut() {
            buf.push((
                now,
                TraceEvent::KvDemoted {
                    req: run.req.id().0,
                    full_bytes: full,
                    proxy_bytes: proxy,
                },
            ));
        }
        self.demoted.push(Demoted {
            run,
            proxy_bytes: proxy,
            demoted_at: now,
        });
        true
    }

    /// Drives the demotion state machine at an iteration boundary: first
    /// lands restores whose PCIe transfer completed (the request rejoins
    /// the running batch with its frozen progress), then initiates new
    /// restores oldest-first while *genuinely free* memory — never
    /// eviction, so restores cannot thrash admissions — covers the full
    /// footprint, a cold adapter reload, and a little growth headroom.
    fn service_kv_restores(&mut self, now: SimTime, out: &mut Vec<(SimTime, EngineEvent)>) {
        if self.restoring.is_empty() && self.demoted.is_empty() {
            return;
        }
        // Stable removal (not swap_remove): running-batch push order is
        // part of the deterministic timeline.
        let mut i = 0;
        while i < self.restoring.len() {
            if self.restoring[i].ready_at > now {
                i += 1;
                continue;
            }
            let Demoted {
                run, demoted_at, ..
            } = self.restoring.remove(i).d;
            if let Some(buf) = self.trace.as_mut() {
                buf.push((
                    now,
                    TraceEvent::KvRestored {
                        req: run.req.id().0,
                        kv_bytes: self.kv.bytes_for(run.kv_reserved),
                        stalled: now.saturating_since(demoted_at),
                    },
                ));
            }
            self.push_running(run);
        }
        while let Some(d) = self.demoted.first() {
            let kv_tokens = d.run.req.input_tokens() + d.run.replanned_output();
            let adapter = d.run.req.adapter();
            let adapter_need = if self.is_adapter_resident(adapter) {
                0
            } else {
                self.pool.get(adapter).map_or(0, |a| a.bytes())
            };
            let need = self.kv.bytes_for(kv_tokens) + adapter_need + 2 * self.kv.block_bytes();
            if self.mem.free() < need {
                break;
            }
            let mut d = self.demoted.remove(0);
            self.kv
                .restore(&mut self.mem, d.run.kv, kv_tokens)
                .expect("free memory checked above");
            d.run.kv_reserved = kv_tokens;
            #[cfg(debug_assertions)]
            {
                d.run.eager_reserved = kv_tokens;
            }
            // The proxy → full-KV re-materialisation rides the host link
            // like any transfer.
            let kv_ready = self.issue_adapter_transfer(d.proxy_bytes, now);
            // Adapter residency, exactly as admission takes it. The check
            // above covered a cold load's bytes, so a restore never evicts.
            let hit = self.cache.acquire(&mut self.mem, adapter, now);
            debug_assert!(self.mem.free() >= adapter_need, "a restore never evicts");
            let ready_at = self
                .hold_adapter(adapter, adapter_need, hit, now, out)
                .expect("free memory checked above")
                .max(kv_ready);
            self.kv_stats.on_restored(d.proxy_bytes);
            // Revisit this state machine when the transfer lands even if
            // no other event would fire then.
            out.push((ready_at, EngineEvent::Poke));
            self.restoring.push(Restoring { d, ready_at });
        }
    }

    /// Builds the protected-adapter set (adapters of queued requests,
    /// §4.2) from the scheduler unless `protected_ready` says it is
    /// current; `adapters_buf` keeps the ordered list, `protected_buf` the
    /// set view. Each admission and each KV growth clears the flag, since
    /// the queues may have changed since the last build.
    fn ensure_protected(&mut self) {
        if self.protected_ready {
            return;
        }
        self.protected_ready = true;
        self.work.protected_sets += 1;
        self.adapters_buf.clear();
        self.sched.queued_adapters_into(&mut self.adapters_buf);
        self.protected_buf.clear();
        for &a in &self.adapters_buf {
            self.protected_buf.insert(a);
        }
    }

    /// Reserves the KV block that running request `slot`'s token of this
    /// iteration crossed into, evicting idle cached adapters if needed.
    /// Returns success.
    ///
    /// The grow is attempted *first*, and only a failed one — the pool is
    /// out of free memory — evicts idle cache and retries.
    fn ensure_kv_growth(&mut self, slot: Slot, now: SimTime) -> bool {
        let idx = self
            .batch_index(slot)
            .expect("only running requests grow their KV");
        if self.grow_block(idx) {
            return true;
        }
        // Out of free memory: make room and retry once.
        let need_block = self.kv.block_bytes();
        if self.mem.free() < need_block {
            self.protected_ready = false;
            self.ensure_protected();
            if !self.cache.make_room(&mut self.mem, need_block, now, &|a| {
                self.protected_buf.contains(a)
            }) {
                return false;
            }
        }
        self.grow_block(idx)
    }

    /// One allocator call: grows the KV sequence of running request `idx`
    /// to its reservation with this iteration's token, a token past the
    /// blocks it holds. Returns success; a failure leaves the sequence as
    /// it was.
    fn grow_block(&mut self, idx: usize) -> bool {
        self.work.kv_grows += 1;
        let done = self.decode_done();
        let r = &mut self.running[idx];
        let target = r.kv_reserved(done);
        debug_assert_eq!(
            self.kv.blocks_for(target),
            self.kv.blocks_for(r.kv_reserved) + 1,
            "{} grows by a block",
            r.req.id()
        );
        if self
            .kv
            .grow(&mut self.mem, r.kv, target - r.kv_reserved)
            .is_err()
        {
            return false;
        }
        r.kv_reserved = target;
        #[cfg(debug_assertions)]
        {
            r.eager_reserved += 1;
        }
        true
    }

    /// Retires the running requests that produced their last token, in
    /// descending batch position: the order of a descending rescan of the
    /// batch, whose `swap_remove`s only move requests it already checked.
    fn retire_finished(&mut self, now: SimTime) {
        let done = self.decode_done();
        let mut retiring = std::mem::take(&mut self.retiring);
        let (running, batch_pos) = (&self.running, &self.batch_pos);
        retiring.retain(|&slot| {
            let pos = batch_pos[slot.index()];
            pos != NOT_RUNNING && running[pos as usize].finished(done)
        });
        retiring.sort_unstable_by_key(|&slot| Reverse(batch_pos[slot.index()]));
        debug_assert!(retiring.windows(2).all(|w| w[0] != w[1]));
        for &slot in &retiring {
            let r = self.take_running(self.batch_index(slot).expect("checked above"));
            self.collector.on_finish(r.slot, now);
            self.kv.free(&mut self.mem, r.kv);
            self.cache.release(&mut self.mem, r.req.adapter(), now);
            self.sched.on_finish(r.queue_index, r.charged_tokens);
            self.completed += 1;
        }
        debug_assert!(self.running.iter().all(|r| !r.finished(done)));
        retiring.clear();
        self.retiring = retiring;
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn is_idle(&self, now: SimTime) -> bool {
        self.current_step.is_none() && now >= self.busy_until
    }

    /// Hands the scheduler a probe of live engine state at `now`. The
    /// probe reads residency from the cache, running and loading tables
    /// directly, and invalidates the release schedule so the first wait
    /// estimate after it prices the batch as it stands now.
    fn with_probe(&mut self, now: SimTime, f: impl FnOnce(&mut dyn Scheduler, &EngineProbe<'_>)) {
        let scalars = self.probe_scalars(now);
        self.work.probes += 1;
        let done = self.decode_done();
        let Engine {
            sched,
            cache,
            adapter_users,
            loading,
            running,
            kv,
            pool,
            release,
            release_batch,
            ..
        } = self;
        let (cache, users, loading) = (&*cache, &*adapter_users, &*loading);
        let resident = |a: AdapterId| {
            cache.ref_count(a) == Some(0)
                || users.get(a.0 as usize).is_some_and(|&n| n > 0)
                || loading.contains(a)
        };
        let (batch, kv, pool) = (&running[..*release_batch], &*kv, &*pool);
        let fill = |out: &mut Releases| release_pairs(out, batch, done, kv, pool);
        let probe = EngineProbe {
            scalars,
            resident: &resident,
            release,
            fill_release: &fill,
        };
        #[cfg(test)]
        if let Some(audit) = self.residency_audit.as_mut() {
            audit.check(&probe, cache, batch, loading, &self.restoring, pool.len());
        }
        f(sched.as_mut(), &probe);
    }

    /// The probe's scalars at `now`; also invalidates the release schedule
    /// and records what its rebuild will price.
    fn probe_scalars(&mut self, now: SimTime) -> ProbeScalars {
        // Evictable idle cache bytes count as available.
        let available_bytes = self.free_memory_bytes();
        // Per-token execution estimates at the current batch size: a decode
        // token costs one full (shared) iteration of wall time; a prefill
        // token costs its compute share.
        let batch = self.running.len().max(1);
        let step = self.cost.uniform_decode_step_time(batch, 256);
        self.release.invalidate(step);
        self.release_batch = self.running.len();
        let usable = self
            .mem
            .capacity()
            .saturating_sub(self.mem.used(Region::Weights))
            .saturating_sub(self.mem.used(Region::Activations));
        ProbeScalars {
            now,
            available_tokens: available_bytes / self.kv_bytes_per_token,
            batch_slots: self
                .cfg
                .max_batch_requests
                .saturating_sub(self.running.len()),
            secs_per_token: step.as_secs_f64() / batch as f64,
            decode_secs_per_token: step.as_secs_f64(),
            prefill_secs_per_token: self.prefill_secs_per_token,
            total_token_capacity: usable / self.kv_bytes_per_token,
            free_kv_bytes: available_bytes,
            kv_bytes_per_token: self.kv_bytes_per_token,
            kv_block_bytes: self.kv.block_bytes(),
        }
    }

    fn try_dispatch(&mut self, now: SimTime, out: &mut Vec<(SimTime, EngineEvent)>) {
        if !self.is_idle(now) {
            // Phantom busy: `busy_until` ahead of `now` with no step in
            // flight. Within one run this cannot happen (the StepDone that
            // clears `current_step` fires exactly at `busy_until`), but a
            // later `run` call may replay a trace whose timeline starts
            // before the busy horizon carried over from the previous run —
            // and then no future event would ever re-trigger dispatch.
            // Schedule the wake-up that the missing StepDone would have
            // been.
            if self.current_step.is_none() && !self.poke_pending {
                self.poke_pending = true;
                out.push((self.busy_until, EngineEvent::Poke));
            }
            return;
        }
        self.service_kv_restores(now, out);
        self.check_squash(now);
        let mut admissions = std::mem::take(&mut self.admit_buf);
        admissions.clear();
        self.with_probe(now, |sched, probe| {
            sched.form_batch_into(probe, &mut admissions);
        });
        let mut admitted = 0u32;
        {
            let mut iter = admissions.drain(..);
            while let Some(adm) = iter.next() {
                if !self.admit(adm, now, out) {
                    // The scheduler already dequeued and charged the
                    // remaining admissions; give their quota back and
                    // return them to the front of their queues (in
                    // reverse, preserving order).
                    let mut rest = std::mem::take(&mut self.requeue_buf);
                    rest.clear();
                    rest.extend(iter);
                    for adm in rest.drain(..).rev() {
                        self.sched.on_finish(adm.queue_index, adm.charged_tokens);
                        self.sched.requeue_front(adm.request.requeued_at(now));
                    }
                    self.requeue_buf = rest;
                    break;
                }
                admitted += 1;
            }
        }
        self.admit_buf = admissions;
        if admitted > 0 {
            if let Some(buf) = self.trace.as_mut() {
                buf.push((
                    now,
                    TraceEvent::BatchFormed {
                        admitted,
                        running: self.running.len() as u32,
                        queued: self.sched.len() as u32,
                    },
                ));
            }
        }
        self.launch_step(now, out);
        // Liveness: if the engine is now completely idle but requests are
        // still queued (blocked head waiting on banked memory or an aging
        // gate), wake up again shortly — no other event would.
        if self.current_step.is_none()
            && self.running.is_empty()
            && self.loading.is_empty()
            && !self.sched.is_empty()
            && !self.poke_pending
        {
            self.poke_pending = true;
            out.push((now + SimDuration::from_millis(50), EngineEvent::Poke));
        }
    }

    /// Applies one admission. Returns `false` when resources ran out and
    /// admission processing should stop.
    fn admit(
        &mut self,
        adm: chameleon_sched::AdmissionOutcome,
        now: SimTime,
        out: &mut Vec<(SimTime, EngineEvent)>,
    ) -> bool {
        let queued = adm.request;
        let id = queued.id();
        let slot = queued
            .slot()
            .expect("the engine stamps a slot on every request it queues");
        let req = *queued.request();
        let adapter = req.adapter();
        let bytes = self.pool.get(adapter).expect("known adapter").bytes();
        // The queues do not change within one admission, so the protected
        // set is built at most once, and only if something reads it.
        self.protected_ready = false;

        // 1. KV reservation for input + predicted output.
        let kv_tokens = req.input_tokens() + queued.predicted_output();
        let kv_bytes = self.kv.bytes_for(kv_tokens);
        let guarded = self.kv_spec.is_some_and(|s| s.admission);
        if guarded {
            // KV-aware admission control: refuse *before* touching the
            // allocator when the block-rounded footprint — KV plus a cold
            // adapter load — cannot be met even by evicting every idle,
            // unprotected cached adapter. Reserving input + predicted
            // output up front is the completability criterion; the
            // optimistic baseline instead allocates, fails halfway, and
            // unwinds via requeue-front.
            let adapter_need = if self.is_adapter_resident(adapter) {
                0
            } else {
                bytes
            };
            let need = kv_bytes + adapter_need;
            // Reclaimable mirrors what `make_room` can actually deliver:
            // every idle adapter counts (its §4.2 second pass overrides
            // queue protection when memory demands it) — except the
            // request's *own* adapter, which cannot fund its admission:
            // evicting it frees exactly the bytes its reload would
            // consume, so counting it as both "resident, need 0" and
            // "evictable" overstates capacity and ends in a
            // self-inflicted storm when the cold-load reserve fails.
            // O(1): the idle adapters' bytes are the pool's cache region.
            let own_idle = if self.cache.ref_count(adapter) == Some(0) {
                bytes
            } else {
                0
            };
            let reclaimable = self.free_memory_bytes() - own_idle;
            if need > reclaimable {
                self.kv_stats.on_refused();
                if let Some(buf) = &mut self.trace {
                    // How long the release schedule of this dispatch's
                    // probe says the deficit takes to free up.
                    let (batch, kv, pool) =
                        (&self.running[..self.release_batch], &self.kv, &self.pool);
                    let done = self.decode_ends.len() as u64;
                    let est_wait = self.release.wait(need - reclaimable, |out| {
                        release_pairs(out, batch, done, kv, pool)
                    });
                    buf.push((
                        now,
                        TraceEvent::AdmissionRefused {
                            req: id.0,
                            need_bytes: need,
                            free_bytes: reclaimable,
                            est_wait,
                        },
                    ));
                }
                self.sched.on_finish(adm.queue_index, adm.charged_tokens);
                self.sched.requeue_front(queued.requeued_at(now));
                return false;
            }
        }
        // With admission armed, pin a resident adapter *before* the KV
        // make_room: the completability check excluded its bytes from the
        // reclaimable sum, so no eviction pass may spend them (referenced
        // adapters are never evicted). `None` preserves the optimistic
        // baseline's acquire-after-allocate order byte for byte.
        let pre_acquired = guarded.then(|| self.cache.acquire(&mut self.mem, adapter, now));
        if self.mem.free() < kv_bytes {
            self.ensure_protected();
            self.cache.make_room(&mut self.mem, kv_bytes, now, &|a| {
                self.protected_buf.contains(a)
            });
        }
        let Ok(seq) = self.kv.allocate(&mut self.mem, id, kv_tokens) else {
            // Snapshot was optimistic; push back and stop. With the KV
            // stats plane armed this is a requeue-front storm — the event
            // admission control exists to eliminate.
            if self.kv_stats.enabled {
                self.kv_stats.on_storm();
            }
            if pre_acquired == Some(true) {
                self.cache.release(&mut self.mem, adapter, now);
            }
            self.sched.on_finish(adm.queue_index, adm.charged_tokens);
            self.sched.requeue_front(queued.requeued_at(now));
            return false;
        };

        // 2. Adapter residency.
        let hit = pre_acquired.unwrap_or_else(|| self.cache.acquire(&mut self.mem, adapter, now));
        let Some(ready_at) = self.hold_adapter(adapter, bytes, hit, now, out) else {
            // No memory for the adapter: undo the KV reservation.
            if self.kv_stats.enabled {
                self.kv_stats.on_storm();
            }
            self.kv.free(&mut self.mem, seq);
            self.sched.on_finish(adm.queue_index, adm.charged_tokens);
            self.sched.requeue_front(queued.requeued_at(now));
            return false;
        };

        // 3. Bookkeeping.
        if adm.bypassed {
            self.collector.on_bypass(slot);
            // Identify the blocked head (r1) as the current head of the
            // same queue, if any, for the squash rule, from the ordered
            // queued-adapter list.
            self.ensure_protected();
            if let Some(r1) = self.adapters_buf.first().copied() {
                // Approximation: protect against squashing storms by
                // recording the blocked adapter's byte need as tokens.
                // Admission reserves input + predicted output, so the
                // blocked head's token need must count both — input alone
                // under-fires the §4.3.3 squash rule.
                let r1_tokens = self
                    .pool
                    .get(r1)
                    .map(|a| a.bytes() / self.kv_bytes_per_token)
                    .unwrap_or(0)
                    + u64::from(req.input_tokens())
                    + u64::from(queued.predicted_output());
                self.bypass_pairs.push(BypassPair {
                    r2: slot,
                    r1_tokens,
                });
            }
        }
        self.collector
            .on_admitted(slot, now, ready_at.saturating_since(now));
        self.push_running(Running {
            slot,
            kv: seq,
            prefill_remaining: req.input_tokens(),
            produced: 0,
            stint: None,
            #[cfg(debug_assertions)]
            eager_produced: 0,
            kv_reserved: kv_tokens,
            #[cfg(debug_assertions)]
            eager_reserved: kv_tokens,
            predicted_output: queued.predicted_output(),
            charged_tokens: adm.charged_tokens,
            queue_index: adm.queue_index,
            admitted_at: now,
            req,
        });
        true
    }

    /// Holds `adapter` for one more request once
    /// [`AdapterCache::acquire`] answered `hit`, and returns when the
    /// adapter is usable: `now` on a hit; the in-flight load's `ready_at`,
    /// as one more waiter; or a cold load's, evicting idle adapters first
    /// only when fewer than `bytes` are free. `None` when the cold load
    /// cannot reserve its bytes.
    fn hold_adapter(
        &mut self,
        adapter: AdapterId,
        bytes: u64,
        hit: bool,
        now: SimTime,
        out: &mut Vec<(SimTime, EngineEvent)>,
    ) -> Option<SimTime> {
        if hit {
            return Some(now);
        }
        if let Some(l) = self.loading.get_mut(adapter) {
            l.waiters += 1;
            return Some(l.ready_at);
        }
        if self.mem.free() < bytes {
            self.ensure_protected();
            self.cache.make_room(&mut self.mem, bytes, now, &|a| {
                self.protected_buf.contains(a)
            });
        }
        self.start_load(adapter, bytes, 1, now, out)
    }

    /// Reserves `bytes` for `adapter`, starts its host→GPU transfer with
    /// `waiters` admitted requests waiting on it, and schedules its
    /// `LoadDone`. Returns when the adapter is usable, or `None` when the
    /// reservation fails.
    fn start_load(
        &mut self,
        adapter: AdapterId,
        bytes: u64,
        waiters: u32,
        now: SimTime,
        out: &mut Vec<(SimTime, EngineEvent)>,
    ) -> Option<SimTime> {
        self.mem.reserve(Region::AdaptersInUse, bytes).ok()?;
        let ready_at = self.issue_adapter_transfer(bytes, now);
        self.loading.insert(
            adapter,
            Loading {
                ready_at,
                bytes,
                waiters,
            },
        );
        out.push((ready_at, EngineEvent::LoadDone(adapter)));
        Some(ready_at)
    }

    /// §4.3.3 squash rule: if memory sufficient for a previously blocked
    /// request has freed while a bypasser is still running, squash the
    /// bypasser for later re-execution.
    fn check_squash(&mut self, now: SimTime) {
        if self.bypass_pairs.is_empty() {
            return;
        }
        let free_tokens = self.free_memory_bytes() / self.kv_bytes_per_token;
        let done = self.decode_done();
        // Two persistent vectors trade roles each call: `bypass_pairs` is
        // emptied (so a squash's retain in `take_running` sees the same
        // empty list the old `mem::take` produced), survivors accumulate
        // in the scratch, and
        // a final swap makes the scratch the live list — no allocation.
        let pairs = std::mem::take(&mut self.bypass_pairs);
        debug_assert!(self.pairs_scratch.is_empty());
        for &pair in &pairs {
            let Some(idx) = self.batch_index(pair.r2) else {
                continue; // bypasser finished: pair dissolves
            };
            // Memory for the blocked request is now available even without
            // squashing: the pair dissolves (r1 will admit normally).
            if free_tokens >= pair.r1_tokens {
                continue;
            }
            // Would squashing r2 free enough?
            let r2 = &self.running[idx];
            let r2_frees = u64::from(r2.kv_reserved(done))
                + self
                    .pool
                    .get(r2.req.adapter())
                    .map(|a| a.bytes() / self.kv_bytes_per_token)
                    .unwrap_or(0);
            if free_tokens + r2_frees >= pair.r1_tokens {
                self.squash(idx, now);
            } else {
                self.pairs_scratch.push(pair);
            }
        }
        std::mem::swap(&mut self.bypass_pairs, &mut self.pairs_scratch);
        self.pairs_scratch = pairs;
        self.pairs_scratch.clear();
    }

    /// Squashes the running request at batch position `idx`: its
    /// generated state is discarded and it returns to the front of its
    /// queue for re-execution.
    fn squash(&mut self, idx: usize, now: SimTime) {
        let r = self.take_running(idx);
        self.kv.free(&mut self.mem, r.kv);
        self.drop_adapter_hold(r.req.adapter(), now);
        self.sched.on_finish(r.queue_index, r.charged_tokens);
        self.collector.on_squash(r.slot);
        self.squashes += 1;
        // Re-annotate and requeue at the front.
        let bytes = self.pool.get(r.req.adapter()).expect("known").bytes();
        let predicted = r.replanned_output();
        let wrs = self.wrs_cfg.compute(r.req.input_tokens(), predicted, bytes);
        let tokens = bytes / self.kv_bytes_per_token;
        let queued = QueuedRequest::new(r.req, predicted, bytes, tokens, wrs, now);
        self.sched.requeue_front(queued.with_slot(r.slot));
    }

    /// Chooses and launches the next iteration.
    ///
    /// Only requests whose state changes are touched: the prefilling ones
    /// take prompt chunks in batch order while the budget lasts, restored
    /// requests whose adapter has landed join the decode set, and the
    /// decode set is priced from its live sums.
    fn launch_step(&mut self, now: SimTime, out: &mut Vec<(SimTime, EngineEvent)>) {
        if self.current_step.is_some() {
            return;
        }
        self.join_loaded_decoders();
        let chunked = self.cfg.chunked_prefill;
        let mut budget = if chunked {
            PREFILL_CHUNK_TOKENS
        } else {
            MAX_PREFILL_BATCH_TOKENS
        };
        let mut plan = std::mem::take(&mut self.spare_plan);
        plan.prefill.clear();
        self.prefill_items.clear();
        let batch_pos = &self.batch_pos;
        self.prefilling
            .sort_unstable_by_key(|slot| batch_pos[slot.index()]);
        let (mut prefilling, mut blocked) = (false, false);
        for &slot in &self.prefilling {
            let r = &self.running[self.batch_pos[slot.index()] as usize];
            // A running request holds a cache reference or waits on its
            // adapter's load, so its adapter is resident exactly when it
            // is not loading.
            if self.loading.contains(r.req.adapter()) {
                // S-LoRA batch semantics (§2): the engine does not
                // launch the next iteration while an admitted request's
                // adapter is still loading — the scheduler synchronously
                // loads missing adapters before sending the batch.
                // Chameleon's asynchronous cache manager avoids this.
                blocked = self.cfg.block_on_load;
                if blocked {
                    break;
                }
                continue;
            }
            prefilling = true;
            // Cap the prompt tokens processed this iteration so a wave
            // of admissions cannot stall running decodes indefinitely.
            let take = r.prefill_remaining.min(budget);
            if take > 0 {
                budget -= take;
                plan.prefill.push((slot, take));
                self.prefill_items.push(PrefillItem {
                    tokens: take,
                    rank: Some(r.req.rank()),
                });
            }
        }
        // Default (LightLLM/S-LoRA-style) execution: pending prefills run
        // as a dedicated prefill iteration before decoding continues.
        plan.decode = !self.decode_batch.is_empty() && (chunked || !prefilling);
        #[cfg(debug_assertions)]
        self.check_plan(&plan, blocked);
        if blocked || (!prefilling && self.decode_batch.is_empty()) {
            // Waiting on a load (a LoadDone event will re-trigger
            // dispatch), or nothing executable.
            self.spare_plan = plan;
            return;
        }
        let duration = if prefilling && !chunked {
            self.cost.prefill_time(&self.prefill_items)
        } else {
            // One decode iteration; in Sarathi-style chunked prefill the
            // prompt chunks fold into it and their compute rides along,
            // minus one duplicated fixed overhead.
            let mut dur = self.cost.decode_batch_time(&self.decode_batch);
            if !self.prefill_items.is_empty() {
                let pf = self.cost.prefill_time(&self.prefill_items);
                let overhead = self.cost.calibration().prefill_overhead;
                dur = if dur.is_zero() {
                    pf
                } else {
                    dur + pf.saturating_sub(overhead)
                };
            }
            dur
        };
        // Straggler windows stretch every iteration; the healthy-path
        // branch (factor exactly 1.0) skips the multiply so arming the
        // fault plane elsewhere cannot perturb this engine's timeline.
        let duration = if self.slowdown != 1.0 {
            duration.mul_f64(self.slowdown)
        } else {
            duration
        };
        self.step_seq += 1;
        self.current_step = Some(plan);
        self.busy_until = now + duration;
        out.push((self.busy_until, EngineEvent::StepDone(self.step_seq)));
    }

    /// Moves the running requests whose adapter landed since they rejoined
    /// the batch into the decode set.
    fn join_loaded_decoders(&mut self) {
        let mut i = 0;
        while let Some(&slot) = self.awaiting_adapter.get(i) {
            let idx = self.batch_pos[slot.index()] as usize;
            if self.loading.contains(self.running[idx].req.adapter()) {
                i += 1;
            } else {
                self.awaiting_adapter.swap_remove(i);
                self.join_decode(idx);
            }
        }
    }

    /// Debug builds: plans the step the way one pass over the whole batch
    /// does, the reference the live planner replaced, and checks the plan,
    /// the decode set and its sums, and every running request's token
    /// count and KV reservation against it. Keeps the decode set in batch
    /// order for the iteration's eager token count.
    #[cfg(debug_assertions)]
    fn check_plan(&mut self, plan: &StepPlan, blocked: bool) {
        let done = self.decode_done();
        let mut budget = if self.cfg.chunked_prefill {
            PREFILL_CHUNK_TOKENS
        } else {
            MAX_PREFILL_BATCH_TOKENS
        };
        let (mut prefill, mut decode) = (Vec::new(), Vec::new());
        let mut sums = DecodeBatch::default();
        let mut eager_blocked = false;
        for r in &self.running {
            let id = r.req.id();
            assert_eq!(r.produced(done), r.eager_produced, "{id} token count");
            assert_eq!(r.kv_reserved(done), r.eager_reserved, "{id} reservation");
            // The sequence holds the tokens of the last crossing, in the
            // blocks the per-token reservation needs.
            let held = self.kv.tokens_of(r.kv);
            assert_eq!(held, Some(r.kv_reserved), "{id} KV sequence");
            let blocks = self.kv.blocks_for(r.eager_reserved);
            assert_eq!(self.kv.blocks_for(r.kv_reserved), blocks, "{id} KV blocks");
            let adapter = r.req.adapter();
            let resident = !self.loading.contains(adapter);
            assert_eq!(resident, self.cache.is_resident(adapter), "{adapter}");
            let decodes = r.prefill_remaining == 0 && resident && !r.finished(done);
            assert_eq!(r.stint.is_some(), decodes, "{id} in the decode set");
            if r.prefill_remaining > 0 {
                if !resident {
                    eager_blocked |= self.cfg.block_on_load;
                } else if !eager_blocked {
                    let take = r.prefill_remaining.min(budget);
                    if take > 0 {
                        budget -= take;
                        prefill.push((r.slot, take));
                    }
                }
            } else if decodes {
                decode.push(r.slot);
                let item = DecodeItem {
                    kv_tokens: r.req.input_tokens() + r.produced(done),
                    rank: Some(r.req.rank()),
                };
                sums.push(self.cost.llm(), item);
            }
        }
        assert_eq!((eager_blocked, &prefill), (blocked, &plan.prefill));
        assert_eq!(sums, self.decode_batch, "decode sums");
        if !plan.decode {
            decode.clear();
        }
        self.eager_decode = (decode, 0);
    }

    /// Issues the host→GPU copy for an adapter load and returns the
    /// instant the adapter is usable. With an armed fault injector, each
    /// failed copy still occupies the link for its full duration and the
    /// retry queues back-to-back behind it — a flaky link shows up as
    /// load latency and bandwidth pressure, never as lost work. Without
    /// one this is exactly the pre-fault load path.
    fn issue_adapter_transfer(&mut self, bytes: u64, now: SimTime) -> SimTime {
        let occupancy = self.cost.adapter_link_occupancy(bytes);
        let mut rec = self.link.transfer_with_duration(bytes, occupancy, now);
        if let Some(inj) = self.pcie_faults.as_mut() {
            while inj.transfer_fails() {
                rec = self.link.transfer_with_duration(bytes, occupancy, rec.end);
            }
        }
        rec.start + self.cost.adapter_load_time(bytes)
    }

    // ------------------------------------------------------------------
    // Prefetch
    // ------------------------------------------------------------------

    /// Issues asynchronous adapter loads for queued requests (§2) and,
    /// when enabled, for predicted future requests (§4.2 3).
    fn prefetch(&mut self, now: SimTime, out: &mut Vec<(SimTime, EngineEvent)>) {
        if !self.cfg.prefetch_queued && !self.cfg.predictive_prefetch {
            return;
        }
        if self.mem.free() < self.prefetch_floor {
            // No warm load could start, and a warm load never evicts.
            return;
        }
        self.prefetch_buf.clear();
        if self.cfg.prefetch_queued {
            self.sched.queued_adapters_into(&mut self.prefetch_buf);
        }
        if self.cfg.predictive_prefetch {
            let predicted = self.load_predictor.candidates(now, PREFETCH_WINDOW);
            self.prefetch_buf.extend(predicted);
        }
        let mut issued = 0;
        for k in 0..self.prefetch_buf.len() {
            let adapter = self.prefetch_buf[k];
            if issued >= PREFETCH_DEPTH {
                break;
            }
            if self.warm_load(adapter, now, out).is_some() {
                issued += 1;
            }
        }
    }

    /// Starts a speculative (no waiters) host→GPU transfer of `adapter`'s
    /// weights, returning the bytes issued, or `None` when the adapter is
    /// already resident or in flight, unknown, or memory is too tight.
    ///
    /// This is the warm-insert primitive shared by the engine's own
    /// prefetcher and the cluster's crash-time shard recovery onto the
    /// survivors. Warm loads never evict: they use only genuinely free
    /// memory and keep headroom for KV growth, so speculation can cost
    /// queued work nothing. The transfer is PCIe-cost-modelled — it
    /// queues on this engine's link like any demand load and completes
    /// via the returned [`EngineEvent::LoadDone`] pushed to `out`.
    pub fn warm_load(
        &mut self,
        adapter: AdapterId,
        now: SimTime,
        out: &mut Vec<(SimTime, EngineEvent)>,
    ) -> Option<u64> {
        if self.cache.is_resident(adapter) || self.loading.contains(adapter) {
            return None;
        }
        let bytes = self.pool.get(adapter)?.bytes();
        // Never evict for speculation: only genuinely free memory, with
        // headroom for a few KV blocks.
        if self.mem.free() < bytes + WARM_LOAD_HEADROOM_BLOCKS * self.kv.block_bytes() {
            return None;
        }
        self.start_load(adapter, bytes, 0, now, out)?;
        Some(bytes)
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("scheduler", &self.sched.name())
            .field("running", &self.running.len())
            .field("queued", &self.sched.len())
            .field("loading", &self.loading.len())
            .field("completed", &self.completed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_cache::EvictionPolicy;
    use chameleon_models::{AdapterRank, GpuSpec, LlmSpec, PoolConfig};
    use chameleon_predictor::OraclePredictor;
    use chameleon_sched::{FifoScheduler, QueuedRequest, ResourceProbe};
    use chameleon_workload::RequestId;

    /// Test-only audit of the probe's residency answer against the set the
    /// engine used to build per dispatch, run at every probe while armed.
    #[derive(Debug, Default)]
    pub(super) struct ResidencyAudit {
        /// Probes checked.
        probes: u64,
        /// Probes that saw an adapter referenced only by a restoring request.
        restoring_only: u64,
    }

    impl ResidencyAudit {
        /// Asserts `probe` reports exactly the reference set — idle cached
        /// adapters, adapters of running requests, and adapters in flight —
        /// for every adapter in the pool.
        pub(super) fn check(
            &mut self,
            probe: &EngineProbe<'_>,
            cache: &AdapterCache,
            running: &[Running],
            loading: &LoadingTable,
            restoring: &[Restoring],
            adapters: usize,
        ) {
            let reference: HashSet<AdapterId> = cache
                .idle_adapters()
                .chain(running.iter().map(|r| r.req.adapter()))
                .chain(loading.iter().map(|(id, _)| id))
                .collect();
            for id in (0..adapters).map(|i| AdapterId(i as u32)) {
                assert_eq!(
                    probe.adapter_resident(id),
                    reference.contains(&id),
                    "{id} at {}",
                    probe.now()
                );
            }
            self.probes += 1;
            if restoring.iter().any(|r| {
                let a = r.d.run.req.adapter();
                cache.is_resident(a) && !reference.contains(&a)
            }) {
                self.restoring_only += 1;
            }
        }
    }

    fn mk_engine() -> Engine {
        let llm = LlmSpec::llama_7b();
        let pool = AdapterPool::generate(&llm, &PoolConfig::paper_default(10));
        let cfg = EngineConfig::new(llm, GpuSpec::a40());
        let wrs = WrsConfig::paper(2048.0, 1024.0, (256 << 20) as f64);
        Engine::new(
            cfg,
            pool,
            Box::new(FifoScheduler::new()),
            Box::new(OraclePredictor::new()),
            AdapterCache::new(EvictionPolicy::chameleon()),
            wrs,
        )
    }

    fn drive(engine: &mut Engine, mut pending: Vec<(SimTime, EngineEvent)>) -> SimTime {
        use chameleon_simcore::EventQueue;
        let mut q = EventQueue::new();
        for (t, e) in pending.drain(..) {
            q.push(t, e);
        }
        let mut last = SimTime::ZERO;
        let mut out = Vec::new();
        while let Some((t, ev)) = q.pop() {
            last = t;
            engine.handle(t, ev, &mut out);
            for (at, e) in out.drain(..) {
                q.push(at, e);
            }
        }
        last
    }

    fn request(id: u64, at: f64, input: u32, output: u32, adapter: u32) -> Request {
        Request::new(
            RequestId(id),
            SimTime::from_secs_f64(at),
            input,
            output,
            AdapterId(adapter),
            AdapterRank::new(8), // pool adapter 0 has rank 8
        )
    }

    #[test]
    fn single_request_full_lifecycle() {
        let mut e = mk_engine();
        let last = drive(
            &mut e,
            vec![(
                SimTime::ZERO,
                EngineEvent::Arrival(request(0, 0.0, 256, 8, 0)),
            )],
        );
        assert_eq!(e.completed(), 1);
        assert!(!e.has_work());
        let report = e.into_report();
        let rec = &report.records[0];
        assert!(rec.is_complete());
        let ttft = rec.ttft().unwrap();
        // Cold adapter + prefill: tens of milliseconds.
        assert!((0.030..0.200).contains(&ttft.as_secs_f64()), "TTFT {ttft}");
        // 8 tokens: 7 decode gaps.
        assert_eq!(rec.tbt_gaps.len(), 7);
        assert!(rec.load_on_critical_path > SimDuration::ZERO, "cold load");
        assert!(last > SimTime::ZERO);
        // All memory returned except weights + headroom... the adapter
        // stays cached (Chameleon retains idle adapters).
        assert_eq!(report.cache_stats.misses, 1);
    }

    #[test]
    fn second_request_same_adapter_hits_cache() {
        let mut e = mk_engine();
        drive(
            &mut e,
            vec![
                (
                    SimTime::ZERO,
                    EngineEvent::Arrival(request(0, 0.0, 128, 4, 0)),
                ),
                (
                    SimTime::from_secs_f64(5.0),
                    EngineEvent::Arrival(request(1, 5.0, 128, 4, 0)),
                ),
            ],
        );
        let report = e.into_report();
        assert_eq!(report.cache_stats.hits, 1);
        assert_eq!(report.cache_stats.misses, 1);
        let second = &report.records[1];
        assert_eq!(second.load_on_critical_path, SimDuration::ZERO);
        // Warm TTFT strictly below cold TTFT.
        assert!(second.ttft().unwrap() < report.records[0].ttft().unwrap());
    }

    #[test]
    fn concurrent_requests_batch_and_finish() {
        let mut e = mk_engine();
        let events: Vec<(SimTime, EngineEvent)> = (0..8)
            .map(|i| {
                (
                    SimTime::from_secs_f64(i as f64 * 0.01),
                    EngineEvent::Arrival(request(i, i as f64 * 0.01, 64, 16, (i % 3) as u32)),
                )
            })
            .collect();
        drive(&mut e, events);
        assert_eq!(e.completed(), 8);
        let report = e.into_report();
        assert!(report.records.iter().all(|r| r.is_complete()));
        // Batching: total time far below the sum of isolated times.
        let finish = report
            .records
            .iter()
            .map(|r| r.finished.unwrap())
            .max()
            .unwrap();
        assert!(finish < SimTime::from_secs_f64(8.0 * 16.0 * 0.03));
    }

    #[test]
    fn memory_sampling_and_refresh_events() {
        let mut e = mk_engine();
        drive(
            &mut e,
            vec![
                (
                    SimTime::ZERO,
                    EngineEvent::Arrival(request(0, 0.0, 64, 4, 0)),
                ),
                (SimTime::from_secs_f64(0.01), EngineEvent::MemSample),
                (SimTime::from_secs_f64(0.02), EngineEvent::Refresh),
            ],
        );
        let report = e.into_report();
        assert_eq!(report.mem_series.len(), 1);
        let s = &report.mem_series[0];
        assert_eq!(s.weights, LlmSpec::llama_7b().weight_bytes());
        assert!(s.kv > 0, "request holds KV during sampling");
    }

    #[test]
    fn tracing_buffers_lifecycle_decisions() {
        let mut e = mk_engine();
        e.enable_tracing();
        drive(
            &mut e,
            vec![
                (
                    SimTime::ZERO,
                    EngineEvent::Arrival(request(0, 0.0, 256, 8, 0)),
                ),
                (SimTime::from_secs_f64(0.01), EngineEvent::MemSample),
            ],
        );
        let events = e.take_trace_events();
        let kinds: Vec<&str> = events.iter().map(|(_, ev)| ev.kind()).collect();
        assert!(kinds.contains(&"batch"), "admission emits BatchFormed");
        assert!(
            kinds.contains(&"cache_admit"),
            "cold load journals an admit"
        );
        assert!(kinds.contains(&"first_token"), "prefill emits FirstToken");
        assert!(kinds.contains(&"queue"), "MemSample emits QueueSample");
        // Times are non-decreasing: the buffer is in execution order.
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
        // Drained once, the buffer restarts empty.
        assert!(e.take_trace_events().is_empty());
    }

    #[test]
    fn tracing_disabled_buffers_nothing() {
        let mut e = mk_engine();
        drive(
            &mut e,
            vec![(
                SimTime::ZERO,
                EngineEvent::Arrival(request(0, 0.0, 64, 4, 0)),
            )],
        );
        assert!(e.take_trace_events().is_empty());
    }

    /// The load predictor feeds only the predictive prefetcher, so it
    /// observes arrivals only when that prefetcher is armed.
    #[test]
    fn load_predictor_observes_only_when_predictive_prefetch_is_armed() {
        for armed in [false, true] {
            let mut e = mk_engine();
            e.cfg.predictive_prefetch = armed;
            let arrivals = (0..6)
                .map(|i| {
                    let at = 0.5 * i as f64;
                    let req = request(i, at, 32, 2, (i % 3) as u32);
                    (SimTime::from_secs_f64(at), EngineEvent::Arrival(req))
                })
                .collect();
            drive(&mut e, arrivals);
            assert_eq!(e.completed(), 6);
            let tracked = e.load_predictor.tracked();
            if armed {
                assert_eq!(tracked, 3, "armed prefetcher tracks every adapter");
            } else {
                assert_eq!(tracked, 0, "nothing reads an unarmed predictor");
            }
        }
    }

    #[test]
    fn stale_step_done_is_ignored() {
        let mut e = mk_engine();
        let mut out = Vec::new();
        e.handle(SimTime::ZERO, EngineEvent::StepDone(99), &mut out);
        assert!(out.is_empty());
        assert_eq!(e.completed(), 0);
    }

    /// Installs a running request with `kv_reserved` tokens of allocated
    /// KV, registered with the collector so squash/retire paths stay
    /// valid, and returns its slot. The adapter is marked in-flight so a
    /// squash drops a waiter instead of releasing a never-acquired cache
    /// reference.
    fn install_running(
        e: &mut Engine,
        req: Request,
        kv_reserved: u32,
        admitted_at: SimTime,
    ) -> Slot {
        let slot = e.register(&req);
        let kv =
            e.kv.allocate(&mut e.mem, req.id(), kv_reserved)
                .expect("test fixture KV fits");
        if !e.loading.contains(req.adapter()) {
            e.loading.insert(
                req.adapter(),
                Loading {
                    ready_at: SimTime::from_secs_f64(100.0),
                    bytes: 0,
                    waiters: 0,
                },
            );
        }
        if let Some(l) = e.loading.get_mut(req.adapter()) {
            l.waiters += 1;
        }
        e.push_running(Running {
            slot,
            kv,
            prefill_remaining: 0,
            produced: 1,
            stint: None,
            #[cfg(debug_assertions)]
            eager_produced: 1,
            kv_reserved,
            #[cfg(debug_assertions)]
            eager_reserved: kv_reserved,
            predicted_output: 1,
            charged_tokens: 0,
            queue_index: 0,
            admitted_at,
            req,
        });
        slot
    }

    /// Lands the adapter loads `install_running` left in flight, which
    /// puts the installed requests in the decode set and launches an
    /// iteration, takes every free byte, so that any demand for a fresh
    /// KV block fails unless something is freed, and runs `n` iterations.
    fn starve_and_decode(e: &mut Engine, adapters: &[u32], n: u32) {
        let now = SimTime::from_secs_f64(2.0);
        let mut q = chameleon_simcore::EventQueue::new();
        for &a in adapters {
            q.push(now, EngineEvent::LoadDone(AdapterId(a)));
        }
        let mut out = Vec::new();
        for _ in adapters {
            let (t, ev) = q.pop().expect("queued above");
            e.handle(t, ev, &mut out);
        }
        let free = e.mem.free();
        e.mem
            .reserve(Region::Activations, free)
            .expect("free bytes just measured");
        assert!(e.mem.free() < e.kv.block_bytes());
        let mut steps = 0;
        while steps < n {
            for (at, ev) in out.drain(..) {
                q.push(at, ev);
            }
            let (t, ev) = q.pop().expect("the batch decodes");
            steps += u32::from(matches!(ev, EngineEvent::StepDone(_)));
            e.handle(t, ev, &mut out);
        }
    }

    /// Regression for the spurious-squash bug: a decode token that fits in
    /// the sequence's already-allocated block reserves zero bytes, so KV
    /// growth must succeed — and never preempt a neighbour — even with no
    /// free memory and nothing evictable. Such tokens grow the derived
    /// reservation without an allocator call.
    #[test]
    fn within_block_kv_growth_never_squashes() {
        let mut e = mk_engine();
        // 17 reserved tokens occupy 2 × 16-token blocks: room for 32.
        let r1 = install_running(&mut e, request(1, 0.0, 16, 40, 0), 17, SimTime::ZERO);
        // A younger neighbour — the victim the buggy path would squash —
        // with room for 56 more tokens.
        install_running(
            &mut e,
            request(2, 0.0, 8, 100, 1),
            64,
            SimTime::from_secs_f64(1.0),
        );
        // Tokens 18 to 32 of request 1 (16 input + produced 2 to 16) fit
        // in block 2.
        starve_and_decode(&mut e, &[0, 1], 15);
        assert_eq!(e.squashes, 0, "within-block growth preempted");
        assert_eq!(e.running.len(), 2, "victim stayed in the batch");
        assert_eq!(reserved(&e, r1), 32);
        assert_eq!(
            e.work().kv_grows,
            0,
            "a within-block token called the allocator"
        );
        let seq = e.running[e.batch_index(r1).expect("r1 runs")].kv;
        assert_eq!(
            e.kv.tokens_of(seq),
            Some(17),
            "the sequence lags in its block"
        );
        assert_eq!(e.kv.total_blocks(), 2 + 4);
        assert_eq!(e.kv.total_bytes(), e.mem.used(Region::KvCache));
    }

    /// Crossing a block boundary with no memory and nothing evictable
    /// still preempts (the pre-existing OOM path is preserved).
    #[test]
    fn block_boundary_growth_without_memory_still_squashes() {
        let mut e = mk_engine();
        // 32 reserved tokens fill 2 blocks, so token 33 needs block 3.
        let r1 = install_running(&mut e, request(1, 0.0, 30, 8, 0), 32, SimTime::ZERO);
        install_running(
            &mut e,
            request(2, 0.0, 8, 8, 1),
            16,
            SimTime::from_secs_f64(1.0),
        );
        // Token 33 of request 1 (30 input + produced 3) needs block 3.
        starve_and_decode(&mut e, &[0, 1], 2);
        assert_eq!(e.squashes, 1, "boundary growth under OOM must preempt");
        assert_eq!(reserved(&e, r1), 33);
        // The failed grow, then the retry after the preemption.
        assert_eq!(e.work().kv_grows, 2);
        assert_eq!(e.kv.total_bytes(), e.mem.used(Region::KvCache));
    }

    /// KV tokens reserved for running request `slot`.
    fn reserved(e: &Engine, slot: Slot) -> u32 {
        e.running[e.batch_index(slot).expect("running")].kv_reserved(e.decode_done())
    }

    /// A decode-time block crossing that finds no free memory, nothing to
    /// evict and no other request to preempt fails and leaves the
    /// reservation a token behind the context; the next iteration retries
    /// it, and once a retry lands the reservation keeps its lag. The
    /// request's timeline does not depend on its reservation, so it
    /// retires with the record an unconstrained run gives it.
    #[test]
    fn failed_block_crossing_lags_the_reservation_and_retries() {
        // Starved while the request produces its tokens 21 and 22.
        let run = |starved: &[u32]| {
            let mut e = mk_engine();
            e.predictor = Box::new(HalfPredictor);
            // 60 prompt tokens plus 20 predicted: 80 reserved, 5 full blocks.
            let mut q = chameleon_simcore::EventQueue::new();
            q.push(
                SimTime::ZERO,
                EngineEvent::Arrival(request(0, 0.0, 60, 40, 0)),
            );
            let (mut out, mut held, mut lag) = (Vec::new(), 0, 0);
            while let Some((t, ev)) = q.pop() {
                let step = matches!(ev, EngineEvent::StepDone(_));
                e.handle(t, ev, &mut out);
                for (at, ev) in out.drain(..) {
                    q.push(at, ev);
                }
                let Some(r) = e.running.first().filter(|_| step) else {
                    continue;
                };
                let (slot, produced) = (r.slot, r.produced(e.decode_done()));
                let context = 60 + produced;
                if starved.contains(&produced) {
                    // The crossing at context 81 found no block: the
                    // reservation stays at 80.
                    lag += 1;
                    assert_eq!(reserved(&e, slot), 80, "token {produced}");
                } else {
                    assert_eq!(reserved(&e, slot), (context - lag).max(80));
                }
                let blocks = e.kv.blocks_for(reserved(&e, slot));
                assert_eq!(e.kv.total_blocks(), u64::from(blocks), "token {produced}");
                let (kv, pool) = e.kv_accounting();
                assert_eq!(kv, pool);
                // Take every free byte before the crossing's iteration and
                // give it back after the last starved one.
                if starved.first() == Some(&(produced + 1)) {
                    held = e.mem.free();
                    e.mem.reserve(Region::Activations, held).expect("free");
                } else if starved.last() == Some(&produced) {
                    e.mem.release(Region::Activations, held);
                }
            }
            assert_eq!(e.completed(), 1);
            assert_eq!(e.squashes, 0, "nothing to preempt");
            e.into_report().records.remove(0)
        };
        let starved = run(&[21, 22]);
        assert_eq!(starved, run(&[]), "the lag moved the timeline");
        assert!(starved.is_complete());
    }

    /// The probe's predicted release schedule reports block-rounded bytes —
    /// exactly what `KvAllocator::free` will release at retirement.
    #[test]
    fn release_schedule_is_block_rounded() {
        let mut e = mk_engine();
        // 17 tokens round up to 2 blocks.
        install_running(&mut e, request(1, 0.0, 16, 8, 0), 17, SimTime::ZERO);
        let adapter_bytes = e.pool.get(AdapterId(0)).unwrap().bytes();
        // The schedule is built on the probe's first wait estimate.
        e.with_probe(SimTime::from_secs_f64(1.0), |_, probe| {
            probe.estimate_mem_wait(1);
        });
        let sched = e.release.entries();
        assert_eq!(sched.len(), 1);
        assert_eq!(
            sched[0].1,
            e.kv.bytes_for(17) + adapter_bytes,
            "schedule must match the block-rounded bytes retirement frees"
        );
        assert!(sched[0].1 > 17 * e.kv.bytes_per_token() + adapter_bytes);
    }

    /// Predicts half the true output, so admission reservations undershoot
    /// and decode growth reaches the KV plane's demotion path.
    struct HalfPredictor;

    impl OutputLenPredictor for HalfPredictor {
        fn predict(&mut self, request: &Request) -> u32 {
            (request.output_tokens() / 2).max(1)
        }
        fn name(&self) -> &'static str {
            "half"
        }
    }

    /// `n` requests at `rps` over `pool`, with decode-heavy outputs.
    fn decode_heavy_trace(pool: &AdapterPool, n: usize, rps: f64) -> chameleon_workload::Trace {
        use chameleon_workload::generator::TokenLengthModel;
        use chameleon_workload::{ArrivalModel, LengthModel, TraceGenerator};
        let gen = TraceGenerator::new(
            LengthModel::Custom {
                input: TokenLengthModel {
                    median: 48.0,
                    sigma: 0.6,
                    min: 8,
                    max: 192,
                },
                output: TokenLengthModel {
                    median: 96.0,
                    sigma: 0.6,
                    min: 16,
                    max: 256,
                },
            },
            ArrivalModel::poisson(rps),
        );
        gen.generate_n(pool, n, &mut chameleon_simcore::SimRng::seed(3))
    }

    /// At every probe of a hybrid-KV run, the live residency answer equals
    /// the set the engine used to build per dispatch: idle cached adapters,
    /// adapters of running requests, and adapters in flight. The run must
    /// reach the case where the two would part ways under a plain
    /// "resident in the cache or loading" rule: an adapter whose only
    /// reference is a restoring request.
    #[test]
    fn probe_residency_matches_the_reference_set() {
        let llm = LlmSpec::llama_7b();
        let pool = AdapterPool::generate(&llm, &PoolConfig::paper_default(100));
        let trace = decode_heavy_trace(&pool, 200, 20.0);
        let mut cfg = EngineConfig::new(llm, GpuSpec::a40().with_memory_bytes(15 << 30));
        cfg.kv = Some(KvSpec::new().with_pressure_threshold(0.5));
        let mut e = Engine::new(
            cfg,
            pool,
            Box::new(FifoScheduler::new()),
            Box::new(HalfPredictor),
            AdapterCache::new(EvictionPolicy::chameleon()),
            WrsConfig::paper(2048.0, 1024.0, (256 << 20) as f64),
        );
        e.residency_audit = Some(ResidencyAudit::default());
        let (mut e, _, _) = crate::cluster::run_alone(e, &trace);
        assert_eq!(e.completed() as usize, trace.len());
        assert!(
            e.kv_stats.restores > 0,
            "no request was demoted and restored"
        );
        let audit = e.residency_audit.take().expect("audit armed above");
        assert!(audit.probes > 0);
        assert!(
            audit.restoring_only > 0,
            "no probe saw an adapter held only by a restoring request \
             ({} probes): the comparison was vacuous",
            audit.probes
        );
    }

    /// The work counters are exact: on a light-load Chameleon run every
    /// applied token lands in a record (no squash discards any), no head
    /// ever blocks, so no release schedule is built, and the KV allocator
    /// grows a decoding request once per block its under-predicted
    /// reservation outgrows, not once per token past it.
    #[test]
    fn work_counters_count_tokens_and_lazy_schedules() {
        use chameleon_sched::{ChameleonConfig, ChameleonScheduler};
        let llm = LlmSpec::llama_7b();
        let pool = AdapterPool::generate(&llm, &PoolConfig::paper_default(20));
        let trace = decode_heavy_trace(&pool, 60, 2.0);
        let wrs = WrsConfig::paper(2048.0, 1024.0, (256 << 20) as f64);
        let sched =
            ChameleonScheduler::new(ChameleonConfig::paper(SimDuration::from_secs(10)), wrs);
        let e = Engine::new(
            EngineConfig::new(llm, GpuSpec::a40()),
            pool,
            Box::new(sched),
            Box::new(HalfPredictor),
            AdapterCache::new(EvictionPolicy::chameleon()),
            wrs,
        );
        let (e, _, _) = crate::cluster::run_alone(e, &trace);
        let work = e.work();
        let blocks = |tokens: u32| e.kv.blocks_for(tokens);
        let (mut crossings, mut past) = (0, 0);
        for r in trace.requests() {
            let reserved = r.input_tokens() + (r.output_tokens() / 2).max(1);
            let context = r.input_tokens() + r.output_tokens();
            crossings += u64::from(blocks(context.max(reserved)) - blocks(reserved));
            past += u64::from(context.saturating_sub(reserved));
        }
        let report = e.into_report();
        assert_eq!(report.records.len(), trace.len());
        assert_eq!(report.squashes, 0);
        let recorded: u64 = report
            .records
            .iter()
            .filter(|r| r.is_complete() && r.squashes == 0)
            .map(|r| r.tbt_gaps.len() as u64 + 1)
            .sum();
        assert_eq!(work.tokens_applied, recorded);
        assert!(work.probes > 0);
        assert_eq!(work.release_schedules, 0, "a schedule was built unasked");
        assert_eq!(work.kv_grows, crossings);
        assert!(
            crossings > 0 && 8 * crossings < past,
            "{crossings} for {past} tokens"
        );
    }

    /// A FIFO scheduler that counts `queued_adapters_into` calls.
    struct CountingFifo {
        inner: FifoScheduler,
        queued_adapter_calls: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl Scheduler for CountingFifo {
        fn enqueue(&mut self, req: QueuedRequest) {
            self.inner.enqueue(req);
        }
        fn requeue_front(&mut self, req: QueuedRequest) {
            self.inner.requeue_front(req);
        }
        fn form_batch_into(&mut self, probe: &dyn ResourceProbe, out: &mut Vec<AdmissionOutcome>) {
            self.inner.form_batch_into(probe, out);
        }
        fn on_finish(&mut self, queue_index: usize, charged_tokens: u64) {
            self.inner.on_finish(queue_index, charged_tokens);
        }
        fn queued_adapters_into(&mut self, out: &mut Vec<AdapterId>) {
            self.queued_adapter_calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.queued_adapters_into(out);
        }
        fn drain_queued_into(&mut self, out: &mut Vec<QueuedRequest>) {
            self.inner.drain_queued_into(out);
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn name(&self) -> &'static str {
            "counting-fifo"
        }
    }

    /// With less free memory than the pool's smallest adapter plus the
    /// warm-load headroom, prefetch neither walks the queue nor issues a
    /// load; at exactly that much it loads the queued smallest adapter.
    #[test]
    fn prefetch_below_the_floor_walks_no_queue() {
        use std::sync::atomic::Ordering;
        let calls = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut e = mk_engine();
        e.sched = Box::new(CountingFifo {
            inner: FifoScheduler::new(),
            queued_adapter_calls: calls.clone(),
        });
        let smallest = e
            .pool
            .iter()
            .min_by_key(|a| (a.bytes(), a.id()))
            .expect("the pool has adapters")
            .clone();
        let headroom = WARM_LOAD_HEADROOM_BLOCKS * e.kv.block_bytes();
        assert_eq!(e.prefetch_floor, smallest.bytes() + headroom);
        // Queue a request for it without dispatching.
        let req = request(0, 0.0, 64, 4, smallest.id().0);
        let slot = e.register(&req);
        let tokens = smallest.bytes() / e.kv_bytes_per_token;
        let queued = QueuedRequest::new(req, 4, smallest.bytes(), tokens, 0.1, SimTime::ZERO);
        e.sched.enqueue(queued.with_slot(slot));
        let spare = e.mem.free() - (e.prefetch_floor - 1);
        e.mem
            .reserve(Region::Activations, spare)
            .expect("free bytes just measured");
        let mut out = Vec::new();
        e.prefetch(SimTime::ZERO, &mut out);
        assert!(out.is_empty() && e.loading.is_empty(), "a load was issued");
        assert_eq!(calls.load(Ordering::Relaxed), 0, "the queue was walked");
        e.mem.release(Region::Activations, 1);
        e.prefetch(SimTime::ZERO, &mut out);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert!(e.loading.contains(smallest.id()), "no load at the floor");
        assert_eq!(out.len(), 1);
    }

    /// The charged total follows every move in and out of the running
    /// batch on a hybrid-KV run, through demotions and landed restores,
    /// and the evacuation a crash or a partition runs leaves no charge
    /// behind, parked requests' included.
    #[test]
    fn charged_total_tracks_demotion_restore_and_crash() {
        let llm = LlmSpec::llama_7b();
        let pool = AdapterPool::generate(&llm, &PoolConfig::paper_default(100));
        let trace = decode_heavy_trace(&pool, 200, 20.0);
        let mut cfg = EngineConfig::new(llm, GpuSpec::a40().with_memory_bytes(15 << 30));
        cfg.kv = Some(KvSpec::new().with_pressure_threshold(0.5));
        let mut e = Engine::new(
            cfg,
            pool,
            Box::new(FifoScheduler::new()),
            Box::new(HalfPredictor),
            AdapterCache::new(EvictionPolicy::chameleon()),
            WrsConfig::paper(2048.0, 1024.0, (256 << 20) as f64),
        );
        let mut q = chameleon_simcore::EventQueue::new();
        for r in trace.requests() {
            q.push(r.arrival(), EngineEvent::Arrival(*r));
        }
        let mut out = Vec::new();
        while let Some((t, ev)) = q.pop() {
            e.handle(t, ev, &mut out);
            for (at, ev) in out.drain(..) {
                q.push(at, ev);
            }
            let running: u64 = e.running.iter().map(|r| r.charged_tokens).sum();
            assert_eq!(e.charged_total, running, "at {t}");
            // Each restore started is in flight or has landed.
            let landed = e.kv_stats.restores - e.restoring.len() as u64;
            if landed > 0 && (!e.demoted.is_empty() || !e.restoring.is_empty()) {
                assert!(!e.evacuate_unfinished(t).is_empty());
                assert_eq!(e.charged_total, 0);
                assert_eq!(e.outstanding_tokens(), 0);
                return;
            }
        }
        panic!("no restore landed while another request was parked");
    }

    /// The queue is priced at the running requests' mean charge: a parked
    /// request adds its own charge to the backlog but does not raise the
    /// price of each queued one.
    #[test]
    fn outstanding_tokens_prices_the_queue_at_the_running_mean() {
        let mut e = mk_engine();
        e.kv_spec = Some(KvSpec::new().with_pressure_threshold(0.0));
        for (id, adapter) in [(1, 0), (2, 1)] {
            let req = request(id, 0.0, 16, 8, adapter);
            let slot = install_running(&mut e, req, 16, SimTime::ZERO);
            let mut r = e.take_running(e.batch_index(slot).expect("installed"));
            r.charged_tokens = 100;
            e.push_running(r);
        }
        assert!(e.try_demote(1, SimTime::from_secs_f64(1.0)));
        for id in [3, 4] {
            let req = request(id, 0.0, 64, 4, 2);
            let slot = e.register(&req);
            let queued = QueuedRequest::new(req, 4, 0, 0, 0.1, SimTime::ZERO);
            e.sched.enqueue(queued.with_slot(slot));
        }
        assert_eq!((e.running.len(), e.demoted.len(), e.sched.len()), (1, 1, 2));
        // 100 running + 100 demoted + 2 queued at the running mean of 100.
        assert_eq!(e.outstanding_tokens(), 400);
    }

    /// A restore can land while its adapter's reload is still in flight:
    /// a wake-up handled before the `LoadDone` of the same instant puts
    /// the request back in the batch with its adapter loading. It does not
    /// decode until the load lands, then decodes its remaining tokens,
    /// each applied once, with one gap per token after the first.
    #[test]
    fn restore_landing_before_its_adapter_load_waits_for_the_load() {
        let mut e = mk_engine();
        e.kv_spec = Some(KvSpec::new().with_pressure_threshold(0.0));
        let output = 12;
        let mut q = chameleon_simcore::EventQueue::new();
        q.push(
            SimTime::ZERO,
            EngineEvent::Arrival(request(0, 0.0, 64, output, 0)),
        );
        let mut out = Vec::new();
        // The cold load, the prefill and four decode iterations.
        let mut steps = 0;
        while steps < 5 {
            let (t, ev) = q.pop().expect("the request is still running");
            steps += u32::from(matches!(ev, EngineEvent::StepDone(_)));
            e.handle(t, ev, &mut out);
            for (at, ev) in out.drain(..) {
                q.push(at, ev);
            }
        }
        // Demote it while the next iteration runs and evict its idle
        // adapter, so the restore needs a cold reload.
        let (t, ev) = q.pop().expect("an iteration is in flight");
        assert!(matches!(ev, EngineEvent::StepDone(_)));
        assert!(e.try_demote(0, t));
        e.cache.make_room(&mut e.mem, u64::MAX, t, &|_| false);
        assert!(!e.cache.is_resident(AdapterId(0)));
        e.handle(t, ev, &mut out);
        assert_eq!(e.restoring.len(), 1, "the restore started");
        assert!(e.loading.contains(AdapterId(0)), "the adapter reloads");
        // Wake-ups first, so the restore lands before the LoadDone.
        out.sort_by_key(|(_, ev)| !matches!(ev, EngineEvent::Poke));
        let (poke_at, _) = out[0];
        assert!(out
            .iter()
            .any(|&(at, ref ev)| at == poke_at && matches!(ev, EngineEvent::LoadDone(_))));
        for (at, ev) in out.drain(..) {
            q.push(at, ev);
        }
        let (t, ev) = q.pop().expect("the restore's wake-up");
        assert!(matches!(ev, EngineEvent::Poke));
        e.handle(t, ev, &mut out);
        assert_eq!(e.running.len(), 1, "the restore landed");
        assert!(e.loading.contains(AdapterId(0)), "before the adapter");
        assert!(e.current_step.is_none(), "nothing can run before the load");
        for (at, ev) in out.drain(..) {
            q.push(at, ev);
        }
        while let Some((t, ev)) = q.pop() {
            e.handle(t, ev, &mut out);
            for (at, ev) in out.drain(..) {
                q.push(at, ev);
            }
        }
        assert_eq!(e.completed(), 1);
        assert_eq!(e.work().tokens_applied, u64::from(output));
        let report = e.into_report();
        let rec = &report.records[0];
        assert!(rec.is_complete());
        assert_eq!(rec.tbt_gaps.len(), output as usize - 1);
        assert_eq!(report.kv.restores, 1);
    }

    /// §4.3.3 squash rule, dissolve branch: when enough memory has freed
    /// for the blocked head even without squashing, the pair dissolves.
    #[test]
    fn bypass_pair_dissolves_when_memory_freed() {
        let mut e = mk_engine();
        let r2 = install_running(&mut e, request(2, 0.0, 8, 8, 0), 16, SimTime::ZERO);
        // Plenty of free memory: tiny r1 need dissolves without a squash.
        e.bypass_pairs.push(BypassPair { r2, r1_tokens: 8 });
        e.check_squash(SimTime::from_secs_f64(1.0));
        assert_eq!(e.squashes, 0);
        assert!(e.bypass_pairs.is_empty(), "satisfied pair dissolves");
        assert_eq!(e.running.len(), 1, "bypasser keeps running");
    }

    /// §4.3.3 squash rule, squash branch: when the blocked head's need —
    /// input *plus predicted output*, as admission reserves — cannot be
    /// met from free memory but squashing the bypasser covers it, the
    /// bypasser is squashed and requeued.
    #[test]
    fn bypass_pair_squashes_when_freeing_bypasser_suffices() {
        let mut e = mk_engine();
        let r2 = install_running(&mut e, request(2, 0.0, 8, 8, 0), 32, SimTime::ZERO);
        let free = e.mem.free();
        e.mem
            .reserve(Region::Activations, free)
            .expect("free bytes just measured");
        let free_tokens = e.free_memory_bytes() / e.kv_bytes_per_token;
        let r2_frees = 32 + e.pool.get(AdapterId(0)).unwrap().bytes() / e.kv_bytes_per_token;
        // Need sits strictly between "free now" and "free after squash".
        let r1_tokens = free_tokens + r2_frees;
        e.bypass_pairs.push(BypassPair { r2, r1_tokens });
        e.check_squash(SimTime::from_secs_f64(1.0));
        assert_eq!(e.squashes, 1, "freeing the bypasser satisfies the head");
        assert!(e.running.is_empty());
        assert_eq!(e.sched.len(), 1, "squashed bypasser requeued");
        assert_eq!(e.kv.total_bytes(), e.mem.used(Region::KvCache));
    }
}
