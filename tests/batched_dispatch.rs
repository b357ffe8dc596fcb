//! Determinism suite for amortised dispatch barriers.
//!
//! Batched dispatch is a perf optimisation, so its contract is equality:
//!
//! * **State-independent routing** (pure weighted rendezvous, spill off;
//!   round-robin) reads no load state, so routing a whole arrival batch
//!   from one cached snapshot generation must be **byte-identical** — at
//!   the [`RunReport::canonical_text`] level — to serial per-arrival
//!   dispatch, whether the batched run steps its engines serially or on
//!   the worker pool. Only the barrier count may change.
//! * **Bounded-staleness routing** (load-aware policies with a declared
//!   `(max_batch, max_age)` budget) intentionally routes from snapshots
//!   up to one batch stale (coordinator echoes included), so it is *not*
//!   compared against per-arrival; instead it must be bit-identical
//!   between serial and parallel execution for every worker count,
//!   across seeds — including with the fault plane armed (crashes,
//!   stragglers, flaky PCIe, shedding, recovery re-dispatch).
//! * **Retry generation sharing**: recovery re-dispatches due at the
//!   same instant as an arrival batch route from that batch's snapshot
//!   generation instead of re-snapshotting, while the generation has
//!   room under the batch budget, and from fresh generations once it is
//!   spent (asserted via the dispatch counters and the traced
//!   `dispatch_batch`/`retry_batch` events).
//! * **Budget one is per-arrival dispatch**: per-arrival dispatch is the
//!   batch whose budget is `(1, 0)`, so an explicit `DispatchSpec` of
//!   that budget reproduces the default run — its canonical text, and its
//!   decision stream once the batching plane's own events are dropped.

mod common;

use chameleon_repro::cache::{AdapterCache, EvictionPolicy};
use chameleon_repro::core::{
    preset, sim::Simulation, workloads, DispatchSpec, FaultSpec, PredictiveSpec, RouterPolicy,
    SystemConfig, TraceSpec,
};
use chameleon_repro::engine::{Cluster, Engine, EngineConfig};
use chameleon_repro::metrics::RoutingStats;
use chameleon_repro::models::{AdapterPool, GpuSpec, LlmSpec, PoolConfig};
use chameleon_repro::predictor::OraclePredictor;
use chameleon_repro::sched::{FifoScheduler, WrsConfig};
use chameleon_repro::simcore::{SimDuration, SimTime};
use chameleon_repro::workload::{Request, Trace};
use common::{chaos_fleet, kitchen_sink_faults};

const SEEDS: [u64; 2] = [3, 11];
/// One worker (trivially serial), two, and an oversubscribed pool (more
/// workers than engines or host cores).
const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

fn canonical(cfg: SystemConfig, seed: u64, rps: f64, secs: f64) -> String {
    let mut sim = Simulation::new(cfg, seed);
    let trace = workloads::splitwise(rps, secs, seed, sim.pool());
    let n = trace.len();
    let report = sim.run(&trace);
    report.assert_request_conservation(n);
    report.canonical_text()
}

/// Tentpole oracle: with state-independent routing, batched dispatch is
/// byte-identical to per-arrival dispatch — same placements, timings,
/// affinity hits, event totals — while coalescing arrivals into
/// multi-request batches with one snapshot refresh each (and the
/// rendezvous case refreshes purely pro forma: the router never reads
/// the buffer).
#[test]
fn state_independent_batching_is_byte_identical_to_per_arrival() {
    let cases = [
        (RouterPolicy::AdapterAffinityNoSpill, "rendezvous"),
        (RouterPolicy::RoundRobin, "round-robin"),
    ];
    for (router, name) in cases {
        for seed in SEEDS {
            let base = preset::chameleon_cluster_rendezvous(4)
                .with_router(router)
                .with_label("dispatch-oracle");
            let per_arrival = canonical(base.clone(), seed, 40.0, 10.0);
            let batched = canonical(
                base.clone().with_dispatch(DispatchSpec::new()),
                seed,
                40.0,
                10.0,
            );
            assert_eq!(
                per_arrival, batched,
                "{name}, seed {seed}: batched dispatch diverged from per-arrival"
            );
            // Unbounded batches stepped on the worker pool still match
            // serial per-arrival dispatch.
            for workers in WORKER_COUNTS {
                let pooled = canonical(
                    base.clone()
                        .with_dispatch(DispatchSpec::new())
                        .with_parallel_cluster(workers),
                    seed,
                    40.0,
                    10.0,
                );
                assert_eq!(
                    per_arrival, pooled,
                    "{name}, seed {seed}, {workers} workers: pooled batched dispatch \
                     diverged from serial per-arrival"
                );
            }

            // The equality is meaningful only if batching actually
            // happened: re-run and inspect the dispatch counters.
            let mut sim = Simulation::new(base.with_dispatch(DispatchSpec::new()), seed);
            let trace = workloads::splitwise(40.0, 10.0, seed, sim.pool());
            let report = sim.run(&trace);
            let d = &report.routing.dispatch;
            assert!(d.enabled, "{name}: dispatch stats not armed");
            assert!(
                d.mean_batch() > 1.5,
                "{name}, seed {seed}: arrivals barely coalesced (mean batch {})",
                d.mean_batch()
            );
            assert_eq!(d.snapshot_refreshes, d.batches);
        }
    }
}

/// On sparse traces the engines idle between arrivals. An unbounded
/// batch routes the whole trace at the first barrier, so no arrival is
/// left undispatched, yet per-arrival dispatch keeps every engine's
/// periodic ticks alive until the last arrival: the batched run must
/// keep them alive as long, and match byte for byte.
#[test]
fn sparse_unbounded_batches_keep_idle_ticks_as_per_arrival() {
    for rps in [0.3, 1.0] {
        for seed in SEEDS {
            let base =
                preset::chameleon_cluster_rendezvous(4).with_router(RouterPolicy::RoundRobin);
            let per_arrival = canonical(base.clone(), seed, rps, 120.0);
            let batched = canonical(base.with_dispatch(DispatchSpec::new()), seed, rps, 120.0);
            assert_eq!(
                per_arrival, batched,
                "{rps} rps, seed {seed}: batched dispatch diverged from per-arrival"
            );
        }
    }
}

/// Bounded-staleness batching (load-aware affinity with spill) must be
/// bit-identical between serial and pooled execution for every worker
/// count, across seeds.
#[test]
fn bounded_staleness_batching_is_bit_identical_across_worker_counts() {
    for seed in SEEDS {
        let serial = canonical(
            preset::chameleon_cluster_bounded_staleness(4),
            seed,
            24.0,
            10.0,
        );
        for workers in WORKER_COUNTS {
            let parallel = canonical(
                preset::chameleon_cluster_bounded_staleness(4).with_parallel_cluster(workers),
                seed,
                24.0,
                10.0,
            );
            assert_eq!(
                serial, parallel,
                "seed {seed}, {workers} workers: bounded-staleness batching diverged"
            );
        }
    }
}

/// Fault-armed bounded-staleness batching: crashes retire engines
/// mid-batch-stream, recovery re-dispatches route from batched
/// snapshots, shedding prices against generation-frozen estimates — and
/// the pooled runs still reproduce the serial run byte-for-byte.
#[test]
fn fault_armed_bounded_staleness_is_bit_identical() {
    for seed in SEEDS {
        let cfg = preset::chameleon_cluster_bounded_staleness(4).with_fault(kitchen_sink_faults());
        let serial = canonical(cfg.clone(), seed, 24.0, 12.0);
        assert!(
            serial.contains("fault engines_failed=1"),
            "seed {seed}: the crash never landed"
        );
        for workers in WORKER_COUNTS {
            let parallel = canonical(cfg.clone().with_parallel_cluster(workers), seed, 24.0, 12.0);
            assert_eq!(
                serial, parallel,
                "seed {seed}, {workers} workers: fault-armed batched run diverged"
            );
        }
    }
}

fn engine(pool: &AdapterPool) -> Engine {
    Engine::new(
        EngineConfig::new(LlmSpec::llama_7b(), GpuSpec::a40()),
        pool.clone(),
        Box::new(FifoScheduler::new()),
        Box::new(OraclePredictor::new()),
        AdapterCache::new(EvictionPolicy::chameleon()),
        WrsConfig::paper(2048.0, 1024.0, (256 << 20) as f64),
    )
}

/// Runs a hand-built crash scenario under `spec`, traced: two JSQ
/// engines, engine 1 crashing during a dense opening burst, and one
/// fresh arrival landing exactly at its victims' first-attempt retry
/// instant (crash + detect timeout + first backoff), so an arrival batch
/// and the fault barrier's retries share that instant. Returns the
/// routing stats and the decision stream.
fn crash_with_arrival_at_retry_instant(spec: DispatchSpec) -> (RoutingStats, String) {
    let llm = LlmSpec::llama_7b();
    let pool = AdapterPool::generate(&llm, &PoolConfig::paper_default(10));
    let adapters: Vec<_> = pool.iter().map(|s| (s.id(), s.rank())).collect();

    let detect = SimDuration::from_millis(100);
    let backoff = SimDuration::from_millis(50);
    let crash_at = SimTime::from_secs_f64(0.050);
    // First-attempt retries come due exactly here.
    let retry_due = crash_at + detect + backoff;

    let mut reqs = Vec::new();
    // A dense opening burst so the crash victim holds unfinished work.
    for i in 0..30u64 {
        let (adapter, rank) = adapters[i as usize % adapters.len()];
        reqs.push(Request::new(
            chameleon_repro::workload::RequestId(i),
            SimTime::from_nanos(i * 1_500_000),
            192,
            16,
            adapter,
            rank,
        ));
    }
    // The coinciding fresh arrival: routed in a batch at `retry_due`,
    // immediately before the fault barrier runs the due retries.
    let (adapter, rank) = adapters[0];
    reqs.push(Request::new(
        chameleon_repro::workload::RequestId(30),
        retry_due,
        192,
        16,
        adapter,
        rank,
    ));
    let trace = Trace::new(reqs);

    let mut cluster = Cluster::new(2, |_| engine(&pool));
    cluster.set_fault(
        FaultSpec::new()
            .with_crash(1, crash_at)
            .with_detect_timeout(detect)
            .with_retry_policy(backoff, SimDuration::from_secs(1), 3),
        None,
    );
    cluster.set_dispatch(spec);
    cluster.enable_tracing();
    cluster.run(&trace);
    let stats = cluster.routing_stats().clone();
    assert!(stats.fault.retries > 0, "the crash recovered no requests");
    let (_, log, _) = cluster.into_report_with_trace();
    (stats, log.expect("tracing on").to_jsonl())
}

/// The generation of the last arrival batch in a decision stream.
fn last_batch_generation(jsonl: &str) -> u64 {
    jsonl
        .lines()
        .rfind(|l| l.contains("\"ev\":\"dispatch_batch\""))
        .and_then(|l| field(l, "generation"))
        .expect("no dispatch_batch event")
}

/// Regression: a recovery re-dispatch due at the same instant as a
/// fresh arrival shares that arrival batch's snapshot generation — the
/// fault barrier must not re-snapshot between them.
#[test]
fn retries_share_the_arrival_batch_generation() {
    let (stats, jsonl) = crash_with_arrival_at_retry_instant(DispatchSpec::new());
    assert!(
        stats.dispatch.retry_generation_reuses > 0,
        "retries at an arrival instant re-snapshotted instead of sharing \
         the batch generation (retries={}, reuses={})",
        stats.fault.retries,
        stats.dispatch.retry_generation_reuses
    );

    // The traced events agree: the retry batch at `retry_due` is marked
    // reused and carries the same generation as the dispatch batch at
    // that instant.
    let batch_gen = last_batch_generation(&jsonl);
    let retry_line = jsonl
        .lines()
        .find(|l| l.contains("\"ev\":\"retry_batch\""))
        .expect("no retry_batch event");
    assert!(
        retry_line.contains("\"reused\":true"),
        "retry batch did not reuse: {retry_line}"
    );
    assert_eq!(
        field(retry_line, "generation"),
        Some(batch_gen),
        "retry batch routed from a different generation: {retry_line}"
    );
}

/// A generation serves at most the budget's batch size at its own
/// instant: under a budget of two, the one-member arrival batch at the
/// retry instant lends its spare routing to the first retry, and the
/// remaining retries route two per fresh generation.
#[test]
fn retries_refresh_the_generation_once_its_budget_is_spent() {
    let budget_two = DispatchSpec::with_budget(2, SimDuration::from_secs(1));
    let (stats, jsonl) = crash_with_arrival_at_retry_instant(budget_two);
    let retries = stats.fault.retries;
    assert!(
        retries >= 3,
        "{retries} retries cannot overflow one generation"
    );
    assert_eq!(stats.dispatch.retry_generation_reuses, 1);

    let batch_gen = last_batch_generation(&jsonl);
    let batches: Vec<(u64, u64, bool)> = jsonl
        .lines()
        .filter(|l| l.contains("\"ev\":\"retry_batch\""))
        .map(|l| {
            let generation = field(l, "generation").expect("generation field");
            let size = field(l, "size").expect("size field");
            (generation, size, l.contains("\"reused\":true"))
        })
        .collect();
    assert_eq!(
        batches.first(),
        Some(&(batch_gen, 1, true)),
        "the first retry must take the arrival batch's spare routing"
    );
    assert_eq!(batches.len() as u64, 1 + (retries - 1).div_ceil(2));
    for (i, &(generation, size, reused)) in batches.iter().enumerate().skip(1) {
        assert_eq!(
            (generation, reused),
            (batch_gen + i as u64, false),
            "retry batch {i} must open a fresh generation"
        );
        assert!(size <= 2, "retry batch {i} exceeded the budget: {size}");
    }
}

/// Extracts the numeric `"name":N` field from a trace JSONL line.
fn field(line: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let idx = line.find(&key)?;
    let rest = &line[idx + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

/// A spec-tightened budget caps coalescing end to end: `max_batch = 4`
/// against JSQ's declared 32 keeps every batch at four or fewer, with
/// results still bit-identical across execution modes.
#[test]
fn spec_tightened_budget_holds_end_to_end() {
    let tight = DispatchSpec::with_budget(4, SimDuration::from_millis(50));
    let cfg = || {
        preset::chameleon_cluster(3)
            .with_dispatch(tight)
            .with_label("tight-budget")
    };
    let seed = SEEDS[0];
    let serial = canonical(cfg(), seed, 40.0, 8.0);
    for workers in [2, 7] {
        let parallel = canonical(cfg().with_parallel_cluster(workers), seed, 40.0, 8.0);
        assert_eq!(serial, parallel, "{workers} workers diverged");
    }
    let mut sim = Simulation::new(cfg(), seed);
    let trace = workloads::splitwise(40.0, 8.0, seed, sim.pool());
    let report = sim.run(&trace);
    let d = &report.routing.dispatch;
    assert!(
        d.max_batch <= 4,
        "budget exceeded: max batch {}",
        d.max_batch
    );
    assert!(
        d.batches >= trace.len() as u64 / 4,
        "impossible batch count"
    );
}

/// Builds a run's trace from its seed and adapter pool.
type TraceOf = fn(u64, &AdapterPool) -> Trace;

/// Runs `cfg` traced and returns its `canonical_text` and its decision
/// stream without the batching plane's own `dispatch_batch`/`retry_batch`
/// events — and without the per-lane `seq`, which those events shift.
fn canonical_and_stream(cfg: SystemConfig, seed: u64, trace_of: TraceOf) -> (String, String) {
    let mut sim = Simulation::new(cfg.with_trace(TraceSpec::new()), seed);
    let trace = trace_of(seed, sim.pool());
    let report = sim.run(&trace);
    report.assert_request_conservation(trace.len());
    let jsonl = report.trace.as_ref().expect("traced run").to_jsonl();
    let stream = jsonl
        .lines()
        .filter(|l| {
            !l.contains("\"ev\":\"dispatch_batch\"") && !l.contains("\"ev\":\"retry_batch\"")
        })
        .map(|l| {
            let (head, rest) = l.split_once("\"seq\":").expect("seq field");
            let (_, tail) = rest.split_once(',').expect("field after seq");
            format!("{head}{tail}\n")
        })
        .collect();
    (report.canonical_text(), stream)
}

/// An explicit `(1, 0)` budget is per-arrival dispatch on three fleets:
/// the predictive affinity-4 fleet over a bursty trace, a JSQ fleet whose
/// crash-recovery retries must each route from a fresh snapshot, and the
/// 3-rack fleet with shard recovery through a domain crash and a
/// partition.
#[test]
fn budget_one_is_per_arrival_dispatch() {
    let racks = FaultSpec::new()
        .with_domain_crash(0, SimTime::from_secs_f64(5.0))
        .with_partition(1, SimTime::from_secs_f64(3.0), SimTime::from_secs_f64(6.0))
        .with_shard_recovery();
    let cases: [(&str, SystemConfig, TraceOf); 3] = [
        (
            "predictive-4, bursty trace",
            preset::chameleon_cluster_partitioned(4).with_predictive(PredictiveSpec::new()),
            |seed, pool| workloads::splitwise_bursty(4.0, 60.0, 10.0, 10.0, 20.0, seed, pool),
        ),
        (
            "JSQ-4, crash at 6 s",
            preset::chameleon_cluster(4)
                .with_fault(FaultSpec::new().with_crash(1, SimTime::from_secs_f64(6.0))),
            |seed, pool| workloads::splitwise(24.0, 12.0, seed, pool),
        ),
        (
            "3-rack, domain crash + partition",
            chaos_fleet().with_fault(racks),
            |seed, pool| workloads::splitwise(16.0, 10.0, seed, pool),
        ),
    ];
    let budget_one = DispatchSpec::with_budget(1, SimDuration::ZERO);
    for (name, cfg, trace_of) in cases {
        for seed in SEEDS {
            let (text, stream) = canonical_and_stream(cfg.clone(), seed, trace_of);
            let (text_one, stream_one) =
                canonical_and_stream(cfg.clone().with_dispatch(budget_one), seed, trace_of);
            assert_eq!(
                text, text_one,
                "{name}, seed {seed}: budget one diverged from per-arrival dispatch"
            );
            // Streams run to hundreds of KiB: report the divergence, not the diff.
            assert!(
                stream == stream_one,
                "{name}, seed {seed}: budget one's decision stream diverged from per-arrival"
            );
        }
    }
}
