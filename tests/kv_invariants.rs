//! Engine-level KV-accounting invariant: at every event boundary the
//! allocator's view of KV memory (block-resident sequences plus
//! hidden-state proxies) must equal the memory pool's `KvCache` region,
//! byte for byte — across admission, block-granular growth, squash,
//! hybrid demotion/restore, crash and evacuation interleavings. The
//! allocator-level property test (`chameleon-gpu`) checks the same
//! identity against synthetic op sequences; this suite checks it against
//! the *engine's* real interleavings, which is where PR 10's bug sweep
//! found the three accounting bugs (optimistic growth double-release,
//! stale release-schedule bytes, squash underestimating r1 footprints).

use chameleon_repro::cache::{AdapterCache, EvictionPolicy};
use chameleon_repro::engine::{run_alone, Engine, EngineConfig, EngineEvent, KvSpec};
use chameleon_repro::models::{AdapterPool, GpuSpec, LlmSpec, PoolConfig};
use chameleon_repro::predictor::OutputLenPredictor;
use chameleon_repro::sched::{FifoScheduler, WrsConfig};
use chameleon_repro::simcore::{EventQueue, SimRng, SimTime};
use chameleon_repro::workload::generator::TokenLengthModel;
use chameleon_repro::workload::Request;
use chameleon_repro::workload::{ArrivalModel, LengthModel, Trace, TraceGenerator};

const SEEDS: [u64; 3] = [3, 11, 42];

/// A GPU small enough that this trace *must* exercise the OOM paths:
/// Llama-7B's weights leave roughly 1 GiB (~2 000 tokens at 512 KiB per
/// token) of KV headroom.
fn tight_gpu() -> GpuSpec {
    GpuSpec::a40().with_memory_bytes(15 * (1 << 30))
}

fn long_output_trace(n: usize, rps: f64, seed: u64, pool: &AdapterPool) -> Trace {
    let gen = TraceGenerator::new(
        LengthModel::Custom {
            input: TokenLengthModel {
                median: 48.0,
                sigma: 0.6,
                min: 8,
                max: 192,
            },
            // Decode-heavy: most KV bytes appear *after* admission, which
            // is what makes optimistic admission unwind.
            output: TokenLengthModel {
                median: 96.0,
                sigma: 0.6,
                min: 16,
                max: 256,
            },
        },
        ArrivalModel::poisson(rps),
    );
    let mut rng = SimRng::seed(seed);
    gen.generate_n(pool, n, &mut rng)
}

/// Deterministically predicts *half* the true output: every admission
/// reservation undershoots, so decode growth reliably hits the OOM →
/// demote/squash paths (an exact oracle would coast on its reservations
/// and never exercise them). Deterministic under-prediction — unlike
/// log-normally noisy *over*-prediction — also can't manufacture a
/// phantom footprint larger than the whole KV region, which would wedge
/// FIFO's head-of-line gate forever.
struct HalfPredictor;

impl OutputLenPredictor for HalfPredictor {
    fn predict(&mut self, request: &Request) -> u32 {
        (request.output_tokens() / 2).max(1)
    }
    fn name(&self) -> &'static str {
        "half"
    }
}

fn engine(pool: AdapterPool, kv: Option<KvSpec>) -> Engine {
    let llm = LlmSpec::llama_7b();
    let mut cfg = EngineConfig::new(llm, tight_gpu());
    cfg.kv = kv;
    Engine::new(
        cfg,
        pool,
        Box::new(FifoScheduler::new()),
        Box::new(HalfPredictor),
        AdapterCache::new(EvictionPolicy::chameleon()),
        WrsConfig::paper(2048.0, 1024.0, (256 << 20) as f64),
    )
}

fn assert_accounting(e: &Engine, at: SimTime, ctx: &str) {
    let (alloc, pool) = e.kv_accounting();
    assert_eq!(
        alloc,
        pool,
        "{ctx} @ {}ns: allocator thinks {alloc} B of KV, pool region holds {pool} B",
        at.as_nanos()
    );
}

/// Drives `engine` through `trace`, asserting the accounting identity
/// after **every** event. When `evacuate_at_event` is set, the engine is
/// evacuated mid-flight after that many events (the partition/drain
/// path: every reservation released, work presumed lost) and the lost
/// requests re-arrive — the recovery interleaving must keep the
/// identity too.
fn drive_checked(engine: &mut Engine, trace: &Trace, evacuate_at_event: Option<u64>) -> u64 {
    let mut q: EventQueue<EngineEvent> = EventQueue::with_capacity(trace.len() + 16);
    let mut arrivals_left = trace.len();
    for r in trace {
        q.push(r.arrival(), EngineEvent::Arrival(*r));
    }
    let mem_int = engine.config().mem_sample_interval;
    let refresh_int = engine.config().refresh_interval;
    q.push(SimTime::ZERO + mem_int, EngineEvent::MemSample);
    q.push(SimTime::ZERO + refresh_int, EngineEvent::Refresh);

    let mut out = Vec::new();
    let mut crashed = false;
    while let Some((t, ev)) = q.pop() {
        assert!(
            q.processed() < 2_000_000,
            "livelock: 2M events, t={:.1}s, completed={}, running={}, queued={}, \
             free={} B, outstanding={}, kv={:?}, sched={}",
            t.as_secs_f64(),
            engine.completed(),
            engine.running_len(),
            engine.queue_len(),
            engine.free_memory_bytes(),
            engine.outstanding_tokens(),
            engine.kv_accounting(),
            engine.scheduler_debug(),
        );
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
        assert_accounting(engine, t, "after event");
        for (at, e) in out.drain(..) {
            q.push(at, e);
        }
        if periodic && (arrivals_left > 0 || engine.has_work()) {
            let (at, e) = reschedule.expect("periodic events always reschedule");
            q.push(at, e);
        }
        if !crashed && evacuate_at_event.is_some_and(|n| q.processed() >= n) {
            crashed = true;
            let lost = engine.evacuate_unfinished(t);
            // Evacuation frees every in-flight byte — full KV sequences
            // and hidden-state proxies alike: both views must read 0.
            let (alloc, pool) = engine.kv_accounting();
            assert_eq!(
                (alloc, pool),
                (0, 0),
                "evacuation left {alloc}/{pool} KV bytes"
            );
            // Lost requests re-arrive a beat later (the cluster's
            // re-dispatch path, collapsed onto one engine).
            let again = t + mem_int;
            for r in lost {
                arrivals_left += 1;
                q.push(again, EngineEvent::Arrival(r.with_arrival(again)));
            }
            if arrivals_left > 0 {
                q.push(t + mem_int, EngineEvent::MemSample);
                q.push(t + refresh_int, EngineEvent::Refresh);
            }
        }
    }
    q.processed()
}

/// Optimistic baseline (no `KvSpec`): the identity holds through
/// admission, growth and squash under memory pressure.
#[test]
fn baseline_accounting_holds_under_pressure() {
    for seed in SEEDS {
        let llm = LlmSpec::llama_7b();
        let pool = AdapterPool::generate(&llm, &PoolConfig::paper_default(10));
        let trace = long_output_trace(120, 20.0, seed, &pool);
        let mut e = engine(pool, None);
        drive_checked(&mut e, &trace, None);
        assert_eq!(e.completed() as usize, trace.len(), "seed {seed}");
        let report = e.into_report();
        assert!(
            report.squashes > 0,
            "seed {seed}: the tight GPU never triggered a squash — the \
             pressure paths went unexercised"
        );
    }
}

/// Armed economy: admission refusals, demotions and restores all
/// preserve the identity, and the run still completes everything.
#[test]
fn armed_accounting_holds_under_pressure() {
    for seed in SEEDS {
        let llm = LlmSpec::llama_7b();
        let pool = AdapterPool::generate(&llm, &PoolConfig::paper_default(10));
        let trace = long_output_trace(120, 20.0, seed, &pool);
        let mut e = engine(pool, Some(KvSpec::new().with_pressure_threshold(0.5)));
        drive_checked(&mut e, &trace, None);
        assert_eq!(e.completed() as usize, trace.len(), "seed {seed}");
        let report = e.into_report();
        assert!(
            report.kv.refused > 0 || report.kv.demotions > 0,
            "seed {seed}: neither admission control nor the hybrid cache \
             ever intervened — the armed paths went unexercised ({:?})",
            report.kv
        );
        assert_eq!(report.kv.demotions, report.kv.restores, "seed {seed}");
    }
}

/// Partition-recovery interleaving: the engine is evacuated mid-pressure
/// (in-flight KV, proxies and loads all in play), both views drop to
/// zero, the presumed-lost work re-arrives, and the re-driven run keeps
/// the identity to completion. A crash now evacuates like a partition
/// (`Cluster::fault_crash` calls `evacuate_unfinished` and then retires
/// the engine), so this interleaving covers the release-everything
/// accounting of both.
#[test]
fn partition_recovery_keeps_accounting() {
    for seed in SEEDS {
        for kv in [None, Some(KvSpec::new().with_pressure_threshold(0.5))] {
            let llm = LlmSpec::llama_7b();
            let pool = AdapterPool::generate(&llm, &PoolConfig::paper_default(10));
            let trace = long_output_trace(80, 20.0, seed, &pool);
            let mut e = engine(pool, kv);
            drive_checked(&mut e, &trace, Some(150));
            assert_eq!(
                e.completed() as usize,
                trace.len(),
                "seed {seed} kv={kv:?}: re-dispatched survivors must finish"
            );
        }
    }
}

/// Evacuation (elastic drain) releases every KV byte — full sequences
/// and hidden-state proxies alike.
#[test]
fn evacuation_releases_all_kv() {
    let llm = LlmSpec::llama_7b();
    let pool = AdapterPool::generate(&llm, &PoolConfig::paper_default(10));
    let trace = long_output_trace(60, 25.0, 3, &pool);
    let mut e = engine(pool, Some(KvSpec::new().with_pressure_threshold(0.5)));
    // Feed arrivals only up to 2 s, then evacuate mid-flight.
    let mut out = Vec::new();
    let cutoff = SimTime::from_secs_f64(2.0);
    for r in &trace {
        if r.arrival() <= cutoff {
            e.handle(r.arrival(), EngineEvent::Arrival(*r), &mut out);
            assert_accounting(&e, r.arrival(), "mid-feed");
        }
    }
    let evacuated = e.evacuate_unfinished(cutoff);
    assert!(!evacuated.is_empty(), "nothing was in flight to evacuate");
    let (alloc, pool_bytes) = e.kv_accounting();
    assert_eq!(
        (alloc, pool_bytes),
        (0, 0),
        "evacuation left KV bytes behind"
    );
}

/// Every complete record holds exactly the `output_tokens - 1` TBT gaps
/// the collector reserves room for on arrival, in exactly that room:
/// squashed requests (baseline) and demoted-then-restored ones (armed)
/// included.
#[test]
fn every_record_fills_its_reserved_gaps_exactly() {
    for kv in [None, Some(KvSpec::new().with_pressure_threshold(0.5))] {
        let llm = LlmSpec::llama_7b();
        let pool = AdapterPool::generate(&llm, &PoolConfig::paper_default(10));
        let trace = long_output_trace(120, 20.0, 3, &pool);
        let (e, _, _) = run_alone(engine(pool, kv), &trace);
        let report = e.into_report();
        let disturbed =
            report.records.iter().filter(|r| r.squashes > 0).count() as u64 + report.kv.demotions;
        assert!(disturbed > 0, "{kv:?}: nothing was squashed or demoted");
        for r in &report.records {
            assert!(r.is_complete(), "{}", r.id);
            let want = r.output_tokens as usize - 1;
            assert_eq!(
                (r.tbt_gaps.len(), r.tbt_gaps.capacity()),
                (want, want),
                "{kv:?} {} (squashes {})",
                r.id,
                r.squashes
            );
        }
    }
}
