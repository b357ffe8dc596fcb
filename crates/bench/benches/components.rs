//! Criterion micro-benchmarks for the load-bearing components.
//!
//! These measure the *simulator's* own hot paths (event queue, cache
//! eviction, batch formation, K-means reconfiguration, cost model), i.e.
//! the per-iteration work a real Chameleon scheduler would execute on the
//! host — §4.3.4's "negligible overheads" claim made measurable.

use chameleon_cache::{AdapterCache, EvictionPolicy};
use chameleon_gpu::cost::{CostModel, DecodeItem, PrefillItem};
use chameleon_gpu::memory::MemoryPool;
use chameleon_models::{
    AdapterId, AdapterPool, AdapterRank, AdapterSpec, GpuSpec, LlmSpec, PoolConfig,
};
use chameleon_sched::scheduler::StaticProbe;
use chameleon_sched::{
    kmeans, ChameleonConfig, ChameleonScheduler, FifoScheduler, QueuedRequest, Scheduler, WrsConfig,
};
use chameleon_simcore::{EventQueue, SimDuration, SimRng, SimTime};
use chameleon_workload::{Request, RequestId};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1024);
            for i in 0..1024u64 {
                q.push(SimTime::from_nanos((i * 7919) % 4096), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
}

fn wrs_cfg() -> WrsConfig {
    WrsConfig::paper(2048.0, 1024.0, (256u64 << 20) as f64)
}

fn queued(i: u64) -> QueuedRequest {
    let r = Request::new(
        RequestId(i),
        SimTime::ZERO,
        64 + (i % 512) as u32,
        1 + (i % 128) as u32,
        AdapterId((i % 100) as u32),
        AdapterRank::new(8),
    );
    QueuedRequest::new(
        r,
        1 + (i % 128) as u32,
        16 << 20,
        32,
        (i % 97) as f64 / 97.0,
        SimTime::ZERO,
    )
}

fn bench_schedulers(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler_form_batch");
    let probe = StaticProbe {
        available_tokens: 20_000,
        batch_slots: 64,
        ..StaticProbe::default()
    };
    g.bench_function("fifo_256_queued", |b| {
        b.iter(|| {
            let mut s = FifoScheduler::new();
            for i in 0..256 {
                s.enqueue(queued(i));
            }
            black_box(s.form_batch(&probe).len())
        })
    });
    g.bench_function("chameleon_mlq_256_queued", |b| {
        b.iter(|| {
            let mut s = ChameleonScheduler::new(
                ChameleonConfig::paper(SimDuration::from_secs(5)),
                wrs_cfg(),
            );
            for i in 0..256 {
                s.enqueue(queued(i));
            }
            black_box(s.form_batch(&probe).len())
        })
    });
    g.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    let mut rng = SimRng::seed(1);
    let values: Vec<f64> = (0..2048).map(|_| rng.f64()).collect();
    c.bench_function("kmeans_choose_queues_2048", |b| {
        b.iter(|| black_box(kmeans::choose_queues(&values, 4, 0.15)))
    });
}

fn bench_cache(c: &mut Criterion) {
    let llm = LlmSpec::llama_7b();
    let specs: Vec<AdapterSpec> = (0..100)
        .map(|i| AdapterSpec::new(AdapterId(i), AdapterRank::new(8), &llm))
        .collect();
    c.bench_function("cache_churn_100_adapters", |b| {
        b.iter(|| {
            // 2 GB pool: ~128 rank-8 slots; constant acquire/evict churn.
            let mut pool = MemoryPool::new(2 << 30);
            let mut cache = AdapterCache::new(EvictionPolicy::chameleon());
            cache.size_for_pool(specs.len());
            let mut t = 0.0;
            for round in 0..200u32 {
                let spec = &specs[(round % 100) as usize];
                t += 0.01;
                let now = SimTime::from_secs_f64(t);
                if !cache.acquire(&mut pool, spec.id(), now) {
                    cache.make_room(&mut pool, spec.bytes(), now, &Default::default());
                    cache.insert_loaded(&mut pool, spec, now, 1).unwrap();
                }
                cache.release(&mut pool, spec.id(), now);
            }
            black_box(cache.stats().hits)
        })
    });
}

fn bench_cost_model(c: &mut Criterion) {
    let cost = CostModel::new(LlmSpec::llama_7b(), GpuSpec::a40(), 1);
    let decode_batch: Vec<DecodeItem> = (0..64)
        .map(|i| DecodeItem {
            kv_tokens: 128 + i * 7,
            rank: Some(AdapterRank::new(8 << (i % 5))),
        })
        .collect();
    let prefill_batch: Vec<PrefillItem> = (0..8)
        .map(|i| PrefillItem {
            tokens: 128 + i * 64,
            rank: Some(AdapterRank::new(32)),
        })
        .collect();
    let mut g = c.benchmark_group("cost_model");
    g.bench_function("decode_step_batch64", |b| {
        b.iter(|| black_box(cost.decode_step_time(&decode_batch)))
    });
    g.bench_function("prefill_batch8", |b| {
        b.iter(|| black_box(cost.prefill_time(&prefill_batch)))
    });
    g.finish();
}

fn bench_pool_sampling(c: &mut Criterion) {
    let pool = AdapterPool::generate(&LlmSpec::llama_7b(), &PoolConfig::paper_default(100));
    c.bench_function("adapter_pool_sample", |b| {
        let mut rng = SimRng::seed(3);
        b.iter(|| black_box(pool.sample(&mut rng).id()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_event_queue, bench_schedulers, bench_kmeans, bench_cache,
              bench_cost_model, bench_pool_sampling
}
criterion_main!(benches);
