//! Cross-crate integration tests: substrate pieces composed through the
//! umbrella crate's public API.

use chameleon_repro::cache::{AdapterCache, EvictionPolicy};
use chameleon_repro::core::{preset, sim::Simulation, workloads};
use chameleon_repro::gpu::memory::{MemoryPool, Region};
use chameleon_repro::gpu::CostModel;
use chameleon_repro::models::{
    AdapterPool, AdapterRank, AdapterSpec, GpuSpec, LlmSpec, PoolConfig,
};
use chameleon_repro::simcore::{SimDuration, SimRng, SimTime};
use chameleon_repro::workload::{ArrivalModel, LengthModel, TraceGenerator};

/// Memory never exceeds capacity at any sampled instant, across an entire
/// loaded run (the Figure 6 invariant).
#[test]
fn memory_series_respects_capacity() {
    let mut sim = Simulation::new(preset::chameleon(), 42);
    let trace = workloads::splitwise(11.0, 120.0, 42, sim.pool());
    let report = sim.run(&trace);
    assert!(!report.mem_series.is_empty());
    for s in &report.mem_series {
        assert!(
            s.total_used() <= s.capacity,
            "over-committed at {}: {} > {}",
            s.at,
            s.total_used(),
            s.capacity
        );
        assert_eq!(s.weights, LlmSpec::llama_7b().weight_bytes());
    }
    // Under load, the KV cache visibly fluctuates.
    let kv_max = report.mem_series.iter().map(|s| s.kv).max().unwrap();
    assert!(kv_max > 0);
}

/// The cache + memory-pool pair keeps exact byte accounting through a
/// generated workload of acquisitions and releases.
#[test]
fn cache_and_pool_agree_on_bytes() {
    let llm = LlmSpec::llama_7b();
    let pool_cfg = PoolConfig::paper_default(40);
    let adapters = AdapterPool::generate(&llm, &pool_cfg);
    let mut mem = MemoryPool::new(8 << 30);
    let mut cache = AdapterCache::new(EvictionPolicy::chameleon());
    cache.size_for_pool(adapters.len());
    let mut rng = SimRng::seed(1);
    let mut live: Vec<(chameleon_repro::models::AdapterId, u32)> = Vec::new();
    for step in 0..2000 {
        let now = SimTime::from_nanos(step * 1_000_000);
        if rng.chance(0.6) {
            let spec: &AdapterSpec = adapters.sample(&mut rng);
            let acquired = cache.acquire(&mut mem, spec.id(), now)
                || (cache.make_room(&mut mem, spec.bytes(), now, &|_| false)
                    && cache.insert_loaded(&mut mem, spec, now, 1).is_ok());
            if acquired {
                live.push((spec.id(), 1));
            }
        } else if let Some((id, _)) = live.pop() {
            cache.release(&mut mem, id, now);
        }
        assert_eq!(cache.in_use_bytes(), mem.used(Region::AdaptersInUse));
        assert_eq!(cache.idle_bytes(), mem.used(Region::AdapterCache));
    }
}

/// The cost model's isolated latencies are consistent with what the full
/// engine measures for a lone request.
#[test]
fn engine_matches_isolated_oracle_for_single_request() {
    let cfg = preset::chameleon();
    let mut sim = Simulation::new(cfg, 42);
    let pool = sim.pool().clone();
    // A one-request trace.
    let gen = TraceGenerator::new(
        LengthModel::Custom {
            input: chameleon_repro::workload::generator::TokenLengthModel {
                median: 128.0,
                sigma: 0.0,
                min: 128,
                max: 128,
            },
            output: chameleon_repro::workload::generator::TokenLengthModel {
                median: 16.0,
                sigma: 0.0,
                min: 16,
                max: 16,
            },
        },
        ArrivalModel::poisson(1.0),
    );
    let mut rng = SimRng::seed(3);
    let trace = gen.generate_n(&pool, 1, &mut rng);
    let req = trace.requests()[0];
    let report = sim.run(&trace);
    let rec = &report.records[0];
    let cost = CostModel::new(LlmSpec::llama_7b(), GpuSpec::a40(), 1);
    let (iso_ttft, iso_e2e) = cost.isolated_latency(
        req.input_tokens(),
        req.output_tokens(),
        Some(req.rank()),
        true,
    );
    let measured_ttft = rec.ttft().unwrap();
    let measured_e2e = rec.e2e().unwrap();
    // The engine adds queueing/prefetch wrinkles but a lone request should
    // land within a few percent of the oracle.
    let close = |a: SimDuration, b: SimDuration| {
        (a.as_secs_f64() - b.as_secs_f64()).abs() / b.as_secs_f64() < 0.25
    };
    assert!(
        close(measured_ttft, iso_ttft),
        "ttft {measured_ttft} vs oracle {iso_ttft}"
    );
    assert!(
        close(measured_e2e, iso_e2e),
        "e2e {measured_e2e} vs oracle {iso_e2e}"
    );
}

/// Data-parallel clusters preserve per-request accounting and balance.
#[test]
fn dp_cluster_conserves_requests() {
    let mut cfg = preset::chameleon();
    cfg.data_parallel = 3;
    let mut sim = Simulation::new(cfg, 9);
    let trace = workloads::splitwise(24.0, 60.0, 9, sim.pool());
    let n = trace.len();
    let report = sim.run(&trace);
    assert_eq!(report.completed(), n);
}

/// Tensor parallelism speeds up prefill but makes adapter loads slower in
/// absolute terms (§3.2's Llama-70B observation), end to end.
#[test]
fn tp_shifts_cost_from_compute_to_loading() {
    let tp1 = CostModel::new(LlmSpec::llama_70b(), GpuSpec::a100_80gb(), 1);
    let tp4 = CostModel::new(LlmSpec::llama_70b(), GpuSpec::a100_80gb(), 4);
    let bytes = chameleon_repro::models::adapter::adapter_bytes(
        &LlmSpec::llama_70b(),
        AdapterRank::new(32),
    );
    assert!(tp4.base_prefill_time(512) < tp1.base_prefill_time(512));
    assert!(tp4.adapter_load_time(bytes) > tp1.adapter_load_time(bytes));
}

/// Chunked prefill trades TTFT for TBT, as the Figure 8 discussion
/// describes.
#[test]
fn chunked_prefill_helps_tbt() {
    let run = |cfg| {
        let mut sim = Simulation::new(cfg, 21);
        let trace = workloads::splitwise(10.0, 120.0, 21, sim.pool());
        sim.run(&trace)
    };
    let plain = run(preset::slora());
    let chunked = run(preset::slora_chunked());
    let plain_tbt = plain.tbt_summary().unwrap().p99;
    let chunked_tbt = chunked.tbt_summary().unwrap().p99;
    assert!(
        chunked_tbt < plain_tbt,
        "chunked p99 TBT {chunked_tbt:.3}s vs plain {plain_tbt:.3}s"
    );
}
