//! Isolated-execution oracle (§3.3, §5.1).
//!
//! The paper's slowdown metric divides each request's observed response
//! time by "the response time in an isolated environment where the request
//! executes alone", including adapter loading. The SLO is defined as 5×
//! the average request execution time in a low-load system. Both need the
//! isolated latency of a request, which the cost model provides directly.

use chameleon_gpu::CostModel;
use chameleon_metrics::RequestRecord;
use chameleon_models::adapter::adapter_bytes;
use chameleon_models::AdapterRank;
use chameleon_simcore::SimDuration;
use chameleon_workload::{Request, RequestId, Trace};
use std::collections::HashMap;

/// Isolated (alone-on-the-GPU) latencies of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsolatedLatency {
    /// Time to first token, including a cold adapter load.
    pub ttft: SimDuration,
    /// End-to-end latency.
    pub e2e: SimDuration,
}

/// Computes the isolated latency of `req` on `cost`'s engine.
///
/// `with_lora` false runs the request on the bare base model (the
/// Figure 7 "base LLM" curve).
pub fn isolated(cost: &CostModel, req: &Request, with_lora: bool) -> IsolatedLatency {
    let rank = with_lora.then_some(req.rank());
    let (ttft, e2e) =
        cost.isolated_latency(req.input_tokens(), req.output_tokens(), rank, with_lora);
    IsolatedLatency { ttft, e2e }
}

/// One rank's isolated pricing: the running sums of its decode steps and
/// its isolated TTFT by input length, each computed when first needed.
struct RankPrices {
    rank: AdapterRank,
    decode_sums: Vec<SimDuration>,
    /// `None` until a record of that input length asks.
    ttft: Vec<Option<SimDuration>>,
}

/// The isolated E2E latency of every record, by request id: what
/// [`isolated`] gives each one (adapter included, cold), in O(1) per
/// record. Each rank's decode steps are summed once, up to the longest
/// context any record reaches ([`CostModel::solo_decode_sums`]); a
/// record's decode time is then the difference of two sums, in integer
/// nanoseconds and so exact. Each rank prices the isolated TTFT of an
/// input length once.
pub fn isolated_e2e_by_id(
    cost: &CostModel,
    records: &[RequestRecord],
) -> HashMap<RequestId, SimDuration> {
    // The context the last output token decodes at; the first comes from
    // prefill.
    let last_kv = |r: &RequestRecord| r.input_tokens + r.output_tokens.saturating_sub(1);
    let top = records.iter().map(last_kv).max().unwrap_or(0);
    let mut ranks: Vec<RankPrices> = Vec::new();
    let mut e2e = HashMap::with_capacity(records.len());
    for r in records {
        let i = match ranks.iter().position(|p| p.rank == r.rank) {
            Some(i) => i,
            None => {
                ranks.push(RankPrices {
                    rank: r.rank,
                    decode_sums: cost.solo_decode_sums(Some(r.rank), top),
                    ttft: vec![None; top as usize + 1],
                });
                ranks.len() - 1
            }
        };
        let p = &mut ranks[i];
        let decode = p.decode_sums[last_kv(r) as usize] - p.decode_sums[r.input_tokens as usize];
        let ttft = *p.ttft[r.input_tokens as usize]
            .get_or_insert_with(|| cost.isolated_ttft(r.input_tokens, Some(r.rank), true));
        e2e.insert(r.id, ttft + decode);
    }
    e2e
}

/// Mean isolated E2E latency over (a sample of) the trace — the base of
/// the §5.1 SLO definition.
pub fn mean_isolated_e2e(cost: &CostModel, trace: &Trace, sample_cap: usize) -> SimDuration {
    let n = trace.len().min(sample_cap.max(1));
    if n == 0 {
        return SimDuration::ZERO;
    }
    let step = (trace.len() / n).max(1);
    let mut total = SimDuration::ZERO;
    let mut count = 0u64;
    for req in trace.iter().step_by(step) {
        total += isolated(cost, req, true).e2e;
        count += 1;
    }
    total / count.max(1)
}

/// The paper's SLO: 5× the mean isolated E2E latency (§5.1).
pub fn derive_slo(cost: &CostModel, trace: &Trace) -> SimDuration {
    mean_isolated_e2e(cost, trace, 500).mul_f64(5.0)
}

/// Checks that the adapter-rank dependence of isolated latency matches the
/// adapter bytes formula (exposed for tests and the Figure 7 harness).
pub fn adapter_bytes_of(cost: &CostModel, req: &Request) -> u64 {
    adapter_bytes(cost.llm(), req.rank())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_models::{AdapterId, AdapterRank, GpuSpec, LlmSpec};
    use chameleon_simcore::SimTime;
    use chameleon_workload::RequestId;

    fn cost() -> CostModel {
        CostModel::new(LlmSpec::llama_7b(), GpuSpec::a40(), 1)
    }

    fn req(input: u32, output: u32, rank: u32) -> Request {
        Request::new(
            RequestId(0),
            SimTime::ZERO,
            input,
            output,
            AdapterId(0),
            AdapterRank::new(rank),
        )
    }

    #[test]
    fn lora_slows_down_isolated_requests() {
        let c = cost();
        let r = req(256, 32, 64);
        let with = isolated(&c, &r, true);
        let without = isolated(&c, &r, false);
        assert!(with.ttft > without.ttft);
        assert!(with.e2e > without.e2e);
    }

    #[test]
    fn e2e_grows_with_output() {
        let c = cost();
        let short = isolated(&c, &req(128, 8, 32), true);
        let long = isolated(&c, &req(128, 64, 32), true);
        assert!(long.e2e > short.e2e + SimDuration::from_millis(50 * 25));
        assert_eq!(short.ttft, long.ttft, "TTFT independent of output length");
    }

    #[test]
    fn slo_is_five_times_mean() {
        let c = cost();
        let trace = Trace::new(vec![
            req(128, 16, 32),
            req(128, 16, 32).with_arrival(SimTime::from_secs_f64(1.0)),
        ]);
        let mean = mean_isolated_e2e(&c, &trace, 100);
        let slo = derive_slo(&c, &trace);
        assert_eq!(slo, mean.mul_f64(5.0));
        assert!(slo > SimDuration::from_millis(500));
    }

    #[test]
    fn empty_trace_slo_zero() {
        let c = cost();
        assert_eq!(
            mean_isolated_e2e(&c, &Trace::new(vec![]), 10),
            SimDuration::ZERO
        );
    }

    /// A run prices every record's isolated E2E from the running sums
    /// exactly as the per-request reference does: on the `engine_high`
    /// system and the KV-guarded 24 GiB system, with single-token
    /// requests mixed in.
    #[test]
    fn run_prices_every_record_like_the_reference() {
        use crate::{preset, workloads, KvSpec, Simulation};
        use chameleon_models::GpuSpec;
        let mut kv24 =
            preset::chameleon_kv_guarded().with_gpu(GpuSpec::a40().with_memory_bytes(24 << 30));
        kv24.kv = Some(KvSpec::new().with_pressure_threshold(0.5));
        for (cfg, rps) in [(preset::chameleon().with_adapters(600), 10.5), (kv24, 10.0)] {
            let mut sim = Simulation::new(cfg, 3);
            let mut reqs = workloads::splitwise(rps, 30.0, 3, sim.pool())
                .requests()
                .to_vec();
            let n = reqs.len();
            for k in 0..5 {
                let base = reqs[k * n / 5];
                reqs.push(Request::new(
                    RequestId((n + k) as u64),
                    base.arrival(),
                    base.input_tokens(),
                    1,
                    base.adapter(),
                    base.rank(),
                ));
            }
            let report = sim.run(&Trace::new(reqs));
            assert_eq!(report.isolated_e2e.len(), n + 5);
            for r in &report.records {
                let req = Request::new(
                    r.id,
                    r.arrival,
                    r.input_tokens,
                    r.output_tokens,
                    r.adapter,
                    r.rank,
                );
                assert_eq!(
                    report.isolated_e2e[&r.id],
                    isolated(sim.cost_model(), &req, true).e2e,
                    "{} {}",
                    report.label,
                    r.id
                );
            }
        }
    }

    #[test]
    fn adapter_bytes_consistent() {
        let c = cost();
        assert_eq!(adapter_bytes_of(&c, &req(1, 1, 32)), 64 << 20);
    }
}
