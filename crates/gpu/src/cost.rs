//! Analytic GPU performance model.
//!
//! Replaces the paper's CUDA measurements with a roofline-style model whose
//! calibration constants are fitted to the paper's *own* single-request
//! numbers, so every relative shape the evaluation depends on is preserved:
//!
//! * **Figure 2** — TTFT of a medium request grows 74 → 144 ms from rank 8
//!   to 128, with ≈17.5 % of the rank-128 TTFT spent loading and ≈40 %
//!   executing the adapter. This pins the effective copy bandwidth
//!   (≈10 GB/s), the dense-GEMM efficiency (0.45) and the MBGMM LoRA-kernel
//!   efficiency (0.008 — the gather kernels are an order of magnitude less
//!   efficient than dense GEMMs, corroborated by dLoRA's Figure 5).
//! * **Figure 3** — TTFT is linear in input size with a slope that grows
//!   with rank; follows from the same constants.
//! * **Figure 5** — the *fraction* of TTFT spent loading grows with tensor
//!   parallelism, because sharded loads pay per-GPU setup plus a
//!   synchronisation barrier while compute speeds up.
//!
//! Decode is modelled as memory-bound (weight + KV streaming at a fraction
//! of HBM bandwidth), the standard roofline result for autoregressive
//! generation.

use chameleon_models::adapter::adapter_bytes;
use chameleon_models::{AdapterRank, GpuSpec, LlmSpec};
use chameleon_simcore::SimDuration;

/// Calibration constants. See module docs for the provenance of each value.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Fraction of peak FLOPs dense prefill GEMMs achieve.
    pub prefill_efficiency: f64,
    /// Fraction of HBM bandwidth decode streaming achieves.
    pub decode_hbm_efficiency: f64,
    /// Fraction of peak FLOPs the MBGMM LoRA gather kernels achieve.
    pub lora_kernel_efficiency: f64,
    /// Extra HBM traffic factor for reading adapter weights during decode
    /// (gather kernels re-read and scatter).
    pub lora_decode_read_penalty: f64,
    /// Fixed prefill-iteration overhead (scheduling, launch, sampling).
    pub prefill_overhead: SimDuration,
    /// Fixed decode-iteration overhead.
    pub iter_overhead: SimDuration,
    /// Per-layer, per-projection LoRA kernel-launch cost.
    pub lora_launch_per_kernel: SimDuration,
    /// Parallel efficiency retained per doubling of tensor-parallel degree.
    pub tp_efficiency_per_doubling: f64,
    /// All-reduce latency constant per layer crossing.
    pub tp_allreduce_alpha: SimDuration,
    /// Inter-GPU (NVLink) bandwidth for all-reduce payloads.
    pub nvlink_bytes_per_sec: f64,
    /// Fixed host-side setup per adapter load (pinning, Python driver).
    pub load_setup: SimDuration,
    /// Latency of each small per-layer H2D copy an adapter load issues.
    pub load_per_copy: SimDuration,
    /// Additional per-GPU coordination cost when loading a sharded adapter
    /// under tensor parallelism.
    pub tp_per_gpu_load_setup: SimDuration,
    /// Synchronisation barrier after a sharded adapter load.
    pub tp_load_sync: SimDuration,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            prefill_efficiency: 0.45,
            decode_hbm_efficiency: 0.70,
            lora_kernel_efficiency: 0.008,
            lora_decode_read_penalty: 4.0,
            prefill_overhead: SimDuration::from_millis(8),
            iter_overhead: SimDuration::from_millis(3),
            lora_launch_per_kernel: SimDuration::from_micros(10),
            tp_efficiency_per_doubling: 0.85,
            tp_allreduce_alpha: SimDuration::from_micros(20),
            nvlink_bytes_per_sec: 600e9,
            load_setup: SimDuration::from_millis(4),
            load_per_copy: SimDuration::from_micros(30),
            tp_per_gpu_load_setup: SimDuration::from_millis(15),
            tp_load_sync: SimDuration::from_millis(20),
        }
    }
}

/// One sequence's contribution to a prefill iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillItem {
    /// Prompt tokens processed this iteration.
    pub tokens: u32,
    /// LoRA rank, or `None` for base-only execution.
    pub rank: Option<AdapterRank>,
}

/// One sequence's contribution to a decode iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeItem {
    /// KV-cache length (context) of the sequence.
    pub kv_tokens: u32,
    /// LoRA rank, or `None` for base-only execution.
    pub rank: Option<AdapterRank>,
}

/// The sums one decode iteration is priced from: the sequence count, their
/// total context, and the adapter bytes of their distinct ranks. Every
/// sum is an integer, so the order sequences join and leave in does not
/// matter. The sums stay live: a sequence is [`push`](Self::push)ed when
/// it joins the decoding set and [`remove`](Self::remove)d with the same
/// item when it leaves, and [`advance`](Self::advance) grows every
/// sequence's context by the token an iteration gave it.
#[derive(Debug, Clone, Default)]
pub struct DecodeBatch {
    items: usize,
    kv_tokens: u64,
    lora_bytes: u64,
    /// Sequences per power-of-two rank (every rank the paper uses),
    /// indexed by the rank's log2.
    pow2_ranks: [u32; 32],
    /// Sequences per other rank, as `(rank, count)` with `count > 0`.
    other_ranks: Vec<(u32, u32)>,
}

impl DecodeBatch {
    /// True when no sequence decodes.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Adds one sequence of a model with `llm`'s geometry.
    pub fn push(&mut self, llm: &LlmSpec, item: DecodeItem) {
        self.items += 1;
        self.kv_tokens += u64::from(item.kv_tokens);
        let Some(rank) = item.rank else {
            return;
        };
        let count = self.rank_count(rank.get());
        *count += 1;
        if *count == 1 {
            self.lora_bytes += adapter_bytes(llm, rank);
        }
    }

    /// Removes one sequence added by [`push`](Self::push), described by
    /// its context now.
    ///
    /// # Panics
    ///
    /// Panics if no sequence of the item's rank is in the batch.
    pub fn remove(&mut self, llm: &LlmSpec, item: DecodeItem) {
        self.items -= 1;
        self.kv_tokens -= u64::from(item.kv_tokens);
        let Some(rank) = item.rank else {
            return;
        };
        let r = rank.get();
        let count = self.rank_count(r);
        *count = count.checked_sub(1).expect("rank in the batch");
        if *count == 0 {
            self.lora_bytes -= adapter_bytes(llm, rank);
            if !r.is_power_of_two() {
                self.other_ranks.retain(|&(_, n)| n > 0);
            }
        }
    }

    /// Grows every sequence's context by one token: the batch after one
    /// decode iteration.
    pub fn advance(&mut self) {
        self.kv_tokens += self.items as u64;
    }

    /// The sequence count of rank `r`, a fresh zero entry for an unseen
    /// rank other than a power of two.
    fn rank_count(&mut self, r: u32) -> &mut u32 {
        if r.is_power_of_two() {
            return &mut self.pow2_ranks[r.trailing_zeros() as usize];
        }
        let i = match self.other_ranks.iter().position(|&(rank, _)| rank == r) {
            Some(i) => i,
            None => {
                self.other_ranks.push((r, 0));
                self.other_ranks.len() - 1
            }
        };
        &mut self.other_ranks[i].1
    }
}

/// Two batches are equal when they hold the same ranks the same number
/// of times and price from the same sums, whatever order their
/// sequences joined in.
impl PartialEq for DecodeBatch {
    fn eq(&self, other: &Self) -> bool {
        (self.items, self.kv_tokens, self.lora_bytes, self.pow2_ranks)
            == (
                other.items,
                other.kv_tokens,
                other.lora_bytes,
                other.pow2_ranks,
            )
            && self.other_ranks.len() == other.other_ranks.len()
            && self
                .other_ranks
                .iter()
                .all(|entry| other.other_ranks.contains(entry))
    }
}

impl Eq for DecodeBatch {}

/// TTFT decomposition of a single request, Figure 2's three bars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefillBreakdown {
    /// Base-model execution time.
    pub base_exec: SimDuration,
    /// Adapter (LoRA kernel) execution time.
    pub adapter_exec: SimDuration,
    /// Adapter weight loading time (host → GPU).
    pub adapter_load: SimDuration,
}

impl PrefillBreakdown {
    /// Total TTFT.
    pub fn total(&self) -> SimDuration {
        self.base_exec + self.adapter_exec + self.adapter_load
    }
}

/// The analytic cost model for one engine (one GPU, or one TP group).
#[derive(Debug, Clone)]
pub struct CostModel {
    llm: LlmSpec,
    gpu: GpuSpec,
    tp: u32,
    calib: Calibration,
}

impl CostModel {
    /// Creates a model for `llm` served on `tp`-way tensor-parallel `gpu`s.
    ///
    /// # Panics
    ///
    /// Panics if `tp` is zero or not a power of two.
    pub fn new(llm: LlmSpec, gpu: GpuSpec, tp: u32) -> Self {
        assert!(tp > 0 && tp.is_power_of_two(), "TP degree must be 2^k");
        CostModel {
            llm,
            gpu,
            tp,
            calib: Calibration::default(),
        }
    }

    /// The base model.
    pub fn llm(&self) -> &LlmSpec {
        &self.llm
    }

    /// The GPU platform.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Tensor-parallel degree.
    pub fn tp(&self) -> u32 {
        self.tp
    }

    /// The calibration constants in use.
    pub fn calibration(&self) -> &Calibration {
        &self.calib
    }

    /// Effective compute scale of the TP group: `tp · eff^log2(tp)`.
    fn tp_compute_scale(&self) -> f64 {
        let doublings = self.tp.trailing_zeros();
        self.tp as f64 * self.calib.tp_efficiency_per_doubling.powi(doublings as i32)
    }

    /// All-reduce time for an iteration moving `tokens` activations
    /// (2 all-reduces per layer, latency + bandwidth terms). Zero at TP1.
    fn tp_sync(&self, tokens: u64) -> SimDuration {
        if self.tp == 1 {
            return SimDuration::ZERO;
        }
        let payload = tokens as f64
            * f64::from(self.llm.hidden())
            * chameleon_models::llm::DTYPE_BYTES as f64;
        let per_crossing = self.calib.tp_allreduce_alpha
            + SimDuration::from_secs_f64(payload / self.calib.nvlink_bytes_per_sec);
        per_crossing * (2 * u64::from(self.llm.layers()))
    }

    /// Base-model compute time for a prefill over `tokens` tokens.
    pub fn base_prefill_time(&self, tokens: u64) -> SimDuration {
        let flops = self.llm.forward_flops(tokens);
        let rate =
            self.gpu.peak_fp16_flops() * self.calib.prefill_efficiency * self.tp_compute_scale();
        self.calib.prefill_overhead
            + SimDuration::from_secs_f64(flops / rate)
            + self.tp_sync(tokens)
    }

    /// LoRA kernel execution time for `tokens` tokens at `rank`.
    pub fn lora_prefill_time(&self, rank: AdapterRank, tokens: u64) -> SimDuration {
        let params = (adapter_bytes(&self.llm, rank) / chameleon_models::llm::DTYPE_BYTES) as f64;
        let flops = 2.0 * params * tokens as f64;
        let rate = self.gpu.peak_fp16_flops()
            * self.calib.lora_kernel_efficiency
            * self.tp_compute_scale();
        // One pair of gather kernels per adapted projection per layer.
        let launches =
            u64::from(self.llm.layers()) * chameleon_models::adapter::ADAPTED_PROJECTIONS * 2;
        self.calib.lora_launch_per_kernel * launches + SimDuration::from_secs_f64(flops / rate)
    }

    /// Duration of one prefill iteration over `batch`.
    ///
    /// Base compute batches across all prompts; LoRA compute is additive per
    /// sequence (the MBGMM kernels gather per-adapter).
    pub fn prefill_time(&self, batch: &[PrefillItem]) -> SimDuration {
        if batch.is_empty() {
            return SimDuration::ZERO;
        }
        let total_tokens: u64 = batch.iter().map(|i| u64::from(i.tokens)).sum();
        let mut t = self.base_prefill_time(total_tokens);
        for item in batch {
            if let Some(rank) = item.rank {
                t += self.lora_prefill_time(rank, u64::from(item.tokens));
            }
        }
        t
    }

    /// Duration of one decode iteration over `batch` (one token per
    /// sequence): weight streaming + KV streaming + LoRA reads + sync.
    pub fn decode_step_time(&self, batch: &[DecodeItem]) -> SimDuration {
        let mut sums = DecodeBatch::default();
        for &item in batch {
            sums.push(&self.llm, item);
        }
        self.decode_batch_time(&sums)
    }

    /// [`decode_step_time`](Self::decode_step_time) of the sequences
    /// accumulated in `batch`.
    pub fn decode_batch_time(&self, batch: &DecodeBatch) -> SimDuration {
        if batch.items == 0 {
            return SimDuration::ZERO;
        }
        let kv_bytes = batch.kv_tokens * self.llm.kv_bytes_per_token();
        // Each *distinct* adapter's weights are re-read by the gather
        // kernels once per iteration, with a scatter penalty.
        self.decode_step(batch.items, kv_bytes, batch.lora_bytes)
    }

    /// [`decode_step_time`](Self::decode_step_time) of `batch` base-only
    /// items that each hold `kv_tokens` of context, in O(1).
    pub fn uniform_decode_step_time(&self, batch: usize, kv_tokens: u32) -> SimDuration {
        if batch == 0 {
            return SimDuration::ZERO;
        }
        let kv_bytes = batch as u64 * u64::from(kv_tokens) * self.llm.kv_bytes_per_token();
        self.decode_step(batch, kv_bytes, 0)
    }

    /// One decode iteration over `items` sequences that stream `kv_bytes`
    /// of KV cache and re-read `lora_bytes` of adapter weights.
    fn decode_step(&self, items: usize, kv_bytes: u64, lora_bytes: u64) -> SimDuration {
        let tp_hbm = self.decode_tp_hbm();
        // Per-GPU weight shard streams in parallel across the group.
        let weight_secs = self.llm.weight_bytes() as f64 / tp_hbm;
        let kv_secs = kv_bytes as f64 / tp_hbm;
        let lora_secs = self.lora_decode_secs(lora_bytes, tp_hbm);
        self.calib.iter_overhead
            + SimDuration::from_secs_f64(weight_secs + kv_secs + lora_secs)
            + self.tp_sync(items as u64)
    }

    /// HBM bytes per second decode streams at across the TP group.
    fn decode_tp_hbm(&self) -> f64 {
        let hbm = self.gpu.hbm_bytes_per_sec() * self.calib.decode_hbm_efficiency;
        self.tp as f64 * hbm
    }

    /// Seconds the gather kernels spend re-reading `lora_bytes` of
    /// adapter weights in one decode iteration.
    fn lora_decode_secs(&self, lora_bytes: u64, tp_hbm: f64) -> f64 {
        lora_bytes as f64 * self.calib.lora_decode_read_penalty / tp_hbm
    }

    /// Time to load an adapter of `bytes` from host memory, including the
    /// per-layer small-copy latencies that dominate small adapters.
    ///
    /// Under tensor parallelism each GPU receives its shard separately over
    /// the shared host link, pays per-GPU coordination, and the group
    /// synchronises afterwards — which is why the *fraction* of TTFT spent
    /// loading grows with TP (Figure 5).
    pub fn adapter_load_time(&self, bytes: u64) -> SimDuration {
        let copies =
            u64::from(self.llm.layers()) * chameleon_models::adapter::ADAPTED_PROJECTIONS * 2;
        let wire =
            SimDuration::from_secs_f64(bytes as f64 / self.gpu.effective_copy_bytes_per_sec());
        let base = self.calib.load_setup + self.calib.load_per_copy * copies + wire;
        if self.tp == 1 {
            base
        } else {
            base + self.calib.tp_per_gpu_load_setup * u64::from(self.tp) + self.calib.tp_load_sync
        }
    }

    /// Time the host PCIe link is occupied by that load (wire time plus the
    /// small-copy gaps; the link is held for the duration).
    pub fn adapter_link_occupancy(&self, bytes: u64) -> SimDuration {
        let copies =
            u64::from(self.llm.layers()) * chameleon_models::adapter::ADAPTED_PROJECTIONS * 2;
        self.calib.load_per_copy * copies
            + SimDuration::from_secs_f64(bytes as f64 / self.gpu.effective_copy_bytes_per_sec())
    }

    /// Figure 2's decomposition for a single request of `tokens` prompt
    /// tokens at `rank`, including a cold adapter load.
    pub fn prefill_breakdown(&self, tokens: u64, rank: AdapterRank) -> PrefillBreakdown {
        PrefillBreakdown {
            base_exec: self.base_prefill_time(tokens),
            adapter_exec: self.lora_prefill_time(rank, tokens),
            adapter_load: self.adapter_load_time(adapter_bytes(&self.llm, rank)),
        }
    }

    /// Time to first token of a request running *alone* on an idle
    /// engine: its prefill, after the adapter load when `cold_adapter`.
    pub fn isolated_ttft(
        &self,
        input_tokens: u32,
        rank: Option<AdapterRank>,
        cold_adapter: bool,
    ) -> SimDuration {
        let load = match (rank, cold_adapter) {
            (Some(r), true) => self.adapter_load_time(adapter_bytes(&self.llm, r)),
            _ => SimDuration::ZERO,
        };
        load + self.prefill_time(&[PrefillItem {
            tokens: input_tokens,
            rank,
        }])
    }

    /// End-to-end latency of a request running *alone* on an idle engine:
    /// `(ttft, e2e)`. This is the denominator of the paper's per-request
    /// slowdown metric (§3.3) and the base of the SLO definition (§5.1).
    ///
    /// `cold_adapter` controls whether the adapter load is included (§3.3
    /// includes it).
    pub fn isolated_latency(
        &self,
        input_tokens: u32,
        output_tokens: u32,
        rank: Option<AdapterRank>,
        cold_adapter: bool,
    ) -> (SimDuration, SimDuration) {
        let ttft = self.isolated_ttft(input_tokens, rank, cold_adapter);
        // First output token comes from prefill; remaining ones decode.
        let step = self.solo_decode_step(rank);
        let mut e2e = ttft;
        for k in 1..output_tokens {
            e2e += step(input_tokens + k);
        }
        (ttft, e2e)
    }

    /// Running sums of the one-item decode step at `rank`: entry `k` sums
    /// `decode_step_time(&[DecodeItem { kv_tokens: j, rank }])` over `j` in
    /// `1..=k`, for `k` in `0..=max_kv_tokens`.
    ///
    /// A request alone on the engine decodes its tokens after the first at
    /// contexts `input + 1 ..= input + output - 1`, so its decode time is
    /// `sums[input + output - 1] - sums[input]`. The sums are integer
    /// nanoseconds, so that difference is exactly what
    /// [`isolated_latency`](Self::isolated_latency) adds step by step.
    pub fn solo_decode_sums(
        &self,
        rank: Option<AdapterRank>,
        max_kv_tokens: u32,
    ) -> Vec<SimDuration> {
        let step = self.solo_decode_step(rank);
        let mut acc = SimDuration::ZERO;
        let mut sums = Vec::with_capacity(max_kv_tokens as usize + 1);
        sums.push(acc);
        for k in 1..=max_kv_tokens {
            acc += step(k);
            sums.push(acc);
        }
        sums
    }

    /// The one-item [`decode_step_time`](Self::decode_step_time) at `rank`
    /// as a function of context length: the same float expression and
    /// nanosecond rounding, with the step-invariant terms computed once.
    fn solo_decode_step(&self, rank: Option<AdapterRank>) -> impl Fn(u32) -> SimDuration + '_ {
        let tp_hbm = self.decode_tp_hbm();
        let weight_secs = self.llm.weight_bytes() as f64 / tp_hbm;
        let lora_bytes = rank.map_or(0, |r| adapter_bytes(&self.llm, r));
        let lora_secs = self.lora_decode_secs(lora_bytes, tp_hbm);
        let sync = self.tp_sync(1);
        move |kv_tokens| {
            let kv_bytes = u64::from(kv_tokens) * self.llm.kv_bytes_per_token();
            let kv_secs = kv_bytes as f64 / tp_hbm;
            self.calib.iter_overhead
                + SimDuration::from_secs_f64(weight_secs + kv_secs + lora_secs)
                + sync
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(LlmSpec::llama_7b(), GpuSpec::a40(), 1)
    }

    /// Figure 2: medium request (256 tokens) TTFT grows from ~70 ms at rank
    /// 8 to ~145 ms at rank 128, with loading ≈15–20 % and adapter exec
    /// ≈35–45 % of the rank-128 total.
    #[test]
    fn figure2_shape_holds() {
        let m = model();
        let lo = m.prefill_breakdown(256, AdapterRank::new(8)).total();
        let hi = m.prefill_breakdown(256, AdapterRank::new(128));
        let total = hi.total();
        let ratio = total.as_secs_f64() / lo.as_secs_f64();
        assert!(
            (1.6..2.4).contains(&ratio),
            "rank-128/rank-8 TTFT ratio {ratio}"
        );
        assert!(
            (0.120..0.170).contains(&total.as_secs_f64()),
            "rank-128 TTFT {total}"
        );
        let load_frac = hi.adapter_load.as_secs_f64() / total.as_secs_f64();
        assert!(
            (0.12..0.25).contains(&load_frac),
            "load fraction {load_frac}"
        );
        let exec_frac = hi.adapter_exec.as_secs_f64() / total.as_secs_f64();
        assert!(
            (0.30..0.50).contains(&exec_frac),
            "exec fraction {exec_frac}"
        );
    }

    /// Figure 2: TTFT is monotone in rank.
    #[test]
    fn ttft_monotone_in_rank() {
        let m = model();
        let mut prev = SimDuration::ZERO;
        for r in AdapterRank::PAPER_SET {
            let t = m.prefill_breakdown(256, r).total();
            assert!(t > prev, "TTFT not monotone at {r}");
            prev = t;
        }
    }

    /// Figure 3: TTFT linear in input size; rank gap widens with input.
    #[test]
    fn figure3_shape_holds() {
        let m = model();
        let t = |tokens, rank| {
            m.prefill_time(&[PrefillItem {
                tokens,
                rank: Some(AdapterRank::new(rank)),
            }])
            .as_secs_f64()
        };
        // Rank-128 at 2000 tokens lands near the paper's ~0.8 s.
        let big = t(2000, 128);
        assert!((0.6..1.0).contains(&big), "r128@2000 = {big}s");
        // Gap between r128 and r8 grows with input size.
        let gap_small = t(250, 128) - t(250, 8);
        let gap_large = t(2000, 128) - t(2000, 8);
        assert!(gap_large > 4.0 * gap_small);
        // Linearity: doubling tokens roughly doubles the non-overhead part.
        let a = t(500, 32);
        let b = t(1000, 32);
        assert!(b > 1.7 * a - 0.02, "not linear: {a} vs {b}");
    }

    /// Figure 5: the loading *fraction* of TTFT increases with TP degree.
    #[test]
    fn figure5_loading_fraction_grows_with_tp() {
        let mut fracs = Vec::new();
        for tp in [2u32, 4, 8] {
            let m = CostModel::new(LlmSpec::llama_70b(), GpuSpec::a100_80gb(), tp);
            let b = m.prefill_breakdown(256, AdapterRank::new(32));
            fracs.push(b.adapter_load.as_secs_f64() / b.total().as_secs_f64());
        }
        assert!(
            fracs[0] < fracs[1] && fracs[1] < fracs[2],
            "fractions not increasing: {fracs:?}"
        );
        // TP4 rank-32 loading fraction is large (paper: 68 %).
        assert!(
            (0.35..0.85).contains(&fracs[1]),
            "TP4 loading fraction {}",
            fracs[1]
        );
    }

    /// Decode is memory-bound: a Llama-7B step on the A40 sits near the
    /// weight-streaming floor (~28 ms) for a single short sequence.
    #[test]
    fn decode_step_near_roofline() {
        let m = model();
        let t = m
            .decode_step_time(&[DecodeItem {
                kv_tokens: 128,
                rank: None,
            }])
            .as_secs_f64();
        assert!((0.025..0.045).contains(&t), "decode step {t}s");
    }

    /// Decode time grows with batch KV but is strongly sublinear in batch
    /// size (batching pays).
    #[test]
    fn decode_batching_amortises() {
        let m = model();
        let one = m.decode_step_time(&[DecodeItem {
            kv_tokens: 256,
            rank: None,
        }]);
        let batch: Vec<DecodeItem> = (0..16)
            .map(|_| DecodeItem {
                kv_tokens: 256,
                rank: None,
            })
            .collect();
        let sixteen = m.decode_step_time(&batch);
        assert!(sixteen < one * 3, "batch16 {sixteen} vs single {one}");
        assert!(sixteen > one);
    }

    /// Distinct adapters add decode cost; duplicate ranks are shared.
    #[test]
    fn decode_lora_deduplicates_ranks() {
        let m = model();
        let mk = |ranks: &[u32]| {
            let batch: Vec<DecodeItem> = ranks
                .iter()
                .map(|&r| DecodeItem {
                    kv_tokens: 100,
                    rank: Some(AdapterRank::new(r)),
                })
                .collect();
            m.decode_step_time(&batch)
        };
        let same = mk(&[32, 32, 32]);
        let mixed = mk(&[8, 32, 128]);
        assert!(mixed > same);
    }

    /// The allocation-free rank dedup sums exactly the distinct ranks a
    /// sort-and-dedup finds, for power-of-two and other ranks alike.
    #[test]
    fn distinct_rank_bytes_matches_sort_dedup() {
        let m = model();
        for ranks in [
            &[][..],
            &[32, 32, 32],
            &[8, 32, 128, 8],
            &[12, 24, 12, 8, 24, 8],
            &[3, 5, 3, 16, 5],
        ] {
            let mut sums = DecodeBatch::default();
            let items = ranks.iter().map(|&r| Some(AdapterRank::new(r)));
            for rank in items.chain([None]) {
                sums.push(
                    m.llm(),
                    DecodeItem {
                        kv_tokens: 100,
                        rank,
                    },
                );
            }
            assert_eq!(sums.items, ranks.len() + 1);
            assert_eq!(
                sums.lora_bytes,
                distinct_rank_bytes(&m, ranks),
                "ranks {ranks:?}"
            );
        }
    }

    /// Adapter bytes of the distinct `ranks`, by sort and dedup.
    fn distinct_rank_bytes(m: &CostModel, ranks: &[u32]) -> u64 {
        let mut distinct = ranks.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        distinct
            .iter()
            .map(|&r| adapter_bytes(m.llm(), AdapterRank::new(r)))
            .sum()
    }

    /// The slice formula the accumulated batch replaced: KV bytes summed
    /// per item, rank bytes found by sort and dedup.
    fn slice_decode_step_time(m: &CostModel, batch: &[DecodeItem]) -> SimDuration {
        if batch.is_empty() {
            return SimDuration::ZERO;
        }
        let kv_bytes = batch
            .iter()
            .map(|i| u64::from(i.kv_tokens) * m.llm().kv_bytes_per_token())
            .sum();
        let ranks: Vec<u32> = batch.iter().filter_map(|i| Some(i.rank?.get())).collect();
        m.decode_step(batch.len(), kv_bytes, distinct_rank_bytes(m, &ranks))
    }

    /// A batch filled in any order prices every generated batch exactly as
    /// the slice formula does, and so does `decode_step_time`:
    /// power-of-two and other ranks, duplicates, base-only items and the
    /// empty batch, at TP 1, 2, 4 and 8.
    #[test]
    fn decode_batch_time_matches_the_slice_formula() {
        const RANKS: [u32; 9] = [8, 16, 32, 64, 128, 3, 12, 24, 100];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut below = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let (mut other_ranks, mut duplicates) = (0, 0);
        for tp in [1, 2, 4, 8] {
            let m = CostModel::new(LlmSpec::llama_7b(), GpuSpec::a40(), tp);
            for _ in 0..200 {
                let len = below(24) as usize;
                let batch: Vec<DecodeItem> = (0..len)
                    .map(|_| DecodeItem {
                        kv_tokens: below(4_000) as u32,
                        rank: (below(8) != 0)
                            .then(|| AdapterRank::new(RANKS[below(RANKS.len() as u64) as usize])),
                    })
                    .collect();
                let ranks: Vec<u32> = batch.iter().filter_map(|i| Some(i.rank?.get())).collect();
                other_ranks += ranks.iter().any(|r| !r.is_power_of_two()) as u32;
                duplicates += (distinct_rank_bytes(&m, &ranks)
                    < ranks
                        .iter()
                        .map(|&r| adapter_bytes(m.llm(), AdapterRank::new(r)))
                        .sum()) as u32;
                let mut sums = DecodeBatch::default();
                for &item in batch.iter().rev() {
                    sums.push(m.llm(), item);
                }
                let want = slice_decode_step_time(&m, &batch);
                assert_eq!(m.decode_batch_time(&sums), want, "tp {tp} batch {batch:?}");
                assert_eq!(m.decode_step_time(&batch), want, "tp {tp} batch {batch:?}");
            }
        }
        assert!(
            other_ranks > 0 && duplicates > 0,
            "{other_ranks} {duplicates}"
        );
    }

    /// A live batch that sequences join and leave in random order while
    /// iterations advance every context prices exactly as a batch rebuilt
    /// from the current sequences, and equals it: power-of-two and other
    /// ranks, duplicates and base-only items, down to the empty batch.
    #[test]
    fn live_batch_matches_a_rebuilt_one() {
        const RANKS: [u32; 7] = [8, 16, 64, 3, 12, 24, 100];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let m = model();
        let mut live = DecodeBatch::default();
        let mut current: Vec<DecodeItem> = Vec::new();
        let (mut left_empty, mut removed_other) = (0, 0);
        for _ in 0..3_000 {
            match below(3) {
                0 if !current.is_empty() => {
                    let item = current.swap_remove(below(current.len() as u64) as usize);
                    removed_other += item.rank.is_some_and(|r| !r.get().is_power_of_two()) as u32;
                    live.remove(m.llm(), item);
                    left_empty += current.is_empty() as u32;
                }
                1 => {
                    live.advance();
                    current.iter_mut().for_each(|i| i.kv_tokens += 1);
                }
                _ => {
                    let item = DecodeItem {
                        kv_tokens: below(2_000) as u32,
                        rank: (below(6) != 0)
                            .then(|| AdapterRank::new(RANKS[below(RANKS.len() as u64) as usize])),
                    };
                    current.push(item);
                    live.push(m.llm(), item);
                }
            }
            let mut rebuilt = DecodeBatch::default();
            for &item in &current {
                rebuilt.push(m.llm(), item);
            }
            assert_eq!(live, rebuilt, "{current:?}");
            assert_eq!(
                m.decode_batch_time(&live),
                slice_decode_step_time(&m, &current)
            );
        }
        assert!(
            left_empty > 0 && removed_other > 0,
            "{left_empty} {removed_other}"
        );
    }

    /// The isolated oracle's hoisted decode loop adds exactly the one-item
    /// `decode_step_time` of every step, at every TP degree.
    #[test]
    fn isolated_latency_sums_one_item_decode_steps() {
        for tp in [1, 2, 4] {
            let m = CostModel::new(LlmSpec::llama_7b(), GpuSpec::a40(), tp);
            for rank in [None, Some(AdapterRank::new(8)), Some(AdapterRank::new(128))] {
                let (ttft, e2e) = m.isolated_latency(300, 40, rank, true);
                let mut want = ttft;
                for step in 1..40 {
                    want += m.decode_step_time(&[DecodeItem {
                        kv_tokens: 300 + step,
                        rank,
                    }]);
                }
                assert_eq!(e2e, want, "tp {tp} rank {rank:?}");
            }
        }
    }

    /// The closed-form uniform step prices exactly what `decode_step_time`
    /// prices for the same number of identical base-only items.
    #[test]
    fn uniform_decode_step_matches_identical_items() {
        for tp in [1, 2, 4, 8] {
            let m = CostModel::new(LlmSpec::llama_7b(), GpuSpec::a40(), tp);
            for kv_tokens in [0, 1, 256, 1537] {
                let mut items = Vec::new();
                for b in 0..=256 {
                    assert_eq!(
                        m.uniform_decode_step_time(b, kv_tokens),
                        m.decode_step_time(&items),
                        "tp {tp} batch {b} kv {kv_tokens}"
                    );
                    items.push(DecodeItem {
                        kv_tokens,
                        rank: None,
                    });
                }
            }
        }
    }

    /// Differences of the running sums price every output length exactly
    /// as the step-by-step isolated loop does, a single token included.
    #[test]
    fn solo_decode_sums_price_isolated_decode() {
        for tp in [1, 2, 4] {
            let m = CostModel::new(LlmSpec::llama_7b(), GpuSpec::a40(), tp);
            for rank in [None, Some(AdapterRank::new(8)), Some(AdapterRank::new(128))] {
                let sums = m.solo_decode_sums(rank, 400);
                assert_eq!(sums.len(), 401);
                assert_eq!(sums[0], SimDuration::ZERO);
                for (input, output) in [(1, 1), (1, 2), (300, 1), (300, 40), (200, 201)] {
                    let (ttft, e2e) = m.isolated_latency(input, output, rank, true);
                    let last = (input + output - 1) as usize;
                    assert_eq!(
                        ttft + (sums[last] - sums[input as usize]),
                        e2e,
                        "tp {tp} rank {rank:?} in {input} out {output}"
                    );
                }
            }
        }
    }

    /// Adapter loads are monotone in size, and small adapters are dominated
    /// by fixed costs (so cost-aware eviction preferring to evict *small*
    /// adapters is rational — §4.2).
    #[test]
    fn load_time_monotone_and_fixed_cost_dominated() {
        let m = model();
        let small = m.adapter_load_time(16 << 20);
        let large = m.adapter_load_time(256 << 20);
        assert!(large > small);
        // 16× the bytes costs well under 16× the time.
        assert!(large.as_secs_f64() < 4.0 * small.as_secs_f64());
        // Rank-128 (256 MB) lands near the paper's ~25 ms.
        assert!(
            (0.020..0.040).contains(&large.as_secs_f64()),
            "256MB load {large}"
        );
    }

    /// TP makes loads absolutely slower despite sharding.
    #[test]
    fn tp_load_slower_than_single_gpu() {
        let single = CostModel::new(LlmSpec::llama_70b(), GpuSpec::a100_80gb(), 1);
        let tp4 = CostModel::new(LlmSpec::llama_70b(), GpuSpec::a100_80gb(), 4);
        let bytes = adapter_bytes(&LlmSpec::llama_70b(), AdapterRank::new(32));
        assert!(tp4.adapter_load_time(bytes) > single.adapter_load_time(bytes));
    }

    /// Isolated latency: E2E dominated by decode for long outputs; TTFT
    /// excludes load when the adapter is warm.
    #[test]
    fn isolated_latency_structure() {
        let m = model();
        let (ttft_cold, e2e) = m.isolated_latency(256, 64, Some(AdapterRank::new(32)), true);
        let (ttft_warm, _) = m.isolated_latency(256, 64, Some(AdapterRank::new(32)), false);
        assert!(ttft_cold > ttft_warm);
        assert!(e2e > ttft_cold + SimDuration::from_millis(63 * 25));
        let (ttft_base, _) = m.isolated_latency(256, 64, None, true);
        assert!(ttft_base < ttft_warm, "LoRA adds compute");
    }

    /// Empty batches cost nothing.
    #[test]
    fn empty_batches_are_free() {
        let m = model();
        assert_eq!(m.prefill_time(&[]), SimDuration::ZERO);
        assert_eq!(m.decode_step_time(&[]), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "TP degree")]
    fn rejects_non_power_of_two_tp() {
        let _ = CostModel::new(LlmSpec::llama_7b(), GpuSpec::a40(), 3);
    }

    /// Link occupancy never exceeds the full load latency and scales with
    /// bytes.
    #[test]
    fn link_occupancy_bounds() {
        let m = model();
        for bytes in [16u64 << 20, 64 << 20, 256 << 20] {
            let occ = m.adapter_link_occupancy(bytes);
            let load = m.adapter_load_time(bytes);
            assert!(occ <= load);
            assert!(!occ.is_zero());
        }
    }
}
