//! Engine configuration.

use crate::kv_spec::KvSpec;
use chameleon_models::{GpuSpec, LlmSpec};
use chameleon_simcore::SimDuration;

/// KV block size in tokens.
pub(crate) const KV_BLOCK_TOKENS: u32 = 16;
/// Prompt tokens processed per iteration in chunked-prefill mode.
pub(crate) const PREFILL_CHUNK_TOKENS: u32 = 512;
/// Maximum prompt tokens batched into one (non-chunked) prefill
/// iteration; pending prompts beyond this wait for the next iteration.
/// Bounds the decode stall a prefill iteration can cause (LightLLM's max
/// new-batch input cap).
pub(crate) const MAX_PREFILL_BATCH_TOKENS: u32 = 768;
/// Look-ahead window for predictive prefetch.
pub(crate) const PREFETCH_WINDOW: SimDuration = SimDuration::from_secs(10);
/// Maximum adapters to prefetch speculatively per opportunity.
pub(crate) const PREFETCH_DEPTH: usize = 4;
/// Fraction of GPU memory reserved for activation workspace.
pub(crate) const ACTIVATION_HEADROOM: f64 = 0.04;

/// Static configuration of one serving engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Base model served.
    pub llm: LlmSpec,
    /// GPU platform (per device when tensor-parallel).
    pub gpu: GpuSpec,
    /// Tensor-parallel degree (1 = single GPU).
    pub tp_degree: u32,
    /// Maximum concurrent requests in the running batch.
    pub max_batch_requests: usize,
    /// Sarathi-style chunked prefill: prompts are processed in chunks
    /// folded into decode iterations, prioritising decode latency.
    pub chunked_prefill: bool,
    /// Asynchronously prefetch adapters of queued requests (§2: S-LoRA and
    /// Chameleon both do this).
    pub prefetch_queued: bool,
    /// Histogram-based predictive prefetch of adapters for requests that
    /// have not arrived yet (§4.2 3; evaluated separately in Figure 18).
    pub predictive_prefetch: bool,
    /// S-LoRA batch semantics (§2): "Before it sends the batch to the
    /// inference engine on the GPU, the scheduler also loads any missing
    /// adapters required by the requests in the batch" — the engine stalls
    /// while an admitted request's adapter is in flight. Chameleon's cache
    /// manager is asynchronous and clears this flag.
    pub block_on_load: bool,
    /// Scheduler/cache reconfiguration period (`T_refresh`, §4.3.4).
    pub refresh_interval: SimDuration,
    /// Memory-occupancy sampling period (Figure 6).
    pub mem_sample_interval: SimDuration,
    /// Unified GPU-memory economy: KV-aware admission control and the
    /// Apt-Serve-style hybrid cache. `None` (the default) keeps the
    /// optimistic allocate-then-unwind baseline byte-identical to the
    /// digest-pinned oracles.
    pub kv: Option<KvSpec>,
}

impl EngineConfig {
    /// A sensible default configuration for `llm` on `gpu` (single GPU).
    pub fn new(llm: LlmSpec, gpu: GpuSpec) -> Self {
        EngineConfig {
            llm,
            gpu,
            tp_degree: 1,
            max_batch_requests: 256,
            chunked_prefill: false,
            prefetch_queued: true,
            predictive_prefetch: false,
            block_on_load: false,
            refresh_interval: SimDuration::from_secs(300),
            mem_sample_interval: SimDuration::from_secs(1),
            kv: None,
        }
    }

    /// Sets the tensor-parallel degree.
    pub fn with_tp(mut self, tp: u32) -> Self {
        self.tp_degree = tp;
        self
    }

    /// Total GPU memory across the TP group.
    pub fn total_memory_bytes(&self) -> u64 {
        self.gpu.memory_bytes() * u64::from(self.tp_degree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::new(LlmSpec::llama_7b(), GpuSpec::a40());
        assert_eq!(c.tp_degree, 1);
        assert!(c.max_batch_requests > 0);
        assert!(c.prefetch_queued);
        assert!(!c.predictive_prefetch);
        const { assert!(ACTIVATION_HEADROOM < 0.5) };
    }

    #[test]
    fn tp_multiplies_memory() {
        let c = EngineConfig::new(LlmSpec::llama_7b(), GpuSpec::a100_80gb()).with_tp(4);
        assert_eq!(
            c.total_memory_bytes(),
            4 * GpuSpec::a100_80gb().memory_bytes()
        );
    }
}
