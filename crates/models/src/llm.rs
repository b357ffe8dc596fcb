//! Base-LLM architecture specifications.
//!
//! All sizes are derived from the public architecture cards of the models
//! the paper evaluates (§5.1): the Llama family, plus OPT, which the
//! authors report showing "similar trends".

use serde::{Deserialize, Serialize};

/// Bytes per parameter/activation element. The paper serves fp16 models.
pub const DTYPE_BYTES: u64 = 2;

/// Architecture description of a dense decoder-only LLM.
///
/// ```
/// use chameleon_models::LlmSpec;
/// let m = LlmSpec::llama_7b();
/// assert_eq!(m.layers(), 32);
/// assert_eq!(m.hidden(), 4096);
/// // fp16 weights ≈ 13.5 GB
/// assert!((m.weight_bytes() as f64 / 1e9) > 13.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LlmSpec {
    name: String,
    /// Total parameter count.
    params: u64,
    /// Number of transformer layers.
    layers: u32,
    /// Model (embedding) dimension.
    hidden: u32,
    /// Number of attention heads.
    heads: u32,
    /// Number of key/value heads (< `heads` under grouped-query attention).
    kv_heads: u32,
}

impl LlmSpec {
    /// Creates a custom architecture.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `kv_heads > heads`.
    pub fn new(
        name: impl Into<String>,
        params: u64,
        layers: u32,
        hidden: u32,
        heads: u32,
        kv_heads: u32,
    ) -> Self {
        assert!(params > 0 && layers > 0 && hidden > 0 && heads > 0 && kv_heads > 0);
        assert!(kv_heads <= heads, "kv_heads must not exceed heads");
        assert!(
            hidden.is_multiple_of(heads),
            "hidden must divide evenly into heads"
        );
        LlmSpec {
            name: name.into(),
            params,
            layers,
            hidden,
            heads,
            kv_heads,
        }
    }

    /// Llama-7B: the paper's primary model (A40 experiments, Figures 2–22).
    pub fn llama_7b() -> Self {
        LlmSpec::new("Llama-7B", 6_738_000_000, 32, 4096, 32, 32)
    }

    /// Llama-13B (scalability study, Figure 23).
    pub fn llama_13b() -> Self {
        LlmSpec::new("Llama-13B", 13_016_000_000, 40, 5120, 40, 40)
    }

    /// Llama-30B (scalability study, Figure 23).
    pub fn llama_30b() -> Self {
        LlmSpec::new("Llama-30B", 32_529_000_000, 60, 6656, 52, 52)
    }

    /// Llama-70B with grouped-query attention (TP study, Figure 5).
    pub fn llama_70b() -> Self {
        LlmSpec::new("Llama-70B", 68_977_000_000, 80, 8192, 64, 8)
    }

    /// OPT-13B (§5.1: "similar trends").
    pub fn opt_13b() -> Self {
        LlmSpec::new("OPT-13B", 12_853_000_000, 40, 5120, 40, 40)
    }

    /// Human-readable model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total parameter count.
    pub fn params(&self) -> u64 {
        self.params
    }

    /// Transformer layer count.
    pub fn layers(&self) -> u32 {
        self.layers
    }

    /// Model (embedding) dimension.
    pub fn hidden(&self) -> u32 {
        self.hidden
    }

    /// Attention head count.
    pub fn heads(&self) -> u32 {
        self.heads
    }

    /// Key/value head count (grouped-query attention).
    pub fn kv_heads(&self) -> u32 {
        self.kv_heads
    }

    /// Per-head dimension.
    pub fn head_dim(&self) -> u32 {
        self.hidden / self.heads
    }

    /// Bytes of GPU memory the fp16 weights occupy.
    pub fn weight_bytes(&self) -> u64 {
        self.params * DTYPE_BYTES
    }

    /// Bytes of KV cache consumed per token: K and V vectors for every
    /// layer, at the (possibly grouped) KV width.
    ///
    /// Llama-7B: `2 · 32 · 4096 · 2 B = 512 KiB/token`.
    pub fn kv_bytes_per_token(&self) -> u64 {
        let kv_width = u64::from(self.kv_heads) * u64::from(self.head_dim());
        2 * u64::from(self.layers) * kv_width * DTYPE_BYTES
    }

    /// FLOPs of one forward pass over `tokens` tokens (the standard
    /// `2 · params · tokens` dense-decoder estimate).
    pub fn forward_flops(&self, tokens: u64) -> f64 {
        2.0 * self.params as f64 * tokens as f64
    }
}

impl std::fmt::Display for LlmSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama7b_geometry() {
        let m = LlmSpec::llama_7b();
        assert_eq!(m.name(), "Llama-7B");
        assert_eq!(m.head_dim(), 128);
        // 2 * 32 * 4096 * 2 = 512 KiB per token.
        assert_eq!(m.kv_bytes_per_token(), 524_288);
        // ~13.5 GB of weights in fp16.
        let gb = m.weight_bytes() as f64 / 1e9;
        assert!((13.0..14.0).contains(&gb), "weights {gb} GB");
    }

    #[test]
    fn llama70b_uses_gqa() {
        let m = LlmSpec::llama_70b();
        assert_eq!(m.kv_heads(), 8);
        // GQA shrinks KV bytes/token well below the MHA equivalent.
        let mha_equiv = 2 * 80 * 8192 * 2;
        assert!(m.kv_bytes_per_token() < mha_equiv / 4);
    }

    #[test]
    fn model_sizes_are_ordered() {
        let sizes: Vec<u64> = [
            LlmSpec::llama_7b(),
            LlmSpec::llama_13b(),
            LlmSpec::llama_30b(),
            LlmSpec::llama_70b(),
        ]
        .iter()
        .map(|m| m.weight_bytes())
        .collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn forward_flops_scales_linearly() {
        let m = LlmSpec::llama_7b();
        assert_eq!(m.forward_flops(200), 2.0 * m.forward_flops(100));
    }

    #[test]
    #[should_panic(expected = "kv_heads must not exceed heads")]
    fn rejects_bad_gqa() {
        let _ = LlmSpec::new("bad", 1, 1, 128, 4, 8);
    }

    #[test]
    fn display_is_name() {
        assert_eq!(LlmSpec::opt_13b().to_string(), "OPT-13B");
    }
}
