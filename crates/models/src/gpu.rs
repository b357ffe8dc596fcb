//! GPU platform specifications.
//!
//! The paper evaluates on an NVIDIA A40 (48 GB) and an A100 configured with
//! 24/48/80 GB (§5.1, §5.5). Peak numbers come from the public datasheets;
//! the *effective* host→GPU copy bandwidth is calibrated so that a rank-128
//! Llama-7B adapter (256 MB) loads in ≈25 ms, matching the 17.5 % loading
//! share of the 144 ms TTFT in Figure 2.

use serde::{Deserialize, Serialize};

/// A GPU platform: memory capacity, bandwidths and compute throughput.
///
/// ```
/// use chameleon_models::GpuSpec;
/// let a40 = GpuSpec::a40();
/// assert_eq!(a40.memory_bytes(), 48 * (1 << 30));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    name: String,
    memory_bytes: u64,
    hbm_bytes_per_sec: f64,
    peak_fp16_flops: f64,
    /// Raw PCIe link capacity (for contention accounting).
    pcie_bytes_per_sec: f64,
    /// Achievable host→GPU copy bandwidth including driver, pinning and
    /// launch overheads — what an adapter transfer actually sees.
    effective_copy_bytes_per_sec: f64,
}

impl GpuSpec {
    /// Creates a custom GPU description.
    ///
    /// # Panics
    ///
    /// Panics if any capacity or rate is non-positive.
    pub fn new(
        name: impl Into<String>,
        memory_bytes: u64,
        hbm_bytes_per_sec: f64,
        peak_fp16_flops: f64,
        pcie_bytes_per_sec: f64,
        effective_copy_bytes_per_sec: f64,
    ) -> Self {
        assert!(memory_bytes > 0);
        assert!(hbm_bytes_per_sec > 0.0 && peak_fp16_flops > 0.0);
        assert!(pcie_bytes_per_sec > 0.0 && effective_copy_bytes_per_sec > 0.0);
        assert!(
            effective_copy_bytes_per_sec <= pcie_bytes_per_sec,
            "effective copy bandwidth cannot exceed the raw link"
        );
        GpuSpec {
            name: name.into(),
            memory_bytes,
            hbm_bytes_per_sec,
            peak_fp16_flops,
            pcie_bytes_per_sec,
            effective_copy_bytes_per_sec,
        }
    }

    /// NVIDIA A40: 48 GB GDDR6, 696 GB/s, 149.7 TFLOPS fp16 (dense),
    /// PCIe 4.0 x16. The paper's primary platform.
    pub fn a40() -> Self {
        GpuSpec::new("A40", 48 * (1 << 30), 696e9, 149.7e12, 31.5e9, 10e9)
    }

    /// NVIDIA A100 80 GB SXM: 2039 GB/s HBM2e, 312 TFLOPS fp16.
    pub fn a100_80gb() -> Self {
        GpuSpec::new("A100-80GB", 80 * (1 << 30), 2039e9, 312e12, 31.5e9, 12e9)
    }

    /// A100 artificially capped at 24 GB (§5.5 memory-scalability study).
    pub fn a100_24gb() -> Self {
        GpuSpec::new("A100-24GB", 24 * (1 << 30), 2039e9, 312e12, 31.5e9, 12e9)
    }

    /// Platform name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Device memory capacity in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.memory_bytes
    }

    /// Device memory bandwidth (bytes/second).
    pub fn hbm_bytes_per_sec(&self) -> f64 {
        self.hbm_bytes_per_sec
    }

    /// Peak dense fp16 throughput (FLOP/second).
    pub fn peak_fp16_flops(&self) -> f64 {
        self.peak_fp16_flops
    }

    /// Achievable host→GPU copy bandwidth (bytes/second).
    pub fn effective_copy_bytes_per_sec(&self) -> f64 {
        self.effective_copy_bytes_per_sec
    }

    /// Returns a copy with a different memory capacity, used by the §5.5
    /// memory-scaling study.
    pub fn with_memory_bytes(&self, memory_bytes: u64) -> Self {
        assert!(memory_bytes > 0);
        let mut g = self.clone();
        g.memory_bytes = memory_bytes;
        g.name = format!("{}@{}GB", self.name, memory_bytes >> 30);
        g
    }
}

impl std::fmt::Display for GpuSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a40_matches_datasheet() {
        let g = GpuSpec::a40();
        assert_eq!(g.memory_bytes() >> 30, 48);
        assert!((g.hbm_bytes_per_sec() - 696e9).abs() < 1.0);
        assert!((g.peak_fp16_flops() - 149.7e12).abs() < 1.0);
    }

    #[test]
    fn adapter_load_calibration() {
        // A rank-128 Llama-7B adapter is 256 MB (2 MB/rank, see adapter.rs);
        // at the calibrated copy bandwidth it should take ~25 ms, matching
        // the 17.5 % loading share of Figure 2's 144 ms TTFT.
        let g = GpuSpec::a40();
        let bytes = 256.0 * 1024.0 * 1024.0;
        let secs = bytes / g.effective_copy_bytes_per_sec();
        assert!((0.022..0.030).contains(&secs), "load time {secs}s");
    }

    #[test]
    fn memory_override() {
        let g = GpuSpec::a100_80gb().with_memory_bytes(24 * (1 << 30));
        assert_eq!(g.memory_bytes() >> 30, 24);
        assert!(g.name().contains("24GB"));
        // Bandwidths unchanged.
        assert_eq!(
            g.hbm_bytes_per_sec(),
            GpuSpec::a100_80gb().hbm_bytes_per_sec()
        );
    }

    #[test]
    fn a100_variants_share_compute() {
        let a = GpuSpec::a100_24gb();
        let b = GpuSpec::a100_80gb();
        assert_eq!(a.peak_fp16_flops(), b.peak_fp16_flops());
        assert!(a.memory_bytes() < b.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "effective copy bandwidth")]
    fn rejects_impossible_copy_bandwidth() {
        let _ = GpuSpec::new("bad", 1, 1.0, 1.0, 1.0, 2.0);
    }
}
