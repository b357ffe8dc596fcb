//! LoRA adapter specifications.
//!
//! A LoRA adapter of rank `r` adds a pair of low-rank matrices
//! (`A: r×h`, `B: h×r`) to each adapted projection of each layer. Following
//! S-LoRA we adapt the four attention projections (Q, K, V, O), which
//! reproduces the paper's §3.2 sizing: a rank-32 adapter for Llama-7B is
//! 64 MB (2 MB per unit of rank).

use crate::llm::{LlmSpec, DTYPE_BYTES};
use serde::{Deserialize, Serialize};

/// Number of projection matrices adapted per layer (Q, K, V, O).
pub const ADAPTED_PROJECTIONS: u64 = 4;

/// Unique identifier of an adapter within a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AdapterId(pub u32);

impl std::fmt::Display for AdapterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "adapter#{}", self.0)
    }
}

/// A set of adapter ids kept as a dense table of epoch stamps: an id is in
/// the set when its entry holds the current epoch, so
/// [`clear`](Self::clear) is one increment and a lookup is one index. The
/// table grows to the largest id inserted and never shrinks.
#[derive(Debug, Clone)]
pub struct AdapterStamps {
    stamps: Vec<u32>,
    /// Never 0, the stamp of an id that was never inserted.
    epoch: u32,
}

impl Default for AdapterStamps {
    fn default() -> Self {
        AdapterStamps {
            stamps: Vec::new(),
            epoch: 1,
        }
    }
}

impl AdapterStamps {
    /// Empties the set.
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // After 2^32 clears, old stamps would read as current again.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Adds `id`, returning whether it was absent.
    pub fn insert(&mut self, id: AdapterId) -> bool {
        let i = id.0 as usize;
        if i >= self.stamps.len() {
            self.stamps.resize(i + 1, 0);
        }
        let absent = self.stamps[i] != self.epoch;
        self.stamps[i] = self.epoch;
        absent
    }

    /// True when `id` is in the set.
    pub fn contains(&self, id: AdapterId) -> bool {
        self.stamps.get(id.0 as usize) == Some(&self.epoch)
    }
}

/// A LoRA rank — the paper sweeps {8, 16, 32, 64, 128}.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AdapterRank(u32);

impl AdapterRank {
    /// The five ranks used throughout the paper's evaluation (§5.1).
    pub const PAPER_SET: [AdapterRank; 5] = [
        AdapterRank(8),
        AdapterRank(16),
        AdapterRank(32),
        AdapterRank(64),
        AdapterRank(128),
    ];

    /// Creates a rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is zero.
    pub fn new(rank: u32) -> Self {
        assert!(rank > 0, "rank must be positive");
        AdapterRank(rank)
    }

    /// The raw rank value.
    pub fn get(self) -> u32 {
        self.0
    }
}

impl From<AdapterRank> for u32 {
    fn from(r: AdapterRank) -> u32 {
        r.0
    }
}

impl std::fmt::Display for AdapterRank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A concrete adapter: identity, rank, and derived sizes for a base model.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AdapterSpec {
    id: AdapterId,
    rank: AdapterRank,
    bytes: u64,
}

impl AdapterSpec {
    /// Creates an adapter of `rank` for `base`, deriving its weight size.
    pub fn new(id: AdapterId, rank: AdapterRank, base: &LlmSpec) -> Self {
        AdapterSpec {
            id,
            rank,
            bytes: adapter_bytes(base, rank),
        }
    }

    /// The adapter's identity.
    pub fn id(&self) -> AdapterId {
        self.id
    }

    /// The adapter's rank.
    pub fn rank(&self) -> AdapterRank {
        self.rank
    }

    /// Bytes of GPU memory the adapter weights occupy.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Parameter count of the adapter.
    pub fn params(&self) -> u64 {
        self.bytes / DTYPE_BYTES
    }
}

/// Weight bytes of a rank-`r` adapter over `base`:
/// `layers · ADAPTED_PROJECTIONS · 2 matrices · hidden · r · dtype`.
///
/// For Llama-7B this is exactly `2 MiB · r`, matching §3.2's "a rank 32
/// adapter for Llama-7B is 64 MB".
///
/// ```
/// use chameleon_models::adapter::{adapter_bytes, AdapterRank};
/// use chameleon_models::LlmSpec;
/// let b = adapter_bytes(&LlmSpec::llama_7b(), AdapterRank::new(32));
/// assert_eq!(b, 64 * 1024 * 1024);
/// ```
pub fn adapter_bytes(base: &LlmSpec, rank: AdapterRank) -> u64 {
    u64::from(base.layers())
        * ADAPTED_PROJECTIONS
        * 2
        * u64::from(base.hidden())
        * u64::from(rank.get())
        * DTYPE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn llama7b_rank32_is_64mb() {
        let b = adapter_bytes(&LlmSpec::llama_7b(), AdapterRank::new(32));
        assert_eq!(b, 64 << 20);
    }

    #[test]
    fn llama7b_bytes_are_2mb_per_rank() {
        for r in AdapterRank::PAPER_SET {
            let b = adapter_bytes(&LlmSpec::llama_7b(), r);
            assert_eq!(b, u64::from(r.get()) * (2 << 20));
        }
    }

    #[test]
    fn llama70b_rank32_is_hundreds_of_mb() {
        // §3.2: "its size grows to 256 MB for Llama-70B". Our 4-projection
        // formula gives 320 MB for the 80-layer/8192-hidden geometry — the
        // same order of magnitude, which is all the experiments rely on.
        let b = adapter_bytes(&LlmSpec::llama_70b(), AdapterRank::new(32));
        let mb = b >> 20;
        assert!((200..400).contains(&mb), "70B rank-32 adapter {mb} MB");
    }

    #[test]
    fn spec_derives_bytes() {
        let base = LlmSpec::llama_7b();
        let a = AdapterSpec::new(AdapterId(3), AdapterRank::new(8), &base);
        assert_eq!(a.id(), AdapterId(3));
        assert_eq!(a.rank().get(), 8);
        assert_eq!(a.bytes(), 16 << 20);
        assert_eq!(a.params(), (16 << 20) / 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(AdapterId(5).to_string(), "adapter#5");
        assert_eq!(AdapterRank::new(64).to_string(), "r64");
    }

    #[test]
    fn stamps_insert_contains_and_clear() {
        let mut set = AdapterStamps::default();
        assert!(!set.contains(AdapterId(0)), "a new set is empty");
        assert!(set.insert(AdapterId(7)));
        assert!(!set.insert(AdapterId(7)), "second insert finds it");
        assert!(set.contains(AdapterId(7)));
        assert!(
            !set.contains(AdapterId(3)),
            "the grown table holds no others"
        );
        set.clear();
        assert!(!set.contains(AdapterId(7)));
        assert!(set.insert(AdapterId(7)));
    }

    /// The 2^32nd clear wraps the epoch around; ids stamped in an epoch the
    /// counter reaches again must not reappear.
    #[test]
    fn stamps_survive_the_epoch_wrap() {
        let mut set = AdapterStamps::default();
        assert!(set.insert(AdapterId(2)));
        assert!(set.insert(AdapterId(5)));
        set.clear();
        assert!(set.insert(AdapterId(5)));
        // Skip ahead to the last epochs before the wrap.
        set.epoch = u32::MAX - 1;
        assert!(set.insert(AdapterId(4)));
        set.clear();
        assert!(!set.contains(AdapterId(4)));
        assert!(set.insert(AdapterId(1)));
        set.clear();
        for id in 0..8 {
            assert!(!set.contains(AdapterId(id)), "{id} survived the wrap");
        }
        assert!(set.insert(AdapterId(2)));
        assert!(!set.insert(AdapterId(2)));
        set.clear();
        assert!(!set.contains(AdapterId(2)));
    }

    #[test]
    #[should_panic(expected = "rank must be positive")]
    fn zero_rank_rejected() {
        let _ = AdapterRank::new(0);
    }

    proptest! {
        /// Adapter size is strictly monotone in rank and linear.
        #[test]
        fn prop_bytes_linear_in_rank(r in 1u32..512) {
            let base = LlmSpec::llama_7b();
            let b1 = adapter_bytes(&base, AdapterRank::new(r));
            let b2 = adapter_bytes(&base, AdapterRank::new(2 * r));
            prop_assert_eq!(b2, 2 * b1);
        }
    }
}
