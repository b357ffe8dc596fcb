//! Paged KV-cache allocation.
//!
//! S-LoRA (like vLLM) allocates KV memory in fixed-size token blocks so that
//! sequences can grow during decode without reserving their worst case up
//! front. [`KvAllocator`] reproduces that: each running sequence owns
//! `ceil(tokens / block_size)` blocks, growth allocates blocks on demand,
//! and all bytes are accounted against [`Region::KvCache`] in the shared
//! [`MemoryPool`].

use crate::memory::{MemoryPool, OutOfMemory, Region};
use chameleon_workload::RequestId;
use std::collections::HashMap;

/// Default tokens per KV block (vLLM/S-LoRA use 16).
pub const DEFAULT_BLOCK_TOKENS: u32 = 16;

/// Block-granular KV-cache allocator backed by a [`MemoryPool`].
///
/// ```
/// use chameleon_gpu::kv::KvAllocator;
/// use chameleon_gpu::memory::MemoryPool;
/// use chameleon_workload::RequestId;
///
/// let mut mem = MemoryPool::new(1 << 30);
/// let mut kv = KvAllocator::new(1024, 16); // 1 KiB per token, 16-token blocks
/// kv.allocate(&mut mem, RequestId(0), 100).unwrap();
/// assert_eq!(kv.tokens_of(RequestId(0)), Some(100));
/// kv.grow(&mut mem, RequestId(0), 1).unwrap();
/// kv.free(&mut mem, RequestId(0));
/// assert_eq!(mem.free(), 1 << 30);
/// ```
#[derive(Debug, Clone)]
pub struct KvAllocator {
    bytes_per_token: u64,
    block_tokens: u32,
    /// Per-sequence (token count, block count).
    seqs: HashMap<RequestId, (u32, u32)>,
    total_blocks: u64,
    /// Hybrid-cache proxy entries: demoted sequences holding a compact
    /// hidden-state proxy (bytes) instead of full block-granular KV.
    proxies: HashMap<RequestId, u64>,
    proxy_bytes_total: u64,
}

impl KvAllocator {
    /// Creates an allocator for a model with `bytes_per_token` of KV state,
    /// using blocks of `block_tokens` tokens.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(bytes_per_token: u64, block_tokens: u32) -> Self {
        assert!(bytes_per_token > 0 && block_tokens > 0);
        KvAllocator {
            bytes_per_token,
            block_tokens,
            seqs: HashMap::new(),
            total_blocks: 0,
            proxies: HashMap::new(),
            proxy_bytes_total: 0,
        }
    }

    /// Bytes one block occupies.
    pub fn block_bytes(&self) -> u64 {
        self.bytes_per_token * u64::from(self.block_tokens)
    }

    /// Bytes of KV state per token.
    pub fn bytes_per_token(&self) -> u64 {
        self.bytes_per_token
    }

    /// Blocks needed to hold `tokens` tokens.
    pub fn blocks_for(&self, tokens: u32) -> u32 {
        tokens.div_ceil(self.block_tokens)
    }

    /// Bytes needed to hold `tokens` tokens (block-rounded).
    pub fn bytes_for(&self, tokens: u32) -> u64 {
        u64::from(self.blocks_for(tokens)) * self.block_bytes()
    }

    /// Registers a new sequence holding `tokens` tokens (its prompt).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the pool cannot hold the blocks; nothing
    /// is allocated in that case.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered.
    pub fn allocate(
        &mut self,
        mem: &mut MemoryPool,
        id: RequestId,
        tokens: u32,
    ) -> Result<(), OutOfMemory> {
        assert!(!self.seqs.contains_key(&id), "{id} already has KV state");
        let blocks = self.blocks_for(tokens);
        mem.reserve(Region::KvCache, u64::from(blocks) * self.block_bytes())?;
        self.seqs.insert(id, (tokens, blocks));
        self.total_blocks += u64::from(blocks);
        Ok(())
    }

    /// Appends `new_tokens` tokens to a sequence, allocating blocks as
    /// needed (zero bytes when the current block has room).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when a new block is needed but doesn't fit;
    /// the sequence keeps its old size in that case.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not registered.
    pub fn grow(
        &mut self,
        mem: &mut MemoryPool,
        id: RequestId,
        new_tokens: u32,
    ) -> Result<(), OutOfMemory> {
        let (block_tokens, block_bytes) = (self.block_tokens, self.block_bytes());
        let seq = self
            .seqs
            .get_mut(&id)
            .unwrap_or_else(|| panic!("{id} unknown"));
        let target_tokens = seq.0 + new_tokens;
        let target_blocks = target_tokens.div_ceil(block_tokens);
        if target_blocks > seq.1 {
            let extra = target_blocks - seq.1;
            mem.reserve(Region::KvCache, u64::from(extra) * block_bytes)?;
            self.total_blocks += u64::from(extra);
        }
        *seq = (target_tokens, target_blocks);
        Ok(())
    }

    /// Releases all KV state of a sequence.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not registered.
    pub fn free(&mut self, mem: &mut MemoryPool, id: RequestId) {
        let (_, blocks) = self
            .seqs
            .remove(&id)
            .unwrap_or_else(|| panic!("{id} unknown"));
        mem.release(Region::KvCache, u64::from(blocks) * self.block_bytes());
        self.total_blocks -= u64::from(blocks);
    }

    /// Demotes a full sequence to a compact hidden-state proxy entry
    /// (Apt-Serve's hybrid cache): all blocks are released and
    /// `ratio` of the freed bytes (at least one) stays resident as the
    /// proxy. Returns `(full_bytes_freed, proxy_bytes)`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a registered sequence, already holds a
    /// proxy, or `ratio` is not in `(0, 1)`.
    pub fn demote(&mut self, mem: &mut MemoryPool, id: RequestId, ratio: f64) -> (u64, u64) {
        assert!(ratio > 0.0 && ratio < 1.0, "proxy ratio must be in (0,1)");
        assert!(!self.proxies.contains_key(&id), "{id} already demoted");
        let (_, blocks) = self
            .seqs
            .remove(&id)
            .unwrap_or_else(|| panic!("{id} unknown"));
        let full = u64::from(blocks) * self.block_bytes();
        mem.release(Region::KvCache, full);
        self.total_blocks -= u64::from(blocks);
        let proxy = ((full as f64 * ratio) as u64).max(1);
        // Always fits: strictly less than the bytes just released.
        mem.reserve(Region::KvCache, proxy)
            .expect("proxy smaller than freed KV");
        self.proxies.insert(id, proxy);
        self.proxy_bytes_total += proxy;
        (full, proxy)
    }

    /// Restores a demoted sequence to full residency at `tokens` tokens.
    /// The full footprint is reserved *before* the proxy is dropped, so a
    /// failed restore leaves the proxy (and the pool) untouched. Returns
    /// the proxy bytes released (the PCIe transfer the caller models).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the full footprint doesn't fit.
    ///
    /// # Panics
    ///
    /// Panics if `id` holds no proxy or is somehow still a full sequence.
    pub fn restore(
        &mut self,
        mem: &mut MemoryPool,
        id: RequestId,
        tokens: u32,
    ) -> Result<u64, OutOfMemory> {
        assert!(self.proxies.contains_key(&id), "{id} holds no proxy");
        assert!(!self.seqs.contains_key(&id), "{id} still has full KV");
        let blocks = self.blocks_for(tokens);
        mem.reserve(Region::KvCache, u64::from(blocks) * self.block_bytes())?;
        let proxy = self.proxies.remove(&id).unwrap();
        mem.release(Region::KvCache, proxy);
        self.proxy_bytes_total -= proxy;
        self.seqs.insert(id, (tokens, blocks));
        self.total_blocks += u64::from(blocks);
        Ok(proxy)
    }

    /// Discards a proxy without restoring it (crash / evacuation paths).
    /// Returns the bytes released.
    ///
    /// # Panics
    ///
    /// Panics if `id` holds no proxy.
    pub fn drop_proxy(&mut self, mem: &mut MemoryPool, id: RequestId) -> u64 {
        let proxy = self
            .proxies
            .remove(&id)
            .unwrap_or_else(|| panic!("{id} holds no proxy"));
        mem.release(Region::KvCache, proxy);
        self.proxy_bytes_total -= proxy;
        proxy
    }

    /// Whether a sequence currently holds a proxy entry.
    pub fn has_proxy(&self, id: RequestId) -> bool {
        self.proxies.contains_key(&id)
    }

    /// Total bytes held by proxy entries.
    pub fn proxy_bytes(&self) -> u64 {
        self.proxy_bytes_total
    }

    /// Tokens currently held by a sequence, if registered.
    pub fn tokens_of(&self, id: RequestId) -> Option<u32> {
        self.seqs.get(&id).map(|&(t, _)| t)
    }

    /// Number of registered sequences.
    pub fn num_seqs(&self) -> usize {
        self.seqs.len()
    }

    /// Total blocks currently allocated.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Total KV bytes currently allocated: full block-granular sequences
    /// plus resident proxy entries — by construction always equal to the
    /// pool's [`Region::KvCache`] usage.
    pub fn total_bytes(&self) -> u64 {
        self.total_blocks * self.block_bytes() + self.proxy_bytes_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn setup() -> (MemoryPool, KvAllocator) {
        (MemoryPool::new(1 << 20), KvAllocator::new(64, 16))
    }

    #[test]
    fn block_rounding() {
        let (_, kv) = setup();
        assert_eq!(kv.blocks_for(1), 1);
        assert_eq!(kv.blocks_for(16), 1);
        assert_eq!(kv.blocks_for(17), 2);
        assert_eq!(kv.bytes_for(17), 2 * 16 * 64);
        assert_eq!(kv.block_bytes(), 1024);
        assert_eq!(kv.bytes_per_token(), 64);
    }

    #[test]
    fn allocate_grow_free_roundtrip() {
        let (mut mem, mut kv) = setup();
        kv.allocate(&mut mem, RequestId(1), 20).unwrap(); // 2 blocks
        assert_eq!(mem.used(Region::KvCache), 2048);
        kv.grow(&mut mem, RequestId(1), 10).unwrap(); // 30 tokens → 2 blocks
        assert_eq!(mem.used(Region::KvCache), 2048);
        kv.grow(&mut mem, RequestId(1), 3).unwrap(); // 33 tokens → 3 blocks
        assert_eq!(mem.used(Region::KvCache), 3072);
        assert_eq!(kv.tokens_of(RequestId(1)), Some(33));
        kv.free(&mut mem, RequestId(1));
        assert_eq!(mem.used(Region::KvCache), 0);
        assert_eq!(kv.num_seqs(), 0);
        assert_eq!(kv.total_blocks(), 0);
    }

    #[test]
    fn oom_keeps_state_consistent() {
        let mut mem = MemoryPool::new(2048); // room for 2 blocks
        let mut kv = KvAllocator::new(64, 16);
        kv.allocate(&mut mem, RequestId(1), 16).unwrap();
        // 3 more blocks don't fit.
        assert!(kv.allocate(&mut mem, RequestId(2), 48).is_err());
        assert_eq!(kv.num_seqs(), 1);
        assert_eq!(kv.tokens_of(RequestId(2)), None);
        // Growth failure leaves the sequence unchanged.
        kv.grow(&mut mem, RequestId(1), 1).unwrap(); // 17 tokens → 2 blocks, fits
        assert!(kv.grow(&mut mem, RequestId(1), 32).is_err());
        assert_eq!(kv.tokens_of(RequestId(1)), Some(17));
    }

    #[test]
    fn demote_restore_roundtrip() {
        let (mut mem, mut kv) = setup();
        kv.allocate(&mut mem, RequestId(1), 33).unwrap(); // 3 blocks
        assert_eq!(mem.used(Region::KvCache), 3072);
        let (full, proxy) = kv.demote(&mut mem, RequestId(1), 0.125);
        assert_eq!(full, 3072);
        assert_eq!(proxy, 384);
        assert!(kv.has_proxy(RequestId(1)));
        assert_eq!(kv.tokens_of(RequestId(1)), None);
        assert_eq!(kv.proxy_bytes(), 384);
        assert_eq!(mem.used(Region::KvCache), 384);
        assert_eq!(kv.total_bytes(), mem.used(Region::KvCache));
        let moved = kv.restore(&mut mem, RequestId(1), 40).unwrap(); // 3 blocks
        assert_eq!(moved, 384);
        assert!(!kv.has_proxy(RequestId(1)));
        assert_eq!(kv.tokens_of(RequestId(1)), Some(40));
        assert_eq!(kv.proxy_bytes(), 0);
        assert_eq!(mem.used(Region::KvCache), 3072);
        assert_eq!(kv.total_bytes(), mem.used(Region::KvCache));
        kv.free(&mut mem, RequestId(1));
        assert_eq!(mem.used(Region::KvCache), 0);
    }

    #[test]
    fn failed_restore_keeps_the_proxy() {
        let mut mem = MemoryPool::new(4096); // 4 blocks
        let mut kv = KvAllocator::new(64, 16);
        kv.allocate(&mut mem, RequestId(1), 48).unwrap(); // 3 blocks
        kv.demote(&mut mem, RequestId(1), 0.5);
        // Eat the freed memory so the full footprint no longer fits.
        mem.reserve(Region::Activations, mem.free()).unwrap();
        assert!(kv.restore(&mut mem, RequestId(1), 48).is_err());
        assert!(kv.has_proxy(RequestId(1)));
        assert_eq!(kv.total_bytes(), mem.used(Region::KvCache));
        assert_eq!(kv.drop_proxy(&mut mem, RequestId(1)), 1536);
        assert_eq!(mem.used(Region::KvCache), 0);
        assert_eq!(kv.total_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "holds no proxy")]
    fn restore_without_proxy_panics() {
        let (mut mem, mut kv) = setup();
        let _ = kv.restore(&mut mem, RequestId(7), 16);
    }

    #[test]
    #[should_panic(expected = "already has KV state")]
    fn double_allocate_panics() {
        let (mut mem, mut kv) = setup();
        kv.allocate(&mut mem, RequestId(1), 1).unwrap();
        let _ = kv.allocate(&mut mem, RequestId(1), 1);
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn free_unknown_panics() {
        let (mut mem, mut kv) = setup();
        kv.free(&mut mem, RequestId(9));
    }

    proptest! {
        /// Arbitrary allocate/grow/free/demote/restore interleavings: the
        /// allocator's view and the memory pool never diverge, and
        /// everything frees cleanly.
        #[test]
        fn prop_no_leaks(ops in proptest::collection::vec((0u64..8, 0u8..5, 1u32..100), 1..200)) {
            let mut mem = MemoryPool::new(1 << 24);
            let mut kv = KvAllocator::new(64, 16);
            for (id, op, tokens) in ops {
                let id = RequestId(id);
                match op {
                    0 => {
                        if kv.tokens_of(id).is_none() && !kv.has_proxy(id) {
                            let _ = kv.allocate(&mut mem, id, tokens);
                        }
                    }
                    1 => {
                        if kv.tokens_of(id).is_some() {
                            let _ = kv.grow(&mut mem, id, tokens);
                        }
                    }
                    2 => {
                        if kv.tokens_of(id).is_some() {
                            kv.free(&mut mem, id);
                        }
                    }
                    3 => {
                        if kv.tokens_of(id).is_some() {
                            kv.demote(&mut mem, id, 0.125);
                        }
                    }
                    _ => {
                        if kv.has_proxy(id) {
                            let _ = kv.restore(&mut mem, id, tokens);
                        }
                    }
                }
                prop_assert_eq!(kv.total_bytes(), mem.used(Region::KvCache));
            }
            let ids: Vec<RequestId> = (0..8).map(RequestId).collect();
            for id in ids {
                if kv.tokens_of(id).is_some() {
                    kv.free(&mut mem, id);
                } else if kv.has_proxy(id) {
                    kv.drop_proxy(&mut mem, id);
                }
            }
            prop_assert_eq!(mem.used(Region::KvCache), 0);
            prop_assert_eq!(kv.total_bytes(), 0);
        }
    }
}
