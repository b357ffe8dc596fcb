//! Paged KV-cache allocation.
//!
//! S-LoRA (like vLLM) allocates KV memory in fixed-size token blocks so that
//! sequences can grow during decode without reserving their worst case up
//! front. [`KvAllocator`] reproduces that: each running sequence owns
//! `ceil(tokens / block_size)` blocks, growth allocates blocks on demand,
//! and all bytes are accounted against [`Region::KvCache`] in the shared
//! [`MemoryPool`].
//!
//! Sequences live in a slot table addressed by the [`KvSeq`] handle that
//! [`KvAllocator::allocate`] returns, so a grow is an index, not a hash
//! lookup. Freed slots are reused, so the table holds as many slots as
//! sequences and proxies were ever live at once; each slot's generation
//! makes a handle that outlived its sequence panic instead of reaching the
//! slot's next owner. A set of the live owners' request ids keeps the
//! one-sequence-per-request check of each allocation O(1).

use crate::memory::{MemoryPool, OutOfMemory, Region};
use chameleon_workload::{IdHashBuilder, RequestId};
use std::collections::HashSet;

/// Default tokens per KV block (vLLM/S-LoRA use 16).
pub const DEFAULT_BLOCK_TOKENS: u32 = 16;

/// A sequence's handle: its slot in the allocator's table and the slot's
/// generation at allocation. It stays valid across demotion and restore
/// and dies when the sequence is freed or its proxy dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvSeq {
    slot: u32,
    generation: u32,
}

/// What a slot of the table holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeqState {
    /// Free for the next allocation.
    Vacant,
    /// Full block-granular KV.
    Full { tokens: u32, blocks: u32 },
    /// A demoted sequence's compact hidden-state proxy, in bytes.
    Proxy { bytes: u64 },
}

#[derive(Debug, Clone)]
struct SeqSlot {
    /// The request owning the slot (for misuse checks and messages).
    id: RequestId,
    generation: u32,
    state: SeqState,
}

/// Block-granular KV-cache allocator backed by a [`MemoryPool`].
///
/// ```
/// use chameleon_gpu::kv::KvAllocator;
/// use chameleon_gpu::memory::MemoryPool;
/// use chameleon_workload::RequestId;
///
/// let mut mem = MemoryPool::new(1 << 30);
/// let mut kv = KvAllocator::new(1024, 16); // 1 KiB per token, 16-token blocks
/// let seq = kv.allocate(&mut mem, RequestId(0), 100).unwrap();
/// assert_eq!(kv.tokens_of(seq), Some(100));
/// kv.grow(&mut mem, seq, 1).unwrap();
/// kv.free(&mut mem, seq);
/// assert_eq!(mem.free(), 1 << 30);
/// ```
#[derive(Debug, Clone)]
pub struct KvAllocator {
    bytes_per_token: u64,
    block_tokens: u32,
    /// Sequences and proxies by [`KvSeq`] slot.
    slots: Vec<SeqSlot>,
    /// Vacant slots, reused last-freed first.
    vacant: Vec<u32>,
    /// The requests owning a live slot.
    owners: HashSet<RequestId, IdHashBuilder>,
    total_blocks: u64,
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
            slots: Vec::new(),
            vacant: Vec::new(),
            owners: HashSet::default(),
            total_blocks: 0,
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

    /// The live slot `seq` names, `None` once it was freed.
    fn slot(&self, seq: KvSeq) -> Option<&SeqSlot> {
        self.slots
            .get(seq.slot as usize)
            .filter(|s| s.generation == seq.generation && s.state != SeqState::Vacant)
    }

    /// The state of `seq`'s live slot, for a transition.
    fn state_mut(&mut self, seq: KvSeq) -> Option<&mut SeqState> {
        self.slots
            .get_mut(seq.slot as usize)
            .filter(|s| s.generation == seq.generation && s.state != SeqState::Vacant)
            .map(|s| &mut s.state)
    }

    /// Frees `seq`'s slot for reuse; later uses of `seq` panic.
    fn vacate(&mut self, seq: KvSeq) {
        let s = &mut self.slots[seq.slot as usize];
        s.state = SeqState::Vacant;
        s.generation = s.generation.wrapping_add(1);
        self.owners.remove(&s.id);
        self.vacant.push(seq.slot);
    }

    /// Registers a new sequence holding `tokens` tokens (its prompt) and
    /// returns its handle.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the pool cannot hold the blocks; nothing
    /// is allocated in that case.
    ///
    /// # Panics
    ///
    /// Panics if `id` already holds a sequence or a proxy.
    pub fn allocate(
        &mut self,
        mem: &mut MemoryPool,
        id: RequestId,
        tokens: u32,
    ) -> Result<KvSeq, OutOfMemory> {
        assert!(!self.owners.contains(&id), "{id} already has KV state");
        let blocks = self.blocks_for(tokens);
        mem.reserve(Region::KvCache, u64::from(blocks) * self.block_bytes())?;
        self.owners.insert(id);
        self.total_blocks += u64::from(blocks);
        let state = SeqState::Full { tokens, blocks };
        let seq = match self.vacant.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                (s.id, s.state) = (id, state);
                KvSeq {
                    slot,
                    generation: s.generation,
                }
            }
            None => {
                self.slots.push(SeqSlot {
                    id,
                    generation: 0,
                    state,
                });
                KvSeq {
                    slot: (self.slots.len() - 1) as u32,
                    generation: 0,
                }
            }
        };
        Ok(seq)
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
    /// Panics if `seq` holds no full KV (freed, or demoted to a proxy).
    pub fn grow(
        &mut self,
        mem: &mut MemoryPool,
        seq: KvSeq,
        new_tokens: u32,
    ) -> Result<(), OutOfMemory> {
        let (block_tokens, block_bytes) = (self.block_tokens, self.block_bytes());
        // The table is borrowed field by field here, so the block total
        // can update while the slot is held.
        let slot = self.slots.get_mut(seq.slot as usize);
        let Some(SeqSlot {
            state: SeqState::Full { tokens, blocks },
            ..
        }) = slot.filter(|s| s.generation == seq.generation)
        else {
            panic!("{seq:?} unknown");
        };
        let target_tokens = *tokens + new_tokens;
        let target_blocks = target_tokens.div_ceil(block_tokens);
        if target_blocks > *blocks {
            let extra = target_blocks - *blocks;
            mem.reserve(Region::KvCache, u64::from(extra) * block_bytes)?;
            self.total_blocks += u64::from(extra);
        }
        (*tokens, *blocks) = (target_tokens, target_blocks);
        Ok(())
    }

    /// Releases all KV state of a sequence.
    ///
    /// # Panics
    ///
    /// Panics if `seq` holds no full KV (freed, or demoted to a proxy).
    pub fn free(&mut self, mem: &mut MemoryPool, seq: KvSeq) {
        let Some(&mut SeqState::Full { blocks, .. }) = self.state_mut(seq) else {
            panic!("{seq:?} unknown");
        };
        mem.release(Region::KvCache, u64::from(blocks) * self.block_bytes());
        self.total_blocks -= u64::from(blocks);
        self.vacate(seq);
    }

    /// Demotes a full sequence to a compact hidden-state proxy entry
    /// (Apt-Serve's hybrid cache): all blocks are released and
    /// `ratio` of the freed bytes (at least one) stays resident as the
    /// proxy. The handle now names the proxy. Returns
    /// `(full_bytes_freed, proxy_bytes)`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` already holds a proxy or is not a live sequence, or
    /// `ratio` is not in `(0, 1)`.
    pub fn demote(&mut self, mem: &mut MemoryPool, seq: KvSeq, ratio: f64) -> (u64, u64) {
        assert!(ratio > 0.0 && ratio < 1.0, "proxy ratio must be in (0,1)");
        let slot = self.slot(seq).unwrap_or_else(|| panic!("{seq:?} unknown"));
        let id = slot.id;
        let SeqState::Full { blocks, .. } = slot.state else {
            panic!("{id} already demoted");
        };
        let full = u64::from(blocks) * self.block_bytes();
        mem.release(Region::KvCache, full);
        self.total_blocks -= u64::from(blocks);
        let proxy = ((full as f64 * ratio) as u64).max(1);
        // Always fits: strictly less than the bytes just released.
        mem.reserve(Region::KvCache, proxy)
            .expect("proxy smaller than freed KV");
        *self.state_mut(seq).expect("checked live above") = SeqState::Proxy { bytes: proxy };
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
    /// Panics if `seq` holds no proxy: freed, or still a full sequence.
    pub fn restore(
        &mut self,
        mem: &mut MemoryPool,
        seq: KvSeq,
        tokens: u32,
    ) -> Result<u64, OutOfMemory> {
        let slot = self
            .slot(seq)
            .unwrap_or_else(|| panic!("{seq:?} holds no proxy"));
        let id = slot.id;
        let proxy = match slot.state {
            SeqState::Proxy { bytes } => bytes,
            _ => panic!("{id} still has full KV"),
        };
        let blocks = self.blocks_for(tokens);
        mem.reserve(Region::KvCache, u64::from(blocks) * self.block_bytes())?;
        mem.release(Region::KvCache, proxy);
        self.proxy_bytes_total -= proxy;
        *self.state_mut(seq).expect("checked live above") = SeqState::Full { tokens, blocks };
        self.total_blocks += u64::from(blocks);
        Ok(proxy)
    }

    /// Discards a proxy without restoring it (crash / evacuation paths).
    /// Returns the bytes released.
    ///
    /// # Panics
    ///
    /// Panics if `seq` holds no proxy.
    pub fn drop_proxy(&mut self, mem: &mut MemoryPool, seq: KvSeq) -> u64 {
        let Some(&mut SeqState::Proxy { bytes: proxy }) = self.state_mut(seq) else {
            panic!("{seq:?} holds no proxy");
        };
        mem.release(Region::KvCache, proxy);
        self.proxy_bytes_total -= proxy;
        self.vacate(seq);
        proxy
    }

    /// Whether a sequence currently holds a proxy entry.
    pub fn has_proxy(&self, seq: KvSeq) -> bool {
        self.slot(seq)
            .is_some_and(|s| matches!(s.state, SeqState::Proxy { .. }))
    }

    /// Total bytes held by proxy entries.
    pub fn proxy_bytes(&self) -> u64 {
        self.proxy_bytes_total
    }

    /// Tokens currently held by a sequence, `None` once it was freed or
    /// while it is demoted.
    pub fn tokens_of(&self, seq: KvSeq) -> Option<u32> {
        match self.slot(seq)?.state {
            SeqState::Full { tokens, .. } => Some(tokens),
            _ => None,
        }
    }

    /// Number of registered sequences holding full KV (a scan of the
    /// table).
    pub fn num_seqs(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.state, SeqState::Full { .. }))
            .count()
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
        let seq = kv.allocate(&mut mem, RequestId(1), 20).unwrap(); // 2 blocks
        assert_eq!(mem.used(Region::KvCache), 2048);
        kv.grow(&mut mem, seq, 10).unwrap(); // 30 tokens → 2 blocks
        assert_eq!(mem.used(Region::KvCache), 2048);
        kv.grow(&mut mem, seq, 3).unwrap(); // 33 tokens → 3 blocks
        assert_eq!(mem.used(Region::KvCache), 3072);
        assert_eq!(kv.tokens_of(seq), Some(33));
        kv.free(&mut mem, seq);
        assert_eq!(mem.used(Region::KvCache), 0);
        assert_eq!(kv.num_seqs(), 0);
        assert_eq!(kv.total_blocks(), 0);
        assert_eq!(kv.tokens_of(seq), None);
    }

    #[test]
    fn oom_keeps_state_consistent() {
        let mut mem = MemoryPool::new(2048); // room for 2 blocks
        let mut kv = KvAllocator::new(64, 16);
        let seq = kv.allocate(&mut mem, RequestId(1), 16).unwrap();
        // 3 more blocks don't fit, and the failed request holds no slot.
        assert!(kv.allocate(&mut mem, RequestId(2), 48).is_err());
        assert_eq!(kv.slots.len(), 1);
        assert_eq!(kv.num_seqs(), 1);
        assert_eq!(kv.total_bytes(), mem.used(Region::KvCache));
        // Growth failure leaves the sequence unchanged.
        kv.grow(&mut mem, seq, 1).unwrap(); // 17 tokens → 2 blocks, fits
        assert!(kv.grow(&mut mem, seq, 32).is_err());
        assert_eq!(kv.tokens_of(seq), Some(17));
        // Once memory frees up, the failed request allocates again.
        kv.free(&mut mem, seq);
        let retry = kv.allocate(&mut mem, RequestId(2), 32).unwrap(); // 2 blocks
        assert_eq!(kv.tokens_of(retry), Some(32));
        assert_eq!(kv.num_seqs(), 1);
        assert_eq!(kv.total_bytes(), mem.used(Region::KvCache));
    }

    #[test]
    fn demote_restore_roundtrip() {
        let (mut mem, mut kv) = setup();
        let seq = kv.allocate(&mut mem, RequestId(1), 33).unwrap(); // 3 blocks
        assert_eq!(mem.used(Region::KvCache), 3072);
        let (full, proxy) = kv.demote(&mut mem, seq, 0.125);
        assert_eq!(full, 3072);
        assert_eq!(proxy, 384);
        assert!(kv.has_proxy(seq));
        assert_eq!(kv.tokens_of(seq), None);
        assert_eq!(kv.proxy_bytes(), 384);
        assert_eq!(mem.used(Region::KvCache), 384);
        assert_eq!(kv.total_bytes(), mem.used(Region::KvCache));
        let moved = kv.restore(&mut mem, seq, 40).unwrap(); // 3 blocks
        assert_eq!(moved, 384);
        assert!(!kv.has_proxy(seq));
        assert_eq!(kv.tokens_of(seq), Some(40));
        assert_eq!(kv.proxy_bytes(), 0);
        assert_eq!(mem.used(Region::KvCache), 3072);
        assert_eq!(kv.total_bytes(), mem.used(Region::KvCache));
        kv.free(&mut mem, seq);
        assert_eq!(mem.used(Region::KvCache), 0);
    }

    #[test]
    fn failed_restore_keeps_the_proxy() {
        let mut mem = MemoryPool::new(4096); // 4 blocks
        let mut kv = KvAllocator::new(64, 16);
        let seq = kv.allocate(&mut mem, RequestId(1), 48).unwrap(); // 3 blocks
        kv.demote(&mut mem, seq, 0.5);
        // Eat the freed memory so the full footprint no longer fits.
        mem.reserve(Region::Activations, mem.free()).unwrap();
        assert!(kv.restore(&mut mem, seq, 48).is_err());
        assert!(kv.has_proxy(seq));
        assert_eq!(kv.total_bytes(), mem.used(Region::KvCache));
        assert_eq!(kv.drop_proxy(&mut mem, seq), 1536);
        assert_eq!(mem.used(Region::KvCache), 0);
        assert_eq!(kv.total_bytes(), 0);
        assert!(!kv.has_proxy(seq));
    }

    #[test]
    fn freed_slots_are_reused_and_stale_handles_see_nothing() {
        let (mut mem, mut kv) = setup();
        let a = kv.allocate(&mut mem, RequestId(1), 16).unwrap();
        kv.free(&mut mem, a);
        let b = kv.allocate(&mut mem, RequestId(2), 32).unwrap();
        assert_ne!(a, b, "a reused slot gets a new generation");
        assert_eq!(kv.slots.len(), 1, "the freed slot was reused");
        assert_eq!(kv.tokens_of(a), None);
        assert!(!kv.has_proxy(a));
        assert_eq!(kv.tokens_of(b), Some(32));
        // A request whose sequence was freed may allocate again.
        let a2 = kv.allocate(&mut mem, RequestId(1), 1).unwrap();
        assert_eq!(kv.slots.len(), 2);
        kv.free(&mut mem, a2);
        kv.free(&mut mem, b);
        assert_eq!(mem.used(Region::KvCache), 0);
    }

    #[test]
    #[should_panic(expected = "holds no proxy")]
    fn restore_without_proxy_panics() {
        let (mut mem, mut kv) = setup();
        let seq = kv.allocate(&mut mem, RequestId(7), 16).unwrap();
        kv.free(&mut mem, seq);
        let _ = kv.restore(&mut mem, seq, 16);
    }

    #[test]
    #[should_panic(expected = "still has full KV")]
    fn restore_of_full_sequence_panics() {
        let (mut mem, mut kv) = setup();
        let seq = kv.allocate(&mut mem, RequestId(7), 16).unwrap();
        let _ = kv.restore(&mut mem, seq, 16);
    }

    #[test]
    #[should_panic(expected = "already demoted")]
    fn double_demote_panics() {
        let (mut mem, mut kv) = setup();
        let seq = kv.allocate(&mut mem, RequestId(7), 16).unwrap();
        kv.demote(&mut mem, seq, 0.5);
        kv.demote(&mut mem, seq, 0.5);
    }

    #[test]
    #[should_panic(expected = "already has KV state")]
    fn double_allocate_panics() {
        let (mut mem, mut kv) = setup();
        kv.allocate(&mut mem, RequestId(1), 1).unwrap();
        let _ = kv.allocate(&mut mem, RequestId(1), 1);
    }

    #[test]
    #[should_panic(expected = "already has KV state")]
    fn allocate_while_demoted_panics() {
        let (mut mem, mut kv) = setup();
        let seq = kv.allocate(&mut mem, RequestId(1), 1).unwrap();
        kv.demote(&mut mem, seq, 0.5);
        let _ = kv.allocate(&mut mem, RequestId(1), 1);
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn free_unknown_panics() {
        let (mut mem, mut kv) = setup();
        let seq = kv.allocate(&mut mem, RequestId(9), 16).unwrap();
        kv.free(&mut mem, seq);
        kv.free(&mut mem, seq);
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn grow_after_free_panics() {
        let (mut mem, mut kv) = setup();
        let seq = kv.allocate(&mut mem, RequestId(9), 16).unwrap();
        kv.free(&mut mem, seq);
        // The slot's next owner must not be reachable through the old handle.
        kv.allocate(&mut mem, RequestId(10), 16).unwrap();
        let _ = kv.grow(&mut mem, seq, 1);
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn grow_while_demoted_panics() {
        let (mut mem, mut kv) = setup();
        let seq = kv.allocate(&mut mem, RequestId(9), 16).unwrap();
        kv.demote(&mut mem, seq, 0.5);
        let _ = kv.grow(&mut mem, seq, 1);
    }

    proptest! {
        /// Arbitrary allocate/grow/free/demote/restore interleavings: the
        /// allocator's view and the memory pool never diverge, and
        /// everything frees cleanly.
        #[test]
        fn prop_no_leaks(ops in proptest::collection::vec((0u64..8, 0u8..5, 1u32..100), 1..200)) {
            let mut mem = MemoryPool::new(1 << 24);
            let mut kv = KvAllocator::new(64, 16);
            let mut seqs: [Option<KvSeq>; 8] = [None; 8];
            for (id, op, tokens) in ops {
                let held = &mut seqs[id as usize];
                let full = held.is_some_and(|s| kv.tokens_of(s).is_some());
                match (op, *held) {
                    (0, None) => {
                        *held = kv.allocate(&mut mem, RequestId(id), tokens).ok();
                    }
                    (1, Some(seq)) if full => {
                        let _ = kv.grow(&mut mem, seq, tokens);
                    }
                    (2, Some(seq)) if full => {
                        kv.free(&mut mem, seq);
                        *held = None;
                    }
                    (3, Some(seq)) if full => {
                        kv.demote(&mut mem, seq, 0.125);
                    }
                    (4, Some(seq)) if kv.has_proxy(seq) => {
                        let _ = kv.restore(&mut mem, seq, tokens);
                    }
                    _ => {}
                }
                prop_assert_eq!(kv.total_bytes(), mem.used(Region::KvCache));
                let live = seqs.iter().flatten().filter(|&&s| kv.tokens_of(s).is_some()).count();
                prop_assert_eq!(kv.num_seqs(), live);
                prop_assert!(kv.slots.len() <= 8, "the table outgrew the live set");
                let owned = kv.slots.iter().filter(|s| s.state != SeqState::Vacant).count();
                prop_assert_eq!(kv.owners.len(), owned);
            }
            for seq in seqs.into_iter().flatten() {
                if kv.tokens_of(seq).is_some() {
                    kv.free(&mut mem, seq);
                } else {
                    kv.drop_proxy(&mut mem, seq);
                }
            }
            prop_assert_eq!(mem.used(Region::KvCache), 0);
            prop_assert_eq!(kv.total_bytes(), 0);
            prop_assert!(kv.owners.is_empty());
        }
    }
}
