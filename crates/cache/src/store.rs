//! The adapter cache store: residency, reference counts, dynamic sizing.
//!
//! Memory accounting convention (shared with the engine):
//!
//! * adapters with `ref_count > 0` are billed to [`Region::AdaptersInUse`];
//! * idle cached adapters (`ref_count == 0`) are billed to
//!   [`Region::AdapterCache`];
//! * `release` moves an adapter from in-use to cache (Chameleon) or frees
//!   it outright (the S-LoRA discard-on-completion baseline, §2).
//!
//! Eviction candidates are the idle entries, which every policy keeps in
//! one unordered dense table. An eviction pass keys each unprotected
//! candidate once into a reused buffer and takes every victim by a linear
//! min over the keys, with no heap. A key packs the policy's sort words
//! above the adapter id into one `u128`. The keyed policies (LRU/LFU/GDSF)
//! sort by a fixed victim order; the compound policies (FairShare and the
//! §4.2 Chameleon score) by their normalised score, which the pass
//! recomputes only when a victim held a normalisation extremum.
//!
//! [`AdapterCache::make_room`] takes the adapters it should spare as a
//! membership predicate, so a pass asks the caller's own table about each
//! candidate (the engine answers from dense stamps over adapter ids) and
//! probes no hash set.

use crate::policy::{Candidate, EvictionPolicy};
use chameleon_gpu::memory::{MemoryPool, OutOfMemory, Region};
use chameleon_models::{AdapterId, AdapterSpec};
use chameleon_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// Aggregate cache statistics (Figure 14 and §5.3 report these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found the adapter resident.
    pub hits: u64,
    /// Lookups that required a host→GPU load.
    pub misses: u64,
    /// Idle adapters evicted to make room.
    pub evictions: u64,
    /// Bytes of evicted adapter weights.
    pub bytes_evicted: u64,
    /// Bytes of adapter weights loaded from host.
    pub bytes_loaded: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cache-plane decision, journalled for the telemetry overlay.
///
/// The cache crate sits below the trace crate in the dependency order, so
/// it cannot emit `TraceEvent`s directly; instead the engine drains this
/// dependency-free journal after every event it handles and re-tags the
/// entries into its own trace lane. Evict records carry the compound-score
/// *inputs* (bytes, frequency, last-used) so a trace consumer can replay
/// the eviction decision, not just observe its outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheJournalEvent {
    /// An adapter's weights were admitted (freshly loaded).
    Admit {
        /// The admitted adapter.
        adapter: AdapterId,
        /// Bytes of adapter weights.
        bytes: u64,
        /// Reference count at admission (0 = prefetch/pre-warm).
        refs: u32,
    },
    /// An idle adapter was evicted to make room.
    Evict {
        /// The evicted adapter.
        adapter: AdapterId,
        /// Bytes freed.
        bytes: u64,
        /// Frequency counter at eviction (compound-score input).
        frequency: u32,
        /// Last-use instant at eviction (compound-score input).
        last_used: SimTime,
    },
}

#[derive(Debug, Clone)]
struct Entry {
    bytes: u64,
    last_used: SimTime,
    frequency: u32,
    ref_count: u32,
    /// Position in the dense idle table while idle; unused otherwise.
    idle_pos: u32,
}

/// A candidate's eviction key, smallest evicted first: the policy's sort
/// words above the adapter id (see [`pack_key`]). The id breaks ties in
/// the order [`EvictionPolicy::pick_victim`] breaks them, and makes every
/// key distinct, so one integer comparison orders two candidates.
type EvictKey = u128;

/// Packs an eviction key: `lead` above `word` above the adapter id.
fn pack_key(lead: u32, word: u64, id: AdapterId) -> EvictKey {
    u128::from(lead) << 96 | u128::from(word) << 32 | u128::from(id.0)
}

/// The fixed victim-order key of a keyed policy (LRU/LFU/GDSF): the
/// order [`EvictionPolicy::pick_victim`] ranks candidates in.
fn keyed_key(policy: EvictionPolicy, id: AdapterId, c: &Candidate) -> EvictKey {
    match policy {
        EvictionPolicy::Lru => pack_key(0, c.last_used.as_nanos(), id),
        EvictionPolicy::Lfu => pack_key(c.frequency, c.last_used.as_nanos(), id),
        // The GDSF aging floor is added uniformly to every candidate, so
        // ordering by the floor-free base score is ordering by full score.
        // Base scores are finite and non-negative, making the IEEE-754 bit
        // pattern order-preserving as a u64.
        EvictionPolicy::Gdsf => pack_key(0, EvictionPolicy::gdsf_score(c, 0.0).to_bits(), id),
        EvictionPolicy::FairShare | EvictionPolicy::ChameleonScore { .. } => {
            unreachable!("compound policies key by their normalised score")
        }
    }
}

/// Every resident entry of an id-indexed table with its id, in id order.
fn resident_in(entries: &[Option<Entry>]) -> impl Iterator<Item = (AdapterId, &Entry)> + '_ {
    entries
        .iter()
        .enumerate()
        .filter_map(|(i, e)| Some((AdapterId(i as u32), e.as_ref()?)))
}

/// The compound score of [`EvictionPolicy::pick_victim`], computed with
/// the identical expression (term order included, so the bits match) and
/// returned as its IEEE-754 pattern. Scores are finite and non-negative,
/// making the bit pattern order-preserving as a `u64` — the sort word of
/// a compound policy's eviction keys.
#[allow(clippy::too_many_arguments)]
fn compound_score_bits(
    c: &Candidate,
    now: SimTime,
    max_freq: f64,
    max_bytes: f64,
    max_age: f64,
    f: f64,
    r: f64,
    s: f64,
) -> u64 {
    let freq_n = if max_freq > 0.0 {
        c.frequency as f64 / max_freq
    } else {
        0.0
    };
    let age = now.saturating_since(c.last_used).as_secs_f64();
    let rec_n = if max_age > 0.0 {
        1.0 - age / max_age
    } else {
        1.0
    };
    let size_n = if max_bytes > 0.0 {
        c.bytes as f64 / max_bytes
    } else {
        0.0
    };
    (f * freq_n + r * rec_n + s * size_n).to_bits()
}

/// The normalisation extrema a compound scoring divided by: the largest
/// frequency and size, and the oldest last use (the largest age).
type Extrema = (f64, f64, SimTime);

/// Keys every candidate of an eviction pass (adapter `ids[i]` has score
/// inputs `cands[i]`) into `keys`, index for index. Returns the extrema a
/// compound policy's scores were normalised by, and `None` for a keyed
/// policy, whose keys never go stale.
fn key_candidates(
    policy: EvictionPolicy,
    ids: &[AdapterId],
    cands: &[Candidate],
    now: SimTime,
    keys: &mut Vec<EvictKey>,
) -> Option<Extrema> {
    keys.clear();
    let pairs = ids.iter().zip(cands);
    let Some((wf, wr, ws)) = policy.compound_weights() else {
        keys.extend(pairs.map(|(&id, c)| keyed_key(policy, id, c)));
        return None;
    };
    let max_freq = cands.iter().map(|c| c.frequency).max().unwrap_or(0) as f64;
    let max_bytes = cands.iter().map(|c| c.bytes).max().unwrap_or(0) as f64;
    let max_age = cands
        .iter()
        .map(|c| now.saturating_since(c.last_used).as_secs_f64())
        .fold(0.0f64, f64::max);
    let min_last = cands.iter().map(|c| c.last_used).min().unwrap_or(now);
    keys.extend(pairs.map(|(&id, c)| {
        let score = compound_score_bits(c, now, max_freq, max_bytes, max_age, wf, wr, ws);
        pack_key(0, score, id)
    }));
    Some((max_freq, max_bytes, min_last))
}

/// The Chameleon Adapter Cache (§4.2) plus the in-use residency table.
///
/// One instance exists per engine ("each LLM replica has its own local
/// adapter cache"). Entries live in a table indexed by adapter id, sized
/// once from the adapter pool with [`size_for_pool`](Self::size_for_pool)
/// (the engine does this at construction): residency is one `Vec` index,
/// and an id outside the table is simply not resident.
#[derive(Debug, Clone)]
pub struct AdapterCache {
    policy: EvictionPolicy,
    /// Keep idle adapters on release (Chameleon) vs discard them (S-LoRA).
    retain_on_release: bool,
    /// Entries by adapter id; `None` when not resident.
    entries: Vec<Option<Entry>>,
    stats: CacheStats,
    gdsf_floor: f64,
    /// Ids of the idle (`ref_count == 0`) entries, the eviction
    /// candidates, in no particular order; each entry keeps its position
    /// in `idle_pos`.
    idle: Vec<AdapterId>,
    /// Pre-index full-scan eviction: the reference path the eviction
    /// pass is property-tested against.
    #[cfg(test)]
    full_scan_eviction: bool,
    /// What the eviction passes did, for tests that must see every branch.
    #[cfg(test)]
    compound_work: tests::CompoundWork,
    /// Reusable per-pass scratch: the candidates and their keys.
    scan_ids: Vec<AdapterId>,
    scan_cands: Vec<Candidate>,
    scan_keys: Vec<EvictKey>,
    /// Decision journal for the telemetry overlay; `None` (the default)
    /// keeps the admit/evict paths free of any journalling work.
    journal: Option<Vec<CacheJournalEvent>>,
}

impl AdapterCache {
    /// Creates a Chameleon-style cache with the given eviction policy.
    pub fn new(policy: EvictionPolicy) -> Self {
        AdapterCache {
            policy,
            retain_on_release: true,
            entries: Vec::new(),
            stats: CacheStats::default(),
            gdsf_floor: 0.0,
            idle: Vec::new(),
            #[cfg(test)]
            full_scan_eviction: false,
            #[cfg(test)]
            compound_work: tests::CompoundWork::default(),
            scan_ids: Vec::new(),
            scan_cands: Vec::new(),
            scan_keys: Vec::new(),
            journal: None,
        }
    }

    /// Creates the S-LoRA baseline residency table: adapters are discarded
    /// the moment no running request uses them (§2), so nothing is ever
    /// cached idle.
    pub fn discard_mode() -> Self {
        AdapterCache {
            policy: EvictionPolicy::Lru, // irrelevant: no idle entries exist
            retain_on_release: false,
            ..AdapterCache::new(EvictionPolicy::Lru)
        }
    }

    /// Sizes the entry table for a pool of `adapters` adapters (ids
    /// `0..adapters`). Never shrinks the table.
    pub fn size_for_pool(&mut self, adapters: usize) {
        if adapters > self.entries.len() {
            self.entries.resize_with(adapters, || None);
        }
    }

    fn entry(&self, id: AdapterId) -> Option<&Entry> {
        self.entries.get(id.0 as usize)?.as_ref()
    }

    fn entry_mut(&mut self, id: AdapterId) -> Option<&mut Entry> {
        self.entries.get_mut(id.0 as usize)?.as_mut()
    }

    /// Adds a resident entry that just became idle to the idle table.
    fn index_idle(&mut self, id: AdapterId) {
        let e = self.entries[id.0 as usize]
            .as_mut()
            .expect("an indexed entry is resident");
        e.idle_pos = self.idle.len() as u32;
        self.idle.push(id);
    }

    /// Removes an idle entry from the idle table.
    fn unindex_idle(&mut self, id: AdapterId) {
        let pos = self.entries[id.0 as usize]
            .as_ref()
            .expect("an indexed entry is resident")
            .idle_pos as usize;
        self.idle.swap_remove(pos);
        if let Some(&moved) = self.idle.get(pos) {
            self.entries[moved.0 as usize]
                .as_mut()
                .expect("an indexed entry is resident")
                .idle_pos = pos as u32;
        }
    }

    /// Switches eviction to the pre-index full-scan reference
    /// implementation (rebuilds the candidate list from the entry table on
    /// every victim), the oracle of `prop_indexed_eviction_matches_full_scan`.
    #[cfg(test)]
    fn set_full_scan_eviction(&mut self, on: bool) {
        self.full_scan_eviction = on;
    }

    /// Turns on the admit/evict decision journal (see
    /// [`CacheJournalEvent`]). Idempotent; journalling stays off — and
    /// costs nothing — until this is called.
    pub fn enable_journal(&mut self) {
        self.journal.get_or_insert_with(Vec::new);
    }

    /// Drains journalled decisions accumulated since the last drain, in
    /// emission order. Returns an empty vec when journalling is off.
    pub fn drain_journal(&mut self) -> Vec<CacheJournalEvent> {
        match self.journal.as_mut() {
            Some(j) => std::mem::take(j),
            None => Vec::new(),
        }
    }

    /// The configured eviction policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Whether idle adapters are retained (Chameleon) or discarded (S-LoRA).
    pub fn retains_idle(&self) -> bool {
        self.retain_on_release
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// True when the adapter's weights are on the GPU (idle or in use).
    #[inline]
    pub fn is_resident(&self, id: AdapterId) -> bool {
        self.entry(id).is_some()
    }

    /// Reference count of a resident adapter (0 = idle in cache).
    #[inline]
    pub fn ref_count(&self, id: AdapterId) -> Option<u32> {
        self.entry(id).map(|e| e.ref_count)
    }

    /// Number of resident adapters (idle + in use).
    pub fn len(&self) -> usize {
        resident_in(&self.entries).count()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        resident_in(&self.entries).next().is_none()
    }

    /// Bytes of idle (evictable) cached adapters.
    pub fn idle_bytes(&self) -> u64 {
        resident_in(&self.entries)
            .filter(|(_, e)| e.ref_count == 0)
            .map(|(_, e)| e.bytes)
            .sum()
    }

    /// Bytes of in-use (pinned) adapters.
    pub fn in_use_bytes(&self) -> u64 {
        resident_in(&self.entries)
            .filter(|(_, e)| e.ref_count > 0)
            .map(|(_, e)| e.bytes)
            .sum()
    }

    /// Looks up `id` for a new request at `now`.
    ///
    /// On a hit the adapter's metadata is refreshed, its reference count
    /// incremented (moving it from the cache region to in-use if it was
    /// idle), and `true` returned. On a miss nothing changes and `false` is
    /// returned — the caller is expected to load the weights and then call
    /// [`insert_loaded`](Self::insert_loaded).
    pub fn acquire(&mut self, pool: &mut MemoryPool, id: AdapterId, now: SimTime) -> bool {
        let Some(e) = self.entry(id) else {
            self.stats.misses += 1;
            return false;
        };
        if e.ref_count == 0 {
            let bytes = e.bytes;
            self.unindex_idle(id);
            pool.transfer(Region::AdapterCache, Region::AdaptersInUse, bytes);
        }
        let e = self.entry_mut(id).expect("checked resident above");
        e.ref_count += 1;
        e.last_used = now;
        e.frequency += 1;
        self.stats.hits += 1;
        true
    }

    /// Registers a freshly loaded adapter with `initial_refs` waiting
    /// requests, billing [`Region::AdaptersInUse`] (or the cache region when
    /// `initial_refs == 0`, i.e. a prefetch).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the bytes don't fit — callers should
    /// [`make_room`](Self::make_room) first.
    ///
    /// # Panics
    ///
    /// Panics if the adapter is already resident, or its id lies outside
    /// the table [`size_for_pool`](Self::size_for_pool) sized.
    pub fn insert_loaded(
        &mut self,
        pool: &mut MemoryPool,
        spec: &AdapterSpec,
        now: SimTime,
        initial_refs: u32,
    ) -> Result<(), OutOfMemory> {
        let slot = self.entries.get(spec.id().0 as usize).unwrap_or_else(|| {
            let table = self.entries.len();
            panic!("{} is outside the {table}-adapter table", spec.id())
        });
        assert!(slot.is_none(), "{} already resident", spec.id());
        let region = if initial_refs > 0 {
            Region::AdaptersInUse
        } else {
            Region::AdapterCache
        };
        pool.reserve(region, spec.bytes())?;
        self.entries[spec.id().0 as usize] = Some(Entry {
            bytes: spec.bytes(),
            last_used: now,
            frequency: initial_refs.max(1),
            ref_count: initial_refs,
            idle_pos: 0,
        });
        if initial_refs == 0 {
            self.index_idle(spec.id());
        }
        self.stats.bytes_loaded += spec.bytes();
        if let Some(j) = self.journal.as_mut() {
            j.push(CacheJournalEvent::Admit {
                adapter: spec.id(),
                bytes: spec.bytes(),
                refs: initial_refs,
            });
        }
        Ok(())
    }

    /// Adds a reference to an already-resident adapter (a second concurrent
    /// request for the same adapter while it is in use).
    ///
    /// # Panics
    ///
    /// Panics if the adapter is not resident.
    pub fn add_ref(&mut self, pool: &mut MemoryPool, id: AdapterId, now: SimTime) {
        let e = self
            .entry(id)
            .unwrap_or_else(|| panic!("{id} not resident"));
        if e.ref_count == 0 {
            let bytes = e.bytes;
            self.unindex_idle(id);
            pool.transfer(Region::AdapterCache, Region::AdaptersInUse, bytes);
        }
        let e = self.entry_mut(id).expect("checked resident above");
        e.ref_count += 1;
        e.last_used = now;
    }

    /// Drops one reference when a request finishes. At zero references the
    /// adapter either moves into the idle cache (Chameleon) or is freed
    /// immediately (S-LoRA discard mode).
    ///
    /// # Panics
    ///
    /// Panics if the adapter is not resident or has no references.
    pub fn release(&mut self, pool: &mut MemoryPool, id: AdapterId, now: SimTime) {
        let e = self
            .entry_mut(id)
            .unwrap_or_else(|| panic!("{id} not resident"));
        assert!(e.ref_count > 0, "{id} released with zero refs");
        e.ref_count -= 1;
        e.last_used = now;
        if e.ref_count == 0 {
            let bytes = e.bytes;
            if self.retain_on_release {
                self.index_idle(id);
                pool.transfer(Region::AdaptersInUse, Region::AdapterCache, bytes);
            } else {
                pool.release(Region::AdaptersInUse, bytes);
                self.entries[id.0 as usize] = None;
            }
        }
    }

    /// Ensures at least `needed` bytes are free in `pool`, evicting idle
    /// adapters by policy. Adapters for which `protected` holds (those of
    /// queued requests, §4.2) are spared in the first pass and evicted only
    /// if the first pass was insufficient. Referenced adapters are never
    /// evicted.
    ///
    /// Returns `true` when the pool ended with `needed` bytes free.
    pub fn make_room(
        &mut self,
        pool: &mut MemoryPool,
        needed: u64,
        now: SimTime,
        protected: &dyn Fn(AdapterId) -> bool,
    ) -> bool {
        if pool.free() >= needed {
            return true;
        }
        self.evict_pass(pool, needed, now, Some(protected));
        if pool.free() >= needed {
            return true;
        }
        // §4.2: "The adapters of queued requests are considered for
        // eviction only when memory constraints make it necessary."
        self.evict_pass(pool, needed, now, None);
        pool.free() >= needed
    }

    /// One eviction pass, for every policy. The pass collects the
    /// unprotected idle candidates once into reusable scratch, keys each
    /// into `scan_keys`, and takes every victim by a linear min over the
    /// keys, whose id bits break ties in the order
    /// [`EvictionPolicy::pick_victim`] breaks them, whatever the table
    /// order. A keyed policy's key never changes
    /// during a pass (the GDSF floor rises for every candidate alike). A
    /// compound score depends on the candidate-set maxima and on `now`, so
    /// the pass rescores lazily: a victim only invalidates the remaining
    /// scores when it held one of the normalisation extrema (max
    /// frequency, max bytes, or oldest use). The victim sequence is exactly
    /// the one `pick_victim` produces (oracle tests
    /// `prop_indexed_eviction_matches_full_scan` and
    /// `compound_eviction_matches_full_scan_on_generated_workloads`), and
    /// nothing allocates after warm-up.
    fn evict_pass(
        &mut self,
        pool: &mut MemoryPool,
        needed: u64,
        now: SimTime,
        protected: Option<&dyn Fn(AdapterId) -> bool>,
    ) {
        #[cfg(test)]
        if self.full_scan_eviction {
            self.evict_pass_full_scan(pool, needed, now, protected);
            return;
        }
        if pool.free() >= needed {
            return;
        }
        let mut ids = std::mem::take(&mut self.scan_ids);
        let mut cands = std::mem::take(&mut self.scan_cands);
        let mut keys = std::mem::take(&mut self.scan_keys);
        ids.clear();
        cands.clear();
        for &id in &self.idle {
            if protected.is_none_or(|p| !p(id)) {
                let e = self.entry(id).expect("indexed entry is resident");
                cands.push(Candidate {
                    index: ids.len(),
                    bytes: e.bytes,
                    frequency: e.frequency,
                    last_used: e.last_used,
                });
                ids.push(id);
            }
        }
        #[cfg(test)]
        let (mut victims, mut scorings) = (0u64, 0u64);
        #[cfg(test)]
        self.compound_work.note_skipped(self.idle.len() - ids.len());
        // Whether `keys` holds every candidate's current key, and the
        // normalisation extrema of the last compound scoring.
        let mut keyed = false;
        let mut extrema = None;
        while pool.free() < needed && !cands.is_empty() {
            if !keyed {
                extrema = key_candidates(self.policy, &ids, &cands, now, &mut keys);
                keyed = true;
                #[cfg(test)]
                {
                    scorings += 1;
                }
            }
            let (pos, _) = keys
                .iter()
                .enumerate()
                .min_by_key(|&(_, key)| key)
                .expect("candidates are non-empty");
            let victim = cands.swap_remove(pos);
            let victim_id = ids.swap_remove(pos);
            keys.swap_remove(pos);
            self.evict_one(pool, victim_id);
            #[cfg(test)]
            {
                victims += 1;
            }
            // Remaining scores stay exact unless the victim defined one of
            // the normalisation extrema.
            if let Some((max_freq, max_bytes, min_last)) = extrema {
                keyed = victim.frequency as f64 != max_freq
                    && victim.bytes as f64 != max_bytes
                    && victim.last_used != min_last;
            }
        }
        #[cfg(test)]
        self.compound_work.note_pass(victims, scorings);
        self.scan_ids = ids;
        self.scan_cands = cands;
        self.scan_keys = keys;
    }

    /// The pre-index reference: rebuild the candidate list from the entry
    /// table for every victim (O(n) per victim). Candidates are collected
    /// in id order so ties break deterministically — the original
    /// `HashMap`-iteration order made tie-breaks vary across processes —
    /// and [`pick_victim`](EvictionPolicy::pick_victim) receives one
    /// candidate slice directly (the old second copy is gone).
    #[cfg(test)]
    fn evict_pass_full_scan(
        &mut self,
        pool: &mut MemoryPool,
        needed: u64,
        now: SimTime,
        protected: Option<&dyn Fn(AdapterId) -> bool>,
    ) {
        while pool.free() < needed {
            let mut ids: Vec<AdapterId> = resident_in(&self.entries)
                .filter(|&(id, e)| e.ref_count == 0 && protected.is_none_or(|p| !p(id)))
                .map(|(id, _)| id)
                .collect();
            ids.sort_unstable();
            let cands: Vec<Candidate> = ids
                .iter()
                .enumerate()
                .map(|(i, &id)| {
                    let e = self.entry(id).expect("candidate is resident");
                    Candidate {
                        index: i,
                        bytes: e.bytes,
                        frequency: e.frequency,
                        last_used: e.last_used,
                    }
                })
                .collect();
            let Some(victim_idx) = self.policy.pick_victim(&cands, now, self.gdsf_floor) else {
                return; // nothing evictable left
            };
            self.evict_one(pool, ids[victim_idx]);
        }
    }

    /// Evicts one idle adapter: entry, index, pool accounting, statistics,
    /// and the GDSF aging floor.
    fn evict_one(&mut self, pool: &mut MemoryPool, id: AdapterId) {
        self.unindex_idle(id);
        let e = self.entries[id.0 as usize]
            .take()
            .expect("victim is resident");
        debug_assert_eq!(e.ref_count, 0, "victim must be idle");
        if matches!(self.policy, EvictionPolicy::Gdsf) {
            // GreedyDual aging: the floor rises to the evicted score.
            self.gdsf_floor = EvictionPolicy::gdsf_score(
                &Candidate {
                    index: 0,
                    bytes: e.bytes,
                    frequency: e.frequency,
                    last_used: e.last_used,
                },
                self.gdsf_floor,
            );
        }
        pool.release(Region::AdapterCache, e.bytes);
        self.stats.evictions += 1;
        self.stats.bytes_evicted += e.bytes;
        if let Some(j) = self.journal.as_mut() {
            j.push(CacheJournalEvent::Evict {
                adapter: id,
                bytes: e.bytes,
                frequency: e.frequency,
                last_used: e.last_used,
            });
        }
    }

    /// Halves all frequency counters — called every `T_refresh` so that
    /// popularity tracks the current workload rather than all of history.
    pub fn decay_frequencies(&mut self) {
        for e in self.entries.iter_mut().flatten() {
            e.frequency /= 2;
        }
    }

    /// Ids of all idle (evictable) adapters, in no particular but
    /// deterministic order (no allocation — callers that need a `Vec`
    /// collect explicitly).
    pub fn idle_adapters(&self) -> impl Iterator<Item = AdapterId> + '_ {
        self.idle.iter().copied()
    }

    /// Iterates over every resident adapter (idle or in use), in id
    /// order — the residency view cluster routers place requests on.
    pub fn resident_adapters(&self) -> impl Iterator<Item = AdapterId> + '_ {
        resident_in(&self.entries).map(|(id, _)| id)
    }

    /// Asserts the idle table mirrors the entry table exactly (test/debug
    /// hook for the index-maintenance invariant): every idle entry is
    /// indexed once, at the position it records.
    #[doc(hidden)]
    pub fn assert_index_consistent(&self) {
        let idle_entries = resident_in(&self.entries)
            .filter(|(_, e)| e.ref_count == 0)
            .count();
        assert_eq!(self.idle.len(), idle_entries, "idle index out of sync");
        for (pos, &id) in self.idle.iter().enumerate() {
            let e = self.entry(id).expect("indexed entry exists");
            assert_eq!(e.ref_count, 0, "{id} indexed while referenced");
            assert_eq!(
                e.idle_pos as usize, pos,
                "{id} records a stale idle position"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_models::{AdapterRank, LlmSpec};
    use chameleon_simcore::rng::SimRng;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// What the compound passes did: enough to show that a test reached
    /// the multi-victim, rescoring and protected-set branches.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub(super) struct CompoundWork {
        /// Passes that evicted at least one adapter.
        passes: u64,
        /// Passes that evicted three or more.
        multi_victim_passes: u64,
        /// Rescorings after a victim held a normalisation extremum.
        rescores: u64,
        /// Passes whose protected set spared two or more idle adapters.
        protected_passes: u64,
    }

    impl CompoundWork {
        pub(super) fn note_skipped(&mut self, spared: usize) {
            if spared >= 2 {
                self.protected_passes += 1;
            }
        }

        pub(super) fn note_pass(&mut self, victims: u64, scorings: u64) {
            if victims > 0 {
                self.passes += 1;
            }
            if victims >= 3 {
                self.multi_victim_passes += 1;
            }
            self.rescores += scorings.saturating_sub(1);
        }

        fn add(&mut self, other: CompoundWork) {
            self.passes += other.passes;
            self.multi_victim_passes += other.multi_victim_passes;
            self.rescores += other.rescores;
            self.protected_passes += other.protected_passes;
        }
    }

    fn spec(id: u32, rank: u32) -> AdapterSpec {
        AdapterSpec::new(AdapterId(id), AdapterRank::new(rank), &LlmSpec::llama_7b())
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn pool_gb(gb: u64) -> MemoryPool {
        MemoryPool::new(gb << 30)
    }

    /// A cache whose table covers the ids these tests use.
    fn cache(policy: EvictionPolicy) -> AdapterCache {
        let mut c = AdapterCache::new(policy);
        c.size_for_pool(16);
        c
    }

    #[test]
    fn miss_then_load_then_hit() {
        let mut pool = pool_gb(1);
        let mut c = cache(EvictionPolicy::chameleon());
        let a = spec(1, 32); // 64 MB
        assert!(!c.acquire(&mut pool, a.id(), t(0.0)));
        c.insert_loaded(&mut pool, &a, t(0.0), 1).unwrap();
        assert_eq!(pool.used(Region::AdaptersInUse), 64 << 20);
        c.release(&mut pool, a.id(), t(1.0));
        assert_eq!(pool.used(Region::AdapterCache), 64 << 20);
        assert_eq!(pool.used(Region::AdaptersInUse), 0);
        // Second request hits.
        assert!(c.acquire(&mut pool, a.id(), t(2.0)));
        assert_eq!(pool.used(Region::AdaptersInUse), 64 << 20);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn discard_mode_frees_immediately() {
        let mut pool = pool_gb(1);
        let mut c = AdapterCache::discard_mode();
        c.size_for_pool(16);
        let a = spec(1, 32);
        c.insert_loaded(&mut pool, &a, t(0.0), 1).unwrap();
        c.release(&mut pool, a.id(), t(1.0));
        assert_eq!(pool.total_used(), 0);
        assert!(!c.is_resident(a.id()));
        // Next request misses again — the S-LoRA reload tax.
        assert!(!c.acquire(&mut pool, a.id(), t(2.0)));
        assert!(!c.retains_idle());
    }

    #[test]
    fn shared_adapter_refcounting() {
        let mut pool = pool_gb(1);
        let mut c = cache(EvictionPolicy::chameleon());
        let a = spec(1, 16);
        c.insert_loaded(&mut pool, &a, t(0.0), 1).unwrap();
        c.add_ref(&mut pool, a.id(), t(0.5));
        assert_eq!(c.ref_count(a.id()), Some(2));
        c.release(&mut pool, a.id(), t(1.0));
        assert_eq!(c.ref_count(a.id()), Some(1));
        assert_eq!(pool.used(Region::AdaptersInUse), 32 << 20);
        c.release(&mut pool, a.id(), t(2.0));
        assert_eq!(c.ref_count(a.id()), Some(0));
        assert_eq!(c.idle_bytes(), 32 << 20);
        assert_eq!(c.in_use_bytes(), 0);
    }

    #[test]
    fn make_room_evicts_idle_only() {
        // Pool sized to hold exactly three rank-32 adapters (64 MB each).
        let mut pool = MemoryPool::new(3 * (64 << 20));
        let mut c = cache(EvictionPolicy::Lru);
        let (a, b, d) = (spec(1, 32), spec(2, 32), spec(3, 32));
        c.insert_loaded(&mut pool, &a, t(0.0), 1).unwrap(); // pinned
        c.insert_loaded(&mut pool, &b, t(1.0), 0).unwrap(); // idle, older
        c.insert_loaded(&mut pool, &d, t(2.0), 0).unwrap(); // idle, newer
        assert_eq!(pool.free(), 0);
        // Need one slot: LRU evicts b (oldest idle), never a (pinned).
        assert!(c.make_room(&mut pool, 64 << 20, t(3.0), &|_| false));
        assert!(!c.is_resident(b.id()));
        assert!(c.is_resident(a.id()));
        assert!(c.is_resident(d.id()));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().bytes_evicted, 64 << 20);
    }

    #[test]
    fn make_room_respects_protection_then_overrides() {
        let mut pool = MemoryPool::new(2 * (64 << 20));
        let mut c = cache(EvictionPolicy::Lru);
        let (a, b) = (spec(1, 32), spec(2, 32));
        c.insert_loaded(&mut pool, &a, t(0.0), 0).unwrap();
        c.insert_loaded(&mut pool, &b, t(1.0), 0).unwrap();
        let protect_a = |id| id == a.id();
        // One slot needed: b (unprotected) goes first even though a is older.
        assert!(c.make_room(&mut pool, 64 << 20, t(2.0), &protect_a));
        assert!(c.is_resident(a.id()));
        assert!(!c.is_resident(b.id()));
        // Two slots needed: protection must yield (§4.2 second pass).
        assert!(c.make_room(&mut pool, 2 * (64 << 20), t(3.0), &protect_a));
        assert!(!c.is_resident(a.id()));
    }

    #[test]
    fn make_room_fails_when_everything_pinned() {
        let mut pool = MemoryPool::new(64 << 20);
        let mut c = cache(EvictionPolicy::chameleon());
        let a = spec(1, 32);
        c.insert_loaded(&mut pool, &a, t(0.0), 1).unwrap();
        assert!(!c.make_room(&mut pool, 64 << 20, t(1.0), &|_| false));
        assert!(c.is_resident(a.id()), "pinned adapter survived");
    }

    #[test]
    fn insert_requires_room() {
        let mut pool = MemoryPool::new(32 << 20);
        let mut c = cache(EvictionPolicy::chameleon());
        let a = spec(1, 32); // 64 MB > 32 MB pool
        assert!(c.insert_loaded(&mut pool, &a, t(0.0), 1).is_err());
        assert!(!c.is_resident(a.id()));
    }

    #[test]
    fn frequency_decay() {
        let mut pool = pool_gb(1);
        let mut c = cache(EvictionPolicy::Lfu);
        let a = spec(1, 8);
        c.insert_loaded(&mut pool, &a, t(0.0), 0).unwrap();
        for i in 0..7 {
            c.add_ref(&mut pool, a.id(), t(i as f64));
            c.release(&mut pool, a.id(), t(i as f64 + 0.5));
        }
        c.decay_frequencies();
        // Frequency halved but entry retained.
        assert!(c.is_resident(a.id()));
        assert_eq!(c.idle_adapters().collect::<Vec<_>>(), vec![a.id()]);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut pool = pool_gb(1);
        let mut c = cache(EvictionPolicy::chameleon());
        let a = spec(1, 8);
        c.insert_loaded(&mut pool, &a, t(0.0), 0).unwrap();
        let _ = c.insert_loaded(&mut pool, &a, t(1.0), 0);
    }

    #[test]
    #[should_panic(expected = "zero refs")]
    fn over_release_panics() {
        let mut pool = pool_gb(1);
        let mut c = cache(EvictionPolicy::chameleon());
        let a = spec(1, 8);
        c.insert_loaded(&mut pool, &a, t(0.0), 0).unwrap();
        c.release(&mut pool, a.id(), t(1.0));
    }

    #[test]
    fn journal_records_admits_and_evicts_with_score_inputs() {
        let mut pool = MemoryPool::new(2 * (64 << 20));
        let mut c = cache(EvictionPolicy::Lru);
        // Off by default: a disabled cache journals nothing and drains empty.
        let (a, b) = (spec(1, 32), spec(2, 32));
        c.insert_loaded(&mut pool, &a, t(0.0), 0).unwrap();
        assert!(c.drain_journal().is_empty());
        c.enable_journal();
        c.insert_loaded(&mut pool, &b, t(1.0), 1).unwrap();
        c.add_ref(&mut pool, a.id(), t(2.0));
        c.release(&mut pool, a.id(), t(3.0));
        // Need a slot: LRU evicts a (idle); b is pinned.
        assert!(c.make_room(&mut pool, 64 << 20, t(4.0), &|_| false));
        let journal = c.drain_journal();
        assert_eq!(
            journal,
            vec![
                CacheJournalEvent::Admit {
                    adapter: b.id(),
                    bytes: 64 << 20,
                    refs: 1,
                },
                CacheJournalEvent::Evict {
                    adapter: a.id(),
                    bytes: 64 << 20,
                    frequency: 1,
                    last_used: t(3.0),
                },
            ]
        );
        // Drain resets; a second drain sees only new decisions.
        assert!(c.drain_journal().is_empty());
    }

    /// Deterministic companion of `prop_indexed_eviction_matches_full_scan`
    /// for the compound policies, sized so that passes with three or more
    /// victims, rescoring after a victim held a normalisation extremum, and
    /// protected sets sparing several idle adapters all occur, and are
    /// counted, along with score ties. Every cache decision, in order, must
    /// equal the full-scan reference's.
    #[test]
    fn compound_eviction_matches_full_scan_on_generated_workloads() {
        let mut rng = SimRng::seed(17);
        let mut work = CompoundWork::default();
        for case in 0..120 {
            let policy = if case % 2 == 0 {
                EvictionPolicy::chameleon()
            } else {
                EvictionPolicy::FairShare
            };
            let ranks: Vec<u32> = (0..16).map(|_| 4 << rng.below(4)).collect();
            let mut pools = [
                MemoryPool::new(12 * (16 << 20)),
                MemoryPool::new(12 * (16 << 20)),
            ];
            let mut caches = [cache(policy), cache(policy)];
            caches[1].set_full_scan_eviction(true);
            caches.iter_mut().for_each(AdapterCache::enable_journal);
            // References held by running requests, the same in both.
            let mut held: Vec<AdapterId> = Vec::new();
            let mut clock = 0.0;
            for _ in 0..150 {
                // Some operations share an instant, so equal-rank adapters
                // tie on score and the id must break the tie.
                if rng.chance(0.7) {
                    clock += rng.range_f64(0.01, 0.5);
                }
                let now = t(clock);
                let id = rng.below(16) as u32;
                let a = spec(id, ranks[id as usize]);
                let op = rng.below(10);
                let protect: Vec<AdapterId> = (0..rng.below(6))
                    .map(|_| AdapterId(rng.below(16) as u32))
                    .collect();
                let protect = |id| protect.contains(&id);
                let slots = 1 + rng.below(6);
                let release = (matches!(op, 3 | 4) && !held.is_empty())
                    .then(|| held.swap_remove(rng.below(held.len() as u64) as usize));
                let mut outcomes = Vec::new();
                for (c, pool) in caches.iter_mut().zip(pools.iter_mut()) {
                    let outcome = match op {
                        // A request arrives and holds its adapter.
                        0..=2 => {
                            c.acquire(pool, a.id(), now)
                                || (c.make_room(pool, a.bytes(), now, &protect)
                                    && c.insert_loaded(pool, &a, now, 1).is_ok())
                        }
                        // A running request finishes.
                        3 | 4 => {
                            if let Some(r) = release {
                                c.release(pool, r, now);
                            }
                            false
                        }
                        // A short request: hit and release, or prefetch.
                        5 | 6 => {
                            if c.acquire(pool, a.id(), now) {
                                c.release(pool, a.id(), now);
                                true
                            } else {
                                c.make_room(pool, a.bytes(), now, &protect)
                                    && c.insert_loaded(pool, &a, now, 0).is_ok()
                            }
                        }
                        // KV growth or a large admission.
                        7 | 8 => c.make_room(pool, slots * (16 << 20), now, &protect),
                        _ => {
                            c.decay_frequencies();
                            false
                        }
                    };
                    outcomes.push(outcome);
                }
                if op <= 2 && outcomes[0] {
                    held.push(a.id());
                }
                assert_eq!(
                    outcomes[0],
                    outcomes[1],
                    "outcome diverged ({})",
                    policy.name()
                );
                let [indexed, scanned] = &mut caches;
                assert_eq!(
                    indexed.drain_journal(),
                    scanned.drain_journal(),
                    "decisions diverged"
                );
                assert_eq!(indexed.stats(), scanned.stats());
                assert_eq!(pools[0].free(), pools[1].free());
                indexed.assert_index_consistent();
            }
            work.add(caches[0].compound_work);
        }
        assert!(work.passes > 0, "{work:?}");
        assert!(
            work.multi_victim_passes > 0,
            "no pass took 3+ victims: {work:?}"
        );
        assert!(work.rescores > 0, "no victim held an extremum: {work:?}");
        assert!(
            work.protected_passes > 0,
            "no protected set spared 2+: {work:?}"
        );
    }

    proptest! {
        /// Under arbitrary acquire/insert/release/make_room interleavings:
        /// pinned adapters are never evicted, pool accounting matches the
        /// cache's view, and capacity is never exceeded.
        #[test]
        fn prop_cache_invariants(ops in proptest::collection::vec((0u32..6, 0u8..4), 1..300)) {
            let mut pool = MemoryPool::new(5 * (16 << 20)); // five rank-8 slots
            let mut c = cache(EvictionPolicy::chameleon());
            let mut live_refs: HashMap<AdapterId, u32> = HashMap::new();
            let mut clock = 0.0;
            for (aid, op) in ops {
                clock += 0.1;
                let a = spec(aid, 8);
                match op {
                    0 => {
                        // acquire-or-load path
                        if !c.acquire(&mut pool, a.id(), t(clock)) {
                            if c.make_room(&mut pool, a.bytes(), t(clock), &|_| false)
                                && c.insert_loaded(&mut pool, &a, t(clock), 1).is_ok() {
                                *live_refs.entry(a.id()).or_insert(0) += 1;
                            }
                        } else {
                            *live_refs.entry(a.id()).or_insert(0) += 1;
                        }
                    }
                    1 => {
                        // release if we hold a ref
                        if live_refs.get(&a.id()).copied().unwrap_or(0) > 0 {
                            c.release(&mut pool, a.id(), t(clock));
                            *live_refs.get_mut(&a.id()).unwrap() -= 1;
                        }
                    }
                    2 => {
                        let _ = c.make_room(&mut pool, 16 << 20, t(clock), &|_| false);
                    }
                    _ => c.decay_frequencies(),
                }
                // Invariants.
                prop_assert!(pool.total_used() <= pool.capacity());
                prop_assert_eq!(c.idle_bytes(), pool.used(Region::AdapterCache));
                prop_assert_eq!(c.in_use_bytes(), pool.used(Region::AdaptersInUse));
                for (&id, &refs) in &live_refs {
                    if refs > 0 {
                        prop_assert!(c.is_resident(id), "pinned adapter evicted");
                        prop_assert_eq!(c.ref_count(id), Some(refs));
                    }
                }
                c.assert_index_consistent();
            }
        }

        /// Oracle for the eviction pass: under random workloads, every
        /// policy's pass over the idle table picks the exact victim
        /// sequence of the pre-index full-scan path. Divergence in any
        /// single pick makes the resident sets (and eviction statistics)
        /// drift apart.
        #[test]
        fn prop_indexed_eviction_matches_full_scan(
            policy_sel in 0usize..5,
            ops in proptest::collection::vec((0u32..12, 0u8..5, 1u32..5), 1..250),
        ) {
            let policy = [
                EvictionPolicy::Lru,
                EvictionPolicy::Lfu,
                EvictionPolicy::FairShare,
                EvictionPolicy::chameleon(),
                EvictionPolicy::Gdsf,
            ][policy_sel];
            let mut pool_a = MemoryPool::new(7 * (16 << 20));
            let mut pool_b = MemoryPool::new(7 * (16 << 20));
            let mut indexed = cache(policy);
            let mut scanned = cache(policy);
            scanned.set_full_scan_eviction(true);
            let mut clock = 0.0;
            for (aid, op, rank_sel) in ops {
                clock += 0.1;
                // Ranks vary so size-aware policies see distinct bytes.
                let a = spec(aid, 4 << rank_sel);
                for (c, pool) in [(&mut indexed, &mut pool_a), (&mut scanned, &mut pool_b)] {
                    match op {
                        0 | 1 => {
                            if !c.acquire(pool, a.id(), t(clock)) {
                                if c.make_room(pool, a.bytes(), t(clock), &|_| false) {
                                    let _ = c.insert_loaded(pool, &a, t(clock), 0);
                                }
                            } else {
                                c.release(pool, a.id(), t(clock));
                            }
                        }
                        2 => {
                            // Protected first pass, override second.
                            let _ = c.make_room(pool, 32 << 20, t(clock), &|id| id == a.id());
                        }
                        3 => {
                            let _ = c.make_room(pool, 16 << 20, t(clock), &|_| false);
                        }
                        _ => c.decay_frequencies(),
                    }
                }
                // Same victims ⇒ same resident sets and statistics.
                let mut ra: Vec<AdapterId> = indexed.resident_adapters().collect();
                let mut rb: Vec<AdapterId> = scanned.resident_adapters().collect();
                ra.sort_unstable();
                rb.sort_unstable();
                prop_assert_eq!(ra, rb, "resident sets diverged ({})", policy.name());
                prop_assert_eq!(indexed.stats(), scanned.stats());
                let ia: Vec<AdapterId> = indexed.idle_adapters().collect();
                let mut ib: Vec<AdapterId> = scanned.idle_adapters().collect();
                ib.sort_unstable();
                let mut ia_sorted = ia.clone();
                ia_sorted.sort_unstable();
                prop_assert_eq!(ia_sorted, ib, "idle sets diverged");
                indexed.assert_index_consistent();
            }
        }
    }
}
