//! The engine-facing metrics sink.
//!
//! The engine registers each arriving request once, by id, and gets back
//! the request's dense [`Slot`]; every later lifecycle event is keyed by
//! that slot, so recording a token is a `Vec` index rather than a hash
//! lookup. Only registration and crash removal consult the id index.

use crate::record::{RequestRecord, SizeClass};
use chameleon_models::{AdapterId, AdapterRank};
use chameleon_simcore::{SimDuration, SimTime};
use chameleon_workload::{IdHashBuilder, RequestId, Slot};
use std::collections::HashMap;

/// Collects per-request records as the engine reports lifecycle events.
///
/// The collector is deliberately forgiving about event order within one
/// request (e.g. class assignment before or after admission) but panics on
/// events for unknown slots — those are engine bugs worth catching early.
#[derive(Debug, Default)]
pub struct Collector {
    /// Records by slot, in registration order.
    records: Vec<RequestRecord>,
    /// The instant of each slot's latest output token, the base of its
    /// next TBT gap.
    last_token: Vec<SimTime>,
    /// Slots whose request crash recovery removed; empty until a removal.
    removed: Vec<bool>,
    /// The live slot of each registered id. Only looked up (registration's
    /// duplicate check, crash removal), never iterated.
    index: HashMap<RequestId, Slot, IdHashBuilder>,
}

impl Collector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Registers an arriving request and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if the id was already registered.
    #[allow(clippy::too_many_arguments)]
    pub fn on_arrival(
        &mut self,
        id: RequestId,
        at: SimTime,
        input_tokens: u32,
        output_tokens: u32,
        adapter: AdapterId,
        rank: AdapterRank,
    ) -> Slot {
        let slot = Slot::new(self.records.len());
        let prev = self.index.insert(id, slot);
        assert!(prev.is_none(), "{id} arrived twice");
        let mut record = RequestRecord::arrive(id, at, input_tokens, output_tokens, adapter, rank);
        // Every token after the first adds one gap; a squash clears the
        // gaps but keeps their room.
        record
            .tbt_gaps
            .reserve_exact(output_tokens.saturating_sub(1) as usize);
        self.records.push(record);
        self.last_token.push(at);
        slot
    }

    /// Records the scheduler's size-class decision.
    pub fn on_classified(&mut self, slot: Slot, class: SizeClass) {
        self.rec(slot).class = Some(class);
    }

    /// Records first admission into a batch, with the adapter-load time
    /// left on the critical path at that moment (zero on a cache hit).
    pub fn on_admitted(&mut self, slot: Slot, at: SimTime, load_on_path: SimDuration) {
        let r = self.rec(slot);
        if r.admitted.is_none() {
            r.admitted = Some(at);
            r.load_on_critical_path = load_on_path;
        }
    }

    /// Records a produced output token; the first one sets TTFT, each
    /// later one a TBT gap.
    #[inline]
    pub fn on_token(&mut self, slot: Slot, at: SimTime) {
        self.on_tokens(slot, &[at]);
    }

    /// Records one produced output token at each instant of `at`, in
    /// order, as [`on_token`](Self::on_token) would one by one: the
    /// tokens a request decoded over several iterations, recorded when it
    /// leaves the decoding batch.
    pub fn on_tokens(&mut self, slot: Slot, at: &[SimTime]) {
        let (record, last_token) = self.entry(slot);
        let mut at = at.iter().copied();
        if record.first_token.is_none() {
            let Some(first) = at.next() else {
                return;
            };
            record.first_token = Some(first);
            *last_token = first;
        }
        let mut last = *last_token;
        record.tbt_gaps.extend(at.map(|t| {
            let gap = t.saturating_since(last);
            last = t;
            gap
        }));
        *last_token = last;
    }

    /// Records completion.
    pub fn on_finish(&mut self, slot: Slot, at: SimTime) {
        let r = self.rec(slot);
        assert!(r.finished.is_none(), "{} finished twice", r.id);
        r.finished = Some(at);
    }

    /// Records a squash (§4.3.3): generated state is discarded and the
    /// request re-queued; its admission/token state resets.
    pub fn on_squash(&mut self, slot: Slot) {
        let r = self.rec(slot);
        r.squashes += 1;
        r.admitted = None;
        r.first_token = None;
        r.tbt_gaps.clear();
    }

    /// Records an opportunistic bypass by this request (§4.3.3).
    pub fn on_bypass(&mut self, slot: Slot) {
        self.rec(slot).bypasses += 1;
    }

    /// Number of registered requests.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing has arrived yet.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Read access to one record.
    pub fn get(&self, slot: Slot) -> Option<&RequestRecord> {
        let i = slot.index();
        self.records.get(i).filter(|_| !self.is_removed(i))
    }

    /// Removes a request from the collector entirely (crash recovery: the
    /// request re-arrives on another engine, whose collector registers it
    /// fresh — without this the re-dispatch would trip the arrived-twice
    /// guard or leave a duplicate record behind on the dead engine). Its
    /// slot takes no more events, and its record is dropped when the
    /// collector is finalised.
    pub fn remove(&mut self, id: RequestId) {
        if let Some(slot) = self.index.remove(&id) {
            self.removed.resize(self.records.len(), false);
            self.removed[slot.index()] = true;
        }
    }

    /// Finalises the collector into records sorted by `(arrival, id)`.
    /// The records stay where they were recorded: registration order is
    /// arrival order except after a crash re-dispatch, so the sort
    /// usually finds them sorted.
    pub fn into_records(self) -> Vec<RequestRecord> {
        let mut records = self.records;
        if !self.removed.is_empty() {
            let mut removed = self.removed.into_iter();
            records.retain(|_| !removed.next().unwrap_or(false));
        }
        records.sort_by_key(|r| (r.arrival, r.id));
        records
    }

    /// True when crash recovery removed slot `i`'s request.
    fn is_removed(&self, i: usize) -> bool {
        self.removed.get(i).copied().unwrap_or(false)
    }

    /// The record and last-token instant of a registered slot.
    fn entry(&mut self, slot: Slot) -> (&mut RequestRecord, &mut SimTime) {
        let i = slot.index();
        assert!(
            i < self.records.len() && !self.is_removed(i),
            "event for unknown {slot}"
        );
        (&mut self.records[i], &mut self.last_token[i])
    }

    fn rec(&mut self, slot: Slot) -> &mut RequestRecord {
        self.entry(slot).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn arrive(c: &mut Collector, id: u64, at: f64) -> Slot {
        c.on_arrival(
            RequestId(id),
            t(at),
            100,
            4,
            AdapterId(0),
            AdapterRank::new(8),
        )
    }

    #[test]
    fn full_lifecycle() {
        let mut c = Collector::new();
        let s = arrive(&mut c, 1, 0.0);
        c.on_classified(s, SizeClass::Small);
        c.on_admitted(s, t(0.5), SimDuration::from_millis(6));
        c.on_token(s, t(1.0));
        c.on_token(s, t(1.1));
        c.on_token(s, t(1.25));
        c.on_finish(s, t(1.25));
        let recs = c.into_records();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.ttft(), Some(SimDuration::from_secs(1)));
        assert_eq!(r.e2e(), Some(SimDuration::from_millis(1250)));
        assert_eq!(r.queue_delay(), Some(SimDuration::from_millis(500)));
        assert_eq!(r.tbt_gaps.len(), 2);
        assert_eq!(r.tbt_gaps[0], SimDuration::from_millis(100));
        assert_eq!(r.tbt_gaps[1], SimDuration::from_millis(150));
        assert_eq!(r.load_on_critical_path, SimDuration::from_millis(6));
        assert_eq!(r.class, Some(SizeClass::Small));
    }

    /// Batched tokens record exactly what one call per token records:
    /// the first sets TTFT, each later one a gap from its predecessor,
    /// across batches of any length, the empty one included.
    #[test]
    fn batched_tokens_match_one_call_per_token() {
        let times: Vec<SimTime> = [0.5, 0.52, 0.57, 0.6, 0.9, 0.95, 1.4].map(t).to_vec();
        let mut one = Collector::new();
        let a = arrive(&mut one, 1, 0.0);
        for &at in &times {
            one.on_token(a, at);
        }
        for cuts in [[0, 0, 7], [1, 3, 7], [0, 5, 5], [2, 2, 7]] {
            let mut batched = Collector::new();
            let b = arrive(&mut batched, 1, 0.0);
            let mut from = 0;
            for to in cuts {
                batched.on_tokens(b, &times[from..to]);
                from = to;
            }
            batched.on_tokens(b, &times[from..]);
            assert_eq!(batched.get(b), one.get(a), "cuts {cuts:?}");
        }
    }

    #[test]
    fn squash_resets_progress() {
        let mut c = Collector::new();
        let s = arrive(&mut c, 1, 0.0);
        c.on_admitted(s, t(0.1), SimDuration::ZERO);
        c.on_token(s, t(0.2));
        c.on_token(s, t(0.3));
        c.on_squash(s);
        // Re-execution.
        c.on_admitted(s, t(1.0), SimDuration::ZERO);
        c.on_token(s, t(1.2));
        c.on_finish(s, t(1.2));
        let r = &c.into_records()[0];
        assert_eq!(r.squashes, 1);
        assert_eq!(r.queue_delay(), Some(SimDuration::from_secs(1)));
        assert_eq!(r.ttft(), Some(SimDuration::from_millis(1200)));
        assert!(r.tbt_gaps.is_empty());
        assert_eq!(r.tbt_gaps.capacity(), 3, "the squash kept the room");
    }

    #[test]
    fn gaps_are_reserved_for_every_token_after_the_first() {
        let mut c = Collector::new();
        let s = arrive(&mut c, 1, 0.0);
        assert_eq!(c.get(s).unwrap().tbt_gaps.capacity(), 3);
        for at in [1.0, 1.1, 1.2, 1.3] {
            c.on_token(s, t(at));
        }
        let r = c.get(s).unwrap();
        assert_eq!((r.tbt_gaps.len(), r.tbt_gaps.capacity()), (3, 3));
        let one = c.on_arrival(
            RequestId(2),
            t(0.0),
            100,
            1,
            AdapterId(0),
            AdapterRank::new(8),
        );
        assert_eq!(c.get(one).unwrap().tbt_gaps.capacity(), 0);
    }

    #[test]
    fn only_first_admission_counts() {
        let mut c = Collector::new();
        let s = arrive(&mut c, 1, 0.0);
        c.on_admitted(s, t(0.5), SimDuration::from_millis(3));
        c.on_admitted(s, t(0.9), SimDuration::ZERO);
        assert_eq!(
            c.get(s).unwrap().queue_delay(),
            Some(SimDuration::from_millis(500))
        );
        assert_eq!(
            c.get(s).unwrap().load_on_critical_path,
            SimDuration::from_millis(3)
        );
    }

    #[test]
    fn records_sorted_by_arrival() {
        let mut c = Collector::new();
        arrive(&mut c, 2, 5.0);
        arrive(&mut c, 1, 1.0);
        arrive(&mut c, 3, 3.0);
        let ids: Vec<u64> = c.into_records().iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![1, 3, 2]);
    }

    #[test]
    fn export_is_insertion_order_independent() {
        // Slots follow registration order, not arrival order; the export
        // path must sort so derived outputs are reproducible regardless of
        // the order the engine (or a future parallel producer) fed events
        // in.
        let build = |order: &[u64]| {
            let mut c = Collector::new();
            let slots: Vec<(u64, Slot)> = order
                .iter()
                .map(|&id| (id, arrive(&mut c, id, id as f64 * 0.5)))
                .collect();
            for &(id, slot) in slots.iter().rev() {
                c.on_token(slot, t(100.0 + id as f64));
                c.on_finish(slot, t(200.0 + id as f64));
            }
            c.into_records()
                .iter()
                .map(|r| (r.id, r.arrival, r.first_token, r.finished))
                .collect::<Vec<_>>()
        };
        let a = build(&[1, 2, 3, 4, 5, 6, 7]);
        let b = build(&[7, 3, 1, 6, 2, 5, 4]);
        let c = build(&[4, 5, 6, 7, 1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a, c);
        let ids: Vec<u64> = a.iter().map(|&(id, ..)| id.0).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6, 7], "sorted by (arrival, id)");
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn unknown_request_panics() {
        let mut c = Collector::new();
        arrive(&mut c, 1, 0.0);
        c.on_token(Slot::new(9), t(0.0));
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut c = Collector::new();
        arrive(&mut c, 1, 0.0);
        arrive(&mut c, 1, 1.0);
    }

    #[test]
    fn removed_requests_leave_no_record() {
        let mut c = Collector::new();
        let a = arrive(&mut c, 1, 0.0);
        let b = arrive(&mut c, 2, 1.0);
        c.on_token(a, t(2.0));
        c.remove(RequestId(1));
        assert_eq!(c.get(a), None);
        assert_eq!(c.len(), 1);
        // The request may re-arrive, as a crash re-dispatch does.
        let again = arrive(&mut c, 1, 0.0);
        c.on_token(again, t(3.0));
        c.on_token(b, t(4.0));
        let recs = c.into_records();
        let seen: Vec<(u64, Option<SimTime>)> =
            recs.iter().map(|r| (r.id.0, r.first_token)).collect();
        assert_eq!(seen, vec![(1, Some(t(3.0))), (2, Some(t(4.0)))]);
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn removed_request_takes_no_events() {
        let mut c = Collector::new();
        let a = arrive(&mut c, 1, 0.0);
        c.remove(RequestId(1));
        c.on_token(a, t(1.0));
    }

    #[test]
    fn bypass_counter() {
        let mut c = Collector::new();
        let s = arrive(&mut c, 1, 0.0);
        c.on_bypass(s);
        c.on_bypass(s);
        assert_eq!(c.get(s).unwrap().bypasses, 2);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }
}
