//! The typed decision vocabulary and the deterministic merge machinery.
//!
//! Identities are carried as raw integers (`u32` adapter/engine ids,
//! `u64` request ids) so this crate sits below every subsystem crate and
//! none of them grow a cyclic dependency to be observable.

use chameleon_simcore::{SimDuration, SimTime};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Who emitted an event: the cluster coordinator (routing, autoscaling,
/// predictive warms, barriers) or one engine (cache, batching, tokens).
///
/// Lanes are the unit of ordering: within a lane events are appended in
/// that lane's own execution order, which is identical between serial and
/// parallel cluster execution because engine stepping is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// The cluster coordinator (a single-engine run has none).
    Coordinator,
    /// One engine, by stable [`EngineId`](https://docs.rs/chameleon-router) value.
    Engine(u32),
}

impl Lane {
    /// Total-order rank: the coordinator sorts before any engine at the
    /// same instant (it acts at the barrier the engines step *to*), and
    /// engines sort by stable identity.
    pub fn rank(self) -> u64 {
        match self {
            Lane::Coordinator => 0,
            Lane::Engine(e) => u64::from(e) + 1,
        }
    }
}

/// The autoscaler action recorded by [`TraceEvent::AutoscaleTrigger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutoscaleAction {
    /// Grow the fleet by one engine.
    ScaleUp,
    /// Drain (and eventually retire) the engine with this id.
    Drain(u32),
}

/// One decision, with the inputs that produced it.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The global dispatcher placed a request: the candidate set it saw
    /// (engine id, outstanding tokens), the engine it chose, and whether
    /// the placement was an affinity spill / residency hit.
    RouteDecision {
        /// Request id.
        req: u64,
        /// The request's adapter.
        adapter: u32,
        /// Chosen engine id.
        chosen: u32,
        /// The placement was diverted off the adapter's home engine.
        spilled: bool,
        /// The chosen engine already had the adapter resident.
        affinity_hit: bool,
        /// The live candidate engines at decision time, as
        /// `(engine_id, outstanding_tokens)` in snapshot order.
        candidates: Vec<(u32, u64)>,
    },
    /// The adapter cache admitted an adapter.
    CacheAdmit {
        /// Adapter id.
        adapter: u32,
        /// Weight bytes admitted.
        bytes: u64,
        /// References handed out at admission (waiting requests).
        refs: u32,
    },
    /// The adapter cache evicted an adapter, with the compound-score
    /// inputs (§4.2: frequency, recency, size) it was judged on.
    CacheEvict {
        /// Adapter id.
        adapter: u32,
        /// Weight bytes released.
        bytes: u64,
        /// Access-frequency counter at eviction.
        frequency: u32,
        /// Last-use instant at eviction.
        last_used: SimTime,
    },
    /// The local scheduler formed a batch (only emitted when at least one
    /// request was admitted).
    BatchFormed {
        /// Requests admitted this iteration boundary.
        admitted: u32,
        /// Running batch size after admission.
        running: u32,
        /// Requests still queued after admission.
        queued: u32,
    },
    /// A request produced its first output token.
    FirstToken {
        /// Request id.
        req: u64,
        /// Time to first token.
        ttft: SimDuration,
    },
    /// Periodic per-engine load sample (rides the memory-sample clock).
    QueueSample {
        /// Requests waiting in the local queue.
        queued: u32,
        /// Requests in the running batch.
        running: u32,
        /// KV-cache bytes in use.
        kv_bytes: u64,
        /// Adapter-cache bytes held.
        cache_bytes: u64,
    },
    /// The autoscaler decided to act, and on which signal.
    AutoscaleTrigger {
        /// What it decided.
        action: AutoscaleAction,
        /// The signal that fired: `"queue-depth"`, `"slo-estimate"` or
        /// `"forecast"`.
        trigger: &'static str,
    },
    /// The autoscaler started draining an engine.
    DrainStarted {
        /// The draining engine.
        engine: u32,
    },
    /// The failure detector declared an engine dead, with the backlog it
    /// was holding at the time.
    EngineFailed {
        /// The dead engine.
        engine: u32,
        /// Requests still waiting in its scheduler queues.
        queued: u32,
        /// Requests in its running batch.
        running: u32,
    },
    /// A request extracted from a dead engine was re-dispatched.
    RequestRetried {
        /// Request id.
        req: u64,
        /// Retry attempt number (1 = first re-dispatch).
        attempt: u32,
        /// Engine the router chose this time.
        target: u32,
    },
    /// SLO-aware shedding refused admission.
    RequestShed {
        /// Request id.
        req: u64,
        /// The fleet's best estimated TTFT at refusal, in nanoseconds.
        est_ttft: SimDuration,
        /// Active engines that were idle at refusal (shedding while
        /// capacity idles is the anomaly the flight recorder watches for).
        idle_engines: u32,
    },
    /// A correlated injection crashed a whole fault domain (rack).
    DomainFailed {
        /// The rack that failed.
        rack: u32,
        /// Engines the domain crash took down.
        engines: u32,
    },
    /// A coordinator↔domain partition healed; the rack's engines rejoined
    /// the reachable fleet.
    PartitionHealed {
        /// The rack that rejoined.
        rack: u32,
    },
    /// A dead engine's shard was re-homed onto survivors with cold/warm
    /// reloads.
    ShardRecovered {
        /// The dead engine whose shard moved.
        from: u32,
        /// Adapters re-homed.
        adapters: u32,
        /// Total bytes re-loaded.
        bytes: u64,
    },
    /// A coordinator barrier opened: engines are about to step to
    /// `boundary` (`None` = final drain to completion).
    BarrierOpen {
        /// Monotonic epoch counter.
        epoch: u64,
        /// The exclusive time boundary engines step to.
        boundary: Option<SimTime>,
        /// Engines with pending work at the barrier.
        pending: u32,
    },
    /// The matching barrier closed, with per-engine step counts for the
    /// epoch (the load-balance view of the worker pool).
    BarrierClose {
        /// Monotonic epoch counter.
        epoch: u64,
        /// `(engine_id, events_stepped)` for engines that did work.
        stepped: Vec<(u32, u64)>,
    },
    /// Amortised dispatch coalesced consecutive arrivals into one barrier
    /// (only emitted when batched dispatch is enabled).
    DispatchBatch {
        /// Snapshot generation the batch routed from.
        generation: u64,
        /// Arrivals routed (or shed) in the batch.
        size: u32,
        /// Trace time between the first and last member.
        span: SimDuration,
    },
    /// A fault barrier re-dispatched due retries as one batch from a
    /// single snapshot generation (only emitted when batched dispatch is
    /// enabled).
    RetryBatch {
        /// Snapshot generation the retries routed from.
        generation: u64,
        /// Retries dispatched at this barrier.
        size: u32,
        /// The generation was inherited from an arrival batch at the same
        /// instant instead of refreshing the snapshots.
        reused: bool,
    },
    /// KV-aware admission control refused an admission whose block-rounded
    /// KV footprint could not complete (only emitted when the KV plane is
    /// armed).
    AdmissionRefused {
        /// Request id.
        req: u64,
        /// Block-rounded KV bytes the admission needed.
        need_bytes: u64,
        /// Free + reclaimable bytes at refusal.
        free_bytes: u64,
        /// Wait the release schedule predicts until the deficit frees.
        est_wait: SimDuration,
    },
    /// A running request's full KV was demoted to a compact hidden-state
    /// proxy entry under pressure (hybrid cache mode).
    KvDemoted {
        /// Request id.
        req: u64,
        /// Full block-granular bytes released.
        full_bytes: u64,
        /// Proxy bytes left resident.
        proxy_bytes: u64,
    },
    /// A demoted request was restored to full KV residency over PCIe.
    KvRestored {
        /// Request id.
        req: u64,
        /// Full bytes re-reserved.
        kv_bytes: u64,
        /// Time the request spent demoted.
        stalled: SimDuration,
    },
}

impl TraceEvent {
    /// Short stable kind tag used in the JSONL `"ev"` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RouteDecision { .. } => "route",
            TraceEvent::CacheAdmit { .. } => "cache_admit",
            TraceEvent::CacheEvict { .. } => "cache_evict",
            TraceEvent::BatchFormed { .. } => "batch",
            TraceEvent::FirstToken { .. } => "first_token",
            TraceEvent::QueueSample { .. } => "queue",
            TraceEvent::AutoscaleTrigger { .. } => "autoscale",
            TraceEvent::DrainStarted { .. } => "drain",
            TraceEvent::EngineFailed { .. } => "engine_failed",
            TraceEvent::RequestRetried { .. } => "retry",
            TraceEvent::RequestShed { .. } => "shed",
            TraceEvent::DomainFailed { .. } => "domain_failed",
            TraceEvent::PartitionHealed { .. } => "partition_healed",
            TraceEvent::ShardRecovered { .. } => "shard_recovered",
            TraceEvent::BarrierOpen { .. } => "barrier_open",
            TraceEvent::BarrierClose { .. } => "barrier_close",
            TraceEvent::DispatchBatch { .. } => "dispatch_batch",
            TraceEvent::RetryBatch { .. } => "retry_batch",
            TraceEvent::AdmissionRefused { .. } => "admission_refused",
            TraceEvent::KvDemoted { .. } => "kv_demoted",
            TraceEvent::KvRestored { .. } => "kv_restored",
        }
    }
}

/// One event in the merged stream: instant, emitting lane, per-lane
/// sequence number, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedEvent {
    /// Simulated instant of the decision.
    pub at: SimTime,
    /// Emitting lane.
    pub lane: Lane,
    /// Per-lane sequence number (append order within the lane).
    pub seq: u64,
    /// The decision.
    pub event: TraceEvent,
}

impl TaggedEvent {
    /// The pinned total-order key: time, then lane rank (coordinator
    /// first), then per-lane append order. Unique per event, so the
    /// merged order is independent of merge-input order.
    pub fn sort_key(&self) -> (SimTime, u64, u64) {
        (self.at, self.lane.rank(), self.seq)
    }

    /// Appends this event as one JSONL line (no trailing newline).
    pub fn write_jsonl(&self, out: &mut String) {
        let _ = write!(out, "{{\"at\":{},", self.at.as_nanos());
        match self.lane {
            Lane::Coordinator => out.push_str("\"lane\":\"coord\","),
            Lane::Engine(e) => {
                let _ = write!(out, "\"lane\":\"e{e}\",");
            }
        }
        let _ = write!(out, "\"seq\":{},\"ev\":\"{}\"", self.seq, self.event.kind());
        match &self.event {
            TraceEvent::RouteDecision {
                req,
                adapter,
                chosen,
                spilled,
                affinity_hit,
                candidates,
            } => {
                let _ = write!(
                    out,
                    ",\"req\":{req},\"adapter\":{adapter},\"chosen\":{chosen},\
                     \"spilled\":{spilled},\"affinity_hit\":{affinity_hit},\"candidates\":["
                );
                for (i, (id, load)) in candidates.iter().enumerate() {
                    let comma = if i == 0 { "" } else { "," };
                    let _ = write!(out, "{comma}[{id},{load}]");
                }
                out.push(']');
            }
            TraceEvent::CacheAdmit {
                adapter,
                bytes,
                refs,
            } => {
                let _ = write!(
                    out,
                    ",\"adapter\":{adapter},\"bytes\":{bytes},\"refs\":{refs}"
                );
            }
            TraceEvent::CacheEvict {
                adapter,
                bytes,
                frequency,
                last_used,
            } => {
                let _ = write!(
                    out,
                    ",\"adapter\":{adapter},\"bytes\":{bytes},\"frequency\":{frequency},\
                     \"last_used\":{}",
                    last_used.as_nanos()
                );
            }
            TraceEvent::BatchFormed {
                admitted,
                running,
                queued,
            } => {
                let _ = write!(
                    out,
                    ",\"admitted\":{admitted},\"running\":{running},\"queued\":{queued}"
                );
            }
            TraceEvent::FirstToken { req, ttft } => {
                let _ = write!(out, ",\"req\":{req},\"ttft\":{}", ttft.as_nanos());
            }
            TraceEvent::QueueSample {
                queued,
                running,
                kv_bytes,
                cache_bytes,
            } => {
                let _ = write!(
                    out,
                    ",\"queued\":{queued},\"running\":{running},\
                     \"kv_bytes\":{kv_bytes},\"cache_bytes\":{cache_bytes}"
                );
            }
            TraceEvent::AutoscaleTrigger { action, trigger } => {
                match action {
                    AutoscaleAction::ScaleUp => out.push_str(",\"action\":\"scale-up\""),
                    AutoscaleAction::Drain(e) => {
                        let _ = write!(out, ",\"action\":\"drain\",\"victim\":{e}");
                    }
                }
                let _ = write!(out, ",\"trigger\":\"{trigger}\"");
            }
            TraceEvent::DrainStarted { engine } => {
                let _ = write!(out, ",\"engine\":{engine}");
            }
            TraceEvent::EngineFailed {
                engine,
                queued,
                running,
            } => {
                let _ = write!(
                    out,
                    ",\"engine\":{engine},\"queued\":{queued},\"running\":{running}"
                );
            }
            TraceEvent::RequestRetried {
                req,
                attempt,
                target,
            } => {
                let _ = write!(
                    out,
                    ",\"req\":{req},\"attempt\":{attempt},\"target\":{target}"
                );
            }
            TraceEvent::RequestShed {
                req,
                est_ttft,
                idle_engines,
            } => {
                let _ = write!(
                    out,
                    ",\"req\":{req},\"est_ttft\":{},\"idle_engines\":{idle_engines}",
                    est_ttft.as_nanos()
                );
            }
            TraceEvent::DomainFailed { rack, engines } => {
                let _ = write!(out, ",\"rack\":{rack},\"engines\":{engines}");
            }
            TraceEvent::PartitionHealed { rack } => {
                let _ = write!(out, ",\"rack\":{rack}");
            }
            TraceEvent::ShardRecovered {
                from,
                adapters,
                bytes,
            } => {
                let _ = write!(
                    out,
                    ",\"from\":{from},\"adapters\":{adapters},\"bytes\":{bytes}"
                );
            }
            TraceEvent::BarrierOpen {
                epoch,
                boundary,
                pending,
            } => {
                let _ = write!(out, ",\"epoch\":{epoch},\"boundary\":");
                match boundary {
                    Some(t) => {
                        let _ = write!(out, "{}", t.as_nanos());
                    }
                    None => out.push_str("null"),
                }
                let _ = write!(out, ",\"pending\":{pending}");
            }
            TraceEvent::BarrierClose { epoch, stepped } => {
                let _ = write!(out, ",\"epoch\":{epoch},\"stepped\":[");
                for (i, (id, n)) in stepped.iter().enumerate() {
                    let comma = if i == 0 { "" } else { "," };
                    let _ = write!(out, "{comma}[{id},{n}]");
                }
                out.push(']');
            }
            TraceEvent::DispatchBatch {
                generation,
                size,
                span,
            } => {
                let _ = write!(
                    out,
                    ",\"generation\":{generation},\"size\":{size},\"span\":{}",
                    span.as_nanos()
                );
            }
            TraceEvent::RetryBatch {
                generation,
                size,
                reused,
            } => {
                let _ = write!(
                    out,
                    ",\"generation\":{generation},\"size\":{size},\"reused\":{reused}"
                );
            }
            TraceEvent::AdmissionRefused {
                req,
                need_bytes,
                free_bytes,
                est_wait,
            } => {
                let _ = write!(
                    out,
                    ",\"req\":{req},\"need_bytes\":{need_bytes},\"free_bytes\":{free_bytes},\
                     \"est_wait\":{}",
                    est_wait.as_nanos()
                );
            }
            TraceEvent::KvDemoted {
                req,
                full_bytes,
                proxy_bytes,
            } => {
                let _ = write!(
                    out,
                    ",\"req\":{req},\"full_bytes\":{full_bytes},\"proxy_bytes\":{proxy_bytes}"
                );
            }
            TraceEvent::KvRestored {
                req,
                kv_bytes,
                stalled,
            } => {
                let _ = write!(
                    out,
                    ",\"req\":{req},\"kv_bytes\":{kv_bytes},\"stalled\":{}",
                    stalled.as_nanos()
                );
            }
        }
        out.push('}');
    }
}

/// Accumulates events lane by lane, assigning per-lane sequence numbers,
/// then merges them under the pinned total order.
///
/// Engines buffer their own events during a run (in their thread-confined
/// stepping), the coordinator pushes directly, and the cluster drains each
/// engine's buffer into its lane at retirement or end of run. Because
/// every lane's contents are independent of execution mode, the merged
/// stream is byte-identical between serial and parallel runs.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    events: Vec<TaggedEvent>,
    seqs: HashMap<u64, u64>,
}

impl TraceBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        TraceBuffer::default()
    }

    /// Appends one event to `lane`, assigning the lane's next sequence
    /// number.
    pub fn push(&mut self, at: SimTime, lane: Lane, event: TraceEvent) {
        let seq = self.seqs.entry(lane.rank()).or_insert(0);
        self.events.push(TaggedEvent {
            at,
            lane,
            seq: *seq,
            event,
        });
        *seq += 1;
    }

    /// Appends a batch of `(at, event)` pairs to `lane` in order. Batches
    /// for one lane must arrive in that lane's execution order (they do:
    /// an engine's buffer is drained chronologically).
    pub fn extend_lane<I>(&mut self, lane: Lane, batch: I)
    where
        I: IntoIterator<Item = (SimTime, TraceEvent)>,
    {
        for (at, event) in batch {
            self.push(at, lane, event);
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Merges into the final stream: sort by the pinned `(time, lane,
    /// seq)` key, which is unique per event, so the result is independent
    /// of the order lanes were drained in.
    pub fn finish(mut self) -> TraceLog {
        self.events.sort_by_key(TaggedEvent::sort_key);
        TraceLog {
            events: self.events,
        }
    }
}

/// The merged, deterministically ordered event stream of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    events: Vec<TaggedEvent>,
}

impl TraceLog {
    /// The merged events, in pinned order.
    pub fn events(&self) -> &[TaggedEvent] {
        &self.events
    }

    /// Number of events in the stream.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True for an empty stream.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serialises the stream as JSONL, one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for ev in &self.events {
            ev.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample(q: u32) -> TraceEvent {
        TraceEvent::QueueSample {
            queued: q,
            running: 0,
            kv_bytes: 0,
            cache_bytes: 0,
        }
    }

    #[test]
    fn merge_is_drain_order_independent() {
        let engine_batch = vec![(t(5), sample(1)), (t(10), sample(2))];
        let coord = [
            (t(5), TraceEvent::DrainStarted { engine: 7 }),
            (t(10), TraceEvent::DrainStarted { engine: 8 }),
        ];

        let mut a = TraceBuffer::new();
        for (at, ev) in coord.iter().cloned() {
            a.push(at, Lane::Coordinator, ev);
        }
        a.extend_lane(Lane::Engine(0), engine_batch.clone());

        let mut b = TraceBuffer::new();
        b.extend_lane(Lane::Engine(0), engine_batch);
        for (at, ev) in coord.iter().cloned() {
            b.push(at, Lane::Coordinator, ev);
        }

        let (a, b) = (a.finish(), b.finish());
        assert_eq!(a, b, "merge must not depend on drain order");
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        // Coordinator sorts before the engine at equal instants.
        assert_eq!(a.events()[0].lane, Lane::Coordinator);
        assert_eq!(a.events()[1].lane, Lane::Engine(0));
    }

    #[test]
    fn per_lane_seq_preserves_append_order_at_equal_times() {
        let mut buf = TraceBuffer::new();
        buf.push(t(3), Lane::Coordinator, sample(1));
        buf.push(t(3), Lane::Coordinator, sample(2));
        let log = buf.finish();
        assert_eq!(log.events()[0].seq, 0);
        assert_eq!(log.events()[1].seq, 1);
        match (&log.events()[0].event, &log.events()[1].event) {
            (
                TraceEvent::QueueSample { queued: a, .. },
                TraceEvent::QueueSample { queued: b, .. },
            ) => {
                assert_eq!((*a, *b), (1, 2));
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn kv_events_jsonl_shape() {
        let mut buf = TraceBuffer::new();
        buf.push(
            t(1_000),
            Lane::Engine(0),
            TraceEvent::AdmissionRefused {
                req: 5,
                need_bytes: 4096,
                free_bytes: 1024,
                est_wait: SimDuration::from_nanos(500),
            },
        );
        buf.push(
            t(2_000),
            Lane::Engine(0),
            TraceEvent::KvDemoted {
                req: 6,
                full_bytes: 8192,
                proxy_bytes: 1024,
            },
        );
        buf.push(
            t(3_000),
            Lane::Engine(0),
            TraceEvent::KvRestored {
                req: 6,
                kv_bytes: 8192,
                stalled: SimDuration::from_nanos(1_000),
            },
        );
        let jsonl = buf.finish().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].contains("\"ev\":\"admission_refused\""));
        assert!(lines[0].contains("\"need_bytes\":4096,\"free_bytes\":1024,\"est_wait\":500"));
        assert!(lines[1].contains("\"ev\":\"kv_demoted\""));
        assert!(lines[1].contains("\"full_bytes\":8192,\"proxy_bytes\":1024"));
        assert!(lines[2].contains("\"ev\":\"kv_restored\""));
        assert!(lines[2].contains("\"kv_bytes\":8192,\"stalled\":1000"));
        for line in lines {
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }

    #[test]
    fn jsonl_shape() {
        let mut buf = TraceBuffer::new();
        buf.push(
            t(1_000),
            Lane::Coordinator,
            TraceEvent::RouteDecision {
                req: 42,
                adapter: 7,
                chosen: 2,
                spilled: true,
                affinity_hit: false,
                candidates: vec![(0, 10), (2, 3)],
            },
        );
        buf.push(
            t(2_000),
            Lane::Engine(2),
            TraceEvent::CacheEvict {
                adapter: 7,
                bytes: 1024,
                frequency: 3,
                last_used: t(900),
            },
        );
        buf.push(
            t(3_000),
            Lane::Coordinator,
            TraceEvent::BarrierOpen {
                epoch: 4,
                boundary: None,
                pending: 2,
            },
        );
        buf.push(
            t(4_000),
            Lane::Coordinator,
            TraceEvent::DispatchBatch {
                generation: 9,
                size: 17,
                span: SimDuration::from_nanos(250),
            },
        );
        buf.push(
            t(5_000),
            Lane::Coordinator,
            TraceEvent::RetryBatch {
                generation: 9,
                size: 3,
                reused: true,
            },
        );
        let jsonl = buf.finish().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[3].contains("\"ev\":\"dispatch_batch\""));
        assert!(lines[3].contains("\"generation\":9,\"size\":17,\"span\":250"));
        assert!(lines[4].contains("\"ev\":\"retry_batch\""));
        assert!(lines[4].contains("\"generation\":9,\"size\":3,\"reused\":true"));
        assert_eq!(
            lines[0],
            "{\"at\":1000,\"lane\":\"coord\",\"seq\":0,\"ev\":\"route\",\"req\":42,\
             \"adapter\":7,\"chosen\":2,\"spilled\":true,\"affinity_hit\":false,\
             \"candidates\":[[0,10],[2,3]]}"
        );
        assert!(lines[1].contains("\"ev\":\"cache_evict\""));
        assert!(lines[1].contains("\"last_used\":900"));
        assert!(lines[2].contains("\"boundary\":null"));
        // Every line parses as a flat object by brace balance.
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }
}
