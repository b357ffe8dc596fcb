//! The flight recorder: a bounded ring over the trace stream that dumps
//! the last N decisions when an anomaly predicate fires.
//!
//! The recorder is a post-hoc scan over the merged [`TraceLog`] rather
//! than an in-loop observer: the stream is already deterministic and
//! complete, so scanning after the run keeps every anomaly predicate off
//! the simulation hot path and lets new predicates run over old traces.

use crate::event::{TaggedEvent, TraceEvent, TraceLog};
use chameleon_simcore::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// A stateful anomaly detector fed the stream one event at a time.
pub trait AnomalyPredicate {
    /// Stable name, used in dump headers.
    fn name(&self) -> &'static str;

    /// Observes one event; returns a human-readable reason when the event
    /// trips the anomaly (the dump covers the ring *up to and including*
    /// this event).
    fn observe(&mut self, ev: &TaggedEvent) -> Option<String>;
}

/// Fires when a request's time-to-first-token exceeds the SLO.
#[derive(Debug, Clone)]
pub struct TtftSloPredicate {
    slo: SimDuration,
}

impl TtftSloPredicate {
    /// Arms the predicate with the run's TTFT SLO.
    pub fn new(slo: SimDuration) -> Self {
        TtftSloPredicate { slo }
    }
}

impl AnomalyPredicate for TtftSloPredicate {
    fn name(&self) -> &'static str {
        "ttft-over-slo"
    }

    fn observe(&mut self, ev: &TaggedEvent) -> Option<String> {
        if let TraceEvent::FirstToken { req, ttft } = ev.event {
            if ttft > self.slo {
                return Some(format!(
                    "req {req}: ttft {:.1}ms over slo {:.1}ms",
                    ttft.as_millis_f64(),
                    self.slo.as_millis_f64()
                ));
            }
        }
        None
    }
}

/// Fires when re-dispatch retries cluster into a storm: at least `count`
/// [`TraceEvent::RequestRetried`] events inside any sliding `window` of
/// simulated time. A single crash produces a bounded burst of retries; a
/// storm means backoff is not spreading them, or the fleet keeps losing
/// the same work.
#[derive(Debug, Clone)]
pub struct RetryStormPredicate {
    count: u32,
    window: SimDuration,
    recent: VecDeque<SimTime>,
}

impl RetryStormPredicate {
    /// Arms the predicate: `count` retries inside `window`.
    ///
    /// # Panics
    ///
    /// Panics on a zero count (it would fire on every event).
    pub fn new(count: u32, window: SimDuration) -> Self {
        assert!(count > 0, "retry storm needs a positive count");
        RetryStormPredicate {
            count,
            window,
            recent: VecDeque::new(),
        }
    }
}

impl AnomalyPredicate for RetryStormPredicate {
    fn name(&self) -> &'static str {
        "retry-storm"
    }

    fn observe(&mut self, ev: &TaggedEvent) -> Option<String> {
        if !matches!(ev.event, TraceEvent::RequestRetried { .. }) {
            return None;
        }
        while let Some(&front) = self.recent.front() {
            if ev.at.saturating_since(front) > self.window {
                self.recent.pop_front();
            } else {
                break;
            }
        }
        self.recent.push_back(ev.at);
        if self.recent.len() >= self.count as usize {
            let n = self.recent.len();
            // Reset so one storm fires once, not once per further retry.
            self.recent.clear();
            return Some(format!(
                "{n} retries within {:.1}ms (threshold {})",
                self.window.as_millis_f64(),
                self.count
            ));
        }
        None
    }
}

/// Fires when SLO-aware shedding refused a request while at least one
/// active engine sat idle — shedding under pressure is working as
/// designed; shedding beside idle capacity means the fleet-wide TTFT
/// estimate and reality disagree.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShedIdlePredicate;

impl ShedIdlePredicate {
    /// Creates the predicate.
    pub fn new() -> Self {
        ShedIdlePredicate
    }
}

impl AnomalyPredicate for ShedIdlePredicate {
    fn name(&self) -> &'static str {
        "shed-while-idle-capacity"
    }

    fn observe(&mut self, ev: &TaggedEvent) -> Option<String> {
        if let TraceEvent::RequestShed {
            req,
            est_ttft,
            idle_engines,
        } = ev.event
        {
            if idle_engines > 0 {
                return Some(format!(
                    "req {req} shed (est ttft {:.1}ms) with {idle_engines} idle engine(s)",
                    est_ttft.as_millis_f64()
                ));
            }
        }
        None
    }
}

/// One flight-recorder firing: the reason and the ring contents (the last
/// `capacity` decisions up to and including the trigger).
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Name of the predicate that fired.
    pub predicate: &'static str,
    /// Human-readable firing reason.
    pub reason: String,
    /// Instant of the triggering event.
    pub at: SimTime,
    /// The ring: the last decisions before (and including) the trigger.
    pub events: Vec<TaggedEvent>,
}

impl FlightDump {
    /// Serialises the dump as JSONL: one header line, then the ring.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        let _ = writeln!(
            out,
            "{{\"flight_dump\":\"{}\",\"at\":{},\"reason\":\"{}\",\"events\":{}}}",
            self.predicate,
            self.at.as_nanos(),
            escape_json(&self.reason),
            self.events.len()
        );
        for ev in &self.events {
            ev.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The bounded-ring flight recorder.
#[derive(Debug, Clone, Copy)]
pub struct FlightRecorder {
    capacity: usize,
    max_dumps: usize,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` decisions, dumping at most
    /// `max_dumps` times per scan (later firings still count, but a
    /// pathological run must not clone the ring thousands of times).
    pub fn new(capacity: usize, max_dumps: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs a non-empty ring");
        FlightRecorder {
            capacity,
            max_dumps,
        }
    }

    /// Replays `log` through `predicates`, collecting a dump per firing
    /// (up to `max_dumps`). Returns `(dumps, total_firings)`.
    pub fn scan(
        &self,
        log: &TraceLog,
        predicates: &mut [Box<dyn AnomalyPredicate>],
    ) -> (Vec<FlightDump>, u64) {
        let mut ring: VecDeque<&TaggedEvent> = VecDeque::with_capacity(self.capacity);
        let mut dumps = Vec::new();
        let mut firings = 0u64;
        for ev in log.events() {
            if ring.len() == self.capacity {
                ring.pop_front();
            }
            ring.push_back(ev);
            for p in predicates.iter_mut() {
                if let Some(reason) = p.observe(ev) {
                    firings += 1;
                    if dumps.len() < self.max_dumps {
                        dumps.push(FlightDump {
                            predicate: p.name(),
                            reason,
                            at: ev.at,
                            events: ring.iter().map(|e| (*e).clone()).collect(),
                        });
                    }
                }
            }
        }
        (dumps, firings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Lane, TraceBuffer};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn ttft_predicate_and_ring_bound() {
        let mut buf = TraceBuffer::new();
        for i in 0..100 {
            buf.push(
                t(i * 10),
                Lane::Engine(0),
                TraceEvent::QueueSample {
                    queued: i as u32,
                    running: 0,
                    kv_bytes: 0,
                    cache_bytes: 0,
                },
            );
        }
        buf.push(
            t(2_000_000_000),
            Lane::Engine(0),
            TraceEvent::FirstToken {
                req: 9,
                ttft: SimDuration::from_secs(2),
            },
        );
        let rec = FlightRecorder::new(16, 4);
        let mut preds: Vec<Box<dyn AnomalyPredicate>> =
            vec![Box::new(TtftSloPredicate::new(SimDuration::from_secs(1)))];
        let (dumps, firings) = rec.scan(&buf.finish(), &mut preds);
        assert_eq!(firings, 1);
        assert_eq!(dumps[0].events.len(), 16, "ring is bounded");
        assert!(matches!(
            dumps[0].events.last().unwrap().event,
            TraceEvent::FirstToken { req: 9, .. }
        ));
        assert!(dumps[0].reason.contains("over slo"));
    }

    #[test]
    fn retry_storm_needs_count_within_window() {
        let mut buf = TraceBuffer::new();
        // Three retries spread over 3s: never 3 inside a 1s window.
        for i in 0..3u64 {
            buf.push(
                t(i * 1_500_000_000),
                Lane::Coordinator,
                TraceEvent::RequestRetried {
                    req: i,
                    attempt: 1,
                    target: 0,
                },
            );
        }
        // Then a genuine storm: 3 retries inside 200ms.
        for i in 0..3u64 {
            buf.push(
                t(10_000_000_000 + i * 100_000_000),
                Lane::Coordinator,
                TraceEvent::RequestRetried {
                    req: 100 + i,
                    attempt: 2,
                    target: 1,
                },
            );
        }
        let rec = FlightRecorder::new(8, 4);
        let mut preds: Vec<Box<dyn AnomalyPredicate>> = vec![Box::new(RetryStormPredicate::new(
            3,
            SimDuration::from_secs(1),
        ))];
        let (dumps, firings) = rec.scan(&buf.finish(), &mut preds);
        assert_eq!(firings, 1, "spread-out retries are not a storm");
        assert_eq!(dumps[0].predicate, "retry-storm");
        assert_eq!(dumps[0].at, t(10_200_000_000));
        assert!(dumps[0].reason.contains("3 retries"));
    }

    #[test]
    fn shed_idle_fires_only_with_idle_capacity() {
        let mut buf = TraceBuffer::new();
        buf.push(
            t(10),
            Lane::Coordinator,
            TraceEvent::RequestShed {
                req: 1,
                est_ttft: SimDuration::from_secs(4),
                idle_engines: 0,
            },
        );
        buf.push(
            t(20),
            Lane::Coordinator,
            TraceEvent::RequestShed {
                req: 2,
                est_ttft: SimDuration::from_secs(4),
                idle_engines: 2,
            },
        );
        let rec = FlightRecorder::new(8, 4);
        let mut preds: Vec<Box<dyn AnomalyPredicate>> = vec![Box::new(ShedIdlePredicate::new())];
        let (dumps, firings) = rec.scan(&buf.finish(), &mut preds);
        assert_eq!(firings, 1, "shedding under real pressure is by design");
        assert_eq!(dumps[0].predicate, "shed-while-idle-capacity");
        assert!(dumps[0].reason.contains("2 idle engine(s)"));
    }

    #[test]
    fn max_dumps_caps_copies_not_counting() {
        let mut buf = TraceBuffer::new();
        for i in 0..10 {
            buf.push(
                t(i),
                Lane::Engine(0),
                TraceEvent::FirstToken {
                    req: i,
                    ttft: SimDuration::from_secs(5),
                },
            );
        }
        let rec = FlightRecorder::new(4, 3);
        let mut preds: Vec<Box<dyn AnomalyPredicate>> =
            vec![Box::new(TtftSloPredicate::new(SimDuration::from_secs(1)))];
        let (dumps, firings) = rec.scan(&buf.finish(), &mut preds);
        assert_eq!(dumps.len(), 3);
        assert_eq!(firings, 10);
    }
}
