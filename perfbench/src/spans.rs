//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own code around calls
//! into the simulator's public API (the driver loop, the wrapper types in
//! [`crate::wrap`]). Each span has a kind, a start, an end, a parent (the
//! span open when it started) and, where one exists, a request id.
//!
//! A traced run opens hundreds of thousands of spans, so the recorder
//! keeps two things: per-kind aggregates (calls, total time, and the time
//! covered by child spans, from which self time follows) over *every*
//! span, and the first [`DUMP_CAP`] raw spans for the dump written when
//! the benchmark ends. Everything lives in a thread-local: each workload
//! runs on one thread, and the wrapped traits require `Send`, which a
//! shared handle would complicate.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for the dump, per recorder.
pub const DUMP_CAP: usize = 50_000;

/// What a span timed. Each kind belongs to one layer of the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole traced run: the equivalent of `Simulation::run`.
    Run,
    /// SLO and WRS derivation plus engine (or cluster) construction.
    Build,
    /// The single-engine driver loop (the benchmark's copy).
    Driver,
    /// `EventQueue` pushes and pops.
    Queue,
    /// `Engine::handle` (the request id is set for arrivals).
    Handle,
    /// `Cluster::run_with`.
    ClusterRun,
    /// `Scheduler::enqueue`.
    SchedEnqueue,
    /// `Scheduler::form_batch_into`.
    SchedFormBatch,
    /// `Scheduler::queued_adapters_into`.
    SchedQueuedAdapters,
    /// `Scheduler::on_refresh`.
    SchedRefresh,
    /// `Scheduler::requeue_front`, `on_finish` and `drain_queued_into`.
    SchedOther,
    /// `OutputLenPredictor::predict`.
    Predict,
    /// `Router::route`.
    Route,
    /// `Engine::into_report` (or `Cluster::into_report_with_trace`), the
    /// isolated-E2E oracle and `RunReport::new`.
    Report,
}

/// Number of span kinds.
const KINDS: usize = Kind::Report as usize + 1;

impl Kind {
    /// The span name written to the dump.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Run => "core.run",
            Kind::Build => "core.build",
            Kind::Driver => "engine.driver_loop",
            Kind::Queue => "simcore.queue",
            Kind::Handle => "engine.handle",
            Kind::ClusterRun => "engine.cluster_run",
            Kind::SchedEnqueue => "sched.enqueue",
            Kind::SchedFormBatch => "sched.form_batch",
            Kind::SchedQueuedAdapters => "sched.queued_adapters",
            Kind::SchedRefresh => "sched.refresh",
            Kind::SchedOther => "sched.other",
            Kind::Predict => "predictor.predict",
            Kind::Route => "router.route",
            Kind::Report => "core.report",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Aggregate of every span of one kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations, in nanoseconds.
    pub total_ns: u64,
    /// Summed durations of direct child spans, in nanoseconds.
    pub child_ns: u64,
}

impl Agg {
    /// Time inside spans of this kind not covered by their children.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// One raw span as dumped.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    parent: u32,
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
    request: Option<u64>,
}

struct Open {
    id: u32,
    kind: Kind,
    start: Instant,
    start_ns: u64,
    child_ns: u64,
    request: Option<u64>,
}

/// No parent (a root span).
const NO_PARENT: u32 = u32::MAX;

struct Recorder {
    origin: Instant,
    next_id: u32,
    stack: Vec<Open>,
    aggs: [Agg; KINDS],
    dump: Vec<Span>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding any earlier spans.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            next_id: 0,
            stack: Vec::with_capacity(16),
            aggs: [Agg::default(); KINDS],
            dump: Vec::with_capacity(DUMP_CAP),
        })
    });
}

/// Stops recording and returns what was recorded.
///
/// # Panics
///
/// Panics if recording was not started or a span is still open.
pub fn finish() -> Recording {
    let rec = REC
        .with(|r| r.borrow_mut().take())
        .expect("span recording was started");
    assert!(rec.stack.is_empty(), "spans left open");
    Recording {
        aggs: rec.aggs,
        dump: rec.dump,
    }
}

/// An open span; closes when dropped. Inert when recording is off.
#[must_use = "a span closes when the guard drops"]
pub struct Guard {
    live: bool,
}

/// Opens a span of `kind`.
pub fn open(kind: Kind) -> Guard {
    open_for(kind, None)
}

/// Opens a span of `kind` tagged with a request id.
pub fn open_for(kind: Kind, request: Option<u64>) -> Guard {
    let live = REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return false;
        };
        let id = rec.next_id;
        rec.next_id = rec.next_id.wrapping_add(1);
        let start = Instant::now();
        let start_ns = start.duration_since(rec.origin).as_nanos() as u64;
        rec.stack.push(Open {
            id,
            kind,
            start,
            start_ns,
            child_ns: 0,
            request,
        });
        true
    });
    Guard { live }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end = Instant::now();
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let Some(rec) = r.as_mut() else {
                return;
            };
            let Some(open) = rec.stack.pop() else {
                return;
            };
            let dur = end.duration_since(open.start).as_nanos() as u64;
            let agg = &mut rec.aggs[open.kind.index()];
            agg.calls += 1;
            agg.total_ns += dur;
            agg.child_ns += open.child_ns;
            let parent = match rec.stack.last_mut() {
                Some(p) => {
                    p.child_ns += dur;
                    p.id
                }
                None => NO_PARENT,
            };
            if rec.dump.len() < DUMP_CAP {
                rec.dump.push(Span {
                    id: open.id,
                    parent,
                    kind: open.kind,
                    start_ns: open.start_ns,
                    end_ns: open.start_ns + dur,
                    request: open.request,
                });
            }
        });
    }
}

/// What one recording produced.
#[derive(Debug, Clone)]
pub struct Recording {
    aggs: [Agg; KINDS],
    dump: Vec<Span>,
}

impl Recording {
    /// The aggregate of every span of `kind`.
    pub fn agg(&self, kind: Kind) -> Agg {
        self.aggs[kind.index()]
    }

    /// Adds another recording's aggregates to this one (the dump keeps
    /// only this recording's spans).
    pub fn merge(&mut self, other: &Recording) {
        for (a, b) in self.aggs.iter_mut().zip(other.aggs.iter()) {
            a.calls += b.calls;
            a.total_ns += b.total_ns;
            a.child_ns += b.child_ns;
        }
    }

    /// The dump as tab-separated text: `id parent name start_ns end_ns
    /// request`, in closing order, times relative to the recording's
    /// start, `-` for no parent or no request.
    pub fn dump_tsv(&self) -> String {
        let mut s = String::with_capacity(64 + self.dump.len() * 56);
        s.push_str("id\tparent\tname\tstart_ns\tend_ns\trequest\n");
        for sp in &self.dump {
            let _ = write!(s, "{}\t", sp.id);
            if sp.parent == NO_PARENT {
                s.push('-');
            } else {
                let _ = write!(s, "{}", sp.parent);
            }
            let _ = write!(s, "\t{}\t{}\t{}\t", sp.kind.name(), sp.start_ns, sp.end_ns);
            match sp.request {
                Some(id) => {
                    let _ = writeln!(s, "{id}");
                }
                None => s.push_str("-\n"),
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start();
        {
            let _outer = open(Kind::Run);
            {
                let _inner = open_for(Kind::Handle, Some(7));
                std::hint::black_box((0..1000).sum::<u64>());
            }
        }
        let rec = finish();
        let run = rec.agg(Kind::Run);
        let handle = rec.agg(Kind::Handle);
        assert_eq!((run.calls, handle.calls), (1, 1));
        assert_eq!(run.child_ns, handle.total_ns);
        assert_eq!(run.self_ns() + handle.total_ns, run.total_ns);
        let tsv = rec.dump_tsv();
        assert!(tsv.contains("\tengine.handle\t"));
        assert!(tsv.lines().nth(1).unwrap().ends_with("\t7"));
    }

    #[test]
    fn guards_are_inert_when_off() {
        let g = open(Kind::Queue);
        assert!(!g.live);
    }
}
