//! Timing wrappers around the simulator's three pluggable traits.
//!
//! Each wrapper forwards *every* trait method, default methods included,
//! to the wrapped value, so it can never change behaviour: a missed
//! default such as `Router::staleness` or `Router::needs_residency` would
//! silently swap the inner policy's answer for the trait default. The
//! `inert` test suite checks this byte for byte.
//!
//! Around the calls worth timing the wrappers open a span (see
//! [`crate::spans`]) and bump the thread-local [`Counters`] for the
//! ratios spans cannot give (admissions per batch, bypasses, queue depth).

use crate::spans::{self, Kind};
use chameleon_models::AdapterId;
use chameleon_predictor::OutputLenPredictor;
use chameleon_router::{EngineSnapshot, RouteDecision, Router, StalenessClass};
use chameleon_sched::{AdmissionOutcome, QueuedRequest, ResourceProbe, Scheduler};
use chameleon_workload::Request;
use std::cell::RefCell;

/// Exact per-layer work counters the spans do not carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Requests admitted by `form_batch`.
    pub admitted: u64,
    /// `form_batch` calls that admitted at least one request.
    pub yielding_calls: u64,
    /// Admissions with `bypassed` set.
    pub bypassed: u64,
    /// Queue length summed over `form_batch` calls (sampled on entry).
    pub depth_sum: u64,
}

impl Counters {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Counters) {
        self.admitted += other.admitted;
        self.yielding_calls += other.yielding_calls;
        self.bypassed += other.bypassed;
        self.depth_sum += other.depth_sum;
    }
}

thread_local! {
    static COUNTERS: RefCell<Counters> = RefCell::new(Counters::default());
}

/// Returns this thread's counters and resets them.
pub fn take_counters() -> Counters {
    COUNTERS.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

/// Counts one `form_batch` call that found `depth` requests queued and
/// admitted `added`.
fn count_batch(depth: usize, added: &[AdmissionOutcome]) {
    COUNTERS.with(|c| {
        let mut c = c.borrow_mut();
        c.admitted += added.len() as u64;
        c.yielding_calls += u64::from(!added.is_empty());
        c.bypassed += added.iter().filter(|o| o.bypassed).count() as u64;
        c.depth_sum += depth as u64;
    });
}

/// A scheduler that times and counts calls into the wrapped one.
pub struct TimedScheduler(pub Box<dyn Scheduler>);

impl Scheduler for TimedScheduler {
    fn enqueue(&mut self, req: QueuedRequest) {
        let _s = spans::open_for(Kind::SchedEnqueue, Some(req.id().0));
        self.0.enqueue(req);
    }

    fn requeue_front(&mut self, req: QueuedRequest) {
        let _s = spans::open_for(Kind::SchedOther, Some(req.id().0));
        self.0.requeue_front(req);
    }

    fn form_batch_into(&mut self, probe: &dyn ResourceProbe, out: &mut Vec<AdmissionOutcome>) {
        let depth = self.0.len();
        let before = out.len();
        {
            let _s = spans::open(Kind::SchedFormBatch);
            self.0.form_batch_into(probe, out);
        }
        count_batch(depth, &out[before..]);
    }

    fn form_batch(&mut self, probe: &dyn ResourceProbe) -> Vec<AdmissionOutcome> {
        let depth = self.0.len();
        let out = {
            let _s = spans::open(Kind::SchedFormBatch);
            self.0.form_batch(probe)
        };
        count_batch(depth, &out);
        out
    }

    fn on_finish(&mut self, queue_index: usize, charged_tokens: u64) {
        let _s = spans::open(Kind::SchedOther);
        self.0.on_finish(queue_index, charged_tokens);
    }

    fn queued_adapters_into(&mut self, out: &mut Vec<AdapterId>) {
        let _s = spans::open(Kind::SchedQueuedAdapters);
        self.0.queued_adapters_into(out);
    }

    fn queued_adapters(&mut self) -> Vec<AdapterId> {
        let _s = spans::open(Kind::SchedQueuedAdapters);
        self.0.queued_adapters()
    }

    fn drain_queued_into(&mut self, out: &mut Vec<QueuedRequest>) {
        let _s = spans::open(Kind::SchedOther);
        self.0.drain_queued_into(out);
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn on_refresh(&mut self, probe: &dyn ResourceProbe) {
        let _s = spans::open(Kind::SchedRefresh);
        self.0.on_refresh(probe);
    }

    fn queue_index_for(&self, wrs: f64) -> usize {
        self.0.queue_index_for(wrs)
    }

    fn num_queues(&self) -> usize {
        self.0.num_queues()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn debug_state(&self) -> String {
        self.0.debug_state()
    }
}

/// An output-length predictor that times calls into the wrapped one.
pub struct TimedPredictor(pub Box<dyn OutputLenPredictor>);

impl OutputLenPredictor for TimedPredictor {
    fn predict(&mut self, request: &Request) -> u32 {
        let _s = spans::open_for(Kind::Predict, Some(request.id().0));
        self.0.predict(request)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// A router that times calls into the wrapped one.
pub struct TimedRouter(pub Box<dyn Router>);

impl Router for TimedRouter {
    fn route(&mut self, req: &Request, engines: &[EngineSnapshot]) -> RouteDecision {
        let _s = spans::open_for(Kind::Route, Some(req.id().0));
        self.0.route(req, engines)
    }

    fn needs_residency(&self) -> bool {
        self.0.needs_residency()
    }

    fn uses_affinity(&self) -> bool {
        self.0.uses_affinity()
    }

    fn staleness(&self) -> StalenessClass {
        self.0.staleness()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}
