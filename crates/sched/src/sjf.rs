//! Speculative shortest-job-first with aging — the μServe policy (§3.3).
//!
//! Requests are ordered by *predicted output length* ("existing systems
//! predict the request output lengths and prioritize the requests with the
//! shortest predicted outputs"). An aging credit proportional to waiting
//! time keeps long requests from starving outright — but, as the paper
//! shows (Figure 15/16), prioritising short requests still inflates long
//! requests' tail latency badly.

use crate::queued::QueuedRequest;
use crate::scheduler::{effective_need, AdmissionOutcome, ResourceProbe, Scheduler};
use chameleon_models::{AdapterId, AdapterStamps};

/// Default aging credit: tokens of priority gained per second of waiting.
pub const DEFAULT_AGING_TOKENS_PER_SEC: f64 = 8.0;

/// Predicted-shortest-first admission with aging.
#[derive(Debug)]
pub struct SjfScheduler {
    queue: Vec<QueuedRequest>,
    aging_tokens_per_sec: f64,
    /// Dedup scratch for [`Scheduler::queued_adapters_into`].
    seen: AdapterStamps,
}

impl SjfScheduler {
    /// Creates the scheduler with the default aging rate.
    pub fn new() -> Self {
        SjfScheduler::with_aging(DEFAULT_AGING_TOKENS_PER_SEC)
    }

    /// Creates the scheduler with a custom aging rate (0 disables aging and
    /// produces pure SJF, maximal starvation).
    ///
    /// # Panics
    ///
    /// Panics if `aging_tokens_per_sec` is negative or not finite.
    pub fn with_aging(aging_tokens_per_sec: f64) -> Self {
        assert!(aging_tokens_per_sec.is_finite() && aging_tokens_per_sec >= 0.0);
        SjfScheduler {
            queue: Vec::new(),
            aging_tokens_per_sec,
            seen: AdapterStamps::default(),
        }
    }

    /// Effective priority: predicted output minus the aging credit. Lower
    /// runs first.
    pub fn priority(&self, req: &QueuedRequest, now: chameleon_simcore::SimTime) -> f64 {
        f64::from(req.predicted_output()) - self.aging_tokens_per_sec * req.wait(now).as_secs_f64()
    }

    fn sort_by_priority(&mut self, now: chameleon_simcore::SimTime) {
        let rate = self.aging_tokens_per_sec;
        self.queue.sort_by(|a, b| {
            let pa = f64::from(a.predicted_output()) - rate * a.wait(now).as_secs_f64();
            let pb = f64::from(b.predicted_output()) - rate * b.wait(now).as_secs_f64();
            pa.partial_cmp(&pb)
                .expect("finite priority")
                .then(a.id().cmp(&b.id()))
        });
    }
}

impl Default for SjfScheduler {
    fn default() -> Self {
        SjfScheduler::new()
    }
}

impl Scheduler for SjfScheduler {
    fn enqueue(&mut self, req: QueuedRequest) {
        self.queue.push(req);
    }

    fn requeue_front(&mut self, req: QueuedRequest) {
        // SJF has no "front"; the request re-enters the priority order.
        self.queue.push(req);
    }

    fn form_batch_into(&mut self, probe: &dyn ResourceProbe, out: &mut Vec<AdmissionOutcome>) {
        let now = probe.now();
        self.sort_by_priority(now);
        let mut tokens = probe.available_tokens();
        let mut slots = probe.batch_slots();
        let idx = 0;
        while idx < self.queue.len() && slots > 0 {
            let need = effective_need(&self.queue[idx], probe);
            if need > tokens {
                break; // highest-priority request blocked: SJF stops here
            }
            tokens -= need;
            slots -= 1;
            let request = self.queue.remove(idx);
            out.push(AdmissionOutcome {
                request,
                queue_index: 0,
                num_queues: 1,
                charged_tokens: need,
                bypassed: false,
            });
            // idx stays 0: remove shifted the vector.
        }
    }

    fn on_finish(&mut self, _queue_index: usize, _charged_tokens: u64) {}

    fn queued_adapters_into(&mut self, out: &mut Vec<AdapterId>) {
        self.seen.clear();
        for q in &self.queue {
            if self.seen.insert(q.adapter()) {
                out.push(q.adapter());
            }
        }
    }

    fn drain_queued_into(&mut self, out: &mut Vec<QueuedRequest>) {
        out.append(&mut self.queue);
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn name(&self) -> &'static str {
        "sjf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::StaticProbe;
    use chameleon_models::AdapterRank;
    use chameleon_simcore::{SimDuration, SimTime};
    use chameleon_workload::{Request, RequestId};

    fn queued_at(id: u64, predicted: u32, at: f64) -> QueuedRequest {
        let t = SimTime::from_secs_f64(at);
        let r = Request::new(
            RequestId(id),
            t,
            10,
            predicted.max(1),
            AdapterId(id as u32),
            AdapterRank::new(8),
        );
        QueuedRequest::new(r, predicted, 16 << 20, 0, 0.1, t)
    }

    #[test]
    fn shortest_predicted_first() {
        let mut s = SjfScheduler::with_aging(0.0);
        s.enqueue(queued_at(0, 500, 0.0));
        s.enqueue(queued_at(1, 5, 0.0));
        s.enqueue(queued_at(2, 50, 0.0));
        let out = s.form_batch(&StaticProbe::default());
        let ids: Vec<u64> = out.iter().map(|o| o.request.id().0).collect();
        assert_eq!(ids, vec![1, 2, 0]);
    }

    #[test]
    fn pure_sjf_starves_long_requests() {
        let mut s = SjfScheduler::with_aging(0.0);
        s.enqueue(queued_at(0, 1000, 0.0)); // long, arrived first
        s.enqueue(queued_at(1, 10, 5.0)); // short, arrived later
        let probe = StaticProbe {
            batch_slots: 1,
            now: SimTime::from_secs_f64(10.0),
            ..StaticProbe::default()
        };
        let out = s.form_batch(&probe);
        assert_eq!(
            out[0].request.id().0,
            1,
            "short wins despite arriving later"
        );
    }

    #[test]
    fn aging_eventually_promotes_long_requests() {
        let mut s = SjfScheduler::with_aging(100.0);
        s.enqueue(queued_at(0, 1000, 0.0)); // long, waiting since t=0
        s.enqueue(queued_at(1, 10, 99.0)); // short, just arrived
                                           // At t=100 the long request has 100 s · 100 tok/s = 10 000 credit.
        let probe = StaticProbe {
            batch_slots: 1,
            now: SimTime::from_secs_f64(100.0),
            ..StaticProbe::default()
        };
        let out = s.form_batch(&probe);
        assert_eq!(out[0].request.id().0, 0, "aged request runs first");
    }

    #[test]
    fn blocked_head_stops_admission() {
        let mut s = SjfScheduler::with_aging(0.0);
        s.enqueue(queued_at(0, 50, 0.0)); // shortest, 60 tokens
        s.enqueue(queued_at(1, 100, 0.0)); // 110 tokens
        let probe = StaticProbe {
            available_tokens: 40,
            ..StaticProbe::default()
        };
        assert!(s.form_batch(&probe).is_empty());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn priority_is_aging_linear() {
        let s = SjfScheduler::with_aging(10.0);
        let r = queued_at(0, 100, 0.0);
        let p0 = s.priority(&r, SimTime::ZERO);
        let p5 = s.priority(&r, SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(p0, 100.0);
        assert_eq!(p5, 50.0);
    }

    #[test]
    fn requeue_reenters_priority_order() {
        let mut s = SjfScheduler::with_aging(0.0);
        s.enqueue(queued_at(0, 10, 0.0));
        s.requeue_front(queued_at(1, 5, 0.0));
        let out = s.form_batch(&StaticProbe::default());
        assert_eq!(out[0].request.id().0, 1, "shorter request still first");
    }

    #[test]
    #[should_panic]
    fn rejects_negative_aging() {
        let _ = SjfScheduler::with_aging(-1.0);
    }
}
