//! FIFO admission — S-LoRA's default policy (§3.3).
//!
//! Requests are admitted in strict arrival order; batch formation stops at
//! the first request that does not fit the remaining resources. This is
//! what produces head-of-line blocking: one large request at the head
//! stalls every smaller request behind it, even when they would fit.

use crate::queued::QueuedRequest;
use crate::scheduler::{effective_need, AdmissionOutcome, ResourceProbe, Scheduler};
use chameleon_models::{AdapterId, AdapterStamps};
use std::collections::VecDeque;

/// Strict arrival-order admission.
#[derive(Debug, Default)]
pub struct FifoScheduler {
    queue: VecDeque<QueuedRequest>,
    /// Dedup scratch for [`Scheduler::queued_adapters_into`].
    seen: AdapterStamps,
}

impl FifoScheduler {
    /// Creates an empty FIFO scheduler.
    pub fn new() -> Self {
        FifoScheduler::default()
    }
}

impl Scheduler for FifoScheduler {
    fn enqueue(&mut self, req: QueuedRequest) {
        self.queue.push_back(req);
    }

    fn requeue_front(&mut self, req: QueuedRequest) {
        self.queue.push_front(req);
    }

    fn form_batch_into(&mut self, probe: &dyn ResourceProbe, out: &mut Vec<AdmissionOutcome>) {
        let mut tokens = probe.available_tokens();
        let mut slots = probe.batch_slots();
        while slots > 0 {
            let Some(head) = self.queue.front() else {
                break;
            };
            let need = effective_need(head, probe);
            if need > tokens {
                break; // head-of-line blocking: nothing behind may pass
            }
            tokens -= need;
            slots -= 1;
            let request = self.queue.pop_front().expect("front checked");
            out.push(AdmissionOutcome {
                request,
                queue_index: 0,
                num_queues: 1,
                charged_tokens: need,
                bypassed: false,
            });
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
        out.extend(self.queue.drain(..));
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::StaticProbe;
    use chameleon_models::AdapterRank;
    use chameleon_simcore::SimTime;
    use chameleon_workload::{Request, RequestId};

    fn queued(id: u64, input: u32, predicted: u32, adapter: u32) -> QueuedRequest {
        let r = Request::new(
            RequestId(id),
            SimTime::ZERO,
            input,
            predicted.max(1),
            AdapterId(adapter),
            AdapterRank::new(8),
        );
        QueuedRequest::new(r, predicted, 16 << 20, 0, 0.1, SimTime::ZERO)
    }

    #[test]
    fn admits_in_arrival_order() {
        let mut s = FifoScheduler::new();
        for i in 0..5 {
            s.enqueue(queued(i, 10, 10, i as u32));
        }
        let out = s.form_batch(&StaticProbe::default());
        let ids: Vec<u64> = out.iter().map(|o| o.request.id().0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(s.is_empty());
    }

    #[test]
    fn blocks_behind_oversized_head() {
        let mut s = FifoScheduler::new();
        s.enqueue(queued(0, 500, 500, 0)); // needs 1000 tokens
        s.enqueue(queued(1, 5, 5, 1)); // tiny, would fit
        let probe = StaticProbe {
            available_tokens: 100,
            ..StaticProbe::default()
        };
        let out = s.form_batch(&probe);
        assert!(out.is_empty(), "HoL blocking: nothing admitted");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn respects_slots() {
        let mut s = FifoScheduler::new();
        for i in 0..5 {
            s.enqueue(queued(i, 10, 10, 0));
        }
        let probe = StaticProbe {
            batch_slots: 2,
            ..StaticProbe::default()
        };
        assert_eq!(s.form_batch(&probe).len(), 2);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn respects_token_budget_cumulatively() {
        let mut s = FifoScheduler::new();
        for i in 0..4 {
            s.enqueue(queued(i, 50, 50, 0)); // 100 tokens each
        }
        let probe = StaticProbe {
            available_tokens: 250,
            ..StaticProbe::default()
        };
        let out = s.form_batch(&probe);
        assert_eq!(out.len(), 2, "two fit fully, third would exceed");
        let charged: u64 = out.iter().map(|o| o.charged_tokens).sum();
        assert!(charged <= 250);
    }

    #[test]
    fn resident_adapter_is_cheaper() {
        let mut s = FifoScheduler::new();
        // 100 KV + 32 adapter-equiv tokens.
        let r = {
            let req = Request::new(
                RequestId(0),
                SimTime::ZERO,
                50,
                50,
                AdapterId(7),
                AdapterRank::new(8),
            );
            QueuedRequest::new(req, 50, 16 << 20, 32, 0.1, SimTime::ZERO)
        };
        s.enqueue(r.clone());
        let blocked = StaticProbe {
            available_tokens: 110,
            ..StaticProbe::default()
        };
        assert!(
            s.form_batch(&blocked).is_empty(),
            "132 > 110 without residency"
        );
        let resident = StaticProbe {
            available_tokens: 110,
            resident: vec![AdapterId(7)],
            ..StaticProbe::default()
        };
        let out = s.form_batch(&resident);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].charged_tokens, 100);
    }

    #[test]
    fn requeue_front_takes_priority() {
        let mut s = FifoScheduler::new();
        s.enqueue(queued(1, 10, 10, 1));
        s.requeue_front(queued(0, 10, 10, 0));
        let out = s.form_batch(&StaticProbe::default());
        assert_eq!(out[0].request.id().0, 0);
    }

    #[test]
    fn queued_adapters_dedup_in_order() {
        let mut s = FifoScheduler::new();
        s.enqueue(queued(0, 10, 10, 5));
        s.enqueue(queued(1, 10, 10, 3));
        s.enqueue(queued(2, 10, 10, 5));
        assert_eq!(s.queued_adapters(), vec![AdapterId(5), AdapterId(3)]);
    }
}
