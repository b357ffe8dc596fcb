//! The scheduler's view of a waiting request.

use chameleon_models::{AdapterId, AdapterRank};
use chameleon_simcore::SimTime;
use chameleon_workload::{Request, RequestId, Slot};

/// A request waiting in a scheduler queue, annotated with everything the
/// scheduling policies need: the *predicted* output length (§2: the true
/// length is unknown at admission), the weighted request size, and the
/// resource-token accounting of §4.3.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedRequest {
    request: Request,
    predicted_output: u32,
    adapter_bytes: u64,
    wrs: f64,
    kv_token_need: u64,
    token_need: u64,
    enqueued_at: SimTime,
    slot: Option<Slot>,
}

impl QueuedRequest {
    /// Annotates `request` for scheduling.
    ///
    /// `adapter_token_equiv` is the adapter's memory expressed in KV-token
    /// equivalents (§4.3: quotas include "tokens due to the memory required
    /// for the corresponding adapter").
    pub fn new(
        request: Request,
        predicted_output: u32,
        adapter_bytes: u64,
        adapter_token_equiv: u64,
        wrs: f64,
        enqueued_at: SimTime,
    ) -> Self {
        let kv_token_need = u64::from(request.input_tokens()) + u64::from(predicted_output);
        QueuedRequest {
            request,
            predicted_output,
            adapter_bytes,
            wrs,
            kv_token_need,
            token_need: kv_token_need + adapter_token_equiv,
            enqueued_at,
            slot: None,
        }
    }

    /// Stamps the serving engine's bookkeeping slot, which schedulers
    /// carry through untouched.
    pub fn with_slot(mut self, slot: Slot) -> Self {
        self.slot = Some(slot);
        self
    }

    /// The serving engine's bookkeeping slot, once stamped.
    pub fn slot(&self) -> Option<Slot> {
        self.slot
    }

    /// The underlying request.
    pub fn request(&self) -> &Request {
        &self.request
    }

    /// The request id.
    pub fn id(&self) -> RequestId {
        self.request.id()
    }

    /// The adapter this request needs resident before it can run.
    pub fn adapter(&self) -> AdapterId {
        self.request.adapter()
    }

    /// The adapter's rank.
    pub fn rank(&self) -> AdapterRank {
        self.request.rank()
    }

    /// Bytes of the adapter's weights.
    pub fn adapter_bytes(&self) -> u64 {
        self.adapter_bytes
    }

    /// Prompt length (known exactly).
    pub fn input_tokens(&self) -> u32 {
        self.request.input_tokens()
    }

    /// Predicted output length (what SJF/WRS ordering sees).
    pub fn predicted_output(&self) -> u32 {
        self.predicted_output
    }

    /// The weighted request size (§4.3.1).
    pub fn wrs(&self) -> f64 {
        self.wrs
    }

    /// KV tokens this request will need (input + predicted output).
    pub fn kv_token_need(&self) -> u64 {
        self.kv_token_need
    }

    /// Total resource tokens (KV tokens + adapter token-equivalents) —
    /// the unit quotas are charged in.
    pub fn token_need(&self) -> u64 {
        self.token_need
    }

    /// When this request (last) entered a queue.
    pub fn enqueued_at(&self) -> SimTime {
        self.enqueued_at
    }

    /// Waiting time as of `now`.
    pub fn wait(&self, now: SimTime) -> chameleon_simcore::SimDuration {
        now.saturating_since(self.enqueued_at)
    }

    /// Re-stamps the enqueue time (used when a squashed request re-enters).
    pub fn requeued_at(mut self, now: SimTime) -> Self {
        self.enqueued_at = now;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_simcore::SimDuration;

    fn req() -> Request {
        Request::new(
            RequestId(1),
            SimTime::from_secs_f64(1.0),
            100,
            50,
            AdapterId(3),
            AdapterRank::new(32),
        )
    }

    #[test]
    fn token_accounting() {
        let q = QueuedRequest::new(req(), 40, 64 << 20, 128, 0.5, SimTime::from_secs_f64(1.0));
        assert_eq!(q.kv_token_need(), 140); // 100 input + 40 predicted
        assert_eq!(q.token_need(), 268); // + 128 adapter equivalents
        assert_eq!(q.predicted_output(), 40);
        assert_eq!(q.adapter_bytes(), 64 << 20);
        assert_eq!(q.wrs(), 0.5);
        assert_eq!(q.id(), RequestId(1));
        assert_eq!(q.adapter(), AdapterId(3));
        assert_eq!(q.rank().get(), 32);
        assert_eq!(q.input_tokens(), 100);
    }

    #[test]
    fn waiting_time() {
        let q = QueuedRequest::new(req(), 40, 0, 0, 0.0, SimTime::from_secs_f64(2.0));
        assert_eq!(
            q.wait(SimTime::from_secs_f64(5.0)),
            SimDuration::from_secs(3)
        );
        let r = q.requeued_at(SimTime::from_secs_f64(10.0));
        assert_eq!(
            r.wait(SimTime::from_secs_f64(10.5)),
            SimDuration::from_millis(500)
        );
    }
}
