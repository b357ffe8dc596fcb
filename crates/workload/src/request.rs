//! The inference request record.

use chameleon_models::{AdapterId, AdapterRank};
use chameleon_simcore::SimTime;
use serde::{Deserialize, Serialize};
use std::hash::{BuildHasherDefault, Hasher};

/// Unique identifier of a request within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// Hashes a request id by one multiplication (Fibonacci hashing), for the
/// tables keyed by [`RequestId`]. Ids are integers the trace assigns, so no
/// input is adversarial, and the low bits the table indexes by stay a
/// bijection of the id's low bits.
#[derive(Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// The hasher of a `HashMap` or `HashSet` keyed by [`RequestId`].
pub type IdHashBuilder = BuildHasherDefault<IdHasher>;

/// A request's dense index in the engine serving it, assigned when the
/// engine registers the arrival. Per-request engine state (the metrics
/// record, the running-batch position) lives in `Vec`s indexed by slot,
/// so per-token and per-dispatch bookkeeping never hashes a
/// [`RequestId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(u32);

impl Slot {
    /// The slot at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in 32 bits.
    pub fn new(index: usize) -> Self {
        Slot(u32::try_from(index).expect("an engine registers fewer than 2^32 requests"))
    }

    /// The index this slot names.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slot#{}", self.0)
    }
}

/// One LLM inference request, as admitted by the serving frontend.
///
/// The input length is known on arrival; the *true* output length is carried
/// here because the simulator must know when decoding finishes, but the
/// schedulers only ever see it through an output-length predictor — exactly
/// mirroring the paper, where output length is "determined on the fly and
/// unknown at the time a request is admitted" (§2).
///
/// ```
/// use chameleon_workload::{Request, RequestId};
/// use chameleon_models::{AdapterId, AdapterRank};
/// use chameleon_simcore::SimTime;
///
/// let r = Request::new(RequestId(0), SimTime::ZERO, 512, 64,
///                      AdapterId(3), AdapterRank::new(32));
/// assert_eq!(r.total_tokens(), 576);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    id: RequestId,
    arrival: SimTime,
    input_tokens: u32,
    output_tokens: u32,
    adapter: AdapterId,
    rank: AdapterRank,
}

impl Request {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `input_tokens` or `output_tokens` is zero: the serving
    /// systems under study always process at least one prompt token and
    /// generate at least one output token.
    pub fn new(
        id: RequestId,
        arrival: SimTime,
        input_tokens: u32,
        output_tokens: u32,
        adapter: AdapterId,
        rank: AdapterRank,
    ) -> Self {
        assert!(input_tokens > 0, "request with empty prompt");
        assert!(output_tokens > 0, "request generating no tokens");
        Request {
            id,
            arrival,
            input_tokens,
            output_tokens,
            adapter,
            rank,
        }
    }

    /// The request's identity.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Arrival instant at the serving frontend.
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// Prompt length in tokens (known at admission).
    pub fn input_tokens(&self) -> u32 {
        self.input_tokens
    }

    /// True number of output tokens (hidden from schedulers; see type docs).
    pub fn output_tokens(&self) -> u32 {
        self.output_tokens
    }

    /// The LoRA adapter this request runs with.
    pub fn adapter(&self) -> AdapterId {
        self.adapter
    }

    /// The rank of that adapter (denormalised for convenience; identical to
    /// the pool's record).
    pub fn rank(&self) -> AdapterRank {
        self.rank
    }

    /// Input plus output tokens.
    pub fn total_tokens(&self) -> u32 {
        self.input_tokens + self.output_tokens
    }

    /// Returns a copy with both lengths multiplied by `factor` (≥ 1 token
    /// each), used by the §5.1 constant-factor trace scaling.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is non-positive or not finite.
    pub fn scale_lengths(&self, factor: f64) -> Request {
        assert!(factor.is_finite() && factor > 0.0, "bad scale {factor}");
        let scale = |t: u32| (((t as f64) * factor).round() as u32).max(1);
        Request {
            input_tokens: scale(self.input_tokens),
            output_tokens: scale(self.output_tokens),
            ..*self
        }
    }

    /// Returns a copy arriving at a different time (used when replaying a
    /// trace at a different request rate).
    pub fn with_arrival(&self, arrival: SimTime) -> Request {
        Request { arrival, ..*self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(input: u32, output: u32) -> Request {
        Request::new(
            RequestId(1),
            SimTime::from_secs_f64(1.0),
            input,
            output,
            AdapterId(0),
            AdapterRank::new(8),
        )
    }

    #[test]
    fn accessors() {
        let r = req(100, 20);
        assert_eq!(r.id(), RequestId(1));
        assert_eq!(r.input_tokens(), 100);
        assert_eq!(r.output_tokens(), 20);
        assert_eq!(r.total_tokens(), 120);
        assert_eq!(r.arrival().as_secs_f64(), 1.0);
    }

    #[test]
    fn scaling_rounds_and_clamps() {
        let r = req(100, 20).scale_lengths(0.5);
        assert_eq!(r.input_tokens(), 50);
        assert_eq!(r.output_tokens(), 10);
        let tiny = req(1, 1).scale_lengths(0.01);
        assert_eq!(tiny.input_tokens(), 1, "never scales to zero");
        assert_eq!(tiny.output_tokens(), 1);
    }

    #[test]
    fn rebasing_arrival() {
        let r = req(5, 5).with_arrival(SimTime::from_secs_f64(9.0));
        assert_eq!(r.arrival().as_secs_f64(), 9.0);
        assert_eq!(r.input_tokens(), 5);
    }

    #[test]
    #[should_panic(expected = "empty prompt")]
    fn zero_input_rejected() {
        let _ = req(0, 1);
    }

    #[test]
    #[should_panic(expected = "generating no tokens")]
    fn zero_output_rejected() {
        let _ = req(1, 0);
    }
}
