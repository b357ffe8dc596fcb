//! Ordered request traces.

use crate::request::Request;
use chameleon_simcore::stats::OnlineStats;
use chameleon_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// A time-ordered sequence of requests driving one experiment.
///
/// Invariant: requests are sorted by arrival time (ties keep insertion
/// order), so runs stream them in order without sorting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    requests: Vec<Request>,
}

/// Length and arrival summary of a trace, for sanity checks and reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Number of requests.
    pub count: usize,
    /// Mean prompt length in tokens.
    pub mean_input: f64,
    /// Mean output length in tokens.
    pub mean_output: f64,
    /// Largest prompt in the trace.
    pub max_input: u32,
    /// Largest output in the trace.
    pub max_output: u32,
    /// Trace horizon: arrival of the last request.
    pub horizon: SimTime,
    /// Average arrival rate over the horizon, in requests/second.
    pub mean_rps: f64,
}

impl Trace {
    /// Builds a trace, sorting by arrival (stable).
    pub fn new(mut requests: Vec<Request>) -> Self {
        requests.sort_by_key(|r| r.arrival());
        Trace { requests }
    }

    /// The requests, in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Iterates over requests in arrival order.
    pub fn iter(&self) -> std::slice::Iter<'_, Request> {
        self.requests.iter()
    }

    /// Applies the §5.1 constant-factor length scaling to every request:
    /// "we have scaled down the input and output lengths in these
    /// large-scale system traces using a constant factor".
    pub fn scale_lengths(&self, factor: f64) -> Trace {
        Trace {
            requests: self
                .requests
                .iter()
                .map(|r| r.scale_lengths(factor))
                .collect(),
        }
    }

    /// Keeps only requests arriving before `cutoff`.
    pub fn truncate_at(&self, cutoff: SimTime) -> Trace {
        Trace {
            requests: self
                .requests
                .iter()
                .filter(|r| r.arrival() < cutoff)
                .copied()
                .collect(),
        }
    }

    /// Summary statistics.
    pub fn summary(&self) -> TraceSummary {
        let mut input = OnlineStats::new();
        let mut output = OnlineStats::new();
        for r in &self.requests {
            input.push(r.input_tokens() as f64);
            output.push(r.output_tokens() as f64);
        }
        let horizon = self
            .requests
            .last()
            .map(|r| r.arrival())
            .unwrap_or(SimTime::ZERO);
        let secs = horizon.as_secs_f64();
        TraceSummary {
            count: self.requests.len(),
            mean_input: input.mean(),
            mean_output: output.mean(),
            max_input: input.max().unwrap_or(0.0) as u32,
            max_output: output.max().unwrap_or(0.0) as u32,
            horizon,
            mean_rps: if secs > 0.0 {
                self.requests.len() as f64 / secs
            } else {
                0.0
            },
        }
    }
}

impl FromIterator<Request> for Trace {
    fn from_iter<I: IntoIterator<Item = Request>>(iter: I) -> Self {
        Trace::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Request;
    type IntoIter = std::slice::Iter<'a, Request>;
    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;
    use chameleon_models::{AdapterId, AdapterRank};

    fn req(id: u64, at: f64, input: u32, output: u32) -> Request {
        Request::new(
            RequestId(id),
            SimTime::from_secs_f64(at),
            input,
            output,
            AdapterId(0),
            AdapterRank::new(8),
        )
    }

    #[test]
    fn sorts_by_arrival() {
        let t = Trace::new(vec![
            req(0, 3.0, 10, 10),
            req(1, 1.0, 10, 10),
            req(2, 2.0, 10, 10),
        ]);
        let order: Vec<u64> = t.iter().map(|r| r.id().0).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn summary_statistics() {
        let t = Trace::new(vec![req(0, 0.0, 100, 10), req(1, 10.0, 300, 30)]);
        let s = t.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.mean_input, 200.0);
        assert_eq!(s.mean_output, 20.0);
        assert_eq!(s.max_input, 300);
        assert_eq!(s.max_output, 30);
        assert_eq!(s.horizon.as_secs_f64(), 10.0);
        assert!((s.mean_rps - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_summary() {
        let t = Trace::new(vec![]);
        assert!(t.is_empty());
        let s = t.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_rps, 0.0);
    }

    #[test]
    fn scaling_preserves_count_and_order() {
        let t = Trace::new(vec![req(0, 0.0, 100, 10), req(1, 1.0, 50, 20)]);
        let scaled = t.scale_lengths(0.5);
        assert_eq!(scaled.len(), 2);
        assert_eq!(scaled.requests()[0].input_tokens(), 50);
        assert_eq!(scaled.requests()[1].output_tokens(), 10);
    }

    #[test]
    fn truncation() {
        let t = Trace::new(vec![
            req(0, 0.0, 1, 1),
            req(1, 5.0, 1, 1),
            req(2, 9.0, 1, 1),
        ]);
        let cut = t.truncate_at(SimTime::from_secs_f64(5.0));
        assert_eq!(cut.len(), 1);
    }

    #[test]
    fn from_iterator_collects() {
        let t: Trace = (0..5).map(|i| req(i, i as f64, 10, 10)).collect();
        assert_eq!(t.len(), 5);
        assert_eq!((&t).into_iter().count(), 5);
    }
}
