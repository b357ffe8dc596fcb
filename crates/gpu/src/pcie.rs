//! The host→GPU DMA link.
//!
//! Adapter weights move over PCIe, and §3.2 shows that in many-adapter
//! environments this link becomes the bottleneck: "With LoRA-500, the PCIe
//! bus is saturated". [`PcieLink`] models the link as a serialising DMA
//! queue — concurrent copy requests queue behind each other — with byte
//! accounting for the Figure 4 bandwidth study.

use chameleon_simcore::{SimDuration, SimTime};

/// One scheduled transfer: when the copy starts and ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferRecord {
    /// When the DMA engine started copying.
    pub start: SimTime,
    /// When the copy finished.
    pub end: SimTime,
    /// Payload size.
    pub bytes: u64,
}

/// A serialising host→GPU copy engine.
///
/// Transfers issued while the engine is busy queue up FIFO; the returned
/// completion time includes that queueing delay, which is exactly the
/// contention effect the paper measures.
///
/// ```
/// use chameleon_gpu::pcie::PcieLink;
/// use chameleon_simcore::SimTime;
///
/// let mut link = PcieLink::new(1e9); // 1 GB/s
/// let t0 = SimTime::ZERO;
/// let a = link.transfer(500_000_000, t0); // 0.5 s copy
/// let b = link.transfer(500_000_000, t0); // queues behind it
/// assert_eq!(a.end.as_secs_f64(), 0.5);
/// assert_eq!(b.start.as_secs_f64(), 0.5);
/// assert_eq!(b.end.as_secs_f64(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct PcieLink {
    bytes_per_sec: f64,
    busy_until: SimTime,
    total_bytes: u64,
    total_busy: SimDuration,
    transfers: u64,
}

impl PcieLink {
    /// Creates a link with the given effective copy bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "invalid bandwidth"
        );
        PcieLink {
            bytes_per_sec,
            busy_until: SimTime::ZERO,
            total_bytes: 0,
            total_busy: SimDuration::ZERO,
            transfers: 0,
        }
    }

    /// Effective copy bandwidth in bytes/second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Pure copy duration of `bytes` with no queueing.
    pub fn copy_duration(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Schedules a transfer of `bytes` requested at `now`; returns its
    /// start (after any queueing) and completion instants.
    pub fn transfer(&mut self, bytes: u64, now: SimTime) -> TransferRecord {
        let dur = self.copy_duration(bytes);
        self.transfer_with_duration(bytes, dur, now)
    }

    /// Schedules a transfer whose link occupancy is supplied by the caller
    /// (adapter loads issue hundreds of small per-layer copies, so their
    /// occupancy exceeds `bytes / bandwidth`; the cost model computes it).
    pub fn transfer_with_duration(
        &mut self,
        bytes: u64,
        occupancy: SimDuration,
        now: SimTime,
    ) -> TransferRecord {
        let start = now.max(self.busy_until);
        let end = start + occupancy;
        self.busy_until = end;
        self.total_bytes += bytes;
        self.total_busy += occupancy;
        self.transfers += 1;
        TransferRecord { start, end, bytes }
    }

    /// Queueing delay a transfer issued at `now` would experience.
    pub fn queue_delay(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// Total payload bytes moved so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total time the link spent copying.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Mean consumed bandwidth over `[0, horizon]` in bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn mean_bandwidth(&self, horizon: SimTime) -> f64 {
        let secs = horizon.as_secs_f64();
        assert!(secs > 0.0, "zero horizon");
        self.total_bytes as f64 / secs
    }

    /// Link utilisation (busy fraction) over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        let secs = horizon.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        (self.total_busy.as_secs_f64() / secs).min(1.0)
    }

    /// Transfers scheduled so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn idle_link_copies_immediately() {
        let mut l = PcieLink::new(10e9);
        let rec = l.transfer(10_000_000_000, SimTime::from_secs_f64(2.0));
        assert_eq!(rec.start.as_secs_f64(), 2.0);
        assert_eq!(rec.end.as_secs_f64(), 3.0);
        assert_eq!(l.total_bytes(), 10_000_000_000);
    }

    #[test]
    fn transfers_serialize() {
        let mut l = PcieLink::new(1e9);
        let a = l.transfer(1_000_000_000, SimTime::ZERO);
        let b = l.transfer(2_000_000_000, SimTime::ZERO);
        let c = l.transfer(1_000_000_000, SimTime::from_secs_f64(10.0));
        assert_eq!(a.end.as_secs_f64(), 1.0);
        assert_eq!(b.start.as_secs_f64(), 1.0);
        assert_eq!(b.end.as_secs_f64(), 3.0);
        // Link drained by t=10; c starts immediately.
        assert_eq!(c.start.as_secs_f64(), 10.0);
        assert_eq!(
            l.queue_delay(SimTime::from_secs_f64(10.5)),
            SimDuration::from_millis(500)
        );
        assert_eq!(l.transfers(), 3);
    }

    #[test]
    fn utilization_and_mean_bandwidth() {
        let mut l = PcieLink::new(1e9);
        l.transfer(500_000_000, SimTime::ZERO); // busy 0.5 s
        let horizon = SimTime::from_secs_f64(2.0);
        assert!((l.utilization(horizon) - 0.25).abs() < 1e-9);
        assert!((l.mean_bandwidth(horizon) - 250e6).abs() < 1.0);
    }

    proptest! {
        /// No transfer overlaps another and ordering is FIFO.
        #[test]
        fn prop_fifo_no_overlap(reqs in proptest::collection::vec((0u64..1000, 1u64..1_000_000), 1..50)) {
            let mut l = PcieLink::new(1e6);
            let mut reqs = reqs;
            reqs.sort_by_key(|&(at, _)| at);
            let mut last_end = SimTime::ZERO;
            for (at, bytes) in reqs {
                let rec = l.transfer(bytes, SimTime::from_nanos(at * 1_000_000));
                prop_assert!(rec.start >= last_end);
                prop_assert!(rec.end >= rec.start);
                last_end = rec.end;
            }
        }
    }
}
