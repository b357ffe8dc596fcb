//! Configuration of the unified GPU-memory economy (KV plane).
//!
//! [`KvSpec`] arms two mechanisms that make KV occupancy a schedulable,
//! evictable, first-class quantity instead of a background cost carved
//! out of whatever the adapter cache left free:
//!
//! * **KV-aware admission control**: batch formation refuses an
//!   admission whose block-rounded KV footprint (input + predicted
//!   output) cannot be satisfied even by evicting every idle cached
//!   adapter — *before* touching the allocator — instead of
//!   optimistically allocating and unwinding via requeue-front. The
//!   refusal consults the probe's release schedule so the trace records
//!   how long the request would have had to wait.
//! * **Hybrid cache mode** (Apt-Serve-style): under a configurable KV
//!   pressure threshold, a running request hit by out-of-memory growth
//!   is demoted to a compact hidden-state proxy entry (`PROXY_RATIO`,
//!   1/8 of its full KV) rather than squashed outright; the proxy is
//!   restored to full residency over PCIe once memory frees up.
//!
//! Like `PredictiveSpec`, `FaultSpec` and `DispatchSpec`, the KV plane
//! is a strict opt-in overlay: `SystemConfig.kv = None` (the default)
//! leaves every run byte-identical to the digest-pinned oracles.

/// Proxy size as a fraction of the full KV footprint it replaces
/// (Apt-Serve's compact hidden-state entry).
pub(crate) const PROXY_RATIO: f64 = 0.125;
/// Maximum demoted + restoring requests held at once; beyond this the
/// engine falls back to squashing.
pub(crate) const MAX_PROXIES: usize = 16;

/// Tuning knobs of the KV plane. `Default` arms both mechanisms with
/// the paper-calibrated settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvSpec {
    /// Refuse admissions whose KV footprint cannot complete (vs the
    /// optimistic allocate-then-unwind baseline).
    pub admission: bool,
    /// Demote running requests to hidden-state proxies under pressure
    /// instead of squashing them.
    pub hybrid: bool,
    /// KV pressure (KV bytes over usable memory) at or above which
    /// demotion is preferred over squash.
    pub pressure_threshold: f64,
}

impl KvSpec {
    /// Both mechanisms armed: KV-aware admission plus hybrid demotion at
    /// an 80% pressure threshold.
    pub fn new() -> Self {
        KvSpec {
            admission: true,
            hybrid: true,
            pressure_threshold: 0.80,
        }
    }

    /// Observe-only metering: neither mechanism intervenes, but the KV
    /// stats plane is armed — requeue-front storms and peak pressure are
    /// counted. The bench baseline arm.
    pub fn observe() -> Self {
        KvSpec {
            admission: false,
            hybrid: false,
            ..KvSpec::new()
        }
    }

    /// Admission control alone (no hybrid demotion) — isolates the
    /// refusal mechanism.
    pub fn admission_only() -> Self {
        KvSpec {
            hybrid: false,
            ..KvSpec::new()
        }
    }

    /// Sets the demotion pressure threshold.
    pub fn with_pressure_threshold(mut self, t: f64) -> Self {
        self.pressure_threshold = t;
        self
    }
}

impl Default for KvSpec {
    fn default() -> Self {
        KvSpec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_arms_both_mechanisms() {
        let s = KvSpec::new();
        assert!(s.admission && s.hybrid);
        assert!(s.pressure_threshold > 0.0 && s.pressure_threshold <= 1.0);
        const { assert!(PROXY_RATIO > 0.0 && PROXY_RATIO < 1.0 && MAX_PROXIES > 0) };
        assert_eq!(KvSpec::default(), s);
    }

    #[test]
    fn observe_meters_without_intervening() {
        let s = KvSpec::observe();
        assert!(!s.admission && !s.hybrid);
        // Thresholds stay at their armed values so flipping a mechanism
        // on is the only delta between bench arms.
        assert_eq!(s.pressure_threshold, KvSpec::new().pressure_threshold);
    }

    #[test]
    fn builders_compose() {
        let s = KvSpec::admission_only().with_pressure_threshold(0.5);
        assert!(s.admission && !s.hybrid);
        assert_eq!(s.pressure_threshold, 0.5);
    }
}
