//! Plain-data trace configuration carried by the experiment config.

use chameleon_simcore::SimDuration;

/// Flight-recorder ring length: the last N decisions kept per dump.
pub const FLIGHT_CAPACITY: usize = 64;
/// Maximum flight-recorder dumps materialised per run (firings past
/// this still count).
pub const MAX_DUMPS: usize = 8;

/// Tracing configuration: which anomaly predicates arm the flight
/// recorder. Tracing as a whole is opted into by the presence of this
/// spec (`SystemConfig::trace: Option<..>`); with it absent, no layer
/// allocates a buffer or emits an event and every run is byte-for-byte
/// what it was before tracing existed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Arm the TTFT-over-SLO predicate with this SLO.
    pub ttft_slo_trigger: Option<SimDuration>,
    /// Arm the retry-storm predicate: fires when at least `count` retries
    /// land within any `window` of simulated time.
    pub retry_storm_trigger: Option<(u32, SimDuration)>,
    /// Arm the shed-while-idle-capacity predicate (a request was shed
    /// while at least one active engine sat idle).
    pub shed_idle_trigger: bool,
}

impl TraceSpec {
    /// Tracing on, flight recorder armed with no predicates.
    pub fn new() -> Self {
        TraceSpec {
            ttft_slo_trigger: None,
            retry_storm_trigger: None,
            shed_idle_trigger: false,
        }
    }

    /// Arms the TTFT-over-SLO trigger.
    pub fn with_ttft_slo_trigger(mut self, slo: SimDuration) -> Self {
        self.ttft_slo_trigger = Some(slo);
        self
    }

    /// Arms the retry-storm trigger: `count` retries inside `window`.
    pub fn with_retry_storm_trigger(mut self, count: u32, window: SimDuration) -> Self {
        self.retry_storm_trigger = Some((count, window));
        self
    }

    /// Arms the shed-while-idle-capacity trigger.
    pub fn with_shed_idle_trigger(mut self) -> Self {
        self.shed_idle_trigger = true;
        self
    }
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_arm_triggers() {
        let s = TraceSpec::new();
        assert!(s.ttft_slo_trigger.is_none());
        assert!(s.retry_storm_trigger.is_none() && !s.shed_idle_trigger);
        let s = s
            .with_ttft_slo_trigger(SimDuration::from_secs(1))
            .with_retry_storm_trigger(5, SimDuration::from_secs(2))
            .with_shed_idle_trigger();
        assert_eq!(s.ttft_slo_trigger, Some(SimDuration::from_secs(1)));
        assert_eq!(s.retry_storm_trigger, Some((5, SimDuration::from_secs(2))));
        assert!(s.shed_idle_trigger);
    }
}
