//! Configuration of the cluster-level predictive control plane.
//!
//! Chameleon's §4.2 thesis — act *before* load lands — applied to the
//! cluster's autoscaler. The plane is a strict opt-in overlay: with it
//! disabled every cluster run is byte-identical to the reactive stack.
//!
//! Per-engine TTFT-violation estimates (the SLO signal, configured on
//! [`AutoscalerConfig::ttft_slo`]) and the predicted-arrivals count over
//! the controller's evaluation interval (see [`ForecastSignal`]; the
//! coordinator feeds a [`HistogramLoadPredictor`] from dispatch-time
//! arrivals) both fold into the scale-up decision, so the fleet grows on
//! estimated or forecast pressure rather than on realised queue depth.
//!
//! Every predictor update happens at a coordinator barrier, so every
//! predictive configuration stays bit-identical between serial and
//! parallel cluster execution.
//!
//! [`HistogramLoadPredictor`]: chameleon_predictor::HistogramLoadPredictor
//! [`ForecastSignal`]: crate::autoscaler::ForecastSignal
//! [`AutoscalerConfig::ttft_slo`]: crate::autoscaler::AutoscalerConfig::ttft_slo

/// Switches of the predictive control plane. Construct with
/// [`PredictiveSpec::new`] (both signals enabled) and switch either off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictiveSpec {
    /// Wire the run's TTFT SLO into the autoscaler as a per-engine
    /// violation-estimate trigger (the simulation layer translates this
    /// into [`AutoscalerConfig::ttft_slo`](crate::autoscaler::AutoscalerConfig::ttft_slo)).
    pub slo_autoscale: bool,
    /// Feed the predicted-arrivals signal into the autoscaler's scale-up
    /// decision.
    pub forecast_autoscale: bool,
}

impl PredictiveSpec {
    /// Both signals enabled.
    pub fn new() -> Self {
        PredictiveSpec {
            slo_autoscale: true,
            forecast_autoscale: true,
        }
    }
}

impl Default for PredictiveSpec {
    fn default() -> Self {
        PredictiveSpec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_everything() {
        let s = PredictiveSpec::new();
        assert!(s.slo_autoscale && s.forecast_autoscale);
        assert_eq!(s, PredictiveSpec::default());
    }
}
