//! Synthetic production-like trace generation.
//!
//! The paper drives its evaluation with the Splitwise conversation trace
//! (input/output lengths) replayed under Poisson arrivals (§5.1), plus
//! WildChat-1M and LMSYS-Chat-1M variants with "generally smaller input and
//! output lengths" (§5.4). We reproduce those as log-normal length models
//! whose medians/shapes match the published characteristics, scaled down by
//! a constant factor exactly as §5.1 does for the authors' 48 GB testbed.

use crate::request::{Request, RequestId};
use crate::trace::Trace;
use chameleon_models::AdapterPool;
use chameleon_simcore::dist::{Exponential, LogNormal, Sample};
use chameleon_simcore::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Log-normal token-length model with clamping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TokenLengthModel {
    /// Median of the distribution, in tokens.
    pub median: f64,
    /// Shape (sigma of the underlying normal); larger = heavier tail.
    pub sigma: f64,
    /// Lower clamp in tokens.
    pub min: u32,
    /// Upper clamp in tokens.
    pub max: u32,
}

impl TokenLengthModel {
    /// Draws one length.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        let x = LogNormal::from_median(self.median, self.sigma).sample(rng);
        (x.round() as u32).clamp(self.min, self.max)
    }
}

/// Input/output length model of a trace family.
///
/// The concrete numbers are the §5.1-style scaled-down equivalents of the
/// three public traces; all three keep the heavy-tail signature of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LengthModel {
    /// Azure/Splitwise conversation trace \[41\]: long prompts, long heavy
    /// tails. The paper's default workload.
    SplitwiseLike,
    /// WildChat-1M \[65\]: "generally smaller input and output lengths".
    WildChatLike,
    /// LMSYS-Chat-1M \[67\]: similar, slightly shorter still.
    LmsysLike,
    /// Fully custom length models.
    Custom {
        /// Prompt-length distribution.
        input: TokenLengthModel,
        /// Output-length distribution.
        output: TokenLengthModel,
    },
}

impl LengthModel {
    /// The input-length distribution of this family.
    pub fn input_model(&self) -> TokenLengthModel {
        match self {
            LengthModel::SplitwiseLike => TokenLengthModel {
                median: 512.0,
                sigma: 0.9,
                min: 16,
                max: 4096,
            },
            LengthModel::WildChatLike => TokenLengthModel {
                median: 180.0,
                sigma: 0.8,
                min: 8,
                max: 2048,
            },
            LengthModel::LmsysLike => TokenLengthModel {
                median: 140.0,
                sigma: 0.8,
                min: 8,
                max: 2048,
            },
            LengthModel::Custom { input, .. } => *input,
        }
    }

    /// The output-length distribution of this family.
    pub fn output_model(&self) -> TokenLengthModel {
        match self {
            LengthModel::SplitwiseLike => TokenLengthModel {
                median: 128.0,
                sigma: 0.9,
                min: 8,
                max: 2048,
            },
            LengthModel::WildChatLike => TokenLengthModel {
                median: 100.0,
                sigma: 0.7,
                min: 4,
                max: 1024,
            },
            LengthModel::LmsysLike => TokenLengthModel {
                median: 90.0,
                sigma: 0.7,
                min: 4,
                max: 1024,
            },
            LengthModel::Custom { output, .. } => *output,
        }
    }

    /// Human-readable family name.
    pub fn name(&self) -> &'static str {
        match self {
            LengthModel::SplitwiseLike => "Splitwise",
            LengthModel::WildChatLike => "WildChat",
            LengthModel::LmsysLike => "LMSYS",
            LengthModel::Custom { .. } => "Custom",
        }
    }
}

/// A bounded interval during which the arrival rate is multiplied, used to
/// reproduce the load burst the §5.4 predictor study relies on ("during a
/// load burst (at around 300s) ...").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstEpisode {
    /// Burst start.
    pub start: SimTime,
    /// Burst end (exclusive).
    pub end: SimTime,
    /// Rate multiplier during the burst (e.g. 3.0 = 3× the base rate).
    pub rate_multiplier: f64,
}

/// Arrival process: Poisson with optional burst episodes and an optional
/// diurnal (sinusoidal) modulation — LLM inference load shows strong
/// day/night patterns (DynamoLLM's characterisation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalModel {
    /// Base request rate, requests per second.
    pub rps: f64,
    /// Burst episodes (may be empty). Overlapping episodes multiply.
    pub bursts: Vec<BurstEpisode>,
    /// Diurnal modulation: `(amplitude, period_seconds)`. The rate becomes
    /// `rps · (1 + amplitude · sin(2π t / period))`; amplitude must be in
    /// `[0, 1)` so the rate stays positive.
    pub diurnal: Option<(f64, f64)>,
}

impl ArrivalModel {
    /// Plain Poisson arrivals at `rps` requests/second (the paper's §5.1
    /// default).
    pub fn poisson(rps: f64) -> Self {
        assert!(rps.is_finite() && rps > 0.0, "invalid rps {rps}");
        ArrivalModel {
            rps,
            bursts: Vec::new(),
            diurnal: None,
        }
    }

    /// Adds sinusoidal day/night modulation.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is outside `[0, 1)` or `period_secs` is not
    /// positive.
    pub fn with_diurnal(mut self, amplitude: f64, period_secs: f64) -> Self {
        assert!((0.0..1.0).contains(&amplitude), "amplitude {amplitude}");
        assert!(period_secs > 0.0, "period {period_secs}");
        self.diurnal = Some((amplitude, period_secs));
        self
    }

    /// Adds a burst episode.
    pub fn with_burst(mut self, burst: BurstEpisode) -> Self {
        assert!(burst.end > burst.start, "empty burst window");
        assert!(burst.rate_multiplier > 0.0);
        self.bursts.push(burst);
        self
    }

    /// Instantaneous rate at `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let mut rate = self.rps;
        for b in &self.bursts {
            if t >= b.start && t < b.end {
                rate *= b.rate_multiplier;
            }
        }
        if let Some((amp, period)) = self.diurnal {
            let phase = 2.0 * std::f64::consts::PI * t.as_secs_f64() / period;
            rate *= 1.0 + amp * phase.sin();
        }
        rate
    }
}

/// Generates traces: arrivals × lengths × adapter assignment.
///
/// ```
/// use chameleon_workload::{ArrivalModel, LengthModel, TraceGenerator};
/// use chameleon_models::{AdapterPool, LlmSpec, PoolConfig};
/// use chameleon_simcore::{SimRng, SimTime};
///
/// let pool = AdapterPool::generate(&LlmSpec::llama_7b(), &PoolConfig::paper_default(100));
/// let gen = TraceGenerator::new(LengthModel::SplitwiseLike, ArrivalModel::poisson(8.0));
/// let mut rng = SimRng::seed(1);
/// let trace = gen.generate(&pool, SimTime::from_secs_f64(60.0), &mut rng);
/// assert!(trace.len() > 300); // ~480 expected at 8 RPS over 60 s
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    lengths: LengthModel,
    arrivals: ArrivalModel,
}

impl TraceGenerator {
    /// Creates a generator from a length family and an arrival model.
    pub fn new(lengths: LengthModel, arrivals: ArrivalModel) -> Self {
        TraceGenerator { lengths, arrivals }
    }

    /// The length family.
    pub fn lengths(&self) -> &LengthModel {
        &self.lengths
    }

    /// The arrival model.
    pub fn arrivals(&self) -> &ArrivalModel {
        &self.arrivals
    }

    /// Generates all requests arriving before `horizon`, drawing adapters
    /// from `pool` (rank popularity × within-rank popularity as configured
    /// in the pool).
    ///
    /// Bursty episodes are realised by thinning-style rate modulation: the
    /// next inter-arrival gap is drawn at the instantaneous rate of the
    /// current time, which is exact for piecewise-constant rates at the
    /// granularity of one arrival.
    pub fn generate(&self, pool: &AdapterPool, horizon: SimTime, rng: &mut SimRng) -> Trace {
        let input_model = self.lengths.input_model();
        let output_model = self.lengths.output_model();
        let mut requests = Vec::new();
        let mut now = SimTime::ZERO;
        let mut id: u64 = 0;
        loop {
            let rate = self.arrivals.rate_at(now);
            let gap = Exponential::new(rate).sample(rng);
            now += SimDuration::from_secs_f64(gap);
            if now >= horizon {
                break;
            }
            let adapter = pool.sample(rng);
            requests.push(Request::new(
                RequestId(id),
                now,
                input_model.sample(rng),
                output_model.sample(rng),
                adapter.id(),
                adapter.rank(),
            ));
            id += 1;
        }
        Trace::new(requests)
    }

    /// Generates exactly `n` requests (horizon unbounded).
    pub fn generate_n(&self, pool: &AdapterPool, n: usize, rng: &mut SimRng) -> Trace {
        let input_model = self.lengths.input_model();
        let output_model = self.lengths.output_model();
        let mut requests = Vec::with_capacity(n);
        let mut now = SimTime::ZERO;
        for id in 0..n {
            let rate = self.arrivals.rate_at(now);
            let gap = Exponential::new(rate).sample(rng);
            now += SimDuration::from_secs_f64(gap);
            let adapter = pool.sample(rng);
            requests.push(Request::new(
                RequestId(id as u64),
                now,
                input_model.sample(rng),
                output_model.sample(rng),
                adapter.id(),
                adapter.rank(),
            ));
        }
        Trace::new(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_models::{LlmSpec, PoolConfig};

    fn pool() -> AdapterPool {
        AdapterPool::generate(&LlmSpec::llama_7b(), &PoolConfig::paper_default(100))
    }

    #[test]
    fn generates_calibrated_rate() {
        let gen = TraceGenerator::new(LengthModel::SplitwiseLike, ArrivalModel::poisson(10.0));
        let mut rng = SimRng::seed(1);
        let t = gen.generate(&pool(), SimTime::from_secs_f64(200.0), &mut rng);
        let rps = t.summary().mean_rps;
        assert!((rps - 10.0).abs() < 1.0, "empirical rps {rps}");
    }

    #[test]
    fn splitwise_is_heavier_than_wildchat() {
        let p = pool();
        let mut rng = SimRng::seed(2);
        let sw = TraceGenerator::new(LengthModel::SplitwiseLike, ArrivalModel::poisson(5.0))
            .generate_n(&p, 3000, &mut rng);
        let wc = TraceGenerator::new(LengthModel::WildChatLike, ArrivalModel::poisson(5.0))
            .generate_n(&p, 3000, &mut rng);
        let (s, w) = (sw.summary(), wc.summary());
        assert!(
            s.mean_input > 1.5 * w.mean_input,
            "splitwise {} vs wildchat {}",
            s.mean_input,
            w.mean_input
        );
        assert!(s.mean_output > w.mean_output);
    }

    #[test]
    fn lengths_are_heavy_tailed() {
        // Heavy tail: p99 much larger than the median (Figure 7's shape).
        let p = pool();
        let mut rng = SimRng::seed(3);
        let t = TraceGenerator::new(LengthModel::SplitwiseLike, ArrivalModel::poisson(5.0))
            .generate_n(&p, 5000, &mut rng);
        let mut inputs: Vec<f64> = t.iter().map(|r| r.input_tokens() as f64).collect();
        inputs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = inputs[inputs.len() / 2];
        let p99 = inputs[(inputs.len() as f64 * 0.99) as usize];
        assert!(p99 > 3.0 * median, "median {median}, p99 {p99}");
    }

    #[test]
    fn burst_raises_local_rate() {
        let arrivals = ArrivalModel::poisson(5.0).with_burst(BurstEpisode {
            start: SimTime::from_secs_f64(100.0),
            end: SimTime::from_secs_f64(150.0),
            rate_multiplier: 4.0,
        });
        assert_eq!(arrivals.rate_at(SimTime::from_secs_f64(50.0)), 5.0);
        assert_eq!(arrivals.rate_at(SimTime::from_secs_f64(120.0)), 20.0);
        assert_eq!(arrivals.rate_at(SimTime::from_secs_f64(150.0)), 5.0);

        let gen = TraceGenerator::new(LengthModel::SplitwiseLike, arrivals);
        let mut rng = SimRng::seed(4);
        let t = gen.generate(&pool(), SimTime::from_secs_f64(200.0), &mut rng);
        let in_burst = t
            .iter()
            .filter(|r| {
                r.arrival() >= SimTime::from_secs_f64(100.0)
                    && r.arrival() < SimTime::from_secs_f64(150.0)
            })
            .count() as f64
            / 50.0;
        let outside = t
            .iter()
            .filter(|r| r.arrival() < SimTime::from_secs_f64(100.0))
            .count() as f64
            / 100.0;
        assert!(
            in_burst > 2.0 * outside,
            "burst rps {in_burst} vs base {outside}"
        );
    }

    #[test]
    fn diurnal_modulation_shapes_rate() {
        let m = ArrivalModel::poisson(10.0).with_diurnal(0.5, 400.0);
        // Peak at a quarter period, trough at three quarters.
        assert!((m.rate_at(SimTime::from_secs_f64(100.0)) - 15.0).abs() < 1e-9);
        assert!((m.rate_at(SimTime::from_secs_f64(300.0)) - 5.0).abs() < 1e-9);
        assert!((m.rate_at(SimTime::ZERO) - 10.0).abs() < 1e-9);

        // Empirically: more arrivals in the first half-period than the second.
        let gen = TraceGenerator::new(LengthModel::LmsysLike, m);
        let mut rng = SimRng::seed(8);
        let t = gen.generate(&pool(), SimTime::from_secs_f64(400.0), &mut rng);
        let first = t
            .iter()
            .filter(|r| r.arrival() < SimTime::from_secs_f64(200.0))
            .count();
        let second = t.len() - first;
        assert!(first > second, "diurnal peak ignored: {first} vs {second}");
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn diurnal_rejects_full_amplitude() {
        let _ = ArrivalModel::poisson(1.0).with_diurnal(1.0, 10.0);
    }

    #[test]
    fn adapters_cover_pool() {
        let p = pool();
        let mut rng = SimRng::seed(5);
        let t = TraceGenerator::new(LengthModel::LmsysLike, ArrivalModel::poisson(20.0))
            .generate_n(&p, 5000, &mut rng);
        let distinct: std::collections::HashSet<_> = t.iter().map(|r| r.adapter()).collect();
        // Power-law within rank still touches most of the 100 adapters in
        // 5000 draws.
        assert!(distinct.len() > 60, "only {} adapters seen", distinct.len());
        // Ranks are attached consistently with the pool records.
        for r in t.iter().take(200) {
            assert_eq!(p.get(r.adapter()).unwrap().rank(), r.rank());
        }
    }

    #[test]
    fn generate_n_is_exact_and_deterministic() {
        let p = pool();
        let run = |seed| {
            let mut rng = SimRng::seed(seed);
            TraceGenerator::new(LengthModel::WildChatLike, ArrivalModel::poisson(8.0))
                .generate_n(&p, 100, &mut rng)
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.len(), 100);
        assert_eq!(a, b);
    }

    #[test]
    fn custom_model_is_respected() {
        let custom = LengthModel::Custom {
            input: TokenLengthModel {
                median: 10.0,
                sigma: 0.0,
                min: 10,
                max: 10,
            },
            output: TokenLengthModel {
                median: 5.0,
                sigma: 0.0,
                min: 5,
                max: 5,
            },
        };
        let mut rng = SimRng::seed(6);
        let t = TraceGenerator::new(custom, ArrivalModel::poisson(5.0)).generate_n(
            &pool(),
            50,
            &mut rng,
        );
        assert!(t
            .iter()
            .all(|r| r.input_tokens() == 10 && r.output_tokens() == 5));
        assert_eq!(custom.name(), "Custom");
    }
}
