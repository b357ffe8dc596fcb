//! Load sweeps and SLO-bounded throughput (§5.2), plus the cluster
//! routing-policy axis.
//!
//! The paper's throughput metric is "the load that a system can sustain
//! without violating this SLO" (§5.2.2), read off a sweep of P99 TTFT
//! against offered load (Figure 11). [`LoadSweep`] runs that sweep.
//! [`RouterSweep`] holds the system and trace fixed and varies the
//! cluster routing policy instead, making `RouterPolicy` an experiment
//! dimension next to scheduler and eviction policy.

use crate::report::RunReport;
use crate::sim::Simulation;
use crate::system::SystemConfig;
use crate::workloads;
use chameleon_metrics::summary::throughput_at_slo;
use chameleon_models::AdapterPool;
use chameleon_router::RouterPolicy;
use chameleon_workload::Trace;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Offered load, requests/second.
    pub rps: f64,
    /// The full report at that load.
    pub report: RunReport,
}

/// Result of sweeping one system across loads.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// System label.
    pub label: String,
    /// Points in ascending load order.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// `(load, p99_ttft_seconds)` pairs.
    pub fn p99_curve(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.rps, p.report.p99_ttft()))
            .collect()
    }

    /// SLO-bounded throughput (§5.2.2) against `slo` seconds.
    pub fn throughput(&self, slo: f64) -> Option<f64> {
        throughput_at_slo(&self.p99_curve(), slo)
    }
}

/// Sweeps a system configuration across offered loads using the scaled
/// Splitwise workload (§5.1 methodology).
pub struct LoadSweep {
    cfg: SystemConfig,
    seed: u64,
    /// Trace duration per load point, seconds.
    pub trace_secs: f64,
}

impl LoadSweep {
    /// Creates a sweep of `cfg`.
    pub fn new(cfg: SystemConfig, seed: u64) -> Self {
        LoadSweep {
            cfg,
            seed,
            trace_secs: 120.0,
        }
    }

    /// Sets the per-point trace duration.
    pub fn with_trace_secs(mut self, secs: f64) -> Self {
        self.trace_secs = secs;
        self
    }

    /// One self-contained sweep point: fresh simulation, per-load trace,
    /// full run.
    fn point(&self, rps: f64) -> SweepPoint {
        let mut sim = Simulation::new(self.cfg.clone(), self.seed);
        let trace =
            workloads::splitwise(rps, self.trace_secs, self.seed ^ rps.to_bits(), sim.pool());
        let report = sim.run(&trace);
        SweepPoint { rps, report }
    }

    /// Runs the sweep at each load in `loads` (requests/second).
    ///
    /// The same seed produces the same trace per load across systems, so
    /// policies are compared on identical request streams.
    pub fn run(&self, loads: &[f64]) -> SweepResult {
        SweepResult {
            label: self.cfg.label.clone(),
            points: loads.iter().map(|&rps| self.point(rps)).collect(),
        }
    }

    /// The adapter pool the sweep's simulations will use (for generating
    /// matching traces externally).
    pub fn pool(&self) -> AdapterPool {
        AdapterPool::generate(&self.cfg.llm, &self.cfg.pool_config())
    }
}

/// One routing-policy sweep point.
#[derive(Debug, Clone)]
pub struct RouterPoint {
    /// The routing policy this point ran under.
    pub policy: RouterPolicy,
    /// The full report under that policy.
    pub report: RunReport,
}

/// Sweeps one data-parallel system across cluster routing policies on a
/// single shared trace, so policies are compared on identical request
/// streams (the §4.4 axis the paper leaves fixed).
pub struct RouterSweep {
    cfg: SystemConfig,
    seed: u64,
}

impl RouterSweep {
    /// Creates a routing sweep of `cfg`.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg` describes a multi-engine fleet (via
    /// `data_parallel` or a [`FleetSpec`](crate::system::FleetSpec),
    /// heterogeneous fleets included) — routing needs a cluster.
    pub fn new(cfg: SystemConfig, seed: u64) -> Self {
        assert!(
            cfg.engine_count() > 1,
            "router sweep needs a data-parallel cluster"
        );
        RouterSweep { cfg, seed }
    }

    /// One routing-policy point on `trace` (pure in (cfg, seed, policy)).
    fn point(&self, policy: RouterPolicy, trace: &Trace) -> RouterPoint {
        let cfg = self.cfg.clone().with_router(policy).with_label(format!(
            "{}/{}",
            self.cfg.label,
            policy.name()
        ));
        let mut sim = Simulation::new(cfg, self.seed);
        let report = sim.run(trace);
        RouterPoint { policy, report }
    }

    /// Runs `trace` under each policy in `policies`.
    pub fn run_trace(&self, policies: &[RouterPolicy], trace: &Trace) -> Vec<RouterPoint> {
        policies
            .iter()
            .map(|&policy| self.point(policy, trace))
            .collect()
    }

    /// Runs all built-in policies over the scaled Splitwise workload at
    /// `rps` for `secs` seconds.
    pub fn run_all(&self, rps: f64, secs: f64) -> Vec<RouterPoint> {
        let pool = AdapterPool::generate(&self.cfg.llm, &self.cfg.pool_config());
        let trace = workloads::splitwise(rps, secs, self.seed, &pool);
        self.run_trace(&RouterPolicy::ALL, &trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preset;

    #[test]
    fn sweep_produces_monotone_load_points() {
        let sweep = LoadSweep::new(preset::slora(), 3).with_trace_secs(10.0);
        let result = sweep.run(&[2.0, 6.0]);
        assert_eq!(result.points.len(), 2);
        assert!(result.points[0].rps < result.points[1].rps);
        let curve = result.p99_curve();
        assert!(curve.iter().all(|&(_, p99)| p99 > 0.0));
    }

    #[test]
    fn router_sweep_compares_policies_on_one_trace() {
        let sweep = RouterSweep::new(preset::chameleon_cluster(2), 5);
        let points = sweep.run_all(8.0, 10.0);
        assert_eq!(points.len(), RouterPolicy::ALL.len());
        let n = points[0].report.records.len();
        for p in &points {
            assert_eq!(p.report.records.len(), n, "policies saw different traces");
            assert_eq!(p.report.routing.policy, p.policy.name());
            assert_eq!(p.report.routing.dispatched, n as u64);
        }
    }

    #[test]
    #[should_panic(expected = "data-parallel")]
    fn router_sweep_rejects_single_engine() {
        let _ = RouterSweep::new(preset::chameleon(), 1);
    }

    #[test]
    fn throughput_reads_off_curve() {
        let sweep = LoadSweep::new(preset::slora(), 4).with_trace_secs(10.0);
        let result = sweep.run(&[1.0, 2.0]);
        // With a generous SLO nothing violates: throughput = max load.
        let t = result.throughput(1e9).unwrap();
        assert_eq!(t, 2.0);
    }
}
