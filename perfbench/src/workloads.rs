//! The three benchmark workloads: system, traffic, and declared regime.
//!
//! Every workload is open loop in simulated time (Poisson arrivals at a
//! fixed rate, TTFT counted from arrival) and runs on one thread. The
//! trace is generated here from the seed; the simulator only ever sees
//! the generated `Trace`.

use chameleon_core::{preset, ClusterExecution, KvSpec, RunReport, SystemConfig};
use chameleon_models::{AdapterPool, GpuSpec, PopularityDist};
use chameleon_workload::Trace;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `preset::chameleon()`, 600 adapters, one A40, Splitwise at 10.5 rps.
    EngineHigh,
    /// Four-engine adapter-affinity fleet, 600 power-law-ranked adapters,
    /// LMSYS at 80 rps, per-arrival dispatch.
    Fleet4Affinity,
    /// KV-guarded Chameleon on a 24 GiB A40, 100 adapters, Splitwise at
    /// 8 rps.
    EngineKv24,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 3] = [
        Workload::EngineHigh,
        Workload::Fleet4Affinity,
        Workload::EngineKv24,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineHigh => "engine_high",
            Workload::Fleet4Affinity => "fleet4_affinity",
            Workload::EngineKv24 => "engine_kv24",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated length of the trace, in seconds.
    pub fn trace_secs(self) -> f64 {
        match self {
            Workload::EngineHigh | Workload::EngineKv24 => 6000.0,
            Workload::Fleet4Affinity => 1500.0,
        }
    }

    /// Independent sub-traces one run simulates. Their count is set per
    /// workload so that the cross-seed spread of every end-to-end metric
    /// stays well inside its bound: tail latency under memory pressure
    /// varies far more from one trace to the next than at high load.
    pub fn sub_traces(self) -> u64 {
        match self {
            Workload::EngineHigh => 3,
            Workload::Fleet4Affinity => 2,
            Workload::EngineKv24 => 12,
        }
    }

    /// How many of the sub-traces (the first ones) the timed rounds and
    /// the traced run cycle through. The rest only add simulated samples
    /// to the latency metrics; a small timed set keeps a run short even
    /// when the host is slow.
    pub fn timed_sub_traces(self) -> usize {
        match self {
            Workload::EngineHigh => 3,
            Workload::Fleet4Affinity => 2,
            Workload::EngineKv24 => 4,
        }
    }

    /// The trace seed of sub-trace `k` of a run with seed `seed`.
    pub fn sub_seed(seed: u64, k: u64) -> u64 {
        seed.wrapping_mul(1_000_003).wrapping_add(k)
    }

    /// The serving system under test.
    pub fn config(self) -> SystemConfig {
        let cfg = match self {
            Workload::EngineHigh => preset::chameleon().with_adapters(600),
            Workload::Fleet4Affinity => {
                let mut cfg = preset::chameleon_cluster_partitioned(4).with_adapters(600);
                cfg.rank_popularity = PopularityDist::power_law();
                cfg
            }
            Workload::EngineKv24 => {
                let mut cfg = preset::chameleon_kv_guarded()
                    .with_gpu(GpuSpec::a40().with_memory_bytes(24 << 30));
                cfg.kv = Some(KvSpec::new().with_pressure_threshold(0.5));
                cfg
            }
        };
        cfg.with_cluster_exec(ClusterExecution::Serial)
    }

    /// The workload's trace for `seed`, drawing adapters from `pool`.
    pub fn trace(self, seed: u64, pool: &AdapterPool) -> Trace {
        use chameleon_core::workloads::{lmsys, splitwise};
        let secs = self.trace_secs();
        match self {
            Workload::EngineHigh => splitwise(10.5, secs, seed, pool),
            Workload::Fleet4Affinity => lmsys(80.0, secs, seed, pool),
            Workload::EngineKv24 => splitwise(KV24_RPS, secs, seed, pool),
        }
    }

    /// Checks that a run sits in the regime this workload was chosen
    /// for. Outside it the workload's numbers mean something else, so the
    /// benchmark refuses them.
    pub fn check_regime(self, report: &RunReport, trace: &Trace) -> Result<(), String> {
        let p99 = report.p99_ttft();
        let slo = report.slo.as_secs_f64();
        match self {
            Workload::EngineHigh => {
                let last_arrival = trace
                    .requests()
                    .last()
                    .map_or(0.0, |r| r.arrival().as_secs_f64());
                // The horizon trails the last completion by up to one
                // refresh period, so the drain is read off the records.
                let last_finish = report
                    .records
                    .iter()
                    .filter_map(|r| r.finished)
                    .max()
                    .map_or(0.0, |t| t.as_secs_f64());
                let drain = last_finish - last_arrival;
                if p99 >= slo {
                    return Err(format!("P99 TTFT {p99:.3}s is not below the SLO {slo:.3}s"));
                }
                if drain > DRAIN_MARGIN_SECS {
                    return Err(format!(
                        "the last request finished {drain:.1}s after the last arrival \
                         (margin {DRAIN_MARGIN_SECS}s): a backlog grew"
                    ));
                }
            }
            Workload::Fleet4Affinity => {
                let spill = report.spill_rate();
                let affinity = report.affinity_hit_rate();
                if spill <= 0.0 {
                    return Err("no request spilled off its home engine".into());
                }
                if affinity < AFFINITY_FLOOR {
                    return Err(format!(
                        "affinity hit rate {affinity:.4} is below the floor {AFFINITY_FLOOR}"
                    ));
                }
            }
            Workload::EngineKv24 => {
                let kv = &report.kv;
                if kv.refused == 0 || kv.demotions == 0 {
                    return Err(format!(
                        "the memory layer is idle: refused={} demotions={}",
                        kv.refused, kv.demotions
                    ));
                }
                if kv.storms != 0 {
                    return Err(format!("{} requeue storms", kv.storms));
                }
                let cap = self.trace_secs() / 4.0;
                if p99 >= cap {
                    return Err(format!(
                        "P99 TTFT {p99:.1}s is not below a quarter of the trace ({cap}s)"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// `engine_kv24`'s offered load, requests per second.
const KV24_RPS: f64 = 8.0;

/// How long after the last arrival `engine_high` may keep draining.
const DRAIN_MARGIN_SECS: f64 = 60.0;

/// Lowest affinity hit rate at which `fleet4_affinity` still partitions
/// the adapter working set.
const AFFINITY_FLOOR: f64 = 0.9;
