//! Benchmark and figure-regeneration harness.
//!
//! Every figure in the paper's evaluation (§3 characterisation and §5
//! evaluation) has a function in [`figures`] that reruns the experiment and
//! prints the same rows/series the paper plots. The `figures` binary wraps
//! them in a CLI:
//!
//! ```text
//! cargo run -p chameleon-bench --release --bin figures -- fig11
//! cargo run -p chameleon-bench --release --bin figures -- all
//! ```
//!
//! The `trace-overhead` binary is the tracing-cost gate; the simulator's
//! benchmark is `perfbench/` (see `BENCHMARK.json`).
//!
//! # Load levels
//!
//! Our simulated A40 testbed saturates at different absolute RPS than the
//! authors' hardware, so experiments are parameterised by *load level*
//! relative to the measured knees: on the A40/Llama-7B platform, low ≈ 6,
//! medium ≈ 9, high ≈ 10.5 (S-LoRA past its knee, Chameleon comfortable)
//! and overload ≈ 12.5 RPS. Each figure in [`figures`] names the levels it
//! runs at.

pub mod figures;

use chameleon_core::{sim::Simulation, RunReport, SystemConfig};
use chameleon_models::AdapterPool;
use chameleon_workload::Trace;

/// Default experiment seed (all figures are deterministic given this).
pub const SEED: u64 = 42;

/// Low / medium / high / overload loads for the A40 Llama-7B platform.
pub const LOAD_LOW: f64 = 6.0;
/// See [`LOAD_LOW`].
pub const LOAD_MEDIUM: f64 = 9.0;
/// See [`LOAD_LOW`].
pub const LOAD_HIGH: f64 = 10.5;
/// See [`LOAD_LOW`].
pub const LOAD_OVERLOAD: f64 = 12.5;

/// Default per-run trace duration in seconds.
pub const TRACE_SECS: f64 = 180.0;

/// Runs one system over the scaled Splitwise workload at `rps`.
pub fn run_at(cfg: SystemConfig, rps: f64, secs: f64, seed: u64) -> RunReport {
    let mut sim = Simulation::new(cfg, seed);
    let trace = chameleon_core::workloads::splitwise(rps, secs, seed, sim.pool());
    sim.run(&trace)
}

/// Runs one system over an explicit trace.
pub fn run_trace(cfg: SystemConfig, trace: &Trace, seed: u64) -> RunReport {
    let mut sim = Simulation::new(cfg, seed);
    sim.run(trace)
}

/// Generates the pool a config will use (for building matching traces).
pub fn pool_of(cfg: &SystemConfig) -> AdapterPool {
    AdapterPool::generate(&cfg.llm, &cfg.pool_config())
}

/// Formats a table row of `f64` cells.
pub fn row(label: &str, cells: &[f64]) -> String {
    let mut s = format!("{label:<22}");
    for c in cells {
        s.push_str(&format!(" {c:>9.3}"));
    }
    s
}

/// Formats a table header.
pub fn header(label: &str, cols: &[String]) -> String {
    let mut s = format!("{label:<22}");
    for c in cols {
        s.push_str(&format!(" {c:>9}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_core::preset;

    #[test]
    fn run_at_produces_complete_reports() {
        let r = run_at(preset::slora(), 4.0, 10.0, 1);
        assert!(r.completed() > 10);
    }

    #[test]
    fn table_formatting() {
        let h = header("system", &["5".into(), "6".into()]);
        let r = row("S-LoRA", &[1.25, 2.5]);
        assert!(h.contains("system"));
        assert!(r.contains("1.250"));
        assert!(r.contains("2.500"));
    }
}
