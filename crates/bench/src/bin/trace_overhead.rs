//! `trace-overhead` — the tracing-cost gate.
//!
//! Runs one scenario — Chameleon with 600 adapters on Splitwise at
//! 12 rps for 3000 s — twice: tracing disabled and tracing enabled
//! (flight recorder armed), interleaved,
//! best-of-N wall each, and fails (exit 1) when the traced run's
//! events/sec falls more than `--max-overhead` (default 5%) below the
//! untraced run's. The two runs are also asserted behaviourally
//! identical (`canonical_text`), so the gate measures pure observation
//! cost, never a behaviour change:
//!
//! ```text
//! cargo run -p chameleon-bench --release --bin trace-overhead -- --smoke
//! cargo run -p chameleon-bench --release --bin trace-overhead -- \
//!     --smoke --trace-out trace-smoke.jsonl
//! ```
//!
//! `--trace-out PATH` additionally writes the traced run's merged JSONL
//! decision stream (the CI artifact). `--batched` swaps the scenario for
//! the 4-engine amortised-dispatch path (rendezvous routing with arrival
//! batching enabled), so the gate also bounds observation cost on the
//! batched dispatch plane introduced in PR 8.

use chameleon_bench::SEED;
use chameleon_core::{preset, DispatchSpec, Simulation, TraceSpec};
use std::process::ExitCode;
use std::time::Instant;

/// Times `f`, returning `(wall_seconds, output)`.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut batched = false;
    let mut runs = 3usize;
    let mut max_overhead = 0.05f64;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--batched" => batched = true,
            "--runs" => {
                runs = args
                    .next()
                    .expect("--runs requires a count")
                    .parse()
                    .expect("runs must be a number")
            }
            "--max-overhead" => {
                max_overhead = args
                    .next()
                    .expect("--max-overhead requires a fraction")
                    .parse()
                    .expect("max-overhead must be a number")
            }
            "--trace-out" => trace_out = Some(args.next().expect("--trace-out requires a path")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: trace-overhead [--smoke] [--batched] [--runs N] \
                     [--max-overhead F] [--trace-out PATH]"
                );
                return ExitCode::SUCCESS;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(runs > 0, "need at least one run");

    // Full mode stretches the scenario to ~1s of wall per run so
    // the best-of-N comparison sits well above scheduler/timer noise;
    // smoke stays for quick local runs (too short to be a meaningful
    // wall-clock gate).
    let (base, trace) = if batched {
        // The amortised-dispatch path: a 4-engine rendezvous fleet with
        // arrival batching on, so the gate prices tracing on batched
        // barriers (dispatch_batch/retry_batch events included).
        let secs = if smoke { 4.0 } else { 400.0 };
        let cfg = preset::chameleon_cluster_rendezvous(4)
            .with_adapters(600)
            .with_dispatch(DispatchSpec::new())
            .with_label("Chameleon-DP4-600-Batched");
        let pool = Simulation::new(cfg.clone(), SEED).pool().clone();
        let trace = chameleon_core::workloads::lmsys(80.0, secs, SEED, &pool);
        (cfg, trace)
    } else {
        let secs = if smoke { 4.0 } else { 3000.0 };
        let mut cfg = preset::chameleon();
        cfg.num_adapters = 600;
        let cfg = cfg.with_label("Chameleon-600");
        let pool = Simulation::new(cfg.clone(), SEED).pool().clone();
        let trace = chameleon_core::workloads::splitwise(12.0, secs, SEED, &pool);
        (cfg, trace)
    };
    // The shed-idle predicate inspects every event and never fires on a
    // fault-free run, so the gate prices a live recorder scan.
    let traced_cfg = base
        .clone()
        .with_trace(TraceSpec::new().with_shed_idle_trigger());

    let mut best_plain = f64::INFINITY;
    let mut best_traced = f64::INFINITY;
    let mut best_ratio = f64::INFINITY;
    let mut plain_text = String::new();
    let mut traced_text = String::new();
    let mut trace_jsonl = String::new();
    for round in 0..runs {
        let mut plain_sim = Simulation::new(base.clone(), SEED);
        let (t_plain, plain) = timed(|| plain_sim.run(&trace));
        let mut traced_sim = Simulation::new(traced_cfg.clone(), SEED);
        let (t_traced, traced) = timed(|| traced_sim.run(&trace));
        best_plain = best_plain.min(t_plain);
        best_traced = best_traced.min(t_traced);
        // Paired per-round ratio: both runs of a round see the same
        // ambient load, so the cleanest round's ratio is the tightest
        // upper bound on the true observation cost (a shared/1-core CI
        // host can stall either side of an *unpaired* comparison).
        best_ratio = best_ratio.min(t_traced / t_plain);
        if round == 0 {
            plain_text = plain.canonical_text();
            traced_text = traced.canonical_text();
            trace_jsonl = traced
                .trace
                .as_ref()
                .expect("traced run carries a log")
                .to_jsonl();
            assert!(!trace_jsonl.is_empty(), "traced run emitted no events");
        }
    }
    assert_eq!(
        plain_text, traced_text,
        "tracing changed simulation behaviour"
    );

    // The event count is identical by construction (asserted above), so
    // the wall ratio is exactly the events/sec ratio.
    let overhead = best_ratio - 1.0;
    println!(
        "trace-overhead[{}]: untraced {best_plain:.3}s vs traced {best_traced:.3}s \
         (best of {runs}) -> {:+.2}% wall overhead, best paired round (gate {:.0}%)",
        if batched { "batched" } else { "single" },
        overhead * 100.0,
        max_overhead * 100.0,
    );
    if let Some(path) = trace_out {
        std::fs::write(&path, &trace_jsonl).expect("write trace jsonl");
        println!(
            "trace-overhead: wrote {} ({} events)",
            path,
            trace_jsonl.lines().count()
        );
    }
    if overhead > max_overhead {
        eprintln!(
            "trace-overhead: FAIL — tracing costs {:.2}%, over the {:.0}% gate",
            overhead * 100.0,
            max_overhead * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!("trace-overhead: OK");
    ExitCode::SUCCESS
}
