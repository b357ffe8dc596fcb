//! The unified GPU-memory economy end to end: the KV axis is a strict
//! opt-in overlay (observe arm behaviourally inert, off arm pinned by the
//! digest oracles), armed runs are bit-identical across cluster execution
//! modes, admission control eliminates requeue-front storms under
//! KV-bound load, and the decision trace carries the three KV events.

use chameleon_repro::core::{
    preset, sim::Simulation, workloads, ClusterExecution, KvSpec, SystemConfig, TraceSpec,
};
use chameleon_repro::models::GpuSpec;

const SEEDS: [u64; 2] = [3, 11];
const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

/// A memory-starved A40: Llama-7B's weights leave roughly 1 GiB of KV
/// headroom, so the paper-scaled workloads are KV-bound at single-digit
/// RPS — exactly the regime the economy exists for.
fn tight_gpu() -> GpuSpec {
    GpuSpec::a40().with_memory_bytes(15 * (1 << 30))
}

fn run_text(cfg: SystemConfig, exec: ClusterExecution, seed: u64, rps: f64, secs: f64) -> String {
    let mut sim = Simulation::new(cfg.with_cluster_exec(exec), seed);
    let trace = workloads::splitwise(rps, secs, seed, sim.pool());
    let n = trace.len();
    let report = sim.run(&trace);
    report.assert_request_conservation(n);
    report.canonical_text()
}

/// Everything after the label line, minus the armed-only `kv` line — the
/// behavioural payload two arms must share when the economy only watches.
fn behavioural_lines(text: &str) -> String {
    text.lines()
        .skip(1)
        .filter(|l| !l.starts_with("kv "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The observe arm meters without intervening: per-request timings, cache
/// and PCIe traffic are byte-identical to the unmetered baseline — only
/// the label and the `kv` canonical line differ.
#[test]
fn observe_arm_is_behaviourally_inert() {
    for seed in SEEDS {
        let base = run_text(
            preset::chameleon().with_gpu(tight_gpu()),
            ClusterExecution::Serial,
            seed,
            8.0,
            20.0,
        );
        let observed = run_text(
            preset::chameleon_kv_observed().with_gpu(tight_gpu()),
            ClusterExecution::Serial,
            seed,
            8.0,
            20.0,
        );
        assert!(!base.contains("\nkv "), "unmetered run leaked a kv line");
        assert!(
            observed.contains("kv admission=false hybrid=false"),
            "seed {seed}: observe arm carries its meter line"
        );
        assert_eq!(
            behavioural_lines(&base),
            behavioural_lines(&observed),
            "seed {seed}: metering alone changed behaviour"
        );
    }
}

/// Armed cluster runs — admission refusing, proxies demoting and
/// restoring on every engine — are byte-identical whether the cluster
/// steps serially or on an epoch-synchronised worker pool, for any
/// worker count (CI additionally pins the auto path via
/// `CHAMELEON_WORKERS=2`).
#[test]
fn armed_runs_are_bit_identical_across_worker_counts() {
    for seed in SEEDS {
        let cfg = preset::chameleon_cluster_partitioned(4)
            .with_gpu(tight_gpu())
            .with_kv(KvSpec::new().with_pressure_threshold(0.5));
        let serial = run_text(cfg.clone(), ClusterExecution::Serial, seed, 24.0, 15.0);
        assert!(
            serial.contains("kv admission=true hybrid=true"),
            "seed {seed}: the economy never armed"
        );
        for workers in WORKER_COUNTS {
            let pooled = run_text(
                cfg.clone(),
                ClusterExecution::Parallel { workers },
                seed,
                24.0,
                15.0,
            );
            assert_eq!(
                pooled, serial,
                "seed {seed}, {workers} workers: armed run diverged from serial"
            );
        }
    }
}

/// The headline mechanism under KV-bound load: the optimistic baseline
/// unwinds admissions through requeue-front storms; the guarded arm
/// refuses them up front and suffers **zero** storms without losing
/// work. The load is saturated (the baseline's P99 TTFT is 42–52 s on
/// this 30 s trace), so the P99 bound compares two saturated tails; it
/// says nothing about tail latency in a served regime.
#[test]
fn admission_control_eliminates_requeue_storms() {
    for seed in SEEDS {
        let run = |cfg: SystemConfig| {
            let mut sim = Simulation::new(cfg.with_gpu(tight_gpu()), seed);
            let trace = workloads::splitwise(8.0, 30.0, seed, sim.pool());
            let n = trace.len();
            let report = sim.run(&trace);
            assert_eq!(report.completed(), n, "lost requests");
            report
        };
        let observed = run(preset::chameleon_kv_observed());
        let guarded = run(preset::chameleon_kv_guarded());
        assert!(
            observed.kv.storms > 0,
            "seed {seed}: the baseline never stormed — load is not KV-bound \
             and the comparison is vacuous"
        );
        assert_eq!(
            guarded.kv.storms, 0,
            "seed {seed}: admission control let an optimistic unwind through"
        );
        assert!(
            guarded.kv.refused > 0,
            "seed {seed}: zero storms but also zero refusals — admission \
             control never engaged"
        );
        // Refusing early must not hurt the tail it exists to protect.
        assert!(
            guarded.p99_ttft() <= observed.p99_ttft() * 1.10,
            "seed {seed}: guarded P99 {:.3}s regressed past observed {:.3}s",
            guarded.p99_ttft(),
            observed.p99_ttft()
        );
    }
}

/// The decision trace carries the three KV events, and tracing an armed
/// run does not change its behaviour.
#[test]
fn kv_events_reach_the_trace() {
    let seed = 3;
    let cfg = || {
        preset::chameleon_kv_guarded()
            .with_gpu(tight_gpu())
            .with_kv(KvSpec::new().with_pressure_threshold(0.5))
    };
    let mut sim = Simulation::new(cfg().with_trace(TraceSpec::new()), seed);
    let trace = workloads::splitwise(8.0, 30.0, seed, sim.pool());
    let report = sim.run(&trace);
    let jsonl = report
        .trace
        .as_ref()
        .expect("traced run carries a log")
        .to_jsonl();
    assert!(jsonl.contains("\"ev\":\"admission_refused\""));
    assert!(jsonl.contains("\"ev\":\"kv_demoted\""));
    assert!(jsonl.contains("\"ev\":\"kv_restored\""));
    // Traced and untraced armed runs are behaviourally identical.
    let mut plain = Simulation::new(cfg(), seed);
    let trace = workloads::splitwise(8.0, 30.0, seed, plain.pool());
    assert_eq!(
        plain.run(&trace).canonical_text(),
        report.canonical_text(),
        "tracing changed an armed run"
    );
}
