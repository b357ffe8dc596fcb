//! `chameleon-bench` — the persistent perf harness behind `BENCH_*.json`.
//!
//! Runs a pinned 600-adapter Zipf macro-scenario (single-engine and a
//! 4-engine cluster routed JSQ vs AdapterAffinity) plus hot-path
//! micro-benches (event-queue churn, refresh storm, parallel-vs-serial
//! sweep), a profiled barrier/epoch breakdown, and a traced
//! telemetry-series export (CSV/JSONL written next to the bench JSON),
//! and writes the numbers as JSON, extending the PR-over-PR performance
//! trajectory:
//!
//! ```text
//! cargo run -p chameleon-bench --release --bin chameleon-bench
//! cargo run -p chameleon-bench --release --bin chameleon-bench -- --smoke --out bench-smoke.json
//! ```
//!
//! `--smoke` shrinks every scenario to a few seconds of work for CI; the
//! checked-in `BENCH_PR<n>.json` files are produced by full release-mode
//! runs and gated by the `bench-compare` binary.

use chameleon_bench::perf::{timed, BenchReport, BenchResult};
use chameleon_bench::SEED;
use chameleon_core::par;
use chameleon_core::sweep::LoadSweep;
use chameleon_core::{
    preset, DispatchSpec, FaultSpec, FleetSpec, PredictiveSpec, RouterPolicy, RunReport,
    Simulation, TopologySpec,
};
use chameleon_fault::fault_roll;
use chameleon_models::{AdapterId, AdapterRank};
use chameleon_sched::{
    ChameleonConfig, ChameleonScheduler, QueuedRequest, Scheduler, StaticProbe, WrsConfig,
};
use chameleon_simcore::{EventQueue, SimDuration, SimRng, SimTime};
use chameleon_workload::{Request, RequestId};

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_PR10.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out requires a path"),
            "--help" | "-h" => {
                eprintln!("usage: chameleon-bench [--smoke] [--out PATH]");
                return;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    let mut report = BenchReport::new("PR10", smoke);
    let cores = par::default_workers();
    if cores == 1 {
        report.degraded = true;
        eprintln!(
            "WARNING: single-core host — every parallel/serial speedup column in this \
             report is noise, not signal. The serial events/sec columns are still valid; \
             the report is marked \"degraded\": true so trajectory tooling can discount \
             the ratios."
        );
    }
    println!("chameleon-bench ({})", if smoke { "smoke" } else { "full" });

    macro_scenario(&mut report, smoke);
    cluster_macro(&mut report, smoke);
    batched_dispatch_macro(&mut report, smoke);
    cluster16_macro(&mut report, smoke);
    failover_macro(&mut report, smoke);
    domain_failover_macro(&mut report, smoke);
    chaos_sweep_macro(&mut report, smoke);
    kv_pressure_macro(&mut report, smoke);
    barrier_profile_table(&mut report, smoke);
    event_queue_churn(&mut report, smoke);
    refresh_storm(&mut report, smoke);
    sweep_scaling(&mut report, smoke);
    telemetry_series(&out_path, smoke);

    std::fs::write(&out_path, report.to_json()).expect("write bench json");
    println!("wrote {out_path}");
}

/// The pinned macro-scenario: one Chameleon engine serving a 600-adapter
/// Zipf-popularity pool under the scaled Splitwise workload. Headline
/// number: simulation events processed per wall-clock second.
fn macro_scenario(report: &mut BenchReport, smoke: bool) {
    let mut cfg = preset::chameleon();
    cfg.num_adapters = 600;
    cfg = cfg.with_label("Chameleon-600");
    // Past the saturation knee, so queues stay deep and the scheduler,
    // cache, and event queue are all continuously exercised.
    let rps = 12.0;
    let secs = if smoke { 4.0 } else { 600.0 };
    let mut sim = Simulation::new(cfg, SEED);
    let trace = chameleon_core::workloads::splitwise(rps, secs, SEED, sim.pool());
    let (wall, run) = timed(|| sim.run(&trace));
    let events = run.events_processed as f64;
    println!(
        "  macro_zipf600       {:>10.0} events/s  ({} events, {} reqs, {wall:.3}s wall)",
        events / wall,
        run.events_processed,
        run.completed(),
    );
    report.push(
        "macro_zipf600",
        BenchResult::new()
            .metric("adapters", 600.0)
            .metric("offered_rps", rps)
            .metric("trace_secs", secs)
            .metric("completed", run.completed() as f64)
            .metric("events", events)
            .metric("wall_secs", wall)
            .metric("events_per_sec", events / wall)
            .metric("p99_ttft_s", run.p99_ttft())
            .metric("cache_hit_rate", run.hit_rate()),
    );
}

/// The cluster macro-scenario (the routing layer's slot in the perf
/// trajectory): a 4-engine fleet serving a 600-adapter Zipf workload,
/// dispatched once with the paper's join-shortest-queue and once with
/// adapter-affinity routing, on the identical trace. The events/sec
/// columns track the dispatch layer's overhead; the cache-hit and
/// affinity columns track what the partitioned mode buys.
fn cluster_macro(report: &mut BenchReport, smoke: bool) {
    let engines = 4;
    let rps = 80.0;
    let secs = if smoke { 3.0 } else { 120.0 };
    let mut cfg = preset::chameleon_cluster(engines)
        .with_adapters(600)
        .with_label("Chameleon-DP4-600");
    cfg.rank_popularity = chameleon_models::PopularityDist::power_law();
    let pool = chameleon_models::AdapterPool::generate(&cfg.llm, &cfg.pool_config());
    let trace = chameleon_core::workloads::lmsys(rps, secs, SEED, &pool);
    for policy in [
        RouterPolicy::JoinShortestQueue,
        RouterPolicy::AdapterAffinity,
    ] {
        let cfg = cfg.clone().with_router(policy);
        let mut sim = Simulation::new(cfg, SEED);
        let (wall, run) = timed(|| sim.run(&trace));
        let events = run.events_processed as f64;
        let name = match policy {
            RouterPolicy::JoinShortestQueue => "macro_cluster4_jsq",
            _ => "macro_cluster4_affinity",
        };
        println!(
            "  {name:<19} {:>10.0} events/s  (hit {:.1}%, aff {:.1}%, spill {:.1}%, {wall:.3}s wall)",
            events / wall,
            run.hit_rate() * 100.0,
            run.affinity_hit_rate() * 100.0,
            run.spill_rate() * 100.0,
        );
        report.push(
            name,
            BenchResult::new()
                .metric("engines", engines as f64)
                .metric("adapters", 600.0)
                .metric("offered_rps", rps)
                .metric("trace_secs", secs)
                .metric("completed", run.completed() as f64)
                .metric("events", events)
                .metric("wall_secs", wall)
                .metric("events_per_sec", events / wall)
                .metric("p99_ttft_s", run.p99_ttft())
                .metric("cache_hit_rate", run.hit_rate())
                .metric("affinity_hit_rate", run.affinity_hit_rate())
                .metric("spill_rate", run.spill_rate())
                .metric("load_imbalance", run.load_imbalance()),
        );
    }
}

/// The amortised-dispatch scenario (PR 8's slot in the trajectory): the
/// 4-engine fleet serving the 600-adapter Zipf workload three ways on
/// the *identical* trace — per-arrival dispatch (one epoch barrier per
/// request), batched dispatch under the state-independent rendezvous
/// router (arrivals coalesce into one barrier each, byte-identity with
/// per-arrival asserted on the spot), and bounded-staleness batching
/// under the load-aware partitioned router (snapshots refreshed once per
/// batch within the declared `(max_batch, max_age)` budget). The
/// events/sec ratio is the price of per-arrival barriers; `mean_batch`
/// is the epoch-amortisation factor (epoch count drops by ~that factor).
fn batched_dispatch_macro(report: &mut BenchReport, smoke: bool) {
    let engines = 4;
    let rps = 80.0;
    let secs = if smoke { 3.0 } else { 120.0 };
    let mut base = preset::chameleon_cluster_rendezvous(engines)
        .with_adapters(600)
        .with_label("Chameleon-DP4-600-Dispatch");
    base.rank_popularity = chameleon_models::PopularityDist::power_law();
    let pool = chameleon_models::AdapterPool::generate(&base.llm, &base.pool_config());
    let trace = chameleon_core::workloads::lmsys(rps, secs, SEED, &pool);

    let (t_per, per_arrival) = timed(|| Simulation::new(base.clone(), SEED).run(&trace));
    let batched_cfg = base.clone().with_dispatch(DispatchSpec::new());
    let (t_batched, batched) = timed(|| Simulation::new(batched_cfg.clone(), SEED).run(&trace));
    assert_eq!(
        per_arrival.canonical_text(),
        batched.canonical_text(),
        "batched dispatch diverged from per-arrival under a state-independent router"
    );
    // The barrier cost batching amortises is mostly the worker pool's
    // per-epoch synchronisation, so the headline comparison is the
    // *parallel* pair: per-arrival pays one pool barrier per request,
    // batched pays one per coalesced batch, on the identical trace.
    let cores = par::default_workers();
    let workers = par::workers_from_env().unwrap_or_else(|| cores.clamp(2, 8));
    let (t_per_par, per_par) =
        timed(|| Simulation::new(base.clone().with_parallel_cluster(workers), SEED).run(&trace));
    let (t_batched_par, batched_par) =
        timed(|| Simulation::new(batched_cfg.with_parallel_cluster(workers), SEED).run(&trace));
    assert_eq!(
        per_arrival.canonical_text(),
        per_par.canonical_text(),
        "parallel per-arrival run diverged from serial"
    );
    assert_eq!(
        per_arrival.canonical_text(),
        batched_par.canonical_text(),
        "parallel batched run diverged from serial"
    );
    let mut stale_cfg = preset::chameleon_cluster_bounded_staleness(engines)
        .with_adapters(600)
        .with_label("Chameleon-DP4-600-Staleness");
    stale_cfg.rank_popularity = chameleon_models::PopularityDist::power_law();
    let (t_stale, stale) = timed(|| Simulation::new(stale_cfg, SEED).run(&trace));

    let per_eps = per_arrival.events_processed as f64 / t_per;
    let batched_eps = batched.events_processed as f64 / t_batched;
    let per_par_eps = per_par.events_processed as f64 / t_per_par;
    let batched_par_eps = batched_par.events_processed as f64 / t_batched_par;
    let stale_eps = stale.events_processed as f64 / t_stale;
    let d = &batched.routing.dispatch;
    let ds = &stale.routing.dispatch;
    println!(
        "  macro_batched_disp  {:>10.0} events/s per-arrival, {:>10.0} events/s batched \
         ({:.2}x serial; parallel {:>10.0} -> {:>10.0} events/s, {:.2}x, {workers} workers / \
         {cores} cores; mean batch {:.1}, bit-identical), {:>10.0} events/s bounded-staleness \
         (mean batch {:.1}, {} refreshes)",
        per_eps,
        batched_eps,
        t_per / t_batched,
        per_par_eps,
        batched_par_eps,
        t_per_par / t_batched_par,
        d.mean_batch(),
        stale_eps,
        ds.mean_batch(),
        ds.snapshot_refreshes,
    );
    report.push(
        "macro_batched_dispatch",
        BenchResult::new()
            .metric("engines", engines as f64)
            .metric("adapters", 600.0)
            .metric("offered_rps", rps)
            .metric("trace_secs", secs)
            .metric("completed", batched.completed() as f64)
            .metric("events", batched.events_processed as f64)
            .metric("cores", cores as f64)
            .metric("workers", workers as f64)
            .metric("per_arrival_wall_secs", t_per)
            .metric("wall_secs", t_batched)
            .metric("staleness_wall_secs", t_stale)
            .metric("per_arrival_events_per_sec", per_eps)
            .metric("events_per_sec", batched_eps)
            .metric("per_arrival_parallel_events_per_sec", per_par_eps)
            .metric("parallel_events_per_sec", batched_par_eps)
            .metric("staleness_events_per_sec", stale_eps)
            .metric("batched_speedup", t_per / t_batched)
            .metric("parallel_batched_speedup", t_per_par / t_batched_par)
            .metric("batches", d.batches as f64)
            .metric("batched_arrivals", d.batched_arrivals as f64)
            .metric("mean_batch", d.mean_batch())
            .metric("max_batch", d.max_batch as f64)
            .metric("snapshot_refreshes", d.snapshot_refreshes as f64)
            .metric("staleness_mean_batch", ds.mean_batch())
            .metric("staleness_max_batch", ds.max_batch as f64)
            .metric("staleness_refreshes", ds.snapshot_refreshes as f64),
    );
}

/// The large-fleet scenario behind the parallel-cluster perf claim:
/// sixteen mixed-TP engines (the `chameleon_cluster16` preset: 600
/// adapters, adapter-affinity routing, elastic growth enabled) serving an
/// overload trace, run twice on the identical trace — once stepping
/// engines serially and once on the epoch-synchronised worker pool —
/// with the bit-identity of the two runs asserted on the spot. The
/// headline column is `parallel_speedup` (serial wall / parallel wall);
/// `cores` records what the host actually had, since the ratio is only
/// meaningful on multi-core machines (the PR 2/3 trajectory points came
/// from a 1-core container).
fn cluster16_macro(report: &mut BenchReport, smoke: bool) {
    // A bursty overload: the steady load keeps sixteen engines busy and
    // the mid-trace burst exceeds fleet capacity, so the (tightened)
    // controller actually grows the fleet and the scale barriers are part
    // of what the serial-vs-parallel comparison measures.
    let rps = 300.0;
    let secs = if smoke { 2.0 } else { 90.0 };
    let burst_factor = 6.0; // 6x burst for a sixth of the trace
    let mut cfg = preset::chameleon_cluster16().with_label("Chameleon-Fleet16-600");
    cfg.rank_popularity = chameleon_models::PopularityDist::power_law();
    let pool = chameleon_models::AdapterPool::generate(&cfg.llm, &cfg.pool_config());
    let trace = chameleon_core::workloads::splitwise_bursty(
        rps,
        secs,
        secs / 3.0,
        secs / 6.0,
        burst_factor,
        SEED,
        &pool,
    );
    let cores = par::default_workers();
    let workers = par::workers_from_env().unwrap_or_else(|| cores.clamp(2, 8));

    let mut serial_sim = Simulation::new(cfg.clone(), SEED);
    let (t_serial, serial) = timed(|| serial_sim.run(&trace));
    let mut parallel_sim = Simulation::new(cfg.with_parallel_cluster(workers), SEED);
    let (t_parallel, parallel) = timed(|| parallel_sim.run(&trace));
    assert_eq!(
        serial.canonical_text(),
        parallel.canonical_text(),
        "parallel cluster run diverged from serial"
    );

    let events = serial.events_processed as f64;
    let serial_eps = events / t_serial;
    let parallel_eps = events / t_parallel;
    println!(
        "  macro_cluster16_aff {:>10.0} events/s serial, {:>10.0} events/s parallel \
         ({:.2}x, {workers} workers / {cores} cores, bit-identical, +{} engines grown)",
        serial_eps,
        parallel_eps,
        t_serial / t_parallel,
        serial.routing.engines_added,
    );
    report.push(
        "macro_cluster16_affinity",
        BenchResult::new()
            .metric("engines", 16.0)
            .metric("adapters", 600.0)
            .metric("offered_rps", rps)
            .metric("trace_secs", secs)
            .metric("completed", serial.completed() as f64)
            .metric("events", events)
            .metric("engines_added", serial.routing.engines_added as f64)
            .metric("engines_drained", serial.routing.engines_drained as f64)
            .metric("workers", workers as f64)
            .metric("cores", cores as f64)
            .metric("serial_wall_secs", t_serial)
            .metric("parallel_wall_secs", t_parallel)
            .metric("serial_events_per_sec", serial_eps)
            .metric("parallel_events_per_sec", parallel_eps)
            .metric("events_per_sec", serial_eps)
            .metric("parallel_speedup", t_serial / t_parallel)
            .metric("cache_hit_rate", serial.hit_rate())
            .metric("affinity_hit_rate", serial.affinity_hit_rate())
            .metric("load_imbalance", serial.load_imbalance()),
    );
}

/// The GPU-memory economy's slot in the trajectory: a memory-starved A40
/// (Llama-7B's weights leave roughly 1 GiB of KV headroom) under the
/// KV-bound Splitwise workload, run twice on the *identical* trace —
/// once with the economy only metering (the optimistic baseline:
/// allocate, fail halfway, unwind via requeue-front) and once guarded
/// (KV-aware admission refusing incompletable footprints up front, plus
/// the hybrid cache demoting running requests to hidden-state proxies
/// under pressure). The headline columns pin what the economy buys:
/// zero requeue-front storms where the baseline suffers hundreds, at an
/// offered-P99 TTFT no worse than the baseline's.
fn kv_pressure_macro(report: &mut BenchReport, smoke: bool) {
    let rps = 8.0;
    let secs = if smoke { 8.0 } else { 120.0 };
    let tight = || chameleon_models::GpuSpec::a40().with_memory_bytes(15 * (1 << 30));
    let observed_cfg = preset::chameleon_kv_observed().with_gpu(tight());
    // Threshold 0.5 so the hybrid cache engages well before the region is
    // exhausted; the admission criterion is unchanged.
    let guarded_cfg = preset::chameleon_kv_guarded()
        .with_gpu(tight())
        .with_kv(chameleon_core::KvSpec::new().with_pressure_threshold(0.5));
    let pool =
        chameleon_models::AdapterPool::generate(&observed_cfg.llm, &observed_cfg.pool_config());
    let trace = chameleon_core::workloads::splitwise(rps, secs, SEED, &pool);
    let offered = trace.len();

    let (t_observed, observed) = timed(|| Simulation::new(observed_cfg, SEED).run(&trace));
    let (t_guarded, guarded) = timed(|| Simulation::new(guarded_cfg, SEED).run(&trace));
    observed.assert_request_conservation(offered);
    guarded.assert_request_conservation(offered);
    assert_eq!(
        guarded.kv.storms, 0,
        "admission control let an optimistic unwind through"
    );
    if !smoke {
        assert!(observed.kv.storms > 0, "load is not KV-bound");
        assert!(guarded.kv.refused > 0, "admission control never engaged");
        assert!(guarded.kv.demotions > 0, "the hybrid cache never engaged");
    }

    let observed_eps = observed.events_processed as f64 / t_observed;
    let guarded_eps = guarded.events_processed as f64 / t_guarded;
    let p99_observed = p99_all_offered(&observed, offered);
    let p99_guarded = p99_all_offered(&guarded, offered);
    println!(
        "  macro_kv_pressure   {observed_eps:>10.0} events/s optimistic, {guarded_eps:>10.0} \
         events/s guarded ({} storms -> 0, {} refused, {} demoted/{} restored, \
         offered-P99 {p99_observed:.3}s -> {p99_guarded:.3}s, {t_guarded:.3}s wall)",
        observed.kv.storms, guarded.kv.refused, guarded.kv.demotions, guarded.kv.restores,
    );
    report.push(
        "macro_kv_pressure",
        BenchResult::new()
            .metric("offered", offered as f64)
            .metric("offered_rps", rps)
            .metric("trace_secs", secs)
            .metric("completed", guarded.completed() as f64)
            .metric("events", guarded.events_processed as f64)
            .metric("observed_wall_secs", t_observed)
            .metric("wall_secs", t_guarded)
            .metric("observed_events_per_sec", observed_eps)
            .metric("events_per_sec", guarded_eps)
            .metric("observed_storms", observed.kv.storms as f64)
            .metric("storms", guarded.kv.storms as f64)
            .metric("refused", guarded.kv.refused as f64)
            .metric("demotions", guarded.kv.demotions as f64)
            .metric("restores", guarded.kv.restores as f64)
            .metric("restore_bytes", guarded.kv.restore_bytes as f64)
            .metric("proxy_bytes_peak", guarded.kv.proxy_bytes_peak as f64)
            .metric("observed_pressure_peak", observed.kv.pressure_peak)
            .metric("pressure_peak", guarded.kv.pressure_peak)
            .metric("observed_squashes", observed.squashes as f64)
            .metric("squashes", guarded.squashes as f64)
            .metric("observed_p99_offered_s", p99_observed)
            .metric("p99_offered_s", p99_guarded),
    );
}

/// P99 TTFT over **all offered** requests: anything unserved (failed or
/// shed) counts as an infinite sample, so abandonment shows up in the
/// tail instead of silently improving it.
fn p99_all_offered(report: &RunReport, offered: usize) -> f64 {
    let mut xs: Vec<f64> = report
        .records
        .iter()
        .filter_map(|r| r.ttft())
        .map(|d| d.as_secs_f64())
        .collect();
    xs.resize(offered, f64::INFINITY);
    xs.sort_by(f64::total_cmp);
    xs[((offered as f64 * 0.99).ceil() as usize).max(1) - 1]
}

/// The fault plane's slot in the trajectory: the 4-engine affinity fleet
/// through a mid-burst crash of one engine, run three ways on the
/// *identical* trace — clean (no `FaultSpec`), crash + recovery (barrier
/// timeout detection, shard re-homing, retry/backoff re-dispatch, a 20×
/// shed gate), and a no-recovery ablation (zero retry budget, every
/// victim abandoned). The events/sec columns track the fault plane's
/// overhead on the dispatch path; the recovery columns pin what failover
/// buys — victim requests re-dispatched instead of failed, and an
/// offered-P99 that stays finite where the ablation's is infinite
/// (rendered `null` in the JSON).
fn failover_macro(report: &mut BenchReport, smoke: bool) {
    let engines = 4;
    let rps = 5.0;
    let secs = if smoke { 6.0 } else { 60.0 };
    // A 3x burst over the middle third; the crash lands inside it.
    let burst_start = secs * 0.32;
    let burst_secs = secs * 0.32;
    let crash_at = secs * 0.4;
    let clean_cfg = preset::chameleon_cluster_partitioned(engines);
    let recovery_cfg = clean_cfg.clone().with_fault(
        FaultSpec::new()
            .with_crash(1, SimTime::from_secs_f64(crash_at))
            .with_shedding(20.0),
    );
    let ablation_cfg = clean_cfg.clone().with_fault(
        FaultSpec::new()
            .with_crash(1, SimTime::from_secs_f64(crash_at))
            .with_retry_policy(SimDuration::from_millis(50), SimDuration::from_secs(2), 0),
    );
    let pool = chameleon_models::AdapterPool::generate(&clean_cfg.llm, &clean_cfg.pool_config());
    let trace = chameleon_core::workloads::splitwise_bursty(
        rps,
        secs,
        burst_start,
        burst_secs,
        3.0,
        SEED,
        &pool,
    );
    let offered = trace.len();

    let (t_clean, clean) = timed(|| Simulation::new(clean_cfg, SEED).run(&trace));
    let (t_recovery, recovery) = timed(|| Simulation::new(recovery_cfg, SEED).run(&trace));
    let (t_ablation, ablation) = timed(|| Simulation::new(ablation_cfg, SEED).run(&trace));
    clean.assert_request_conservation(offered);
    recovery.assert_request_conservation(offered);
    ablation.assert_request_conservation(offered);

    let f = &recovery.routing.fault;
    assert_eq!(f.engines_failed, 1, "the scheduled crash must land");
    let clean_eps = clean.events_processed as f64 / t_clean;
    let recovery_eps = recovery.events_processed as f64 / t_recovery;
    let p99_clean = p99_all_offered(&clean, offered);
    let p99_recovery = p99_all_offered(&recovery, offered);
    let p99_ablation = p99_all_offered(&ablation, offered);
    println!(
        "  macro_failover      {:>10.0} events/s clean, {:>10.0} events/s faulted \
         ({} recovered / {} failed / {} shed, MTTR {:.3}s redispatch / {:.3}s complete, \
         availability {:.1}%, {t_recovery:.3}s wall)",
        clean_eps,
        recovery_eps,
        f.requests_recovered,
        f.requests_failed,
        f.requests_shed,
        f.mttr_redispatch,
        f.mttr_complete,
        recovery.availability(offered) * 100.0,
    );
    report.push(
        "macro_failover",
        BenchResult::new()
            .metric("engines", engines as f64)
            .metric("offered", offered as f64)
            .metric("offered_rps", rps)
            .metric("trace_secs", secs)
            .metric("completed", recovery.completed() as f64)
            .metric("events", recovery.events_processed as f64)
            .metric("clean_wall_secs", t_clean)
            .metric("wall_secs", t_recovery)
            .metric("ablation_wall_secs", t_ablation)
            .metric("clean_events_per_sec", clean_eps)
            .metric("events_per_sec", recovery_eps)
            .metric("requests_recovered", f.requests_recovered as f64)
            .metric("requests_failed", f.requests_failed as f64)
            .metric("requests_shed", f.requests_shed as f64)
            .metric("retries", f.retries as f64)
            .metric("adapters_rehomed", recovery.routing.adapters_rehomed as f64)
            .metric("mttr_redispatch_secs", f.mttr_redispatch)
            .metric("mttr_complete_secs", f.mttr_complete)
            .metric("availability", recovery.availability(offered))
            .metric("ablation_availability", ablation.availability(offered))
            .metric(
                "ablation_failed",
                ablation.routing.fault.requests_failed as f64,
            )
            .metric("clean_p99_offered_s", p99_clean)
            .metric("recovery_p99_offered_s", p99_recovery)
            .metric("ablation_p99_offered_s", p99_ablation),
    );
}

/// The correlated-failure slot: the 4-engine two-rack domain fleet
/// through a whole-rack crash landing mid-burst, run twice on the
/// *identical* trace — domain-aware anti-affinity placement vs the
/// topology-blind ablation (same racks, but spill second choices ignore
/// them, so some spilled work shares the primary's rack and dies with
/// it). The MTTR columns come from the recovery ledger:
/// mean time from each crash to the last victim re-dispatch and to the
/// last victim completion. The efficacy ordering (anti-affinity strictly
/// beats blind on offered P99 and requests lost) is pinned at this exact
/// full-length scenario by `tests/fault_domains.rs`; the bench records
/// the trajectory numbers.
fn domain_failover_macro(report: &mut BenchReport, smoke: bool) {
    // The pinned efficacy scenario: seed 7, a 2x burst over the second
    // quarter of the trace, the rack-1 crash landing mid-burst.
    let seed = 7;
    let engines = 4;
    let rps = 6.0;
    let secs = if smoke { 10.0 } else { 40.0 };
    let burst_start = secs * 0.25;
    let burst_secs = secs * 0.25;
    let crash_at = secs * 0.35;
    let fault = || {
        FaultSpec::new()
            .with_domain_crash(1, SimTime::from_secs_f64(crash_at))
            .with_shedding(16.0)
    };
    let affine_cfg = preset::chameleon_cluster_domains(engines).with_fault(fault());
    let blind_cfg = {
        let mut cfg = preset::chameleon_cluster_domains(engines).with_fault(fault());
        let fleet = cfg.fleet.as_mut().expect("domains preset carries a fleet");
        let topo = fleet
            .topology
            .take()
            .expect("domains preset carries a topology");
        fleet.topology = Some(topo.without_anti_affinity());
        cfg.with_label("Chameleon-DP4-DomainsBlind")
    };
    let pool = chameleon_models::AdapterPool::generate(&affine_cfg.llm, &affine_cfg.pool_config());
    let trace = chameleon_core::workloads::splitwise_bursty(
        rps,
        secs,
        burst_start,
        burst_secs,
        2.0,
        seed,
        &pool,
    );
    let offered = trace.len();

    let (t_affine, affine) = timed(|| Simulation::new(affine_cfg, seed).run(&trace));
    let (t_blind, blind) = timed(|| Simulation::new(blind_cfg, seed).run(&trace));
    affine.assert_request_conservation(offered);
    blind.assert_request_conservation(offered);
    for (arm, run) in [("affine", &affine), ("blind", &blind)] {
        let f = &run.routing.fault;
        assert_eq!(f.domains_failed, 1, "{arm}: the rack crash must land");
        assert_eq!(
            f.engines_failed, 2,
            "{arm}: the crash takes both rack members"
        );
    }

    let f = &affine.routing.fault;
    let affine_eps = affine.events_processed as f64 / t_affine;
    println!(
        "  macro_domain_failover {:>8.0} events/s ({} lost affine vs {} lost blind, \
         MTTR {:.3}s redispatch / {:.3}s complete, availability {:.1}% vs {:.1}%, \
         {t_affine:.3}s wall)",
        affine_eps,
        affine.requests_lost_to_faults(),
        blind.requests_lost_to_faults(),
        f.mttr_redispatch,
        f.mttr_complete,
        affine.availability(offered) * 100.0,
        blind.availability(offered) * 100.0,
    );
    report.push(
        "macro_domain_failover",
        BenchResult::new()
            .metric("engines", engines as f64)
            .metric("offered", offered as f64)
            .metric("offered_rps", rps)
            .metric("trace_secs", secs)
            .metric("events", affine.events_processed as f64)
            .metric("wall_secs", t_affine)
            .metric("blind_wall_secs", t_blind)
            .metric("events_per_sec", affine_eps)
            .metric("requests_recovered", f.requests_recovered as f64)
            .metric("requests_lost", affine.requests_lost_to_faults() as f64)
            .metric(
                "blind_requests_lost",
                blind.requests_lost_to_faults() as f64,
            )
            .metric("mttr_redispatch_secs", f.mttr_redispatch)
            .metric("mttr_complete_secs", f.mttr_complete)
            .metric("availability", affine.availability(offered))
            .metric("blind_availability", blind.availability(offered))
            .metric("p99_offered_s", p99_all_offered(&affine, offered))
            .metric("blind_p99_offered_s", p99_all_offered(&blind, offered)),
    );
}

/// Chaos mode: seeded random fault schedules over the three-rack,
/// six-engine domain fleet, each derived deterministically from its seed
/// through the fault plane's counter-hashed dice — the same generator the
/// `chaos_sweep` integration suite pins for bit-identity. The bench runs
/// the sweep serially and records the fault plane's aggregate cost
/// (events/sec across all schedules) plus the availability envelope, so
/// a chaos-handling regression shows up in the trajectory even when every
/// invariant still holds.
fn chaos_sweep_macro(report: &mut BenchReport, smoke: bool) {
    let schedules: u64 = if smoke { 2 } else { 8 };
    let rps = 16.0;
    let secs = if smoke { 4.0 } else { 30.0 };
    let fleet_cfg = || {
        preset::chameleon_cluster_partitioned(6)
            .with_predictive(PredictiveSpec::new())
            .with_fleet(
                FleetSpec::homogeneous(6, 1)
                    .with_topology(TopologySpec::racks(&[0, 0, 1, 1, 2, 2])),
            )
            .with_label("Chameleon-DP6-Chaos")
    };

    let mut total_events = 0u64;
    let mut total_wall = 0.0f64;
    let mut min_availability = f64::INFINITY;
    let mut availability_sum = 0.0f64;
    let mut correlated = 0u64;
    for seed in 0..schedules {
        let cfg = fleet_cfg().with_fault(chaos_schedule(seed));
        let mut sim = Simulation::new(cfg, seed);
        let trace = chameleon_core::workloads::splitwise(rps, secs, seed, sim.pool());
        let offered = trace.len();
        let (wall, run) = timed(|| sim.run(&trace));
        run.assert_request_conservation(offered);
        let availability = run.availability(offered);
        total_events += run.events_processed;
        total_wall += wall;
        min_availability = min_availability.min(availability);
        availability_sum += availability;
        correlated += run.routing.fault.domains_failed + run.routing.fault.partitions;
    }
    let eps = total_events as f64 / total_wall;
    let mean_availability = availability_sum / schedules as f64;
    println!(
        "  macro_chaos_sweep   {:>10.0} events/s over {schedules} schedules \
         ({correlated} correlated faults landed, availability min {:.1}% / mean {:.1}%, \
         {total_wall:.3}s wall)",
        eps,
        min_availability * 100.0,
        mean_availability * 100.0,
    );
    report.push(
        "macro_chaos_sweep",
        BenchResult::new()
            .metric("schedules", schedules as f64)
            .metric("offered_rps", rps)
            .metric("trace_secs", secs)
            .metric("events", total_events as f64)
            .metric("wall_secs", total_wall)
            .metric("events_per_sec", eps)
            .metric("correlated_faults", correlated as f64)
            .metric("min_availability", min_availability)
            .metric("mean_availability", mean_availability),
    );
}

/// One seeded random chaos schedule — the generator the `chaos_sweep`
/// suite pins, reproduced here so the bench exercises the identical
/// distribution. Streams partition the dice so adding a fault class
/// never perturbs another's draws.
fn chaos_schedule(seed: u64) -> FaultSpec {
    let roll = |stream: u64, counter: u64| fault_roll(seed, stream, counter);
    let mut spec = FaultSpec::new().with_shedding(8.0);
    let crash_rack = (roll(1, 0) * 3.0) as u32;
    if roll(1, 1) < 0.75 {
        let at = 3.0 + roll(1, 2) * 5.0;
        spec = spec.with_domain_crash(crash_rack, SimTime::from_secs_f64(at));
    }
    if roll(2, 0) < 0.6 {
        let rack = (crash_rack + 1 + (roll(2, 1) * 2.0) as u32) % 3;
        let from = 2.0 + roll(2, 2) * 4.0;
        let until = from + 1.0 + roll(2, 3) * 3.0;
        spec = spec.with_partition(
            rack,
            SimTime::from_secs_f64(from),
            SimTime::from_secs_f64(until),
        );
    }
    if roll(3, 0) < 0.5 {
        let rack = (roll(3, 1) * 3.0) as u32;
        let from = 1.0 + roll(3, 2) * 3.0;
        let until = from + 2.0 + roll(3, 3) * 4.0;
        let factor = 1.5 + roll(3, 4) * 4.0;
        spec = spec.with_domain_brownout(
            rack,
            SimTime::from_secs_f64(from),
            SimTime::from_secs_f64(until),
            factor,
        );
    }
    if roll(4, 0) < 0.4 {
        let engine = (roll(4, 1) * 6.0) as u32;
        let at = 4.0 + roll(4, 2) * 4.0;
        spec = spec.with_crash(engine, SimTime::from_secs_f64(at));
    }
    spec
}

/// The barrier/epoch profiler's table: one profiled parallel run of the
/// 4-engine affinity cluster, broken into the coordinator's dispatch
/// wall, the epoch-stepping wall, and the worker-time parked at the
/// epoch barrier. Wall-clock only — profiling is asserted (in the engine
/// suite) never to change simulation results — so the shares are the
/// host-dependent baseline the barrier-amortisation roadmap item needs.
fn barrier_profile_table(report: &mut BenchReport, smoke: bool) {
    let engines = 4;
    let rps = 80.0;
    let secs = if smoke { 3.0 } else { 60.0 };
    let cores = par::default_workers();
    let workers = engines.min(cores.max(2));
    let mut cfg = preset::chameleon_cluster(engines)
        .with_adapters(600)
        .with_label("Chameleon-DP4-Profiled")
        .with_router(RouterPolicy::AdapterAffinity)
        .with_parallel_cluster(workers)
        .with_barrier_profiling();
    cfg.rank_popularity = chameleon_models::PopularityDist::power_law();
    let mut sim = Simulation::new(cfg, SEED);
    let trace = chameleon_core::workloads::lmsys(rps, secs, SEED, sim.pool());
    let (wall, run) = timed(|| sim.run(&trace));
    let p = run.barrier_profile.expect("profiling was enabled");
    println!(
        "  barrier_profile     workers={} epochs={} ({} pooled)\n\
         \x20                     dispatch {:>5.1}%  step {:>5.1}%  barrier-wait {:>5.1}% of pool worker-time\n\
         \x20                     mean epoch {:.1}us  run wall {wall:.3}s",
        p.workers,
        p.epochs,
        p.pool_epochs,
        p.dispatch_share() * 100.0,
        p.step_share() * 100.0,
        p.barrier_wait_share() * 100.0,
        p.mean_epoch_ns() / 1_000.0,
    );
    report.push(
        "barrier_profile",
        BenchResult::new()
            .metric("engines", engines as f64)
            .metric("workers", p.workers as f64)
            .metric("cores", cores as f64)
            .metric("epochs", p.epochs as f64)
            .metric("pool_epochs", p.pool_epochs as f64)
            .metric("run_wall_secs", p.run_wall_ns as f64 / 1e9)
            .metric("dispatch_share", p.dispatch_share())
            .metric("step_share", p.step_share())
            .metric("barrier_wait_share", p.barrier_wait_share())
            .metric("mean_epoch_us", p.mean_epoch_ns() / 1_000.0),
    );
}

/// Runs the single-engine macro-scenario with tracing on and exports the
/// windowed time-series (sliding P99 TTFT, occupancy, per-engine queue
/// depth and utilisation) as CSV and JSONL next to the bench JSON.
fn telemetry_series(out_path: &str, smoke: bool) {
    let mut cfg = preset::chameleon().with_trace(chameleon_core::TraceSpec::new());
    cfg.num_adapters = 600;
    cfg = cfg.with_label("Chameleon-600-Traced");
    let secs = if smoke { 4.0 } else { 60.0 };
    let mut sim = Simulation::new(cfg, SEED);
    let trace = chameleon_core::workloads::splitwise(12.0, secs, SEED, sim.pool());
    let run = sim.run(&trace);
    let export = chameleon_core::telemetry::collect(&run);
    let stem = out_path.strip_suffix(".json").unwrap_or(out_path);
    let csv_path = format!("{stem}_series.csv");
    let jsonl_path = format!("{stem}_series.jsonl");
    std::fs::write(&csv_path, export.to_csv()).expect("write series csv");
    std::fs::write(&jsonl_path, export.to_jsonl()).expect("write series jsonl");
    println!(
        "  telemetry_series    {} samples -> {csv_path}, {jsonl_path}",
        export.len()
    );
}

/// Heap churn: interleaved pushes and pops at a sustained queue depth,
/// the access pattern of the simulation driver.
fn event_queue_churn(report: &mut BenchReport, smoke: bool) {
    let ops: u64 = if smoke { 200_000 } else { 4_000_000 };
    let depth = 4096;
    let mut rng = SimRng::seed(7);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth);
    let (wall, processed) = timed(|| {
        let mut clock = 0u64;
        for i in 0..depth as u64 {
            clock += rng.below(50);
            q.push(SimTime::from_nanos(clock), i);
        }
        for i in 0..ops {
            let (t, _) = q.pop().expect("queue non-empty");
            q.push(t + SimDuration::from_nanos(1 + rng.below(1000)), i);
        }
        q.clear();
        q.processed()
    });
    println!(
        "  event_queue_churn   {:>10.0} ops/s     ({processed} pops, {wall:.3}s wall)",
        processed as f64 / wall
    );
    report.push(
        "event_queue_churn",
        BenchResult::new()
            .metric("depth", depth as f64)
            .metric("ops", processed as f64)
            .metric("wall_secs", wall)
            .metric("ops_per_sec", processed as f64 / wall),
    );
}

/// Refresh storm: K-means reconfiguration + re-bucketing of a deep
/// backlog, hammered back to back.
fn refresh_storm(report: &mut BenchReport, smoke: bool) {
    let rounds = if smoke { 50 } else { 1000 };
    let backlog = 4000;
    let wrs_cfg = WrsConfig::paper(2048.0, 1024.0, (256 << 20) as f64);
    let mut sched =
        ChameleonScheduler::new(ChameleonConfig::paper(SimDuration::from_secs(5)), wrs_cfg);
    // Three well-separated WRS populations so K-means settles on K=3.
    for i in 0..backlog {
        let (w, tokens) = match i % 3 {
            0 => (0.05 + (i % 7) as f64 * 0.002, 60),
            1 => (0.40 + (i % 7) as f64 * 0.002, 300),
            _ => (0.92 + (i % 7) as f64 * 0.002, 900),
        };
        let input = (tokens / 2).max(1) as u32;
        let predicted = (tokens - u64::from(input)).max(1) as u32;
        let req = Request::new(
            RequestId(i as u64),
            SimTime::from_secs_f64(i as f64 * 0.01),
            input,
            predicted,
            AdapterId((i % 97) as u32),
            AdapterRank::new(8),
        );
        sched.enqueue(QueuedRequest::new(
            req,
            predicted,
            16 << 20,
            32,
            w,
            SimTime::from_secs_f64(i as f64 * 0.01),
        ));
    }
    let probe = StaticProbe {
        total_capacity: 100_000,
        ..StaticProbe::default()
    };
    let (wall, refreshes) = timed(|| {
        for _ in 0..rounds {
            sched.on_refresh(&probe);
        }
        sched.refreshes()
    });
    assert_eq!(sched.len(), backlog, "re-bucketing lost requests");
    println!(
        "  refresh_storm       {:>10.0} refresh/s ({refreshes} refreshes over {backlog} queued, {wall:.3}s wall)",
        refreshes as f64 / wall
    );
    report.push(
        "refresh_storm",
        BenchResult::new()
            .metric("backlog", backlog as f64)
            .metric("refreshes", refreshes as f64)
            .metric("wall_secs", wall)
            .metric("refreshes_per_sec", refreshes as f64 / wall),
    );
}

/// A 6-point load sweep, serial vs the scoped-thread pool, with the
/// bit-identical guarantee re-checked on the spot.
fn sweep_scaling(report: &mut BenchReport, smoke: bool) {
    let trace_secs = if smoke { 2.0 } else { 180.0 };
    let loads = [4.0, 6.0, 8.0, 9.0, 10.5, 12.0];
    // At least 4 workers even on narrow containers: the pool and the
    // bit-identity check are exercised everywhere, and the wall-clock
    // speedup column becomes meaningful on ≥4-core hosts (`cores` below
    // records what this run actually had).
    let cores = par::default_workers();
    let workers = loads.len().min(cores.max(4));
    let sweep = LoadSweep::new(preset::chameleon(), SEED).with_trace_secs(trace_secs);
    let (t_serial, serial) = timed(|| sweep.run(&loads));
    let (t_parallel, parallel) = timed(|| sweep.run_parallel(&loads, workers));
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(
            a.report.canonical_text(),
            b.report.canonical_text(),
            "parallel sweep diverged from serial at rps {}",
            a.rps
        );
    }
    println!(
        "  sweep_6pt           {:>9.2}x speedup  (serial {t_serial:.3}s vs parallel {t_parallel:.3}s, {workers} workers / {cores} cores, bit-identical)",
        t_serial / t_parallel
    );
    report.push(
        "sweep_6pt",
        BenchResult::new()
            .metric("points", loads.len() as f64)
            .metric("trace_secs", trace_secs)
            .metric("workers", workers as f64)
            .metric("cores", cores as f64)
            .metric("serial_wall_secs", t_serial)
            .metric("serial_secs_per_point", t_serial / loads.len() as f64)
            .metric("parallel_wall_secs", t_parallel)
            .metric("speedup", t_serial / t_parallel),
    );
}
