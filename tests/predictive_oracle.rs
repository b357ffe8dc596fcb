//! Frozen-digest oracle suite for the cluster's opt-in planes and its
//! dispatch paths.
//!
//! The control plane (SLO/forecast autoscaling) must be
//! a **strict opt-in overlay**: with `PredictiveSpec` disabled (the
//! default), every cluster run is byte-for-byte what it was before the
//! control plane existed. The
//! digests of the first pins were captured from the tree before that
//! plane landed (commit `1aeabfa`) on exactly these scenarios; the tests
//! re-run the scenarios through the current tree and compare the
//! `canonical_text` length + FNV-1a digest against the frozen values.
//!
//! The dispatch pins extend the same contract to the paths those three
//! scenarios miss: load-aware routers (JSQ, power-of-two, round-robin),
//! the predictive plane on a bursty trace, faulted fleets (a lone crash,
//! every injector at once, seeded chaos schedules), and batched dispatch
//! under both staleness classes. Some also freeze the traced decision
//! stream (`TraceLog::to_jsonl`). They were captured before per-arrival
//! dispatch became the budget-1 batch, and that refactor had to leave
//! every one of them unchanged.
//!
//! The predictive pins (predictive-4 and elastic-predictive on the
//! bursty trace, the chaos schedules, the predictive-4 stream) were
//! captured with the plane's former third mechanism, burst
//! pre-replication, switched off: the canonical text with its four
//! pre-replication counters cut from the `predictive` line, the traced
//! stream as is. Deleting the mechanism left them unchanged.
//!
//! The canonical pins of predictive-4, elastic-predictive and the chaos
//! schedules were re-captured before drain-time handoff was deleted:
//! predictive-4 and elastic-predictive with the two handoff counters cut
//! from the `predictive` line, the chaos schedules, whose fleet armed the
//! plane only for crash-time shard recovery, without the line. Deleting
//! drain handoff and moving crash recovery onto `FaultSpec` left every
//! one of them unchanged: with the SLO and forecast signals on, the
//! elastic-predictive fleet never drains on either seed, so handoff never
//! ran there.
//!
//! If one of these tests fails, a behaviour-preserving path changed
//! behaviour. Enabling an opt-in plane and expecting different bytes is
//! fine; changing a pinned run is not.

mod common;

use chameleon_repro::core::{
    preset, sim::Simulation, workloads, ClusterExecution, FaultSpec, PredictiveSpec, RouterPolicy,
    SystemConfig, TraceSpec,
};
use chameleon_repro::models::AdapterPool;
use chameleon_repro::simcore::SimDuration;
use chameleon_repro::workload::Trace;
use common::{chaos_fleet, chaos_schedule, kitchen_sink_faults};

/// FNV-1a 64-bit over the canonical text — cheap, dependency-free, and
/// collision-safe enough at a few dozen pinned scenarios × two seeds.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn canonical(cfg: SystemConfig, seed: u64, rps: f64, secs: f64) -> String {
    run_splitwise(cfg, seed, rps, secs).0
}

/// `canonical_text` plus the traced decision stream as JSONL (empty for
/// an untraced config) of `cfg` on the trace `trace_of` draws from its
/// adapter pool.
fn run(
    cfg: SystemConfig,
    seed: u64,
    trace_of: impl FnOnce(&AdapterPool) -> Trace,
) -> (String, String) {
    let mut sim = Simulation::new(cfg, seed);
    let trace = trace_of(sim.pool());
    let report = sim.run(&trace);
    report.assert_request_conservation(trace.len());
    let jsonl = report
        .trace
        .as_ref()
        .map_or_else(String::new, |l| l.to_jsonl());
    (report.canonical_text(), jsonl)
}

/// [`run`] on a steady Splitwise trace.
fn run_splitwise(cfg: SystemConfig, seed: u64, rps: f64, secs: f64) -> (String, String) {
    run(cfg, seed, |pool| {
        workloads::splitwise(rps, secs, seed, pool)
    })
}

/// The elastic preset tightened exactly as the determinism suite does, so
/// the pinned run exercises real mid-trace scale-up and drain-back.
fn elastic_cfg() -> SystemConfig {
    tightened(preset::chameleon_cluster_elastic())
}

/// `cfg`'s autoscaler tightened to the elastic pin's controller.
fn tightened(mut cfg: SystemConfig) -> SystemConfig {
    let auto = cfg.autoscale.as_mut().expect("elastic preset");
    auto.controller.interval = SimDuration::from_secs(1);
    auto.controller.cooldown = SimDuration::from_secs(3);
    auto.controller.scale_up_mean_queue = 4.0;
    auto.controller.scale_down_mean_queue = 0.5;
    cfg
}

fn elastic_canonical_of(cfg: SystemConfig, seed: u64) -> String {
    run_bursty(cfg, seed).0
}

/// [`run`], serially, on the bursty trace of the elastic pin.
fn run_bursty(cfg: SystemConfig, seed: u64) -> (String, String) {
    run(
        cfg.with_cluster_exec(ClusterExecution::Serial),
        seed,
        |pool| workloads::splitwise_bursty(4.0, 60.0, 10.0, 10.0, 20.0, seed, pool),
    )
}

fn elastic_canonical(seed: u64) -> String {
    elastic_canonical_of(elastic_cfg(), seed)
}

/// The affinity-4 fleet with the predictive plane armed, under the label
/// its pins were captured with.
fn predictive_4() -> SystemConfig {
    preset::chameleon_cluster_partitioned(4)
        .with_predictive(PredictiveSpec::new())
        .with_label("Chameleon-DP4-Predictive")
}

fn assert_frozen(scenario: &str, seed: u64, text: &str, len: usize, fnv: u64) {
    assert_eq!(
        (text.len(), fnv1a(text.as_bytes())),
        (len, fnv),
        "{scenario} (seed {seed}): the run diverged from its frozen oracle"
    );
}

/// [`assert_frozen`] for a run with the predictive plane disabled, which
/// must also stay free of the plane's stats line.
fn assert_reactive_frozen(scenario: &str, seed: u64, text: &str, len: usize, fnv: u64) {
    assert_frozen(scenario, seed, text, len, fnv);
    assert!(
        !text.contains("\npredictive "),
        "{scenario} (seed {seed}): a disabled run must not emit the predictive stats line"
    );
}

/// Fixed 4-engine homogeneous `AdapterAffinity` fleet: byte-for-byte the
/// pre-PR output with prediction disabled.
#[test]
fn fixed_affinity_fleet_matches_pre_pr_bytes() {
    for (seed, len, fnv) in [
        (3u64, 38982usize, 0x0d21_8497_06b7_f08d_u64),
        (11, 37372, 0x192e_35eb_ff3b_108f),
    ] {
        let cfg = preset::chameleon_cluster_partitioned(4);
        assert!(cfg.predictive.is_none(), "preset must stay reactive");
        let text = canonical(cfg, seed, 24.0, 10.0);
        assert_reactive_frozen("fixed affinity-4", seed, &text, len, fnv);
    }
}

/// The heterogeneous TP1/1/2/4 preset: byte-for-byte the pre-PR output.
#[test]
fn hetero_fleet_matches_pre_pr_bytes() {
    for (seed, len, fnv) in [
        (3u64, 27415usize, 0xb620_549a_7e90_96ab_u64),
        (11, 24812, 0xeb5e_a0d6_8d62_757c),
    ] {
        let cfg = preset::chameleon_cluster_hetero();
        assert!(cfg.predictive.is_none(), "preset must stay reactive");
        let text = canonical(cfg, seed, 16.0, 10.0);
        assert_reactive_frozen("hetero", seed, &text, len, fnv);
    }
}

/// The elastic preset through a burst (mid-trace scale-up + drain-back):
/// byte-for-byte the pre-PR output — the reactive autoscaler's decisions,
/// the drain path, and the report format are all untouched.
#[test]
fn elastic_fleet_matches_pre_pr_bytes() {
    // Seed 11 re-pinned when the KV-accounting bug sweep (spurious-squash
    // fix in `ensure_kv_growth`, block-rounded release schedule, squash
    // rule counting predicted output) moved the reactive baseline.
    for (seed, len, fnv) in [
        (3u64, 155_160usize, 0x92a6_0071_7924_cefe_u64),
        (11, 162_883, 0xc9db_d416_071c_a930),
    ] {
        let text = elastic_canonical(seed);
        assert_reactive_frozen("elastic", seed, &text, len, fnv);
    }
}

/// Tracing is held to the same bar as the predictive overlay: arming a
/// `TraceSpec` (flight recorder included) must leave every canonical byte
/// exactly where the pre-PR oracle froze it. The recorder observes the
/// run; it never steers it.
#[test]
fn traced_runs_match_the_same_frozen_bytes() {
    let text = canonical(
        preset::chameleon_cluster_partitioned(4).with_trace(TraceSpec::new()),
        3,
        24.0,
        10.0,
    );
    assert_reactive_frozen(
        "fixed affinity-4 (traced)",
        3,
        &text,
        38982,
        0x0d21_8497_06b7_f08d,
    );

    let text = canonical(
        preset::chameleon_cluster_hetero().with_trace(TraceSpec::new()),
        3,
        16.0,
        10.0,
    );
    assert_reactive_frozen("hetero (traced)", 3, &text, 27415, 0xb620_549a_7e90_96ab);

    let text = elastic_canonical_of(elastic_cfg().with_trace(TraceSpec::new()), 3);
    assert_reactive_frozen("elastic (traced)", 3, &text, 155_160, 0x92a6_0071_7924_cefe);
}

/// Load-aware and round-robin routing on the paper's replicated fleet:
/// every arrival is a fresh-snapshot routing decision.
#[test]
fn load_aware_routers_match_frozen_bytes() {
    let cases = [
        (
            RouterPolicy::JoinShortestQueue,
            [
                (39207usize, 0x0c7a_90a3_a8a6_7d92_u64),
                (37612, 0x0162_8371_2c09_8a48),
            ],
        ),
        (
            RouterPolicy::PowerOfTwoChoices,
            [
                (39143, 0x91a1_fd27_5d8a_c59f),
                (37573, 0xb9d5_0f17_bca4_6aa8),
            ],
        ),
        (
            RouterPolicy::RoundRobin,
            [
                (39098, 0x4bae_9565_a3ee_2786),
                (37528, 0xf6ba_2600_6fa9_f204),
            ],
        ),
    ];
    for (router, pins) in cases {
        for (seed, (len, fnv)) in [3u64, 11].into_iter().zip(pins) {
            let text = canonical(
                preset::chameleon_cluster(4).with_router(router),
                seed,
                24.0,
                10.0,
            );
            assert_reactive_frozen(router.name(), seed, &text, len, fnv);
        }
    }
}

/// The predictive plane armed: on the fixed fleet it only feeds the
/// forecaster; the elastic variant adds SLO/forecast scale-ups.
#[test]
fn predictive_fleets_match_frozen_bytes() {
    for (seed, len, fnv) in [
        (3u64, 154_833usize, 0xf679_b8e3_c18d_cf0b_u64),
        (11, 162_762, 0xc750_7174_4c7b_94d4),
    ] {
        let text = run_bursty(predictive_4(), seed).0;
        assert_frozen("predictive-4", seed, &text, len, fnv);
    }
    for (seed, len, fnv) in [
        (3u64, 154_963usize, 0x0129_9be4_baec_1002_u64),
        (11, 162_762, 0xda9c_f688_8d80_1692),
    ] {
        let cfg = tightened(preset::chameleon_cluster_elastic_predictive());
        let text = run_bursty(cfg, seed).0;
        assert_frozen("elastic-predictive", seed, &text, len, fnv);
    }
}

/// On a fixed, fault-free fleet nothing drains, scales or crashes, so the
/// predictive plane changes no decision: the run is the plain
/// partitioned run's canonical text plus one all-zero `predictive` line.
#[test]
fn fixed_fleet_predictive_plane_is_inert() {
    for seed in [3u64, 11] {
        let plain = run_bursty(preset::chameleon_cluster_partitioned(4), seed).0;
        let armed = run_bursty(
            preset::chameleon_cluster_partitioned(4).with_predictive(PredictiveSpec::new()),
            seed,
        )
        .0;
        let (predictive, rest): (Vec<&str>, Vec<&str>) =
            armed.lines().partition(|l| l.starts_with("predictive "));
        assert_eq!(
            predictive,
            ["predictive slo_scaleups=0 forecast_scaleups=0"],
            "seed {seed}: the plane acted on a fixed, fault-free fleet"
        );
        assert_eq!(
            rest,
            plain.lines().collect::<Vec<_>>(),
            "seed {seed}: the predictive plane changed a fixed, fault-free run"
        );
    }
}

/// Crash-recovery re-dispatch: a lone crash with shedding, every
/// injector at once on a JSQ fleet, and two seeded chaos schedules
/// (domain crashes, partitions, brownouts) on the 3-rack fleet.
#[test]
fn faulted_fleets_match_frozen_bytes() {
    for (seed, len, fnv) in [
        (3u64, 46861usize, 0xdaca_d8de_f46d_58be_u64),
        (11, 51184, 0x3c31_b263_eb35_911c),
    ] {
        let text = canonical(preset::chameleon_cluster_faulted(4), seed, 24.0, 20.0);
        assert_reactive_frozen("faulted-4", seed, &text, len, fnv);
    }
    for (seed, len, fnv) in [
        (3u64, 22072usize, 0xd999_9b96_64f8_4b5c_u64),
        (11, 20980, 0x7d14_f0f8_aa1f_b19e),
    ] {
        let cfg = preset::chameleon_cluster(4).with_fault(kitchen_sink_faults());
        let text = canonical(cfg, seed, 24.0, 12.0);
        assert_reactive_frozen("JSQ kitchen-sink", seed, &text, len, fnv);
    }
    for (seed, len, fnv) in [
        (3u64, 25964usize, 0x478d_2750_4b5d_08b2_u64),
        (11, 22110, 0xe527_024a_29f1_49d8),
    ] {
        let cfg = chaos_fleet().with_fault(chaos_schedule(seed));
        let text = canonical(cfg, seed, 16.0, 10.0);
        assert_reactive_frozen("chaos schedule", seed, &text, len, fnv);
    }
}

/// Batched dispatch under both staleness classes: load-aware affinity
/// with spill (bounded staleness) and pure rendezvous (state-independent).
#[test]
fn batched_dispatch_matches_frozen_bytes() {
    let cases = [
        (
            preset::chameleon_cluster_bounded_staleness(4),
            [
                (38990usize, 0x196c_26a2_9886_8308_u64),
                (37380, 0xe025_eae7_ec71_e406),
            ],
        ),
        (
            preset::chameleon_cluster_batched(4),
            [
                (38937, 0x96c4_4502_f2d3_941d),
                (37330, 0x8f15_a2a6_3fdf_3583),
            ],
        ),
    ];
    for (cfg, pins) in cases {
        for (seed, (len, fnv)) in [3u64, 11].into_iter().zip(pins) {
            let text = canonical(cfg.clone(), seed, 24.0, 10.0);
            assert_reactive_frozen(&cfg.label, seed, &text, len, fnv);
        }
    }
}

/// The traced decision streams of the partitioned, predictive and faulted
/// fleets, byte for byte (`TraceLog::to_jsonl`).
#[test]
fn traced_decision_streams_match_frozen_bytes() {
    let traced = |cfg: SystemConfig| cfg.with_trace(TraceSpec::new());
    for (seed, len, fnv) in [
        (3u64, 142_596usize, 0x92ae_b58c_2ee9_f82e_u64),
        (11, 135_517, 0x0e48_20fd_42e5_9705),
    ] {
        let cfg = traced(preset::chameleon_cluster_partitioned(4));
        let jsonl = run_splitwise(cfg, seed, 24.0, 10.0).1;
        assert_frozen("affinity-4 stream", seed, &jsonl, len, fnv);
    }
    for (seed, len, fnv) in [
        (3u64, 433_715usize, 0xc43d_0f46_c952_64ec_u64),
        (11, 442_876, 0x4cc1_f272_08b4_3182),
    ] {
        let jsonl = run_bursty(traced(predictive_4()), seed).1;
        assert_frozen("predictive-4 stream", seed, &jsonl, len, fnv);
    }
    for (seed, len, fnv) in [
        (3u64, 221_488usize, 0xa883_3ab1_a70f_acb4_u64),
        (11, 228_196, 0xc843_c986_38b1_f3d3),
    ] {
        let cfg = traced(preset::chameleon_cluster_faulted(4));
        let jsonl = run_splitwise(cfg, seed, 24.0, 20.0).1;
        assert_frozen("faulted-4 stream", seed, &jsonl, len, fnv);
    }
}

/// Fault-armed bounded-staleness batching, traced. Its decision stream
/// is pinned without the `barrier_open`/`barrier_close` lines: a batch
/// member arriving at the barrier instant is handled at the barrier, so
/// it is not counted in those lines' `pending`/`stepped` fields.
#[test]
fn fault_armed_batching_matches_frozen_bytes() {
    for (seed, canon, stream) in [
        (
            3u64,
            (32048usize, 0x9aff_d16a_89ab_e883_u64),
            (107_516usize, 0x2aa8_6c78_c077_a9e6_u64),
        ),
        (
            11,
            (29131, 0x4a18_05c3_51b1_577f),
            (104_915, 0xabfb_5190_fec4_6053),
        ),
    ] {
        let cfg = preset::chameleon_cluster_bounded_staleness(4)
            .with_fault(kitchen_sink_faults())
            .with_trace(TraceSpec::new());
        let (text, jsonl) = run_splitwise(cfg, seed, 24.0, 12.0);
        assert_reactive_frozen(
            "bounded-staleness kitchen-sink",
            seed,
            &text,
            canon.0,
            canon.1,
        );
        let stream_text: String = jsonl
            .lines()
            .filter(|l| {
                !l.contains("\"ev\":\"barrier_open\"") && !l.contains("\"ev\":\"barrier_close\"")
            })
            .map(|l| format!("{l}\n"))
            .collect();
        assert_frozen(
            "bounded-staleness kitchen-sink stream",
            seed,
            &stream_text,
            stream.0,
            stream.1,
        );
    }
}

/// `base` with engine 0 crashed 1 ms after the last arrival of
/// Splitwise at 0.5 rps over 60 s, under a 5 s detection timeout: its
/// recovery re-dispatches are pending while no arrival is. Returns the
/// canonical text.
fn crash_after_the_last_arrival(base: SystemConfig, seed: u64) -> String {
    let pool = Simulation::new(base.clone(), seed).pool().clone();
    let trace = workloads::splitwise(0.5, 60.0, seed, &pool);
    let last = trace.requests().last().expect("non-empty trace").arrival();
    let faults = FaultSpec::new()
        .with_crash(0, last + SimDuration::from_millis(1))
        .with_detect_timeout(SimDuration::from_secs(5));
    run(base.with_fault(faults), seed, |_| trace).0
}

/// [`assert_reactive_frozen`] plus the run's `events=` count.
fn assert_events_frozen(scenario: &str, seed: u64, text: &str, events: u64, len: usize, fnv: u64) {
    assert!(
        text.contains(&format!(" events={events}\n")),
        "{scenario} (seed {seed}): {}",
        text.lines().next().unwrap_or_default()
    );
    assert_reactive_frozen(scenario, seed, text, len, fnv);
}

/// The pending retries alone must keep the idle survivors' periodic
/// ticks alive until they land. Round-robin rendezvous on three engines.
#[test]
fn crash_after_the_last_arrival_matches_frozen_bytes() {
    for (seed, events, len, fnv) in [
        (3u64, 2030u64, 6697usize, 0x9f13_9cfa_0f3a_9a23_u64),
        (11, 1715, 6692, 0xa03f_897e_a81a_ad7a),
    ] {
        let base = preset::chameleon_cluster_rendezvous(3).with_router(RouterPolicy::RoundRobin);
        let text = crash_after_the_last_arrival(base, seed);
        assert_events_frozen(
            "crash after the last arrival",
            seed,
            &text,
            events,
            len,
            fnv,
        );
    }
}

/// The autoscaler follows the engines' keep-alive rule: its ticks too
/// continue until the latest pending retry is due, not only while
/// arrivals are undispatched. The elastic preset.
#[test]
fn elastic_crash_after_the_last_arrival_matches_frozen_bytes() {
    for (seed, events, len, fnv) in [
        (3u64, 1707u64, 6601usize, 0x1b6e_f730_051f_e905_u64),
        (11, 1315, 6632, 0x506f_fbee_df99_b821),
    ] {
        let text = crash_after_the_last_arrival(preset::chameleon_cluster_elastic(), seed);
        assert_events_frozen(
            "elastic crash after the last arrival",
            seed,
            &text,
            events,
            len,
            fnv,
        );
    }
}
