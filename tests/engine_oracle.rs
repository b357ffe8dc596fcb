//! Frozen-digest oracle suite for the single-engine paths.
//!
//! `predictive_oracle.rs` pins the cluster's planes; this suite pins the
//! systems that run on one engine through `cluster::run_alone` (the
//! fleet's per-engine stepper, without the router):
//! the paper's Chameleon system at 600 adapters (the `engine_high`
//! benchmark system), the S-LoRA baselines (discard cache with
//! block-on-load, folded chunked prefill, SJF), the static MLQ ablation,
//! Chameleon with warm (predictive) prefetch, Chameleon's engine under
//! the §5.3 comparison cache policies (LRU, GDSF, LFU, FairShare), and
//! the KV-guarded engine on a 24 GiB A40 (the `engine_kv24` benchmark
//! system), whose traced stream carries admission refusals with their
//! release-schedule wait estimate, demotions and restores.
//!
//! Every test re-runs its scenario through the current tree and compares
//! the `canonical_text` (or the traced JSONL) length + FNV-1a digest
//! against values captured before the engine's bookkeeping was rebuilt
//! on dense request slots and a live scheduler probe. Moving the lone
//! engine from its own driver loop onto the fleet's stepper left every
//! one of them unchanged. If one fails, a behaviour-preserving change to
//! the engine changed behaviour.

use chameleon_repro::core::{
    preset, sim::Simulation, workloads, CachePolicy, KvSpec, RunReport, SystemConfig, TraceSpec,
};
use chameleon_repro::models::GpuSpec;

/// FNV-1a 64-bit over the canonical text.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The report of `cfg` on a steady Splitwise trace, every request
/// accounted for.
fn splitwise_report(cfg: SystemConfig, seed: u64, rps: f64, secs: f64) -> RunReport {
    let mut sim = Simulation::new(cfg, seed);
    let trace = workloads::splitwise(rps, secs, seed, sim.pool());
    let report = sim.run(&trace);
    report.assert_request_conservation(trace.len());
    report
}

/// `canonical_text` plus the traced decision stream as JSONL (empty for
/// an untraced config) of `cfg` on a steady Splitwise trace.
fn run_splitwise(cfg: SystemConfig, seed: u64, rps: f64, secs: f64) -> (String, String) {
    let report = splitwise_report(cfg, seed, rps, secs);
    let jsonl = report
        .trace
        .as_ref()
        .map_or_else(String::new, |l| l.to_jsonl());
    (report.canonical_text(), jsonl)
}

fn assert_frozen(scenario: &str, seed: u64, text: &str, len: usize, fnv: u64) {
    assert_eq!(
        (text.len(), fnv1a(text.as_bytes())),
        (len, fnv),
        "{scenario} (seed {seed}): the run diverged from its frozen oracle"
    );
}

/// The `engine_kv24` benchmark system: KV-guarded Chameleon on an A40
/// capped at 24 GiB, demoting past half KV pressure.
fn kv24() -> SystemConfig {
    let mut cfg =
        preset::chameleon_kv_guarded().with_gpu(GpuSpec::a40().with_memory_bytes(24 << 30));
    cfg.kv = Some(KvSpec::new().with_pressure_threshold(0.5));
    cfg
}

/// Splitwise rate and length of the KV-guarded pins: busy enough that
/// admission refuses, demotes and restores.
const KV24_RPS: f64 = 10.0;
const KV24_SECS: f64 = 600.0;

/// `cfg` with Sarathi-style chunked prefill: prompt chunks fold into the
/// decode iterations.
fn chunked(mut cfg: SystemConfig, label: &str) -> SystemConfig {
    cfg.chunked_prefill = true;
    cfg.with_label(label)
}

/// The `engine_high` benchmark system near its knee.
#[test]
fn engine_high_system_matches_frozen_bytes() {
    for (seed, len, fnv) in [
        (3u64, 95_902usize, 0x139c_a4ba_e0dd_cda0_u64),
        (11, 104_413, 0x7028_92fb_9d56_9ccc),
    ] {
        let cfg = preset::chameleon().with_adapters(600);
        let text = run_splitwise(cfg, seed, 10.5, 60.0).0;
        assert_frozen("engine_high system", seed, &text, len, fnv);
    }
}

/// The S-LoRA baselines: a discard cache that blocks each step on
/// loads, the same with folded (chunked) prefill, and SJF.
#[test]
fn slora_baselines_match_frozen_bytes() {
    let cases = [
        (
            preset::slora(),
            [
                (57761usize, 0x2d21_1565_12de_aced_u64),
                (58752, 0x874f_0e51_bc89_6fd0),
            ],
        ),
        (
            preset::slora_chunked(),
            [
                (57625, 0x5e59_4995_c3b3_7ece),
                (58702, 0x3472_c85b_6c91_e117),
            ],
        ),
        (
            preset::slora_sjf(),
            [
                (57764, 0xa06c_648d_8c71_5bfd),
                (58755, 0x71a4_a166_8485_505a),
            ],
        ),
    ];
    for (cfg, pins) in cases {
        for (seed, (len, fnv)) in [3u64, 11].into_iter().zip(pins) {
            let text = run_splitwise(cfg.clone(), seed, 6.0, 60.0).0;
            assert_frozen(&cfg.label, seed, &text, len, fnv);
        }
    }
}

/// The static MLQ ablation and Chameleon with warm (predictive) loads.
#[test]
fn static_mlq_and_prefetch_match_frozen_bytes() {
    let cases = [
        (
            preset::static_mlq(),
            [
                (95245usize, 0x7167_768b_96c1_aab3_u64),
                (103_414, 0x04c1_ef05_bce6_864e),
            ],
        ),
        (
            preset::chameleon_prefetch(),
            [
                (95259, 0x39a3_b698_82ad_199e),
                (103_425, 0xe051_6a4b_ee32_c69f),
            ],
        ),
    ];
    for (cfg, pins) in cases {
        for (seed, (len, fnv)) in [3u64, 11].into_iter().zip(pins) {
            let text = run_splitwise(cfg.clone(), seed, 10.5, 60.0).0;
            assert_frozen(&cfg.label, seed, &text, len, fnv);
        }
    }
}

/// Chameleon's engine at 600 adapters under the §5.3 comparison cache
/// policies: LRU, GDSF and LFU evict by a fixed key per idle adapter,
/// FairShare by the equal-weight compound score. The 600 s traces cross
/// the 300 s frequency decay, and every run must evict.
#[test]
fn comparison_cache_policies_match_frozen_bytes() {
    let lfu = SystemConfig {
        cache: CachePolicy::Lfu,
        ..preset::chameleon()
    }
    .with_label("Ch-LFU");
    let cases = [
        (
            preset::chameleon_lru(),
            [
                (1_066_094usize, 0xbeaf_3db3_ac10_8e8b_u64),
                (1_072_205, 0x3dbd_5d65_47ab_c00f),
            ],
        ),
        (
            preset::chameleon_gdsf(),
            [
                (1_065_855, 0xb669_f7e4_ea1b_8de9),
                (1_071_361, 0x0f74_d001_f17a_dffc),
            ],
        ),
        (
            lfu,
            [
                (1_066_264, 0x130c_4e1f_aa71_8d7a),
                (1_071_775, 0xe915_0d80_b754_33ad),
            ],
        ),
        (
            preset::chameleon_fairshare(),
            [
                (1_066_999, 0x4872_8c2c_61cf_8328),
                (1_072_733, 0x16d5_10b8_e78c_5762),
            ],
        ),
    ];
    for (cfg, pins) in cases {
        for (seed, (len, fnv)) in [3u64, 11].into_iter().zip(pins) {
            let report = splitwise_report(cfg.clone().with_adapters(600), seed, 10.5, 600.0);
            assert!(
                report.cache_stats.evictions > 0,
                "{} (seed {seed}) never evicted",
                cfg.label
            );
            assert_frozen(&cfg.label, seed, &report.canonical_text(), len, fnv);
        }
    }
}

/// Chameleon's engine at 600 adapters with chunked prefill: every
/// iteration after the first admission decodes, with the prompt chunks
/// of new admissions folded in.
#[test]
fn chameleon_chunked_prefill_matches_frozen_bytes() {
    for (seed, len, fnv) in [
        (3u64, 95_660usize, 0x4d50_ddad_aa47_6d49_u64),
        (11, 104_213, 0x6fee_b7cd_b485_2661),
    ] {
        let cfg = chunked(preset::chameleon().with_adapters(600), "Ch-Chunked");
        let text = run_splitwise(cfg, seed, 10.5, 60.0).0;
        assert_frozen("Chameleon with chunked prefill", seed, &text, len, fnv);
    }
}

/// The KV-guarded engine with chunked prefill on an A40 capped at
/// 15 GiB, demoting past half KV pressure. At seed 8 decode growth runs
/// out of memory often enough to reach the rare preemption orders: five
/// victims sit before the growing request in the iteration's decode
/// order, so they already hold the iteration's token, and one of them,
/// demoted right after its last token, is restored already finished and
/// retired at the next iteration boundary.
#[test]
fn kv15_chunked_preemption_orders_match_frozen_bytes() {
    let seed = 8;
    let mut cfg = chunked(kv24(), "Chameleon-KvGuarded-Chunked")
        .with_gpu(GpuSpec::a40().with_memory_bytes(15 << 30));
    cfg.kv = Some(KvSpec::new().with_pressure_threshold(0.5));
    let report = splitwise_report(cfg, seed, KV24_RPS, KV24_SECS);
    assert!(
        report.kv.demotions > 0 && report.kv.restores > 0 && report.squashes > 0,
        "the run must demote, restore and squash"
    );
    assert_frozen(
        "KV-guarded chunked engine on 15 GiB",
        seed,
        &report.canonical_text(),
        1_038_491,
        0x0e10_b219_580e_31cc,
    );
}

/// The `engine_kv24` system at seeds whose output depends on which
/// adapters the scheduler's probe reports resident.
#[test]
fn kv24_system_matches_frozen_bytes() {
    for (seed, len, fnv) in [
        (7u64, 1_029_513usize, 0x3681_dcee_b11c_5e54_u64),
        (11, 1_023_359, 0x95a0_27d5_c7a6_76bc),
    ] {
        let text = run_splitwise(kv24(), seed, KV24_RPS, KV24_SECS).0;
        assert_frozen("engine_kv24 system", seed, &text, len, fnv);
    }
}

/// The `engine_kv24` system's traced stream: admission refusals with the
/// release schedule's wait estimate, demotions and restores.
#[test]
fn kv24_traced_stream_matches_frozen_bytes() {
    let seed = 7;
    let (text, jsonl) = run_splitwise(
        kv24().with_trace(TraceSpec::new()),
        seed,
        KV24_RPS,
        KV24_SECS,
    );
    let count = |ev: &str| {
        jsonl
            .lines()
            .filter(|l| l.contains(&format!("\"ev\":\"{ev}\"")))
            .count()
    };
    assert_eq!(
        (
            count("admission_refused"),
            count("kv_demoted"),
            count("kv_restored")
        ),
        (417, 30, 30),
        "the stream lost the KV plane's decisions"
    );
    let priced = jsonl
        .lines()
        .filter(|l| l.contains("\"ev\":\"admission_refused\""))
        .filter(|l| !l.contains(&format!("\"est_wait\":{}", u64::MAX)))
        .count();
    assert!(
        priced > 0,
        "no refusal priced a finite wait off the release schedule"
    );
    assert_frozen(
        "engine_kv24 system (traced)",
        seed,
        &text,
        1_029_513,
        0x3681_dcee_b11c_5e54,
    );
    assert_frozen(
        "engine_kv24 stream",
        seed,
        &jsonl,
        2_351_094,
        0xf2c4_0c57_efa9_7571,
    );
}
