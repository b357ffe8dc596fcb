//! The repository benchmark's entry point.
//!
//! ```text
//! perfbench --workload <engine_high|fleet4_affinity|engine_kv24>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
//! the per-layer metrics; the last line of standard output is one JSON
//! object either way. `perfbench/README.md` describes the workloads, the
//! metrics and how each layer should move them.

use chameleon_core::Simulation;
use chameleon_models::AdapterPool;
use chameleon_workload::Trace;
use perfbench::assemble::traced_run;
use perfbench::spans::{Kind, Recording};
use perfbench::stats::{canonical_digest, fingerprint, median, percentile_ns, quartiles};
use perfbench::workloads::Workload;
use perfbench::wrap::Counters;
use std::fmt::Write as _;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// Timed rounds per run at the least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Where each run writes its summary, JSON and span dump, relative to the
/// checkout root.
const RESULTS_DIR: &str = "perfbench/results";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <engine_high|fleet4_affinity|engine_kv24> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 15.0;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What the warm-up run of one sub-trace simulated. Simulated results are
/// exact, so one run of each sub-trace gives them; every later run must
/// reproduce its fingerprint.
struct SubRun {
    offered: usize,
    within_slo: usize,
    ttft: [f64; 2],
    tbt: [f64; 2],
    samples: [usize; 2],
    horizon_s: f64,
    fingerprint: u64,
    canonical: Option<u64>,
}

/// Exact per-layer facts read off the traced runs' reports, summed over
/// sub-traces.
#[derive(Default)]
struct Facts {
    events: u64,
    squashes: u64,
    kv_refused: u64,
    kv_demotions: u64,
    kv_restores: u64,
    kv_storms: u64,
    kv_pressure_peak: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    load_on_path_s: f64,
    completed: u64,
    pcie_bytes: u64,
    pcie_busy_s: f64,
    dispatched: u64,
    affinity_hits: u64,
    spills: u64,
    load_imbalance: Vec<f64>,
    queue_delays_ns: Vec<u64>,
}

impl Facts {
    fn add(&mut self, r: &chameleon_core::RunReport) {
        self.events += r.events_processed;
        self.squashes += r.squashes;
        self.kv_refused += r.kv.refused;
        self.kv_demotions += r.kv.demotions;
        self.kv_restores += r.kv.restores;
        self.kv_storms += r.kv.storms;
        self.kv_pressure_peak = self.kv_pressure_peak.max(r.kv.pressure_peak);
        self.cache_hits += r.cache_stats.hits;
        self.cache_misses += r.cache_stats.misses;
        self.cache_evictions += r.cache_stats.evictions;
        self.load_on_path_s += r.load_on_path_seconds().iter().sum::<f64>();
        self.completed += r.completed() as u64;
        self.pcie_bytes += r.pcie_total_bytes;
        self.pcie_busy_s += r.pcie_busy.as_secs_f64();
        self.dispatched += r.routing.dispatched;
        self.affinity_hits += r.routing.affinity_hits;
        self.spills += r.routing.spills;
        if r.routing.dispatched > 0 {
            self.load_imbalance.push(r.load_imbalance());
        }
        self.queue_delays_ns.extend(
            r.records
                .iter()
                .filter_map(|rec| rec.queue_delay())
                .map(|d| d.as_nanos()),
        );
    }
}

/// The traced half of a `--trace 1` run.
struct Traced {
    facts: Facts,
    recording: Recording,
    dump: String,
    counters: Counters,
    epochs: u64,
    step_wall_ns: u64,
    fleet: bool,
    pool_gen_ns: f64,
}

/// Everything one run measured.
struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    /// The warm-up results of every sub-trace the run simulated.
    subs: Vec<SubRun>,
    setup_s: Vec<f64>,
    trace_gen_ns: Vec<f64>,
    /// Wall seconds of each timed run, per sub-trace.
    walls: Vec<Vec<f64>>,
    /// Wall seconds of each timed round (every sub-trace once).
    round_walls: Vec<f64>,
    /// Requests offered over all sub-traces.
    offered: usize,
    /// Requests offered over the timed sub-traces.
    timed_offered: usize,
    traced: Option<Traced>,
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = run(&args);
    let mut text = String::new();
    let metrics = if args.trace {
        layer_metrics(&args, &out, &mut text)
    } else {
        end_to_end_metrics(&args, &out, &mut text)
    };
    for p in &out.problems {
        let _ = writeln!(text, "INCORRECT: {p}");
    }
    let json = result_json(&out, &metrics);
    print!("{text}");
    write_results(&args, &out, &text, &json);
    if !out.problems.is_empty() {
        eprintln!(
            "perfbench: {} correctness problem(s); see above",
            out.problems.len()
        );
    }
    println!("{json}");
}

fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let cfg = w.config();
    let k = w.sub_traces();

    // Set-up: adapter pool (inside `Simulation::new`), traces, simulation.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut trace_gen_ns = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        let sim = Simulation::new(cfg.clone(), args.seed);
        let t1 = Instant::now();
        let traces: Vec<Trace> = (0..k)
            .map(|i| w.trace(Workload::sub_seed(args.seed, i), sim.pool()))
            .collect();
        setup_s.push(t0.elapsed().as_secs_f64());
        trace_gen_ns.push(t1.elapsed().as_nanos() as f64);
        built = Some((sim, traces));
    }
    let (mut sim, traces) = built.expect("at least one set-up");
    let offered: usize = traces.iter().map(Trace::len).sum();
    let timed = &traces[..w.timed_sub_traces()];

    // Warm-up round: the reference results, checked for conservation and
    // regime. A traced run reports no simulated end-to-end metric, so it
    // only needs the sub-traces it times.
    let simulated = if args.trace { timed } else { &traces[..] };
    let mut problems = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut subs = Vec::with_capacity(traces.len());
    for (i, trace) in simulated.iter().enumerate() {
        let r = sim.run(trace);
        attempted += trace.len() as u64;
        failed += (trace.len() - r.completed()) as u64;
        if let Err(e) = r.verify_request_conservation(trace.len()) {
            problems.push(format!("sub-trace {i}: {e}"));
        }
        if let Err(e) = w.check_regime(&r, trace) {
            problems.push(format!(
                "sub-trace {i}: outside the {} regime: {e}",
                w.name()
            ));
        }
        subs.push(summarise(&r, trace.len(), args.trace));
    }

    // Timed rounds: every timed sub-trace once per round, until
    // `--seconds`.
    let mut walls = vec![Vec::new(); timed.len()];
    let mut round_walls = Vec::new();
    let start = Instant::now();
    loop {
        let mut wall = 0.0;
        for (i, trace) in timed.iter().enumerate() {
            let t0 = Instant::now();
            let r = sim.run(trace);
            let dt = t0.elapsed().as_secs_f64();
            walls[i].push(dt);
            wall += dt;
            attempted += trace.len() as u64;
            failed += (trace.len() - r.completed()) as u64;
            if fingerprint(&r) != subs[i].fingerprint {
                problems.push(format!(
                    "sub-trace {i}: round {} simulated different results",
                    round_walls.len() + 1
                ));
            }
        }
        round_walls.push(wall);
        if round_walls.len() >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let traced = args
        .trace
        .then(|| traced_phase(&sim, args.seed, timed, &subs, &mut problems));
    Outcome {
        problems,
        attempted,
        failed,
        subs,
        setup_s,
        trace_gen_ns,
        walls,
        round_walls,
        offered,
        timed_offered: timed.iter().map(Trace::len).sum(),
        traced,
    }
}

/// Summarises one warm-up run. The latency samples are read in place
/// (a run holds millions of TBT gaps), so the benchmark's own bookkeeping
/// does not set the process's peak memory.
fn summarise(r: &chameleon_core::RunReport, offered: usize, canonical: bool) -> SubRun {
    let slo = r.slo.as_nanos();
    let ttft_ns = || {
        r.records
            .iter()
            .filter_map(|rec| rec.ttft())
            .map(|d| d.as_nanos())
    };
    let tbt_ns = || {
        r.records
            .iter()
            .flat_map(|rec| rec.tbt_gaps.iter())
            .map(|d| d.as_nanos())
    };
    let within_slo = ttft_ns().filter(|&t| t <= slo).count();
    SubRun {
        offered,
        within_slo,
        ttft: [percentile_ns(ttft_ns, 50.0), percentile_ns(ttft_ns, 99.0)],
        tbt: [percentile_ns(tbt_ns, 50.0), percentile_ns(tbt_ns, 99.0)],
        samples: [ttft_ns().count(), tbt_ns().count()],
        horizon_s: r.horizon.as_secs_f64(),
        fingerprint: fingerprint(r),
        canonical: canonical.then(|| canonical_digest(r)),
    }
}

fn traced_phase(
    sim: &Simulation,
    seed: u64,
    traces: &[Trace],
    subs: &[SubRun],
    problems: &mut Vec<String>,
) -> Traced {
    let cfg = sim.config();
    let pool_gen_ns = median(
        &(0..SETUP_REPS)
            .map(|_| {
                let t0 = Instant::now();
                let pool = AdapterPool::generate(&cfg.llm, &cfg.pool_config());
                let ns = t0.elapsed().as_nanos() as f64;
                std::hint::black_box(pool);
                ns
            })
            .collect::<Vec<_>>(),
    );
    let mut facts = Facts::default();
    let mut merged: Option<Recording> = None;
    let mut dump = String::new();
    let mut counters = Counters::default();
    let (mut epochs, mut step_wall_ns) = (0, 0);
    for (i, trace) in traces.iter().enumerate() {
        let run = traced_run(sim, seed, trace);
        if Some(canonical_digest(&run.report)) != subs[i].canonical {
            problems.push(format!(
                "sub-trace {i}: the traced run's canonical_text differs from Simulation::run's"
            ));
        }
        facts.add(&run.report);
        counters.merge(&run.counters);
        if let Some(p) = run.profile {
            epochs += p.epochs;
            step_wall_ns += p.step_wall_ns;
        }
        match merged.as_mut() {
            Some(m) => m.merge(&run.recording),
            None => {
                dump = run.recording.dump_tsv();
                merged = Some(run.recording);
            }
        }
    }
    Traced {
        facts,
        recording: merged.expect("at least one sub-trace"),
        dump,
        counters,
        epochs,
        step_wall_ns,
        fleet: sim.config().is_cluster(),
        pool_gen_ns,
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Wall seconds of one pass over every sub-trace: the sum of each
/// sub-trace's median, so a burst of host noise costs one sample of one
/// sub-trace rather than a whole round.
fn typical_wall(out: &Outcome) -> f64 {
    out.walls.iter().map(|w| median(w)).sum()
}

fn end_to_end_metrics(args: &Args, out: &Outcome, text: &mut String) -> Vec<Metric> {
    let walls = &out.round_walls;
    let wall = typical_wall(out);
    let timed = &out.subs[..out.walls.len()];
    let horizon: f64 = timed.iter().map(|s| s.horizon_s).sum();
    let timed_offered = out.timed_offered as f64;
    let offered = out.offered as f64;
    let within: usize = out.subs.iter().map(|s| s.within_slo).sum();
    let pick = |f: &dyn Fn(&SubRun) -> f64| median(&out.subs.iter().map(f).collect::<Vec<_>>());
    let metrics = vec![
        m("requests_per_wall_s", timed_offered / wall, "1/s"),
        m("sim_s_per_wall_s", horizon / wall, "s/s"),
        m("setup_s", median(&out.setup_s), "s"),
        m("peak_rss_mib", peak_rss_mib(), "MiB"),
        m("ttft_p50_s", pick(&|s| s.ttft[0]), "s"),
        m("ttft_p99_s", pick(&|s| s.ttft[1]), "s"),
        m("tbt_p50_s", pick(&|s| s.tbt[0]), "s"),
        m("tbt_p99_s", pick(&|s| s.tbt[1]), "s"),
        m("slo_attainment", within as f64 / offered, "ratio"),
    ];
    let _ = writeln!(
        text,
        "perfbench {} seed={} sub_traces={} (timed {}) offered={} rounds={} (after one warm-up round)",
        args.workload.name(),
        args.seed,
        out.subs.len(),
        out.walls.len(),
        out.offered,
        walls.len(),
    );
    let q = quartiles(walls);
    let _ = writeln!(
        text,
        "  round wall s: q1={:.4} median={:.4} q3={:.4} (n={})",
        q[0],
        q[1],
        q[2],
        walls.len()
    );
    let s = quartiles(&out.setup_s);
    let _ = writeln!(
        text,
        "  setup s:      q1={:.5} median={:.5} q3={:.5} (n={})",
        s[0],
        s[1],
        s[2],
        out.setup_s.len()
    );
    let _ = writeln!(
        text,
        "  requests/wall s by round: q1={:.1} q3={:.1}",
        timed_offered / q[2],
        timed_offered / q[0]
    );
    for (i, sub) in out.subs.iter().enumerate() {
        let _ = writeln!(
            text,
            "  sub-trace {i}: offered={} ttft p50={:.4}s p99={:.4}s (n={}) tbt p50={:.5}s p99={:.5}s (n={})",
            sub.offered, sub.ttft[0], sub.ttft[1], sub.samples[0], sub.tbt[0], sub.tbt[1], sub.samples[1],
        );
    }
    let _ = writeln!(
        text,
        "  latency metrics are the median over sub-traces; failed={} of {} attempted",
        out.failed, out.attempted
    );
    for x in &metrics {
        let _ = writeln!(text, "  {:<20} {:>16.6} {}", x.name, x.value, x.unit);
    }
    metrics
}

fn layer_metrics(args: &Args, out: &Outcome, text: &mut String) -> Vec<Metric> {
    let t = out.traced.as_ref().expect("traced run");
    let rec = &t.recording;
    let f = &t.facts;
    let ns = |k: Kind| rec.agg(k).total_ns as f64;
    let calls = |k: Kind| rec.agg(k).calls as f64;
    let sched_kinds = [
        Kind::SchedEnqueue,
        Kind::SchedFormBatch,
        Kind::SchedQueuedAdapters,
        Kind::SchedRefresh,
        Kind::SchedOther,
    ];
    let sched_ns: f64 = sched_kinds.iter().map(|&k| ns(k)).sum();
    let predictor_ns = ns(Kind::Predict);
    let route_ns = ns(Kind::Route);
    let core_ns = ns(Kind::Build) + ns(Kind::Report);
    let total_ns = ns(Kind::Run);
    // Self time per layer. A single engine runs the benchmark's driver
    // loop, so the event queue and `Engine::handle` are timed directly;
    // a fleet's engines step inside `Cluster::run_with`, where the barrier
    // profile splits engine stepping from coordinator dispatch.
    let (queue_ns, engine_ns, coord_ns) = if t.fleet {
        let step = t.step_wall_ns as f64;
        let engine = (step - sched_ns - predictor_ns).max(0.0);
        let coord = (ns(Kind::ClusterRun) - step - route_ns).max(0.0);
        (0.0, engine, coord)
    } else {
        let handle = rec.agg(Kind::Handle).self_ns() as f64;
        (
            ns(Kind::Queue),
            handle,
            rec.agg(Kind::Driver).self_ns() as f64,
        )
    };
    let layers = [
        ("engine", engine_ns),
        ("engine.coord", coord_ns),
        ("simcore", queue_ns),
        ("sched", sched_ns),
        ("predictor", predictor_ns),
        ("router", route_ns),
        ("core", core_ns),
    ];
    let attributed: f64 = layers.iter().map(|l| l.1).sum();
    let unattributed = total_ns - attributed;
    let untraced_ns = typical_wall(out) * 1e9;
    let overhead = total_ns / untraced_ns - 1.0;
    let top = layers
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("layers");

    let _ = writeln!(
        text,
        "perfbench {} seed={} traced run over {} sub-traces",
        args.workload.name(),
        args.seed,
        out.subs.len()
    );
    let _ = writeln!(text, "  {:<14} {:>12} {:>8}", "layer", "self ms", "share");
    for (name, v) in layers.iter().chain([("unattributed", unattributed)].iter()) {
        let _ = writeln!(
            text,
            "  {:<14} {:>12.3} {:>7.2}%",
            name,
            v / 1e6,
            100.0 * v / total_ns
        );
    }
    let _ = writeln!(
        text,
        "  {:<14} {:>12.3} {:>7.2}%",
        "traced wall",
        total_ns / 1e6,
        100.0
    );
    let _ = writeln!(text, "  top layer: {}", top.0);
    let _ = writeln!(
        text,
        "  tracing overhead: traced wall {:.4}s vs untraced median {:.4}s ({:+.2}%)",
        total_ns / 1e9,
        untraced_ns / 1e9,
        100.0 * overhead
    );
    let _ = writeln!(
        text,
        "  span dump: first {} spans of sub-trace 0",
        t.dump.lines().count().saturating_sub(1)
    );

    let c = &t.counters;
    let form_calls = calls(Kind::SchedFormBatch);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let handle_calls = if t.fleet {
        f.events as f64
    } else {
        calls(Kind::Handle)
    };
    let delay_p99 = if f.queue_delays_ns.is_empty() {
        0.0
    } else {
        percentile_ns(|| f.queue_delays_ns.iter().copied(), 99.0)
    };
    let imbalance = if f.load_imbalance.is_empty() {
        0.0
    } else {
        median(&f.load_imbalance)
    };
    let metrics = vec![
        m("simcore.events", f.events as f64, "count"),
        m("simcore.queue_ns", queue_ns, "ns"),
        m("simcore.epochs", t.epochs as f64, "count"),
        m("engine.handle_calls", handle_calls, "count"),
        m("engine.self_ns", engine_ns, "ns"),
        m("engine.coord_self_ns", coord_ns, "ns"),
        m("engine.squashes", f.squashes as f64, "count"),
        m("engine.kv_refused", f.kv_refused as f64, "count"),
        m("engine.kv_demotions", f.kv_demotions as f64, "count"),
        m("engine.kv_restores", f.kv_restores as f64, "count"),
        m("engine.kv_storms", f.kv_storms as f64, "count"),
        m("sched.self_ns", sched_ns, "ns"),
        m("sched.form_batch_calls", form_calls, "count"),
        m("sched.form_batch_ns", ns(Kind::SchedFormBatch), "ns"),
        m("sched.admitted", c.admitted as f64, "count"),
        m(
            "sched.admit_yield",
            ratio(c.yielding_calls as f64, form_calls),
            "ratio",
        ),
        m("sched.bypassed", c.bypassed as f64, "count"),
        m(
            "sched.queue_depth_mean",
            ratio(c.depth_sum as f64, form_calls),
            "requests",
        ),
        m(
            "sched.queued_adapters_calls",
            calls(Kind::SchedQueuedAdapters),
            "count",
        ),
        m(
            "sched.queued_adapters_ns",
            ns(Kind::SchedQueuedAdapters),
            "ns",
        ),
        m("sched.enqueue_ns", ns(Kind::SchedEnqueue), "ns"),
        m("sched.refresh_calls", calls(Kind::SchedRefresh), "count"),
        m("sched.refresh_ns", ns(Kind::SchedRefresh), "ns"),
        m("sched.queue_delay_p99_s", delay_p99, "s"),
        m("predictor.calls", calls(Kind::Predict), "count"),
        m("predictor.ns", predictor_ns, "ns"),
        m("cache.hits", f.cache_hits as f64, "count"),
        m("cache.misses", f.cache_misses as f64, "count"),
        m(
            "cache.hit_rate",
            ratio(f.cache_hits as f64, (f.cache_hits + f.cache_misses) as f64),
            "ratio",
        ),
        m("cache.evictions", f.cache_evictions as f64, "count"),
        m(
            "cache.load_on_path_mean_s",
            ratio(f.load_on_path_s, f.completed as f64),
            "s",
        ),
        m("gpu.pcie_bytes", f.pcie_bytes as f64, "bytes"),
        m("gpu.pcie_busy_s", f.pcie_busy_s, "s"),
        m("gpu.kv_pressure_peak", f.kv_pressure_peak, "ratio"),
        m("router.route_calls", calls(Kind::Route), "count"),
        m("router.route_ns", route_ns, "ns"),
        m(
            "router.spill_rate",
            ratio(f.spills as f64, f.dispatched as f64),
            "ratio",
        ),
        m(
            "router.affinity_hit_rate",
            ratio(f.affinity_hits as f64, f.dispatched as f64),
            "ratio",
        ),
        m("router.load_imbalance", imbalance, "ratio"),
        m("core.report_ns", ns(Kind::Report), "ns"),
        m("core.build_ns", ns(Kind::Build), "ns"),
        m("workload.trace_gen_ns", median(&out.trace_gen_ns), "ns"),
        m("models.pool_gen_ns", t.pool_gen_ns, "ns"),
        m("spans.wall_ns", total_ns, "ns"),
        m("spans.unattributed_ns", unattributed, "ns"),
        m("spans.overhead_frac", overhead, "ratio"),
    ];
    for x in &metrics {
        let _ = writeln!(text, "  {:<28} {:>20.6} {}", x.name, x.value, x.unit);
    }
    metrics
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn result_json(out: &Outcome, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|x| x.value.is_finite());
    let correct = out.problems.is_empty() && out.failed == 0 && finite;
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if x.value.is_finite() { x.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            x.name, x.unit
        );
    }
    s.push_str("}}");
    s
}

/// Writes the summary, the JSON and (traced runs) the span dump next to
/// each other. A failure to write is reported but does not fail the run.
fn write_results(args: &Args, out: &Outcome, text: &str, json: &str) {
    let stem = format!(
        "{RESULTS_DIR}/{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut files = vec![
        (format!("{stem}.txt"), text.to_string()),
        (format!("{stem}.json"), format!("{json}\n")),
    ];
    if let Some(t) = &out.traced {
        files.push((format!("{stem}.spans.tsv"), t.dump.clone()));
    }
    let written = std::fs::create_dir_all(RESULTS_DIR).and_then(|()| {
        files
            .iter()
            .try_for_each(|(path, body)| std::fs::write(path, body))
    });
    if let Err(e) = written {
        eprintln!("perfbench: could not write results under {RESULTS_DIR}: {e}");
    }
}
