//! Single-engine simulation driver.

use crate::engine::{Engine, EngineEvent};
use chameleon_simcore::{EventQueue, SimTime};
use chameleon_workload::{Request, Trace};

/// Drives `engine` through `trace` until every request completes and the
/// system drains. Returns the instant of the last processed event.
///
/// Periodic [`EngineEvent::MemSample`] and [`EngineEvent::Refresh`] events
/// fire at the intervals in the engine's configuration while work remains.
pub fn run_engine(engine: &mut Engine, trace: &Trace) -> SimTime {
    run_engine_counted(engine, trace).0
}

/// Like [`run_engine`], additionally returning the number of events
/// processed, arrivals included (the `events=` field of
/// `RunReport::canonical_text`).
///
/// Arrivals stream from the sorted trace, so the event queue holds only
/// the engine's own events. An arrival is handled before a queued event
/// of the same instant: the order `Cluster` delivers in, and the one the
/// pinned digests record.
pub fn run_engine_counted(engine: &mut Engine, trace: &Trace) -> (SimTime, u64) {
    let arrivals = trace.requests();
    debug_assert!(
        arrivals.is_sorted_by_key(Request::arrival),
        "a Trace keeps its requests sorted by arrival"
    );
    let mut q: EventQueue<EngineEvent> = EventQueue::new();
    let mem_int = engine.config().mem_sample_interval;
    let refresh_int = engine.config().refresh_interval;
    q.push(SimTime::ZERO + mem_int, EngineEvent::MemSample);
    q.push(SimTime::ZERO + refresh_int, EngineEvent::Refresh);

    let mut next = 0;
    let mut out = Vec::new();
    let mut last = SimTime::ZERO;
    loop {
        let arrival = arrivals
            .get(next)
            .filter(|r| q.peek_time().is_none_or(|tq| r.arrival() <= tq));
        let (t, ev) = match arrival {
            Some(r) => {
                next += 1;
                (r.arrival(), EngineEvent::Arrival(*r))
            }
            None => match q.pop() {
                Some(popped) => popped,
                None => break,
            },
        };
        last = t;
        let reschedule = match &ev {
            EngineEvent::MemSample => Some((t + mem_int, EngineEvent::MemSample)),
            EngineEvent::Refresh => Some((t + refresh_int, EngineEvent::Refresh)),
            _ => None,
        };
        engine.handle(t, ev, &mut out);
        for (at, e) in out.drain(..) {
            q.push(at, e);
        }
        if let Some((at, e)) = reschedule {
            if next < arrivals.len() || engine.has_work() {
                q.push(at, e);
            }
        }
    }
    (last, q.processed() + next as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use chameleon_cache::{AdapterCache, EvictionPolicy};
    use chameleon_models::{AdapterPool, GpuSpec, LlmSpec, PoolConfig};
    use chameleon_predictor::OraclePredictor;
    use chameleon_sched::{FifoScheduler, WrsConfig};
    use chameleon_simcore::{SimDuration, SimRng};
    use chameleon_workload::{ArrivalModel, LengthModel, TraceGenerator};

    fn small_trace(n: usize, rps: f64) -> (AdapterPool, Trace) {
        let llm = LlmSpec::llama_7b();
        let pool = AdapterPool::generate(&llm, &PoolConfig::paper_default(20));
        let gen = TraceGenerator::new(
            LengthModel::Custom {
                input: chameleon_workload::generator::TokenLengthModel {
                    median: 64.0,
                    sigma: 0.5,
                    min: 8,
                    max: 256,
                },
                output: chameleon_workload::generator::TokenLengthModel {
                    median: 16.0,
                    sigma: 0.5,
                    min: 2,
                    max: 64,
                },
            },
            ArrivalModel::poisson(rps),
        );
        let mut rng = SimRng::seed(42);
        let trace = gen.generate_n(&pool, n, &mut rng);
        (pool, trace)
    }

    fn engine(pool: AdapterPool) -> Engine {
        let cfg = EngineConfig::new(LlmSpec::llama_7b(), GpuSpec::a40());
        Engine::new(
            cfg,
            pool,
            Box::new(FifoScheduler::new()),
            Box::new(OraclePredictor::new()),
            AdapterCache::new(EvictionPolicy::chameleon()),
            WrsConfig::paper(2048.0, 1024.0, (256 << 20) as f64),
        )
    }

    #[test]
    fn drains_full_trace() {
        let (pool, trace) = small_trace(50, 5.0);
        let mut e = engine(pool);
        let last = run_engine(&mut e, &trace);
        assert_eq!(e.completed(), 50);
        assert!(!e.has_work());
        assert!(last >= trace.requests().last().unwrap().arrival());
        let report = e.into_report();
        assert!(report.records.iter().all(|r| r.is_complete()));
        assert!(!report.mem_series.is_empty(), "memory was sampled");
    }

    #[test]
    fn deterministic_across_runs() {
        let (pool, trace) = small_trace(40, 8.0);
        let run = || {
            let mut e = engine(pool.clone());
            run_engine(&mut e, &trace);
            let rep = e.into_report();
            rep.records
                .iter()
                .map(|r| (r.id, r.first_token, r.finished))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// A reference driver that pushes the whole trace up front, so an
    /// arrival wins an equal-time tie by its lower sequence number. Also
    /// returns every event's instant and kind.
    fn heap_reference(engine: &mut Engine, trace: &Trace) -> (SimTime, u64, Vec<(SimTime, Kind)>) {
        let mut q: EventQueue<EngineEvent> = EventQueue::new();
        for r in trace {
            q.push(r.arrival(), EngineEvent::Arrival(*r));
        }
        let mem_int = engine.config().mem_sample_interval;
        let refresh_int = engine.config().refresh_interval;
        q.push(SimTime::ZERO + mem_int, EngineEvent::MemSample);
        q.push(SimTime::ZERO + refresh_int, EngineEvent::Refresh);
        let mut arrivals_left = trace.len();
        let (mut out, mut log) = (Vec::new(), Vec::new());
        let mut last = SimTime::ZERO;
        while let Some((t, ev)) = q.pop() {
            last = t;
            log.push((t, Kind::of(&ev)));
            let periodic = matches!(ev, EngineEvent::MemSample | EngineEvent::Refresh);
            if matches!(ev, EngineEvent::Arrival(_)) {
                arrivals_left -= 1;
            }
            let reschedule = match &ev {
                EngineEvent::MemSample => Some((t + mem_int, EngineEvent::MemSample)),
                EngineEvent::Refresh => Some((t + refresh_int, EngineEvent::Refresh)),
                _ => None,
            };
            engine.handle(t, ev, &mut out);
            for (at, e) in out.drain(..) {
                q.push(at, e);
            }
            if periodic && (arrivals_left > 0 || engine.has_work()) {
                let (at, e) = reschedule.expect("periodic events always reschedule");
                q.push(at, e);
            }
        }
        (last, q.processed(), log)
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Arrival,
        StepDone,
        MemSample,
        Other,
    }

    impl Kind {
        fn of(ev: &EngineEvent) -> Kind {
            match ev {
                EngineEvent::Arrival(_) => Kind::Arrival,
                EngineEvent::StepDone(_) => Kind::StepDone,
                EngineEvent::MemSample => Kind::MemSample,
                _ => Kind::Other,
            }
        }
    }

    /// A copy of `base` arriving at `at` under a fresh id.
    fn arriving_at(base: &Request, id: u64, at: SimTime) -> Request {
        Request::new(
            chameleon_workload::RequestId(id),
            at,
            base.input_tokens(),
            base.output_tokens(),
            base.adapter(),
            base.rank(),
        )
    }

    /// Arrivals that land on the instant of a pending `StepDone` or
    /// `MemSample` are handled before it, as in the heap reference: both
    /// drivers see the same ties and produce the same run.
    #[test]
    fn arrival_first_on_ties_matches_heap_reference() {
        let (pool, base) = small_trace(40, 6.0);
        let mut reqs = base.requests().to_vec();
        let mut id = reqs.len() as u64;
        // MemSample fires every whole second while arrivals remain.
        for secs in [2, 4] {
            let at = SimTime::ZERO + SimDuration::from_secs(secs);
            reqs.push(arriving_at(&reqs[0], id, at));
            id += 1;
        }
        // Adding an arrival at `t` leaves every event before `t` as it
        // was, so a StepDone the reference ran at `t` is still pending
        // there: pick one per round, later each time.
        let mut step_ties = Vec::new();
        let mut after = SimTime::ZERO;
        for _ in 0..4 {
            let trace = Trace::new(reqs.clone());
            let (_, _, log) = heap_reference(&mut engine(pool.clone()), &trace);
            let t = log
                .iter()
                .filter(|&&(t, k)| k == Kind::StepDone && t > after)
                .map(|&(t, _)| t)
                .find(|&t| !reqs.iter().any(|r| r.arrival() == t))
                .expect("a later step to tie with");
            reqs.push(arriving_at(&reqs[1], id, t));
            id += 1;
            step_ties.push(t);
            after = t + SimDuration::from_secs(1);
        }
        let trace = Trace::new(reqs);
        let mut reference = engine(pool.clone());
        let (ref_last, ref_events, log) = heap_reference(&mut reference, &trace);
        let at = |t: SimTime| log.iter().filter(move |&&(u, _)| u == t).map(|&(_, k)| k);
        for secs in [2, 4] {
            let kinds: Vec<Kind> = at(SimTime::ZERO + SimDuration::from_secs(secs)).collect();
            assert_eq!(kinds[..2], [Kind::Arrival, Kind::MemSample], "{secs} s");
        }
        for &t in &step_ties {
            let kinds: Vec<Kind> = at(t).collect();
            assert_eq!(kinds[0], Kind::Arrival, "{t}");
            assert!(kinds.contains(&Kind::StepDone), "no step at {t}");
        }
        let mut streamed = engine(pool);
        let (last, events) = run_engine_counted(&mut streamed, &trace);
        assert_eq!((last, events), (ref_last, ref_events));
        let (a, b) = (streamed.into_report(), reference.into_report());
        assert_eq!(a.records, b.records);
        assert_eq!(a.mem_series, b.mem_series);
        assert_eq!(a.squashes, b.squashes);
    }

    #[test]
    fn empty_trace_is_fine() {
        let (pool, _) = small_trace(1, 1.0);
        let mut e = engine(pool);
        let last = run_engine(&mut e, &Trace::new(vec![]));
        assert_eq!(e.completed(), 0);
        assert!(last >= SimTime::ZERO);
    }
}
