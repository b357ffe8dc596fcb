//! The engine's [`ResourceProbe`]: a view of live engine state that the
//! scheduler reads during batch formation and refresh.
//!
//! Taking a probe copies nothing per adapter or per running request.
//! Residency is answered from the engine's live tables, which cannot
//! change while the scheduler holds the probe. The release schedule is
//! built only when a scheduler first asks how long memory takes to free
//! up, and it prices the running batch as it stood when the probe was
//! taken.
//!
//! The schedule is keyed by each running request's remaining decode
//! steps, not by its predicted finish time, and an answer costs one
//! multiplication of the step duration. Both orders agree: `mul_f64` is
//! monotone non-decreasing in its factor and `(now + d) − now = d`, so the
//! smallest finish whose cumulative freed bytes reach a target is the
//! finish of the smallest such step count.

use chameleon_models::AdapterId;
use chameleon_sched::ResourceProbe;
use chameleon_simcore::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};

/// The scalar half of a probe, computed once when it is taken.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProbeScalars {
    pub(crate) now: SimTime,
    pub(crate) available_tokens: u64,
    pub(crate) batch_slots: usize,
    /// Seconds of engine time per resource token (blended prefill/decode,
    /// used for generic token costs).
    pub(crate) secs_per_token: f64,
    /// Wall seconds per decode token at the current batch size.
    pub(crate) decode_secs_per_token: f64,
    /// Seconds per prefill token.
    pub(crate) prefill_secs_per_token: f64,
    pub(crate) total_token_capacity: u64,
    /// Free pool memory plus reclaimable idle adapter cache — the ceiling
    /// of what a new admission's KV footprint can claim.
    pub(crate) free_kv_bytes: u64,
    /// KV bytes per token and per block, for block-rounded footprints.
    pub(crate) kv_bytes_per_token: u64,
    pub(crate) kv_block_bytes: u64,
}

/// `(remaining decode steps, bytes)` pairs of running requests.
pub(crate) type Releases = Vec<(u64, u64)>;

/// The predicted release schedule of the running batch: how many decode
/// steps each running request has left and how many bytes have freed by
/// then. The engine keeps one and invalidates it whenever it takes a
/// probe; the first wait estimate after that rebuilds it.
#[derive(Debug, Default)]
pub(crate) struct ReleaseSchedule {
    /// `(remaining steps, cumulative freed bytes)`, sorted by steps.
    entries: RefCell<Releases>,
    /// The predicted duration of one decode step.
    step: Cell<SimDuration>,
    built: Cell<bool>,
    builds: Cell<u64>,
}

impl ReleaseSchedule {
    /// Forgets the schedule; the next [`wait`](Self::wait) rebuilds it and
    /// prices each remaining step at `step`.
    pub(crate) fn invalidate(&self, step: SimDuration) {
        self.step.set(step);
        self.built.set(false);
    }

    /// Schedules built so far.
    pub(crate) fn builds(&self) -> u64 {
        self.builds.get()
    }

    /// How long the running batch takes to free `bytes`;
    /// [`SimDuration::MAX`] when it never frees that much. On the first
    /// call since [`invalidate`](Self::invalidate), `fill` appends each
    /// running request's `(remaining steps, bytes freed)`.
    pub(crate) fn wait(&self, bytes: u64, fill: impl FnOnce(&mut Releases)) -> SimDuration {
        let mut entries = self.entries.borrow_mut();
        if !self.built.get() {
            entries.clear();
            fill(&mut entries);
            // In-place unstable sort; tied step counts all resolve to the
            // same wait, so the tie order is immaterial.
            entries.sort_unstable_by_key(|&(steps, _)| steps);
            let mut acc = 0u64;
            for item in entries.iter_mut() {
                acc += item.1;
                item.1 = acc;
            }
            self.built.set(true);
            self.builds.set(self.builds.get() + 1);
        }
        entries
            .iter()
            .find(|&&(_, freed)| freed >= bytes)
            .map_or(SimDuration::MAX, |&(steps, _)| {
                self.step.get().mul_f64(steps as f64)
            })
    }

    /// The schedule as last built.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> Releases {
        self.entries.borrow().clone()
    }
}

/// A probe of live engine state at one iteration boundary.
pub(crate) struct EngineProbe<'a> {
    pub(crate) scalars: ProbeScalars,
    /// Whether an adapter's weights are on the GPU for scheduling
    /// purposes: idle in the cache, used by a running request, or in
    /// flight.
    pub(crate) resident: &'a dyn Fn(AdapterId) -> bool,
    pub(crate) release: &'a ReleaseSchedule,
    /// Appends each running request's `(finish time, bytes freed)`.
    pub(crate) fill_release: &'a dyn Fn(&mut Releases),
}

impl ResourceProbe for EngineProbe<'_> {
    fn now(&self) -> SimTime {
        self.scalars.now
    }

    fn available_tokens(&self) -> u64 {
        self.scalars.available_tokens
    }

    fn batch_slots(&self) -> usize {
        self.scalars.batch_slots
    }

    fn adapter_resident(&self, id: AdapterId) -> bool {
        (self.resident)(id)
    }

    fn estimate_exec(&self, tokens: u64) -> SimDuration {
        SimDuration::from_secs_f64(tokens as f64 * self.scalars.secs_per_token)
    }

    fn estimate_service(&self, input_tokens: u64, output_tokens: u64) -> SimDuration {
        SimDuration::from_secs_f64(
            input_tokens as f64 * self.scalars.prefill_secs_per_token
                + output_tokens as f64 * self.scalars.decode_secs_per_token,
        )
    }

    fn estimate_mem_wait(&self, bytes: u64) -> SimDuration {
        self.release.wait(bytes, self.fill_release)
    }

    fn total_token_capacity(&self) -> u64 {
        self.scalars.total_token_capacity
    }

    fn free_kv_bytes(&self) -> u64 {
        self.scalars.free_kv_bytes
    }

    fn kv_bytes_for(&self, tokens: u64) -> u64 {
        let raw = tokens * self.scalars.kv_bytes_per_token;
        if self.scalars.kv_block_bytes == 0 {
            return raw;
        }
        raw.div_ceil(self.scalars.kv_block_bytes) * self.scalars.kv_block_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resident(id: AdapterId) -> bool {
        id == AdapterId(1)
    }

    /// Two running requests: one with 5 steps left freeing 200 bytes, one
    /// with 2 freeing 100.
    fn releases(out: &mut Releases) {
        out.push((5, 200));
        out.push((2, 100));
    }

    fn probe(release: &ReleaseSchedule) -> EngineProbe<'_> {
        EngineProbe {
            scalars: ProbeScalars {
                now: SimTime::from_secs_f64(10.0),
                available_tokens: 500,
                batch_slots: 8,
                secs_per_token: 0.001,
                decode_secs_per_token: 0.002,
                prefill_secs_per_token: 0.0001,
                total_token_capacity: 10_000,
                free_kv_bytes: 4096,
                kv_bytes_per_token: 64,
                kv_block_bytes: 1024,
            },
            resident: &resident,
            release,
            fill_release: &releases,
        }
    }

    #[test]
    fn basic_accessors() {
        let rel = ReleaseSchedule::default();
        let p = probe(&rel);
        assert_eq!(p.available_tokens(), 500);
        assert_eq!(p.batch_slots(), 8);
        assert!(p.adapter_resident(AdapterId(1)));
        assert!(!p.adapter_resident(AdapterId(2)));
        assert_eq!(p.total_token_capacity(), 10_000);
    }

    #[test]
    fn exec_estimate_linear() {
        let rel = ReleaseSchedule::default();
        let p = probe(&rel);
        assert_eq!(p.estimate_exec(2000), SimDuration::from_secs(2));
    }

    #[test]
    fn service_estimate_weighs_decode_more() {
        let rel = ReleaseSchedule::default();
        let p = probe(&rel);
        let in_heavy = p.estimate_service(1000, 10);
        let out_heavy = p.estimate_service(10, 1000);
        assert!(out_heavy > in_heavy * 5);
    }

    #[test]
    fn kv_footprints_are_block_rounded() {
        let rel = ReleaseSchedule::default();
        let p = probe(&rel);
        assert_eq!(p.free_kv_bytes(), 4096);
        // 17 tokens × 64 B = 1088 B → 2 × 1024 B blocks.
        assert_eq!(p.kv_bytes_for(17), 2048);
        assert_eq!(p.kv_bytes_for(16), 1024);
        assert_eq!(p.kv_bytes_for(0), 0);
    }

    #[test]
    fn mem_wait_walks_release_schedule() {
        let rel = ReleaseSchedule::default();
        rel.invalidate(SimDuration::from_secs(1));
        let p = probe(&rel);
        assert_eq!(p.estimate_mem_wait(50), SimDuration::from_secs(2));
        assert_eq!(p.estimate_mem_wait(100), SimDuration::from_secs(2));
        assert_eq!(p.estimate_mem_wait(250), SimDuration::from_secs(5));
        assert_eq!(p.estimate_mem_wait(1000), SimDuration::MAX);
        assert_eq!(rel.builds(), 1, "one build serves every estimate");
        rel.invalidate(SimDuration::from_millis(500));
        assert_eq!(p.estimate_mem_wait(250), SimDuration::from_millis(2500));
        assert_eq!(rel.builds(), 2, "an invalidated schedule rebuilds");
    }

    /// The schedule the step-keyed one replaced: each request finishes at
    /// `now + step · remaining`, the entries are sorted by finish, and the
    /// wait runs to the first finish whose cumulative bytes reach `bytes`.
    fn finish_keyed_wait(
        now: SimTime,
        step: SimDuration,
        releases: &[(u64, u64)],
        bytes: u64,
    ) -> SimDuration {
        let mut entries: Vec<(SimTime, u64)> = releases
            .iter()
            .map(|&(remaining, freed)| (now + step.mul_f64(remaining as f64), freed))
            .collect();
        entries.sort_unstable_by_key(|&(t, _)| t);
        let mut acc = 0u64;
        for item in entries.iter_mut() {
            acc += item.1;
            item.1 = acc;
        }
        entries
            .iter()
            .find(|&&(_, freed)| freed >= bytes)
            .map_or(SimDuration::MAX, |&(finish, _)| {
                finish.saturating_since(now)
            })
    }

    /// On generated batches the step-keyed schedule answers every target
    /// exactly as the finish-keyed reference: tied and zero step counts,
    /// steps of 0 ns, 1 ns, 50 ms and an odd length, targets of 0 bytes,
    /// in between, exactly the total, and beyond it (`MAX`).
    #[test]
    fn step_keyed_schedule_matches_the_finish_keyed_reference() {
        let mut state = 0x853c_49e6_748f_ea9bu64;
        let mut below = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let rel = ReleaseSchedule::default();
        let (mut ties, mut zeros, mut unreachable) = (0, 0, 0);
        for step in [
            SimDuration::ZERO,
            SimDuration::from_nanos(1),
            SimDuration::from_millis(50),
            SimDuration::from_nanos(27_318_461),
        ] {
            for _ in 0..400 {
                let now = SimTime::from_nanos(below(1 << 40));
                // A narrow step range makes ties and zeros common.
                let span = [3, 40, 2_000][below(3) as usize];
                let releases: Vec<(u64, u64)> = (0..below(10))
                    .map(|_| (below(span), 1 + below(1 << 30)))
                    .collect();
                let mut steps: Vec<u64> = releases.iter().map(|&(r, _)| r).collect();
                steps.sort_unstable();
                ties += steps.windows(2).any(|w| w[0] == w[1]) as u32;
                zeros += steps.first().is_some_and(|&r| r == 0) as u32;
                let total: u64 = releases.iter().map(|&(_, b)| b).sum();
                rel.invalidate(step);
                for bytes in [0, 1, total / 3, total / 2, total, total + 1, below(1 << 32)] {
                    let want = finish_keyed_wait(now, step, &releases, bytes);
                    unreachable += (want == SimDuration::MAX) as u32;
                    let got = rel.wait(bytes, |out| out.extend_from_slice(&releases));
                    assert_eq!(
                        got, want,
                        "step {step} now {now} {releases:?} target {bytes}"
                    );
                }
            }
        }
        assert!(
            ties > 0 && zeros > 0 && unreachable > 0,
            "{ties} {zeros} {unreachable}"
        );
    }
}
