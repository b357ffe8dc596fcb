//! Barrier/epoch profiling: where a cluster run's wall-clock time goes.
//!
//! The epoch-synchronised cluster alternates coordinator work (dispatch,
//! autoscaling, predictive warms) with engine stepping between barriers.
//! The profile splits the run into the three buckets the ROADMAP's
//! barrier-amortisation work needs a baseline for:
//!
//! * **dispatch** — coordinator wall time outside epoch stepping;
//! * **step** — wall time inside epoch stepping (serial loop or pool);
//! * **barrier wait** — for pool epochs, worker-seconds spent parked at
//!   the barrier: `pool_step_wall × workers − Σ worker busy`.
//!
//! These are wall-clock measurements, so they are host-dependent by
//! design and live **outside** the deterministic trace stream — enabling
//! profiling never perturbs simulation results, and profiles are never
//! byte-compared.

/// Wall-clock breakdown of one cluster run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BarrierProfile {
    /// Worker threads in the pool (0 for serial execution).
    pub workers: usize,
    /// Coordinator epochs executed (barrier-to-barrier rounds).
    pub epochs: u64,
    /// Epochs dispatched to the worker pool (≥2 engines had pending
    /// work); the rest stepped inline on the coordinator thread.
    pub pool_epochs: u64,
    /// Wall nanoseconds of the whole run loop.
    pub run_wall_ns: u64,
    /// Wall nanoseconds inside epoch stepping (inline + pool).
    pub step_wall_ns: u64,
    /// Wall nanoseconds of pool-dispatched epochs only.
    pub pool_step_wall_ns: u64,
    /// Summed per-worker nanoseconds actually spent stepping engines
    /// during pool epochs.
    pub worker_busy_ns: u64,
}

impl BarrierProfile {
    /// Coordinator wall time outside epoch stepping.
    pub fn dispatch_wall_ns(&self) -> u64 {
        self.run_wall_ns.saturating_sub(self.step_wall_ns)
    }

    /// Worker-nanoseconds parked at the epoch barrier (0 for serial runs).
    pub fn barrier_wait_ns(&self) -> u64 {
        (self.pool_step_wall_ns)
            .saturating_mul(self.workers as u64)
            .saturating_sub(self.worker_busy_ns)
    }

    /// Folds another run's profile into this one (sweeps aggregate).
    pub fn merge(&mut self, other: &BarrierProfile) {
        self.workers = self.workers.max(other.workers);
        self.epochs += other.epochs;
        self.pool_epochs += other.pool_epochs;
        self.run_wall_ns += other.run_wall_ns;
        self.step_wall_ns += other.step_wall_ns;
        self.pool_step_wall_ns += other.pool_step_wall_ns;
        self.worker_busy_ns += other.worker_busy_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_and_waits() {
        let p = BarrierProfile {
            workers: 4,
            epochs: 10,
            pool_epochs: 8,
            run_wall_ns: 1_000,
            step_wall_ns: 600,
            pool_step_wall_ns: 500,
            worker_busy_ns: 1_200,
        };
        assert_eq!(p.dispatch_wall_ns(), 400);
        // 500 * 4 workers - 1200 busy = 800 parked.
        assert_eq!(p.barrier_wait_ns(), 800);
    }

    #[test]
    fn zero_profile_is_quiet() {
        let p = BarrierProfile::default();
        assert_eq!(p.barrier_wait_ns(), 0);
        assert_eq!(p.dispatch_wall_ns(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = BarrierProfile {
            workers: 2,
            epochs: 1,
            pool_epochs: 1,
            run_wall_ns: 10,
            step_wall_ns: 5,
            pool_step_wall_ns: 5,
            worker_busy_ns: 8,
        };
        a.merge(&BarrierProfile {
            workers: 4,
            epochs: 2,
            pool_epochs: 0,
            run_wall_ns: 20,
            step_wall_ns: 10,
            pool_step_wall_ns: 0,
            worker_busy_ns: 0,
        });
        assert_eq!(a.workers, 4);
        assert_eq!(a.epochs, 3);
        assert_eq!(a.run_wall_ns, 30);
        assert_eq!(a.step_wall_ns, 15);
    }
}
