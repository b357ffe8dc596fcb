//! The Chameleon multi-level-queue scheduler (§4.3).
//!
//! Requests are classified by WRS into `K` queues (small → large). Each
//! queue holds a resource-token quota assigned by the M/M/1 model of
//! §4.3.5. Batch formation follows Algorithm 1 exactly:
//!
//! * **Phase 1 (initial admission)** — each queue admits from its head up
//!   to its available quota; queues that drain contribute their unused
//!   budget to a spare pool.
//! * **Phase 2 (spare redistribution)** — the spare pool is offered to the
//!   queues again, smallest-request queue first.
//!
//! Within a queue admission is strictly FIFO — except the *opportunistic
//! bypass* of §4.3.3: when the head request cannot be placed because GPU
//! memory for its adapter is unavailable (even after evicting every idle
//! cached adapter), a younger request from the same queue whose adapter is
//! already resident (or small enough to fit) may jump ahead, provided its
//! predicted execution finishes before the head's memory is predicted to
//! free up. The engine squashes the bypasser if the prediction turns out
//! wrong.
//!
//! Every `T_refresh` the scheduler re-derives the number of queues
//! (1-D K-means + elbow over the recent WRS distribution, §4.3.4), the
//! per-queue cut-offs (centroid midpoints) and the quotas.

use crate::kmeans;
use crate::queued::QueuedRequest;
use crate::quota::{assign_quotas, QueueLoad};
use crate::scheduler::{effective_need, AdmissionOutcome, ResourceProbe, Scheduler};
use crate::wrs::WrsConfig;
use chameleon_models::{AdapterId, AdapterStamps};
use chameleon_simcore::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Elbow threshold for choosing K (relative WCSS improvement).
const ELBOW_THRESHOLD: f64 = 0.15;
/// Reconfiguration period `T_refresh` (paper: 5 minutes).
const REFRESH_INTERVAL: SimDuration = SimDuration::from_secs(300);
/// Number of recent arrivals whose WRS is kept for clustering.
const WINDOW: usize = 2048;

/// Configuration of the Chameleon scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct ChameleonConfig {
    /// Maximum number of queues (paper: 4, "to keep queue management
    /// overheads tolerable").
    pub k_max: usize,
    /// The TTFT SLO used in quota assignment (§4.3.5).
    pub slo: SimDuration,
    /// Enables opportunistic bypass (§4.3.3).
    pub enable_bypass: bool,
    /// When false the initial configuration is never re-derived (the
    /// "Static" baseline of §5.4.5 sets this).
    pub dynamic: bool,
    /// Initial cut-offs used before the first reconfiguration.
    pub initial_cutoffs: Vec<f64>,
}

impl ChameleonConfig {
    /// The paper's defaults for a given SLO.
    pub fn paper(slo: SimDuration) -> Self {
        ChameleonConfig {
            k_max: 4,
            slo,
            enable_bypass: true,
            dynamic: true,
            // Seed classification for the warm-up phase; replaced by the
            // first K-means refresh.
            initial_cutoffs: vec![0.08, 0.25],
        }
    }
}

/// The Chameleon multi-level-queue scheduler.
#[derive(Debug)]
pub struct ChameleonScheduler {
    cfg: ChameleonConfig,
    wrs_cfg: WrsConfig,
    queues: Vec<VecDeque<QueuedRequest>>,
    cutoffs: Vec<f64>,
    quotas: Vec<u64>,
    outstanding: Vec<i64>,
    /// Tokens banked for a physically-blocked queue head (§4.3's
    /// no-starvation guarantee): freed memory is reserved for the blocked
    /// head across cycles until it can afford to run.
    banked: Vec<u64>,
    /// Recent arrivals: (time, wrs, token_need, input, predicted output)
    /// for reconfiguration.
    window: VecDeque<(SimTime, f64, u64, u32, u32)>,
    last_refresh: Option<SimTime>,
    refreshes: u64,
    bypass_admissions: u64,
    /// Dedup scratch for [`Scheduler::queued_adapters_into`].
    seen: AdapterStamps,
    /// Reusable WRS-sample buffer for the K-means refresh.
    wrs_scratch: Vec<f64>,
    /// Reusable per-queue physical-token shares for batch formation.
    shares_scratch: Vec<u64>,
    /// Retired queue deques kept for reuse across reconfigurations, so a
    /// refresh storm never reallocates queue storage.
    spare_queues: Vec<VecDeque<QueuedRequest>>,
}

impl ChameleonScheduler {
    /// Creates the scheduler.
    ///
    /// `wrs_cfg` is kept for reporting (the engine computes WRS values when
    /// annotating requests; the scheduler only consumes them).
    pub fn new(cfg: ChameleonConfig, wrs_cfg: WrsConfig) -> Self {
        let cutoffs = cfg.initial_cutoffs.clone();
        let n = cutoffs.len() + 1;
        ChameleonScheduler {
            cfg,
            wrs_cfg,
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            cutoffs,
            quotas: vec![u64::MAX / 4; n],
            outstanding: vec![0; n],
            banked: vec![0; n],
            window: VecDeque::new(),
            last_refresh: None,
            refreshes: 0,
            bypass_admissions: 0,
            seen: AdapterStamps::default(),
            wrs_scratch: Vec::new(),
            shares_scratch: Vec::new(),
            spare_queues: Vec::new(),
        }
    }

    /// The WRS configuration in use.
    pub fn wrs_config(&self) -> &WrsConfig {
        &self.wrs_cfg
    }

    /// Current queue cut-offs (WRS boundaries).
    pub fn cutoffs(&self) -> &[f64] {
        &self.cutoffs
    }

    /// Current per-queue quotas in tokens.
    pub fn quotas(&self) -> &[u64] {
        &self.quotas
    }

    /// Overrides the per-queue quotas (used by the static baseline and by
    /// tests).
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the current queue count.
    pub fn set_quotas(&mut self, quotas: Vec<u64>) {
        assert_eq!(quotas.len(), self.queues.len(), "quota/queue mismatch");
        self.quotas = quotas;
    }

    /// Number of reconfigurations performed.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Number of requests admitted via opportunistic bypass.
    pub fn bypass_admissions(&self) -> u64 {
        self.bypass_admissions
    }

    fn queue_idx(&self, wrs: f64) -> usize {
        kmeans::queue_of(wrs, &self.cutoffs)
    }

    fn available_quota(&self, qi: usize) -> u64 {
        let q = self.quotas[qi] as i64 - self.outstanding[qi];
        q.max(0) as u64
    }

    /// Re-derives queue count, cut-offs and quotas from the recent WRS
    /// window (§4.3.4–5).
    fn reconfigure(&mut self, probe: &dyn ResourceProbe) {
        self.wrs_scratch.clear();
        self.wrs_scratch
            .extend(self.window.iter().map(|&(_, w, ..)| w));
        let Some(clustering) =
            kmeans::choose_queues(&mut self.wrs_scratch, self.cfg.k_max, ELBOW_THRESHOLD)
        else {
            return;
        };
        let new_cutoffs = kmeans::cutoffs(&clustering.centroids);
        let n = new_cutoffs.len() + 1;

        // Estimate per-queue load from the window.
        let now = probe.now();
        let span = self
            .window
            .front()
            .map(|&(t, ..)| now.saturating_since(t).as_secs_f64())
            .unwrap_or(0.0)
            .max(1.0);
        let mut counts = vec![0u64; n];
        let mut token_max = vec![0u64; n];
        let mut input_sums = vec![0u64; n];
        let mut output_sums = vec![0u64; n];
        for &(_, w, tokens, input, output) in &self.window {
            let qi = kmeans::queue_of(w, &new_cutoffs);
            counts[qi] += 1;
            token_max[qi] = token_max[qi].max(tokens);
            input_sums[qi] += u64::from(input);
            output_sums[qi] += u64::from(output);
        }
        let loads: Vec<QueueLoad> = (0..n)
            .map(|qi| {
                let c = counts[qi].max(1);
                QueueLoad {
                    max_tokens: token_max[qi] as f64,
                    mean_service: probe.estimate_service(input_sums[qi] / c, output_sums[qi] / c),
                    arrival_rate: counts[qi] as f64 / span,
                }
            })
            .collect();
        let mut quotas = assign_quotas(&loads, self.cfg.slo, probe.total_token_capacity());
        // Starvation guard: every queue can always hold at least its
        // largest request, so overload scale-down never freezes a lane.
        for (q, load) in quotas.iter_mut().zip(&loads) {
            *q = (*q).max(load.max_tokens.ceil() as u64);
        }

        // Re-bucket the waiting requests under the new cut-offs with a
        // stable partition: each old queue keeps its internal order and
        // old queues are visited small→large, replacing the previous
        // drain-everything + global `sort_by_key` (which re-sorted the
        // entire waiting set — and silently demoted requeued heads, whose
        // enqueue stamp is their requeue time — on every refresh). Queue
        // storage is recycled through `spare_queues`, so a refresh storm
        // performs no per-refresh queue allocation after warm-up.
        let old_queues = std::mem::take(&mut self.queues);
        self.cutoffs = new_cutoffs;
        self.quotas = quotas;
        self.queues = Vec::with_capacity(n);
        for _ in 0..n {
            self.queues
                .push(self.spare_queues.pop().unwrap_or_default());
        }
        // Fold outstanding charges into the new shape (indices clamp).
        let mut outstanding = vec![0i64; n];
        for (qi, &o) in self.outstanding.iter().enumerate() {
            outstanding[qi.min(n - 1)] += o;
        }
        self.outstanding = outstanding;
        self.banked = vec![0; n];
        for mut q in old_queues {
            for r in q.drain(..) {
                let qi = self.queue_idx(r.wrs());
                self.queues[qi].push_back(r);
            }
            self.spare_queues.push(q);
        }
        self.refreshes += 1;
    }

    fn maybe_refresh(&mut self, probe: &dyn ResourceProbe) {
        if !self.cfg.dynamic {
            return;
        }
        let now = probe.now();
        let due = match self.last_refresh {
            // First configuration happens as soon as a modest sample exists.
            None => self.window.len() >= 64,
            Some(at) => now.saturating_since(at) >= REFRESH_INTERVAL,
        };
        if due && !self.window.is_empty() {
            self.reconfigure(probe);
            self.last_refresh = Some(now);
        }
    }

    /// Algorithm 1's `put_batch`: admit from queue `qi`'s head up to
    /// `budget` tokens (and the global physical/slot limits). Returns the
    /// tokens consumed.
    fn put_batch(
        &mut self,
        qi: usize,
        budget: u64,
        physical: &mut u64,
        slots: &mut usize,
        admitted: &mut Vec<AdmissionOutcome>,
        probe: &dyn ResourceProbe,
    ) -> u64 {
        let mut consumed = 0u64;
        loop {
            if *slots == 0 {
                break;
            }
            let Some(head) = self.queues[qi].front() else {
                break;
            };
            let need = effective_need(head, probe);
            if need > budget.saturating_sub(consumed) || need > *physical {
                // The head cannot be placed (quota or GPU memory). §4.3.3:
                // a younger request whose adapter is already resident or
                // small enough to fit may opportunistically bypass it.
                if self.cfg.enable_bypass {
                    self.try_bypass(
                        qi,
                        budget.saturating_sub(consumed),
                        physical,
                        slots,
                        admitted,
                        probe,
                        &mut consumed,
                    );
                }
                break;
            }
            let request = self.queues[qi].pop_front().expect("front checked");
            consumed += need;
            *physical -= need;
            *slots -= 1;
            self.outstanding[qi] += need as i64;
            admitted.push(AdmissionOutcome {
                request,
                queue_index: qi,
                num_queues: self.queues.len(),
                charged_tokens: need,
                bypassed: false,
            });
        }
        consumed
    }

    /// Opportunistic bypass (§4.3.3): the head `R1` of queue `qi` is
    /// memory-blocked; admit a younger `R2` from the same queue if it fits
    /// *and* its predicted execution ends before `R1`'s memory is predicted
    /// to become available.
    #[allow(clippy::too_many_arguments)]
    fn try_bypass(
        &mut self,
        qi: usize,
        budget: u64,
        physical: &mut u64,
        slots: &mut usize,
        admitted: &mut Vec<AdmissionOutcome>,
        probe: &dyn ResourceProbe,
        consumed: &mut u64,
    ) {
        if *slots == 0 {
            return;
        }
        let head_bytes = self.queues[qi]
            .front()
            .expect("bypass requires a blocked head")
            .adapter_bytes();
        // The head's memory wait is priced only once a younger request
        // fits, and at most once: nothing else reads it.
        let mut mem_wait = None;
        let candidate = self.queues[qi].iter().enumerate().skip(1).find(|(_, r)| {
            let need = effective_need(r, probe);
            need <= budget
                && need <= *physical
                && probe
                    .estimate_service(u64::from(r.input_tokens()), u64::from(r.predicted_output()))
                    < *mem_wait.get_or_insert_with(|| probe.estimate_mem_wait(head_bytes))
        });
        let Some((pos, _)) = candidate else {
            return;
        };
        let request = self.queues[qi].remove(pos).expect("position exists");
        let need = effective_need(&request, probe);
        *consumed += need;
        *physical -= need;
        *slots -= 1;
        self.outstanding[qi] += need as i64;
        self.bypass_admissions += 1;
        admitted.push(AdmissionOutcome {
            request,
            queue_index: qi,
            num_queues: self.queues.len(),
            charged_tokens: need,
            bypassed: true,
        });
    }
}

impl Scheduler for ChameleonScheduler {
    fn enqueue(&mut self, req: QueuedRequest) {
        self.window.push_back((
            req.enqueued_at(),
            req.wrs(),
            req.token_need(),
            req.input_tokens(),
            req.predicted_output(),
        ));
        while self.window.len() > WINDOW {
            self.window.pop_front();
        }
        let qi = self.queue_idx(req.wrs());
        self.queues[qi].push_back(req);
    }

    fn requeue_front(&mut self, req: QueuedRequest) {
        let qi = self.queue_idx(req.wrs());
        self.queues[qi].push_front(req);
    }

    fn form_batch_into(&mut self, probe: &dyn ResourceProbe, admitted: &mut Vec<AdmissionOutcome>) {
        self.maybe_refresh(probe);
        if self.queues.iter().all(VecDeque::is_empty) {
            // Both phases would admit nothing, and banking would zero
            // every bank.
            self.banked.fill(0);
            return;
        }
        let mut physical = probe.available_tokens();
        let mut slots = probe.batch_slots();
        // §4.3.5: quotas partition the system's token capacity. Phase 1
        // therefore lets each queue draw only on its *own share* of the
        // currently free physical tokens — otherwise the small-request
        // queue (served first) would consume memory that notionally
        // belongs to the large queue and starve it under overload.
        // Self-healing quota floor: a queued head larger than its queue's
        // entire quota could never run; raise the quota to fit it (§4.3's
        // guarantee that no request starves).
        for qi in 0..self.queues.len() {
            if let Some(head) = self.queues[qi].front() {
                if head.token_need() > self.quotas[qi] {
                    self.quotas[qi] = head.token_need();
                }
            }
        }
        // Tokens banked for blocked heads are spoken for: carve them out of
        // the shared pool before computing shares.
        let total_banked: u64 = self.banked.iter().sum();
        physical = physical.saturating_sub(total_banked);
        let quota_sum: f64 = self.quotas.iter().map(|&q| q as f64).sum::<f64>().max(1.0);
        let mut phys_shares = std::mem::take(&mut self.shares_scratch);
        phys_shares.clear();
        phys_shares.extend(
            self.quotas
                .iter()
                .map(|&q| (physical as f64 * (q as f64 / quota_sum)).floor() as u64),
        );
        // Phase 1: every queue up to its own quota; emptied queues donate.
        let mut leftover: u64 = 0;
        // Index loop is load-bearing: the body calls `&mut self` methods.
        #[allow(clippy::needless_range_loop)]
        for qi in 0..self.queues.len() {
            // The queue's own bank is usable by the queue itself.
            let bank = self.banked[qi];
            physical += bank;
            let budget = self
                .available_quota(qi)
                .min(phys_shares[qi].saturating_add(bank));
            let consumed = self.put_batch(qi, budget, &mut physical, &mut slots, admitted, probe);
            // Whatever part of the bank went unused is withheld again.
            let bank_left = bank.saturating_sub(consumed);
            self.banked[qi] = bank_left;
            physical = physical.saturating_sub(bank_left);
            // Queues "with few or no requests to put" donate their unused
            // budget (Algorithm 1); blocked heads keep their claim through
            // the bank below, so donation stays starvation-safe.
            leftover += budget.saturating_sub(consumed).saturating_sub(bank_left);
        }
        self.shares_scratch = phys_shares;
        // Banking (before spare redistribution): a head still blocked by
        // physical memory — its quota would admit it — reserves free tokens
        // now, accumulating a claim across cycles so overload cannot starve
        // it. Largest-request queues bank first: they wait longest for a
        // window this big to reappear.
        let bank_after = self.cfg.slo.mul_f64(0.25);
        for qi in (0..self.queues.len()).rev() {
            let Some(head) = self.queues[qi].front() else {
                self.banked[qi] = 0;
                continue;
            };
            // Only heads that have already waited a meaningful fraction of
            // the SLO may reserve: transient blocking resolves by itself,
            // and eager reservation would throttle the other queues.
            if head.wait(probe.now()) < bank_after {
                continue;
            }
            let need = effective_need(head, probe);
            if need <= self.available_quota(qi) && need > self.banked[qi] {
                let grab = physical.min(need - self.banked[qi]);
                self.banked[qi] += grab;
                physical -= grab;
            }
        }
        // Phase 2: spare resources, smallest-request queue first.
        for qi in 0..self.queues.len() {
            if leftover == 0 {
                break;
            }
            let consumed = self.put_batch(qi, leftover, &mut physical, &mut slots, admitted, probe);
            leftover -= consumed;
        }
    }

    fn on_finish(&mut self, queue_index: usize, charged_tokens: u64) {
        let qi = queue_index.min(self.outstanding.len() - 1);
        self.outstanding[qi] -= charged_tokens as i64;
    }

    fn queued_adapters_into(&mut self, out: &mut Vec<AdapterId>) {
        self.seen.clear();
        for q in &self.queues {
            for r in q {
                if self.seen.insert(r.adapter()) {
                    out.push(r.adapter());
                }
            }
        }
    }

    fn drain_queued_into(&mut self, out: &mut Vec<QueuedRequest>) {
        for q in &mut self.queues {
            out.extend(q.drain(..));
        }
    }

    fn len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    fn on_refresh(&mut self, probe: &dyn ResourceProbe) {
        if self.cfg.dynamic && !self.window.is_empty() {
            self.reconfigure(probe);
            self.last_refresh = Some(probe.now());
        }
    }

    fn queue_index_for(&self, wrs: f64) -> usize {
        self.queue_idx(wrs)
    }

    fn num_queues(&self) -> usize {
        self.queues.len()
    }

    fn name(&self) -> &'static str {
        "chameleon-mlq"
    }

    fn debug_state(&self) -> String {
        format!(
            "cutoffs={:?} quotas={:?} outstanding={:?} banked={:?} lens={:?}",
            self.cutoffs,
            self.quotas,
            self.outstanding,
            self.banked,
            self.queues.iter().map(|q| q.len()).collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::StaticProbe;
    use chameleon_models::AdapterRank;
    use chameleon_workload::{Request, RequestId};

    fn wrs_cfg() -> WrsConfig {
        WrsConfig::paper(2048.0, 1024.0, (256 << 20) as f64)
    }

    fn cfg() -> ChameleonConfig {
        ChameleonConfig::paper(SimDuration::from_secs(5))
    }

    fn sched() -> ChameleonScheduler {
        ChameleonScheduler::new(cfg(), wrs_cfg())
    }

    /// Queued request with explicit WRS and token need.
    fn queued(id: u64, wrs: f64, tokens: u64, adapter: u32) -> QueuedRequest {
        let input = (tokens / 2).max(1) as u32;
        let predicted = (tokens - u64::from(input)) as u32;
        let r = Request::new(
            RequestId(id),
            SimTime::ZERO,
            input,
            predicted.max(1),
            AdapterId(adapter),
            AdapterRank::new(8),
        );
        QueuedRequest::new(r, predicted, 16 << 20, 0, wrs, SimTime::ZERO)
    }

    #[test]
    fn classifies_by_wrs_into_queues() {
        let mut s = sched();
        s.enqueue(queued(0, 0.01, 100, 0)); // below 0.08 → queue 0
        s.enqueue(queued(1, 0.1, 100, 1)); // between → queue 1
        s.enqueue(queued(2, 0.9, 100, 2)); // above 0.25 → queue 2
        assert_eq!(s.num_queues(), 3);
        assert_eq!(s.queue_index_for(0.01), 0);
        assert_eq!(s.queue_index_for(0.1), 1);
        assert_eq!(s.queue_index_for(0.9), 2);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn all_queues_admit_each_cycle_no_starvation() {
        let mut s = sched();
        // Many small requests plus one large: with FIFO the large one could
        // be starved; Chameleon admits from every queue.
        for i in 0..10 {
            s.enqueue(queued(i, 0.01, 100, i as u32));
        }
        s.enqueue(queued(99, 0.9, 500, 99));
        let out = s.form_batch(&StaticProbe::default());
        let ids: Vec<u64> = out.iter().map(|o| o.request.id().0).collect();
        assert!(ids.contains(&99), "large request admitted alongside small");
        assert_eq!(out.len(), 11);
    }

    #[test]
    fn small_queue_admits_first() {
        let mut s = sched();
        s.enqueue(queued(1, 0.9, 100, 1));
        s.enqueue(queued(0, 0.01, 100, 0));
        let out = s.form_batch(&StaticProbe::default());
        assert_eq!(out[0].request.id().0, 0, "small lane goes first");
        assert_eq!(out[0].queue_index, 0);
        assert_eq!(out[1].queue_index, 2);
    }

    #[test]
    fn quota_limits_queue_but_spare_redistributes() {
        let mut s = sched();
        // Force tiny quotas for queue 0 and large for others.
        s.quotas = vec![150, 1_000, 1_000];
        // Queue 0 has three 100-token requests: quota admits one.
        for i in 0..3 {
            s.enqueue(queued(i, 0.01, 100, i as u32));
        }
        let out = s.form_batch(&StaticProbe::default());
        // Phase 1: one admitted (100 ≤ 150 but 200 > 150). Queues 1 and 2
        // are empty → donate 2000 spare. Phase 2: the rest admit on spare.
        assert_eq!(out.len(), 3, "spare resources rescued the rest");
        // Outstanding charged to the queue either way.
        assert_eq!(s.outstanding[0], 300);
    }

    #[test]
    fn no_spare_when_queues_nonempty() {
        let mut s = sched();
        s.quotas = vec![150, 1_000, 150];
        for i in 0..3 {
            s.enqueue(queued(i, 0.01, 100, i as u32));
        }
        // Queue 2 also has backlog — but ITS quota is too small for two.
        for i in 10..13 {
            s.enqueue(queued(i, 0.9, 100, i as u32));
        }
        let out = s.form_batch(&StaticProbe::default());
        // Queue 0: 1 admitted (quota); queue 1 empty donates 1000;
        // queue 2: 1 admitted (quota). Phase 2: spare 1000 admits the
        // remaining 2 + 2.
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn on_finish_returns_quota() {
        let mut s = sched();
        s.quotas = vec![100, 1_000, 1_000];
        s.enqueue(queued(0, 0.01, 100, 0));
        let out = s.form_batch(&StaticProbe::default());
        assert_eq!(out.len(), 1);
        assert_eq!(s.available_quota(0), 0);
        s.on_finish(out[0].queue_index, out[0].charged_tokens);
        assert_eq!(s.available_quota(0), 100);
    }

    #[test]
    fn physical_memory_caps_all_quotas() {
        let mut s = sched();
        for i in 0..5 {
            s.enqueue(queued(i, 0.01, 100, i as u32));
        }
        let probe = StaticProbe {
            available_tokens: 250,
            ..StaticProbe::default()
        };
        // No single cycle may admit beyond the physical pool, and the
        // backlog drains within a few cycles thanks to spare
        // redistribution plus head banking.
        let mut total = 0;
        for _ in 0..8 {
            let out = s.form_batch(&probe);
            let charged: u64 = out.iter().map(|o| o.charged_tokens).sum();
            assert!(charged <= 250, "cycle exceeded physical: {charged}");
            for o in &out {
                s.on_finish(o.queue_index, o.charged_tokens);
            }
            total += out.len();
        }
        assert_eq!(total, 5, "all requests eventually admitted");
    }

    #[test]
    fn bypass_admits_resident_adapter_when_head_blocked() {
        let mut s = sched();
        // Head needs 200 physical tokens; only 150 available. The younger
        // request's adapter is resident and needs 100.
        let head = {
            let r = Request::new(
                RequestId(0),
                SimTime::ZERO,
                100,
                100,
                AdapterId(0),
                AdapterRank::new(64),
            );
            QueuedRequest::new(r, 100, 128 << 20, 64, 0.01, SimTime::ZERO)
        };
        let young = {
            let r = Request::new(
                RequestId(1),
                SimTime::ZERO,
                50,
                50,
                AdapterId(1),
                AdapterRank::new(8),
            );
            QueuedRequest::new(r, 50, 16 << 20, 32, 0.01, SimTime::ZERO)
        };
        s.enqueue(head);
        s.enqueue(young);
        s.set_quotas(vec![10_000, 1, 1]); // queue 0 owns ~all physical share
        let probe = StaticProbe {
            available_tokens: 150,
            resident: vec![AdapterId(1)],
            // Memory frees in 10 s; R2 executes quickly.
            mem_wait: SimDuration::from_secs(10),
            exec_secs_per_kilotoken: 1.0,
            ..StaticProbe::default()
        };
        let out = s.form_batch(&probe);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].request.id().0, 1);
        assert!(out[0].bypassed);
        assert_eq!(s.bypass_admissions(), 1);
        assert_eq!(s.len(), 1, "head still waiting");
    }

    #[test]
    fn bypass_denied_when_execution_outlasts_memory_wait() {
        let mut s = sched();
        let head = {
            let r = Request::new(
                RequestId(0),
                SimTime::ZERO,
                100,
                100,
                AdapterId(0),
                AdapterRank::new(64),
            );
            QueuedRequest::new(r, 100, 128 << 20, 64, 0.01, SimTime::ZERO)
        };
        let young = {
            let r = Request::new(
                RequestId(1),
                SimTime::ZERO,
                50,
                50,
                AdapterId(1),
                AdapterRank::new(8),
            );
            QueuedRequest::new(r, 50, 16 << 20, 32, 0.01, SimTime::ZERO)
        };
        s.enqueue(head);
        s.enqueue(young);
        s.set_quotas(vec![10_000, 1, 1]);
        let probe = StaticProbe {
            available_tokens: 150,
            resident: vec![AdapterId(1)],
            // Memory frees almost immediately: bypass would be wasteful.
            mem_wait: SimDuration::from_millis(1),
            exec_secs_per_kilotoken: 1.0,
            ..StaticProbe::default()
        };
        assert!(s.form_batch(&probe).is_empty());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn bypass_disabled_by_config() {
        let mut c = cfg();
        c.enable_bypass = false;
        let mut s = ChameleonScheduler::new(c, wrs_cfg());
        let head = {
            let r = Request::new(
                RequestId(0),
                SimTime::ZERO,
                100,
                100,
                AdapterId(0),
                AdapterRank::new(64),
            );
            QueuedRequest::new(r, 100, 128 << 20, 64, 0.01, SimTime::ZERO)
        };
        let young = {
            let r = Request::new(
                RequestId(1),
                SimTime::ZERO,
                50,
                50,
                AdapterId(1),
                AdapterRank::new(8),
            );
            QueuedRequest::new(r, 50, 16 << 20, 32, 0.01, SimTime::ZERO)
        };
        s.enqueue(head);
        s.enqueue(young);
        s.set_quotas(vec![10_000, 1, 1]);
        let probe = StaticProbe {
            available_tokens: 150,
            resident: vec![AdapterId(1)],
            ..StaticProbe::default()
        };
        assert!(s.form_batch(&probe).is_empty());
    }

    /// A [`StaticProbe`] that counts memory-wait estimates.
    struct CountingProbe {
        inner: StaticProbe,
        mem_waits: std::cell::Cell<u32>,
    }

    impl CountingProbe {
        fn new(inner: StaticProbe) -> Self {
            CountingProbe {
                inner,
                mem_waits: std::cell::Cell::new(0),
            }
        }
    }

    impl ResourceProbe for CountingProbe {
        fn now(&self) -> SimTime {
            self.inner.now()
        }
        fn available_tokens(&self) -> u64 {
            self.inner.available_tokens()
        }
        fn batch_slots(&self) -> usize {
            self.inner.batch_slots()
        }
        fn adapter_resident(&self, id: AdapterId) -> bool {
            self.inner.adapter_resident(id)
        }
        fn estimate_exec(&self, tokens: u64) -> SimDuration {
            self.inner.estimate_exec(tokens)
        }
        fn estimate_service(&self, input_tokens: u64, output_tokens: u64) -> SimDuration {
            self.inner.estimate_service(input_tokens, output_tokens)
        }
        fn estimate_mem_wait(&self, bytes: u64) -> SimDuration {
            self.mem_waits.set(self.mem_waits.get() + 1);
            self.inner.estimate_mem_wait(bytes)
        }
        fn total_token_capacity(&self) -> u64 {
            self.inner.total_token_capacity()
        }
    }

    /// Request `id` of `input + output` tokens on `adapter`, whose weights
    /// count as `adapter_tokens` when not resident.
    fn sized(id: u64, tokens: u32, adapter: u32, adapter_tokens: u64) -> QueuedRequest {
        let r = Request::new(
            RequestId(id),
            SimTime::ZERO,
            tokens,
            tokens,
            AdapterId(adapter),
            AdapterRank::new(8),
        );
        QueuedRequest::new(r, tokens, 128 << 20, adapter_tokens, 0.01, SimTime::ZERO)
    }

    /// The memory wait is priced only when a younger request passes the
    /// budget and physical checks, and then once per bypass attempt; the
    /// admissions are those of an uncounted probe.
    #[test]
    fn bypass_prices_the_memory_wait_only_for_a_fitting_candidate() {
        let probe = |resident: Vec<AdapterId>| StaticProbe {
            available_tokens: 150,
            resident,
            mem_wait: SimDuration::from_secs(10),
            ..StaticProbe::default()
        };
        let run = |requests: &[QueuedRequest], probe: &dyn ResourceProbe| {
            let mut s = sched();
            for r in requests {
                s.enqueue(r.clone());
            }
            s.set_quotas(vec![10_000, 1, 1]);
            let out = s.form_batch(probe);
            out.iter()
                .map(|o| (o.request.id().0, o.bypassed))
                .collect::<Vec<_>>()
        };
        // The head needs 264 tokens of the 150 free.
        let head = sized(0, 100, 0, 64);
        // Nobody behind the head; then a younger request that needs 164
        // tokens, or 100 with its adapter resident.
        for (requests, resident, calls, admitted) in [
            (vec![head.clone()], vec![], 0, vec![]),
            (vec![head.clone(), sized(1, 50, 1, 64)], vec![], 0, vec![]),
            (
                vec![head.clone(), sized(1, 50, 1, 64)],
                vec![AdapterId(1)],
                1,
                vec![(1, true)],
            ),
        ] {
            let counting = CountingProbe::new(probe(resident.clone()));
            let out = run(&requests, &counting);
            assert_eq!(out, admitted);
            assert_eq!(out, run(&requests, &probe(resident)));
            assert_eq!(counting.mem_waits.get(), calls, "{} queued", requests.len());
        }
    }

    /// With every queue empty, a batch admits nothing and zeroes every
    /// bank, and a refresh that is due still runs.
    #[test]
    fn empty_queues_zero_the_banks_and_still_refresh() {
        let mut s = sched();
        for i in 0..100 {
            s.enqueue(queued(i, (i % 10) as f64 / 10.0, 100, i as u32));
        }
        assert_eq!(s.form_batch(&StaticProbe::default()).len(), 100);
        assert_eq!(s.refreshes(), 1);
        assert!(s.is_empty());
        let at = |secs| StaticProbe {
            now: SimTime::from_secs_f64(secs),
            ..StaticProbe::default()
        };
        s.banked.fill(7);
        assert!(s.form_batch(&at(1.0)).is_empty());
        assert!(s.banked.iter().all(|&b| b == 0), "{:?}", s.banked);
        assert_eq!(s.refreshes(), 1, "no refresh is due yet");
        assert!(s.form_batch(&at(301.0)).is_empty());
        assert_eq!(s.refreshes(), 2, "the due refresh ran");
    }

    #[test]
    fn refresh_reconfigures_queues_from_window() {
        let mut s = sched();
        // Three well-separated WRS populations.
        let mut id = 0;
        for _ in 0..40 {
            for &(w, t) in &[(0.05, 60u64), (0.4, 300u64), (0.95, 900u64)] {
                s.enqueue(queued(id, w, t, (id % 50) as u32));
                id += 1;
            }
        }
        let probe = StaticProbe {
            total_capacity: 100_000,
            ..StaticProbe::default()
        };
        s.on_refresh(&probe);
        assert_eq!(s.refreshes(), 1);
        assert_eq!(s.num_queues(), 3, "cutoffs: {:?}", s.cutoffs());
        // Boundaries separate the populations.
        assert!(s.queue_index_for(0.05) == 0);
        assert!(s.queue_index_for(0.4) == 1);
        assert!(s.queue_index_for(0.95) == 2);
        // Quotas assigned within capacity.
        let total: u64 = s.quotas().iter().sum();
        assert!(total <= 100_000);
        assert!(s.quotas().iter().all(|&q| q > 0));
        // All 120 requests survived re-bucketing.
        assert_eq!(s.len(), 120);
    }

    #[test]
    fn static_variant_never_reconfigures() {
        let mut c = cfg();
        c.dynamic = false;
        let mut s = ChameleonScheduler::new(c, wrs_cfg());
        for i in 0..200 {
            s.enqueue(queued(i, (i % 100) as f64 / 100.0, 100, (i % 10) as u32));
        }
        let probe = StaticProbe::default();
        let _ = s.form_batch(&probe);
        s.on_refresh(&probe);
        assert_eq!(s.refreshes(), 0);
        assert_eq!(s.cutoffs(), &[0.08, 0.25]);
    }

    #[test]
    fn conservation_no_request_lost_or_duplicated() {
        let mut s = sched();
        let n = 300;
        for i in 0..n {
            s.enqueue(queued(
                i,
                (i % 97) as f64 / 97.0,
                50 + (i % 200),
                (i % 30) as u32,
            ));
        }
        let mut seen = std::collections::HashSet::new();
        let probe = StaticProbe {
            available_tokens: 2_000,
            batch_slots: 7,
            ..StaticProbe::default()
        };
        let mut guard = 0;
        while s.len() > 0 {
            let out = s.form_batch(&probe);
            for o in &out {
                assert!(seen.insert(o.request.id()), "duplicate admission");
                s.on_finish(o.queue_index, o.charged_tokens);
            }
            guard += 1;
            assert!(guard < 10_000, "no progress");
        }
        assert_eq!(seen.len(), n as usize);
    }

    #[test]
    fn queued_adapters_ordered_small_queue_first() {
        let mut s = sched();
        s.enqueue(queued(0, 0.9, 100, 42)); // large queue
        s.enqueue(queued(1, 0.01, 100, 7)); // small queue
        let adapters = s.queued_adapters();
        assert_eq!(adapters, vec![AdapterId(7), AdapterId(42)]);
    }
}
