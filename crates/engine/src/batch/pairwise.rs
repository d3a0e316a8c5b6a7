//! The per-pair configuration-space engine (the seed's `BatchSimulation`).
//!
//! Draws a collision-free batch length, then samples and applies every
//! interaction of the batch individually: two linear-scan state draws and
//! one transition per interaction — `Θ(S)` work per interaction. Retained
//! as the semantic reference implementation: the multinomial engine
//! ([`crate::batch::BatchSimulation`]) must match its observable
//! distributions (see `tests/engine_equivalence.rs`), and the criterion
//! benches report the speedup against it.

use std::sync::Arc;

use rand::Rng;
use rand::SeedableRng;

use crate::batch::birthday::draw_batch_len_walk;
use crate::batch::multinomial::poisson;
use crate::batch::TableProtocol;
use crate::churn::ChurnProcess;
use crate::fault::{
    resolve_forgery, strike_counts, Adversary, ChurnTarget, FaultPlan, FaultRecord, LieTarget,
    OpinionCensus, Scheduler,
};
use crate::protocol::SimRng;
use crate::result::{ChurnSample, RunNote, RunOptions, RunResult, RunStatus};

/// A configuration-space simulation applying batch interactions one pair at
/// a time.
#[derive(Debug, Clone)]
pub struct PairwiseBatchSimulation<P: TableProtocol> {
    protocol: P,
    counts: Vec<u64>,
    n: u64,
    rng: SimRng,
    interactions: u64,
    /// Parallel time accumulated before `interactions_base` — non-zero only
    /// after churn changed the population size.
    time_base: f64,
    /// Interactions already folded into `time_base`.
    interactions_base: u64,
    scheduler: Option<Arc<dyn Scheduler>>,
    /// Adversary snapshot: `(lie probability, what liars report)`.
    lie: Option<(f64, LieTarget)>,
    /// Retained only for *adaptive* adversaries, whose `lie` snapshot is
    /// re-aimed at the live census before every batch.
    adversary: Option<Arc<dyn Adversary>>,
    scheduler_saturated: bool,
}

impl<P: TableProtocol> PairwiseBatchSimulation<P> {
    /// Create a simulation from per-state counts.
    ///
    /// # Panics
    ///
    /// Panics if the population has fewer than two agents or `counts` does
    /// not match the protocol's state space.
    pub fn new(protocol: P, counts: Vec<u64>, seed: u64) -> Self {
        assert_eq!(
            counts.len(),
            protocol.states(),
            "counts must cover the state space"
        );
        let n: u64 = counts.iter().sum();
        assert!(n >= 2, "population must contain at least two agents");
        Self {
            protocol,
            counts,
            n,
            rng: SimRng::seed_from_u64(seed),
            interactions: 0,
            time_base: 0.0,
            interactions_base: 0,
            scheduler: None,
            lie: None,
            adversary: None,
            scheduler_saturated: false,
        }
    }

    /// Replace the uniform pair scheduler with an adversarial one.
    pub fn set_scheduler(&mut self, scheduler: Arc<dyn Scheduler>) {
        self.scheduler = Some(scheduler);
    }

    /// Accepted and ignored, as on
    /// [`BatchSimulation::set_threads`](crate::BatchSimulation::set_threads):
    /// the pairwise reference engine applies every interaction against the
    /// *live* configuration, so its batches are inherently sequential.
    pub fn set_threads(&mut self, threads: usize) {
        let _ = threads;
    }

    /// Install a Byzantine interaction adversary. The honest path (and its
    /// RNG stream) is untouched when none is set. A fixed forged opinion
    /// with no state in this protocol's table degrades to honesty.
    pub fn set_adversary(&mut self, adversary: Arc<dyn Adversary>) {
        let frac = adversary.lie_frac();
        if frac <= 0.0 {
            return;
        }
        if adversary.adaptive() {
            self.adversary = Some(adversary);
            self.refresh_lie();
        } else {
            self.lie =
                resolve_forgery(&self.protocol, adversary.forgery(&OpinionCensus::default()))
                    .map(|t| (frac, t));
        }
    }

    /// The live opinion tally in `O(S)`, for adaptive forgeries and
    /// targeted churn.
    fn opinion_census(&self) -> OpinionCensus {
        OpinionCensus::from_tallies(
            self.counts
                .iter()
                .enumerate()
                .filter_map(|(s, &c)| self.protocol.opinion(s).map(|op| (op, c))),
        )
    }

    /// Re-aim an adaptive adversary's lie snapshot at the live census once
    /// per batch. Draws no randomness; a no-op when no adaptive adversary
    /// is installed.
    fn refresh_lie(&mut self) {
        let Some(adv) = self.adversary.clone() else {
            return;
        };
        self.lie = resolve_forgery(&self.protocol, adv.forgery(&self.opinion_census()))
            .map(|t| (adv.lie_frac(), t));
    }

    /// Build the configuration from per-agent states.
    pub fn from_agents(protocol: P, agents: &[usize], seed: u64) -> Self {
        let mut counts = vec![0u64; protocol.states()];
        for &s in agents {
            counts[s] += 1;
        }
        Self::new(protocol, counts, seed)
    }

    /// Current configuration.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Population size.
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// Interactions simulated so far.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Parallel time elapsed: interactions divided by the population size,
    /// folded over population changes (churn) so the clock stays
    /// continuous.
    pub fn parallel_time(&self) -> f64 {
        self.time_base + (self.interactions - self.interactions_base) as f64 / self.n as f64
    }

    /// The raw RNG state, for checkpointing.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// The clock's checkpoint triple: `(interactions, interactions_base,
    /// time_base)`.
    pub fn clock_parts(&self) -> (u64, u64, f64) {
        (self.interactions, self.interactions_base, self.time_base)
    }

    /// Restore RNG and clock from a checkpoint, making subsequent batches
    /// replay the checkpointed run's stream exactly.
    pub fn restore_clock(
        &mut self,
        interactions: u64,
        interactions_base: u64,
        time_base: f64,
        rng: [u64; 4],
    ) {
        self.interactions = interactions;
        self.interactions_base = interactions_base;
        self.time_base = time_base;
        self.rng = SimRng::from_state(rng);
    }

    /// Fold the elapsed clock into `time_base`; must be called *before*
    /// the population size changes.
    fn fold_clock(&mut self) {
        self.time_base = self.parallel_time();
        self.interactions_base = self.interactions;
    }

    /// Sample one state weighted by the current counts (linear scan — the
    /// seed behaviour this engine preserves).
    fn sample_state(&mut self) -> usize {
        let mut target = self.rng.gen_range(0..self.n);
        for (s, &c) in self.counts.iter().enumerate() {
            if target < c {
                return s;
            }
            target -= c;
        }
        unreachable!("counts sum to n")
    }

    /// One weighted state draw under a scheduler (linear scan over
    /// `counts · opinion_weight`); degrades to the uniform draw when every
    /// weight is zero.
    fn sample_state_weighted(&mut self, sched: &dyn Scheduler) -> usize {
        let weight = |protocol: &P, s: usize, c: u64| {
            c as f64 * sched.opinion_weight(protocol.opinion(s)).clamp(0.0, 1.0)
        };
        let total: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(s, &c)| weight(&self.protocol, s, c))
            .sum();
        if total <= 0.0 {
            self.scheduler_saturated = true;
            return self.sample_state();
        }
        let mut target = self.rng.gen::<f64>() * total;
        let last = self
            .counts
            .iter()
            .rposition(|&c| c > 0)
            .expect("population is non-empty");
        for s in 0..self.counts.len() {
            target -= weight(&self.protocol, s, self.counts[s]);
            if target < 0.0 {
                return s;
            }
        }
        last // float residue: land on the last occupied state
    }

    /// One draw from the opinion class `want`, by raw counts; `None` when
    /// the class is empty.
    fn sample_state_in_class(&mut self, want: Option<u32>) -> Option<usize> {
        let total: u64 = self
            .counts
            .iter()
            .enumerate()
            .filter(|&(s, _)| self.protocol.opinion(s) == want)
            .map(|(_, &c)| c)
            .sum();
        if total == 0 {
            return None;
        }
        let mut target = self.rng.gen_range(0..total);
        for s in 0..self.counts.len() {
            if self.protocol.opinion(s) != want {
                continue;
            }
            if target < self.counts[s] {
                return Some(s);
            }
            target -= self.counts[s];
        }
        unreachable!("class counts sum to total")
    }

    /// Apply `len` interactions one pair at a time, honoring the scheduler
    /// if one is set.
    fn apply_len(&mut self, len: u64) {
        self.refresh_lie();
        let sched = self.scheduler.clone();
        let assort = sched
            .as_deref()
            .map_or(0.0, |s| s.assortativity().clamp(0.0, 1.0));
        for _ in 0..len {
            let (a, mut b) = match sched.as_deref() {
                None => (self.sample_state(), self.sample_state()),
                Some(s) => {
                    let a = self.sample_state_weighted(s);
                    let b = if assort > 0.0 && self.rng.gen_bool(assort) {
                        let want = self.protocol.opinion(a);
                        self.sample_state_in_class(want)
                            .unwrap_or_else(|| self.sample_state_weighted(s))
                    } else {
                        self.sample_state_weighted(s)
                    };
                    (a, b)
                }
            };
            // A same-state draw is fine (two distinct agents can share a
            // state) unless the state holds a single agent: then `a` and
            // `b` would be the *same* agent, which the sequential model
            // never pairs. Redraw — some other state is occupied (n ≥ 2).
            while b == a && self.counts[a] < 2 {
                b = self.sample_state();
            }
            let (a2, b2) = match self.lie {
                None => self.protocol.delta(a, b, &mut self.rng),
                Some((frac, forged)) => self.byzantine_delta(a, b, frac, forged),
            };
            if (a2, b2) == (a, b) {
                continue;
            }
            self.counts[a] -= 1;
            self.counts[b] -= 1;
            self.counts[a2] += 1;
            self.counts[b2] += 1;
        }
        self.interactions += len;
    }

    /// One interaction under the Byzantine adversary snapshot: each
    /// participant independently lies with probability `frac`; a liar
    /// shows the forged state and keeps its own, the honest partner
    /// transitions against the forgery, and both lying is a no-op.
    fn byzantine_delta(
        &mut self,
        a: usize,
        b: usize,
        frac: f64,
        forged: LieTarget,
    ) -> (usize, usize) {
        let a_lies = self.rng.gen_bool(frac);
        let b_lies = self.rng.gen_bool(frac);
        let forge = |rng: &mut SimRng, states: usize| match forged {
            LieTarget::Fixed(f) => f,
            LieTarget::Pair(x, y) => {
                if rng.gen_bool(0.5) {
                    x
                } else {
                    y
                }
            }
            LieTarget::Random => rng.gen_range(0..states),
        };
        let states = self.counts.len();
        match (a_lies, b_lies) {
            (true, true) => (a, b),
            (true, false) => {
                let f = forge(&mut self.rng, states);
                let (_, b2) = self.protocol.delta(f, b, &mut self.rng);
                (a, b2)
            }
            (false, true) => {
                let f = forge(&mut self.rng, states);
                let (a2, _) = self.protocol.delta(a, f, &mut self.rng);
                (a2, b)
            }
            (false, false) => self.protocol.delta(a, b, &mut self.rng),
        }
    }

    /// Advance one collision-free batch; returns the number of interactions
    /// applied.
    pub fn step_batch(&mut self) -> u64 {
        let len = draw_batch_len_walk(&mut self.rng, self.n);
        self.apply_len(len);
        len
    }

    /// Run until convergence or budget exhaustion.
    pub fn run(&mut self, opts: &RunOptions) -> RunResult {
        loop {
            if let Some(output) = self.protocol.output(&self.counts) {
                return self.finish(RunStatus::Converged, Some(output));
            }
            if self.interactions >= opts.max_interactions {
                return self.finish(RunStatus::Exhausted, None);
            }
            self.step_batch();
        }
    }

    /// Run under a fault plan — the per-pair analogue of
    /// [`BatchSimulation::run_faulted`](crate::BatchSimulation::run_faulted):
    /// batches are truncated to land exactly on each fault epoch and
    /// strikes apply to the census between batches. An empty plan replays
    /// [`run`](Self::run) exactly.
    pub fn run_faulted(&mut self, opts: &RunOptions, plan: &FaultPlan) -> RunResult {
        if plan.is_empty() {
            return self.run(opts);
        }
        let initial = self.counts.clone();
        let mut records: Vec<FaultRecord> = Vec::new();
        let mut open: Option<usize> = None;

        for (at, action, label) in plan.schedule() {
            let target = (at.max(0.0) * self.n as f64).ceil() as u64;
            if target > opts.max_interactions {
                break; // scheduled beyond the budget: never fires
            }
            while self.interactions < target {
                if let (Some(k), Some(output)) = (open, self.protocol.output(&self.counts)) {
                    records[k].recovery_time = self.parallel_time() - records[k].at;
                    records[k].output_after = Some(output);
                    open = None;
                }
                let len =
                    draw_batch_len_walk(&mut self.rng, self.n).min(target - self.interactions);
                self.apply_len(len);
            }
            let output_before = self.protocol.output(&self.counts);
            if let (Some(k), Some(output)) = (open, output_before) {
                records[k].recovery_time = self.parallel_time() - records[k].at;
                records[k].output_after = Some(output);
            }
            strike_counts(
                &self.protocol,
                &mut self.counts,
                &initial,
                &action,
                &mut self.rng,
            );
            records.push(FaultRecord {
                at: self.parallel_time(),
                hook: label,
                output_before,
                output_after: None,
                recovery_time: f64::NAN,
            });
            open = Some(records.len() - 1);
        }

        loop {
            if let Some(output) = self.protocol.output(&self.counts) {
                if let Some(k) = open.take() {
                    records[k].recovery_time = self.parallel_time() - records[k].at;
                    records[k].output_after = Some(output);
                }
                let mut r = self.finish(RunStatus::Converged, Some(output));
                r.faults = records;
                return r;
            }
            if self.interactions >= opts.max_interactions {
                let mut r = self.finish(RunStatus::Exhausted, None);
                r.faults = records;
                return r;
            }
            self.step_batch();
        }
    }

    /// Run under a steady-state churn process until `stop_at` parallel
    /// time — the per-pair analogue of
    /// [`BatchSimulation::run_churned`](crate::BatchSimulation::run_churned):
    /// Poisson joins (from the `initial` distribution) and leaves (one
    /// live-count draw each, never below two agents) after every batch,
    /// with a [`ChurnSample`] at each crossing of the sampling period.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty or does not cover the state space.
    pub fn run_churned(
        &mut self,
        opts: &RunOptions,
        churn: &ChurnProcess,
        initial: &[u64],
        stop_at: f64,
    ) -> RunResult {
        assert_eq!(
            initial.len(),
            self.counts.len(),
            "join distribution must cover the state space"
        );
        let initial_total: u64 = initial.iter().sum();
        assert!(initial_total > 0, "churn needs a join distribution");
        let mut next_mark = churn.next_mark(self.parallel_time());
        let mut series: Vec<ChurnSample> = Vec::new();
        while self.parallel_time() < stop_at && self.interactions < opts.max_interactions {
            let len = draw_batch_len_walk(&mut self.rng, self.n)
                .min(opts.max_interactions - self.interactions);
            self.apply_len(len);
            self.apply_churn_events(churn, initial, initial_total, len);
            let clock = self.parallel_time();
            if clock >= next_mark {
                series.push(self.churn_sample());
                next_mark = churn.next_mark(clock);
            }
        }
        let output = self.protocol.output(&self.counts);
        let status = if output.is_some() {
            RunStatus::Converged
        } else {
            RunStatus::Exhausted
        };
        let mut r = self.finish(status, output);
        r.series = series;
        r
    }

    /// Poisson join/leave events covering a batch of `len` interactions,
    /// applied one draw at a time against the live counts (the per-pair
    /// idiom of this engine). The clock folds before the population
    /// changes; leaves keep at least two agents.
    fn apply_churn_events(
        &mut self,
        churn: &ChurnProcess,
        initial: &[u64],
        initial_total: u64,
        len: u64,
    ) {
        let spec = churn.spec();
        let joins = poisson(&mut self.rng, spec.join * len as f64);
        let leaves = poisson(&mut self.rng, spec.leave * len as f64).min(self.n - 2);
        if joins == 0 && leaves == 0 {
            return;
        }
        self.fold_clock();
        // Uniform-target departures keep the exact per-draw RNG sequence
        // from before targeting existed; targeted departures draw from the
        // census-chosen opinion class, falling back to a uniform draw when
        // the class runs dry.
        let want = match spec.target {
            ChurnTarget::Uniform => None,
            ChurnTarget::Plurality => self.opinion_census().leader(),
            ChurnTarget::Minority => self.opinion_census().weakest(),
        };
        for _ in 0..leaves {
            let victim = match want {
                None => self.sample_state(),
                Some(op) => self
                    .sample_state_in_class(Some(op))
                    .unwrap_or_else(|| self.sample_state()),
            };
            self.counts[victim] -= 1;
            self.n -= 1;
        }
        for _ in 0..joins {
            let mut target = self.rng.gen_range(0..initial_total);
            for (s, &c) in initial.iter().enumerate() {
                if target < c {
                    self.counts[s] += 1;
                    break;
                }
                target -= c;
            }
            self.n += 1;
        }
    }

    /// The health sample `run_churned` records at each sampling mark.
    fn churn_sample(&self) -> ChurnSample {
        let mut tally: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for (s, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                if let Some(op) = self.protocol.opinion(s) {
                    *tally.entry(op).or_insert(0) += c;
                }
            }
        }
        let top = tally.values().copied().max().unwrap_or(0);
        ChurnSample {
            t: self.parallel_time(),
            population: self.n,
            plurality_frac: top as f64 / self.n as f64,
            output: self.protocol.output(&self.counts),
        }
    }

    fn finish(&self, status: RunStatus, output: Option<u32>) -> RunResult {
        RunResult {
            status,
            output,
            interactions: self.interactions,
            parallel_time: self.parallel_time(),
            faults: Vec::new(),
            series: Vec::new(),
            notes: if self.scheduler_saturated {
                vec![RunNote::SchedulerSaturated]
            } else {
                Vec::new()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::sim::tests::{Am3, Epi};

    #[test]
    fn population_is_conserved() {
        let mut sim = PairwiseBatchSimulation::new(Am3, vec![0, 600, 400], 3);
        for _ in 0..100 {
            sim.step_batch();
            assert_eq!(sim.counts().iter().sum::<u64>(), 1000);
        }
    }

    #[test]
    fn epidemic_completes_in_logarithmic_time() {
        let n = 1 << 16;
        let mut sim = PairwiseBatchSimulation::new(Epi, vec![n - 1, 1], 9);
        let r = sim.run(&RunOptions::default());
        assert_eq!(r.status, RunStatus::Converged);
        let model = (n as f64).log2() + (n as f64).ln();
        assert!(
            (r.parallel_time - model).abs() < model,
            "epidemic time {} vs model {model}",
            r.parallel_time
        );
    }

    #[test]
    fn majority_picks_large_bias_winner() {
        let n = 100_000u64;
        let mut sim = PairwiseBatchSimulation::new(Am3, vec![0, n * 3 / 5, n * 2 / 5], 11);
        let r = sim.run(&RunOptions {
            max_interactions: 200 * n,
            check_every: 0,
        });
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(1));
    }

    #[test]
    #[should_panic]
    fn mismatched_counts_rejected() {
        let _ = PairwiseBatchSimulation::new(Epi, vec![1, 1, 1], 0);
    }
}
