//! The multinomial-tally configuration-space engine.

use std::sync::Arc;

use rand::{Rng, SeedableRng};

use crate::batch::birthday::draw_batch_len;
use crate::batch::fenwick::ShardedFenwick;
use crate::batch::multinomial::{binomial, multinomial_into, multinomial_weighted_into};
use crate::batch::tally::{self, run_subtree, TallyCtx, TallyScratch, TallySpec};
use crate::batch::TableProtocol;
use crate::churn::ChurnProcess;
use crate::drive::{self, Clock, Stepper};
use crate::fault::{
    resolve_forgery, strike_counts, AdversarySpec, ChurnTarget, FaultAction, FaultSpec, LieTarget,
    OpinionCensus, SchedulerSpec,
};
use crate::protocol::SimRng;
use crate::result::{RunNote, RunOptions, RunResult};

/// Floor on the multiplicity below which responders are always drawn one
/// by one through the Fenwick sampler. The full rule is adaptive: a
/// conditional-binomial split scans every occupied state
/// (`O(S_occupied)` binomials), so it only pays once the multiplicity
/// exceeds the occupied-state count — at USD-like `k = 64` a multiplicity
/// of 10 is far cheaper as ten `O(log S)` tree draws.
const SPLIT_FLOOR: u64 = 8;

/// How many infeasible (overdrawn) tallies to redraw before falling back
/// to per-pair application for the batch. Overdraw probability is
/// `O(ℓ²/n)` against a near-empty state, so two misses in a row are
/// already rare; the fallback is exact and unconditionally feasible.
const MAX_TALLY_RETRIES: u32 = 8;

/// A configuration-space simulation advancing in collision-free batches,
/// each applied as one multinomial tally of ordered state pairs.
///
/// Per-interaction cost is sub-constant for long batches: a batch of `ℓ`
/// interactions costs `O(S·√ℓ)` binomial work plus `O(log S)` per
/// *distinct* transition applied, instead of `O(1)` per interaction on
/// the sequential engine (see [`crate::batch`] module docs for the
/// accounting).
#[derive(Debug)]
pub struct BatchSimulation<P: TableProtocol> {
    /// Shared by clones, so cloning a simulation needs no `P: Clone`.
    protocol: Arc<P>,
    counts: Vec<u64>,
    /// Sharded Fenwick mirror of `counts` for `O(log S)` weighted draws;
    /// frozen at the pre-batch configuration while a tally is being
    /// sampled.
    tree: ShardedFenwick,
    n: u64,
    rng: SimRng,
    clock: Clock,
    /// Batches applied so far (a process-local throughput metric; not part
    /// of the checkpointed state).
    batches: u64,
    deterministic: bool,
    // Scratch buffers reused across batches.
    initiators: Vec<(usize, u64)>,
    responders: Vec<(usize, u64)>,
    delta: Vec<i64>,
    /// Gross participant count drawn from each state this batch (the
    /// collision-free feasibility bound: a batch cannot use more agents of
    /// a state than exist).
    usage: Vec<u64>,
    scheduler: Option<SchedulerSpec>,
    /// Adversary snapshot for the current batch: `(lie probability, what
    /// liars report)`. `None` when no adversary applies (also when the
    /// forged opinion has no state in this protocol's table: adversaries
    /// degrade, never panic).
    lie: Option<(f64, LieTarget)>,
    /// Retained only for *adaptive* adversaries, whose `lie` snapshot is
    /// re-aimed at the live census before every batch; fixed liars
    /// resolve once at install and are not stored.
    adversary: Option<AdversarySpec>,
    scheduler_saturated: bool,
    /// Subtree kernel scratch, reused across batches.
    scratch: TallyScratch,
}

impl<P: TableProtocol> Clone for BatchSimulation<P> {
    /// Clones share the protocol (`Arc`) and start with fresh scratch.
    fn clone(&self) -> Self {
        Self {
            protocol: Arc::clone(&self.protocol),
            counts: self.counts.clone(),
            tree: self.tree.clone(),
            n: self.n,
            rng: self.rng.clone(),
            clock: self.clock,
            batches: self.batches,
            deterministic: self.deterministic,
            initiators: self.initiators.clone(),
            responders: self.responders.clone(),
            delta: self.delta.clone(),
            usage: self.usage.clone(),
            scheduler: self.scheduler,
            lie: self.lie,
            adversary: self.adversary,
            scheduler_saturated: self.scheduler_saturated,
            scratch: TallyScratch::default(),
        }
    }
}

impl<P: TableProtocol> BatchSimulation<P> {
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
        let tree = ShardedFenwick::from_weights(&counts);
        let states = counts.len();
        let deterministic = protocol.is_deterministic();
        Self {
            protocol: Arc::new(protocol),
            counts,
            tree,
            n,
            rng: SimRng::seed_from_u64(seed),
            clock: Clock::default(),
            batches: 0,
            deterministic,
            initiators: Vec::new(),
            responders: Vec::new(),
            delta: vec![0; states],
            usage: vec![0; states],
            scheduler: None,
            lie: None,
            adversary: None,
            scheduler_saturated: false,
            scratch: TallyScratch::default(),
        }
    }

    /// Accepted and ignored: a run always tallies on the calling thread.
    /// A worker pool over a batch's initiator subtrees ran slower than
    /// one thread on two cores (0.47× on 3-state majority at `n = 10⁸`,
    /// 0.68× on USD `k = 64` at `n = 10⁷`). Parallelism lives across
    /// independent trials instead ([`crate::ensemble::run_trials`]).
    pub fn set_threads(&mut self, threads: usize) {
        let _ = threads;
    }

    /// Always `1`; see [`set_threads`](Self::set_threads).
    pub fn threads(&self) -> usize {
        1
    }

    /// Replace the uniform pair scheduler with an adversarial one. The
    /// uniform tally fast path is untouched when no scheduler is set.
    /// Any scheduler, [`SchedulerSpec::Uniform`] included, routes batches
    /// through the weighted scheduled tally, whose RNG stream differs
    /// from the unscheduled one.
    pub fn set_scheduler(&mut self, scheduler: SchedulerSpec) {
        self.scheduler = Some(scheduler);
    }

    /// Install a Byzantine interaction adversary. The honest tally fast
    /// path (and its RNG stream) is untouched when none is set; a zero
    /// lying probability disables the adversary entirely, so `adaptive:0`
    /// stays RNG-identical to the clean run. A fixed forged opinion with
    /// no state in the table disables the perturbation as well.
    pub fn set_adversary(&mut self, adversary: AdversarySpec) {
        let frac = adversary.lie_frac();
        if frac <= 0.0 {
            return;
        }
        if adversary.is_adaptive() {
            self.adversary = Some(adversary);
            self.refresh_lie();
        } else {
            self.lie = resolve_forgery(
                &*self.protocol,
                adversary.forgery(&OpinionCensus::default()),
            )
            .map(|t| (frac, t));
        }
    }

    /// Re-aim an adaptive adversary's lie snapshot at the live census —
    /// `O(S)` once per batch, so the `n = 10⁸` throughput is untouched.
    /// Draws no randomness, preserving the replay contract; a no-op when
    /// no adaptive adversary is installed.
    fn refresh_lie(&mut self) {
        let Some(adv) = self.adversary else {
            return;
        };
        self.lie = resolve_forgery(&*self.protocol, adv.forgery(&self.opinion_census()))
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

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Population size.
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// Interactions simulated so far.
    pub fn interactions(&self) -> u64 {
        self.clock.interactions
    }

    /// Batches applied so far. A process-local metric (service dashboards,
    /// throughput accounting); it is *not* checkpointed state and restarts
    /// at zero on restore.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Add `count` fresh agents in `state` to the live population — the
    /// ingest path of a long-running service. Uses the same clock-folding
    /// bookkeeping as churn joins, and draws no randomness, so the engine's
    /// RNG stream is exactly the stream of the ingest-free run.
    ///
    /// # Panics
    ///
    /// Panics if `state` is outside the protocol's state space.
    pub fn admit(&mut self, state: usize, count: u64) {
        assert!(
            state < self.counts.len(),
            "admit state {state} outside 0..{}",
            self.counts.len()
        );
        if count == 0 {
            return;
        }
        self.clock.fold(self.n);
        self.counts[state] += count;
        self.n += count;
        self.tree.rebuild(&self.counts);
    }

    /// Parallel time elapsed: interactions divided by the population size,
    /// folded over population changes (churn) so the clock stays
    /// continuous.
    pub fn parallel_time(&self) -> f64 {
        self.clock.parallel_time(self.n)
    }

    /// The raw RNG state, for checkpointing.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// The clock's checkpoint triple: `(interactions, interactions_base,
    /// time_base)`.
    pub fn clock_parts(&self) -> (u64, u64, f64) {
        self.clock.parts()
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
        self.clock = Clock::restore(interactions, interactions_base, time_base);
        self.rng = SimRng::from_state(rng);
    }

    /// Advance one collision-free batch; returns the number of interactions
    /// applied.
    pub fn step_batch(&mut self) -> u64 {
        let len = draw_batch_len(&mut self.rng, self.n);
        self.apply_batch(len);
        len
    }

    /// Sample a pair tally for `len` interactions from the pre-batch
    /// configuration and apply it. Infeasible tallies (a with-replacement
    /// draw overdrew a nearly-empty state) are redrawn; after
    /// [`MAX_TALLY_RETRIES`] misses the batch is applied pair by pair.
    fn apply_batch(&mut self, len: u64) {
        self.batches += 1;
        self.refresh_lie();
        match self.scheduler {
            None => {
                for _ in 0..MAX_TALLY_RETRIES {
                    if self.try_tally(len) {
                        self.clock.interactions += len;
                        return;
                    }
                }
                self.apply_pairwise(len);
            }
            Some(sched) => {
                for _ in 0..MAX_TALLY_RETRIES {
                    if self.try_tally_scheduled(len, sched) {
                        self.clock.interactions += len;
                        return;
                    }
                }
                self.apply_pairwise_scheduled(len, sched);
            }
        }
        self.clock.interactions += len;
    }

    /// One tally attempt. Returns `false` (leaving the configuration
    /// untouched) if the sampled tally is infeasible — it would use more
    /// agents of some state than exist (the with-replacement draw can
    /// overdraw a small state).
    ///
    /// The attempt is structured as a split tree: the root multinomial
    /// (drawn here, from the main stream) splits the batch across
    /// initiator states, and each initiator's subtree resolves on a
    /// counter-based substream keyed by `(key, subtree index)` (see
    /// [`crate::batch::tally`]). Main-stream consumption per attempt is
    /// the root draw plus one key word.
    fn try_tally(&mut self, len: u64) -> bool {
        self.delta.iter_mut().for_each(|d| *d = 0);
        self.usage.iter_mut().for_each(|u| *u = 0);

        // Root split: one multinomial over the configuration.
        self.initiators.clear();
        multinomial_into(
            &mut self.rng,
            len,
            &self.counts,
            self.n,
            &mut self.initiators,
        );

        let occupied = self.counts.iter().filter(|&&c| c > 0).count() as u64;
        let split_threshold = SPLIT_FLOOR.max(occupied);
        let key = self.rng.gen::<u64>();

        let spec = TallySpec {
            ctx: TallyCtx {
                protocol: &*self.protocol,
                deterministic: self.deterministic,
                lie: self.lie,
                states: self.counts.len(),
            },
            counts: &self.counts,
            n: self.n,
            tree: &self.tree,
            split_threshold,
            key,
        };
        for (subtree, &(a, multiplicity)) in self.initiators.iter().enumerate() {
            run_subtree(
                &spec,
                subtree,
                a,
                multiplicity,
                &mut self.scratch,
                &mut self.delta,
                &mut self.usage,
            );
        }

        // Feasibility: within a collision-free batch every participant is
        // a distinct agent, so the gross usage of a state is bounded by
        // its pre-batch count (this also implies the net delta cannot go
        // negative).
        if self.counts.iter().zip(&self.usage).any(|(&c, &u)| u > c) {
            return false;
        }
        for s in 0..self.counts.len() {
            let d = self.delta[s];
            if d != 0 {
                self.counts[s] = self.counts[s]
                    .checked_add_signed(d)
                    .expect("feasible delta");
                self.tree.add(s, d);
            }
        }
        true
    }

    /// Exact per-pair application (the seed semantics): each interaction
    /// samples from the *live* configuration, so no overdraw is possible.
    /// Only used as the rare-tally fallback.
    fn apply_pairwise(&mut self, len: u64) {
        for _ in 0..len {
            let a = self.tree.sample(&mut self.rng);
            let mut b = self.tree.sample(&mut self.rng);
            // A single-agent state cannot interact with itself: redraw the
            // responder (another state is occupied since n ≥ 2).
            while b == a && self.counts[a] < 2 {
                b = self.tree.sample(&mut self.rng);
            }
            self.apply_live_interaction(a, b);
        }
    }

    /// Resolve one live interaction of the ordered pair `(a, b)` — the
    /// per-interaction Byzantine coin flips when an adversary is active,
    /// the plain transition otherwise — and apply it to the live counts.
    fn apply_live_interaction(&mut self, a: usize, b: usize) {
        let (a2, b2) = match self.lie {
            None => self.protocol.delta(a, b, &mut self.rng),
            Some((frac, forged)) => {
                let a_lies = self.rng.gen_bool(frac);
                let b_lies = self.rng.gen_bool(frac);
                match (a_lies, b_lies) {
                    (true, true) => (a, b),
                    (true, false) => {
                        let f = self.forged_state(forged);
                        let (_, b2) = self.protocol.delta(f, b, &mut self.rng);
                        (a, b2)
                    }
                    (false, true) => {
                        let f = self.forged_state(forged);
                        let (a2, _) = self.protocol.delta(a, f, &mut self.rng);
                        (a2, b)
                    }
                    (false, false) => self.protocol.delta(a, b, &mut self.rng),
                }
            }
        };
        if (a2, b2) == (a, b) {
            return;
        }
        for (s, d) in [(a, -1i64), (b, -1), (a2, 1), (b2, 1)] {
            self.counts[s] = self.counts[s].checked_add_signed(d).expect("live sample");
            self.tree.add(s, d);
        }
    }

    /// The forged state for one lie: fixed, a fair pick from a split
    /// pair, or uniform over the table.
    fn forged_state(&mut self, forged: LieTarget) -> usize {
        match forged {
            LieTarget::Fixed(f) => f,
            LieTarget::Pair(a, b) => {
                if self.rng.gen_bool(0.5) {
                    a
                } else {
                    b
                }
            }
            LieTarget::Random => self.rng.gen_range(0..self.counts.len()),
        }
    }

    /// One tally attempt under an adversarial scheduler: participation
    /// weights become `counts[s] · opinion_weight(opinion(s))`, drawn
    /// through real-valued multinomials, and the scheduler's assortativity
    /// share of the batch forces responders into the initiator's opinion
    /// class. Feasibility checking and application are shared with
    /// [`try_tally`](Self::try_tally).
    fn try_tally_scheduled(&mut self, len: u64, sched: SchedulerSpec) -> bool {
        self.delta.iter_mut().for_each(|d| *d = 0);
        self.usage.iter_mut().for_each(|u| *u = 0);

        let weights: Vec<f64> = self
            .counts
            .iter()
            .enumerate()
            .map(|(s, &c)| c as f64 * sched.opinion_weight(self.protocol.opinion(s)))
            .collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            // Every occupied state was starved to weight zero; degrade to
            // the uniform tally rather than stall, and surface it.
            self.scheduler_saturated = true;
            return self.try_tally(len);
        }

        let assort = sched.assortativity();
        let forced = if assort > 0.0 {
            binomial(&mut self.rng, len, assort)
        } else {
            0
        };

        let mut initiators = std::mem::take(&mut self.initiators);
        let mut responders = std::mem::take(&mut self.responders);

        // Free pairs: weighted initiators, weighted responders.
        initiators.clear();
        multinomial_weighted_into(
            &mut self.rng,
            len - forced,
            &weights,
            total,
            &mut initiators,
        );
        for &(a, multiplicity) in &initiators {
            responders.clear();
            multinomial_weighted_into(
                &mut self.rng,
                multiplicity,
                &weights,
                total,
                &mut responders,
            );
            for &(b, m) in &responders {
                tally::accumulate(
                    &TallyCtx {
                        protocol: &*self.protocol,
                        deterministic: self.deterministic,
                        lie: self.lie,
                        states: self.counts.len(),
                    },
                    &mut self.rng,
                    &mut self.delta,
                    &mut self.usage,
                    a,
                    b,
                    m,
                );
            }
        }

        // Forced like-with-like pairs: the responder is drawn from the
        // initiator's opinion class, by raw counts. An empty class (the
        // initiator is its sole member) degrades to a free draw.
        if forced > 0 {
            initiators.clear();
            multinomial_weighted_into(&mut self.rng, forced, &weights, total, &mut initiators);
            for &(a, multiplicity) in &initiators {
                let want = self.protocol.opinion(a);
                let class: Vec<f64> = self
                    .counts
                    .iter()
                    .enumerate()
                    .map(|(s, &c)| {
                        if self.protocol.opinion(s) == want {
                            c as f64
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let class_total: f64 = class.iter().sum();
                responders.clear();
                if class_total > 0.0 {
                    multinomial_weighted_into(
                        &mut self.rng,
                        multiplicity,
                        &class,
                        class_total,
                        &mut responders,
                    );
                } else {
                    multinomial_weighted_into(
                        &mut self.rng,
                        multiplicity,
                        &weights,
                        total,
                        &mut responders,
                    );
                }
                for &(b, m) in &responders {
                    tally::accumulate(
                        &TallyCtx {
                            protocol: &*self.protocol,
                            deterministic: self.deterministic,
                            lie: self.lie,
                            states: self.counts.len(),
                        },
                        &mut self.rng,
                        &mut self.delta,
                        &mut self.usage,
                        a,
                        b,
                        m,
                    );
                }
            }
        }

        initiators.clear();
        responders.clear();
        self.initiators = initiators;
        self.responders = responders;

        if self.counts.iter().zip(&self.usage).any(|(&c, &u)| u > c) {
            return false;
        }
        for s in 0..self.counts.len() {
            let d = self.delta[s];
            if d != 0 {
                self.counts[s] = self.counts[s]
                    .checked_add_signed(d)
                    .expect("feasible delta");
                self.tree.add(s, d);
            }
        }
        true
    }

    /// Weighted per-pair fallback for scheduled batches (the analogue of
    /// [`apply_pairwise`](Self::apply_pairwise)): every draw samples from
    /// the live weighted configuration, so no overdraw is possible.
    fn apply_pairwise_scheduled(&mut self, len: u64, sched: SchedulerSpec) {
        let assort = sched.assortativity();
        for _ in 0..len {
            let a = self.sample_state_weighted(sched);
            let mut b = if assort > 0.0 && self.rng.gen_bool(assort) {
                let want = self.protocol.opinion(a);
                self.sample_state_in_class(want)
                    .unwrap_or_else(|| self.sample_state_weighted(sched))
            } else {
                self.sample_state_weighted(sched)
            };
            while b == a && self.counts[a] < 2 {
                b = self.sample_state_weighted(sched);
            }
            self.apply_live_interaction(a, b);
        }
    }

    /// One weighted state draw (linear scan over `counts · weight`); falls
    /// back to the uniform Fenwick draw if every weight is zero.
    fn sample_state_weighted(&mut self, sched: SchedulerSpec) -> usize {
        let total: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(s, &c)| c as f64 * sched.opinion_weight(self.protocol.opinion(s)))
            .sum();
        if total <= 0.0 {
            self.scheduler_saturated = true;
            return self.tree.sample(&mut self.rng);
        }
        let mut target = self.rng.gen::<f64>() * total;
        let last = self
            .counts
            .iter()
            .rposition(|&c| c > 0)
            .expect("population is non-empty");
        for s in 0..self.counts.len() {
            let w = self.counts[s] as f64 * sched.opinion_weight(self.protocol.opinion(s));
            target -= w;
            if target < 0.0 && self.counts[s] > 0 {
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

    /// Run until convergence or budget exhaustion. Convergence is checked
    /// between batches (a batch is `Θ(√n)` interactions, finer than the
    /// sequential engine's default `n`-interaction stride);
    /// `opts.check_every` is not used. The final batch is truncated to the
    /// interaction budget.
    pub fn run(&mut self, opts: &RunOptions) -> RunResult {
        drive::run(self, opts, |_| {})
    }

    /// Run under a list of faults: batches are split at each fault's
    /// parallel time (the batch straddling an epoch is truncated to land
    /// exactly on it), the strike is applied to the census between batches
    /// — `O(S)` binomial thinning, so the `n = 10⁸` fast path stays fast —
    /// and the Fenwick mirror is rebuilt. Recovery bookkeeping matches
    /// [`Simulation::run_faulted`](crate::Simulation::run_faulted); an
    /// empty list replays [`run`](Self::run) exactly.
    pub fn run_faulted(&mut self, opts: &RunOptions, faults: &[FaultSpec]) -> RunResult {
        drive::run_faulted(self, opts, faults)
    }

    /// Run under a steady-state churn process until `stop_at` parallel
    /// time: after every batch, `Poisson`-distributed joins (drawn from the
    /// `initial` distribution) and leaves (multinomial thinning of the live
    /// counts, never below two agents) are applied and the Fenwick mirror
    /// rebuilt; a [`ChurnSample`](crate::ChurnSample) is recorded each
    /// time the clock crosses a multiple of the process's sampling period.
    ///
    /// Convergence does not stop a churned run; the status is
    /// [`RunStatus::Converged`](crate::RunStatus::Converged) iff the
    /// output predicate fires at `stop_at`, and the series carries the
    /// history. Batches are never truncated at `stop_at` (the run halts at
    /// the first batch boundary past it), which keeps checkpointed and
    /// uninterrupted runs on the same RNG trajectory.
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
        assert!(
            initial.iter().sum::<u64>() > 0,
            "churn needs a join distribution"
        );
        drive::run_churned(self, opts, churn, initial, stop_at)
    }
}

impl<P: TableProtocol> Stepper for BatchSimulation<P> {
    type Config = [u64];

    /// One collision-free batch.
    fn advance(&mut self, _opts: &RunOptions, limit: u64) -> u64 {
        let len = draw_batch_len(&mut self.rng, self.n).min(limit - self.clock.interactions);
        self.apply_batch(len);
        len
    }

    fn output(&self) -> Option<u32> {
        self.protocol.output(&self.counts)
    }

    fn clock(&self) -> &Clock {
        &self.clock
    }

    fn population(&self) -> u64 {
        self.n
    }

    fn config(&self) -> &[u64] {
        &self.counts
    }

    /// `O(S)` binomial thinning of the counts, then a Fenwick rebuild.
    fn strike(&mut self, initial: &[u64], action: &FaultAction) {
        strike_counts(
            &*self.protocol,
            &mut self.counts,
            initial,
            action,
            &mut self.rng,
        );
        self.tree.rebuild(&self.counts);
    }

    /// Applied to the counts vector in `O(S)`. Leaves are per-cell capped
    /// so counts never go negative (the multinomial thinning samples with
    /// replacement). Uniform-target departures keep the exact RNG draw
    /// sequence from before targeting existed; targeted departures thin
    /// the census-chosen opinion class first (a class-masked multinomial)
    /// and any remainder falls back to the uniform thinning.
    fn churn_events(&mut self, churn: &ChurnProcess, initial: &[u64], len: u64) {
        let (joins, leaves) = churn.draw_events(&mut self.rng, len);
        let leaves = leaves.min(self.n - 2);
        if joins == 0 && leaves == 0 {
            return;
        }
        self.clock.fold(self.n);
        let mut out = Vec::new();
        let mut remaining = leaves;
        if remaining > 0 && churn.target() != ChurnTarget::Uniform {
            let census = self.opinion_census();
            let want = match churn.target() {
                ChurnTarget::Uniform => None,
                ChurnTarget::Plurality => census.leader(),
                ChurnTarget::Minority => census.weakest(),
            };
            // An opinion-free census degrades to uniform departures.
            if let Some(want) = want {
                let class: Vec<u64> = self
                    .counts
                    .iter()
                    .enumerate()
                    .map(|(s, &c)| {
                        if self.protocol.opinion(s) == Some(want) {
                            c
                        } else {
                            0
                        }
                    })
                    .collect();
                let class_total: u64 = class.iter().sum();
                let k = remaining.min(class_total);
                if k > 0 {
                    multinomial_into(&mut self.rng, k, &class, class_total, &mut out);
                    for (s, c) in out.drain(..) {
                        let c = c.min(self.counts[s]);
                        self.counts[s] -= c;
                        self.n -= c;
                        remaining -= c;
                    }
                }
            }
        }
        if remaining > 0 {
            multinomial_into(&mut self.rng, remaining, &self.counts, self.n, &mut out);
            for (s, c) in out.drain(..) {
                let c = c.min(self.counts[s]);
                self.counts[s] -= c;
                self.n -= c;
            }
        }
        if joins > 0 {
            let initial_total: u64 = initial.iter().sum();
            multinomial_into(&mut self.rng, joins, initial, initial_total, &mut out);
            for (s, c) in out {
                self.counts[s] += c;
            }
            self.n += joins;
        }
        self.tree.rebuild(&self.counts);
    }

    /// Folds the counts vector in `O(S)`.
    fn opinion_census(&self) -> OpinionCensus {
        OpinionCensus::from_tallies(
            self.counts
                .iter()
                .enumerate()
                .filter_map(|(s, &c)| self.protocol.opinion(s).map(|op| (op, c))),
        )
    }

    fn notes(&self) -> Vec<RunNote> {
        if self.scheduler_saturated {
            vec![RunNote::SchedulerSaturated]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::result::RunStatus;

    /// One-way epidemic as a table protocol: state 1 infects state 0.
    pub(crate) struct Epi;
    impl TableProtocol for Epi {
        fn states(&self) -> usize {
            2
        }

        fn is_deterministic(&self) -> bool {
            true
        }
        fn delta(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
            if a == 1 || b == 1 {
                (1, 1)
            } else {
                (0, 0)
            }
        }
        fn output(&self, counts: &[u64]) -> Option<u32> {
            (counts[0] == 0).then_some(1)
        }
    }

    /// 3-state approximate majority (blank 0, A 1, B 2).
    pub(crate) struct Am3;
    impl TableProtocol for Am3 {
        fn states(&self) -> usize {
            3
        }

        fn is_deterministic(&self) -> bool {
            true
        }
        fn delta(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
            match (a, b) {
                (1, 2) | (2, 1) => (a, 0),
                (1, 0) => (1, 1),
                (2, 0) => (2, 2),
                _ => (a, b),
            }
        }
        fn output(&self, counts: &[u64]) -> Option<u32> {
            if counts[0] == 0 && counts[2] == 0 {
                Some(1)
            } else if counts[0] == 0 && counts[1] == 0 {
                Some(2)
            } else {
                None
            }
        }
    }

    /// A randomized table: on an (A, B) clash the *pair* flips one fair
    /// coin and both adopt the winner — drifts nowhere, but exercises the
    /// per-interaction RNG path.
    struct CoinClash;
    impl TableProtocol for CoinClash {
        fn states(&self) -> usize {
            2
        }
        fn delta(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize) {
            use rand::Rng;
            if a != b {
                let w = usize::from(rng.gen::<bool>());
                (w, w)
            } else {
                (a, b)
            }
        }
        fn output(&self, counts: &[u64]) -> Option<u32> {
            counts
                .iter()
                .position(|&c| c == 0)
                .map(|loser| 1 - loser as u32)
        }
    }

    #[test]
    fn population_is_conserved() {
        let mut sim = BatchSimulation::new(Am3, vec![0, 600, 400], 3);
        for _ in 0..100 {
            sim.step_batch();
            assert_eq!(sim.counts().iter().sum::<u64>(), 1000);
        }
    }

    #[test]
    fn epidemic_completes_in_logarithmic_time() {
        let n = 1 << 16;
        let mut sim = BatchSimulation::new(Epi, vec![n - 1, 1], 9);
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
    fn batch_matches_sequential_epidemic_distribution() {
        // Compare median completion times of the batched and sequential
        // engines on the same protocol: they must agree within ~15%.
        use crate::protocol::Protocol;
        use crate::sim::Simulation;

        struct SeqEpi;
        impl Protocol for SeqEpi {
            type State = u8;
            fn interact(&mut self, _t: u64, a: &mut u8, b: &mut u8, _rng: &mut SimRng) {
                let i = *a | *b;
                *a = i;
                *b = i;
            }
            fn converged(&self, states: &[u8]) -> Option<u32> {
                states.iter().all(|&s| s == 1).then_some(1)
            }
        }

        let n = 4096usize;
        let median = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v[v.len() / 2]
        };
        // The sequential engine checks convergence every 64 interactions so
        // its reported times are not quantised to whole parallel-time units
        // (the batched engine checks every Θ(√n)-interaction batch).
        let seq_opts = RunOptions {
            max_interactions: u64::MAX,
            check_every: 64,
        };
        let seq: Vec<f64> = (0..25)
            .map(|seed| {
                let mut states = vec![0u8; n];
                states[0] = 1;
                let mut sim = Simulation::new(SeqEpi, states, seed);
                sim.run(&seq_opts).parallel_time
            })
            .collect();
        let bat: Vec<f64> = (0..25)
            .map(|seed| {
                let mut sim = BatchSimulation::new(Epi, vec![n as u64 - 1, 1], 1000 + seed);
                sim.run(&RunOptions::default()).parallel_time
            })
            .collect();
        let (ms, mb) = (median(seq), median(bat));
        assert!(
            (ms - mb).abs() / ms < 0.15,
            "sequential {ms} vs batched {mb} diverge"
        );
    }

    #[test]
    fn batched_majority_picks_large_bias_winner() {
        let n = 1_000_000u64;
        let mut sim = BatchSimulation::new(Am3, vec![0, n * 3 / 5, n * 2 / 5], 11);
        let r = sim.run(&RunOptions {
            max_interactions: 200 * n,
            check_every: 0,
        });
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(1));
    }

    #[test]
    fn hundred_million_agents_converge_quickly() {
        // The point of the multinomial engine: n = 10⁸ is interactive.
        let n = 100_000_000u64;
        let mut sim = BatchSimulation::new(Am3, vec![0, n / 2 + n / 10, n / 2 - n / 10], 5);
        let r = sim.run(&RunOptions {
            max_interactions: 100 * n,
            check_every: 0,
        });
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(1));
        assert!(
            r.parallel_time < 15.0 * (n as f64).ln(),
            "time {}",
            r.parallel_time
        );
    }

    #[test]
    fn randomized_tables_converge_and_conserve() {
        let n = 10_000u64;
        let mut sim = BatchSimulation::new(CoinClash, vec![n / 2, n / 2], 13);
        let r = sim.run(&RunOptions {
            max_interactions: 20_000 * n,
            check_every: 0,
        });
        assert_eq!(r.status, RunStatus::Converged);
        assert!(r.output == Some(0) || r.output == Some(1));
        assert_eq!(sim.counts().iter().sum::<u64>(), n);
    }

    #[test]
    fn randomized_coin_is_fair_across_runs() {
        // At a 50/50 start the coin-clash walk is symmetric: either side
        // should win a healthy share of runs.
        let n = 2_000u64;
        let wins0 = (0..40)
            .filter(|&seed| {
                let mut sim = BatchSimulation::new(CoinClash, vec![n / 2, n / 2], seed);
                let r = sim.run(&RunOptions {
                    max_interactions: 100_000 * n,
                    check_every: 0,
                });
                r.output == Some(0)
            })
            .count();
        assert!((5..=35).contains(&wins0), "state 0 won {wins0}/40 runs");
    }

    #[test]
    fn budget_is_respected_and_batches_truncated() {
        let n = 100_000u64;
        let mut sim = BatchSimulation::new(Am3, vec![n, 0, 0], 2);
        let r = sim.run(&RunOptions {
            max_interactions: 1000,
            check_every: 0,
        });
        assert_eq!(r.status, RunStatus::Exhausted);
        assert_eq!(
            r.interactions, 1000,
            "final batch must truncate to the budget"
        );
    }

    #[test]
    fn overdraw_prone_configurations_stay_consistent() {
        // One agent of state 1 in a sea of state 0: every batch risks
        // overdrawing state 1, exercising the retry/fallback path.
        struct Swap;
        impl TableProtocol for Swap {
            fn states(&self) -> usize {
                2
            }

            fn is_deterministic(&self) -> bool {
                true
            }
            fn delta(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
                (b, a)
            }
            fn output(&self, _counts: &[u64]) -> Option<u32> {
                None
            }
        }
        let mut sim = BatchSimulation::new(Swap, vec![999, 1], 7);
        for _ in 0..2000 {
            sim.step_batch();
            assert_eq!(sim.counts().iter().sum::<u64>(), 1000);
            assert_eq!(sim.counts()[1], 1, "swap conserves the single token");
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_counts_rejected() {
        let _ = BatchSimulation::new(Epi, vec![1, 1, 1], 0);
    }

    #[test]
    fn admit_grows_the_population_without_touching_the_rng() {
        let mut sim = BatchSimulation::new(Am3, vec![0, 600, 400], 17);
        for _ in 0..10 {
            sim.step_batch();
        }
        let rng_before = sim.rng_state();
        let t_before = sim.parallel_time();
        sim.admit(2, 250);
        assert_eq!(sim.rng_state(), rng_before, "admit must draw no randomness");
        assert_eq!(sim.counts().iter().sum::<u64>(), 1250);
        assert_eq!(sim.n(), 1250);
        // The clock folds: parallel time is continuous across the admit.
        assert_eq!(sim.parallel_time(), t_before);
        // Admitting zero agents is a true no-op.
        let snap = sim.counts().to_vec();
        sim.admit(0, 0);
        assert_eq!(sim.counts(), &snap[..]);
        // The admitted agents participate: the clock advances at the new
        // population's rate and counts keep summing to the grown total.
        sim.step_batch();
        assert_eq!(sim.counts().iter().sum::<u64>(), 1250);
        assert!(sim.parallel_time() > t_before);
    }

    #[test]
    #[should_panic]
    fn admit_rejects_out_of_range_states() {
        let mut sim = BatchSimulation::new(Am3, vec![0, 600, 400], 17);
        sim.admit(3, 1);
    }

    #[test]
    fn batches_counter_tracks_applied_batches() {
        let mut sim = BatchSimulation::new(Am3, vec![0, 600, 400], 17);
        assert_eq!(sim.batches(), 0);
        for _ in 0..5 {
            sim.step_batch();
        }
        assert_eq!(sim.batches(), 5);
    }

    #[test]
    fn ten_billion_agents_conserve_population() {
        // n = 10^10 exceeds u32 and any dense-agent representation; the
        // configuration-space engine must hold it in O(S) memory with no
        // intermediate overflow. Batch lengths run ≈ 62 670 here.
        let n = 10_000_000_000u64;
        let mut sim = BatchSimulation::new(Am3, vec![0, 5_500_000_000, 4_500_000_000], 71);
        for _ in 0..50 {
            sim.step_batch();
            assert_eq!(sim.counts().iter().sum::<u64>(), n);
        }
        assert!(
            sim.interactions() > 1_000_000,
            "3-state clash makes progress"
        );
        // The majority dynamics pull mass toward opinion 1's blank state
        // path; verify both opinions still hold u32-overflowing counts.
        assert!(sim.counts()[1] > u32::MAX as u64);
        assert!(sim.counts()[2] > u32::MAX as u64);
    }
}
