//! The run driver shared by both engines.
//!
//! `run`, `run_faulted` and `run_churned` differ between the sequential
//! and the batched engine only in how one step of the loop advances: a
//! convergence-check stride of single interactions, or one
//! collision-free batch. [`Stepper`] is that difference; the loops, the
//! [`FaultRecord`] bookkeeping, the [`ChurnSample`] and the
//! [`RunResult`] assembly are written once here, over it.
//!
//! The drivers draw no randomness of their own, so each engine's RNG
//! stream is exactly the stream its steps, strikes and churn events
//! consume — the replay and checkpoint contracts rest on that.

use std::borrow::Borrow;

use crate::churn::ChurnProcess;
use crate::fault::{FaultAction, FaultRecord, FaultSpec, OpinionCensus};
use crate::result::{ChurnSample, RunNote, RunOptions, RunResult, RunStatus};

/// The parallel clock: interactions, folded over population changes so
/// parallel time stays continuous when churn or ingest resizes the
/// population.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Clock {
    /// Interactions executed so far.
    pub(crate) interactions: u64,
    /// Interactions already folded into `time_base`.
    interactions_base: u64,
    /// Parallel time accumulated before `interactions_base` — non-zero
    /// only after the population size changed.
    time_base: f64,
}

impl Clock {
    /// Parallel time at population size `n`.
    pub(crate) fn parallel_time(&self, n: u64) -> f64 {
        self.time_base + (self.interactions - self.interactions_base) as f64 / n as f64
    }

    /// Fold the elapsed clock into `time_base`; must be called *before*
    /// the population size `n` changes.
    pub(crate) fn fold(&mut self, n: u64) {
        self.time_base = self.parallel_time(n);
        self.interactions_base = self.interactions;
    }

    /// The checkpoint triple: `(interactions, interactions_base,
    /// time_base)`.
    pub(crate) fn parts(&self) -> (u64, u64, f64) {
        (self.interactions, self.interactions_base, self.time_base)
    }

    /// A clock at a checkpoint triple.
    pub(crate) fn restore(interactions: u64, interactions_base: u64, time_base: f64) -> Self {
        Self {
            interactions,
            interactions_base,
            time_base,
        }
    }
}

/// One engine as the drivers see it.
pub(crate) trait Stepper {
    /// The configuration a strike or a churn join draws from: the agent
    /// vector on the sequential engine, the counts on the batched one.
    type Config: ?Sized + ToOwned;

    /// Advance one stride (sequential) or one batch (batched), truncated
    /// so the clock does not pass `limit` interactions, and return its
    /// length. Re-aims an adaptive adversary at the live census first.
    fn advance(&mut self, opts: &RunOptions, limit: u64) -> u64;

    /// The convergence predicate's current output.
    fn output(&self) -> Option<u32>;

    /// The clock.
    fn clock(&self) -> &Clock;

    /// Current population size.
    fn population(&self) -> u64;

    /// The live configuration.
    fn config(&self) -> &Self::Config;

    /// Apply one fault strike; `initial` is the configuration at the
    /// start of the run (rejoining victims draw from it).
    fn strike(&mut self, initial: &Self::Config, action: &FaultAction);

    /// Poisson join/leave events covering a step of `len` interactions;
    /// joins draw from `initial`.
    fn churn_events(&mut self, churn: &ChurnProcess, initial: &Self::Config, len: u64);

    /// The live opinion tally.
    fn opinion_census(&self) -> OpinionCensus;

    /// Out-of-band observations for the result.
    fn notes(&self) -> Vec<RunNote>;

    /// Interactions executed so far.
    fn interactions(&self) -> u64 {
        self.clock().interactions
    }

    /// Parallel time elapsed.
    fn parallel_time(&self) -> f64 {
        self.clock().parallel_time(self.population())
    }
}

/// Run until the protocol converges or the budget is exhausted, calling
/// `observe` at the top of every iteration, before the output check.
pub(crate) fn run<S: Stepper>(
    sim: &mut S,
    opts: &RunOptions,
    mut observe: impl FnMut(&S),
) -> RunResult {
    loop {
        observe(sim);
        if let Some(output) = sim.output() {
            return finish(sim, RunStatus::Converged, Some(output));
        }
        if sim.interactions() >= opts.max_interactions {
            return finish(sim, RunStatus::Exhausted, None);
        }
        sim.advance(opts, opts.max_interactions);
    }
}

/// Run under a list of faults: advance to each fault's parallel time (the
/// step straddling it is truncated to land exactly on it), strike, and
/// keep running; after the last fault, [`run`] to convergence or budget.
/// Faults fire in time order; faults with the same time fire in list
/// order. Each strike opens a [`FaultRecord`] that the first convergence
/// observed afterwards closes; a record still open when the next fault
/// fires or the budget ends keeps a `NaN` recovery time. No faults is
/// [`run`].
pub(crate) fn run_faulted<S: Stepper>(
    sim: &mut S,
    opts: &RunOptions,
    faults: &[FaultSpec],
) -> RunResult {
    if faults.is_empty() {
        return run(sim, opts, |_| {});
    }
    let n = sim.population() as f64;
    let initial = sim.config().to_owned();
    let mut records: Vec<FaultRecord> = Vec::new();
    let mut open: Option<usize> = None;
    let close = |record: &mut FaultRecord, t: f64, output: u32| {
        record.recovery_time = t - record.at;
        record.output_after = Some(output);
    };

    let mut schedule = faults.to_vec();
    // Stable: tied faults keep their list order.
    schedule.sort_by(|a, b| a.at().partial_cmp(&b.at()).expect("finite fault times"));
    for spec in schedule {
        let target = (spec.at().max(0.0) * n).ceil() as u64;
        if target > opts.max_interactions {
            break; // scheduled beyond the budget: never fires
        }
        while sim.interactions() < target {
            if let (Some(k), Some(output)) = (open, sim.output()) {
                close(&mut records[k], sim.parallel_time(), output);
                open = None;
            }
            sim.advance(opts, target);
        }
        let output_before = sim.output();
        if let (Some(k), Some(output)) = (open, output_before) {
            close(&mut records[k], sim.parallel_time(), output);
        }
        sim.strike(initial.borrow(), &spec.action());
        records.push(FaultRecord {
            at: sim.parallel_time(),
            hook: spec.to_string(),
            output_before,
            output_after: None,
            recovery_time: f64::NAN,
        });
        open = Some(records.len() - 1);
    }

    let mut r = run(sim, opts, |_| {});
    if let (Some(k), Some(output)) = (open, r.output) {
        close(&mut records[k], r.parallel_time, output);
    }
    r.faults = records;
    r
}

/// Run under a steady-state churn process until `stop_at` parallel time:
/// join/leave events after every step, and a [`ChurnSample`] each time the
/// clock crosses a multiple of the process's sampling period.
///
/// Convergence does not stop a churned run; the status is
/// [`RunStatus::Converged`] iff the predicate fires at the end. Steps are
/// never truncated at `stop_at` (the run halts at the first step boundary
/// past it), which keeps checkpointed and uninterrupted runs on the same
/// RNG trajectory.
pub(crate) fn run_churned<S: Stepper>(
    sim: &mut S,
    opts: &RunOptions,
    churn: &ChurnProcess,
    initial: &S::Config,
    stop_at: f64,
) -> RunResult {
    let mut next_mark = churn.next_mark(sim.parallel_time());
    let mut series: Vec<ChurnSample> = Vec::new();
    while sim.parallel_time() < stop_at && sim.interactions() < opts.max_interactions {
        let len = sim.advance(opts, opts.max_interactions);
        sim.churn_events(churn, initial, len);
        let clock = sim.parallel_time();
        if clock >= next_mark {
            series.push(churn_sample(sim));
            next_mark = churn.next_mark(clock);
        }
    }
    let output = sim.output();
    let status = if output.is_some() {
        RunStatus::Converged
    } else {
        RunStatus::Exhausted
    };
    let mut r = finish(sim, status, output);
    r.series = series;
    r
}

/// The health sample a churned run records at each sampling mark: the
/// top opinion's support as a share of the population.
fn churn_sample<S: Stepper>(sim: &S) -> ChurnSample {
    let census = sim.opinion_census();
    let top = census.tallies().iter().map(|&(_, c)| c).max().unwrap_or(0);
    let population = sim.population();
    ChurnSample {
        t: sim.parallel_time(),
        population,
        plurality_frac: top as f64 / population as f64,
        output: sim.output(),
    }
}

/// The result at the current clock; callers attach faults or a series.
pub(crate) fn finish<S: Stepper>(sim: &S, status: RunStatus, output: Option<u32>) -> RunResult {
    RunResult {
        status,
        output,
        interactions: sim.interactions(),
        parallel_time: sim.parallel_time(),
        faults: Vec::new(),
        series: Vec::new(),
        notes: sim.notes(),
    }
}

#[cfg(test)]
mod tests {
    use crate::fault::FaultSpec;
    use crate::protocol::{Protocol, SimRng};
    use crate::result::RunOptions;
    use crate::sim::Simulation;

    /// Never converges, so every scheduled fault fires.
    struct Idle;
    impl Protocol for Idle {
        type State = u8;
        fn interact(&mut self, _t: u64, _a: &mut u8, _b: &mut u8, _rng: &mut SimRng) {}
        fn converged(&self, _states: &[u8]) -> Option<u32> {
            None
        }
    }

    #[test]
    fn faults_fire_in_time_order_and_ties_in_list_order() {
        let faults =
            FaultSpec::parse_list("churn@80:0.1,corrupt@20:0.2,inject@20:0.3:2,churn@5:0.1")
                .expect("fault specs");
        let mut sim = Simulation::new(Idle, vec![0u8; 50], 3);
        let r = sim.run_faulted(&RunOptions::with_parallel_time_budget(50, 100.0), &faults);
        let fired: Vec<(f64, &str)> = r.faults.iter().map(|f| (f.at, f.hook.as_str())).collect();
        assert_eq!(
            fired,
            [
                (5.0, "churn@5:0.1"),
                (20.0, "corrupt@20:0.2"),
                (20.0, "inject@20:0.3:2"),
                (80.0, "churn@80:0.1"),
            ]
        );
    }
}
