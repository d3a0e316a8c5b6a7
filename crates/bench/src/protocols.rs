//! Uniform driver for the three plurality protocols (and shared outcome
//! bookkeeping). Engine-erased arms — including the USD baseline — live
//! in [`crate::arm`].

use plurality_core::{ImprovedAlgorithm, SimpleAlgorithm, Tuning, UnorderedAlgorithm};
use pp_engine::{Census, FaultRecord, RunOptions, RunStatus, Simulation};

use crate::arm::TrialSpec;

/// Which protocol to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// `SimpleAlgorithm` (ordered opinions).
    Simple,
    /// The Appendix B unordered variant.
    Unordered,
    /// `ImprovedAlgorithm` (pruning).
    Improved,
}

impl Algo {
    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Simple => "simple",
            Algo::Unordered => "unordered",
            Algo::Improved => "improved",
        }
    }
}

/// Outcome of a single trial.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// The run converged (someone won and everyone agreed).
    pub converged: bool,
    /// The run converged *to the planted plurality*.
    pub correct: bool,
    /// Parallel time consumed (budget, if exhausted).
    pub parallel_time: f64,
    /// Interaction index at which the initialization ended, if recorded.
    pub init_end: Option<u64>,
    /// Interaction index of the leader/defender release, if recorded.
    pub le_done: Option<u64>,
    /// Distinct states visited (only when census tracking was requested).
    pub census: Option<usize>,
    /// Per-fault-epoch recovery bookkeeping (empty without faults).
    pub faults: Vec<FaultRecord>,
}

/// Upper median of the parallel times over *all* trials (budget-capped
/// included) — the convention the experiment tables use for mixed
/// converged/exhausted samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median_parallel_time(outcomes: &[TrialOutcome]) -> f64 {
    let mut t: Vec<f64> = outcomes.iter().map(|o| o.parallel_time).collect();
    t.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    t[t.len() / 2]
}

/// Run one trial of `algo` on the spec's counts with the given seed and
/// tuning. Honors the spec's faults, scheduler and adversary; census
/// collection (slower) takes precedence over fault injection when both
/// are requested.
pub fn run_trial(algo: Algo, spec: &TrialSpec, tuning: Tuning, seed: u64) -> TrialOutcome {
    let assignment = spec.counts.assignment();
    let n = assignment.n();
    let expected = assignment.plurality();
    let opts = RunOptions::with_parallel_time_budget(n, spec.budget);

    macro_rules! drive {
        ($ctor:path) => {{
            let (proto, states) = $ctor(&assignment, tuning);
            let mut sim = Simulation::new(proto, states, seed);
            if let Some(sched) = spec.scheduler {
                sim.set_scheduler(sched);
            }
            if let Some(adv) = spec.adversary {
                sim.set_adversary(adv);
            }
            let (result, census_len) = if spec.census {
                let mut c = Census::new();
                let r = sim.run_with_census(&opts, &mut c);
                (r, Some(c.len()))
            } else {
                (sim.run_faulted(&opts, &spec.faults), None)
            };
            let ms = *sim.protocol().milestones();
            TrialOutcome {
                converged: result.status == RunStatus::Converged,
                correct: result.is_correct(expected),
                parallel_time: result.parallel_time,
                init_end: ms.init_end,
                le_done: ms.le_done,
                census: census_len,
                faults: result.faults,
            }
        }};
    }

    match algo {
        Algo::Simple => drive!(SimpleAlgorithm::new),
        Algo::Unordered => drive!(UnorderedAlgorithm::new),
        Algo::Improved => drive!(ImprovedAlgorithm::new),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_workloads::Counts;

    #[test]
    fn all_three_protocols_drive() {
        let counts = Counts::bias_one(401, 3);
        let spec = TrialSpec::new(&counts, 500_000.0);
        for algo in [Algo::Simple, Algo::Unordered, Algo::Improved] {
            let out = run_trial(algo, &spec, Tuning::default(), 7);
            assert!(out.converged, "{} did not converge", algo.name());
            assert!(out.faults.is_empty(), "no plan, no fault records");
        }
    }

    #[test]
    fn census_is_collected_when_requested() {
        let counts = Counts::bias_one(401, 3);
        let mut spec = TrialSpec::new(&counts, 500_000.0);
        spec.census = true;
        let out = run_trial(Algo::Simple, &spec, Tuning::default(), 3);
        let states = out.census.expect("census requested");
        assert!(states > 10, "suspiciously few states: {states}");
    }
}
