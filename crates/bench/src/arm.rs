//! Engine-erased experiment arms.
//!
//! An *arm* is one protocol-under-test inside a scenario: a paper protocol
//! on the sequential engine, a table protocol on either engine,
//! or a bespoke closure. The [`ErasedArm`] trait erases the concrete
//! protocol and engine types behind one uniform trial interface, so every
//! arm — regardless of which simulator it needs — honors `--engine`,
//! ensemble threading, census collection and per-trial seed derivation the
//! same way. This replaces the previously split `run_trial` /
//! `run_usd_baseline` code paths.

use plurality_core::Tuning;
use pp_engine::{
    AdversarySpec, BatchSimulation, Census, FaultSpec, RunOptions, RunStatus, SchedulerSpec,
    SeqTable, Simulation, TableProtocol,
};
use pp_workloads::Counts;

use crate::harness::Engine;
use crate::protocols::{run_trial, Algo, TrialOutcome};

/// Largest population the sequential engine is allowed for table arms
/// (per-agent state at 10⁸ agents is hundreds of megabytes per trial and
/// hours of walltime).
pub const SEQ_CAP: usize = 1_000_000;

/// Everything one trial needs besides the seed and the engine.
#[derive(Debug, Clone)]
pub struct TrialSpec<'a> {
    /// The initial opinion distribution.
    pub counts: &'a Counts,
    /// Parallel-time budget.
    pub budget: f64,
    /// Protocol tuning constants.
    pub tuning: Tuning,
    /// Collect the distinct-state census (slower; sequential engine only).
    pub census: bool,
    /// Fault hooks applied during the run (empty = fault-free).
    pub faults: Vec<FaultSpec>,
    /// Interaction scheduler (`None` = uniform hot path).
    pub scheduler: Option<SchedulerSpec>,
    /// Byzantine adversary (`None` = all participants honest).
    pub adversary: Option<AdversarySpec>,
}

impl<'a> TrialSpec<'a> {
    /// A spec with default tuning, no census, no faults.
    pub fn new(counts: &'a Counts, budget: f64) -> Self {
        Self {
            counts,
            budget,
            tuning: Tuning::default(),
            census: false,
            faults: Vec::new(),
            scheduler: None,
            adversary: None,
        }
    }
}

/// An engine-erased experiment arm.
pub trait ErasedArm: Send + Sync {
    /// Row label ("simple", "usd", "3-state", …).
    fn label(&self) -> &str;

    /// Whether the arm can switch engines (`--engine`). Arms tied to the
    /// per-agent `Protocol` interface always run sequentially.
    fn engine_aware(&self) -> bool {
        false
    }

    /// Largest population this arm accepts on `engine`, if capped. The
    /// scenario layer skips grid points above the cap (with a note) rather
    /// than melting the machine.
    fn max_n(&self, engine: Engine) -> Option<usize> {
        let _ = engine;
        None
    }

    /// Run one trial.
    fn run(&self, spec: &TrialSpec, engine: Engine, seed: u64) -> TrialOutcome;
}

/// A boxed arm, as stored in scenario definitions.
pub type Arm = Box<dyn ErasedArm>;

// ---------------------------------------------------------------------------
// Paper-protocol arms (sequential engine).

struct ProtocolArm {
    label: String,
    algo: Algo,
    /// Overrides the spec tuning when set (for tuning-comparison arms).
    tuning: Option<Tuning>,
}

impl ErasedArm for ProtocolArm {
    fn label(&self) -> &str {
        &self.label
    }

    fn run(&self, spec: &TrialSpec, _engine: Engine, seed: u64) -> TrialOutcome {
        run_trial(self.algo, spec, self.tuning.unwrap_or(spec.tuning), seed)
    }
}

/// One of the paper's plurality protocols as an arm. Runs on the
/// sequential engine (the `Θ(k + log n)`-state machines are not table
/// protocols).
pub fn protocol(algo: Algo) -> Arm {
    Box::new(ProtocolArm {
        label: algo.name().to_string(),
        algo,
        tuning: None,
    })
}

/// A paper protocol with a fixed tuning and its own label, for arms that
/// compare tuning variants side by side.
pub fn protocol_tuned(label: impl Into<String>, algo: Algo, tuning: Tuning) -> Arm {
    Box::new(ProtocolArm {
        label: label.into(),
        algo,
        tuning: Some(tuning),
    })
}

// ---------------------------------------------------------------------------
// Table-protocol arms (engine-erased).

struct TableArm<P, F> {
    label: String,
    factory: F,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P, F> ErasedArm for TableArm<P, F>
where
    P: TableProtocol + Send + Sync,
    F: Fn(&Counts) -> (P, Vec<u64>) + Send + Sync,
{
    fn label(&self) -> &str {
        &self.label
    }

    fn engine_aware(&self) -> bool {
        true
    }

    fn max_n(&self, engine: Engine) -> Option<usize> {
        (engine == Engine::Seq).then_some(SEQ_CAP)
    }

    fn run(&self, spec: &TrialSpec, engine: Engine, seed: u64) -> TrialOutcome {
        let (table, init) = (self.factory)(spec.counts);
        let n: u64 = init.iter().sum();
        let expected = u32::from(spec.counts.plurality());
        let opts = RunOptions::with_parallel_time_budget(n as usize, spec.budget);
        let (result, census) = match engine {
            Engine::Batch => {
                let mut sim = BatchSimulation::new(table, init, seed);
                if let Some(sched) = spec.scheduler {
                    sim.set_scheduler(sched);
                }
                if let Some(adv) = spec.adversary {
                    sim.set_adversary(adv);
                }
                (sim.run_faulted(&opts, &spec.faults), None)
            }
            Engine::Seq => {
                let states = SeqTable::<P>::initial_states(&init);
                let mut sim = Simulation::new(SeqTable::new(table), states, seed);
                if let Some(sched) = spec.scheduler {
                    sim.set_scheduler(sched);
                }
                if let Some(adv) = spec.adversary {
                    sim.set_adversary(adv);
                }
                if spec.census {
                    let mut c = Census::new();
                    let r = sim.run_with_census(&opts, &mut c);
                    (r, Some(c.len()))
                } else {
                    (sim.run_faulted(&opts, &spec.faults), None)
                }
            }
        };
        TrialOutcome {
            converged: result.status == RunStatus::Converged,
            correct: result.is_correct(expected),
            parallel_time: result.parallel_time,
            init_end: None,
            le_done: None,
            census,
            faults: result.faults,
        }
    }
}

/// A table protocol as an engine-erased arm: `factory` builds the table
/// and its initial configuration from the grid point's opinion counts.
/// The arm runs on whichever engine `--engine` selects — batched
/// (multinomial tallies) or sequential via [`pp_engine::SeqTable`]
/// (capped at [`SEQ_CAP`] agents).
///
/// Correctness is judged against the planted plurality, so the table's
/// output values must be opinion identifiers (true for USD and the
/// majority substrates).
pub fn table<P, F>(label: impl Into<String>, factory: F) -> Arm
where
    P: TableProtocol + Send + Sync + 'static,
    F: Fn(&Counts) -> (P, Vec<u64>) + Send + Sync + 'static,
{
    Box::new(TableArm {
        label: label.into(),
        factory,
        _marker: std::marker::PhantomData,
    })
}

/// The undecided-state-dynamics baseline as an engine-erased arm.
pub fn usd() -> Arm {
    table("usd", |counts: &Counts| {
        let t = pp_baselines::UsdTable::new(counts.k());
        let init = t.initial_counts(counts.supports());
        (t, init)
    })
}

// ---------------------------------------------------------------------------
// Closure arms.

struct FnArm<F> {
    label: String,
    f: F,
}

impl<F> ErasedArm for FnArm<F>
where
    F: Fn(&TrialSpec, u64) -> TrialOutcome + Send + Sync,
{
    fn label(&self) -> &str {
        &self.label
    }

    fn run(&self, spec: &TrialSpec, _engine: Engine, seed: u64) -> TrialOutcome {
        (self.f)(spec, seed)
    }
}

/// A bespoke sequential arm from a closure, for protocols outside both the
/// `Algo` set and the table interface (e.g. the cancel/split majority).
pub fn from_fn<F>(label: impl Into<String>, f: F) -> Arm
where
    F: Fn(&TrialSpec, u64) -> TrialOutcome + Send + Sync + 'static,
{
    Box::new(FnArm {
        label: label.into(),
        f,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usd_arm_agrees_across_both_engines() {
        let counts = Counts::bias_one(801, 3);
        let spec = TrialSpec::new(&counts, 1.0e4);
        let arm = usd();
        assert!(arm.engine_aware());
        for engine in [Engine::Seq, Engine::Batch] {
            let out = arm.run(&spec, engine, 11);
            assert!(out.converged, "usd did not converge on {}", engine.name());
        }
        assert_eq!(arm.max_n(Engine::Seq), Some(SEQ_CAP));
        assert_eq!(arm.max_n(Engine::Batch), None);
    }

    #[test]
    fn protocol_arm_runs_and_ignores_engine() {
        let counts = Counts::bias_one(401, 3);
        let spec = TrialSpec::new(&counts, 5.0e5);
        let arm = protocol(Algo::Simple);
        assert!(!arm.engine_aware());
        let out = arm.run(&spec, Engine::Batch, 7);
        assert!(out.converged);
    }

    #[test]
    fn table_arm_census_counts_occupied_states_on_seq() {
        let counts = Counts::bias_one(401, 3);
        let mut spec = TrialSpec::new(&counts, 1.0e4);
        spec.census = true;
        let out = usd().run(&spec, Engine::Seq, 5);
        // USD over k = 3 occupies at most 4 states (blank + opinions).
        let states = out.census.expect("census requested on seq");
        assert!((2..=4).contains(&states), "states = {states}");
        // The batched engine cannot collect a per-agent census.
        assert!(usd().run(&spec, Engine::Batch, 5).census.is_none());
    }
}
