//! # exact-plurality
//!
//! A from-scratch Rust reproduction of *Population Protocols for Exact
//! Plurality Consensus: How a small chance of failure helps to eliminate
//! insignificant opinions* (PODC 2022).
//!
//! `n` anonymous agents hold one of `k` opinions and interact in uniformly
//! random pairs; the goal is that all agents agree on the initially most
//! frequent opinion even when its lead over the runner-up is a single agent.
//! The paper shows that accepting a `1 − n^(−Ω(1))` success probability
//! breaks the `Ω(k²)` state lower bound for always-correct protocols, and
//! gives three protocols; all three are implemented here together with every
//! substrate they rely on (phase clocks, junta election, exact majority,
//! leader election, load balancing, epidemic broadcast).
//!
//! This facade crate re-exports the workspace so that examples and downstream
//! users need a single dependency. See `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for the measured reproduction of every theorem.
//!
//! # Quickstart
//!
//! ```
//! use exact_plurality::prelude::*;
//!
//! // 600 agents, 4 opinions, plurality leads by exactly one agent.
//! let counts = Counts::bias_one(600, 4);
//! let assignment = counts.assignment();
//! let (protocol, states) = SimpleAlgorithm::new(&assignment, Tuning::default());
//! let mut sim = Simulation::new(protocol, states, 7);
//! let result = sim.run(&RunOptions::with_parallel_time_budget(600, 500_000.0));
//! assert_eq!(result.output, Some(assignment.plurality()));
//! ```

pub use plurality_core as core;
pub use pp_baselines as baselines;
pub use pp_clocks as clocks;
pub use pp_dynamics as dynamics;
pub use pp_engine as engine;
pub use pp_leader as leader;
pub use pp_majority as majority;
pub use pp_stats as stats;
pub use pp_workloads as workloads;

/// The most common imports for running the paper's protocols.
pub mod prelude {
    pub use plurality_core::improved::ImprovedAlgorithm;
    pub use plurality_core::simple::SimpleAlgorithm;
    pub use plurality_core::unordered::UnorderedAlgorithm;
    pub use plurality_core::Tuning;
    pub use pp_engine::{
        AdversarySpec, BatchSimulation, Census, FaultSpec, Protocol, RunOptions, RunResult,
        RunStatus, SchedulerSpec, SeqTable, SimRng, Simulation, TableProtocol,
    };
    pub use pp_workloads::{Counts, OpinionAssignment};
}
