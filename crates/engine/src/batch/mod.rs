//! Batched configuration-space simulation for small-state protocols.
//!
//! For protocols whose state space is a small finite set, the configuration
//! (one counter per state) is a sufficient statistic: the scheduler never
//! needs to know *which* agent holds a state, only *how many* do. The
//! engine in this module exploits that in two stages.
//!
//! **Collision-free batches.** Instead of touching two agents per step, the
//! engine draws the number of consecutive interactions in which no agent
//! participates twice — the birthday process, expected length `Θ(√n)`, see
//! [`birthday`]. Within such a batch every interaction reads the pre-batch
//! configuration, so the interactions commute and can be applied in any
//! order.
//!
//! **Multinomial tallies.** Because the batch's ordered pairs are drawn
//! i.i.d. from the configuration (with replacement — see *Accuracy* below),
//! the per-state participant counts follow a multinomial law. The fast
//! engine ([`BatchSimulation`]) therefore never samples individual pairs:
//! it splits the batch length into initiator counts with `O(S)` binomial
//! draws ([`multinomial`]), splits each initiator count into responder
//! counts the same way (or, for small counts, draws responders through an
//! `O(log S)` Fenwick-tree sampler, [`fenwick`]), and applies each distinct
//! ordered state pair `(a, b)` *once* with its multiplicity. Per-interaction
//! cost is thus **sub-constant** whenever batches are long: a batch of `ℓ`
//! interactions costs `O(S·√ℓ + S log S)` RNG-and-memory work in the worst
//! case, `o(ℓ)` for `ℓ ≫ S²`.
//!
//! The reference for it is the sequential engine ([`crate::Simulation`]
//! over [`crate::SeqTable`]), which draws every interaction's ordered pair
//! exactly as the model does.
//!
//! # Accuracy
//!
//! The engine samples batch participants *with replacement* from the
//! current configuration, which deviates from the exact
//! without-replacement hypergeometric law by `O(ℓ²/n)` total-variation
//! distance per batch — the standard trade-off in batched
//! population-protocol simulation. With `ℓ = Θ(√n)` the per-batch drift is
//! `O(1)` interactions' worth and the engine's observable statistics agree
//! with the sequential scheduler; the consistency tests in this module and
//! in `tests/engine_equivalence.rs` bound the divergence. A second,
//! strictly rarer effect: a with-replacement tally can overdraw a
//! nearly-empty state; such
//! infeasible tallies (probability `O(ℓ²/n)` per batch) are rejected and
//! redrawn, see [`BatchSimulation::step_batch`].
//!
//! # Which protocols qualify
//!
//! Any protocol expressible as a [`TableProtocol`] — a transition function
//! over a state space small enough to enumerate (`S` up to a few thousand)
//! whose convergence predicate reads only the per-state counts. Randomized
//! transitions are supported ([`TableProtocol::delta`] receives the
//! scheduler RNG); deterministic ones additionally get the
//! once-per-distinct-pair fast path by overriding
//! [`TableProtocol::is_deterministic`] to `true`. The paper's own protocols carry
//! `Θ(k + log n)` states *per phase-clock value* and milestone bookkeeping,
//! and stay on the sequential engine; the constant-state baselines (USD,
//! 3-state/4-state majority, epidemics) all run here.

pub mod birthday;
pub mod fenwick;
pub mod multinomial;
pub(crate) mod sim;
pub(crate) mod tally;

pub use fenwick::ShardedFenwick;
pub use sim::BatchSimulation;

use crate::protocol::SimRng;

/// A population protocol presented as a transition table over a small state
/// space `0..states()`, runnable on the configuration-space engine.
///
/// The `Send + Sync + 'static` supertraits let a simulation move onto a
/// service thread and run inside [`run_trials`](crate::ensemble::run_trials)
/// workers; every table here is a small value-type (often zero-sized), so
/// the bounds cost nothing in practice.
pub trait TableProtocol: Send + Sync + 'static {
    /// Size of the state space.
    fn states(&self) -> usize;

    /// Transition `(initiator, responder) → (initiator', responder')`.
    ///
    /// Randomized protocols (USD tie-breaking, lottery coin flips, …) draw
    /// from `rng`; deterministic ones ignore it and should keep the default
    /// [`is_deterministic`](Self::is_deterministic) so the batched engine
    /// may evaluate each distinct pair once per batch.
    fn delta(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize);

    /// Whether [`delta`](Self::delta) ignores its RNG. Deterministic tables
    /// are applied once per distinct ordered pair with multiplicity;
    /// randomized tables are evaluated once per interaction (still skipping
    /// all per-interaction *pair sampling*).
    ///
    /// Defaults to `false` — the safe choice: a randomized table routed
    /// through the deterministic fast path would silently apply one coin
    /// flip with multiplicity `m` instead of `m` flips, corrupting the
    /// dynamics with no error. Tables whose `delta` never touches `rng`
    /// should override this to `true` to unlock the fast path.
    fn is_deterministic(&self) -> bool {
        false
    }

    /// Convergence check on the configuration (`counts[s]` = agents in
    /// state `s`). Returning `Some(o)` stops the run with output `o`.
    fn output(&self, counts: &[u64]) -> Option<u32>;

    /// The opinion an agent in state `s` advocates, if any — what
    /// adversarial [`SchedulerSpec`](crate::SchedulerSpec)s bias on.
    /// `None` (the default) marks undecided/helper states, treated
    /// uniformly.
    fn opinion(&self, s: usize) -> Option<u32> {
        let _ = s;
        None
    }

    /// The state a freshly injected agent advocating `opinion` enters
    /// (the inverse of [`opinion`](Self::opinion) on fresh agents). `None`
    /// (the default) makes opinion-injection faults degrade to no-ops.
    fn opinion_state(&self, opinion: u32) -> Option<usize> {
        let _ = opinion;
        None
    }
}
