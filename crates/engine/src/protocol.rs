//! The [`Protocol`] trait: a population protocol as seen by the scheduler.

use rand::rngs::SmallRng;

use crate::fault::Replacement;

/// The RNG handed to transition functions.
///
/// A concrete type (rather than a generic parameter) keeps the hot
/// interaction loop monomorphic and the trait object-safe. `SmallRng` is a
/// non-cryptographic generator chosen for speed; experiments derive
/// independent seeds per trial via [`crate::rng::derive`].
pub type SimRng = SmallRng;

/// A population protocol: per-agent state plus a pairwise transition
/// function.
///
/// The scheduler calls [`interact`](Protocol::interact) once per interaction
/// with the (initiator, responder) pair. Protocols take `&mut self` so they
/// can record internal milestones (e.g. "first agent entered phase 0 at
/// interaction t"); the *agent-visible* protocol state must live in
/// [`State`](Protocol::State) only.
///
/// Most protocols in the paper are randomized only through the scheduler;
/// those that flip internal coins (e.g. role selection with probability 1/3)
/// draw from the provided RNG, which models the standard synthetic-coin
/// construction.
pub trait Protocol {
    /// Per-agent state.
    type State: Clone + Send + Sync + std::fmt::Debug;

    /// Apply one interaction at (zero-based) interaction index `t`.
    ///
    /// `a` is the initiator and `b` the responder; the model draws ordered
    /// pairs, and several of the paper's transitions are asymmetric (e.g.
    /// only the initiator's clock counter moves).
    fn interact(&mut self, t: u64, a: &mut Self::State, b: &mut Self::State, rng: &mut SimRng);

    /// Whether the configuration has reached the protocol's target, and if
    /// so which output (opinion identifier) it carries.
    ///
    /// Called periodically (not every step); it should be a pure function of
    /// the configuration. Returning `Some(o)` stops the run.
    fn converged(&self, states: &[Self::State]) -> Option<u32>;

    /// A canonical bounded encoding of an agent state for the state census.
    ///
    /// Two states must encode equal iff the protocol, implemented with
    /// minimal memory, could represent them identically. The default
    /// implementation panics; protocols that participate in census
    /// experiments override it.
    fn encode(&self, state: &Self::State) -> u64 {
        let _ = state;
        unimplemented!("this protocol does not provide a census encoding")
    }

    /// The state a fault-struck agent is replaced with, for the given
    /// [`Replacement`] kind.
    ///
    /// Returning `None` means the protocol cannot synthesize such a state
    /// and the strike leaves the victim untouched (for
    /// [`Replacement::Rejoin`] the engine instead restores the victim's
    /// *initial* state itself, so `None` is the correct answer there).
    /// The default supports no replacement at all, so faults degrade to
    /// no-ops on protocols that have not opted in.
    fn fault_state(&self, replacement: &Replacement, rng: &mut SimRng) -> Option<Self::State> {
        let _ = (replacement, rng);
        None
    }

    /// The opinion an agent in `state` currently advocates, if any — what
    /// adversarial [`SchedulerSpec`](crate::SchedulerSpec)s bias on.
    /// `None` (the default) marks undecided or helper agents, which
    /// schedulers treat uniformly.
    fn opinion_of(&self, state: &Self::State) -> Option<u32> {
        let _ = state;
        None
    }
}
