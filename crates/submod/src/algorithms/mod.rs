//! Algorithms for unconstrained normalized submodular maximization and the
//! cardinality-constrained variant, as described in Sections 3 and 5 of the
//! paper, plus baselines used in tests. Greedy, MarginalGreedy and their
//! lazy accelerations are one kernel, [`greedy::select`].

pub mod cardinality;
pub mod cleanup;
pub mod exhaustive;
pub mod greedy;
pub mod marginal_greedy;

use crate::bitset::BitSet;

/// One accepted pick of a greedy run.
#[derive(Clone, Debug)]
pub struct Pick {
    /// The element added.
    pub element: usize,
    /// The selection score at the time of the pick: the marginal-benefit to
    /// cost ratio for MarginalGreedy, the benefit for Greedy.
    pub score: f64,
    /// Objective value `f(X)` just after the pick.
    pub value_after: f64,
}

/// The result of a greedy run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The selected set.
    pub set: BitSet,
    /// `f(set)`.
    pub value: f64,
    /// Accepted picks, in order.
    pub picks: Vec<Pick>,
    /// Elements added in the final phase because their additive cost was
    /// non-positive (ratio ranking only; empty under the benefit ranking).
    pub free_elements: Vec<usize>,
    /// Number of candidate (re-)evaluations performed; lazy variants do
    /// fewer of these than their eager counterparts.
    pub evaluations: u64,
    /// True when the run stopped early — on a wall-clock deadline or a
    /// benefit floor — rather than running its stopping rule to
    /// convergence (anytime mode; see [`greedy::Config`]).
    pub truncated: bool,
    /// Certified headroom: `Σ max(0, m̂(e))` over candidates outside the
    /// selected set, summed in index order, where `m̂(e)` is the last
    /// observed marginal of `e` (stale values are upper bounds under
    /// submodularity). Under the monotonicity heuristic,
    /// `value + remaining_bound` upper-bounds the optimal value over the
    /// candidate set — the raw material of a gap certificate. `+∞` when the
    /// run stopped before observing every candidate at least once (the
    /// bound is then vacuous, never wrong).
    pub remaining_bound: f64,
}
