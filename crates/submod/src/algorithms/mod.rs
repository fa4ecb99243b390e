//! Algorithms for unconstrained normalized submodular maximization and the
//! cardinality-constrained variant, as described in Sections 3 and 5 of the
//! paper, plus baselines used in tests.

pub mod cardinality;
pub mod cleanup;
pub mod exhaustive;
pub mod greedy;
pub mod lazy;
pub mod marginal_greedy;

use crate::bitset::BitSet;

/// Whether candidate `(score, elem)` beats the incumbent `(best_score,
/// best_elem)` in an eager argmax scan.
///
/// Scores are compared with [`f64::total_cmp`] — the same total order the
/// lazy variants' heaps use — so eager and lazy selections agree on every
/// input, including `NaN` (ranked above `+∞`, like the heaps rank it) and
/// `-0.0` vs `+0.0` (distinct but deterministically ordered). Ties break
/// toward the smaller element index, again matching the heap ordering;
/// `partial_cmp`-style `>` comparisons would instead leave the winner
/// dependent on scan order (and silently freeze a leading `NaN` in place).
pub(crate) fn better_score(score: f64, elem: usize, best_score: f64, best_elem: usize) -> bool {
    match score.total_cmp(&best_score) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Equal => elem < best_elem,
        std::cmp::Ordering::Less => false,
    }
}

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
    /// non-positive (MarginalGreedy only; empty for other algorithms).
    pub free_elements: Vec<usize>,
    /// Number of candidate (re-)evaluations performed; lazy variants do
    /// fewer of these than their eager counterparts.
    pub evaluations: u64,
    /// True when the run stopped early — on a wall-clock deadline or a
    /// benefit floor — rather than running its stopping rule to
    /// convergence (anytime mode; see the `deadline` / `benefit_floor`
    /// fields of the greedy configs).
    pub truncated: bool,
    /// Certified headroom: `Σ max(0, m̂(e))` over candidates outside the
    /// selected set, where `m̂(e)` is the last observed marginal of `e`
    /// (stale values are upper bounds under submodularity). Under the
    /// monotonicity heuristic, `value + remaining_bound` upper-bounds the
    /// optimal value over the candidate set — the raw material of a gap
    /// certificate. `+∞` when the run stopped before observing every
    /// candidate at least once (the bound is then vacuous, never wrong).
    pub remaining_bound: f64,
}

impl Outcome {
    pub(crate) fn new(universe: usize) -> Self {
        Outcome {
            set: BitSet::empty(universe),
            value: 0.0,
            picks: Vec::new(),
            free_elements: Vec::new(),
            evaluations: 0,
            truncated: false,
            remaining_bound: 0.0,
        }
    }
}

/// Whether an anytime deadline has passed (`None` never fires).
#[inline]
pub(crate) fn past_deadline(deadline: Option<std::time::Instant>) -> bool {
    // mqo-lint: allow(wall-clock) -- THE sanctioned budget check: every anytime deadline in the workspace routes through here
    deadline.is_some_and(|d| std::time::Instant::now() >= d)
}
