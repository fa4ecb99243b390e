//! Removal cleanup — an *extension* beyond the paper's Algorithm 2.
//!
//! When `f` satisfies the submodularity assumption, every element accepted
//! by MarginalGreedy keeps a non-negative marginal forever, so removal can
//! never help. On real materialization-benefit functions the assumption can
//! fail: an element picked early (e.g. a sub-join that accelerated a larger
//! node's production) may become pure overhead once the larger node is
//! itself materialized. This pass greedily drops elements whose removal
//! increases `f`, until no single removal helps — a cheap downward local
//! search that is a no-op on genuinely submodular inputs.
//!
//! Used by the ablation experiments to quantify how far the workload's
//! `mb` deviates from the monotonicity heuristic.

use crate::bitset::BitSet;
use crate::function::SetFunction;

use super::greedy::Rank;

/// Result of a cleanup pass.
#[derive(Clone, Debug)]
pub struct CleanupOutcome {
    /// The reduced set.
    pub set: BitSet,
    /// `f(set)`.
    pub value: f64,
    /// Elements removed, in removal order.
    pub removed: Vec<usize>,
    /// Oracle evaluations spent.
    pub evaluations: u64,
}

/// Greedily removes elements while any single removal strictly increases
/// `f`; always removes the best (largest-gain) removal first.
pub fn cleanup<F: SetFunction>(f: &F, start: &BitSet) -> CleanupOutcome {
    let mut set = start.clone();
    let mut value = f.eval(&set);
    let mut evaluations = 1u64;
    let mut removed = Vec::new();

    loop {
        let mut best: Option<Rank> = None;
        for e in set.iter().collect::<Vec<_>>() {
            let rank = Rank {
                score: f.eval(&set.without(e)),
                element: e,
            };
            evaluations += 1;
            if rank.score > value && best.is_none_or(|b| rank > b) {
                best = Some(rank);
            }
        }
        match best {
            Some(best) => {
                set.remove(best.element);
                value = best.score;
                removed.push(best.element);
            }
            None => break,
        }
    }

    CleanupOutcome {
        set,
        value,
        removed,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::marginal_greedy::marginal_greedy_canonical;
    use crate::function::FnSetFunction;
    use crate::instances::random::{random_coverage_minus_cost, CoverageParams};

    #[test]
    fn never_decreases_value() {
        // Even under submodularity a greedy output may admit improving
        // removals (marginals of early picks can turn negative after later
        // additions); cleanup must only ever improve the value.
        for seed in 0..10 {
            let f = random_coverage_minus_cost(CoverageParams::default(), 1.0, seed);
            let out = marginal_greedy_canonical(&f);
            let cleaned = cleanup(&f, &out.set);
            assert!(cleaned.value >= out.value - 1e-9, "seed {seed}");
            assert!(cleaned.set.is_subset(&out.set));
        }
    }

    #[test]
    fn removes_harmful_element() {
        // f rewards {0} but penalizes {0,1} jointly: starting from {0,1}
        // cleanup must drop 1.
        let f = FnSetFunction::new(2, |s: &BitSet| match (s.contains(0), s.contains(1)) {
            (false, false) => 0.0,
            (true, false) => 5.0,
            (false, true) => 1.0,
            (true, true) => 3.0,
        });
        let start = BitSet::full(2);
        let out = cleanup(&f, &start);
        assert_eq!(out.set, BitSet::from_iter(2, [0]));
        assert_eq!(out.value, 5.0);
        assert_eq!(out.removed, vec![1]);
    }

    #[test]
    fn removal_order_is_best_first() {
        // Both removals improve; the larger gain goes first.
        let f = FnSetFunction::new(2, |s: &BitSet| match (s.contains(0), s.contains(1)) {
            (false, false) => 10.0,
            (true, false) => 8.0, // removing 1 from {0,1} gains 8-0
            (false, true) => 3.0, // removing 0 from {0,1} gains 3-0
            (true, true) => 0.0,
        });
        let out = cleanup(&f, &BitSet::full(2));
        assert_eq!(out.removed, vec![1, 0]);
        assert_eq!(out.value, 10.0);
    }

    #[test]
    fn empty_start_is_noop() {
        let f = FnSetFunction::new(3, |s: &BitSet| s.len() as f64);
        let out = cleanup(&f, &BitSet::empty(3));
        assert!(out.set.is_empty());
        assert!(out.removed.is_empty());
    }
}
