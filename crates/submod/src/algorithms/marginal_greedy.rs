//! The MarginalGreedy algorithm (Algorithm 2) with the Section 5.1
//! optimizations.
//!
//! Given a decomposition `f = f_M − c`, the algorithm repeatedly picks the
//! element maximizing the marginal-benefit to cost ratio
//! `r(x, X) = f'_M(x, X) / c({x})` and stops as soon as the best ratio drops
//! to 1 or below (at which point adding any element could not increase `f`).
//! Elements with non-positive cost are added in a final phase: `f_M` is
//! monotone, so they can only raise the value of `f`.
//!
//! Under the canonical decomposition of Proposition 1 the output satisfies
//! the Theorem 1 guarantee, which Theorem 2 shows optimal unless P = NP.
//! The loop itself is the ratio-ranked greedy kernel, [`super::greedy`].

use crate::bitset::BitSet;
use crate::decompose::Decomposition;
use crate::function::SetFunction;

use super::greedy::{select, Evaluation, Ranking};
use super::Outcome;

pub use super::greedy::Config;

/// Runs MarginalGreedy over the candidate elements in `candidates`
/// (a subset of the ground set of `f`; pass `BitSet::full(n)` for the whole
/// universe): the eager, ratio-ranked run of the greedy kernel.
///
/// `decomp` supplies the additive costs `c` and thereby the monotone part
/// `f_M = f + c`. Use [`Decomposition::canonical`] for the guarantee of
/// Theorem 1; any valid decomposition yields a correct (if possibly weaker)
/// algorithm.
///
/// The paper remarks (end of Section 3.1) that Sviridenko's knapsack ratio
/// greedy run with budget `c(Θ)`, for `Θ` an optimal set, picks the same
/// set; since `c(Θ)` is unknown in advance, MarginalGreedy replaces the
/// budget check with the ratio-above-1 stopping rule.
pub fn marginal_greedy<F: SetFunction>(
    f: &F,
    decomp: &Decomposition,
    candidates: &BitSet,
    config: Config,
) -> Outcome {
    select(
        f,
        Ranking::Ratio(decomp),
        Evaluation::Eager,
        candidates,
        config,
    )
}

/// Convenience wrapper: canonical decomposition + full universe + defaults.
pub fn marginal_greedy_canonical<F: SetFunction>(f: &F) -> Outcome {
    let decomp = Decomposition::canonical(f);
    marginal_greedy(f, &decomp, &BitSet::full(f.universe()), Config::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::exhaustive::exhaustive_max;
    use crate::bounds::theorem1_lower_bound;
    use crate::function::{FnSetFunction, SetFunction};
    use crate::instances::profitted::ProfittedMaxCoverage;
    use crate::instances::random::{random_coverage_minus_cost, CoverageParams};

    #[test]
    fn empty_universe() {
        let f = FnSetFunction::new(0, |_s: &BitSet| 0.0);
        let out = marginal_greedy_canonical(&f);
        assert!(out.set.is_empty());
        assert_eq!(out.value, 0.0);
    }

    #[test]
    fn picks_obviously_profitable_elements() {
        // f(S) = 10·|S ∩ {0}| + 1·|S ∩ {1}| − tiny costs: both elements
        // profitable, 0 picked first.
        let f = FnSetFunction::new(2, |s: &BitSet| {
            let mut v = 0.0;
            if s.contains(0) {
                v += 10.0;
            }
            if s.contains(1) {
                v += 1.0;
            }
            v
        });
        let decomp = Decomposition::from_costs(vec![1.0, 0.5]);
        let out = marginal_greedy(&f, &decomp, &BitSet::full(2), Config::default());
        assert!(out.set.contains(0) && out.set.contains(1));
        assert_eq!(out.picks[0].element, 0);
        assert_eq!(out.value, 11.0);
    }

    #[test]
    fn rejects_unprofitable_elements() {
        // Element 1 has marginal f_M below its cost: ratio < 1, never added.
        let f = FnSetFunction::new(2, |s: &BitSet| {
            let mut v = 0.0;
            if s.contains(0) {
                v += 5.0;
            }
            if s.contains(1) {
                v -= 3.0;
            }
            v
        });
        let decomp = Decomposition::from_costs(vec![1.0, 1.0]);
        let out = marginal_greedy(&f, &decomp, &BitSet::full(2), Config::default());
        assert!(out.set.contains(0));
        assert!(!out.set.contains(1));
        assert_eq!(out.value, 5.0);
    }

    #[test]
    fn free_elements_added_at_end() {
        let f = FnSetFunction::new(2, |s: &BitSet| s.len() as f64);
        let decomp = Decomposition::from_costs(vec![0.5, -1.0]);
        let out = marginal_greedy(&f, &decomp, &BitSet::full(2), Config::default());
        assert!(out.set.contains(1), "negative-cost element must be added");
        assert_eq!(out.free_elements, vec![1]);
    }

    #[test]
    fn respects_candidate_restriction() {
        let f = FnSetFunction::new(3, |s: &BitSet| 10.0 * s.len() as f64);
        let decomp = Decomposition::from_costs(vec![1.0; 3]);
        let candidates = BitSet::from_iter(3, [0, 2]);
        let out = marginal_greedy(&f, &decomp, &candidates, Config::default());
        assert!(!out.set.contains(1));
        assert_eq!(out.set.len(), 2);
    }

    #[test]
    fn respects_cardinality() {
        let f = FnSetFunction::new(5, |s: &BitSet| 10.0 * s.len() as f64);
        let decomp = Decomposition::from_costs(vec![1.0; 5]);
        let out = marginal_greedy(
            &f,
            &decomp,
            &BitSet::full(5),
            Config {
                max_picks: Some(2),
                ..Default::default()
            },
        );
        assert_eq!(out.set.len(), 2);
    }

    #[test]
    fn value_never_negative_on_normalized_input() {
        // Each accepted pick strictly increases f and the free phase cannot
        // decrease it, so f(X) >= f(∅) = 0.
        for seed in 0..20 {
            let f = random_coverage_minus_cost(CoverageParams::default(), 1.5, seed);
            let out = marginal_greedy_canonical(&f);
            assert!(out.value >= -1e-9, "seed {seed}: value {}", out.value);
        }
    }

    #[test]
    fn theorem1_bound_holds_on_profitted_instances() {
        for (blocks, size, redundant, gamma) in [
            (2, 3, 1, 1.0),
            (3, 3, 2, 2.0),
            (2, 4, 3, 0.5),
            (4, 2, 1, 4.0),
        ] {
            let inst = ProfittedMaxCoverage::hard_instance(blocks, size, redundant, gamma);
            let n = inst.universe();
            if n > 14 {
                continue;
            }
            let decomp = Decomposition::canonical(&inst);
            let out = marginal_greedy(&inst, &decomp, &BitSet::full(n), Config::default());
            let (opt_set, opt_val) = exhaustive_max(&inst, &BitSet::full(n));
            let c_opt = decomp.cost_of(&opt_set);
            let bound = theorem1_lower_bound(opt_val, c_opt);
            assert!(
                out.value >= bound - 1e-9,
                "Theorem 1 violated: got {}, bound {bound}, opt {opt_val} \
                 (blocks={blocks}, size={size}, redundant={redundant}, gamma={gamma})",
                out.value
            );
        }
    }

    #[test]
    fn picks_are_recorded_in_order_with_increasing_sets() {
        let f = random_coverage_minus_cost(CoverageParams::default(), 0.8, 7);
        let out = marginal_greedy_canonical(&f);
        let mut running = BitSet::empty(f.universe());
        for p in &out.picks {
            assert!(running.insert(p.element), "element picked twice");
            assert!(p.score > 1.0);
        }
        for e in &out.free_elements {
            running.insert(*e);
        }
        assert_eq!(running, out.set);
    }
}
