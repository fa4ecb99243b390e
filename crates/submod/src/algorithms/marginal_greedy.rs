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

use std::time::Instant;

use crate::bitset::BitSet;
use crate::decompose::Decomposition;
use crate::function::SetFunction;

use super::{past_deadline, Outcome, Pick};

/// Configuration for [`marginal_greedy`] (and
/// [`crate::algorithms::lazy::lazy_marginal_greedy`], which shares it).
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Section 5.1: while scanning candidates, permanently drop any element
    /// whose current ratio is ≤ 1 — by submodularity of `f_M` its ratio can
    /// only decrease in later iterations, so it would never be picked.
    /// Changing this flag never changes the output, only the work done.
    pub prune_ratio_below_one: bool,
    /// Optional cardinality constraint `k` (Section 5.3): stop after `k`
    /// elements have been selected (free-element additions count too).
    pub max_picks: Option<usize>,
    /// Anytime mode: stop before any round (or lazy refresh) that would
    /// start past this instant, marking the outcome
    /// [`Outcome::truncated`]; [`Outcome::remaining_bound`] certifies the
    /// headroom left unexplored.
    pub deadline: Option<Instant>,
    /// Benefit floor: an accepted pick's marginal `f'_M(e, X)` must exceed
    /// this in addition to the ratio rule (default `0.0`, the paper's
    /// stopping rule — a ratio above 1 already implies a positive
    /// marginal). Stopping on the floor marks the outcome truncated.
    pub benefit_floor: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            prune_ratio_below_one: true,
            max_picks: None,
            deadline: None,
            benefit_floor: 0.0,
        }
    }
}

/// Runs MarginalGreedy over the candidate elements in `candidates`
/// (a subset of the ground set of `f`; pass `BitSet::full(n)` for the whole
/// universe).
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
    let n = f.universe();
    debug_assert_eq!(decomp.universe(), n);
    debug_assert_eq!(candidates.universe(), n);

    let mut out = Outcome::new(n);
    let mut value = f.eval(&out.set);
    out.evaluations += 1;

    // Elements whose additive cost is non-positive are handled by the final
    // phase; the ratio is meaningless (division by c ≤ 0).
    let mut free: Vec<usize> = Vec::new();
    let mut active: Vec<usize> = Vec::new();
    for e in candidates.iter() {
        if decomp.cost(e) > 0.0 {
            active.push(e);
        } else {
            free.push(e);
        }
    }

    let budget = config.max_picks.unwrap_or(usize::MAX);
    // Last observed marginal per element; feeds the headroom certificate
    // (see `greedy`). Pruned elements record their final (non-positive)
    // marginal, so pruning never inflates the bound.
    let mut gain = vec![f64::INFINITY; n];

    while out.picks.len() < budget && !active.is_empty() {
        if past_deadline(config.deadline) {
            out.truncated = true;
            break;
        }
        // One marginal_many batch per round: functions with a specialized
        // `marginal` keep it (the default is a marginal loop), while batched
        // oracles like the bestCost engine answer the whole round against
        // one shared base. The ratio arithmetic is exactly
        // `decomp.monotone_marginal / cost`.
        let marginals = f.marginal_many(&active, &out.set);
        // (pos in kept, element, ratio, marginal)
        let mut best: Option<(usize, usize, f64, f64)> = None;
        let mut kept = Vec::with_capacity(active.len());
        for (&e, &m) in active.iter().zip(&marginals) {
            let ratio = (m + decomp.cost(e)) / decomp.cost(e);
            out.evaluations += 1;
            gain[e] = m;
            if config.prune_ratio_below_one && ratio <= 1.0 {
                // Permanently pruned (Section 5.1): by submodularity of f_M
                // the ratio only decreases as X grows, so e can never win.
                continue;
            }
            kept.push(e);
            if best.is_none_or(|(_, be, r, _)| super::better_score(ratio, e, r, be)) {
                best = Some((kept.len() - 1, e, ratio, m));
            }
        }
        active = kept;

        match best {
            Some((pos, e, ratio, m)) if ratio > 1.0 && m > config.benefit_floor => {
                out.set.insert(e);
                // The winner's marginal was already evaluated in the round's
                // batch; no extra oracle call.
                value += m;
                out.picks.push(Pick {
                    element: e,
                    score: ratio,
                    value_after: value,
                });
                active.swap_remove(pos);
            }
            Some((_, _, ratio, _)) if ratio > 1.0 => {
                // Still profitable by the ratio rule, but below the floor.
                out.truncated = true;
                break;
            }
            _ => break,
        }
    }

    // Final phase: add the elements with non-positive additive cost. Under
    // the submodularity assumption this "can only raise the value of f"
    // (monotone f_M minus a non-positive c); on functions that violate the
    // assumption — real materialization-benefit functions may — a blind add
    // could lower f, so each element is admitted only if its actual
    // marginal is non-negative. When f is submodular the check always
    // passes and the output matches Algorithm 2 exactly.
    for e in free {
        if out.set.len() >= budget {
            break;
        }
        if past_deadline(config.deadline) {
            // Unevaluated free elements stay at gain = +∞: the headroom
            // bound degrades to vacuous rather than silently excluding
            // them.
            out.truncated = true;
            break;
        }
        let delta = f.marginal(e, &out.set);
        out.evaluations += 1;
        gain[e] = delta;
        if delta >= 0.0 {
            out.set.insert(e);
            value += delta;
            out.free_elements.push(e);
        }
    }

    out.remaining_bound = candidates
        .iter()
        .filter(|&e| !out.set.contains(e))
        .map(|e| gain[e].max(0.0))
        .sum();
    out.value = value;
    out
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
    fn pruning_does_not_change_result() {
        for seed in 0..20 {
            let f = random_coverage_minus_cost(
                CoverageParams {
                    n_sets: 10,
                    n_items: 16,
                    ..Default::default()
                },
                1.0,
                seed,
            );
            let decomp = Decomposition::canonical(&f);
            let full = BitSet::full(10);
            let pruned = marginal_greedy(&f, &decomp, &full, Config::default());
            let unpruned = marginal_greedy(
                &f,
                &decomp,
                &full,
                Config {
                    prune_ratio_below_one: false,
                    ..Default::default()
                },
            );
            assert_eq!(pruned.set, unpruned.set, "seed {seed}");
            assert!(
                pruned.evaluations <= unpruned.evaluations,
                "pruning must not increase work (seed {seed})"
            );
        }
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
