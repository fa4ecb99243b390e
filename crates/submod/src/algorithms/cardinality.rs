//! The Theorem 4 universe reduction for cardinality-constrained selection
//! (Section 5.3).
//!
//! A storage budget may cap the number of materialized nodes at `k`. The
//! paper adapts MarginalGreedy by simply stopping after `k` picks
//! ([`super::marginal_greedy::Config::max_picks`]), and gives
//! a *pruning* preprocessing step (Theorem 4): order the elements by
//! `f'_M(e, U\{e})/c(e)` descending and keep only
//! `U' = { e : f_M({e})/c(e) ≥ f'_M(e_k, U\{e_k})/c(e_k) }`.
//! The greedy run on `U'` provably returns the same answer as on `U`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::bitset::BitSet;
use crate::decompose::Decomposition;
use crate::function::SetFunction;

use super::greedy::Rank;

/// The result of the Theorem 4 universe-reduction preprocessing.
#[derive(Clone, Debug)]
pub struct ReducedUniverse {
    /// The kept candidate set `U'`.
    pub kept: BitSet,
    /// Number of elements pruned away.
    pub pruned: usize,
    /// Oracle evaluations spent on the reduction itself.
    pub evaluations: u64,
}

/// Computes the Theorem 4 reduction `U'` for cardinality bound `k`.
///
/// When `k >= n` the check is provably vacuous (Case 1 of the proof shows
/// every element survives), so the full universe is returned without
/// spending any oracle calls — exactly the short-circuit the paper
/// recommends.
pub fn universe_reduction<F: SetFunction>(
    f: &F,
    decomp: &Decomposition,
    candidates: &BitSet,
    k: usize,
) -> ReducedUniverse {
    let n = f.universe();
    let m = candidates.len();
    if k >= m || k == 0 {
        // k >= n: Case 1 of the proof — every element survives, skip the
        // oracle calls. k == 0: the greedy picks nothing regardless, no
        // threshold exists.
        return ReducedUniverse {
            kept: candidates.clone(),
            pruned: 0,
            evaluations: 0,
        };
    }

    let mut evaluations = 0u64;
    let full = {
        // "U" in Theorem 4 is the candidate set itself.
        let mut u = BitSet::empty(n);
        u.union_with(candidates);
        u
    };

    // Elements with non-positive — or numerically negligible — cost are
    // outside the ratio ordering: the greedy loop never ranks them (they
    // are added in the free phase), so they are always kept and do not
    // contribute a threshold. The cost floor matters: a ratio divides
    // value-scale rounding noise by c(e), so a cost below the noise floor
    // of the oracle's values (anchored at |f(U)|) yields a numerically
    // meaningless ratio — excluding such elements from the ranking only
    // ever *lowers* the threshold and keeps more, which Theorem 4 permits.
    let f_full = f.eval(&full);
    let cost_floor = crate::function::EPS * (1.0 + f_full.abs());
    let ranked: Vec<usize> = candidates
        .iter()
        .filter(|&e| decomp.cost(e) > cost_floor)
        .collect();
    if ranked.len() <= k {
        // Fewer rankable elements than the budget: nothing can be pruned,
        // and no per-element oracle calls are needed to know it.
        return ReducedUniverse {
            kept: candidates.clone(),
            pruned: 0,
            evaluations,
        };
    }

    // Singleton ratios f_M({e})/c(e) first — they are both the left-hand
    // side of the keep test and, by submodularity of f_M (marginals shrink
    // as the set grows), an upper bound on the top-of-lattice ratio
    // f'_M(e, U\{e})/c(e) of the same element. Batched: one f(∅)
    // evaluation plus one eval_many over the singletons, whose pooled
    // intersection is ∅ — the cheapest batch an incremental oracle serves.
    let empty = BitSet::empty(n);
    let f_empty = f.eval(&empty);
    let singletons: Vec<BitSet> = ranked.iter().map(|&e| empty.with(e)).collect();
    let singleton_vals = f.eval_many(&singletons);
    evaluations += ranked.len() as u64;
    let singleton_ratios: Vec<f64> = ranked
        .iter()
        .zip(&singleton_vals)
        .map(|(&e, &v)| {
            let cost = decomp.cost(e);
            (v - f_empty + cost) / cost
        })
        .collect();

    // The threshold is only the k-th largest top-of-lattice ratio, so the
    // tops are selected *lazily*: walk the elements in descending
    // singleton-ratio order, maintain a min-heap of the k largest top
    // ratios seen, and stop as soon as the next element's upper bound
    // (its singleton ratio) falls strictly below the running k-th best —
    // no later element can then displace anything in the heap. Each top is
    // the marginal at the top of the lattice, f(U) − f(U\{e}) + c(e):
    // evaluate them one by one right after re-anchoring the oracle at
    // f(U), so every U\{e} is a cheap single-element overlay. (Batching
    // through `eval_many` is exactly wrong here — the pooled intersection
    // of the tops is near-empty, forcing a full recomputation per
    // element.) Where the upper bound is violated by floating-point noise
    // the computed threshold can only come out *lower* than the true k-th
    // ratio, which keeps more elements — the direction Theorem 4 permits.
    let mut order: Vec<usize> = (0..ranked.len()).collect();
    order.sort_by(|&a, &b| {
        singleton_ratios[b]
            .total_cmp(&singleton_ratios[a])
            .then_with(|| ranked[a].cmp(&ranked[b]))
    });
    let _ = f.eval(&full); // re-anchor after the singleton batch
    let mut top_k: BinaryHeap<Reverse<Rank>> = BinaryHeap::with_capacity(k + 1);
    for &i in &order {
        if top_k.len() == k {
            let kth = top_k.peek().expect("heap holds k elements").0.score;
            if singleton_ratios[i] < kth {
                break;
            }
        }
        let e = ranked[i];
        let v = f.eval(&full.without(e));
        evaluations += 1;
        let ratio = (f_full - v + decomp.cost(e)) / decomp.cost(e);
        top_k.push(Reverse(Rank {
            score: ratio,
            element: e,
        }));
        if top_k.len() > k {
            top_k.pop();
        }
    }
    let threshold = top_k.peek().expect("ranked.len() > k").0.score;

    // Keep e iff its singleton ratio meets the threshold. Elements below
    // the cost floor sit outside the ratio ordering and are always kept.
    let mut kept = BitSet::empty(n);
    for e in candidates.iter() {
        if decomp.cost(e) <= cost_floor {
            kept.insert(e);
        }
    }
    for (&e, &singleton_ratio) in ranked.iter().zip(&singleton_ratios) {
        // `>=` with a relative tolerance: under the canonical decomposition
        // the top-of-lattice ratios are exactly zero in exact arithmetic, and
        // floating-point noise must not prune elements the theorem keeps.
        // Keeping a borderline element is always safe (U' only needs to
        // contain every element the greedy could pick).
        if crate::function::ge_approx(singleton_ratio, threshold) {
            kept.insert(e);
        }
    }

    let pruned = m - kept.len();
    ReducedUniverse {
        kept,
        pruned,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::marginal_greedy::{marginal_greedy, Config};
    use crate::instances::random::{random_coverage_minus_cost, CoverageParams};

    /// Section 5.3: MarginalGreedy stopped after `k` picks, run on the
    /// Theorem 4 reduced universe when `reduce` is set.
    fn capped_greedy<F: SetFunction>(
        f: &F,
        d: &Decomposition,
        candidates: &BitSet,
        k: usize,
        reduce: bool,
    ) -> BitSet {
        let kept = if reduce {
            universe_reduction(f, d, candidates, k).kept
        } else {
            candidates.clone()
        };
        let cfg = Config {
            max_picks: Some(k),
            ..Default::default()
        };
        marginal_greedy(f, d, &kept, cfg).set
    }

    #[test]
    fn reduction_is_identity_when_k_equals_n() {
        let f = random_coverage_minus_cost(CoverageParams::default(), 1.0, 1);
        let d = Decomposition::canonical(&f);
        let full = BitSet::full(8);
        let r = universe_reduction(&f, &d, &full, 8);
        assert_eq!(r.kept, full);
        assert_eq!(r.pruned, 0);
        assert_eq!(r.evaluations, 0, "k = n short-circuit must be free");
    }

    #[test]
    fn theorem4_pruned_equals_unpruned() {
        // The heart of Theorem 4: the constrained greedy returns the same
        // answer with or without the universe reduction.
        for seed in 0..30 {
            let f = random_coverage_minus_cost(
                CoverageParams {
                    n_sets: 12,
                    n_items: 20,
                    ..Default::default()
                },
                1.0,
                seed,
            );
            let d = Decomposition::canonical(&f);
            let full = BitSet::full(12);
            for k in [1, 2, 4, 6] {
                let with = capped_greedy(&f, &d, &full, k, true);
                let without = capped_greedy(&f, &d, &full, k, false);
                assert_eq!(with, without, "Theorem 4 violated at seed {seed}, k {k}");
            }
        }
    }

    #[test]
    fn canonical_decomposition_never_prunes() {
        // A consequence of Proposition 1 the paper does not spell out: under
        // the canonical decomposition, f'_M(e, U\{e}) = f(U) − f(U\{e}) +
        // c*(e) = 0 for every element, so the Theorem 4 threshold is 0 while
        // singleton ratios are >= 0 by monotonicity of f*_M — the reduction
        // keeps everything. (Consistent with the paper's remark that "this
        // strategy may not always lead to a reduction".)
        for seed in 0..10 {
            let f = random_coverage_minus_cost(
                CoverageParams {
                    n_sets: 14,
                    n_items: 10,
                    density: 0.5,
                    ..Default::default()
                },
                1.2,
                seed,
            );
            let d = Decomposition::canonical(&f);
            let r = universe_reduction(&f, &d, &BitSet::full(14), 2);
            assert_eq!(r.pruned, 0, "seed {seed}");
        }
    }

    #[test]
    fn reduction_can_prune_under_natural_decomposition() {
        // Under the "natural" decomposition (f_M = coverage, c = raw costs)
        // pruning does bite: elements 0..k uniquely cover high-weight items
        // (large top-of-lattice ratio), the rest cover shared cheap items
        // (singleton ratio below the threshold).
        use crate::instances::coverage::WeightedCoverage;
        let k = 2;
        // Items 0,1 weigh 100 and are uniquely covered by sets 0,1; items
        // 2,3 weigh 1 and are covered by all remaining sets.
        let cover = WeightedCoverage::new(
            4,
            vec![vec![0], vec![1], vec![2, 3], vec![2, 3], vec![2, 3]],
            vec![100.0, 100.0, 1.0, 1.0],
        );
        let costs = [1.0, 1.0, 1.0, 1.0, 1.0];
        let f = crate::function::FnSetFunction::new(5, move |s| {
            crate::function::SetFunction::eval(&cover, s) - s.iter().map(|e| costs[e]).sum::<f64>()
        });
        let d = Decomposition::from_costs(vec![1.0; 5]);
        let r = universe_reduction(&f, &d, &BitSet::full(5), k);
        // Top ratios: sets 0,1 keep ratio 100 even at the top (unique
        // items); threshold = 100. Sets 2..4 have singleton ratio 2 < 100.
        assert_eq!(r.pruned, 3);
        assert!(r.kept.contains(0) && r.kept.contains(1));
        // And Theorem 4 still holds: same greedy output either way.
        let with = capped_greedy(&f, &d, &BitSet::full(5), k, true);
        let without = capped_greedy(&f, &d, &BitSet::full(5), k, false);
        assert_eq!(with, without);
    }
}
