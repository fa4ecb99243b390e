//! Set-function traits and simple concrete set functions.
//!
//! The paper treats `bestCost(Q, S)` — and hence the materialization benefit
//! `mb(S)` — as a black-box oracle over subsets of the shareable nodes
//! (Section 2.2: "The bc(S) function ... is treated as a black-box for the
//! MQO algorithms"). [`SetFunction`] is that black box; everything in
//! [`crate::algorithms`] is written against it.

use crate::bitset::BitSet;

/// A real-valued function on subsets of a fixed universe `{0, ..., n-1}`.
///
/// Implementations may use interior mutability for caching; `eval` therefore
/// takes `&self`. Evaluation must be deterministic: the same set always maps
/// to the same value.
pub trait SetFunction {
    /// Size `n` of the ground set.
    fn universe(&self) -> usize;

    /// Evaluates the function on `set`. `set.universe()` must equal
    /// [`Self::universe`].
    fn eval(&self, set: &BitSet) -> f64;

    /// Marginal value `f(S ∪ {e}) − f(S)` (the paper's `f'(e, S)`).
    ///
    /// The default implementation performs two `eval` calls; implementations
    /// with cheaper incremental evaluation should override it.
    fn marginal(&self, e: usize, set: &BitSet) -> f64 {
        debug_assert!(
            !set.contains(e),
            "marginal of an element already in the set"
        );
        self.eval(&set.with(e)) - self.eval(set)
    }

    /// Evaluates the function on every set of a batch, returning the values
    /// in order. Equivalent to (and by default implemented as) an `eval`
    /// loop; like `eval` it takes `&self`, with interior mutability for any
    /// caching.
    ///
    /// A batch shares one base set (a greedy round's candidates, reached
    /// through [`Self::marginal_many`], or the Theorem 4 pre-pass's
    /// singletons), so oracles with incremental evaluation (the
    /// `bestCost` engine) override this to align their committed base with
    /// the batch once and answer each candidate from a minimal overlay —
    /// one full recomputation per round instead of one per candidate. A
    /// round is also the natural sharding unit: the candidates are
    /// independent given the shared base, so batched oracles may fan them
    /// out across threads as long as the values stay identical to the
    /// `eval` loop.
    fn eval_many(&self, sets: &[BitSet]) -> Vec<f64> {
        sets.iter().map(|s| self.eval(s)).collect()
    }

    /// Marginals `f(S ∪ {e}) − f(S)` for a batch of elements against one
    /// shared base set, in order.
    ///
    /// The default is a [`Self::marginal`] loop, so functions with a
    /// specialized (cheaper-than-two-evals) marginal keep that advantage;
    /// batched oracles override this to route the whole round through
    /// [`Self::eval_many`] instead.
    fn marginal_many(&self, elems: &[usize], set: &BitSet) -> Vec<f64> {
        elems.iter().map(|&e| self.marginal(e, set)).collect()
    }

    /// `f(∅)`, used for normalization checks.
    fn at_empty(&self) -> f64 {
        self.eval(&BitSet::empty(self.universe()))
    }
}

impl<F: SetFunction + ?Sized> SetFunction for &F {
    fn universe(&self) -> usize {
        (**self).universe()
    }
    fn eval(&self, set: &BitSet) -> f64 {
        (**self).eval(set)
    }
    fn marginal(&self, e: usize, set: &BitSet) -> f64 {
        (**self).marginal(e, set)
    }
    fn eval_many(&self, sets: &[BitSet]) -> Vec<f64> {
        (**self).eval_many(sets)
    }
    fn marginal_many(&self, elems: &[usize], set: &BitSet) -> Vec<f64> {
        (**self).marginal_many(elems, set)
    }
}

/// A set function given by an arbitrary closure (handy in tests).
pub struct FnSetFunction<F: Fn(&BitSet) -> f64> {
    universe: usize,
    f: F,
}

impl<F: Fn(&BitSet) -> f64> FnSetFunction<F> {
    /// Wraps `f` as a set function over `{0, ..., universe-1}`.
    pub fn new(universe: usize, f: F) -> Self {
        FnSetFunction { universe, f }
    }
}

impl<F: Fn(&BitSet) -> f64> SetFunction for FnSetFunction<F> {
    fn universe(&self) -> usize {
        self.universe
    }
    fn eval(&self, set: &BitSet) -> f64 {
        (self.f)(set)
    }
}

/// An additive (modular) function `c(S) = Σ_{e∈S} weights[e]`
/// (Definition 3 in the paper).
#[derive(Clone, Debug)]
pub struct Additive {
    weights: Vec<f64>,
}

impl Additive {
    /// Builds an additive function from per-element weights.
    pub fn new(weights: Vec<f64>) -> Self {
        Additive { weights }
    }

    /// The weight of a single element.
    #[inline]
    pub fn weight(&self, e: usize) -> f64 {
        self.weights[e]
    }

    /// All weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl SetFunction for Additive {
    fn universe(&self) -> usize {
        self.weights.len()
    }
    fn eval(&self, set: &BitSet) -> f64 {
        set.iter().map(|e| self.weights[e]).sum()
    }
    fn marginal(&self, e: usize, _set: &BitSet) -> f64 {
        self.weights[e]
    }
}

/// Numerical tolerance used by the structural checks below. Set-function
/// values in this crate come from sums/differences of cost estimates, so a
/// relative tolerance anchored at the magnitude of the operands is used.
pub const EPS: f64 = 1e-7;

/// Approximate `a >= b` with tolerance scaled to the operands.
pub(crate) fn ge_approx(a: f64, b: f64) -> bool {
    a >= b - EPS * (1.0 + a.abs().max(b.abs()))
}

/// Exhaustively checks submodularity (Definition 1) of `f` by testing
/// `f'(u, A) >= f'(u, B)` for all `A ⊆ B`, `u ∉ B`. Exponential; universes
/// larger than 12 are rejected.
pub fn is_submodular<F: SetFunction>(f: &F) -> bool {
    let n = f.universe();
    assert!(n <= 12, "exhaustive submodularity check limited to n <= 12");
    // Equivalent pairwise characterization: for all S and u != v not in S,
    // f'(u, S) >= f'(u, S + v).
    for set in crate::bitset::all_subsets(n) {
        for u in 0..n {
            if set.contains(u) {
                continue;
            }
            for v in 0..n {
                if v == u || set.contains(v) {
                    continue;
                }
                let lhs = f.marginal(u, &set);
                let rhs = f.marginal(u, &set.with(v));
                if !ge_approx(lhs, rhs) {
                    return false;
                }
            }
        }
    }
    true
}

/// Exhaustively checks monotonicity (Definition 4): all marginals
/// non-negative. Universes larger than 12 are rejected.
pub fn is_monotone<F: SetFunction>(f: &F) -> bool {
    let n = f.universe();
    assert!(n <= 12, "exhaustive monotonicity check limited to n <= 12");
    for set in crate::bitset::all_subsets(n) {
        for u in 0..n {
            if !set.contains(u) && !ge_approx(f.marginal(u, &set), 0.0) {
                return false;
            }
        }
    }
    true
}

/// Checks `f(∅) = 0` (Definition 5).
pub fn is_normalized<F: SetFunction>(f: &F) -> bool {
    f.at_empty().abs() <= EPS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn additive_eval_and_marginal() {
        let c = Additive::new(vec![1.0, 2.0, 4.0]);
        let s = BitSet::from_iter(3, [0, 2]);
        assert_eq!(c.eval(&s), 5.0);
        assert_eq!(c.marginal(1, &s), 2.0);
        assert!(is_submodular(&c));
        assert!(is_normalized(&c));
    }

    #[test]
    fn eval_many_matches_eval_loop_and_counts() {
        let calls = Cell::new(0u64);
        let f = FnSetFunction::new(5, |s: &BitSet| {
            calls.set(calls.get() + 1);
            s.len() as f64
        });
        let sets: Vec<BitSet> = (0..5).map(|e| BitSet::from_iter(5, [e])).collect();
        let batch = f.eval_many(&sets);
        let looped: Vec<f64> = sets.iter().map(|s| f.eval(s)).collect();
        assert_eq!(batch, looped);
        assert_eq!(calls.get(), 10, "both paths make one call per set");
    }

    #[test]
    fn sqrt_of_cardinality_is_submodular_monotone() {
        let f = FnSetFunction::new(6, |s: &BitSet| (s.len() as f64).sqrt());
        assert!(is_submodular(&f));
        assert!(is_monotone(&f));
        assert!(is_normalized(&f));
    }

    #[test]
    fn square_of_cardinality_is_not_submodular() {
        let f = FnSetFunction::new(5, |s: &BitSet| (s.len() as f64).powi(2));
        assert!(!is_submodular(&f));
        assert!(is_monotone(&f));
    }

    #[test]
    fn non_monotone_detected() {
        // f(S) = |S| for |S| <= 1 else 2 - |S|: marginals go negative.
        let f = FnSetFunction::new(5, |s: &BitSet| {
            let k = s.len() as f64;
            if k <= 1.0 {
                k
            } else {
                2.0 - k
            }
        });
        assert!(!is_monotone(&f));
    }
}
