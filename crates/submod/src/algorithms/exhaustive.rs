//! Exhaustive maximization over subsets — the `O(2^n)` ground truth used by
//! tests and small-scale experiments (the paper's motivation: exhaustive MQO
//! explores an `O(n^n)` space, so guarantees relative to the true optimum
//! can only be validated on small universes).

use crate::bitset::BitSet;
use crate::function::SetFunction;

/// Maximum candidate count accepted by [`exhaustive_max`].
const MAX_EXHAUSTIVE: usize = 25;

/// Finds `argmax_{S ⊆ candidates} f(S)` by enumeration.
///
/// Ties are broken toward the lexicographically smallest element mask so the
/// result is deterministic. Panics if `candidates` has more than 25
/// elements.
pub fn exhaustive_max<F: SetFunction>(f: &F, candidates: &BitSet) -> (BitSet, f64) {
    let elems: Vec<usize> = candidates.iter().collect();
    let m = elems.len();
    assert!(
        m <= MAX_EXHAUSTIVE,
        "exhaustive search limited to {MAX_EXHAUSTIVE} candidates, got {m}"
    );
    let n = f.universe();
    let mut best_set = BitSet::empty(n);
    let mut best_val = f.eval(&best_set);
    for mask in 1u64..(1u64 << m) {
        let mut s = BitSet::empty(n);
        for (i, &e) in elems.iter().enumerate() {
            if mask >> i & 1 == 1 {
                s.insert(e);
            }
        }
        let v = f.eval(&s);
        // total_cmp: deterministic under -0.0; ties keep the
        // lexicographically-first (smallest-mask) maximizer. NaN values
        // are rejected outright — the same convention as the greedy
        // acceptance guards — so a poisoned subset can never displace the
        // true finite optimum.
        if !v.is_nan() && v.total_cmp(&best_val).is_gt() {
            best_val = v;
            best_set = s;
        }
    }
    (best_set, best_val)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FnSetFunction;

    #[test]
    fn finds_modular_optimum() {
        let f = FnSetFunction::new(5, |s: &BitSet| {
            let w = [3.0, -2.0, 1.0, -4.0, 0.5];
            s.iter().map(|e| w[e]).sum()
        });
        let (set, val) = exhaustive_max(&f, &BitSet::full(5));
        assert_eq!(set, BitSet::from_iter(5, [0, 2, 4]));
        assert_eq!(val, 4.5);
    }

    #[test]
    fn restricted_candidates() {
        let f = FnSetFunction::new(4, |s: &BitSet| s.len() as f64);
        let candidates = BitSet::from_iter(4, [1, 2]);
        let (set, val) = exhaustive_max(&f, &candidates);
        assert_eq!(set, candidates);
        assert_eq!(val, 2.0);
    }

    #[test]
    fn empty_optimum_when_everything_hurts() {
        let f = FnSetFunction::new(3, |s: &BitSet| -(s.len() as f64));
        let (set, val) = exhaustive_max(&f, &BitSet::full(3));
        assert!(set.is_empty());
        assert_eq!(val, 0.0);
    }
}
