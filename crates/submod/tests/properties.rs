//! Property-based tests for the UNSM toolkit: the structural theorems of the
//! paper checked on randomized instances.
//!
//! The build is offline, so instead of proptest these run as deterministic
//! seeded sweeps: each property draws its inputs from a [`Prng`] seeded per
//! case, and a failing case panics with the exact seed to reproduce it.

use mqo_submod::algorithms::cardinality::universe_reduction;
use mqo_submod::algorithms::exhaustive::exhaustive_max;
use mqo_submod::algorithms::greedy::{select, Config as GreedyConfig, Evaluation, Ranking};
use mqo_submod::algorithms::marginal_greedy::{marginal_greedy, Config};
use mqo_submod::algorithms::Outcome;
use mqo_submod::bitset::{all_subsets, BitSet};
use mqo_submod::bounds::theorem1_lower_bound;
use mqo_submod::decompose::Decomposition;
use mqo_submod::function::{is_monotone, is_submodular, SetFunction};
use mqo_submod::instances::random::{
    random_coverage_minus_cost, random_cut_minus_cost, CoverageMinusCost, CoverageParams,
};
use mqo_submod::prng::{seeded_sweep, Prng};

use std::sync::atomic::{AtomicU64, Ordering};

const CASES: u64 = 64;
const SWEEP_SEED: u64 = 0x5EED_0001;

/// Algorithm 1, eager: the benefit-ranked greedy kernel.
fn greedy<F: SetFunction>(f: &F, candidates: &BitSet, config: Config) -> Outcome {
    select(f, Ranking::Benefit, Evaluation::Eager, candidates, config)
}

/// Algorithm 1 with the Minoux heap.
fn lazy_greedy<F: SetFunction>(f: &F, candidates: &BitSet, config: Config) -> Outcome {
    select(f, Ranking::Benefit, Evaluation::Lazy, candidates, config)
}

/// Algorithm 2 with the Section 5.2 heap.
fn lazy_marginal_greedy<F: SetFunction>(
    f: &F,
    d: &Decomposition,
    candidates: &BitSet,
    config: Config,
) -> Outcome {
    select(f, Ranking::Ratio(d), Evaluation::Lazy, candidates, config)
}

/// A seeded coverage-minus-cost instance with n_sets in [4, 10] — the
/// proptest strategy of the original suite, drawn from the case's PRNG.
fn draw_instance(rng: &mut Prng) -> (usize, CoverageMinusCost) {
    let n_sets = rng.gen_range(4usize..=10);
    let n_items = rng.gen_range(5usize..=16);
    let density = rng.gen_range(0.15f64..0.6);
    let scale = rng.gen_range(0.4f64..2.0);
    let seed = rng.next_u64();
    let f = random_coverage_minus_cost(
        CoverageParams {
            n_sets,
            n_items,
            density,
            ..Default::default()
        },
        scale,
        seed,
    );
    (n_sets, f)
}

/// Proposition 1: f = f*_M − c* exactly, on every subset.
#[test]
fn prop_decomposition_identity() {
    seeded_sweep("decomposition_identity", SWEEP_SEED, CASES, |rng| {
        let (n_sets, f) = draw_instance(rng);
        let d = Decomposition::canonical(&f);
        for s in all_subsets(n_sets) {
            let recomposed = d.monotone_value(&f, &s) - d.cost_of(&s);
            assert!(
                (recomposed - f.eval(&s)).abs() < 1e-9,
                "recomposed {recomposed} != f {} on {s:?}",
                f.eval(&s)
            );
        }
    });
}

/// Proposition 1: the canonical monotone part is monotone and submodular.
#[test]
fn prop_canonical_monotone_part() {
    seeded_sweep("canonical_monotone_part", SWEEP_SEED + 1, CASES, |rng| {
        let (_, f) = draw_instance(rng);
        let d = Decomposition::canonical(&f);
        let fm = d.monotone_part(&f);
        assert!(is_monotone(&fm), "canonical monotone part not monotone");
        assert!(is_submodular(&fm), "canonical monotone part not submodular");
    });
}

/// Proposition 2: the improvement procedure fixes the canonical
/// decomposition.
#[test]
fn prop_improvement_fixpoint() {
    seeded_sweep("improvement_fixpoint", SWEEP_SEED + 2, CASES, |rng| {
        let (n_sets, f) = draw_instance(rng);
        let d = Decomposition::canonical(&f);
        let improved = d.improve(&f);
        for e in 0..n_sets {
            assert!(
                (d.cost(e) - improved.cost(e)).abs() < 1e-9,
                "element {e}: cost moved {} -> {}",
                d.cost(e),
                improved.cost(e)
            );
        }
    });
}

/// Theorem 1 on submodular instances: MarginalGreedy with the canonical
/// decomposition meets its guarantee relative to the exhaustive optimum.
#[test]
fn prop_theorem1_bound() {
    let effective = AtomicU64::new(0);
    seeded_sweep("theorem1_bound", SWEEP_SEED + 3, CASES, |rng| {
        let (n_sets, f) = draw_instance(rng);
        let d = Decomposition::canonical(&f);
        let full = BitSet::full(n_sets);
        let out = marginal_greedy(&f, &d, &full, Config::default());
        let (opt_set, opt_val) = exhaustive_max(&f, &full);
        // Theorem 1 is stated under the paper's convention that the additive
        // part is positive everywhere except ∅ (remark after Proposition 1);
        // skip optima containing non-positively-priced elements.
        if !opt_set.iter().all(|e| d.cost(e) > 0.0) {
            return;
        }
        effective.fetch_add(1, Ordering::Relaxed);
        let bound = theorem1_lower_bound(opt_val, d.cost_of(&opt_set));
        assert!(
            out.value >= bound - 1e-7,
            "value {} < bound {} (opt {})",
            out.value,
            bound,
            opt_val
        );
    });
    // Guard against the skip path silently eating the sweep (proptest
    // errored on excessive discards; this is the equivalent floor).
    let eff = effective.load(Ordering::Relaxed);
    assert!(
        eff >= CASES / 4,
        "only {eff}/{CASES} cases checked the bound"
    );
}

/// Lazy and eager MarginalGreedy agree, and lazy never does more work.
#[test]
fn prop_lazy_marginal_equals_eager() {
    seeded_sweep("lazy_marginal_equals_eager", SWEEP_SEED + 4, CASES, |rng| {
        let (n_sets, f) = draw_instance(rng);
        let d = Decomposition::canonical(&f);
        let full = BitSet::full(n_sets);
        let eager = marginal_greedy(&f, &d, &full, Config::default());
        let lazy = lazy_marginal_greedy(&f, &d, &full, Config::default());
        assert_eq!(eager.set, lazy.set);
        assert!(
            lazy.evaluations <= eager.evaluations,
            "lazy did more work: {} > {}",
            lazy.evaluations,
            eager.evaluations
        );
    });
}

/// Lazy and eager Greedy (Algorithm 1) agree on submodular instances.
#[test]
fn prop_lazy_greedy_equals_eager() {
    seeded_sweep("lazy_greedy_equals_eager", SWEEP_SEED + 5, CASES, |rng| {
        let (n_sets, f) = draw_instance(rng);
        let full = BitSet::full(n_sets);
        let eager = greedy(&f, &full, GreedyConfig::default());
        let lazy = lazy_greedy(&f, &full, GreedyConfig::default());
        assert_eq!(eager.set, lazy.set);
        assert!(
            lazy.evaluations <= eager.evaluations,
            "lazy did more work: {} > {}",
            lazy.evaluations,
            eager.evaluations
        );
    });
}

/// Theorem 4: cardinality-constrained MarginalGreedy returns the same
/// answer with and without universe reduction.
#[test]
fn prop_theorem4_reduction_same_answer() {
    seeded_sweep("theorem4_reduction", SWEEP_SEED + 6, CASES, |rng| {
        let (n_sets, f) = draw_instance(rng);
        let k = rng.gen_range(1usize..=5);
        let d = Decomposition::canonical(&f);
        let full = BitSet::full(n_sets);
        let cfg = Config {
            max_picks: Some(k),
            ..Default::default()
        };
        let kept = universe_reduction(&f, &d, &full, k).kept;
        let with = marginal_greedy(&f, &d, &kept, cfg);
        let without = marginal_greedy(&f, &d, &full, cfg);
        assert_eq!(with.set, without.set, "k = {k}");
    });
}

/// Normalization invariant: every algorithm returns f(X) >= 0 on
/// normalized inputs (each accepted step strictly improves).
#[test]
fn prop_outputs_nonnegative() {
    seeded_sweep("outputs_nonnegative", SWEEP_SEED + 7, CASES, |rng| {
        let (n_sets, f) = draw_instance(rng);
        let d = Decomposition::canonical(&f);
        let full = BitSet::full(n_sets);
        let mg = marginal_greedy(&f, &d, &full, Config::default()).value;
        assert!(mg >= -1e-9, "marginal_greedy value {mg} < 0");
        let g = greedy(&f, &full, GreedyConfig::default()).value;
        assert!(g >= -1e-9, "greedy value {g} < 0");
    });
}

/// Cut-minus-cost instances (non-monotone, often negative): lazy ≡ eager
/// and the Theorem 1 bound holds.
#[test]
fn prop_cuts_bound_and_lazy() {
    let effective = AtomicU64::new(0);
    seeded_sweep("cuts_bound_and_lazy", SWEEP_SEED + 8, CASES, |rng| {
        let n = rng.gen_range(5usize..=9);
        let p = rng.gen_range(0.2f64..0.7);
        let seed = rng.next_u64();
        let f = random_cut_minus_cost(n, p, seed);
        let d = Decomposition::canonical(&f);
        let full = BitSet::full(n);
        let eager = marginal_greedy(&f, &d, &full, Config::default());
        let lazy = lazy_marginal_greedy(&f, &d, &full, Config::default());
        assert_eq!(eager.set, lazy.set);
        let (opt_set, opt_val) = exhaustive_max(&f, &full);
        if !opt_set.iter().all(|e| d.cost(e) > 0.0) {
            return;
        }
        effective.fetch_add(1, Ordering::Relaxed);
        let bound = theorem1_lower_bound(opt_val, d.cost_of(&opt_set));
        assert!(
            eager.value >= bound - 1e-7,
            "value {} < bound {bound} (opt {opt_val})",
            eager.value
        );
    });
    let eff = effective.load(Ordering::Relaxed);
    assert!(
        eff >= CASES / 4,
        "only {eff}/{CASES} cases checked the bound"
    );
}

/// BitSet sanity under random element sequences.
#[test]
fn prop_bitset_roundtrip() {
    seeded_sweep("bitset_roundtrip", SWEEP_SEED + 9, CASES, |rng| {
        let len = rng.gen_range(0usize..32);
        let elems: Vec<usize> = (0..len).map(|_| rng.gen_range(0usize..64)).collect();
        let s = BitSet::from_iter(64, elems.iter().copied());
        let mut sorted: Vec<usize> = elems.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let collected: Vec<usize> = s.iter().collect();
        assert_eq!(collected, sorted);
        assert_eq!(s.complement().complement(), s);
    });
}
