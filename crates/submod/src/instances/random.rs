//! Seeded random instance generators for tests and benches.
//!
//! Every generator takes an explicit seed so property tests and benches are
//! reproducible.

use crate::instances::coverage::WeightedCoverage;
use crate::instances::cut::{CutFunction, CutMinusCost};
use crate::prng::Prng;

/// Parameters for random coverage-minus-cost instances.
#[derive(Clone, Copy, Debug)]
pub struct CoverageParams {
    /// Number of universe elements (sets).
    pub n_sets: usize,
    /// Number of ground items.
    pub n_items: usize,
    /// Probability that a set covers each item.
    pub density: f64,
    /// Item weights drawn uniformly from this range.
    pub weight_range: (f64, f64),
}

impl Default for CoverageParams {
    fn default() -> Self {
        CoverageParams {
            n_sets: 8,
            n_items: 20,
            density: 0.3,
            weight_range: (0.5, 2.0),
        }
    }
}

/// A random weighted coverage function (monotone, submodular, normalized).
pub fn random_coverage(params: CoverageParams, seed: u64) -> WeightedCoverage {
    let mut rng = Prng::seed_from_u64(seed);
    let sets = (0..params.n_sets)
        .map(|_| {
            (0..params.n_items)
                .filter(|_| rng.gen_bool(params.density))
                .collect()
        })
        .collect();
    let (lo, hi) = params.weight_range;
    let weights = (0..params.n_items).map(|_| rng.gen_range(lo..hi)).collect();
    WeightedCoverage::new(params.n_items, sets, weights)
}

/// A random coverage function paired with element costs, packaged as the
/// normalized (generally non-monotone) difference `coverage(S) − cost(S)`.
///
/// The cost scale controls how deep into negative territory the function
/// goes; `cost_scale` around 1.0 produces instances where roughly half the
/// elements are individually unprofitable.
pub struct CoverageMinusCost {
    coverage: WeightedCoverage,
    costs: Vec<f64>,
}

impl CoverageMinusCost {
    /// The per-element additive costs.
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// The underlying coverage function.
    pub fn coverage(&self) -> &WeightedCoverage {
        &self.coverage
    }
}

impl crate::function::SetFunction for CoverageMinusCost {
    fn universe(&self) -> usize {
        self.coverage.universe()
    }
    fn eval(&self, set: &crate::bitset::BitSet) -> f64 {
        self.coverage.eval(set) - set.iter().map(|e| self.costs[e]).sum::<f64>()
    }
    fn marginal(&self, e: usize, set: &crate::bitset::BitSet) -> f64 {
        self.coverage.marginal(e, set) - self.costs[e]
    }
}

/// Generates a random [`CoverageMinusCost`] instance.
pub fn random_coverage_minus_cost(
    params: CoverageParams,
    cost_scale: f64,
    seed: u64,
) -> CoverageMinusCost {
    let coverage = random_coverage(params, seed);
    let mut rng = Prng::seed_from_u64(seed.wrapping_add(0x9E3779B97F4A7C15));
    // Mean marginal weight of a set is density * n_items * mean_weight; scale
    // costs relative to that so instances straddle profitability.
    let mean_w = (params.weight_range.0 + params.weight_range.1) / 2.0;
    let base = params.density * params.n_items as f64 * mean_w;
    let costs = (0..params.n_sets)
        .map(|_| rng.gen_range(0.1..1.0) * base * cost_scale)
        .collect();
    CoverageMinusCost { coverage, costs }
}

/// A random Erdős–Rényi cut-minus-cost instance.
pub fn random_cut_minus_cost(n: usize, edge_prob: f64, seed: u64) -> CutMinusCost {
    let mut rng = Prng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(edge_prob) {
                edges.push((u, v, rng.gen_range(0.5..3.0)));
            }
        }
    }
    let costs = (0..n).map(|_| rng.gen_range(0.0..2.0)).collect();
    CutFunction::new(n, &edges).with_vertex_costs(costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{is_normalized, is_submodular, SetFunction};

    #[test]
    fn random_coverage_is_deterministic_per_seed() {
        let a = random_coverage(CoverageParams::default(), 42);
        let b = random_coverage(CoverageParams::default(), 42);
        let s = crate::bitset::BitSet::from_iter(8, [0, 3, 5]);
        assert_eq!(a.eval(&s), b.eval(&s));
        let c = random_coverage(CoverageParams::default(), 43);
        // Overwhelmingly likely to differ.
        let full = crate::bitset::BitSet::full(8);
        assert_ne!(a.eval(&full), c.eval(&full));
    }

    #[test]
    fn coverage_minus_cost_is_normalized_submodular() {
        for seed in 0..5 {
            let params = CoverageParams {
                n_sets: 7,
                n_items: 12,
                ..Default::default()
            };
            let f = random_coverage_minus_cost(params, 1.0, seed);
            assert!(is_normalized(&f));
            assert!(is_submodular(&f));
        }
    }

    #[test]
    fn cut_minus_cost_random_is_submodular() {
        for seed in 0..5 {
            let f = random_cut_minus_cost(7, 0.5, seed);
            assert!(is_normalized(&f));
            assert!(is_submodular(&f));
        }
    }
}
