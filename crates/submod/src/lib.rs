//! Unconstrained normalized submodular maximization (UNSM).
//!
//! This crate implements the algorithmic core of *"Efficient and Provable
//! Multi-Query Optimization"* (Kathuria & Sudarshan, PODS 2017) in its
//! abstract form: maximizing a normalized submodular function `f` (which
//! may take **negative** values) over all subsets of a ground set.
//!
//! * [`function::SetFunction`] — the oracle interface (`bc`/`mb` in the MQO
//!   setting are instances of it; see the `mqo-core` crate).
//! * [`decompose::Decomposition`] — Proposition 1's canonical decomposition
//!   `f = f*_M − c*` (and Proposition 2's improvement procedure).
//! * [`algorithms::greedy`] — the one greedy kernel: Algorithm 1, the
//!   Greedy heuristic of Roy et al. \[23], and Algorithm 2, MarginalGreedy,
//!   each eager or with the lazy heap of §5.2, under one stop-rule config
//!   and one headroom certificate.
//! * [`algorithms::marginal_greedy`] — Algorithm 2 run eagerly, with its
//!   Theorem 1 guarantee under the canonical decomposition.
//! * [`algorithms::cardinality`] — the Theorem 4 universe reduction for
//!   the §5.3 cardinality-constrained variant (MarginalGreedy with
//!   `max_picks`).
//! * [`bounds`] — the Theorem 1 factor `1 − (c/f)·ln(1 + f/c)`.
//! * [`instances`] — coverage, Profitted Max Coverage (Problem 1, the
//!   hardness family of Theorem 2), graph cuts, seeded random generators.
//!
//! # Example
//!
//! ```
//! use mqo_submod::bitset::BitSet;
//! use mqo_submod::decompose::Decomposition;
//! use mqo_submod::algorithms::marginal_greedy::{marginal_greedy, Config};
//! use mqo_submod::instances::profitted::ProfittedMaxCoverage;
//!
//! let inst = ProfittedMaxCoverage::hard_instance(3, 4, 2, 2.0);
//! let decomp = Decomposition::canonical(&inst);
//! let out = marginal_greedy(&inst, &decomp, &BitSet::full(9), Config::default());
//! assert!(out.value > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod algorithms;
pub mod bitset;
pub mod bounds;
pub mod decompose;
pub mod function;
pub mod instances;
pub mod prng;

pub use bitset::BitSet;
pub use decompose::Decomposition;
pub use function::SetFunction;
