//! The unified MQO configuration.
//!
//! One [`MqoConfig`] drives the whole pipeline a [`crate::Session`] owns:
//! the expansion fixpoint's candidate-generation fan-out, the compiled
//! `bestCost` oracle's evaluation strategy (the full-solve ablation
//! switch), and the sharded batched evaluation. It absorbs what used to be
//! `EngineConfig` plus the expansion thread count, so the `MQO_THREADS`
//! environment variable is read in exactly one place:
//! [`MqoConfig::default`].

use mqo_volcano::rules::{effective_threads, expand_threads_from_env};

/// Which decomposition `f = f_M − c` the marginal-greedy family and the
/// universe-reduction pre-pass use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DecompositionKind {
    /// Proposition 1's canonical decomposition: `c({e}) = −f({e})` per
    /// element. Carries the Theorem 1 guarantee, but its top-of-lattice
    /// ratios make the Theorem 4 reduction vacuous (it never prunes).
    #[default]
    Canonical,
    /// Cost the elements by their standalone materialization cost
    /// (compute-from-scratch + write, read off the compiled engine). Same
    /// greedy machinery, and the Theorem 4 reduction actually prunes —
    /// this is the decomposition the scale pre-pass runs under.
    MaterializationCost,
}

/// Tuning knobs of the MQO pipeline. Every setting is
/// behavior-preserving: the chosen materializations, costs, and plans are
/// identical under any configuration (only wall-clock and bookkeeping
/// change), except that `force_full` is an explicit ablation switch with
/// the same results at higher cost, and `decomposition` /
/// `universe_reduction` / `max_materializations` select *which* provable
/// algorithm runs (Theorem 4 guarantees reduction-on ≡ reduction-off for
/// the ratio-ranked greedy under a fixed decomposition — pinned by the
/// differential suite — but changing the decomposition or adding a
/// cardinality cap legitimately changes the chosen set).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MqoConfig {
    /// When true, every oracle evaluation runs the full DP (ablation
    /// switch).
    pub force_full: bool,
    /// Worker threads, used by both parallel phases of the pipeline: the
    /// expansion fixpoint's candidate generation and the sharded
    /// [`crate::engine::BestCostEngine::bc_many`]. `1` keeps everything
    /// serial, `0` resolves to the machine's available parallelism. The
    /// default reads the `MQO_THREADS` environment variable (falling back
    /// to `1`) — this is the single place in the workspace that consults
    /// it. Results are bit-identical at every setting.
    pub threads: usize,
    /// Decomposition used by the marginal-greedy strategy family and the
    /// universe-reduction pre-pass.
    pub decomposition: DecompositionKind,
    /// Run the Theorem 4 universe-reduction pre-pass before ratio-ranked
    /// greedy strategies: elements whose singleton benefit/cost ratio is
    /// provably dominated are dropped from the candidate universe before
    /// the greedy rounds ever see them. Output-identical to running on
    /// the full universe (Theorem 4); off by default.
    pub universe_reduction: bool,
    /// Optional cardinality cap `k` on the number of materializations
    /// (Section 5.3). Also the `k` the universe-reduction threshold is
    /// computed against; `None` means unbounded (reduction then uses the
    /// universe size, which only prunes ratio-zero elements).
    pub max_materializations: Option<usize>,
    /// Wall-clock budget for a greedy run (anytime mode). When the budget
    /// expires mid-run the greedy loop stops where it is, the partial
    /// selection is extracted as usual, and the
    /// [`crate::strategies::RunReport`] carries a
    /// [`crate::strategies::GapCertificate`] bounding how much the
    /// truncation may have cost. `None` (the default) never truncates.
    /// Note this is the one knob that is *not* behavior-preserving across
    /// machines: a slower machine truncates earlier. Determinism across
    /// `MQO_THREADS` settings still holds for whatever prefix ran.
    pub time_budget: Option<std::time::Duration>,
    /// Benefit floor for the greedy stopping rules: a pick whose marginal
    /// benefit does not *exceed* this value stops the run (early-exit on
    /// diminishing returns). `0.0`, the default, is the paper's exact
    /// stopping rule for Greedy and — combined with the `ratio > 1` rule —
    /// for MarginalGreedy. A positive floor trades optimization time for a
    /// certified gap, like `time_budget` but deterministic.
    pub marginal_floor: f64,
}

impl Default for MqoConfig {
    fn default() -> Self {
        MqoConfig {
            force_full: false,
            threads: expand_threads_from_env(),
            decomposition: DecompositionKind::Canonical,
            universe_reduction: false,
            max_materializations: None,
            time_budget: None,
            marginal_floor: 0.0,
        }
    }
}

impl MqoConfig {
    /// The default configuration pinned to serial execution, ignoring
    /// `MQO_THREADS` (useful for ablations that must not be confounded by
    /// an exported thread count).
    pub fn serial() -> Self {
        MqoConfig {
            threads: 1,
            ..Default::default()
        }
    }

    /// The default configuration with an explicit worker-thread count.
    pub fn with_threads(threads: usize) -> Self {
        MqoConfig {
            threads,
            ..Default::default()
        }
    }

    /// Resolves [`Self::threads`] to a concrete worker count for a batch
    /// of `batch_len` work items (auto-detection, capped by the batch
    /// size).
    pub(crate) fn effective_threads(&self, batch_len: usize) -> usize {
        effective_threads(self.threads, batch_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_with_threads_pin_the_thread_count() {
        assert_eq!(MqoConfig::serial().threads, 1);
        assert_eq!(MqoConfig::with_threads(7).threads, 7);
        assert!(!MqoConfig::serial().force_full);
    }

    #[test]
    fn effective_threads_caps_by_batch() {
        assert_eq!(MqoConfig::with_threads(8).effective_threads(3), 3);
        assert_eq!(MqoConfig::with_threads(2).effective_threads(100), 2);
        assert_eq!(MqoConfig::serial().effective_threads(100), 1);
    }
}
