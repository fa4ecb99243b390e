//! Helpers shared by the suites that compare an evolved batch with a fresh
//! build of its surviving queries.

use mqo_core::session::Session;
use mqo_core::strategies::Strategy;
use mqo_core::{OptimizedBatch, RunReport};
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::{DagContext, PlanNode};

/// A `Session` build of `queries`, in order, under the paper's disk cost
/// model.
pub fn build(ctx: DagContext, queries: &[PlanNode], threads: usize) -> OptimizedBatch {
    Session::builder()
        .context(ctx)
        .queries(queries.iter().cloned())
        .cost_model(DiskCostModel::paper())
        .threads(threads)
        .build()
}

/// The exact observables of one run: the strategy, the bits of every cost
/// and the chosen set.
pub fn run_bits(r: &RunReport) -> String {
    format!(
        "{}: total {:#x} volcano {:#x} benefit {:#x} plan {:#x} mats {:?}",
        r.strategy,
        r.total_cost.to_bits(),
        r.volcano_cost.to_bits(),
        r.benefit.to_bits(),
        r.plan.total_cost.to_bits(),
        r.materialized
    )
}

/// Asserts that `evolved` is bit for bit `fresh`, a fresh build of its
/// surviving queries in ticket order: the universe in element order and,
/// under each strategy, every cost bit, the chosen set and the rendered
/// plan.
pub fn assert_equivalent(evolved: &OptimizedBatch, fresh: &OptimizedBatch, label: &str) {
    evolved.batch().memo().check_consistency();
    assert_eq!(
        evolved.batch().shareable(),
        fresh.batch().shareable(),
        "{label}: universes diverge"
    );
    for strategy in [
        Strategy::Volcano,
        Strategy::Greedy,
        Strategy::MarginalGreedy,
    ] {
        let (e, f) = (evolved.run(strategy), fresh.run(strategy));
        assert_eq!(run_bits(&e), run_bits(&f), "{label}: runs diverge");
        assert_eq!(
            e.plan.render(evolved.batch()),
            f.plan.render(fresh.batch()),
            "{label}: rendered plans diverge"
        );
    }
}
