//! Materialization under a storage budget (Section 5.3).
//!
//! A cardinality constraint `k` caps how many subexpressions may be
//! materialized. The paper adapts MarginalGreedy by stopping after `k`
//! picks and prunes the candidate universe via Theorem 4 — provably
//! without changing the answer. This example sweeps `k` on a batched
//! workload and shows the benefit curve flattening, plus the Theorem 4
//! equivalence at every budget.
//!
//! Run with `cargo run --release --example storage_budget`.

use provable_mqo::prelude::*;

fn main() {
    let w = mqo_tpcd::batched(4, 1.0);
    let session = Session::builder()
        .context(w.ctx)
        .queries(w.queries)
        .cost_model(DiskCostModel::paper())
        .build();
    let volcano = session.run(Strategy::Volcano);
    println!(
        "BQ4 at SF 1: {} shareable nodes, Volcano cost {:.0}\n",
        session.universe_size(),
        volcano.total_cost
    );
    println!(
        "{:>3} {:>14} {:>12} {:>10}  Theorem 4",
        "k", "cost", "benefit", "used"
    );
    for k in [0usize, 1, 2, 3, 4, 6, 8] {
        let capped = |universe_reduction| MqoConfig {
            max_materializations: Some(k),
            universe_reduction,
            ..session.config()
        };
        let constrained = session.run_with(Strategy::MarginalGreedy, capped(false));
        let pruned = session.run_with(Strategy::MarginalGreedy, capped(true));
        assert_eq!(
            constrained.materialized, pruned.materialized,
            "Theorem 4: universe reduction must not change the answer"
        );
        println!(
            "{:>3} {:>14.0} {:>12.0} {:>10}  same set with pruning ✓",
            k,
            constrained.total_cost,
            constrained.benefit,
            constrained.materialized.len(),
        );
    }
    let unconstrained = session.run(Strategy::MarginalGreedy);
    println!(
        "\nunconstrained MarginalGreedy: cost {:.0}, {} nodes",
        unconstrained.total_cost,
        unconstrained.materialized.len()
    );
}
