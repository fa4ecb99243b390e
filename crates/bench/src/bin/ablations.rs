//! Ablations of the design choices called out in DESIGN.md.
//!
//! 1. **Lazy vs eager** (Section 5.2): identical answers, fewer candidate
//!    evaluations for the lazy variants.
//! 2. **Incremental vs full `bestCost`** (Section 5.1 / Pyro's third
//!    optimization): identical answers, large speed difference.
//! 3. **Theorem 4 universe reduction**: identical answers under a
//!    cardinality constraint.
//! 4. **Decomposition choice** (Proposition 2): the canonical decomposition
//!    vs an inflated one — achieved benefit comparison.
//! 5. **Cleanup extension**: how far the workload's `mb` deviates from the
//!    submodularity assumption.

use mqo_bench::timing::measure;
use mqo_core::batch::BatchDag;
use mqo_core::benefit::MbFunction;
use mqo_core::engine::{BestCostEngine, MqoConfig};
use mqo_core::session::Session;
use mqo_core::strategies::Strategy;
use mqo_submod::algorithms::greedy::{select, Evaluation, Ranking};
use mqo_submod::algorithms::marginal_greedy::{marginal_greedy, Config};
use mqo_submod::bitset::BitSet;
use mqo_submod::decompose::Decomposition;
use mqo_submod::function::SetFunction;
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::rules::RuleSet;

fn main() {
    let cm = DiskCostModel::paper();

    println!("== 1. Lazy vs eager MarginalGreedy ==");
    for i in [3usize, 5] {
        let w = mqo_tpcd::batched(i, 1.0);
        let batch = BatchDag::build(w.ctx, &w.queries, &RuleSet::default());
        let engine = BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable());
        let mb = MbFunction::new(engine);
        let n = mb.universe();
        let d = mb.canonical_decomposition();
        let full = BitSet::full(n);

        let eager = marginal_greedy(&mb, &d, &full, Config::default());
        let lazy = select(
            &mb,
            Ranking::Ratio(&d),
            Evaluation::Lazy,
            &full,
            Config::default(),
        );
        assert_eq!(eager.set, lazy.set);
        println!(
            "BQ{i} (n={n}): eager {} evals | lazy {} evals (same answer)",
            eager.evaluations, lazy.evaluations
        );
    }

    println!("\n== 2. Incremental vs full bestCost recomputation ==");
    for i in [3usize, 5] {
        let w = mqo_tpcd::batched(i, 1.0);
        let batch = BatchDag::build(w.ctx, &w.queries, &RuleSet::default());
        let mut times = Vec::new();
        let mut costs = Vec::new();
        for force_full in [false, true] {
            let config = MqoConfig {
                force_full,
                ..Default::default()
            };
            let engine = BestCostEngine::with_config(
                batch.memo(),
                &cm,
                batch.root(),
                batch.shareable(),
                config,
            );
            let mb = MbFunction::new(engine);
            let n = mb.universe();
            let d = mb.canonical_decomposition();
            let (out, elapsed) =
                measure(|| marginal_greedy(&mb, &d, &BitSet::full(n), Config::default()));
            times.push(elapsed);
            costs.push(out.value);
        }
        assert!((costs[0] - costs[1]).abs() < 1e-6);
        println!(
            "BQ{i}: incremental {:?} vs full {:?} ({}x, same answer)",
            times[0],
            times[1],
            (times[1].as_secs_f64() / times[0].as_secs_f64()).round()
        );
    }

    println!("\n== 3. Theorem 4 universe reduction under cardinality constraints ==");
    for k in [2usize, 4] {
        let w = mqo_tpcd::batched(4, 1.0);
        let session = Session::builder()
            .context(w.ctx)
            .queries(w.queries)
            .cost_model(cm)
            .build();
        let capped = |universe_reduction| MqoConfig {
            max_materializations: Some(k),
            universe_reduction,
            ..session.config()
        };
        let with = session.run_with(Strategy::MarginalGreedy, capped(true));
        let without = session.run_with(Strategy::MarginalGreedy, capped(false));
        assert_eq!(with.materialized, without.materialized);
        println!(
            "BQ4, k={k}: cost {:.0} with reduction == {:.0} without (Theorem 4 verified)",
            with.total_cost, without.total_cost
        );
    }

    println!("\n== 4. Decomposition choice (Proposition 2) ==");
    {
        let w = mqo_tpcd::batched(4, 1.0);
        let batch = BatchDag::build(w.ctx, &w.queries, &RuleSet::default());
        let engine = BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable());
        let mb = MbFunction::new(engine);
        let n = mb.universe();
        let full = BitSet::full(n);
        let canonical = mb.canonical_decomposition();
        // An inflated decomposition: canonical costs plus a positive linear
        // term (the paper's example of a strictly worse choice).
        let inflated =
            Decomposition::from_costs((0..n).map(|e| canonical.cost(e).abs() + 1.0e5).collect());
        let canon_out = marginal_greedy(&mb, &canonical, &full, Config::default());
        let infl_out = marginal_greedy(&mb, &inflated, &full, Config::default());
        println!(
            "BQ4: canonical decomposition benefit {:.0} vs inflated {:.0}",
            canon_out.value, infl_out.value
        );
    }

    println!("\n== 5. Cleanup extension (submodularity-violation probe) ==");
    for name in ["Q11", "Q15"] {
        let w = mqo_tpcd::standalone(name, 1.0);
        let session = Session::builder()
            .context(w.ctx)
            .queries(w.queries)
            .cost_model(cm)
            .build();
        let plain = session.run(Strategy::MarginalGreedy);
        let cleaned = session.run(Strategy::MarginalGreedyCleanup);
        println!(
            "{name}: MarginalGreedy {:.0} → +cleanup {:.0} ({} → {} materialized)",
            plain.total_cost,
            cleaned.total_cost,
            plain.materialized.len(),
            cleaned.materialized.len()
        );
    }
}
