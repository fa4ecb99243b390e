//! Differential test for consolidated-plan extraction: the arena-based
//! extractor (`RunReport::plan`, reading winners off the compiled
//! `BestCostEngine` arenas) against the pre-`Session` path — the reference
//! `mqo_volcano::optimizer::Optimizer` with its `HashMap`-keyed
//! `PlanTable`, replayed here exactly as the old
//! `ConsolidatedPlan::extract` drove it.
//!
//! Pinned: identical plan trees (operators, groups, output orders, row
//! estimates, child shapes) and matching costs on BQ3/BQ4 across every
//! strategy and `threads ∈ {1, 4}`. This is the contract that allowed the
//! old extraction path to be deleted from `mqo-core`.

use mqo_core::config::MqoConfig;
use mqo_core::session::{OptimizedBatch, Session};
use mqo_core::strategies::{RunReport, Strategy};
use mqo_tpcd::{Shape, WorkloadSpec};
use mqo_volcano::cost::{CostModel, DiskCostModel};
use mqo_volcano::memo::GroupId;
use mqo_volcano::optimizer::{MatOverlay, Optimizer, PlanTable};
use mqo_volcano::physical::{PhysPlan, SortOrder};
use mqo_volcano::rules::RuleSet;

fn build(i: usize) -> OptimizedBatch {
    let w = mqo_tpcd::batched(i, 1.0);
    Session::builder()
        .context(w.ctx)
        .queries(w.queries)
        .rules(RuleSet::default())
        .cost_model(DiskCostModel::paper())
        .build()
}

/// The old extraction path, verbatim: reference optimizer + `PlanTable`
/// per materialization (with the node's own read excluded) and per query.
fn reference_extract(
    batch: &mqo_core::batch::BatchDag,
    cm: &dyn CostModel,
    materialized: &[GroupId],
) -> (Vec<(GroupId, PhysPlan)>, Vec<PhysPlan>, f64) {
    let opt = Optimizer::new(batch.memo(), cm);
    let overlay = MatOverlay::new(batch.memo(), materialized.iter().copied());
    let mut total = 0.0;

    let mut materializations = Vec::with_capacity(materialized.len());
    for &g in materialized {
        let g = batch.memo().find(g);
        let produce_overlay = overlay.excluding(g);
        let mut table = PlanTable::new();
        let cost = opt.best_use_cost(g, &produce_overlay, &mut table);
        let plan = opt.extract_plan(g, &SortOrder::none(), &produce_overlay, &mut table);
        total += cost + opt.write_cost(g);
        materializations.push((g, plan));
    }

    let mut query_plans = Vec::with_capacity(batch.query_roots().len());
    for &q in batch.query_roots() {
        let mut table = PlanTable::new();
        let cost = opt.best_use_cost(q, &overlay, &mut table);
        let plan = opt.extract_plan(q, &SortOrder::none(), &overlay, &mut table);
        total += cost;
        query_plans.push(plan);
    }

    (materializations, query_plans, total)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

/// Structural plan equality: identical operators, groups, and output
/// orders at every node, with costs matching up to floating-point
/// reassociation (the two paths sum identical terms in different orders).
fn assert_plans_equal(arena: &PhysPlan, reference: &PhysPlan, path: &str) {
    assert_eq!(
        arena.op, reference.op,
        "{path}: operator mismatch\narena: {arena:#?}\nreference: {reference:#?}"
    );
    assert_eq!(arena.group, reference.group, "{path}: group mismatch");
    assert_eq!(arena.order, reference.order, "{path}: order mismatch");
    assert_eq!(arena.rows, reference.rows, "{path}: row estimate mismatch");
    assert!(
        close(arena.op_cost, reference.op_cost),
        "{path}: op_cost {} vs {}",
        arena.op_cost,
        reference.op_cost
    );
    assert!(
        close(arena.total_cost, reference.total_cost),
        "{path}: total_cost {} vs {}",
        arena.total_cost,
        reference.total_cost
    );
    assert_eq!(
        arena.children.len(),
        reference.children.len(),
        "{path}: child count mismatch"
    );
    for (i, (a, r)) in arena
        .children
        .iter()
        .zip(reference.children.iter())
        .enumerate()
    {
        assert_plans_equal(a, r, &format!("{path}/{i}"));
    }
}

/// Every strategy under the default configuration at `threads`, plus
/// MarginalGreedy capped at k = 2 with the Theorem 4 pre-pass on, so
/// capped extraction stays covered.
fn all_cases(threads: usize) -> Vec<(Strategy, MqoConfig)> {
    let base = MqoConfig {
        threads,
        ..Default::default()
    };
    let mut cases: Vec<(Strategy, MqoConfig)> = [
        Strategy::Volcano,
        Strategy::Greedy,
        Strategy::LazyGreedy,
        Strategy::MarginalGreedy,
        Strategy::LazyMarginalGreedy,
        Strategy::MaterializeAll,
        Strategy::MarginalGreedyCleanup,
        // Exhaustive is omitted: the BQ3/BQ4 universes exceed its 20-node
        // limit; its extraction path is identical to the others'.
    ]
    .map(|s| (s, base))
    .to_vec();
    cases.push((
        Strategy::MarginalGreedy,
        MqoConfig {
            max_materializations: Some(2),
            universe_reduction: true,
            ..base
        },
    ));
    cases
}

/// Asserts that `report`'s arena-extracted consolidated plan equals the
/// reference `PlanTable` extraction of the same materialized set.
fn assert_extraction_matches(session: &OptimizedBatch, report: &RunReport, case: &str) {
    let cm = DiskCostModel::paper();
    let (ref_mats, ref_queries, ref_total) =
        reference_extract(session.batch(), &cm, &report.materialized);

    assert!(
        close(report.plan.total_cost, ref_total),
        "{case}: arena total {} vs reference {}",
        report.plan.total_cost,
        ref_total
    );
    assert_eq!(report.plan.materializations.len(), ref_mats.len());
    for ((ag, ap), (rg, rp)) in report.plan.materializations.iter().zip(&ref_mats) {
        assert_eq!(ag, rg, "{case}: materialization order");
        assert_plans_equal(ap, rp, &format!("{case}/mat{}", ag.0));
    }
    assert_eq!(report.plan.query_plans.len(), ref_queries.len());
    for (qi, (ap, rp)) in report.plan.query_plans.iter().zip(&ref_queries).enumerate() {
        assert_plans_equal(ap, rp, &format!("{case}/q{qi}"));
    }
}

fn check_workload(i: usize) {
    let session = build(i);
    for threads in [1usize, 4] {
        for (strategy, config) in all_cases(threads) {
            let report = session.run_with(strategy, config);
            let case = match config.max_materializations {
                Some(k) => format!("BQ{i}/{}[k={k}]@{threads}", report.strategy),
                None => format!("BQ{i}/{}@{threads}", report.strategy),
            };
            assert_extraction_matches(&session, &report, &case);
        }
    }
}

#[test]
fn arena_extractor_matches_plantable_path_on_bq3() {
    check_workload(3);
}

#[test]
fn arena_extractor_matches_plantable_path_on_bq4() {
    check_workload(4);
}

/// A generated chain batch evolving: 24 base queries over 48 tables, then
/// eight admissions and two retires (one base query, one arrival). After
/// the build and after every write, MarginalGreedy's extracted plan must
/// equal the reference extraction over the evolved memo, at threads 1
/// and 4.
#[test]
fn arena_extractor_matches_plantable_path_across_evolution() {
    for threads in [1usize, 4] {
        let w = mqo_tpcd::generate(&WorkloadSpec {
            shape: Shape::Chain,
            tables: 48,
            queries: 24 + 8,
            span: (6, 9),
            overlap: 0.3,
            select_prob: 0.35,
            base_rows: 500.0,
            seed: 7,
        });
        let (base, arrivals) = w.queries.split_at(24);
        let mut session = Session::builder()
            .context(w.ctx)
            .queries(base.iter().cloned())
            .rules(RuleSet::default())
            .cost_model(DiskCostModel::paper())
            .threads(threads)
            .build();
        let first = session.tickets()[0];
        let check = |session: &OptimizedBatch, step: &str| {
            let report = session.run(Strategy::MarginalGreedy);
            assert_extraction_matches(session, &report, &format!("chain/{step}@{threads}"));
        };
        check(&session, "base");
        let mut admitted = Vec::new();
        for (i, q) in arrivals.iter().enumerate() {
            admitted.push(session.add_query(q.clone()));
            check(&session, &format!("add{i}"));
        }
        session.retire_query(first);
        check(&session, "retire-base");
        session.retire_query(admitted[0]);
        check(&session, "retire-arrival");
    }
}
