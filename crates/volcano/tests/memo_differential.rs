//! Differential suite for parallel memo expansion: the memo produced by
//! `expand_with(.., threads)` must be **identical** to the serial one at
//! every thread count — same group/expression counts, same dense
//! topological view (which pins group identities, adjacency, and order),
//! and identical optimized physical plans for every query root.
//!
//! The generation phase reads a frozen snapshot and the commit phase is
//! serial in frontier order, so this holds bit-for-bit by construction;
//! these sweeps pin the contract on the real TPCD batched workloads and on
//! seeded random instances.

use mqo_submod::prng::Prng;
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::logical::PlanNode;
use mqo_volcano::memo::Memo;
use mqo_volcano::optimizer::{MatOverlay, Optimizer, PlanTable};
use mqo_volcano::physical::SortOrder;
use mqo_volcano::rules::{expand_seeded, expand_with, ExpansionStats, RuleSet};
use mqo_volcano::{DagContext, GroupId};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Builds a memo from `queries`, expands it with `threads` workers, and
/// roots it.
fn build(
    ctx: DagContext,
    queries: &[PlanNode],
    rules: &RuleSet,
    threads: usize,
) -> (Memo, GroupId, Vec<GroupId>, ExpansionStats) {
    let mut memo = Memo::new(ctx);
    for q in queries {
        let root = memo.insert_plan(q);
        memo.add_query_root(root);
    }
    let stats = expand_with(&mut memo, rules, threads);
    let root = memo.build_batch_root();
    let roots = memo.roots();
    (memo, root, roots, stats)
}

/// The optimized physical plan of every query root (no materializations),
/// rendered to strings for comparison, plus the costs.
fn optimized_plans(memo: &Memo, roots: &[GroupId]) -> Vec<(String, f64)> {
    let cm = DiskCostModel::paper();
    let opt = Optimizer::new(memo, &cm);
    let overlay = MatOverlay::empty();
    roots
        .iter()
        .map(|&r| {
            let mut table = PlanTable::new();
            let cost = opt.best_use_cost(r, &overlay, &mut table);
            let plan = opt.extract_plan(r, &SortOrder::none(), &overlay, &mut table);
            (format!("{plan:?}"), cost)
        })
        .collect()
}

/// Asserts the serial and `threads`-worker expansions of the same workload
/// agree on everything observable.
fn assert_identical(make: impl Fn() -> (DagContext, Vec<PlanNode>), rules: &RuleSet, label: &str) {
    let (ctx, queries) = make();
    let (serial, s_root, s_roots, s_stats) = build(ctx, &queries, rules, 1);
    serial.check_consistency();
    let s_topo = serial.topo_view();
    let s_plans = optimized_plans(&serial, &s_roots);
    for t in THREADS.into_iter().skip(1) {
        let (ctx, queries) = make();
        let (par, p_root, p_roots, p_stats) = build(ctx, &queries, rules, t);
        par.check_consistency();
        assert_eq!(
            serial.exprs_allocated(),
            par.exprs_allocated(),
            "{label} threads={t}: allocated expression slots diverge"
        );
        assert_eq!(serial.n_exprs(), par.n_exprs(), "{label} threads={t}");
        assert_eq!(serial.n_groups(), par.n_groups(), "{label} threads={t}");
        assert_eq!(s_stats.passes, p_stats.passes, "{label} threads={t}");
        assert_eq!(
            s_stats.candidates, p_stats.candidates,
            "{label} threads={t}"
        );
        assert_eq!(s_root, p_root, "{label} threads={t}: batch root diverges");
        assert_eq!(s_roots, p_roots, "{label} threads={t}: query roots");
        assert_eq!(
            s_topo,
            par.topo_view(),
            "{label} threads={t}: TopoView diverges"
        );
        assert_eq!(
            s_plans,
            optimized_plans(&par, &p_roots),
            "{label} threads={t}: optimized plans diverge"
        );
    }
}

#[test]
fn tpcd_batches_expand_identically_at_every_thread_count() {
    for i in [3usize, 4] {
        for rules in [RuleSet::default(), RuleSet::joins_only()] {
            assert_identical(
                || {
                    let w = mqo_tpcd::batched(i, 1.0);
                    (w.ctx, w.queries)
                },
                &rules,
                &format!("BQ{i}"),
            );
        }
    }
}

#[test]
fn random_instances_expand_identically_at_every_thread_count() {
    // Instance distribution shared with the session-evolution harness:
    // `mqo_tpcd::random` (5 chained tables, 2-4 overlapping chain queries).
    for case in 0..8u64 {
        let seed = Prng::derive_seed(0x4D45_4D4F, case);
        let make = || mqo_tpcd::random::random_workload(seed, 5);
        assert_identical(make, &RuleSet::default(), &format!("random case {case}"));
    }
}

/// Builds a fresh copy of one workload's context and queries.
type MakeWorkload = Box<dyn Fn() -> (DagContext, Vec<PlanNode>)>;

/// The workloads of the semi-naive contract: TPC-D BQ1–BQ6, the
/// stand-alone Q2/Q2-D/Q11/Q15, and every generator shape at three
/// overlaps.
fn contract_workloads() -> Vec<(String, MakeWorkload)> {
    let mut out: Vec<(String, MakeWorkload)> = Vec::new();
    for i in 1..=6usize {
        out.push((
            format!("BQ{i}"),
            Box::new(move || {
                let w = mqo_tpcd::batched(i, 1.0);
                (w.ctx, w.queries)
            }),
        ));
    }
    for name in mqo_tpcd::STANDALONE_NAMES {
        out.push((
            name.to_string(),
            Box::new(move || {
                let w = mqo_tpcd::standalone(name, 1.0);
                (w.ctx, w.queries)
            }),
        ));
    }
    for shape in mqo_tpcd::Shape::ALL {
        for overlap in [0.0, 0.3, 0.6] {
            let spec = mqo_tpcd::WorkloadSpec {
                queries: 12,
                overlap,
                ..mqo_tpcd::WorkloadSpec::smoke(shape, 0x5E41)
            };
            out.push((
                format!("{}@{overlap}", shape.name()),
                Box::new(move || {
                    let w = mqo_tpcd::generate(&spec);
                    (w.ctx, w.queries)
                }),
            ));
        }
    }
    out
}

/// Expands `queries` either from scratch or as half-then-`expand_seeded`
/// (the first half expanded and rooted, then the second half inserted and
/// expanded from its new expressions only), then roots the batch.
fn expand_case(ctx: DagContext, queries: &[PlanNode], seeded: bool, threads: usize) -> Memo {
    let rules = RuleSet::default();
    let mut memo = Memo::new(ctx);
    let half = if seeded {
        queries.len() / 2
    } else {
        queries.len()
    };
    for q in &queries[..half] {
        let root = memo.insert_plan(q);
        memo.add_query_root(root);
    }
    if half > 0 {
        expand_with(&mut memo, &rules, threads);
        memo.build_batch_root();
    }
    let watermark = memo.exprs_allocated() as u32;
    for q in &queries[half..] {
        let root = memo.insert_plan(q);
        memo.add_query_root(root);
    }
    let seeds = (watermark..memo.exprs_allocated() as u32).map(mqo_volcano::ExprId);
    expand_seeded(&mut memo, &rules, threads, seeds);
    memo.build_batch_root();
    memo
}

/// `(n_exprs, n_groups, exprs_allocated)` of an expanded memo.
type Sizes = (usize, usize, usize);

/// Live expressions, live groups and allocated expression slots of every
/// contract case, as a full re-match of every frontier entry produces
/// them: per label, the from-scratch and then the half-then-seeded
/// expansion.
const CONTRACT_PINS: &[(&str, [Sizes; 2])] = &[
    ("BQ1", [(20, 16, 20), (20, 16, 21)]),
    ("BQ2", [(129, 57, 176), (129, 57, 177)]),
    ("BQ3", [(192, 86, 260), (192, 86, 248)]),
    ("BQ4", [(398, 149, 549), (398, 149, 550)]),
    ("BQ5", [(499, 188, 685), (499, 188, 683)]),
    ("BQ6", [(549, 206, 737), (549, 206, 740)]),
    ("Q2", [(58, 28, 73), (58, 28, 73)]),
    ("Q2-D", [(58, 28, 73), (58, 28, 66)]),
    ("Q11", [(13, 11, 13), (13, 11, 13)]),
    ("Q15", [(10, 9, 10), (10, 9, 10)]),
    ("chain@0", [(189, 105, 222), (189, 105, 221)]),
    ("chain@0.3", [(85, 56, 98), (85, 56, 99)]),
    ("chain@0.6", [(110, 60, 129), (110, 60, 128)]),
    ("star@0", [(229, 129, 252), (229, 129, 253)]),
    ("star@0.3", [(182, 106, 203), (182, 106, 204)]),
    ("star@0.6", [(200, 108, 225), (200, 108, 226)]),
    ("clique@0", [(236, 132, 254), (236, 132, 255)]),
    ("clique@0.3", [(129, 77, 135), (129, 77, 136)]),
    ("clique@0.6", [(87, 52, 96), (87, 52, 97)]),
    ("snowflake@0", [(183, 109, 192), (183, 109, 193)]),
    ("snowflake@0.3", [(140, 88, 149), (140, 88, 150)]),
    ("snowflake@0.6", [(150, 87, 162), (150, 87, 163)]),
];

/// Semi-naive matching skips only (entry, member) pairs an earlier round
/// already committed, so an expanded memo is a fixpoint: a following full
/// `expand_with` generates nothing new — one pass, no new expression
/// slot, no mutation — and the memo's size is the one the full re-match
/// produced, pinned per case.
#[test]
fn expansion_reaches_a_fixpoint_with_pinned_sizes() {
    for (label, make) in contract_workloads() {
        let (_, want) = CONTRACT_PINS
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("{label}: no pinned sizes"));
        for (mode, seeded) in [false, true].into_iter().enumerate() {
            for threads in [1usize, 4] {
                let (ctx, queries) = make();
                let mut memo = expand_case(ctx, &queries, seeded, threads);
                memo.check_consistency();
                let allocated = memo.exprs_allocated();
                let version = memo.version();
                let again = expand_with(&mut memo, &RuleSet::default(), threads);
                let case = format!("{label} seeded={seeded} threads={threads}");
                assert_eq!(again.passes, 1, "{case}: re-expansion is not a no-op");
                assert_eq!(memo.exprs_allocated(), allocated, "{case}: new slots");
                assert_eq!(memo.version(), version, "{case}: memo mutated");
                assert_eq!(
                    (memo.n_exprs(), memo.n_groups(), allocated),
                    want[mode],
                    "{case}: (exprs, groups, slots)"
                );
            }
        }
    }
}
