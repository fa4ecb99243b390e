//! Cross-crate property tests: the paper's structural claims checked on the
//! real materialization-benefit function (not just abstract instances).

use mqo_core::batch::BatchDag;
use mqo_core::benefit::MbFunction;
use mqo_core::engine::{BestCostEngine, MqoConfig};
use mqo_submod::bitset::{all_subsets, BitSet};
use mqo_submod::function::SetFunction;
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::optimizer::{MatOverlay, Optimizer, PlanTable};
use mqo_volcano::rules::RuleSet;

fn mb_for(workload: &str, sf: f64) -> (BatchDag, MbFunction) {
    let w = if let Some(i) = workload.strip_prefix("BQ") {
        mqo_tpcd::batched(i.parse().unwrap(), sf)
    } else {
        mqo_tpcd::standalone(workload, sf)
    };
    let batch = BatchDag::build(w.ctx, &w.queries, &RuleSet::default());
    let cm = DiskCostModel::paper();
    let engine = BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable());
    let mb = MbFunction::new(engine);
    (batch, mb)
}

#[test]
fn mb_is_normalized_on_real_workloads() {
    for wl in ["BQ2", "Q11", "Q15"] {
        let (_, mb) = mb_for(wl, 1.0);
        assert_eq!(mb.eval(&BitSet::empty(mb.universe())), 0.0, "{wl}");
    }
}

#[test]
fn decomposition_identity_on_real_mb() {
    // Proposition 1: f = f*_M − c* on every subset (exhaustive on Q11's
    // small universe).
    let (_, mb) = mb_for("Q11", 1.0);
    let n = mb.universe();
    assert!(n <= 12, "Q11's universe should be small (got {n})");
    let d = mb.canonical_decomposition();
    for s in all_subsets(n) {
        let direct = mb.eval(&s);
        let recomposed = d.monotone_value(&mb, &s) - d.cost_of(&s);
        assert!(
            (direct - recomposed).abs() < 1e-6 * (1.0 + direct.abs()),
            "set {s:?}"
        );
    }
}

#[test]
fn best_use_cost_is_monotone_nonincreasing_in_s() {
    // buc(S) is monotonically decreasing (Section 2.4): more materialized
    // nodes can only reduce the best-use cost.
    let (batch, mb) = mb_for("BQ2", 1.0);
    let n = mb.universe();
    let cm = DiskCostModel::paper();
    let opt = Optimizer::new(batch.memo(), &cm);

    let mut sets = vec![BitSet::empty(n)];
    // A nested chain ∅ ⊂ S1 ⊂ S2 ⊂ ... over the first few elements.
    for e in 0..n.min(6) {
        let mut next = sets.last().expect("non-empty").clone();
        next.insert(e);
        sets.push(next);
    }
    let mut prev = f64::INFINITY;
    for s in &sets {
        let overlay = MatOverlay::new(batch.memo(), s.iter().map(|e| batch.shareable()[e]));
        let mut table = PlanTable::new();
        let buc = opt.best_use_cost(batch.root(), &overlay, &mut table);
        assert!(
            buc <= prev + 1e-6,
            "buc must not increase as S grows: {buc} after {prev}"
        );
        prev = buc;
    }
}

#[test]
fn engine_and_reference_agree_on_random_subsets() {
    let (batch, mb) = mb_for("BQ2", 1.0);
    let n = mb.universe();
    let cm = DiskCostModel::paper();
    let opt = Optimizer::new(batch.memo(), &cm);

    let mut state = 0xDEADBEEFu64;
    for _ in 0..10 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let set = BitSet::from_iter(n, (0..n).filter(|e| (state >> (e % 61)) & 3 == 0));
        let engine_bc = mb.bc(&set);

        let groups: Vec<_> = set.iter().map(|e| batch.shareable()[e]).collect();
        let overlay = MatOverlay::new(batch.memo(), groups.iter().copied());
        let mut table = PlanTable::new();
        let mut reference = opt.best_use_cost(batch.root(), &overlay, &mut table);
        for &g in &groups {
            reference += opt.produce_cost(g, &overlay) + opt.write_cost(g);
        }
        assert!(
            (engine_bc - reference).abs() < 1e-6 * (1.0 + reference),
            "engine {engine_bc} vs reference {reference}"
        );
    }
}

#[test]
fn incremental_equals_full_on_real_mb() {
    let w = mqo_tpcd::batched(3, 1.0);
    let batch = BatchDag::build(w.ctx, &w.queries, &RuleSet::default());
    let cm = DiskCostModel::paper();
    let inc = MbFunction::new(BestCostEngine::new(
        batch.memo(),
        &cm,
        batch.root(),
        batch.shareable(),
    ));
    let full = MbFunction::new(BestCostEngine::with_config(
        batch.memo(),
        &cm,
        batch.root(),
        batch.shareable(),
        MqoConfig {
            force_full: true,
            ..Default::default()
        },
    ));
    let n = inc.universe();
    let mut state = 777u64;
    for _ in 0..25 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let set = BitSet::from_iter(n, (0..n).filter(|e| (state >> (e % 59)) & 7 == 0));
        let a = inc.eval(&set);
        let b = full.eval(&set);
        assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()), "{a} vs {b}");
    }
}

#[test]
fn monotonicity_heuristic_mostly_holds_on_tpcd() {
    // The paper adopts the supermodularity-of-bestCost assumption because
    // Pyro observed it "may be a reasonable one" in practice. Measure the
    // violation rate on a real workload: sampled submodularity checks
    // f'(u, A) >= f'(u, A ∪ {v}) should hold for the vast majority of
    // triples.
    let (_, mb) = mb_for("BQ2", 1.0);
    let n = mb.universe();
    let mut checked = 0u32;
    let mut violated = 0u32;
    let mut state = 42u64;
    for _ in 0..60 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = BitSet::from_iter(n, (0..n).filter(|e| (state >> (e % 53)) & 7 == 0));
        let u = (state >> 8) as usize % n;
        let v = (state >> 24) as usize % n;
        if u == v || a.contains(u) || a.contains(v) {
            continue;
        }
        let lhs = mb.marginal(u, &a);
        let rhs = mb.marginal(u, &a.with(v));
        checked += 1;
        if lhs + 1e-6 * (1.0 + lhs.abs()) < rhs {
            violated += 1;
        }
    }
    assert!(checked > 10, "not enough samples");
    let rate = f64::from(violated) / f64::from(checked);
    assert!(
        rate < 0.35,
        "submodularity violated in {violated}/{checked} samples — far beyond \
         the 'reasonable assumption' regime"
    );
}
