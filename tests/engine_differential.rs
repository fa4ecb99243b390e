//! Differential sweeps for the refactored `bestCost` evaluation stack:
//! the CSR-arena incremental/batched paths must agree with the
//! full-recomputation ablation bit-for-bit (well under `1e-9` relative) on
//! random subsets of a real TPCD 4-query batch, and the batched oracle API
//! must agree with a plain `eval` loop.

use std::cell::RefCell;

use mqo_core::batch::BatchDag;
use mqo_core::benefit::MbFunction;
use mqo_core::engine::{BestCostEngine, MqoConfig};
use mqo_submod::bitset::BitSet;
use mqo_submod::function::SetFunction;
use mqo_submod::prng::{seeded_sweep, Prng};
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::rules::RuleSet;

const SWEEP_SEED: u64 = 0x5EED_0010;

fn bq4() -> BatchDag {
    let w = mqo_tpcd::batched(4, 1.0);
    BatchDag::build(w.ctx, &w.queries, &RuleSet::default())
}

fn engine(batch: &BatchDag, config: MqoConfig) -> BestCostEngine {
    let cm = DiskCostModel::paper();
    BestCostEngine::with_config(batch.memo(), &cm, batch.root(), batch.shareable(), config)
}

fn random_subset(rng: &mut Prng, n: usize) -> BitSet {
    let density = rng.gen_range(0.05..0.6);
    BitSet::from_iter(n, (0..n).filter(|_| rng.gen_bool(density)))
}

/// Incremental evaluation (overlay + rebase heuristic) matches `force_full`
/// on random subsets of the TPCD 4-query batch.
#[test]
fn incremental_matches_force_full_on_bq4() {
    let batch = bq4();
    let n = batch.universe_size();
    assert!(n > 0);
    let inc = RefCell::new(engine(&batch, MqoConfig::default()));
    let full = RefCell::new(engine(
        &batch,
        MqoConfig {
            force_full: true,
            ..Default::default()
        },
    ));
    seeded_sweep("incremental_vs_force_full", SWEEP_SEED, 32, |rng| {
        let set = random_subset(rng, n);
        let a = inc.borrow_mut().bc(&set);
        let b = full.borrow_mut().bc(&set);
        assert!(
            (a - b).abs() < 1e-9 * (1.0 + b.abs()),
            "incremental {a} vs full {b} on {set:?}"
        );
    });
}

/// `bc_many` (shared-base batched evaluation) matches `force_full` on
/// random candidate batches.
#[test]
fn batched_matches_force_full_on_bq4() {
    let batch = bq4();
    let n = batch.universe_size();
    let full = RefCell::new(engine(
        &batch,
        MqoConfig {
            force_full: true,
            ..Default::default()
        },
    ));
    let batched = RefCell::new(engine(&batch, MqoConfig::default()));
    // The seed of the former threshold-4 case, so the same sets run.
    seeded_sweep("batched_vs_force_full", SWEEP_SEED + 1 + 4, 12, |rng| {
        // A greedy-round-shaped batch: shared base + one extra element per
        // candidate, plus a couple of arbitrary sets.
        let base = random_subset(rng, n);
        let mut sets: Vec<BitSet> = (0..n)
            .filter(|&e| !base.contains(e) && e % 3 == 0)
            .map(|e| base.with(e))
            .collect();
        sets.push(random_subset(rng, n));
        sets.push(base.clone());
        let many = batched.borrow_mut().bc_many(&sets);
        for (s, &v) in sets.iter().zip(&many) {
            let expect = full.borrow_mut().bc(s);
            assert!(
                (v - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                "batched {v} vs full {expect}"
            );
        }
    });
}

/// `marginal_many` on the real materialization-benefit function is
/// bit-identical to a `marginal` loop (the arithmetic mirrors the default
/// implementation exactly; only the oracle work differs).
#[test]
fn marginal_many_equals_marginal_loop_on_mb() {
    let batch = bq4();
    let cm = DiskCostModel::paper();
    let mb_batched = MbFunction::new(BestCostEngine::new(
        batch.memo(),
        &cm,
        batch.root(),
        batch.shareable(),
    ));
    let mb_loop = MbFunction::new(BestCostEngine::new(
        batch.memo(),
        &cm,
        batch.root(),
        batch.shareable(),
    ));
    let n = mb_batched.universe();
    seeded_sweep(
        "marginal_many_vs_marginal_loop",
        SWEEP_SEED + 3,
        12,
        |rng| {
            let base = random_subset(rng, n);
            let elems: Vec<usize> = (0..n)
                .filter(|&e| !base.contains(e) && e % 5 == 0)
                .collect();
            if elems.is_empty() {
                return;
            }
            let many = mb_batched.marginal_many(&elems, &base);
            for (&e, &m) in elems.iter().zip(&many) {
                let expect = mb_loop.marginal(e, &base);
                assert!(
                    (m - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                    "element {e}: marginal_many {m} vs marginal {expect}"
                );
            }
        },
    );
}

/// `eval_many` on the real materialization-benefit function is equivalent
/// to an `eval` loop, and both count one oracle call per set.
#[test]
fn eval_many_equals_eval_loop_on_mb() {
    let batch = bq4();
    let cm = DiskCostModel::paper();
    let mb_batched = MbFunction::new(BestCostEngine::new(
        batch.memo(),
        &cm,
        batch.root(),
        batch.shareable(),
    ));
    let mb_loop = MbFunction::new(BestCostEngine::new(
        batch.memo(),
        &cm,
        batch.root(),
        batch.shareable(),
    ));
    let n = mb_batched.universe();
    seeded_sweep("eval_many_vs_eval_loop", SWEEP_SEED + 2, 16, |rng| {
        let base = random_subset(rng, n);
        let mut sets: Vec<BitSet> = (0..n)
            .filter(|&e| !base.contains(e) && e % 4 == 0)
            .map(|e| base.with(e))
            .collect();
        sets.push(random_subset(rng, n));
        let before = mb_batched.bc_calls();
        let many = mb_batched.eval_many(&sets);
        assert_eq!(
            mb_batched.bc_calls(),
            before + sets.len() as u64,
            "eval_many must count one bc call per set"
        );
        for (s, &v) in sets.iter().zip(&many) {
            let expect = mb_loop.eval(s);
            assert!(
                (v - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                "eval_many {v} vs eval {expect}"
            );
        }
    });
}
