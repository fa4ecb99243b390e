//! Differential sweeps for the sharded `bestCost` oracle on TPCD BQ4:
//! sharded `bc_many` must be **bit-identical** to the serial path at every
//! thread count, and both must agree with the full-recomputation ablation
//! to `1e-9` relative. A warm handle whose cone memo carries across greedy
//! rounds must equal a cold handle committed to the same base, bitwise.
//! (The root-level
//! `tests/engine_differential.rs` covers the serial incremental/batched
//! paths; this sweep pins the parallel fan-out.)

use std::cell::RefCell;

use mqo_core::batch::BatchDag;
use mqo_core::engine::{BestCostEngine, MqoConfig};
use mqo_submod::bitset::BitSet;
use mqo_submod::prng::{seeded_sweep, Prng};
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::rules::RuleSet;

const SWEEP_SEED: u64 = 0x5EED_0030;

fn bq4() -> BatchDag {
    let w = mqo_tpcd::batched(4, 1.0);
    BatchDag::build(w.ctx, &w.queries, &RuleSet::default())
}

fn engine(batch: &BatchDag, config: MqoConfig) -> BestCostEngine {
    let cm = DiskCostModel::paper();
    BestCostEngine::with_config(batch.memo(), &cm, batch.root(), batch.shareable(), config)
}

fn random_subset(rng: &mut Prng, n: usize) -> BitSet {
    let density = rng.gen_range(0.05..0.5);
    BitSet::from_iter(n, (0..n).filter(|_| rng.gen_bool(density)))
}

/// A greedy-round-shaped batch (shared base, one extra element per
/// candidate) plus a few arbitrary sets to exercise the far-candidate
/// (uncommitted full solve) path.
fn round_batch(rng: &mut Prng, n: usize) -> Vec<BitSet> {
    let base = random_subset(rng, n);
    let mut sets: Vec<BitSet> = (0..n)
        .filter(|&e| !base.contains(e) && e % 3 == 0)
        .map(|e| base.with(e))
        .collect();
    sets.push(random_subset(rng, n));
    sets.push(random_subset(rng, n));
    sets.push(base);
    sets
}

/// Sharded `bc_many` ≡ serial `bc_many`, exactly (`==` on every value),
/// for threads ∈ {2, 3, 8}.
#[test]
fn sharded_bc_many_is_bit_identical_to_serial_on_bq4() {
    let batch = bq4();
    let n = batch.universe_size();
    assert!(n > 0);
    let serial = RefCell::new(engine(
        &batch,
        MqoConfig {
            threads: 1,
            ..Default::default()
        },
    ));
    for threads in [2usize, 3, 8] {
        let sharded = RefCell::new(engine(
            &batch,
            MqoConfig {
                threads,
                ..Default::default()
            },
        ));
        // The seed of the former threshold-4 case, so the same sets run.
        seeded_sweep(
            "sharded_vs_serial",
            SWEEP_SEED + threads as u64 + 4 * 8,
            8,
            |rng| {
                let sets = round_batch(rng, n);
                let a = serial.borrow_mut().bc_many(&sets);
                let b = sharded.borrow_mut().bc_many(&sets);
                assert_eq!(
                    a, b,
                    "threads {threads}: sharded values must be bit-identical to serial"
                );
            },
        );
        // (Incremental-path coverage is asserted by the greedy replay
        // below, whose candidates are exactly one element off base; these
        // batches include arbitrary far sets, which go full.)
    }
}

/// Sharded `bc_many` ≡ `force_full` to 1e-9 relative on the same batches.
#[test]
fn sharded_bc_many_matches_force_full_on_bq4() {
    let batch = bq4();
    let n = batch.universe_size();
    let full = RefCell::new(engine(
        &batch,
        MqoConfig {
            force_full: true,
            ..Default::default()
        },
    ));
    for threads in [2usize, 8] {
        let sharded = RefCell::new(engine(
            &batch,
            MqoConfig {
                threads,
                ..Default::default()
            },
        ));
        seeded_sweep(
            "sharded_vs_force_full",
            SWEEP_SEED + 40 + threads as u64,
            6,
            |rng| {
                let sets = round_batch(rng, n);
                let many = sharded.borrow_mut().bc_many(&sets);
                for (s, &v) in sets.iter().zip(&many) {
                    let expect = full.borrow_mut().bc(s);
                    assert!(
                        (v - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                        "threads {threads}: sharded {v} vs full {expect}"
                    );
                }
            },
        );
    }
}

/// A full greedy-run replay (growing base, every remaining element probed
/// per round) is bit-identical between serial and sharded engines — the
/// exact schedule the strategies execute.
#[test]
fn greedy_replay_is_bit_identical_across_thread_counts() {
    let batch = bq4();
    let n = batch.universe_size();
    let mut serial = engine(
        &batch,
        MqoConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let mut sharded = engine(
        &batch,
        MqoConfig {
            threads: 8,
            ..Default::default()
        },
    );
    let mut base = BitSet::empty(n);
    for round in 0..12.min(n) {
        let candidates: Vec<BitSet> = (0..n)
            .filter(|&e| !base.contains(e))
            .map(|e| base.with(e))
            .collect();
        let a = serial.bc_many(&candidates);
        let b = sharded.bc_many(&candidates);
        assert_eq!(a, b, "round {round}");
        // Commit the argmin (the greedy pick) and continue.
        let pick = a
            .iter()
            .enumerate()
            .min_by(|(_, x), (_, y)| x.total_cmp(y))
            .map(|(i, _)| i)
            .unwrap();
        let elem = candidates[pick]
            .symmetric_difference_iter(&base)
            .next()
            .unwrap();
        base.insert(elem);
    }
    let (_, inc) = sharded.eval_counts();
    assert!(
        inc > 0,
        "round-shaped candidates must take the sharded incremental path"
    );
}

/// A seeded chain instance from the workload generator with a few hundred
/// candidates.
fn chain_instance() -> BatchDag {
    let w = mqo_tpcd::generate(&mqo_tpcd::WorkloadSpec {
        queries: 40,
        span: (4, 7),
        ..mqo_tpcd::WorkloadSpec::smoke(mqo_tpcd::Shape::Chain, 11)
    });
    BatchDag::build(w.ctx, &w.queries, &RuleSet::default())
}

/// Replays greedy rounds on one warm handle, whose cone memo carries
/// across rounds, and pins every round's values bitwise to a cold handle
/// committed to the same base. Every third round first moves the warm
/// base far away (a full-solve rebase) and evaluates a far set, so the
/// next round must not serve a cone recorded before the jump. Returns the
/// per-round values and the handle's cone-reuse count.
fn warm_vs_cold_replay(batch: &BatchDag, threads: usize, rounds: usize) -> (Vec<Vec<f64>>, u64) {
    let state = batch.compile_state(&DiskCostModel::paper());
    let config = MqoConfig {
        threads,
        ..Default::default()
    };
    let n = state.universe_size();
    let mut warm = state.engine(config);
    let mut base = BitSet::empty(n);
    let mut history = Vec::new();
    for round in 0..rounds.min(n) {
        if round % 3 == 2 {
            let far = BitSet::from_iter(n, (0..n).filter(|e| e % 2 == round % 2));
            // Past the engine's rebase threshold of 4 elements.
            assert!(far.symmetric_difference_len(&base) > 4);
            warm.rebase(&far);
            warm.bc(&BitSet::from_iter(n, (0..n).filter(|e| e % 3 == 0)));
        }
        warm.rebase(&base);
        let candidates: Vec<BitSet> = (0..n)
            .filter(|&e| !base.contains(e))
            .map(|e| base.with(e))
            .collect();
        let values = warm.bc_many(&candidates);
        let mut cold = state.engine(config);
        cold.rebase(&base);
        assert_eq!(
            values,
            cold.bc_many(&candidates),
            "threads {threads}, round {round}: warm handle must equal a cold one bitwise"
        );
        let pick = values
            .iter()
            .enumerate()
            .min_by(|(_, x), (_, y)| x.total_cmp(y))
            .map(|(i, _)| i)
            .unwrap();
        base = candidates[pick].clone();
        history.push(values);
    }
    (history, warm.cone_reuses())
}

/// Warm ≡ cold bitwise on BQ4 and a generated chain instance, with cone
/// reuse actually exercised and identical at threads 1 and 4.
#[test]
fn warm_cone_memo_is_bit_identical_to_cold_handles() {
    for (name, batch) in [("bq4", bq4()), ("chain", chain_instance())] {
        let n = batch.universe_size();
        assert!(n >= 40, "{name}: universe too small ({n})");
        let (serial, serial_reuses) = warm_vs_cold_replay(&batch, 1, 12);
        let (sharded, sharded_reuses) = warm_vs_cold_replay(&batch, 4, 12);
        assert!(serial_reuses > 0, "{name}: the cone memo was never used");
        assert_eq!(serial, sharded, "{name}: values differ across threads");
        assert_eq!(
            serial_reuses, sharded_reuses,
            "{name}: cone reuse differs across threads"
        );
    }
}
