//! Everything an evolvable batch derives from its memo, pinned step by
//! step. A seeded add / retire / savepoint+add+rollback sequence (with a
//! `compact_history` half way) runs on BQ3, BQ4 and a `serve-churn`-shaped
//! chain workload (48 tables, 24 base queries plus a 40-query pool, spans
//! 6–9, overlap 0.3). After every operation one FNV-1a digest absorbs:
//! the shareable group ids and their fingerprints in element order, the
//! live tickets, `history_len`, the expansion counts, and MarginalGreedy's
//! `total_cost` bits and materialized groups. Each step keeps its own
//! digest, so a drift names the operation that moved. The digests must
//! match at threads 1 and 4, so however the universe is recomputed after a
//! commit, its element order and the plans it yields stay put. Every
//! memo-derived part of a step's digest was recorded from a batch built by
//! admitting the step's live queries one at a time in ticket order, so a
//! rollback step digests exactly as the step before its speculative add.

use std::hash::{Hash, Hasher};

use mqo_core::session::Session;
use mqo_core::strategies::Strategy;
use mqo_core::{OptimizedBatch, QueryTicket};
use mqo_submod::prng::Prng;
use mqo_tpcd::{Shape, WorkloadSpec};
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::{DagContext, PlanNode};

/// `(workload, digest after each step, final universe size, final
/// history_len)`. A step is named by its position and its operation.
type Pin = (&'static str, &'static [(&'static str, u64)], usize, usize);

const PINNED: [Pin; 3] = [
    (
        "BQ3",
        &[
            ("0 build", 0x6d6d6e7ae9d6d2fd),
            ("1 add", 0x9c7a7f2b18aa29b3),
            ("2 retire", 0xa8b8f1c73181717c),
            ("3 speculative add", 0xbf020ac7e6a772f7),
            ("4 rollback", 0xa8b8f1c73181717c),
            ("5 add", 0x816bf02c87fc0044),
            ("6 retire", 0xb1c9a88b1e8ff2bb),
            ("7 compact", 0x6d6d6e7ae9d6d2fd),
            ("8 retire", 0x7a56aaca9177095f),
            ("9 add", 0xd2c70cab072eac40),
            ("10 add", 0x576bd822ad98c6d6),
            ("11 add", 0xbed2b0d13384b41a),
            ("12 add", 0x414ed7b8ac113ef9),
        ],
        49,
        6,
    ),
    (
        "BQ4",
        &[
            ("0 build", 0x6d6d6e7ae9d6d2fd),
            ("1 speculative add", 0x56478d40c6784872),
            ("2 rollback", 0x6d6d6e7ae9d6d2fd),
            ("3 add", 0x9c7a7f2b18aa29b3),
            ("4 retire", 0x643d0f17a6a111b4),
            ("5 speculative add", 0x3f18e55bab5f4baa),
            ("6 rollback", 0x643d0f17a6a111b4),
            ("7 add", 0x2196a67688282a57),
            ("8 compact", 0x62166fdca461ed14),
            ("9 speculative add", 0xe3344a0e557ae98d),
            ("10 rollback", 0x62166fdca461ed14),
            ("11 speculative add", 0x651827fd9ca1f6c0),
            ("12 rollback", 0x62166fdca461ed14),
            ("13 add", 0x158cf332c3fd3eec),
            ("14 add", 0x77a42a630bffc7f7),
            ("15 retire", 0x1c9060668de29c0d),
        ],
        58,
        5,
    ),
    (
        "serve-churn",
        &[
            ("0 build", 0x717d2467f2e29eb5),
            ("1 speculative add", 0xf590c4b727f1d09f),
            ("2 rollback", 0x717d2467f2e29eb5),
            ("3 speculative add", 0x0921e93c936cfc65),
            ("4 rollback", 0x717d2467f2e29eb5),
            ("5 add", 0x65f8087002e0f05c),
            ("6 retire", 0xf91abe80ade99651),
            ("7 speculative add", 0x2e4abf3a443f3ad0),
            ("8 rollback", 0xf91abe80ade99651),
            ("9 retire", 0xb6a9631546cd02fc),
            ("10 speculative add", 0x36c0df120d501712),
            ("11 rollback", 0xb6a9631546cd02fc),
            ("12 add", 0x31b16a90493bf4fa),
            ("13 compact", 0xd493a3f642c00298),
            ("14 add", 0x5adb12d0103bc8b2),
            ("15 speculative add", 0x5f473698aad6ddb3),
            ("16 rollback", 0x5adb12d0103bc8b2),
            ("17 add", 0xabfd23275e9a6e82),
            ("18 retire", 0x55af121046706b67),
            ("19 speculative add", 0xd51235c7726bb538),
            ("20 rollback", 0x55af121046706b67),
            ("21 add", 0x845567ad44b6d0ce),
            ("22 add", 0xf463ae61876f1697),
            ("23 speculative add", 0xfaacc029d5f65663),
            ("24 rollback", 0xf463ae61876f1697),
        ],
        528,
        28,
    ),
];

/// FNV-1a over every byte a `Hash` impl writes.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The workload, its base-query count and the number of sequence steps.
fn workload(name: &str) -> (DagContext, Vec<PlanNode>, usize, usize) {
    match name {
        "BQ3" | "BQ4" => {
            let w = mqo_tpcd::batched(name[2..].parse().unwrap(), 1.0);
            (w.ctx, w.queries, 2, 10)
        }
        _ => {
            let w = mqo_tpcd::generate(&WorkloadSpec {
                shape: Shape::Chain,
                tables: 48,
                queries: 24 + 40,
                span: (6, 9),
                overlap: 0.3,
                select_prob: 0.35,
                base_rows: 500.0,
                seed: 7,
            });
            (w.ctx, w.queries, 24, 16)
        }
    }
}

/// Folds the batch's memo-derived state into `h`.
fn absorb(batch: &OptimizedBatch, h: &mut Fnv) {
    let dag = batch.batch();
    let ids: Vec<u32> = dag.shareable().iter().map(|g| g.0).collect();
    ids.hash(h);
    dag.shareable_fingerprints().hash(h);
    batch.tickets().hash(h);
    batch.history_len().hash(h);
    let x = dag.expansion();
    [x.passes, x.exprs, x.groups, x.candidates].hash(h);
    let r = batch.run(Strategy::MarginalGreedy);
    r.total_cost.to_bits().hash(h);
    let mats: Vec<u32> = r.materialized.iter().map(|g| g.0).collect();
    mats.hash(h);
}

/// The per-step digests of `name`'s sequence, the final universe size and
/// the final `history_len`.
fn run_sequence(name: &str, threads: usize) -> (Vec<(String, u64)>, usize, usize) {
    let (ctx, queries, base, steps) = workload(name);
    let mut batch = Session::builder()
        .context(ctx)
        .queries(queries[..base].iter().cloned())
        .cost_model(DiskCostModel::paper())
        .threads(threads)
        .build();
    let mut live: Vec<(QueryTicket, PlanNode)> = batch
        .tickets()
        .into_iter()
        .zip(queries[..base].iter().cloned())
        .collect();
    let mut available: Vec<PlanNode> = queries[base..].to_vec();
    let mut rng = Prng::seed_from_u64(Prng::derive_seed(
        0x50494E,
        name.bytes().map(u64::from).sum(),
    ));
    let mut digests = Vec::new();
    let mut record = |batch: &OptimizedBatch, op: &str| {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        absorb(batch, &mut h);
        digests.push((format!("{} {op}", digests.len()), h.finish()));
    };
    record(&batch, "build");
    for step in 0..steps {
        if step == steps / 2 {
            batch.compact_history();
            record(&batch, "compact");
        }
        let op = match rng.gen_range(0u32..4) {
            0 | 1 if !available.is_empty() => {
                let q = available.swap_remove(rng.gen_range(0..available.len()));
                let t = batch.add_query(q.clone());
                live.push((t, q));
                "add"
            }
            2 if live.len() > 1 => {
                let (t, q) = live.remove(rng.gen_range(0..live.len()));
                batch.retire_query(t);
                available.push(q);
                "retire"
            }
            _ if !available.is_empty() => {
                let sp = batch.savepoint();
                let q = available[rng.gen_range(0..available.len())].clone();
                batch.add_query(q);
                record(&batch, "speculative add");
                batch.rollback(sp);
                "rollback"
            }
            _ => continue,
        };
        record(&batch, op);
    }
    (digests, batch.universe_size(), batch.history_len())
}

#[test]
fn memo_derived_state_is_pinned_through_evolution() {
    for threads in [1usize, 4] {
        for (name, want, universe, history) in PINNED {
            let (got, got_universe, got_history) = run_sequence(name, threads);
            let moved: Vec<String> = got
                .iter()
                .enumerate()
                .filter(|&(i, (step, d))| want.get(i) != Some(&(step.as_str(), *d)))
                .map(|(_, (step, d))| format!("(\"{step}\", {d:#018x})"))
                .collect();
            assert!(
                got.len() == want.len() && moved.is_empty(),
                "{name}@{threads}: {} steps, moved: {moved:#?}",
                got.len()
            );
            assert_eq!(
                (got_universe, got_history),
                (universe, history),
                "{name}@{threads}: final (universe, history_len)"
            );
        }
    }
}
