//! Everything an evolvable batch derives from its memo, pinned step by
//! step. A seeded add / retire / savepoint+add+rollback sequence (with a
//! `compact_history` half way) runs on BQ3, BQ4 and a `serve-churn`-shaped
//! chain workload (48 tables, 24 base queries plus a 40-query pool, spans
//! 6–9, overlap 0.3). After every operation one FNV-1a digest absorbs:
//! the shareable group ids and their fingerprints in element order, the
//! live tickets, `history_len`, the cumulative expansion counts, and
//! MarginalGreedy's `total_cost` bits and materialized groups. Each step
//! keeps its own digest, so a drift names the operation that moved. The
//! digests must match at threads 1 and 4, so however the universe is
//! recomputed after a commit, its element order and the plans it yields
//! stay put. The universe is the memo's shareable set ascending by group
//! id; the steps after the first admission were recorded with it.

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
            ("0 build", 0xeb5ab5a692f5b324),
            ("1 add", 0x1a58ccde8c5d8346),
            ("2 retire", 0x22f95b234ab5f2aa),
            ("3 speculative add", 0x2978a8dfce013092),
            ("4 rollback", 0xd6b01675d9b44ca0),
            ("5 add", 0x74afe981d58c916a),
            ("6 retire", 0x2fa3359dc0bb6bf5),
            ("7 compact", 0x7b1ff6ea3e7179c3),
            ("8 retire", 0x5f9f8e09c695694e),
            ("9 add", 0x22f171c5a91747c1),
            ("10 add", 0x4779499e60781081),
            ("11 add", 0xe01b96ef96d1ab8f),
            ("12 add", 0x636cce28b6df1442),
        ],
        49,
        6,
    ),
    (
        "BQ4",
        &[
            ("0 build", 0xeb5ab5a692f5b324),
            ("1 speculative add", 0x7cb1f343f45e214d),
            ("2 rollback", 0xf488d654cd8c933b),
            ("3 add", 0x8fe4ba8640cf2634),
            ("4 retire", 0x0fc2c0180666b0a0),
            ("5 speculative add", 0x08f4c55f173f1492),
            ("6 rollback", 0x888e0caf16945129),
            ("7 add", 0xf9ce9f14936af068),
            ("8 compact", 0xe4c209a50e1468ef),
            ("9 speculative add", 0x04b5991fc1cc9723),
            ("10 rollback", 0x3aa8779d971902e6),
            ("11 speculative add", 0x51c2a0d913f5bb94),
            ("12 rollback", 0x1079fb63833246db),
            ("13 add", 0x6dc6821760963cd2),
            ("14 add", 0x6ffe7e360cbb584b),
            ("15 retire", 0x47c79364e5f4eaa5),
        ],
        58,
        5,
    ),
    (
        "serve-churn",
        &[
            ("0 build", 0xe77ff7ad4eef7226),
            ("1 speculative add", 0x7091cef70115f599),
            ("2 rollback", 0x7ef899378678efc2),
            ("3 speculative add", 0xd84c164a78e8a192),
            ("4 rollback", 0xfb900cee601fcacd),
            ("5 add", 0x517b3b0d41f55383),
            ("6 retire", 0x6718a2ab489faf00),
            ("7 speculative add", 0xd41a15558ad142fe),
            ("8 rollback", 0x12051d7b98051646),
            ("9 retire", 0x5e896f6eab690986),
            ("10 speculative add", 0x29b4359a43419003),
            ("11 rollback", 0xad59bfabc1267f2d),
            ("12 add", 0xc0a779e4ba46ee1d),
            ("13 compact", 0xc57a6287e0c611ff),
            ("14 add", 0x3bf9be0d5cd6c9c4),
            ("15 speculative add", 0xee0e481e9d576605),
            ("16 rollback", 0x2a616add46d719a0),
            ("17 add", 0x8ed1d5776f18ed74),
            ("18 retire", 0xe30502522a82b86d),
            ("19 speculative add", 0x8ea3063eb7155c01),
            ("20 rollback", 0x08ffbb17a751ab22),
            ("21 add", 0xd15920790fe436fd),
            ("22 add", 0xf2e432d2964e4625),
            ("23 speculative add", 0xb7d50225c7ec980e),
            ("24 rollback", 0x7ab09b6eb8a580c0),
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
