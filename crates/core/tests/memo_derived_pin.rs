//! Everything an evolvable batch derives from its memo, pinned step by
//! step. A seeded add / retire / savepoint+add+rollback sequence (with a
//! `compact_history` half way) runs on BQ3, BQ4 and a `serve-churn`-shaped
//! chain workload (48 tables, 24 base queries plus a 40-query pool, spans
//! 6–9, overlap 0.3). After every operation one FNV-1a digest absorbs:
//! the shareable group ids and their fingerprints in slot order, the live
//! tickets, `history_len`, the cumulative expansion counts, and
//! MarginalGreedy's `total_cost` bits and materialized groups. The
//! digests must match at threads 1 and 4, so however the universe is
//! recomputed after a commit, its slot order, tombstoning and the plans it
//! yields stay put.

use std::hash::{Hash, Hasher};

use mqo_core::session::Session;
use mqo_core::strategies::Strategy;
use mqo_core::{OptimizedBatch, QueryTicket};
use mqo_submod::prng::Prng;
use mqo_tpcd::{Shape, WorkloadSpec};
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::{DagContext, PlanNode};

/// `(workload, digest, operations, final universe size, final history_len)`.
const PINNED: [(&str, u64, usize, usize, usize); 3] = [
    ("BQ3", 0x472e8b37098cc3d5, 12, 49, 6),
    ("BQ4", 0xf531e95351940561, 15, 58, 5),
    ("serve-churn", 0x7e16309532dfd3e0, 24, 528, 28),
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

fn run_sequence(name: &'static str, threads: usize) -> (&'static str, u64, usize, usize, usize) {
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
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut ops = 0;
    absorb(&batch, &mut h);
    for step in 0..steps {
        if step == steps / 2 {
            batch.compact_history();
            absorb(&batch, &mut h);
            ops += 1;
        }
        match rng.gen_range(0u32..4) {
            0 | 1 if !available.is_empty() => {
                let q = available.swap_remove(rng.gen_range(0..available.len()));
                let t = batch.add_query(q.clone());
                live.push((t, q));
            }
            2 if live.len() > 1 => {
                let (t, q) = live.remove(rng.gen_range(0..live.len()));
                batch.retire_query(t);
                available.push(q);
            }
            _ if !available.is_empty() => {
                let sp = batch.savepoint();
                let q = available[rng.gen_range(0..available.len())].clone();
                batch.add_query(q);
                absorb(&batch, &mut h);
                ops += 1;
                batch.rollback(sp);
            }
            _ => continue,
        }
        absorb(&batch, &mut h);
        ops += 1;
    }
    (
        name,
        h.finish(),
        ops,
        batch.universe_size(),
        batch.history_len(),
    )
}

#[test]
fn memo_derived_state_is_pinned_through_evolution() {
    for threads in [1usize, 4] {
        let got: Vec<_> = PINNED
            .iter()
            .map(|&(name, ..)| {
                let row = run_sequence(name, threads);
                let (name, digest, ops, universe, history) = row;
                println!("    (\"{name}\", {digest:#018x}, {ops}, {universe}, {history}),");
                row
            })
            .collect();
        assert_eq!(
            got, PINNED,
            "threads {threads}: memo-derived state drifted \
             (workload, digest, operations, universe, history_len)"
        );
    }
}
