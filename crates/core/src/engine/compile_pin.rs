//! A bitwise pin of the compiled engine arenas. One FNV-1a digest absorbs
//! everything [`EngineArenas::compile`] produces: the CSR offsets, the
//! child arenas, the bits of every cost, each option's resolved
//! provenance (memo expression and physical operator) and output order,
//! each state's requirement, the natural orders, the universe maps,
//! `mat_cost` and the solved `S = ∅` state. The expected values were
//! recorded before the compile was rewritten; a rewrite must reproduce
//! them unchanged at threads 1 and 4. Only [`absorb`] may follow the
//! arenas' field types.

use std::hash::{Hash, Hasher};

use mqo_submod::prng::Prng;
use mqo_tpcd::{Shape, WorkloadSpec};
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::physical::SortOrder;
use mqo_volcano::rules::RuleSet;
use mqo_volcano::{DagContext, PlanNode};

use super::{EngineArenas, OutOrder};
use crate::batch::BatchDag;
use crate::consolidated::resolve_op;

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

fn bits(h: &mut Fnv, xs: &[f64]) {
    xs.len().hash(h);
    for x in xs {
        x.to_bits().hash(h);
    }
}

/// Folds every compiled artifact of `a` into `h`.
fn absorb(a: &EngineArenas, h: &mut Fnv) {
    a.topo.len().hash(h);
    a.root.hash(h);
    a.state_off.hash(h);
    a.opt_off.hash(h);
    a.child_off.hash(h);
    a.opt_children.hash(h);
    a.opt_c0.hash(h);
    a.opt_c1.hash(h);
    a.group_of_state.hash(h);
    a.universe_dense.hash(h);
    a.elem_of_dense.hash(h);
    bits(h, &a.opt_cost);
    bits(h, &a.read);
    bits(h, &a.write);
    bits(h, &a.sort);
    bits(h, &a.rows);
    bits(h, &a.mat_cost);
    bits(h, &a.empty_compute);
    bits(h, &a.empty_use);
    a.empty_total.to_bits().hash(h);
    for o in 0..a.opt_cost.len() {
        let phys = a.opt_phys[o];
        phys.expr.0.hash(h);
        format!("{:?}", resolve_op(a, phys)).hash(h);
        match a.opt_out[o] {
            OutOrder::Fixed(order) => Some(a.order(order)).hash(h),
            OutOrder::InheritChild0 => None::<&SortOrder>.hash(h),
        }
    }
    let resolve = |ids: &[u32]| ids.iter().map(|&id| a.order(id)).collect::<Vec<_>>();
    resolve(&a.state_order).hash(h);
    resolve(&a.natural_order).hash(h);
}

fn digest_of(batch: &BatchDag) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    absorb(
        batch.compile_state(&DiskCostModel::paper()).arenas(),
        &mut h,
    );
    h.finish()
}

fn build(ctx: DagContext, queries: &[PlanNode], threads: usize) -> BatchDag {
    BatchDag::build_with_threads(ctx, queries, &RuleSet::default(), threads)
}

/// The TPCD workloads: BQ1–BQ6, then Q2, Q2-D, Q11 and Q15.
const TPCD: [(&str, u64); 10] = [
    ("BQ1", 0x2772395c8c995942),
    ("BQ2", 0x6c4d3b0469e5e4e9),
    ("BQ3", 0xda8dcb21b56b8382),
    ("BQ4", 0xc9dc0c8020c4d688),
    ("BQ5", 0xc0dc71237ffd681f),
    ("BQ6", 0xfc9dbf37cdab4035),
    ("Q2", 0x723c258a793cdb85),
    ("Q2-D", 0xb4a41e88224439cb),
    ("Q11", 0x9c32a62a88aca608),
    ("Q15", 0x6a5ba0b7814491b1),
];

/// Batch `i` of a `batch-stream`-shaped run at seed 7.
const STREAM: [u64; 8] = [
    0x850e9d407907cc63,
    0x1daa636363ce5af7,
    0x08ff4fc476e66a43,
    0xd6485a7d4904223b,
    0x88edf289a4cf51ed,
    0x0e68ec7c09d6eab8,
    0x4c085688e4194ca8,
    0xff8736e90b24659a,
];

/// One digest folded over every step of the churn sequence, and the step
/// count.
const CHURN: (u64, usize) = (0x75c372277bdc57ab, 17);

/// `batch-stream`'s spec for batch `i` of a run at seed 7: shape
/// `Shape::ALL[i % 4]`, overlap `[0.0, 0.3, 0.6][i % 3]`.
fn stream_spec(i: usize) -> WorkloadSpec {
    let shape = Shape::ALL[i % 4];
    let (tables, span) = match shape {
        Shape::Chain => (48, (6, 9)),
        _ => (32, (4, 6)),
    };
    WorkloadSpec {
        shape,
        tables,
        queries: 60,
        span,
        overlap: [0.0, 0.3, 0.6][i % 3],
        select_prob: 0.35,
        base_rows: 500.0,
        seed: Prng::derive_seed(7, i as u64),
    }
}

#[test]
fn tpcd_arenas_are_pinned() {
    for threads in [1, 4] {
        for (name, want) in TPCD {
            let w = match name.strip_prefix("BQ") {
                Some(i) => mqo_tpcd::batched(i.parse().unwrap(), 1.0),
                None => mqo_tpcd::standalone(name, 1.0),
            };
            let got = digest_of(&build(w.ctx, &w.queries, threads));
            assert_eq!(got, want, "{name}@{threads}: {got:#018x}");
        }
    }
}

#[test]
fn batch_stream_arenas_are_pinned() {
    for threads in [1, 4] {
        for (i, want) in STREAM.into_iter().enumerate() {
            let w = mqo_tpcd::generate(&stream_spec(i));
            let got = digest_of(&build(w.ctx, &w.queries, threads));
            assert_eq!(got, want, "stream {i}@{threads}: {got:#018x}");
        }
    }
}

/// A `serve-churn` tenant's writes: 24 base queries of a 48-table chain
/// spec, eight admissions from its pool, then four rounds of retiring the
/// oldest arrival and admitting the next; the arenas are digested after
/// the build and after every write.
#[test]
fn serve_churn_arenas_are_pinned_at_every_step() {
    for threads in [1, 4] {
        let w = mqo_tpcd::generate(&WorkloadSpec {
            shape: Shape::Chain,
            tables: 48,
            queries: 24 + 40,
            span: (6, 9),
            overlap: 0.3,
            select_prob: 0.35,
            base_rows: 500.0,
            seed: Prng::derive_seed(7, 0),
        });
        let (base, pool) = w.queries.split_at(24);
        let mut batch = build(w.ctx, base, threads);
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let mut steps = 0;
        let mut step = |batch: &BatchDag| {
            digest_of(batch).hash(&mut h);
            steps += 1;
        };
        step(&batch);
        let mut arrivals = std::collections::VecDeque::new();
        for q in &pool[..8] {
            arrivals.push_back(batch.add_query_with_threads(q, threads));
            step(&batch);
        }
        for q in &pool[8..12] {
            let oldest = arrivals.pop_front().expect("live arrivals");
            batch.retire_query_with_threads(oldest, threads);
            step(&batch);
            arrivals.push_back(batch.add_query_with_threads(q, threads));
            step(&batch);
        }
        let got = (h.finish(), steps);
        assert_eq!(got, CHURN, "churn@{threads}: {:#018x}", got.0);
    }
}
