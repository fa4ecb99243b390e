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

/// The arena digest after each step of the churn sequence, so a drift
/// names the step that moved. The steps after the first admission were
/// recorded with the universe as the memo's shareable set ascending by
/// group id, which is a fresh build's order.
const CHURN: [(&str, u64); 17] = [
    ("build", 0x3d1960541b43778a),
    ("add 0", 0x7e4f4695e373444f),
    ("add 1", 0x1c35500a6fbda78f),
    ("add 2", 0x9e9a632c5edd45f6),
    ("add 3", 0xcd5388cb4adb93d7),
    ("add 4", 0xf65b78b37b5c918a),
    ("add 5", 0xd05920ffb92bad28),
    ("add 6", 0x7fcbfc1753c41218),
    ("add 7", 0xbb10e2ecab6db9c0),
    ("retire 0", 0xb194bd4d2d94558c),
    ("add 8", 0x1842d2576a275280),
    ("retire 1", 0x3e91cbbd511fdb42),
    ("add 9", 0x1833685b96608b37),
    ("retire 2", 0xfa430816529b01e3),
    ("add 10", 0x513e662825583303),
    ("retire 3", 0x7f191240cd796167),
    ("add 11", 0xd7e27b3f180678c1),
];

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
        let mut got = vec![("build".to_string(), digest_of(&batch))];
        let mut arrivals = std::collections::VecDeque::new();
        for (i, q) in pool[..12].iter().enumerate() {
            if i >= 8 {
                let (n, oldest) = arrivals.pop_front().expect("live arrivals");
                batch.retire_query(oldest, threads).unwrap();
                got.push((format!("retire {n}"), digest_of(&batch)));
            }
            arrivals.push_back((i, batch.add_query(q, threads)));
            got.push((format!("add {i}"), digest_of(&batch)));
        }
        let moved: Vec<String> = got
            .iter()
            .enumerate()
            .filter(|&(i, (step, d))| CHURN.get(i) != Some(&(step.as_str(), *d)))
            .map(|(_, (step, d))| format!("(\"{step}\", {d:#018x})"))
            .collect();
        assert!(
            got.len() == CHURN.len() && moved.is_empty(),
            "churn@{threads}: {} steps, moved: {moved:#?}",
            got.len()
        );
    }
}
