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
    ("BQ1", 0x185d50c871627d34),
    ("BQ2", 0xbc5a7e171a96a494),
    ("BQ3", 0x4994749f230226f0),
    ("BQ4", 0xcf3901d8f2c4ece8),
    ("BQ5", 0xbf07ca2380290d4b),
    ("BQ6", 0x5ca88ee23b561ac4),
    ("Q2", 0x723c258a793cdb85),
    ("Q2-D", 0x1cf7376701952b5c),
    ("Q11", 0x9c32a62a88aca608),
    ("Q15", 0x6a5ba0b7814491b1),
];

/// Batch `i` of a `batch-stream`-shaped run at seed 7.
const STREAM: [u64; 8] = [
    0xbc570881347ed375,
    0x3676b67de9d71db7,
    0x56ea066851cba016,
    0xf854f49d5c7981aa,
    0x91a6a519ff251d9b,
    0xc0dc49cfba645165,
    0x6eeb382f0f8b08e9,
    0x68088cb35fe4ccc2,
];

/// The arena digest after each step of the churn sequence, so a drift
/// names the step that moved. Each was recorded from a batch built by
/// admitting the step's live queries one at a time in ticket order.
const CHURN: [(&str, u64); 17] = [
    ("build", 0x2552adee6ffdfbfa),
    ("add 0", 0x750400d405afbb36),
    ("add 1", 0x2f8ea917f6b0d264),
    ("add 2", 0xc3be777e5a9f5c3f),
    ("add 3", 0x958c4fa5fa920dc1),
    ("add 4", 0x8619eeb32503b1c6),
    ("add 5", 0x5b273f02bc6b7625),
    ("add 6", 0xe06adcf28b65a401),
    ("add 7", 0x5b91f541c82b5911),
    ("retire 0", 0xf5a0be444774fe8c),
    ("add 8", 0xdfd95211f6790609),
    ("retire 1", 0x676dd90e1b366f1d),
    ("add 9", 0x53806a40610037b0),
    ("retire 2", 0xe6a83080541e4276),
    ("add 10", 0x7bb02e0b2d2e4f29),
    ("retire 3", 0x34b0322652e964be),
    ("add 11", 0x0657394b71c1deef),
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
