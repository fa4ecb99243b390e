//! The materialization-benefit function `mb(S) = bc(∅) − bc(S)` as a
//! [`SetFunction`] over the shareable universe (Section 2.4).
//!
//! `mb` is normalized by construction (`mb(∅) = 0`) and — under the
//! "monotonicity heuristic" (supermodularity of `bestCost`) — submodular,
//! which is exactly the UNSM setting the paper's algorithms assume. The
//! wrapper also exposes the canonical decomposition of Proposition 1,
//! computed with the `n + 1` `bc` invocations the paper prescribes.

use std::cell::{Cell, RefCell};

use mqo_submod::bitset::BitSet;
use mqo_submod::decompose::Decomposition;
use mqo_submod::function::SetFunction;

use crate::engine::BestCostEngine;

/// `mb(S) = bc(∅) − bc(S)` with oracle-call counting.
pub struct MbFunction {
    engine: RefCell<BestCostEngine>,
    universe: usize,
    bc_empty: f64,
    calls: Cell<u64>,
    /// Pooled candidate-set buffers for [`SetFunction::marginal_many`],
    /// reused across greedy rounds (`S ∪ {e}` per candidate is rebuilt in
    /// place via `copy_from`, never reallocated at steady state).
    round_sets: RefCell<Vec<BitSet>>,
}

impl MbFunction {
    /// Wraps a compiled engine. `bc(∅)` is evaluated once here.
    pub fn new(engine: BestCostEngine) -> Self {
        let universe = engine.universe_size();
        let engine = RefCell::new(engine);
        let bc_empty = engine.borrow_mut().bc(&BitSet::empty(universe));
        MbFunction {
            engine,
            universe,
            bc_empty,
            calls: Cell::new(0),
            round_sets: RefCell::new(Vec::new()),
        }
    }

    /// Standalone materialization cost of each universe element (compute
    /// from scratch + write), read off the compiled engine — the additive
    /// cost vector of [`crate::config::DecompositionKind::MaterializationCost`].
    pub fn materialization_costs(&self) -> Vec<f64> {
        self.engine.borrow().materialization_costs().to_vec()
    }

    /// The no-sharing (Volcano) cost `bc(∅)`.
    pub fn bc_empty(&self) -> f64 {
        self.bc_empty
    }

    /// `bc(S)` itself.
    pub fn bc(&self, set: &BitSet) -> f64 {
        self.calls.set(self.calls.get() + 1);
        self.engine.borrow_mut().bc(set)
    }

    /// Batched `bc` over a greedy round's candidates (one shared base, one
    /// overlay per candidate; sharded across threads when the engine's
    /// config asks for it); see [`BestCostEngine::bc_many`].
    pub fn bc_many(&self, sets: &[BitSet]) -> Vec<f64> {
        self.calls.set(self.calls.get() + sets.len() as u64);
        self.engine.borrow_mut().bc_many(sets)
    }

    /// Number of `bc` invocations so far.
    pub fn bc_calls(&self) -> u64 {
        self.calls.get()
    }

    /// Commits `set` as the engine's incremental base (strategies call this
    /// after each accepted pick so candidate evaluations stay one step away
    /// from base).
    pub fn rebase(&self, set: &BitSet) {
        self.engine.borrow_mut().rebase(set);
    }

    /// The canonical decomposition of Proposition 1 for this function
    /// (`n + 1` oracle calls).
    pub fn canonical_decomposition(&self) -> Decomposition {
        Decomposition::canonical(self)
    }

    /// Consumes the wrapper, returning the engine.
    pub fn into_engine(self) -> BestCostEngine {
        self.engine.into_inner()
    }
}

impl SetFunction for MbFunction {
    fn universe(&self) -> usize {
        self.universe
    }

    fn eval(&self, set: &BitSet) -> f64 {
        self.bc_empty - self.bc(set)
    }

    fn eval_many(&self, sets: &[BitSet]) -> Vec<f64> {
        self.bc_many(sets)
            .into_iter()
            .map(|v| self.bc_empty - v)
            .collect()
    }

    fn marginal(&self, e: usize, set: &BitSet) -> f64 {
        // Route single marginals through the batched machinery: the default
        // eval-difference would drift the engine base between its two `bc`
        // calls and regroup the element sums, so a marginal loop and a
        // `marginal_many` round would disagree by ulps of the (huge) totals.
        self.marginal_many(std::slice::from_ref(&e), set)[0]
    }

    fn marginal_many(&self, elems: &[usize], set: &BitSet) -> Vec<f64> {
        // Commit `set` as the engine base first: every candidate `S ∪ {e}`
        // is then a distance-1 overlay off the same committed arenas, and
        // the per-element arithmetic — (bc∅ − bc(S∪e)) − (bc∅ − bc(S)) —
        // reads identical bits whether the elements arrive as one batch or
        // as a loop of singletons, making the two forms bit-identical.
        self.rebase(set);
        let mut sets = self.round_sets.take();
        if sets.len() < elems.len() {
            sets.resize_with(elems.len(), || BitSet::empty(self.universe));
        }
        for (buf, &e) in sets.iter_mut().zip(elems) {
            buf.copy_from(set);
            buf.insert(e);
        }
        let vals = self.bc_many(&sets[..elems.len()]);
        let f_set = self.bc_empty - self.bc(set);
        self.round_sets.replace(sets);
        vals.into_iter()
            .map(|v| (self.bc_empty - v) - f_set)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchDag;
    use mqo_catalog::{Catalog, TableBuilder};
    use mqo_volcano::cost::DiskCostModel;
    use mqo_volcano::rules::RuleSet;
    use mqo_volcano::{Constraint, DagContext, PlanNode, Predicate};

    fn batch() -> BatchDag {
        let mut cat = Catalog::new();
        for (name, rows) in [("a", 30_000.0), ("b", 60_000.0), ("c", 15_000.0)] {
            cat.add_table(
                TableBuilder::new(name, rows)
                    .key_column(format!("{name}_key"), 4)
                    .column(
                        format!("{name}_fk"),
                        rows / 30.0,
                        (0, (rows as i64) / 30 - 1),
                        4,
                    )
                    .column(format!("{name}_x"), 40.0, (0, 39), 8)
                    .primary_key(&[&format!("{name}_key")])
                    .build(),
            );
        }
        let mut ctx = DagContext::new(cat);
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let c = ctx.instance_by_name("c", 0);
        let p_ab = Predicate::join(ctx.col(a, "a_key"), ctx.col(b, "b_fk"));
        let p_bc = Predicate::join(ctx.col(b, "b_key"), ctx.col(c, "c_fk"));
        let sel = Predicate::on(ctx.col(b, "b_x"), Constraint::eq(3));
        let q1 = PlanNode::scan(a).join(PlanNode::scan(b).select(sel.clone()), p_ab);
        let q2 = PlanNode::scan(b).select(sel).join(PlanNode::scan(c), p_bc);
        BatchDag::build(ctx, &[q1, q2], &RuleSet::default())
    }

    fn mb_of(batch: &BatchDag) -> MbFunction {
        let cm = DiskCostModel::paper();
        let engine = BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable());
        MbFunction::new(engine)
    }

    #[test]
    fn mb_is_normalized() {
        let b = batch();
        let mb = mb_of(&b);
        assert_eq!(mb.eval(&BitSet::empty(mb.universe())), 0.0);
    }

    #[test]
    fn mb_positive_for_shared_selection() {
        let b = batch();
        let mb = mb_of(&b);
        let n = mb.universe();
        let best: f64 = (0..n)
            .map(|e| mb.eval(&BitSet::from_iter(n, [e])))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best > 0.0,
            "materializing the shared σ(b) must have positive benefit, got {best}"
        );
    }

    #[test]
    fn decomposition_identity_holds_for_mb() {
        let b = batch();
        let mb = mb_of(&b);
        let n = mb.universe();
        let d = mb.canonical_decomposition();
        // Check f = f_M − c on a few sets.
        for bits in [0usize, 1, 2, 5] {
            let set = BitSet::from_iter(n, (0..n).filter(|e| (bits >> (e % 8)) & 1 == 1));
            let v = mb.eval(&set);
            let recomposed = d.monotone_value(&mb, &set) - d.cost_of(&set);
            assert!((v - recomposed).abs() < 1e-6);
        }
    }

    #[test]
    fn bc_calls_are_counted() {
        let b = batch();
        let mb = mb_of(&b);
        let n = mb.universe();
        let before = mb.bc_calls();
        let _ = mb.eval(&BitSet::empty(n));
        let _ = mb.eval(&BitSet::full(n));
        assert_eq!(mb.bc_calls(), before + 2);
    }
}
