//! Consolidated-plan extraction: turns a chosen materialized set into the
//! full physical artifact — the production plan of every materialized node
//! plus the per-query plans reading them — for display and inspection.
//!
//! Extraction rides the compiled [`BestCostEngine`]'s flat arenas: one
//! full bottom-up solve for the chosen set fills dense per-state
//! `compute`/`use` arrays, a `DensePlanTable` records the winning option
//! of every `(dense group, sort-order slot)` state in one linear pass, and
//! the plan trees are read straight off the option/provenance arenas. The
//! compiled provenance is plain data (an expression id, an operator tag
//! and interned order ids), turned into a [`PhysOp`] only for the nodes
//! of an extracted plan. No
//! `GroupId` is ever hashed on this path — the pre-`Session`
//! implementation re-ran the reference `mqo_volcano::optimizer::Optimizer`
//! with its `HashMap`-keyed `PlanTable` per materialization and per query
//! (that reference DP remains in `mqo-volcano` as the test oracle; see
//! `tests/plan_extraction_differential.rs`).

use mqo_submod::bitset::BitSet;
use mqo_volcano::cost::CostModel;
use mqo_volcano::memo::GroupId;
use mqo_volcano::physical::{PhysOp, PhysPlan};
use mqo_volcano::plan::render_plan;

use crate::batch::BatchDag;
use crate::config::MqoConfig;
use crate::engine::{BestCostEngine, EngineArenas, OpTag, OptPhys, OutOrder};

/// The full consolidated evaluation plan for a batch.
#[derive(Clone, Debug)]
pub struct ConsolidatedPlan {
    /// `(group, production plan)` for each materialized node, ascending by
    /// universe element (the order greedy reports list them in).
    pub materializations: Vec<(GroupId, PhysPlan)>,
    /// One plan per query, reading materialized nodes where beneficial.
    pub query_plans: Vec<PhysPlan>,
    /// Total cost: productions + writes + query plans. Bit-identical to
    /// the engine's `bc(S)` — both total the same solved arenas.
    pub total_cost: f64,
}

impl ConsolidatedPlan {
    /// Extracts the consolidated plan for `materialized`, compiling a
    /// fresh engine for the batch. Every entry must be a shareable node of
    /// the batch. [`crate::session::OptimizedBatch::run`] attaches the
    /// plan to its [`crate::strategies::RunReport`] without recompiling —
    /// this entry point serves callers holding only a chosen set.
    pub fn extract(batch: &BatchDag, cm: &dyn CostModel, materialized: &[GroupId]) -> Self {
        let state = batch.compile_state(cm);
        let engine = state.engine(MqoConfig::serial());
        let n = batch.universe_size();
        let set = BitSet::from_iter(
            n,
            materialized.iter().map(|&g| {
                batch
                    .shareable_index(g)
                    .expect("materialized node outside the shareable universe")
            }),
        );
        Self::extract_with_engine(state.query_roots_dense(), &engine, &set)
    }

    /// Extraction against an already compiled engine (the path
    /// `Session::run` takes after the selection phase). `query_roots` are
    /// the dense topological indices of the live query roots; together
    /// with the arenas' own row estimates this path never touches the
    /// (mutable) memo, so it runs unchanged off an immutable
    /// [`crate::engine::EngineState`] snapshot.
    pub(crate) fn extract_with_engine(
        query_roots: &[u32],
        engine: &BestCostEngine,
        set: &BitSet,
    ) -> Self {
        let table = DensePlanTable::solve(engine, set);

        let mut materializations = Vec::with_capacity(table.set.len());
        for e in table.set.iter() {
            let d = engine.universe_dense[e] as usize;
            let plan = table.extract_compute(d, 0);
            materializations.push((engine.topo.group_at(d), plan));
        }

        let query_plans = query_roots
            .iter()
            .map(|&q| table.extract_use(q as usize, 0))
            .collect();

        let total_cost = engine.total_from_slice(&table.set, &table.compute);
        ConsolidatedPlan {
            materializations,
            query_plans,
            total_cost,
        }
    }

    /// Renders the whole consolidated plan as text.
    pub fn render(&self, batch: &BatchDag) -> String {
        let mut out = String::new();
        for (g, plan) in &self.materializations {
            out.push_str(&format!("== materialize group {} ==\n", g.0));
            out.push_str(&render_plan(plan, batch.memo()));
        }
        for (i, plan) in self.query_plans.iter().enumerate() {
            out.push_str(&format!("== query {} ==\n", i + 1));
            out.push_str(&render_plan(plan, batch.memo()));
        }
        out
    }
}

/// Winner sentinel: the state's best choice is the sort enforcer over its
/// own unordered state.
const ENFORCE: u32 = u32::MAX;

/// A dense memoization table over the engine's `(dense group, sort-order
/// slot)` state space: the solved `compute`/`use` arenas for one
/// materialized set plus the winning option index of every state. Indexed
/// through the engine's [`mqo_volcano::memo::TopoView`]-derived offsets —
/// plain array lookups, no `(GroupId, SortOrder)` hashing anywhere.
struct DensePlanTable<'a> {
    engine: &'a BestCostEngine,
    /// The sanitized materialized set.
    set: BitSet,
    /// Solved `compute` values, per state.
    compute: Vec<f64>,
    /// Winning choice per state: an option index, or [`ENFORCE`]. The read
    /// decision is not stored — it is re-derived per reference from
    /// `read[s] <= compute[s]`, exactly as the DP's `use` minimum does.
    winner: Vec<u32>,
}

impl<'a> DensePlanTable<'a> {
    /// Solves the DP for `set` and records every state's winner in one
    /// linear pass over the option arenas. The winner recomputation
    /// mirrors the solve arithmetic term for term, so the recovered costs
    /// are bit-identical to the solved arenas.
    fn solve(engine: &'a BestCostEngine, set: &BitSet) -> Self {
        let (set, compute, use_) = engine.solve_for_extraction(set);
        let n_states = engine.n_states();
        let mut winner = vec![ENFORCE; n_states];
        for d in 0..engine.topo.len() {
            let s0 = engine.state_off[d] as usize;
            let s1 = engine.state_off[d + 1] as usize;
            #[allow(clippy::needless_range_loop)]
            for s in s0..s1 {
                let mut best = f64::INFINITY;
                let mut w = ENFORCE;
                for o in engine.opt_off[s] as usize..engine.opt_off[s + 1] as usize {
                    // The solve's own option recurrence, so the recovered
                    // winner agrees with `compute` bit for bit.
                    let cost = engine.option_cost(o, &|c| use_[c]);
                    if cost < best {
                        best = cost;
                        w = o as u32;
                    }
                }
                // The enforcer displaces an option only when strictly
                // cheaper (the reference optimizer considers it last).
                if s > s0 && compute[s0] + engine.sort[d] < best {
                    w = ENFORCE;
                }
                winner[s] = w;
            }
        }
        DensePlanTable {
            engine,
            set,
            compute,
            winner,
        }
    }

    /// Extracts the plan consumers of the state see: a read of the
    /// materialized result when the group is in the set and reading is no
    /// more expensive than computing (ties favor the read, as in the
    /// reference optimizer), otherwise the computed plan.
    fn extract_use(&self, d: usize, slot: usize) -> PhysPlan {
        let e = self.engine;
        let s = e.state_off[d] as usize + slot;
        if e.materialized(d, &self.set) && e.read[s] <= self.compute[s] {
            let g = e.topo.group_at(d);
            let req = e.order(e.state_order[s]);
            let natural = e.order(e.natural_order[d]);
            let order = if natural.satisfies(req) {
                natural.clone()
            } else {
                // The folded sort re-orders the stream to the requirement;
                // `read[s]` already charges for it.
                req.clone()
            };
            return PhysPlan {
                op: PhysOp::MaterializedRead { group: g },
                expr: None,
                group: g,
                op_cost: e.read[s],
                total_cost: e.read[s],
                order,
                rows: e.rows[d],
                children: vec![],
            };
        }
        self.extract_compute(d, slot)
    }

    /// Extracts the plan *producing* the state's result (the group's own
    /// read option excluded — a production must not read its own copy).
    fn extract_compute(&self, d: usize, slot: usize) -> PhysPlan {
        let e = self.engine;
        let s = e.state_off[d] as usize + slot;
        let g = e.topo.group_at(d);
        let rows = e.rows[d];
        let w = self.winner[s];
        if w == ENFORCE {
            let inner = self.extract_compute(d, 0);
            let order = e.order(e.state_order[s]).clone();
            return PhysPlan {
                op: PhysOp::Sort {
                    keys: order.0.clone(),
                },
                expr: None,
                group: g,
                op_cost: e.sort[d],
                total_cost: self.compute[s],
                order,
                rows,
                children: vec![inner],
            };
        }
        let o = w as usize;
        let phys = e.opt_phys[o];
        let mut children: Vec<PhysPlan> = e.opt_children
            [e.child_off[o] as usize..e.child_off[o + 1] as usize]
            .iter()
            .map(|&cs| {
                let dc = e.group_of_state[cs as usize] as usize;
                let slot_c = cs as usize - e.state_off[dc] as usize;
                self.extract_use(dc, slot_c)
            })
            .collect();
        // Join options list the outer child first; plans list children in
        // memo (left, right) order like the reference extractor.
        if phys.swapped {
            children.swap(0, 1);
        }
        let order = match e.opt_out[o] {
            OutOrder::Fixed(order) => order,
            OutOrder::InheritChild0 => e.state_order[s],
        };
        PhysPlan {
            op: resolve_op(e, phys),
            expr: Some(phys.expr),
            group: g,
            op_cost: e.opt_cost[o],
            total_cost: self.compute[s],
            order: e.order(order).clone(),
            rows,
            children,
        }
    }
}

/// The physical operator a compiled option's provenance names, with its
/// key orders resolved through the arenas' order table.
pub(crate) fn resolve_op(arenas: &EngineArenas, phys: OptPhys) -> PhysOp {
    let keys = |i: usize| arenas.order(phys.keys[i]).0.clone();
    let swapped = phys.swapped;
    match phys.op {
        OpTag::TableScan(inst) => PhysOp::TableScan { inst },
        OpTag::IndexScan(inst) => PhysOp::IndexScan { inst },
        OpTag::Filter => PhysOp::Filter,
        OpTag::MergeJoin => PhysOp::MergeJoin {
            left_keys: keys(0),
            right_keys: keys(1),
            swapped,
        },
        OpTag::BlockNlJoin => PhysOp::BlockNlJoin { swapped },
        OpTag::SortAgg => PhysOp::SortAgg { group_by: keys(0) },
        OpTag::ScalarAgg => PhysOp::ScalarAgg,
        OpTag::Root => PhysOp::Root,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::strategies::Strategy;
    use mqo_catalog::{Catalog, TableBuilder};
    use mqo_volcano::cost::DiskCostModel;
    use mqo_volcano::rules::RuleSet;
    use mqo_volcano::{Constraint, DagContext, PlanNode, Predicate};

    fn session() -> crate::session::OptimizedBatch {
        let mut cat = Catalog::new();
        for (name, rows) in [("a", 50_000.0), ("b", 100_000.0), ("c", 25_000.0)] {
            cat.add_table(
                TableBuilder::new(name, rows)
                    .key_column(format!("{name}_key"), 4)
                    .column(
                        format!("{name}_fk"),
                        rows / 50.0,
                        (0, (rows as i64) / 50 - 1),
                        4,
                    )
                    .column(format!("{name}_x"), 100.0, (0, 99), 8)
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
        let sel = Predicate::on(ctx.col(b, "b_x"), Constraint::eq(7));
        let q1 = PlanNode::scan(a).join(PlanNode::scan(b).select(sel.clone()), p_ab);
        let q2 = PlanNode::scan(b).select(sel).join(PlanNode::scan(c), p_bc);
        Session::builder()
            .context(ctx)
            .queries([q1, q2])
            .rules(RuleSet::default())
            .cost_model(DiskCostModel::paper())
            .build()
    }

    #[test]
    fn consolidated_cost_matches_engine_bc() {
        let s = session();
        let report = s.run(Strategy::MarginalGreedy);
        assert!(
            (report.plan.total_cost - report.total_cost).abs() < 1e-6 * (1.0 + report.total_cost),
            "extracted {} vs engine {}",
            report.plan.total_cost,
            report.total_cost
        );
        assert_eq!(report.plan.query_plans.len(), 2);
        assert_eq!(
            report.plan.materializations.len(),
            report.materialized.len()
        );
    }

    #[test]
    fn standalone_extract_matches_report_plan() {
        let s = session();
        let report = s.run(Strategy::Greedy);
        let plan = ConsolidatedPlan::extract(s.batch(), s.cost_model(), &report.materialized);
        assert_eq!(plan.total_cost, report.plan.total_cost);
        assert_eq!(plan.render(s.batch()), report.plan.render(s.batch()));
    }

    #[test]
    fn render_mentions_materializations_and_queries() {
        let s = session();
        let report = s.run(Strategy::Greedy);
        let text = report.plan.render(s.batch());
        assert!(text.contains("== query 1 =="));
        assert!(text.contains("== query 2 =="));
        if !report.materialized.is_empty() {
            assert!(text.contains("== materialize group"));
        }
    }
}
