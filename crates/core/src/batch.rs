//! Batch construction: the combined rooted DAG and the shareable-node
//! universe.
//!
//! A batch of queries is inserted into one memo (hash-consing unifies
//! common subexpressions across queries), expanded to fixpoint under the
//! transformation rules, and topped with the dummy root operator
//! (Section 2.2). The *shareable* equivalence nodes — those with more than
//! one parent operator node in the expanded DAG, excluding base-relation
//! scans and the root — form the ground set the MQO algorithms search over
//! ("it is sufficient to search only over the set of shareable equivalence
//! nodes").
//!
//! A `BatchDag` exposes its memo only behind accessors, so the lazily
//! computed [`TopoView`] can never silently go stale (the pre-`Session`
//! API exposed the memo as a public field and had to guard the view with a
//! runtime fingerprint assertion). The batch is *evolvable*: admissions
//! and retires grow and shrink the live batch, through
//! [`crate::session::OptimizedBatch`] and [`crate::serve::MqoService`].
//!
//! A batch is the fold of its admissions. One admission step inserts a
//! query's plan, expands the memo to fixpoint seeded with the freshly
//! interned expressions, and re-roots the batch. A build folds that step
//! over its queries; an admission runs it once on the live memo; a retire
//! or rollback resets the memo and folds it over the surviving queries in
//! ticket order. Every commit then recounts the shareable universe from
//! the memo as it stands and swaps in a fresh topological view. So after
//! any history of admissions, retires and rollbacks the batch is bit for
//! bit a fresh build of its live queries in ticket order: same group ids,
//! same universe order (ascending by group id), same compiled arenas.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use mqo_volcano::cost::CostModel;
use mqo_volcano::fphash::FpHasher;
use mqo_volcano::logical::LogicalOp;
use mqo_volcano::memo::{GroupId, Memo, TopoView};
use mqo_volcano::rules::{expand_seeded, ExpansionStats, RuleSet};
use mqo_volcano::{DagContext, ExprId, PlanNode};

use crate::config::MqoConfig;
use crate::engine::{EngineArenas, EngineState};
use crate::error::MqoError;
use crate::fault::{self, FaultSite};

/// Process-wide batch identity counter; see [`BatchDag::uid`].
static NEXT_BATCH_UID: AtomicU64 = AtomicU64::new(0);

/// Handle to a query admitted into an evolvable batch; returned by
/// `add_query` and consumed by `retire_query`. Tickets are never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryTicket(pub(crate) u32);

/// Per-query provenance inside an evolvable batch.
#[derive(Clone, Debug)]
struct QueryEntry {
    /// The stable ticket id issued for this query. Decoupled from the
    /// entry's position so [`BatchDag::compact_history`] can drop retired
    /// entries without invalidating outstanding tickets.
    ticket: u32,
    /// The submitted logical plan (kept for the rebuild on
    /// retire/rollback), shared so a savepoint copies a pointer.
    plan: Arc<PlanNode>,
    /// Whether the query is still part of the batch.
    live: bool,
}

/// A fully expanded combined DAG for a batch of queries. Owned by a
/// [`crate::session::OptimizedBatch`] in the `Session` API; constructed
/// directly only by benchmarks and tests that measure the build itself.
#[derive(Debug)]
pub struct BatchDag {
    /// The expanded memo (mutated only by the evolution commits below).
    memo: Memo,
    /// The rule set the batch was expanded under (evolution commits re-run
    /// the same rules).
    rules: RuleSet,
    /// The dummy batch root.
    root: GroupId,
    /// Root group of each live query, in submission order.
    query_roots: Vec<GroupId>,
    /// Query provenance in admission order. Retired entries linger as
    /// tombstones until [`BatchDag::compact_history`] drops them; tickets
    /// carry their own stable ids, so compaction never invalidates one.
    entries: Vec<QueryEntry>,
    /// Next ticket id to issue; never decreases, so tickets are unique for
    /// the lifetime of the batch.
    next_ticket: u32,
    /// The shareable equivalence nodes (the MQO ground set), ascending by
    /// group id; index order is the universe element order of the
    /// set-function layer.
    shareable: Vec<GroupId>,
    /// Expansion statistics of the admissions that built the memo; see
    /// [`BatchDag::expansion`].
    expansion: ExpansionStats,
    /// Lazily computed dense topological view of the current memo state;
    /// evolution commits swap in a fresh cell, so engines holding the old
    /// `Arc` keep a consistent snapshot.
    topo: OnceLock<Arc<TopoView>>,
    /// Process-unique batch identity, stamped into every
    /// [`BatchSavepoint`] so `BatchDag::rollback` can
    /// reject savepoints from a different batch as
    /// [`MqoError::StaleSavepoint`] instead of silently rebuilding.
    uid: u64,
}

impl BatchDag {
    /// Builds, expands, and roots the combined DAG for `queries`: the fold
    /// of one admission per query, in order. Candidate generation in the
    /// expansion fixpoint uses [`MqoConfig::default`]'s thread count (the
    /// `MQO_THREADS` environment default); see
    /// [`BatchDag::build_with_threads`].
    pub fn build(ctx: DagContext, queries: &[PlanNode], rules: &RuleSet) -> Self {
        Self::build_with_threads(ctx, queries, rules, MqoConfig::default().threads)
    }

    /// [`BatchDag::build`] with an explicit worker-thread count for the
    /// expansion fixpoint's candidate-generation phase. The memo is
    /// bit-identical at every thread count (the commit phase is serial and
    /// deterministic); only the wall-clock changes.
    ///
    /// # Panics
    ///
    /// If `queries` is empty: a batch always has a query to root.
    pub fn build_with_threads(
        ctx: DagContext,
        queries: &[PlanNode],
        rules: &RuleSet,
        threads: usize,
    ) -> Self {
        assert!(!queries.is_empty(), "a batch needs at least one query");
        let entries = queries
            .iter()
            .enumerate()
            .map(|(i, q)| QueryEntry {
                ticket: i as u32,
                plan: Arc::new(q.clone()),
                live: true,
            })
            .collect();
        let mut batch = BatchDag {
            memo: Memo::new(ctx),
            rules: *rules,
            root: GroupId(0),
            query_roots: Vec::new(),
            entries,
            next_ticket: queries.len() as u32,
            shareable: Vec::new(),
            expansion: ExpansionStats::default(),
            topo: OnceLock::new(),
            uid: NEXT_BATCH_UID.fetch_add(1, Ordering::Relaxed),
        };
        batch.rebuild_from_entries(threads);
        batch
    }

    /// The expanded memo as of the last commit.
    pub fn memo(&self) -> &Memo {
        &self.memo
    }

    /// The dummy batch root group.
    pub fn root(&self) -> GroupId {
        self.root
    }

    /// Root group of each query, in submission order.
    pub fn query_roots(&self) -> &[GroupId] {
        &self.query_roots
    }

    /// The shareable equivalence nodes (the MQO ground set), ascending by
    /// group id; index `e` is universe element `e` of the set-function
    /// layer. Every commit recounts it from the memo, so it depends only on
    /// the memo as it stands, never on the evolution history before it.
    pub fn shareable(&self) -> &[GroupId] {
        &self.shareable
    }

    /// Universe element of a shareable group, if it is one (accepts
    /// non-canonical ids).
    pub fn shareable_index(&self, g: GroupId) -> Option<usize> {
        self.shareable.binary_search(&self.memo.find(g)).ok()
    }

    /// Sorted structural fingerprints of the universe: the id-free identity
    /// of the shareable ground set, comparable across batches whose group
    /// ids differ (the same queries admitted in another order agree here).
    /// Computed on demand; differential-harness hook.
    pub fn universe_fingerprints(&self) -> Vec<u64> {
        let mut fps = self.shareable_fingerprints();
        fps.sort_unstable();
        fps
    }

    /// Number of queries currently live in the batch.
    pub fn live_queries(&self) -> usize {
        self.entries.iter().filter(|e| e.live).count()
    }

    /// Tickets of the live queries, in submission order.
    pub fn tickets(&self) -> Vec<QueryTicket> {
        self.entries
            .iter()
            .filter(|e| e.live)
            .map(|e| QueryTicket(e.ticket))
            .collect()
    }

    /// Position of a ticket's entry in the provenance log, if it is still
    /// there (compaction drops retired entries entirely, so `None` covers
    /// both "retired and compacted away" and "never issued").
    fn entry_index(&self, ticket: QueryTicket) -> Option<usize> {
        self.entries.iter().position(|e| e.ticket == ticket.0)
    }

    /// Whether a ticket refers to a live query.
    pub fn is_live(&self, ticket: QueryTicket) -> bool {
        self.entry_index(ticket)
            .is_some_and(|i| self.entries[i].live)
    }

    /// Expansion statistics of the memo as it stands. `exprs` and `groups`
    /// count the live expressions and groups below the batch root (without
    /// the root's one expression and group); `passes` and `candidates` sum
    /// over the admissions that built the memo, one per live query. All
    /// four are a function of the live queries in ticket order, whatever
    /// the evolution history.
    pub fn expansion(&self) -> &ExpansionStats {
        &self.expansion
    }

    /// Number of shareable nodes (the `n` of the paper's analysis).
    pub fn universe_size(&self) -> usize {
        self.shareable.len()
    }

    /// The dense topological view of the memo as of the last commit,
    /// computed on first use and shared by every consumer (engine
    /// compilation, plan extraction, diagnostics). Safe to cache without
    /// revalidation: the memo changes only through `&mut self` commits,
    /// and each commit drops the cached view.
    pub fn topo_view(&self) -> &TopoView {
        self.topo_arc()
    }

    /// The shared handle behind [`BatchDag::topo_view`] (compiled engines
    /// hold clones of this `Arc`, so no arena is ever copied).
    fn topo_arc(&self) -> &Arc<TopoView> {
        self.topo.get_or_init(|| Arc::new(self.memo.topo_view()))
    }

    /// Compiles an immutable [`EngineState`] snapshot of the current commit
    /// over [`BatchDag::topo_view`]: the shared engine arenas plus the
    /// universe and dense query roots, stamped with the memo version so
    /// consumers can tell whether a held snapshot is still current. Readers
    /// spin up per-caller [`crate::engine::BestCostEngine`] handles from it
    /// ([`EngineState::engine`]) without touching the batch again.
    pub fn compile_state(&self, cm: &dyn CostModel) -> EngineState {
        let topo = self.topo_arc();
        let arenas = Arc::new(EngineArenas::compile(
            &self.memo,
            Arc::clone(topo),
            cm,
            self.root,
            &self.shareable,
        ));
        let query_roots = self.query_roots.iter().map(|&q| topo.dense(q)).collect();
        EngineState::assemble(
            self.memo.version(),
            arenas,
            self.shareable.clone(),
            query_roots,
        )
    }

    /// Structural fingerprints of the universe in element order (index `e`
    /// fingerprints shareable element `e`), computed on demand. They key
    /// per-element state (the serving layer's materialization cache)
    /// across evolution commits, which change group ids.
    pub fn shareable_fingerprints(&self) -> Vec<u64> {
        group_fingerprints(&self.memo, self.topo_arc().order(), &self.shareable)
    }

    /// Size of the evolution history: provenance entries, live plus
    /// tombstoned. This is the state that grows with every add/retire
    /// cycle and that [`BatchDag::compact_history`] drops.
    pub fn history_len(&self) -> usize {
        self.entries.len()
    }

    /// Drops retired provenance entries, so [`BatchDag::history_len`]
    /// afterwards depends only on the live query count, not on how many
    /// add/retire cycles preceded it. The memo is not touched: it already
    /// holds exactly the survivors (every retire rebuilds it), so
    /// compaction never re-expands and the universe is unchanged.
    /// Outstanding tickets stay valid (they carry stable ids).
    pub fn compact_history(&mut self) {
        self.entries.retain(|e| e.live);
    }

    // -----------------------------------------------------------------------
    // Evolution: add/retire queries on the live batch.
    // -----------------------------------------------------------------------

    /// The one construction step: inserts `plan` into the memo, expands
    /// to fixpoint seeded with only the freshly interned expressions, and
    /// re-roots the batch. Build, admission, retire and rollback all fold
    /// this step, so their memos agree bit for bit. `threads` sizes the
    /// expansion's candidate generation.
    fn admit(&mut self, plan: &PlanNode, threads: usize) {
        let watermark = self.memo.exprs_allocated() as u32;
        let root = self.memo.insert_plan(plan);
        self.memo.add_query_root(root);
        let seeds = (watermark..self.memo.exprs_allocated() as u32).map(ExprId);
        let stats = expand_seeded(&mut self.memo, &self.rules, threads, seeds);
        self.root = self.memo.build_batch_root();
        self.expansion.passes += stats.passes;
        self.expansion.candidates += stats.candidates;
    }

    /// Admits a new query into the live batch with one admission step on
    /// the live memo, no rebuild. The batch is then a fresh build of its
    /// live queries in ticket order.
    pub(crate) fn add_query(&mut self, plan: &PlanNode, threads: usize) -> QueryTicket {
        self.admit(plan, threads);
        let ticket = QueryTicket(self.next_ticket);
        self.next_ticket += 1;
        self.entries.push(QueryEntry {
            ticket: ticket.0,
            plan: Arc::new(plan.clone()),
            live: true,
        });
        // Chaos-test window: the memo has the new query's expressions but
        // the evolution is not yet committed — exactly the state a serving
        // round's rollback must be able to unwind.
        fault::hit(FaultSite::AdmissionPrecommit);
        self.commit_evolution();
        ticket
    }

    /// Retires a query from the live batch. The memo is append-only, so
    /// the query's private expressions are reclaimed by rebuilding it from
    /// the surviving queries' plans: afterwards the batch is a fresh build
    /// of its survivors. The retired entry stays in the provenance log
    /// until [`BatchDag::compact_history`].
    ///
    /// Rejects unknown, compacted-away, and already-retired tickets
    /// ([`MqoError::UnknownTicket`] / [`MqoError::TicketRetired`]) and a
    /// retire that would empty the batch ([`MqoError::LastLiveQuery`])
    /// without touching any state.
    pub(crate) fn retire_query(
        &mut self,
        ticket: QueryTicket,
        threads: usize,
    ) -> Result<(), MqoError> {
        let idx = match self.entry_index(ticket) {
            Some(i) => i,
            // Issued tickets whose entry is gone were retired and then
            // compacted away; ids at or past the issue watermark never
            // existed.
            None if ticket.0 < self.next_ticket => return Err(MqoError::TicketRetired(ticket)),
            None => return Err(MqoError::UnknownTicket(ticket)),
        };
        if !self.entries[idx].live {
            return Err(MqoError::TicketRetired(ticket));
        }
        if self.live_queries() <= 1 {
            return Err(MqoError::LastLiveQuery(ticket));
        }
        self.entries[idx].live = false;
        self.rebuild_from_entries(threads);
        Ok(())
    }

    /// Resets the memo and folds the admission step over the live entries
    /// in ticket order, then commits: the build, retire and rollback path.
    fn rebuild_from_entries(&mut self, threads: usize) {
        self.memo.reset();
        self.expansion = ExpansionStats::default();
        let live: Vec<Arc<PlanNode>> = self
            .entries
            .iter()
            .filter(|e| e.live)
            .map(|e| Arc::clone(&e.plan))
            .collect();
        for plan in &live {
            self.admit(plan, threads);
        }
        self.commit_evolution();
    }

    /// Shared tail of every evolution commit: recount the shareable set
    /// from the memo as it stands, refresh cached roots, and swap in a
    /// fresh topo cell so `run*` consumers see a consistent new snapshot.
    fn commit_evolution(&mut self) {
        self.query_roots = self.memo.roots();
        // Below the batch root: its one expression and group are not
        // counted.
        self.expansion.exprs = self.memo.n_exprs() - 1;
        self.expansion.groups = self.memo.n_groups() - 1;
        // Swap the topo cell: engines holding the old Arc keep a frozen
        // consistent snapshot; new compiles see the evolved memo.
        self.topo = OnceLock::new();
        self.shareable = find_shareable(&self.memo, self.root);
    }
}

/// A snapshot of a batch's evolution state, taken by
/// [`crate::session::OptimizedBatch::savepoint`] for speculative
/// admission. It keeps only what a rebuild cannot recompute — the
/// provenance entries and the ticket watermark — and rolling back rebuilds
/// the memo from the snapshot's live queries.
#[derive(Debug)]
pub struct BatchSavepoint {
    /// Identity of the batch this savepoint was taken on; see
    /// `BatchDag::rollback`.
    batch_uid: u64,
    entries: Vec<QueryEntry>,
    next_ticket: u32,
}

impl BatchDag {
    /// Captures the current evolution state for a later
    /// [`BatchDag::rollback`]. Cheap: copies the provenance entries, whose
    /// plans are shared pointers; never the memo or a plan tree.
    pub(crate) fn savepoint(&self) -> BatchSavepoint {
        BatchSavepoint {
            batch_uid: self.uid,
            entries: self.entries.clone(),
            next_ticket: self.next_ticket,
        }
    }

    /// Rewinds every evolution commit made since `sp` was taken: tickets
    /// and the live query set return to the snapshot state, and the memo is
    /// rebuilt from the snapshot's live queries (a rollback costs a
    /// rebuild), so the batch is a fresh build of them. `threads` sizes the
    /// rebuild's expansion.
    ///
    /// Rejects savepoints from another batch and savepoints the batch was
    /// already rolled back past as [`MqoError::StaleSavepoint`] without
    /// touching any state. (Rolling back to an *older* savepoint of this
    /// batch's lineage is fine and skips intermediate ones — those
    /// intermediates then become stale.)
    pub(crate) fn rollback(&mut self, sp: BatchSavepoint, threads: usize) -> Result<(), MqoError> {
        if sp.batch_uid != self.uid || sp.next_ticket > self.next_ticket {
            return Err(MqoError::StaleSavepoint);
        }
        self.entries = sp.entries;
        self.next_ticket = sp.next_ticket;
        self.rebuild_from_entries(threads);
        Ok(())
    }
}

/// Shareable nodes: reachable from the batch root, with at least two
/// references from live parent operator nodes, excluding bare scans
/// (materializing a base relation is never useful — it already resides on
/// disk) and the root itself. References are counted with multiplicity:
/// one parent expression can reference the group twice (e.g. the batch
/// root when the same query is submitted twice, or a self-join of a shared
/// view).
///
/// A pure function of the memo as it stands, so every commit — build,
/// admission, retire, rollback — calls it and nothing derived from the
/// memo is patched incrementally. Allocation-light: one pass over the
/// live expression arena accumulates reference counts into a flat
/// per-slot buffer, and one DFS over group children marks reachability.
fn find_shareable(memo: &Memo, root: GroupId) -> Vec<GroupId> {
    let n_slots = memo.n_group_slots();
    let root = memo.find(root);
    let mut refs = vec![0u32; n_slots];
    for e in memo.expr_ids() {
        for &c in memo.children(e) {
            refs[memo.find(c).0 as usize] += 1;
        }
    }

    // DFS reachability from the batch root, filtering as we go.
    let mut seen = vec![false; n_slots];
    let mut stack = vec![root];
    seen[root.0 as usize] = true;
    let mut out = Vec::new();
    while let Some(g) = stack.pop() {
        if g != root && refs[g.0 as usize] >= 2 {
            let is_bare_scan = memo
                .group_exprs(g)
                .all(|e| matches!(memo.op(e), LogicalOp::Scan(_)));
            if !is_bare_scan {
                out.push(g);
            }
        }
        for e in memo.group_exprs(g) {
            for &c in memo.children(e) {
                let c = memo.find(c);
                if !seen[c.0 as usize] {
                    seen[c.0 as usize] = true;
                    stack.push(c);
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// Structural fingerprints for `groups`: a bottom-up hash over the memo's
/// live contents in which a group's fingerprint covers the sorted
/// fingerprints of its member expressions, and an expression's covers its
/// operator and child-group fingerprints. Invariant under group-id
/// renumbering — two memo states interning the same logical DAG assign
/// equal fingerprints, however their groups are numbered — which is what
/// keys the serving layer's materialization cache across evolution
/// commits. `order` is the memo's topological order ([`TopoView::order`]).
fn group_fingerprints(memo: &Memo, order: &[GroupId], groups: &[GroupId]) -> Vec<u64> {
    let mut fp = vec![0u64; memo.n_group_slots()];
    let mut expr_fps: Vec<u64> = Vec::new();
    for &g in order {
        expr_fps.clear();
        expr_fps.extend(memo.group_exprs(g).map(|e| {
            let mut h = FpHasher::default();
            memo.op(e).hash(&mut h);
            for &c in memo.children(e) {
                fp[memo.find(c).0 as usize].hash(&mut h);
            }
            h.finish()
        }));
        expr_fps.sort_unstable();
        let mut h = FpHasher::default();
        expr_fps.hash(&mut h);
        fp[g.0 as usize] = h.finish();
    }
    groups
        .iter()
        .map(|&g| fp[memo.find(g).0 as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_catalog::{Catalog, TableBuilder};
    use mqo_volcano::{Constraint, Predicate};

    fn ctx() -> DagContext {
        let mut cat = Catalog::new();
        for (name, rows) in [("a", 1000.0), ("b", 2000.0), ("c", 500.0), ("d", 800.0)] {
            cat.add_table(
                TableBuilder::new(name, rows)
                    .key_column(format!("{name}_key"), 4)
                    .column(
                        format!("{name}_fk"),
                        rows / 10.0,
                        (0, (rows as i64) / 10 - 1),
                        4,
                    )
                    .column(format!("{name}_x"), 10.0, (0, 9), 4)
                    .primary_key(&[&format!("{name}_key")])
                    .build(),
            );
        }
        DagContext::new(cat)
    }

    /// Example 1's structure: Q1 = A⋈B⋈C, Q2 = B⋈C⋈D.
    fn example1_queries(ctx: &mut DagContext) -> Vec<PlanNode> {
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let c = ctx.instance_by_name("c", 0);
        let d = ctx.instance_by_name("d", 0);
        let p_ab = Predicate::join(ctx.col(a, "a_key"), ctx.col(b, "b_fk"));
        let p_bc = Predicate::join(ctx.col(b, "b_key"), ctx.col(c, "c_fk"));
        let p_bd = Predicate::join(ctx.col(b, "b_key"), ctx.col(d, "d_fk"));
        let q1 = PlanNode::scan(a)
            .join(PlanNode::scan(b), p_ab)
            .join(PlanNode::scan(c), p_bc.clone());
        let q2 = PlanNode::scan(b)
            .join(PlanNode::scan(c), p_bc)
            .join(PlanNode::scan(d), p_bd);
        vec![q1, q2]
    }

    #[test]
    fn batch_has_root_and_query_roots() {
        let mut ctx = ctx();
        let queries = example1_queries(&mut ctx);
        let batch = BatchDag::build(ctx, &queries, &RuleSet::joins_only());
        assert_eq!(batch.query_roots().len(), 2);
        assert_ne!(batch.query_roots()[0], batch.query_roots()[1]);
        let root_children = batch.memo().group_children(batch.root());
        assert_eq!(root_children.len(), 2);
    }

    #[test]
    fn shared_join_is_shareable() {
        let mut ctx = ctx();
        let queries = example1_queries(&mut ctx);
        let batch = BatchDag::build(ctx, &queries, &RuleSet::joins_only());
        // The B⋈C group is a child of joins in both queries: must be in the
        // shareable universe.
        let bc = batch.shareable().iter().copied().find(|&g| {
            let leaves = &batch.memo().props(g).leaves;
            leaves.len() == 2
        });
        assert!(bc.is_some(), "B⋈C (a 2-leaf group) must be shareable");
    }

    #[test]
    fn scans_and_root_excluded() {
        let mut ctx = ctx();
        let queries = example1_queries(&mut ctx);
        let batch = BatchDag::build(ctx, &queries, &RuleSet::joins_only());
        assert!(!batch.shareable().contains(&batch.root()));
        for &g in batch.shareable() {
            let all_scans = batch
                .memo()
                .group_exprs(g)
                .all(|e| matches!(batch.memo().expr(e).op, LogicalOp::Scan(_)));
            assert!(!all_scans, "bare scan group {g:?} must not be shareable");
        }
    }

    #[test]
    fn selects_with_shared_subsumer_are_shareable() {
        let mut ctx = ctx();
        let a = ctx.instance_by_name("a", 0);
        let ax = ctx.col(a, "a_x");
        let akey = ctx.col(a, "a_key");
        let b = ctx.instance_by_name("b", 0);
        let p_ab = Predicate::join(ctx.col(a, "a_key"), ctx.col(b, "b_fk"));
        // Two single-table queries with different constants, joined against
        // b so the select groups have parents.
        let q1 = PlanNode::scan(a)
            .select(Predicate::on(ax, Constraint::eq(3)))
            .join(PlanNode::scan(b), p_ab.clone());
        let q2 = PlanNode::scan(a)
            .select(Predicate::on(ax, Constraint::eq(5)))
            .join(PlanNode::scan(b), p_ab);
        let _ = akey;
        let batch = BatchDag::build(ctx, &[q1, q2], &RuleSet::default());
        // The subsumer σ_{x∈{3,5}}(a) has two derivation parents: shareable.
        let has_subsumer = batch.shareable().iter().any(|&g| {
            batch.memo().group_exprs(g).any(|e| {
                matches!(&batch.memo().expr(e).op, LogicalOp::Select(p)
                    if p.constraints.values().any(|c| c.in_list.as_ref().is_some_and(|v| v.len() == 2)))
            })
        });
        assert!(has_subsumer, "IN-subsumer must be shareable");
    }

    #[test]
    fn shareable_index_maps_groups_to_universe_elements() {
        let mut ctx = ctx();
        let queries = example1_queries(&mut ctx);
        let batch = BatchDag::build(ctx, &queries, &RuleSet::default());
        for (e, &g) in batch.shareable().iter().enumerate() {
            assert_eq!(batch.shareable_index(g), Some(e));
        }
        assert_eq!(batch.shareable_index(batch.root()), None);
    }

    #[test]
    fn universe_is_deterministic() {
        let mut ctx1 = ctx();
        let q1 = example1_queries(&mut ctx1);
        let b1 = BatchDag::build(ctx1, &q1, &RuleSet::default());
        let mut ctx2 = ctx();
        let q2 = example1_queries(&mut ctx2);
        let b2 = BatchDag::build(ctx2, &q2, &RuleSet::default());
        assert_eq!(b1.shareable(), b2.shareable());
    }

    /// Q3 = C⋈D, overlapping Q2's D and the B⋈C region.
    fn third_query(ctx: &mut DagContext) -> PlanNode {
        let c = ctx.instance_by_name("c", 0);
        let d = ctx.instance_by_name("d", 0);
        let p_cd = Predicate::join(ctx.col(c, "c_key"), ctx.col(d, "d_fk"));
        PlanNode::scan(c).join(PlanNode::scan(d), p_cd)
    }

    /// An evolved batch is bit for bit the fresh build of its survivors:
    /// same memo counts, query roots, universe and expansion counts.
    fn assert_equivalent(evolved: &BatchDag, fresh: &BatchDag, label: &str) {
        evolved.memo().check_consistency();
        assert_eq!(
            (evolved.memo().n_exprs(), evolved.memo().n_groups()),
            (fresh.memo().n_exprs(), fresh.memo().n_groups()),
            "{label}: live counts diverge"
        );
        assert_eq!(
            evolved.query_roots(),
            fresh.query_roots(),
            "{label}: query roots diverge"
        );
        assert_eq!(evolved.root(), fresh.root(), "{label}: batch root");
        assert_eq!(
            evolved.shareable(),
            fresh.shareable(),
            "{label}: universe diverges"
        );
        assert_eq!(
            evolved.expansion(),
            fresh.expansion(),
            "{label}: expansion counts diverge"
        );
    }

    #[test]
    fn add_query_matches_fresh_build() {
        let mut ctx1 = ctx();
        let mut queries = example1_queries(&mut ctx1);
        queries.push(third_query(&mut ctx1));
        let fresh = BatchDag::build(ctx1, &queries, &RuleSet::default());

        let mut ctx2 = ctx();
        let base = example1_queries(&mut ctx2);
        let q3 = third_query(&mut ctx2);
        let mut evolved = BatchDag::build_with_threads(ctx2, &base, &RuleSet::default(), 1);
        let t = evolved.add_query(&q3, 1);
        assert!(evolved.is_live(t));
        assert_eq!(evolved.live_queries(), 3);
        assert_equivalent(&evolved, &fresh, "add q3");
    }

    #[test]
    fn retire_incrementally_added_query_restores_base_batch() {
        let mut ctx1 = ctx();
        let base_queries = example1_queries(&mut ctx1);
        let fresh = BatchDag::build(ctx1, &base_queries, &RuleSet::default());

        let mut ctx2 = ctx();
        let base = example1_queries(&mut ctx2);
        let q3 = third_query(&mut ctx2);
        let mut evolved = BatchDag::build_with_threads(ctx2, &base, &RuleSet::default(), 1);
        let t = evolved.add_query(&q3, 1);
        evolved.retire_query(t, 1).unwrap();
        assert!(!evolved.is_live(t));
        assert_eq!(evolved.live_queries(), 2);
        assert_equivalent(&evolved, &fresh, "add+retire q3");
    }

    #[test]
    fn retire_initial_query_rebuilds_survivors() {
        let mut ctx1 = ctx();
        let mut survivors = example1_queries(&mut ctx1);
        let q3_1 = third_query(&mut ctx1);
        survivors.remove(0);
        survivors.push(q3_1);
        let fresh = BatchDag::build(ctx1, &survivors, &RuleSet::default());

        let mut ctx2 = ctx();
        let base = example1_queries(&mut ctx2);
        let q3 = third_query(&mut ctx2);
        let mut evolved = BatchDag::build_with_threads(ctx2, &base, &RuleSet::default(), 1);
        evolved.add_query(&q3, 1);
        // Ticket 0 is an initial-build entry.
        evolved.retire_query(QueryTicket(0), 1).unwrap();
        assert_eq!(evolved.live_queries(), 2);
        assert_equivalent(&evolved, &fresh, "retire initial q1");
    }

    #[test]
    fn rollback_restores_speculative_admission() {
        let mut ctx1 = ctx();
        let base_queries = example1_queries(&mut ctx1);
        let fresh = BatchDag::build(ctx1, &base_queries, &RuleSet::default());

        let mut ctx2 = ctx();
        let base = example1_queries(&mut ctx2);
        let q3 = third_query(&mut ctx2);
        let mut evolved = BatchDag::build_with_threads(ctx2, &base, &RuleSet::default(), 1);
        let sp = evolved.savepoint();
        let t = evolved.add_query(&q3, 1);
        assert_eq!(evolved.live_queries(), 3);
        evolved.rollback(sp, 1).unwrap();
        assert_eq!(evolved.live_queries(), 2);
        assert!(!evolved.is_live(t));
        assert_equivalent(&evolved, &fresh, "rollback of speculative add");

        // Add-after-rollback replay: the same admission commits cleanly.
        let t2 = evolved.add_query(&q3, 1);
        assert!(evolved.is_live(t2));
        assert_eq!(evolved.live_queries(), 3);
        evolved.memo().check_consistency();
    }

    #[test]
    fn retiring_the_last_query_is_rejected() {
        let mut ctx1 = ctx();
        let queries = example1_queries(&mut ctx1);
        let mut batch = BatchDag::build_with_threads(ctx1, &queries[..1], &RuleSet::default(), 1);
        let t = QueryTicket(0);
        assert!(matches!(
            batch.retire_query(t, 1),
            Err(MqoError::LastLiveQuery(r)) if r == t
        ));
        assert!(batch.is_live(t));
    }

    #[test]
    fn retiring_a_dead_ticket_is_rejected() {
        let mut ctx1 = ctx();
        let mut queries = example1_queries(&mut ctx1);
        queries.push(third_query(&mut ctx1));
        let mut batch = BatchDag::build_with_threads(ctx1, &queries, &RuleSet::default(), 1);
        let t = QueryTicket(0);
        batch.retire_query(t, 1).unwrap();
        assert!(matches!(
            batch.retire_query(t, 1),
            Err(MqoError::TicketRetired(r)) if r == t
        ));
        assert_eq!(batch.live_queries(), 2);
    }

    /// `expansion()` counts the same on every path to the same live
    /// queries: a fresh build of two BQ3 queries, a retire down to them
    /// and an admission up to them. The counts exclude the batch root, as
    /// a plain expansion of the two queries does.
    #[test]
    fn expansion_counts_agree_on_every_path() {
        let make = || {
            let w = mqo_tpcd::batched(3, 1.0);
            (w.ctx, w.queries)
        };
        let rules = RuleSet::default();
        let (ctx, queries) = make();
        let fresh = BatchDag::build_with_threads(ctx, &queries[..2], &rules, 1);

        let (ctx, queries) = make();
        let mut retired = BatchDag::build_with_threads(ctx, &queries[..3], &rules, 1);
        retired.retire_query(QueryTicket(2), 1).unwrap();

        let (ctx, queries) = make();
        let mut admitted = BatchDag::build_with_threads(ctx, &queries[..1], &rules, 1);
        admitted.add_query(&queries[1], 1);

        let (ctx, queries) = make();
        let mut memo = Memo::new(ctx);
        for q in &queries[..2] {
            let root = memo.insert_plan(q);
            memo.add_query_root(root);
        }
        let plain = mqo_volcano::rules::expand(&mut memo, &rules);
        for (batch, label) in [(&retired, "retire"), (&admitted, "admission")] {
            assert_eq!(batch.expansion(), fresh.expansion(), "{label}");
        }
        assert_eq!(
            (fresh.expansion().exprs, fresh.expansion().groups),
            (plain.exprs, plain.groups),
            "a build counts what a plain expansion of its queries counts"
        );
    }
}
