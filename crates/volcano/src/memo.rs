//! The memo: a hash-consed AND-OR DAG (LQDAG).
//!
//! Equivalence nodes ([`GroupId`]) are the OR-nodes; operator nodes
//! ([`ExprId`], an operator plus child groups) are the AND-nodes. Inserting
//! a logical expression hash-conses on `(operator, child groups)`: two
//! queries in a batch that contain the same subexpression land on the same
//! group automatically — this is the common-subexpression identification of
//! Section 2.2 ("a single bottom-up traversal of the LQDAG by using the
//! memo structure").
//!
//! # Interned storage
//!
//! Operator payloads (predicates, aggregate specs) are interned once into a
//! dense operator arena: every expression stores a 4-byte `OpId`, and the
//! hash-consing index is keyed on `(OpId, children)` — so the deep hash of
//! a predicate is paid once per *distinct* operator, while the per-insert
//! probe and every merge-time re-hash touch only small integer keys,
//! hashed with the multiply-xor [`FpHasher`](crate::fphash::FpHasher)
//! rather than SipHash. The operator index keeps SipHash: its keys carry
//! predicates from user-submitted plans.
//! Expression children live in one flat arena (`ExprId` → offset range),
//! so the memo performs no per-expression heap allocation beyond the
//! arenas themselves.
//!
//! Transformation rules may discover that two existing groups are equal
//! (e.g. associativity produces `A⋈(B⋈C)` inside the group built from
//! `(A⋈B)⋈C`, while another query contributed `A⋈(B⋈C)` elsewhere). Groups
//! are then merged through a union-find, re-hashing affected parents and
//! cascading further merges — the "unification" of Roy et al.
//!
//! The memo is append-only: expressions and groups are added, unioned and
//! tombstoned, but nothing is ever taken back short of [`Memo::reset`].
//! A consumer that needs to drop a query rebuilds from the survivors.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::context::{ColId, DagContext};
use crate::fphash::FpBuildHasher;
use crate::logical::{compute_props, Leaf, LogicalOp, LogicalProps, PlanNode};

/// An equivalence node (OR-node) in the DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

/// An operator node (AND-node) in the DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// An interned operator payload (index into the operator arena).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct OpId(u32);

/// A borrowed view of an operator node: interned operator plus the child
/// slice in the flat children arena.
#[derive(Clone, Copy, Debug)]
pub struct MExpr<'m> {
    pub op: &'m LogicalOp,
    pub children: &'m [GroupId],
}

#[derive(Debug)]
struct GroupData {
    exprs: Vec<ExprId>,
    /// Operator nodes having this group among their children.
    parents: Vec<ExprId>,
    props: LogicalProps,
}

/// Mutation log consumed by the expansion fixpoint (`rules::expand`):
/// which groups gained member expressions and which expressions had their
/// child lists rewritten by a merge. Only recorded while a log is active.
#[derive(Debug, Default)]
pub(crate) struct ChangeLog {
    active: bool,
    /// Groups that gained at least one expression (insert into an existing
    /// target, or a merge transferring the dropped group's expressions),
    /// each with the length of its member list just before that gain. A
    /// representative's member list only ever grows by appending, so the
    /// members past its first recorded length are exactly the ones it
    /// gained while the log was active: newly interned expressions and the
    /// members merges moved in.
    grown: Vec<(GroupId, u32)>,
    /// Live expressions whose children were rewritten during a merge.
    rewritten: Vec<ExprId>,
}

/// The memo structure.
#[derive(Debug)]
pub struct Memo {
    ctx: DagContext,
    groups: Vec<GroupData>,
    /// Union-find over groups (index = GroupId.0).
    uf: Vec<u32>,
    /// Interned operator arena; `op_index` maps each distinct operator to
    /// its dense id (the one deep hash per insert happens here).
    ops: Vec<LogicalOp>,
    op_index: HashMap<LogicalOp, OpId>,
    /// Per-expression interned operator.
    expr_op: Vec<OpId>,
    /// Flat children arena: expression `e` owns
    /// `child_arena[child_off[e] .. child_off[e+1]]`.
    child_off: Vec<u32>,
    child_arena: Vec<GroupId>,
    /// Liveness: duplicates produced by merges are tombstoned.
    alive: Vec<bool>,
    group_of: Vec<GroupId>,
    /// Hash-consing index over `(interned op, child groups)`: integer
    /// keys, integer hasher. Looked up, never iterated for results.
    index: HashMap<(OpId, Vec<GroupId>), ExprId, FpBuildHasher>,
    /// Synthetic column -> aggregate group producing it.
    producers: HashMap<ColId, GroupId>,
    /// Query roots, in insertion order.
    roots: Vec<GroupId>,
    /// Expansion change log (inactive outside `rules::expand`).
    log: ChangeLog,
    /// Monotone mutation counter: bumped on every new expression, union,
    /// tombstone, and reset. Never decreases — two distinct memo states
    /// observed by a consumer can never share a version, which is what
    /// makes it safe as the stamp a compiled snapshot is checked against.
    version: u64,
    /// The group produced by [`Memo::build_batch_root`], if built.
    batch_root: Option<GroupId>,
    /// Scratch child-list buffer reused by the merge-cascade rehash loops,
    /// so probing/removing `index` entries does not allocate per rehash;
    /// ownership moves into the index only on an actual vacant insert.
    rehash_key: Vec<GroupId>,
}

impl Memo {
    /// Creates an empty memo over a context.
    pub fn new(ctx: DagContext) -> Self {
        Memo {
            ctx,
            groups: Vec::new(),
            uf: Vec::new(),
            ops: Vec::new(),
            op_index: HashMap::new(),
            expr_op: Vec::new(),
            child_off: vec![0],
            child_arena: Vec::new(),
            alive: Vec::new(),
            group_of: Vec::new(),
            index: HashMap::default(),
            producers: HashMap::new(),
            roots: Vec::new(),
            log: ChangeLog::default(),
            version: 0,
            batch_root: None,
            rehash_key: Vec::new(),
        }
    }

    /// Monotone mutation counter (see the field docs): a held snapshot
    /// whose stamp equals it was compiled from the current memo state.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The shared context.
    pub fn ctx(&self) -> &DagContext {
        &self.ctx
    }

    /// Canonical representative of a group.
    pub fn find(&self, g: GroupId) -> GroupId {
        let mut cur = g.0;
        while self.uf[cur as usize] != cur {
            cur = self.uf[cur as usize];
        }
        GroupId(cur)
    }

    /// Number of group slots allocated (including merged-away ones).
    pub fn n_group_slots(&self) -> usize {
        self.groups.len()
    }

    /// Number of live (representative) groups.
    pub fn n_groups(&self) -> usize {
        (0..self.groups.len())
            .filter(|&i| self.uf[i] == i as u32)
            .count()
    }

    /// Number of live operator nodes.
    pub fn n_exprs(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Number of expression slots allocated (including tombstones); grows
    /// monotonically, which the expansion fixpoint loop relies on.
    pub fn exprs_allocated(&self) -> usize {
        self.expr_op.len()
    }

    /// Number of distinct interned operator payloads.
    pub fn n_interned_ops(&self) -> usize {
        self.ops.len()
    }

    /// All live expression ids (stable iteration order).
    pub fn expr_ids(&self) -> impl Iterator<Item = ExprId> + '_ {
        (0..self.expr_op.len() as u32)
            .map(ExprId)
            .filter(|e| self.alive[e.0 as usize])
    }

    /// The expression data (borrowed view into the arenas).
    #[inline]
    pub fn expr(&self, e: ExprId) -> MExpr<'_> {
        MExpr {
            op: self.op(e),
            children: self.children(e),
        }
    }

    /// The expression's operator.
    #[inline]
    pub fn op(&self, e: ExprId) -> &LogicalOp {
        &self.ops[self.expr_op[e.0 as usize].0 as usize]
    }

    /// The expression's child groups (representatives as of the last
    /// rewrite).
    #[inline]
    pub fn children(&self, e: ExprId) -> &[GroupId] {
        let s = self.child_off[e.0 as usize] as usize;
        let t = self.child_off[e.0 as usize + 1] as usize;
        &self.child_arena[s..t]
    }

    /// Whether the expression survived merging (not a tombstoned duplicate).
    pub fn is_alive(&self, e: ExprId) -> bool {
        self.alive[e.0 as usize]
    }

    /// The group owning an expression.
    pub fn group_of(&self, e: ExprId) -> GroupId {
        self.find(self.group_of[e.0 as usize])
    }

    /// Live expressions of a group.
    pub fn group_exprs(&self, g: GroupId) -> impl Iterator<Item = ExprId> + '_ {
        self.group_exprs_from(self.find(g), 0)
    }

    /// Live members of the representative group `g` from position `from`
    /// of its member list on (empty past the end). Together with the
    /// lengths [`Memo::log_grown`] records, this lists the members a group
    /// gained while the change log was active.
    pub(crate) fn group_exprs_from(
        &self,
        g: GroupId,
        from: usize,
    ) -> impl Iterator<Item = ExprId> + '_ {
        let exprs = &self.groups[g.0 as usize].exprs;
        exprs[from.min(exprs.len())..]
            .iter()
            .copied()
            .filter(|e| self.alive[e.0 as usize])
    }

    /// Live parent expressions of a group (operator nodes having it as a
    /// child), deduplicated.
    pub fn group_parents(&self, g: GroupId) -> Vec<ExprId> {
        let g = self.find(g);
        let mut out: Vec<ExprId> = self.groups[g.0 as usize]
            .parents
            .iter()
            .copied()
            .filter(|e| self.alive[e.0 as usize])
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Logical properties of a group.
    pub fn props(&self, g: GroupId) -> &LogicalProps {
        let g = self.find(g);
        &self.groups[g.0 as usize].props
    }

    /// The aggregate group producing a synthetic column, if registered.
    pub fn producer(&self, col: ColId) -> Option<GroupId> {
        self.producers.get(&col).map(|&g| self.find(g))
    }

    /// Whether group `g`'s output exposes column `col`. Base columns are
    /// exposed by their instance leaf or by an aggregate leaf grouping on
    /// them (group-by columns pass through aggregation); synthetic columns
    /// by the aggregate leaf producing them.
    pub fn group_covers(&self, g: GroupId, col: ColId) -> bool {
        let g = self.find(g);
        for leaf in &self.groups[g.0 as usize].props.leaves {
            match (leaf, col) {
                (Leaf::Instance(i), ColId::Base { inst, .. }) if *i == inst => return true,
                (Leaf::Agg(a), _) if self.agg_exposes(*a, col) => return true,
                _ => {}
            }
        }
        false
    }

    /// Whether the aggregate group `a` exposes `col` as a group-by column or
    /// an aggregate output.
    fn agg_exposes(&self, a: GroupId, col: ColId) -> bool {
        self.group_exprs(a).any(|e| match self.op(e) {
            LogicalOp::Aggregate(spec) => {
                spec.group_by.contains(&col) || spec.aggs.iter().any(|c| c.output == col)
            }
            _ => false,
        })
    }

    /// Registered query roots.
    pub fn roots(&self) -> Vec<GroupId> {
        self.roots.iter().map(|&g| self.find(g)).collect()
    }

    /// Looks up the expression id an `(op, children)` pair is interned
    /// under, if any (children are canonicalized the way [`Memo::insert`]
    /// would). Probing never mutates the memo.
    pub fn expr_id_of(&self, op: &LogicalOp, children: &[GroupId]) -> Option<ExprId> {
        let mut ch: Vec<GroupId> = children.iter().map(|&c| self.find(c)).collect();
        if let LogicalOp::Join(_) = op {
            self.canonicalize_join_children(&mut ch);
        }
        let &op_id = self.op_index.get(op)?;
        self.index.get(&(op_id, ch)).copied()
    }

    /// Starts recording the expansion change log (clearing any prior
    /// entries).
    pub(crate) fn log_start(&mut self) {
        self.log.active = true;
        self.log.grown.clear();
        self.log.rewritten.clear();
    }

    /// Stops recording the change log.
    pub(crate) fn log_stop(&mut self) {
        self.log.active = false;
    }

    /// Groups that gained expressions since [`Memo::log_start`], each with
    /// its member-list length just before the gain, in mutation order
    /// (a group recurs once per gain; entries may name groups merged away
    /// later).
    pub(crate) fn log_grown(&self) -> &[(GroupId, u32)] {
        &self.log.grown
    }

    /// Live-at-the-time expressions rewritten by merges since
    /// [`Memo::log_start`] (entries may have been tombstoned later).
    pub(crate) fn log_rewritten(&self) -> &[ExprId] {
        &self.log.rewritten
    }

    /// Clears every arena, index and root while keeping the
    /// context, returning the memo to its freshly-constructed state. The
    /// version counter keeps increasing across a reset.
    pub fn reset(&mut self) {
        self.groups.clear();
        self.uf.clear();
        self.ops.clear();
        self.op_index.clear();
        self.expr_op.clear();
        self.child_off.clear();
        self.child_off.push(0);
        self.child_arena.clear();
        self.alive.clear();
        self.group_of.clear();
        self.index.clear();
        self.producers.clear();
        self.roots.clear();
        self.log = ChangeLog::default();
        self.batch_root = None;
        self.version += 1;
    }

    /// Interns an operator payload, returning its dense id. This is the
    /// single place a deep operator hash is paid per insert (once, also
    /// for a new operator).
    fn intern_op(&mut self, op: LogicalOp) -> OpId {
        match self.op_index.entry(op) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => {
                let id = OpId(self.ops.len() as u32);
                self.ops.push(v.key().clone());
                v.insert(id);
                id
            }
        }
    }

    /// Inserts an expression, hash-consing on `(op, children)`.
    ///
    /// * With `target = None`, the expression's group is the existing owner
    ///   (if the expression is known) or a fresh group.
    /// * With `target = Some(g)` — used by transformation rules, which know
    ///   the result is equivalent to `g` — a pre-existing owner different
    ///   from `g` triggers a group merge.
    ///
    /// Returns the (representative) group now holding the expression.
    pub fn insert(
        &mut self,
        op: LogicalOp,
        children: Vec<GroupId>,
        target: Option<GroupId>,
    ) -> GroupId {
        if let Some(arity) = op.arity() {
            assert_eq!(children.len(), arity, "arity mismatch for {op:?}");
        }
        let mut children = children;
        for c in children.iter_mut() {
            *c = self.find(*c);
        }
        if let LogicalOp::Join(_) = op {
            self.canonicalize_join_children(&mut children);
        }
        // No-op selection: if the child's applied predicate already implies
        // this one, the expression is the child itself.
        if let LogicalOp::Select(p) = &op {
            let child = children[0];
            if self.groups[child.0 as usize].props.applied.implies(p) {
                if let Some(t) = target {
                    let t = self.find(t);
                    if t != child {
                        self.merge(child, t);
                    }
                }
                return self.find(child);
            }
        }
        // An expression computing a group from itself is never useful; skip.
        if let Some(t) = target {
            let t = self.find(t);
            if children.contains(&t) {
                return t;
            }
        }
        let op_id = self.intern_op(op);
        let key = (op_id, children);
        if let Some(&e) = self.index.get(&key) {
            let owner = self.group_of(e);
            if let Some(t) = target {
                let t = self.find(t);
                if t != owner {
                    self.merge(owner, t);
                    return self.find(owner);
                }
            }
            return owner;
        }
        let (op_id, children) = key;

        // New expression.
        let eid = ExprId(self.expr_op.len() as u32);
        self.expr_op.push(op_id);
        self.child_arena.extend_from_slice(&children);
        self.child_off.push(self.child_arena.len() as u32);
        self.alive.push(true);
        self.version += 1;

        let group = match target {
            Some(t) => {
                let t = self.find(t);
                let members = &mut self.groups[t.0 as usize].exprs;
                if self.log.active {
                    self.log.grown.push((t, members.len() as u32));
                }
                members.push(eid);
                t
            }
            None => {
                // Only a new group needs logical properties: a targeted
                // insert joins a group whose properties are already set.
                let gid = GroupId(self.groups.len() as u32);
                let mut props = {
                    let op = &self.ops[op_id.0 as usize];
                    let child_props: Vec<&LogicalProps> = children
                        .iter()
                        .map(|&c| &self.groups[c.0 as usize].props)
                        .collect();
                    compute_props(
                        op,
                        &child_props,
                        &self.ctx,
                        |g| self.groups[self.find(g).0 as usize].props.rows,
                        |g| self.groups[self.find(g).0 as usize].props.width,
                    )
                };
                if let LogicalOp::Aggregate(spec) = &self.ops[op_id.0 as usize] {
                    // The aggregate's own output is the leaf of its region.
                    props.leaves = vec![Leaf::Agg(gid)];
                    for call in &spec.aggs {
                        self.producers.entry(call.output).or_insert(gid);
                    }
                }
                self.groups.push(GroupData {
                    exprs: vec![eid],
                    parents: Vec::new(),
                    props,
                });
                self.uf.push(gid.0);
                gid
            }
        };
        self.group_of.push(group);
        for &c in &children {
            self.groups[c.0 as usize].parents.push(eid);
        }
        self.index.insert((op_id, children), eid);
        self.find(group)
    }

    /// Canonical order for join children: by `(leaves, applied)` of the
    /// child groups, so commutative variants hash identically. Pure
    /// structural comparison — no formatting, no cloning.
    fn canonicalize_join_children(&self, children: &mut [GroupId]) {
        debug_assert_eq!(children.len(), 2);
        let key = |g: GroupId| {
            let p = &self.groups[g.0 as usize].props;
            (&p.leaves, &p.applied)
        };
        if key(children[1]) < key(children[0]) {
            children.swap(0, 1);
        }
    }

    /// Merges two groups (and cascades through affected parents).
    pub fn merge(&mut self, a: GroupId, b: GroupId) {
        let mut pending = vec![(a, b)];
        while let Some((a, b)) = pending.pop() {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                continue;
            }
            let (keep, drop) = if ra < rb { (ra, rb) } else { (rb, ra) };
            debug_assert!(
                relative_close(
                    self.groups[keep.0 as usize].props.rows,
                    self.groups[drop.0 as usize].props.rows
                ),
                "merging groups with diverging cardinalities: {} vs {}",
                self.groups[keep.0 as usize].props.rows,
                self.groups[drop.0 as usize].props.rows
            );
            self.uf[drop.0 as usize] = keep.0;
            self.version += 1;
            if self.log.active {
                let len = self.groups[keep.0 as usize].exprs.len() as u32;
                self.log.grown.push((keep, len));
            }

            let dropped_exprs = std::mem::take(&mut self.groups[drop.0 as usize].exprs);
            for e in &dropped_exprs {
                self.group_of[e.0 as usize] = keep;
            }
            // A transferred expression whose children reference `keep`
            // becomes a self-reference the moment it changes owner (e.g.
            // σ(G) living in a group that merges into G). Parents of `drop`
            // are caught by the rewrite loop below, but these reference
            // `keep` directly and are never rehashed — tombstone them here,
            // removing their index entries, or they survive as live
            // self-referential duplicates (and fake cycles in topo_order).
            for &e in &dropped_exprs {
                if self.alive[e.0 as usize] && self.children(e).contains(&keep) {
                    let mut key_children = std::mem::take(&mut self.rehash_key);
                    key_children.clear();
                    key_children.extend_from_slice(self.children(e));
                    let key = (self.expr_op[e.0 as usize], key_children);
                    self.index.remove(&key);
                    let (_, key_children) = key;
                    self.alive[e.0 as usize] = false;
                    self.version += 1;
                    self.rehash_key = key_children;
                }
            }
            self.groups[keep.0 as usize].exprs.extend(dropped_exprs);
            let dropped_parents = std::mem::take(&mut self.groups[drop.0 as usize].parents);

            // Re-hash every parent whose child list mentioned `drop`.
            for e in dropped_parents {
                if !self.alive[e.0 as usize] {
                    continue;
                }
                let op_id = self.expr_op[e.0 as usize];
                let is_join = matches!(self.ops[op_id.0 as usize], LogicalOp::Join(_));
                // Old key (children as stored), removed before the rewrite.
                // Built in the memo-owned scratch buffer: a rehash only
                // allocates when its key is actually handed to the index.
                let mut key_children = std::mem::take(&mut self.rehash_key);
                key_children.clear();
                key_children.extend_from_slice(self.children(e));
                let key = (op_id, key_children);
                self.index.remove(&key);
                let (_, mut key_children) = key;
                for c in key_children.iter_mut() {
                    *c = self.find(*c);
                }
                if is_join {
                    self.canonicalize_join_children(&mut key_children);
                }
                let start = self.child_off[e.0 as usize] as usize;
                self.child_arena[start..start + key_children.len()].copy_from_slice(&key_children);
                // A merge can turn an expression into a self-reference
                // (its child group became its own group); such expressions
                // are useless for planning — tombstone them.
                if key_children.contains(&self.group_of(e)) {
                    self.alive[e.0 as usize] = false;
                    self.version += 1;
                    self.rehash_key = key_children;
                    continue;
                }
                self.groups[keep.0 as usize].parents.push(e);
                let probe = (op_id, key_children);
                match self.index.get(&probe).copied() {
                    None => {
                        self.index.insert(probe, e);
                        self.version += 1;
                        if self.log.active {
                            self.log.rewritten.push(e);
                        }
                    }
                    Some(canonical) => {
                        self.rehash_key = probe.1;
                        if canonical == e {
                            continue;
                        }
                        // Duplicate of an existing expression: tombstone it
                        // and merge the owning groups.
                        self.alive[e.0 as usize] = false;
                        self.version += 1;
                        let g1 = self.group_of(e);
                        let g2 = self.group_of(canonical);
                        if g1 != g2 {
                            pending.push((g1, g2));
                        }
                    }
                }
            }
        }
    }

    /// Inserts a whole plan tree, returning its root group.
    pub fn insert_plan(&mut self, plan: &PlanNode) -> GroupId {
        match plan {
            PlanNode::Scan { inst } => self.insert(LogicalOp::Scan(*inst), vec![], None),
            PlanNode::Select { pred, input } => {
                let c = self.insert_plan(input);
                self.insert(LogicalOp::Select(pred.clone()), vec![c], None)
            }
            PlanNode::Join { pred, left, right } => {
                let l = self.insert_plan(left);
                let r = self.insert_plan(right);
                self.insert(LogicalOp::Join(pred.clone()), vec![l, r], None)
            }
            PlanNode::Aggregate { spec, input } => {
                let c = self.insert_plan(input);
                self.insert(LogicalOp::Aggregate(spec.clone()), vec![c], None)
            }
        }
    }

    /// Registers a query root (a group produced by [`Memo::insert_plan`]).
    pub fn add_query_root(&mut self, g: GroupId) {
        self.roots.push(self.find(g));
    }

    /// Builds (or rebuilds) the dummy batch root over all registered query
    /// roots and returns its group. On a rebuild — the root set changed
    /// since the last call — the stale `Root` expression is tombstoned and
    /// a fresh one is interned *into the same group*, so the root group id
    /// stays stable across batch evolution.
    pub fn build_batch_root(&mut self) -> GroupId {
        let roots = self.roots();
        assert!(!roots.is_empty(), "no query roots registered");
        let Some(rg) = self.batch_root else {
            let g = self.insert(LogicalOp::Root, roots, None);
            self.batch_root = Some(g);
            return g;
        };
        let rg = self.find(rg);
        let live: Vec<ExprId> = self.group_exprs(rg).collect();
        if live.len() == 1
            && matches!(self.op(live[0]), LogicalOp::Root)
            && self.children(live[0]) == roots.as_slice()
        {
            return rg;
        }
        for e in live {
            self.tombstone_expr(e);
        }
        let g = self.insert(LogicalOp::Root, roots, Some(rg));
        debug_assert_eq!(g, self.find(rg));
        g
    }

    /// Tombstones a live expression, removing its hash-consing entry.
    fn tombstone_expr(&mut self, e: ExprId) {
        debug_assert!(self.alive[e.0 as usize]);
        let key = (self.expr_op[e.0 as usize], self.children(e).to_vec());
        self.index.remove(&key);
        self.alive[e.0 as usize] = false;
        self.version += 1;
    }

    /// Children groups of a group: union over its live expressions,
    /// deduplicated.
    pub fn group_children(&self, g: GroupId) -> Vec<GroupId> {
        let mut out = Vec::new();
        self.group_children_into(g, &mut out);
        out
    }

    /// [`Memo::group_children`] into a caller-held buffer (cleared first).
    fn group_children_into(&self, g: GroupId, out: &mut Vec<GroupId>) {
        out.clear();
        out.extend(
            self.group_exprs(g)
                .flat_map(|e| self.children(e).iter().map(|&c| self.find(c))),
        );
        out.sort_unstable();
        out.dedup();
    }

    /// Groups in a topological order (children before parents). Only live
    /// representative groups are emitted.
    pub fn topo_order(&self) -> Vec<GroupId> {
        self.topo_parts().0
    }

    /// The topological order, plus the children of every representative
    /// group as one slot-indexed CSR (`kids[off[g]..off[g + 1]]`, as
    /// [`Memo::group_children`] lists them; merged-away slots are empty).
    /// The children are collected once, through one reused buffer, and the
    /// order is a depth-first post-order over them, visiting slots and
    /// each group's children in ascending order.
    fn topo_parts(&self) -> (Vec<GroupId>, Vec<u32>, Vec<GroupId>) {
        let n = self.groups.len();
        let (mut off, mut kids, mut buf) = (Vec::with_capacity(n + 1), Vec::new(), Vec::new());
        off.push(0u32);
        for slot in 0..n as u32 {
            if self.find(GroupId(slot)).0 == slot {
                self.group_children_into(GroupId(slot), &mut buf);
                kids.extend_from_slice(&buf);
            }
            off.push(kids.len() as u32);
        }
        let mut state = vec![0u8; n]; // 0 = unvisited, 1 = visiting, 2 = done
        let mut order = Vec::with_capacity(n);
        // (group, position of its next child in `kids`)
        let mut stack: Vec<(GroupId, u32)> = Vec::new();
        for start in 0..n as u32 {
            let start = self.find(GroupId(start));
            if state[start.0 as usize] != 0 {
                continue;
            }
            state[start.0 as usize] = 1;
            stack.push((start, off[start.0 as usize]));
            while let Some(top) = stack.last_mut() {
                let g = top.0;
                if top.1 < off[g.0 as usize + 1] {
                    let c = kids[top.1 as usize];
                    top.1 += 1;
                    match state[c.0 as usize] {
                        0 => {
                            state[c.0 as usize] = 1;
                            stack.push((c, off[c.0 as usize]));
                        }
                        1 => panic!("cycle in memo DAG"),
                        _ => {}
                    }
                } else {
                    state[g.0 as usize] = 2;
                    order.push(g);
                    stack.pop();
                }
            }
        }
        (order, off, kids)
    }

    /// Builds the dense topological view of the live representative groups:
    /// a contiguous index space (children before parents) with CSR
    /// child/parent adjacency. Consumers that sweep the DAG bottom-up (the
    /// `bestCost` engine) index flat arrays by dense position instead of
    /// hashing `GroupId`s on every lookup.
    pub fn topo_view(&self) -> TopoView {
        let (order, off, kids) = self.topo_parts();
        let n = order.len();
        let mut dense_of_slot = vec![u32::MAX; self.groups.len()];
        for (i, &g) in order.iter().enumerate() {
            dense_of_slot[g.0 as usize] = i as u32;
        }
        // Merged-away slots resolve through their representative, so any
        // GroupId — canonical or not — maps without a `find` at the caller.
        for slot in 0..self.groups.len() {
            if dense_of_slot[slot] == u32::MAX {
                let rep = self.find(GroupId(slot as u32));
                dense_of_slot[slot] = dense_of_slot[rep.0 as usize];
            }
        }

        // CSR children: union over live expressions, deduplicated,
        // self-edges excluded (an expression computing a group from itself
        // is tombstoned, but group-level dedup is re-checked here anyway).
        let mut children_off = Vec::with_capacity(n + 1);
        let mut children = Vec::with_capacity(kids.len());
        let mut parents_count = vec![0u32; n];
        children_off.push(0u32);
        for (gi, &g) in order.iter().enumerate() {
            // `kids` are distinct representatives, which map to distinct
            // dense indices: only the order changes.
            let (start, slot) = (children.len(), g.0 as usize);
            children.extend(
                kids[off[slot] as usize..off[slot + 1] as usize]
                    .iter()
                    .map(|c| dense_of_slot[c.0 as usize])
                    .filter(|&c| c as usize != gi),
            );
            children[start..].sort_unstable();
            for &c in &children[start..] {
                parents_count[c as usize] += 1;
            }
            children_off.push(children.len() as u32);
        }

        // CSR parents: exact transpose of the children adjacency.
        let mut parents_off = Vec::with_capacity(n + 1);
        parents_off.push(0u32);
        for gi in 0..n {
            parents_off.push(parents_off[gi] + parents_count[gi]);
        }
        let mut parents = vec![0u32; *parents_off.last().unwrap() as usize];
        let mut cursor: Vec<u32> = parents_off[..n].to_vec();
        for gi in 0..n {
            for &c in &children[children_off[gi] as usize..children_off[gi + 1] as usize] {
                parents[cursor[c as usize] as usize] = gi as u32;
                cursor[c as usize] += 1;
            }
        }

        TopoView {
            order,
            dense_of_slot,
            children_off,
            children,
            parents_off,
            parents,
        }
    }

    /// The set of live groups reachable from `start` (inclusive).
    pub fn reachable(&self, start: GroupId) -> Vec<GroupId> {
        let mut seen = vec![false; self.groups.len()];
        let mut stack = vec![self.find(start)];
        let mut out = Vec::new();
        while let Some(g) = stack.pop() {
            if seen[g.0 as usize] {
                continue;
            }
            seen[g.0 as usize] = true;
            out.push(g);
            for e in self.group_exprs(g) {
                for &c in self.children(e) {
                    let c = self.find(c);
                    if !seen[c.0 as usize] {
                        stack.push(c);
                    }
                }
            }
        }
        out
    }

    /// Exhaustive structural consistency check; panics with a description
    /// on the first violated invariant. Intended for tests (it is O(memo)
    /// with hashing per expression):
    ///
    /// 1. the hash-consing index is a bijection onto the live expressions
    ///    (in particular, no two live expressions share `(op, children)` —
    ///    merges must never leave a stale duplicate behind);
    /// 2. live expressions reference representative groups only, and never
    ///    their own group;
    /// 3. group membership and parent lists are mutually consistent.
    pub fn check_consistency(&self) {
        let mut live = 0usize;
        for e in self.expr_ids() {
            live += 1;
            let owner = self.group_of(e);
            let children = self.children(e);
            for &c in children {
                assert_eq!(
                    self.find(c),
                    c,
                    "live expr {e:?} references non-representative child {c:?}"
                );
                assert_ne!(c, owner, "live expr {e:?} is a self-reference");
                assert!(
                    self.groups[c.0 as usize].parents.contains(&e),
                    "child {c:?} of live expr {e:?} does not list it as parent"
                );
            }
            let key = (self.expr_op[e.0 as usize], children.to_vec());
            match self.index.get(&key) {
                Some(&canonical) => assert_eq!(
                    canonical, e,
                    "live exprs {canonical:?} and {e:?} share (op, children): stale duplicate"
                ),
                None => panic!("live expr {e:?} missing from the hash-consing index"),
            }
            assert!(
                self.groups[owner.0 as usize].exprs.contains(&e),
                "group {owner:?} does not list its live expr {e:?}"
            );
        }
        assert_eq!(
            self.index.len(),
            live,
            "index size diverges from live expression count (dangling index entries)"
        );
        // mqo-lint: allow(hashmap-iter-determinism) -- assertion-only sweep: order-independent (all-or-nothing panics), nothing published
        for (&_, &e) in &self.index {
            assert!(
                self.alive[e.0 as usize],
                "index references tombstoned expr {e:?}"
            );
        }
        for (slot, g) in self.groups.iter().enumerate() {
            if self.uf[slot] != slot as u32 {
                assert!(
                    g.exprs.is_empty() && g.parents.is_empty(),
                    "merged-away group slot {slot} still owns exprs/parents"
                );
                continue;
            }
            for &e in &g.exprs {
                if self.alive[e.0 as usize] {
                    assert_eq!(
                        self.group_of(e),
                        GroupId(slot as u32),
                        "group slot {slot} lists expr {e:?} owned elsewhere"
                    );
                }
            }
        }
    }
}

/// A dense topological view of a [`Memo`]'s live representative groups.
///
/// Dense index `i` is the topological position of `order()[i]` (children
/// before parents). Child and parent adjacency are stored in CSR form over
/// dense indices: the neighbors of group `i` are a contiguous slice of a
/// flat arena, so bottom-up DP sweeps touch no hash maps and no per-group
/// heap allocations. The view is a snapshot — rebuilding it after further
/// memo mutations is the caller's responsibility.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopoView {
    order: Vec<GroupId>,
    /// Raw group slot → dense position; merged-away slots point at their
    /// representative's position.
    dense_of_slot: Vec<u32>,
    children_off: Vec<u32>,
    children: Vec<u32>,
    parents_off: Vec<u32>,
    parents: Vec<u32>,
}

impl TopoView {
    /// Number of live representative groups.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Groups in topological order (children before parents).
    pub fn order(&self) -> &[GroupId] {
        &self.order
    }

    /// The group at a dense position.
    #[inline]
    pub fn group_at(&self, dense: usize) -> GroupId {
        self.order[dense]
    }

    /// Dense position of a group; accepts non-canonical ids (merged slots
    /// resolve through their representative).
    #[inline]
    pub fn dense(&self, g: GroupId) -> u32 {
        self.dense_of_slot[g.0 as usize]
    }

    /// Child groups (dense indices) of the group at a dense position,
    /// deduplicated, ascending, self-edges excluded.
    #[inline]
    pub fn children(&self, dense: usize) -> &[u32] {
        &self.children[self.children_off[dense] as usize..self.children_off[dense + 1] as usize]
    }

    /// Parent groups (dense indices) of the group at a dense position,
    /// deduplicated, ascending, self-edges excluded.
    #[inline]
    pub fn parents(&self, dense: usize) -> &[u32] {
        &self.parents[self.parents_off[dense] as usize..self.parents_off[dense + 1] as usize]
    }
}

fn relative_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Constraint, Predicate};
    use mqo_catalog::{Catalog, TableBuilder};

    fn test_ctx() -> DagContext {
        let mut cat = Catalog::new();
        for (name, rows) in [("a", 1000.0), ("b", 2000.0), ("c", 500.0), ("d", 100.0)] {
            cat.add_table(
                TableBuilder::new(name, rows)
                    .key_column(format!("{name}_key"), 4)
                    .column(format!("{name}_x"), 10.0, (0, 9), 4)
                    .primary_key(&[&format!("{name}_key")])
                    .build(),
            );
        }
        DagContext::new(cat)
    }

    #[test]
    fn hash_consing_shares_identical_subplans() {
        let mut ctx = test_ctx();
        let a = ctx.instance_by_name("a", 0);
        let mut memo = Memo::new(ctx);
        let g1 = memo.insert_plan(&PlanNode::scan(a));
        let g2 = memo.insert_plan(&PlanNode::scan(a));
        assert_eq!(g1, g2);
        assert_eq!(memo.n_groups(), 1);
        assert_eq!(memo.n_exprs(), 1);
        memo.check_consistency();
    }

    #[test]
    fn cross_query_subexpression_unifies() {
        // Query 1: (a ⋈ b); query 2: (a ⋈ b) ⋈ c. The shared join lands on
        // one group.
        let mut ctx = test_ctx();
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let c = ctx.instance_by_name("c", 0);
        let ja = ctx.col(a, "a_key");
        let jb = ctx.col(b, "b_x");
        let jc = ctx.col(c, "c_key");
        let jb2 = ctx.col(b, "b_key");
        let mut memo = Memo::new(ctx);

        let q1 = PlanNode::scan(a).join(PlanNode::scan(b), Predicate::join(ja, jb));
        let q2 = PlanNode::scan(a)
            .join(PlanNode::scan(b), Predicate::join(ja, jb))
            .join(PlanNode::scan(c), Predicate::join(jb2, jc));
        let g1 = memo.insert_plan(&q1);
        let g2 = memo.insert_plan(&q2);
        assert_ne!(g1, g2);
        // groups: a, b, c, a⋈b, (a⋈b)⋈c = 5
        assert_eq!(memo.n_groups(), 5);
        // The a⋈b group has a parent (the top join).
        assert_eq!(memo.group_parents(g1).len(), 1);
    }

    #[test]
    fn join_children_canonicalized() {
        let mut ctx = test_ctx();
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let ja = ctx.col(a, "a_key");
        let jb = ctx.col(b, "b_x");
        let mut memo = Memo::new(ctx);
        let p = Predicate::join(ja, jb);
        let g1 = memo.insert_plan(&PlanNode::scan(a).join(PlanNode::scan(b), p.clone()));
        let g2 = memo.insert_plan(&PlanNode::scan(b).join(PlanNode::scan(a), p));
        assert_eq!(g1, g2, "commutative variants must share a group");
    }

    #[test]
    fn interning_is_idempotent_and_probe_matches() {
        let mut ctx = test_ctx();
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let ja = ctx.col(a, "a_key");
        let jb = ctx.col(b, "b_x");
        let mut memo = Memo::new(ctx);
        let ga = memo.insert(LogicalOp::Scan(a), vec![], None);
        let gb = memo.insert(LogicalOp::Scan(b), vec![], None);
        let op = LogicalOp::Join(Predicate::join(ja, jb));
        let before_exprs = memo.exprs_allocated();
        let before_ops = memo.n_interned_ops();
        let g = memo.insert(op.clone(), vec![ga, gb], None);
        let e1 = memo.expr_id_of(&op, &[ga, gb]).expect("interned");
        // Same logical expression again: same ExprId, no growth anywhere.
        let g2 = memo.insert(op.clone(), vec![gb, ga], None);
        assert_eq!(g, g2);
        assert_eq!(memo.expr_id_of(&op, &[gb, ga]), Some(e1));
        assert_eq!(memo.exprs_allocated(), before_exprs + 1);
        assert_eq!(memo.n_interned_ops(), before_ops + 1);
        memo.check_consistency();
    }

    #[test]
    fn merge_unifies_groups_and_cascades() {
        let mut ctx = test_ctx();
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let c = ctx.instance_by_name("c", 0);
        let ja = ctx.col(a, "a_key");
        let jb = ctx.col(b, "b_x");
        let jc = ctx.col(c, "c_key");
        let jb2 = ctx.col(b, "b_key");
        let mut memo = Memo::new(ctx);

        // Two structurally different expressions of a⋈b: the base join and a
        // select-less "variant" group we then declare equal via target.
        let ab1 =
            memo.insert_plan(&PlanNode::scan(a).join(PlanNode::scan(b), Predicate::join(ja, jb)));
        // A parent on top of ab1.
        let top1 = memo.insert_plan(
            &PlanNode::scan(a)
                .join(PlanNode::scan(b), Predicate::join(ja, jb))
                .join(PlanNode::scan(c), Predicate::join(jb2, jc)),
        );

        // An artificial second group equivalent to ab1: select with a
        // predicate over ab1's child... simpler: create a distinct group by
        // selecting on a trivial range, then merge explicitly.
        let sel = Predicate::on(jb2, Constraint::range(Some(0), Some(1_999)));
        let ab2 = {
            let scan_a = memo.insert(LogicalOp::Scan(a), vec![], None);
            let scan_b = memo.insert(LogicalOp::Scan(b), vec![], None);
            let j = memo.insert(
                LogicalOp::Join(Predicate::join(ja, jb)),
                vec![scan_a, scan_b],
                None,
            );
            memo.insert(LogicalOp::Select(sel), vec![j], None)
        };
        // Same-parent expr over ab2.
        let gc = memo.insert(LogicalOp::Scan(c), vec![], None);
        let top2 = memo.insert(
            LogicalOp::Join(Predicate::join(jb2, jc)),
            vec![ab2, gc],
            None,
        );
        assert_ne!(memo.find(top1), memo.find(top2));

        // Declare ab1 == ab2 (as a subsumption-style rule would).
        memo.merge(ab1, ab2);
        assert_eq!(memo.find(ab1), memo.find(ab2));
        // Cascade: the two tops had identical (op, children) after the merge
        // and must have been unified.
        assert_eq!(memo.find(top1), memo.find(top2));
        memo.check_consistency();
    }

    #[test]
    fn merge_cascade_leaves_no_stale_duplicates() {
        // Force a multi-level cascade: two parallel derivation chains over
        // groups that are then declared equal at the bottom. Every level of
        // parents collapses pairwise; afterwards the memo must contain no
        // stale duplicate (two live expressions with identical operator and
        // children) and the hash-consing index must stay a bijection.
        let mut ctx = test_ctx();
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let c = ctx.instance_by_name("c", 0);
        let d = ctx.instance_by_name("d", 0);
        let ja = ctx.col(a, "a_key");
        let jb = ctx.col(b, "b_x");
        let jbk = ctx.col(b, "b_key");
        let jc = ctx.col(c, "c_key");
        let jd = ctx.col(d, "d_key");
        let mut memo = Memo::new(ctx);

        // Chain 1: ab1 = a⋈b, l1 = ab1⋈c, t1 = l1⋈d.
        let ab1 =
            memo.insert_plan(&PlanNode::scan(a).join(PlanNode::scan(b), Predicate::join(ja, jb)));
        let gc = memo.insert(LogicalOp::Scan(c), vec![], None);
        let gd = memo.insert(LogicalOp::Scan(d), vec![], None);
        let l1 = memo.insert(
            LogicalOp::Join(Predicate::join(jbk, jc)),
            vec![ab1, gc],
            None,
        );
        let t1 = memo.insert(
            LogicalOp::Join(Predicate::join(jbk, jd)),
            vec![l1, gd],
            None,
        );
        // Chain 2: the same shape over an artificially distinct bottom
        // (full-range select over a⋈b, as a subsumption rule would build).
        let sel = Predicate::on(jbk, Constraint::range(Some(0), Some(1_999)));
        let ab2 = memo.insert(LogicalOp::Select(sel), vec![ab1], None);
        let l2 = memo.insert(
            LogicalOp::Join(Predicate::join(jbk, jc)),
            vec![ab2, gc],
            None,
        );
        let t2 = memo.insert(
            LogicalOp::Join(Predicate::join(jbk, jd)),
            vec![l2, gd],
            None,
        );
        assert_ne!(memo.find(l1), memo.find(l2));
        assert_ne!(memo.find(t1), memo.find(t2));

        let exprs_before = memo.n_exprs();
        memo.merge(ab1, ab2);
        // The cascade must have collapsed both levels of parents...
        assert_eq!(memo.find(l1), memo.find(l2));
        assert_eq!(memo.find(t1), memo.find(t2));
        // ...tombstoning one duplicate per collapsed level (the σ expr
        // becomes a self-reference and dies too).
        assert!(memo.n_exprs() < exprs_before);
        // No stale duplicates / dangling index entries anywhere.
        memo.check_consistency();
        // Re-inserting the collapsed expressions is a no-op.
        let before = memo.exprs_allocated();
        let g = memo.insert(
            LogicalOp::Join(Predicate::join(jbk, jc)),
            vec![memo.find(ab1), gc],
            None,
        );
        assert_eq!(g, memo.find(l1));
        assert_eq!(memo.exprs_allocated(), before);
    }

    #[test]
    fn topo_order_children_first() {
        let mut ctx = test_ctx();
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let ja = ctx.col(a, "a_key");
        let jb = ctx.col(b, "b_x");
        let mut memo = Memo::new(ctx);
        let top =
            memo.insert_plan(&PlanNode::scan(a).join(PlanNode::scan(b), Predicate::join(ja, jb)));
        let order = memo.topo_order();
        let pos = |g: GroupId| order.iter().position(|&x| x == g).unwrap();
        for e in memo.group_exprs(top) {
            for &c in memo.children(e) {
                assert!(pos(memo.find(c)) < pos(top));
            }
        }
    }

    #[test]
    fn topo_view_matches_topo_order_and_adjacency() {
        let mut ctx = test_ctx();
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let c = ctx.instance_by_name("c", 0);
        let ja = ctx.col(a, "a_key");
        let jb = ctx.col(b, "b_x");
        let jc = ctx.col(c, "c_key");
        let jb2 = ctx.col(b, "b_key");
        let mut memo = Memo::new(ctx);
        let ab =
            memo.insert_plan(&PlanNode::scan(a).join(PlanNode::scan(b), Predicate::join(ja, jb)));
        let top = memo.insert_plan(
            &PlanNode::scan(a)
                .join(PlanNode::scan(b), Predicate::join(ja, jb))
                .join(PlanNode::scan(c), Predicate::join(jb2, jc)),
        );

        let view = memo.topo_view();
        assert_eq!(view.order(), memo.topo_order().as_slice());
        assert_eq!(view.len(), memo.n_groups());
        // dense() inverts order(), and children precede parents.
        for (i, &g) in view.order().iter().enumerate() {
            assert_eq!(view.dense(g) as usize, i);
            assert_eq!(view.group_at(i), g);
            for &ch in view.children(i) {
                assert!((ch as usize) < i, "child after parent");
            }
            for &p in view.parents(i) {
                assert!((p as usize) > i, "parent before child");
            }
        }
        // CSR children match group_children; parents are the transpose.
        for (i, &g) in view.order().iter().enumerate() {
            let expect: Vec<u32> = memo
                .group_children(g)
                .into_iter()
                .map(|cg| view.dense(cg))
                .collect();
            assert_eq!(view.children(i), expect.as_slice());
            for &ch in view.children(i) {
                assert!(view.parents(ch as usize).contains(&(i as u32)));
            }
        }
        // Spot-check: ab's parents contain top.
        let ab_d = view.dense(ab) as usize;
        assert!(view.parents(ab_d).contains(&view.dense(top)));
    }

    #[test]
    fn topo_view_resolves_merged_slots() {
        let mut ctx = test_ctx();
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let ja = ctx.col(a, "a_key");
        let jb = ctx.col(b, "b_x");
        let ja2 = ctx.col(a, "a_x");
        let mut memo = Memo::new(ctx);
        let j =
            memo.insert_plan(&PlanNode::scan(a).join(PlanNode::scan(b), Predicate::join(ja, jb)));
        // Two structurally different full-range selects over the same join:
        // distinct groups with identical cardinalities, as a subsumption
        // rule would discover before declaring them equal.
        let sel1 = Predicate::on(jb, Constraint::range(Some(0), Some(9)));
        let sel2 = Predicate::on(ja2, Constraint::range(Some(0), Some(9)));
        let g1 = memo.insert(LogicalOp::Select(sel1), vec![j], None);
        let g2 = memo.insert(LogicalOp::Select(sel2), vec![j], None);
        assert_ne!(memo.find(g1), memo.find(g2));
        memo.merge(g1, g2);
        let view = memo.topo_view();
        // Both pre-merge ids land on the representative's dense position.
        assert_eq!(view.dense(g1), view.dense(g2));
        assert_eq!(view.group_at(view.dense(g1) as usize), memo.find(g1));
    }

    #[test]
    fn batch_root_counts_queries() {
        let mut ctx = test_ctx();
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let mut memo = Memo::new(ctx);
        let q1 = memo.insert_plan(&PlanNode::scan(a));
        let q2 = memo.insert_plan(&PlanNode::scan(b));
        memo.add_query_root(q1);
        memo.add_query_root(q2);
        let root = memo.build_batch_root();
        let exprs: Vec<ExprId> = memo.group_exprs(root).collect();
        assert_eq!(exprs.len(), 1);
        assert_eq!(memo.expr(exprs[0]).children.len(), 2);
    }

    #[test]
    fn reachable_covers_subdag() {
        let mut ctx = test_ctx();
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let ja = ctx.col(a, "a_key");
        let jb = ctx.col(b, "b_x");
        let mut memo = Memo::new(ctx);
        let top =
            memo.insert_plan(&PlanNode::scan(a).join(PlanNode::scan(b), Predicate::join(ja, jb)));
        let r = memo.reachable(top);
        assert_eq!(r.len(), 3); // a, b, a⋈b
    }

    /// Two joined-and-selected queries over the test catalog whose
    /// expansion exercises merges, cascades, and tombstones.
    fn two_query_fixture(ctx: &mut DagContext) -> Vec<PlanNode> {
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let c = ctx.instance_by_name("c", 0);
        let ja = ctx.col(a, "a_key");
        let jb = ctx.col(b, "b_x");
        let jb2 = ctx.col(b, "b_key");
        let jc = ctx.col(c, "c_key");
        let ax = ctx.col(a, "a_x");
        let q1 = PlanNode::scan(a)
            .select(Predicate::on(ax, Constraint::eq(3)))
            .join(PlanNode::scan(b), Predicate::join(ja, jb));
        let q2 = PlanNode::scan(a)
            .join(PlanNode::scan(b), Predicate::join(ja, jb))
            .join(PlanNode::scan(c), Predicate::join(jb2, jc));
        vec![q1, q2]
    }

    #[test]
    fn reset_keeps_context_and_version_monotone() {
        let mut ctx = test_ctx();
        let queries = two_query_fixture(&mut ctx);
        let mut memo = Memo::new(ctx);
        let r = memo.insert_plan(&queries[0]);
        memo.add_query_root(r);
        memo.build_batch_root();
        let v = memo.version();
        memo.reset();
        assert!(memo.version() > v);
        assert_eq!(memo.exprs_allocated(), 0);
        assert_eq!(memo.n_groups(), 0);
        assert!(memo.roots().is_empty());
        // The context survives: the same plans re-intern cleanly.
        let r = memo.insert_plan(&queries[0]);
        memo.add_query_root(r);
        memo.build_batch_root();
        memo.check_consistency();
    }

    #[test]
    fn batch_root_rebuild_reuses_the_root_group() {
        let mut ctx = test_ctx();
        let queries = two_query_fixture(&mut ctx);
        let mut memo = Memo::new(ctx);
        let r1 = memo.insert_plan(&queries[0]);
        memo.add_query_root(r1);
        let root = memo.build_batch_root();
        assert_eq!(memo.build_batch_root(), root, "idempotent when unchanged");
        let exprs_before = memo.exprs_allocated();
        let r2 = memo.insert_plan(&queries[1]);
        memo.add_query_root(r2);
        let root2 = memo.build_batch_root();
        assert_eq!(root2, memo.find(root), "root group id is stable");
        let live: Vec<ExprId> = memo.group_exprs(root2).collect();
        assert_eq!(live.len(), 1, "stale root expr is tombstoned");
        assert_eq!(memo.children(live[0]), &memo.roots()[..]);
        assert!(memo.exprs_allocated() > exprs_before);
        memo.check_consistency();
    }
}
