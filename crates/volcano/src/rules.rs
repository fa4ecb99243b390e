//! Transformation rules and the frontier-driven fixpoint expansion engine.
//!
//! The rule set matches Section 6: "select push down, join commutativity
//! and associativity (to generate bushy join trees), and select and
//! aggregate subsumption". Commutativity is implicit (join children are
//! canonically ordered in the memo; physical joins consider both
//! orientations). Rules insert *logical* alternatives; where a rule knows
//! the result group, hash-consing either lands there or triggers a group
//! merge (unification).
//!
//! # The fixpoint
//!
//! Expansion proceeds in rounds over a *frontier* of expressions instead of
//! re-scanning the whole memo until quiescence. Each round:
//!
//! 1. **Generate** — every frontier expression is matched against the
//!    per-expression rules on a frozen `&Memo` snapshot, producing
//!    `Candidate` programs (small insert scripts) without mutating
//!    anything. This phase is embarrassingly parallel: the frontier goes
//!    through [`fan_out`], the workspace's one chunked fan-out, which cuts
//!    it into contiguous chunks and runs chunk 0 on the calling thread and
//!    the rest on `std::thread::scope` workers (with `threads = 1`, one
//!    chunk and no spawn).
//! 2. **Commit** — a single thread replays the candidates in frontier
//!    order through [`Memo::insert`], which hash-conses, merges, and logs
//!    every change. The commit order is a pure function of the frontier,
//!    so the resulting memo is **bit-identical at every thread count**
//!    (pinned by `tests/memo_differential.rs`).
//! 3. **Subsume** — the pairwise rules (select/aggregate subsumption) run
//!    serially over the selects/aggregates that are new or were rewritten
//!    this round, pairing each against its current siblings (the other
//!    selects/aggregates over the same child group) instead of re-scanning
//!    every pair in the memo.
//!
//! The next round's frontier is derived from the memo's change log: newly
//! interned expressions, expressions whose children were rewritten by a
//! merge, and the live parents of every group that gained expressions
//! (their rules may now match the new members). Expansion terminates when
//! a round changes nothing.
//!
//! # Semi-naive matching
//!
//! A frontier entry is matched against *every* member of its child groups
//! only in round 1, when it was interned in the previous round, or when a
//! merge rewrote its children. An entry re-entered only because a child
//! group grew is matched against that group's new members alone: those
//! the group gained in the previous round, i.e. newly interned expressions
//! and the members a merge moved in. The memo's change log records, per
//! grown group, where its member list stood before it first grew, and the
//! gained members are the list's tail past that mark.
//!
//! This is exact. Every skipped (entry, member) pair was generated and
//! committed in an earlier round, and re-committing it is a no-op: the
//! rule's output is already interned, and any merge it implied has already
//! happened. Merges only unify groups, so a distinctness guard that failed
//! once stays failed. Skipped candidates therefore never mutated the memo,
//! and the remaining ones commit in the same relative order, so the
//! expanded memo is identical to a full re-match's — only the generated
//! candidate count falls.

use crate::context::ColId;
use crate::expr::Predicate;
use crate::logical::{AggCall, AggSpec, LogicalOp};
use crate::memo::{ExprId, GroupId, Memo};

/// Which rules to apply during expansion.
#[derive(Clone, Copy, Debug)]
pub struct RuleSet {
    /// Join associativity (generates the bushy space, no cross products).
    pub join_associativity: bool,
    /// Push selection atoms below joins.
    pub select_pushdown: bool,
    /// Collapse nested selections.
    pub select_merge: bool,
    /// Create disjunctive-subsumer nodes for sibling selections over the
    /// same input and derive each from the subsumer.
    pub select_subsumption: bool,
    /// Derive coarser aggregates from finer ones with decomposable
    /// functions.
    pub aggregate_subsumption: bool,
}

impl Default for RuleSet {
    fn default() -> Self {
        RuleSet {
            join_associativity: true,
            select_pushdown: true,
            select_merge: true,
            select_subsumption: true,
            aggregate_subsumption: true,
        }
    }
}

impl RuleSet {
    /// Only the rules needed for plain join-order optimization.
    pub fn joins_only() -> Self {
        RuleSet {
            join_associativity: true,
            select_pushdown: true,
            select_merge: true,
            select_subsumption: false,
            aggregate_subsumption: false,
        }
    }
}

/// Statistics of one expansion run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExpansionStats {
    /// Fixpoint rounds (frontier generations) until quiescence.
    pub passes: usize,
    /// Live expressions after expansion.
    pub exprs: usize,
    /// Live groups after expansion.
    pub groups: usize,
    /// Candidates generated across all rounds (commit replays each once).
    pub candidates: usize,
}

/// Hard cap on memo size; expansion aborts (panics) beyond this, which
/// indicates a runaway rule rather than a legitimate workload.
const MAX_EXPRS: usize = 500_000;

/// The `MQO_THREADS` environment convention shared by the whole
/// workspace: unset or unparsable means `1` (serial); `0` means
/// auto-detect. The parsing lives here so expansion and the `mqo-core`
/// oracle cannot drift apart, but the variable is *read* in exactly one
/// place — `mqo_core`'s `MqoConfig::default()`.
pub fn expand_threads_from_env() -> usize {
    std::env::var("MQO_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(1)
}

/// Resolves a thread request to a concrete worker count for `n_items`
/// work units (`0` = auto-detect, capped by the item count). Shared by the
/// expansion fixpoint and `mqo-core`'s sharded oracle, so the
/// `MQO_THREADS` conventions cannot drift apart.
pub fn effective_threads(threads: usize, n_items: usize) -> usize {
    let t = match threads {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        t => t,
    };
    t.clamp(1, n_items.max(1))
}

/// The workspace's one fan-out: runs `f(state, item, slot)` for every item
/// and its output slot, with one worker per entry of `states` (size it with
/// [`effective_threads`]). The items are cut into contiguous chunks of
/// `⌈items / states⌉`; chunk `i` runs with `states[i]`, chunk 0 on the
/// calling thread and the others on `std::thread::scope` workers, so a
/// single chunk spawns nothing. Each slot is written by its own item, so
/// the output is in input order whatever the worker count. Shared by the
/// expansion fixpoint's candidate generation and `mqo-core`'s batched
/// oracle.
///
/// # Panics
/// If `items` and `out` differ in length, or `states` is empty while
/// `items` is not.
pub fn fan_out<T: Sync, O: Send, S: Send>(
    items: &[T],
    out: &mut [O],
    states: &mut [S],
    f: impl Fn(&mut S, &T, &mut O) + Sync,
) {
    assert_eq!(items.len(), out.len(), "one output slot per item");
    assert!(!states.is_empty() || items.is_empty(), "no worker state");
    let chunk = items.len().div_ceil(states.len().max(1)).max(1);
    let run = |((items, out), state): ((&[T], &mut [O]), &mut S)| {
        for (item, slot) in items.iter().zip(out) {
            f(state, item, slot);
        }
    };
    let mut chunks = items.chunks(chunk).zip(out.chunks_mut(chunk)).zip(states);
    let Some(first) = chunks.next() else { return };
    if chunk == items.len() {
        run(first);
    } else {
        std::thread::scope(|scope| {
            for c in chunks {
                scope.spawn(|| run(c));
            }
            run(first);
        });
    }
}

/// Expands the memo to fixpoint under `rules` with serial candidate
/// generation. The resulting memo is bit-identical to any parallel
/// [`expand_with`] run; callers wanting the fan-out (e.g. `mqo-core`'s
/// `Session`) pass an explicit thread count instead of an environment
/// read.
pub fn expand(memo: &mut Memo, rules: &RuleSet) -> ExpansionStats {
    expand_with(memo, rules, 1)
}

/// Expands the memo to fixpoint under `rules` with an explicit worker
/// count for the candidate-generation phase. The resulting memo is
/// bit-identical at every `threads` value; only the wall-clock changes.
pub fn expand_with(memo: &mut Memo, rules: &RuleSet, threads: usize) -> ExpansionStats {
    // Round 1 processes every live expression; later rounds only what the
    // change log implicates.
    let frontier: Vec<Entry> = memo.expr_ids().map(|e| (e, Match::Full)).collect();
    expand_frontier(memo, rules, threads, frontier)
}

/// Expands the memo to fixpoint under `rules`, seeding the first round
/// with `seeds` instead of every live expression. This is the incremental
/// entry point for batch evolution: after `insert_plan` of a new query
/// into an already-expanded memo, only the freshly interned expressions
/// need processing — expansion is idempotent over the old ones, and any
/// merge a seed triggers pulls the implicated old expressions into later
/// rounds through the change log (while pairwise subsumption pairs new
/// selects/aggregates against *all* their live siblings).
///
/// Dead or out-of-range seeds are ignored.
pub fn expand_seeded(
    memo: &mut Memo,
    rules: &RuleSet,
    threads: usize,
    seeds: impl IntoIterator<Item = ExprId>,
) -> ExpansionStats {
    let n = memo.exprs_allocated() as u32;
    let mut frontier: Vec<Entry> = seeds
        .into_iter()
        .filter(|e| e.0 < n && memo.is_alive(*e))
        .map(|e| (e, Match::Full))
        .collect();
    frontier.sort_unstable();
    frontier.dedup();
    expand_frontier(memo, rules, threads, frontier)
}

/// How a frontier entry is matched against its child groups' members.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Match {
    /// Against every live member (round 1, new, or rewritten entries).
    Full,
    /// Against the members a child group gained in the previous round.
    Gained,
}

/// A frontier entry: an expression and how to match it.
type Entry = (ExprId, Match);

/// The child-group members one frontier entry is matched against.
#[derive(Clone, Copy)]
struct Scope<'a> {
    mode: Match,
    /// The groups that grew in the previous round, sorted by id, each with
    /// the member-list position from which its gained members start.
    grown: &'a [(GroupId, u32)],
}

impl Scope<'_> {
    /// Every live member of `g` in [`Match::Full`] mode; otherwise the
    /// members `g` gained in the previous round (none if it did not grow).
    fn members<'m>(&self, memo: &'m Memo, g: GroupId) -> impl Iterator<Item = ExprId> + 'm {
        let g = memo.find(g);
        let from = match self.mode {
            Match::Full => 0,
            Match::Gained => match self.grown.binary_search_by_key(&g, |&(h, _)| h) {
                Ok(i) => self.grown[i].1 as usize,
                Err(_) => usize::MAX,
            },
        };
        memo.group_exprs_from(g, from)
    }
}

/// The shared fixpoint loop behind [`expand_with`] and [`expand_seeded`];
/// `frontier` is the (sorted, deduplicated, live) round-1 work list.
fn expand_frontier(
    memo: &mut Memo,
    rules: &RuleSet,
    threads: usize,
    mut frontier: Vec<Entry>,
) -> ExpansionStats {
    let mut stats = ExpansionStats::default();
    // Per-frontier-entry candidate buffers, reused across rounds.
    let mut candidates: Vec<Vec<Candidate>> = Vec::new();
    let mut grown: Vec<(GroupId, u32)> = Vec::new();

    while !frontier.is_empty() {
        stats.passes += 1;
        let watermark = memo.exprs_allocated();

        // Phase 1: generate (read-only, parallel).
        generate_all(memo, rules, &frontier, &grown, threads, &mut candidates);
        stats.candidates += candidates.iter().map(Vec::len).sum::<usize>();

        // Phase 2: commit (serial, deterministic order).
        memo.log_start();
        for slot in candidates.iter_mut() {
            for cand in slot.drain(..) {
                commit(memo, cand);
            }
            assert!(
                memo.exprs_allocated() <= MAX_EXPRS,
                "memo exploded past {MAX_EXPRS} expressions; runaway rule?"
            );
        }

        // Phase 3: pairwise subsumption over this round's new/rewritten
        // selects and aggregates (plus, in round 1, the initial ones).
        if rules.select_subsumption || rules.aggregate_subsumption {
            let pair_frontier = pair_frontier(memo, &frontier, watermark);
            for &e in &pair_frontier {
                if !memo.is_alive(e) {
                    continue;
                }
                match memo.op(e) {
                    LogicalOp::Select(_) if rules.select_subsumption => {
                        subsume_selects_of(memo, e, &pair_frontier);
                    }
                    LogicalOp::Aggregate(_) if rules.aggregate_subsumption => {
                        subsume_aggregates_of(memo, e, &pair_frontier);
                    }
                    _ => {}
                }
            }
            assert!(
                memo.exprs_allocated() <= MAX_EXPRS,
                "memo exploded past {MAX_EXPRS} expressions; runaway rule?"
            );
        }

        // Next frontier from the change log: new and rewritten expressions
        // (matched in full), and live parents of every group that gained
        // members (matched against the gained members only). A group that
        // was merged away hands its gains to its representative, which
        // the log records as grown too.
        grown.clear();
        grown.extend(memo.log_grown().iter().filter(|&&(g, _)| memo.find(g) == g));
        // Per group, the smallest recorded length marks its first gain.
        grown.sort_unstable();
        grown.dedup_by_key(|&mut (g, _)| g);
        frontier.clear();
        frontier.extend(
            (watermark as u32..memo.exprs_allocated() as u32).map(|e| (ExprId(e), Match::Full)),
        );
        frontier.extend(memo.log_rewritten().iter().map(|&e| (e, Match::Full)));
        for &(g, _) in &grown {
            frontier.extend(
                memo.group_parents(g)
                    .into_iter()
                    .map(|e| (e, Match::Gained)),
            );
        }
        memo.log_stop();
        // `Full` sorts first, so an entry implicated both ways keeps it.
        frontier.sort_unstable();
        frontier.dedup_by_key(|&mut (e, _)| e);
        frontier.retain(|&(e, _)| memo.is_alive(e));
    }

    stats.exprs = memo.n_exprs();
    stats.groups = memo.n_groups();
    stats
}

/// The subsumption frontier of a round: the per-expression frontier plus
/// everything interned or rewritten during this round's commit, sorted and
/// deduplicated.
fn pair_frontier(memo: &Memo, frontier: &[Entry], watermark: usize) -> Vec<ExprId> {
    let mut out: Vec<ExprId> = frontier.iter().map(|&(e, _)| e).collect();
    out.extend((watermark as u32..memo.exprs_allocated() as u32).map(ExprId));
    out.extend_from_slice(memo.log_rewritten());
    out.sort_unstable();
    out.dedup();
    out
}

// ---------------------------------------------------------------------------
// Candidates: rule applications generated against a frozen snapshot and
// replayed by the serial commit phase.
// ---------------------------------------------------------------------------

/// A child of a candidate step: an existing group, or the group produced by
/// an earlier step of the same candidate.
#[derive(Clone, Copy, Debug)]
enum ChildRef {
    Group(GroupId),
    Step(u8),
}

/// One [`Memo::insert`] call of a candidate program.
#[derive(Debug)]
struct Step {
    op: LogicalOp,
    children: Vec<ChildRef>,
    target: Option<GroupId>,
}

/// A rule application: a guard (pairs that must still be distinct groups at
/// commit time — merges committed earlier in the round can invalidate a
/// pivot) followed by insert steps.
#[derive(Debug)]
struct Candidate {
    guards: Vec<(GroupId, GroupId)>,
    steps: Vec<Step>,
}

/// Replays a candidate against the live memo.
fn commit(memo: &mut Memo, cand: Candidate) {
    for &(a, b) in &cand.guards {
        if memo.find(a) == memo.find(b) {
            return;
        }
    }
    let mut results: Vec<GroupId> = Vec::with_capacity(cand.steps.len());
    for step in cand.steps {
        let children: Vec<GroupId> = step
            .children
            .iter()
            .map(|r| match *r {
                ChildRef::Group(g) => g,
                ChildRef::Step(i) => results[i as usize],
            })
            .collect();
        let g = memo.insert(step.op, children, step.target);
        results.push(g);
    }
}

/// Generates candidates for every frontier expression through [`fan_out`]:
/// output slots are indexed by frontier position, so the result — and
/// therefore the commit order — is independent of the worker count.
fn generate_all(
    memo: &Memo,
    rules: &RuleSet,
    frontier: &[Entry],
    grown: &[(GroupId, u32)],
    threads: usize,
    out: &mut Vec<Vec<Candidate>>,
) {
    if out.len() < frontier.len() {
        out.resize_with(frontier.len(), Vec::new);
    }
    let mut workers = vec![(); effective_threads(threads, frontier.len())];
    fan_out(
        frontier,
        &mut out[..frontier.len()],
        &mut workers,
        |_, &entry, slot| generate(memo, rules, entry, grown, slot),
    );
}

/// Matches one frontier entry against the per-expression rules.
fn generate(
    memo: &Memo,
    rules: &RuleSet,
    (e, mode): Entry,
    grown: &[(GroupId, u32)],
    out: &mut Vec<Candidate>,
) {
    if !memo.is_alive(e) {
        return;
    }
    let scope = Scope { mode, grown };
    match memo.op(e) {
        LogicalOp::Join(_) if rules.join_associativity => {
            gen_associativity(memo, e, scope, out);
        }
        LogicalOp::Select(_) => {
            if rules.select_pushdown {
                gen_select_pushdown(memo, e, scope, out);
            }
            if rules.select_merge {
                gen_select_merge(memo, e, scope, out);
            }
        }
        _ => {}
    }
}

/// Join associativity: for `(A ⋈ B) ⋈ C` in a group, derive `A ⋈ (B ⋈ C)`
/// into the same group (and the mirrored variant). Predicate atoms are
/// pooled and redistributed by column coverage; rewrites that would create a
/// predicate-less (cross-product) join are skipped.
fn gen_associativity(memo: &Memo, e: ExprId, scope: Scope, out: &mut Vec<Candidate>) {
    let LogicalOp::Join(top_pred) = memo.op(e) else {
        return;
    };
    let ch = memo.children(e);
    let (l, r) = (ch[0], ch[1]);
    let target = memo.group_of(e);

    // Direction 1: left child is itself a join (A ⋈ B), pivot to A ⋈ (B ⋈ C).
    for le in scope.members(memo, l) {
        if let LogicalOp::Join(low_pred) = memo.op(le) {
            let lc = memo.children(le);
            let (a, b) = (lc[0], lc[1]);
            gen_pivot(memo, target, top_pred, low_pred, a, b, r, out);
            // Commutativity of the lower join: also pivot keeping B.
            gen_pivot(memo, target, top_pred, low_pred, b, a, r, out);
        }
    }

    // Direction 2 (mirror): right child is a join (B ⋈ C), pivot to
    // (A ⋈ B) ⋈ C.
    for re in scope.members(memo, r) {
        if let LogicalOp::Join(low_pred) = memo.op(re) {
            let rc = memo.children(re);
            let (b, c) = (rc[0], rc[1]);
            // A ⋈ (B ⋈ C)  →  (A ⋈ B) ⋈ C, i.e. pivot with "kept" side c.
            gen_pivot(memo, target, top_pred, low_pred, c, b, l, out);
            gen_pivot(memo, target, top_pred, low_pred, b, c, l, out);
        }
    }
}

/// Emits `kept ⋈ (other ⋈ outer)` inside `target`, redistributing the atoms
/// of `top ∧ low` between the new lower join and the new top join.
#[allow(clippy::too_many_arguments)]
fn gen_pivot(
    memo: &Memo,
    target: GroupId,
    top_pred: &Predicate,
    low_pred: &Predicate,
    kept: GroupId,
    other: GroupId,
    outer: GroupId,
    out: &mut Vec<Candidate>,
) {
    if memo.find(other) == memo.find(outer) || memo.find(kept) == memo.find(outer) {
        // Degenerate pivot (shared view on both sides); skip.
        return;
    }
    let pool = top_pred.and(low_pred);
    let mut lower = Predicate::none();
    let mut upper = Predicate::none();
    let covered_by_lower =
        |memo: &Memo, col: ColId| memo.group_covers(other, col) || memo.group_covers(outer, col);
    for (col, c) in &pool.constraints {
        if covered_by_lower(memo, *col) {
            lower.add_constraint(*col, c.clone());
        } else {
            upper.add_constraint(*col, c.clone());
        }
    }
    for &(x, y) in &pool.equi {
        if covered_by_lower(memo, x) && covered_by_lower(memo, y) {
            lower.add_equi(x, y);
        } else {
            upper.add_equi(x, y);
        }
    }
    // No cross products: the new lower join must be connected by at least
    // one equi atom, and so must the new top.
    if lower.equi.is_empty() || upper.equi.is_empty() {
        return;
    }
    // The commit replays: insert the lower join, then the upper join into
    // `target` (Memo::insert refuses the upper step if the lower group has
    // become `target` itself — the old "would nest the target inside
    // itself" guard). The distinctness guards re-check the degeneracy
    // conditions at commit time, since merges earlier in the round may
    // have unified the snapshot's groups.
    out.push(Candidate {
        guards: vec![(other, outer), (kept, outer)],
        steps: vec![
            Step {
                op: LogicalOp::Join(lower),
                children: vec![ChildRef::Group(other), ChildRef::Group(outer)],
                target: None,
            },
            Step {
                op: LogicalOp::Join(upper),
                children: vec![ChildRef::Group(kept), ChildRef::Step(0)],
                target: Some(target),
            },
        ],
    });
}

/// Select push-down: `σ_p(A ⋈_j B)` derives `σ_pA(A) ⋈_{j ∧ p_rest} σ_pB(B)`
/// in the same group.
fn gen_select_pushdown(memo: &Memo, e: ExprId, scope: Scope, out: &mut Vec<Candidate>) {
    let LogicalOp::Select(pred) = memo.op(e) else {
        return;
    };
    let child = memo.children(e)[0];
    let target = memo.group_of(e);
    for je in scope.members(memo, child) {
        let LogicalOp::Join(jp) = memo.op(je) else {
            continue;
        };
        let jc = memo.children(je);
        let (l, r) = (jc[0], jc[1]);
        let mut pl = Predicate::none();
        let mut pr = Predicate::none();
        let mut rest = jp.clone();
        for (col, c) in &pred.constraints {
            if memo.group_covers(l, *col) {
                pl.add_constraint(*col, c.clone());
            } else if memo.group_covers(r, *col) {
                pr.add_constraint(*col, c.clone());
            } else {
                rest.add_constraint(*col, c.clone());
            }
        }
        for &(x, y) in &pred.equi {
            if memo.group_covers(l, x) && memo.group_covers(l, y) {
                pl.add_equi(x, y);
            } else if memo.group_covers(r, x) && memo.group_covers(r, y) {
                pr.add_equi(x, y);
            } else {
                rest.add_equi(x, y);
            }
        }
        if pl.is_trivial() && pr.is_trivial() {
            continue;
        }
        let mut steps = Vec::with_capacity(3);
        let new_l = if pl.is_trivial() {
            ChildRef::Group(l)
        } else {
            steps.push(Step {
                op: LogicalOp::Select(pl),
                children: vec![ChildRef::Group(l)],
                target: None,
            });
            ChildRef::Step(steps.len() as u8 - 1)
        };
        let new_r = if pr.is_trivial() {
            ChildRef::Group(r)
        } else {
            steps.push(Step {
                op: LogicalOp::Select(pr),
                children: vec![ChildRef::Group(r)],
                target: None,
            });
            ChildRef::Step(steps.len() as u8 - 1)
        };
        steps.push(Step {
            op: LogicalOp::Join(rest),
            children: vec![new_l, new_r],
            target: Some(target),
        });
        out.push(Candidate {
            guards: Vec::new(),
            steps,
        });
    }
}

/// Select merge: `σ_p(σ_q(E))` derives `σ_{p∧q}(E)` in the same group.
fn gen_select_merge(memo: &Memo, e: ExprId, scope: Scope, out: &mut Vec<Candidate>) {
    let LogicalOp::Select(pred) = memo.op(e) else {
        return;
    };
    let child = memo.children(e)[0];
    let target = memo.group_of(e);
    for se in scope.members(memo, child) {
        let LogicalOp::Select(q) = memo.op(se) else {
            continue;
        };
        let grandchild = memo.children(se)[0];
        out.push(Candidate {
            guards: Vec::new(),
            steps: vec![Step {
                op: LogicalOp::Select(pred.and(q)),
                children: vec![ChildRef::Group(grandchild)],
                target: Some(target),
            }],
        });
    }
}

// ---------------------------------------------------------------------------
// Pairwise subsumption rules (serial; frontier-driven via sibling lookup).
// ---------------------------------------------------------------------------

/// Select subsumption: pairs the frontier select `e` against every sibling
/// selection over the same input group. For each pair, either derive the
/// tighter from the looser (when one implies the other) or build the
/// disjunctive subsumer `σ_{p1 ⊔ p2}(E)` and derive both from it
/// (Section 6's "select subsumption"; this is how the batched workload's
/// repeated queries with different constants share work).
fn subsume_selects_of(memo: &mut Memo, e: ExprId, pair_frontier: &[ExprId]) {
    let child = memo.find(memo.children(e)[0]);
    // A sibling that is itself in the (sorted, ascending-processed) pair
    // frontier with a smaller id already evaluated this pair at its own
    // turn — the pair logic is symmetric, so re-running it here would
    // only repeat the same implication/subsumer work.
    let siblings: Vec<ExprId> = memo
        .group_parents(child)
        .into_iter()
        .filter(|&f| {
            f != e
                && !(f < e && pair_frontier.binary_search(&f).is_ok())
                && matches!(memo.op(f), LogicalOp::Select(_))
                && memo.children(f)[0] == child
        })
        .collect();
    for f in siblings {
        if !memo.is_alive(e) {
            // A previous pair's merge can tombstone the frontier expr.
            return;
        }
        if !memo.is_alive(f) {
            continue;
        }
        subsume_select_pair(memo, child, e, f);
    }
}

/// The pairwise select-subsumption body for sibling selects `e1`, `e2`
/// over `child`.
fn subsume_select_pair(memo: &mut Memo, child: GroupId, e1: ExprId, e2: ExprId) {
    let g1 = memo.group_of(e1);
    let g2 = memo.group_of(e2);
    if g1 == g2 {
        return;
    }
    let (LogicalOp::Select(p1), LogicalOp::Select(p2)) = (memo.op(e1), memo.op(e2)) else {
        return;
    };
    let (p1, p2) = (p1.clone(), p2.clone());
    if p1.implies(&p2) {
        // σ_{p1} derivable by filtering σ_{p2}'s result.
        let residual = p1.residual_after(&p2);
        if !residual.is_trivial() {
            memo.insert(LogicalOp::Select(residual), vec![g2], Some(g1));
        }
        return;
    }
    if p2.implies(&p1) {
        let residual = p2.residual_after(&p1);
        if !residual.is_trivial() {
            memo.insert(LogicalOp::Select(residual), vec![g1], Some(g2));
        }
        return;
    }
    // Disjunctive subsumer: only when the two predicates constrain the
    // same columns with the same equi atoms and differ on exactly one
    // column (the "different selection constants" pattern).
    if let Some(subsumer) = disjunctive_subsumer(&p1, &p2) {
        if memo.props(child).applied.implies(&subsumer) {
            // The child group already satisfies the subsumer predicate:
            // the child *is* the subsumer, and the direct derivations
            // already exist. Creating σ_subsumer(child) would add a no-op
            // layer (and, through later merges, self-referencing nodes).
            return;
        }
        let gs = memo.insert(LogicalOp::Select(subsumer.clone()), vec![child], None);
        if memo.find(gs) == memo.find(child) {
            return;
        }
        let r1 = p1.residual_after(&subsumer);
        let r2 = p2.residual_after(&subsumer);
        let g1 = memo.group_of(e1);
        let g2 = memo.group_of(e2);
        if !r1.is_trivial() && memo.find(gs) != g1 {
            memo.insert(LogicalOp::Select(r1), vec![gs], Some(g1));
        }
        if !r2.is_trivial() && memo.find(gs) != g2 {
            memo.insert(LogicalOp::Select(r2), vec![gs], Some(g2));
        }
    }
}

/// The disjunctive subsumer of two predicates, if they have identical equi
/// atoms, the same constrained column set, and differ on at most `2`
/// columns (hulls widen estimates, so subsumption is kept tight).
fn disjunctive_subsumer(p1: &Predicate, p2: &Predicate) -> Option<Predicate> {
    if p1.equi != p2.equi {
        return None;
    }
    let cols1: Vec<ColId> = p1.constraints.keys().copied().collect();
    let cols2: Vec<ColId> = p2.constraints.keys().copied().collect();
    if cols1 != cols2 || cols1.is_empty() {
        return None;
    }
    let mut out = Predicate::none();
    let mut differing = 0;
    for col in cols1 {
        let c1 = &p1.constraints[&col];
        let c2 = &p2.constraints[&col];
        if c1 == c2 {
            out.add_constraint(col, c1.clone());
        } else {
            differing += 1;
            out.add_constraint(col, c1.hull(c2));
        }
    }
    for &(a, b) in &p1.equi {
        out.add_equi(a, b);
    }
    if differing == 0 || differing > 2 {
        return None;
    }
    Some(out)
}

/// Aggregate subsumption: pairs the frontier aggregate `e` against every
/// sibling aggregation over the same input group, trying both derivation
/// directions: `γ_{G1,F1}(E)` derivable by re-aggregating `γ_{G2,F2}(E)`
/// when `G1 ⊆ G2` and every call in `F1` appears in `F2` with a
/// decomposable function.
fn subsume_aggregates_of(memo: &mut Memo, e: ExprId, pair_frontier: &[ExprId]) {
    let child = memo.find(memo.children(e)[0]);
    // Same pair-dedup as the select phase: a smaller-id sibling in the
    // frontier already tried both derivation directions for this pair.
    let siblings: Vec<ExprId> = memo
        .group_parents(child)
        .into_iter()
        .filter(|&f| {
            f != e
                && !(f < e && pair_frontier.binary_search(&f).is_ok())
                && matches!(memo.op(f), LogicalOp::Aggregate(_))
                && memo.children(f)[0] == child
        })
        .collect();
    for f in siblings {
        if !memo.is_alive(e) {
            return;
        }
        if !memo.is_alive(f) {
            continue;
        }
        try_reaggregate(memo, e, f);
        if !memo.is_alive(e) || !memo.is_alive(f) {
            continue;
        }
        try_reaggregate(memo, f, e);
    }
}

/// Tries to derive the coarse aggregate `coarse_e` by re-aggregating the
/// fine aggregate `fine_e`.
fn try_reaggregate(memo: &mut Memo, coarse_e: ExprId, fine_e: ExprId) {
    if memo.group_of(coarse_e) == memo.group_of(fine_e) {
        return;
    }
    let (LogicalOp::Aggregate(coarse), LogicalOp::Aggregate(fine)) =
        (memo.op(coarse_e), memo.op(fine_e))
    else {
        return;
    };
    if !coarse.group_by.iter().all(|g| fine.group_by.contains(g)) {
        return;
    }
    if coarse.group_by == fine.group_by {
        return;
    }
    let derived: Option<Vec<AggCall>> = coarse
        .aggs
        .iter()
        .map(|call| {
            let fine_call = fine
                .aggs
                .iter()
                .find(|fc| fc.func == call.func && fc.input == call.input)?;
            let func = call.func.reaggregate()?;
            Some(AggCall {
                func,
                input: fine_call.output,
                output: call.output,
            })
        })
        .collect();
    let Some(derived) = derived else { return };
    let spec = AggSpec::new(coarse.group_by.clone(), derived);
    let fine_group = memo.group_of(fine_e);
    let coarse_group = memo.group_of(coarse_e);
    memo.insert(
        LogicalOp::Aggregate(spec),
        vec![fine_group],
        Some(coarse_group),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::DagContext;
    use crate::expr::Constraint;
    use crate::logical::{AggFunc, PlanNode};
    use mqo_catalog::{Catalog, ColumnStats, TableBuilder};

    fn chain_ctx() -> DagContext {
        let mut cat = Catalog::new();
        for (name, rows) in [("a", 1000.0), ("b", 2000.0), ("c", 500.0), ("d", 300.0)] {
            cat.add_table(
                TableBuilder::new(name, rows)
                    .key_column(format!("{name}_key"), 4)
                    .column(format!("{name}_next"), rows, (0, rows as i64 - 1), 4)
                    .column(format!("{name}_x"), 10.0, (0, 9), 4)
                    .primary_key(&[&format!("{name}_key")])
                    .build(),
            );
        }
        DagContext::new(cat)
    }

    /// Builds the left-deep chain ((a⋈b)⋈c) with join atoms a_next=b_key,
    /// b_next=c_key.
    fn chain3(ctx: &mut DagContext) -> PlanNode {
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let c = ctx.instance_by_name("c", 0);
        let p_ab = Predicate::join(ctx.col(a, "a_next"), ctx.col(b, "b_key"));
        let p_bc = Predicate::join(ctx.col(b, "b_next"), ctx.col(c, "c_key"));
        PlanNode::scan(a)
            .join(PlanNode::scan(b), p_ab)
            .join(PlanNode::scan(c), p_bc)
    }

    #[test]
    fn associativity_generates_alternatives() {
        let mut ctx = chain_ctx();
        let q = chain3(&mut ctx);
        let mut memo = Memo::new(ctx);
        let root = memo.insert_plan(&q);
        let before = memo.group_exprs(root).count();
        expand(&mut memo, &RuleSet::joins_only());
        let after = memo.group_exprs(root).count();
        assert!(after > before, "expected new join orders in the root group");
        // Chain of 3 without cross products: root should now contain both
        // (a⋈b)⋈c and a⋈(b⋈c).
        assert_eq!(after, 2);
        memo.check_consistency();
    }

    #[test]
    fn two_queries_unify_via_associativity() {
        // Q1 = (a⋈b)⋈c built left-deep; Q2 = a⋈(b⋈c) built right-deep. After
        // expansion both roots must be the same group (Example 1's premise).
        let mut ctx = chain_ctx();
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let c = ctx.instance_by_name("c", 0);
        let p_ab = Predicate::join(ctx.col(a, "a_next"), ctx.col(b, "b_key"));
        let p_bc = Predicate::join(ctx.col(b, "b_next"), ctx.col(c, "c_key"));
        let q1 = PlanNode::scan(a)
            .join(PlanNode::scan(b), p_ab.clone())
            .join(PlanNode::scan(c), p_bc.clone());
        let q2 = PlanNode::scan(a).join(PlanNode::scan(b).join(PlanNode::scan(c), p_bc), p_ab);
        let mut memo = Memo::new(ctx);
        let r1 = memo.insert_plan(&q1);
        let r2 = memo.insert_plan(&q2);
        assert_ne!(memo.find(r1), memo.find(r2));
        expand(&mut memo, &RuleSet::joins_only());
        assert_eq!(memo.find(r1), memo.find(r2), "roots must unify");
        memo.check_consistency();
    }

    #[test]
    fn no_cross_products_generated() {
        let mut ctx = chain_ctx();
        let q = chain3(&mut ctx);
        let mut memo = Memo::new(ctx);
        memo.insert_plan(&q);
        expand(&mut memo, &RuleSet::joins_only());
        for e in memo.expr_ids() {
            if let LogicalOp::Join(p) = memo.op(e) {
                assert!(
                    !p.equi.is_empty(),
                    "cross-product join generated: {:?}",
                    memo.expr(e)
                );
            }
        }
    }

    #[test]
    fn select_pushdown_creates_pushed_variant() {
        let mut ctx = chain_ctx();
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let p_ab = Predicate::join(ctx.col(a, "a_next"), ctx.col(b, "b_key"));
        let sel = Predicate::on(ctx.col(a, "a_x"), Constraint::eq(3));
        let q = PlanNode::scan(a)
            .join(PlanNode::scan(b), p_ab)
            .select(sel.clone());
        let mut memo = Memo::new(ctx);
        let root = memo.insert_plan(&q);
        expand(&mut memo, &RuleSet::joins_only());
        // Root group must now contain a Join expr (the pushed-down form).
        let has_join = memo
            .group_exprs(root)
            .any(|e| matches!(memo.op(e), LogicalOp::Join(_)));
        assert!(has_join, "pushdown should add a join-rooted alternative");
        // And σ_{a_x=3}(a) must exist somewhere.
        let has_pushed = memo.expr_ids().any(|e| {
            matches!(memo.op(e), LogicalOp::Select(p) if p == &sel
                && memo.group_children(memo.group_of(e)).len() == 1)
        });
        assert!(has_pushed);
    }

    #[test]
    fn select_merge_collapses_nested() {
        let mut ctx = chain_ctx();
        let a = ctx.instance_by_name("a", 0);
        let ax = ctx.col(a, "a_x");
        let akey = ctx.col(a, "a_key");
        let q = PlanNode::scan(a)
            .select(Predicate::on(ax, Constraint::eq(3)))
            .select(Predicate::on(akey, Constraint::le(100)));
        let mut memo = Memo::new(ctx);
        let root = memo.insert_plan(&q);
        expand(&mut memo, &RuleSet::joins_only());
        // The root group must contain a single-select form over the scan.
        let has_merged = memo.group_exprs(root).any(|e| {
            if let LogicalOp::Select(p) = memo.op(e) {
                p.constraints.len() == 2
            } else {
                false
            }
        });
        assert!(has_merged);
    }

    #[test]
    fn select_subsumption_on_equality_constants() {
        // σ_{x=3}(a) and σ_{x=5}(a): expect subsumer σ_{x∈{3,5}}(a) plus
        // derivations.
        let mut ctx = chain_ctx();
        let a = ctx.instance_by_name("a", 0);
        let ax = ctx.col(a, "a_x");
        let q1 = PlanNode::scan(a).select(Predicate::on(ax, Constraint::eq(3)));
        let q2 = PlanNode::scan(a).select(Predicate::on(ax, Constraint::eq(5)));
        let mut memo = Memo::new(ctx);
        let g1 = memo.insert_plan(&q1);
        let _g2 = memo.insert_plan(&q2);
        expand(&mut memo, &RuleSet::default());
        let subsumer_pred = Predicate::on(ax, Constraint::in_list(vec![3, 5]));
        let subsumer = memo.expr_ids().find_map(|e| match memo.op(e) {
            LogicalOp::Select(p) if *p == subsumer_pred => Some(memo.group_of(e)),
            _ => None,
        });
        let subsumer = subsumer.expect("subsumer node must exist");
        // g1 must now have an expr reading from the subsumer group.
        let derives = memo.group_exprs(g1).any(|e| {
            memo.children(e)
                .iter()
                .any(|&c| memo.find(c) == memo.find(subsumer))
        });
        assert!(derives, "σ_(x=3) must be derivable from the subsumer");
    }

    #[test]
    fn select_subsumption_via_implication() {
        // σ_{key<=100}(a) is derivable from σ_{key<=200}(a) directly.
        let mut ctx = chain_ctx();
        let a = ctx.instance_by_name("a", 0);
        let ak = ctx.col(a, "a_key");
        let tight = PlanNode::scan(a).select(Predicate::on(ak, Constraint::le(100)));
        let loose = PlanNode::scan(a).select(Predicate::on(ak, Constraint::le(200)));
        let mut memo = Memo::new(ctx);
        let gt = memo.insert_plan(&tight);
        let gl = memo.insert_plan(&loose);
        expand(&mut memo, &RuleSet::default());
        let derives = memo.group_exprs(gt).any(|e| {
            memo.children(e)
                .iter()
                .any(|&c| memo.find(c) == memo.find(gl))
        });
        assert!(derives, "tight select must be derivable from the loose one");
    }

    #[test]
    fn aggregate_subsumption_derives_coarse_from_fine() {
        let mut ctx = chain_ctx();
        let a = ctx.instance_by_name("a", 0);
        let ax = ctx.col(a, "a_x");
        let akey = ctx.col(a, "a_key");
        let s_fine = ctx.add_synth("sum_fine", ColumnStats::new(500.0, 0, 100_000), 8);
        let s_coarse = ctx.add_synth("sum_coarse", ColumnStats::new(10.0, 0, 100_000), 8);
        let fine = PlanNode::scan(a).aggregate(AggSpec::new(
            vec![ax, akey],
            vec![AggCall {
                func: AggFunc::Sum,
                input: akey,
                output: s_fine,
            }],
        ));
        let coarse = PlanNode::scan(a).aggregate(AggSpec::new(
            vec![ax],
            vec![AggCall {
                func: AggFunc::Sum,
                input: akey,
                output: s_coarse,
            }],
        ));
        let mut memo = Memo::new(ctx);
        let gf = memo.insert_plan(&fine);
        let gc = memo.insert_plan(&coarse);
        expand(&mut memo, &RuleSet::default());
        let derives = memo.group_exprs(gc).any(|e| {
            memo.children(e)
                .iter()
                .any(|&c| memo.find(c) == memo.find(gf))
        });
        assert!(derives, "coarse aggregate must re-aggregate the fine one");
    }

    #[test]
    fn expansion_is_idempotent() {
        let mut ctx = chain_ctx();
        let q = chain3(&mut ctx);
        let mut memo = Memo::new(ctx);
        memo.insert_plan(&q);
        let s1 = expand(&mut memo, &RuleSet::default());
        let s2 = expand(&mut memo, &RuleSet::default());
        assert_eq!(s1.exprs, s2.exprs);
        assert_eq!(s1.groups, s2.groups);
        assert_eq!(s2.passes, 1);
    }

    /// Inserting a second query into an already-expanded memo and running
    /// the fixpoint seeded with only the new expressions must land on the
    /// same live expression/group counts as expanding both queries from
    /// scratch — including the cross-query subsumers between the old and
    /// new selects.
    #[test]
    fn seeded_expansion_matches_batch_expansion() {
        let selected_chain = |ctx: &mut DagContext, c: i64| {
            let a = ctx.instance_by_name("a", 0);
            let b = ctx.instance_by_name("b", 0);
            let cc = ctx.instance_by_name("c", 0);
            let p_ab = Predicate::join(ctx.col(a, "a_next"), ctx.col(b, "b_key"));
            let p_bc = Predicate::join(ctx.col(b, "b_next"), ctx.col(cc, "c_key"));
            let ax = ctx.col(a, "a_x");
            PlanNode::scan(a)
                .select(Predicate::on(ax, Constraint::eq(c)))
                .join(PlanNode::scan(b), p_ab)
                .join(PlanNode::scan(cc), p_bc)
        };
        let rules = RuleSet::default();

        let mut ctx = chain_ctx();
        let q1 = selected_chain(&mut ctx, 3);
        let q2 = selected_chain(&mut ctx, 1);
        let mut fresh = Memo::new(ctx);
        fresh.insert_plan(&q1);
        fresh.insert_plan(&q2);
        expand_with(&mut fresh, &rules, 1);

        let mut ctx = chain_ctx();
        let q1 = selected_chain(&mut ctx, 3);
        let q2 = selected_chain(&mut ctx, 1);
        let mut evolved = Memo::new(ctx);
        evolved.insert_plan(&q1);
        expand_with(&mut evolved, &rules, 1);
        let watermark = evolved.exprs_allocated() as u32;
        evolved.insert_plan(&q2);
        let seeds = (watermark..evolved.exprs_allocated() as u32).map(ExprId);
        expand_seeded(&mut evolved, &rules, 1, seeds);
        evolved.check_consistency();

        assert_eq!(fresh.n_exprs(), evolved.n_exprs());
        assert_eq!(fresh.n_groups(), evolved.n_groups());
        // And the seeded fixpoint actually converged: re-expanding in full
        // changes nothing.
        let s = expand_with(&mut evolved, &rules, 1);
        assert_eq!(s.passes, 1);
        assert_eq!(s.exprs, evolved.n_exprs());
    }

    /// Semi-naive matching must see members a merge *moves* into a group,
    /// not only newly interned ones. Q1 = σ(a⋈b) ⋈ c and Q2 = σa ⋈ b:
    /// round 1 pushes Q1's selection down to σa ⋈ b, which is Q2's root
    /// expression, so Q2's group merges into Q1's σ(a⋈b) group. The top
    /// join of Q1 already matched that group in round 1 (finding no join),
    /// is not rewritten by the merge, and re-enters only because its child
    /// grew. The moved member σa ⋈ b predates expansion, so no id
    /// watermark reveals it; the top join must still pivot over it to
    /// σa ⋈ (b ⋈ c).
    #[test]
    fn semi_naive_matching_sees_members_moved_by_a_merge() {
        let mut ctx = chain_ctx();
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let c = ctx.instance_by_name("c", 0);
        let p_ab = Predicate::join(ctx.col(a, "a_next"), ctx.col(b, "b_key"));
        let p_bc = Predicate::join(ctx.col(b, "b_next"), ctx.col(c, "c_key"));
        let sel = Predicate::on(ctx.col(a, "a_x"), Constraint::eq(3));
        let q1 = PlanNode::scan(a)
            .join(PlanNode::scan(b), p_ab.clone())
            .select(sel.clone())
            .join(PlanNode::scan(c), p_bc);
        let q2 = PlanNode::scan(a)
            .select(sel.clone())
            .join(PlanNode::scan(b), p_ab.clone());
        let mut memo = Memo::new(ctx);
        let root = memo.insert_plan(&q1);
        let moved_into = memo.group_children(root)[0];
        let q2_root = memo.insert_plan(&q2);
        let scan_a = memo.insert(LogicalOp::Scan(a), vec![], None);
        let sel_a = memo.insert(LogicalOp::Select(sel), vec![scan_a], None);
        let scan_b = memo.insert(LogicalOp::Scan(b), vec![], None);
        let moved = memo
            .expr_id_of(&LogicalOp::Join(p_ab.clone()), &[sel_a, scan_b])
            .expect("Q2's root expression");
        let before = memo.exprs_allocated();
        assert!(moved_into < q2_root, "the merge keeps Q1's group");
        assert_ne!(memo.find(moved_into), memo.find(q2_root));

        expand(&mut memo, &RuleSet::joins_only());
        memo.check_consistency();
        assert_eq!(
            memo.find(moved_into),
            memo.find(q2_root),
            "pushdown must merge Q2's group into σ(a⋈b)"
        );
        assert!((moved.0 as usize) < before && memo.is_alive(moved));
        let pivoted = memo.group_exprs(root).any(|e| {
            matches!(memo.op(e), LogicalOp::Join(p) if *p == p_ab)
                && memo.children(e).contains(&memo.find(sel_a))
        });
        assert!(pivoted, "the top join must derive σa ⋈ (b ⋈ c)");
    }

    #[test]
    fn four_way_chain_generates_bushy_space() {
        let mut ctx = chain_ctx();
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let c = ctx.instance_by_name("c", 0);
        let d = ctx.instance_by_name("d", 0);
        let p_ab = Predicate::join(ctx.col(a, "a_next"), ctx.col(b, "b_key"));
        let p_bc = Predicate::join(ctx.col(b, "b_next"), ctx.col(c, "c_key"));
        let p_cd = Predicate::join(ctx.col(c, "c_next"), ctx.col(d, "d_key"));
        let q = PlanNode::scan(a)
            .join(PlanNode::scan(b), p_ab)
            .join(PlanNode::scan(c), p_bc)
            .join(PlanNode::scan(d), p_cd);
        let mut memo = Memo::new(ctx);
        let root = memo.insert_plan(&q);
        expand(&mut memo, &RuleSet::joins_only());
        // Chain a-b-c-d: connected subsets {ab, bc, cd, abc, bcd, abcd} plus
        // 4 scans = 10 groups.
        assert_eq!(memo.n_groups(), 10);
        // Root group exprs are joins of *group pairs*: ABC⋈D, AB⋈CD, A⋈BCD.
        assert_eq!(memo.group_exprs(root).count(), 3);
        // The 3-subchain groups each hold both shapes, giving the full
        // bushy space of 5 plan shapes overall.
        let abc = memo
            .group_children(root)
            .into_iter()
            .find(|&g| {
                memo.props(g).leaves.len() == 3
                    && memo.group_exprs(g).count() > 0
                    && memo
                        .group_exprs(g)
                        .all(|e| !matches!(memo.op(e), LogicalOp::Scan(_)))
            })
            .expect("3-way subchain group");
        assert_eq!(memo.group_exprs(abc).count(), 2);
    }

    #[test]
    fn expand_with_threads_matches_serial() {
        // Smoke-level determinism check (the full differential suite lives
        // in tests/memo_differential.rs): the memo after parallel
        // generation is identical to the serial one.
        for rules in [RuleSet::default(), RuleSet::joins_only()] {
            let mut ctx1 = chain_ctx();
            let q1 = chain3(&mut ctx1);
            let mut serial = Memo::new(ctx1);
            serial.insert_plan(&q1);
            let s1 = expand_with(&mut serial, &rules, 1);

            let mut ctx2 = chain_ctx();
            let q2 = chain3(&mut ctx2);
            let mut parallel = Memo::new(ctx2);
            parallel.insert_plan(&q2);
            let s2 = expand_with(&mut parallel, &rules, 4);

            assert_eq!(s1.exprs, s2.exprs);
            assert_eq!(s1.groups, s2.groups);
            assert_eq!(s1.passes, s2.passes);
            assert_eq!(s1.candidates, s2.candidates);
            assert_eq!(serial.exprs_allocated(), parallel.exprs_allocated());
            assert_eq!(serial.topo_view(), parallel.topo_view());
        }
    }

    /// Per-worker record of a [`fan_out`] run: the items it saw, in order,
    /// and the threads it ran on.
    #[derive(Default)]
    struct Seen {
        items: Vec<usize>,
        threads: Vec<std::thread::ThreadId>,
    }

    /// Fans `0..n` out over `workers` states, doubling each item into its
    /// slot.
    fn fan(n: usize, workers: usize) -> (Vec<usize>, Vec<Seen>) {
        let items: Vec<usize> = (0..n).collect();
        let mut out = vec![usize::MAX; n];
        let mut states: Vec<Seen> = (0..workers).map(|_| Seen::default()).collect();
        fan_out(&items, &mut out, &mut states, |seen, &i, slot| {
            seen.items.push(i);
            seen.threads.push(std::thread::current().id());
            *slot = 2 * i;
        });
        (out, states)
    }

    #[test]
    fn fan_out_of_nothing_runs_nothing() {
        let (out, states) = fan(0, 3);
        assert!(out.is_empty());
        assert!(states.iter().all(|s| s.items.is_empty()));
        // No worker state is needed when there is no work.
        fan_out(
            &[] as &[u8],
            &mut [] as &mut [u8],
            &mut [] as &mut [()],
            |_, _, _| unreachable!(),
        );
    }

    #[test]
    fn fan_out_writes_every_slot_in_input_order() {
        for (n, workers) in [(1, 1), (7, 1), (7, 2), (9, 3), (10, 4), (5, 16)] {
            let (out, _) = fan(n, workers);
            let expect: Vec<usize> = (0..n).map(|i| 2 * i).collect();
            assert_eq!(out, expect, "{n} items over {workers} workers");
        }
    }

    #[test]
    fn fan_out_gives_each_worker_one_contiguous_chunk_in_order() {
        // 10 items over 4 workers do not divide evenly: chunks of 3, the
        // last one short.
        let (_, states) = fan(10, 4);
        let chunks: Vec<Vec<usize>> = states.iter().map(|s| s.items.clone()).collect();
        assert_eq!(
            chunks,
            vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8], vec![9]]
        );
        // Chunk 0 runs on the calling thread, every other chunk on one
        // worker thread of its own.
        let caller = std::thread::current().id();
        assert!(states[0].threads.iter().all(|&t| t == caller));
        for s in &states[1..] {
            assert!(s.threads.iter().all(|&t| t == s.threads[0] && t != caller));
        }
    }

    #[test]
    fn fan_out_leaves_surplus_workers_idle() {
        // More workers than items: one item per chunk, and the states past
        // the last chunk never run.
        let (out, states) = fan(3, 8);
        assert_eq!(out, vec![0, 2, 4]);
        for (w, s) in states.iter().enumerate() {
            let expect: Vec<usize> = if w < 3 { vec![w] } else { Vec::new() };
            assert_eq!(s.items, expect, "worker {w}");
        }
    }

    #[test]
    fn fan_out_with_one_worker_stays_on_the_calling_thread() {
        let (_, states) = fan(6, 1);
        let caller = std::thread::current().id();
        assert_eq!(states[0].items, (0..6).collect::<Vec<_>>());
        assert!(states[0].threads.iter().all(|&t| t == caller));
    }
}
