//! The `bestCost(Q, S)` oracle, compiled for speed.
//!
//! The greedy algorithms evaluate `bc(X ∪ {x})` for many candidates `x` per
//! iteration, so this engine compiles the expanded memo once — interesting
//! sort orders per group, physical implementation options with fixed
//! per-operator costs, dense topological indexing — and then evaluates any
//! materialized set with a bottom-up array DP:
//!
//! ```text
//! compute[g][o] = min over options (op cost + Σ use[child][o_child]),
//!                 and for o ≠ none also compute[g][none] + sort(g)
//! use[g][o]     = g ∈ S ? read[g][o] : compute[g][o]
//! bc(S)         = compute[root][none] + Σ_{s∈S} (compute[s][none] + write[s])
//! ```
//!
//! `compute[s]` uses the `use` costs of everything below `s`, so producing a
//! materialized node automatically exploits other materialized nodes — the
//! same semantics as Pyro's `bestCost` (which includes the cost of
//! computing and materializing the chosen set).
//!
//! # Memory layout
//!
//! All DP state lives in flat arenas in one CSR hierarchy over the dense
//! topological order of [`TopoView`]:
//!
//! ```text
//! group d   → states  state_off[d] .. state_off[d+1]   (one per sort order)
//! state s   → options opt_off[s]   .. opt_off[s+1]
//! option o  → children (flat state indices) child_off[o] .. child_off[o+1]
//! ```
//!
//! # Compilation
//!
//! The compile behind [`EngineArenas`] allocates per compile, never per
//! option or state. Its orders pass interns every distinct [`SortOrder`]
//! once, as a `u32` id into one order table, and computes each join's
//! keys once; requirements, natural orders, output orders and provenance
//! then hold ids. Each group's options are emitted into one reused
//! buffer, bucketed by requirement, and appended to the final arenas in
//! state order. Plan provenance stays plain data (an expression id, an
//! operator tag, `swapped` and key-order ids) until plan extraction
//! resolves the nodes of an extracted plan.
//!
//! `base_compute` / `base_use` (indexed by state) hold the DP solution of
//! the committed base set. The incremental evaluator (the third
//! optimization of Section 5.1, inherited from Roy et al.) recomputes only
//! the ancestor cone of the groups whose membership changed, writing into
//! epoch-stamped scratch arenas owned by the engine: a state's scratch
//! value is live iff its stamp equals the current evaluation epoch, so the
//! overlay is discarded by bumping one counter — the incremental path
//! performs no allocation at steady state (every buffer is reused across
//! calls). That one dirty-cone recurrence serves both sides of the oracle:
//! it answers a candidate, and a near-base commit is the target's own
//! overlay written back into the base arenas.
//!
//! [`BestCostEngine::bc_many`] additionally evaluates a whole batch of
//! candidate sets (a greedy round) against one shared base: it rebases to
//! the intersection of the batch once, then answers every candidate from a
//! minimal overlay.
//!
//! # Sharded evaluation
//!
//! All of the mutable per-evaluation state (overlay arenas, epoch stamps,
//! dirty-cone worklist, diff buffer) lives in an [`EngineScratch`], while
//! the compiled arenas and the committed base are immutable during a batch.
//! A handle keeps one pool of scratches; index 0 is the caller's, used by
//! [`BestCostEngine::bc`] and [`BestCostEngine::rebase`].
//! [`BestCostEngine::bc_many`] rebases once to the round's shared
//! intersection and then fans the candidates out through the workspace's
//! one chunked fan-out ([`mqo_volcano::rules::fan_out`]) with one pool
//! scratch per worker ([`MqoConfig::threads`], or the `MQO_THREADS`
//! environment variable): chunk 0 runs on the calling thread with the
//! caller's scratch, the other chunks on `std::thread::scope` workers, and
//! one worker runs the whole batch inline. Every candidate is evaluated
//! from the same committed base (no cross-candidate base drift), and an
//! overlay answer is a pure function of `(base, set)`, so results are
//! **bit-identical** at every thread count.
//!
//! An answer is *not* independent of the base, though. The overlay's
//! per-state values are bit-exact with respect to the full solve, but its
//! total is `base_total + Δ`, whose rounding differs from a full solve's
//! flat sum. So `bc(∅)` asked after the base has moved can differ in the
//! last bit from the construction-time solve; the strategies report an
//! empty pick's cost from that solve
//! ([`MbFunction::bc_empty`](crate::benefit::MbFunction::bc_empty)).

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use mqo_submod::bitset::BitSet;
use mqo_volcano::context::{ColId, InstanceId};
use mqo_volcano::cost::CostModel;
use mqo_volcano::fphash::FpBuildHasher;
use mqo_volcano::logical::LogicalOp;
use mqo_volcano::memo::{ExprId, GroupId, Memo, TopoView};
use mqo_volcano::physical::SortOrder;
use mqo_volcano::rules::fan_out;

pub use crate::config::MqoConfig;

/// The mutable per-evaluation state of a [`BestCostEngine`]: the overlay
/// arenas, their epoch stamps, the dirty-cone worklist, and the diff
/// buffer. Everything else in the engine is immutable during a batch, so
/// [`BestCostEngine::bc_many`] hands each worker of its fan-out its own
/// `EngineScratch` from the handle's pool over the shared arenas.
#[derive(Clone, Debug, Default)]
pub struct EngineScratch {
    /// Overlay `compute` values (live iff the state's stamp is current).
    compute: Vec<f64>,
    /// Overlay `use` values (live iff the state's stamp is current).
    use_: Vec<f64>,
    /// Per-state epoch stamp.
    state_epoch: Vec<u64>,
    /// Current evaluation epoch; only grows.
    epoch: u64,
    /// Reusable dirty-cone worklist (min-heap over dense indices).
    dirty: BinaryHeap<Reverse<u32>>,
    /// Per-group queued stamp for the worklist.
    queued_epoch: Vec<u64>,
    /// Reusable symmetric-difference buffer.
    diff_buf: Vec<usize>,
    /// The non-root groups the last cone pass popped, in pop order.
    cone_buf: Vec<u32>,
    /// Cone records of this scratch's single-element misses in the
    /// current batch, merged into the handle's [`ConeMemo`] in pool order
    /// (which is slot order) once the batch is done. Each record's groups
    /// and root-child uses follow the previous record's in the two flat
    /// arenas below.
    records: Vec<ConeRecord>,
    rec_cone: Vec<u32>,
    rec_roots: Vec<(u32, f64)>,
    /// Full evaluations performed through this scratch.
    full_evals: u64,
    /// Incremental (base/overlay) evaluations through this scratch.
    incremental_evals: u64,
    /// Incremental evaluations answered from the cone memo.
    cone_reuses: u64,
}

impl EngineScratch {
    /// A zeroed scratch for `n_states` DP states over `n_groups` groups.
    fn new(n_states: usize, n_groups: usize) -> Self {
        EngineScratch {
            compute: vec![0.0; n_states],
            use_: vec![0.0; n_states],
            state_epoch: vec![0; n_states],
            epoch: 0,
            dirty: BinaryHeap::new(),
            queued_epoch: vec![0; n_groups],
            diff_buf: Vec::new(),
            cone_buf: Vec::new(),
            records: Vec::new(),
            rec_cone: Vec::new(),
            rec_roots: Vec::new(),
            full_evals: 0,
            incremental_evals: 0,
            cone_reuses: 0,
        }
    }

    /// Starts a new overlay evaluation and returns its epoch. Epochs only
    /// grow, so a stamp left by an earlier evaluation — including one made
    /// against a base a rebase has since moved — never equals a later
    /// epoch, and no stamped array ever needs clearing.
    fn advance_epoch(&mut self) -> u64 {
        self.epoch = self
            .epoch
            .checked_add(1)
            .expect("overlay epoch overflowed u64");
        self.epoch
    }
}

/// One cone recorded by a pool scratch during a batch (see
/// [`EngineScratch::records`]).
#[derive(Clone, Copy, Debug)]
struct ConeRecord {
    elem: u32,
    /// End of this record's groups in `rec_cone`.
    cone_end: u32,
    /// End of this record's root-child uses in `rec_roots`.
    roots_end: u32,
    delta: f64,
    reached_root: bool,
}

/// The cached cone pass of one universe element's single-element overlay.
#[derive(Clone, Debug, Default)]
struct ConeEntry {
    /// [`ConeMemo::gen`] when recorded; 0 = never recorded.
    gen: u64,
    /// The non-root groups the cone pass popped, in pop order.
    cone: Vec<u32>,
    /// The element-sum delta accumulated over `cone`, in pop order.
    delta: f64,
    /// Whether the cone reached the batch root.
    reached_root: bool,
    /// Overlay `use` of every root-child state the cone stamped.
    root_uses: Vec<(u32, f64)>,
}

/// Round-to-round cone memo of one engine handle: per universe element,
/// the cone pass of its last single-element overlay, reusable until a
/// commit recomputes one of the cone's groups.
///
/// An overlay's cone pass reads only the base values of its own groups,
/// their base membership, and the base `use` of their children. An
/// incremental commit — the target's own overlay written back into the
/// base (see `BestCostEngine::rebase_with`) — stamps every group it pops
/// with a new generation, and a child whose `use` changed always queues —
/// and so stamps — its parents. So while no cone group carries a
/// stamp newer than the entry, every value the cone read is unchanged,
/// the cone's heap order is unchanged, and replaying only the root pass
/// reproduces the fresh overlay bit for bit. A full-solve rebase moves the
/// base without stamping, so it retires every entry at once.
#[derive(Debug)]
struct ConeMemo {
    /// Generation of the latest incremental commit.
    gen: u64,
    /// Entries recorded before this generation are dead.
    floor: u64,
    /// Per dense group: the generation of the last commit that popped it.
    /// Empty until the first record, like `entries`.
    group_gen: Vec<u64>,
    /// Per universe element: its last recorded cone.
    entries: Vec<ConeEntry>,
}

impl ConeMemo {
    /// An empty memo; its arenas are sized on the first record, so a
    /// handle that never runs a batch pays nothing for it.
    fn new() -> Self {
        ConeMemo {
            gen: 1,
            floor: 1,
            group_gen: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// The entry of element `e`, if one was recorded and no later commit
    /// touched its cone.
    fn valid(&self, e: usize) -> Option<&ConeEntry> {
        let entry = self.entries.get(e)?;
        let fresh = entry.gen >= self.floor
            && entry
                .cone
                .iter()
                .all(|&d| self.group_gen[d as usize] <= entry.gen);
        fresh.then_some(entry)
    }

    /// Retires every entry (the base moved by a full solve).
    fn invalidate_all(&mut self) {
        self.gen += 1;
        self.floor = self.gen;
    }

    /// Moves a scratch's batch records into the memo, in record order.
    fn absorb(&mut self, scratch: &mut EngineScratch, n_groups: usize, u: usize) {
        if scratch.records.is_empty() {
            return;
        }
        if self.entries.is_empty() {
            self.entries.resize_with(u, ConeEntry::default);
            self.group_gen.resize(n_groups, 0);
        }
        let (mut cone_start, mut roots_start) = (0, 0);
        for r in &scratch.records {
            let (cone_end, roots_end) = (r.cone_end as usize, r.roots_end as usize);
            let entry = &mut self.entries[r.elem as usize];
            entry.gen = self.gen;
            entry.cone.clear();
            entry
                .cone
                .extend_from_slice(&scratch.rec_cone[cone_start..cone_end]);
            entry.delta = r.delta;
            entry.reached_root = r.reached_root;
            entry.root_uses.clear();
            entry
                .root_uses
                .extend_from_slice(&scratch.rec_roots[roots_start..roots_end]);
            (cone_start, roots_start) = (cone_end, roots_end);
        }
        scratch.records.clear();
        scratch.rec_cone.clear();
        scratch.rec_roots.clear();
    }
}

/// Interned id of the unordered requirement: every compile interns it
/// first, and it is slot 0 of every group's requirement list.
pub(crate) const NO_ORDER: u32 = 0;

/// Output order of a compiled option: a fixed order (an id into
/// [`EngineArenas::orders`]), or inherited from the first child's natural
/// order (order-preserving operators like Filter).
#[derive(Clone, Copy, Debug)]
pub(crate) enum OutOrder {
    Fixed(u32),
    InheritChild0,
}

/// The physical operator kind of a compiled option.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OpTag {
    TableScan(InstanceId),
    IndexScan(InstanceId),
    Filter,
    MergeJoin,
    BlockNlJoin,
    SortAgg,
    ScalarAgg,
    Root,
}

/// Plan provenance of one compiled option, as plain data: the memo
/// expression it implements, its operator kind, whether a join's children
/// are swapped, and the order ids a merge join sorts its outer and inner
/// input on (`keys`) or a sort aggregate groups by (`keys[0]`). Plan
/// extraction resolves it to a [`mqo_volcano::physical::PhysOp`] only for the nodes of an
/// extracted plan.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OptPhys {
    pub(crate) expr: ExprId,
    pub(crate) op: OpTag,
    pub(crate) swapped: bool,
    pub(crate) keys: [u32; 2],
}

impl OptPhys {
    fn new(expr: ExprId, op: OpTag) -> Self {
        OptPhys {
            expr,
            op,
            swapped: false,
            keys: [NO_ORDER; 2],
        }
    }
}

/// The distinct sort orders of one compile, each interned once; id `i` is
/// `orders[i]`. A probe borrows the column list, so looking up an order
/// already interned allocates nothing. The map is only probed, never
/// iterated: ids follow the probe sequence, and nothing compiled depends
/// on them beyond identity (requirement lists are sorted by value).
struct OrderInterner {
    ids: HashMap<Vec<ColId>, u32, FpBuildHasher>,
    orders: Vec<SortOrder>,
}

impl OrderInterner {
    fn new() -> Self {
        let mut interner = OrderInterner {
            ids: HashMap::default(),
            orders: Vec::new(),
        };
        interner.intern(&[]);
        interner
    }

    fn intern(&mut self, cols: &[ColId]) -> u32 {
        if let Some(&id) = self.ids.get(cols) {
            return id;
        }
        let id = self.orders.len() as u32;
        self.ids.insert(cols.to_vec(), id);
        self.orders.push(SortOrder::on(cols.to_vec()));
        id
    }
}

/// An expression with no interned key order (a join without spanning
/// equi-keys, or an operator that sorts on nothing).
const NO_KEYS: u32 = u32::MAX;

/// End of a [`Demands`] list.
const END: u32 = u32::MAX;

/// The interesting-order ids of every dense group, as singly linked lists
/// over two flat arenas, so collecting them allocates nothing per group.
/// Each list starts with [`NO_ORDER`] and holds a handful of ids, so a
/// membership test walks it.
struct Demands {
    head: Vec<u32>,
    next: Vec<u32>,
    order: Vec<u32>,
}

impl Demands {
    fn new(n: usize) -> Self {
        Demands {
            head: (0..n as u32).collect(),
            next: vec![END; n],
            order: vec![NO_ORDER; n],
        }
    }

    fn iter(&self, d: usize) -> impl Iterator<Item = u32> + '_ {
        let mut k = self.head[d];
        std::iter::from_fn(move || {
            (k != END).then(|| {
                let entry = self.order[k as usize];
                k = self.next[k as usize];
                entry
            })
        })
    }

    fn push(&mut self, d: usize, order: u32) {
        if self.iter(d).any(|o| o == order) {
            return;
        }
        self.next.push(self.head[d]);
        self.head[d] = self.order.len() as u32;
        self.order.push(order);
    }

    /// Adds every order of group `from` to group `to` (`from != to`).
    fn copy(&mut self, from: usize, to: usize) {
        let mut k = self.head[from];
        while k != END {
            self.push(to, self.order[k as usize]);
            k = self.next[k as usize];
        }
    }
}

/// One option emitted for the group being compiled; its children are the
/// range `children` of [`GroupOptions::children`].
#[derive(Clone, Copy)]
struct Emitted {
    slot: u32,
    cost: f64,
    children: (u32, u32),
    out: OutOrder,
    phys: OptPhys,
}

/// The options of one group, in emission order (expression order, then
/// each expression's own order), reused from group to group.
#[derive(Default)]
struct GroupOptions {
    opts: Vec<Emitted>,
    children: Vec<u32>,
    /// Per requirement slot: the option count, then the end of the slot's
    /// bucket in `by_slot`.
    slot_end: Vec<u32>,
    /// Option indices, stably bucketed by requirement slot.
    by_slot: Vec<u32>,
}

impl GroupOptions {
    fn emit(
        &mut self,
        slot: usize,
        cost: f64,
        children: impl IntoIterator<Item = u32>,
        out: OutOrder,
        phys: OptPhys,
    ) {
        let start = self.children.len() as u32;
        self.children.extend(children);
        self.opts.push(Emitted {
            slot: slot as u32,
            cost,
            children: (start, self.children.len() as u32),
            out,
            phys,
        });
    }

    /// Buckets the emitted options by requirement slot (`k` slots), keeping
    /// emission order within a slot: a counting sort into `by_slot`, after
    /// which `slot_end[j]` ends slot `j`'s bucket.
    fn bucket(&mut self, k: usize) {
        self.slot_end.clear();
        self.slot_end.resize(k + 1, 0);
        for o in &self.opts {
            self.slot_end[o.slot as usize + 1] += 1;
        }
        for j in 0..k {
            self.slot_end[j + 1] += self.slot_end[j];
        }
        self.by_slot.clear();
        self.by_slot.resize(self.opts.len(), 0);
        for (i, o) in self.opts.iter().enumerate() {
            let cursor = &mut self.slot_end[o.slot as usize];
            self.by_slot[*cursor as usize] = i as u32;
            *cursor += 1;
        }
        self.slot_end.pop();
    }
}

/// A candidate within this many universe elements of the committed base
/// takes the overlay path (and a commit that close is applied
/// incrementally); a farther one is a full solve.
const REBASE_THRESHOLD: usize = 4;

/// Sentinel in `opt_c0`/`opt_c1`: this child slot is absent.
const OPT_NONE: u32 = u32::MAX;
/// Sentinel in `opt_c0`: the option has more than two children; its child
/// list lives in the `child_off`/`opt_children` CSR.
const OPT_SPILL: u32 = u32::MAX - 1;

/// Every immutable post-compile artifact of the `bestCost` engine: the
/// CSR option arenas, per-state read/write/sort costs, the dense universe
/// maps, plan provenance, and the solved `S = ∅` state. Compiled once per
/// batch commit and shared by `Arc` — a [`BestCostEngine`] is a thin
/// per-caller handle over these arenas (its own base arenas + scratch),
/// so concurrent readers each spin up a handle from the same snapshot
/// without recompiling or blocking each other.
pub struct EngineArenas {
    /// Dense topological view of the memo (shared with the batch
    /// and the batch; owns the parent adjacency used for dirty-cone
    /// propagation).
    pub(crate) topo: Arc<TopoView>,
    /// Group → state range (CSR offsets; one state per interesting order,
    /// index 0 is always the unordered requirement).
    pub(crate) state_off: Vec<u32>,
    /// State → option range.
    pub(crate) opt_off: Vec<u32>,
    /// Per-option constant operator cost.
    pub(crate) opt_cost: Vec<f64>,
    /// Option → children range.
    pub(crate) child_off: Vec<u32>,
    /// Flat child state indices.
    pub(crate) opt_children: Vec<u32>,
    /// Packed first/second child state per option (SoA, hot). Almost every
    /// option has ≤ 2 children (scans 0, selects/aggregates 1, joins 2), so
    /// the DP inner loop reads these two flat arrays instead of chasing
    /// `child_off` → `opt_children` — one indirection and one cache line
    /// less per option at 10k+ states. [`OPT_NONE`] marks an absent slot;
    /// [`OPT_SPILL`] in `opt_c0` sends the rare wide option (the batch
    /// root) back to the CSR arenas.
    pub(crate) opt_c0: Vec<u32>,
    pub(crate) opt_c1: Vec<u32>,
    /// Per-state cost of reading the materialized result.
    pub(crate) read: Vec<f64>,
    /// Per-group cost of writing the result once.
    pub(crate) write: Vec<f64>,
    /// Per-group cost of sorting the result (for enforcers).
    pub(crate) sort: Vec<f64>,
    /// Dense index of the batch root.
    pub(crate) root: u32,
    /// Universe: element `i` of the shareable set ↔ dense index.
    pub(crate) universe_dense: Vec<u32>,
    /// Dense index → universe element (u32::MAX when not in the universe).
    elem_of_dense: Vec<u32>,
    /// Plan provenance per option, as plain data ([`OptPhys`]): the memo
    /// expression, operator kind and key orders the option implements.
    /// Cold arenas — plan extraction resolves the nodes of an extracted
    /// plan, the `bc` hot path never reads them.
    pub(crate) opt_phys: Vec<OptPhys>,
    /// Output order per option, for extraction.
    pub(crate) opt_out: Vec<OutOrder>,
    /// The distinct sort orders of the compile; every other order field
    /// holds an id into this table ([`Self::order`]), and id
    /// [`NO_ORDER`] is the unordered requirement.
    pub(crate) orders: Vec<SortOrder>,
    /// The sort-order requirement (an order id) of each DP state.
    pub(crate) state_order: Vec<u32>,
    /// Natural storage order (an order id) of each group's cheapest
    /// (`S = ∅`) production plan — the order a materialized copy is
    /// written out in.
    pub(crate) natural_order: Vec<u32>,
    /// Flat state index → dense group index.
    pub(crate) group_of_state: Vec<u32>,
    /// Per-universe-element standalone materialization cost under `S = ∅`:
    /// cheapest compute of the element's group plus its write cost. Free at
    /// compile time (the ∅ solve already runs for natural-order
    /// resolution); drives the cost-based decomposition of the
    /// universe-reduction pre-pass.
    pub(crate) mat_cost: Vec<f64>,
    /// Estimated output rows per dense group, copied out of the memo's
    /// logical properties at compile time so plan extraction over a
    /// snapshot never reaches back into the (mutable) memo.
    pub(crate) rows: Vec<f64>,
    /// The solved `S = ∅` DP state (per-state compute/use arenas and the
    /// no-sharing total). Handles clone these as their initial committed
    /// base, so spinning up a per-caller engine from a snapshot is two
    /// `memcpy`s — no DP solve.
    empty_compute: Vec<f64>,
    empty_use: Vec<f64>,
    empty_total: f64,
}

/// The compiled `bestCost` engine: a per-caller handle over shared
/// immutable [`EngineArenas`] (reached through `Deref`) plus the caller's
/// own mutable state — the committed base set/arenas and the epoch-stamped
/// overlay scratch. See the module docs for the arena layout.
pub struct BestCostEngine {
    /// The shared immutable compiled arenas. `Deref` exposes their fields
    /// and methods directly on the engine.
    arenas: Arc<EngineArenas>,
    /// Base state: the committed materialized set and its DP solution
    /// (flat, indexed by state).
    base_set: BitSet,
    base_compute: Vec<f64>,
    base_use: Vec<f64>,
    /// `bc(base_set)` — the full element-sum total over the committed
    /// base, refreshed at every commit. Overlay evaluations answer
    /// `base_total + Δ`, accumulating `Δ` along the dirty cone instead of
    /// re-summing the whole materialized set per evaluation (the
    /// per-element sum is `O(|S|)` with cache-hostile indirection, and at
    /// hundreds of materializations it dominates the cone DP itself).
    base_total: f64,
    /// The scratch pool: one epoch-stamped overlay scratch per worker of
    /// [`Self::bc_many`]'s fan-out, grown on demand and reused across
    /// rounds. Index 0 is the caller's: [`Self::bc`] and [`Self::rebase`]
    /// use it, and it runs chunk 0 of every batch. A state's scratch value
    /// is live iff its stamp equals its scratch's current epoch, and each
    /// epoch only grows, so a stale stamp never equals a later evaluation's
    /// epoch.
    scratches: Vec<EngineScratch>,
    /// Pooled buffer for the per-round shared-intersection base of
    /// [`Self::bc_many`], reused across rounds instead of cloning the
    /// first candidate every round.
    shared_buf: BitSet,
    /// Round-to-round cone memo of [`Self::bc_many`]'s single-element
    /// candidates.
    cones: ConeMemo,
    /// Evaluation strategy knobs.
    pub config: MqoConfig,
}

impl BestCostEngine {
    /// Compiles the engine for a memo, cost model, and shareable universe
    /// with the default [`MqoConfig`].
    pub fn new(memo: &Memo, cm: &dyn CostModel, root: GroupId, universe: &[GroupId]) -> Self {
        Self::with_config(memo, cm, root, universe, MqoConfig::default())
    }

    /// Compiles the engine with an explicit [`MqoConfig`].
    pub fn with_config(
        memo: &Memo,
        cm: &dyn CostModel,
        root: GroupId,
        universe: &[GroupId],
        config: MqoConfig,
    ) -> Self {
        let arenas = EngineArenas::compile(memo, Arc::new(memo.topo_view()), cm, root, universe);
        Self::from_arenas(Arc::new(arenas), config)
    }

    /// A fresh per-caller handle over already-compiled shared arenas: the
    /// committed base starts at the stored `S = ∅` solution (two array
    /// copies, no DP solve), with a zeroed scratch. This is how snapshot
    /// readers ([`EngineState::engine`]) spin up engines without
    /// recompiling — part of every snapshot read, so part of
    /// `mqobench`'s `serve.read_run_ms` span. The cone memo starts empty
    /// and is sized on first use.
    pub fn from_arenas(arenas: Arc<EngineArenas>, config: MqoConfig) -> Self {
        let n_states = arenas.n_states();
        let n_groups = arenas.topo.len();
        let u = arenas.universe_size();
        BestCostEngine {
            base_set: BitSet::empty(u),
            base_compute: arenas.empty_compute.clone(),
            base_use: arenas.empty_use.clone(),
            base_total: arenas.empty_total,
            scratches: vec![EngineScratch::new(n_states, n_groups)],
            shared_buf: BitSet::empty(u),
            cones: ConeMemo::new(),
            config,
            arenas,
        }
    }

    /// The shared immutable arenas this handle evaluates over.
    pub fn arenas(&self) -> &Arc<EngineArenas> {
        &self.arenas
    }
}

/// Field and method access on a [`BestCostEngine`] falls through to its
/// shared arenas: the split moved every immutable artifact behind an
/// `Arc`, and `Deref` keeps the hot-path code (and its callers) reading
/// `self.state_off`-style exactly as before.
impl std::ops::Deref for BestCostEngine {
    type Target = EngineArenas;
    fn deref(&self) -> &EngineArenas {
        &self.arenas
    }
}

impl EngineArenas {
    /// Compiles the immutable arenas for a memo, cost model, and shareable
    /// universe over `topo`, the caller's [`TopoView`] of `memo` as it
    /// stands.
    ///
    /// Allocation is per compile, never per option or state: sort orders
    /// are interned once, each group's requirement list is a slice of one
    /// flat id arena, and each group's options are emitted into one reused
    /// buffer and appended to the final arenas in state order.
    pub(crate) fn compile(
        memo: &Memo,
        topo: Arc<TopoView>,
        cm: &dyn CostModel,
        root: GroupId,
        universe: &[GroupId],
    ) -> EngineArenas {
        debug_assert_eq!(topo.len(), memo.n_groups(), "stale TopoView");
        let n = topo.len();

        // 1. Interesting orders per group: demanded by join/aggregate
        // parents, propagated down through order-preserving selects. The
        // same pass interns the order every later step reads off an
        // expression: a join's left/right keys, an aggregate's group-by,
        // a scan's clustered order.
        let mut interner = OrderInterner::new();
        let mut demands = Demands::new(n);
        let mut expr_orders: Vec<[u32; 2]> = vec![[NO_KEYS; 2]; memo.exprs_allocated()];
        let mut selects: Vec<(u32, u32)> = Vec::new();
        let (mut lk, mut rk) = (Vec::new(), Vec::new());
        for e in memo.expr_ids() {
            let keys = &mut expr_orders[e.0 as usize];
            match memo.op(e) {
                LogicalOp::Scan(inst) => {
                    keys[0] = interner.intern(&memo.ctx().clustered_order(*inst));
                }
                LogicalOp::Join(pred) => {
                    let ch = memo.children(e);
                    let (l, r) = (memo.find(ch[0]), memo.find(ch[1]));
                    if join_keys(memo, pred, l, r, &mut lk, &mut rk) {
                        *keys = [interner.intern(&lk), interner.intern(&rk)];
                        demands.push(topo.dense(l) as usize, keys[0]);
                        demands.push(topo.dense(r) as usize, keys[1]);
                    }
                }
                LogicalOp::Aggregate(spec) if !spec.is_scalar() => {
                    keys[0] = interner.intern(&spec.group_by);
                    demands.push(topo.dense(memo.children(e)[0]) as usize, keys[0]);
                }
                LogicalOp::Select(_) => {
                    let g = topo.dense(memo.group_of(e));
                    let c = topo.dense(memo.children(e)[0]);
                    if g != c {
                        selects.push((g, c));
                    }
                }
                _ => {}
            }
        }
        // Children precede parents in the dense order, so visiting the
        // selects by descending parent finds every parent's demands
        // complete: one pass reaches the fixpoint.
        selects.sort_unstable_by_key(|&(g, _)| Reverse(g));
        for &(g, c) in &selects {
            demands.copy(g as usize, c as usize);
        }
        let orders = interner.orders;

        // 2. One state per (group, interesting order). Each group's list
        // is sorted by the orders' values, never by id: the order must not
        // depend on memo expression enumeration order, or an evolved batch
        // and a fresh rebuild of the same queries would break equal-cost
        // ties between plans differently. The empty order sorts first, so
        // slot 0 is the unordered requirement.
        let mut state_off: Vec<u32> = Vec::with_capacity(n + 1);
        let mut state_order: Vec<u32> = Vec::with_capacity(demands.order.len());
        let mut group_of_state: Vec<u32> = Vec::with_capacity(demands.order.len());
        state_off.push(0);
        for d in 0..n {
            let s0 = state_order.len();
            state_order.extend(demands.iter(d));
            state_order[s0..]
                .sort_unstable_by(|&a, &b| orders[a as usize].cmp(&orders[b as usize]));
            debug_assert_eq!(state_order[s0], NO_ORDER);
            group_of_state.resize(state_order.len(), d as u32);
            state_off.push(state_order.len() as u32);
        }
        let n_states = state_order.len();
        debug_assert!(
            n_states < OPT_SPILL as usize,
            "state count collides with packed-child sentinels"
        );
        let blocks: Vec<f64> = topo
            .order()
            .iter()
            .map(|&g| memo.props(g).blocks(cm.block_size()))
            .collect();

        // 3. Emission, group by group: every expression's options go into
        // one reused buffer, which is bucketed by requirement and appended
        // to the final arenas in state order.
        let cx = EmitCx {
            memo,
            cm,
            topo: &topo,
            orders: &orders,
            state_off: &state_off,
            state_order: &state_order,
            blocks: &blocks,
            expr_orders: &expr_orders,
        };
        // Sized for four options (eight children) per live expression,
        // above the 3.7–3.9 every TPCD and generated batch measured; a
        // batch that emits more grows the arenas as usual.
        let n_opts = 4 * memo.n_exprs() + 1;
        let mut opt_off: Vec<u32> = Vec::with_capacity(n_states + 1);
        opt_off.push(0);
        let mut opt_cost: Vec<f64> = Vec::with_capacity(n_opts);
        let mut child_off: Vec<u32> = Vec::with_capacity(n_opts + 1);
        child_off.push(0);
        let mut opt_children: Vec<u32> = Vec::with_capacity(2 * n_opts);
        let mut opt_c0: Vec<u32> = Vec::with_capacity(n_opts);
        let mut opt_c1: Vec<u32> = Vec::with_capacity(n_opts);
        let mut opt_out: Vec<OutOrder> = Vec::with_capacity(n_opts);
        let mut opt_phys: Vec<OptPhys> = Vec::with_capacity(n_opts);
        let mut group = GroupOptions::default();
        for (gi, &g) in topo.order().iter().enumerate() {
            group.opts.clear();
            group.children.clear();
            for e in memo.group_exprs(g) {
                cx.emit_expr(e, gi, &mut group);
            }
            group.bucket((state_off[gi + 1] - state_off[gi]) as usize);
            for &i in &group.by_slot {
                let opt = group.opts[i as usize];
                let children = &group.children[opt.children.0 as usize..opt.children.1 as usize];
                let (c0, c1) = match *children {
                    [] => (OPT_NONE, OPT_NONE),
                    [c0] => (c0, OPT_NONE),
                    [c0, c1] => (c0, c1),
                    _ => (OPT_SPILL, OPT_NONE),
                };
                opt_cost.push(opt.cost);
                opt_children.extend_from_slice(children);
                child_off.push(opt_children.len() as u32);
                opt_c0.push(c0);
                opt_c1.push(c1);
                opt_out.push(opt.out);
                opt_phys.push(opt.phys);
            }
            let base = *opt_off.last().expect("opt_off starts at 0");
            opt_off.extend(group.slot_end.iter().map(|&end| base + end));
        }

        let mut read: Vec<f64> = Vec::with_capacity(n_states);
        let mut write: Vec<f64> = Vec::with_capacity(n);
        let mut sort: Vec<f64> = Vec::with_capacity(n);
        for gi in 0..n {
            // Read costs are finalized after the natural storage orders are
            // known (see below); start with the plain read cost.
            read.extend(std::iter::repeat_n(
                cm.materialize_read(blocks[gi]),
                (state_off[gi + 1] - state_off[gi]) as usize,
            ));
            write.push(cm.materialize_write(blocks[gi]));
            sort.push(cm.sort(blocks[gi]));
        }

        let universe_dense: Vec<u32> = universe.iter().map(|&g| topo.dense(g)).collect();
        let mut elem_of_dense = vec![u32::MAX; n];
        for (i, &d) in universe_dense.iter().enumerate() {
            elem_of_dense[d as usize] = i as u32;
        }

        let root = topo.dense(root);
        // The overlay walk leaves the root to a separate pass
        // (`overlay_eval_with`), which is exact only for a sink that
        // carries no element term.
        assert!(
            topo.parents(root as usize).is_empty() && elem_of_dense[root as usize] == u32::MAX,
            "the engine root must have no parents and not be shareable"
        );
        let rows: Vec<f64> = topo.order().iter().map(|&g| memo.props(g).rows).collect();
        let mut arenas = EngineArenas {
            topo,
            state_off,
            opt_off,
            opt_cost,
            child_off,
            opt_children,
            opt_c0,
            opt_c1,
            read,
            write,
            sort,
            root,
            universe_dense,
            elem_of_dense,
            opt_phys,
            opt_out,
            orders,
            state_order,
            natural_order: Vec::new(),
            group_of_state,
            mat_cost: Vec::new(),
            rows,
            empty_compute: Vec::new(),
            empty_use: Vec::new(),
            empty_total: 0.0,
        };
        // Solve the no-materialization state once; the winning production
        // plans determine the natural order each result would be stored in
        // (materialized results are written out by their cheapest production
        // plan; consumers whose demanded order is a prefix of the stored
        // order read them without sorting).
        let mut compute = Vec::new();
        let mut use_ = Vec::new();
        arenas.full_solve_into(&BitSet::empty(universe.len()), &mut compute, &mut use_);
        let natural = arenas.resolve_natural_orders(&use_);
        let EngineArenas {
            orders,
            state_order,
            group_of_state,
            read,
            sort,
            ..
        } = &mut arenas;
        for (s, &d) in group_of_state.iter().enumerate() {
            let d = d as usize;
            if !orders[natural[d] as usize].satisfies(&orders[state_order[s] as usize]) {
                read[s] += sort[d];
            }
        }
        arenas.natural_order = natural;
        arenas.mat_cost = arenas
            .universe_dense
            .iter()
            .map(|&d| compute[arenas.state_off[d as usize] as usize] + arenas.write[d as usize])
            .collect();
        // The solved ∅ state is kept in the arenas: every handle starts
        // its committed base from these by copy.
        arenas.empty_total = arenas.total_from_slice(&BitSet::empty(universe.len()), &compute);
        arenas.empty_compute = compute;
        arenas.empty_use = use_;
        arenas
    }

    /// The sort order behind an interned order id.
    pub(crate) fn order(&self, id: u32) -> &SortOrder {
        &self.orders[id as usize]
    }

    /// Standalone (`S = ∅`) materialization cost of each universe element:
    /// compute-from-scratch plus write. This is the additive cost vector
    /// the cost-based decomposition of the universe-reduction pre-pass
    /// uses.
    pub fn materialization_costs(&self) -> &[f64] {
        &self.mat_cost
    }

    /// Resolves the natural output order of each group's winning
    /// (unordered-requirement) production plan, bottom-up over the final
    /// flat arenas. `use_` must be the solved state for `S = ∅`.
    fn resolve_natural_orders(&self, use_: &[f64]) -> Vec<u32> {
        let n = self.topo.len();
        let mut natural: Vec<u32> = Vec::with_capacity(n);
        for d in 0..n {
            let s0 = self.state_off[d] as usize;
            let mut best: Option<(f64, usize)> = None;
            for o in self.opt_off[s0] as usize..self.opt_off[s0 + 1] as usize {
                let mut cost = 0.0;
                for &c in
                    &self.opt_children[self.child_off[o] as usize..self.child_off[o + 1] as usize]
                {
                    cost += use_[c as usize];
                }
                cost += self.opt_cost[o];
                if best.is_none_or(|(b, _)| cost < b) {
                    best = Some((cost, o));
                }
            }
            let order = match best {
                Some((_, o)) => match self.opt_out[o] {
                    OutOrder::Fixed(order) => order,
                    OutOrder::InheritChild0 => {
                        let child_state = self.opt_children[self.child_off[o] as usize] as usize;
                        let child = self.group_of_state[child_state] as usize;
                        debug_assert!(child < d, "children precede parents");
                        natural[child]
                    }
                },
                None => NO_ORDER,
            };
            natural.push(order);
        }
        natural
    }

    /// The shareable universe size.
    pub fn universe_size(&self) -> usize {
        self.universe_dense.len()
    }

    /// Number of compiled `(group, order)` DP states.
    pub fn n_states(&self) -> usize {
        self.read.len()
    }

    /// Solves the full DP for `set` into fresh `(compute, use)` arenas for
    /// plan extraction, returning the sanitized set alongside them. The
    /// committed base and the overlay scratch are untouched — extraction
    /// never perturbs the oracle's incremental state.
    pub(crate) fn solve_for_extraction(&self, set: &BitSet) -> (BitSet, Vec<f64>, Vec<f64>) {
        let set = self.sanitize(set).into_owned();
        let mut compute = Vec::new();
        let mut use_ = Vec::new();
        self.full_solve_into(&set, &mut compute, &mut use_);
        (set, compute, use_)
    }

    /// Whether dense group `d` is materialized under `set` (extraction
    /// helper; `set` must be over this engine's universe).
    pub(crate) fn materialized(&self, d: usize, set: &BitSet) -> bool {
        self.in_set(d, set)
    }

    /// A fresh, zeroed scratch sized for this engine's arenas. A handle's
    /// pool holds one per worker of [`BestCostEngine::bc_many`].
    fn new_scratch(&self) -> EngineScratch {
        EngineScratch::new(self.n_states(), self.topo.len())
    }

    /// Validates a candidate set against the engine's shareable universe.
    ///
    /// A bit at or above [`Self::universe_size`] has no dense-map entry and
    /// would index past `universe_dense`. Debug builds assert on any
    /// universe mismatch; release builds **truncate** — out-of-range bits
    /// are ignored (and a smaller universe is zero-extended), so `bc` of a
    /// malformed set equals `bc` of its in-range projection.
    fn sanitize<'a>(&self, set: &'a BitSet) -> Cow<'a, BitSet> {
        let n = self.universe_size();
        debug_assert_eq!(
            set.universe(),
            n,
            "candidate set universe {} does not match the engine's shareable universe {n} \
             (bits >= {n} are ignored in release builds)",
            set.universe(),
        );
        self.truncate_to_universe(set)
    }

    /// The release-mode truncation behind [`Self::sanitize`]: projects a
    /// set of any universe onto the engine's, dropping bits at or above
    /// [`Self::universe_size`] and zero-extending smaller universes.
    fn truncate_to_universe<'a>(&self, set: &'a BitSet) -> Cow<'a, BitSet> {
        let n = self.universe_size();
        if set.universe() == n {
            Cow::Borrowed(set)
        } else {
            Cow::Owned(BitSet::from_iter(n, set.iter().filter(|&e| e < n)))
        }
    }

    /// `bc(S)` from a fully solved per-state compute arena.
    pub(crate) fn total_from_slice(&self, set: &BitSet, compute: &[f64]) -> f64 {
        let mut total = compute[self.state_off[self.root as usize] as usize];
        for e in set.iter() {
            let d = self.universe_dense[e] as usize;
            total += compute[self.state_off[d] as usize] + self.write[d];
        }
        total
    }

    /// Whether dense group `d` is materialized under `set`.
    fn in_set(&self, d: usize, set: &BitSet) -> bool {
        let e = self.elem_of_dense[d];
        e != u32::MAX && set.contains(e as usize)
    }

    /// Full evaluation without committing: solves into the scratch's
    /// overlay arenas (reused, never reallocated) and totals from them.
    fn full_eval_with(&self, scratch: &mut EngineScratch, set: &BitSet) -> f64 {
        let mut compute = std::mem::take(&mut scratch.compute);
        let mut use_ = std::mem::take(&mut scratch.use_);
        self.full_solve_into(set, &mut compute, &mut use_);
        let total = self.total_from_slice(set, &compute);
        // Stale epoch stamps never equal a later epoch, so clobbering the
        // overlay values cannot leak into later overlay evaluations.
        scratch.compute = compute;
        scratch.use_ = use_;
        total
    }

    /// Full bottom-up DP into caller-provided arenas (resized to fit).
    fn full_solve_into(&self, set: &BitSet, compute: &mut Vec<f64>, use_: &mut Vec<f64>) {
        let n_states = self.n_states();
        compute.clear();
        compute.resize(n_states, 0.0);
        use_.clear();
        use_.resize(n_states, 0.0);
        for d in 0..self.topo.len() {
            let s0 = self.state_off[d] as usize;
            let s1 = self.state_off[d + 1] as usize;
            let materialized = self.in_set(d, set);
            // Children live in strictly earlier groups, so their `use` costs
            // are fully resolved in the prefix below `s0`.
            let (use_done, use_cur) = use_.split_at_mut(s0);
            for s in s0..s1 {
                let best = self.best_option(s, |c| use_done[c]);
                let best = if s > s0 {
                    best.min(compute[s0] + self.sort[d])
                } else {
                    best
                };
                compute[s] = best;
                use_cur[s - s0] = if materialized {
                    self.read[s].min(best)
                } else {
                    best
                };
            }
        }
    }

    /// `min` over the options of state `s` given resolved child `use`
    /// costs. Children are summed first (in child order) and the operator
    /// cost added last — the same association the reference optimizer uses
    /// — so the two symmetric orientations of a join tie *exactly* and the
    /// first emitted option wins, keeping extracted plans identical to the
    /// reference extractor's. Reads the packed `opt_c0`/`opt_c1` child
    /// slots; only a rare wide option ([`OPT_SPILL`], the batch root)
    /// falls back to the `child_off`/`opt_children` CSR, with the same
    /// left-to-right summation.
    #[inline]
    fn best_option(&self, s: usize, child_use: impl Fn(usize) -> f64) -> f64 {
        let mut best = f64::INFINITY;
        for o in self.opt_off[s] as usize..self.opt_off[s + 1] as usize {
            let cost = self.option_cost(o, &child_use);
            if cost < best {
                best = cost;
            }
        }
        best
    }

    /// Cost of one option given resolved child `use` costs — the exact
    /// inner summation of [`Self::best_option`] (children left-to-right,
    /// operator cost last), shared with plan extraction's winner recovery
    /// so the recovered winner agrees with the solve bit for bit.
    #[inline]
    pub(crate) fn option_cost(&self, o: usize, child_use: &impl Fn(usize) -> f64) -> f64 {
        let c0 = self.opt_c0[o];
        let mut cost = 0.0;
        if c0 == OPT_SPILL {
            for &c in &self.opt_children[self.child_off[o] as usize..self.child_off[o + 1] as usize]
            {
                cost += child_use(c as usize);
            }
        } else if c0 != OPT_NONE {
            cost += child_use(c0 as usize);
            let c1 = self.opt_c1[o];
            if c1 != OPT_NONE {
                cost += child_use(c1 as usize);
            }
        }
        cost + self.opt_cost[o]
    }
}

impl BestCostEngine {
    /// `(full, incremental)` evaluation counts. `full` counts bottom-up
    /// solves: `force_full` answers, candidates past the rebase threshold,
    /// and full-solve rebases. A rebase within the threshold — the
    /// per-round commit of a greedy run — is committed incrementally and
    /// counts as neither. `incremental` counts every answer served off the
    /// committed base: the base itself, overlays, and cone-memo reuses
    /// ([`Self::cone_reuses`]). Both are summed over the scratch pool.
    pub fn eval_counts(&self) -> (u64, u64) {
        self.scratches.iter().fold((0, 0), |(full, inc), s| {
            (full + s.full_evals, inc + s.incremental_evals)
        })
    }

    /// `bc(set)`, answered from the committed base (see the module docs:
    /// the answer is exact per state, but its total's last bits depend on
    /// where the base stands). `bc(∅)`'s dense state is the committed base
    /// right after construction.
    pub fn bc(&mut self, set: &BitSet) -> f64 {
        // Chaos-test site: fires on the calling thread at oracle entry, so
        // an injected "oracle blows up" reproduces identically at every
        // MQO_THREADS setting (worker shards never see the armed TLS).
        crate::fault::hit(crate::fault::FaultSite::OracleEval);
        let set = self.sanitize(set);
        let mut scratch = std::mem::take(&mut self.scratches[0]);
        let v = self.bc_one(&mut scratch, set.as_ref());
        self.scratches[0] = scratch;
        v
    }

    /// One serial evaluation: ablation, base, overlay, or — past the rebase
    /// threshold — a committed full solve (the base drifts with the query).
    fn bc_one(&mut self, scratch: &mut EngineScratch, set: &BitSet) -> f64 {
        if self.config.force_full {
            scratch.full_evals += 1;
            return self.full_eval_with(scratch, set);
        }
        // The rebase decision needs only `|set △ base|` vs the threshold,
        // not the diff elements: the capped fused kernel answers it in one
        // blocked pass with an early exit, and the diff buffer is
        // materialized only when the overlay path actually consumes it.
        let dist = set.symmetric_difference_len_capped(&self.base_set, REBASE_THRESHOLD);
        if dist == 0 {
            scratch.incremental_evals += 1;
            return self.base_total;
        }
        if dist > REBASE_THRESHOLD {
            // Too far from base: rebase (full solve) and answer from it.
            self.rebase_with(scratch, set);
            return self.base_total;
        }
        self.load_diff(scratch, set);
        scratch.incremental_evals += 1;
        self.overlay_eval_with(scratch, set)
    }

    /// One evaluation against the committed base **without mutating it** —
    /// the per-candidate function of [`Self::bc_many`], where the base is
    /// shared immutably across the fan-out's workers. The `force_full`
    /// ablation full-solves every candidate. Otherwise a candidate past
    /// the rebase threshold is answered by a full (uncommitted) solve into
    /// the worker's scratch: same value as [`Self::bc`]'s threshold-rebase,
    /// different bookkeeping. A candidate one element off the base goes
    /// through the cone memo ([`Self::cone_eval`]).
    fn bc_from_base(&self, scratch: &mut EngineScratch, set: &BitSet) -> f64 {
        if self.config.force_full {
            scratch.full_evals += 1;
            return self.full_eval_with(scratch, set);
        }
        let dist = set.symmetric_difference_len_capped(&self.base_set, REBASE_THRESHOLD);
        if dist == 0 {
            scratch.incremental_evals += 1;
            return self.base_total;
        }
        if dist > REBASE_THRESHOLD {
            scratch.full_evals += 1;
            return self.full_eval_with(scratch, set);
        }
        self.load_diff(scratch, set);
        scratch.incremental_evals += 1;
        if dist == 1 {
            let elem = scratch.diff_buf[0];
            return self.cone_eval(scratch, set, elem);
        }
        self.overlay_eval_with(scratch, set)
    }

    /// Evaluates `bc` on every set of a batch — a greedy round's candidates
    /// — against one shared base: the committed base is aligned with the
    /// intersection of the batch once, then every candidate takes the
    /// same per-candidate path (`bc_from_base`). For round-shaped batches
    /// (`X ∪ {x}` per candidate) every diff is a single element, so each
    /// answer is a minimal overlay. Under the `force_full` ablation the
    /// intersection rebase is skipped and every candidate is full-solved.
    ///
    /// The candidates go through [`fan_out`]: with [`MqoConfig::threads`]
    /// workers, contiguous chunks run on the handle's scratch pool, chunk 0
    /// on the calling thread with the caller's scratch, over the shared
    /// immutable arenas and the same committed base. A candidate past the
    /// rebase threshold full-solves into its worker's scratch without
    /// committing, so the base never drifts mid-batch; one worker runs the
    /// whole batch inline. Every thread count therefore runs identical
    /// per-candidate code from the identical base and returns
    /// **bit-identical** values — only the work distribution differs.
    /// (The single-set [`Self::bc`] entry point still commits a rebase on
    /// far sets and drifts with its caller's query sequence.)
    ///
    /// **Round-to-round cone reuse.** A candidate one element `e` off the
    /// base is answered from the handle's cone memo when the last
    /// commits left `e`'s recorded dirty cone untouched: only the root
    /// pass is replayed, bit-identical to a fresh overlay (see
    /// [`Self::cone_reuses`]). Every candidate is classified against the
    /// memo as it stood when the batch began, and the batch's fresh cones
    /// are absorbed after it in pool order, which is slot order, so memo
    /// state, values and reuse counts are identical at every thread count.
    /// Since the base is the batch intersection, a one-element diff is
    /// always an addition; removal-shaped sets (`X∖{e}`) never reach the
    /// memo.
    pub fn bc_many(&mut self, sets: &[BitSet]) -> Vec<f64> {
        // See `bc`: injected oracle faults fire here on the caller thread.
        crate::fault::hit(crate::fault::FaultSite::OracleEval);
        let sets: Vec<Cow<BitSet>> = sets.iter().map(|s| self.sanitize(s)).collect();
        if let (false, Some((first, rest))) = (self.config.force_full, sets.split_first()) {
            // For candidates X ∪ {x} of a greedy round over base X, the
            // intersection is exactly X. The pooled buffer makes the whole
            // round allocation-free at steady state.
            let mut shared = std::mem::replace(&mut self.shared_buf, BitSet::empty(0));
            shared.copy_from(first);
            for s in rest {
                shared.intersect_with(s);
            }
            if shared != self.base_set {
                self.rebase(&shared);
            }
            self.shared_buf = shared;
        }
        let workers = self.config.effective_threads(sets.len());
        let mut pool = std::mem::take(&mut self.scratches);
        while pool.len() < workers {
            pool.push(self.new_scratch());
        }
        let mut out = vec![0.0f64; sets.len()];
        let engine: &BestCostEngine = self;
        fan_out(
            &sets,
            &mut out,
            &mut pool[..workers],
            |scratch, set, slot| {
                *slot = engine.bc_from_base(scratch, set);
            },
        );
        let (n_groups, u) = (self.topo.len(), self.universe_size());
        for scratch in &mut pool[..workers] {
            self.cones.absorb(scratch, n_groups, u);
        }
        self.scratches = pool;
        out
    }

    /// Single-element candidates of [`Self::bc_many`] answered from the
    /// cone memo instead of a fresh overlay, summed over the scratch pool
    /// like [`Self::eval_counts`]. Every reuse is also counted as an
    /// incremental evaluation.
    pub fn cone_reuses(&self) -> u64 {
        self.scratches.iter().map(|s| s.cone_reuses).sum()
    }

    /// Commits `set` as the new base state.
    pub fn rebase(&mut self, set: &BitSet) {
        let set = self.sanitize(set);
        let mut scratch = std::mem::take(&mut self.scratches[0]);
        self.rebase_with(&mut scratch, set.as_ref());
        self.scratches[0] = scratch;
    }

    /// [`Self::rebase`] against a caller-held scratch. Its overlay values
    /// were relative to the old base; they need no clearing, since their
    /// stamps are older than any later epoch.
    ///
    /// A target within [`REBASE_THRESHOLD`] elements of the current base is
    /// committed *incrementally*, as its own overlay written back: the
    /// greedy's every-round commit moves the base by exactly one element
    /// (the new pick), and a full bottom-up solve per round is the dominant
    /// fixed cost of large-universe selection. The commit
    ///
    /// 1. runs the overlay's cone pass, and its root pass if the cone
    ///    reached the root, into the scratch;
    /// 2. copies the stamped states of every popped group (the cone and
    ///    the root) into the base arenas, stamping each group with a new
    ///    cone-memo generation, which retires the memo entries whose cones
    ///    it touched;
    /// 3. re-sums the base total with the same flat sum as a full solve
    ///    (not `base_total + Δ`, whose rounding differs).
    ///
    /// This is bit-identical to the full solve it replaces: a state outside
    /// the cone has no changed input (children's `use` and its own
    /// materialization flag are unchanged), so a full solve would
    /// recompute exactly the value it already holds; a state inside the
    /// cone applies the identical accumulation order over identical child
    /// values. Past the threshold — or while the base arenas are not yet
    /// solved — the full solve runs, moving the base without stamping.
    fn rebase_with(&mut self, scratch: &mut EngineScratch, set: &BitSet) {
        if self.base_compute.len() == self.n_states() {
            let dist = set.symmetric_difference_len_capped(&self.base_set, REBASE_THRESHOLD);
            if dist == 0 {
                // The base already *is* this set; its arenas are exact.
                return;
            }
            if dist <= REBASE_THRESHOLD {
                self.load_diff(scratch, set);
                let epoch = scratch.advance_epoch();
                let (_, reached_root) = self.cone_pass(scratch, set, epoch);
                if reached_root {
                    self.root_pass(scratch, epoch);
                }
                self.cones.gen += 1;
                let root = reached_root.then_some(self.root);
                for &d in scratch.cone_buf.iter().chain(&root) {
                    let du = d as usize;
                    // Empty until the memo records its first cone.
                    if let Some(g) = self.cones.group_gen.get_mut(du) {
                        *g = self.cones.gen;
                    }
                    let states = self.state_off[du] as usize..self.state_off[du + 1] as usize;
                    self.base_compute[states.clone()]
                        .copy_from_slice(&scratch.compute[states.clone()]);
                    self.base_use[states.clone()].copy_from_slice(&scratch.use_[states]);
                }
                self.base_set.copy_from(set);
                self.base_total = self.total_from_slice(set, &self.base_compute);
                return;
            }
        }
        scratch.full_evals += 1;
        let mut compute = std::mem::take(&mut self.base_compute);
        let mut use_ = std::mem::take(&mut self.base_use);
        self.full_solve_into(set, &mut compute, &mut use_);
        self.base_compute = compute;
        self.base_use = use_;
        self.base_set = set.clone();
        self.base_total = self.total_from_slice(set, &self.base_compute);
        self.cones.invalidate_all();
    }

    /// Fills the scratch's diff buffer with the symmetric difference
    /// `set △ base`.
    fn load_diff(&self, scratch: &mut EngineScratch, set: &BitSet) {
        scratch.diff_buf.clear();
        scratch
            .diff_buf
            .extend(set.symmetric_difference_iter(&self.base_set));
    }

    /// Overlay DP: recompute only the cone above the groups in the diff
    /// buffer, writing into the scratch's epoch-stamped arenas.
    /// Allocation-free at steady state: the worklist heap and overlay
    /// arenas live in the scratch and are reused across evaluations.
    ///
    /// The total is answered as `base_total + Δ` rather than re-summing
    /// every materialized element: a group outside the dirty cone holds
    /// exactly its base value (bit-identical — the cone DP reads identical
    /// inputs in identical order), so only cone groups can shift the
    /// element sum, and `Δ` is accumulated while they are processed. The
    /// accumulation order follows the cone walk (deterministic: a min-heap
    /// over dense topological indices), so the returned value is a pure
    /// function of `(base, set)` — identical across thread counts and
    /// shard boundaries — though its floating-point grouping differs from
    /// a from-scratch full solve's flat sum by design (the differential
    /// suites pin overlay ≡ full to 1e-9 relative, and every thread count
    /// to every other bitwise).
    ///
    /// The walk is split into a cone pass over every popped group but the
    /// batch root, then a root pass, with the answer
    /// `base_total + (δ_cone + δ_root)`. The root has no parents and is
    /// not shareable (asserted at compile), so it queues nothing and adds
    /// no element delta, and all its children are popped before it: the
    /// split is the same arithmetic as one walk — and it is what lets
    /// [`Self::bc_many`] replay a cached cone pass with only a fresh root
    /// pass.
    fn overlay_eval_with(&self, scratch: &mut EngineScratch, set: &BitSet) -> f64 {
        let epoch = scratch.advance_epoch();
        let (delta, reached_root) = self.cone_pass(scratch, set, epoch);
        self.close_overlay(scratch, epoch, delta, reached_root)
    }

    /// The cone pass of [`Self::overlay_eval_with`]: seeds the diff
    /// buffer's groups, recomputes the dirty cone bottom-up into the
    /// scratch's epoch-stamped arenas, and returns the accumulated `δ_cone`
    /// plus whether the cone reached the root, which is left to
    /// [`Self::root_pass`]. The popped non-root groups are left in the
    /// scratch's cone buffer, in pop order.
    fn cone_pass(&self, scratch: &mut EngineScratch, set: &BitSet, epoch: u64) -> (f64, bool) {
        let EngineScratch {
            compute: scratch_compute,
            use_: scratch_use,
            state_epoch,
            dirty,
            queued_epoch,
            diff_buf,
            cone_buf,
            ..
        } = scratch;
        cone_buf.clear();

        for &e in diff_buf.iter() {
            let d = self.universe_dense[e];
            if queued_epoch[d as usize] != epoch {
                queued_epoch[d as usize] = epoch;
                dirty.push(Reverse(d));
            }
        }
        // Dense index == topological position, so the min-heap processes
        // the dirty cone bottom-up; parents always rank above the group
        // being processed, so nothing is ever re-queued after processing.
        let mut reached_root = false;
        let mut delta = 0.0f64;
        while let Some(Reverse(d)) = dirty.pop() {
            if d == self.root {
                reached_root = true;
                continue;
            }
            cone_buf.push(d);
            let du = d as usize;
            let s0 = self.state_off[du] as usize;
            let materialized = self.in_set(du, set);
            let changed = self.overlay_group(
                du,
                materialized,
                epoch,
                scratch_compute,
                scratch_use,
                state_epoch,
            );
            // Element-sum correction for this group: a materialized
            // element contributes `compute[s0] + write`; the base total
            // already carries the base-side term whenever the element is
            // in the base set. (Diff elements are always seeded into the
            // cone, so a membership flip is never missed.)
            let in_base = self.in_set(du, &self.base_set);
            if materialized {
                if in_base {
                    delta += scratch_compute[s0] - self.base_compute[s0];
                } else {
                    delta += scratch_compute[s0] + self.write[du];
                }
            } else if in_base {
                delta -= self.base_compute[s0] + self.write[du];
            }
            if changed {
                for &p in self.topo.parents(du) {
                    if queued_epoch[p as usize] != epoch {
                        queued_epoch[p as usize] = epoch;
                        dirty.push(Reverse(p));
                    }
                }
            }
        }
        (delta, reached_root)
    }

    /// Recomputes every state of group `du` from the live overlay (stamped
    /// children) over the base, stamping the results; returns whether any
    /// state's `use` differs from its base value.
    #[inline]
    fn overlay_group(
        &self,
        du: usize,
        materialized: bool,
        epoch: u64,
        scratch_compute: &mut [f64],
        scratch_use: &mut [f64],
        state_epoch: &mut [u64],
    ) -> bool {
        let s0 = self.state_off[du] as usize;
        let s1 = self.state_off[du + 1] as usize;
        let mut changed = false;
        for s in s0..s1 {
            let best = self.best_option(s, |c| {
                if state_epoch[c] == epoch {
                    scratch_use[c]
                } else {
                    self.base_use[c]
                }
            });
            let best = if s > s0 {
                best.min(scratch_compute[s0] + self.sort[du])
            } else {
                best
            };
            scratch_compute[s] = best;
            let u = if materialized {
                self.read[s].min(best)
            } else {
                best
            };
            scratch_use[s] = u;
            state_epoch[s] = epoch;
            if u != self.base_use[s] {
                changed = true;
            }
        }
        changed
    }

    /// The root pass: recomputes the batch root from the live overlay and
    /// returns `δ_root`, the shift of the base total's leading term.
    fn root_pass(&self, scratch: &mut EngineScratch, epoch: u64) -> f64 {
        let root = self.root as usize;
        self.overlay_group(
            root,
            false,
            epoch,
            &mut scratch.compute,
            &mut scratch.use_,
            &mut scratch.state_epoch,
        );
        let root_s = self.state_off[root] as usize;
        scratch.compute[root_s] - self.base_compute[root_s]
    }

    /// `base_total + (δ_cone + δ_root)`, running the root pass if the cone
    /// reached the root.
    fn close_overlay(
        &self,
        scratch: &mut EngineScratch,
        epoch: u64,
        delta: f64,
        reached_root: bool,
    ) -> f64 {
        if reached_root {
            self.base_total + (delta + self.root_pass(scratch, epoch))
        } else {
            self.base_total + delta
        }
    }

    /// A single-element overlay of [`Self::bc_many`] for element `elem`:
    /// replayed from the cone memo when the entry is still valid, else
    /// evaluated fresh and recorded in the scratch for the memo.
    fn cone_eval(&self, scratch: &mut EngineScratch, set: &BitSet, elem: usize) -> f64 {
        let epoch = scratch.advance_epoch();
        if let Some(entry) = self.cones.valid(elem) {
            scratch.cone_reuses += 1;
            // Re-stamp the root-child states the cone pass left live, so
            // the root pass reads exactly the values it read then.
            for &(s, u) in &entry.root_uses {
                scratch.use_[s as usize] = u;
                scratch.state_epoch[s as usize] = epoch;
            }
            return self.close_overlay(scratch, epoch, entry.delta, entry.reached_root);
        }
        let (delta, reached_root) = self.cone_pass(scratch, set, epoch);
        scratch.rec_cone.extend_from_slice(&scratch.cone_buf);
        if reached_root {
            let root = self.root as usize;
            let states = self.state_off[root] as usize..self.state_off[root + 1] as usize;
            for o in self.opt_off[states.start] as usize..self.opt_off[states.end] as usize {
                let children = self.child_off[o] as usize..self.child_off[o + 1] as usize;
                for &c in &self.opt_children[children] {
                    if scratch.state_epoch[c as usize] == epoch {
                        scratch.rec_roots.push((c, scratch.use_[c as usize]));
                    }
                }
            }
        }
        scratch.records.push(ConeRecord {
            elem: elem as u32,
            cone_end: scratch.rec_cone.len() as u32,
            roots_end: scratch.rec_roots.len() as u32,
            delta,
            reached_root,
        });
        self.close_overlay(scratch, epoch, delta, reached_root)
    }
}

/// A versioned, immutable snapshot of everything a reader needs to
/// optimize and extract plans for a committed batch: the compiled
/// [`EngineArenas`], the shareable universe (element `i` ↔ `shareable[i]`),
/// and the dense indices of the live query roots in ticket order.
///
/// Snapshots are published behind `Arc` by
/// [`crate::session::OptimizedBatch::snapshot`] after every evolution
/// commit; concurrent readers clone the `Arc`, spin up per-caller
/// [`BestCostEngine`] handles via [`EngineState::engine`], and keep
/// working off their snapshot even while a writer commits and publishes a
/// newer one — snapshot isolation falls out of immutability.
pub struct EngineState {
    /// [`Memo::version`] at compile time — monotone, so two distinct
    /// batch states can never share a snapshot version.
    version: u64,
    arenas: Arc<EngineArenas>,
    /// Shareable universe: element `i` is group `shareable[i]`.
    shareable: Vec<GroupId>,
    /// Dense (topological) indices of the live query roots, ticket order.
    query_roots: Vec<u32>,
}

impl EngineState {
    /// Assembles a snapshot; callers guarantee `arenas` was compiled from
    /// the memo state stamped `version`.
    pub(crate) fn assemble(
        version: u64,
        arenas: Arc<EngineArenas>,
        shareable: Vec<GroupId>,
        query_roots: Vec<u32>,
    ) -> Self {
        EngineState {
            version,
            arenas,
            shareable,
            query_roots,
        }
    }

    /// The memo version this snapshot was compiled at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The shareable-universe size.
    pub fn universe_size(&self) -> usize {
        self.shareable.len()
    }

    /// The shareable universe: element `i` is group `shareable()[i]`.
    pub fn shareable(&self) -> &[GroupId] {
        &self.shareable
    }

    /// Number of live queries in the snapshot.
    pub fn n_queries(&self) -> usize {
        self.query_roots.len()
    }

    /// Dense indices of the live query roots (extraction input).
    pub(crate) fn query_roots_dense(&self) -> &[u32] {
        &self.query_roots
    }

    /// The shared compiled arenas.
    pub fn arenas(&self) -> &Arc<EngineArenas> {
        &self.arenas
    }

    /// A fresh per-caller engine handle over the snapshot's arenas (two
    /// array copies and a zeroed scratch — no recompilation). Handles are
    /// independent: each owns its committed base and overlay scratch, so
    /// any number of readers can evaluate concurrently.
    pub fn engine(&self, config: MqoConfig) -> BestCostEngine {
        BestCostEngine::from_arenas(Arc::clone(&self.arenas), config)
    }
}

/// Spanning merge-join keys (same logic as the volcano optimizer, inlined
/// here for compilation), written into `lk`/`rk`; false when no
/// equi-conjunct spans the two sides.
fn join_keys(
    memo: &Memo,
    pred: &mqo_volcano::Predicate,
    l: GroupId,
    r: GroupId,
    lk: &mut Vec<ColId>,
    rk: &mut Vec<ColId>,
) -> bool {
    lk.clear();
    rk.clear();
    for &(a, b) in &pred.equi {
        if memo.group_covers(l, a) && memo.group_covers(r, b) {
            lk.push(a);
            rk.push(b);
        } else if memo.group_covers(l, b) && memo.group_covers(r, a) {
            lk.push(b);
            rk.push(a);
        }
    }
    !lk.is_empty()
}

/// What option emission reads: the memo, the cost model, the dense maps,
/// the interned orders with every group's requirement list, and the
/// per-expression key orders of the orders pass.
struct EmitCx<'a> {
    memo: &'a Memo,
    cm: &'a dyn CostModel,
    topo: &'a TopoView,
    orders: &'a [SortOrder],
    state_off: &'a [u32],
    state_order: &'a [u32],
    blocks: &'a [f64],
    expr_orders: &'a [[u32; 2]],
}

impl EmitCx<'_> {
    /// The requirement ids of dense group `d`, in slot order.
    fn reqs(&self, d: usize) -> &[u32] {
        &self.state_order[self.state_off[d] as usize..self.state_off[d + 1] as usize]
    }

    /// Whether a stream in order `out` satisfies requirement `req`.
    fn satisfies(&self, out: u32, req: u32) -> bool {
        self.orders[out as usize].satisfies(&self.orders[req as usize])
    }

    /// The flat state of dense group `d` whose requirement is `order`.
    fn state(&self, d: usize, order: u32, what: &str) -> u32 {
        let slot = self.reqs(d).iter().position(|&o| o == order);
        self.state_off[d] + slot.unwrap_or_else(|| panic!("{what}")) as u32
    }

    /// Emits the physical options of memo expression `e` of dense group
    /// `gi` into `out`: per option its requirement slot, operator cost,
    /// child states, output order and provenance.
    fn emit_expr(&self, e: ExprId, gi: usize, out: &mut GroupOptions) {
        let (memo, cm, blocks) = (self.memo, self.cm, self.blocks);
        let reqs = self.reqs(gi);
        match memo.op(e) {
            LogicalOp::Scan(inst) => {
                let order = self.expr_orders[e.0 as usize][0];
                let op_cost = cm.table_scan(blocks[gi]);
                for (j, &req) in reqs.iter().enumerate() {
                    if self.satisfies(order, req) {
                        let phys = OptPhys::new(e, OpTag::TableScan(*inst));
                        out.emit(j, op_cost, [], OutOrder::Fixed(order), phys);
                    }
                }
            }
            LogicalOp::Select(pred) => {
                let c = memo.find(memo.children(e)[0]);
                let ci = self.topo.dense(c) as usize;
                // Filter: child takes the same requirement.
                let filter_cost = cm.filter(blocks[ci]);
                for (j, &req) in reqs.iter().enumerate() {
                    let child = self.state(ci, req, "demand propagated to select child");
                    let phys = OptPhys::new(e, OpTag::Filter);
                    out.emit(j, filter_cost, [child], OutOrder::InheritChild0, phys);
                }
                // Clustered-index scan.
                for ce in memo.group_exprs(c) {
                    let &LogicalOp::Scan(inst) = memo.op(ce) else {
                        continue;
                    };
                    let order = self.expr_orders[ce.0 as usize][0];
                    let Some(&lead) = self.orders[order as usize].0.first() else {
                        continue;
                    };
                    let Some(constraint) = pred.constraints.get(&lead) else {
                        continue;
                    };
                    let frac = constraint.selectivity(&memo.ctx().col_stats(lead));
                    let matched = (blocks[ci] * frac).ceil().max(1.0);
                    let op_cost = cm.index_scan(matched) + cm.filter(matched);
                    for (j, &req) in reqs.iter().enumerate() {
                        if self.satisfies(order, req) {
                            let phys = OptPhys::new(e, OpTag::IndexScan(inst));
                            out.emit(j, op_cost, [], OutOrder::Fixed(order), phys);
                        }
                    }
                }
            }
            LogicalOp::Join(_) => {
                let ch = memo.children(e);
                let l = self.topo.dense(memo.find(ch[0])) as usize;
                let r = self.topo.dense(memo.find(ch[1])) as usize;
                let [lk, rk] = self.expr_orders[e.0 as usize];
                for swapped in [false, true] {
                    let (oi, ii) = if swapped { (r, l) } else { (l, r) };
                    // Block nested loops (unordered output): order index 0 only.
                    let nl_cost = cm.nl_join(blocks[oi], blocks[ii], blocks[gi]);
                    let children = [self.state_off[oi], self.state_off[ii]];
                    let phys = OptPhys {
                        swapped,
                        ..OptPhys::new(e, OpTag::BlockNlJoin)
                    };
                    out.emit(0, nl_cost, children, OutOrder::Fixed(NO_ORDER), phys);
                    // Merge join on the keys the orders pass interned.
                    if lk != NO_KEYS {
                        let (ok, ik) = if swapped { (rk, lk) } else { (lk, rk) };
                        let children = [
                            self.state(oi, ok, "join key order registered for outer child"),
                            self.state(ii, ik, "join key order registered for inner child"),
                        ];
                        let op_cost = cm.merge_join(blocks[oi], blocks[ii], blocks[gi]);
                        for (j, &req) in reqs.iter().enumerate() {
                            if self.satisfies(ok, req) {
                                let phys = OptPhys {
                                    swapped,
                                    keys: [ok, ik],
                                    ..OptPhys::new(e, OpTag::MergeJoin)
                                };
                                out.emit(j, op_cost, children, OutOrder::Fixed(ok), phys);
                            }
                        }
                    }
                }
            }
            LogicalOp::Aggregate(spec) => {
                let c = memo.find(memo.children(e)[0]);
                let ci = self.topo.dense(c) as usize;
                if spec.is_scalar() {
                    let op_cost = cm.scalar_agg(blocks[ci]);
                    // One row satisfies every ordering requirement, so the
                    // output order is recorded as the requirement itself (the
                    // extraction path mirrors the reference optimizer here).
                    for (j, &req) in reqs.iter().enumerate() {
                        let phys = OptPhys::new(e, OpTag::ScalarAgg);
                        let child = self.state_off[ci];
                        out.emit(j, op_cost, [child], OutOrder::Fixed(req), phys);
                    }
                } else {
                    let gb = self.expr_orders[e.0 as usize][0];
                    let child = self.state(ci, gb, "group-by order registered for aggregate child");
                    let op_cost = cm.sort_agg(blocks[ci], blocks[gi]);
                    for (j, &req) in reqs.iter().enumerate() {
                        if self.satisfies(gb, req) {
                            let phys = OptPhys {
                                keys: [gb, NO_ORDER],
                                ..OptPhys::new(e, OpTag::SortAgg)
                            };
                            out.emit(j, op_cost, [child], OutOrder::Fixed(gb), phys);
                        }
                    }
                }
            }
            LogicalOp::Root => {
                let children = memo
                    .children(e)
                    .iter()
                    .map(|&c| self.state_off[self.topo.dense(c) as usize]);
                let phys = OptPhys::new(e, OpTag::Root);
                out.emit(0, 0.0, children, OutOrder::Fixed(NO_ORDER), phys);
            }
        }
    }
}

#[cfg(test)]
mod compile_pin;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchDag;
    use mqo_catalog::{Catalog, TableBuilder};
    use mqo_volcano::cost::DiskCostModel;
    use mqo_volcano::optimizer::{MatOverlay, Optimizer, PlanTable};
    use mqo_volcano::rules::RuleSet;
    use mqo_volcano::{Constraint, DagContext, PlanNode, Predicate};

    /// The two-query fixture.
    fn build_batch() -> BatchDag {
        let mut cat = Catalog::new();
        for (name, rows) in [
            ("a", 20_000.0),
            ("b", 40_000.0),
            ("c", 10_000.0),
            ("d", 8_000.0),
        ] {
            cat.add_table(
                TableBuilder::new(name, rows)
                    .key_column(format!("{name}_key"), 4)
                    .column(
                        format!("{name}_fk"),
                        rows / 20.0,
                        (0, (rows as i64) / 20 - 1),
                        4,
                    )
                    .column(format!("{name}_x"), 50.0, (0, 49), 8)
                    .primary_key(&[&format!("{name}_key")])
                    .build(),
            );
        }
        let mut ctx = DagContext::new(cat);
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let c = ctx.instance_by_name("c", 0);
        let d = ctx.instance_by_name("d", 0);
        let p_ab = Predicate::join(ctx.col(a, "a_key"), ctx.col(b, "b_fk"));
        let p_bc = Predicate::join(ctx.col(b, "b_key"), ctx.col(c, "c_fk"));
        let p_bd = Predicate::join(ctx.col(b, "b_key"), ctx.col(d, "d_fk"));
        let sel = Predicate::on(ctx.col(c, "c_x"), Constraint::le(25));
        let q1 = PlanNode::scan(a)
            .join(PlanNode::scan(b), p_ab)
            .join(PlanNode::scan(c).select(sel.clone()), p_bc.clone());
        let q2 = PlanNode::scan(b)
            .join(PlanNode::scan(c).select(sel), p_bc)
            .join(PlanNode::scan(d), p_bd);
        BatchDag::build(ctx, &[q1, q2], &RuleSet::default())
    }

    #[test]
    fn engine_matches_reference_optimizer_on_empty_set() {
        let batch = build_batch();
        let cm = DiskCostModel::paper();
        let mut engine = BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable());
        let bc_empty = engine.bc(&BitSet::empty(batch.universe_size()));

        let opt = Optimizer::new(batch.memo(), &cm);
        let mut table = PlanTable::new();
        let reference = opt.best_use_cost(batch.root(), &MatOverlay::empty(), &mut table);
        assert!(
            (bc_empty - reference).abs() < 1e-6,
            "engine {bc_empty} vs reference {reference}"
        );
    }

    #[test]
    fn engine_matches_reference_on_singletons() {
        let batch = build_batch();
        let cm = DiskCostModel::paper();
        let mut engine = BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable());
        let opt = Optimizer::new(batch.memo(), &cm);
        let n = batch.universe_size();
        assert!(n > 0);
        for e in 0..n {
            let set = BitSet::from_iter(n, [e]);
            let bc = engine.bc(&set);
            // Reference: buc(root | {g}) + produce(g) + write(g).
            let g = batch.shareable()[e];
            let overlay = MatOverlay::new(batch.memo(), [g]);
            let mut t1 = PlanTable::new();
            let buc = opt.best_use_cost(batch.root(), &overlay, &mut t1);
            let produce = opt.produce_cost(g, &overlay);
            let reference = buc + produce + opt.write_cost(g);
            assert!(
                (bc - reference).abs() < 1e-6,
                "element {e}: engine {bc} vs reference {reference}"
            );
        }
    }

    #[test]
    fn incremental_matches_full() {
        let batch = build_batch();
        let cm = DiskCostModel::paper();
        let mut inc = BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable());
        let mut full = BestCostEngine::with_config(
            batch.memo(),
            &cm,
            batch.root(),
            batch.shareable(),
            MqoConfig {
                force_full: true,
                ..Default::default()
            },
        );
        let n = batch.universe_size();
        // Deterministic pseudo-random subsets.
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..40 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mut set = BitSet::empty(n);
            for e in 0..n {
                if (state >> (e % 64)) & 1 == 1 && e % 3 != 0 {
                    set.insert(e);
                }
            }
            let a = inc.bc(&set);
            let b = full.bc(&set);
            assert!((a - b).abs() < 1e-6, "incremental {a} vs full {b}");
        }
    }

    #[test]
    fn bc_many_matches_sequential_bc() {
        let batch = build_batch();
        let cm = DiskCostModel::paper();
        let mut batched = BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable());
        let mut seq = BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable());
        let n = batch.universe_size();
        // Greedy-round shape: a growing base plus one candidate per set.
        let mut base = BitSet::empty(n);
        for round in 0..n {
            let candidates: Vec<BitSet> = (0..n)
                .filter(|&e| !base.contains(e))
                .map(|e| base.with(e))
                .collect();
            if candidates.is_empty() {
                break;
            }
            let many = batched.bc_many(&candidates);
            for (s, &v) in candidates.iter().zip(&many) {
                let expect = seq.bc(s);
                assert!(
                    (v - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                    "round {round}: batched {v} vs sequential {expect}"
                );
            }
            base.insert(round);
        }
        let (_, inc) = batched.eval_counts();
        assert!(inc > 0, "batched candidates must take the incremental path");
    }

    #[test]
    fn bc_empty_is_locally_optimal_cost() {
        // bc(∅) must not exceed the cost of any particular plan; a weak
        // sanity bound: it is positive and finite.
        let batch = build_batch();
        let cm = DiskCostModel::paper();
        let mut engine = BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable());
        let bc = engine.bc(&BitSet::empty(batch.universe_size()));
        assert!(bc.is_finite() && bc > 0.0);
    }

    #[test]
    fn materializing_shared_node_helps_somewhere() {
        // In this batch σ(c) (or b⋈σ(c)) is shared; at least one singleton
        // must beat bc(∅).
        let batch = build_batch();
        let cm = DiskCostModel::paper();
        let mut engine = BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable());
        let n = batch.universe_size();
        let empty = engine.bc(&BitSet::empty(n));
        let best_single = (0..n)
            .map(|e| engine.bc(&BitSet::from_iter(n, [e])))
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_single < empty,
            "no single materialization helps: best {best_single} vs empty {empty}"
        );
    }

    #[test]
    fn sharded_bc_many_is_bit_identical_to_serial() {
        let batch = build_batch();
        let cm = DiskCostModel::paper();
        let n = batch.universe_size();
        let mut serial = BestCostEngine::with_config(
            batch.memo(),
            &cm,
            batch.root(),
            batch.shareable(),
            MqoConfig {
                threads: 1,
                ..Default::default()
            },
        );
        for threads in [2usize, 3, 8] {
            let mut sharded = BestCostEngine::with_config(
                batch.memo(),
                &cm,
                batch.root(),
                batch.shareable(),
                MqoConfig {
                    threads,
                    ..Default::default()
                },
            );
            let mut base = BitSet::empty(n);
            for round in 0..n {
                let candidates: Vec<BitSet> = (0..n)
                    .filter(|&e| !base.contains(e))
                    .map(|e| base.with(e))
                    .collect();
                if candidates.is_empty() {
                    break;
                }
                let a = serial.bc_many(&candidates);
                let b = sharded.bc_many(&candidates);
                assert_eq!(
                    a, b,
                    "threads {threads}, round {round}: values must be bit-identical"
                );
                base.insert(round);
            }
            // Reset the serial engine's drifted base for the next sweep.
            serial.rebase(&BitSet::empty(n));
        }
    }

    #[test]
    fn sharded_handles_far_candidates_and_odd_batches() {
        // Batches whose candidates sit past the rebase threshold (workers
        // must answer them by uncommitted full solves) and batch sizes that
        // do not divide evenly across workers. BQ4's universe is wide
        // enough for sets past the threshold of 4 elements.
        let batch = bq4();
        let cm = DiskCostModel::paper();
        let n = batch.universe_size();
        let mut full = BestCostEngine::with_config(
            batch.memo(),
            &cm,
            batch.root(),
            batch.shareable(),
            MqoConfig {
                force_full: true,
                ..Default::default()
            },
        );
        let mut sharded = BestCostEngine::with_config(
            batch.memo(),
            &cm,
            batch.root(),
            batch.shareable(),
            MqoConfig {
                threads: 3,
                ..Default::default()
            },
        );
        // More sets than workers (odd split): the empty base, every
        // singleton, and prefixes of 5..=n elements past the threshold.
        let mut sets: Vec<BitSet> = vec![BitSet::empty(n)];
        sets.extend((0..n).map(|e| BitSet::from_iter(n, [e])));
        sets.extend((5..=n).step_by(3).map(|k| BitSet::from_iter(n, 0..k)));
        if sets.len().is_multiple_of(3) {
            sets.pop();
        }
        let vals = sharded.bc_many(&sets);
        for (s, &v) in sets.iter().zip(&vals) {
            let expect = full.bc(s);
            assert!(
                (v - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                "sharded {v} vs full {expect} on {s:?}"
            );
        }
        let (full_evals, _) = sharded.eval_counts();
        assert!(full_evals > 0, "far candidates must take the full path");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "does not match the engine's shareable universe")]
    fn bc_asserts_on_universe_mismatch_in_debug() {
        let batch = build_batch();
        let cm = DiskCostModel::paper();
        let mut engine = BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable());
        let n = batch.universe_size();
        // A set over a larger universe with a bit past the engine's dense
        // map: debug builds must refuse it loudly.
        let oversized = BitSet::from_iter(n + 64, [0, n + 7]);
        engine.bc(&oversized);
    }

    #[test]
    fn sanitize_truncates_out_of_range_bits() {
        // The documented release-mode behavior: bits >= universe_size() are
        // ignored, so a malformed set evaluates like its in-range
        // projection. `sanitize` is exercised directly (the assertion in
        // `bc` fires first under debug_assertions).
        let batch = build_batch();
        let cm = DiskCostModel::paper();
        let mut engine = BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable());
        let n = batch.universe_size();
        let oversized = BitSet::from_iter(n + 64, [0, 1, n + 7]);
        let sanitized = engine.truncate_to_universe(&oversized).into_owned();
        assert_eq!(sanitized, BitSet::from_iter(n, [0, 1]));
        // A smaller universe zero-extends.
        let undersized = BitSet::from_iter(1, [0]);
        let sanitized = engine.truncate_to_universe(&undersized).into_owned();
        assert_eq!(sanitized, BitSet::from_iter(n, [0]));
        // And the sanitized set evaluates like its projection.
        let a = engine.bc(&sanitized);
        let b = engine.bc(&BitSet::from_iter(n, [0]));
        assert_eq!(a, b);
    }

    #[test]
    fn rebase_invalidates_scratch_stamps() {
        // After a rebase the scratch's overlay values are relative to a
        // dead base; their stamps are older than every later epoch, so an
        // evaluation right after the rebase never reads them.
        let batch = build_batch();
        let cm = DiskCostModel::paper();
        let mut engine = BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable());
        let n = batch.universe_size();
        let _ = engine.bc(&BitSet::from_iter(n, [0]));
        engine.rebase(&BitSet::from_iter(n, [1]));
        let a = engine.bc(&BitSet::from_iter(n, [0]));
        let mut fresh = BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable());
        let b = fresh.bc(&BitSet::from_iter(n, [0]));
        assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
    }

    /// A round of single-element candidates `base ∪ {e}` over every `e`
    /// outside `base`.
    fn round(base: &BitSet) -> Vec<BitSet> {
        (0..base.universe())
            .filter(|&e| !base.contains(e))
            .map(|e| base.with(e))
            .collect()
    }

    /// `bc_many` of `sets` on a cold handle over the same arenas, committed
    /// to `base` first.
    fn cold_bc_many(engine: &BestCostEngine, base: &BitSet, sets: &[BitSet]) -> Vec<f64> {
        let mut cold = BestCostEngine::from_arenas(Arc::clone(engine.arenas()), engine.config);
        cold.rebase(base);
        cold.bc_many(sets)
    }

    /// TPCD BQ4: a universe large enough for multi-candidate rounds.
    fn bq4() -> BatchDag {
        let w = mqo_tpcd::batched(4, 1.0);
        BatchDag::build(w.ctx, &w.queries, &RuleSet::default())
    }

    fn serial_engine(batch: &BatchDag) -> BestCostEngine {
        let cm = DiskCostModel::paper();
        let config = MqoConfig::serial();
        BestCostEngine::with_config(batch.memo(), &cm, batch.root(), batch.shareable(), config)
    }

    #[test]
    fn fresh_handles_start_with_an_empty_lazy_cone_memo() {
        let batch = bq4();
        let engine = serial_engine(&batch);
        let mut handle = BestCostEngine::from_arenas(Arc::clone(engine.arenas()), engine.config);
        assert_eq!(handle.cones.entries.capacity(), 0);
        assert_eq!(handle.cones.group_gen.capacity(), 0);
        assert_eq!(handle.cone_reuses(), 0);
        // A single-set evaluation and a commit leave it unsized too.
        let n = handle.universe_size();
        handle.bc(&BitSet::from_iter(n, [0]));
        handle.rebase(&BitSet::from_iter(n, [1]));
        assert_eq!(handle.cones.entries.capacity(), 0);
        // The first batch sizes it to the universe and the dense groups.
        handle.bc_many(&round(&BitSet::from_iter(n, [1])));
        assert_eq!(handle.cones.entries.len(), n);
        assert_eq!(handle.cones.group_gen.len(), handle.topo.len());
    }

    #[test]
    fn full_solve_rebase_drops_every_cone_entry() {
        let batch = bq4();
        let mut engine = serial_engine(&batch);
        let n = engine.universe_size();
        assert!(n >= 5, "fixture universe too small: {n}");
        let empty = BitSet::empty(n);
        engine.bc_many(&round(&empty));
        assert!((0..n).all(|e| engine.cones.valid(e).is_some()));
        // Five elements away from the base: past the rebase threshold, so
        // the commit is a full solve, which moves the base without stamping.
        let far = BitSet::from_iter(n, 0..5);
        let (full_before, _) = engine.eval_counts();
        engine.rebase(&far);
        assert_eq!(engine.eval_counts().0, full_before + 1);
        assert!((0..n).all(|e| engine.cones.valid(e).is_none()));
        // The next round re-records from scratch and stays exact.
        let reuses = engine.cone_reuses();
        let sets = round(&far);
        let warm = engine.bc_many(&sets);
        assert_eq!(engine.cone_reuses(), reuses);
        assert_eq!(warm, cold_bc_many(&engine, &far, &sets));
    }

    #[test]
    fn a_flipped_element_is_never_served_from_the_memo() {
        let batch = bq4();
        let mut engine = serial_engine(&batch);
        let n = engine.universe_size();
        let empty = BitSet::empty(n);
        let first = engine.bc_many(&round(&empty));
        for p in 0..n {
            assert!(engine.cones.valid(p).is_some());
            // Commit p (an incremental commit): its own group is popped,
            // so its entry is retired however the values moved.
            let with_p = BitSet::from_iter(n, [p]);
            engine.rebase(&with_p);
            assert!(engine.cones.valid(p).is_none(), "element {p} added");
            let sets = round(&with_p);
            assert_eq!(engine.bc_many(&sets), cold_bc_many(&engine, &with_p, &sets));
            // And back: p's membership flips again.
            engine.rebase(&empty);
            assert!(engine.cones.valid(p).is_none(), "element {p} removed");
            let again = engine.bc_many(&round(&empty));
            assert_eq!(again, first, "round at ∅ after dropping {p}");
        }
        assert!(engine.cone_reuses() > 0);
    }

    #[test]
    fn removal_shaped_batches_never_reach_the_cone_memo() {
        // `bc_many` rebases to the batch intersection, so every candidate
        // is a superset of the base and a one-element diff is always an
        // addition. The top-of-lattice shape `U∖{e}` therefore never
        // records or reuses a cone: excluded by construction.
        let batch = bq4();
        let mut engine = serial_engine(&batch);
        let mut full = BestCostEngine::with_config(
            batch.memo(),
            &DiskCostModel::paper(),
            batch.root(),
            batch.shareable(),
            MqoConfig {
                force_full: true,
                ..MqoConfig::serial()
            },
        );
        let n = engine.universe_size();
        assert!(n >= 3, "fixture universe too small: {n}");
        let all = BitSet::full(n);
        engine.rebase(&all);
        let tops: Vec<BitSet> = (0..n)
            .map(|e| {
                let mut s = all.clone();
                s.remove(e);
                s
            })
            .collect();
        for _ in 0..2 {
            let vals = engine.bc_many(&tops);
            for (s, &v) in tops.iter().zip(&vals) {
                let expect = full.bc(s);
                assert!((v - expect).abs() < 1e-9 * (1.0 + expect.abs()));
            }
        }
        assert_eq!(engine.cone_reuses(), 0);
        assert!(engine.cones.entries.is_empty(), "no cone was recorded");
    }

    /// The bit patterns of an arena, so `-0.0` and `0.0` compare unequal.
    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Replays a greedy-shaped sequence of near-base commits: each step
    /// runs a `bc_many` round at the base, then moves the base by 1–4
    /// elements (the round's best pick, plus up to three random flips),
    /// so every commit stays within the rebase threshold. After each
    /// commit the base arenas and total must equal a full solve of the
    /// same set bitwise.
    fn incremental_commits_match_full_solves(batch: &BatchDag, steps: usize) {
        let mut engine = serial_engine(batch);
        let n = engine.universe_size();
        let mut rng = mqo_submod::prng::Prng::seed_from_u64(0xC0FF_EE29);
        let mut base = BitSet::empty(n);
        for step in 0..steps {
            let sets = round(&base);
            let mut target = base.clone();
            if !sets.is_empty() {
                let values = engine.bc_many(&sets);
                let pick = (0..values.len())
                    .min_by(|&a, &b| values[a].total_cmp(&values[b]))
                    .unwrap();
                target = sets[pick].clone();
            }
            for _ in 0..rng.gen_range(0..4usize) {
                let e = rng.gen_range(0..n);
                if target.contains(e) {
                    target.remove(e);
                } else {
                    target.insert(e);
                }
            }
            let dist = target.symmetric_difference_len(&base);
            assert!(dist <= REBASE_THRESHOLD, "step {step}: move of {dist}");
            let (full_before, _) = engine.eval_counts();
            engine.rebase(&target);
            assert_eq!(
                engine.eval_counts().0,
                full_before,
                "step {step}: the commit must be incremental"
            );
            let fresh = BestCostEngine::from_arenas(Arc::clone(engine.arenas()), engine.config);
            let (mut compute, mut use_) = (Vec::new(), Vec::new());
            fresh.full_solve_into(&target, &mut compute, &mut use_);
            let total = fresh.total_from_slice(&target, &compute);
            assert_eq!(bits(&engine.base_compute), bits(&compute), "step {step}");
            assert_eq!(bits(&engine.base_use), bits(&use_), "step {step}");
            assert_eq!(engine.base_total.to_bits(), total.to_bits(), "step {step}");
            base = target;
        }
    }

    /// A seeded chain instance from the workload generator (the
    /// `engine_differential.rs` fixture).
    fn chain_instance() -> BatchDag {
        let w = mqo_tpcd::generate(&mqo_tpcd::WorkloadSpec {
            queries: 40,
            span: (4, 7),
            ..mqo_tpcd::WorkloadSpec::smoke(mqo_tpcd::Shape::Chain, 11)
        });
        BatchDag::build(w.ctx, &w.queries, &RuleSet::default())
    }

    #[test]
    fn incremental_commits_are_bitwise_full_solves() {
        incremental_commits_match_full_solves(&bq4(), 30);
        incremental_commits_match_full_solves(&chain_instance(), 30);
    }

    #[test]
    fn rebase_keeps_answers_consistent() {
        let batch = build_batch();
        let cm = DiskCostModel::paper();
        let mut engine = BestCostEngine::new(batch.memo(), &cm, batch.root(), batch.shareable());
        let n = batch.universe_size();
        let set = BitSet::from_iter(n, (0..n).filter(|e| e % 2 == 0));
        let before = engine.bc(&set);
        engine.rebase(&set);
        let after = engine.bc(&set);
        assert!((before - after).abs() < 1e-6);
    }
}
