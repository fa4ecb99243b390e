//! The one-stop `Session` API: own the batch lifecycle end to end.
//!
//! The paper's pipeline is one conceptual object — insert a batch of
//! queries, expand the AND-OR DAG, pick a materialization set, emit the
//! consolidated plan (Kathuria & Sudarshan §2; Roy et al.'s Volcano-MQO
//! framing) — and this module exposes it as one: a [`Session`] builder
//! collects the [`DagContext`], the queries, the [`RuleSet`], the cost
//! model, and one unified [`MqoConfig`], and [`SessionBuilder::build`]
//! yields an [`OptimizedBatch`] whose [`OptimizedBatch::run`] /
//! [`OptimizedBatch::run_all`] return [`RunReport`]s carrying the
//! extracted consolidated physical plan. The batch is also *evolvable*:
//! [`OptimizedBatch::add_query`] admits a query incrementally,
//! [`OptimizedBatch::retire_query`] rebuilds the survivors, and
//! [`OptimizedBatch::savepoint`] / [`OptimizedBatch::rollback`] bracket
//! speculative sequences.
//!
//! ```no_run
//! use mqo_core::session::Session;
//! use mqo_core::strategies::Strategy;
//! use mqo_volcano::cost::DiskCostModel;
//!
//! # fn queries() -> (mqo_volcano::DagContext, Vec<mqo_volcano::PlanNode>) { unimplemented!() }
//! let (ctx, qs) = queries();
//! let batch = Session::builder()
//!     .context(ctx)
//!     .queries(qs)
//!     .cost_model(DiskCostModel::paper())
//!     .build();
//! let report = batch.run(Strategy::MarginalGreedy);
//! println!("cost {} vs volcano {}", report.total_cost, report.volcano_cost);
//! println!("{}", report.plan.render(batch.batch()));
//! ```

use std::sync::{Arc, Mutex};

use mqo_volcano::cost::{CostModel, DiskCostModel};
use mqo_volcano::rules::RuleSet;
use mqo_volcano::{DagContext, PlanNode};

use crate::batch::{BatchDag, BatchSavepoint, QueryTicket};
use crate::config::MqoConfig;
use crate::engine::EngineState;
use crate::error::{MqoError, PlanValidator};
use crate::serve::{MqoService, ServeConfig};
use crate::strategies::{run_strategy, RunReport, Strategy};

/// Entry point of the MQO pipeline; see the module docs.
pub struct Session;

impl Session {
    /// Starts building a session. At minimum a [`DagContext`] and one
    /// query must be supplied before [`SessionBuilder::build`].
    pub fn builder() -> SessionBuilder {
        SessionBuilder {
            ctx: None,
            queries: Vec::new(),
            rules: RuleSet::default(),
            cost_model: Box::new(DiskCostModel::paper()),
            config: MqoConfig::default(),
        }
    }
}

/// Collects everything an [`OptimizedBatch`] needs; see [`Session`].
pub struct SessionBuilder {
    ctx: Option<DagContext>,
    queries: Vec<PlanNode>,
    rules: RuleSet,
    cost_model: Box<dyn CostModel>,
    config: MqoConfig,
}

impl SessionBuilder {
    /// The shared context (catalog, table instances, synthetic columns)
    /// the queries were built against. Required.
    pub fn context(mut self, ctx: DagContext) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// Adds one query to the batch.
    pub fn query(mut self, q: PlanNode) -> Self {
        self.queries.push(q);
        self
    }

    /// Adds a batch of queries (appending to any added earlier).
    pub fn queries(mut self, qs: impl IntoIterator<Item = PlanNode>) -> Self {
        self.queries.extend(qs);
        self
    }

    /// The transformation rule set for DAG expansion. Defaults to
    /// [`RuleSet::default`] (joins + select push-down/merge + subsumption).
    pub fn rules(mut self, rules: RuleSet) -> Self {
        self.rules = rules;
        self
    }

    /// The cost model every strategy is evaluated under. Defaults to the
    /// paper's disk cost model ([`DiskCostModel::paper`]).
    pub fn cost_model(mut self, cm: impl CostModel + 'static) -> Self {
        self.cost_model = Box::new(cm);
        self
    }

    /// The unified pipeline configuration (the full-solve ablation switch,
    /// worker threads for expansion *and* the sharded oracle, the greedy
    /// stopping rules).
    /// Defaults to [`MqoConfig::default`], which honors `MQO_THREADS`.
    pub fn config(mut self, config: MqoConfig) -> Self {
        self.config = config;
        self
    }

    /// Shorthand for overriding only [`MqoConfig::threads`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Admits the queries into one memo in order, each admission expanding
    /// the combined DAG to fixpoint from the query's new expressions
    /// (candidate generation fanned out over [`MqoConfig::threads`]
    /// workers), computes the shareable universe, and returns the
    /// ready-to-run batch.
    ///
    /// # Panics
    ///
    /// When no [`DagContext`] was supplied, the query list is empty, or a
    /// query fails plan validation. The fallible variant is
    /// [`SessionBuilder::try_build`].
    pub fn build(self) -> OptimizedBatch {
        self.try_build()
            .unwrap_or_else(|e| panic!("Session::builder(): {e}"))
    }

    /// Fallible [`SessionBuilder::build`]: reports a missing context, an
    /// empty query list, or a malformed query as a typed [`MqoError`]
    /// instead of panicking. Every plan is validated against the context
    /// (known table instances, resolvable column references, unambiguous
    /// aggregate outputs) *before* any memo work starts, so a rejected
    /// build has no side effects.
    ///
    /// ```
    /// use mqo_core::{MqoError, Session};
    ///
    /// // Nothing supplied: the builder reports instead of panicking.
    /// assert!(matches!(
    ///     Session::builder().try_build(),
    ///     Err(MqoError::MissingContext)
    /// ));
    /// ```
    pub fn try_build(self) -> Result<OptimizedBatch, MqoError> {
        let ctx = self.ctx.ok_or(MqoError::MissingContext)?;
        if self.queries.is_empty() {
            return Err(MqoError::EmptyBatch);
        }
        let validator = PlanValidator::new(&ctx);
        for (query, plan) in self.queries.iter().enumerate() {
            validator
                .validate(plan)
                .map_err(|fault| MqoError::InvalidPlan { query, fault })?;
        }
        let batch =
            BatchDag::build_with_threads(ctx, &self.queries, &self.rules, self.config.threads);
        Ok(OptimizedBatch {
            batch,
            cost_model: self.cost_model,
            config: self.config,
            state: Mutex::new(None),
        })
    }
}

/// A fully expanded batch bound to a cost model and a configuration: the
/// object the paper's experiments revolve around. Every
/// [`OptimizedBatch::run`] spins up a `bestCost` engine handle over the
/// current commit's compiled snapshot (compiled once per commit, over the
/// batch's own topological view), runs the strategy's node selection, and
/// extracts the consolidated physical plan from the compiled arenas.
///
/// The batch is *evolvable*: [`OptimizedBatch::add_query`] admits a new
/// query into the live memo (seeded incremental expansion, no rebuild) and
/// returns a [`QueryTicket`]; [`OptimizedBatch::retire_query`] removes one
/// by rebuilding the survivors; [`OptimizedBatch::savepoint`] /
/// [`OptimizedBatch::rollback`] bracket speculative what-if admissions.
/// A batch is the fold of its admissions: a build admits its queries one
/// at a time, and a retire or rollback re-admits the survivors in ticket
/// order. So after any evolution history the batch *is* a fresh
/// [`SessionBuilder::build`] of its live queries in ticket order: group
/// ids, the shareable universe (ascending by group id), the compiled
/// arenas, the picks and every cost match bit for bit. Evolution takes
/// `&mut self`; `run*` calls observe a consistent compiled snapshot
/// because they run off an immutable [`EngineState`] published by
/// [`OptimizedBatch::snapshot`] and revalidated against the memo's
/// version counter.
///
/// Ownership is split three ways (the serving layer is built on exactly
/// this split): the **batch** is the thin mutable editor, the
/// [`EngineState`] is the shared-immutable compiled artifact readers hold
/// `Arc`s to, and each reader's [`crate::engine::BestCostEngine`] handle
/// owns the only per-caller mutable state (DP overlays and scratch).
pub struct OptimizedBatch {
    batch: BatchDag,
    cost_model: Box<dyn CostModel>,
    config: MqoConfig,
    /// Cached [`EngineState`] snapshot of the current commit, revalidated
    /// by memo version (monotone, so a stale snapshot is never reused).
    state: Mutex<Option<Arc<EngineState>>>,
}

impl OptimizedBatch {
    /// The immutable compiled snapshot of the current commit: shared
    /// engine arenas, universe, and query roots behind one `Arc`. Cached
    /// until the next evolution commit (the memo's version counter is the
    /// validity stamp); cloning the `Arc` is the only cost on the hot
    /// path. Readers holding an old snapshot keep a fully consistent
    /// frozen view while the batch evolves underneath — snapshot
    /// isolation by immutability.
    pub fn snapshot(&self) -> Arc<EngineState> {
        // Recover from poison by dropping the cached snapshot: a panic in
        // a previous holder may have died between compile and store, and
        // `None` just means "recompile" — always correct, never wedged.
        let mut cached = self.state.lock().unwrap_or_else(|poison| {
            let mut guard = poison.into_inner();
            *guard = None;
            guard
        });
        match cached.as_ref() {
            Some(s) if s.version() == self.batch.memo().version() => Arc::clone(s),
            _ => {
                let s = Arc::new(self.batch.compile_state(self.cost_model.as_ref()));
                *cached = Some(Arc::clone(&s));
                s
            }
        }
    }

    /// Optimizes the batch with one strategy under the session's
    /// configuration.
    pub fn run(&self, strategy: Strategy) -> RunReport {
        run_strategy(&self.snapshot(), strategy, self.config)
    }

    /// Optimizes the batch with several strategies, each on a fresh engine
    /// handle over the same snapshot so timings are comparable. The
    /// session's configuration is threaded through **every** strategy —
    /// the pre-`Session` free function `compare` silently dropped a custom
    /// `EngineConfig` and ran each strategy under the defaults.
    pub fn run_all(&self, strategies: &[Strategy]) -> Vec<RunReport> {
        strategies.iter().map(|&s| self.run(s)).collect()
    }

    /// [`OptimizedBatch::run`] under a one-off configuration override
    /// (ablations sweeping thread counts, `force_full` or the pre-pass).
    /// The session's own configuration is untouched.
    pub fn run_with(&self, strategy: Strategy, config: MqoConfig) -> RunReport {
        run_strategy(&self.snapshot(), strategy, config)
    }

    /// The expanded combined DAG (memo, roots, shareable universe,
    /// expansion statistics).
    pub fn batch(&self) -> &BatchDag {
        &self.batch
    }

    /// The session's cost model.
    pub fn cost_model(&self) -> &dyn CostModel {
        self.cost_model.as_ref()
    }

    /// The session's configuration.
    pub fn config(&self) -> MqoConfig {
        self.config
    }

    /// Number of shareable nodes (delegates to [`BatchDag`]).
    pub fn universe_size(&self) -> usize {
        self.batch.universe_size()
    }

    // -----------------------------------------------------------------------
    // Evolution: the batch is a live session, not a frozen artifact.
    // -----------------------------------------------------------------------

    /// Admits `query` into the live batch without a full rebuild and
    /// returns its ticket. The expansion fixpoint re-runs seeded with only
    /// the freshly interned expressions, under the session's configured
    /// thread count.
    ///
    /// # Panics
    ///
    /// If the plan fails validation; the fallible variant is
    /// [`OptimizedBatch::try_add_query`].
    pub fn add_query(&mut self, query: PlanNode) -> QueryTicket {
        self.try_add_query(query).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`OptimizedBatch::add_query`]: validates the plan against
    /// the session's context first and rejects a malformed one as
    /// [`MqoError::InvalidPlan`] with the batch untouched.
    ///
    /// ```
    /// # use mqo_catalog::{Catalog, TableBuilder};
    /// # use mqo_volcano::{DagContext, InstanceId, PlanNode};
    /// use mqo_core::{MqoError, Session};
    /// # let mut cat = Catalog::new();
    /// # cat.add_table(TableBuilder::new("t", 100.0).key_column("t_key", 4).primary_key(&["t_key"]).build());
    /// # let mut ctx = DagContext::new(cat);
    /// # let t = ctx.instance_by_name("t", 0);
    /// let mut batch = Session::builder()
    ///     .context(ctx)
    ///     .query(PlanNode::scan(t))
    ///     .threads(1)
    ///     .build();
    /// // Scanning an instance the context never registered is rejected at
    /// // the door; the live batch is unchanged.
    /// let bad = PlanNode::scan(InstanceId(99));
    /// assert!(matches!(
    ///     batch.try_add_query(bad),
    ///     Err(MqoError::InvalidPlan { .. })
    /// ));
    /// assert_eq!(batch.tickets().len(), 1);
    /// ```
    pub fn try_add_query(&mut self, query: PlanNode) -> Result<QueryTicket, MqoError> {
        PlanValidator::new(self.batch.memo().ctx())
            .validate(&query)
            .map_err(|fault| MqoError::InvalidPlan { query: 0, fault })?;
        Ok(self.batch.add_query(&query, self.config.threads))
    }

    /// Retires the query behind `ticket` from the live batch, reclaiming
    /// its private expressions by rebuilding the memo from the surviving
    /// queries (a retire costs a rebuild).
    ///
    /// # Panics
    ///
    /// If the ticket was already retired, or if it names the last live
    /// query — a batch is never empty, mirroring [`SessionBuilder::build`].
    /// The fallible variant is [`OptimizedBatch::try_retire_query`].
    pub fn retire_query(&mut self, ticket: QueryTicket) {
        self.try_retire_query(ticket)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`OptimizedBatch::retire_query`]: an unknown or
    /// already-retired ticket and a retire that would empty the batch come
    /// back as typed errors with the batch untouched.
    ///
    /// ```
    /// # use mqo_catalog::{Catalog, TableBuilder};
    /// # use mqo_volcano::{DagContext, PlanNode};
    /// use mqo_core::{MqoError, Session};
    /// # let mut cat = Catalog::new();
    /// # cat.add_table(TableBuilder::new("t", 100.0).key_column("t_key", 4).primary_key(&["t_key"]).build());
    /// # let mut ctx = DagContext::new(cat);
    /// # let t = ctx.instance_by_name("t", 0);
    /// let mut batch = Session::builder()
    ///     .context(ctx)
    ///     .query(PlanNode::scan(t))
    ///     .threads(1)
    ///     .build();
    /// let ticket = batch.tickets()[0];
    /// // A batch always keeps one live query.
    /// assert!(matches!(
    ///     batch.try_retire_query(ticket),
    ///     Err(MqoError::LastLiveQuery(_))
    /// ));
    /// assert!(batch.batch().is_live(ticket));
    /// ```
    pub fn try_retire_query(&mut self, ticket: QueryTicket) -> Result<(), MqoError> {
        self.batch.retire_query(ticket, self.config.threads)
    }

    /// Snapshots the batch for a later [`OptimizedBatch::rollback`] —
    /// bracket speculative `add_query`/`retire_query` sequences (what-if
    /// admission probes). Cheap: it copies the provenance entries (whose
    /// plans are shared pointers) and the ticket watermark, never the memo.
    pub fn savepoint(&self) -> BatchSavepoint {
        self.batch.savepoint()
    }

    /// Rewinds the batch to `sp`, undoing every evolution step since the
    /// matching [`OptimizedBatch::savepoint`] by rebuilding the memo from
    /// the savepoint's live queries (a rollback costs a rebuild). Tickets
    /// issued after the savepoint are dead afterwards; tickets issued
    /// before it stay valid.
    ///
    /// # Panics
    ///
    /// If `sp` is stale (from another batch, or already rolled back past);
    /// the fallible variant is [`OptimizedBatch::try_rollback`].
    pub fn rollback(&mut self, sp: BatchSavepoint) {
        self.try_rollback(sp).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`OptimizedBatch::rollback`]: a savepoint from another
    /// batch, or one the batch was already rolled back past, is rejected
    /// as [`MqoError::StaleSavepoint`] with the batch untouched.
    ///
    /// ```
    /// # use mqo_catalog::{Catalog, TableBuilder};
    /// # use mqo_volcano::{DagContext, PlanNode};
    /// use mqo_core::{MqoError, Session};
    /// # let mut cat = Catalog::new();
    /// # cat.add_table(TableBuilder::new("t", 100.0).key_column("t_key", 4).primary_key(&["t_key"]).build());
    /// # let mut ctx = DagContext::new(cat);
    /// # let t = ctx.instance_by_name("t", 0);
    /// let mut batch = Session::builder()
    ///     .context(ctx)
    ///     .query(PlanNode::scan(t))
    ///     .threads(1)
    ///     .build();
    /// let outer = batch.savepoint();
    /// let _extra = batch.add_query(PlanNode::scan(t));
    /// let inner = batch.savepoint();
    /// batch.rollback(outer); // rewinds past `inner`
    /// assert!(matches!(
    ///     batch.try_rollback(inner),
    ///     Err(MqoError::StaleSavepoint)
    /// ));
    /// ```
    pub fn try_rollback(&mut self, sp: BatchSavepoint) -> Result<(), MqoError> {
        self.batch.rollback(sp, self.config.threads)
    }

    /// Tickets of the currently live queries, in admission order.
    pub fn tickets(&self) -> Vec<QueryTicket> {
        self.batch.tickets()
    }

    /// Size of the evolution history: provenance entries, live plus
    /// retired — the state that grows with every add/retire cycle until
    /// [`OptimizedBatch::compact_history`] drops the retired ones.
    pub fn history_len(&self) -> usize {
        self.batch.history_len()
    }

    /// Drops retired provenance entries, so
    /// [`OptimizedBatch::history_len`] afterwards depends only on the live
    /// query count. The memo is left as it is (it never re-expands), and
    /// outstanding tickets stay valid.
    pub fn compact_history(&mut self) {
        self.batch.compact_history();
    }

    // -----------------------------------------------------------------------
    // Serving: hand the batch to the concurrent serving layer.
    // -----------------------------------------------------------------------

    /// Wraps the batch in an [`MqoService`] under
    /// [`ServeConfig::default`]; see [`OptimizedBatch::serve_with`].
    pub fn serve(self) -> MqoService {
        self.serve_with(ServeConfig::default())
    }

    /// Wraps the batch in an [`MqoService`]: a shareable (`&self`-driven,
    /// `Sync`) serving layer where concurrent `submit_query` calls are
    /// coalesced into optimization rounds by a single writer and readers
    /// answer off published [`EngineState`] snapshots without ever
    /// blocking it. [`MqoService::finish`] hands the batch back.
    pub fn serve_with(self, config: ServeConfig) -> MqoService {
        MqoService::new(self, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_catalog::{Catalog, TableBuilder};
    use mqo_volcano::Predicate;

    fn ctx() -> DagContext {
        let mut cat = Catalog::new();
        for name in ["a", "b", "c"] {
            cat.add_table(
                TableBuilder::new(name, 10_000.0)
                    .key_column(format!("{name}_key"), 4)
                    .column(format!("{name}_fk"), 1_000.0, (0, 999), 4)
                    .primary_key(&[&format!("{name}_key")])
                    .build(),
            );
        }
        DagContext::new(cat)
    }

    fn two_queries(ctx: &mut DagContext) -> Vec<PlanNode> {
        let a = ctx.instance_by_name("a", 0);
        let b = ctx.instance_by_name("b", 0);
        let c = ctx.instance_by_name("c", 0);
        let p_ab = Predicate::join(ctx.col(a, "a_key"), ctx.col(b, "b_fk"));
        let p_bc = Predicate::join(ctx.col(b, "b_key"), ctx.col(c, "c_fk"));
        vec![
            PlanNode::scan(a).join(PlanNode::scan(b), p_ab),
            PlanNode::scan(b).join(PlanNode::scan(c), p_bc),
        ]
    }

    #[test]
    fn builder_assembles_and_runs() {
        let mut ctx = ctx();
        let qs = two_queries(&mut ctx);
        let batch = Session::builder()
            .context(ctx)
            .queries(qs)
            .threads(1)
            .build();
        let reports = batch.run_all(&[Strategy::Volcano, Strategy::Greedy]);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].strategy, "Volcano");
        assert!(reports[1].total_cost <= reports[0].total_cost + 1e-6);
        for r in &reports {
            assert_eq!(r.plan.query_plans.len(), 2);
        }
    }

    #[test]
    fn run_all_threads_the_session_config_through_every_strategy() {
        let mut ctx = ctx();
        let qs = two_queries(&mut ctx);
        let config = MqoConfig {
            force_full: true,
            threads: 1,
            ..Default::default()
        };
        let batch = Session::builder()
            .context(ctx)
            .queries(qs)
            .config(config)
            .build();
        assert_eq!(batch.config(), config);
        // force_full makes every oracle call a full solve; if run_all
        // dropped the config (the old `compare` bug), the incremental
        // default would answer base-aligned queries without full evals and
        // the cost arithmetic below would still match — so pin the config
        // plumbing by comparing against an explicit run_with.
        for &s in &[Strategy::Volcano, Strategy::Greedy] {
            let via_all = &batch.run_all(&[s])[0];
            let via_with = batch.run_with(s, config);
            assert_eq!(via_all.total_cost, via_with.total_cost);
            assert_eq!(via_all.materialized, via_with.materialized);
            assert_eq!(via_all.bc_calls, via_with.bc_calls);
        }
    }

    #[test]
    fn single_query_session_runs() {
        let mut ctx = ctx();
        let q = two_queries(&mut ctx).remove(0);
        let batch = Session::builder().context(ctx).query(q).build();
        let r = batch.run(Strategy::MarginalGreedy);
        assert!(r.total_cost.is_finite() && r.total_cost > 0.0);
        assert_eq!(r.plan.query_plans.len(), 1);
    }

    #[test]
    fn session_evolves_and_rolls_back() {
        let mut ctx1 = ctx();
        let qs = two_queries(&mut ctx1);
        let extra = {
            let a = ctx1.instance_by_name("a", 0);
            let c = ctx1.instance_by_name("c", 0);
            let p = Predicate::join(ctx1.col(a, "a_key"), ctx1.col(c, "c_fk"));
            PlanNode::scan(a).join(PlanNode::scan(c), p)
        };
        let mut batch = Session::builder()
            .context(ctx1)
            .queries(qs)
            .threads(1)
            .build();
        let baseline = batch.run(Strategy::Greedy);
        assert_eq!(baseline.plan.query_plans.len(), 2);

        let sp = batch.savepoint();
        let t3 = batch.add_query(extra);
        assert_eq!(batch.tickets().len(), 3);
        let grown = batch.run(Strategy::Greedy);
        assert_eq!(grown.plan.query_plans.len(), 3);

        batch.retire_query(t3);
        assert_eq!(batch.tickets().len(), 2);
        let shrunk = batch.run(Strategy::Greedy);
        assert_eq!(shrunk.plan.query_plans.len(), 2);
        assert_eq!(shrunk.total_cost, baseline.total_cost);

        batch.rollback(sp);
        let back = batch.run(Strategy::Greedy);
        assert_eq!(back.plan.query_plans.len(), 2);
        assert_eq!(back.total_cost, baseline.total_cost);
    }

    #[test]
    #[should_panic(expected = "last live query")]
    fn retiring_the_last_query_is_rejected() {
        let mut ctx = ctx();
        let qs = two_queries(&mut ctx);
        let mut batch = Session::builder()
            .context(ctx)
            .queries(qs)
            .threads(1)
            .build();
        let tickets = batch.tickets();
        batch.retire_query(tickets[0]);
        batch.retire_query(tickets[1]); // would empty the batch
    }

    #[test]
    #[should_panic(expected = "at least one query")]
    fn empty_query_list_is_rejected() {
        let _ = Session::builder().context(ctx()).build();
    }

    #[test]
    #[should_panic(expected = "DagContext is required")]
    fn missing_context_is_rejected() {
        let mut ctx = ctx();
        let q = two_queries(&mut ctx).remove(0);
        let _ = Session::builder().query(q).build();
    }
}
