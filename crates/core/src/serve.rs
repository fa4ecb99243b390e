//! The concurrent serving layer: one writer, many snapshot readers.
//!
//! [`MqoService`] turns an [`OptimizedBatch`] into a long-lived shared
//! service built directly on the session stack's ownership split:
//!
//! - the **batch** (behind the single writer lock) is the only mutable
//!   state — the thin editor that admits, retires, and compacts;
//! - every commit publishes an immutable [`EngineState`] snapshot
//!   (shared compiled arenas + universe + query roots behind one `Arc`);
//! - readers clone the published `Arc` and optimize through their own
//!   per-caller engine handles — they never block the writer, and a
//!   reader holding an old snapshot keeps a fully consistent frozen view
//!   while the batch evolves underneath (snapshot isolation by
//!   immutability);
//! - **one optimization per snapshot** — a snapshot is immutable and
//!   [`EngineState::run`] is a pure function of (snapshot, strategy,
//!   config), so the service optimizes each published snapshot at most
//!   once with its configured [`ServeConfig::strategy`] and session
//!   [`MqoConfig`]. The report is published beside the snapshot and
//!   replaced with it: the writer fills it while refreshing the
//!   materialization cache, otherwise the first reader does, and every
//!   later [`MqoService::run`] returns a copy. A served report's
//!   [`RunReport::opt_time`] is therefore the one-off cost of optimizing
//!   that snapshot, not the latency of the call that returned it.
//!
//! Admission uses *flat combining*: [`MqoService::submit_query`] enqueues
//! the plan and then takes the writer lock. Whichever submitter gets the
//! lock first becomes the writer for everyone — it drains the queue in
//! optimization **rounds** (each round admits every plan queued so far and
//! re-queues arrivals for the next), publishes the new snapshot, and only
//! then releases the lock; the coalesced submitters wake up to find their
//! ticket already filled in. A caller therefore never observes a published
//! snapshot older than its own admission.
//!
//! Two maintenance duties ride on the writer:
//!
//! - **re-baselining** — when the evolution history (provenance entries,
//!   live plus retired) exceeds [`ServeConfig::history_watermark`], the
//!   batch drops its retired entries, so history
//!   size depends only on the live query count, not on how many
//!   add/retire cycles the service has absorbed. Compaction never touches
//!   the memo: admissions extend it incrementally and every retire
//!   already rebuilds it from the survivors;
//! - the **materialization cache** — when
//!   [`ServeConfig::cache_capacity`] is non-zero, the service retains the
//!   materializations the configured strategy keeps choosing, keyed by
//!   structural fingerprint so entries survive evolution commits, and
//!   evicts by the `bestCost` oracle's marginals: an entry whose
//!   leave-one-out benefit `bc(C∖{e}) − bc(C)` is non-positive (or
//!   smallest, once over capacity) goes first.
//!
//! # Fault tolerance
//!
//! The service is built to stay serveable through the failure of any one
//! admission round (see the README's "Fault tolerance" section for the
//! full state machine):
//!
//! - **Admission is the only door.** Every submitted plan is validated
//!   against a lock-free [`PlanValidator`] snapshot of the session's
//!   context *before* it is queued; a malformed plan comes back as
//!   [`MqoError::InvalidPlan`] without ever reaching the writer, so one
//!   bad client cannot fail a round shared with healthy submitters.
//! - **Rounds are transactions.** The draining writer takes a
//!   [`crate::batch::BatchSavepoint`] (a copy of the provenance entries
//!   and the ticket watermark) before each round and wraps the round's
//!   admissions in [`std::panic::catch_unwind`]. A panic anywhere inside
//!   (an oracle blowing up mid-evaluation, an admission dying between
//!   memo expansion and commit) rolls the batch back to the round's entry
//!   savepoint by rebuilding its live queries, which leaves it a fresh
//!   build of them; only that round's
//!   submitters observe it, each as
//!   [`MqoError::RoundFailed`] in its slot. The previously published
//!   snapshot stays live, and subsequent rounds proceed as if the failed
//!   round had never been queued.
//! - **Locks recover from poison.** Every internal lock site recovers the
//!   guard from a [`std::sync::PoisonError`] instead of propagating it:
//!   the writer's per-round rollback is what restores invariants, so a
//!   panic that poisons a lock (even the writer lock itself, via a panic
//!   escaping a submitter) never wedges the service for later callers.
//! - **Deadline budgets degrade gracefully.** [`ServeConfig`] carries an
//!   optional per-[`PriorityClass`] optimization budget;
//!   [`MqoService::run_class`] caps the strategy's wall-clock with it and
//!   the resulting [`RunReport`] carries a
//!   [`crate::strategies::GapCertificate`] bounding what the truncation
//!   may have cost. A budgeted read of a snapshot whose shared report is
//!   already filled gets that converged report instead; a truncated
//!   report is never shared.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use mqo_submod::bitset::BitSet;
use mqo_volcano::PlanNode;

use crate::batch::{BatchSavepoint, QueryTicket};
use crate::config::MqoConfig;
use crate::engine::{BestCostEngine, EngineState};
use crate::error::{MqoError, PlanValidator};
use crate::fault::{self, FaultSite};
use crate::session::OptimizedBatch;
use crate::strategies::{RunReport, Strategy};

/// The serving layer's global lock-acquisition order. Every internal lock
/// site names its rank, and debug builds maintain a thread-local
/// acquisition stack that panics the moment two locks are taken in an
/// order inverting this enum's derived `Ord` — a lock-order race detector
/// in the spirit of lockdep, exercised (and required to stay silent) by
/// the serve-stress and fault-injection suites. Release builds compile
/// the detector out (the rank degenerates to an unread byte on the
/// guard).
///
/// The order is the one the drain protocol already obeys: the writer lock
/// is always outermost, the queue/published/cache locks are only ever
/// taken under it (or alone), and per-submission slots are leaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum LockRank {
    /// [`MqoService::core`], the single-writer lock — always outermost.
    Writer,
    /// [`MqoService::pending`], the admission queue.
    Queue,
    /// [`MqoService::published`], the snapshot slot (snapshot plus its
    /// shared report).
    Published,
    /// [`MqoService::cache`], the materialization cache.
    Cache,
    /// A [`PendingSubmit::slot`] result cell — a leaf; never hold one
    /// while taking any other serve lock.
    Slot,
}

/// Debug-build half of the detector: the thread-local stack of ranks this
/// thread currently holds, checked *before* blocking on the mutex (so an
/// inversion panics instead of deadlocking) and pushed after acquisition.
#[cfg(debug_assertions)]
mod lock_order {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    /// Panics if taking `rank` now would invert the global order.
    pub(super) fn check(rank: LockRank) {
        HELD.with(|held| {
            if let Some(&top) = held.borrow().last() {
                assert!(
                    rank > top,
                    "serve lock-order inversion: acquiring {rank:?} while holding {top:?} \
                     (global order: Writer < Queue < Published < Cache < Slot)"
                );
            }
        });
    }

    pub(super) fn push(rank: LockRank) {
        HELD.with(|held| held.borrow_mut().push(rank));
    }

    /// Guards can drop out of stack order; remove the *last* matching
    /// entry.
    pub(super) fn pop(rank: LockRank) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&r| r == rank) {
                held.remove(pos);
            }
        });
    }
}

/// Release-build half: all no-ops, inlined to nothing.
#[cfg(not(debug_assertions))]
mod lock_order {
    use super::LockRank;
    #[inline(always)]
    pub(super) fn check(_: LockRank) {}
    #[inline(always)]
    pub(super) fn push(_: LockRank) {}
    #[inline(always)]
    pub(super) fn pop(_: LockRank) {}
}

/// A [`MutexGuard`] that pops its rank off the thread's acquisition stack
/// on drop (debug builds; free in release).
struct RankedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    rank: LockRank,
}

impl<T> Deref for RankedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for RankedGuard<'_, T> {
    fn drop(&mut self) {
        lock_order::pop(self.rank);
    }
}

/// Locks `m` at `rank`, recovering the guard if a previous holder
/// panicked. The serving layer's invariants are restored by the writer's
/// per-round savepoint rollback, not by lock poisoning — a poisoned lock
/// here means "a round failed", which the drain already handled (or is
/// about to), so propagating the poison would only wedge innocent later
/// callers. In debug builds the rank feeds the lock-order detector
/// ([`LockRank`]); an out-of-order acquisition panics before it can
/// block.
fn relock<'a, T>(m: &'a Mutex<T>, rank: LockRank) -> RankedGuard<'a, T> {
    lock_order::check(rank);
    let guard = m.lock().unwrap_or_else(PoisonError::into_inner);
    lock_order::push(rank);
    RankedGuard { guard, rank }
}

/// Priority class of a serving-side optimization request; indexes
/// [`ServeConfig::class_budgets`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PriorityClass {
    /// Latency-critical: tightest budget, first to degrade to a certified
    /// partial optimization.
    Interactive = 0,
    /// The default class.
    Standard = 1,
    /// Throughput-oriented: typically unbudgeted (run to convergence).
    Batch = 2,
}

/// Configuration of an [`MqoService`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Strategy used by [`MqoService::run`] and by the materialization
    /// cache to seed candidates. Defaults to [`Strategy::MarginalGreedy`].
    pub strategy: Strategy,
    /// Re-baseline the batch after any round that leaves
    /// [`OptimizedBatch::history_len`] above this. Defaults to
    /// `usize::MAX` (never compact).
    pub history_watermark: usize,
    /// Capacity of the materialization cache. Defaults to 0 (disabled):
    /// plain admission then skips the strategy run and oracle scoring the
    /// cache refresh costs, and the first reader of each snapshot pays
    /// for its optimization instead of the writer.
    pub cache_capacity: usize,
    /// Optional per-[`PriorityClass`] optimization budget, indexed by the
    /// class discriminant. [`MqoService::run_class`] caps
    /// [`MqoConfig::time_budget`] with the class's entry (taking the
    /// minimum when the session already sets one); `None` leaves the
    /// session's budget untouched. Defaults to all-`None`.
    pub class_budgets: [Option<Duration>; 3],
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            strategy: Strategy::MarginalGreedy,
            history_watermark: usize::MAX,
            cache_capacity: 0,
            class_budgets: [None; 3],
        }
    }
}

/// Point-in-time counters of a service; see [`MqoService::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Optimization rounds the writer ran (one per queue drain, however
    /// many submissions it coalesced).
    pub rounds: u64,
    /// Queries admitted.
    pub admitted: u64,
    /// Admissions that rode along in a round another submitter drove
    /// (i.e. `admitted − coalesced` submitters became the writer).
    pub coalesced: u64,
    /// Queries retired.
    pub retired: u64,
    /// Re-baselining compactions triggered by the history watermark.
    pub compactions: u64,
    /// Materialization-cache entries evicted (benefit-driven or
    /// universe-departure).
    pub evictions: u64,
    /// Admission rounds (or publish phases) that panicked, were rolled
    /// back to their entry savepoint, and failed their submitters with
    /// [`MqoError::RoundFailed`].
    pub failed_rounds: u64,
    /// Plans rejected by pre-admission validation
    /// ([`MqoError::InvalidPlan`]); never queued, never part of a round.
    pub rejected: u64,
}

struct Counters {
    rounds: AtomicU64,
    admitted: AtomicU64,
    coalesced: AtomicU64,
    retired: AtomicU64,
    compactions: AtomicU64,
    evictions: AtomicU64,
    failed_rounds: AtomicU64,
    rejected: AtomicU64,
}

/// A queued admission: the plan plus the slot the draining writer fills
/// with the issued ticket — or with the typed error of the round that
/// failed it.
struct PendingSubmit {
    plan: PlanNode,
    slot: Arc<Mutex<Option<Result<QueryTicket, MqoError>>>>,
}

/// A published snapshot and the service's one optimization of it: the
/// configured strategy's report under the session configuration, empty
/// until the writer's cache refresh or the first reader fills it. The two
/// are published, and replaced, together.
struct Published {
    state: Arc<EngineState>,
    report: OnceLock<RunReport>,
}

impl Published {
    fn new(state: Arc<EngineState>) -> Arc<Self> {
        Arc::new(Published {
            state,
            report: OnceLock::new(),
        })
    }
}

/// One retained materialization: the structural fingerprint of its
/// shareable group (stable across evolution commits) and its last
/// leave-one-out benefit under the `bestCost` oracle.
struct MatEntry {
    fingerprint: u64,
    score: f64,
}

/// A shared, concurrent MQO service over one evolvable batch; see the
/// module docs for the protocol and the fault-tolerance contract.
/// `&self`-driven throughout — share it by reference across scoped
/// threads (it is `Sync`), no internal `Arc` required.
pub struct MqoService {
    /// The single writer: the batch editor plus its cost model and config.
    core: Mutex<OptimizedBatch>,
    /// The admission queue; drained in rounds by whichever submitter holds
    /// the writer lock.
    pending: Mutex<Vec<PendingSubmit>>,
    /// The latest published snapshot and its shared report; replaced
    /// (never mutated, apart from filling the report once) on every
    /// commit, before the writer lock is released.
    published: Mutex<Arc<Published>>,
    /// The materialization cache (empty when disabled).
    cache: Mutex<Vec<MatEntry>>,
    /// Lock-free validation snapshot of the session's context; consulted
    /// by every submission before it may enter the queue.
    validator: PlanValidator,
    config: ServeConfig,
    /// Copy of the session's [`MqoConfig`], so readers spin up engine
    /// handles without touching the writer lock.
    mqo_config: MqoConfig,
    counters: Counters,
}

impl MqoService {
    /// Wraps `batch`; called by [`OptimizedBatch::serve_with`]. Publishes
    /// the initial snapshot eagerly so readers never wait on a first
    /// compile.
    pub(crate) fn new(batch: OptimizedBatch, config: ServeConfig) -> Self {
        let mqo_config = batch.config();
        let validator = PlanValidator::new(batch.batch().memo().ctx());
        let published = Published::new(batch.snapshot());
        MqoService {
            core: Mutex::new(batch),
            pending: Mutex::new(Vec::new()),
            published: Mutex::new(published),
            cache: Mutex::new(Vec::new()),
            validator,
            config,
            mqo_config,
            counters: Counters {
                rounds: AtomicU64::new(0),
                admitted: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                retired: AtomicU64::new(0),
                compactions: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                failed_rounds: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
            },
        }
    }

    // -------------------------------------------------------------------
    // Readers: never block the writer.
    // -------------------------------------------------------------------

    /// The latest published snapshot — one `Arc` clone, regardless of what
    /// the writer is doing. Everything reachable from it is immutable;
    /// optimize against it with [`EngineState::run`] or spin up a
    /// per-caller engine handle with [`EngineState::engine`].
    pub fn snapshot(&self) -> Arc<EngineState> {
        Arc::clone(&self.published().state)
    }

    /// The configured strategy's report on the latest snapshot: apart from
    /// its timings, bitwise what a fresh `snapshot().run(strategy,
    /// config)` returns. Each
    /// snapshot is optimized at most once: the first call after a publish
    /// (or the writer's cache refresh) runs the strategy and every later
    /// call returns a copy, so [`RunReport::opt_time`] is the one-off cost
    /// of optimizing this snapshot. A panic inside that run leaves the
    /// report unfilled, and the next call retries.
    pub fn run(&self) -> RunReport {
        self.shared_report(&self.published())
    }

    /// Optimizes the latest snapshot with an explicit strategy; the
    /// configured strategy shares [`MqoService::run`]'s report.
    pub fn run_with(&self, strategy: Strategy) -> RunReport {
        if strategy == self.config.strategy {
            return self.run();
        }
        self.snapshot().run(strategy, self.mqo_config)
    }

    /// Optimizes the latest snapshot with the configured strategy under
    /// `class`'s deadline budget ([`ServeConfig::class_budgets`]); without
    /// one this is [`MqoService::run`]. A budgeted class receives the
    /// snapshot's shared report when it is already filled: no deadline
    /// cut that run short, so its [`RunReport::gap_certificate`] is at
    /// least as tight as a budgeted run's. Otherwise the greedy run stops
    /// at the deadline, the certificate bounds what the truncation may
    /// have cost, and the report is never shared.
    pub fn run_class(&self, class: PriorityClass) -> RunReport {
        let Some(budget) = self.config.class_budgets[class as usize] else {
            return self.run();
        };
        let published = self.published();
        if let Some(report) = published.report.get() {
            return report.clone();
        }
        let mut config = self.mqo_config;
        config.time_budget = Some(config.time_budget.map_or(budget, |s| s.min(budget)));
        published.state.run(self.config.strategy, config)
    }

    fn published(&self) -> Arc<Published> {
        Arc::clone(&relock(&self.published, LockRank::Published))
    }

    /// `published`'s shared report, optimizing its snapshot if no one has
    /// yet. Readers racing on an empty report each run the (deterministic)
    /// strategy and the first to finish stores it. A report a session
    /// [`MqoConfig::time_budget`] may have cut short is returned but never
    /// stored: a later reader on a less loaded machine may converge.
    fn shared_report(&self, published: &Published) -> RunReport {
        if let Some(report) = published.report.get() {
            return report.clone();
        }
        let report = published.state.run(self.config.strategy, self.mqo_config);
        let converged = self.mqo_config.time_budget.is_none()
            || report.gap_certificate.is_some_and(|c| !c.truncated);
        if converged {
            let _ = published.report.set(report.clone());
        }
        report
    }

    /// The service configuration.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// Point-in-time counters (relaxed loads; exact once the writer is
    /// quiescent).
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            rounds: self.counters.rounds.load(Ordering::Relaxed),
            admitted: self.counters.admitted.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            retired: self.counters.retired.load(Ordering::Relaxed),
            compactions: self.counters.compactions.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            failed_rounds: self.counters.failed_rounds.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
        }
    }

    /// Structural fingerprints of the currently cached materializations,
    /// in descending benefit order.
    pub fn cached_materializations(&self) -> Vec<u64> {
        relock(&self.cache, LockRank::Cache)
            .iter()
            .map(|e| e.fingerprint)
            .collect()
    }

    // -------------------------------------------------------------------
    // Writer-side: admission, retirement, maintenance.
    // -------------------------------------------------------------------

    /// Admits `plan` into the live batch and returns its ticket. Safe to
    /// call from any number of threads: submissions arriving while a
    /// round is in flight are coalesced into the next round (the
    /// in-flight writer admits them; this call just waits and picks its
    /// ticket up). On return, the published snapshot includes the query.
    ///
    /// # Panics
    /// If the plan fails pre-admission validation or its round failed;
    /// the fallible variant is [`MqoService::try_submit_query`].
    pub fn submit_query(&self, plan: PlanNode) -> QueryTicket {
        self.try_submit_query(plan)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`MqoService::submit_query`]: a malformed plan is rejected
    /// at the door as [`MqoError::InvalidPlan`] (before it can enter a
    /// round shared with healthy submitters), and a submission whose
    /// coalesced admission round panicked comes back as
    /// [`MqoError::RoundFailed`] — the batch was rolled back to the
    /// round's entry savepoint, the published snapshot is unchanged, and
    /// resubmitting is safe.
    ///
    /// ```
    /// # use mqo_catalog::{Catalog, TableBuilder};
    /// # use mqo_volcano::{DagContext, InstanceId, PlanNode};
    /// use mqo_core::{MqoError, Session};
    /// # let mut cat = Catalog::new();
    /// # cat.add_table(TableBuilder::new("t", 100.0).key_column("t_key", 4).primary_key(&["t_key"]).build());
    /// # let mut ctx = DagContext::new(cat);
    /// # let t = ctx.instance_by_name("t", 0);
    /// let service = Session::builder()
    ///     .context(ctx)
    ///     .query(PlanNode::scan(t))
    ///     .threads(1)
    ///     .build()
    ///     .serve();
    /// // Unknown table instance: rejected before any admission round.
    /// assert!(matches!(
    ///     service.try_submit_query(PlanNode::scan(InstanceId(99))),
    ///     Err(MqoError::InvalidPlan { .. })
    /// ));
    /// // A well-formed plan is admitted as usual.
    /// let ticket = service.try_submit_query(PlanNode::scan(t)).unwrap();
    /// assert!(service.tickets().contains(&ticket));
    /// ```
    pub fn try_submit_query(&self, plan: PlanNode) -> Result<QueryTicket, MqoError> {
        if let Err(fault) = self.validator.validate(&plan) {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(MqoError::InvalidPlan { query: 0, fault });
        }
        let slot = Arc::new(Mutex::new(None));
        relock(&self.pending, LockRank::Queue).push(PendingSubmit {
            plan,
            slot: Arc::clone(&slot),
        });
        let mut core = relock(&self.core, LockRank::Writer);
        // A writer that beat us to the lock may have resolved us already.
        if let Some(r) = relock(&slot, LockRank::Slot).clone() {
            return r;
        }
        self.drain(&mut core);
        let r = relock(&slot, LockRank::Slot)
            .clone()
            .expect("draining writer resolves every queued slot");
        r
    }

    /// Retires the query behind `ticket` and publishes the shrunk
    /// snapshot (also draining any queued admissions).
    ///
    /// # Panics
    /// As [`OptimizedBatch::retire_query`]: retired/unknown tickets and
    /// the last live query are rejected. The fallible variant is
    /// [`MqoService::try_retire_query`].
    pub fn retire_query(&self, ticket: QueryTicket) {
        self.try_retire_query(ticket)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`MqoService::retire_query`]: an unknown or
    /// already-retired ticket, or one whose retirement would empty the
    /// batch, comes back as a typed error with the batch and published
    /// snapshot untouched.
    ///
    /// ```
    /// # use mqo_catalog::{Catalog, TableBuilder};
    /// # use mqo_volcano::{DagContext, PlanNode};
    /// use mqo_core::{MqoError, Session};
    /// # let mut cat = Catalog::new();
    /// # cat.add_table(TableBuilder::new("t", 100.0).key_column("t_key", 4).primary_key(&["t_key"]).build());
    /// # let mut ctx = DagContext::new(cat);
    /// # let t = ctx.instance_by_name("t", 0);
    /// let service = Session::builder()
    ///     .context(ctx)
    ///     .query(PlanNode::scan(t))
    ///     .threads(1)
    ///     .build()
    ///     .serve();
    /// let ticket = service.tickets()[0];
    /// // Retiring twice: the second call reports instead of panicking.
    /// let extra = service.submit_query(PlanNode::scan(t));
    /// service.retire_query(ticket);
    /// assert!(matches!(
    ///     service.try_retire_query(ticket),
    ///     Err(MqoError::TicketRetired(_))
    /// ));
    /// # let _ = extra;
    /// ```
    pub fn try_retire_query(&self, ticket: QueryTicket) -> Result<(), MqoError> {
        let mut core = relock(&self.core, LockRank::Writer);
        core.try_retire_query(ticket)?;
        self.counters.retired.fetch_add(1, Ordering::Relaxed);
        self.drain(&mut core);
        Ok(())
    }

    /// Snapshots the batch's evolution state for a later
    /// [`MqoService::rollback`] (what-if admission probes).
    pub fn savepoint(&self) -> BatchSavepoint {
        relock(&self.core, LockRank::Writer).savepoint()
    }

    /// Rewinds to `sp` and publishes the restored snapshot. Tickets issued
    /// since the savepoint are dead afterwards.
    ///
    /// # Panics
    /// If `sp` is stale; the fallible variant is
    /// [`MqoService::try_rollback`].
    pub fn rollback(&self, sp: BatchSavepoint) {
        self.try_rollback(sp).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`MqoService::rollback`]: a savepoint from another batch,
    /// or one the service already rolled back past (e.g. through a
    /// concurrent caller), is rejected as [`MqoError::StaleSavepoint`]
    /// with the batch and published snapshot untouched.
    ///
    /// ```
    /// # use mqo_catalog::{Catalog, TableBuilder};
    /// # use mqo_volcano::{DagContext, PlanNode};
    /// use mqo_core::{MqoError, Session};
    /// # let mut cat = Catalog::new();
    /// # cat.add_table(TableBuilder::new("t", 100.0).key_column("t_key", 4).primary_key(&["t_key"]).build());
    /// # let mut ctx = DagContext::new(cat);
    /// # let t = ctx.instance_by_name("t", 0);
    /// let service = Session::builder()
    ///     .context(ctx)
    ///     .query(PlanNode::scan(t))
    ///     .threads(1)
    ///     .build()
    ///     .serve();
    /// let outer = service.savepoint();
    /// let _extra = service.submit_query(PlanNode::scan(t));
    /// let inner = service.savepoint();
    /// service.rollback(outer); // rewinds past `inner`
    /// assert!(matches!(
    ///     service.try_rollback(inner),
    ///     Err(MqoError::StaleSavepoint)
    /// ));
    /// ```
    pub fn try_rollback(&self, sp: BatchSavepoint) -> Result<(), MqoError> {
        let mut core = relock(&self.core, LockRank::Writer);
        core.try_rollback(sp)?;
        self.drain(&mut core);
        Ok(())
    }

    /// Tickets of the currently live queries, in admission order.
    pub fn tickets(&self) -> Vec<QueryTicket> {
        relock(&self.core, LockRank::Writer).tickets()
    }

    /// Current evolution-history size; see [`OptimizedBatch::history_len`].
    pub fn history_len(&self) -> usize {
        relock(&self.core, LockRank::Writer).history_len()
    }

    /// Shuts the service down and hands the batch back, admitting any
    /// still-queued plans first. (With scoped reader/writer threads joined
    /// the queue is empty and this is free.)
    pub fn finish(self) -> OptimizedBatch {
        let mut core = self
            .core
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let pending = self
            .pending
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        for p in pending {
            let t = core.add_query(p.plan);
            *relock(&p.slot, LockRank::Slot) = Some(Ok(t));
        }
        core
    }

    /// Drains the admission queue in rounds, then compacts, snapshots,
    /// refreshes the cache, and publishes. Caller holds the writer lock.
    ///
    /// Containment protocol: each round is bracketed by a batch savepoint
    /// and `catch_unwind` — a panicking round is rolled back and fails
    /// only its own submitters ([`MqoError::RoundFailed`]); later rounds
    /// and the publish continue. The publish phase (compaction, snapshot
    /// compile, cache refresh) is bracketed the same way against the
    /// drain-entry savepoint: if *it* panics, every admission of this
    /// drain is rolled back and failed, the cache is dropped (it may be
    /// mid-update), and the previously published snapshot stays live —
    /// so a published snapshot always reflects a fully committed state.
    fn drain(&self, core: &mut OptimizedBatch) {
        // Chaos-test site: fires while the writer lock is held and before
        // any mutation, so the panic escapes through the caller and
        // poisons the writer lock itself (which `relock` must absorb).
        fault::hit(FaultSite::ServeRound);
        let entry_sp = core.savepoint();
        // Successful admissions, resolved only after a successful publish:
        // a submitter must never see Ok for a query the published snapshot
        // will not contain.
        let mut fills: Vec<(PendingSubmit, QueryTicket)> = Vec::new();
        loop {
            let round = std::mem::take(&mut *relock(&self.pending, LockRank::Queue));
            if round.is_empty() {
                break;
            }
            self.counters.rounds.fetch_add(1, Ordering::Relaxed);
            self.counters
                .coalesced
                .fetch_add(round.len() as u64 - 1, Ordering::Relaxed);
            let sp = core.savepoint();
            let tickets = catch_unwind(AssertUnwindSafe(|| {
                round
                    .iter()
                    .map(|p| core.add_query(p.plan.clone()))
                    .collect::<Vec<_>>()
            }));
            match tickets {
                Ok(tickets) => {
                    self.counters
                        .admitted
                        .fetch_add(tickets.len() as u64, Ordering::Relaxed);
                    fills.extend(round.into_iter().zip(tickets));
                }
                Err(_) => {
                    self.counters.failed_rounds.fetch_add(1, Ordering::Relaxed);
                    core.rollback(sp);
                    for p in &round {
                        *relock(&p.slot, LockRank::Slot) = Some(Err(MqoError::RoundFailed));
                    }
                }
            }
        }
        let published = catch_unwind(AssertUnwindSafe(|| {
            if core.history_len() > self.config.history_watermark {
                core.compact_history();
                self.counters.compactions.fetch_add(1, Ordering::Relaxed);
            }
            let next = Published::new(core.snapshot());
            if self.config.cache_capacity > 0 {
                self.refresh_cache(core, &next);
            }
            next
        }));
        match published {
            Ok(next) => {
                // Publish before resolving slots (and before releasing the
                // writer lock): a submitter whose slot resolves Ok cannot
                // wake up to a snapshot older than its own admission.
                *relock(&self.published, LockRank::Published) = next;
                for (p, t) in fills {
                    *relock(&p.slot, LockRank::Slot) = Some(Ok(t));
                }
            }
            Err(_) => {
                // The publish phase itself blew up (e.g. the oracle
                // panicked scoring the cache): roll every admission of
                // this drain back and fail its submitters — the batch
                // returns to the drain-entry state and the previously
                // published snapshot stays live. The cache may have been
                // mid-update when the panic hit; it is only a cache, so
                // drop it rather than trust it.
                self.counters.failed_rounds.fetch_add(1, Ordering::Relaxed);
                core.rollback(entry_sp);
                relock(&self.cache, LockRank::Cache).clear();
                for (p, _) in fills {
                    *relock(&p.slot, LockRank::Slot) = Some(Err(MqoError::RoundFailed));
                }
            }
        }
    }

    /// Refreshes the materialization cache against the new commit: drops
    /// entries whose group left the universe, folds in the configured
    /// strategy's chosen set (the snapshot's shared report, which this
    /// fills before the snapshot is published), re-scores every entry by
    /// its leave-one-out benefit `bc(C∖{e}) − bc(C)`, and evicts
    /// non-positive scores plus the smallest scores past capacity.
    fn refresh_cache(&self, core: &OptimizedBatch, next: &Published) {
        let fps = core.batch().shareable_fingerprints();
        let elem_of_fp: HashMap<u64, usize> =
            fps.iter().enumerate().map(|(i, &f)| (f, i)).collect();
        let report = self.shared_report(next);

        let mut cache = relock(&self.cache, LockRank::Cache);
        cache.retain(|e| elem_of_fp.contains_key(&e.fingerprint));
        for &g in &report.materialized {
            let e = core
                .batch()
                .shareable_index(g)
                .expect("chosen materialization is a universe element");
            let fp = fps[e];
            if !cache.iter().any(|c| c.fingerprint == fp) {
                cache.push(MatEntry {
                    fingerprint: fp,
                    score: 0.0,
                });
            }
        }
        let candidates = cache.len();
        if candidates == 0 {
            return;
        }

        let elems: Vec<usize> = cache.iter().map(|c| elem_of_fp[&c.fingerprint]).collect();
        let scores = leave_one_out_scores(&mut next.state.engine(self.mqo_config), &elems);
        for (entry, score) in cache.iter_mut().zip(scores) {
            entry.score = score;
        }
        cache.retain(|e| e.score > 0.0);
        cache.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then(a.fingerprint.cmp(&b.fingerprint))
        });
        cache.truncate(self.config.cache_capacity);
        self.counters
            .evictions
            .fetch_add((candidates - cache.len()) as u64, Ordering::Relaxed);
    }
}

/// The leave-one-out benefit `bc(C∖{e}) − bc(C)` of every element `e` of
/// `C = elems`. `C` is committed once and each `C∖{e}` is a distance-1
/// overlay off it. (Batching the sets through `bc_many` would rebase to
/// their shared intersection ∅ and full-solve every set past the rebase
/// threshold.)
fn leave_one_out_scores(engine: &mut BestCostEngine, elems: &[usize]) -> Vec<f64> {
    let set = BitSet::from_iter(engine.universe_size(), elems.iter().copied());
    engine.rebase(&set);
    let full = engine.bc(&set);
    let mut without = set;
    elems
        .iter()
        .map(|&e| {
            without.remove(e);
            let score = engine.bc(&without) - full;
            without.insert(e);
            score
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use mqo_volcano::cost::DiskCostModel;

    /// Cache scoring on ≥ 6 entries (where batching the leave-one-out sets
    /// used to full-solve each one) matches a `force_full` recomputation.
    #[test]
    fn leave_one_out_scores_match_force_full() {
        let w = mqo_tpcd::batched(4, 1.0);
        let batch = Session::builder()
            .context(w.ctx)
            .queries(w.queries)
            .cost_model(DiskCostModel::paper())
            .threads(1)
            .build();
        let state = batch.snapshot();
        let n = state.universe_size();
        assert!(n >= 8, "BQ4 must offer at least 8 candidates, has {n}");
        let elems: Vec<usize> = (0..n).step_by(n / 8).take(8).collect();
        let config = MqoConfig::serial();
        let mut engine = state.engine(config);
        let scores = leave_one_out_scores(&mut engine, &elems);
        assert_eq!(
            engine.eval_counts(),
            (1, elems.len() as u64 + 1),
            "one full solve commits C; every score is an overlay off it"
        );

        let mut full = state.engine(MqoConfig {
            force_full: true,
            ..config
        });
        let set = BitSet::from_iter(n, elems.iter().copied());
        let bc_set = full.bc(&set);
        assert_eq!(scores.len(), elems.len());
        for (&e, &score) in elems.iter().zip(&scores) {
            let mut without = set.clone();
            without.remove(e);
            let expect = full.bc(&without) - bc_set;
            assert!(
                (score - expect).abs() < 1e-9 * (1.0 + bc_set.abs()),
                "element {e}: score {score} vs force_full {expect}"
            );
        }
    }
}

/// The lock-order detector's own contract tests; the full-service
/// exercises (where the detector must stay *silent* under concurrent
/// chaos) are the serve-stress and fault-injection suites.
#[cfg(all(test, debug_assertions))]
mod lock_order_tests {
    use super::*;

    #[test]
    fn ordered_acquisition_is_silent() {
        let writer = Mutex::new(0);
        let queue = Mutex::new(0);
        let cache = Mutex::new(0);
        let _w = relock(&writer, LockRank::Writer);
        let _q = relock(&queue, LockRank::Queue);
        let _c = relock(&cache, LockRank::Cache);
    }

    #[test]
    #[should_panic(expected = "serve lock-order inversion")]
    fn inverted_acquisition_panics() {
        let cache = Mutex::new(0);
        let writer = Mutex::new(0);
        let _c = relock(&cache, LockRank::Cache);
        let _w = relock(&writer, LockRank::Writer);
    }

    #[test]
    #[should_panic(expected = "serve lock-order inversion")]
    fn same_rank_reacquisition_panics() {
        // Two distinct mutexes at the same rank: still an inversion (the
        // order is strict), catching self-deadlock-shaped protocols.
        let a = Mutex::new(0);
        let b = Mutex::new(0);
        let _x = relock(&a, LockRank::Queue);
        let _y = relock(&b, LockRank::Queue);
    }

    #[test]
    fn release_unwinds_the_stack() {
        let cache = Mutex::new(0);
        let writer = Mutex::new(0);
        {
            let _c = relock(&cache, LockRank::Cache);
        }
        // Cache released: taking the writer afterwards is in-order.
        let _w = relock(&writer, LockRank::Writer);
    }

    #[test]
    fn out_of_order_drop_pops_the_right_rank() {
        let writer = Mutex::new(0);
        let queue = Mutex::new(0);
        let published = Mutex::new(0);
        let w = relock(&writer, LockRank::Writer);
        let q = relock(&queue, LockRank::Queue);
        drop(w); // drops a non-top rank: Writer sat below Queue
                 // Queue is still held (now the top): Published is in-order, and
                 // the stack did not mistakenly lose Queue when Writer left.
        let _p = relock(&published, LockRank::Published);
        drop(q);
    }

    #[test]
    fn detector_survives_an_absorbed_panic() {
        // A panic while holding a ranked guard (the poisoning scenario the
        // chaos suites inject) must unwind the stack record too, or every
        // later acquisition on this thread would falsely invert.
        let writer = Mutex::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _w = relock(&writer, LockRank::Writer);
            panic!("poison the writer lock");
        }));
        assert!(caught.is_err());
        // Stack is clean and the poison is absorbed.
        let _w = relock(&writer, LockRank::Writer);
    }
}
