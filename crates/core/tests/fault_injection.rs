//! Seeded fault-injection suite for the fault-tolerance layer.
//!
//! Uses the in-tree deterministic failpoints (`mqo_core::fault`) to blow
//! up the pipeline at its three chaos sites — oracle entry, the
//! admission window between savepoint and commit, and the serving drain
//! under the writer lock — and pins the containment contract:
//!
//! - a failed admission round is rolled back to its entry savepoint
//!   (`Memo::check_consistency` green, the shareable universe unchanged
//!   slot for slot, prior tickets and the published snapshot intact) and
//!   fails only its own submitters, each with the typed
//!   [`MqoError::RoundFailed`];
//! - a panic that poisons the writer lock itself does not wedge the
//!   service (every lock site recovers from poison);
//! - pre-admission validation rejects malformed plans at the door,
//!   before they can enter a round shared with healthy submitters;
//! - deadline budgets degrade to certified partial optimizations instead
//!   of failing;
//! - the report a service shares per snapshot is only ever a completed,
//!   converged run: a reader panic or a budgeted read leaves it unfilled.
//!
//! Failpoints are thread-local: each test arms on its own thread, so the
//! suite is safe under the default parallel test runner, and
//! `scripts/verify.sh` runs it under both `MQO_THREADS=1` and `=4`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use mqo_core::fault::{self, FaultSite};
use mqo_core::session::{OptimizedBatch, Session};
use mqo_core::strategies::Strategy;
use mqo_core::{MqoConfig, MqoError, PlanFault, PriorityClass, ServeConfig};
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::{DagContext, InstanceId, PlanNode};

fn build(ctx: DagContext, queries: &[PlanNode]) -> OptimizedBatch {
    Session::builder()
        .context(ctx)
        .queries(queries.iter().cloned())
        .cost_model(DiskCostModel::paper())
        .threads(1)
        .build()
}

/// Pre-admission validation (S2): a malformed plan is rejected before it
/// is queued — no round runs, nothing is admitted, and the typed error
/// names the fault.
#[test]
fn invalid_plans_are_rejected_at_the_door() {
    let w = mqo_tpcd::batched(3, 1.0);
    let n_instances = w.ctx.n_instances();
    let service = build(w.ctx, &w.queries[..2]).serve();
    let rounds_before = service.stats().rounds;
    let tickets_before = service.tickets();

    let bogus = PlanNode::scan(InstanceId(n_instances as u32 + 7));
    match service.try_submit_query(bogus) {
        Err(MqoError::InvalidPlan {
            fault: PlanFault::UnknownInstance { inst, .. },
            ..
        }) => assert_eq!(inst, InstanceId(n_instances as u32 + 7)),
        other => panic!("expected InvalidPlan(UnknownInstance), got {other:?}"),
    }

    let stats = service.stats();
    assert_eq!(stats.rejected, 1, "rejection must be counted");
    assert_eq!(
        stats.rounds, rounds_before,
        "a rejected plan must never start an admission round"
    );
    assert_eq!(service.tickets(), tickets_before);
    // The same check guards `Session::builder()` itself.
    let w2 = mqo_tpcd::batched(3, 1.0);
    let bad = PlanNode::scan(InstanceId(w2.ctx.n_instances() as u32));
    match Session::builder().context(w2.ctx).query(bad).try_build() {
        Err(err) => assert!(matches!(err, MqoError::InvalidPlan { query: 0, .. })),
        Ok(_) => panic!("builder accepted a plan over an unknown instance"),
    }
    drop(service.finish());
}

/// S3 at the batch layer: an injected panic in the admission window
/// (after the memo savepoint, before `commit_evolution`) is recoverable —
/// rolling back to a pre-admission savepoint leaves the memo consistent,
/// the shareable universe unchanged slot for slot, and the batch fully
/// usable.
#[test]
fn admission_panic_between_savepoint_and_commit_is_recoverable() {
    let w = mqo_tpcd::batched(3, 1.0);
    let pool = w.queries.clone();
    let mut batch = build(w.ctx, &pool[..2]);

    let sp = batch.savepoint();
    let shareable = batch.batch().shareable().to_vec();
    let slot_fingerprints = batch.batch().shareable_fingerprints();
    let fingerprints = batch.batch().universe_fingerprints();
    let tickets = batch.tickets();
    let reference = batch.run(Strategy::MarginalGreedy);

    fault::arm(FaultSite::AdmissionPrecommit, 1);
    let result = catch_unwind(AssertUnwindSafe(|| batch.add_query(pool[2].clone())));
    fault::disarm_all();
    assert!(result.is_err(), "armed failpoint must fire");

    batch
        .try_rollback(sp)
        .expect("entry savepoint must be live");
    batch.batch().memo().check_consistency();
    assert_eq!(
        batch.batch().shareable(),
        &shareable[..],
        "rolling back an uncommitted admission must keep every universe slot"
    );
    assert_eq!(batch.batch().shareable_fingerprints(), slot_fingerprints);
    assert_eq!(batch.batch().universe_fingerprints(), fingerprints);
    assert_eq!(batch.tickets(), tickets);
    let after = batch.run(Strategy::MarginalGreedy);
    assert_eq!(after.total_cost.to_bits(), reference.total_cost.to_bits());

    // The batch is not a zombie: the same admission succeeds un-faulted.
    let t = batch.add_query(pool[2].clone());
    assert!(batch.batch().is_live(t));
}

/// S3 at the service layer: the draining writer contains an injected
/// admission panic, fails exactly that round's submitters with
/// [`MqoError::RoundFailed`], and keeps serving — prior tickets, the
/// published snapshot, and later admissions are untouched.
#[test]
fn service_contains_admission_panics_and_keeps_serving() {
    let w = mqo_tpcd::batched(3, 1.0);
    let pool = w.queries.clone();
    let service = build(w.ctx, &pool[..2]).serve();

    let tickets_before = service.tickets();
    let epoch_before = {
        // Observe through a snapshot-independent probe: failed rounds
        // must republish content-identical state.
        service.snapshot().n_queries()
    };
    let reference = service.run();

    fault::arm(FaultSite::AdmissionPrecommit, 1);
    let err = service.try_submit_query(pool[2].clone());
    fault::disarm_all();
    assert_eq!(err, Err(MqoError::RoundFailed));

    assert_eq!(service.tickets(), tickets_before);
    assert_eq!(service.snapshot().n_queries(), epoch_before);
    assert_eq!(service.stats().failed_rounds, 1);
    let replay = service.run();
    assert_eq!(replay.total_cost.to_bits(), reference.total_cost.to_bits());

    // Resubmitting after the failure is safe and succeeds.
    let t = service
        .try_submit_query(pool[2].clone())
        .expect("un-faulted resubmission must be admitted");
    assert!(service.tickets().contains(&t));

    let served = service.finish();
    served.batch().memo().check_consistency();
    let w2 = mqo_tpcd::batched(3, 1.0);
    let fresh = build(w2.ctx, &pool[..3]);
    assert_eq!(
        served.batch().universe_fingerprints(),
        fresh.batch().universe_fingerprints(),
        "post-chaos universe must match a fresh build of the survivors"
    );
    assert_eq!(
        served.run(Strategy::MarginalGreedy).total_cost.to_bits(),
        fresh.run(Strategy::MarginalGreedy).total_cost.to_bits()
    );
}

/// An oracle panic during the publish phase (scoring the materialization
/// cache) fails the whole drain's admissions, keeps the previous snapshot
/// live, drops the possibly-torn cache, and leaves the service healthy.
#[test]
fn oracle_panic_in_cache_refresh_fails_the_round_not_the_service() {
    let w = mqo_tpcd::batched(4, 1.0);
    let pool = w.queries.clone();
    let service = build(w.ctx, &pool[..2]).serve_with(ServeConfig {
        cache_capacity: 8,
        ..ServeConfig::default()
    });

    // Warm one successful admission so the cache has content to lose.
    service
        .try_submit_query(pool[2].clone())
        .expect("un-faulted admission");
    let n_before = service.snapshot().n_queries();
    let tickets_before = service.tickets();

    fault::arm(FaultSite::OracleEval, 1);
    let err = service.try_submit_query(pool[3].clone());
    fault::disarm_all();
    assert_eq!(err, Err(MqoError::RoundFailed));

    assert_eq!(service.tickets(), tickets_before);
    assert_eq!(
        service.snapshot().n_queries(),
        n_before,
        "failed publish must leave the previous snapshot live"
    );
    assert!(
        service.cached_materializations().is_empty(),
        "a cache that may have been mid-update must be dropped"
    );
    assert_eq!(service.stats().failed_rounds, 1);

    // The service recovers fully: the same plan admits, the cache
    // repopulates on the successful publish.
    service
        .try_submit_query(pool[3].clone())
        .expect("resubmission after contained oracle panic");
    assert_eq!(service.snapshot().n_queries(), n_before + 1);
    let served = service.finish();
    served.batch().memo().check_consistency();
}

/// A panic escaping a submitter (drain-entry failpoint) poisons the
/// writer lock itself; every later caller must recover the lock and the
/// orphaned submission is admitted by the next drain (at-least-once for
/// a client that died mid-call).
#[test]
fn poisoned_writer_lock_recovers() {
    let w = mqo_tpcd::batched(3, 1.0);
    let pool = w.queries.clone();
    let service = build(w.ctx, &pool[..2]).serve();
    let tickets_before = service.tickets().len();

    std::thread::scope(|s| {
        let service = &service;
        let plan = pool[2].clone();
        let victim = s.spawn(move || {
            fault::arm(FaultSite::ServeRound, 1);
            // Panics inside the drain while holding the writer lock.
            let _ = service.try_submit_query(plan);
        });
        assert!(
            victim.join().is_err(),
            "drain-entry failpoint must escape the submitter"
        );
    });

    // Readers and writers keep working through the poisoned locks.
    assert_eq!(service.tickets().len(), tickets_before);
    let t = service
        .try_submit_query(pool[2].clone())
        .expect("submission after writer-lock poison");
    assert!(service.tickets().contains(&t));
    // The drain also admitted the victim's orphaned queue entry.
    assert_eq!(service.tickets().len(), tickets_before + 2);
    assert!(service.run().total_cost.is_finite());
    let served = service.finish();
    served.batch().memo().check_consistency();
}

/// Per-priority-class deadline budgets: an exhausted budget degrades to a
/// certified partial optimization (truncated certificate), an unbudgeted
/// class is bit-identical to the plain run, and both carry a certificate.
#[test]
fn class_budgets_degrade_to_certified_partial_runs() {
    let w = mqo_tpcd::batched(4, 1.0);
    let service = build(w.ctx, &w.queries).serve_with(ServeConfig {
        class_budgets: [Some(Duration::ZERO), None, None],
        ..ServeConfig::default()
    });

    let degraded = service.run_class(PriorityClass::Interactive);
    let cert = degraded
        .gap_certificate
        .expect("greedy strategies always certify");
    assert!(cert.truncated, "zero budget must truncate immediately");
    assert!(cert.ratio >= 1.0, "certified ratio below 1: {}", cert.ratio);
    // Nothing picked: the degraded plan is the no-sharing baseline, still
    // a complete, executable answer.
    assert!(degraded.materialized.is_empty());
    assert_eq!(
        degraded.total_cost.to_bits(),
        degraded.volcano_cost.to_bits()
    );

    let full = service.run_class(PriorityClass::Batch);
    let reference = service.run();
    assert_eq!(full.total_cost.to_bits(), reference.total_cost.to_bits());
    let full_cert = full.gap_certificate.expect("converged runs certify too");
    assert!(!full_cert.truncated);
    assert!(full.total_cost <= degraded.total_cost + 1e-9);
    drop(service.finish());
}

/// A reader whose optimization panics (oracle fault on the reader thread,
/// cache off so no writer ever filled the report) leaves the snapshot's
/// shared report unfilled: the next reader re-runs and gets the same
/// answer as a fresh run, and that run fills it.
#[test]
fn reader_panic_leaves_the_shared_report_unfilled() {
    let w = mqo_tpcd::batched(4, 1.0);
    let service = build(w.ctx, &w.queries).serve();
    let reference = service
        .snapshot()
        .run(Strategy::MarginalGreedy, MqoConfig::serial());

    fault::arm(FaultSite::OracleEval, 1);
    let caught = catch_unwind(AssertUnwindSafe(|| service.run()));
    fault::disarm_all();
    assert!(
        caught.is_err(),
        "armed oracle fault must fire in the reader"
    );

    let after = service.run();
    assert_eq!(after.total_cost.to_bits(), reference.total_cost.to_bits());
    assert_eq!(after.materialized, reference.materialized);
    assert_eq!(after.bc_calls, reference.bc_calls);
    // The retry filled the report: the next read runs no oracle call.
    fault::arm(FaultSite::OracleEval, 1);
    let shared = service.run();
    fault::disarm_all();
    assert_eq!(shared.total_cost.to_bits(), reference.total_cost.to_bits());
    drop(service.finish());
}

/// A budgeted read on a snapshot nobody has optimized yet runs under its
/// own deadline and never stores its truncated report; once an unbudgeted
/// read has filled the shared report, the budgeted class receives that
/// converged report instead.
#[test]
fn budgeted_reads_never_fill_the_shared_report() {
    let w = mqo_tpcd::batched(4, 1.0);
    let service = build(w.ctx, &w.queries).serve_with(ServeConfig {
        class_budgets: [Some(Duration::ZERO), None, None],
        ..ServeConfig::default()
    });
    let reference = service
        .snapshot()
        .run(Strategy::MarginalGreedy, MqoConfig::serial());

    let degraded = service.run_class(PriorityClass::Interactive);
    let cert = degraded.gap_certificate.expect("greedy runs certify");
    assert!(
        cert.truncated,
        "zero budget on an empty report must truncate"
    );

    let full = service.run();
    assert!(!full.gap_certificate.expect("certified").truncated);
    assert_eq!(full.total_cost.to_bits(), reference.total_cost.to_bits());
    assert_eq!(full.materialized, reference.materialized);

    let shared = service.run_class(PriorityClass::Interactive);
    assert!(!shared.gap_certificate.expect("certified").truncated);
    assert_eq!(shared.total_cost.to_bits(), full.total_cost.to_bits());
    assert_eq!(shared.materialized, full.materialized);
    drop(service.finish());
}
