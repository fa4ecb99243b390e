//! Stress and isolation suite for the concurrent serving layer
//! ([`mqo_core::serve::MqoService`]).
//!
//! The differential gate: **any** interleaving of concurrent
//! `submit_query` / `retire_query` / snapshot reads must leave the
//! service bit for bit a fresh single-threaded `Session::build()` of the
//! surviving queries in the service's ticket order — the universe in
//! element order, every cost bit, the chosen sets and the rendered plans.
//! Workers retire only their own submissions, so the survivor set is
//! interleaving-independent while the admission order, round coalescing,
//! and writer elections are not; the fresh build follows the ticket order
//! the interleaving produced.
//!
//! Also pinned here: snapshot isolation (a reader holding an old
//! [`mqo_core::EngineState`] gets bit-identical answers while commits
//! land underneath), the re-baselining bound (after
//! `compact_history` the evolution history depends only on the live
//! query count, not on how many add/retire cycles preceded it), and the
//! materialization cache's capacity bound and determinism, and the
//! shared report: `MqoService::run` answers with the one optimization of
//! the published snapshot, bitwise a fresh run of it, replaced on every
//! publish.
//!
//! `scripts/verify.sh` runs this file under both `MQO_THREADS=1` and
//! `MQO_THREADS=4`; the engine-side thread sweep below is explicit.

mod common;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use common::{assert_equivalent, build};
use mqo_core::fault::{self, FaultSite};
use mqo_core::strategies::Strategy;
use mqo_core::{
    MqoConfig, MqoError, MqoService, OptimizedBatch, PriorityClass, QueryTicket, RunReport,
    ServeConfig,
};
use mqo_submod::prng::Prng;
use mqo_volcano::PlanNode;

const THREADS: [usize; 2] = [1, 4];

/// The surviving plans in the service's ticket order: each live ticket of
/// `served` mapped to the plan it was issued for.
fn in_ticket_order(
    served: &OptimizedBatch,
    plans: &HashMap<QueryTicket, PlanNode>,
) -> Vec<PlanNode> {
    served.tickets().iter().map(|t| plans[t].clone()).collect()
}

/// The differential gate: concurrent submit/retire/read workers, then the
/// finished batch must be a fresh single-threaded build of the survivors
/// in ticket order.
#[test]
fn concurrent_service_matches_fresh_build_of_survivors() {
    for threads in THREADS {
        let w = mqo_tpcd::batched(4, 1.0);
        let pool = w.queries.clone();
        assert!(pool.len() >= 4, "BQ4 must provide an add pool");
        let base: Vec<PlanNode> = pool[..2].to_vec();
        let service = build(w.ctx, &base, threads).serve();
        let mut plans: HashMap<QueryTicket, PlanNode> =
            service.tickets().into_iter().zip(base).collect();
        let extras: Vec<PlanNode> = pool[2..].to_vec();
        const WORKERS: usize = 4;

        let done = AtomicBool::new(false);
        // Each worker submits every extra (duplicates across workers are
        // legal — hash-consing shares them) and retires its odd-indexed
        // submissions, so its survivor list is interleaving-independent.
        let mut per_worker: Vec<Vec<(QueryTicket, PlanNode)>> = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for wid in 0..WORKERS {
                let service = &service;
                let extras = &extras;
                handles.push(s.spawn(move || {
                    let mut survivors = Vec::new();
                    // Stagger submission order per worker to vary the
                    // interleaving across runs and thread counts.
                    for k in 0..extras.len() {
                        let i = (k + wid) % extras.len();
                        let t = service.submit_query(extras[i].clone());
                        if k % 2 == 1 {
                            service.retire_query(t);
                        } else {
                            survivors.push((t, extras[i].clone()));
                        }
                    }
                    survivors
                }));
            }
            // Readers hammer the published snapshot while writers commit.
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let service = &service;
                    let done = &done;
                    s.spawn(move || {
                        let mut reads = 0u32;
                        while !done.load(Ordering::Relaxed) || reads == 0 {
                            let r = service.run_with(Strategy::Greedy);
                            assert!(r.total_cost.is_finite() && r.total_cost > 0.0);
                            assert!(r.total_cost <= r.volcano_cost + 1e-6);
                            assert!(!r.plan.query_plans.is_empty());
                            reads += 1;
                        }
                        reads
                    })
                })
                .collect();
            for h in handles {
                per_worker.push(h.join().expect("submit worker panicked"));
            }
            done.store(true, Ordering::Relaxed);
            for r in readers {
                assert!(r.join().expect("reader panicked") > 0);
            }
        });

        // Quiescent: every thread must now serve bit-identical answers.
        let reference = service.run_with(Strategy::MarginalGreedy);
        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                let service = &service;
                let reference = &reference;
                s.spawn(move || {
                    let r = service.run_with(Strategy::MarginalGreedy);
                    assert_eq!(r.total_cost.to_bits(), reference.total_cost.to_bits());
                    assert_eq!(r.volcano_cost.to_bits(), reference.volcano_cost.to_bits());
                    assert_eq!(r.materialized.len(), reference.materialized.len());
                });
            }
        });

        let stats = service.stats();
        let submitted = WORKERS * extras.len();
        assert_eq!(
            stats.admitted as usize, submitted,
            "every submission admitted"
        );
        assert_eq!(
            stats.retired as usize,
            WORKERS * (extras.len() / 2),
            "every odd-indexed submission retired"
        );
        assert!(stats.rounds >= 1 && stats.rounds <= stats.admitted);

        let served = service.finish();
        plans.extend(per_worker.into_iter().flatten());
        assert_eq!(served.tickets().len(), plans.len());
        let w2 = mqo_tpcd::batched(4, 1.0);
        let fresh = build(w2.ctx, &in_ticket_order(&served, &plans), 1);
        assert_equivalent(
            &served,
            &fresh,
            &format!("BQ4 serve stress threads={threads}"),
        );
    }
}

/// Snapshot isolation: a reader holding an old `Arc<EngineState>` gets
/// bit-identical plans and costs on every run while a concurrent writer
/// commits evolutions underneath.
#[test]
fn old_snapshot_is_bitwise_stable_across_concurrent_commits() {
    for threads in THREADS {
        let w = mqo_tpcd::batched(3, 1.0);
        let pool = w.queries.clone();
        let base: Vec<PlanNode> = pool[..2].to_vec();
        let service = build(w.ctx, &base, threads).serve();
        let config = MqoConfig {
            threads,
            ..MqoConfig::default()
        };

        let old = service.snapshot();
        let reference = old.run(Strategy::Greedy, config);
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                // Commit a stream of evolutions: grow, shrink, grow.
                let t = service.submit_query(pool[2].clone());
                service.retire_query(t);
                service.submit_query(pool[2].clone())
            });
            let old = &old;
            let reference = &reference;
            let reader = s.spawn(move || {
                for _ in 0..12 {
                    let r = old.run(Strategy::Greedy, config);
                    assert_eq!(
                        r.total_cost.to_bits(),
                        reference.total_cost.to_bits(),
                        "old snapshot answered differently mid-commit"
                    );
                    assert_eq!(r.volcano_cost.to_bits(), reference.volcano_cost.to_bits());
                    assert_eq!(r.materialized, reference.materialized);
                    assert_eq!(r.plan.query_plans.len(), reference.plan.query_plans.len());
                }
            });
            writer.join().expect("writer panicked");
            reader.join().expect("reader panicked");
        });

        // The old snapshot is still answerable and still frozen...
        let after = old.run(Strategy::Greedy, config);
        assert_eq!(after.total_cost.to_bits(), reference.total_cost.to_bits());
        assert_eq!(old.n_queries(), 2);
        // ...while the published snapshot moved on to the grown batch.
        let current = service.snapshot();
        assert!(current.version() > old.version());
        assert_eq!(current.n_queries(), 3);
        let grown = current.run(Strategy::Greedy, config);
        assert_eq!(grown.plan.query_plans.len(), 3);
        drop(service.finish());
    }
}

/// Re-baselining bound: after `compact_history`, the evolution history
/// (provenance entries, live plus retired) depends only on the live query
/// count — not on how many add/retire cycles came before.
#[test]
fn compacted_history_is_independent_of_prior_cycles() {
    let mut baselines = Vec::new();
    for cycles in [2usize, 7, 15] {
        let w = mqo_tpcd::batched(4, 1.0);
        let pool = w.queries.clone();
        let mut batch = build(w.ctx, &pool[..2], 1);
        let extra = pool[2].clone();
        for _ in 0..cycles {
            let t = batch.add_query(extra.clone());
            batch.retire_query(t);
        }
        // History grows with the cycle count before compaction (each
        // cycle leaves at least a retired provenance tombstone)...
        assert!(
            batch.history_len() >= 2 + cycles,
            "expected history to accumulate over {cycles} cycles, got {}",
            batch.history_len()
        );
        batch.compact_history();
        // ...and collapses to the live-query floor after.
        assert_eq!(batch.tickets().len(), 2);
        baselines.push(batch.history_len());

        // Compaction must not change any observable.
        let w2 = mqo_tpcd::batched(4, 1.0);
        let fresh = build(w2.ctx, &pool[..2], 1);
        assert_equivalent(&batch, &fresh, &format!("compacted after {cycles} cycles"));

        // Outstanding tickets survive compaction (stable ids, not
        // positions) and the batch stays evolvable.
        let t = batch.add_query(extra.clone());
        assert!(batch.batch().is_live(t));
        batch.retire_query(t);
    }
    assert!(
        baselines.windows(2).all(|w| w[0] == w[1]),
        "compacted history must not depend on prior cycle count: {baselines:?}"
    );
}

/// The serving layer triggers re-baselining on its own once the history
/// watermark is crossed, and keeps serving correct answers.
#[test]
fn service_compacts_past_the_watermark() {
    let w = mqo_tpcd::batched(4, 1.0);
    let pool = w.queries.clone();
    let batch = build(w.ctx, &pool[..2], 1);
    let floor = batch.history_len();
    let service = batch.serve_with(ServeConfig {
        history_watermark: floor + 6,
        ..ServeConfig::default()
    });
    for _ in 0..10 {
        let t = service.submit_query(pool[2].clone());
        service.retire_query(t);
    }
    let stats = service.stats();
    assert!(
        stats.compactions >= 1,
        "watermark {} never triggered a compaction (history {})",
        floor + 6,
        service.history_len()
    );
    assert!(
        service.history_len() <= floor + 6,
        "history {} left above the watermark",
        service.history_len()
    );
    let served = service.finish();
    let w2 = mqo_tpcd::batched(4, 1.0);
    let fresh = build(w2.ctx, &pool[..2], 1);
    assert_equivalent(&served, &fresh, "service compaction");
}

/// History counts provenance entries only, so admissions that stay
/// within the watermark never compact, however much the memo grew.
#[test]
fn admissions_alone_never_compact() {
    for threads in THREADS {
        let w = mqo_tpcd::batched(4, 1.0);
        let pool = w.queries.clone();
        let batch = build(w.ctx, &pool[..2], threads);
        let watermark = batch.history_len() + 3;
        let service = batch.serve_with(ServeConfig {
            history_watermark: watermark,
            ..ServeConfig::default()
        });
        for q in &pool[2..5] {
            service.submit_query(q.clone());
        }
        assert_eq!(
            service.stats().compactions,
            0,
            "threads {threads}: 3 admissions under watermark {watermark} compacted (history {})",
            service.history_len()
        );
        let served = service.finish();
        let w2 = mqo_tpcd::batched(4, 1.0);
        let fresh = build(w2.ctx, &pool[..5], threads);
        assert_equivalent(
            &served,
            &fresh,
            &format!("threads {threads}: admissions only"),
        );
    }
}

/// Compaction drops retired entries and dead universe slots without
/// touching the memo: its version stays put, and the batch still matches
/// a fresh build of the survivors.
#[test]
fn compaction_leaves_the_memo_untouched() {
    for threads in THREADS {
        let w = mqo_tpcd::batched(4, 1.0);
        let pool = w.queries.clone();
        let mut batch = build(w.ctx, &pool[..2], threads);
        for q in &pool[2..6] {
            let t = batch.add_query(q.clone());
            batch.retire_query(t);
        }
        let kept = batch.add_query(pool[6].clone());
        let version = batch.batch().memo().version();
        batch.compact_history();
        assert_eq!(
            batch.batch().memo().version(),
            version,
            "threads {threads}: compaction mutated the memo"
        );
        assert_eq!(batch.history_len(), 3);
        assert!(batch.batch().is_live(kept));
        let w2 = mqo_tpcd::batched(4, 1.0);
        let survivors = [pool[0].clone(), pool[1].clone(), pool[6].clone()];
        let fresh = build(w2.ctx, &survivors, threads);
        assert_equivalent(&batch, &fresh, &format!("threads {threads}: compacted"));
    }
}

/// The chaos differential gate: concurrent submitters under seeded fault
/// injection (oracle panics and admission-precommit panics, plus
/// deadline-degraded reads riding along) must leave the service bit for
/// bit a fresh single-threaded build of the *successful* survivors in
/// ticket order — every failed round was rolled back to its entry
/// savepoint and must leave no trace in the universe, the costs, or the
/// plans.
///
/// Failpoints are thread-local, so each worker's injections fire only in
/// rounds that worker itself drives; a failed round also fails whatever
/// coalesced submissions rode along, and those workers observe the same
/// typed [`MqoError::RoundFailed`] and drop the plan from their survivor
/// list — accounting stays exact under any interleaving.
#[test]
fn chaos_interleavings_match_fresh_build_of_survivors() {
    for threads in THREADS {
        let w = mqo_tpcd::batched(4, 1.0);
        let pool = w.queries.clone();
        assert!(pool.len() >= 4, "BQ4 must provide an add pool");
        let base: Vec<PlanNode> = pool[..2].to_vec();
        let extras: Vec<PlanNode> = pool[2..].to_vec();
        let service = build(w.ctx, &base, threads).serve_with(ServeConfig {
            // Cache refresh runs the oracle inside the publish phase:
            // injected oracle panics exercise the publish-failure path.
            cache_capacity: 4,
            class_budgets: [Some(Duration::from_nanos(1)), None, None],
            ..ServeConfig::default()
        });

        // One guaranteed, uncontended injection first: the round must
        // fail with the typed error and leave zero trace.
        fault::arm(FaultSite::OracleEval, 1);
        let r = service.try_submit_query(extras[0].clone());
        fault::disarm_all();
        assert_eq!(r, Err(MqoError::RoundFailed));
        assert_eq!(service.tickets().len(), base.len());
        let mut plans: HashMap<QueryTicket, PlanNode> =
            service.tickets().into_iter().zip(base).collect();

        const WORKERS: usize = 4;
        const OPS: usize = 8;
        let mut per_worker: Vec<Vec<(QueryTicket, PlanNode)>> = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for wid in 0..WORKERS {
                let service = &service;
                let extras = &extras;
                handles.push(s.spawn(move || {
                    let mut rng = Prng::seed_from_u64(Prng::derive_seed(0xC4A05C4A05, wid as u64));
                    let mut survivors = Vec::new();
                    for k in 0..OPS {
                        let i = rng.gen_range(0..extras.len());
                        // Seeded chaos: ~1/3 of submissions go out with a
                        // failpoint armed on this thread.
                        match rng.next_u64() % 6 {
                            0 => fault::arm(FaultSite::OracleEval, 1 + rng.next_u64() % 3),
                            1 => fault::arm(FaultSite::AdmissionPrecommit, 1),
                            _ => {}
                        }
                        let outcome = service.try_submit_query(extras[i].clone());
                        fault::disarm_all();
                        match outcome {
                            Ok(t) => {
                                if rng.gen_bool(0.5) {
                                    service
                                        .try_retire_query(t)
                                        .expect("own live ticket must retire");
                                } else {
                                    survivors.push((t, extras[i].clone()));
                                }
                            }
                            // Rolled back: the plan left no trace, so it
                            // is not a survivor.
                            Err(MqoError::RoundFailed) => {}
                            Err(e) => panic!("unexpected admission error: {e}"),
                        }
                        if k % 3 == 0 {
                            // Deadline-degraded reads ride along; they
                            // must always certify.
                            let r = service.run_class(PriorityClass::Interactive);
                            let cert = r.gap_certificate.expect("greedy strategies certify");
                            assert!(cert.ratio >= 1.0);
                            assert!(r.total_cost <= r.volcano_cost + 1e-6);
                        }
                    }
                    survivors
                }));
            }
            for h in handles {
                per_worker.push(h.join().expect("chaos worker panicked"));
            }
        });

        let stats = service.stats();
        assert!(
            stats.failed_rounds >= 1,
            "the guaranteed injection must be counted"
        );

        let served = service.finish();
        plans.extend(per_worker.into_iter().flatten());
        assert_eq!(served.tickets().len(), plans.len());
        let w2 = mqo_tpcd::batched(4, 1.0);
        let fresh = build(w2.ctx, &in_ticket_order(&served, &plans), 1);
        assert_equivalent(&served, &fresh, &format!("BQ4 chaos threads={threads}"));
    }
}

/// The materialization cache respects its capacity, scores every retained
/// entry with positive marginal benefit, and is deterministic across
/// identical admission sequences.
#[test]
fn materialization_cache_is_bounded_and_deterministic() {
    let run_service = |capacity: usize| {
        let w = mqo_tpcd::batched(4, 1.0);
        let pool = w.queries.clone();
        let service = build(w.ctx, &pool[..3], 1).serve_with(ServeConfig {
            cache_capacity: capacity,
            ..ServeConfig::default()
        });
        for q in &pool[3..] {
            let _ = service.submit_query(q.clone());
        }
        let fps = service.cached_materializations();
        let evictions = service.stats().evictions;
        drop(service.finish());
        (fps, evictions)
    };

    let (wide, _) = run_service(64);
    assert!(
        !wide.is_empty(),
        "MarginalGreedy on BQ4 materializes; the cache must retain something"
    );
    let (wide2, _) = run_service(64);
    assert_eq!(wide, wide2, "identical sequences must cache identically");

    let (narrow, narrow_evictions) = run_service(1);
    assert!(narrow.len() <= 1, "capacity 1 exceeded: {narrow:?}");
    if wide.len() > 1 {
        assert!(
            narrow_evictions >= 1,
            "shrinking capacity below the retained set must evict"
        );
        // The survivor is the highest-benefit entry of the wide run.
        assert_eq!(narrow.first(), wide.first());
    }
}

/// Every observable of a report that must not depend on whether it was
/// shared or freshly run: exact cost bits, the chosen set, oracle calls,
/// universe size and the extracted plan (its `Debug` form prints every
/// cost exactly).
fn report_bits(r: &RunReport) -> String {
    format!(
        "total {:#x} mats {:?} bc_calls {} universe {} plan {:?}",
        r.total_cost.to_bits(),
        r.materialized,
        r.bc_calls,
        r.universe,
        r.plan
    )
}

/// The shared report is bitwise a fresh run of the published snapshot,
/// `run_with(config.strategy)` shares it, and a publish (admission or
/// retirement) replaces it with the new snapshot's — with the writer
/// filling it (cache on) or the first reader (cache off).
#[test]
fn shared_report_equals_a_fresh_run_and_is_replaced_on_publish() {
    for threads in THREADS {
        for cache_capacity in [0, 4] {
            let w = mqo_tpcd::batched(4, 1.0);
            let pool = w.queries.clone();
            let service = build(w.ctx, &pool[..3], threads).serve_with(ServeConfig {
                cache_capacity,
                ..ServeConfig::default()
            });
            let strategy = service.config().strategy;
            let config = MqoConfig {
                threads,
                ..MqoConfig::default()
            };
            let label = format!("threads={threads} cache={cache_capacity}");
            let check = |service: &MqoService, queries: usize| {
                let fresh = service.snapshot().run(strategy, config);
                assert_eq!(fresh.plan.query_plans.len(), queries, "{label}");
                let shared = service.run();
                assert_eq!(report_bits(&shared), report_bits(&fresh), "{label}");
                // The second read is served from the snapshot's report:
                // an armed oracle fault would fire on any re-run.
                fault::arm(FaultSite::OracleEval, 1);
                let again = service.run_with(strategy);
                fault::disarm_all();
                assert_eq!(report_bits(&again), report_bits(&fresh), "{label}");
                assert_eq!(again.opt_time, shared.opt_time, "{label}");
            };

            check(&service, 3);
            let t = service.submit_query(pool[3].clone());
            check(&service, 4);
            service.retire_query(t);
            check(&service, 3);
            drop(service.finish());
        }
    }
}
