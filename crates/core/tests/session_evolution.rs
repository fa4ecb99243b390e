//! Differential suite for evolvable sessions: **any** sequence of
//! `add_query` / `retire_query` / `savepoint` / `rollback` on a live
//! [`OptimizedBatch`] must leave it bit for bit a fresh `Session::build()`
//! of the surviving queries in ticket order — the universe in element
//! order, every cost bit, the chosen sets and the rendered plans. A batch
//! is the fold of its admissions, so this holds after every commit,
//! admissions included, and through an [`MqoService`] as through the
//! batch.
//!
//! Sequences are swept over the TPCD batches BQ3/BQ4, over seeded random
//! chain workloads (`mqo_tpcd::random`) and over `serve-churn`-shaped
//! chain tenants, under both the serial and the 4-worker configuration —
//! `scripts/verify.sh` runs the whole file under `MQO_THREADS=1` and
//! `MQO_THREADS=4` on every tier-1 pass.

mod common;

use std::collections::VecDeque;

use common::{assert_equivalent, build, run_bits};
use mqo_core::strategies::Strategy;
use mqo_core::{BatchSavepoint, MqoService, OptimizedBatch, QueryTicket, RunReport};
use mqo_submod::prng::Prng;
use mqo_tpcd::{Shape, WorkloadSpec};
use mqo_volcano::{DagContext, GroupId, PlanNode};

const THREADS: [usize; 2] = [1, 4];

/// Drives `steps` random evolution operations (add / retire /
/// savepoint+rollback) against `batch`, mirroring the survivors in ticket
/// order in `live`, then checks equivalence against a fresh build of them.
fn sweep_sequence(
    make: impl Fn() -> (DagContext, Vec<PlanNode>),
    rng: &mut Prng,
    steps: usize,
    threads: usize,
    label: &str,
) {
    let (ctx, pool) = make();
    assert!(pool.len() >= 2, "{label}: need a query pool");
    // Start with the first two queries; the rest form the add pool (a
    // retired query returns to it, so a query is never live twice).
    let (ctx2, _) = make();
    let mut batch = build(ctx2, &pool[..2], threads);
    let mut live: Vec<(QueryTicket, PlanNode)> = batch
        .tickets()
        .into_iter()
        .zip(pool[..2].iter().cloned())
        .collect();
    let mut available: Vec<PlanNode> = pool[2..].to_vec();
    for _step in 0..steps {
        match rng.gen_range(0u32..4) {
            // Admit a random pooled query.
            0 | 1 if !available.is_empty() => {
                let q = available.swap_remove(rng.gen_range(0..available.len()));
                let t = batch.add_query(q.clone());
                live.push((t, q));
            }
            // Retire a random live query (keep at least one).
            2 if live.len() > 1 => {
                let idx = rng.gen_range(0..live.len());
                let (t, q) = live.remove(idx);
                batch.retire_query(t);
                available.push(q);
            }
            // Savepoint, speculatively add, roll back: net no-op.
            _ if !available.is_empty() => {
                let sp = batch.savepoint();
                let q = available[rng.gen_range(0..available.len())].clone();
                let _speculative = batch.add_query(q);
                batch.rollback(sp);
            }
            _ => {}
        }
    }
    let survivors: Vec<PlanNode> = live.iter().map(|(_, q)| q.clone()).collect();
    let fresh = build(ctx, &survivors, threads);
    assert_eq!(
        batch.tickets().len(),
        survivors.len(),
        "{label}: ticket count"
    );
    assert_equivalent(&batch, &fresh, label);
}

#[test]
fn evolved_tpcd_batches_match_fresh_builds() {
    for i in [3usize, 4] {
        for threads in THREADS {
            let make = || {
                let w = mqo_tpcd::batched(i, 1.0);
                (w.ctx, w.queries)
            };
            let mut rng = Prng::seed_from_u64(Prng::derive_seed(0x45564F4C, i as u64));
            sweep_sequence(
                make,
                &mut rng,
                6,
                threads,
                &format!("BQ{i} threads={threads}"),
            );
        }
    }
}

#[test]
fn evolved_random_workloads_match_fresh_builds() {
    for case in 0..6u64 {
        let seed = Prng::derive_seed(0x45564F4C, 100 + case);
        for threads in THREADS {
            let make = || mqo_tpcd::random::random_workload(seed, 5);
            let mut rng = Prng::seed_from_u64(seed ^ 0xA5A5);
            sweep_sequence(
                make,
                &mut rng,
                8,
                threads,
                &format!("random case {case} threads={threads}"),
            );
        }
    }
}

/// Retiring a *fully shared* query — every expression it contributed is
/// also reachable from a surviving query — must keep the whole universe
/// and stay equivalent to the fresh build.
#[test]
fn retiring_a_fully_shared_query_keeps_the_universe() {
    let w = mqo_tpcd::batched(4, 1.0);
    let dup = w.queries[0].clone();
    let mut batch = build(w.ctx, &w.queries, 1);
    let before = batch.batch().shareable().to_vec();
    // Admit an exact duplicate of query 0, then retire it: the duplicate
    // shares every group with the original.
    let t = batch.add_query(dup);
    batch.retire_query(t);
    assert_eq!(
        batch.batch().shareable(),
        before,
        "retiring a duplicate must not change the live universe"
    );
    let w2 = mqo_tpcd::batched(4, 1.0);
    let fresh = build(w2.ctx, &w2.queries, 1);
    assert_equivalent(&batch, &fresh, "retire duplicate of q0");
}

/// Rollback then re-add: the rollback's rebuild must leave the memo in a
/// state where the *same* query can be admitted again and land on the
/// same equivalence classes.
#[test]
fn add_after_rollback_replays_cleanly() {
    let w = mqo_tpcd::batched(3, 1.0);
    let extra = w.queries[2].clone();
    let base: Vec<PlanNode> = w.queries[..2].to_vec();
    let mut batch = build(w.ctx, &base, 1);

    let sp = batch.savepoint();
    let t1 = batch.add_query(extra.clone());
    let after_first = batch.batch().shareable().to_vec();
    batch.rollback(sp);
    assert!(
        !batch.batch().is_live(t1),
        "rolled-back ticket must be dead"
    );
    let t2 = batch.add_query(extra);
    assert!(batch.batch().is_live(t2));
    assert_eq!(
        batch.batch().shareable(),
        after_first,
        "re-adding after rollback must land on the same universe"
    );

    let w2 = mqo_tpcd::batched(3, 1.0);
    let fresh = build(w2.ctx, &w2.queries[..3], 1);
    assert_equivalent(&batch, &fresh, "add, rollback, re-add");
}

/// A long alternating add/retire sequence: exercises repeated rebuilds,
/// ending equivalent to a fresh build.
#[test]
fn long_evolution_sequence_stays_equivalent() {
    let w = mqo_tpcd::batched(4, 1.0);
    let pool = w.queries.clone();
    let mut batch = build(w.ctx, &pool[..2], 1);
    let mut last = batch.tickets();
    for round in 0..40 {
        let q = pool[2 + (round % (pool.len() - 2))].clone();
        let t = batch.add_query(q);
        // Retire the older of the two rotating extras once it exists.
        if last.len() > 2 {
            let victim = last[2];
            batch.retire_query(victim);
        }
        last = batch.tickets();
        assert!(last.contains(&t));
    }
    // Survivors: the two base queries plus the last extra added.
    let survivors: Vec<PlanNode> = {
        let mut v = pool[..2].to_vec();
        let last_extra = 2 + ((40 - 1) % (pool.len() - 2));
        v.push(pool[last_extra].clone());
        v
    };
    let w2 = mqo_tpcd::batched(4, 1.0);
    assert_eq!(w2.queries.len(), pool.len());
    let fresh = build(w2.ctx, &survivors, 1);
    assert_equivalent(&batch, &fresh, "40-round add/retire rotation");
}

/// A live batch the churn history writes to: an [`OptimizedBatch`] or an
/// [`MqoService`] over one.
trait Writer {
    fn add(&mut self, q: PlanNode) -> QueryTicket;
    fn retire(&mut self, t: QueryTicket);
    fn savepoint(&self) -> BatchSavepoint;
    fn rollback(&mut self, sp: BatchSavepoint);
    /// The universe and MarginalGreedy's report of the current commit.
    fn observe(&self) -> (Vec<GroupId>, RunReport);
    fn finish(self) -> OptimizedBatch;
}

impl Writer for OptimizedBatch {
    fn add(&mut self, q: PlanNode) -> QueryTicket {
        self.add_query(q)
    }
    fn retire(&mut self, t: QueryTicket) {
        self.retire_query(t)
    }
    fn savepoint(&self) -> BatchSavepoint {
        OptimizedBatch::savepoint(self)
    }
    fn rollback(&mut self, sp: BatchSavepoint) {
        OptimizedBatch::rollback(self, sp)
    }
    fn observe(&self) -> (Vec<GroupId>, RunReport) {
        let r = self.run(Strategy::MarginalGreedy);
        (self.batch().shareable().to_vec(), r)
    }
    fn finish(self) -> OptimizedBatch {
        self
    }
}

impl Writer for MqoService {
    fn add(&mut self, q: PlanNode) -> QueryTicket {
        self.try_submit_query(q).expect("admission")
    }
    fn retire(&mut self, t: QueryTicket) {
        self.try_retire_query(t).expect("retire")
    }
    fn savepoint(&self) -> BatchSavepoint {
        MqoService::savepoint(self)
    }
    fn rollback(&mut self, sp: BatchSavepoint) {
        self.try_rollback(sp).expect("rollback")
    }
    fn observe(&self) -> (Vec<GroupId>, RunReport) {
        let r = self.run_with(Strategy::MarginalGreedy);
        (self.snapshot().shareable().to_vec(), r)
    }
    fn finish(self) -> OptimizedBatch {
        MqoService::finish(self)
    }
}

/// A `serve-churn`-style write history on `base` initial queries: admit
/// `arrivals` pool queries, then `rounds` times roll back a speculative
/// admission, retire the oldest arrival (its plan returns to the pool)
/// and admit the next pool query. After every commit the universe,
/// MarginalGreedy's chosen set and its cost bits must be a fresh build's
/// of the survivors in ticket order; at the end the whole batch must be.
fn churn_sequence<W: Writer>(
    make: impl Fn() -> (DagContext, Vec<PlanNode>),
    start: impl FnOnce(OptimizedBatch) -> W,
    base: usize,
    arrivals: usize,
    rounds: usize,
    threads: usize,
    label: &str,
) {
    let (ctx, queries) = make();
    let mut writer = start(build(ctx, &queries[..base], threads));
    let mut pool: VecDeque<PlanNode> = queries[base..].iter().cloned().collect();
    // The live arrivals in ticket order; they follow the base queries.
    let mut live: VecDeque<(QueryTicket, PlanNode)> = VecDeque::new();
    let fresh = |live: &VecDeque<(QueryTicket, PlanNode)>| {
        let mut survivors = queries[..base].to_vec();
        survivors.extend(live.iter().map(|(_, q)| q.clone()));
        build(make().0, &survivors, threads)
    };
    let check = |writer: &W, live: &VecDeque<(QueryTicket, PlanNode)>, step: &str| {
        let (universe, r) = writer.observe();
        let fresh = fresh(live);
        assert_eq!(
            universe,
            fresh.batch().shareable(),
            "{label} {step}: universe differs from a fresh build of the survivors"
        );
        assert_eq!(
            run_bits(&r),
            run_bits(&fresh.run(Strategy::MarginalGreedy)),
            "{label} {step}: MarginalGreedy differs from a fresh build of the survivors"
        );
    };
    check(&writer, &live, "build");
    for i in 0..arrivals {
        let q = pool.pop_front().expect("pool query");
        live.push_back((writer.add(q.clone()), q));
        check(&writer, &live, &format!("add {i}"));
    }
    for round in 0..rounds {
        let sp = writer.savepoint();
        let q = pool[0].clone();
        live.push_back((writer.add(q.clone()), q));
        check(&writer, &live, &format!("speculative add {round}"));
        writer.rollback(sp);
        live.pop_back();
        check(&writer, &live, &format!("rollback {round}"));

        let (t, q) = live.pop_front().expect("live arrival");
        writer.retire(t);
        pool.push_back(q);
        check(&writer, &live, &format!("retire {round}"));

        let q = pool.pop_front().expect("pool query");
        live.push_back((writer.add(q.clone()), q));
        check(&writer, &live, &format!("add {}", arrivals + round));
    }
    assert_equivalent(&writer.finish(), &fresh(&live), label);
}

/// A `serve-churn` tenant at `seed`: a 48-table chain workload with 24
/// base queries and a 40-query pool.
fn churn_tenant(seed: u64) -> (DagContext, Vec<PlanNode>) {
    let w = mqo_tpcd::generate(&WorkloadSpec {
        shape: Shape::Chain,
        tables: 48,
        queries: 24 + 40,
        span: (6, 9),
        overlap: 0.3,
        select_prob: 0.35,
        base_rows: 500.0,
        seed,
    });
    (w.ctx, w.queries)
}

/// Every commit — admission, speculative admission, rollback and retire —
/// leaves the batch a fresh build of its survivors in ticket order, bit
/// for bit: on BQ3, BQ4 and `serve-churn`-shaped chain tenants (an
/// 8-arrival rotation) at seeds 3, 6, 7 and 1009.
#[test]
fn every_commit_is_a_fresh_build_of_the_survivors() {
    for threads in THREADS {
        for i in [3usize, 4] {
            let make = || {
                let w = mqo_tpcd::batched(i, 1.0);
                (w.ctx, w.queries)
            };
            churn_sequence(make, |b| b, 2, 2, 3, threads, &format!("BQ{i}@{threads}"));
        }
        for seed in [3u64, 6, 7, 1009] {
            let make = || churn_tenant(seed);
            let label = format!("churn {seed}@{threads}");
            churn_sequence(make, |b| b, 24, 8, 3, threads, &label);
        }
    }
}

/// The same history driven through an [`MqoService`]: its published
/// snapshot after every commit, and the batch `finish` hands back, are a
/// fresh build of the survivors in ticket order.
#[test]
fn every_service_commit_is_a_fresh_build_of_the_survivors() {
    for threads in THREADS {
        let make = || churn_tenant(7);
        let label = format!("service churn 7@{threads}");
        churn_sequence(make, OptimizedBatch::serve, 24, 8, 3, threads, &label);
    }
}
