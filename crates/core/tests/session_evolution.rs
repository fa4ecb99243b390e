//! Differential suite for evolvable sessions: **any** sequence of
//! `add_query` / `retire_query` / `savepoint` / `rollback` on a live
//! [`OptimizedBatch`] must leave it equivalent to a fresh
//! `Session::build()` over the surviving queries — same live
//! expression/group counts, same shareable universe (compared as the
//! id-free fingerprint *set*, since an admission-grown memo numbers its
//! groups in admission order), identical `bestCost` values, and identical
//! extracted plans (compared with materialized-group ids normalized away).
//! After a retire or a rollback the batch is rebuilt from its survivors,
//! so there the comparison is bitwise: the universe in element order, the
//! chosen set and every cost bit.
//!
//! Sequences are swept over the TPCD batches BQ3/BQ4, over seeded random
//! chain workloads (`mqo_tpcd::random`) and over `serve-churn`-shaped
//! chain tenants, under both the serial and the 4-worker configuration —
//! `scripts/verify.sh` runs the whole file under `MQO_THREADS=1` and
//! `MQO_THREADS=4` on every tier-1 pass.

use std::collections::VecDeque;

use mqo_core::session::Session;
use mqo_core::strategies::Strategy;
use mqo_core::{OptimizedBatch, QueryTicket};
use mqo_submod::prng::Prng;
use mqo_tpcd::{Shape, WorkloadSpec};
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::{DagContext, PlanNode};

const THREADS: [usize; 2] = [1, 4];

fn build(ctx: DagContext, queries: &[PlanNode], threads: usize) -> OptimizedBatch {
    Session::builder()
        .context(ctx)
        .queries(queries.iter().cloned())
        .cost_model(DiskCostModel::paper())
        .threads(threads)
        .build()
}

/// Replaces every `group <digits>` occurrence with `group #`: group ids
/// are memo-allocation order, which legitimately differs between an
/// evolved batch and a fresh build of the same queries.
fn strip_group_ids(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(pos) = rest.find("group ") {
        let (head, tail) = rest.split_at(pos + "group ".len());
        out.push_str(head);
        let digits = tail.chars().take_while(|c| c.is_ascii_digit()).count();
        if digits > 0 {
            out.push('#');
        }
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// The id-free signature of one strategy run: exact cost values plus the
/// normalized plan text (materialization plans as a sorted multiset —
/// greedy commit order is id-dependent — and query plans in order).
fn run_signature(batch: &OptimizedBatch, strategy: Strategy) -> (String, Vec<String>) {
    let r = batch.run(strategy);
    let rendered = r.plan.render(batch.batch());
    let mut sections: Vec<String> = Vec::new();
    let mut mats: Vec<String> = Vec::new();
    for part in strip_group_ids(&rendered).split("== ") {
        if part.is_empty() {
            continue;
        } else if part.starts_with("materialize") {
            mats.push(part.to_string());
        } else {
            sections.push(part.to_string());
        }
    }
    mats.sort();
    sections.extend(mats);
    (
        format!(
            "{}: total {:.9e} volcano {:.9e} benefit {:.9e} mats {} queries {}",
            r.strategy,
            r.total_cost,
            r.volcano_cost,
            r.benefit,
            r.materialized.len(),
            r.plan.query_plans.len(),
        ),
        sections,
    )
}

/// Every observable of the evolved batch matches the fresh build.
fn assert_equivalent(evolved: &OptimizedBatch, fresh: &OptimizedBatch, label: &str) {
    evolved.batch().memo().check_consistency();
    assert_eq!(
        evolved.batch().memo().n_exprs(),
        fresh.batch().memo().n_exprs(),
        "{label}: live expression counts diverge"
    );
    assert_eq!(
        evolved.batch().memo().n_groups(),
        fresh.batch().memo().n_groups(),
        "{label}: live group counts diverge"
    );
    assert_eq!(
        evolved.batch().universe_fingerprints(),
        fresh.batch().universe_fingerprints(),
        "{label}: universe fingerprint sets diverge"
    );
    for strategy in [
        Strategy::Volcano,
        Strategy::Greedy,
        Strategy::MarginalGreedy,
    ] {
        let (e_costs, e_plans) = run_signature(evolved, strategy);
        let (f_costs, f_plans) = run_signature(fresh, strategy);
        assert_eq!(e_costs, f_costs, "{label}: cost values diverge");
        assert_eq!(e_plans, f_plans, "{label}: extracted plans diverge");
    }
}

/// Drives `steps` random evolution operations (add / retire /
/// savepoint+rollback) against `batch`, mirroring the survivor list in
/// `live`, then checks equivalence against a fresh build of the survivors.
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
    let slots_before = batch.batch().universe_fingerprints();
    // Admit an exact duplicate of query 0, then retire it: the duplicate
    // shares every group with the original.
    let t = batch.add_query(dup);
    batch.retire_query(t);
    assert_eq!(
        batch.batch().universe_fingerprints(),
        slots_before,
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
    let after_first = batch.batch().universe_fingerprints();
    batch.rollback(sp);
    assert!(
        !batch.batch().is_live(t1),
        "rolled-back ticket must be dead"
    );
    let t2 = batch.add_query(extra);
    assert!(batch.batch().is_live(t2));
    assert_eq!(
        batch.batch().universe_fingerprints(),
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

/// Asserts the universe is strictly ascending by group id — the memo's
/// shareable set as every commit recounts it.
fn assert_ascending(batch: &OptimizedBatch, label: &str) {
    let universe = batch.batch().shareable();
    assert!(
        universe.windows(2).all(|w| w[0] < w[1]),
        "{label}: the universe is not strictly ascending"
    );
}

/// Asserts that `batch` is bit for bit a fresh build of `survivors`: the
/// universe in element order, MarginalGreedy's chosen set, its
/// `total_cost` bits and its extracted plan's `total_cost` bits.
fn assert_fresh(
    batch: &OptimizedBatch,
    make: &impl Fn() -> (DagContext, Vec<PlanNode>),
    survivors: &[PlanNode],
    threads: usize,
    label: &str,
) {
    let fresh = build(make().0, survivors, threads);
    assert_eq!(
        batch.batch().shareable(),
        fresh.batch().shareable(),
        "{label}: universe differs from a fresh build of the survivors"
    );
    let (e, f) = (
        batch.run(Strategy::MarginalGreedy),
        fresh.run(Strategy::MarginalGreedy),
    );
    assert_eq!(
        e.materialized, f.materialized,
        "{label}: chosen sets differ"
    );
    assert_eq!(
        e.total_cost.to_bits(),
        f.total_cost.to_bits(),
        "{label}: total_cost {} vs fresh {}",
        e.total_cost,
        f.total_cost
    );
    assert_eq!(
        e.plan.total_cost.to_bits(),
        f.plan.total_cost.to_bits(),
        "{label}: plan total_cost {} vs fresh {}",
        e.plan.total_cost,
        f.plan.total_cost
    );
}

/// A `serve-churn`-style write history on `base` initial queries: admit
/// `arrivals` pool queries, then `rounds` times roll back a speculative
/// admission, retire the oldest arrival (its plan returns to the pool)
/// and admit the next pool query. After every retire and rollback the
/// batch must be bitwise a fresh build of its survivors, and after every
/// commit its universe must be ascending.
fn churn_sequence(
    make: impl Fn() -> (DagContext, Vec<PlanNode>),
    base: usize,
    arrivals: usize,
    rounds: usize,
    threads: usize,
    label: &str,
) {
    let (ctx, queries) = make();
    let mut batch = build(ctx, &queries[..base], threads);
    assert_ascending(&batch, label);
    let mut pool: VecDeque<PlanNode> = queries[base..].iter().cloned().collect();
    let mut live: VecDeque<(QueryTicket, PlanNode)> = VecDeque::new();
    let survivors = |live: &VecDeque<(QueryTicket, PlanNode)>| {
        let mut v = queries[..base].to_vec();
        v.extend(live.iter().map(|(_, q)| q.clone()));
        v
    };
    for i in 0..arrivals {
        let q = pool.pop_front().expect("pool query");
        live.push_back((batch.add_query(q.clone()), q));
        assert_ascending(&batch, &format!("{label} add {i}"));
    }
    for round in 0..rounds {
        let sp = batch.savepoint();
        batch.add_query(pool[0].clone());
        assert_ascending(&batch, &format!("{label} speculative add {round}"));
        batch.rollback(sp);
        let step = format!("{label} rollback {round}");
        assert_ascending(&batch, &step);
        assert_fresh(&batch, &make, &survivors(&live), threads, &step);

        let (t, q) = live.pop_front().expect("live arrival");
        batch.retire_query(t);
        pool.push_back(q);
        let step = format!("{label} retire {round}");
        assert_ascending(&batch, &step);
        assert_fresh(&batch, &make, &survivors(&live), threads, &step);

        let q = pool.pop_front().expect("pool query");
        live.push_back((batch.add_query(q.clone()), q));
        assert_ascending(&batch, &format!("{label} add {}", arrivals + round));
    }
}

/// A retired or rolled-back batch is a fresh build of its survivors, bit
/// for bit, whatever admissions came before: on BQ3, BQ4 and
/// `serve-churn`-shaped chain tenants (48 tables, 24 base queries, an
/// 8-arrival rotation) at seeds 3, 6, 7 and 1009.
#[test]
fn retire_and_rollback_are_fresh_builds_of_the_survivors() {
    for threads in THREADS {
        for i in [3usize, 4] {
            let make = || {
                let w = mqo_tpcd::batched(i, 1.0);
                (w.ctx, w.queries)
            };
            churn_sequence(make, 2, 2, 3, threads, &format!("BQ{i}@{threads}"));
        }
        for seed in [3u64, 6, 7, 1009] {
            let make = || {
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
            };
            churn_sequence(make, 24, 8, 3, threads, &format!("churn {seed}@{threads}"));
        }
    }
}
