//! Microbenchmark of the `bestCost` oracle itself: raw `bc(S)` evaluation
//! throughput (evals/sec) on the TPCD 4-query batch, comparing
//!
//! * `full` — every evaluation runs the full bottom-up DP (`force_full`),
//! * `incremental` — the overlay path relative to the committed base
//!   (Section 5.1 / Roy et al.'s incremental recomputation),
//! * `batched` — `bc_many`, evaluating a whole greedy round's candidates
//!   against one shared base,
//! * `sharded` — `bc_many` with `MqoConfig::threads` ∈ {1, 2, 4, 8}:
//!   the same batched schedule through the shared fan-out, chunk 0 on the
//!   calling thread and the rest on scoped worker threads, each with its
//!   own `EngineScratch` from the handle's pool over the shared arenas
//!   (bit-identical values; only the wall-clock changes).
//!
//! The evaluation schedule replays what the greedy strategies actually do:
//! a growing base set `X`, and per round one `bc(X ∪ {x})` probe for every
//! remaining candidate `x`. All modes see the identical schedule, so
//! evals/sec is directly comparable.
//!
//! Records through `mqo_bench::timing`: one pass of the schedule is one
//! sample, `MQO_BENCH_SAMPLES` sets the sample count and
//! `MQO_BENCH_JSON=<path>` writes the record (`scripts/verify.sh
//! --bench-smoke` writes `BENCH_bc_oracle.json`).

use mqo_bench::timing::{measure, Record};
use mqo_core::batch::BatchDag;
use mqo_core::engine::{BestCostEngine, MqoConfig};
use mqo_submod::bitset::BitSet;
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::rules::RuleSet;

/// The greedy-round evaluation schedule: for each round, the base set and
/// the candidate elements probed on top of it.
fn schedule(n: usize) -> Vec<(BitSet, Vec<usize>)> {
    let mut rounds = Vec::new();
    let mut base = BitSet::empty(n);
    let mut remaining: Vec<usize> = (0..n).collect();
    // Deterministic pick order: keep adding the middle remaining element so
    // the base grows exactly like a greedy run would.
    while !remaining.is_empty() {
        rounds.push((base.clone(), remaining.clone()));
        let pick = remaining.remove(remaining.len() / 2);
        base.insert(pick);
    }
    rounds
}

/// One pass of the schedule, one `bc` call per probe.
fn run_sequential(engine: &mut BestCostEngine, rounds: &[(BitSet, Vec<usize>)]) -> f64 {
    let mut acc = 0.0f64;
    for (base, candidates) in rounds {
        for &e in candidates {
            acc += engine.bc(&base.with(e));
        }
    }
    acc
}

/// One pass of the schedule, one `bc_many` call per round.
fn run_batched(engine: &mut BestCostEngine, rounds: &[(BitSet, Vec<usize>)]) -> f64 {
    let mut acc = 0.0f64;
    for (base, candidates) in rounds {
        let sets: Vec<BitSet> = candidates.iter().map(|&e| base.with(e)).collect();
        acc += engine.bc_many(&sets).iter().sum::<f64>();
    }
    acc
}

fn main() {
    let w = mqo_tpcd::batched(4, 1.0);
    let batch = BatchDag::build(w.ctx, &w.queries, &RuleSet::default());
    let cm = DiskCostModel::paper();
    let n = batch.universe_size();
    let rounds = schedule(n);
    let evals: usize = rounds.iter().map(|(_, c)| c.len()).sum();
    println!(
        "bc_oracle: TPCD BQ4, universe {n}, {} rounds, {evals} evals per pass",
        rounds.len()
    );

    let mut rec = Record::new("bc_oracle");
    // (mode, threads); only the sharded mode varies the worker count.
    let mut modes: Vec<(&'static str, usize)> =
        vec![("full", 1), ("incremental", 1), ("batched", 1)];
    modes.extend([1usize, 2, 4, 8].map(|t| ("sharded", t)));
    let mut medians = Vec::new();
    for (mode, threads) in modes {
        let mut engine = BestCostEngine::with_config(
            batch.memo(),
            &cm,
            batch.root(),
            batch.shareable(),
            MqoConfig {
                force_full: mode == "full",
                threads,
                ..Default::default()
            },
        );
        let batched = mode != "full" && mode != "incremental";
        let stats = rec.sample(|| {
            let (acc, elapsed) = measure(|| match batched {
                true => run_batched(&mut engine, &rounds),
                false => run_sequential(&mut engine, &rounds),
            });
            std::hint::black_box(acc);
            elapsed
        });
        rec.push(
            &[("mode", mode), ("workload", "BQ4")],
            &[("universe", n), ("evals", evals)],
            threads,
            stats,
        );
        medians.push((mode, threads, stats.median.as_secs_f64()));
    }

    let per_sec = |secs: f64| evals as f64 / secs.max(1e-12);
    let full = medians[0].2;
    for &(mode, threads, secs) in &medians {
        println!(
            "bc_oracle/{mode}@{threads}: {:.0} evals/sec, {:.2}x over full",
            per_sec(secs),
            full / secs.max(1e-12)
        );
    }
    rec.finish();
}
