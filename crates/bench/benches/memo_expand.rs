//! Benchmark of the memo-expansion pipeline: end-to-end `BatchDag::build`
//! wall time (query insertion + rule fixpoint + shareable-universe scan)
//! on the TPCD batched workloads. Each entry also records the live
//! expressions and groups produced, so throughput is `exprs / median`.
//!
//! Series:
//!
//! * `build@t` for `t ∈ {1, 2, 4}` — `BatchDag::build_with_threads`: the
//!   frontier fixpoint's candidate generation fanned out over `t` scoped
//!   worker threads (the commit phase is always serial and deterministic,
//!   so the resulting memo is bit-identical at every `t`; see
//!   `crates/volcano/tests/memo_differential.rs`).
//!
//! Records through `mqo_bench::timing`: `MQO_BENCH_SAMPLES` sets the
//! sample count and `MQO_BENCH_JSON=<path>` writes the record
//! (`scripts/verify.sh --bench-smoke` writes `BENCH_memo_expand.json`).

use mqo_bench::timing::{measure, Record};
use mqo_core::batch::BatchDag;
use mqo_volcano::rules::RuleSet;

fn main() {
    let mut rec = Record::new("memo_expand");
    let mut bq4 = Vec::new();
    for i in [3usize, 4] {
        let w = mqo_tpcd::batched(i, 1.0);
        let batch = BatchDag::build(w.ctx, &w.queries, &RuleSet::default());
        let (exprs, groups) = (batch.expansion().exprs, batch.expansion().groups);
        let workload = format!("BQ{i}");
        for threads in [1usize, 2, 4] {
            // The context is consumed by `build`, so each sample re-creates
            // the workload outside the timed section.
            let stats = rec.sample(|| {
                let w = mqo_tpcd::batched(i, 1.0);
                measure(|| {
                    BatchDag::build_with_threads(w.ctx, &w.queries, &RuleSet::default(), threads)
                })
                .1
            });
            rec.push(
                &[("mode", "build"), ("workload", &workload)],
                &[("exprs", exprs), ("groups", groups)],
                threads,
                stats,
            );
            if i == 4 {
                bq4.push((threads, stats.median.as_secs_f64()));
            }
        }
    }
    let base = bq4[0].1;
    for (threads, secs) in bq4 {
        println!(
            "memo_expand/build@{threads}: {:.2}x over build@1 on BQ4",
            base / secs.max(1e-12)
        );
    }
    rec.finish();
}
