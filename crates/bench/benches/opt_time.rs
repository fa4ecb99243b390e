//! Benchmark behind Figures 4c and 5c: optimization time of stand-alone
//! Volcano, Greedy, and MarginalGreedy per workload — plus the `extract`
//! series measuring consolidated-plan extraction off the compiled engine
//! arenas, the `session_evolve` series measuring incremental
//! admission against a rebuild, and the `compile` series measuring the
//! `bestCost` engine compile a snapshot pays after every commit.
//!
//! The paper plots the opt-time figures in log scale to show Greedy and
//! MarginalGreedy nearly coinciding; the `opt_time` series here measure
//! the same quantity (DAG construction is excluded — the paper measures
//! the node-selection phase on an already-built DAG). Both `opt_time` and
//! `extract` report the phase timings each `RunReport` measures
//! internally (`opt_time`, `extract_time`), so neither metric
//! contaminates the other.
//!
//! Records through `mqo_bench::timing`: `MQO_BENCH_SAMPLES` sets the
//! sample count and `MQO_BENCH_JSON=<path>` writes the record
//! (`scripts/verify.sh --bench-smoke` writes `BENCH_opt_time.json`).

use mqo_bench::timing::{measure, Record};
use mqo_core::session::{OptimizedBatch, Session};
use mqo_core::strategies::Strategy;
use mqo_tpcd::{Shape, Workload, WorkloadSpec};
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::rules::RuleSet;

const FIGURE_STRATEGIES: [Strategy; 3] = [
    Strategy::Volcano,
    Strategy::Greedy,
    Strategy::MarginalGreedy,
];

fn build(w: Workload) -> OptimizedBatch {
    Session::builder()
        .context(w.ctx)
        .queries(w.queries)
        .rules(RuleSet::default())
        .cost_model(DiskCostModel::paper())
        .build()
}

/// The Figure 4c/5c series: per workload and strategy, the report's own
/// `opt_time` (the node-selection phase only; each run also extracts the
/// consolidated plan, which the separate `extract` series measures).
fn bench_opt_time(rec: &mut Record, figure: &str, w: Workload) {
    let name = w.name.clone();
    let session = build(w);
    let threads = session.config().threads;
    for s in FIGURE_STRATEGIES {
        let stats = rec.sample(|| session.run(s).opt_time);
        rec.push(
            &[
                ("mode", figure),
                ("workload", &name),
                ("strategy", s.name()),
            ],
            &[("universe", session.universe_size())],
            threads,
            stats,
        );
    }
}

/// The `extract` series: consolidated-plan extraction time as each `run`
/// measures it, around the arena extractor only (excluding selection and
/// engine compilation).
fn bench_extract(rec: &mut Record, i: usize) {
    let session = build(mqo_tpcd::batched(i, 1.0));
    let threads = session.config().threads;
    let workload = format!("BQ{i}");
    for s in [Strategy::Greedy, Strategy::MarginalGreedy] {
        let report = session.run(s);
        let stats = rec.sample(|| session.run(s).extract_time);
        rec.push(
            &[
                ("mode", "extract"),
                ("workload", &workload),
                ("strategy", s.name()),
            ],
            &[
                ("materializations", report.materialized.len()),
                ("query_plans", report.plan.query_plans.len()),
            ],
            threads,
            stats,
        );
    }
}

/// The `session_evolve` series: per batch, the time to `add_query` the
/// batch's last query onto a live session of the others, to
/// `retire_query` it again (which rebuilds the base from the survivors'
/// plans, so it tracks the rebuild of the smaller batch), and — the
/// comparison baseline — to rebuild the full batch from scratch with
/// `Session::build`. An add/retire cycle leaves the session
/// in its base state, so the cycles repeat on one long-lived session,
/// exactly the serving pattern the evolvable API exists for.
fn bench_session_evolve(rec: &mut Record, i: usize) {
    let mut w = mqo_tpcd::batched(i, 1.0);
    let last = w.queries.pop().expect("non-empty batch");
    let mut session = build(w);
    let threads = session.config().threads;
    let add = rec.sample(|| {
        let (t, elapsed) = measure(|| session.add_query(last.clone()));
        session.retire_query(t);
        elapsed
    });
    let retire = rec.sample(|| {
        let t = session.add_query(last.clone());
        measure(|| session.retire_query(t)).1
    });
    let rebuild = rec.sample(|| {
        let w = mqo_tpcd::batched(i, 1.0);
        measure(|| build(w)).1
    });
    let workload = format!("BQ{i}");
    for (op, stats) in [("add", add), ("retire", retire), ("rebuild", rebuild)] {
        rec.push(
            &[
                ("mode", "session_evolve"),
                ("workload", &workload),
                ("op", op),
            ],
            &[],
            threads,
            stats,
        );
    }
}

/// The `compile` series: `BatchDag::compile_state` — the engine compile
/// behind every snapshot — on an already built batch. The batch's
/// topological view is computed before the first sample, so the series
/// times the compile alone.
fn bench_compile(rec: &mut Record, workload: &str, w: Workload) {
    let session = build(w);
    let threads = session.config().threads;
    let cm = DiskCostModel::paper();
    let states = session.batch().compile_state(&cm).arenas().n_states();
    let stats = rec.sample(|| measure(|| session.batch().compile_state(&cm)).1);
    rec.push(
        &[("mode", "compile"), ("workload", workload)],
        &[("universe", session.universe_size()), ("states", states)],
        threads,
        stats,
    );
}

fn main() {
    let mut rec = Record::new("opt_time");
    for i in [2usize, 4, 6] {
        bench_opt_time(&mut rec, "figure4c", mqo_tpcd::batched(i, 1.0));
    }
    for name in mqo_tpcd::STANDALONE_NAMES {
        bench_opt_time(&mut rec, "figure5c", mqo_tpcd::standalone(name, 1.0));
    }
    for i in [2usize, 4, 6] {
        bench_extract(&mut rec, i);
    }
    for i in [3usize, 4, 5, 6] {
        bench_session_evolve(&mut rec, i);
    }
    for i in [2usize, 4, 6] {
        bench_compile(&mut rec, &format!("BQ{i}"), mqo_tpcd::batched(i, 1.0));
    }
    // A `batch-stream`-sized generated batch: 60 chain queries.
    let chain = mqo_tpcd::generate(&WorkloadSpec {
        shape: Shape::Chain,
        tables: 48,
        queries: 60,
        span: (6, 9),
        overlap: 0.3,
        select_prob: 0.35,
        base_rows: 500.0,
        seed: 7,
    });
    bench_compile(&mut rec, "chain60", chain);
    rec.finish();
}
