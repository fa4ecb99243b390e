//! The batch workloads: `batch-10k` (four 10k-candidate instances) and
//! `batch-stream` (a stream of small batches that share different amounts
//! of work). Both run one engine thread.
//!
//! One op plans a batch: `SessionBuilder::try_build`, the first
//! `OptimizedBatch::snapshot` (engine compile), and uncapped
//! MarginalGreedy on it. Its read then re-optimizes the compiled snapshot
//! under a cardinality cap of 16 with the Theorem-4 pre-pass and the
//! materialization-cost decomposition. The loop is closed: the next op
//! starts when the previous one ends.

use std::sync::Arc;

use mqo_core::{
    BatchDag, DecompositionKind, EngineState, MbFunction, MqoConfig, MqoError, OptimizedBatch,
    RunReport, Session, Strategy,
};
use mqo_submod::algorithms::cardinality::universe_reduction;
use mqo_submod::algorithms::marginal_greedy::{marginal_greedy, Config as MarginalConfig};
use mqo_submod::bitset::BitSet;
use mqo_submod::decompose::Decomposition;
use mqo_submod::function::SetFunction;
use mqo_submod::prng::Prng;
use mqo_tpcd::{generate, Shape, Workload, WorkloadSpec};
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::memo::Memo;
use mqo_volcano::rules::{expand_with, ExpansionStats, RuleSet};
use mqo_volcano::{DagContext, PlanNode};

use crate::check::Checks;
use crate::clock::{self, Summary};
use crate::trace::Recorder;
use crate::{Args, Outcome, Samples};

/// Cardinality cap of the read (Section 5.3).
const CAP: usize = 16;
/// 10k-candidate instances planned per `batch-10k` run.
const INSTANCES_10K: usize = 4;
/// Batches in the stream, and how many of them warm up untimed.
const STREAM: usize = 480;
const STREAM_WARMUP: usize = 16;
const SMOKE_STREAM: usize = 10;
const SMOKE_WARMUP: usize = 2;

/// The read configuration: the capped Theorem-4 pre-pass workflow.
fn read_config() -> MqoConfig {
    MqoConfig {
        decomposition: DecompositionKind::MaterializationCost,
        universe_reduction: true,
        max_materializations: Some(CAP),
        ..MqoConfig::serial()
    }
}

/// `batch-10k`: `INSTANCES_10K` instances, `WorkloadSpec::scale_10k` of
/// the seed and of seeds derived from it (60-query chains of the same
/// shape in smoke mode). Planning several instances per run averages out
/// how much work one instance happens to need.
pub fn run_10k(args: &Args, rec: &mut Recorder, out: &mut Outcome) {
    let specs = (0..INSTANCES_10K)
        .map(|i| {
            let seed = match i {
                0 => args.seed,
                _ => Prng::derive_seed(args.seed, i as u64),
            };
            let mut spec = WorkloadSpec::scale_10k(seed);
            if args.smoke {
                spec.queries = 60;
            }
            spec
        })
        .collect();
    run(args, rec, out, specs, 0, 5)
}

/// `batch-stream`: batch `i` has shape `Shape::ALL[i % 4]`, overlap
/// `[0.0, 0.3, 0.6][i % 3]` and its own seed derived from the run's.
pub fn run_stream(args: &Args, rec: &mut Recorder, out: &mut Outcome) {
    let (n, warmup) = if args.smoke {
        (SMOKE_STREAM, SMOKE_WARMUP)
    } else {
        (STREAM, STREAM_WARMUP)
    };
    let specs = (0..n)
        .map(|i| {
            let shape = Shape::ALL[i % 4];
            let (tables, span) = match shape {
                Shape::Chain => (48, (6, 9)),
                _ => (32, (4, 6)),
            };
            WorkloadSpec {
                shape,
                tables,
                queries: 60,
                span,
                overlap: [0.0, 0.3, 0.6][i % 3],
                select_prob: 0.35,
                base_rows: 500.0,
                seed: Prng::derive_seed(args.seed, i as u64),
            }
        })
        .collect();
    run(args, rec, out, specs, warmup, 3)
}

/// What one op produced.
struct Op {
    batch: OptimizedBatch,
    state: Arc<EngineState>,
    plan: RunReport,
    read: RunReport,
    plan_ms: f64,
    read_ms: f64,
}

fn build(w: Workload) -> Result<OptimizedBatch, MqoError> {
    Session::builder()
        .context(w.ctx)
        .queries(w.queries)
        .cost_model(DiskCostModel::paper())
        .config(MqoConfig::serial())
        .threads(1)
        .try_build()
}

/// One op: plan the batch, then read its snapshot under the cap.
fn op(w: Workload, rec: &mut Recorder, id: u64) -> Result<Op, MqoError> {
    let t0 = clock::now();
    let span = rec.begin("op.plan", id);
    let batch = rec.time("batch.build", id, || build(w));
    let batch = match batch {
        Ok(b) => b,
        Err(e) => {
            rec.end(span);
            return Err(e);
        }
    };
    let state = rec.time("engine.compile", id, || batch.snapshot());
    let plan = rec.time("engine.run", id, || {
        state.run(Strategy::MarginalGreedy, MqoConfig::serial())
    });
    rec.end(span);
    let t1 = clock::now();
    let span = rec.begin("op.read", id);
    let snap = rec.time("session.snapshot", id, || batch.snapshot());
    let read = rec.time("engine.run_capped", id, || {
        snap.run(Strategy::MarginalGreedy, read_config())
    });
    rec.end(span);
    let t2 = clock::now();
    Ok(Op {
        batch,
        state,
        plan,
        read,
        plan_ms: clock::ms_between(t0, t1),
        read_ms: clock::ms_between(t1, t2),
    })
}

/// The traced op's side measurements, taken after the op (whose memo is
/// freed first) and outside its spans: expansion and the build re-run on
/// fresh inputs, the selection driven through `MbFunction` and
/// `marginal_greedy` directly (for the oracle's counters), and the
/// Theorem-4 pre-pass alone.
fn side_measure(
    spec: &WorkloadSpec,
    o: Op,
    rec: &mut Recorder,
    id: u64,
    layers: &mut Samples,
    checks: &mut Checks,
) {
    let built = *o.batch.batch().expansion();
    drop(o.batch);
    let stats = rebuild_measure(
        || {
            let w = generate(spec);
            (w.ctx, w.queries)
        },
        rec,
        id,
        layers,
    );
    checks.expect(
        (stats.exprs, stats.groups) == (built.exprs, built.groups),
        || format!("op {id}: re-expansion differs from the build's"),
    );
    layers.push("batch.universe", o.state.universe_size() as f64);

    select_measure(&o.state, &o.plan, rec, id, layers, checks);
    prepass_measure(&o.state, Some(&o.read), rec, id, layers, checks);
    layers.push("consolidated.extract_ms", ms(o.plan.extract_time));
}

/// Re-runs on fresh inputs, serially, first the expansion fixpoint alone
/// and then the whole batch build, so `batch.universe_ms` (build minus
/// expansion) pairs two measurements taken under the same conditions.
pub fn rebuild_measure(
    inputs: impl Fn() -> (DagContext, Vec<PlanNode>),
    rec: &mut Recorder,
    id: u64,
    layers: &mut Samples,
) -> ExpansionStats {
    let (ctx, queries) = rec.time("tpcd.generate", id, &inputs);
    let mut memo = Memo::new(ctx);
    for q in &queries {
        let root = memo.insert_plan(q);
        memo.add_query_root(root);
    }
    let t = clock::now();
    let stats = rec.time("volcano.expand", id, || {
        expand_with(&mut memo, &RuleSet::default(), 1)
    });
    let expand_ms = clock::ms_between(t, clock::now());
    drop(memo);
    let (ctx, queries) = rec.time("tpcd.generate", id, &inputs);
    let t = clock::now();
    let dag = rec.time("batch.rebuild", id, || {
        BatchDag::build_with_threads(ctx, &queries, &RuleSet::default(), 1)
    });
    layers.push(
        "batch.universe_ms",
        clock::ms_between(t, clock::now()) - expand_ms,
    );
    drop(dag);
    expansion_counts(&stats, layers);
    stats
}

/// Drives MarginalGreedy directly on `state` and checks it chose what
/// `EngineState::run` chose, at the same cost.
pub fn select_measure(
    state: &EngineState,
    expect: &RunReport,
    rec: &mut Recorder,
    id: u64,
    layers: &mut Samples,
    checks: &mut Checks,
) {
    let t = clock::now();
    let span = rec.begin("submod.select", id);
    let mb = MbFunction::new(state.engine(MqoConfig::serial()));
    let decomp = mb.canonical_decomposition();
    let out = marginal_greedy(
        &mb,
        &decomp,
        &BitSet::full(mb.universe()),
        MarginalConfig::default(),
    );
    let total = mb.bc(&out.set);
    rec.end(span);
    let select_s = clock::secs_since(t);
    let bc_calls = mb.bc_calls();
    let engine = mb.into_engine();
    let (full, overlay) = engine.eval_counts();
    let chosen: Vec<_> = out.set.iter().map(|e| state.shareable()[e]).collect();
    checks.expect(
        chosen == expect.materialized && total == expect.total_cost,
        || format!("op {id}: direct MarginalGreedy differs from EngineState::run"),
    );
    layers.push("submod.select_ms", select_s * 1e3);
    layers.push("submod.picks", out.picks.len() as f64);
    layers.push("engine.states", engine.n_states() as f64);
    layers.push("engine.bc_calls", bc_calls as f64);
    layers.push("engine.full_solves", full as f64);
    layers.push("engine.overlay_evals", overlay as f64);
    layers.push(
        "engine.overlay_share",
        ratio(overlay as usize, (full + overlay) as usize),
    );
    layers.push("engine.evals_per_s", (full + overlay) as f64 / select_s);
}

/// Runs the Theorem-4 pre-pass alone on `state` and checks it kept the
/// candidates a capped run on it ranked, when there is one.
pub fn prepass_measure(
    state: &EngineState,
    capped: Option<&RunReport>,
    rec: &mut Recorder,
    id: u64,
    layers: &mut Samples,
    checks: &mut Checks,
) {
    let mb = MbFunction::new(state.engine(read_config()));
    let decomp = Decomposition::from_costs(mb.materialization_costs());
    let full = BitSet::full(mb.universe());
    let t = clock::now();
    let kept = rec.time("submod.prepass", id, || {
        universe_reduction(&mb, &decomp, &full, CAP).kept.len()
    });
    layers.push("submod.prepass_ms", clock::ms_between(t, clock::now()));
    layers.push("submod.prepass_kept_ratio", ratio(kept, full.len()));
    if let Some(capped) = capped {
        checks.expect(kept == capped.candidates, || {
            format!(
                "op {id}: pre-pass kept {kept} but the capped run ranked {}",
                capped.candidates
            )
        });
    }
}

/// The expansion fixpoint's work counts.
fn expansion_counts(stats: &ExpansionStats, layers: &mut Samples) {
    layers.push("volcano.candidates", stats.candidates as f64);
    layers.push("volcano.exprs", stats.exprs as f64);
    layers.push("volcano.groups", stats.groups as f64);
    layers.push("volcano.passes", stats.passes as f64);
    layers.push("volcano.commit_ratio", ratio(stats.exprs, stats.candidates));
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(a: usize, b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The loop both batch workloads share: set-up (input generation, repeated `setup_reps`
/// times), `warmup` untimed ops, then ops cycling over the remaining
/// specs until the whole first pass is done and `--seconds` have passed.
/// The first pass is checked against the reference optimizer and fixes
/// the cost ratio; every later op of a spec must repeat its costs bit for
/// bit. A traced run plans each input twice, untraced and then traced, so
/// the two op times compare like with like, and stops at `--seconds`
/// whether or not the first pass is done.
fn run(
    args: &Args,
    rec: &mut Recorder,
    out: &mut Outcome,
    specs: Vec<WorkloadSpec>,
    warmup: usize,
    setup_reps: usize,
) {
    // Set-up generates every input once; an op regenerates its own input
    // outside its timed region, so no more than one batch is held at once.
    let mut setup = Vec::new();
    for _ in 0..setup_reps {
        let t = clock::now();
        for (i, s) in specs.iter().enumerate() {
            rec.time("tpcd.generate", i as u64, || generate(s));
        }
        setup.push(clock::secs_since(t));
    }
    out.e2e.push("setup_s", clock::median(&setup));

    for (i, s) in specs.iter().enumerate().take(warmup) {
        if op(
            generate(s),
            &mut Recorder::new(false, clock::now(), 0),
            i as u64,
        )
        .is_err()
        {
            out.failed += 1;
        }
    }

    // Per spec: (plan cost, read cost) of its first op.
    let mut first: Vec<Option<(f64, f64)>> = vec![None; specs.len()];
    let (mut total, mut volcano) = (0.0, 0.0);
    let (mut plan_ms, mut read_ms) = (Vec::new(), Vec::new());
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    // The loop is closed: an op is due when the previous one ends, and the
    // generator's lag is the input generation and checks in between.
    let mut lag_ms = Vec::new();
    let mut prev_end = None;
    let timed = specs.len() - warmup;
    let start = clock::now();
    let mut n = 0usize;
    while !(clock::secs_since(start) >= args.seconds as f64 && (args.trace || n >= timed)) {
        let i = warmup + n % timed;
        let id = n as u64;
        n += 1;
        let mut quiet = Recorder::new(false, start, 0);
        let runs = if args.trace { 2 } else { 1 };
        for traced in [false, true].into_iter().take(runs) {
            out.attempted += 2;
            let r = if traced { &mut *rec } else { &mut quiet };
            let w = generate(&specs[i]);
            let issued = clock::now();
            lag_ms.extend(prev_end.map(|p| clock::ms_between(p, issued)));
            let o = op(w, r, id);
            prev_end = Some(clock::now());
            let o = match o {
                Ok(o) => o,
                Err(e) => {
                    out.failed += 2;
                    out.checks.failures.push(format!("op {id}: {e}"));
                    continue;
                }
            };
            let costs = (o.plan.total_cost, o.read.total_cost);
            match first[i] {
                None => {
                    out.checks
                        .plan_cost(&format!("op {id} plan"), &o.batch, &o.plan);
                    out.checks
                        .plan_cost(&format!("op {id} read"), &o.batch, &o.read);
                    total += o.plan.total_cost;
                    volcano += o.plan.volcano_cost;
                    first[i] = Some(costs);
                }
                Some(c) => out.checks.expect(c == costs, || {
                    format!("op {id}: costs differ from the spec's first op")
                }),
            }
            if traced {
                traced_ms.push(o.plan_ms + o.read_ms);
                side_measure(&specs[i], o, rec, id, &mut out.layers, &mut out.checks);
            } else {
                untraced_ms.push(o.plan_ms + o.read_ms);
                plan_ms.push(o.plan_ms);
                read_ms.push(o.read_ms);
            }
        }
    }

    let plan = Summary::of(&plan_ms);
    let read = Summary::of(&read_ms);
    out.e2e.push("plan_ms_p50", plan.p50);
    out.e2e.push("read_ms_p50", read.p50);
    out.layers.push("e2e.plan_ms_p90", plan.p90);
    out.layers.push("e2e.read_ms_p99", read.p99);
    out.layers.push(
        "e2e.plans_per_s",
        plan.n as f64 * 1e3 / plan_ms.iter().sum::<f64>(),
    );
    out.e2e.push("cost_ratio", total / volcano);
    let lag = Summary::of(&lag_ms);
    out.layers.push("loadgen.lag_ms_p99", lag.p99);
    out.layers.push("loadgen.lag_ms_max", lag.max);
    out.overhead = (clock::median(&traced_ms), clock::median(&untraced_ms));
    out.info.push(format!(
        "{} specs, {warmup} warm-up, {} timed ops in {:.1} s",
        specs.len(),
        plan.n,
        clock::secs_since(start)
    ));
    out.info.push(format!("plan ms: {plan}"));
    out.info.push(format!("read ms: {read}"));
}
