//! `serve-churn`: queries arrive at and leave live `MqoService`s while a
//! reader optimizes their published snapshots.
//!
//! The run hosts `TENANTS` services, one per tenant batch, each built
//! from its own seeded spec. Spreading the load over many small batches
//! makes a run's latency a mix of many inputs rather than of one, so runs
//! on different seeds agree.
//!
//! The load is an open loop on two threads. The writer issues
//! `WRITES_PER_S` writes per second, round-robin over the tenants: it
//! submits the tenant's next pool query while fewer than `LIVE_ARRIVALS`
//! of its arrivals are live, and otherwise retires the tenant's oldest
//! arrival. The reader issues `READS_PER_S` `run_class(Standard)` reads
//! per second, also round-robin. An op is timed from when it was due if
//! it had to wait for its thread's previous op; an op whose thread was
//! idle is timed from when it started, and the generator's lateness in
//! waking up is reported apart as `loadgen` lag.

use std::collections::VecDeque;

use mqo_core::{
    MqoConfig, MqoError, MqoService, OptimizedBatch, PriorityClass, QueryTicket, RunReport,
    ServeConfig, Session, Strategy,
};
use mqo_submod::prng::Prng;
use mqo_tpcd::{generate, Shape, WorkloadSpec};
use mqo_volcano::cost::DiskCostModel;
use mqo_volcano::{DagContext, PlanNode};

use crate::batch::{ms, prepass_measure, rebuild_measure, select_measure};
use crate::check::close;
use crate::clock::{self, Summary};
use crate::trace::Recorder;
use crate::{Args, Outcome};

const TENANTS: usize = 32;
const SMOKE_TENANTS: usize = 2;
/// Queries of a tenant's base batch; the rest of its spec is its arrival
/// pool.
const BASE: usize = 24;
const POOL: usize = 40;
const LIVE_ARRIVALS: usize = 8;
const WRITES_PER_S: f64 = 10.0;
const READS_PER_S: f64 = 50.0;
const WARMUP_S: f64 = 2.0;
const SMOKE_WARMUP_S: f64 = 0.5;
/// Latency objectives behind `serve.slo_miss_frac`.
const WRITE_SLO_MS: f64 = 100.0;
const READ_SLO_MS: f64 = 25.0;
/// The services' compaction watermark, which the replay applies too.
const WATERMARK: usize = 64;
/// Replay steps between two direct selection drives.
const DRIVE_EVERY: usize = 8;

fn spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        shape: Shape::Chain,
        tables: 48,
        queries: BASE + POOL,
        span: (6, 9),
        overlap: 0.3,
        select_prob: 0.35,
        base_rows: 500.0,
        seed,
    }
}

/// The serving configuration of `examples/serve.rs`.
fn serve_config() -> ServeConfig {
    ServeConfig {
        strategy: Strategy::MarginalGreedy,
        history_watermark: WATERMARK,
        cache_capacity: 4,
        ..ServeConfig::default()
    }
}

fn build(ctx: DagContext, queries: Vec<PlanNode>) -> Result<OptimizedBatch, MqoError> {
    Session::builder()
        .context(ctx)
        .queries(queries)
        .cost_model(DiskCostModel::paper())
        .config(MqoConfig::serial())
        .threads(1)
        .try_build()
}

/// A write as the writer issued it, for the replay.
#[derive(Clone, Copy)]
enum Write {
    /// Admit pool query `.0`.
    Add(usize),
    /// Retire the `.0`-th admitted arrival.
    Retire(usize),
}

/// The writer's view of one tenant.
#[derive(Default)]
struct Tenant {
    /// Live arrivals: admission number and ticket, oldest first.
    live: VecDeque<(usize, QueryTicket)>,
    admitted: usize,
    log: Vec<Write>,
}

/// One timed op of either load thread.
struct Timed {
    latency_ms: f64,
    /// From issue to done.
    service_ms: f64,
    /// From due to issue.
    lag_ms: f64,
    traced: bool,
    admit: bool,
}

#[derive(Default)]
struct Load {
    ops: Vec<Timed>,
    attempted: u64,
    failed: u64,
    backlog_max: u64,
    history_max: usize,
    extract_ms: Vec<f64>,
    failures: Vec<String>,
}

impl Load {
    fn latencies(&self, keep: impl Fn(&Timed) -> bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| keep(o))
            .map(|o| o.latency_ms)
            .collect()
    }
}

/// The shared schedule of both load threads.
#[derive(Clone, Copy)]
struct Schedule {
    t0: std::time::Instant,
    measure_from: std::time::Instant,
    end: std::time::Instant,
    trace: bool,
}

impl Schedule {
    /// Runs `op` at `rate` per second until the end. `op(k, measured,
    /// traced, load)` returns whether it admitted (writes) and whether it
    /// succeeded. In a traced run, ops trace in alternate blocks of
    /// `block` ops, so the untraced ones measure what tracing costs on the
    /// same mix of tenants and kinds of write.
    fn drive(
        &self,
        rate: f64,
        block: u64,
        load: &mut Load,
        mut op: impl FnMut(u64, bool, bool, &mut Load) -> (bool, bool),
    ) {
        let mut prev_done = self.t0;
        for k in 0u64.. {
            let due = clock::after(self.t0, k as f64 / rate);
            if due >= self.end {
                break;
            }
            clock::sleep_until(due);
            let start = clock::now();
            let measured = due >= self.measure_from;
            let traced = self.trace && measured && (k / block).is_multiple_of(2);
            let (admit, ok) = op(k, measured, traced, load);
            let done = clock::now();
            load.attempted += 1;
            load.failed += u64::from(!ok);
            if measured && ok {
                let lag_ms = clock::ms_between(due, start);
                let queued = prev_done > due;
                load.backlog_max = load.backlog_max.max((lag_ms * rate / 1e3) as u64);
                load.ops.push(Timed {
                    latency_ms: clock::ms_between(if queued { due } else { start }, done),
                    service_ms: clock::ms_between(start, done),
                    lag_ms,
                    traced,
                    admit,
                });
            }
            prev_done = done;
        }
    }
}

/// Builds every tenant's base batch and starts its service.
fn start(
    specs: &[WorkloadSpec],
    rec: &mut Recorder,
) -> Result<Vec<(MqoService, Vec<PlanNode>)>, MqoError> {
    specs
        .iter()
        .enumerate()
        .map(|(t, spec)| {
            let id = t as u64;
            let w = rec.time("tpcd.generate", id, || generate(spec));
            let mut queries = w.queries;
            let pool = queries.split_off(BASE);
            let batch = rec.time("batch.build", id, || build(w.ctx, queries))?;
            rec.time("engine.compile", id, || batch.snapshot());
            let service = rec.time("serve.start", id, || batch.serve_with(serve_config()));
            Ok((service, pool))
        })
        .collect()
}

/// `serve-churn`; see the module docs.
pub fn run(args: &Args, rec: &mut Recorder, out: &mut Outcome) {
    let tenants = if args.smoke { SMOKE_TENANTS } else { TENANTS };
    let specs: Vec<WorkloadSpec> = (0..tenants)
        .map(|t| spec(Prng::derive_seed(args.seed, t as u64)))
        .collect();

    let mut setup = Vec::new();
    let mut started = Vec::new();
    for _ in 0..3 {
        // The previous set-up's services go first, so only one set is
        // ever resident.
        drop(std::mem::take(&mut started));
        let t = clock::now();
        started = match start(&specs, rec) {
            Ok(s) => s,
            Err(e) => {
                out.checks.failures.push(format!("base build: {e}"));
                out.failed += 1;
                return;
            }
        };
        setup.push(clock::secs_since(t));
    }
    out.e2e.push("setup_s", clock::median(&setup));
    let (services, pools): (Vec<MqoService>, Vec<Vec<PlanNode>>) = started.into_iter().unzip();

    let warmup = if args.smoke { SMOKE_WARMUP_S } else { WARMUP_S };
    let t0 = clock::now();
    let measure_from = clock::after(t0, warmup);
    let sched = Schedule {
        t0,
        measure_from,
        end: clock::after(measure_from, args.seconds as f64),
        trace: args.trace,
    };
    let mut writes = Load::default();
    let mut reads = Load::default();
    let mut state: Vec<Tenant> = (0..tenants).map(|_| Tenant::default()).collect();
    let mut stats_from = Vec::new();
    let mut write_rec = rec.fork(1);
    let mut read_rec = rec.fork(2);
    std::thread::scope(|s| {
        let services = &services;
        s.spawn(|| {
            let mut quiet = Recorder::new(false, t0, 1);
            // A tenant's writes alternate admit and retire once its
            // arrivals fill up, so blocks of two rounds trace both kinds.
            let block = 2 * tenants as u64;
            sched.drive(
                WRITES_PER_S,
                block,
                &mut writes,
                |k, measured, traced, load| {
                    if measured && stats_from.is_empty() {
                        stats_from = services.iter().map(MqoService::stats).collect();
                    }
                    let t = k as usize % tenants;
                    let (service, tenant) = (&services[t], &mut state[t]);
                    let r = if traced { &mut write_rec } else { &mut quiet };
                    let span = r.begin("op.write", k);
                    let result = if tenant.live.len() < LIVE_ARRIVALS {
                        let p = tenant.admitted % POOL;
                        let query = pools[t][p].clone();
                        let res = r.time("serve.submit", k, || service.try_submit_query(query));
                        res.map(|ticket| {
                            tenant.live.push_back((tenant.admitted, ticket));
                            tenant.log.push(Write::Add(p));
                            tenant.admitted += 1;
                            true
                        })
                    } else {
                        let (seq, ticket) = tenant.live.pop_front().expect("live arrivals");
                        let res = r.time("serve.retire", k, || service.try_retire_query(ticket));
                        match res {
                            Ok(()) => {
                                tenant.log.push(Write::Retire(seq));
                                Ok(false)
                            }
                            Err(e) => {
                                tenant.live.push_front((seq, ticket));
                                Err(e)
                            }
                        }
                    };
                    r.end(span);
                    if args.trace {
                        load.history_max = load.history_max.max(service.history_len());
                    }
                    match result {
                        Ok(admit) => (admit, true),
                        Err(e) => {
                            load.failures.push(format!("write {k}: {e}"));
                            (false, false)
                        }
                    }
                },
            );
        });
        s.spawn(|| {
            sched.drive(
                READS_PER_S,
                tenants as u64,
                &mut reads,
                |j, _, traced, load| {
                    let service = &services[j as usize % tenants];
                    let report = if traced {
                        let span = read_rec.begin("op.read", j);
                        let snap = read_rec.time("serve.snapshot", j, || service.snapshot());
                        let report = read_rec.time("serve.read_run", j, || {
                            snap.run(Strategy::MarginalGreedy, MqoConfig::serial())
                        });
                        read_rec.end(span);
                        load.extract_ms.push(ms(report.extract_time));
                        report
                    } else {
                        service.run_class(PriorityClass::Standard)
                    };
                    let ok = close(report.plan.total_cost, report.total_cost)
                        && report.total_cost <= report.volcano_cost;
                    if !ok {
                        load.failures.push(format!("read {j}: inconsistent report"));
                    }
                    (false, ok)
                },
            );
        });
    });
    rec.absorb(write_rec);
    rec.absorb(read_rec);

    out.attempted = writes.attempted + reads.attempted;
    out.failed = writes.failed + reads.failed;
    out.checks.failures.append(&mut writes.failures);
    out.checks.failures.append(&mut reads.failures);

    let wl = writes.latencies(|_| true);
    let rl = reads.latencies(|_| true);
    let (w, r) = (Summary::of(&wl), Summary::of(&rl));
    out.e2e.push("plan_ms_p50", w.p50);
    out.e2e.push("read_ms_p50", r.p50);
    let busy_ms: f64 = writes.ops.iter().map(|o| o.service_ms).sum();
    out.layers
        .push("e2e.plans_per_s", w.n as f64 * 1e3 / busy_ms);

    let layers = &mut out.layers;
    layers.push(
        "serve.admit_ms_p50",
        clock::median(&writes.latencies(|o| o.admit)),
    );
    layers.push(
        "serve.retire_ms_p50",
        clock::median(&writes.latencies(|o| !o.admit)),
    );
    layers.push("e2e.plan_ms_p90", w.p90);
    layers.push("e2e.read_ms_p99", r.p99);
    let misses = wl.iter().filter(|&&l| l > WRITE_SLO_MS).count()
        + rl.iter().filter(|&&l| l > READ_SLO_MS).count();
    layers.push(
        "serve.slo_miss_frac",
        (misses as u64 + out.failed) as f64 / (w.n + r.n).max(1) as f64,
    );
    let delta = |f: fn(&mqo_core::ServeStats) -> u64| -> u64 {
        services
            .iter()
            .zip(&stats_from)
            .map(|(s, from)| f(&s.stats()) - f(from))
            .sum()
    };
    let rounds = delta(|s| s.rounds);
    let compactions = delta(|s| s.compactions);
    layers.push("serve.rounds", rounds as f64);
    layers.push("serve.compactions", compactions as f64);
    layers.push("serve.evictions", delta(|s| s.evictions) as f64);
    layers.push(
        "serve.compactions_per_round",
        compactions as f64 / rounds.max(1) as f64,
    );
    layers.push("serve.history_len_max", writes.history_max as f64);
    let lag: Vec<f64> = writes
        .ops
        .iter()
        .chain(&reads.ops)
        .map(|o| o.lag_ms)
        .collect();
    let lag = Summary::of(&lag);
    layers.push("loadgen.lag_ms_p99", lag.p99);
    layers.push("loadgen.lag_ms_max", lag.max);
    layers.push(
        "loadgen.backlog_max",
        writes.backlog_max.max(reads.backlog_max) as f64,
    );
    for &e in &reads.extract_ms {
        layers.push("consolidated.extract_ms", e);
    }
    let service_of = |traced: bool| -> Vec<f64> {
        writes
            .ops
            .iter()
            .filter(|o| o.traced == traced)
            .map(|o| o.service_ms)
            .collect()
    };
    out.overhead = (
        clock::median(&service_of(true)),
        clock::median(&service_of(false)),
    );
    out.info.push(format!(
        "{tenants} tenants; {rounds} rounds, {compactions} compactions in the measured window"
    ));
    out.info.push(format!("write ms: {w}"));
    out.info.push(format!("read ms: {r}"));
    out.info.push(format!("generator lag ms: {lag}"));

    // Each tenant's survivors — its base plus its live arrivals, in
    // admission order — must be the batch a fresh build of them is.
    let (mut total, mut volcano) = (0.0, 0.0);
    for (t, (service, tenant)) in services.into_iter().zip(&state).enumerate() {
        let survivors: Vec<usize> = (0..BASE)
            .chain(tenant.live.iter().map(|&(seq, _)| BASE + seq % POOL))
            .collect();
        let batch = service.finish();
        let report = batch.run(Strategy::MarginalGreedy);
        out.checks
            .plan_cost(&format!("tenant {t} survivors"), &batch, &report);
        let fresh = generate(&specs[t]);
        let picked = survivors
            .iter()
            .map(|&i| fresh.queries[i].clone())
            .collect();
        match build(fresh.ctx, picked) {
            Ok(fresh) => {
                let f = fresh.run(Strategy::MarginalGreedy);
                let label = format!("tenant {t} survivors vs a fresh build");
                out.checks
                    .same_batch(&label, (&batch, &report), (&fresh, &f));
                if !close(f.total_cost, report.total_cost) {
                    out.info.push(format!(
                        "tenant {t}: MarginalGreedy costs {} on the served batch and {} on a \
                         fresh build of its survivors",
                        report.total_cost, f.total_cost
                    ));
                }
            }
            Err(e) => out
                .checks
                .failures
                .push(format!("tenant {t} fresh build: {e}")),
        }
        total += report.total_cost;
        volcano += report.volcano_cost;
        if args.trace {
            if let Some((replayed, r)) = replay(t, &specs[t], &tenant.log, rec, out) {
                let label = format!("tenant {t} survivors vs its replay");
                out.checks
                    .same_batch(&label, (&batch, &report), (&replayed, &r));
            }
        }
    }
    out.e2e.push("cost_ratio", total / volcano);
}

/// Replays a tenant's write log on a plain `OptimizedBatch` with the same
/// base, timing each public step its service takes per write: the
/// evolution step, compaction past the watermark, the snapshot compile,
/// and the MarginalGreedy re-score. Also re-runs expansion alone, and the
/// build, on the base the set-up built. Returns the replayed batch and
/// its last re-score.
fn replay(
    tenant: usize,
    spec: &WorkloadSpec,
    log: &[Write],
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Option<(OptimizedBatch, RunReport)> {
    let id0 = (1 + tenant as u64) << 32;
    let base = || {
        let mut w = generate(spec);
        w.queries.truncate(BASE);
        (w.ctx, w.queries)
    };
    rebuild_measure(base, rec, id0, &mut out.layers);

    let w = rec.time("tpcd.generate", id0, || generate(spec));
    let mut queries = w.queries;
    let pool = queries.split_off(BASE);
    let mut batch = match build(w.ctx, queries) {
        Ok(b) => b,
        Err(e) => {
            out.checks
                .failures
                .push(format!("tenant {tenant} replay base: {e}"));
            return None;
        }
    };
    let mut tickets = Vec::new();
    let mut last = batch.run(Strategy::MarginalGreedy);
    for (k, op) in log.iter().enumerate() {
        let id = id0 + k as u64;
        let span = rec.begin("op.replay", id);
        let step = match *op {
            Write::Add(p) => rec
                .time("session.add_query", id, || {
                    batch.try_add_query(pool[p].clone())
                })
                .map(|t| tickets.push(t)),
            Write::Retire(seq) => rec.time("session.retire_query", id, || {
                batch.try_retire_query(tickets[seq])
            }),
        };
        if let Err(e) = step {
            rec.end(span);
            out.checks
                .failures
                .push(format!("tenant {tenant} replay step {k}: {e}"));
            return None;
        }
        if batch.history_len() > WATERMARK {
            rec.time("session.compact", id, || batch.compact_history());
        }
        let state = rec.time("engine.recompile", id, || batch.snapshot());
        let report = rec.time("serve.rescore", id, || {
            state.run(Strategy::MarginalGreedy, MqoConfig::serial())
        });
        rec.end(span);
        out.layers
            .push("batch.universe", state.universe_size() as f64);
        if k % DRIVE_EVERY == 0 {
            let (layers, checks) = (&mut out.layers, &mut out.checks);
            select_measure(&state, &report, rec, id, layers, checks);
            prepass_measure(&state, None, rec, id, layers, checks);
        }
        last = report;
    }
    Some((batch, last))
}
