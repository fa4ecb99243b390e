//! The repository benchmark: three seeded workloads, their end-to-end
//! metrics, and per-layer spans recorded around calls into each layer's
//! public API.
//!
//! ```text
//! # end-to-end metrics, tracing off
//! cargo run --release --offline --manifest-path mqobench/Cargo.toml -- \
//!     --workload batch-10k --seed 7 --seconds 30 --trace 0
//! # per-layer metrics; spans go to .bench_trace/<workload>-seed<n>.json
//! cargo run --release --offline --manifest-path mqobench/Cargo.toml -- \
//!     --workload batch-10k --seed 7 --seconds 30 --trace 1
//! ```
//!
//! A run prints one `name value unit` line per metric, `#` lines that
//! describe the run (sample counts, min/p50/p90/p99/max, core count), and
//! as its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. A failed output check exits with status 1.
//!
//! # Workloads
//!
//! | name | input and operation | why |
//! |---|---|---|
//! | `batch-10k` | `WorkloadSpec::scale_10k` of the seed and of three seeds derived from it: 390 chain queries, about 10.5k candidates each. An op builds the batch (`SessionBuilder::try_build`), compiles it (`OptimizedBatch::snapshot`) and runs uncapped MarginalGreedy; its read re-optimizes that snapshot with the Theorem-4 pre-pass, the materialization-cost decomposition and k = 16. | The paper's provable algorithm at scale. The `bestCost` oracle does most of the work (selection is about 90% of an op), so an oracle change shows here. Four instances per run average out how much work one instance needs. |
//! | `batch-stream` | 480 fresh 60-query batches; batch `i` has shape `Shape::ALL[i % 4]`, overlap `[0.0, 0.3, 0.6][i % 3]` and seed `Prng::derive_seed(seed, i)`; chains use 48 tables and spans 6 to 9, the other shapes 32 tables and spans 4 to 6. The first 16 warm up untimed; the rest cycle until the time is up, each op and read as in `batch-10k`. | The same pipeline on small inputs that share different amounts of work. Building (expansion) is the largest share, so an expansion change shows here and barely on `batch-10k`. |
//! | `serve-churn` | 32 tenant `MqoService`s, each with a 24-query chain base (48 tables, spans 6 to 9, overlap 0.3) and a 40-query arrival pool, configured as in `examples/serve.rs`. Open loop after a 2 s untimed warm-up: 10 writes/s round-robin over tenants (submit the next pool query while fewer than 8 arrivals are live, else retire the oldest) and 50 `run_class(Standard)` reads/s. | Writes beside reads on live batches: seeded incremental expansion, compaction, compile, publish and the cache re-score run on every write. Nearly every round compacts, so a compaction-policy change shows here and not on the batch workloads. Many small tenants make a run a mix of many inputs, so runs on different seeds agree. |
//!
//! # End-to-end metrics
//!
//! Measured with tracing off, on every workload:
//!
//! - `setup_s`: set-up before the timed region, median of several in a
//!   run — input generation, plus the tenants' base builds and service
//!   start on `serve-churn`.
//! - `peak_rss_mb`: the process's `VmHWM`.
//! - `plan_ms_p50`: getting a plan for changed input — a batch op (build,
//!   compile, uncapped MarginalGreedy), or a `serve-churn` write
//!   (admission or retirement through publish).
//! - `read_ms_p50`: re-optimizing a compiled snapshot — the capped
//!   pre-pass read of a batch op, or a `serve-churn` read.
//! - `cost_ratio`: Σ MarginalGreedy cost ÷ Σ stand-alone Volcano cost over
//!   a run's distinct batches (the final survivors on `serve-churn`). It
//!   repeats exactly for a seed.
//!
//! `serve-churn` latency counts from the op's due time when the op waited
//! for its thread's previous op, and from its start otherwise; the
//! generator's own lateness is reported as `loadgen` lag.
//!
//! Three more end-to-end figures are listed among the per-layer metrics,
//! under `e2e.`, because they carry no bound: the tails
//! `e2e.plan_ms_p90` and `e2e.read_ms_p99`, and `e2e.plans_per_s`, plans
//! per second of planning time (1 / mean plan service time). On a
//! two-core virtual machine they move between runs by more than a bound
//! could allow: a `serve-churn` read that overlaps a write can take twice
//! as long, and a slow spell of the host queues `serve-churn` writes
//! behind each other and slows their mean.
//!
//! # Layers and per-layer metrics
//!
//! Measured with `--trace 1`. A traced run plans each batch input twice,
//! untraced and then with spans around its calls into the layers, and
//! traces `serve-churn` ops in alternate blocks; the untraced ops measure
//! what tracing costs (`trace.overhead_frac`). Side measurements run after
//! a traced op, outside its spans. A metric of a layer the workload does
//! not exercise reads 0. Each line names the end-to-end metric the layer
//! metric should move, and where.
//!
//! - `tpcd` (the workload generator): `tpcd.generate_ms` → `setup_s`.
//! - `volcano` (memo and the expansion fixpoint in `rules`):
//!   `volcano.expand_ms`, expansion re-run alone on a fresh memo, and the
//!   counts `volcano.candidates`, `.exprs`, `.groups`, `.passes`,
//!   `.commit_ratio` (exprs ÷ candidates) → `plan_ms_p50` on
//!   `batch-stream`; little on `batch-10k`.
//! - `batch` (`BatchDag` construction, shareable universe):
//!   `batch.build_ms`, `batch.universe_ms` (a fresh build minus a fresh
//!   expansion, re-run side by side),
//!   `batch.universe` → `plan_ms_p50` on `batch-stream`.
//! - `engine` (arena compile and the `bestCost` oracle):
//!   `engine.compile_ms`, `engine.states` → `plan_ms_p50` on
//!   `batch-stream`; `engine.recompile_ms` → `plan_ms_p50` on
//!   `serve-churn`; `engine.bc_calls`, `.full_solves`, `.overlay_evals`,
//!   `.overlay_share`, `.evals_per_s`, from MarginalGreedy driven directly
//!   through `MbFunction` (checked against `EngineState::run`) →
//!   `plan_ms_p50` on `batch-10k`.
//! - `submod` (greedy selection and the Theorem-4 pre-pass):
//!   `submod.select_ms`, `submod.picks` → `plan_ms_p50` on `batch-10k`;
//!   `submod.prepass_ms`, `submod.prepass_kept_ratio` → `read_ms_p50` on
//!   `batch-10k`.
//! - `consolidated` (plan extraction): `consolidated.extract_ms`
//!   (`RunReport::extract_time`) → predicted to move nothing.
//! - `serve` (`MqoService`): `serve.snapshot_us`, `serve.read_run_ms` →
//!   `read_ms_p50`; `serve.rescore_ms` and the write-path replay —
//!   `session.add_query_ms`, `session.retire_query_ms`,
//!   `session.compact_ms`, each write replayed on a plain `OptimizedBatch`
//!   — with `serve.compactions_per_round` → `plan_ms_p50`, all on
//!   `serve-churn`. Also the `ServeStats` deltas `serve.rounds`,
//!   `.compactions`, `.evictions`, `serve.history_len_max`,
//!   `serve.admit_ms_p50`, `serve.retire_ms_p50` and
//!   `serve.slo_miss_frac` (writes over 100 ms, reads over 25 ms and
//!   failures, over ops).
//! - `loadgen` (this benchmark's load generator): `loadgen.lag_ms_p99`
//!   and `loadgen.lag_ms_max`, how late ops were issued after they were
//!   due — on `serve-churn` their scheduled time, on the closed batch
//!   loops the end of the previous op, with input generation and output
//!   checks in between — and `loadgen.backlog_max`, the most ops of one
//!   `serve-churn` thread overdue at once.
//! - `trace`: `trace.overhead_frac` (traced − untraced median op time,
//!   over untraced) and `trace.coverage_min` (the least share of an op its
//!   direct child spans cover; a batch op below 95% fails the run).
//!
//! # Checks
//!
//! Outside every timed region: each distinct batch's plan and read costs
//! are re-derived with the volcano reference `Optimizer` (`bestUseCost` of
//! the root plus production and write cost of each materialization) to a
//! relative error of 1e-9, and every repeat of a batch must reproduce its
//! costs bit for bit. On `serve-churn` each tenant's survivors must be
//! the batch a fresh `Session::build` of them is: the same universe by
//! structural fingerprint, the same Volcano cost, and each batch prices
//! the other's MarginalGreedy choice at the other's cost; in a traced run
//! the same holds for the replay of its writes. The MarginalGreedy runs
//! themselves may choose differently: candidates whose ratios tie, or
//! differ only by rounding, are ranked by universe element order and by
//! sums whose rounding both follow the evolution history. A `#` line
//! reports each tenant where the two choices differ.
//!
//! # Seeds and hardware
//!
//! Inputs come only from `--seed` (default 7, whose first `batch-10k`
//! instance is the recorded `scale_10k(7)`). Seed 1009 is held out for
//! checking later claims. The reference machine has 2 cores: engine
//! threads are pinned to 1 (`MqoConfig::serial()` and `.threads(1)`, so
//! `MQO_THREADS` cannot leak in), the batch workloads use one thread and
//! `serve-churn` exactly two load threads, so nothing here measures a
//! parallel speed-up.

#![forbid(unsafe_code)]

mod batch;
mod check;
mod churn;
mod clock;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use check::Checks;
use trace::Recorder;

const USAGE: &str = "usage: mqobench --workload <batch-10k|batch-stream|serve-churn> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["batch-10k", "batch-stream", "serve-churn"];

/// End-to-end metrics, printed with tracing off, in order, with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("plan_ms_p50", "ms"),
    ("read_ms_p50", "ms"),
    ("cost_ratio", "ratio"),
];

/// Per-layer metrics, printed with tracing on, with units. A metric of a
/// layer the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("tpcd.generate_ms", "ms"),
    ("volcano.expand_ms", "ms"),
    ("volcano.candidates", "count"),
    ("volcano.exprs", "count"),
    ("volcano.groups", "count"),
    ("volcano.passes", "count"),
    ("volcano.commit_ratio", "ratio"),
    ("batch.build_ms", "ms"),
    ("batch.universe_ms", "ms"),
    ("batch.universe", "count"),
    ("engine.compile_ms", "ms"),
    ("engine.recompile_ms", "ms"),
    ("engine.states", "count"),
    ("engine.bc_calls", "count"),
    ("engine.full_solves", "count"),
    ("engine.overlay_evals", "count"),
    ("engine.overlay_share", "ratio"),
    ("engine.evals_per_s", "1/s"),
    ("submod.select_ms", "ms"),
    ("submod.picks", "count"),
    ("submod.prepass_ms", "ms"),
    ("submod.prepass_kept_ratio", "ratio"),
    ("consolidated.extract_ms", "ms"),
    ("serve.snapshot_us", "us"),
    ("serve.read_run_ms", "ms"),
    ("serve.rescore_ms", "ms"),
    ("serve.admit_ms_p50", "ms"),
    ("serve.retire_ms_p50", "ms"),
    ("serve.slo_miss_frac", "ratio"),
    ("serve.rounds", "count"),
    ("serve.compactions", "count"),
    ("serve.evictions", "count"),
    ("serve.compactions_per_round", "ratio"),
    ("serve.history_len_max", "count"),
    ("session.add_query_ms", "ms"),
    ("session.retire_query_ms", "ms"),
    ("session.compact_ms", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.lag_ms_max", "ms"),
    ("loadgen.backlog_max", "count"),
    ("e2e.plan_ms_p90", "ms"),
    ("e2e.read_ms_p99", "ms"),
    ("e2e.plans_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_min", "ratio"),
];

/// Per-layer metrics that are the median duration of one span name:
/// `(span, metric, factor from ms)`.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("tpcd.generate", "tpcd.generate_ms", 1.0),
    ("volcano.expand", "volcano.expand_ms", 1.0),
    ("batch.build", "batch.build_ms", 1.0),
    ("engine.compile", "engine.compile_ms", 1.0),
    ("engine.recompile", "engine.recompile_ms", 1.0),
    ("submod.select", "submod.select_ms", 1.0),
    ("submod.prepass", "submod.prepass_ms", 1.0),
    ("serve.snapshot", "serve.snapshot_us", 1e3),
    ("serve.read_run", "serve.read_run_ms", 1.0),
    ("serve.rescore", "serve.rescore_ms", 1.0),
    ("session.add_query", "session.add_query_ms", 1.0),
    ("session.retire_query", "session.retire_query_ms", 1.0),
    ("session.compact", "session.compact_ms", 1.0),
];

/// Share of a traced op its top-level spans must cover.
const MIN_COVERAGE: f64 = 0.95;

/// The command line.
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Smoke size: 60-query chains for `batch-10k`, 8 timed batches for
    /// `batch-stream`, two tenants and a short warm-up for `serve-churn`.
    pub smoke: bool,
    /// Corrupts every re-derived reference cost, so the run must fail.
    pub corrupt: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: 7,
        seconds: 30,
        trace: false,
        smoke: false,
        corrupt: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        let switch = || match value.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} takes 0 or 1, got {value}")),
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| format!("unknown workload {value}"))?
            }
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = switch()?,
            "--smoke" => args.smoke = switch()?,
            "--corrupt" => args.corrupt = switch()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Named samples; a metric is reported as the median of its samples.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| clock::median(v))
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Samples,
    pub layers: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// Median op time (ms) of traced and of untraced ops in a traced run.
    pub overhead: (f64, f64),
    /// Lines describing the run, printed before the metrics.
    pub info: Vec<String>,
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Turns the traced run's spans into per-layer metrics, checks op
/// coverage, and writes the span file.
fn finish_trace(args: &Args, rec: &Recorder, out: &mut Outcome) {
    for &(span, metric, factor) in SPAN_METRICS {
        for d in rec.durations(span) {
            out.layers.push(metric, d * factor);
        }
    }
    let (traced, untraced) = out.overhead;
    out.layers
        .push("trace.overhead_frac", (traced - untraced) / untraced);
    // A batch op must be covered by its calls into the layers; a serve op
    // is one call, which the writer or reader may be preempted around.
    let min = |spans: &[&str]| {
        spans
            .iter()
            .flat_map(|s| rec.coverage(s))
            .fold(f64::INFINITY, f64::min)
    };
    let batch_ops = min(&["op.plan", "op.read"]);
    if batch_ops.is_finite() {
        out.checks.expect(batch_ops >= MIN_COVERAGE, || {
            format!(
                "a batch op is only {:.1}% covered by its spans",
                batch_ops * 100.0
            )
        });
    }
    out.layers.push(
        "trace.coverage_min",
        min(&["op.plan", "op.read", "op.write", "op.replay"]),
    );
    let path = std::path::PathBuf::from(".bench_trace")
        .join(format!("{}-seed{}.json", args.workload, args.seed));
    match rec.write_chrome(&path) {
        Ok(()) => out
            .info
            .push(format!("spans written to {}", path.display())),
        Err(e) => out
            .checks
            .failures
            .push(format!("writing {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mqobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut rec = Recorder::new(args.trace, clock::now(), 0);
    let mut out = Outcome::default();
    out.checks.corrupt = args.corrupt;
    match args.workload {
        "batch-10k" => batch::run_10k(&args, &mut rec, &mut out),
        "batch-stream" => batch::run_stream(&args, &mut rec, &mut out),
        _ => churn::run(&args, &mut rec, &mut out),
    }
    match peak_rss_mb() {
        Ok(mb) => out.e2e.push("peak_rss_mb", mb),
        Err(e) => out.checks.failures.push(format!("peak RSS: {e}")),
    }
    if args.trace {
        finish_trace(&args, &rec, &mut out);
    }

    let (samples, names) = if args.trace {
        (&out.layers, PER_LAYER)
    } else {
        (&out.e2e, END_TO_END)
    };
    let mut metrics = Vec::new();
    let mut bad = Vec::new();
    for &(name, unit) in names {
        // A layer the workload never enters reads 0; an end-to-end metric
        // must always be measured.
        let v = match samples.median(name) {
            Some(v) => v,
            None if args.trace => 0.0,
            None => {
                bad.push(format!("{name} was not measured"));
                0.0
            }
        };
        if !v.is_finite() {
            bad.push(format!("{name} is not finite"));
        }
        let v = if v.is_finite() { v } else { 0.0 };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
        println!("{name:<30} {v:>16.6} {unit}");
    }
    out.checks.failures.append(&mut bad);
    for line in &out.info {
        println!("# {line}");
    }
    println!(
        "# workload {} seed {} seconds {} trace {} cores {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        clock::cores()
    );
    for f in &out.checks.failures {
        eprintln!("mqobench: check failed: {f}");
    }
    let correct = out.checks.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
