#!/usr/bin/env bash
# Canonical tier-1 verification entrypoint (CI/tooling).
#
# The workspace has zero external dependencies, so everything here runs
# with --offline against an empty registry cache. Steps:
#   1. release build of every default-member crate
#   2. full test suite (unit + integration + doc-tests, warning-free),
#      run twice: MQO_THREADS=1 (one worker: the shared fan-out behind
#      bc_many and expansion runs inline) and MQO_THREADS=4 (four workers:
#      chunk 0 on the calling thread, the rest on scoped threads) —
#      results must be identical by construction (the serve-stress and
#      fault-injection suites run here, with the debug-build serve
#      lock-order detector live inside them)
#   3. all remaining targets: examples, benches, experiment binaries
#   4. clippy (all targets, warnings are errors), rustfmt --check, and
#      rustdoc with -D warnings (broken intra-doc links on the Session
#      API fail the gate)
#   5. invariant lints: `mqo-lint` (crates/lint) walks the tree with its
#      six token-level rules (float-total-order, lock-poison, wall-clock,
#      hashmap-iter-determinism, banned-api, forbid-unsafe-attr) and any
#      finding fails the gate — this subsumes the old grep checks for
#      poisoning lock sites and removed free functions
#   6. the repository benchmark's smoke test (`mqobench/`, its own
#      package outside the workspace): it builds against the workspace
#      crates' public API, so a serving or session API change that breaks
#      the benchmark fails here rather than at benchmark time; its output
#      is kept in target/mqobench-smoke.log
#   7. one smoke iteration of each bench target via the in-repo harness
#      (`mqo_bench::timing`), plus the `scale_sweep --big` example, which
#      asserts that the calibrated 10k-candidate instance still exceeds
#      10k candidates
#
# `scripts/verify.sh --bench-smoke` skips 1-6 and runs only the bench
# smoke, additionally recording the bc_oracle, memo_expand and opt_time
# series to BENCH_*.json at the repo root. Every entry carries its sample
# count and spread (`n`, `min`, `median`, `max`), the engine's `threads`
# and the machine's `cores`; a baseline missing any of them fails the
# run, as does a BENCH_opt_time.json without the session_evolve series.
# End-to-end numbers come from the repository benchmark (`mqobench/`,
# declared in BENCHMARK.json), not from these targets.
set -euo pipefail
cd "$(dirname "$0")/.."

check_bench_baselines() {
    # Every recorded baseline must carry its provenance: sample count,
    # spread, thread count and core count.
    local f field
    for f in BENCH_*.json; do
        [[ -e "$f" ]] || continue
        for field in n min median max threads cores; do
            if ! grep -q "\"$field\"" "$f"; then
                echo "ERROR: $f is missing the \"$field\" field" >&2
                exit 1
            fi
        done
    done
    # The opt_time baseline must include the session_evolve series
    # (add/retire vs rebuild on the evolvable-session API; retire rebuilds
    # the survivors, so its op tracks the rebuild) — a recording run that
    # silently dropped it would leave the incremental-admission speedup
    # claim and the retire cost unbacked.
    if [[ -e BENCH_opt_time.json ]] && ! grep -q '"session_evolve"' BENCH_opt_time.json; then
        echo "ERROR: BENCH_opt_time.json is missing the session_evolve series" >&2
        exit 1
    fi
    # ...and the compile series (the engine compile every snapshot pays,
    # on BQ2/BQ4/BQ6 and a 60-query generated chain), which backs the
    # compile figures in README.md and ROADMAP.md.
    if [[ -e BENCH_opt_time.json ]] && ! grep -q '"mode": "compile"' BENCH_opt_time.json; then
        echo "ERROR: BENCH_opt_time.json is missing the compile series" >&2
        exit 1
    fi
}

bench_smoke() {
    local record="${1:-}" b
    echo "==> bench smoke"
    for b in bc_oracle memo_expand opt_time; do
        if [[ "$record" == "record" ]]; then
            echo "==> $b (15 samples, recording BENCH_$b.json)"
            MQO_BENCH_SAMPLES=15 MQO_BENCH_JSON="$PWD/BENCH_$b.json" \
                cargo bench --offline -q -p mqo-bench --bench "$b"
        else
            MQO_BENCH_SAMPLES=1 cargo bench --offline -q -p mqo-bench --bench "$b"
        fi
    done
    echo "==> scale_sweep --big (the 10k-candidate instance must exceed 10k candidates)"
    cargo run --release --offline -q --example scale_sweep -- --big
    check_bench_baselines
}

if [[ "${1:-}" == "--bench-smoke" ]]; then
    bench_smoke record
    exit 0
fi

echo "==> cargo build --release --offline"
cargo build --release --offline

# The two full-suite runs below are what executes the differential
# suites (engine_differential, memo_differential,
# plan_extraction_differential), serve_stress and fault_injection under
# both thread settings — one-worker ≡ four-worker bit-identity, arena ≡
# PlanTable plan-extraction equivalence, concurrent-service ≡ fresh-build
# equivalence and fault containment are pinned on every run.
echo "==> cargo test -q --offline (MQO_THREADS=1: one-worker fan-out for bc_many + expansion, incl. differential suites)"
MQO_THREADS=1 cargo test -q --offline

echo "==> cargo test -q --offline (MQO_THREADS=4: four-worker fan-out for bc_many + expansion, incl. differential suites)"
MQO_THREADS=4 cargo test -q --offline

echo "==> cargo build --all-targets --offline (examples, benches, bins)"
cargo build --all-targets --offline

echo "==> cargo clippy --offline --all-targets -- -D warnings"
cargo clippy --offline --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --no-deps --offline (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q

echo "==> mqo-lint (six invariant rules; any finding fails the gate)"
cargo run --offline --release -q -p mqo-lint -- --json

echo "==> mqobench smoke test (the benchmark builds and runs against the workspace API)"
# The output is kept in target/mqobench-smoke.log so a failing run's
# message survives; pipefail makes the pipeline fail when the tests do.
mkdir -p target
cargo test --release --offline --manifest-path mqobench/Cargo.toml 2>&1 | tee target/mqobench-smoke.log

bench_smoke

echo "==> tier-1 verification passed"
