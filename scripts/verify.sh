#!/usr/bin/env bash
# Canonical tier-1 verification entrypoint (CI/tooling).
#
# The workspace has zero external dependencies, so everything here runs
# with --offline against an empty registry cache. Steps:
#   1. release build of every default-member crate
#   2. full test suite (unit + integration + doc-tests, warning-free),
#      run twice: MQO_THREADS=1 (serial oracle + expansion) and
#      MQO_THREADS=4 (sharded bc_many + parallel expansion) — results
#      must be identical by construction (the serve-stress and
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
#   6. one smoke iteration of each bench target via the in-repo harness
#
# `scripts/verify.sh --bench-smoke` skips 1-5 and runs only the bench
# smoke, additionally recording the bc_oracle, memo_expand, opt_time
# (extract series), scale (universe × batch × threads, incl. the
# 10k-candidate tier), and serve (admission vs rebuild on the concurrent
# serving layer) throughput baselines (all carrying per-series `threads`
# fields) to BENCH_*.json at the repo root. Any BENCH_*.json baseline
# missing a `threads` field fails the run, as does a missing
# BENCH_scale.json, one without the scale-10k tier, a missing
# BENCH_serve.json, or a BENCH_serve.json without the degraded_round
# series and its certified_gap field.
set -euo pipefail
cd "$(dirname "$0")/.."

check_bench_baselines() {
    # Every recorded baseline must carry the `threads` field, so the
    # serial-vs-parallel provenance of a number is never ambiguous.
    local f
    for f in BENCH_*.json; do
        [[ -e "$f" ]] || continue
        if ! grep -q '"threads"' "$f"; then
            echo "ERROR: $f is missing the \"threads\" field" >&2
            exit 1
        fi
    done
    # The opt_time baseline must include the session_evolve series
    # (add/retire vs rebuild on the evolvable-session API) — a recording
    # run that silently dropped it would leave the incremental-admission
    # speedup claim unbacked.
    if [[ -e BENCH_opt_time.json ]] && ! grep -q '"session_evolve"' BENCH_opt_time.json; then
        echo "ERROR: BENCH_opt_time.json is missing the session_evolve series" >&2
        exit 1
    fi
    # The scale baseline is the flagship series (universe × batch size ×
    # threads on the seeded generator); it must exist and must cover the
    # 10k-candidate tier, or the scaling claims in the README go unbacked.
    if [[ ! -e BENCH_scale.json ]]; then
        echo "ERROR: BENCH_scale.json is missing; record it with scripts/verify.sh --bench-smoke" >&2
        exit 1
    fi
    if ! grep -q '"scale-10k"' BENCH_scale.json; then
        echo "ERROR: BENCH_scale.json is missing the scale-10k tier" >&2
        exit 1
    fi
    # The serve baseline backs the serving layer's admission-vs-rebuild
    # claim; it must exist, and (like every baseline, re-checked here for
    # an actionable message) its entries must carry `threads`.
    if [[ ! -e BENCH_serve.json ]]; then
        echo "ERROR: BENCH_serve.json is missing; record it with scripts/verify.sh --bench-smoke" >&2
        exit 1
    fi
    if ! grep -q '"threads"' BENCH_serve.json; then
        echo "ERROR: BENCH_serve.json entries are missing the \"threads\" field" >&2
        exit 1
    fi
    # The fault-tolerance claim needs its number: the degraded_round
    # series (deadline-hit admission latency) with its machine-independent
    # certified gap must be recorded, or "degrades to a certified partial
    # answer" is an unbacked sentence in the README.
    if ! grep -q '"degraded_round"' BENCH_serve.json; then
        echo "ERROR: BENCH_serve.json is missing the degraded_round series" >&2
        exit 1
    fi
    if ! grep -q '"certified_gap"' BENCH_serve.json; then
        echo "ERROR: BENCH_serve.json degraded_round entries are missing certified_gap" >&2
        exit 1
    fi
}

bench_smoke() {
    local record="${1:-}"
    echo "==> bench smoke (1 sample per benchmark)"
    for b in submod_algos bestcost; do
        MQO_BENCH_SAMPLES=1 MQO_BENCH_WARMUP=1 cargo bench --offline -q -p mqo-bench --bench "$b"
    done
    if [[ "$record" == "record" ]]; then
        echo "==> bc_oracle (3 samples, recording BENCH_bc_oracle.json)"
        MQO_BENCH_SAMPLES=3 MQO_BENCH_JSON="$PWD/BENCH_bc_oracle.json" \
            cargo bench --offline -q -p mqo-bench --bench bc_oracle
        echo "==> memo_expand (3 samples, recording BENCH_memo_expand.json)"
        MQO_BENCH_SAMPLES=3 MQO_BENCH_JSON="$PWD/BENCH_memo_expand.json" \
            cargo bench --offline -q -p mqo-bench --bench memo_expand
        echo "==> opt_time (3 samples, recording BENCH_opt_time.json extract series)"
        MQO_BENCH_SAMPLES=3 MQO_BENCH_JSON="$PWD/BENCH_opt_time.json" \
            cargo bench --offline -q -p mqo-bench --bench opt_time
        echo "==> scale (3 samples, recording BENCH_scale.json incl. the scale-10k tier)"
        MQO_BENCH_SAMPLES=3 MQO_BENCH_JSON="$PWD/BENCH_scale.json" \
            cargo bench --offline -q -p mqo-bench --bench scale
        echo "==> serve (15 samples, recording BENCH_serve.json)"
        MQO_BENCH_SAMPLES=15 MQO_BENCH_JSON="$PWD/BENCH_serve.json" \
            cargo bench --offline -q -p mqo-bench --bench serve
    else
        MQO_BENCH_SAMPLES=1 cargo bench --offline -q -p mqo-bench --bench bc_oracle
        MQO_BENCH_SAMPLES=1 cargo bench --offline -q -p mqo-bench --bench memo_expand
        MQO_BENCH_SAMPLES=1 MQO_BENCH_WARMUP=1 cargo bench --offline -q -p mqo-bench --bench opt_time
        # Non-recording path: smoke + mid tiers only (the 10k tier takes
        # minutes and is covered by recording runs).
        MQO_BENCH_SAMPLES=1 cargo bench --offline -q -p mqo-bench --bench scale
        MQO_BENCH_SAMPLES=1 cargo bench --offline -q -p mqo-bench --bench serve
    fi
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
# both thread settings — parallel ≡ serial bit-identity, arena ≡
# PlanTable plan-extraction equivalence, concurrent-service ≡ fresh-build
# equivalence and fault containment are pinned on every run.
echo "==> cargo test -q --offline (MQO_THREADS=1: serial oracle + expansion, incl. differential suites)"
MQO_THREADS=1 cargo test -q --offline

echo "==> cargo test -q --offline (MQO_THREADS=4: sharded bc_many + parallel expansion, incl. differential suites)"
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

bench_smoke

echo "==> tier-1 verification passed"
