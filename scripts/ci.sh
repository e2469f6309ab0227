#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test sweep
# (ROADMAP.md). Run from anywhere inside the repo; fails fast.
#
#   ./scripts/ci.sh          # full gate
#   ./scripts/ci.sh --quick  # skip the release build (debug test run only)

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "$quick" -eq 0 ]]; then
    echo "==> cargo build --release (tier-1)"
    cargo build --release
fi

echo "==> cargo test -q (tier-1)"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The kernel parity suites run twice: once on the portable SIMD tier
# (no features) and once with the `simd-arch` std::arch tier compiled in
# and runtime-dispatched — both must hold bit-for-bit (DESIGN.md §13).
run_kernel_parity() {
    echo "==> split-method parity suite $1"
    cargo test -q $2 --test hist_parity

    # The indexed sketch kernel evaluates visited rows with scalar
    # expressions and everything else through the simd row kernels: both
    # tiers must agree with the scalar oracle.
    echo "==> minhash table/batch parity suite $1"
    cargo test -q -p minhash $2 --test table_parity

    echo "==> NN batched-vs-scalar parity suite $1"
    cargo test -q -p learners $2 --test nn_parity

    echo "==> simd dispatch/reduction-tree parity suite $1"
    cargo test -q -p simd $2
}
run_kernel_parity "(portable tier)" ""
run_kernel_parity "(simd-arch tier)" "--features simd-arch"

echo "==> out-of-core chunk parity suite (encode/decode, spill, histogram)"
cargo test -q -p tabular --test chunk_parity

echo "==> serve integration suite"
cargo test -q -p serve --test integration

echo "==> dist loopback determinism suite (solo == 1 worker == N workers)"
cargo test -q -p dist --test loopback

echo "==> multi-process distributed determinism suite (real worker processes)"
cargo test -q --test parallel_determinism multi_process

echo "==> trace_tool golden-output suite"
cargo test -q -p bench --test trace_golden

echo "==> perf_e2e unit tests (benchmark/ is its own workspace on the crates' public API)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

if [[ "$quick" -eq 0 ]]; then
    echo "==> minhash bound check (release: A <= a asserted where debug_assert! is compiled out)"
    cargo test -q -p minhash --release --lib

    echo "==> pool budget hand-over suite (release: the hand-over window is microseconds wide when optimised)"
    cargo test -q -p runtime --release --test pool_late_join

    echo "==> split-method parity + golden score bits (release: the binned path's leaf-bound debug_assert is compiled out)"
    cargo test -q --release --test hist_parity --test golden_scores

    echo "==> multi-process distributed determinism suite (release: the kill must land at any speed)"
    cargo test -q --release --test parallel_determinism multi_process

    echo "==> perf_e2e smoke (release): every workload runs, every listed metric comes out finite"
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke

    echo "==> serve smoke (release): live cancel bound, tenant fairness, status scrapes"
    # Single-threaded: the cancel-bound test is timing-sensitive and the
    # status test loads every core with two live tenants.
    cargo test -q -p serve --release --test smoke -- --test-threads=1

    echo "==> observability end-to-end (release): serve_demo trace -> trace_tool"
    cargo build --release -q --example serve_demo -p e-afe
    cargo build --release -q -p bench --bin trace_tool
    obs_dir="$(mktemp -d)"
    ./target/release/examples/serve_demo --quiet --status \
        --trace-out "$obs_dir/serve_trace.jsonl" > "$obs_dir/demo.out"
    grep -q 'serve_epochs{tenant="tenant-a"}' "$obs_dir/demo.out" \
        || { echo "serve_demo self-scrape missing per-tenant metrics"; exit 1; }
    grep -q '"budget_remaining"' "$obs_dir/demo.out" \
        || { echo "serve_demo /status missing budget burn-down"; exit 1; }
    ./target/release/trace_tool "$obs_dir/serve_trace.jsonl" \
        --folded "$obs_dir/serve.folded" --critical-path > "$obs_dir/trace.out"
    [[ -s "$obs_dir/serve.folded" ]] \
        || { echo "trace_tool produced an empty folded flamegraph"; exit 1; }
    grep -q 'critical path' "$obs_dir/trace.out" \
        || { echo "trace_tool produced no critical-path report"; exit 1; }
    rm -rf "$obs_dir"

    # Every perf_* bin carries a --smoke mode asserting its optimised
    # path does not lose to its retained reference (and, where relevant,
    # stays bit-identical to it).
    run_perf_smoke() {
        local bin="$1" why="$2"; shift 2
        echo "==> $bin smoke (release): $why"
        cargo build --release -q -p bench --bin "$bin"
        "./target/release/$bin" --smoke --quiet "$@"
    }
    run_perf_smoke perf_serve  "served scores bit-identical to direct"
    run_perf_smoke perf_forest "histogram must not lose to exact"
    run_perf_smoke perf_minhash "table path must not lose to naive, smooth and skewed columns"
    run_perf_smoke perf_nn     "batched kernels must not lose to scalar" --threads 1
    run_perf_smoke perf_simd   "lane-tree kernels must not lose to naive loops" --threads 1
    run_perf_smoke perf_frame  "chunked pipeline bit-identical to flat, <=1.15x, budget spills" --threads 1
    run_perf_smoke perf_dist   "2-worker run bitwise == solo and no slower" --threads 1

    echo "==> telemetry overhead smoke (release)"
    # Disabled-telemetry instrumentation must stay near-free; the test
    # asserts a generous per-site ceiling and only means anything with
    # optimisations on.
    cargo test -q -p telemetry --release --test overhead
fi

echo "==> cargo doc --no-deps (warnings denied, first-party crates)"
# vendor/ stand-ins are workspace members but not ours to lint.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p e-afe -p telemetry -p runtime -p tabular -p learners \
    -p minhash -p rl -p eafe -p eafe-stats -p serve -p bench -p simd -p dist

echo "==> first-party line counts (information only; scripts/loc.sh)"
scripts/loc.sh

echo "CI gate passed."
