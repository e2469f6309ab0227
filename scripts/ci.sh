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

echo "==> cargo test --workspace --exclude e-afe -q (every other crate, once)"
cargo test --workspace --exclude e-afe -q

echo "==> perf_e2e unit tests (benchmark/ is its own workspace on the crates' public API)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

if [[ "$quick" -eq 0 ]]; then
    echo "==> minhash kernel vs scalar oracle + bound checks (debug: the visit's A <= a and the dense scan's block-minimum filter, each row it skips re-derived, by debug_assert!; release: the table_parity unit suite, and A <= a and the filter bound at c and at a block minimum asserted where debug_assert! is compiled out)"
    cargo test -q -p minhash --lib
    cargo test -q -p minhash --release --lib

    echo "==> pool unit tests + budget hand-over suite (release: the hand-over window is microseconds wide when optimised)"
    cargo test -q -p runtime --release --lib pool::
    echo "==> score cache unit tests (release: the concurrent test's exact capacity and eviction counts under contention)"
    cargo test -q -p runtime --release --lib cache::
    cargo test -q -p runtime --release --test pool_late_join

    echo "==> histogram vs exact-oracle parity + golden score bits (release: the builder's leaf-bound debug_assert is compiled out, and each golden literal's second, warm assertion is a served memo hit)"
    cargo test -q --release --test hist_parity --test golden_scores

    echo "==> CV-score memo (release: the only build that serves a memo hit; a debug build recomputes it and compares); prediction by bin code == prediction by value; the fold order == the k train and test lists it replaced; replayed bootstrap draws == the up-front oracle, single_thread_matches_parallel, the 1-vs-4-thread suite and the multi-process distributed determinism suite (release: the kill must land at any speed)"
    cargo test -q -p learners --release --lib cv::
    cargo test -q -p tabular --release --lib split::
    cargo test -q --release --test score_memo --test paper_claims
    cargo test -q -p learners --release --lib forest::
    cargo test -q --release --test parallel_determinism

    echo "==> column digest + score-cache key parity, frames built per evaluation, bins kept per selection, the whole eafe lib suite in one process (release: the stores' key debug_assert and its debug-only frame are compiled out, and the process-wide CV-score memo serves hits across tests)"
    cargo test -q -p runtime --release --lib fingerprint
    cargo test -q -p eafe --release --lib
    cargo test -q -p eafe --release --test frames_built
    cargo test -q -p eafe --release --test bin_cache

    echo "==> perf_e2e smoke (release): every workload runs, every listed metric comes out finite"
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke

    echo "==> golden search lines (release): no eafe_table / nfs_table / eafe_tall / dist_2w / serve_4t result moved"
    # scripts/golden_searches.txt holds 'search <i> <fingerprint>: <n> evals
    # of which <m> computed' of every search of the five workloads (the
    # panel is the same on every seed); eafe_tall is the one that sketches
    # chunk-backed columns and takes the dense scan, dist_2w the one whose
    # coordinator is warmed by two worker processes over TCP, serve_4t the
    # one whose flat searches the job server steps for four tenants. A PR
    # that means to move results regenerates the file with this loop and
    # says so.
    golden="$(mktemp)"
    for workload in eafe_table nfs_table eafe_tall dist_2w serve_4t; do
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed 60158 --seconds 2 --trace 0 2>&1 >/dev/null \
            | sed -n 's/^perf-e2e: \(.* search [0-9]* [0-9a-f]*\): .*, \([0-9]* evals of which [0-9]* computed\)$/\1: \2/p'
    done > "$golden"
    diff -u scripts/golden_searches.txt "$golden" \
        || { echo "search results differ from scripts/golden_searches.txt"; exit 1; }
    rm -f "$golden"

    echo "==> Table III reproduction (release): the committed 12-dataset subset's scores and means"
    # bench_results/table3_run.log is what scripts/run_all_benches.sh wrote
    # at the committed settings; the FPE models it read are copied in so
    # the run reuses them exactly. A PR that means to move the
    # reproduction re-runs that script and commits the new log.
    cargo build --release -q -p bench --bin table3
    t3_dir="$(mktemp -d)"
    cp bench_results/fpe_*_48_60158.json "$t3_dir"/
    ./target/release/table3 --quiet --out "$t3_dir" \
        --datasets "PimaIndian,credit-a,diabetes,German Credit,SpectF,SVMGuide3,Ionosphere,Wine Q. Red,Housing Boston,Airfoil,Openml 589,Openml 620" \
        --scale 0.1 --epochs1 3 --epochs2 6 > "$t3_dir/table3_run.log"
    t3_lines() { grep -E '^mean |^[A-Za-z0-9 .-]+ +[CR] +[0-9]+\\' "$1"; }
    diff -u <(t3_lines bench_results/table3_run.log) <(t3_lines "$t3_dir/table3_run.log") \
        || { echo "Table III differs from bench_results/table3_run.log"; exit 1; }
    rm -rf "$t3_dir"

    echo "==> Table V reproduction (release): the cached features' rows under SVM, NB|GP and MLP"
    # The same check for bench_results/table5_run.log, at the settings
    # scripts/run_all_benches.sh uses. Its rows are all classification; the
    # regression arms of these models are pinned by tests/golden_scores.rs.
    cargo build --release -q -p bench --bin table5
    t5_dir="$(mktemp -d)"
    cp bench_results/fpe_*_48_60158.json "$t5_dir"/
    ./target/release/table5 --quiet --out "$t5_dir" \
        --scale 0.2 --epochs1 2 --epochs2 4 > "$t5_dir/table5_run.log"
    t5_lines() { grep -E '^[A-Za-z0-9 .-]+ +[CR] +[0-9]' "$1"; }
    diff -u <(t5_lines bench_results/table5_run.log) <(t5_lines "$t5_dir/table5_run.log") \
        || { echo "Table V differs from bench_results/table5_run.log"; exit 1; }
    rm -rf "$t5_dir"

    echo "==> serve smoke (release): live cancel bound, tenant fairness, status scrapes"
    # Single-threaded: the fairness test compares two tenants' epochs under
    # equal compute-second budgets and the status test loads every core
    # with two live tenants.
    cargo test -q -p serve --release --test smoke -- --test-threads=1
    # The threaded server once more where its slices are fastest (a warm
    # CV-score memo serves most epochs), which is where a driver race
    # would show. Exact slice boundaries are asserted on the scheduler
    # core, in its unit tests; these assertions hold at any speed.
    cargo test -q -p serve --release --test integration

    echo "==> observability end-to-end (release): serve_demo trace -> trace_tool"
    cargo build --release -q --example serve_demo -p e-afe
    cargo build --release -q -p bench --bin trace_tool
    obs_dir="$(mktemp -d)"
    ./target/release/examples/serve_demo --quiet --status \
        --trace-out "$obs_dir/serve_trace.jsonl" > "$obs_dir/demo.out"
    grep -q 'serve_epochs{tenant="tenant-a"}' "$obs_dir/demo.out" \
        || { echo "serve_demo self-scrape missing per-tenant metrics"; exit 1; }
    grep -q '"job-[0-9]*\.budget_remaining"' "$obs_dir/demo.out" \
        || { echo "serve_demo /status missing the budget burn-down series"; exit 1; }
    ./target/release/trace_tool "$obs_dir/serve_trace.jsonl" \
        --folded "$obs_dir/serve.folded" --critical-path > "$obs_dir/trace.out"
    [[ -s "$obs_dir/serve.folded" ]] \
        || { echo "trace_tool produced an empty folded flamegraph"; exit 1; }
    grep -q 'critical path' "$obs_dir/trace.out" \
        || { echo "trace_tool produced no critical-path report"; exit 1; }
    rm -rf "$obs_dir"

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
