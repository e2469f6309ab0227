#!/usr/bin/env bash
# Regenerate every table/figure artifact at the committed settings.
# Usage: scripts/run_all_benches.sh [extra flags passed to every bin]
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p bench --bins

run() {
  local bin="$1"; shift
  echo "=== $bin ==="
  # --quiet keeps the captured log free of progress chatter so reruns at
  # identical settings produce byte-identical logs (timestamps live in
  # each artifact's JSON header instead).
  ./target/release/"$bin" --quiet "$@" | tee "bench_results/${bin}_run.log"
}

run table1 --scale 0.3 --steps 4 "$@"
# --no-cache: every point is timed as an evaluation, not a cache probe.
run fig1   --scale 0.5 --no-cache "$@"
run fig6   "$@"
# table3 is the long one; the committed artifact uses a 12-dataset subset:
run table3 --datasets "PimaIndian,credit-a,diabetes,German Credit,SpectF,SVMGuide3,Ionosphere,Wine Q. Red,Housing Boston,Airfoil,Openml 589,Openml 620" --scale 0.1 --epochs1 3 --epochs2 6 "$@"
run table4 --scale 0.2 "$@"
run table5 --scale 0.2 --epochs1 2 --epochs2 4 "$@"
run table6 "$@"
run fig7   --scale 0.3 --epochs2 10 "$@"
run fig8   --scale 0.2 --epochs1 2 --epochs2 4 "$@"
run fig9   --epochs1 2 --epochs2 4 "$@"
run ablation_replay --scale 0.2 "$@"
run ablation_lambda --scale 0.2 "$@"
run ablation_representation --scale 0.2 --epochs1 2 --epochs2 4 "$@"
echo "all artifacts written to bench_results/"
