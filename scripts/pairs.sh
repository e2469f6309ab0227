#!/usr/bin/env bash
# Alternated pairs of the end-to-end benchmark (perf_e2e, `benchmark/`):
# a parent revision against the working tree, or a revision against a
# second build of itself (the A/A floor). Every run is one contract run
# (`--workload W [--seed N] --trace 0`, at perf-e2e's own run length and
# default seed unless `--seed` is given) in its own process.
#
#   scripts/pairs.sh [--seed N] <rev> [pairs] [workloads]
#       <rev> against the working tree. Pair i runs, per workload, <rev>
#       first when i is odd and the working tree first when i is even.
#   scripts/pairs.sh --aa [--seed N] <rev> [pairs] [workloads]
#       two separate builds of <rev>, alternated the same way; writes the
#       rows of the workloads it ran into scripts/aa_floor.tsv.
#
# Defaults: 10 pairs, every workload (comma-separated to pick some).
# <rev> is exported with `git archive` into target/pairs/ and its
# perf-e2e built there (once per revision; `--aa` builds a second copy);
# the working tree's is built in benchmark/target/. Raw outputs and the
# table (table.md) go to target/pairs/runs/<time>-<mode>/ and stay there.
#
# The table, per (workload, metric): each side's median and quartiles,
# the median of the pair ratios (B over A, A being <rev>), the pairs B
# won (ties count for neither) and a verdict. A/A floor of a (workload,
# metric) = |median A/A pair ratio - 1| + half the A/A pair ratios'
# interquartile range. Verdict `better`/`worse`, given ten pairs or more:
# B wins (loses) at least nine pairs in ten, the medians differ by more than A's interquartile
# range, and the pair-ratio median is further from 1 than the floor
# (where scripts/aa_floor.tsv has one). Below the table: whether every
# `search <i> <fingerprint>` line agrees across all runs of both sides,
# and each side's derived ratios as `perf-e2e run` defines them
# (benchmark/src/report.rs), taken over all of that side's runs, plus two
# that `run` does not print: the wall ratio over the panel searches only
# (search 0 left out, as the end-to-end metrics leave it out) and the
# ratio of computed evaluations (score-cache misses) over those searches.
set -euo pipefail
shopt -s inherit_errexit  # a failed build inside $(build_rev ...) stops the script
cd "$(dirname "$0")/.."
repo="$(pwd)"

workloads_all="eafe_table,nfs_table,eafe_tall,serve_4t,dist_2w"
mode=ab seed=
args=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --aa) mode=aa; shift ;;
        --seed) seed="$2"; shift 2 ;;
        -*) echo "pairs.sh: unknown flag $1" >&2; exit 2 ;;
        *) args+=("$1"); shift ;;
    esac
done

report() { # <run dir>
    python3 - "$1" "$repo/scripts/aa_floor.tsv" <<'PY'
import json, os, re, sys
from statistics import mean, median

run_dir, floor_path = sys.argv[1], sys.argv[2]
meta = dict(l.rstrip("\n").split("=", 1) for l in open(os.path.join(run_dir, "meta")))
workloads = meta["workloads"].split(",")
LOWER = {"setup_s", "wall_s", "time_to_target_s", "cpu_s", "peak_rss_mib"}
METRICS = ["wall_s", "time_to_target_s", "evals_per_s", "cpu_s", "peak_rss_mib", "setup_s"]
SEARCH = re.compile(r"^perf-e2e: \S+ search (\d+) ([0-9a-f]+): wall ([0-9.]+)s .*, (\d+) evals of which (\d+) computed$")

def quartiles(xs):
    xs = sorted(xs)
    def at(q):  # linear interpolation between closest ranks
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return at(0.25), at(0.5), at(0.75)

def load(w, pair, side):
    stem = os.path.join(run_dir, f"{w}.{pair}.{side}")
    try:
        lines = [l for l in open(stem + ".out") if l.startswith("{")]
        result = json.loads(lines[-1])
    except (OSError, IndexError, ValueError):
        return None
    searches = [SEARCH.match(l.rstrip("\n")) for l in open(stem + ".err")]
    return result, [m.groups() for m in searches if m]

floor = {}
if os.path.exists(floor_path) and meta["mode"] != "aa":
    for line in open(floor_path):
        if line.startswith("#") or not line.strip():
            continue
        f = line.split("\t")
        floor[(f[0], f[1])] = float(f[4])

def fmt(v):
    return f"{v:.4g}"

print(f"# {meta['a']} (A) vs {meta['b']} (B), seed {meta['seed']}, {meta['mode']}")
print("| workload | metric | pairs | A median [Q1, Q3] | B median [Q1, Q3] | "
      "pair ratio B/A | B better | A/A floor | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
floor_rows, notes, per_side = [], [], {"A": {}, "B": {}}
for w in workloads:
    pairs = []
    for pair in range(1, int(meta["pairs"]) + 1):
        a, b = load(w, pair, "A"), load(w, pair, "B")
        if a is None or b is None:
            notes.append(f"{w} pair {pair}: a run left no result line")
            continue
        pairs.append((a, b))
    if not pairs:
        continue
    failed = sum(r[0]["failed"] for p in pairs for r in p)
    lines = {tuple(s[:2] + s[3:]) for p in pairs for r in p for s in r[1]}
    same = len(lines) == len({s[0] for s in lines})
    notes.append(f"{w}: {len(pairs)} pairs, failed {failed}, search lines "
                 + (f"identical on every run ({len(lines)} distinct)" if same
                    else f"DIFFER ({len(lines)} distinct lines)"))
    # Per side: each search index's mean wall over the side's runs, and
    # its evaluations and computed evaluations (both fixed per index: the
    # search lines agree). A run's stderr lists its searches, then the
    # replay of search 0 that `run` checks but does not keep, so only the
    # first line of an index counts.
    for side, k in (("A", 0), ("B", 1)):
        walls, evals, computed = {}, {}, {}
        for p in pairs:
            seen = set()
            for s in p[k][1]:
                if s[0] not in seen:
                    seen.add(s[0])
                    walls.setdefault(s[0], []).append(float(s[2]))
                    evals.setdefault(s[0], int(s[3]))
                    computed.setdefault(s[0], int(s[4]))
        per_side[side][w] = ({m: mean(v) for m, v in walls.items()}, evals, computed)
    for metric in METRICS:
        va = [p[0][0]["metrics"][metric]["value"] for p in pairs]
        vb = [p[1][0]["metrics"][metric]["value"] for p in pairs]
        ratios = [b / a for a, b in zip(va, vb) if a > 0]
        lower = metric in LOWER
        wins = sum((b < a) if lower else (b > a) for a, b in zip(va, vb))
        losses = sum((b > a) if lower else (b < a) for a, b in zip(va, vb))
        qa, qb, qr = quartiles(va), quartiles(vb), quartiles(ratios)
        n = len(pairs)
        f = floor.get((w, metric))
        beyond_iqr = abs(qb[1] - qa[1]) > qa[2] - qa[0]
        beyond_floor = f is None or abs(qr[1] - 1) > f
        verdict = "-" if n >= 10 else "< 10 pairs"
        if n < 10:
            pass
        elif beyond_iqr and beyond_floor and 10 * wins >= 9 * n:
            verdict = "better"
        elif beyond_iqr and beyond_floor and 10 * losses >= 9 * n:
            verdict = "worse"
        print(f"| `{w}` | `{metric}` | {n} | {fmt(qa[1])} [{fmt(qa[0])}, {fmt(qa[2])}] | "
              f"{fmt(qb[1])} [{fmt(qb[0])}, {fmt(qb[2])}] | {qr[1]:.3f} | {wins}/{n} | "
              f"{'n/a' if f is None else f'{f:.3f}'} | {verdict} |")
        aa = abs(qr[1] - 1) + (qr[2] - qr[0]) / 2
        floor_rows.append(f"{w}\t{metric}\t{n}\t{qr[1]:.4f}\t{aa:.4f}")

print()
for note in notes:
    print(f"- {note}")
# The derived ratios of `perf-e2e run` (benchmark/src/report.rs), with
# this side's runs standing in for `run`'s repeats:
# eafe_vs_nfs_wall_ratio sums each workload's mean wall per search index
# over the indices both ran, search 0 included. eafe_vs_nfs_evals_ratio
# divides search 1's evaluations; `run` reads them from the traced run's
# `eafe.downstream_evals`, which is the first traced search's (search 1)
# and equal to its untraced run's, since the search fingerprint folds the
# count in and `run` fails a traced twin whose fingerprint differs.
# dist_vs_solo_wall_ratio needs `dist.solo_wall_s`, which only the
# searches' layer reports carry, not the contract line or stderr.
# Not in `run`: eafe_vs_nfs_panel_wall_ratio is the wall ratio over the
# panel searches alone (search 0, which the end-to-end metrics check but
# do not time, left out), and eafe_vs_nfs_computed_ratio divides the
# computed evaluations (`of which <m> computed`) summed over those same
# panel searches.
for side in ("A", "B"):
    s = per_side[side]
    out = []
    if "eafe_table" in s and "nfs_table" in s:
        (ew, ee, ec), (nw, ne, nc) = s["eafe_table"], s["nfs_table"]
        common = [k for k in ew if k in nw]
        panel = [k for k in common if k != "0"]
        if common:
            out.append("eafe_vs_nfs_wall_ratio "
                       f"{sum(nw[k] for k in common) / sum(ew[k] for k in common):.2f}")
        if "1" in ee and "1" in ne:
            out.append(f"eafe_vs_nfs_evals_ratio {ne['1'] / ee['1']:.2f}")
        if panel:
            out.append("eafe_vs_nfs_panel_wall_ratio "
                       f"{sum(nw[k] for k in panel) / sum(ew[k] for k in panel):.2f}")
            eafe_computed = sum(ec[k] for k in panel)
            if eafe_computed:
                out.append("eafe_vs_nfs_computed_ratio "
                           f"{sum(nc[k] for k in panel) / eafe_computed:.2f}")
    if out:
        print(f"- derived, {side} ({meta[side.lower()]}): " + ", ".join(out)
              + "; dist_vs_solo_wall_ratio needs `perf-e2e run`")

if meta["mode"] == "aa":
    with open(os.path.join(run_dir, "aa_floor.tsv"), "w") as out:
        out.write("\n".join(floor_rows) + "\n")
PY
}

[[ ${#args[@]} -ge 1 ]] || { sed -n '2,19p' "$0" >&2; exit 2; }
rev="$(git rev-parse --short "${args[0]}^{commit}")"
pairs="${args[1]:-10}"
workloads="${args[2]:-$workloads_all}"

# <rev>'s perf-e2e, built from an exported tree under target/pairs/<dir>.
build_rev() { # <dir name>
    local src="$repo/target/pairs/$1"
    if [[ ! -x "$src/benchmark/target/release/perf-e2e" ]]; then
        rm -rf "$src"
        mkdir -p "$src"
        git archive "$rev" | tar -x -C "$src"
        cargo build --release --offline --quiet --manifest-path "$src/benchmark/Cargo.toml" >&2
    fi
    echo "$src/benchmark/target/release/perf-e2e"
}

if [[ "$mode" == aa ]]; then
    bin_a="$(build_rev "$rev")"
    bin_b="$(build_rev "$rev-2")"
    name_b="$rev (second build)"
else
    bin_a="$(build_rev "$rev")"
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
    bin_b="$repo/benchmark/target/release/perf-e2e"
    name_b="working tree ($(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + changes'))"
fi

run_dir="$repo/target/pairs/runs/$(date -u +%Y%m%dT%H%M%S)-$mode"
mkdir -p "$run_dir"
printf '%s\n' "mode=$mode" "a=$rev" "b=$name_b" "seed=${seed:-perf-e2e default}" \
    "pairs=$pairs" "workloads=$workloads" > "$run_dir/meta"
echo "pairs.sh: writing runs to $run_dir" >&2

one() { # <side> <binary> <workload> <pair>
    "$2" --workload "$3" ${seed:+--seed "$seed"} --trace 0 \
        > "$run_dir/$3.$4.$1.out" 2> "$run_dir/$3.$4.$1.err" \
        || echo "pairs.sh: $3 pair $4 side $1 exited $?" >&2
}

IFS=, read -r -a list <<< "$workloads"
for ((pair = 1; pair <= pairs; pair++)); do
    for w in "${list[@]}"; do
        if ((pair % 2)); then
            one A "$bin_a" "$w" "$pair"
            one B "$bin_b" "$w" "$pair"
        else
            one B "$bin_b" "$w" "$pair"
            one A "$bin_a" "$w" "$pair"
        fi
    done
    echo "pairs.sh: pair $pair/$pairs done" >&2
done

report "$run_dir" | tee "$run_dir/table.md"
if [[ "$mode" == aa ]]; then
    # Keep the other workloads' rows; replace the ones this run measured.
    floor="scripts/aa_floor.tsv"
    {
        echo "# A/A floor per (workload, metric): two builds of one revision,"
        echo "# alternated pairs of perf-e2e (scripts/pairs.sh --aa)."
        echo "# floor = |median pair ratio - 1| + half the pair ratios' IQR."
        echo "# workload	metric	pairs	median_ratio	floor"
        {
            if [[ -f "$floor" ]]; then
                awk -F'\t' -v ran=",$workloads," '!/^#/ && index(ran, "," $1 ",") == 0' "$floor"
            fi
            cat "$run_dir/aa_floor.tsv"
        } | sort
    } > "$floor.new"
    mv "$floor.new" "$floor"
    echo "pairs.sh: wrote $floor" >&2
fi
