#!/usr/bin/env bash
# First-party Rust line counts per crate, so simplification PRs (ROADMAP
# aim 2) are sized by one counter. A file under src/ counts as non-test
# up to its first `#[cfg(test)]` line and as test from there on — all of
# it when its first line is `#![cfg(test)]` (a test oracle in a file of
# its own); files under tests/, benches/ and examples/ count as test.
# Blank lines and comments are lines. The `pub` column counts the
# non-test lines that open a public item — `pub fn|struct|enum|trait|
# type|const|static|mod|use` after indentation (`pub(crate)` is not
# public) — the size of a crate's surface. vendor/ is not first-party:
# its stand-ins are summed on a `vendor` row below the total, so code
# moved into them shows up and is not counted as a reduction. target/ is
# not counted.
#
#   scripts/loc.sh [repo-root]      # default: this checkout
#   scripts/loc.sh --against <rev>  # this checkout's non-test and pub
#                                   # counts beside <rev>'s, per row
#
# `--against` exports <rev> with `git archive` into a temporary directory
# (removed on exit), counts both trees with this script's rules and prints
# one row per crate, total and vendor: the working tree's count, <rev>'s
# and the difference, for the non-test and the pub columns.
set -euo pipefail
if [[ "${1:-}" == "--against" ]]; then
    rev="${2:?usage: scripts/loc.sh --against <rev>}"
    here="$(cd "$(dirname "$0")/.." && pwd)"
    base="$(mktemp -d)"
    trap 'rm -rf "$base"' EXIT
    git -C "$here" archive "$rev" | tar -x -C "$base"
    "$here/scripts/loc.sh" "$base" > "$base.before"
    "$here/scripts/loc.sh" "$here" | awk -v rev="$rev" '
        NR == FNR { code[$1] = $2; pub[$1] = $5; next }
        FNR == 1 {
            printf "%-12s %8s %8s %8s %8s %8s %8s\n", "crate", "non-test", rev, "delta", "pub", rev, "delta"
            next
        }
        { printf "%-12s %8d %8d %+8d %8d %8d %+8d\n", $1, $2, code[$1], $2 - code[$1], $5, pub[$1], $5 - pub[$1] }
    ' "$base.before" -
    rm -f "$base.before"
    exit 0
fi
root="${1:-$(dirname "$0")/..}"
cd "$root"

count() { # <crate name> <crate dir>
    local dirs=()
    for d in src tests benches examples; do
        if [[ -d "$2/$d" ]]; then dirs+=("$2/$d"); fi
    done
    find "${dirs[@]}" -name '*.rs' | sort | xargs -r awk -v crate="$1" -v src="$2/src/" '
        FNR == 1 { in_test = (index(FILENAME, src) != 1) || /^#!\[cfg\(test\)\]/ }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        { if (in_test) test++; else code++ }
        !in_test && /^[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod|use)[[:space:]]/ { pub++ }
        END { printf "%-12s %8d %8d %8d %8d\n", crate, code, test, code + test, pub }'
}

printf "%-12s %8s %8s %8s %8s\n" crate non-test test total pub
{
    for dir in crates/*/; do
        count "$(basename "$dir")" "${dir%/}"
    done
    count e-afe .
    count benchmark benchmark
} | awk '{ print; code += $2; test += $3; pub += $5 }
    END { printf "%-12s %8d %8d %8d %8d\n", "total", code, test, code + test, pub }'
for dir in vendor/*/; do
    count "$(basename "$dir")" "${dir%/}"
done | awk '{ code += $2; test += $3; pub += $5 }
    END { printf "%-12s %8d %8d %8d %8d\n", "vendor", code, test, code + test, pub }'
