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
set -euo pipefail
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
