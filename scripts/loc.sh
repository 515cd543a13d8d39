#!/usr/bin/env bash
# Non-test source size: the non-blank lines of every `crates/*/src/**/*.rs`
# file up to its first column-0 `#[cfg(test)]` (the unit-test module, when
# the file has one), per crate and in total. Integration tests, examples,
# benches and `benchmark/` are not counted.
#
#   bash scripts/loc.sh            # from anywhere; measures this checkout
#   bash scripts/loc.sh <dir>      # measures another checkout's root
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

total=0
for crate in crates/*/; do
    crate="${crate%/}"
    [ -d "$crate/src" ] || continue
    lines=$(find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk 'FNR == 1 { counting = 1 }
            /^#\[cfg\(test\)\]/ { counting = 0 }
            counting && NF > 0 { n++ }
            END { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }')
    printf '%-8s %6d\n' "${crate#crates/}" "$lines"
    total=$((total + lines))
done
printf '%-8s %6d\n' total "$total"
