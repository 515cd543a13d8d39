#!/usr/bin/env bash
# The one command: builds the benchmark from source, then runs it.
#
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--json PATH]   # every workload
#
# Each workload runs in its own process, so that peak_rss_mb is the
# workload's own high-water mark. Run from the root of the repository.
set -euo pipefail

here="$(dirname "$0")"
# Build output and the stores of a run live in the repository's target
# directory unless the caller points somewhere else.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/trex-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done
status=0
for workload in $("$bin" list); do
    "$bin" --workload "$workload" "$@" || status=$?
done
exit "$status"
