#!/usr/bin/env bash
# benchmark/compare.sh a.json b.json: holds two sets of runs (written with
# run.sh --json) against the bounds of BENCHMARK.json and prints one row per
# (workload, end-to-end metric): unchanged, better, worse or unresolved.
# Exits 1 when any row is worse. Run from the root of the repository.
set -euo pipefail

here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/trex-benchmark" compare "$@" "$here/../BENCHMARK.json"
