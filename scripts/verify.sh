#!/usr/bin/env bash
# Full verification gate: formatting, release build, the whole test suite,
# workspace-wide clippy with warnings denied, release-mode runs of the
# concurrency stress test, the crash-recovery matrix and the online
# self-management storm (races and crash sweeps need optimised codegen),
# the HTTP serving end-to-end suite, the block-codec property tests in
# release, and the bench exports
# (BENCH_wal.json, BENCH_selfmanage.json, BENCH_obs.json — which asserts
# the always-on telemetry overhead — BENCH_serve.json — which asserts
# cache-on p50 below cache-off and shedding under overload —
# BENCH_blocks.json — which asserts the ≥2× byte reduction of the block
# list layout with byte-identical answers across strategies —
# BENCH_ingest.json — which asserts a fold drains the delta with
# byte-identical answers — BENCH_partition.json — which asserts
# byte-identical answers at 1/2/4 partitions with exact per-partition
# decode accounting, plus the ≥2× 4-partition speedup on ≥4-core hosts —
# and BENCH_drift.json — which asserts the cost-model drift monitor costs
# ≤5% at the production sampling rate, Merge predictions converge to ~0
# relative error, and TA stays within TA_PREDICTION_FACTOR).
# The release-mode partition determinism storm (paper queries, crafted
# k-boundary score ties, concurrent ingest + reconcile) runs with the
# other release suites, as does the tracing/health/advisor-journal
# observability suite. The macro-benchmark (benchmark/, a cargo package of
# its own that tier-1 never builds) is held to the current API: its unit
# tests run, then the three workloads that cross the serving, ingest and
# scatter paths run briefly and must report correct answers (one second
# each, except ingest_mixed: its own gate wants two folds of 200 documents,
# which at ~150 acks/s takes four).
# check_bench_headers.sh closes the run by asserting every BENCH_*.json
# export shares one schema_version.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test --release --test concurrency =="
cargo test --release -p trex --test concurrency

echo "== cargo test --release --test crash_recovery =="
cargo test --release -p trex --test crash_recovery

echo "== cargo test --release --test self_managing_online =="
cargo test --release -p trex --test self_managing_online

echo "== cargo test --release --test http_serve =="
cargo test --release -p trex --test http_serve

echo "== cargo test --release --test partition =="
cargo test --release -p trex --test partition

echo "== cargo test --release --test tracing_observability =="
cargo test --release -p trex --test tracing_observability

echo "== cargo test --release --test blocks_roundtrip =="
cargo test --release -p trex-index --test blocks_roundtrip

echo "== macro-benchmark unit tests =="
CARGO_TARGET_DIR=target cargo test --release --offline --manifest-path benchmark/Cargo.toml

for run in "http_zipf 1" "ingest_mixed 4" "partition_scatter 1"; do
    read -r workload seconds <<<"$run"
    echo "== benchmark/run.sh --workload $workload --seconds $seconds =="
    bash benchmark/run.sh --workload "$workload" --seconds "$seconds" | tail -n 1 | grep -q '"correct": *true'
done

echo "== cargo bench --bench storage (exports BENCH_wal.json) =="
cargo bench -p trex-bench --bench storage

echo "== cargo bench --bench selfmanage (exports BENCH_selfmanage.json) =="
cargo bench -p trex-bench --bench selfmanage

echo "== cargo bench --bench obs (exports BENCH_obs.json) =="
cargo bench -p trex-bench --bench obs

echo "== cargo bench --bench serve (exports BENCH_serve.json) =="
cargo bench -p trex-bench --bench serve

echo "== cargo bench --bench blocks (exports BENCH_blocks.json) =="
cargo bench -p trex-bench --bench blocks

echo "== cargo bench --bench ingest (exports BENCH_ingest.json) =="
cargo bench -p trex-bench --bench ingest

echo "== cargo bench --bench partition (exports BENCH_partition.json) =="
cargo bench -p trex-bench --bench partition

echo "== cargo bench --bench drift (exports BENCH_drift.json) =="
cargo bench -p trex-bench --bench drift

echo "== check_bench_headers.sh =="
bash scripts/check_bench_headers.sh

echo "verify: OK"
