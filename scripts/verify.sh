#!/usr/bin/env bash
# Full verification gate: formatting, release build, the whole test suite,
# workspace-wide clippy with warnings denied, rustdoc with warnings denied
# (so no intra-doc link to a renamed or deleted item survives), and
# release-mode runs of the suites that need optimised codegen (concurrency
# stress, crash-recovery matrix, online self-management storm, HTTP
# serving, partition determinism, tracing/health/advisor journal,
# block-codec property tests), the paper's §4 TA-vs-Merge and advisor
# experiments on a small corpus, which must exit 0 so the `experiments`
# binary cannot rot unseen, and the self-managing example, which asserts
# that the advisor keeps list bytes within every budget it sweeps. Last, the
# macro-benchmark (benchmark/, a cargo package of its own that
# tier-1 never builds) is held to the current API: its unit tests run, then
# each of its six workloads runs briefly and must report correct answers —
# every timed op checked against forced-ERA truth. Each runs for the
# shortest whole-second window in which it reports correct on a 2-core
# machine: one second, except two workloads whose own gates need more.
# ingest_mixed wants two folds of 200 documents: its ingest rate varies
# enough there that two seconds fit one fold and three or four seconds
# only sometimes fit two; five seconds fit two in every run measured.
# selfmanage_shift wants at least one reconcile cycle, which runs after
# 100 ops of a phase (half the window): at one second a phase sometimes
# ends first ("no reconcile cycle ran"), at two seconds it still did in
# 1 of 15 runs, and three seconds ran a cycle in every run measured.
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

echo "== RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

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

echo "== experiments race (paper §4, small corpus) =="
cargo run --release -p trex-bench --bin experiments -- race --ieee 150 --wiki 150 --runs 1

echo "== experiments advisor (paper §4, small corpus) =="
cargo run --release -p trex-bench --bin experiments -- advisor --ieee 150 --wiki 150 --runs 1

echo "== example self_managing (list bytes within every budget) =="
cargo run --release -p trex --example self_managing

echo "== macro-benchmark unit tests =="
CARGO_TARGET_DIR=target cargo test --release --offline --manifest-path benchmark/Cargo.toml

for run in "hot_topk 1" "cold_era 1" "http_zipf 1" "ingest_mixed 5" "partition_scatter 1" \
    "selfmanage_shift 3"; do
    read -r workload seconds <<<"$run"
    echo "== benchmark/run.sh --workload $workload --seconds $seconds =="
    bash benchmark/run.sh --workload "$workload" --seconds "$seconds" | tail -n 1 | grep -q '"correct": *true'
done

echo "verify: OK"
