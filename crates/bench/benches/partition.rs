//! Partition scaling sweep: the IEEE paper-query batch evaluated over
//! 1 / 2 / 4 partition stores at 1 / 4 / 8 worker threads, against the
//! single-store system as the baseline. Writes `BENCH_partition.json`.
//!
//! Three properties are checked on every run, at every partition count:
//!
//! 1. **Byte identity** — every query's answer list equals the
//!    single-store baseline's exactly (same docs, same spans, same f32
//!    scores, same order).
//! 2. **Exact decode accounting** — under ERA each posting is decoded
//!    once, in exactly one partition, so per-partition `posting_entries`
//!    totals must sum to the baseline's total. (Page fetches are recorded
//!    per partition but not asserted equal: differently-packed B+trees
//!    fetch different page counts for identical decoded work.)
//! 3. **Throughput** — the ≥2× speedup target at 4 partitions is asserted
//!    only when the host has ≥4 cores to scale onto; measured speedups are
//!    always exported.

use std::time::{Duration, Instant};

use trex::corpus::{Collection, PAPER_QUERIES};
use trex::{Answer, EvalOptions, Strategy};
use trex_bench::{bench_header, build_collection, build_partitioned_collection, store_dir, Scale};

const BATCH: usize = 48;
const ITERS: usize = 3;

fn main() {
    let docs = Scale::small().ieee_docs;
    let single = build_collection(Collection::Ieee, docs, true);
    let queries: Vec<&str> = PAPER_QUERIES
        .iter()
        .filter(|q| q.collection == Collection::Ieee)
        .map(|q| q.nexi)
        .collect();
    let batch: Vec<&str> = queries.iter().cycle().take(BATCH).copied().collect();
    // ERA everywhere: deterministic exhaustive decodes give the exact
    // accounting invariant, and need no materialized redundant lists.
    let opts = EvalOptions::new().k(10).strategy(Strategy::Era);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Single-store baseline: answers for identity, posting decodes for
    // accounting, serial wall clock for speedups.
    let engine = single.engine();
    let baseline: Vec<Vec<Answer>> = queries
        .iter()
        .map(|q| engine.evaluate(q, opts).expect("baseline query").answers)
        .collect();
    let index_counters = single.index().counters();
    let entries_before = index_counters.snapshot();
    let mut baseline_best = Duration::MAX;
    for _ in 0..ITERS {
        let start = Instant::now();
        for q in &batch {
            engine.evaluate(q, opts).expect("baseline batch query");
        }
        baseline_best = baseline_best.min(start.elapsed());
    }
    // One batch worth of decodes: the ITERS runs repeat identical work.
    let baseline_entries = index_counters
        .snapshot()
        .delta(&entries_before)
        .posting_entries
        / ITERS as u64;

    let mut out = format!(
        "{{{},\"batch\":{BATCH},\"iters\":{ITERS},\"cores\":{cores},\
         \"strategy\":\"era\",\"baseline_best_us\":{},\
         \"baseline_posting_entries\":{baseline_entries},\"sweep\":[",
        bench_header(docs, 8),
        baseline_best.as_micros()
    );
    let mut accounting = String::new();
    let mut first_row = true;

    for (pi, &partitions) in [1usize, 2, 4].iter().enumerate() {
        let parted = build_partitioned_collection(Collection::Ieee, docs, partitions, true);
        let system = parted.system();

        // 1. Byte identity against the single-store baseline.
        for (q, want) in queries.iter().zip(&baseline) {
            let got = system.evaluate(q, opts).expect("partitioned query");
            assert_eq!(
                want, &got.answers,
                "answers diverge from single-store baseline at {partitions} partitions: {q}"
            );
        }

        // 2. Exact decode accounting over one batch.
        let before: Vec<_> = system
            .parts()
            .iter()
            .map(|p| {
                (
                    p.index().store().counters().snapshot(),
                    p.index().counters().snapshot(),
                )
            })
            .collect();
        for q in &batch {
            system.evaluate(q, opts).expect("accounting query");
        }
        let mut entries_total = 0u64;
        let mut parts_json = String::new();
        for (i, (part, (sb, ib))) in system.parts().iter().zip(&before).enumerate() {
            let sd = part.index().store().counters().snapshot().delta(sb);
            let id = part.index().counters().snapshot().delta(ib);
            entries_total += id.posting_entries;
            if i > 0 {
                parts_json.push(',');
            }
            parts_json.push_str(&format!(
                "{{\"partition\":{i},\"page_fetches\":{},\"posting_entries\":{}}}",
                sd.pool_hits + sd.pool_misses,
                id.posting_entries
            ));
        }
        assert_eq!(
            entries_total, baseline_entries,
            "{partitions}-partition posting decodes must sum exactly to the baseline total"
        );
        if pi > 0 {
            accounting.push(',');
        }
        accounting.push_str(&format!(
            "{{\"partitions\":{partitions},\"posting_entries_total\":{entries_total},\
             \"per_partition\":[{parts_json}]}}"
        ));

        // 3. Throughput sweep: worker threads × this partition count.
        let mut best_speedup = 0.0f64;
        for &threads in &[1usize, 4, 8] {
            let mut best = Duration::MAX;
            for _ in 0..ITERS {
                let start = Instant::now();
                for r in system.evaluate_batch(&batch, opts, threads) {
                    r.expect("sweep query");
                }
                best = best.min(start.elapsed());
            }
            let qps = BATCH as f64 / best.as_secs_f64();
            let speedup = baseline_best.as_secs_f64() / best.as_secs_f64();
            best_speedup = best_speedup.max(speedup);
            if !first_row {
                out.push(',');
            }
            first_row = false;
            out.push_str(&format!(
                "{{\"partitions\":{partitions},\"threads\":{threads},\"best_us\":{},\
                 \"queries_per_sec\":{qps:.1},\"speedup\":{speedup:.3}}}",
                best.as_micros()
            ));
        }
        if partitions == 4 && cores >= 4 {
            assert!(
                best_speedup >= 2.0,
                "4-partition speedup {best_speedup:.2}x below the 2x target on {cores} cores"
            );
        }
    }

    out.push_str(&format!("],\"accounting\":[{accounting}]}}"));
    let path = store_dir().join("BENCH_partition.json");
    std::fs::write(&path, &out).expect("write BENCH_partition.json");
    eprintln!("wrote {}", path.display());
}
