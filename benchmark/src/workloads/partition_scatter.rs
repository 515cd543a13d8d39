//! `partition_scatter`: `hot_topk`'s corpus, queries and lists, split over 4
//! partitions; one client thread, closed loop, `search_with` over `Q` (the
//! scatter spawns its own 4 workers on the 2 cores).
//!
//! Same queries and same answers as `hot_topk` — byte for byte, checked — so
//! the ratio between the two workloads' p50 is what the scatter costs, and
//! `core::partition` (scatter, `merge_topk`) is the only added layer. A
//! result waits for the slowest of the four parts: the slowest part, not the
//! sum, bounds what a per-part speed-up can give.

use std::time::Instant;

use trex::{
    merge_topk, Answer, EvalOptions, PartitionedTrexSystem, QueryEngine, Strategy, TrexConfig,
};

use super::single_store::LayerSums;
use super::{
    add_window, build_path_metrics, build_single, closed_loop, era_truth, finish_trace, list_bytes,
    materialize_all, repeat_setup, set_common, Run,
};
use crate::inputs::{self, Query, DOCS};
use crate::metrics::Outcome;
use crate::spans::Tracer;
use crate::stats::{nanos, Chunked, Samples};

const PARTITIONS: usize = 4;

/// Passes over `Q` in the traced run, untraced then traced.
const TRACE_PASSES: usize = 3;

struct Ready {
    system: PartitionedTrexSystem,
    doc_bytes: u64,
    build_s: f64,
}

fn scatter(system: &PartitionedTrexSystem, query: &Query) -> Result<Vec<Answer>, String> {
    system
        .search_with(&query.nexi, Some(query.k), Strategy::Auto)
        .map(|r| r.answers)
        .map_err(|e| e.to_string())
}

pub fn run(run: &Run) -> Outcome {
    let q = inputs::query_pool();
    let ops = inputs::shuffled_ops(run.seed, q.len());

    // Ground truth is a single store's ERA over the same corpus — what
    // `hot_topk` is held to — built beside the run's directory, which every
    // set-up empties. Every op, timed or traced, is held to it.
    let mut single_dir = run.dir.clone().into_os_string();
    single_dir.push("-single");
    let single_dir = std::path::PathBuf::from(single_dir);
    let _ = std::fs::remove_dir_all(&single_dir);
    std::fs::create_dir_all(&single_dir).expect("create the single-store directory");
    let single = build_single(&single_dir.join("store.trex"), DOCS, |_| {});
    let truth = era_truth(&single.system, &q);

    let mut timed = None;
    let setup = || {
        let mut doc_bytes = 0u64;
        let corpus = inputs::corpus(DOCS);
        let started = Instant::now();
        let system = PartitionedTrexSystem::build(
            TrexConfig::new(run.store_path()),
            PARTITIONS,
            corpus.documents().inspect(|d| doc_bytes += d.len() as u64),
        )
        .expect("build the partitioned store");
        let build_s = started.elapsed().as_secs_f64();
        for part in system.system().parts() {
            materialize_all(part.index(), &q);
        }
        for &i in &ops {
            scatter(&system, &q[i]).expect("warm-up query");
        }
        Ready {
            system,
            doc_bytes,
            build_s,
        }
    };
    let (ready, setup_s) = repeat_setup(run, setup, |ready, seconds| {
        if !run.trace {
            let window = closed_loop(seconds, &ops, &truth, |i| scatter(&ready.system, &q[i]));
            add_window(&mut timed, window);
        }
    });
    let mut out = Outcome::default();
    match timed {
        Some(timed) => out.set_query_metrics(timed),
        None => traced(run, &ready, &single.system, &q, &ops, &truth, &mut out),
    }
    // The single store is the yardstick, not the store under test.
    drop(single);
    let _ = std::fs::remove_dir_all(&single_dir);
    set_common(&mut out, run, setup_s, ready.doc_bytes);
    out
}

fn traced(
    run: &Run,
    ready: &Ready,
    single: &trex::TrexSystem,
    q: &[Query],
    ops: &[usize],
    truth: &[Vec<Answer>],
    out: &mut Outcome,
) {
    let parts = ready.system.system().parts();

    // The scatter as the client sees it.
    let mut scattered = Chunked::start();
    for _ in 0..TRACE_PASSES {
        for &i in ops {
            let op_started = Instant::now();
            let answers = scatter(&ready.system, &q[i]);
            let elapsed = nanos(op_started.elapsed());
            scattered.record(answers.is_ok_and(|a| a == truth[i]).then_some(elapsed));
        }
    }
    let scatter_p50_us = scattered.all().p50_us();
    let scatter_n = scattered.all().len() as u64;
    out.set_query_metrics(scattered);

    // The scatter taken apart: each part's engine alone, one after another,
    // then `merge_topk` over the streams they returned.
    let mut tracer = Tracer::new(Instant::now());
    let mut sums = LayerSums::default();
    let (mut slowest, mut sum, mut merge) = (Samples::new(), Samples::new(), Samples::new());
    let mut request = 0u64;
    for _ in 0..TRACE_PASSES {
        for &i in ops {
            request += 1;
            let root = tracer.request(request);
            let opts = EvalOptions::new().k(q[i].k).trace(true);
            let mut streams = Vec::with_capacity(parts.len());
            let (mut worst, mut total) = (0u64, 0u64);
            for part in parts {
                let span = tracer.enter("partition.part");
                let part_started = Instant::now();
                let result = QueryEngine::new(part.index()).evaluate(&q[i].nexi, opts);
                let ns = nanos(part_started.elapsed());
                tracer.exit(span);
                worst = worst.max(ns);
                total += ns;
                if let Ok(r) = result {
                    sums.add_run(&r);
                    streams.push(r.answers);
                }
            }
            let span = tracer.enter("partition.merge_topk");
            let merge_started = Instant::now();
            let merged = merge_topk(&streams, Some(q[i].k));
            merge.push_elapsed(merge_started);
            tracer.exit(span);
            tracer.exit(root);
            sums.queries += 1;
            sums.answers += merged.len() as u64;
            slowest.push(worst);
            sum.push(total);
            out.check(merged == truth[i], || {
                format!("traced pass: merged parts differ for {}", q[i].nexi)
            });
        }
    }
    sums.report(out);
    out.set_n(
        "partition.slowest_part_us_p50",
        slowest.p50_us(),
        slowest.len() as u64,
    );
    out.set_n("partition.sum_parts_us_p50", sum.p50_us(), sum.len() as u64);
    out.set_n(
        "partition.merge_topk_us_p50",
        merge.p50_us(),
        merge.len() as u64,
    );

    // `hot_topk` on the yardstick store, for the two ratios that say what
    // partitioning costs in time and in entries decoded.
    materialize_all(single.index(), q);
    let engine = QueryEngine::new(single.index());
    let mut single_latency = Samples::new();
    let mut single_sums = LayerSums::default();
    for pass in 0..=TRACE_PASSES {
        for &i in ops {
            let opts = EvalOptions::new().k(q[i].k);
            if pass == 0 {
                if let Ok(r) = engine.evaluate(&q[i].nexi, opts.trace(true)) {
                    single_sums.add(&r);
                }
            } else {
                let op_started = Instant::now();
                let _ = std::hint::black_box(engine.evaluate(&q[i].nexi, opts));
                single_latency.push_elapsed(op_started);
            }
        }
    }
    out.set_n(
        "partition.scatter_overhead_ratio",
        scatter_p50_us / single_latency.p50_us().max(f64::MIN_POSITIVE),
        scatter_n,
    );
    out.set(
        "partition.entries_decoded_vs_single",
        sums.entries_decoded() as f64
            / (TRACE_PASSES as u64 * single_sums.entries_decoded()).max(1) as f64,
    );
    let lists: u64 = parts.iter().map(|p| list_bytes(p.index())).sum();
    out.set("index.list_bytes", lists as f64);
    build_path_metrics(out, DOCS as f64 / ready.build_s);
    // The traced pass runs the parts one after another where the scatter runs
    // them side by side, so its throughput says nothing about span overhead.
    finish_trace(out, run, &tracer);
}
