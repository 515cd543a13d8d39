//! Integration tests of the query-trace observability layer: traces are
//! attached on demand and reflect real work, the measured access counts
//! validate against the §4 cost-model predictions, the counters stay
//! exact under concurrent querying, and each query's span tree comes from
//! the same clock as its stage timings.

use std::time::Duration;

use trex::corpus::{CorpusConfig, IeeeGenerator};
use trex::obs::{parse_json, DriftKind, JsonValue, TraceContext, TraceNode, DRIFT_KINDS};
use trex::{
    EvalOptions, ListKind, Strategy, StrategyMetrics, ToJson, TrexConfig, TrexSystem,
    TA_PREDICTION_FACTOR,
};

#[path = "support/span_tree.rs"]
mod span_tree;

/// Walks `tree` with the shared span-tree checker; returns the names.
fn check_tree(tree: &TraceNode) -> Vec<String> {
    span_tree::check_span_tree(&parse_json(&tree.to_json()).expect("tree JSON parses"))
}

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("trex-obs-{name}-{}.db", std::process::id()))
}

fn small_ieee(docs: usize) -> impl Iterator<Item = String> {
    let gen = IeeeGenerator::new(CorpusConfig {
        docs,
        ..CorpusConfig::ieee_default()
    });
    (0..docs).map(move |i| gen.document(i))
}

const QUERY: &str = "//article//sec[about(., xml query evaluation)]";

#[test]
fn trace_is_attached_only_on_request() {
    let store = temp("toggle");
    let system = TrexSystem::build(TrexConfig::new(&store), small_ieee(50)).unwrap();

    let plain = system.search(QUERY, Some(10)).unwrap();
    assert!(plain.trace.is_none(), "no trace unless requested");

    let traced = system
        .system()
        .evaluate(QUERY, EvalOptions::new().k(10).trace(true))
        .unwrap();
    let trace = traced.trace.expect("trace requested");
    assert_eq!(trace.strategy, "era", "no redundant lists yet");
    assert!(trace.storage.cursor_steps > 0, "ERA walks B+tree cursors");
    assert!(trace.storage.btree_node_visits > 0);
    assert!(trace.index.posting_entries > 0, "ERA decodes postings");
    assert_eq!(trace.index.rpl_entries, 0, "no RPLs were read");
    assert!(trace.cost.sorted_accesses > 0);
    assert_eq!(plain.answers.len(), traced.answers.len());

    // The trace renders as one JSON object with every section present.
    let json = trace.to_json();
    for section in ["\"stages\":", "\"storage\":", "\"index\":", "\"cost\":"] {
        assert!(json.contains(section), "{json}");
    }
    std::fs::remove_file(&store).ok();
}

#[test]
fn strategies_report_their_own_cost_units() {
    let store = temp("units");
    let system = TrexSystem::build(TrexConfig::new(&store), small_ieee(50)).unwrap();
    system.materialize_for(QUERY, ListKind::Both).unwrap();
    let engine = system.engine();

    let ta = engine
        .evaluate(
            QUERY,
            EvalOptions::new().k(5).strategy(Strategy::Ta).trace(true),
        )
        .unwrap();
    let ta_trace = ta.trace.unwrap();
    assert_eq!(ta_trace.strategy, "ta");
    assert!(ta_trace.index.rpl_entries > 0, "TA reads RPLs");
    assert_eq!(
        ta_trace.cost.sorted_accesses, ta_trace.index.rpl_entries,
        "TA sorted accesses are exactly the RPL entries decoded"
    );
    assert_eq!(
        ta_trace.cost.random_accesses, 0,
        "TA never does random access"
    );
    assert!(ta_trace.cost.heap_pushes > 0);

    let merge = engine
        .evaluate(
            QUERY,
            EvalOptions::new()
                .k(5)
                .strategy(Strategy::Merge)
                .trace(true),
        )
        .unwrap();
    let merge_trace = merge.trace.unwrap();
    assert_eq!(merge_trace.strategy, "merge");
    assert_eq!(
        merge_trace.cost.sorted_accesses, merge_trace.index.erpl_entries,
        "Merge sorted accesses are exactly the ERPL entries decoded"
    );

    // The StrategyMetrics trait exposes the same numbers uniformly.
    assert_eq!(ta.stats.accesses().0, ta_trace.cost.sorted_accesses);
    assert_eq!(
        merge.stats.accesses(),
        (merge_trace.cost.sorted_accesses, 0)
    );
    assert!(StrategyMetrics::wall(&ta.stats) > std::time::Duration::ZERO);
    std::fs::remove_file(&store).ok();
}

#[test]
fn measured_accesses_validate_against_cost_model() {
    let store = temp("costmodel");
    let system = TrexSystem::build(TrexConfig::new(&store), small_ieee(80)).unwrap();
    system.materialize_for(QUERY, ListKind::Both).unwrap();

    // Every traced TA or Merge query feeds the drift monitor the §4
    // predictions beside the accesses the query measured.
    for strategy in [Strategy::Merge, Strategy::Ta] {
        let opts = EvalOptions::new().k(5).strategy(strategy).trace(true);
        system.system().evaluate(QUERY, opts).unwrap();
    }
    let drift = &system.index().telemetry().drift;
    for kind in DRIFT_KINDS {
        assert_eq!(
            drift.samples(kind),
            1,
            "{}: one traced query",
            kind.as_str()
        );
        let err = drift.ewma(kind);
        match kind {
            // Merge's predictions are exact: every ERPL entry is read once,
            // and therefore every block of every covered list is fetched once.
            DriftKind::MergeEntries | DriftKind::MergeBlocks => {
                assert_eq!(err, 0.0, "{}: relative error {err}", kind.as_str())
            }
            // TA's Fagin-style depth estimate holds within the documented
            // factor (see `TA_PREDICTION_FACTOR` for why it is loose); the
            // block estimate derives from the same depth so inherits it.
            DriftKind::TaEntries | DriftKind::TaBlocks => assert!(
                err.is_finite() && err < TA_PREDICTION_FACTOR,
                "{}: relative error {err} outside factor {TA_PREDICTION_FACTOR}",
                kind.as_str()
            ),
        }
    }
    std::fs::remove_file(&store).ok();
}

/// N threads hammer one shared `TrexSystem`; every thread must get the
/// serial answers, and the *index-layer* counter totals must equal N times
/// the serial delta (decode work is deterministic per query; storage-layer
/// hit/miss splits can legitimately vary with cache interleaving, so only
/// their sums-of-work invariants are checked loosely).
#[test]
fn concurrent_queries_match_serial_run_and_counters_add_up() {
    let store = temp("concurrent");
    let system = TrexSystem::build(TrexConfig::new(&store), small_ieee(60)).unwrap();
    system.materialize_for(QUERY, ListKind::Both).unwrap();

    // Serial baseline: answers + per-query index-counter delta.
    let traced = EvalOptions::new().k(10).trace(true);
    let serial = system.system().evaluate(QUERY, traced).unwrap();
    let serial_trace = serial.trace.clone().unwrap();
    assert!(serial_trace.entries_decoded() > 0);

    const THREADS: usize = 4;
    let before = system.index().counters().snapshot();
    let storage_before = system.index().store().counters().snapshot();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                let result = system.system().evaluate(QUERY, traced).unwrap();
                assert_eq!(result.answers.len(), serial.answers.len());
                for (a, b) in result.answers.iter().zip(&serial.answers) {
                    assert_eq!(a.element, b.element);
                    assert_eq!(a.score, b.score);
                }
            });
        }
    });
    let delta = system.index().counters().snapshot().delta(&before);
    let storage_delta = system
        .index()
        .store()
        .counters()
        .snapshot()
        .delta(&storage_before);

    for (name, total, per_query) in [
        (
            "posting_entries",
            delta.posting_entries,
            serial_trace.index.posting_entries,
        ),
        (
            "rpl_entries",
            delta.rpl_entries,
            serial_trace.index.rpl_entries,
        ),
        (
            "erpl_entries",
            delta.erpl_entries,
            serial_trace.index.erpl_entries,
        ),
        ("rpl_bytes", delta.rpl_bytes, serial_trace.index.rpl_bytes),
    ] {
        assert_eq!(
            total,
            per_query * THREADS as u64,
            "{name}: concurrent total must be {THREADS}x the serial delta"
        );
    }
    // Storage work happened and no lookup was lost: hits + misses together
    // cover every fetch the four runs performed.
    assert!(storage_delta.pool_hits + storage_delta.pool_misses > 0);
    assert_eq!(
        storage_delta.cursor_steps,
        serial_trace.storage.cursor_steps * THREADS as u64,
        "cursor steps are deterministic per query"
    );

    // A batch split over scoped threads does the same work at every thread
    // count: identical total pool fetches, and per-shard deltas that sum
    // exactly to the pool totals. Forced ERA, because the drift sampler
    // (Ta/Merge only) reads list stats on whichever queries its round-robin
    // lands on.
    let batch: Vec<&str> = trex::corpus::PAPER_QUERIES
        .iter()
        .filter(|q| q.collection == trex::corpus::Collection::Ieee)
        .map(|q| q.nexi)
        .chain([QUERY])
        .cycle()
        .take(24)
        .collect();
    let era = EvalOptions::new().k(10).strategy(Strategy::Era);
    let pool = system.index().store().pool();
    let storage = system.index().store().counters();
    let run = |threads: usize| {
        let (before, shards_before) = (storage.snapshot(), pool.shard_counters());
        std::thread::scope(|s| {
            for chunk in batch.chunks(batch.len().div_ceil(threads)) {
                let system = system.system();
                s.spawn(move || {
                    for q in chunk {
                        system.evaluate(q, era).unwrap();
                    }
                });
            }
        });
        let delta = storage.snapshot().delta(&before);
        let shards = pool.shard_counters();
        let shard_deltas = shards.iter().zip(&shards_before).map(|(s, b)| s.delta(b));
        let (hits, misses) = shard_deltas.fold((0, 0), |(h, m), d| (h + d.hits, m + d.misses));
        assert_eq!((hits, misses), (delta.pool_hits, delta.pool_misses));
        delta.pool_hits + delta.pool_misses
    };
    run(1); // warm-up: every later pass does identical, read-only work
    let single = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            run(threads),
            single,
            "{threads} threads fetched differently"
        );
    }
    std::fs::remove_file(&store).ok();
}

#[test]
fn telemetry_histograms_spans_and_slow_log_populate_end_to_end() {
    let store = temp("telemetry");
    let system = TrexSystem::build(TrexConfig::new(&store), small_ieee(50)).unwrap();
    let telemetry = system.index().telemetry().clone();
    telemetry
        .slow
        .set_threshold(Some(std::time::Duration::ZERO));

    for _ in 0..3 {
        system.search(QUERY, Some(10)).unwrap();
    }

    // Every stage of the query path landed in its histogram.
    let query = telemetry.query.query.snapshot();
    assert_eq!(query.count(), 3);
    assert_eq!(telemetry.query.translate.snapshot().count(), 3);
    assert_eq!(telemetry.query.rank.snapshot().count(), 3);
    assert_eq!(telemetry.query.era_eval.snapshot().count(), 3);
    assert!(query.percentile(0.50) <= query.percentile(0.99));
    assert!(query.percentile(0.99) <= query.max_ns());
    assert!(query.sum_ns() > 0);

    // The storage layer timed its page reads, and the maintenance gate its
    // (uncontended) read acquisitions — one per query.
    assert!(system.index().store().timers().page_read.snapshot().count() > 0);
    assert!(telemetry.maint.read_gate_wait.snapshot().count() >= 3);

    // The slow log captured all three queries, each with a span tree that
    // nests and whose root is the query's end-to-end time.
    let entries = telemetry.slow.entries();
    assert_eq!(entries.len(), 3);
    for entry in &entries {
        assert_eq!(entry.query, QUERY);
        assert_eq!(entry.strategy, "era");
        assert_eq!(entry.trace.strategy, "era");
        assert_eq!(
            check_tree(&entry.tree),
            ["query", "translate", "gate_wait", "evaluate:era"]
        );
        assert_eq!(entry.tree.duration_us, entry.total.as_micros() as u64);
    }

    // One clock: a traced query's span tree reports exactly the stage
    // durations of its trace, in whole microseconds.
    let traced = system
        .engine()
        .evaluate(
            QUERY,
            EvalOptions::new()
                .k(10)
                .trace(true)
                .trace_context(TraceContext::root()),
        )
        .unwrap();
    let stages = traced.trace.expect("trace requested").stages;
    let tree = traced.trace_tree.expect("trace context set");
    assert_eq!(
        check_tree(&tree),
        ["query", "translate", "gate_wait", "evaluate:era"]
    );
    let span = |name: &str| tree.children.iter().find(|c| c.name == name).unwrap();
    assert_eq!(
        span("translate").duration_us,
        stages.translate.as_micros() as u64
    );
    assert_eq!(
        span("evaluate:era").duration_us,
        (stages.evaluate + stages.rank).as_micros() as u64
    );

    // A pre-translated query has no translate span.
    let translation = system
        .engine()
        .translate(QUERY, Default::default())
        .unwrap();
    let pre = system
        .engine()
        .evaluate_translated(
            translation,
            EvalOptions::new().k(10).trace_context(TraceContext::root()),
        )
        .unwrap();
    assert_eq!(
        check_tree(&pre.trace_tree.expect("trace context set")),
        ["query", "gate_wait", "evaluate:era"]
    );

    std::fs::remove_file(&store).ok();
}

#[test]
fn query_stalled_at_the_maintenance_gate_is_slow_logged() {
    // A write section (a fold or reconcile) holds the gate for 60 ms while
    // a query arrives: the wait is part of the query's end-to-end time, so
    // a 30 ms threshold catches it and the histogram sees it.
    let store = temp("gate-stall");
    let system = TrexSystem::build(TrexConfig::new(&store), small_ieee(50)).unwrap();
    let telemetry = system.index().telemetry().clone();
    telemetry
        .slow
        .set_threshold(Some(Duration::from_millis(30)));
    let maintenance = system.index().maintenance();
    let (held, writer_holds) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let _write = maintenance.enter_write();
            held.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(60));
        });
        writer_holds.recv().unwrap();
        system.search(QUERY, Some(10)).unwrap();
    });

    let entries = telemetry.slow.entries();
    assert_eq!(entries.len(), 1, "the stalled query is slow-logged");
    check_tree(&entries[0].tree);
    let gate_wait = entries[0]
        .tree
        .children
        .iter()
        .find(|c| c.name == "gate_wait")
        .expect("gate_wait span");
    assert!(
        gate_wait.duration_us >= 40_000,
        "gate_wait {} µs",
        gate_wait.duration_us
    );
    assert!(telemetry.query.query.snapshot().max_ns() >= 40_000_000);
    std::fs::remove_file(&store).ok();
}

#[test]
fn partitioned_slow_log_serves_every_partition() {
    let store = temp("slow-parts");
    let system = TrexSystem::build_partitioned(TrexConfig::new(&store), 3, small_ieee(30)).unwrap();
    for part in system.system().parts() {
        let slow = &part.index().telemetry().slow;
        slow.set_threshold(Some(Duration::ZERO));
    }
    system.search(QUERY, Some(10)).unwrap();

    let slow = parse_json(&system.metrics().render_slow_json()).expect("slow log parses");
    let Some(JsonValue::Array(entries)) = slow.get("entries") else {
        panic!("entries is not an array");
    };
    let mut partitions: Vec<&str> = entries
        .iter()
        .map(|e| {
            span_tree::check_span_tree(e.get("tree").expect("span tree"));
            e.get("partition")
                .and_then(JsonValue::as_str)
                .expect("label")
        })
        .collect();
    partitions.sort_unstable();
    assert_eq!(partitions, ["0", "1", "2"]);
    for i in 0..3 {
        let part = trex::partition_store_path(&store, i);
        std::fs::remove_file(trex::storage::wal_path(&part)).ok();
        std::fs::remove_file(part).ok();
    }
}
