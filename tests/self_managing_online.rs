//! Integration tests of the *online* self-managing layer: reconcile cycles
//! running concurrently with a multi-threaded query storm must never change
//! an answer, never surface a coverage error, and never exceed the budget.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use trex::corpus::{CorpusConfig, IeeeGenerator};
use trex::{
    reconcile_once, CostCache, EvalOptions, ProfilerConfig, QueryEngine, SelfManageOptions,
    StrategyStats, TrexConfig, TrexSystem, Workload, WorkloadProfiler,
};

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("trex-smo-{name}-{}.db", std::process::id()))
}

fn build(name: &str, docs: usize) -> (TrexSystem, std::path::PathBuf) {
    let store = temp(name);
    let system = TrexSystem::build(
        TrexConfig::new(&store),
        IeeeGenerator::new(CorpusConfig {
            docs,
            ..CorpusConfig::ieee_default()
        })
        .documents(),
    )
    .unwrap();
    (system, store)
}

const QUERIES: [&str; 4] = [
    "//article//sec[about(., xml query evaluation)]",
    "//sec[about(., code signing verification)]",
    "//article//sec[about(., model checking state space)]",
    "//article[about(., information retrieval ranking)]",
];

/// The tentpole guarantee: an 8-thread query storm runs while the
/// reconciler repeatedly re-plans under a *shifting* budget (generous →
/// tight → zero → generous). Every storm query must succeed and return
/// exactly the quiesced engine's answers — a query landing mid-reconcile
/// observes partial coverage and silently falls back to ERA, never errors —
/// and the registry must respect each cycle's budget.
#[test]
fn concurrent_storm_sees_quiesced_answers_while_budget_shifts() {
    let (system, store) = build("storm", 48);
    let k = Some(10);

    // Quiesced baseline, before any redundant list exists.
    let baseline: Vec<_> = QUERIES
        .iter()
        .map(|q| {
            system
                .engine()
                .evaluate(q, EvalOptions::new().k(k))
                .unwrap()
        })
        .collect();

    // Seed the profiler with a skewed stream so reconcile has a workload.
    let engine = system.engine();
    for (i, q) in QUERIES.iter().enumerate() {
        for _ in 0..(QUERIES.len() - i) * 2 {
            engine.evaluate(q, EvalOptions::new().k(k)).unwrap();
        }
    }

    let stop = AtomicBool::new(false);
    let storm_queries = AtomicUsize::new(0);
    let total_bytes = system.index().rpls().unwrap().total_bytes().unwrap()
        + system.index().erpls().unwrap().total_bytes().unwrap();
    assert_eq!(total_bytes, 0, "fresh build has no redundant lists");

    std::thread::scope(|scope| {
        for t in 0..8 {
            let (system, baseline) = (&system, &baseline);
            let (stop, storm_queries) = (&stop, &storm_queries);
            scope.spawn(move || {
                let engine = system.engine();
                while !stop.load(Ordering::Relaxed) {
                    let i = storm_queries.fetch_add(1, Ordering::Relaxed) % QUERIES.len();
                    let got = engine
                        .evaluate(QUERIES[i], EvalOptions::new().k(k))
                        .unwrap_or_else(|e| panic!("thread {t}, query {i}: {e}"));
                    assert_eq!(
                        got.answers, baseline[i].answers,
                        "thread {t}: answers drifted on query {i}"
                    );
                }
            });
        }

        // Reconcile through a budget shift while the storm runs.
        let mut cache = CostCache::new();
        let huge = 64 * 1024 * 1024;
        for budget in [huge, 4 * 1024, 0, huge] {
            let opts = SelfManageOptions::new(budget);
            let report =
                reconcile_once(system.index(), system.profiler(), &opts, &mut cache).unwrap();
            assert!(
                report.bytes_used <= budget,
                "cycle kept {} bytes over budget {budget}",
                report.bytes_used
            );
            assert!(!report.workload.is_empty(), "profiler fed the cycle");
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert!(
        storm_queries.load(Ordering::Relaxed) > 8,
        "the storm actually queried"
    );
    // The generous final cycle re-materialised lists for the hot shapes…
    let report_bytes = system.index().rpls().unwrap().total_bytes().unwrap()
        + system.index().erpls().unwrap().total_bytes().unwrap();
    assert!(report_bytes > 0, "final generous cycle kept lists");
    // …and the storm's Auto queries fell back to ERA whenever coverage was
    // missing (at minimum, every query before the first cycle finished).
    let counters = system.profiler().counters();
    assert!(
        counters.era_fallbacks.get() > 0,
        "ERA fallback was exercised"
    );
    assert_eq!(counters.cycles.get(), 4);
    std::fs::remove_file(&store).ok();
}

/// Live ingestion end to end, quiesced: an ingested document is returned
/// by matching queries immediately (no rebuild), the result cache never
/// serves a pre-ingest answer after the generation bump, and a fold leaves
/// an empty delta with byte-identical answers before and after.
#[test]
fn ingest_is_immediately_queryable_and_fold_preserves_answers() {
    let (system, store) = build("ingest", 24);
    let service = system.service();
    let k = Some(10);

    // Prime the cache: miss, then hit, on the pre-ingest generation.
    let req = trex::QueryRequest::new(QUERIES[0]).k(k);
    let first = service.execute(&req).unwrap();
    assert_eq!(first.cache, trex::CacheStatus::Miss);
    assert_eq!(service.execute(&req).unwrap().cache, trex::CacheStatus::Hit);

    // Ingest a document matching QUERIES[0]: WAL-durable, delta-resident.
    let doc_id = system
        .ingest_document(
            "<books><journal><article><bdy><sec><st>live</st>\
             <p>xml query evaluation arrives live</p></sec></bdy></article></journal></books>",
        )
        .unwrap();
    assert_eq!(doc_id, 24, "ids continue past the base build");
    assert_eq!(system.index().delta().doc_count(), 1);

    // The generation bumped, so the pre-ingest cache entry is unreachable:
    // the next lookup re-evaluates and sees the new document.
    let post = service.execute(&req).unwrap();
    assert_eq!(
        post.cache,
        trex::CacheStatus::Miss,
        "cache must not serve a pre-ingest result after the generation bump"
    );
    assert!(post.generation > first.generation);
    let all = system.search(QUERIES[0], None).unwrap();
    assert!(
        all.answers.iter().any(|a| a.element.doc == doc_id),
        "ingested doc must be returned by the matching query without a rebuild"
    );

    // Every strategy the engine can be forced into agrees on the combined
    // delta ∪ disk answers (rank safety is strategy-independent).
    system
        .materialize_for(QUERIES[0], trex::ListKind::Both)
        .unwrap();
    let auto = system.search(QUERIES[0], k).unwrap();
    for strategy in [trex::Strategy::Era, trex::Strategy::Merge] {
        let forced = system.search_with(QUERIES[0], k, strategy).unwrap();
        assert_eq!(forced.answers, auto.answers, "{strategy:?} disagrees");
    }

    // Fold: the delta empties and every query's answers are byte-identical
    // before and after (scoring inputs are frozen at build time).
    let before: Vec<_> = QUERIES
        .iter()
        .map(|q| system.search(q, None).unwrap().answers)
        .collect();
    let report = system.fold_once().unwrap().expect("delta was non-empty");
    assert_eq!(report.docs_folded, 1);
    assert!(
        system.index().delta().is_empty(),
        "fold must drain the delta"
    );
    for (q, pre) in QUERIES.iter().zip(&before) {
        let post = system.search(q, None).unwrap().answers;
        assert_eq!(&post, pre, "answers changed across fold for {q}");
    }
    // A second fold is a no-op.
    assert!(system.fold_once().unwrap().is_none());
    std::fs::remove_file(&store).ok();
}

/// The ingest tentpole under fire: a query storm runs while one thread
/// ingests a stream of documents and another keeps reconciling the
/// redundant lists. Every query must succeed with internally rank-safe
/// answers (sorted, deduplicated, within k) — a document is visible or not,
/// never half-visible — and acknowledged ingests must all be queryable at
/// the end, surviving a final fold with identical answers.
#[test]
fn concurrent_ingest_reconcile_query_storm_stays_rank_safe() {
    let (system, store) = build("ingest-storm", 32);
    let k = 10usize;
    const INGESTS: usize = 40;

    // Seed the profiler so reconcile has a workload to plan for.
    let engine = system.engine();
    for q in QUERIES {
        for _ in 0..3 {
            engine.evaluate(q, EvalOptions::new().k(Some(k))).unwrap();
        }
    }

    let stop = AtomicBool::new(false);
    let queries_run = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // Ingest stream: every doc matches QUERIES[0].
        let ingester = {
            let system = &system;
            scope.spawn(move || {
                let mut ids = Vec::with_capacity(INGESTS);
                for i in 0..INGESTS {
                    let xml = format!(
                        "<books><journal><article><bdy><sec><st>stream</st>\
                         <p>xml query evaluation stream item {i}</p>\
                         </sec></bdy></article></journal></books>"
                    );
                    ids.push(system.ingest_document(&xml).unwrap());
                }
                ids
            })
        };

        // Reconcile loop, racing the ingests and the queries. Bounded so the
        // test terminates even if the gate keeps handing it the lock; the
        // short sleep lets the ingester and the storm interleave with it.
        {
            let (system, stop) = (&system, &stop);
            scope.spawn(move || {
                let mut cache = CostCache::new();
                let opts = SelfManageOptions::new(64 * 1024 * 1024);
                for _ in 0..64 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    reconcile_once(system.index(), system.profiler(), &opts, &mut cache).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        }

        // Query storm: answers must always be internally rank-safe. Each
        // thread runs a fixed number of queries so the storm cannot starve
        // the ingester's write-gate acquisitions indefinitely.
        for t in 0..4 {
            let (system, stop, queries_run) = (&system, &stop, &queries_run);
            scope.spawn(move || {
                let engine = system.engine();
                for _ in 0..400 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = queries_run.fetch_add(1, Ordering::Relaxed) % QUERIES.len();
                    let got = engine
                        .evaluate(QUERIES[i], EvalOptions::new().k(Some(k)))
                        .unwrap_or_else(|e| panic!("thread {t}, query {i}: {e}"));
                    assert!(got.answers.len() <= k);
                    for w in got.answers.windows(2) {
                        assert!(
                            w[0].score >= w[1].score,
                            "thread {t}: answers out of rank order on query {i}"
                        );
                    }
                    // (sid, doc, end, length) is the identity of an answer
                    // row; distinct elements may share (doc, end) when a
                    // parent's span ends with its last child's.
                    let mut keys: Vec<_> = got
                        .answers
                        .iter()
                        .map(|a| (a.sid, a.element.doc, a.element.end, a.element.length))
                        .collect();
                    keys.sort_unstable();
                    keys.dedup();
                    assert_eq!(keys.len(), got.answers.len(), "duplicate answer elements");
                }
            });
        }

        let ids = ingester.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        assert_eq!(ids.len(), INGESTS);
    });
    assert!(queries_run.load(Ordering::Relaxed) > 8, "the storm queried");

    // Quiesced: every acknowledged ingest answers the matching query.
    let all = system.search(QUERIES[0], None).unwrap();
    for id in 32..(32 + INGESTS as u32) {
        assert!(
            all.answers.iter().any(|a| a.element.doc == id),
            "acknowledged doc {id} missing after the storm"
        );
    }

    // And a fold keeps the combined answers byte-identical.
    let before: Vec<_> = QUERIES
        .iter()
        .map(|q| system.search(q, None).unwrap().answers)
        .collect();
    let report = system.fold_once().unwrap().expect("delta non-empty");
    assert_eq!(report.docs_folded, INGESTS);
    assert!(system.index().delta().is_empty());
    for (q, pre) in QUERIES.iter().zip(&before) {
        assert_eq!(&system.search(q, None).unwrap().answers, pre, "{q}");
    }
    std::fs::remove_file(&store).ok();
}

/// With decay disabled the profiler is a pure counter, so feeding it a
/// counted stream through the real engine must reproduce exactly the
/// workload a user would have written by hand with those counts.
#[test]
fn profiled_stream_matches_handwritten_workload() {
    let (system, store) = build("determinism", 24);
    let profiler = WorkloadProfiler::new(ProfilerConfig {
        shards: 4,
        half_life: None,
        ..ProfilerConfig::default()
    });
    let engine = QueryEngine::new(system.index()).with_profiler(&profiler);
    let stream = [(QUERIES[0], 6usize), (QUERIES[1], 3), (QUERIES[2], 1)];
    for (nexi, count) in stream {
        for _ in 0..count {
            engine
                .evaluate(nexi, EvalOptions::new().k(Some(10)))
                .unwrap();
        }
    }

    let profiled = profiler.workload(8).expect("non-empty profile");
    let handwritten = Workload::from_weights(vec![
        (QUERIES[0].to_string(), 6.0, 10),
        (QUERIES[1].to_string(), 3.0, 10),
        (QUERIES[2].to_string(), 1.0, 10),
    ])
    .unwrap();
    assert_eq!(profiled.len(), handwritten.len());
    for (p, h) in profiled.queries().iter().zip(handwritten.queries()) {
        assert_eq!(p.nexi, h.nexi);
        assert_eq!(p.k, h.k);
        assert!(
            (p.frequency - h.frequency).abs() < 1e-12,
            "{}: {} vs {}",
            p.nexi,
            p.frequency,
            h.frequency
        );
    }
    std::fs::remove_file(&store).ok();
}

/// An empty profile must leave the store alone — reconciliation on a fresh
/// system is a no-op, not a drop-everything.
#[test]
fn reconcile_with_no_observations_is_a_no_op() {
    let (system, store) = build("noop", 24);
    system
        .materialize_for(QUERIES[0], trex::ListKind::Both)
        .unwrap();
    let before = system.index().rpls().unwrap().total_bytes().unwrap()
        + system.index().erpls().unwrap().total_bytes().unwrap();
    assert!(before > 0);

    let profiler = WorkloadProfiler::new(ProfilerConfig::default());
    let mut cache = CostCache::new();
    let report = reconcile_once(
        system.index(),
        &profiler,
        &SelfManageOptions::new(0),
        &mut cache,
    )
    .unwrap();
    assert_eq!(report.lists_dropped, 0);
    assert_eq!(report.lists_materialized, 0);
    assert_eq!(report.bytes_used, before, "lists untouched");
    std::fs::remove_file(&store).ok();
}

/// The paper's loop under a moving hot set: a budget that fits one hot
/// query's cheaper list set but not both, and synchronous `reconcile_once`
/// cycles between serving batches (what the background thread does on its
/// interval). Phase A hammers one query, phase B another. Every cycle keeps
/// list bytes within the budget, phase B both drops and materialises lists,
/// and in each phase the hot query leaves ERA.
#[test]
fn hot_set_shift_moves_lists_within_a_one_shape_budget() {
    let (system, store) = build("shift", 120);
    // A short half-life, so phase B's queries overtake phase A's weight
    // within a couple of batches.
    let profiler = WorkloadProfiler::new(ProfilerConfig {
        half_life: Some(16),
        ..ProfilerConfig::default()
    });
    let engine = QueryEngine::new(system.index()).with_profiler(&profiler);
    let (qa, qb) = (QUERIES[0], QUERIES[2]);
    let k10 = EvalOptions::new().k(Some(10));

    // Probe cycle at budget 0: the exact list footprint of both shapes,
    // without materialising anything.
    for q in [qa, qb] {
        engine.evaluate(q, k10).unwrap();
    }
    let probe = reconcile_once(
        system.index(),
        &profiler,
        &SelfManageOptions::new(0),
        &mut CostCache::new(),
    )
    .unwrap();
    let per_shape: Vec<u64> = probe
        .costs
        .iter()
        .map(|c| c.s_rpl().min(c.s_erpl()))
        .collect();
    let budget = per_shape.iter().max().unwrap() * 13 / 10;
    assert!(
        budget < per_shape.iter().sum::<u64>(),
        "budget {budget} must not fit both shapes ({per_shape:?})"
    );

    let opts = SelfManageOptions::new(budget);
    let mut left_era = [false; 2];
    let (mut dropped, mut materialized) = (false, false);
    for (phase, (hot, cold)) in [(qa, qb), (qb, qa)].into_iter().enumerate() {
        for cycle in 0..6 {
            for _ in 0..8 {
                engine.evaluate(hot, k10).unwrap();
            }
            engine.evaluate(cold, k10).unwrap();
            // A fresh cost cache per cycle: a shared one pins each shape's
            // single timed ERA run for every later cycle, so one preempted
            // run could outweigh the 8:1 frequency for the whole phase.
            let mut cache = CostCache::new();
            let report = reconcile_once(system.index(), &profiler, &opts, &mut cache).unwrap();
            assert!(
                report.bytes_used <= budget,
                "phase {phase} cycle {cycle}: {} bytes over budget {budget}",
                report.bytes_used
            );
            if phase == 1 {
                dropped |= report.lists_dropped > 0;
                materialized |= report.lists_materialized > 0;
            }
            let stats = engine.evaluate(hot, k10).unwrap().stats;
            left_era[phase] |= !matches!(stats, StrategyStats::Era(_));
        }
    }
    assert_eq!(
        left_era,
        [true, true],
        "the hot query leaves ERA in each phase"
    );
    assert!(dropped && materialized, "phase B must drop and materialise");
    std::fs::remove_file(&store).ok();
}

/// The background manager end to end, at one and at two partitions: start
/// it with a short interval, serve queries, and watch the one `SelfManager`
/// converge to a budget-respecting list set on every partition.
#[test]
fn background_manager_converges_and_stops_cleanly() {
    for partitions in [1usize, 2] {
        let store = temp(&format!("manager-n{partitions}"));
        let system = TrexSystem::build_partitioned(
            TrexConfig::new(&store),
            partitions,
            IeeeGenerator::new(CorpusConfig {
                docs: 32,
                ..CorpusConfig::ieee_default()
            })
            .documents(),
        )
        .unwrap();
        for _ in 0..6 {
            system.search(QUERIES[0], Some(5)).unwrap();
        }

        let budget = 64 * 1024 * 1024;
        let manager = system
            .start_self_manager(
                SelfManageOptions::new(budget).interval(std::time::Duration::from_millis(20)),
            )
            .unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let cycle = loop {
            if let Some(cycle) = manager.last_report() {
                // Registry bytes persist across cycles, so a poll that
                // misses the materialising cycle still sees its effect.
                if cycle.reports.iter().all(|r| r.bytes_used > 0) {
                    break cycle;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "manager never materialised: {:?}",
                manager.last_error()
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        assert_eq!(cycle.reports.len(), partitions);
        assert!(cycle.bytes_used() <= budget);
        let split: u64 = cycle.budgets.iter().map(|b| b.budget_bytes).sum();
        assert_eq!(split, budget, "the whole budget is handed out");
        assert!(manager.last_error().is_none());
        manager.stop();

        // With the hot query's lists on disk, Auto now picks a top-k
        // strategy on every partition.
        for part in system.system().parts() {
            let explain = part
                .engine()
                .explain(QUERIES[0], EvalOptions::new().k(Some(5)))
                .unwrap();
            assert_ne!(explain.chosen, trex::Strategy::Era, "{explain:?}");
        }
        drop(system);
        for i in 0..partitions {
            std::fs::remove_file(trex::partition_store_path(&store, i)).ok();
        }
        std::fs::remove_file(&store).ok();
    }
}
