//! `ingest_mixed`: writes beside reads on one store. A writer thread calls
//! `TrexSystem::ingest_document` back to back (default flush policy: the WAL
//! is fsynced before every ack); a reader thread runs `Q` through
//! `QueryService::execute` with the result cache on; the fold manager folds
//! the delta into the B+tree tables every `FOLD_MAX_DOCS` documents, so
//! several folds complete in the window.
//!
//! Both threads use the same `index` and `storage` layers and the same
//! maintenance gate: WAL fsync, delta apply, fold pauses and cache
//! invalidation (every ingest moves the generation) all land on the reader's
//! latency. An ingest gain bought with query latency, or the reverse, shows
//! here. At the end the system is dropped and reopened, and every
//! acknowledged document must read back byte for byte.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use trex::{FoldOptions, FoldReport, QueryRequest, TrexConfig, TrexSystem};

use super::{
    build_path_metrics, build_single, closed_loop, finish_trace, repeat_setup, set_common, Built,
    Run,
};
use crate::inputs::{self, Query, INGEST_BASE_DOCS};
use crate::metrics::Outcome;
use crate::spans::{in_request, Tracer};
use crate::stats::{self, nanos, Chunked, Samples};

/// The delta is folded once it holds this many documents.
const FOLD_MAX_DOCS: usize = 200;

/// How often the fold threshold is looked at.
const FOLD_POLL: Duration = Duration::from_millis(10);

/// Distinct documents the writer cycles through. Generating them is the
/// benchmark's work, not the engine's, so it happens before the window.
const DOC_POOL: usize = 512;

/// The traced run's window is this long at most.
const TRACE_MAX_S: f64 = 5.0;

struct PoolDoc {
    xml: String,
    hash: u64,
}

/// FNV-1a, to check a document read back without keeping a second copy.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn doc_pool(seed: u64) -> Vec<PoolDoc> {
    let stream = inputs::ingest_stream(seed);
    (0..DOC_POOL)
        .map(|i| {
            let xml = stream.document(i);
            let hash = fnv(xml.as_bytes());
            PoolDoc { xml, hash }
        })
        .collect()
}

/// What the writer did.
#[derive(Default)]
struct Written {
    /// (assigned doc id, index into the pool) of every acknowledged document.
    acked: Vec<(u32, usize)>,
    ack: Samples,
    failed: u64,
    wall_s: f64,
    tracer: Option<Tracer>,
}

fn write_loop(
    system: &TrexSystem,
    pool: &[PoolDoc],
    seconds: f64,
    epoch: Option<Instant>,
) -> Written {
    let mut w = Written {
        tracer: epoch.map(Tracer::new),
        ..Written::default()
    };
    let started = Instant::now();
    let mut n = 0usize;
    while started.elapsed().as_secs_f64() < seconds {
        let p = n % pool.len();
        n += 1;
        let op_started = Instant::now();
        let acked = in_request(
            w.tracer.as_mut(),
            n as u64,
            "ingest.ingest_document",
            || system.ingest_document(&pool[p].xml),
        );
        let elapsed = op_started.elapsed();
        match acked {
            Ok(doc_id) => {
                w.acked.push((doc_id, p));
                w.ack.push(nanos(elapsed));
            }
            Err(_) => w.failed += 1,
        }
    }
    w.wall_s = started.elapsed().as_secs_f64();
    w
}

/// A reader's answer is right when it is ranked: the corpus changes under
/// it, so there is no fixed answer to compare with.
fn ranked(answers: &[trex::Answer]) -> bool {
    answers.windows(2).all(|w| w[0].score >= w[1].score)
}

pub fn run(run: &Run) -> Outcome {
    let q = inputs::query_pool();
    let ops = inputs::shuffled_ops(run.seed, q.len());
    let pool = doc_pool(run.seed);
    let setup = || {
        // Without the document table an acknowledged document could only be
        // looked for through a query; with it, it reads back whole.
        let built = build_single(&run.store_path(), INGEST_BASE_DOCS, |c| {
            c.store_documents = true;
        });
        let service = built.system.service();
        for &i in &ops {
            service
                .execute(&QueryRequest::new(&q[i].nexi).k(q[i].k))
                .expect("warm-up query");
        }
        drop(service);
        built
    };
    // The store changes while this workload runs: the whole window on one
    // instance, the last.
    let (ready, setup_s) = repeat_setup(run, setup, |_, _| {});
    let mut out = Outcome::default();
    let Built {
        system,
        doc_bytes: base_bytes,
        build_s,
    } = ready;
    // The warm-up filled the cache at the generation no ingest has moved yet;
    // left there, the reader would hit it a million times a second until the
    // first ack, and those hits would be most of its samples.
    system.result_cache().clear();

    let written = if run.trace {
        let stage = stage_document_p50(&system, &pool);
        out.set_n(
            "index.stage_document_us_p50",
            stage.p50_us(),
            stage.len() as u64,
        );
        traced(run, &system, &q, &ops, &pool, &mut out)
    } else {
        let folds = system
            .start_fold_manager(
                FoldOptions::new()
                    .max_docs(FOLD_MAX_DOCS)
                    .interval(FOLD_POLL),
            )
            .expect("start the fold manager");
        let (written, window) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| write_loop(&system, &pool, run.seconds, None));
            let window = read_loop(&system, &q, &ops, run.seconds, None).0;
            (writer.join().expect("writer thread"), window)
        });
        out.check(folds.last_error().is_none(), || {
            format!("fold failed: {:?}", folds.last_error())
        });
        out.check(folds.folds() >= 2, || {
            format!("only {} folds completed in the window", folds.folds())
        });
        out.set("ingest.folds", folds.folds() as f64);
        folds.stop();
        out.set_query_metrics(window);
        written
    };

    out.attempted += written.acked.len() as u64 + written.failed;
    out.failed += written.failed;
    if written.failed > 0 {
        out.violations
            .push(format!("{} ingests were refused", written.failed));
    }
    if let Some(s) = written.ack.summary() {
        out.set_n("ingest.docs_per_s", s.n as f64 / written.wall_s, s.n);
        out.set_n("ingest.ack_p95_ms", s.p95 as f64 / 1e6, s.n);
    }
    let acked_bytes: u64 = written
        .acked
        .iter()
        .map(|&(_, p)| pool[p].xml.len() as u64)
        .sum();

    // Durability: every acknowledged document, after a reopen.
    drop(system);
    set_common(&mut out, run, setup_s, base_bytes + acked_bytes);
    let started = Instant::now();
    let reopened =
        TrexSystem::open(TrexConfig::new(run.store_path())).expect("reopen after the run");
    out.set("storage.recovery_ms", started.elapsed().as_secs_f64() * 1e3);
    for &(doc_id, p) in &written.acked {
        let found = reopened.document(doc_id);
        out.check(
            found.is_ok_and(|xml| xml.is_some_and(|xml| fnv(xml.as_bytes()) == pool[p].hash)),
            || format!("acknowledged document {doc_id} did not read back after reopen"),
        );
    }
    if run.trace {
        build_path_metrics(&mut out, INGEST_BASE_DOCS as f64 / build_s);
    }
    out
}

/// The reader: `Q` through the shared service, closed loop.
fn read_loop(
    system: &TrexSystem,
    q: &[Query],
    ops: &[usize],
    seconds: f64,
    epoch: Option<Instant>,
) -> (Chunked, Option<Tracer>) {
    let service = system.service();
    let mut tracer = epoch.map(Tracer::new);
    let mut request = 1u64 << 32;
    let units = vec![(); q.len()];
    let window = closed_loop(seconds, ops, &units, |i| {
        request += 1;
        let response = in_request(tracer.as_mut(), request, "serve.execute", || {
            service.execute(&QueryRequest::new(&q[i].nexi).k(q[i].k))
        });
        match response {
            Ok(r) if ranked(&r.answers) => Ok(()),
            Ok(_) => Err("answers are not ranked".to_string()),
            Err(e) => Err(e.to_string()),
        }
    });
    (window, tracer)
}

/// `index::delta::stage_document` alone: parse, walk the frozen summary,
/// split postings — the part of an ingest before the WAL.
fn stage_document_p50(system: &TrexSystem, pool: &[PoolDoc]) -> Samples {
    let index = system.index();
    let mut samples = Samples::new();
    for doc in pool {
        let started = Instant::now();
        let staged = trex::index::delta::stage_document(
            u32::MAX - 1,
            &doc.xml,
            index.summary(),
            index.alias(),
            index.dictionary(),
            index.analyzer(),
        );
        samples.push_elapsed(started);
        std::hint::black_box(staged.is_ok());
    }
    samples
}

/// The same two threads with spans, plus a fold thread of the benchmark's
/// own that does what the fold manager does — poll the delta, call
/// `fold_once` — so that every fold has a span and a kept report.
fn traced(
    run: &Run,
    system: &TrexSystem,
    q: &[Query],
    ops: &[usize],
    pool: &[PoolDoc],
    out: &mut Outcome,
) -> Written {
    let seconds = run.seconds.min(TRACE_MAX_S);
    let epoch = Instant::now();
    let storage0 = system.index().store().counters().snapshot();
    let serve0 = system.serve_metrics().counters.snapshot();
    let done = AtomicBool::new(false);
    let delta_peak = AtomicUsize::new(0);

    let (mut written, window, reader_tracer, folds) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| write_loop(system, pool, seconds, Some(epoch)));
        let folder = scope.spawn(|| {
            let mut tracer = Tracer::new(epoch);
            let mut reports: Vec<FoldReport> = Vec::new();
            let mut errors = Vec::new();
            while !done.load(Ordering::Acquire) {
                std::thread::sleep(FOLD_POLL);
                let docs = system.index().delta().doc_count();
                delta_peak.fetch_max(docs, Ordering::Relaxed);
                if docs < FOLD_MAX_DOCS {
                    continue;
                }
                let span = tracer.enter("ingest.fold_once");
                let folded = system.fold_once();
                tracer.exit(span);
                match folded {
                    Ok(Some(report)) => reports.push(report),
                    Ok(None) => {}
                    Err(e) => errors.push(e.to_string()),
                }
            }
            (tracer, reports, errors)
        });
        let (window, reader_tracer) = read_loop(system, q, ops, seconds, Some(epoch));
        let written = writer.join().expect("writer thread");
        done.store(true, Ordering::Release);
        (
            written,
            window,
            reader_tracer,
            folder.join().expect("fold thread"),
        )
    });
    let (fold_tracer, reports, fold_errors) = folds;

    out.set_query_metrics(window);
    out.check(fold_errors.is_empty(), || {
        format!("fold failed: {fold_errors:?}")
    });
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let walls: Vec<f64> = reports.iter().map(|r| ms(r.wall)).collect();
    let docs_folded: usize = reports.iter().map(|r| r.docs_folded).sum();
    out.set("ingest.folds", reports.len() as f64);
    out.set_n(
        "ingest.fold_wall_ms_p50",
        stats::median(&walls).unwrap_or(0.0),
        reports.len() as u64,
    );
    out.set(
        "ingest.fold_pause_ms_max",
        reports.iter().map(|r| ms(r.pause)).fold(0.0, f64::max),
    );
    out.set(
        "ingest.docs_per_fold",
        docs_folded as f64 / reports.len().max(1) as f64,
    );
    out.set(
        "index.delta_docs_peak",
        delta_peak.load(Ordering::Relaxed) as f64,
    );

    let storage = system
        .index()
        .store()
        .counters()
        .snapshot()
        .delta(&storage0);
    let acked_bytes: u64 = written
        .acked
        .iter()
        .map(|&(_, p)| pool[p].xml.len() as u64)
        .sum();
    out.set(
        "storage.wal_bytes_per_doc_byte",
        storage.wal_bytes as f64 / acked_bytes.max(1) as f64,
    );
    out.set(
        "storage.wal_appends_per_doc",
        storage.wal_appends as f64 / written.acked.len().max(1) as f64,
    );
    out.set("storage.checkpoints", storage.checkpoints as f64);
    let serve = system.serve_metrics().counters.snapshot().delta(&serve0);
    let lookups = serve.cache_hits + serve.cache_misses + serve.cache_bypass;
    out.set_n(
        "serve.cache_hit_ratio",
        serve.cache_hits as f64 / lookups.max(1) as f64,
        lookups,
    );

    let mut tracer = Tracer::new(epoch);
    for t in [written.tracer.take(), reader_tracer, Some(fold_tracer)]
        .into_iter()
        .flatten()
    {
        tracer.absorb(t);
    }
    // The store grows while this workload runs, so an untraced pass before
    // the traced one would not be the same work: no overhead ratio here.
    finish_trace(out, run, &tracer);
    written
}
