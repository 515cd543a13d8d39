//! The six workloads and what they share: repeated timed set-up, ERA ground
//! truth, the closed-loop timed window, and the build-path diagnostics.

pub mod http_zipf;
pub mod ingest_mixed;
pub mod partition_scatter;
pub mod selfmanage_shift;
pub mod single_store;

use std::path::{Path, PathBuf};
use std::time::Instant;

use trex::{Analyzer, Answer, EvalOptions, ListKind, Strategy, TrexConfig, TrexIndex, TrexSystem};

use crate::inputs::{self, Query};
use crate::metrics::Outcome;
use crate::spans::{self, Tracer};
use crate::stats::{self, nanos, Chunked};

/// One invocation: a workload, its seed, its window and where it may write.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// This run's own directory under the build directory; emptied before
    /// every set-up and removed on success.
    pub dir: PathBuf,
}

impl Run {
    pub fn store_path(&self) -> PathBuf {
        self.dir.join("store.trex")
    }
}

/// Every workload sets up this many times, each on an emptied directory, and
/// reports the median as `setup_s`.
const SETUP_REPEATS: usize = 3;

/// Sets up [`SETUP_REPEATS`] times and hands each fresh instance to `each`
/// with its share of the window, in seconds; returns the last instance and
/// the median set-up time.
///
/// A workload whose store does not change while it runs measures a share of
/// its window on every instance: where the threads of an instance land, and
/// how its files are laid out, moves its numbers by several percent, and
/// three instances over twenty seconds say more about the commit than one
/// over ten. A workload that changes its store needs its whole window on one
/// instance; it ignores `each` and measures on the last.
pub fn repeat_setup<T>(
    run: &Run,
    mut setup: impl FnMut() -> T,
    mut each: impl FnMut(&mut T, f64),
) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // The previous system holds the files open; drop it before they go.
        drop(last.take());
        let _ = std::fs::remove_dir_all(&run.dir);
        std::fs::create_dir_all(&run.dir).expect("create the run directory");
        let started = Instant::now();
        let mut instance = setup();
        times.push(started.elapsed().as_secs_f64());
        each(&mut instance, run.seconds / SETUP_REPEATS as f64);
        last = Some(instance);
    }
    let setup_s = stats::median(&times).expect("at least one set-up");
    (last.expect("at least one set-up"), setup_s)
}

/// Adds a window to the windows measured so far.
pub fn add_window(timed: &mut Option<Chunked>, window: Chunked) {
    match timed {
        Some(t) => t.then(window),
        None => *timed = Some(window),
    }
}

/// A freshly built single store, the XML bytes that went into it, and how
/// long the build alone took.
pub struct Built {
    pub system: TrexSystem,
    pub doc_bytes: u64,
    pub build_s: f64,
}

pub fn build_single(path: &Path, docs: usize, configure: impl FnOnce(&mut TrexConfig)) -> Built {
    let mut config = TrexConfig::new(path);
    configure(&mut config);
    let mut doc_bytes = 0u64;
    let corpus = inputs::corpus(docs);
    let started = Instant::now();
    let system = TrexSystem::build(
        config,
        corpus.documents().inspect(|d| doc_bytes += d.len() as u64),
    )
    .expect("build the store");
    Built {
        system,
        doc_bytes,
        build_s: started.elapsed().as_secs_f64(),
    }
}

/// Materialises RPLs and ERPLs for every query of `q`, then makes them
/// durable with one flush.
pub fn materialize_all(index: &TrexIndex, q: &[Query]) {
    let engine = trex::QueryEngine::new(index);
    for query in q {
        let t = engine
            .translate(&query.nexi, Default::default())
            .expect("pool queries translate");
        trex::core::materialize_batch(index, &t.sids, &t.terms, ListKind::Both)
            .expect("materialise lists");
    }
    index.store().flush().expect("flush the lists");
}

pub fn list_bytes(index: &TrexIndex) -> u64 {
    let rpl = index.rpls().expect("rpl table").total_bytes();
    let erpl = index.erpls().expect("erpl table").total_bytes();
    rpl.expect("rpl registry") + erpl.expect("erpl registry")
}

/// Ground truth: forced ERA over `system`, the strategy that needs no
/// redundant list and that the lists themselves are built from.
pub fn era_truth(system: &TrexSystem, q: &[Query]) -> Vec<Vec<Answer>> {
    let engine = trex::QueryEngine::new(system.index());
    q.iter()
        .map(|query| {
            engine
                .evaluate(
                    &query.nexi,
                    EvalOptions::new().k(query.k).strategy(Strategy::Era),
                )
                .expect("ERA evaluates every pool query")
                .answers
        })
        .collect()
}

/// Store and WAL bytes under `dir` (the advisor's JSONL sidecar and the
/// benchmark's own trace are not the store).
pub fn store_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read the run directory")
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            !name.ends_with(".jsonl") && !name.ends_with(".json")
        })
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// `VmHWM` of this process in MiB. Each workload runs in its own process,
/// so the high-water mark is the workload's.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One closed-loop client: cycles through `ops` (indices into `expected`)
/// for `seconds`, sending the next op only when the previous one answered.
/// The op is timed; its answer is checked outside the timed part. An error
/// or a wrong answer is a failed op and has no latency.
pub fn closed_loop<O: PartialEq>(
    seconds: f64,
    ops: &[usize],
    expected: &[O],
    mut op: impl FnMut(usize) -> Result<O, String>,
) -> Chunked {
    let mut timed = Chunked::start();
    let started = Instant::now();
    'window: loop {
        for &i in ops {
            let op_started = Instant::now();
            let answer = op(i);
            let elapsed = op_started.elapsed();
            timed.record(match answer {
                Ok(a) if a == expected[i] => Some(nanos(elapsed)),
                _ => None,
            });
            if started.elapsed().as_secs_f64() >= seconds {
                break 'window;
            }
        }
    }
    timed
}

/// The metrics every workload derives the same way.
pub fn set_common(out: &mut Outcome, run: &Run, setup_s: f64, doc_bytes: u64) {
    out.set_n("setup_s", setup_s, SETUP_REPEATS as u64);
    out.set(
        "store_bytes_per_doc_byte",
        store_bytes(&run.dir) as f64 / doc_bytes.max(1) as f64,
    );
    out.set("peak_rss_mb", peak_rss_mb());
    out.set(
        "e2e.fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
}

/// Build-path diagnostics on a 500-document sample: what `setup_s` (and
/// `ingest_mixed`'s ingest rate) is made of below the index.
pub fn build_path_metrics(out: &mut Outcome, build_docs_per_s: f64) {
    const SAMPLE: usize = 500;
    let corpus = inputs::corpus(SAMPLE);
    let docs: Vec<String> = corpus.documents().collect();
    let xml_bytes: usize = docs.iter().map(String::len).sum();

    let started = Instant::now();
    let parsed: Vec<trex::xml::Document> = docs
        .iter()
        .map(|d| trex::xml::Document::parse(std::hint::black_box(d)).expect("corpus parses"))
        .collect();
    let parse_s = started.elapsed().as_secs_f64();

    let texts: Vec<String> = parsed.iter().map(|d| d.text_content(d.root())).collect();
    let text_bytes: usize = texts.iter().map(String::len).sum();
    let analyzer = Analyzer::default();
    let started = Instant::now();
    for text in &texts {
        std::hint::black_box(analyzer.analyze_from(std::hint::black_box(text), 0));
    }
    let analyze_s = started.elapsed().as_secs_f64();

    out.set("build.docs_per_s", build_docs_per_s);
    out.set_n(
        "xml.parse_mb_per_s",
        xml_bytes as f64 / 1e6 / parse_s,
        SAMPLE as u64,
    );
    out.set_n(
        "text.analyze_mb_per_s",
        text_bytes as f64 / 1e6 / analyze_s,
        SAMPLE as u64,
    );
}

/// Closes a traced run: writes the spans next to the build output and
/// reports each span name's self-time share of all request time.
pub fn finish_trace(out: &mut Outcome, run: &Run, tracer: &Tracer) {
    let trace_path = run
        .dir
        .parent()
        .expect("the run directory has a parent")
        .join("trace.json");
    if let Err(e) = spans::write_json(&trace_path, tracer.spans()) {
        out.violations
            .push(format!("cannot write {}: {e}", trace_path.display()));
    }
    let totals = spans::totals_by_name(tracer.spans());
    for metric in [
        "trace.self_share.request",
        "trace.self_share.nexi.translate",
        "trace.self_share.core.evaluate",
        "trace.self_share.partition.part",
        "trace.self_share.partition.merge_topk",
        "trace.self_share.serve.execute",
        "trace.self_share.http.roundtrip",
        "trace.self_share.ingest.ingest_document",
        "trace.self_share.ingest.fold_once",
        "trace.self_share.selfmanage.reconcile_once",
    ] {
        let span = metric
            .strip_prefix("trace.self_share.")
            .expect("a self-share metric is named after its span");
        let n = totals.get(span).map_or(0, |t| t.count);
        out.set_n(metric, spans::self_share(&totals, span), n);
    }
}
