//! # TReX
//!
//! A from-scratch Rust reproduction of **"Self Managing Top-k (Summary,
//! Keyword) Indexes in XML Retrieval"** (Consens, Gu, Kanza, Rizzolo —
//! ICDE 2007): an XML retrieval system that evaluates NEXI queries with
//! three interchangeable strategies (ERA, TA, Merge) over structural
//! summaries and inverted lists, and self-manages redundant top-k indexes
//! (RPLs / ERPLs) to fit a disk budget.
//!
//! This facade crate wires the subsystem crates together and exposes
//! [`TrexSystem`], the high-level build-then-query API:
//!
//! ```
//! use trex::{TrexConfig, TrexSystem};
//!
//! let dir = std::env::temp_dir().join(format!("trex-doc-{}", std::process::id()));
//! let config = TrexConfig::new(&dir);
//! let docs = vec![
//!     "<article><sec>xml query evaluation</sec></article>".to_string(),
//!     "<article><sec>structural summaries</sec></article>".to_string(),
//! ];
//! let system = TrexSystem::build(config, docs).unwrap();
//! let result = system.search("//article//sec[about(., query evaluation)]", Some(10)).unwrap();
//! assert_eq!(result.answers.len(), 1);
//! # std::fs::remove_file(&dir).ok();
//! # std::fs::remove_file(trex::storage::wal_path(&dir)).ok();
//! ```
//!
//! The layering (bottom-up) mirrors the paper's architecture:
//!
//! | crate | role |
//! |---|---|
//! | [`storage`] | BerkeleyDB substitute: B+tree tables over a buffer pool |
//! | [`xml`] | XML parsing (streaming + DOM) |
//! | [`text`] | tokenisation, Porter stemming, BM25-style scoring |
//! | [`summary`] | structural summaries (tag / incoming, alias variants) |
//! | [`index`] | the `Elements`, `PostingLists`, `RPLs`, `ERPLs` tables |
//! | [`nexi`] | NEXI parsing and (sids, terms) translation |
//! | [`core`] | ERA / TA / Merge, the engine, the self-managing advisor |
//! | [`corpus`] | synthetic INEX-like collections for the experiments |

pub mod http;

pub use trex_core as core;
pub use trex_corpus as corpus;
pub use trex_index as index;
pub use trex_nexi as nexi;
pub use trex_storage as storage;
pub use trex_summary as summary;
pub use trex_text as text;
pub use trex_xml as xml;

// The most-used items, re-exported flat.
pub use http::{HttpServer, HttpServerConfig};
pub use trex_core::obs::{
    self, AdvisorJournal, Health, MetricsRegistry, PartitionMetrics, QueryTrace, ServeMetrics,
    ToJson, TraceContext,
};
pub use trex_core::{
    fold_once, merge_topk, parse_query_request, partition_store_path, reconcile_once,
    reconcile_partitioned, split_budget, Answer, CacheStatus, CostCache, EvalOptions, Explain,
    FoldManager, FoldOptions, FoldReport, ListKind, Partition, PartitionBudget, PartitionedCycle,
    PartitionedSystem, ProfilerConfig, QueryEngine, QueryRequest, QueryResponse, QueryResult,
    QueryService, ReconcileReport, ResultCache, SelectionMethod, SelfManageOptions, SelfManager,
    Strategy, StrategyMetrics, StrategyStats, TrexError, WireError, Workload, WorkloadProfiler,
    WorkloadQuery, DEFAULT_CACHE_ENTRIES, TA_PREDICTION_FACTOR,
};
pub use trex_index::partition_of;
pub use trex_index::{ElementRef, TrexIndex};
pub use trex_nexi::Interpretation;
pub use trex_summary::{AliasMap, SummaryKind};
pub use trex_text::Analyzer;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use trex_index::IndexBuilder;
use trex_storage::Store;

/// Result alias using the top-level error.
pub type Result<T> = std::result::Result<T, TrexError>;

/// Configuration for building or opening a [`TrexSystem`].
#[derive(Debug, Clone)]
pub struct TrexConfig {
    /// Path of the store file holding every table. A system of N > 1
    /// partitions occupies the sibling family `store_path.p0 … .p(N-1)`
    /// instead (see [`partition_store_path`]).
    pub store_path: PathBuf,
    /// Buffer-pool capacity in pages (default 4096 pages = 32 MiB), split
    /// evenly across partitions.
    pub pool_pages: usize,
    /// Structural summary kind (default: incoming — what TReX uses, §2.1).
    pub summary: SummaryKind,
    /// Tag alias mapping (default: the INEX IEEE families).
    pub alias: AliasMap,
    /// Text analysis pipeline, persisted in the catalog at build time and
    /// restored on open.
    pub analyzer: Analyzer,
    /// Also store the raw documents, enabling [`TrexSystem::snippet`].
    pub store_documents: bool,
    /// Checkpoint the store every N documents during a build (None, the
    /// default, checkpoints only at the end). Bounds the write-ahead log
    /// and the work a crash can lose on long builds.
    pub build_checkpoint_every: Option<u32>,
}

impl TrexConfig {
    /// Defaults for `store_path`.
    pub fn new(store_path: impl AsRef<Path>) -> TrexConfig {
        TrexConfig {
            store_path: store_path.as_ref().to_path_buf(),
            pool_pages: 4096,
            summary: SummaryKind::Incoming,
            alias: AliasMap::inex_ieee(),
            analyzer: Analyzer::default(),
            store_documents: false,
            build_checkpoint_every: None,
        }
    }
}

/// The assembled TReX system: N ≥ 1 partition stores (each with its own
/// pager, buffer pool, WAL, delta index and workload profiler) behind one
/// [`PartitionedSystem`], plus the one result cache, serve-metrics group,
/// advisor journal and health surface shared by every front door.
///
/// One partition is the ordinary case: a single store file at
/// `config.store_path`, evaluated directly. With N > 1 the stores live at
/// [`partition_store_path`]`(config.store_path, i)` — `index.trex.p0`,
/// `index.trex.p1`, … — every query scatters to all of them, and the
/// rank-safe merge returns answers byte-identical to a single-store build
/// over the same documents (see `trex_core::partition` docs).
pub struct TrexSystem {
    system: Arc<PartitionedSystem>,
    cache: Arc<ResultCache>,
    serve_metrics: Arc<ServeMetrics>,
    journal: Arc<AdvisorJournal>,
    health: Arc<Health>,
}

/// Where a system's advisor-journal sidecar lives: the store file's path
/// with `.advisor.jsonl` appended (`index.trex` → `index.trex.advisor.jsonl`),
/// so the decision log travels with the store it describes.
pub fn advisor_sidecar_path(store_path: &Path) -> PathBuf {
    let mut os = store_path.as_os_str().to_owned();
    os.push(".advisor.jsonl");
    PathBuf::from(os)
}

/// The store files of an `partitions`-way system rooted at `base`: `base`
/// itself for one partition, the `.p0 … .p(N-1)` family otherwise.
fn store_paths(base: &Path, partitions: usize) -> Vec<PathBuf> {
    if partitions == 1 {
        return vec![base.to_path_buf()];
    }
    (0..partitions)
        .map(|i| partition_store_path(base, i))
        .collect()
}

/// The store files on disk for `base`: the file at `base` when it exists
/// (or when nothing does — opening it then reports the missing file),
/// otherwise the contiguous `.p0`, `.p1`, … run.
fn detect_store_paths(base: &Path) -> Vec<PathBuf> {
    let mut family = Vec::new();
    if !base.is_file() {
        while partition_store_path(base, family.len()).is_file() {
            family.push(partition_store_path(base, family.len()));
        }
    }
    if family.is_empty() {
        family.push(base.to_path_buf());
    }
    family
}

/// Buffer-pool pages each of `partitions` stores gets: the configured total
/// split evenly, floored so tiny configs still get a working pool.
fn pool_split(pool_pages: usize, partitions: usize) -> usize {
    if partitions == 1 {
        pool_pages
    } else {
        (pool_pages / partitions).max(128)
    }
}

/// Removes a store file and its write-ahead log, if present.
fn remove_store(path: &Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(storage::wal_path(path)).ok();
}

impl TrexSystem {
    fn assemble(stores: Vec<Store>, store_path: &Path) -> Result<TrexSystem> {
        let health = Arc::new(Health::new());
        let mut parts = Vec::with_capacity(stores.len());
        for store in stores {
            let index = TrexIndex::open(Arc::new(store))?;
            health.attach_generation(index.maintenance().generation_cell());
            let profiler = WorkloadProfiler::new(ProfilerConfig::default());
            parts.push(Partition::new(Arc::new(index), Arc::new(profiler)));
        }
        health.set_ready(true);
        let journal = Arc::new(AdvisorJournal::new());
        // Best effort: the journal works ring-only when the sidecar path is
        // not writable (read-only mounts, tests over borrowed stores).
        let _ = journal.attach_sidecar(advisor_sidecar_path(store_path));
        Ok(TrexSystem {
            system: Arc::new(PartitionedSystem::from_parts(parts)),
            cache: Arc::new(ResultCache::new(DEFAULT_CACHE_ENTRIES)),
            serve_metrics: Arc::new(ServeMetrics::new()),
            journal,
            health,
        })
    }

    /// Builds a fresh single-store index over `documents` (any iterator of
    /// XML strings) and opens the system on it. An existing store is
    /// replaced.
    pub fn build(
        config: TrexConfig,
        documents: impl IntoIterator<Item = String>,
    ) -> Result<TrexSystem> {
        TrexSystem::build_partitioned(config, 1, documents)
    }

    /// Like [`TrexSystem::build`], over `partitions` stores (clamped to
    /// ≥ 1; one partition is exactly `build`). Answers are byte-identical
    /// at any partition count. The corpus goes through one routed
    /// [`IndexBuilder`] — one pass, one shared summary/dictionary/statistics
    /// catalog written to every store, documents routed by
    /// [`partition_of`] over their global ids. Whatever an earlier build
    /// left at this path under the other layout (or a wider family) is
    /// removed, so [`TrexSystem::open`] can tell the layout from what is on
    /// disk.
    pub fn build_partitioned(
        config: TrexConfig,
        partitions: usize,
        documents: impl IntoIterator<Item = String>,
    ) -> Result<TrexSystem> {
        let partitions = partitions.max(1);
        let paths = store_paths(&config.store_path, partitions);
        for stale in detect_store_paths(&config.store_path) {
            if !paths.contains(&stale) {
                remove_store(&stale);
            }
        }
        let pool = pool_split(config.pool_pages, partitions);
        let stores = paths
            .iter()
            .map(|path| Store::create(path, pool).map_err(trex_index::IndexError::Storage))
            .collect::<std::result::Result<Vec<Store>, _>>()?;
        let mut builder = IndexBuilder::new_partitioned(
            stores.iter().collect(),
            config.summary,
            config.alias,
            config.analyzer,
        )?;
        if config.store_documents {
            builder.enable_document_store()?;
        }
        builder.set_checkpoint_interval(config.build_checkpoint_every);
        for doc in documents {
            builder.add_document(&doc)?;
        }
        builder.finish()?;
        TrexSystem::assemble(stores, &config.store_path)
    }

    /// Opens an existing system built earlier: the store file at
    /// `config.store_path` if there is one, otherwise the `.p0`, `.p1`, …
    /// family next to it (probed until the first missing sibling). The
    /// analyzer is restored from the catalog, so it always matches the one
    /// the index was built with.
    pub fn open(config: TrexConfig) -> Result<TrexSystem> {
        let paths = detect_store_paths(&config.store_path);
        let pool = pool_split(config.pool_pages, paths.len());
        let stores = paths
            .iter()
            .map(|path| Store::open(path, pool).map_err(trex_index::IndexError::Storage))
            .collect::<std::result::Result<Vec<Store>, _>>()?;
        TrexSystem::assemble(stores, &config.store_path)
    }

    /// The underlying system (routing, scatter-gather evaluation,
    /// per-partition indexes and profilers).
    pub fn system(&self) -> &Arc<PartitionedSystem> {
        &self.system
    }

    /// Number of partition stores.
    pub fn partitions(&self) -> usize {
        self.system.partitions()
    }

    /// Partition 0's index — *the* index of a single-store system. Every
    /// partition carries the same catalog (summary, dictionary, collection
    /// statistics), so catalog reads are valid at any partition count;
    /// tables and the delta are partition-local (see
    /// [`TrexSystem::system`] for the others).
    pub fn index(&self) -> &TrexIndex {
        self.system.part(0).index()
    }

    /// Partition 0's workload profiler (every partition profiles every
    /// query): fed by every query this system evaluates, read by the
    /// self-manager. Its [`obs::SelfManageSnapshot`] counters cover
    /// profiling and reconcile work.
    pub fn profiler(&self) -> &Arc<WorkloadProfiler> {
        self.system.part(0).profiler()
    }

    /// Every metric source of this system — storage / index / self-manage
    /// counters, the storage timer group, and the index's query-path
    /// telemetry — assembled behind the registry's `render_prometheus()` /
    /// `render_json()` calls. Cheap to call (clones `Arc`s); the returned
    /// registry stays live, so an [`HttpServer`] can own one.
    ///
    /// The primary (unlabelled) groups are partition 0's plus the shared
    /// serve layer; with N > 1 every partition's counters are additionally
    /// attached as `partition="i"`-labelled groups, so operators can see
    /// where fetches, decodes and reconcile work land, and the slow-query
    /// log serves every partition's entries, each labelled the same way.
    pub fn metrics(&self) -> MetricsRegistry {
        let primary = self.system.part(0);
        let mut registry = MetricsRegistry::new(
            primary.index().store().counters().clone(),
            primary.index().counters().clone(),
            primary.profiler().counters().clone(),
            primary.index().store().timers().clone(),
            primary.index().telemetry().clone(),
            self.serve_metrics.clone(),
        );
        if self.partitions() > 1 {
            let labelled = self.system.parts().iter().enumerate();
            registry = registry.with_partitions(
                labelled
                    .map(|(i, part)| PartitionMetrics {
                        label: i.to_string(),
                        storage: part.index().store().counters().clone(),
                        index: part.index().counters().clone(),
                        selfmanage: part.profiler().counters().clone(),
                        telemetry: part.index().telemetry().clone(),
                    })
                    .collect(),
            );
        }
        registry
            .with_health(self.health.clone())
            .with_advisor(self.journal.clone())
    }

    /// The serving-layer metrics group (admission, cache, deadline
    /// counters; request / queue-wait timers) shared by every front door.
    pub fn serve_metrics(&self) -> &Arc<ServeMetrics> {
        &self.serve_metrics
    }

    /// The advisor decision journal: one [`obs::CycleRecord`] per reconcile
    /// cycle (per-partition budget splits in `splits`, deltas labelled with
    /// their partition) in a ring of the most recent cycles, plus the
    /// rotating JSONL sidecar next to the store file. Served at
    /// `/v1/advisor/history`.
    pub fn advisor_journal(&self) -> &Arc<AdvisorJournal> {
        &self.journal
    }

    /// Liveness/readiness state served at `/v1/healthz` and `/v1/readyz`; its
    /// generation is the maximum across partitions, matching the
    /// result-cache key.
    pub fn health(&self) -> &Arc<Health> {
        &self.health
    }

    /// The system-wide result cache, keyed by `(normalized query, k,
    /// strategy, interpretation, maintenance generation)` — the maximum
    /// generation across partitions. Shared by the HTTP front end, the REPL
    /// and [`TrexSystem::service`]; a reconcile or ingest on any partition
    /// bumps the generation, making every older entry unreachable — no
    /// explicit invalidation anywhere.
    pub fn result_cache(&self) -> &Arc<ResultCache> {
        &self.cache
    }

    /// Ingests one XML document into the live system: allocates the next
    /// global id, routes it to its home partition, stages it there against
    /// the frozen summary/dictionary, logs it to the WAL (durable before
    /// this returns), and makes it visible to queries through the in-memory
    /// delta index — no rebuild. Returns the assigned document id.
    ///
    /// The delta is folded into the on-disk tables by
    /// [`TrexSystem::fold_once`] / [`TrexSystem::start_fold_manager`]; until
    /// then the document lives in memory and is recovered from the WAL
    /// after a crash.
    pub fn ingest_document(&self, xml: &str) -> Result<u32> {
        Ok(self.system.ingest_document(xml)?)
    }

    /// Folds every partition's delta index into its on-disk tables under
    /// that partition's maintenance write gate (one checkpoint and one
    /// generation bump each). `None` when every delta was empty.
    pub fn fold_once(&self) -> Result<Option<FoldReport>> {
        self.system.fold_once()
    }

    /// Starts the background fold worker (sibling of the self-manager): it
    /// watches every partition's delta index and folds it into the B+tree
    /// tables whenever it crosses `opts` size thresholds, reporting folds
    /// in progress at `/v1/readyz`. Stop (or drop) the returned handle to shut
    /// it down; unfolded documents stay WAL-durable.
    pub fn start_fold_manager(&self, opts: FoldOptions) -> Result<FoldManager> {
        FoldManager::start(self.system.clone(), opts, Some(self.health.clone()))
    }

    /// Starts the background self-manager: observes the live query stream
    /// through the partitions' profilers and keeps the redundant lists
    /// reconciled to the §4 selection under `opts.budget_bytes` — re-split
    /// across partitions proportional to workload heat every cycle — while
    /// queries keep being served. Stop (or drop) the returned handle to
    /// shut it down.
    pub fn start_self_manager(&self, opts: SelfManageOptions) -> Result<SelfManager> {
        SelfManager::start(
            self.system.clone(),
            opts,
            trex_core::ManagerHooks::none()
                .journal(self.journal.clone())
                .health(self.health.clone()),
        )
    }

    /// What WAL recovery did when each store was opened, as `(partition,
    /// report)`: empty after a clean shutdown, an entry for every store
    /// where an interrupted checkpoint was rolled forward
    /// (`completed_checkpoint`) or a torn log was discarded.
    pub fn recovery_reports(&self) -> Vec<(usize, storage::RecoveryReport)> {
        let parts = self.system.parts().iter().enumerate();
        parts
            .filter_map(|(i, part)| Some((i, part.index().store().recovery_report()?)))
            .collect()
    }

    /// A query engine over partition 0 (analyzer restored from the
    /// catalog), wired to its workload profiler: the whole system at one
    /// partition, and at any count the place to translate or explain a
    /// query against the shared catalog. Evaluate through
    /// [`TrexSystem::search`] / [`TrexSystem::service`] to reach every
    /// partition.
    pub fn engine(&self) -> QueryEngine<'_> {
        self.system.part(0).engine()
    }

    /// The shared `QueryRequest → QueryResponse` handler: the system plus
    /// its result cache and serve metrics. The HTTP front end and the REPL
    /// answer queries through this one path.
    pub fn service(&self) -> QueryService<'_> {
        QueryService::new(&self.system, self.cache.clone(), self.serve_metrics.clone())
    }

    /// Starts the query-serving HTTP front end on `addr` (see
    /// [`HttpServer`]): `POST /v1/query` plus the metrics surface, with
    /// bounded-queue admission control and cooperative deadlines. Stop (or
    /// drop) the returned handle to shut it down.
    pub fn serve_http(&self, addr: &str, config: HttpServerConfig) -> std::io::Result<HttpServer> {
        HttpServer::start(addr, self, config)
    }

    /// Evaluates a NEXI query with automatic strategy selection; `k = None`
    /// returns all answers.
    pub fn search(&self, nexi: &str, k: Option<usize>) -> Result<QueryResult> {
        self.system.evaluate(nexi, EvalOptions::new().k(k))
    }

    /// Evaluates with an explicit strategy.
    pub fn search_with(
        &self,
        nexi: &str,
        k: Option<usize>,
        strategy: Strategy,
    ) -> Result<QueryResult> {
        self.system
            .evaluate(nexi, EvalOptions::new().k(k).strategy(strategy))
    }

    /// Materialises the redundant lists a query needs (RPLs for TA, ERPLs
    /// for Merge, or both) on every partition; returns the lists written.
    pub fn materialize_for(&self, nexi: &str, kind: ListKind) -> Result<usize> {
        let translation = self.engine().translate(nexi, Interpretation::default())?;
        let mut written = 0;
        for part in self.system.parts() {
            written +=
                trex_core::materialize(part.index(), &translation.sids, &translation.terms, kind)?;
        }
        Ok(written)
    }

    /// Runs one reconcile cycle of `workload` on every partition, each under
    /// an equal share of `opts.budget_bytes` (see [`trex_core::advise`]):
    /// drops the lists the selection rejects, then writes the selected ones
    /// that are missing, skipping any write that would take the list bytes
    /// past the budget. The offline form of
    /// [`TrexSystem::start_self_manager`].
    pub fn advise(
        &self,
        workload: &Workload,
        opts: &SelfManageOptions,
    ) -> Result<PartitionedCycle> {
        trex_core::advise(&self.system, workload, opts)
    }

    /// The index of the partition `doc_id` is routed to.
    fn home(&self, doc_id: u32) -> &TrexIndex {
        let home = partition_of(doc_id, self.partitions());
        self.system.part(home).index()
    }

    /// The XML fragment an answer denotes, when the index was built with
    /// `store_documents` (None otherwise, or for unknown spans).
    pub fn snippet(&self, answer: &Answer) -> Result<Option<String>> {
        let index = self.home(answer.element.doc);
        let Some(docs) = index.documents()? else {
            return Ok(None);
        };
        Ok(docs.snippet(
            answer.sid,
            answer.element,
            index.summary(),
            index.alias(),
            index.analyzer(),
        )?)
    }

    /// The raw XML of a stored document, when `store_documents` was set.
    /// Documents still in the delta index (ingested, not yet folded) are
    /// served from the in-memory overlay regardless of `store_documents`.
    pub fn document(&self, doc_id: u32) -> Result<Option<String>> {
        let index = self.home(doc_id);
        if let Some(xml) = index.delta().document(doc_id) {
            return Ok(Some(xml));
        }
        let Some(docs) = index.documents()? else {
            return Ok(None);
        };
        Ok(docs.document(doc_id)?)
    }
}

/// The old name of an N-partition [`TrexSystem`]: only the frozen
/// `benchmark/` may use it, and the follow-up benchmark issue removes it.
pub struct PartitionedTrexSystem(TrexSystem);

impl PartitionedTrexSystem {
    /// [`TrexSystem::build_partitioned`].
    pub fn build(
        config: TrexConfig,
        partitions: usize,
        documents: impl IntoIterator<Item = String>,
    ) -> Result<Self> {
        TrexSystem::build_partitioned(config, partitions, documents).map(Self)
    }
    /// [`TrexSystem::open`].
    pub fn open(config: TrexConfig) -> Result<Self> {
        TrexSystem::open(config).map(Self)
    }
}

impl std::ops::Deref for PartitionedTrexSystem {
    type Target = TrexSystem;
    fn deref(&self) -> &TrexSystem {
        &self.0
    }
}
