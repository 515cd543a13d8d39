//! # trex-index
//!
//! The four TReX tables (paper §2.2) over `trex-storage`, the index builder,
//! and the persisted catalog:
//!
//! * [`elements::ElementsTable`] — `Elements(SID, docid, endpos, length)`
//! * [`postings::PostingsTable`] — `PostingLists(token, docid, offset, …)`
//! * [`rpl::RplTable`] — `RPLs(token, ir, SID, docid, endpos, …)` in
//!   descending relevance order
//! * [`erpl::ErplTable`] — `ERPLs(token, SID, docid, endpos, ir, …)` in
//!   position order
//!
//! The two redundant tables are one [`ListTable`] over a [`ListFamily`]:
//! one write path and registry, with only the iterators per family.
//!
//! [`build::IndexBuilder`] populates the first two plus the catalog from raw
//! XML; the redundant RPL/ERPL lists are materialised later by the
//! self-managing layer in `trex-core`. The builder, ingest staging
//! ([`delta::stage_document`]) and snippet lookup ([`DocStore::snippet`])
//! number a document's elements and tokens through one shared walk.

pub mod blocks;
pub mod build;
pub mod catalog;
pub mod delta;
pub mod docstore;
pub mod elements;
pub mod encode;
pub mod erpl;
pub mod maintenance;
pub mod postings;
pub mod registry;
pub mod rpl;
mod walk;

use std::fmt;
use std::sync::Arc;

use trex_storage::{StorageError, Store};
use trex_summary::{AliasMap, Summary};
use trex_text::{Analyzer, CollectionStats, Dictionary, ScoringParams, TermId};

pub use build::IndexBuilder;
pub use catalog::TermStats;
pub use delta::{DeltaDoc, DeltaIndex, DeltaMatch};
pub use docstore::{DocStore, DocStoreWriter};
pub use elements::{ElementIter, ElementsTable};
pub use encode::{ElementRef, Position, RplEntry};
pub use erpl::{ErplIter, ErplTable};
pub use maintenance::Maintenance;
pub use postings::{PositionIter, PostingsTable};
pub use registry::{Erpl, ListFamily, ListStats, ListTable, Rpl};
pub use rpl::{RplIter, RplTable};

/// Errors from index construction and access.
#[derive(Debug)]
pub enum IndexError {
    /// A document failed to parse.
    Xml(trex_xml::XmlError),
    /// The storage engine failed.
    Storage(StorageError),
    /// Live ingestion has allocated every representable document id; the
    /// collection must be rebuilt with a wider id space.
    DocIdsExhausted,
    /// An ingested document uses an element path the frozen structural
    /// summary does not contain (the offending label is attached).
    UnknownPath(String),
    /// A caller-chosen document id lies below this index's allocation
    /// watermark: the id is (or may be) already taken, so the ingest was
    /// refused before anything was logged or staged.
    StaleDocId {
        /// The id the caller asked for.
        doc_id: u32,
        /// The next id this index would allocate itself.
        watermark: u32,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Xml(e) => write!(f, "xml error: {e}"),
            IndexError::Storage(e) => write!(f, "storage error: {e}"),
            IndexError::DocIdsExhausted => write!(f, "document id space exhausted"),
            IndexError::UnknownPath(label) => {
                write!(f, "element path not in structural summary: <{label}>")
            }
            IndexError::StaleDocId { doc_id, watermark } => write!(
                f,
                "document id {doc_id} is below the allocation watermark {watermark}"
            ),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Xml(e) => Some(e),
            IndexError::Storage(e) => Some(e),
            IndexError::DocIdsExhausted
            | IndexError::UnknownPath(_)
            | IndexError::StaleDocId { .. } => None,
        }
    }
}

impl From<StorageError> for IndexError {
    fn from(e: StorageError) -> Self {
        IndexError::Storage(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, IndexError>;

/// The partition a document belongs to, for an `N`-way partitioned system.
///
/// Both the builder (routing documents at build time) and the partitioned
/// system (routing live ingests) call this one function, so a document's
/// home partition is a pure function of its **global** id — stable across
/// rebuilds, reopens and partition-count probes. Sequential ids are spread
/// with a [SplitMix64 finalizer](https://prng.di.unimi.it/splitmix64.c)
/// rather than `id % N` so that contiguous runs of related documents (a
/// corpus is usually loaded in order) do not stripe systematically.
///
/// `partitions <= 1` always maps to partition 0.
pub fn partition_of(doc_id: u32, partitions: usize) -> usize {
    if partitions <= 1 {
        return 0;
    }
    let mut x = u64::from(doc_id) ^ 0x9E37_79B9_7F4A_7C15;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % partitions as u64) as usize
}

/// Read handle over a fully built index: catalog in memory, tables opened on
/// demand.
pub struct TrexIndex {
    store: Arc<Store>,
    dictionary: Dictionary,
    summary: Summary,
    alias: AliasMap,
    stats: CollectionStats,
    analyzer: Analyzer,
    scoring: ScoringParams,
    /// Shared decode counters; every table opened through this handle
    /// reports into the same group, so one snapshot covers all index work.
    obs: Arc<trex_obs::IndexCounters>,
    /// Gate between query evaluation and online list maintenance.
    maintenance: Arc<Maintenance>,
    /// Query-path telemetry (latency histograms, slow-query log, drift
    /// monitor), shared with the engine and the self-manager above.
    telemetry: Arc<trex_obs::Telemetry>,
    /// The live-ingestion overlay; see [`delta::DeltaIndex`].
    delta: Arc<DeltaIndex>,
}

impl TrexIndex {
    /// Opens the index stored in `store` (catalog blobs must exist, i.e.
    /// [`IndexBuilder::finish`] must have run). Any ingest records the WAL
    /// recovered are replayed into the delta, so acknowledged documents are
    /// queryable again immediately after a crash.
    pub fn open(store: Arc<Store>) -> Result<TrexIndex> {
        let (dictionary, summary, alias, stats, analyzer) = catalog::load_catalog(&store)?;
        let telemetry = Arc::new(trex_obs::Telemetry::new());
        // Ids resume after everything already folded to disk: the fold
        // persists its high-water mark as a catalog blob; stores that never
        // folded fall back to the built document count.
        let base_next = catalog::load_next_doc_id(&store)?
            .unwrap_or(0)
            .max(stats.doc_count);
        let delta = Arc::new(DeltaIndex::new(base_next));
        for pending in store.pending_ingests() {
            let xml = std::str::from_utf8(&pending.xml).map_err(|_| {
                IndexError::Storage(StorageError::Corrupt(format!(
                    "ingest record for doc {} is not UTF-8",
                    pending.doc_id
                )))
            })?;
            let staged = delta::stage_document(
                pending.doc_id,
                xml,
                &summary,
                &alias,
                &dictionary,
                analyzer,
            )?;
            delta.note_recovered(staged);
        }
        Ok(TrexIndex {
            store,
            dictionary,
            summary,
            alias,
            stats,
            analyzer,
            scoring: ScoringParams::default(),
            obs: Arc::new(trex_obs::IndexCounters::new()),
            maintenance: Arc::new(Maintenance::with_telemetry(telemetry.clone())),
            telemetry,
            delta,
        })
    }

    /// The live-ingestion delta overlay.
    pub fn delta(&self) -> &Arc<DeltaIndex> {
        &self.delta
    }

    /// Ingests one document into the live index: allocates the next id,
    /// stages the document against the frozen catalog, logs it to the WAL
    /// (durability point — the call only returns once the record is
    /// fsynced), then publishes it to the delta under the maintenance write
    /// gate so the generation bump invalidates result caches.
    ///
    /// Fails with [`IndexError::DocIdsExhausted`] at the id-space boundary
    /// and [`IndexError::UnknownPath`] for documents whose structure the
    /// frozen summary cannot place; neither consumes an id or writes state.
    pub fn ingest_document(&self, xml: &str) -> Result<u32> {
        let _serial = self.delta.ingest_guard();
        let doc_id = self.delta.peek_next_doc_id()?;
        self.ingest_staged(doc_id, xml)?;
        Ok(doc_id)
    }

    /// Ingests one document under a caller-chosen id. Used by partitioned
    /// systems, where a global allocator hands out ids across stores and
    /// routes each document to exactly one partition — the partition-local
    /// watermark then advances past `doc_id` so a later single-store open
    /// of the same file never re-allocates it.
    ///
    /// Ids may arrive with gaps (the gap belongs to sibling partitions) but
    /// never from below this index's own watermark: such an id is refused
    /// with [`IndexError::StaleDocId`]. Otherwise the same failure modes as
    /// [`ingest_document`](TrexIndex::ingest_document), plus
    /// [`IndexError::DocIdsExhausted`] if `doc_id` is the `u32::MAX`
    /// sentinel.
    pub fn ingest_document_with_id(&self, doc_id: u32, xml: &str) -> Result<()> {
        if doc_id == u32::MAX {
            return Err(IndexError::DocIdsExhausted);
        }
        let _serial = self.delta.ingest_guard();
        // An exhausted allocator (`Err`) has handed out every id below the
        // sentinel, so nothing the caller could pass is fresh.
        let watermark = self.delta.peek_next_doc_id().unwrap_or(u32::MAX);
        if doc_id < watermark {
            return Err(IndexError::StaleDocId { doc_id, watermark });
        }
        self.ingest_staged(doc_id, xml)
    }

    /// Stages, WAL-logs and publishes one document under `doc_id`. Caller
    /// holds the ingest guard.
    fn ingest_staged(&self, doc_id: u32, xml: &str) -> Result<()> {
        let staged = delta::stage_document(
            doc_id,
            xml,
            &self.summary,
            &self.alias,
            &self.dictionary,
            self.analyzer,
        )?;
        self.store.log_ingest(doc_id, xml.as_bytes())?;
        {
            let _gate = self.maintenance.enter_write();
            self.delta.apply(staged);
        }
        Ok(())
    }

    /// The maintenance gate coordinating query evaluation with online
    /// redundant-list mutation (see [`Maintenance`] for the protocol).
    pub fn maintenance(&self) -> &Maintenance {
        &self.maintenance
    }

    /// The term dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// The structural summary used for translation.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// The alias mapping the summary was built with.
    pub fn alias(&self) -> &AliasMap {
        &self.alias
    }

    /// Collection statistics.
    pub fn stats(&self) -> &CollectionStats {
        &self.stats
    }

    /// The analyzer the collection was indexed with (persisted in the
    /// catalog so query-time analysis always matches index-time analysis).
    pub fn analyzer(&self) -> Analyzer {
        self.analyzer
    }

    /// The scoring parameters (BM25 `k1`/`b`).
    pub fn scoring(&self) -> &ScoringParams {
        &self.scoring
    }

    /// Replaces the scoring parameters.
    pub fn set_scoring(&mut self, params: ScoringParams) {
        self.scoring = params;
    }

    /// The underlying store (I/O statistics, page counts).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// The index-layer decode counters shared by every table this handle
    /// opens. Pair with [`Store::counters`] snapshots for a full query trace.
    pub fn counters(&self) -> &Arc<trex_obs::IndexCounters> {
        &self.obs
    }

    /// The query-path telemetry: latency histograms (query, strategy,
    /// maintenance), the slow-query log, and the drift monitor. The gate
    /// returned by [`TrexIndex::maintenance`] records its wait times here.
    pub fn telemetry(&self) -> &Arc<trex_obs::Telemetry> {
        &self.telemetry
    }

    /// Opens the `Elements` table.
    pub fn elements(&self) -> Result<ElementsTable> {
        Ok(ElementsTable::new(
            self.store.open_table(elements::ELEMENTS_TABLE)?,
        ))
    }

    /// Opens the `PostingLists` table.
    pub fn postings(&self) -> Result<PostingsTable> {
        Ok(
            PostingsTable::new(self.store.open_table(postings::POSTINGS_TABLE)?)
                .with_counters(self.obs.clone()),
        )
    }

    /// Opens the `RPLs` table (created on first use).
    pub fn rpls(&self) -> Result<RplTable> {
        Ok(RplTable::open(&self.store)?.with_counters(self.obs.clone()))
    }

    /// Opens the `ERPLs` table (created on first use).
    pub fn erpls(&self) -> Result<ErplTable> {
        Ok(ErplTable::open(&self.store)?.with_counters(self.obs.clone()))
    }

    /// Opens the document store, if the index was built with
    /// [`build::IndexBuilder::enable_document_store`].
    pub fn documents(&self) -> Result<Option<DocStore>> {
        if !self.store.has_table(docstore::DOCUMENTS_TABLE) {
            return Ok(None);
        }
        Ok(Some(DocStore::open(&self.store)?))
    }

    /// Per-term statistics (df, cf); zero for unknown terms.
    pub fn term_stats(&self, term: TermId) -> Result<TermStats> {
        let table = self.store.open_table(catalog::TERM_STATS_TABLE)?;
        Ok(catalog::get_term_stats(&table, term)?)
    }

    /// Scores one (element, term) pair with the index's model — the `ir`
    /// value stored in RPL/ERPL entries.
    pub fn score(&self, tf: u32, term: TermId, element_len: u32) -> Result<f32> {
        let ts = self.term_stats(term)?;
        Ok(trex_text::score(
            &self.scoring,
            &self.stats,
            tf,
            ts.df,
            element_len,
        ))
    }
}
