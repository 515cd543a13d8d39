//! The index builder: turns a stream of XML documents into the populated
//! `Elements` and `PostingLists` tables plus the catalog (dictionary,
//! summary, alias map, statistics).
//!
//! RPLs and ERPLs are *not* built here — they are redundant indexes that the
//! self-managing layer materialises on demand using ERA (paper §3.2: "TReX
//! also uses ERA for generating or extending the RPLs and ERPLs tables").
//!
//! ## Partitioned builds
//!
//! [`IndexBuilder::new_partitioned`] builds N independent stores from one
//! document stream in a single pass. The *catalog* state — structural
//! summary (and therefore sid numbering, which is assigned by first
//! encounter in global document order), dictionary (term-id assignment),
//! collection statistics, and per-term df/cf — accumulates globally and is
//! written **identically** to every partition store at
//! [`finish`](IndexBuilder::finish). Only the per-document state — element
//! rows, postings, stored documents — is routed, by
//! [`partition_of`](crate::partition_of) over the *global* doc id, into one
//! partition's tables. Scores depend solely on the shared catalog (global
//! stats + global df) and on per-element tf/length, so every partition
//! scores its elements byte-identically to a single store holding the whole
//! collection, and a rank-safe merge of per-partition top-k lists
//! reproduces the single-store answer exactly.

use std::collections::HashMap;

use trex_storage::Store;
use trex_summary::{AliasMap, Summary, SummaryCursor, SummaryKind};
use trex_text::{Analyzer, CollectionStats, Dictionary, TermId};
use trex_xml::{Document, NodeId, NodeKind};

use crate::catalog::{
    blob_names, encode_alias, encode_analyzer, encode_stats, put_term_stats, store_blob, TermStats,
    BLOBS_TABLE, TERM_STATS_TABLE,
};
use crate::docstore::DocStoreWriter;
use crate::elements::{ElementsTable, ELEMENTS_TABLE};
use crate::encode::{ElementRef, Position};
use crate::postings::POSTINGS_TABLE;
use crate::{IndexError, Result};

/// The per-store half of a build: the tables that hold routed (per-document)
/// state. A single-store build has exactly one sink; a partitioned build has
/// one per partition store.
struct StoreSink<'s> {
    store: &'s Store,
    elements: ElementsTable,
    /// term → ascending positions (document order guarantees sortedness —
    /// routing preserves it, since a document lands wholly in one sink).
    postings: HashMap<TermId, Vec<Position>>,
    /// When set, raw documents are stored for snippet retrieval.
    doc_store: Option<DocStoreWriter>,
}

impl<'s> StoreSink<'s> {
    fn new(store: &'s Store) -> Result<StoreSink<'s>> {
        Ok(StoreSink {
            store,
            elements: ElementsTable::new(store.open_or_create_table(ELEMENTS_TABLE)?),
            postings: HashMap::new(),
            doc_store: None,
        })
    }
}

/// Accumulates an index over documents, then persists everything with
/// [`IndexBuilder::finish`].
pub struct IndexBuilder<'s> {
    analyzer: Analyzer,
    alias: AliasMap,
    summary: Summary,
    dictionary: Dictionary,
    /// One per partition store; single-store builds have exactly one.
    sinks: Vec<StoreSink<'s>>,
    postings_chunk_size: usize,
    /// term → (last doc counted, df, cf) — global across all sinks.
    term_stats: HashMap<TermId, (u32, u32, u64)>,
    doc_count: u32,
    element_count: u64,
    total_element_len: u64,
    /// When set, every store is checkpointed every N documents, bounding the
    /// write-ahead log (and the work a crash can lose) during long builds.
    checkpoint_every: Option<u32>,
}

impl<'s> IndexBuilder<'s> {
    /// Starts a build into `store` with the given summary kind, alias
    /// mapping and analyzer.
    pub fn new(
        store: &'s Store,
        kind: SummaryKind,
        alias: AliasMap,
        analyzer: Analyzer,
    ) -> Result<IndexBuilder<'s>> {
        IndexBuilder::new_partitioned(vec![store], kind, alias, analyzer)
    }

    /// Starts a partitioned build: one sink per store, documents routed by
    /// [`partition_of`](crate::partition_of) over their global doc id, one
    /// shared catalog written identically to every store at `finish` (see
    /// the module docs for why that makes partitioned scoring byte-identical
    /// to a single store).
    pub fn new_partitioned(
        stores: Vec<&'s Store>,
        kind: SummaryKind,
        alias: AliasMap,
        analyzer: Analyzer,
    ) -> Result<IndexBuilder<'s>> {
        assert!(!stores.is_empty(), "at least one partition store");
        let sinks = stores
            .into_iter()
            .map(StoreSink::new)
            .collect::<Result<Vec<_>>>()?;
        Ok(IndexBuilder {
            analyzer,
            alias,
            summary: Summary::new(kind),
            dictionary: Dictionary::new(),
            sinks,
            postings_chunk_size: crate::postings::DEFAULT_CHUNK_SIZE,
            term_stats: HashMap::new(),
            doc_count: 0,
            element_count: 0,
            total_element_len: 0,
            checkpoint_every: None,
        })
    }

    /// Also store the raw documents, enabling snippet retrieval through
    /// [`crate::TrexIndex::documents`]. Roughly doubles the store size.
    pub fn enable_document_store(&mut self) -> Result<()> {
        for sink in &mut self.sinks {
            if sink.doc_store.is_none() {
                sink.doc_store = Some(DocStoreWriter::open(sink.store)?);
            }
        }
        Ok(())
    }

    /// Overrides the posting-chunk size (chunk-size ablation).
    pub fn set_postings_chunk_size(&mut self, size: usize) {
        self.postings_chunk_size = size;
    }

    /// Checkpoints the store every `every` documents (None disables, the
    /// default). With the WAL enabled, each checkpoint truncates the log,
    /// bounding both log growth and the work a mid-build crash discards —
    /// everything up to the last checkpoint survives recovery.
    pub fn set_checkpoint_interval(&mut self, every: Option<u32>) {
        self.checkpoint_every = every.filter(|&n| n > 0);
    }

    fn maybe_checkpoint(&self) -> Result<()> {
        if let Some(every) = self.checkpoint_every {
            if self.doc_count.is_multiple_of(every) {
                for sink in &self.sinks {
                    sink.store.flush()?;
                }
            }
        }
        Ok(())
    }

    /// The sink index the next document routes to.
    fn route_next(&self) -> usize {
        crate::partition_of(self.doc_count, self.sinks.len())
    }

    /// Parses and indexes one document; returns its assigned id.
    pub fn add_document(&mut self, xml: &str) -> Result<u32> {
        let doc = Document::parse(xml).map_err(IndexError::Xml)?;
        let p = self.route_next();
        if let Some(ds) = &mut self.sinks[p].doc_store {
            ds.put(self.doc_count, xml)?;
        }
        self.add_parsed_internal(&doc, p)
    }

    /// Indexes an already-parsed document; returns its assigned id.
    pub fn add_parsed(&mut self, doc: &Document) -> Result<u32> {
        let p = self.route_next();
        if let Some(ds) = &mut self.sinks[p].doc_store {
            ds.put(self.doc_count, &doc.to_xml())?;
        }
        self.add_parsed_internal(doc, p)
    }

    /// Indexes one document through the streaming pull parser, without
    /// building a DOM — the memory-friendly path for very large documents.
    /// Produces identical index state to [`IndexBuilder::add_document`].
    pub fn add_document_streaming(&mut self, xml: &str) -> Result<u32> {
        let p = self.route_next();
        if let Some(ds) = &mut self.sinks[p].doc_store {
            ds.put(self.doc_count, xml)?;
        }
        let doc_id = self.doc_count;
        self.doc_count += 1;

        let mut reader = trex_xml::Reader::new(xml);
        let mut cursor = SummaryCursor::new();
        let mut next_pos = 0u32;
        // Per open element: (sid, first position mark).
        let mut open: Vec<(trex_summary::Sid, u32)> = Vec::new();

        while let Some(event) = reader.next_event().map_err(IndexError::Xml)? {
            match event {
                trex_xml::Event::StartElement { name, .. } => {
                    let label = self.alias.resolve(&name).to_string();
                    let sid = cursor.enter(&mut self.summary, &label);
                    self.summary.record_element(sid);
                    open.push((sid, next_pos));
                }
                trex_xml::Event::EndElement { .. } => {
                    let (sid, mark) = open.pop().expect("reader guarantees balance");
                    cursor.leave();
                    let length = next_pos - mark;
                    if length > 0 {
                        self.sinks[p].elements.insert(
                            sid,
                            ElementRef {
                                doc: doc_id,
                                end: next_pos - 1,
                                length,
                            },
                        )?;
                        self.element_count += 1;
                        self.total_element_len += length as u64;
                    }
                }
                trex_xml::Event::Text(text) => {
                    self.index_text(&text, doc_id, p, &mut next_pos);
                }
                trex_xml::Event::Comment(_) | trex_xml::Event::ProcessingInstruction(_) => {}
            }
        }
        self.maybe_checkpoint()?;
        Ok(doc_id)
    }

    /// Analyses one text run, interning terms (globally) and recording
    /// postings into sink `p`.
    fn index_text(&mut self, text: &str, doc_id: u32, p: usize, next_pos: &mut u32) {
        let (terms, np) = self.analyzer.analyze_from(text, *next_pos);
        *next_pos = np;
        for token in terms {
            let term = self.dictionary.intern(&token.text);
            self.sinks[p]
                .postings
                .entry(term)
                .or_default()
                .push(Position {
                    doc: doc_id,
                    offset: token.position,
                });
            let entry = self.term_stats.entry(term).or_insert((u32::MAX, 0, 0));
            if entry.0 != doc_id {
                entry.0 = doc_id;
                entry.1 += 1;
            }
            entry.2 += 1;
        }
    }

    fn add_parsed_internal(&mut self, doc: &Document, p: usize) -> Result<u32> {
        let doc_id = self.doc_count;
        self.doc_count += 1;
        let mut cursor = SummaryCursor::new();
        let mut next_pos = 0u32;
        self.walk(doc, doc.root(), &mut cursor, doc_id, p, &mut next_pos)?;
        self.maybe_checkpoint()?;
        Ok(doc_id)
    }

    fn walk(
        &mut self,
        doc: &Document,
        node: NodeId,
        cursor: &mut SummaryCursor,
        doc_id: u32,
        p: usize,
        next_pos: &mut u32,
    ) -> Result<()> {
        match &doc.node(node).kind {
            NodeKind::Text(text) => {
                let text = text.clone(); // appease the borrow of self
                self.index_text(&text, doc_id, p, next_pos);
            }
            NodeKind::Element { name, .. } => {
                let label = self.alias.resolve(name).to_string();
                let sid = cursor.enter(&mut self.summary, &label);
                self.summary.record_element(sid);
                let mark = *next_pos;
                for &child in &doc.node(node).children {
                    self.walk(doc, child, cursor, doc_id, p, next_pos)?;
                }
                cursor.leave();
                let length = *next_pos - mark;
                if length > 0 {
                    self.sinks[p].elements.insert(
                        sid,
                        ElementRef {
                            doc: doc_id,
                            end: *next_pos - 1,
                            length,
                        },
                    )?;
                    self.element_count += 1;
                    self.total_element_len += length as u64;
                }
            }
        }
        Ok(())
    }

    /// Collection statistics accumulated so far.
    pub fn stats(&self) -> CollectionStats {
        CollectionStats {
            doc_count: self.doc_count,
            element_count: self.element_count,
            avg_element_len: if self.element_count == 0 {
                0.0
            } else {
                self.total_element_len as f32 / self.element_count as f32
            },
        }
    }

    /// Number of documents indexed so far.
    pub fn doc_count(&self) -> u32 {
        self.doc_count
    }

    /// Writes posting lists, term statistics and catalog blobs; flushes
    /// every store. After this the index (every partition store, for
    /// partitioned builds) is complete (sans redundant RPL/ERPL lists) and
    /// can be opened with [`crate::TrexIndex::open`].
    ///
    /// Every sink receives the **same** catalog: global dictionary, summary,
    /// alias map, collection statistics and per-term df/cf — only the
    /// posting lists, element rows and stored documents are partition-local.
    /// That shared catalog is the byte-identity invariant (module docs).
    pub fn finish(self) -> Result<()> {
        let chunk_size = self.postings_chunk_size;

        // Global catalog state, encoded once and written to every store.
        let stats = CollectionStats {
            doc_count: self.doc_count,
            element_count: self.element_count,
            avg_element_len: if self.element_count == 0 {
                0.0
            } else {
                self.total_element_len as f32 / self.element_count as f32
            },
        };
        let dictionary_bytes = self.dictionary.encode();
        let summary_bytes = self.summary.encode();
        let alias_bytes = encode_alias(&self.alias);
        let stats_bytes = encode_stats(&stats);
        let analyzer_bytes = encode_analyzer(&self.analyzer);
        let mut term_stats: Vec<(TermId, (u32, u32, u64))> = self.term_stats.into_iter().collect();
        term_stats.sort_unstable_by_key(|(t, _)| *t);

        for sink in self.sinks {
            // Posting keys ascend across sorted terms and within each term,
            // so the whole table is built with one B+tree bulk load.
            let mut terms: Vec<(TermId, Vec<Position>)> = sink.postings.into_iter().collect();
            terms.sort_unstable_by_key(|(t, _)| *t);
            let entries = terms.iter().flat_map(|(term, positions)| {
                debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
                crate::postings::chunk_entries(*term, positions, chunk_size)
            });
            sink.store.create_table_bulk(POSTINGS_TABLE, entries)?;

            let mut stats_table = sink.store.open_or_create_table(TERM_STATS_TABLE)?;
            for &(term, (_, df, cf)) in &term_stats {
                put_term_stats(&mut stats_table, term, TermStats { df, cf })?;
            }

            let mut blobs = sink.store.open_or_create_table(BLOBS_TABLE)?;
            store_blob(&mut blobs, blob_names::DICTIONARY, &dictionary_bytes)?;
            store_blob(&mut blobs, blob_names::SUMMARY, &summary_bytes)?;
            store_blob(&mut blobs, blob_names::ALIAS, &alias_bytes)?;
            store_blob(&mut blobs, blob_names::STATS, &stats_bytes)?;
            store_blob(&mut blobs, blob_names::ANALYZER, &analyzer_bytes)?;

            // Create the (initially empty) RPL/ERPL tables now so they are
            // part of the final checkpoint. `TrexIndex::open` would
            // otherwise create them lazily on every open of a
            // never-materialised store, and a read-only session never
            // checkpoints, so recovery would discard (and re-report) those
            // uncommitted creations on each reopen.
            crate::RplTable::open(sink.store)?;
            crate::ErplTable::open(sink.store)?;

            sink.store.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrexIndex;
    use std::sync::Arc;

    fn build_and_open(name: &str, docs: &[&str]) -> (TrexIndex, std::path::PathBuf) {
        let mut path = std::env::temp_dir();
        path.push(format!("trex-build-{name}-{}", std::process::id()));
        let store = Store::create(&path, 128).unwrap();
        let mut builder = IndexBuilder::new(
            &store,
            SummaryKind::Incoming,
            AliasMap::inex_ieee(),
            Analyzer::default(),
        )
        .unwrap();
        for d in docs {
            builder.add_document(d).unwrap();
        }
        builder.finish().unwrap();
        (TrexIndex::open(Arc::new(store)).unwrap(), path)
    }

    #[test]
    fn end_to_end_build_and_reopen() {
        let docs = [
            "<article><bdy><sec>xml retrieval systems</sec><sec>query evaluation</sec></bdy></article>",
            "<article><bdy><ss1>xml indexing</ss1></bdy></article>",
        ];
        let (index, path) = build_and_open("e2e", &docs);

        // Dictionary knows the stemmed vocabulary.
        let xml_term = index.dictionary().lookup("xml").unwrap();
        assert!(index.dictionary().lookup("retriev").is_some());

        // Summary: article, bdy, sec (ss1 aliased into sec).
        assert_eq!(index.summary().node_count(), 3);
        let sec_sid = index.summary().sids_with_label("sec")[0];
        assert_eq!(index.summary().node(sec_sid).extent_size, 3);

        // Elements table has the three sec elements.
        let elements = index.elements().unwrap();
        assert_eq!(elements.extent_size(sec_sid).unwrap(), 3);

        // Postings: xml appears in both documents.
        let stats = index.term_stats(xml_term).unwrap();
        assert_eq!(stats.df, 2);
        assert_eq!(stats.cf, 2);
        let mut it = index.postings().unwrap().positions(xml_term).unwrap();
        let p1 = it.next_position().unwrap();
        let p2 = it.next_position().unwrap();
        assert_eq!((p1.doc, p2.doc), (0, 1));
        assert!(it.next_position().unwrap().is_max());

        // Collection stats.
        assert_eq!(index.stats().doc_count, 2);
        assert!(index.stats().avg_element_len > 0.0);

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn element_spans_cover_token_positions() {
        // Positions: "deep structure here" → 0,1,2 ("here" is not a stopword).
        let docs = ["<a><b>deep structure</b><c>here</c></a>"];
        let (index, path) = build_and_open("spans", &docs);
        let summary = index.summary();
        let b_sid = summary.sids_with_label("b")[0];
        let c_sid = summary.sids_with_label("c")[0];
        let a_sid = summary.sids_with_label("a")[0];
        let elements = index.elements().unwrap();
        let b = elements
            .extent(b_sid)
            .unwrap()
            .next_element()
            .unwrap()
            .unwrap();
        assert_eq!((b.start(), b.end, b.length), (0, 1, 2));
        let c = elements
            .extent(c_sid)
            .unwrap()
            .next_element()
            .unwrap()
            .unwrap();
        assert_eq!((c.start(), c.end, c.length), (2, 2, 1));
        let a = elements
            .extent(a_sid)
            .unwrap()
            .next_element()
            .unwrap()
            .unwrap();
        assert_eq!((a.start(), a.end, a.length), (0, 2, 3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_elements_are_not_indexed() {
        let docs = ["<a><empty/><b>word</b><gap></gap></a>"];
        let (index, path) = build_and_open("empty", &docs);
        let summary = index.summary();
        // Summary still records them (extent counts include empty elements)…
        assert!(summary.sids_with_label("empty").len() == 1);
        // …but the Elements table does not.
        let empty_sid = summary.sids_with_label("empty")[0];
        let elements = index.elements().unwrap();
        assert_eq!(elements.extent_size(empty_sid).unwrap(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stopwords_consume_positions_but_are_not_indexed() {
        let docs = ["<a>the query</a>"];
        let (index, path) = build_and_open("stop", &docs);
        assert!(index.dictionary().lookup("the").is_none());
        let a_sid = index.summary().sids_with_label("a")[0];
        let a = index
            .elements()
            .unwrap()
            .extent(a_sid)
            .unwrap()
            .next_element()
            .unwrap()
            .unwrap();
        assert_eq!(a.length, 2, "element length counts stopword tokens");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_interval_checkpoints_during_the_build() {
        let mut path = std::env::temp_dir();
        path.push(format!("trex-build-ckpt-{}", std::process::id()));
        let store = Store::create(&path, 128).unwrap();
        let mut builder = IndexBuilder::new(
            &store,
            SummaryKind::Incoming,
            AliasMap::identity(),
            Analyzer::default(),
        )
        .unwrap();
        builder.set_checkpoint_interval(Some(2));
        for i in 0..6 {
            builder
                .add_document(&format!("<a>doc number {i}</a>"))
                .unwrap();
        }
        let mid_build = store.counters().checkpoints.get();
        assert_eq!(mid_build, 3, "one checkpoint per two documents");
        builder.finish().unwrap();
        assert!(store.counters().checkpoints.get() > mid_build);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(trex_storage::wal_path(&path)).ok();
    }

    #[test]
    fn malformed_document_is_rejected() {
        let mut path = std::env::temp_dir();
        path.push(format!("trex-build-bad-{}", std::process::id()));
        let store = Store::create(&path, 64).unwrap();
        let mut builder = IndexBuilder::new(
            &store,
            SummaryKind::Incoming,
            AliasMap::identity(),
            Analyzer::default(),
        )
        .unwrap();
        assert!(matches!(
            builder.add_document("<a><b></a>"),
            Err(IndexError::Xml(_))
        ));
        drop(builder);
        drop(store);
        std::fs::remove_file(&path).ok();
    }
}
