//! The in-memory *delta index* for live document ingestion.
//!
//! A built store is sealed: `IndexBuilder::finish` appends every posting
//! list and writes the catalog blobs. To accept documents afterwards the
//! system stages them here — an in-memory overlay holding, per ingested
//! document, its element rows, its postings over the *frozen* base
//! dictionary, and its raw XML (a docstore overlay). Durability comes from
//! the storage layer's `KIND_INGEST` WAL record (logged before the document
//! becomes visible); a background *fold* periodically merges the delta into
//! the B+tree tables under the maintenance write gate and then checkpoints,
//! consuming the WAL records it made durable.
//!
//! Two invariants keep delta∪disk queries rank-safe:
//!
//! * **Frozen scoring inputs.** Ingestion never touches `CollectionStats`,
//!   existing terms' `TermStats`, or the structural summary. Delta matches
//!   are scored through the same `TrexIndex::score` path as disk matches,
//!   so an element's score is byte-identical before and after the fold.
//! * **Contiguous id prefix.** `ingest_guard` serialises allocate → stage →
//!   WAL-log → apply, so the delta's documents are always a contiguous
//!   suffix of the allocated id space and the fold can consume WAL records
//!   with a single doc-id watermark.
//!
//! Terms *not* in the base dictionary are staged as `new_terms` (keyed by
//! token text). They are unreachable by queries until a fold persists them
//! into the dictionary blob and the index is reopened — the frozen in-memory
//! dictionary cannot grow — which the design accepts: a brand-new term has
//! no statistics to score with anyway.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard, RwLock};
use trex_summary::{AliasMap, Sid, Summary, SummaryCursor};
use trex_text::{Analyzer, Dictionary, TermId};
use trex_xml::{Document, NodeId};

use crate::encode::{ElementRef, Position};
use crate::walk::{enter_existing, walk, Visitor};
use crate::{IndexError, Result};

/// One staged document: everything the fold needs to merge it into the
/// on-disk tables, and everything the query side needs to match against it.
#[derive(Debug, Clone)]
pub struct DeltaDoc {
    /// The allocated document id (higher than every built/folded id).
    pub doc_id: u32,
    /// Raw XML, kept for the docstore overlay and the fold's docstore write.
    pub xml: String,
    /// Element rows in document order: `(sid, element)`.
    pub elements: Vec<(Sid, ElementRef)>,
    /// Postings over the frozen base dictionary, positions ascending.
    pub postings: HashMap<TermId, Vec<Position>>,
    /// Postings of terms unknown to the base dictionary, keyed by token
    /// text; persisted (dictionary + postings + stats) at fold time.
    pub new_terms: HashMap<String, Vec<Position>>,
}

impl DeltaDoc {
    /// Approximate resident bytes (drives the fold threshold).
    pub fn approx_bytes(&self) -> u64 {
        let postings: usize = self.postings.values().map(|v| v.len() * 8 + 16).sum();
        let new_terms: usize = self
            .new_terms
            .iter()
            .map(|(t, v)| t.len() + v.len() * 8 + 32)
            .sum();
        (self.xml.len() + self.elements.len() * 16 + postings + new_terms) as u64
    }
}

/// One delta match: an element of a requested sid containing at least one
/// of the requested terms, with per-term frequencies (same inclusion rule
/// as ERA: emitted iff some `tf > 0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaMatch {
    /// Summary node of the element.
    pub sid: Sid,
    /// The element.
    pub element: ElementRef,
    /// `tf[i]` = occurrences of the i-th requested term inside the element.
    pub tf: Vec<u32>,
}

#[derive(Default)]
struct DeltaState {
    docs: Vec<DeltaDoc>,
    bytes: u64,
}

/// The in-memory delta index shared by ingestion, query evaluation, and the
/// background fold. Readers take the inner lock briefly to snapshot or scan;
/// writers (`apply`, `take_docs`) additionally run under the maintenance
/// write gate so queries never observe a half-applied document.
pub struct DeltaIndex {
    state: RwLock<DeltaState>,
    /// Next id to hand out; `u32::MAX` itself is never allocated (it is the
    /// `m-pos` sentinel's document id).
    next_doc_id: AtomicU32,
    /// Serialises allocate → stage → WAL-log → apply across ingest calls.
    ingest_lock: Mutex<()>,
    /// Documents folded into the B+tree tables over this index's lifetime
    /// (observability; the fold reports it).
    folded_docs: AtomicU64,
}

impl DeltaIndex {
    /// An empty delta whose first allocated id will be `next_doc_id`.
    pub fn new(next_doc_id: u32) -> DeltaIndex {
        DeltaIndex {
            state: RwLock::new(DeltaState::default()),
            next_doc_id: AtomicU32::new(next_doc_id),
            ingest_lock: Mutex::new(()),
            folded_docs: AtomicU64::new(0),
        }
    }

    /// Takes the ingest serialisation lock. Hold the guard across
    /// [`DeltaIndex::peek_next_doc_id`], staging, WAL logging and
    /// [`DeltaIndex::apply`] so concurrent ingests cannot interleave.
    pub fn ingest_guard(&self) -> MutexGuard<'_, ()> {
        self.ingest_lock.lock()
    }

    /// The id the next successful ingest will use. Fails once the id space
    /// is exhausted — the caller must surface this as a typed error, never
    /// wrap.
    pub fn peek_next_doc_id(&self) -> Result<u32> {
        let id = self.next_doc_id.load(Ordering::Acquire);
        if id == u32::MAX {
            return Err(IndexError::DocIdsExhausted);
        }
        Ok(id)
    }

    /// Makes a staged document visible and advances the allocator. Call
    /// under the ingest guard *and* the maintenance write gate (the gate's
    /// generation bump is what invalidates serve-layer caches).
    pub fn apply(&self, doc: DeltaDoc) {
        let next = doc.doc_id.saturating_add(1);
        let mut state = self.state.write();
        state.bytes += doc.approx_bytes();
        state.docs.push(doc);
        self.next_doc_id.fetch_max(next, Ordering::AcqRel);
    }

    /// Number of staged (unfolded) documents.
    pub fn doc_count(&self) -> usize {
        self.state.read().docs.len()
    }

    /// Whether the delta holds no documents.
    pub fn is_empty(&self) -> bool {
        self.state.read().docs.is_empty()
    }

    /// Approximate resident bytes of the staged documents.
    pub fn approx_bytes(&self) -> u64 {
        self.state.read().bytes
    }

    /// Total documents folded to disk over this index's lifetime.
    pub fn folded_docs(&self) -> u64 {
        self.folded_docs.load(Ordering::Relaxed)
    }

    /// The raw XML of a staged document (docstore overlay), if present.
    pub fn document(&self, doc_id: u32) -> Option<String> {
        let state = self.state.read();
        state
            .docs
            .iter()
            .find(|d| d.doc_id == doc_id)
            .map(|d| d.xml.clone())
    }

    /// Matches the delta against a translated query — the delta-side ERA.
    /// Returns every staged element whose sid is in `sids` and which
    /// contains at least one of `terms`, with exact per-term frequencies.
    /// Mirrors ERA's inclusion rule (`EraMatch` is emitted iff some
    /// `tf > 0`), so scoring the result through `TrexIndex::score` yields
    /// exactly what ERA would produce after a fold.
    pub fn matches(&self, sids: &[Sid], terms: &[TermId]) -> Vec<DeltaMatch> {
        if sids.is_empty() || terms.is_empty() {
            return Vec::new();
        }
        let state = self.state.read();
        let mut out = Vec::new();
        for doc in &state.docs {
            for &(sid, element) in &doc.elements {
                if !sids.contains(&sid) {
                    continue;
                }
                let mut tf = vec![0u32; terms.len()];
                let mut any = false;
                for (i, term) in terms.iter().enumerate() {
                    if let Some(positions) = doc.postings.get(term) {
                        let n = positions.iter().filter(|p| element.contains(**p)).count() as u32;
                        if n > 0 {
                            tf[i] = n;
                            any = true;
                        }
                    }
                }
                if any {
                    out.push(DeltaMatch { sid, element, tf });
                }
            }
        }
        out
    }

    /// Number of delta entries the pair `(term, sid)` would add to a
    /// redundant list — the advisor adds this to on-disk list sizes so
    /// budget selection stays honest while documents are staged.
    pub fn list_entries(&self, term: TermId, sid: Sid) -> u64 {
        self.matches(&[sid], &[term]).len() as u64
    }

    /// Drains every staged document for a fold, resetting the byte count.
    /// Call under the maintenance write gate: appliers block on the gate,
    /// so the drained set is exactly the visible set and queries switch
    /// atomically from delta to disk when the gate drops.
    pub fn take_docs(&self) -> Vec<DeltaDoc> {
        let mut state = self.state.write();
        state.bytes = 0;
        let docs = std::mem::take(&mut state.docs);
        self.folded_docs
            .fetch_add(docs.len() as u64, Ordering::Relaxed);
        docs
    }

    /// Re-applies a recovered document at open time (WAL replay). Not
    /// gated: recovery runs before the index is shared.
    pub fn note_recovered(&self, doc: DeltaDoc) {
        self.apply(doc);
    }
}

/// Stages one document against the frozen catalog: parses it and walks it
/// with [`SummaryCursor::enter_existing`] (the summary is *not* mutated — a
/// path the summary does not know is a typed error), splitting postings
/// into base-dictionary terms and new terms. The walk is the build's, so a
/// fold writes the element spans and positions a rebuild from scratch
/// would.
pub fn stage_document(
    doc_id: u32,
    xml: &str,
    summary: &Summary,
    alias: &AliasMap,
    dictionary: &Dictionary,
    analyzer: Analyzer,
) -> Result<DeltaDoc> {
    let doc = Document::parse(xml).map_err(IndexError::Xml)?;
    let mut rows = StageRows {
        summary,
        dictionary,
        staged: DeltaDoc {
            doc_id,
            xml: xml.to_string(),
            elements: Vec::new(),
            postings: HashMap::new(),
            new_terms: HashMap::new(),
        },
    };
    walk(&doc, doc_id, alias, analyzer, &mut rows)?;
    Ok(rows.staged)
}

/// The staging side of the document walk.
struct StageRows<'c> {
    summary: &'c Summary,
    dictionary: &'c Dictionary,
    staged: DeltaDoc,
}

impl Visitor for StageRows<'_> {
    fn enter(&mut self, cursor: &mut SummaryCursor, label: &str) -> Result<Sid> {
        enter_existing(cursor, self.summary, label)
    }

    fn token(&mut self, text: String, at: Position) {
        match self.dictionary.lookup(&text) {
            Some(term) => self.staged.postings.entry(term).or_default().push(at),
            None => self.staged.new_terms.entry(text).or_default().push(at),
        }
    }

    fn element(&mut self, _node: NodeId, sid: Sid, element: ElementRef) -> Result<()> {
        self.staged.elements.push((sid, element));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_summary::SummaryKind;

    /// The build's sid step and interning, without a store.
    struct Seed {
        summary: Summary,
        dictionary: Dictionary,
    }

    impl Visitor for Seed {
        fn enter(&mut self, cursor: &mut SummaryCursor, label: &str) -> Result<Sid> {
            let sid = cursor.enter(&mut self.summary, label);
            self.summary.record_element(sid);
            Ok(sid)
        }

        fn token(&mut self, text: String, _at: Position) {
            self.dictionary.intern(&text);
        }

        fn element(&mut self, _node: NodeId, _sid: Sid, _element: ElementRef) -> Result<()> {
            Ok(())
        }
    }

    /// Builds a frozen catalog over one seed document.
    fn frozen_catalog(seed: &str) -> (Summary, AliasMap, Dictionary, Analyzer) {
        let alias = AliasMap::identity();
        let analyzer = Analyzer::default();
        let mut rows = Seed {
            summary: Summary::new(SummaryKind::Incoming),
            dictionary: Dictionary::new(),
        };
        let doc = Document::parse(seed).unwrap();
        walk(&doc, 0, &alias, analyzer, &mut rows).unwrap();
        (rows.summary, alias, rows.dictionary, analyzer)
    }

    #[test]
    fn staging_mirrors_builder_output() {
        let (summary, alias, dictionary, analyzer) =
            frozen_catalog("<a><b>xml retrieval</b><c>engines</c></a>");
        let staged = stage_document(
            7,
            "<a><b>xml systems</b><c>retrieval</c></a>",
            &summary,
            &alias,
            &dictionary,
            analyzer,
        )
        .unwrap();
        assert_eq!(staged.doc_id, 7);
        // a (len 3), b (len 2), c (len 1) — same spans the builder produces.
        let spans: Vec<(u32, u32)> = staged
            .elements
            .iter()
            .map(|(_, e)| (e.start(), e.end))
            .collect();
        assert!(spans.contains(&(0, 1)), "b spans tokens 0..=1");
        assert!(spans.contains(&(2, 2)), "c is token 2");
        assert!(spans.contains(&(0, 2)), "a spans all three");
        // "xml" and "retrieval" hit the base dictionary; "systems" is new.
        let xml_term = dictionary.lookup("xml").unwrap();
        assert_eq!(staged.postings[&xml_term].len(), 1);
        assert_eq!(staged.new_terms.len(), 1);
        let (new_term, positions) = staged.new_terms.iter().next().unwrap();
        assert!(dictionary.lookup(new_term).is_none());
        assert_eq!(positions.len(), 1);
    }

    #[test]
    fn unknown_path_is_a_typed_error() {
        let (summary, alias, dictionary, analyzer) = frozen_catalog("<a><b>text</b></a>");
        let err = stage_document(
            1,
            "<a><z>text</z></a>",
            &summary,
            &alias,
            &dictionary,
            analyzer,
        )
        .unwrap_err();
        assert!(matches!(err, IndexError::UnknownPath(ref l) if l == "z"));
    }

    #[test]
    fn matches_follow_era_inclusion_rule() {
        let (summary, alias, dictionary, analyzer) =
            frozen_catalog("<a><b>xml retrieval</b><c>engines</c></a>");
        let delta = DeltaIndex::new(5);
        let staged = stage_document(
            5,
            "<a><b>xml xml</b><c>engines</c></a>",
            &summary,
            &alias,
            &dictionary,
            analyzer,
        )
        .unwrap();
        delta.apply(staged);

        let b_sid = summary.sids_with_label("b")[0];
        let c_sid = summary.sids_with_label("c")[0];
        let xml = dictionary.lookup("xml").unwrap();
        let engines = dictionary.lookup("engin").unwrap();

        let m = delta.matches(&[b_sid, c_sid], &[xml, engines]);
        assert_eq!(m.len(), 2);
        let b = m.iter().find(|m| m.sid == b_sid).unwrap();
        assert_eq!(b.tf, vec![2, 0], "tf counts within the element span");
        let c = m.iter().find(|m| m.sid == c_sid).unwrap();
        assert_eq!(c.tf, vec![0, 1]);
        // An element containing no requested term is not emitted.
        assert!(delta.matches(&[c_sid], &[xml]).is_empty());
        assert_eq!(delta.list_entries(xml, b_sid), 1);
        assert_eq!(delta.list_entries(xml, c_sid), 0);
    }

    #[test]
    fn doc_id_allocation_fails_cleanly_at_the_boundary() {
        let delta = DeltaIndex::new(u32::MAX - 1);
        assert_eq!(delta.peek_next_doc_id().unwrap(), u32::MAX - 1);
        let doc = DeltaDoc {
            doc_id: u32::MAX - 1,
            xml: String::new(),
            elements: Vec::new(),
            postings: HashMap::new(),
            new_terms: HashMap::new(),
        };
        delta.apply(doc);
        assert!(matches!(
            delta.peek_next_doc_id(),
            Err(IndexError::DocIdsExhausted)
        ));
    }

    #[test]
    fn take_docs_drains_and_counts() {
        let delta = DeltaIndex::new(0);
        for id in 0..3 {
            delta.apply(DeltaDoc {
                doc_id: id,
                xml: "<a>x</a>".into(),
                elements: Vec::new(),
                postings: HashMap::new(),
                new_terms: HashMap::new(),
            });
        }
        assert_eq!(delta.doc_count(), 3);
        assert!(delta.approx_bytes() > 0);
        assert_eq!(delta.document(1), Some("<a>x</a>".to_string()));
        let drained = delta.take_docs();
        assert_eq!(drained.len(), 3);
        assert!(delta.is_empty());
        assert_eq!(delta.approx_bytes(), 0);
        assert_eq!(delta.folded_docs(), 3);
        assert_eq!(delta.peek_next_doc_id().unwrap(), 3);
    }
}
