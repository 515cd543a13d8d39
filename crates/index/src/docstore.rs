//! Optional storage of the original documents, enabling snippet retrieval:
//! mapping an answer element back to the XML fragment it denotes.
//!
//! The paper's system returns elements identified by (docid, endpos); a
//! usable retrieval system must be able to show the user the element
//! itself. Documents are stored as chunked blobs in their own table.

use trex_storage::{Result, Store, Table};
use trex_summary::{AliasMap, Sid, Summary, SummaryCursor};
use trex_text::Analyzer;
use trex_xml::{Document, NodeId};

use crate::catalog::{load_blob, store_blob};
use crate::encode::ElementRef;
use crate::walk::{enter_existing, walk, Visitor};
use crate::IndexError;

/// Name of the document table inside the store.
pub const DOCUMENTS_TABLE: &str = "documents";

/// Write access used by the index builder.
pub struct DocStoreWriter {
    table: Table,
}

impl DocStoreWriter {
    /// Opens (creating on first use) the document table.
    pub fn open(store: &Store) -> Result<DocStoreWriter> {
        Ok(DocStoreWriter {
            table: store.open_or_create_table(DOCUMENTS_TABLE)?,
        })
    }

    /// Stores the raw XML of document `doc_id`.
    pub fn put(&mut self, doc_id: u32, xml: &str) -> Result<()> {
        store_blob(&mut self.table, &doc_id.to_string(), xml.as_bytes())
    }
}

/// Read access: fetch documents and cut element snippets.
pub struct DocStore {
    table: Table,
}

impl DocStore {
    /// Opens the document table; errors if the index was built without
    /// document storage.
    pub fn open(store: &Store) -> Result<DocStore> {
        Ok(DocStore {
            table: store.open_table(DOCUMENTS_TABLE)?,
        })
    }

    /// The raw XML of document `doc_id`, if stored.
    pub fn document(&self, doc_id: u32) -> Result<Option<String>> {
        Ok(load_blob(&self.table, &doc_id.to_string())?
            .map(|bytes| String::from_utf8_lossy(&bytes).into_owned()))
    }

    /// Serialises the answer element `(sid, element)` of its document back
    /// to XML, by re-walking the document against the index's catalog and
    /// locating the element with that sid and span. Returns `None` when the
    /// document is not stored, no longer parses, has a path the summary
    /// does not know, or has no such element (e.g. a stale answer).
    pub fn snippet(
        &self,
        sid: Sid,
        element: ElementRef,
        summary: &Summary,
        alias: &AliasMap,
        analyzer: Analyzer,
    ) -> crate::Result<Option<String>> {
        let Some(xml) = self.document(element.doc)? else {
            return Ok(None);
        };
        let Ok(doc) = Document::parse(&xml) else {
            return Ok(None); // stored bytes no longer parse
        };
        let mut locate = Locate {
            summary,
            want: (sid, element),
            found: None,
        };
        match walk(&doc, element.doc, alias, analyzer, &mut locate) {
            Ok(()) | Err(IndexError::UnknownPath(_)) => {}
            Err(e) => return Err(e),
        }
        Ok(locate.found.map(|id| {
            let mut out = String::new();
            write_subtree(&doc, id, &mut out);
            out
        }))
    }
}

/// The snippet side of the document walk: the first element, in the walk's
/// post-order, whose sid and span are the answer's.
struct Locate<'s> {
    summary: &'s Summary,
    want: (Sid, ElementRef),
    found: Option<NodeId>,
}

impl Visitor for Locate<'_> {
    fn enter(&mut self, cursor: &mut SummaryCursor, label: &str) -> crate::Result<Sid> {
        enter_existing(cursor, self.summary, label)
    }

    fn element(&mut self, node: NodeId, sid: Sid, element: ElementRef) -> crate::Result<()> {
        if self.found.is_none() && (sid, element) == self.want {
            self.found = Some(node);
        }
        Ok(())
    }
}

fn write_subtree(doc: &Document, id: NodeId, out: &mut String) {
    let Some(name) = doc.name(id) else {
        out.push_str(&trex_xml::escape::escape_text(&doc.text_content(id)));
        return;
    };
    out.push('<');
    out.push_str(name);
    out.push('>');
    for &c in &doc.node(id).children {
        write_subtree(doc, c, out);
    }
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_store<R>(name: &str, f: impl FnOnce(&Store) -> R) -> R {
        let mut path = std::env::temp_dir();
        path.push(format!("trex-docstore-{name}-{}", std::process::id()));
        let store = Store::create(&path, 64).unwrap();
        let r = f(&store);
        drop(store);
        std::fs::remove_file(&path).ok();
        r
    }

    #[test]
    fn documents_round_trip_including_large_ones() {
        with_store("rt", |store| {
            let mut w = DocStoreWriter::open(store).unwrap();
            let small = "<a>tiny</a>".to_string();
            let large = format!("<a>{}</a>", "word ".repeat(5000));
            w.put(0, &small).unwrap();
            w.put(1, &large).unwrap();
            let r = DocStore::open(store).unwrap();
            assert_eq!(r.document(0).unwrap().unwrap(), small);
            assert_eq!(r.document(1).unwrap().unwrap(), large);
            assert!(r.document(7).unwrap().is_none());
        });
    }

    /// A summary holding the one path `labels`, and each label's sid.
    fn path_summary(labels: &[&str]) -> (Summary, Vec<Sid>) {
        let mut summary = Summary::new(trex_summary::SummaryKind::Incoming);
        let mut cursor = SummaryCursor::new();
        let sids = labels
            .iter()
            .map(|label| cursor.enter(&mut summary, label))
            .collect();
        (summary, sids)
    }

    fn el(doc: u32, end: u32, length: u32) -> ElementRef {
        ElementRef { doc, end, length }
    }

    #[test]
    fn snippet_locates_the_right_element() {
        with_store("snippet", |store| {
            let mut w = DocStoreWriter::open(store).unwrap();
            let xml = "<article><sec>alpha beta</sec><sec>gamma delta epsilon</sec></article>";
            w.put(0, xml).unwrap();
            let r = DocStore::open(store).unwrap();
            let (summary, sids) = path_summary(&["article", "sec"]);
            let alias = AliasMap::identity();
            let snippet = |sid, element| {
                r.snippet(sid, element, &summary, &alias, Analyzer::verbatim())
                    .unwrap()
            };
            // Second sec spans tokens [2, 4], length 3.
            assert_eq!(
                snippet(sids[1], el(0, 4, 3)).unwrap(),
                "<sec>gamma delta epsilon</sec>"
            );
            // The whole article spans [0, 4], length 5.
            assert!(snippet(sids[0], el(0, 4, 5))
                .unwrap()
                .starts_with("<article>"));
            // A span with another element's sid is not that element.
            assert!(snippet(sids[0], el(0, 4, 3)).is_none());
        });
    }

    #[test]
    fn snippet_of_unknown_span_is_none() {
        with_store("unknown", |store| {
            let mut w = DocStoreWriter::open(store).unwrap();
            w.put(0, "<a>one two</a>").unwrap();
            w.put(1, "<b>one two</b>").unwrap();
            let r = DocStore::open(store).unwrap();
            let (summary, sids) = path_summary(&["a"]);
            let alias = AliasMap::identity();
            let snippet = |element| {
                r.snippet(sids[0], element, &summary, &alias, Analyzer::verbatim())
                    .unwrap()
            };
            assert!(snippet(el(0, 9, 3)).is_none());
            assert!(snippet(el(5, 1, 1)).is_none());
            // A stored document whose path the summary does not know.
            assert!(snippet(el(1, 1, 2)).is_none());
        });
    }
}
