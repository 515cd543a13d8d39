//! A fold writes the rows a build would: building A∪B gives the same
//! element rows, postings and stored documents as building A, ingesting B
//! and folding it, when B only uses paths A already has. Postings are
//! compared per term *text*, since the fold interns B's new terms in
//! sorted order where the build interns them in encounter order.

use std::path::{Path, PathBuf};

use trex::{TrexConfig, TrexSystem};

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("trex-fold-eq-{name}-{}.db", std::process::id()))
}

fn config(store: &Path) -> TrexConfig {
    let mut config = TrexConfig::new(store);
    config.store_documents = true;
    config
}

const A: [&str; 3] = [
    "<article><fm><ti>xml query evaluation</ti></fm><bdy><sec><st>top-k lists</st>\
     <p>the summary of a collection</p></sec><sec><p>keyword indexes</p></sec></bdy></article>",
    "<article><bdy><sec><p>element scores</p><p>xml</p></sec></bdy></article>",
    "<article><bdy><sec>ranked <ss1>answers</ss1></sec></bdy></article>",
];

/// Only A's paths (`ss1` aliases into `sec`); a word split by a comment,
/// a CDATA run, stopwords, an empty element, a `sec` whose only child `p`
/// shares its span, and terms A never saw beside terms it did.
const B: [&str; 3] = [
    "<article><bdy><sec>xml retr<!-- split -->ieval of the elements</sec>\
     <sec><p>keyword</p></sec></bdy></article>",
    "<article><fm><ti>a <![CDATA[cdata <run> & more]]> title</ti></fm><bdy><sec><p></p>\
     <ss1>query answers</ss1></sec></bdy></article>",
    "<?xml version=\"1.0\"?><article><bdy><sec><st>novel</st><p>summary indexes</p></sec>\
     </bdy></article>",
];

/// Every element row, in key order: `(sid, doc, end, length)`.
fn element_rows(system: &TrexSystem) -> Vec<(u32, u32, u32, u32)> {
    let mut rows = Vec::new();
    let mut it = system.index().elements().unwrap().scan_all().unwrap();
    while let Some(row) = it.next_row().unwrap() {
        let e = row.element;
        rows.push((row.sid, e.doc, e.end, e.length));
    }
    rows
}

/// Every posting of the term spelled `text`, as `(doc, offset)`.
fn positions(system: &TrexSystem, text: &str) -> Vec<(u32, u32)> {
    let index = system.index();
    let term = index
        .dictionary()
        .lookup(text)
        .unwrap_or_else(|| panic!("term {text:?} missing"));
    let mut it = index.postings().unwrap().positions(term).unwrap();
    let mut out = Vec::new();
    loop {
        let p = it.next_position().unwrap();
        if p.is_max() {
            return out;
        }
        out.push((p.doc, p.offset));
    }
}

fn remove(store: &Path) {
    std::fs::remove_file(store).ok();
    std::fs::remove_file(trex::storage::wal_path(store)).ok();
}

#[test]
fn fold_writes_the_rows_a_build_writes() {
    let built_path = temp("built");
    let folded_path = temp("folded");
    let all = A.iter().chain(&B).map(|d| d.to_string());
    let built = TrexSystem::build(config(&built_path), all).unwrap();

    {
        let base = TrexSystem::build(config(&folded_path), A.map(String::from)).unwrap();
        for doc in B {
            base.ingest_document(doc).unwrap();
        }
        let report = base.fold_once().unwrap().expect("the delta holds B");
        assert_eq!(report.docs_folded, B.len());
        assert!(report.new_terms > 0, "B brings new terms");
    }
    // New terms reach the dictionary through the fold's catalog write,
    // which a reopen loads.
    let folded = TrexSystem::open(TrexConfig::new(&folded_path)).unwrap();

    let first_b = A.len() as u32;
    let rows = element_rows(&built);
    assert!(rows.iter().any(|r| r.1 >= first_b), "B has element rows");
    assert_eq!(element_rows(&folded), rows, "element rows per sid");

    let vocabulary: Vec<String> = built
        .index()
        .dictionary()
        .iter()
        .map(|(_, text)| text.to_string())
        .collect();
    assert_eq!(folded.index().dictionary().len(), vocabulary.len());
    for word in ["retriev", "cdata", "novel"] {
        assert!(vocabulary.iter().any(|t| t == word), "{word} indexed");
        assert!(
            positions(&built, word).iter().all(|p| p.0 >= first_b),
            "{word} is new in B"
        );
    }
    for text in &vocabulary {
        assert_eq!(positions(&folded, text), positions(&built, text), "{text}");
    }

    for (i, doc) in B.iter().enumerate() {
        let id = first_b + i as u32;
        assert_eq!(folded.document(id).unwrap().as_deref(), Some(*doc));
        assert_eq!(built.document(id).unwrap().as_deref(), Some(*doc));
    }

    drop((built, folded));
    remove(&built_path);
    remove(&folded_path);
}
