//! Cross-checks the built index against naive recomputation from the raw
//! documents: postings, element spans, term statistics.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use trex_index::{IndexBuilder, Position, TrexIndex};
use trex_storage::Store;
use trex_summary::{AliasMap, SummaryKind};
use trex_text::{Analyzer, Token};
use trex_xml::{Document, NodeKind};

fn build(name: &str, docs: &[String]) -> (TrexIndex, std::path::PathBuf) {
    let mut path = std::env::temp_dir();
    path.push(format!("trex-consistency-{name}-{}", std::process::id()));
    let store = Store::create(&path, 128).unwrap();
    let mut builder = IndexBuilder::new(
        &store,
        SummaryKind::Incoming,
        AliasMap::identity(),
        Analyzer::default(),
    )
    .unwrap();
    for d in docs {
        builder.add_document(d).unwrap();
    }
    builder.finish().unwrap();
    (TrexIndex::open(Arc::new(store)).unwrap(), path)
}

/// Recomputes, per document, the analyzed token stream the way the indexer
/// is specified to see it: text nodes in document order, positions shared
/// with (skipped) stopwords.
fn naive_tokens(doc: &Document) -> Vec<Token> {
    let analyzer = Analyzer::default();
    let mut next = 0u32;
    let mut out = Vec::new();
    collect(doc, doc.root(), &analyzer, &mut next, &mut out);
    out
}

fn collect(
    doc: &Document,
    node: trex_xml::NodeId,
    analyzer: &Analyzer,
    next: &mut u32,
    out: &mut Vec<Token>,
) {
    match &doc.node(node).kind {
        NodeKind::Text(t) => {
            let (tokens, n) = analyzer.analyze_from(t, *next);
            *next = n;
            out.extend(tokens);
        }
        NodeKind::Element { .. } => {
            for &c in &doc.node(node).children {
                collect(doc, c, analyzer, next, out);
            }
        }
    }
}

#[test]
fn postings_match_naive_token_scan() {
    let docs: Vec<String> = vec![
        "<a><s>the quick brown fox</s><s>jumps over the lazy dog</s></a>".into(),
        "<a><s>quick quick slow</s><t>brown</t></a>".into(),
    ];
    let (index, path) = build("postings", &docs);

    // Naive per-term position lists.
    let mut naive: HashMap<String, Vec<Position>> = HashMap::new();
    for (doc_id, xml) in docs.iter().enumerate() {
        let doc = Document::parse(xml).unwrap();
        for token in naive_tokens(&doc) {
            naive.entry(token.text).or_default().push(Position {
                doc: doc_id as u32,
                offset: token.position,
            });
        }
    }

    let postings = index.postings().unwrap();
    for (term_text, positions) in &naive {
        let term = index
            .dictionary()
            .lookup(term_text)
            .unwrap_or_else(|| panic!("{term_text} missing from dictionary"));
        let mut it = postings.positions(term).unwrap();
        for &want in positions {
            assert_eq!(it.next_position().unwrap(), want, "term {term_text}");
        }
        assert!(it.next_position().unwrap().is_max());
        // Stats agree with the naive counts.
        let stats = index.term_stats(term).unwrap();
        assert_eq!(stats.cf as usize, positions.len(), "cf of {term_text}");
        let df_naive = positions
            .iter()
            .map(|p| p.doc)
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert_eq!(stats.df as usize, df_naive, "df of {term_text}");
    }
    // Dictionary has nothing beyond the naive vocabulary.
    assert_eq!(index.dictionary().len(), naive.len());
    std::fs::remove_file(&path).ok();
}

#[test]
fn element_spans_nest_consistently() {
    let docs: Vec<String> =
        vec!["<a><b>one two <c>three</c></b><d>four <e>five six</e> seven</d></a>".into()];
    let (index, path) = build("nesting", &docs);
    let summary = index.summary();
    let elements = index.elements().unwrap();

    // Gather all stored elements with their labels.
    let mut all = Vec::new();
    for sid in 1..=summary.node_count() as u32 {
        let mut it = elements.extent(sid).unwrap();
        while let Some(e) = it.next_element().unwrap() {
            all.push((summary.node(sid).label.clone(), e));
        }
    }
    // Spans must be laminar: any two either nest or are disjoint.
    for (la, a) in &all {
        for (lb, b) in &all {
            if a == b {
                continue;
            }
            let disjoint = a.end < b.start() || b.end < a.start();
            let a_in_b = b.start() <= a.start() && a.end <= b.end;
            let b_in_a = a.start() <= b.start() && b.end <= a.end;
            assert!(
                disjoint || a_in_b || b_in_a,
                "{la} {a:?} and {lb} {b:?} overlap without nesting"
            );
        }
    }
    // Root covers everything.
    let (_, root) = all.iter().find(|(l, _)| l == "a").unwrap();
    assert_eq!(root.start(), 0);
    assert_eq!(root.length, 7);
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random flat documents: the sum of extent sizes equals the number of
    /// non-empty elements, and every posting position lies inside its
    /// document's token range.
    #[test]
    fn prop_extents_and_positions_are_in_range(
        words in proptest::collection::vec(
            proptest::collection::vec("[a-z]{2,8}", 0..6),
            1..8,
        )
    ) {
        let docs: Vec<String> = words
            .iter()
            .map(|sections| {
                let body: String = sections
                    .iter()
                    .map(|w| format!("<s>{w}</s>"))
                    .collect();
                format!("<a>{body}</a>")
            })
            .collect();
        let suffix: u64 = words.iter().flatten().map(|w| w.len() as u64).sum();
        let (index, path) = build(&format!("prop-{suffix}-{}", words.len()), &docs);

        let postings = index.postings().unwrap();
        for (term, _text) in index.dictionary().iter().map(|(id, t)| (id, t.to_string())) {
            let mut it = postings.positions(term).unwrap();
            loop {
                let p = it.next_position().unwrap();
                if p.is_max() {
                    break;
                }
                prop_assert!((p.doc as usize) < docs.len());
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
