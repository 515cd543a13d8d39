//! Property test: ERA (the zig-zag of paper Fig. 2) is equivalent to the
//! obvious quadratic evaluation — for every element in the requested
//! extents, count the occurrences of every term inside its span.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use trex_core::era::era;
use trex_core::Deadline;
use trex_index::{ElementRef, IndexBuilder, TrexIndex};
use trex_storage::Store;
use trex_summary::{AliasMap, Sid, SummaryKind};
use trex_text::Analyzer;

fn build(name: &str, docs: &[String]) -> (TrexIndex, std::path::PathBuf) {
    let mut path = std::env::temp_dir();
    path.push(format!("trex-eravn-{name}-{}", std::process::id()));
    let store = Store::create(&path, 128).unwrap();
    // Verbatim analyzer: no stopwords/stemming, so the naive model below is
    // a straightforward token count.
    let mut builder = IndexBuilder::new(
        &store,
        SummaryKind::Incoming,
        AliasMap::identity(),
        Analyzer::verbatim(),
    )
    .unwrap();
    for d in docs {
        builder.add_document(d).unwrap();
    }
    builder.finish().unwrap();
    (TrexIndex::open(Arc::new(store)).unwrap(), path)
}

/// Naive evaluation: walk every extent element and count term positions in
/// its span via the posting lists.
fn naive(index: &TrexIndex, sids: &[Sid], terms: &[u32]) -> HashMap<(Sid, ElementRef), Vec<u32>> {
    let elements = index.elements().unwrap();
    let postings = index.postings().unwrap();
    // Materialise all positions per term.
    let mut term_positions: Vec<Vec<trex_index::Position>> = Vec::new();
    for &t in terms {
        let mut it = postings.positions(t).unwrap();
        let mut v = Vec::new();
        loop {
            let p = it.next_position().unwrap();
            if p.is_max() {
                break;
            }
            v.push(p);
        }
        term_positions.push(v);
    }
    let mut out = HashMap::new();
    for &sid in sids {
        let mut it = elements.extent(sid).unwrap();
        while let Some(e) = it.next_element().unwrap() {
            let tf: Vec<u32> = term_positions
                .iter()
                .map(|ps| ps.iter().filter(|p| e.contains(**p)).count() as u32)
                .collect();
            if tf.iter().any(|&c| c > 0) {
                out.insert((sid, e), tf);
            }
        }
    }
    out
}

/// Builds a random document from a tiny vocabulary with nested sections so
/// extents overlap heavily.
fn doc_strategy() -> impl Strategy<Value = String> {
    let word = proptest::sample::select(vec!["cat", "dog", "fox", "owl", "ant"]);
    let para = proptest::collection::vec(word, 0..6).prop_map(|ws| ws.join(" "));
    proptest::collection::vec((para.clone(), proptest::collection::vec(para, 0..3)), 1..5).prop_map(
        |sections| {
            let mut xml = String::from("<a>");
            for (lead, subs) in sections {
                xml.push_str("<s>");
                xml.push_str(&lead);
                for sub in subs {
                    xml.push_str("<ss>");
                    xml.push_str(&sub);
                    xml.push_str("</ss>");
                }
                xml.push_str("</s>");
            }
            xml.push_str("</a>");
            xml
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn prop_era_equals_naive(
        docs in proptest::collection::vec(doc_strategy(), 1..5),
        pick_terms in proptest::collection::vec(0usize..5, 1..4),
    ) {
        let hash: u64 = docs.iter().map(|d| d.len() as u64).sum::<u64>()
            ^ (pick_terms.len() as u64) << 32;
        let (index, path) = build(&format!("{hash}"), &docs);

        // Query over every extent (a, s, ss where present) and the chosen terms.
        let sids: Vec<Sid> = (1..=index.summary().node_count() as Sid).collect();
        let vocab = ["cat", "dog", "fox", "owl", "ant"];
        let mut terms: Vec<u32> = pick_terms
            .iter()
            .filter_map(|&i| index.dictionary().lookup(vocab[i]))
            .collect();
        terms.sort_unstable();
        terms.dedup();
        prop_assume!(!terms.is_empty());

        let elements = index.elements().unwrap();
        let postings = index.postings().unwrap();
        let (matches, _) = era(&elements, &postings, &sids, &terms, Deadline::none()).unwrap();

        let got: HashMap<(Sid, ElementRef), Vec<u32>> = matches
            .into_iter()
            .map(|m| ((m.sid, m.element), m.tf))
            .collect();
        let want = naive(&index, &sids, &terms);
        prop_assert_eq!(got, want);
        std::fs::remove_file(&path).ok();
    }
}
