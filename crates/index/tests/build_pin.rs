//! Pins the base tables a build writes: element rows, postings, term
//! statistics, catalog blobs and stored documents. A fixed corpus is built
//! through `IndexBuilder` with the document store on, once into a single
//! store and once routed over two partition stores; every record of the
//! five tables of each store is hashed, and the digest must equal the
//! constant below. A change to the element-span rule, token positions,
//! term interning, the catalog encodings or the stored bytes moves the
//! digest; a refactor of the build path must not.

use trex_index::catalog::{BLOBS_TABLE, TERM_STATS_TABLE};
use trex_index::docstore::DOCUMENTS_TABLE;
use trex_index::elements::ELEMENTS_TABLE;
use trex_index::postings::POSTINGS_TABLE;
use trex_index::IndexBuilder;
use trex_storage::Store;
use trex_summary::{AliasMap, SummaryKind};
use trex_text::Analyzer;

/// The digest of every record the builds of [`CORPUS`] leave on disk.
const BUILD_DIGEST: u64 = 0x06bc_ef82_2df1_7951;

/// Nested elements, stopwords, an empty element, a parent and child that
/// share one span (`sec` over `p`), a word split by a comment, a CDATA run,
/// a processing instruction and an aliased tag (`ss1` → `sec`).
const CORPUS: [&str; 5] = [
    "<article><fm><ti>the evaluation of xml queries</ti></fm><bdy><sec><st>top-k lists</st>\
     <p>an index of the structured documents</p></sec><sec><p>summary and keyword</p></sec></bdy></article>",
    "<article><bdy><sec><p>alpha beta</p></sec><sec>gamma</sec><empty/></bdy></article>",
    "<article><bdy><sec>xml retr<!-- x -->ieval systems</sec><sec><ss1>ranked</ss1> answers</sec></bdy></article>",
    "<article><bdy><sec><p>text <![CDATA[with <markup> & cdata]]> runs</p></sec></bdy></article>",
    "<?xml version=\"1.0\"?><article><fm><ti>self managing indexes</ti></fm><bdy><sec><p>xml \
     retrieval of elements</p><p></p></sec></bdy></article>",
];

const TABLES: [&str; 5] = [
    ELEMENTS_TABLE,
    POSTINGS_TABLE,
    TERM_STATS_TABLE,
    BLOBS_TABLE,
    DOCUMENTS_TABLE,
];

/// FNV-1a over length-prefixed byte strings.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Builds [`CORPUS`] over `partitions` fresh stores and folds every record
/// of their base tables, store by store, into `digest`; returns the number
/// of records hashed.
fn build_and_hash(partitions: usize, digest: &mut u64) -> usize {
    let paths: Vec<_> = (0..partitions)
        .map(|i| {
            std::env::temp_dir().join(format!(
                "trex-build-pin-{partitions}-{i}-{}",
                std::process::id()
            ))
        })
        .collect();
    let stores: Vec<Store> = paths
        .iter()
        .map(|p| Store::create(p, 64).unwrap())
        .collect();
    let mut builder = IndexBuilder::new_partitioned(
        stores.iter().collect(),
        SummaryKind::Incoming,
        AliasMap::inex_ieee(),
        Analyzer::default(),
    )
    .unwrap();
    builder.enable_document_store().unwrap();
    for doc in CORPUS {
        builder.add_document(doc).unwrap();
    }
    builder.finish().unwrap();

    let mut records = 0;
    for store in &stores {
        for name in TABLES {
            fnv(digest, name.as_bytes());
            let table = store.open_table(name).unwrap();
            let mut cursor = table.scan().unwrap();
            while let Some((key, value)) = cursor.next_entry().unwrap() {
                fnv(digest, &key);
                fnv(digest, &value);
                records += 1;
            }
        }
    }
    drop(stores);
    for path in &paths {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(trex_storage::wal_path(path)).ok();
    }
    records
}

#[test]
fn build_keeps_its_base_table_output() {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let single = build_and_hash(1, &mut digest);
    let routed = build_and_hash(2, &mut digest);

    // Every document is stored once; the catalog blobs and term statistics
    // are written to both partitions, so the routed build holds more.
    assert!(single >= 5 + 5, "only {single} records");
    assert!(routed > single, "routed build holds {routed} records");
    assert_eq!(
        digest, BUILD_DIGEST,
        "base-table build output changed: digest {digest:#018x}"
    );
}
