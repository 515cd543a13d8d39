//! Partitioned scatter-gather determinism: a partitioned system must be
//! indistinguishable from a single store, byte for byte, at any partition
//! count — for the paper's seven queries, for crafted score-tie-at-the-k-
//! boundary workloads, and while ingest and reconcile run concurrently.
//!
//! The identity argument (see `trex::core::partition` docs): a partitioned
//! build shares one summary / dictionary / statistics catalog, keeps global
//! document ids, and routes whole documents, so per-partition scores equal
//! single-store scores and the rank-safe k-way merge reproduces the global
//! ordering exactly.

use trex::corpus::{Collection, CorpusConfig, IeeeGenerator, WikiGenerator, PAPER_QUERIES};
use trex::{AliasMap, Answer, SelfManageOptions, Strategy, StrategyStats, TrexConfig, TrexSystem};

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("trex-part-{name}-{}.db", std::process::id()))
}

fn cleanup(base: &std::path::Path) {
    std::fs::remove_file(base).ok();
    std::fs::remove_file(trex::storage::wal_path(base)).ok();
    for i in 0..8 {
        let p = trex::partition_store_path(base, i);
        std::fs::remove_file(trex::storage::wal_path(&p)).ok();
        std::fs::remove_file(&p).ok();
    }
}

fn ieee_docs(docs: usize) -> Vec<String> {
    IeeeGenerator::new(CorpusConfig {
        docs,
        ..CorpusConfig::ieee_default()
    })
    .documents()
    .collect()
}

fn wiki_docs(docs: usize) -> Vec<String> {
    WikiGenerator::new(CorpusConfig {
        docs,
        ..CorpusConfig::wiki_default()
    })
    .documents()
    .collect()
}

/// Asserts two answer lists are byte-identical: same length, and every
/// field of every answer equal (including exact f32 score equality —
/// that is the contract, not an approximation).
fn assert_identical(context: &str, baseline: &[Answer], partitioned: &[Answer]) {
    assert_eq!(
        baseline.len(),
        partitioned.len(),
        "{context}: answer counts diverge"
    );
    for (rank, (b, p)) in baseline.iter().zip(partitioned).enumerate() {
        assert_eq!(b, p, "{context}: rank {rank} diverges");
    }
}

/// Posting entries decoded so far, summed over every partition.
fn posting_entries(system: &TrexSystem) -> u64 {
    system
        .system()
        .parts()
        .iter()
        .map(|p| p.index().counters().snapshot().posting_entries)
        .sum()
}

/// The paper's seven queries, each against its own collection, at
/// partition counts 1, 2 and 4 — plus a one-member `.p0` family as the
/// parent commit wrote them: forced-ERA answers must be byte-identical to
/// the single-store build, for several k values including `None`
/// (everything), one partition must report the strategy's own stats, never
/// a one-element scatter, and the partitions' posting decodes must sum
/// exactly to the single store's (routing puts each posting in exactly one
/// partition, and ERA decodes every posting of every query term once).
#[test]
fn paper_queries_are_byte_identical_across_partition_counts() {
    for (collection, docs, alias) in [
        (Collection::Ieee, ieee_docs(72), AliasMap::inex_ieee()),
        (Collection::Wiki, wiki_docs(72), AliasMap::inex_wiki()),
    ] {
        let base = temp(&format!("paper-{collection:?}"));
        cleanup(&base);
        let mut config = TrexConfig::new(&base);
        config.alias = alias;
        let single = TrexSystem::build(config.clone(), docs.iter().cloned()).unwrap();

        // `legacy_family`: the N=1 build's file is moved to `.p0` and found
        // again by layout detection.
        for (partitions, legacy_family) in [(1usize, false), (1, true), (2, false), (4, false)] {
            let pbase = temp(&format!("paper-{collection:?}-n{partitions}"));
            cleanup(&pbase);
            let mut pconfig = config.clone();
            pconfig.store_path = pbase.clone();
            let mut system =
                TrexSystem::build_partitioned(pconfig.clone(), partitions, docs.iter().cloned())
                    .unwrap();
            assert_eq!(pbase.is_file(), partitions == 1, "N=1 lives at store_path");
            if legacy_family {
                drop(system);
                std::fs::rename(&pbase, trex::partition_store_path(&pbase, 0)).unwrap();
                system = TrexSystem::open(pconfig).unwrap();
            }
            assert_eq!(system.partitions(), partitions);

            for query in PAPER_QUERIES.iter().filter(|q| q.collection == collection) {
                for k in [Some(1), Some(5), Some(20), None] {
                    let single_before = posting_entries(&single);
                    let want = single.search_with(query.nexi, k, Strategy::Era).unwrap();
                    let single_decoded = posting_entries(&single) - single_before;
                    let parts_before = posting_entries(&system);
                    let got = system.search_with(query.nexi, k, Strategy::Era).unwrap();
                    let context = format!(
                        "{collection:?} topic {} k={k:?} partitions={partitions}",
                        query.id
                    );
                    assert_identical(&context, &want.answers, &got.answers);
                    assert_eq!(
                        posting_entries(&system) - parts_before,
                        single_decoded,
                        "{context}: per-partition posting decodes"
                    );
                    assert_eq!(
                        want.total_answers, got.total_answers,
                        "{context}: total_answers"
                    );
                    assert_eq!(
                        matches!(got.stats, StrategyStats::Scatter { .. }),
                        partitions > 1,
                        "{context}: {}",
                        got.stats.name()
                    );
                }
            }
            cleanup(&pbase);
        }
        cleanup(&base);
    }
}

/// A corpus crafted so scores tie exactly at the k boundary: many
/// documents carry an identical `<sec>` (same tokens, same length → same
/// BM25 score), plus a few strictly-better and strictly-worse documents.
/// Cutting k inside the tie group must keep the single-store tiebreak
/// (score desc, then global doc order) at every partition count — this is
/// exactly where a sloppy merge (per-partition doc order, unstable heap)
/// would diverge.
#[test]
fn score_ties_at_the_k_boundary_merge_deterministically() {
    let mut docs = Vec::new();
    for i in 0..36 {
        // Three strata: strictly better (quantum twice), the 30-way tie
        // stratum (identical sec), strictly worse (diluted by filler).
        let body = match i % 12 {
            0 => "<sec>quantum quantum search</sec>".to_string(),
            11 => "<sec>quantum filler filler filler filler filler filler</sec>".to_string(),
            _ => "<sec>quantum search basics</sec>".to_string(),
        };
        docs.push(format!("<article>{body}</article>"));
    }
    let base = temp("ties");
    cleanup(&base);
    let single = TrexSystem::build(TrexConfig::new(&base), docs.iter().cloned()).unwrap();

    for partitions in [1usize, 2, 4] {
        let pbase = temp(&format!("ties-n{partitions}"));
        cleanup(&pbase);
        let system = TrexSystem::build_partitioned(
            TrexConfig::new(&pbase),
            partitions,
            docs.iter().cloned(),
        )
        .unwrap();
        // k values that cut before, inside (several depths) and after the
        // tie stratum.
        for k in [1, 2, 4, 9, 17, 30, 33, 36] {
            for strategy in [Strategy::Auto, Strategy::Era] {
                let want = single
                    .search_with("//article//sec[about(., quantum)]", Some(k), strategy)
                    .unwrap();
                let got = system
                    .search_with("//article//sec[about(., quantum)]", Some(k), strategy)
                    .unwrap();
                let context = format!("ties k={k} strategy={strategy:?} partitions={partitions}");
                assert_identical(&context, &want.answers, &got.answers);
            }
        }
        // Sanity: the tie stratum really ties — equal scores with distinct
        // docs, ordered by global doc id.
        let all = system
            .search("//article//sec[about(., quantum)]", None)
            .unwrap();
        let tied: Vec<&Answer> = all
            .answers
            .iter()
            .filter(|a| (a.score - all.answers[5].score).abs() < f32::EPSILON)
            .collect();
        assert!(tied.len() >= 10, "crafted tie stratum exists");
        for pair in tied.windows(2) {
            assert!(
                pair[0].element.doc < pair[1].element.doc,
                "ties break by global doc order"
            );
        }
        cleanup(&pbase);
    }
    cleanup(&base);
}

/// Byte identity survives live operation: the same documents ingested in
/// the same order into a single store and a 4-partition system — with
/// queries hammering the partitioned system *while* it ingests and its
/// heat-splitting reconciler runs — must agree once ingest quiesces, both
/// before and after folding the deltas to disk.
#[test]
fn concurrent_ingest_and_reconcile_preserve_identity() {
    let built = ieee_docs(48);
    let live = ieee_docs(64).split_off(48); // 16 fresh documents to ingest
    let queries: Vec<&str> = PAPER_QUERIES
        .iter()
        .filter(|q| q.collection == Collection::Ieee)
        .map(|q| q.nexi)
        .collect();

    let base = temp("live-single");
    cleanup(&base);
    let single = TrexSystem::build(TrexConfig::new(&base), built.iter().cloned()).unwrap();

    let pbase = temp("live-part");
    cleanup(&pbase);
    let system =
        TrexSystem::build_partitioned(TrexConfig::new(&pbase), 4, built.iter().cloned()).unwrap();

    // Reconcile keeps running throughout: a 10ms interval guarantees
    // several budget re-splits while we ingest and query.
    let manager = system
        .start_self_manager(
            SelfManageOptions::new(256 * 1024).interval(std::time::Duration::from_millis(10)),
        )
        .unwrap();

    std::thread::scope(|scope| {
        let system = &system;
        let queries = &queries;
        let live = &live;
        let ingester = scope.spawn(move || {
            for xml in live.iter() {
                system.ingest_document(xml).unwrap();
            }
        });
        // Two query threads racing the ingest: results are transient (the
        // delta grows underneath them) so only absence of errors is
        // asserted here; identity is checked after quiescing.
        let mut hammers = Vec::new();
        for _ in 0..2 {
            hammers.push(scope.spawn(move || {
                for round in 0..6 {
                    for nexi in queries.iter() {
                        system.search(nexi, Some(5 + round)).unwrap();
                    }
                }
            }));
        }
        ingester.join().unwrap();
        for h in hammers {
            h.join().unwrap();
        }
    });

    for xml in &live {
        single.ingest_document(xml).unwrap();
    }

    // Quiesced: same corpus on both sides (partitioned still reconciling
    // in the background — reconcile is rank-safe, so it must not matter).
    for nexi in &queries {
        let want = single.search(nexi, Some(20)).unwrap();
        let got = system.search(nexi, Some(20)).unwrap();
        assert_identical(&format!("live {nexi}"), &want.answers, &got.answers);
    }
    manager.stop();

    // And after folding the deltas into the on-disk tables.
    single.fold_once().unwrap();
    let folded = system
        .fold_once()
        .unwrap()
        .expect("routed ingest left deltas");
    assert_eq!(folded.docs_folded, live.len(), "every delta folds");
    for nexi in &queries {
        let want = single.search(nexi, Some(20)).unwrap();
        let got = system.search(nexi, Some(20)).unwrap();
        assert_identical(&format!("folded {nexi}"), &want.answers, &got.answers);
    }

    cleanup(&base);
    cleanup(&pbase);
}

/// Reopening a partitioned family from disk (auto-detecting the partition
/// count) preserves the answers of the build-time system.
#[test]
fn reopen_detects_partitions_and_preserves_answers() {
    let docs = ieee_docs(40);
    let base = temp("reopen");
    cleanup(&base);
    let want: Vec<Answer> = {
        let system =
            TrexSystem::build_partitioned(TrexConfig::new(&base), 3, docs.iter().cloned()).unwrap();
        system
            .search("//article//sec[about(., xml query evaluation)]", Some(10))
            .unwrap()
            .answers
    };
    assert!(
        trex::partition_store_path(&base, 2).is_file() && !base.exists(),
        "three sibling stores on disk, no base file"
    );
    let system = TrexSystem::open(TrexConfig::new(&base)).unwrap();
    assert_eq!(system.partitions(), 3);
    let got = system
        .search("//article//sec[about(., xml query evaluation)]", Some(10))
        .unwrap();
    assert_identical("reopen", &want, &got.answers);
    cleanup(&base);
}

/// One doc-id watermark: a document ingested directly into a partition's
/// index advances that partition's allocator behind the system's back; the
/// following system ingests must allocate past it (never reuse the id), at
/// one partition and at three, and a caller-chosen id below a partition's
/// watermark is refused with a typed error.
#[test]
fn system_ingest_never_reuses_an_id_taken_by_a_direct_partition_ingest() {
    let xml = "<article><sec>quantum search basics</sec></article>";
    for (partitions, direct_on) in [(1usize, 0usize), (3, 0), (3, 1), (3, 2)] {
        let base = temp(&format!("watermark-n{partitions}-p{direct_on}"));
        cleanup(&base);
        let docs = (0..6).map(|_| xml.to_string());
        let system =
            TrexSystem::build_partitioned(TrexConfig::new(&base), partitions, docs).unwrap();

        let part = system.system().part(direct_on);
        let direct = part.index().ingest_document(xml).unwrap();
        assert_eq!(direct, 6, "first free id");

        let mut seen = vec![direct];
        for _ in 0..5 {
            let id = system.ingest_document(xml).unwrap();
            assert!(id > direct, "id {id} does not clear the direct ingest");
            assert!(!seen.contains(&id), "id {id} handed out twice: {seen:?}");
            seen.push(id);
        }
        let all = system
            .search("//article//sec[about(., quantum)]", None)
            .unwrap();
        let mut answered: Vec<u32> = all.answers.iter().map(|a| a.element.doc).collect();
        answered.sort_unstable();
        answered.dedup();
        assert_eq!(answered, (0..12).collect::<Vec<u32>>(), "one answer per id");
        assert_eq!(all.answers.len(), 12, "no id answers twice");

        let stale = part.index().ingest_document_with_id(direct, xml);
        assert!(
            matches!(
                stale,
                Err(trex::index::IndexError::StaleDocId { doc_id: 6, .. })
            ),
            "{stale:?}"
        );
        drop(system);
        cleanup(&base);
    }
}
