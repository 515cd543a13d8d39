//! End-to-end integration: generate a corpus, build the system, query it,
//! reopen it from disk, self-manage indexes.

use trex::corpus::{CorpusConfig, IeeeGenerator};
use trex::{ListKind, Strategy, TrexConfig, TrexSystem};

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("trex-e2e-{name}-{}.db", std::process::id()))
}

fn small_ieee(docs: usize) -> impl Iterator<Item = String> {
    let gen = IeeeGenerator::new(CorpusConfig {
        docs,
        ..CorpusConfig::ieee_default()
    });
    (0..docs).map(move |i| gen.document(i))
}

#[test]
fn build_query_reopen_cycle() {
    let store = temp("cycle");
    {
        let system = TrexSystem::build(TrexConfig::new(&store), small_ieee(60)).unwrap();
        let result = system
            .search("//article//sec[about(., xml query evaluation)]", Some(10))
            .unwrap();
        assert!(result.total_answers > 0, "topic injection guarantees hits");
        for pair in result.answers.windows(2) {
            assert!(pair[0].score >= pair[1].score, "ranked output");
        }
    }
    // Reopen from disk; same query must give the same answers.
    let system = TrexSystem::open(TrexConfig::new(&store)).unwrap();
    let again = system
        .search("//article//sec[about(., xml query evaluation)]", Some(10))
        .unwrap();
    assert!(!again.answers.is_empty());
    std::fs::remove_file(&store).ok();
}

#[test]
fn translation_reports_sids_and_terms() {
    let store = temp("translate");
    let system = TrexSystem::build(TrexConfig::new(&store), small_ieee(40)).unwrap();
    let t = system
        .engine()
        .translate(
            "//article[about(., ontologies)]//sec[about(., ontologies case study)]",
            Default::default(),
        )
        .unwrap();
    // article alone plus article//sec variants.
    assert!(!t.sids.is_empty());
    assert!(t.sids.len() >= 2, "article + at least one sec path");
    // ontologies, case, study (stemmed, deduplicated).
    assert_eq!(t.terms.len(), 3);
    assert_eq!(t.clauses.len(), 2);
    std::fs::remove_file(&store).ok();
}

#[test]
fn vague_interpretation_finds_alias_synonyms() {
    let store = temp("vague");
    let system = TrexSystem::build(TrexConfig::new(&store), small_ieee(40)).unwrap();
    // ss1 is generated in documents but aliased into sec in the summary;
    // querying for ss1 under the vague interpretation must still work.
    let t = system
        .engine()
        .translate("//article//ss1[about(., xml)]", trex::Interpretation::Vague)
        .unwrap();
    assert!(!t.sids.is_empty());
    let strict = system
        .engine()
        .translate(
            "//article//ss1[about(., xml)]",
            trex::Interpretation::Strict,
        )
        .unwrap();
    assert!(
        strict.sids.is_empty(),
        "no literal ss1 label in the alias summary"
    );
    std::fs::remove_file(&store).ok();
}

#[test]
fn materialized_strategies_run_after_reopen() {
    let store = temp("materialize");
    let query = "//article//sec[about(., information retrieval)]";
    {
        let system = TrexSystem::build(TrexConfig::new(&store), small_ieee(50)).unwrap();
        system.materialize_for(query, ListKind::Both).unwrap();
    }
    let system = TrexSystem::open(TrexConfig::new(&store)).unwrap();
    let ta = system.search_with(query, Some(5), Strategy::Ta).unwrap();
    let merge = system.search_with(query, Some(5), Strategy::Merge).unwrap();
    assert_eq!(ta.answers.len(), merge.answers.len());
    std::fs::remove_file(&store).ok();
}

#[test]
fn missing_indexes_give_a_clear_error() {
    let store = temp("missing");
    let system = TrexSystem::build(TrexConfig::new(&store), small_ieee(20)).unwrap();
    let err = system
        .search_with("//article//sec[about(., xml)]", Some(5), Strategy::Ta)
        .unwrap_err();
    assert!(err.to_string().contains("RPL"), "got: {err}");
    std::fs::remove_file(&store).ok();
}

#[test]
fn auto_strategy_prefers_available_indexes() {
    let store = temp("auto");
    let system = TrexSystem::build(TrexConfig::new(&store), small_ieee(30)).unwrap();
    let query = "//article//sec[about(., xml)]";

    // Nothing materialised: ERA.
    let r = system.search(query, Some(5)).unwrap();
    assert!(matches!(r.stats, trex::StrategyStats::Era(_)));

    // ERPLs materialised: Merge for large k.
    system.materialize_for(query, ListKind::Erpl).unwrap();
    let r = system.search(query, Some(100)).unwrap();
    assert!(matches!(r.stats, trex::StrategyStats::Merge(_)));

    // RPLs too: TA for small k.
    system.materialize_for(query, ListKind::Rpl).unwrap();
    let r = system.search(query, Some(3)).unwrap();
    assert!(matches!(r.stats, trex::StrategyStats::Ta(_)));
    std::fs::remove_file(&store).ok();
}

#[test]
fn unknown_terms_yield_empty_results_not_errors() {
    let store = temp("unknown");
    let system = TrexSystem::build(TrexConfig::new(&store), small_ieee(10)).unwrap();
    let r = system
        .search("//article//sec[about(., zzzzqqqq)]", Some(5))
        .unwrap();
    assert_eq!(r.total_answers, 0);
    assert_eq!(r.translation.unknown_terms, vec!["zzzzqqqq"]);
    std::fs::remove_file(&store).ok();
}

#[test]
fn verbatim_analyzer_survives_reopen() {
    // Regression: the analyzer is persisted in the catalog; a store built
    // with the verbatim pipeline must answer stopword-laden queries after
    // reopening without any analyzer configuration.
    let store = temp("verbatim");
    {
        let mut config = TrexConfig::new(&store);
        config.analyzer = trex::Analyzer::verbatim();
        let docs = vec!["<a><s>the cat and the hat</s></a>".to_string()];
        let system = TrexSystem::build(config, docs).unwrap();
        // "the" is indexed verbatim.
        let r = system.search("//a//s[about(., the)]", Some(5)).unwrap();
        assert_eq!(r.total_answers, 1);
    }
    let system = TrexSystem::open(TrexConfig::new(&store)).unwrap();
    assert_eq!(system.index().analyzer(), trex::Analyzer::verbatim());
    let r = system.search("//a//s[about(., the)]", Some(5)).unwrap();
    assert_eq!(r.total_answers, 1, "analyzer restored from catalog");
    std::fs::remove_file(&store).ok();
}

#[test]
fn snippets_reproduce_answer_elements() {
    let store = temp("snippets");
    let mut config = TrexConfig::new(&store);
    config.store_documents = true;
    let system = TrexSystem::build(config, small_ieee(25)).unwrap();
    let result = system
        .search("//article//sec[about(., xml query evaluation)]", Some(3))
        .unwrap();
    assert!(!result.answers.is_empty());
    for answer in &result.answers {
        let snippet = system.snippet(answer).unwrap().unwrap();
        assert!(
            snippet.starts_with("<sec>")
                || snippet.starts_with("<ss1>")
                || snippet.starts_with("<ss2>"),
            "snippet should be a section element: {}",
            &snippet[..snippet.len().min(60)]
        );
        // The snippet contains at least one of the query terms.
        let lower = snippet.to_lowercase();
        assert!(
            lower.contains("xml") || lower.contains("quer") || lower.contains("evalu"),
            "snippet lacks query terms"
        );
    }
    // Whole documents can be fetched too.
    let doc = system
        .document(result.answers[0].element.doc)
        .unwrap()
        .unwrap();
    assert!(doc.starts_with("<books>"));
    std::fs::remove_file(&store).ok();
}

#[test]
fn snippet_is_the_answer_element_not_a_child_with_its_span() {
    // `sec` and its only child `p` cover the same two tokens; the answer
    // is the `sec`, so the snippet must be the `sec`, before and after the
    // same document goes through ingest and a fold.
    let store = temp("shared-span");
    let mut config = TrexConfig::new(&store);
    config.store_documents = true;
    let shared = "<article><sec><p>alpha beta</p></sec><sec>gamma</sec></article>";
    let docs = vec![
        shared.to_string(),
        "<article><sec><p>delta</p></sec><sec>epsilon</sec></article>".to_string(),
    ];
    let system = TrexSystem::build(config, docs).unwrap();
    let ingested = system.ingest_document(shared).unwrap();
    assert!(system.fold_once().unwrap().is_some());
    let result = system
        .search("/article/sec[about(., alpha)]", Some(10))
        .unwrap();
    for doc in [0, ingested] {
        let answer = result
            .answers
            .iter()
            .find(|a| a.element.doc == doc)
            .unwrap_or_else(|| panic!("doc {doc} answers: {:?}", result.answers));
        assert_eq!(
            system.snippet(answer).unwrap().as_deref(),
            Some("<sec><p>alpha beta</p></sec>"),
            "doc {doc}"
        );
    }
    std::fs::remove_file(&store).ok();
    std::fs::remove_file(trex::storage::wal_path(&store)).ok();
}

#[test]
fn snippets_unavailable_without_document_store() {
    let store = temp("nosnippets");
    let system = TrexSystem::build(TrexConfig::new(&store), small_ieee(10)).unwrap();
    let result = system
        .search("//article//sec[about(., xml)]", Some(1))
        .unwrap();
    if let Some(answer) = result.answers.first() {
        assert!(system.snippet(answer).unwrap().is_none());
    }
    assert!(system.document(0).unwrap().is_none());
    std::fs::remove_file(&store).ok();
}

#[test]
fn nested_extent_summaries_are_rejected_for_retrieval() {
    // The IEEE-like generator nests sections (sec inside sec after alias
    // collapsing), so a Tag summary has nested extents and TReX must refuse
    // to run retrieval on it (paper §2.1's nesting-freeness precondition).
    let store = temp("nested");
    let mut config = TrexConfig::new(&store);
    config.summary = trex::SummaryKind::Tag;
    let system = TrexSystem::build(config, small_ieee(20)).unwrap();
    assert!(!system.index().summary().is_nesting_free());
    let err = system
        .search("//article//sec[about(., xml)]", Some(5))
        .unwrap_err();
    assert!(err.to_string().contains("nested extents"), "{err}");
    // Regression: the message once carried a run of source-indentation
    // spaces between "incoming" and "(or larger-k suffix)".
    assert!(
        !err.to_string().contains("  "),
        "user-facing message has doubled spaces: {err:?}"
    );
    std::fs::remove_file(&store).ok();
}

#[test]
fn ksuffix_summary_supports_retrieval_when_nesting_free() {
    // k = 3 distinguishes nested sections in the IEEE-like structure, so the
    // k-suffix summary is nesting-free and retrieval runs.
    let store = temp("ksuffix");
    let mut config = TrexConfig::new(&store);
    config.summary = trex::SummaryKind::KSuffix(3);
    let system = TrexSystem::build(config, small_ieee(30)).unwrap();
    assert!(
        system.index().summary().is_nesting_free(),
        "k=3 should separate nested sections"
    );
    let r = system
        .search("//article//sec[about(., xml query evaluation)]", Some(5))
        .unwrap();
    assert!(r.total_answers > 0);
    std::fs::remove_file(&store).ok();
}
