//! The complete paper pipeline exercised end-to-end: both collections, all
//! seven Table 1 queries, strict vs vague interpretation, explain plans,
//! and answer sanity (every answer actually contains a query term).

use trex::corpus::{Collection, CorpusConfig, IeeeGenerator, WikiGenerator, PAPER_QUERIES};
use trex::{AliasMap, ListKind, Strategy, TrexConfig, TrexSystem};

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("trex-pipeline-{name}-{}.db", std::process::id()))
}

fn build(collection: Collection, docs: usize, name: &str) -> (TrexSystem, std::path::PathBuf) {
    let store = temp(name);
    let mut config = TrexConfig::new(&store);
    config.store_documents = true;
    let system = match collection {
        Collection::Ieee => TrexSystem::build(
            config,
            IeeeGenerator::new(CorpusConfig {
                docs,
                ..CorpusConfig::ieee_default()
            })
            .documents(),
        ),
        Collection::Wiki => {
            config.alias = AliasMap::inex_wiki();
            TrexSystem::build(
                config,
                WikiGenerator::new(CorpusConfig {
                    docs,
                    ..CorpusConfig::wiki_default()
                })
                .documents(),
            )
        }
    }
    .unwrap();
    (system, store)
}

#[test]
fn every_paper_query_returns_ranked_answers_with_term_bearing_snippets() {
    let (ieee, ieee_store) = build(Collection::Ieee, 80, "ieee-pipe");
    let (wiki, wiki_store) = build(Collection::Wiki, 160, "wiki-pipe");
    for q in PAPER_QUERIES {
        let system = match q.collection {
            Collection::Ieee => &ieee,
            Collection::Wiki => &wiki,
        };
        let result = system.search(q.nexi, Some(5)).unwrap();
        assert!(result.total_answers > 0, "query {} found nothing", q.id);
        // Ranked descending.
        for w in result.answers.windows(2) {
            assert!(w[0].score >= w[1].score, "query {} unranked", q.id);
        }
        // Every answer element's snippet contains at least one query term
        // (the paper's answer condition: "contain at least one of the
        // specified keywords").
        let terms: Vec<String> = result
            .translation
            .terms
            .iter()
            .map(|&t| system.index().dictionary().term(t).unwrap().to_string())
            .collect();
        for a in &result.answers {
            let snippet = system.snippet(a).unwrap().unwrap().to_lowercase();
            let (tokens, _) = system.index().analyzer().analyze_from(&snippet, 0);
            let stems: std::collections::HashSet<String> =
                tokens.into_iter().map(|t| t.text).collect();
            assert!(
                terms.iter().any(|t| stems.contains(t)),
                "query {}: answer snippet has no query term; terms {terms:?}",
                q.id
            );
        }
    }
    std::fs::remove_file(&ieee_store).ok();
    std::fs::remove_file(&wiki_store).ok();
}

#[test]
fn explain_predicts_what_auto_runs() {
    let (system, store) = build(Collection::Ieee, 50, "explain");
    let query = "//article//sec[about(., xml query evaluation)]";
    for (k, materialize) in [
        (Some(5), None),
        (Some(5), Some(ListKind::Rpl)),
        (None, Some(ListKind::Erpl)),
    ] {
        if let Some(kind) = materialize {
            system.materialize_for(query, kind).unwrap();
        }
        let plan = system
            .engine()
            .explain(query, trex::EvalOptions::new().k(k))
            .unwrap();
        let result = system.search(query, k).unwrap();
        let ran = match &result.stats {
            trex::StrategyStats::Era(_) => Strategy::Era,
            trex::StrategyStats::Ta(_) => Strategy::Ta,
            trex::StrategyStats::Merge(_) => Strategy::Merge,
            trex::StrategyStats::Scatter { .. } => {
                unreachable!("single-store search never scatters")
            }
        };
        assert_eq!(plan.chosen, ran, "k={k:?} materialize={materialize:?}");
        // The plan's extents are valid XPath descriptions of real sids.
        for (sid, xpath, size) in &plan.extents {
            assert!(xpath.starts_with('/'), "{xpath}");
            assert_eq!(system.index().summary().node(*sid).extent_size, *size);
        }
    }
    std::fs::remove_file(&store).ok();
}

#[test]
fn strict_interpretation_is_a_subset_of_vague() {
    let (system, store) = build(Collection::Ieee, 60, "strictsub");
    // Queries written with canonical tags: strict == vague. With synonyms:
    // strict finds fewer (zero) sids.
    for query in [
        "//article//sec[about(., xml query evaluation)]",
        "//article//ss1[about(., xml query evaluation)]",
    ] {
        let vague = system
            .engine()
            .translate(query, trex::Interpretation::Vague)
            .unwrap();
        let strict = system
            .engine()
            .translate(query, trex::Interpretation::Strict)
            .unwrap();
        for sid in &strict.sids {
            assert!(vague.sids.contains(sid), "{query}");
        }
        assert!(strict.sids.len() <= vague.sids.len());
    }
    std::fs::remove_file(&store).ok();
}

#[test]
fn all_strategies_agree_on_wiki_with_document_store() {
    let (system, store) = build(Collection::Wiki, 120, "wiki-agree");
    let query = "//article[about(., \"genetic algorithm\")]";
    system.materialize_for(query, ListKind::Both).unwrap();
    let era = system.search_with(query, Some(10), Strategy::Era).unwrap();
    let ta = system.search_with(query, Some(10), Strategy::Ta).unwrap();
    let merge = system
        .search_with(query, Some(10), Strategy::Merge)
        .unwrap();
    for other in [&ta, &merge] {
        assert_eq!(era.answers.len(), other.answers.len());
        for (a, b) in era.answers.iter().zip(&other.answers) {
            assert_eq!(a.element, b.element);
        }
    }
    std::fs::remove_file(&store).ok();
}
