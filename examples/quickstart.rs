//! Quickstart: build an index over a handful of XML documents and run a
//! NEXI query with each retrieval strategy.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use trex::{ListKind, Strategy, TrexConfig, TrexSystem};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = std::env::temp_dir().join(format!("trex-quickstart-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&store);

    // A miniature collection in the shape of the INEX IEEE corpus. Note the
    // ss1 tag: it is a synonym of sec and the alias summary collapses them.
    let documents = vec![
        r#"<article><fm><atl>XML retrieval systems</atl></fm>
            <bdy><sec>ranked xml query evaluation with structural summaries</sec>
                 <sec>inverted lists and posting layouts</sec></bdy></article>"#
            .to_string(),
        r#"<article><fm><atl>Databases</atl></fm>
            <bdy><ss1>query evaluation over relational storage</ss1>
                 <sec>transaction processing</sec></bdy></article>"#
            .to_string(),
        r#"<article><fm><atl>Information retrieval</atl></fm>
            <bdy><sec>keyword search and xml ranking with top-k indexes</sec></bdy></article>"#
            .to_string(),
    ];

    let system = TrexSystem::build(TrexConfig::new(&store), documents)?;

    let query = "//article//sec[about(., xml query evaluation)]";
    println!("query: {query}\n");

    // The translation phase: each root-to-about() path becomes sids + terms.
    let translation = system.engine().translate(query, Default::default())?;
    println!(
        "translation: {} sid(s) {:?}, {} term(s)",
        translation.sids.len(),
        translation.sids,
        translation.terms.len()
    );

    // 1. ERA needs no redundant indexes.
    let era = system.search_with(query, Some(5), Strategy::Era)?;
    println!("\nERA answers ({} total):", era.total_answers);
    for a in &era.answers {
        println!(
            "  doc {} end {} len {}  score {:.4}",
            a.element.doc, a.element.end, a.element.length, a.score
        );
    }

    // 2. Materialise the query's RPLs and ERPLs, then run TA and Merge.
    system.materialize_for(query, ListKind::Both)?;
    let ta = system.search_with(query, Some(5), Strategy::Ta)?;
    let merge = system.search_with(query, Some(5), Strategy::Merge)?;
    println!(
        "\nTA top-1    : doc {} score {:.4}",
        ta.answers[0].element.doc, ta.answers[0].score
    );
    println!(
        "Merge top-1 : doc {} score {:.4}",
        merge.answers[0].element.doc, merge.answers[0].score
    );

    // All three strategies agree on the ranking.
    assert_eq!(era.answers.len(), ta.answers.len());
    assert_eq!(era.answers[0].element, merge.answers[0].element);

    // 3. Auto picks a strategy based on what is materialised and k.
    let auto = system.search(query, Some(3))?;
    println!("\nAuto strategy used: {:?}", strategy_name(&auto));

    std::fs::remove_file(&store).ok();
    Ok(())
}

fn strategy_name(result: &trex::QueryResult) -> &'static str {
    match &result.stats {
        trex::StrategyStats::Era(_) => "ERA",
        trex::StrategyStats::Ta(_) => "TA",
        trex::StrategyStats::Merge(_) => "Merge",
        trex::StrategyStats::Scatter { .. } => "Scatter",
    }
}
