//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation section (§2.1 summary sizes, Table 1, Figures 4–6,
//! the §5.2 read-depth observation) plus the §4 advisor experiment, the §4
//! TA-vs-Merge parallel-evaluation comparison, and a corpus-scaling sanity
//! sweep.
//!
//! ```sh
//! cargo run --release -p trex-bench --bin experiments -- all
//! cargo run --release -p trex-bench --bin experiments -- figures --query 260
//! cargo run --release -p trex-bench --bin experiments -- table1 --ieee 2000 --wiki 6000
//! ```
//!
//! CSV series are written to `target/trex-experiments/results/`.

use std::fmt::Write as _;
use std::path::PathBuf;

use trex::corpus::{Collection, CorpusConfig, IeeeGenerator, PAPER_QUERIES};
use trex::summary::{AliasMap, SummaryBuilder, SummaryKind};
use trex::xml::Document;
use trex::{
    EvalOptions, ListKind, SelectionMethod, SelfManageOptions, Strategy, StrategyStats, TrexSystem,
    Workload,
};

use trex_bench::{build_collection, k_sweep, median_time, ms, store_dir, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("all");
    let scale = parse_scale(&args);
    let query_filter: Option<u32> =
        flag_value(&args, "--query").map(|v| v.parse().expect("--query ID"));
    let runs: usize = flag_value(&args, "--runs").map_or(3, |v| v.parse().expect("--runs N"));

    match command {
        "table1" => table1(scale),
        "summaries" => summaries(scale),
        "figures" => figures(scale, query_filter, runs),
        "depth" => depth(scale),
        "advisor" => advisor(scale),
        "race" => race(scale, runs),
        "scaling" => scaling(),
        "all" => {
            summaries(scale);
            table1(scale);
            figures(scale, query_filter, runs);
            depth(scale);
            advisor(scale);
            race(scale, runs);
            scaling();
        }
        other => {
            eprintln!(
                "unknown command {other:?}; expected table1|summaries|figures|depth|advisor|race|scaling|all"
            );
            std::process::exit(2);
        }
    }
}

fn parse_scale(args: &[String]) -> Scale {
    let mut scale = Scale::default_scale();
    if let Some(v) = flag_value(args, "--ieee") {
        scale.ieee_docs = v.parse().expect("--ieee N");
    }
    if let Some(v) = flag_value(args, "--wiki") {
        scale.wiki_docs = v.parse().expect("--wiki N");
    }
    scale
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn results_dir() -> PathBuf {
    let dir = store_dir().join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

fn system_for(collection: Collection, scale: Scale) -> TrexSystem {
    let docs = match collection {
        Collection::Ieee => scale.ieee_docs,
        Collection::Wiki => scale.wiki_docs,
    };
    eprintln!("[setup] building/opening {collection:?} collection ({docs} docs)…");
    build_collection(collection, docs, true)
}

// ---------------------------------------------------------------------------
// §2.1: summary sizes (the Figure 1 discussion numbers)
// ---------------------------------------------------------------------------

fn summaries(scale: Scale) {
    println!("\n== Experiment: summary sizes (paper §2.1 / Figure 1 discussion) ==");
    println!("paper (INEX IEEE): incoming 11563, alias incoming 7860, tag 185, alias tag 145");
    println!("expected shape: alias < plain within a kind; tag ≪ incoming\n");

    let gen = IeeeGenerator::new(CorpusConfig {
        docs: scale.ieee_docs,
        ..CorpusConfig::ieee_default()
    });
    let variants = [
        ("incoming", SummaryKind::Incoming, AliasMap::identity()),
        (
            "alias incoming",
            SummaryKind::Incoming,
            AliasMap::inex_ieee(),
        ),
        ("tag", SummaryKind::Tag, AliasMap::identity()),
        ("alias tag", SummaryKind::Tag, AliasMap::inex_ieee()),
        (
            "k-suffix k=1",
            SummaryKind::KSuffix(1),
            AliasMap::identity(),
        ),
        (
            "k-suffix k=2",
            SummaryKind::KSuffix(2),
            AliasMap::identity(),
        ),
        (
            "k-suffix k=3",
            SummaryKind::KSuffix(3),
            AliasMap::identity(),
        ),
    ];
    let mut sizes = Vec::new();
    for (name, kind, alias) in variants {
        let mut builder = SummaryBuilder::new(kind, alias);
        for doc in gen.documents() {
            builder.add_document(&Document::parse(&doc).expect("generated XML parses"));
        }
        let (summary, _) = builder.finish();
        println!(
            "  {name:<16} {:>6} nodes, {:>9} elements, nesting-free: {}",
            summary.node_count(),
            summary.total_elements(),
            summary.is_nesting_free()
        );
        sizes.push((name, summary.node_count()));
    }
    let get = |n: &str| sizes.iter().find(|(name, _)| *name == n).unwrap().1;
    let ok = get("alias incoming") <= get("incoming")
        && get("alias tag") <= get("tag")
        && get("tag") < get("incoming");
    println!(
        "shape check (alias ≤ plain, tag < incoming): {}",
        if ok { "PASS" } else { "FAIL" }
    );
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

fn table1(scale: Scale) {
    println!("\n== Experiment: Table 1 (7 queries: translation and result sizes) ==");
    println!(
        "scale: {} IEEE-like docs (paper 16,819), {} Wiki-like docs (paper 659,388)\n",
        scale.ieee_docs, scale.wiki_docs
    );
    let ieee = system_for(Collection::Ieee, scale);
    let wiki = system_for(Collection::Wiki, scale);

    let mut csv = String::from("id,collection,sids,terms,answers\n");
    println!(
        "{:>4}  {:<74} {:<5} {:>5} {:>6} {:>8}",
        "ID", "NEXI Expression", "Coll", "#sids", "#terms", "#answers"
    );
    for q in PAPER_QUERIES {
        let system = match q.collection {
            Collection::Ieee => &ieee,
            Collection::Wiki => &wiki,
        };
        let result = system
            .search_with(q.nexi, None, Strategy::Era)
            .expect("query evaluates");
        println!(
            "{:>4}  {:<74} {:<5} {:>5} {:>6} {:>8}",
            q.id,
            q.nexi,
            match q.collection {
                Collection::Ieee => "IEEE",
                Collection::Wiki => "Wiki",
            },
            result.translation.sids.len(),
            result.translation.terms.len(),
            result.total_answers
        );
        writeln!(
            csv,
            "{},{:?},{},{},{}",
            q.id,
            q.collection,
            result.translation.sids.len(),
            result.translation.terms.len(),
            result.total_answers
        )
        .unwrap();
    }
    let path = results_dir().join("table1.csv");
    std::fs::write(&path, csv).expect("write table1.csv");
    println!("\nwrote {}", path.display());
}

// ---------------------------------------------------------------------------
// Figures 4–6: per-query evaluation times vs k for ERA / Merge / TA / ITA
// ---------------------------------------------------------------------------

fn figures(scale: Scale, query_filter: Option<u32>, runs: usize) {
    println!("\n== Experiment: Figures 4–6 (evaluation time per method vs k) ==");
    let ieee = system_for(Collection::Ieee, scale);
    let wiki = system_for(Collection::Wiki, scale);

    let mut csv = String::from("query,method,k,ms\n");
    for q in PAPER_QUERIES {
        if let Some(filter) = query_filter {
            if q.id != filter {
                continue;
            }
        }
        let system = match q.collection {
            Collection::Ieee => &ieee,
            Collection::Wiki => &wiki,
        };
        println!("\n-- Query {} ({:?}): {}", q.id, q.collection, q.nexi);
        system
            .materialize_for(q.nexi, ListKind::Both)
            .expect("materialize lists");
        let engine = system.engine();
        let translation = engine
            .translate(q.nexi, Default::default())
            .expect("translate");

        // ERA and Merge compute all answers.
        let era_time = median_time(runs, || {
            engine
                .evaluate_translated(
                    translation.clone(),
                    EvalOptions::new().strategy(Strategy::Era),
                )
                .expect("era")
        });
        let merge_time = median_time(runs, || {
            engine
                .evaluate_translated(
                    translation.clone(),
                    EvalOptions::new().strategy(Strategy::Merge),
                )
                .expect("merge")
        });
        let total = engine
            .evaluate_translated(
                translation.clone(),
                EvalOptions::new().strategy(Strategy::Era),
            )
            .expect("era")
            .total_answers;
        println!("   answers: {total}");
        println!("   {:<8} {:>12.3} ms   (all answers)", "ERA", ms(era_time));
        println!(
            "   {:<8} {:>12.3} ms   (all answers)",
            "Merge",
            ms(merge_time)
        );
        writeln!(csv, "{},ERA,all,{:.3}", q.id, ms(era_time)).unwrap();
        writeln!(csv, "{},Merge,all,{:.3}", q.id, ms(merge_time)).unwrap();

        println!("   {:>8} {:>12} {:>12}", "k", "TA ms", "ITA ms");
        let mut ta_at_k: Vec<(usize, f64, f64)> = Vec::new();
        for k in k_sweep(total) {
            // Median over runs, taking matching heap time from the median run.
            let mut samples: Vec<(f64, f64)> = (0..runs.max(1))
                .map(|_| {
                    let result = engine
                        .evaluate_translated(
                            translation.clone(),
                            EvalOptions::new()
                                .k(k)
                                .strategy(Strategy::Ta)
                                .measure_heap(true),
                        )
                        .expect("ta");
                    match &result.stats {
                        StrategyStats::Ta(stats) => (ms(stats.wall), ms(stats.ita_time())),
                        _ => unreachable!(),
                    }
                })
                .collect();
            samples.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let (ta_ms, ita_ms) = samples[samples.len() / 2];
            println!("   {:>8} {:>12.3} {:>12.3}", k, ta_ms, ita_ms);
            writeln!(csv, "{},TA,{},{:.3}", q.id, k, ta_ms).unwrap();
            writeln!(csv, "{},ITA,{},{:.3}", q.id, k, ita_ms).unwrap();
            ta_at_k.push((k, ta_ms, ita_ms));
        }

        // Shape observations in the paper's terms.
        let era_ms = ms(era_time);
        let merge_ms = ms(merge_time);
        let small_k_ta = ta_at_k.first().map(|&(_, t, _)| t).unwrap_or(f64::MAX);
        let large_k_ta = ta_at_k.last().map(|&(_, t, _)| t).unwrap_or(f64::MAX);
        println!(
            "   shape: Merge/ERA = {:.3}, TA(k=1)/ERA = {:.3}, TA(max k)/ERA = {:.3}",
            merge_ms / era_ms,
            small_k_ta / era_ms,
            large_k_ta / era_ms
        );
    }
    let path = results_dir().join("figures.csv");
    std::fs::write(&path, csv).expect("write figures.csv");
    println!("\nwrote {}", path.display());
}

// ---------------------------------------------------------------------------
// §5.2 observation: how deep TA reads the RPLs
// ---------------------------------------------------------------------------

fn depth(scale: Scale) {
    println!("\n== Experiment: TA read depth (paper §5.2) ==");
    println!("paper: all IEEE queries read the ENTIRE RPLs for k ≥ 10; Wiki for k ≥ 50\n");
    let ieee = system_for(Collection::Ieee, scale);
    let wiki = system_for(Collection::Wiki, scale);

    let mut csv = String::from("query,k,sorted_accesses,entire\n");
    println!(
        "{:>6} {:>8} {:>16} {:>10}",
        "query", "k", "accesses", "entire?"
    );
    for q in PAPER_QUERIES {
        let system = match q.collection {
            Collection::Ieee => &ieee,
            Collection::Wiki => &wiki,
        };
        system
            .materialize_for(q.nexi, ListKind::Rpl)
            .expect("materialize");
        let engine = system.engine();
        let translation = engine
            .translate(q.nexi, Default::default())
            .expect("translate");
        let mut first_entire: Option<usize> = None;
        for k in [1usize, 2, 5, 10, 20, 50, 100] {
            let result = engine
                .evaluate_translated(
                    translation.clone(),
                    EvalOptions::new().k(k).strategy(Strategy::Ta),
                )
                .expect("ta");
            let StrategyStats::Ta(stats) = &result.stats else {
                unreachable!()
            };
            println!(
                "{:>6} {:>8} {:>16} {:>10}",
                q.id, k, stats.sorted_accesses, stats.read_entire_lists
            );
            writeln!(
                csv,
                "{},{},{},{}",
                q.id, k, stats.sorted_accesses, stats.read_entire_lists
            )
            .unwrap();
            if stats.read_entire_lists && first_entire.is_none() {
                first_entire = Some(k);
            }
        }
        match first_entire {
            Some(k) => println!("        -> query {} reads entire RPLs from k = {k}", q.id),
            None => println!(
                "        -> query {} never read entire lists up to k = 100",
                q.id
            ),
        }
    }
    let path = results_dir().join("depth.csv");
    std::fs::write(&path, csv).expect("write depth.csv");
    println!("\nwrote {}", path.display());
}

// ---------------------------------------------------------------------------
// §4: the self-managing advisor under a budget sweep
// ---------------------------------------------------------------------------

fn advisor(scale: Scale) {
    println!("\n== Experiment: self-managing advisor (paper §4) ==");
    let ieee = system_for(Collection::Ieee, scale);

    let workload = Workload::from_weights(
        PAPER_QUERIES
            .iter()
            .filter(|q| q.collection == Collection::Ieee)
            .map(|q| (q.nexi.to_string(), 1.0, 10))
            .collect(),
    )
    .expect("workload");

    // Price the workload with a cycle at budget 0 (it writes nothing, and
    // drops whatever an earlier run left) to know the total.
    eprintln!("[advisor] pricing workload…");
    let priced = ieee
        .advise(&workload, &SelfManageOptions::new(0))
        .expect("advise");
    let total_bytes: u64 = priced.reports[0]
        .costs
        .iter()
        .map(|c| c.s_erpl() + c.s_rpl())
        .sum();
    println!(
        "workload: {} IEEE queries, full materialisation would need ~{} KiB\n",
        workload.len(),
        total_bytes / 1024
    );

    let mut csv = String::from("budget_frac,method,bytes_used,expected_saving_ms,supported\n");
    println!(
        "{:>12} {:>8} {:>12} {:>18} {:>10}",
        "budget", "method", "bytes used", "saving (ms/exec)", "supported"
    );
    for frac in [0.0f64, 0.1, 0.25, 0.5, 1.0] {
        let budget = (total_bytes as f64 * frac) as u64;
        for method in [SelectionMethod::Greedy, SelectionMethod::Lp] {
            let cycle = ieee
                .advise(&workload, &SelfManageOptions::new(budget).method(method))
                .expect("advise");
            assert!(cycle.bytes_used() <= budget, "budget exceeded");
            let supported = cycle.reports[0]
                .selection
                .choices
                .iter()
                .filter(|c| !matches!(c, trex::core::Choice::None))
                .count();
            let saving_ms = cycle.expected_saving() * 1e3;
            println!(
                "{:>11.0}% {:>8} {:>12} {:>18.3} {:>7}/{}",
                frac * 100.0,
                match method {
                    SelectionMethod::Greedy => "greedy",
                    SelectionMethod::Lp => "lp",
                },
                cycle.bytes_used(),
                saving_ms,
                supported,
                workload.len()
            );
            writeln!(
                csv,
                "{},{:?},{},{:.3},{}",
                frac,
                method,
                cycle.bytes_used(),
                saving_ms,
                supported
            )
            .unwrap();
        }
    }
    let path = results_dir().join("advisor.csv");
    std::fs::write(&path, csv).expect("write advisor.csv");
    println!("\nwrote {}", path.display());
}

// ---------------------------------------------------------------------------
// §4: parallel evaluation — what racing TA against Merge could buy
// ---------------------------------------------------------------------------

fn race(scale: Scale, runs: usize) {
    println!("\n== Experiment: parallel evaluation (paper §4) ==");
    println!("\"If the two computations are being done in parallel, the system can");
    println!("return the answer from the computation that finishes first.\"");
    println!("A race with zero overhead would answer in min(TA, Merge); Auto picks one.\n");
    let ieee = system_for(Collection::Ieee, scale);
    let wiki = system_for(Collection::Wiki, scale);

    let mut csv = String::from("query,k,ta_ms,merge_ms,min_ms,faster,auto_ran,auto_ms\n");
    println!(
        "{:>6} {:>6} {:>10} {:>10} {:>10} {:>7} {:>9} {:>10}",
        "query", "k", "TA ms", "Merge ms", "min ms", "faster", "Auto ran", "Auto ms"
    );
    for q in PAPER_QUERIES {
        let system = match q.collection {
            Collection::Ieee => &ieee,
            Collection::Wiki => &wiki,
        };
        system
            .materialize_for(q.nexi, ListKind::Both)
            .expect("materialize");
        let engine = system.engine();
        let translation = engine
            .translate(q.nexi, Default::default())
            .expect("translate");
        for k in [10usize, 1000] {
            let eval = |strategy: Strategy| {
                engine
                    .evaluate_translated(
                        translation.clone(),
                        EvalOptions::new().k(k).strategy(strategy),
                    )
                    .expect("evaluate")
            };
            let ta_ms = ms(median_time(runs, || eval(Strategy::Ta)));
            let merge_ms = ms(median_time(runs, || eval(Strategy::Merge)));
            let (min_ms, faster) = if ta_ms <= merge_ms {
                (ta_ms, "ta")
            } else {
                (merge_ms, "merge")
            };
            let auto_ran = eval(Strategy::Auto).stats.name();
            let auto_ms = ms(median_time(runs, || eval(Strategy::Auto)));
            println!(
                "{:>6} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>7} {:>9} {:>10.3}",
                q.id, k, ta_ms, merge_ms, min_ms, faster, auto_ran, auto_ms
            );
            writeln!(
                csv,
                "{},{},{:.3},{:.3},{:.3},{},{},{:.3}",
                q.id, k, ta_ms, merge_ms, min_ms, faster, auto_ran, auto_ms
            )
            .unwrap();
        }
    }
    let path = results_dir().join("race.csv");
    std::fs::write(&path, csv).expect("write race.csv");
    println!("\nexpected shape: Auto tracks min(TA, Merge) where its k rule picks the faster one.");
    println!("wrote {}", path.display());
}

// ---------------------------------------------------------------------------
// Scaling: build and query cost as the collection grows (sanity ablation)
// ---------------------------------------------------------------------------

fn scaling() {
    println!("\n== Experiment: collection scaling (build + query cost vs corpus size) ==");
    let query = "//article//sec[about(., introduction information retrieval)]";
    let mut csv = String::from("docs,build_s,pages,answers,era_ms,merge_ms\n");
    println!(
        "{:>7} {:>9} {:>8} {:>9} {:>10} {:>10}",
        "docs", "build s", "pages", "answers", "ERA ms", "Merge ms"
    );
    for docs in [150usize, 300, 600, 1200] {
        let started = std::time::Instant::now();
        let system = build_collection(Collection::Ieee, docs, false);
        let build_s = started.elapsed().as_secs_f64();
        system
            .materialize_for(query, ListKind::Erpl)
            .expect("materialize");
        let engine = system.engine();
        let translation = engine
            .translate(query, Default::default())
            .expect("translate");
        let era = median_time(3, || {
            engine
                .evaluate_translated(
                    translation.clone(),
                    EvalOptions::new().strategy(Strategy::Era),
                )
                .expect("era")
        });
        let merge = median_time(3, || {
            engine
                .evaluate_translated(
                    translation.clone(),
                    EvalOptions::new().strategy(Strategy::Merge),
                )
                .expect("merge")
        });
        let answers = engine
            .evaluate_translated(
                translation.clone(),
                EvalOptions::new().strategy(Strategy::Era),
            )
            .expect("era")
            .total_answers;
        let pages = system.index().store().page_count();
        println!(
            "{:>7} {:>9.2} {:>8} {:>9} {:>10.3} {:>10.3}",
            docs,
            build_s,
            pages,
            answers,
            ms(era),
            ms(merge)
        );
        writeln!(
            csv,
            "{docs},{build_s:.2},{pages},{answers},{:.3},{:.3}",
            ms(era),
            ms(merge)
        )
        .unwrap();
    }
    let path = results_dir().join("scaling.csv");
    std::fs::write(&path, csv).expect("write scaling.csv");
    println!(
        "\nexpected shape: near-linear growth of build time, pages, answers and ERA/Merge time."
    );
    println!("wrote {}", path.display());
}
