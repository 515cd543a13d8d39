//! The `trex` command-line tool: build, inspect, query and self-manage a
//! TReX store.
//!
//! ```text
//! trex build <store.db> --dir <xml-dir>                index a directory of .xml files
//! trex build <store.db> --synthetic ieee --docs 1000   index a generated collection
//! trex info <store.db>                                 catalog and statistics
//! trex query <store.db> "<nexi>" [-k N] [--strategy auto|era|ta|merge]
//! trex materialize <store.db> "<nexi>" [--kind both|rpl|erpl]
//! trex advise <store.db> --workload <file> --budget <bytes> [--method greedy|lp]
//! trex serve <store.db> [--self-manage --budget <bytes>]     NEXI-per-line REPL
//! ```
//!
//! A workload file has one query per line: `<weight> <k> <nexi…>`.

use std::io::BufRead;
use std::process::ExitCode;

use trex::corpus::{CorpusConfig, IeeeGenerator, WikiGenerator};
use trex::{
    AliasMap, HttpServerConfig, ListKind, QueryRequest, SelectionMethod, SelfManageOptions,
    Strategy, TrexConfig, TrexSystem, Workload,
};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    match command {
        "build" => build(&args),
        "info" => info(&args),
        "query" => query(&args),
        "explain" => explain(&args),
        "materialize" => materialize(&args),
        "advise" => advise(&args),
        "advisor" => advisor(&args),
        "serve" => serve(&args),
        "stats" => stats(&args),
        _ => {
            print!("{}", HELP);
            Ok(())
        }
    }
}

const HELP: &str = "\
trex — self-managing top-k XML retrieval (reproduction of Consens et al., ICDE 2007)

usage:
  trex build <store.db> --dir <xml-dir> [--partitions N] [--store-docs] [--checkpoint-every N]
  trex build <store.db> --synthetic ieee|wiki --docs N [--partitions N] [--store-docs] [--checkpoint-every N]
  trex info <store.db>
  trex query <store.db> \"<nexi>\" [-k N] [--strategy auto|era|ta|merge] [--snippets]
  trex explain <store.db> \"<nexi>\" [-k N]
  trex materialize <store.db> \"<nexi>\" [--kind both|rpl|erpl]
  trex advise <store.db> --workload <file> --budget <bytes> [--method greedy|lp]
  trex advisor <store.db> [--last N]
  trex serve <store.db> [-k N] [--partitions N] [--self-manage --budget <bytes> [--interval-ms N]]
                        [--listen HOST:PORT] [--workers N] [--queue-depth N]
                        [--deadline-ms N] [--fold-docs N] [--slow-ms N]
  trex stats <store.db> [--prometheus]

serve reads one NEXI query per line on stdin; with --listen it also answers
queries over HTTP (POST /v1/query with a JSON body {\"nexi\", \"k\",
\"strategy\", \"trace\", \"deadline_ms\"}) behind a bounded admission queue
(--workers worker threads, --queue-depth queue slots, overflow answered
429). --deadline-ms sets a default per-query evaluation budget (expired
queries answer 408). Both transports answer through one generation-keyed
result cache. The HTTP surface also serves /v1/metrics (Prometheus 0.0.4),
/v1/metrics.json, /v1/slow, /v1/healthz (liveness), /v1/readyz
(readiness: 503 until the store is open and recovered), /v1/advisor/history
and /v1/advisor/last (the self-manager's decision journal), and
/v1/trace/<id> (the span tree of a request that carried a traceparent
header — every POST /v1/query honours inbound W3C traceparent and echoes
one back). --slow-ms sets the slow-query capture threshold (default
100 ms). The REPL also accepts the commands `ingest <file.xml>` (index one
document live — it is WAL-durable and immediately queryable, folded into
the on-disk tables in the background) and `fold` (fold the delta index
now) on a line by themselves. `trex stats <store.db>` dumps the metrics
and `trex advisor <store.db>` tails the on-disk journal sidecar
(<store>.advisor.jsonl) after the fact. The HTTP surface ingests via POST
/v1/ingest with a raw XML body. --fold-docs sets the delta size (documents) that triggers a
background fold (default 1000).

build --partitions N writes N independent stores (<store>.p0 … .p(N-1)),
routing documents by doc-id hash but sharing one summary / dictionary /
statistics catalog, so answers are byte-identical at any partition count.
Every subcommand opens whichever layout is on disk and evaluates each
query on all partitions in parallel behind a rank-safe top-k merge;
serve --partitions N (absent or 0 = whatever is on disk) only checks the
count; --self-manage splits --budget across partitions by workload heat,
re-split every reconcile cycle.
";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn store_arg(args: &[String]) -> Result<&str, String> {
    args.get(1)
        .map(String::as_str)
        .ok_or_else(|| "missing <store.db> argument".to_string())
}

fn open(args: &[String]) -> Result<TrexSystem, String> {
    let path = store_arg(args)?;
    let system =
        TrexSystem::open(TrexConfig::new(path)).map_err(|e| format!("cannot open {path}: {e}"))?;
    for (partition, report) in system.recovery_reports() {
        let which = if system.partitions() > 1 {
            format!(" (partition {partition})")
        } else {
            String::new()
        };
        if report.completed_checkpoint {
            eprintln!(
                "recovery{which}: completed interrupted checkpoint ({} pages replayed, {} wal bytes scanned)",
                report.replayed_pages, report.wal_bytes_scanned
            );
        } else {
            eprintln!(
                "recovery{which}: discarded {} uncommitted wal record(s); store is at its last checkpoint",
                report.discarded_records
            );
        }
    }
    Ok(system)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn build(args: &[String]) -> Result<(), String> {
    let store = store_arg(args)?;
    let partitions: usize = flag(args, "--partitions")
        .map(|v| v.parse().map_err(|_| "--partitions expects a number"))
        .transpose()?
        .unwrap_or(1)
        .max(1);
    let store_docs = has_flag(args, "--store-docs");
    let checkpoint_every: Option<u32> = flag(args, "--checkpoint-every")
        .map(|v| v.parse().map_err(|_| "--checkpoint-every expects a number"))
        .transpose()?;
    let started = std::time::Instant::now();
    let mut config = TrexConfig::new(store);
    config.store_documents = store_docs;
    config.build_checkpoint_every = checkpoint_every;

    let system = if let Some(dir) = flag(args, "--dir") {
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read {dir}: {e}"))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "xml"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(format!("no .xml files in {dir}"));
        }
        let docs = paths
            .iter()
            .map(|p| {
                std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
            })
            .collect::<Result<Vec<String>, String>>()?;
        eprintln!("indexing {} documents from {dir}…", docs.len());
        TrexSystem::build_partitioned(config, partitions, docs)
    } else if let Some(kind) = flag(args, "--synthetic") {
        let docs: usize = flag(args, "--docs")
            .map(|v| v.parse().map_err(|_| "--docs expects a number"))
            .transpose()?
            .unwrap_or(500);
        eprintln!("generating and indexing {docs} synthetic {kind} documents…");
        match kind {
            "ieee" => {
                let gen = IeeeGenerator::new(CorpusConfig {
                    docs,
                    ..CorpusConfig::ieee_default()
                });
                TrexSystem::build_partitioned(config, partitions, gen.documents())
            }
            "wiki" => {
                let gen = WikiGenerator::new(CorpusConfig {
                    docs,
                    ..CorpusConfig::wiki_default()
                });
                config.alias = AliasMap::inex_wiki();
                TrexSystem::build_partitioned(config, partitions, gen.documents())
            }
            other => return Err(format!("unknown synthetic collection {other:?}")),
        }
    } else {
        return Err("build needs --dir <xml-dir> or --synthetic ieee|wiki".into());
    }
    .map_err(|e| e.to_string())?;

    // The build writes the *global* collection statistics to every
    // partition's catalog (that is what keeps scores identical), so
    // partition 0 reports collection-wide counts.
    let index = system.index();
    let suffix = if system.partitions() > 1 {
        format!(" across {} partitions", system.partitions())
    } else {
        String::new()
    };
    let stats = index.stats();
    eprintln!(
        "built {store}{suffix} in {:.1}s: {} documents, {} elements, {} terms, {} summary nodes",
        started.elapsed().as_secs_f64(),
        stats.doc_count,
        stats.element_count,
        index.dictionary().len(),
        index.summary().node_count(),
    );
    Ok(())
}

fn info(args: &[String]) -> Result<(), String> {
    let system = open(args)?;
    let index = system.index();
    let stats = index.stats();
    println!("documents        {}", stats.doc_count);
    println!("elements         {}", stats.element_count);
    println!("avg element len  {:.1} tokens", stats.avg_element_len);
    println!("terms            {}", index.dictionary().len());
    println!(
        "summary          {:?}, {} nodes",
        index.summary().kind(),
        index.summary().node_count()
    );
    if system.partitions() > 1 {
        println!("partitions       {}", system.partitions());
    }
    // Pages and redundant lists are partition-local: report the totals.
    let (mut pages, mut rpl_lists, mut rpl_bytes, mut erpl_lists, mut erpl_bytes) = (0, 0, 0, 0, 0);
    for part in system.system().parts() {
        let index = part.index();
        pages += index.store().page_count();
        let rpls = index.rpls().map_err(|e| e.to_string())?;
        let erpls = index.erpls().map_err(|e| e.to_string())?;
        rpl_lists += rpls.lists().map_err(|e| e.to_string())?.len();
        rpl_bytes += rpls.total_bytes().map_err(|e| e.to_string())?;
        erpl_lists += erpls.lists().map_err(|e| e.to_string())?.len();
        erpl_bytes += erpls.total_bytes().map_err(|e| e.to_string())?;
    }
    println!("store pages      {pages}");
    println!("RPL lists        {rpl_lists} ({rpl_bytes} bytes)");
    println!("ERPL lists       {erpl_lists} ({erpl_bytes} bytes)");
    Ok(())
}

fn query(args: &[String]) -> Result<(), String> {
    let system = open(args)?;
    let nexi = args
        .get(2)
        .ok_or_else(|| "missing NEXI query argument".to_string())?;
    let k: Option<usize> = flag(args, "-k")
        .map(|v| v.parse().map_err(|_| "-k expects a number"))
        .transpose()?;
    let strategy: Strategy = flag(args, "--strategy").unwrap_or("auto").parse()?;
    let result = system
        .search_with(nexi, k, strategy)
        .map_err(|e| e.to_string())?;
    let used = match &result.stats {
        trex::StrategyStats::Era(_) => "ERA",
        trex::StrategyStats::Ta(_) => "TA",
        trex::StrategyStats::Merge(_) => "Merge",
        trex::StrategyStats::Scatter { .. } => "Scatter",
    };
    eprintln!(
        "{} answers (showing {}), strategy {used}, {:.3} ms; {} sid(s), {} term(s)",
        result.total_answers,
        result.answers.len(),
        result.stats.wall().as_secs_f64() * 1e3,
        result.translation.sids.len(),
        result.translation.terms.len(),
    );
    if !result.translation.unknown_terms.is_empty() {
        eprintln!(
            "note: terms not in collection: {:?}",
            result.translation.unknown_terms
        );
    }
    let show_snippets = has_flag(args, "--snippets");
    for (rank, a) in result.answers.iter().enumerate() {
        println!(
            "{:>4}. doc {:>6}  span [{}, {}]  sid {:>5}  score {:.4}",
            rank + 1,
            a.element.doc,
            a.element.start(),
            a.element.end,
            a.sid,
            a.score
        );
        if show_snippets {
            match system.snippet(a).map_err(|e| e.to_string())? {
                Some(snippet) => {
                    let mut line: String = snippet.chars().take(160).collect();
                    if line.len() < snippet.len() {
                        line.push('…');
                    }
                    println!("      {line}");
                }
                None => println!("      (no snippet: build with --store-docs)"),
            }
        }
    }
    Ok(())
}

fn explain(args: &[String]) -> Result<(), String> {
    let system = open(args)?;
    let nexi = args
        .get(2)
        .ok_or_else(|| "missing NEXI query argument".to_string())?;
    let k: Option<usize> = flag(args, "-k")
        .map(|v| v.parse().map_err(|_| "-k expects a number"))
        .transpose()?;
    // Translation and statistics come from the shared catalog (partition 0
    // speaks for all); which lists exist — and so what `auto` runs — is
    // each partition's own business.
    let plans = system
        .system()
        .parts()
        .iter()
        .map(|part| {
            part.engine()
                .explain(nexi, trex::EvalOptions::new().k(k))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let plan = &plans[0];
    println!("query: {nexi}");
    println!("\nextents ({} sids):", plan.extents.len());
    for (sid, xpath, size) in &plan.extents {
        println!("  sid {sid:>5}  {xpath:<50} {size:>8} elements");
    }
    println!("\nterms ({}):", plan.terms.len());
    for (id, text, cf) in &plan.terms {
        println!("  term {id:>5}  {text:<30} {cf:>8} occurrences");
    }
    if !plan.translation.unknown_terms.is_empty() {
        println!("\nnot in collection: {:?}", plan.translation.unknown_terms);
    }
    for (i, plan) in plans.iter().enumerate() {
        if plans.len() > 1 {
            println!("\npartition {i}:");
        }
        println!("\nRPLs materialised:  {}", plan.rpls_available);
        println!("ERPLs materialised: {}", plan.erpls_available);
        println!("auto would run:     {:?}", plan.chosen);
    }
    Ok(())
}

fn materialize(args: &[String]) -> Result<(), String> {
    let system = open(args)?;
    let nexi = args
        .get(2)
        .ok_or_else(|| "missing NEXI query argument".to_string())?;
    let kind = match flag(args, "--kind").unwrap_or("both") {
        "both" => ListKind::Both,
        "rpl" => ListKind::Rpl,
        "erpl" => ListKind::Erpl,
        other => return Err(format!("unknown kind {other:?}")),
    };
    let written = system
        .materialize_for(nexi, kind)
        .map_err(|e| e.to_string())?;
    eprintln!("materialised {written} lists for {nexi:?}");
    Ok(())
}

fn advise(args: &[String]) -> Result<(), String> {
    let system = open(args)?;
    let workload_path = flag(args, "--workload").ok_or("missing --workload <file>")?;
    let budget: u64 = flag(args, "--budget")
        .ok_or("missing --budget <bytes>")?
        .parse()
        .map_err(|_| "--budget expects bytes")?;
    let method = match flag(args, "--method").unwrap_or("greedy") {
        "greedy" => SelectionMethod::Greedy,
        "lp" => SelectionMethod::Lp,
        other => return Err(format!("unknown method {other:?}")),
    };

    let text = std::fs::read_to_string(workload_path)
        .map_err(|e| format!("cannot read {workload_path}: {e}"))?;
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let weight: f64 = parts
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or(format!("line {}: expected <weight> <k> <nexi>", lineno + 1))?;
        let k: usize = parts
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or(format!("line {}: expected <weight> <k> <nexi>", lineno + 1))?;
        if k == 0 {
            return Err(format!("line {}: k must be at least 1", lineno + 1));
        }
        let nexi = parts
            .next()
            .ok_or(format!("line {}: missing query", lineno + 1))?
            .trim()
            .to_string();
        entries.push((nexi, weight, k));
    }
    let workload = Workload::from_weights(entries).map_err(|e| e.to_string())?;
    eprintln!("pricing {} queries…", workload.len());
    let opts = SelfManageOptions::new(budget)
        .method(method)
        .measure_runs(3);
    let cycle = system.advise(&workload, &opts).map_err(|e| e.to_string())?;
    for (report, share) in cycle.reports.iter().zip(&cycle.budgets) {
        if cycle.reports.len() > 1 {
            println!(
                "partition {} (budget {}):",
                share.partition, share.budget_bytes
            );
        }
        for (wq, choice) in workload.queries().iter().zip(&report.selection.choices) {
            println!(
                "{:?}  f={:.3} k={}  {}",
                choice, wq.frequency, wq.k, wq.nexi
            );
        }
    }
    println!(
        "kept {} bytes (budget {budget}), wrote {} and dropped {} lists, expected saving {:.6}s per workload execution",
        cycle.bytes_used(),
        cycle.lists_materialized(),
        cycle.lists_dropped(),
        cycle.expected_saving()
    );
    Ok(())
}

/// Tails the advisor decision-journal sidecar (`<store>.advisor.jsonl`):
/// one JSON line per reconcile cycle, written by the online self-manager.
/// Reads the file, not the live process, so it works on a stopped store.
fn advisor(args: &[String]) -> Result<(), String> {
    let store = store_arg(args)?;
    let last: usize = flag(args, "--last")
        .map(|v| v.parse().map_err(|_| "--last expects a number"))
        .transpose()?
        .unwrap_or(10);
    let path = trex::advisor_sidecar_path(std::path::Path::new(store));
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read {}: {e} (the journal is written while `trex serve --self-manage` runs)",
            path.display()
        )
    })?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let start = lines.len().saturating_sub(last);
    for line in &lines[start..] {
        println!("{line}");
    }
    eprintln!(
        "{} cycle(s) on record, showing last {}",
        lines.len(),
        lines.len() - start
    );
    Ok(())
}

/// One-shot metrics dump for an existing store: every counter and histogram
/// the registry knows, as JSON (default) or Prometheus text exposition
/// (`--prometheus`). Counters cover this process only — the open itself
/// plus whatever the caller already ran — because metrics live in memory,
/// not in the store.
fn stats(args: &[String]) -> Result<(), String> {
    let system = open(args)?;
    let registry = system.metrics();
    if has_flag(args, "--prometheus") {
        print!("{}", registry.render_prometheus());
    } else {
        println!("{}", registry.render_json());
    }
    Ok(())
}

/// A NEXI-per-line REPL over stdin, optionally with the online self-manager
/// reconciling the redundant indexes in the background while queries run,
/// and optionally with the HTTP front end (`--listen`), which serves
/// queries, ingestion and the metrics routes.
fn serve(args: &[String]) -> Result<(), String> {
    let system = open(args)?;
    if let Some(n) = flag(args, "--partitions") {
        let n: usize = n.parse().map_err(|_| "--partitions expects a number")?;
        if n != 0 && n != system.partitions() {
            return Err(format!(
                "--partitions {n} does not match the {} partition store(s) on disk \
                 (pass --partitions {}, or 0 to auto-detect)",
                system.partitions(),
                system.partitions()
            ));
        }
    }
    let partitions = system.partitions();
    if partitions > 1 {
        eprintln!("opened {} with {partitions} partitions", store_arg(args)?);
    }
    let k: Option<usize> = flag(args, "-k")
        .map(|v| v.parse().map_err(|_| "-k expects a number"))
        .transpose()?;
    let k = k.or(Some(10));

    if let Some(ms) = flag(args, "--slow-ms") {
        let ms: u64 = ms.parse().map_err(|_| "--slow-ms expects milliseconds")?;
        for part in system.system().parts() {
            part.index()
                .telemetry()
                .slow
                .set_threshold(Some(std::time::Duration::from_millis(ms)));
        }
    }

    let mut http_config = HttpServerConfig::default();
    if let Some(n) = flag(args, "--workers") {
        http_config.workers = n.parse().map_err(|_| "--workers expects a number")?;
    }
    if let Some(n) = flag(args, "--queue-depth") {
        http_config.queue_depth = n.parse().map_err(|_| "--queue-depth expects a number")?;
    }
    if let Some(ms) = flag(args, "--deadline-ms") {
        http_config.default_deadline_ms = Some(
            ms.parse()
                .map_err(|_| "--deadline-ms expects milliseconds")?,
        );
    }
    let http = match flag(args, "--listen") {
        Some(addr) => {
            let server = system
                .serve_http(addr, http_config.clone())
                .map_err(|e| format!("cannot bind http endpoint {addr}: {e}"))?;
            let config = server.config();
            eprintln!(
                "http: serving on {} ({} workers, queue depth {})",
                server.addr(),
                config.workers,
                config.queue_depth,
            );
            Some(server)
        }
        None => None,
    };

    // The background fold worker keeps live-ingested documents from
    // accumulating in memory: past the threshold a partition's delta index
    // is folded into its B+tree tables. Idle cost is two atomic loads per
    // partition per poll.
    let fold_docs: usize = flag(args, "--fold-docs")
        .map(|v| v.parse().map_err(|_| "--fold-docs expects a number"))
        .transpose()?
        .unwrap_or(1000);
    let folder = system
        .start_fold_manager(trex::FoldOptions::new().max_docs(fold_docs).log_folds(true))
        .map_err(|e| e.to_string())?;

    let manager = if has_flag(args, "--self-manage") {
        let budget: u64 = flag(args, "--budget")
            .ok_or("--self-manage needs --budget <bytes>")?
            .parse()
            .map_err(|_| "--budget expects bytes")?;
        let interval_ms: u64 = flag(args, "--interval-ms")
            .map(|v| v.parse().map_err(|_| "--interval-ms expects a number"))
            .transpose()?
            .unwrap_or(1000);
        let opts = SelfManageOptions::new(budget)
            .interval(std::time::Duration::from_millis(interval_ms))
            .log_cycles(true);
        let manager = system.start_self_manager(opts).map_err(|e| e.to_string())?;
        eprintln!("self-manager running: budget {budget} bytes, reconcile every {interval_ms} ms");
        Some(manager)
    } else {
        None
    };

    eprintln!("serving: one NEXI query per line (or `ingest <file>` / `fold`), EOF to exit");
    // The REPL answers through the same QueryService as the HTTP front end
    // (shared cache, shared serve metrics) — one handler, two transports.
    let service = system.service();
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let nexi = line.trim();
        if nexi.is_empty() || nexi.starts_with('#') {
            continue;
        }
        if let Some(path) = nexi.strip_prefix("ingest ") {
            let path = path.trim();
            match std::fs::read_to_string(path) {
                Ok(xml) => match system.ingest_document(&xml) {
                    Ok(doc_id) => {
                        let home = system.system().part(trex::partition_of(doc_id, partitions));
                        eprintln!(
                            "ingested {path} as doc {doc_id} ({} doc(s) in delta, folds at {fold_docs})",
                            home.index().delta().doc_count()
                        )
                    }
                    Err(e) => eprintln!("error: ingest {path}: {e}"),
                },
                Err(e) => eprintln!("error: cannot read {path}: {e}"),
            }
            continue;
        }
        if nexi == "fold" {
            match system.fold_once() {
                Ok(Some(report)) => eprintln!(
                    "folded {} doc(s) ({} new term(s), {} list(s) refreshed) in {:.1} ms, generation {}",
                    report.docs_folded,
                    report.new_terms,
                    report.lists_refreshed,
                    report.wall.as_secs_f64() * 1e3,
                    report.generation,
                ),
                Ok(None) => eprintln!("delta is empty; nothing to fold"),
                Err(e) => eprintln!("error: fold: {e}"),
            }
            continue;
        }
        let mut request = QueryRequest::new(nexi).k(k);
        if let Some(ms) = http_config.default_deadline_ms {
            request = request.deadline_ms(ms);
        }
        match service.execute(&request) {
            Ok(response) => {
                for (rank, a) in response.answers.iter().enumerate() {
                    println!(
                        "{:>4}. doc {:>6}  span [{}, {}]  sid {:>5}  score {:.4}",
                        rank + 1,
                        a.element.doc,
                        a.element.start(),
                        a.element.end,
                        a.sid,
                        a.score
                    );
                }
                // Every partition sees every query, so partition 0's
                // profiler and latency histogram stand for the system's.
                let counters = system.profiler().counters();
                let latency = system.index().telemetry().query.query.snapshot();
                let profiled = counters.queries_profiled.get();
                let fallbacks = counters.era_fallbacks.get();
                let fallback_rate = if profiled > 0 {
                    100.0 * fallbacks as f64 / profiled as f64
                } else {
                    0.0
                };
                let mut status = format!(
                    "{} answers in {:.3} ms ({}, cache {}); \
                     p50 {:.3} ms p99 {:.3} ms over {} queries; \
                     profiled {}, era fallback rate {:.1}% ({fallbacks})",
                    response.total_answers,
                    response.server_time.as_secs_f64() * 1e3,
                    response.strategy,
                    response.cache.as_str(),
                    latency.percentile(0.50) as f64 / 1e6,
                    latency.percentile(0.99) as f64 / 1e6,
                    latency.count(),
                    profiled,
                    fallback_rate,
                );
                if let Some(manager) = &manager {
                    match manager.last_report() {
                        Some(cycle) => {
                            status.push_str(&format!(
                                "; self-manage: {} cycle(s), {} bytes kept, +{} / -{} lists last cycle",
                                counters.cycles.get(),
                                cycle.bytes_used(),
                                cycle.lists_materialized(),
                                cycle.lists_dropped(),
                            ));
                            if partitions > 1 {
                                let splits: Vec<String> = cycle
                                    .budgets
                                    .iter()
                                    .map(|b| format!("p{}:{}", b.partition, b.budget_bytes))
                                    .collect();
                                status.push_str(&format!(", budget split {}", splits.join(" ")));
                            }
                        }
                        None => status.push_str("; self-manage: no reconcile cycle yet"),
                    }
                    if let Some(err) = manager.last_error() {
                        status.push_str(&format!("; last reconcile error: {err}"));
                    }
                }
                eprintln!("{status}");
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
    if let Some(http) = http {
        http.stop();
    }
    if let Some(manager) = manager {
        manager.stop();
    }
    // Unfolded delta documents are WAL-durable; stopping without a final
    // fold just means the next open replays them into a fresh delta.
    folder.stop();
    Ok(())
}
