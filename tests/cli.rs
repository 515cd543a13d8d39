//! End-to-end tests of the `trex` command-line binary, driven through
//! `CARGO_BIN_EXE_trex` (no extra dependencies).

use std::process::Command;

fn trex() -> Command {
    Command::new(env!("CARGO_BIN_EXE_trex"))
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = trex().args(args).output().expect("spawn trex");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn temp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("trex-cli-{name}-{}.db", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

#[test]
fn full_cli_round_trip() {
    let store = temp("roundtrip");
    let _ = std::fs::remove_file(&store);

    // build
    let (ok, _, err) = run(&[
        "build",
        &store,
        "--synthetic",
        "ieee",
        "--docs",
        "40",
        "--store-docs",
    ]);
    assert!(ok, "build failed: {err}");
    assert!(err.contains("40 documents"), "{err}");

    // info
    let (ok, out, _) = run(&["info", &store]);
    assert!(ok);
    assert!(out.contains("documents        40"), "{out}");
    assert!(out.contains("summary"), "{out}");

    // query (ERA via auto)
    let query = "//article//sec[about(., xml query evaluation)]";
    let (ok, out, err) = run(&["query", &store, query, "-k", "3", "--snippets"]);
    assert!(ok, "{err}");
    assert!(err.contains("strategy ERA"), "{err}");
    assert!(out.contains("score"), "{out}");
    assert!(
        out.contains("<sec>") || out.contains("<ss"),
        "snippets shown: {out}"
    );

    // explain before materialisation
    let (ok, out, _) = run(&["explain", &store, query]);
    assert!(ok);
    assert!(out.contains("RPLs materialised:  false"), "{out}");
    assert!(out.contains("auto would run:     Era"), "{out}");

    // materialize + TA; the retired race strategy is refused
    let (ok, _, err) = run(&["materialize", &store, query]);
    assert!(ok, "{err}");
    let (ok, _, err) = run(&["query", &store, query, "-k", "3", "--strategy", "ta"]);
    assert!(ok, "{err}");
    assert!(err.contains("strategy TA"), "{err}");
    let (ok, _, err) = run(&["query", &store, query, "-k", "3", "--strategy", "race"]);
    assert!(!ok);
    assert!(err.contains("unknown strategy"), "{err}");

    // advise
    let workload = std::env::temp_dir().join(format!("trex-cli-wl-{}.txt", std::process::id()));
    std::fs::write(&workload, format!("1 10 {query}\n")).unwrap();
    let (ok, out, err) = run(&[
        "advise",
        &store,
        "--workload",
        workload.to_str().unwrap(),
        "--budget",
        "10000000",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("kept"), "{out}");

    std::fs::remove_file(&store).ok();
    std::fs::remove_file(&workload).ok();
}

#[test]
fn cli_reports_errors_cleanly() {
    // Unknown store file.
    let (ok, _, err) = run(&["query", "/nonexistent/trex.db", "//a[about(., x)]"]);
    assert!(!ok);
    assert!(err.contains("error:"), "{err}");

    // Malformed query.
    let store = temp("badquery");
    // 40 docs: large enough that the query terms below exist in the
    // dictionary (an unknown term makes the TA coverage check vacuous and
    // TA legitimately returns an empty result instead of erroring).
    let (ok, _, _) = run(&["build", &store, "--synthetic", "ieee", "--docs", "40"]);
    assert!(ok);
    let (ok, _, err) = run(&["query", &store, "not a query"]);
    assert!(!ok);
    assert!(err.contains("error:"), "{err}");

    // TA without materialised lists.
    let (ok, _, err) = run(&[
        "query",
        &store,
        "//article//sec[about(., xml)]",
        "--strategy",
        "ta",
    ]);
    assert!(!ok);
    assert!(err.contains("RPL"), "{err}");

    // A workload line asking for the top 0 answers.
    let workload = std::env::temp_dir().join(format!("trex-cli-k0-{}.txt", std::process::id()));
    std::fs::write(
        &workload,
        "1 10 //article//sec[about(., xml)]\n1 0 //article//sec[about(., xml)]\n",
    )
    .unwrap();
    let (ok, out, err) = run(&[
        "advise",
        &store,
        "--workload",
        workload.to_str().unwrap(),
        "--budget",
        "10000",
    ]);
    assert!(!ok, "{out}");
    assert!(err.contains("line 2: k must be at least 1"), "{err}");

    std::fs::remove_file(&store).ok();
    std::fs::remove_file(&workload).ok();
}

#[test]
fn cli_help_lists_commands() {
    let (ok, out, _) = run(&[]);
    assert!(ok);
    for cmd in [
        "build",
        "info",
        "query",
        "explain",
        "materialize",
        "advise",
        "serve",
        "stats",
        "--listen",
        "--slow-ms",
    ] {
        assert!(out.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn serve_answers_piped_queries_while_self_managing() {
    use std::io::Write;
    use std::process::Stdio;

    let store = temp("serve");
    let _ = std::fs::remove_file(&store);
    let (ok, _, err) = run(&["build", &store, "--synthetic", "ieee", "--docs", "40"]);
    assert!(ok, "build failed: {err}");

    let mut child = trex()
        .args([
            "serve",
            &store,
            "-k",
            "3",
            "--self-manage",
            "--budget",
            "67108864",
            "--interval-ms",
            "50",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn trex serve");
    {
        let mut stdin = child.stdin.take().unwrap();
        for _ in 0..8 {
            writeln!(stdin, "//article//sec[about(., xml query evaluation)]").unwrap();
        }
        writeln!(stdin, "not a query").unwrap();
        writeln!(stdin, "//sec[about(., code signing verification)]").unwrap();
    } // drop stdin: EOF ends the loop
    let out = child.wait_with_output().expect("serve exits on EOF");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("score"), "answers printed: {stdout}");
    assert!(stderr.contains("self-manager running"), "{stderr}");
    assert!(stderr.contains("answers in"), "status lines: {stderr}");
    assert!(stderr.contains("error:"), "bad query reported: {stderr}");
    assert!(stderr.contains("profiled"), "profiler visible: {stderr}");
    // The per-query status line surfaces the latency histogram and the
    // fallback rate alongside the counters.
    assert!(
        stderr.contains("p50") && stderr.contains("p99"),
        "latency percentiles in status line: {stderr}"
    );
    assert!(
        stderr.contains("era fallback rate"),
        "fallback rate in status line: {stderr}"
    );
    std::fs::remove_file(&store).ok();
}

#[test]
fn serve_stats_command_dumps_metrics_json() {
    use std::io::Write;
    use std::process::Stdio;

    let store = temp("serve-stats");
    let _ = std::fs::remove_file(&store);
    let (ok, _, err) = run(&["build", &store, "--synthetic", "ieee", "--docs", "40"]);
    assert!(ok, "build failed: {err}");

    let mut child = trex()
        .args(["serve", &store, "-k", "3"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn trex serve");
    {
        let mut stdin = child.stdin.take().unwrap();
        writeln!(stdin, "//article//sec[about(., xml query evaluation)]").unwrap();
        writeln!(stdin, "stats").unwrap();
        writeln!(stdin, "slow").unwrap();
    }
    let out = child.wait_with_output().expect("serve exits on EOF");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"histograms\":{\"storage\":{"),
        "stats REPL command dumps the registry: {stdout}"
    );
    assert!(
        stdout.contains("\"query\":{\"query\":{\"count\":1"),
        "the query latency landed in the histogram: {stdout}"
    );
    assert!(
        stdout.contains("\"threshold_ns\":"),
        "slow REPL command dumps the slow log: {stdout}"
    );
    std::fs::remove_file(&store).ok();
}

#[test]
fn stats_subcommand_renders_json_and_prometheus() {
    let store = temp("stats");
    let _ = std::fs::remove_file(&store);
    let (ok, _, err) = run(&["build", &store, "--synthetic", "ieee", "--docs", "40"]);
    assert!(ok, "build failed: {err}");

    let (ok, out, err) = run(&["stats", &store]);
    assert!(ok, "{err}");
    assert!(out.starts_with("{\"counters\":{\"storage\":{"), "{out}");
    assert!(out.contains("\"slow_queries\":0"), "{out}");

    let (ok, out, err) = run(&["stats", &store, "--prometheus"]);
    assert!(ok, "{err}");
    assert!(
        out.contains("# TYPE trex_storage_page_reads_total counter"),
        "{out}"
    );
    assert!(
        out.contains("# TYPE trex_storage_page_read_seconds histogram"),
        "{out}"
    );
    // Opening the store reads pages, so the read histogram is populated
    // and properly +Inf-terminated.
    assert!(
        out.contains("trex_storage_page_read_seconds_bucket{le=\"+Inf\"}"),
        "{out}"
    );
    std::fs::remove_file(&store).ok();
}

/// CLI parity across layouts: a family built with `--partitions 2` answers
/// `trex query` with the same lines as the single-store build, and the other
/// read-side subcommands open it too.
#[test]
fn partitioned_family_answers_like_the_single_store() {
    let single = temp("parity-single");
    let family = temp("parity-family");
    for (store, extra) in [(&single, &[][..]), (&family, &["--partitions", "2"][..])] {
        let mut args = vec![
            "build",
            store,
            "--synthetic",
            "ieee",
            "--docs",
            "40",
            "--store-docs",
        ];
        args.extend_from_slice(extra);
        let (ok, _, err) = run(&args);
        assert!(ok, "build failed: {err}");
    }
    assert!(
        !std::path::Path::new(&family).exists(),
        "family has no base file"
    );
    assert!(std::path::Path::new(&format!("{family}.p1")).exists());

    let query = "//article//sec[about(., xml query evaluation)]";
    for strategy in ["auto", "era"] {
        let args = ["-k", "7", "--strategy", strategy, "--snippets"];
        let (ok, want, err) = run(&[&["query", &single, query], &args[..]].concat());
        assert!(ok, "{err}");
        let (ok, got, err) = run(&[&["query", &family, query], &args[..]].concat());
        assert!(ok, "{err}");
        assert!(want.contains("score"), "{want}");
        assert_eq!(got, want, "strategy {strategy}");
    }

    let (ok, out, err) = run(&["info", &family]);
    assert!(ok, "{err}");
    assert!(out.contains("documents        40"), "{out}");
    assert!(out.contains("partitions       2"), "{out}");
    let (ok, out, err) = run(&["explain", &family, query]);
    assert!(ok, "{err}");
    assert!(out.contains("partition 1:"), "{out}");
    let (ok, _, err) = run(&["materialize", &family, query]);
    assert!(ok, "{err}");
    let (ok, _, err) = run(&["query", &family, query, "--strategy", "ta"]);
    assert!(ok, "{err}");
    let (ok, out, err) = run(&["stats", &family]);
    assert!(ok, "{err}");
    assert!(out.starts_with("{\"counters\":"), "{out}");

    // `serve --partitions` is only a check against what is on disk.
    let (ok, _, err) = run(&["serve", &family, "--partitions", "3"]);
    assert!(!ok);
    assert!(err.contains("does not match the 2 partition"), "{err}");

    let _ = std::fs::remove_file(&single);
    for i in 0..2 {
        let _ = std::fs::remove_file(format!("{family}.p{i}"));
    }
}

/// A fresh directory under the temp dir for one test's input files.
fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("trex-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn build_from_dir_stores_the_input_bytes() {
    let dir = temp_dir("raw-docs");
    let xml = "<?xml version=\"1.0\"?>\n<!-- kept comment -->\n<article><?pi data?>\
               <sec>xml retr<!-- split -->ieval</sec></article>\n";
    std::fs::write(dir.join("doc.xml"), xml).unwrap();
    let store = temp("raw-docs");
    let (ok, _, err) = run(&[
        "build",
        &store,
        "--dir",
        dir.to_str().unwrap(),
        "--store-docs",
    ]);
    assert!(ok, "build failed: {err}");
    let system = trex::TrexSystem::open(trex::TrexConfig::new(&store)).unwrap();
    assert_eq!(system.document(0).unwrap().as_deref(), Some(xml));
    drop(system);
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn build_from_dir_reports_an_unreadable_entry() {
    let dir = temp_dir("unreadable");
    std::fs::write(dir.join("good.xml"), "<a>text</a>").unwrap();
    std::fs::create_dir(dir.join("broken.xml")).unwrap();
    let store = temp("unreadable");
    let (ok, _, err) = run(&["build", &store, "--dir", dir.to_str().unwrap()]);
    assert!(!ok);
    assert!(err.contains("cannot read"), "{err}");
    assert!(err.contains("broken.xml"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_dir_all(&dir);
}
