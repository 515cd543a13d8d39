//! End-to-end tests of the explainability surface: W3C `traceparent`
//! round-trips over HTTP (inbound ids honored, malformed ids replaced,
//! every response echoes one), `/v1/trace/<id>` span trees (single-store
//! and partitioned scatter — one child span per partition, answers still
//! byte-identical), `/healthz` vs `/readyz`, the advisor decision journal
//! at `/v1/advisor/history`, and cost-model drift convergence on a steady
//! workload.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use trex::obs::{parse_json, DriftKind, JsonValue};
use trex::{
    EvalOptions, FoldOptions, HttpServerConfig, ListKind, SelfManageOptions, Strategy, TrexConfig,
    TrexSystem, TA_PREDICTION_FACTOR,
};

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("trex-tracing-{name}-{}.db", std::process::id()))
}

fn cleanup(path: &std::path::Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(trex::storage::wal_path(path)).ok();
    std::fs::remove_file(trex::advisor_sidecar_path(path)).ok();
    for i in 0..8 {
        let part = trex::partition_store_path(path, i);
        std::fs::remove_file(trex::storage::wal_path(&part)).ok();
        std::fs::remove_file(part).ok();
    }
}

fn docs() -> Vec<String> {
    (0..40)
        .map(|i| {
            let topic = ["xml", "retrieval", "index", "summary", "keyword"][i % 5];
            format!(
                "<article><sec>{topic} evaluation w{i}</sec><sec>cat dog {topic}</sec></article>"
            )
        })
        .collect()
}

/// One HTTP/1.1 request with optional extra headers; returns
/// (status line, full header block, body).
fn http_request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    for (name, value) in headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    if let Some(body) = body {
        request.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    request.push_str("\r\n");
    if let Some(body) = body {
        request.push_str(body);
    }
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("malformed response: {response}"));
    let status = head.lines().next().unwrap_or("").to_string();
    (status, head.to_string(), body.to_string())
}

/// The `traceparent` header value in a response head, if present.
fn response_traceparent(head: &str) -> Option<String> {
    head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("traceparent")
            .then(|| value.trim().to_string())
    })
}

/// `(doc, start, end, sid, score-bits)` — exact comparison, scores included.
type AnswerTuple = (u64, u64, u64, u64, u32);

fn answer_tuples(response: &JsonValue) -> Vec<AnswerTuple> {
    let JsonValue::Array(answers) = response.get("answers").expect("answers field") else {
        panic!("answers is not an array");
    };
    answers
        .iter()
        .map(|a| {
            (
                a.get("doc").unwrap().as_u64().unwrap(),
                a.get("start").unwrap().as_u64().unwrap(),
                a.get("end").unwrap().as_u64().unwrap(),
                a.get("sid").unwrap().as_u64().unwrap(),
                (a.get("score").unwrap().as_f64().unwrap() as f32).to_bits(),
            )
        })
        .collect()
}

#[test]
fn traceparent_round_trip_and_trace_route() {
    let path = temp("roundtrip");
    let system = TrexSystem::build(TrexConfig::new(&path), docs()).expect("build");
    let server = system
        .serve_http("127.0.0.1:0", HttpServerConfig::default())
        .expect("start http server");
    let addr = server.addr();
    let body = r#"{"nexi": "//article//sec[about(., xml)]", "k": 5}"#;

    // Inbound traceparent: honored (the response echoes the same trace id)
    // and the assembled span tree is served at /v1/trace/<id>.
    let trace_id = "0af7651916cd43dd8448eb211c80319c";
    let inbound = format!("00-{trace_id}-b7ad6b7169203331-01");
    let (status, head, _) = http_request(
        addr,
        "POST",
        "/v1/query",
        &[("traceparent", &inbound)],
        Some(body),
    );
    assert!(status.contains("200"), "{status}");
    let echoed = response_traceparent(&head).expect("response echoes traceparent");
    assert!(
        echoed.contains(trace_id),
        "echo {echoed} lost the inbound trace id"
    );

    let (status, _, trace_body) =
        http_request(addr, "GET", &format!("/v1/trace/{trace_id}"), &[], None);
    assert!(status.contains("200"), "{status}: {trace_body}");
    let record = parse_json(&trace_body).expect("trace record is JSON");
    assert_eq!(
        record.get("trace_id").unwrap().as_str(),
        Some(trace_id),
        "{trace_body}"
    );
    let root = record.get("root").expect("root span");
    assert_eq!(root.get("name").unwrap().as_str(), Some("query"));
    assert!(root.get("duration_us").unwrap().as_u64().is_some());
    assert!(record.get("truncated").unwrap().as_bool().is_some());

    // A malformed traceparent is replaced with a freshly minted valid one.
    let (status, head, _) = http_request(
        addr,
        "POST",
        "/v1/query",
        &[("traceparent", "junk-not-a-traceparent")],
        Some(body),
    );
    assert!(status.contains("200"), "{status}");
    let minted = response_traceparent(&head).expect("fresh traceparent minted");
    assert!(!minted.contains(trace_id));
    let parts: Vec<&str> = minted.split('-').collect();
    assert_eq!(parts.len(), 4, "w3c shape: {minted}");
    assert_eq!(parts[0], "00");
    assert_eq!(parts[1].len(), 32);
    assert_eq!(parts[2].len(), 16);
    assert_ne!(parts[1], "00000000000000000000000000000000");

    // A header-less request still gets a correlation id echoed back, but
    // no capture: the result cache stays usable for the common path.
    let (status, head, _) = http_request(addr, "POST", "/v1/query", &[], Some(body));
    assert!(status.contains("200"), "{status}");
    let correlation = response_traceparent(&head).expect("correlation id minted");
    let correlation_id = correlation.split('-').nth(1).unwrap();
    let (status, _, _) = http_request(
        addr,
        "GET",
        &format!("/v1/trace/{correlation_id}"),
        &[],
        None,
    );
    assert!(
        status.contains("404"),
        "header-less requests are not captured: {status}"
    );

    // Unknown-but-valid id → 404; malformed id → 400.
    let (status, _, _) = http_request(
        addr,
        "GET",
        "/v1/trace/ffffffffffffffffffffffffffffffff",
        &[],
        None,
    );
    assert!(status.contains("404"), "{status}");
    let (status, _, _) = http_request(addr, "GET", "/v1/trace/zzz", &[], None);
    assert!(status.contains("400"), "{status}");

    // Slow-query log entries carry the trace id of traced requests.
    system
        .index()
        .telemetry()
        .slow
        .set_threshold(Some(Duration::ZERO));
    let unique = r#"{"nexi": "//article//sec[about(., keyword)]", "k": 5}"#;
    let (status, _, _) = http_request(
        addr,
        "POST",
        "/v1/query",
        &[("traceparent", &inbound)],
        Some(unique),
    );
    assert!(status.contains("200"), "{status}");
    let (_, _, slow) = http_request(addr, "GET", "/v1/slow", &[], None);
    assert!(
        slow.contains(trace_id),
        "slow log names the trace id: {slow}"
    );

    server.stop();
    cleanup(&path);
}

#[test]
fn healthz_is_liveness_readyz_is_readiness() {
    let path = temp("ready");
    let system = TrexSystem::build(TrexConfig::new(&path), docs()).expect("build");
    let server = system
        .serve_http("127.0.0.1:0", HttpServerConfig::default())
        .expect("start http server");
    let addr = server.addr();

    let (status, _, body) = http_request(addr, "GET", "/v1/healthz", &[], None);
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ok\n");

    let (status, _, body) = http_request(addr, "GET", "/readyz", &[], None);
    assert!(status.contains("200"), "{status}: {body}");
    let health = parse_json(&body).expect("readyz body is JSON");
    assert_eq!(health.get("ready").unwrap().as_bool(), Some(true));
    assert!(health.get("generation").unwrap().as_u64().is_some());
    assert_eq!(
        health.get("reconcile_in_flight").unwrap().as_bool(),
        Some(false)
    );
    assert_eq!(health.get("fold_in_flight").unwrap().as_bool(), Some(false));

    // Flip readiness off: liveness stays 200, readiness goes 503.
    system.health().set_ready(false);
    let (status, _, _) = http_request(addr, "GET", "/v1/healthz", &[], None);
    assert!(status.contains("200"), "{status}");
    let (status, _, body) = http_request(addr, "GET", "/v1/readyz", &[], None);
    assert!(status.contains("503"), "{status}");
    let health = parse_json(&body).expect("unready body is still JSON");
    assert_eq!(health.get("ready").unwrap().as_bool(), Some(false));

    server.stop();
    cleanup(&path);
}

/// The one fold worker serves every partition and is wired to the health
/// surface at any partition count: documents ingested over HTTP into a
/// three-partition system all drain out of their home partitions' deltas,
/// and `/readyz` stays well-formed JSON throughout.
#[test]
fn fold_worker_drains_every_partition_under_readyz() {
    let path = temp("fold-parts");
    let system = TrexSystem::build_partitioned(TrexConfig::new(&path), 3, docs()).expect("build");
    let server = system
        .serve_http("127.0.0.1:0", HttpServerConfig::default())
        .expect("start http server");
    let addr = server.addr();
    let folder = system
        .start_fold_manager(
            FoldOptions::new()
                .max_docs(1)
                .interval(Duration::from_millis(5)),
        )
        .expect("start fold worker");

    let readyz = || {
        let (status, _, body) = http_request(addr, "GET", "/v1/readyz", &[], None);
        assert!(status.contains("200"), "{status}: {body}");
        let health = parse_json(&body).expect("readyz body is JSON");
        assert_eq!(health.get("ready").unwrap().as_bool(), Some(true));
        assert!(health.get("generation").unwrap().as_u64().is_some());
        assert!(health
            .get("reconcile_in_flight")
            .unwrap()
            .as_bool()
            .is_some());
        health.get("fold_in_flight").unwrap().as_bool().unwrap()
    };

    const INGESTED: u64 = 30;
    for i in 0..INGESTED {
        let xml = format!("<article><sec>xml evaluation live{i}</sec><sec>cat dog</sec></article>");
        let (status, _, body) = http_request(addr, "POST", "/v1/ingest", &[], Some(&xml));
        assert!(status.contains("200"), "{status}: {body}");
        readyz();
    }

    let parts = system.system().parts();
    let deadline = Instant::now() + Duration::from_secs(20);
    while parts.iter().any(|p| !p.index().delta().is_empty()) {
        assert!(
            Instant::now() < deadline,
            "deltas never drained: {:?}",
            folder.last_error()
        );
        readyz();
        std::thread::sleep(Duration::from_millis(5));
    }
    let folded: Vec<u64> = parts
        .iter()
        .map(|p| p.index().delta().folded_docs())
        .collect();
    assert_eq!(folded.iter().sum::<u64>(), INGESTED, "{folded:?}");
    assert!(
        folded.iter().all(|&n| n > 0),
        "every partition folded: {folded:?}"
    );
    assert!(folder.folds() >= 1);
    assert!(folder.last_error().is_none(), "{:?}", folder.last_error());
    folder.stop();
    assert!(!readyz(), "no fold in flight once the worker has stopped");

    server.stop();
    cleanup(&path);
}

#[test]
fn partitioned_trace_tree_spans_every_partition() {
    let single_path = temp("scatter-single");
    let part_path = temp("scatter-parts");
    let single = TrexSystem::build(TrexConfig::new(&single_path), docs()).expect("build single");
    let parts =
        TrexSystem::build_partitioned(TrexConfig::new(&part_path), 3, docs()).expect("build parts");
    assert_eq!(parts.partitions(), 3);

    let single_server = single
        .serve_http("127.0.0.1:0", HttpServerConfig::default())
        .expect("single http");
    let part_server = parts
        .serve_http("127.0.0.1:0", HttpServerConfig::default())
        .expect("partitioned http");

    let body = r#"{"nexi": "//article//sec[about(., retrieval evaluation)]", "k": 10}"#;
    let trace_id = "4bf92f3577b34da6a3ce929d0e0e4736";
    let inbound = format!("00-{trace_id}-00f067aa0ba902b7-01");

    let (status, _, single_body) =
        http_request(single_server.addr(), "POST", "/v1/query", &[], Some(body));
    assert!(status.contains("200"), "{status}");
    let (status, head, part_body) = http_request(
        part_server.addr(),
        "POST",
        "/v1/query",
        &[("traceparent", &inbound)],
        Some(body),
    );
    assert!(status.contains("200"), "{status}");
    assert!(response_traceparent(&head)
        .expect("partitioned echo")
        .contains(trace_id));

    // Byte-identical answers: same tuples, same score bits, traced or not.
    let single_json = parse_json(&single_body).unwrap();
    let part_json = parse_json(&part_body).unwrap();
    assert_eq!(answer_tuples(&part_json), answer_tuples(&single_json));
    assert!(!answer_tuples(&part_json).is_empty(), "query matched docs");

    // The assembled tree is one scatter root with exactly one child span
    // per partition, each wrapping that partition's own query tree.
    let (status, _, trace_body) = http_request(
        part_server.addr(),
        "GET",
        &format!("/v1/trace/{trace_id}"),
        &[],
        None,
    );
    assert!(status.contains("200"), "{status}: {trace_body}");
    let record = parse_json(&trace_body).expect("trace record");
    let root = record.get("root").expect("root");
    assert_eq!(root.get("name").unwrap().as_str(), Some("scatter"));
    let JsonValue::Array(children) = root.get("children").expect("children") else {
        panic!("children is not an array");
    };
    let mut names: Vec<String> = children
        .iter()
        .map(|c| c.get("name").unwrap().as_str().unwrap().to_string())
        .collect();
    names.sort();
    assert_eq!(names, vec!["partition:0", "partition:1", "partition:2"]);
    for child in children {
        let JsonValue::Array(grand) = child.get("children").expect("partition children") else {
            panic!("partition children is not an array");
        };
        assert_eq!(grand.len(), 1, "one query tree per partition");
        assert_eq!(grand[0].get("name").unwrap().as_str(), Some("query"));
    }

    single_server.stop();
    part_server.stop();
    cleanup(&single_path);
    cleanup(&part_path);
}

#[test]
fn advisor_journal_records_cycles_and_serves_history() {
    let path = temp("advisor");
    let system = TrexSystem::build(TrexConfig::new(&path), docs()).expect("build");

    // Give the profiler a workload worth reconciling for.
    let engine = system.engine();
    for _ in 0..4 {
        engine
            .evaluate(
                "//article//sec[about(., xml)]",
                EvalOptions::new().k(Some(5)),
            )
            .expect("seed profiler");
    }

    let manager = system
        .start_self_manager(
            SelfManageOptions::new(64 * 1024 * 1024).interval(Duration::from_millis(10)),
        )
        .expect("start self-manager");
    let deadline = Instant::now() + Duration::from_secs(20);
    while system.advisor_journal().len() < 2 {
        assert!(
            Instant::now() < deadline,
            "self-manager never journalled a cycle"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    manager.stop();

    let server = system
        .serve_http("127.0.0.1:0", HttpServerConfig::default())
        .expect("start http server");
    let (status, _, body) = http_request(server.addr(), "GET", "/v1/advisor/history", &[], None);
    assert!(status.contains("200"), "{status}");
    let history = parse_json(&body).expect("history is JSON");
    assert_eq!(history.get("v").unwrap().as_u64(), Some(1));
    let JsonValue::Array(cycles) = history.get("cycles").expect("cycles") else {
        panic!("cycles is not an array");
    };
    assert!(cycles.len() >= 2, "{body}");
    let first = &cycles[0];
    assert_eq!(
        first.get("budget_bytes").unwrap().as_u64(),
        Some(64 * 1024 * 1024)
    );
    for key in [
        "cycle",
        "unix_ms",
        "generation",
        "bytes_used",
        "lists_materialized",
        "lists_dropped",
        "gate_pause_us",
        "wall_us",
    ] {
        assert!(first.get(key).unwrap().as_u64().is_some(), "missing {key}");
    }
    // A single store is one partition holding the whole budget.
    let JsonValue::Array(splits) = first.get("splits").expect("splits") else {
        panic!("splits is not an array");
    };
    assert_eq!(splits.len(), 1, "{body}");
    assert_eq!(
        splits[0].get("budget_bytes").unwrap().as_u64(),
        Some(64 * 1024 * 1024)
    );
    let JsonValue::Array(shapes) = first.get("shapes").expect("shapes") else {
        panic!("shapes is not an array");
    };
    assert!(
        !shapes.is_empty(),
        "profiled workload appears in the record"
    );
    let shape = &shapes[0];
    assert!(shape.get("nexi").unwrap().as_str().is_some());
    assert!(shape.get("choice").unwrap().as_str().is_some());
    assert!(shape.get("measured_era_us").unwrap().as_f64().is_some());

    // The first cycle materialises lists, so its deltas name them.
    let materialised: u64 = cycles
        .iter()
        .map(|c| c.get("lists_materialized").unwrap().as_u64().unwrap())
        .sum();
    assert!(materialised > 0, "no cycle materialised anything: {body}");

    let (status, _, last) = http_request(server.addr(), "GET", "/v1/advisor/last", &[], None);
    assert!(status.contains("200"), "{status}");
    parse_json(&last).expect("last is JSON");

    // The on-disk sidecar mirrors the ring: one parseable JSON line each.
    let sidecar = std::fs::read_to_string(trex::advisor_sidecar_path(&path)).expect("sidecar");
    let lines: Vec<&str> = sidecar.lines().filter(|l| !l.is_empty()).collect();
    assert!(lines.len() >= 2, "sidecar has {} lines", lines.len());
    for line in &lines {
        parse_json(line).expect("sidecar line is JSON");
    }

    server.stop();
    cleanup(&path);
}

#[test]
fn drift_monitor_converges_on_a_steady_workload() {
    let path = temp("drift");
    let system = TrexSystem::build(TrexConfig::new(&path), docs()).expect("build");
    let nexi = "//article//sec[about(., xml retrieval)]";
    system
        .materialize_for(nexi, ListKind::Both)
        .expect("materialise redundant lists");

    let drift = &system.index().telemetry().drift;
    let engine = system.engine();
    for _ in 0..12 {
        engine
            .evaluate(
                nexi,
                EvalOptions::new()
                    .k(Some(5))
                    .trace(true)
                    .strategy(Strategy::Merge),
            )
            .expect("merge query");
        engine
            .evaluate(
                nexi,
                EvalOptions::new()
                    .k(Some(5))
                    .trace(true)
                    .strategy(Strategy::Ta),
            )
            .expect("ta query");
    }

    assert!(drift.samples(DriftKind::MergeEntries) >= 12);
    assert!(drift.samples(DriftKind::TaEntries) >= 12);
    // Merge's §4 cost model counts exactly the entries the strategy reads,
    // so its relative error settles near zero.
    let merge_err = drift.ewma(DriftKind::MergeEntries);
    assert!(merge_err < 0.1, "merge entry drift {merge_err}");
    // TA's prediction is a calibrated upper bound: the measured access
    // count stays within the documented prediction factor.
    let ta_err = drift.ewma(DriftKind::TaEntries);
    assert!(
        ta_err < TA_PREDICTION_FACTOR,
        "ta entry drift {ta_err} outside the prediction factor"
    );

    // The per-strategy gauges surface in both metric renderings.
    let registry = system.metrics();
    let prom = registry.render_prometheus();
    assert!(prom.contains("trex_drift_ewma"), "drift gauges exported");
    assert!(
        prom.contains("trex_cost_model_drift_alerts_total"),
        "alert counter exported"
    );
    assert!(prom.contains("trex_build_info"), "build info gauge");
    assert!(prom.contains("trex_uptime_seconds"), "uptime gauge");
    let json = registry.render_json();
    assert!(json.contains("drift"), "drift group in JSON rendering");

    cleanup(&path);
}
