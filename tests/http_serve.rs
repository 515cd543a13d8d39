//! End-to-end tests of the query-serving HTTP front end: answer
//! correctness under concurrency (HTTP answers must equal direct engine
//! evaluation), the generation-keyed result cache (hit on repeat, miss
//! after a reconcile bumps the generation), bounded-queue admission
//! control (`429` at saturation, counter-asserted), cooperative deadlines
//! (`408`), and request-framing robustness (`400`/`405`/`404`/`411`/`413`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use trex::obs::JsonValue;
use trex::{
    reconcile_once, CostCache, EvalOptions, HttpServerConfig, SelfManageOptions, TrexConfig,
    TrexSystem,
};

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("trex-http-serve-{name}-{}.db", std::process::id()))
}

fn cleanup(path: &std::path::Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(trex::storage::wal_path(path)).ok();
}

fn build_system(path: &std::path::Path) -> TrexSystem {
    let docs: Vec<String> = (0..40)
        .map(|i| {
            let topic = ["xml", "retrieval", "index", "summary", "keyword"][i % 5];
            format!(
                "<article><sec>{topic} evaluation w{i}</sec><sec>cat dog {topic}</sec></article>"
            )
        })
        .collect();
    TrexSystem::build(TrexConfig::new(path), docs).expect("build system")
}

/// One HTTP/1.1 request; returns (status line, headers, body).
fn http_request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    content_length: Option<usize>,
) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    if let Some(len) = content_length {
        request.push_str(&format!("Content-Length: {len}\r\n"));
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

fn post_query(addr: std::net::SocketAddr, body: &str) -> (String, JsonValue) {
    let (status, _, body) = http_request(addr, "POST", "/v1/query", Some(body), Some(body.len()));
    let value = trex::obs::parse_json(&body)
        .unwrap_or_else(|e| panic!("non-JSON response body {body:?}: {e}"));
    (status, value)
}

/// `(doc, start, end, sid, score)` — scores travel as
/// shortest-representation `f32` decimals, so compare as `f32`.
type AnswerTuple = (u64, u64, u64, u64, f32);

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
                a.get("score").unwrap().as_f64().unwrap() as f32,
            )
        })
        .collect()
}

#[test]
fn concurrent_clients_get_engine_identical_answers() {
    let path = temp("concurrent");
    let system = build_system(&path);
    let queries = [
        "//article//sec[about(., xml)]",
        "//article//sec[about(., retrieval evaluation)]",
        "//article//sec[about(., cat dog)]",
        "//article//sec[about(., summary)]",
    ];
    // Direct engine evaluation is the ground truth.
    let engine = system.engine();
    let expected: Vec<Vec<AnswerTuple>> = queries
        .iter()
        .map(|q| {
            engine
                .evaluate(q, EvalOptions::new().k(Some(10)))
                .unwrap()
                .answers
                .iter()
                .map(|a| {
                    (
                        u64::from(a.element.doc),
                        u64::from(a.element.start()),
                        u64::from(a.element.end),
                        u64::from(a.sid),
                        a.score,
                    )
                })
                .collect()
        })
        .collect();

    let server = system
        .serve_http(
            "127.0.0.1:0",
            HttpServerConfig {
                workers: 4,
                queue_depth: 256,
                ..HttpServerConfig::default()
            },
        )
        .expect("start http server");
    let addr = server.addr();

    // 64 concurrent clients, 16 per query.
    let mismatches = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..64 {
            let query = queries[client % queries.len()];
            let want = &expected[client % queries.len()];
            handles.push(scope.spawn(move || {
                let body = format!("{{\"nexi\": {:?}, \"k\": 10}}", query);
                let (status, response) = post_query(addr, &body);
                if !status.contains("200") {
                    return Some(format!("client {client}: status {status}"));
                }
                if response.get("v").unwrap().as_u64() != Some(1) {
                    return Some(format!("client {client}: bad envelope version"));
                }
                let got = answer_tuples(&response);
                (&got != want).then(|| format!("client {client}: {got:?} != {want:?}"))
            }));
        }
        handles
            .into_iter()
            .filter_map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    assert!(mismatches.is_empty(), "{mismatches:?}");

    // Every request was admitted; none shed, none errored.
    let snap = system.serve_metrics().counters.snapshot();
    assert_eq!(snap.shed, 0);
    assert_eq!(snap.admitted, 64);
    assert_eq!(snap.internal_errors, 0);

    server.stop();
    cleanup(&path);
}

#[test]
fn repeat_query_hits_cache_until_reconcile_bumps_generation() {
    let path = temp("cache");
    let system = build_system(&path);
    let server = system
        .serve_http("127.0.0.1:0", HttpServerConfig::default())
        .expect("start http server");
    let addr = server.addr();
    let body = r#"{"nexi": "//article//sec[about(., xml)]", "k": 5}"#;

    let (status, first) = post_query(addr, body);
    assert!(status.contains("200"), "{status}");
    assert_eq!(first.get("cache").unwrap().as_str(), Some("miss"));

    let (_, second) = post_query(addr, body);
    assert_eq!(second.get("cache").unwrap().as_str(), Some("hit"));
    assert_eq!(answer_tuples(&second), answer_tuples(&first));
    assert_eq!(
        second.get("generation").unwrap().as_u64(),
        first.get("generation").unwrap().as_u64()
    );
    // A spelling variant of the same query normalizes to the same key.
    let variant = r#"{"nexi": "  //article//sec[about(.,   XML)]", "k": 5}"#;
    let (_, third) = post_query(addr, variant);
    assert_eq!(third.get("cache").unwrap().as_str(), Some("hit"));

    // Reconcile: materialise redundant lists for the observed workload.
    // The write gate bumps the maintenance generation, which invalidates
    // every cached result without touching the cache itself. (Cache hits
    // skip the engine, so reinforce the profiled workload directly —
    // engine-path queries bypass the service and leave cache counters
    // untouched.)
    let engine = system.engine();
    for _ in 0..4 {
        engine
            .evaluate(
                "//article//sec[about(., xml)]",
                EvalOptions::new().k(Some(5)),
            )
            .expect("seed profiler");
    }
    let before = system.index().maintenance().generation();
    let report = reconcile_once(
        system.index(),
        system.profiler(),
        &SelfManageOptions::new(64 * 1024 * 1024),
        &mut CostCache::new(),
    )
    .expect("reconcile");
    assert!(
        report.lists_materialized > 0,
        "reconcile materialised nothing; generation would not move"
    );
    let after = system.index().maintenance().generation();
    assert!(after > before, "generation did not advance");

    let (_, fourth) = post_query(addr, body);
    assert_eq!(fourth.get("cache").unwrap().as_str(), Some("miss"));
    assert_eq!(fourth.get("generation").unwrap().as_u64(), Some(after));
    // Same index content, so the answers themselves are unchanged.
    assert_eq!(answer_tuples(&fourth), answer_tuples(&first));

    let snap = system.serve_metrics().counters.snapshot();
    assert_eq!(snap.cache_hits, 2);
    assert_eq!(snap.cache_misses, 2);

    server.stop();
    cleanup(&path);
}

#[test]
fn saturated_queue_sheds_with_429_and_retry_after() {
    // Depth 0 is raised to one slot, so it must shed exactly like depth 1.
    for queue_depth in [0, 1] {
        let path = temp(&format!("shed-{queue_depth}"));
        let system = build_system(&path);
        // One worker, one queue slot, short I/O timeout: two idle connections
        // saturate the server (one held by the worker, one queued); the third
        // must be shed at the door.
        let server = system
            .serve_http(
                "127.0.0.1:0",
                HttpServerConfig {
                    workers: 1,
                    queue_depth,
                    io_timeout: Duration::from_secs(2),
                    ..HttpServerConfig::default()
                },
            )
            .expect("start http server");
        assert_eq!(server.config().queue_depth, 1);
        let addr = server.addr();
        let serve = system.serve_metrics();

        // First idle connection: admitted, then dequeued by the worker (which
        // blocks reading it). Wait for the dequeue so the queue is empty again.
        let conn_a = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while serve.queue_depth.get() != 0 || serve.counters.admitted.get() < 1 {
            assert!(Instant::now() < deadline, "worker never picked up conn A");
            std::thread::sleep(Duration::from_millis(5));
        }

        // Second idle connection: admitted, stays queued (worker is busy).
        let conn_b = TcpStream::connect(addr).unwrap();
        while serve.counters.admitted.get() < 2 {
            assert!(Instant::now() < deadline, "conn B never admitted");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(serve.queue_depth.get(), 1);

        // Third connection: the queue is full — shed, deterministically.
        let mut conn_c = TcpStream::connect(addr).unwrap();
        conn_c
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut response = String::new();
        conn_c.read_to_string(&mut response).expect("shed response");
        let (head, body) = response.split_once("\r\n\r\n").expect("shed head/body");
        assert!(
            head.starts_with("HTTP/1.1 429"),
            "expected 429, got: {head}"
        );
        assert!(head.contains("Retry-After: 1"), "{head}");
        let error = trex::obs::parse_json(body).expect("shed body is JSON");
        assert_eq!(error.get("code").unwrap().as_str(), Some("overloaded"));
        assert_eq!(error.get("retryable").unwrap().as_bool(), Some(true));

        // Counter-assert: exactly one shed, exactly two admitted.
        let snap = serve.counters.snapshot();
        assert_eq!(snap.shed, 1, "shed counter");
        assert_eq!(snap.admitted, 2, "admitted counter");

        drop(conn_a);
        drop(conn_b);
        server.stop();
        cleanup(&path);
    }
}

#[test]
fn expired_deadline_answers_408() {
    let path = temp("deadline");
    let system = build_system(&path);
    let server = system
        .serve_http("127.0.0.1:0", HttpServerConfig::default())
        .expect("start http server");
    let addr = server.addr();

    let body = r#"{"nexi": "//article//sec[about(., xml)]", "k": 5, "deadline_ms": 0}"#;
    let (status, error) = post_query(addr, body);
    assert!(status.contains("408"), "{status}");
    assert_eq!(
        error.get("code").unwrap().as_str(),
        Some("deadline_exceeded")
    );
    assert_eq!(error.get("retryable").unwrap().as_bool(), Some(true));
    assert_eq!(
        system.serve_metrics().counters.snapshot().deadline_exceeded,
        1
    );

    // A traced request reports bypass (traces are never cached).
    let body = r#"{"nexi": "//article//sec[about(., xml)]", "k": 5, "trace": true}"#;
    let (status, response) = post_query(addr, body);
    assert!(status.contains("200"), "{status}");
    assert_eq!(response.get("cache").unwrap().as_str(), Some("bypass"));
    assert!(response.get("trace").is_some(), "trace attached");

    server.stop();
    cleanup(&path);
}

#[test]
fn malformed_requests_get_structured_errors() {
    let path = temp("robust");
    let system = build_system(&path);
    let server = system
        .serve_http(
            "127.0.0.1:0",
            HttpServerConfig {
                max_body_bytes: 1024,
                ..HttpServerConfig::default()
            },
        )
        .expect("start http server");
    let addr = server.addr();

    // Unparsable JSON → 400.
    let (status, _, body) = http_request(
        addr,
        "POST",
        "/v1/query",
        Some("not json"),
        Some("not json".len()),
    );
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("bad_request"), "{body}");

    // Valid JSON, missing nexi → 400 naming the field.
    let (status, _, body) = http_request(addr, "POST", "/v1/query", Some(r#"{"k": 5}"#), Some(8));
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("nexi"), "{body}");

    // Unknown strategy (the retired "race" included) → 400 bad_request.
    let race = r#"{"nexi": "//a[about(., x)]", "strategy": "race"}"#;
    let (status, _, body) = http_request(addr, "POST", "/v1/query", Some(race), Some(race.len()));
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("bad_request"), "{body}");
    assert!(body.contains("strategy"), "{body}");

    // Unparsable NEXI → 400 query_error.
    let broken = r#"{"nexi": "//a[about(., )]]]"}"#;
    let (status, _, body) =
        http_request(addr, "POST", "/v1/query", Some(broken), Some(broken.len()));
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("query_error"), "{body}");

    // POST without Content-Length → 411.
    let (status, _, body) = http_request(addr, "POST", "/v1/query", Some("{}"), None);
    assert!(status.contains("411"), "{status}");
    assert!(body.contains("length_required"), "{body}");

    // Content-Length over the cap → 413 (without sending the body).
    let (status, _, body) = http_request(addr, "POST", "/v1/query", None, Some(10_000_000));
    assert!(status.contains("413"), "{status}");
    assert!(body.contains("payload_too_large"), "{body}");

    // GET on /query → 405; unknown route → 404.
    let (status, _, body) = http_request(addr, "GET", "/v1/query", None, None);
    assert!(status.contains("405"), "{status}");
    assert!(body.contains("method_not_allowed"), "{body}");
    let (status, _, _) = http_request(addr, "GET", "/v1/nope", None, None);
    assert!(status.contains("404"), "{status}");

    // The unversioned alias answers queries too, and the GET surface is up.
    let ok = r#"{"nexi": "//article//sec[about(., xml)]"}"#;
    let (status, _, _) = http_request(addr, "POST", "/query", Some(ok), Some(ok.len()));
    assert!(status.contains("200"), "{status}");
    let (status, _, body) = http_request(addr, "GET", "/v1/healthz", None, None);
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ok\n");
    let (status, _, body) = http_request(addr, "GET", "/v1/metrics", None, None);
    assert!(status.contains("200"), "{status}");
    assert!(
        body.contains("trex_serve_admitted_total"),
        "serve counters exported"
    );

    server.stop();
    cleanup(&path);
}
