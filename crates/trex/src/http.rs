//! The HTTP front end: query serving plus metrics, hand-rolled HTTP/1.1.
//!
//! Two servers live here. [`MetricsServer`] is the original single-thread
//! scrape endpoint (kept for tooling that only wants metrics).
//! [`HttpServer`] is the query-serving front end: a versioned surface
//! (`/v1/*`, with unversioned aliases) answering queries through the same
//! [`QueryService`] the REPL uses.
//!
//! | route | method | body |
//! |---|---|---|
//! | `/v1/query` | POST | JSON request → versioned result envelope |
//! | `/v1/ingest` | POST | raw XML document → `{"doc_id", "generation"}` |
//! | `/v1/metrics` | GET | Prometheus text exposition format 0.0.4 |
//! | `/v1/metrics.json` | GET | the same registry as one JSON object |
//! | `/v1/slow` | GET | the slow-query log (span trees included) |
//! | `/v1/healthz` | GET | liveness: `ok` whenever the process serves |
//! | `/v1/readyz` | GET | readiness JSON; `503` until the store is open |
//! | `/v1/advisor/history` | GET | the advisor decision journal (ring) |
//! | `/v1/advisor/last` | GET | the most recent reconcile cycle record |
//! | `/v1/trace/<id>` | GET | the span tree captured for trace id `<id>` |
//!
//! **Tracing.** `/query` requests that carry a W3C `traceparent` header are
//! traced: a malformed header is replaced with a freshly minted identity,
//! the engine assembles the query's span tree under that id (one child per
//! partition for scatter queries), and `/v1/trace/<trace-id>` serves the
//! assembled tree afterwards. The response always echoes a `traceparent`
//! header — the inbound identity when one was given, a fresh one otherwise
//! (a correlation id only; header-less requests skip capture so they keep
//! their result-cache eligibility).
//!
//! **Admission control.** The acceptor thread takes connections off the
//! listener and pushes them into a *bounded* queue ([`HttpServerConfig::
//! queue_depth`]); a fixed pool of workers drains it. When the queue is
//! full the acceptor answers `429 Too Many Requests` (with `Retry-After`)
//! immediately instead of letting the backlog grow — the queue is the only
//! buffer, so memory under overload is bounded by `queue_depth`, not by
//! the arrival rate.
//!
//! **Deadlines.** A request's `deadline_ms` budget is anchored at *enqueue*
//! time, so time spent waiting in the admission queue counts against it;
//! the strategies then poll the deadline cooperatively at their iteration
//! boundaries and an expired query answers `408` rather than running on.
//!
//! **Errors.** Every non-200 response is a structured JSON object
//! `{"code", "message", "retryable"}` — `400` (unparsable request or
//! query), `404`, `405`, `408` (deadline), `411`/`413` (body framing),
//! `431` (request head over 16 KiB or 100 headers), `429` (shed, with a `Retry-After` derived from the observed median
//! service time and the queue depth), `500` (engine failure), `507`
//! (document-id space exhausted).
//!
//! No external dependency, no framework: requests are read line-by-line
//! with per-connection read/write timeouts, heads and bodies are capped
//! (bodies framed by `Content-Length`), and every response closes the
//! connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use trex_core::obs::{parse_traceparent, MetricsRegistry, ServeMetrics, TraceContext};
use trex_core::serve::error_body;
use trex_core::{parse_query_request, QueryService, TrexError};

use crate::TrexSystem;

/// The background metrics endpoint. Dropping (or [`stop`]ping) the handle
/// shuts the listener thread down.
///
/// [`stop`]: MetricsServer::stop
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`, or port `0` for an ephemeral
    /// port — see [`addr`]) and starts answering scrapes on a new thread.
    ///
    /// [`addr`]: MetricsServer::addr
    pub fn start(addr: &str, registry: MetricsRegistry) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("trex-metrics".into())
                .spawn(move || serve_loop(listener, registry, stop))?
        };
        Ok(MetricsServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (the actual port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with one last connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.shutdown();
        }
    }
}

fn serve_loop(listener: TcpListener, registry: MetricsRegistry, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // A scrape is one short request; a stuck client must not wedge
        // the endpoint forever.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
        let _ = handle_scrape(stream, &registry);
    }
}

fn handle_scrape(stream: TcpStream, registry: &MetricsRegistry) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    // Scrapes carry no body: a POST with one answers 413.
    let outcome = read_request(&mut reader, 0)?;
    let mut stream = reader.into_inner();
    let (method, path) = match outcome {
        Ok((method, path, _, _)) => (method, path),
        Err((status, body)) => return respond(&mut stream, status, "application/json", &body),
    };

    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "GET only\n",
        );
    }
    match metrics_route(unversioned(&path), registry) {
        Some((status, content_type, body)) => respond(&mut stream, status, content_type, &body),
        None => respond(
            &mut stream,
            "404 Not Found",
            "text/plain",
            "try /metrics, /metrics.json, /slow, /healthz, /readyz, /advisor/history or /trace/<id>\n",
        ),
    }
}

/// The GET surface shared by both servers: `(status, content-type, body)`,
/// or `None` for paths neither serves.
fn metrics_route(
    path: &str,
    registry: &MetricsRegistry,
) -> Option<(&'static str, &'static str, String)> {
    match path {
        "/metrics" => Some((
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            registry.render_prometheus(),
        )),
        "/metrics.json" => Some(("200 OK", "application/json", registry.render_json())),
        "/slow" => Some(("200 OK", "application/json", registry.render_slow_json())),
        // Liveness: answers whenever the process can serve HTTP at all.
        "/healthz" => Some(("200 OK", "text/plain", "ok\n".to_string())),
        // Readiness: 503 until the owning system flips `ready` after
        // open/recovery; the body reports the maintenance generation and
        // any reconcile/fold currently in flight either way.
        "/readyz" => {
            let health = registry.health();
            let status = if health.ready() {
                "200 OK"
            } else {
                "503 Service Unavailable"
            };
            Some((
                status,
                "application/json",
                trex_core::obs::ToJson::to_json(health.as_ref()),
            ))
        }
        "/advisor/history" => Some((
            "200 OK",
            "application/json",
            registry.advisor().history_json(),
        )),
        "/advisor/last" => Some(("200 OK", "application/json", registry.advisor().last_json())),
        _ => path
            .strip_prefix("/trace/")
            .map(|id| trace_route(id, registry)),
    }
}

/// `/trace/<id>`: the captured span tree for one 32-hex-digit trace id.
fn trace_route(id: &str, registry: &MetricsRegistry) -> (&'static str, &'static str, String) {
    let parsed = (id.len() == 32 && id.bytes().all(|b| b.is_ascii_hexdigit()))
        .then(|| u128::from_str_radix(id, 16).ok())
        .flatten();
    let Some(trace_id) = parsed else {
        return (
            "400 Bad Request",
            "application/json",
            error_body("bad_request", "trace id must be 32 hex digits", false),
        );
    };
    match registry.serve().traces.get(trace_id) {
        Some(record) => (
            "200 OK",
            "application/json",
            trex_core::obs::ToJson::to_json(&record),
        ),
        None => (
            "404 Not Found",
            "application/json",
            error_body(
                "not_found",
                "no captured trace with that id (traces are kept in a bounded ring)",
                false,
            ),
        ),
    }
}

/// Maps a `/v1/...` path to its unversioned alias; other paths pass
/// through. `/v1/query` and `/query` are the same route.
fn unversioned(path: &str) -> &str {
    match path.strip_prefix("/v1") {
        Some(rest) if rest.starts_with('/') => rest,
        _ => path,
    }
}

/// Configuration of the [`HttpServer`] front end.
#[derive(Debug, Clone)]
pub struct HttpServerConfig {
    /// Worker threads draining the admission queue (default 4; `0` is
    /// treated as `1`).
    pub workers: usize,
    /// Admission-queue depth; connections beyond it are shed with `429`
    /// (default 64; `0` is treated as `1`).
    pub queue_depth: usize,
    /// Largest accepted request body in bytes; larger bodies answer `413`
    /// (default 64 KiB).
    pub max_body_bytes: usize,
    /// Per-connection read/write timeout (default 5 s) — a stalled client
    /// can hold a worker for at most this long.
    pub io_timeout: Duration,
    /// Deadline budget applied to requests that do not carry their own
    /// `deadline_ms` (default: none).
    pub default_deadline_ms: Option<u64>,
    /// Serve answers from the generation-keyed result cache (default on).
    pub cache: bool,
}

impl Default for HttpServerConfig {
    fn default() -> HttpServerConfig {
        HttpServerConfig {
            workers: 4,
            queue_depth: 64,
            max_body_bytes: 64 * 1024,
            io_timeout: Duration::from_secs(5),
            default_deadline_ms: None,
            cache: true,
        }
    }
}

/// The query-serving HTTP front end. Start with [`TrexSystem::serve_http`];
/// dropping (or [`stop`]ping) the handle shuts the acceptor and every
/// worker down.
///
/// [`stop`]: HttpServer::stop
pub struct HttpServer {
    addr: SocketAddr,
    config: HttpServerConfig,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` and starts the acceptor plus `config.workers` worker
    /// threads answering through a [`QueryService`] over `system`: queries
    /// scatter to every partition and gather through the rank-safe merge
    /// (one partition evaluates directly), `/ingest` routes documents to
    /// their home partition by global doc-id hash.
    pub fn start(
        addr: &str,
        system: &TrexSystem,
        mut config: HttpServerConfig,
    ) -> std::io::Result<HttpServer> {
        config.workers = config.workers.max(1);
        config.queue_depth = config.queue_depth.max(1);
        let target = system.system().clone();
        let cache = config.cache.then(|| system.result_cache().clone());
        let serve = system.serve_metrics().clone();
        let registry = system.metrics();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let (tx, rx) = sync_channel::<(TcpStream, Instant)>(config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let rx = rx.clone();
            let target = target.clone();
            let cache = cache.clone();
            let serve = serve.clone();
            let registry = registry.clone();
            let config = config.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("trex-http-{i}"))
                    .spawn(move || {
                        let mut service = QueryService::new(&target).with_metrics(serve.clone());
                        if let Some(cache) = &cache {
                            service = service.with_cache(cache.clone());
                        }
                        loop {
                            // The lock is released at the end of this
                            // statement, before the request is handled.
                            let Ok((stream, enqueued)) = rx.lock().recv() else {
                                break;
                            };
                            serve.queue_depth.decr();
                            serve.timers.queue_wait.record_duration(enqueued.elapsed());
                            let _ = handle_conn(stream, &service, &registry, &config, enqueued);
                        }
                    })?,
            );
        }
        drop(rx);

        let acceptor = {
            let stop = stop.clone();
            let io_timeout = config.io_timeout;
            let queue_depth = config.queue_depth;
            std::thread::Builder::new()
                .name("trex-http-accept".into())
                .spawn(move || {
                    accept_loop(listener, tx, serve, stop, io_timeout, queue_depth);
                })?
        };

        Ok(HttpServer {
            addr,
            config,
            stop,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (the actual port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The configuration in effect, with `workers` and `queue_depth`
    /// raised to at least 1.
    pub fn config(&self) -> &HttpServerConfig {
        &self.config
    }

    /// Stops the acceptor and workers, waiting for in-flight requests.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with one last connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // The acceptor owned the queue sender; with it gone the workers
        // drain the remaining connections and exit.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shutdown();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: SyncSender<(TcpStream, Instant)>,
    serve: Arc<ServeMetrics>,
    stop: Arc<AtomicBool>,
    io_timeout: Duration,
    queue_depth: usize,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let _ = stream.set_read_timeout(Some(io_timeout));
        let _ = stream.set_write_timeout(Some(io_timeout));
        match tx.try_send((stream, Instant::now())) {
            Ok(()) => {
                serve.counters.admitted.incr();
                serve.queue_depth.incr();
            }
            Err(TrySendError::Full((mut stream, _))) => {
                // Shed at the door: bounded queue, bounded memory. The
                // write is covered by the timeout set above, so a slow
                // shed-target cannot wedge the acceptor for long.
                serve.counters.shed.incr();
                let p50_ns = serve.timers.request.snapshot().percentile(0.50);
                let secs = retry_after_secs(p50_ns, queue_depth);
                let _ = respond_with(
                    &mut stream,
                    "429 Too Many Requests",
                    "application/json",
                    &[("Retry-After", &secs.to_string())],
                    &error_body("overloaded", "request queue is full; retry shortly", true),
                );
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

/// How long a shed client should wait before retrying: the time the full
/// queue needs to drain at the observed median service time — `p50 ×
/// queue_depth`, rounded up to whole seconds and clamped to `1..=30`. With
/// no latency history yet (cold server) this degrades to the old fixed `1`.
fn retry_after_secs(p50_ns: u64, queue_depth: usize) -> u64 {
    let drain_secs = (p50_ns as f64 / 1e9) * queue_depth as f64;
    (drain_secs.ceil() as u64).clamp(1, 30)
}

/// Most bytes a request line plus its headers may take; a longer head
/// answers `431` without being read further.
const MAX_HEAD_BYTES: u64 = 16 * 1024;

/// Most header lines a request may carry; more answer `431`.
const MAX_HEADERS: usize = 100;

/// One parsed request `(method, path, body, traceparent)`, or the error
/// response it should get.
type ReadOutcome = Result<(String, String, String, Option<String>), (&'static str, String)>;

/// Reads a request (line, headers, `Content-Length`-framed body) off any
/// buffered reader, never more than [`MAX_HEAD_BYTES`] of head. Returns
/// `Err((status, json_body))` for framing problems the caller should
/// answer directly.
fn read_request<R: BufRead>(reader: &mut R, max_body_bytes: usize) -> std::io::Result<ReadOutcome> {
    let too_large = || -> std::io::Result<ReadOutcome> {
        Ok(Err((
            "431 Request Header Fields Too Large",
            error_body(
                "header_too_large",
                &format!(
                    "request head exceeds {MAX_HEAD_BYTES} bytes or {MAX_HEADERS} header lines"
                ),
                false,
            ),
        )))
    };
    let mut head = (&mut *reader).take(MAX_HEAD_BYTES);
    // A line cut off by the cap (no newline, cap spent) means the head is
    // over it; a line cut off with cap to spare is the client's EOF.
    let mut read_line = |line: &mut String| -> std::io::Result<bool> {
        line.clear();
        head.read_line(line)?;
        Ok(head.limit() == 0 && !line.ends_with('\n'))
    };

    let mut request_line = String::new();
    if read_line(&mut request_line)? {
        return too_large();
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();

    let mut content_length: Option<usize> = None;
    let mut bad_length = false;
    let mut traceparent: Option<String> = None;
    let mut header = String::new();
    for headers in 0.. {
        if read_line(&mut header)? {
            return too_large();
        }
        if header.len() <= 2 {
            break;
        }
        if headers == MAX_HEADERS {
            return too_large();
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                match value.trim().parse::<usize>() {
                    Ok(n) => content_length = Some(n),
                    Err(_) => bad_length = true,
                }
            } else if name.eq_ignore_ascii_case("traceparent") {
                traceparent = Some(value.trim().to_string());
            }
        }
    }

    if method != "POST" {
        return Ok(Ok((method, path, String::new(), traceparent)));
    }
    if bad_length {
        return Ok(Err((
            "400 Bad Request",
            error_body("bad_request", "unparsable Content-Length", false),
        )));
    }
    let Some(len) = content_length else {
        return Ok(Err((
            "411 Length Required",
            error_body("length_required", "POST requires Content-Length", false),
        )));
    };
    if len > max_body_bytes {
        return Ok(Err((
            "413 Payload Too Large",
            error_body(
                "payload_too_large",
                &format!("body of {len} bytes exceeds the {max_body_bytes}-byte cap"),
                false,
            ),
        )));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    let body = match String::from_utf8(body) {
        Ok(s) => s,
        Err(_) => {
            return Ok(Err((
                "400 Bad Request",
                error_body("bad_request", "body is not valid UTF-8", false),
            )))
        }
    };
    Ok(Ok((method, path, body, traceparent)))
}

fn handle_conn(
    stream: TcpStream,
    service: &QueryService<'_>,
    registry: &MetricsRegistry,
    config: &HttpServerConfig,
    enqueued: Instant,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let outcome = read_request(&mut reader, config.max_body_bytes)?;
    let mut stream = reader.into_inner();
    let (method, path, body, traceparent) = match outcome {
        Ok(parsed) => parsed,
        Err((status, body)) => return respond(&mut stream, status, "application/json", &body),
    };

    match (method.as_str(), unversioned(&path)) {
        ("POST", "/query") => {
            let (status, body, echo) =
                answer_query(service, config, &body, enqueued, traceparent.as_deref());
            respond_with(
                &mut stream,
                status,
                "application/json",
                &[("traceparent", &echo)],
                &body,
            )
        }
        ("POST", "/ingest") => {
            let (status, body) = answer_ingest(service, &body);
            respond(&mut stream, status, "application/json", &body)
        }
        ("GET", "/query") | ("GET", "/ingest") => respond(
            &mut stream,
            "405 Method Not Allowed",
            "application/json",
            &error_body(
                "method_not_allowed",
                "/query and /ingest expect POST",
                false,
            ),
        ),
        ("GET", get_path) => match metrics_route(get_path, registry) {
            Some((status, content_type, body)) => respond(&mut stream, status, content_type, &body),
            None => respond(
                &mut stream,
                "404 Not Found",
                "application/json",
                &error_body(
                    "not_found",
                    "try /v1/query, /v1/metrics, /v1/metrics.json, /v1/slow, /v1/healthz, \
                     /v1/readyz, /v1/advisor/history or /v1/trace/<id>",
                    false,
                ),
            ),
        },
        _ => respond(
            &mut stream,
            "405 Method Not Allowed",
            "application/json",
            &error_body(
                "method_not_allowed",
                "use GET, or POST for /query and /ingest",
                false,
            ),
        ),
    }
}

/// Executes one `/ingest` body (a raw XML document), mapping every outcome
/// to `(status, body)`. Reuses the surrounding framing semantics: oversized
/// bodies were already shed with `413` by `read_request`, overload with
/// `429` at the acceptor. The WAL's own payload cap is enforced again here
/// in case `max_body_bytes` was configured above it.
fn answer_ingest(service: &QueryService<'_>, body: &str) -> (&'static str, String) {
    if body.trim().is_empty() {
        return (
            "400 Bad Request",
            error_body("bad_request", "ingest expects a non-empty XML body", false),
        );
    }
    if body.len() > trex_storage::MAX_INGEST_XML {
        return (
            "413 Payload Too Large",
            error_body(
                "payload_too_large",
                &format!(
                    "document of {} bytes exceeds the {}-byte ingest cap",
                    body.len(),
                    trex_storage::MAX_INGEST_XML
                ),
                false,
            ),
        );
    }
    match service.ingest(body) {
        Ok((doc_id, generation)) => (
            "200 OK",
            format!("{{\"doc_id\":{doc_id},\"generation\":{generation}}}"),
        ),
        Err(e @ (trex_index::IndexError::Xml(_) | trex_index::IndexError::UnknownPath(_))) => (
            "400 Bad Request",
            error_body("bad_document", &e.to_string(), false),
        ),
        Err(trex_index::IndexError::DocIdsExhausted) => (
            "507 Insufficient Storage",
            error_body("corpus_full", &TrexError::CorpusFull.to_string(), false),
        ),
        Err(e) => (
            "500 Internal Server Error",
            error_body("internal", &e.to_string(), false),
        ),
    }
}

/// Executes one `/query` body, mapping every outcome to `(status, body,
/// traceparent-echo)`. An inbound `traceparent` (malformed ones replaced
/// with a minted identity) arms span-tree capture; without one, a fresh
/// identity is minted for the echo only, so the request stays cacheable.
fn answer_query(
    service: &QueryService<'_>,
    config: &HttpServerConfig,
    body: &str,
    enqueued: Instant,
    traceparent: Option<&str>,
) -> (&'static str, String, String) {
    let ctx = traceparent.map(|h| parse_traceparent(h).unwrap_or_else(TraceContext::root));
    let echo = ctx.unwrap_or_else(TraceContext::root).header_value();
    let with_echo = |(status, body): (&'static str, String)| (status, body, echo.clone());
    let request = match parse_query_request(body) {
        Ok(r) => r,
        Err(e) => {
            // Count it like the service counts engine-side parse errors:
            // the request never reaches `execute`.
            return with_echo((
                "400 Bad Request",
                error_body("bad_request", &e.to_string(), false),
            ));
        }
    };
    let request = match (request.deadline_ms, config.default_deadline_ms) {
        (None, Some(ms)) => request.deadline_ms(ms),
        _ => request,
    };
    let request = request.trace_context(ctx);
    with_echo(match service.execute_from(&request, enqueued) {
        Ok(response) => ("200 OK", trex_core::obs::ToJson::to_json(&response)),
        Err(TrexError::DeadlineExceeded) => (
            "408 Request Timeout",
            error_body(
                "deadline_exceeded",
                "query deadline exceeded; retry with a larger budget",
                true,
            ),
        ),
        Err(e @ (TrexError::Parse(_) | TrexError::MissingIndex(_) | TrexError::Unsupported(_))) => {
            (
                "400 Bad Request",
                error_body("query_error", &e.to_string(), false),
            )
        }
        Err(e) => (
            "500 Internal Server Error",
            error_body("internal", &e.to_string(), false),
        ),
    })
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    respond_with(stream, status, content_type, &[], body)
}

fn respond_with(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::sync::Arc;
    use trex_core::obs::{
        IndexCounters, SelfManageCounters, StorageCounters, StorageTimers, Telemetry,
    };

    fn registry() -> MetricsRegistry {
        MetricsRegistry::new(
            Arc::new(StorageCounters::new()),
            Arc::new(IndexCounters::new()),
            Arc::new(SelfManageCounters::new()),
            Arc::new(StorageTimers::new()),
            Arc::new(Telemetry::new()),
            Arc::new(ServeMetrics::new()),
        )
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_routes_and_404() {
        let server = MetricsServer::start("127.0.0.1:0", registry()).unwrap();
        let addr = server.addr();

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, body) = get(addr, "/metrics");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("# TYPE trex_storage_page_reads_total counter"));

        let (head, body) = get(addr, "/metrics.json");
        assert!(head.contains("application/json"));
        assert!(body.starts_with("{\"counters\":"));

        let (_, body) = get(addr, "/slow");
        assert!(body.contains("\"threshold_ns\""));

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.stop();
    }

    #[test]
    fn metrics_server_accepts_versioned_aliases() {
        let server = MetricsServer::start("127.0.0.1:0", registry()).unwrap();
        let addr = server.addr();
        let (head, body) = get(addr, "/v1/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, "ok\n");
        let (head, _) = get(addr, "/v1/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        server.stop();
    }

    #[test]
    fn stop_terminates_the_thread() {
        let server = MetricsServer::start("127.0.0.1:0", registry()).unwrap();
        let addr = server.addr();
        server.stop();
        // After stop, new connections are either refused or never answered.
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            TcpStream::connect(addr).is_err()
                || TcpStream::connect(addr)
                    .and_then(|mut s| {
                        s.set_read_timeout(Some(Duration::from_millis(200)))?;
                        write!(s, "GET /healthz HTTP/1.1\r\n\r\n")?;
                        let mut buf = [0u8; 1];
                        let n = s.read(&mut buf)?;
                        Ok(n == 0)
                    })
                    .unwrap_or(true)
        );
    }

    #[test]
    fn retry_after_tracks_observed_service_time() {
        // Cold server (no latency history): the old fixed 1 s.
        assert_eq!(retry_after_secs(0, 64), 1);
        // Sub-second drain still answers at least 1 s.
        assert_eq!(retry_after_secs(1_000_000, 8), 1); // 1 ms × 8 = 8 ms
                                                       // 250 ms median × 64 queued = 16 s drain.
        assert_eq!(retry_after_secs(250_000_000, 64), 16);
        // Rounded up, not truncated: 30 ms × 40 = 1.2 s → 2 s.
        assert_eq!(retry_after_secs(30_000_000, 40), 2);
        // Pathological backlogs clamp at 30 s.
        assert_eq!(retry_after_secs(2_000_000_000, 64), 30);
        assert_eq!(retry_after_secs(u64::MAX, usize::MAX), 30);
    }

    #[test]
    fn unversioned_maps_only_proper_v1_prefixes() {
        assert_eq!(unversioned("/v1/query"), "/query");
        assert_eq!(unversioned("/v1/metrics.json"), "/metrics.json");
        assert_eq!(unversioned("/query"), "/query");
        assert_eq!(unversioned("/v1"), "/v1");
        assert_eq!(unversioned("/v1x/query"), "/v1x/query");
    }

    #[test]
    fn read_request_frames_posts_by_content_length() {
        let raw = "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{}xy";
        let mut reader = std::io::BufReader::new(raw.as_bytes());
        let (method, path, body, traceparent) = read_request(&mut reader, 1024).unwrap().unwrap();
        assert_eq!(method, "POST");
        assert_eq!(path, "/v1/query");
        assert_eq!(body, "{}xy");
        assert_eq!(traceparent, None);

        // Header name is case-insensitive.
        let raw = "POST /q HTTP/1.1\r\ncontent-length: 2\r\n\r\nok";
        let mut reader = std::io::BufReader::new(raw.as_bytes());
        let (_, _, body, _) = read_request(&mut reader, 1024).unwrap().unwrap();
        assert_eq!(body, "ok");
    }

    #[test]
    fn read_request_captures_the_traceparent_header() {
        let header = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
        let raw = format!(
            "POST /v1/query HTTP/1.1\r\nTraceParent: {header}\r\nContent-Length: 2\r\n\r\n{{}}"
        );
        let mut reader = std::io::BufReader::new(raw.as_bytes());
        let (_, _, body, traceparent) = read_request(&mut reader, 1024).unwrap().unwrap();
        assert_eq!(body, "{}");
        assert_eq!(traceparent.as_deref(), Some(header));
    }

    #[test]
    fn read_request_rejects_bad_framing() {
        // POST without Content-Length → 411.
        let raw = "POST /v1/query HTTP/1.1\r\nHost: x\r\n\r\n{}";
        let mut reader = std::io::BufReader::new(raw.as_bytes());
        let (status, body) = read_request(&mut reader, 1024).unwrap().unwrap_err();
        assert!(status.starts_with("411"), "{status}");
        assert!(body.contains("length_required"));

        // Oversized body → 413, without reading the body.
        let raw = "POST /v1/query HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        let mut reader = std::io::BufReader::new(raw.as_bytes());
        let (status, body) = read_request(&mut reader, 1024).unwrap().unwrap_err();
        assert!(status.starts_with("413"), "{status}");
        assert!(body.contains("payload_too_large"));

        // Garbage Content-Length → 400.
        let raw = "POST /v1/query HTTP/1.1\r\nContent-Length: lots\r\n\r\n";
        let mut reader = std::io::BufReader::new(raw.as_bytes());
        let (status, _) = read_request(&mut reader, 1024).unwrap().unwrap_err();
        assert!(status.starts_with("400"), "{status}");

        // GETs never need a body.
        let raw = "GET /v1/healthz HTTP/1.1\r\n\r\n";
        let mut reader = std::io::BufReader::new(raw.as_bytes());
        let (method, path, body, _) = read_request(&mut reader, 1024).unwrap().unwrap();
        assert_eq!(
            (method.as_str(), path.as_str(), body.as_str()),
            ("GET", "/v1/healthz", "")
        );
    }

    #[test]
    fn read_request_caps_the_head() {
        let long_line = format!(
            "GET /v1/healthz HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "a".repeat(1 << 20)
        );
        let many_headers = format!(
            "GET /v1/healthz HTTP/1.1\r\n{}\r\n",
            "X: y\r\n".repeat(10_000)
        );
        for raw in [long_line, many_headers] {
            let mut reader = std::io::Cursor::new(raw.as_bytes());
            let (status, body) = read_request(&mut reader, 1024).unwrap().unwrap_err();
            assert!(status.starts_with("431"), "{status}");
            assert!(body.contains("header_too_large"));
            assert!(reader.position() <= MAX_HEAD_BYTES, "read past the cap");
        }

        // A head that ends exactly at the cap is still whole.
        let line = "GET /v1/healthz HTTP/1.1\r\n";
        let pad = MAX_HEAD_BYTES as usize - line.len() - "X: \r\n\r\n".len();
        let raw = format!("{line}X: {}\r\n\r\n", "a".repeat(pad));
        let mut reader = std::io::Cursor::new(raw.as_bytes());
        let (_, path, _, _) = read_request(&mut reader, 1024).unwrap().unwrap();
        assert_eq!(path, "/v1/healthz");
    }
}
