//! `http_zipf`: `serve_http` (2 workers, result cache on, default queue)
//! over the `hot_topk` store, 2 closed-loop connections drawing queries from
//! `Q` with Zipf(1.0) popularity.
//!
//! After the warm-up pass every query of `Q` is in the result cache, so
//! nearly no request reaches `core`: what is timed is the wire path —
//! connect-per-request framing in `trex::http`, the admission queue, and
//! `core::serve` parsing the request and looking the cache up. A serve or
//! HTTP gain shows here and must not move `hot_topk`.
//!
//! The traced run adds an open loop at one fixed rate, which the closed
//! loop cannot show: latency from each request's due time.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use trex::obs::ToJson;
use trex::{HttpServerConfig, QueryRequest, TrexSystem};

use super::single_store::{self, Kind};
use super::{
    add_window, build_path_metrics, closed_loop, era_truth, finish_trace, list_bytes, repeat_setup,
    set_common, Run,
};
use crate::inputs::{self, Query, DOCS};
use crate::metrics::Outcome;
use crate::spans::{in_request, Tracer};
use crate::stats::{nanos, Chunked, Samples};

const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;

/// Zipf draws per connection; the closed loop cycles through them.
const DRAWS: usize = 1 << 16;

/// Requests per connection in each fixed-count pass of the traced run.
const TRACE_REQUESTS: usize = 2000;

/// The open loop's rate, requests/s over both connections. Set once to about
/// half of what the closed loop reached at the commit that added the
/// benchmark (13 000/s), and never retuned: a fixed rate is what makes
/// `http.open_loop_p95_ms` comparable between commits.
const OPEN_LOOP_RATE: f64 = 6000.0;

/// The open loop runs this long at most (and no longer than `--seconds`).
const OPEN_LOOP_MAX_S: f64 = 4.0;

fn request_body(q: &Query) -> String {
    format!("{{\"nexi\": {:?}, \"k\": {}}}", q.nexi, q.k)
}

/// What a response must equal, whichever door it came through: everything
/// the envelope carries before the fields that differ per request
/// (generation, cache status, server time).
fn stable_part(envelope: &str) -> Option<&str> {
    envelope.find(",\"generation\"").map(|at| &envelope[..at])
}

struct Reply {
    body: String,
    connect: Duration,
}

/// Makes closing `stream` send a reset instead of a FIN (`SO_LINGER` on,
/// zero seconds). The server closes first, so each request would leave it a
/// TIME_WAIT socket for a minute; at 10 000 requests a second that fills the
/// kernel's table (32 768 here) in three seconds, after which `connect`
/// stalls for milliseconds — and the table a run leaves behind would slow
/// the next run. A reset from the client, sent once the whole response is
/// read, frees the server's socket at once.
fn reset_on_close(stream: &TcpStream) {
    use std::ffi::{c_int, c_void};
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct Linger {
        on: c_int,
        seconds: c_int,
    }
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }
    // Linux values, as is /proc/self/status for `peak_rss_mb`.
    const SOL_SOCKET: c_int = 1;
    const SO_LINGER: c_int = 13;

    let linger = Linger { on: 1, seconds: 0 };
    // SAFETY: the descriptor is open for as long as `stream` is borrowed, and
    // `value` points at a live `struct linger` of exactly `len` bytes, which
    // the call only reads. A failure leaves the default close: slower, not
    // wrong, so the return value is not needed.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            std::ptr::from_ref(&linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        );
    }
}

/// One request over a fresh connection; the server closes after answering.
fn roundtrip(addr: SocketAddr, body: &str) -> Result<Reply, String> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connect = started.elapsed();
    let io = |e: std::io::Error| format!("io: {e}");
    stream.set_nodelay(true).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(io)?;
    let request = format!(
        "POST /v1/query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(io)?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(io)?;
    reset_on_close(&stream);
    drop(stream);
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response has no header end".to_string())?;
    let status = head.split_whitespace().nth(1).unwrap_or("");
    if status != "200" {
        return Err(format!("status {status}"));
    }
    Ok(Reply {
        body: payload.to_string(),
        connect,
    })
}

fn checked_roundtrip(addr: SocketAddr, body: &str) -> Result<String, String> {
    let reply = roundtrip(addr, body)?;
    trex::obs::parse_json(&reply.body).map_err(|e| format!("body is not JSON: {e}"))?;
    stable_part(&reply.body)
        .map(str::to_string)
        .ok_or_else(|| "body has no generation field".to_string())
}

pub fn run(run: &Run) -> Outcome {
    let q = inputs::query_pool();
    let order = inputs::shuffled_ops(run.seed, q.len());
    let bodies: Vec<String> = q.iter().map(request_body).collect();
    let config = HttpServerConfig {
        workers: WORKERS,
        ..HttpServerConfig::default()
    };

    // Rank r of a connection's Zipf draw is query order[r]: the seed decides
    // which queries are popular.
    let draws: Vec<Vec<usize>> = (0..CONNECTIONS)
        .map(|c| {
            inputs::zipf_ops(run.seed, c as u64 + 1, q.len(), DRAWS)
                .into_iter()
                .map(|rank| order[rank])
                .collect()
        })
        .collect();

    let mut out = Outcome::default();
    // The corpus is the same on every instance, and so are the bodies.
    let mut expected: Option<Vec<String>> = None;
    let mut timed = None;
    // The server borrows nothing from the system, but must stop before the
    // system's files go: keep it first in the tuple, so it drops first.
    let (ready, setup_s) = repeat_setup(
        run,
        || {
            let ready = single_store::set_up(run, Kind::Hot, &q, &order);
            let server = ready
                .system
                .serve_http("127.0.0.1:0", config.clone())
                .expect("start the HTTP front end");
            for body in &bodies {
                roundtrip(server.addr(), body).expect("warm-up request");
            }
            (server, ready)
        },
        |(server, ready), seconds| {
            let expected =
                expected.get_or_insert_with(|| expected_bodies(&ready.system, &q, &mut out));
            if run.trace {
                return;
            }
            let addr = server.addr();
            let clients = per_connection(&draws, |_, ops| {
                closed_loop(seconds, ops, expected, |i| {
                    checked_roundtrip(addr, &bodies[i])
                })
            });
            add_window(&mut timed, merge(clients));
        },
    );
    let (server, ready) = ready;
    let expected = expected.expect("every instance saw the expected bodies");
    match timed {
        Some(timed) => out.set_query_metrics(timed),
        None => {
            let traffic = Traffic {
                addr: server.addr(),
                bodies: &bodies,
                expected: &expected,
                draws: &draws,
            };
            traced(run, &ready.system, &q, &traffic, &mut out);
            build_path_metrics(&mut out, DOCS as f64 / ready.build_s);
            out.set("index.list_bytes", list_bytes(ready.system.index()) as f64);
        }
    }
    server.stop();
    set_common(&mut out, run, setup_s, ready.doc_bytes);
    out
}

/// What every response must carry, from the in-process service; the
/// in-process answers themselves must be ERA's.
fn expected_bodies(system: &TrexSystem, q: &[Query], out: &mut Outcome) -> Vec<String> {
    let truth = era_truth(system, q);
    let service = system.service();
    q.iter()
        .zip(&truth)
        .map(|(query, era)| {
            let response = service.execute(&QueryRequest::new(&query.nexi).k(query.k));
            out.check(response.as_ref().is_ok_and(|r| &r.answers == era), || {
                format!(
                    "in-process answers differ from ERA ground truth: {}",
                    query.nexi
                )
            });
            let envelope = response.map(|r| r.to_json()).unwrap_or_default();
            stable_part(&envelope).unwrap_or("").to_string()
        })
        .collect()
}

/// What the connections send, where, and what must come back.
struct Traffic<'a> {
    addr: SocketAddr,
    bodies: &'a [String],
    expected: &'a [String],
    /// Per connection: the queries it asks, in order.
    draws: &'a [Vec<usize>],
}

/// Runs `client(connection number, its draws)` on one thread per connection,
/// all at once, and collects what they return.
fn per_connection<R: Send>(
    draws: &[Vec<usize>],
    client: impl Fn(usize, &[usize]) -> R + Sync,
) -> Vec<R> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = draws
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let client = &client;
                scope.spawn(move || client(c, ops))
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    })
}

/// Connections that ran side by side, as one measurement.
fn merge(clients: Vec<Chunked>) -> Chunked {
    let mut clients = clients.into_iter();
    let mut all = clients.next().expect("at least one connection");
    for c in clients {
        all.beside(c);
    }
    all
}

/// What one connection's fixed-count pass measured.
struct Pass {
    roundtrips: Chunked,
    connects: Samples,
    tracer: Option<Tracer>,
}

/// `TRACE_REQUESTS` requests per connection, both connections at once, with
/// or without a span around each round trip.
fn fixed_pass(traffic: &Traffic<'_>, epoch: Option<Instant>) -> (Vec<Pass>, f64) {
    let started = Instant::now();
    let passes = per_connection(traffic.draws, |c, ops| {
        let mut pass = Pass {
            roundtrips: Chunked::start(),
            connects: Samples::new(),
            tracer: epoch.map(Tracer::new),
        };
        for (n, &i) in ops.iter().take(TRACE_REQUESTS).enumerate() {
            let id = (c * TRACE_REQUESTS + n) as u64 + 1;
            let op_started = Instant::now();
            let reply = in_request(pass.tracer.as_mut(), id, "http.roundtrip", || {
                roundtrip(traffic.addr, &traffic.bodies[i])
            });
            let elapsed = nanos(op_started.elapsed());
            let connect = reply.ok().and_then(|r| {
                (stable_part(&r.body) == Some(traffic.expected[i].as_str())).then_some(r.connect)
            });
            if let Some(connect) = connect {
                pass.connects.push(nanos(connect));
            }
            pass.roundtrips.record(connect.map(|_| elapsed));
        }
        pass
    });
    (passes, started.elapsed().as_secs_f64())
}

fn traced(run: &Run, system: &TrexSystem, q: &[Query], traffic: &Traffic<'_>, out: &mut Outcome) {
    let Traffic { draws, .. } = *traffic;
    let service = system.service();
    let request = |i: usize| QueryRequest::new(&q[i].nexi).k(q[i].k);
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);

    // `core::serve` alone, in process, on an emptied cache: the first pass
    // over `Q` misses every time, the second hits every time.
    system.result_cache().clear();
    let mut translate = Samples::new();
    let engine = system.engine();
    for (metric, id_base) in [
        ("serve.miss_us_p50", 1_000_000u64),
        ("serve.hit_us_p50", 2_000_000),
    ] {
        let mut samples = Samples::new();
        for (i, query) in q.iter().enumerate() {
            let root = tracer.request(id_base + i as u64);
            let span = tracer.enter("serve.execute");
            let started = Instant::now();
            let response = service.execute(&request(i));
            samples.push_elapsed(started);
            tracer.exit(span);
            tracer.exit(root);
            out.check(response.is_ok(), || {
                format!("in-process execute failed: {}", query.nexi)
            });
        }
        out.set_n(metric, samples.p50_us(), samples.len() as u64);
    }
    for query in q {
        let started = Instant::now();
        let _ = std::hint::black_box(engine.translate(&query.nexi, Default::default()));
        translate.push_elapsed(started);
    }
    out.set_n(
        "nexi.translate_us_p50",
        translate.p50_us(),
        translate.len() as u64,
    );

    // The same requests through both doors: in process ...
    let mut in_process = Samples::new();
    for &i in draws[0].iter().take(TRACE_REQUESTS) {
        let started = Instant::now();
        let _ = std::hint::black_box(service.execute(&request(i)));
        in_process.push_elapsed(started);
    }

    // ... and over the wire, untraced then traced.
    let serve0 = system.serve_metrics().counters.snapshot();
    let (untraced, untraced_s) = fixed_pass(traffic, None);
    let (traced, traced_s) = fixed_pass(traffic, Some(epoch));
    let serve = system.serve_metrics().counters.snapshot().delta(&serve0);

    // The untraced pass is what the client sees; the traced pass adds its
    // spans and connect times, and must answer as correctly.
    let mut connects = Samples::new();
    let mut roundtrips = Vec::new();
    for pass in traced {
        let (attempted, failed) = (pass.roundtrips.attempted, pass.roundtrips.failed);
        out.attempted += attempted;
        out.failed += failed;
        if failed > 0 {
            out.violations
                .push(format!("{failed} of {attempted} traced requests failed"));
        }
        connects.extend(pass.connects);
        tracer.absorb(pass.tracer.expect("the traced pass records spans"));
    }
    for pass in untraced {
        connects.extend(pass.connects);
        roundtrips.push(pass.roundtrips);
    }
    let roundtrips = merge(roundtrips);
    out.set_n(
        "http.connect_us_p50",
        connects.p50_us(),
        connects.len() as u64,
    );
    out.set_n(
        "http.overhead_us_p50",
        roundtrips.all().p50_us() - in_process.p50_us(),
        roundtrips.all().len() as u64,
    );
    out.set_query_metrics(roundtrips);
    let lookups = serve.cache_hits + serve.cache_misses + serve.cache_bypass;
    let hit_ratio = serve.cache_hits as f64 / lookups.max(1) as f64;
    out.set_n("serve.cache_hit_ratio", hit_ratio, lookups);
    out.check(hit_ratio > 0.5, || {
        format!("http_zipf should be served from the result cache, hit ratio {hit_ratio}")
    });

    open_loop(run, traffic, out);
    let total = system.serve_metrics().counters.snapshot().delta(&serve0);
    out.set("serve.shed", total.shed as f64);
    out.set("serve.deadline_exceeded", total.deadline_exceeded as f64);

    // Same requests both times, so the throughput ratio is the time ratio.
    out.set("trace.overhead_ratio", untraced_s / traced_s);
    finish_trace(out, run, &tracer);
}

/// Requests leave on a schedule whether or not earlier ones have answered
/// (up to one in flight per connection); each is timed from when it was due,
/// so a stall is charged to every request it delays.
fn open_loop(run: &Run, traffic: &Traffic<'_>, out: &mut Outcome) {
    let duration = run.seconds.min(OPEN_LOOP_MAX_S);
    let interval = Duration::from_secs_f64(CONNECTIONS as f64 / OPEN_LOOP_RATE);
    let requests = (duration / interval.as_secs_f64()) as usize;
    let start = Instant::now() + Duration::from_millis(20);
    let results = per_connection(traffic.draws, |c, ops| {
        let (mut latency, mut lag, mut failed) = (Samples::new(), Samples::new(), 0u64);
        // Connections interleave: c sends at c/rate, c + 2/rate, ...
        let offset = interval.mul_f64(c as f64 / CONNECTIONS as f64);
        let draws = ops.iter().cycle().skip(TRACE_REQUESTS).take(requests);
        for (n, &i) in draws.enumerate() {
            let due = start + offset + interval * n as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            lag.push_elapsed(due);
            match checked_roundtrip(traffic.addr, &traffic.bodies[i]) {
                Ok(body) if body == traffic.expected[i] => latency.push_elapsed(due),
                _ => failed += 1,
            }
        }
        (latency, lag, failed)
    });
    let (mut latency, mut lag) = (Samples::new(), Samples::new());
    for (l, g, failed) in results {
        out.attempted += requests as u64;
        out.failed += failed;
        if failed > 0 {
            out.violations
                .push(format!("{failed} open-loop requests failed"));
        }
        latency.extend(l);
        lag.extend(g);
    }
    if let (Some(l), Some(g)) = (latency.summary(), lag.summary()) {
        out.set_n("http.open_loop_p95_ms", l.p95 as f64 / 1e6, l.n);
        out.set_n("http.generator_lag_ms_p95", g.p95 as f64 / 1e6, g.n);
    }
}
