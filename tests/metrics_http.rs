//! `curl`-equivalent integration test of the live metrics surface:
//! `trex serve --listen` must answer `/metrics` with valid Prometheus
//! text exposition (cumulative, `+Inf`-terminated histogram buckets),
//! `/metrics.json` with well-formed JSON, and `/slow` with the span tree of
//! a deliberately slow query (threshold 0) whose spans nest.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

use trex::obs::{parse_json, JsonValue};

#[path = "support/span_tree.rs"]
mod span_tree;

fn trex() -> Command {
    Command::new(env!("CARGO_BIN_EXE_trex"))
}

fn temp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("trex-metrics-{name}-{}.db", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// One short HTTP/1.1 GET; returns (status line, body).
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect metrics endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("malformed response: {response}"));
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// A minimal structural JSON validator (the workspace has no JSON crate on
/// purpose): accepts exactly the RFC 8259 grammar, values discarded.
fn validate_json(text: &str) -> Result<(), String> {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn err(&self, what: &str) -> String {
            format!("{what} at byte {}", self.i)
        }
        fn ws(&mut self) {
            while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.b.get(self.i) == Some(&c) {
                self.i += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected {:?}", c as char)))
            }
        }
        fn value(&mut self) -> Result<(), String> {
            self.ws();
            match self.b.get(self.i) {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => self.string(),
                Some(b't') => self.lit("true"),
                Some(b'f') => self.lit("false"),
                Some(b'n') => self.lit("null"),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(self.err("expected a value")),
            }
        }
        fn lit(&mut self, lit: &str) -> Result<(), String> {
            if self.b[self.i..].starts_with(lit.as_bytes()) {
                self.i += lit.len();
                Ok(())
            } else {
                Err(self.err(&format!("expected {lit}")))
            }
        }
        fn object(&mut self) -> Result<(), String> {
            self.eat(b'{')?;
            self.ws();
            if self.b.get(self.i) == Some(&b'}') {
                self.i += 1;
                return Ok(());
            }
            loop {
                self.ws();
                self.string()?;
                self.ws();
                self.eat(b':')?;
                self.value()?;
                self.ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(());
                    }
                    _ => return Err(self.err("expected , or }")),
                }
            }
        }
        fn array(&mut self) -> Result<(), String> {
            self.eat(b'[')?;
            self.ws();
            if self.b.get(self.i) == Some(&b']') {
                self.i += 1;
                return Ok(());
            }
            loop {
                self.value()?;
                self.ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(());
                    }
                    _ => return Err(self.err("expected , or ]")),
                }
            }
        }
        fn string(&mut self) -> Result<(), String> {
            self.eat(b'"')?;
            while let Some(&c) = self.b.get(self.i) {
                match c {
                    b'"' => {
                        self.i += 1;
                        return Ok(());
                    }
                    b'\\' => {
                        self.i += 1;
                        match self.b.get(self.i) {
                            Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                                self.i += 1
                            }
                            Some(b'u') => {
                                self.i += 1;
                                for _ in 0..4 {
                                    if !self.b.get(self.i).is_some_and(|c| c.is_ascii_hexdigit()) {
                                        return Err(self.err("bad \\u escape"));
                                    }
                                    self.i += 1;
                                }
                            }
                            _ => return Err(self.err("bad escape")),
                        }
                    }
                    0x00..=0x1f => return Err(self.err("raw control char in string")),
                    _ => self.i += 1,
                }
            }
            Err(self.err("unterminated string"))
        }
        fn number(&mut self) -> Result<(), String> {
            let start = self.i;
            if self.b.get(self.i) == Some(&b'-') {
                self.i += 1;
            }
            while self.b.get(self.i).is_some_and(|c| {
                c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
            }) {
                self.i += 1;
            }
            if self.i == start {
                Err(self.err("empty number"))
            } else {
                Ok(())
            }
        }
    }
    let mut p = P {
        b: text.as_bytes(),
        i: 0,
    };
    p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(())
}

/// Checks every `# TYPE <name> histogram` block, per labelset (the drift
/// histogram carries a `model` label, the latency histograms none):
/// cumulative non-decreasing buckets, a `+Inf` terminator, and `_count`
/// equal to the `+Inf` bucket. Returns how many histogram metrics were
/// checked.
fn validate_prometheus_histograms(text: &str) -> usize {
    #[derive(Default)]
    struct Series {
        last: u64,
        inf: Option<u64>,
        count: Option<u64>,
        has_sum: bool,
    }
    // Splits `model="x",le="+Inf"} 5` into the labelset key (labels minus
    // `le`), the `le` bound, and the sample value.
    fn split_bucket(rest: &str, line: &str) -> (String, String, u64) {
        let (labels, value) = rest
            .split_once("\"} ")
            .unwrap_or_else(|| panic!("malformed bucket line: {line}"));
        let at = labels
            .find("le=\"")
            .unwrap_or_else(|| panic!("bucket without le label: {line}"));
        let key = labels[..at].trim_end_matches(',').to_string();
        let le = labels[at + 4..].to_string();
        let value = value
            .parse()
            .unwrap_or_else(|_| panic!("non-integer bucket count: {line}"));
        (key, le, value)
    }
    // Splits a `_count`/`_sum` sample — `rest` is either ` 5` (unlabelled)
    // or `{model="x"} 5` — into the labelset key and the raw value text.
    fn split_scalar<'a>(rest: &'a str, line: &str) -> (String, &'a str) {
        if let Some(r) = rest.strip_prefix('{') {
            let (labels, value) = r
                .split_once("} ")
                .unwrap_or_else(|| panic!("malformed labelled sample: {line}"));
            (labels.to_string(), value)
        } else {
            (String::new(), rest.trim_start())
        }
    }
    let lines: Vec<&str> = text.lines().collect();
    let mut checked = 0;
    for (i, line) in lines.iter().enumerate() {
        let Some(rest) = line.strip_prefix("# TYPE ") else {
            continue;
        };
        let Some(name) = rest.strip_suffix(" histogram") else {
            continue;
        };
        let mut series: std::collections::BTreeMap<String, Series> = Default::default();
        for l in &lines[i + 1..] {
            if l.starts_with("# TYPE ") {
                break;
            }
            if let Some(rest) = l.strip_prefix(&format!("{name}_bucket{{")) {
                let (key, le, value) = split_bucket(rest, l);
                let s = series.entry(key).or_default();
                assert!(
                    value >= s.last,
                    "{name}: bucket le={le} value {value} < previous {}",
                    s.last
                );
                assert!(s.inf.is_none(), "{name}: bucket after +Inf: {l}");
                s.last = value;
                if le == "+Inf" {
                    s.inf = Some(value);
                }
            } else if let Some(rest) = l.strip_prefix(&format!("{name}_count")) {
                let (key, value) = split_scalar(rest, l);
                series.entry(key).or_default().count = Some(value.parse().expect("count"));
            } else if let Some(rest) = l.strip_prefix(&format!("{name}_sum")) {
                let (key, _) = split_scalar(rest, l);
                series.entry(key).or_default().has_sum = true;
            }
        }
        assert!(!series.is_empty(), "{name}: no samples under its # TYPE");
        for (key, s) in &series {
            let inf = s
                .inf
                .unwrap_or_else(|| panic!("{name}{{{key}}}: no +Inf bucket"));
            let count = s
                .count
                .unwrap_or_else(|| panic!("{name}{{{key}}}: no _count"));
            assert_eq!(inf, count, "{name}{{{key}}}: +Inf bucket must equal _count");
            assert!(s.has_sum, "{name}{{{key}}}: no _sum");
        }
        checked += 1;
    }
    checked
}

#[test]
fn serve_metrics_endpoint_end_to_end() {
    let store = temp("serve");
    let _ = std::fs::remove_file(&store);
    let build = trex()
        .args(["build", &store, "--synthetic", "ieee", "--docs", "40"])
        .output()
        .expect("build store");
    assert!(build.status.success(), "{build:?}");

    // Port 0: the OS picks; the bound address is announced on stderr.
    let mut child = trex()
        .args([
            "serve",
            &store,
            "-k",
            "3",
            "--listen",
            "127.0.0.1:0",
            "--slow-ms",
            "0", // every query is "slow": deterministic /slow content
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn trex serve");

    let mut stdin = child.stdin.take().unwrap();
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(
            stderr.read_line(&mut line).expect("read stderr") > 0,
            "serve exited before announcing the http endpoint"
        );
        if let Some(rest) = line.strip_prefix("http: serving on ") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };

    let (status, body) = http_get(&addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ok\n");

    // Run one query and wait for its status line so its latency is in the
    // histograms and its span tree is in the slow log before we scrape.
    let query = "//article//sec[about(., xml query evaluation)]";
    writeln!(stdin, "{query}").unwrap();
    stdin.flush().unwrap();
    loop {
        line.clear();
        assert!(
            stderr.read_line(&mut line).expect("read stderr") > 0,
            "serve exited before answering the query"
        );
        if line.contains("answers in") {
            break;
        }
    }

    // /metrics: valid Prometheus text exposition.
    let (status, prom) = http_get(&addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    let histograms = validate_prometheus_histograms(&prom);
    assert!(
        histograms >= 15,
        "expected the full histogram surface, checked only {histograms}"
    );
    assert!(prom.contains("# TYPE trex_query_query_seconds histogram"));
    assert!(
        prom.contains("trex_query_query_seconds_count 1"),
        "the served query must be counted:\n{prom}"
    );
    assert!(prom.contains("# TYPE trex_storage_page_read_seconds histogram"));
    assert!(prom.contains("# TYPE trex_storage_pool_hits_total counter"));

    // /metrics.json: well-formed JSON with the same groups.
    let (status, json) = http_get(&addr, "/metrics.json");
    assert!(status.contains("200"), "{status}");
    validate_json(&json).unwrap_or_else(|e| panic!("/metrics.json invalid: {e}\n{json}"));
    assert!(json.contains("\"histograms\":{\"storage\":{"), "{json}");
    assert!(json.contains("\"slow_queries\":1"), "{json}");

    // /slow: the query is there (threshold 0), with a nesting span tree.
    let (status, slow) = http_get(&addr, "/slow");
    assert!(status.contains("200"), "{status}");
    validate_json(&slow).unwrap_or_else(|e| panic!("/slow invalid: {e}\n{slow}"));
    assert!(
        slow.contains("xml query evaluation"),
        "slow log must carry the NEXI text: {slow}"
    );
    assert!(slow.contains("\"strategy\":\"era\""), "{slow}");

    // The entry's span tree nests, exactly like a trace viewer needs it.
    let slow = parse_json(&slow).expect("slow log parses");
    let Some(JsonValue::Array(entries)) = slow.get("entries") else {
        panic!("entries is not an array");
    };
    assert_eq!(entries.len(), 1, "one query, one entry");
    let names = span_tree::check_span_tree(entries[0].get("tree").expect("span tree"));
    assert_eq!(
        names,
        ["query", "translate", "gate_wait", "evaluate:era"],
        "the query's span tree"
    );

    let (status, _) = http_get(&addr, "/nope");
    assert!(status.contains("404"), "{status}");

    drop(stdin); // EOF ends the REPL
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "{status:?}");
    std::fs::remove_file(&store).ok();
}
