//! Request tracing: hand-rolled W3C `traceparent` ids, per-query span
//! trees, a bounded in-memory store of recent traces, and the slow-query
//! log.
//!
//! A span tree is a [`TraceNode`]: the engine builds one per query from the
//! instants its stage clock already reads (`query` → `translate` /
//! `gate_wait` / `evaluate:{era|ta|merge}`), and only when someone will
//! read it — the query carries a [`TraceContext`] or crosses the slow
//! threshold. HTTP ingress parses (or mints) a 128-bit trace id, the
//! partitioned scatter layer grafts each partition's tree under one root,
//! and the serving layer files the finished tree in a [`TraceStore`] keyed
//! by trace id so `/v1/trace/<id>` can return the whole request as one
//! tree. The [`SlowQueryLog`] keeps the same tree for queries over its
//! threshold.
//!
//! Ids follow the W3C Trace Context `traceparent` wire form —
//! `00-{32 hex trace-id}-{16 hex parent-id}-{2 hex flags}` — parsed and
//! generated by hand (no external dependency). Generation mixes the wall
//! clock with a process-wide counter through SplitMix64, which is unique
//! enough for a flight recorder (these are correlation ids, not secrets).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::{json_escape, json_field, QueryTrace, ToJson};

/// Identity of one request, threaded from HTTP ingress down to each
/// partition's engine evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit W3C trace id (never 0).
    pub trace_id: u128,
    /// Span id of the caller (the ingress span for engine evaluations).
    pub parent_span: u64,
    /// W3C `sampled` flag from the incoming header (we always record).
    pub sampled: bool,
}

impl TraceContext {
    /// A fresh root context with a newly minted trace id.
    pub fn root() -> TraceContext {
        TraceContext {
            trace_id: gen_trace_id(),
            parent_span: gen_span_id(),
            sampled: true,
        }
    }

    /// This context as a `traceparent` header value.
    pub fn header_value(&self) -> String {
        format_traceparent(self.trace_id, self.parent_span, self.sampled)
    }

    /// The trace id as the 32-hex-digit string used in URLs and logs.
    pub fn trace_id_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }
}

static TRACE_SALT: AtomicU64 = AtomicU64::new(0);

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn entropy_word() -> u64 {
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let n = TRACE_SALT.fetch_add(1, Ordering::Relaxed);
    splitmix64(t ^ splitmix64(n.wrapping_add(0xa076_1d64_78bd_642f)))
}

/// Mints a non-zero 128-bit trace id.
pub fn gen_trace_id() -> u128 {
    loop {
        let id = ((entropy_word() as u128) << 64) | entropy_word() as u128;
        if id != 0 {
            return id;
        }
    }
}

/// Mints a non-zero 64-bit span id.
pub fn gen_span_id() -> u64 {
    loop {
        let id = entropy_word();
        if id != 0 {
            return id;
        }
    }
}

/// Parses a W3C `traceparent` header value. Returns `None` for anything
/// malformed (wrong field count or widths, non-hex digits, unsupported
/// version `ff`, all-zero trace or parent id) — per spec, the caller then
/// *restarts* the trace with a fresh id rather than failing the request.
pub fn parse_traceparent(value: &str) -> Option<TraceContext> {
    let mut parts = value.trim().split('-');
    let version = parts.next()?;
    let trace = parts.next()?;
    let parent = parts.next()?;
    let flags = parts.next()?;
    if version.len() != 2 || !is_lower_hex(version) || version == "ff" {
        return None;
    }
    // Future versions may append fields; version 00 must have exactly four.
    if version == "00" && parts.next().is_some() {
        return None;
    }
    if trace.len() != 32 || parent.len() != 16 || flags.len() != 2 {
        return None;
    }
    if !is_lower_hex(trace) || !is_lower_hex(parent) || !is_lower_hex(flags) {
        return None;
    }
    let trace_id = u128::from_str_radix(trace, 16).ok()?;
    let parent_span = u64::from_str_radix(parent, 16).ok()?;
    if trace_id == 0 || parent_span == 0 {
        return None;
    }
    let flag_bits = u8::from_str_radix(flags, 16).ok()?;
    Some(TraceContext {
        trace_id,
        parent_span,
        sampled: flag_bits & 0x01 != 0,
    })
}

fn is_lower_hex(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// Formats a `traceparent` header value (version 00).
pub fn format_traceparent(trace_id: u128, span_id: u64, sampled: bool) -> String {
    format!(
        "00-{:032x}-{:016x}-{:02x}",
        trace_id,
        span_id,
        if sampled { 0x01u8 } else { 0x00 }
    )
}

/// One node of an assembled trace tree: a named span with its start offset
/// (relative to the tree's root) and duration, plus nested children.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceNode {
    /// Span name (`"query"`, `"evaluate:ta"`, `"partition:1"`, ...).
    pub name: String,
    /// Start offset from the root span's begin, microseconds.
    pub start_us: u64,
    /// Span duration, microseconds.
    pub duration_us: u64,
    /// Child spans, in begin order.
    pub children: Vec<TraceNode>,
}

impl ToJson for TraceNode {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":\"");
        out.push_str(&json_escape(&self.name));
        out.push_str("\",");
        json_field(out, "start_us", self.start_us);
        out.push(',');
        json_field(out, "duration_us", self.duration_us);
        out.push_str(",\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.write_json(out);
        }
        out.push_str("]}");
    }
}

/// One filed trace: the request identity plus its assembled span tree.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// The request's 128-bit trace id.
    pub trace_id: u128,
    /// Wall-clock capture time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// The assembled span tree, rooted at the ingress/query span.
    pub root: TraceNode,
}

impl ToJson for TraceRecord {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"trace_id\":\"");
        out.push_str(&format!("{:032x}", self.trace_id));
        out.push_str("\",");
        json_field(out, "unix_ms", self.unix_ms);
        out.push_str(",\"root\":");
        self.root.write_json(out);
        out.push('}');
    }
}

/// Bounded in-memory store of the most recent traces, keyed by trace id.
/// Ring-evicts the oldest past capacity — a flight recorder.
#[derive(Debug)]
pub struct TraceStore {
    records: Mutex<VecDeque<TraceRecord>>,
    capacity: usize,
    inserted: AtomicU64,
}

impl Default for TraceStore {
    fn default() -> TraceStore {
        TraceStore::new()
    }
}

impl TraceStore {
    /// An empty store keeping the 128 most recent traces.
    pub fn new() -> TraceStore {
        TraceStore::with_capacity(128)
    }

    /// An empty store keeping the `capacity` most recent traces.
    pub fn with_capacity(capacity: usize) -> TraceStore {
        TraceStore {
            records: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            inserted: AtomicU64::new(0),
        }
    }

    /// Files one finished trace, evicting the oldest past capacity. A
    /// re-filed trace id replaces the earlier record.
    pub fn insert(&self, record: TraceRecord) {
        let mut records = self.records.lock().unwrap_or_else(|e| e.into_inner());
        records.retain(|r| r.trace_id != record.trace_id);
        if records.len() == self.capacity {
            records.pop_front();
        }
        records.push_back(record);
        self.inserted.fetch_add(1, Ordering::Relaxed);
    }

    /// The record for `trace_id`, if still retained.
    pub fn get(&self, trace_id: u128) -> Option<TraceRecord> {
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .find(|r| r.trace_id == trace_id)
            .cloned()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total traces ever filed (including since-evicted ones).
    pub fn inserted(&self) -> u64 {
        self.inserted.load(Ordering::Relaxed)
    }
}

/// One captured slow query: the raw NEXI text, outcome, its trace, and the
/// span tree of its evaluation.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Raw NEXI text (may contain anything — escaping matters).
    pub query: String,
    /// Strategy that answered (`"ta"`, `"merge"`, ...).
    pub strategy: String,
    /// End-to-end latency: the root span's duration, gate wait included.
    pub total: Duration,
    /// Full query trace (stage timings + counter deltas).
    pub trace: QueryTrace,
    /// The query's span tree, rooted at `query`.
    pub tree: TraceNode,
    /// W3C trace id of the request, when it carried one.
    pub trace_id: Option<u128>,
}

impl ToJson for SlowQuery {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"query\":\"");
        out.push_str(&json_escape(&self.query));
        out.push_str("\",\"strategy\":\"");
        out.push_str(&json_escape(&self.strategy));
        out.push_str("\",");
        json_field(out, "total_us", self.total.as_micros());
        if let Some(id) = self.trace_id {
            out.push_str(",\"trace_id\":\"");
            out.push_str(&format!("{id:032x}"));
            out.push('"');
        }
        out.push_str(",\"trace\":");
        self.trace.write_json(out);
        out.push_str(",\"tree\":");
        self.tree.write_json(out);
        out.push('}');
    }
}

/// Bounded log of the most recent slow queries.
#[derive(Debug)]
pub struct SlowQueryLog {
    threshold_ns: AtomicU64,
    entries: Mutex<VecDeque<SlowQuery>>,
    capacity: usize,
}

/// Default slow-query threshold: 100 ms.
pub const DEFAULT_SLOW_THRESHOLD: Duration = Duration::from_millis(100);

impl Default for SlowQueryLog {
    fn default() -> SlowQueryLog {
        SlowQueryLog::new()
    }
}

impl SlowQueryLog {
    /// An empty log keeping the 32 most recent entries, threshold 100 ms.
    pub fn new() -> SlowQueryLog {
        SlowQueryLog {
            threshold_ns: AtomicU64::new(DEFAULT_SLOW_THRESHOLD.as_nanos() as u64),
            entries: Mutex::new(VecDeque::new()),
            capacity: 32,
        }
    }

    /// Sets the capture threshold; `None` disables capture entirely.
    pub fn set_threshold(&self, t: Option<Duration>) {
        let ns = t
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(u64::MAX);
        self.threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// The capture threshold in nanoseconds (`u64::MAX` = disabled).
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Whether a query of duration `elapsed_ns` should be captured.
    #[inline]
    pub fn qualifies(&self, elapsed_ns: u64) -> bool {
        elapsed_ns >= self.threshold_ns()
    }

    /// Records one slow query, evicting the oldest past capacity.
    pub fn record(&self, entry: SlowQuery) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQuery> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Renders slow-query logs as one JSON object: the first log's
/// `threshold_ns`, then `entries` — every log's entries, log by log and
/// oldest first, each led by `"partition":"label"` when its log has one.
pub(crate) fn render_slow_logs(logs: &[(Option<&str>, &SlowQueryLog)]) -> String {
    let threshold = logs.first().map_or(u64::MAX, |(_, log)| log.threshold_ns());
    let mut out = String::from("{");
    json_field(&mut out, "threshold_ns", threshold);
    out.push_str(",\"entries\":[");
    let mut first = true;
    for (label, log) in logs {
        for entry in log.entries() {
            if !first {
                out.push(',');
            }
            first = false;
            let json = entry.to_json();
            match label {
                Some(label) => {
                    out.push_str("{\"partition\":\"");
                    out.push_str(&json_escape(label));
                    out.push_str("\",");
                    out.push_str(&json[1..]);
                }
                None => out.push_str(&json),
            }
        }
    }
    out.push_str("]}");
    out
}

/// Milliseconds since the Unix epoch (0 if the clock is before 1970).
pub fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traceparent_round_trips() {
        let ctx = TraceContext::root();
        let parsed = parse_traceparent(&ctx.header_value()).unwrap();
        assert_eq!(parsed, ctx);
        assert_eq!(ctx.trace_id_hex().len(), 32);
    }

    #[test]
    fn traceparent_parses_spec_example() {
        let ctx =
            parse_traceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01").unwrap();
        assert_eq!(ctx.trace_id, 0x4bf92f3577b34da6a3ce929d0e0e4736);
        assert_eq!(ctx.parent_span, 0x00f067aa0ba902b7);
        assert!(ctx.sampled);
        let unsampled =
            parse_traceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00").unwrap();
        assert!(!unsampled.sampled);
    }

    #[test]
    fn malformed_traceparents_rejected() {
        for bad in [
            "",
            "00",
            "00-short-00f067aa0ba902b7-01",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-short-01",
            "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
            "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero parent
            "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
            "00-4bf92f3577b34da6a3ce929d0e0e4zzz-00f067aa0ba902b7-01",
        ] {
            assert!(parse_traceparent(bad).is_none(), "accepted: {bad}");
        }
    }

    #[test]
    fn generated_ids_are_distinct_and_nonzero() {
        let a = gen_trace_id();
        let b = gen_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_ne!(gen_span_id(), 0);
    }

    #[test]
    fn tree_renders_nested_json() {
        let tree = TraceNode {
            name: "query".into(),
            start_us: 0,
            duration_us: 9,
            children: vec![
                TraceNode {
                    name: "translate".into(),
                    duration_us: 2,
                    ..TraceNode::default()
                },
                TraceNode {
                    name: "evaluate:ta".into(),
                    start_us: 3,
                    duration_us: 6,
                    children: Vec::new(),
                },
            ],
        };
        let json = tree.to_json();
        assert!(json.starts_with("{\"name\":\"query\",\"start_us\":0,\"duration_us\":9"));
        assert!(json.contains("\"children\":[{\"name\":\"translate\""));
    }

    #[test]
    fn store_bounds_and_replaces() {
        let store = TraceStore::with_capacity(2);
        for i in 1..=3u128 {
            store.insert(TraceRecord {
                trace_id: i,
                unix_ms: 0,
                root: TraceNode {
                    name: "query".into(),
                    ..TraceNode::default()
                },
            });
        }
        assert_eq!(store.len(), 2);
        assert!(store.get(1).is_none(), "oldest evicted");
        assert!(store.get(3).is_some());
        store.insert(TraceRecord {
            trace_id: 3,
            unix_ms: 9,
            root: TraceNode::default(),
        });
        assert_eq!(store.len(), 2, "re-filed id replaces, not duplicates");
        assert_eq!(store.get(3).unwrap().unix_ms, 9);
        assert_eq!(store.inserted(), 4);
        let json = store.get(3).unwrap().to_json();
        assert!(json.contains("\"trace_id\":\"00000000000000000000000000000003\""));
        assert!(json.contains("\"unix_ms\":9"));
    }

    #[test]
    fn slow_query_log_bounds_and_renders() {
        // Capacity eviction + JSON rendering of hostile query text, each
        // entry carrying its span tree.
        let log = SlowQueryLog::new();
        log.set_threshold(Some(Duration::from_millis(5)));
        assert!(log.qualifies(5_000_000));
        assert!(!log.qualifies(4_999_999));
        for i in 0..40 {
            log.record(SlowQuery {
                query: format!("//article[about(., \"tab\there\" №{i})]"),
                strategy: "era".into(),
                total: Duration::from_millis(6),
                trace: QueryTrace::default(),
                tree: TraceNode {
                    name: "query".into(),
                    duration_us: 6_000,
                    ..TraceNode::default()
                },
                trace_id: (i % 2 == 0).then_some(0xabcd),
            });
        }
        assert_eq!(log.len(), 32);
        let json = render_slow_logs(&[(None, &log)]);
        assert!(json.starts_with("{\"threshold_ns\":5000000,\"entries\":[{\"query\":"));
        assert!(json.contains("\\\"tab\\there\\\""));
        assert!(json.contains("№39)"));
        assert!(json.contains("№8)"));
        assert!(!json.contains("№7)")); // oldest 8 evicted
        assert!(json.contains("\"tree\":{\"name\":\"query\",\"start_us\":0,\"duration_us\":6000"));
        crate::parse_json(&json).expect("slow log JSON stays parseable");
        let labelled = render_slow_logs(&[(Some("0"), &log), (Some("1"), &log)]);
        assert_eq!(
            labelled.matches("{\"partition\":\"1\",\"query\":").count(),
            32
        );
        crate::parse_json(&labelled).expect("labelled slow log JSON stays parseable");
        log.set_threshold(None);
        assert!(!log.qualifies(u64::MAX - 1));
    }
}
