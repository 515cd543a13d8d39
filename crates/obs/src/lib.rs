//! Observability for TReX, in three always-on layers:
//!
//! 1. **Counters** ([`StorageCounters`], [`IndexCounters`], ... ) — relaxed
//!    atomic event counts, snapshotted/delta'd around queries to build
//!    [`QueryTrace`]s tied to the paper's §4 cost model.
//! 2. **Histograms** ([`hist`]) — log-bucketed latency distributions
//!    (p50/p90/p99/p999 + max, ≤12.5% relative error) for the query path,
//!    storage I/O, the WAL, the maintenance gate, and reconcile cycles.
//! 3. **Spans** ([`trace`]) — one [`TraceNode`] tree per query, built from
//!    the engine's stage clock only when a request trace or the slow-query
//!    log will read it.
//!
//! [`registry::MetricsRegistry`] gathers all three behind
//! `render_prometheus()` / `render_json()` for the serving surface.
//!
//! Design rules:
//!
//! * Counters are **always maintained** with `Ordering::Relaxed` increments —
//!   a single uncontended atomic add per counted event, cheap enough to leave
//!   on in production builds. The *trace* toggle only controls whether a
//!   query takes before/after snapshots and attaches a [`QueryTrace`].
//!   Histograms follow the same discipline and are always on; a span tree
//!   costs nothing until a reader asks for one.
//! * Layers share counters by `Arc`: the buffer pool and pager share one
//!   [`StorageCounters`], every table/iterator of an index shares one
//!   [`IndexCounters`]. Snapshot deltas around a query therefore capture all
//!   work done on its behalf (and, under concurrency, of its neighbours —
//!   totals remain exact).
//! * Serialization is hand-rolled JSON (no serde in the offline tree); every
//!   trace type knows how to render itself via [`ToJson`].

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

pub mod advisor;
pub mod drift;
pub mod health;
pub mod hist;
pub mod json;
pub mod registry;
pub mod trace;

pub use advisor::{AdvisorJournal, CycleRecord, ListDeltaRecord, ShapeRecord, SplitRecord};
pub use drift::{
    DriftKind, DriftMonitor, DEFAULT_DRIFT_ALERT_THRESHOLD, DEFAULT_DRIFT_SAMPLE_EVERY, DRIFT_KINDS,
};
pub use health::{Health, InFlight};
pub use hist::{
    Histogram, HistogramSnapshot, MaintTimers, QueryTimers, ServeTimers, Stopwatch, StorageTimers,
};
pub use json::{parse_json, JsonError, JsonValue};
pub use registry::{MetricsRegistry, PartitionMetrics, ServeMetrics, Telemetry};
pub use trace::{
    format_traceparent, gen_span_id, gen_trace_id, parse_traceparent, unix_ms, SlowQuery,
    SlowQueryLog, TraceContext, TraceNode, TraceRecord, TraceStore, DEFAULT_SLOW_THRESHOLD,
};

/// Version of every exposition schema this build emits: the `/v1/metrics.json`
/// layout and the advisor/trace wire bodies share this one number, rendered
/// as the `schema_version` label of `trex_build_info`.
pub const SCHEMA_VERSION: u32 = 1;

/// The git revision `trex_build_info` reports: the `TREX_BENCH_GIT_REV`
/// environment variable, `"unknown"` when unset (deterministic across
/// reruns under one environment).
pub fn build_git_rev() -> String {
    std::env::var("TREX_BENCH_GIT_REV").unwrap_or_else(|_| "unknown".to_string())
}

/// A relaxed atomic event counter.
///
/// `Relaxed` is sufficient: counters are statistics, not synchronization.
/// Reads racing with increments observe some recent value; snapshot deltas
/// taken on the querying thread see at least that thread's own events.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A relaxed atomic level gauge (a value that goes up *and* down, e.g. the
/// current admission-queue depth). Same discipline as [`Counter`]: relaxed
/// ordering, statistics not synchronization.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Raises the level by one.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Lowers the level by one.
    #[inline]
    pub fn decr(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Types that render themselves as a JSON value.
pub trait ToJson {
    /// Appends this value's JSON rendering to `out`.
    fn write_json(&self, out: &mut String);

    /// This value as a standalone JSON string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// Writes one `"key": value` pair (caller manages commas/braces).
pub fn json_field(out: &mut String, key: &str, value: impl std::fmt::Display) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

/// Escapes a string for embedding in JSON: `"` and `\` are backslashed,
/// every control character U+0000–U+001F is escaped (short forms for
/// `\b \t \n \f \r`, `\u00XX` otherwise), and non-ASCII passes through
/// unescaped (the output is UTF-8, which JSON permits raw). Slow-query logs
/// carry raw NEXI text, so hostile input must round-trip exactly.
pub fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{08}' => out.push_str("\\b"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\u{0c}' => out.push_str("\\f"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`json_escape`] for round-trip testing: decodes one JSON
/// string body (no surrounding quotes). Returns `None` on malformed input.
pub fn json_unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'b' => out.push('\u{08}'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'f' => out.push('\u{0c}'),
            'r' => out.push('\r'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return None;
                }
                let code = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

macro_rules! counter_group {
    (
        $(#[$group_meta:meta])*
        counters $name:ident / snapshot $snap:ident {
            $($(#[$field_meta:meta])* $field:ident),+ $(,)?
        }
    ) => {
        $(#[$group_meta])*
        #[derive(Debug, Default)]
        pub struct $name {
            $($(#[$field_meta])* pub $field: Counter),+
        }

        impl $name {
            /// A zeroed counter group.
            pub const fn new() -> $name {
                $name { $($field: Counter::new()),+ }
            }

            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> $snap {
                $snap { $($field: self.$field.get()),+ }
            }
        }

        #[doc = concat!("Point-in-time copy of [`", stringify!($name), "`].")]
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct $snap {
            $($(#[$field_meta])* pub $field: u64),+
        }

        impl $snap {
            /// Per-field difference `self - earlier`, **saturating**: under
            /// concurrent updates (or after a reset) the "earlier" snapshot
            /// can observe a larger value than the "later" one; the delta
            /// then clamps to 0 instead of wrapping to ~`u64::MAX`.
            pub fn delta(&self, earlier: &$snap) -> $snap {
                $snap { $($field: self.$field.saturating_sub(earlier.$field)),+ }
            }

            /// Per-field sum (used to compare totals across threads),
            /// saturating like `delta`.
            pub fn sum(&self, other: &$snap) -> $snap {
                $snap { $($field: self.$field.saturating_add(other.$field)),+ }
            }

            /// `(field_name, value)` pairs, for exposition surfaces.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field)),+]
            }
        }

        impl ToJson for $snap {
            fn write_json(&self, out: &mut String) {
                out.push('{');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    json_field(out, stringify!($field), self.$field);
                )+
                let _ = first;
                out.push('}');
            }
        }
    };
}

counter_group! {
    /// Page-level and cache-level storage work, shared by the pager (I/O),
    /// the buffer pool (hits/misses/evictions), and the B+-tree (node visits
    /// and cursor steps).
    counters StorageCounters / snapshot StorageSnapshot {
        /// Pages read from disk by the pager.
        page_reads,
        /// Pages written to disk by the pager.
        page_writes,
        /// Buffer-pool lookups served from memory.
        pool_hits,
        /// Buffer-pool lookups that had to fault the page in.
        pool_misses,
        /// Frames evicted to make room.
        pool_evictions,
        /// B+-tree nodes visited during descents.
        btree_node_visits,
        /// Entries yielded by B+-tree cursors.
        cursor_steps,
        /// Records appended to the write-ahead log (page images, alloc
        /// records; commit/checkpoint records are not counted — they mark
        /// protocol progress, not logged work).
        wal_appends,
        /// Bytes appended to the write-ahead log (record headers included).
        wal_bytes,
        /// Checkpoints completed (WAL sealed, folded into the data file,
        /// and truncated).
        checkpoints,
        /// Redo recoveries that replayed a sealed log at open.
        recoveries_run,
    }
}

counter_group! {
    /// Per-shard cache accounting of the sharded buffer pool. Every shard
    /// owns one group; the shard groups must sum exactly to the pool-level
    /// `pool_hits` / `pool_misses` / `pool_evictions` of the shared
    /// [`StorageCounters`] (each event increments both its shard's counter
    /// and the global one), which is how the concurrency tests prove no
    /// cache event is lost under threads.
    counters ShardCounters / snapshot ShardSnapshot {
        /// Lookups this shard served from memory.
        hits,
        /// Lookups this shard had to fault in from disk.
        misses,
        /// Frames this shard evicted to make room.
        evictions,
    }
}

counter_group! {
    /// Index-layer decode work: bytes and entries decoded from each of the
    /// three physical list families.
    counters IndexCounters / snapshot IndexSnapshot {
        /// Bytes of posting-list payload decoded.
        posting_bytes,
        /// Posting entries (positions) decoded.
        posting_entries,
        /// Bytes of RPL payload decoded.
        rpl_bytes,
        /// RPL entries decoded (TA sorted accesses happen here).
        rpl_entries,
        /// RPL block records fetched (each covers up to
        /// `trex_index::blocks::BLOCK_CAPACITY` entries).
        rpl_blocks,
        /// Bytes of ERPL payload decoded.
        erpl_bytes,
        /// ERPL entries decoded (Merge sequential accesses happen here).
        erpl_entries,
        /// ERPL block records fetched.
        erpl_blocks,
    }
}

counter_group! {
    /// Online self-management work (profiler + reconcile cycles): how the
    /// `SelfManager` observed the query stream and what it did to the
    /// redundant lists. `bytes_materialized - bytes_dropped` tracks the
    /// bytes brought under management since the counters were created; the
    /// authoritative live figure is the list registries' `total_bytes`.
    counters SelfManageCounters / snapshot SelfManageSnapshot {
        /// Queries the workload profiler recorded.
        queries_profiled,
        /// `Strategy::Auto` coverage checks that fell back to ERA because a
        /// needed RPL/ERPL list was absent (e.g. mid-reconcile).
        era_fallbacks,
        /// Reconcile cycles completed.
        cycles,
        /// Redundant lists written by reconcile cycles.
        lists_materialized,
        /// Redundant lists dropped by reconcile cycles.
        lists_dropped,
        /// Bytes of redundant lists written by reconcile cycles.
        bytes_materialized,
        /// Bytes of redundant lists dropped by reconcile cycles.
        bytes_dropped,
    }
}

counter_group! {
    /// Request accounting for the query-serving front end: admission-control
    /// outcomes, result-cache effectiveness, and error classes. `admitted`
    /// counts requests that entered the bounded queue; `shed` counts the
    /// 429s the admission controller turned away instead of queueing
    /// unboundedly, so `admitted + shed` is total offered load.
    counters ServeCounters / snapshot ServeSnapshot {
        /// Requests accepted into the bounded request queue.
        admitted,
        /// Requests shed with `429 Retry-After` because the queue was full.
        shed,
        /// Query executions answered from the result cache.
        cache_hits,
        /// Query executions that missed the result cache and ran a strategy.
        cache_misses,
        /// Query executions that bypassed the cache (trace requested, or
        /// caching disabled).
        cache_bypass,
        /// Queries that ran out of deadline budget mid-strategy (HTTP 408).
        deadline_exceeded,
        /// Requests rejected for malformed bodies or invalid NEXI (HTTP 400).
        parse_errors,
        /// Requests that failed inside the engine (HTTP 500).
        internal_errors,
    }
}

/// Strategy-level cost-model units for one query, in the vocabulary of §4 of
/// the paper: sorted accesses (sequential reads of score-ordered RPLs or
/// position-ordered ERPLs), random accesses (point lookups the engine had to
/// perform outside those scans), heap operations, and candidate set size.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CostUnits {
    /// Sequential accesses into sorted lists (TA depth × lists, or total
    /// ERPL entries merged).
    pub sorted_accesses: u64,
    /// Random (point) accesses; zero for the TReX strategies, which the
    /// paper designs to avoid random access entirely.
    pub random_accesses: u64,
    /// Heap pushes performed while maintaining the top-k.
    pub heap_pushes: u64,
    /// Heap pops performed while maintaining the top-k.
    pub heap_pops: u64,
    /// Peak size of the candidate set.
    pub candidates_peak: u64,
}

impl ToJson for CostUnits {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        json_field(out, "sorted_accesses", self.sorted_accesses);
        out.push(',');
        json_field(out, "random_accesses", self.random_accesses);
        out.push(',');
        json_field(out, "heap_pushes", self.heap_pushes);
        out.push(',');
        json_field(out, "heap_pops", self.heap_pops);
        out.push(',');
        json_field(out, "candidates_peak", self.candidates_peak);
        out.push('}');
    }
}

/// Wall-clock timings of the three query stages.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTimings {
    /// NEXI parse + summary translation.
    pub translate: Duration,
    /// Strategy execution (the dominant stage).
    pub evaluate: Duration,
    /// Final ranking / answer assembly.
    pub rank: Duration,
}

impl ToJson for StageTimings {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        json_field(out, "translate_us", self.translate.as_micros());
        out.push(',');
        json_field(out, "evaluate_us", self.evaluate.as_micros());
        out.push(',');
        json_field(out, "rank_us", self.rank.as_micros());
        out.push('}');
    }
}

/// Everything observed about one query: stage timings plus the storage,
/// index, and strategy counter deltas attributable to it.
#[derive(Debug, Default, Clone)]
pub struct QueryTrace {
    /// Which strategy ultimately answered (e.g. `"ta"`, `"merge"`).
    pub strategy: String,
    /// Stage wall-clock breakdown.
    pub stages: StageTimings,
    /// Storage-layer work during the query (buffer pool + pager + B+-tree).
    pub storage: StorageSnapshot,
    /// Index-layer decode work during the query.
    pub index: IndexSnapshot,
    /// Strategy-level cost-model units.
    pub cost: CostUnits,
}

impl QueryTrace {
    /// Total list entries this query decoded, across all list families.
    pub fn entries_decoded(&self) -> u64 {
        self.index.posting_entries + self.index.rpl_entries + self.index.erpl_entries
    }

    /// Total list bytes this query decoded, across all list families.
    pub fn bytes_decoded(&self) -> u64 {
        self.index.posting_bytes + self.index.rpl_bytes + self.index.erpl_bytes
    }
}

impl ToJson for QueryTrace {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        out.push_str("\"strategy\":\"");
        out.push_str(&json_escape(&self.strategy));
        out.push_str("\",\"stages\":");
        self.stages.write_json(out);
        out.push_str(",\"storage\":");
        self.storage.write_json(out);
        out.push_str(",\"index\":");
        self.index.write_json(out);
        out.push_str(",\"cost\":");
        self.cost.write_json(out);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = StorageCounters::new();
        c.page_reads.add(3);
        c.pool_hits.incr();
        let a = c.snapshot();
        c.page_reads.incr();
        let b = c.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.page_reads, 1);
        assert_eq!(d.pool_hits, 0);
        assert_eq!(a.sum(&d).page_reads, 4);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.incr();
        g.incr();
        g.decr();
        assert_eq!(g.get(), 1);
        g.decr();
        g.decr();
        assert_eq!(g.get(), -1, "a gauge may legitimately dip below zero");
        g.set(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn snapshots_render_as_json() {
        let c = IndexCounters::new();
        c.rpl_entries.add(7);
        let json = c.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rpl_entries\":7"));
    }

    #[test]
    fn trace_renders_nested_json() {
        let trace = QueryTrace {
            strategy: "ta".into(),
            ..QueryTrace::default()
        };
        let json = trace.to_json();
        assert!(json.contains("\"strategy\":\"ta\""));
        assert!(json.contains("\"stages\":{"));
        assert!(json.contains("\"cost\":{"));
        assert_eq!(trace.entries_decoded(), 0);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn escape_round_trips_hostile_strings() {
        // Embedded quotes, backslashes, tabs, every control character, and
        // multibyte UTF-8 — exactly what raw NEXI text in a slow-query log
        // can carry.
        let all_controls: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let cases = [
            r#"//sec[about(., "quoted \ phrase")]"#,
            "tab\there, newline\nthere, cr\r, backspace\u{08}, formfeed\u{0c}",
            all_controls.as_str(),
            "多字节 UTF-8 · ελληνικά · emoji \u{1F50D} stay raw",
            "\u{0}\u{1}\u{1f}\u{7f}",
            "",
        ];
        for case in cases {
            let escaped = json_escape(case);
            // The escaped form contains no raw control characters and no
            // unescaped quote.
            assert!(escaped.chars().all(|c| (c as u32) >= 0x20));
            assert_eq!(
                json_unescape(&escaped).as_deref(),
                Some(case),
                "round-trip failed for {case:?}"
            );
        }
    }

    #[test]
    fn escape_uses_short_forms() {
        assert_eq!(json_escape("\u{08}\u{0c}"), "\\b\\f");
        assert_eq!(json_escape("\u{01}"), "\\u0001");
        assert_eq!(json_escape("ü"), "ü");
    }

    #[test]
    fn interleaved_snapshot_deltas_saturate_not_wrap() {
        // Loom-style interleaving without loom: four writer threads hammer a
        // counter group while two snapshot threads race snapshot pairs in
        // both orders. A snapshot taken "later" by one thread can observe
        // fewer relaxed increments than an "earlier" one taken by another
        // thread; `delta` must clamp those fields to 0, never wrap. With
        // wrapping subtraction this test trips immediately.
        const PER_THREAD: u64 = 50_000;
        let c = StorageCounters::new();
        let total = 4 * PER_THREAD;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        c.page_reads.incr();
                        c.pool_hits.incr();
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..2_000 {
                        let a = c.snapshot();
                        let b = c.snapshot();
                        // Both orders: b-a is a genuine window, a-b is the
                        // adversarial reversed pair that must clamp to 0-ish,
                        // and both must stay within the physically possible
                        // range.
                        for d in [b.delta(&a), a.delta(&b)] {
                            assert!(d.page_reads <= total, "wrapped: {}", d.page_reads);
                            assert!(d.pool_hits <= total, "wrapped: {}", d.pool_hits);
                        }
                    }
                });
            }
        });
        assert_eq!(c.snapshot().page_reads, total);
    }

    #[test]
    fn delta_after_reset_like_regression_saturates() {
        // A snapshot pair where "earlier" is ahead of "later" on every field
        // (what a counter reset between snapshots produces).
        let c = IndexCounters::new();
        c.rpl_entries.add(100);
        let earlier = c.snapshot();
        let later = IndexCounters::new().snapshot();
        let d = later.delta(&earlier);
        assert_eq!(d.rpl_entries, 0);
        assert_eq!(d.fields().iter().map(|(_, v)| v).sum::<u64>(), 0);
    }

    #[test]
    fn snapshot_fields_enumerate_every_counter() {
        let c = StorageCounters::new();
        c.wal_appends.add(3);
        let fields = c.snapshot().fields();
        assert!(fields.len() >= 11);
        assert!(fields.contains(&("wal_appends", 3)));
        assert!(fields.contains(&("page_reads", 0)));
    }

    #[test]
    fn counters_are_thread_safe() {
        let c = StorageCounters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.cursor_steps.incr();
                    }
                });
            }
        });
        assert_eq!(c.snapshot().cursor_steps, 4000);
    }
}
