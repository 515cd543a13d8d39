//! Always-on span tracing: a striped in-memory ring buffer of begin/end
//! events with parent links, and the slow-query log built on top of it.
//!
//! The journal is designed for the same always-on discipline as the counter
//! layer: a span begin/end is one atomic id allocation plus one push into a
//! thread-striped ring. Stripes are assigned per thread, so concurrent
//! writers virtually never touch the same lock, and each critical section is
//! a handful of stores into a preallocated ring slot. Old events are
//! overwritten ring-style — the journal is a flight recorder, not a durable
//! log.
//!
//! Parent links come from a thread-local "current span" cell: opening a span
//! makes it the current span for its thread, dropping the guard restores its
//! parent. The slow-query log uses the links to cut the exact subtree of one
//! query out of the shared journal.

use std::cell::Cell;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::{json_escape, json_field, QueryTrace, ToJson};

/// Number of independently locked ring stripes.
const STRIPES: usize = 8;
/// Events retained per stripe before the ring wraps.
const STRIPE_CAPACITY: usize = 4096;

/// Did this event open or close a span?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Span opened.
    Begin,
    /// Span closed.
    End,
}

/// One begin/end event in the journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Global event sequence number: a total order over all events of one
    /// journal, across threads.
    pub seq: u64,
    /// Begin or end.
    pub kind: SpanKind,
    /// Span id (unique per journal, never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for roots.
    pub parent: u64,
    /// Static span name (e.g. `"query"`, `"evaluate:ta"`).
    pub name: &'static str,
    /// Nanoseconds since the journal's epoch.
    pub t_ns: u64,
    /// Compact id of the recording thread.
    pub tid: u64,
}

impl ToJson for SpanEvent {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        json_field(out, "seq", self.seq);
        out.push_str(",\"kind\":\"");
        out.push_str(match self.kind {
            SpanKind::Begin => "begin",
            SpanKind::End => "end",
        });
        out.push_str("\",");
        json_field(out, "id", self.id);
        out.push(',');
        json_field(out, "parent", self.parent);
        out.push_str(",\"name\":\"");
        out.push_str(&json_escape(self.name));
        out.push_str("\",");
        json_field(out, "t_ns", self.t_ns);
        out.push(',');
        json_field(out, "tid", self.tid);
        out.push('}');
    }
}

#[derive(Debug)]
struct Stripe {
    buf: Vec<SpanEvent>,
    /// Next write position; the ring holds `buf.len()` events once wrapped.
    next: usize,
    wrapped: bool,
}

impl Stripe {
    fn new() -> Stripe {
        Stripe {
            buf: Vec::with_capacity(STRIPE_CAPACITY),
            next: 0,
            wrapped: false,
        }
    }

    fn push(&mut self, ev: SpanEvent) -> bool {
        if self.buf.len() < STRIPE_CAPACITY {
            self.buf.push(ev);
            self.next = self.buf.len() % STRIPE_CAPACITY;
            false
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % STRIPE_CAPACITY;
            self.wrapped = true;
            true
        }
    }
}

thread_local! {
    /// Innermost open span id on this thread (0 = none).
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    /// Stripe this thread writes to, assigned round-robin on first use.
    static MY_STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Compact thread id for events, assigned on first use.
    static MY_TID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_STRIPE: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

fn my_stripe() -> usize {
    MY_STRIPE.with(|c| {
        let mut s = c.get();
        if s == usize::MAX {
            s = (NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) as usize) % STRIPES;
            c.set(s);
        }
        s
    })
}

fn my_tid() -> u64 {
    MY_TID.with(|c| {
        let mut t = c.get();
        if t == 0 {
            t = NEXT_TID.fetch_add(1, Ordering::Relaxed) + 1;
            c.set(t);
        }
        t
    })
}

/// The in-memory span journal: a striped ring of [`SpanEvent`]s.
#[derive(Debug)]
pub struct SpanJournal {
    epoch: Instant,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    /// Events overwritten by ring wrap-around since creation.
    dropped: AtomicU64,
    stripes: [Mutex<Stripe>; STRIPES],
}

impl Default for SpanJournal {
    fn default() -> SpanJournal {
        SpanJournal::new()
    }
}

impl SpanJournal {
    /// An empty journal.
    pub fn new() -> SpanJournal {
        SpanJournal {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            stripes: std::array::from_fn(|_| Mutex::new(Stripe::new())),
        }
    }

    /// Events lost to ring wrap-around since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the journal epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; it closes (records its `End` event) when the returned
    /// guard drops. The span becomes the parent of any span opened on the
    /// same thread while the guard lives.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let parent = CURRENT_SPAN.with(|c| c.replace(id));
        self.push(SpanKind::Begin, id, parent, name);
        SpanGuard {
            journal: self,
            id,
            parent,
            name,
        }
    }

    fn push(&self, kind: SpanKind, id: u64, parent: u64, name: &'static str) {
        let ev = SpanEvent {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            kind,
            id,
            parent,
            name,
            t_ns: self.now_ns(),
            tid: my_tid(),
        };
        let overwrote = {
            let mut stripe = self.stripes[my_stripe()]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            stripe.push(ev)
        };
        if overwrote {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of every retained event, in global `seq` order.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        let mut events = Vec::new();
        for stripe in &self.stripes {
            let stripe = stripe.lock().unwrap_or_else(|e| e.into_inner());
            events.extend_from_slice(&stripe.buf);
        }
        events.sort_by_key(|e| e.seq);
        events
    }

    /// The subtree of events rooted at span `root`: every begin/end event of
    /// `root` and its descendants (via parent links), in `seq` order. This is
    /// how the slow-query log cuts one query's spans out of the shared
    /// journal.
    pub fn collect_tree(&self, root: u64) -> Vec<SpanEvent> {
        let events = self.snapshot();
        let mut keep: HashSet<u64> = HashSet::new();
        keep.insert(root);
        // Begin events arrive in seq order, and a child's begin always
        // follows its parent's, so one forward pass closes the set.
        for ev in &events {
            if ev.kind == SpanKind::Begin && keep.contains(&ev.parent) {
                keep.insert(ev.id);
            }
        }
        events
            .into_iter()
            .filter(|e| keep.contains(&e.id))
            .collect()
    }

    /// Drains the journal as a JSON array of events (the events stay in the
    /// ring; "drain" reads them out, wrap-around reclaims the space).
    pub fn snapshot_json(&self) -> String {
        render_events(&self.snapshot())
    }
}

/// Renders a slice of events as a JSON array.
pub fn render_events(events: &[SpanEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 2);
    out.push('[');
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        ev.write_json(&mut out);
    }
    out.push(']');
    out
}

/// RAII guard for an open span; records the `End` event on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    journal: &'a SpanJournal,
    id: u64,
    parent: u64,
    name: &'static str,
}

impl SpanGuard<'_> {
    /// The span's id (never 0).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.journal
            .push(SpanKind::End, self.id, self.parent, self.name);
        CURRENT_SPAN.with(|c| c.set(self.parent));
    }
}

/// One captured slow query: the raw NEXI text, outcome, its trace, and the
/// exact span subtree of its evaluation.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Raw NEXI text (may contain anything — escaping matters).
    pub query: String,
    /// Strategy that answered (`"ta"`, `"merge"`, ...).
    pub strategy: String,
    /// End-to-end latency.
    pub total: Duration,
    /// Full query trace (stage timings + counter deltas).
    pub trace: QueryTrace,
    /// Begin/end span subtree of this query, in `seq` order.
    pub spans: Vec<SpanEvent>,
    /// W3C trace id of the request, when it carried one.
    pub trace_id: Option<u128>,
    /// True when ring wrap-around lost events inside the captured window,
    /// so `spans` is an incomplete subtree.
    pub truncated: bool,
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
        out.push(',');
        json_field(out, "truncated", self.truncated);
        out.push_str(",\"trace\":");
        self.trace.write_json(out);
        out.push_str(",\"spans\":");
        out.push_str(&render_events(&self.spans));
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

impl ToJson for SlowQueryLog {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        json_field(out, "threshold_ns", self.threshold_ns());
        out.push_str(",\"entries\":[");
        for (i, e) in self.entries().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            e.write_json(out);
        }
        out.push_str("]}");
    }
}

/// Checks that a single-threaded event sequence nests correctly: every `End`
/// closes the innermost open span, parent links match the enclosing span,
/// and everything opened gets closed. Returns the violation, if any.
pub fn check_nesting(events: &[SpanEvent]) -> Result<(), String> {
    let mut stack: Vec<u64> = Vec::new();
    for ev in events {
        match ev.kind {
            SpanKind::Begin => {
                let enclosing = stack.last().copied().unwrap_or(ev.parent);
                if ev.parent != enclosing {
                    return Err(format!(
                        "span {} ({}) begins under parent {} but {} is open",
                        ev.id, ev.name, ev.parent, enclosing
                    ));
                }
                stack.push(ev.id);
            }
            SpanKind::End => match stack.pop() {
                Some(open) if open == ev.id => {}
                Some(open) => {
                    return Err(format!(
                        "span {} ({}) ends while span {} is innermost",
                        ev.id, ev.name, open
                    ));
                }
                None => {
                    return Err(format!(
                        "span {} ({}) ends with no span open",
                        ev.id, ev.name
                    ))
                }
            },
        }
    }
    if let Some(open) = stack.last() {
        return Err(format!("span {open} never ended"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_with_parent_links() {
        let j = SpanJournal::new();
        {
            let _root = j.span("query");
            {
                let _child = j.span("evaluate:ta");
                let _grandchild = j.span("rank");
            }
            let _sibling = j.span("rank");
        }
        let events = j.snapshot();
        assert_eq!(events.len(), 8);
        check_nesting(&events).unwrap();
        let root = &events[0];
        assert_eq!(root.parent, 0);
        let child = events
            .iter()
            .find(|e| e.name == "evaluate:ta" && e.kind == SpanKind::Begin)
            .unwrap();
        assert_eq!(child.parent, root.id);
    }

    #[test]
    fn collect_tree_cuts_one_subtree() {
        let j = SpanJournal::new();
        let root_a;
        {
            let a = j.span("query");
            root_a = a.id();
            let _a1 = j.span("evaluate:merge");
        }
        {
            let _b = j.span("query");
            let _b1 = j.span("evaluate:ta");
        }
        let tree = j.collect_tree(root_a);
        assert_eq!(tree.len(), 4);
        assert!(tree
            .iter()
            .all(|e| e.id == root_a || e.parent == root_a || e.parent == 0));
        assert!(tree.iter().any(|e| e.name == "evaluate:merge"));
        assert!(!tree.iter().any(|e| e.name == "evaluate:ta"));
        check_nesting(&tree).unwrap();
    }

    #[test]
    fn ring_wraps_without_losing_recent_events() {
        // One stripe wraps; recent events survive and dropped counts.
        let j = SpanJournal::new();
        for _ in 0..(STRIPE_CAPACITY) {
            let _ = j.span("query");
        }
        assert!(j.dropped() > 0);
        let events = j.snapshot();
        assert!(!events.is_empty());
        // The newest event is always retained.
        let max_seq = events.iter().map(|e| e.seq).max().unwrap();
        assert_eq!(max_seq, 2 * STRIPE_CAPACITY as u64 - 1);
    }

    #[test]
    fn concurrent_spans_keep_per_thread_nesting() {
        let j = SpanJournal::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        let _q = j.span("query");
                        let _e = j.span("evaluate:era");
                    }
                });
            }
        });
        let events = j.snapshot();
        assert_eq!(events.len(), 4 * 100 * 4);
        let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let per_thread: Vec<SpanEvent> =
                events.iter().filter(|e| e.tid == tid).copied().collect();
            check_nesting(&per_thread).unwrap();
        }
    }

    #[test]
    fn slow_query_log_bounds_and_renders() {
        // Capacity eviction + JSON rendering of hostile query text.
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
                spans: Vec::new(),
                trace_id: (i % 2 == 0).then_some(0xabcd),
                truncated: false,
            });
        }
        assert_eq!(log.len(), 32);
        let json = log.to_json();
        assert!(json.contains("\\\"tab\\there\\\""));
        assert!(json.contains("№39)"));
        assert!(json.contains("№8)"));
        assert!(!json.contains("№7)")); // oldest 8 evicted
        log.set_threshold(None);
        assert!(!log.qualifies(u64::MAX - 1));
    }
}
