//! The single public query API: [`QueryRequest`] in, [`QueryResponse`] out.
//!
//! Every front door — the HTTP endpoint and the stdin REPL — routes through
//! this one pair, so "what does a query accept and return" has exactly one
//! answer. [`QueryRequest`] subsumes the older
//! `(nexi, EvalOptions)` call shape (k, strategy, interpretation, trace)
//! and adds the serving-only knobs (deadline budget); [`QueryResponse`] is
//! the versioned result envelope, with a stable JSON rendering
//! ([`trex_obs::ToJson`]) that the wire schema round-trips.

use std::time::{Duration, Instant};

use trex_nexi::Interpretation;
use trex_obs::{json_escape, json_field, QueryTrace, ToJson, TraceContext};

use crate::answer::Answer;
use crate::engine::{EvalOptions, Strategy};

/// Version tag stamped into every [`QueryResponse`] JSON envelope.
pub const WIRE_VERSION: u32 = 1;

/// Default top-k when a request does not name one — the paper's canonical
/// small-k working point.
pub const DEFAULT_K: usize = 10;

/// One query, fully described: text plus every evaluation knob.
///
/// `#[non_exhaustive]` with builder setters, like [`EvalOptions`]: new
/// knobs must not break call sites. Construct with [`QueryRequest::new`].
///
/// ```
/// use trex_core::{QueryRequest, Strategy};
///
/// let req = QueryRequest::new("//a//s[about(., xml)]")
///     .k(5)
///     .strategy(Strategy::Auto)
///     .deadline_ms(250);
/// assert_eq!(req.k, Some(5));
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The NEXI query text.
    pub nexi: String,
    /// Top-k limit; `None` returns all answers. Defaults to [`DEFAULT_K`].
    pub k: Option<usize>,
    /// Strategy selection.
    pub strategy: Strategy,
    /// Structural interpretation.
    pub interpretation: Interpretation,
    /// Attach a per-query trace (bypasses the result cache — a replayed
    /// trace would describe work that never happened).
    pub trace: bool,
    /// Evaluation budget in milliseconds from execution start; `None`
    /// means no deadline.
    pub deadline_ms: Option<u64>,
    /// Distributed-trace identity for the request (from an inbound
    /// `traceparent` header, or freshly minted at ingress). When set, the
    /// engine assembles a span tree for `/v1/trace/<id>` and the response
    /// bypasses the result cache, like [`trace`](QueryRequest::trace).
    pub trace_context: Option<TraceContext>,
}

impl QueryRequest {
    /// A request for `nexi` with the defaults: top-[`DEFAULT_K`], automatic
    /// strategy, vague interpretation, no trace, no deadline.
    pub fn new(nexi: impl Into<String>) -> QueryRequest {
        QueryRequest {
            nexi: nexi.into(),
            k: Some(DEFAULT_K),
            strategy: Strategy::Auto,
            interpretation: Interpretation::default(),
            trace: false,
            deadline_ms: None,
            trace_context: None,
        }
    }

    /// Sets the top-k limit (`None` = all answers).
    pub fn k(mut self, k: impl Into<Option<usize>>) -> QueryRequest {
        self.k = k.into();
        self
    }

    /// Sets the strategy.
    pub fn strategy(mut self, strategy: Strategy) -> QueryRequest {
        self.strategy = strategy;
        self
    }

    /// Sets the structural interpretation.
    pub fn interpretation(mut self, interpretation: Interpretation) -> QueryRequest {
        self.interpretation = interpretation;
        self
    }

    /// Enables/disables the per-query trace.
    pub fn trace(mut self, on: bool) -> QueryRequest {
        self.trace = on;
        self
    }

    /// Sets the evaluation budget in milliseconds (`None` = no deadline).
    pub fn deadline_ms(mut self, ms: impl Into<Option<u64>>) -> QueryRequest {
        self.deadline_ms = ms.into();
        self
    }

    /// Sets the distributed-trace identity.
    pub fn trace_context(mut self, ctx: impl Into<Option<TraceContext>>) -> QueryRequest {
        self.trace_context = ctx.into();
        self
    }

    /// The [`EvalOptions`] this request resolves to, with the deadline
    /// anchored at `start` (the moment the serving layer began handling the
    /// request, so queue time does not silently extend the budget).
    pub fn eval_options_from(&self, start: Instant) -> EvalOptions {
        let opts = EvalOptions::new()
            .k(self.k)
            .strategy(self.strategy)
            .interpretation(self.interpretation)
            .trace(self.trace)
            .trace_context(self.trace_context);
        match self.deadline_ms {
            Some(ms) => opts.deadline_at(start.checked_add(Duration::from_millis(ms))),
            None => opts,
        }
    }

    /// [`eval_options_from`](QueryRequest::eval_options_from) anchored now.
    pub fn eval_options(&self) -> EvalOptions {
        self.eval_options_from(Instant::now())
    }
}

/// Where a response's answers came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the result cache at the current generation.
    Hit,
    /// Evaluated, and the result is now cached.
    Miss,
    /// Evaluated without consulting the cache (trace requested, or caching
    /// disabled).
    Bypass,
}

impl CacheStatus {
    /// The wire label (`"hit"`, `"miss"`, `"bypass"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Bypass => "bypass",
        }
    }
}

/// The result envelope every front door returns.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Ranked answers.
    pub answers: Vec<Answer>,
    /// Total answers the query has (see
    /// [`QueryResult::total_answers`](crate::QueryResult::total_answers)).
    pub total_answers: usize,
    /// The strategy that produced the answers (trace label, e.g.
    /// `"merge"`, `"scatter"`; `"cache"` never appears — cached responses
    /// report the strategy that originally computed them).
    pub strategy: String,
    /// The maintenance generation the answers are valid for.
    pub generation: u64,
    /// Whether the answers came from the result cache.
    pub cache: CacheStatus,
    /// Server-side handling time (cache lookup + evaluation; excludes
    /// network and HTTP parsing).
    pub server_time: Duration,
    /// The per-query trace, when requested.
    pub trace: Option<QueryTrace>,
}

impl ToJson for QueryResponse {
    /// The versioned wire envelope:
    ///
    /// ```json
    /// {"v":1,"answers":[{"doc":0,"start":1,"end":3,"sid":2,"score":1.25}],
    ///  "total_answers":1,"strategy":"merge","generation":4,"cache":"miss",
    ///  "server_time_us":180,"trace":{...}}
    /// ```
    ///
    /// `trace` is present only when it was requested.
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push('{');
        json_field(out, "v", WIRE_VERSION);
        out.push_str(",\"answers\":[");
        for (i, a) in self.answers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"doc\":{},\"start\":{},\"end\":{},\"sid\":{},\"score\":{}}}",
                a.element.doc,
                a.element.start(),
                a.element.end,
                a.sid,
                a.score
            );
        }
        out.push_str("],");
        json_field(out, "total_answers", self.total_answers);
        out.push_str(",\"strategy\":\"");
        out.push_str(&json_escape(&self.strategy));
        out.push_str("\",");
        json_field(out, "generation", self.generation);
        out.push_str(",\"cache\":\"");
        out.push_str(self.cache.as_str());
        out.push_str("\",");
        json_field(out, "server_time_us", self.server_time.as_micros());
        if let Some(trace) = &self.trace {
            out.push_str(",\"trace\":");
            trace.write_json(out);
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_index::ElementRef;

    #[test]
    fn builder_defaults_and_setters() {
        let req = QueryRequest::new("//a[about(., x)]");
        assert_eq!(req.k, Some(DEFAULT_K));
        assert_eq!(req.strategy, Strategy::Auto);
        assert!(!req.trace);
        assert_eq!(req.deadline_ms, None);

        let req = req
            .k(None)
            .strategy(Strategy::Merge)
            .trace(true)
            .deadline_ms(50);
        assert_eq!(req.k, None);
        assert_eq!(req.strategy, Strategy::Merge);
        assert!(req.trace);
        assert_eq!(req.deadline_ms, Some(50));
    }

    #[test]
    fn eval_options_anchor_the_deadline_at_start() {
        let start = Instant::now();
        let opts = QueryRequest::new("//a[about(., x)]")
            .deadline_ms(5_000)
            .eval_options_from(start);
        let at = opts.deadline.expect("deadline set");
        assert_eq!(at, start + Duration::from_millis(5_000));
        let opts = QueryRequest::new("//a[about(., x)]").eval_options_from(start);
        assert!(opts.deadline.is_none());
    }

    #[test]
    fn response_envelope_renders_versioned_json() {
        let response = QueryResponse {
            answers: vec![Answer {
                element: ElementRef {
                    doc: 3,
                    end: 9,
                    length: 4,
                },
                sid: 7,
                score: 1.5,
            }],
            total_answers: 12,
            strategy: "ta".into(),
            generation: 42,
            cache: CacheStatus::Hit,
            server_time: Duration::from_micros(250),
            trace: None,
        };
        let json = response.to_json();
        assert!(json.starts_with("{\"v\":1,"));
        assert!(json
            .contains("\"answers\":[{\"doc\":3,\"start\":6,\"end\":9,\"sid\":7,\"score\":1.5}]"));
        assert!(json.contains("\"total_answers\":12"));
        assert!(json.contains("\"strategy\":\"ta\""));
        assert!(json.contains("\"generation\":42"));
        assert!(json.contains("\"cache\":\"hit\""));
        assert!(json.contains("\"server_time_us\":250"));
        assert!(!json.contains("\"trace\""));

        // And it parses back as JSON.
        let v = trex_obs::parse_json(&json).unwrap();
        assert_eq!(v.get("v").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(v.get("cache").and_then(|x| x.as_str()), Some("hit"));
    }
}
