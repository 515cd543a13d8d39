//! [`QueryService`] — the one `QueryRequest → QueryResponse` handler.
//!
//! Every front door (HTTP endpoint, stdin REPL) routes through this type,
//! so caching policy, deadline anchoring, and serve metrics are decided in
//! exactly one place. Every service has a cache and metrics; only traced
//! requests bypass the cache.
//!
//! The cache is keyed by `(normalized query, k, strategy, interpretation,
//! maintenance generation)`. Lookups use the *current* generation; inserts
//! use the generation the evaluation actually read its lists under
//! ([`QueryResult::generation`](crate::QueryResult::generation), captured
//! while holding the maintenance read gate). The two differ only when a
//! reconcile commits between lookup and evaluation — the insert then lands
//! on the old generation, where it is correctly unreachable for new
//! lookups. No explicit invalidation exists or is needed: a generation bump
//! makes every older entry unreachable, and LRU ages them out.

use std::sync::Arc;
use std::time::Instant;

use trex_obs::{unix_ms, ServeMetrics, TraceRecord};

use crate::engine::QueryResult;
use crate::partition::PartitionedSystem;
use crate::serve::cache::{normalize_nexi, CacheKey, CachedResult, ResultCache};
use crate::serve::request::{CacheStatus, QueryRequest, QueryResponse};
use crate::{Result, TrexError};

/// Executes [`QueryRequest`]s against a [`PartitionedSystem`] (any
/// partition count; the scatter-gather merge already reproduces
/// single-store answers) through a generation-keyed [`ResultCache`],
/// counting into [`ServeMetrics`]. Cache keys use the system generation
/// (maximum over partitions).
///
/// ```no_run
/// use std::sync::Arc;
/// use trex_core::{PartitionedSystem, QueryRequest, QueryService, ResultCache};
/// use trex_obs::ServeMetrics;
/// # fn demo(system: &PartitionedSystem) -> trex_core::Result<()> {
/// let cache = Arc::new(ResultCache::new(1024));
/// let service = QueryService::new(system, cache, Arc::new(ServeMetrics::new()));
/// let response = service.execute(&QueryRequest::new("//a//s[about(., xml)]").k(5))?;
/// assert!(response.answers.len() <= 5);
/// # Ok(())
/// # }
/// ```
pub struct QueryService<'a> {
    system: &'a PartitionedSystem,
    cache: Arc<ResultCache>,
    metrics: Arc<ServeMetrics>,
}

impl<'a> QueryService<'a> {
    /// A service over `system` answering through `cache` and counting into
    /// `metrics` (both shared: the HTTP workers and the REPL use one of
    /// each).
    pub fn new(
        system: &'a PartitionedSystem,
        cache: Arc<ResultCache>,
        metrics: Arc<ServeMetrics>,
    ) -> QueryService<'a> {
        QueryService {
            system,
            cache,
            metrics,
        }
    }

    /// Ingests one raw XML document, returning the assigned (global) doc id
    /// and the generation after the ingest — the pair the serving layer
    /// reports to the client.
    pub fn ingest(&self, xml: &str) -> std::result::Result<(u32, u64), trex_index::IndexError> {
        let doc_id = self.system.ingest_document(xml)?;
        Ok((doc_id, self.system.generation()))
    }

    /// Executes one request, anchoring its deadline budget now.
    ///
    /// Traced requests bypass the cache in both directions: a replayed
    /// trace would describe work that never happened, and a traced result
    /// must not shadow an untraced one.
    pub fn execute(&self, req: &QueryRequest) -> Result<QueryResponse> {
        self.execute_from(req, Instant::now())
    }

    /// Like [`execute`](QueryService::execute), with the deadline budget
    /// anchored at `started` — the moment the serving layer first saw the
    /// request, so queue wait counts against the budget.
    pub fn execute_from(&self, req: &QueryRequest, started: Instant) -> Result<QueryResponse> {
        let result = self.run(req, started);
        let counters = &self.metrics.counters;
        self.metrics
            .timers
            .request
            .record_duration(started.elapsed());
        if let Err(e) = &result {
            match e {
                TrexError::DeadlineExceeded => counters.deadline_exceeded.incr(),
                TrexError::Parse(_) | TrexError::MissingIndex(_) | TrexError::Unsupported(_) => {
                    counters.parse_errors.incr()
                }
                TrexError::Index(_)
                | TrexError::Workload(_)
                | TrexError::CorpusFull
                | TrexError::Internal(_) => counters.internal_errors.incr(),
            }
        }
        result
    }

    fn run(&self, req: &QueryRequest, started: Instant) -> Result<QueryResponse> {
        let counters = &self.metrics.counters;
        // Trace-context requests bypass for the same reason traced ones do:
        // the span tree must describe work that actually happened.
        if req.trace || req.trace_context.is_some() {
            counters.cache_bypass.incr();
            let result = self.evaluate(req, started)?;
            return Ok(self.respond(result, CacheStatus::Bypass, started));
        }

        let key = CacheKey {
            nexi: normalize_nexi(&req.nexi),
            k: req.k,
            strategy: req.strategy,
            interpretation: req.interpretation,
            generation: self.system.generation(),
        };
        if let Some(cached) = self.cache.get(&key) {
            counters.cache_hits.incr();
            return Ok(QueryResponse {
                answers: cached.answers.clone(),
                total_answers: cached.total_answers,
                strategy: cached.strategy.clone(),
                generation: cached.generation,
                cache: CacheStatus::Hit,
                server_time: started.elapsed(),
                trace: None,
            });
        }

        counters.cache_misses.incr();
        let result = self.evaluate(req, started)?;
        // Key the insert at the generation the evaluation actually read
        // under the gate, not the one looked up above.
        self.cache.insert(
            CacheKey {
                generation: result.generation,
                ..key
            },
            Arc::new(CachedResult {
                answers: result.answers.clone(),
                total_answers: result.total_answers,
                strategy: result.stats.name().to_string(),
                generation: result.generation,
            }),
        );
        Ok(self.respond(result, CacheStatus::Miss, started))
    }

    fn evaluate(&self, req: &QueryRequest, started: Instant) -> Result<QueryResult> {
        let opts = req.eval_options_from(started);
        let result = self.system.evaluate(&req.nexi, opts)?;
        // File the assembled span tree under the request's trace id so
        // `/v1/trace/<id>` can serve it after the response has gone out.
        if let (Some(ctx), Some(root)) = (req.trace_context, &result.trace_tree) {
            self.metrics.traces.insert(TraceRecord {
                trace_id: ctx.trace_id,
                unix_ms: unix_ms(),
                root: root.clone(),
            });
        }
        Ok(result)
    }

    fn respond(&self, result: QueryResult, cache: CacheStatus, started: Instant) -> QueryResponse {
        QueryResponse {
            answers: result.answers,
            total_answers: result.total_answers,
            strategy: result.stats.name().to_string(),
            generation: result.generation,
            cache,
            server_time: started.elapsed(),
            trace: result.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TestSystem;

    fn build(name: &str) -> TestSystem {
        let docs: Vec<String> = (0..8)
            .map(|i| format!("<a><s>cat dog xml w{i}</s><s>bird w{i}</s></a>"))
            .collect();
        TestSystem::build(&format!("service-{name}"), 1, &docs)
    }

    fn service(system: &TestSystem) -> (QueryService<'_>, Arc<ResultCache>, Arc<ServeMetrics>) {
        let cache = Arc::new(ResultCache::new(16));
        let metrics = Arc::new(ServeMetrics::new());
        let service = QueryService::new(system, Arc::clone(&cache), Arc::clone(&metrics));
        (service, cache, metrics)
    }

    #[test]
    fn repeat_query_hits_the_cache_with_identical_answers() {
        let system = build("hit");
        let (service, _, metrics) = service(&system);

        let req = QueryRequest::new("//a//s[about(., cat)]").k(Some(5));
        let first = service.execute(&req).unwrap();
        assert_eq!(first.cache, CacheStatus::Miss);
        let second = service.execute(&req).unwrap();
        assert_eq!(second.cache, CacheStatus::Hit);
        assert_eq!(second.answers, first.answers);
        assert_eq!(second.strategy, first.strategy);
        assert_eq!(second.generation, first.generation);

        // A whitespace/case variant of the same query also hits.
        let variant = QueryRequest::new("  //a//s[about(.,   CAT)] ").k(Some(5));
        assert_eq!(service.execute(&variant).unwrap().cache, CacheStatus::Hit);

        let snap = metrics.counters.snapshot();
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.cache_bypass, 0);
    }

    #[test]
    fn traced_requests_bypass_the_cache() {
        let system = build("bypass");
        let (service, cache, metrics) = service(&system);

        // Traced request: bypass, and nothing inserted.
        let traced = QueryRequest::new("//a//s[about(., cat)]").trace(true);
        let response = service.execute(&traced).unwrap();
        assert_eq!(response.cache, CacheStatus::Bypass);
        assert!(response.trace.is_some());
        assert!(cache.is_empty());
        assert_eq!(metrics.counters.snapshot().cache_bypass, 1);

        // The same query untraced goes through the cache.
        let plain = QueryRequest::new("//a//s[about(., cat)]");
        assert_eq!(service.execute(&plain).unwrap().cache, CacheStatus::Miss);
        assert_eq!(metrics.counters.snapshot().cache_bypass, 1);
    }

    #[test]
    fn different_k_or_strategy_are_distinct_entries() {
        let system = build("keys");
        let (service, _, _) = service(&system);
        let base = QueryRequest::new("//a//s[about(., cat)]");
        assert_eq!(
            service.execute(&base.clone().k(Some(3))).unwrap().cache,
            CacheStatus::Miss
        );
        assert_eq!(
            service.execute(&base.clone().k(Some(7))).unwrap().cache,
            CacheStatus::Miss
        );
        assert_eq!(
            service.execute(&base.k(Some(3))).unwrap().cache,
            CacheStatus::Hit
        );
    }

    #[test]
    fn errors_count_into_the_right_buckets() {
        let system = build("errors");
        let (service, _, metrics) = service(&system);

        let malformed = QueryRequest::new("//a//s[about(., )]]]");
        assert!(service.execute(&malformed).is_err());

        let expired = QueryRequest::new("//a//s[about(., cat)]").deadline_ms(0);
        match service.execute(&expired) {
            Err(TrexError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }

        let snap = metrics.counters.snapshot();
        assert_eq!(snap.parse_errors, 1);
        assert_eq!(snap.deadline_exceeded, 1);
        assert_eq!(snap.internal_errors, 0);
    }
}
