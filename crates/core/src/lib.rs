//! # trex-core
//!
//! The primary contribution of *Self Managing Top-k (Summary, Keyword)
//! Indexes in XML Retrieval* (ICDE 2007): the three retrieval strategies —
//! [`mod@era`] (Fig. 2), [`mod@ta`] (§3.3, with the instrumented-heap ITA
//! variant) and [`mod@merge`] (Fig. 3) — the strategy-choosing [`engine`],
//! the redundant-list [`mod@materialize`]r, and the [`selfmanage`] advisor
//! that decides, for a
//! workload and a disk budget, which RPL/ERPL lists to keep (boolean LP of
//! §4.1 and the greedy 2-approximation of §4.2).

pub mod answer;
pub mod engine;
pub mod era;
pub mod heap;
pub mod ingest;
pub mod materialize;
pub mod merge;
pub mod metrics;
pub mod partition;
mod scoped;
pub mod selfmanage;
pub mod serve;
pub mod ta;
#[cfg(test)]
mod testing;
mod worker;

use std::fmt;

/// The observability primitives (counters, snapshots, [`obs::QueryTrace`]),
/// re-exported so downstream crates need not depend on `trex-obs` directly.
pub use trex_obs as obs;

pub use answer::{rank, top_k, Answer};
pub use engine::{EvalOptions, Explain, QueryEngine, QueryResult, Strategy, StrategyStats};
pub use era::{era, EraMatch, EraStats};
pub use heap::{HeapClock, TopKHeap};
pub use ingest::{fold_once, FoldManager, FoldOptions, FoldReport};
pub use materialize::{collect_lists, materialize, materialize_batch, ListKind, ScoredLists};
pub use merge::{merge, MergeStats};
pub use metrics::StrategyMetrics;
pub use partition::{
    advise, merge_topk, partition_store_path, reconcile_partitioned, split_budget, Partition,
    PartitionBudget, PartitionedCycle, PartitionedSystem,
};
pub use selfmanage::cost::{predicted_merge_accesses, predicted_ta_accesses, TA_PREDICTION_FACTOR};
pub use selfmanage::{
    cycle_record, reconcile_once, reconcile_workload, Choice, CostCache, ManagerHooks,
    ProfilerConfig, QueryCost, ReconcileReport, Selection, SelectionMethod, SelfManageOptions,
    SelfManager, Workload, WorkloadProfiler, WorkloadQuery,
};
pub use serve::{
    normalize_nexi, parse_query_request, CacheKey, CacheStatus, CachedResult, Deadline,
    QueryRequest, QueryResponse, QueryService, ResultCache, WireError, DEFAULT_CACHE_ENTRIES,
};
pub use ta::{ta, TaOptions, TaStats, TA_MAX_TERMS};
pub use worker::BackgroundWorker;

/// Errors from query evaluation.
#[derive(Debug)]
pub enum TrexError {
    /// The NEXI query failed to parse.
    Parse(trex_nexi::ParseError),
    /// An index / storage failure.
    Index(trex_index::IndexError),
    /// A strategy was requested whose redundant indexes are missing.
    MissingIndex(String),
    /// The query exceeds a hard engine limit (e.g. TA's 64-term bitmask).
    Unsupported(String),
    /// The workload definition was invalid.
    Workload(selfmanage::WorkloadError),
    /// The query's [`EvalOptions::deadline`] passed before evaluation
    /// finished; the strategies poll it cooperatively at iteration
    /// boundaries, so the query stopped within one check window. Maps to
    /// HTTP 408 at the serving surface, and is always retryable (with a
    /// larger budget).
    DeadlineExceeded,
    /// Live ingestion has allocated every representable document id
    /// (`u32::MAX` is the `m-pos` sentinel and is never assigned); the
    /// collection must be rebuilt to accept more documents. Not retryable.
    CorpusFull,
    /// A partition's scatter thread panicked while evaluating this query.
    /// The panic is caught at the scatter boundary so it cannot tear down
    /// the other partitions' threads; the payload's message is preserved
    /// here.
    Internal(String),
}

impl fmt::Display for TrexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrexError::Parse(e) => write!(f, "{e}"),
            TrexError::Index(e) => write!(f, "{e}"),
            TrexError::MissingIndex(what) => write!(f, "missing index: {what}"),
            TrexError::Unsupported(what) => write!(f, "unsupported query: {what}"),
            TrexError::Workload(e) => write!(f, "{e}"),
            TrexError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            TrexError::CorpusFull => {
                write!(f, "document id space exhausted; rebuild to ingest more")
            }
            TrexError::Internal(what) => write!(f, "internal error: {what}"),
        }
    }
}

impl std::error::Error for TrexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrexError::Parse(e) => Some(e),
            TrexError::Index(e) => Some(e),
            TrexError::MissingIndex(_) => None,
            TrexError::Unsupported(_) => None,
            TrexError::Workload(e) => Some(e),
            TrexError::DeadlineExceeded => None,
            TrexError::CorpusFull => None,
            TrexError::Internal(_) => None,
        }
    }
}

impl From<trex_index::IndexError> for TrexError {
    fn from(e: trex_index::IndexError) -> Self {
        match e {
            trex_index::IndexError::DocIdsExhausted => TrexError::CorpusFull,
            e => TrexError::Index(e),
        }
    }
}

impl From<trex_storage::StorageError> for TrexError {
    fn from(e: trex_storage::StorageError) -> Self {
        TrexError::Index(trex_index::IndexError::Storage(e))
    }
}

impl From<selfmanage::WorkloadError> for TrexError {
    fn from(e: selfmanage::WorkloadError) -> Self {
        TrexError::Workload(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, TrexError>;
