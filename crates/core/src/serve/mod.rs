//! The serving layer: the single public query API and its supporting
//! machinery — cooperative deadlines, the generation-keyed result cache,
//! and the wire schema.
//!
//! The types here are transport-agnostic: the HTTP front end and the stdin
//! REPL both sit on [`QueryService`], which is the only place caching and
//! deadline policy live. See `DESIGN.md` ("Serving
//! queries over the wire") for the full picture.

pub mod cache;
pub mod deadline;
pub mod request;
pub mod service;
pub mod wire;

pub use cache::{normalize_nexi, CacheKey, CachedResult, ResultCache, DEFAULT_CACHE_ENTRIES};
pub use deadline::{Deadline, CHECK_INTERVAL};
pub use request::{CacheStatus, QueryRequest, QueryResponse, DEFAULT_K, WIRE_VERSION};
pub use service::QueryService;
pub use wire::{error_body, parse_query_request, render_query_request, WireError};
