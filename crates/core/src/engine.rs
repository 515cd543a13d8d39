//! The query engine: translation + strategy selection + evaluation.
//!
//! "TReX evaluates a given query by choosing a method from the three
//! evaluation methods" (paper §4). ERA can always run; TA needs the query's
//! RPLs, Merge its ERPLs. `Strategy::Auto` picks the cheapest *available*
//! method with the paper's observed preferences: TA for small k when RPLs
//! exist, Merge when ERPLs exist, ERA as the fallback.

use std::time::{Duration, Instant};

use trex_nexi::{parse, translate, Interpretation, Translation, TranslationContext};
use trex_obs::{DriftKind, QueryTrace, SlowQuery, StageTimings, TraceContext, TraceNode};
use trex_text::Analyzer;

use trex_index::{ListFamily, ListTable, TrexIndex};

use crate::answer::{top_k, Answer};
use crate::era::{era, EraStats};
use crate::merge::{merge, MergeStats};
use crate::metrics::StrategyMetrics;
use crate::selfmanage::cost::{
    predicted_merge_accesses, predicted_merge_block_reads, predicted_ta_accesses,
    predicted_ta_block_reads,
};
use crate::selfmanage::profiler::WorkloadProfiler;
use crate::serve::Deadline;
use crate::ta::{ta, TaOptions, TaStats, TA_MAX_TERMS};
use crate::{Result, TrexError};

/// Which retrieval method to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// Exhaustive retrieval over Elements + PostingLists.
    Era,
    /// Threshold algorithm over RPLs.
    Ta,
    /// Merge over ERPLs.
    Merge,
    /// Pick automatically based on available indexes and k.
    #[default]
    Auto,
}

impl Strategy {
    /// The wire/CLI name of this strategy (`"era"`, `"ta"`, `"merge"`,
    /// `"auto"`). Inverse of the [`FromStr`] impl.
    ///
    /// [`FromStr`]: std::str::FromStr
    pub fn as_str(&self) -> &'static str {
        match self {
            Strategy::Era => "era",
            Strategy::Ta => "ta",
            Strategy::Merge => "merge",
            Strategy::Auto => "auto",
        }
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    /// Parses the wire/CLI names, case-insensitively.
    fn from_str(s: &str) -> std::result::Result<Strategy, String> {
        match s.to_ascii_lowercase().as_str() {
            "era" => Ok(Strategy::Era),
            "ta" => Ok(Strategy::Ta),
            "merge" => Ok(Strategy::Merge),
            "auto" => Ok(Strategy::Auto),
            other => Err(format!(
                "unknown strategy {other:?}; expected era, ta, merge or auto"
            )),
        }
    }
}

/// The strategy actually used plus its execution statistics.
#[derive(Debug, Clone)]
pub enum StrategyStats {
    /// ERA ran (with post-scoring time included in `EraStats::wall`).
    Era(EraStats),
    /// TA ran.
    Ta(TaStats),
    /// Merge ran.
    Merge(MergeStats),
    /// The query was scattered across a partitioned system and the
    /// per-partition streams k-way merged (see `crate::partition`).
    Scatter {
        /// Number of partitions evaluated.
        partitions: usize,
        /// Each partition's own strategy statistics, in partition order
        /// (partitions resolve strategies independently — one may run TA
        /// while another falls back to ERA).
        per_part: Vec<StrategyStats>,
        /// Wall-clock time of the whole scatter-gather (slowest partition
        /// plus merge).
        wall: Duration,
    },
}

impl StrategyStats {
    /// Wall-clock time of the evaluation.
    pub fn wall(&self) -> Duration {
        match self {
            StrategyStats::Era(s) => s.wall,
            StrategyStats::Ta(s) => s.wall,
            StrategyStats::Merge(s) => s.wall,
            StrategyStats::Scatter { wall, .. } => *wall,
        }
    }

    /// The strategy that produced these stats, as a trace label.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyStats::Era(_) => "era",
            StrategyStats::Ta(_) => "ta",
            StrategyStats::Merge(_) => "merge",
            StrategyStats::Scatter { .. } => "scatter",
        }
    }
}

/// The result of evaluating a query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Ranked answers (top-k, or all answers when `k` was `None`).
    pub answers: Vec<Answer>,
    /// Total number of answers the query has (known exactly for ERA/Merge;
    /// for TA it is the number of answers returned).
    pub total_answers: usize,
    /// The translation the evaluation used.
    pub translation: Translation,
    /// Which strategy ran, with statistics.
    pub stats: StrategyStats,
    /// The query's observability trace (stage timings, storage / index /
    /// cost-model counter deltas); present when the query ran with
    /// [`EvalOptions::trace`] enabled.
    pub trace: Option<QueryTrace>,
    /// The maintenance generation the evaluation read its lists under
    /// (captured while holding the read gate, so it is exact). A repeat
    /// query is answerable from cache iff the current generation still
    /// equals this one — the serving layer's invalidation key.
    pub generation: u64,
    /// The span tree of this evaluation; present when the query ran under
    /// a [`TraceContext`] (request tracing). For partitioned evaluations
    /// the scatter layer grafts each partition's tree under one root (see
    /// `crate::partition`).
    pub trace_tree: Option<TraceNode>,
}

/// Options for [`QueryEngine::evaluate`], assembled fluently:
///
/// ```
/// use trex_core::{EvalOptions, Strategy};
///
/// let opts = EvalOptions::new().k(10).strategy(Strategy::Auto).trace(true);
/// assert_eq!(opts.k, Some(10));
/// ```
///
/// The struct is `#[non_exhaustive]`: construct it with [`EvalOptions::new`]
/// and the setters, so new knobs (trace today; timeouts, budgets tomorrow)
/// are not breaking changes at every call site. Fields stay `pub` for
/// reading.
#[non_exhaustive]
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Top-k limit; `None` returns all answers.
    pub k: Option<usize>,
    /// Strategy selection.
    pub strategy: Strategy,
    /// Structural interpretation (vague by default).
    pub interpretation: Interpretation,
    /// Measure heap time in TA (for ITA curves).
    pub measure_heap: bool,
    /// Attach a [`QueryTrace`] to the result. The underlying counters are
    /// always maintained; this toggle only controls snapshotting and stage
    /// timing, so leaving it off costs nothing measurable.
    pub trace: bool,
    /// Absolute evaluation deadline. The strategies poll it cooperatively
    /// at their iteration boundaries (every
    /// [`serve::deadline::CHECK_INTERVAL`](crate::serve::deadline::CHECK_INTERVAL)
    /// units of work); an expired query fails with
    /// [`TrexError::DeadlineExceeded`] instead of running to completion.
    pub deadline: Option<Instant>,
    /// Request-tracing identity from the serving layer. When set, the
    /// evaluation builds its span tree into
    /// [`QueryResult::trace_tree`] (and feeds the cost-model drift monitor)
    /// even if [`EvalOptions::trace`] is off.
    pub trace_context: Option<TraceContext>,
}

impl EvalOptions {
    /// Defaults: all answers, automatic strategy, vague interpretation, no
    /// heap measurement, no trace.
    pub fn new() -> EvalOptions {
        EvalOptions {
            k: None,
            strategy: Strategy::Auto,
            interpretation: Interpretation::default(),
            measure_heap: false,
            trace: false,
            deadline: None,
            trace_context: None,
        }
    }

    /// Sets the top-k limit. Accepts a bare `usize` or an `Option` (where
    /// `None` means all answers).
    pub fn k(mut self, k: impl Into<Option<usize>>) -> EvalOptions {
        self.k = k.into();
        self
    }

    /// Sets the strategy.
    pub fn strategy(mut self, strategy: Strategy) -> EvalOptions {
        self.strategy = strategy;
        self
    }

    /// Sets the structural interpretation.
    pub fn interpretation(mut self, interpretation: Interpretation) -> EvalOptions {
        self.interpretation = interpretation;
        self
    }

    /// Enables/disables TA heap-time measurement.
    pub fn measure_heap(mut self, on: bool) -> EvalOptions {
        self.measure_heap = on;
        self
    }

    /// Enables/disables the per-query [`QueryTrace`].
    pub fn trace(mut self, on: bool) -> EvalOptions {
        self.trace = on;
        self
    }

    /// Sets an absolute deadline (or clears it with `None`).
    pub fn deadline_at(mut self, at: impl Into<Option<Instant>>) -> EvalOptions {
        self.deadline = at.into();
        self
    }

    /// Sets a deadline `budget` from now.
    pub fn deadline_in(mut self, budget: Duration) -> EvalOptions {
        self.deadline = Instant::now().checked_add(budget);
        self
    }

    /// Attaches (or clears) the request-tracing identity.
    pub fn trace_context(mut self, ctx: impl Into<Option<TraceContext>>) -> EvalOptions {
        self.trace_context = ctx.into();
        self
    }
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions::new()
    }
}

/// A query plan description: what translation produced, which redundant
/// indexes exist, and which strategy `Auto` would run.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The translation (sids, terms, clauses, unknown terms).
    pub translation: Translation,
    /// Per-sid extent descriptions as XPath (paper §2.1).
    pub extents: Vec<(trex_summary::Sid, String, u64)>,
    /// Per-term text and collection statistics.
    pub terms: Vec<(trex_text::TermId, String, u64)>,
    /// Whether every (term, sid) RPL is materialised (TA is possible).
    pub rpls_available: bool,
    /// Whether every (term, sid) ERPL is materialised (Merge is possible).
    pub erpls_available: bool,
    /// The strategy `Auto` would choose for the given k.
    pub chosen: Strategy,
}

/// Evaluates NEXI queries against a [`TrexIndex`].
///
/// Constructing or cloning one is free (two references and an [`Analyzer`]
/// config struct), so [`Partition::engine`](crate::Partition::engine) makes
/// one per query.
#[derive(Clone)]
pub struct QueryEngine<'a> {
    index: &'a TrexIndex,
    analyzer: Analyzer,
    /// Online workload observer; when attached, every top-k evaluation is
    /// recorded (lock-cheap) so the self-manager can derive the live
    /// workload.
    profiler: Option<&'a WorkloadProfiler>,
}

// The partition scatter runs engines on scoped worker threads, so
// losing either auto-trait (say, by giving the engine an `Rc` or `Cell`
// field) must be a compile error here rather than a surprise in `scoped.rs`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryEngine<'static>>();
    assert_send_sync::<EvalOptions>();
};

impl<'a> QueryEngine<'a> {
    /// An engine over `index` using the analyzer the index was built with
    /// (persisted in the catalog).
    pub fn new(index: &'a TrexIndex) -> QueryEngine<'a> {
        QueryEngine {
            index,
            analyzer: index.analyzer(),
            profiler: None,
        }
    }

    /// Attaches a workload profiler: every subsequent [`evaluate`] with a
    /// concrete `k` feeds the profiler's frequency sketch, and `Auto`
    /// evaluations that fall back to ERA for lack of lists are counted in
    /// the profiler's [`SelfManageCounters`] (an [`explain`] is not).
    ///
    /// [`evaluate`]: QueryEngine::evaluate
    /// [`explain`]: QueryEngine::explain
    /// [`SelfManageCounters`]: trex_obs::SelfManageCounters
    pub fn with_profiler(mut self, profiler: &'a WorkloadProfiler) -> QueryEngine<'a> {
        self.profiler = Some(profiler);
        self
    }

    /// The index this engine evaluates over.
    pub fn index(&self) -> &'a TrexIndex {
        self.index
    }

    /// Parses and translates `nexi` without evaluating it.
    pub fn translate(&self, nexi: &str, interpretation: Interpretation) -> Result<Translation> {
        let query = parse(nexi).map_err(TrexError::Parse)?;
        let ctx = TranslationContext {
            summary: self.index.summary(),
            alias: self.index.alias(),
            dictionary: self.index.dictionary(),
            analyzer: &self.analyzer,
            interpretation,
        };
        Ok(translate(&query, &ctx))
    }

    /// Describes how `nexi` would be evaluated, without evaluating it.
    pub fn explain(&self, nexi: &str, opts: EvalOptions) -> Result<Explain> {
        let translation = self.translate(nexi, opts.interpretation)?;
        let summary = self.index.summary();
        let extents = translation
            .sids
            .iter()
            .map(|&sid| {
                (
                    sid,
                    summary.extent_xpath(sid),
                    summary.node(sid).extent_size,
                )
            })
            .collect();
        let mut terms = Vec::with_capacity(translation.terms.len());
        for &term in &translation.terms {
            let text = self
                .index
                .dictionary()
                .term(term)
                .unwrap_or("<unknown>")
                .to_string();
            let stats = self.index.term_stats(term)?;
            terms.push((term, text, stats.cf));
        }
        // One gate acquisition across both coverage checks and the strategy
        // resolution, so the explanation reflects a single list generation.
        let gate = self.index.maintenance().enter_read();
        let rpls_available = self
            .index
            .rpls()?
            .covers(&translation.sids, &translation.terms)?;
        let erpls_available = self
            .index
            .erpls()?
            .covers(&translation.sids, &translation.terms)?;
        let chosen = self.resolve_strategy(
            opts.strategy(Strategy::Auto),
            &translation.sids,
            &translation.terms,
        )?;
        drop(gate);
        Ok(Explain {
            translation,
            extents,
            terms,
            rpls_available,
            erpls_available,
            chosen,
        })
    }

    /// Evaluates `nexi` with the given options.
    pub fn evaluate(&self, nexi: &str, opts: EvalOptions) -> Result<QueryResult> {
        // The query's clock starts before translation, so the root "query"
        // span covers the whole query lifetime, translate included.
        let started = Instant::now();
        let translation = self.translate(nexi, opts.interpretation)?;
        let translate_time = started.elapsed();
        self.evaluate_staged(Some(nexi), translation, opts, started, Some(translate_time))
    }

    /// Evaluates an already-translated query (its trace, if requested,
    /// reports a zero translate stage, and its span tree has no `translate`
    /// span). Bypasses the workload profiler — it has no query text to
    /// record.
    pub fn evaluate_translated(
        &self,
        translation: Translation,
        opts: EvalOptions,
    ) -> Result<QueryResult> {
        self.evaluate_staged(None, translation, opts, Instant::now(), None)
    }

    /// The shared evaluation path; `started` is the query clock's start
    /// (the root span's begin), `translate_time` the already-spent
    /// translation wall-clock (`None` for a pre-translated query), and
    /// `nexi` the original query text when known (for workload profiling).
    fn evaluate_staged(
        &self,
        nexi: Option<&str>,
        translation: Translation,
        opts: EvalOptions,
        started: Instant,
        translate_time: Option<Duration>,
    ) -> Result<QueryResult> {
        if !self.index.summary().is_nesting_free() {
            // "TReX uses only summaries in which there are no two XML
            // elements in the same extent where one encapsulates the other"
            // (§2.1) — ERA's per-extent cursor assumes it, and the redundant
            // lists are built from ERA.
            return Err(TrexError::MissingIndex(
                "the index's summary has nested extents; rebuild with an incoming (or larger-k suffix) summary to evaluate queries"
                    .into(),
            ));
        }
        let sids = &translation.sids;
        let terms = &translation.terms;
        let telemetry = self.index.telemetry();
        // Hold the maintenance gate for the whole evaluation: the coverage
        // checks in `resolve_strategy` and the list reads of the chosen
        // strategy see one consistent generation of redundant lists, even
        // while a reconcile cycle rewrites them on another thread. (The gate
        // itself records the wait into `maint.read_gate_wait`.)
        let _gate = self.index.maintenance().enter_read();
        let gate_acquired = Instant::now();
        // The list-set epoch this evaluation reads under; exact because the
        // gate is held. Doubles as the serving layer's cache key component.
        let generation = self.index.maintenance().generation();
        // One up-front poll catches queries that arrived already
        // over-budget (or spent their budget waiting at the gate) before
        // any list work starts; the strategies poll cooperatively from here.
        let deadline = Deadline::from_opt(opts.deadline);
        deadline.check()?;
        let strategy = self.resolve_strategy(opts, sids, terms)?;
        if opts.strategy == Strategy::Auto
            && strategy == Strategy::Era
            && !sids.is_empty()
            && !terms.is_empty()
        {
            // Redundant lists could have served this query but were absent
            // (e.g. mid-reconcile, or not yet selected). Counted here, not
            // in `resolve_strategy`, so `explain` counts nothing.
            if let Some(profiler) = self.profiler {
                profiler.counters().era_fallbacks.incr();
            }
        }

        // Counter snapshots bracket the whole evaluation; the deltas are the
        // storage / index work attributable to this query (exact when the
        // index is otherwise idle). The slow-query log needs a trace too, so
        // snapshots are also taken whenever a query could qualify as slow.
        // The drift monitor piggybacks on the same snapshots: every traced
        // query feeds it, and 1-in-N untraced queries are sampled so the
        // cost model stays continuously checked under plain traffic.
        let slow_armed = telemetry.slow.threshold_ns() != u64::MAX;
        let explicit_trace = opts.trace || opts.trace_context.is_some();
        let drift_sampled = !explicit_trace
            && matches!(strategy, Strategy::Ta | Strategy::Merge)
            && telemetry.drift.should_sample();
        let want_trace = explicit_trace || slow_armed || drift_sampled;
        let before = if want_trace {
            Some((
                self.index.store().counters().snapshot(),
                self.index.counters().snapshot(),
            ))
        } else {
            None
        };

        let mut rank_time = Duration::ZERO;
        let eval_started = Instant::now();
        let (mut answers, mut total, stats) = match strategy {
            Strategy::Era => {
                let (answers, stats) = self.run_era(sids, terms, deadline)?;
                let total = answers.len();
                let rank_started = Instant::now();
                let answers = match opts.k {
                    Some(k) => top_k(answers, k),
                    None => top_k(answers, usize::MAX),
                };
                rank_time = rank_started.elapsed();
                (answers, total, StrategyStats::Era(stats))
            }
            Strategy::Ta => {
                let k = opts.k.unwrap_or(usize::MAX);
                let rpls = self.index.rpls()?;
                let mut ta_opts = TaOptions::new(k);
                ta_opts.measure_heap = opts.measure_heap;
                let (answers, stats) = ta(&rpls, sids, terms, ta_opts, deadline)?;
                let total = answers.len();
                (answers, total, StrategyStats::Ta(stats))
            }
            Strategy::Merge => {
                let erpls = self.index.erpls()?;
                let (mut answers, stats) = merge(&erpls, sids, terms, deadline)?;
                let total = answers.len();
                let rank_started = Instant::now();
                if let Some(k) = opts.k {
                    answers.truncate(k);
                }
                rank_time = rank_started.elapsed();
                (answers, total, StrategyStats::Merge(stats))
            }
            Strategy::Auto => unreachable!("resolved above"),
        };

        // Delta∪disk combine: documents ingested since the last fold are
        // invisible to every on-disk strategy, so their matches are folded
        // in here. Scoring goes through the same `TrexIndex::score` path as
        // ERA's (the delta carries exact per-term frequencies), so the
        // combined ranking is what ERA would produce after a fold — the
        // merge is rank-safe for TA too, because any union-top-k element is
        // either a delta match or already inside TA's disk top-k. The read
        // gate is still held, so the delta cannot change mid-combine and
        // `generation` keys the cache correctly.
        let delta = self.index.delta();
        if !delta.is_empty() {
            let rank_started = Instant::now();
            let matches = delta.matches(sids, terms);
            if !matches.is_empty() {
                let added = matches.len();
                for m in matches {
                    let mut score = 0.0f32;
                    for (j, &term) in terms.iter().enumerate() {
                        if m.tf[j] > 0 {
                            score += self.index.score(m.tf[j], term, m.element.length)?;
                        }
                    }
                    answers.push(Answer {
                        element: m.element,
                        sid: m.sid,
                        score,
                    });
                }
                answers = top_k(answers, opts.k.unwrap_or(usize::MAX));
                total = match &stats {
                    // TA reports only what it returned; keep that convention
                    // for the combined result.
                    StrategyStats::Ta(_) => answers.len(),
                    _ => total + added,
                };
            }
            rank_time += rank_started.elapsed();
        }

        let eval_elapsed = eval_started.elapsed();
        let evaluate_time = eval_elapsed.saturating_sub(rank_time);
        // The root span ends where evaluation does, so it covers translate,
        // gate wait, evaluate and rank.
        let total_time = eval_started.duration_since(started) + eval_elapsed;
        let translate = translate_time.unwrap_or_default();

        let trace = before.map(|(storage0, index0)| QueryTrace {
            strategy: stats.name().to_string(),
            stages: StageTimings {
                translate,
                evaluate: evaluate_time,
                rank: rank_time,
            },
            storage: self.index.store().counters().snapshot().delta(&storage0),
            index: self.index.counters().snapshot().delta(&index0),
            cost: stats.cost_units(),
        });

        // Cost-model drift: compare the §4 predictions against this query's
        // actual access counts. The read gate is still held, so the list stats
        // describe exactly the generation the query evaluated under.
        if (explicit_trace || drift_sampled) && matches!(strategy, Strategy::Ta | Strategy::Merge) {
            if let Some(trace) = &trace {
                if let Err(e) = self.observe_drift(strategy, sids, terms, opts.k, trace) {
                    // Drift is observability; a racing list drop must not
                    // fail the query that already produced its answers.
                    let _ = e;
                }
            }
        }

        // Latency histograms, from the stage durations measured above.
        let timers = &telemetry.query;
        timers.translate.record_duration(translate);
        timers.rank.record_duration(rank_time);
        timers.query.record_duration(total_time);
        let per_strategy = match &stats {
            StrategyStats::Era(_) => &timers.era_eval,
            StrategyStats::Ta(_) => &timers.ta_eval,
            StrategyStats::Merge(_) => &timers.merge_eval,
            // Scatter stats are assembled in `crate::partition` from
            // per-partition results; they never come out of a single
            // engine's evaluation.
            StrategyStats::Scatter { .. } => unreachable!("scatter is built above the engine"),
        };
        per_strategy.record_duration(evaluate_time);

        if let (Some(profiler), Some(nexi)) = (self.profiler, nexi) {
            // Record only after a successful evaluation: failed queries are
            // not workload the self-manager should optimise for.
            profiler.record(nexi, sids, terms, opts.k);
        }

        // Slow-query / trace capture: the span tree is built only when a
        // reader wants it — once, shared by the slow log and the request
        // trace. The trace was built above whenever capture was possible.
        let total_ns = u64::try_from(total_time.as_nanos()).unwrap_or(u64::MAX);
        let slow_hit = slow_armed && telemetry.slow.qualifies(total_ns);
        let want_tree = opts.trace_context.is_some();
        let trace_tree = (want_tree || slow_hit).then(|| {
            span_tree(
                stats.name(),
                started,
                translate_time,
                gate_acquired,
                eval_started,
                evaluate_time + rank_time,
            )
        });
        if slow_hit {
            telemetry.slow.record(SlowQuery {
                query: nexi.unwrap_or("<pre-translated>").to_string(),
                strategy: stats.name().to_string(),
                total: total_time,
                trace: trace.clone().unwrap_or_default(),
                tree: trace_tree.clone().unwrap_or_default(),
                trace_id: opts.trace_context.map(|c| c.trace_id),
            });
        }

        Ok(QueryResult {
            answers,
            total_answers: total,
            translation,
            stats,
            trace: if opts.trace { trace } else { None },
            generation,
            trace_tree: trace_tree.filter(|_| want_tree),
        })
    }

    /// Feeds the cost-model drift monitor from one traced TA or Merge query:
    /// reads each touched list's (entries, blocks) stats under the read gate
    /// already held by the caller and compares the §4 predictions against
    /// the trace's measured access counters.
    fn observe_drift(
        &self,
        strategy: Strategy,
        sids: &[trex_summary::Sid],
        terms: &[trex_text::TermId],
        k: Option<usize>,
        trace: &QueryTrace,
    ) -> Result<()> {
        let telemetry = self.index.telemetry();
        let drift = &telemetry.drift;
        let k = k.unwrap_or(usize::MAX);
        match strategy {
            Strategy::Ta => {
                let lists = list_sizes(&self.index.rpls()?, sids, terms)?;
                if lists.is_empty() {
                    return Ok(());
                }
                let entries: Vec<u64> = lists.iter().map(|&(e, _)| e).collect();
                drift.observe(
                    DriftKind::TaEntries,
                    predicted_ta_accesses(&entries, k),
                    trace.cost.sorted_accesses + trace.cost.random_accesses,
                );
                drift.observe(
                    DriftKind::TaBlocks,
                    predicted_ta_block_reads(&lists, k),
                    trace.index.rpl_blocks,
                );
            }
            Strategy::Merge => {
                let lists = list_sizes(&self.index.erpls()?, sids, terms)?;
                if lists.is_empty() {
                    return Ok(());
                }
                let entries: Vec<u64> = lists.iter().map(|&(e, _)| e).collect();
                let blocks: Vec<u64> = lists.iter().map(|&(_, b)| b).collect();
                drift.observe(
                    DriftKind::MergeEntries,
                    predicted_merge_accesses(&entries) as f64,
                    trace.cost.sorted_accesses + trace.cost.random_accesses,
                );
                drift.observe(
                    DriftKind::MergeBlocks,
                    predicted_merge_block_reads(&blocks) as f64,
                    trace.index.erpl_blocks,
                );
            }
            _ => {}
        }
        Ok(())
    }

    /// ERA plus scoring of the matches (ERA itself returns tf vectors).
    fn run_era(
        &self,
        sids: &[trex_summary::Sid],
        terms: &[trex_text::TermId],
        deadline: Deadline,
    ) -> Result<(Vec<Answer>, EraStats)> {
        let started = std::time::Instant::now();
        let elements = self.index.elements()?;
        let postings = self.index.postings()?;
        let (matches, mut stats) = era(&elements, &postings, sids, terms, deadline)?;
        let mut answers = Vec::with_capacity(matches.len());
        for m in matches {
            let mut score = 0.0f32;
            for (j, &term) in terms.iter().enumerate() {
                if m.tf[j] > 0 {
                    score += self.index.score(m.tf[j], term, m.element.length)?;
                }
            }
            answers.push(Answer {
                element: m.element,
                sid: m.sid,
                score,
            });
        }
        stats.wall = started.elapsed();
        Ok((answers, stats))
    }

    fn resolve_strategy(
        &self,
        opts: EvalOptions,
        sids: &[trex_summary::Sid],
        terms: &[trex_text::TermId],
    ) -> Result<Strategy> {
        match opts.strategy {
            Strategy::Auto => {
                let has_rpls = self.index.rpls()?.covers(sids, terms)?;
                let has_erpls = self.index.erpls()?.covers(sids, terms)?;
                // Paper §5.2: TA wins only for very small k; Merge dominates
                // otherwise. ERA is the universal fallback. TA is off the
                // table entirely beyond its 64-term bitmask — Auto must
                // degrade, not error.
                let ta_possible = has_rpls && terms.len() <= TA_MAX_TERMS;
                let small_k = matches!(opts.k, Some(k) if k <= 10);
                let chosen = if small_k && ta_possible {
                    Strategy::Ta
                } else if has_erpls {
                    Strategy::Merge
                } else if ta_possible {
                    Strategy::Ta
                } else {
                    Strategy::Era
                };
                Ok(chosen)
            }
            Strategy::Ta => {
                if !self.index.rpls()?.covers(sids, terms)? {
                    return Err(TrexError::MissingIndex(
                        "TA requires the query's RPL lists; materialise them first".into(),
                    ));
                }
                Ok(Strategy::Ta)
            }
            Strategy::Merge => {
                if !self.index.erpls()?.covers(sids, terms)? {
                    return Err(TrexError::MissingIndex(
                        "Merge requires the query's ERPL lists; materialise them first".into(),
                    ));
                }
                Ok(Strategy::Merge)
            }
            Strategy::Era => Ok(Strategy::Era),
        }
    }
}

/// One query's span tree, read off the instants and stage durations the
/// engine's own clock measured: `query` → `translate` (absent for a
/// pre-translated query) / `gate_wait` / `evaluate:<strategy>`, offsets
/// from `started`. `translate` and `evaluate` (evaluate + rank) are the
/// very durations the query's [`StageTimings`] report, so the tree and the
/// trace agree to the microsecond.
fn span_tree(
    strategy: &str,
    started: Instant,
    translate: Option<Duration>,
    gate_acquired: Instant,
    eval_started: Instant,
    evaluate: Duration,
) -> TraceNode {
    let span = |name: String, start: Duration, duration: Duration| TraceNode {
        name,
        start_us: u64::try_from(start.as_micros()).unwrap_or(u64::MAX),
        duration_us: u64::try_from(duration.as_micros()).unwrap_or(u64::MAX),
        children: Vec::new(),
    };
    let translated = translate.unwrap_or_default();
    let gate_at = gate_acquired.duration_since(started);
    let eval_at = eval_started.duration_since(started);
    let mut children = Vec::with_capacity(3);
    if let Some(t) = translate {
        children.push(span("translate".into(), Duration::ZERO, t));
    }
    children.push(span(
        "gate_wait".into(),
        translated,
        gate_at.saturating_sub(translated),
    ));
    children.push(span(format!("evaluate:{strategy}"), eval_at, evaluate));
    TraceNode {
        children,
        ..span("query".into(), Duration::ZERO, eval_at + evaluate)
    }
}

/// The `(entries, blocks)` of every materialised `(term, sid)` list of one
/// family, term-major — the §4 cost model's inputs.
fn list_sizes<F: ListFamily>(
    table: &ListTable<F>,
    sids: &[trex_summary::Sid],
    terms: &[trex_text::TermId],
) -> Result<Vec<(u64, u64)>> {
    Ok(table
        .lists_of(sids, terms)?
        .iter()
        .map(|(_, _, s)| (s.entries, s.blocks))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TestSystem;

    #[test]
    fn explain_counts_no_era_fallback_and_evaluate_counts_one() {
        let docs: Vec<String> = (0..4)
            .map(|i| format!("<a><s>cat dog w{i}</s></a>"))
            .collect();
        let system = TestSystem::build("engine-fallback", 1, &docs);
        let part = system.part(0);
        let fallbacks = || part.profiler().counters().era_fallbacks.get();
        let (nexi, opts) = ("//a//s[about(., cat)]", EvalOptions::new().k(5));

        let plan = part.engine().explain(nexi, opts).unwrap();
        assert_eq!(plan.chosen, Strategy::Era);
        assert_eq!(fallbacks(), 0);

        part.engine().evaluate(nexi, opts).unwrap();
        assert_eq!(fallbacks(), 1);
    }
}
