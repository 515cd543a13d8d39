//! The system the serving and management layers know: N ≥ 1 independent
//! stores behind one rank-safe façade.
//!
//! A [`PartitionedSystem`] owns N partitions (each with its own pager,
//! buffer pool, WAL, delta index and profiler) and makes them answer as
//! one; a single store is the N = 1 case, evaluated directly with no
//! scatter. Documents are routed to partitions by a pure hash of
//! their **global** doc id ([`trex_index::partition_of`]) at build time and
//! at live-ingest time, so a document's home partition never moves. Every
//! partition store carries the **same** catalog — global dictionary,
//! summary, alias map, collection statistics and per-term df/cf — written
//! by the partitioned [`trex_index::IndexBuilder`], so a given element
//! scores identically no matter which partition holds it.
//!
//! # Rank safety
//!
//! With shared scoring inputs and disjoint documents, the global top-k is a
//! subset of the union of per-partition top-k lists: any answer ranked
//! above an answer in partition p's top-k would itself be in p's top-k.
//! [`merge_topk`] therefore performs a plain k-way merge of the
//! rank-sorted per-partition streams under [`Answer::rank_cmp`] — score
//! descending, then global document order — and reproduces the
//! single-store answer byte-identically. No answer can tie *across*
//! partitions on the tiebreak key, because the key ends in the (globally
//! unique) document id.
//!
//! # Self-management
//!
//! [`SelfManager`](crate::SelfManager) runs the §4 advisor per partition
//! ([`reconcile_partitioned`]) under a **global** byte budget, re-split
//! every cycle proportionally to per-partition workload heat: the
//! profiler's decayed shape weights, scaled by the partition-local extent
//! sizes those shapes touch (the profiled weights themselves are identical
//! across partitions — every partition sees every query — so locality lives
//! entirely in the extent term). One partition gets the whole budget.
//! [`advise`] runs the same per-partition cycle once on a given workload,
//! under an equal split.

use std::collections::BinaryHeap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use trex_index::TrexIndex;
use trex_obs::TraceNode;

use crate::answer::Answer;
use crate::engine::{EvalOptions, QueryEngine, QueryResult, StrategyStats};
use crate::ingest::{fold_each, FoldReport};
use crate::scoped::run_scoped;
use crate::selfmanage::{
    reconcile_once, reconcile_workload, CostCache, ReconcileReport, SelfManageOptions, Workload,
    WorkloadProfiler,
};
use crate::Result;

/// The store path of partition `i` for a system whose single-store path
/// would be `base`: `base` with `.p{i}` appended (`corpus.trex` →
/// `corpus.trex.p0`, `corpus.trex.p1`, …). Appending (rather than
/// replacing an extension) keeps sibling systems with different base names
/// from colliding, and lets openers probe partition counts by existence.
pub fn partition_store_path(base: &Path, partition: usize) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(format!(".p{partition}"));
    PathBuf::from(os)
}

/// One partition: a complete single-store index plus its own workload
/// profiler (each partition profiles independently so the self-manager can
/// weigh budgets by partition-local heat).
pub struct Partition {
    index: Arc<TrexIndex>,
    profiler: Arc<WorkloadProfiler>,
}

impl Partition {
    /// Wraps an opened index and its profiler as one partition.
    pub fn new(index: Arc<TrexIndex>, profiler: Arc<WorkloadProfiler>) -> Partition {
        Partition { index, profiler }
    }

    /// The partition's index.
    pub fn index(&self) -> &Arc<TrexIndex> {
        &self.index
    }

    /// The partition's workload profiler.
    pub fn profiler(&self) -> &Arc<WorkloadProfiler> {
        &self.profiler
    }

    /// A query engine over this partition alone, feeding its profiler.
    pub fn engine(&self) -> QueryEngine<'_> {
        QueryEngine::new(&self.index).with_profiler(&self.profiler)
    }
}

/// N ≥ 1 partitions serving as one system: scatter-gather evaluation,
/// routed ingest, per-partition folds.
pub struct PartitionedSystem {
    parts: Vec<Partition>,
    /// Serialises id allocation + routed ingest: the global id decision
    /// (the maximum of the partitions' own watermarks) must be atomic with
    /// the routed write that advances one of them.
    ingest_lock: Mutex<()>,
}

impl PartitionedSystem {
    /// Assembles a system from opened partitions.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn from_parts(parts: Vec<Partition>) -> PartitionedSystem {
        assert!(!parts.is_empty(), "a system needs >= 1 store");
        PartitionedSystem {
            parts,
            ingest_lock: Mutex::new(()),
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Partition `i`.
    pub fn part(&self, i: usize) -> &Partition {
        &self.parts[i]
    }

    /// All partitions, in routing order.
    pub fn parts(&self) -> &[Partition] {
        &self.parts
    }

    /// The system's maintenance generation: the maximum over partitions.
    /// Any partition committing a reconcile or an ingest bumps the
    /// maximum, so a result cache keyed by this value invalidates exactly
    /// when any partition's answer could change.
    pub fn generation(&self) -> u64 {
        self.parts
            .iter()
            .map(|p| p.index.maintenance().generation())
            .max()
            .unwrap_or(0)
    }

    /// Evaluates `nexi` on every partition in parallel and merges the
    /// rank-sorted per-partition streams into the global answer (see the
    /// module docs for why the merge is exact). Single-partition systems
    /// evaluate directly — no scatter overhead, and the result's stats are
    /// the strategy's own rather than a one-element scatter.
    pub fn evaluate(&self, nexi: &str, opts: EvalOptions) -> Result<QueryResult> {
        if let [only] = self.parts.as_slice() {
            return only.engine().evaluate(nexi, opts);
        }
        self.scatter(opts, |part| part.engine().evaluate(nexi, opts))
    }

    /// Runs `eval` on every partition (see [`run_scoped`]) and merges
    /// the results; the first partition that fails (or panics) fails the
    /// query.
    fn scatter(
        &self,
        opts: EvalOptions,
        eval: impl Fn(&Partition) -> Result<QueryResult> + Sync,
    ) -> Result<QueryResult> {
        let started = Instant::now();
        let per_part = run_scoped(self.parts.len(), |i| eval(&self.parts[i]))
            .into_iter()
            .collect::<Result<Vec<_>>>()?;
        Ok(merge_results(per_part, opts, started.elapsed()))
    }
}

/// Routed live ingestion and folding. These return the index crate's error
/// type directly: no query machinery is involved, and callers (the serving
/// layer's ingest endpoint) map id exhaustion to their own vocabulary.
impl PartitionedSystem {
    /// Ingests one document: allocates the next global id — the maximum of
    /// the partitions' own watermarks, so an id a partition handed out on
    /// its own is never reused — routes it to its home partition by
    /// [`trex_index::partition_of`], and ingests there under the explicit
    /// id. Returns the global id. Failed documents (unknown path, WAL
    /// error) burn no id.
    pub fn ingest_document(&self, xml: &str) -> std::result::Result<u32, trex_index::IndexError> {
        let _serial = self.ingest_lock.lock();
        let mut doc_id = 0;
        for part in &self.parts {
            doc_id = doc_id.max(part.index.delta().peek_next_doc_id()?);
        }
        let home = trex_index::partition_of(doc_id, self.parts.len());
        self.parts[home]
            .index
            .ingest_document_with_id(doc_id, xml)?;
        Ok(doc_id)
    }

    /// Folds every partition's delta into its tables and returns the
    /// merged report (`None` when every delta was empty). Folds are
    /// independent — each partition's fold sees only documents routed to
    /// it, and scoring inputs are frozen (see `crate::ingest` docs) — so
    /// per-partition folds preserve cross-partition byte identity for all
    /// searchable terms.
    pub fn fold_once(&self) -> Result<Option<FoldReport>> {
        fold_each(self.parts.iter().map(|p| p.index.as_ref()))
    }
}

/// K-way merges rank-sorted answer streams into one rank-sorted stream,
/// truncated to `k` (`None` keeps everything). Exact for streams with
/// disjoint documents and a shared scoring catalog (module docs); the
/// public contract is merely "stable merge under [`Answer::rank_cmp`],
/// ties broken by stream index".
pub fn merge_topk(streams: &[Vec<Answer>], k: Option<usize>) -> Vec<Answer> {
    struct Head {
        answer: Answer,
        stream: usize,
        pos: usize,
    }
    // BinaryHeap is a max-heap; invert rank_cmp so the best-ranked head
    // (least under rank_cmp) surfaces first.
    impl Ord for Head {
        fn cmp(&self, other: &Head) -> std::cmp::Ordering {
            self.answer
                .rank_cmp(&other.answer)
                .then(self.stream.cmp(&other.stream))
                .reverse()
        }
    }
    impl PartialOrd for Head {
        fn partial_cmp(&self, other: &Head) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl PartialEq for Head {
        fn eq(&self, other: &Head) -> bool {
            self.cmp(other) == std::cmp::Ordering::Equal
        }
    }
    impl Eq for Head {}

    let limit = k.unwrap_or(usize::MAX);
    let mut heap = BinaryHeap::with_capacity(streams.len());
    for (s, stream) in streams.iter().enumerate() {
        if let Some(&answer) = stream.first() {
            heap.push(Head {
                answer,
                stream: s,
                pos: 0,
            });
        }
    }
    let mut merged = Vec::with_capacity(limit.min(streams.iter().map(Vec::len).sum()));
    while let Some(head) = heap.pop() {
        merged.push(head.answer);
        if merged.len() >= limit {
            break;
        }
        if let Some(&answer) = streams[head.stream].get(head.pos + 1) {
            heap.push(Head {
                answer,
                stream: head.stream,
                pos: head.pos + 1,
            });
        }
    }
    merged
}

/// Combines per-partition results into the system answer.
///
/// * `answers`: [`merge_topk`] under the global `k`.
/// * `total_answers`: exact when every partition reported an exact total
///   (ERA/Merge — sum them); once any partition ran TA (whose total is
///   just its returned count), only the merged count is honest.
/// * `translation`: every partition translated against the identical
///   shared catalog, so the first result's translation is *the*
///   translation.
/// * `generation`: the maximum per-partition generation, matching
///   [`PartitionedSystem::generation`]'s cache key.
/// * `trace`: the slowest partition's trace, if tracing was on — the one
///   that determined the scatter's wall time.
/// * `trace_tree`: when the request carried a trace context, a synthetic
///   `scatter` root with exactly one `partition:{i}` child per partition,
///   each wrapping that partition's own span tree — one tree for the whole
///   fan-out.
fn merge_results(per_part: Vec<QueryResult>, opts: EvalOptions, wall: Duration) -> QueryResult {
    let streams: Vec<Vec<Answer>> = per_part.iter().map(|r| r.answers.clone()).collect();
    let answers = merge_topk(&streams, opts.k);
    let any_ta = per_part
        .iter()
        .any(|r| matches!(r.stats, StrategyStats::Ta(_)));
    let total_answers = if any_ta {
        answers.len()
    } else {
        per_part.iter().map(|r| r.total_answers).sum()
    };
    let generation = per_part.iter().map(|r| r.generation).max().unwrap_or(0);
    let slowest = per_part
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| r.stats.wall())
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut per_part = per_part;
    let trace = per_part[slowest].trace.take();
    let translation = per_part[0].translation.clone();
    let trace_tree = if opts.trace_context.is_some() {
        let wall_us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
        let children = per_part
            .iter_mut()
            .enumerate()
            .map(|(i, r)| {
                let mut child = TraceNode {
                    name: format!("partition:{i}"),
                    start_us: 0,
                    duration_us: 0,
                    children: Vec::new(),
                };
                if let Some(tree) = r.trace_tree.take() {
                    child.duration_us = tree.duration_us;
                    child.children.push(tree);
                }
                child
            })
            .collect();
        Some(TraceNode {
            name: "scatter".to_string(),
            start_us: 0,
            duration_us: wall_us,
            children,
        })
    } else {
        None
    };
    let stats = StrategyStats::Scatter {
        partitions: per_part.len(),
        per_part: per_part.into_iter().map(|r| r.stats).collect(),
        wall,
    };
    QueryResult {
        answers,
        total_answers,
        translation,
        stats,
        trace,
        generation,
        trace_tree,
    }
}

/// One partition's share of a budget split, for observability.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionBudget {
    /// Partition index.
    pub partition: usize,
    /// The heat the split was computed from (unnormalised).
    pub heat: f64,
    /// The byte budget this partition's advisor ran under.
    pub budget_bytes: u64,
}

/// One completed reconcile cycle over every partition of a system.
#[derive(Debug, Clone)]
pub struct PartitionedCycle {
    /// Cycle ordinal (1-based).
    pub cycle: u64,
    /// The budget split the cycle used.
    pub budgets: Vec<PartitionBudget>,
    /// Per-partition reconcile reports, in partition order.
    pub reports: Vec<ReconcileReport>,
    /// Wall-clock time of the whole cycle (all partitions).
    pub wall: Duration,
}

impl PartitionedCycle {
    /// Lists written this cycle, over all partitions.
    pub fn lists_materialized(&self) -> usize {
        self.reports.iter().map(|r| r.lists_materialized).sum()
    }

    /// Lists dropped this cycle, over all partitions.
    pub fn lists_dropped(&self) -> usize {
        self.reports.iter().map(|r| r.lists_dropped).sum()
    }

    /// Registry bytes (RPLs + ERPLs) after the cycle, over all partitions.
    pub fn bytes_used(&self) -> u64 {
        self.reports.iter().map(|r| r.bytes_used).sum()
    }

    /// Estimated saving per workload execution (`Σ f_i Δ_i`), summed over
    /// partitions.
    pub fn expected_saving(&self) -> f64 {
        self.reports
            .iter()
            .map(|r| r.selection.saving(&r.costs))
            .sum()
    }
}

/// Splits `total_bytes` across partitions proportionally to workload heat.
///
/// A partition's heat is Σ over its profiled shapes of `weight ×
/// Σ_sid extent_size(sid)`: the decayed observation weight times how many
/// *partition-local* elements the shape's extents actually hold. Profiled
/// weights are identical across partitions (every partition evaluates every
/// query), so the extent term is what differentiates — a partition holding
/// more of the hot extents gets more budget to materialise them. Falls back
/// to an equal split when no heat is measurable (cold start, empty
/// profiles, unresolvable shapes) — the split [`advise`] always uses.
pub fn split_budget(
    system: &PartitionedSystem,
    total_bytes: u64,
    max_queries: usize,
) -> Vec<PartitionBudget> {
    let heats = system
        .parts()
        .iter()
        .map(|p| partition_heat(p, max_queries))
        .collect();
    split_by_heat(total_bytes, heats)
}

/// Shares of `total_bytes` proportional to `heats`, or equal shares when
/// the heats sum to zero or a non-finite value. Shares are floored, clamped
/// to what is left, and the last partition takes the remainder — so the
/// shares never exceed the total, and a single partition gets exactly
/// `total_bytes` with no float round-trip.
fn split_by_heat(total_bytes: u64, heats: Vec<f64>) -> Vec<PartitionBudget> {
    let n = heats.len();
    let sum: f64 = heats.iter().sum();
    let measurable = sum > 0.0 && sum.is_finite();
    let mut remaining = total_bytes;
    heats
        .into_iter()
        .enumerate()
        .map(|(partition, heat)| {
            let share = if partition + 1 == n {
                remaining
            } else if measurable {
                ((total_bytes as f64 * (heat / sum)).floor() as u64).min(remaining)
            } else {
                total_bytes / n as u64
            };
            remaining -= share;
            PartitionBudget {
                partition,
                heat,
                budget_bytes: share,
            }
        })
        .collect()
}

/// The workload heat of one partition (see [`split_budget`]). Shapes whose
/// translation or extent scan fails contribute zero rather than failing the
/// cycle — the advisor must keep running on whatever is measurable.
fn partition_heat(part: &Partition, max_queries: usize) -> f64 {
    let engine = QueryEngine::new(&part.index);
    let elements = match part.index.elements() {
        Ok(t) => t,
        Err(_) => return 0.0,
    };
    let mut heat = 0.0;
    for shape in part.profiler.profile(max_queries) {
        let Ok(translation) = engine.translate(&shape.nexi, Default::default()) else {
            continue;
        };
        let mut extent_elems = 0u64;
        for &sid in &translation.sids {
            extent_elems += elements.extent_size(sid).unwrap_or(0);
        }
        heat += shape.weight * extent_elems as f64;
    }
    heat
}

/// Runs one reconcile cycle across every partition: split the global
/// budget by heat, then [`reconcile_once`] per partition under its share.
/// `caches` must have one [`CostCache`] per partition and persists across
/// cycles (measured ERA timings are expensive; the per-partition cache
/// invalidates itself on ingest epoch changes).
pub fn reconcile_partitioned(
    system: &PartitionedSystem,
    opts: &SelfManageOptions,
    caches: &mut [CostCache],
    cycle: u64,
) -> Result<PartitionedCycle> {
    assert_eq!(
        caches.len(),
        system.partitions(),
        "one cost cache per partition"
    );
    let started = Instant::now();
    let budgets = split_budget(system, opts.budget_bytes, opts.max_queries);
    reconcile_each(
        system,
        budgets,
        opts,
        cycle,
        started,
        |i, part, part_opts| reconcile_once(&part.index, &part.profiler, part_opts, &mut caches[i]),
    )
}

/// Runs one reconcile cycle of the given `workload` across every partition
/// ([`reconcile_workload`] with the partition's profiler counters and a
/// fresh cost cache), each under an equal share of `opts.budget_bytes`: a
/// workload written by hand carries no per-partition heat. `trex advise`
/// is this one call.
pub fn advise(
    system: &PartitionedSystem,
    workload: &Workload,
    opts: &SelfManageOptions,
) -> Result<PartitionedCycle> {
    let started = Instant::now();
    let budgets = split_by_heat(opts.budget_bytes, vec![0.0; system.partitions()]);
    reconcile_each(system, budgets, opts, 1, started, |_, part, part_opts| {
        let counters = part.profiler.counters();
        reconcile_workload(
            &part.index,
            workload,
            counters,
            part_opts,
            &mut CostCache::new(),
        )
    })
}

/// The per-partition loop both entries share: `run` reconciles partition
/// `i` under its share of `budgets`.
fn reconcile_each(
    system: &PartitionedSystem,
    budgets: Vec<PartitionBudget>,
    opts: &SelfManageOptions,
    cycle: u64,
    started: Instant,
    mut run: impl FnMut(usize, &Partition, &SelfManageOptions) -> Result<ReconcileReport>,
) -> Result<PartitionedCycle> {
    let mut reports = Vec::with_capacity(system.partitions());
    for (i, (part, budget)) in system.parts().iter().zip(&budgets).enumerate() {
        let part_opts = SelfManageOptions {
            budget_bytes: budget.budget_bytes,
            ..*opts
        };
        reports.push(run(i, part, &part_opts)?);
    }
    Ok(PartitionedCycle {
        cycle,
        budgets,
        reports,
        wall: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TestSystem;
    use trex_index::ElementRef;

    fn corpus() -> Vec<String> {
        (0..24)
            .map(|i| {
                let noise = ["xml", "query", "index", "summary"][i % 4];
                format!("<a><s>cat dog {noise}</s><s>bird {noise} w{i}</s></a>")
            })
            .collect()
    }

    const QUERIES: [&str; 5] = [
        "//a//s[about(., cat)]",
        "//a//s[about(., bird xml)]",
        "//a//s[about(., query)]",
        "//a//s[about(., dog summary)]",
        "//a//s[about(., w3)]",
    ];

    #[test]
    fn scatter_matches_a_single_store_at_any_partition_count() {
        let opts = EvalOptions::new().k(Some(5));
        let single = TestSystem::build("scatter-n1", 1, &corpus());
        for partitions in [2, 3] {
            let system = TestSystem::build(&format!("scatter-{partitions}"), partitions, &corpus());
            for q in QUERIES {
                let want = single.evaluate(q, opts).unwrap();
                let got = system.evaluate(q, opts.trace(true)).unwrap();
                assert_eq!(got.answers, want.answers, "{q} at {partitions} partitions");
                assert!(!got.trace.expect("trace requested").strategy.is_empty());
            }
        }
    }

    #[test]
    fn a_failing_or_panicking_partition_fails_the_query() {
        let system = TestSystem::build("scatter-err", 2, &corpus());
        let opts = EvalOptions::new().k(Some(3));
        let nexi = "//a//s[about(., cat)]";
        // TA needs RPLs, and only partition 0 has them: partition 1 fails.
        let t = system
            .part(0)
            .engine()
            .translate(nexi, Default::default())
            .unwrap();
        crate::materialize_batch(
            system.part(0).index(),
            &t.sids,
            &t.terms,
            crate::ListKind::Rpl,
        )
        .unwrap();
        assert!(system
            .part(0)
            .engine()
            .evaluate(nexi, opts.strategy(crate::Strategy::Ta))
            .is_ok());
        assert!(matches!(
            system.evaluate(nexi, opts.strategy(crate::Strategy::Ta)),
            Err(crate::TrexError::MissingIndex(_))
        ));

        // A partition that panics fails the query with an internal error.
        let result = system.scatter(opts, |part| {
            if std::ptr::eq(part, system.part(1)) {
                panic!("injected partition panic");
            }
            part.engine().evaluate(nexi, opts)
        });
        match result {
            Err(crate::TrexError::Internal(msg)) => {
                assert!(msg.contains("injected partition panic"), "got: {msg}")
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        // The system still answers afterwards.
        assert!(system.evaluate(nexi, opts).is_ok());
    }

    #[test]
    fn one_partition_reports_the_strategys_own_stats() {
        let single = TestSystem::build("stats-n1", 1, &corpus());
        let parted = TestSystem::build("stats-n2", 2, &corpus());
        let opts = EvalOptions::new().k(Some(5));
        assert!(matches!(
            single.evaluate(QUERIES[0], opts).unwrap().stats,
            StrategyStats::Era(_)
        ));
        assert!(matches!(
            parted.evaluate(QUERIES[0], opts).unwrap().stats,
            StrategyStats::Scatter { partitions: 2, .. }
        ));
    }

    #[test]
    fn budget_split_is_exact_at_one_partition_and_never_overspends() {
        // Above 2^53 an f64 round-trip would lose the low bits.
        let total = (1u64 << 60) + 12_345;
        let single = TestSystem::build("split-n1", 1, &corpus());
        for warm in [false, true] {
            if warm {
                single
                    .evaluate(QUERIES[0], EvalOptions::new().k(Some(5)))
                    .unwrap();
            }
            let budgets = split_budget(&single, total, 8);
            assert_eq!(budgets.len(), 1);
            assert_eq!(budgets[0].budget_bytes, total);
        }

        let parted = TestSystem::build("split-n4", 4, &corpus());
        for warm in [false, true] {
            if warm {
                for q in QUERIES {
                    parted.evaluate(q, EvalOptions::new().k(Some(5))).unwrap();
                }
            }
            for total in [0u64, 3, 1001, total] {
                let budgets = split_budget(&parted, total, 8);
                assert_eq!(budgets.len(), 4);
                let spent: u128 = budgets.iter().map(|b| u128::from(b.budget_bytes)).sum();
                assert!(spent <= u128::from(total), "{budgets:?}");
            }
        }
        assert!(split_budget(&parted, 1 << 20, 8)
            .iter()
            .any(|b| b.heat > 0.0));
    }

    fn answer(score: f32, doc: u32, end: u32, sid: u32) -> Answer {
        Answer {
            element: ElementRef {
                doc,
                end,
                length: 1,
            },
            sid,
            score,
        }
    }

    #[test]
    fn merge_reproduces_global_sort_with_ties_at_the_boundary() {
        // Two streams with a three-way score tie straddling the k boundary;
        // the tiebreak must be global doc order, not stream arrival order.
        let a = vec![
            answer(0.9, 2, 5, 1),
            answer(0.5, 8, 3, 1),
            answer(0.5, 12, 3, 1),
        ];
        let b = vec![answer(0.7, 1, 4, 1), answer(0.5, 3, 2, 1)];
        let merged = merge_topk(&[a.clone(), b.clone()], Some(3));
        assert_eq!(
            merged,
            vec![
                answer(0.9, 2, 5, 1),
                answer(0.7, 1, 4, 1),
                answer(0.5, 3, 2, 1)
            ]
        );
        // Unlimited merge equals the fully sorted union.
        let mut union: Vec<Answer> = a.iter().chain(b.iter()).copied().collect();
        union.sort_unstable_by(|x, y| x.rank_cmp(y));
        assert_eq!(merge_topk(&[a, b], None), union);
    }

    #[test]
    fn merge_handles_empty_and_single_streams() {
        assert!(merge_topk(&[], Some(5)).is_empty());
        assert!(merge_topk(&[vec![], vec![]], None).is_empty());
        let only = vec![answer(0.4, 1, 1, 2), answer(0.2, 2, 1, 2)];
        assert_eq!(merge_topk(&[vec![], only.clone()], Some(10)), only);
    }

    #[test]
    fn partition_store_paths_are_distinct_and_deterministic() {
        let base = Path::new("/tmp/corpus.trex");
        assert_eq!(
            partition_store_path(base, 0),
            PathBuf::from("/tmp/corpus.trex.p0")
        );
        assert_eq!(
            partition_store_path(base, 3),
            PathBuf::from("/tmp/corpus.trex.p3")
        );
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for parts in [1usize, 2, 3, 4, 8] {
            for doc in 0u32..256 {
                let p = trex_index::partition_of(doc, parts);
                assert!(p < parts);
                assert_eq!(p, trex_index::partition_of(doc, parts));
            }
        }
        // Sequential ids actually spread (no degenerate all-to-one hash).
        let hits: std::collections::HashSet<usize> =
            (0u32..64).map(|d| trex_index::partition_of(d, 4)).collect();
        assert_eq!(hits.len(), 4);
    }
}
