//! The self-manager: one reconcile cycle, run on a workload the caller
//! gives ([`reconcile_workload`], behind `trex advise`) or on the one the
//! [`WorkloadProfiler`] observes in the live query stream
//! ([`reconcile_once`]), and the background [`SelfManager`] that runs the
//! latter periodically — one cycle per partition, each under its share of
//! the disk budget — concurrent with query serving.
//!
//! A cycle solves the §4 selection under the budget and applies the delta
//! *list by list* under the index's maintenance write gate — queries keep
//! flowing between list mutations, and one that lands mid-reconcile simply
//! observes partial coverage and falls back to ERA (correct answers, never
//! an error; counted as `era_fallbacks`).
//!
//! Costing writes nothing: a cycle measures only `T_e` (a traced ERA run,
//! which needs no redundant lists) and *estimates* `T_m`/`T_ta` from the §4
//! access-count predictions scaled by the measured per-access cost; list
//! footprints are priced with the tables' encoders. Measurements are cached
//! per query shape ([`CostCache`]), so steady-state cycles re-measure
//! nothing and touch no lists at all.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use trex_index::blocks::list_size;
use trex_index::{Erpl, ListFamily, ListTable, Rpl, TrexIndex};
use trex_obs::{
    AdvisorJournal, CycleRecord, Health, InFlight, ListDeltaRecord, SelfManageCounters,
    ShapeRecord, SplitRecord,
};
use trex_summary::Sid;
use trex_text::TermId;

use crate::engine::{EvalOptions, QueryEngine, Strategy};
use crate::materialize::{collect_lists, ScoredLists};
use crate::partition::{reconcile_partitioned, PartitionedCycle, PartitionedSystem};
use crate::ta::TA_MAX_TERMS;
use crate::worker::BackgroundWorker;
use crate::Result;

use super::cost::{predicted_merge_accesses, predicted_ta_accesses, Choice, ListId, QueryCost};
use super::greedy::solve_greedy;
use super::lp::solve_lp;
use super::profiler::WorkloadProfiler;
use super::workload::Workload;
use super::Selection;

/// Which selection algorithm a cycle runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionMethod {
    /// Exact boolean LP (branch-and-bound), §4.1. Small workloads only.
    Lp,
    /// Greedy 2-approximation, §4.2.
    #[default]
    Greedy,
}

/// Options for a reconcile cycle and the background self-manager.
#[derive(Debug, Clone, Copy)]
pub struct SelfManageOptions {
    /// Disk budget `d` in bytes for the redundant lists.
    pub budget_bytes: u64,
    /// Selection algorithm.
    pub method: SelectionMethod,
    /// Pause between background reconcile cycles.
    pub interval: Duration,
    /// How many of the heaviest profiled query shapes a cycle considers (a
    /// given workload is taken whole).
    pub max_queries: usize,
    /// Timing runs per `T_e` measurement; the median is used.
    pub measure_runs: usize,
    /// Print one status line per completed background cycle to stderr
    /// (query p50/p99, ERA-fallback rate, lists moved). Off by default;
    /// `trex serve` turns it on.
    pub log_cycles: bool,
}

impl SelfManageOptions {
    /// Defaults: greedy selection, 1 s cycles, top 8 shapes, one timing run.
    pub fn new(budget_bytes: u64) -> SelfManageOptions {
        SelfManageOptions {
            budget_bytes,
            method: SelectionMethod::Greedy,
            interval: Duration::from_secs(1),
            max_queries: 8,
            measure_runs: 1,
            log_cycles: false,
        }
    }

    /// Sets the cycle interval.
    pub fn interval(mut self, interval: Duration) -> SelfManageOptions {
        self.interval = interval;
        self
    }

    /// Sets the selection method.
    pub fn method(mut self, method: SelectionMethod) -> SelfManageOptions {
        self.method = method;
        self
    }

    /// Sets the workload width per cycle.
    pub fn max_queries(mut self, max: usize) -> SelfManageOptions {
        self.max_queries = max;
        self
    }

    /// Sets the number of timing runs per measurement.
    pub fn measure_runs(mut self, runs: usize) -> SelfManageOptions {
        self.measure_runs = runs;
        self
    }

    /// Enables/disables the per-cycle stderr status line.
    pub fn log_cycles(mut self, on: bool) -> SelfManageOptions {
        self.log_cycles = on;
        self
    }
}

/// Everything a cycle learns about one query shape that does not depend on
/// the workload frequencies: measured ERA cost, estimated deltas, and the
/// exact list footprints. Valid as long as the corpus has not moved: the
/// entry records the ingest epoch (documents ever ingested — staged plus
/// folded) it was measured at, and a cycle re-measures any shape whose
/// epoch is stale, so live ingestion cannot leave the advisor pricing
/// yesterday's lists.
#[derive(Debug, Clone)]
struct CachedCost {
    t_e: f64,
    delta_merge: f64,
    delta_ta: f64,
    erpl_lists: Vec<ListId>,
    rpl_lists: Vec<ListId>,
    sids: Vec<Sid>,
    terms: Vec<TermId>,
    /// `delta.folded_docs() + delta.doc_count()` at measurement time.
    ingest_epoch: u64,
}

/// Memoised per-shape measurements across reconcile cycles. Keyed by
/// (representative NEXI, k).
#[derive(Debug, Default)]
pub struct CostCache {
    by_query: HashMap<(String, usize), CachedCost>,
}

impl CostCache {
    /// An empty cache.
    pub fn new() -> CostCache {
        CostCache::default()
    }

    /// Number of cached shapes.
    pub fn len(&self) -> usize {
        self.by_query.len()
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.by_query.is_empty()
    }
}

/// What one reconcile cycle decided and did.
#[derive(Debug, Clone)]
pub struct ReconcileReport {
    /// The workload the cycle priced (may be empty).
    pub workload: Workload,
    /// Per-query decisions, aligned with the workload order.
    pub selection: Selection,
    /// The (partly estimated) costs the decision was based on.
    pub costs: Vec<QueryCost>,
    /// Lists written this cycle (only missing lists are written).
    pub lists_materialized: usize,
    /// Lists dropped this cycle.
    pub lists_dropped: usize,
    /// Registry bytes after the cycle (RPLs + ERPLs).
    pub bytes_used: u64,
    /// The maintenance generation after the cycle's last mutation.
    pub generation: u64,
    /// Every list mutation the cycle applied, with byte deltas (the
    /// `partition` field is 0; [`cycle_record`] rewrites it).
    pub deltas: Vec<ListDeltaRecord>,
    /// Total wall time queries were excluded by the write gate — summed
    /// over the cycle's list mutations, each of which gates individually.
    pub gate_pause: Duration,
    /// End-to-end wall time of the cycle.
    pub wall: Duration,
}

/// Runs one reconcile cycle on the workload `profiler` observed, with its
/// counters: [`reconcile_workload`] of `profiler.workload(max_queries)`.
/// An empty profile is a no-op.
pub fn reconcile_once(
    index: &TrexIndex,
    profiler: &WorkloadProfiler,
    opts: &SelfManageOptions,
    cache: &mut CostCache,
) -> Result<ReconcileReport> {
    let workload = profiler.workload(opts.max_queries).unwrap_or_default();
    reconcile_workload(index, &workload, profiler.counters(), opts, cache)
}

/// Runs one reconcile cycle on `workload`: cost it (reusing `cache`), solve
/// the §4 selection under the budget, and apply the delta incrementally —
/// drops first, then the missing lists, each mutation under the maintenance
/// write gate and the budget, one WAL checkpoint at the end iff anything
/// changed. Lists already present are kept as they are. Safe to run
/// concurrently with query serving; do not run two cycles concurrently with
/// each other (the self-manager never does). An empty workload leaves the
/// lists alone rather than dropping everything.
pub fn reconcile_workload(
    index: &TrexIndex,
    workload: &Workload,
    counters: &SelfManageCounters,
    opts: &SelfManageOptions,
    cache: &mut CostCache,
) -> Result<ReconcileReport> {
    let cycle_started = Instant::now();
    let telemetry = index.telemetry().clone();
    if workload.is_empty() {
        return Ok(ReconcileReport {
            workload: workload.clone(),
            selection: Selection::none(0),
            costs: Vec::new(),
            lists_materialized: 0,
            lists_dropped: 0,
            bytes_used: index.rpls()?.total_bytes()? + index.erpls()?.total_bytes()?,
            generation: index.maintenance().generation(),
            deltas: Vec::new(),
            gate_pause: Duration::ZERO,
            wall: cycle_started.elapsed(),
        });
    }

    // Phase telemetry: the cycle and each phase land in the matching
    // `maint.reconcile_*` histograms.
    let sw_cycle = telemetry.maint.start();

    let sw_measure = telemetry.maint.start();
    let engine = QueryEngine::new(index);
    let mut costs = Vec::with_capacity(workload.len());
    // Documents ever ingested (staged + folded): cached measurements from
    // an older epoch price lists that no longer match the corpus.
    let ingest_epoch = index.delta().folded_docs() + index.delta().doc_count() as u64;
    for wq in workload.queries() {
        let key = (wq.nexi.clone(), wq.k);
        let stale = cache
            .by_query
            .get(&key)
            .map(|c| c.ingest_epoch != ingest_epoch)
            .unwrap_or(true);
        if stale {
            let cached = measure_query(index, &engine, &wq.nexi, wq.k, opts.measure_runs)?;
            cache.by_query.insert(key.clone(), cached);
        }
        let cached = &cache.by_query[&key];
        costs.push(QueryCost {
            frequency: wq.frequency,
            measured_era: cached.t_e,
            delta_merge: cached.delta_merge,
            delta_ta: cached.delta_ta,
            erpl_lists: cached.erpl_lists.clone(),
            rpl_lists: cached.rpl_lists.clone(),
        });
    }

    telemetry.maint.reconcile_measure.observe(&sw_measure);

    let selection = match opts.method {
        SelectionMethod::Lp => solve_lp(&costs, opts.budget_bytes),
        SelectionMethod::Greedy => solve_greedy(&costs, opts.budget_bytes),
    };

    // Apply the delta. Drops FIRST, so the registry never holds more than
    // max(old bytes, budget) at any instant and frees space for the adds.
    let sw_apply = telemetry.maint.start();
    let mut rpls = index.rpls()?;
    let mut erpls = index.erpls()?;
    let mut apply = Apply {
        index,
        counters,
        budget_bytes: opts.budget_bytes,
        bytes_now: 0,
        written: 0,
        dropped: 0,
        deltas: Vec::new(),
        gate_pause: Duration::ZERO,
    };
    apply.drop_unkept(&mut rpls, &selection.kept(&costs, Choice::Rpl))?;
    apply.drop_unkept(&mut erpls, &selection.kept(&costs, Choice::Erpl))?;

    // Add the missing lists, gated on the budget as a hard invariant: the
    // greedy/LP space accounting and our exact footprints should already
    // guarantee it, but the registry must never exceed the budget even if
    // an estimate drifts.
    apply.bytes_now = rpls.total_bytes()? + erpls.total_bytes()?;
    for (wq, (&choice, cost)) in workload
        .queries()
        .iter()
        .zip(selection.choices.iter().zip(&costs))
    {
        let query = &cache.by_query[&(wq.nexi.clone(), wq.k)];
        match choice {
            Choice::None => {}
            Choice::Rpl => apply.add_missing(&mut rpls, &cost.rpl_lists, query)?,
            Choice::Erpl => apply.add_missing(&mut erpls, &cost.erpl_lists, query)?,
        }
    }
    let Apply {
        written,
        dropped,
        deltas,
        gate_pause,
        ..
    } = apply;

    telemetry.maint.reconcile_apply.observe(&sw_apply);

    // One checkpoint per cycle.
    if written > 0 || dropped > 0 {
        let sw_ckpt = telemetry.maint.start();
        index.store().flush()?;
        telemetry.maint.reconcile_checkpoint.observe(&sw_ckpt);
    }
    counters.cycles.incr();
    telemetry.maint.reconcile_cycle.observe(&sw_cycle);

    let bytes_used = rpls.total_bytes()? + erpls.total_bytes()?;
    Ok(ReconcileReport {
        workload: workload.clone(),
        selection,
        costs,
        lists_materialized: written,
        lists_dropped: dropped,
        bytes_used,
        generation: index.maintenance().generation(),
        deltas,
        gate_pause,
        wall: cycle_started.elapsed(),
    })
}

/// The apply phase of one reconcile cycle: its running tallies and journal
/// records, shared by both list families.
struct Apply<'a> {
    index: &'a TrexIndex,
    counters: &'a SelfManageCounters,
    budget_bytes: u64,
    /// Registry bytes (RPLs + ERPLs) after the mutations so far.
    bytes_now: u64,
    written: usize,
    dropped: usize,
    deltas: Vec<ListDeltaRecord>,
    gate_pause: Duration,
}

impl Apply<'_> {
    /// Drops every list of `table` not in `keep`, each under the write gate
    /// so queries interleave between drops.
    fn drop_unkept<F: ListFamily>(
        &mut self,
        table: &mut ListTable<F>,
        keep: &HashSet<(TermId, Sid)>,
    ) -> Result<()> {
        for (term, sid, stats) in table.lists()? {
            if keep.contains(&(term, sid)) {
                continue;
            }
            let gate_started = Instant::now();
            {
                let _gate = self.index.maintenance().enter_write();
                table.drop_list(term, sid)?;
            }
            self.gate_pause += gate_started.elapsed();
            self.dropped += 1;
            self.counters.lists_dropped.incr();
            self.counters.bytes_dropped.add(stats.bytes);
            self.record::<F>(term, sid, "drop", stats.bytes);
        }
        Ok(())
    }

    /// Writes every list of `lists` that `table` lacks and the budget still
    /// fits, each under the write gate. The entries come from one ERA pass
    /// over `query`'s extents, run only if some list is written.
    fn add_missing<F: ListFamily>(
        &mut self,
        table: &mut ListTable<F>,
        lists: &[ListId],
        query: &CachedCost,
    ) -> Result<()> {
        let mut scored: Option<ScoredLists> = None;
        for list in lists {
            if table.has_list(list.term, list.sid)? {
                continue;
            }
            if self.bytes_now + list.bytes > self.budget_bytes {
                continue;
            }
            if scored.is_none() {
                scored = Some(collect_lists(self.index, &query.sids, &query.terms)?);
            }
            let entries = scored
                .as_ref()
                .and_then(|lists| lists.get(&(list.term, list.sid)))
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let gate_started = Instant::now();
            {
                let _gate = self.index.maintenance().enter_write();
                table.put_list(list.term, list.sid, entries)?;
            }
            self.gate_pause += gate_started.elapsed();
            self.bytes_now += list.bytes;
            self.written += 1;
            self.counters.lists_materialized.incr();
            self.counters.bytes_materialized.add(list.bytes);
            self.record::<F>(list.term, list.sid, "add", list.bytes);
        }
        Ok(())
    }

    /// Journals one list mutation. The journal wants the human-readable
    /// term, not the id; a missing dictionary entry (never expected)
    /// degrades to "#id".
    fn record<F: ListFamily>(&mut self, term: TermId, sid: Sid, action: &str, bytes: u64) {
        let term = self
            .index
            .dictionary()
            .term(term)
            .map(str::to_string)
            .unwrap_or_else(|| format!("#{term}"));
        self.deltas.push(ListDeltaRecord {
            partition: 0,
            term,
            sid: sid as u64,
            kind: F::NAME.to_string(),
            action: action.to_string(),
            bytes,
        });
    }
}

/// Converts a completed cycle into the structured journal entry the
/// advisor decision journal stores and `/v1/advisor/history` serves: the
/// per-partition budget splits, each partition's workload snapshot with
/// per-shape predicted-vs-measured costs, the chosen/dropped lists with
/// byte deltas (labelled with their partition), and the summed gate pause.
pub fn cycle_record(cycle: &PartitionedCycle, budget_bytes: u64) -> CycleRecord {
    let mut record = CycleRecord {
        cycle: cycle.cycle,
        unix_ms: trex_obs::unix_ms(),
        budget_bytes,
        bytes_used: cycle.bytes_used(),
        lists_materialized: cycle.lists_materialized() as u64,
        lists_dropped: cycle.lists_dropped() as u64,
        wall_us: u64::try_from(cycle.wall.as_micros()).unwrap_or(u64::MAX),
        ..CycleRecord::default()
    };
    for (report, budget) in cycle.reports.iter().zip(&cycle.budgets) {
        let partition = budget.partition as u64;
        record.splits.push(SplitRecord {
            partition,
            heat: budget.heat,
            budget_bytes: budget.budget_bytes,
        });
        record.generation = record.generation.max(report.generation);
        record.gate_pause_us = record
            .gate_pause_us
            .saturating_add(u64::try_from(report.gate_pause.as_micros()).unwrap_or(u64::MAX));
        record.shapes.extend(shape_records(report));
        record
            .deltas
            .extend(report.deltas.iter().cloned().map(|mut delta| {
                delta.partition = partition;
                delta
            }));
    }
    record
}

/// One partition's workload snapshot: what the solver compared per shape.
fn shape_records(report: &ReconcileReport) -> impl Iterator<Item = ShapeRecord> + '_ {
    let us = |secs: f64| (secs * 1e6).max(0.0);
    report
        .workload
        .queries()
        .iter()
        .zip(&report.costs)
        .zip(&report.selection.choices)
        .map(move |((wq, cost), choice)| {
            let (choice_str, bytes) = match choice {
                Choice::None => ("none", 0),
                Choice::Erpl => ("erpl", cost.s_erpl()),
                Choice::Rpl => ("rpl", cost.s_rpl()),
            };
            ShapeRecord {
                nexi: wq.nexi.clone(),
                k: wq.k as u64,
                frequency: wq.frequency,
                measured_era_us: us(cost.measured_era),
                // The deltas are savings against ERA; the absolute
                // predictions the solver implicitly compared are T_e − Δ.
                predicted_merge_us: us(cost.measured_era - cost.delta_merge),
                predicted_ta_us: us(cost.measured_era - cost.delta_ta),
                choice: choice_str.to_string(),
                bytes,
            }
        })
}

/// Optional observability attachments for the background managers: a
/// decision journal that receives one [`CycleRecord`] per completed cycle,
/// and a [`Health`] whose in-flight gauges bracket each cycle (so `/readyz`
/// can report reconciles/folds in progress). Absent hooks cost nothing.
#[derive(Clone, Default)]
pub struct ManagerHooks {
    /// Receives one record per completed reconcile cycle.
    pub journal: Option<Arc<AdvisorJournal>>,
    /// In-flight gauges bracketing cycles.
    pub health: Option<Arc<Health>>,
}

impl ManagerHooks {
    /// No attachments.
    pub fn none() -> ManagerHooks {
        ManagerHooks::default()
    }

    /// Attaches a decision journal.
    pub fn journal(mut self, journal: Arc<AdvisorJournal>) -> ManagerHooks {
        self.journal = Some(journal);
        self
    }

    /// Attaches a health surface.
    pub fn health(mut self, health: Arc<Health>) -> ManagerHooks {
        self.health = Some(health);
        self
    }
}

/// Measures `T_e` with a traced ERA run and derives the cost entry: exact
/// list footprints from a dry materialisation pass, `T_m`/`T_ta` estimated
/// as `unit_cost × predicted accesses` where `unit_cost` is ERA's measured
/// seconds per access.
fn measure_query(
    index: &TrexIndex,
    engine: &QueryEngine<'_>,
    nexi: &str,
    k: usize,
    runs: usize,
) -> Result<CachedCost> {
    let translation = engine.translate(nexi, Default::default())?;
    let (sids, terms) = (translation.sids.clone(), translation.terms.clone());

    // Exact footprints without writing: the scored entry lists a
    // materialisation would produce, priced with the tables' encoders.
    // Staged (unfolded) delta matches are appended before pricing: the
    // next fold will push them into these lists, so budget selection must
    // account for the bytes now, not discover them after the fold.
    let delta = index.delta();
    let ingest_epoch = delta.folded_docs() + delta.doc_count() as u64;
    let lists = collect_lists(index, &sids, &terms)?;
    let mut rpl_lists = Vec::new();
    let mut erpl_lists = Vec::new();
    let mut entry_counts = Vec::new();
    for &term in &terms {
        for &sid in &sids {
            let mut entries = lists.get(&(term, sid)).cloned().unwrap_or_default();
            for m in delta.matches(&[sid], &[term]) {
                let score = index.score(m.tf[0], term, m.element.length)?;
                entries.push((m.element, score));
            }
            rpl_lists.push(ListId {
                term,
                sid,
                bytes: list_size::<Rpl>(&entries).1,
            });
            erpl_lists.push(ListId {
                term,
                sid,
                bytes: list_size::<Erpl>(&entries).1,
            });
            entry_counts.push(entries.len() as u64);
        }
    }

    // Median-of-runs traced ERA measurement.
    let runs = runs.max(1);
    let mut times = Vec::with_capacity(runs);
    let mut era_accesses = 1u64;
    for _ in 0..runs {
        let start = Instant::now();
        let result = engine.evaluate_translated(
            translation.clone(),
            EvalOptions::new().k(k).strategy(Strategy::Era).trace(true),
        )?;
        times.push(start.elapsed());
        let trace = result.trace.expect("trace was requested");
        era_accesses = (trace.cost.sorted_accesses + trace.cost.random_accesses).max(1);
    }
    times.sort();
    let t_e = times[times.len() / 2].as_secs_f64();
    let unit = t_e / era_accesses as f64;

    let t_m = unit * predicted_merge_accesses(&entry_counts) as f64;
    let t_ta = unit * predicted_ta_accesses(&entry_counts, k);
    // TA is infeasible past its bitmask arity; a zero delta keeps the
    // solvers from ever choosing it.
    let delta_ta = if terms.len() > TA_MAX_TERMS {
        0.0
    } else {
        (t_e - t_ta).max(0.0)
    };

    Ok(CachedCost {
        t_e,
        delta_merge: (t_e - t_m).max(0.0),
        delta_ta,
        erpl_lists,
        rpl_lists,
        sids,
        terms,
        ingest_epoch,
    })
}

/// The per-cycle status line the background manager prints when
/// `SelfManageOptions::log_cycles` is on: what the cycle moved, where the
/// serving latency distribution sits (p50/p99 end-to-end), and how often
/// `Auto` had to fall back to ERA for lack of lists. Every partition sees
/// every query, so partition 0's histogram and profiler counters stand for
/// the system's.
fn log_cycle(system: &PartitionedSystem, cycle: &PartitionedCycle) {
    let first = system.part(0);
    let q = first.index().telemetry().query.query.snapshot();
    let sm = first.profiler().counters().snapshot();
    let rate = if sm.queries_profiled > 0 {
        100.0 * sm.era_fallbacks as f64 / sm.queries_profiled as f64
    } else {
        0.0
    };
    eprintln!(
        "self-manage cycle {}: +{}/-{} lists, {} bytes used; query p50 {:.3} ms p99 {:.3} ms \
         over {} queries, era fallback rate {:.1}% ({}/{})",
        sm.cycles,
        cycle.lists_materialized(),
        cycle.lists_dropped(),
        cycle.bytes_used(),
        q.percentile(0.50) as f64 / 1e6,
        q.percentile(0.99) as f64 / 1e6,
        q.count(),
        rate,
        sm.era_fallbacks,
        sm.queries_profiled,
    );
}

/// A handle to the background self-management thread. Stops (and joins) on
/// [`stop`](SelfManager::stop) or drop.
pub type SelfManager = BackgroundWorker<PartitionedCycle>;

impl BackgroundWorker<PartitionedCycle> {
    /// Starts the background reconcile loop: every `opts.interval`, one
    /// [`reconcile_partitioned`] cycle against the profilers' current
    /// workload — re-splitting the global `opts.budget_bytes` by current
    /// heat each time, so budget follows the workload as it shifts between
    /// partitions. Each completed cycle is recorded into `hooks.journal`,
    /// and `hooks.health`'s `reconciles_in_flight` gauge brackets it.
    ///
    /// Touches every partition's RPL/ERPL tables once up front so they
    /// exist before any concurrent serving starts (table creation is a
    /// structural store write that must not race readers).
    pub fn start(
        system: Arc<PartitionedSystem>,
        opts: SelfManageOptions,
        hooks: ManagerHooks,
    ) -> Result<SelfManager> {
        for part in system.parts() {
            part.index().rpls()?;
            part.index().erpls()?;
        }
        let mut caches: Vec<CostCache> =
            (0..system.partitions()).map(|_| CostCache::new()).collect();
        let mut cycle = 0u64;
        BackgroundWorker::spawn("trex-selfmanage", opts.interval, move || {
            cycle += 1;
            let _busy = hooks
                .health
                .as_ref()
                .map(|h| InFlight::enter(&h.reconciles_in_flight));
            let report = reconcile_partitioned(&system, &opts, &mut caches, cycle)?;
            if opts.log_cycles {
                log_cycle(&system, &report);
            }
            if let Some(journal) = &hooks.journal {
                journal.record(cycle_record(&report, opts.budget_bytes));
            }
            Ok(Some(report))
        })
    }
}
