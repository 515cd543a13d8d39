//! The self-managing advisor: profiles a workload, chooses which redundant
//! indexes to keep within the disk budget (LP or greedy), and reconciles the
//! store to the chosen set.
//!
//! "The actual time savings and disk space for typical queries should be
//! measured experimentally and assigned in the formulas" (paper §4.1) — the
//! advisor does exactly that: it materialises each workload query's lists,
//! measures `T_e`, `T_m`, `T_ta`, records `S_ERPL` / `S_RPL` from the list
//! registries, runs the selection algorithm, and finally drops every list
//! the selection did not keep.

use std::time::{Duration, Instant};

use trex_index::{ListFamily, ListTable, TrexIndex};
use trex_summary::Sid;
use trex_text::TermId;

use crate::engine::{EvalOptions, QueryEngine, Strategy};
use crate::materialize::{drop_unkept, materialize_batch, ListKind};
use crate::Result;

use super::cost::{Choice, ListId, QueryCost, Selection};
use super::greedy::solve_greedy;
use super::lp::solve_lp;
use super::workload::Workload;

/// Which selection algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionMethod {
    /// Exact boolean LP (branch-and-bound), §4.1. Small workloads only.
    Lp,
    /// Greedy 2-approximation, §4.2.
    #[default]
    Greedy,
}

/// Advisor options.
#[derive(Debug, Clone, Copy)]
pub struct AdvisorOptions {
    /// Disk budget `d` in bytes for the redundant lists.
    pub budget_bytes: u64,
    /// Selection algorithm.
    pub method: SelectionMethod,
    /// Timing runs per measurement; the median is used (the paper ran five
    /// and averaged the middle three).
    pub measure_runs: usize,
}

impl AdvisorOptions {
    /// Defaults: greedy, three timing runs.
    pub fn new(budget_bytes: u64) -> AdvisorOptions {
        AdvisorOptions {
            budget_bytes,
            method: SelectionMethod::Greedy,
            measure_runs: 3,
        }
    }
}

/// What the advisor did.
#[derive(Debug, Clone)]
pub struct AdvisorReport {
    /// Per-query decisions, aligned with the workload order.
    pub selection: Selection,
    /// The measured costs the decision was based on.
    pub costs: Vec<QueryCost>,
    /// Bytes of redundant lists kept on disk (shared-space accounting).
    pub bytes_used: u64,
    /// Expected per-workload-execution saving in seconds (`Σ f_i Δ_i`).
    pub expected_saving: f64,
    /// Lists dropped during reconciliation.
    pub lists_dropped: usize,
}

/// The self-managing advisor.
pub struct Advisor<'a> {
    index: &'a TrexIndex,
}

impl<'a> Advisor<'a> {
    /// An advisor over `index`.
    pub fn new(index: &'a TrexIndex) -> Advisor<'a> {
        Advisor { index }
    }

    /// Profiles every workload query: measures `T_e`, `T_m`, `T_ta` and the
    /// list sizes. Leaves every query's RPLs and ERPLs materialised (the
    /// reconciliation in [`Advisor::apply`] trims them afterwards), with one
    /// WAL checkpoint for the whole pass rather than one per query.
    pub fn profile(&self, workload: &Workload, runs: usize) -> Result<Vec<QueryCost>> {
        let engine = QueryEngine::new(self.index);
        let mut costs = Vec::with_capacity(workload.len());
        for wq in workload.queries() {
            let translation = engine.translate(&wq.nexi, Default::default())?;
            let (sids, terms) = (translation.sids.clone(), translation.terms.clone());

            // Make both redundant indexes available for this query; the
            // batch form defers the durability flush to the end of the pass.
            materialize_batch(self.index, &sids, &terms, ListKind::Both)?;

            let t_e = self.measure(runs, || {
                engine.evaluate_translated(
                    translation.clone(),
                    EvalOptions::new().k(wq.k).strategy(Strategy::Era),
                )
            })?;
            let t_m = self.measure(runs, || {
                engine.evaluate_translated(
                    translation.clone(),
                    EvalOptions::new().k(wq.k).strategy(Strategy::Merge),
                )
            })?;
            let t_ta = self.measure(runs, || {
                engine.evaluate_translated(
                    translation.clone(),
                    EvalOptions::new().k(wq.k).strategy(Strategy::Ta),
                )
            })?;

            costs.push(QueryCost {
                frequency: wq.frequency,
                measured_era: t_e.as_secs_f64(),
                delta_merge: (t_e.as_secs_f64() - t_m.as_secs_f64()).max(0.0),
                delta_ta: (t_e.as_secs_f64() - t_ta.as_secs_f64()).max(0.0),
                erpl_lists: registered(&self.index.erpls()?, &sids, &terms)?,
                rpl_lists: registered(&self.index.rpls()?, &sids, &terms)?,
            });
        }
        self.index.store().flush()?;
        Ok(costs)
    }

    fn measure<R>(&self, runs: usize, mut f: impl FnMut() -> Result<R>) -> Result<Duration> {
        let runs = runs.max(1);
        let mut times = Vec::with_capacity(runs);
        for _ in 0..runs {
            let start = Instant::now();
            f()?;
            times.push(start.elapsed());
        }
        times.sort();
        Ok(times[times.len() / 2])
    }

    /// Profiles, selects and reconciles: after this, exactly the lists the
    /// selection needs remain materialised.
    pub fn apply(&self, workload: &Workload, opts: AdvisorOptions) -> Result<AdvisorReport> {
        let costs = self.profile(workload, opts.measure_runs)?;
        let selection = match opts.method {
            SelectionMethod::Lp => solve_lp(&costs, opts.budget_bytes),
            SelectionMethod::Greedy => solve_greedy(&costs, opts.budget_bytes),
        };

        // Reconcile the store: keep exactly the selected lists.
        let mut rpls = self.index.rpls()?;
        let mut erpls = self.index.erpls()?;
        let mut dropped = 0usize;
        let kept = |family| selection.kept(&costs, family);
        drop_unkept(self.index, &mut rpls, &kept(Choice::Rpl), |_, _, _| {
            dropped += 1
        })?;
        drop_unkept(self.index, &mut erpls, &kept(Choice::Erpl), |_, _, _| {
            dropped += 1
        })?;
        self.index.store().flush()?;

        let bytes_used = rpls.total_bytes()? + erpls.total_bytes()?;
        let expected_saving = selection.saving(&costs);
        Ok(AdvisorReport {
            selection,
            costs,
            bytes_used,
            expected_saving,
            lists_dropped: dropped,
        })
    }
}

/// The materialised lists of one family among `terms × sids`, with their
/// registry sizes.
fn registered<F: ListFamily>(
    table: &ListTable<F>,
    sids: &[Sid],
    terms: &[TermId],
) -> Result<Vec<ListId>> {
    Ok(table
        .lists_of(sids, terms)?
        .into_iter()
        .map(|(term, sid, stats)| ListId {
            term,
            sid,
            bytes: stats.bytes,
        })
        .collect())
}
