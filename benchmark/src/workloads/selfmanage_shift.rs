//! `selfmanage_shift`: the paper's loop. One client thread evaluates through
//! `TrexSystem::engine()` (profiler-wired) on a store that starts with no
//! redundant list and a budget under two fifths of what `hot_topk`
//! materialises. Ops draw Zipf(1.0) from the first 64 queries of
//! `Q` for the first half of the window and from the last 64 for the second
//! half; every `RECONCILE_EVERY` ops the load thread itself calls
//! `reconcile_once` (greedy, three timing runs) — no timer thread, so the
//! loop's cost sits in the window where `qps` sees it.
//!
//! Queries fall back to ERA until the advisor has materialised the hot
//! lists, then again after the hot set moves: `core::selfmanage` (profiler,
//! cost model, greedy selection) plus list build and drop under the write
//! gate move the numbers, and the budget makes space-for-time trades show.

use std::time::{Duration, Instant};

use trex::{
    reconcile_once, Answer, CostCache, EvalOptions, ReconcileReport, SelfManageOptions, TrexSystem,
};

use super::{
    build_path_metrics, build_single, era_truth, finish_trace, list_bytes, repeat_setup,
    set_common, Run,
};
use crate::inputs::{self, Query, DOCS};
use crate::metrics::Outcome;
use crate::spans::{in_request, Tracer};
use crate::stats::{self, nanos, Chunked};

/// Queries in each phase's hot set.
const HOT_SET: usize = 64;

/// The load thread reconciles after this many ops.
const RECONCILE_EVERY: usize = 100;

/// Redundant-list budget per byte of corpus XML: 749 KB on the 14.3 MB
/// corpus, under two fifths of the 1.9 MB `hot_topk` materialises for all of
/// `Q`. Fixed once: it holds one phase's hot lists (0.84 of it is used when a
/// phase has converged) but not both phases', so the second phase has to
/// drop lists of the first.
const BUDGET_PER_DOC_BYTE: f64 = 0.0525;

/// A window counts as converged when fewer than this share of its ops fell
/// back to ERA.
const CONVERGED_BELOW: f64 = 0.05;

/// Ops per phase in the traced run.
const TRACE_PHASE_OPS: usize = 3000;

/// One phase: which queries are hot and the rank draws over them.
struct Phase {
    hot: Vec<usize>,
    draws: Vec<usize>,
}

/// Rank r of a phase is the r-th query of its slice of `Q` on every seed:
/// at Zipf(1.0) the five most popular queries are half of all ops, so which
/// queries those are decides p50, and the seed draws only the sequence.
fn phases(seed: u64, q_len: usize) -> [Phase; 2] {
    let phase = |stream: u64, first: usize| Phase {
        hot: (first..first + HOT_SET).collect(),
        draws: inputs::zipf_ops(seed, stream, HOT_SET, 1 << 15),
    };
    [phase(1, 0), phase(2, q_len - HOT_SET)]
}

/// One `RECONCILE_EVERY`-op stretch, closed by a reconcile.
struct Stretch {
    phase: usize,
    ops: u64,
    fallbacks: u64,
}

/// Everything the load loop learns.
struct Loop {
    timed: Chunked,
    reports: Vec<ReconcileReport>,
    stretches: Vec<Stretch>,
    over_budget: Vec<u64>,
    reconcile_errors: Vec<String>,
}

/// When a phase ends: the untraced run goes by the clock, the traced run by
/// a fixed count, so that its counts repeat.
#[derive(Clone, Copy)]
enum PhaseLength {
    Seconds(f64),
    Ops(usize),
}

/// Runs both phases.
fn load_loop(
    system: &TrexSystem,
    q: &[Query],
    truth: &[Vec<Answer>],
    phases: &[Phase; 2],
    budget: u64,
    length: PhaseLength,
    mut tracer: Option<&mut Tracer>,
) -> Loop {
    let engine = system.engine();
    let counters = system.profiler().counters().clone();
    let opts = SelfManageOptions::new(budget)
        .measure_runs(3)
        .max_queries(HOT_SET);
    let mut cache = CostCache::new();
    let mut l = Loop {
        timed: Chunked::start(),
        reports: Vec::new(),
        stretches: Vec::new(),
        over_budget: Vec::new(),
        reconcile_errors: Vec::new(),
    };
    let mut request = 0u64;
    for (p, phase) in phases.iter().enumerate() {
        let phase_started = Instant::now();
        let mut fallbacks0 = counters.snapshot().era_fallbacks;
        let mut n = 0usize;
        loop {
            let done = match length {
                PhaseLength::Ops(ops) => n >= ops,
                PhaseLength::Seconds(s) => phase_started.elapsed().as_secs_f64() >= s,
            };
            if done {
                break;
            }
            let i = phase.hot[phase.draws[n % phase.draws.len()]];
            n += 1;
            request += 1;
            let op_started = Instant::now();
            let result = in_request(tracer.as_deref_mut(), request, "core.evaluate", || {
                engine.evaluate(&q[i].nexi, EvalOptions::new().k(q[i].k))
            });
            let elapsed = op_started.elapsed();
            l.timed.record(
                result
                    .is_ok_and(|r| r.answers == truth[i])
                    .then_some(nanos(elapsed)),
            );
            if n.is_multiple_of(RECONCILE_EVERY) {
                let fallbacks = counters.snapshot().era_fallbacks;
                l.stretches.push(Stretch {
                    phase: p,
                    ops: RECONCILE_EVERY as u64,
                    fallbacks: fallbacks - fallbacks0,
                });
                let span = tracer
                    .as_deref_mut()
                    .map(|t| t.enter("selfmanage.reconcile_once"));
                let report = reconcile_once(system.index(), system.profiler(), &opts, &mut cache);
                if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
                    t.exit(span);
                }
                match report {
                    Ok(report) => {
                        if report.bytes_used > budget {
                            l.over_budget.push(report.bytes_used);
                        }
                        l.reports.push(report);
                    }
                    Err(e) => l.reconcile_errors.push(e.to_string()),
                }
                // Reconcile's own timing runs are ERA, not fallbacks of the
                // load; count the next stretch from here.
                fallbacks0 = counters.snapshot().era_fallbacks;
            }
        }
    }
    l
}

pub fn run(run: &Run) -> Outcome {
    let q = inputs::query_pool();
    let phases = phases(run.seed, q.len());
    let setup = || {
        let built = build_single(&run.store_path(), DOCS, |_| {});
        // Warm the pool on an engine the profiler does not see.
        let engine = trex::QueryEngine::new(built.system.index());
        for phase in &phases {
            for &i in &phase.hot {
                engine
                    .evaluate(&q[i].nexi, EvalOptions::new().k(q[i].k))
                    .expect("warm-up query");
            }
        }
        built
    };
    // The store changes while this workload runs: the whole window on one
    // instance, the last.
    let (ready, setup_s) = repeat_setup(run, setup, |_, _| {});
    let mut out = Outcome::default();
    let truth = era_truth(&ready.system, &q);
    let budget = (ready.doc_bytes as f64 * BUDGET_PER_DOC_BYTE) as u64;

    let mut tracer = Tracer::new(Instant::now());
    let l = if run.trace {
        load_loop(
            &ready.system,
            &q,
            &truth,
            &phases,
            budget,
            PhaseLength::Ops(TRACE_PHASE_OPS),
            Some(&mut tracer),
        )
    } else {
        load_loop(
            &ready.system,
            &q,
            &truth,
            &phases,
            budget,
            PhaseLength::Seconds(run.seconds / 2.0),
            None,
        )
    };

    out.check(l.reconcile_errors.is_empty(), || {
        format!("reconcile failed: {:?}", l.reconcile_errors)
    });
    out.check(l.over_budget.is_empty(), || {
        format!(
            "lists exceeded the {budget}-byte budget: {:?}",
            l.over_budget
        )
    });
    out.check(!l.reports.is_empty(), || {
        "no reconcile cycle ran".to_string()
    });
    report_loop(&mut out, &l, budget);
    out.set_query_metrics(l.timed);
    if run.trace {
        out.set("index.list_bytes", list_bytes(ready.system.index()) as f64);
        build_path_metrics(&mut out, DOCS as f64 / ready.build_s);
        // The lists change while this workload runs, so an untraced pass
        // before the traced one would not be the same work.
        finish_trace(&mut out, run, &tracer);
    }
    set_common(&mut out, run, setup_s, ready.doc_bytes);
    out
}

fn report_loop(out: &mut Outcome, l: &Loop, budget: u64) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let walls: Vec<f64> = l.reports.iter().map(|r| ms(r.wall)).collect();
    out.set("selfmanage.cycles", l.reports.len() as f64);
    out.set_n(
        "selfmanage.reconcile_wall_ms_p50",
        stats::median(&walls).unwrap_or(0.0),
        walls.len() as u64,
    );
    out.set(
        "selfmanage.gate_pause_ms_max",
        l.reports
            .iter()
            .map(|r| ms(r.gate_pause))
            .fold(0.0, f64::max),
    );
    let sum = |f: fn(&ReconcileReport) -> usize| l.reports.iter().map(f).sum::<usize>() as f64;
    out.set(
        "selfmanage.lists_materialized",
        sum(|r| r.lists_materialized),
    );
    out.set("selfmanage.lists_dropped", sum(|r| r.lists_dropped));
    let peak = l.reports.iter().map(|r| r.bytes_used).max().unwrap_or(0);
    out.set(
        "selfmanage.bytes_used_ratio",
        peak as f64 / budget.max(1) as f64,
    );

    // Per phase: the fallback share of its last stretch, and how many ops
    // ran before the first converged stretch ended.
    let mut worst_final = 0.0f64;
    for (p, metric) in [
        (0, "selfmanage.ops_to_converge_p1"),
        (1, "selfmanage.ops_to_converge_p2"),
    ] {
        let stretches: Vec<&Stretch> = l.stretches.iter().filter(|s| s.phase == p).collect();
        let ratio = |s: &Stretch| s.fallbacks as f64 / s.ops.max(1) as f64;
        let mut ops = 0u64;
        let mut converged_after = None;
        for s in &stretches {
            ops += s.ops;
            if converged_after.is_none() && ratio(s) < CONVERGED_BELOW {
                converged_after = Some(ops);
            }
        }
        // Never converged: every op of the phase, so a later gain shows as a drop.
        out.set_n(
            metric,
            converged_after.unwrap_or(ops) as f64,
            stretches.len() as u64,
        );
        worst_final = worst_final.max(stretches.last().map_or(1.0, |s| ratio(s)));
    }
    out.set("selfmanage.era_fallback_ratio", worst_final);
}
