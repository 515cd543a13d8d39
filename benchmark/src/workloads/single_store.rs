//! `hot_topk` and `cold_era`: one client thread, closed loop,
//! `QueryEngine::evaluate(q, k, Strategy::Auto)` over `Q` on one store.
//!
//! They differ only in what the store holds and how much of it fits the
//! pool. `hot_topk` has RPLs and ERPLs for every query and the default pool
//! (everything resident): `core`'s TA/Merge and `index` block decode do the
//! work, `storage` almost none. `cold_era` has no redundant list and a 1 MiB
//! pool under a ~10 MB store: every query is ERA over postings and elements
//! through pool misses — the control on which a list-side change must show
//! nothing.

use std::time::Instant;

use trex::{Answer, EvalOptions, QueryEngine, Strategy, TrexConfig, TrexSystem};

use super::{
    add_window, build_path_metrics, build_single, closed_loop, era_truth, finish_trace, list_bytes,
    materialize_all, repeat_setup, set_common, Built, Run,
};
use crate::inputs::{self, Query, DOCS};
use crate::metrics::Outcome;
use crate::spans::Tracer;
use crate::stats::{nanos, Chunked, Samples};

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Hot,
    Cold,
}

/// `cold_era`'s pool: 128 pages of 8 KiB.
const COLD_POOL_PAGES: usize = 128;

/// Passes over `Q` in the traced run, untraced then traced.
const TRACE_PASSES: usize = 3;

fn open_cold(run: &Run) -> TrexSystem {
    let mut config = TrexConfig::new(run.store_path());
    config.pool_pages = COLD_POOL_PAGES;
    TrexSystem::open(config).expect("reopen the store with the small pool")
}

fn warm_up(system: &TrexSystem, q: &[Query], ops: &[usize]) {
    let engine = QueryEngine::new(system.index());
    for &i in ops {
        engine
            .evaluate(&q[i].nexi, EvalOptions::new().k(q[i].k))
            .expect("warm-up query");
    }
}

/// Build, materialise (hot) or reopen small (cold), one warm-up pass.
pub fn set_up(run: &Run, kind: Kind, q: &[Query], ops: &[usize]) -> Built {
    let mut built = build_single(&run.store_path(), DOCS, |_| {});
    match kind {
        Kind::Hot => materialize_all(built.system.index(), q),
        Kind::Cold => reopen(&mut built, || open_cold(run)),
    }
    warm_up(&built.system, q, ops);
    built
}

/// Swaps the open view of the store for another. The new view opens before
/// the old one closes; the store is clean (built, flushed, only read since),
/// so neither has anything to recover or write.
fn reopen(built: &mut Built, open: impl FnOnce() -> TrexSystem) {
    built.system = open();
}

/// ERA ground truth from a default-pool view of the store. `cold_era`'s
/// store is reopened for it, so that the answers checked under eviction come
/// from a run without any; its 128-page pool is warm again within the first
/// queries of the window.
fn truth(run: &Run, kind: Kind, built: &mut Built, q: &[Query]) -> Vec<Vec<Answer>> {
    if kind == Kind::Cold {
        reopen(built, || {
            TrexSystem::open(TrexConfig::new(run.store_path())).expect("reopen roomy")
        });
    }
    let truth = era_truth(&built.system, q);
    if kind == Kind::Cold {
        reopen(built, || open_cold(run));
    }
    truth
}

pub fn run(run: &Run, kind: Kind) -> Outcome {
    let q = inputs::query_pool();
    let ops = inputs::shuffled_ops(run.seed, q.len());
    // The corpus is the same on every instance, and so is the truth.
    let mut truth: Option<Vec<Vec<Answer>>> = None;
    let mut timed = None;
    let (ready, setup_s) = repeat_setup(
        run,
        || set_up(run, kind, &q, &ops),
        |ready, seconds| {
            let truth = truth.get_or_insert_with(|| self::truth(run, kind, ready, &q));
            if run.trace {
                return;
            }
            // The gate is on every op: Auto (TA/Merge over the lists on
            // `hot_topk`) must return ERA's answers byte for byte.
            let engine = QueryEngine::new(ready.system.index());
            let window = closed_loop(seconds, &ops, truth, |i| {
                engine
                    .evaluate(&q[i].nexi, EvalOptions::new().k(q[i].k))
                    .map(|r| r.answers)
                    .map_err(|e| e.to_string())
            });
            add_window(&mut timed, window);
        },
    );
    let truth = truth.expect("every instance saw the truth");
    let mut out = Outcome::default();
    match timed {
        Some(timed) => out.set_query_metrics(timed),
        None => traced(run, kind, &ready, &q, &ops, &truth, &mut out),
    }
    set_common(&mut out, run, setup_s, ready.doc_bytes);
    out
}

/// Counter sums of a traced pass. `queries` are the client's queries;
/// `partition_scatter` makes several engine runs for each.
#[derive(Default)]
pub struct LayerSums {
    pub queries: u64,
    runs: u64,
    pub answers: u64,
    pub by_strategy: [u64; 3],
    pub cost: trex::obs::CostUnits,
    pub candidates_peak: Vec<f64>,
    pub index: trex::obs::IndexSnapshot,
    pub storage: trex::obs::StorageSnapshot,
}

impl LayerSums {
    /// One engine run on behalf of a query already counted in `queries`.
    pub fn add_run(&mut self, result: &trex::QueryResult) {
        self.runs += 1;
        match result.stats.name() {
            "ta" => self.by_strategy[0] += 1,
            "merge" => self.by_strategy[1] += 1,
            _ => self.by_strategy[2] += 1,
        }
        if let Some(trace) = &result.trace {
            self.cost.sorted_accesses += trace.cost.sorted_accesses;
            self.cost.random_accesses += trace.cost.random_accesses;
            self.cost.heap_pushes += trace.cost.heap_pushes;
            self.candidates_peak.push(trace.cost.candidates_peak as f64);
            self.index = self.index.sum(&trace.index);
            self.storage = self.storage.sum(&trace.storage);
        }
    }

    /// A query answered by a single engine run.
    pub fn add(&mut self, result: &trex::QueryResult) {
        self.queries += 1;
        self.answers += result.answers.len() as u64;
        self.add_run(result);
    }

    fn pool_hit_ratio(&self) -> f64 {
        let st = &self.storage;
        st.pool_hits as f64 / (st.pool_hits + st.pool_misses).max(1) as f64
    }

    pub fn entries_decoded(&self) -> u64 {
        self.index.rpl_entries + self.index.erpl_entries + self.index.posting_entries
    }

    /// The `core`, `index` and `storage` count metrics, per query.
    pub fn report(&self, out: &mut Outcome) {
        let n = self.queries.max(1) as f64;
        let per_query = |v: u64| v as f64 / n;
        let share = |v: u64| v as f64 / self.runs.max(1) as f64;
        out.set_n("core.auto_share_ta", share(self.by_strategy[0]), self.runs);
        out.set_n(
            "core.auto_share_merge",
            share(self.by_strategy[1]),
            self.runs,
        );
        out.set_n("core.auto_share_era", share(self.by_strategy[2]), self.runs);
        out.set(
            "core.sorted_accesses_per_query",
            per_query(self.cost.sorted_accesses),
        );
        out.set(
            "core.random_accesses_per_query",
            per_query(self.cost.random_accesses),
        );
        out.set(
            "core.heap_pushes_per_query",
            per_query(self.cost.heap_pushes),
        );
        out.set_n(
            "core.candidates_peak_p50",
            crate::stats::median(&self.candidates_peak).unwrap_or(0.0),
            self.queries,
        );
        let ix = &self.index;
        out.set("index.rpl_entries_per_query", per_query(ix.rpl_entries));
        out.set("index.rpl_blocks_per_query", per_query(ix.rpl_blocks));
        out.set("index.erpl_entries_per_query", per_query(ix.erpl_entries));
        out.set("index.erpl_blocks_per_query", per_query(ix.erpl_blocks));
        out.set(
            "index.posting_entries_per_query",
            per_query(ix.posting_entries),
        );
        out.set(
            "index.bytes_decoded_per_query",
            per_query(ix.rpl_bytes + ix.erpl_bytes + ix.posting_bytes),
        );
        out.set(
            "index.useful_entry_ratio",
            self.answers as f64 / self.entries_decoded().max(1) as f64,
        );
        let st = &self.storage;
        out.set("storage.pool_hit_ratio", self.pool_hit_ratio());
        out.set("storage.page_reads_per_query", per_query(st.page_reads));
        out.set(
            "storage.pool_evictions_per_query",
            per_query(st.pool_evictions),
        );
        out.set(
            "storage.btree_node_visits_per_query",
            per_query(st.btree_node_visits),
        );
        out.set("storage.cursor_steps_per_query", per_query(st.cursor_steps));
    }
}

/// Times `evaluate_translated` per forced strategy over `Q`; a strategy whose
/// lists the store lacks stays unreported (0).
fn forced_strategy_timings(engine: &QueryEngine<'_>, q: &[Query], out: &mut Outcome) {
    let translated: Vec<_> = q
        .iter()
        .filter_map(|query| {
            let translation = engine.translate(&query.nexi, Default::default()).ok()?;
            Some((translation, query.k))
        })
        .collect();
    for (metric, strategy) in [
        ("core.ta_us_p50", Strategy::Ta),
        ("core.merge_us_p50", Strategy::Merge),
        ("core.era_us_p50", Strategy::Era),
    ] {
        let mut samples = Samples::new();
        for (translation, k) in &translated {
            let opts = EvalOptions::new().k(*k).strategy(strategy);
            let started = Instant::now();
            if engine
                .evaluate_translated(translation.clone(), opts)
                .is_ok()
            {
                samples.push_elapsed(started);
            }
        }
        out.set_n(metric, samples.p50_us(), samples.len() as u64);
    }
}

/// Fixed-count passes, so every count repeats exactly: first untraced, then
/// the same ops with a span around each call into `nexi` and `core` and the
/// engine's own per-query counter deltas switched on.
fn traced(
    run: &Run,
    kind: Kind,
    ready: &Built,
    q: &[Query],
    ops: &[usize],
    truth: &[Vec<Answer>],
    out: &mut Outcome,
) {
    let engine = QueryEngine::new(ready.system.index());

    let mut untraced = Chunked::start();
    let started = Instant::now();
    for _ in 0..TRACE_PASSES {
        for &i in ops {
            let op_started = Instant::now();
            let result = engine.evaluate(&q[i].nexi, EvalOptions::new().k(q[i].k));
            let elapsed = nanos(op_started.elapsed());
            untraced.record(
                result
                    .is_ok_and(|r| r.answers == truth[i])
                    .then_some(elapsed),
            );
        }
    }
    let untraced_s = started.elapsed().as_secs_f64();
    out.set_query_metrics(untraced);

    let mut tracer = Tracer::new(Instant::now());
    let mut sums = LayerSums::default();
    let mut translate = Samples::new();
    let mut request = 0u64;
    let started = Instant::now();
    for _ in 0..TRACE_PASSES {
        for &i in ops {
            request += 1;
            let root = tracer.request(request);
            let span = tracer.enter("nexi.translate");
            let op_started = Instant::now();
            let translation = engine.translate(&q[i].nexi, Default::default());
            translate.push_elapsed(op_started);
            tracer.exit(span);
            let span = tracer.enter("core.evaluate");
            let result = translation.and_then(|t| {
                engine.evaluate_translated(t, EvalOptions::new().k(q[i].k).trace(true))
            });
            tracer.exit(span);
            tracer.exit(root);
            if let Ok(r) = &result {
                sums.add(r);
            }
            out.check(result.is_ok_and(|r| r.answers == truth[i]), || {
                format!("traced pass: wrong answers for {}", q[i].nexi)
            });
        }
    }
    let traced_s = started.elapsed().as_secs_f64();

    sums.report(out);
    out.set_n(
        "nexi.translate_us_p50",
        translate.p50_us(),
        translate.len() as u64,
    );
    forced_strategy_timings(&engine, q, out);
    out.set("index.list_bytes", list_bytes(ready.system.index()) as f64);
    build_path_metrics(out, DOCS as f64 / ready.build_s);
    // Same ops both times, so the throughput ratio is the time ratio.
    out.set("trace.overhead_ratio", untraced_s / traced_s);
    finish_trace(out, run, &tracer);

    // The bypass each workload exists for, checked rather than hoped for.
    match kind {
        Kind::Hot => {
            let hit = sums.pool_hit_ratio();
            out.check(hit >= 0.99, || {
                format!("hot_topk should run from the pool, hit ratio {hit}")
            });
        }
        Kind::Cold => {
            let list_entries = sums.index.rpl_entries + sums.index.erpl_entries;
            out.check(list_entries == 0, || {
                format!("cold_era has no redundant list, yet decoded {list_entries} list entries")
            });
        }
    }
}
