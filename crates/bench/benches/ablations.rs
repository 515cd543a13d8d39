//! Ablation benches for the design choices DESIGN.md calls out:
//! summary kind, buffer-pool capacity, and TA's heap-measurement clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use trex::corpus::{CorpusConfig, IeeeGenerator};
use trex::{
    AliasMap, Analyzer, EvalOptions, ListKind, Strategy, SummaryKind, TrexConfig, TrexSystem,
};
use trex_bench::store_dir;

const DOCS: usize = 120;
const QUERY: &str = "//article//sec[about(., xml query evaluation)]";

fn build_with(name: &str, summary: SummaryKind, pool_pages: usize) -> TrexSystem {
    let path = store_dir().join(format!("ablation-{name}.db"));
    let _ = std::fs::remove_file(&path);
    let mut config = TrexConfig::new(&path);
    config.summary = summary;
    config.pool_pages = pool_pages;
    config.alias = AliasMap::inex_ieee();
    config.analyzer = Analyzer::default();
    let gen = IeeeGenerator::new(CorpusConfig {
        docs: DOCS,
        ..CorpusConfig::ieee_default()
    });
    TrexSystem::build(config, gen.documents()).expect("build")
}

/// Summary choice: coarser partitions translate //article//sec to fewer,
/// larger extents. ERA cost tracks the number and size of the extents
/// scanned. Only nesting-free summaries can serve retrieval (the Tag and
/// k=1 partitions nest `sec` inside `sec` on this corpus and are rejected
/// by the engine), so the ablation compares the incoming summary against
/// k-suffix summaries with k = 2 and 3.
fn ablation_summary(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_summary");
    group.sample_size(10);
    for (name, kind) in [
        ("incoming", SummaryKind::Incoming),
        ("ksuffix2", SummaryKind::KSuffix(2)),
        ("ksuffix3", SummaryKind::KSuffix(3)),
    ] {
        let sys = build_with(&format!("summary-{name}"), kind, 4096);
        if !sys.index().summary().is_nesting_free() {
            eprintln!("skipping {name}: summary has nested extents");
            continue;
        }
        group.bench_function(BenchmarkId::new("era", name), |b| {
            b.iter(|| sys.search_with(QUERY, None, Strategy::Era).unwrap())
        });
    }
    group.finish();
}

/// Buffer-pool capacity: a pool too small for the working set forces
/// re-reads during the zig-zag ERA scan.
fn ablation_buffer(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_buffer");
    group.sample_size(10);
    for pages in [16usize, 256, 4096] {
        let sys = build_with(&format!("buffer-{pages}"), SummaryKind::Incoming, pages);
        group.bench_function(BenchmarkId::new("era", pages), |b| {
            b.iter(|| sys.search_with(QUERY, None, Strategy::Era).unwrap())
        });
    }
    group.finish();
}

/// Heap clock: TA with and without the pause-the-stopwatch bracketing
/// that derives ITA's time (§5.2), so the clock's own overhead shows.
fn ablation_heap(c: &mut Criterion) {
    let sys = build_with("heap", SummaryKind::Incoming, 4096);
    sys.materialize_for(QUERY, ListKind::Rpl).unwrap();
    let engine = sys.engine();
    let translation = engine.translate(QUERY, Default::default()).unwrap();

    let mut group = c.benchmark_group("ablation_heap");
    group.sample_size(10);
    for (name, measure_heap) in [("clocked", true), ("unclocked", false)] {
        group.bench_function(BenchmarkId::new("ta_k10", name), |b| {
            b.iter(|| {
                engine
                    .evaluate_translated(
                        translation.clone(),
                        EvalOptions::new()
                            .k(10)
                            .strategy(Strategy::Ta)
                            .measure_heap(measure_heap),
                    )
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, ablation_summary, ablation_buffer, ablation_heap);
criterion_main!(benches);
