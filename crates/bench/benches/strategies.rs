//! Criterion benches regenerating the Figures 4–6 measurements: one group
//! per paper figure panel (query), benchmarking ERA, Merge, TA and ITA-proxy
//! at representative k values.
//!
//! These run at [`Scale::small`] so `cargo bench` completes quickly; the
//! `experiments` binary runs the full sweep at the default scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use trex::corpus::{Collection, PAPER_QUERIES};
use trex::{EvalOptions, ListKind, Strategy, TrexSystem};
use trex_bench::{build_collection, Scale};

fn system(collection: Collection) -> TrexSystem {
    let scale = Scale::small();
    let docs = match collection {
        Collection::Ieee => scale.ieee_docs,
        Collection::Wiki => scale.wiki_docs,
    };
    build_collection(collection, docs, true)
}

fn figure_group(c: &mut Criterion, figure: &str, query_id: u32) {
    let q = trex::corpus::paper_query(query_id).expect("known query");
    let sys = system(q.collection);
    sys.materialize_for(q.nexi, ListKind::Both)
        .expect("materialize");
    let engine = sys.engine();
    let translation = engine
        .translate(q.nexi, Default::default())
        .expect("translate");
    let total = engine
        .evaluate_translated(
            translation.clone(),
            EvalOptions::new().strategy(Strategy::Era),
        )
        .expect("era")
        .total_answers
        .max(1);

    let mut group = c.benchmark_group(format!("{figure}_q{query_id}"));
    group.sample_size(10);

    group.bench_function("era_all", |b| {
        b.iter(|| {
            engine
                .evaluate_translated(
                    translation.clone(),
                    EvalOptions::new().strategy(Strategy::Era),
                )
                .unwrap()
        })
    });
    group.bench_function("merge_all", |b| {
        b.iter(|| {
            engine
                .evaluate_translated(
                    translation.clone(),
                    EvalOptions::new().strategy(Strategy::Merge),
                )
                .unwrap()
        })
    });
    for k in [1usize, 10, total] {
        group.bench_with_input(BenchmarkId::new("ta", k), &k, |b, &k| {
            b.iter(|| {
                engine
                    .evaluate_translated(
                        translation.clone(),
                        EvalOptions::new().k(k).strategy(Strategy::Ta),
                    )
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn fig4(c: &mut Criterion) {
    figure_group(c, "fig4", 202);
    figure_group(c, "fig4", 203);
}

fn fig5(c: &mut Criterion) {
    figure_group(c, "fig5", 260);
    figure_group(c, "fig5", 270);
}

fn fig6(c: &mut Criterion) {
    figure_group(c, "fig6", 233);
    figure_group(c, "fig6", 290);
    figure_group(c, "fig6", 292);
}

/// Table 1 regeneration as a bench (translation + exhaustive evaluation).
fn table1(c: &mut Criterion) {
    let ieee = system(Collection::Ieee);
    let wiki = system(Collection::Wiki);
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    for q in PAPER_QUERIES {
        let sys = match q.collection {
            Collection::Ieee => &ieee,
            Collection::Wiki => &wiki,
        };
        group.bench_function(BenchmarkId::new("era_all", q.id), |b| {
            b.iter(|| sys.search_with(q.nexi, None, Strategy::Era).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, fig4, fig5, fig6, table1);
criterion_main!(benches);
