//! Benches of the §4 selection algorithms (boolean LP vs greedy) on
//! synthetic cost instances, and of the end-to-end advisor pipeline (one
//! reconcile cycle over a fixed workload).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use trex::core::selfmanage::{solve_greedy, solve_lp, ListId, QueryCost};
use trex::corpus::Collection;
use trex::{SelfManageOptions, Workload};
use trex_bench::{build_collection, Scale};

/// Deterministic synthetic cost instances of `l` queries.
fn instance(l: usize) -> Vec<QueryCost> {
    let mut seed = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    (0..l)
        .map(|i| QueryCost {
            frequency: 1.0 / l as f64,
            measured_era: (next() % 2000) as f64 / 10.0,
            delta_merge: (next() % 1000) as f64 / 10.0,
            delta_ta: (next() % 1000) as f64 / 10.0,
            erpl_lists: vec![ListId {
                term: i as u32,
                sid: 0,
                bytes: next() % 10_000 + 1,
            }],
            rpl_lists: vec![ListId {
                term: i as u32,
                sid: 1,
                bytes: next() % 10_000 + 1,
            }],
        })
        .collect()
}

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection");
    group.sample_size(20);
    for l in [5usize, 10, 15] {
        let costs = instance(l);
        let budget: u64 = costs.iter().map(|q| q.s_erpl() + q.s_rpl()).sum::<u64>() / 3;
        group.bench_with_input(BenchmarkId::new("lp_exact", l), &l, |b, _| {
            b.iter(|| solve_lp(&costs, budget))
        });
        group.bench_with_input(BenchmarkId::new("greedy", l), &l, |b, _| {
            b.iter(|| solve_greedy(&costs, budget))
        });
    }
    // Greedy scales far beyond where the LP is sensible.
    for l in [100usize, 1000] {
        let costs = instance(l);
        let budget: u64 = costs.iter().map(|q| q.s_erpl() + q.s_rpl()).sum::<u64>() / 3;
        group.bench_with_input(BenchmarkId::new("greedy", l), &l, |b, _| {
            b.iter(|| solve_greedy(&costs, budget))
        });
    }
    group.finish();
}

fn bench_advisor_pipeline(c: &mut Criterion) {
    let sys = build_collection(Collection::Ieee, Scale::small().ieee_docs, true);
    let workload = Workload::from_weights(vec![
        (
            "//article//sec[about(., xml query evaluation)]".into(),
            2.0,
            10,
        ),
        ("//sec[about(., code signing verification)]".into(), 1.0, 10),
    ])
    .unwrap();
    let mut group = c.benchmark_group("advisor_pipeline");
    group.sample_size(10);
    let opts = SelfManageOptions::new(1 << 20);
    group.bench_function("profile_and_apply", |b| {
        b.iter(|| sys.advise(&workload, &opts).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_selection, bench_advisor_pipeline);
criterion_main!(benches);
