//! Integration tests of the self-managing layer against a real index:
//! pricing, selection under budgets, and store reconciliation, through
//! `TrexSystem::advise` — one reconcile cycle over a given workload.

use trex::core::QueryCost;
use trex::corpus::{CorpusConfig, IeeeGenerator};
use trex::{
    ListKind, PartitionedCycle, SelectionMethod, SelfManageOptions, Strategy, TrexConfig,
    TrexSystem, Workload,
};

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("trex-sm-{name}-{}.db", std::process::id()))
}

fn build(name: &str, docs: usize) -> (TrexSystem, std::path::PathBuf) {
    build_partitioned(name, docs, 1)
}

fn build_partitioned(
    name: &str,
    docs: usize,
    partitions: usize,
) -> (TrexSystem, std::path::PathBuf) {
    let store = temp(name);
    let system = TrexSystem::build_partitioned(
        TrexConfig::new(&store),
        partitions,
        IeeeGenerator::new(CorpusConfig {
            docs,
            ..CorpusConfig::ieee_default()
        })
        .documents(),
    )
    .unwrap();
    (system, store)
}

/// One reconcile cycle of `workload` under `budget`.
fn advise(
    system: &TrexSystem,
    workload: &Workload,
    budget: u64,
    method: SelectionMethod,
) -> PartitionedCycle {
    let opts = SelfManageOptions::new(budget).method(method);
    system.advise(workload, &opts).unwrap()
}

/// The single store's costs of `workload`, priced by a cycle at budget 0
/// (which writes nothing).
fn costs(system: &TrexSystem, workload: &Workload) -> Vec<QueryCost> {
    let cycle = advise(system, workload, 0, SelectionMethod::Greedy);
    cycle.reports.into_iter().next().unwrap().costs
}

fn workload() -> Workload {
    Workload::from_weights(vec![
        (
            "//article//sec[about(., xml query evaluation)]".into(),
            3.0,
            10,
        ),
        ("//sec[about(., code signing verification)]".into(), 1.0, 10),
    ])
    .unwrap()
}

/// Runs every supported query with the strategy its choice enables.
fn run_supported(system: &TrexSystem, workload: &Workload, cycle: &PartitionedCycle) {
    for (wq, choice) in workload
        .queries()
        .iter()
        .zip(&cycle.reports[0].selection.choices)
    {
        let strategy = match choice {
            trex::core::Choice::Erpl => Strategy::Merge,
            trex::core::Choice::Rpl => Strategy::Ta,
            trex::core::Choice::None => continue,
        };
        system.search_with(&wq.nexi, Some(wq.k), strategy).unwrap();
    }
}

#[test]
fn profile_measures_costs_and_list_sizes() {
    let (system, store) = build("profile", 60);
    let costs = costs(&system, &workload());
    assert_eq!(costs.len(), 2);
    for c in &costs {
        assert!(c.frequency > 0.0);
        assert!(c.delta_merge >= 0.0 && c.delta_ta >= 0.0);
        assert!(!c.rpl_lists.is_empty());
        assert!(!c.erpl_lists.is_empty());
        assert!(c.s_rpl() > 0);
        assert!(c.s_erpl() > 0);
    }
    // Pricing wrote nothing.
    assert_eq!(system.index().rpls().unwrap().total_bytes().unwrap(), 0);
    assert_eq!(system.index().erpls().unwrap().total_bytes().unwrap(), 0);
    std::fs::remove_file(&store).ok();
}

#[test]
fn generous_budget_supports_every_query() {
    let (system, store) = build("generous", 60);
    let cycle = advise(
        &system,
        &workload(),
        64 * 1024 * 1024,
        SelectionMethod::Greedy,
    );
    let choices = &cycle.reports[0].selection.choices;
    assert!(
        choices.iter().all(|c| *c != trex::core::Choice::None),
        "every query should be supported: {choices:?}"
    );
    // The supported strategies must now actually run.
    run_supported(&system, &workload(), &cycle);
    std::fs::remove_file(&store).ok();
}

#[test]
fn zero_budget_drops_everything() {
    let (system, store) = build("zero", 40);
    // Materialise something first so reconciliation has work to do.
    system
        .materialize_for("//article//sec[about(., xml)]", ListKind::Both)
        .unwrap();
    let cycle = advise(&system, &workload(), 0, SelectionMethod::Greedy);
    assert!(cycle.reports[0]
        .selection
        .choices
        .iter()
        .all(|c| *c == trex::core::Choice::None));
    assert_eq!(cycle.bytes_used(), 0, "reconciliation must drop all lists");
    assert!(cycle.lists_dropped() > 0);
    // TA now fails (no RPLs), ERA still works.
    assert!(system
        .search_with(
            "//article//sec[about(., xml query evaluation)]",
            Some(5),
            Strategy::Ta
        )
        .is_err());
    assert!(system
        .search_with(
            "//article//sec[about(., xml query evaluation)]",
            Some(5),
            Strategy::Era
        )
        .is_ok());
    std::fs::remove_file(&store).ok();
}

#[test]
fn budget_is_respected_by_both_methods() {
    let (system, store) = build("budget", 60);
    let costs = costs(&system, &workload());
    // A budget that fits only the smaller query's lists.
    let smaller = costs
        .iter()
        .map(|c| c.s_erpl().min(c.s_rpl()))
        .min()
        .unwrap();
    let budget = smaller + smaller / 2;
    for method in [SelectionMethod::Greedy, SelectionMethod::Lp] {
        let cycle = advise(&system, &workload(), budget, method);
        assert!(
            cycle.bytes_used() <= budget,
            "{method:?}: used {} > budget {budget}",
            cycle.bytes_used()
        );
    }
    std::fs::remove_file(&store).ok();
}

#[test]
fn lp_never_beats_more_than_twice_greedy() {
    // Theorem 4.2 on a *real* priced instance (not just synthetic costs).
    let (system, store) = build("thm", 60);
    let costs = costs(&system, &workload());
    let total: u64 = costs.iter().map(|c| c.s_erpl() + c.s_rpl()).sum();
    for budget in [total / 8, total / 4, total / 2, total] {
        let greedy = trex::core::selfmanage::solve_greedy(&costs, budget);
        let lp = trex::core::selfmanage::solve_lp(&costs, budget);
        let g = greedy.saving(&costs);
        let o = lp.saving(&costs);
        assert!(
            o <= 2.0 * g + 1e-12,
            "budget {budget}: lp {o} > 2×greedy {g}"
        );
    }
    std::fs::remove_file(&store).ok();
}

#[test]
fn materialisation_batches_checkpoints() {
    // Regression: `materialize` used to flush once per list kind (two WAL
    // checkpoints per call). The batch form defers durability to its
    // caller, and a reconcile cycle checkpoints once iff it changed lists.
    use trex::core::{materialize, materialize_batch};

    let (system, store) = build("ckpt", 40);
    let engine = system.engine();
    let translation = engine
        .translate(
            "//article//sec[about(., xml query evaluation)]",
            Default::default(),
        )
        .unwrap();
    let (sids, terms) = (translation.sids, translation.terms);
    let checkpoints = || system.index().store().counters().checkpoints.get();

    let before = checkpoints();
    materialize_batch(system.index(), &sids, &terms, ListKind::Both).unwrap();
    assert_eq!(checkpoints() - before, 0, "batch form must not checkpoint");

    let before = checkpoints();
    materialize(system.index(), &sids, &terms, ListKind::Both).unwrap();
    assert_eq!(
        checkpoints() - before,
        1,
        "direct materialize checkpoints exactly once"
    );

    let budget = 64 * 1024 * 1024;
    let before = checkpoints();
    let cycle = advise(&system, &workload(), budget, SelectionMethod::Greedy);
    assert!(cycle.lists_materialized() + cycle.lists_dropped() > 0);
    assert_eq!(
        checkpoints() - before,
        1,
        "a pass that changes lists checkpoints once"
    );

    let before = checkpoints();
    let cycle = advise(&system, &workload(), budget, SelectionMethod::Greedy);
    assert_eq!(cycle.lists_materialized() + cycle.lists_dropped(), 0);
    assert_eq!(
        checkpoints() - before,
        0,
        "a pass that changes nothing does not checkpoint"
    );
    std::fs::remove_file(&store).ok();
}

#[test]
fn advisor_handles_random_workloads() {
    use trex::corpus::{random_workload, Collection};

    let (system, store) = build("random-wl", 60);
    let entries = random_workload(Collection::Ieee, 6, 42);
    let workload = Workload::from_weights(entries).unwrap();
    let costs = costs(&system, &workload);
    assert_eq!(costs.len(), 6);
    let total: u64 = costs.iter().map(|c| c.s_erpl() + c.s_rpl()).sum();
    for budget in [total / 4, total] {
        let cycle = advise(&system, &workload, budget, SelectionMethod::Greedy);
        assert!(cycle.bytes_used() <= budget);
        // Every supported query must actually run with its chosen strategy.
        run_supported(&system, &workload, &cycle);
    }
    std::fs::remove_file(&store).ok();
}

#[test]
fn advise_never_writes_past_the_budget() {
    for partitions in [1, 2] {
        let (system, store) = build_partitioned("invariant", 60, partitions);
        // A store without lists, and a quarter of what the workload's
        // lists would take, priced by a cycle at budget 0.
        let priced = advise(&system, &workload(), 0, SelectionMethod::Greedy);
        let costs = priced.reports.iter().flat_map(|r| &r.costs);
        let budget = costs.map(|c| c.s_erpl() + c.s_rpl()).sum::<u64>() / 4;
        let cycle = advise(&system, &workload(), budget, SelectionMethod::Greedy);
        assert_eq!(cycle.reports.len(), partitions);
        for (i, report) in cycle.reports.iter().enumerate() {
            assert!(report.lists_materialized > 0, "partition {i}: {report:?}");
        }
        assert_eq!(cycle.lists_dropped(), 0, "nothing to drop: {cycle:?}");
        let added: u64 = cycle
            .reports
            .iter()
            .flat_map(|r| &r.deltas)
            .filter(|d| d.action == "add")
            .map(|d| d.bytes)
            .sum();
        assert!(added <= budget, "wrote {added} bytes > budget {budget}");
        assert!(
            cycle.bytes_used() <= budget,
            "kept {} bytes > budget {budget}",
            cycle.bytes_used()
        );
        std::fs::remove_file(&store).ok();
        for i in 0..partitions {
            std::fs::remove_file(trex::partition_store_path(&store, i)).ok();
        }
    }
}
