//! The self-managing advisor (paper §4): give TReX a workload and a disk
//! budget; one reconcile cycle prices per-query savings, solves the
//! selection problem (greedy and exact LP), writes the chosen RPL/ERPL
//! lists that are missing, and drops the rest; no write takes the list
//! bytes past the budget.
//!
//! ```sh
//! cargo run --release --example self_managing
//! ```

use trex::corpus::{CorpusConfig, IeeeGenerator};
use trex::{SelectionMethod, SelfManageOptions, TrexConfig, TrexSystem, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = std::env::temp_dir().join(format!("trex-selfmgmt-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&store);

    eprintln!("building IEEE-like collection…");
    let system = TrexSystem::build(
        TrexConfig::new(&store),
        IeeeGenerator::new(CorpusConfig {
            docs: 250,
            ..CorpusConfig::ieee_default()
        })
        .documents(),
    )?;

    // A workload in the sense of Definition 4.1: frequencies sum to 1.
    let workload = Workload::from_weights(vec![
        (
            "//article//sec[about(., xml query evaluation)]".into(),
            5.0,
            10,
        ),
        (
            "//article[about(., ontologies)]//sec[about(., ontologies case study)]".into(),
            3.0,
            10,
        ),
        ("//sec[about(., code signing verification)]".into(), 2.0, 20),
    ])?;

    for (label, method) in [
        ("greedy (2-approximation, §4.2)", SelectionMethod::Greedy),
        ("exact boolean LP (§4.1)", SelectionMethod::Lp),
    ] {
        for budget in [4 * 1024u64, 64 * 1024, 4 * 1024 * 1024] {
            let opts = SelfManageOptions::new(budget).method(method);
            let cycle = system.advise(&workload, &opts)?;
            println!("\n{label}, budget {budget} bytes:");
            for (i, (choice, wq)) in cycle.reports[0]
                .selection
                .choices
                .iter()
                .zip(workload.queries())
                .enumerate()
            {
                println!(
                    "  Q{i} (f={:.2}) {:<68} -> {:?}",
                    wq.frequency, wq.nexi, choice
                );
            }
            println!(
                "  kept {} bytes of redundant lists, wrote {} and dropped {} lists, expected saving {:.6}s per workload execution",
                cycle.bytes_used(),
                cycle.lists_materialized(),
                cycle.lists_dropped(),
                cycle.expected_saving()
            );
            assert!(cycle.bytes_used() <= budget);
        }
    }

    std::fs::remove_file(&store).ok();
    Ok(())
}
