//! Self-managing retrieval indexes (paper §4): the workload model, the
//! index-selection problem, the exact boolean-LP solver, the greedy
//! 2-approximation, and the reconcile cycle that prices a workload, selects
//! under the disk budget and reconciles the store — run once on a given
//! workload (`trex advise`) or continuously by the background self-manager
//! on the workload the profiler observes in the live query stream.

pub mod cost;
pub mod greedy;
pub mod lp;
pub mod online;
pub mod profiler;
pub mod workload;

pub use cost::{Choice, ListId, QueryCost, Selection};
pub use greedy::solve_greedy;
pub use lp::solve_lp;
pub use online::{
    cycle_record, reconcile_once, reconcile_workload, CostCache, ManagerHooks, ReconcileReport,
    SelectionMethod, SelfManageOptions, SelfManager,
};
pub use profiler::{ProfiledQuery, ProfilerConfig, WorkloadProfiler};
pub use workload::{Workload, WorkloadError, WorkloadQuery};
