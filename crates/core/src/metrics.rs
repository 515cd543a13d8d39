//! A uniform view over the per-strategy statistics structs.
//!
//! Each strategy reports its own stats type ([`EraStats`], [`TaStats`],
//! [`MergeStats`]) with fields in that strategy's natural vocabulary. The
//! [`StrategyMetrics`] trait maps all of them onto the §4 cost-model axes —
//! wall-clock, sorted/random accesses, candidate-set size — so the engine,
//! the advisor and the benches can compare strategies without matching on
//! the concrete stats enum.

use std::time::Duration;

use trex_obs::CostUnits;

use crate::engine::StrategyStats;
use crate::era::EraStats;
use crate::merge::MergeStats;
use crate::ta::TaStats;

/// Cost-model units common to every strategy's statistics.
pub trait StrategyMetrics {
    /// Wall-clock time of the evaluation.
    fn wall(&self) -> Duration;

    /// `(sorted, random)` accesses in the §4 sense: sequential reads of
    /// sorted lists versus point lookups outside those scans.
    fn accesses(&self) -> (u64, u64);

    /// Peak size of the candidate set (or answers produced, for strategies
    /// that never hold a partial candidate pool).
    fn candidates(&self) -> u64;

    /// The full [`CostUnits`] record; strategies with heap instrumentation
    /// override this to fill the heap fields too.
    fn cost_units(&self) -> CostUnits {
        let (sorted_accesses, random_accesses) = self.accesses();
        CostUnits {
            sorted_accesses,
            random_accesses,
            heap_pushes: 0,
            heap_pops: 0,
            candidates_peak: self.candidates(),
        }
    }
}

impl StrategyMetrics for EraStats {
    fn wall(&self) -> Duration {
        self.wall
    }

    /// ERA reads posting positions sequentially; the extent-iterator seeks
    /// are its random component.
    fn accesses(&self) -> (u64, u64) {
        (self.positions_read, self.element_seeks)
    }

    fn candidates(&self) -> u64 {
        self.matches
    }
}

impl StrategyMetrics for TaStats {
    fn wall(&self) -> Duration {
        self.wall
    }

    /// TA is sorted-access-only by design (the paper's variant performs no
    /// random accesses).
    fn accesses(&self) -> (u64, u64) {
        (self.sorted_accesses, 0)
    }

    fn candidates(&self) -> u64 {
        self.candidates_peak as u64
    }

    fn cost_units(&self) -> CostUnits {
        CostUnits {
            sorted_accesses: self.sorted_accesses,
            random_accesses: 0,
            heap_pushes: self.heap_ops.0,
            heap_pops: self.heap_ops.1,
            candidates_peak: self.candidates_peak as u64,
        }
    }
}

impl StrategyMetrics for MergeStats {
    fn wall(&self) -> Duration {
        self.wall
    }

    /// Merge scans every required ERPL front to back: all accesses sorted.
    fn accesses(&self) -> (u64, u64) {
        (self.entries_read, 0)
    }

    fn candidates(&self) -> u64 {
        self.merged_elements
    }
}

impl StrategyMetrics for StrategyStats {
    fn wall(&self) -> Duration {
        StrategyStats::wall(self)
    }

    /// A scatter's accesses are the sum over partitions — the work really
    /// done, no matter which strategy each partition chose.
    fn accesses(&self) -> (u64, u64) {
        match self {
            StrategyStats::Era(s) => s.accesses(),
            StrategyStats::Ta(s) => s.accesses(),
            StrategyStats::Merge(s) => s.accesses(),
            StrategyStats::Scatter { per_part, .. } => per_part
                .iter()
                .map(StrategyMetrics::accesses)
                .fold((0, 0), |(s, r), (ps, pr)| (s + ps, r + pr)),
        }
    }

    fn candidates(&self) -> u64 {
        match self {
            StrategyStats::Era(s) => s.candidates(),
            StrategyStats::Ta(s) => s.candidates(),
            StrategyStats::Merge(s) => s.candidates(),
            StrategyStats::Scatter { per_part, .. } => {
                per_part.iter().map(StrategyMetrics::candidates).sum()
            }
        }
    }

    fn cost_units(&self) -> CostUnits {
        match self {
            StrategyStats::Era(s) => s.cost_units(),
            StrategyStats::Ta(s) => s.cost_units(),
            StrategyStats::Merge(s) => s.cost_units(),
            StrategyStats::Scatter { per_part, .. } => per_part
                .iter()
                .map(StrategyMetrics::cost_units)
                .fold(CostUnits::default(), |acc, u| CostUnits {
                    sorted_accesses: acc.sorted_accesses + u.sorted_accesses,
                    random_accesses: acc.random_accesses + u.random_accesses,
                    heap_pushes: acc.heap_pushes + u.heap_pushes,
                    heap_pops: acc.heap_pops + u.heap_pops,
                    candidates_peak: acc.candidates_peak + u.candidates_peak,
                }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ta_stats() -> TaStats {
        TaStats {
            wall: Duration::from_millis(5),
            heap_time: Duration::from_millis(1),
            depth: vec![40, 60],
            sorted_accesses: 100,
            heap_ops: (30, 20),
            candidates_peak: 12,
            read_entire_lists: false,
        }
    }

    #[test]
    fn ta_metrics_map_to_cost_units() {
        let s = ta_stats();
        assert_eq!(s.accesses(), (100, 0));
        assert_eq!(s.candidates(), 12);
        let units = s.cost_units();
        assert_eq!(units.heap_pushes, 30);
        assert_eq!(units.heap_pops, 20);
        assert_eq!(units.sorted_accesses, 100);
    }

    #[test]
    fn era_reports_seeks_as_random() {
        let s = EraStats {
            wall: Duration::from_millis(2),
            positions_read: 500,
            element_seeks: 7,
            matches: 50,
        };
        assert_eq!(s.accesses(), (500, 7));
        assert_eq!(s.cost_units().random_accesses, 7);
    }
}
