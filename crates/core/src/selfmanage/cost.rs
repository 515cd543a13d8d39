//! The abstract index-selection problem (paper §4).
//!
//! For each workload query `Q_i` the advisor knows:
//!
//! * `Δm(Q_i) = max(T_e − T_m, 0)` — the saving of Merge over ERA;
//! * `Δta(Q_i) = max(T_e − T_ta, 0)` — the saving of TA over ERA;
//! * the (term, sid) lists Merge/TA need, with their sizes
//!   (`S_ERPL(Q_i)`, `S_RPL(Q_i)`).
//!
//! A *selection* assigns each query one of {nothing, ERPLs, RPLs}
//! (constraint (1) of §4.1: `x_i1 + x_i2 ≤ 1`). The objective is the
//! frequency-weighted saving; the constraint is the disk budget `d`.

use std::collections::HashSet;

use trex_obs::{json_escape, json_field, ToJson};
use trex_summary::Sid;
use trex_text::TermId;

/// Measured-over-predicted tolerance for the TA access prediction.
///
/// [`predicted_ta_accesses`] uses the Fagin-style expected stopping depth
/// `N^{(n-1)/n} · k^{1/n}` per list, which assumes independent,
/// uniformly-shuffled score orders. Real lists are correlated (the same
/// elements score well everywhere), early-stopping checks run every
/// `check_interval` accesses, and short lists bottom out — so the measured
/// count is only expected to match within this factor, in either direction.
/// Merge's prediction is exact (every entry of every list is read once), so
/// it validates with factor 1.
pub const TA_PREDICTION_FACTOR: f64 = 32.0;

/// Predicted Merge sorted accesses (§4): Merge reads every entry of every
/// required ERPL exactly once, so the prediction is the entry total.
pub fn predicted_merge_accesses(list_entries: &[u64]) -> u64 {
    list_entries.iter().sum()
}

/// Predicted TA sorted accesses for top-`k` over the given score-ordered
/// lists: per list, the Fagin expected stopping depth
/// `min(N_i, N_i^{(n-1)/n} · k^{1/n})` where `n` is the number of lists,
/// summed over the lists. With one list this degenerates to `min(N, k)` —
/// TA stops as soon as the heap holds k answers and the threshold drops.
pub fn predicted_ta_accesses(list_entries: &[u64], k: usize) -> f64 {
    let n = list_entries.len();
    if n == 0 {
        return 0.0;
    }
    let k = k.max(1) as f64;
    let exp = (n as f64 - 1.0) / n as f64;
    list_entries
        .iter()
        .map(|&entries| {
            let n_i = entries as f64;
            let depth = n_i.powf(exp) * k.powf(1.0 / n as f64);
            depth.min(n_i)
        })
        .sum()
}

/// Predicted Merge **block reads** under the block-compressed layout: Merge
/// scans every list front to back, so every block of every required ERPL is
/// fetched exactly once. `list_blocks` are the registry-reported per-list
/// block counts; the prediction is exact, like
/// [`predicted_merge_accesses`].
pub fn predicted_merge_block_reads(list_blocks: &[u64]) -> u64 {
    list_blocks.iter().sum()
}

/// Predicted TA **block reads**: each list is consumed to its Fagin
/// stopping depth, and a list whose `N_i` entries span `B_i` blocks packs
/// `N_i / B_i` entries per block, so a depth of `d_i` entries touches
/// `ceil(d_i · B_i / N_i)` blocks (at least one per non-empty list — the
/// iterator primes each stream's head). Validated with
/// [`TA_PREDICTION_FACTOR`], which the per-entry depth estimate already
/// needs.
pub fn predicted_ta_block_reads(lists: &[(u64, u64)], k: usize) -> f64 {
    let entries: Vec<u64> = lists.iter().map(|&(e, _)| e).collect();
    let n = entries.len();
    if n == 0 {
        return 0.0;
    }
    let k = k.max(1) as f64;
    let exp = (n as f64 - 1.0) / n as f64;
    lists
        .iter()
        .map(|&(entries, blocks)| {
            if entries == 0 || blocks == 0 {
                return 0.0;
            }
            let n_i = entries as f64;
            let depth = (n_i.powf(exp) * k.powf(1.0 / n as f64)).min(n_i);
            (depth * blocks as f64 / n_i).ceil().max(1.0)
        })
        .sum()
}

/// One measured-versus-predicted comparison in §4 cost-model units.
#[derive(Debug, Clone, PartialEq)]
pub struct CostValidation {
    /// Which strategy was measured (`"ta"`, `"merge"`).
    pub strategy: String,
    /// Sorted + random accesses the traced run actually performed.
    pub measured: u64,
    /// The cost model's predicted access count.
    pub predicted: f64,
}

impl CostValidation {
    /// A validation record for `strategy`.
    pub fn new(strategy: impl Into<String>, measured: u64, predicted: f64) -> CostValidation {
        CostValidation {
            strategy: strategy.into(),
            measured,
            predicted,
        }
    }

    /// `measured / predicted` (predicted floored at one access to keep the
    /// ratio finite for degenerate empty-list queries).
    pub fn ratio(&self) -> f64 {
        self.measured as f64 / self.predicted.max(1.0)
    }

    /// Whether the ratio is finite and within `factor` of 1 in either
    /// direction (use [`TA_PREDICTION_FACTOR`] for TA).
    pub fn within_factor(&self, factor: f64) -> bool {
        let r = self.ratio();
        r.is_finite() && r <= factor && r >= 1.0 / factor
    }
}

impl ToJson for CostValidation {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"strategy\":\"");
        out.push_str(&json_escape(&self.strategy));
        out.push_str("\",");
        json_field(out, "measured", self.measured);
        out.push(',');
        json_field(out, "predicted", self.predicted);
        out.push(',');
        json_field(out, "ratio", self.ratio());
        out.push('}');
    }
}

/// One (term, sid) list with its disk footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListId {
    /// The term.
    pub term: TermId,
    /// The sid.
    pub sid: Sid,
    /// Bytes the materialised list occupies.
    pub bytes: u64,
}

/// Profiled costs of one workload query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCost {
    /// Workload frequency `f_i`.
    pub frequency: f64,
    /// Measured `T_e(Q_i)` in seconds — the ERA baseline the deltas were
    /// computed against. Not used by the solvers; carried for the advisor
    /// decision journal so a cycle record can show predicted absolute costs
    /// (`T_e − Δ`) rather than only savings.
    pub measured_era: f64,
    /// `Δm(Q_i)` in seconds.
    pub delta_merge: f64,
    /// `Δta(Q_i)` in seconds.
    pub delta_ta: f64,
    /// ERPL lists Merge needs (`S_ERPL(Q_i)` = Σ bytes).
    pub erpl_lists: Vec<ListId>,
    /// RPL lists TA needs (`S_RPL(Q_i)` = Σ bytes).
    pub rpl_lists: Vec<ListId>,
}

impl QueryCost {
    /// `S_ERPL(Q_i)`.
    pub fn s_erpl(&self) -> u64 {
        self.erpl_lists.iter().map(|l| l.bytes).sum()
    }

    /// `S_RPL(Q_i)`.
    pub fn s_rpl(&self) -> u64 {
        self.rpl_lists.iter().map(|l| l.bytes).sum()
    }

    /// The lists `choice` needs on disk: the ERPLs, the RPLs, or none.
    pub fn lists(&self, choice: Choice) -> &[ListId] {
        match choice {
            Choice::None => &[],
            Choice::Erpl => &self.erpl_lists,
            Choice::Rpl => &self.rpl_lists,
        }
    }
}

/// Per-query decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Choice {
    /// Store nothing; the query runs with ERA.
    #[default]
    None,
    /// Store the query's ERPLs; it runs with Merge.
    Erpl,
    /// Store the query's RPLs; it runs with TA.
    Rpl,
}

/// A solution to the selection problem: one choice per query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// `choices[i]` is the decision for query i.
    pub choices: Vec<Choice>,
}

impl Selection {
    /// The all-ERA selection.
    pub fn none(l: usize) -> Selection {
        Selection {
            choices: vec![Choice::None; l],
        }
    }

    /// The objective: `Σ f_i · Δ_i` for the chosen methods.
    pub fn saving(&self, costs: &[QueryCost]) -> f64 {
        self.choices
            .iter()
            .zip(costs)
            .map(|(c, q)| match c {
                Choice::None => 0.0,
                Choice::Erpl => q.frequency * q.delta_merge,
                Choice::Rpl => q.frequency * q.delta_ta,
            })
            .sum()
    }

    /// Disk space of the selection under the paper's LP model (§4.1):
    /// additive per query, no sharing between queries.
    pub fn space_additive(&self, costs: &[QueryCost]) -> u64 {
        self.choices
            .iter()
            .zip(costs)
            .map(|(c, q)| match c {
                Choice::None => 0,
                Choice::Erpl => q.s_erpl(),
                Choice::Rpl => q.s_rpl(),
            })
            .sum()
    }

    /// Disk space counting each distinct (term, sid, kind) list once —
    /// queries sharing lists share the space (the greedy model of §4.2,
    /// where each step adds only the *missing* lists `I_m` / `I_ta`).
    pub fn space_shared(&self, costs: &[QueryCost]) -> u64 {
        let mut seen: HashSet<(Choice, TermId, Sid)> = HashSet::new();
        let mut total = 0u64;
        for (&c, q) in self.choices.iter().zip(costs) {
            for l in q.lists(c) {
                if seen.insert((c, l.term, l.sid)) {
                    total += l.bytes;
                }
            }
        }
        total
    }

    /// The `(term, sid)` pairs of the `family` lists (`Choice::Rpl` or
    /// `Choice::Erpl`) the selection keeps on disk — everything else of
    /// that family is dropped when the store is reconciled to it.
    pub(crate) fn kept(&self, costs: &[QueryCost], family: Choice) -> HashSet<(TermId, Sid)> {
        self.choices
            .iter()
            .zip(costs)
            .filter(|&(&c, _)| c == family)
            .flat_map(|(_, q)| q.lists(family))
            .map(|l| (l.term, l.sid))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(term: TermId, sid: Sid, bytes: u64) -> ListId {
        ListId { term, sid, bytes }
    }

    fn cost(f: f64, dm: f64, dta: f64, erpl: Vec<ListId>, rpl: Vec<ListId>) -> QueryCost {
        QueryCost {
            frequency: f,
            measured_era: dm.max(dta),
            delta_merge: dm,
            delta_ta: dta,
            erpl_lists: erpl,
            rpl_lists: rpl,
        }
    }

    #[test]
    fn saving_weights_by_frequency() {
        let costs = vec![
            cost(0.25, 10.0, 4.0, vec![list(1, 1, 100)], vec![list(1, 1, 80)]),
            cost(0.75, 2.0, 6.0, vec![list(2, 1, 50)], vec![list(2, 1, 40)]),
        ];
        let sel = Selection {
            choices: vec![Choice::Erpl, Choice::Rpl],
        };
        assert!((sel.saving(&costs) - (0.25 * 10.0 + 0.75 * 6.0)).abs() < 1e-9);
        assert_eq!(sel.space_additive(&costs), 100 + 40);
    }

    #[test]
    fn shared_space_counts_lists_once() {
        let shared = list(7, 3, 500);
        let costs = vec![
            cost(0.5, 5.0, 0.0, vec![shared, list(1, 1, 10)], vec![]),
            cost(0.5, 5.0, 0.0, vec![shared, list(2, 1, 20)], vec![]),
        ];
        let sel = Selection {
            choices: vec![Choice::Erpl, Choice::Erpl],
        };
        assert_eq!(sel.space_additive(&costs), 510 + 520);
        assert_eq!(sel.space_shared(&costs), 500 + 10 + 20);
    }

    #[test]
    fn merge_prediction_is_the_entry_total() {
        assert_eq!(predicted_merge_accesses(&[10, 20, 5]), 35);
        assert_eq!(predicted_merge_accesses(&[]), 0);
    }

    #[test]
    fn ta_prediction_caps_at_list_length() {
        // One list: min(N, k).
        assert!((predicted_ta_accesses(&[100], 7) - 7.0).abs() < 1e-9);
        // Huge k saturates at the full lists.
        assert!((predicted_ta_accesses(&[10, 10], 1_000_000) - 20.0).abs() < 1e-9);
        // Two lists of N=100, k=1: 2 · sqrt(100) = 20.
        assert!((predicted_ta_accesses(&[100, 100], 1) - 20.0).abs() < 1e-9);
        assert_eq!(predicted_ta_accesses(&[], 10), 0.0);
    }

    #[test]
    fn merge_block_prediction_is_the_block_total() {
        assert_eq!(predicted_merge_block_reads(&[3, 1, 7]), 11);
        assert_eq!(predicted_merge_block_reads(&[]), 0);
    }

    #[test]
    fn ta_block_prediction_scales_depth_by_block_density() {
        // One list of 100 entries in 1 block, k=7: depth 7 touches 1 block.
        assert!((predicted_ta_block_reads(&[(100, 1)], 7) - 1.0).abs() < 1e-9);
        // 256 entries over 2 blocks, k large enough to read everything.
        assert!((predicted_ta_block_reads(&[(256, 2)], 1_000_000) - 2.0).abs() < 1e-9);
        // Depth never predicts zero blocks for a non-empty list.
        assert!(predicted_ta_block_reads(&[(1000, 8)], 1) >= 1.0);
        // Empty input and empty lists are free.
        assert_eq!(predicted_ta_block_reads(&[], 10), 0.0);
        assert_eq!(predicted_ta_block_reads(&[(0, 0)], 10), 0.0);
    }

    #[test]
    fn validation_ratio_and_factor() {
        let v = CostValidation::new("ta", 40, 20.0);
        assert!((v.ratio() - 2.0).abs() < 1e-9);
        assert!(v.within_factor(2.0));
        assert!(!v.within_factor(1.5));
        let exact = CostValidation::new("merge", 35, 35.0);
        assert!(exact.within_factor(1.0 + 1e-9));
        let json = v.to_json();
        assert!(json.contains("\"strategy\":\"ta\""));
        assert!(json.contains("\"measured\":40"));
    }

    #[test]
    fn none_selection_is_free() {
        let costs = vec![cost(1.0, 5.0, 5.0, vec![list(1, 1, 10)], vec![])];
        let sel = Selection::none(1);
        assert_eq!(sel.saving(&costs), 0.0);
        assert_eq!(sel.space_additive(&costs), 0);
        assert_eq!(sel.space_shared(&costs), 0);
    }
}
