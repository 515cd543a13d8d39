//! Merge — evaluation over ERPLs (paper Fig. 3).
//!
//! Merge walks the position-ordered ERPL lists of the query's (term, sid)
//! pairs in lockstep, combining the scores of entries that refer to the same
//! element, and finally sorts the combined list by score with QuickSort
//! (Fig. 3, line 22). It always computes *all* answers; top-k is a prefix of
//! the sorted result.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use trex_index::{ErplTable, Position, RplEntry};
use trex_summary::Sid;
use trex_text::TermId;

use crate::answer::{rank, Answer};
use crate::serve::deadline::{Deadline, CHECK_INTERVAL};
use crate::Result;

/// Execution statistics of one Merge run.
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeStats {
    /// Wall-clock time (includes the final sort).
    pub wall: Duration,
    /// Time of the final sort alone.
    pub sort_time: Duration,
    /// ERPL entries read.
    pub entries_read: u64,
    /// Distinct elements produced.
    pub merged_elements: u64,
}

/// Runs Merge for the translated query `(sids, terms)`, returning *all*
/// answers in descending score order.
///
/// Requires the ERPL lists of every `(term, sid)` pair to be materialised;
/// the engine checks this before choosing Merge. Polls the [`Deadline`]
/// every [`CHECK_INTERVAL`] merged elements ([`Deadline::none`] never
/// fires); an expired run fails with
/// [`TrexError::DeadlineExceeded`](crate::TrexError::DeadlineExceeded).
pub fn merge(
    erpls: &ErplTable,
    sids: &[Sid],
    terms: &[TermId],
    deadline: Deadline,
) -> Result<(Vec<Answer>, MergeStats)> {
    let start = Instant::now();
    let mut stats = MergeStats::default();

    // Lines 2–5: one iterator per (term, sid) list, primed with its head.
    let mut iters = Vec::with_capacity(terms.len() * sids.len());
    // Min-heap of (position, length, sid, iterator index) — Fig. 3 scans
    // c_1..c_n for the minimum each round; a heap gives the same order with
    // fewer compares. The merge key is the full element identity (position,
    // length, sid): an ancestor and its descendant can share an end position
    // (differing in length), and a parent with a single child can even share
    // the whole span (differing in sid) — those are distinct answers.
    let mut heads: BinaryHeap<Reverse<(Position, u32, Sid, usize)>> = BinaryHeap::new();
    for &term in terms {
        for &sid in sids {
            let mut it = erpls.iter_list(term, sid)?;
            if let Some(entry) = it.next_entry()? {
                stats.entries_read += 1;
                let idx = iters.len();
                heads.push(Reverse((
                    entry.element.end_position(),
                    entry.element.length,
                    entry.sid,
                    idx,
                )));
                iters.push((it, Some(entry)));
            } else {
                iters.push((it, None));
            }
        }
    }

    // Lines 6–21: repeatedly take the minimal position and combine the
    // scores of every current entry at that position.
    let mut answers: Vec<Answer> = Vec::new();
    while let Some(Reverse((pos, len, sid, idx))) = heads.pop() {
        let entry = iters[idx].1.take().expect("head entry present");
        let mut combined = Answer {
            element: entry.element,
            sid: entry.sid,
            score: entry.score,
        };
        advance(&mut iters[idx], idx, &mut heads, &mut stats)?;

        // Other lists whose current entry is the same element.
        while let Some(&Reverse((next_pos, next_len, next_sid, next_idx))) = heads.peek() {
            if next_pos != pos || next_len != len || next_sid != sid {
                break;
            }
            heads.pop();
            let other: RplEntry = iters[next_idx].1.take().expect("head entry present");
            debug_assert_eq!(other.element, combined.element);
            combined.score += other.score;
            advance(&mut iters[next_idx], next_idx, &mut heads, &mut stats)?;
        }

        answers.push(combined);
        stats.merged_elements += 1;
        if stats.merged_elements % CHECK_INTERVAL == 0 {
            deadline.check()?;
        }
    }

    // Line 22: sort V by descending score (pattern-defeating QuickSort;
    // `rank_cmp`'s (element, sid) tiebreak is a total order here because
    // each element is emitted once).
    let sort_start = Instant::now();
    rank(&mut answers);
    stats.sort_time = sort_start.elapsed();
    stats.wall = start.elapsed();
    Ok((answers, stats))
}

type IterState<'a> = (trex_index::ErplIter<'a>, Option<RplEntry>);

fn advance(
    state: &mut IterState<'_>,
    idx: usize,
    heads: &mut BinaryHeap<Reverse<(Position, u32, Sid, usize)>>,
    stats: &mut MergeStats,
) -> Result<()> {
    if let Some(next) = state.0.next_entry()? {
        stats.entries_read += 1;
        heads.push(Reverse((
            next.element.end_position(),
            next.element.length,
            next.sid,
            idx,
        )));
        state.1 = Some(next);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_index::ElementRef;
    use trex_storage::Store;

    fn with_erpls<R>(name: &str, f: impl FnOnce(&mut ErplTable) -> R) -> R {
        let mut path = std::env::temp_dir();
        path.push(format!("trex-merge-{name}-{}", std::process::id()));
        let store = Store::create(&path, 64).unwrap();
        let mut t = ErplTable::open(&store).unwrap();
        let r = f(&mut t);
        drop(t);
        drop(store);
        std::fs::remove_file(&path).ok();
        r
    }

    fn el(doc: u32, end: u32) -> ElementRef {
        ElementRef {
            doc,
            end,
            length: 2,
        }
    }

    #[test]
    fn merges_shared_elements_across_terms() {
        with_erpls("shared", |erpls| {
            erpls
                .put_list(1, 10, &[(el(0, 1), 2.0), (el(0, 5), 1.0)])
                .unwrap();
            erpls
                .put_list(2, 10, &[(el(0, 1), 0.5), (el(0, 9), 3.0)])
                .unwrap();
            let (answers, stats) = merge(erpls, &[10], &[1, 2], Deadline::none()).unwrap();
            assert_eq!(answers.len(), 3);
            assert_eq!(answers[0].element, el(0, 9));
            assert_eq!(answers[0].score, 3.0);
            assert_eq!(answers[1].element, el(0, 1));
            assert!((answers[1].score - 2.5).abs() < 1e-6);
            assert_eq!(answers[2].score, 1.0);
            assert_eq!(stats.entries_read, 4);
            assert_eq!(stats.merged_elements, 3);
        });
    }

    #[test]
    fn merges_across_sids() {
        with_erpls("sids", |erpls| {
            erpls.put_list(1, 10, &[(el(0, 1), 1.0)]).unwrap();
            erpls.put_list(1, 20, &[(el(0, 7), 2.0)]).unwrap();
            let (answers, _) = merge(erpls, &[10, 20], &[1], Deadline::none()).unwrap();
            assert_eq!(answers.len(), 2);
            assert_eq!(answers[0].sid, 20);
            assert_eq!(answers[1].sid, 10);
        });
    }

    #[test]
    fn missing_lists_contribute_nothing() {
        with_erpls("missing", |erpls| {
            erpls.put_list(1, 10, &[(el(0, 1), 1.0)]).unwrap();
            let (answers, _) = merge(erpls, &[10, 99], &[1, 2], Deadline::none()).unwrap();
            assert_eq!(answers.len(), 1);
        });
    }

    #[test]
    fn empty_query_is_empty() {
        with_erpls("empty", |erpls| {
            let (answers, stats) = merge(erpls, &[], &[], Deadline::none()).unwrap();
            assert!(answers.is_empty());
            assert_eq!(stats.entries_read, 0);
        });
    }

    #[test]
    fn output_is_sorted_descending_with_stable_ties() {
        with_erpls("ties", |erpls| {
            erpls
                .put_list(
                    1,
                    10,
                    &[
                        (el(0, 1), 1.0),
                        (el(0, 3), 2.0),
                        (el(0, 5), 1.0),
                        (el(1, 1), 2.0),
                    ],
                )
                .unwrap();
            let (answers, _) = merge(erpls, &[10], &[1], Deadline::none()).unwrap();
            let scores: Vec<f32> = answers.iter().map(|a| a.score).collect();
            assert_eq!(scores, vec![2.0, 2.0, 1.0, 1.0]);
            // Ties resolved by element order.
            assert!(answers[0].element < answers[1].element);
            assert!(answers[2].element < answers[3].element);
        });
    }
}
