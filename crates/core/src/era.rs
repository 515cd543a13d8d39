//! ERA — the Exhaustive Retrieval Algorithm (paper Fig. 2).
//!
//! ERA zig-zags a set of extent iterators (one per sid) against a set of
//! posting-list iterators (one per term), accumulating a term-frequency
//! matrix `C[m][n]` for the elements currently "open" in each extent. When a
//! term position passes an element's end, the element is emitted with its tf
//! vector and the extent iterator jumps forward. The stored `m-pos` sentinel
//! at the end of every posting list flushes the final pending rows, exactly
//! as in the paper.
//!
//! ERA needs only the `Elements` and `PostingLists` tables; it is the
//! fallback strategy that can always run, and it is also how the
//! self-managing layer generates RPL/ERPL entries (§3.2).

use std::time::{Duration, Instant};

use trex_index::{ElementRef, ElementsTable, Position, PostingsTable};
use trex_summary::Sid;
use trex_text::TermId;

use crate::serve::deadline::{Deadline, CHECK_INTERVAL};
use crate::Result;

/// One ERA match: an element that contains at least one query term, with
/// its per-term frequencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EraMatch {
    /// The extent (summary node) the element came from.
    pub sid: Sid,
    /// The matched element.
    pub element: ElementRef,
    /// `tf[j]` = occurrences of `terms[j]` inside the element.
    pub tf: Vec<u32>,
}

/// Execution statistics for one ERA run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EraStats {
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// Posting positions consumed (including the m-pos sentinels).
    pub positions_read: u64,
    /// Extent-iterator seeks performed.
    pub element_seeks: u64,
    /// Matches emitted.
    pub matches: u64,
}

/// Per-sid iterator state: the current element, or `None` once exhausted
/// (the paper's dummy element at `m-pos` with length zero).
struct ExtentState {
    sid: Sid,
    current: Option<ElementRef>,
    /// Accumulated tf row for `current`.
    row: Vec<u32>,
    dirty: bool,
}

/// Runs ERA over `sids` × `terms`, returning every element (from the given
/// extents) containing at least one term, with term frequencies. The
/// cooperative [`Deadline`] is polled every [`CHECK_INTERVAL`] consumed
/// positions ([`Deadline::none`] never fires); an expired run fails with
/// [`TrexError::DeadlineExceeded`](crate::TrexError::DeadlineExceeded).
pub fn era(
    elements: &ElementsTable,
    postings: &PostingsTable,
    sids: &[Sid],
    terms: &[TermId],
    deadline: Deadline,
) -> Result<(Vec<EraMatch>, EraStats)> {
    let start = Instant::now();
    let mut stats = EraStats::default();
    let n = terms.len();

    // Lines 3–6: extent iterators positioned at their first element.
    let mut extents: Vec<ExtentState> = Vec::with_capacity(sids.len());
    for &sid in sids {
        let mut iter = elements.extent(sid)?;
        let current = iter.next_element()?;
        stats.element_seeks += 1;
        extents.push(ExtentState {
            sid,
            current,
            row: vec![0; n],
            dirty: false,
        });
    }

    // Lines 7–10: term iterators with their first positions.
    let mut term_iters = Vec::with_capacity(n);
    let mut positions: Vec<Position> = Vec::with_capacity(n);
    for &term in terms {
        let mut it = postings.positions(term)?;
        let p = it.next_position()?;
        stats.positions_read += 1;
        term_iters.push(it);
        positions.push(p);
    }

    let mut out = Vec::new();

    if extents.is_empty() || n == 0 {
        stats.wall = start.elapsed();
        return Ok((out, stats));
    }

    // Lines 11–31: sweep positions in global order.
    loop {
        // Line 12: x = argmin over the current positions.
        let (x, pos_x) = positions
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, p)| p)
            .expect("at least one term");

        // Lines 13–29.
        for state in extents.iter_mut() {
            let Some(e) = state.current else {
                continue; // dummy element: nothing can match
            };
            let e_pos = e.end_position();
            let e_start = Position {
                doc: e.doc,
                offset: e.start(),
            };
            if pos_x < e_start {
                // Line 14–15: position before the element — nothing to do.
            } else if e.contains(pos_x) {
                // Lines 16–17.
                if !pos_x.is_max() {
                    state.row[x] += 1;
                    state.dirty = true;
                }
            } else if e_pos < pos_x {
                // Lines 18–28: the element is finished.
                if state.dirty {
                    out.push(EraMatch {
                        sid: state.sid,
                        element: e,
                        tf: std::mem::replace(&mut state.row, vec![0; n]),
                    });
                    stats.matches += 1;
                    state.dirty = false;
                }
                // Line 24: jump to the first element that could contain pos_x.
                state.current = if pos_x.is_max() {
                    None
                } else {
                    stats.element_seeks += 1;
                    elements.next_element_at_or_after(state.sid, pos_x)?
                };
                // Lines 25–27: the new element may already contain pos_x.
                if let Some(e2) = state.current {
                    if e2.contains(pos_x) && !pos_x.is_max() {
                        state.row[x] += 1;
                        state.dirty = true;
                    }
                }
            }
        }

        // Line 30–31: advance term x; stop once every term has reached m-pos.
        if pos_x.is_max() {
            // Processing m-pos flushed all pending rows above; every other
            // term already sits at m-pos (it was the minimum), so we're done.
            break;
        }
        positions[x] = term_iters[x].next_position()?;
        stats.positions_read += 1;
        if stats.positions_read % CHECK_INTERVAL == 0 {
            deadline.check()?;
        }
    }

    stats.wall = start.elapsed();
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trex_index::{IndexBuilder, TrexIndex};
    use trex_storage::Store;
    use trex_summary::{AliasMap, SummaryKind};
    use trex_text::Analyzer;

    fn build(name: &str, docs: &[&str]) -> (TrexIndex, std::path::PathBuf) {
        let mut path = std::env::temp_dir();
        path.push(format!("trex-era-{name}-{}", std::process::id()));
        let store = Store::create(&path, 128).unwrap();
        let mut b = IndexBuilder::new(
            &store,
            SummaryKind::Incoming,
            AliasMap::identity(),
            Analyzer::verbatim(),
        )
        .unwrap();
        for d in docs {
            b.add_document(d).unwrap();
        }
        b.finish().unwrap();
        (TrexIndex::open(Arc::new(store)).unwrap(), path)
    }

    #[test]
    fn finds_elements_containing_terms_with_tf() {
        let docs = [
            "<a><s>cat dog</s><s>cat cat</s><s>bird</s></a>",
            "<a><s>dog dog cat</s></a>",
        ];
        let (index, path) = build("basic", &docs);
        let s_sid = index.summary().sids_with_label("s")[0];
        let cat = index.dictionary().lookup("cat").unwrap();
        let dog = index.dictionary().lookup("dog").unwrap();

        let elements = index.elements().unwrap();
        let postings = index.postings().unwrap();
        let (matches, stats) = era(
            &elements,
            &postings,
            &[s_sid],
            &[cat, dog],
            Deadline::none(),
        )
        .unwrap();

        // s1: cat=1 dog=1; s2: cat=2; s4(doc1): cat=1 dog=2. s3 (bird) absent.
        assert_eq!(matches.len(), 3);
        assert_eq!(stats.matches, 3);
        let tfs: Vec<(u32, Vec<u32>)> = matches
            .iter()
            .map(|m| (m.element.doc, m.tf.clone()))
            .collect();
        assert_eq!(tfs, vec![(0, vec![1, 1]), (0, vec![2, 0]), (1, vec![1, 2])]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nested_extents_both_match() {
        let docs = ["<a><outer>x <inner>x y</inner></outer></a>"];
        let (index, path) = build("nested", &docs);
        let outer = index.summary().sids_with_label("outer")[0];
        let inner = index.summary().sids_with_label("inner")[0];
        let x = index.dictionary().lookup("x").unwrap();

        let elements = index.elements().unwrap();
        let postings = index.postings().unwrap();
        let (matches, _) = era(
            &elements,
            &postings,
            &[outer, inner],
            &[x],
            Deadline::none(),
        )
        .unwrap();
        assert_eq!(matches.len(), 2);
        let by_sid: Vec<(Sid, u32)> = matches.iter().map(|m| (m.sid, m.tf[0])).collect();
        assert!(by_sid.contains(&(outer, 2)));
        assert!(by_sid.contains(&(inner, 1)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn term_outside_extents_is_ignored() {
        let docs = ["<a><s>inside</s><t>outside</t></a>"];
        let (index, path) = build("outside", &docs);
        let s_sid = index.summary().sids_with_label("s")[0];
        let outside = index.dictionary().lookup("outside").unwrap();
        let elements = index.elements().unwrap();
        let postings = index.postings().unwrap();
        let (matches, _) =
            era(&elements, &postings, &[s_sid], &[outside], Deadline::none()).unwrap();
        assert!(matches.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_inputs_are_fine() {
        let docs = ["<a><s>word</s></a>"];
        let (index, path) = build("empty", &docs);
        let s_sid = index.summary().sids_with_label("s")[0];
        let word = index.dictionary().lookup("word").unwrap();
        let elements = index.elements().unwrap();
        let postings = index.postings().unwrap();
        let (m, _) = era(&elements, &postings, &[], &[word], Deadline::none()).unwrap();
        assert!(m.is_empty());
        let (m, _) = era(&elements, &postings, &[s_sid], &[], Deadline::none()).unwrap();
        assert!(m.is_empty());
        // Unknown sid / exhausted extents.
        let (m, _) = era(&elements, &postings, &[9999], &[word], Deadline::none()).unwrap();
        assert!(m.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn element_ending_exactly_at_position_is_counted_after_jump() {
        // Force a jump: extent elements are far apart; a term position lands
        // exactly on the end of a later element.
        let docs = ["<a><s>m</s><q>filler words here</q><s>x y target</s></a>"];
        let (index, path) = build("jump", &docs);
        let s_sid = index.summary().sids_with_label("s")[0];
        let target = index.dictionary().lookup("target").unwrap();
        let elements = index.elements().unwrap();
        let postings = index.postings().unwrap();
        let (matches, _) =
            era(&elements, &postings, &[s_sid], &[target], Deadline::none()).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].tf, vec![1]);
        // "target" is the last token of the second s element.
        assert_eq!(matches[0].element.end, matches[0].element.start() + 2);
        std::fs::remove_file(&path).ok();
    }
}
