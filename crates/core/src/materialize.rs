//! Materialisation of redundant (term, sid) lists.
//!
//! "TReX also uses ERA for generating or extending the RPLs and ERPLs
//! tables" (paper §3.2): one ERA pass over the query's (sids × terms) yields
//! every (element, term) pair with its tf, which is scored and split into
//! the per-(term, sid) lists that TA and Merge consume.
//!
//! The write path is split in two layers so callers control checkpointing:
//! [`materialize_batch`] writes lists (each under the index's maintenance
//! write gate) without flushing, and [`materialize`] adds the durability
//! flush — one WAL checkpoint — for direct callers. Reconcile cycles use
//! neither: they take [`collect_lists`] and write only the selected lists
//! that are missing, each under the budget, with one checkpoint per cycle.

use std::collections::HashMap;

use trex_index::{ElementRef, TrexIndex};
use trex_summary::Sid;
use trex_text::TermId;

use crate::era::era;
use crate::Result;

/// Which redundant index to materialise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListKind {
    /// Relevance posting lists (descending score) — used by TA.
    Rpl,
    /// Element-relevance posting lists (position order) — used by Merge.
    Erpl,
    /// Both tables.
    Both,
}

/// The scored entry lists of one query, keyed by (term, sid). Every
/// (term, sid) pair of the query is present — possibly with an empty entry
/// vector, which is still complete knowledge: no element of that extent
/// contains the term.
pub type ScoredLists = HashMap<(TermId, Sid), Vec<(ElementRef, f32)>>;

/// Computes, without writing anything, the per-(term, sid) scored entry
/// lists an RPL/ERPL materialisation of `(sids, terms)` would contain.
/// ERA emits elements in position order, so each list is already
/// position-sorted — exactly what ERPLs need; the RPL writer orders by
/// score via its key.
pub fn collect_lists(index: &TrexIndex, sids: &[Sid], terms: &[TermId]) -> Result<ScoredLists> {
    let elements = index.elements()?;
    let postings = index.postings()?;
    let (matches, _) = era(&elements, &postings, sids, terms)?;

    let mut lists: ScoredLists = HashMap::new();
    for &term in terms {
        for &sid in sids {
            lists.insert((term, sid), Vec::new());
        }
    }
    for (j, &term) in terms.iter().enumerate() {
        for m in &matches {
            let tf = m.tf[j];
            if tf == 0 {
                continue;
            }
            let score = index.score(tf, term, m.element.length)?;
            lists
                .entry((term, m.sid))
                .or_default()
                .push((m.element, score));
        }
    }
    Ok(lists)
}

/// Materialises the lists needed to evaluate `(sids, terms)` with TA
/// (`Rpl`), Merge (`Erpl`) or either (`Both`), **without flushing**:
/// durability is the caller's call (one [`Store::flush`] per batch of
/// materialisations, not one per query). Each list write holds the
/// maintenance write gate, so it is safe to run concurrently with query
/// serving. Existing lists for the same (term, sid) pairs are replaced.
/// Returns the number of lists written.
///
/// [`Store::flush`]: trex_storage::Store::flush
pub fn materialize_batch(
    index: &TrexIndex,
    sids: &[Sid],
    terms: &[TermId],
    kind: ListKind,
) -> Result<usize> {
    let mut lists = collect_lists(index, sids, terms)?;

    let mut written = 0usize;
    let mut rpls = index.rpls()?;
    let mut erpls = index.erpls()?;
    // Every (term, sid) pair of the query gets a list — possibly empty, so
    // the registry records that the pair is covered. One write-gate
    // acquisition per list keeps the exclusive windows short: queries
    // interleave between lists and fall back to ERA on partial coverage.
    for &term in terms {
        for &sid in sids {
            let entries = lists.remove(&(term, sid)).unwrap_or_default();
            if matches!(kind, ListKind::Rpl | ListKind::Both) {
                let _gate = index.maintenance().enter_write();
                rpls.put_list(term, sid, &entries)?;
                written += 1;
            }
            if matches!(kind, ListKind::Erpl | ListKind::Both) {
                let _gate = index.maintenance().enter_write();
                erpls.put_list(term, sid, &entries)?;
                written += 1;
            }
        }
    }
    Ok(written)
}

/// [`materialize_batch`] plus a durability flush (one WAL checkpoint) —
/// the behaviour direct callers (CLI `materialize`, tests) expect.
pub fn materialize(
    index: &TrexIndex,
    sids: &[Sid],
    terms: &[TermId],
    kind: ListKind,
) -> Result<usize> {
    let written = materialize_batch(index, sids, terms, kind)?;
    index.store().flush()?;
    Ok(written)
}
