//! The background *fold*: merging the live-ingestion delta into the
//! on-disk tables.
//!
//! The delta ([`trex_index::DeltaIndex`]) absorbs ingested documents in
//! memory, WAL-backed. When a partition's delta crosses a size threshold the
//! [`FoldManager`] (a sibling of [`SelfManager`](crate::SelfManager), on
//! the same [`BackgroundWorker`] shell) runs [`fold_once`] on it:
//! one maintenance-write-gate critical section that appends the staged
//! postings, element rows and documents to the B+tree tables, persists any
//! dictionary growth, refreshes every affected redundant list, and drains
//! the delta — then one checkpoint that consumes the folded WAL ingest
//! records via the doc-id watermark.
//!
//! **Byte-identity across the fold.** Scoring inputs are frozen: the fold
//! never touches `CollectionStats` or the term statistics of terms the
//! collection was built with, and the delta scores through the same
//! `TrexIndex::score` path queries use on disk matches. An element's score
//! — and therefore the ranked answer list — is byte-identical before and
//! after a fold.
//!
//! **Crash safety.** The WAL ingest records stay pending until the fold's
//! checkpoint commits with the consumed watermark. A crash anywhere before
//! that point rolls the tables back and replays the records into the delta
//! at reopen; a crash after replays nothing (the fold is on disk). An I/O
//! error mid-fold leaves the in-process view degraded (the drained
//! documents are no longer delta-visible) but durability is unaffected —
//! reopening the store recovers every acknowledged document.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use trex_index::catalog::{self, blob_names, TermStats};
use trex_index::{DocStoreWriter, ListFamily, ListTable, Position, TrexIndex};
use trex_summary::Sid;
use trex_text::{Dictionary, TermId};

use crate::materialize::{collect_lists, ScoredLists};
use crate::partition::PartitionedSystem;
use crate::worker::BackgroundWorker;
use crate::{Result, TrexError};

/// Options for the background fold thread.
#[derive(Debug, Clone, Copy)]
pub struct FoldOptions {
    /// Fold when the delta holds at least this many documents.
    pub max_docs: usize,
    /// Fold when the delta's approximate resident bytes reach this.
    pub max_bytes: u64,
    /// How often the thread checks the thresholds.
    pub interval: Duration,
    /// Print one status line per completed fold to stderr.
    pub log_folds: bool,
}

impl FoldOptions {
    /// Defaults: fold at 1000 documents or 8 MiB, checking every 100 ms.
    pub fn new() -> FoldOptions {
        FoldOptions {
            max_docs: 1000,
            max_bytes: 8 << 20,
            interval: Duration::from_millis(100),
            log_folds: false,
        }
    }

    /// Sets the document-count threshold.
    pub fn max_docs(mut self, n: usize) -> FoldOptions {
        self.max_docs = n.max(1);
        self
    }

    /// Sets the byte threshold.
    pub fn max_bytes(mut self, bytes: u64) -> FoldOptions {
        self.max_bytes = bytes;
        self
    }

    /// Sets the threshold-check interval.
    pub fn interval(mut self, interval: Duration) -> FoldOptions {
        self.interval = interval;
        self
    }

    /// Enables/disables the per-fold stderr status line.
    pub fn log_folds(mut self, on: bool) -> FoldOptions {
        self.log_folds = on;
        self
    }
}

impl Default for FoldOptions {
    fn default() -> FoldOptions {
        FoldOptions::new()
    }
}

/// What one fold did (summed over partitions when a system-level fold
/// touched several).
#[derive(Debug, Clone)]
pub struct FoldReport {
    /// Documents merged into the tables.
    pub docs_folded: usize,
    /// Terms appended to the persisted dictionary (unknown to the frozen
    /// in-memory one; searchable after the next reopen).
    pub new_terms: usize,
    /// Redundant lists recomputed because a folded term touched them.
    pub lists_refreshed: usize,
    /// Wall-clock time the maintenance write gate was held — the pause
    /// concurrent queries can observe.
    pub pause: Duration,
    /// Total fold wall-clock including the checkpoint.
    pub wall: Duration,
    /// The maintenance generation after the fold.
    pub generation: u64,
}

/// Folds the delta into the on-disk tables. Returns `Ok(None)` when the
/// delta is empty. Safe to run concurrently with query serving and with
/// reconcile cycles (every table mutation is under the write gate); do not
/// run two folds concurrently (the [`FoldManager`] never does).
pub fn fold_once(index: &TrexIndex) -> Result<Option<FoldReport>> {
    if index.delta().is_empty() {
        return Ok(None);
    }
    let started = Instant::now();
    let store = index.store();

    let gate_started;
    let docs_folded;
    let new_term_count;
    let lists_refreshed;
    let max_doc_id;
    {
        let _gate = index.maintenance().enter_write();
        gate_started = Instant::now();
        let docs = index.delta().take_docs();
        if docs.is_empty() {
            return Ok(None); // raced with another fold
        }
        docs_folded = docs.len();
        max_doc_id = docs.last().expect("non-empty").doc_id;

        // Resolve overlay terms against the *persisted* dictionary, which
        // may already contain terms added by earlier folds since the last
        // reopen — re-interning there keeps ids stable across folds.
        let blobs = store.open_table(catalog::BLOBS_TABLE).map_err(storage)?;
        let dict_bytes = catalog::load_blob(&blobs, blob_names::DICTIONARY)
            .map_err(storage)?
            .ok_or_else(|| {
                TrexError::MissingIndex("dictionary blob missing; index not built".into())
            })?;
        let mut disk_dict = Dictionary::decode(&dict_bytes)
            .ok_or_else(|| TrexError::MissingIndex("dictionary blob corrupt".into()))?;
        let base_len = disk_dict.len();

        // Per-term staged positions, in (doc, offset) order: documents come
        // out of the delta in ascending id order and each document's
        // per-term positions ascend, so appending keeps lists sorted.
        // BTreeMap for deterministic fold order.
        let mut staged: BTreeMap<TermId, Vec<Position>> = BTreeMap::new();
        // Overlay (non-frozen-dictionary) terms get additive statistics;
        // frozen terms' statistics stay untouched (scoring invariant).
        let mut overlay_stats: HashMap<TermId, (Option<u32>, u32, u64)> = HashMap::new();
        for doc in &docs {
            for (&term, positions) in &doc.postings {
                staged.entry(term).or_default().extend(positions);
            }
            let mut texts: Vec<&String> = doc.new_terms.keys().collect();
            texts.sort(); // deterministic intern order for brand-new terms
            for text in texts {
                let positions = &doc.new_terms[text];
                let term = match disk_dict.lookup(text) {
                    Some(t) => t,
                    None => disk_dict.intern(text),
                };
                staged.entry(term).or_default().extend(positions);
                let entry = overlay_stats.entry(term).or_insert((None, 0, 0));
                if entry.0 != Some(doc.doc_id) {
                    entry.0 = Some(doc.doc_id);
                    entry.1 += 1;
                }
                entry.2 += positions.len() as u64;
            }
        }
        // Staged vectors built per doc in id order are sorted; terms seen
        // in several docs appended in id order stay sorted too.
        debug_assert!(staged.values().all(|v| v.windows(2).all(|w| w[0] < w[1])));

        // 1. Postings: append each staged list after the on-disk one (delta
        //    doc ids sort strictly above every folded id).
        let mut postings = index.postings()?;
        for (&term, positions) in &staged {
            postings.append(term, positions)?;
        }

        // 2. Element rows and the docstore overlay.
        let mut elements = index.elements()?;
        let has_docstore = store.has_table(trex_index::docstore::DOCUMENTS_TABLE);
        let mut doc_writer = if has_docstore {
            Some(DocStoreWriter::open(store)?)
        } else {
            None
        };
        for doc in &docs {
            for &(sid, element) in &doc.elements {
                elements.insert(sid, element)?;
            }
            if let Some(w) = &mut doc_writer {
                w.put(doc.doc_id, &doc.xml)?;
            }
        }

        // 3. Overlay term statistics (additive: a term may accumulate over
        //    several folds) and catalog blobs.
        let mut stats_table = store
            .open_table(catalog::TERM_STATS_TABLE)
            .map_err(storage)?;
        for (&term, &(_, df, cf)) in &overlay_stats {
            let prior = catalog::get_term_stats(&stats_table, term).map_err(storage)?;
            catalog::put_term_stats(
                &mut stats_table,
                term,
                TermStats {
                    df: prior.df + df,
                    cf: prior.cf + cf,
                },
            )
            .map_err(storage)?;
        }
        new_term_count = disk_dict.len() - base_len;
        let mut blobs = store.open_table(catalog::BLOBS_TABLE).map_err(storage)?;
        if disk_dict.len() > base_len {
            catalog::store_blob(&mut blobs, blob_names::DICTIONARY, &disk_dict.encode())
                .map_err(storage)?;
        }
        catalog::store_next_doc_id(&mut blobs, max_doc_id.saturating_add(1)).map_err(storage)?;

        // 4. Refresh every redundant list a folded term touches, so TA and
        //    Merge see the folded documents. One ERA pass per affected
        //    term, grouped over that term's registered sids.
        let folded_terms: BTreeSet<TermId> = staged.keys().copied().collect();
        let mut rpls = index.rpls()?;
        let mut erpls = index.erpls()?;
        // Folded term → the sids of its lists, per family (RPLs, ERPLs).
        let mut affected: BTreeMap<TermId, [BTreeSet<Sid>; 2]> = BTreeMap::new();
        for (family, lists) in [rpls.lists()?, erpls.lists()?].into_iter().enumerate() {
            for (term, sid, _) in lists {
                if folded_terms.contains(&term) {
                    affected.entry(term).or_default()[family].insert(sid);
                }
            }
        }
        let mut refreshed = 0usize;
        for (&term, [rpl_sids, erpl_sids]) in &affected {
            let all_sids: Vec<Sid> = rpl_sids.union(erpl_sids).copied().collect();
            // The tables already contain the folded documents, so this ERA
            // pass produces the post-fold lists.
            let lists = collect_lists(index, &all_sids, &[term])?;
            refreshed += refresh(&mut rpls, term, rpl_sids, &lists)?;
            refreshed += refresh(&mut erpls, term, erpl_sids, &lists)?;
        }
        lists_refreshed = refreshed;
    } // gate drops here: generation bumps, caches invalidate, queries resume
    let pause = gate_started.elapsed();

    // One checkpoint per fold. The commit record carries the doc-id
    // watermark, so recovery knows these ingest records are now in the
    // tables and must not be replayed; records at or above the watermark
    // (ingests that landed while we folded) stay pending.
    store
        .flush_consuming_ingests(u64::from(max_doc_id) + 1)
        .map_err(storage)?;

    Ok(Some(FoldReport {
        docs_folded,
        new_terms: new_term_count,
        lists_refreshed,
        pause,
        wall: started.elapsed(),
        generation: index.maintenance().generation(),
    }))
}

/// Rewrites `table`'s lists of `term` over `sids` from the scored `lists`
/// of one ERA pass; returns how many lists it wrote.
fn refresh<F: ListFamily>(
    table: &mut ListTable<F>,
    term: TermId,
    sids: &BTreeSet<Sid>,
    lists: &ScoredLists,
) -> Result<usize> {
    for &sid in sids {
        let entries = lists.get(&(term, sid)).map(Vec::as_slice).unwrap_or(&[]);
        table.put_list(term, sid, entries)?;
    }
    Ok(sids.len())
}

/// Folds `indexes` one after another and merges their reports: counts and
/// gate pauses add up (a scatter query can wait behind each partition's
/// gate in turn), the generation is the maximum, matching
/// [`PartitionedSystem::generation`]. `None` when every delta was empty. An
/// error leaves the remaining deltas for the next call.
pub(crate) fn fold_each<'a>(
    indexes: impl IntoIterator<Item = &'a TrexIndex>,
) -> Result<Option<FoldReport>> {
    let mut merged: Option<FoldReport> = None;
    for index in indexes {
        let Some(report) = fold_once(index)? else {
            continue;
        };
        merged = Some(match merged {
            None => report,
            Some(sum) => FoldReport {
                docs_folded: sum.docs_folded + report.docs_folded,
                new_terms: sum.new_terms + report.new_terms,
                lists_refreshed: sum.lists_refreshed + report.lists_refreshed,
                pause: sum.pause + report.pause,
                wall: sum.wall + report.wall,
                generation: sum.generation.max(report.generation),
            },
        });
    }
    Ok(merged)
}

fn storage(e: trex_storage::StorageError) -> TrexError {
    TrexError::from(e)
}

/// A handle to the background fold worker. Stops (and joins) on
/// [`stop`](FoldManager::stop) or drop.
pub type FoldManager = BackgroundWorker<FoldReport>;

impl BackgroundWorker<FoldReport> {
    /// Starts the background fold loop: every `opts.interval`, fold every
    /// partition whose delta crossed either threshold. A final fold on
    /// shutdown is *not* attempted — the WAL already holds every unfolded
    /// document. `health`'s `folds_in_flight` gauge, when given, brackets
    /// every fold attempt (so `/v1/readyz` can report folds in progress).
    pub fn start(
        system: Arc<PartitionedSystem>,
        opts: FoldOptions,
        health: Option<Arc<trex_obs::Health>>,
    ) -> Result<FoldManager> {
        BackgroundWorker::spawn("trex-fold", opts.interval, move || {
            let due: Vec<&TrexIndex> = system
                .parts()
                .iter()
                .map(|part| part.index().as_ref())
                .filter(|index| {
                    let delta = index.delta();
                    delta.doc_count() >= opts.max_docs || delta.approx_bytes() >= opts.max_bytes
                })
                .collect();
            if due.is_empty() {
                return Ok(None);
            }
            let _busy = health
                .as_ref()
                .map(|h| trex_obs::InFlight::enter(&h.folds_in_flight));
            let report = fold_each(due)?;
            if let (true, Some(report)) = (opts.log_folds, &report) {
                eprintln!(
                    "fold: {} docs, {} new terms, {} lists refreshed, \
                     pause {:.3} ms, total {:.3} ms",
                    report.docs_folded,
                    report.new_terms,
                    report.lists_refreshed,
                    report.pause.as_secs_f64() * 1e3,
                    report.wall.as_secs_f64() * 1e3,
                );
            }
            Ok(report)
        })
    }

    /// Number of ticks that folded at least one partition.
    pub fn folds(&self) -> u64 {
        self.completed()
    }
}
