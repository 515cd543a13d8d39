//! TA — the threshold algorithm over RPLs (paper §3.3).
//!
//! TReX implements TA "in a version similar to the implementation that has
//! been used in TopX": per-term iterators over the RPLs table deliver
//! elements in descending score order (sorted access only — the RPL layout
//! offers no random access by element), candidates accumulate partial sums
//! with best/worst score bounds, and the algorithm stops once no candidate
//! outside the current top-k can still enter it *and* the top-k scores are
//! exact. Entries whose sid is not among the query sids are skipped (§3.3).
//!
//! Heap management is instrumented with [`HeapClock`] so the ITA ("ideal
//! heap") time of §5.2 can be derived as `wall - heap_time`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use trex_index::{ElementRef, RplTable};
use trex_summary::Sid;
use trex_text::TermId;

use crate::answer::{top_k, Answer};
use crate::heap::{HeapClock, TopKHeap};
use crate::serve::deadline::{Deadline, CHECK_INTERVAL};
use crate::{Result, TrexError};

/// Hard upper bound on the number of query terms: candidate bookkeeping
/// tracks seen terms in a `u64` bitmask (`1 << j`).
pub const TA_MAX_TERMS: usize = 64;

/// Options for a TA run.
#[derive(Debug, Clone, Copy)]
pub struct TaOptions {
    /// How many answers to return.
    pub k: usize,
    /// Measure heap-management time (for ITA derivation). Disable in
    /// correctness tests to avoid timing overhead.
    pub measure_heap: bool,
    /// Sorted accesses between stopping-condition checks.
    pub check_interval: usize,
}

impl TaOptions {
    /// Defaults: measure heap time, check every 64 accesses.
    pub fn new(k: usize) -> TaOptions {
        TaOptions {
            k,
            measure_heap: true,
            check_interval: 64,
        }
    }
}

/// Execution statistics of one TA run.
#[derive(Debug, Clone, Default)]
pub struct TaStats {
    /// Wall-clock time (includes heap management).
    pub wall: Duration,
    /// Time spent in top-k heap operations; `wall - heap_time` is the ITA
    /// time of the paper's figures.
    pub heap_time: Duration,
    /// Sorted accesses per term (entries read from each RPL, matching or
    /// skipped).
    pub depth: Vec<u64>,
    /// Total sorted accesses.
    pub sorted_accesses: u64,
    /// Top-k heap (pushes, pops).
    pub heap_ops: (u64, u64),
    /// Peak size of the candidate pool.
    pub candidates_peak: usize,
    /// Whether every RPL was read to its end — the §5.2 observation that
    /// explains why Merge often beats TA.
    pub read_entire_lists: bool,
}

impl TaStats {
    /// The derived ITA ("ideal heap management") time.
    pub fn ita_time(&self) -> Duration {
        self.wall.saturating_sub(self.heap_time)
    }
}

#[derive(Debug)]
struct Candidate {
    element: ElementRef,
    sid: Sid,
    /// Sum of scores seen so far (the worst score). Used for bounds only;
    /// the exact final score is recomputed from `contrib` in term order so
    /// that floating-point summation order matches ERA and Merge.
    sum: f32,
    /// Per-term contributions (indexed like `terms`).
    contrib: Vec<f32>,
    /// Bit j set ⇔ term j's contribution has been seen.
    mask: u64,
}

impl Candidate {
    /// The exact score in canonical (term-order) summation.
    fn exact_score(&self) -> f32 {
        self.contrib.iter().sum()
    }
}

/// Runs TA for the translated query `(sids, terms)`.
///
/// Requires the RPL lists of every `(term, sid)` pair to be materialised;
/// the engine checks this before choosing TA. At most 64 terms. Polls the
/// [`Deadline`] every [`CHECK_INTERVAL`] sorted accesses
/// ([`Deadline::none`] never fires); an expired run fails with
/// [`TrexError::DeadlineExceeded`].
pub fn ta(
    rpls: &RplTable,
    sids: &[Sid],
    terms: &[TermId],
    opts: TaOptions,
    deadline: Deadline,
) -> Result<(Vec<Answer>, TaStats)> {
    if terms.len() > TA_MAX_TERMS {
        // `1 << j` on the u64 mask would shift out of range for term 64:
        // a debug panic, or a silently wrapped mask (wrong top-k) in
        // release. Refuse up front with a clear error instead.
        return Err(TrexError::Unsupported(format!(
            "TA supports at most {TA_MAX_TERMS} query terms, got {}",
            terms.len()
        )));
    }
    if opts.k == 0 {
        return Ok((Vec::new(), TaStats::default()));
    }
    let start = Instant::now();
    let n = terms.len();
    let mut stats = TaStats {
        depth: vec![0; n],
        ..TaStats::default()
    };
    let mut clock = if opts.measure_heap {
        HeapClock::measuring()
    } else {
        HeapClock::disabled()
    };

    let sid_set: std::collections::HashSet<Sid> = sids.iter().copied().collect();
    let full_mask: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };

    let mut iters = Vec::with_capacity(n);
    for &term in terms {
        iters.push(rpls.iter_term(term)?);
    }
    // Upper bound on the score of the next unseen entry of each term.
    let mut high: Vec<f32> = vec![f32::INFINITY; n];
    let mut done: Vec<bool> = vec![false; n];

    // Keyed by (sid, ElementRef) — the full element identity: an ancestor
    // and its descendant can share (doc, end) (differing in length), and a
    // parent with a single child can share the whole span (differing in
    // sid). Both are distinct answers.
    let mut candidates: HashMap<(Sid, ElementRef), Candidate> = HashMap::new();
    let mut topk: TopKHeap<(Sid, ElementRef)> = TopKHeap::new(opts.k);
    let mut since_check = 0usize;
    let mut last_deadline_check = 0u64;

    let result = 'outer: loop {
        // Deadline poll on its own (coarser) cadence: one clock read per
        // CHECK_INTERVAL sorted accesses, independent of the
        // stopping-condition cadence — a single-term query must not read
        // the clock once per entry.
        if stats.sorted_accesses - last_deadline_check >= CHECK_INTERVAL {
            last_deadline_check = stats.sorted_accesses;
            deadline.check()?;
        }
        let mut progressed = false;
        for j in 0..n {
            if done[j] {
                continue;
            }
            match iters[j].next_entry()? {
                None => {
                    done[j] = true;
                    high[j] = 0.0;
                }
                Some(entry) => {
                    progressed = true;
                    stats.depth[j] += 1;
                    stats.sorted_accesses += 1;
                    since_check += 1;
                    high[j] = entry.score;
                    if !sid_set.contains(&entry.sid) {
                        continue; // skipped: wrong extent (§3.3)
                    }
                    let key = (entry.sid, entry.element);
                    let cand = candidates.entry(key).or_insert_with(|| Candidate {
                        element: entry.element,
                        sid: entry.sid,
                        sum: 0.0,
                        contrib: vec![0.0; n],
                        mask: 0,
                    });
                    debug_assert_eq!(cand.mask & (1 << j), 0, "one entry per (term, element)");
                    cand.sum += entry.score;
                    cand.contrib[j] = entry.score;
                    cand.mask |= 1 << j;
                    let sum = cand.sum;
                    // Offer to the top-k heap (heap management, clocked).
                    topk.offer(sum, key, &mut clock);
                }
            }
        }
        stats.candidates_peak = stats.candidates_peak.max(candidates.len());

        let all_done = done.iter().all(|&d| d);
        if all_done {
            break 'outer finish(&candidates, opts.k);
        }
        if !progressed {
            break 'outer finish(&candidates, opts.k);
        }

        if since_check >= opts.check_interval {
            since_check = 0;
            if check_and_prune(&mut candidates, &high, &done, full_mask, opts.k) {
                break 'outer finish(&candidates, opts.k);
            }
        }
    };

    stats.heap_time = clock.total();
    stats.heap_ops = topk.op_counts();
    stats.read_entire_lists = done.iter().all(|&d| d);
    stats.wall = start.elapsed();
    Ok((result, stats))
}

fn best_of(c: &Candidate, high: &[f32], full_mask: u64) -> f32 {
    let mut best = c.sum;
    let unseen = full_mask & !c.mask;
    for (j, &h) in high.iter().enumerate() {
        if unseen & (1 << j) != 0 {
            best += h;
        }
    }
    best
}

/// The exact-top-k stopping condition, fused with safe candidate pruning:
/// 1. the threshold `T = Σ high_j` cannot reach the current k-th worst sum
///    (no *new* candidate can enter or tie into the top-k);
/// 2. no existing candidate outside the top-k has a best score reaching the
///    k-th worst sum;
/// 3. every top-k candidate's score is exact (its unseen terms are all
///    exhausted), so the reported scores equal the true scores.
///
/// Candidates whose best possible score is strictly below the k-th worst
/// sum can never reach the top-k and are dropped here. The bound must come
/// from the exact candidate pool — the lazy top-k heap holds stale
/// duplicate entries that can inflate the k-th entry above the true k-th
/// best candidate, so its threshold is never used for pruning.
fn check_and_prune(
    candidates: &mut HashMap<(Sid, ElementRef), Candidate>,
    high: &[f32],
    done: &[bool],
    full_mask: u64,
    k: usize,
) -> bool {
    if candidates.len() < k {
        return false;
    }
    // k-th largest sum. `total_cmp` (the TopKHeap convention): decode
    // rejects non-finite scores, but a sort comparator must never panic on
    // the values it is handed — a corrupt sum would otherwise take down the
    // whole query thread instead of surfacing as an error.
    let mut sums: Vec<f32> = candidates.values().map(|c| c.sum).collect();
    sums.sort_unstable_by(|a, b| b.total_cmp(a));
    let min_k = sums[k - 1];

    candidates.retain(|_, c| best_of(c, high, full_mask) >= min_k);

    // (1) new candidates are out. Strict comparison: a newcomer that could
    // *tie* min_k must still be discovered, so ties at the boundary are
    // resolved deterministically (matching ERA's tiebreak).
    let threshold: f32 = high
        .iter()
        .zip(done)
        .map(|(&h, &d)| if d { 0.0 } else { h })
        .sum();
    if threshold >= min_k {
        return false;
    }

    // (2) + (3).
    let mut in_topk = 0usize;
    for c in candidates.values() {
        let best = best_of(c, high, full_mask);
        if c.sum >= min_k && in_topk < k {
            in_topk += 1;
            // Top-k member: score must be exact.
            let unseen = full_mask & !c.mask;
            let pending: f32 = high
                .iter()
                .enumerate()
                .filter(|&(j, _)| unseen & (1 << j) != 0 && !done[j])
                .map(|(_, &h)| h)
                .sum();
            if pending > 0.0 {
                return false;
            }
        } else if best >= min_k {
            // An outside candidate that could still tie or beat min_k —
            // keep reading (strict, for deterministic tie resolution).
            return false;
        }
    }
    true
}

fn finish(candidates: &HashMap<(Sid, ElementRef), Candidate>, k: usize) -> Vec<Answer> {
    let answers: Vec<Answer> = candidates
        .values()
        .map(|c| Answer {
            element: c.element,
            sid: c.sid,
            score: c.exact_score(),
        })
        .collect();
    top_k(answers, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_storage::Store;

    fn with_rpls<R>(name: &str, f: impl FnOnce(&mut RplTable) -> R) -> R {
        let mut path = std::env::temp_dir();
        path.push(format!("trex-ta-{name}-{}", std::process::id()));
        let store = Store::create(&path, 64).unwrap();
        let mut t = RplTable::open(&store).unwrap();
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

    fn opts(k: usize) -> TaOptions {
        TaOptions {
            k,
            measure_heap: false,
            check_interval: 2,
        }
    }

    #[test]
    fn single_term_top_k() {
        with_rpls("single", |rpls| {
            rpls.put_list(1, 10, &[(el(0, 1), 5.0), (el(0, 3), 3.0), (el(0, 5), 1.0)])
                .unwrap();
            let (answers, stats) = ta(rpls, &[10], &[1], opts(2), Deadline::none()).unwrap();
            assert_eq!(answers.len(), 2);
            assert_eq!(answers[0].score, 5.0);
            assert_eq!(answers[1].score, 3.0);
            assert!(stats.sorted_accesses >= 2);
        });
    }

    #[test]
    fn sums_across_terms() {
        with_rpls("sum", |rpls| {
            // Element (0,1) appears in both term lists.
            rpls.put_list(1, 10, &[(el(0, 1), 2.0), (el(0, 3), 1.5)])
                .unwrap();
            rpls.put_list(2, 10, &[(el(0, 1), 1.0), (el(0, 5), 0.5)])
                .unwrap();
            let (answers, _) = ta(rpls, &[10], &[1, 2], opts(3), Deadline::none()).unwrap();
            assert_eq!(answers.len(), 3);
            assert_eq!(answers[0].element, el(0, 1));
            assert!((answers[0].score - 3.0).abs() < 1e-6);
            assert_eq!(answers[1].score, 1.5);
        });
    }

    #[test]
    fn skips_entries_of_other_sids() {
        with_rpls("skip", |rpls| {
            rpls.put_list(1, 10, &[(el(0, 1), 5.0)]).unwrap();
            rpls.put_list(1, 99, &[(el(9, 9), 100.0)]).unwrap();
            let (answers, stats) = ta(rpls, &[10], &[1], opts(5), Deadline::none()).unwrap();
            assert_eq!(answers.len(), 1);
            assert_eq!(answers[0].element, el(0, 1));
            // The foreign entry was read (sorted access) but skipped.
            assert!(stats.sorted_accesses >= 2);
        });
    }

    #[test]
    fn k_larger_than_result_returns_all() {
        with_rpls("bigk", |rpls| {
            rpls.put_list(1, 10, &[(el(0, 1), 1.0), (el(0, 3), 0.5)])
                .unwrap();
            let (answers, stats) = ta(rpls, &[10], &[1], opts(100), Deadline::none()).unwrap();
            assert_eq!(answers.len(), 2);
            assert!(stats.read_entire_lists);
        });
    }

    #[test]
    fn empty_everything() {
        with_rpls("empty", |rpls| {
            let (answers, _) = ta(rpls, &[10], &[1], opts(5), Deadline::none()).unwrap();
            assert!(answers.is_empty());
            let (answers, _) = ta(rpls, &[], &[], opts(5), Deadline::none()).unwrap();
            assert!(answers.is_empty());
        });
    }

    #[test]
    fn early_stop_with_skewed_scores() {
        with_rpls("earlystop", |rpls| {
            // One dominant element, long tail. k=1 should not need the
            // whole list: after the top entry, threshold = next score < top.
            let mut entries = vec![(el(0, 1), 100.0)];
            for i in 0..500u32 {
                entries.push((el(1, 2 * i + 1), 0.001));
            }
            rpls.put_list(1, 10, &entries).unwrap();
            let (answers, stats) = ta(
                rpls,
                &[10],
                &[1],
                TaOptions {
                    k: 1,
                    measure_heap: false,
                    check_interval: 4,
                },
                Deadline::none(),
            )
            .unwrap();
            assert_eq!(answers[0].score, 100.0);
            assert!(
                stats.sorted_accesses < 100,
                "should stop early, read {}",
                stats.sorted_accesses
            );
            assert!(!stats.read_entire_lists);
        });
    }

    #[test]
    fn more_than_64_terms_is_a_clean_error() {
        with_rpls("arity65", |rpls| {
            let terms: Vec<TermId> = (0..65).collect();
            let err = ta(rpls, &[10], &terms, opts(5), Deadline::none()).unwrap_err();
            match err {
                TrexError::Unsupported(msg) => {
                    assert!(msg.contains("64"), "mentions the limit: {msg}");
                    assert!(msg.contains("65"), "mentions the arity: {msg}");
                }
                other => panic!("expected Unsupported, got {other:?}"),
            }
        });
    }

    #[test]
    fn exactly_64_terms_is_accepted() {
        with_rpls("arity64", |rpls| {
            // Only term 63 has a list; the other 63 iterators are empty.
            // Exercises the `n == 64` full-mask branch end to end.
            rpls.put_list(63, 10, &[(el(0, 1), 2.0)]).unwrap();
            let terms: Vec<TermId> = (0..64).collect();
            let (answers, _) = ta(rpls, &[10], &terms, opts(5), Deadline::none()).unwrap();
            assert_eq!(answers.len(), 1);
            assert_eq!(answers[0].element, el(0, 1));
        });
    }

    #[test]
    fn corrupt_nan_score_is_an_error_not_a_panic() {
        use trex_index::blocks::block_key;
        use trex_index::{ListFamily, Rpl};
        use trex_storage::codec::{inverted_score_bits, varint_len};

        let mut path = std::env::temp_dir();
        path.push(format!("trex-ta-nan-{}", std::process::id()));
        let store = Store::create(&path, 64).unwrap();
        let mut rpls = RplTable::open(&store).unwrap();
        rpls.put_list(1, 10, &[(el(0, 1), 5.0), (el(0, 3), 3.0)])
            .unwrap();
        // Hand-corrupt the stored block: overwrite the header's fixed
        // first-score field with bits that decode to NaN. `put_list` can
        // never write this (it debug-asserts finite scores), so go
        // underneath it and flip the bytes on disk.
        let mut table = store.open_table(Rpl::TABLE).unwrap();
        let key = block_key(1, 10, 0);
        let mut value = table.get(&key).unwrap().expect("block 0 exists");
        let off = varint_len(2); // count varint precedes first_inv
        value[off..off + 4].copy_from_slice(&inverted_score_bits(f32::NAN).to_be_bytes());
        table.insert(&key, &value).unwrap();
        let err = ta(&rpls, &[10], &[1], opts(5), Deadline::none()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("non-finite"), "decode-level rejection: {msg}");
        drop(rpls);
        drop(store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heap_time_is_measured_when_enabled() {
        with_rpls("heaptime", |rpls| {
            let entries: Vec<(ElementRef, f32)> = (0..2000u32)
                .map(|i| (el(0, 2 * i + 1), (i % 37) as f32))
                .collect();
            rpls.put_list(1, 10, &entries).unwrap();
            let (_, stats) = ta(rpls, &[10], &[1], TaOptions::new(10), Deadline::none()).unwrap();
            assert!(stats.heap_time > Duration::ZERO);
            assert!(stats.ita_time() <= stats.wall);
            assert!(stats.heap_ops.0 > 0);
        });
    }
}
