//! Property tests of the block codec and the block-backed list tables:
//! encode→decode round-trips under arbitrary split policies, headers always
//! agree with their entries, and the skip-pointer seeks are byte-identical
//! to filtered full scans.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use trex_index::blocks::{
    decode_erpl_block, decode_rpl_block, encode_erpl_list, encode_rpl_list, normalize_erpl,
    normalize_rpl, peek_erpl_header, peek_rpl_header, BlockLimits,
};
use trex_index::{ElementRef, ErplTable, Position, RplEntry, RplTable};
use trex_storage::codec::inverted_score_bits;
use trex_storage::Store;

const TERM: u32 = 7;
const SID: u32 = 3;

/// Valid element spans: `length >= 1` and `start()` does not underflow.
fn element() -> impl Strategy<Value = ElementRef> {
    (0u32..8, 0u32..500)
        .prop_flat_map(|(doc, end)| (Just(doc), Just(end), 1..=end + 1))
        .prop_map(|(doc, end, length)| ElementRef { doc, end, length })
}

/// Quantised non-negative scores — exactly representable, and coarse enough
/// that random lists contain ties (which exercise dedup-keep-last).
fn score() -> impl Strategy<Value = f32> {
    (0u32..200).prop_map(|q| q as f32 * 0.25)
}

fn scored_list(max_len: usize) -> impl Strategy<Value = Vec<(ElementRef, f32)>> {
    proptest::collection::vec((element(), score()), 0..max_len)
}

/// Arbitrary split policies, down to one-entry / few-byte blocks.
fn limits() -> impl Strategy<Value = BlockLimits> {
    (1usize..=40, 4usize..=200).prop_map(|(max_entries, max_bytes)| BlockLimits {
        max_entries,
        max_bytes,
    })
}

static CASE: AtomicUsize = AtomicUsize::new(0);

fn with_store<R>(f: impl FnOnce(&Store) -> R) -> R {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let mut path = std::env::temp_dir();
    path.push(format!("trex-blocks-prop-{case}-{}", std::process::id()));
    let store = Store::create(&path, 128).unwrap();
    let r = f(&store);
    drop(store);
    std::fs::remove_file(&path).ok();
    r
}

fn drain_rpl(it: &mut trex_index::RplIter<'_>) -> Vec<RplEntry> {
    let mut out = Vec::new();
    while let Some(e) = it.next_entry().unwrap() {
        out.push(e);
    }
    out
}

fn drain_erpl(it: &mut trex_index::ErplIter<'_>) -> Vec<RplEntry> {
    let mut out = Vec::new();
    while let Some(e) = it.next_entry().unwrap() {
        out.push(e);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any list, split any way, decodes back to exactly its normalised form,
    /// and every block header agrees with the entries it fronts.
    #[test]
    fn prop_rpl_codec_round_trips_under_any_split(
        list in scored_list(300),
        limits in limits(),
    ) {
        let norm = normalize_rpl(&list);
        let blocks = encode_rpl_list(&norm, limits);
        prop_assert_eq!(blocks.is_empty(), norm.is_empty());

        let mut decoded: Vec<RplEntry> = Vec::new();
        for value in &blocks {
            let entries = decode_rpl_block(TERM, SID, value).unwrap();
            let header = peek_rpl_header(value).unwrap();
            prop_assert_eq!(header.count as usize, entries.len());
            prop_assert!(entries.len() <= limits.max_entries);
            prop_assert_eq!(
                header.first_inv,
                inverted_score_bits(entries[0].score),
                "header max is the first entry's score"
            );
            prop_assert_eq!(
                header.last_inv,
                inverted_score_bits(entries[entries.len() - 1].score),
                "header min (the skip bound) is the last entry's score"
            );
            decoded.extend(entries);
        }

        prop_assert_eq!(decoded.len(), norm.len());
        for (got, &(inv, e)) in decoded.iter().zip(&norm) {
            prop_assert_eq!(got.term, TERM);
            prop_assert_eq!(got.sid, SID);
            prop_assert_eq!(got.element, e);
            prop_assert_eq!(inverted_score_bits(got.score), inv);
        }
    }

    /// ERPL analogue: position order round-trips and headers carry the
    /// correct skip bound (last element position) and max score.
    #[test]
    fn prop_erpl_codec_round_trips_under_any_split(
        list in scored_list(300),
        limits in limits(),
    ) {
        let norm = normalize_erpl(&list);
        let blocks = encode_erpl_list(&norm, limits);
        prop_assert_eq!(blocks.is_empty(), norm.is_empty());

        let mut decoded: Vec<RplEntry> = Vec::new();
        for value in &blocks {
            let entries = decode_erpl_block(TERM, SID, value).unwrap();
            let (header, _) = peek_erpl_header(value).unwrap();
            prop_assert_eq!(header.count as usize, entries.len());
            prop_assert!(entries.len() <= limits.max_entries);
            prop_assert_eq!(header.first, entries[0].element.end_position());
            prop_assert_eq!(
                header.last,
                entries[entries.len() - 1].element.end_position(),
                "header last is the seek skip bound"
            );
            let max = entries.iter().map(|e| e.score).fold(f32::NEG_INFINITY, f32::max);
            prop_assert_eq!(header.max_score.to_bits(), max.to_bits());
            decoded.extend(entries);
        }

        prop_assert_eq!(decoded.len(), norm.len());
        for (got, &(e, s)) in decoded.iter().zip(&norm) {
            prop_assert_eq!(got.element, e);
            prop_assert_eq!(got.score.to_bits(), s.to_bits());
        }
    }
}

proptest! {
    // Table-level cases open a real store each, so run fewer of them.
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Seeking the term-wide RPL merge iterator to a score bound yields
    /// byte-identical entries to a full scan with the high-score prefix
    /// dropped — for any pair of lists and any bound.
    #[test]
    fn prop_rpl_seek_equals_filtered_scan(
        a in scored_list(200),
        b in scored_list(200),
        bound in score(),
    ) {
        with_store(|store| {
            let mut t = RplTable::open(store).unwrap();
            t.put_list(TERM, 10, &a).unwrap();
            t.put_list(TERM, 20, &b).unwrap();

            let mut scan = t.iter_term(TERM).unwrap();
            let expected: Vec<RplEntry> = drain_rpl(&mut scan)
                .into_iter()
                .filter(|e| e.score <= bound)
                .collect();

            let mut seeked = t.iter_term(TERM).unwrap();
            seeked.seek_score_at_most(bound).unwrap();
            assert_eq!(drain_rpl(&mut seeked), expected, "bound {bound}");
        });
    }

    /// Seeking an ERPL iterator to a position yields byte-identical entries
    /// to a full scan with everything ending before it dropped.
    #[test]
    fn prop_erpl_seek_equals_filtered_scan(
        list in scored_list(300),
        doc in 0u32..8,
        offset in 0u32..500,
    ) {
        let pos = Position { doc, offset };
        with_store(|store| {
            let mut t = ErplTable::open(store).unwrap();
            t.put_list(TERM, SID, &list).unwrap();

            let mut scan = t.iter_list(TERM, SID).unwrap();
            let expected: Vec<RplEntry> = drain_erpl(&mut scan)
                .into_iter()
                .filter(|e| e.element.end_position() >= pos)
                .collect();

            let mut seeked = t.iter_list(TERM, SID).unwrap();
            seeked.seek(pos).unwrap();
            assert_eq!(drain_erpl(&mut seeked), expected, "pos {pos:?}");
        });
    }

    /// A put_list that fails partway through leaves the pair unmaterialised
    /// and rewritable, whatever the list shape and failure point.
    #[test]
    fn prop_failed_put_list_leaves_no_orphans(
        list in scored_list(400),
        fail_after in 0u32..6,
    ) {
        with_store(|store| {
            let mut t = RplTable::open(store).unwrap();
            t.fail_after_inserts(fail_after);
            let blocks = trex_index::blocks::list_size::<trex_index::Rpl>(&list).0 as u32;
            let result = t.put_list(TERM, SID, &list);
            if fail_after >= blocks {
                // Enough budget: the write succeeds and the injection arms
                // the *next* put instead — disarm by rewriting below.
                result.unwrap();
            } else {
                result.unwrap_err();
                assert!(!t.has_list(TERM, SID).unwrap());
                assert_eq!(t.total_bytes().unwrap(), 0);
                let mut it = t.iter_term(TERM).unwrap();
                assert!(it.next_entry().unwrap().is_none());
            }
            // The pair is always writable afterwards.
            t.fail_after_inserts(u32::MAX);
            t.put_list(TERM, SID, &list).unwrap();
            let norm = normalize_rpl(&list);
            let mut it = t.iter_term(TERM).unwrap();
            assert_eq!(drain_rpl(&mut it).len(), norm.len());
        });
    }
}
