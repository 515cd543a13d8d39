//! The `RPLs` table's read side: relevance posting lists in descending
//! score order (paper §2.2). Writes and the registry are the shared
//! [`ListTable`] path.
//!
//! Each list is stored as a handful of block records (see [`crate::blocks`])
//! keyed `(term, sid, block_no)`. The term-wide iterator TA consumes is a
//! k-way merge over the term's per-sid block streams, reproducing the seed
//! layout's `(term, inv_score, sid, doc, end)` key order exactly while
//! decoding blocks lazily and skipping ones whose header proves them
//! irrelevant.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use trex_obs::IndexCounters;
use trex_storage::codec::inverted_score_bits;
use trex_storage::{Result, StorageError, Table};
use trex_summary::Sid;
use trex_text::TermId;

use crate::blocks::{block_key, decode_rpl_block, peek_rpl_header};
use crate::encode::RplEntry;
use crate::registry::{ListTable, Rpl};

/// Write/read access to the `RPLs` table.
pub type RplTable = ListTable<Rpl>;

impl ListTable<Rpl> {
    /// Iterator over all RPL entries of `term` in descending score order —
    /// TA's sorted access. Entries of sids outside the query are yielded too;
    /// TA skips them (paper §3.3).
    pub fn iter_term(&self, term: TermId) -> Result<RplIter<'_>> {
        let streams = self
            .registry
            .sids_of(term)?
            .into_iter()
            .map(|(sid, stats)| RplStream {
                sid,
                blocks: stats.blocks,
                next_block: 0,
                entries: Vec::new(),
                pos: 0,
            })
            .collect();
        let mut it = RplIter {
            table: &self.table,
            obs: self.obs.clone(),
            term,
            streams,
            heap: BinaryHeap::new(),
        };
        for idx in 0..it.streams.len() {
            it.push_head(idx)?;
        }
        Ok(it)
    }
}

/// The merge key of one stream head: `(inv_score, sid, doc, end)` plus the
/// stream index, matching the seed layout's key order.
type HeadKey = (u32, Sid, u32, u32, usize);

/// One sid's lazily decoded block stream.
struct RplStream {
    sid: Sid,
    blocks: u64,
    next_block: u64,
    entries: Vec<RplEntry>,
    pos: usize,
}

/// Descending-score iterator over one term's RPL entries: a k-way merge of
/// the term's per-sid block streams on `(inv_score, sid, doc, end)` — the
/// seed layout's exact key order.
pub struct RplIter<'a> {
    table: &'a Table,
    obs: Arc<IndexCounters>,
    term: TermId,
    streams: Vec<RplStream>,
    /// Min-heap of each stream's current head.
    heap: BinaryHeap<Reverse<HeadKey>>,
}

impl RplIter<'_> {
    /// The next entry, or `None` when this term's entries are exhausted.
    pub fn next_entry(&mut self) -> Result<Option<RplEntry>> {
        let Some(Reverse((_, _, _, _, idx))) = self.heap.pop() else {
            return Ok(None);
        };
        let stream = &mut self.streams[idx];
        let entry = stream.entries[stream.pos];
        stream.pos += 1;
        self.push_head(idx)?;
        self.obs.rpl_entries.incr();
        Ok(Some(entry))
    }

    /// Positions the iterator at the first entry (in merged order) whose
    /// score is `<= score`, skipping whole blocks via their headers without
    /// decoding them. Only moves forward; seeking backwards is a no-op for
    /// already-passed entries. Sorted access from the new position is
    /// byte-identical to a full scan that discarded the higher-scoring
    /// prefix.
    pub fn seek_score_at_most(&mut self, score: f32) -> Result<()> {
        let target = inverted_score_bits(score);
        self.heap.clear();
        for idx in 0..self.streams.len() {
            self.seek_stream(idx, target)?;
            self.push_head(idx)?;
        }
        Ok(())
    }

    fn seek_stream(&mut self, idx: usize, target: u32) -> Result<()> {
        loop {
            {
                let stream = &mut self.streams[idx];
                // Advance within the decoded block: entries with inv < target
                // score strictly above the bound.
                while stream.pos < stream.entries.len()
                    && inverted_score_bits(stream.entries[stream.pos].score) < target
                {
                    stream.pos += 1;
                }
                if stream.pos < stream.entries.len() || stream.next_block >= stream.blocks {
                    return Ok(());
                }
            }
            // Peek the next block's header: if even its lowest-scoring entry
            // beats the bound, skip the whole block undecoded.
            let (sid, no) = {
                let s = &self.streams[idx];
                (s.sid, s.next_block as u32)
            };
            let value = self.fetch_block_value(sid, no)?;
            let decoded = if peek_rpl_header(&value)?.last_inv < target {
                Vec::new()
            } else {
                decode_rpl_block(self.term, sid, &value)?
            };
            let stream = &mut self.streams[idx];
            stream.next_block += 1;
            stream.entries = decoded;
            stream.pos = 0;
        }
    }

    /// Refills `stream`'s head (decoding the next block if needed) and
    /// pushes it onto the merge heap.
    fn push_head(&mut self, idx: usize) -> Result<()> {
        loop {
            let stream = &self.streams[idx];
            if stream.pos < stream.entries.len() {
                let e = stream.entries[stream.pos];
                self.heap.push(Reverse((
                    inverted_score_bits(e.score),
                    e.sid,
                    e.element.doc,
                    e.element.end,
                    idx,
                )));
                return Ok(());
            }
            if stream.next_block >= stream.blocks {
                return Ok(());
            }
            let (sid, no) = (stream.sid, stream.next_block as u32);
            let value = self.fetch_block_value(sid, no)?;
            let entries = decode_rpl_block(self.term, sid, &value)?;
            let stream = &mut self.streams[idx];
            stream.entries = entries;
            stream.pos = 0;
            stream.next_block += 1;
        }
    }

    fn fetch_block_value(&self, sid: Sid, no: u32) -> Result<Vec<u8>> {
        let key = block_key(self.term, sid, no);
        let value = self.table.get(&key)?.ok_or_else(|| {
            StorageError::Corrupt(format!(
                "missing RPL block {no} of term {} sid {sid}",
                self.term
            ))
        })?;
        self.obs.rpl_blocks.incr();
        self.obs.rpl_bytes.add((key.len() + value.len()) as u64);
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::ElementRef;
    use crate::registry::tests::{self as family, el, with_table};

    fn with_rpls<R>(name: &str, f: impl FnOnce(&mut RplTable) -> R) -> R {
        with_table(name, f)
    }

    fn drain(it: &mut RplIter<'_>) -> Vec<RplEntry> {
        let mut out = Vec::new();
        while let Some(e) = it.next_entry().unwrap() {
            out.push(e);
        }
        out
    }

    /// The entries of list `(term, sid)`, read through TA's term-wide scan.
    fn read(t: &RplTable, term: TermId, sid: Sid) -> Vec<RplEntry> {
        let mut it = t.iter_term(term).unwrap();
        drain(&mut it)
            .into_iter()
            .filter(|e| e.sid == sid)
            .collect()
    }

    #[test]
    fn registry_tracks_materialisation() {
        family::registry_tracks_materialisation(read);
    }

    #[test]
    fn drop_list_removes_only_that_sid() {
        family::drop_list_removes_only_that_sid(read);
    }

    #[test]
    fn put_list_replaces_existing() {
        family::put_list_replaces_existing(read);
    }

    #[test]
    fn failed_put_list_leaves_no_orphans() {
        family::failed_put_list_leaves_no_orphans(read);
    }

    #[test]
    fn iteration_is_descending_by_score() {
        with_rpls("desc", |t| {
            t.put_list(
                1,
                10,
                &[(el(0, 5, 2), 0.5), (el(0, 9, 3), 2.5), (el(1, 4, 1), 1.0)],
            )
            .unwrap();
            let mut it = t.iter_term(1).unwrap();
            let scores: Vec<f32> = drain(&mut it).iter().map(|e| e.score).collect();
            assert_eq!(scores, vec![2.5, 1.0, 0.5]);
        });
    }

    #[test]
    fn multiple_sids_interleave_by_score() {
        with_rpls("multi", |t| {
            t.put_list(1, 10, &[(el(0, 5, 2), 3.0), (el(0, 9, 3), 1.0)])
                .unwrap();
            t.put_list(1, 20, &[(el(1, 5, 2), 2.0)]).unwrap();
            let mut it = t.iter_term(1).unwrap();
            let got: Vec<(Sid, f32)> = drain(&mut it).iter().map(|e| (e.sid, e.score)).collect();
            assert_eq!(got, vec![(10, 3.0), (20, 2.0), (10, 1.0)]);
        });
    }

    #[test]
    fn equal_scores_are_all_retained() {
        with_rpls("ties", |t| {
            t.put_list(1, 10, &[(el(0, 5, 2), 1.5), (el(0, 9, 3), 1.5)])
                .unwrap();
            let mut it = t.iter_term(1).unwrap();
            assert_eq!(drain(&mut it).len(), 2);
        });
    }

    #[test]
    fn long_lists_split_into_multiple_blocks_and_round_trip() {
        with_rpls("split", |t| {
            let entries: Vec<(ElementRef, f32)> = (0..1000)
                .map(|i| (el(i / 100, (i % 100) * 3 + 2, 3), (i % 37) as f32 * 0.25))
                .collect();
            t.put_list(1, 10, &entries).unwrap();
            let stats = t.list_stats(1, 10).unwrap().unwrap();
            assert_eq!(stats.entries, 1000);
            assert!(stats.blocks >= 1000 / 128, "blocks {}", stats.blocks);
            let mut it = t.iter_term(1).unwrap();
            let got = drain(&mut it);
            assert_eq!(got.len(), 1000);
            assert!(got.windows(2).all(|w| w[0].score >= w[1].score));
            // Dropping deletes every block.
            t.drop_list(1, 10).unwrap().unwrap();
            assert_eq!(t.total_bytes().unwrap(), 0);
            let mut it = t.iter_term(1).unwrap();
            assert!(it.next_entry().unwrap().is_none());
        });
    }

    #[test]
    fn seek_score_at_most_matches_full_scan() {
        with_rpls("seek", |t| {
            let entries: Vec<(ElementRef, f32)> = (0..600)
                .map(|i| (el(i / 60, (i % 60) * 2 + 1, 2), (i % 50) as f32 * 0.5))
                .collect();
            t.put_list(1, 10, &entries).unwrap();
            t.put_list(1, 20, &entries[..300]).unwrap();
            for bound in [24.5f32, 10.0, 3.25, 0.0, 100.0] {
                let mut scan = t.iter_term(1).unwrap();
                let expected: Vec<RplEntry> = drain(&mut scan)
                    .into_iter()
                    .filter(|e| e.score <= bound)
                    .collect();
                let mut seeked = t.iter_term(1).unwrap();
                seeked.seek_score_at_most(bound).unwrap();
                let got = drain(&mut seeked);
                assert_eq!(got, expected, "bound {bound}");
            }
        });
    }
}
