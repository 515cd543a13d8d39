//! The `ERPLs` table's read side: element-relevance posting lists in
//! position order (paper §2.2), consumed by the Merge algorithm. Writes and
//! the registry are the shared [`ListTable`] path.
//!
//! Each `(term, sid)` list is stored as block records (see [`crate::blocks`])
//! keyed `(term, sid, block_no)`. The iterator decodes blocks lazily and
//! `seek(pos)` skips blocks whose header proves every contained element ends
//! before `pos`.

use std::sync::Arc;

use trex_obs::IndexCounters;
use trex_storage::{Result, StorageError, Table};
use trex_summary::Sid;
use trex_text::TermId;

use crate::blocks::{block_key, decode_erpl_block, peek_erpl_header};
use crate::encode::{Position, RplEntry};
use crate::registry::{Erpl, ListTable};

/// Write/read access to the `ERPLs` table.
pub type ErplTable = ListTable<Erpl>;

impl ListTable<Erpl> {
    /// Iterator over the list of `(term, sid)` in end-position order.
    pub fn iter_list(&self, term: TermId, sid: Sid) -> Result<ErplIter<'_>> {
        let blocks = self.registry.get(term, sid)?.map(|s| s.blocks).unwrap_or(0);
        Ok(ErplIter {
            table: &self.table,
            obs: self.obs.clone(),
            term,
            sid,
            blocks,
            next_block: 0,
            entries: Vec::new(),
            pos: 0,
        })
    }
}

/// Position-order iterator over one (term, sid) list, decoding block records
/// lazily.
pub struct ErplIter<'a> {
    table: &'a Table,
    obs: Arc<IndexCounters>,
    term: TermId,
    sid: Sid,
    blocks: u64,
    next_block: u64,
    entries: Vec<RplEntry>,
    pos: usize,
}

impl ErplIter<'_> {
    /// The next entry, or `None` when the list is exhausted.
    pub fn next_entry(&mut self) -> Result<Option<RplEntry>> {
        while self.pos >= self.entries.len() {
            if self.next_block >= self.blocks {
                return Ok(None);
            }
            let value = self.fetch_block_value(self.next_block as u32)?;
            self.entries = decode_erpl_block(self.term, self.sid, &value)?;
            self.pos = 0;
            self.next_block += 1;
        }
        let entry = self.entries[self.pos];
        self.pos += 1;
        self.obs.erpl_entries.incr();
        Ok(Some(entry))
    }

    /// Positions the iterator at the first element whose end position is
    /// `>= pos`, skipping whole blocks via their headers without decoding
    /// them. Only moves forward; elements already passed stay passed. The
    /// entries yielded afterwards are byte-identical to a full scan that
    /// discarded everything ending before `pos`.
    pub fn seek(&mut self, pos: Position) -> Result<()> {
        loop {
            // Advance within the decoded block first.
            while self.pos < self.entries.len()
                && self.entries[self.pos].element.end_position() < pos
            {
                self.pos += 1;
            }
            if self.pos < self.entries.len() || self.next_block >= self.blocks {
                return Ok(());
            }
            let value = self.fetch_block_value(self.next_block as u32)?;
            let (header, _) = peek_erpl_header(&value)?;
            self.next_block += 1;
            if header.last < pos {
                // Every element in the block ends before `pos`: skip it
                // without decoding a single entry.
                self.entries.clear();
                self.pos = 0;
                continue;
            }
            self.entries = decode_erpl_block(self.term, self.sid, &value)?;
            self.pos = 0;
        }
    }

    fn fetch_block_value(&self, no: u32) -> Result<Vec<u8>> {
        let key = block_key(self.term, self.sid, no);
        let value = self.table.get(&key)?.ok_or_else(|| {
            StorageError::Corrupt(format!(
                "missing ERPL block {no} of term {} sid {}",
                self.term, self.sid
            ))
        })?;
        self.obs.erpl_blocks.incr();
        self.obs.erpl_bytes.add((key.len() + value.len()) as u64);
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::ElementRef;
    use crate::registry::tests::{self as family, el, with_table};

    fn with_erpls<R>(name: &str, f: impl FnOnce(&mut ErplTable) -> R) -> R {
        with_table(name, f)
    }

    fn drain(it: &mut ErplIter<'_>) -> Vec<RplEntry> {
        let mut out = Vec::new();
        while let Some(e) = it.next_entry().unwrap() {
            out.push(e);
        }
        out
    }

    /// The entries of list `(term, sid)`, read through Merge's iterator.
    fn read(t: &ErplTable, term: TermId, sid: Sid) -> Vec<RplEntry> {
        drain(&mut t.iter_list(term, sid).unwrap())
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
    fn iteration_is_position_order_within_list() {
        with_erpls("order", |t| {
            t.put_list(
                1,
                10,
                &[(el(1, 4, 1), 1.0), (el(0, 9, 3), 2.5), (el(0, 5, 2), 0.5)],
            )
            .unwrap();
            let mut it = t.iter_list(1, 10).unwrap();
            let got: Vec<(u32, u32, f32)> = drain(&mut it)
                .iter()
                .map(|e| (e.element.doc, e.element.end, e.score))
                .collect();
            assert_eq!(got, vec![(0, 5, 0.5), (0, 9, 2.5), (1, 4, 1.0)]);
        });
    }

    #[test]
    fn lists_are_isolated_by_term_and_sid() {
        with_erpls("isolate", |t| {
            t.put_list(1, 10, &[(el(0, 5, 2), 1.0)]).unwrap();
            t.put_list(1, 11, &[(el(0, 6, 2), 2.0)]).unwrap();
            t.put_list(2, 10, &[(el(0, 7, 2), 3.0)]).unwrap();
            let mut it = t.iter_list(1, 10).unwrap();
            assert_eq!(it.next_entry().unwrap().unwrap().score, 1.0);
            assert!(it.next_entry().unwrap().is_none());
        });
    }

    #[test]
    fn missing_list_iterates_empty() {
        with_erpls("missing", |t| {
            let mut it = t.iter_list(5, 5).unwrap();
            assert!(it.next_entry().unwrap().is_none());
        });
    }

    #[test]
    fn long_lists_split_and_round_trip() {
        with_erpls("split", |t| {
            let entries: Vec<(ElementRef, f32)> = (0..900)
                .map(|i| (el(i / 90, (i % 90) * 4 + 3, 4), (i % 23) as f32 * 0.5))
                .collect();
            t.put_list(1, 10, &entries).unwrap();
            let stats = t.list_stats(1, 10).unwrap().unwrap();
            assert_eq!(stats.entries, 900);
            assert!(stats.blocks > 1);
            let mut it = t.iter_list(1, 10).unwrap();
            let got = drain(&mut it);
            assert_eq!(got.len(), 900);
            assert!(got.windows(2).all(
                |w| (w[0].element.doc, w[0].element.end) < (w[1].element.doc, w[1].element.end)
            ));
        });
    }

    #[test]
    fn seek_matches_full_scan() {
        with_erpls("seek", |t| {
            let entries: Vec<(ElementRef, f32)> = (0..700)
                .map(|i| (el(i / 70, (i % 70) * 3 + 2, 3), (i % 13) as f32))
                .collect();
            t.put_list(1, 10, &entries).unwrap();
            for pos in [
                Position { doc: 0, offset: 0 },
                Position { doc: 3, offset: 17 },
                Position {
                    doc: 7,
                    offset: 100,
                },
                Position { doc: 99, offset: 0 },
            ] {
                let mut scan = t.iter_list(1, 10).unwrap();
                let expected: Vec<RplEntry> = drain(&mut scan)
                    .into_iter()
                    .filter(|e| e.element.end_position() >= pos)
                    .collect();
                let mut seeked = t.iter_list(1, 10).unwrap();
                seeked.seek(pos).unwrap();
                assert_eq!(drain(&mut seeked), expected, "pos {pos:?}");
            }
        });
    }
}
