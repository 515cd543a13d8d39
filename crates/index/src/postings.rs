//! The `PostingLists` table: chunked inverted lists with the `m-pos`
//! sentinel, plus the per-term position iterator (`I_t` of paper §3.2).

use std::sync::Arc;

use trex_obs::IndexCounters;
use trex_storage::{Result, StorageError, Table};
use trex_text::TermId;

use crate::encode::{
    decode_postings_key, decode_postings_value, postings_key, postings_value, Position,
};
use crate::IndexError;

/// Name of the table inside the store.
pub const POSTINGS_TABLE: &str = "postings";

/// Worst-case encoded bytes per position: two 5-byte varints.
const WORST_PER_POSITION: usize = 10;

/// Number of positions per stored chunk: as many as fit the storage value
/// limit at the worst-case encoding. "Since the posting list might be too
/// long for storing it in a single tuple, it is divided and stored in
/// several tuples whenever needed" (§2.2).
pub const CHUNK_SIZE: usize = trex_storage::MAX_VALUE_LEN / WORST_PER_POSITION;

/// Write/read access to the `PostingLists` table.
pub struct PostingsTable {
    table: Table,
    /// Positions per chunk: [`CHUNK_SIZE`] outside unit tests.
    chunk_size: usize,
    obs: Arc<IndexCounters>,
}

impl PostingsTable {
    /// Wraps an open storage table.
    pub fn new(table: Table) -> PostingsTable {
        PostingsTable {
            table,
            chunk_size: CHUNK_SIZE,
            obs: Arc::new(IndexCounters::new()),
        }
    }

    /// Wraps with a small chunk size, so unit tests reach multi-chunk
    /// lists with a handful of positions.
    #[cfg(test)]
    fn with_chunk_size(table: Table, chunk_size: usize) -> PostingsTable {
        PostingsTable {
            chunk_size,
            ..PostingsTable::new(table)
        }
    }

    /// Reports decode work into `obs` (shared by every table of an index)
    /// instead of this table's private counter group.
    pub fn with_counters(mut self, obs: Arc<IndexCounters>) -> PostingsTable {
        self.obs = obs;
        self
    }

    /// Appends `positions` to the posting list of `term`: the one way
    /// postings are written, by the build (a new term per call) and by the
    /// delta fold. `positions` must be strictly ascending and sort above
    /// every stored position of `term`, as a fold's positions do because
    /// ingested doc ids are allocated above every stored one; the `m-pos`
    /// sentinel stays at the end of the list.
    ///
    /// Only the stored tail chunk (the one holding `m-pos`) is rewritten, or
    /// the whole list when `term` is new. Every chunk but the last holds
    /// exactly the chunk size, so the records written are the ones a
    /// rewrite of the whole list would write.
    ///
    /// A stored tail that does not end in `m-pos` is
    /// [`StorageError::Corrupt`]; positions at or below the stored tail are
    /// refused with [`IndexError::StaleDocId`] before anything is written.
    pub fn append(&mut self, term: TermId, positions: &[Position]) -> crate::Result<()> {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]), "sorted input");
        // The stored tail chunk of `term`, and the chunk before it.
        let (mut before, mut tail) = (None, None);
        let mut cursor = self.table.seek(&postings_key(term, Position::MIN))?;
        while let Some(entry) = cursor.next_entry()? {
            if decode_postings_key(&entry.0)?.0 != term {
                break;
            }
            before = tail.replace(entry);
        }
        drop(cursor);

        let mut kept = Vec::new();
        if let Some((key, value)) = &tail {
            if positions.is_empty() {
                return Ok(());
            }
            kept = decode_chunk(key, value)?;
            if kept.pop() != Some(Position::MAX) {
                return Err(StorageError::Corrupt(format!(
                    "posting list of term {term} does not end in m-pos"
                ))
                .into());
            }
            let last = match (kept.last(), &before) {
                (Some(&p), _) => Some(p),
                (None, Some((key, value))) => decode_chunk(key, value)?.last().copied(),
                (None, None) => None,
            };
            if let Some(last) = last.filter(|&last| positions[0] <= last) {
                return Err(IndexError::StaleDocId {
                    doc_id: positions[0].doc,
                    watermark: last.doc.saturating_add(1),
                });
            }
            self.table.delete(key)?;
        }
        let list = kept.into_iter().chain(positions.iter().copied());
        for (key, value) in chunk_entries(term, list, self.chunk_size) {
            self.table.insert(&key, &value)?;
        }
        Ok(())
    }

    /// Iterator over the positions of `term` — the paper's `I_t`. Yields
    /// every stored position including the trailing `m-pos`, and keeps
    /// returning `m-pos` once exhausted.
    pub fn positions(&self, term: TermId) -> Result<PositionIter> {
        let cursor = self.table.seek(&postings_key(term, Position::MIN))?;
        Ok(PositionIter {
            cursor,
            term,
            buffer: Vec::new(),
            buffer_pos: 0,
            done: false,
            obs: self.obs.clone(),
        })
    }

    /// Number of chunk tuples stored for `term`.
    #[cfg(test)]
    fn chunk_count(&self, term: TermId) -> Result<usize> {
        let mut cursor = self.table.seek(&postings_key(term, Position::MIN))?;
        let mut n = 0;
        while let Some((key, _)) = cursor.next_entry()? {
            let (t, _) = decode_postings_key(&key)?;
            if t != term {
                break;
            }
            n += 1;
        }
        Ok(n)
    }
}

/// Encodes one term's posting list into its chunked (key, value) tuples,
/// appending the `m-pos` sentinel. `positions` must be strictly ascending.
/// Every chunk but the last holds exactly `chunk_size` positions.
fn chunk_entries(
    term: TermId,
    positions: impl IntoIterator<Item = Position>,
    chunk_size: usize,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    let mut chunk: Vec<Position> = Vec::with_capacity(chunk_size);
    for p in positions.into_iter().chain(std::iter::once(Position::MAX)) {
        chunk.push(p);
        if chunk.len() >= chunk_size {
            out.push((postings_key(term, chunk[0]), postings_value(&chunk)));
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        out.push((postings_key(term, chunk[0]), postings_value(&chunk)));
    }
    out
}

/// Decodes one stored chunk tuple into its positions.
fn decode_chunk(key: &[u8], value: &[u8]) -> Result<Vec<Position>> {
    decode_postings_value(decode_postings_key(key)?.1, value)
}

/// Streaming iterator over one term's positions.
pub struct PositionIter {
    cursor: trex_storage::Cursor,
    term: TermId,
    buffer: Vec<Position>,
    buffer_pos: usize,
    done: bool,
    obs: Arc<IndexCounters>,
}

impl PositionIter {
    /// The paper's `I_t.nextPosition()`: the next position, or `m-pos`
    /// forever after the list ends.
    pub fn next_position(&mut self) -> Result<Position> {
        loop {
            if self.buffer_pos < self.buffer.len() {
                let p = self.buffer[self.buffer_pos];
                self.buffer_pos += 1;
                if p.is_max() {
                    // The stored end-of-list terminator is not a posting:
                    // counting it would add one phantom entry per list per
                    // store, breaking the exact additivity of
                    // `posting_entries` across partitioned stores.
                    self.done = true;
                } else {
                    self.obs.posting_entries.incr();
                }
                return Ok(p);
            }
            if self.done {
                return Ok(Position::MAX);
            }
            match self.cursor.next_entry()? {
                Some((key, value)) => {
                    let (term, first) = decode_postings_key(&key)?;
                    if term != self.term {
                        self.done = true;
                        return Ok(Position::MAX);
                    }
                    self.obs.posting_bytes.add((key.len() + value.len()) as u64);
                    self.buffer = decode_postings_value(first, &value)?;
                    self.buffer_pos = 0;
                }
                None => {
                    self.done = true;
                    return Ok(Position::MAX);
                }
            }
        }
    }

    /// Skips forward to the first position `>= target` (used by skip-ahead
    /// optimisations; semantics match repeatedly calling `next_position`).
    pub fn seek_position(&mut self, target: Position) -> Result<Position> {
        loop {
            let p = self.next_position()?;
            if p >= target {
                return Ok(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trex_storage::Store;

    fn with_table<R>(name: &str, chunk: usize, f: impl FnOnce(&mut PostingsTable) -> R) -> R {
        let mut path = std::env::temp_dir();
        path.push(format!("trex-postings-{name}-{}", std::process::id()));
        let store = Store::create(&path, 64).unwrap();
        let mut t =
            PostingsTable::with_chunk_size(store.create_table(POSTINGS_TABLE).unwrap(), chunk);
        let r = f(&mut t);
        drop(t);
        drop(store);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(trex_storage::wal_path(&path)).ok();
        r
    }

    fn pos(doc: u32, offset: u32) -> Position {
        Position { doc, offset }
    }

    #[test]
    fn positions_round_trip_with_m_pos() {
        with_table("rt", 4, |t| {
            let positions = vec![pos(0, 1), pos(0, 7), pos(1, 2), pos(3, 0), pos(3, 1)];
            t.append(5, &positions).unwrap();
            let mut it = t.positions(5).unwrap();
            for &want in &positions {
                assert_eq!(it.next_position().unwrap(), want);
            }
            assert!(it.next_position().unwrap().is_max(), "stored m-pos");
            assert!(it.next_position().unwrap().is_max(), "m-pos repeats");
        });
    }

    #[test]
    fn chunking_splits_long_lists() {
        with_table("chunks", 4, |t| {
            let positions: Vec<Position> = (0..10).map(|i| pos(0, i * 3)).collect();
            t.append(1, &positions).unwrap();
            // 10 positions + m-pos = 11 → 3 chunks of ≤4.
            assert_eq!(t.chunk_count(1).unwrap(), 3);
            let mut it = t.positions(1).unwrap();
            for &want in &positions {
                assert_eq!(it.next_position().unwrap(), want);
            }
            assert!(it.next_position().unwrap().is_max());
        });
    }

    #[test]
    fn shipped_chunk_size_fills_every_chunk_but_the_last() {
        let mut path = std::env::temp_dir();
        path.push(format!("trex-postings-shipped-{}", std::process::id()));
        let store = Store::create(&path, 64).unwrap();
        let mut t = PostingsTable::new(store.create_table(POSTINGS_TABLE).unwrap());
        // Far-apart documents and offsets above 2^28 make every position
        // nearly worst-case in bytes, so full chunks must still fit a value.
        let positions: Vec<Position> = (0..2 * CHUNK_SIZE as u32 + 1)
            .map(|i| pos(i * 10_000_000, u32::MAX - 1 - i))
            .collect();
        t.append(1, &positions).unwrap();
        let chunks: Vec<Vec<Position>> = records(&t)
            .iter()
            .map(|(key, value)| decode_chunk(key, value).unwrap())
            .collect();
        let sizes: Vec<usize> = chunks.iter().map(Vec::len).collect();
        // 2·CHUNK_SIZE + 1 positions plus m-pos.
        assert_eq!(sizes, vec![CHUNK_SIZE, CHUNK_SIZE, 2]);
        assert_eq!(chunks[2], vec![positions[2 * CHUNK_SIZE], Position::MAX]);
        drop(t);
        drop(store);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(trex_storage::wal_path(&path)).ok();
    }

    #[test]
    fn terms_do_not_bleed_into_each_other() {
        with_table("bleed", 4, |t| {
            t.append(1, &[pos(0, 1)]).unwrap();
            t.append(2, &[pos(0, 2)]).unwrap();
            let mut it = t.positions(1).unwrap();
            assert_eq!(it.next_position().unwrap(), pos(0, 1));
            assert!(it.next_position().unwrap().is_max());
            assert!(it.next_position().unwrap().is_max());
        });
    }

    #[test]
    fn missing_term_yields_m_pos_immediately() {
        with_table("missing", 4, |t| {
            t.append(7, &[pos(0, 1)]).unwrap();
            let mut it = t.positions(3).unwrap();
            assert!(it.next_position().unwrap().is_max());
        });
    }

    #[test]
    fn empty_posting_list_stores_only_m_pos() {
        with_table("emptylist", 4, |t| {
            t.append(9, &[]).unwrap();
            let mut it = t.positions(9).unwrap();
            assert!(it.next_position().unwrap().is_max());
            assert_eq!(t.chunk_count(9).unwrap(), 1);
        });
    }

    #[test]
    fn seek_position_lands_on_lower_bound() {
        with_table("seekpos", 3, |t| {
            let positions: Vec<Position> = (0..20).map(|i| pos(i / 5, (i % 5) * 4)).collect();
            let mut sorted = positions.clone();
            sorted.sort();
            t.append(2, &sorted).unwrap();
            let mut it = t.positions(2).unwrap();
            assert_eq!(it.seek_position(pos(1, 5)).unwrap(), pos(1, 8));
            // (1,8) was consumed by the previous seek; the stream resumes after it.
            assert_eq!(it.seek_position(pos(1, 8)).unwrap(), pos(1, 12));
            assert!(it.seek_position(pos(99, 0)).unwrap().is_max());
        });
    }

    /// Every record of the table, in key order.
    fn records(t: &PostingsTable) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut cursor = t.table.scan().unwrap();
        let mut out = Vec::new();
        while let Some(entry) = cursor.next_entry().unwrap() {
            out.push(entry);
        }
        out
    }

    #[test]
    fn append_refuses_a_tail_without_m_pos() {
        with_table("nompos", 4, |t| {
            let chunk = [pos(0, 1), pos(0, 2)];
            t.table
                .insert(&postings_key(3, chunk[0]), &postings_value(&chunk))
                .unwrap();
            let before = records(t);
            let err = t.append(3, &[pos(1, 0)]).unwrap_err();
            assert!(
                matches!(err, IndexError::Storage(StorageError::Corrupt(_))),
                "{err}"
            );
            assert_eq!(records(t), before, "nothing written");
        });
    }

    #[test]
    fn append_refuses_positions_at_or_below_the_stored_tail() {
        // Chunk size 2 over two positions leaves a tail chunk of `m-pos`
        // alone (term 5), so the check must look at the chunk before it.
        with_table("unsorted", 2, |t| {
            t.append(4, &[pos(2, 0), pos(2, 5), pos(3, 1)]).unwrap();
            t.append(5, &[pos(2, 0), pos(2, 5)]).unwrap();
            let before = records(t);
            for (term, stale) in [
                (4, pos(3, 1)),
                (4, pos(1, 9)),
                (5, pos(2, 5)),
                (5, pos(0, 0)),
            ] {
                let err = t.append(term, &[stale, pos(9, 0)]).unwrap_err();
                assert!(matches!(err, IndexError::StaleDocId { .. }), "{err}");
            }
            assert_eq!(records(t), before, "nothing written");
            t.append(5, &[pos(2, 6)]).unwrap();
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Appending a list piece by piece, for two terms in turn so tail
        /// rewrites land mid-tree too, writes exactly the records of each
        /// whole list's chunking.
        #[test]
        fn prop_appended_pieces_equal_the_whole_list(
            lists in proptest::collection::vec(
                proptest::collection::btree_set((0u32..40, 0u32..60), 0..400),
                2,
            ),
            cuts in proptest::collection::vec(0usize..400, 0..8),
            chunk in 2usize..12,
        ) {
            let lists: Vec<Vec<Position>> = lists
                .into_iter()
                .map(|set| set.into_iter().map(|(d, o)| pos(d, o)).collect())
                .collect();
            let got = with_table("prop", chunk, |t| {
                let mut from = [0usize; 2];
                for cut in cuts.iter().copied().chain([usize::MAX]) {
                    for (i, list) in lists.iter().enumerate() {
                        let to = cut.clamp(from[i], list.len());
                        t.append(i as TermId + 1, &list[from[i]..to]).unwrap();
                        from[i] = to;
                    }
                }
                records(t)
            });
            let want: Vec<_> = lists
                .iter()
                .enumerate()
                .flat_map(|(i, list)| chunk_entries(i as TermId + 1, list.iter().copied(), chunk))
                .collect();
            prop_assert_eq!(got, want);
        }
    }
}
