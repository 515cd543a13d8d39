//! B+tree mutation and lookup logic.

use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{PageBuf, PageId, PageType, NO_PAGE, PAGE_SIZE};

use super::cursor::Cursor;
use super::{
    encode_internal_cell, encode_leaf_cell, internal_cell, internal_child_index,
    internal_child_offset, leaf_cell, leaf_search, MAX_KEY_LEN, MAX_VALUE_LEN,
};

/// A single B+tree rooted at a page of the shared store file.
pub struct BTree {
    pool: Arc<BufferPool>,
    root: PageId,
}

/// Bytes of cells (slots included) the left page keeps when an append past
/// the rightmost leaf splits it: 15/16 of the payload, leaving headroom for
/// later in-place updates without an immediate split.
const APPEND_FILL: usize = (PAGE_SIZE - crate::page::HEADER_LEN) * 15 / 16;

/// Outcome of a recursive insert: `Some((separator, new_right_page))` when the
/// child split and the parent must absorb a new separator.
type SplitResult = Option<(Vec<u8>, PageId)>;

impl BTree {
    /// Creates an empty tree (a single empty leaf) in `pool`.
    pub fn create(pool: Arc<BufferPool>) -> Result<BTree> {
        let (root, page) = pool.allocate()?;
        page.buf.write().init(PageType::Leaf);
        page.mark_dirty();
        Ok(BTree { pool, root })
    }

    /// Opens a tree whose root page is already known (from the catalog).
    pub fn open(pool: Arc<BufferPool>, root: PageId) -> BTree {
        BTree { pool, root }
    }

    /// The current root page id. Changes when the root splits; the store
    /// catalog records it at flush time.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Inserts `key -> value`, replacing any existing value for `key`.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if key.len() > MAX_KEY_LEN {
            return Err(StorageError::KeyTooLarge(key.len()));
        }
        if value.len() > MAX_VALUE_LEN {
            return Err(StorageError::ValueTooLarge(value.len()));
        }
        if let Some((sep, right)) = self.insert_into(self.root, key, value)? {
            let (new_root, page) = self.pool.allocate()?;
            {
                let mut buf = page.buf.write();
                buf.init(PageType::Internal);
                buf.insert_cell(0, &encode_internal_cell(&sep, self.root));
                buf.set_right_child(right);
            }
            page.mark_dirty();
            self.root = new_root;
        }
        Ok(())
    }

    fn insert_into(&self, page_id: PageId, key: &[u8], value: &[u8]) -> Result<SplitResult> {
        self.pool.counters().btree_node_visits.incr();
        let page = self.pool.fetch(page_id)?;
        let ty = page.buf.read().page_type()?;
        match ty {
            PageType::Leaf => self.insert_into_leaf(&page, key, value),
            PageType::Internal => {
                let (child_idx, child_id) = {
                    let buf = page.buf.read();
                    let idx = internal_child_index(&buf, key)?;
                    let child = if idx == buf.cell_count() {
                        buf.right_child()
                    } else {
                        internal_cell(&buf, idx)?.1
                    };
                    (idx, child)
                };
                let Some((sep, new_right)) = self.insert_into(child_id, key, value)? else {
                    return Ok(None);
                };
                // The child split: `child_id` now holds keys < sep and
                // `new_right` keys >= sep. Route sep..old_bound to new_right
                // by patching the old slot's child and inserting (sep, child).
                let mut buf = page.buf.write();
                if child_idx == buf.cell_count() {
                    buf.set_right_child(new_right);
                } else {
                    let off = internal_child_offset(&buf, child_idx)?;
                    buf.bytes_mut()[off..off + 4].copy_from_slice(&new_right.to_le_bytes());
                }
                let cell = encode_internal_cell(&sep, child_id);
                if buf.free_space() >= cell.len() + 2 {
                    buf.insert_cell(child_idx, &cell);
                    drop(buf);
                    page.mark_dirty();
                    return Ok(None);
                }
                // Internal page overflow: collect, add, split.
                let mut entries: Vec<(Vec<u8>, u32)> = Vec::with_capacity(buf.cell_count() + 1);
                for i in 0..buf.cell_count() {
                    let (k, c) = internal_cell(&buf, i)?;
                    entries.push((k.to_vec(), c));
                }
                entries.insert(child_idx, (sep, child_id));
                let right_child = buf.right_child();
                drop(buf);
                let split = self.split_internal(&page, entries, right_child)?;
                page.mark_dirty();
                Ok(Some(split))
            }
            other => Err(StorageError::Corrupt(format!(
                "unexpected page type {other:?} during descent"
            ))),
        }
    }

    fn insert_into_leaf(
        &self,
        page: &crate::buffer::PageRef,
        key: &[u8],
        value: &[u8],
    ) -> Result<SplitResult> {
        let mut buf = page.buf.write();
        let pos = leaf_search(&buf, key)?;
        let cell = encode_leaf_cell(key, value);
        match pos {
            Ok(i) => {
                // Replace: drop the old slot, then re-add (possibly splitting).
                buf.remove_slot(i);
                if buf.free_space() >= cell.len() + 2 {
                    buf.insert_cell(i, &cell);
                    drop(buf);
                    page.mark_dirty();
                    return Ok(None);
                }
                let result = self.overflow_leaf(&mut buf, i, key, value)?;
                drop(buf);
                page.mark_dirty();
                Ok(result)
            }
            Err(i) => {
                if buf.free_space() >= cell.len() + 2 {
                    buf.insert_cell(i, &cell);
                    drop(buf);
                    page.mark_dirty();
                    return Ok(None);
                }
                let result = self.overflow_leaf(&mut buf, i, key, value)?;
                drop(buf);
                page.mark_dirty();
                Ok(result)
            }
        }
    }

    /// Handles a leaf that cannot absorb the new cell in place: gathers the
    /// live cells plus the new entry, then either compacts in place (dead
    /// space from replacements may have been the only problem) or splits.
    fn overflow_leaf(
        &self,
        buf: &mut PageBuf,
        insert_at: usize,
        key: &[u8],
        value: &[u8],
    ) -> Result<SplitResult> {
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(buf.cell_count() + 1);
        for i in 0..buf.cell_count() {
            let (k, v) = leaf_cell(buf, i)?;
            entries.push((k.to_vec(), v.to_vec()));
        }
        entries.insert(insert_at, (key.to_vec(), value.to_vec()));

        let total: usize = entries
            .iter()
            .map(|(k, v)| encoded_leaf_len(k, v) + 2)
            .sum();
        if total + crate::page::HEADER_LEN <= PAGE_SIZE {
            // Compaction suffices.
            let next = buf.next_page();
            buf.init(PageType::Leaf);
            buf.set_next_page(next);
            for (i, (k, v)) in entries.iter().enumerate() {
                buf.insert_cell(i, &encode_leaf_cell(k, v));
            }
            return Ok(None);
        }

        // A key appended past the last cell of the rightmost leaf means the
        // table is being written in ascending key order (as the build writes
        // the posting table): the left page keeps cells up to APPEND_FILL
        // and only the rest move right, so such a load leaves nearly full
        // pages. Every other split is at the byte midpoint. Either way >= 1
        // cell stays on each side.
        let mut acc = 0usize;
        let split_at = if insert_at + 1 == entries.len() && buf.next_page() == NO_PAGE {
            entries
                .iter()
                .take_while(|(k, v)| {
                    acc += encoded_leaf_len(k, v) + 2;
                    acc <= APPEND_FILL
                })
                .count()
        } else {
            entries
                .iter()
                .position(|(k, v)| {
                    acc += encoded_leaf_len(k, v) + 2;
                    acc >= total / 2
                })
                .map_or(entries.len(), |i| i + 1)
        };
        let split_at = split_at.clamp(1, entries.len() - 1);
        let right_entries = entries.split_off(split_at);

        let (right_id, right_page) = self.pool.allocate()?;
        {
            let mut rbuf = right_page.buf.write();
            rbuf.init(PageType::Leaf);
            rbuf.set_next_page(buf.next_page());
            for (i, (k, v)) in right_entries.iter().enumerate() {
                rbuf.insert_cell(i, &encode_leaf_cell(k, v));
            }
        }
        right_page.mark_dirty();

        buf.init(PageType::Leaf);
        buf.set_next_page(right_id);
        for (i, (k, v)) in entries.iter().enumerate() {
            buf.insert_cell(i, &encode_leaf_cell(k, v));
        }

        Ok(Some((right_entries[0].0.clone(), right_id)))
    }

    /// Splits an overflowing internal node given its full entry list.
    fn split_internal(
        &self,
        page: &crate::buffer::PageRef,
        entries: Vec<(Vec<u8>, u32)>,
        right_child: PageId,
    ) -> Result<(Vec<u8>, PageId)> {
        // Promote the middle separator; its child becomes the left node's
        // right_child.
        let mid = entries.len() / 2;
        debug_assert!(mid >= 1 && mid < entries.len());
        let (promoted_key, promoted_child) = entries[mid].clone();
        let left_entries = &entries[..mid];
        let right_entries = &entries[mid + 1..];

        let (right_id, right_page) = self.pool.allocate()?;
        {
            let mut rbuf = right_page.buf.write();
            rbuf.init(PageType::Internal);
            for (i, (k, c)) in right_entries.iter().enumerate() {
                rbuf.insert_cell(i, &encode_internal_cell(k, *c));
            }
            rbuf.set_right_child(right_child);
        }
        right_page.mark_dirty();

        let mut buf = page.buf.write();
        buf.init(PageType::Internal);
        for (i, (k, c)) in left_entries.iter().enumerate() {
            buf.insert_cell(i, &encode_internal_cell(k, *c));
        }
        buf.set_right_child(promoted_child);

        Ok((promoted_key, right_id))
    }

    /// Looks up the value stored under `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let leaf = self.find_leaf(key)?;
        self.pool.counters().btree_node_visits.incr();
        let page = self.pool.fetch(leaf)?;
        let buf = page.buf.read();
        match leaf_search(&buf, key)? {
            Ok(i) => Ok(Some(leaf_cell(&buf, i)?.1.to_vec())),
            Err(_) => Ok(None),
        }
    }

    /// Removes `key` if present; returns whether a cell was removed.
    ///
    /// No rebalancing is performed (see module docs).
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        let leaf = self.find_leaf(key)?;
        self.pool.counters().btree_node_visits.incr();
        let page = self.pool.fetch(leaf)?;
        let mut buf = page.buf.write();
        match leaf_search(&buf, key)? {
            Ok(i) => {
                buf.remove_slot(i);
                drop(buf);
                page.mark_dirty();
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    /// Page id of the leaf that does / would contain `key`.
    fn find_leaf(&self, key: &[u8]) -> Result<PageId> {
        let mut page_id = self.root;
        loop {
            self.pool.counters().btree_node_visits.incr();
            let page = self.pool.fetch(page_id)?;
            let buf = page.buf.read();
            match buf.page_type()? {
                PageType::Leaf => return Ok(page_id),
                PageType::Internal => {
                    let idx = internal_child_index(&buf, key)?;
                    page_id = if idx == buf.cell_count() {
                        buf.right_child()
                    } else {
                        internal_cell(&buf, idx)?.1
                    };
                }
                other => {
                    return Err(StorageError::Corrupt(format!(
                        "unexpected page type {other:?} during descent"
                    )))
                }
            }
        }
    }

    /// Page id of the leftmost leaf.
    fn first_leaf(&self) -> Result<PageId> {
        let mut page_id = self.root;
        loop {
            self.pool.counters().btree_node_visits.incr();
            let page = self.pool.fetch(page_id)?;
            let buf = page.buf.read();
            match buf.page_type()? {
                PageType::Leaf => return Ok(page_id),
                PageType::Internal => {
                    page_id = if buf.cell_count() > 0 {
                        internal_cell(&buf, 0)?.1
                    } else {
                        buf.right_child()
                    };
                }
                other => {
                    return Err(StorageError::Corrupt(format!(
                        "unexpected page type {other:?} during descent"
                    )))
                }
            }
        }
    }

    /// Cursor positioned at the first entry with key `>= key`.
    ///
    /// Cursors observe a frozen traversal position, not a snapshot: they are
    /// invalidated by concurrent mutation of the same tree. TReX builds its
    /// tables fully before querying them, so this is never exercised.
    pub fn seek(&self, key: &[u8]) -> Result<Cursor> {
        let leaf = self.find_leaf(key)?;
        let idx = {
            self.pool.counters().btree_node_visits.incr();
            let page = self.pool.fetch(leaf)?;
            let buf = page.buf.read();
            match leaf_search(&buf, key)? {
                Ok(i) => i,
                Err(i) => i,
            }
        };
        Ok(Cursor::new(self.pool.clone(), leaf, idx))
    }

    /// Cursor positioned at the smallest key in the tree.
    pub fn scan(&self) -> Result<Cursor> {
        Ok(Cursor::new(self.pool.clone(), self.first_leaf()?, 0))
    }

    /// Frees every page of the tree (used when the advisor drops a
    /// materialised index). The tree must not be used afterwards.
    pub fn destroy(self) -> Result<()> {
        self.destroy_page(self.root)
    }

    fn destroy_page(&self, page_id: PageId) -> Result<()> {
        let children: Vec<PageId> = {
            let page = self.pool.fetch(page_id)?;
            let buf = page.buf.read();
            match buf.page_type()? {
                PageType::Leaf => Vec::new(),
                PageType::Internal => {
                    let mut c: Vec<PageId> = (0..buf.cell_count())
                        .map(|i| internal_cell(&buf, i).map(|(_, id)| id))
                        .collect::<Result<_>>()?;
                    if buf.right_child() != NO_PAGE {
                        c.push(buf.right_child());
                    }
                    c
                }
                _ => Vec::new(),
            }
        };
        for child in children {
            self.destroy_page(child)?;
        }
        self.pool.free(page_id)
    }
}

fn encoded_leaf_len(key: &[u8], value: &[u8]) -> usize {
    crate::codec::varint_len(key.len() as u64)
        + crate::codec::varint_len(value.len() as u64)
        + key.len()
        + value.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    fn pool(name: &str) -> (Arc<BufferPool>, std::path::PathBuf) {
        let mut p = std::env::temp_dir();
        p.push(format!("trex-tree-{name}-{}", std::process::id()));
        let pager = Pager::create(&p).unwrap();
        (Arc::new(BufferPool::new(pager, 128)), p)
    }

    fn cleanup(path: &std::path::Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(crate::wal::wal_path(path)).ok();
    }

    /// A tree holding `keys` inserted in the given order, `value(i)` each.
    fn insert_all(
        pool: &Arc<BufferPool>,
        keys: impl Iterator<Item = u32>,
        value: impl Fn(u32) -> Vec<u8>,
    ) -> BTree {
        let mut tree = BTree::create(pool.clone()).unwrap();
        for i in keys {
            tree.insert(&i.to_be_bytes(), &value(i)).unwrap();
        }
        tree
    }

    #[test]
    fn ascending_inserts_leave_near_full_pages() {
        // The page counts a bottom-up bulk load at 15/16 fill produced for
        // these two sets; midpoint splits alone leave 196 and 3974 pages.
        let fixed = |i: u32| u64::from(i * 7).to_le_bytes().to_vec();
        let variable = |i: u32| vec![b'v'; (i % 700) as usize];
        for (name, value, bulk_pages) in [
            ("fill-fixed", &fixed as &dyn Fn(u32) -> Vec<u8>, 106u32),
            ("fill-var", &variable, 2408),
        ] {
            let (pool, path) = pool(name);
            insert_all(&pool, 0..50_000, value);
            // Every page but the store's meta page belongs to the tree.
            let pages = pool.page_count() - 1;
            assert!(
                pages.abs_diff(bulk_pages) <= bulk_pages.div_ceil(100),
                "{name}: {pages} pages, bulk load gave {bulk_pages}"
            );
            cleanup(&path);
        }
    }

    #[test]
    fn ascending_inserts_serve_gets_and_scans() {
        let (pool, path) = pool("basic");
        let tree = insert_all(&pool, 0..50_000, |i| (i * 7).to_le_bytes().to_vec());
        for i in (0..50_000u32).step_by(997) {
            assert_eq!(
                tree.get(&i.to_be_bytes()).unwrap().unwrap(),
                (i * 7).to_le_bytes()
            );
        }
        let mut cursor = tree.scan().unwrap();
        let mut count = 0u32;
        let mut prev: Option<Vec<u8>> = None;
        while let Some((k, _)) = cursor.next_entry().unwrap() {
            if let Some(p) = &prev {
                assert!(p < &k);
            }
            prev = Some(k);
            count += 1;
        }
        assert_eq!(count, 50_000);
        cleanup(&path);
    }

    #[test]
    fn interleaved_inserts_split_near_full_pages() {
        let (pool, path) = pool("interleave");
        // Even keys ascending leave near-full pages; odd keys then land
        // inside them, so every one of those splits is a midpoint split.
        let mut tree = insert_all(&pool, (0..1000u32).map(|i| i * 2), |_| b"even".to_vec());
        for i in 0..1000u32 {
            tree.insert(&(i * 2 + 1).to_be_bytes(), b"odd").unwrap();
        }
        for i in 0..2000u32 {
            let want: &[u8] = if i % 2 == 0 { b"even" } else { b"odd" };
            assert_eq!(tree.get(&i.to_be_bytes()).unwrap().unwrap(), want);
        }
        cleanup(&path);
    }

    #[test]
    fn variable_sized_values_fill_multiple_levels() {
        let (pool, path) = pool("varsize");
        let tree = insert_all(&pool, 0..5000, |i| vec![b'v'; (i % 700) as usize]);
        for i in (0..5000u32).step_by(313) {
            assert_eq!(
                tree.get(&i.to_be_bytes()).unwrap().unwrap().len(),
                (i % 700) as usize
            );
        }
        cleanup(&path);
    }
}
