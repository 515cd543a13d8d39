//! A persistent B+tree over the buffer pool.
//!
//! * Variable-length byte-string keys and values, compared with memcmp.
//!   Composite keys therefore use the order-preserving encodings from
//!   [`crate::codec`].
//! * Leaves are chained left-to-right, giving the cheap ordered scans the
//!   TReX tables rely on ("an index on the primary key provides a sequential
//!   access to the tuples", paper §2.2).
//! * Deletion removes cells without rebalancing; a leaf may become empty and
//!   is then skipped by scans. TReX deletes whole redundant index lists at
//!   once (advisor evictions), so lazy deletion keeps the common paths simple
//!   without hurting the workloads this engine serves.
//!
//! Page cell formats:
//!
//! ```text
//! leaf cell:     varint key_len | varint value_len | key | value
//! internal cell: varint key_len | key | child_page_id (u32 LE)
//! ```
//!
//! Internal node convention: cell `i` holds `(sep_i, child_i)` where
//! `child_i` covers keys `< sep_i` (and `>= sep_{i-1}`); the header's
//! `right_child` covers keys `>= sep_last`.

mod cursor;
mod tree;

pub use cursor::Cursor;
pub use tree::BTree;

use crate::codec::read_varint;
use crate::error::{Result, StorageError};
use crate::page::PageBuf;

/// Maximum key length accepted by [`BTree::insert`].
pub const MAX_KEY_LEN: usize = 1024;
/// Maximum value length accepted by [`BTree::insert`].
pub const MAX_VALUE_LEN: usize = 2048;

/// Decodes the `i`-th leaf cell of `page` as `(key, value)`.
pub(crate) fn leaf_cell(page: &PageBuf, i: usize) -> Result<(&[u8], &[u8])> {
    let data = page.bytes();
    let off = page.slot(i);
    let (klen, n1) = read_varint(&data[off..])?;
    let (vlen, n2) = read_varint(&data[off + n1..])?;
    let kstart = off + n1 + n2;
    let vstart = kstart + klen as usize;
    let vend = vstart + vlen as usize;
    if vend > data.len() {
        return Err(StorageError::Corrupt("leaf cell overruns page".into()));
    }
    Ok((&data[kstart..vstart], &data[vstart..vend]))
}

/// Decodes the `i`-th internal cell of `page` as `(separator_key, child)`.
pub(crate) fn internal_cell(page: &PageBuf, i: usize) -> Result<(&[u8], u32)> {
    let data = page.bytes();
    let off = page.slot(i);
    let (klen, n1) = read_varint(&data[off..])?;
    let kstart = off + n1;
    let kend = kstart + klen as usize;
    let cend = kend + 4;
    if cend > data.len() {
        return Err(StorageError::Corrupt("internal cell overruns page".into()));
    }
    let mut b = [0u8; 4];
    b.copy_from_slice(&data[kend..cend]);
    Ok((&data[kstart..kend], u32::from_le_bytes(b)))
}

/// Byte offset (within the page) of the child pointer of internal cell `i`,
/// used to patch the pointer in place when a child splits.
pub(crate) fn internal_child_offset(page: &PageBuf, i: usize) -> Result<usize> {
    let data = page.bytes();
    let off = page.slot(i);
    let (klen, n1) = read_varint(&data[off..])?;
    Ok(off + n1 + klen as usize)
}

/// Encodes a leaf cell.
pub(crate) fn encode_leaf_cell(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut cell = Vec::with_capacity(key.len() + value.len() + 6);
    crate::codec::write_varint(&mut cell, key.len() as u64);
    crate::codec::write_varint(&mut cell, value.len() as u64);
    cell.extend_from_slice(key);
    cell.extend_from_slice(value);
    cell
}

/// Encodes an internal cell.
pub(crate) fn encode_internal_cell(key: &[u8], child: u32) -> Vec<u8> {
    let mut cell = Vec::with_capacity(key.len() + 8);
    crate::codec::write_varint(&mut cell, key.len() as u64);
    cell.extend_from_slice(key);
    cell.extend_from_slice(&child.to_le_bytes());
    cell
}

/// Binary search over a leaf page. Returns `Ok(i)` if cell `i` holds `key`,
/// `Err(i)` with the insertion position otherwise.
pub(crate) fn leaf_search(page: &PageBuf, key: &[u8]) -> Result<std::result::Result<usize, usize>> {
    let mut lo = 0usize;
    let mut hi = page.cell_count();
    while lo < hi {
        let mid = (lo + hi) / 2;
        let (k, _) = leaf_cell(page, mid)?;
        match k.cmp(key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(Ok(mid)),
        }
    }
    Ok(Err(lo))
}

/// For an internal page, the index of the cell whose child should be
/// descended for `key`: the first cell with `key < sep`. Returns
/// `cell_count()` when the right child should be used.
pub(crate) fn internal_child_index(page: &PageBuf, key: &[u8]) -> Result<usize> {
    let mut lo = 0usize;
    let mut hi = page.cell_count();
    while lo < hi {
        let mid = (lo + hi) / 2;
        let (sep, _) = internal_cell(page, mid)?;
        if key < sep {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageType;

    #[test]
    fn leaf_cell_round_trip() {
        let mut p = PageBuf::zeroed();
        p.init(PageType::Leaf);
        p.insert_cell(0, &encode_leaf_cell(b"alpha", b"one"));
        p.insert_cell(1, &encode_leaf_cell(b"beta", b""));
        let (k, v) = leaf_cell(&p, 0).unwrap();
        assert_eq!((k, v), (&b"alpha"[..], &b"one"[..]));
        let (k, v) = leaf_cell(&p, 1).unwrap();
        assert_eq!((k, v), (&b"beta"[..], &b""[..]));
    }

    #[test]
    fn internal_cell_round_trip_and_patch_offset() {
        let mut p = PageBuf::zeroed();
        p.init(PageType::Internal);
        p.insert_cell(0, &encode_internal_cell(b"mm", 17));
        let (k, c) = internal_cell(&p, 0).unwrap();
        assert_eq!((k, c), (&b"mm"[..], 17));
        let off = internal_child_offset(&p, 0).unwrap();
        p.bytes_mut()[off..off + 4].copy_from_slice(&99u32.to_le_bytes());
        let (_, c) = internal_cell(&p, 0).unwrap();
        assert_eq!(c, 99);
    }

    #[test]
    fn leaf_search_finds_position() {
        let mut p = PageBuf::zeroed();
        p.init(PageType::Leaf);
        for (i, k) in [b"b", b"d", b"f"].iter().enumerate() {
            p.insert_cell(i, &encode_leaf_cell(&k[..], b"v"));
        }
        assert_eq!(leaf_search(&p, b"d").unwrap(), Ok(1));
        assert_eq!(leaf_search(&p, b"a").unwrap(), Err(0));
        assert_eq!(leaf_search(&p, b"c").unwrap(), Err(1));
        assert_eq!(leaf_search(&p, b"g").unwrap(), Err(3));
    }

    #[test]
    fn internal_child_index_uses_upper_bound() {
        let mut p = PageBuf::zeroed();
        p.init(PageType::Internal);
        p.insert_cell(0, &encode_internal_cell(b"m", 1));
        p.insert_cell(1, &encode_internal_cell(b"t", 2));
        p.set_right_child(3);
        // keys < "m" go to cell 0's child
        assert_eq!(internal_child_index(&p, b"a").unwrap(), 0);
        // "m" itself belongs to the right of the separator
        assert_eq!(internal_child_index(&p, b"m").unwrap(), 1);
        assert_eq!(internal_child_index(&p, b"p").unwrap(), 1);
        assert_eq!(internal_child_index(&p, b"z").unwrap(), 2);
    }
}
