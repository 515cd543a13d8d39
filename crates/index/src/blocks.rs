//! Block codec for the redundant RPL/ERPL lists.
//!
//! The seed layout stored **one B+tree record per entry** with a ~20-byte
//! uncompressed key, so every entry paid a full key compare on the scan path
//! and the advisor's byte budget (paper §4 — bytes are the currency of the
//! self-managing loop) bought far fewer lists than it should. This module
//! packs each `(term, sid)` list into a small number of records, each a
//! delta+varint-compressed **block** of up to [`BLOCK_CAPACITY`] entries with
//! a self-describing header that doubles as a skip pointer:
//!
//! ```text
//! key:  term · sid · block_no            (u32 BE each — 12 bytes)
//!
//! RPL block value (descending score ⇔ ascending inverted score bits):
//!   count                varint
//!   first_inv            u32 BE          (max score of the block)
//!   last_inv − first_inv varint          (min score — the skip bound)
//!   entry₀               doc · end · length          (varints)
//!   entryᵢ               inv_delta · doc · end · length
//!
//! ERPL block value (ascending (doc, end) element order):
//!   count                varint
//!   first_doc, first_end varint          (entry₀'s element position)
//!   last_doc − first_doc varint
//!   last_end             varint          (the skip bound for seek(pos))
//!   max_score            f32 LE
//!   entry₀               length varint · score f32 LE
//!   entryᵢ               doc_delta · (end_delta | end) · length · score
//!                        (end is a delta when doc_delta = 0, absolute
//!                         otherwise)
//! ```
//!
//! Iterators peek the header first: a TA sorted access can skip a whole RPL
//! block when even its *minimum* score clears the current threshold target,
//! and an ERPL `seek(pos)` skips blocks whose last element ends before
//! `pos` — without decoding a single entry.
//!
//! Decoding is strict: every span is validated, scores must be finite,
//! entry keys must be strictly increasing, the computed last key must equal
//! the header's, and the payload must be consumed exactly. Any mismatch is
//! `Corrupt`, never a wrong answer.

use trex_storage::codec::{
    get_u32, put_u32, read_varint_u32, score_from_inverted_bits, varint_len, write_varint,
};
use trex_storage::{Result, StorageError};
use trex_summary::Sid;
use trex_text::TermId;

use crate::encode::{validate_span, ElementRef, Position, RplEntry};
use crate::registry::{ListFamily, ListStats};

/// Maximum entries per block. 128 keeps a worst-case block within one page
/// cell and bounds the decode cost a single skip check can save.
pub const BLOCK_CAPACITY: usize = 128;

/// Maximum *entry payload* bytes per block (the header adds at most
/// [`HEADER_ALLOWANCE`] more). Worst-case varint entries (~20 B) would push
/// 128 entries past the storage engine's `MAX_VALUE_LEN` of 2048, so blocks
/// flush on whichever limit trips first.
pub const BLOCK_BYTE_BUDGET: usize = 1600;

/// Upper bound on either header's size; `BLOCK_BYTE_BUDGET + HEADER_ALLOWANCE`
/// must stay ≤ `MAX_VALUE_LEN`.
pub const HEADER_ALLOWANCE: usize = 32;

/// Split policy for the block encoders — parameterised so tests can force
/// many tiny blocks.
#[derive(Debug, Clone, Copy)]
pub struct BlockLimits {
    /// Flush after this many entries.
    pub max_entries: usize,
    /// Flush before the entry payload exceeds this many bytes.
    pub max_bytes: usize,
}

impl Default for BlockLimits {
    fn default() -> Self {
        BlockLimits {
            max_entries: BLOCK_CAPACITY,
            max_bytes: BLOCK_BYTE_BUDGET,
        }
    }
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// Bytes of one block key: `term · sid · block_no`, a `u32` each.
const BLOCK_KEY_LEN: usize = 12;

/// Encodes a block key `(term, sid, block_no)`. Ascending `block_no` order
/// equals list order, so a list's blocks are both point-addressable (lazy
/// fetch, per-list delete) and prefix-scannable.
pub fn block_key(term: TermId, sid: Sid, block_no: u32) -> Vec<u8> {
    let mut k = Vec::with_capacity(BLOCK_KEY_LEN);
    put_u32(&mut k, term);
    put_u32(&mut k, sid);
    put_u32(&mut k, block_no);
    k
}

/// Decodes a block key.
pub fn decode_block_key(key: &[u8]) -> Result<(TermId, Sid, u32)> {
    Ok((get_u32(key, 0)?, get_u32(key, 4)?, get_u32(key, 8)?))
}

// ---------------------------------------------------------------------------
// Normalisation
// ---------------------------------------------------------------------------

/// Sorts RPL entries into storage order — ascending `(inv_score, doc, end)`,
/// i.e. descending relevance — and deduplicates exact key collisions keeping
/// the *last* occurrence, reproducing the seed layout's B+tree
/// insert-replaces semantics.
pub fn normalize_rpl(entries: &[(ElementRef, f32)]) -> Vec<(u32, ElementRef)> {
    let mut v: Vec<(u32, ElementRef)> = entries
        .iter()
        .map(|&(e, score)| (trex_storage::codec::inverted_score_bits(score), e))
        .collect();
    v.sort_by_key(|&(inv, e)| (inv, e.doc, e.end));
    dedup_keep_last(v, |&(inv, e)| (inv, e.doc, e.end))
}

/// Sorts ERPL entries into storage order — ascending `(doc, end)` — and
/// deduplicates key collisions keeping the last occurrence.
pub fn normalize_erpl(entries: &[(ElementRef, f32)]) -> Vec<(ElementRef, f32)> {
    let mut v = entries.to_vec();
    v.sort_by_key(|&(e, _)| (e.doc, e.end));
    dedup_keep_last(v, |&(e, _)| (e.doc, e.end))
}

fn dedup_keep_last<T: Copy, K: PartialEq>(sorted: Vec<T>, key: impl Fn(&T) -> K) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(sorted.len());
    for item in sorted {
        match out.last() {
            Some(last) if key(last) == key(&item) => *out.last_mut().unwrap() = item,
            _ => out.push(item),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// RPL blocks
// ---------------------------------------------------------------------------

/// Header of one RPL block, decodable without touching the entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RplBlockHeader {
    /// Entries in the block (≥ 1).
    pub count: u32,
    /// Inverted score bits of the first (highest-scoring) entry.
    pub first_inv: u32,
    /// Inverted score bits of the last (lowest-scoring) entry — the skip
    /// bound: every score in the block is ≥ `score_of(last_inv)`.
    pub last_inv: u32,
}

impl RplBlockHeader {
    /// The block's maximum (first) score.
    pub fn max_score(&self) -> f32 {
        score_from_inverted_bits(self.first_inv)
    }

    /// The block's minimum (last) score.
    pub fn min_score(&self) -> f32 {
        score_from_inverted_bits(self.last_inv)
    }
}

/// Encodes `block` (a normalised, non-empty slice) as one RPL block value.
pub fn encode_rpl_block(block: &[(u32, ElementRef)]) -> Vec<u8> {
    assert!(!block.is_empty(), "RPL blocks hold at least one entry");
    let first_inv = block[0].0;
    let last_inv = block[block.len() - 1].0;
    let mut v = Vec::new();
    write_varint(&mut v, block.len() as u64);
    v.extend_from_slice(&first_inv.to_be_bytes());
    write_varint(&mut v, u64::from(last_inv - first_inv));
    let mut prev_inv: Option<u32> = None;
    for &(inv, e) in block {
        if let Some(p) = prev_inv {
            write_varint(&mut v, u64::from(inv - p));
        }
        write_varint(&mut v, u64::from(e.doc));
        write_varint(&mut v, u64::from(e.end));
        write_varint(&mut v, u64::from(e.length));
        prev_inv = Some(inv);
    }
    v
}

/// Decodes only the header of an RPL block value.
pub fn peek_rpl_header(value: &[u8]) -> Result<RplBlockHeader> {
    let (count, mut off) = read_varint_u32(value)?;
    if count == 0 {
        return Err(StorageError::Corrupt("empty RPL block".into()));
    }
    let first_inv = get_u32(value, off)?;
    off += 4;
    let (delta, _) = read_varint_u32(&value[off..])?;
    let last_inv = first_inv
        .checked_add(delta)
        .ok_or_else(|| StorageError::Corrupt("RPL block last-key overflow".into()))?;
    Ok(RplBlockHeader {
        count,
        first_inv,
        last_inv,
    })
}

/// Decodes a full RPL block into entries (descending score order), with
/// strict validation of ordering, spans, scores, and header consistency.
pub fn decode_rpl_block(term: TermId, sid: Sid, value: &[u8]) -> Result<Vec<RplEntry>> {
    let header = peek_rpl_header(value)?;
    let (_, mut off) = read_varint_u32(value)?;
    off += 4; // first_inv
    let (_, n) = read_varint_u32(&value[off..])?;
    off += n; // last_inv delta
    let mut entries = Vec::with_capacity(header.count as usize);
    let mut inv = header.first_inv;
    let mut prev: Option<(u32, ElementRef)> = None;
    for i in 0..header.count {
        if i > 0 {
            let (d, n) = read_varint_u32(&value[off..])?;
            off += n;
            inv = inv
                .checked_add(d)
                .ok_or_else(|| StorageError::Corrupt("RPL block score overflow".into()))?;
        }
        let (doc, n) = read_varint_u32(&value[off..])?;
        off += n;
        let (end, n) = read_varint_u32(&value[off..])?;
        off += n;
        let (length, n) = read_varint_u32(&value[off..])?;
        off += n;
        let element = validate_span(ElementRef { doc, end, length })?;
        if let Some((pinv, pe)) = prev {
            if (inv, element.doc, element.end) <= (pinv, pe.doc, pe.end) {
                return Err(StorageError::Corrupt("RPL block key order".into()));
            }
        }
        let score = score_from_inverted_bits(inv);
        if !score.is_finite() {
            return Err(StorageError::Corrupt("non-finite RPL score".into()));
        }
        entries.push(RplEntry {
            term,
            score,
            sid,
            element,
        });
        prev = Some((inv, element));
    }
    if inv != header.last_inv {
        return Err(StorageError::Corrupt("RPL block last-key mismatch".into()));
    }
    if off != value.len() {
        return Err(StorageError::Corrupt("RPL block trailing bytes".into()));
    }
    Ok(entries)
}

/// Splits a normalised RPL list into encoded block values under `limits`.
pub fn encode_rpl_list(normalized: &[(u32, ElementRef)], limits: BlockLimits) -> Vec<Vec<u8>> {
    let mut blocks = Vec::new();
    let mut start = 0usize;
    let mut payload = 0usize;
    for (i, &(inv, e)) in normalized.iter().enumerate() {
        let prev = if i == start {
            None
        } else {
            Some(normalized[i - 1].0)
        };
        let entry_len = rpl_entry_len(prev, inv, e);
        if i > start && (i - start >= limits.max_entries || payload + entry_len > limits.max_bytes)
        {
            blocks.push(encode_rpl_block(&normalized[start..i]));
            start = i;
            payload = rpl_entry_len(None, inv, e);
        } else {
            payload += entry_len;
        }
    }
    if start < normalized.len() {
        blocks.push(encode_rpl_block(&normalized[start..]));
    }
    blocks
}

fn rpl_entry_len(prev_inv: Option<u32>, inv: u32, e: ElementRef) -> usize {
    let base = varint_len(u64::from(e.doc))
        + varint_len(u64::from(e.end))
        + varint_len(u64::from(e.length));
    match prev_inv {
        None => base,
        Some(p) => base + varint_len(u64::from(inv - p)),
    }
}

// ---------------------------------------------------------------------------
// ERPL blocks
// ---------------------------------------------------------------------------

/// Header of one ERPL block, decodable without touching the entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErplBlockHeader {
    /// Entries in the block (≥ 1).
    pub count: u32,
    /// End position of the block's first element.
    pub first: Position,
    /// End position of the block's last element — the skip bound for
    /// `seek(pos)`: every element in the block ends at or before it.
    pub last: Position,
    /// Maximum score in the block.
    pub max_score: f32,
}

/// Encodes `block` (a normalised, non-empty slice) as one ERPL block value.
pub fn encode_erpl_block(block: &[(ElementRef, f32)]) -> Vec<u8> {
    assert!(!block.is_empty(), "ERPL blocks hold at least one entry");
    let first = block[0].0;
    let last = block[block.len() - 1].0;
    let max_score = block
        .iter()
        .map(|&(_, s)| s)
        .fold(f32::NEG_INFINITY, f32::max);
    let mut v = Vec::new();
    write_varint(&mut v, block.len() as u64);
    write_varint(&mut v, u64::from(first.doc));
    write_varint(&mut v, u64::from(first.end));
    write_varint(&mut v, u64::from(last.doc - first.doc));
    write_varint(&mut v, u64::from(last.end));
    v.extend_from_slice(&max_score.to_le_bytes());
    let mut prev: Option<ElementRef> = None;
    for &(e, score) in block {
        if let Some(p) = prev {
            let doc_delta = e.doc - p.doc;
            write_varint(&mut v, u64::from(doc_delta));
            if doc_delta == 0 {
                write_varint(&mut v, u64::from(e.end - p.end));
            } else {
                write_varint(&mut v, u64::from(e.end));
            }
        }
        write_varint(&mut v, u64::from(e.length));
        v.extend_from_slice(&score.to_le_bytes());
        prev = Some(e);
    }
    v
}

/// Decodes only the header of an ERPL block value. Returns the header and
/// the payload offset where the entries begin.
pub fn peek_erpl_header(value: &[u8]) -> Result<(ErplBlockHeader, usize)> {
    let (count, mut off) = read_varint_u32(value)?;
    if count == 0 {
        return Err(StorageError::Corrupt("empty ERPL block".into()));
    }
    let (first_doc, n) = read_varint_u32(&value[off..])?;
    off += n;
    let (first_end, n) = read_varint_u32(&value[off..])?;
    off += n;
    let (doc_delta, n) = read_varint_u32(&value[off..])?;
    off += n;
    let (last_end, n) = read_varint_u32(&value[off..])?;
    off += n;
    let last_doc = first_doc
        .checked_add(doc_delta)
        .ok_or_else(|| StorageError::Corrupt("ERPL block last-doc overflow".into()))?;
    let end = off
        .checked_add(4)
        .ok_or_else(|| StorageError::Corrupt("ERPL header overflow".into()))?;
    if end > value.len() {
        return Err(StorageError::Corrupt("short ERPL block header".into()));
    }
    let max_score = f32::from_le_bytes(value[off..end].try_into().unwrap());
    if !max_score.is_finite() {
        return Err(StorageError::Corrupt("non-finite ERPL block max".into()));
    }
    Ok((
        ErplBlockHeader {
            count,
            first: Position {
                doc: first_doc,
                offset: first_end,
            },
            last: Position {
                doc: last_doc,
                offset: last_end,
            },
            max_score,
        },
        end,
    ))
}

/// Decodes a full ERPL block into entries (ascending element order), with
/// strict validation of ordering, spans, scores, and header consistency.
pub fn decode_erpl_block(term: TermId, sid: Sid, value: &[u8]) -> Result<Vec<RplEntry>> {
    let (header, mut off) = peek_erpl_header(value)?;
    let mut entries = Vec::with_capacity(header.count as usize);
    let mut doc = header.first.doc;
    let mut end = header.first.offset;
    let mut observed_max = f32::NEG_INFINITY;
    for i in 0..header.count {
        if i > 0 {
            let (doc_delta, n) = read_varint_u32(&value[off..])?;
            off += n;
            let (end_field, n) = read_varint_u32(&value[off..])?;
            off += n;
            if doc_delta == 0 {
                if end_field == 0 {
                    return Err(StorageError::Corrupt("ERPL block key order".into()));
                }
                end = end
                    .checked_add(end_field)
                    .ok_or_else(|| StorageError::Corrupt("ERPL block end overflow".into()))?;
            } else {
                doc = doc
                    .checked_add(doc_delta)
                    .ok_or_else(|| StorageError::Corrupt("ERPL block doc overflow".into()))?;
                end = end_field;
            }
        }
        let (length, n) = read_varint_u32(&value[off..])?;
        off += n;
        let score_end = off
            .checked_add(4)
            .ok_or_else(|| StorageError::Corrupt("ERPL block offset overflow".into()))?;
        if score_end > value.len() {
            return Err(StorageError::Corrupt("short ERPL block entry".into()));
        }
        let score = f32::from_le_bytes(value[off..score_end].try_into().unwrap());
        off = score_end;
        if !score.is_finite() {
            return Err(StorageError::Corrupt("non-finite ERPL score".into()));
        }
        observed_max = observed_max.max(score);
        let element = validate_span(ElementRef { doc, end, length })?;
        entries.push(RplEntry {
            term,
            score,
            sid,
            element,
        });
    }
    if (doc, end) != (header.last.doc, header.last.offset) {
        return Err(StorageError::Corrupt("ERPL block last-key mismatch".into()));
    }
    if observed_max.to_bits() != header.max_score.to_bits() {
        return Err(StorageError::Corrupt(
            "ERPL block max-score mismatch".into(),
        ));
    }
    if off != value.len() {
        return Err(StorageError::Corrupt("ERPL block trailing bytes".into()));
    }
    Ok(entries)
}

/// Splits a normalised ERPL list into encoded block values under `limits`.
pub fn encode_erpl_list(normalized: &[(ElementRef, f32)], limits: BlockLimits) -> Vec<Vec<u8>> {
    let mut blocks = Vec::new();
    let mut start = 0usize;
    let mut payload = 0usize;
    for (i, &(e, _)) in normalized.iter().enumerate() {
        let entry_len = erpl_entry_len(
            if i == start {
                None
            } else {
                Some(normalized[i - 1].0)
            },
            e,
        );
        if i > start && (i - start >= limits.max_entries || payload + entry_len > limits.max_bytes)
        {
            blocks.push(encode_erpl_block(&normalized[start..i]));
            start = i;
            payload = erpl_entry_len(None, e);
        } else {
            payload += entry_len;
        }
    }
    if start < normalized.len() {
        blocks.push(encode_erpl_block(&normalized[start..]));
    }
    blocks
}

fn erpl_entry_len(prev: Option<ElementRef>, e: ElementRef) -> usize {
    let base = varint_len(u64::from(e.length)) + 4; // length + score
    match prev {
        None => base,
        Some(p) => {
            let doc_delta = e.doc - p.doc;
            let end_field = if doc_delta == 0 { e.end - p.end } else { e.end };
            base + varint_len(u64::from(doc_delta)) + varint_len(u64::from(end_field))
        }
    }
}

// ---------------------------------------------------------------------------
// Sizing
// ---------------------------------------------------------------------------

/// Normalises and encodes `entries` as family `F`'s block values, with the
/// size bookkeeping (keys + values) `put_list` records for them.
pub(crate) fn encode_list<F: ListFamily>(
    entries: &[(ElementRef, f32)],
) -> (Vec<Vec<u8>>, ListStats) {
    let (count, blocks) = F::encode(entries);
    let stats = ListStats {
        entries: count as u64,
        bytes: blocks
            .iter()
            .map(|b| (BLOCK_KEY_LEN + b.len()) as u64)
            .sum(),
        blocks: blocks.len() as u64,
    };
    (blocks, stats)
}

/// Blocks and on-disk bytes (keys + values) `put_list` records for
/// `entries` in family `F` — the same `encode_list` the write path runs,
/// so the advisor's estimates match the registry's actuals to the byte.
pub fn list_size<F: ListFamily>(entries: &[(ElementRef, f32)]) -> (u64, u64) {
    let (_, stats) = encode_list::<F>(entries);
    (stats.blocks, stats.bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Erpl, Rpl};

    fn el(doc: u32, end: u32, length: u32) -> ElementRef {
        ElementRef { doc, end, length }
    }

    fn rpl_entries(list: &[(ElementRef, f32)]) -> Vec<(u32, ElementRef)> {
        normalize_rpl(list)
    }

    #[test]
    fn rpl_block_round_trip_preserves_descending_order() {
        let list = vec![
            (el(0, 5, 2), 0.5),
            (el(0, 9, 3), 2.5),
            (el(1, 4, 1), 1.0),
            (el(2, 7, 2), 2.5),
        ];
        let norm = rpl_entries(&list);
        let value = encode_rpl_block(&norm);
        let back = decode_rpl_block(7, 3, &value).unwrap();
        assert_eq!(back.len(), 4);
        let scores: Vec<f32> = back.iter().map(|e| e.score).collect();
        assert_eq!(scores, vec![2.5, 2.5, 1.0, 0.5]);
        assert!(back.iter().all(|e| e.term == 7 && e.sid == 3));
        let header = peek_rpl_header(&value).unwrap();
        assert_eq!(header.count, 4);
        assert_eq!(header.max_score(), 2.5);
        assert_eq!(header.min_score(), 0.5);
    }

    #[test]
    fn erpl_block_round_trip_preserves_position_order() {
        let list = vec![
            (el(1, 4, 1), 1.0),
            (el(0, 9, 3), 2.5),
            (el(0, 5, 2), 0.5),
            (el(1, 8, 4), 0.25),
        ];
        let norm = normalize_erpl(&list);
        let value = encode_erpl_block(&norm);
        let back = decode_erpl_block(7, 3, &value).unwrap();
        let got: Vec<(u32, u32, f32)> = back
            .iter()
            .map(|e| (e.element.doc, e.element.end, e.score))
            .collect();
        assert_eq!(
            got,
            vec![(0, 5, 0.5), (0, 9, 2.5), (1, 4, 1.0), (1, 8, 0.25)]
        );
        let (header, _) = peek_erpl_header(&value).unwrap();
        assert_eq!(header.count, 4);
        assert_eq!(header.first, Position { doc: 0, offset: 5 });
        assert_eq!(header.last, Position { doc: 1, offset: 8 });
        assert_eq!(header.max_score, 2.5);
    }

    #[test]
    fn normalization_dedups_keeping_last() {
        // Same (doc, end) twice: the later entry wins, like B+tree replace.
        let list = vec![(el(0, 5, 2), 1.0), (el(0, 5, 3), 1.0)];
        let erpl = normalize_erpl(&list);
        assert_eq!(erpl, vec![(el(0, 5, 3), 1.0)]);
        // RPL keys include the score: different scores are distinct entries.
        assert_eq!(rpl_entries(&list).len(), 1); // same score → same key
        let distinct = vec![(el(0, 5, 2), 1.0), (el(0, 5, 2), 2.0)];
        assert_eq!(rpl_entries(&distinct).len(), 2);
    }

    #[test]
    fn list_splits_respect_entry_and_byte_limits() {
        let list: Vec<(ElementRef, f32)> =
            (0..40).map(|i| (el(0, i * 2 + 1, 2), i as f32)).collect();
        let limits = BlockLimits {
            max_entries: 16,
            max_bytes: usize::MAX,
        };
        let blocks = encode_rpl_list(&rpl_entries(&list), limits);
        assert_eq!(blocks.len(), 3); // 16 + 16 + 8
        let total: usize = blocks
            .iter()
            .map(|b| decode_rpl_block(1, 1, b).unwrap().len())
            .sum();
        assert_eq!(total, 40);

        let tiny = BlockLimits {
            max_entries: usize::MAX,
            max_bytes: 24,
        };
        let blocks = encode_erpl_list(&normalize_erpl(&list), tiny);
        assert!(blocks.len() > 1);
        for b in &blocks {
            assert!(b.len() <= 24 + HEADER_ALLOWANCE, "block size {}", b.len());
        }
        let total: usize = blocks
            .iter()
            .map(|b| decode_erpl_block(1, 1, b).unwrap().len())
            .sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn default_limits_never_exceed_max_value_len() {
        // Worst-case entries: every varint field maximal.
        let list: Vec<(ElementRef, f32)> = (0..300)
            .map(|i| {
                (
                    el(u32::MAX - 1, u32::MAX - 1, u32::MAX - 300 + i),
                    f32::MAX - (i as f32) * 1e31,
                )
            })
            .collect();
        for b in encode_rpl_list(&rpl_entries(&list), BlockLimits::default()) {
            assert!(b.len() <= trex_storage::MAX_VALUE_LEN, "rpl {}", b.len());
        }
        for b in encode_erpl_list(&normalize_erpl(&list), BlockLimits::default()) {
            assert!(b.len() <= trex_storage::MAX_VALUE_LEN, "erpl {}", b.len());
        }
    }

    #[test]
    fn corrupt_blocks_are_rejected() {
        let list = vec![(el(0, 5, 2), 1.0), (el(0, 9, 3), 2.0)];
        let rpl = encode_rpl_block(&rpl_entries(&list));
        let erpl = encode_erpl_block(&normalize_erpl(&list));

        // Truncations at every length.
        for cut in 0..rpl.len() {
            assert!(decode_rpl_block(1, 1, &rpl[..cut]).is_err(), "cut {cut}");
        }
        for cut in 0..erpl.len() {
            assert!(decode_erpl_block(1, 1, &erpl[..cut]).is_err(), "cut {cut}");
        }

        // Trailing garbage.
        let mut long = rpl.clone();
        long.push(0);
        assert!(decode_rpl_block(1, 1, &long).is_err());
        let mut long = erpl.clone();
        long.push(0);
        assert!(decode_erpl_block(1, 1, &long).is_err());

        // NaN score smuggled into the RPL header's fixed score field.
        let mut nan = rpl.clone();
        let off = varint_len(2); // count varint
        nan[off..off + 4]
            .copy_from_slice(&trex_storage::codec::inverted_score_bits(f32::NAN).to_be_bytes());
        assert!(decode_rpl_block(1, 1, &nan).is_err());

        // Zero count.
        assert!(decode_rpl_block(1, 1, &[0]).is_err());
        assert!(decode_erpl_block(1, 1, &[0]).is_err());
    }

    fn assert_corrupt(got: Result<Vec<RplEntry>>, what: &str) {
        match got {
            Err(StorageError::Corrupt(_)) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_scores_are_rejected_in_blocks() {
        // ±∞ in the RPL header's first score (NaN is covered above). One
        // entry, so the header's last score is the same field.
        let rpl = encode_rpl_block(&rpl_entries(&[(el(0, 5, 2), 1.0)]));
        let off = varint_len(1);
        for bad in [f32::INFINITY, f32::NEG_INFINITY] {
            let mut v = rpl.clone();
            v[off..off + 4]
                .copy_from_slice(&trex_storage::codec::inverted_score_bits(bad).to_be_bytes());
            assert_corrupt(decode_rpl_block(1, 1, &v), &format!("RPL header {bad}"));
        }

        let list = vec![(el(0, 5, 2), 2.0), (el(0, 9, 3), 1.0)];
        let erpl = encode_erpl_block(&normalize_erpl(&list));
        let (_, entries_at) = peek_erpl_header(&erpl).unwrap();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // The last entry's score: the block's final four bytes.
            let mut v = erpl.clone();
            let n = v.len();
            v[n - 4..].copy_from_slice(&bad.to_le_bytes());
            assert_corrupt(decode_erpl_block(1, 1, &v), &format!("ERPL entry {bad}"));
            // The header's max score: the four bytes before the entries.
            let mut v = erpl.clone();
            v[entries_at - 4..entries_at].copy_from_slice(&bad.to_le_bytes());
            assert_corrupt(decode_erpl_block(1, 1, &v), &format!("ERPL max {bad}"));
        }
    }

    /// A one-entry RPL block for element `(0, end)` with `length` written
    /// as a raw varint, so lengths the encoder cannot emit are reachable.
    fn rpl_block_with_length(end: u32, length: u64) -> Vec<u8> {
        let mut v = Vec::new();
        write_varint(&mut v, 1); // count
        v.extend_from_slice(&trex_storage::codec::inverted_score_bits(1.0).to_be_bytes());
        write_varint(&mut v, 0); // last_inv − first_inv
        write_varint(&mut v, 0); // doc
        write_varint(&mut v, u64::from(end));
        write_varint(&mut v, length);
        v
    }

    /// The ERPL counterpart of [`rpl_block_with_length`].
    fn erpl_block_with_length(end: u32, length: u64) -> Vec<u8> {
        let mut v = Vec::new();
        write_varint(&mut v, 1); // count
        write_varint(&mut v, 0); // first_doc
        write_varint(&mut v, u64::from(end)); // first_end
        write_varint(&mut v, 0); // last_doc − first_doc
        write_varint(&mut v, u64::from(end)); // last_end
        v.extend_from_slice(&1.0f32.to_le_bytes()); // max_score
        write_varint(&mut v, length);
        v.extend_from_slice(&1.0f32.to_le_bytes()); // score
        v
    }

    #[test]
    fn invalid_spans_are_rejected_in_blocks() {
        // The hand-built blocks decode when the span is valid…
        for length in [1, 6] {
            assert_eq!(
                decode_rpl_block(1, 1, &rpl_block_with_length(5, length)).unwrap()[0].element,
                el(0, 5, length as u32)
            );
            assert_eq!(
                decode_erpl_block(1, 1, &erpl_block_with_length(5, length)).unwrap()[0].element,
                el(0, 5, length as u32)
            );
        }
        // …and are Corrupt for length 0, length > end + 1, and a length
        // that does not fit u32 (rejected, not truncated).
        for length in [0, 7, u64::from(u32::MAX) + 2] {
            assert_corrupt(
                decode_rpl_block(1, 1, &rpl_block_with_length(5, length)),
                &format!("RPL length {length}"),
            );
            assert_corrupt(
                decode_erpl_block(1, 1, &erpl_block_with_length(5, length)),
                &format!("ERPL length {length}"),
            );
        }
    }

    #[test]
    fn block_keys_order_by_term_sid_block() {
        let a = block_key(1, 2, 3);
        let b = block_key(1, 2, 4);
        let c = block_key(1, 3, 0);
        let d = block_key(2, 0, 0);
        assert!(a < b && b < c && c < d);
        assert_eq!(decode_block_key(&a).unwrap(), (1, 2, 3));
    }

    #[test]
    fn sizing_matches_encoder_and_beats_seed_layout() {
        let list: Vec<(ElementRef, f32)> = (0..500)
            .map(|i| (el(i / 50, (i % 50) * 3 + 2, 3), (i % 17) as f32 * 0.5))
            .collect();
        let (blocks, bytes) = list_size::<Rpl>(&list);
        let encoded = encode_rpl_list(&rpl_entries(&list), BlockLimits::default());
        assert_eq!(blocks, encoded.len() as u64);
        assert_eq!(
            bytes,
            encoded.iter().map(|b| (12 + b.len()) as u64).sum::<u64>()
        );
        assert!(bytes * 2 <= per_entry_rpl_bytes(&list), "rpl ratio");
        let (_, ebytes) = list_size::<Erpl>(&list);
        assert!(ebytes * 2 <= per_entry_erpl_bytes(&list), "erpl ratio");
    }

    /// Bytes the seed one-record-per-entry layout charged for an RPL list:
    /// a 20-byte key (term, inverted score, sid, doc, end) plus a varint
    /// length value per entry, after normalisation.
    fn per_entry_rpl_bytes(entries: &[(ElementRef, f32)]) -> u64 {
        normalize_rpl(entries)
            .iter()
            .map(|&(_, e)| (20 + varint_len(u64::from(e.length))) as u64)
            .sum()
    }

    /// Seed-layout bytes for an ERPL list: a 16-byte key (term, sid, doc,
    /// end) plus a 4-byte score and a varint length per entry.
    fn per_entry_erpl_bytes(entries: &[(ElementRef, f32)]) -> u64 {
        normalize_erpl(entries)
            .iter()
            .map(|&(e, _)| (16 + 4 + varint_len(u64::from(e.length))) as u64)
            .sum()
    }
}
