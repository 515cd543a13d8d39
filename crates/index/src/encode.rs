//! Key/value encodings of the `Elements` and `PostingLists` tables, the
//! core identifier types ([`Position`], [`ElementRef`]) and the decoded
//! redundant-list entry ([`RplEntry`]).
//!
//! Table schemas (paper §2.2), with primary keys underlined there:
//!
//! ```text
//! Elements(SID, docid, endpos, length)
//! PostingLists(token, docid, offset, postingdataentry)
//! ```
//!
//! The paper's `RPLs` and `ERPLs` tables hold one record per entry. TReX
//! stores each `(term, sid)` list as delta-compressed blocks instead (see
//! [`crate::blocks`]), which decode to [`RplEntry`] values.
//!
//! Keys are composed with big-endian fields so that memcmp order equals the
//! intended scan order.

use trex_storage::codec::{get_u32, put_u32, read_varint, write_varint};
use trex_storage::{Result, StorageError};
use trex_summary::Sid;
use trex_text::TermId;

/// A token position: (document, token offset). Totally ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Position {
    /// Document id.
    pub doc: u32,
    /// Token offset within the document.
    pub offset: u32,
}

impl Position {
    /// The paper's `m-pos`: "maximal in the sense that no real position can
    /// exceed it". Appended to the end of every posting list.
    pub const MAX: Position = Position {
        doc: u32::MAX,
        offset: u32::MAX,
    };

    /// The smallest position.
    pub const MIN: Position = Position { doc: 0, offset: 0 };

    /// The immediately following position (saturating at `MAX`).
    pub fn successor(self) -> Position {
        if self.offset == u32::MAX {
            if self.doc == u32::MAX {
                Position::MAX
            } else {
                Position {
                    doc: self.doc + 1,
                    offset: 0,
                }
            }
        } else {
            Position {
                doc: self.doc,
                offset: self.offset + 1,
            }
        }
    }

    /// Whether this is the `m-pos` sentinel.
    pub fn is_max(self) -> bool {
        self == Position::MAX
    }
}

/// Identity of an element: the document and the token position where it ends
/// (paper §2.2: "each element is identified by the position where it ends"),
/// plus its token length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementRef {
    /// Document id.
    pub doc: u32,
    /// Token offset of the element's last contained token.
    pub end: u32,
    /// Number of token positions the element spans (> 0; empty elements are
    /// not indexed — they cannot contain a keyword, so they can never be in
    /// any answer).
    pub length: u32,
}

impl ElementRef {
    /// Token offset of the element's first contained token.
    ///
    /// Written as `end - (length - 1)` with saturating arithmetic: the naive
    /// `end + 1 - length` overflows at `end == u32::MAX`, and a corrupt
    /// `length == 0` or `length > end + 1` must clamp rather than wrap (the
    /// decode paths reject such spans as `Corrupt`, so in-bounds callers
    /// never observe the clamp).
    pub fn start(&self) -> u32 {
        self.end.saturating_sub(self.length.saturating_sub(1))
    }

    /// Whether `(end, length)` describes a representable, non-empty span:
    /// `length >= 1` and `start >= 0`, i.e. `length - 1 <= end`.
    pub fn span_is_valid(&self) -> bool {
        self.length >= 1 && self.length - 1 <= self.end
    }

    /// The position of the element's end, used to order elements.
    pub fn end_position(&self) -> Position {
        Position {
            doc: self.doc,
            offset: self.end,
        }
    }

    /// Whether the element's span contains `pos`.
    pub fn contains(&self, pos: Position) -> bool {
        self.doc == pos.doc
            && self.span_is_valid()
            && self.start() <= pos.offset
            && pos.offset <= self.end
    }
}

/// Checks a decoded span, mapping an empty or overflowing one to `Corrupt`
/// (writers never emit them — `length == 0` cannot contain a keyword, and
/// `length - 1 > end` would start before the document).
pub(crate) fn validate_span(element: ElementRef) -> Result<ElementRef> {
    if element.span_is_valid() {
        Ok(element)
    } else {
        Err(StorageError::Corrupt(format!(
            "invalid element span: end={} length={}",
            element.end, element.length
        )))
    }
}

// ---------------------------------------------------------------------------
// Elements table: key (sid, doc, end) → varint length
// ---------------------------------------------------------------------------

/// Encodes an `Elements` key.
pub fn elements_key(sid: Sid, doc: u32, end: u32) -> Vec<u8> {
    let mut k = Vec::with_capacity(12);
    put_u32(&mut k, sid);
    put_u32(&mut k, doc);
    put_u32(&mut k, end);
    k
}

/// Decodes an `Elements` key.
pub fn decode_elements_key(key: &[u8]) -> Result<(Sid, u32, u32)> {
    Ok((get_u32(key, 0)?, get_u32(key, 4)?, get_u32(key, 8)?))
}

/// Encodes an `Elements` value.
pub fn elements_value(length: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(5);
    write_varint(&mut v, length as u64);
    v
}

/// Decodes an `Elements` value.
pub fn decode_elements_value(value: &[u8]) -> Result<u32> {
    let (len, _) = read_varint(value)?;
    Ok(len as u32)
}

// ---------------------------------------------------------------------------
// PostingLists table: key (term, doc, offset) → delta-encoded chunk
// ---------------------------------------------------------------------------

/// Encodes a `PostingLists` key: the term plus the first position of the
/// chunk ("the first position in each fragment is part of the key", §2.2).
pub fn postings_key(term: TermId, first: Position) -> Vec<u8> {
    let mut k = Vec::with_capacity(12);
    put_u32(&mut k, term);
    put_u32(&mut k, first.doc);
    put_u32(&mut k, first.offset);
    k
}

/// Decodes a `PostingLists` key.
pub fn decode_postings_key(key: &[u8]) -> Result<(TermId, Position)> {
    Ok((
        get_u32(key, 0)?,
        Position {
            doc: get_u32(key, 4)?,
            offset: get_u32(key, 8)?,
        },
    ))
}

/// Encodes a chunk of positions (which must be sorted ascending and start
/// with the key's first position) as deltas: `count`, then for each position
/// after the first a `doc_delta` and an offset (absolute when the document
/// changed, a delta otherwise).
pub fn postings_value(positions: &[Position]) -> Vec<u8> {
    let mut v = Vec::new();
    write_varint(&mut v, positions.len() as u64);
    let mut prev: Option<Position> = None;
    for &p in positions {
        match prev {
            None => {} // first position is implicit in the key
            Some(q) => {
                let doc_delta = p.doc - q.doc;
                write_varint(&mut v, doc_delta as u64);
                if doc_delta == 0 {
                    write_varint(&mut v, (p.offset - q.offset) as u64);
                } else {
                    write_varint(&mut v, p.offset as u64);
                }
            }
        }
        prev = Some(p);
    }
    v
}

/// Decodes a chunk given its key's first position.
pub fn decode_postings_value(first: Position, value: &[u8]) -> Result<Vec<Position>> {
    let (count, mut off) = read_varint(value)?;
    let count = count as usize;
    let mut out = Vec::with_capacity(count);
    if count == 0 {
        return Ok(out);
    }
    out.push(first);
    let mut prev = first;
    for _ in 1..count {
        let (doc_delta, n) = read_varint(&value[off..])?;
        off += n;
        let (off_val, n) = read_varint(&value[off..])?;
        off += n;
        let doc_delta = u32::try_from(doc_delta)
            .map_err(|_| StorageError::Corrupt("posting doc delta overflow".into()))?;
        let doc = prev
            .doc
            .checked_add(doc_delta)
            .ok_or_else(|| StorageError::Corrupt("posting doc overflow".into()))?;
        let offset = if doc_delta == 0 {
            prev.offset
                .checked_add(off_val as u32)
                .ok_or_else(|| StorageError::Corrupt("posting offset overflow".into()))?
        } else {
            off_val as u32
        };
        prev = Position { doc, offset };
        out.push(prev);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// RPL/ERPL entries
// ---------------------------------------------------------------------------

/// An entry decoded from an RPL or ERPL block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RplEntry {
    /// The term this entry belongs to.
    pub term: TermId,
    /// Relevance score of (element, term).
    pub score: f32,
    /// Summary node of the element.
    pub sid: Sid,
    /// The element.
    pub element: ElementRef,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_order_and_successor() {
        let a = Position { doc: 1, offset: 5 };
        let b = Position { doc: 1, offset: 6 };
        let c = Position { doc: 2, offset: 0 };
        assert!(a < b && b < c && c < Position::MAX);
        assert_eq!(a.successor(), b);
        assert_eq!(
            Position {
                doc: 1,
                offset: u32::MAX
            }
            .successor(),
            c.successor()
                .successor()
                .min(Position { doc: 2, offset: 0 })
        );
        assert_eq!(Position::MAX.successor(), Position::MAX);
        assert!(Position::MAX.is_max());
    }

    #[test]
    fn element_span_arithmetic() {
        let e = ElementRef {
            doc: 3,
            end: 9,
            length: 4,
        };
        assert_eq!(e.start(), 6);
        assert!(e.contains(Position { doc: 3, offset: 6 }));
        assert!(e.contains(Position { doc: 3, offset: 9 }));
        assert!(!e.contains(Position { doc: 3, offset: 5 }));
        assert!(!e.contains(Position { doc: 3, offset: 10 }));
        assert!(!e.contains(Position { doc: 4, offset: 7 }));
    }

    #[test]
    fn element_start_does_not_overflow_at_extremes() {
        // end == u32::MAX with length 1: `end + 1 - length` would wrap.
        let e = ElementRef {
            doc: 0,
            end: u32::MAX,
            length: 1,
        };
        assert!(e.span_is_valid());
        assert_eq!(e.start(), u32::MAX);
        assert!(e.contains(Position {
            doc: 0,
            offset: u32::MAX
        }));

        // Full-document span ending at u32::MAX.
        let full = ElementRef {
            doc: 0,
            end: u32::MAX,
            length: u32::MAX,
        };
        assert!(full.span_is_valid());
        assert_eq!(full.start(), 1);

        // Corrupt spans clamp instead of wrapping, and never "contain".
        let empty = ElementRef {
            doc: 0,
            end: 5,
            length: 0,
        };
        assert!(!empty.span_is_valid());
        assert_eq!(empty.start(), 5);
        assert!(!empty.contains(Position { doc: 0, offset: 5 }));
        let over = ElementRef {
            doc: 0,
            end: 2,
            length: 9,
        };
        assert!(!over.span_is_valid());
        assert_eq!(over.start(), 0);
        assert!(!over.contains(Position { doc: 0, offset: 1 }));
    }

    #[test]
    fn elements_key_round_trip_and_order() {
        let k1 = elements_key(7, 2, 30);
        let k2 = elements_key(7, 2, 31);
        let k3 = elements_key(7, 3, 0);
        let k4 = elements_key(8, 0, 0);
        assert!(k1 < k2 && k2 < k3 && k3 < k4);
        assert_eq!(decode_elements_key(&k1).unwrap(), (7, 2, 30));
        assert_eq!(decode_elements_value(&elements_value(17)).unwrap(), 17);
    }

    #[test]
    fn postings_chunk_round_trip() {
        let positions = vec![
            Position { doc: 0, offset: 3 },
            Position { doc: 0, offset: 9 },
            Position { doc: 2, offset: 1 },
            Position { doc: 2, offset: 2 },
            Position::MAX,
        ];
        let v = postings_value(&positions);
        let back = decode_postings_value(positions[0], &v).unwrap();
        assert_eq!(back, positions);
    }

    #[test]
    fn postings_empty_chunk() {
        let v = postings_value(&[]);
        assert!(decode_postings_value(Position::MIN, &v).unwrap().is_empty());
    }

    #[test]
    fn postings_key_orders_by_term_then_position() {
        let a = postings_key(1, Position { doc: 9, offset: 9 });
        let b = postings_key(2, Position { doc: 0, offset: 0 });
        assert!(a < b);
        let (term, pos) = decode_postings_key(&a).unwrap();
        assert_eq!(term, 1);
        assert_eq!(pos, Position { doc: 9, offset: 9 });
    }

    #[test]
    fn corrupt_values_are_rejected() {
        assert!(decode_elements_key(&[0, 1]).is_err());
        assert!(decode_postings_key(&[0; 11]).is_err());
        // A truncated varint.
        assert!(decode_elements_value(&[0x80]).is_err());
    }
}
