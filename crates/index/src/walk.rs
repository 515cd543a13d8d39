//! The one document walk: how a parsed document becomes element spans and
//! token positions (paper §2.2; DESIGN.md §3).
//!
//! Tokens are numbered from 0 in document order, continuing across text
//! nodes; stopwords consume a position without producing a token. An
//! element is identified by `(doc, end, length)` over those positions and
//! is emitted after its children (post-order) only when it covers at least
//! one position. The build, ingest staging and snippet lookup all walk
//! through [`walk`], so the Elements and PostingLists tables, the delta and
//! snippets number every document the same way; they differ only in how a
//! label becomes a sid and in what they do with the rows ([`Visitor`]).

use trex_summary::{AliasMap, Sid, Summary, SummaryCursor};
use trex_text::Analyzer;
use trex_xml::{Document, NodeId, NodeKind};

use crate::encode::{ElementRef, Position};
use crate::{IndexError, Result};

/// What a caller of [`walk`] does with a document.
pub(crate) trait Visitor {
    /// Descends `cursor` into an element with the (alias-resolved) `label`
    /// and returns its sid.
    fn enter(&mut self, cursor: &mut SummaryCursor, label: &str) -> Result<Sid>;

    /// One analysed token: its term text and position.
    fn token(&mut self, _text: String, _at: Position) {}

    /// One non-empty element, after every token and element inside it.
    fn element(&mut self, node: NodeId, sid: Sid, element: ElementRef) -> Result<()>;
}

/// Walks `doc` (document id `doc_id`), resolving tag names through `alias`
/// and analysing text with `analyzer`, and hands every token and non-empty
/// element to `visitor`. Stops at the first error `visitor` returns.
pub(crate) fn walk(
    doc: &Document,
    doc_id: u32,
    alias: &AliasMap,
    analyzer: Analyzer,
    visitor: &mut impl Visitor,
) -> Result<()> {
    let mut walker = Walker {
        doc,
        doc_id,
        alias,
        analyzer,
        cursor: SummaryCursor::new(),
        next_pos: 0,
    };
    walker.node(doc.root(), visitor)
}

/// The sid step of a walk against a frozen summary: descends without
/// creating nodes, and a path the summary does not know is
/// [`IndexError::UnknownPath`].
pub(crate) fn enter_existing(
    cursor: &mut SummaryCursor,
    summary: &Summary,
    label: &str,
) -> Result<Sid> {
    cursor
        .enter_existing(summary, label)
        .ok_or_else(|| IndexError::UnknownPath(label.to_string()))
}

struct Walker<'d> {
    doc: &'d Document,
    doc_id: u32,
    alias: &'d AliasMap,
    analyzer: Analyzer,
    cursor: SummaryCursor,
    /// The position the next token takes.
    next_pos: u32,
}

impl Walker<'_> {
    fn node(&mut self, node: NodeId, visitor: &mut impl Visitor) -> Result<()> {
        let doc = self.doc;
        match &doc.node(node).kind {
            NodeKind::Text(text) => {
                let (tokens, next_pos) = self.analyzer.analyze_from(text, self.next_pos);
                self.next_pos = next_pos;
                for token in tokens {
                    let at = Position {
                        doc: self.doc_id,
                        offset: token.position,
                    };
                    visitor.token(token.text, at);
                }
            }
            NodeKind::Element { name, .. } => {
                let sid = visitor.enter(&mut self.cursor, self.alias.resolve(name))?;
                let mark = self.next_pos;
                for &child in &doc.node(node).children {
                    self.node(child, visitor)?;
                }
                self.cursor.leave();
                let length = self.next_pos - mark;
                if length > 0 {
                    let element = ElementRef {
                        doc: self.doc_id,
                        end: self.next_pos - 1,
                        length,
                    };
                    visitor.element(node, sid, element)?;
                }
            }
        }
        Ok(())
    }
}
