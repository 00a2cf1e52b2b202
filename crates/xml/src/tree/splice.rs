//! Table splicing: building an edited [`Document`] from the old one's
//! tables instead of re-parsing the edited buffer.
//!
//! Node ids are pre-order positions and every supported edit replaces one
//! run of complete sibling subtrees, so the old tables fall into three
//! parts: a **prefix** (ids below the window) that is copied verbatim, the
//! **window**, whose nodes come from scanning just the bytes the edit
//! wrote, and a **suffix** (ids at or past the window's end) that is
//! copied with node ids, text indices and byte offsets shifted by the
//! edit's deltas. Only the links that cross the window — the previous
//! sibling's `next_sibling`, the parent's `first/last_child`, and the
//! ancestors' `next_sibling`/`last_child`/extent end — are fixed up one by
//! one. The cost is a copy of the tables plus a scan of the edit, not a
//! scan of the document.

use super::*;
use crate::parse::DomSink;
use crate::scanner::{scan, Scanner};
use std::ops::Range;

/// One edit of a buffer-backed document, in the coordinates of the
/// **old** document unless stated otherwise. Built by [`crate::edit`],
/// which owns the geometry (which bytes an operation cuts and writes).
pub(crate) struct Splice<'a> {
    /// The node-id window `[start, end)` the edit replaces: a run of
    /// complete sibling subtrees, possibly empty (a pure insertion).
    pub nodes: Range<u32>,
    /// Parent of the window (`None`: the window is the root element).
    pub parent: Option<NodeId>,
    /// The last child of `parent` that precedes the window.
    pub prev: Option<NodeId>,
    /// The byte range `insert` is written over.
    pub cut: Range<usize>,
    /// The bytes written in place of `cut`.
    pub insert: &'a str,
    /// The range of the **new** buffer holding the window's nodes — what
    /// gets scanned. Lies inside the parent's content.
    pub scan: Range<usize>,
    /// How many nodes the scan is expected to find (a capacity hint).
    pub expected_nodes: usize,
}

/// `x + delta` for ids and offsets; `delta` is a two's-complement
/// difference, so shrinking edits wrap to the right value.
#[inline]
fn shift(x: u32, delta: u32) -> u32 {
    x.wrapping_add(delta)
}

/// [`shift`] for link fields, where `NIL` means "none" and stays.
#[inline]
fn shift_link(x: u32, delta: u32) -> u32 {
    if x == NIL {
        NIL
    } else {
        x.wrapping_add(delta)
    }
}

/// `parts` back to back as one shared string, written straight into its
/// final allocation: `String` → `Arc<str>` would copy the whole buffer a
/// second time (measured at a fifth of a 100k-node splice).
#[allow(unsafe_code)]
fn concat_shared(parts: [&str; 3]) -> Arc<str> {
    let len = parts.iter().map(|p| p.len()).sum();
    let mut bytes: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
    let dst = Arc::get_mut(&mut bytes).expect("a fresh allocation is unshared");
    let mut at = 0;
    for part in parts {
        dst[at..at + part.len()].copy_from_slice(part.as_bytes());
        at += part.len();
    }
    // SAFETY: `Arc<[u8]>` → `Arc<str>` is the inverse of std's own
    // `From<Arc<str>> for Arc<[u8]>`: `str` and `[u8]` share one layout,
    // so the cast pointer names an allocation of the same size and
    // alignment as `Arc::from_raw` requires. The `str` invariant holds
    // because the bytes are whole `&str`s back to back — valid UTF-8 —
    // and every byte of the allocation was overwritten by them (the
    // lengths sum to `len`).
    unsafe { Arc::from_raw(Arc::into_raw(bytes) as *const str) }
}

impl TextRepr {
    /// The same text `delta` bytes further into the buffer. A decode
    /// cache survives the move: the bytes it decodes are unchanged.
    fn shifted(&self, delta: u32) -> TextRepr {
        match self {
            TextRepr::Span { start, end } => TextRepr::Span {
                start: shift(*start, delta),
                end: shift(*end, delta),
            },
            TextRepr::Heap(h) => TextRepr::Heap(Box::new(match h.as_ref() {
                HeapText::Dirty { start, end, cache } => HeapText::Dirty {
                    start: shift(*start, delta),
                    end: shift(*end, delta),
                    cache: cache.clone(),
                },
                HeapText::Owned(s) => HeapText::Owned(s.clone()),
            })),
        }
    }
}

impl AttrRecord {
    fn shifted(&self, delta: u32) -> AttrRecord {
        AttrRecord {
            name: self.name,
            value: match &self.value {
                AttrValue::Span { start, end } => AttrValue::Span {
                    start: shift(*start, delta),
                    end: shift(*end, delta),
                },
                AttrValue::Owned(s) => AttrValue::Owned(s.clone()),
            },
        }
    }
}

impl Document {
    /// Number of text nodes with an id below `id` — the text-table index
    /// the first text node at or past `id` holds. Text indices grow with
    /// node ids, so the nearest text node before `id` answers it.
    fn text_rank(&self, id: u32) -> u32 {
        self.nodes[..id as usize]
            .iter()
            .rev()
            .find_map(|n| match n.kind {
                NodeKind::Text(t) => Some(t + 1),
                NodeKind::Element(_) => None,
            })
            .unwrap_or(0)
    }

    /// The document `edit` turns this one into, or `None` when this
    /// document has no backing buffer, the result would pass the 4 GB
    /// span limit, or the written bytes do not scan as balanced content.
    pub(crate) fn spliced(&self, edit: &Splice<'_>) -> Option<Document> {
        let old_buf = self.buffer.as_deref()?;
        let (lo, hi) = (edit.nodes.start as usize, edit.nodes.end as usize);
        let new_len = old_buf.len() - edit.cut.len() + edit.insert.len();
        if new_len > u32::MAX as usize {
            return None;
        }
        let bytes_delta = (new_len as u32).wrapping_sub(old_buf.len() as u32);

        let buffer = concat_shared([
            &old_buf[..edit.cut.start],
            edit.insert,
            &old_buf[edit.cut.end..],
        ]);

        // Prefix: verbatim.
        let (texts_lo, texts_hi) = (
            self.text_rank(edit.nodes.start) as usize,
            self.text_rank(edit.nodes.end) as usize,
        );
        let kept_nodes = self.nodes.len() - (hi - lo);
        let mut nodes = Vec::with_capacity(kept_nodes + edit.expected_nodes);
        nodes.extend_from_slice(&self.nodes[..lo]);
        let mut extents = Vec::with_capacity(kept_nodes + edit.expected_nodes);
        extents.extend_from_slice(&self.extents[..lo]);
        let mut texts = Vec::with_capacity(self.texts.len() - (texts_hi - texts_lo) + 1);
        texts.extend_from_slice(&self.texts[..texts_lo]);

        // Window: the parent is reopened with only the children before
        // the window attached, and the builder appends what the scan of
        // the written bytes finds — new nodes get their final ids, text
        // indices and attribute keys as they are pushed.
        let mut parent_last_child = NIL;
        if let Some(p) = edit.parent {
            parent_last_child = nodes[p.index()].last_child;
            match edit.prev {
                Some(prev) => {
                    nodes[p.index()].last_child = prev.0;
                    nodes[prev.index()].next_sibling = NIL;
                }
                None => {
                    nodes[p.index()].first_child = NIL;
                    nodes[p.index()].last_child = NIL;
                }
            }
        }
        let mut sink = DomSink {
            builder: TreeBuilder {
                doc: Document {
                    vocab: self.vocab.clone(),
                    buffer: Some(buffer.clone()),
                    nodes,
                    extents,
                    texts,
                    attrs: std::collections::HashMap::with_capacity(self.attrs.len()),
                    names: self.names.clone(),
                    root: if edit.parent.is_some() {
                        self.root
                    } else {
                        NIL
                    },
                },
                stack: edit.parent.iter().map(|p| p.0).collect(),
                finished_root: false,
            },
        };
        if !edit.scan.is_empty() {
            let mut scanner =
                Scanner::content_range(&buffer[edit.scan.clone()], edit.scan.start as u64);
            scan(&mut scanner, &mut sink).ok()?;
        }
        let TreeBuilder { mut doc, stack, .. } = sink.builder;
        if stack.len() != usize::from(edit.parent.is_some()) || doc.root == NIL {
            return None;
        }
        let nodes_delta = (doc.nodes.len() as u32).wrapping_sub(hi as u32);
        let texts_delta = (doc.texts.len() as u32).wrapping_sub(texts_hi as u32);

        // Suffix: shifted. A suffix node's parent is either an ancestor of
        // the window (a prefix node, unchanged) or another suffix node;
        // its other links only ever point forward.
        doc.nodes.extend(self.nodes[hi..].iter().map(|n| NodeData {
            parent: if (n.parent as usize) < lo {
                n.parent
            } else {
                shift(n.parent, nodes_delta)
            },
            first_child: shift_link(n.first_child, nodes_delta),
            last_child: shift_link(n.last_child, nodes_delta),
            next_sibling: shift_link(n.next_sibling, nodes_delta),
            kind: match n.kind {
                NodeKind::Text(t) => NodeKind::Text(shift(t, texts_delta)),
                element => element,
            },
        }));
        doc.extents
            .extend(self.extents[hi..].iter().map(|e| match e.end {
                0 => *e, // no recorded extent (node built without a span)
                _ => Extent {
                    start: shift(e.start, bytes_delta),
                    end: shift(e.end, bytes_delta),
                },
            }));
        doc.texts.extend(
            self.texts[texts_hi..]
                .iter()
                .map(|t| t.shifted(bytes_delta)),
        );
        for (&id, records) in &self.attrs {
            if (id as usize) < lo {
                doc.attrs.insert(id, records.clone());
            } else if id as usize >= hi {
                let records = records.iter().map(|r| r.shifted(bytes_delta)).collect();
                doc.attrs.insert(shift(id, nodes_delta), records);
            }
        }

        // The links that cross the window.
        if let Some(p) = edit.parent {
            let next = self
                .nodes
                .get(hi)
                .filter(|n| n.parent == p.0)
                .map(|_| shift(hi as u32, nodes_delta));
            if let Some(next) = next {
                match doc.nodes[p.index()].last_child {
                    NIL => doc.nodes[p.index()].first_child = next,
                    tail => doc.nodes[tail as usize].next_sibling = next,
                }
                doc.nodes[p.index()].last_child = shift(parent_last_child, nodes_delta);
            }
            // Every ancestor ends `bytes_delta` later, its next sibling
            // lies past the window, and — above the parent, whose own
            // child list was just rebuilt — so may its last child.
            let mut ancestor = p.0;
            while ancestor != NIL {
                let a = ancestor as usize;
                if doc.extents[a].end != 0 {
                    doc.extents[a].end = shift(doc.extents[a].end, bytes_delta);
                }
                let node = &mut doc.nodes[a];
                node.next_sibling = shift_link(node.next_sibling, nodes_delta);
                if ancestor != p.0 && node.last_child as usize >= hi {
                    node.last_child = shift_link(node.last_child, nodes_delta);
                }
                ancestor = node.parent;
            }
        }

        if self.vocab.len() != doc.names.len() {
            // The written bytes interned names this snapshot predates.
            doc.names = self.vocab.snapshot().into();
        }
        doc.nodes.shrink_to_fit();
        doc.extents.shrink_to_fit();
        doc.texts.shrink_to_fit();
        Some(doc)
    }
}
