//! Table splicing: building an edited [`Document`] from the old one's
//! tables instead of re-parsing the edited buffer.
//!
//! Node ids are pre-order positions and every supported edit replaces
//! runs of complete sibling subtrees, so one statement's edit is a list
//! of disjoint **windows** of the old ids, ascending. The old tables fall
//! into those windows and the **kept segments** between them: a window's
//! nodes come from scanning just the bytes the edit wrote there, and a
//! kept segment is copied with node ids, text indices and byte offsets
//! shifted by the running deltas of the windows before it (the first
//! segment, with nothing before it, verbatim). Links that reach across a
//! window are mapped through the windows' deltas; the ones that pointed
//! into a window — the previous sibling's `next_sibling`, the parent's
//! `first/last_child` — are relinked as the window is scanned. Every table
//! is written once, in one pass, however many windows there are: the cost
//! is one copy of the tables plus a scan of what the edit wrote, never a
//! scan of the document.

use super::*;
use crate::edit::EditError;
use crate::parse::DomSink;
use crate::scanner::{scan, Scanner};
use std::ops::Range;

/// One byte range of the old buffer and what is written over it.
pub(crate) struct Cut<'a> {
    /// The old bytes replaced (empty for a pure insertion).
    pub range: Range<usize>,
    /// The bytes written in their place.
    pub insert: &'a str,
    /// `Some(name)`: the cut is the `/>` of a self-closing `name` tag,
    /// rewritten as `>`, `insert`, `</name>`.
    pub close: Option<&'a str>,
}

impl<'a> Cut<'a> {
    /// The bytes written, in order.
    fn parts(&self) -> [&'a str; 5] {
        match self.close {
            None => [self.insert, "", "", "", ""],
            Some(name) => [">", self.insert, "</", name, ">"],
        }
    }

    fn written_len(&self) -> usize {
        self.parts().iter().map(|p| p.len()).sum()
    }
}

/// One window of an edit, in the ids and offsets of the **old** document
/// unless stated otherwise.
pub(crate) struct Window {
    /// The node ids replaced: complete sibling subtrees under `parent`
    /// (empty for a pure insertion).
    pub nodes: Range<u32>,
    /// Parent of the window (`None`: the window is the root element).
    pub parent: Option<NodeId>,
    /// The last child of `parent` that precedes the window and is kept.
    pub prev: Option<NodeId>,
    /// The range of the **new** buffer scanned for the window's nodes.
    pub scan: Range<usize>,
    /// How many nodes the scan finds, and how many of them are text.
    pub new_nodes: u32,
    pub new_texts: u32,
    /// One past the index of the window's last cut: every node after the
    /// window starts after the cuts below this index, and before the rest.
    pub cuts_end: usize,
}

/// One statement's edit: its cuts and its windows, both ascending and
/// disjoint. Built by [`crate::edit`], which owns the geometry (which
/// bytes an operation cuts and writes, which windows join).
pub(crate) struct Splice<'a> {
    pub cuts: Vec<Cut<'a>>,
    /// `shift[i]`: the byte delta of the cuts before cut `i`; one more
    /// entry holds the total.
    shift: Vec<u32>,
    pub windows: Vec<Window>,
}

/// `x + delta` for ids and offsets; `delta` is a two's-complement
/// difference, so shrinking edits wrap to the right value.
#[inline]
fn shift(x: u32, delta: u32) -> u32 {
    x.wrapping_add(delta)
}

impl<'a> Splice<'a> {
    /// An edit writing `cuts` (ascending, disjoint); windows come next.
    pub fn new(cuts: Vec<Cut<'a>>) -> Splice<'a> {
        let mut shift = Vec::with_capacity(cuts.len() + 1);
        let mut delta = 0u32;
        shift.push(delta);
        for c in &cuts {
            delta = delta
                .wrapping_add(c.written_len() as u32)
                .wrapping_sub(c.range.len() as u32);
            shift.push(delta);
        }
        Splice {
            cuts,
            shift,
            windows: Vec::new(),
        }
    }

    /// Where cut `i`'s written bytes begin in the new buffer.
    pub fn written_at(&self, i: usize) -> usize {
        shift(self.cuts[i].range.start as u32, self.shift[i]) as usize
    }

    /// The byte delta at old offset `x` where a node **starts**: every
    /// cut ending at or before it moved it.
    fn start_delta(&self, x: u32) -> u32 {
        self.shift[self.cuts.partition_point(|c| c.range.end <= x as usize)]
    }

    /// The byte delta at old offset `x` where a node **ends**: every cut
    /// starting before it moved it (an insertion at `x` goes after it).
    fn end_delta(&self, x: u32) -> u32 {
        self.shift[self.cuts.partition_point(|c| c.range.start < x as usize)]
    }

    /// The new offset of old offset `x`, a node's start.
    pub fn start_offset(&self, x: usize) -> usize {
        shift(x as u32, self.start_delta(x as u32)) as usize
    }

    /// The new offset of old offset `x`, a node's end.
    pub fn end_offset(&self, x: usize) -> usize {
        shift(x as u32, self.end_delta(x as u32)) as usize
    }
}

/// The old buffer with every cut written, in one pass, straight into its
/// final shared allocation: no zero-fill, and no `String` → `Arc<str>`
/// copy (either would touch the whole buffer once more).
#[allow(unsafe_code)]
fn concat_shared(old: &str, cuts: &[Cut<'_>], len: usize) -> Arc<str> {
    let mut bytes = Arc::<[u8]>::new_uninit_slice(len);
    let dst = Arc::get_mut(&mut bytes).expect("a fresh allocation is unshared");
    let mut at = 0;
    let mut write = |part: &str| {
        let dst = &mut dst[at..at + part.len()];
        // SAFETY: `dst` is `part.len()` bytes of the fresh allocation (the
        // slice index checked it), and `part` cannot overlap it.
        unsafe {
            std::ptr::copy_nonoverlapping(part.as_ptr(), dst.as_mut_ptr().cast(), part.len());
        }
        at += part.len();
    };
    let mut kept = 0;
    for cut in cuts {
        write(&old[kept..cut.range.start]);
        cut.parts().into_iter().for_each(&mut write);
        kept = cut.range.end;
    }
    write(&old[kept..]);
    assert_eq!(at, len, "the parts fill the buffer");
    // SAFETY: every byte was written above (the parts are back to back
    // and their lengths sum to `len`, asserted). `Arc<[u8]>` → `Arc<str>`
    // is the inverse of std's own `From<Arc<str>> for Arc<[u8]>`: `str`
    // and `[u8]` share one layout, so the cast pointer names an allocation
    // of the size and alignment `Arc::from_raw` requires, and the bytes
    // are whole `&str`s back to back — valid UTF-8.
    unsafe {
        let bytes = bytes.assume_init();
        Arc::from_raw(Arc::into_raw(bytes) as *const str)
    }
}

impl TextRepr {
    /// Where the text's bytes begin.
    fn start(self, dirty: &[DirtyText]) -> u32 {
        match self {
            TextRepr::Span { start, .. } => start,
            TextRepr::Dirty(i) => dirty[i as usize].start,
        }
    }
}

impl DirtyText {
    /// The same region `delta` bytes further into the buffer. A filled
    /// decode cache is shared, not copied: the bytes it decodes are
    /// unchanged.
    fn shifted(&self, delta: u32) -> DirtyText {
        DirtyText {
            start: shift(self.start, delta),
            end: shift(self.end, delta),
            cache: self.cache.clone(),
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

/// One splice in progress: the old document, the edit, and how the
/// kept nodes' ids move — `moved[i]` is the node delta of the windows
/// before window `i`.
struct Pass<'a> {
    old: &'a Document,
    edit: &'a Splice<'a>,
    moved: Vec<u32>,
}

impl Pass<'_> {
    /// Appends the kept segment before window `w` (or after the last one)
    /// to `doc`, with its texts (the old ones from index `texts_from` on)
    /// and extents: ids move by the windows before `w`, offsets by their
    /// cuts. Returns how many texts it copied.
    ///
    /// Every link and offset moves by the segment's deltas in one plain
    /// pass; only links and extent ends reaching past the segment need
    /// more, and those sit on window `w`'s parent and its ancestors alone
    /// (pre-order ranges nest), so they are redone through every window
    /// afterwards. The first segment, with nothing before it, is the old
    /// tables' prefix verbatim.
    fn copy_kept(&self, doc: &mut Document, w: usize, texts_from: usize) -> usize {
        let (old, edit) = (self.old, self.edit);
        let before = w.checked_sub(1).map(|v| &edit.windows[v]);
        let lo = before.map_or(0, |v| v.nodes.end as usize);
        let hi = edit
            .windows
            .get(w)
            .map_or(old.nodes.len(), |v| v.nodes.start as usize);
        let ids = self.moved[w];
        let bytes = edit.shift[before.map_or(0, |v| v.cuts_end)];
        let out = doc.nodes.len();
        let texts;
        if w == 0 {
            debug_assert!(ids == 0 && bytes == 0 && doc.texts.is_empty());
            texts = old.text_rank(hi as u32);
            doc.nodes.extend_from_slice(&old.nodes[..hi]);
            doc.extents.extend_from_slice(&old.extents[..hi]);
            doc.texts.extend_from_slice(&old.texts[..texts]);
            // The dirty table is in text order too.
            let ends = old.extents.get(hi).map_or(u32::MAX, |e| e.start);
            let dirty = old.dirty.partition_point(|d| d.start < ends);
            doc.dirty.extend_from_slice(&old.dirty[..dirty]);
        } else {
            // Branch-free, so irregular shapes (leaves among inner nodes,
            // texts among elements) cost no mispredictions: `NIL` stays,
            // every other link moves. A node's parent is in this segment
            // (it moves like the node) or an ancestor of an earlier
            // window, usually the same as the previous node's.
            let link = |x: u32| shift(x, ids & u32::from(x != NIL).wrapping_neg());
            let text_ids = (doc.texts.len() as u32).wrapping_sub(texts_from as u32);
            let mut outside = (NIL, NIL);
            let mut count = 0;
            doc.nodes.extend(old.nodes[lo..hi].iter().map(|n| {
                let inside = n.parent as usize >= lo;
                if !inside && n.parent != outside.0 {
                    outside = (n.parent, self.map(n.parent));
                }
                let is_text = matches!(n.kind, NodeKind::Text(_));
                count += usize::from(is_text);
                NodeData {
                    parent: if inside {
                        shift(n.parent, ids)
                    } else {
                        outside.1
                    },
                    first_child: link(n.first_child),
                    last_child: link(n.last_child),
                    next_sibling: link(n.next_sibling),
                    kind: match n.kind {
                        NodeKind::Text(t) => NodeKind::Text(shift(t, text_ids)),
                        element => element,
                    },
                }
            }));
            texts = count;
            doc.extents
                .extend(old.extents[lo..hi].iter().map(|e| Extent {
                    start: shift(e.start, bytes),
                    end: shift(e.end, bytes),
                }));
            let Document {
                texts: out, dirty, ..
            } = doc;
            out.extend(
                old.texts[texts_from..texts_from + texts]
                    .iter()
                    .map(|t| match *t {
                        TextRepr::Span { start, end } => TextRepr::Span {
                            start: shift(start, bytes),
                            end: shift(end, bytes),
                        },
                        TextRepr::Dirty(i) => {
                            dirty.push(old.dirty[i as usize].shifted(bytes));
                            TextRepr::Dirty(dirty.len() as u32 - 1)
                        }
                    }),
            );
        }
        if let Some(win) = edit.windows.get(w) {
            let reaching = std::iter::successors(win.parent.map(|p| p.0), |&a| {
                wrap(old.nodes[a as usize].parent).map(|p| p.0)
            });
            let far = |x: u32| {
                if (x as usize) < hi {
                    shift(x, ids)
                } else {
                    self.map(x)
                }
            };
            for a in reaching.take_while(|&a| a as usize >= lo) {
                let (was, new) = (&old.nodes[a as usize], out + (a as usize - lo));
                let node = &mut doc.nodes[new];
                node.first_child = far(was.first_child);
                node.last_child = far(was.last_child);
                node.next_sibling = far(was.next_sibling);
                let end = old.extents[a as usize].end;
                doc.extents[new].end = shift(end, edit.end_delta(end));
            }
        }
        texts
    }

    /// The new id of kept old node `x` (`NIL` stays `NIL`).
    #[inline]
    fn map(&self, x: u32) -> u32 {
        if x == NIL {
            return NIL;
        }
        let windows = &self.edit.windows;
        shift(x, self.moved[windows.partition_point(|w| w.nodes.end <= x)])
    }
}

impl Document {
    /// One past the last id of `node`'s subtree, down the last-child
    /// chain: O(depth).
    pub(crate) fn subtree_end(&self, node: NodeId) -> u32 {
        let mut last = node.0;
        while self.nodes[last as usize].last_child != NIL {
            last = self.nodes[last as usize].last_child;
        }
        last + 1
    }

    /// Number of text nodes among the nodes `ids`.
    fn texts_in(&self, ids: Range<u32>) -> usize {
        self.nodes[ids.start as usize..ids.end as usize]
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Text(_)))
            .count()
    }

    /// Number of text nodes with an id below `id` — the text-table index
    /// the first text node at or past `id` holds. Text indices and text
    /// offsets both follow document order, so this is a binary search of
    /// the text column by the node's offset (the splice needs it once:
    /// past the first window, ranks come out of its own pass).
    fn text_rank(&self, id: u32) -> usize {
        match self.extents.get(id as usize) {
            None => self.texts.len(),
            Some(e) => self
                .texts
                .partition_point(|t| t.start(&self.dirty) < e.start),
        }
    }

    /// The document `edit` turns this one into, or
    /// [`EditError::SpanLimit`] when it would pass the 4 GB span limit.
    ///
    /// # Panics
    /// Panics if the written bytes do not scan as balanced content, or as
    /// other nodes than the windows announce: edits write a well-formed
    /// document's serialization.
    pub(crate) fn spliced(&self, edit: &Splice<'_>) -> Result<Document, EditError> {
        let old_buf: &str = &self.buffer;
        let written: usize = edit.cuts.iter().map(Cut::written_len).sum();
        let cut: usize = edit.cuts.iter().map(|c| c.range.len()).sum();
        let new_len = old_buf.len() - cut + written;
        if new_len > u32::MAX as usize {
            return Err(EditError::SpanLimit);
        }
        let buffer = concat_shared(old_buf, &edit.cuts, new_len);

        let windows = &edit.windows[..];
        debug_assert!(
            windows
                .windows(2)
                .all(|w| w[0].nodes.end <= w[1].nodes.start),
            "windows are ascending and disjoint"
        );
        let mut moved = Vec::with_capacity(windows.len() + 1);
        let mut delta = 0u32;
        moved.push(delta);
        for w in windows {
            delta = delta
                .wrapping_add(w.new_nodes)
                .wrapping_sub(w.nodes.len() as u32);
            moved.push(delta);
        }
        let pass = Pass {
            old: self,
            edit,
            moved,
        };
        let new_nodes = shift(self.nodes.len() as u32, delta) as usize;
        let removed_texts: usize = windows.iter().map(|w| self.texts_in(w.nodes.clone())).sum();
        let new_texts = windows.iter().map(|w| w.new_texts as usize).sum::<usize>()
            + self.texts.len()
            - removed_texts;
        let new_dirty =
            self.dirty.len() + windows.iter().map(|w| w.new_texts as usize).sum::<usize>();
        let mut doc = Document {
            vocab: self.vocab.clone(),
            buffer: buffer.clone(),
            nodes: Vec::with_capacity(new_nodes),
            extents: Vec::with_capacity(new_nodes),
            texts: Vec::with_capacity(new_texts),
            dirty: Vec::with_capacity(new_dirty),
            attrs: std::collections::HashMap::with_capacity(self.attrs.len()),
            names: self.names.clone(),
            root: self.root,
        };

        // Kept segments and windows, alternately: the segment before
        // window `i` moves by the windows before it.
        let mut scanner: Option<Scanner<&[u8]>> = None;
        let mut stack = Vec::with_capacity(1);
        let mut old_texts = 0usize;
        for (i, w) in windows.iter().enumerate() {
            old_texts += pass.copy_kept(&mut doc, i, old_texts);
            old_texts += self.texts_in(w.nodes.clone());

            // The window: its parent is reopened with only the kept
            // children before it attached, and the builder appends what
            // the scan of the written bytes finds — new nodes get their
            // final ids, text indices and attribute keys as they are
            // pushed.
            let parent = w.parent.map(|p| pass.map(p.0));
            match (parent, w.prev.map(|q| pass.map(q.0))) {
                (Some(p), Some(prev)) => {
                    doc.nodes[p as usize].last_child = prev;
                    doc.nodes[prev as usize].next_sibling = NIL;
                }
                (Some(p), None) => {
                    doc.nodes[p as usize].first_child = NIL;
                    doc.nodes[p as usize].last_child = NIL;
                }
                (None, _) => doc.root = NIL,
            }
            stack.clear();
            stack.extend(parent);
            let before = doc.nodes.len();
            debug_assert_eq!(before as u32, shift(w.nodes.start, pass.moved[i]));
            let mut sink = DomSink {
                builder: TreeBuilder::reopen(doc, stack),
            };
            if !w.scan.is_empty() {
                let range = &buffer[w.scan.clone()];
                let base = w.scan.start as u64;
                let scanner = match &mut scanner {
                    Some(s) => {
                        s.restart_range(range, base);
                        s
                    }
                    None => scanner.insert(Scanner::content_range(range, base)),
                };
                scan(scanner, &mut sink).expect("an edit writes balanced content");
            }
            TreeBuilder { doc, stack, .. } = sink.builder;
            assert!(
                stack.len() == usize::from(parent.is_some())
                    && doc.root != NIL
                    && doc.nodes.len() - before == w.new_nodes as usize,
                "an edit writes balanced content"
            );

            // The kept sibling after the window, if any, follows what the
            // window wrote; the parent's last child is its old one again.
            if let (Some(p_old), Some(p)) = (w.parent, parent) {
                let next = self.nodes.get(w.nodes.end as usize);
                if next.is_some_and(|n| n.parent == p_old.0) {
                    let next = shift(w.nodes.end, pass.moved[i + 1]);
                    let p = p as usize;
                    match doc.nodes[p].last_child {
                        NIL => doc.nodes[p].first_child = next,
                        tail => doc.nodes[tail as usize].next_sibling = next,
                    }
                    doc.nodes[p].last_child = pass.map(self.nodes[p_old.index()].last_child);
                }
            }
        }
        pass.copy_kept(&mut doc, windows.len(), old_texts);

        for (&id, records) in &self.attrs {
            let w = windows.partition_point(|w| w.nodes.end <= id);
            if windows.get(w).is_some_and(|w| w.nodes.start <= id) {
                continue; // removed with its window
            }
            let bytes = edit.start_delta(self.extents[id as usize].start);
            let records = records.iter().map(|r| r.shifted(bytes)).collect();
            doc.attrs.insert(shift(id, pass.moved[w]), records);
        }
        if self.vocab.len() != doc.names.len() {
            // The written bytes interned names this snapshot predates.
            doc.names = self.vocab.snapshot().into();
        }
        debug_assert_eq!(doc.nodes.len(), new_nodes);
        debug_assert_eq!(doc.texts.len(), new_texts);
        Ok(doc)
    }
}
