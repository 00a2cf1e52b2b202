//! Structural document edits — the tree-mutation substrate of the update
//! subsystem.
//!
//! [`Document`]s are immutable after build (evaluators rely on the
//! "`NodeId` order = document order" invariant and readers share them as
//! `Arc` snapshots), so an edit produces a **new** document, built by
//! **splicing**, of the buffer and of the tables: the new raw buffer is
//! the old one with the edit's bytes cut out and the serialized fragment
//! written in, only the written bytes are scanned, and the node, extent
//! and text tables are the old ones copied around the edit's windows with
//! ids and offsets shifted (`tree::splice`). A statement edits all its
//! targets in **one** such pass ([`edit_targets`]; the single-target
//! functions are its one-target case), so it costs one copy of the
//! document's tables plus work proportional to what it wrote — never a
//! re-parse, and never a copy per target. Every document has a buffer (a
//! built one holds its serialization), so this is the only edit path.
//! Every invariant holds by construction, and what must *not* be
//! recomputed from scratch follows from the returned [`EditSpan`]s: the
//! TAX index is patched from the windows in one pass (see
//! `smoqe_tax::TaxIndex::patched_all`), and schema validation re-checks
//! only the [`DirtySet`] the chain of per-target spans adds up to.
//!
//! Because node ids are pre-order positions, every supported edit of one
//! target changes one **contiguous id window**: nodes before the window
//! keep their ids, nodes after it shift by `inserted - removed`, and the
//! only nodes whose *descendant structure* changes are the ancestors of
//! the splice point. [`EditSpan`] records exactly that; a statement's
//! edit is a chain of them, one per target, last target first — or,
//! equally, the chain of its disjoint windows.

use crate::tree::{Cut, Document, NodeId, Splice, Window};
use std::fmt;

/// The contiguous pre-order id window an edit changed.
///
/// Old node ids `< start` are unchanged in the new document; old ids
/// `>= start + removed` map to `id - removed + inserted`. The descendant
/// sets of nodes outside the window can only change along the ancestor
/// chain of `parent`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EditSpan {
    /// First node id of the window (same position in old and new ids).
    pub start: u32,
    /// Number of old nodes the window replaced (includes a trailing text
    /// node swallowed by a boundary merge — deleting an element between
    /// two text siblings joins them into one node).
    pub removed: u32,
    /// Number of new nodes the window now holds.
    pub inserted: u32,
    /// Parent of the splice point, in **new**-document ids (`None` when
    /// the root itself was replaced). Always `< start`, so the id is
    /// valid in both documents.
    pub parent: Option<NodeId>,
}

/// The elements whose **child sequence** a chain of edits wrote: each
/// edit's splice parent and the nodes it inserted, kept in the ids of the
/// latest document. An edit changes no other element's children, which is
/// what makes schema validation incremental — a conforming document stays
/// conforming iff these elements match their content models (see
/// [`crate::Dtd::validate_nodes`]).
///
/// Only the state after the *last* recorded edit matters: ids are
/// remapped through every later span, and nodes a later edit removed are
/// forgotten.
#[derive(Clone, Debug, Default)]
pub struct DirtySet {
    /// Id ranges in the latest document's ids. An edit window is a run of
    /// complete subtrees, so against any recorded range it lies before,
    /// after, inside or around it — never across one end.
    ranges: Vec<std::ops::Range<u32>>,
}

impl DirtySet {
    /// Records the next edit of the chain.
    pub fn record(&mut self, span: &EditSpan) {
        self.remap(span);
        if let Some(parent) = span.parent {
            self.ranges.push(parent.0..parent.0 + 1);
        }
        if span.inserted > 0 {
            self.ranges.push(span.start..span.start + span.inserted);
        }
    }

    /// Records a later chain of edits, `spans`, whose own set `later` (the
    /// same spans recorded into an empty set) the caller already holds:
    /// the same as recording each span, without recording them twice.
    pub fn append(&mut self, spans: &[EditSpan], later: DirtySet) {
        spans.iter().for_each(|span| self.remap(span));
        self.ranges.extend(later.ranges);
    }

    /// Moves the recorded ranges into the ids after `span`, forgetting the
    /// ones it removed.
    fn remap(&mut self, span: &EditSpan) {
        let (start, end) = (span.start, span.start + span.removed);
        let delta = span.inserted.wrapping_sub(span.removed);
        self.ranges.retain_mut(|r| {
            if r.end <= start {
                true
            } else if r.start >= end {
                r.start = r.start.wrapping_add(delta);
                r.end = r.end.wrapping_add(delta);
                true
            } else if r.start >= start {
                false // removed with the window
            } else {
                debug_assert!(r.end >= end, "edit window straddles a recorded subtree");
                r.end = r.end.wrapping_add(delta);
                true
            }
        });
    }

    /// The recorded nodes in document order, each once. Holds text nodes
    /// of inserted fragments too; validation skips them.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut ids: Vec<u32> = self.ranges.iter().cloned().flatten().collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(NodeId).collect()
    }
}

/// Where an inserted fragment lands relative to the target node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplicePlace {
    /// As the last child of the target.
    Into,
    /// As the immediately preceding sibling of the target.
    Before,
    /// As the immediately following sibling of the target.
    After,
}

/// Structural reasons an edit cannot be applied. Schema conformance is
/// *not* checked here — callers validate the result against their DTD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditError {
    /// Deleting the root would leave no document.
    RootRemoval,
    /// Inserting before/after the root would create a second root.
    RootSibling,
    /// The target node id does not exist in the document.
    UnknownTarget(NodeId),
    /// The target is a text node; edits target elements.
    TextTarget(NodeId),
    /// The edited document would pass the 4 GB span-offset limit.
    SpanLimit,
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::RootRemoval => write!(f, "cannot delete the document root"),
            EditError::RootSibling => {
                write!(f, "cannot insert a sibling of the document root")
            }
            EditError::UnknownTarget(n) => write!(f, "edit target {n:?} is not in the document"),
            EditError::TextTarget(n) => {
                write!(f, "edit target {n:?} is a text node, not an element")
            }
            EditError::SpanLimit => write!(f, "edit would pass the 4 GB span-offset limit"),
        }
    }
}

impl std::error::Error for EditError {}

/// The edit a statement makes at every one of its targets. Fragments are
/// stand-alone documents (their root element is what gets spliced in);
/// their labels are re-interned into the edited document's vocabulary,
/// so a fragment parsed against any vocabulary is safe to splice.
#[derive(Clone, Copy)]
pub enum Edit<'a> {
    /// Delete the target's subtree.
    Delete,
    /// Replace the target's subtree with the fragment (replacing the root
    /// is allowed — the fragment becomes the new root).
    Replace(&'a Document),
    /// Insert the fragment into, before or after the target.
    Insert(SplicePlace, &'a Document),
}

/// What [`edit_targets`] made of a document.
pub struct Edited {
    /// The edited document.
    pub doc: Document,
    /// One span per target, last target first: the chain a
    /// target-at-a-time fold reports, each span in the ids of the
    /// document the ones before it produced (see [`EditSpan`]).
    pub spans: Vec<EditSpan>,
    /// The disjoint windows the one pass spliced, last first: a chain of
    /// spans taking the old document to the new one like `spans`, but
    /// with no window inside or across another. What an index patches in
    /// one pass (`smoqe_tax::TaxIndex::patched_all`).
    pub windows: Vec<EditSpan>,
}

/// Deletes the subtree rooted at `target`.
pub fn delete_subtree(doc: &Document, target: NodeId) -> Result<(Document, EditSpan), EditError> {
    edit_one(doc, target, Edit::Delete)
}

/// Replaces the subtree rooted at `target` with `fragment` (replacing the
/// root is allowed — the fragment becomes the new root).
pub fn replace_subtree(
    doc: &Document,
    target: NodeId,
    fragment: &Document,
) -> Result<(Document, EditSpan), EditError> {
    edit_one(doc, target, Edit::Replace(fragment))
}

/// Inserts `fragment` into/before/after `target`.
pub fn insert_fragment(
    doc: &Document,
    target: NodeId,
    place: SplicePlace,
    fragment: &Document,
) -> Result<(Document, EditSpan), EditError> {
    edit_one(doc, target, Edit::Insert(place, fragment))
}

/// [`edit_targets`] at one target.
fn edit_one(
    doc: &Document,
    target: NodeId,
    edit: Edit<'_>,
) -> Result<(Document, EditSpan), EditError> {
    let Edited { doc, mut spans, .. } = edit_targets(doc, &[target], edit)?;
    Ok((doc, spans.pop().expect("one span per target")))
}

/// Applies `edit` at every node of `targets` (sorted ascending, no
/// duplicates) in **one splice of `doc`'s tables** (see
/// `Document::spliced`): this function works out the windows — which
/// ids and which bytes the edit cuts and writes — and the tables follow
/// from them, each copied once whatever the number of targets.
///
/// The result is the one a target-at-a-time fold gives, last target
/// first (ids before an edit stay valid across it): each target is
/// edited in the document as the later targets left it. So a target
/// nested in another target is edited first, then dropped with its
/// ancestor by a delete or replace (its window folds into the outer one),
/// while inserts at nested targets all land. Both chains of spans that
/// describe the edit are returned (see [`Edited`]).
///
/// The new buffer is `doc`'s with every cut written. For deletes, a cut
/// also swallows the *invisible gap* between the target and its siblings
/// (comments, processing instructions and whitespace-only runs that
/// produced no node), so that a dropped whitespace run can never
/// concatenate with kept text and resurface; deleted siblings with only
/// gaps between them share one cut. When a delete leaves two text
/// siblings adjacent, both join the scanned window and come back as the
/// one merged node a parse would produce; windows that share such a text,
/// or whose kept neighbour another window removed, are joined into one.
///
/// # Errors
/// The first target, from the last, that the edit cannot apply to (see
/// [`EditError`]); or [`EditError::SpanLimit`].
///
/// # Panics
/// Panics unless `targets` is sorted ascending without duplicates.
pub fn edit_targets(
    doc: &Document,
    targets: &[NodeId],
    edit: Edit<'_>,
) -> Result<Edited, EditError> {
    assert!(
        targets.windows(2).all(|w| w[0] < w[1]),
        "targets must be sorted ascending and deduplicated"
    );
    for &target in targets.iter().rev() {
        if target.index() >= doc.node_count() {
            return Err(EditError::UnknownTarget(target));
        }
        if !doc.is_element(target) {
            return Err(EditError::TextTarget(target));
        }
        match edit {
            Edit::Delete if target == doc.root() => return Err(EditError::RootRemoval),
            Edit::Insert(SplicePlace::Before | SplicePlace::After, _) if target == doc.root() => {
                return Err(EditError::RootSibling)
            }
            _ => {}
        }
    }
    let xml = match edit {
        Edit::Delete => String::new(),
        Edit::Replace(f) | Edit::Insert(_, f) => f.to_xml(),
    };
    let written = Written::of(&xml, doc.vocabulary());
    let (spans, planned) = match edit {
        Edit::Delete => plan_delete(doc, targets),
        Edit::Replace(_) => plan_replace(doc, targets, &written),
        Edit::Insert(place, _) => plan_insert(doc, targets, place, &written),
    };

    let mut splice = Splice::new(
        planned
            .iter()
            .map(|p| Cut {
                range: p.cut.clone(),
                insert: &xml,
                close: p.close,
            })
            .collect(),
    );
    let mut windows: Vec<Window> = Vec::with_capacity(planned.len());
    for (i, p) in planned.into_iter().enumerate() {
        let scan = match p.scan {
            Scan::Nothing => 0..0,
            Scan::Written => {
                let at = splice.written_at(i) + usize::from(p.close.is_some());
                at..at + xml.len()
            }
            Scan::Merged(r) => splice.start_offset(r.start)..splice.end_offset(r.end),
        };
        let w = Window {
            nodes: p.nodes,
            parent: p.parent,
            prev: p.prev,
            scan,
            new_nodes: p.new_nodes,
            new_texts: p.new_texts,
            cuts_end: i + 1,
        };
        match windows.last_mut() {
            // `w` shares a merged text with the window before it, or the
            // kept sibling it follows is gone: one window.
            Some(last)
                if w.nodes.start < last.nodes.end
                    || w.prev.is_some_and(|q| last.nodes.contains(&q.0)) =>
            {
                debug_assert_eq!(last.parent, w.parent, "joined windows are siblings");
                let shared = u32::from(w.nodes.start < last.nodes.end);
                last.nodes.end = w.nodes.end;
                last.scan = match (last.scan.is_empty(), w.scan.is_empty()) {
                    (true, _) => w.scan,
                    (false, true) => last.scan.clone(),
                    (false, false) => last.scan.start..w.scan.end,
                };
                last.new_nodes += w.new_nodes - shared;
                last.new_texts += w.new_texts - shared;
                last.cuts_end = w.cuts_end;
            }
            _ => windows.push(w),
        }
    }
    splice.windows = windows;
    let new_doc = doc.spliced(&splice)?;
    let windows = splice
        .windows
        .iter()
        .rev()
        .map(|w| EditSpan {
            start: w.nodes.start,
            removed: w.nodes.len() as u32,
            inserted: w.new_nodes,
            parent: w.parent,
        })
        .collect();
    Ok(Edited {
        doc: new_doc,
        spans,
        windows,
    })
}

/// What the scan of a planned window covers.
enum Scan {
    /// Nothing: the window only removes.
    Nothing,
    /// The fragment its cut writes.
    Written,
    /// Two text siblings a delete joins, by their old extents.
    Merged(std::ops::Range<usize>),
}

/// One window as planned: one cut, before joining (see [`Window`]).
struct Planned<'a> {
    nodes: std::ops::Range<u32>,
    parent: Option<NodeId>,
    prev: Option<NodeId>,
    cut: std::ops::Range<usize>,
    close: Option<&'a str>,
    scan: Scan,
    new_nodes: u32,
    new_texts: u32,
}

/// The nodes a fragment's serialization scans as: what each insert or
/// replace window receives.
struct Written {
    nodes: u32,
    texts: u32,
}

impl Written {
    /// Counts by parsing `xml` — the parse every window's scan repeats
    /// (a fragment's own tree can differ: a whitespace-only CDATA text
    /// serializes as whitespace a parse drops).
    fn of(xml: &str, vocab: &crate::label::Vocabulary) -> Written {
        if xml.is_empty() {
            return Written { nodes: 0, texts: 0 };
        }
        let parsed = Document::parse_str(xml, vocab).expect("a fragment serializes to a document");
        Written {
            nodes: parsed.node_count() as u32,
            texts: parsed.text_count() as u32,
        }
    }
}

/// The index range of the targets strictly inside target `i`'s subtree,
/// which ends before id `end`.
fn inside(targets: &[NodeId], i: usize, end: u32) -> std::ops::Range<usize> {
    i + 1..i + 1 + targets[i + 1..].partition_point(|u| u.0 < end)
}

/// Index past target `i` and every target nested in it.
fn skip_nested(doc: &Document, targets: &[NodeId], i: usize) -> usize {
    inside(targets, i, doc.subtree_end(targets[i])).end
}

/// The old extent of `node`.
fn extent(doc: &Document, node: NodeId) -> std::ops::Range<usize> {
    let (s, e) = doc.node_extent(node);
    s..e
}

fn is_text(doc: &Document, node: Option<NodeId>) -> bool {
    node.is_some_and(|n| !doc.is_element(n))
}

/// Deletes: a target's span counts its subtree as the later targets left
/// it (minus what nested targets removed), plus a text sibling it joins.
/// Windows are the maximal runs of adjacent top-level targets, each with
/// one gap-swallowing cut.
fn plan_delete<'a>(doc: &Document, targets: &[NodeId]) -> (Vec<EditSpan>, Vec<Planned<'a>>) {
    let k = targets.len();
    // `removed_from[i]`: nodes removed by targets `i..`; `kept_next[i]`:
    // target `i`'s first following sibling no target removes.
    let mut removed_from = vec![0u64; k + 1];
    let mut kept_next: Vec<Option<NodeId>> = vec![None; k];
    let mut spans = Vec::with_capacity(k);
    for i in (0..k).rev() {
        let t = targets[i];
        let end = doc.subtree_end(t);
        let nested = inside(targets, i, end);
        let next = doc.next_sibling(t);
        kept_next[i] = match next.map(|s| targets[i + 1..].binary_search(&s)) {
            Some(Ok(j)) => kept_next[i + 1 + j],
            _ => next,
        };
        let joins = is_text(doc, kept_next[i]) && is_text(doc, doc.prev_sibling(t));
        let removed = u64::from(end - t.0)
            - (removed_from[nested.start] - removed_from[nested.end])
            + u64::from(joins);
        removed_from[i] = removed_from[i + 1] + removed;
        spans.push(EditSpan {
            start: t.0,
            removed: removed as u32,
            inserted: 0,
            parent: doc.parent(t),
        });
    }

    let buf = doc.raw_source();
    let mut planned = Vec::with_capacity(k);
    let mut i = 0;
    while i < k {
        let (first, mut last) = (targets[i], targets[i]);
        i = skip_nested(doc, targets, i);
        while i < k && doc.next_sibling(last) == Some(targets[i]) {
            last = targets[i];
            i = skip_nested(doc, targets, i);
        }
        let parent = doc.parent(first).expect("the root is never deleted");
        let (prev, next) = (doc.prev_sibling(first), doc.next_sibling(last));
        let within = extent(doc, parent);
        let cut = match prev {
            Some(p) => extent(doc, p).end,
            None => tag_content_start(buf, within.start),
        }..match next {
            Some(n) => extent(doc, n).start,
            None => close_tag_start(buf, within.end),
        };
        planned.push(match (prev, next) {
            // The text siblings around the run become adjacent.
            (Some(p), Some(n)) if is_text(doc, prev) && is_text(doc, next) => Planned {
                nodes: p.0..n.0 + 1,
                parent: Some(parent),
                prev: doc.prev_sibling(p),
                cut,
                close: None,
                scan: Scan::Merged(extent(doc, p).start..extent(doc, n).end),
                new_nodes: 1,
                new_texts: 1,
            },
            _ => Planned {
                nodes: first.0..doc.subtree_end(last),
                parent: Some(parent),
                prev,
                cut,
                close: None,
                scan: Scan::Nothing,
                new_nodes: 0,
                new_texts: 0,
            },
        });
    }
    (spans, planned)
}

/// Replaces: a target's span counts its subtree as the nested targets'
/// replacements left it. Windows are the top-level targets' subtrees.
fn plan_replace<'a>(
    doc: &Document,
    targets: &[NodeId],
    written: &Written,
) -> (Vec<EditSpan>, Vec<Planned<'a>>) {
    let k = targets.len();
    // `grown_from[i]`: nodes removed minus nodes written by targets `i..`.
    let mut grown_from = vec![0i64; k + 1];
    let mut spans = Vec::with_capacity(k);
    for i in (0..k).rev() {
        let t = targets[i];
        let end = doc.subtree_end(t);
        let nested = inside(targets, i, end);
        let removed = i64::from(end - t.0) - (grown_from[nested.start] - grown_from[nested.end]);
        grown_from[i] = grown_from[i + 1] + removed - i64::from(written.nodes);
        spans.push(EditSpan {
            start: t.0,
            removed: removed as u32,
            inserted: written.nodes,
            parent: doc.parent(t),
        });
    }
    let mut planned = Vec::with_capacity(k);
    let mut i = 0;
    while i < k {
        let t = targets[i];
        i = skip_nested(doc, targets, i);
        planned.push(Planned {
            nodes: t.0..doc.subtree_end(t),
            parent: doc.parent(t),
            prev: doc.prev_sibling(t),
            cut: extent(doc, t),
            close: None,
            scan: Scan::Written,
            new_nodes: written.nodes,
            new_texts: written.texts,
        });
    }
    (spans, planned)
}

/// Inserts: a target's span starts after its subtree as the nested
/// targets' insertions grew it (into/after). Every target has a window,
/// empty of old nodes; windows go in buffer order.
fn plan_insert<'a>(
    doc: &'a Document,
    targets: &[NodeId],
    place: SplicePlace,
    written: &Written,
) -> (Vec<EditSpan>, Vec<Planned<'a>>) {
    let k = targets.len();
    let buf = doc.raw_source();
    let mut spans = Vec::with_capacity(k);
    let mut planned = Vec::with_capacity(k);
    for (i, &t) in targets.iter().enumerate() {
        let end = doc.subtree_end(t);
        let grown = written.nodes * inside(targets, i, end).len() as u32;
        let ext = extent(doc, t);
        let (start, at, parent, prev) = match place {
            SplicePlace::Before => (t.0, ext.start, doc.parent(t), doc.prev_sibling(t)),
            SplicePlace::After => (end + grown, ext.end, doc.parent(t), Some(t)),
            SplicePlace::Into => (end + grown, ext.end, Some(t), doc.last_child(t)),
        };
        spans.push(EditSpan {
            start,
            removed: 0,
            inserted: written.nodes,
            parent,
        });
        let window = if place == SplicePlace::Before {
            t.0
        } else {
            end
        };
        let (cut, close) = match place {
            // Self-closing target: rewrite `<b .../>` as
            // `<b ...>fragment</b>`.
            SplicePlace::Into if buf.as_bytes()[at - 2] == b'/' => (at - 2..at, doc.name(t)),
            SplicePlace::Into => {
                let at = close_tag_start(buf, at);
                (at..at, None)
            }
            _ => (at..at, None),
        };
        planned.push(Planned {
            nodes: window..window,
            parent,
            prev,
            cut,
            close,
            scan: Scan::Written,
            new_nodes: written.nodes,
            new_texts: written.texts,
        });
    }
    spans.reverse();
    planned.sort_unstable_by_key(|p| p.cut.start);
    (spans, planned)
}

/// Offset just past the `>` closing the start tag that begins at
/// `tag_start` (quote-aware: a `>` inside a quoted attribute value does
/// not close the tag).
fn tag_content_start(buf: &str, tag_start: usize) -> usize {
    let b = buf.as_bytes();
    debug_assert_eq!(b.get(tag_start), Some(&b'<'));
    let mut i = tag_start + 1;
    loop {
        match b[i] {
            b'"' | b'\'' => {
                let q = b[i];
                i += 1;
                while b[i] != q {
                    i += 1;
                }
                i += 1;
            }
            b'>' => return i + 1,
            _ => i += 1,
        }
    }
}

/// Offset of the `<` of the end tag whose `>` sits at `extent_end - 1`
/// (reverse scan over `</ name ws* >`); the element must not be
/// self-closing.
fn close_tag_start(buf: &str, extent_end: usize) -> usize {
    let b = buf.as_bytes();
    let mut i = extent_end - 2;
    while b[i].is_ascii_whitespace() {
        i -= 1;
    }
    while crate::scanner::is_name_byte(b[i]) {
        i -= 1;
    }
    debug_assert_eq!(&b[i - 1..=i], b"</", "an end tag ends the extent");
    i - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Vocabulary;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn doc(xml: &str) -> (Vocabulary, Document) {
        let vocab = Vocabulary::new();
        let d = Document::parse_str(xml, &vocab).unwrap();
        (vocab, d)
    }

    fn frag(vocab: &Vocabulary, xml: &str) -> Document {
        Document::parse_str(xml, vocab).unwrap()
    }

    fn nth_labeled(d: &Document, vocab: &Vocabulary, name: &str, n: usize) -> NodeId {
        let label = vocab.lookup(name).unwrap();
        d.nodes_labeled(label).nth(n).unwrap()
    }

    #[test]
    fn delete_removes_the_subtree() {
        let (vocab, d) = doc("<a><b><c/></b><d/></a>");
        let b = nth_labeled(&d, &vocab, "b", 0);
        let (nd, span) = delete_subtree(&d, b).unwrap();
        assert_eq!(nd.to_xml(), "<a><d/></a>");
        assert_eq!(
            span,
            EditSpan {
                start: 1,
                removed: 2,
                inserted: 0,
                parent: Some(d.root())
            }
        );
    }

    #[test]
    fn delete_merges_adjacent_text_and_charges_the_span() {
        let (vocab, d) = doc("<a>x<b/>y</a>");
        let b = nth_labeled(&d, &vocab, "b", 0);
        let (nd, span) = delete_subtree(&d, b).unwrap();
        assert_eq!(nd.to_xml(), "<a>xy</a>");
        assert_eq!(nd.node_count(), 2);
        // b (1 node) plus the swallowed trailing text node.
        assert_eq!(span.removed, 2);
        assert_eq!(span.start, 2);
        assert_eq!(d.node_count() - span.removed as usize, nd.node_count());
    }

    #[test]
    fn insert_into_appends_as_last_child() {
        let (vocab, d) = doc("<a><b/><c/></a>");
        let b = nth_labeled(&d, &vocab, "b", 0);
        let f = frag(&vocab, "<e>t</e>");
        let (nd, span) = insert_fragment(&d, b, SplicePlace::Into, &f).unwrap();
        assert_eq!(nd.to_xml(), "<a><b><e>t</e></b><c/></a>");
        assert_eq!(
            span,
            EditSpan {
                start: 2,
                removed: 0,
                inserted: 2,
                parent: Some(b)
            }
        );
    }

    #[test]
    fn insert_before_and_after_place_siblings() {
        let (vocab, d) = doc("<a><b/><c/></a>");
        let c = nth_labeled(&d, &vocab, "c", 0);
        let f = frag(&vocab, "<e/>");
        let (before, span_b) = insert_fragment(&d, c, SplicePlace::Before, &f).unwrap();
        assert_eq!(before.to_xml(), "<a><b/><e/><c/></a>");
        assert_eq!(span_b.start, c.0);
        let (after, span_a) = insert_fragment(&d, c, SplicePlace::After, &f).unwrap();
        assert_eq!(after.to_xml(), "<a><b/><c/><e/></a>");
        assert_eq!(span_a.start, c.0 + 1);
    }

    #[test]
    fn replace_swaps_the_subtree() {
        let (vocab, d) = doc("<a><b><c/></b><d/></a>");
        let b = nth_labeled(&d, &vocab, "b", 0);
        let f = frag(&vocab, "<e><f/><g/></e>");
        let (nd, span) = replace_subtree(&d, b, &f).unwrap();
        assert_eq!(nd.to_xml(), "<a><e><f/><g/></e><d/></a>");
        assert_eq!(
            span,
            EditSpan {
                start: 1,
                removed: 2,
                inserted: 3,
                parent: Some(d.root())
            }
        );
    }

    #[test]
    fn replace_root_installs_a_new_root() {
        let (vocab, d) = doc("<a><b/></a>");
        let f = frag(&vocab, "<z><y/></z>");
        let (nd, span) = replace_subtree(&d, d.root(), &f).unwrap();
        assert_eq!(nd.to_xml(), "<z><y/></z>");
        assert_eq!(span.parent, None);
        assert_eq!(span.removed, 2);
        assert_eq!(span.inserted, 2);
    }

    #[test]
    fn root_deletion_and_root_siblings_are_rejected() {
        let (vocab, d) = doc("<a><b/></a>");
        let f = frag(&vocab, "<e/>");
        assert_eq!(
            delete_subtree(&d, d.root()).err(),
            Some(EditError::RootRemoval)
        );
        for place in [SplicePlace::Before, SplicePlace::After] {
            assert_eq!(
                insert_fragment(&d, d.root(), place, &f).err(),
                Some(EditError::RootSibling)
            );
        }
    }

    #[test]
    fn text_and_unknown_targets_are_rejected() {
        let (vocab, d) = doc("<a>txt</a>");
        let f = frag(&vocab, "<e/>");
        let text = d.first_child(d.root()).unwrap();
        assert!(matches!(
            delete_subtree(&d, text).err(),
            Some(EditError::TextTarget(_))
        ));
        assert!(matches!(
            insert_fragment(&d, NodeId(99), SplicePlace::Into, &f).err(),
            Some(EditError::UnknownTarget(_))
        ));
    }

    #[test]
    fn attributes_survive_copies_and_fragments() {
        let (vocab, d) = doc("<a id=\"1\"><b k=\"v\"/></a>");
        let b = nth_labeled(&d, &vocab, "b", 0);
        let f = frag(&vocab, "<e x=\"y\"/>");
        let (nd, _) = insert_fragment(&d, b, SplicePlace::After, &f).unwrap();
        assert_eq!(nd.attribute(nd.root(), "id"), Some("1"));
        let e = nth_labeled(&nd, &vocab, "e", 0);
        assert_eq!(nd.attribute(e, "x"), Some("y"));
        let b2 = nth_labeled(&nd, &vocab, "b", 0);
        assert_eq!(nd.attribute(b2, "k"), Some("v"));
    }

    #[test]
    fn foreign_vocabulary_fragments_are_reinterned() {
        let (vocab, d) = doc("<a><b/></a>");
        let other = Vocabulary::new();
        let f = Document::parse_str("<b><zz/></b>", &other).unwrap();
        let b = nth_labeled(&d, &vocab, "b", 0);
        let (nd, _) = replace_subtree(&d, b, &f).unwrap();
        assert_eq!(nd.to_xml(), "<a><b><zz/></b></a>");
        // `zz` got interned into the target vocabulary by name.
        let zz = vocab.lookup("zz").unwrap();
        assert_eq!(nd.nodes_labeled(zz).count(), 1);
    }

    #[test]
    fn node_ids_stay_in_document_order_after_edits() {
        let (vocab, d) = doc("<a><b><c/>t</b><d/><b/></a>");
        let f = frag(&vocab, "<e><f/></e>");
        let b1 = nth_labeled(&d, &vocab, "b", 1);
        for (nd, _) in [
            delete_subtree(&d, nth_labeled(&d, &vocab, "b", 0)).unwrap(),
            replace_subtree(&d, b1, &f).unwrap(),
            insert_fragment(&d, b1, SplicePlace::Into, &f).unwrap(),
        ] {
            let pre: Vec<NodeId> = nd.descendants_or_self(nd.root()).collect();
            let mut sorted = pre.clone();
            sorted.sort();
            assert_eq!(pre, sorted);
            assert_eq!(pre.len(), nd.node_count());
        }
    }

    // -- the table splice against a parse of the same bytes ---------------

    use crate::testing::{assert_same_document, assert_span_contract};
    use crate::tree::TreeBuilder;

    /// The same tree built through the builder's public methods: other
    /// bytes (no comments, PIs, CDATA or gaps; canonical escapes) behind
    /// the same nodes.
    fn rebuilt(doc: &Document) -> Document {
        fn copy(doc: &Document, node: NodeId, b: &mut TreeBuilder) {
            match doc.label(node) {
                None => b.text(doc.text(node).unwrap()),
                Some(label) => {
                    b.start_element(label);
                    for (name, value) in doc.attributes(node) {
                        b.attribute(name, value);
                    }
                    for child in doc.children(node) {
                        copy(doc, child, b);
                    }
                    b.end_element();
                }
            }
        }
        let mut b = TreeBuilder::new(doc.vocabulary().clone());
        copy(doc, doc.root(), &mut b);
        b.finish().unwrap()
    }

    /// Random markup exercising everything the scanner distinguishes:
    /// clean and entity-bearing attributes, entities, CDATA, comments,
    /// PIs, whitespace gaps, self-closing tags, spaced end tags.
    fn random_element(rng: &mut StdRng, depth: u32, out: &mut String) {
        let name = ["a", "b", "c", "d"][rng.random_range(0..4usize)];
        out.push('<');
        out.push_str(name);
        for attr in [" k=\"v\"", " q='x &amp; y'", " r=\"1&lt;2\""] {
            if rng.random_bool(0.2) {
                out.push_str(attr);
            }
        }
        if depth == 0 || rng.random_bool(0.25) {
            out.push_str(if rng.random_bool(0.5) { "/>" } else { " />" });
            return;
        }
        out.push('>');
        for _ in 0..rng.random_range(0..7u32) {
            match rng.random_range(0..12u32) {
                0 => out.push_str("text"),
                1 => out.push_str("x &amp; y"),
                2 => out.push_str("<![CDATA[ raw <&> ]]>"),
                3 => out.push_str(" padded "),
                4 => out.push_str("<!-- note -->"),
                5 => out.push_str("<?pi data?>"),
                6 => out.push_str("\n  "),
                _ => random_element(rng, depth - 1, out),
            }
        }
        out.push_str("</");
        out.push_str(name);
        out.push_str(if rng.random_bool(0.8) { ">" } else { " >" });
    }

    fn random_markup(rng: &mut StdRng, depth: u32) -> String {
        let mut out = String::new();
        random_element(rng, depth, &mut out);
        out
    }

    /// One random edit of `doc` through the public entry points, with
    /// the fragment it writes (`None` for a delete).
    fn random_edit<'f>(
        rng: &mut StdRng,
        doc: &Document,
        target: NodeId,
        fragment: &'f Document,
    ) -> (
        Result<(Document, EditSpan), EditError>,
        Option<&'f Document>,
    ) {
        match rng.random_range(0..6u32) {
            0 | 1 => (delete_subtree(doc, target), None),
            2 => (replace_subtree(doc, target, fragment), Some(fragment)),
            3 => (
                insert_fragment(doc, target, SplicePlace::Into, fragment),
                Some(fragment),
            ),
            4 => (
                insert_fragment(doc, target, SplicePlace::Before, fragment),
                Some(fragment),
            ),
            _ => (
                insert_fragment(doc, target, SplicePlace::After, fragment),
                Some(fragment),
            ),
        }
    }

    #[test]
    fn table_splice_equals_a_parse_of_the_spliced_buffer() {
        let (mut merges, mut new_roots) = (0, 0);
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let vocab = Vocabulary::new();
            let mut source = String::new();
            if rng.random_bool(0.5) {
                source.push_str("<?xml version=\"1.0\"?>\n<!DOCTYPE a>\n<!-- head -->\n");
            }
            source.push_str(&random_markup(&mut rng, 4));
            if rng.random_bool(0.5) {
                source.push_str("\n<!-- tail -->\n");
            }
            let mut doc = Document::parse_str(&source, &vocab).unwrap();
            for step in 0..8 {
                // Fragments come from this vocabulary or a foreign one.
                let foreign = Vocabulary::new();
                let fragment_vocab = if rng.random_bool(0.5) {
                    &vocab
                } else {
                    &foreign
                };
                let fragment =
                    Document::parse_str(&random_markup(&mut rng, 2), fragment_vocab).unwrap();
                let elements: Vec<NodeId> =
                    doc.all_nodes().filter(|&n| doc.is_element(n)).collect();
                // Bias towards the interesting ends: the root and the
                // last child of the root.
                let target = match rng.random_range(0..24u32) {
                    0 => Some(doc.root()),
                    1 => doc.last_child(doc.root()).filter(|&n| doc.is_element(n)),
                    _ => None,
                }
                .unwrap_or_else(|| elements[rng.random_range(0..elements.len())]);
                // The same draw on the same tree behind other bytes must
                // give the same span and the same tree.
                let twin = rebuilt(&doc);
                let mut rng_twin = rng.clone();
                let (edited, written) = random_edit(&mut rng, &doc, target, &fragment);
                let (edited_twin, _) = random_edit(&mut rng_twin, &twin, target, &fragment);
                let ctx = format!("seed {seed} step {step} target {target:?}");
                let ((new_doc, span), (new_twin, span_twin)) = match (edited, edited_twin) {
                    (Ok(a), Ok(b)) => (a, b),
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "{ctx}");
                        continue;
                    }
                    (a, b) => panic!("twins disagree: {:?} vs {:?}; {ctx}", a.err(), b.err()),
                };
                assert_span_contract(&doc, &new_doc, &span, written, &ctx);
                assert_eq!(span, span_twin, "edit span; {ctx}");
                assert_eq!(new_doc.to_xml(), new_twin.to_xml(), "tree; {ctx}");
                for (edited, what) in [(&new_doc, "parsed"), (&new_twin, "built")] {
                    let reparsed =
                        crate::parse::parse_buffer(edited.shared_buffer(), &vocab).unwrap();
                    assert_same_document(edited, &reparsed, &format!("{what}; {ctx}"));
                }
                merges += usize::from(span.removed as usize > doc.subtree_size(target));
                new_roots += usize::from(span.parent.is_none());
                doc = new_doc;
            }
        }
        assert!(
            merges > 20 && new_roots > 20,
            "{merges} merges, {new_roots} new roots"
        );
    }

    #[test]
    fn splice_carries_gaps_prolog_and_decode_caches() {
        let (vocab, d) = doc(
            "<?xml version=\"1.0\"?><!-- head --><a k=\"1\"> <!--c--> x&amp;<b/>y <e q='&lt;'/>\
             <c>z&gt;</c></a><!-- tail -->",
        );
        let c = nth_labeled(&d, &vocab, "c", 0);
        let z = d.first_child(c).unwrap();
        assert_eq!(d.text(z), Some("z>")); // decoded, cached
        let b = nth_labeled(&d, &vocab, "b", 0);
        let (nd, span) = delete_subtree(&d, b).unwrap();
        assert_eq!(
            nd.raw_source(),
            "<?xml version=\"1.0\"?><!-- head --><a k=\"1\"> <!--c--> x&amp;y <e q='&lt;'/>\
             <c>z&gt;</c></a><!-- tail -->"
        );
        assert_eq!((span.start, span.removed, span.inserted), (2, 2, 0));
        let merged = nd.first_child(nd.root()).unwrap();
        assert_eq!(nd.text(merged), Some(" x&y "));
        let reparsed = crate::parse::parse_buffer(nd.shared_buffer(), &vocab).unwrap();
        assert_same_document(&nd, &reparsed, "merge");
        // The shifted suffix text kept its decode cache.
        assert!(nd.memory_summary().entity_cache_bytes >= "z>".len());
        let e = nth_labeled(&nd, &vocab, "e", 0);
        assert_eq!(nd.attribute(e, "q"), Some("<"));
    }

    #[test]
    fn self_closing_insert_into_rewrites_the_tag() {
        let (vocab, d) = doc("<a><b k=\"v\" /><c/></a>");
        let b = nth_labeled(&d, &vocab, "b", 0);
        let f = frag(&vocab, "<e>t</e>");
        let (nd, span) = insert_fragment(&d, b, SplicePlace::Into, &f).unwrap();
        assert_eq!(nd.raw_source(), "<a><b k=\"v\" ><e>t</e></b><c/></a>");
        assert_eq!((span.start, span.removed, span.inserted), (2, 0, 2));
        let reparsed = crate::parse::parse_buffer(nd.shared_buffer(), &vocab).unwrap();
        assert_same_document(&nd, &reparsed, "self-closing into");
    }

    #[test]
    fn suffix_ids_shift_by_the_span_delta() {
        let (vocab, d) = doc("<a><b><c/></b><d>x</d></a>");
        let b = nth_labeled(&d, &vocab, "b", 0);
        let f = frag(&vocab, "<e><f/><g/></e>");
        let (nd, span) = replace_subtree(&d, b, &f).unwrap();
        let d_old = nth_labeled(&d, &vocab, "d", 0);
        let d_new = nth_labeled(&nd, &vocab, "d", 0);
        assert_eq!(d_new.0, d_old.0 - span.removed + span.inserted);
        assert_eq!(nd.string_value(d_new), "x");
    }
}
