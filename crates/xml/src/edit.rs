//! Structural document edits — the tree-mutation substrate of the update
//! subsystem.
//!
//! [`Document`]s are immutable after build (evaluators rely on the
//! "`NodeId` order = document order" invariant and readers share them as
//! `Arc` snapshots), so an edit produces a **new** document. For
//! buffer-backed (parsed) documents it is built by **splicing**, of the
//! buffer and of the tables: the new raw buffer is the old one with the
//! edit's bytes cut out and the serialized fragment written in, only the
//! written bytes are scanned, and the node, extent and text tables are
//! the old ones copied around that window with ids and offsets shifted
//! (`tree::splice`). An update therefore costs a copy of the document's
//! tables plus work proportional to the edit — never a re-parse.
//! Programmatic documents (no backing buffer) are re-emitted through
//! [`TreeBuilder`] with the edited subtree skipped, replaced or extended
//! in place. Either way every invariant holds by construction, and what
//! must *not* be recomputed from scratch follows from the returned
//! [`EditSpan`]: the TAX index is patched from it (see
//! `smoqe_tax::TaxIndex::patched`), and schema validation re-checks only
//! the [`DirtySet`] a chain of spans adds up to.
//!
//! Because node ids are pre-order positions, every supported edit changes
//! one **contiguous id window**: nodes before the window keep their ids,
//! nodes after it shift by `inserted - removed`, and the only nodes whose
//! *descendant structure* changes are the ancestors of the splice point.
//! [`EditSpan`] records exactly that.

use crate::label::Label;
use crate::tree::{Document, NodeId, NodeKind, Splice, TreeBuilder};
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
        if let Some(parent) = span.parent {
            self.ranges.push(parent.0..parent.0 + 1);
        }
        if span.inserted > 0 {
            self.ranges.push(span.start..span.start + span.inserted);
        }
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
        }
    }
}

impl std::error::Error for EditError {}

/// The edit to perform at a target node. Fragments are stand-alone
/// documents (their root element is what gets spliced in); their labels
/// are re-interned into the edited document's vocabulary, so a fragment
/// parsed against any vocabulary is safe to splice.
enum Op<'a> {
    Delete,
    Replace(&'a Document),
    Insert(SplicePlace, &'a Document),
}

/// Deletes the subtree rooted at `target`.
pub fn delete_subtree(doc: &Document, target: NodeId) -> Result<(Document, EditSpan), EditError> {
    splice(doc, target, Op::Delete)
}

/// Replaces the subtree rooted at `target` with `fragment` (replacing the
/// root is allowed — the fragment becomes the new root).
pub fn replace_subtree(
    doc: &Document,
    target: NodeId,
    fragment: &Document,
) -> Result<(Document, EditSpan), EditError> {
    splice(doc, target, Op::Replace(fragment))
}

/// Inserts `fragment` into/before/after `target`.
pub fn insert_fragment(
    doc: &Document,
    target: NodeId,
    place: SplicePlace,
    fragment: &Document,
) -> Result<(Document, EditSpan), EditError> {
    splice(doc, target, Op::Insert(place, fragment))
}

fn splice(doc: &Document, target: NodeId, op: Op<'_>) -> Result<(Document, EditSpan), EditError> {
    if target.index() >= doc.node_count() {
        return Err(EditError::UnknownTarget(target));
    }
    if !doc.is_element(target) {
        return Err(EditError::TextTarget(target));
    }
    match op {
        Op::Delete if target == doc.root() => return Err(EditError::RootRemoval),
        Op::Insert(SplicePlace::Before | SplicePlace::After, _) if target == doc.root() => {
            return Err(EditError::RootSibling)
        }
        _ => {}
    }

    let subtree = doc.subtree_size(target) as u32;
    let (start, removed) = match &op {
        Op::Delete | Op::Replace(_) => (target.0, subtree),
        Op::Insert(SplicePlace::Before, _) => (target.0, 0),
        Op::Insert(SplicePlace::After | SplicePlace::Into, _) => (target.0 + subtree, 0),
    };
    let parent = match &op {
        Op::Insert(SplicePlace::Into, _) => Some(target),
        _ => doc.parent(target),
    };
    let span = EditSpan {
        start,
        removed,
        inserted: 0,
        parent,
    };
    if let Some(done) = splice_tables(doc, target, &op, span) {
        return Ok(done);
    }

    // Programmatic documents have no buffer to splice: re-emit the tree
    // with the edit applied in place.
    let inserted = match &op {
        Op::Delete => 0,
        Op::Replace(f) | Op::Insert(_, f) => f.node_count() as u32,
    };
    let mut builder = TreeBuilder::new(doc.vocabulary().clone());
    builder.reserve(doc.node_count() - removed as usize + inserted as usize);
    copy_edited(doc, doc.root(), target, &op, &mut builder);
    let new_doc = builder
        .finish()
        .expect("splice emits balanced events over a non-empty tree");
    // A delete can make two text siblings adjacent; the builder merges
    // them into the prefix node, swallowing one extra old node. Charge it
    // to the span so the suffix mapping stays exact.
    let expected = doc.node_count() as u32 - removed + inserted;
    let actual = new_doc.node_count() as u32;
    debug_assert!(
        actual == expected || actual + 1 == expected,
        "splice count drift"
    );
    let span = EditSpan {
        removed: removed + (expected - actual),
        inserted,
        ..span
    };
    Ok((new_doc, span))
}

/// Builds the edited document of a buffer-backed `doc` by splicing its
/// tables (see [`Document::spliced`]): this function works out *which
/// bytes* the operation cuts and writes, the tables follow from that.
/// `span` arrives with `inserted: 0` and leaves describing the edit.
/// Returns `None` for programmatic documents or when the buffer geometry
/// cannot be resolved.
///
/// The new buffer is `old[..cut.start] + insert + old[cut.end..]`. For
/// deletes, the cut also swallows the *invisible gap* between the target
/// and its siblings (comments, processing instructions and
/// whitespace-only runs that produced no node), so that a dropped
/// whitespace run can never concatenate with kept text and resurface.
/// When that leaves two text siblings adjacent, both join the scanned
/// window and come back as the one merged node a parse would produce.
fn splice_tables(
    doc: &Document,
    target: NodeId,
    op: &Op<'_>,
    mut span: EditSpan,
) -> Option<(Document, EditSpan)> {
    let buf = doc.raw_source()?;
    let (ext_s, ext_e) = doc.node_extent(target)?;
    let window = span.start..span.start + span.removed;
    let (xml, expected_nodes) = match op {
        Op::Delete => (String::new(), 0),
        Op::Replace(f) | Op::Insert(_, f) => (f.to_xml(), f.node_count()),
    };
    // The fragment written at byte `at`, after the sibling `prev`.
    let written = |at: usize, prev: Option<NodeId>| Splice {
        nodes: window.clone(),
        parent: span.parent,
        prev,
        cut: at..at,
        insert: &xml,
        scan: at..at + xml.len(),
        expected_nodes,
    };
    let rewritten_tag;
    let edit = match op {
        Op::Delete => {
            let (par_s, par_e) = doc.node_extent(span.parent?)?;
            let prev = doc.prev_sibling(target);
            let next = doc.next_sibling(target);
            let cut_start = match prev {
                Some(p) => doc.node_extent(p)?.1,
                None => tag_content_start(buf, par_s)?,
            };
            let cut_end = match next {
                Some(n) => doc.node_extent(n)?.0,
                None => close_tag_start(buf, par_e)?,
            };
            let mut edit = Splice {
                cut: cut_start..cut_end,
                ..written(cut_start, prev)
            };
            if let (Some(p), Some(n)) = (prev, next) {
                if !doc.is_element(p) && !doc.is_element(n) {
                    // The text siblings around the target become adjacent.
                    edit.nodes = p.0..n.0 + 1;
                    edit.prev = doc.prev_sibling(p);
                    edit.scan = doc.node_extent(p)?.0..doc.node_extent(n)?.1 - edit.cut.len();
                    edit.expected_nodes = 1;
                    span.removed += 1;
                }
            }
            edit
        }
        Op::Replace(_) => Splice {
            cut: ext_s..ext_e,
            ..written(ext_s, doc.prev_sibling(target))
        },
        Op::Insert(SplicePlace::Before, _) => written(ext_s, doc.prev_sibling(target)),
        Op::Insert(SplicePlace::After, _) => written(ext_e, Some(target)),
        Op::Insert(SplicePlace::Into, _) => {
            let prev = doc.last_child(target);
            if buf.as_bytes().get(ext_e.wrapping_sub(2)) == Some(&b'/') {
                // Self-closing target: rewrite `<b .../>` as
                // `<b ...>fragment</b>`.
                rewritten_tag = format!(">{xml}</{}>", doc.name(target)?);
                Splice {
                    cut: ext_e - 2..ext_e,
                    insert: &rewritten_tag,
                    ..written(ext_e - 1, prev)
                }
            } else {
                written(close_tag_start(buf, ext_e)?, prev)
            }
        }
    };
    let new_doc = doc.spliced(&edit)?;
    if !matches!(op, Op::Delete) {
        let kept = doc.node_count() - edit.nodes.len();
        span.inserted = (new_doc.node_count() - kept) as u32;
    }
    Some((new_doc, span))
}

/// Offset just past the `>` closing the start tag that begins at
/// `tag_start` (quote-aware: a `>` inside a quoted attribute value does
/// not close the tag).
fn tag_content_start(buf: &str, tag_start: usize) -> Option<usize> {
    let b = buf.as_bytes();
    debug_assert_eq!(b.get(tag_start), Some(&b'<'));
    let mut i = tag_start + 1;
    while i < b.len() {
        match b[i] {
            b'"' | b'\'' => {
                let q = b[i];
                i += 1;
                while i < b.len() && b[i] != q {
                    i += 1;
                }
                i += 1;
            }
            b'>' => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

/// Offset of the `<` of the end tag whose `>` sits at `extent_end - 1`
/// (reverse scan over `</ name ws* >`). `None` for self-closing tags.
fn close_tag_start(buf: &str, extent_end: usize) -> Option<usize> {
    let b = buf.as_bytes();
    let mut i = extent_end.checked_sub(1)?;
    if b[i] != b'>' {
        return None;
    }
    i = i.checked_sub(1)?;
    while b[i].is_ascii_whitespace() {
        i = i.checked_sub(1)?;
    }
    while crate::scanner::is_name_byte(b[i]) {
        i = i.checked_sub(1)?;
    }
    if b[i] == b'/' && i >= 1 && b[i - 1] == b'<' {
        Some(i - 1)
    } else {
        None
    }
}

/// Re-emits `node`'s subtree into `builder`, applying `op` at `target`.
fn copy_edited(
    src: &Document,
    node: NodeId,
    target: NodeId,
    op: &Op<'_>,
    builder: &mut TreeBuilder,
) {
    if node == target {
        match op {
            Op::Delete => return,
            Op::Replace(fragment) => {
                copy_fragment(fragment, fragment.root(), builder);
                return;
            }
            Op::Insert(SplicePlace::Before, fragment) => {
                copy_fragment(fragment, fragment.root(), builder);
            }
            Op::Insert(SplicePlace::After | SplicePlace::Into, _) => {}
        }
    }
    match src.kind(node) {
        NodeKind::Text(_) => builder.text(src.text(node).expect("text kind")),
        NodeKind::Element(label) => {
            builder.start_element(*label);
            for (name, value) in src.attributes(node) {
                builder.attribute(name, value);
            }
            for child in src.children(node) {
                copy_edited(src, child, target, op, builder);
            }
            if node == target {
                if let Op::Insert(SplicePlace::Into, fragment) = op {
                    copy_fragment(fragment, fragment.root(), builder);
                }
            }
            builder.end_element();
        }
    }
    if node == target {
        if let Op::Insert(SplicePlace::After, fragment) = op {
            copy_fragment(fragment, fragment.root(), builder);
        }
    }
}

/// Copies a fragment subtree, re-interning labels by name so fragments
/// parsed against a foreign vocabulary splice correctly (a shared
/// vocabulary makes this a cheap identity lookup).
fn copy_fragment(frag: &Document, node: NodeId, builder: &mut TreeBuilder) {
    match frag.kind(node) {
        NodeKind::Text(_) => builder.text(frag.text(node).expect("text kind")),
        NodeKind::Element(label) => {
            let label = intern_into(builder, frag, *label);
            builder.start_element(label);
            for (name, value) in frag.attributes(node) {
                builder.attribute(name, value);
            }
            for child in frag.children(node) {
                copy_fragment(frag, child, builder);
            }
            builder.end_element();
        }
    }
}

fn intern_into(builder: &TreeBuilder, frag: &Document, label: Label) -> Label {
    if builder.vocabulary().same_as(frag.vocabulary()) {
        label
    } else {
        builder.vocabulary().intern(&frag.vocabulary().name(label))
    }
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

    /// Every public accessor (and the private links) of `got` against
    /// `want`, node by node.
    fn assert_same_document(got: &Document, want: &Document, ctx: &str) {
        assert_eq!(got.node_count(), want.node_count(), "node count; {ctx}");
        assert_eq!(got.root(), want.root(), "root; {ctx}");
        assert_eq!(got.raw_source(), want.raw_source(), "buffer; {ctx}");
        for n in want.all_nodes() {
            assert_eq!(got.kind(n), want.kind(n), "kind of {n:?}; {ctx}");
            assert_eq!(got.parent(n), want.parent(n), "parent of {n:?}; {ctx}");
            assert_eq!(
                got.first_child(n),
                want.first_child(n),
                "first child of {n:?}; {ctx}"
            );
            assert_eq!(
                got.last_child(n),
                want.last_child(n),
                "last child of {n:?}; {ctx}"
            );
            assert_eq!(
                got.next_sibling(n),
                want.next_sibling(n),
                "next sibling of {n:?}; {ctx}"
            );
            assert_eq!(
                got.prev_sibling(n),
                want.prev_sibling(n),
                "previous sibling of {n:?}; {ctx}"
            );
            assert_eq!(
                got.node_extent(n),
                want.node_extent(n),
                "extent of {n:?}; {ctx}"
            );
            assert_eq!(got.text(n), want.text(n), "text of {n:?}; {ctx}");
            assert_eq!(
                got.attributes(n).collect::<Vec<_>>(),
                want.attributes(n).collect::<Vec<_>>(),
                "attributes of {n:?}; {ctx}"
            );
            assert_eq!(
                got.subtree_size(n),
                want.subtree_size(n),
                "subtree size of {n:?}; {ctx}"
            );
        }
        assert_eq!(got.to_xml(), want.to_xml(), "serialization; {ctx}");
        // Same representations too (a clean span stays a span).
        let (g, w) = (got.memory_summary(), want.memory_summary());
        assert_eq!(g.node_table_bytes, w.node_table_bytes, "node tables; {ctx}");
        assert_eq!(g.text_table_bytes, w.text_table_bytes, "text table; {ctx}");
        assert_eq!(g.owned_bytes, w.owned_bytes, "owned bytes; {ctx}");
    }

    /// The same tree with no backing buffer (what the generator and the
    /// view materializer build), so edits take the re-emitting path.
    fn programmatic(doc: &Document) -> Document {
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

    /// One random edit of `doc` through the public entry points.
    fn random_edit(
        rng: &mut StdRng,
        doc: &Document,
        target: NodeId,
        fragment: &Document,
    ) -> Result<(Document, EditSpan), EditError> {
        match rng.random_range(0..6u32) {
            0 | 1 => delete_subtree(doc, target),
            2 => replace_subtree(doc, target, fragment),
            3 => insert_fragment(doc, target, SplicePlace::Into, fragment),
            4 => insert_fragment(doc, target, SplicePlace::Before, fragment),
            _ => insert_fragment(doc, target, SplicePlace::After, fragment),
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
                // The same draw on the buffer-less twin is the oracle for
                // the span and the tree.
                let twin = programmatic(&doc);
                let mut rng_twin = rng.clone();
                let edited = random_edit(&mut rng, &doc, target, &fragment);
                let edited_twin = random_edit(&mut rng_twin, &twin, target, &fragment);
                let ctx = format!("seed {seed} step {step} target {target:?}");
                let ((new_doc, span), (new_twin, span_twin)) = match (edited, edited_twin) {
                    (Ok(a), Ok(b)) => (a, b),
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "{ctx}");
                        continue;
                    }
                    (a, b) => panic!("paths disagree: {:?} vs {:?}; {ctx}", a.err(), b.err()),
                };
                assert!(new_doc.raw_source().is_some(), "stays buffer-backed; {ctx}");
                assert!(new_twin.raw_source().is_none(), "{ctx}");
                assert_eq!(span, span_twin, "edit span; {ctx}");
                assert_eq!(new_doc.to_xml(), new_twin.to_xml(), "tree; {ctx}");
                let reparsed =
                    crate::parse::parse_buffer(new_doc.shared_buffer().unwrap(), &vocab).unwrap();
                assert_same_document(&new_doc, &reparsed, &ctx);
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
            nd.raw_source().unwrap(),
            "<?xml version=\"1.0\"?><!-- head --><a k=\"1\"> <!--c--> x&amp;y <e q='&lt;'/>\
             <c>z&gt;</c></a><!-- tail -->"
        );
        assert_eq!((span.start, span.removed, span.inserted), (2, 2, 0));
        let merged = nd.first_child(nd.root()).unwrap();
        assert_eq!(nd.text(merged), Some(" x&y "));
        let reparsed = crate::parse::parse_buffer(nd.shared_buffer().unwrap(), &vocab).unwrap();
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
        assert_eq!(
            nd.raw_source().unwrap(),
            "<a><b k=\"v\" ><e>t</e></b><c/></a>"
        );
        assert_eq!((span.start, span.removed, span.inserted), (2, 0, 2));
        let reparsed = crate::parse::parse_buffer(nd.shared_buffer().unwrap(), &vocab).unwrap();
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
