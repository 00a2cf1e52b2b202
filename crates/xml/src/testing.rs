//! Test support for this crate and the crates built on it (the `testing`
//! feature): document equality down to the representation, and the
//! contract an edit's [`EditSpan`] states.

use crate::edit::EditSpan;
use crate::tree::{Document, NodeId};

/// Asserts `got` equals `want` on every public accessor (and the private
/// links), node by node, and in representation: the same buffer, extents
/// and table sizes (a clean span stays a span).
pub fn assert_same_document(got: &Document, want: &Document, ctx: &str) {
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
    let (g, w) = (got.memory_summary(), want.memory_summary());
    assert_eq!(g.node_table_bytes, w.node_table_bytes, "node tables; {ctx}");
    assert_eq!(g.text_table_bytes, w.text_table_bytes, "text table; {ctx}");
    assert_eq!(g.owned_bytes, w.owned_bytes, "owned bytes; {ctx}");
}

/// Asserts that a document built through [`crate::TreeBuilder`]'s
/// public methods is in canonical form: its buffer is its serialization,
/// and it is the document a parse of that buffer gives.
pub fn assert_canonical(doc: &Document, ctx: &str) {
    assert_eq!(
        doc.raw_source(),
        doc.to_xml(),
        "buffer is the serialization; {ctx}"
    );
    let reparsed = crate::parse::parse_buffer(doc.shared_buffer(), doc.vocabulary())
        .unwrap_or_else(|e| panic!("the buffer parses: {e}; {ctx}"));
    assert_same_document(doc, &reparsed, ctx);
}

/// What one node is, independent of its id and its bytes.
fn content(d: &Document, n: NodeId) -> (Option<&str>, Option<&str>, Vec<(&str, &str)>) {
    (d.name(n), d.text(n), d.attributes(n).collect())
}

/// Checks `span` against [`EditSpan`]'s contract, given the old and
/// new documents and what the window was meant to receive
/// (`fragment`, or `None` for a delete).
pub fn assert_span_contract(
    old: &Document,
    new: &Document,
    span: &EditSpan,
    fragment: Option<&Document>,
    ctx: &str,
) {
    let (start, removed, inserted) = (span.start, span.removed, span.inserted);
    assert_eq!(
        new.node_count() + removed as usize,
        old.node_count() + inserted as usize,
        "node count; {ctx}"
    );
    if let Some(p) = span.parent {
        assert!(p.0 < start, "parent {p:?} precedes the window; {ctx}");
    }
    // A delete that leaves two text siblings adjacent joins them: the
    // one before the window keeps its id and swallows the one after
    // the target, which the span counts as removed.
    let joined = fragment.is_none() && removed as usize > old.subtree_size(NodeId(start));
    for id in 0..start {
        let n = NodeId(id);
        if joined && id + 1 == start {
            let texts = [n, NodeId(start + removed - 1)].map(|t| old.text(t).unwrap());
            assert_eq!(new.text(n), Some(texts.concat().as_str()), "joined; {ctx}");
        } else {
            assert_eq!(content(new, n), content(old, n), "prefix {n:?}; {ctx}");
        }
    }
    for id in start + removed..old.node_count() as u32 {
        let (o, n) = (NodeId(id), NodeId(id - removed + inserted));
        assert_eq!(content(new, n), content(old, o), "suffix {o:?}; {ctx}");
    }
    // The window's top-level nodes hang off `parent` and serialize to
    // the fragment; a delete leaves the window empty.
    let window = (start..start + inserted).map(NodeId);
    let tops: Vec<NodeId> = window.filter(|&n| new.parent(n) == span.parent).collect();
    let written: String = tops
        .iter()
        .map(|&n| crate::serialize::subtree_to_string(new, n))
        .collect();
    assert_eq!(
        written,
        fragment.map_or(String::new(), Document::to_xml),
        "window; {ctx}"
    );
}
