//! The positional label index: the data jump-scan evaluation runs on.
//!
//! [`crate::TaxIndex`] answers *"which labels occur below this node?"* —
//! enough to prune a subtree the traversal is already standing on, but the
//! traversal still has to walk to it. The [`LabelIndex`] adds the
//! positional complement so an evaluator can *jump*:
//!
//! * **per-label occurrence lists** — for every label, the sorted pre-order
//!   ids of the elements carrying it. "The next `test` element at or after
//!   position p" is one binary search;
//! * **`subtree_end`** — for every node, one past the last pre-order id of
//!   its subtree. Node ids are document order, so `[n, subtree_end(n))` *is*
//!   the subtree, and "skip this entire subtree" is a cursor assignment;
//! * **`level`** — every node's depth, so drivers can reconstruct ancestor
//!   relationships without touching the tree.
//!
//! Built in the same bottom-up pass as the TAX descendant-label sets (see
//! [`crate::TaxIndex::build`]) and maintained through
//! [`LabelIndex::patched`] across structural edits. An edit that replaces
//! the document root invalidates every positional invariant at once, so
//! that case falls back to a full rebuild instead of splicing.

use crate::remap::Remap;
use smoqe_xml::{Document, EditSpan, Label, NodeId};

/// Positional index over one document: per-label sorted pre-order id
/// lists plus per-node `subtree_end` / `level` arrays.
#[derive(Clone, Debug)]
pub struct LabelIndex {
    /// `label id -> sorted pre-order ids of elements with that label`.
    pub(crate) lists: Vec<Vec<u32>>,
    /// Per node: one past the last pre-order id of the node's subtree.
    pub(crate) subtree_end: Vec<u32>,
    /// Per node: depth (root = 0).
    pub(crate) level: Vec<u32>,
}

impl LabelIndex {
    /// Builds the index over `doc` (one bottom-up pass for the occurrence
    /// lists and subtree ends, one forward pass for the levels).
    pub fn build(doc: &Document) -> LabelIndex {
        let n = doc.node_count();
        let mut lists = vec![Vec::new(); doc.vocabulary().len()];
        let mut subtree_end = vec![0u32; n];
        // Children have larger ids than their parent, so a descending pass
        // sees every child's end before the parent needs it.
        for raw in (0..n as u32).rev() {
            let node = NodeId(raw);
            let mut end = raw + 1;
            for c in doc.children(node) {
                end = end.max(subtree_end[c.index()]);
            }
            subtree_end[raw as usize] = end;
            if let Some(l) = doc.label(node) {
                lists[l.index()].push(raw);
            }
        }
        for list in &mut lists {
            list.reverse(); // descending pass pushed ids in reverse
        }
        LabelIndex {
            lists,
            subtree_end,
            level: levels_of(doc),
        }
    }

    /// Incrementally maintains the index across one structural edit (same
    /// contract as [`crate::TaxIndex::patched`]): splice the id window,
    /// shift everything after it, recompute subtree ends only for the
    /// window and the splice point's ancestor chain.
    ///
    /// An edit whose span touches the **root** (`span.parent == None`,
    /// i.e. the root itself was replaced) rewrites the whole id space and
    /// every positional invariant with it, so it falls back to a full
    /// [`LabelIndex::build`] instead of splicing.
    pub fn patched(&self, new_doc: &Document, span: &EditSpan) -> LabelIndex {
        self.spliced(new_doc, &Remap::new(new_doc, std::slice::from_ref(span)))
    }

    /// [`LabelIndex::patched`] across every window of `remap` in one pass
    /// over each array and each occurrence list.
    pub(crate) fn spliced(&self, new_doc: &Document, remap: &Remap) -> LabelIndex {
        if remap.root_replaced {
            return LabelIndex::build(new_doc);
        }
        let new_n = new_doc.node_count();

        // -- subtree ends ------------------------------------------------
        // A kept node's end moves with it; the ends of the windows' nodes
        // and of their ancestors (the kept nodes whose subtrees changed)
        // are recomputed from their last child, children first.
        let mut subtree_end = remap.splice_table(&self.subtree_end, new_n, 0, |out, kept, d| {
            out.extend(kept.iter().map(|&e| e.wrapping_add(d)))
        });
        let end_of = |subtree_end: &[u32], node: NodeId| {
            new_doc
                .last_child(node)
                .map_or(node.0 + 1, |c| subtree_end[c.index()])
        };
        for fresh in remap.fresh() {
            for raw in fresh.rev() {
                subtree_end[raw as usize] = end_of(&subtree_end, NodeId(raw));
            }
        }
        for &a in &remap.ancestors {
            subtree_end[a as usize] = end_of(&subtree_end, NodeId(a));
        }

        // -- levels ------------------------------------------------------
        // Depths outside the windows are untouched by a splice; window
        // nodes hang off already-correct parents (inside the window or the
        // splice parent).
        let mut level = remap.splice_table(&self.level, new_n, 0, |out, kept, _| {
            out.extend_from_slice(kept)
        });
        for fresh in remap.fresh() {
            for raw in fresh {
                let p = new_doc
                    .parent(NodeId(raw))
                    .expect("window nodes hang below the splice parent");
                level[raw as usize] = level[p.index()] + 1;
            }
        }

        // -- occurrence lists --------------------------------------------
        // Per label: kept ids move, window ids are collected fresh, and
        // the two merge in sorted order.
        let mut fresh: Vec<(u32, u32)> = Vec::with_capacity(remap.fresh().map(|r| r.len()).sum());
        for raw in remap.fresh().flatten() {
            if let Some(l) = new_doc.label(NodeId(raw)) {
                fresh.push((l.0, raw));
            }
        }
        fresh.sort_unstable();
        let num_labels = new_doc.vocabulary().len().max(self.lists.len());
        let lists = (0..num_labels as u32)
            .map(|label| {
                let old: &[u32] = self.lists.get(label as usize).map_or(&[], Vec::as_slice);
                let from = fresh.partition_point(|&(l, _)| l < label);
                let to = fresh.partition_point(|&(l, _)| l <= label);
                let mut list = Vec::with_capacity(old.len() + (to - from));
                remap.splice_list(old, fresh[from..to].iter().map(|&(_, id)| id), &mut list);
                list
            })
            .collect();

        LabelIndex {
            lists,
            subtree_end,
            level,
        }
    }

    /// Sorted pre-order ids of the elements labelled `label` (empty for
    /// labels interned after the index was built).
    #[inline]
    pub fn occurrences(&self, label: Label) -> &[u32] {
        self.lists
            .get(label.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// One past the last pre-order id of `node`'s subtree:
    /// `[node, subtree_end(node))` is the subtree.
    #[inline]
    pub fn subtree_end(&self, node: NodeId) -> u32 {
        self.subtree_end[node.index()]
    }

    /// Depth of `node` (root = 0).
    #[inline]
    pub fn level(&self, node: NodeId) -> u32 {
        self.level[node.index()]
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.subtree_end.len()
    }

    /// Approximate in-memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        let list_bytes: usize = self.lists.iter().map(|l| l.len() * 4).sum();
        list_bytes + self.subtree_end.len() * 4 + self.level.len() * 4
    }
}

/// Per-node depths, one forward pass (parents precede children in id
/// order).
fn levels_of(doc: &Document) -> Vec<u32> {
    let n = doc.node_count();
    let mut level = vec![0u32; n];
    for raw in 0..n as u32 {
        if let Some(p) = doc.parent(NodeId(raw)) {
            level[raw as usize] = level[p.index()] + 1;
        }
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_xml::Vocabulary;

    fn doc(xml: &str) -> (Vocabulary, Document) {
        let vocab = Vocabulary::new();
        let d = Document::parse_str(xml, &vocab).unwrap();
        (vocab, d)
    }

    fn assert_matches_document(idx: &LabelIndex, d: &Document) {
        assert_eq!(idx.node_count(), d.node_count());
        for n in d.all_nodes() {
            assert_eq!(
                idx.subtree_end(n) as usize,
                n.index() + d.subtree_size(n),
                "subtree_end of {n:?}"
            );
            assert_eq!(idx.level(n) as usize, d.depth(n), "level of {n:?}");
        }
        for (li, list) in idx.lists.iter().enumerate() {
            let label = smoqe_xml::Label(li as u32);
            let want: Vec<u32> = d.nodes_labeled(label).map(|n| n.0).collect();
            assert_eq!(list, &want, "occurrence list of label {li}");
            assert!(list.windows(2).all(|w| w[0] < w[1]), "list {li} sorted");
        }
    }

    #[test]
    fn build_matches_document_structure() {
        let (_, d) = doc("<a><b><c/><c/></b>x<d><b>t</b></d></a>");
        assert_matches_document(&LabelIndex::build(&d), &d);
    }

    #[test]
    fn patched_matches_rebuild_for_every_target_and_op() {
        let (vocab, d) = doc("<a><b><c/><c/></b><d>x</d><b><e/></b></a>");
        let idx = LabelIndex::build(&d);
        let frag = Document::parse_str("<f><g/>t</f>", &vocab).unwrap();
        for target in d.all_nodes().filter(|&n| d.is_element(n)) {
            if target != d.root() {
                let (nd, span) = smoqe_xml::delete_subtree(&d, target).unwrap();
                assert_matches_document(&idx.patched(&nd, &span), &nd);
                for place in [
                    smoqe_xml::SplicePlace::Into,
                    smoqe_xml::SplicePlace::Before,
                    smoqe_xml::SplicePlace::After,
                ] {
                    let (nd, span) = smoqe_xml::insert_fragment(&d, target, place, &frag).unwrap();
                    assert_matches_document(&idx.patched(&nd, &span), &nd);
                }
            }
            let (nd, span) = smoqe_xml::replace_subtree(&d, target, &frag).unwrap();
            assert_matches_document(&idx.patched(&nd, &span), &nd);
        }
    }

    #[test]
    fn patched_root_replacement_falls_back_to_rebuild() {
        let (vocab, d) = doc("<a><b/></a>");
        let idx = LabelIndex::build(&d);
        let frag = Document::parse_str("<a><zz><b/></zz></a>", &vocab).unwrap();
        let (nd, span) = smoqe_xml::replace_subtree(&d, d.root(), &frag).unwrap();
        assert!(span.parent.is_none(), "root replacement has no parent");
        assert_matches_document(&idx.patched(&nd, &span), &nd);
    }

    #[test]
    fn patched_handles_append_into_last_child() {
        // The `end == start` case: appending into a node whose subtree
        // previously ended exactly at the splice point — the parent chain
        // must still grow.
        let (vocab, d) = doc("<a><b><c/></b></a>");
        let idx = LabelIndex::build(&d);
        let frag = Document::parse_str("<e/>", &vocab).unwrap();
        let c = d.nodes_labeled(vocab.lookup("c").unwrap()).next().unwrap();
        let (nd, span) =
            smoqe_xml::insert_fragment(&d, c, smoqe_xml::SplicePlace::Into, &frag).unwrap();
        assert_matches_document(&idx.patched(&nd, &span), &nd);
    }

    #[test]
    fn patched_handles_text_merge_spans() {
        let (vocab, d) = doc("<a>x<b><c/></b>y<d/></a>");
        let idx = LabelIndex::build(&d);
        let b = d.nodes_labeled(vocab.lookup("b").unwrap()).next().unwrap();
        let (nd, span) = smoqe_xml::delete_subtree(&d, b).unwrap();
        assert_eq!(span.removed, 3, "subtree plus the merged text node");
        assert_matches_document(&idx.patched(&nd, &span), &nd);
    }

    #[test]
    fn memory_bytes_counts_lists_and_arrays() {
        let (_, d) = doc("<a><b/><b/></a>");
        let idx = LabelIndex::build(&d);
        // 3 occurrences * 4 + 3 ends * 4 + 3 levels * 4.
        assert_eq!(idx.memory_bytes(), 3 * 4 + 3 * 4 + 3 * 4);
    }
}
