//! The text-value posting index: per-(label, text-value) occurrence lists.
//!
//! The [`crate::LabelIndex`] lets the jump driver hop between elements of
//! one label; a `text() = 'v'` leaf predicate still forces it to visit
//! every such element just to compare strings. The [`ValueIndex`] stores,
//! for every `(label, direct-text-value)` pair, the sorted pre-order ids
//! of the elements carrying that label **and** that text — so "the next
//! `medication` whose text is `autism`" is one binary search, and a
//! predicated trigger list shrinks from all label occurrences to the
//! matching ones.
//!
//! Values are stored **hashed, not verbatim** (the PR 2 two-pass idiom:
//! length-strengthened rolling hash as a filter, with the evaluator's
//! exact string comparison as the authoritative check). A hash collision
//! therefore merges two values' posting lists — queries see a *superset*
//! of the true matches, never a subset, which is exactly the contract the
//! jump driver needs: candidate enumeration may overapproximate, the
//! per-candidate guard verification filters. Elements with empty direct
//! text are not posted at all; callers must not narrow on the empty
//! string.
//!
//! Built in the same descending pass as [`crate::LabelIndex`], maintained
//! incrementally through [`ValueIndex::patched`] (the same window splice
//! as the label index's), and reattached after persistence like the label
//! index.

use crate::remap::Remap;
use smoqe_xml::{Document, EditSpan, Label, NodeId};
use std::collections::HashMap;

/// Hash base shared with the evaluator's two-pass text filter.
const B: u64 = 1_000_003;

/// Sentinel key for nodes that post nothing: text nodes, and elements
/// with empty direct text.
const UNPOSTED: u64 = u64::MAX;

/// Length-strengthened rolling hash of a text value, folded away from the
/// [`UNPOSTED`] sentinel so every real value owns a valid key. Collisions
/// merge posting lists (superset answers) — tolerated by design, the
/// evaluator's exact comparison is authoritative.
fn text_key(s: &str) -> u64 {
    let mut h: u64 = s.len() as u64;
    for b in s.bytes() {
        h = h.wrapping_mul(B).wrapping_add(b as u64 + 1);
    }
    if h == UNPOSTED {
        UNPOSTED - 1
    } else {
        h
    }
}

/// The posting key of `node` in `doc`: [`UNPOSTED`] for text nodes and
/// text-less elements, the value hash otherwise.
fn key_of(doc: &Document, node: NodeId) -> u64 {
    if !doc.is_element(node) {
        return UNPOSTED;
    }
    let text = doc.direct_text_cow(node);
    if text.is_empty() {
        UNPOSTED
    } else {
        text_key(&text)
    }
}

/// Text-value posting index over one document.
#[derive(Clone, Debug, Default)]
pub struct ValueIndex {
    /// `(label id, value key) -> sorted pre-order ids` of elements with
    /// that label whose direct text hashes to that key. Lists are never
    /// empty.
    lists: HashMap<(u32, u64), Vec<u32>>,
    /// Number of nodes of the indexed document.
    nodes: usize,
}

impl ValueIndex {
    /// Builds the index over `doc` in one descending pass (children before
    /// parents, mirroring [`crate::LabelIndex::build`]).
    pub fn build(doc: &Document) -> ValueIndex {
        let n = doc.node_count();
        let mut lists: HashMap<(u32, u64), Vec<u32>> = HashMap::new();
        for raw in (0..n as u32).rev() {
            let node = NodeId(raw);
            let key = key_of(doc, node);
            if key == UNPOSTED {
                continue;
            }
            let label = doc.label(node).expect("posted nodes are elements");
            lists.entry((label.0, key)).or_default().push(raw);
        }
        for list in lists.values_mut() {
            list.reverse(); // descending pass pushed ids in reverse
        }
        ValueIndex { lists, nodes: n }
    }

    /// Incrementally maintains the index across one structural edit (same
    /// contract as [`crate::LabelIndex::patched`]): splice the contiguous
    /// id window out of every posting list, collect the window's fresh
    /// postings, shift the tails. Nothing outside the window is re-keyed:
    /// the only such node whose set of text children a splice touches is
    /// its parent, and its concatenated direct text is invariant under
    /// the supported edits (they write and remove elements; a boundary
    /// text merge preserves the concatenation). Root replacement rewrites
    /// every id, so it falls back to a rebuild.
    pub fn patched(&self, new_doc: &Document, span: &EditSpan) -> ValueIndex {
        self.spliced(new_doc, &Remap::new(new_doc, std::slice::from_ref(span)))
    }

    /// [`ValueIndex::patched`] across every window of `remap` in one pass
    /// over each posting list.
    pub(crate) fn spliced(&self, new_doc: &Document, remap: &Remap) -> ValueIndex {
        if remap.root_replaced {
            return ValueIndex::build(new_doc);
        }
        let mut fresh: Vec<((u32, u64), u32)> = Vec::new();
        for raw in remap.fresh().flatten() {
            let node = NodeId(raw);
            let key = key_of(new_doc, node);
            if key != UNPOSTED {
                let label = new_doc.label(node).expect("posted nodes are elements");
                fresh.push(((label.0, key), raw));
            }
        }
        fresh.sort_unstable();
        fn ids(postings: &[((u32, u64), u32)]) -> impl Iterator<Item = u32> + '_ {
            postings.iter().map(|&(_, id)| id)
        }
        let mut lists: HashMap<(u32, u64), Vec<u32>> =
            HashMap::with_capacity(self.lists.len() + fresh.len());
        for (&k, old) in &self.lists {
            let from = fresh.partition_point(|&(f, _)| f < k);
            let to = from + fresh[from..].partition_point(|&(f, _)| f == k);
            let mut list = Vec::with_capacity(old.len() + (to - from));
            remap.splice_list(old, ids(&fresh[from..to]), &mut list);
            if !list.is_empty() {
                lists.insert(k, list);
            }
        }
        for postings in fresh.chunk_by(|a, b| a.0 == b.0) {
            let k = postings[0].0;
            if !self.lists.contains_key(&k) {
                lists.insert(k, ids(postings).collect());
            }
        }
        debug_assert!(
            remap.ancestors.iter().all(|&a| {
                let node = NodeId(a);
                let key = key_of(new_doc, node);
                key == UNPOSTED
                    || lists[&(new_doc.label(node).expect("an element").0, key)]
                        .binary_search(&a)
                        .is_ok()
            }),
            "a splice leaves the direct text of the nodes around it as it was"
        );
        ValueIndex {
            lists,
            nodes: new_doc.node_count(),
        }
    }

    /// Sorted pre-order ids of elements labelled `label` whose direct text
    /// equals `text` — plus any hash-colliding values (callers verify).
    /// Empty for the empty string: text-less elements post nothing.
    #[inline]
    pub fn occurrences(&self, label: Label, text: &str) -> &[u32] {
        if text.is_empty() {
            return &[];
        }
        self.lists
            .get(&(label.0, text_key(text)))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of distinct `(label, value)` posting lists.
    pub fn distinct_postings(&self) -> usize {
        self.lists.len()
    }

    /// Total posted occurrences across all lists.
    pub fn total_occurrences(&self) -> usize {
        self.lists.values().map(Vec::len).sum()
    }

    /// Per-label posting statistics, sorted by label id: `(label id,
    /// distinct values, posted occurrences)`. Labels with no postings are
    /// omitted.
    pub fn label_stats(&self) -> Vec<(u32, usize, usize)> {
        let mut per_label: HashMap<u32, (usize, usize)> = HashMap::new();
        for (&(label, _), list) in &self.lists {
            let e = per_label.entry(label).or_insert((0, 0));
            e.0 += 1;
            e.1 += list.len();
        }
        let mut out: Vec<(u32, usize, usize)> =
            per_label.into_iter().map(|(l, (d, o))| (l, d, o)).collect();
        out.sort_unstable();
        out
    }

    /// Approximate in-memory footprint in bytes: posting ids and per-list
    /// key/header overhead.
    pub fn memory_bytes(&self) -> usize {
        self.lists
            .values()
            .map(|l| l.len() * 4 + std::mem::size_of::<((u32, u64), Vec<u32>)>())
            .sum()
    }
}

/// Intersects two sorted ascending id lists by galloping: each probe
/// doubles its stride through the longer list, so the cost is
/// `O(|small| · log |big|)` — the regime posting-list ∩ occurrence-list
/// intersections live in (a selective value list against a big label
/// list).
pub fn gallop_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (small, big) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(small.len());
    let mut lo = 0usize;
    for &x in small {
        // Gallop to the first big index with big[i] >= x.
        let mut step = 1usize;
        let mut hi = lo;
        while hi < big.len() && big[hi] < x {
            lo = hi + 1;
            hi = lo + step;
            step <<= 1;
        }
        let hi = hi.min(big.len());
        lo += big[lo..hi].partition_point(|&y| y < x);
        if lo < big.len() && big[lo] == x {
            out.push(x);
            lo += 1;
        }
        if lo >= big.len() {
            break;
        }
    }
    out
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

    /// Brute-force check: every element's (label, direct-text) posting is
    /// present, nothing else is, and every list is sorted.
    fn assert_matches_document(idx: &ValueIndex, d: &Document) {
        assert_eq!(idx.node_count(), d.node_count());
        let mut want: HashMap<(u32, u64), Vec<u32>> = HashMap::new();
        for n in d.all_nodes() {
            let key = key_of(d, n);
            if key != UNPOSTED {
                let label = d.label(n).unwrap();
                want.entry((label.0, key)).or_default().push(n.0);
            }
        }
        assert_eq!(idx.lists.len(), want.len(), "posting list count");
        for (k, list) in &want {
            assert_eq!(idx.lists.get(k), Some(list), "postings of {k:?}");
        }
        for n in d.all_nodes() {
            if !d.is_element(n) {
                continue;
            }
            let text = d.direct_text(n);
            if text.is_empty() {
                continue;
            }
            let label = d.label(n).unwrap();
            assert!(
                idx.occurrences(label, &text).contains(&n.0),
                "occurrences({label:?}, {text:?}) misses {n:?}"
            );
        }
    }

    #[test]
    fn build_posts_labeled_values() {
        let (vocab, d) = doc("<a><b>x</b><b>y</b><c>x</c><b>x</b><d/>t</a>");
        let idx = ValueIndex::build(&d);
        assert_matches_document(&idx, &d);
        let b = vocab.lookup("b").unwrap();
        let c = vocab.lookup("c").unwrap();
        assert_eq!(idx.occurrences(b, "x").len(), 2);
        assert_eq!(idx.occurrences(b, "y").len(), 1);
        assert_eq!(idx.occurrences(c, "x").len(), 1);
        assert_eq!(idx.occurrences(b, "z"), &[] as &[u32]);
        assert_eq!(idx.occurrences(b, ""), &[] as &[u32]);
    }

    #[test]
    fn split_direct_text_posts_the_concatenation() {
        // Direct text around a child element concatenates — the same
        // shape the evaluator's authoritative comparison uses.
        let (vocab, d) = doc("<a><b>x<c/>y</b></a>");
        let idx = ValueIndex::build(&d);
        let b = vocab.lookup("b").unwrap();
        assert_eq!(idx.occurrences(b, "xy").len(), 1);
        assert_eq!(idx.occurrences(b, "x"), &[] as &[u32]);
    }

    #[test]
    fn patched_matches_rebuild_for_every_target_and_op() {
        let (vocab, d) = doc("<a><b>x</b><b><c>y</c>z</b><d>x</d><b><e/>w</b></a>");
        let idx = ValueIndex::build(&d);
        let frag = Document::parse_str("<f><g>x</g>t</f>", &vocab).unwrap();
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
        let (vocab, d) = doc("<a><b>x</b></a>");
        let idx = ValueIndex::build(&d);
        let frag = Document::parse_str("<a><zz>x</zz></a>", &vocab).unwrap();
        let (nd, span) = smoqe_xml::replace_subtree(&d, d.root(), &frag).unwrap();
        assert!(span.parent.is_none(), "root replacement has no parent");
        assert_matches_document(&idx.patched(&nd, &span), &nd);
    }

    #[test]
    fn patched_handles_text_merge_spans() {
        // The PR 2 split-text drift case, now for value postings: deleting
        // `b` merges the surrounding texts into one node. The parent's
        // concatenated value is preserved but every positional invariant
        // shifts, and the swallowed text node sits inside the window.
        let (vocab, d) = doc("<a>x<b><c/></b>y<d/></a>");
        let idx = ValueIndex::build(&d);
        let a = vocab.lookup("a").unwrap();
        assert_eq!(idx.occurrences(a, "xy").len(), 1, "pre-edit concat");
        let b = d.nodes_labeled(vocab.lookup("b").unwrap()).next().unwrap();
        let (nd, span) = smoqe_xml::delete_subtree(&d, b).unwrap();
        assert_eq!(span.removed, 3, "subtree plus the merged text node");
        let patched = idx.patched(&nd, &span);
        assert_matches_document(&patched, &nd);
        assert_eq!(patched.occurrences(a, "xy").len(), 1, "post-edit concat");
    }

    #[test]
    fn patched_handles_text_only_replace() {
        // A replace that changes a node's text without changing structure:
        // the window covers the element and its text child, and the lists
        // must move the posting from the old value to the new one.
        let (vocab, d) = doc("<r><p>Ann</p><p>Bob</p></r>");
        let idx = ValueIndex::build(&d);
        let p = vocab.lookup("p").unwrap();
        let target = d.nodes_labeled(p).next().unwrap();
        let frag = Document::parse_str("<p>Amy</p>", &vocab).unwrap();
        let (nd, span) = smoqe_xml::replace_subtree(&d, target, &frag).unwrap();
        assert_eq!(span.removed, span.inserted, "structure preserved");
        let patched = idx.patched(&nd, &span);
        assert_matches_document(&patched, &nd);
        assert_eq!(patched.occurrences(p, "Ann"), &[] as &[u32]);
        assert_eq!(patched.occurrences(p, "Amy").len(), 1);
        assert_eq!(patched.occurrences(p, "Bob").len(), 1);
    }

    #[test]
    fn patched_chains_across_successive_edits() {
        let (vocab, d) = doc("<a><b>x</b><b>y</b><d>x</d></a>");
        let mut idx = ValueIndex::build(&d);
        let frag = Document::parse_str("<e>q</e>", &vocab).unwrap();
        let b_label = vocab.lookup("b").unwrap();
        let mut cur = d;
        for _ in 0..2 {
            let target = cur.nodes_labeled(b_label).last().unwrap();
            let (nd, span) = smoqe_xml::replace_subtree(&cur, target, &frag).unwrap();
            idx = idx.patched(&nd, &span);
            assert_matches_document(&idx, &nd);
            cur = nd;
        }
    }

    #[test]
    fn stats_and_memory_are_reported() {
        let (vocab, d) = doc("<a><b>x</b><b>x</b><b>y</b><c>x</c></a>");
        let idx = ValueIndex::build(&d);
        // b has 2 distinct values over 3 occurrences, c has 1 over 1.
        let stats = idx.label_stats();
        let b = vocab.lookup("b").unwrap().0;
        let c = vocab.lookup("c").unwrap().0;
        assert!(stats.contains(&(b, 2, 3)));
        assert!(stats.contains(&(c, 1, 1)));
        assert_eq!(idx.distinct_postings(), 3);
        assert_eq!(idx.total_occurrences(), 4);
        // Postings and list headers only: no per-node term.
        let header = std::mem::size_of::<((u32, u64), Vec<u32>)>();
        assert_eq!(idx.memory_bytes(), 4 * 4 + 3 * header);
    }

    #[test]
    fn gallop_intersect_matches_linear_merge() {
        let cases: &[(&[u32], &[u32])] = &[
            (&[], &[1, 2, 3]),
            (&[2], &[1, 2, 3]),
            (&[0, 4, 9], &[1, 2, 3]),
            (&[1, 3, 5, 7, 9], &[2, 3, 4, 7, 10, 11]),
            (&[5], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]),
        ];
        for (a, b) in cases {
            let want: Vec<u32> = a.iter().filter(|x| b.contains(x)).copied().collect();
            assert_eq!(gallop_intersect(a, b), want, "a={a:?} b={b:?}");
            assert_eq!(gallop_intersect(b, a), want, "swapped a={a:?} b={b:?}");
        }
    }
}
