//! The TAX (Type-Aware XML) index.
//!
//! Paper §3, "Indexer": *"The novelty of TAX is that it classifies the
//! information of descendants of each node based on their element types.
//! [...] TAX is effective in pruning large document subtrees during the
//! evaluation of XPath queries with or without '//', by keeping track of
//! descendants of certain types that have been and have not been checked
//! at each node."*
//!
//! For every node the index stores the **set of element labels occurring
//! strictly below it**. Real documents have very few distinct such sets
//! (every `pname` leaf shares the empty set, every `visit` shares
//! `{treatment, date, ...}`), so sets are **interned**: the per-node data
//! is one `u32` into a small set table. The evaluator intersects a state's
//! required labels with a subtree's available labels to decide pruning.

use crate::labelindex::LabelIndex;
use crate::remap::Remap;
use crate::valueindex::ValueIndex;
use smoqe_xml::{Document, EditSpan, LabelSet, NodeId, Vocabulary};
use std::collections::HashMap;

/// A type-aware index over one document.
#[derive(Clone, Debug)]
pub struct TaxIndex {
    /// Interned distinct descendant-label sets.
    pub(crate) sets: Vec<LabelSet>,
    /// Per node: index into `sets`.
    pub(crate) node_sets: Vec<u32>,
    /// Number of labels in the vocabulary when the index was built.
    pub(crate) num_labels: u32,
    /// Positional complement (per-label occurrence lists, subtree ends,
    /// levels) built in the same bottom-up pass. `None` only for indexes
    /// loaded from disk before [`TaxIndex::attach_label_index`] runs —
    /// the on-disk format predates it and positions are cheap to rebuild
    /// from the document.
    pub(crate) labels: Option<LabelIndex>,
    /// Text-value posting lists (per-(label, value) occurrence ids),
    /// built and maintained alongside [`TaxIndex::labels`] and absent in
    /// exactly the same loaded-from-disk window.
    pub(crate) values: Option<ValueIndex>,
}

impl TaxIndex {
    /// Builds the index — descendant-label sets plus the positional
    /// [`LabelIndex`] — over `doc`, each in one bottom-up pass.
    pub fn build(doc: &Document) -> TaxIndex {
        let num_labels = doc.vocabulary().len();
        let n = doc.node_count();
        let mut interner: HashMap<LabelSet, u32> = HashMap::new();
        let mut sets: Vec<LabelSet> = Vec::new();
        let empty = {
            let s = LabelSet::with_capacity(num_labels);
            interner.insert(s.clone(), 0);
            sets.push(s);
            0u32
        };
        let mut node_sets = vec![empty; n];
        // NodeIds are document order (pre-order), so descending order
        // visits children before parents.
        for raw in (0..n as u32).rev() {
            let node = NodeId(raw);
            if !doc.is_element(node) {
                continue; // text nodes keep the empty set
            }
            let mut acc = LabelSet::with_capacity(num_labels);
            let mut nonempty = false;
            for c in doc.children(node) {
                if let Some(l) = doc.label(c) {
                    acc.insert(l);
                    acc.union_with(&sets[node_sets[c.index()] as usize]);
                    nonempty = true;
                }
            }
            if !nonempty {
                continue; // leaf: empty set already assigned
            }
            let id = match interner.get(&acc) {
                Some(&id) => id,
                None => {
                    let id = sets.len() as u32;
                    interner.insert(acc.clone(), id);
                    sets.push(acc);
                    id
                }
            };
            node_sets[raw as usize] = id;
        }
        TaxIndex {
            sets,
            node_sets,
            num_labels: num_labels as u32,
            // One implementation of the positional construction (shared
            // with `attach_label_index` and the patched-root fallback);
            // its own descending sweep is cheap next to the set interning
            // above.
            labels: Some(LabelIndex::build(doc)),
            values: Some(ValueIndex::build(doc)),
        }
    }

    /// Incrementally maintains the index across one structural edit: the
    /// index over the **pre-edit** document plus the [`EditSpan`] an edit
    /// of `smoqe_xml::edit` reported yields the index over `new_doc`
    /// without a full rebuild. The one-window case of
    /// [`TaxIndex::patched_all`].
    pub fn patched(&self, new_doc: &Document, span: &EditSpan) -> TaxIndex {
        self.patched_all(new_doc, std::slice::from_ref(span))
    }

    /// Maintains the index across one statement's edit in one pass over
    /// each of its tables: `windows` are the disjoint windows the edit
    /// spliced, last first (`smoqe_xml::Edited::windows`).
    ///
    /// Node ids are pre-order positions, so the per-node set assignments
    /// of the kept segments between windows are reused verbatim (set ids
    /// do not move), sets for the windows' new nodes are computed
    /// bottom-up over just those nodes, and only the ancestors of the
    /// windows' parents are recomputed, each once (those are the only
    /// nodes outside the windows whose descendants changed). The label
    /// and value indexes splice the same way (see
    /// [`LabelIndex::patched`], [`ValueIndex::patched`]). Cost: a copy of
    /// the per-node arrays and of each occurrence and posting list, plus
    /// set work on the windows and the ancestors' children — instead of
    /// [`TaxIndex::build`]'s full bottom-up pass (the `update_scaling`
    /// experiment times it).
    pub fn patched_all(&self, new_doc: &Document, windows: &[EditSpan]) -> TaxIndex {
        let remap = Remap::new(new_doc, windows);
        debug_assert!(self.sets[0].is_empty(), "set 0 is the empty set");

        let mut sets = self.sets.clone();
        let num_labels = (self.num_labels as usize).max(new_doc.vocabulary().len());
        // Placeholder (empty set) for the windows; text nodes and leaf
        // elements keep it, matching `build`.
        let mut node_sets =
            remap.splice_table(&self.node_sets, new_doc.node_count(), 0, |out, kept, _| {
                out.extend_from_slice(kept)
            });

        // Dedup recomputed sets by linear scan: the set table is small by
        // design, and only window + ancestor nodes are recomputed, so a
        // scan beats re-hashing the whole table up front. One accumulator
        // serves every node (it is as long as any set, so it never grows).
        let mut acc = LabelSet::with_capacity(num_labels);
        let mut assign = |node_sets: &mut Vec<u32>, node: NodeId| {
            acc.clear();
            let mut nonempty = false;
            for c in new_doc.children(node) {
                if let Some(l) = new_doc.label(c) {
                    acc.insert(l);
                    acc.union_with(&sets[node_sets[c.index()] as usize]);
                    nonempty = true;
                }
            }
            node_sets[node.index()] = if !nonempty {
                0
            } else {
                match sets.iter().position(|s| *s == acc) {
                    Some(id) => id as u32,
                    None => {
                        sets.push(acc.clone());
                        (sets.len() - 1) as u32
                    }
                }
            };
        };

        // Each window's new nodes are whole subtrees: descending id order
        // visits children before parents.
        for fresh in remap.fresh() {
            for raw in fresh.rev() {
                let node = NodeId(raw);
                if new_doc.is_element(node) {
                    assign(&mut node_sets, node);
                }
            }
        }
        // The windows' ancestors, descending: each sees its children's
        // sets already corrected.
        for &a in &remap.ancestors {
            assign(&mut node_sets, NodeId(a));
        }

        TaxIndex {
            sets,
            node_sets,
            num_labels: num_labels as u32,
            labels: self.labels.as_ref().map(|li| li.spliced(new_doc, &remap)),
            values: self.values.as_ref().map(|vi| vi.spliced(new_doc, &remap)),
        }
    }

    /// The positional label index built alongside the descendant sets, if
    /// present (always for built/patched indexes; absent after
    /// [`TaxIndex::load`](crate::TaxIndex) until
    /// [`TaxIndex::attach_label_index`] reattaches it).
    #[inline]
    pub fn label_index(&self) -> Option<&LabelIndex> {
        self.labels.as_ref()
    }

    /// The text-value posting index built alongside the label index, under
    /// the same presence rules.
    #[inline]
    pub fn value_index(&self) -> Option<&ValueIndex> {
        self.values.as_ref()
    }

    /// (Re)builds the positional label index and the value posting index
    /// from `doc` — used after loading a persisted index, whose on-disk
    /// format carries only the descendant sets. No-op when the node
    /// counts disagree (the index does not describe `doc`).
    pub fn attach_label_index(&mut self, doc: &Document) {
        if doc.node_count() == self.node_count() {
            self.labels = Some(LabelIndex::build(doc));
            self.values = Some(ValueIndex::build(doc));
        }
    }

    /// The labels of elements occurring strictly below `node`.
    #[inline]
    pub fn descendant_labels(&self, node: NodeId) -> &LabelSet {
        &self.sets[self.node_sets[node.index()] as usize]
    }

    /// Whether some element labelled `label` occurs strictly below `node`.
    pub fn has_descendant(&self, node: NodeId, label: smoqe_xml::Label) -> bool {
        self.descendant_labels(node).contains(label)
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.node_sets.len()
    }

    /// Number of distinct descendant-type sets (the compression the index
    /// relies on; reported by experiment E5).
    pub fn distinct_sets(&self) -> usize {
        self.sets.len()
    }

    /// Approximate in-memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        let set_bytes: usize = self.sets.iter().map(|s| s.words().len() * 8).sum();
        set_bytes + self.node_sets.len() * 4
    }

    /// Number of labels the index was built against (consistency check for
    /// persistence).
    pub fn num_labels(&self) -> u32 {
        self.num_labels
    }

    /// Human-readable summary (used by the iSMOQE-substitute renderers).
    pub fn summary(&self, vocab: &Vocabulary) -> String {
        let mut out = format!(
            "TAX index: {} nodes, {} distinct type sets, ~{} bytes\n",
            self.node_count(),
            self.distinct_sets(),
            self.memory_bytes()
        );
        if let Some(li) = &self.labels {
            out.push_str(&format!(
                "label index: {} labels, ~{} bytes (occurrence lists + subtree ends + levels)\n",
                li.lists.len(),
                li.memory_bytes()
            ));
        }
        if let Some(vi) = &self.values {
            out.push_str(&format!(
                "value index: {} (label, value) posting lists, {} postings, ~{} bytes\n",
                vi.distinct_postings(),
                vi.total_occurrences(),
                vi.memory_bytes()
            ));
            for (label, distinct, occurrences) in vi.label_stats() {
                let li_total = self
                    .labels
                    .as_ref()
                    .map(|li| li.occurrences(smoqe_xml::Label(label)).len())
                    .unwrap_or(0);
                out.push_str(&format!(
                    "  {}: {} occurrences, {} distinct values over {} posted\n",
                    vocab.name(smoqe_xml::Label(label)),
                    li_total,
                    distinct,
                    occurrences
                ));
            }
        }
        for (i, s) in self.sets.iter().enumerate() {
            let names: Vec<String> = s.iter().map(|l| vocab.name(l).to_string()).collect();
            let count = self.node_sets.iter().filter(|&&x| x == i as u32).count();
            out.push_str(&format!(
                "  set {i} ({count} nodes): {{{}}}\n",
                names.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(xml: &str) -> (Vocabulary, Document) {
        let vocab = Vocabulary::new();
        let d = Document::parse_str(xml, &vocab).unwrap();
        (vocab, d)
    }

    #[test]
    fn leaf_sets_are_empty() {
        let (_, d) = doc("<a><b/><c>t</c></a>");
        let tax = TaxIndex::build(&d);
        for n in d.all_nodes() {
            if d.is_element(n) && d.child_elements(n).count() == 0 {
                assert!(tax.descendant_labels(n).is_empty());
            }
        }
    }

    #[test]
    fn root_set_covers_everything() {
        let (vocab, d) = doc("<a><b><c/></b><d/></a>");
        let tax = TaxIndex::build(&d);
        let root_set = tax.descendant_labels(d.root());
        for name in ["b", "c", "d"] {
            assert!(root_set.contains(vocab.lookup(name).unwrap()), "{name}");
        }
        assert!(!root_set.contains(vocab.lookup("a").unwrap()));
    }

    #[test]
    fn recursive_labels_included() {
        let (vocab, d) = doc("<a><b><a><c/></a></b></a>");
        let tax = TaxIndex::build(&d);
        // 'a' occurs below the root 'a'.
        assert!(tax.has_descendant(d.root(), vocab.lookup("a").unwrap()));
        assert!(tax.has_descendant(d.root(), vocab.lookup("c").unwrap()));
    }

    #[test]
    fn interning_collapses_identical_sets() {
        // Many identical leaf structures share one set.
        let xml = format!("<r>{}</r>", "<x><y/></x>".repeat(50));
        let (_, d) = doc(&xml);
        let tax = TaxIndex::build(&d);
        assert!(tax.distinct_sets() <= 4, "got {}", tax.distinct_sets());
        assert_eq!(tax.node_count(), d.node_count());
    }

    #[test]
    fn matches_brute_force() {
        let (vocab, d) = doc("<a><b><c><d/></c></b><b><e>t</e></b><c/></a>");
        let tax = TaxIndex::build(&d);
        for n in d.all_nodes() {
            let brute: LabelSet = d.descendants(n).filter_map(|x| d.label(x)).collect();
            assert_eq!(
                tax.descendant_labels(n).iter().collect::<Vec<_>>(),
                brute.iter().collect::<Vec<_>>(),
                "node {n:?}"
            );
        }
        let _ = vocab;
    }

    /// Asserts that `patched` assigns every node the same descendant-label
    /// set a from-scratch rebuild would.
    fn assert_patch_matches_rebuild(
        tax: &TaxIndex,
        new_doc: &Document,
        span: &smoqe_xml::EditSpan,
    ) {
        let patched = tax.patched(new_doc, span);
        let rebuilt = TaxIndex::build(new_doc);
        assert_eq!(patched.node_count(), rebuilt.node_count());
        for n in new_doc.all_nodes() {
            assert_eq!(
                patched.descendant_labels(n).iter().collect::<Vec<_>>(),
                rebuilt.descendant_labels(n).iter().collect::<Vec<_>>(),
                "node {n:?} diverged from rebuild"
            );
        }
    }

    #[test]
    fn patched_matches_rebuild_after_delete() {
        let (vocab, d) = doc("<a><b><c/><c/></b><d>x</d><b><e/></b></a>");
        let tax = TaxIndex::build(&d);
        let b = vocab.lookup("b").unwrap();
        for target in d.nodes_labeled(b).collect::<Vec<_>>() {
            let (nd, span) = smoqe_xml::delete_subtree(&d, target).unwrap();
            assert_patch_matches_rebuild(&tax, &nd, &span);
        }
    }

    #[test]
    fn patched_matches_rebuild_after_insert_and_replace() {
        let (vocab, d) = doc("<a><b><c/></b><d/></a>");
        let tax = TaxIndex::build(&d);
        let frag = Document::parse_str("<e><f/>t</e>", &vocab).unwrap();
        let b = d.nodes_labeled(vocab.lookup("b").unwrap()).next().unwrap();
        for place in [
            smoqe_xml::SplicePlace::Into,
            smoqe_xml::SplicePlace::Before,
            smoqe_xml::SplicePlace::After,
        ] {
            let (nd, span) = smoqe_xml::insert_fragment(&d, b, place, &frag).unwrap();
            assert_patch_matches_rebuild(&tax, &nd, &span);
        }
        let (nd, span) = smoqe_xml::replace_subtree(&d, b, &frag).unwrap();
        assert_patch_matches_rebuild(&tax, &nd, &span);
    }

    #[test]
    fn patched_handles_new_vocabulary_labels_and_root_replacement() {
        let (vocab, d) = doc("<a><b/></a>");
        let tax = TaxIndex::build(&d);
        // `zz` was not in the vocabulary when the index was built.
        let frag = Document::parse_str("<a><zz><b/></zz></a>", &vocab).unwrap();
        let (nd, span) = smoqe_xml::replace_subtree(&d, d.root(), &frag).unwrap();
        assert_patch_matches_rebuild(&tax, &nd, &span);
        let patched = tax.patched(&nd, &span);
        assert!(patched.has_descendant(nd.root(), vocab.lookup("zz").unwrap()));
        assert!(patched.num_labels() >= tax.num_labels());
    }

    #[test]
    fn patched_handles_text_merge_spans() {
        let (vocab, d) = doc("<a>x<b><c/></b>y<d/></a>");
        let tax = TaxIndex::build(&d);
        let b = d.nodes_labeled(vocab.lookup("b").unwrap()).next().unwrap();
        let (nd, span) = smoqe_xml::delete_subtree(&d, b).unwrap();
        assert_eq!(span.removed, 3, "subtree plus the merged text node");
        assert_patch_matches_rebuild(&tax, &nd, &span);
    }

    #[test]
    fn patched_chains_across_successive_edits() {
        let (vocab, d) = doc("<a><b><c/></b><b/><d/></a>");
        let mut tax = TaxIndex::build(&d);
        let frag = Document::parse_str("<e/>", &vocab).unwrap();
        let b_label = vocab.lookup("b").unwrap();
        let mut cur = d;
        for _ in 0..2 {
            let target = cur.nodes_labeled(b_label).last().unwrap();
            let (nd, span) = smoqe_xml::replace_subtree(&cur, target, &frag).unwrap();
            tax = tax.patched(&nd, &span);
            let rebuilt = TaxIndex::build(&nd);
            for n in nd.all_nodes() {
                assert_eq!(
                    tax.descendant_labels(n).iter().collect::<Vec<_>>(),
                    rebuilt.descendant_labels(n).iter().collect::<Vec<_>>()
                );
            }
            cur = nd;
        }
    }

    #[test]
    fn summary_mentions_counts() {
        let (vocab, d) = doc("<a><b/></a>");
        let tax = TaxIndex::build(&d);
        let s = tax.summary(&vocab);
        assert!(s.contains("distinct type sets"));
        assert!(s.contains("b"));
    }
}
