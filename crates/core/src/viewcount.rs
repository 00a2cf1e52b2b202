//! View-side node counts, carried across writes without materializing.
//!
//! A group's [`crate::UpdateReport`] counts the document *as the group
//! sees it* — |V(T)| before and after each statement — because source-side
//! counts would reveal how many hidden nodes an edited subtree held.
//! Recounting V(T) per statement would cost a σ-walk of the whole
//! document, so each document entry keeps the counts of the groups that
//! have written to it as writer-side state (under its `write_serial`
//! lock): computed once per document lineage, then carried across every
//! accepted write, admin or group, by a **regional delta** — the view
//! image of the top-level source subtrees the write touched, before
//! against after. Why that is exact is stated on
//! [`smoqe_view::counts_are_regional`]. Where the delta is not exact (such
//! specs, root replacements) or not cheap (the write touched a large share
//! of the document), the writing group recounts its view and every other
//! group's count is dropped, to be taken again at that group's next write.

use smoqe_update::{InsertPos, Update, UpdateKind};
use smoqe_view::{counts_are_regional, region_node_count, view_node_count, ViewSpec};
use smoqe_xml::{DirtySet, Document, NodeId};
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// One group's count of the view over the document the counts describe.
#[derive(Clone)]
struct Counted {
    /// The view generation the count was taken under.
    generation: u64,
    spec: Arc<ViewSpec>,
    /// [`counts_are_regional`] of `spec`.
    regional: bool,
    nodes: usize,
}

/// The view node counts of one document, per group.
#[derive(Clone, Default)]
pub(crate) struct ViewCounts {
    /// The document the counts describe. Compared by identity only; a
    /// `Weak` keeps the allocation (so the address cannot be reused) but
    /// not the document.
    doc: Weak<Document>,
    groups: HashMap<String, Counted>,
}

impl ViewCounts {
    /// Keeps only the counts that still hold for `doc`: none when the
    /// document was replaced since they were taken (a reload starts a new
    /// lineage), and none for a group whose view was re-registered or
    /// removed (`generation_of` yields the current view generation).
    pub(crate) fn resume(
        &mut self,
        doc: &Arc<Document>,
        generation_of: impl Fn(&str) -> Option<u64>,
    ) {
        if !std::ptr::eq(self.doc.as_ptr(), Arc::as_ptr(doc)) {
            self.groups.clear();
            self.doc = Arc::downgrade(doc);
        }
        self.groups
            .retain(|group, counted| generation_of(group) == Some(counted.generation));
    }

    /// The count of `group`'s view over `doc` (the document these counts
    /// describe), taken with one σ-walk when this lineage has none yet.
    /// The caller has checked that the view is materializable over `doc`.
    pub(crate) fn count(
        &mut self,
        doc: &Document,
        group: &str,
        generation: u64,
        spec: &Arc<ViewSpec>,
    ) -> usize {
        if let Some(counted) = self.groups.get(group) {
            return counted.nodes;
        }
        let nodes = view_node_count(spec, doc).expect("the caller checked the view's root");
        self.groups.insert(
            group.to_string(),
            Counted {
                generation,
                spec: spec.clone(),
                regional: counts_are_regional(spec),
                nodes,
            },
        );
        nodes
    }

    /// The carried count of `group` (which [`ViewCounts::count`] took).
    pub(crate) fn get(&self, group: &str) -> usize {
        self.groups[group].nodes
    }

    /// Carries the counts across one applied statement: `update` at
    /// `targets` (ids of `before`) made `after`, writing `written` (the
    /// statement's [`DirtySet`]). `own` is the group the transaction runs
    /// for, whose next report needs its count now.
    ///
    /// A count is carried by the regional delta only where that is cheap:
    /// the spec's counts are regional, the root was not replaced, and the
    /// touched subtrees hold at most `1 / CARRY_SHARE` of the document.
    /// Otherwise `own` is recounted over `after` (the caller has checked
    /// that its view still materializes), and every other group loses its
    /// count, to be recounted by [`ViewCounts::count`] at that group's next
    /// write — so no write pays whole-document σ-walks for the groups it
    /// does not run for.
    pub(crate) fn advance(
        &mut self,
        before: &Document,
        after: &Document,
        update: &Update,
        targets: &[NodeId],
        written: &DirtySet,
        own: Option<&str>,
    ) {
        if self.groups.is_empty() {
            return;
        }
        let region =
            touched_subtrees(before, after, update, targets, written).filter(|(old, new)| {
                CARRY_SHARE * (extent(before, old) + extent(after, new)) <= after.node_count()
            });
        self.groups.retain(|group, counted| match &region {
            Some((old, new)) if counted.regional => {
                counted.nodes = counted.nodes - region_node_count(&counted.spec, before, old)
                    + region_node_count(&counted.spec, after, new);
                true
            }
            _ if own == Some(group.as_str()) => {
                counted.nodes =
                    view_node_count(&counted.spec, after).expect("the caller checked the view");
                true
            }
            _ => false,
        });
    }

    /// These counts, now describing `doc` (the installed result of the
    /// transaction that carried them).
    pub(crate) fn describing(mut self, doc: &Arc<Document>) -> Self {
        self.doc = Arc::downgrade(doc);
        self
    }
}

/// A regional carry is taken while the touched subtrees hold at most this
/// fraction (its inverse) of the document: a carry walks them twice, and a
/// dropped count costs one walk of the whole document, at the group's
/// next write.
const CARRY_SHARE: usize = 8;

/// The top-level subtrees (element children of the root) one statement
/// touched: those of `before` it removed or wrote into, and those of
/// `after` it inserted or wrote into. Every other top-level subtree is the
/// same in both documents. `None` when the root itself was replaced (a
/// target without a parent that was not inserted into).
///
/// An edit rewrites the child sequence of its splice parent only — the
/// target's parent, or the target for `insert into`. Below the root that
/// confines it to the parent's top-level subtree; at the root it removes
/// the target (delete, replace) and inserts the fragment as a new
/// top-level subtree. On the `after` side the statement's [`DirtySet`]
/// names the same places in the new ids: the splice parents and inserted
/// nodes that survived the statement's later edits.
fn touched_subtrees(
    before: &Document,
    after: &Document,
    update: &Update,
    targets: &[NodeId],
    written: &DirtySet,
) -> Option<(Vec<NodeId>, Vec<NodeId>)> {
    let into = matches!(
        update.kind,
        UpdateKind::Insert {
            pos: InsertPos::Into,
            ..
        }
    );
    let removes = matches!(update.kind, UpdateKind::Delete | UpdateKind::Replace { .. });
    let mut old = Vec::new();
    for &target in targets {
        let parent = if into { target } else { before.parent(target)? };
        if parent != before.root() {
            old.push(top_level(before, parent));
        } else if removes {
            old.push(target);
        }
    }
    old.sort_unstable();
    old.dedup();
    // Ids ascend, and a top-level subtree is one id range: a node inside
    // the last one found adds nothing.
    let mut new = Vec::new();
    let mut found_to = 0;
    for node in written.nodes() {
        if node == after.root() || node.0 < found_to {
            continue;
        }
        let top = top_level(after, node);
        if after.is_element(top) {
            found_to = subtree_end(after, top);
            new.push(top);
        }
    }
    Some((old, new))
}

/// The top-level ancestor-or-self of `node` (which is not the root).
fn top_level(doc: &Document, mut node: NodeId) -> NodeId {
    while let Some(parent) = doc.parent(node) {
        if parent == doc.root() {
            break;
        }
        node = parent;
    }
    node
}

/// The id just past the subtree of a top-level node: its next sibling's,
/// or the end of the document.
fn subtree_end(doc: &Document, top: NodeId) -> u32 {
    doc.next_sibling(top)
        .map_or(doc.node_count() as u32, |next| next.0)
}

/// How many nodes the top-level subtrees `tops` hold.
fn extent(doc: &Document, tops: &[NodeId]) -> usize {
    tops.iter()
        .map(|&top| (subtree_end(doc, top) - top.0) as usize)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::hospital;
    use smoqe_update::{apply_update, parse_update};
    use smoqe_view::{derive, AccessPolicy};
    use smoqe_xml::Vocabulary;

    /// Applies one statement as the engine does, carrying `counts` for a
    /// transaction of `own`.
    fn write(counts: &mut ViewCounts, doc: &Document, statement: &str, own: &str) -> Document {
        let update = parse_update(statement, doc.vocabulary()).unwrap();
        let targets = smoqe_rxpath::evaluate(doc, &update.target).into_vec();
        let (after, _, spans) = apply_update(doc, &update, &targets, None).unwrap();
        let mut written = DirtySet::default();
        spans.iter().for_each(|span| written.record(span));
        counts.advance(doc, &after, &update, &targets, &written, Some(own));
        after
    }

    #[test]
    fn narrow_writes_carry_every_count_and_wide_ones_only_the_writers() {
        let vocab = Vocabulary::new();
        let dtd = hospital::dtd(&vocab);
        let regional = Arc::new(derive(
            &AccessPolicy::parse(dtd.clone(), hospital::POLICY).unwrap(),
        ));
        // A root-level σ that qualifies the root: never regional.
        let qualified = Arc::new(
            ViewSpec::parse(
                "<!ELEMENT hospital (patient*)>\n<!ELEMENT patient EMPTY>\n\
                 sigma(hospital, patient) = .[patient/pname = 'Bob']/patient\n",
                &vocab,
            )
            .unwrap(),
        );
        qualified.validate(&dtd).unwrap();
        let specs = [("own", &regional), ("other", &regional), ("q", &qualified)];
        let doc = Arc::new(hospital::generate_document(&vocab, 3, 2_000));
        let mut counts = ViewCounts::default();
        counts.resume(&doc, |_| Some(1));
        for (group, spec) in specs {
            counts.count(&doc, group, 1, spec);
        }
        let truth = |group: &str, doc: &Document| {
            let spec = specs.iter().find(|(g, _)| *g == group).unwrap().1;
            view_node_count(spec, doc).unwrap()
        };
        let patient = "<patient><pname>Bob</pname><visit><treatment><medication>autism\
                       </medication></treatment><date>d</date></visit></patient>";

        // One new top-level patient: a narrow region, carried for every
        // regional count; the qualified one is dropped.
        let doc = write(
            &mut counts,
            &doc,
            &format!("insert {patient} into hospital"),
            "own",
        );
        assert_eq!(counts.get("own"), truth("own", &doc));
        assert_eq!(counts.get("other"), truth("other", &doc));
        assert!(!counts.groups.contains_key("q"));
        assert_eq!(counts.count(&doc, "q", 1, &qualified), truth("q", &doc));

        // Every top-level patient: the writer recounts, the rest drop.
        let doc = write(&mut counts, &doc, "delete hospital/patient", "own");
        assert_eq!(counts.get("own"), truth("own", &doc));
        assert_eq!(counts.groups.len(), 1);

        // A replaced root is no region at all.
        counts.count(&doc, "other", 1, &regional);
        let doc = write(
            &mut counts,
            &doc,
            &format!("replace hospital with <hospital>{patient}</hospital>"),
            "own",
        );
        assert_eq!(counts.get("own"), truth("own", &doc));
        assert_eq!(counts.groups.len(), 1);
        assert_eq!(
            counts.count(&doc, "other", 1, &regional),
            truth("other", &doc)
        );
    }
}
