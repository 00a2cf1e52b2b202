//! Applying an update to a document, maintaining the TAX index as it
//! goes.

use crate::ast::{InsertPos, Update, UpdateKind};
use crate::error::UpdateError;
use smoqe_tax::TaxIndex;
use smoqe_xml::{edit_targets, Document, Edit, EditSpan, Edited, NodeId, SplicePlace};

/// Applies `update` at every node of `targets` (which must be sorted
/// ascending in document order and belong to `doc`), producing the new
/// document and, when an index is supplied, an **incrementally patched**
/// TAX index over it. Also returns the [`EditSpan`] of every target, last
/// target first — what a caller needs to re-validate only what the update
/// wrote (see `smoqe_xml::DirtySet`).
///
/// The result is that of applying the update target by target, last to
/// first: every edit changes one contiguous pre-order id window, so ids
/// *before* the window — including every not-yet-processed target — stay
/// valid across it. A target that contains another (nested selection) is
/// edited after its descendant, which matches "apply the operation at
/// every selected node" semantics: a delete or replace of the outer
/// target drops whatever the inner edit wrote, and inserts land at both.
/// The statement costs **one** splice of the document's tables and one
/// patch of the index, whatever the number of targets
/// (`smoqe_xml::edit_targets`, `TaxIndex::patched_all`): nested targets
/// fold into the outer window, and the spans are those the
/// target-at-a-time fold reports.
///
/// Nothing here checks policy or schema conformance; callers resolve and
/// authorize `targets` and validate the result. The function is
/// all-or-nothing by construction: the input document is never mutated.
pub fn apply_update(
    doc: &Document,
    update: &Update,
    targets: &[NodeId],
    tax: Option<&TaxIndex>,
) -> Result<(Document, Option<TaxIndex>, Vec<EditSpan>), UpdateError> {
    if targets.is_empty() {
        return Err(UpdateError::NoTarget);
    }
    let edit = match &update.kind {
        UpdateKind::Delete => Edit::Delete,
        UpdateKind::Replace { fragment } => Edit::Replace(fragment),
        UpdateKind::Insert { fragment, pos } => Edit::Insert(place(*pos), fragment),
    };
    let Edited {
        doc: new_doc,
        spans,
        windows,
    } = edit_targets(doc, targets, edit)?;
    let new_tax = tax.map(|t| t.patched_all(&new_doc, &windows));
    Ok((new_doc, new_tax, spans))
}

fn place(pos: InsertPos) -> SplicePlace {
    match pos {
        InsertPos::Into => SplicePlace::Into,
        InsertPos::Before => SplicePlace::Before,
        InsertPos::After => SplicePlace::After,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_update;
    use smoqe_rxpath::evaluate;
    use smoqe_xml::Vocabulary;

    fn setup(xml: &str) -> (Vocabulary, Document) {
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(xml, &vocab).unwrap();
        (vocab, doc)
    }

    fn run(doc: &Document, vocab: &Vocabulary, stmt: &str) -> (Document, Option<TaxIndex>, usize) {
        let update = parse_update(stmt, vocab).unwrap();
        let targets = evaluate(doc, &update.target).into_vec();
        let tax = TaxIndex::build(doc);
        let (doc, tax, spans) = apply_update(doc, &update, &targets, Some(&tax)).unwrap();
        (doc, tax, spans.len())
    }

    #[test]
    fn multi_target_delete_removes_every_match() {
        let (vocab, doc) = setup("<a><b/><c><b/><b/></c><d/></a>");
        let (nd, tax, applied) = run(&doc, &vocab, "delete //b");
        assert_eq!(applied, 3);
        assert_eq!(nd.to_xml(), "<a><c/><d/></a>");
        // The chained incremental patches equal a rebuild.
        let rebuilt = TaxIndex::build(&nd);
        let tax = tax.unwrap();
        for n in nd.all_nodes() {
            assert_eq!(
                tax.descendant_labels(n).iter().collect::<Vec<_>>(),
                rebuilt.descendant_labels(n).iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn multi_target_insert_hits_every_match() {
        let (vocab, doc) = setup("<a><b/><b/></a>");
        let (nd, _, applied) = run(&doc, &vocab, "insert <x>t</x> into a/b");
        assert_eq!(applied, 2);
        assert_eq!(nd.to_xml(), "<a><b><x>t</x></b><b><x>t</x></b></a>");
    }

    #[test]
    fn nested_targets_apply_innermost_first() {
        let (vocab, doc) = setup("<a><b><b/></b></a>");
        // Replacing every `b` (outer contains inner): the inner replace
        // happens first, then the outer replace supersedes it.
        let (nd, _, applied) = run(&doc, &vocab, "replace //b with <z/>");
        assert_eq!(applied, 2);
        assert_eq!(nd.to_xml(), "<a><z/></a>");
    }

    #[test]
    fn qualified_targets_select_precisely() {
        let (vocab, doc) = setup("<a><b><k/></b><b/></a>");
        let (nd, _, applied) = run(&doc, &vocab, "delete a/b[not(k)]");
        assert_eq!(applied, 1);
        assert_eq!(nd.to_xml(), "<a><b><k/></b></a>");
    }

    #[test]
    fn empty_target_set_is_an_error() {
        let (vocab, doc) = setup("<a/>");
        let update = parse_update("delete //zzz", &vocab).unwrap();
        let targets = evaluate(&doc, &update.target).into_vec();
        assert!(matches!(
            apply_update(&doc, &update, &targets, None),
            Err(UpdateError::NoTarget)
        ));
    }

    #[test]
    fn structural_violations_surface_as_edit_errors() {
        let (vocab, doc) = setup("<a><b/></a>");
        let update = parse_update("delete a", &vocab).unwrap();
        let targets = evaluate(&doc, &update.target).into_vec();
        assert!(matches!(
            apply_update(&doc, &update, &targets, None),
            Err(UpdateError::Edit(smoqe_xml::EditError::RootRemoval))
        ));
    }

    #[test]
    fn source_document_is_never_mutated() {
        let (vocab, doc) = setup("<a><b/></a>");
        let before = doc.to_xml();
        let _ = run(&doc, &vocab, "delete //b");
        assert_eq!(doc.to_xml(), before);
    }
}
