//! The secure update subsystem end to end: the update language, policy
//! enforcement through security views, incremental TAX maintenance, and
//! cache/generation hygiene.
//!
//! The property tests are the heart of the file:
//! * for random documents and random structural edits, the incrementally
//!   patched TAX index assigns every node the same descendant-type set as
//!   a from-scratch `TaxIndex::build` rebuild — and answers the same
//!   queries under TAX-pruned evaluation;
//! * random *accepted* engine updates leave the engine indistinguishable
//!   from a fresh engine that loaded the updated serialization and
//!   rebuilt everything.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smoqe::workloads::hospital;
use smoqe::{Engine, EngineError, User};
use smoqe_rxpath::evaluate;
use smoqe_tax::TaxIndex;
use smoqe_update::parse_update;
use smoqe_xml::{delete_subtree, insert_fragment, replace_subtree, SplicePlace};
use smoqe_xml::{Document, NodeId, Vocabulary};
use std::sync::Arc;

/// A random structural edit of `doc`: returns the new document and the
/// span, or `None` when the drawn edit is structurally impossible (e.g.
/// deleting the root).
fn random_edit(
    rng: &mut StdRng,
    vocab: &Vocabulary,
    doc: &Document,
) -> Option<(Document, smoqe_xml::EditSpan)> {
    let elements: Vec<NodeId> = doc.all_nodes().filter(|&n| doc.is_element(n)).collect();
    let target = elements[rng.random_range(0..elements.len())];
    let fragment_xml = match rng.random_range(0..3) {
        0 => "<visit><treatment><medication>autism</medication></treatment><date>d</date></visit>",
        1 => {
            "<patient><pname>Rnd</pname><visit><treatment><test>mri</test></treatment>\
              <date>d</date></visit></patient>"
        }
        _ => "<treatment><medication>flu</medication></treatment>",
    };
    let fragment = Document::parse_str(fragment_xml, vocab).unwrap();
    match rng.random_range(0..5) {
        0 => delete_subtree(doc, target).ok(),
        1 => replace_subtree(doc, target, &fragment).ok(),
        2 => insert_fragment(doc, target, SplicePlace::Into, &fragment).ok(),
        3 => insert_fragment(doc, target, SplicePlace::Before, &fragment).ok(),
        _ => insert_fragment(doc, target, SplicePlace::After, &fragment).ok(),
    }
}

/// Asserts that the TAX index's positional label index (occurrence
/// lists, subtree ends, levels) describes `doc` exactly — i.e. equals
/// what a from-scratch build would produce.
fn assert_label_index_matches(tax: &TaxIndex, doc: &Document) {
    let li = tax
        .label_index()
        .expect("built or patched indexes carry the label index");
    assert_eq!(li.node_count(), doc.node_count());
    for n in doc.all_nodes() {
        assert_eq!(
            li.subtree_end(n) as usize,
            n.index() + doc.subtree_size(n),
            "subtree_end of {n:?}"
        );
        assert_eq!(li.level(n) as usize, doc.depth(n), "level of {n:?}");
    }
    for raw in 0..doc.vocabulary().len() as u32 {
        let label = smoqe_xml::Label(raw);
        let want: Vec<u32> = doc.nodes_labeled(label).map(|n| n.0).collect();
        assert_eq!(
            li.occurrences(label),
            want.as_slice(),
            "occurrence list of label {raw}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Satellite: for random documents and random accepted edits, the
    /// incrementally patched index equals a from-scratch rebuild.
    #[test]
    fn patched_tax_equals_rebuild_on_random_edits(seed in 0u64..10_000) {
        let vocab = Vocabulary::new();
        hospital::dtd(&vocab);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut doc = hospital::generate_document(&vocab, seed, 300);
        if seed % 2 == 0 {
            // Parsed documents take the table-splice path, generated
            // (buffer-less) ones the re-emitting path.
            doc = Document::parse_str(&doc.to_xml(), &vocab).unwrap();
        }
        let mut tax = TaxIndex::build(&doc);
        // Chain a few edits so patches compose (patch of a patch).
        for _ in 0..3 {
            let Some((new_doc, span)) = random_edit(&mut rng, &vocab, &doc) else {
                continue;
            };
            tax = tax.patched(&new_doc, &span);
            let rebuilt = TaxIndex::build(&new_doc);
            prop_assert_eq!(tax.node_count(), rebuilt.node_count());
            for n in new_doc.all_nodes() {
                prop_assert_eq!(
                    tax.descendant_labels(n).iter().collect::<Vec<_>>(),
                    rebuilt.descendant_labels(n).iter().collect::<Vec<_>>(),
                    "node {:?} diverged after patch (seed {})", n, seed
                );
            }
            assert_label_index_matches(&tax, &new_doc);
            doc = new_doc;
        }
    }

    /// The patched index answers queries identically to a rebuilt one
    /// when driving TAX-pruned evaluation inside the engine.
    #[test]
    fn updated_engine_matches_fresh_engine_with_rebuilt_index(seed in 0u64..10_000) {
        let statements = [
            "insert <patient><pname>Zoe</pname><visit><treatment><medication>autism\
             </medication></treatment><date>d</date></visit></patient> into hospital",
            "delete hospital/patient[visit/treatment/test]",
            "replace //treatment[medication = 'flu'] with \
             <treatment><medication>headache</medication></treatment>",
            "insert <visit><treatment><test>blood</test></treatment><date>d2</date></visit> \
             after //patient[not(parent)]/visit",
        ];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let engine = Engine::with_defaults();
        let vocab = engine.vocabulary().clone();
        engine.load_dtd(hospital::DTD).unwrap();
        engine.load_document_tree(hospital::generate_document(&vocab, seed, 250)).unwrap();
        engine.build_tax_index().unwrap();

        let mut applied_any = false;
        for _ in 0..3 {
            let stmt = statements[rng.random_range(0..statements.len())];
            match engine.update(stmt) {
                Ok(report) => {
                    prop_assert!(report.tax_patched, "index must be maintained");
                    applied_any = true;
                }
                // Rejected updates (no target / schema) change nothing —
                // also part of the contract.
                Err(EngineError::Update(_)) => {}
                Err(other) => prop_assert!(false, "unexpected error: {}", other),
            }
        }

        // A fresh engine loads the updated serialization and rebuilds its
        // index from scratch; both engines must answer identically.
        let updated_xml = engine.document().unwrap().to_xml();
        let fresh = Engine::with_defaults();
        fresh.load_dtd(hospital::DTD).unwrap();
        fresh.load_document(&updated_xml).unwrap();
        fresh.build_tax_index().unwrap();
        fresh
            .register_policy(hospital::GROUP, hospital::POLICY)
            .unwrap();
        engine
            .register_policy(hospital::GROUP, hospital::POLICY)
            .unwrap();
        for (_, q) in hospital::DOC_QUERIES {
            let a = engine.session(User::Admin).query(q).unwrap();
            let b = fresh.session(User::Admin).query(q).unwrap();
            prop_assert_eq!(&a.nodes, &b.nodes, "admin `{}` diverged (seed {})", q, seed);
        }
        for (_, q) in hospital::VIEW_QUERIES {
            let a = engine.session(User::Group(hospital::GROUP.into())).query(q).unwrap();
            let b = fresh.session(User::Group(hospital::GROUP.into())).query(q).unwrap();
            prop_assert_eq!(&a.nodes, &b.nodes, "view `{}` diverged (seed {})", q, seed);
        }
        let _ = applied_any;
    }

    /// Satellite (differential test for the splice): over chains of random
    /// edits of a parsed document, the table-spliced result equals a fresh
    /// parse of its own buffer on every accessor, and its edit span equals
    /// the one the re-emitting path computes on a buffer-less twin.
    #[test]
    fn table_spliced_documents_equal_a_reparse_and_the_rebuilt_twin(seed in 0u64..10_000) {
        let vocab = Vocabulary::new();
        hospital::dtd(&vocab);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut twin = hospital::generate_document(&vocab, seed, 300);
        let mut doc = Document::parse_str(&twin.to_xml(), &vocab).unwrap();
        for step in 0..4 {
            let mut rng_twin = rng.clone();
            let (Some((new_doc, span)), Some((new_twin, span_twin))) = (
                random_edit(&mut rng, &vocab, &doc),
                random_edit(&mut rng_twin, &vocab, &twin),
            ) else {
                continue;
            };
            prop_assert_eq!(span, span_twin, "span diverged (seed {}, step {})", seed, step);
            prop_assert!(new_twin.raw_source().is_none());
            let buffer = new_doc.shared_buffer().expect("spliced documents keep a buffer");
            let reparsed = smoqe_xml::parse_buffer(buffer, &vocab).unwrap();
            prop_assert_eq!(new_doc.node_count(), reparsed.node_count());
            prop_assert_eq!(new_doc.to_xml(), new_twin.to_xml());
            for n in reparsed.all_nodes() {
                prop_assert_eq!(new_doc.kind(n), reparsed.kind(n), "kind of {:?}", n);
                prop_assert_eq!(new_doc.parent(n), reparsed.parent(n), "parent of {:?}", n);
                prop_assert_eq!(new_doc.first_child(n), reparsed.first_child(n));
                prop_assert_eq!(new_doc.next_sibling(n), reparsed.next_sibling(n));
                prop_assert_eq!(
                    new_doc.children(n).last(),
                    reparsed.children(n).last(),
                    "last child of {:?}", n
                );
                prop_assert_eq!(new_doc.node_extent(n), reparsed.node_extent(n));
                prop_assert_eq!(new_doc.text(n), reparsed.text(n));
                prop_assert_eq!(new_doc.subtree_size(n), reparsed.subtree_size(n));
                prop_assert_eq!(
                    new_doc.attributes(n).collect::<Vec<_>>(),
                    reparsed.attributes(n).collect::<Vec<_>>()
                );
            }
            doc = new_doc;
            twin = new_twin;
        }
    }

    /// Group updates only ever touch nodes the security view exposes, and
    /// denials never mutate anything.
    #[test]
    fn group_updates_stay_inside_the_view(seed in 0u64..10_000) {
        let engine = Engine::with_defaults();
        let vocab = engine.vocabulary().clone();
        engine.load_dtd(hospital::DTD).unwrap();
        engine.load_document_tree(hospital::generate_document(&vocab, seed, 200)).unwrap();
        engine
            .register_policy(hospital::GROUP, hospital::POLICY)
            .unwrap();
        let doc_before = engine.document().unwrap();
        let spec = engine.view(hospital::GROUP).unwrap();
        let accessible = smoqe_view::accessible_nodes(&spec, &doc_before).unwrap();

        let session = engine.session(User::Group(hospital::GROUP.into()));
        // Replacing a medication by a medication is always DTD-valid, so
        // acceptance depends on accessibility alone.
        let stmt = "replace hospital/patient/treatment/medication \
                    with <medication>autism</medication>";
        let update = parse_update(stmt, &vocab).unwrap();
        // The targets the engine will pick are exactly the accessible
        // medications selected through the view.
        let view = smoqe_view::materialize(&spec, &doc_before).unwrap();
        let view_hits = evaluate(&view.doc, &update.target);
        let expected = view.origins_of(view_hits.iter());
        for &t in &expected {
            prop_assert!(accessible.binary_search(&t).is_ok());
        }
        match session.update(stmt) {
            Ok(report) => {
                prop_assert_eq!(report.applied, expected.len());
                // Group reports count the document AS THE VIEW SEES IT —
                // source-side counts would leak hidden structure.
                prop_assert_eq!(report.nodes_before, view.doc.node_count());
                prop_assert!(report.nodes_before <= doc_before.node_count());
                // A medication swaps for a medication: size is stable.
                prop_assert_eq!(report.nodes_after, report.nodes_before);
            }
            Err(EngineError::UpdateDenied) => {
                prop_assert!(expected.is_empty(), "deny only when nothing accessible matches");
                prop_assert_eq!(
                    engine.document().unwrap().to_xml(),
                    doc_before.to_xml(),
                    "denied updates must not mutate"
                );
            }
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
        }
    }
}

/// Regression (bugfix satellite): edits splicing at the very tail of the
/// id space — the last sibling of the root's final child — recompute
/// ancestors from the splice point only, which must keep the root-level
/// `subtree_end` / label-set maintenance of the positional index
/// consistent under `update_batch`; and a span touching the root itself
/// (root replacement) must fall back to a full positional rebuild.
#[test]
fn tail_and_root_spanning_updates_keep_the_label_index_consistent() {
    let engine = Engine::with_defaults();
    engine.load_dtd(hospital::DTD).unwrap();
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    engine.build_tax_index().unwrap();
    let doc = engine.document_handle(smoqe::DEFAULT_DOCUMENT).unwrap();

    let check = |stage: &str| {
        let tax = engine.tax_index().expect("index survives updates");
        let current = engine.document().unwrap();
        let rebuilt = TaxIndex::build(&current);
        assert_eq!(tax.node_count(), rebuilt.node_count(), "{stage}");
        for n in current.all_nodes() {
            assert_eq!(
                tax.descendant_labels(n).iter().collect::<Vec<_>>(),
                rebuilt.descendant_labels(n).iter().collect::<Vec<_>>(),
                "{stage}: node {n:?}"
            );
        }
        assert_label_index_matches(&tax, &current);
    };

    // Cal is the root's final child; the edits below all splice at (or
    // after) the last ids of the document.
    let reports = doc
        .update_batch(&[
            // Append after the final child's last visit (the last sibling
            // inside the root's final child).
            "insert <visit><treatment><test>mri</test></treatment><date>d1</date></visit> \
             after hospital/patient[pname = 'Cal']/visit[date = '2006-05-02']",
            // Append a whole new final child of the root.
            "insert <patient><pname>Tail</pname><visit><treatment><test>xray</test>\
             </treatment><date>d2</date></visit></patient> \
             after hospital/patient[pname = 'Cal']",
            // And take it away again (delete spanning the document tail).
            "delete hospital/patient[pname = 'Tail']",
        ])
        .unwrap();
    assert!(
        reports.iter().all(|r| r.tax_patched),
        "patched, not rebuilt"
    );
    check("tail splices");

    // Root replacement: span.parent is None, the positional index must
    // rebuild rather than splice — and still end up exact.
    doc.update(
        "replace hospital with <hospital><patient><pname>Solo</pname>\
         <visit><treatment><test>blood</test></treatment><date>d3</date></visit>\
         </patient></hospital>",
    )
    .unwrap();
    check("root replacement");
    assert_eq!(
        engine
            .session(User::Admin)
            .query("//patient")
            .unwrap()
            .len(),
        1
    );
}

#[test]
fn group_update_reports_count_the_view_not_the_source() {
    // Regression (information leak): deleting a visible node whose source
    // subtree contains hidden descendants must report VIEW-side node
    // counts — source-side counts would reveal how many hidden nodes the
    // subtree held.
    let engine = Engine::with_defaults();
    let doc = engine.open_document("h");
    hospital::install_sample(&doc).unwrap();
    let source_before = doc.document().unwrap();
    let spec = doc.view(hospital::GROUP).unwrap();
    let view_before = smoqe_view::materialize(&spec, &source_before).unwrap();

    let session = doc.session(User::Group(hospital::GROUP.into()));
    // Every view-visible patient goes away; their source subtrees are much
    // larger than their view images (pname/visit/date are hidden).
    let report = session.update("delete hospital/patient").unwrap();
    let source_after = doc.document().unwrap();
    let view_after = smoqe_view::materialize(&spec, &source_after).unwrap();

    assert_eq!(report.nodes_before, view_before.doc.node_count());
    assert_eq!(report.nodes_after, view_after.doc.node_count());
    let view_delta = report.nodes_before - report.nodes_after;
    let source_delta = source_before.node_count() - source_after.node_count();
    assert!(
        view_delta < source_delta,
        "the report must not expose the {source_delta}-node source delta \
         (view delta: {view_delta})"
    );
}

#[test]
fn group_update_that_breaks_the_view_is_opaquely_denied() {
    // The visible root is a legal target, but replacing it with a foreign
    // element makes the security view unmaterializable. A group session
    // must get the opaque denial (not a typed view/schema error that
    // could describe structure), and nothing may be installed.
    let engine = Engine::with_defaults();
    let doc = engine.open_document("h");
    hospital::install_sample(&doc).unwrap();
    let before = doc.document().unwrap().to_xml();
    let session = doc.session(User::Group(hospital::GROUP.into()));
    let err = session
        .update("replace hospital with <clinic/>")
        .unwrap_err();
    assert!(matches!(err, EngineError::UpdateDenied), "got {err}");
    assert_eq!(doc.document().unwrap().to_xml(), before);
}

#[test]
fn update_language_round_trips_through_the_engine() {
    let engine = Engine::with_defaults();
    engine.load_dtd(hospital::DTD).unwrap();
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    let admin = engine.session(User::Admin);

    // insert into / before / after, delete, replace — every primitive.
    engine
        .update(
            "insert <patient><pname>Neu</pname><visit><treatment><test>blood</test>\
             </treatment><date>d</date></visit></patient> into hospital",
        )
        .unwrap();
    engine
        .update(
            "insert <visit><treatment><medication>flu</medication></treatment><date>d2</date>\
             </visit> before hospital/patient[pname = 'Neu']/visit",
        )
        .unwrap();
    engine
        .update(
            "insert <visit><treatment><test>mri</test></treatment><date>d3</date>\
             </visit> after hospital/patient[pname = 'Neu']/visit[treatment/test = 'blood']",
        )
        .unwrap();
    assert_eq!(
        admin
            .query("hospital/patient[pname = 'Neu']/visit")
            .unwrap()
            .len(),
        3
    );
    // The inserted visits are ordered: flu, blood, mri.
    let xml = admin
        .query_xml("hospital/patient[pname = 'Neu']")
        .unwrap()
        .pop()
        .unwrap();
    let (flu, blood, mri) = (
        xml.find("flu").unwrap(),
        xml.find("blood").unwrap(),
        xml.find("mri").unwrap(),
    );
    assert!(flu < blood && blood < mri, "sibling order preserved: {xml}");

    engine
        .update("replace hospital/patient[pname = 'Neu']/pname with <pname>Alt</pname>")
        .unwrap();
    engine
        .update("delete hospital/patient[pname = 'Alt']")
        .unwrap();
    assert!(admin.query("//patient[pname = 'Alt']").unwrap().is_empty());
    assert!(admin.query("//patient[pname = 'Neu']").unwrap().is_empty());
}

#[test]
fn denied_and_accepted_updates_manage_generations_precisely() {
    let engine = Engine::with_defaults();
    let doc = engine.open_document("h");
    hospital::install_sample(&doc).unwrap();
    let session = doc.session(User::Group(hospital::GROUP.into()));
    let admin = doc.session(User::Admin);

    admin.query("//medication").unwrap();
    assert!(admin.query("//medication").unwrap().plan_cached);

    // A denied update must not bump the generation or drop plans.
    assert!(matches!(
        session.update("delete //pname"),
        Err(EngineError::UpdateDenied)
    ));
    assert!(
        admin.query("//medication").unwrap().plan_cached,
        "denied update must not invalidate plans"
    );

    // An accepted one invalidates this document's plans...
    session
        .update(
            "replace hospital/patient/treatment/medication with <medication>autism</medication>",
        )
        .unwrap();
    assert!(!admin.query("//medication").unwrap().plan_cached);
}

#[test]
fn view_paths_and_source_paths_are_different_worlds() {
    // The researchers' view hides `visit`: the *view* path
    // patient/treatment works, while the *source* path
    // patient/visit/treatment selects nothing for the group (visit is not
    // a view type) and is therefore denied.
    let engine = Engine::with_defaults();
    let doc = engine.open_document("h");
    hospital::install_sample(&doc).unwrap();
    let session = doc.session(User::Group(hospital::GROUP.into()));
    assert!(session
        .update(
            "replace hospital/patient/treatment/medication with <medication>autism</medication>"
        )
        .is_ok());
    assert!(matches!(
        session.update(
            "replace hospital/patient/visit/treatment/medication with <medication>autism</medication>"
        ),
        Err(EngineError::UpdateDenied)
    ));
}

/// A violation the loaded document already carries, in a subtree of its
/// own: `Bob` has no `pname`.
const DOCUMENT_WITH_A_NAMELESS_PATIENT: &str = "<hospital>\
    <patient><pname>Ann</pname>\
      <visit><treatment><test>blood</test></treatment><date>d1</date></visit></patient>\
    <patient>\
      <visit><treatment><medication>autism</medication></treatment><date>d2</date></visit></patient>\
    </hospital>";

/// Regression (bugfix satellite): neither `load_dtd` after a document nor
/// `load_document_tree` validates, so conformance must not be *assumed*
/// by the incremental check. A document that violates a later-loaded DTD
/// in subtree A rejects an update touching only subtree B exactly as a
/// whole-document validation would — typed for the admin, opaque for a
/// group and byte-identical to the hidden-target denial — until a fixing
/// update passes the whole-document pass; from then on updates validate
/// only what they wrote.
#[test]
fn conformance_is_never_assumed_only_remembered() {
    let ann_visit = "insert <visit><treatment><test>mri</test></treatment><date>d3</date></visit> \
                     after hospital/patient[pname = 'Ann']/pname";
    for via_tree in [false, true] {
        let engine = Engine::with_defaults();
        let doc = engine.open_document("h");
        if via_tree {
            // Trees are installed as given, even under a DTD they break.
            doc.load_dtd(hospital::DTD).unwrap();
            let tree =
                Document::parse_str(DOCUMENT_WITH_A_NAMELESS_PATIENT, engine.vocabulary()).unwrap();
            doc.load_document_tree(tree).unwrap();
        } else {
            doc.load_document(DOCUMENT_WITH_A_NAMELESS_PATIENT).unwrap();
            doc.load_dtd(hospital::DTD).unwrap();
        }
        doc.register_policy(hospital::GROUP, hospital::POLICY)
            .unwrap();
        let before = doc.document().unwrap();
        let generation = doc.generation();

        // Admin: the typed schema error of the *untouched* subtree.
        let err = doc.update(ann_visit).unwrap_err();
        let whole = doc.dtd().unwrap().validate(&before).unwrap_err();
        match &err {
            EngineError::Update(smoqe_update::UpdateError::Schema(e)) => {
                assert_eq!(e.to_string(), whole.to_string());
            }
            other => panic!("expected the schema error, got {other}"),
        }
        // Group: the same opaque denial as a hidden or absent target.
        let group = doc.session(User::Group(hospital::GROUP.into()));
        let valid_elsewhere = group
            .update(
                "replace hospital/patient/treatment[medication = 'autism'] with \
                 <treatment><medication>autism</medication></treatment>",
            )
            .unwrap_err();
        let hidden = group.update("delete //pname").unwrap_err();
        let absent = group.update("delete //nothing").unwrap_err();
        assert!(matches!(valid_elsewhere, EngineError::UpdateDenied));
        assert_eq!(valid_elsewhere.to_string(), hidden.to_string());
        assert_eq!(valid_elsewhere.to_string(), absent.to_string());
        assert!(Arc::ptr_eq(&before, &doc.document().unwrap()));
        assert_eq!(doc.generation(), generation);

        // The fixing update pays for the whole document and marks it ...
        let elements = before.element_count();
        let fixed = doc
            .update("insert <pname>Bob</pname> before hospital/patient[not(pname)]/visit")
            .unwrap();
        assert_eq!(fixed.validated_nodes, elements + 1, "whole-document pass");
        // ... and the next one checks its parent and its four elements.
        let report = doc.update(ann_visit).unwrap();
        assert_eq!(report.validated_nodes, 5, "incremental from here on");

        // Replacing the DTD clears the mark again, whatever the DTD says.
        doc.load_dtd(hospital::DTD).unwrap();
        let report = doc.update(ann_visit).unwrap();
        assert_eq!(report.validated_nodes, elements + 1 + 4 + 4);
        assert_eq!(doc.update(ann_visit).unwrap().validated_nodes, 5);
    }
}

/// Only the final state of a transaction is judged: an intermediate state
/// may break the schema as long as a later statement mends it — and a
/// dirty node that a later statement deletes is not judged at all.
#[test]
fn a_transaction_may_pass_through_invalid_states() {
    let engine = Engine::with_defaults();
    engine.load_dtd(hospital::DTD).unwrap();
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    engine.build_tax_index().unwrap();
    let doc = engine.document_handle(smoqe::DEFAULT_DOCUMENT).unwrap();

    // Bob loses his name, then gets another one.
    let reports = doc
        .update_batch(&[
            "delete hospital/patient[visit/date = '2006-03-14']/pname",
            "insert <pname>Rob</pname> before hospital/patient[not(pname)]/visit",
        ])
        .unwrap();
    assert_eq!(reports.len(), 2);
    // Two splice parents (the same patient twice, checked once) plus the
    // inserted pname.
    assert_eq!(reports[1].validated_nodes, 2);
    assert_eq!(
        engine
            .session(User::Admin)
            .query("//patient[pname = 'Rob']")
            .unwrap()
            .len(),
        1
    );

    // An undeclared element goes in and out again within one transaction.
    let reports = doc
        .update_batch(&[
            "insert <intruder><x/></intruder> into hospital",
            "delete hospital/intruder",
        ])
        .unwrap();
    assert_eq!(reports[0].validated_nodes, 1, "only the root is left dirty");

    // Left in, the first offender in document order is reported — the
    // root's child sequence, before the undeclared element itself.
    let err = doc
        .update_batch(&["insert <intruder><x/></intruder> into hospital"])
        .unwrap_err();
    assert!(err.to_string().contains("children of <hospital>"), "{err}");
    engine
        .dtd()
        .unwrap()
        .validate(&engine.document().unwrap())
        .expect("the installed document conforms");
}

/// The cost of validating an update follows the update: on a 100 000-node
/// document every transaction checks at most the elements it inserted
/// plus one splice parent per applied target.
#[test]
fn validation_work_is_bounded_by_the_edit_on_a_100k_node_document() {
    let engine = Engine::with_defaults();
    let xml = hospital::generate_document(engine.vocabulary(), 11, 100_000).to_xml();
    engine.load_dtd(hospital::DTD).unwrap();
    engine.load_document(&xml).unwrap();
    engine.build_tax_index().unwrap();
    let doc = engine.document_handle(smoqe::DEFAULT_DOCUMENT).unwrap();
    let elements_of = |fragment: &str| fragment.matches("</").count();

    let visit = "<visit><treatment><test>mri</test></treatment><date>d</date></visit>";
    let transactions: [&[String]; 3] = [
        // One target.
        &[format!(
            "insert <patient><pname>Solo</pname>{visit}</patient> into hospital"
        )],
        // Many targets, one statement.
        &[format!("insert {visit} after hospital/patient/pname")],
        // Several statements, several targets each.
        &[
            format!("insert {visit} after hospital/patient[pname = 'Solo']/pname"),
            "replace hospital/patient[pname = 'Solo']/visit/treatment with \
             <treatment><medication>autism</medication></treatment>"
                .to_string(),
            "delete hospital/patient[pname = 'Solo']/visit".to_string(),
        ],
    ];
    for statements in transactions {
        let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
        let reports = doc.update_batch(&refs).unwrap();
        let mut bound = 0;
        for (statement, report) in statements.iter().zip(&reports) {
            bound += report.applied * (1 + elements_of(statement));
        }
        let validated = reports[0].validated_nodes;
        assert!(
            validated <= bound,
            "{validated} elements validated, the edit bounds it by {bound}"
        );
        assert!(validated > 0 && validated < 20_000, "{validated}");
    }
}
