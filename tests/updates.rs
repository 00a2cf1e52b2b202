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
use smoqe_xml::serialize::escape_text;
use smoqe_xml::testing::{assert_same_document, assert_span_contract};
use smoqe_xml::{delete_subtree, insert_fragment, replace_subtree, Edit, SplicePlace};
use smoqe_xml::{Document, NodeId, Vocabulary};
use std::sync::Arc;

/// A random structural edit of `doc`: returns the new document, the span
/// and the fragment written (`None` for a delete), or `None` when the
/// drawn edit is structurally impossible (e.g. deleting the root).
fn random_edit(
    rng: &mut StdRng,
    vocab: &Vocabulary,
    doc: &Document,
) -> Option<(Document, smoqe_xml::EditSpan, Option<Document>)> {
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
    let edited = match rng.random_range(0..5) {
        0 => return delete_subtree(doc, target).ok().map(|(d, s)| (d, s, None)),
        1 => replace_subtree(doc, target, &fragment),
        2 => insert_fragment(doc, target, SplicePlace::Into, &fragment),
        3 => insert_fragment(doc, target, SplicePlace::Before, &fragment),
        _ => insert_fragment(doc, target, SplicePlace::After, &fragment),
    };
    edited.ok().map(|(d, s)| (d, s, Some(fragment)))
}

/// `doc`'s serialization with noise a parse skips or decodes: a prolog,
/// comments, processing instructions and whitespace between elements,
/// spaced and self-closing tags, and text split by comments, wrapped in
/// CDATA or spelled with character references.
fn noisy_xml(doc: &Document, seed: u64) -> String {
    fn node(doc: &Document, n: NodeId, rng: &mut StdRng, out: &mut String) {
        if let Some(text) = doc.text(n) {
            let split = text.char_indices().nth(1).map_or(text.len(), |(i, _)| i);
            let (head, tail) = text.split_at(split);
            let escaped = |t: &str| {
                let mut s = String::new();
                escape_text(t, &mut s);
                s
            };
            match rng.random_range(0..4) {
                0 => out.push_str(&format!("<![CDATA[{text}]]>")),
                1 => {
                    let first = head.chars().next().unwrap() as u32;
                    out.push_str(&format!("&#x{first:x};{}", escaped(tail)));
                }
                2 => out.push_str(&format!("{}<!-- split -->{}", escaped(head), escaped(tail))),
                _ => out.push_str(&escaped(text)),
            }
            return;
        }
        let name = doc.name(n).unwrap();
        out.push('<');
        out.push_str(name);
        if doc.first_child(n).is_none() && rng.random_bool(0.5) {
            out.push_str(if rng.random_bool(0.5) { "/>" } else { " />" });
            return;
        }
        out.push('>');
        // Hospital text sits alone in leaf elements, so gaps between
        // element children never touch text.
        let gaps = doc.child_elements(n).count() == doc.children(n).count();
        for child in doc.children(n) {
            if gaps {
                out.push_str(
                    ["", "\n  ", "<!-- gap -->", "<?pi data?>"][rng.random_range(0..4usize)],
                );
            }
            node(doc, child, rng, out);
        }
        out.push_str("</");
        out.push_str(name);
        out.push_str(if rng.random_bool(0.8) { ">" } else { " >" });
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x015e);
    let mut out = String::from("<?xml version=\"1.0\"?>\n<!-- prolog -->\n");
    node(doc, doc.root(), &mut rng, &mut out);
    out.push_str("\n<!-- epilog -->\n");
    out
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

fn random_statement<'f>(rng: &mut StdRng, fragment: &'f Document) -> Edit<'f> {
    match rng.random_range(0..5) {
        0 => Edit::Delete,
        1 => Edit::Replace(fragment),
        2 => Edit::Insert(SplicePlace::Into, fragment),
        3 => Edit::Insert(SplicePlace::Before, fragment),
        _ => Edit::Insert(SplicePlace::After, fragment),
    }
}

/// Random mixed content: elements `a`–`d` nested in one another, text
/// (plain, with entities, in CDATA) between siblings, comments, PIs,
/// whitespace gaps and attributes.
fn mixed_markup(rng: &mut StdRng) -> String {
    fn element(rng: &mut StdRng, depth: u32, out: &mut String) {
        let name = ["a", "b", "c", "d"][rng.random_range(0..4usize)];
        out.push('<');
        out.push_str(name);
        for attr in [" k=\"v\"", " q='x &amp; y'"] {
            if rng.random_bool(0.2) {
                out.push_str(attr);
            }
        }
        if depth == 0 || rng.random_bool(0.2) {
            out.push_str(if rng.random_bool(0.5) { "/>" } else { " />" });
            return;
        }
        out.push('>');
        for _ in 0..rng.random_range(0..8u32) {
            match rng.random_range(0..10u32) {
                0 | 1 => out.push_str("text"),
                2 => out.push_str("x &amp; y"),
                3 => out.push_str("<![CDATA[ raw <&> ]]>"),
                4 => out.push_str("<!-- note -->"),
                5 => out.push_str("<?pi data?>"),
                6 => out.push_str("\n  "),
                _ => {
                    element(rng, depth - 1, out);
                    if rng.random_bool(0.5) {
                        out.push_str(["tail", "<![CDATA[t]]>"][rng.random_range(0..2usize)]);
                    }
                }
            }
        }
        out.push_str("</");
        out.push_str(name);
        out.push('>');
    }
    let mut out = String::from("<?xml version=\"1.0\"?>\n<!-- head -->\n<r>");
    for _ in 0..rng.random_range(1..6u32) {
        element(rng, 4, &mut out);
        if rng.random_bool(0.5) {
            out.push_str(["t", "&lt;u&gt;", "<![CDATA[v]]>"][rng.random_range(0..3usize)]);
        }
    }
    out.push_str("</r>\n<!-- tail -->\n");
    out
}

fn mixed_fragment(rng: &mut StdRng) -> String {
    [
        "<b/>",
        "<c k=\"1\">in &amp; out</c>",
        "<b><d>t</d>u<c/></b>",
    ][rng.random_range(0..3usize)]
    .to_string()
}

/// Targets for one statement: every element of one label (nested
/// targets), every element child of one element (adjacent runs), or a
/// random subset — sometimes with the root.
fn random_targets(rng: &mut StdRng, doc: &Document) -> Vec<NodeId> {
    let elements: Vec<NodeId> = doc.all_nodes().filter(|&n| doc.is_element(n)).collect();
    let mut targets: Vec<NodeId> = match rng.random_range(0..3) {
        0 => {
            let label = doc.label(elements[rng.random_range(0..elements.len())]);
            elements
                .iter()
                .copied()
                .filter(|&n| doc.label(n) == label)
                .collect()
        }
        1 => {
            let parent = elements[rng.random_range(0..elements.len())];
            doc.child_elements(parent).collect()
        }
        _ => elements
            .iter()
            .copied()
            .filter(|_| rng.random_bool(0.3))
            .collect(),
    };
    if targets.is_empty() || rng.random_bool(0.05) {
        targets.insert(0, doc.root());
        targets.dedup();
    }
    targets
}

/// Checks one statement in one pass against the target-at-a-time fold.
fn check_one_pass(
    doc: &Document,
    targets: &[NodeId],
    statement: Edit<'_>,
    dtd: Option<&smoqe_xml::Dtd>,
    ctx: &str,
) {
    use smoqe_update::{apply_update, InsertPos, Update, UpdateKind};
    let vocab = doc.vocabulary();
    let kind = match statement {
        Edit::Delete => UpdateKind::Delete,
        Edit::Replace(f) => UpdateKind::Replace {
            fragment: f.clone(),
        },
        Edit::Insert(place, f) => UpdateKind::Insert {
            fragment: f.clone(),
            pos: match place {
                SplicePlace::Into => InsertPos::Into,
                SplicePlace::Before => InsertPos::Before,
                SplicePlace::After => InsertPos::After,
            },
        },
    };
    // `apply_update` is handed its targets; the path is never evaluated.
    let update = Update {
        kind,
        target: smoqe_rxpath::Path::Label(doc.label(doc.root()).unwrap()),
    };
    let tax = TaxIndex::build(doc);
    // The fold: one single-target edit at a time, last target first.
    let mut folded = Ok((doc.clone(), Vec::new()));
    for &target in targets.iter().rev() {
        let Ok((cur, spans)) = &mut folded else { break };
        let edited = match statement {
            Edit::Delete => delete_subtree(cur, target),
            Edit::Replace(f) => replace_subtree(cur, target, f),
            Edit::Insert(place, f) => insert_fragment(cur, target, place, f),
        };
        match edited {
            Ok((next, span)) => {
                spans.push(span);
                *cur = next;
            }
            Err(e) => folded = Err(e),
        }
    }
    match (apply_update(doc, &update, targets, Some(&tax)), folded) {
        (Err(e), Err(f)) => assert!(
            matches!(e, smoqe_update::UpdateError::Edit(ref e) if *e == f),
            "errors differ: {e} vs {f}; {ctx}"
        ),
        (Ok((one, one_tax, spans)), Ok((fold_doc, fold_spans))) => {
            let one_tax = one_tax.expect("an index rides along");
            assert_eq!(spans.len(), targets.len(), "applied = targets; {ctx}");
            assert_eq!(spans, fold_spans, "spans; {ctx}");
            assert_same_document(&one, &fold_doc, &format!("against the fold; {ctx}"));
            let reparsed = smoqe_xml::parse_buffer(one.shared_buffer(), vocab).unwrap();
            assert_same_document(&one, &reparsed, &format!("against a parse; {ctx}"));
            assert_tax_matches_rebuild(&one_tax, &one, ctx);
            if let Some(dtd) = dtd {
                let mut dirty = smoqe_xml::DirtySet::default();
                spans.iter().for_each(|span| dirty.record(span));
                assert_eq!(
                    dtd.validate_nodes(&one, dirty.nodes()).is_ok(),
                    dtd.validate(&one).is_ok(),
                    "dirty-set validation; {ctx}"
                );
            }
        }
        (one, fold) => panic!(
            "one pass and fold disagree: {:?} vs {:?}; {ctx}",
            one.err().map(|e| e.to_string()),
            fold.err()
        ),
    }
}

/// Asserts a patched index equals `TaxIndex::build` on `doc`: descendant
/// sets, the label index, and the value postings.
fn assert_tax_matches_rebuild(tax: &TaxIndex, doc: &Document, ctx: &str) {
    let rebuilt = TaxIndex::build(doc);
    assert_eq!(tax.node_count(), rebuilt.node_count(), "node count; {ctx}");
    for n in doc.all_nodes() {
        assert_eq!(
            tax.descendant_labels(n).iter().collect::<Vec<_>>(),
            rebuilt.descendant_labels(n).iter().collect::<Vec<_>>(),
            "descendant labels of {n:?}; {ctx}"
        );
    }
    assert_label_index_matches(tax, doc);
    let (values, want) = (tax.value_index().unwrap(), rebuilt.value_index().unwrap());
    assert_eq!(
        values.node_count(),
        want.node_count(),
        "value index nodes; {ctx}"
    );
    assert_eq!(
        values.label_stats(),
        want.label_stats(),
        "value postings; {ctx}"
    );
    for n in doc.all_nodes().filter(|&n| doc.is_element(n)) {
        let (label, text) = (doc.label(n).unwrap(), doc.direct_text(n));
        assert_eq!(
            values.occurrences(label, &text),
            want.occurrences(label, &text),
            "postings of {n:?}; {ctx}"
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
            // Parsed or built: the same tree behind other bytes.
            doc = Document::parse_str(&noisy_xml(&doc, seed), &vocab).unwrap();
        }
        let mut tax = TaxIndex::build(&doc);
        // Chain a few edits so patches compose (patch of a patch).
        for _ in 0..3 {
            let Some((new_doc, span, _)) = random_edit(&mut rng, &vocab, &doc) else {
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
    /// edits, the table-spliced result keeps the `EditSpan` contract and
    /// equals a fresh parse of its own buffer on every accessor — both for
    /// a parsed document full of comments, entities and CDATA and for its
    /// builder-built twin (the same tree behind other bytes), which must
    /// agree on every span and every tree.
    #[test]
    fn table_spliced_documents_equal_a_reparse_and_the_rebuilt_twin(seed in 0u64..10_000) {
        let vocab = Vocabulary::new();
        hospital::dtd(&vocab);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut twin = hospital::generate_document(&vocab, seed, 300);
        let mut doc = Document::parse_str(&noisy_xml(&twin, seed), &vocab).unwrap();
        prop_assert_eq!(doc.to_xml(), twin.to_xml());
        prop_assert_ne!(doc.raw_source(), twin.raw_source());
        for step in 0..4 {
            let mut rng_twin = rng.clone();
            let (Some((new_doc, span, fragment)), Some((new_twin, span_twin, _))) = (
                random_edit(&mut rng, &vocab, &doc),
                random_edit(&mut rng_twin, &vocab, &twin),
            ) else {
                continue;
            };
            let ctx = format!("seed {seed}, step {step}");
            prop_assert_eq!(span, span_twin, "span diverged ({})", ctx);
            prop_assert_eq!(new_doc.to_xml(), new_twin.to_xml());
            for (old, new) in [(&doc, &new_doc), (&twin, &new_twin)] {
                assert_span_contract(old, new, &span, fragment.as_ref(), &ctx);
                let reparsed = smoqe_xml::parse_buffer(new.shared_buffer(), &vocab).unwrap();
                assert_same_document(new, &reparsed, &ctx);
            }
            doc = new_doc;
            twin = new_twin;
        }
    }

    /// Satellite (differential test for the one-pass statement splice):
    /// a statement applied at all its targets in one pass equals the
    /// last-to-first fold of single-target edits — the same document on
    /// every accessor and in representation, the same spans — and equals
    /// a parse of its own buffer; its patched index equals a rebuild; its
    /// dirty set validates like the whole document. Targets nest (`//b`
    /// through `b` children of `b`; hospital patients through
    /// `parent/patient`), run adjacent, and sit between text siblings
    /// whose merges join windows.
    #[test]
    fn one_pass_statements_equal_the_target_at_a_time_fold(seed in 0u64..10_000) {
        let vocab = Vocabulary::new();
        let dtd = hospital::dtd(&vocab);
        let mut rng = StdRng::seed_from_u64(seed);
        // Mixed content with attributes: merges and nested targets.
        let mixed = Document::parse_str(&mixed_markup(&mut rng), &vocab).unwrap();
        let fragment = Document::parse_str(&mixed_fragment(&mut rng), &vocab).unwrap();
        for round in 0..6 {
            let targets = random_targets(&mut rng, &mixed);
            let edit = random_statement(&mut rng, &fragment);
            let ctx = format!("seed {seed}, mixed round {round}");
            check_one_pass(&mixed, &targets, edit, None, &ctx);
        }
        // Hospital documents behind noisy bytes: validation, view-shaped
        // statements.
        let generated = hospital::generate_document(&vocab, seed, 300);
        let noisy = Document::parse_str(&noisy_xml(&generated, seed), &vocab).unwrap();
        let visit = Document::parse_str(
            "<visit><treatment><test>mri</test></treatment><date>d</date></visit>",
            &vocab,
        )
        .unwrap();
        for (round, path) in [
            "//patient",
            "hospital/patient/visit",
            "//patient/parent/patient",
            "//visit[treatment/test]",
            "//pname",
        ]
        .iter()
        .enumerate()
        {
            let targets = evaluate(&noisy, &smoqe_rxpath::parse_path(path, &vocab).unwrap())
                .into_vec();
            if targets.is_empty() {
                continue;
            }
            let edit = random_statement(&mut rng, &visit);
            let ctx = format!("seed {seed}, hospital `{path}` round {round}");
            check_one_pass(&noisy, &targets, edit, Some(&dtd), &ctx);
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
        .query_serialized("hospital/patient[pname = 'Neu']")
        .unwrap()
        .xml
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

    let query = "//treatment[medication/text() = 'autism']";
    assert_eq!(admin.query(query).unwrap().len(), 2);
    assert_eq!(session.query(query).unwrap().len(), 2);
    let generation = doc.generation();

    // A denied update must not bump the generation or drop plans.
    assert!(matches!(
        session.update("delete //pname"),
        Err(EngineError::UpdateDenied)
    ));
    assert_eq!(doc.generation(), generation);
    assert!(
        admin.query(query).unwrap().plan_cached,
        "denied update must not drop plans"
    );

    // An accepted one bumps the generation and keeps the plans, which
    // answer the written document: every treatment the view exposes is
    // now autism medication.
    session
        .update(
            "replace hospital/patient/treatment/medication with <medication>autism</medication>",
        )
        .unwrap();
    assert!(doc.generation() > generation);
    for (principal, answer) in [
        ("admin", admin.query(query)),
        ("group", session.query(query)),
    ] {
        let answer = answer.unwrap();
        assert!(answer.plan_cached, "{principal}: the write kept the plan");
        assert_eq!(answer.len(), 3, "{principal}: Cal's headache is autism now");
    }
    assert_eq!(engine.cache_metrics().invalidations, 0);
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

// ---------------------------------------------------------------------
// Differential oracle for the write path
// ---------------------------------------------------------------------

/// A hand-written view whose root-level σ qualifies its own origin: every
/// patient is shown iff *some* patient took autism, so an edit of one
/// top-level patient can change what every other one contributes. Counts
/// of this view are never regional; the engine recounts it whole.
const QUALIFIED_SPEC: &str = "\
<!ELEMENT hospital (patient*)>
<!ELEMENT patient (treatment*)>
<!ELEMENT treatment (medication)>
<!ELEMENT medication (#PCDATA)>
sigma(hospital, patient) = .[patient/visit/treatment/medication = 'autism']/patient
sigma(patient, treatment) = visit/treatment
sigma(treatment, medication) = medication
";

/// The group registered with [`QUALIFIED_SPEC`].
const QUALIFIED: &str = "qualified";

/// Per statement: `(applied, nodes_before, nodes_after)`.
type Reports = Vec<(usize, usize, usize)>;

/// A transaction's reports, or its error's text.
type Outcome = Result<Reports, String>;

/// The write path as it was before targets were resolved by rewriting,
/// kept as the oracle: materialize the group's view, evaluate the target
/// **on the view**, map the hits to their source origins, and recount the
/// materialized view after every statement (admins evaluate on the
/// document and count it). Returns the transaction's result and, when it
/// is accepted, the new document.
fn oracle_transaction(
    doc: &Document,
    dtd: &smoqe_xml::Dtd,
    spec: Option<&smoqe_view::ViewSpec>,
    statements: &[String],
) -> (Outcome, Option<Document>) {
    let run = || -> Result<(Reports, Document), EngineError> {
        let view_of = |doc: &Document| match spec {
            None => Ok(None),
            Some(spec) => smoqe_view::materialize(spec, doc)
                .map(Some)
                .map_err(|_| EngineError::UpdateDenied),
        };
        let count = |doc: &Document, view: &Option<smoqe_view::MaterializedView>| match view {
            None => doc.node_count(),
            Some(view) => view.doc.node_count(),
        };
        let mut doc = doc.clone();
        let mut view = view_of(&doc)?;
        let mut reports = Vec::new();
        for statement in statements {
            let update = parse_update(statement, doc.vocabulary())?;
            let targets = match &view {
                None => evaluate(&doc, &update.target).into_vec(),
                Some(view) => view.origins_of(evaluate(&view.doc, &update.target).iter()),
            };
            if targets.is_empty() {
                return Err(match spec {
                    None => EngineError::Update(smoqe_update::UpdateError::NoTarget),
                    Some(_) => EngineError::UpdateDenied,
                });
            }
            let before = count(&doc, &view);
            let (next, _, spans) = smoqe_update::apply_update(&doc, &update, &targets, None)?;
            doc = next;
            view = view_of(&doc)?;
            reports.push((spans.len(), before, count(&doc, &view)));
        }
        dtd.validate(&doc).map_err(|e| match spec {
            None => EngineError::Update(smoqe_update::UpdateError::Schema(e)),
            Some(_) => EngineError::UpdateDenied,
        })?;
        Ok((reports, doc))
    };
    match run() {
        Ok((reports, doc)) => (Ok(reports), Some(doc)),
        Err(e) => (Err(e.to_string()), None),
    }
}

/// One random transaction for `who`: one to three statements drawn from
/// pools that cover conditional-visibility flips (the autism medication
/// that decides whether a top-level patient is shown goes in or out),
/// `parent/patient` recursion, top-level inserts and deletes, and root
/// replacement — by a foreign element (a group's view stops existing, so
/// the write is denied) and by a same-label one.
fn random_transaction(rng: &mut StdRng, who: &User) -> Vec<String> {
    const NAMES: [&str; 8] = ["Ann", "Bob", "Cal", "Dan", "Eve", "Fay", "Gus", "Hal"];
    const MEDS: [&str; 5] = ["autism", "headache", "flu", "fever", "allergy"];
    let autism_visit = "<visit><treatment><medication>autism</medication></treatment>\
                        <date>d</date></visit>";
    if matches!(who, User::Admin) && rng.random_bool(0.05) {
        // Through a foreign root and back: the groups' views stop
        // existing in between, so their carried counts are dropped and
        // taken afresh by the next group write.
        return vec![
            "replace hospital with <clinic/>".to_string(),
            format!(
                "replace clinic with <hospital><patient><pname>Ann</pname>{autism_visit}\
                 </patient></hospital>"
            ),
        ];
    }
    let len = if rng.random_bool(0.6) {
        1
    } else {
        rng.random_range(2..4usize)
    };
    (0..len)
        .map(|_| {
            let name = NAMES[rng.random_range(0..NAMES.len())];
            let med = MEDS[rng.random_range(0..MEDS.len())];
            let patient = format!(
                "<patient><pname>{name}</pname><visit><treatment><medication>{med}</medication>\
                 </treatment><date>d</date></visit></patient>"
            );
            let kin = format!("<parent>{patient}</parent>");
            if matches!(who, User::Admin) {
                match rng.random_range(0..10u32) {
                    // Visibility on, and off again.
                    0 => format!("insert {autism_visit} after hospital/patient[pname = '{name}']/pname"),
                    1 => format!(
                        "delete hospital/patient[pname = '{name}']/visit[treatment/medication = 'autism']"
                    ),
                    // Top-level inserts and deletes.
                    2 => format!("insert {patient} into hospital"),
                    3 => format!("insert {patient} before hospital/patient[pname = '{name}']"),
                    4 => format!("delete hospital/patient[pname = '{name}']"),
                    // Recursion through parent/patient.
                    5 => format!("insert {kin} into hospital/patient[pname = '{name}'][not(parent)]"),
                    6 => format!("delete hospital/patient/(parent/patient)*[pname = '{name}']/parent"),
                    7 => format!(
                        "replace //patient[pname = '{name}']/visit/treatment[medication] with \
                         <treatment><medication>{med}</medication></treatment>"
                    ),
                    // The root, by a foreign element (the schema refuses
                    // it) and by a same-label one.
                    8 => "replace hospital with <clinic/>".to_string(),
                    _ if rng.random_bool(0.1) => format!("replace hospital with <hospital>{patient}</hospital>"),
                    _ => format!("delete hospital/patient[visit/treatment/medication = '{med}']/visit[treatment/test]"),
                }
            } else {
                match rng.random_range(0..10u32) {
                    // Visibility off: the last autism treatment goes.
                    0 => format!(
                        "replace hospital/patient/treatment[medication = 'autism'] with \
                         <treatment><medication>{med}</medication></treatment>"
                    ),
                    // Top-level inserts and deletes, through the view.
                    1 => format!("insert {patient} into hospital"),
                    2 => format!("insert {patient} after hospital/patient[treatment/medication = '{med}']"),
                    3 => format!("delete hospital/patient[treatment/medication = '{med}']"),
                    // Recursion through parent/patient.
                    4 => format!("insert {kin} into hospital/patient[not(parent)]"),
                    5 => "delete hospital/patient/(parent/patient)*/parent".to_string(),
                    6 => format!(
                        "replace hospital/patient/(parent/patient)*/treatment[medication = '{med}'] \
                         with <treatment><medication>autism</medication></treatment>"
                    ),
                    // Hidden targets: denied whatever the document holds.
                    7 if rng.random_bool(0.5) => "delete //pname".to_string(),
                    7 => "delete hospital/patient/visit".to_string(),
                    // The root: a foreign element breaks the view (denied),
                    // a same-label one is an ordinary write.
                    8 => "replace hospital with <clinic/>".to_string(),
                    _ if rng.random_bool(0.1) => format!("replace hospital with <hospital>{patient}</hospital>"),
                    _ => format!("replace hospital/patient/treatment/medication[text() = '{med}'] with <medication>{med}</medication>"),
                }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 40,
        .. ProptestConfig::default()
    })]

    /// Satellite: the write path resolves targets by rewriting and carries
    /// view counts by regional deltas; the oracle materializes the view
    /// for every statement. Over random hospital documents (generated and
    /// parsed, with and without a TAX index) and random chains of admin
    /// and group transactions, every transaction gets the same verdict
    /// (byte-identical error text), the same `applied` / `nodes_before` /
    /// `nodes_after` for every statement, and leaves the same document.
    /// Two groups write: `researchers` (policy S0, regional counts) and
    /// [`QUALIFIED`] (whole-document counts).
    #[test]
    fn writes_equal_the_materializing_oracle(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let engine = Engine::with_defaults();
        let vocab = engine.vocabulary().clone();
        let dtd = hospital::dtd(&vocab);
        engine.load_dtd(hospital::DTD).unwrap();
        // Shallow documents have many top-level patients, so edits land in
        // one region of many.
        let mut config = hospital::generator_config(&vocab, seed, 150 + (seed % 4) as usize * 50);
        config.max_depth = 6;
        let generated = smoqe_xml::generate(&dtd, &config).unwrap();
        let mut oracle = if seed % 2 == 0 {
            // Both ways in: loaded from text, or installed as a built tree.
            let xml = generated.to_xml();
            engine.load_document(&xml).unwrap();
            Document::parse_str(&xml, &vocab).unwrap()
        } else {
            engine.load_document_tree(generated.clone()).unwrap();
            generated
        };
        if seed % 3 != 0 {
            engine.build_tax_index().unwrap();
        }
        engine.register_policy(hospital::GROUP, hospital::POLICY).unwrap();
        engine.register_view_spec(QUALIFIED, QUALIFIED_SPEC).unwrap();
        let specs = [
            engine.view(hospital::GROUP).unwrap(),
            engine.view(QUALIFIED).unwrap(),
        ];
        let users = [
            User::Admin,
            User::Group(hospital::GROUP.into()),
            User::Group(QUALIFIED.into()),
        ];
        for step in 0..10 {
            let which = [0, 0, 1, 1, 1, 2][rng.random_range(0..6usize)];
            let user = &users[which];
            let statements = random_transaction(&mut rng, user);
            let spec = which.checked_sub(1).map(|i| specs[i].as_ref());
            let (expected, next) = oracle_transaction(&oracle, &dtd, spec, &statements);
            let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
            let got: Outcome = engine
                .session(user.clone())
                .update_batch(&refs)
                .map(|reports| {
                    reports
                        .iter()
                        .map(|r| (r.applied, r.nodes_before, r.nodes_after))
                        .collect()
                })
                .map_err(|e| e.to_string());
            prop_assert_eq!(
                &got, &expected,
                "seed {} step {} as {:?}: {:?}", seed, step, user, statements
            );
            if let Some(next) = next {
                oracle = next;
            }
            prop_assert_eq!(
                engine.document().unwrap().to_xml(),
                oracle.to_xml(),
                "document after seed {} step {}", seed, step
            );
        }
    }
}

/// Satellite (recovery with group writes in the tail): recovery replays
/// the WAL through the same write path, so group transactions that flip
/// a patient's visibility, grow `parent/patient` chains and span several
/// statements replay to the engine that never crashed — and the view
/// count the replay carried is the count of the recovered view, which the
/// next group write reports as its `nodes_before`.
#[test]
fn recovery_replays_visibility_flipping_group_writes() {
    let dir = std::env::temp_dir().join(format!("smoqe-updates-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = smoqe::EngineConfig {
        checkpoint_every: 0,
        ..smoqe::EngineConfig::default()
    };
    let engine = Engine::recover(config, &dir).unwrap();
    let xml = hospital::generate_document(engine.vocabulary(), 42, 2_000).to_xml();
    engine.load_dtd(hospital::DTD).unwrap();
    engine.load_document(&xml).unwrap();
    engine
        .register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    engine.build_tax_index().unwrap();
    engine.checkpoint().unwrap();

    let group = engine.session(User::Group(hospital::GROUP.into()));
    let autism =
        "<visit><treatment><medication>autism</medication></treatment><date>d</date></visit>";
    let mut flips = 0;
    for i in 0..12 {
        // A patient the view shows, findable through it by a medication
        // nothing else carries.
        let own = format!(
            "<visit><treatment><medication>U{i}</medication></treatment><date>d</date></visit>"
        );
        engine
            .update(&format!(
                "insert <patient><pname>M{i}</pname>{autism}{own}</patient> into hospital"
            ))
            .unwrap();
        let through_view = format!("hospital/patient[treatment/medication = 'U{i}']");
        group
            .update(&format!(
                "insert <parent><patient><pname>kin</pname>{autism}</patient></parent> \
                 into {through_view}"
            ))
            .unwrap();
        // The group takes the autism treatment away: the patient — and
        // its parent chain — leaves the view.
        let off = group
            .update(&format!(
                "replace {through_view}/treatment[medication = 'autism'] with \
                 <treatment><medication>flu</medication></treatment>"
            ))
            .unwrap();
        assert!(
            off.nodes_after < off.nodes_before,
            "the patient left the view"
        );
        flips += 1;
        if i % 2 == 0 {
            // The admin brings it back.
            engine
                .update(&format!(
                    "insert {autism} after hospital/patient[pname = 'M{i}']/pname"
                ))
                .unwrap();
            if i % 4 == 0 {
                // Two statements, one transaction: a new visible patient
                // in, the returned one out again.
                let reports = group
                    .update_batch(&[
                        &format!(
                            "insert <patient><pname>G{i}</pname>{autism}</patient> into hospital"
                        ),
                        &format!("delete {through_view}"),
                    ])
                    .unwrap();
                assert_eq!(reports.len(), 2);
                flips += 1;
            }
        }
    }
    assert!(flips >= 12);
    let live = engine.document().unwrap();
    let live_tax = engine.tax_index().unwrap();
    drop(engine); // abrupt: the tail is only in the WAL

    // Label ids are per engine: compare descendant types by name.
    let types = |tax: &TaxIndex, doc: &Document, n: NodeId| {
        let mut names: Vec<String> = tax
            .descendant_labels(n)
            .iter()
            .map(|l| doc.vocabulary().name(l).to_string())
            .collect();
        names.sort();
        names
    };
    for boot in 1..=2 {
        let recovered = Engine::recover(config, &dir).unwrap();
        let doc = recovered.document().unwrap();
        assert_eq!(doc.to_xml(), live.to_xml(), "boot {boot}: the document");
        let tax = recovered.tax_index().unwrap();
        for n in doc.all_nodes() {
            assert_eq!(
                types(&tax, &doc, n),
                types(&live_tax, &live, n),
                "boot {boot}: TAX at {n:?}"
            );
        }
        let spec = recovered.view(hospital::GROUP).unwrap();
        // The count the replay carried is the recovered view's.
        let group = recovered.session(User::Group(hospital::GROUP.into()));
        let report = group
            .update(&format!(
                "insert <patient><pname>Z</pname>{autism}<visit><treatment><medication>Z{boot}\
                 </medication></treatment><date>d</date></visit></patient> into hospital"
            ))
            .unwrap();
        let view_of = |doc: &Document| {
            smoqe_view::materialize(&spec, doc)
                .unwrap()
                .doc
                .node_count()
        };
        assert_eq!(
            report.nodes_before,
            view_of(&doc),
            "boot {boot}: carried count"
        );
        assert_eq!(report.nodes_after, view_of(&recovered.document().unwrap()));
        group
            .update(&format!(
                "delete hospital/patient[treatment/medication = 'Z{boot}']"
            ))
            .unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
