//! Differential suite for jump-scan evaluation: on random documents ×
//! random Regular XPath queries, the jump driver ([`ExecMode::Jump`])
//! must produce **identical answers** to the dense-table scan walker
//! ([`ExecMode::Compiled`]) — both agreeing with the naive reference
//! evaluator (`smoqe_rxpath::evaluate`) — while entering **no more
//! nodes** than the scan walker. Plans the jump driver cannot execute
//! (no DFA) must fall back transparently.
//!
//! Also here: the deterministic multi-thread batch test — answers of a
//! DOM batch are independent of `EngineConfig::eval_threads`, and no
//! thread count ever re-parses the document.

use proptest::prelude::*;
use smoqe::workloads::hospital;
use smoqe::{Engine, EngineConfig, User};
use smoqe_automata::compile::CompiledMfa;
use smoqe_automata::{compile, optimize::optimize};
use smoqe_hype::dom::{evaluate_mfa_plan, DomOptions};
use smoqe_hype::{jump_eligible, ExecMode, NoopObserver};
use smoqe_rxpath::random::{random_path, random_qualifier, QueryGenConfig};
use smoqe_rxpath::{evaluate as naive, parse_path};
use smoqe_tax::TaxIndex;
use smoqe_xml::{Document, Vocabulary};

/// Query-generation config over the hospital vocabulary (the DTD must
/// already be interned into `vocab`).
fn gen_config(vocab: &Vocabulary) -> QueryGenConfig {
    let labels = vec![
        vocab.lookup("hospital").unwrap(),
        vocab.lookup("patient").unwrap(),
        vocab.lookup("pname").unwrap(),
        vocab.lookup("visit").unwrap(),
        vocab.lookup("treatment").unwrap(),
        vocab.lookup("medication").unwrap(),
        vocab.lookup("parent").unwrap(),
        vocab.lookup("test").unwrap(),
    ];
    let values = vec!["autism".into(), "headache".into(), "Ann".into()];
    let mut cfg = QueryGenConfig::new(labels, values);
    cfg.max_depth = 4;
    cfg
}

/// One prepared document + query-generation config per RNG seed.
fn setup(doc_seed: u64) -> (Vocabulary, Document, QueryGenConfig) {
    let vocab = Vocabulary::new();
    hospital::dtd(&vocab);
    let doc = hospital::generate_document(&vocab, doc_seed, 400);
    let cfg = gen_config(&vocab);
    (vocab, doc, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn jump_equals_compiled_equals_reference(
        doc_seed in 0u64..6,
        query_seed in 0u64..10_000,
        optimized in 0u64..2,
    ) {
        let optimized = optimized == 1;
        let (vocab, doc, cfg) = setup(doc_seed);
        let tax = TaxIndex::build(&doc);

        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(query_seed);
        let path = random_path(&mut rng, &cfg);
        let printed = path.display(&vocab).to_string();
        let path = parse_path(&printed, &vocab).unwrap();
        let mfa = if optimized {
            optimize(&compile(&path, &vocab))
        } else {
            compile(&path, &vocab)
        };
        let plan = CompiledMfa::compile(&mfa);
        let expected = naive(&doc, &path);

        let options = DomOptions { tax: Some(&tax) };
        let run = |mode| evaluate_mfa_plan(&doc, &plan, &options, mode, &mut NoopObserver);
        let (a_jump, s_jump) = run(ExecMode::Jump);
        let (a_scan, s_scan) = run(ExecMode::Compiled);
        prop_assert_eq!(&a_jump, &expected, "jump vs naive on `{}`", printed);
        prop_assert_eq!(&a_scan, &expected, "compiled vs naive on `{}`", printed);
        prop_assert!(
            s_jump.nodes_visited <= s_scan.nodes_visited,
            "jump visited {} > scan {} on `{}` (eligible: {})",
            s_jump.nodes_visited, s_scan.nodes_visited, printed, jump_eligible(&plan)
        );
        // Ineligible plans fall back to the scan walker: identical stats.
        if !jump_eligible(&plan) {
            prop_assert_eq!(s_jump.nodes_visited, s_scan.nodes_visited);
        }
    }

    /// The jump driver must also hold up under documents mutated through
    /// the incremental index maintenance path (`TaxIndex::patched`).
    #[test]
    fn jump_agrees_after_incremental_edits(
        doc_seed in 0u64..4,
        edit_seed in 0u64..50,
        query_seed in 0u64..2_000,
    ) {
        let (vocab, doc, cfg) = setup(doc_seed);
        let mut tax = TaxIndex::build(&doc);
        // Delete one subtree, patch the index (never rebuild).
        let victims: Vec<_> = doc
            .all_nodes()
            .filter(|&n| doc.is_element(n) && n != doc.root())
            .collect();
        let victim = victims[(edit_seed as usize) % victims.len()];
        let (doc, span) = smoqe_xml::delete_subtree(&doc, victim).unwrap();
        tax = tax.patched(&doc, &span);

        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(query_seed);
        let path = random_path(&mut rng, &cfg);
        let printed = path.display(&vocab).to_string();
        let path = parse_path(&printed, &vocab).unwrap();
        let plan = CompiledMfa::compile(&compile(&path, &vocab));
        let expected = naive(&doc, &path);
        let options = DomOptions { tax: Some(&tax) };
        let (a_jump, _) = evaluate_mfa_plan(&doc, &plan, &options, ExecMode::Jump, &mut NoopObserver);
        prop_assert_eq!(&a_jump, &expected, "jump on patched index, `{}`", printed);
    }

    /// Predicated plans must stay correct through `update_batch` edits
    /// that splice the **value posting lists**: inserting carriers of new
    /// text values, replacing a text node in place (same label shape, new
    /// value), and deleting a carrier again. Every statement must patch
    /// the index incrementally — never rebuild — and the guarded jump
    /// driver must then agree with the naive reference over the patched
    /// index while visiting no more nodes than the scan walker.
    #[test]
    fn predicated_jump_agrees_after_update_batch(
        doc_seed in 0u64..3,
        edit_seed in 0u64..12,
        query_seed in 0u64..2_000,
    ) {
        let engine = Engine::with_defaults();
        engine.load_dtd(hospital::DTD).unwrap();
        let initial = hospital::generate_document(engine.vocabulary(), doc_seed, 300);
        engine.load_document_tree(initial).unwrap();
        engine.build_tax_index().unwrap();
        let handle = engine.document_handle(smoqe::DEFAULT_DOCUMENT).unwrap();

        let med = ["autism", "headache", "flu"][(edit_seed % 3) as usize];
        let date = ["2006-01-11", "2006-02-07"][(edit_seed % 2) as usize];
        let insert = format!(
            "insert <patient><pname>Zed</pname><visit><treatment>\
             <medication>{med}</medication></treatment><date>{date}</date>\
             </visit></patient> into hospital"
        );
        let reports = handle
            .update_batch(&[
                insert.as_str(),
                // Text-only replace: splices 'Zed' out of and 'Ann' into
                // the pname posting lists, label index shape unchanged.
                "replace hospital/patient[pname = 'Zed']/pname with <pname>Ann</pname>",
                "insert <patient><pname>Tmp</pname><visit><treatment><test>mri</test>\
                 </treatment><date>d</date></visit></patient> into hospital",
                "delete hospital/patient[pname = 'Tmp']",
            ])
            .unwrap();
        prop_assert!(reports.iter().all(|r| r.tax_patched), "patched, not rebuilt");

        let doc = engine.document().unwrap();
        let tax = engine.tax_index().expect("index survives update_batch");

        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(query_seed);
        let cfg = gen_config(engine.vocabulary());
        // Force a qualified top path so every case exercises a guard.
        let path = smoqe_rxpath::Path::qualified(
            random_path(&mut rng, &cfg),
            random_qualifier(&mut rng, &cfg),
        );
        let printed = path.display(engine.vocabulary()).to_string();
        let path = parse_path(&printed, engine.vocabulary()).unwrap();
        let plan = CompiledMfa::compile(&compile(&path, engine.vocabulary()));
        let expected = naive(&doc, &path);

        let options = DomOptions { tax: Some(&*tax) };
        let run = |mode| evaluate_mfa_plan(&doc, &plan, &options, mode, &mut NoopObserver);
        let (a_jump, s_jump) = run(ExecMode::Jump);
        let (a_scan, s_scan) = run(ExecMode::Compiled);
        prop_assert_eq!(&a_jump, &expected, "jump vs naive after updates, `{}`", printed);
        prop_assert_eq!(&a_scan, &expected, "compiled vs naive after updates, `{}`", printed);
        prop_assert!(
            s_jump.nodes_visited <= s_scan.nodes_visited,
            "jump visited {} > scan {} on `{}`",
            s_jump.nodes_visited, s_scan.nodes_visited, printed
        );
    }
}

/// Deterministic multi-thread batch check: a DOM batch returns the same
/// answers at 1, 2, 4 and 8 worker threads (1 evaluates inline, more
/// partition the plans), always on the snapshot — never by re-parsing.
#[test]
fn batch_answers_are_independent_of_eval_threads() {
    let queries: Vec<&str> = hospital::DOC_QUERIES.iter().map(|(_, q)| *q).collect();
    let mut baseline: Option<Vec<Vec<smoqe_xml::NodeId>>> = None;
    for threads in [1usize, 2, 4, 8] {
        let engine = Engine::new(EngineConfig {
            eval_threads: threads,
            ..EngineConfig::default()
        });
        hospital::dtd(engine.vocabulary());
        let doc = hospital::generate_document(engine.vocabulary(), 3, 2_000);
        engine.load_document_tree(doc).unwrap();
        engine.build_tax_index().unwrap();
        let session = engine.session(User::Admin);
        let batch = session.query_batch(&queries).unwrap();
        let nodes: Vec<Vec<smoqe_xml::NodeId>> =
            batch.answers.iter().map(|a| a.nodes.clone()).collect();
        match &baseline {
            None => baseline = Some(nodes),
            Some(want) => assert_eq!(
                &nodes, want,
                "batch answers changed at {threads} eval threads"
            ),
        }
        assert_eq!(batch.events, 0, "DOM batches do not parse (@{threads})");
    }
}
