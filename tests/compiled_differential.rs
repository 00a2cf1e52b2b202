//! Differential suite for the compiled evaluation plans: on random
//! documents × random Regular XPath queries, the dense-table machine must
//! produce the answers of the naive reference evaluator
//! (`smoqe_rxpath::evaluate`) through **every driver** — DOM mode (with
//! and without TAX pruning, which may only ever remove visits), stream
//! mode, and batch mode (whose shared scan must cost exactly one stream
//! scan and whose buffered XML must equal the DOM serialization).

use proptest::prelude::*;
use smoqe::workloads::hospital;
use smoqe_automata::compile::CompiledMfa;
use smoqe_automata::{compile, optimize::optimize};
use smoqe_hype::batch::evaluate_batch_stream_plans_budgeted;
use smoqe_hype::dom::{evaluate_mfa_plan, DomOptions};
use smoqe_hype::stream::{evaluate_stream_plan_budgeted, StreamOptions};
use smoqe_hype::{EvalObserver, ExecMode, NoopObserver, WorkBudget};
use smoqe_rxpath::random::{random_path, QueryGenConfig};
use smoqe_rxpath::{evaluate as naive, parse_path};
use smoqe_tax::TaxIndex;
use smoqe_xml::{Document, NodeId, Vocabulary};

/// One prepared document + query-generation config per RNG seed.
fn setup(doc_seed: u64) -> (Vocabulary, Document, QueryGenConfig) {
    let vocab = Vocabulary::new();
    hospital::dtd(&vocab);
    let doc = hospital::generate_document(&vocab, doc_seed, 400);
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
    (vocab, doc, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn compiled_equals_reference_through_every_driver(
        doc_seed in 0u64..6,
        query_seed in 0u64..10_000,
        optimized in 0u64..2,
    ) {
        let optimized = optimized == 1;
        let (vocab, doc, cfg) = setup(doc_seed);
        let xml = doc.to_xml();
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

        // DOM mode, with and without TAX pruning: the reference answers,
        // and the index only ever removes work.
        let dom = |tax| {
            let options = DomOptions { tax };
            evaluate_mfa_plan(&doc, &plan, &options, ExecMode::Compiled, &mut NoopObserver)
        };
        let (a_plain, s_plain) = dom(None);
        let (a_tax, s_tax) = dom(Some(&tax));
        prop_assert_eq!(&a_plain, &expected, "DOM vs naive on `{}`", printed);
        prop_assert_eq!(&a_tax, &expected, "DOM+TAX vs naive on `{}`", printed);
        prop_assert_eq!(s_plain.subtrees_pruned_tax, 0, "no index, no TAX prunes");
        prop_assert!(
            s_tax.nodes_visited <= s_plain.nodes_visited,
            "TAX pruning added visits on `{}`: {} > {}",
            printed, s_tax.nodes_visited, s_plain.nodes_visited
        );
        prop_assert_eq!(s_plain.answers, expected.len(), "answer counter on `{}`", printed);
        prop_assert_eq!(s_tax.answers, expected.len(), "answer counter on `{}`", printed);

        // Stream mode: the same answers from one sequential scan.
        let streamed = evaluate_stream_plan_budgeted(
            xml.as_bytes(),
            &plan,
            &vocab,
            StreamOptions::default(),
            &mut NoopObserver,
            &WorkBudget::unlimited(),
        )
        .unwrap();
        let expected_ids: Vec<u32> = expected.iter().map(|n| n.0).collect();
        prop_assert_eq!(&streamed.answers, &expected_ids, "stream on `{}`", printed);

        // Batch mode: the same plan twice in one shared scan, which must
        // cost exactly the single stream scan.
        let lanes = [
            (&plan, StreamOptions::default()),
            (&plan, StreamOptions { want_xml: true }),
        ];
        let mut idle = [NoopObserver; 2];
        let mut observers: Vec<&mut dyn EvalObserver> = idle
            .iter_mut()
            .map(|o| o as &mut dyn EvalObserver)
            .collect();
        let batch = evaluate_batch_stream_plans_budgeted(
            xml.as_bytes(),
            &lanes,
            &vocab,
            &mut observers,
            &WorkBudget::unlimited(),
        )
        .unwrap();
        prop_assert_eq!(batch.events, streamed.events, "batch re-scanned on `{}`", printed);
        for lane in &batch.outcomes {
            prop_assert_eq!(&lane.answers, &expected_ids, "batch lane on `{}`", printed);
        }
        // Riding a shared scan changes nothing for a lane: same options,
        // same visits as the lone stream.
        prop_assert_eq!(
            batch.outcomes[0].stats.nodes_visited, streamed.stats.nodes_visited,
            "batch lane visits diverged from the lone stream on `{}`", printed
        );
        // The XML-buffering lane must serialize what the DOM serializes.
        let dom_xml: Vec<String> = expected
            .iter()
            .map(|n| smoqe_xml::serialize::subtree_to_string(&doc, n))
            .collect();
        prop_assert_eq!(
            batch.outcomes[1].answer_xml.as_ref(),
            Some(&dom_xml),
            "buffered answer XML diverged on `{}`",
            printed
        );
    }

    /// The `Cow` fast path of `direct_text`/`string_value` must agree with
    /// the allocating originals on arbitrary generated documents.
    #[test]
    fn text_cow_accessors_agree(doc_seed in 0u64..50) {
        let vocab = Vocabulary::new();
        hospital::dtd(&vocab);
        let doc = hospital::generate_document(&vocab, doc_seed, 200);
        for n in doc.all_nodes() {
            let n = NodeId(n.0);
            prop_assert_eq!(doc.direct_text(n), doc.direct_text_cow(n).into_owned());
            prop_assert_eq!(doc.string_value(n), doc.string_value_cow(n).into_owned());
        }
    }
}
