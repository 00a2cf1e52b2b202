//! Differential suite for child-chain guards — `[l1/…/lk]` and
//! `[l1/…/lk = 'v']` — which the jump driver answers from the positional
//! index (label occurrences, or value postings) instead of by a witness
//! search. On random recursive documents the jump driver
//! ([`ExecMode::Jump`]) must answer exactly what the dense-table scan
//! walker ([`ExecMode::Compiled`]) and the naive reference evaluator
//! (`smoqe_rxpath::evaluate`) answer, entering no more nodes than the
//! scan walker:
//!
//! * chains alone, negated, and in `and` / `or` mixes;
//! * the chain's last label also occurring above and below the chain's
//!   depth (`b` nests in `b`, and `b/b` ends in the label it starts
//!   with), so the level check and the subtree skip decide;
//! * text split by entities, CDATA sections and child elements, empty
//!   text, and a hash-colliding value pair (Thue–Morse strings, whose
//!   value postings merge);
//! * after `update_batch` edits, which patch the indexes rather than
//!   rebuild them;
//! * as one engine batch (`Session::query_batch`) at 1, 2 and 4
//!   evaluation threads.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smoqe::{Engine, EngineConfig, User};
use smoqe_automata::compile;
use smoqe_automata::compile::CompiledMfa;
use smoqe_hype::dom::{evaluate_mfa_plan, DomOptions};
use smoqe_hype::{ExecMode, NoopObserver};
use smoqe_rxpath::{evaluate as naive, parse_path, NodeSet};
use smoqe_tax::TaxIndex;
use smoqe_xml::{Document, Vocabulary};

/// The Thue–Morse string of length 1024 over `{even, odd}`: it and its
/// complement share their length-strengthened polynomial hash, so the
/// value index posts both under one key.
fn thue_morse(even: char, odd: char) -> String {
    (0u32..1024)
        .map(|i| if i.count_ones() % 2 == 0 { even } else { odd })
        .collect()
}

/// Leaf texts, as markup: `v&w` spelt three ways, split around a child
/// element, empty, and the colliding pair.
fn texts() -> Vec<String> {
    vec![
        "v".into(),
        "w".into(),
        "v&amp;w".into(),
        "v<![CDATA[&]]>w".into(),
        "<![CDATA[v&w]]>".into(),
        "v<x/>&amp;w".into(),
        String::new(),
        thue_morse('a', 'b'),
        thue_morse('b', 'a'),
    ]
}

/// One random element (and its subtree) below depth `depth`.
fn element(rng: &mut StdRng, out: &mut String, depth: u32) {
    let label = ["a", "b", "b", "c", "x"][rng.random_range(0..5usize)];
    out.push('<');
    out.push_str(label);
    out.push('>');
    if label == "c" || depth >= 6 || rng.random_bool(0.25) {
        let texts = texts();
        out.push_str(&texts[rng.random_range(0..texts.len())]);
    } else {
        if rng.random_bool(0.2) {
            out.push('v'); // mixed content: direct text beside children
        }
        for _ in 0..rng.random_range(1..4usize) {
            element(rng, out, depth + 1);
        }
    }
    out.push_str("</");
    out.push_str(label);
    out.push('>');
}

/// A random document over `r`, `a`, `b`, `c`, `x`, seeded.
fn random_doc(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::from("<r>");
    for _ in 0..rng.random_range(3..9usize) {
        element(&mut rng, &mut out, 1);
    }
    out.push_str("</r>");
    out
}

/// Chain guards (and one non-chain control, `b//c`).
fn atoms() -> Vec<String> {
    let (t1, t2) = (thue_morse('a', 'b'), thue_morse('b', 'a'));
    vec![
        "b/c".into(),
        "a/b".into(),
        "b/b/c".into(),
        "b/c = 'v'".into(),
        "b/b/c = 'v&w'".into(),
        "c = 'v&w'".into(),
        "b/c = 'w'".into(),
        "b = 'v'".into(),
        "b/c = ''".into(),
        format!("c = '{t1}'"),
        format!("b/c = '{t2}'"),
        "c".into(),
        "x/c = 'v'".into(),
        "a/b/c".into(),
        "b/b".into(),
        "b/b = 'v'".into(),
        "b//c".into(),
    ]
}

/// A random query: a selection path, a qualifier over chain guards
/// (alone, negated, or mixed with `and` / `or`), and maybe a tail step.
fn random_query(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let atoms = atoms();
    let mut atom = || atoms[rng.random_range(0..atoms.len())].clone();
    let (p, q, s) = (atom(), atom(), atom());
    let qual = match seed % 6 {
        0 => p,
        1 => format!("not({p})"),
        2 => format!("{p} and {q}"),
        3 => format!("{p} or {q}"),
        4 => format!("not({p}) and {q}"),
        _ => format!("({p} or {q}) and not({s})"),
    };
    let select = ["r/a", "//a", "//b", "r//b", "//*", "r/*/b", "r"][(seed / 6 % 7) as usize];
    let tail = ["", "", "/c", "/b"][(seed / 42 % 4) as usize];
    format!("{select}[{qual}]{tail}")
}

/// Jump ≡ compiled scan ≡ naive on `doc` over `tax`, and jump visits no
/// more nodes than the scan.
fn agree(doc: &Document, tax: &TaxIndex, vocab: &Vocabulary, query: &str) -> NodeSet {
    let path = parse_path(query, vocab).unwrap();
    let plan = CompiledMfa::compile(&compile(&path, vocab));
    let expected = naive(doc, &path);
    let options = DomOptions { tax: Some(tax) };
    let run = |mode| evaluate_mfa_plan(doc, &plan, &options, mode, &mut NoopObserver);
    let (jump, jump_stats) = run(ExecMode::Jump);
    let (scan, scan_stats) = run(ExecMode::Compiled);
    assert_eq!(jump, expected, "jump vs naive on `{query}`");
    assert_eq!(scan, expected, "compiled vs naive on `{query}`");
    assert!(
        jump_stats.nodes_visited <= scan_stats.nodes_visited,
        "jump visited {} > scan {} on `{query}`",
        jump_stats.nodes_visited,
        scan_stats.nodes_visited
    );
    expected
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        .. ProptestConfig::default()
    })]

    #[test]
    fn chain_guards_agree_with_the_oracle(
        doc_seed in 0u64..40,
        query_seed in 0u64..100_000,
    ) {
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(&random_doc(doc_seed), &vocab).unwrap();
        let tax = TaxIndex::build(&doc);
        agree(&doc, &tax, &vocab, &random_query(query_seed));
    }

    /// After `update_batch` edits — inserts that nest the chain's labels
    /// deeper, a replace that changes a carrier's text, a delete — the
    /// label and value lists are patched, and the guards still agree.
    #[test]
    fn chain_guards_agree_after_update_batch(
        doc_seed in 0u64..20,
        edit_seed in 0u64..6,
        query_seed in 0u64..100_000,
    ) {
        let engine = Engine::with_defaults();
        engine.load_document(&random_doc(doc_seed)).unwrap();
        engine.build_tax_index().unwrap();
        let handle = engine.document_handle(smoqe::DEFAULT_DOCUMENT).unwrap();
        let text = ["v", "w", "v&amp;w"][(edit_seed % 3) as usize];
        // The insert makes every later statement's target exist.
        let insert = format!("insert <a><b><b><c>{text}</c></b><c>w</c></b></a> into r");
        let replace = match edit_seed % 2 {
            0 => format!("replace //c[. = 'w'] with <c>{text}</c>"),
            _ => format!("replace r/a/b[c = 'w'] with <b><x><c>v</c></x><c>{text}</c></b>"),
        };
        let delete = ["delete r/a[b/b]", "delete //x[c = 'v']"][(edit_seed % 2) as usize];
        let reports = handle.update_batch(&[&insert, &replace, delete]).unwrap();
        prop_assert!(reports.iter().all(|r| r.tax_patched), "patched, not rebuilt");
        let doc = engine.document().unwrap();
        let tax = engine.tax_index().expect("the index survives update_batch");
        agree(&doc, &tax, engine.vocabulary(), &random_query(query_seed));
    }
}

/// Every atom under every selection path, as one batch of an indexed
/// engine: every plan jumps, and the answers are the oracle's at 1, 2 and
/// 4 evaluation threads.
#[test]
fn chain_guards_agree_through_engine_batches_at_every_thread_count() {
    let mut queries = Vec::new();
    for select in ["r/a", "//b", "r//b", "r/*/b"] {
        for atom in atoms() {
            queries.push(format!("{select}[{atom}]"));
            queries.push(format!("{select}[not({atom})]/c"));
        }
    }
    let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
    for doc_seed in 0..6 {
        for eval_threads in [1, 2, 4] {
            let engine = Engine::new(EngineConfig {
                eval_threads,
                ..EngineConfig::default()
            });
            engine.load_document(&random_doc(doc_seed)).unwrap();
            engine.build_tax_index().unwrap();
            let doc = engine.document().unwrap();
            let batch = engine.session(User::Admin).query_batch(&texts).unwrap();
            for (query, answer) in queries.iter().zip(&batch.answers) {
                let context = format!("`{query}` on document {doc_seed} at {eval_threads} threads");
                assert_eq!(answer.mode, ExecMode::Jump, "{context}");
                let path = parse_path(query, engine.vocabulary()).unwrap();
                assert_eq!(answer.nodes, naive(&doc, &path).into_vec(), "{context}");
            }
        }
    }
}
