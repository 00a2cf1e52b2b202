//! Guarded jump evaluation on deep documents, alone and in batches.
//!
//! The jump driver verifies guards along the **ancestor path** of each
//! candidate: the guard-aware state sets of the candidate's ancestors,
//! kept as a stack while candidates ascend in pre-order. Its edge case is
//! a long ancestor chain — the hospital generator at its default depth
//! nests `parent/patient` many levels down, unlike the benchmark's
//! depth-8 body.
//!
//! Every query of the benchmark's unselective pool (the admin document
//! queries, the `researchers` view queries and `//visit/date`) must answer
//! exactly what the naive oracle answers — `smoqe_rxpath::evaluate` on the
//! document for the admin, on the materialized view mapped back to source
//! nodes for the group — asked alone and as one batch per principal, at
//! 1, 2 and 4 evaluation threads, and must visit no more nodes than an
//! engine without a TAX index (which can only scan).

use smoqe::workloads::hospital;
use smoqe::{DocHandle, Engine, EngineConfig, User};
use smoqe_hype::ExecMode;
use smoqe_rxpath::{evaluate as naive, parse_path};
use smoqe_view::{derive, materialize, AccessPolicy};
use smoqe_xml::{Document, NodeId, Vocabulary};
use std::sync::Arc;

const NODES: usize = 6_000;
const SEED: u64 = 17;

fn pool() -> Vec<(User, &'static str)> {
    let group = User::Group(hospital::GROUP.into());
    let mut pool: Vec<(User, &str)> = hospital::DOC_QUERIES
        .iter()
        .map(|(_, q)| (User::Admin, *q))
        .collect();
    pool.extend(
        hospital::VIEW_QUERIES
            .iter()
            .map(|(_, q)| (group.clone(), *q)),
    );
    pool.push((User::Admin, "//visit/date"));
    pool
}

/// The oracle's answer to every pooled query, in pool order.
fn oracle(xml: &str, pool: &[(User, &str)]) -> Vec<Vec<NodeId>> {
    let vocab = Vocabulary::new();
    let dtd = hospital::dtd(&vocab);
    let spec = derive(&AccessPolicy::parse(dtd, hospital::POLICY).unwrap());
    let doc = Document::parse_str(xml, &vocab).unwrap();
    let view = materialize(&spec, &doc).unwrap();
    pool.iter()
        .map(|(user, query)| {
            let path = parse_path(query, &vocab).unwrap();
            match user {
                User::Admin => naive(&doc, &path).into_vec(),
                User::Group(_) => view.origins_of(naive(&view.doc, &path).iter()),
            }
        })
        .collect()
}

fn load(xml: &str, config: EngineConfig, tax: bool) -> (Arc<Engine>, DocHandle) {
    let engine = Engine::new(config);
    let handle = engine.open_document("deep");
    handle.load_dtd(hospital::DTD).unwrap();
    handle.load_document(xml).unwrap();
    handle
        .register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    if tax {
        handle.build_tax_index().unwrap();
    }
    (engine, handle)
}

#[test]
fn guarded_jump_agrees_with_the_oracle_on_deep_documents_at_every_thread_count() {
    let xml = hospital::generate_document(&Vocabulary::new(), SEED, NODES).to_xml();
    let pool = pool();
    let expected = oracle(&xml, &pool);
    assert!(
        !expected[pool.len() - 1].is_empty(),
        "the document has visits to find"
    );
    let (_plain_engine, plain) = load(&xml, EngineConfig::default(), false);
    // Deep enough to matter: some patient is three `parent` levels down.
    let deep = plain
        .session(User::Admin)
        .query("//parent/patient/parent/patient/parent/patient")
        .unwrap();
    assert!(!deep.nodes.is_empty(), "the document nests patients deeply");
    let scan_visits: Vec<usize> = pool
        .iter()
        .map(|(user, query)| {
            let answer = plain.session(user.clone()).query(query).unwrap();
            assert_eq!(answer.mode, ExecMode::Compiled, "`{query}` without TAX");
            answer.stats.nodes_visited
        })
        .collect();
    for threads in [1, 2, 4] {
        let config = EngineConfig {
            eval_threads: threads,
            ..EngineConfig::default()
        };
        let (_engine, indexed) = load(&xml, config, true);
        let check = |i: usize, answer: &smoqe::Answer, how: &str| {
            let query = pool[i].1;
            let context = format!("`{query}` as {:?}, {how}, {threads} thread(s)", pool[i].0);
            assert_eq!(answer.nodes, expected[i], "{context}");
            assert_eq!(answer.mode, ExecMode::Jump, "{context}");
            assert!(
                answer.stats.nodes_visited <= scan_visits[i],
                "{context}: jump visited {} > scan {}",
                answer.stats.nodes_visited,
                scan_visits[i]
            );
        };
        for (i, (user, query)) in pool.iter().enumerate() {
            let answer = indexed.session(user.clone()).query(query).unwrap();
            check(i, &answer, "alone");
        }
        for user in [User::Admin, User::Group(hospital::GROUP.into())] {
            let mine: Vec<usize> = (0..pool.len()).filter(|&i| pool[i].0 == user).collect();
            let queries: Vec<&str> = mine.iter().map(|&i| pool[i].1).collect();
            let batch = indexed.session(user).query_batch(&queries).unwrap();
            for (&i, answer) in mine.iter().zip(&batch.answers) {
                check(i, answer, "in a batch");
            }
        }
    }
}
