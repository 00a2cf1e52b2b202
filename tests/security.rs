//! Security properties: SMOQE "prevents the disclosure of confidential or
//! sensitive information to unauthorized users" (paper §1).
//!
//! * answers to view queries only ever contain nodes that are *visible*
//!   under the policy (i.e. nodes with a counterpart in V(T));
//! * serialized answers never contain text that exists only in hidden
//!   regions;
//! * independence: changing hidden data never changes a view answer.

use smoqe::workloads::hospital;
use smoqe::{Engine, User};
use smoqe_xml::NodeId;
use std::collections::HashSet;
use std::sync::Arc;

fn engine() -> Arc<Engine> {
    let e = Engine::with_defaults();
    e.load_dtd(hospital::DTD).unwrap();
    e.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    e.register_policy("g", hospital::POLICY).unwrap();
    e
}

#[test]
fn answers_are_subsets_of_visible_nodes() {
    let e = engine();
    let view = e.materialize_view("g").unwrap();
    let visible: HashSet<NodeId> = view.origins.iter().copied().collect();
    let session = e.session(User::Group("g".into()));
    for (_, q) in hospital::VIEW_QUERIES {
        let ans = session.query(q).unwrap();
        for n in &ans.nodes {
            assert!(
                visible.contains(n),
                "query `{q}` leaked invisible node {n:?}"
            );
        }
    }
}

#[test]
fn hidden_text_never_appears_in_serialized_answers() {
    let e = engine();
    let session = e.session(User::Group("g".into()));
    // Names, test values and dates exist only in hidden regions of the
    // sample; session-safe serialization must filter them even when the
    // answer node's *source* subtree contains them.
    let secrets = ["Ann", "Bob", "Cal", "Pat", "blood", "2006-01-11"];
    for (_, q) in hospital::VIEW_QUERIES {
        for xml in session.query_serialized(q).unwrap().xml.unwrap() {
            for s in secrets {
                assert!(
                    !xml.contains(s),
                    "query `{q}` leaked '{s}' in answer: {xml}"
                );
            }
        }
    }
}

#[test]
fn stream_mode_answers_are_also_filtered() {
    use smoqe::EngineConfig;
    let e = Engine::new(EngineConfig::streaming());
    e.load_dtd(hospital::DTD).unwrap();
    e.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    e.register_policy("g", hospital::POLICY).unwrap();
    let session = e.session(User::Group("g".into()));
    let ans = session.query_serialized("hospital/patient").unwrap();
    for xml in ans.xml.unwrap() {
        assert!(!xml.contains("pname"), "stream leaked pname: {xml}");
        assert!(!xml.contains("date"), "stream leaked date: {xml}");
    }
}

#[test]
fn wildcard_and_descendant_probing_cannot_reach_hidden_types() {
    let e = engine();
    let session = e.session(User::Group("g".into()));
    let doc = e.document().unwrap();
    let vocab = e.vocabulary();
    let hidden: Vec<_> = ["pname", "visit", "date", "test"]
        .iter()
        .map(|n| vocab.lookup(n).unwrap())
        .collect();
    // Exhaustive probing with wildcards and closures.
    for q in [
        "//*",
        "(*)*/*",
        "hospital/*/*",
        "hospital/(*)*",
        "//*[not(zzz)]",
    ] {
        let ans = session.query(q).unwrap();
        for n in &ans.nodes {
            let label = doc.label(*n).unwrap();
            assert!(
                !hidden.contains(&label),
                "probe `{q}` returned hidden-type node <{}>",
                vocab.name(label)
            );
        }
    }
}

#[test]
fn changing_hidden_data_does_not_change_view_answers() {
    // Two documents differing only in hidden content (names, dates, test
    // values) must be indistinguishable through the view.
    let doc_a = hospital::SAMPLE_DOCUMENT.to_string();
    let doc_b = doc_a
        .replace("Ann", "XXX")
        .replace("blood", "mri")
        .replace("2006-01-11", "1999-09-09");
    assert_ne!(doc_a, doc_b);
    let answers = |xml: &str| -> Vec<Vec<String>> {
        let e = Engine::with_defaults();
        e.load_dtd(hospital::DTD).unwrap();
        e.load_document(xml).unwrap();
        e.register_policy("g", hospital::POLICY).unwrap();
        let session = e.session(User::Group("g".into()));
        hospital::VIEW_QUERIES
            .iter()
            .map(|(_, q)| session.query_serialized(q).unwrap().xml.unwrap())
            .collect()
    };
    assert_eq!(answers(&doc_a), answers(&doc_b));
}

#[test]
fn conditionally_visible_data_appears_only_when_condition_holds() {
    // Patient exposed iff some visit treats autism; flip the condition.
    let with = "<hospital><patient><pname>Zed</pname>\
        <visit><treatment><medication>autism</medication></treatment><date>d</date></visit>\
        </patient></hospital>";
    let without = with.replace("autism", "flu");
    let count = |xml: &str| {
        let e = Engine::with_defaults();
        e.load_dtd(hospital::DTD).unwrap();
        e.load_document(xml).unwrap();
        e.register_policy("g", hospital::POLICY).unwrap();
        e.session(User::Group("g".into()))
            .query("hospital/patient")
            .unwrap()
            .len()
    };
    assert_eq!(count(with), 1);
    assert_eq!(count(&without), 0);
}

#[test]
fn admin_and_group_sessions_are_isolated() {
    let e = engine();
    let admin = e.session(User::Admin);
    let group = e.session(User::Group("g".into()));
    // Admin sees hidden data the group cannot.
    assert!(!admin.query("//pname").unwrap().is_empty());
    assert!(group.query("//pname").unwrap().is_empty());
    // Two groups with different policies see different data.
    e.register_policy("open", "# allow-all policy: no annotations\n")
        .unwrap();
    let open = e.session(User::Group("open".into()));
    assert!(!open.query("//pname").unwrap().is_empty());
}
