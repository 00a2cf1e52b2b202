//! Per-tenant accounting, pinned step by step across every way a session
//! asks queries.
//!
//! A single query records one query; a batch records one batch tick plus
//! one query per member, even a batch of one; a failed batch (interrupted
//! or unplannable) charges its members as queries and one error; a
//! cross-session [`Engine::evaluate_batch`] records one query per member
//! against each member's own tenant and no batch tick. After each step
//! the whole tenant table must equal its pinned value.

use smoqe::hype::EvalObserver;
use smoqe::workloads::hospital;
use smoqe::xml::Label;
use smoqe::{Engine, EngineError, QueryRequest, TenantMetrics, User, WorkBudget};
use std::time::{Duration, Instant};

/// Counts the element nodes an observed evaluation entered.
#[derive(Default)]
struct Entered(usize);

impl EvalObserver for Entered {
    fn enter_node(&mut self, _node: u32, _label: Label, _depth: usize) {
        self.0 += 1;
    }
}

/// A tenant row: `(queries, batches, answers, errors, nodes_visited)`.
type Row = (u64, u64, u64, u64, u64);

/// Asserts the engine's whole tenant table after `step`.
fn pin(engine: &Engine, step: &str, expected: &[(&str, Row)]) {
    let rows: Vec<(String, Row)> = engine
        .tenant_metrics()
        .into_iter()
        .map(|(tenant, m): (String, TenantMetrics)| {
            (
                tenant,
                (m.queries, m.batches, m.answers, m.errors, m.nodes_visited),
            )
        })
        .collect();
    let expected: Vec<(String, Row)> = expected
        .iter()
        .map(|&(tenant, row)| (tenant.to_string(), row))
        .collect();
    assert_eq!(rows, expected, "after {step}");
}

#[test]
fn every_query_path_accounts_to_its_tenant() {
    let engine = Engine::with_defaults();
    let doc = engine.open_document("wards");
    doc.load_dtd(hospital::DTD).unwrap();
    doc.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    doc.register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    let admin = doc.session(User::Admin);
    let group = doc.session(User::Group(hospital::GROUP.into()));
    let expired = WorkBudget {
        deadline: Some(Instant::now() - Duration::from_millis(1)),
        cancel: None,
        check_interval: 1,
    };
    let mut entered = Entered::default();

    let answer = admin.query("//medication").unwrap();
    assert!(!answer.is_empty());
    pin(&engine, "query", &[("(admin)", (1, 0, 5, 0, 34))]);

    let answer = group.query_serialized("//medication").unwrap();
    assert_eq!(answer.xml.as_ref().unwrap().len(), answer.len());
    pin(
        &engine,
        "query_serialized",
        &[
            ("(admin)", (1, 0, 5, 0, 34)),
            ("researchers", (1, 0, 4, 0, 23)),
        ],
    );

    let batch = admin.query_batch(&["//pname"]).unwrap();
    assert_eq!(batch.answers.len(), 1);
    pin(
        &engine,
        "one-query query_batch",
        &[
            ("(admin)", (2, 1, 9, 0, 68)),
            ("researchers", (1, 0, 4, 0, 23)),
        ],
    );

    let interrupted = admin.run(QueryRequest {
        budget: &expired,
        ..QueryRequest::batch(&["//medication", "//pname"])
    });
    assert!(matches!(interrupted, Err(EngineError::DeadlineExceeded)));
    pin(
        &engine,
        "interrupted budgeted batch",
        &[
            ("(admin)", (4, 2, 9, 1, 68)),
            ("researchers", (1, 0, 4, 0, 23)),
        ],
    );

    let unplannable = group.query_batch(&["//medication", "//pname[", "//treatment"]);
    assert!(unplannable.is_err());
    pin(
        &engine,
        "batch that fails to plan",
        &[
            ("(admin)", (4, 2, 9, 1, 68)),
            ("researchers", (4, 1, 4, 1, 23)),
        ],
    );

    let observed = admin
        .run(QueryRequest::observed("//visit", &mut entered))
        .unwrap()
        .single();
    assert!(!observed.is_empty());
    assert!(entered.0 > 0, "the observer saw the evaluation");
    pin(
        &engine,
        "observed query",
        &[
            ("(admin)", (5, 2, 15, 1, 102)),
            ("researchers", (4, 1, 4, 1, 23)),
        ],
    );

    let batch = engine
        .evaluate_batch(&[
            (&admin, "//pname"),
            (&group, "//treatment"),
            (&group, "//pname"),
        ])
        .unwrap();
    assert_eq!(batch.answers.len(), 3);
    pin(
        &engine,
        "cross-session evaluate_batch",
        &[
            ("(admin)", (6, 2, 19, 1, 136)),
            ("researchers", (6, 1, 8, 1, 46)),
        ],
    );
}
