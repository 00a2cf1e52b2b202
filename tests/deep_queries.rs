//! No request can abort the process by nesting: a query, a policy
//! qualifier or an update target deeper than `smoqe_rxpath::MAX_DEPTH`
//! is refused with a typed parse error before anything recurses over it,
//! and the server that refused it goes on answering.
//!
//! These tests live in a file of their own: a stack overflow aborts the
//! whole test process, so a regression here takes down only this binary.

use std::sync::Arc;
use std::time::Duration;

use smoqe::workloads::hospital;
use smoqe::{Engine, EngineError, User};
use smoqe_rxpath::MAX_DEPTH;
use smoqe_server::{Client, ClientError, Principal, Server, ServerConfig, ServerHandle};

/// `hospital[patient[patient[…]]]`, `levels` predicates deep.
fn nested(levels: usize) -> String {
    format!(
        "hospital{}{}",
        "[patient".repeat(levels),
        "]".repeat(levels)
    )
}

fn start_server() -> (ServerHandle, Arc<Engine>) {
    let engine = Engine::with_defaults();
    hospital::install_sample(&engine.open_document("wards")).unwrap();
    let handle = Server::start(engine.clone(), ServerConfig::default()).unwrap();
    (handle, engine)
}

fn client(handle: &ServerHandle, principal: Principal) -> Client {
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client.hello("wards", principal).unwrap();
    client
}

/// The error frame a refused request got: its engine code and message.
fn refused<T: std::fmt::Debug>(answer: Result<T, ClientError>) -> (u16, String) {
    match answer {
        Err(ClientError::Remote { code, message }) => (code, message),
        other => panic!("expected an error frame, got {other:?}"),
    }
}

#[test]
fn a_hostile_depth_query_gets_an_error_frame_and_the_server_keeps_serving() {
    let (handle, _engine) = start_server();
    let mut group = client(&handle, Principal::Group(hospital::GROUP.into()));
    // An 18 KB frame, far below the frame limit.
    let hostile = nested(2_000);
    assert!(hostile.len() > 18_000);
    let (code, message) = refused(group.query(&hostile));
    assert_eq!(code, 2, "a query error: {message}");
    assert!(
        message.contains(&format!("deeper than {MAX_DEPTH}")),
        "{message}"
    );
    // The same connection, and the same server, answer a normal query.
    let answer = group.query("hospital/patient").unwrap();
    assert_eq!(answer.nodes.len(), 2);
    let mut admin = client(&handle, Principal::Admin);
    assert_eq!(admin.query("//pname").unwrap().nodes.len(), 4);
    handle.shutdown();
}

#[test]
fn a_hostile_depth_policy_or_update_target_is_refused_over_the_wire() {
    let (handle, _engine) = start_server();
    let mut admin = client(&handle, Principal::Admin);
    // A policy whose qualifier nests 2 000 levels.
    let policy = format!(
        "ann(hospital, patient) = [{}]\n",
        &nested(2_000)["hospital[".len()..nested(2_000).len() - 1]
    );
    let (code, message) = refused(admin.open_document(
        "deep",
        Some(hospital::DTD),
        Some(hospital::SAMPLE_DOCUMENT),
        &[("g", policy.as_str())],
    ));
    assert_eq!(code, 3, "a policy error: {message}");
    assert!(
        message.contains(&format!("deeper than {MAX_DEPTH}")),
        "{message}"
    );
    // An update whose target nests 2 000 levels.
    let (code, message) = refused(admin.update(&format!("delete {}", nested(2_000))));
    assert_eq!(code, 11, "an update error: {message}");
    assert!(
        message.contains(&format!("deeper than {MAX_DEPTH}")),
        "{message}"
    );
    // Nothing changed, and the server still answers.
    assert_eq!(admin.query("hospital/patient").unwrap().nodes.len(), 3);
    let mut group = client(&handle, Principal::Group(hospital::GROUP.into()));
    assert_eq!(group.query("hospital/patient").unwrap().nodes.len(), 2);
    handle.shutdown();
}

#[test]
fn session_queries_are_bounded_on_a_worker_sized_stack() {
    // Server workers run on 2 MiB stacks; so does this thread.
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let engine = Engine::with_defaults();
            hospital::install_sample(&engine.open_document("wards")).unwrap();
            let handle = engine.document_handle("wards").unwrap();
            for user in [User::Admin, User::Group(hospital::GROUP.into())] {
                let session = handle.session(user.clone());
                match session.query(&nested(2_000)) {
                    Err(EngineError::Query(e)) => {
                        assert!(e.to_string().contains(&format!("deeper than {MAX_DEPTH}")))
                    }
                    other => panic!("{user:?}: expected a query error, got {other:?}"),
                }
                // At the limit the query plans and answers: no patient
                // nests that deep, so nothing matches.
                let answers = session.query(&nested(MAX_DEPTH)).unwrap();
                assert!(answers.is_empty(), "{user:?}");
                assert!(session.query(&nested(MAX_DEPTH + 1)).is_err());
            }
        })
        .unwrap()
        .join()
        .unwrap();
}
