//! The serving layer, end to end over real sockets: wire answers must
//! match in-process sessions per principal, admission control must
//! refuse politely (`Busy`, never a disconnect), hostile bytes must not
//! crash anything, denials must stay byte-indistinguishable on the wire,
//! and a draining server must finish what it admitted.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use smoqe::{workloads::hospital, Engine, EngineConfig, QueryRequest};
use smoqe_server::proto::{
    code, encode_frame, op, Frame, FrameBuffer, Request, Response, DEFAULT_MAX_FRAME_LEN,
};
use smoqe_server::{
    Client, ClientError, Principal, RecoveryGate, RetryPolicy, Server, ServerConfig, ServerHandle,
    TenantQuota,
};

/// Hospital sample under the catalog name `wards`, plus a second group so
/// cross-group multiplexing is testable, served on an ephemeral port.
fn start_server(config: ServerConfig) -> (ServerHandle, Arc<Engine>) {
    let engine = Engine::with_defaults();
    let doc = engine.open_document("wards");
    hospital::install_sample(&doc).unwrap();
    doc.register_policy("auditors", hospital::POLICY).unwrap();
    let handle = Server::start(engine.clone(), config).unwrap();
    (handle, engine)
}

fn connect(handle: &ServerHandle) -> Client {
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client
}

fn researcher(handle: &ServerHandle) -> Client {
    let mut client = connect(handle);
    client
        .hello("wards", Principal::Group(hospital::GROUP.into()))
        .unwrap();
    client
}

/// Reads one frame from a raw socket (for tests that bypass `Client`).
fn read_raw_frame(stream: &mut TcpStream, fb: &mut FrameBuffer) -> Option<Frame> {
    let mut buf = [0u8; 4096];
    loop {
        match fb.next_frame(DEFAULT_MAX_FRAME_LEN) {
            Ok(Some(frame)) => return Some(frame),
            Ok(None) => {}
            Err(_) => return None,
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => fb.push(&buf[..n]),
        }
    }
}

// -------------------------------------------------------------------------
// Remote ≡ in-process, per principal, under concurrency
// -------------------------------------------------------------------------

#[test]
fn concurrent_remote_clients_match_in_process_sessions() {
    let (handle, engine) = start_server(ServerConfig::default());
    let queries = ["hospital/patient", "//medication", "//treatment"];

    // 12 concurrent connections across three principals.
    let principals = [
        Principal::Admin,
        Principal::Group(hospital::GROUP.into()),
        Principal::Group("auditors".into()),
    ];
    let threads: Vec<_> = (0..12)
        .map(|i| {
            let principal = principals[i % principals.len()].clone();
            let engine = engine.clone();
            let addr = handle.local_addr();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.set_timeout(Some(Duration::from_secs(30))).unwrap();
                client.hello("wards", principal.clone()).unwrap();
                let session = engine.session_on("wards", principal.to_user()).unwrap();
                for q in queries {
                    let remote = client.query(q).unwrap();
                    let local = session.query_serialized(q).unwrap();
                    // The answer payload — the serialized subtrees — is
                    // byte-identical to what the in-process session
                    // produces for this principal.
                    assert_eq!(remote.xml, local.xml.clone().unwrap(), "query {q}");
                    assert_eq!(remote.len(), local.len());
                    assert_eq!(remote.stats.answers, local.stats.answers);
                    match &principal {
                        Principal::Admin => {
                            // Admins additionally get the raw node ids and
                            // full telemetry, verbatim.
                            let ids: Vec<u64> = local.nodes.iter().map(|n| n.0 as u64).collect();
                            assert_eq!(remote.nodes, ids);
                            assert_eq!(remote.stats.nodes_visited, local.stats.nodes_visited);
                            assert_eq!(remote.mode, local.mode);
                        }
                        Principal::Group(_) => {
                            // Groups get ordinals and a masked stats block.
                            let ordinals: Vec<u64> = (0..local.len() as u64).collect();
                            assert_eq!(remote.nodes, ordinals);
                            assert_eq!(remote.stats.nodes_visited, 0);
                            assert_eq!(remote.stats.cans_size, 0);
                            assert_eq!(remote.stats.max_depth, 0);
                            assert_eq!(remote.stats.tree_passes, 0);
                            assert_eq!(remote.mode, smoqe::ExecMode::Compiled);
                        }
                    }
                }
                // Batches too: same shared-scan answers, serialized.
                let refs: Vec<&str> = queries.to_vec();
                let (remote_batch, _events) = client.query_batch(&refs).unwrap();
                let local_batch = session
                    .run(QueryRequest {
                        serialize: true,
                        ..QueryRequest::batch(&refs)
                    })
                    .unwrap();
                assert_eq!(remote_batch.len(), local_batch.answers.len());
                for (r, l) in remote_batch.iter().zip(&local_batch.answers) {
                    assert_eq!(r.xml, l.xml.clone().unwrap());
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    handle.shutdown();
    handle.join();
}

// -------------------------------------------------------------------------
// Admission control
// -------------------------------------------------------------------------

#[test]
fn quota_exhaustion_yields_busy_not_disconnect() {
    let (handle, _engine) = start_server(ServerConfig {
        default_quota: TenantQuota {
            rate_per_sec: 2.0,
            burst: 2,
            max_inflight: 64,
        },
        ..ServerConfig::default()
    });

    let mut client = researcher(&handle);
    let mut ok = 0u32;
    let mut busy = 0u32;
    let mut retry_hint = 0u32;
    for _ in 0..10 {
        match client.query("//medication") {
            Ok(_) => ok += 1,
            Err(ClientError::Busy { retry_after_ms }) => {
                busy += 1;
                retry_hint = retry_hint.max(retry_after_ms);
            }
            Err(e) => panic!("expected Ok or Busy, got {e}"),
        }
    }
    assert!(ok >= 2, "the burst is admitted (got {ok})");
    assert!(busy >= 6, "past the burst the bucket refuses (got {busy})");
    assert!(retry_hint > 0, "Busy carries a retry-after hint");

    // The connection survived every refusal: control ops still work ...
    client.ping().unwrap();
    // ... and once tokens accrue, so do queries, on the SAME connection.
    std::thread::sleep(Duration::from_millis(600));
    client.query("//medication").unwrap();

    // An admin on its own (unlimited) quota was never affected.
    let mut admin = connect(&handle);
    admin.hello("wards", Principal::Admin).unwrap();
    admin.query("//medication").unwrap();

    handle.shutdown();
    handle.join();
}

#[test]
fn over_quota_tenant_does_not_starve_others() {
    let (handle, _engine) = start_server(ServerConfig {
        default_quota: TenantQuota {
            rate_per_sec: 5.0,
            burst: 3,
            max_inflight: 4,
        },
        tenant_quotas: [(
            "auditors".to_string(),
            TenantQuota {
                rate_per_sec: 10_000.0,
                burst: 10_000,
                max_inflight: 64,
            },
        )]
        .into_iter()
        .collect(),
        ..ServerConfig::default()
    });

    // researchers hammer their tiny quota ...
    let mut greedy = researcher(&handle);
    let mut greedy_busy = 0;
    for _ in 0..20 {
        if matches!(
            greedy.query("hospital/patient"),
            Err(ClientError::Busy { .. })
        ) {
            greedy_busy += 1;
        }
    }
    assert!(greedy_busy > 10, "the greedy tenant is throttled");

    // ... while auditors, on their own gate, sail through.
    let mut calm = connect(&handle);
    calm.hello("wards", Principal::Group("auditors".into()))
        .unwrap();
    for _ in 0..20 {
        calm.query("hospital/patient").unwrap();
    }

    handle.shutdown();
    handle.join();
}

// -------------------------------------------------------------------------
// Hostile bytes
// -------------------------------------------------------------------------

#[test]
fn malformed_truncated_and_oversized_frames_never_kill_the_server() {
    let (handle, _engine) = start_server(ServerConfig::default());
    let addr = handle.local_addr();

    // Wrong protocol version: one Error frame, then the connection closes.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut bad = encode_frame(op::PING, 1, &[]);
        bad[4] = 99; // version byte
        s.write_all(&bad).unwrap();
        let mut fb = FrameBuffer::new();
        let frame = read_raw_frame(&mut s, &mut fb).expect("error frame before close");
        match Response::decode(frame.op, &frame.payload).unwrap() {
            Response::Error { code: c, .. } => assert_eq!(c, code::BAD_VERSION),
            other => panic!("unexpected {other:?}"),
        }
        assert!(read_raw_frame(&mut s, &mut fb).is_none(), "then EOF");
    }

    // Oversized length prefix: rejected from the header, FRAME_TOO_LARGE.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(&(DEFAULT_MAX_FRAME_LEN + 1).to_le_bytes())
            .unwrap();
        let mut fb = FrameBuffer::new();
        let frame = read_raw_frame(&mut s, &mut fb).expect("error frame before close");
        match Response::decode(frame.op, &frame.payload).unwrap() {
            Response::Error { code: c, .. } => assert_eq!(c, code::FRAME_TOO_LARGE),
            other => panic!("unexpected {other:?}"),
        }
    }

    // Truncated frame then abrupt hangup: the server just moves on.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        let full = Request::Ping.encode(1);
        s.write_all(&full[..full.len() - 2]).unwrap();
        drop(s);
    }

    // Unknown op and garbage payload on a known op: per-request errors,
    // the connection stays usable.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut fb = FrameBuffer::new();

        s.write_all(&encode_frame(0x6F, 7, &[])).unwrap();
        let frame = read_raw_frame(&mut s, &mut fb).unwrap();
        assert_eq!(frame.request_id, 7);
        match Response::decode(frame.op, &frame.payload).unwrap() {
            Response::Error { code: c, .. } => assert_eq!(c, code::UNSUPPORTED_OP),
            other => panic!("unexpected {other:?}"),
        }

        s.write_all(&encode_frame(op::QUERY, 8, &[0xFF, 0xFF, 0xFF]))
            .unwrap();
        let frame = read_raw_frame(&mut s, &mut fb).unwrap();
        match Response::decode(frame.op, &frame.payload).unwrap() {
            Response::Error { code: c, .. } => assert_eq!(c, code::MALFORMED_FRAME),
            other => panic!("unexpected {other:?}"),
        }

        // Still alive after both rejections:
        s.write_all(&Request::Ping.encode(9)).unwrap();
        let frame = read_raw_frame(&mut s, &mut fb).unwrap();
        assert_eq!(frame.op, op::PONG);
    }

    // And through all of that, the server kept serving normal clients.
    let mut client = researcher(&handle);
    assert!(!client.query("//medication").unwrap().xml.is_empty());

    handle.shutdown();
    handle.join();
}

// -------------------------------------------------------------------------
// Security over the wire
// -------------------------------------------------------------------------

#[test]
fn denial_frames_are_byte_identical_hidden_vs_nonexistent() {
    let (handle, _engine) = start_server(ServerConfig::default());

    // Two fresh connections issue their update as the same ordinal
    // request (hello = 1, update = 2), so even the echoed request id
    // matches and the comparison can be on raw frames.
    let mut hidden_conn = researcher(&handle);
    let mut missing_conn = researcher(&handle);

    // `//pname` exists in the source document but the policy hides it;
    // the second target simply does not exist in the view.
    let hidden = hidden_conn
        .request_raw(&Request::Update {
            statement: "delete //pname".into(),
            deadline_ms: 0,
        })
        .unwrap();
    let missing = missing_conn
        .request_raw(&Request::Update {
            statement: "delete hospital/patient[treatment/medication = 'nosuchmed']".into(),
            deadline_ms: 0,
        })
        .unwrap();

    assert_eq!(hidden.op, op::ERROR);
    assert_eq!(hidden.op, missing.op);
    assert_eq!(hidden.request_id, missing.request_id);
    assert_eq!(
        hidden.payload, missing.payload,
        "a hidden target and a non-existent target must produce \
         byte-identical denial frames"
    );
    match Response::decode(hidden.op, &hidden.payload).unwrap() {
        Response::Error { code: c, .. } => {
            assert_eq!(c, smoqe::EngineError::UpdateDenied.code())
        }
        other => panic!("unexpected {other:?}"),
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn hello_is_required_and_admin_ops_are_guarded() {
    let (handle, _engine) = start_server(ServerConfig::default());

    let mut fresh = connect(&handle);
    match fresh.query("//medication") {
        Err(ClientError::Remote { code: c, .. }) => assert_eq!(c, code::HELLO_REQUIRED),
        other => panic!("expected HELLO_REQUIRED, got {other:?}"),
    }

    let mut group = researcher(&handle);
    match group.shutdown() {
        Err(ClientError::Remote { code: c, .. }) => assert_eq!(c, code::UNAUTHORIZED),
        other => panic!("expected UNAUTHORIZED, got {other:?}"),
    }
    match group.open_document("other", None, None, &[]) {
        Err(ClientError::Remote { code: c, .. }) => assert_eq!(c, code::UNAUTHORIZED),
        other => panic!("expected UNAUTHORIZED, got {other:?}"),
    }
    // The guarded refusals did not cost the session.
    group.ping().unwrap();

    handle.shutdown();
    handle.join();
}

#[test]
fn stats_are_scoped_per_principal() {
    let (handle, _engine) = start_server(ServerConfig::default());

    let mut group = researcher(&handle);
    group.query("//medication").unwrap();
    let mut admin = connect(&handle);
    admin.hello("wards", Principal::Admin).unwrap();
    admin.query("//medication").unwrap();

    // Admin sees every tenant and may pull the trace ring.
    let full = admin.stats(true).unwrap();
    let tenants: Vec<&str> = full.tenants.iter().map(|t| t.tenant.as_str()).collect();
    assert!(tenants.contains(&smoqe::ADMIN_TENANT));
    assert!(tenants.contains(&hospital::GROUP));
    assert!(!full.trace.is_empty(), "trace ring is dumpable");
    assert!(
        full.trace.iter().any(|e| e.op == op::QUERY && e.code == 0),
        "successful queries are traced with their op"
    );
    assert!(full.queue_capacity > 0);

    // A group asking for the same sees only itself, and no trace.
    let scoped = group.stats(true).unwrap();
    assert_eq!(
        scoped
            .tenants
            .iter()
            .map(|t| t.tenant.as_str())
            .collect::<Vec<_>>(),
        vec![hospital::GROUP]
    );
    assert!(scoped.trace.is_empty(), "the trace names other tenants");
    assert!(scoped.tenants[0].queries >= 1);

    handle.shutdown();
    handle.join();
}

#[test]
fn admin_requires_token_when_configured() {
    let (handle, _engine) = start_server(ServerConfig {
        admin_token: Some("sekrit".to_string()),
        ..ServerConfig::default()
    });

    // Loopback alone no longer suffices once a token is configured.
    let mut bare = connect(&handle);
    match bare.hello("wards", Principal::Admin) {
        Err(ClientError::Remote { code: c, .. }) => assert_eq!(c, code::UNAUTHORIZED),
        other => panic!("expected UNAUTHORIZED, got {other:?}"),
    }
    let mut wrong = connect(&handle);
    match wrong.hello_auth("wards", Principal::Admin, Some("guess")) {
        Err(ClientError::Remote { code: c, .. }) => assert_eq!(c, code::UNAUTHORIZED),
        other => panic!("expected UNAUTHORIZED, got {other:?}"),
    }
    // A refused Hello leaves the connection alive and unbound.
    match bare.query("//medication") {
        Err(ClientError::Remote { code: c, .. }) => assert_eq!(c, code::HELLO_REQUIRED),
        other => panic!("expected HELLO_REQUIRED, got {other:?}"),
    }

    // Groups are unaffected by the admin token.
    let mut group = researcher(&handle);
    group.query("//medication").unwrap();

    // The right token unlocks the admin surface.
    let mut admin = connect(&handle);
    admin
        .hello_auth("wards", Principal::Admin, Some("sekrit"))
        .unwrap();
    admin.stats(true).unwrap();
    admin.shutdown().unwrap();
    handle.join();
}

#[test]
fn group_tokens_are_enforced_per_group() {
    let (handle, _engine) = start_server(ServerConfig {
        group_tokens: [(hospital::GROUP.to_string(), "badge".to_string())]
            .into_iter()
            .collect(),
        ..ServerConfig::default()
    });

    let mut bare = connect(&handle);
    match bare.hello("wards", Principal::Group(hospital::GROUP.into())) {
        Err(ClientError::Remote { code: c, .. }) => assert_eq!(c, code::UNAUTHORIZED),
        other => panic!("expected UNAUTHORIZED, got {other:?}"),
    }
    bare.hello_auth(
        "wards",
        Principal::Group(hospital::GROUP.into()),
        Some("badge"),
    )
    .unwrap();
    bare.query("//medication").unwrap();

    // A group with no configured token still binds freely.
    let mut open = connect(&handle);
    open.hello("wards", Principal::Group("auditors".into()))
        .unwrap();

    handle.shutdown();
    handle.join();
}

#[test]
fn spoofed_or_malformed_group_names_are_rejected_at_hello() {
    let (handle, _engine) = start_server(ServerConfig::default());

    // `(admin)` is the admin tenant's accounting key; a group must not be
    // able to claim it (or any other non-identifier) and inherit the
    // admin quota or stats row.
    let mut client = connect(&handle);
    for name in ["(admin)", "", " researchers", "a b", "x/y", "né"] {
        match client.hello("wards", Principal::Group(name.into())) {
            Err(ClientError::Remote { code: c, .. }) => {
                assert_eq!(c, code::BAD_PRINCIPAL, "group name {name:?}")
            }
            other => panic!("expected BAD_PRINCIPAL for {name:?}, got {other:?}"),
        }
    }
    // The connection survives the refusals and a valid name still binds.
    client
        .hello("wards", Principal::Group(hospital::GROUP.into()))
        .unwrap();
    client.query("//medication").unwrap();

    // No spoofed tenant ever reached the accounting table.
    let mut admin = connect(&handle);
    admin.hello("wards", Principal::Admin).unwrap();
    let stats = admin.stats(false).unwrap();
    assert!(stats
        .tenants
        .iter()
        .all(|t| t.tenant == smoqe::ADMIN_TENANT || t.tenant == hospital::GROUP));

    handle.shutdown();
    handle.join();
}

#[test]
fn control_ops_are_rate_limited_per_connection() {
    let (handle, _engine) = start_server(ServerConfig {
        control_quota: TenantQuota {
            rate_per_sec: 1.0,
            burst: 3,
            max_inflight: usize::MAX,
        },
        ..ServerConfig::default()
    });

    let mut client = researcher(&handle); // hello spends one control token
    let mut busy = 0u32;
    for _ in 0..10 {
        match client.stats(false) {
            Ok(_) => {}
            Err(ClientError::Busy { retry_after_ms }) => {
                assert!(retry_after_ms > 0);
                busy += 1;
            }
            Err(e) => panic!("expected Ok or Busy, got {e}"),
        }
    }
    assert!(
        busy >= 6,
        "a stats flood is throttled (got {busy} refusals)"
    );

    // Pings are pure liveness and stay exempt; the connection survives.
    client.ping().unwrap();
    // Data-plane ops ride the tenant quota, not the control cap.
    client.query("//medication").unwrap();
    // Other connections have their own bucket.
    let mut admin = connect(&handle);
    admin.hello("wards", Principal::Admin).unwrap();
    admin.stats(false).unwrap();

    handle.shutdown();
    handle.join();
}

// -------------------------------------------------------------------------
// Graceful drain
// -------------------------------------------------------------------------

#[test]
fn drain_completes_pipelined_in_flight_queries() {
    let (handle, _engine) = start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });

    // Pipeline a burst of queries on a raw connection (the synchronous
    // Client would drain its own pipeline before we could shut down).
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut fb = FrameBuffer::new();
    s.write_all(
        &Request::Hello {
            document: "wards".into(),
            principal: Principal::Group(hospital::GROUP.into()),
            auth: None,
        }
        .encode(1),
    )
    .unwrap();
    let hello = read_raw_frame(&mut s, &mut fb).unwrap();
    assert_eq!(hello.op, op::HELLO_OK);

    const PIPELINED: u64 = 16;
    for i in 0..PIPELINED {
        s.write_all(
            &Request::Query {
                query: "//medication".into(),
                deadline_ms: 0,
            }
            .encode(100 + i),
        )
        .unwrap();
    }

    // Shut down from a second connection while those are in flight.
    let mut admin = connect(&handle);
    admin.hello("wards", Principal::Admin).unwrap();
    admin.shutdown().unwrap();

    // Every pipelined request gets a real response: an answer if it was
    // admitted before the drain began, SHUTTING_DOWN if it arrived
    // after. Nothing is dropped on the floor, nothing disconnects early.
    let mut answered = 0;
    let mut refused = 0;
    for _ in 0..PIPELINED {
        let frame = read_raw_frame(&mut s, &mut fb).expect("response for every request");
        match Response::decode(frame.op, &frame.payload).unwrap() {
            Response::AnswerOk(a) => {
                assert!(!a.xml.is_empty());
                answered += 1;
            }
            Response::Error { code: c, .. } => {
                assert_eq!(c, code::SHUTTING_DOWN);
                refused += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(answered + refused, PIPELINED);
    assert!(answered > 0, "in-flight work completed during the drain");

    // The drain terminates everything: join() returns.
    handle.join();
}

// -------------------------------------------------------------------------
// Durability at the wire: slow readers, the recovery gate, retry policy
// -------------------------------------------------------------------------

/// A unique scratch directory removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "smoqe-server-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_reader_that_stops_reading_is_dropped_not_waited_on() {
    let (handle, _engine) = start_server(ServerConfig {
        write_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });

    // An admin connection floods the server with pipelined batches whose
    // responses serialize the whole document 256 times each — then never
    // reads a byte. The kernel buffers fill, the server's response write
    // stalls past write_timeout, and the connection must be dropped.
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut fb = FrameBuffer::new();
    s.write_all(
        &Request::Hello {
            document: "wards".into(),
            principal: Principal::Admin,
            auth: None,
        }
        .encode(1),
    )
    .unwrap();
    assert_eq!(read_raw_frame(&mut s, &mut fb).unwrap().op, op::HELLO_OK);
    let batch = Request::QueryBatch {
        queries: vec!["hospital/patient".to_string(); 256],
        deadline_ms: 0,
    };
    for i in 0..40u64 {
        if s.write_all(&batch.encode(100 + i)).is_err() {
            break; // already shut down on us — that is the point
        }
    }

    // The server notices within write_timeout (plus execution slack) and
    // accounts the drop.
    let mut admin = connect(&handle);
    admin.hello("wards", Principal::Admin).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let stats = admin.stats(false).unwrap();
        if stats.slow_client_drops >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never recorded a slow-client drop"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // The stalled connection really is severed: draining what the kernel
    // buffered ends in EOF (or a reset), never a fresh response.
    let mut sink = [0u8; 65536];
    loop {
        match s.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }

    // And its worker + admission slots are free again: a well-behaved
    // client gets served immediately.
    let mut client = researcher(&handle);
    assert!(!client.query("//medication").unwrap().xml.is_empty());

    handle.shutdown();
    handle.join();
}

#[test]
fn recovery_gate_answers_recovering_then_the_recovered_catalog_serves() {
    let dir = TempDir::new("gate");

    // Seed a durable catalog and crash it without a clean shutdown: the
    // marker update exists only in the WAL tail.
    {
        let engine = Engine::recover(EngineConfig::default(), &dir.0).unwrap();
        let doc = engine.open_document("wards");
        hospital::install_sample(&doc).unwrap();
        doc.update(
            "insert <patient><pname>durable-marker</pname><visit><treatment>\
             <medication>autism</medication></treatment><date>d</date></visit>\
             </patient> into hospital",
        )
        .unwrap();
    }

    // Bind the socket first; while recovery replays, the gate answers
    // RECOVERING error frames instead of refusing connections.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let gate = RecoveryGate::start(&listener).unwrap();
    let gate_addr = listener.local_addr().unwrap();
    {
        let mut s = TcpStream::connect(gate_addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(&Request::Ping.encode(1)).unwrap();
        let mut fb = FrameBuffer::new();
        let frame = read_raw_frame(&mut s, &mut fb).expect("gate answers, never refuses");
        match Response::decode(frame.op, &frame.payload).unwrap() {
            Response::Error { code: c, .. } => assert_eq!(c, code::RECOVERING),
            other => panic!("unexpected {other:?}"),
        }
    }

    let engine = Engine::recover(EngineConfig::default(), &dir.0).unwrap();
    assert!(engine.recovery_epoch() >= 1);
    gate.finish();
    let handle = Server::start_on(listener, engine.clone(), ServerConfig::default()).unwrap();

    // The same socket now serves the recovered catalog, WAL tail included.
    let mut admin = connect(&handle);
    admin.hello("wards", Principal::Admin).unwrap();
    let answer = admin.query("//pname").unwrap();
    assert!(
        answer.xml.iter().any(|x| x.contains("durable-marker")),
        "the WAL-tail update must survive into the served catalog"
    );

    // Stats surface the recovery epoch on the wire.
    let stats = admin.stats(false).unwrap();
    assert_eq!(stats.epoch, engine.recovery_epoch());
    assert!(stats.epoch >= 1);
    assert_eq!(stats.slow_client_drops, 0);

    handle.shutdown();
    handle.join();
}

#[test]
fn retry_policy_rides_out_busy_refusals() {
    let (handle, _engine) = start_server(ServerConfig {
        default_quota: TenantQuota {
            rate_per_sec: 10.0,
            burst: 1,
            max_inflight: 4,
        },
        ..ServerConfig::default()
    });

    // Back-to-back queries from one researcher overrun a burst-1 bucket,
    // so without retries some would surface Busy. The policy absorbs
    // them: every request completes, and the retries are observable.
    let mut client = researcher(&handle);
    client.set_retry_policy(Some(RetryPolicy {
        max_attempts: 12,
        base_ms: 5,
        cap_ms: 300,
        seed: 42,
    }));
    for _ in 0..4 {
        assert!(!client.query("//medication").unwrap().xml.is_empty());
    }
    assert!(
        client.busy_retries() >= 1,
        "burst-1 quota must have refused at least one attempt"
    );

    handle.shutdown();
    handle.join();
}
