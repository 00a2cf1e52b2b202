//! Deadlines, cancellation and overload shedding under network chaos.
//!
//! The chaos proxy ([`smoqe_server::chaos`]) injects the faults TCP
//! produces in the wild — mid-frame stalls, byte dribble, torn request
//! writes, clients vanishing mid-response — between real clients and a
//! live server. These tests assert the invariants that make the
//! robustness work trustworthy:
//!
//! * **zero leaks** — after any mix of faults drains, the server reports
//!   `inflight == 0` and `queue_depth == 0`, and a fresh connection gets
//!   clean answers (no slot, queue entry, or worker was lost);
//! * **opacity** — deadline-exceeded and brownout refusals are
//!   byte-identical for a group principal whether the query targeted a
//!   hidden or a non-existent element (a timeout must not become an
//!   oracle);
//! * **bounded collateral** — traffic on healthy connections keeps a
//!   sane p99 while chaos runs on the faulted ones.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smoqe::{workloads::hospital, Engine};
use smoqe_server::proto::{
    code, op, Frame, FrameBuffer, Principal, Request, Response, WireStats, DEFAULT_MAX_FRAME_LEN,
};
use smoqe_server::{
    percentile, seeded_schedule, ChaosProxy, Client, Server, ServerConfig, ServerHandle,
};

/// Starts a server on a *generated* hospital document big enough that a
/// batch of closure predicates occupies a worker for seconds — the
/// deterministic "blocker" the shed tests park behind.
/// Deterministic per seed.
fn start_big_server(config: ServerConfig) -> (ServerHandle, Arc<Engine>) {
    let engine = Engine::with_defaults();
    let doc = engine.open_document("wards");
    doc.load_dtd(hospital::DTD).unwrap();
    let tree = hospital::generate_document(engine.vocabulary(), 42, 30_000);
    doc.load_document_tree(tree).unwrap();
    doc.register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    let handle = Server::start(engine.clone(), config).unwrap();
    (handle, engine)
}

/// A QueryBatch that holds one worker busy — seconds in a debug build,
/// half a second in release — while probes queue up behind it: 64 copies
/// of a predicate that walks the recursive parent chain below every
/// patient of the generated document and matches nothing, so the time is
/// all budget-checked evaluation on the DOM snapshot and the answer is
/// empty. Must run as **admin** — the policy hides `visit`, so on the
/// view this returns instantly.
fn blocker_batch() -> Request {
    let probe = "//patient[(parent/patient)*/visit/treatment/test = 'nosuch']";
    Request::QueryBatch {
        queries: vec![probe.to_string(); 64],
        deadline_ms: 0,
    }
}

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

/// Opens a raw connection bound as `principal` (hello = request 1) so
/// subsequent sends and reads can be driven independently of `Client`'s
/// blocking request/response cycle.
fn raw_conn(handle: &ServerHandle, principal: Principal) -> (TcpStream, FrameBuffer) {
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut fb = FrameBuffer::new();
    let hello = Request::Hello {
        document: "wards".into(),
        principal,
        auth: None,
    };
    stream.write_all(&hello.encode(1)).unwrap();
    let frame = read_raw_frame(&mut stream, &mut fb).unwrap();
    assert_eq!(frame.op, op::HELLO_OK, "hello must succeed");
    (stream, fb)
}

fn raw_researcher(handle: &ServerHandle) -> (TcpStream, FrameBuffer) {
    raw_conn(handle, Principal::Group(hospital::GROUP.into()))
}

fn admin(handle: &ServerHandle) -> Client {
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client.hello("wards", Principal::Admin).unwrap();
    client
}

/// Polls admin `Stats` until the server is fully drained (`inflight`
/// and `queue_depth` both zero) or the timeout passes; returns the last
/// snapshot either way for the caller's assertions.
fn await_drained(client: &mut Client, timeout: Duration) -> WireStats {
    let deadline = Instant::now() + timeout;
    loop {
        let stats = client.stats(false).unwrap();
        if (stats.inflight == 0 && stats.queue_depth == 0) || Instant::now() >= deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

// -------------------------------------------------------------------------
// Opacity: shed frames reveal nothing
// -------------------------------------------------------------------------

#[test]
fn queue_shed_deadline_frames_are_byte_identical_hidden_vs_nonexistent() {
    // One worker, so the blocker batch serializes everything behind it.
    let (handle, _engine) = start_big_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });

    // Park the only worker on a heavy batch.
    let addr = handle.local_addr();
    let blocker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();
        client.hello("wards", Principal::Admin).unwrap();
        client.request_raw(&blocker_batch()).unwrap().op
    });
    std::thread::sleep(Duration::from_millis(60));

    // Two fresh researcher connections, same ordinal request id
    // (hello = 1, query = 2), each sending a 1 ms-deadline probe that
    // expires in the queue behind the blocker. `//pname` exists but the
    // policy hides it; the other target does not exist at all.
    let (mut hidden_conn, mut hidden_fb) = raw_researcher(&handle);
    let (mut missing_conn, mut missing_fb) = raw_researcher(&handle);
    let probe = |query: &str| Request::Query {
        query: query.into(),
        deadline_ms: 1,
    };
    hidden_conn.write_all(&probe("//pname").encode(2)).unwrap();
    missing_conn
        .write_all(&probe("//nosuchelement").encode(2))
        .unwrap();

    let hidden = read_raw_frame(&mut hidden_conn, &mut hidden_fb).unwrap();
    let missing = read_raw_frame(&mut missing_conn, &mut missing_fb).unwrap();
    assert_eq!(hidden.op, op::ERROR);
    assert_eq!(hidden.op, missing.op);
    assert_eq!(hidden.request_id, missing.request_id);
    assert_eq!(
        hidden.payload, missing.payload,
        "a deadline refusal must not reveal whether the target exists"
    );
    match Response::decode(hidden.op, &hidden.payload).unwrap() {
        Response::Error { code: c, .. } => assert_eq!(c, code::DEADLINE_EXCEEDED),
        other => panic!("unexpected {other:?}"),
    }

    assert_eq!(blocker.join().unwrap(), op::BATCH_OK);

    // The sheds were counted and nothing leaked.
    let mut stats_conn = admin(&handle);
    let stats = await_drained(&mut stats_conn, Duration::from_secs(5));
    assert!(stats.shed_total + stats.deadline_total >= 2);
    assert_eq!(stats.inflight, 0);

    handle.shutdown();
    handle.join();
}

#[test]
fn brownout_refusals_are_byte_identical_and_spare_admins() {
    // Watermark zero: every non-admin engine op is refused while the
    // brownout holds — the easiest deterministic overload.
    let (handle, _engine) = start_big_server(ServerConfig {
        brownout_watermark: 0,
        ..ServerConfig::default()
    });

    let (mut hidden_conn, mut hidden_fb) = raw_researcher(&handle);
    let (mut missing_conn, mut missing_fb) = raw_researcher(&handle);
    let probe = |query: &str| Request::Query {
        query: query.into(),
        deadline_ms: 0,
    };
    hidden_conn.write_all(&probe("//pname").encode(2)).unwrap();
    missing_conn
        .write_all(&probe("//nosuchelement").encode(2))
        .unwrap();

    let hidden = read_raw_frame(&mut hidden_conn, &mut hidden_fb).unwrap();
    let missing = read_raw_frame(&mut missing_conn, &mut missing_fb).unwrap();
    assert_eq!(hidden.op, op::OVERLOADED);
    assert_eq!(hidden.op, missing.op);
    assert_eq!(hidden.request_id, missing.request_id);
    assert_eq!(
        hidden.payload, missing.payload,
        "a brownout refusal must not reveal whether the target exists"
    );
    match Response::decode(hidden.op, &hidden.payload).unwrap() {
        Response::Overloaded { retry_after_ms } => assert!(retry_after_ms > 0),
        other => panic!("unexpected {other:?}"),
    }

    // Admin work rides through the brownout.
    let mut boss = admin(&handle);
    assert!(!boss.query("//medication").unwrap().xml.is_empty());
    // The worker releases the admission slot just *after* writing the
    // response, so poll rather than race it.
    let stats = await_drained(&mut boss, Duration::from_secs(5));
    assert!(stats.overloaded_total >= 2);
    assert_eq!(stats.inflight, 0);

    handle.shutdown();
    handle.join();
}

// -------------------------------------------------------------------------
// Cancellation: vanished clients free their slots
// -------------------------------------------------------------------------

#[test]
fn dropped_connection_cancels_inflight_work_and_frees_the_slot() {
    let (handle, _engine) = start_big_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });

    // An admin sends the heavy batch (the blocker only bites on the raw
    // document), waits long enough for a worker to be mid-scan, then
    // vanishes without reading the response.
    let (mut conn, _fb) = raw_conn(&handle, Principal::Admin);
    conn.write_all(&blocker_batch().encode(2)).unwrap();
    std::thread::sleep(Duration::from_millis(80));
    conn.shutdown(Shutdown::Both).unwrap();
    drop(conn);

    // The reader thread notices the hangup, flips the connection's
    // cancel token, and the evaluation meter abandons the scan at its
    // next check — long before the batch would have finished.
    let mut boss = admin(&handle);
    let stats = await_drained(&mut boss, Duration::from_secs(10));
    assert_eq!(stats.inflight, 0, "cancelled work must release its slot");
    assert_eq!(stats.queue_depth, 0);
    assert!(
        stats.cancelled_total + stats.shed_total >= 1,
        "the abandoned batch must be counted: {stats:?}"
    );

    // The freed worker serves new traffic immediately.
    assert!(!boss.query("//medication").unwrap().xml.is_empty());

    handle.shutdown();
    handle.join();
}

// -------------------------------------------------------------------------
// The storm: every fault mode at once, zero leaks after
// -------------------------------------------------------------------------

#[test]
fn chaos_storm_leaks_nothing_and_healthy_traffic_stays_sane() {
    let (handle, _engine) = start_big_server(ServerConfig::default());
    let upstream = handle.local_addr();

    // A seeded schedule covering all five fault modes, reproducible
    // run-to-run. 24 sessions cycle through it.
    let schedule = seeded_schedule(0xC4A0_5EED, 12);
    let proxy = ChaosProxy::start(upstream, schedule).unwrap();
    let proxy_addr = proxy.local_addr();

    let victims: Vec<_> = (0..24)
        .map(|i| {
            std::thread::spawn(move || {
                // Short timeouts; every outcome is acceptable — the
                // invariants are checked on the server afterwards.
                let Ok(mut client) = Client::connect(proxy_addr) else {
                    return;
                };
                let _ = client.set_timeout(Some(Duration::from_millis(500)));
                client.set_request_deadline(Some(Duration::from_millis(300)));
                if client
                    .hello("wards", Principal::Group(hospital::GROUP.into()))
                    .is_err()
                {
                    return;
                }
                for q in ["//medication", "hospital/patient", "//treatment"] {
                    let _ = client.query(q);
                    if i % 3 == 0 {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            })
        })
        .collect();

    // Meanwhile, a *healthy* direct connection keeps querying; chaos on
    // other connections must not blow up its tail latency.
    let prober = std::thread::spawn(move || {
        let mut client = Client::connect(upstream).unwrap();
        client.set_timeout(Some(Duration::from_secs(30))).unwrap();
        client
            .hello("wards", Principal::Group(hospital::GROUP.into()))
            .unwrap();
        let mut micros: Vec<u64> = Vec::new();
        for _ in 0..40 {
            let started = Instant::now();
            client.query("//medication").unwrap();
            micros.push(started.elapsed().as_micros() as u64);
            std::thread::sleep(Duration::from_millis(2));
        }
        micros.sort_unstable();
        micros
    });

    for v in victims {
        v.join().unwrap();
    }
    let micros = prober.join().unwrap();
    let p99 = percentile(&micros, 99.0);
    assert!(
        p99 < 5_000_000,
        "healthy-connection p99 exploded under chaos: {p99}us"
    );

    assert!(proxy.connections() >= 24);
    proxy.shutdown();

    // Every fault path must have unwound completely: no admission slot
    // still held, no queue entry stranded, and the server answers a
    // fresh connection cleanly.
    let mut boss = admin(&handle);
    let stats = await_drained(&mut boss, Duration::from_secs(10));
    assert_eq!(stats.inflight, 0, "leaked admission slots: {stats:?}");
    assert_eq!(stats.queue_depth, 0, "stranded queue entries: {stats:?}");
    boss.ping().unwrap();
    assert!(!boss.query("//medication").unwrap().xml.is_empty());

    handle.shutdown();
    handle.join();
}
