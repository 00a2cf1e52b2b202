//! What the two TCP workloads share: an in-process server over the
//! engine, client connections, and the wire ops with their in-process
//! replay.

use crate::data::{Expected, PoolQuery, Who, DOC};
use crate::harness::{clients, Kind, OpResult, Status};
use crate::staged::{self, Stage};
use crate::trace::Tracer;
use smoqe::{DocHandle, Engine, Session};
use smoqe_server::{Client, ClientError, Server, ServerConfig, ServerHandle, TenantQuota};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workloads that cross a socket (and run pinned to one processor).
pub const NAMES: [&str; 2] = [super::serve_point::NAME, super::serve_mixed_open::NAME];

/// A running server and the engine behind it. Dropping it drains the
/// server and joins its threads.
pub struct Served {
    pub engine: Arc<Engine>,
    pub handle: DocHandle,
    pub addr: SocketAddr,
    server: Option<ServerHandle>,
    /// The durable engine's data directory, if it has one: removed only
    /// after the drain's final checkpoint has been written into it.
    _data_dir: Option<crate::util::TempDir>,
}

impl Served {
    /// Starts a server on an ephemeral loopback port with one worker per
    /// client. `unlimited` lifts every tenant quota (the closed-loop
    /// workload measures the server, not its admission control).
    pub fn start(
        engine: Arc<Engine>,
        handle: DocHandle,
        unlimited: bool,
        data_dir: Option<crate::util::TempDir>,
    ) -> Served {
        let mut config = ServerConfig {
            workers: clients(),
            ..ServerConfig::default()
        };
        if unlimited {
            config.default_quota = TenantQuota::unlimited();
        }
        let server = Server::start(engine.clone(), config).expect("server binds to loopback");
        let served = Served {
            engine,
            handle,
            addr: server.local_addr(),
            server: Some(server),
            _data_dir: data_dir,
        };
        // Ready means a client can bind and be answered.
        served.connect(Who::Admin).ping().expect("server answers");
        served
    }

    /// A connection bound to the document as `who`.
    pub fn connect(&self, who: Who) -> Client {
        let mut client = Client::connect(self.addr).expect("client connects");
        client
            .set_timeout(Some(Duration::from_secs(30)))
            .expect("socket timeouts set");
        client
            .hello(DOC, who.principal())
            .expect("hello is accepted");
        client
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

pub fn status_of(error: &ClientError) -> Status {
    match error {
        ClientError::Busy { .. } | ClientError::Overloaded { .. } => Status::Refused,
        ClientError::Remote { .. } | ClientError::DeadlineExceeded => Status::Error,
        ClientError::Io(_) | ClientError::Protocol(_) => Status::Protocol,
    }
}

/// One query over the wire, checked against `expected`. When tracing, the
/// same query then runs in-process through `Session::query_serialized`
/// (span `core.query_serialized`: the gap to the wire time is socket,
/// framing and queue) and is replayed staged.
pub fn query_op(
    client: &mut Client,
    sessions: &[Session; 2],
    query: &PoolQuery,
    expected: &Expected,
    i: u64,
    tracing: Option<(&mut Tracer, &mut Stage)>,
) -> OpResult {
    let start = Instant::now();
    let result = client.query(&query.text);
    let end = Instant::now();
    let status = match &result {
        Ok(answer) if expected.matches_wire(query.who, answer) => Status::Ok,
        Ok(_) => Status::Mismatch,
        Err(e) => status_of(e),
    };
    if let (Ok(wire), Some((tracer, stage))) = (&result, tracing) {
        let session = &sessions[query.who as usize];
        let t = Instant::now();
        let local = tracer.span("core.query_serialized", i, || {
            session.query_serialized(&query.text)
        });
        let local_ns = t.elapsed().as_nanos() as u64;
        if let Ok(local) = local {
            stage.counters.saw_answer(&local);
            stage.counters.wire_requests += 1;
            stage.counters.wire_bytes +=
                (wire.nodes.len() * 8 + wire.xml.iter().map(String::len).sum::<usize>()) as u64;
            let seen = staged::Observed {
                plan_cached: wire.plan_cached,
                mode: local.mode,
                serialized: true,
                // A miss is charged what the client waited for it; a hit
                // is compared with the in-process run of the same query.
                whole_ns: if wire.plan_cached {
                    local_ns
                } else {
                    (end - start).as_nanos() as u64
                },
                comparable: wire.plan_cached && local.plan_cached,
            };
            stage.query(tracer, i, query, &seen);
        }
    }
    OpResult {
        kind: Kind::Read,
        status,
        start,
        end,
    }
}

/// What the server's own counters say after a run, as per-layer extras:
/// refusals, shed requests and the service time of the trace ring
/// (admission to response, queue wait included).
pub fn server_extras(served: &Served) -> Vec<(&'static str, f64)> {
    let Ok(stats) = served.connect(Who::Admin).stats(true) else {
        return Vec::new();
    };
    let mut service: Vec<u64> = stats
        .trace
        .iter()
        .filter(|entry| entry.code == 0)
        .map(|entry| entry.micros)
        .collect();
    service.sort_unstable();
    vec![
        ("server.busy_total", stats.busy_total as f64),
        ("server.shed_total", stats.shed_total as f64),
        ("server.overloaded_total", stats.overloaded_total as f64),
        (
            "server.service_us_p50",
            crate::util::percentile(&service, 50.0) as f64,
        ),
    ]
}

/// Per-layer numbers only a wire workload has: what the socket adds over
/// the in-process call, payload per request, and the informational tail.
pub fn wire_extras(load: &super::Load) -> Vec<(&'static str, f64)> {
    let mut reads = load.traced.latencies(&[Kind::Read]);
    reads.sort_unstable();
    let mut all = load.plain.latencies(&crate::harness::READS);
    all.extend(load.traced.latencies(&crate::harness::READS));
    all.sort_unstable();
    vec![
        (
            "server.query_p99_us",
            crate::util::percentile(&all, 99.0) as f64 / 1e3,
        ),
        (
            "server.answer_bytes_per_req",
            load.counters.wire_bytes as f64 / load.counters.wire_requests.max(1) as f64,
        ),
        ("server.wire_overhead_us", {
            let local = load.trace.p50_ns("core.query_serialized") as f64;
            (crate::util::percentile(&reads, 50.0) as f64 - local) / 1e3
        }),
    ]
}
