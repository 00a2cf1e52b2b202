//! Traffic simulation: many concurrent client sessions, mixed load,
//! honest latency numbers.
//!
//! The harness is the serving layer's benchmark *and* its stress test:
//! `smoqe bench-traffic` runs it from the CLI, `tests/server.rs` runs it
//! small to assert quota isolation, and CI's server/chaos/crash-recovery
//! smokes drive real server binaries with it.
//!
//! Each session is one real TCP connection on its own thread, bound to a
//! principal at `Hello`, issuing a deterministic pseudo-random mix of
//! single queries, batches and (admin sessions only)
//! insert+delete update transactions that leave the document unchanged.
//! Determinism matters: two runs with the same seed issue the same
//! request sequence, so configurations are comparable. `Busy` responses
//! are honored — back off by the server's hint and retry — and counted,
//! because an admission-controlled server's throughput is only
//! meaningful together with its refusal rate.

use std::time::{Duration, Instant};

use crate::client::{Client, ClientError, RetryPolicy};
use crate::proto::Principal;

/// Deterministic per-session request mix generator (xorshift64*).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// What to throw at the server.
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Catalog document every session binds to.
    pub document: String,
    /// Concurrent sessions (one thread + one connection each).
    pub sessions: usize,
    /// Requests each session issues.
    pub requests_per_session: usize,
    /// Principals, assigned to sessions round-robin.
    pub principals: Vec<Principal>,
    /// Query pool for single reads (group-safe queries).
    pub read_queries: Vec<String>,
    /// Query pool for shared-scan batches.
    pub batch_queries: Vec<String>,
    /// Queries per batch request.
    pub batch_size: usize,
    /// Percent of requests that are batches.
    pub batch_pct: u64,
    /// Percent of requests that are update transactions. Only admin
    /// sessions write (group writes against the hospital policy would
    /// measure denials, not the update path); group sessions convert the
    /// write share into reads.
    pub write_pct: u64,
    /// Seed for the deterministic mix.
    pub seed: u64,
    /// Retries per request when the server answers `Busy` (each waits
    /// the hinted backoff first).
    pub busy_retries: u32,
    /// Token presented by admin sessions at `Hello`. Needed when the
    /// target server has an `admin_token` configured (i.e. it serves
    /// admins over non-loopback networks).
    pub admin_token: Option<String>,
    /// Per-request deadline every session installs on its client
    /// (`None` = no deadline). Deadline expiries — client- or
    /// server-side — count into the report's `errors` column.
    pub deadline: Option<Duration>,
}

impl TrafficConfig {
    /// A ready-made mixed workload over the hospital document: sessions
    /// alternate admin / researchers, 10% batches, 5% writes.
    pub fn hospital(addr: String, sessions: usize, requests_per_session: usize) -> Self {
        TrafficConfig {
            addr,
            document: "wards".to_string(),
            sessions,
            requests_per_session,
            principals: vec![
                Principal::Admin,
                Principal::Group(smoqe::workloads::hospital::GROUP.to_string()),
            ],
            // Queries valid on both the document and the view keep the
            // pool shared across principals.
            read_queries: vec![
                "hospital/patient".to_string(),
                "//medication".to_string(),
                "hospital/patient/(parent/patient)*/pname".to_string(),
            ],
            batch_queries: vec![
                "hospital/patient".to_string(),
                "//medication".to_string(),
                "//treatment".to_string(),
                "hospital/patient/pname".to_string(),
            ],
            batch_size: 3,
            batch_pct: 10,
            write_pct: 5,
            seed: 0x5A0_0E5,
            busy_retries: 8,
            admin_token: None,
            deadline: None,
        }
    }
}

/// Latency digest of one request population, microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Requests in the population.
    pub count: u64,
    /// Median.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Arithmetic mean.
    pub mean_us: u64,
}

impl LatencySummary {
    /// Digests a latency population (sorts in place).
    pub fn from_samples(samples: &mut [u64]) -> LatencySummary {
        samples.sort_unstable();
        let count = samples.len() as u64;
        let mean = if samples.is_empty() {
            0
        } else {
            samples.iter().sum::<u64>() / count
        };
        LatencySummary {
            count,
            p50_us: percentile(samples, 50.0),
            p95_us: percentile(samples, 95.0),
            p99_us: percentile(samples, 99.0),
            mean_us: mean,
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (0 if empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What happened, in aggregate and per tenant.
#[derive(Clone, Debug, Default)]
pub struct TrafficReport {
    /// All successful requests.
    pub overall: LatencySummary,
    /// Per-tenant digests, sorted by tenant key.
    pub per_tenant: Vec<(String, LatencySummary)>,
    /// Successful requests per second of wall time.
    pub qps: f64,
    /// Wall time of the whole run.
    pub elapsed: Duration,
    /// Successful requests.
    pub ok: u64,
    /// `Busy` responses received (before retries succeeded or gave up).
    pub busy: u64,
    /// Requests that exhausted their busy retries.
    pub starved: u64,
    /// Engine-level errors (error frames with engine codes).
    pub errors: u64,
    /// Protocol or I/O failures — the number the acceptance gate pins at
    /// **zero**: a correct server under overload refuses politely, it
    /// never breaks framing or drops connections.
    pub protocol_errors: u64,
}

enum Op {
    Read(String),
    Batch(Vec<String>),
    Write(Vec<String>),
}

struct SessionOutcome {
    tenant: String,
    latencies: Vec<u64>,
    busy: u64,
    starved: u64,
    errors: u64,
    protocol_errors: u64,
}

/// Runs the configured workload to completion and reports.
///
/// Connection or hello failures surface as `Err` (the run never started
/// meaningfully); per-request failures are *counted*, not returned — a
/// stress run must outlive the failures it is measuring.
pub fn run_traffic(config: &TrafficConfig) -> Result<TrafficReport, ClientError> {
    // Fail fast (and outside the measured window) if the server is not
    // there at all.
    Client::connect(&config.addr)?.ping()?;

    let started = Instant::now();
    let mut handles = Vec::with_capacity(config.sessions);
    for si in 0..config.sessions {
        let config = config.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("traffic-{si}"))
                .spawn(move || run_session(&config, si))
                .expect("spawn traffic session"),
        );
    }

    let mut all = Vec::new();
    let mut per_tenant: std::collections::BTreeMap<String, Vec<u64>> = Default::default();
    let mut report = TrafficReport::default();
    for handle in handles {
        let outcome = match handle.join() {
            Ok(Ok(o)) => o,
            Ok(Err(e)) => return Err(e),
            Err(_) => {
                report.protocol_errors += 1;
                continue;
            }
        };
        report.busy += outcome.busy;
        report.starved += outcome.starved;
        report.errors += outcome.errors;
        report.protocol_errors += outcome.protocol_errors;
        per_tenant
            .entry(outcome.tenant)
            .or_default()
            .extend_from_slice(&outcome.latencies);
        all.extend(outcome.latencies);
    }
    report.elapsed = started.elapsed();
    report.ok = all.len() as u64;
    report.qps = report.ok as f64 / report.elapsed.as_secs_f64().max(1e-9);
    report.overall = LatencySummary::from_samples(&mut all);
    report.per_tenant = per_tenant
        .into_iter()
        .map(|(tenant, mut samples)| (tenant, LatencySummary::from_samples(&mut samples)))
        .collect();
    Ok(report)
}

fn pick_op(config: &TrafficConfig, rng: &mut Rng, admin: bool, si: usize, i: usize) -> Op {
    let roll = rng.below(100);
    if admin && roll < config.write_pct {
        // A self-cancelling transaction with a session-unique name:
        // exercises the full secure-update path (validation, snapshot
        // swap, TAX patch) while keeping the document byte-stable for
        // every other session's assertions.
        let name = format!("w{si}x{i}");
        return Op::Write(vec![
            format!(
                "insert <patient><pname>{name}</pname><visit><treatment>\
                 <test>mri</test></treatment><date>2026-01-01</date></visit>\
                 </patient> into hospital"
            ),
            format!("delete hospital/patient[pname = '{name}']"),
        ]);
    }
    if roll < config.write_pct + config.batch_pct && !config.batch_queries.is_empty() {
        let mut batch = Vec::with_capacity(config.batch_size);
        for _ in 0..config.batch_size.max(1) {
            let q = rng.below(config.batch_queries.len() as u64) as usize;
            batch.push(config.batch_queries[q].clone());
        }
        return Op::Batch(batch);
    }
    let q = rng.below(config.read_queries.len() as u64) as usize;
    Op::Read(config.read_queries[q].clone())
}

fn run_session(config: &TrafficConfig, si: usize) -> Result<SessionOutcome, ClientError> {
    let principal = config.principals[si % config.principals.len().max(1)].clone();
    let mut client = Client::connect(&config.addr)?;
    client.set_timeout(Some(Duration::from_secs(60))).ok();
    client.set_request_deadline(config.deadline);
    // The client's own retry policy absorbs Busy refusals: at least the
    // server's retry_after hint, exponential past it, capped at 100ms so
    // a saturated run still makes progress, jittered per-session so the
    // fleet doesn't stampede the admission gate in lockstep.
    client.set_retry_policy(Some(RetryPolicy {
        max_attempts: config.busy_retries.saturating_add(1),
        base_ms: 2,
        cap_ms: 100,
        seed: config.seed ^ (si as u64).wrapping_mul(0xD134_2543_DE82_EF95),
    }));
    let auth = if principal.is_admin() {
        config.admin_token.as_deref()
    } else {
        None
    };
    let tenant = client.hello_auth(&config.document, principal.clone(), auth)?;

    let mut rng = Rng::new(config.seed ^ (si as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut outcome = SessionOutcome {
        tenant,
        latencies: Vec::with_capacity(config.requests_per_session),
        busy: 0,
        starved: 0,
        errors: 0,
        protocol_errors: 0,
    };

    for i in 0..config.requests_per_session {
        let op = pick_op(config, &mut rng, principal.is_admin(), si, i);
        let retries_before = client.busy_retries();
        let t0 = Instant::now();
        let result = match &op {
            Op::Read(q) => client.query(q).map(drop),
            Op::Batch(qs) => {
                let refs: Vec<&str> = qs.iter().map(String::as_str).collect();
                client.query_batch(&refs).map(drop)
            }
            Op::Write(stmts) => {
                let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
                client.update_batch(&refs).map(drop)
            }
        };
        // Busy refusals the policy retried through still count, so the
        // report's `busy` column keeps its meaning under the new client.
        outcome.busy += client.busy_retries() - retries_before;
        match result {
            Ok(()) => {
                // Client-perceived completion time, backoff included.
                outcome
                    .latencies
                    .push(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
            }
            Err(ClientError::Busy { .. }) | Err(ClientError::Overloaded { .. }) => {
                // The policy's attempt budget ran out: starved.
                outcome.busy += 1;
                outcome.starved += 1;
            }
            Err(ClientError::Remote { .. }) | Err(ClientError::DeadlineExceeded) => {
                outcome.errors += 1;
            }
            Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {
                // The connection is gone; the session cannot continue.
                outcome.protocol_errors += 1;
                return Ok(outcome);
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn summary_digests_population() {
        let mut samples = vec![30, 10, 20];
        let s = LatencySummary::from_samples(&mut samples);
        assert_eq!(s.count, 3);
        assert_eq!(s.p50_us, 20);
        assert_eq!(s.mean_us, 20);
        assert_eq!(s.p99_us, 30);
    }

    #[test]
    fn mix_is_deterministic_per_seed() {
        let config = TrafficConfig::hospital("unused".into(), 4, 16);
        let gen = |seed: u64| {
            let mut rng = Rng::new(seed);
            (0..50).map(|_| rng.below(100)).collect::<Vec<_>>()
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
        // The hospital mix really does contain writes and batches.
        let mut rng = Rng::new(config.seed);
        let ops: Vec<Op> = (0..200)
            .map(|i| pick_op(&config, &mut rng, true, 0, i))
            .collect();
        assert!(ops.iter().any(|o| matches!(o, Op::Write(_))));
        assert!(ops.iter().any(|o| matches!(o, Op::Batch(_))));
        assert!(ops.iter().any(|o| matches!(o, Op::Read(_))));
    }
}
