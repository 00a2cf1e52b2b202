//! `serve_mixed_open` — writes beside reads, on a schedule.
//!
//! TCP **open loop** at a fixed [`RATE`], default tenant quotas, a
//! durable engine (`Engine::recover` on a scratch directory) over a
//! 10 000-node document. Each client thread holds an admin and a
//! `researchers` connection and sends request `i` when it is due,
//! whatever became of the requests before it. Per request: 65 %
//! `researchers` point reads, 5 % admin point reads, 10 % unselective reads
//! (one in twenty a large answer), 10 % batches (always the same three
//! view queries, as `researchers`) and 10 %
//! self-cancelling admin update transactions (insert + delete, so the
//! document — and every expected answer — stays what the oracle saw).
//! Independent users arrive on a schedule, so latency counts from the
//! instant a request was *due*: snapshot swaps, TAX patches, WAL appends
//! and plan-cache purges land while reads queue behind them. The shares
//! put the read median well inside the `researchers` point reads (half a
//! millisecond each, most of it guard checks per top-level patient of the
//! view — an admin point read is 60 µs of socket and thread hand-offs,
//! which a busy neighbour on the host doubles) and the 95th percentile
//! among the batches.

use super::wire::{self, server_extras, status_of, Served};
use super::{finish, gate_failed, Load, Prepared, ThreadOut};
use crate::data::{
    gate, hospital_xml, load_hospital, point_pool, scan_pool, sessions, PoolQuery, Who,
};
use crate::harness::{
    clients, open_loop, timed_setup, Ctx, Kind, Limits, Report, Shape, Status, WallClock,
};
use crate::staged::Stage;
use crate::trace::Tracer;
use crate::util::{percentile, Rng, TempDir};
use smoqe::{Engine, EngineConfig};
use std::time::Instant;

pub const NAME: &str = "serve_mixed_open";
const NODES: usize = 10_000;
const UNIQUES: usize = 32;
/// Requests per second, all connections together.
const RATE: f64 = 200.0;
const SHAPE: Shape = Shape {
    primary: &[Kind::Read, Kind::Batch, Kind::Update],
    per_op: 1.0,
    limits: Limits::ms(50, 250),
    open: true,
};
const BATCH: usize = 3;
/// How much slower the traced part of a traced run sends. The staged
/// replay of a request runs on the generator's thread before the next
/// send; at the full rate it made the next requests late, and the traced
/// latencies (from due time) then measured the replay, not the tracing.
const TRACED_SLOWDOWN: u64 = 4;

/// What one request does.
enum Mixed {
    Read(usize),
    Batch([usize; BATCH]),
    Update(u64),
}

/// Indices into the gated pool, by what the mix draws from.
struct Pools {
    point: [Vec<usize>; 2],
    scan: [Vec<usize>; 2],
    large: [usize; 2],
    /// The one batch every batch request sends: three of the group's
    /// unselective view queries. The 95th percentile of the reads falls
    /// among the batches, and a percentile repeats only where the
    /// population around it costs the same from one request to the next —
    /// with batches drawn at random (3 to 11 ms) it moved by a third
    /// between runs.
    batch: [usize; BATCH],
}

/// Requests per block of the mix.
const BLOCK: u64 = 20;

/// The mix: request `i` of client thread `thread`, a pure function of
/// the seed, and the connection it goes out on. Every block of twenty
/// consecutive requests holds exactly 13 `researchers` point reads, 1
/// admin point read, 2 unselective reads, 2 batches and 2 update
/// transactions, in a seeded order — the shares are exact, so no stretch
/// of the run is heavier than another by the luck of the draw.
/// `researchers` cannot write (a denied write would measure the denial),
/// so the updates are the admin's.
fn pick(seed: u64, thread: usize, i: u64, pools: &Pools) -> (Who, Mixed) {
    let block = ((thread as u64) << 40) | (i / BLOCK);
    let mut order: Vec<u64> = (0..BLOCK).collect();
    Rng::forked(seed, block).shuffle(&mut order);
    let slot = order[(i % BLOCK) as usize];
    let mut rng = Rng::forked(seed ^ 0xA11, ((thread as u64) << 40) | i);
    let from = |rng: &mut Rng, pool: &[usize]| pool[rng.below(pool.len() as u64) as usize];
    // Unselective reads alternate between the principals; the batches
    // and all point reads but one are the group's.
    let who = match slot {
        3..=6 => Who::Admin,
        _ => Who::Group,
    };
    let side = who as usize;
    let what = match slot {
        0 | 1 => Mixed::Batch(pools.batch),
        2 | 3 if rng.below(20) == 0 => Mixed::Read(pools.large[side]),
        2 | 3 => Mixed::Read(from(&mut rng, &pools.scan[side])),
        4 | 5 => Mixed::Update(i),
        _ => Mixed::Read(from(&mut rng, &pools.point[side])),
    };
    (who, what)
}

/// An insert and the delete that undoes it, named after the request so
/// no two transactions collide.
fn self_cancelling(seed: u64, i: u64) -> [String; 2] {
    let name = format!("w{seed}n{i}");
    [
        format!(
            "insert <patient><pname>{name}</pname><visit><treatment><test>mri</test></treatment>\
             <date>2026-01-01</date></visit></patient> into hospital"
        ),
        format!("delete hospital/patient[pname = '{name}']"),
    ]
}

pub fn run(ctx: &Ctx) -> Report {
    let xml = hospital_xml(ctx.seed, ctx.nodes(NODES), UNIQUES, None);
    let mut pool = point_pool(ctx.seed, UNIQUES, UNIQUES);
    let point_len = pool.len();
    pool.extend(scan_pool());
    let scan_end = pool.len();
    pool.push(PoolQuery {
        who: Who::Admin,
        text: "hospital/patient/visit/treatment".to_string(),
    });
    pool.push(PoolQuery {
        who: Who::Group,
        text: "hospital/patient/treatment".to_string(),
    });
    let of = |who: Who, range: std::ops::Range<usize>| -> Vec<usize> {
        range.filter(|&at| pool[at].who == who).collect()
    };
    let pools = Pools {
        point: [of(Who::Admin, 0..point_len), of(Who::Group, 0..point_len)],
        scan: [
            of(Who::Admin, point_len..scan_end),
            of(Who::Group, point_len..scan_end),
        ],
        large: [scan_end, scan_end + 1],
        batch: [1, 3, 5].map(|n| of(Who::Group, point_len..scan_end)[n]),
    };

    let mut rep = 0;
    let (served, setup_s) = timed_setup(ctx.setup_reps(7), ctx.setup_fill_s(), || {
        rep += 1;
        let dir = TempDir::new(&ctx.out_dir, &format!("mixed-{rep}"));
        let engine = Engine::recover(EngineConfig::default(), dir.path())
            .expect("fresh data directory opens");
        let handle = load_hospital(&engine, &xml, true);
        Served::start(engine, handle, false, Some(dir))
    });
    let (expected, checksum) = match gate(&served.handle, &xml, &pool) {
        Ok(gated) => gated,
        Err(why) => return gate_failed(NAME, why),
    };
    let sessions = sessions(&served.handle);
    let threads = clients();
    let interval_ns = (threads as f64 / RATE * 1e9) as u64;
    let origin = Instant::now();

    let outs: Vec<ThreadOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                let (served, sessions, pool, pools, expected) =
                    (&served, &sessions, &pool, &pools, &expected);
                scope.spawn(move || {
                    let mut connections = [served.connect(Who::Admin), served.connect(Who::Group)];
                    for (at, query) in pool.iter().enumerate() {
                        // Warm-up lap.
                        wire::query_op(
                            &mut connections[query.who as usize],
                            sessions,
                            query,
                            &expected[at],
                            0,
                            None,
                        );
                    }
                    let mut tracer = ctx.trace.then(|| Tracer::new(origin));
                    let mut stage = ctx.trace.then(|| Stage::new(&served.engine));
                    let mut phase = |from: u64, seconds: f64, traced: bool| {
                        let clock = WallClock(Instant::now());
                        let interval_ns = if traced {
                            interval_ns * TRACED_SLOWDOWN
                        } else {
                            interval_ns
                        };
                        open_loop(&clock, interval_ns, (seconds * 1e9) as u64, |n| {
                            let i = from + n;
                            let tracing = match (traced, tracer.as_mut(), stage.as_mut()) {
                                (true, Some(t), Some(s)) => Some((t, s)),
                                _ => None,
                            };
                            let (who, what) = pick(ctx.seed, thread, i, pools);
                            let (kind, status, answered) = request(
                                ctx.seed,
                                &mut connections[who as usize],
                                sessions,
                                pool,
                                expected,
                                what,
                                i,
                                tracing,
                            );
                            let answered = answered.saturating_duration_since(clock.0);
                            (kind, status, answered.as_nanos() as u64)
                        })
                    };
                    // A traced run spends its leading share untraced, to
                    // report what the tracing itself costs.
                    let lead = if ctx.trace {
                        ctx.seconds * 0.3
                    } else {
                        ctx.seconds
                    };
                    let plain = phase(0, lead, false);
                    let traced = phase(plain.attempted(), ctx.seconds - lead, true);
                    (plain, traced, tracer, stage.map(|s| s.counters))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut load = Load::default();
    outs.into_iter().for_each(|out| load.absorb(out));
    // How late the generator ran at the full rate: the untraced part.
    let mut lag = load.plain.send_lag.clone();
    lag.sort_unstable();
    let mut notes = vec![
        format!(
            "document: {} bytes; open loop at {RATE} req/s from {threads} client threads with two connections each, {} workers, default quotas, durable engine",
            xml.len(),
            clients()
        ),
        format!(
            "  generator: send lag p50={:.1}us p95={:.1}us max={:.1}us",
            percentile(&lag, 50.0) as f64 / 1e3,
            percentile(&lag, 95.0) as f64 / 1e3,
            lag.last().copied().unwrap_or(0) as f64 / 1e3
        ),
    ];
    let mut extras = vec![(
        "server.send_lag_us_p95",
        percentile(&lag, 95.0) as f64 / 1e3,
    )];
    if ctx.trace {
        extras.extend(wire::wire_extras(&load));
        extras.extend(server_extras(&served));
        extras.extend(super::durable_extras(&served.engine, xml.len(), &mut notes));
    }
    let prepared = Prepared {
        workload: NAME,
        xml: &xml,
        setup_s,
        checksum,
    };
    finish(ctx, &prepared, load, &SHAPE, &extras, notes)
}

/// One request of the mix over the wire, checked, and when its answer
/// arrived; traced, its spans.
#[allow(clippy::too_many_arguments)]
fn request(
    seed: u64,
    client: &mut smoqe_server::Client,
    sessions: &[smoqe::Session; 2],
    pool: &[PoolQuery],
    expected: &[crate::data::Expected],
    what: Mixed,
    i: u64,
    mut tracing: Option<(&mut Tracer, &mut Stage)>,
) -> (Kind, Status, Instant) {
    let (kind, status, start, end) = match what {
        Mixed::Read(at) => {
            let reborrowed = tracing.as_mut().map(|(t, s)| (&mut **t, &mut **s));
            let r = wire::query_op(client, sessions, &pool[at], &expected[at], i, reborrowed);
            (r.kind, r.status, r.start, r.end)
        }
        Mixed::Batch(ats) => {
            let who = pool[ats[0]].who;
            let texts: Vec<&str> = ats.iter().map(|&at| pool[at].text.as_str()).collect();
            let start = Instant::now();
            let result = client.query_batch(&texts);
            let end = Instant::now();
            let status = match &result {
                Ok((answers, _)) => {
                    let all = answers.len() == ats.len()
                        && answers
                            .iter()
                            .zip(ats)
                            .all(|(a, at)| expected[at].matches_wire(who, a));
                    if all {
                        Status::Ok
                    } else {
                        Status::Mismatch
                    }
                }
                Err(e) => status_of(e),
            };
            (Kind::Batch, status, start, end)
        }
        Mixed::Update(n) => {
            let statements = self_cancelling(seed, n);
            let before = tracing.as_ref().map(|(_, stage)| stage.snapshot());
            let start = Instant::now();
            let result = client.update_batch(&[&statements[0], &statements[1]]);
            let end = Instant::now();
            let status = match &result {
                Ok(reports) if reports.len() == 2 => Status::Ok,
                Ok(_) => Status::Mismatch,
                Err(e) => status_of(e),
            };
            if let (Some((tracer, stage)), Some(before)) = (tracing.as_mut(), before) {
                let mut state = Some(before);
                for statement in &statements {
                    state = state.and_then(|s| stage.update(tracer, i, Who::Admin, statement, &s));
                }
            }
            (Kind::Update, status, start, end)
        }
    };
    if let Some((tracer, _)) = tracing {
        tracer.root(kind.root_span(), i, start, end);
        tracer.finish_request();
    }
    (kind, status, end)
}
