//! `serve_point` — the server is the cost.
//!
//! TCP closed loop against an in-process server with one worker per
//! client and every tenant quota lifted. Each client thread holds an
//! admin and a `researchers` connection and sends, in laps of three, two
//! admin point queries (a unique `pname`: a one-element posting list, a
//! few microseconds of evaluation, a two-node answer) and one
//! `researchers` point query (a unique `medication` through the view),
//! never more than one request in flight per thread. Two in three
//! requests barely touch `hype`, so protocol, reader threads, queue and
//! admission are what the median measures — the workload where a
//! reactor shows, and where `view_scan` must not move. The 95th
//! percentile sits among the `researchers` queries: the view path over
//! the wire.

use super::wire::{query_op, server_extras, wire_extras, Served};
use super::{cache_delta, finish, gate_failed, run_threads, Prepared};
use crate::data::{gate, hospital_xml, load_hospital, point_pool, sessions, LapWalker, Who};
use crate::harness::{clients, timed_setup, Ctx, Kind, Limits, Report, Shape};
use smoqe::Engine;

pub const NAME: &str = "serve_point";
const NODES: usize = 2_000;
/// Generated top-level patients kept.
const TOP_LEVEL: usize = 8;
const UNIQUES: usize = 8;
const SHAPE: Shape = Shape {
    primary: &[Kind::Read],
    per_op: 1.0,
    limits: Limits::ms(50, 250),
    open: false,
};

pub fn run(ctx: &Ctx) -> Report {
    let xml = hospital_xml(ctx.seed, NODES, UNIQUES, Some(TOP_LEVEL));
    let pool = point_pool(ctx.seed, UNIQUES, UNIQUES);
    let (served, setup_s) = timed_setup(ctx.setup_reps(15), ctx.setup_fill_s(), || {
        let engine = Engine::with_defaults();
        let handle = load_hospital(&engine, &xml, true);
        Served::start(engine, handle, true, None)
    });
    let (expected, checksum) = match gate(&served.handle, &xml, &pool) {
        Ok(gated) => gated,
        Err(why) => return gate_failed(NAME, why),
    };
    let sessions = sessions(&served.handle);
    let before = served.engine.cache_metrics();
    let load = run_threads(ctx, clients(), &served.engine, |thread| {
        let (served, sessions, pool, expected) = (&served, &sessions, &pool, &expected);
        let mut connections = [served.connect(Who::Admin), served.connect(Who::Group)];
        // The pool holds the admin's queries first, then the group's.
        let side = pool.len() / 2;
        for (at, query) in pool.iter().enumerate() {
            // Warm-up lap: plans cached, connections and buffers hot.
            query_op(
                &mut connections[query.who as usize],
                sessions,
                query,
                &expected[at],
                0,
                None,
            );
        }
        let mut walkers = [
            LapWalker::new(ctx.seed, thread * 2, side),
            LapWalker::new(ctx.seed, thread * 2 + 1, side),
        ];
        Box::new(move |i, tracing| {
            let (lap, slot) = (i / 3, i % 3);
            let at = if slot < 2 {
                walkers[0].at(lap * 2 + slot)
            } else {
                side + walkers[1].at(lap)
            };
            let query = &pool[at];
            query_op(
                &mut connections[query.who as usize],
                sessions,
                query,
                &expected[at],
                i,
                tracing,
            )
        })
    });
    let mut extras = cache_delta(before, served.engine.cache_metrics()).to_vec();
    if ctx.trace {
        extras.extend(wire_extras(&load));
        extras.extend(server_extras(&served));
    }
    let notes = vec![format!(
        "document: {} bytes; {} client threads with two connections each, closed loop; {} workers",
        xml.len(),
        clients(),
        clients()
    )];
    let prepared = Prepared {
        workload: NAME,
        xml: &xml,
        setup_s,
        checksum,
    };
    finish(ctx, &prepared, load, &SHAPE, &extras, notes)
}
