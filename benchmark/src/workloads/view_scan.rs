//! `view_scan` — the control: unselective queries over a warm plan cache.
//!
//! In-process closed loop, one thread per client, admin and `researchers`
//! sessions over a 100 000-node document, walking the thirteen-query
//! unselective pool in seeded laps. Every plan is cached after the first
//! lap and the answers are large, so evaluation (`hype`) does nearly all
//! the work; `server`, `update` and the planning layers do none. A change
//! to serving or planning must leave this workload where it was.

use super::{cache_delta, finish, gate_failed, query_op, run_threads, Prepared};
use crate::data::{gate, hospital_xml, load_hospital, scan_pool, sessions, LapWalker};
use crate::harness::{clients, timed_setup, Ctx, Kind, Limits, Report, Shape};
use smoqe::Engine;

pub const NAME: &str = "view_scan";
const NODES: usize = 100_000;
const UNIQUES: usize = 64;
const SHAPE: Shape = Shape {
    primary: &[Kind::Read],
    per_op: 1.0,
    limits: Limits::ms(50, 250),
    open: false,
};

pub fn run(ctx: &Ctx) -> Report {
    let xml = hospital_xml(ctx.seed, ctx.nodes(NODES), UNIQUES, None);
    let pool = scan_pool();
    let ((engine, handle), setup_s) = timed_setup(ctx.setup_reps(9), ctx.setup_fill_s(), || {
        let engine = Engine::with_defaults();
        let handle = load_hospital(&engine, &xml, true);
        (engine, handle)
    });
    let (expected, checksum) = match gate(&handle, &xml, &pool) {
        Ok(gated) => gated,
        Err(why) => return gate_failed(NAME, why),
    };
    let sessions = sessions(&handle);
    for (query, want) in pool.iter().zip(&expected) {
        query_op(&sessions, query, Some(want), 0, None); // warm-up lap
    }
    let before = engine.cache_metrics();
    let load = run_threads(ctx, clients(), &engine, |thread| {
        let mut walker = LapWalker::new(ctx.seed, thread, pool.len());
        let (sessions, pool, expected) = (&sessions, &pool, &expected);
        Box::new(move |i, tracing| {
            let at = walker.at(i);
            query_op(sessions, &pool[at], Some(&expected[at]), i, tracing)
        })
    });
    let extras = cache_delta(before, engine.cache_metrics());
    let notes = vec![format!(
        "document: {} bytes, {} nodes; {} client threads, closed loop",
        xml.len(),
        handle.document().map_or(0, |d| d.node_count()),
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
