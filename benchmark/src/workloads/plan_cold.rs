//! `plan_cold` — every query a plan-cache miss.
//!
//! In-process closed loop, **one** thread, a `researchers` session over a
//! small document (eight generated top-level patients), asking three
//! view-query shapes with a literal no earlier query used: each one runs
//! parse → rewrite → optimize → compile, and — set-up ends with the cache
//! full, which is most of this workload's `setup_s` — each insert evicts. The document is small so that
//! evaluation is short beside planning: `rxpath`, `rewrite`, `automata`
//! and the plan cache dominate here, where `view_scan` bypasses them (its
//! working set fits the plan cache, this one's never does).
//!
//! One thread, not one per client: two threads missing at once spend
//! their time handing the cache's write lock to each other, and what a
//! lock hand-off costs on the sandbox (a wake-up across processors of a
//! virtual machine) swings by more than the planning this workload is
//! here to measure.

use super::{cache_delta, finish, gate_failed, query_op, run_threads, Prepared};
use crate::data::{
    cold_query, fresh_literal, gate, hospital_xml, load_hospital, sessions, unique_medication,
    Expected, PoolQuery, Who, COLD_SHAPES,
};
use crate::harness::{timed_setup, Ctx, Kind, Limits, Report, Shape};
use smoqe::Engine;

pub const NAME: &str = "plan_cold";
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
    let nothing = Expected::empty();
    // Set-up ends with the plan cache full, so that every timed miss
    // also evicts — the steady state of a working set larger than the
    // cache. (Loading the ~5 KB document alone takes a tenth of a
    // millisecond: too short a time to repeat within a quarter.)
    let ((engine, handle), setup_s) = timed_setup(ctx.setup_reps(5), ctx.setup_fill_s(), || {
        let engine = Engine::with_defaults();
        let handle = load_hospital(&engine, &xml, true);
        let sessions = sessions(&handle);
        for n in 0..engine.config().plan_cache_capacity as u64 {
            let query = PoolQuery {
                who: Who::Group,
                text: cold_query(n as usize, &fresh_literal(ctx.seed, 0, u64::MAX - n)),
            };
            query_op(&sessions, &query, Some(&nothing), 0, None);
        }
        (engine, handle)
    });
    // The gate asks every shape with literals that do match, so a shape
    // that silently answered nothing would be caught; the timed ops use
    // fresh literals and must answer nothing.
    let gate_pool: Vec<PoolQuery> = (0..COLD_SHAPES.len() * UNIQUES)
        .map(|n| PoolQuery {
            who: Who::Group,
            text: cold_query(n, &unique_medication(ctx.seed, n / COLD_SHAPES.len())),
        })
        .collect();
    let checksum = match gate(&handle, &xml, &gate_pool) {
        Ok((expected, checksum)) if expected.iter().all(|e| e.count > 0) => checksum,
        Ok(_) => return gate_failed(NAME, "a shape matched nothing".to_string()),
        Err(why) => return gate_failed(NAME, why),
    };
    let sessions = sessions(&handle);
    let before = engine.cache_metrics();
    let load = run_threads(ctx, 1, &engine, |thread| {
        let (sessions, nothing) = (&sessions, &nothing);
        Box::new(move |i, tracing| {
            let query = PoolQuery {
                who: Who::Group,
                text: cold_query(i as usize, &fresh_literal(ctx.seed, thread, i)),
            };
            query_op(sessions, &query, Some(nothing), i, tracing)
        })
    });
    let extras = cache_delta(before, engine.cache_metrics());
    let notes = vec![format!(
        "document: {} bytes; one client thread, closed loop; plan cache capacity {}",
        xml.len(),
        engine.config().plan_cache_capacity
    )];
    let prepared = Prepared {
        workload: NAME,
        xml: &xml,
        setup_s,
        checksum,
    };
    finish(ctx, &prepared, load, &SHAPE, &extras, notes)
}
