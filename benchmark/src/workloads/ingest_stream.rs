//! `ingest_stream` — the scanner and the index builder.
//!
//! In-process. Set-up is the load path itself: every repetition opens a
//! document on a DOM engine, loads the ~1.4 MB text, builds the TAX index
//! and drops the document again, then loads the same text into an
//! `EngineConfig::streaming()` engine — so `setup_s` here is parse +
//! index time. The measured phase is the paper's StAX mode: each client
//! thread asks the streaming engine for shared-scan batches of eight
//! view queries, one sequential parse of the text per batch. The `xml`
//! scanner and `tax::build` dominate and `hype` rides along; this is the
//! workload for SIMD, mmap and on-disk-format work.
//!
//! `throughput_ops_s` counts batched queries (eight per batch);
//! `query_p50_us` / `query_p95_us` are per batch.

use super::{finish, gate_failed, run_threads, Prepared};
use crate::data::{
    gate, hospital_xml, load_hospital, unique_medication, Expected, PoolQuery, Who, DOC,
};
use crate::harness::{clients, timed_setup, Ctx, Kind, Limits, OpResult, Report, Shape, Status};
use smoqe::workloads::hospital;
use smoqe::{Engine, EngineConfig, Session};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub const NAME: &str = "ingest_stream";
const NODES: usize = 100_000;
const UNIQUES: usize = 8;
/// Queries per batch.
const BATCH: usize = 8;
const SHAPE: Shape = Shape {
    primary: &[Kind::Batch],
    per_op: BATCH as f64,
    limits: Limits::ms(1_000, 1_000),
    open: false,
};

/// The batch: the six view queries and two point shapes.
fn batch(seed: u64) -> Vec<PoolQuery> {
    let mut queries: Vec<PoolQuery> = hospital::VIEW_QUERIES
        .iter()
        .map(|(_, text)| PoolQuery {
            who: Who::Group,
            text: text.to_string(),
        })
        .collect();
    for shape in 0..BATCH - hospital::VIEW_QUERIES.len() {
        queries.push(PoolQuery {
            who: Who::Group,
            text: crate::data::cold_query(shape, &unique_medication(seed, shape)),
        });
    }
    queries
}

pub fn run(ctx: &Ctx) -> Report {
    let xml = hospital_xml(ctx.seed, ctx.nodes(NODES), UNIQUES, None);
    let queries = batch(ctx.seed);
    let (handle, setup_s) = timed_setup(ctx.setup_reps(9), ctx.setup_fill_s(), || {
        let dom = Engine::with_defaults();
        let loaded = dom.open_document(DOC);
        loaded.load_document(&xml).expect("document loads");
        loaded.build_tax_index().expect("TAX index builds");
        dom.drop_document(DOC);
        load_hospital(&Engine::new(EngineConfig::streaming()), &xml, false)
    });
    let (expected, checksum) = match gate(&handle, &xml, &queries) {
        Ok(gated) => gated,
        Err(why) => return gate_failed(NAME, why),
    };
    let session = handle.session(Who::Group.user());
    let texts: Vec<&str> = queries.iter().map(|q| q.text.as_str()).collect();
    run_batch(&session, &texts, &expected); // warm-up
    let (events, scan_ns) = (AtomicU64::new(0), AtomicU64::new(0));
    let load = run_threads(ctx, clients(), handle.engine(), |_| {
        let (session, texts, expected, events, scan_ns) =
            (&session, &texts, &expected, &events, &scan_ns);
        Box::new(move |_, _| {
            let (result, seen) = run_batch(session, texts, expected);
            events.fetch_add(seen, Ordering::Relaxed);
            scan_ns.fetch_add(
                (result.end - result.start).as_nanos() as u64,
                Ordering::Relaxed,
            );
            result
        })
    });
    let batches = load.plain.ok(&[Kind::Batch]) + load.traced.ok(&[Kind::Batch]);
    let (events, scan_s) = (
        events.into_inner() as f64,
        scan_ns.into_inner() as f64 / 1e9,
    );
    let extras = [
        ("xml.scan_events_per_s", events / scan_s.max(1e-9)),
        (
            "hype.batch_events_per_query",
            events / (batches.max(1) * texts.len() as u64) as f64,
        ),
    ];
    let notes = vec![format!(
        "document: {} bytes; set-up = DOM load + TAX build + streaming load; {} client threads, batches of {}",
        xml.len(),
        clients(),
        texts.len()
    )];
    let prepared = Prepared {
        workload: NAME,
        xml: &xml,
        setup_s,
        checksum,
    };
    finish(ctx, &prepared, load, &SHAPE, &extras, notes)
}

/// One shared-scan batch, every answer checked; also the parser events
/// of the scan.
fn run_batch(session: &Session, texts: &[&str], expected: &[Expected]) -> (OpResult, u64) {
    let start = Instant::now();
    let result = session.query_batch(texts);
    let end = Instant::now();
    let (status, events) = match &result {
        Ok(batch) => {
            let all = batch.answers.len() == expected.len()
                && batch
                    .answers
                    .iter()
                    .zip(expected)
                    .all(|(a, e)| e.matches(a));
            (
                if all { Status::Ok } else { Status::Mismatch },
                batch.events as u64,
            )
        }
        Err(_) => (Status::Error, 0),
    };
    let result = OpResult {
        kind: Kind::Batch,
        status,
        start,
        end,
    };
    (result, events)
}
