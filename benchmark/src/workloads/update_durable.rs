//! `update_durable` — the write path, with a reader beside it.
//!
//! In-process, a durable engine (`checkpoint_every: 0`) over a
//! 100 000-node document. One writer thread issues seeded
//! single-statement transactions on the unique patients — insert, delete
//! and replace; four in five as the admin, one in five as `researchers`
//! on targets their view shows, so they are accepted — while one reader
//! thread walks the unselective pool. `update`, `xml::edit`,
//! `tax::patched` and `core::durable` do the work and `server` does none;
//! snapshots are used the opposite way to `view_scan`, so a read win that
//! taxes writers (or the reverse) shows here.
//!
//! Set-up *is* recovery: every repetition copies a prepared data
//! directory — a checkpoint of the loaded document plus a WAL tail of
//! [`TAIL`] transactions — and times `Engine::recover` on the copy, so
//! `setup_s` on this workload is the restart time a user waits for.
//!
//! `throughput_ops_s` counts accepted transactions (the writer is one
//! closed loop, so it is the reciprocal of the mean update latency);
//! `query_p50_us` / `query_p95_us` are the reader's.

use super::{finish, gate_failed, query_op, run_threads, Prepared};
use crate::data::{
    gate, hospital_xml, load_hospital, scan_pool, sessions, unique_medication, unique_pname,
    LapWalker, Who, DOC,
};
use crate::harness::{timed_setup, Ctx, Kind, Limits, OpResult, Report, Shape, Status};
use crate::staged::Stage;
use crate::trace::Tracer;
use crate::util::{copy_dir, Rng, TempDir};
use smoqe::{Engine, EngineConfig, EngineError, Session};
use std::time::Instant;

pub const NAME: &str = "update_durable";
const NODES: usize = 100_000;
const UNIQUES: usize = 64;
/// Transactions in the WAL tail every recovery replays.
const TAIL: usize = 40;
const SHAPE: Shape = Shape {
    primary: &[Kind::Update],
    per_op: 1.0,
    limits: Limits::ms(50, 250),
    open: false,
};

fn config() -> EngineConfig {
    EngineConfig {
        checkpoint_every: 0,
        ..EngineConfig::default()
    }
}

/// The writer's transactions: a seeded sequence over the unique
/// patients, with just enough of a model of what it already wrote that
/// every statement has a target (a delete only follows an insert).
#[derive(Clone)]
pub struct Writes {
    seed: u64,
    rng: Rng,
    /// Test visits the writer has added to patient `i` and not deleted.
    visits: Vec<u32>,
    /// Whether patient `i` currently has the writer's `parent` child.
    parents: Vec<bool>,
    /// The (issuer, statement kind) pairs still to deal from the current
    /// deck of fifteen: five issuers, one of them `researchers`, times
    /// three kinds, in a seeded order. A group write costs twice an
    /// admin's, so shares left to the draw would move the rate by seed.
    deck: Vec<(u64, u64)>,
}

impl Writes {
    pub fn new(seed: u64) -> Writes {
        Writes {
            seed,
            rng: Rng::new(seed ^ 0x5EED_ED17),
            visits: vec![0; UNIQUES],
            parents: vec![false; UNIQUES],
            deck: Vec::new(),
        }
    }

    /// The next transaction: who issues it and its one statement.
    pub fn next(&mut self) -> (Who, String) {
        let i = self.rng.below(UNIQUES as u64) as usize;
        let (pname, medication) = (unique_pname(self.seed, i), unique_medication(self.seed, i));
        if self.deck.is_empty() {
            self.deck = (0..15).map(|card| (card / 3, card % 3)).collect();
            self.rng.shuffle(&mut self.deck);
        }
        let (issuer, kind) = self.deck.pop().expect("the deck was just filled");
        if issuer == 0 {
            // researchers: only what the view shows — the patient by its
            // visible medication, its treatments, its parents.
            let patient = format!("hospital/patient[treatment/medication = '{medication}']");
            let statement = match kind {
                0 => format!(
                    "replace hospital/patient/treatment[medication = '{medication}'] \
                     with <treatment><medication>{medication}</medication></treatment>"
                ),
                _ if self.parents[i] => {
                    self.parents[i] = false;
                    format!("delete {patient}/parent")
                }
                _ => {
                    self.parents[i] = true;
                    format!("insert <parent><patient><pname>kin</pname></patient></parent> into {patient}")
                }
            };
            return (Who::Group, statement);
        }
        let patient = format!("hospital/patient[pname = '{pname}']");
        let statement = match kind {
            0 => format!(
                "replace {patient}/visit/treatment[medication = '{medication}'] \
                 with <treatment><medication>{medication}</medication></treatment>"
            ),
            1 if self.visits[i] > 0 => {
                self.visits[i] = 0;
                format!("delete {patient}/visit[treatment/test]")
            }
            _ => {
                self.visits[i] += 1;
                // After the name, not `into`: the content model wants
                // visits before any `parent` a group write has added.
                format!(
                    "insert <visit><treatment><test>mri</test></treatment><date>2026-01-01</date></visit> \
                     after {patient}/pname"
                )
            }
        };
        (Who::Admin, statement)
    }
}

fn apply(sessions: &[Session; 2], who: Who, statement: &str) -> Status {
    match sessions[who as usize].update_batch(&[statement]) {
        Ok(reports) if reports.len() == 1 && reports[0].applied >= 1 => Status::Ok,
        Ok(_) => Status::Mismatch,
        Err(EngineError::UpdateDenied) => Status::Denied,
        Err(_) => Status::Error,
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let xml = hospital_xml(ctx.seed, ctx.nodes(NODES), UNIQUES, None);
    let pool = scan_pool();
    let scratch = TempDir::new(&ctx.out_dir, "durable");
    let mut writes = Writes::new(ctx.seed);

    // Input: the data directory every recovery starts from.
    let prepared = scratch.path().join("prepared");
    let prepared_xml = {
        let engine = Engine::recover(config(), &prepared).expect("fresh data directory opens");
        let handle = load_hospital(&engine, &xml, true);
        engine.checkpoint().expect("checkpoint is written");
        let sessions = sessions(&handle);
        for _ in 0..TAIL {
            let (who, statement) = writes.next();
            if apply(&sessions, who, &statement) != Status::Ok {
                return gate_failed(
                    NAME,
                    format!("preparing the WAL tail: {statement} was not accepted"),
                );
            }
        }
        handle.document().expect("document is loaded").to_xml()
    };

    let reps = ctx.setup_reps(5);
    let copies: Vec<_> = (0..reps + 1)
        .map(|n| scratch.path().join(format!("run-{n}")))
        .collect();
    for copy in &copies {
        copy_dir(&prepared, copy).expect("data directory copies");
    }
    let mut rep = 0;
    let (engine, setup_s) = timed_setup(reps, 0.0, || {
        rep += 1;
        Engine::recover(config(), &copies[rep]).expect("prepared directory recovers")
    });
    let handle = engine
        .document_handle(DOC)
        .expect("recovered catalog holds the document");
    // The recovered engine must answer what the oracle reads off the
    // state the prepared engine was dropped in.
    let checksum = match gate(&handle, &prepared_xml, &pool) {
        Ok((_, checksum)) => checksum,
        Err(why) => return gate_failed(NAME, format!("after recovery: {why}")),
    };
    let sessions = sessions(&handle);
    let mut extras = Vec::new();
    let mut twin = None;
    if ctx.trace {
        // What a recovery costs without a tail to replay: the directory a
        // recovery has just checkpointed, recovered again.
        let checkpointed = &copies[0];
        drop(Engine::recover(config(), checkpointed).expect("copy recovers"));
        let t = Instant::now();
        drop(Engine::recover(config(), checkpointed).expect("checkpointed copy recovers"));
        let base_s = t.elapsed().as_secs_f64();
        extras.push((
            "core.replay_us_per_record",
            (setup_s - base_s).max(0.0) * 1e6 / TAIL as f64,
        ));
        // The in-memory twin the writer mirrors every transaction onto:
        // what it saves against the durable engine is the WAL's share.
        let memory = Engine::new(config());
        twin = Some(crate::data::sessions(&load_hospital(
            &memory,
            &prepared_xml,
            true,
        )));
        extras.push((
            "core.reader_stall_us",
            -reader_alone_p95_us(ctx, &sessions, &pool),
        ));
    }

    let load = run_threads(ctx, 2, &engine, |thread| {
        let (sessions, pool, twin) = (&sessions, &pool, &twin);
        if thread == 1 {
            // The reader. Its answers move with the writer's edits, so
            // only failures count; the final-document check below covers
            // what it read from.
            let mut walker = LapWalker::new(ctx.seed, thread, pool.len());
            return Box::new(move |i, tracing| {
                let at = walker.at(i);
                query_op(sessions, &pool[at], None, i, tracing)
            });
        }
        let mut writes = writes.clone();
        Box::new(move |i, mut tracing| {
            let (who, statement) = writes.next();
            let before = tracing.as_ref().map(|(_, stage)| stage.snapshot());
            // The twin takes the same statement — before the durable
            // engine on odd ops, after it on even ones, so that whatever
            // running second costs cancels out of the median difference.
            let on_twin = |tracing: &mut Option<(&mut Tracer, &mut Stage)>| {
                let (Some((tracer, _)), Some(twin)) = (tracing.as_mut(), twin) else {
                    return 0;
                };
                let t = Instant::now();
                tracer.span("core.update_memory", i, || apply(twin, who, &statement));
                t.elapsed().as_nanos() as i64
            };
            let mut memory_ns = if i % 2 == 1 { on_twin(&mut tracing) } else { 0 };
            let start = Instant::now();
            let status = apply(sessions, who, &statement);
            let end = Instant::now();
            if i % 2 == 0 {
                memory_ns = on_twin(&mut tracing);
            }
            if let (Some((tracer, stage)), Some(before)) = (tracing, before) {
                stage
                    .counters
                    .wal_ns
                    .push((end - start).as_nanos() as i64 - memory_ns);
                stage.update(tracer, i, who, &statement, &before);
            }
            OpResult {
                kind: Kind::Update,
                status,
                start,
                end,
            }
        })
    });

    // The document the run ends with must be the one a fresh engine
    // builds from its serialization.
    let final_xml = handle.document().expect("document is loaded").to_xml();
    if let Err(why) = gate(&handle, &final_xml, &pool) {
        return gate_failed(NAME, format!("after the run: {why}"));
    }
    let mut notes = vec![format!(
        "document: {} bytes; one writer and one reader thread, closed loops; recovery replays {TAIL} transactions",
        xml.len()
    )];
    if ctx.trace {
        let updates = load.traced.ok(&[Kind::Update]) + load.plain.ok(&[Kind::Update]);
        let wal = engine
            .durability()
            .and_then(|d| std::fs::metadata(d.dir().join("wal.log")).ok())
            .map_or(0, |m| m.len());
        extras.push((
            "core.wal_bytes_per_update",
            wal as f64 / updates.max(1) as f64,
        ));
        let mut beside = load.traced.latencies(&[Kind::Read]);
        beside.sort_unstable();
        if let Some(stall) = extras
            .iter_mut()
            .find(|(name, _)| *name == "core.reader_stall_us")
        {
            stall.1 += crate::util::percentile(&beside, 95.0) as f64 / 1e3;
        }
        extras.extend(super::durable_extras(&engine, final_xml.len(), &mut notes));
    }
    let prepared = Prepared {
        workload: NAME,
        xml: &xml,
        setup_s,
        checksum,
    };
    finish(ctx, &prepared, load, &SHAPE, &extras, notes)
}

/// The reader's 95th percentile with no writer beside it, over a short
/// closed loop (microseconds).
fn reader_alone_p95_us(ctx: &Ctx, sessions: &[Session; 2], pool: &[crate::data::PoolQuery]) -> f64 {
    let mut walker = LapWalker::new(ctx.seed, 1, pool.len());
    let (seen, _) = crate::harness::closed_loop(ctx.seconds * 0.1, None, |i, _| {
        query_op(sessions, &pool[walker.at(i)], None, i, None)
    });
    let mut alone = seen.latencies(&[Kind::Read]);
    alone.sort_unstable();
    crate::util::percentile(&alone, 95.0) as f64 / 1e3
}
