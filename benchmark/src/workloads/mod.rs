//! The six workloads and what they share: the threaded closed loop and
//! the in-process query op.

pub mod ingest_stream;
pub mod plan_cold;
pub mod serve_mixed_open;
pub mod serve_point;
pub mod update_durable;
pub mod view_scan;
pub mod wire;

use crate::data::{Expected, PoolQuery};
use crate::harness::{closed_loop, Ctx, Kind, Observed, OpResult, Shape, Status, READS};
use crate::staged::{self, Counters, Stage};
use crate::trace::{TraceSummary, Tracer};
use smoqe::{Engine, Session};
use std::sync::Arc;
use std::time::Instant;

/// One op of a load thread: op number in, result out; with tracing, the
/// thread's recorder and staging state come along.
pub type Op<'a> = Box<dyn FnMut(u64, Option<(&mut Tracer, &mut Stage)>) -> OpResult + Send + 'a>;

/// What the load threads of one measured phase saw, merged.
#[derive(Default)]
pub struct Load {
    /// Ops run untraced: all of them without `--trace`, the leading share
    /// of the run with it.
    pub plain: Observed,
    /// Ops run with spans.
    pub traced: Observed,
    pub trace: TraceSummary,
    pub counters: Counters,
}

/// What one load thread hands back: its untraced and traced observations
/// and, from a traced run, its recorder and boundary counts.
pub type ThreadOut = (Observed, Observed, Option<Tracer>, Option<Counters>);

impl Load {
    pub fn absorb(&mut self, (plain, traced, tracer, counters): ThreadOut) {
        self.plain.merge(plain);
        self.traced.merge(traced);
        if let Some(tracer) = tracer {
            self.trace.absorb(tracer);
        }
        if let Some(counters) = counters {
            self.counters.merge(counters);
        }
    }
}

/// Runs `threads` closed loops side by side for `ctx.seconds`, thread `t`
/// driving the op `make_op(t)` returns. With `ctx.trace` every thread
/// gets a recorder and a staging state over `engine`'s document.
pub fn run_threads<'a>(
    ctx: &Ctx,
    threads: usize,
    engine: &Arc<Engine>,
    make_op: impl Fn(usize) -> Op<'a> + Sync,
) -> Load {
    let origin = Instant::now();
    // Warm-up inside `make_op` takes each thread its own time; the timed
    // loops start together.
    let warm = std::sync::Barrier::new(threads);
    let outs: Vec<ThreadOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (make_op, warm) = (&make_op, &warm);
                scope.spawn(move || {
                    let mut op = make_op(t);
                    let mut tracer = ctx.trace.then(|| Tracer::new(origin));
                    let mut stage = ctx.trace.then(|| Stage::new(engine));
                    warm.wait();
                    let (plain, traced) = closed_loop(ctx.seconds, tracer.as_mut(), |i, tr| {
                        op(i, tr.zip(stage.as_mut()))
                    });
                    (plain, traced, tracer, stage.map(|s| s.counters))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut load = Load::default();
    outs.into_iter().for_each(|out| load.absorb(out));
    load
}

/// One in-process query through its principal's session, checked against
/// `expected` and, when tracing, replayed staged.
pub fn query_op(
    sessions: &[Session; 2],
    query: &PoolQuery,
    expected: Option<&Expected>,
    i: u64,
    tracing: Option<(&mut Tracer, &mut Stage)>,
) -> OpResult {
    let session = &sessions[query.who as usize];
    let start = Instant::now();
    let result = session.query(&query.text);
    let end = Instant::now();
    let status = match &result {
        Ok(answer) if expected.is_none_or(|e| e.matches(answer)) => Status::Ok,
        Ok(_) => Status::Mismatch,
        Err(_) => Status::Error,
    };
    if let (Ok(answer), Some((tracer, stage))) = (&result, tracing) {
        stage.counters.saw_answer(answer);
        let seen = staged::Observed {
            plan_cached: answer.plan_cached,
            mode: answer.mode,
            serialized: false,
            whole_ns: (end - start).as_nanos() as u64,
            comparable: true,
        };
        stage.query(tracer, i, query, &seen);
    }
    OpResult {
        kind: Kind::Read,
        status,
        start,
        end,
    }
}

/// `traced p50 / untraced p50 - 1` over the read ops of a traced run.
pub fn trace_overhead(load: &Load) -> f64 {
    let p50 = |seen: &Observed| {
        let mut v = seen.latencies(&READS);
        if v.is_empty() {
            v = seen.latencies(&[Kind::Update]);
        }
        v.sort_unstable();
        crate::util::percentile(&v, 50.0) as f64
    };
    let (plain, traced) = (p50(&load.plain), p50(&load.traced));
    if plain > 0.0 {
        traced / plain - 1.0
    } else {
        0.0
    }
}

/// Plan-cache movement between two readings, as per-layer extras.
pub fn cache_delta(
    before: smoqe::CacheMetrics,
    after: smoqe::CacheMetrics,
) -> [(&'static str, f64); 2] {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    [
        (
            "core.plancache_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        (
            "core.plancache_evictions",
            (after.evictions - before.evictions) as f64,
        ),
    ]
}

/// What a workload has in hand when its timed phase starts.
pub struct Prepared<'a> {
    pub workload: &'static str,
    /// The generated document.
    pub xml: &'a str,
    pub setup_s: f64,
    /// The gate's checksum over the expected answers.
    pub checksum: u64,
}

/// Turns a finished load into the workload's report: the end-to-end set
/// without `--trace`; with it the per-layer set, after staging set-up by
/// hand over the document and writing the kept spans out.
pub fn finish(
    ctx: &Ctx,
    prepared: &Prepared,
    mut load: Load,
    shape: &Shape,
    extras: &[(&'static str, f64)],
    mut notes: Vec<String>,
) -> crate::harness::Report {
    let &Prepared {
        workload,
        xml,
        setup_s,
        checksum,
    } = prepared;
    use crate::harness::{end_to_end, tally_lines, Report};
    let mut seen = Observed::default();
    let attempted = load.plain.attempted() + load.traced.attempted();
    let failed = load.plain.failed() + load.traced.failed();
    notes.insert(0, format!("answers_checksum {checksum:016x}"));
    let metrics = if ctx.trace {
        let mut tracer = Tracer::new(Instant::now());
        let (doc_bytes_per_node, tax_bytes_per_node) = staged::setup(&mut tracer, xml, 3);
        load.trace.absorb(tracer);
        let mut all = vec![
            ("xml.bytes_per_node", doc_bytes_per_node),
            ("tax.bytes_per_node", tax_bytes_per_node),
            ("trace_overhead_frac", trace_overhead(&load)),
        ];
        all.extend_from_slice(extras);
        let metrics = crate::metrics::per_layer(&load.trace, &mut load.counters, xml.len(), &all);
        let path = ctx.out_dir.join(format!("trace-{workload}.json"));
        match load.trace.write_json(&path) {
            Ok(()) => notes.push(format!("spans written to {}", path.display())),
            Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
        }
        seen.merge(load.plain);
        seen.merge(load.traced);
        metrics
    } else {
        seen.merge(load.plain);
        end_to_end(setup_s, &seen, (ctx.seconds * 1e9) as u64, shape)
    };
    notes.extend(tally_lines(&seen));
    Report {
        workload,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// The report of a run whose correctness gate failed: nothing was timed.
pub fn gate_failed(workload: &'static str, why: String) -> crate::harness::Report {
    crate::harness::Report {
        workload,
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Default::default(),
        notes: vec![format!("correctness gate failed: {why}")],
    }
}

/// Checkpoint cost of a durable engine, as per-layer extras.
pub fn durable_extras(
    engine: &Engine,
    doc_bytes: usize,
    notes: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let Some(durable) = engine.durability() else {
        return Vec::new();
    };
    let t = Instant::now();
    let checkpointed = engine.checkpoint();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = checkpointed {
        notes.push(format!("checkpoint failed: {e}"));
        return Vec::new();
    }
    let newest = std::fs::read_dir(durable.dir())
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
        .filter_map(|e| e.metadata().ok().map(|m| m.len()))
        .max()
        .unwrap_or(0);
    vec![
        ("core.checkpoint_ms", ms),
        (
            "core.checkpoint_bytes_per_doc_byte",
            newest as f64 / doc_bytes.max(1) as f64,
        ),
    ]
}
