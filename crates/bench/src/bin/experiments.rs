//! The experiment harness: regenerates every demonstration claim of the
//! paper as a table on stdout (EXPERIMENTS.md records the outputs).
//!
//! ```text
//! cargo run --release -p smoqe-bench --bin experiments            # all
//! cargo run --release -p smoqe-bench --bin experiments -- e3 e5   # subset
//! cargo run --release -p smoqe-bench --bin experiments -- quick   # small sizes
//! cargo run --release -p smoqe-bench --bin experiments -- largedoc  # ~100 MB smoke
//! cargo run --release -p smoqe-bench --bin experiments -- update_scaling  # write path, 1k..1M nodes
//! cargo run --release -p smoqe-bench --bin experiments -- deny_timing     # how long a refusal takes
//! cargo run --release -p smoqe-bench --bin experiments -- jump_vs_scan    # jump vs TAX-less scan, pooled queries
//! cargo run --release -p smoqe-bench --bin experiments -- stream_lanes    # the ingest_stream batch, lane by lane
//! cargo run --release -p smoqe-bench --bin experiments -- render          # serialized answers: bytes, time, MB/s
//! cargo run --release -p smoqe-bench --bin experiments -- plan_stages     # a plan-cache miss, stage by stage
//! ```
//!
//! Performance numbers come from the repository's benchmark
//! (`benchmark/`, described by `BENCHMARK.json`), not from here.

use smoqe::workloads::hospital;
use smoqe::QueryRequest;
use smoqe_automata::compile::CompiledMfa;
use smoqe_automata::{compile, optimize::optimize};
use smoqe_bench::{
    fmt_duration, splice_unique_patients, time, time_mean, CountingAlloc, HospitalSetup, OrgSetup,
    Table,
};
use smoqe_hype::dom::{evaluate_mfa_plan, evaluate_mfa_with, DomOptions};
use smoqe_hype::stream::{evaluate_stream, StreamOptions};
use smoqe_hype::{
    evaluate_batch_stream_plans_budgeted, evaluate_mfa, evaluate_mfa_twopass_report, ExecMode,
    NoopObserver, WorkBudget,
};
use smoqe_rewrite::{rewrite, rewrite_direct};
use smoqe_rxpath::{evaluate as naive_evaluate, parse_path};
use smoqe_tax::TaxIndex;
use smoqe_view::{derive, materialize, AccessPolicy};
use smoqe_xml::{
    delete_subtree, generate_to_writer, insert_fragment, replace_subtree, DirtySet, Document,
    EditSpan, SplicePlace, Vocabulary,
};
use std::sync::Arc;

// `stream_lanes` reports heap allocations per lane, `plan_stages` per
// planning stage.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let selected: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| {
            a.starts_with('e')
                || [
                    "largedoc",
                    "update_scaling",
                    "deny_timing",
                    "jump_vs_scan",
                    "stream_lanes",
                    "render",
                    "plan_stages",
                ]
                .contains(a)
        })
        .collect();
    let run = |name: &str| selected.is_empty() || selected.contains(&name);

    println!("SMOQE experiment harness (quick={quick})");
    println!("=========================================\n");
    if run("e1") {
        e1();
    }
    if run("e2") {
        e2(quick);
    }
    if run("e3") {
        e3(quick);
    }
    if run("e4") {
        e4(quick);
    }
    if run("e5") {
        e5(quick);
    }
    if run("e6") {
        e6(quick);
    }
    if run("e7") {
        e7();
    }
    // Large-document smoke (`experiments -- largedoc [quick]`): parse a
    // ~100 MB synthetic document and keep peak RSS under budget.
    if selected.contains(&"largedoc") {
        largedoc(quick);
    }
    // Write-path scaling (`experiments -- update_scaling [quick]`).
    if selected.contains(&"update_scaling") {
        update_scaling(quick);
    }
    // Refusal latency by kind of target (`experiments -- deny_timing
    // [quick]`).
    if selected.contains(&"deny_timing") {
        deny_timing(quick);
    }
    // Jump against the TAX-less scan on the unselective pool
    // (`experiments -- jump_vs_scan [quick]`).
    if selected.contains(&"jump_vs_scan") {
        jump_vs_scan(quick);
    }
    // What each lane of a shared StAX scan costs (`experiments --
    // stream_lanes [quick]`).
    if selected.contains(&"stream_lanes") {
        stream_lanes(quick);
    }
    // What serializing answers costs beside evaluating them
    // (`experiments -- render [quick]`).
    if selected.contains(&"render") {
        render(quick);
    }
    // What a plan-cache miss costs, stage by stage (`experiments --
    // plan_stages [quick]`).
    if selected.contains(&"plan_stages") {
        plan_stages(quick);
    }
}

/// What a plan-cache miss costs, stage by stage: for the three
/// `plan_cold` shapes (a fresh literal on every round) and the six
/// `researchers` view queries, planned as a group plan-cache miss is —
/// parse, rewrite through S0, optimize, compile (the tables and every
/// per-plan analysis) — and then dropped, as an evicted plan is. Per
/// stage, the median time and the median heap allocations of a round;
/// `top %` is the share of compile time the top NFA alone takes, found by
/// compiling the plan with every sub-automaton replaced by a one-state
/// automaton. A reported number, not a gate.
fn plan_stages(quick: bool) {
    println!("## plan_stages  a group plan-cache miss, stage by stage\n");
    let rounds = if quick { 200 } else { 2_000 };
    let setup = HospitalSetup::sample();
    let (vocab, spec) = (&setup.vocab, &setup.spec);
    // Each query as a template: `{}` takes a fresh literal every round.
    let queries: Vec<(String, &str)> = smoqe_bench::PLAN_COLD_SHAPES
        .iter()
        .enumerate()
        .map(|(i, shape)| (format!("cold {i}"), *shape))
        .chain(
            hospital::VIEW_QUERIES
                .iter()
                .map(|(name, q)| (name.to_string(), *q)),
        )
        .collect();
    /// Runs `f`, returning its result, wall time in µs and allocations.
    fn stage<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
        let before = smoqe_bench::allocations();
        let (out, took) = time(f);
        (
            out,
            took.as_secs_f64() * 1e6,
            smoqe_bench::allocations() - before,
        )
    }
    fn median<T: Copy + PartialOrd>(mut v: Vec<T>) -> T {
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        v[v.len() / 2]
    }
    let stages = ["parse", "rewrite", "optimize", "compile", "drop"];
    let mut header = vec!["query"];
    for s in &stages {
        header.push(s);
        header.push("allocs");
    }
    header.push("top %");
    let mut table = Table::new(&header);
    for (name, query) in &queries {
        let mut us: Vec<Vec<f64>> = vec![Vec::new(); stages.len()];
        let mut allocs: Vec<Vec<u64>> = vec![Vec::new(); stages.len()];
        let mut top_share = Vec::new();
        for round in 0..rounds {
            let text = query.replace("{}", &format!("zz{round}"));
            let (path, t0, a0) = stage(|| parse_path(&text, vocab).expect("query parses"));
            let (mfa, t1, a1) = stage(|| rewrite(&path, spec));
            let (mfa, t2, a2) = stage(|| Arc::new(optimize(&mfa)));
            // The same plan with every sub-automaton cut to one state.
            let nfas: Vec<smoqe_automata::Nfa> = mfa
                .nfas()
                .map(|(id, nfa)| match id == mfa.top() {
                    true => nfa.clone(),
                    false => {
                        let mut stub = smoqe_automata::Nfa::new();
                        let s = stub.add_state();
                        stub.set_start(s);
                        stub.set_accept(s);
                        stub
                    }
                })
                .collect();
            let preds = mfa.preds().map(|(_, p)| p.clone()).collect();
            let top_only = Arc::new(smoqe_automata::Mfa::from_parts(
                nfas,
                preds,
                mfa.top(),
                vocab.clone(),
            ));
            let (plan, t3, a3) = stage(|| CompiledMfa::from_arc(mfa));
            let ((), t4, a4) = stage(|| drop(plan));
            for (k, (t, a)) in [(t0, a0), (t1, a1), (t2, a2), (t3, a3), (t4, a4)]
                .into_iter()
                .enumerate()
            {
                us[k].push(t);
                allocs[k].push(a);
            }
            let (_, top_us, _) = stage(|| CompiledMfa::from_arc(top_only));
            top_share.push(100.0 * top_us / t3);
        }
        let mut row = vec![name.clone()];
        for k in 0..stages.len() {
            row.push(format!("{:.1}", median(us[k].clone())));
            row.push(median(allocs[k].clone()).to_string());
        }
        row.push(format!("{:.0}", median(top_share)));
        table.row(row);
    }
    println!("{}", table.render());
    println!(
        "median µs and heap allocations per stage over {rounds} rounds; compile includes \
         every per-plan analysis; drop frees an evicted plan\n"
    );
}

/// What serializing answers costs: per pooled `view_scan` query, with the
/// principal that asks it, and for the `serve_mixed_open` batch of three
/// `researchers` queries, the answers and serialized bytes, the mean time
/// of the plain query (evaluation), of the serialized one, and the render
/// rate — bytes over the difference of the two. The document is the
/// `view_scan` body, 100 000 nodes (10 000 with `quick`), with a TAX
/// index. Every serialized answer must equal its oracle: the raw subtree
/// as `XmlWriter` events write it for the admin, the materialized view
/// fragment for the group.
fn render(quick: bool) {
    use smoqe_xml::serialize::XmlWriter;
    println!("## render  serialized answers: evaluation vs serialized time\n");
    let (size, iters) = if quick { (10_000, 5) } else { (100_000, 40) };
    let engine = smoqe::Engine::with_defaults();
    let handle = engine.open_document("pool");
    handle.load_dtd(hospital::DTD).unwrap();
    handle
        .load_document(&smoqe_bench::view_scan_document(size))
        .unwrap();
    handle
        .register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    handle.build_tax_index().unwrap();
    let doc = handle.document().unwrap();
    let spec = handle.view(hospital::GROUP).unwrap();
    // The admin's oracle: the subtree as `XmlWriter` events write it.
    fn events(doc: &Document, n: smoqe_xml::NodeId, w: &mut XmlWriter<&mut Vec<u8>>) {
        match doc.label(n) {
            Some(l) => {
                w.start_element(doc.label_name(l)).unwrap();
                for (name, value) in doc.attributes(n) {
                    w.attribute(name, value).unwrap();
                }
                for c in doc.children(n) {
                    events(doc, c, w);
                }
                w.end_element().unwrap();
            }
            None => w.text(doc.text(n).unwrap()).unwrap(),
        }
    }
    let oracle = |user: &smoqe::User, n: smoqe_xml::NodeId| match user {
        smoqe::User::Admin => {
            let mut out = Vec::new();
            events(&doc, n, &mut XmlWriter::new(&mut out));
            String::from_utf8(out).unwrap()
        }
        smoqe::User::Group(_) => smoqe_view::materialize_fragment(&spec, &doc, n)
            .unwrap()
            .doc
            .raw_source()
            .to_string(),
    };
    let mut table = Table::new(&[
        "who",
        "query",
        "answers",
        "bytes",
        "evaluate",
        "serialized",
        "render MB/s",
    ]);
    let mut row = |who: &str, label: String, answers: usize, bytes: usize, eval, ser| {
        let (eval, ser): (std::time::Duration, std::time::Duration) = (eval, ser);
        let render = ser.saturating_sub(eval).as_secs_f64();
        table.row(vec![
            who.to_string(),
            label,
            answers.to_string(),
            bytes.to_string(),
            fmt_duration(eval),
            fmt_duration(ser),
            match render > 0.0 {
                true => format!("{:.0}", bytes as f64 / render / 1e6),
                false => "-".to_string(),
            },
        ]);
    };
    for (user, query) in smoqe_bench::view_scan_pool() {
        let session = handle.session(user.clone());
        let answer = session.query_serialized(query).unwrap();
        let xml = answer.xml.as_ref().unwrap();
        for (&n, text) in answer.nodes.iter().zip(xml) {
            assert_eq!(*text, oracle(&user, n), "`{query}` answer {n:?}");
        }
        let bytes = xml.iter().map(String::len).sum();
        let eval = time_mean(iters, || session.query(query).unwrap());
        let ser = time_mean(iters, || session.query_serialized(query).unwrap());
        let who = match user {
            smoqe::User::Admin => "admin",
            smoqe::User::Group(_) => "group",
        };
        row(
            who,
            query.chars().take(48).collect(),
            answer.len(),
            bytes,
            eval,
            ser,
        );
    }
    let batch = [
        "hospital/patient/treatment/medication",
        "hospital/patient/(parent/patient)*/treatment",
        "//patient[not(parent)]/treatment/medication",
    ];
    let session = handle.session(smoqe::User::Group(hospital::GROUP.into()));
    let serialized = || QueryRequest {
        serialize: true,
        ..QueryRequest::batch(&batch)
    };
    let answered = session.run(serialized()).unwrap();
    let (mut answers, mut bytes) = (0, 0);
    for answer in &answered.answers {
        answers += answer.len();
        bytes += answer.xml.iter().flatten().map(String::len).sum::<usize>();
    }
    let eval = time_mean(iters, || session.query_batch(&batch).unwrap());
    let ser = time_mean(iters, || session.run(serialized()).unwrap());
    row(
        "group",
        "serve_mixed_open batch (3 queries)".into(),
        answers,
        bytes,
        eval,
        ser,
    );
    println!("{}", table.render());
}

/// What each lane of the benchmark's `ingest_stream` batch costs: the
/// eight `researchers` queries over the `ingest_stream`-shaped document
/// (100 000 nodes, 10 000 with `quick`), each streamed alone through the
/// shared-scan driver — visits, predicate instances, runs spawned, heap
/// allocations and mean time — then all eight in one scan, beside a
/// tokenize-only pass (the same driver with no lane) and the engine's own
/// `query_batch` on a streaming engine. Answers of every lane must equal
/// the engine's.
fn stream_lanes(quick: bool) {
    println!("## stream_lanes  the ingest_stream batch, lane by lane, as `researchers`\n");
    let (size, iters) = if quick { (10_000, 5) } else { (100_000, 20) };
    let xml = smoqe_bench::ingest_document(size);
    let engine = smoqe::Engine::new(smoqe::EngineConfig::streaming());
    let handle = engine.open_document("wards");
    handle.load_dtd(hospital::DTD).unwrap();
    handle.load_document(&xml).unwrap();
    handle
        .register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    let session = handle.session(smoqe::User::Group(hospital::GROUP.into()));
    let queries = smoqe_bench::ingest_batch();
    let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
    let plans: Vec<CompiledMfa> = texts
        .iter()
        .map(|q| CompiledMfa::compile(&session.plan(q).unwrap()))
        .collect();
    let vocab = engine.vocabulary();
    let scan = |lanes: &[&CompiledMfa]| {
        let lanes: Vec<(&CompiledMfa, StreamOptions)> = lanes
            .iter()
            .map(|&plan| (plan, StreamOptions::default()))
            .collect();
        let mut observers: Vec<NoopObserver> = vec![NoopObserver; lanes.len()];
        let mut observers: Vec<&mut dyn smoqe_hype::EvalObserver> = observers
            .iter_mut()
            .map(|o| o as &mut dyn smoqe_hype::EvalObserver)
            .collect();
        let before = smoqe_bench::allocations();
        let out = evaluate_batch_stream_plans_budgeted(
            xml.as_bytes(),
            &lanes,
            vocab,
            &mut observers,
            &WorkBudget::unlimited(),
        )
        .unwrap();
        (out, smoqe_bench::allocations() - before)
    };
    let expected = session.query_batch(&texts).unwrap();
    let mut table = Table::new(&[
        "query",
        "answers",
        "visits",
        "instances",
        "runs",
        "allocations",
        "time alone",
    ]);
    for ((query, plan), answer) in texts.iter().zip(&plans).zip(&expected.answers) {
        let (out, allocations) = scan(&[plan]);
        let lane = &out.outcomes[0];
        let ids: Vec<u32> = answer.nodes.iter().map(|n| n.0).collect();
        assert_eq!(lane.answers, ids, "lane and engine disagree on `{query}`");
        table.row(vec![
            query.chars().take(56).collect(),
            lane.answers.len().to_string(),
            lane.stats.nodes_visited.to_string(),
            lane.stats.pred_instances.to_string(),
            lane.stats.runs_spawned.to_string(),
            allocations.to_string(),
            fmt_duration(time_mean(iters, || scan(&[plan]))),
        ]);
    }
    let all: Vec<&CompiledMfa> = plans.iter().collect();
    let (batched, batch_allocations) = scan(&all);
    let (_, tokenize_allocations) = scan(&[]);
    let stat = |f: fn(&smoqe_hype::EvalStats) -> usize| -> String {
        batched
            .outcomes
            .iter()
            .map(|o| f(&o.stats))
            .sum::<usize>()
            .to_string()
    };
    table.row(vec![
        format!("all {} in one scan", plans.len()),
        stat(|s| s.answers),
        stat(|s| s.nodes_visited),
        stat(|s| s.pred_instances),
        stat(|s| s.runs_spawned),
        batch_allocations.to_string(),
        fmt_duration(time_mean(iters, || scan(&all))),
    ]);
    table.row(vec![
        "tokenize only (no lane)".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        tokenize_allocations.to_string(),
        fmt_duration(time_mean(iters, || scan(&[]))),
    ]);
    table.row(vec![
        "engine query_batch".into(),
        expected
            .answers
            .iter()
            .map(|a| a.len())
            .sum::<usize>()
            .to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        fmt_duration(time_mean(iters, || session.query_batch(&texts).unwrap())),
    ]);
    println!(
        "document: {} bytes, {} parser events per scan\n",
        xml.len(),
        batched.events
    );
    println!("{}", table.render());
}

/// What jumping buys on the benchmark's unselective pool: the six admin
/// document queries, the six `researchers` view queries and
/// `//visit/date`, each asked of an engine with a TAX index (which jumps
/// on every plan with a DFA — every plan here) and of one without (which
/// can only scan). Then three admin shapes a selectivity threshold would
/// once have kept on scan — `//*`, `//patient`, `//pname` — and a point
/// query on a unique `pname` value posting. The document is the
/// `view_scan` body — the hospital generator at seed 2006 and depth 8,
/// 100 000 nodes (10 000 with `quick`) — with eight patients of unique
/// `pname` spliced in. Prints visits, guard probes and the mean latency of
/// each side; answers must agree.
fn jump_vs_scan(quick: bool) {
    println!("## jump_vs_scan  the pooled queries, TAX index (jump) vs none (scan)\n");
    let (size, iters) = if quick { (10_000, 5) } else { (100_000, 40) };
    let xml = {
        let vocab = Vocabulary::new();
        let body = Document::parse_str(&smoqe_bench::view_scan_document(size), &vocab)
            .expect("the view_scan body parses");
        splice_unique_patients(&body, &vocab, 8).to_xml()
    };
    let load = |tax: bool| {
        let engine = smoqe::Engine::with_defaults();
        let handle = engine.open_document("pool");
        handle.load_dtd(hospital::DTD).unwrap();
        handle.load_document(&xml).unwrap();
        handle
            .register_policy(hospital::GROUP, hospital::POLICY)
            .unwrap();
        if tax {
            handle.build_tax_index().unwrap();
        }
        (engine, handle)
    };
    let (_indexed_engine, indexed) = load(true);
    let (_plain_engine, plain) = load(false);
    let mut table = Table::new(&[
        "who",
        "query",
        "answers",
        "mode",
        "visited",
        "guard probes",
        "time",
        "scan visited",
        "scan time",
        "time / scan",
    ]);
    let mut queries = smoqe_bench::view_scan_pool();
    queries.extend(
        ["//*", "//patient", "//pname", "//patient[pname = 'U03']"]
            .map(|q| (smoqe::User::Admin, q)),
    );
    for (user, query) in queries {
        let fast = indexed.session(user.clone());
        let slow = plain.session(user.clone());
        let a = fast.query(query).unwrap();
        let b = slow.query(query).unwrap();
        assert_eq!(a.nodes, b.nodes, "jump and scan disagree on `{query}`");
        assert_eq!(a.mode, ExecMode::Jump, "`{query}` jumps over the index");
        let t_fast = time_mean(iters, || fast.query(query).unwrap());
        let t_slow = time_mean(iters, || slow.query(query).unwrap());
        table.row(vec![
            match user {
                smoqe::User::Admin => "admin".to_string(),
                smoqe::User::Group(_) => "group".to_string(),
            },
            query.chars().take(48).collect(),
            a.nodes.len().to_string(),
            format!("{:?}", a.mode),
            a.stats.nodes_visited.to_string(),
            a.stats.guard_probes.to_string(),
            fmt_duration(t_fast),
            b.stats.nodes_visited.to_string(),
            fmt_duration(t_slow),
            format!("{:.2}", t_fast.as_secs_f64() / t_slow.as_secs_f64()),
        ]);
    }
    println!("{}", table.render());
}

/// Whether a refusal's *time* says what its bytes do not. A group's
/// refusal is byte-identical whether the target is hidden (`//pname`: no
/// view type), conditionally hidden (a patient the view does not show
/// because it took no autism medication) or absent; this prints the
/// latency distribution of each, for a group update (refused with
/// `UpdateDenied`) and for a group query (answered with nothing), on a
/// 100 000-node document (10 000 with `quick`). The three kinds take
/// turns, so drift of the host spreads over all of them alike. A reported
/// number, not a gate: the differences are microseconds on a host whose
/// noise is of the same order.
fn deny_timing(quick: bool) {
    println!("## deny_timing  refusal latency by kind of target, as `researchers`\n");
    let (size, rounds) = if quick {
        (10_000, 100)
    } else {
        (100_000, 1_000)
    };
    let engine = smoqe::Engine::with_defaults();
    let handle = engine.open_document("deny");
    handle.load_dtd(hospital::DTD).unwrap();
    let xml = hospital::generate_document(engine.vocabulary(), 7, size).to_xml();
    handle.load_document(&xml).unwrap();
    handle.build_tax_index().unwrap();
    handle
        .register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    // The conditionally hidden patient: present, reachable by a view path,
    // but without the autism medication the view's condition asks for.
    handle
        .update(
            "insert <patient><pname>H</pname><visit><treatment><medication>Mhidden\
             </medication></treatment><date>d</date></visit></patient> into hospital",
        )
        .unwrap();
    let targets = [
        ("hidden", "//pname"),
        (
            "cond. hidden",
            "hospital/patient[treatment/medication = 'Mhidden']",
        ),
        (
            "absent",
            "hospital/patient[treatment/medication = 'Mabsent']",
        ),
    ];
    let group = handle.session(smoqe::User::Group(hospital::GROUP.into()));
    let mut table = Table::new(&["op", "target", "n", "p50", "p90", "p99"]);
    for op in ["update", "query"] {
        let mut samples: Vec<Vec<std::time::Duration>> = vec![Vec::new(); targets.len()];
        // Round 0 warms up (plans, the view count) and is not kept.
        for round in 0..=rounds {
            for k in 0..targets.len() {
                let at = (round + k) % targets.len();
                let path = targets[at].1;
                let (_, took) = time(|| match op {
                    "update" => {
                        let refused = group.update(&format!("delete {path}"));
                        assert!(matches!(refused, Err(smoqe::EngineError::UpdateDenied)));
                    }
                    _ => assert!(group.query(path).expect("query runs").is_empty()),
                });
                if round > 0 {
                    samples[at].push(took);
                }
            }
        }
        for ((name, _), mut latencies) in targets.iter().zip(samples) {
            latencies.sort_unstable();
            let at = |p: f64| {
                let rank = (p / 100.0 * (latencies.len() - 1) as f64).round() as usize;
                fmt_duration(latencies[rank])
            };
            table.row(vec![
                op.to_string(),
                name.to_string(),
                latencies.len().to_string(),
                at(50.0),
                at(90.0),
                at(99.0),
            ]);
        }
    }
    println!("{}", table.render());
}

/// What one accepted update costs as the document grows, layer by layer
/// through the public functions — the table splice (`insert_fragment` /
/// `delete_subtree` / `replace_subtree`), the TAX patch, and validation of
/// the edit's dirty set next to validation of the whole result — and as a
/// whole through `DocHandle::update`. The splice and the patch are table
/// copies (linear in the document, at memcpy speed); the dirty-set
/// validation does not depend on the document at all. Beside the admin's
/// statements, the `researchers` column times a group `Session::update`
/// of the same three kinds aimed through the view (at the same patient,
/// found by a medication only it carries): the target is rewritten over
/// the view and the view is never materialized, so a group write costs
/// about what an admin write costs.
///
/// The `bulk delete` column is one admin statement with many targets —
/// every patient's `visit[treatment/test = 'mri']`, `k` of them —
/// timed once on a freshly loaded engine, next to a single-target delete
/// (`1:`) timed once just before it: a statement splices the tables once
/// whatever its number of targets, so it should cost about what the
/// single-target delete costs, not `k` times that. With `quick` it must
/// also allocate within a constant of the single-target delete.
///
/// Each size runs on two shapes of the same patients. `wide` is the
/// generated document: many top-level patients, so a write touches one
/// small region and the group's view count is carried by that region's
/// delta. `narrow` moves them all under one top-level patient: every
/// write's region is the whole document, so an admin write drops the
/// group's count and each group statement recounts the view (a σ-walk of
/// the document) — the write path's worst case for view counts.
fn update_scaling(quick: bool) {
    println!("## update_scaling  insert / replace / delete at one patient, by document size\n");
    let sizes: &[usize] = if quick {
        // 10k: enough mri visits for the bulk delete's allocation check.
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    let visit = "<visit><treatment><test>mri</test></treatment><date>2026-01-01</date></visit>";
    let treatment = "<treatment><test>blood</test></treatment>";
    let mut table = Table::new(&[
        "nodes",
        "root",
        "op",
        "splice",
        "tax patch",
        "validate dirty",
        "validate whole",
        "DocHandle::update",
        "researchers",
        "bulk delete",
    ]);
    for &size in sizes {
        let iters = (2_000_000 / size).clamp(5, 200);
        let vocab = Vocabulary::new();
        let dtd = hospital::dtd(&vocab);
        let generated = hospital::generate_document(&vocab, 7, size);
        // Buffer-backed (parsed), with one patient to aim at by name.
        let wide = splice_unique_patients(&generated, &vocab, 1);
        let narrow = under_one_patient(&wide, &vocab);
        for (root, doc, patients) in [
            ("wide", &wide, "hospital/patient"),
            ("narrow", &narrow, "hospital/patient/parent/patient"),
        ] {
            let patient = format!("{patients}[pname = 'U00']");
            let tax = TaxIndex::build(doc);
            let target = |doc: &Document, path: &str| {
                let path = parse_path(path, &vocab).expect("target path parses");
                naive_evaluate(doc, &path).into_vec()[0]
            };
            let fragment = |xml: &str| Document::parse_str(xml, &vocab).expect("fragment parses");
            let (visit_doc, treatment_doc) = (fragment(visit), fragment(treatment));

            let engine = smoqe::Engine::with_defaults();
            let handle = engine.open_document("scaling");
            handle.load_dtd(hospital::DTD).unwrap();
            handle.load_document(doc.raw_source()).unwrap();
            handle.build_tax_index().unwrap();
            let statements = [
                ("insert", format!("insert {visit} after {patient}/pname")),
                (
                    "replace",
                    format!("replace {patient}/visit/treatment[test = 'blood'] with {treatment}"),
                ),
                (
                    "delete",
                    format!("delete {patient}/visit[treatment/test = 'mri']"),
                ),
            ];
            // The group's view shows a top-level patient once it took
            // autism; through the view it is the one with medication `M00`.
            handle
                .register_policy(hospital::GROUP, hospital::POLICY)
                .unwrap();
            for medication in ["autism", "M00"] {
                handle
                    .update(&format!(
                        "insert <visit><treatment><medication>{medication}</medication></treatment>\
                         <date>2026-01-01</date></visit> after {patient}/pname"
                    ))
                    .unwrap();
            }
            let seen = format!("{patients}[treatment/medication = 'M00']");
            let group_statements = [
                format!(
                    "insert <parent><patient><pname>kin</pname></patient></parent> into {seen}"
                ),
                format!(
                    "replace {seen}/treatment[medication = 'M00'] with \
                     <treatment><medication>M00</medication></treatment>"
                ),
                format!("delete {seen}/parent"),
            ];
            let group = handle.session(smoqe::User::Group(hospital::GROUP.into()));
            // One cycle of the three statements restores the document, so
            // every iteration times the same three updates. An untimed
            // cycle first: the group's view count is taken once per
            // document.
            let mut whole = [std::time::Duration::ZERO; 3];
            let mut through_view = [std::time::Duration::ZERO; 3];
            for round in 0..=iters {
                for (slot, (_, statement)) in whole.iter_mut().zip(&statements) {
                    let (report, took) = time(|| handle.update(statement).expect("update applies"));
                    assert!(report.validated_nodes <= 8, "incremental validation");
                    *slot += took * u32::from(round > 0);
                }
                for (slot, statement) in through_view.iter_mut().zip(&group_statements) {
                    let (_, took) = time(|| group.update(statement).expect("group update applies"));
                    *slot += took * u32::from(round > 0);
                }
            }

            // One statement at every mri visit, on a fresh engine, beside
            // a single-target delete timed the same way just before it
            // (both after two untimed cycles of the admin statements).
            let bulk = {
                let engine = smoqe::Engine::with_defaults();
                let fresh = engine.open_document("bulk");
                fresh.load_dtd(hospital::DTD).unwrap();
                fresh.load_document(doc.raw_source()).unwrap();
                fresh.build_tax_index().unwrap();
                for _ in 0..2 {
                    for (_, statement) in &statements {
                        fresh.update(statement).unwrap();
                    }
                }
                fresh.update(&statements[0].1).unwrap();
                let before = smoqe_bench::allocations();
                let (_, single_took) = time(|| fresh.update(&statements[2].1).unwrap());
                let single = smoqe_bench::allocations() - before;
                let before = smoqe_bench::allocations();
                let (report, took) = time(|| {
                    fresh
                        .update(&format!("delete {patients}/visit[treatment/test = 'mri']"))
                        .expect("the bulk delete applies")
                });
                let made = smoqe_bench::allocations() - before;
                if quick {
                    assert!(
                        made <= single + 64,
                        "a {}-target delete made {made} allocations, a single-target one {single}",
                        report.applied
                    );
                }
                format!(
                    "{} (k={}; 1: {})",
                    fmt_duration(took),
                    report.applied,
                    fmt_duration(single_took)
                )
            };

            // The same three edits by hand, on the state each one meets.
            let pname = target(doc, &format!("{patient}/pname"));
            let (inserted, insert_span) =
                insert_fragment(doc, pname, SplicePlace::After, &visit_doc).unwrap();
            let inserted_tax = tax.patched(&inserted, &insert_span);
            let blood = target(
                &inserted,
                &format!("{patient}/visit/treatment[test = 'blood']"),
            );
            let mri = target(
                &inserted,
                &format!("{patient}/visit[treatment/test = 'mri']"),
            );
            type Edit<'a> = Box<dyn Fn() -> (Document, EditSpan) + 'a>;
            let edits: [(&Document, &TaxIndex, Edit); 3] = [
                (
                    doc,
                    &tax,
                    Box::new(|| {
                        insert_fragment(doc, pname, SplicePlace::After, &visit_doc).unwrap()
                    }),
                ),
                (
                    &inserted,
                    &inserted_tax,
                    Box::new(|| replace_subtree(&inserted, blood, &treatment_doc).unwrap()),
                ),
                (
                    &inserted,
                    &inserted_tax,
                    Box::new(|| delete_subtree(&inserted, mri).unwrap()),
                ),
            ];
            for (i, (before, base_tax, edit)) in edits.iter().enumerate() {
                let (after, span) = edit();
                let mut dirty = DirtySet::default();
                dirty.record(&span);
                table.row(vec![
                    before.node_count().to_string(),
                    root.to_string(),
                    statements[i].0.to_string(),
                    fmt_duration(time_mean(iters, edit)),
                    fmt_duration(time_mean(iters, || base_tax.patched(&after, &span))),
                    fmt_duration(time_mean(iters, || {
                        dtd.validate_nodes(&after, dirty.nodes()).unwrap()
                    })),
                    fmt_duration(time_mean(iters.min(20), || dtd.validate(&after).unwrap())),
                    fmt_duration(whole[i] / iters as u32),
                    fmt_duration(through_view[i] / iters as u32),
                    if statements[i].0 == "delete" {
                        bulk.clone()
                    } else {
                        "-".to_string()
                    },
                ]);
            }
        }
    }
    println!("{}", table.render());
}

/// `doc` (a hospital document) with all its top-level patients moved under
/// one new top-level patient, which the researchers' view shows, each in a
/// `parent` of its own: the root keeps a single child, so every write's
/// region is the whole document.
fn under_one_patient(doc: &Document, vocab: &Vocabulary) -> Document {
    let xml = doc.to_xml();
    let patients = xml
        .strip_prefix("<hospital>")
        .and_then(|rest| rest.strip_suffix("</hospital>"))
        .expect("a hospital root with patients");
    // Only top-level patients are siblings: a `parent` holds one.
    let parents = patients.replace(
        "</patient><patient>",
        "</patient></parent><parent><patient>",
    );
    Document::parse_str(
        &format!(
            "<hospital><patient><pname>top</pname><visit><treatment><medication>autism\
             </medication></treatment><date>2026-01-01</date></visit><parent>{parents}</parent>\
             </patient></hospital>"
        ),
        vocab,
    )
    .expect("the narrowed document parses")
}

/// Generates a large (~100 MB, or ~10 MB with `quick`) synthetic hospital
/// document on disk, parses it into the span-arena DOM, runs one
/// selective query, and asserts peak RSS stays within a fixed multiple of
/// the document size — a CI guard against memory-footprint regressions in
/// the zero-copy document storage.
fn largedoc(quick: bool) {
    println!("## largedoc  ~100 MB parse + query under a peak-RSS budget\n");
    let target_mb: usize = if quick { 10 } else { 100 };
    let vocab = Vocabulary::new();
    let dtd = hospital::dtd(&vocab);
    // The hospital DTD serializes at roughly 14 bytes of XML per node.
    let target_nodes = target_mb * (1 << 20) / 14;
    let config = hospital::generator_config(&vocab, 99, target_nodes);
    let path = std::env::temp_dir().join("smoqe-largedoc.xml");
    {
        let file = std::fs::File::create(&path).expect("create large doc");
        generate_to_writer(&dtd, &config, std::io::BufWriter::new(file)).expect("generate");
    }
    let bytes = std::fs::metadata(&path).expect("stat large doc").len();
    let (doc, parse_d) = time(|| smoqe_xml::parse_file(&path, &vocab).expect("parse large doc"));
    std::fs::remove_file(&path).ok();
    let plan = {
        let q = parse_path("//test", &vocab).unwrap();
        CompiledMfa::compile(&optimize(&compile(&q, &vocab)))
    };
    let ((answers, _), query_d) = time(|| {
        evaluate_mfa_plan(
            &doc,
            &plan,
            &DomOptions::default(),
            ExecMode::Compiled,
            &mut NoopObserver,
        )
    });
    let mb = bytes as f64 / (1 << 20) as f64;
    println!(
        "document: {mb:.1} MB, {} nodes; parse {} ({:.1} MB/s); //test -> {} answers in {}",
        doc.node_count(),
        fmt_duration(parse_d),
        mb / parse_d.as_secs_f64(),
        answers.len(),
        fmt_duration(query_d),
    );
    println!("memory: {}", doc.memory_summary());
    match peak_rss_mb() {
        Some(peak) => {
            // Budget: buffer + span tables + transient parse copies stay
            // well under 12x the serialized size (the old string-arena
            // DOM plus a separate raw copy trended far above this).
            let budget = mb * 12.0;
            println!("peak RSS: {peak:.0} MB (budget {budget:.0} MB)");
            assert!(
                peak <= budget,
                "peak RSS {peak:.0} MB exceeds budget {budget:.0} MB"
            );
        }
        None => println!("peak RSS: unavailable on this platform (check skipped)"),
    }
}

/// Peak resident set size of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// E1 (Fig. 3): policy -> derived view specification and view DTD.
fn e1() {
    println!("## E1  Fig. 3: automatic view derivation\n");
    let vocab = Vocabulary::new();
    let dtd = hospital::dtd(&vocab);
    let policy = AccessPolicy::parse(dtd.clone(), hospital::POLICY).unwrap();
    println!("--- access control policy S0 (Fig. 3(b)) ---");
    println!("{}", policy.to_policy_string());
    let spec = derive(&policy);
    println!("--- derived view specification sigma0 + view DTD (Fig. 3(c)/(d)) ---");
    println!("{}", spec.to_spec_string());
    println!("view DTD recursive: {}\n", spec.view_dtd().is_recursive());
}

/// E2 (Fig. 4 / §3 Rewriter): MFA size is linear in |Q|; the direct
/// syntactic rewriting explodes.
fn e2(quick: bool) {
    println!("## E2  Rewriting: MFA (linear) vs direct syntactic (exponential)\n");
    let setup = HospitalSetup::sample();
    let max_n = if quick { 4 } else { 6 };
    let mut table = Table::new(&[
        "closure depth n",
        "|Q|",
        "MFA size",
        "direct size",
        "direct/MFA",
        "rewrite time",
    ]);
    for n in 1..=max_n {
        let q = format!(
            "hospital/patient{}/treatment",
            "/(parent/patient)*[treatment]".repeat(n)
        );
        let path = parse_path(&q, &setup.vocab).unwrap();
        let (mfa, t) = time(|| rewrite(&path, &setup.spec));
        let mfa_size = mfa.stats().total();
        let direct_size = rewrite_direct(&path, &setup.spec)
            .map(|p| p.size())
            .unwrap_or(0);
        table.row(vec![
            n.to_string(),
            path.size().to_string(),
            mfa_size.to_string(),
            direct_size.to_string(),
            format!("{:.1}x", direct_size as f64 / mfa_size as f64),
            fmt_duration(t),
        ]);
    }
    println!("{}", table.render());
    // Fig. 4: the MFA of the paper's Q0.
    let q0 = parse_path(hospital::Q0, &setup.vocab).unwrap();
    let m0 = compile(&q0, &setup.vocab);
    println!("MFA M0 of the paper's Q0: {}", m0.stats());
    println!("after optimizer:          {}\n", optimize(&m0).stats());
}

/// E3 (§3 Evaluator): HyPE single pass vs two-pass vs naive navigation.
fn e3(quick: bool) {
    println!("## E3  Evaluation: HyPE vs two-pass vs naive ('Xalan-like')\n");
    let sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut table = Table::new(&[
        "nodes",
        "query",
        "HyPE",
        "two-pass",
        "naive",
        "|Cans|",
        "Cans/visited",
    ]);
    for &size in sizes {
        let setup = HospitalSetup::generated(42, size);
        let iters = if size <= 10_000 { 20 } else { 5 };
        for (name, q) in hospital::DOC_QUERIES {
            let path = parse_path(q, &setup.vocab).unwrap();
            let mfa = optimize(&compile(&path, &setup.vocab));
            let hype_t = time_mean(iters, || evaluate_mfa(&setup.doc, &mfa));
            let (answers, stats) = evaluate_mfa(&setup.doc, &mfa);
            let two_t = time_mean(iters, || evaluate_mfa_twopass_report(&setup.doc, &mfa));
            let naive_t = time_mean(iters.min(5), || naive_evaluate(&setup.doc, &path));
            // Sanity: all engines agree.
            let ((two_answers, _), _) = evaluate_mfa_twopass_report(&setup.doc, &mfa);
            assert_eq!(answers, two_answers, "engines disagree on {name}");
            table.row(vec![
                size.to_string(),
                name.to_string(),
                fmt_duration(hype_t),
                fmt_duration(two_t),
                fmt_duration(naive_t),
                stats.cans_size.to_string(),
                format!("{:.3}", stats.cans_ratio()),
            ]);
        }
    }
    println!("{}", table.render());
}

/// E4 (§2 XML documents): DOM mode vs StAX mode.
fn e4(quick: bool) {
    println!("## E4  DOM vs StAX (one sequential scan, bounded memory)\n");
    let sizes: &[usize] = if quick {
        &[10_000]
    } else {
        &[10_000, 100_000, 300_000]
    };
    let mut table = Table::new(&[
        "nodes",
        "query",
        "DOM eval",
        "stream eval (incl. parse)",
        "xml bytes",
        "peak buffered",
    ]);
    for &size in sizes {
        let vocab = Vocabulary::new();
        let dtd = hospital::dtd(&vocab);
        let config = hospital::generator_config(&vocab, 7, size);
        let mut xml_bytes: Vec<u8> = Vec::new();
        generate_to_writer(&dtd, &config, &mut xml_bytes).unwrap();
        let xml = String::from_utf8(xml_bytes).unwrap();
        let doc = Document::parse_str(&xml, &vocab).unwrap();
        for (name, q) in &hospital::DOC_QUERIES[..3] {
            let path = parse_path(q, &vocab).unwrap();
            let mfa = optimize(&compile(&path, &vocab));
            let iters = if size <= 10_000 { 10 } else { 3 };
            let dom_t = time_mean(iters, || evaluate_mfa(&doc, &mfa));
            let stream_t = time_mean(iters, || {
                evaluate_stream(xml.as_bytes(), &mfa, &vocab, StreamOptions::default()).unwrap()
            });
            let outcome = evaluate_stream(
                xml.as_bytes(),
                &mfa,
                &vocab,
                StreamOptions { want_xml: true },
            )
            .unwrap();
            // Stream answers match DOM answers.
            let (dom_answers, _) = evaluate_mfa(&doc, &mfa);
            assert_eq!(
                outcome.answers,
                dom_answers.iter().map(|n| n.0).collect::<Vec<_>>()
            );
            table.row(vec![
                size.to_string(),
                name.to_string(),
                fmt_duration(dom_t),
                fmt_duration(stream_t),
                xml.len().to_string(),
                outcome.peak_buffered_bytes.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
}

/// E5 (§3 Indexer): TAX on vs off; index build/persist costs.
fn e5(quick: bool) {
    println!("## E5  TAX index: pruning effect and build/persist costs\n");
    let size = if quick { 20_000 } else { 200_000 };
    let setup = HospitalSetup::generated(11, size);
    let (tax, build_t) = time(|| TaxIndex::build(&setup.doc));
    println!(
        "index build over {} nodes: {} ({} distinct sets, ~{} bytes in memory)",
        setup.doc.node_count(),
        fmt_duration(build_t),
        tax.distinct_sets(),
        tax.memory_bytes()
    );
    let mut buf = Vec::new();
    let (_, save_t) = time(|| tax.save(&mut buf, &setup.vocab).unwrap());
    let (loaded, load_t) = time(|| TaxIndex::load(&mut &buf[..], &setup.vocab).unwrap());
    println!(
        "persist: {} bytes on disk (save {}, load {})\n",
        buf.len(),
        fmt_duration(save_t),
        fmt_duration(load_t)
    );
    drop(loaded);

    let mut table = Table::new(&[
        "query",
        "no TAX",
        "with TAX",
        "speedup",
        "visited (no TAX)",
        "visited (TAX)",
        "TAX-pruned subtrees",
    ]);
    // Selective queries benefit; exhaustive ones are ~neutral.
    let queries = [
        ("descendant //test", "//test"),
        ("selective //parent/patient/pname", "//parent/patient/pname"),
        ("negation", "//treatment[not(test)]/medication"),
        ("exhaustive //patient", "//patient"),
    ];
    for (name, q) in queries {
        let path = parse_path(q, &setup.vocab).unwrap();
        let mfa = optimize(&compile(&path, &setup.vocab));
        let iters = if quick { 10 } else { 5 };
        let plain_opts = DomOptions::default();
        let tax_opts = DomOptions { tax: Some(&tax) };
        let t_plain = time_mean(iters, || {
            evaluate_mfa_with(&setup.doc, &mfa, &plain_opts, &mut NoopObserver)
        });
        let t_tax = time_mean(iters, || {
            evaluate_mfa_with(&setup.doc, &mfa, &tax_opts, &mut NoopObserver)
        });
        let (a_plain, s_plain) =
            evaluate_mfa_with(&setup.doc, &mfa, &plain_opts, &mut NoopObserver);
        let (a_tax, s_tax) = evaluate_mfa_with(&setup.doc, &mfa, &tax_opts, &mut NoopObserver);
        assert_eq!(a_plain, a_tax, "TAX changed answers for {name}");
        table.row(vec![
            name.to_string(),
            fmt_duration(t_plain),
            fmt_duration(t_tax),
            format!("{:.2}x", t_plain.as_secs_f64() / t_tax.as_secs_f64()),
            s_plain.nodes_visited.to_string(),
            s_tax.nodes_visited.to_string(),
            s_tax.subtrees_pruned_tax.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// E6 (§1/§2): virtual views (rewrite + HyPE) vs materialize-then-query.
fn e6(quick: bool) {
    println!("## E6  Virtual views vs materialization\n");
    let sizes: &[usize] = if quick { &[5_000] } else { &[5_000, 50_000] };
    let mut table = Table::new(&[
        "nodes",
        "view query",
        "virtual (rewrite+HyPE)",
        "virtual+TAX",
        "materialize+eval",
        "|V(T)| nodes",
        "answers",
    ]);
    for &size in sizes {
        let setup = HospitalSetup::generated(23, size);
        let tax = TaxIndex::build(&setup.doc);
        let iters = if size <= 5_000 { 10 } else { 3 };
        for (name, q) in hospital::VIEW_QUERIES {
            let path = parse_path(q, &setup.vocab).unwrap();
            let mfa = optimize(&rewrite(&path, &setup.spec));
            let t_virtual = time_mean(iters, || evaluate_mfa(&setup.doc, &mfa));
            let tax_opts = DomOptions { tax: Some(&tax) };
            let t_tax = time_mean(iters, || {
                evaluate_mfa_with(&setup.doc, &mfa, &tax_opts, &mut NoopObserver)
            });
            let (tax_answers, _) =
                evaluate_mfa_with(&setup.doc, &mfa, &tax_opts, &mut NoopObserver);
            let t_mat = time_mean(iters.min(3), || {
                let view = materialize(&setup.spec, &setup.doc).unwrap();
                naive_evaluate(&view.doc, &path)
            });
            // Correctness: Q'(T) == Q(V(T)).
            let (virtual_answers, _) = evaluate_mfa(&setup.doc, &mfa);
            let view = materialize(&setup.spec, &setup.doc).unwrap();
            let expected = view.origins_of(naive_evaluate(&view.doc, &path).iter());
            assert_eq!(
                virtual_answers.as_slice(),
                expected.as_slice(),
                "equivalence violated for {name}"
            );
            assert_eq!(
                tax_answers, virtual_answers,
                "TAX changed answers for {name}"
            );
            table.row(vec![
                size.to_string(),
                name.to_string(),
                fmt_duration(t_virtual),
                fmt_duration(t_tax),
                fmt_duration(t_mat),
                view.doc.node_count().to_string(),
                virtual_answers.len().to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    // The org workload as a control.
    let org = OrgSetup::generated(5, if quick { 5_000 } else { 20_000 });
    let mut t2 = Table::new(&["org view query", "virtual", "materialized", "answers"]);
    for (name, q) in smoqe::workloads::org::VIEW_QUERIES {
        let path = parse_path(q, &org.vocab).unwrap();
        let mfa = optimize(&rewrite(&path, &org.spec));
        let tv = time_mean(5, || evaluate_mfa(&org.doc, &mfa));
        let tm = time_mean(3, || {
            let view = materialize(&org.spec, &org.doc).unwrap();
            naive_evaluate(&view.doc, &path)
        });
        let (ans, _) = evaluate_mfa(&org.doc, &mfa);
        t2.row(vec![
            name.to_string(),
            fmt_duration(tv),
            fmt_duration(tm),
            ans.len().to_string(),
        ]);
    }
    println!("{}", t2.render());
}

/// E7 (Figs. 4(b), 5, 6): the visual artifacts, in text form.
fn e7() {
    println!("## E7  Visualizations (iSMOQE substitute)\n");
    let setup = HospitalSetup::sample();
    let q0 = parse_path(hospital::Q0, &setup.vocab).unwrap();
    let m0 = compile(&q0, &setup.vocab);
    println!("--- Fig. 4: MFA M0 for Q0 ---");
    println!("{}", smoqe_viz::mfa_listing(&m0));
    println!("--- Fig. 5: HyPE evaluation of M0 on the sample document ---");
    let mut trace = smoqe_viz::TraceCollector::new();
    let tax = TaxIndex::build(&setup.doc);
    let opts = DomOptions { tax: Some(&tax) };
    evaluate_mfa_with(&setup.doc, &m0, &opts, &mut trace);
    println!("{}", smoqe_viz::annotated_tree(&setup.doc, &trace));
    println!("--- Fig. 6: TAX index on the sample document ---");
    println!("{}", tax.summary(&setup.vocab));
}
