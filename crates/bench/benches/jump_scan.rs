//! Jump-scan vs tree-walk DOM evaluation, and the parallel DOM batch.
//!
//! The jump driver visits O(candidate) nodes by hopping between label
//! occurrences, so selective queries should collapse from hundreds of µs
//! to tens; exhaustive queries stay with the scan walker's constants
//! (which is exactly what the engine's per-query pick encodes). The
//! `parallel_batch` group measures a DOM query batch evaluated inline
//! (1 thread) and partitioned across worker threads sharing one snapshot.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smoqe::workloads::hospital;
use smoqe::{Engine, EngineConfig, User};
use smoqe_automata::compile::CompiledMfa;
use smoqe_automata::{compile, optimize::optimize};
use smoqe_bench::HospitalSetup;
use smoqe_hype::dom::{evaluate_mfa_plan, DomOptions};
use smoqe_hype::{ExecMode, NoopObserver};
use smoqe_rxpath::parse_path;
use smoqe_tax::TaxIndex;

fn bench_jump(c: &mut Criterion) {
    let setup = HospitalSetup::generated(11, 50_000);
    let tax = TaxIndex::build(&setup.doc);
    let queries = [
        ("selective", "//parent/patient/pname"),
        ("descendant", "//test"),
        ("exhaustive", "//patient"),
    ];
    let mut group = c.benchmark_group("jump_scan");
    for (name, q) in queries {
        let path = parse_path(q, &setup.vocab).unwrap();
        let plan = CompiledMfa::compile(&optimize(&compile(&path, &setup.vocab)));
        for (mode_name, mode) in [("scan", ExecMode::Compiled), ("jump", ExecMode::Jump)] {
            group.bench_with_input(BenchmarkId::new(mode_name, name), &plan, |b, plan| {
                let opts = DomOptions { tax: Some(&tax) };
                b.iter(|| evaluate_mfa_plan(&setup.doc, plan, &opts, mode, &mut NoopObserver))
            });
        }
    }
    group.finish();
}

fn bench_parallel_batch(c: &mut Criterion) {
    let queries: Vec<&str> = hospital::DOC_QUERIES.iter().map(|(_, q)| *q).collect();
    let mut group = c.benchmark_group("parallel_batch");
    for threads in [1usize, 2, 4] {
        let engine = Engine::new(EngineConfig {
            eval_threads: threads,
            ..EngineConfig::default()
        });
        hospital::dtd(engine.vocabulary());
        let doc = hospital::generate_document(engine.vocabulary(), 17, 30_000);
        engine.load_document_tree(doc).unwrap();
        engine.build_tax_index().unwrap();
        let session = engine.session(User::Admin);
        group.bench_with_input(
            BenchmarkId::new("dom_batch", threads),
            &session,
            |b, session| b.iter(|| session.query_batch(&queries).unwrap()),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_jump, bench_parallel_batch
}
criterion_main!(benches);
