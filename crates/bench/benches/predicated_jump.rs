//! Predicated jump-scan: guarded plans navigating by value posting
//! lists, and the shared batch jump frontier.
//!
//! A `text() = 'v'` predicate narrows the jump trigger from a label's
//! full occurrence list to the (label, value) posting list, so a
//! selective predicated query probes only the nodes that can possibly
//! answer — the scan walker still touches the whole document. The
//! workload splices patients with globally unique pname values into the
//! generated document: their posting lists have length 1, so point
//! queries collapse to a handful of probes (the `common` cases keep the
//! generator's pooled values for contrast). The `jump_frontier` group
//! measures a batch of 32 point plans merged into one shared ascending
//! frontier: the whole batch should cost little more than one compiled
//! scan, because every plan hops straight to its few candidates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smoqe_automata::compile::CompiledMfa;
use smoqe_automata::{compile, optimize::optimize};
use smoqe_bench::HospitalSetup;
use smoqe_hype::dom::{evaluate_mfa_plan, DomOptions};
use smoqe_hype::{evaluate_jump_frontier_budgeted, ExecMode, NoopObserver, WorkBudget};
use smoqe_rxpath::parse_path;
use smoqe_tax::TaxIndex;
use smoqe_xml::Vocabulary;

fn plan_for(q: &str, vocab: &Vocabulary) -> CompiledMfa {
    CompiledMfa::compile(&optimize(&compile(&parse_path(q, vocab).unwrap(), vocab)))
}

/// 32 selective point queries, one per spliced unique pname: every plan
/// resolves through a value posting list of length 1.
fn batch_queries() -> Vec<String> {
    (0..32)
        .map(|i| {
            if i % 2 == 0 {
                format!("//patient[pname = 'U{i:02}']")
            } else {
                format!("//pname[. = 'U{i:02}']")
            }
        })
        .collect()
}

fn bench_predicated(c: &mut Criterion) {
    let mut setup = HospitalSetup::generated(11, 30_000);
    setup.with_unique_patients(32);
    let tax = TaxIndex::build(&setup.doc);
    let queries = [
        ("self_text", "//pname[. = 'U00']"),
        ("child_text", "//patient[pname = 'U17']"),
        ("common_self_text", "//medication[. = 'autism']"),
        (
            "common_nested",
            "//visit[treatment/medication = 'flu']/date",
        ),
    ];
    let mut group = c.benchmark_group("predicated_jump");
    for (name, q) in queries {
        let plan = plan_for(q, &setup.vocab);
        for (mode_name, mode) in [("scan", ExecMode::Compiled), ("jump", ExecMode::Jump)] {
            group.bench_with_input(BenchmarkId::new(mode_name, name), &plan, |b, plan| {
                let opts = DomOptions { tax: Some(&tax) };
                b.iter(|| evaluate_mfa_plan(&setup.doc, plan, &opts, mode, &mut NoopObserver))
            });
        }
    }
    group.finish();
}

fn bench_frontier(c: &mut Criterion) {
    let mut setup = HospitalSetup::generated(11, 30_000);
    setup.with_unique_patients(32);
    let tax = TaxIndex::build(&setup.doc);
    let queries = batch_queries();
    let plans: Vec<CompiledMfa> = queries.iter().map(|q| plan_for(q, &setup.vocab)).collect();
    let refs: Vec<&CompiledMfa> = plans.iter().collect();
    let mut group = c.benchmark_group("jump_frontier");
    // One full compiled scan, the yardstick the frontier batch is
    // measured against (the whole 32-plan batch should stay within ~2×).
    let scan_plan = plan_for("//test", &setup.vocab);
    group.bench_function("one_compiled_scan", |b| {
        let opts = DomOptions { tax: Some(&tax) };
        b.iter(|| {
            evaluate_mfa_plan(
                &setup.doc,
                &scan_plan,
                &opts,
                ExecMode::Compiled,
                &mut NoopObserver,
            )
        })
    });
    for threads in [1usize, 2] {
        group.bench_with_input(
            BenchmarkId::new("batch32", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    evaluate_jump_frontier_budgeted(
                        &setup.doc,
                        &refs,
                        &tax,
                        threads,
                        &WorkBudget::unlimited(),
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_predicated, bench_frontier
}
criterion_main!(benches);
