//! The allocation budget of serializing answers. An answer is written
//! into one buffer the render reuses and then copied out once, and the
//! view's σ are compiled when the view is registered, so serializing
//! costs one `String` per answer plus a constant: no fragment document,
//! no name stack, no per-element child list. Counted on the
//! `serve_mixed_open` batch — three `researchers` queries through
//! one serialized batch request — and on admin `//medication`, over the
//! `view_scan` body at 5 000 and 10 000 nodes. (Rendering through a
//! materialized fragment per answer makes dozens of allocations per
//! answer.)

use smoqe::workloads::hospital;
use smoqe::{Engine, QueryRequest, User};
use smoqe_bench::{allocations, view_scan_document, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const BATCH: [&str; 3] = [
    "hospital/patient/treatment/medication",
    "hospital/patient/(parent/patient)*/treatment",
    "//patient[not(parent)]/treatment/medication",
];

struct Render {
    answers: u64,
    /// Allocations of the serialized request.
    serialized: u64,
    /// Allocations of the same request, not serialized.
    plain: u64,
}

/// Counts, over the `view_scan` body of about `nodes` nodes, the
/// allocations of each request with and without serialization — each
/// measured on a warm second run, as a cached plan is.
fn renders(nodes: usize) -> Vec<(&'static str, Render)> {
    let engine = Engine::with_defaults();
    let handle = engine.open_document("pool");
    handle.load_dtd(hospital::DTD).unwrap();
    handle.load_document(&view_scan_document(nodes)).unwrap();
    handle
        .register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    handle.build_tax_index().unwrap();
    let counted = |f: &mut dyn FnMut()| {
        f();
        let before = allocations();
        f();
        allocations() - before
    };
    let group = handle.session(User::Group(hospital::GROUP.into()));
    let serialized = || QueryRequest {
        serialize: true,
        ..QueryRequest::batch(&BATCH)
    };
    let batch = group.run(serialized()).unwrap();
    let admin = handle.session(User::Admin);
    let medication = admin.query_serialized("//medication").unwrap();
    vec![
        (
            "researchers batch",
            Render {
                answers: batch.answers.iter().map(|a| a.len() as u64).sum(),
                serialized: counted(&mut || drop(group.run(serialized()).unwrap())),
                plain: counted(&mut || drop(group.query_batch(&BATCH).unwrap())),
            },
        ),
        (
            "admin //medication",
            Render {
                answers: medication.len() as u64,
                serialized: counted(&mut || drop(admin.query_serialized("//medication").unwrap())),
                plain: counted(&mut || drop(admin.query("//medication").unwrap())),
            },
        ),
    ]
}

#[test]
fn serializing_allocates_one_string_per_answer() {
    let small = renders(5_000);
    let large = renders(10_000);
    for ((request, small), (_, large)) in small.iter().zip(&large) {
        for render in [small, large] {
            assert!(render.answers > 20, "`{request}` answers");
            let rendering = render.serialized.saturating_sub(render.plain);
            assert!(
                rendering <= render.answers + 24,
                "`{request}`: serializing {} answers made {rendering} allocations",
                render.answers
            );
        }
        // Twice the document: past one `String` per answer, the count
        // stays where it was.
        let extra = |r: &Render| r.serialized.saturating_sub(r.answers) as i64;
        assert!(
            extra(large) <= extra(small) + 8,
            "`{request}`: {} allocations for {} answers at 5k nodes, {} for {} at 10k",
            small.serialized,
            small.answers,
            large.serialized,
            large.answers
        );
    }
}
