//! The allocation budget of a stream lane. A lane allocates per scan —
//! the parser's buffers, the machine's scratch, the label cache — and its
//! per-pass vectors (instances, truths, formulas, `Cans`, answers) grow by
//! doubling, so its allocation count is a constant plus a logarithm of
//! the document, never a share of the nodes it visits. Each of the eight
//! `ingest_stream` queries is streamed alone, as `researchers`, over the
//! `ingest_stream`-shaped document at 50 000 and 100 000 nodes.

use smoqe::workloads::hospital;
use smoqe::{Engine, EngineConfig, User};
use smoqe_automata::compile::CompiledMfa;
use smoqe_bench::{allocations, ingest_batch, ingest_document, CountingAlloc};
use smoqe_hype::stream::{evaluate_stream_plan_budgeted, StreamOptions};
use smoqe_hype::{NoopObserver, WorkBudget};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// At most one allocation per this many visited nodes.
const VISITS_PER_ALLOCATION: u64 = 50;

struct Lane {
    visits: u64,
    answers: usize,
    allocations: u64,
}

/// Streams every query of the batch alone over a document of about
/// `nodes` nodes, counting the allocations of the scan.
fn lanes(nodes: usize) -> Vec<Lane> {
    let xml = ingest_document(nodes);
    let engine = Engine::new(EngineConfig::streaming());
    let doc = engine.open_document("wards");
    doc.load_dtd(hospital::DTD).unwrap();
    doc.load_document(&xml).unwrap();
    doc.register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    let session = doc.session(User::Group(hospital::GROUP.into()));
    ingest_batch()
        .iter()
        .map(|query| {
            let plan = CompiledMfa::compile(&session.plan(query).unwrap());
            let before = allocations();
            let out = evaluate_stream_plan_budgeted(
                xml.as_bytes(),
                &plan,
                engine.vocabulary(),
                StreamOptions::default(),
                &mut NoopObserver,
                &WorkBudget::unlimited(),
            )
            .unwrap();
            let allocations = allocations() - before;
            let expected = session.query(query).unwrap();
            assert_eq!(
                out.answers,
                expected.nodes.iter().map(|n| n.0).collect::<Vec<_>>(),
                "`{query}`"
            );
            Lane {
                visits: out.stats.nodes_visited as u64,
                answers: out.answers.len(),
                allocations,
            }
        })
        .collect()
}

#[test]
fn stream_lanes_allocate_per_scan_not_per_node() {
    let queries = ingest_batch();
    let small = lanes(50_000);
    let large = lanes(100_000);
    for ((query, small), large) in queries.iter().zip(&small).zip(&large) {
        for lane in [small, large] {
            assert!(
                lane.allocations * VISITS_PER_ALLOCATION < lane.visits,
                "`{query}`: {} allocations for {} visits",
                lane.allocations,
                lane.visits
            );
        }
        // Twice the document: each vector the pass keeps (instances,
        // truths, formulas, accept links, `Cans`, answers) doubles about
        // once more — a handful of allocations, whatever the answers.
        assert!(
            large.allocations <= small.allocations + 16,
            "`{query}`: allocations grew {} -> {} with the document ({} -> {} answers)",
            small.allocations,
            large.allocations,
            small.answers,
            large.answers
        );
    }
}
