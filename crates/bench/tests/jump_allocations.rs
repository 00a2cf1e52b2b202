//! The allocation budget of a jump evaluation. A jump driver allocates
//! per evaluation — its cursors, its stacks, the classification of the
//! DFA states it meets — and its answer list grows by doubling, so its
//! allocation count is a constant plus a logarithm of the answers, never
//! a share of the candidates it probes. Each of the thirteen `view_scan`
//! queries, with the principal that asks it, and four shapes that scan a
//! region below every candidate, is evaluated alone by
//! `evaluate_mfa_plan` in jump mode over the `view_scan` body at 50 000 and
//! 100 000 nodes. (A driver that allocates its region lists per region
//! makes 6 000–15 000 allocations on those four shapes.)

use smoqe::workloads::hospital;
use smoqe::{Engine, User};
use smoqe_automata::compile::CompiledMfa;
use smoqe_bench::{allocations, view_scan_document, view_scan_pool, CountingAlloc};
use smoqe_hype::dom::{evaluate_mfa_plan, DomOptions};
use smoqe_hype::{jump_available, ExecMode, NoopObserver};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The pool, plus shapes that open a jump region (or step the children
/// value postings point at) below every candidate.
fn pool() -> Vec<(User, &'static str)> {
    let mut pool = view_scan_pool();
    pool.extend(
        [
            "//patient//medication",
            "//patient/visit[treatment/medication = 'flu']//medication",
            "//parent//treatment[medication = 'flu']",
            "//patient[visit/treatment/medication = 'flu']//date",
        ]
        .map(|q| (User::Admin, q)),
    );
    pool
}

struct Evaluation {
    /// Candidates entered plus guards probed.
    work: u64,
    answers: usize,
    allocations: u64,
}

/// Evaluates every pooled query by jump over a document of about `nodes`
/// nodes, counting the allocations of the second evaluation of each plan
/// (the first classifies what a plan classifies once, as a cached plan
/// has).
fn evaluations(nodes: usize) -> Vec<Evaluation> {
    let engine = Engine::with_defaults();
    let handle = engine.open_document("pool");
    handle.load_dtd(hospital::DTD).unwrap();
    handle.load_document(&view_scan_document(nodes)).unwrap();
    handle
        .register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    let tax = handle.build_tax_index().unwrap();
    let doc = handle.document().unwrap();
    pool()
        .into_iter()
        .map(|(user, query)| {
            let session = handle.session(user);
            let plan = CompiledMfa::compile(&session.plan(query).unwrap());
            assert!(
                jump_available(&doc, &plan, Some(&tax)),
                "`{query}` can jump"
            );
            let options = DomOptions { tax: Some(&tax) };
            let evaluate =
                || evaluate_mfa_plan(&doc, &plan, &options, ExecMode::Jump, &mut NoopObserver);
            evaluate();
            let before = allocations();
            let (answers, stats) = evaluate();
            let allocations = allocations() - before;
            let expected = session.query(query).unwrap();
            assert_eq!(answers.into_vec(), expected.nodes, "`{query}`");
            Evaluation {
                work: (stats.nodes_visited + stats.guard_probes) as u64,
                answers: stats.answers,
                allocations,
            }
        })
        .collect()
}

#[test]
fn jump_evaluations_allocate_per_evaluation_not_per_candidate() {
    let pool = pool();
    let small = evaluations(50_000);
    let large = evaluations(100_000);
    for (((_, query), small), large) in pool.iter().zip(&small).zip(&large) {
        for eval in [small, large] {
            // A constant, plus one doubling of the answer list per power
            // of two.
            let log_answers = u64::from(usize::BITS - eval.answers.leading_zeros());
            assert!(
                eval.allocations <= 48 + log_answers,
                "`{query}`: {} allocations for {} answers ({} candidates and probes)",
                eval.allocations,
                eval.answers,
                eval.work
            );
        }
        // Twice the document: the answers double about once more.
        assert!(
            large.allocations <= small.allocations + 4,
            "`{query}`: allocations grew {} -> {} with the document ({} -> {} answers)",
            small.allocations,
            large.allocations,
            small.answers,
            large.answers
        );
    }
}
