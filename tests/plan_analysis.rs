//! Regression: per-plan analyses (ε-closures, subset DFAs, required
//! labels) are computed **once per cached plan**, never per machine or per
//! batch lane. Before the compilation layer, `Machine::new` recomputed
//! `required_labels` and the closures for every machine — so a batch of N
//! identical queries paid the analysis N times.
//!
//! The view's σ, compiled for rendering, follow the same rule: once per
//! registered view (on first use), never per request.
//!
//! This file holds exactly one test on purpose: it reads the process-wide
//! `analysis_runs` counter, and unrelated tests compiling plans in
//! parallel threads would make deltas meaningless.

use smoqe::workloads::hospital;
use smoqe::{Engine, User};
use smoqe_automata::compile::analysis_runs;

#[test]
fn batch_compiles_each_distinct_plan_exactly_once() {
    let engine = Engine::with_defaults();
    engine.load_dtd(smoqe_xml::HOSPITAL_DTD).unwrap();
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    // Registering the view compiles none of its σ: each compiles the
    // first time a render needs it.
    let analyses_before_view = analysis_runs();
    engine
        .register_policy("researchers", smoqe_view::HOSPITAL_POLICY)
        .unwrap();
    assert_eq!(analysis_runs(), analyses_before_view, "σ compile on use");
    let session = engine.session(User::Group("researchers".into()));

    // 10 requests, 2 distinct plans.
    let queries: Vec<&str> = std::iter::repeat_n("//medication", 8)
        .chain(std::iter::repeat_n("hospital/patient/treatment", 2))
        .collect();

    let analyses_before = analysis_runs();
    let metrics_before = engine.cache_metrics();
    let batch = session.query_batch(&queries).unwrap();
    assert_eq!(batch.answers.len(), queries.len());

    // Exactly one compilation (ε-closure + required-label analysis + table
    // build) per distinct (scope, query) pair — every other lane of the
    // batch shares the cached Arc<CompiledMfa>.
    assert_eq!(
        analysis_runs() - analyses_before,
        2,
        "analyses must be shared through the compiled plan"
    );
    let metrics = engine.cache_metrics();
    assert_eq!(metrics.misses - metrics_before.misses, 2);
    assert_eq!(metrics.hits - metrics_before.hits, queries.len() as u64 - 2);

    // Re-running the whole batch performs zero additional analyses.
    let analyses_mid = analysis_runs();
    session.query_batch(&queries).unwrap();
    assert_eq!(
        analysis_runs(),
        analyses_mid,
        "fully cached batch recompiles"
    );

    // Serialized, the batch renders `treatment` answers through
    // σ(treatment, medication) — compiled once, by the first render —
    // and `medication` answers, which have no view children.
    let serialized = session.query_batch_serialized(&queries).unwrap();
    assert!(serialized.answers.iter().all(|a| !a.is_empty()));
    assert_eq!(analysis_runs() - analyses_mid, 1, "one σ, once");
    let analyses_warm = analysis_runs();
    session.query_batch_serialized(&queries).unwrap();
    assert_eq!(analysis_runs(), analyses_warm, "a warm render compiles");
}
