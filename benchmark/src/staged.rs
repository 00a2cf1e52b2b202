//! The ops of the traced run, staged by hand: after the whole op has
//! gone through the façade, the same op is replayed here one public
//! layer function at a time with a span around each call. Only functions
//! the layers already export are called; no crate under test is touched.

use crate::data::{PoolQuery, Who, DOC};
use crate::trace::Tracer;
use smoqe::update::{parse_update, InsertPos, UpdateKind};
use smoqe::{DocHandle, Engine, ExecMode};
use smoqe_automata::optimize::optimize;
use smoqe_automata::{compile, CompiledMfa};
use smoqe_hype::{evaluate_mfa_plan, DomOptions, NoopObserver};
use smoqe_tax::TaxIndex;
use smoqe_view::{derive, materialize, materialize_fragment, AccessPolicy, ViewSpec};
use smoqe_xml::{
    delete_subtree, insert_fragment, replace_subtree, Document, Dtd, NodeId, SplicePlace,
    Vocabulary,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Counts taken at the layer boundaries during a traced run.
#[derive(Default)]
pub struct Counters {
    pub queries: u64,
    pub jump_queries: u64,
    pub answers: u64,
    pub nodes_visited: u64,
    pub tax_pruned: u64,
    pub mfa_states: Vec<u64>,
    pub plan_states: Vec<u64>,
    pub serialized_bytes: u64,
    /// Whole-op latency (ns) of ops the engine planned from scratch.
    pub plan_miss_ns: Vec<u64>,
    /// Whole op minus what its staged replay accounts for (ns, signed).
    pub overhead_ns: Vec<i64>,
    /// Durable update minus the same statement on the in-memory twin,
    /// op by op (ns, signed).
    pub wal_ns: Vec<i64>,
    /// Answer payload that crossed the wire, and the requests it was for.
    pub wire_bytes: u64,
    pub wire_requests: u64,
}

impl Counters {
    pub fn merge(&mut self, mut o: Counters) {
        self.queries += o.queries;
        self.jump_queries += o.jump_queries;
        self.answers += o.answers;
        self.nodes_visited += o.nodes_visited;
        self.tax_pruned += o.tax_pruned;
        self.mfa_states.append(&mut o.mfa_states);
        self.plan_states.append(&mut o.plan_states);
        self.serialized_bytes += o.serialized_bytes;
        self.plan_miss_ns.append(&mut o.plan_miss_ns);
        self.overhead_ns.append(&mut o.overhead_ns);
        self.wal_ns.append(&mut o.wal_ns);
        self.wire_bytes += o.wire_bytes;
        self.wire_requests += o.wire_requests;
    }

    /// Folds in what the façade's answer reports.
    pub fn saw_answer(&mut self, answer: &smoqe::Answer) {
        self.queries += 1;
        self.jump_queries += u64::from(answer.mode == ExecMode::Jump);
        self.answers += answer.nodes.len() as u64;
        self.nodes_visited += answer.stats.nodes_visited as u64;
        self.tax_pruned += answer.stats.subtrees_pruned_tax as u64;
    }
}

/// What the staged replay of one query needs to know about the façade's
/// run of it.
pub struct Observed {
    pub plan_cached: bool,
    pub mode: ExecMode,
    /// Whether the façade serialized the answers (`query_serialized`,
    /// and every query that crosses the wire).
    pub serialized: bool,
    /// In-process time of the whole op.
    pub whole_ns: u64,
    /// Whether `whole_ns` and this replay did the same work, so their
    /// difference is the façade's own overhead. False when the replay
    /// plans but the timed in-process run found the plan cached.
    pub comparable: bool,
}

/// One consistent document state: the document and the index over it.
pub type Snapshot = (Arc<Document>, Option<Arc<TaxIndex>>);

/// One thread's staging state over one document.
pub struct Stage {
    handle: DocHandle,
    vocab: Vocabulary,
    dtd: Arc<Dtd>,
    spec: Arc<ViewSpec>,
    /// Plans the engine served from its cache are not re-planned on the
    /// record; the replay still needs one to evaluate. (Plans the engine
    /// missed are not kept: a workload of misses would hoard them.)
    plans: HashMap<(Who, String), Arc<CompiledMfa>>,
    pub counters: Counters,
}

impl Stage {
    pub fn new(engine: &Arc<Engine>) -> Stage {
        let handle = engine.document_handle(DOC).expect("document is loaded");
        Stage {
            vocab: engine.vocabulary().clone(),
            dtd: handle.dtd().expect("DTD is loaded"),
            spec: handle
                .view(smoqe::workloads::hospital::GROUP)
                .expect("view is registered"),
            handle,
            plans: HashMap::new(),
            counters: Counters::default(),
        }
    }

    /// Plans `query` stage by stage: `rxpath.parse` → `rewrite.rewrite`
    /// (group) or `automata.build` (admin) → `automata.optimize` →
    /// `automata.compile`. Also returns the state count of the automaton
    /// before optimization.
    fn plan(&self, tr: &mut Tracer, request: u64, query: &PoolQuery) -> (Arc<CompiledMfa>, u64) {
        let path = tr.span("rxpath.parse", request, || {
            smoqe_rxpath::parse_path(&query.text, &self.vocab).expect("query parses")
        });
        let mfa = match query.who {
            Who::Admin => tr.span("automata.build", request, || compile(&path, &self.vocab)),
            Who::Group => tr.span("rewrite.rewrite", request, || {
                smoqe_rewrite::rewrite(&path, &self.spec)
            }),
        };
        let states = mfa.nfas().map(|(_, nfa)| nfa.state_count() as u64).sum();
        let mfa = tr.span("automata.optimize", request, || optimize(&mfa));
        let plan = Arc::new(tr.span("automata.compile", request, || CompiledMfa::compile(&mfa)));
        (plan, states)
    }

    /// Replays one query: the planning stages when the engine planned it
    /// too, then `hype.scan` / `hype.jump` in the mode the engine chose,
    /// then `xml.serialize` (admin) or `view.render` (group) when the
    /// façade serialized.
    pub fn query(&mut self, tr: &mut Tracer, request: u64, query: &PoolQuery, seen: &Observed) {
        let doc = self.handle.document().expect("document is loaded");
        let tax = self.handle.tax_index();
        let key = (query.who, query.text.clone());
        if seen.plan_cached && !self.plans.contains_key(&key) {
            // The engine had this plan before the staging state saw the
            // query: plan it off the record, into a recorder nobody reads.
            let (plan, _) = self.plan(&mut Tracer::new(std::time::Instant::now()), request, query);
            self.plans.insert(key.clone(), plan);
        }
        let root = tr.enter("staged", request);
        let plan = if seen.plan_cached {
            self.plans[&key].clone()
        } else {
            let (plan, states) = self.plan(tr, request, query);
            self.counters.mfa_states.push(states);
            self.counters.plan_states.push(plan.max_states() as u64);
            self.counters.plan_miss_ns.push(seen.whole_ns);
            plan
        };
        let name = if seen.mode == ExecMode::Jump {
            "hype.jump"
        } else {
            "hype.scan"
        };
        let options = DomOptions {
            tax: tax.as_deref(),
        };
        let (nodes, _) = tr.span(name, request, || {
            evaluate_mfa_plan(&doc, &plan, &options, seen.mode, &mut NoopObserver)
        });
        if seen.serialized {
            let bytes: usize = match query.who {
                Who::Admin => tr.span("xml.serialize", request, || {
                    nodes
                        .iter()
                        .map(|n| smoqe_xml::serialize::subtree_to_string(&doc, n).len())
                        .sum()
                }),
                Who::Group => tr.span("view.render", request, || {
                    nodes
                        .iter()
                        .map(|n| {
                            materialize_fragment(&self.spec, &doc, n)
                                .expect("answer nodes are view nodes")
                                .doc
                                .to_xml()
                                .len()
                        })
                        .sum()
                }),
            };
            self.counters.serialized_bytes += bytes as u64;
        }
        tr.exit(root);
        if seen.comparable {
            let staged = tr.duration_of(root);
            self.counters
                .overhead_ns
                .push(seen.whole_ns as i64 - staged as i64);
        }
    }

    /// Replays one single-statement update on the snapshot the façade
    /// started from: `update.parse` → (`view.accessible`) →
    /// `update.resolve` → `xml.snapshot_clone` → `xml.edit` → `tax.patch`
    /// per target → (`view.accessible` of the result) → `xml.validate`.
    /// `before` is the document and index as they were before the façade
    /// applied the statement; the state after it is returned so the next
    /// statement of a transaction can be replayed on top.
    pub fn update(
        &mut self,
        tr: &mut Tracer,
        request: u64,
        who: Who,
        statement: &str,
        before: &Snapshot,
    ) -> Option<Snapshot> {
        let (doc, tax) = before;
        let root = tr.enter("staged", request);
        let update = tr.span("update.parse", request, || {
            parse_update(statement, &self.vocab).expect("statement parses")
        });
        let targets: Vec<NodeId> = match who {
            Who::Admin => tr.span("update.resolve", request, || {
                smoqe_rxpath::evaluate(doc, &update.target).into_vec()
            }),
            Who::Group => {
                let view = tr.span("view.accessible", request, || {
                    materialize(&self.spec, doc).expect("view materializes")
                });
                tr.span("update.resolve", request, || {
                    view.origins_of(smoqe_rxpath::evaluate(&view.doc, &update.target).iter())
                })
            }
        };
        tr.span("xml.snapshot_clone", request, || {
            std::hint::black_box(Document::clone(doc));
        });
        let mut state: Option<(Document, Option<TaxIndex>)> = None;
        for &target in targets.iter().rev() {
            let (cur_doc, cur_tax) = match &state {
                None => (&**doc, tax.as_deref()),
                Some((d, t)) => (d, t.as_ref()),
            };
            let (new_doc, span) = tr
                .span("xml.edit", request, || match &update.kind {
                    UpdateKind::Delete => delete_subtree(cur_doc, target),
                    UpdateKind::Replace { fragment } => replace_subtree(cur_doc, target, fragment),
                    UpdateKind::Insert { fragment, pos } => {
                        let place = match pos {
                            InsertPos::Into => SplicePlace::Into,
                            InsertPos::Before => SplicePlace::Before,
                            InsertPos::After => SplicePlace::After,
                        };
                        insert_fragment(cur_doc, target, place, fragment)
                    }
                })
                .expect("edit applies");
            let new_tax =
                cur_tax.map(|t| tr.span("tax.patch", request, || t.patched(&new_doc, &span)));
            state = Some((new_doc, new_tax));
        }
        if let Some((new_doc, _)) = &state {
            if who == Who::Group {
                tr.span("view.accessible", request, || {
                    std::hint::black_box(materialize(&self.spec, new_doc).is_ok());
                });
            }
            tr.span("xml.validate", request, || {
                std::hint::black_box(self.dtd.validate(new_doc).is_ok());
            });
        }
        tr.exit(root);
        state.map(|(doc, tax)| (Arc::new(doc), tax.map(Arc::new)))
    }

    /// The document and index as they are now.
    pub fn snapshot(&self) -> Snapshot {
        (
            self.handle.document().expect("document is loaded"),
            self.handle.tax_index(),
        )
    }
}

/// Set-up staged by hand, `reps` times: `xml.parse`
/// (`Document::parse_str`) → `tax.build` (`TaxIndex::build`), and
/// `view.derive` (policy parse + view derivation). Returns document bytes
/// per node and index bytes per node.
pub fn setup(tr: &mut Tracer, xml: &str, reps: usize) -> (f64, f64) {
    let mut per_node = (0.0, 0.0);
    for rep in 0..reps as u64 {
        let vocab = Vocabulary::new();
        let root = tr.enter("staged.setup", rep);
        let dtd = Dtd::parse(smoqe::workloads::hospital::DTD, &vocab).expect("DTD parses");
        tr.span("view.derive", rep, || {
            let policy = AccessPolicy::parse(dtd.clone(), smoqe::workloads::hospital::POLICY)
                .expect("policy parses");
            std::hint::black_box(derive(&policy));
        });
        let doc = tr.span("xml.parse", rep, || {
            Document::parse_str(xml, &vocab).expect("document parses")
        });
        let tax = tr.span("tax.build", rep, || TaxIndex::build(&doc));
        tr.exit(root);
        tr.finish_request();
        let nodes = doc.node_count().max(1) as f64;
        per_node = (
            doc.memory_summary().total() as f64 / nodes,
            tax.memory_bytes() as f64 / nodes,
        );
    }
    per_node
}
