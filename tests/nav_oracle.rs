//! The guard-branching tables against the guard-aware closures they
//! replace.
//!
//! The jump driver steps one exact state per node: the table entry of its
//! parent's state on the node's label, with every branch resolved by
//! probing the branch's guard at the node. This file keeps the plain
//! formulation as the oracle — the node's guard-aware state set, each
//! node's set stepped and closed from its parent's, crossing a guarded
//! ε-edge iff its predicate holds at the node — and checks on random
//! queries over random hospital documents, for the admin and through the
//! S0 view, that at every node the table state's members are exactly the
//! oracle's set — less its inert states (non-accepting, no consuming
//! transition) for a guarded NFA — and that a node resolves to `DEAD`
//! exactly where that set is empty. The same holds for the table of every `HasPath` sub-NFA
//! a witness search steps, from a spread of origins.
//!
//! Guard verdicts come from the oracle: `text() = 'v'` compares the
//! node's direct text, a `HasPath` searches the node's subtree with the
//! same guard-aware closures. The oracle's own answers are checked
//! against `smoqe_rxpath::evaluate` (on the document for the admin, on the
//! materialized view mapped back to the source for the group), so both
//! the closures and the verdicts they rest on are tied to the reference
//! evaluator.

use proptest::prelude::*;
use rand::SeedableRng;
use smoqe::workloads::hospital;
use smoqe_automata::compile::{DfaTable, DEAD};
use smoqe_automata::optimize::optimize;
use smoqe_automata::{compile, CompiledMfa, LabelTest, Mfa, NfaId, Pred, PredId, StateId};
use smoqe_rxpath::random::{random_path, QueryGenConfig};
use smoqe_rxpath::{evaluate, parse_path};
use smoqe_view::{derive, materialize, AccessPolicy, ViewSpec};
use smoqe_xml::{Document, NodeId, Vocabulary};
use std::sync::Arc;

/// The guard-aware state sets of one plan over one document.
struct Oracle<'a> {
    doc: &'a Document,
    mfa: &'a Mfa,
}

impl Oracle<'_> {
    /// The guard-aware ε-closure of `seed` in NFA `id` at `node` (`None`
    /// is the virtual document node), as a membership vector.
    fn close(&self, id: NfaId, seed: &[StateId], node: Option<NodeId>) -> Vec<bool> {
        let nfa = self.mfa.nfa(id);
        let mut set = vec![false; nfa.state_count()];
        let mut work = seed.to_vec();
        for s in seed {
            set[s.index()] = true;
        }
        while let Some(s) = work.pop() {
            for e in nfa.eps_edges(s) {
                if set[e.target.index()] {
                    continue;
                }
                if e.guard.is_none_or(|g| self.holds(g, node)) {
                    set[e.target.index()] = true;
                    work.push(e.target);
                }
            }
        }
        set
    }

    /// The set of `child`, stepped from its parent's `set` and closed.
    fn step(&self, id: NfaId, set: &[bool], child: NodeId) -> Vec<bool> {
        let nfa = self.mfa.nfa(id);
        let label = self.doc.label(child).expect("an element");
        let moved: Vec<StateId> = nfa
            .states()
            .filter(|s| set[s.index()])
            .flat_map(|s| nfa.transitions(s))
            .filter(|t| match t.test {
                LabelTest::Label(l) => l == label,
                LabelTest::Wildcard => true,
            })
            .map(|t| t.target)
            .collect();
        self.close(id, &moved, Some(child))
    }

    /// Whether `pred` holds at `node`.
    fn holds(&self, pred: PredId, node: Option<NodeId>) -> bool {
        match self.mfa.pred(pred) {
            Pred::True => true,
            Pred::TextEq(t) => match node {
                None => t.is_empty(),
                Some(n) => self.doc.direct_text_cow(n).as_ref() == t.as_str(),
            },
            Pred::HasPath(sub) => self.has_path(*sub, node),
            Pred::Not(p) => !self.holds(*p, node),
            Pred::And(ps) => ps.iter().all(|&p| self.holds(p, node)),
            Pred::Or(ps) => ps.iter().any(|&p| self.holds(p, node)),
        }
    }

    /// Whether a downward path from `origin` (itself included) matches
    /// NFA `sub`: a plain depth-first search, no pruning.
    fn has_path(&self, sub: NfaId, origin: Option<NodeId>) -> bool {
        let accept = self.mfa.nfa(sub).accept().index();
        let start = self.close(sub, &[self.mfa.nfa(sub).start()], origin);
        let mut work = vec![(origin, start)];
        while let Some((node, set)) = work.pop() {
            if set[accept] {
                return true;
            }
            if !set.iter().any(|&b| b) {
                continue;
            }
            for c in self.children(node) {
                let next = self.step(sub, &set, c);
                work.push((Some(c), next));
            }
        }
        false
    }

    fn children(&self, node: Option<NodeId>) -> Vec<NodeId> {
        match node {
            None => vec![self.doc.root()],
            Some(n) => self.doc.child_elements(n).collect(),
        }
    }

    /// The set as the table lists members: without its inert states, for
    /// a guarded NFA (a guard-free NFA's table is its plain subset DFA).
    fn kept(&self, id: NfaId, set: &[bool]) -> Vec<StateId> {
        let nfa = self.mfa.nfa(id);
        let guarded = nfa.has_guards();
        nfa.states()
            .filter(|&s| set[s.index()])
            .filter(|&s| !guarded || s == nfa.accept() || !nfa.transitions(s).is_empty())
            .collect()
    }

    /// `entry` of `table` resolved at `node` with the oracle's verdicts.
    fn resolve(&self, table: &DfaTable, mut entry: u32, node: Option<NodeId>) -> u32 {
        while let Some(b) = table.branch(entry) {
            entry = match self.holds(b.pred, node) {
                true => b.if_true,
                false => b.if_false,
            };
        }
        entry
    }

    /// Walks NFA `id`'s `table` and the oracle's sets together from
    /// `origin` down its subtree, comparing them at every node; returns
    /// the nodes whose set accepts.
    fn compare(
        &self,
        id: NfaId,
        table: &DfaTable,
        plan: &CompiledMfa,
        origin: Option<NodeId>,
        what: &str,
    ) -> Vec<NodeId> {
        let accept = self.mfa.nfa(id).accept().index();
        let set = self.close(id, &[self.mfa.nfa(id).start()], origin);
        let state = self.resolve(table, table.start(), origin);
        let mut work = vec![(origin, set, state)];
        let mut answers = Vec::new();
        while let Some((node, set, state)) = work.pop() {
            let want = self.kept(id, &set);
            let at = format!("{what}, N{} at {node:?}", id.0);
            if state == DEAD {
                prop_assert!(want.is_empty(), "{}: DEAD, oracle {:?}", at, want);
                continue;
            }
            prop_assert_eq!(table.members(state), &want[..], "{}", at);
            prop_assert_eq!(table.accept(state), set[accept], "{}", at);
            if set[accept] {
                answers.extend(node);
            }
            for c in self.children(node) {
                let col = plan.col(self.doc.label(c).expect("an element"));
                let next = match table.step(state, col) {
                    DEAD => DEAD,
                    entry => self.resolve(table, entry, Some(c)),
                };
                work.push((Some(c), self.step(id, &set, c), next));
            }
        }
        answers.sort_unstable();
        answers
    }
}

fn setup() -> (Vocabulary, ViewSpec, QueryGenConfig) {
    let vocab = Vocabulary::new();
    let dtd = hospital::dtd(&vocab);
    let spec = derive(&AccessPolicy::parse(dtd, hospital::POLICY).unwrap());
    let labels = [
        "hospital",
        "patient",
        "pname",
        "visit",
        "treatment",
        "medication",
        "parent",
        "test",
    ]
    .iter()
    .map(|n| vocab.lookup(n).unwrap())
    .collect();
    let values = vec!["autism".into(), "headache".into(), "Ann".into(), "".into()];
    let mut cfg = QueryGenConfig::new(labels, values);
    cfg.max_depth = 4;
    cfg.qualifier_p = 0.5;
    (vocab, spec, cfg)
}

/// Checks every table of `plan` against the oracle over `doc`, and the
/// oracle's answers against `expected`.
fn check(doc: &Document, plan: &CompiledMfa, expected: &[NodeId], what: &str) {
    let mfa = plan.mfa();
    let oracle = Oracle { doc, mfa };
    let top = mfa.top();
    if let Some(table) = plan.nfa(top).table() {
        let answers = oracle.compare(top, table, plan, None, what);
        prop_assert_eq!(&answers[..], expected, "{} answers", what);
    }
    // Each searched sub-NFA, from the virtual node and a spread of nodes.
    let origins: Vec<Option<NodeId>> = std::iter::once(None)
        .chain(
            doc.all_nodes()
                .filter(|&n| doc.is_element(n))
                .step_by(23)
                .map(Some),
        )
        .collect();
    for ((_, pred), chain) in mfa.preds().zip(plan.chains()) {
        let Pred::HasPath(sub) = pred else { continue };
        let Some(table) = plan.nfa(*sub).table().filter(|_| chain.is_none()) else {
            continue;
        };
        for &origin in &origins {
            oracle.compare(*sub, table, plan, origin, what);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        .. ProptestConfig::default()
    })]

    #[test]
    fn table_states_equal_the_guard_aware_closures(
        doc_seed in 0u64..4,
        query_seed in 0u64..1_000_000,
    ) {
        let (vocab, spec, cfg) = setup();
        let doc = hospital::generate_document(&vocab, doc_seed, 250);
        let view = materialize(&spec, &doc).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(query_seed);
        let path = random_path(&mut rng, &cfg);
        let printed = path.display(&vocab).to_string();
        let path = parse_path(&printed, &vocab).unwrap();
        let admin = optimize(&compile(&path, &vocab));
        let group = optimize(&smoqe_rewrite::rewrite(&path, &spec));
        let admin_want = evaluate(&doc, &path).into_vec();
        let group_want = view.origins_of(evaluate(&view.doc, &path).iter());
        for (mfa, want, who) in [(admin, admin_want, "admin"), (group, group_want, "group")] {
            let plan = CompiledMfa::from_arc(Arc::new(mfa));
            check(&doc, &plan, &want, &format!("{who} `{printed}`"));
        }
    }
}

/// The shapes the generator reaches rarely: guards on `//` self-loops,
/// qualifiers at the root (branching at the virtual node), connectives,
/// guards nested inside searched sub-NFAs, and narrowed value triggers.
#[test]
fn hand_picked_shapes_equal_the_guard_aware_closures() {
    let (vocab, spec, _) = setup();
    let doc = hospital::generate_document(&vocab, 5, 400);
    let view = materialize(&spec, &doc).unwrap();
    for q in [
        "//*[pname]//medication",
        "(*[visit])*//treatment",
        ".[hospital]//pname",
        ".[not(hospital/patient)]//pname",
        "hospital[patient/pname = 'Ann']/patient",
        "//patient[not(visit) and (parent or pname = 'Ann')]/pname",
        "//patient[visit[treatment[medication = 'autism' or not(test)]]]",
        "//patient[(parent/patient)*/visit[treatment/test]]/pname",
        "//treatment[medication = 'autism']",
        "//medication[. = 'headache']",
        "//patient[.//medication = 'autism']//test",
    ] {
        let path = parse_path(q, &vocab).unwrap();
        let admin = optimize(&compile(&path, &vocab));
        let group = optimize(&smoqe_rewrite::rewrite(&path, &spec));
        let admin_want = evaluate(&doc, &path).into_vec();
        let group_want = view.origins_of(evaluate(&view.doc, &path).iter());
        for (mfa, want, who) in [(admin, admin_want, "admin"), (group, group_want, "group")] {
            let plan = CompiledMfa::from_arc(Arc::new(mfa));
            check(&doc, &plan, &want, &format!("{who} `{q}`"));
        }
    }
}
