//! Rewriting queries over virtual views into MFAs over the source.
//!
//! This is SMOQE's central algorithm (§3, "Rewriter"): given a Regular
//! XPath query Q over a (possibly recursively defined) view V, produce an
//! automaton Q′ over the underlying document with **Q′(T) = Q(V(T))** for
//! every source T. Representing Q′ as an MFA keeps it *linear* in |Q|
//! (where the syntactic representation can be exponential — see
//! [`crate::direct`] and experiment E2).
//!
//! ## Construction
//!
//! 1. Compile Q into a view-level MFA (Thompson, linear).
//! 2. For every view NFA, build its **typed product** with the view DTD:
//!    product states are `(query state, view type)` (the type of the view
//!    node the run is at; the view alphabet has one type per label, so
//!    typing is exact).
//! 3. Replace every product transition `((s,A)) --B--> ((t,B))` by a fresh
//!    inlined copy of the NFA of σ(A, B) — the source-level path that
//!    computes B-children of an A-node. σ's own qualifiers compile to
//!    ordinary source-level guards, so conditional and recursive views
//!    come out for free.
//! 4. Rewrite Q's qualifiers recursively: a `HasPath` over the view
//!    becomes a `HasPath` over the source, rewritten with the owning
//!    state's view type as context (memoized per `(predicate, type)`).
//!
//! Size: O(|Q| · |D_V| · max|σ|) states — linear in the query.

use smoqe_automata::{Builder, Mfa, Nfa, NfaId, Pred, PredId, StateId};
use smoqe_rxpath::Path;
use smoqe_view::ViewSpec;
use smoqe_xml::Label;
use std::collections::HashMap;

/// Rewrites `query` (over the view of `spec`) into an MFA over the source
/// document.
///
/// ```
/// use smoqe_rewrite::rewrite;
/// use smoqe_rxpath::parse_path;
/// use smoqe_view::{derive, AccessPolicy, HOSPITAL_POLICY};
/// use smoqe_xml::{Dtd, Vocabulary, HOSPITAL_DTD};
/// let vocab = Vocabulary::new();
/// let dtd = Dtd::parse(HOSPITAL_DTD, &vocab).unwrap();
/// let spec = derive(&AccessPolicy::parse(dtd, HOSPITAL_POLICY).unwrap());
/// // A user query over the view: names are hidden, treatments exposed.
/// let q = parse_path("hospital/patient/treatment/medication", &vocab).unwrap();
/// let mfa = rewrite(&q, &spec);
/// // The rewritten automaton navigates the *source* (through `visit`).
/// assert!(mfa.stats().states > 0);
/// ```
pub fn rewrite(query: &Path, spec: &ViewSpec) -> Mfa {
    rewrite_in(query, spec, Ctx::Document)
}

/// Rewrites `query` relative to a **view node of type `context`** instead
/// of the document root: the resulting MFA runs from the corresponding
/// source node. This is the building block of view composition
/// ([`crate::compose`]), where σ paths of an outer view — which start at
/// inner-view nodes — are rewritten against the inner view.
pub fn rewrite_from(query: &Path, spec: &ViewSpec, context: Label) -> Mfa {
    rewrite_in(query, spec, Ctx::Type(context))
}

fn rewrite_in(query: &Path, spec: &ViewSpec, ctx: Ctx) -> Mfa {
    // Phase 1: view-level MFA.
    let vocab = spec.vocabulary().clone();
    let view_mfa = smoqe_automata::compile(query, &vocab);
    // The view root *is* the source root (same label).
    let root_step = Path::Label(spec.view_dtd().root());
    // Phase 2-4: typed product with σ inlining.
    let mut rw = Rewriter {
        spec,
        root_step: &root_step,
        view_mfa: &view_mfa,
        out: Builder::new(),
        pred_memo: HashMap::new(),
    };
    let top = rw.rewrite_nfa(view_mfa.top(), ctx);
    rw.out.finish(top, &vocab)
}

/// The view-type context a sub-rewrite starts from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Ctx {
    /// The virtual document node (above the view root).
    Document,
    /// A view node of the given type.
    Type(Label),
}

struct Rewriter<'a> {
    spec: &'a ViewSpec,
    /// The one step from the virtual document node: the view root.
    root_step: &'a Path,
    view_mfa: &'a Mfa,
    out: Builder,
    /// (view predicate, context type) -> rewritten source predicate.
    pred_memo: HashMap<(PredId, Ctx), PredId>,
}

impl<'a> Rewriter<'a> {
    /// The view types reachable in one view step from `ctx`, with the σ
    /// path implementing that step on the source.
    fn view_steps(&self, ctx: Ctx) -> Vec<(Label, &'a Path)> {
        let spec: &'a ViewSpec = self.spec;
        match ctx {
            Ctx::Document => vec![(spec.view_dtd().root(), self.root_step)],
            Ctx::Type(a) => spec
                .view_children(a)
                .iter()
                .filter_map(|&b| spec.sigma(a, b).map(|p| (b, p)))
                .collect(),
        }
    }

    /// Builds the typed-product rewrite of one view NFA, returning the new
    /// source NFA's id in the output arena.
    fn rewrite_nfa(&mut self, view_nfa_id: NfaId, start_ctx: Ctx) -> NfaId {
        let vnfa = self.view_mfa.nfa(view_nfa_id);
        let mut out_nfa = Nfa::new();
        // Product-state map.
        let mut map: HashMap<(StateId, Ctx), StateId> = HashMap::new();
        let mut work: Vec<(StateId, Ctx)> = Vec::new();
        let state_of = |out_nfa: &mut Nfa,
                        work: &mut Vec<(StateId, Ctx)>,
                        map: &mut HashMap<(StateId, Ctx), StateId>,
                        key: (StateId, Ctx)| {
            *map.entry(key).or_insert_with(|| {
                work.push(key);
                out_nfa.add_state()
            })
        };
        let start = state_of(&mut out_nfa, &mut work, &mut map, (vnfa.start(), start_ctx));
        out_nfa.set_start(start);
        // One shared accept: every product accept state ε-joins it.
        let accept = out_nfa.add_state();
        out_nfa.set_accept(accept);

        while let Some((s, ctx)) = work.pop() {
            let from = map[&(s, ctx)];
            if vnfa.is_accept(s) {
                out_nfa.add_eps(from, accept);
            }
            // ε-edges stay within the same context; guards are rewritten
            // against it.
            for e in vnfa.eps_edges(s) {
                let to = state_of(&mut out_nfa, &mut work, &mut map, (e.target, ctx));
                match e.guard {
                    None => out_nfa.add_eps(from, to),
                    Some(g) => {
                        let rewritten = self.rewrite_pred(g, ctx);
                        out_nfa.add_guarded_eps(from, to, rewritten);
                    }
                }
            }
            // Consuming view steps: inline σ.
            let steps = self.view_steps(ctx);
            for t in vnfa.transitions(s) {
                for &(b, sigma) in &steps {
                    if !t.test.matches(b) {
                        continue;
                    }
                    let to = state_of(&mut out_nfa, &mut work, &mut map, (t.target, Ctx::Type(b)));
                    // A fresh copy of σ's fragment between `from` and `to`;
                    // its qualifiers become source-level predicates in the
                    // output arena.
                    self.out.fragment(&mut out_nfa, sigma, from, to);
                }
            }
        }
        self.out.nfas.push(out_nfa);
        NfaId((self.out.nfas.len() - 1) as u32)
    }

    /// Rewrites a view-level predicate in the given context (memoized).
    fn rewrite_pred(&mut self, pred: PredId, ctx: Ctx) -> PredId {
        if let Some(&p) = self.pred_memo.get(&(pred, ctx)) {
            return p;
        }
        let result = match self.view_mfa.pred(pred) {
            Pred::True => self.out.add_pred(Pred::True),
            // Exposed view nodes carry exactly their source node's direct
            // text, so text comparisons transfer verbatim.
            Pred::TextEq(c) => self.out.add_pred(Pred::TextEq(c.clone())),
            Pred::HasPath(n) => {
                let n = *n;
                let rewritten = self.rewrite_nfa(n, ctx);
                self.out.add_pred(Pred::HasPath(rewritten))
            }
            Pred::Not(p) => {
                let p = *p;
                let sub = self.rewrite_pred(p, ctx);
                self.out.add_pred(Pred::Not(sub))
            }
            Pred::And(ps) => {
                let ps = ps.clone();
                let subs = ps.iter().map(|&p| self.rewrite_pred(p, ctx)).collect();
                self.out.add_pred(Pred::And(subs))
            }
            Pred::Or(ps) => {
                let ps = ps.clone();
                let subs = ps.iter().map(|&p| self.rewrite_pred(p, ctx)).collect();
                self.out.add_pred(Pred::Or(subs))
            }
        };
        self.pred_memo.insert((pred, ctx), result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_hype::evaluate_mfa;
    use smoqe_rxpath::{evaluate, parse_path};
    use smoqe_view::{derive, materialize, AccessPolicy, HOSPITAL_POLICY};
    use smoqe_xml::{Document, Dtd, Vocabulary, HOSPITAL_DTD};

    const SAMPLE: &str = "<hospital>\
        <patient><pname>Ann</pname>\
          <visit><treatment><medication>autism</medication></treatment><date>d1</date></visit>\
          <visit><treatment><test>blood</test></treatment><date>d2</date></visit>\
          <parent><patient><pname>Pa</pname>\
            <visit><treatment><medication>flu</medication></treatment><date>d3</date></visit>\
          </patient></parent>\
        </patient>\
        <patient><pname>Bob</pname>\
          <visit><treatment><medication>flu</medication></treatment><date>d4</date></visit>\
        </patient>\
        <patient><pname>Cal</pname>\
          <visit><treatment><medication>autism</medication></treatment><date>d5</date></visit>\
          <visit><treatment><medication>flu</medication></treatment><date>d6</date></visit>\
        </patient>\
      </hospital>";

    fn setup() -> (Vocabulary, Dtd, ViewSpec, Document) {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse(HOSPITAL_DTD, &vocab).unwrap();
        let policy = AccessPolicy::parse(dtd.clone(), HOSPITAL_POLICY).unwrap();
        let spec = derive(&policy);
        let doc = Document::parse_str(SAMPLE, &vocab).unwrap();
        (vocab, dtd, spec, doc)
    }

    /// The paper's correctness statement: Q'(T) == Q(V(T)).
    fn assert_equivalent(query: &str, spec: &ViewSpec, doc: &Document, vocab: &Vocabulary) {
        let q = parse_path(query, vocab).unwrap();
        // Left side: rewrite, evaluate on the source.
        let mfa = rewrite(&q, spec);
        let (rewritten_answers, _) = evaluate_mfa(doc, &mfa);
        // Right side: materialize, evaluate on the view, map to origins.
        let view = materialize(spec, doc).unwrap();
        let view_answers = evaluate(&view.doc, &q);
        let expected = view.origins_of(view_answers.iter());
        assert_eq!(
            rewritten_answers.as_slice(),
            expected.as_slice(),
            "Q'(T) != Q(V(T)) for `{query}`"
        );
    }

    #[test]
    fn rewriting_is_equivalent_on_simple_queries() {
        let (vocab, _, spec, doc) = setup();
        for q in [
            "hospital",
            "hospital/patient",
            "hospital/patient/treatment",
            "hospital/patient/treatment/medication",
            "hospital/patient/parent/patient",
            "//medication",
            "//patient",
            "//treatment",
        ] {
            assert_equivalent(q, &spec, &doc, &vocab);
        }
    }

    #[test]
    fn rewriting_is_equivalent_on_predicates() {
        let (vocab, _, spec, doc) = setup();
        for q in [
            "hospital/patient[treatment]",
            "hospital/patient[treatment/medication = 'autism']",
            "hospital/patient[not(parent)]",
            "hospital/patient[parent/patient/treatment]",
            "//patient[treatment[medication = 'flu']]",
            "//treatment[medication and not(medication = 'flu')]",
            "hospital/patient[treatment and parent]/treatment/medication",
        ] {
            assert_equivalent(q, &spec, &doc, &vocab);
        }
    }

    #[test]
    fn rewriting_is_equivalent_on_closures() {
        let (vocab, _, spec, doc) = setup();
        for q in [
            "hospital/patient/(parent/patient)*",
            "hospital/patient/(parent/patient)*/treatment",
            "hospital/(patient)*",
            "(hospital | hospital/patient)*",
            "hospital/patient/(parent/patient)*[treatment/medication = 'flu']",
        ] {
            assert_equivalent(q, &spec, &doc, &vocab);
        }
    }

    #[test]
    fn identity_view_rewriting_preserves_queries() {
        let (vocab, dtd, _, doc) = setup();
        let spec = ViewSpec::identity(&dtd);
        for q in [
            "hospital/patient/pname",
            "//medication",
            "hospital/patient[visit/treatment/medication = 'autism']/pname",
            "hospital/patient/(parent/patient)*/visit/date",
        ] {
            let path = parse_path(q, &vocab).unwrap();
            let mfa = rewrite(&path, &spec);
            let (got, _) = evaluate_mfa(&doc, &mfa);
            let want = evaluate(&doc, &path);
            assert_eq!(got, want, "identity rewrite changed `{q}`");
        }
    }

    #[test]
    fn hidden_labels_never_leak() {
        let (vocab, _, spec, doc) = setup();
        // Queries over hidden types return nothing through the view.
        for q in [
            "//pname",
            "//visit",
            "//date",
            "//test",
            "hospital/patient/pname",
        ] {
            let path = parse_path(q, &vocab).unwrap();
            let mfa = rewrite(&path, &spec);
            let (got, _) = evaluate_mfa(&doc, &mfa);
            assert!(got.is_empty(), "`{q}` leaked {} nodes", got.len());
        }
    }

    #[test]
    fn rewritten_size_is_linear_in_query() {
        let (vocab, _, spec, _) = setup();
        let mut sizes = Vec::new();
        for n in 1..=8 {
            let q = format!(
                "hospital/patient{}",
                "/(parent/patient)*[treatment]".repeat(n)
            );
            let path = parse_path(&q, &vocab).unwrap();
            let mfa = rewrite(&path, &spec);
            sizes.push((path.size() as f64, mfa.stats().total() as f64));
        }
        for w in sizes.windows(2) {
            let growth = w[1].1 / w[0].1;
            let q_growth = w[1].0 / w[0].0;
            assert!(
                growth <= q_growth * 1.6 + 0.6,
                "superlinear rewrite growth: {growth:.2} vs query {q_growth:.2}"
            );
        }
    }

    #[test]
    fn wildcard_steps_expand_over_view_children() {
        let (vocab, _, spec, doc) = setup();
        assert_equivalent("hospital/*", &spec, &doc, &vocab);
        assert_equivalent("hospital/patient/*", &spec, &doc, &vocab);
        assert_equivalent("//*", &spec, &doc, &vocab);
    }

    #[test]
    fn conditional_sigma_filters_in_rewrite() {
        let (vocab, _, spec, doc) = setup();
        // Bob has flu only: not exposed; Ann and Cal are.
        let q = parse_path("hospital/patient", &vocab).unwrap();
        let mfa = rewrite(&q, &spec);
        let (got, _) = evaluate_mfa(&doc, &mfa);
        // Top-level patients only (Ann, Cal) - Pa is nested under parent.
        let names: Vec<String> = got
            .iter()
            .map(|n| {
                doc.children(n)
                    .find_map(|c| {
                        (doc.label(c) == vocab.lookup("pname")).then(|| doc.string_value(c))
                    })
                    .unwrap_or_default()
            })
            .collect();
        assert_eq!(names, vec!["Ann", "Cal"]);
    }
}
