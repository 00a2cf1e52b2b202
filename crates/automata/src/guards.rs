//! Guard classification for jump-scan evaluation.
//!
//! Jump-scan evaluation wants to know two things about a guarded ε-edge's
//! predicate: whether it is a **child chain** — a witness path of plain
//! child steps, answerable from the positional index without a witness
//! search — and whether it pins a node's *text value*, so trigger lists
//! can narrow to (label, value) posting lists. Both come from one matcher
//! over the canonical forms `build.rs` emits:
//!
//! * `[l1/…/lk]` and `[l1/…/lk = 'v']` compile to a [`Pred::HasPath`]
//!   whose sub-NFA is one line `start --l1--> … --lk--> mid
//!   (--ε[TextEq(v)]-->) accept`, possibly with unguarded ε-edges in
//!   between: a [`ChildChain`] ([`classify_chain`]).
//! * `[. = 'v']` / `[text() = 'v']` compiles to a bare [`Pred::TextEq`] —
//!   the guarded node itself must carry the text
//!   ([`ValueGuard::SelfText`]).
//! * A one-step chain with a value, `[b = 'v']`, is the other value
//!   shape: some *child* labelled `b` must carry the text
//!   ([`ValueGuard::ChildText`]).
//!
//! Anything else (stars, unions, wildcard steps, nested guards, negation,
//! disjunction) classifies as `None`: the caller falls back to a witness
//! search, or to unnarrowed triggers. The check is purely structural, so a
//! rewritten plan whose sub-NFA happens to match the shape benefits too.

use crate::mfa::{LabelTest, Mfa, Pred, PredId};
use smoqe_xml::Label;

/// A `HasPath` guard whose witness path is `l1/…/lk` (`k ≥ 1`), optionally
/// ending in `text() = 'v'`, recognized by [`classify_chain`]. It holds at
/// a node `n` iff some element labelled `lk` lies exactly `k` levels below
/// `n`, its `k − 1` ancestors below `n` carry `l1 … l(k−1)`, and — for a
/// value chain — its direct text equals the value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChildChain {
    /// The child steps, outermost first; never empty.
    pub labels: Vec<Label>,
    /// The direct text the last step's element must carry.
    pub value: Option<String>,
}

/// A predicate that pins a text value, recognized by
/// [`classify_value_guard`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValueGuard {
    /// The guarded node's own direct text must equal the value.
    SelfText(String),
    /// Some child with the given label must have the value as direct text.
    ChildText(Label, String),
}

/// Classifies `pred` as a value guard, if it has one of the two canonical
/// text-comparison shapes. Empty values never classify: the value index
/// only posts nodes with non-empty direct text, so narrowing on `""` would
/// drop real witnesses.
pub fn classify_value_guard(mfa: &Mfa, pred: PredId) -> Option<ValueGuard> {
    value_guard(mfa, pred, classify_chain(mfa, pred).as_ref())
}

/// [`classify_value_guard`] for a predicate whose chain shape is already
/// known (`chain`, as [`classify_chain`] gives it — a compiled plan keeps
/// them): `[b = 'v']` is the one-step chain with a value.
pub fn value_guard(mfa: &Mfa, pred: PredId, chain: Option<&ChildChain>) -> Option<ValueGuard> {
    match (mfa.pred(pred), chain) {
        (Pred::TextEq(v), _) if !v.is_empty() => Some(ValueGuard::SelfText(v.clone())),
        (
            _,
            Some(ChildChain {
                labels,
                value: Some(v),
            }),
        ) if labels.len() == 1 && !v.is_empty() => {
            Some(ValueGuard::ChildText(labels[0], v.clone()))
        }
        _ => None,
    }
}

/// Classifies `pred` as a child chain: a `HasPath` whose sub-NFA, walked
/// from its start, offers exactly one way out of every state until the
/// accept — a label step, an unguarded (or `true`) ε-edge, or, after the
/// last label step, one `text() = 'v'` guard.
pub fn classify_chain(mfa: &Mfa, pred: PredId) -> Option<ChildChain> {
    let Pred::HasPath(sub) = mfa.pred(pred) else {
        return None;
    };
    let nfa = mfa.nfa(*sub);
    let (mut labels, mut value) = (Vec::new(), None);
    let mut s = nfa.start();
    // A line visits each state once: a longer walk has looped.
    for _ in 0..nfa.state_count() {
        if s == nfa.accept() {
            // Reaching the accept is the witness; what follows it cannot
            // make the path exist any less.
            return (!labels.is_empty()).then_some(ChildChain { labels, value });
        }
        match (nfa.transitions(s), nfa.eps_edges(s)) {
            ([t], []) if value.is_none() => {
                let LabelTest::Label(l) = t.test else {
                    return None;
                };
                labels.push(l);
                s = t.target;
            }
            ([], [e]) => {
                match e.guard.map(|g| mfa.pred(g)) {
                    None | Some(Pred::True) => {}
                    Some(Pred::TextEq(v)) if value.is_none() && !labels.is_empty() => {
                        value = Some(v.clone());
                    }
                    _ => return None,
                }
                s = e.target;
            }
            _ => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::compile;
    use smoqe_rxpath::parse_path;
    use smoqe_xml::Vocabulary;

    fn mfa_for(q: &str) -> (Vocabulary, Mfa) {
        let vocab = Vocabulary::new();
        let path = parse_path(q, &vocab).unwrap();
        let mfa = compile(&path, &vocab);
        (vocab, mfa)
    }

    /// All guards appearing on the top NFA's ε-edges, classified.
    fn top_guards(mfa: &Mfa) -> Vec<Option<ValueGuard>> {
        let nfa = mfa.nfa(mfa.top());
        nfa.states()
            .flat_map(|s| nfa.eps_edges(s))
            .filter_map(|e| e.guard)
            .map(|g| classify_value_guard(mfa, g))
            .collect()
    }

    #[test]
    fn self_text_classifies() {
        let (_, mfa) = mfa_for("a[. = 'v']");
        let guards = top_guards(&mfa);
        assert_eq!(guards, vec![Some(ValueGuard::SelfText("v".into()))]);
    }

    #[test]
    fn child_text_classifies() {
        let (vocab, mfa) = mfa_for("a[b = 'hello']");
        let b = vocab.lookup("b").unwrap();
        let guards = top_guards(&mfa);
        assert_eq!(guards, vec![Some(ValueGuard::ChildText(b, "hello".into()))]);
    }

    #[test]
    fn structural_and_complex_guards_do_not_classify() {
        for q in [
            "a[b]",            // existence, no value
            "a[b/c = 'v']",    // witness two steps down
            "a[not(b = 'v')]", // negation
            "a[b = 'v' or c]", // disjunction
            "a[* = 'v']",      // wildcard child step
        ] {
            let (_, mfa) = mfa_for(q);
            let guards = top_guards(&mfa);
            assert!(!guards.is_empty(), "{q} should have guards");
            assert!(
                guards.iter().all(Option::is_none),
                "{q} must not classify: {guards:?}"
            );
        }
    }

    #[test]
    fn empty_value_does_not_classify() {
        let (_, mfa) = mfa_for("a[. = '']");
        let guards = top_guards(&mfa);
        assert!(guards.iter().all(Option::is_none));
    }

    #[test]
    fn descendant_witness_does_not_classify() {
        // `a[//b = 'v']` walks arbitrarily deep — more than 3 states.
        let (_, mfa) = mfa_for("a[.//b = 'v']");
        let guards = top_guards(&mfa);
        assert!(guards.iter().all(Option::is_none));
    }
}
