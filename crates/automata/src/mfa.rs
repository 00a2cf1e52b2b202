//! The MFA (mixed finite state automaton) representation.
//!
//! The paper (§3, "Rewriter"): *"the size of Q′, if directly represented as
//! Regular XPath expressions, may be exponential in the size of Q. The
//! SMOQE rewriter overcomes the challenge by employing an automaton
//! characterization of Q′, denoted by MFA, which is linear in the size of
//! Q. An MFA of Q′ is a finite state automaton (NFA, characterizing the
//! data-selection path of Q′) annotated with alternating automata (AFA,
//! capturing the predicates of Q′)."*
//!
//! Our encoding: an [`Mfa`] is an arena of [`Nfa`]s plus an arena of
//! [`Pred`]icates.
//!
//! * Each NFA has consuming transitions labelled with a [`LabelTest`]
//!   (specific label or wildcard) and ε-edges. An ε-edge may carry a
//!   **guard** (a [`PredId`]): a run may traverse it at node *v* only if
//!   the predicate holds at *v*. Guards-on-ε-edges is how `p[q]` attaches
//!   its qualifier without losing *which* continuation depends on it.
//! * A predicate is a boolean combination of `text() = 'c'` tests and
//!   `HasPath` tests, where `HasPath` references another NFA in the same
//!   arena — whose own ε-edges may again carry guards. This nesting is the
//!   alternation of the paper's AFA for the qualifier language
//!   (negation appears only at the predicate level, as in the grammar).
//!
//! Every NFA has one start and one accept state (Thompson construction),
//! so the structure stays linear in the query size ([`MfaStats`] measures
//! it; experiment E2 regenerates the paper's linearity claim).

use smoqe_xml::{Label, Vocabulary};
use std::fmt;

/// State index within one [`Nfa`].
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

/// Index of an NFA within an [`Mfa`] arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NfaId(pub u32);

/// Index of a predicate within an [`Mfa`] arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredId(pub u32);

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}
impl fmt::Debug for NfaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}
impl fmt::Debug for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl StateId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl NfaId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl PredId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a consuming transition matches.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LabelTest {
    /// A specific element label.
    Label(Label),
    /// Any element (`*`).
    Wildcard,
}

impl LabelTest {
    /// Whether the test matches `label`.
    #[inline]
    pub fn matches(self, label: Label) -> bool {
        match self {
            LabelTest::Label(l) => l == label,
            LabelTest::Wildcard => true,
        }
    }
}

/// A non-consuming edge, optionally guarded by a predicate that must hold
/// at the current node for a run to traverse it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EpsEdge {
    /// Target state.
    pub target: StateId,
    /// Predicate instantiated at the current node, if any.
    pub guard: Option<PredId>,
}

/// A consuming transition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Transition {
    /// What child label the transition consumes.
    pub test: LabelTest,
    /// Target state.
    pub target: StateId,
}

/// One finite automaton of the MFA: either the selection path or the path
/// part of a `HasPath` predicate.
#[derive(Clone, Debug, Default)]
pub struct Nfa {
    eps: Vec<Vec<EpsEdge>>,
    trans: Vec<Vec<Transition>>,
    start: StateId,
    accept: StateId,
}

impl Nfa {
    /// An empty automaton (add states before use).
    pub fn new() -> Self {
        Nfa::default()
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> StateId {
        self.eps.push(Vec::new());
        self.trans.push(Vec::new());
        StateId((self.eps.len() - 1) as u32)
    }

    /// Adds an unguarded ε-edge.
    pub fn add_eps(&mut self, from: StateId, to: StateId) {
        self.eps[from.index()].push(EpsEdge {
            target: to,
            guard: None,
        });
    }

    /// Adds a guarded ε-edge.
    pub fn add_guarded_eps(&mut self, from: StateId, to: StateId, guard: PredId) {
        self.eps[from.index()].push(EpsEdge {
            target: to,
            guard: Some(guard),
        });
    }

    /// Adds a consuming transition.
    pub fn add_transition(&mut self, from: StateId, test: LabelTest, to: StateId) {
        self.trans[from.index()].push(Transition { test, target: to });
    }

    /// Sets the start state.
    pub fn set_start(&mut self, s: StateId) {
        self.start = s;
    }

    /// Sets the accept state.
    pub fn set_accept(&mut self, s: StateId) {
        self.accept = s;
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// The accept state.
    pub fn accept(&self) -> StateId {
        self.accept
    }

    /// Whether `s` is the accept state.
    #[inline]
    pub fn is_accept(&self, s: StateId) -> bool {
        s == self.accept
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.eps.len()
    }

    /// ε-edges out of `s`.
    #[inline]
    pub fn eps_edges(&self, s: StateId) -> &[EpsEdge] {
        &self.eps[s.index()]
    }

    /// Consuming transitions out of `s`.
    #[inline]
    pub fn transitions(&self, s: StateId) -> &[Transition] {
        &self.trans[s.index()]
    }

    /// Total number of consuming transitions.
    pub fn transition_count(&self) -> usize {
        self.trans.iter().map(Vec::len).sum()
    }

    /// Total number of ε-edges.
    pub fn eps_count(&self) -> usize {
        self.eps.iter().map(Vec::len).sum()
    }

    /// Whether any ε-edge carries a guard.
    pub fn has_guards(&self) -> bool {
        self.eps
            .iter()
            .any(|edges| edges.iter().any(|e| e.guard.is_some()))
    }

    /// Rewrites every guard id in place.
    pub(crate) fn map_guards(&mut self, mut f: impl FnMut(PredId) -> PredId) {
        for guard in self
            .eps
            .iter_mut()
            .flatten()
            .filter_map(|e| e.guard.as_mut())
        {
            *guard = f(*guard);
        }
    }

    /// All states, in index order.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.eps.len() as u32).map(StateId)
    }
}

/// A predicate of the MFA's alternating layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pred {
    /// Always true.
    True,
    /// The context node's string value equals the constant.
    TextEq(String),
    /// Some downward path from the context node matches the referenced NFA
    /// (whose accept may itself be guarded — alternation).
    HasPath(NfaId),
    /// Negation.
    Not(PredId),
    /// Conjunction.
    And(Vec<PredId>),
    /// Disjunction.
    Or(Vec<PredId>),
}

/// A mixed finite automaton: the compiled, automaton form of a Regular
/// XPath query (or of a rewritten query over a view).
#[derive(Clone, Debug)]
pub struct Mfa {
    nfas: Vec<Nfa>,
    preds: Vec<Pred>,
    top: NfaId,
    vocab: Vocabulary,
}

impl Mfa {
    /// Creates an MFA from raw parts (used by the builder and rewriter).
    pub fn from_parts(nfas: Vec<Nfa>, preds: Vec<Pred>, top: NfaId, vocab: Vocabulary) -> Self {
        assert!(top.index() < nfas.len(), "top NFA out of range");
        Mfa {
            nfas,
            preds,
            top,
            vocab,
        }
    }

    /// The selection-path NFA.
    pub fn top(&self) -> NfaId {
        self.top
    }

    /// Access an NFA by id.
    #[inline]
    pub fn nfa(&self, id: NfaId) -> &Nfa {
        &self.nfas[id.index()]
    }

    /// Access a predicate by id.
    #[inline]
    pub fn pred(&self, id: PredId) -> &Pred {
        &self.preds[id.index()]
    }

    /// All NFAs with their ids.
    pub fn nfas(&self) -> impl Iterator<Item = (NfaId, &Nfa)> {
        self.nfas
            .iter()
            .enumerate()
            .map(|(i, n)| (NfaId(i as u32), n))
    }

    /// All predicates with their ids.
    pub fn preds(&self) -> impl Iterator<Item = (PredId, &Pred)> {
        self.preds
            .iter()
            .enumerate()
            .map(|(i, p)| (PredId(i as u32), p))
    }

    /// Number of NFAs.
    pub fn nfa_count(&self) -> usize {
        self.nfas.len()
    }

    /// Number of predicates.
    pub fn pred_count(&self) -> usize {
        self.preds.len()
    }

    /// The vocabulary transition labels refer to.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Size metrics (experiment E2 plots these against query size).
    pub fn stats(&self) -> MfaStats {
        MfaStats {
            nfas: self.nfas.len(),
            states: self.nfas.iter().map(Nfa::state_count).sum(),
            transitions: self.nfas.iter().map(Nfa::transition_count).sum(),
            eps_edges: self.nfas.iter().map(Nfa::eps_count).sum(),
            preds: self.preds.len(),
        }
    }
}

/// Size metrics of an [`Mfa`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MfaStats {
    /// Number of NFAs (1 + one per `HasPath`).
    pub nfas: usize,
    /// Total states across all NFAs.
    pub states: usize,
    /// Total consuming transitions.
    pub transitions: usize,
    /// Total ε-edges.
    pub eps_edges: usize,
    /// Number of predicate nodes.
    pub preds: usize,
}

impl MfaStats {
    /// A single scalar "size" (states + transitions + ε + preds), used for
    /// growth curves.
    pub fn total(&self) -> usize {
        self.states + self.transitions + self.eps_edges + self.preds
    }
}

impl fmt::Display for MfaStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} NFA(s), {} states, {} transitions, {} eps, {} preds (total {})",
            self.nfas,
            self.states,
            self.transitions,
            self.eps_edges,
            self.preds,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nfa_construction_basics() {
        let mut n = Nfa::new();
        let a = n.add_state();
        let b = n.add_state();
        let vocab = Vocabulary::new();
        let l = vocab.intern("x");
        n.add_transition(a, LabelTest::Label(l), b);
        n.add_eps(a, b);
        n.set_start(a);
        n.set_accept(b);
        assert_eq!(n.state_count(), 2);
        assert_eq!(n.transition_count(), 1);
        assert_eq!(n.eps_count(), 1);
        assert!(n.is_accept(b));
        assert!(!n.has_guards());
    }

    #[test]
    fn label_test_matching() {
        let vocab = Vocabulary::new();
        let a = vocab.intern("a");
        let b = vocab.intern("b");
        assert!(LabelTest::Label(a).matches(a));
        assert!(!LabelTest::Label(a).matches(b));
        assert!(LabelTest::Wildcard.matches(a));
        assert!(LabelTest::Wildcard.matches(b));
    }

    #[test]
    fn guarded_edges_detected() {
        let mut n = Nfa::new();
        let a = n.add_state();
        let b = n.add_state();
        n.add_guarded_eps(a, b, PredId(0));
        assert!(n.has_guards());
    }

    #[test]
    fn mfa_stats_sum_over_nfas() {
        let vocab = Vocabulary::new();
        let l = vocab.intern("a");
        let mut n1 = Nfa::new();
        let s = n1.add_state();
        let t = n1.add_state();
        n1.add_transition(s, LabelTest::Label(l), t);
        n1.set_start(s);
        n1.set_accept(t);
        let mut n2 = Nfa::new();
        let u = n2.add_state();
        n2.set_start(u);
        n2.set_accept(u);
        let mfa = Mfa::from_parts(vec![n1, n2], vec![Pred::True], NfaId(0), vocab);
        let st = mfa.stats();
        assert_eq!(st.nfas, 2);
        assert_eq!(st.states, 3);
        assert_eq!(st.transitions, 1);
        assert_eq!(st.preds, 1);
        assert_eq!(st.total(), 3 + 1 + 1);
    }

    #[test]
    #[should_panic(expected = "top NFA out of range")]
    fn from_parts_validates_top() {
        let vocab = Vocabulary::new();
        let _ = Mfa::from_parts(vec![], vec![], NfaId(0), vocab);
    }
}
