//! Local evaluation: a compiled downward path run from one context node.
//!
//! The evaluators of this crate answer a query from the document root. A
//! security view needs something smaller, many times over: the source
//! nodes σ(A, B) selects from one view node's origin, for every node of
//! an answer it renders. Regular XPath here only steps downward, so that
//! is a walk of the context node's subtree, in document order, carrying
//! the path automaton's state per level:
//!
//! * a guard-free path walks its subset-construction DFA, one `u32` per
//!   level and one table read per element;
//! * a guarded path walks its NFA as a state bitset per level, crossing a
//!   guarded ε-edge where its predicate holds at the node. A child-chain
//!   predicate (`[l1/…/lk]`, maybe `= 'v'`, a [`ChildChain`]) is answered
//!   by following those child labels; any other `HasPath` by the same
//!   walk below the node, stopping at the first witness.
//!
//! A [`LocalPath`] is compiled once (a view's renderer compiles each σ
//! the first time it needs it) and shared; a [`LocalScratch`] holds the
//! per-level states and is reused across calls, so a warm evaluation
//! allocates nothing.

use smoqe_automata::compile::{CompiledMfa, CompiledNfa, DEAD};
use smoqe_automata::{ChildChain, Mfa, NfaId, Pred, PredId, StateId};
use smoqe_xml::{Document, NodeId};

/// A downward path compiled for evaluation from a context node.
#[derive(Debug)]
pub struct LocalPath {
    plan: CompiledMfa,
    /// Bitset width, in `u64` words, of a state set of any of the plan's
    /// NFAs.
    words: usize,
    /// Per NFA, `words` words: the states with a consuming transition.
    /// A level whose set misses them all has nothing below it to match.
    stepping: Vec<u64>,
    /// Per state of the top NFA's DFA (when it has one): whether some
    /// label moves it.
    dfa_stepping: Vec<bool>,
}

/// Reusable per-level storage for [`LocalPath::select`].
#[derive(Debug, Default)]
pub struct LocalScratch {
    /// DFA state per open level.
    states: Vec<u32>,
    /// State bitsets, one per open level of every walk in progress (a
    /// guard's witness walk stacks its levels above its caller's).
    sets: Vec<u64>,
}

impl LocalPath {
    /// Compiles `mfa` (a path as [`smoqe_automata::compile()`] builds it).
    pub fn new(mfa: &Mfa) -> Self {
        let plan = CompiledMfa::compile(mfa);
        let words = plan.max_states().div_ceil(64).max(1);
        let mut stepping = vec![0u64; words * mfa.nfa_count()];
        for (id, nfa) in mfa.nfas() {
            for s in nfa.states() {
                if !nfa.transitions(s).is_empty() {
                    stepping[id.index() * words + s.index() / 64] |= 1 << (s.index() % 64);
                }
            }
        }
        let dfa_stepping = match plan.nfa(mfa.top()).dfa() {
            Some(dfa) => (0..dfa.state_count() as u32)
                .map(|s| (0..plan.width()).any(|col| dfa.step(s, col) != DEAD))
                .collect(),
            None => Vec::new(),
        };
        LocalPath {
            plan,
            words,
            stepping,
            dfa_stepping,
        }
    }

    /// Appends to `out`, in document order, the strict descendants of
    /// `ctx` the path selects from it. (A path that selects `ctx` itself
    /// — a nullable one — is not a σ; the context is never reported.)
    pub fn select(
        &self,
        doc: &Document,
        ctx: NodeId,
        scratch: &mut LocalScratch,
        out: &mut Vec<NodeId>,
    ) {
        let top = self.plan.mfa().top();
        match self.plan.nfa(top).dfa() {
            Some(dfa) => {
                let states = &mut scratch.states;
                states.clear();
                states.push(dfa.start());
                walk(doc, ctx, |node, depth| {
                    states.truncate(depth);
                    let label = doc.label(node).expect("only elements are walked");
                    let s = dfa.step(states[depth - 1], self.plan.col(label));
                    if s == DEAD {
                        return Walk::Skip;
                    }
                    if dfa.accept(s) {
                        out.push(node);
                    }
                    states.push(s);
                    match self.dfa_stepping[s as usize] {
                        true => Walk::Descend,
                        false => Walk::Skip,
                    }
                });
            }
            None => {
                self.run(doc, top, ctx, scratch, Some(out));
            }
        }
    }

    /// Runs NFA `id` from `ctx` down its subtree. With `out`, appends every
    /// strict descendant where the run accepts and returns `false`;
    /// without, returns whether it accepts anywhere, `ctx` included (a
    /// `HasPath` witness).
    fn run(
        &self,
        doc: &Document,
        id: NfaId,
        ctx: NodeId,
        scratch: &mut LocalScratch,
        mut out: Option<&mut Vec<NodeId>>,
    ) -> bool {
        let w = self.words;
        let nfa = self.plan.nfa(id);
        let accept = self.plan.mfa().nfa(id).accept();
        // Level `d` of this walk lives at `base + d * w`.
        let base = scratch.sets.len();
        scratch.sets.resize(base + w, 0);
        set_bit(&mut scratch.sets[base..], self.plan.mfa().nfa(id).start());
        self.close(doc, id, ctx, base, scratch);
        let accepted_here = has_bit(&scratch.sets[base..], accept);
        let mut found = out.is_none() && accepted_here;
        if !found && self.steps(id, &scratch.sets[base..base + w]) {
            walk(doc, ctx, |node, depth| {
                let (from, to) = (base + (depth - 1) * w, base + depth * w);
                scratch.sets.truncate(to);
                scratch.sets.resize(to + w, 0);
                let col = self
                    .plan
                    .col(doc.label(node).expect("only elements are walked"));
                let mut any = false;
                for i in 0..w {
                    let mut bits = scratch.sets[from + i];
                    while bits != 0 {
                        let s = StateId((i * 64) as u32 + bits.trailing_zeros());
                        bits &= bits - 1;
                        for &t in nfa.row(s, col) {
                            set_bit(&mut scratch.sets[to..], t);
                            any = true;
                        }
                    }
                }
                if !any {
                    return Walk::Skip;
                }
                self.close(doc, id, node, to, scratch);
                if has_bit(&scratch.sets[to..], accept) {
                    match out.as_deref_mut() {
                        Some(out) => out.push(node),
                        None => {
                            found = true;
                            return Walk::Stop;
                        }
                    }
                }
                match self.steps(id, &scratch.sets[to..to + w]) {
                    true => Walk::Descend,
                    false => Walk::Skip,
                }
            });
        }
        scratch.sets.truncate(base);
        found
    }

    /// Whether the set holds a state of NFA `id` with a consuming
    /// transition.
    fn steps(&self, id: NfaId, set: &[u64]) -> bool {
        let mask = &self.stepping[id.index() * self.words..][..self.words];
        set.iter().zip(mask).any(|(s, m)| s & m != 0)
    }

    /// ε-closes the set at `at` (of NFA `id`) at `node`: unguarded
    /// closures come precomputed; a guarded edge is crossed where its
    /// predicate holds at `node`.
    fn close(
        &self,
        doc: &Document,
        id: NfaId,
        node: NodeId,
        at: usize,
        scratch: &mut LocalScratch,
    ) {
        let nfa: &CompiledNfa = self.plan.nfa(id);
        let edges = self.plan.mfa().nfa(id);
        loop {
            let mut grew = false;
            for i in 0..self.words {
                let mut bits = scratch.sets[at + i];
                while bits != 0 {
                    let s = StateId((i * 64) as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                    if !nfa.closure_guarded(s) {
                        for &t in nfa.closure(s) {
                            grew |= set_bit(&mut scratch.sets[at..], t);
                        }
                        continue;
                    }
                    for e in edges.eps_edges(s) {
                        if has_bit(&scratch.sets[at..], e.target) {
                            continue;
                        }
                        if e.guard.is_none_or(|g| self.holds(doc, g, node, scratch)) {
                            grew |= set_bit(&mut scratch.sets[at..], e.target);
                        }
                    }
                }
            }
            if !grew {
                return;
            }
        }
    }

    /// Whether predicate `pred` holds at `node`.
    fn holds(
        &self,
        doc: &Document,
        pred: PredId,
        node: NodeId,
        scratch: &mut LocalScratch,
    ) -> bool {
        match self.plan.mfa().pred(pred) {
            Pred::True => true,
            Pred::TextEq(v) => doc.direct_text_cow(node) == v.as_str(),
            Pred::Not(p) => !self.holds(doc, *p, node, scratch),
            Pred::And(ps) => ps.iter().all(|&p| self.holds(doc, p, node, scratch)),
            Pred::Or(ps) => ps.iter().any(|&p| self.holds(doc, p, node, scratch)),
            Pred::HasPath(sub) => match &self.plan.chains()[pred.index()] {
                Some(chain) => chain_holds(doc, chain, &chain.labels, node),
                None => self.run(doc, *sub, node, scratch, None),
            },
        }
    }
}

/// Whether `labels` (a suffix of `chain`'s) lead down from `node` to an
/// element carrying the chain's value, if it has one.
fn chain_holds(
    doc: &Document,
    chain: &ChildChain,
    labels: &[smoqe_xml::Label],
    node: NodeId,
) -> bool {
    let Some((&first, rest)) = labels.split_first() else {
        return chain
            .value
            .as_ref()
            .is_none_or(|v| doc.direct_text_cow(node) == v.as_str());
    };
    doc.child_elements(node)
        .any(|c| doc.label(c) == Some(first) && chain_holds(doc, chain, rest, c))
}

/// What a [`walk`] visitor says of the element it was shown.
enum Walk {
    /// Go on below it.
    Descend,
    /// Go on after its subtree.
    Skip,
    /// End the walk.
    Stop,
}

/// Shows `visit` the element descendants of `ctx` in document order with
/// their depth below it (children at 1), below an element only when
/// `visit` asked to descend. It follows the tree's links: no allocation,
/// no recursion.
fn walk(doc: &Document, ctx: NodeId, mut visit: impl FnMut(NodeId, usize) -> Walk) {
    let mut next = first_element(doc, ctx);
    let mut depth = 1;
    while let Some(node) = next {
        match visit(node, depth) {
            Walk::Stop => return,
            Walk::Skip => {}
            Walk::Descend => {
                if let Some(child) = first_element(doc, node) {
                    next = Some(child);
                    depth += 1;
                    continue;
                }
            }
        }
        // After `node`'s subtree: its next element sibling, or that of the
        // nearest ancestor below `ctx` that has one.
        let mut at = node;
        next = loop {
            if let Some(sibling) = next_element(doc, at) {
                break Some(sibling);
            }
            at = doc.parent(at).expect("walked nodes lie below the context");
            if at == ctx {
                break None;
            }
            depth -= 1;
        };
    }
}

fn first_element(doc: &Document, node: NodeId) -> Option<NodeId> {
    doc.child_elements(node).next()
}

fn next_element(doc: &Document, node: NodeId) -> Option<NodeId> {
    let mut at = doc.next_sibling(node);
    while let Some(n) = at {
        if doc.is_element(n) {
            return Some(n);
        }
        at = doc.next_sibling(n);
    }
    None
}

fn set_bit(set: &mut [u64], s: StateId) -> bool {
    let (word, bit) = (s.index() / 64, 1u64 << (s.index() % 64));
    let fresh = set[word] & bit == 0;
    set[word] |= bit;
    fresh
}

fn has_bit(set: &[u64], s: StateId) -> bool {
    set[s.index() / 64] & (1 << (s.index() % 64)) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_rxpath::{evaluate_from, parse_path};
    use smoqe_xml::Vocabulary;

    const DOC: &str = "<r>\
        <a><b>1</b><c><b>2</b><d>x</d></c><b>3</b></a>\
        <a><c><d>y</d><c><b>4</b><d>x</d></c></c></a>\
        <b>5</b>\
        <a>t<b>x</b>u</a>\
      </r>";

    /// Every element as a context, against the naive evaluator.
    fn agrees(query: &str) {
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(DOC, &vocab).unwrap();
        let path = parse_path(query, &vocab).unwrap();
        let local = LocalPath::new(&smoqe_automata::compile(&path, &vocab));
        let mut scratch = LocalScratch::default();
        for ctx in doc.all_nodes().filter(|&n| doc.is_element(n)) {
            let mut got = Vec::new();
            local.select(&doc, ctx, &mut scratch, &mut got);
            let want: Vec<NodeId> = evaluate_from(&doc, &path, &[ctx])
                .iter()
                .filter(|&n| n != ctx)
                .collect();
            assert_eq!(got, want, "`{query}` from {ctx:?}");
            assert!(scratch.sets.is_empty(), "every walk pops its levels");
        }
    }

    #[test]
    fn guard_free_paths_walk_the_dfa() {
        for q in [
            "b", "a/b", "*", "c/b | b", "(c)*/b", "//b", "a//d", ".//c/d",
        ] {
            agrees(q);
        }
    }

    #[test]
    fn guarded_paths_walk_the_nfa() {
        for q in [
            "a[b]",
            "a[c/d = 'x']",
            "a[c/d = 'x']/b",
            "c[b = '2']",
            "a[not(c)]/b",
            "a[b and c]",
            "a[b = '9' or c/c]",
            "a[.//d = 'y']",
            "(c[d])*/b",
            "*[. = 't u']",
            "a[. = 'tu']",
            "a[(c)*/b = '4']//d",
            "c[c[b]/d = 'x']",
        ] {
            agrees(q);
        }
    }
}
