//! Static analyses over MFAs.
//!
//! The TAX index can only prune a subtree if **no accepting continuation of
//! any live run can complete inside it** (paper §3, "Indexer": TAX keeps
//! track of which descendant types exist so the evaluator can skip
//! subtrees). The key analysis is [`required_labels`]: for every NFA state,
//! the set of labels that appear on *every* accepting continuation from
//! that state. If some required label does not occur in a subtree, no run
//! in that state can accept there — prune. Guards are conservatively
//! ignored (they can only shrink the set of accepting runs, so ignoring
//! them under-prunes, never over-prunes); the soundness property is tested
//! here and end-to-end in the evaluator tests. `required_values` is the
//! same analysis for the text values guards compare against, which a value
//! index can look up.
//!
//! Both are greatest fixpoints that a plan computes once, when it is
//! compiled (`crate::compile`), never during evaluation. They run over
//! dense tables — label words per state, value sets per state and label
//! column, a `predicate × column` memo for guards — from a worklist of
//! predecessors (`Sweep`): every state is computed once in reverse id
//! order, and again only when a successor changed.

use crate::mfa::{LabelTest, Mfa, Nfa, NfaId, Pred, PredId, StateId};
use smoqe_xml::{Label, LabelSet};

/// Per-state label requirement for reaching acceptance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Requirement {
    /// No accepting continuation exists from this state at all.
    pub dead: bool,
    /// Labels appearing on **every** accepting continuation (empty when
    /// some continuation needs no specific labels, e.g. via wildcards or
    /// immediate acceptance).
    pub labels: LabelSet,
}

impl Requirement {
    /// Whether a run in this state could still accept inside a subtree
    /// offering exactly `available` element labels.
    pub fn satisfiable_within(&self, available: &LabelSet) -> bool {
        !self.dead && self.labels.is_subset_of(available)
    }
}

/// Per-NFA worklist of a greatest-fixpoint analysis: the predecessor
/// lists of every state, in one flat array, and the states whose value
/// may still change. Every state starts queued, the highest id on top, so
/// a first pass runs in reverse id order — targets before the states that
/// reach them, for the forward edges Thompson construction mostly emits —
/// and afterwards a state is revisited only when one of its successors
/// changed. Reused across the NFAs of a plan, so it allocates once per
/// plan.
#[derive(Default)]
pub(crate) struct Sweep {
    /// `pred_off[s]..pred_off[s + 1]` indexes `preds`: the states with an
    /// edge (ε or consuming) into `s`.
    pred_off: Vec<u32>,
    preds: Vec<StateId>,
    queued: Vec<bool>,
    stack: Vec<StateId>,
    /// The values of [`required_labels`]: per state, whether an accepting
    /// path is known, and the label words.
    known: Vec<bool>,
    sets: Vec<u64>,
}

impl Sweep {
    /// Loads `nfa`'s predecessor lists and queues all its states.
    pub(crate) fn load(&mut self, nfa: &Nfa) {
        let n = nfa.state_count();
        let targets = |s: StateId| {
            let eps = nfa.eps_edges(s).iter().map(|e| e.target);
            eps.chain(nfa.transitions(s).iter().map(|t| t.target))
        };
        self.pred_off.clear();
        self.pred_off.resize(n + 1, 0);
        for s in nfa.states() {
            for t in targets(s) {
                self.pred_off[t.index() + 1] += 1;
            }
        }
        for i in 0..n {
            self.pred_off[i + 1] += self.pred_off[i];
        }
        // Fill each list from its end: afterwards `pred_off[s + 1]` holds
        // where the list of `s` starts, so one shift puts every offset in
        // place.
        self.preds.clear();
        self.preds.resize(self.pred_off[n] as usize, StateId(0));
        for s in nfa.states() {
            for t in targets(s) {
                let end = &mut self.pred_off[t.index() + 1];
                *end -= 1;
                self.preds[*end as usize] = s;
            }
        }
        self.pred_off.rotate_left(1);
        self.pred_off[n] = self.preds.len() as u32;
        self.queued.clear();
        self.queued.resize(n, true);
        self.stack.clear();
        self.stack.extend(nfa.states());
    }

    /// The next state to (re)compute.
    pub(crate) fn pop(&mut self) -> Option<StateId> {
        let s = self.stack.pop()?;
        self.queued[s.index()] = false;
        Some(s)
    }

    /// Where the states with an edge into `s` sit in `preds`.
    fn range(&self, s: StateId) -> std::ops::Range<usize> {
        self.pred_off[s.index()] as usize..self.pred_off[s.index() + 1] as usize
    }

    /// The states with an edge into `s`.
    fn predecessors(&self, s: StateId) -> &[StateId] {
        &self.preds[self.range(s)]
    }

    /// Queues the states with an edge into `s`, whose value changed.
    pub(crate) fn changed(&mut self, s: StateId) {
        for i in self.range(s) {
            let p = self.preds[i];
            if !self.queued[p.index()] {
                self.queued[p.index()] = true;
                self.stack.push(p);
            }
        }
    }
}

/// Computes [`Requirement`]s for every state of `nfa` (greatest fixpoint).
///
/// `num_labels` is the vocabulary size; label sets are bounded by it.
pub fn required_labels(nfa: &Nfa, num_labels: usize) -> Vec<Requirement> {
    required_labels_with(nfa, num_labels, &mut Sweep::default())
}

/// [`required_labels`] on a caller's worklist.
pub(crate) fn required_labels_with(
    nfa: &Nfa,
    num_labels: usize,
    sweep: &mut Sweep,
) -> Vec<Requirement> {
    // Value lattice per state: not `known` = "no accepting path yet"
    // (top), else the state's `words` words of `sets` hold the
    // intersection of labels over known accepting paths. Values only
    // descend, so the worklist empties.
    let n = nfa.state_count();
    let widest = nfa
        .states()
        .flat_map(|s| nfa.transitions(s))
        .filter_map(|t| match t.test {
            LabelTest::Label(l) => Some(l.index() + 1),
            LabelTest::Wildcard => None,
        })
        .fold(num_labels, usize::max);
    let words = widest.div_ceil(64);
    sweep.load(nfa);
    let (mut known, mut sets) = (
        std::mem::take(&mut sweep.known),
        std::mem::take(&mut sweep.sets),
    );
    known.clear();
    known.resize(n, false);
    sets.clear();
    sets.resize(n * words + words, 0);
    // The state being recomputed, in the scratch row past the last state.
    let new = n * words;
    while let Some(s) = sweep.pop() {
        let mut have = nfa.is_accept(s);
        sets[new..].fill(0);
        let mut meet = |sets: &mut [u64], from: usize, label: Option<Label>| {
            let bit = |w: usize| match label {
                Some(l) if l.index() / 64 == w => 1u64 << (l.index() % 64),
                _ => 0,
            };
            for w in 0..words {
                let contribution = sets[from + w] | bit(w);
                sets[new + w] = match have {
                    true => sets[new + w] & contribution,
                    false => contribution,
                };
            }
            have = true;
        };
        for e in nfa.eps_edges(s) {
            if known[e.target.index()] {
                meet(&mut sets, e.target.index() * words, None);
            }
        }
        for t in nfa.transitions(s) {
            if known[t.target.index()] {
                let label = match t.test {
                    LabelTest::Label(l) => Some(l),
                    LabelTest::Wildcard => None,
                };
                meet(&mut sets, t.target.index() * words, label);
            }
        }
        let at = s.index() * words;
        if have != known[s.index()] || sets[at..at + words] != sets[new..] {
            // Monotone: only unknown -> known or shrinking sets.
            known[s.index()] = have;
            sets.copy_within(new.., at);
            sweep.changed(s);
        }
    }
    let required = (0..n)
        .map(|i| {
            // Trailing empty words hold no label: an empty set allocates
            // nothing.
            let set = &sets[i * words..(i + 1) * words];
            let used = set.iter().rposition(|&w| w != 0).map_or(0, |w| w + 1);
            Requirement {
                dead: !known[i],
                labels: LabelSet::from_words(set[..used].to_vec()),
            }
        })
        .collect();
    (sweep.known, sweep.sets) = (known, sets);
    required
}

/// A set of needed values: bit `i` is value id `i`
/// ([`ValueRequirements::values`]).
type Values = u64;

/// How many distinct values the analysis tracks. A value past the first
/// this many is not required of anything: requiring less only prunes less,
/// which stays sound.
const TRACKED_VALUES: usize = Values::BITS as usize;

/// The value ids of a set, ascending.
pub(crate) fn value_ids(values: Values) -> impl Iterator<Item = u32> {
    (0..Values::BITS).filter(move |&i| values & (1 << i) != 0)
}

/// The text-value counterpart of [`required_labels`], for the top NFA of
/// an MFA: per state, and per label of the node a run is at, the labelled
/// text values every accepting continuation needs **at or below that
/// node** — or that none can accept at all.
///
/// Values come from guards. `text() = 'v'` crossed at a node labelled `a`
/// needs `(a, 'v')` there; `[p]` needs whatever the witness run of `p`
/// needs from the same node; a conjunction needs the union of its parts, a
/// disjunction the intersection; negation needs nothing. A value index
/// answers "does this subtree hold one?" with one binary search, which is
/// how jump-scan evaluation prunes candidates (and finds the few children
/// worth stepping into) by the literals a query mentions instead of by
/// verifying guards everywhere. Empty texts are never required: the value
/// index only posts non-empty ones. Transient: a plan compiles what its
/// DFA steps need (`crate::compile::StepValues`) from it when the plan is
/// built, taking the values over by id.
#[derive(Clone, Debug)]
pub(crate) struct ValueRequirements {
    /// The labels transitions mention, sorted: column `i + 1` of the table
    /// is a node labelled `labels[i]`, column 0 a node of any other label.
    labels: Vec<Label>,
    /// The values guards compare against, by value id: each `(label,
    /// text)` stands for "an element with this label whose direct text is
    /// this".
    pub(crate) values: Vec<(Label, String)>,
    /// `state * (labels.len() + 1) + column` → the values needed, or
    /// `None` when no continuation can accept.
    table: Vec<Option<Values>>,
}

impl ValueRequirements {
    /// The table column of a node labelled `at` (`None`: a label nothing
    /// is known about).
    pub(crate) fn column(&self, at: Option<Label>) -> usize {
        at.map_or(0, |l| self.labels.binary_search(&l).map_or(0, |i| i + 1))
    }

    /// What a run in `state` at a node of table column `col`
    /// ([`ValueRequirements::column`]) needs at or below the node (a set of
    /// value ids, [`value_ids`]), or `None` when no accepting continuation
    /// exists.
    pub(crate) fn get(&self, state: StateId, col: usize) -> Option<Values> {
        self.table[state.index() * (self.labels.len() + 1) + col]
    }

    /// [`ValueRequirements::get`] at a node labelled `at`.
    #[cfg(test)]
    pub(crate) fn at(&self, state: StateId, at: Option<Label>) -> Option<Values> {
        self.get(state, self.column(at))
    }
}

/// Computes the [`ValueRequirements`] of `mfa`'s top NFA (and, on the way,
/// of every predicate NFA its guards reach); `None` when the MFA compares
/// no text, so nothing can be required. Greatest fixpoint, like
/// [`required_labels`]: values only shrink along cycles.
///
/// `referenced` holds every label the MFA's transitions mention, each
/// once; `sweep` is the caller's worklist.
pub(crate) fn required_values(
    mfa: &Mfa,
    referenced: &[Label],
    sweep: &mut Sweep,
) -> Option<ValueRequirements> {
    if !mfa
        .preds()
        .any(|(_, p)| matches!(p, Pred::TextEq(text) if !text.is_empty()))
    {
        return None;
    }
    let mut labels = referenced.to_vec();
    labels.sort_unstable();
    let width = labels.len() + 1;
    // Each transition's target column, by label id: one array read.
    let mut column = vec![0u32; labels.last().map_or(0, |l| l.index() + 1)];
    for (i, l) in labels.iter().enumerate() {
        column[l.index()] = i as u32 + 1;
    }
    // Every NFA's table in one arena, at its offset.
    let mut offsets = Vec::with_capacity(mfa.nfa_count() + 1);
    offsets.push(0);
    for (_, nfa) in mfa.nfas() {
        offsets.push(offsets.last().copied().unwrap_or(0) + nfa.state_count() * width);
    }
    let mut analysis = ValueAnalysis {
        mfa,
        labels,
        width,
        column,
        values: Vec::new(),
        tables: vec![None; offsets[mfa.nfa_count()]],
        offsets,
        done: vec![false; mfa.nfa_count()],
        preds: vec![None; mfa.pred_count() * width],
        sweep,
    };
    analysis.table(mfa.top());
    let top = mfa.top().index();
    let (from, to) = (analysis.offsets[top], analysis.offsets[top + 1]);
    analysis.tables.truncate(to);
    analysis.tables.drain(..from);
    Some(ValueRequirements {
        labels: analysis.labels,
        values: analysis.values,
        table: analysis.tables,
    })
}

struct ValueAnalysis<'m> {
    mfa: &'m Mfa,
    labels: Vec<Label>,
    /// `labels.len() + 1`: the table columns.
    width: usize,
    /// `label id → column` for the labels transitions mention.
    column: Vec<u32>,
    /// Interned values ([`ValueRequirements::values`]).
    values: Vec<(Label, String)>,
    /// Every NFA's requirement table, `offsets[nfa] + state * width +
    /// column`; valid once the NFA is `done`.
    tables: Vec<Option<Values>>,
    offsets: Vec<usize>,
    done: Vec<bool>,
    /// `pred * width + column` → what the predicate needs there, once
    /// computed (`Some(None)`: it can never hold).
    preds: Vec<Option<Option<Values>>>,
    sweep: &'m mut Sweep,
}

impl ValueAnalysis<'_> {
    /// The table of NFA `id`, computed on first use.
    fn table(&mut self, id: NfaId) -> &[Option<Values>] {
        if !self.done[id.index()] {
            self.fixpoint(id);
            self.done[id.index()] = true;
        }
        &self.tables[self.offsets[id.index()]..self.offsets[id.index() + 1]]
    }

    fn fixpoint(&mut self, id: NfaId) {
        let mfa = self.mfa;
        let nfa = mfa.nfa(id);
        let width = self.width;
        // What each guard needs where it is crossed, per column (`None`:
        // the guard can never hold, so its edge is never crossed). First,
        // and in edge order: a guard may need another NFA's table, and
        // the order values are first met in is their id order.
        for s in nfa.states() {
            for g in nfa.eps_edges(s).iter().filter_map(|e| e.guard) {
                for col in 0..width {
                    self.pred(g, col);
                }
            }
        }
        let base = self.offsets[id.index()];
        self.sweep.load(nfa);
        while let Some(s) = self.sweep.pop() {
            // A consuming step moves to the column of the label it reads,
            // whatever column the run is at: one meet per state.
            let mut stepped: Option<Values> = None;
            for t in nfa.transitions(s) {
                let next_col = match t.test {
                    LabelTest::Label(l) => self.column[l.index()] as usize,
                    LabelTest::Wildcard => 0,
                };
                if let Some(after) = self.tables[base + t.target.index() * width + next_col] {
                    stepped = Some(stepped.map_or(after, |acc| acc & after));
                }
            }
            let mut changed = false;
            for col in 0..width {
                // The intersection over the ways to go on (`None`: no way
                // seen yet, or none can accept).
                let mut new = nfa.is_accept(s).then_some(0);
                for e in nfa.eps_edges(s) {
                    let Some(after) = self.tables[base + e.target.index() * width + col] else {
                        continue;
                    };
                    let needed = match e.guard {
                        None => after,
                        Some(g) => match self.preds[g.index() * width + col] {
                            Some(Some(at_guard)) => after | at_guard,
                            _ => continue,
                        },
                    };
                    new = Some(new.map_or(needed, |acc| acc & needed));
                }
                if let Some(after) = stepped {
                    new = Some(new.map_or(after, |acc| acc & after));
                }
                let slot = &mut self.tables[base + s.index() * width + col];
                if new != *slot {
                    *slot = new;
                    changed = true;
                }
            }
            if changed {
                self.sweep.changed(s);
            }
        }
    }

    /// What `pred` holding at a node of column `col` needs at or below it;
    /// `None` when it can never hold.
    fn pred(&mut self, pred: PredId, col: usize) -> Option<Values> {
        let memo = pred.index() * self.width + col;
        if let Some(known) = self.preds[memo] {
            return known;
        }
        let needed = match self.mfa.pred(pred) {
            Pred::True | Pred::Not(_) => Some(0),
            Pred::TextEq(text) if text.is_empty() || col == 0 => Some(0),
            Pred::TextEq(text) => {
                let label = self.labels[col - 1];
                match self
                    .values
                    .iter()
                    .position(|(l, t)| *l == label && t == text)
                {
                    Some(i) => Some(1 << i),
                    None if self.values.len() < TRACKED_VALUES => {
                        self.values.push((label, text.clone()));
                        Some(1 << (self.values.len() - 1))
                    }
                    None => Some(0),
                }
            }
            Pred::HasPath(sub) => {
                let start = self.mfa.nfa(*sub).start();
                let width = self.width;
                self.table(*sub)[start.index() * width + col]
            }
            Pred::And(parts) => {
                let mut all = Some(0);
                for &p in parts {
                    match self.pred(p, col) {
                        Some(values) => all = all.map(|acc| acc | values),
                        None => {
                            all = None;
                            break;
                        }
                    }
                }
                all
            }
            Pred::Or(parts) => {
                let mut common: Option<Values> = None;
                for &p in parts {
                    if let Some(values) = self.pred(p, col) {
                        common = Some(common.map_or(values, |acc| acc & values));
                    }
                }
                common
            }
        };
        self.preds[memo] = Some(needed);
        needed
    }
}

/// ε-closure of `states`, ignoring guards: the plain simulation the
/// compiled tables are tested against (the evaluator computes a
/// guard-aware closure itself).
pub fn eps_closure_unguarded(nfa: &Nfa, states: &[StateId]) -> Vec<StateId> {
    let mut in_set = vec![false; nfa.state_count()];
    let mut work: Vec<StateId> = Vec::new();
    for &s in states {
        if !in_set[s.index()] {
            in_set[s.index()] = true;
            work.push(s);
        }
    }
    while let Some(s) = work.pop() {
        for e in nfa.eps_edges(s) {
            if !in_set[e.target.index()] {
                in_set[e.target.index()] = true;
                work.push(e.target);
            }
        }
    }
    (0..nfa.state_count() as u32)
        .map(StateId)
        .filter(|s| in_set[s.index()])
        .collect()
}

/// One consuming step from `states` (assumed ε-closed) on `label`,
/// followed by ε-closure. Guards ignored.
pub fn step_unguarded(nfa: &Nfa, states: &[StateId], label: Label) -> Vec<StateId> {
    let mut out = Vec::new();
    for &s in states {
        for t in nfa.transitions(s) {
            if t.test.matches(label) {
                out.push(t.target);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    eps_closure_unguarded(nfa, &out)
}

/// Whether the NFA accepts the label word `word`, ignoring guards.
pub fn accepts_word_unguarded(nfa: &Nfa, word: &[Label]) -> bool {
    let mut cur = eps_closure_unguarded(nfa, &[nfa.start()]);
    for &l in word {
        if cur.is_empty() {
            return false;
        }
        cur = step_unguarded(nfa, &cur, l);
    }
    cur.iter().any(|&s| nfa.is_accept(s))
}

/// States reachable from `start` following every kind of edge.
pub fn reachable_states(nfa: &Nfa) -> Vec<bool> {
    let mut seen = vec![false; nfa.state_count()];
    if nfa.state_count() == 0 {
        return seen;
    }
    let mut work = vec![nfa.start()];
    seen[nfa.start().index()] = true;
    while let Some(s) = work.pop() {
        for e in nfa.eps_edges(s) {
            if !seen[e.target.index()] {
                seen[e.target.index()] = true;
                work.push(e.target);
            }
        }
        for t in nfa.transitions(s) {
            if !seen[t.target.index()] {
                seen[t.target.index()] = true;
                work.push(t.target);
            }
        }
    }
    seen
}

/// States from which the accept state is reachable.
pub fn coreachable_states(nfa: &Nfa) -> Vec<bool> {
    let n = nfa.state_count();
    let mut seen = vec![false; n];
    if n == 0 {
        return seen;
    }
    let mut sweep = Sweep::default();
    sweep.load(nfa);
    let mut work = vec![nfa.accept()];
    seen[nfa.accept().index()] = true;
    while let Some(s) = work.pop() {
        for &p in sweep.predecessors(s) {
            if !seen[p.index()] {
                seen[p.index()] = true;
                work.push(p);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::compile;
    use smoqe_rxpath::parse_path;
    use smoqe_xml::Vocabulary;

    fn top_nfa(q: &str) -> (Vocabulary, crate::mfa::Mfa) {
        let vocab = Vocabulary::new();
        let p = parse_path(q, &vocab).unwrap();
        let mfa = compile(&p, &vocab);
        (vocab, mfa)
    }

    #[test]
    fn word_acceptance_matches_path_semantics() {
        let (vocab, mfa) = top_nfa("a/b/c");
        let nfa = mfa.nfa(mfa.top());
        let l = |n: &str| vocab.lookup(n).unwrap();
        assert!(accepts_word_unguarded(nfa, &[l("a"), l("b"), l("c")]));
        assert!(!accepts_word_unguarded(nfa, &[l("a"), l("b")]));
        assert!(!accepts_word_unguarded(nfa, &[l("a"), l("c"), l("b")]));
    }

    #[test]
    fn closure_word_acceptance() {
        let (vocab, mfa) = top_nfa("(a/b)*/c");
        let nfa = mfa.nfa(mfa.top());
        let l = |n: &str| vocab.lookup(n).unwrap();
        assert!(accepts_word_unguarded(nfa, &[l("c")]));
        assert!(accepts_word_unguarded(nfa, &[l("a"), l("b"), l("c")]));
        assert!(accepts_word_unguarded(
            nfa,
            &[l("a"), l("b"), l("a"), l("b"), l("c")]
        ));
        assert!(!accepts_word_unguarded(nfa, &[l("a"), l("c")]));
    }

    #[test]
    fn union_acceptance() {
        let (vocab, mfa) = top_nfa("a/(b | c)");
        let nfa = mfa.nfa(mfa.top());
        let l = |n: &str| vocab.lookup(n).unwrap();
        assert!(accepts_word_unguarded(nfa, &[l("a"), l("b")]));
        assert!(accepts_word_unguarded(nfa, &[l("a"), l("c")]));
        assert!(!accepts_word_unguarded(nfa, &[l("b")]));
    }

    #[test]
    fn required_labels_of_linear_path() {
        let (vocab, mfa) = top_nfa("a/b/c");
        let nfa = mfa.nfa(mfa.top());
        let req = required_labels(nfa, vocab.len());
        let start_req = &req[nfa.start().index()];
        assert!(!start_req.dead);
        // From the start, every accepting path uses a, b and c.
        let labels: Vec<String> = start_req
            .labels
            .iter()
            .map(|l| vocab.name(l).to_string())
            .collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
        // At accept, nothing more is required.
        assert!(req[nfa.accept().index()].labels.is_empty());
    }

    #[test]
    fn required_labels_intersect_over_union() {
        let (vocab, mfa) = top_nfa("a/(b/d | c/d)");
        let nfa = mfa.nfa(mfa.top());
        let req = required_labels(nfa, vocab.len());
        let labels: Vec<String> = req[nfa.start().index()]
            .labels
            .iter()
            .map(|l| vocab.name(l).to_string())
            .collect();
        // b vs c differ per branch; a and d are on every path.
        assert_eq!(labels, vec!["a", "d"]);
    }

    #[test]
    fn wildcard_requires_nothing() {
        let (vocab, mfa) = top_nfa("//b");
        let nfa = mfa.nfa(mfa.top());
        let req = required_labels(nfa, vocab.len());
        let labels: Vec<String> = req[nfa.start().index()]
            .labels
            .iter()
            .map(|l| vocab.name(l).to_string())
            .collect();
        // The wildcard closure contributes nothing, but `b` is still on
        // every accepting path - this is exactly what lets TAX prune
        // subtrees with no `b` under a descendant query.
        assert_eq!(labels, vec!["b"]);
    }

    #[test]
    fn dead_states_detected() {
        let vocab = Vocabulary::new();
        let mut nfa = Nfa::new();
        let s = nfa.add_state();
        let t = nfa.add_state();
        let dead = nfa.add_state();
        nfa.set_start(s);
        nfa.set_accept(t);
        nfa.add_transition(s, LabelTest::Label(vocab.intern("a")), t);
        nfa.add_transition(s, LabelTest::Label(vocab.intern("b")), dead);
        let req = required_labels(&nfa, vocab.len());
        assert!(req[dead.index()].dead);
        assert!(!req[s.index()].dead);
        let avail: LabelSet = [vocab.lookup("a").unwrap()].into_iter().collect();
        assert!(req[s.index()].satisfiable_within(&avail));
        assert!(!req[dead.index()].satisfiable_within(&avail));
    }

    #[test]
    fn satisfiable_within_requires_subset() {
        let (vocab, mfa) = top_nfa("a/b");
        let nfa = mfa.nfa(mfa.top());
        let req = required_labels(nfa, vocab.len());
        let only_a: LabelSet = [vocab.lookup("a").unwrap()].into_iter().collect();
        let both: LabelSet = [vocab.lookup("a").unwrap(), vocab.lookup("b").unwrap()]
            .into_iter()
            .collect();
        assert!(!req[nfa.start().index()].satisfiable_within(&only_a));
        assert!(req[nfa.start().index()].satisfiable_within(&both));
    }

    /// The values the whole query needs below the document root, by name.
    /// The labels `mfa`'s transitions mention, each once.
    fn referenced(mfa: &Mfa) -> Vec<Label> {
        let mut labels: Vec<Label> = mfa
            .nfas()
            .flat_map(|(_, nfa)| nfa.states().flat_map(|s| nfa.transitions(s)))
            .filter_map(|t| match t.test {
                LabelTest::Label(l) => Some(l),
                LabelTest::Wildcard => None,
            })
            .collect();
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    fn values_of(mfa: &Mfa) -> Option<ValueRequirements> {
        required_values(mfa, &referenced(mfa), &mut Sweep::default())
    }

    fn values_from_start(q: &str) -> Vec<(String, String)> {
        let (vocab, mfa) = top_nfa(q);
        let Some(reqs) = values_of(&mfa) else {
            return Vec::new(); // compares no (non-empty) text
        };
        let start = mfa.nfa(mfa.top()).start();
        let needed = reqs.at(start, None).expect("the query can accept");
        let mut named: Vec<(String, String)> = value_ids(needed)
            .map(|id| {
                let (l, t) = &reqs.values[id as usize];
                (vocab.name(*l).to_string(), t.clone())
            })
            .collect();
        named.sort();
        named
    }

    #[test]
    fn required_values_follow_guards() {
        let pair = |l: &str, t: &str| (l.to_string(), t.to_string());
        assert_eq!(values_from_start("a/b[c = 'x']/d"), vec![pair("c", "x")]);
        assert_eq!(values_from_start("a/b[. = 'y']"), vec![pair("b", "y")]);
        assert_eq!(values_from_start("a[.//c = 'x']"), vec![pair("c", "x")]);
        assert_eq!(
            values_from_start("a/b[c = 'x' and e = 'y']"),
            vec![pair("c", "x"), pair("e", "y")]
        );
        // Alternatives keep what they share.
        assert_eq!(
            values_from_start("a/(b[c = 'x'] | d[c = 'x'])"),
            vec![pair("c", "x")]
        );
        assert_eq!(
            values_from_start("a/b[c = 'x' or c = 'x' and e = 'y']"),
            vec![pair("c", "x")]
        );
        // Nothing is needed where a continuation can do without.
        for q in [
            "a/(b[c = 'x'] | d[c = 'z'])",
            "a/b[not(c = 'x')]",
            "a/b[. = '']",
            "a/(b[c = 'x'])*",
        ] {
            assert!(values_from_start(q).is_empty(), "{q}");
        }
        // Past the tracked many, further literals are required of nothing.
        let many: Vec<String> = (0..TRACKED_VALUES + 6)
            .map(|i| format!("c = 'x{i}'"))
            .collect();
        let q = format!("a/b[{}]", many.join(" and "));
        let tracked = values_from_start(&q);
        assert!(!tracked.is_empty() && tracked.len() < TRACKED_VALUES + 6);
        assert!(tracked.iter().all(|(label, _)| label == "c"));
    }

    #[test]
    fn required_values_shrink_as_the_run_advances() {
        let (vocab, mfa) = top_nfa("a[p = 'v']/b[c = 'x']");
        let reqs = values_of(&mfa).unwrap();
        let nfa = mfa.nfa(mfa.top());
        let l = |n: &str| vocab.lookup(n).unwrap();
        // After `a`, before its guard: both literals; after the whole
        // path: nothing.
        let after_a = eps_closure_unguarded(nfa, &step_unguarded(nfa, &[nfa.start()], l("a")));
        let needs: Vec<u32> = after_a
            .iter()
            .filter_map(|&s| reqs.at(s, Some(l("a"))).map(u64::count_ones))
            .collect();
        assert!(needs.contains(&2) && needs.contains(&1), "{needs:?}");
        assert_eq!(reqs.at(nfa.accept(), Some(l("b"))), Some(0));
        assert!(values_of(&top_nfa("a/b").1).is_none());
    }

    #[test]
    fn reachable_and_coreachable() {
        let vocab = Vocabulary::new();
        let mut nfa = Nfa::new();
        let s = nfa.add_state();
        let t = nfa.add_state();
        let orphan = nfa.add_state();
        let sink = nfa.add_state();
        nfa.set_start(s);
        nfa.set_accept(t);
        nfa.add_transition(s, LabelTest::Label(vocab.intern("a")), t);
        nfa.add_transition(orphan, LabelTest::Wildcard, t);
        nfa.add_eps(s, sink);
        let reach = reachable_states(&nfa);
        assert_eq!(reach, vec![true, true, false, true]);
        let coreach = coreachable_states(&nfa);
        assert_eq!(coreach, vec![true, true, true, false]);
    }
}
