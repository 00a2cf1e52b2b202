//! Compiled evaluation plans: the table form of an [`Mfa`] that the HyPE
//! hot loop actually executes.
//!
//! Interpreting the MFA per event — runtime ε-closures, linear scans over
//! transition lists, hash maps in the per-node path — leaves a lot of the
//! paper's "one pass at raw speed" promise on the table. This module
//! precomputes, **once per plan** (amortized engine-wide through the plan
//! cache):
//!
//! 1. **Guard-aware ε-closures** per state: the full ε-closure plus a flag
//!    recording whether any guarded edge is reachable inside it. Guard-free
//!    closures let the evaluator skip the formula machinery entirely.
//! 2. **Label columns**: every label a plan's transitions mention is
//!    assigned a dense column id; all other labels (including labels
//!    interned *after* compilation) share column 0, which only wildcard
//!    transitions can match. Tables are therefore query-width, not
//!    vocabulary-width.
//! 3. **CSR step rows** per NFA: `row(state, column)` is a precomputed
//!    slice of transition targets, replacing the per-event scan over
//!    `Nfa::transitions` with one offset lookup.
//! 4. **Subset-construction DFAs** for guard-free NFAs: states are
//!    ε-closed state sets (fixed-width bitsets during construction), the
//!    transition table is a dense `states × columns` array of `u32`, and
//!    acceptance is a bit per DFA state. A machine running a DFA-kind NFA
//!    carries a single `u32` per open tree level and steps with one array
//!    read. Construction aborts past [`DFA_STATE_CAP`] subsets (the
//!    theoretical exponential blow-up), falling back to the NFA rows.
//! 5. **Required-label analysis** ([`required_labels`]) hoisted out of the
//!    evaluator, so TAX-index pruning reads precomputed data.
//!
//! Predicates (`cans` spawning semantics) are untouched: guarded ε-edges
//! stay on the NFA side and are only crossed by the evaluator's guard-aware
//! closure.

use crate::analysis::{eps_closure_unguarded, required_labels, Requirement};
use crate::mfa::{LabelTest, Mfa, Nfa, NfaId, StateId};
use smoqe_xml::Label;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel for "no transition" in dense DFA tables.
pub const DEAD: u32 = u32::MAX;

/// Subset-construction abort threshold: a guard-free NFA producing more
/// DFA states than this keeps its NFA row representation instead. MFAs are
/// linear in the query, so real plans stay far below the cap; this guards
/// the theoretical exponential case.
pub const DFA_STATE_CAP: usize = 512;

static ANALYSIS_RUNS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of plan compilations (ε-closure + required-label
/// analyses). Eval paths must never bump this per machine or per batch
/// lane — the analyses are shared through the compiled plan; regression
/// tests assert the counter.
pub fn analysis_runs() -> u64 {
    ANALYSIS_RUNS.load(Ordering::Relaxed)
}

/// Precomputed ε-closure of one state.
#[derive(Clone, Debug)]
pub struct Closure {
    /// States reachable by ε-edges (guarded or not), sorted, self included.
    pub states: Vec<StateId>,
    /// Whether any edge inside the closure carries a guard. When `false`,
    /// the closure is tag-free and the precomputed `states` are exact.
    pub guarded: bool,
}

/// Dense transition table of a guard-free NFA after subset construction.
#[derive(Clone, Debug)]
pub struct DfaTable {
    width: usize,
    start: u32,
    /// `dfa_state * width + column -> next dfa state` or [`DEAD`].
    next: Vec<u32>,
    /// Whether the subset contains the NFA accept state.
    accept: Vec<bool>,
    /// Member NFA states per DFA state (sorted). Cold data: only read by
    /// TAX-index previews, which need per-member required-label checks.
    members: Vec<Vec<StateId>>,
}

impl DfaTable {
    /// The DFA start state (ε-closure of the NFA start).
    #[inline]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// One consuming step: a single dense-row lookup.
    #[inline]
    pub fn step(&self, state: u32, col: usize) -> u32 {
        self.next[state as usize * self.width + col]
    }

    /// Whether `state` is accepting.
    #[inline]
    pub fn accept(&self, state: u32) -> bool {
        self.accept[state as usize]
    }

    /// The NFA states the subset contains.
    #[inline]
    pub fn members(&self, state: u32) -> &[StateId] {
        &self.members[state as usize]
    }

    /// Number of DFA states.
    pub fn state_count(&self) -> usize {
        self.accept.len()
    }
}

/// The compiled form of one NFA of the plan.
#[derive(Clone, Debug)]
pub struct CompiledNfa {
    states: usize,
    width: usize,
    required: Vec<Requirement>,
    closures: Vec<Closure>,
    /// CSR offsets: `(state * width + col)` indexes into `row_targets`.
    row_off: Vec<u32>,
    row_targets: Vec<StateId>,
    dfa: Option<DfaTable>,
    /// Guard-stripped DFA of a *guarded* NFA: subset construction that
    /// crosses guarded ε-edges as if their guards were true. An
    /// overapproximation — it accepts a superset of the guarded language —
    /// used by jump-scan as a navigation skeleton whose verdicts are
    /// re-verified guard-aware at candidate nodes. `None` for guard-free
    /// NFAs (use [`CompiledNfa::dfa`], which is exact) and past the cap.
    stripped: Option<DfaTable>,
}

impl CompiledNfa {
    /// Per-state required-label analysis (TAX pruning).
    #[inline]
    pub fn required(&self) -> &[Requirement] {
        &self.required
    }

    /// Precomputed ε-closure of `s`.
    #[inline]
    pub fn closure(&self, s: StateId) -> &Closure {
        &self.closures[s.index()]
    }

    /// Transition targets of `s` on a label column — the compiled
    /// equivalent of scanning `Nfa::transitions(s)` for matches.
    #[inline]
    pub fn row(&self, s: StateId, col: usize) -> &[StateId] {
        let i = s.index() * self.width + col;
        &self.row_targets[self.row_off[i] as usize..self.row_off[i + 1] as usize]
    }

    /// The dense DFA, present iff the NFA is guard-free and subset
    /// construction stayed under [`DFA_STATE_CAP`].
    #[inline]
    pub fn dfa(&self) -> Option<&DfaTable> {
        self.dfa.as_ref()
    }

    /// The guard-stripped DFA of a guarded NFA (guards treated as true
    /// during subset construction). Accepts a superset of the real
    /// language: a navigation skeleton, never an oracle — callers must
    /// re-verify acceptance guard-aware. `None` when the NFA is guard-free
    /// (the exact [`CompiledNfa::dfa`] exists instead) or past the cap.
    #[inline]
    pub fn stripped_dfa(&self) -> Option<&DfaTable> {
        self.stripped.as_ref()
    }

    /// Number of NFA states.
    pub fn state_count(&self) -> usize {
        self.states
    }
}

/// A fully compiled evaluation plan: the source [`Mfa`] plus the dense
/// tables the evaluator hot loop runs on. Build once per plan (the plan
/// cache stores `Arc<CompiledMfa>`), share across sessions, batches and
/// threads.
#[derive(Clone, Debug)]
pub struct CompiledMfa {
    mfa: Arc<Mfa>,
    /// `label id -> column`; ids past the end (labels interned after
    /// compilation) and unreferenced labels map to column 0.
    label_cols: Vec<u16>,
    width: usize,
    nfas: Vec<CompiledNfa>,
    max_states: usize,
}

impl CompiledMfa {
    /// Compiles a plan from a borrowed MFA (clones it into the plan).
    pub fn compile(mfa: &Mfa) -> Self {
        Self::from_arc(Arc::new(mfa.clone()))
    }

    /// Compiles a plan around an already-shared MFA.
    pub fn from_arc(mfa: Arc<Mfa>) -> Self {
        ANALYSIS_RUNS.fetch_add(1, Ordering::Relaxed);
        let num_labels = mfa.vocabulary().len();
        // Column 0 is reserved for "label not mentioned by this plan":
        // only wildcard transitions can consume those.
        let mut label_cols = vec![0u16; num_labels];
        let mut referenced: Vec<Label> = Vec::new();
        for (_, nfa) in mfa.nfas() {
            for s in nfa.states() {
                for t in nfa.transitions(s) {
                    if let LabelTest::Label(l) = t.test {
                        if label_cols[l.index()] == 0 {
                            referenced.push(l);
                            // Columns are u16; silently wrapping would map
                            // labels onto wrong columns and corrupt
                            // answers, so an absurdly wide plan must fail
                            // loudly instead.
                            assert!(
                                referenced.len() <= u16::MAX as usize,
                                "plan references more than {} distinct labels",
                                u16::MAX
                            );
                            label_cols[l.index()] = referenced.len() as u16;
                        }
                    }
                }
            }
        }
        let width = referenced.len() + 1;
        let mut max_states = 0;
        let nfas = mfa
            .nfas()
            .map(|(_, nfa)| {
                max_states = max_states.max(nfa.state_count());
                compile_nfa(nfa, num_labels, &label_cols, width)
            })
            .collect();
        CompiledMfa {
            mfa,
            label_cols,
            width,
            nfas,
            max_states,
        }
    }

    /// The source automaton.
    #[inline]
    pub fn mfa(&self) -> &Mfa {
        &self.mfa
    }

    /// Shared handle to the source automaton.
    #[inline]
    pub fn mfa_arc(&self) -> &Arc<Mfa> {
        &self.mfa
    }

    /// The dense column of `label` (0 = "not mentioned by this plan").
    #[inline]
    pub fn col(&self, label: Label) -> usize {
        self.label_cols.get(label.index()).copied().unwrap_or(0) as usize
    }

    /// Table width (referenced labels + the shared wildcard column).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The labels this plan's transitions mention, each with its dense
    /// column (always non-zero — every other label shares the wildcard
    /// column 0). Jump-scan evaluation enumerates these to know which
    /// occurrence lists can possibly move a DFA state.
    pub fn referenced_labels(&self) -> impl Iterator<Item = (Label, usize)> + '_ {
        self.label_cols
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| (Label(i as u32), c as usize))
    }

    /// Compiled data of one NFA.
    #[inline]
    pub fn nfa(&self, id: NfaId) -> &CompiledNfa {
        &self.nfas[id.index()]
    }

    /// Largest state count across the plan's NFAs (scratch sizing).
    #[inline]
    pub fn max_states(&self) -> usize {
        self.max_states
    }

    /// How many of the plan's NFAs run as dense-table DFAs (the rest keep
    /// NFA rows: they carry guards or blew the subset cap).
    pub fn dfa_nfa_count(&self) -> usize {
        self.nfas.iter().filter(|n| n.dfa.is_some()).count()
    }
}

fn compile_nfa(nfa: &Nfa, num_labels: usize, label_cols: &[u16], width: usize) -> CompiledNfa {
    let states = nfa.state_count();
    let required = required_labels(nfa, num_labels);
    let closures = nfa
        .states()
        .map(|s| {
            // BFS over every ε-edge; record whether a guard is crossed.
            let mut seen = vec![false; states];
            let mut guarded = false;
            let mut out = Vec::new();
            let mut work = vec![s];
            seen[s.index()] = true;
            while let Some(x) = work.pop() {
                out.push(x);
                for e in nfa.eps_edges(x) {
                    if e.guard.is_some() {
                        guarded = true;
                    }
                    if !seen[e.target.index()] {
                        seen[e.target.index()] = true;
                        work.push(e.target);
                    }
                }
            }
            out.sort_unstable();
            Closure {
                states: out,
                guarded,
            }
        })
        .collect();

    // CSR step rows: per (state, column), the matching transition targets.
    let mut row_off = Vec::with_capacity(states * width + 1);
    let mut row_targets = Vec::new();
    row_off.push(0u32);
    for s in nfa.states() {
        for col in 0..width {
            for t in nfa.transitions(s) {
                let matches = match t.test {
                    LabelTest::Wildcard => true,
                    LabelTest::Label(l) => label_cols[l.index()] as usize == col && col != 0,
                };
                if matches {
                    row_targets.push(t.target);
                }
            }
            row_off.push(row_targets.len() as u32);
        }
    }

    // `build_dfa` closes over *every* ε-edge (guards ignored), so on a
    // guard-free NFA it is exact, and on a guarded NFA it is precisely the
    // guard-stripped overapproximation jump navigation wants.
    let (dfa, stripped) = if states == 0 {
        (None, None)
    } else if nfa.has_guards() {
        (None, build_dfa(nfa, width, &row_off, &row_targets))
    } else {
        (build_dfa(nfa, width, &row_off, &row_targets), None)
    };

    CompiledNfa {
        states,
        width,
        required,
        closures,
        row_off,
        row_targets,
        dfa,
        stripped,
    }
}

/// Subset construction over the label columns. Subsets are fixed-width
/// bitsets (`words` × u64) interned in a hash map; the output table is a
/// dense `states × width` array.
fn build_dfa(
    nfa: &Nfa,
    width: usize,
    row_off: &[u32],
    row_targets: &[StateId],
) -> Option<DfaTable> {
    let n = nfa.state_count();
    let words = n.div_ceil(64);
    let key_of = |set: &[StateId]| -> Vec<u64> {
        let mut key = vec![0u64; words];
        for s in set {
            key[s.index() / 64] |= 1u64 << (s.index() % 64);
        }
        key
    };
    let start_set = eps_closure_unguarded(nfa, &[nfa.start()]);
    let mut interned: HashMap<Vec<u64>, u32> = HashMap::new();
    let mut members: Vec<Vec<StateId>> = Vec::new();
    let mut accept: Vec<bool> = Vec::new();
    let mut next: Vec<u32> = Vec::new();

    let mut intern =
        |set: Vec<StateId>, members: &mut Vec<Vec<StateId>>, accept: &mut Vec<bool>| -> u32 {
            let key = key_of(&set);
            *interned.entry(key).or_insert_with(|| {
                let id = members.len() as u32;
                accept.push(set.iter().any(|&s| nfa.is_accept(s)));
                members.push(set);
                id
            })
        };

    let start = intern(start_set, &mut members, &mut accept);
    // Process subsets in id order so rows land at `state * width`; newly
    // interned subsets extend the frontier.
    let mut state: u32 = 0;
    while (state as usize) < members.len() {
        if members.len() > DFA_STATE_CAP {
            return None;
        }
        debug_assert_eq!(next.len(), state as usize * width);
        for col in 0..width {
            let mut moved: Vec<StateId> = Vec::new();
            for s in &members[state as usize] {
                let i = s.index() * width + col;
                moved.extend_from_slice(&row_targets[row_off[i] as usize..row_off[i + 1] as usize]);
            }
            moved.sort_unstable();
            moved.dedup();
            if moved.is_empty() {
                next.push(DEAD);
                continue;
            }
            let closed = eps_closure_unguarded(nfa, &moved);
            next.push(intern(closed, &mut members, &mut accept));
        }
        state += 1;
    }
    Some(DfaTable {
        width,
        start,
        next,
        accept,
        members,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::accepts_word_unguarded;
    use crate::build::compile;
    use smoqe_rxpath::parse_path;
    use smoqe_xml::Vocabulary;

    fn plan_for(q: &str) -> (Vocabulary, CompiledMfa) {
        let vocab = Vocabulary::new();
        let path = parse_path(q, &vocab).unwrap();
        let mfa = compile(&path, &vocab);
        (vocab, CompiledMfa::compile(&mfa))
    }

    /// Runs the compiled DFA over a label word.
    fn dfa_accepts(plan: &CompiledMfa, word: &[Label]) -> bool {
        let top = plan.mfa().top();
        let dfa = plan.nfa(top).dfa().expect("guard-free top NFA");
        let mut state = dfa.start();
        for &l in word {
            state = dfa.step(state, plan.col(l));
            if state == DEAD {
                return false;
            }
        }
        dfa.accept(state)
    }

    #[test]
    fn dfa_agrees_with_nfa_simulation() {
        for q in ["a/b/c", "(a/b)*/c", "a/(b | c)", "//b", "a/*/c", "."] {
            let (vocab, plan) = plan_for(q);
            let nfa = plan.mfa().nfa(plan.mfa().top());
            let labels: Vec<Label> = ["a", "b", "c", "d"]
                .iter()
                .map(|n| vocab.intern(n))
                .collect();
            // Recompile after interning extra labels is NOT needed: unseen
            // labels map to column 0 (wildcard-only).
            let mut words: Vec<Vec<Label>> = vec![vec![]];
            for _ in 0..3 {
                let mut next = Vec::new();
                for w in &words {
                    for &l in &labels {
                        let mut w2 = w.clone();
                        w2.push(l);
                        next.push(w2);
                    }
                }
                words.extend(next);
            }
            for w in &words {
                assert_eq!(
                    dfa_accepts(&plan, w),
                    accepts_word_unguarded(nfa, w),
                    "query `{q}`, word {w:?}"
                );
            }
        }
    }

    #[test]
    fn guarded_nfas_get_rows_not_dfas() {
        let (_, plan) = plan_for("a/b[c]/d");
        let top = plan.mfa().top();
        assert!(plan.nfa(top).dfa().is_none(), "guarded top NFA");
        // But the HasPath sub-NFA (the `c` path) is guard-free.
        assert!(plan.dfa_nfa_count() >= 1);
    }

    #[test]
    fn guarded_nfas_get_stripped_dfas() {
        let (vocab, plan) = plan_for("a/b[c]/d");
        let top = plan.mfa().top();
        let stripped = plan.nfa(top).stripped_dfa().expect("stripped DFA");
        // With the guard assumed true, the word a/b/d is accepted.
        let mut state = stripped.start();
        for l in ["a", "b", "d"] {
            state = stripped.step(state, plan.col(vocab.intern(l)));
            assert_ne!(state, DEAD, "stripped DFA died on {l}");
        }
        assert!(stripped.accept(state));
        // Agreement with guard-ignoring NFA simulation on short words.
        let nfa = plan.mfa().nfa(top);
        let labels: Vec<Label> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| vocab.intern(n))
            .collect();
        for &x in &labels {
            for &y in &labels {
                for &z in &labels {
                    let w = [x, y, z];
                    let mut s = stripped.start();
                    for &l in &w {
                        if s != DEAD {
                            s = stripped.step(s, plan.col(l));
                        }
                    }
                    let got = s != DEAD && stripped.accept(s);
                    assert_eq!(got, accepts_word_unguarded(nfa, &w), "word {w:?}");
                }
            }
        }
        // Guard-free NFAs carry only the exact DFA.
        let (_, plain) = plan_for("a/b");
        let top = plain.mfa().top();
        assert!(plain.nfa(top).dfa().is_some());
        assert!(plain.nfa(top).stripped_dfa().is_none());
    }

    #[test]
    fn rows_match_transition_scans() {
        let (vocab, plan) = plan_for("a/(b | *)/c");
        let top_id = plan.mfa().top();
        let nfa = plan.mfa().nfa(top_id);
        let compiled = plan.nfa(top_id);
        let labels: Vec<Label> = ["a", "b", "c", "zzz"]
            .iter()
            .map(|n| vocab.intern(n))
            .collect();
        for s in nfa.states() {
            for &l in &labels {
                let mut want: Vec<StateId> = nfa
                    .transitions(s)
                    .iter()
                    .filter(|t| t.test.matches(l))
                    .map(|t| t.target)
                    .collect();
                let mut got: Vec<StateId> = compiled.row(s, plan.col(l)).to_vec();
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, want, "state {s:?}, label {l:?}");
            }
        }
    }

    #[test]
    fn unseen_labels_take_the_wildcard_column() {
        let (vocab, plan) = plan_for("a/*");
        // A label interned after compilation: must behave as wildcard-only.
        let late = vocab.intern("late-label");
        assert_eq!(plan.col(late), 0);
        assert!(dfa_accepts(&plan, &[vocab.lookup("a").unwrap(), late]));
        assert!(!dfa_accepts(&plan, &[late, late]));
    }

    #[test]
    fn closures_flag_guards() {
        let (_, plan) = plan_for("a[b]/c");
        let top = plan.mfa().top();
        let compiled = plan.nfa(top);
        let any_guarded =
            (0..compiled.state_count()).any(|i| compiled.closure(StateId(i as u32)).guarded);
        assert!(any_guarded, "the qualifier guard must be visible");
    }

    #[test]
    fn analysis_counter_moves_once_per_compile() {
        let before = analysis_runs();
        let (_, _plan) = plan_for("a/b/c");
        assert_eq!(analysis_runs(), before + 1);
    }
}
