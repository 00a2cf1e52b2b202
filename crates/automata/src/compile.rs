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
//! 6. **Jump-scan facts**: which predicates are child chains
//!    ([`crate::guards::ChildChain`], [`CompiledMfa::chains`]) and what
//!    text values each step of the top DFA needs ([`StepValues`]).
//!
//! Every one of them is finished before the plan is returned, so a cached
//! plan is complete: evaluation only reads it. Predicates (`cans`
//! spawning semantics) are untouched: guarded ε-edges stay on the NFA side
//! and are only crossed by the evaluator's guard-aware closure.
//!
//! Compilation works over flat arrays: closures, step rows and DFA members
//! are each one array with offsets, subsets are interned in one word
//! arena, and the scratch buffers are shared by all NFAs of a plan, so a
//! plan allocates per table, not per state.

use crate::analysis::{required_labels_with, required_values, value_ids, Requirement, Sweep};
use crate::guards::{classify_chain, ChildChain};
use crate::mfa::{LabelTest, Mfa, Nfa, NfaId, PredId, StateId};
use smoqe_xml::Label;
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

#[cfg(test)]
thread_local! {
    /// [`ANALYSIS_RUNS`] counted per thread, so a unit test can pin its own
    /// compilations while other tests compile on parallel threads.
    static THREAD_ANALYSIS_RUNS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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
    /// `member_off[d]..member_off[d + 1]` indexes `members`: the NFA
    /// states of subset `d`, sorted. Cold data: only read by TAX-index
    /// previews, which need per-member required-label checks.
    member_off: Vec<u32>,
    members: Vec<StateId>,
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
        let s = state as usize;
        &self.members[self.member_off[s] as usize..self.member_off[s + 1] as usize]
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
    /// `closure_off[s]..closure_off[s + 1]` indexes `closures`: the
    /// ε-closure of `s`, sorted.
    closure_off: Vec<u32>,
    closures: Vec<StateId>,
    /// Per state: whether any edge inside its closure carries a guard.
    closure_guarded: Vec<bool>,
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

    /// Precomputed ε-closure of `s`: the states reachable by ε-edges
    /// (guarded or not), sorted, `s` included.
    #[inline]
    pub fn closure(&self, s: StateId) -> &[StateId] {
        let i = s.index();
        &self.closures[self.closure_off[i] as usize..self.closure_off[i + 1] as usize]
    }

    /// Whether any edge inside the closure of `s` carries a guard. When
    /// `false`, the closure is tag-free and [`CompiledNfa::closure`] is
    /// exact.
    #[inline]
    pub fn closure_guarded(&self, s: StateId) -> bool {
        self.closure_guarded[s.index()]
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
    /// The [`StepValues`] of the top NFA's DFA: only jump-scan evaluation
    /// over a value index reads them.
    step_values: Option<StepValues>,
    /// The [`ChildChain`] shape of each predicate, by predicate id: only
    /// jump-scan verification reads them.
    chains: Box<[Option<ChildChain>]>,
}

impl CompiledMfa {
    /// Compiles a plan from a borrowed MFA (clones it into the plan).
    pub fn compile(mfa: &Mfa) -> Self {
        Self::from_arc(Arc::new(mfa.clone()))
    }

    /// Compiles a plan around an already-shared MFA: every table and every
    /// per-plan analysis, so the plan is complete when it is returned.
    pub fn from_arc(mfa: Arc<Mfa>) -> Self {
        ANALYSIS_RUNS.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        THREAD_ANALYSIS_RUNS.with(|runs| runs.set(runs.get() + 1));
        let num_labels = mfa.vocabulary().len();
        // Column 0 is reserved for "label not mentioned by this plan":
        // only wildcard transitions can consume those.
        let mut label_cols = vec![0u16; num_labels];
        // The label of each column past 0.
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
        let max_states = mfa
            .nfas()
            .map(|(_, nfa)| nfa.state_count())
            .max()
            .unwrap_or(0);
        let mut scratch = Scratch::default();
        let nfas: Vec<CompiledNfa> = mfa
            .nfas()
            .map(|(_, nfa)| compile_nfa(nfa, num_labels, &label_cols, width, &mut scratch))
            .collect();
        let chains = (0..mfa.pred_count())
            .map(|i| classify_chain(&mfa, PredId(i as u32)))
            .collect();
        let step_values = StepValues::of(&mfa, &nfas[mfa.top().index()], &referenced, &mut scratch);
        CompiledMfa {
            mfa,
            label_cols,
            width,
            nfas,
            max_states,
            step_values,
            chains,
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

    /// What steps of the top NFA's DFA — exact, or guard-stripped — need
    /// in text values ([`StepValues`]); `None` when no step needs any (the
    /// plan compares no text, or the top NFA has no DFA).
    pub fn step_values(&self) -> Option<&StepValues> {
        self.step_values.as_ref()
    }

    /// The [`ChildChain`] shape of every predicate, indexed by
    /// [`PredId`] (`None` for predicates of any other shape) — an
    /// evaluation pays one lookup per guard.
    pub fn chains(&self) -> &[Option<ChildChain>] {
        &self.chains
    }

    /// How many of the plan's NFAs run as dense-table DFAs (the rest keep
    /// NFA rows: they carry guards or blew the subset cap).
    pub fn dfa_nfa_count(&self) -> usize {
        self.nfas.iter().filter(|n| n.dfa.is_some()).count()
    }
}

/// The text values each step of a plan's top-NFA DFA needs, from the
/// required-values analysis (`crate::analysis`): for a DFA state and a
/// label column, the requirements of the NFA states that step **enters**,
/// one list per live entered state. Every run at the stepped-into node starts in one of
/// those and closes from there, so their requirements include the guards
/// the closure crosses at the node itself — which the closed DFA state's
/// members, some reached only past such a guard, do not. A node holding
/// none of some list's values below it cannot lead to an answer: the
/// jump-scan's value gate.
#[derive(Clone, Debug)]
pub struct StepValues {
    width: usize,
    /// The `(label, text)` values the plan's guards compare against, by
    /// value id (the analysis's ids).
    values: Vec<(Label, String)>,
    /// `state * width + column` → 0 when some entered state needs no
    /// value, else `1 +` the index of the step's requirement in `needs`.
    steps: Vec<u32>,
    /// The distinct step requirements: per live entered state, the ids of
    /// the values it needs (no lists: nothing can accept).
    needs: Vec<Vec<Vec<u32>>>,
}

impl StepValues {
    /// The step values of `top`, the compiled top NFA of `mfa`, whose
    /// column `c > 0` reads `referenced[c - 1]`.
    fn of(
        mfa: &Mfa,
        top: &CompiledNfa,
        referenced: &[Label],
        scratch: &mut Scratch,
    ) -> Option<StepValues> {
        let dfa = top.dfa().or(top.stripped_dfa())?;
        let reqs = required_values(mfa, referenced, &mut scratch.sweep)?;
        let width = referenced.len() + 1;
        // The analysis's column of each plan column.
        let columns: Vec<usize> = std::iter::once(0)
            .chain(referenced.iter().map(|&l| reqs.column(Some(l))))
            .collect();
        // The distinct step requirements as value sets (`masks`), and as
        // the id lists jump evaluation reads (`needs`), built once per set.
        let (mut masks, mut needs): (Vec<Vec<u64>>, Vec<Vec<Vec<u32>>>) = (Vec::new(), Vec::new());
        let mut need = Vec::new();
        let mut steps = Vec::with_capacity(dfa.state_count() * width);
        let entered = &mut scratch.stack;
        let marks = &mut scratch.seen;
        marks.clear();
        marks.resize(top.state_count(), u32::MAX);
        for state in 0..dfa.state_count() as u32 {
            for (col, &at) in columns.iter().enumerate() {
                // The entered states, ascending and each once; a mark is
                // the step's index in `steps`.
                let step = steps.len() as u32;
                entered.clear();
                for &m in dfa.members(state) {
                    for &t in top.row(m, col) {
                        if marks[t.index()] != step {
                            marks[t.index()] = step;
                            entered.push(t);
                        }
                    }
                }
                entered.sort_unstable();
                need.clear();
                let mut free = entered.is_empty(); // a DEAD step: never taken
                for &s in entered.iter() {
                    match reqs.get(s, at) {
                        None => {} // no accepting continuation from `s`
                        Some(0) => free = true,
                        Some(needed) => need.push(needed),
                    }
                }
                steps.push(match free {
                    true => 0,
                    false => match masks.iter().position(|n| *n == need) {
                        Some(i) => i as u32 + 1,
                        None => {
                            masks.push(need.clone());
                            needs.push(need.iter().map(|&m| value_ids(m).collect()).collect());
                            needs.len() as u32
                        }
                    },
                });
            }
        }
        if needs.is_empty() {
            return None;
        }
        Some(StepValues {
            width,
            values: reqs.values,
            steps,
            needs,
        })
    }

    /// What a node stepped into from DFA `state` on column `col` needs:
    /// `None` when nothing, else, per live entered state, the ids of the
    /// values it needs ([`StepValues::value`]).
    pub fn of_step(&self, state: u32, col: usize) -> Option<&[Vec<u32>]> {
        match self.steps[state as usize * self.width + col] {
            0 => None,
            i => Some(&self.needs[i as usize - 1]),
        }
    }

    /// Number of distinct values (ids run below it).
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// The `(label, text)` of a value id.
    pub fn value(&self, id: u32) -> (Label, &str) {
        let (label, text) = &self.values[id as usize];
        (*label, text)
    }
}

/// Buffers one plan's compilation reuses across its NFAs.
#[derive(Default)]
struct Scratch {
    /// Per NFA state: the last walk that reached it.
    seen: Vec<u32>,
    stack: Vec<StateId>,
    /// The closures being built, copied out at their exact size.
    closures: Vec<StateId>,
    sweep: Sweep,
    /// Per NFA state, its ε-closure as a bitset of `words` words.
    closure_bits: Vec<u64>,
    /// Every subset of the construction, `words` words each, by DFA state.
    subsets: Vec<u64>,
    /// Open-addressing index over `subsets`: a DFA state, or [`DEAD`].
    slots: Vec<u32>,
    /// The DFA's transition table and accepting states being built.
    next: Vec<u32>,
    accept: Vec<bool>,
}

fn compile_nfa(
    nfa: &Nfa,
    num_labels: usize,
    label_cols: &[u16],
    width: usize,
    scratch: &mut Scratch,
) -> CompiledNfa {
    let states = nfa.state_count();
    let required = required_labels_with(nfa, num_labels, &mut scratch.sweep);

    // ε-closures: a walk over every ε-edge per state, recording whether a
    // guard is crossed; `seen` holds the state whose walk reached a state
    // last, so it never needs clearing.
    let mut closure_off = Vec::with_capacity(states + 1);
    let mut closure_guarded = Vec::with_capacity(states);
    closure_off.push(0u32);
    let (seen, work, closures) = (&mut scratch.seen, &mut scratch.stack, &mut scratch.closures);
    seen.clear();
    seen.resize(states, u32::MAX);
    closures.clear();
    for s in nfa.states() {
        let from = closures.len();
        let mut guarded = false;
        work.push(s);
        seen[s.index()] = s.0;
        while let Some(x) = work.pop() {
            closures.push(x);
            for e in nfa.eps_edges(x) {
                guarded |= e.guard.is_some();
                if seen[e.target.index()] != s.0 {
                    seen[e.target.index()] = s.0;
                    work.push(e.target);
                }
            }
        }
        closures[from..].sort_unstable();
        closure_off.push(closures.len() as u32);
        closure_guarded.push(guarded);
    }
    let closures = closures.to_vec();

    // CSR step rows: per (state, column), the matching transition targets.
    // A wildcard lands in every column, a label in its own.
    let entries = nfa
        .states()
        .flat_map(|s| nfa.transitions(s))
        .map(|t| match t.test {
            LabelTest::Wildcard => width,
            LabelTest::Label(_) => 1,
        })
        .sum();
    let mut row_off = Vec::with_capacity(states * width + 1);
    let mut row_targets = Vec::with_capacity(entries);
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

    let mut compiled = CompiledNfa {
        states,
        width,
        required,
        closure_off,
        closures,
        closure_guarded,
        row_off,
        row_targets,
        dfa: None,
        stripped: None,
    };
    // `build_dfa` closes over *every* ε-edge (guards ignored), so on a
    // guard-free NFA it is exact, and on a guarded NFA it is precisely the
    // guard-stripped overapproximation jump navigation wants.
    if states > 0 {
        let dfa = build_dfa(nfa, &compiled, scratch);
        match nfa.has_guards() {
            true => compiled.stripped = dfa,
            false => compiled.dfa = dfa,
        }
    }
    compiled
}

/// Subset construction over the label columns. Subsets are fixed-width
/// bitsets (`words` × u64) interned in one word arena through an
/// open-addressing index; the ε-closure of a step is the union of its
/// targets' precomputed closures. The output table is a dense `states ×
/// width` array.
fn build_dfa(nfa: &Nfa, compiled: &CompiledNfa, scratch: &mut Scratch) -> Option<DfaTable> {
    let (n, width) = (compiled.states, compiled.width);
    let words = n.div_ceil(64);
    let bits = &mut scratch.closure_bits;
    bits.clear();
    bits.resize(n * words, 0);
    for s in nfa.states() {
        for &t in compiled.closure(s) {
            bits[s.index() * words + t.index() / 64] |= 1 << (t.index() % 64);
        }
    }
    let subsets = &mut scratch.subsets;
    subsets.clear();
    let slots = &mut scratch.slots;
    slots.clear();
    slots.resize(16, DEAD);
    let (next, accept) = (&mut scratch.next, &mut scratch.accept);
    next.clear();
    accept.clear();
    // The subset being built sits past the interned ones, at `count`.
    subsets.extend_from_slice(&bits[nfa.start().index() * words..][..words]);
    let mut count = 0;
    let start = intern(subsets, slots, words, &mut count);
    let (accept_word, accept_bit) = (
        nfa.accept().index() / 64,
        1u64 << (nfa.accept().index() % 64),
    );
    accept.push(subsets[accept_word] & accept_bit != 0);
    // Process subsets in id order so rows land at `state * width`; newly
    // interned subsets extend the frontier.
    let mut state = 0;
    while state < count {
        for col in 0..width {
            let at = count * words;
            subsets.resize(at + words, 0);
            let mut moved = false;
            for w in 0..words {
                let mut members = subsets[state * words + w];
                while members != 0 {
                    let m = w * 64 + members.trailing_zeros() as usize;
                    members &= members - 1;
                    for &t in compiled.row(StateId(m as u32), col) {
                        moved = true;
                        for i in 0..words {
                            subsets[at + i] |= bits[t.index() * words + i];
                        }
                    }
                }
            }
            if !moved {
                subsets.truncate(at);
                next.push(DEAD);
                continue;
            }
            let before = count;
            let id = intern(subsets, slots, words, &mut count);
            if count > before {
                if count > DFA_STATE_CAP {
                    return None;
                }
                accept.push(subsets[at + accept_word] & accept_bit != 0);
            }
            next.push(id);
        }
        state += 1;
    }
    let mut member_off = Vec::with_capacity(count + 1);
    let total = subsets[..count * words]
        .iter()
        .map(|w| w.count_ones() as usize)
        .sum();
    let mut members = Vec::with_capacity(total);
    member_off.push(0u32);
    for subset in subsets.chunks_exact(words).take(count) {
        for (w, &word) in subset.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                members.push(StateId((w * 64) as u32 + word.trailing_zeros()));
                word &= word - 1;
            }
        }
        member_off.push(members.len() as u32);
    }
    Some(DfaTable {
        width,
        start,
        next: next.to_vec(),
        accept: accept.to_vec(),
        member_off,
        members,
    })
}

/// Interns the subset at the end of `subsets` (index `count`): returns the
/// DFA state of an equal subset already interned, dropping the new copy,
/// or keeps it as state `count` and bumps `count`.
fn intern(subsets: &mut Vec<u64>, slots: &mut Vec<u32>, words: usize, count: &mut usize) -> u32 {
    // A multiplicative hash; its high half is folded down because the
    // index takes the low bits.
    let hash = |subset: &[u64]| {
        let h = subset.iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
        });
        h ^ (h >> 32)
    };
    let at = *count * words;
    let mask = slots.len() - 1;
    let mut slot = hash(&subsets[at..]) as usize & mask;
    loop {
        match slots[slot] {
            DEAD => break,
            id => {
                let other = id as usize * words;
                if subsets[other..other + words] == subsets[at..at + words] {
                    subsets.truncate(at);
                    return id;
                }
                slot = (slot + 1) & mask;
            }
        }
    }
    let id = *count as u32;
    slots[slot] = id;
    *count += 1;
    // Keep the index at most half full.
    if *count * 2 > slots.len() {
        let size = slots.len() * 2;
        slots.clear();
        slots.resize(size, DEAD);
        for (id, subset) in subsets.chunks_exact(words).take(*count).enumerate() {
            let mut slot = hash(subset) as usize & (size - 1);
            while slots[slot] != DEAD {
                slot = (slot + 1) & (size - 1);
            }
            slots[slot] = id as u32;
        }
    }
    id
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
            (0..compiled.state_count()).any(|i| compiled.closure_guarded(StateId(i as u32)));
        assert!(any_guarded, "the qualifier guard must be visible");
    }

    #[test]
    fn chains_are_classified_once_per_plan_by_predicate() {
        let (vocab, plan) = plan_for("a[b/c = 'v' and not(d)]/e[(b)*/c or *//c or b[c]/d or b]");
        let l = |n: &str| vocab.lookup(n).unwrap();
        let chains = plan.chains();
        assert_eq!(chains.len(), plan.mfa().pred_count());
        let mut found: Vec<&ChildChain> = chains.iter().flatten().collect();
        found.sort_by_key(|c| c.labels.len());
        // `d`, `b` (one-step) and `b/c = 'v'`; the star, the descendant
        // step and the nested guard (`b[c]/d`) are not chains — but `c`,
        // inside the nested guard, is.
        let want = [
            ChildChain {
                labels: vec![l("d")],
                value: None,
            },
            ChildChain {
                labels: vec![l("c")],
                value: None,
            },
            ChildChain {
                labels: vec![l("b")],
                value: None,
            },
            ChildChain {
                labels: vec![l("b"), l("c")],
                value: Some("v".into()),
            },
        ];
        for chain in &want {
            assert!(found.contains(&chain), "{chain:?} missing from {found:?}");
        }
        assert_eq!(found.len(), want.len(), "{found:?}");
        // The same slice on every call: classified once.
        assert!(std::ptr::eq(chains, plan.chains()));
    }

    #[test]
    fn analysis_counter_moves_once_per_compile() {
        // Other tests of this crate compile plans on parallel threads, so
        // the exact delta is pinned on this thread's count; the process-wide
        // counter must have moved with it.
        let thread_runs = || THREAD_ANALYSIS_RUNS.with(|runs| runs.get());
        let (before, process_before) = (thread_runs(), analysis_runs());
        let (_, _plan) = plan_for("a/b/c");
        assert_eq!(thread_runs(), before + 1);
        assert!(analysis_runs() > process_before);
    }
}
