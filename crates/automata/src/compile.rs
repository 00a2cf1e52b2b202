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
//! 4. **Subset-construction DFAs** ([`DfaTable`]): states are ε-closed
//!    state sets (fixed-width bitsets during construction), the transition
//!    table is a dense `states × columns` array of `u32`, and acceptance is
//!    a bit per DFA state. A machine running a DFA-kind NFA carries a
//!    single `u32` per open tree level and steps with one array read.
//!    Every guard-free NFA gets one. A guarded NFA that a DOM walker
//!    steps — the top NFA, and every `HasPath` sub-NFA that is not a
//!    child chain — gets an **exact guard-branching** table instead: an
//!    entry is a state, [`DEAD`], or a [`Branch`] over a guard the step's
//!    guard-aware closure crosses, taken in the order the closure meets
//!    them, whose two sides are entries again. Resolving the branches by
//!    probing their guards at the stepped-into node yields exactly the
//!    node's guard-aware state set, less its inert states (non-accepting,
//!    no consuming transition). Construction aborts past
//!    [`DFA_STATE_CAP`] states plus branch nodes (the theoretical
//!    exponential blow-up), and past a fixed number of branchings, which
//!    bounds the work of branches that collapse: a guard-free NFA falls
//!    back to the NFA rows, and a plan missing a table it needs does not
//!    jump.
//! 5. **Required-label analysis**
//!    ([`required_labels`](crate::analysis::required_labels)) hoisted out of the
//!    evaluator, so TAX-index pruning reads precomputed data.
//! 6. **Jump-scan facts**: which predicates are child chains
//!    ([`crate::guards::ChildChain`], [`CompiledMfa::chains`]) and what
//!    text values each step of the top NFA's table needs ([`StepValues`]).
//!
//! Every one of them is finished before the plan is returned, so a cached
//! plan is complete: evaluation only reads it. Predicates (`cans`
//! spawning semantics) are untouched: the scan and stream machines keep
//! guarded ε-edges on the NFA side and cross them with their guard-aware
//! closure; only the jump driver reads the guard-branching tables.
//!
//! Compilation works over flat arrays: closures, step rows and DFA members
//! are each one array with offsets, subsets are interned in one word
//! arena, and the scratch buffers are shared by all NFAs of a plan, so a
//! plan allocates per table, not per state.

use crate::analysis::{required_labels_with, required_values, value_ids, Requirement, Sweep};
use crate::guards::{classify_chain, ChildChain};
use crate::mfa::{LabelTest, Mfa, Nfa, NfaId, Pred, PredId, StateId};
use smoqe_xml::Label;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel for "no transition" in dense DFA tables.
pub const DEAD: u32 = u32::MAX;

/// Tag of a branch entry of a guard-branching [`DfaTable`]: the entry
/// `BRANCH | i` (never [`DEAD`]) is branch node `i` ([`DfaTable::branch`]).
pub const BRANCH: u32 = 1 << 31;

/// Subset-construction abort threshold: an NFA whose table needs more DFA
/// states plus branch nodes than this gets no table. MFAs are linear in
/// the query, so real plans stay far below the cap; this guards the
/// theoretical exponential case.
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
    /// [`TableBuilder::close`] calls on this thread, so a test can bound
    /// the work of a construction and not only its output.
    static THREAD_CLOSE_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A branch node of a guard-branching [`DfaTable`]: which entry a step
/// takes depends on whether `pred` holds at the stepped-into node. Its two
/// sides are entries (states, [`DEAD`] or further branches) that differ,
/// so a branch always reaches at least two distinct leaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Branch {
    /// The guard to probe at the node.
    pub pred: PredId,
    /// The entry taken when the guard holds.
    pub if_true: u32,
    /// The entry taken when it does not.
    pub if_false: u32,
}

/// Dense transition table of an NFA after subset construction. An entry
/// — the start, or a step — is a DFA state, [`DEAD`], or (only in the
/// table of a guarded NFA) a [`Branch`] tagged with [`BRANCH`].
#[derive(Clone, Debug)]
pub struct DfaTable {
    width: usize,
    start: u32,
    /// `dfa_state * width + column -> entry`.
    next: Vec<u32>,
    /// Whether the subset contains the NFA accept state.
    accept: Vec<bool>,
    branches: Vec<Branch>,
    /// `member_off[i]..member_off[i + 1]` indexes `members`, sorted: for
    /// `i` below the state count the NFA states of DFA state `i`, past it
    /// those of every leaf branch node `i - state_count` reaches. Read by
    /// TAX-index previews, which need per-member required-label checks.
    member_off: Vec<u32>,
    members: Vec<StateId>,
}

impl DfaTable {
    /// The start entry: the ε-closure of the NFA start at the virtual
    /// document node — a state for a guard-free NFA, any entry else.
    #[inline]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// One consuming step: a single dense-row lookup, giving an entry.
    #[inline]
    pub fn step(&self, state: u32, col: usize) -> u32 {
        self.next[state as usize * self.width + col]
    }

    /// Whether `state` is accepting.
    #[inline]
    pub fn accept(&self, state: u32) -> bool {
        self.accept[state as usize]
    }

    /// The branch node `entry` names, or `None` for a state or [`DEAD`].
    #[inline]
    pub fn branch(&self, entry: u32) -> Option<&Branch> {
        match entry {
            DEAD => None,
            e if e >= BRANCH => Some(&self.branches[(e - BRANCH) as usize]),
            _ => None,
        }
    }

    /// The NFA states of a state entry, or of every leaf a branch entry
    /// reaches (never [`DEAD`]).
    #[inline]
    pub fn members(&self, entry: u32) -> &[StateId] {
        debug_assert_ne!(entry, DEAD);
        let i = match entry >= BRANCH {
            true => self.accept.len() + (entry - BRANCH) as usize,
            false => entry as usize,
        };
        &self.members[self.member_off[i] as usize..self.member_off[i + 1] as usize]
    }

    /// Number of DFA states.
    pub fn state_count(&self) -> usize {
        self.accept.len()
    }

    /// Number of branch nodes (0 for a guard-free NFA).
    pub fn branch_count(&self) -> usize {
        self.branches.len()
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
    /// The plain subset DFA of a guard-free NFA (`None` past the cap).
    dfa: Option<DfaTable>,
    /// The guard-branching table of a guarded NFA that a DOM walker
    /// steps (`None` past the cap, for guard-free NFAs, and for child
    /// chains, which are answered from the index).
    branching: Option<DfaTable>,
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
    /// construction stayed under [`DFA_STATE_CAP`]: no entry branches.
    #[inline]
    pub fn dfa(&self) -> Option<&DfaTable> {
        self.dfa.as_ref()
    }

    /// The exact table a DOM walker steps: [`CompiledNfa::dfa`] for a
    /// guard-free NFA, the guard-branching table of a guarded one. `None`
    /// past the cap, and for guarded child chains.
    #[inline]
    pub fn table(&self) -> Option<&DfaTable> {
        self.dfa.as_ref().or(self.branching.as_ref())
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
        let chains: Box<[Option<ChildChain>]> = (0..mfa.pred_count())
            .map(|i| classify_chain(&mfa, PredId(i as u32)))
            .collect();
        // The guarded NFAs a DOM walker steps: the top NFA and every
        // `HasPath` sub-NFA that is not a child chain.
        let mut stepped = vec![false; mfa.nfa_count()];
        stepped[mfa.top().index()] = true;
        for ((_, pred), chain) in mfa.preds().zip(chains.iter()) {
            if let (Pred::HasPath(sub), None) = (pred, chain) {
                stepped[sub.index()] = true;
            }
        }
        let mut scratch = Scratch::default();
        let nfas: Vec<CompiledNfa> = mfa
            .nfas()
            .map(|(id, nfa)| {
                let plan = (&*mfa, &label_cols[..], width);
                compile_nfa(nfa, num_labels, plan, stepped[id.index()], &mut scratch)
            })
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

    /// What steps of the top NFA's table need in text values
    /// ([`StepValues`]); `None` when no step needs any (the plan compares
    /// no text, or the top NFA has no table).
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

/// The text values each step of a plan's top-NFA table needs, from the
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
        let dfa = top.table()?;
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
    /// Per NFA state, the last walk that reached it.
    seen: Vec<u32>,
    stack: Vec<StateId>,
    /// The closures being built, copied out at their exact size.
    closures: Vec<StateId>,
    sweep: Sweep,
    /// Per NFA state, its unguarded ε-closure as a bitset of `words` words.
    closure_bits: Vec<u64>,
    /// The guarded ε-edges, `(source, guard, target)`, in state order.
    guarded: Vec<(StateId, PredId, StateId)>,
    /// The states a leaf keeps, `words` words: every state of a
    /// guard-free NFA, the non-inert ones of a guarded NFA.
    keep: Vec<u64>,
    /// Every subset of the construction, `words` words each, by DFA state.
    subsets: Vec<u64>,
    /// Open-addressing index over `subsets`: a DFA state, or [`DEAD`].
    slots: Vec<u32>,
    /// The table being built: entries, accepting states, branch nodes.
    next: Vec<u32>,
    accept: Vec<bool>,
    branches: Vec<Branch>,
    /// Per branch node, the union of its leaves' subsets, `words` words.
    reach: Vec<u64>,
    /// The closed sets being branched, `words` words each, innermost last.
    sets: Vec<u64>,
    /// The guard verdicts the innermost closure assumes.
    assumed: Vec<(PredId, bool)>,
}

/// Compiles one NFA of the plan `(mfa, label_cols, width)`; `stepped`
/// tells whether a DOM walker steps it, so that a guarded one needs a
/// guard-branching table.
fn compile_nfa(
    nfa: &Nfa,
    num_labels: usize,
    (mfa, label_cols, width): (&Mfa, &[u16], usize),
    stepped: bool,
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
        branching: None,
    };
    match nfa.has_guards() {
        _ if states == 0 => {}
        false => compiled.dfa = build_table(mfa, nfa, &compiled, scratch),
        true if stepped => compiled.branching = build_table(mfa, nfa, &compiled, scratch),
        true => {}
    }
    compiled
}

/// Whether bitset `set` holds state `s`.
#[inline]
fn has(set: &[u64], s: StateId) -> bool {
    set[s.index() / 64] & (1 << (s.index() % 64)) != 0
}

/// Subset construction over the label columns, guard-branching where the
/// NFA has guards. Subsets are fixed-width bitsets (`words` × u64)
/// interned in one word arena through an open-addressing index; the
/// closure of a step starts as the union of its targets' unguarded
/// closures, and [`TableBuilder::close`] branches on each guard it meets.
/// The output table is a dense `states × width` array of entries; `None`
/// past [`DFA_STATE_CAP`] states plus branch nodes, or past
/// [`DECISION_CAP`] branchings.
fn build_table(mfa: &Mfa, nfa: &Nfa, compiled: &CompiledNfa, s: &mut Scratch) -> Option<DfaTable> {
    let (n, width) = (compiled.states, compiled.width);
    let words = n.div_ceil(64);
    s.closure_bits.clear();
    s.closure_bits.resize(n * words, 0);
    s.guarded.clear();
    s.keep.clear();
    s.keep.resize(words, !0);
    if !nfa.has_guards() {
        for q in nfa.states() {
            for &t in compiled.closure(q) {
                s.closure_bits[q.index() * words + t.index() / 64] |= 1 << (t.index() % 64);
            }
        }
    } else {
        // Unguarded closures (a `true` guard is no guard), the guarded
        // edges, and the inert states a leaf drops: non-accepting, with
        // no consuming transition.
        for q in nfa.states() {
            for e in nfa.eps_edges(q) {
                if let Some(g) = e.guard.filter(|&g| !matches!(mfa.pred(g), Pred::True)) {
                    s.guarded.push((q, g, e.target));
                }
            }
            if q != nfa.accept() && nfa.transitions(q).is_empty() {
                s.keep[q.index() / 64] &= !(1 << (q.index() % 64));
            }
        }
        s.seen.clear();
        s.seen.resize(n, u32::MAX);
        for q in nfa.states() {
            s.stack.push(q);
            s.seen[q.index()] = q.0;
            while let Some(x) = s.stack.pop() {
                s.closure_bits[q.index() * words + x.index() / 64] |= 1 << (x.index() % 64);
                for e in nfa.eps_edges(x) {
                    let free = e.guard.is_none_or(|g| matches!(mfa.pred(g), Pred::True));
                    if free && s.seen[e.target.index()] != q.0 {
                        s.seen[e.target.index()] = q.0;
                        s.stack.push(e.target);
                    }
                }
            }
        }
    }
    s.subsets.clear();
    s.slots.clear();
    s.slots.resize(16, DEAD);
    s.next.clear();
    s.accept.clear();
    s.branches.clear();
    s.reach.clear();
    s.sets.clear();
    s.assumed.clear();
    let mut b = TableBuilder {
        s,
        words,
        accept_state: nfa.accept(),
        count: 0,
        decisions: 0,
    };
    let start_bits = &b.s.closure_bits[nfa.start().index() * words..][..words];
    b.s.sets.extend_from_slice(start_bits);
    let start = b.close()?;
    // Process subsets in id order so rows land at `state * width`; newly
    // interned subsets extend the frontier.
    let mut state = 0;
    while state < b.count {
        for col in 0..width {
            let s = &mut *b.s;
            s.sets.clear();
            s.sets.resize(words, 0);
            let mut moved = false;
            for w in 0..words {
                let mut members = s.subsets[state * words + w];
                while members != 0 {
                    let m = w * 64 + members.trailing_zeros() as usize;
                    members &= members - 1;
                    for &t in compiled.row(StateId(m as u32), col) {
                        moved = true;
                        for i in 0..words {
                            s.sets[i] |= s.closure_bits[t.index() * words + i];
                        }
                    }
                }
            }
            let entry = match moved {
                true => b.close()?,
                false => DEAD,
            };
            b.s.next.push(entry);
        }
        state += 1;
    }
    let (count, s) = (b.count, b.s);
    let total = s.subsets[..count * words]
        .iter()
        .chain(s.reach.iter())
        .map(|w| w.count_ones() as usize)
        .sum();
    let mut member_off = Vec::with_capacity(count + s.branches.len() + 1);
    let mut members = Vec::with_capacity(total);
    member_off.push(0u32);
    let sets = s.subsets[..count * words].chunks_exact(words);
    for subset in sets.chain(s.reach.chunks_exact(words)) {
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
        next: s.next.to_vec(),
        accept: s.accept.to_vec(),
        branches: s.branches.to_vec(),
        member_off,
        members,
    })
}

/// Branchings one guard-branching table may make. Sides that come out
/// equal collapse, so a table can stay small while its construction
/// branches on every combination of verdicts that cannot change a leaf
/// (`(b[p1])*/…/(b[pk])*` makes about 2^k); the table's size alone does
/// not bound that work, this does. Real plans make at most a few hundred.
const DECISION_CAP: usize = 8 * DFA_STATE_CAP;

/// The state of one subset construction: the scratch holding the NFA's
/// closures and guarded edges, the interned subsets and the branch nodes
/// built so far.
struct TableBuilder<'s> {
    s: &'s mut Scratch,
    words: usize,
    accept_state: StateId,
    /// Number of interned subsets (DFA states).
    count: usize,
    /// Branchings made so far, bounded by [`DECISION_CAP`].
    decisions: usize,
}

impl TableBuilder<'_> {
    /// The entry of the set on top of `sets`, closed under the unguarded
    /// ε-edges: closes it over the guards `assumed` true, then branches on
    /// the first guarded edge — in state order — that leaves the set under
    /// a guard not yet assumed, and closes both sides. Sides that come out
    /// equal collapse into one entry. `None` past either cap.
    fn close(&mut self) -> Option<u32> {
        #[cfg(test)]
        THREAD_CLOSE_CALLS.with(|calls| calls.set(calls.get() + 1));
        let w = self.words;
        let s = &mut *self.s;
        let at = s.sets.len() - w;
        let verdict = |assumed: &[(PredId, bool)], g: PredId| {
            assumed.iter().find(|&&(p, _)| p == g).map(|&(_, v)| v)
        };
        loop {
            let mut grew = false;
            for &(src, g, t) in &s.guarded {
                let set = &s.sets[at..];
                if has(set, src) && !has(set, t) && verdict(&s.assumed, g) == Some(true) {
                    for i in 0..w {
                        s.sets[at + i] |= s.closure_bits[t.index() * w + i];
                    }
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        let set = &s.sets[at..];
        let open = s.guarded.iter().find(|&&(src, g, t)| {
            has(set, src) && !has(set, t) && verdict(&s.assumed, g).is_none()
        });
        let Some(&(_, pred, _)) = open else {
            return self.leaf(at);
        };
        self.decisions += 1;
        if self.decisions > DECISION_CAP {
            return None;
        }
        // The true side closes a copy; the false side then closes the set
        // in place.
        s.sets.extend_from_within(at..at + w);
        s.assumed.push((pred, true));
        let if_true = self.close()?;
        self.s.sets.truncate(at + w);
        self.s.assumed.last_mut().expect("pushed above").1 = false;
        let if_false = self.close()?;
        self.s.assumed.pop();
        match if_true == if_false {
            true => Some(if_true),
            false => self.branch(Branch {
                pred,
                if_true,
                if_false,
            }),
        }
    }

    /// The leaf of the closed set at `sets[at..]`: its kept states
    /// interned as a DFA state, or [`DEAD`] when none is kept.
    fn leaf(&mut self, at: usize) -> Option<u32> {
        let w = self.words;
        let s = &mut *self.s;
        let base = self.count * w;
        let mut any = false;
        for i in 0..w {
            let word = s.sets[at + i] & s.keep[i];
            any |= word != 0;
            s.subsets.push(word);
        }
        if !any {
            s.subsets.truncate(base);
            return Some(DEAD);
        }
        let before = self.count;
        let id = intern(&mut s.subsets, &mut s.slots, w, &mut self.count);
        if self.count > before {
            if self.count + s.branches.len() > DFA_STATE_CAP {
                return None;
            }
            s.accept.push(has(&s.subsets[base..], self.accept_state));
        }
        Some(id)
    }

    /// The entry of branch node `b`, shared with an equal one already
    /// built; a new node's reach is the union of its sides'.
    fn branch(&mut self, b: Branch) -> Option<u32> {
        let s = &mut *self.s;
        if let Some(i) = s.branches.iter().position(|&x| x == b) {
            return Some(BRANCH | i as u32);
        }
        if self.count + s.branches.len() + 1 > DFA_STATE_CAP {
            return None;
        }
        let w = self.words;
        let at = s.reach.len();
        s.reach.resize(at + w, 0);
        for side in [b.if_true, b.if_false] {
            let from = match side {
                DEAD => continue,
                e if e >= BRANCH => (e - BRANCH) as usize * w,
                q => q as usize * w,
            };
            for i in 0..w {
                s.reach[at + i] |= match side >= BRANCH {
                    true => s.reach[from + i],
                    false => s.subsets[from + i],
                };
            }
        }
        s.branches.push(b);
        Some(BRANCH | (s.branches.len() - 1) as u32)
    }
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

    /// The guard-aware closure of `seed` in `nfa` with guard verdicts
    /// `holds`, less its inert states: what a table state must hold.
    fn exact_closure(
        mfa: &Mfa,
        nfa: &Nfa,
        seed: &[StateId],
        holds: &dyn Fn(PredId) -> bool,
    ) -> Vec<StateId> {
        let mut seen = vec![false; nfa.state_count()];
        let mut work = seed.to_vec();
        for s in seed {
            seen[s.index()] = true;
        }
        while let Some(s) = work.pop() {
            for e in nfa.eps_edges(s) {
                let cross = e.guard.is_none_or(|g| match mfa.pred(g) {
                    Pred::True => true,
                    _ => holds(g),
                });
                if cross && !seen[e.target.index()] {
                    seen[e.target.index()] = true;
                    work.push(e.target);
                }
            }
        }
        nfa.states()
            .filter(|&s| seen[s.index()])
            .filter(|&s| s == nfa.accept() || !nfa.transitions(s).is_empty())
            .collect()
    }

    #[test]
    fn guarded_nfas_get_guard_branching_tables() {
        let (vocab, plan) = plan_for("a/b[c]/d");
        let top = plan.nfa(plan.mfa().top());
        assert!(top.dfa().is_none(), "guarded: no plain DFA");
        let table = top.table().expect("the top NFA is stepped");
        let col = |l: &str| plan.col(vocab.lookup(l).unwrap());
        // `a` steps to a state; `b` branches on the qualifier: a `b`
        // without a `c` child is dead, one with it steps on to `d`.
        let q0 = table.start();
        assert!(q0 < BRANCH);
        let q1 = table.step(q0, col("a"));
        assert!(q1 < BRANCH);
        let b = *table.branch(table.step(q1, col("b"))).expect("a branch");
        assert_eq!(b.if_false, DEAD);
        let q3 = table.step(b.if_true, col("d"));
        assert!(q3 < BRANCH && table.accept(q3));
        assert_eq!(table.branch_count(), 1);
        // The qualifier's own sub-NFA is a child chain: no table needed.
        let Pred::HasPath(sub) = plan.mfa().pred(b.pred) else {
            panic!("the qualifier is a path");
        };
        assert!(plan.nfa(*sub).table().is_some(), "guard-free: its DFA");
        // Guard-free NFAs carry no branch: their table is the DFA.
        let (_, plain) = plan_for("a/b");
        let top = plain.nfa(plain.mfa().top());
        assert!(top.dfa().is_some());
        assert_eq!(top.table().unwrap().branch_count(), 0);

        // Every reachable state holds exactly the guard-aware closure
        // less its inert states, for every verdict pattern: guards on
        // `//` self-loops, at the virtual node, and under connectives.
        for q in [
            "a/b[c]/d",
            "//b[c]",
            "a[b and not(c)]/d",
            "(a[b]/c)*/d",
            ".[a]/b",
            "a[b][c]/d",
            "//*[a or . = 'v']//b",
            "a/(b[c] | d[not(c)])/e",
        ] {
            let (vocab, plan) = plan_for(q);
            let mfa = plan.mfa();
            let nfa = mfa.nfa(mfa.top());
            let compiled = plan.nfa(mfa.top());
            let table = compiled.table().expect("a table");
            let preds = mfa.pred_count();
            let labels: Vec<Label> = ["a", "b", "c", "d", "e"]
                .iter()
                .map(|n| vocab.intern(n))
                .collect();
            // Every word of three labels, each prefix checked on the way,
            // under verdicts per (depth, pred) drawn from a bit pattern.
            let n = labels.len();
            let words =
                (0..n * n * n).map(|i| [labels[i / (n * n)], labels[i / n % n], labels[i % n]]);
            for word in words {
                for pattern in 0u64..64 {
                    let holds_at = |depth: usize| {
                        move |p: PredId| pattern & (1 << ((depth * preds + p.index()) % 6)) != 0
                    };
                    let resolve = |mut entry: u32, depth: usize| {
                        while let Some(b) = table.branch(entry) {
                            entry = match holds_at(depth)(b.pred) {
                                true => b.if_true,
                                false => b.if_false,
                            };
                        }
                        entry
                    };
                    let mut want = exact_closure(mfa, nfa, &[nfa.start()], &holds_at(0));
                    let mut state = resolve(table.start(), 0);
                    for (i, &l) in word.iter().enumerate() {
                        let context = format!("`{q}`, word {word:?}, pattern {pattern}, step {i}");
                        if state == DEAD {
                            assert!(want.is_empty(), "{context}");
                            break;
                        }
                        assert_eq!(table.members(state), &want[..], "{context}");
                        let col = plan.col(l);
                        let mut moved: Vec<StateId> = want
                            .iter()
                            .flat_map(|&s| compiled.row(s, col).iter().copied())
                            .collect();
                        moved.sort_unstable();
                        moved.dedup();
                        want = exact_closure(mfa, nfa, &moved, &holds_at(i + 1));
                        state = match table.step(state, col) {
                            DEAD => DEAD,
                            entry => resolve(entry, i + 1),
                        };
                    }
                }
            }
        }
    }

    #[test]
    fn collapsing_branches_are_bounded_by_work_not_only_by_size() {
        // After a `b` step every `(b[. = 'i'])*` hub is in the set, and
        // once one guard holds the rest lead only to inert states: each
        // further guard is branched and collapses, about 2^k closures for
        // a table of k states and k branches.
        let star_sequence = |k: usize| {
            let q = (1..=k).map(|i| format!("(b[. = '{i}'])*"));
            plan_for(&q.collect::<Vec<_>>().join("/")).1
        };
        let calls = || THREAD_CLOSE_CALLS.with(|calls| calls.get());
        let before = calls();
        let small = star_sequence(6);
        let table = small
            .nfa(small.mfa().top())
            .table()
            .expect("under the caps");
        assert_eq!((table.state_count(), table.branch_count()), (6, 6));
        assert!(calls() - before < 2 * DECISION_CAP as u64);
        let before = calls();
        let large = star_sequence(30);
        assert!(
            large.nfa(large.mfa().top()).table().is_none(),
            "past the cap: no jump"
        );
        // Every branching makes two closures; the unbranched ones are one
        // per table entry, at most `DFA_STATE_CAP` states of `width` each.
        let bound = 2 * DECISION_CAP + 1 + DFA_STATE_CAP * large.width();
        assert!(
            calls() - before <= bound as u64,
            "{} closures",
            calls() - before
        );
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
