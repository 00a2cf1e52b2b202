//! Jump-scan evaluation: visit O(candidate) nodes instead of O(n).
//!
//! The DOM walker in [`crate::dom`] already *skips* subtrees (dead runs,
//! TAX pruning), but it still walks to every subtree it skips: a highly
//! selective query over a large document pays for the whole tree. This
//! driver turns the pruning metadata into **sub-linear navigation** using
//! the positional label index ([`smoqe_tax::LabelIndex`]) and, for value
//! predicates, the text-value posting index ([`smoqe_tax::ValueIndex`]):
//!
//! * Navigation runs on a DFA of the top NFA: the exact subset DFA for
//!   guard-free plans, or the **guard-stripped DFA** for guarded ones
//!   (guards treated as true during subset construction — an
//!   overapproximation, so it may navigate to non-answers but never past
//!   an answer). For the current DFA state, label columns partition into
//!   **stutters** (`step(s, col) == s`) and **triggers** (everything
//!   else, including transitions to [`DEAD`]). When the wildcard column
//!   stutters, the automaton provably cannot change state anywhere in the
//!   subtree except at trigger-labelled elements — so the driver
//!   binary-searches the trigger occurrence lists for the next candidate
//!   and skips everything between.
//! * On guarded plans, answers and guard verdicts are **re-verified
//!   exactly** at each candidate: the guard-aware state set of a node is
//!   stepped and closed from its parent's, and `text()='v'` guards compare
//!   the document text. A **child-chain** `HasPath` guard — `[l1/…/lk]`,
//!   maybe `= 'v'` ([`smoqe_automata::guards::ChildChain`], classified once
//!   per plan) — is answered from the index by a reverse semi-join: some
//!   `lk` occurrence (a `(lk, v)` posting, for a value chain) `k` levels
//!   below the candidate, under ancestors labelled `l1 … l(k−1)`, with the
//!   text compared. One cursor per guard gallops through that list as
//!   probes ascend, and an occurrence at or below the chain's depth skips
//!   its target-level ancestor's whole subtree. Every other `HasPath`
//!   guard (stars, unions, wildcard or descendant steps, nested guards)
//!   runs a TAX-pruned witness search over the candidate's subtree (one
//!   table read per step when the sub-NFA is guard-free). The sets kept
//!   are those of the **ancestor
//!   path**: candidates are verified in ascending pre-order (see the last
//!   bullet), so once a candidate lies past a node's subtree no later one
//!   can need that node's set. The path is a stack of sets in one flat
//!   arena — popped past each finished subtree, extended by the chain
//!   between its top and the candidate — and a verdict lives only as long
//!   as the closure that asked for it. Nothing in verification or
//!   navigation hashes or allocates per node: region lists, evidence and
//!   picked children live on driver-owned stacks. Verification work is
//!   counted in [`EvalStats::guard_probes`], not `nodes_visited`.
//! * When a trigger's post-step states are reachable **only** through a
//!   recognized value guard (`text()='v'` shapes, see
//!   [`smoqe_automata::guards`]), the trigger is **narrowed**: instead of
//!   probing every occurrence of the label, the driver probes only the
//!   (label, value) posting lists — plus, for `[b = 'v']` child-witness
//!   guards, the parents of the witness postings. Occurrences outside
//!   those lists provably behave as stutters and are never touched.
//! * Every candidate must also hold the **text values** its continuations
//!   need ([`smoqe_automata::compile::StepValues`]): a candidate
//!   whose subtree has no posting of one is discarded with a binary search
//!   per value, before any guard is verified. Where the wildcard column
//!   moves the state and every child must be stepped into, the same
//!   requirements pick the children instead: when each live step needs
//!   some value, only the children holding its rarest value's postings
//!   are visited — so `hospital/patient[pname = 'P']/visit`, which walks
//!   the root's children, costs a few probes, not one per patient.
//! * Candidates are processed in ascending pre-order; entering or
//!   discarding a candidate always advances the cursor past its whole
//!   subtree (`subtree_end`). That ordering is the soundness argument: by
//!   the time a candidate is reached, every ancestor between it and the
//!   jump origin is a stutter, so the origin state applies verbatim.
//!   Verification asserts it in debug builds.
//!
//! TAX pruning applies exactly as in scan mode: a candidate whose stepped
//! state has no label requirement satisfiable within the subtree's
//! descendant-label set is discarded without a visit, and a whole jump
//! region is abandoned early when its trigger set does not even intersect
//! the available labels.
//!
//! The driver applies to **plans whose top NFA has a DFA** — exact or
//! guard-stripped — over a document with a positional index
//! ([`jump_available`]); its one entry is
//! [`crate::dom::evaluate_mfa_plan_budgeted`] in [`crate::ExecMode::Jump`].
//! Everything else (subset blow-up past the cap, missing index, streaming
//! input) evaluates in scan mode. By construction jump mode enters a
//! subset of the nodes scan mode enters, and produces identical answers
//! (property-tested in `tests/jump_differential.rs`).

use crate::budget::{BudgetMeter, EvalInterrupt, Interrupt, WorkBudget};
use crate::machine::VIRTUAL_NODE;
use crate::stats::EvalStats;
use smoqe_automata::compile::{CompiledMfa, CompiledNfa, DfaTable, StepValues, DEAD};
use smoqe_automata::guards::{value_guard, ChildChain, ValueGuard};
use smoqe_automata::{NfaId, Pred, PredId, StateId};
use smoqe_rxpath::NodeSet;
use smoqe_tax::{LabelIndex, TaxIndex, ValueIndex};
use smoqe_xml::{Document, Label, LabelSet, NodeId};
use std::rc::Rc;

/// The navigation DFA of `plan`'s top NFA: the exact subset DFA when the
/// NFA is guard-free (`true`), the guard-stripped DFA otherwise (`false` —
/// verdicts must be re-verified guard-aware).
fn nav(plan: &CompiledMfa) -> Option<(&DfaTable, bool)> {
    let top = plan.nfa(plan.mfa().top());
    if let Some(dfa) = top.dfa() {
        return Some((dfa, true));
    }
    top.stripped_dfa().map(|dfa| (dfa, false))
}

/// Whether `plan` can execute as a jump scan at all: the top NFA subset-
/// constructed into a dense DFA, exact or guard-stripped.
pub fn jump_eligible(plan: &CompiledMfa) -> bool {
    nav(plan).is_some()
}

/// Whether a jump evaluation of `plan` over `doc` would actually engage:
/// the plan is eligible and `tax` carries a positional label index
/// describing exactly this document. (The value index is optional — it
/// only narrows triggers; without it, guarded plans still jump on full
/// occurrence lists.)
pub fn jump_available(doc: &Document, plan: &CompiledMfa, tax: Option<&TaxIndex>) -> bool {
    jump_eligible(plan)
        && tax
            .and_then(TaxIndex::label_index)
            .is_some_and(|li| li.node_count() == doc.node_count())
}

/// How a trigger list sources its candidates — reported by
/// [`start_region_triggers`] for `query --explain`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriggerKind {
    /// Every occurrence of the label is probed.
    Full,
    /// Only the (label, value) posting list is probed.
    NarrowedValue,
    /// Parents of the (child label, value) posting list are probed.
    ChildEvidence,
}

/// One candidate source of the root region's jump state.
#[derive(Clone, Debug)]
pub struct TriggerInfo {
    /// The indexed label (the trigger label, or the witness child label
    /// for [`TriggerKind::ChildEvidence`]).
    pub label: Label,
    /// The pinned text value, for narrowed sources.
    pub value: Option<String>,
    /// Length of the source list over the whole document.
    pub len: usize,
    /// How candidates are drawn from the list.
    pub kind: TriggerKind,
}

/// The candidate sources a jump evaluation of `plan` would probe in the
/// region under the document root — empty when the plan cannot jump, the
/// index is missing, or the root's state falls back to child-stepping.
pub fn start_region_triggers(
    doc: &Document,
    plan: &CompiledMfa,
    tax: Option<&TaxIndex>,
) -> Vec<TriggerInfo> {
    let Some((dfa, exact)) = nav(plan) else {
        return Vec::new();
    };
    let Some(li) = tax
        .and_then(TaxIndex::label_index)
        .filter(|li| li.node_count() == doc.node_count())
    else {
        return Vec::new();
    };
    let vi = tax
        .and_then(|t| t.value_index())
        .filter(|vi| vi.node_count() == doc.node_count());
    let root_label = doc.label(doc.root()).expect("root is an element");
    let q1 = dfa.step(dfa.start(), plan.col(root_label));
    if q1 == DEAD {
        return Vec::new();
    }
    let info = trigger_sources(plan, dfa, exact, vi, q1);
    if !info.jumpable {
        return Vec::new();
    }
    let mut out = Vec::new();
    for src in &info.sources {
        match src {
            TriggerSource::Full(label) => out.push(TriggerInfo {
                label: *label,
                value: None,
                len: li.occurrences(*label).len(),
                kind: TriggerKind::Full,
            }),
            TriggerSource::Narrowed {
                label,
                self_values,
                child_values,
            } => {
                let vi = vi.expect("narrowed triggers require a value index");
                for v in self_values {
                    out.push(TriggerInfo {
                        label: *label,
                        value: Some(v.clone()),
                        len: vi.occurrences(*label, v).len(),
                        kind: TriggerKind::NarrowedValue,
                    });
                }
                for (p, v) in child_values {
                    out.push(TriggerInfo {
                        label: *p,
                        value: Some(v.clone()),
                        len: vi.occurrences(*p, v).len(),
                        kind: TriggerKind::ChildEvidence,
                    });
                }
            }
        }
    }
    out
}

/// Evaluates an eligible plan by jump scan under a [`WorkBudget`].
/// Returns `None` when the plan is not eligible or `tax` has no
/// positional index for `doc` (the DOM driver then scans) — budgeting
/// never changes eligibility. The driver checks the budget
/// once per probed candidate (and per `HasPath` witness step or chain
/// list element) and abandons with its partial counters when the budget
/// interrupts.
pub(crate) fn evaluate_jump_budgeted(
    doc: &Document,
    plan: &CompiledMfa,
    tax: &TaxIndex,
    budget: &WorkBudget,
) -> Option<Result<(NodeSet, EvalStats), EvalInterrupt>> {
    let (dfa, exact) = nav(plan)?;
    let li = tax.label_index()?;
    if li.node_count() != doc.node_count() {
        return None; // the index describes a different document
    }
    let vi = tax
        .value_index()
        .filter(|vi| vi.node_count() == doc.node_count());
    let mut driver = Jump::new(doc, plan, dfa, exact, tax, li, vi).with_meter(budget.meter());
    // The root is a candidate like any other: step it from the DFA start
    // state (the virtual document node above it is never an answer).
    driver.step_into(doc.root().0, dfa.start());
    if let Some(interrupt) = driver.take_interrupt() {
        return Some(Err(interrupt));
    }
    Some(Ok(driver.finish()))
}

/// How one trigger label of a jumpable state sources its candidates.
#[derive(Clone, Debug)]
enum TriggerSource {
    /// Probe every occurrence of the label.
    Full(Label),
    /// The post-step states are reachable only through recognized value
    /// guards: probe only where one of the value constraints can hold.
    /// Every other occurrence provably behaves as a stutter.
    Narrowed {
        label: Label,
        /// The candidate's own direct text must equal one of these.
        self_values: Vec<String>,
        /// Or a child with the given label must carry the given text.
        child_values: Vec<(Label, String)>,
    },
}

/// Per-DFA-state jump classification, computed lazily and cached.
struct StateInfo {
    /// The wildcard column stutters and the state is not accepting: the
    /// subtree can be scanned through trigger occurrence lists alone.
    jumpable: bool,
    /// Candidate sources, one per trigger label (only non-zero columns
    /// can appear; labels interned after plan compilation share the
    /// wildcard column and therefore stutter whenever it does).
    sources: Vec<TriggerSource>,
    /// All trigger labels as a set, for the `intersects` early-out
    /// against a subtree's descendant labels.
    trigger_set: LabelSet,
}

/// Classifies `state`'s columns into stutters and triggers, narrowing
/// triggers through value postings where sound. Shared by the driver
/// (cached per state) and the explain entry point.
fn trigger_sources(
    plan: &CompiledMfa,
    dfa: &DfaTable,
    exact: bool,
    vi: Option<&ValueIndex>,
    state: u32,
) -> StateInfo {
    let wildcard_stutters = dfa.step(state, 0) == state;
    let jumpable = wildcard_stutters && !dfa.accept(state);
    let mut sources = Vec::new();
    let mut trigger_set = LabelSet::default();
    if jumpable {
        for (label, col) in plan.referenced_labels() {
            if dfa.step(state, col) == state {
                continue;
            }
            trigger_set.insert(label);
            sources.push(narrow_trigger(plan, dfa, exact, vi, state, label, col));
        }
    }
    StateInfo {
        jumpable,
        sources,
        trigger_set,
    }
}

/// Decides whether the trigger on `label` in `state` can be narrowed to
/// value posting lists.
///
/// Soundness: let `moved` be the label-step targets of the state's subset
/// members, and close `moved` over every ε-edge **except** recognized
/// value guards (unrecognized guards are crossed — conservative). If
/// every closed state either stays inside the stutter subset
/// `members(state)` or is **inert** (non-accepting, no outgoing
/// consuming transitions — the guard-holding mid states of value
/// predicates are the canonical case), then at any occurrence where no
/// recognized value condition holds the exact state set is a subset of
/// the stutter orbit plus inert states: nothing accepts at the
/// occurrence (the stutter state is non-accepting since jumpable, and
/// inert states are non-accepting by definition), and the evolution
/// below it cannot differ from the plain stutter evolution (inert states
/// contribute no transitions). The occurrence behaves exactly like a
/// stutter and need not be probed. Occurrences where a value condition
/// *can* hold are exactly the (label, value) posting lists — hash
/// collisions only add false positives, and probing a false positive is
/// harmless (verification is exact).
fn narrow_trigger(
    plan: &CompiledMfa,
    dfa: &DfaTable,
    exact: bool,
    vi: Option<&ValueIndex>,
    state: u32,
    label: Label,
    col: usize,
) -> TriggerSource {
    if exact || vi.is_none() {
        return TriggerSource::Full(label);
    }
    let top = plan.mfa().top();
    let compiled = plan.nfa(top);
    let members = dfa.members(state);
    let mut moved: Vec<StateId> = members
        .iter()
        .flat_map(|&s| compiled.row(s, col).iter().copied())
        .collect();
    moved.sort_unstable();
    moved.dedup();
    if moved.is_empty() {
        // A DEAD step still needs probing: the occurrence's subtree must
        // be cursor-skipped, or triggers inside it would be probed at the
        // wrong state.
        return TriggerSource::Full(label);
    }
    // Close over ε-edges, holding recognized value guards back.
    let nfa = plan.mfa().nfa(top);
    let mut seen = vec![false; nfa.state_count()];
    let mut work = moved.clone();
    for s in &work {
        seen[s.index()] = true;
    }
    let mut self_values: Vec<String> = Vec::new();
    let mut child_values: Vec<(Label, String)> = Vec::new();
    while let Some(s) = work.pop() {
        for e in nfa.eps_edges(s) {
            let cross = match e.guard {
                None => true,
                Some(g) => match value_guard(plan.mfa(), g, plan.chains()[g.index()].as_ref()) {
                    Some(ValueGuard::SelfText(v)) => {
                        if !self_values.contains(&v) {
                            self_values.push(v);
                        }
                        false
                    }
                    Some(ValueGuard::ChildText(l, v)) => {
                        let entry = (l, v);
                        if !child_values.contains(&entry) {
                            child_values.push(entry);
                        }
                        false
                    }
                    // Unrecognized guard: assume it may hold anywhere.
                    None => true,
                },
            };
            if cross && !seen[e.target.index()] {
                seen[e.target.index()] = true;
                work.push(e.target);
            }
        }
    }
    let accept = nfa.accept();
    let inert =
        |s: StateId| s != accept && (0..plan.width()).all(|c| compiled.row(s, c).is_empty());
    let escapes = seen.iter().enumerate().filter(|&(_, &s)| s).any(|(i, _)| {
        let s = StateId(i as u32);
        members.binary_search(&s).is_err() && !inert(s)
    });
    if escapes || (self_values.is_empty() && child_values.is_empty()) {
        return TriggerSource::Full(label);
    }
    TriggerSource::Narrowed {
        label,
        self_values,
        child_values,
    }
}

/// The part of an ascending id list inside `[lo, hi)`.
fn in_range(list: &[u32], lo: u32, hi: u32) -> &[u32] {
    let a = list.partition_point(|&x| x < lo);
    let b = a + list[a..].partition_point(|&x| x < hi);
    &list[a..b]
}

/// The first index at or after `from` whose id is at least `target`, in
/// an ascending id list: a doubling search from `from`, then a binary
/// search of the last doubling — a hop of `d` elements costs `O(log d)`.
fn gallop(list: &[u32], from: usize, target: u32) -> usize {
    if from >= list.len() || list[from] >= target {
        return from;
    }
    // `list[lo] < target`; `hi` is past the end or at an id `>= target`.
    let (mut lo, mut step) = (from, 1);
    let mut hi = from + 1;
    while hi < list.len() && list[hi] < target {
        lo = hi;
        step *= 2;
        hi = lo + step;
    }
    let hi = hi.min(list.len());
    lo + 1 + list[lo + 1..hi].partition_point(|&x| x < target)
}

/// Sorts `list[from..]` and drops its repeats, in place.
fn sort_dedup_from(list: &mut Vec<u32>, from: usize) {
    list[from..].sort_unstable();
    let mut kept = from;
    for i in from..list.len() {
        if kept == from || list[i] != list[kept - 1] {
            list[kept] = list[i];
            kept += 1;
        }
    }
    list.truncate(kept);
}

/// Whether `m`, an occurrence of `chain`'s last label at the chain's
/// depth below the guarded node, completes the chain: its ancestors up to
/// that node carry the earlier labels, and its direct text is the value.
fn chain_matches(doc: &Document, chain: &ChildChain, m: NodeId) -> bool {
    let mut at = m;
    for &label in chain.labels.iter().rev().skip(1) {
        at = doc.parent(at).expect("the chain's depth is below the node");
        if doc.label(at) != Some(label) {
            return false;
        }
    }
    chain
        .value
        .as_ref()
        .is_none_or(|v| doc.direct_text_cow(m).as_ref() == v.as_str())
}

/// Whether some state of `states` (ε-closed, of `nfa`) has an accepting
/// continuation that fits in the labels below `node` — the per-subtree
/// TAX gate the scan walker's `preview` applies, for candidates and
/// witness steps alike (checking ε-closed states is equivalent to
/// checking the pre-closure transition targets: requirements only grow
/// along ε-edges).
fn continues_below(tax: &TaxIndex, nfa: &CompiledNfa, states: &[StateId], node: u32) -> bool {
    if node == VIRTUAL_NODE {
        return true;
    }
    let req = nfa.required();
    let avail = tax.descendant_labels(NodeId(node));
    states
        .iter()
        .any(|s| req[s.index()].satisfiable_within(avail))
}

/// Epoch-marked scratch for one guard-aware closure — the
/// `ClosureBuilder` idiom of [`crate::machine`]. A `HasPath` witness
/// search can run inside a closure and close sets of its own, so the
/// driver keeps a pool: one scratch per nesting level, taken and returned
/// around each closure.
#[derive(Default)]
struct ClosureScratch {
    /// Epoch per NFA state: states marked with the current epoch are in
    /// the closure (or queued for it).
    mark: Vec<u32>,
    epoch: u32,
    /// Verdicts of predicates at the closure's node, by predicate id,
    /// valid where `verdict_mark` holds the current epoch: a guard is
    /// probed at most once per closure.
    verdict_mark: Vec<u32>,
    verdict: Vec<bool>,
    /// The closure's states, in discovery order.
    out: Vec<StateId>,
    /// The seed before [`Jump::close`], the work list during it.
    work: Vec<StateId>,
}

impl ClosureScratch {
    fn begin(&mut self, states: usize, preds: usize) {
        if self.mark.len() < states {
            self.mark.resize(states, 0);
        }
        if self.verdict_mark.len() < preds {
            self.verdict_mark.resize(preds, 0);
            self.verdict.resize(preds, false);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: forget every mark rather than mistake an old one.
            self.mark.fill(0);
            self.verdict_mark.fill(0);
            self.epoch = 1;
        }
        self.out.clear();
        self.work.clear();
    }

    /// Marks `s`, returning whether it was new to this closure.
    fn mark(&mut self, s: StateId) -> bool {
        let fresh = self.mark[s.index()] != self.epoch;
        self.mark[s.index()] = self.epoch;
        fresh
    }

    fn contains(&self, s: StateId) -> bool {
        self.mark[s.index()] == self.epoch
    }
}

/// A child-chain guard's candidate list (looked up on its first probe)
/// and the position the last probe left in it.
#[derive(Clone, Copy, Default)]
struct ChainCursor<'a> {
    list: Option<&'a [u32]>,
    at: usize,
}

/// One node of the ancestor path: its guard-aware state set, kept while
/// candidates fall inside its subtree.
struct PathEntry {
    node: u32,
    /// End of the node's subtree (exclusive); `u32::MAX` for the virtual
    /// document node.
    end: u32,
    /// The state set, `path_sets[start..start + len]`; empty means every
    /// run is dormant at the node.
    start: u32,
    len: u32,
    /// Whether the set holds the top NFA's accept state.
    accepting: bool,
}

impl PathEntry {
    /// `None` when the machine is dormant at the node, else whether the
    /// node is an answer.
    fn verdict(&self) -> Option<bool> {
        (self.len > 0).then_some(self.accepting)
    }
}

struct Jump<'a> {
    doc: &'a Document,
    plan: &'a CompiledMfa,
    /// Compiled top NFA (rows for exact stepping, required labels).
    compiled: &'a CompiledNfa,
    /// Navigation DFA: exact for guard-free plans, guard-stripped else.
    dfa: &'a DfaTable,
    /// Whether the navigation DFA is exact (no verification needed).
    exact: bool,
    tax: &'a TaxIndex,
    li: &'a LabelIndex,
    vi: Option<&'a ValueIndex>,
    /// The top NFA's accept state (verification checks membership).
    accept: StateId,
    infos: Vec<Option<Rc<StateInfo>>>,
    /// The ancestor path of the latest verified candidate, outermost
    /// (the virtual document node) first; see [`Jump::exact_set`].
    path: Vec<PathEntry>,
    /// The path's state sets, back to back in path order.
    path_sets: Vec<StateId>,
    /// Reused buffer: the nodes between the path and a new candidate.
    chain: Vec<u32>,
    /// The latest candidate verified (checks the ascending order the
    /// ancestor path relies on).
    last_verified: u32,
    /// Pooled closure scratch, one per nesting level.
    closures: Vec<ClosureScratch>,
    /// Witness search stack of guarded `HasPath` sub-NFAs: `(node, start,
    /// len)` of the node's state set in `witness_sets`. Nested searches
    /// work above the entries of the search they run inside.
    witness: Vec<(u32, u32, u32)>,
    witness_sets: Vec<StateId>,
    /// Witness search stack of guard-free sub-NFAs: `(node, DFA state)`.
    dfa_witness: Vec<(u32, u32)>,
    /// One cursor per child-chain guard, by predicate id (sized on the
    /// first chain probe).
    chain_cursors: Vec<ChainCursor<'a>>,
    /// The source lists of the nested `jump_scan` regions with their
    /// cursors, each region's above its enclosing region's.
    scan_lists: Vec<(&'a [u32], usize)>,
    /// The child-evidence candidates of the nested regions, back to back.
    evidence: Vec<u32>,
    /// Scratch of one `children_by_value` call: the posting lists it
    /// picked.
    child_sources: Vec<&'a [u32]>,
    /// The children `step_children` steps into, per nesting level, back to
    /// back.
    children: Vec<u32>,
    /// The value index and the plan's step requirements, when some step
    /// needs text values (`None` otherwise — then no candidate is ever
    /// gated by value).
    values: Option<(&'a ValueIndex, &'a StepValues)>,
    /// Per value id of the step requirements, its posting list, looked up
    /// on first use.
    postings: Vec<Option<&'a [u32]>>,
    answers: Vec<u32>,
    stats: EvalStats,
    /// Work-budget countdown, ticked per probed candidate, per `HasPath`
    /// witness step and per chain list element (unarmed by default — one
    /// branch).
    meter: BudgetMeter,
    /// Set once the meter fires; every later probe returns immediately,
    /// so the whole recursion unwinds within one check interval.
    interrupted: Option<Interrupt>,
}

impl<'a> Jump<'a> {
    fn new(
        doc: &'a Document,
        plan: &'a CompiledMfa,
        dfa: &'a DfaTable,
        exact: bool,
        tax: &'a TaxIndex,
        li: &'a LabelIndex,
        vi: Option<&'a ValueIndex>,
    ) -> Self {
        let top = plan.mfa().top();
        let values = vi.zip(plan.step_values());
        let postings = values.map_or(Vec::new(), |(_, steps)| vec![None; steps.value_count()]);
        Jump {
            doc,
            plan,
            compiled: plan.nfa(top),
            dfa,
            exact,
            tax,
            li,
            vi,
            accept: plan.mfa().nfa(top).accept(),
            infos: vec![None; dfa.state_count()],
            path: Vec::new(),
            path_sets: Vec::new(),
            chain: Vec::new(),
            last_verified: 0,
            closures: Vec::new(),
            witness: Vec::new(),
            witness_sets: Vec::new(),
            dfa_witness: Vec::new(),
            chain_cursors: Vec::new(),
            scan_lists: Vec::new(),
            evidence: Vec::new(),
            child_sources: Vec::new(),
            children: Vec::new(),
            values,
            postings,
            answers: Vec::new(),
            stats: EvalStats {
                tree_passes: 1,
                ..Default::default()
            },
            meter: BudgetMeter::default(),
            interrupted: None,
        }
    }

    /// Arms this driver with a budget meter.
    fn with_meter(mut self, meter: BudgetMeter) -> Self {
        self.meter = meter;
        self
    }

    /// The interrupt that abandoned this driver, with its partial
    /// counters, if the budget fired.
    fn take_interrupt(&self) -> Option<EvalInterrupt> {
        self.interrupted.map(|kind| EvalInterrupt {
            kind,
            stats: self.stats,
        })
    }

    /// Lazily computes the jump classification of `state`.
    fn info(&mut self, state: u32) -> Rc<StateInfo> {
        if let Some(info) = &self.infos[state as usize] {
            return info.clone();
        }
        let info = Rc::new(trigger_sources(
            self.plan, self.dfa, self.exact, self.vi, state,
        ));
        self.infos[state as usize] = Some(info.clone());
        info
    }

    /// The posting list of value `id` of the plan's step requirements.
    fn postings(&mut self, id: u32) -> &'a [u32] {
        if let Some(list) = self.postings[id as usize] {
            return list;
        }
        let (vi, steps) = self
            .values
            .expect("only plans with step values have value ids");
        let (label, text) = steps.value(id);
        let list = vi.occurrences(label, text);
        self.postings[id as usize] = Some(list);
        list
    }

    /// Whether the subtree `[lo, hi)` of a candidate stepped into from
    /// `state` on column `col` holds the values some accepting
    /// continuation needs (see [`StepValues`]): for one live state the
    /// step entered, a posting of each value that state needs.
    fn holds_wanted_values(&mut self, state: u32, col: usize, lo: u32, hi: u32) -> bool {
        let Some((_, steps)) = self.values else {
            return true;
        };
        let Some(needs) = steps.of_step(state, col) else {
            return true;
        };
        needs.iter().any(|ids| {
            ids.iter()
                .all(|&id| !in_range(self.postings(id), lo, hi).is_empty())
        })
    }

    /// The element children of `node` that can lead to an answer from
    /// `state`, found through value postings instead of by stepping into
    /// every child: when only labels the plan mentions move the state, and
    /// every live state those steps enter needs some text value, a child
    /// that leads anywhere holds one of those values — the rarest of each
    /// entered state's — at or below itself. Pushes them, ascending, onto
    /// `children` and returns `true`; returns `false` (pushing nothing)
    /// when some child needs no value, or the postings outnumber the
    /// children.
    fn children_by_value(&mut self, node: NodeId, state: u32) -> bool {
        let Some((_, steps)) = self.values else {
            return false;
        };
        if self.dfa.step(state, 0) != DEAD {
            return false; // labels the plan never mentions move the state
        }
        let (lo, hi) = (node.0 + 1, self.li.subtree_end(node));
        self.child_sources.clear();
        for col in 1..self.plan.width() {
            if self.dfa.step(state, col) == DEAD {
                continue;
            }
            let Some(needs) = steps.of_step(state, col) else {
                return false;
            };
            for ids in needs {
                let rarest = ids
                    .iter()
                    .map(|&id| in_range(self.postings(id), lo, hi))
                    .min_by_key(|list| list.len())
                    .expect("an entered state with requirements needs a value");
                self.child_sources.push(rarest);
            }
        }
        let total: usize = self.child_sources.iter().map(|list| list.len()).sum();
        if total > 16 && total >= self.doc.child_elements(node).count() {
            return false; // cheaper to step every child
        }
        let (doc, base) = (self.doc, self.children.len());
        for j in 0..self.child_sources.len() {
            for &hit in self.child_sources[j] {
                let mut at = NodeId(hit);
                while let Some(parent) = doc.parent(at) {
                    if parent == node {
                        break;
                    }
                    at = parent;
                }
                self.children.push(at.0);
            }
        }
        sort_dedup_from(&mut self.children, base);
        true
    }

    /// Steps the element children of `node` from `state` (a state whose
    /// wildcard column moves: every child may matter) — only the ones
    /// value postings point at, when [`Jump::children_by_value`] can tell.
    fn step_children(&mut self, node: NodeId, state: u32) {
        let base = self.children.len();
        if self.children_by_value(node, state) {
            // Each child's own stepping works above `end`.
            let end = self.children.len();
            for i in base..end {
                let c = self.children[i];
                self.step_into(c, state);
            }
            self.children.truncate(base);
        } else {
            // `doc` outlives the driver, so iterating it does not hold
            // a borrow of `self`.
            let doc = self.doc;
            for c in doc.child_elements(node) {
                self.step_into(c.0, state);
            }
        }
    }

    // -- guard-aware verification ------------------------------------------

    /// Takes a closure scratch from the pool, sized for this plan.
    fn scratch(&mut self) -> ClosureScratch {
        let mut b = self.closures.pop().unwrap_or_default();
        b.begin(self.plan.max_states(), self.plan.mfa().pred_count());
        b
    }

    /// The exact (guard-aware) top-NFA verdict at `node`: `None` when
    /// every run is dormant there — nothing at or below it can match —
    /// else whether `node` is an answer.
    ///
    /// Every driver verifies candidates in ascending pre-order, so the
    /// sets worth keeping are those of the current candidate's ancestors:
    /// a stack. Entries whose subtree ends at or before `node` can never
    /// be asked for again and are popped; what remains is an ancestor
    /// chain of `node`, and only the part of it below the path's top is
    /// computed — each node's set from its parent's, stepped and closed.
    fn exact_set(&mut self, node: u32) -> Option<bool> {
        debug_assert!(
            node >= self.last_verified,
            "candidates must be verified in ascending pre-order ({node} after {})",
            self.last_verified
        );
        self.last_verified = node;
        if self.path.is_empty() {
            // The virtual document node: the start state closed there,
            // as in `Machine::begin`.
            let top = self.plan.mfa().top();
            let mut b = self.scratch();
            b.work.push(self.plan.mfa().nfa(top).start());
            self.push_path(VIRTUAL_NODE, u32::MAX, b);
        }
        while let Some(entry) = self.path.last().filter(|e| e.end <= node) {
            self.path_sets.truncate(entry.start as usize);
            self.path.pop();
        }
        let top = self.path.last().expect("the virtual node is never popped");
        if top.node == node || top.len == 0 {
            return top.verdict(); // dormancy is hereditary
        }
        let mut chain = std::mem::take(&mut self.chain);
        chain.clear();
        let mut cur = node;
        while cur != top.node {
            chain.push(cur);
            cur = self.doc.parent(NodeId(cur)).map_or(VIRTUAL_NODE, |p| p.0);
        }
        for &n in chain.iter().rev() {
            let parent = self.path.last().expect("the path holds the parent");
            if parent.len == 0 {
                break;
            }
            let set = parent.start as usize..(parent.start + parent.len) as usize;
            let col = self
                .plan
                .col(self.doc.label(NodeId(n)).expect("elements only"));
            let mut b = self.scratch();
            for &s in &self.path_sets[set] {
                b.work.extend_from_slice(self.compiled.row(s, col));
            }
            self.push_path(n, self.li.subtree_end(NodeId(n)), b);
        }
        self.chain = chain;
        // `node`'s entry, or its dormant ancestor's.
        self.path.last().expect("the path is never empty").verdict()
    }

    /// Closes the seed in `b` guard-aware at `node` and pushes the result
    /// as the path's new top.
    fn push_path(&mut self, node: u32, end: u32, mut b: ClosureScratch) {
        if !b.work.is_empty() {
            self.close(self.plan.mfa().top(), &mut b, node);
        }
        self.path.push(PathEntry {
            node,
            end,
            start: self.path_sets.len() as u32,
            len: b.out.len() as u32,
            accepting: b.contains(self.accept),
        });
        self.path_sets.extend_from_slice(&b.out);
        self.closures.push(b);
    }

    /// Guard-aware ε-closure in `nfa_id` at `node` of the seed in
    /// `b.work`: guarded edges are crossed iff their predicate holds at
    /// the node. Leaves the closure in `b.out` (and marked in `b`).
    fn close(&mut self, nfa_id: NfaId, b: &mut ClosureScratch, node: u32) {
        let plan: &'a CompiledMfa = self.plan;
        let compiled = plan.nfa(nfa_id);
        b.work.sort_unstable();
        b.work.dedup();
        if b.work.iter().all(|&s| !compiled.closure_guarded(s)) {
            // No guard is reachable: the precomputed closures are exact.
            while let Some(s) = b.work.pop() {
                for &t in compiled.closure(s) {
                    if b.mark(t) {
                        b.out.push(t);
                    }
                }
            }
            return;
        }
        let nfa = plan.mfa().nfa(nfa_id);
        for i in 0..b.work.len() {
            let s = b.work[i];
            b.mark(s);
        }
        while let Some(s) = b.work.pop() {
            b.out.push(s);
            for e in nfa.eps_edges(s) {
                if b.contains(e.target) {
                    continue;
                }
                let cross = match e.guard {
                    None => true,
                    Some(g) => self.holds(g, node, b),
                };
                if cross {
                    b.mark(e.target);
                    b.work.push(e.target);
                }
            }
        }
    }

    /// Whether predicate `pred` holds at `node`, the node of the closure
    /// `verdicts` belongs to (which remembers each verdict). Matches the
    /// machine's semantics exactly: `text()='v'` compares the node's
    /// direct text (the virtual node has none), `HasPath` searches the
    /// node's subtree for a witness.
    fn holds(&mut self, pred: PredId, node: u32, verdicts: &mut ClosureScratch) -> bool {
        let i = pred.index();
        if verdicts.verdict_mark[i] == verdicts.epoch {
            return verdicts.verdict[i];
        }
        self.stats.guard_probes += 1;
        let plan: &'a CompiledMfa = self.plan;
        let v = match plan.mfa().pred(pred) {
            Pred::True => true,
            Pred::TextEq(t) => {
                if node == VIRTUAL_NODE {
                    t.is_empty()
                } else {
                    self.doc.direct_text_cow(NodeId(node)).as_ref() == t.as_str()
                }
            }
            Pred::HasPath(sub) => match &plan.chains()[i] {
                Some(chain) => self.chain_holds(pred, chain, node),
                None => self.has_path(*sub, node),
            },
            Pred::Not(p) => !self.holds(*p, node, verdicts),
            Pred::And(ps) => ps.iter().all(|&p| self.holds(p, node, verdicts)),
            Pred::Or(ps) => ps.iter().any(|&p| self.holds(p, node, verdicts)),
        };
        verdicts.verdict_mark[i] = verdicts.epoch;
        verdicts.verdict[i] = v;
        v
    }

    /// Ticks the budget meter once per witness step or chain list
    /// element: witness walks and chain probes can span whole hidden
    /// subtrees, so a deadline cuts them off like any
    /// other traversal (the caller's verdict is discarded along with the
    /// evaluation). Returns whether the budget fired.
    fn witness_tick(&mut self) -> bool {
        if let Some(kind) = self.meter.tick() {
            self.interrupted = Some(kind);
        }
        self.interrupted.is_some()
    }

    /// Whether child-chain guard `pred` (`l1/…/lk`, maybe `= 'v'`) holds at
    /// `node`, by a reverse semi-join on the index: some candidate `m` —
    /// from the `(lk, v)` postings of a value chain, else `lk`'s
    /// occurrences — lies in `node`'s subtree exactly `k` levels down,
    /// under ancestors labelled `l(k−1) … l1`, with direct text `v` for a
    /// value chain (the comparison rejects hash collisions). A candidate
    /// at or below the target level settles its target-level ancestor's
    /// whole subtree, which the cursor then skips; a shallower one is
    /// stepped over. One budget tick per list element.
    fn chain_holds(&mut self, pred: PredId, chain: &ChildChain, node: u32) -> bool {
        let (doc, li) = (self.doc, self.li);
        // Depths count the virtual document node as 0.
        let (lo, hi, depth) = if node == VIRTUAL_NODE {
            (0, li.node_count() as u32, 0)
        } else {
            let id = NodeId(node);
            (node + 1, li.subtree_end(id), li.level(id) + 1)
        };
        let target = depth + chain.labels.len() as u32;
        if self.chain_cursors.is_empty() {
            let preds = self.plan.mfa().pred_count();
            self.chain_cursors.resize(preds, ChainCursor::default());
        }
        let ChainCursor { list, at } = self.chain_cursors[pred.index()];
        let list = list.unwrap_or_else(|| {
            let last = *chain.labels.last().expect("chains are never empty");
            match (&chain.value, self.vi) {
                (Some(v), Some(vi)) if !v.is_empty() => vi.occurrences(last, v),
                _ => li.occurrences(last),
            }
        });
        // Probes mostly ascend, so the cursor gallops forward. It searches
        // again only when it already stands past `lo`: after a probe of an
        // enclosing node, or of a later one by a nested witness search.
        let mut at = if at > 0 && list[at - 1] >= lo {
            list[..at].partition_point(|&m| m < lo)
        } else {
            gallop(list, at, lo)
        };
        let mut found = false;
        while at < list.len() && list[at] < hi && !self.witness_tick() {
            let m = NodeId(list[at]);
            let m_depth = li.level(m) + 1;
            if m_depth < target {
                at += 1;
                continue;
            }
            let mut anchor = m;
            for _ in target..m_depth {
                anchor = doc.parent(anchor).expect("below `node`, so not the root");
            }
            if m_depth == target && chain_matches(doc, chain, m) {
                found = true;
                break;
            }
            at = gallop(list, at + 1, li.subtree_end(anchor));
        }
        self.chain_cursors[pred.index()] = ChainCursor {
            list: Some(list),
            at,
        };
        found
    }

    /// Whether a downward path from `origin` matches sub-NFA `sub`:
    /// TAX-pruned depth-first search of the subtree, accepting at the
    /// origin itself for nullable paths (the machine's accept-at-spawn).
    /// Guard-free sub-NFAs step their dense DFA, as `Machine::spawn` does.
    fn has_path(&mut self, sub: NfaId, origin: u32) -> bool {
        let plan: &'a CompiledMfa = self.plan;
        let compiled = plan.nfa(sub);
        if let Some(dfa) = compiled.dfa() {
            return self.has_path_dfa(compiled, dfa, origin);
        }
        let nfa = plan.mfa().nfa(sub);
        let accept = nfa.accept();
        let mut b = self.scratch();
        b.work.push(nfa.start());
        self.close(sub, &mut b, origin);
        let mut found = b.contains(accept);
        let (stack_base, sets_base) = (self.witness.len(), self.witness_sets.len());
        if !found && continues_below(self.tax, compiled, &b.out, origin) {
            self.witness
                .push((origin, sets_base as u32, b.out.len() as u32));
            self.witness_sets.extend_from_slice(&b.out);
        }
        self.closures.push(b);
        let doc = self.doc;
        while !found && self.witness.len() > stack_base && !self.witness_tick() {
            let (n, start, len) = self.witness.pop().expect("above the base");
            // Everything above this entry belongs to finished subtrees.
            self.witness_sets.truncate((start + len) as usize);
            let set = start as usize..(start + len) as usize;
            found = if n == VIRTUAL_NODE {
                self.witness_child(sub, set, doc.root())
            } else {
                doc.child_elements(NodeId(n))
                    .any(|c| self.witness_child(sub, set.clone(), c))
            };
        }
        self.witness.truncate(stack_base);
        self.witness_sets.truncate(sets_base);
        found
    }

    /// One step of [`Jump::has_path`]'s search into child `c` from the
    /// parent's set `witness_sets[set]`: whether `c` accepts; if not and
    /// an accepting continuation fits below it, `c` is queued.
    fn witness_child(&mut self, sub: NfaId, set: std::ops::Range<usize>, c: NodeId) -> bool {
        let plan: &'a CompiledMfa = self.plan;
        let compiled = plan.nfa(sub);
        let col = plan.col(self.doc.label(c).expect("child_elements yields elements"));
        let mut b = self.scratch();
        for &s in &self.witness_sets[set] {
            b.work.extend_from_slice(compiled.row(s, col));
        }
        let mut accepted = false;
        if !b.work.is_empty() {
            self.close(sub, &mut b, c.0);
            accepted = b.contains(plan.mfa().nfa(sub).accept());
            if !accepted && continues_below(self.tax, compiled, &b.out, c.0) {
                let start = self.witness_sets.len() as u32;
                self.witness.push((c.0, start, b.out.len() as u32));
                self.witness_sets.extend_from_slice(&b.out);
            }
        }
        self.closures.push(b);
        accepted
    }

    /// [`Jump::has_path`] for a guard-free sub-NFA: one table read per
    /// step, nothing to close and no guard to probe.
    fn has_path_dfa(&mut self, compiled: &CompiledNfa, dfa: &DfaTable, origin: u32) -> bool {
        let start = dfa.start();
        if dfa.accept(start) {
            return true;
        }
        let (doc, plan, tax) = (self.doc, self.plan, self.tax);
        if !continues_below(tax, compiled, dfa.members(start), origin) {
            return false;
        }
        // Whether child `c` accepts from state `q`; queues it when an
        // accepting continuation fits below it.
        let step = |walk: &mut Vec<(u32, u32)>, q: u32, c: NodeId| {
            let next = dfa.step(q, plan.col(doc.label(c).expect("elements only")));
            if next == DEAD {
                return false;
            }
            if dfa.accept(next) {
                return true;
            }
            if continues_below(tax, compiled, dfa.members(next), c.0) {
                walk.push((c.0, next));
            }
            false
        };
        // No guard inside: this search never nests, so it owns the stack.
        let mut walk = std::mem::take(&mut self.dfa_witness);
        walk.clear();
        walk.push((origin, start));
        let mut found = false;
        while !found && !walk.is_empty() && !self.witness_tick() {
            let (n, q) = walk.pop().expect("not empty");
            found = if n == VIRTUAL_NODE {
                step(&mut walk, q, doc.root())
            } else {
                doc.child_elements(NodeId(n)).any(|c| step(&mut walk, q, c))
            };
        }
        self.dfa_witness = walk;
        found
    }

    // -- navigation --------------------------------------------------------

    /// Steps `node` from its parent's `state` and, if the automaton
    /// advances and the TAX gate passes, enters it. On guarded plans the
    /// exact state set is reconstructed first: a guard-dead node is
    /// skipped wholesale, exactly like a DEAD step (and like the scan
    /// walker, which never enters it either).
    fn step_into(&mut self, node: u32, state: u32) {
        if self.interrupted.is_some() {
            return;
        }
        if let Some(kind) = self.meter.tick() {
            self.interrupted = Some(kind);
            return;
        }
        let id = NodeId(node);
        let label = self.doc.label(id).expect("candidates are elements");
        let col = self.plan.col(label);
        let next = self.dfa.step(state, col);
        if next == DEAD {
            self.stats.subtrees_skipped_dead += 1;
            return;
        }
        if !continues_below(self.tax, self.compiled, self.dfa.members(next), node)
            || !self.holds_wanted_values(state, col, node, self.li.subtree_end(id))
        {
            self.stats.subtrees_pruned_tax += 1;
            return;
        }
        let accepting = if self.exact {
            self.dfa.accept(next)
        } else {
            match self.exact_set(node) {
                Some(accepting) => accepting,
                None => {
                    self.stats.subtrees_skipped_dead += 1;
                    return;
                }
            }
        };
        self.enter(node, next, accepting);
    }

    /// Visits `node` (stepped to live navigation state `state`), records
    /// it if `accepting` — per the DFA when exact, per the verified state
    /// set otherwise — and processes its subtree.
    fn enter(&mut self, node: u32, state: u32, accepting: bool) {
        let id = NodeId(node);
        self.stats.nodes_visited += 1;
        // The scan walker counts the virtual document frame in its depth.
        self.stats.max_depth = self.stats.max_depth.max(self.li.level(id) as usize + 1);
        if accepting {
            self.answers.push(node);
        }
        let lo = node + 1;
        let hi = self.li.subtree_end(id);
        if lo >= hi {
            return; // leaf
        }
        let info = self.info(state);
        if info.jumpable {
            // Word-wise short-circuit intersection test: if no trigger
            // label occurs anywhere below, the state cannot change inside
            // the subtree — and non-accepting stutter states yield no
            // answers — so the whole region is done without a single
            // binary search.
            if !info.trigger_set.intersects(self.tax.descendant_labels(id)) {
                self.stats.subtrees_pruned_tax += 1;
                return;
            }
            self.jump_scan(lo, hi, state, &info);
        } else {
            // Wildcard column moves the state: every child matters. Step
            // the element children directly (bounded by this candidate's
            // fan-out, not by the subtree).
            self.step_children(id, state);
        }
    }

    /// Scans `[lo, hi)` in state `state` by hopping between candidate
    /// occurrences; everything between provably stutters.
    fn jump_scan(&mut self, lo: u32, hi: u32, state: u32, info: &StateInfo) {
        // Child-evidence candidates are materialized for the region up
        // front: witness postings map to *parents*, which can precede
        // later witnesses in pre-order — a merged cursor over the raw
        // evidence lists would probe ancestors after their descendants
        // and break the ascending-candidate invariant.
        let mut evidence = std::mem::take(&mut self.evidence);
        let evidence_base = evidence.len();
        self.evidence_candidates(lo, hi, info, &mut evidence);
        sort_dedup_from(&mut evidence, evidence_base);
        let evidence_end = evidence.len();
        self.evidence = evidence;
        // Per-source sorted lists (a handful — the labels and values the
        // plan mentions) with monotone cursors: the region cursor only
        // ever advances, so each list index advances amortized O(1)
        // instead of restarting a binary search per candidate. Nested
        // regions push theirs above `lists_end` and truncate back.
        let lists_base = self.scan_lists.len();
        for src in &info.sources {
            match src {
                TriggerSource::Full(label) => {
                    let list = self.li.occurrences(*label);
                    self.scan_lists
                        .push((list, list.partition_point(|&x| x < lo)));
                }
                TriggerSource::Narrowed {
                    label, self_values, ..
                } => {
                    let vi = self.vi.expect("narrowed triggers require a value index");
                    for v in self_values {
                        let list = vi.occurrences(*label, v);
                        self.scan_lists
                            .push((list, list.partition_point(|&x| x < lo)));
                    }
                }
            }
        }
        let lists_end = self.scan_lists.len();
        let mut ev = evidence_base;
        let mut cursor = lo;
        while cursor < hi {
            // Next candidate at or after the cursor: min over the lists.
            let mut next = u32::MAX;
            for (list, i) in &mut self.scan_lists[lists_base..lists_end] {
                while *i < list.len() && list[*i] < cursor {
                    *i += 1;
                }
                if *i < list.len() {
                    next = next.min(list[*i]);
                }
            }
            while ev < evidence_end && self.evidence[ev] < cursor {
                ev += 1;
            }
            if ev < evidence_end {
                next = next.min(self.evidence[ev]);
            }
            if next >= hi {
                break; // no candidate left in the region
            }
            // All of `next`'s ancestors inside the region stutter: any
            // probed ancestor would have been the earlier candidate and
            // advanced the cursor past this whole subtree, and narrowed-
            // out occurrences provably behave as stutters.
            self.step_into(next, state);
            if self.interrupted.is_some() {
                break;
            }
            cursor = self.li.subtree_end(NodeId(next));
        }
        self.scan_lists.truncate(lists_base);
        self.evidence.truncate(evidence_base);
    }

    /// Appends to `out` the candidates in `[lo, hi)` drawn from child-
    /// witness postings: parents (with the trigger label) of witness
    /// occurrences in the region, unsorted and possibly repeated.
    fn evidence_candidates(&self, lo: u32, hi: u32, info: &StateInfo, out: &mut Vec<u32>) {
        for src in &info.sources {
            let TriggerSource::Narrowed {
                label,
                child_values,
                ..
            } = src
            else {
                continue;
            };
            let vi = self.vi.expect("narrowed triggers require a value index");
            for (p, v) in child_values {
                for &e in in_range(vi.occurrences(*p, v), lo, hi) {
                    let Some(parent) = self.doc.parent(NodeId(e)) else {
                        continue;
                    };
                    // The candidate is the witness's parent — probe it
                    // only when it is an occurrence of the trigger label
                    // inside this region.
                    if parent.0 >= lo && self.doc.label(parent) == Some(*label) {
                        out.push(parent.0);
                    }
                }
            }
        }
    }

    /// Consumes the driver into its final `(answers, stats)` pair with
    /// answer counters filled in.
    fn finish(self) -> (NodeSet, EvalStats) {
        let Jump {
            answers, mut stats, ..
        } = self;
        stats.answers = answers.len();
        stats.immediate_answers = answers.len();
        (
            NodeSet::from_sorted(answers.into_iter().map(NodeId).collect()),
            stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::{evaluate_mfa_plan, DomOptions};
    use crate::machine::ExecMode;
    use crate::observer::NoopObserver;
    use smoqe_automata::compile;
    use smoqe_rxpath::parse_path;
    use smoqe_xml::Vocabulary;

    fn evaluate_jump(doc: &Document, plan: &CompiledMfa, tax: &TaxIndex) -> (NodeSet, EvalStats) {
        let options = DomOptions { tax: Some(tax) };
        evaluate_mfa_plan(doc, plan, &options, ExecMode::Jump, &mut NoopObserver)
    }

    /// Jump answers must equal scan answers, visiting no more nodes.
    fn check(xml: &str, query: &str) -> (EvalStats, EvalStats) {
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(xml, &vocab).unwrap();
        let tax = TaxIndex::build(&doc);
        let path = parse_path(query, &vocab).unwrap();
        let plan = CompiledMfa::compile(&compile(&path, &vocab));
        let options = DomOptions { tax: Some(&tax) };
        let (scan, scan_stats) =
            evaluate_mfa_plan(&doc, &plan, &options, ExecMode::Compiled, &mut NoopObserver);
        let (jump, jump_stats) =
            evaluate_mfa_plan(&doc, &plan, &options, ExecMode::Jump, &mut NoopObserver);
        assert_eq!(jump, scan, "`{query}` on `{xml}`");
        assert!(
            jump_stats.nodes_visited <= scan_stats.nodes_visited,
            "jump visited {} > scan {} on `{query}`",
            jump_stats.nodes_visited,
            scan_stats.nodes_visited
        );
        (jump_stats, scan_stats)
    }

    #[test]
    fn agrees_on_descendant_queries() {
        let xml = "<a><z><b/><b/><c><b/></c></z><b/><z><y/></z></a>";
        let (j, s) = check(xml, "//b");
        assert!(j.nodes_visited < s.nodes_visited, "jump must skip");
        check(xml, "//c/b");
        check(xml, "//z//b");
        check(xml, "//nothing");
    }

    #[test]
    fn agrees_on_child_paths_and_unions() {
        let xml = "<a><b><c>1</c></b><d><c>2</c></d><b/><e><b><c/></b></e></a>";
        check(xml, "a/b/c");
        check(xml, "a/(b | d)/c");
        check(xml, "a/*/c");
        check(xml, "a/b");
        check(xml, "zzz");
    }

    #[test]
    fn agrees_on_closures_and_recursion() {
        let xml = "<a><b><a><b><a><c/></a></b></a></b><c/></a>";
        check(xml, "(a/b)*/a");
        check(xml, "a/(b/a)*/c");
        check(xml, "//a/c");
    }

    #[test]
    fn wildcard_shaped_queries_stay_correct() {
        // Accepting stutter states (everything matches) must not lose
        // answers: the driver degrades to child-stepping there.
        let xml = "<a><b><c/></b><d/></a>";
        check(xml, "//*");
        check(xml, "a//*");
        check(xml, ".");
    }

    #[test]
    fn guarded_plans_are_eligible_and_verified() {
        let xml = "<a><b><c/></b><b/><b><d/><c/></b></a>";
        check(xml, "a/b[c]");
        check(xml, "//b[c]");
        check(xml, "a/b[not(c)]");
        check(xml, "a/b[c and d]");
        check(xml, "a/b[c or d]");
        check(xml, "//b[c]/c");
    }

    #[test]
    fn text_predicates_agree() {
        let xml = "<a><b>x</b><b>y</b><c><b>x</b></c><b><d>x</d></b></a>";
        check(xml, "//b[. = 'x']");
        check(xml, "a/b[. = 'y']");
        check(xml, "//b[d = 'x']");
        check(xml, "//b[. = 'missing']");
        check(xml, "//b[not(. = 'x')]");
    }

    #[test]
    fn required_values_prune_and_pick_children() {
        // `c = 'x'` below a `b` that does not own it, values behind
        // conjunctions, disjunctions and negations, wildcard steps (which
        // keep every child live) and recursion: answers stay the scan's.
        let xml = "<a><b><c>x</c><d>y</d></b><b><c>y</c></b><b><d><c>x</c></d></b>\
                   <e><c>x</c></e><e><d>w</d></e><b><d>y</d></b><b>x<c>z</c></b><a><b><c>x</c></b></a></a>";
        for q in [
            "a/b[c = 'x']",
            "a/b[c = 'x']/d",
            "a/b[. = 'x']/c",
            "a/(b[c = 'x'] | e)",
            "a/(b[c = 'x'] | e[c = 'x'])",
            "a/b[not(c = 'x')]",
            "a/*[c = 'x']",
            "a/(*[d] | b[c = 'x'])",
            "a/*[. = 'x']",
            "a/b[c = 'x' or d = 'y']",
            "a/b[c = 'x' and d = 'y']",
            "a/b[d/c = 'x']",
            "(a)*/b[c = 'x']",
            "a/b[c = 'missing']",
        ] {
            check(xml, q);
        }
    }

    #[test]
    fn a_point_target_under_a_wide_root_visits_only_its_path() {
        // One child of many holds the literal: the child-stepping root
        // steps into that child alone, found through the value postings.
        let mut xml = String::from("<r>");
        for i in 0..500 {
            xml.push_str(&format!("<p><n>name{i}</n><v><m>med{i}</m></v></p>"));
        }
        xml.push_str("</r>");
        for q in [
            "r/p[n = 'name250']/v/m",
            "r/p/v[m = 'med7']",
            "r/p[v/m = 'med9']",
        ] {
            let (jump, scan) = check(&xml, q);
            assert!(
                jump.nodes_visited <= 4 && scan.nodes_visited > 500,
                "`{q}`: jump visited {}, scan {}",
                jump.nodes_visited,
                scan.nodes_visited
            );
        }
    }

    #[test]
    fn guard_dead_subtrees_are_skipped_without_visits() {
        // `a[. = 'v']/b`: when the text guard fails, the scan walker goes
        // dormant below `a` — jump must not visit the `b`s either.
        let xml = "<r><a>v<b/><b/></a><a>w<b/><b/></a></r>";
        let (j, s) = check(xml, "//a[. = 'v']/b");
        assert!(j.nodes_visited <= s.nodes_visited);
        // Only the matching a's subtree contributes candidate visits.
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(xml, &vocab).unwrap();
        let tax = TaxIndex::build(&doc);
        let path = parse_path("//a[. = 'v']/b", &vocab).unwrap();
        let plan = CompiledMfa::compile(&compile(&path, &vocab));
        let (answers, _) = evaluate_jump(&doc, &plan, &tax);
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn narrowed_triggers_probe_only_posting_lists() {
        // 30 b's with text "x", one with "y": a narrowed trigger probes
        // only the (b, 'y') posting list, not every b.
        let xml = format!("<a>{}<b>y</b></a>", "<b>x</b>".repeat(30));
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(&xml, &vocab).unwrap();
        let tax = TaxIndex::build(&doc);
        let path = parse_path("//b[. = 'y']", &vocab).unwrap();
        let plan = CompiledMfa::compile(&compile(&path, &vocab));
        let (answers, stats) = evaluate_jump(&doc, &plan, &tax);
        assert_eq!(answers.len(), 1);
        assert!(
            stats.nodes_visited <= 3,
            "narrowed probe visited {} nodes",
            stats.nodes_visited
        );
        let (_, j) = check(&xml, "//b[. = 'y']");
        assert!(j.nodes_visited > 10, "scan walks all the bs");
    }

    #[test]
    fn child_evidence_candidates_follow_witness_postings() {
        // `//p[n = 'Ann']` with many p's: only parents of (n, 'Ann')
        // witnesses are probed.
        let xml = format!(
            "<r>{}<p><n>Ann</n><x/></p></r>",
            "<p><n>Bob</n><x/></p>".repeat(20)
        );
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(&xml, &vocab).unwrap();
        let tax = TaxIndex::build(&doc);
        let path = parse_path("//p[n = 'Ann']", &vocab).unwrap();
        let plan = CompiledMfa::compile(&compile(&path, &vocab));
        let (answers, stats) = evaluate_jump(&doc, &plan, &tax);
        assert_eq!(answers.len(), 1);
        assert!(
            stats.nodes_visited <= 3,
            "evidence probe visited {} nodes",
            stats.nodes_visited
        );
        check(&xml, "//p[n = 'Ann']");
    }

    #[test]
    fn chain_guards_count_only_occurrences_at_their_depth() {
        // `c` occurs at the chain's depth, above it and below it, under
        // the wrong parent, with split and wrong text; `b` nests in `b`,
        // so probes at nested candidates send the cursor back.
        let xml = "<r><a><c>v</c><b><b><c>v</c></b></b></a>\
                   <a><b><c>v</c><c>w</c></b><c>v</c></a>\
                   <a><b><x><c>v</c></x></b><x><c>v</c></x></a>\
                   <a><b><c>v<y/></c></b><b><c><![CDATA[v]]></c></b></a>\
                   <a><b><b><b><c>w</c></b><c>v</c></b></b></a></r>";
        for q in [
            "r/a[b/c]",
            "r/a[b/c = 'v']",
            "r/a[b/c = 'w']",
            "//b[b/c]",
            "//b[b/c = 'v']",
            "//b[b/b/c = 'w']",
            "r/a[not(b/c = 'v')]",
            "//*[b/c = 'v' or c]",
            "r/a[b/b/c and c = 'v']",
            "r/a[x/c = 'v']/b",
            "r[a/b/c = 'w']/a",
            "r/a[b/b]",
            "//b[b/b/c]",
        ] {
            check(xml, q);
            // Without a value index, value chains draw their candidates
            // from the label occurrences instead of the postings.
            let vocab = Vocabulary::new();
            let doc = Document::parse_str(xml, &vocab).unwrap();
            let tax = TaxIndex::build(&doc);
            let plan = CompiledMfa::compile(&compile(&parse_path(q, &vocab).unwrap(), &vocab));
            let (dfa, exact) = nav(&plan).unwrap();
            let li = tax.label_index().unwrap();
            let mut driver = Jump::new(&doc, &plan, dfa, exact, &tax, li, None);
            driver.step_into(doc.root().0, dfa.start());
            let (scan, _) = evaluate_mfa_plan(
                &doc,
                &plan,
                &DomOptions::default(),
                ExecMode::Compiled,
                &mut NoopObserver,
            );
            assert_eq!(driver.finish().0, scan, "`{q}` without a value index");
        }
    }

    #[test]
    fn a_chain_probe_is_budgeted_per_list_element() {
        use std::time::{Duration, Instant};
        // One `a` holds 100 000 children `b` — occurrences of the chain's
        // last label one level above its depth — before its one witness.
        let xml = format!(
            "<r><a>{}<x><b/></x></a><a><b/></a></r>",
            "<b/>".repeat(100_000)
        );
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(&xml, &vocab).unwrap();
        let tax = TaxIndex::build(&doc);
        let path = parse_path("r/a[x/b]", &vocab).unwrap();
        let plan = CompiledMfa::compile(&compile(&path, &vocab));
        let (answers, stats) = evaluate_jump(&doc, &plan, &tax);
        assert_eq!(answers.into_vec(), vec![NodeId(1)]);
        assert_eq!(stats.guard_probes, 2, "one probe per `a`");
        check(&xml, "r/a[x/b]");
        // Past its deadline, the probe stops within one check interval:
        // the driver ticks twice before it (the root, the first `a`), so
        // the cursor stands at most one interval into the list.
        let interval = 64;
        let budget = WorkBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            cancel: None,
            check_interval: interval,
        };
        let (dfa, exact) = nav(&plan).unwrap();
        let li = tax.label_index().unwrap();
        let mut driver = Jump::new(&doc, &plan, dfa, exact, &tax, li, tax.value_index())
            .with_meter(budget.meter());
        driver.step_into(doc.root().0, dfa.start());
        let interrupt = driver.take_interrupt().expect("the expired deadline fires");
        assert_eq!(interrupt.kind, Interrupt::DeadlineExceeded);
        let moved = driver.chain_cursors.iter().map(|c| c.at).max().unwrap();
        assert!(
            moved <= interval as usize,
            "the probe read {moved} list elements past its deadline"
        );
    }

    #[test]
    fn availability_requires_a_matching_label_index() {
        let vocab = Vocabulary::new();
        let doc = Document::parse_str("<a><b/></a>", &vocab).unwrap();
        let other = Document::parse_str("<a><b/><b/></a>", &vocab).unwrap();
        let tax = TaxIndex::build(&other); // wrong document
        let path = parse_path("//b", &vocab).unwrap();
        let plan = CompiledMfa::compile(&compile(&path, &vocab));
        assert!(jump_eligible(&plan));
        assert!(!jump_available(&doc, &plan, Some(&tax)));
        assert!(!jump_available(&doc, &plan, None));
        assert!(jump_available(&other, &plan, Some(&tax)));
    }

    #[test]
    fn root_edge_cases_agree_with_scan() {
        // A root answer, a leaf root, a dead root and a child-stepping root.
        for q in ["a", "b", "//a", "."] {
            check("<a/>", q);
        }
        for q in ["a", ".", "a/*", "//*", "a/b", "//b"] {
            check("<a><b/><c><b/></c></a>", q);
        }
    }

    #[test]
    fn jump_mode_without_an_index_or_a_dfa_scans() {
        // Jump mode over a stale index, or for a plan whose subset DFA
        // blew the cap, is the scan walker: same answers, same visits.
        let vocab = Vocabulary::new();
        let doc = Document::parse_str("<a><b/><c><b><b/></b></c></a>", &vocab).unwrap();
        let other = Document::parse_str("<a><b/><b/></a>", &vocab).unwrap();
        let stale = TaxIndex::build(&other);
        let fresh = TaxIndex::build(&doc);
        let plan_for =
            |q: &str| CompiledMfa::compile(&compile(&parse_path(q, &vocab).unwrap(), &vocab));
        let blown = plan_for("//b/*/*/*/*/*/*/*/*/*/*/*");
        assert!(!jump_eligible(&blown), "past the subset cap");
        for (plan, tax) in [(plan_for("//b"), &stale), (blown, &fresh)] {
            let options = DomOptions { tax: Some(tax) };
            let run = |mode| evaluate_mfa_plan(&doc, &plan, &options, mode, &mut NoopObserver);
            let (jump, jump_stats) = run(ExecMode::Jump);
            let (scan, scan_stats) = run(ExecMode::Compiled);
            assert_eq!(jump, scan);
            assert_eq!(jump_stats.nodes_visited, scan_stats.nodes_visited);
        }
    }

    #[test]
    fn start_region_triggers_report_sources() {
        let vocab = Vocabulary::new();
        let xml = format!("<a>{}<b>rare</b><z/></a>", "<b>common</b>".repeat(30));
        let doc = Document::parse_str(&xml, &vocab).unwrap();
        let tax = TaxIndex::build(&doc);
        let plan_for =
            |q: &str| CompiledMfa::compile(&compile(&parse_path(q, &vocab).unwrap(), &vocab));
        let full = start_region_triggers(&doc, &plan_for("//z"), Some(&tax));
        assert_eq!(full.len(), 1);
        assert_eq!(full[0].kind, TriggerKind::Full);
        assert_eq!(full[0].len, 1);
        let narrowed = start_region_triggers(&doc, &plan_for("//b[. = 'rare']"), Some(&tax));
        assert_eq!(narrowed.len(), 1);
        assert_eq!(narrowed[0].kind, TriggerKind::NarrowedValue);
        assert_eq!(narrowed[0].value.as_deref(), Some("rare"));
        assert_eq!(narrowed[0].len, 1);
        assert!(start_region_triggers(&doc, &plan_for("//z"), None).is_empty());
    }
}
