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
//!   reconstructed along its ancestor chain (memoized), `text()='v'`
//!   guards compare the document text, and `HasPath` guards run a
//!   TAX-pruned witness search over the candidate's subtree. Verification
//!   work is counted in [`EvalStats::guard_probes`], not `nodes_visited`.
//! * When a trigger's post-step states are reachable **only** through a
//!   recognized value guard (`text()='v'` shapes, see
//!   [`smoqe_automata::guards`]), the trigger is **narrowed**: instead of
//!   probing every occurrence of the label, the driver probes only the
//!   (label, value) posting lists — plus, for `[b = 'v']` child-witness
//!   guards, the parents of the witness postings. Occurrences outside
//!   those lists provably behave as stutters and are never touched.
//! * Candidates are processed in ascending pre-order; entering or
//!   discarding a candidate always advances the cursor past its whole
//!   subtree (`subtree_end`). That ordering is the soundness argument: by
//!   the time a candidate is reached, every ancestor between it and the
//!   jump origin is a stutter, so the origin state applies verbatim.
//!
//! TAX pruning applies exactly as in scan mode: a candidate whose stepped
//! state has no label requirement satisfiable within the subtree's
//! descendant-label set is discarded without a visit, and a whole jump
//! region is abandoned early when its trigger set does not even intersect
//! the available labels.
//!
//! The driver applies to **plans whose top NFA has a DFA** — exact or
//! guard-stripped. Everything else (subset blow-up past the cap, missing
//! index, streaming input) evaluates in scan mode; the engine's auto mode
//! additionally weighs [`selectivity_estimate`] so unselective queries
//! keep the scan walker's better constants. By construction jump mode
//! enters a subset of the nodes scan mode enters, and produces identical
//! answers (property-tested in `tests/jump_differential.rs`).

use crate::budget::{BudgetMeter, EvalInterrupt, Interrupt, WorkBudget};
use crate::machine::VIRTUAL_NODE;
use crate::stats::EvalStats;
use smoqe_automata::compile::{CompiledMfa, CompiledNfa, DfaTable, DEAD};
use smoqe_automata::guards::{classify_value_guard, ValueGuard};
use smoqe_automata::{NfaId, Pred, PredId, StateId};
use smoqe_rxpath::NodeSet;
use smoqe_tax::{LabelIndex, TaxIndex, ValueIndex};
use smoqe_xml::{Document, Label, LabelSet, NodeId};
use std::collections::HashMap;
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

/// Outcome of [`selectivity_estimate`]: either a measured candidate
/// fraction, or the reason no number exists. Auto mode treats both
/// non-measured cases as "stay on the scan walker", but callers can now
/// report *why* (the PR 5 heuristic silently returned `None` for a
/// missing index and an estimate-free plan alike).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SelectivityEstimate {
    /// Estimated fraction of the document a jump scan would consider.
    Measured(f64),
    /// No label is required on every accepting path and no trigger list
    /// bounds the candidates: wildcard-shaped, assume unselective.
    NoRequiredLabel,
    /// No positional index describes this document — no basis for an
    /// estimate (and no way to jump).
    NoIndex,
}

impl SelectivityEstimate {
    /// The measured fraction, if one exists.
    pub fn measured(self) -> Option<f64> {
        match self {
            SelectivityEstimate::Measured(f) => Some(f),
            _ => None,
        }
    }
}

/// Estimated fraction of the document a jump scan of `plan` would have to
/// consider, from real occurrence statistics: the minimum of
///
/// * the occurrence count of the rarest label **required on every
///   accepting path** from the start state, and
/// * the total size of the candidate source lists (trigger occurrence
///   lists, or (label, value) posting lists for narrowed triggers) of the
///   root region's state,
///
/// over the node count. The second bound is what makes predicated plans
/// measurable: `//patient[pname = 'Ann']` has an unremarkable required
/// label (`patient`) but a tiny posting list for `(pname, 'Ann')`.
pub fn selectivity_estimate(
    doc: &Document,
    plan: &CompiledMfa,
    tax: Option<&TaxIndex>,
) -> SelectivityEstimate {
    let Some(li) = tax
        .and_then(TaxIndex::label_index)
        .filter(|li| li.node_count() == doc.node_count())
    else {
        return SelectivityEstimate::NoIndex;
    };
    let top = plan.mfa().top();
    let start = plan.mfa().nfa(top).start();
    let req = &plan.nfa(top).required()[start.index()];
    if req.dead {
        return SelectivityEstimate::Measured(0.0);
    }
    let n = li.node_count().max(1) as f64;
    let rarest = req.labels.iter().map(|l| li.occurrences(l).len()).min();
    let triggers = root_region_candidate_total(doc, plan, tax.expect("index present"), li);
    match (rarest, triggers) {
        (None, None) => SelectivityEstimate::NoRequiredLabel,
        (a, b) => {
            let best = a.unwrap_or(usize::MAX).min(b.unwrap_or(usize::MAX));
            SelectivityEstimate::Measured(best as f64 / n)
        }
    }
}

/// Total candidate-source size of the root region, if the root's state is
/// jumpable (`None` otherwise — child-stepping states give no bound).
fn root_region_candidate_total(
    doc: &Document,
    plan: &CompiledMfa,
    tax: &TaxIndex,
    li: &LabelIndex,
) -> Option<usize> {
    let (dfa, exact) = nav(plan)?;
    let vi = tax
        .value_index()
        .filter(|vi| vi.node_count() == doc.node_count());
    let root_label = doc.label(doc.root()).expect("root is an element");
    let q1 = dfa.step(dfa.start(), plan.col(root_label));
    if q1 == DEAD {
        return Some(0);
    }
    let info = trigger_sources(plan, dfa, exact, vi, q1);
    if !info.jumpable {
        return None;
    }
    let mut total = 0usize;
    for src in &info.sources {
        match src {
            TriggerSource::Full(label) => total += li.occurrences(*label).len(),
            TriggerSource::Narrowed {
                label,
                self_values,
                child_values,
            } => {
                let vi = vi.expect("narrowed triggers require a value index");
                for v in self_values {
                    total += vi.occurrences(*label, v).len();
                }
                for (p, v) in child_values {
                    total += vi.occurrences(*p, v).len();
                }
            }
        }
    }
    Some(total)
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
/// positional index for `doc` (callers fall back to the scan walker) —
/// budgeting never changes eligibility. The driver checks the budget
/// once per probed candidate (and per `HasPath` witness step) and
/// abandons with its partial counters when the budget interrupts.
pub fn evaluate_jump_budgeted(
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

/// One plan's admission to a shared batch jump frontier
/// (see [`crate::frontier`]).
pub(crate) enum FrontierSetup<'a> {
    /// The evaluation already finished during setup: the root step died,
    /// was pruned, the root is a leaf, or its state falls back to
    /// child-stepping (evaluated serially — it cannot share a candidate
    /// frontier).
    Done((NodeSet, EvalStats)),
    /// The root entered a jumpable state: the plan contributes its
    /// region candidates to the shared frontier.
    Region(RegionPlan<'a>),
    /// The work budget interrupted the setup itself (possible on plans
    /// that fall back to child-stepping or verify guards during setup).
    Interrupted(EvalInterrupt),
}

/// A plan whose root region joins a shared jump frontier: everything a
/// worker needs to probe this plan's candidates independently.
pub(crate) struct RegionPlan<'a> {
    doc: &'a Document,
    plan: &'a CompiledMfa,
    dfa: &'a DfaTable,
    exact: bool,
    tax: &'a TaxIndex,
    li: &'a LabelIndex,
    vi: Option<&'a ValueIndex>,
    /// The jumpable DFA state of the root region.
    pub(crate) state: u32,
    /// First pre-order id of the region (root + 1).
    pub(crate) lo: u32,
    /// Ascending, deduplicated candidate ids in the root region — the
    /// exact superset the serial `jump_scan` would consider.
    pub(crate) candidates: Vec<u32>,
    /// Root visit bookkeeping (and the root answer, if any), merged into
    /// the final result.
    setup_answers: Vec<u32>,
    setup_stats: EvalStats,
}

impl<'a> RegionPlan<'a> {
    /// A fresh driver for one frontier chunk of this plan. Drivers are
    /// thread-local (memos, budget meter and all); a plan split across
    /// chunks gets one per chunk.
    pub(crate) fn driver(&self, meter: BudgetMeter) -> Jump<'a> {
        Jump::new(
            self.doc, self.plan, self.dfa, self.exact, self.tax, self.li, self.vi,
        )
        .with_meter(meter)
    }

    /// End of the subtree rooted at `node` (exclusive) — the frontier's
    /// cursor rule: every probed candidate skips its whole subtree.
    pub(crate) fn subtree_end(&self, node: u32) -> u32 {
        self.li.subtree_end(NodeId(node))
    }

    /// Assembles the final result from per-chunk probe outcomes, in
    /// ascending chunk order (probed candidates ascend and skip disjoint
    /// subtrees, so concatenated answers stay sorted).
    pub(crate) fn assemble(&self, chunks: Vec<(Vec<u32>, EvalStats)>) -> (NodeSet, EvalStats) {
        let mut answers = self.setup_answers.clone();
        let mut stats = self.setup_stats;
        for (chunk_answers, chunk_stats) in chunks {
            answers.extend(chunk_answers);
            stats.merge(&chunk_stats);
        }
        stats.tree_passes = 1; // one logical pass, however many chunks
        stats.answers = answers.len();
        stats.immediate_answers = answers.len();
        (
            NodeSet::from_sorted(answers.into_iter().map(NodeId).collect()),
            stats,
        )
    }
}

/// Finishes a setup-time driver, preferring its interrupt (budget fired
/// during setup) over its result.
fn setup_done(driver: Jump<'_>) -> FrontierSetup<'_> {
    match driver.take_interrupt() {
        Some(interrupt) => FrontierSetup::Interrupted(interrupt),
        None => FrontierSetup::Done(driver.finish()),
    }
}

/// Admits `plan` to a shared jump frontier over `doc`: performs the root
/// step (the only part that is not frontier-shaped) and either finishes
/// the evaluation outright or returns the plan's region candidates.
/// `None` means the plan cannot jump at all (no DFA, or no matching
/// positional index) and the caller must evaluate it in scan mode.
pub(crate) fn frontier_setup<'a>(
    doc: &'a Document,
    plan: &'a CompiledMfa,
    tax: &'a TaxIndex,
    meter: BudgetMeter,
) -> Option<FrontierSetup<'a>> {
    let (dfa, exact) = nav(plan)?;
    let li = tax.label_index()?;
    if li.node_count() != doc.node_count() {
        return None;
    }
    let vi = tax
        .value_index()
        .filter(|vi| vi.node_count() == doc.node_count());
    let mut driver = Jump::new(doc, plan, dfa, exact, tax, li, vi).with_meter(meter);
    let root = doc.root();
    let label = doc.label(root).expect("root is an element");
    let state = dfa.step(dfa.start(), plan.col(label));
    // Mirror `step_into` on the root.
    if state == DEAD {
        driver.stats.subtrees_skipped_dead += 1;
        return Some(setup_done(driver));
    }
    if !driver.satisfiable(state, tax.descendant_labels(root)) {
        driver.stats.subtrees_pruned_tax += 1;
        return Some(setup_done(driver));
    }
    let verified = if exact {
        None
    } else {
        let set = driver.exact_set(root.0);
        if set.is_empty() {
            driver.stats.subtrees_skipped_dead += 1;
            return Some(setup_done(driver));
        }
        Some(set)
    };
    // Mirror `enter` on the root, without descending.
    driver.stats.nodes_visited += 1;
    driver.stats.max_depth = driver.stats.max_depth.max(li.level(root) as usize + 1);
    let root_accepts = match &verified {
        None => dfa.accept(state),
        Some(set) => set.binary_search(&driver.accept).is_ok(),
    };
    if root_accepts {
        driver.answers.push(root.0);
    }
    let lo = root.0 + 1;
    let hi = li.subtree_end(root);
    if lo >= hi {
        return Some(setup_done(driver));
    }
    let info = driver.info(state);
    if !info.jumpable {
        // Child-stepping root: no candidate lists to share; finish the
        // whole evaluation here.
        let doc = driver.doc;
        for c in doc.child_elements(root) {
            driver.step_into(c.0, state);
        }
        return Some(setup_done(driver));
    }
    if !info.trigger_set.intersects(tax.descendant_labels(root)) {
        driver.stats.subtrees_pruned_tax += 1;
        return Some(setup_done(driver));
    }
    let candidates = driver.region_candidates(lo, hi, &info);
    if let Some(interrupt) = driver.take_interrupt() {
        return Some(FrontierSetup::Interrupted(interrupt));
    }
    let Jump { answers, stats, .. } = driver;
    Some(FrontierSetup::Region(RegionPlan {
        doc,
        plan,
        dfa,
        exact,
        tax,
        li,
        vi,
        state,
        lo,
        candidates,
        setup_answers: answers,
        setup_stats: stats,
    }))
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
/// (cached per state) and the selectivity / explain entry points.
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
                Some(g) => match classify_value_guard(plan.mfa(), g) {
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

pub(crate) struct Jump<'a> {
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
    /// Guard-aware state set per node, reconstructed along ancestor
    /// chains. An empty set means the machine is dormant at the node.
    exact_memo: HashMap<u32, Rc<Vec<StateId>>>,
    /// Guard verdicts per (predicate, node).
    pred_memo: HashMap<(PredId, u32), bool>,
    answers: Vec<u32>,
    stats: EvalStats,
    /// Work-budget countdown, ticked per probed candidate and per
    /// `HasPath` witness step (unarmed by default — one branch).
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
            exact_memo: HashMap::new(),
            pred_memo: HashMap::new(),
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
    pub(crate) fn take_interrupt(&self) -> Option<EvalInterrupt> {
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

    /// Whether any accepting continuation from `state` fits in a subtree
    /// offering `available` labels — the same per-subtree TAX gate the
    /// scan walker's `preview` applies (checking the ε-closed subset
    /// members is equivalent to checking the pre-closure transition
    /// targets: requirements only grow along ε-edges).
    fn satisfiable(&self, state: u32, available: &LabelSet) -> bool {
        let req = self.compiled.required();
        self.dfa
            .members(state)
            .iter()
            .any(|&m| req[m.index()].satisfiable_within(available))
    }

    // -- guard-aware verification ------------------------------------------

    /// The exact (guard-aware) top-NFA state set at `node`, reconstructed
    /// along the ancestor chain and memoized. Empty means every run is
    /// dormant at the node — nothing at or below it can match.
    fn exact_set(&mut self, node: u32) -> Rc<Vec<StateId>> {
        if let Some(s) = self.exact_memo.get(&node) {
            return s.clone();
        }
        // Walk up to the nearest memoized ancestor (or the virtual node),
        // then fold the chain back down. Iterative: document depth may
        // exceed the stack.
        let mut chain: Vec<u32> = Vec::new();
        let mut cur = node;
        let mut set: Rc<Vec<StateId>> = loop {
            if let Some(s) = self.exact_memo.get(&cur) {
                break s.clone();
            }
            chain.push(cur);
            if cur == VIRTUAL_NODE {
                // Base case: guard-aware start closure at the virtual
                // document node (matching `Machine::begin`).
                let top = self.plan.mfa().top();
                let start = self.plan.mfa().nfa(top).start();
                let base = self.close_guard_aware(top, vec![start], VIRTUAL_NODE);
                let rc = Rc::new(base);
                self.exact_memo.insert(VIRTUAL_NODE, rc.clone());
                chain.pop();
                break rc;
            }
            cur = self
                .doc
                .parent(NodeId(cur))
                .map(|p| p.0)
                .unwrap_or(VIRTUAL_NODE);
        };
        for &n in chain.iter().rev() {
            let computed = if set.is_empty() {
                Vec::new() // dormancy is hereditary
            } else {
                let label = self.doc.label(NodeId(n)).expect("elements only");
                let col = self.plan.col(label);
                let mut seed: Vec<StateId> = set
                    .iter()
                    .flat_map(|&s| self.compiled.row(s, col).iter().copied())
                    .collect();
                seed.sort_unstable();
                seed.dedup();
                if seed.is_empty() {
                    Vec::new()
                } else {
                    let top = self.plan.mfa().top();
                    self.close_guard_aware(top, seed, n)
                }
            };
            let rc = Rc::new(computed);
            self.exact_memo.insert(n, rc.clone());
            set = rc;
        }
        set
    }

    /// Guard-aware ε-closure of `seed` in `nfa_id` at `node`: guarded
    /// edges are crossed iff their predicate holds at the node. Returns a
    /// sorted state set.
    fn close_guard_aware(&mut self, nfa_id: NfaId, seed: Vec<StateId>, node: u32) -> Vec<StateId> {
        let plan: &'a CompiledMfa = self.plan;
        let nfa = plan.mfa().nfa(nfa_id);
        let mut seen = vec![false; nfa.state_count()];
        let mut out = Vec::new();
        let mut work = seed;
        for s in &work {
            seen[s.index()] = true;
        }
        while let Some(s) = work.pop() {
            out.push(s);
            for e in nfa.eps_edges(s) {
                if seen[e.target.index()] {
                    continue;
                }
                let cross = match e.guard {
                    None => true,
                    Some(g) => self.holds(g, node),
                };
                if cross {
                    seen[e.target.index()] = true;
                    work.push(e.target);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Whether predicate `pred` holds at `node` (memoized). Matches the
    /// machine's semantics exactly: `text()='v'` compares the node's
    /// direct text (the virtual node has none), `HasPath` searches the
    /// node's subtree for a witness.
    fn holds(&mut self, pred: PredId, node: u32) -> bool {
        if let Some(&v) = self.pred_memo.get(&(pred, node)) {
            return v;
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
            Pred::HasPath(sub) => self.has_path(*sub, node),
            Pred::Not(p) => !self.holds(*p, node),
            Pred::And(ps) => ps.iter().all(|&p| self.holds(p, node)),
            Pred::Or(ps) => ps.iter().any(|&p| self.holds(p, node)),
        };
        self.pred_memo.insert((pred, node), v);
        v
    }

    /// Whether a downward path from `origin` matches sub-NFA `sub`:
    /// TAX-pruned subset simulation over the subtree, accepting at the
    /// origin itself for nullable paths (the machine's accept-at-spawn).
    fn has_path(&mut self, sub: NfaId, origin: u32) -> bool {
        let plan: &'a CompiledMfa = self.plan;
        let nfa = plan.mfa().nfa(sub);
        let compiled_sub = plan.nfa(sub);
        let accept = nfa.accept();
        let start_set = self.close_guard_aware(sub, vec![nfa.start()], origin);
        if start_set.binary_search(&accept).is_ok() {
            return true;
        }
        let mut stack: Vec<(u32, Vec<StateId>)> = vec![(origin, start_set)];
        while let Some((n, set)) = stack.pop() {
            // Witness walks can span whole hidden subtrees; tick so a
            // deadline cuts them off like any other traversal (the
            // caller's verdict is discarded along with the evaluation).
            if let Some(kind) = self.meter.tick() {
                self.interrupted = Some(kind);
                return false;
            }
            let children: Vec<NodeId> = if n == VIRTUAL_NODE {
                vec![self.doc.root()]
            } else {
                self.doc.child_elements(NodeId(n)).collect()
            };
            for c in children {
                let label = self.doc.label(c).expect("child_elements yields elements");
                let col = plan.col(label);
                let mut seed: Vec<StateId> = set
                    .iter()
                    .flat_map(|&s| compiled_sub.row(s, col).iter().copied())
                    .collect();
                if seed.is_empty() {
                    continue; // the run is dormant below this child
                }
                seed.sort_unstable();
                seed.dedup();
                let closed = self.close_guard_aware(sub, seed, c.0);
                if closed.binary_search(&accept).is_ok() {
                    return true;
                }
                // Descend only if an accepting continuation fits below.
                let req = compiled_sub.required();
                let avail = self.tax.descendant_labels(c);
                if closed
                    .iter()
                    .any(|&s| req[s.index()].satisfiable_within(avail))
                {
                    stack.push((c.0, closed));
                }
            }
        }
        false
    }

    // -- navigation --------------------------------------------------------

    /// Steps `node` from its parent's `state` and, if the automaton
    /// advances and the TAX gate passes, enters it. On guarded plans the
    /// exact state set is reconstructed first: a guard-dead node is
    /// skipped wholesale, exactly like a DEAD step (and like the scan
    /// walker, which never enters it either).
    pub(crate) fn step_into(&mut self, node: u32, state: u32) {
        if self.interrupted.is_some() {
            return;
        }
        if let Some(kind) = self.meter.tick() {
            self.interrupted = Some(kind);
            return;
        }
        let id = NodeId(node);
        let label = self.doc.label(id).expect("candidates are elements");
        let next = self.dfa.step(state, self.plan.col(label));
        if next == DEAD {
            self.stats.subtrees_skipped_dead += 1;
            return;
        }
        if !self.satisfiable(next, self.tax.descendant_labels(id)) {
            self.stats.subtrees_pruned_tax += 1;
            return;
        }
        if self.exact {
            self.enter(node, next, None);
        } else {
            let set = self.exact_set(node);
            if set.is_empty() {
                self.stats.subtrees_skipped_dead += 1;
                return;
            }
            self.enter(node, next, Some(set));
        }
    }

    /// Visits `node` (stepped to live navigation state `state`), records
    /// it if accepting — per the DFA when exact, per the verified state
    /// set otherwise — and processes its subtree.
    fn enter(&mut self, node: u32, state: u32, verified: Option<Rc<Vec<StateId>>>) {
        let id = NodeId(node);
        self.stats.nodes_visited += 1;
        // The scan walker counts the virtual document frame in its depth.
        self.stats.max_depth = self.stats.max_depth.max(self.li.level(id) as usize + 1);
        let accepting = match &verified {
            None => self.dfa.accept(state),
            Some(set) => set.binary_search(&self.accept).is_ok(),
        };
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
            // fan-out, not by the subtree). `doc` outlives the driver, so
            // iterating it does not hold a borrow of `self`.
            let doc = self.doc;
            for c in doc.child_elements(id) {
                self.step_into(c.0, state);
            }
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
        let evidence = self.evidence_candidates(lo, hi, info);
        // Per-source sorted lists (a handful — the labels and values the
        // plan mentions) with monotone cursors: the region cursor only
        // ever advances, so each list index advances amortized O(1)
        // instead of restarting a binary search per candidate.
        let li = self.li;
        let vi = self.vi;
        let mut lists: Vec<&[u32]> = Vec::with_capacity(info.sources.len() + 1);
        for src in &info.sources {
            match src {
                TriggerSource::Full(label) => lists.push(li.occurrences(*label)),
                TriggerSource::Narrowed {
                    label, self_values, ..
                } => {
                    let vi = vi.expect("narrowed triggers require a value index");
                    for v in self_values {
                        lists.push(vi.occurrences(*label, v));
                    }
                }
            }
        }
        lists.push(&evidence);
        let mut idx: Vec<usize> = lists
            .iter()
            .map(|list| list.partition_point(|&x| x < lo))
            .collect();
        let mut cursor = lo;
        while cursor < hi {
            // Next candidate at or after the cursor: min over the lists.
            let mut next = u32::MAX;
            for (list, i) in lists.iter().zip(idx.iter_mut()) {
                while *i < list.len() && list[*i] < cursor {
                    *i += 1;
                }
                if *i < list.len() {
                    next = next.min(list[*i]);
                }
            }
            if next >= hi {
                return; // no candidate left in the region
            }
            // All of `next`'s ancestors inside the region stutter: any
            // probed ancestor would have been the earlier candidate and
            // advanced the cursor past this whole subtree, and narrowed-
            // out occurrences provably behave as stutters.
            self.step_into(next, state);
            if self.interrupted.is_some() {
                return;
            }
            cursor = self.li.subtree_end(NodeId(next));
        }
    }

    /// Sorted, deduplicated candidates in `[lo, hi)` drawn from child-
    /// witness postings: parents (with the trigger label) of witness
    /// occurrences in the region.
    fn evidence_candidates(&self, lo: u32, hi: u32, info: &StateInfo) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
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
                let list = vi.occurrences(*p, v);
                let a = list.partition_point(|&x| x < lo);
                let b = list.partition_point(|&x| x < hi);
                for &e in &list[a..b] {
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
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All candidates of one jumpable region, materialized: full trigger
    /// occurrences, narrowed self postings, and child-witness evidence
    /// parents, restricted to `[lo, hi)`, ascending and deduplicated.
    /// `jump_scan`'s incremental min-probe considers exactly this set —
    /// the frontier materializes it to merge candidates across plans.
    fn region_candidates(&self, lo: u32, hi: u32, info: &StateInfo) -> Vec<u32> {
        let mut out = self.evidence_candidates(lo, hi, info);
        let push_range = |out: &mut Vec<u32>, list: &[u32]| {
            let a = list.partition_point(|&x| x < lo);
            let b = list.partition_point(|&x| x < hi);
            out.extend_from_slice(&list[a..b]);
        };
        for src in &info.sources {
            match src {
                TriggerSource::Full(label) => {
                    push_range(&mut out, self.li.occurrences(*label));
                }
                TriggerSource::Narrowed {
                    label, self_values, ..
                } => {
                    let vi = self.vi.expect("narrowed triggers require a value index");
                    for v in self_values {
                        push_range(&mut out, vi.occurrences(*label, v));
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
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

    /// Consumes the driver into raw per-chunk outputs (for
    /// [`RegionPlan::assemble`], which fills the counters in).
    pub(crate) fn into_parts(self) -> (Vec<u32>, EvalStats) {
        (self.answers, self.stats)
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

    fn evaluate_jump(
        doc: &Document,
        plan: &CompiledMfa,
        tax: &TaxIndex,
    ) -> Option<(NodeSet, EvalStats)> {
        evaluate_jump_budgeted(doc, plan, tax, &WorkBudget::unlimited())
            .map(|r| r.expect("an unlimited budget never interrupts"))
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
        let (answers, _) = evaluate_jump(&doc, &plan, &tax).unwrap();
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
        let (answers, stats) = evaluate_jump(&doc, &plan, &tax).unwrap();
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
        let (answers, stats) = evaluate_jump(&doc, &plan, &tax).unwrap();
        assert_eq!(answers.len(), 1);
        assert!(
            stats.nodes_visited <= 3,
            "evidence probe visited {} nodes",
            stats.nodes_visited
        );
        check(&xml, "//p[n = 'Ann']");
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
    fn selectivity_measures_posting_lists_for_predicated_plans() {
        let vocab = Vocabulary::new();
        let xml = format!("<a>{}<b>rare</b><z/></a>", "<b>common</b>".repeat(30));
        let doc = Document::parse_str(&xml, &vocab).unwrap();
        let tax = TaxIndex::build(&doc);
        let plan_for =
            |q: &str| CompiledMfa::compile(&compile(&parse_path(q, &vocab).unwrap(), &vocab));
        let est = |q: &str| selectivity_estimate(&doc, &plan_for(q), Some(&tax));
        let selective = est("//z").measured().unwrap();
        let unselective = est("//b").measured().unwrap();
        assert!(selective < unselective);
        assert!(selective < 0.05, "one z in {} nodes", doc.node_count());
        // The narrowed predicated plan measures its posting list, far
        // below the label-count bound.
        let predicated = est("//b[. = 'rare']").measured().unwrap();
        assert!(
            predicated < unselective,
            "predicated {predicated} >= label bound {unselective}"
        );
        assert!(predicated < 0.05);
        // No required label and no trigger bound -> explicit reason.
        assert_eq!(est("//*"), SelectivityEstimate::NoRequiredLabel);
        // Missing index -> explicit reason, not a silent default.
        assert_eq!(
            selectivity_estimate(&doc, &plan_for("//z"), None),
            SelectivityEstimate::NoIndex
        );
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
