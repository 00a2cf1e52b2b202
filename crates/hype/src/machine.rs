//! The shared HyPE evaluation core.
//!
//! HyPE (Hybrid Pass Evaluation, paper §3) performs **one** top-down
//! depth-first traversal during which it simultaneously (a) advances the
//! selection NFA, (b) instantiates and resolves predicates (the AFA layer),
//! and (c) collects potential answers into `Cans`; a single post-pass over
//! `Cans` then selects the answer. The same core drives both the DOM
//! walker and the StAX stream evaluator — the only differences are how
//! `text() = 'c'` tests are resolved (eagerly via the tree vs. by
//! matching text as it arrives) and whether subtrees can be skipped
//! (random access vs. sequential scan).
//!
//! ## Execution
//!
//! The machine executes a [`CompiledMfa`] — the dense-table form of the
//! plan (see `smoqe_automata::compile`): guard-free NFAs run as
//! subset-construction **DFAs** — one `u32` per open tree level, one
//! dense-row lookup per event. Guarded NFAs step through precomputed CSR
//! rows instead of scanning transition lists, the per-node predicate
//! spawn cache is an epoch-marked array (no hashing), and the guard-aware
//! closure uses a dense epoch-marked builder. Nothing in the per-event
//! path touches a `HashMap` or allocates beyond pooled scratch, guarded
//! plans included:
//!
//! * validity formulas live in one flat arena (nodes plus a term list);
//! * a predicate run's slot and stacks are recycled once the node that
//!   spawned it closes, and state sets and frames come from pools;
//! * a streamed `text()='c'` instance is a byte offset into the plan's
//!   own literal, advanced as text arrives;
//! * `and`/`or` instances and `HasPath` accept lists are ranges and
//!   chains in flat vectors.
//!
//! What still grows with a pass, by doubling, is what HyPE must keep until
//! the final Cans pass: one entry per predicate instance (its kind and
//! its truth), the formulas and accept links that refer to instances,
//! `Cans` and the answers. The stream test
//! `crates/bench/tests/stream_allocations.rs` holds a lane to under one
//! allocation per 50 visited nodes.
//!
//! [`ExecMode`] names the *driver* strategy on top of this one machine —
//! walk the tree ([`ExecMode::Compiled`]) or hop between candidate
//! subtrees ([`ExecMode::Jump`], see [`crate::jump`]); the machine itself
//! has no modes. The reference every differential test compares against
//! is `smoqe_rxpath::evaluate`.
//!
//! ## Runs, tags and instances
//!
//! * A **run** is a live simulation of one NFA: the selection NFA (the
//!   "top" run, alive for the whole traversal) or a `HasPath` predicate
//!   automaton rooted at the node that instantiated it. A run maintains a
//!   stack of *active sets*, one per open tree level: pairs of
//!   `(state, validity tag)` — or, for DFA-kind NFAs, a single dense state
//!   id per level.
//! * A **validity tag** ([`Tag`]) says under which predicate instances the
//!   state assignment is valid. Guard-free regions keep the constant
//!   `True` and allocate nothing.
//! * A **predicate instance** is a predicate pinned to the node where a
//!   guarded ε-edge was traversed. `HasPath` instances own a run;
//!   `text()='c'` instances either resolve eagerly (DOM) or match the
//!   arriving text against the literal (StAX); `not/and/or` combine
//!   sub-instances. Every instance resolves no later than when the
//!   traversal leaves its origin node, so the final Cans pass sees only
//!   resolved instances.

use crate::cans::{Cans, FId, FormulaArena, InstId, Tag};
use crate::observer::EvalObserver;
use crate::stats::EvalStats;
use smoqe_automata::compile::{CompiledMfa, DEAD};
use smoqe_automata::{Mfa, NfaId, Pred, PredId, StateId};
use smoqe_xml::{Label, LabelSet};
use std::borrow::Cow;

/// Sentinel node id for the virtual document node above the root.
pub const VIRTUAL_NODE: u32 = u32::MAX;

/// How a driver traverses the document with its plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// The scan walker: every reachable node is stepped through the
    /// dense tables (DFA fast path, CSR rows, epoch arenas).
    #[default]
    Compiled,
    /// Jump-scan evaluation (DOM mode only): plans with a DFA, exact or
    /// guard-stripped, skip between candidate subtrees through the
    /// positional label index instead of walking the tree (see
    /// [`crate::jump`]). Where a plan cannot jump — streaming, no DFA, no
    /// index — it falls back to [`ExecMode::Compiled`]; answers are
    /// identical either way.
    Jump,
}

/// Eager `text()='c'` resolution callback (DOM mode). Returning
/// [`Cow::Borrowed`] for the common single-text-child case keeps the
/// per-check path allocation-free.
pub type TextResolver<'a> = dyn Fn(u32) -> Cow<'a, str> + 'a;

/// How far a child's label lets the automata advance (pre-enter check used
/// for subtree skipping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preview {
    /// No live run has a transition matching the label: the subtree is
    /// invisible to the query.
    NoMatch,
    /// Some run advances, but the TAX index proves no accepting
    /// continuation fits in the subtree.
    Pruned,
    /// The subtree must be visited.
    Progress,
}

#[derive(Clone, Copy, Debug)]
enum InstRef {
    Resolved(bool),
    Pending(InstId),
}

/// End of a `HasPath` instance's accept chain.
const NO_ACCEPT: u32 = u32::MAX;

#[derive(Debug)]
enum InstKind<'a> {
    TextEq {
        /// The plan's own literal.
        literal: &'a [u8],
        /// Bytes of `literal` the text seen so far matched; `None` once
        /// the text diverged from it or ran past its end.
        matched: Option<usize>,
        /// Frame depth of the origin element: only its *direct* text
        /// counts (`text() = 'c'` compares direct text content).
        depth: usize,
    },
    HasPath {
        /// Head of the chain in [`Machine::accepts`] of validity tags the
        /// run accepted under ([`NO_ACCEPT`] when empty).
        accepts: u32,
    },
    Not {
        sub: InstId,
    },
    /// Conjunction (`all`) or disjunction of the `len` pending
    /// sub-instances at `start` in [`Machine::inst_subs`].
    Junction {
        all: bool,
        start: u32,
        len: u32,
    },
}

type RunId = usize;

/// `(state, validity)` pairs; states unique, sorted by id (lookups scan,
/// sets are small).
type ActiveSet = Vec<(StateId, Tag)>;

/// A run slot. Slots of predicate runs are recycled once the node that
/// spawned them closes, stacks and all, so a pass allocates run stacks
/// only up to the number of runs alive at once.
#[derive(Debug)]
struct Run {
    nfa: NfaId,
    /// Owning instance; `None` for the top (selection) run.
    inst: Option<InstId>,
    dead: bool,
    /// One dense state per open level when the NFA runs as a DFA.
    dfa: Vec<u32>,
    /// One tagged state set per open level otherwise.
    sets: Vec<ActiveSet>,
}

struct Frame {
    node: u32,
    /// Runs whose stacks we pushed at this level (popped symmetric).
    stepped: Vec<RunId>,
    /// Runs spawned at this node (freed when it closes).
    spawned_runs: Vec<RunId>,
    /// Instances spawned at this node (resolved when it closes).
    opened: Vec<InstId>,
    /// Runs children should step.
    live: Vec<RunId>,
}

/// Epoch-marked dense builder for the guard-aware closure.
/// One builder per closure invocation; recursive `HasPath` spawns take a
/// fresh builder from the machine's pool, so arrays are never shared
/// across nesting levels.
#[derive(Default)]
struct ClosureBuilder {
    /// Epoch per state; entries from older epochs are logically absent.
    mark: Vec<u32>,
    epoch: u32,
    known_true: Vec<bool>,
    /// Sorted, deduplicated formula parts per state.
    parts: Vec<Vec<FId>>,
    /// States touched this epoch (each exactly once).
    touched: Vec<StateId>,
    work: Vec<StateId>,
}

impl ClosureBuilder {
    fn begin(&mut self, states: usize) {
        if self.mark.len() < states {
            self.mark.resize(states, 0);
            self.known_true.resize(states, false);
            self.parts.resize_with(states, Vec::new);
        }
        self.epoch += 1;
        self.touched.clear();
        self.work.clear();
    }

    /// Merges `tag` into state `s`, returning whether anything changed.
    fn merge(&mut self, s: StateId, tag: Tag) -> bool {
        let i = s.index();
        if self.mark[i] != self.epoch {
            self.mark[i] = self.epoch;
            self.known_true[i] = false;
            self.parts[i].clear();
            self.touched.push(s);
        }
        match tag {
            Tag::True => {
                let changed = !self.known_true[i];
                self.known_true[i] = true;
                changed
            }
            Tag::Formula(f) => {
                if self.known_true[i] {
                    false
                } else {
                    match self.parts[i].binary_search(&f) {
                        Ok(_) => false,
                        Err(pos) => {
                            self.parts[i].insert(pos, f);
                            true
                        }
                    }
                }
            }
        }
    }
}

/// The evaluation machine. Drivers feed `begin`/`enter`/`text`/`leave`/
/// `end` in document order.
pub struct Machine<'a> {
    plan: &'a CompiledMfa,
    mfa: &'a Mfa,
    /// Epoch-marked scratch for closure merging (index = state id).
    scratch: Vec<u32>,
    scratch_epoch: u32,
    /// Pool of dense closure builders (guarded slow path).
    builder_pool: Vec<ClosureBuilder>,
    /// Recycled frames and active sets (per-node allocation avoidance).
    frame_pool: Vec<Frame>,
    set_pool: Vec<ActiveSet>,
    seed_buf: Vec<(StateId, Tag)>,
    runs: Vec<Run>,
    /// Run slots whose spawn node has closed, ready for reuse.
    free_runs: Vec<RunId>,
    insts: Vec<InstKind<'a>>,
    truths: Vec<Option<bool>>,
    /// `(tag, next)` links of every `HasPath` instance's accept chain.
    accepts: Vec<(Tag, u32)>,
    /// Sub-instance lists of every [`InstKind::Junction`], back to back.
    inst_subs: Vec<InstId>,
    /// Scratch: pending parts of the junctions being spawned (nested
    /// spawns stack their parts above their parent's).
    junction_parts: Vec<InstId>,
    /// Scratch for [`Machine::resolve_opened`]'s fixpoint.
    pending: Vec<InstId>,
    unresolved: Vec<InstId>,
    arena: FormulaArena,
    cans: Cans,
    immediate: Vec<u32>,
    frames: Vec<Frame>,
    open_texteq: Vec<InstId>,
    /// Per-node spawn cache: epoch-marked arrays indexed by predicate id
    /// — one instance per (pred, node), no hashing.
    spawn_mark: Vec<u32>,
    spawn_val: Vec<InstRef>,
    spawn_epoch: u32,
    /// Eager `text()='c'` resolution (DOM mode): node id -> string value.
    text_resolver: Option<&'a TextResolver<'a>>,
    /// Candidate discovered by the most recent `enter` (for stream
    /// recorders).
    last_candidate: Option<(u32, bool)>,
    /// Whether the observer wants events (cached at `begin`; skipping the
    /// per-event virtual dispatch for `NoopObserver` is measurable).
    observe: bool,
    /// The whole-plan DFA, present when the plan has **no predicates** and
    /// the top NFA compiled to a dense table: exactly one run, every tag
    /// `True`, nothing ever spawns. Such plans bypass the frame/run
    /// machinery entirely — one `u32` per level and one table read per
    /// event ([`Machine::enter_simple`]).
    simple_dfa: Option<&'a smoqe_automata::compile::DfaTable>,
    /// `simple_dfa` engaged for this traversal (disabled when an observer
    /// wants the full event stream, which the lean path does not produce).
    simple_active: bool,
    /// Per-level DFA states of the lean path ([`DEAD`] = dormant level).
    simple_stack: Vec<u32>,
    stats: EvalStats,
}

impl<'a> Machine<'a> {
    /// Creates a machine for `plan`. `text_resolver` enables eager
    /// `text()='c'` resolution (DOM mode); without it, `text` events are
    /// matched against the literal as they arrive (StAX mode).
    pub fn new(plan: &'a CompiledMfa, text_resolver: Option<&'a TextResolver<'a>>) -> Self {
        let pred_count = plan.mfa().pred_count();
        let simple_dfa = if pred_count == 0 {
            plan.nfa(plan.mfa().top()).dfa()
        } else {
            None
        };
        Machine {
            plan,
            mfa: plan.mfa(),
            simple_dfa,
            simple_active: false,
            simple_stack: Vec::new(),
            scratch: vec![0; plan.max_states()],
            scratch_epoch: 0,
            builder_pool: Vec::new(),
            frame_pool: Vec::new(),
            set_pool: Vec::new(),
            seed_buf: Vec::new(),
            runs: Vec::new(),
            free_runs: Vec::new(),
            insts: Vec::new(),
            truths: Vec::new(),
            accepts: Vec::new(),
            inst_subs: Vec::new(),
            junction_parts: Vec::new(),
            pending: Vec::new(),
            unresolved: Vec::new(),
            arena: FormulaArena::new(),
            cans: Cans::new(),
            immediate: Vec::new(),
            frames: Vec::new(),
            open_texteq: Vec::new(),
            spawn_mark: vec![0; pred_count],
            spawn_val: vec![InstRef::Resolved(false); pred_count],
            spawn_epoch: 0,
            text_resolver,
            last_candidate: None,
            observe: true,
            stats: EvalStats {
                tree_passes: 1,
                ..Default::default()
            },
        }
    }

    /// Whether any `text()='c'` instance is still awaiting text (stream
    /// drivers must keep feeding text while this holds).
    pub fn has_open_texteq(&self) -> bool {
        !self.open_texteq.is_empty()
    }

    /// Candidate discovered by the most recent `enter`, if any.
    pub fn take_last_candidate(&mut self) -> Option<(u32, bool)> {
        self.last_candidate.take()
    }

    /// Mutable access to the statistics (drivers add prune counters).
    pub fn stats_mut(&mut self) -> &mut EvalStats {
        &mut self.stats
    }

    /// Starts a fresh per-node spawn-cache window.
    fn reset_spawn_cache(&mut self) {
        self.spawn_epoch = self.spawn_epoch.wrapping_add(1);
    }

    fn spawn_lookup(&self, pred: PredId) -> Option<InstRef> {
        if self.spawn_mark[pred.index()] == self.spawn_epoch && self.spawn_epoch != 0 {
            Some(self.spawn_val[pred.index()])
        } else {
            None
        }
    }

    fn spawn_store(&mut self, pred: PredId, r: InstRef) {
        self.spawn_mark[pred.index()] = self.spawn_epoch;
        self.spawn_val[pred.index()] = r;
    }

    fn take_frame(&mut self, node: u32) -> Frame {
        match self.frame_pool.pop() {
            Some(mut f) => {
                f.node = node;
                f
            }
            None => Frame {
                node,
                stepped: Vec::new(),
                spawned_runs: Vec::new(),
                opened: Vec::new(),
                live: Vec::new(),
            },
        }
    }

    fn recycle_frame(&mut self, mut frame: Frame) {
        frame.stepped.clear();
        frame.spawned_runs.clear();
        frame.opened.clear();
        frame.live.clear();
        self.frame_pool.push(frame);
    }

    fn take_set(&mut self) -> ActiveSet {
        self.set_pool.pop().unwrap_or_default()
    }

    /// A run slot for `nfa`, recycled when one is free. Its stacks are
    /// empty.
    fn new_run(&mut self, nfa: NfaId, inst: Option<InstId>) -> RunId {
        match self.free_runs.pop() {
            Some(r) => {
                let run = &mut self.runs[r];
                run.nfa = nfa;
                run.inst = inst;
                run.dead = false;
                r
            }
            None => {
                self.runs.push(Run {
                    nfa,
                    inst,
                    dead: false,
                    dfa: Vec::new(),
                    sets: Vec::new(),
                });
                self.runs.len() - 1
            }
        }
    }

    /// Kills run `r` and returns its slot (and its sets) for reuse. Only
    /// called when the run's spawn node closes: every frame that could
    /// still name it has closed before.
    fn free_run(&mut self, r: RunId) {
        let run = &mut self.runs[r];
        run.dead = true;
        run.dfa.clear();
        for mut set in run.sets.drain(..) {
            set.clear();
            self.set_pool.push(set);
        }
        self.free_runs.push(r);
    }

    /// Extends the top frame's live list with the runs spawned at its
    /// node that are still alive, and reports whether anything is live.
    fn finish_frame(&mut self) -> bool {
        let runs = &self.runs;
        let frame = self.frames.last_mut().expect("a frame is open");
        frame.live.extend(
            frame
                .spawned_runs
                .iter()
                .copied()
                .filter(|&r| !runs[r].dead),
        );
        !frame.live.is_empty()
    }

    /// Starts the traversal: pushes the virtual document frame and seeds
    /// the selection run.
    pub fn begin(&mut self, observer: &mut dyn EvalObserver) {
        assert!(
            self.frames.is_empty() && self.simple_stack.is_empty(),
            "begin called twice"
        );
        self.observe = !observer.is_noop();
        // Predicate-free DFA plans take the lean path unless an observer
        // wants the full event stream.
        if !self.observe {
            if let Some(dfa) = self.simple_dfa {
                self.simple_active = true;
                // Accepts at the virtual node are dropped, as below.
                self.simple_stack.push(dfa.start());
                return;
            }
        }
        let frame = self.take_frame(VIRTUAL_NODE);
        self.frames.push(frame);
        let top = self.mfa.top();
        self.reset_spawn_cache();
        let run = self.new_run(top, None);
        self.frames
            .last_mut()
            .expect("virtual frame")
            .live
            .push(run);
        // An accept at the virtual node would select the document node,
        // which is not an element answer — dropped, matching the
        // reference evaluator.
        if let Some(dfa) = self.plan.nfa(top).dfa() {
            self.runs[run].dfa.push(dfa.start());
            return;
        }
        let start = self.mfa.nfa(top).start();
        let set = self.closure(top, &[(start, Tag::True)], VIRTUAL_NODE, observer);
        self.runs[run].sets.push(set);
        self.finish_frame();
    }

    /// Pre-enter check: can any live run make progress in a subtree whose
    /// root has `label` and whose descendants offer `available` labels?
    /// Pass `None` for `available` when no index is present (pure
    /// automaton check).
    pub fn preview(&self, label: Label, available: Option<&LabelSet>) -> Preview {
        if self.simple_active {
            let dfa = self.simple_dfa.expect("simple mode has a dfa");
            let cur = *self.simple_stack.last().expect("preview outside traversal");
            if cur == DEAD {
                return Preview::NoMatch;
            }
            let col = self.plan.col(label);
            if dfa.step(cur, col) == DEAD {
                return Preview::NoMatch;
            }
            return match available {
                None => Preview::Progress,
                Some(avail) => {
                    let compiled = self.plan.nfa(self.mfa.top());
                    let req = compiled.required();
                    let satisfiable = dfa.members(cur).iter().any(|&s| {
                        compiled
                            .row(s, col)
                            .iter()
                            .any(|&t| req[t.index()].satisfiable_within(avail))
                    });
                    if satisfiable {
                        Preview::Progress
                    } else {
                        Preview::Pruned
                    }
                }
            };
        }
        let frame = self.frames.last().expect("preview outside traversal");
        let plan = self.plan;
        let col = plan.col(label);
        let mut any_match = false;
        for &r in &frame.live {
            let run = &self.runs[r];
            if run.dead {
                continue;
            }
            let compiled = plan.nfa(run.nfa);
            let req = compiled.required();
            match compiled.dfa() {
                Some(dfa) => {
                    let cur = *run.dfa.last().expect("live dfa run has a state");
                    let next = dfa.step(cur, col);
                    if next == DEAD {
                        continue;
                    }
                    any_match = true;
                    match available {
                        None => return Preview::Progress,
                        Some(avail) => {
                            // Same rule as the tagged-set arm below:
                            // check the *pre-closure* transition targets
                            // of the subset members.
                            for &s in dfa.members(cur) {
                                for &t in compiled.row(s, col) {
                                    if req[t.index()].satisfiable_within(avail) {
                                        return Preview::Progress;
                                    }
                                }
                            }
                        }
                    }
                }
                None => {
                    let Some(top) = run.sets.last() else {
                        continue;
                    };
                    for &(s, _) in top {
                        for &t in compiled.row(s, col) {
                            any_match = true;
                            match available {
                                None => return Preview::Progress,
                                Some(avail) => {
                                    if req[t.index()].satisfiable_within(avail) {
                                        return Preview::Progress;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if any_match {
            Preview::Pruned
        } else {
            Preview::NoMatch
        }
    }

    /// Enters an element node. Returns whether any run is still live (if
    /// not, the subtree can be skipped by the driver — nothing below can
    /// match, and no predicate instance is waiting for its text unless
    /// [`Machine::has_open_texteq`] holds).
    pub fn enter(&mut self, label: Label, node: u32, observer: &mut dyn EvalObserver) -> bool {
        if self.simple_active {
            return self.enter_simple(label, node);
        }
        let depth = self.frames.len();
        self.stats.nodes_visited += 1;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        self.last_candidate = None;
        self.reset_spawn_cache();
        if self.observe {
            observer.enter_node(node, label, depth);
        }
        let plan = self.plan;
        let col = plan.col(label);
        // Move the parent's live list out to iterate it without cloning;
        // restored before returning.
        let parent_live =
            std::mem::take(&mut self.frames.last_mut().expect("enter before begin").live);
        let frame = self.take_frame(node);
        self.frames.push(frame);
        for &r in &parent_live {
            if self.runs[r].dead {
                continue;
            }
            let nfa_id = self.runs[r].nfa;
            let compiled = plan.nfa(nfa_id);
            if let Some(dfa) = compiled.dfa() {
                // Dense fast path: one table read steps the whole
                // (ε-closed) state set.
                let cur = *self.runs[r].dfa.last().expect("live dfa run has a state");
                let next = dfa.step(cur, col);
                if next == DEAD {
                    continue; // dormant below this node
                }
                if dfa.accept(next) {
                    self.accept_true(r, node, observer);
                }
                self.runs[r].dfa.push(next);
            } else {
                // Step on the label through the precomputed rows.
                let top = self.runs[r].sets.last().expect("live run has a set");
                let mut seed = std::mem::take(&mut self.seed_buf);
                seed.clear();
                for &(s, tag) in top {
                    for &t in compiled.row(s, col) {
                        seed.push((t, tag));
                    }
                }
                if seed.is_empty() {
                    self.seed_buf = seed;
                    continue; // dormant below this node
                }
                let set = self.closure(nfa_id, &seed, node, observer);
                self.seed_buf = seed;
                self.process_accept(r, &set, node, observer);
                self.runs[r].sets.push(set);
            }
            let frame = self.frames.last_mut().expect("frame just pushed");
            frame.stepped.push(r);
            if !self.runs[r].dead {
                frame.live.push(r);
            }
        }
        // Restore the parent's live list.
        let depth_frames = self.frames.len();
        self.frames[depth_frames - 2].live = parent_live;
        self.finish_frame()
    }

    /// The lean `enter`: one table read, no frames, no run lists. Only
    /// reachable for predicate-free DFA plans with a no-op observer, where
    /// every per-node structure the general path maintains is provably
    /// empty.
    #[inline]
    fn enter_simple(&mut self, label: Label, node: u32) -> bool {
        let depth = self.simple_stack.len();
        self.stats.nodes_visited += 1;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        self.last_candidate = None;
        let dfa = self.simple_dfa.expect("simple mode has a dfa");
        let cur = *self.simple_stack.last().expect("enter after begin");
        let next = if cur == DEAD {
            DEAD
        } else {
            dfa.step(cur, self.plan.col(label))
        };
        self.simple_stack.push(next);
        if next == DEAD {
            return false; // dormant below this node
        }
        if dfa.accept(next) {
            self.immediate.push(node);
            self.stats.immediate_answers += 1;
            self.last_candidate = Some((node, true));
        }
        true
    }

    /// Records an unconditional accept for run `r` at `node` (DFA runs
    /// carry no tags: every accept is `Tag::True`).
    fn accept_true(&mut self, r: RunId, node: u32, observer: &mut dyn EvalObserver) {
        match self.runs[r].inst {
            None => {
                if node == VIRTUAL_NODE {
                    return;
                }
                self.immediate.push(node);
                self.stats.immediate_answers += 1;
                self.last_candidate = Some((node, true));
                if self.observe {
                    observer.candidate(node, true);
                }
            }
            Some(inst) => {
                if self.truths[inst].is_some() {
                    return; // already resolved (true)
                }
                self.resolve_instance(inst, true, observer);
                self.runs[r].dead = true;
            }
        }
    }

    /// Records an accept (if present in `set`) for run `r` at `node`.
    fn process_accept(
        &mut self,
        r: RunId,
        set: &ActiveSet,
        node: u32,
        observer: &mut dyn EvalObserver,
    ) {
        let accept = self.mfa.nfa(self.runs[r].nfa).accept();
        let Some(&(_, tag)) = set.iter().find(|(s, _)| *s == accept) else {
            return;
        };
        match self.runs[r].inst {
            None => {
                // Top run: candidate answer.
                if node == VIRTUAL_NODE {
                    return;
                }
                match tag {
                    Tag::True => {
                        self.immediate.push(node);
                        self.stats.immediate_answers += 1;
                        self.last_candidate = Some((node, true));
                        observer.candidate(node, true);
                    }
                    Tag::Formula(_) => {
                        self.cans.push(node, tag);
                        self.last_candidate = Some((node, false));
                        observer.candidate(node, false);
                    }
                }
            }
            Some(inst) => {
                if self.truths[inst].is_some() {
                    return; // already resolved (true)
                }
                match tag {
                    Tag::True => {
                        self.resolve_instance(inst, true, observer);
                        self.runs[r].dead = true;
                    }
                    Tag::Formula(_) => {
                        if let InstKind::HasPath { accepts } = &mut self.insts[inst] {
                            self.accepts.push((tag, *accepts));
                            *accepts = (self.accepts.len() - 1) as u32;
                        }
                    }
                }
            }
        }
    }

    /// Feeds character data (stream mode; DOM drivers may skip text nodes
    /// entirely since `text()='c'` resolves eagerly there). Each open
    /// `text()='c'` instance of the current element matches `content`
    /// against the rest of its literal in place: text split into several
    /// events, at any byte, matches exactly when its concatenation does.
    pub fn text(&mut self, content: &str) {
        let here = self.frames.len();
        let content = content.as_bytes();
        for &inst in &self.open_texteq {
            if let InstKind::TextEq {
                literal,
                matched,
                depth,
            } = &mut self.insts[inst]
            {
                if *depth != here {
                    continue; // not direct text of the origin element
                }
                *matched = matched.and_then(|m| {
                    literal[m..]
                        .starts_with(content)
                        .then_some(m + content.len())
                });
            }
        }
    }

    /// Leaves the current element node, resolving everything rooted there.
    pub fn leave(&mut self, observer: &mut dyn EvalObserver) {
        if self.simple_active {
            self.simple_stack.pop().expect("leave without enter");
            return;
        }
        let frame = self.frames.pop().expect("leave without enter");
        if self.observe {
            observer.leave_node(frame.node);
        }
        for &r in &frame.stepped {
            // A run uses exactly one of its two stacks; the other is empty.
            let run = &mut self.runs[r];
            run.dfa.pop();
            if let Some(mut set) = run.sets.pop() {
                set.clear();
                self.set_pool.push(set);
            }
        }
        self.resolve_opened(&frame.opened, observer);
        for &r in &frame.spawned_runs {
            self.free_run(r);
        }
        self.recycle_frame(frame);
    }

    /// Resolves all instances opened at the closing node. Dependencies are
    /// all within the now-closed subtree, so a fixpoint over the opened
    /// list terminates.
    fn resolve_opened(&mut self, opened: &[InstId], observer: &mut dyn EvalObserver) {
        let mut pending = std::mem::take(&mut self.pending);
        let mut unresolved = std::mem::take(&mut self.unresolved);
        pending.clear();
        pending.extend(opened.iter().copied().filter(|&i| self.truths[i].is_none()));
        while !pending.is_empty() {
            let mut progressed = false;
            unresolved.clear();
            for &i in &pending {
                if self.truths[i].is_some() {
                    progressed = true;
                    continue;
                }
                match self.verdict(i) {
                    Some(v) => {
                        self.resolve_instance(i, v, observer);
                        progressed = true;
                    }
                    None => unresolved.push(i),
                }
            }
            assert!(
                progressed || unresolved.is_empty(),
                "instance dependency cycle (evaluator bug)"
            );
            std::mem::swap(&mut pending, &mut unresolved);
        }
        self.pending = pending;
        self.unresolved = unresolved;
    }

    /// The truth of instance `i` from what has resolved so far (`None`
    /// while it depends on an unresolved instance).
    fn verdict(&self, i: InstId) -> Option<bool> {
        match self.insts[i] {
            InstKind::TextEq {
                literal, matched, ..
            } => Some(matched == Some(literal.len())),
            InstKind::HasPath { accepts } => {
                let mut verdict = Some(false);
                let mut at = accepts;
                while at != NO_ACCEPT {
                    let (tag, next) = self.accepts[at as usize];
                    match self.arena.eval(tag, &self.truths) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => verdict = None,
                    }
                    at = next;
                }
                verdict
            }
            InstKind::Not { sub } => self.truths[sub].map(|b| !b),
            InstKind::Junction { all, start, len } => {
                let mut verdict = Some(all);
                for &s in &self.inst_subs[start as usize..(start + len) as usize] {
                    match self.truths[s] {
                        // A false part decides a conjunction, a true
                        // part a disjunction.
                        Some(v) if v != all => return Some(v),
                        Some(_) => {}
                        None => verdict = None,
                    }
                }
                verdict
            }
        }
    }

    fn resolve_instance(&mut self, inst: InstId, value: bool, observer: &mut dyn EvalObserver) {
        if self.truths[inst].is_some() {
            return;
        }
        self.truths[inst] = Some(value);
        observer.instance_resolved(inst, value);
        if matches!(self.insts[inst], InstKind::TextEq { .. }) {
            if let Some(pos) = self.open_texteq.iter().position(|&x| x == inst) {
                self.open_texteq.swap_remove(pos);
            }
        }
    }

    /// Finishes the traversal: closes the virtual frame, runs the Cans
    /// pass, and returns the answer node ids in document order.
    pub fn end(mut self, observer: &mut dyn EvalObserver) -> (Vec<u32>, EvalStats) {
        if self.simple_active {
            self.simple_stack.pop().expect("virtual level");
            assert!(self.simple_stack.is_empty(), "unbalanced enter/leave");
            let mut answers = self.immediate;
            answers.sort_unstable();
            answers.dedup();
            self.stats.answers = answers.len();
            return (answers, self.stats);
        }
        self.leave(observer); // virtual frame
        assert!(self.frames.is_empty(), "unbalanced enter/leave");
        self.stats.cans_size = self.cans.len();
        self.stats.formula_nodes = self.arena.len();
        let mut answers = std::mem::take(&mut self.immediate);
        for c in self.cans.iter() {
            let kept = self
                .arena
                .eval(c.tag, &self.truths)
                .expect("all instances resolved after traversal");
            observer.candidate_resolved(c.node, kept);
            if kept {
                answers.push(c.node);
            }
        }
        answers.sort_unstable();
        answers.dedup();
        self.stats.answers = answers.len();
        (answers, self.stats)
    }

    // -- closure with guard pickup -----------------------------------------

    /// Guard-aware ε-closure of `seed` at `node`. Spawns predicate
    /// instances for guards it crosses; newly created `HasPath` runs join
    /// the top frame's `spawned_runs`.
    fn closure(
        &mut self,
        nfa_id: NfaId,
        seed: &[(StateId, Tag)],
        node: u32,
        observer: &mut dyn EvalObserver,
    ) -> ActiveSet {
        // Fast path: all-True seeds whose closures cross no guard edge.
        // This covers every guard-free region of every query and avoids
        // the formula machinery entirely.
        let plan = self.plan;
        let compiled = plan.nfa(nfa_id);
        if seed
            .iter()
            .all(|&(s, t)| t == Tag::True && !compiled.closure_guarded(s))
        {
            self.scratch_epoch += 1;
            let epoch = self.scratch_epoch;
            let mut out: ActiveSet = self.take_set();
            for &(s, _) in seed {
                for &t in compiled.closure(s) {
                    if self.scratch[t.index()] != epoch {
                        self.scratch[t.index()] = epoch;
                        out.push((t, Tag::True));
                    }
                }
            }
            out.sort_unstable_by_key(|&(s, _)| s);
            return out;
        }
        self.closure_slow(nfa_id, seed, node, observer)
    }

    /// Guarded slow path: dense epoch-marked builder, no hashing.
    fn closure_slow(
        &mut self,
        nfa_id: NfaId,
        seed: &[(StateId, Tag)],
        node: u32,
        observer: &mut dyn EvalObserver,
    ) -> ActiveSet {
        let mfa: &'a Mfa = self.mfa;
        let nfa = mfa.nfa(nfa_id);
        let mut b = self.builder_pool.pop().unwrap_or_default();
        b.begin(self.plan.max_states());
        for &(s, tag) in seed {
            if b.merge(s, tag) {
                b.work.push(s);
            }
        }
        while let Some(s) = b.work.pop() {
            let cur = if b.known_true[s.index()] {
                Tag::True
            } else {
                match self.arena.or_sorted(&b.parts[s.index()]) {
                    Some(t) => t,
                    None => continue, // no valid way to be here
                }
            };
            for e in nfa.eps_edges(s) {
                let tag = match e.guard {
                    None => cur,
                    Some(g) => match self.spawn(g, node, observer) {
                        InstRef::Resolved(true) => cur,
                        InstRef::Resolved(false) => continue,
                        InstRef::Pending(i) => self.arena.and_inst(cur, i),
                    },
                };
                if b.merge(e.target, tag) {
                    b.work.push(e.target);
                }
            }
        }
        let mut out: ActiveSet = self.take_set();
        for &s in &b.touched {
            let tag = if b.known_true[s.index()] {
                Tag::True
            } else {
                match self.arena.or_sorted(&b.parts[s.index()]) {
                    Some(t) => t,
                    None => continue,
                }
            };
            out.push((s, tag));
        }
        out.sort_unstable_by_key(|&(s, _)| s);
        self.builder_pool.push(b);
        out
    }

    /// Instantiates predicate `pred` at `node` (cached per node).
    fn spawn(&mut self, pred: PredId, node: u32, observer: &mut dyn EvalObserver) -> InstRef {
        if let Some(r) = self.spawn_lookup(pred) {
            return r;
        }
        let mfa: &'a Mfa = self.mfa;
        let result = match mfa.pred(pred) {
            Pred::True => InstRef::Resolved(true),
            Pred::TextEq(literal) => {
                if let Some(resolver) = self.text_resolver {
                    InstRef::Resolved(resolver(node).as_ref() == literal.as_str())
                } else {
                    let depth = self.frames.len();
                    let i = self.new_instance(
                        InstKind::TextEq {
                            literal: literal.as_bytes(),
                            matched: Some(0),
                            depth,
                        },
                        node,
                        observer,
                    );
                    self.open_texteq.push(i);
                    InstRef::Pending(i)
                }
            }
            Pred::HasPath(sub_nfa) => {
                let sub_nfa = *sub_nfa;
                let i = self.new_instance(InstKind::HasPath { accepts: NO_ACCEPT }, node, observer);
                self.stats.runs_spawned += 1;
                // Cache before the recursive closure so diamond-shaped
                // sharing reuses the same instance.
                self.spawn_store(pred, InstRef::Pending(i));
                let run_id = self.new_run(sub_nfa, Some(i));
                if let Some(dfa) = self.plan.nfa(sub_nfa).dfa() {
                    let start = dfa.start();
                    self.runs[run_id].dfa.push(start);
                    if dfa.accept(start) {
                        // Accept at the spawn node resolves on the spot.
                        self.accept_true(run_id, node, observer);
                    }
                } else {
                    let start = mfa.nfa(sub_nfa).start();
                    let set = self.closure(sub_nfa, &[(start, Tag::True)], node, observer);
                    self.process_accept(run_id, &set, node, observer);
                    self.runs[run_id].sets.push(set);
                }
                self.frames
                    .last_mut()
                    .expect("spawn inside a frame")
                    .spawned_runs
                    .push(run_id);
                if let Some(v) = self.truths[i] {
                    // Accept with a constant-true tag resolved it on the
                    // spot.
                    let r = InstRef::Resolved(v);
                    self.spawn_store(pred, r);
                    return r;
                }
                return InstRef::Pending(i);
            }
            Pred::Not(sub) => match self.spawn(*sub, node, observer) {
                InstRef::Resolved(b) => InstRef::Resolved(!b),
                InstRef::Pending(si) => {
                    InstRef::Pending(self.new_instance(InstKind::Not { sub: si }, node, observer))
                }
            },
            Pred::And(parts) => self.spawn_junction(true, parts, node, observer),
            Pred::Or(parts) => self.spawn_junction(false, parts, node, observer),
        };
        self.spawn_store(pred, result);
        result
    }

    /// Instantiates the conjunction (`all`) or disjunction of `parts` at
    /// `node`: decided on the spot when a part resolves to the deciding
    /// value or none stays pending, else an instance over the pending
    /// parts.
    fn spawn_junction(
        &mut self,
        all: bool,
        parts: &[PredId],
        node: u32,
        observer: &mut dyn EvalObserver,
    ) -> InstRef {
        let base = self.junction_parts.len();
        let mut decided = None;
        for &part in parts {
            match self.spawn(part, node, observer) {
                InstRef::Resolved(v) if v != all => {
                    decided = Some(v);
                    break;
                }
                InstRef::Resolved(_) => {}
                InstRef::Pending(i) => self.junction_parts.push(i),
            }
        }
        let result = match decided {
            Some(v) => InstRef::Resolved(v),
            None if self.junction_parts.len() == base => InstRef::Resolved(all),
            None => {
                let start = self.inst_subs.len() as u32;
                self.inst_subs
                    .extend_from_slice(&self.junction_parts[base..]);
                let len = self.inst_subs.len() as u32 - start;
                InstRef::Pending(self.new_instance(
                    InstKind::Junction { all, start, len },
                    node,
                    observer,
                ))
            }
        };
        self.junction_parts.truncate(base);
        result
    }

    fn new_instance(
        &mut self,
        kind: InstKind<'a>,
        node: u32,
        observer: &mut dyn EvalObserver,
    ) -> InstId {
        let id = self.insts.len();
        self.insts.push(kind);
        self.truths.push(None);
        self.stats.pred_instances += 1;
        observer.instance_spawned(id, node);
        self.frames
            .last_mut()
            .expect("spawn inside a frame")
            .opened
            .push(id);
        id
    }
}
