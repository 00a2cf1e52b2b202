//! # smoqe-hype — HyPE, the Hybrid Pass Evaluator
//!
//! HyPE (paper §3, "Evaluator") evaluates MFAs with **a single top-down
//! depth-first traversal** during which it both advances the selection NFA
//! and resolves predicates, parking potential answers in the `Cans`
//! structure; one final pass over `Cans` yields the answer. The crate
//! contains:
//!
//! * [`dom`] — DOM mode, with automaton-driven subtree skipping and
//!   TAX-index pruning ([`evaluate_mfa`]);
//! * [`jump`] — jump-scan DOM mode: plans step exact tables (subset DFAs
//!   for the guard-free fragment, guard-branching DFAs whose branches are
//!   resolved by probing guards at the node for predicated ones) and hop
//!   between candidate subtrees through the positional label and value
//!   posting indexes, visiting O(candidate) nodes instead of O(n);
//! * [`local`] — a compiled downward path run from one context node
//!   ([`LocalPath`]): how a security view finds σ children when it
//!   renders an answer;
//! * [`stream`] — StAX mode: the same core over pull-parser events with
//!   candidate-subtree buffering ([`evaluate_stream`]);
//! * [`batch`] — batched StAX mode: one shared sequential scan answers a
//!   whole set of compiled plans at once ([`evaluate_batch_stream`]);
//! * [`twopass`] — the bottom-up + top-down baseline the paper contrasts
//!   with (Arb-style);
//! * [`observer`] / [`stats`] — monitoring hooks and counters used by the
//!   iSMOQE-substitute visualizers and the experiment harness.
//!
//! The tree walker ([`dom`] in [`ExecMode::Compiled`]), [`stream`] and
//! [`batch`] run the one [`machine`] over a plan's dense tables. [`jump`]
//! and [`local`] do not: they read the same tables but step their own
//! DFA states or state sets and resolve guards themselves (jump probes
//! the guard of each branch its table takes at a candidate; local answers
//! a guard at the node), and [`twopass`] is a separate bottom-up +
//! top-down algorithm.
//! The engine's drivers each have one plan-level entry taking observers
//! and a [`WorkBudget`] ([`evaluate_mfa_plan_budgeted`],
//! [`evaluate_stream_plan_budgeted`],
//! [`evaluate_batch_stream_plans_budgeted`]) plus `Mfa`-level
//! conveniences that compile on the fly for tests and experiments. The
//! jump scan has no entry of its own: it is the DOM entry in
//! [`ExecMode::Jump`]. Ablations (scan vs jump, TAX on/off) are expressed
//! through those arguments ([`ExecMode`], [`DomOptions`]), and
//! `smoqe_rxpath::evaluate` is the reference every differential test
//! compares against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod budget;
pub mod cans;
pub mod dom;
pub mod jump;
pub mod local;
pub mod machine;
pub mod observer;
pub mod stats;
pub mod stream;
pub mod twopass;

pub use batch::{
    evaluate_batch_stream, evaluate_batch_stream_plans_budgeted, evaluate_batch_stream_str,
    BatchOutcome,
};
pub use budget::{
    BudgetMeter, DriverError, EvalInterrupt, Interrupt, WorkBudget, DEFAULT_CHECK_INTERVAL,
};
pub use dom::{
    evaluate_mfa, evaluate_mfa_plan, evaluate_mfa_plan_budgeted, evaluate_mfa_with, DomOptions,
};
pub use jump::{jump_available, jump_eligible, start_region_triggers, TriggerInfo, TriggerKind};
pub use local::{LocalPath, LocalScratch};
pub use machine::ExecMode;
pub use observer::{EvalObserver, NoopObserver, PruneReason};
pub use stats::EvalStats;
pub use stream::{
    evaluate_stream, evaluate_stream_plan_budgeted, evaluate_stream_str, StreamOptions,
    StreamOutcome,
};
pub use twopass::{evaluate_mfa_twopass, evaluate_mfa_twopass_report, TwoPassReport};
