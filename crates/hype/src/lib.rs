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
//! * [`jump`] — jump-scan DOM mode: DFA plans (exact for the guard-free
//!   fragment, guard-stripped with exact re-verification for predicated
//!   ones) hop between candidate subtrees through the positional label
//!   and value posting indexes, visiting O(candidate) nodes instead of
//!   O(n);
//! * [`frontier`] — shared batch jump frontier: a batch of jump-eligible
//!   plans merges its candidate lists into one ascending sweep,
//!   partitioned by frontier ranges across worker threads
//!   ([`evaluate_jump_frontier_budgeted`]);
//! * [`stream`] — StAX mode: the same core over pull-parser events with
//!   candidate-subtree buffering ([`evaluate_stream`]);
//! * [`batch`] — batched StAX mode: one shared sequential scan answers a
//!   whole set of compiled plans at once ([`evaluate_batch_stream`]);
//! * [`twopass`] — the bottom-up + top-down baseline the paper contrasts
//!   with (Arb-style);
//! * [`observer`] / [`stats`] — monitoring hooks and counters used by the
//!   iSMOQE-substitute visualizers and the experiment harness.
//!
//! All drivers run the one [`machine`] over a plan's dense tables. Each
//! has one plan-level entry taking observers and a [`WorkBudget`] — what
//! the engine calls ([`evaluate_mfa_plan_budgeted`],
//! [`evaluate_stream_plan_budgeted`],
//! [`evaluate_batch_stream_plans_budgeted`],
//! [`evaluate_jump_frontier_budgeted`], [`jump::evaluate_jump_budgeted`])
//! — plus `Mfa`-level conveniences that compile on the fly for tests and
//! experiments. Ablations (scan vs jump, TAX on/off) are expressed through
//! those arguments ([`ExecMode`], [`DomOptions`]), and
//! `smoqe_rxpath::evaluate` is the reference every differential test
//! compares against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod budget;
pub mod cans;
pub mod dom;
pub mod frontier;
pub mod jump;
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
pub use frontier::evaluate_jump_frontier_budgeted;
pub use jump::{
    jump_available, jump_eligible, selectivity_estimate, start_region_triggers,
    SelectivityEstimate, TriggerInfo, TriggerKind,
};
pub use machine::ExecMode;
pub use observer::{EvalObserver, NoopObserver, PruneReason};
pub use stats::EvalStats;
pub use stream::{
    evaluate_stream, evaluate_stream_plan_budgeted, evaluate_stream_str, StreamOptions,
    StreamOutcome,
};
pub use twopass::{evaluate_mfa_twopass, evaluate_mfa_twopass_report, TwoPassReport};
