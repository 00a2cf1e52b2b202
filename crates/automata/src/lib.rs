//! # smoqe-automata — mixed finite automata (MFA)
//!
//! The MFA is SMOQE's central data structure (paper §3): an NFA for the
//! data-selection path of a Regular XPath query, annotated with alternating
//! predicate automata for its qualifiers. MFAs are what the rewriter emits
//! (keeping rewritten queries linear-size) and what the HyPE evaluator
//! runs.
//!
//! * [`mfa`] — the arena representation ([`Mfa`], [`Nfa`], [`Pred`]);
//! * [`build`] — linear Thompson compilation from Regular XPath
//!   ([`compile()`]);
//! * [`analysis`] — required-label analysis powering TAX pruning, plus
//!   reachability and guard-free simulation helpers;
//! * [`guards`] — guard classification: child-chain guards
//!   ([`classify_chain`], `[l1/…/lk]` and `[l1/…/lk = 'v']`), which
//!   jump-scan answers from the positional index, and the value guards
//!   derived from them ([`classify_value_guard`]), which narrow trigger
//!   sets to (label, value) posting lists;
//! * [`optimize`] — trimming + cross-arena garbage collection
//!   ([`optimize::optimize`]), the "optimization techniques" the demo
//!   toggles;
//! * [`compile`](mod@compile) — compiled evaluation plans
//!   ([`CompiledMfa`]): per-plan ε-closure precompute, subset-construction
//!   DFAs for the guard-free fragment, dense label-column transition
//!   tables, and every per-plan analysis (required labels, child chains,
//!   jump-step values), all done before the plan is returned. This is the
//!   form the HyPE hot loop executes; the plan cache shares it
//!   engine-wide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod build;
pub mod compile;
pub mod guards;
pub mod mfa;
pub mod optimize;

pub use build::{compile, compile_qualifier, Builder};
pub use compile::CompiledMfa;
pub use guards::{classify_chain, classify_value_guard, value_guard, ChildChain, ValueGuard};
pub use mfa::{EpsEdge, LabelTest, Mfa, MfaStats, Nfa, NfaId, Pred, PredId, StateId, Transition};
