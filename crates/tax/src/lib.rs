//! # smoqe-tax — the Type-Aware XML index
//!
//! TAX (paper §3, "Indexer") records, for every node of a document, the
//! set of element types occurring in its subtree. During HyPE evaluation
//! the engine intersects a run's *required* labels with a subtree's
//! *available* labels and skips subtrees that cannot contribute — "pruning
//! large document subtrees during the evaluation of XPath queries with or
//! without '//'".
//!
//! * [`TaxIndex::build`] — one bottom-up pass, with descendant-type sets
//!   interned (documents have few distinct sets);
//! * [`LabelIndex`] — the positional complement built in the same pass:
//!   per-label sorted pre-order id lists plus per-node subtree ends and
//!   levels, which jump-scan evaluation (`smoqe_hype::jump`) binary-
//!   searches to visit only candidate subtrees;
//! * [`ValueIndex`] — per-(label, text-value) posting lists (hashed
//!   values with evaluator-side verification), which turn `text() = 'v'`
//!   leaf predicates into posting-list lookups instead of full walks;
//! * [`TaxIndex::save`] / [`TaxIndex::load`] — compressed, versioned
//!   on-disk format (varint sets + run-length-encoded node table), with
//!   label names stored symbolically so indexes survive vocabulary
//!   renumbering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod labelindex;
pub mod persist;
mod remap;
pub mod valueindex;

pub use index::TaxIndex;
pub use labelindex::LabelIndex;
pub use valueindex::{gallop_intersect, ValueIndex};
