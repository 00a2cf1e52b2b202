//! # smoqe-update — the write path of the engine
//!
//! SMOQE (VLDB 2006) enforces access control on *reads*; Mahfoud & Imine
//! ("A General Approach for Securely Querying and Updating XML Data",
//! 2012) show the same security-view machinery extends to *writes*. This
//! crate provides the update half of that picture:
//!
//! * an **update language** over Regular XPath targets —
//!   `insert <fragment> into|before|after <path>`, `delete <path>`,
//!   `replace <path> with <fragment>` — with an AST ([`ast`]) and a parser
//!   ([`parse_update`]) whose target expressions go through the `rxpath`
//!   lexer/parser, so queries and update targets share one syntax;
//! * **application** ([`apply_update`]): the result is that of applying
//!   the targets last-to-first in document order (pre-order ids before an
//!   edit window are stable, so earlier targets stay valid), made in one
//!   splice of the document's tables per statement through
//!   `smoqe_xml::edit_targets`; when a TAX index rides along it is
//!   **incrementally patched** in one pass per statement instead of
//!   rebuilt.
//!
//! Policy enforcement (which targets a group session may touch) lives in
//! the engine (`smoqe::Session::update`): accessibility is decided against
//! the session's security view, and a denied write is indistinguishable
//! from a write to a non-existent target. This crate is policy-agnostic —
//! it mutates whatever targets it is handed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apply;
pub mod ast;
pub mod error;
pub mod parse;

pub use apply::apply_update;
pub use ast::{InsertPos, Update, UpdateKind};
pub use error::UpdateError;
pub use parse::parse_update;
