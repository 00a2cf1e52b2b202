//! # smoqe-rxpath — Regular XPath
//!
//! Regular XPath is the query language of SMOQE (paper §1): XPath's
//! downward fragment extended with general Kleene closure `(p)*`, which
//! makes the language **closed under rewriting over (recursively defined)
//! XML views** — the property the whole system rests on.
//!
//! This crate provides:
//! * the [`Path`] / [`Qualifier`] AST with smart constructors and
//!   size/nullability/closure analyses ([`ast`]);
//! * a lexer and recursive-descent parser for the concrete syntax
//!   ([`parse_path`], [`parse_qualifier`]), plus a pretty printer that
//!   emits parseable text (`Path::display`);
//! * [`NodeSet`], query answers in document order;
//! * the naive reference evaluator ([`evaluate`]), which doubles as the
//!   correctness oracle and the "Xalan-like" comparison baseline;
//! * random query generation for property tests ([`random`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod nodeset;
pub mod parser;
pub mod random;

pub use ast::{Path, Qualifier};
pub use error::ParseError;
pub use eval::{evaluate, evaluate_from, holds};
pub use nodeset::NodeSet;
pub use parser::{parse_path, parse_qualifier, MAX_DEPTH};
