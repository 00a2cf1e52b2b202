//! # smoqe-xml — the XML substrate of the SMOQE reproduction
//!
//! SMOQE (VLDB 2006) evaluates Regular XPath queries over XML documents in
//! two modes: **DOM** (the whole tree in memory) and **StAX** (one
//! sequential scan of the serialized document). No off-the-shelf crate is
//! used; this crate implements everything the engine needs from XML:
//!
//! * [`Vocabulary`] / [`Label`] — interned element and attribute names;
//!   all automata and indexes work over dense label ids.
//! * [`scanner`] — the one SWAR-accelerated tokenizer
//!   behind both DOM and StAX modes, emitting byte-span tokens.
//! * [`Document`] / [`TreeBuilder`] — a span-based arena DOM over a shared
//!   `Arc<str>` buffer (the input, or the serialization a built document
//!   writes as it builds); node ids are in document order.
//! * [`stax::PullParser`] — a StAX-style pull parser over any `BufRead`.
//! * [`parse`] — DOM parsing built on the scanner.
//! * [`serialize`] — the answer writer
//!   ([`serialize::write_subtree_into`], a subtree appended straight into
//!   a `String`), compact/pretty serialization and an event-driven
//!   [`serialize::XmlWriter`] used by the streaming evaluator.
//! * [`edit`] — structural edits (delete/replace/insert of
//!   subtrees) that splice the buffer and the tables around the edit and
//!   report the changed id window ([`EditSpan`]) for incremental index
//!   maintenance and incremental validation ([`DirtySet`]).
//! * [`Dtd`] / [`ContentModel`] — recursive DTDs with parsing, validation
//!   (whole-document or of a node set, content models compiled once),
//!   and the structural analyses (child alphabets, reachability, recursion,
//!   minimum heights) the view-derivation algorithm needs.
//! * [`generate`](mod@crate::generate) — seeded synthetic document generation
//!   from a DTD, in DOM or streaming form (the paper's unavailable hospital
//!   data is substituted this way; see DESIGN.md §4).

// `deny`, not `forbid`: the one exception is `tree::splice::concat_shared`
// (an `Arc<[u8]>` → `Arc<str>` pointer cast), which `#[allow]`s it locally.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod dtd;
pub mod edit;
pub mod error;
pub mod generate;
pub mod label;
pub mod labelset;
pub mod parse;
pub mod scanner;
pub mod serialize;
pub mod stax;
#[cfg(any(test, feature = "testing"))]
pub mod testing;
pub mod tree;

pub use dtd::{ContentModel, Dtd, HOSPITAL_DTD};
pub use edit::{
    delete_subtree, edit_targets, insert_fragment, replace_subtree, DirtySet, Edit, EditError,
    EditSpan, Edited, SplicePlace,
};
pub use error::XmlError;
pub use generate::{generate, generate_to_writer, GeneratorConfig};
pub use label::{Label, Vocabulary};
pub use labelset::LabelSet;
pub use parse::{parse_buffer, parse_document, parse_file, parse_reader};
pub use tree::{Attribute, Document, MemorySummary, NodeId, NodeKind, TreeBuilder};
