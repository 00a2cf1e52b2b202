//! # smoqe-view — XML security views
//!
//! SMOQE enforces access control by giving each user group a **virtual
//! XML view** containing exactly the information the group may access
//! (paper §1, §2). This crate implements the view layer:
//!
//! * [`policy`] — access-control policies annotating DTD edges with
//!   `Y` / `N` / `[qualifier]` (Fig. 3(b));
//! * [`derive()`] — automatic derivation of a view specification + view DTD
//!   from a policy (Fig. 3(c)/(d); Fan–Chan–Garofalakis security views),
//!   producing Kleene closures for recursive hidden regions;
//! * [`spec`] — view specifications σ (the DAD/AXSD-style annotation
//!   mode), parsing, printing and well-formedness validation;
//! * [`typecheck`] — static typing of Regular XPath against a DTD;
//! * [`materialize()`] — V(T) construction with view→source origins, used
//!   by the equivalence tests and the materialization baseline, and the
//!   node counts of V(T) the engine's write path keeps — with σ decided
//!   by the naive evaluator, the oracle;
//! * [`render`] — answers rendered through a view without building it
//!   ([`ViewRenderer`]): the same σ-walk, σ compiled once per view, the
//!   answer text as its sink. This is how the engine serves group answers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod derive;
pub mod materialize;
pub mod policy;
pub mod render;
pub mod spec;
pub mod typecheck;

pub use derive::derive;
pub use materialize::{
    accessible_nodes, counts_are_regional, materializable, materialize, materialize_fragment,
    region_node_count, view_node_count, MaterializedView,
};
pub use policy::{AccessPolicy, Ann, PolicyError, HOSPITAL_POLICY};
pub use render::{RenderScratch, ViewRenderer};
pub use spec::{ViewError, ViewSpec};
