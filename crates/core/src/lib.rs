//! # SMOQE — the Secure MOdular Query Engine
//!
//! A from-scratch Rust reproduction of *"SMOQE: A System for Providing
//! Secure Access to XML"* (Fan, Geerts, Jia, Kementsietsidis, VLDB 2006),
//! grown into a multi-tenant serving engine.
//!
//! SMOQE answers **Regular XPath** queries over **virtual XML views** used
//! for access control: each user group gets a view containing exactly what
//! its policy allows; user queries are **rewritten** into automata (MFAs)
//! over the underlying document and evaluated in **one pass** (HyPE),
//! optionally pruned by a type-aware index (TAX) — the view is never
//! materialized.
//!
//! One [`Engine`] serves many *named* documents (the [`catalog`]) and many
//! concurrent users: [`Session`]s are owned, `Send + Sync` handles, and
//! compiled plans are memoized in a shared [plan cache](plancache) keyed by
//! catalog entry, principal (with its view generation) and query text —
//! writes, reloads and DTD loads keep them.
//!
//! The engine also accepts **secure updates** (`insert`/`delete`/`replace`
//! over Regular XPath targets, [`smoqe_update`]): group sessions may only
//! write what their view lets them read (denials are indistinguishable
//! from non-existent targets), and accepted updates swap in a new snapshot
//! without blocking readers, patching the TAX index incrementally.
//!
//! ```
//! use smoqe::{Engine, User, workloads::hospital};
//!
//! let engine = Engine::with_defaults();
//! let doc = engine.open_document("wards");
//! doc.load_dtd(hospital::DTD).unwrap();
//! doc.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
//! doc.register_policy("researchers", hospital::POLICY).unwrap();
//!
//! let session = doc.session(User::Group("researchers".into()));
//! // Names are hidden by the policy ...
//! assert!(session.query("//pname").unwrap().is_empty());
//! // ... treatments of autism patients are visible.
//! assert!(!session.query("hospital/patient/treatment").unwrap().is_empty());
//! // Repeating a query skips the whole planning pipeline.
//! assert!(session.query("//pname").unwrap().plan_cached);
//! ```
//!
//! The implementation lives in focused crates, re-exported here:
//! [`smoqe_xml`] (documents, DTDs, StAX parsing, generation),
//! [`smoqe_rxpath`] (the query language), [`smoqe_automata`] (MFAs),
//! [`smoqe_view`] (policies, derivation, materialization),
//! [`smoqe_rewrite`] (view rewriting), [`smoqe_hype`] (evaluation),
//! [`smoqe_tax`] (indexing) and [`smoqe_viz`] (the iSMOQE-substitute
//! renderers). See README.md at the repository root for the workspace
//! layout and architecture notes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod config;
pub mod durable;
pub mod engine;
pub mod error;
pub mod plancache;
pub mod tenants;
pub mod workloads;

mod sync;
mod viewcount;

pub use catalog::{DocHandle, DocumentEntry};
pub use config::{DocumentMode, EngineConfig};
pub use durable::failpoints::{Failpoint, FailpointRegistry, ALL_FAILPOINTS};
pub use durable::{DurError, Durability};
pub use engine::{
    Answer, BatchAnswer, Engine, Queries, QueryRequest, Session, UpdateReport, User,
    DEFAULT_DOCUMENT,
};
pub use error::EngineError;
pub use plancache::CacheMetrics;
pub use smoqe_hype::{ExecMode, WorkBudget};
pub use tenants::{TenantMetrics, ADMIN_TENANT};

// Re-export the component crates under stable names.
pub use smoqe_automata as automata;
pub use smoqe_hype as hype;
pub use smoqe_rewrite as rewrite;
pub use smoqe_rxpath as rxpath;
pub use smoqe_tax as tax;
pub use smoqe_update as update;
pub use smoqe_view as view;
pub use smoqe_viz as viz;
pub use smoqe_xml as xml;
