//! The SMOQE engine façade: a multi-tenant catalog of documents, a shared
//! compiled-plan cache, and owned, thread-safe sessions.
//!
//! Mirrors the architecture of Fig. 1 at serving scale: the engine owns
//! *named* documents (each with its DTD, DOM/stream source, TAX index and
//! registered security views — see [`crate::catalog`]); a [`Session`] is
//! the access path of one user into one document — either an administrator
//! querying it directly, or a member of a user group whose queries are
//! transparently **rewritten** against the group's virtual view and
//! answered without materialization (§2, "Query support").
//!
//! Sessions are owned values (`Arc`-based, `Send + Sync`): one engine
//! answers queries from many threads concurrently. Evaluation works on
//! snapshots (`Arc` clones) of the catalog state, so no lock is held while
//! a query runs, and compiled plans are memoized engine-wide in the
//! [plan cache](crate::plancache).
//!
//! There is **one query pipeline**: every `Session::query*` variant and
//! [`Engine::evaluate_batch`] plan their queries (parse → rewrite →
//! optimize → table-compile, through the plan cache) and hand the plans to
//! the private `Engine::execute`, which takes the one source snapshot,
//! picks each plan's strategy from what it observes (DOM or stream engine,
//! TAX index present, plan DFA), runs the HyPE drivers and renders answer
//! XML from that same snapshot. A single query is a batch of one.

use crate::catalog::{Catalog, DocHandle, DocumentEntry, LoadedSource, ViewSlot, ViewSource};
use crate::config::{DocumentMode, EngineConfig};
use crate::durable::wal::WalOp;
use crate::error::EngineError;
use crate::plancache::{CacheMetrics, PlanCache, PlanKey};
use smoqe_automata::compile::CompiledMfa;
use smoqe_automata::{compile, optimize::optimize, Mfa};
use smoqe_hype::batch::evaluate_batch_stream_plans_budgeted;
use smoqe_hype::dom::{evaluate_mfa_plan, evaluate_mfa_plan_budgeted, DomOptions};
use smoqe_hype::stream::StreamOptions;
use smoqe_hype::{
    jump_available, DriverError, EvalObserver, EvalStats, ExecMode, NoopObserver, WorkBudget,
};
use smoqe_rxpath::{parse_path, Path};
use smoqe_tax::TaxIndex;
use smoqe_update::{parse_update, UpdateError};
use smoqe_view::{
    derive, materializable, materialize, AccessPolicy, RenderScratch, ViewRenderer, ViewSpec,
};
use smoqe_xml::{DirtySet, Document, Dtd, NodeId, Vocabulary};
use std::path::Path as FsPath;
use std::sync::Arc;

/// The catalog name used by the single-document convenience methods
/// ([`Engine::load_document`] and friends).
pub const DEFAULT_DOCUMENT: &str = "default";

/// One planned request of a batch: the principal it runs for, its
/// compiled plan, and whether the plan was a cache hit.
type Planned<'u> = (&'u User, Arc<CompiledMfa>, bool);

/// The Secure MOdular Query Engine.
///
/// Construct with [`Engine::new`] / [`Engine::with_defaults`] (both return
/// `Arc<Engine>`), populate the catalog through [`Engine::open_document`],
/// then serve queries through owned [`Session`]s from as many threads as
/// desired.
pub struct Engine {
    vocab: Vocabulary,
    config: EngineConfig,
    catalog: Catalog,
    plans: PlanCache,
    tenants: crate::tenants::TenantRegistry,
    /// Durable state (WAL + checkpoints), set once by
    /// [`Engine::recover`]; `None` for a purely in-memory engine.
    pub(crate) durable: std::sync::OnceLock<Arc<crate::durable::Durability>>,
}

/// Who a session belongs to.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum User {
    /// May query the underlying document directly.
    Admin,
    /// Queries are answered through the group's security view.
    Group(String),
}

/// One user's owned access path into one document of an engine.
///
/// Sessions are `Send + Sync + Clone`: hand them to worker threads freely.
/// A session holds `Arc`s to the engine and its document entry, never
/// locks, so concurrent queries proceed in parallel and a session stays
/// valid (seeing the latest contents) across document reloads.
#[derive(Clone)]
pub struct Session {
    engine: Arc<Engine>,
    entry: Arc<DocumentEntry>,
    user: User,
}

/// A query answer: nodes of the underlying document (in document order)
/// plus evaluation statistics.
#[derive(Debug)]
pub struct Answer {
    /// Answer node ids (ids of the *source* document, document order).
    pub nodes: Vec<NodeId>,
    /// Evaluator counters.
    pub stats: EvalStats,
    /// Whether the plan came from the engine's plan cache.
    pub plan_cached: bool,
    /// The execution mode the plan actually ran in: on a DOM engine, the
    /// jump scan when the document has a TAX index, the plan has a DFA
    /// and nothing observes the evaluation; the tree walk otherwise.
    pub mode: ExecMode,
    /// Serialized answer subtrees, safe for the asking principal — the
    /// raw subtree for an admin, the view image for a group member, both
    /// written straight from the evaluation snapshot without building a
    /// view or a fragment: present from the `*_serialized` /
    /// [`Session::query_xml`] fronts, `None` from a plain `query` /
    /// `query_batch` on either engine mode (render raw subtrees on demand
    /// with [`Answer::serialize_with`]).
    pub xml: Option<Vec<String>>,
}

impl Answer {
    /// Number of answer nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the answer is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Serializes each answer's **raw source subtree** using `doc`.
    ///
    /// Intended for admin-level inspection; view users should go through
    /// [`Session::query_xml`], which filters hidden descendants.
    pub fn serialize_with(&self, doc: &Document) -> Vec<String> {
        self.nodes
            .iter()
            .map(|&n| smoqe_xml::serialize::subtree_to_string(doc, n))
            .collect()
    }
}

/// Result of a batched query.
///
/// Returned by [`Session::query_batch`], [`DocHandle::query_batch`] and
/// [`Engine::evaluate_batch`]. A batch amortizes by the engine's mode:
///
/// * **DOM engine — one snapshot:** every plan is evaluated against the
///   same `Arc` document/TAX snapshot, exactly as [`Session::query`]
///   would (same scan/jump pick), the plans partitioned across
///   [`EngineConfig::eval_threads`] scoped workers (`1` = inline).
///   Nothing is parsed, so `events` is 0.
/// * **Stream engine — one shared scan:** every plan rides **one**
///   sequential parse of the document. `events` is the total parser event
///   count of that scan — the same count a *single* streamed query
///   reports, which is the proof the pass was shared.
///
/// On either mode an answer carries its serialized XML only when the
/// caller asked for it ([`Session::query_batch_serialized`]): raw source
/// subtrees for admin sessions, the access-controlled view rendering for
/// group sessions.
#[derive(Debug)]
pub struct BatchAnswer {
    /// One answer per query, in input order.
    pub answers: Vec<Answer>,
    /// Parser events of the single shared document scan (0 on a DOM
    /// engine, which evaluates on its in-memory snapshot and never
    /// re-parses).
    pub events: usize,
}

impl BatchAnswer {
    /// The per-query evaluation counters merged into one total (additive
    /// counters sum, depth takes the maximum).
    pub fn merged_stats(&self) -> EvalStats {
        let mut total = EvalStats::default();
        for a in &self.answers {
            total.merge(&a.stats);
        }
        total
    }
}

/// Outcome of one accepted update statement.
///
/// Returned by [`Session::update`], [`DocHandle::update`] and
/// [`DocHandle::update_batch`].
#[derive(Clone, Copy, Debug)]
pub struct UpdateReport {
    /// Number of target nodes the operation was applied to (an update
    /// whose path selects several nodes applies at each of them).
    pub applied: usize,
    /// Node count **of the document as the session sees it** before this
    /// statement: the source document for admins, the security view for
    /// group sessions — source-side counts would reveal how many hidden
    /// nodes an edited subtree contained.
    pub nodes_before: usize,
    /// Same count after the statement.
    pub nodes_after: usize,
    /// Whether a TAX index was present and was **incrementally patched**
    /// across the edit (an update never triggers an index build, and
    /// never discards one either).
    pub tax_patched: bool,
    /// Elements whose content model the conformance check of this
    /// statement's **transaction** visited (the check runs once, on the
    /// final state, so every report of a transaction carries the same
    /// number; 0 without a DTD). On a document already known to conform
    /// it is bounded by what the transaction wrote — the inserted
    /// elements plus one splice parent per applied target — not by the
    /// document. Always 0 for group sessions (a whole-document pass would
    /// count the source's hidden elements) and never put on the wire.
    pub validated_nodes: usize,
}

impl Engine {
    /// Creates an engine with the given configuration and a fresh
    /// vocabulary.
    pub fn new(config: EngineConfig) -> Arc<Self> {
        Arc::new(Engine {
            vocab: Vocabulary::new(),
            plans: PlanCache::new(config.plan_cache_capacity),
            config,
            catalog: Catalog::default(),
            tenants: crate::tenants::TenantRegistry::default(),
            durable: std::sync::OnceLock::new(),
        })
    }

    /// Creates an engine with default configuration.
    pub fn with_defaults() -> Arc<Self> {
        Engine::new(EngineConfig::default())
    }

    /// The engine's vocabulary (shared by its documents, views and
    /// queries).
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    // ------------------------------------------------------------------
    // Catalog management
    // ------------------------------------------------------------------

    /// Opens (creating if necessary) the named document, returning an
    /// owned handle for loading data and minting sessions.
    ///
    /// A durability failure on the creation record is deferred here (an
    /// empty entry holds no data, and every data-bearing operation on the
    /// handle reports the dead durability layer); callers that want it
    /// eagerly use [`Engine::try_open_document`].
    pub fn open_document(self: &Arc<Self>, name: &str) -> DocHandle {
        self.open_document_logged(name).0
    }

    /// Like [`Engine::open_document`], but surfaces a durability failure
    /// on the creation record immediately instead of deferring it to the
    /// first data-bearing operation.
    pub fn try_open_document(self: &Arc<Self>, name: &str) -> Result<DocHandle, EngineError> {
        let (handle, logged) = self.open_document_logged(name);
        logged?;
        Ok(handle)
    }

    fn open_document_logged(self: &Arc<Self>, name: &str) -> (DocHandle, Result<(), EngineError>) {
        let (entry, created) = self.catalog.entry_or_create_tracked(name);
        let logged = if created {
            // Under the new entry's write lock, like every other durable
            // mutation, so the record cannot interleave with a concurrent
            // checkpoint's cut.
            let _writer = entry.write_serial.lock();
            self.durable_log(WalOp::OpenDocument {
                doc: name.to_string(),
            })
        } else {
            Ok(())
        };
        let handle = DocHandle {
            engine: self.clone(),
            entry,
        };
        (handle, logged)
    }

    /// A handle to an *existing* document, or `UnknownDocument`.
    pub fn document_handle(self: &Arc<Self>, name: &str) -> Result<DocHandle, EngineError> {
        Ok(DocHandle {
            engine: self.clone(),
            entry: self.catalog.entry(name)?,
        })
    }

    /// Removes `name` from the catalog and purges its cached plans.
    /// Sessions already bound to the document keep working on it.
    ///
    /// On a durable engine the drop is logged first, so recovery can
    /// never resurrect the document; a drop that cannot be logged does
    /// not happen (and reports `false`) — use
    /// [`Engine::try_drop_document`] to see the durability error.
    pub fn drop_document(&self, name: &str) -> bool {
        self.try_drop_document(name).unwrap_or(false)
    }

    /// Like [`Engine::drop_document`], surfacing durability failures
    /// instead of folding them into `false`.
    pub fn try_drop_document(&self, name: &str) -> Result<bool, EngineError> {
        let Ok(entry) = self.catalog.entry(name) else {
            return Ok(false);
        };
        // Under the entry's write lock the drop record and the catalog
        // removal are atomic with respect to a concurrent checkpoint
        // capture — a checkpoint can never include a document whose drop
        // record its LSN already covers.
        let _writer = entry.write_serial.lock();
        if entry.is_dropped() {
            return Ok(false); // another dropper won the race
        }
        self.durable_log(WalOp::DropDocument {
            doc: name.to_string(),
        })?;
        Ok(self.drop_document_local(name))
    }

    /// The in-memory half of a drop (also the replay path — the record
    /// is already in the log then).
    pub(crate) fn drop_document_local(&self, name: &str) -> bool {
        let removed = self.catalog.remove(name);
        if let Some(entry_id) = removed {
            self.plans.purge_entry(entry_id);
        }
        removed.is_some()
    }

    /// The catalog (durability's capture/replay entry point).
    pub(crate) fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Sorted names of the documents currently in the catalog.
    pub fn document_names(&self) -> Vec<String> {
        self.catalog.names()
    }

    /// Point-in-time plan-cache counters (hits, misses, invalidations,
    /// resident entries).
    pub fn cache_metrics(&self) -> CacheMetrics {
        self.plans.metrics()
    }

    /// Sorted per-tenant load counters — one row per principal this engine
    /// has served ([`crate::tenants::ADMIN_TENANT`] for admin sessions,
    /// the group name otherwise). The serving layer's `Stats` op reports
    /// these so per-group load on a shared engine is observable; the CLI
    /// prints them under `--cache-stats`.
    pub fn tenant_metrics(&self) -> Vec<(String, crate::tenants::TenantMetrics)> {
        self.tenants.metrics()
    }

    // ------------------------------------------------------------------
    // Single-document conveniences (operate on `DEFAULT_DOCUMENT`)
    // ------------------------------------------------------------------

    fn default_entry(&self) -> Arc<DocumentEntry> {
        self.catalog.entry_or_create(DEFAULT_DOCUMENT)
    }

    /// Parses and installs the default document's DTD.
    pub fn load_dtd(&self, dtd_text: &str) -> Result<(), EngineError> {
        self.load_dtd_on(&self.default_entry(), dtd_text)
    }

    /// The default document's DTD, if any.
    pub fn dtd(&self) -> Option<Arc<Dtd>> {
        self.default_entry().dtd.read().clone()
    }

    /// Loads the default document from XML text, validating against the
    /// DTD when one is installed.
    pub fn load_document(&self, xml: &str) -> Result<(), EngineError> {
        self.load_document_on(&self.default_entry(), xml)
    }

    /// Loads (and validates) the default document from a file.
    pub fn load_document_file(&self, path: impl AsRef<FsPath>) -> Result<(), EngineError> {
        self.load_document_file_on(&self.default_entry(), path.as_ref())
    }

    /// Installs an already-built default document (e.g. from the
    /// generator).
    pub fn load_document_tree(&self, doc: Document) -> Result<(), EngineError> {
        self.load_document_tree_on(&self.default_entry(), doc)
    }

    /// The loaded default document.
    pub fn document(&self) -> Result<Arc<Document>, EngineError> {
        Ok(self.default_entry().snapshot()?.doc.clone())
    }

    /// Builds the TAX index over the default document (the "indexer" box
    /// of Fig. 1).
    pub fn build_tax_index(&self) -> Result<Arc<TaxIndex>, EngineError> {
        self.build_tax_index_on(&self.default_entry())
    }

    /// The default document's TAX index, if built or loaded.
    pub fn tax_index(&self) -> Option<Arc<TaxIndex>> {
        self.default_entry()
            .source
            .read()
            .as_ref()
            .and_then(|s| s.tax.clone())
    }

    /// Persists the default document's TAX index ("compresses it before
    /// it is stored in disk").
    pub fn save_tax_index(&self, path: impl AsRef<FsPath>) -> Result<(), EngineError> {
        self.save_tax_index_on(&self.default_entry(), path.as_ref())
    }

    /// Loads a TAX index for the default document from disk ("uploads it
    /// from disk when needed").
    pub fn load_tax_index(&self, path: impl AsRef<FsPath>) -> Result<(), EngineError> {
        self.load_tax_index_on(&self.default_entry(), path.as_ref())
    }

    /// Registers a user group of the default document by access-control
    /// policy: the view is derived automatically (§2, automated view
    /// derivation).
    pub fn register_policy(&self, group: &str, policy_text: &str) -> Result<(), EngineError> {
        self.register_policy_on(&self.default_entry(), group, policy_text)
    }

    /// Registers a user group of the default document with a
    /// hand-authored view specification (the DAD/AXSD-style mode).
    pub fn register_view_spec(&self, group: &str, spec_text: &str) -> Result<(), EngineError> {
        self.register_view_spec_on(&self.default_entry(), group, spec_text)
    }

    /// The view spec registered for `group` on the default document.
    pub fn view(&self, group: &str) -> Result<Arc<ViewSpec>, EngineError> {
        Ok(self.default_entry().view_slot(group)?.0)
    }

    /// Opens a session for `user` on the default document.
    pub fn session(self: &Arc<Self>, user: User) -> Session {
        Session::new(self.clone(), self.default_entry(), user)
    }

    /// Opens a session for `user` on an existing named document.
    pub fn session_on(
        self: &Arc<Self>,
        document: &str,
        user: User,
    ) -> Result<Session, EngineError> {
        Ok(Session::new(
            self.clone(),
            self.catalog.entry(document)?,
            user,
        ))
    }

    /// Compiles (rewriting through the view for group users, then
    /// optimizing) a query for `user` on the default document, consulting
    /// the plan cache.
    pub fn plan(&self, user: &User, query: &str) -> Result<Arc<Mfa>, EngineError> {
        self.plan_on(&self.default_entry(), user, query)
    }

    /// Materializes the view of `group` over the default document — only
    /// used by tests and the E6 baseline; production queries never
    /// materialize.
    pub fn materialize_view(
        &self,
        group: &str,
    ) -> Result<smoqe_view::MaterializedView, EngineError> {
        let entry = self.default_entry();
        let spec = entry.view_slot(group)?.0;
        let doc = entry.snapshot()?.doc.clone();
        Ok(materialize(&spec, &doc)?)
    }

    // ------------------------------------------------------------------
    // Per-entry operations (shared by DocHandle and the conveniences)
    // ------------------------------------------------------------------

    pub(crate) fn load_dtd_on(
        &self,
        entry: &Arc<DocumentEntry>,
        dtd_text: &str,
    ) -> Result<(), EngineError> {
        let dtd = Dtd::parse(dtd_text, &self.vocab)?;
        let _writer = entry.write_serial.lock();
        self.durable_log(WalOp::LoadDtd {
            doc: entry.name().to_string(),
            text: dtd_text.to_string(),
        })?;
        *entry.dtd.write() = Some(Arc::new(dtd));
        *entry.dtd_text.write() = Some(Arc::from(dtd_text));
        // Nothing is re-validated here (a DTD the loaded document does
        // not match is a legal state); the document merely stops being
        // *known* to conform, so the next update validates all of it.
        let mut source = entry.source.write();
        if let Some(current) = source.as_ref().filter(|s| s.conforms) {
            *source = Some(Arc::new(LoadedSource {
                conforms: false,
                ..(**current).clone()
            }));
        }
        drop(source);
        entry.bump_generation();
        Ok(())
    }

    /// Installs `doc`, which the caller validated against `validated`
    /// (`None`: not validated at all).
    fn install_document(
        &self,
        entry: &Arc<DocumentEntry>,
        doc: Document,
        validated: Option<Arc<Dtd>>,
    ) -> Result<(), EngineError> {
        // A fresh source carries no TAX index (the old one described the
        // old document); cached plans stay valid. The WAL record goes
        // first, under the same write lock that orders installs, so log
        // order and install order can never disagree.
        let _writer = entry.write_serial.lock();
        self.durable_log(WalOp::LoadDocument {
            doc: entry.name().to_string(),
            xml: doc.raw_source().to_string(),
        })?;
        // The caller read the DTD before taking the write lock; the mark
        // only holds if that is still the entry's DTD.
        let conforms = match (&validated, entry.dtd.read().as_ref()) {
            (Some(validated), Some(current)) => Arc::ptr_eq(validated, current),
            _ => false,
        };
        *entry.source.write() = Some(Arc::new(LoadedSource {
            doc: Arc::new(doc),
            tax: None,
            conforms,
        }));
        entry.bump_generation();
        Ok(())
    }

    pub(crate) fn load_document_on(
        &self,
        entry: &Arc<DocumentEntry>,
        xml: &str,
    ) -> Result<(), EngineError> {
        let doc = Document::parse_str(xml, &self.vocab)?;
        let dtd = entry.dtd.read().clone();
        if let Some(dtd) = &dtd {
            dtd.validate(&doc)?;
        }
        self.install_document(entry, doc, dtd)
    }

    pub(crate) fn load_document_file_on(
        &self,
        entry: &Arc<DocumentEntry>,
        path: &FsPath,
    ) -> Result<(), EngineError> {
        // Read once: every mode answers from this snapshot, whatever
        // happens to the file afterwards.
        let doc = smoqe_xml::parse_file(path, &self.vocab)?;
        let dtd = entry.dtd.read().clone();
        if let Some(dtd) = &dtd {
            dtd.validate(&doc)?;
        }
        self.install_document(entry, doc, dtd)
    }

    pub(crate) fn load_document_tree_on(
        &self,
        entry: &Arc<DocumentEntry>,
        doc: Document,
    ) -> Result<(), EngineError> {
        // Trees are installed as given, not validated — and not marked
        // as conforming either.
        self.install_document(entry, doc, None)
    }

    pub(crate) fn build_tax_index_on(
        &self,
        entry: &Arc<DocumentEntry>,
    ) -> Result<Arc<TaxIndex>, EngineError> {
        let snapshot = entry.snapshot()?;
        let tax = Arc::new(TaxIndex::build(&snapshot.doc));
        self.attach_tax_logged(entry, &snapshot, tax.clone())?;
        Ok(tax)
    }

    /// [`Engine::attach_tax_restored`] plus a WAL record (when the index
    /// actually attached), under the entry's write lock so the record's
    /// position among the entry's updates matches the document state the
    /// index was built over.
    fn attach_tax_logged(
        &self,
        entry: &Arc<DocumentEntry>,
        built_over: &LoadedSource,
        tax: Arc<TaxIndex>,
    ) -> Result<(), EngineError> {
        let _writer = entry.write_serial.lock();
        let mut source = entry.source.write();
        if let Some(current) = source.as_ref() {
            if Arc::ptr_eq(&current.doc, &built_over.doc) {
                self.durable_log(WalOp::BuildTaxIndex {
                    doc: entry.name().to_string(),
                })?;
                *source = Some(Arc::new(current.with_tax(tax)));
            }
        }
        Ok(())
    }

    /// Installs `tax` on the entry's source, but only if the source is
    /// still the one the index was built over — a concurrent reload makes
    /// the freshly built index describe a dead document, in which case it
    /// is discarded (the reload already invalidated it).
    pub(crate) fn attach_tax_restored(
        &self,
        entry: &Arc<DocumentEntry>,
        built_over: &LoadedSource,
        tax: Arc<TaxIndex>,
    ) {
        let mut source = entry.source.write();
        if let Some(current) = source.as_ref() {
            if Arc::ptr_eq(&current.doc, &built_over.doc) {
                *source = Some(Arc::new(current.with_tax(tax)));
            }
        }
    }

    pub(crate) fn save_tax_index_on(
        &self,
        entry: &Arc<DocumentEntry>,
        path: &FsPath,
    ) -> Result<(), EngineError> {
        let tax = entry
            .snapshot()?
            .tax
            .clone()
            .ok_or(EngineError::NoDocument)?;
        tax.save_to_file(path, &self.vocab)?;
        Ok(())
    }

    pub(crate) fn load_tax_index_on(
        &self,
        entry: &Arc<DocumentEntry>,
        path: &FsPath,
    ) -> Result<(), EngineError> {
        let snapshot = entry.snapshot()?;
        let mut tax = TaxIndex::load_from_file(path, &self.vocab)?;
        // The on-disk format carries the descendant sets only; rebuild
        // the positional label index from the live document so jump-scan
        // evaluation works for loaded indexes too.
        tax.attach_label_index(&snapshot.doc);
        self.attach_tax_logged(entry, &snapshot, Arc::new(tax))
    }

    pub(crate) fn register_policy_on(
        &self,
        entry: &Arc<DocumentEntry>,
        group: &str,
        policy_text: &str,
    ) -> Result<(), EngineError> {
        let dtd = entry.dtd.read().clone().ok_or(EngineError::NoDocument)?;
        let policy = AccessPolicy::parse((*dtd).clone(), policy_text)?;
        let spec = derive(&policy);
        spec.validate(&dtd)?;
        self.install_view(
            entry,
            group,
            spec,
            ViewSource::Policy(Arc::from(policy_text)),
        )
    }

    pub(crate) fn register_view_spec_on(
        &self,
        entry: &Arc<DocumentEntry>,
        group: &str,
        spec_text: &str,
    ) -> Result<(), EngineError> {
        let spec = ViewSpec::parse(spec_text, &self.vocab)?;
        if let Some(dtd) = entry.dtd.read().clone() {
            spec.validate(&dtd)?;
        }
        self.install_view(entry, group, spec, ViewSource::Spec(Arc::from(spec_text)))
    }

    fn install_view(
        &self,
        entry: &Arc<DocumentEntry>,
        group: &str,
        spec: ViewSpec,
        source: ViewSource,
    ) -> Result<(), EngineError> {
        // Registrations serialize with the entry's other writers so the
        // WAL interleaves view changes and updates in install order — a
        // replayed group update must resolve against the same view
        // version the original write saw.
        let _writer = entry.write_serial.lock();
        self.durable_log(match &source {
            ViewSource::Policy(text) => WalOp::RegisterPolicy {
                doc: entry.name().to_string(),
                group: group.to_string(),
                text: text.to_string(),
            },
            ViewSource::Spec(text) => WalOp::RegisterViewSpec {
                doc: entry.name().to_string(),
                group: group.to_string(),
                text: text.to_string(),
            },
        })?;
        let spec = Arc::new(spec);
        let slot = ViewSlot {
            renderer: Arc::new(ViewRenderer::new(spec.clone())),
            spec,
            generation: entry.next_view_generation(),
            source,
        };
        entry.views.write().insert(group.to_string(), slot);
        self.plans.purge_view(entry.id(), group);
        Ok(())
    }

    /// Plans `query` for `user` on `entry`: cache lookup first, full
    /// parse → rewrite → compile → optimize pipeline on a miss.
    pub(crate) fn plan_on(
        &self,
        entry: &Arc<DocumentEntry>,
        user: &User,
        query: &str,
    ) -> Result<Arc<Mfa>, EngineError> {
        Ok(self.plan_tracked(entry, user, query)?.0.mfa_arc().clone())
    }

    /// Like [`Engine::plan_on`], also reporting whether the plan was a
    /// cache hit.
    pub(crate) fn plan_tracked(
        &self,
        entry: &Arc<DocumentEntry>,
        user: &User,
        query: &str,
    ) -> Result<(Arc<CompiledMfa>, bool), EngineError> {
        // Resolve the view first: an unknown group must error even for
        // queries that were cached for other principals.
        let (spec, view_generation) = match user {
            User::Admin => (None, 0),
            User::Group(g) => {
                let (spec, generation) = entry.view_slot(g)?;
                (Some(spec), generation)
            }
        };
        // Plans of a dropped entry stay out of the shared cache: the drop
        // purged them, and sessions still bound to the entry must not
        // regrow residency for a document the catalog has forgotten.
        let cacheable = !entry.is_dropped();
        let key = PlanKey {
            entry_id: entry.id(),
            scope: PlanKey::scope_of(user, view_generation),
            query: query.to_string(),
        };
        if cacheable {
            if let Some(plan) = self.plans.get(&key) {
                return Ok((plan, true));
            }
        }
        let path = parse_path(query, &self.vocab)?;
        // Table compilation (ε-closures, subset DFAs, CSR rows, required
        // labels) happens exactly once per cached plan; every evaluation
        // of the plan — any session, batch lane or thread — reuses it.
        let mfa = Arc::new(self.plan_path(&path, spec.as_deref()));
        if cacheable {
            self.plans.insert(key, mfa.clone());
            // A concurrent drop_document may have marked the entry and
            // purged between the check above and the insert; whichever
            // side purges last wins, so re-checking here closes the race
            // (drop marks before it purges).
            if entry.is_dropped() {
                self.plans.purge_entry(entry.id());
            }
        }
        Ok((mfa, false))
    }

    /// Plans a parsed path for one principal: compiled as written for the
    /// admin (`spec` is `None`), rewritten over the view for a group, then
    /// optimized and table-compiled. What a plan-cache miss runs, and what
    /// every update target runs.
    fn plan_path(&self, path: &Path, spec: Option<&ViewSpec>) -> CompiledMfa {
        let mfa = match spec {
            None => compile(path, &self.vocab),
            Some(spec) => smoqe_rewrite::rewrite(path, spec),
        };
        CompiledMfa::from_arc(Arc::new(optimize(&mfa)))
    }

    // ------------------------------------------------------------------
    // Secure updates
    // ------------------------------------------------------------------

    /// Resolves an update's target path on a transaction's working state
    /// the way a query is answered: planned by [`Engine::plan_path`] and
    /// run by the DOM driver over `(doc, tax)`, so the TAX label and value
    /// indexes answer point targets. The plan stays out of the plan cache:
    /// each statement text is unique (it carries its fragment and
    /// literals), so caching targets would only evict read plans. For a
    /// group the plan
    /// is the target rewritten over the view: its answers are the source
    /// origins of the view nodes the target selects, so a hidden, a
    /// conditionally hidden and an absent target all resolve to nothing.
    fn resolve_targets(
        &self,
        doc: &Document,
        tax: Option<&TaxIndex>,
        target: &Path,
        spec: Option<&ViewSpec>,
    ) -> Vec<NodeId> {
        let plan = self.plan_path(target, spec);
        let mode = pick_mode(doc, tax, &plan, false);
        let options = DomOptions { tax };
        let (nodes, _) = evaluate_mfa_plan(doc, &plan, &options, mode, &mut NoopObserver);
        nodes.into_vec()
    }

    /// Applies a sequence of update statements to `entry` on behalf of
    /// `user`, **all-or-nothing**.
    ///
    /// * **Target resolution.** One resolver for every principal
    ///   (`Engine::resolve_targets`): the target path is planned like a
    ///   query — compiled for admins, **rewritten over the security view**
    ///   for group users — and evaluated on the transaction's working
    ///   document and TAX index. The view is never materialized: a group's
    ///   targets are the source origins of the view nodes its path selects
    ///   (`Q′(T) = Q(V(T))`), so a hidden node is never selected, and an
    ///   empty target set — whether the node is hidden, conditionally
    ///   hidden, or simply absent — yields the same opaque
    ///   [`EngineError::UpdateDenied`]. So does a statement after which the
    ///   view would no longer exist: the root lost the view root's label
    ///   ([`smoqe_view::materializable`]).
    /// * **Application.** Each statement's targets are applied as if
    ///   last-to-first (pre-order ids before an edit window are stable),
    ///   in one splice of the document's tables per statement, and the
    ///   TAX index is **incrementally patched** in one pass instead of
    ///   rebuilt (`smoqe_update::apply_update`).
    /// * **Counts.** Reports count the document as the principal sees it:
    ///   the source for admins, the view for groups. View counts are kept
    ///   per group under the entry's write lock and carried across every
    ///   accepted write by the view image of the top-level subtrees it
    ///   touched (see `crate::viewcount`) — not by recounting the view.
    /// * **Conformance.** The final document is validated against the
    ///   entry's DTD — only the transaction's dirty set (each edit's
    ///   splice parent and inserted nodes, see [`smoqe_xml::DirtySet`])
    ///   when the snapshot is known to conform, all of it otherwise.
    ///   Admins see the typed schema error; for group users it collapses
    ///   into `UpdateDenied` too — a validation message could describe
    ///   content the view hides.
    /// * **Installation.** Only after everything succeeded is the new
    ///   snapshot swapped in and the entry's generation bumped; cached
    ///   plans stay valid, since no plan depends on the document's
    ///   content (see [`crate::plancache`]). Writers are serialized
    ///   on the entry's write lock; readers keep evaluating on their old
    ///   snapshot throughout and are never blocked.
    pub(crate) fn apply_updates_on(
        &self,
        entry: &Arc<DocumentEntry>,
        user: &User,
        updates: &[&str],
    ) -> Result<Vec<UpdateReport>, EngineError> {
        let result = self.apply_updates_inner(entry, user, updates);
        self.tenants
            .record_update(user, updates.len(), result.as_ref().err());
        if result.is_ok() {
            // The periodic checkpoint cadence rides the update path (the
            // only high-frequency durable mutation).
            self.maybe_checkpoint();
        }
        result
    }

    pub(crate) fn apply_updates_inner(
        &self,
        entry: &Arc<DocumentEntry>,
        user: &User,
        updates: &[&str],
    ) -> Result<Vec<UpdateReport>, EngineError> {
        if updates.is_empty() {
            return Ok(Vec::new());
        }
        let mut writer = entry.write_serial.lock();
        let snapshot = entry.snapshot()?;
        let dtd = entry.dtd.read().clone();
        let mut doc: Arc<Document> = snapshot.doc.clone();
        let mut tax: Option<Arc<TaxIndex>> = snapshot.tax.clone();
        let mut reports = Vec::with_capacity(updates.len());
        let mut dirty = DirtySet::default();
        // One view for the whole transaction (group sessions only).
        let view = match user {
            User::Admin => None,
            User::Group(group) => Some((group.as_str(), entry.view_slot(group)?)),
        };
        let spec = view.as_ref().map(|(_, (spec, _))| spec.as_ref());
        // A write after which the group's view would not exist is opaquely
        // denied — a ViewError message is not part of the group update
        // contract. With a fixed spec that is a check of the root's label.
        let keeps_view = |doc: &Document| match spec {
            Some(spec) => materializable(spec, doc).map_err(|_| EngineError::UpdateDenied),
            None => Ok(()),
        };
        writer.resume(&doc, |group| entry.view_slot(group).ok().map(|(_, g)| g));
        // Group sessions never see source-side node counts: the report
        // counts the document *as the session sees it* (the view), or a
        // delete of a visible node with hidden descendants would leak how
        // many hidden nodes its subtree held. A count taken here describes
        // the installed document, so it is kept whatever the transaction
        // does; the ones carried below are kept only if it commits.
        let mut nodes_before = match &view {
            None => doc.node_count(),
            Some((group, (spec, generation))) => {
                keeps_view(&doc)?;
                writer.count(&doc, group, *generation, spec)
            }
        };
        let mut counts = writer.clone();
        for text in updates {
            let update = parse_update(text, &self.vocab)?;
            let targets = self.resolve_targets(&doc, tax.as_deref(), &update.target, spec);
            if targets.is_empty() {
                return Err(match user {
                    User::Admin => EngineError::Update(UpdateError::NoTarget),
                    User::Group(_) => EngineError::UpdateDenied,
                });
            }
            let (new_doc, new_tax, spans) =
                smoqe_update::apply_update(&doc, &update, &targets, tax.as_deref())?;
            keeps_view(&new_doc)?;
            let mut written = DirtySet::default();
            spans.iter().for_each(|span| written.record(span));
            let own = view.as_ref().map(|(group, _)| *group);
            counts.advance(&doc, &new_doc, &update, &targets, &written, own);
            dirty.append(&spans, written);
            doc = Arc::new(new_doc);
            tax = new_tax.map(Arc::new);
            let nodes_after = match &view {
                None => doc.node_count(),
                Some((group, _)) => counts.get(group),
            };
            reports.push(UpdateReport {
                applied: spans.len(),
                nodes_before,
                nodes_after,
                tax_patched: tax.is_some(),
                validated_nodes: 0,
            });
            nodes_before = nodes_after;
        }
        if let Some(dtd) = &dtd {
            // Only the final state is judged. Conformance is local, so on
            // a conforming snapshot the elements whose children this
            // transaction wrote decide it; an unmarked snapshot pays for
            // one whole-document pass, which marks the result.
            let checked = if snapshot.conforms {
                dtd.validate_nodes(&doc, dirty.nodes())
            } else {
                dtd.validate_nodes(&doc, doc.all_nodes())
            };
            let validated_nodes = checked.map_err(|e| match user {
                User::Admin => EngineError::Update(UpdateError::Schema(e)),
                // A schema message can describe hidden content; the view
                // user learns only that the write did not happen.
                User::Group(_) => EngineError::UpdateDenied,
            })?;
            if matches!(user, User::Admin) {
                for report in &mut reports {
                    report.validated_nodes = validated_nodes;
                }
            }
        }
        // Write-ahead: the accepted transaction is logged (statement
        // texts + acting principal) before the snapshot is installed. A
        // crash after this point recovers *with* the transaction; before
        // it, without — either way a prefix, never a torn document.
        self.durable_log(WalOp::Update {
            doc: entry.name().to_string(),
            group: match user {
                User::Admin => None,
                User::Group(g) => Some(g.clone()),
            },
            statements: updates.iter().map(|s| s.to_string()).collect(),
        })?;
        *writer = counts.describing(&doc);
        *entry.source.write() = Some(Arc::new(LoadedSource {
            doc,
            tax,
            conforms: dtd.is_some(),
        }));
        entry.bump_generation();
        Ok(reports)
    }

    /// Applies one admin update to the default document (single-document
    /// convenience; see [`DocHandle::update`]).
    pub fn update(&self, update: &str) -> Result<UpdateReport, EngineError> {
        let mut reports = self.apply_updates_on(&self.default_entry(), &User::Admin, &[update])?;
        Ok(reports.pop().expect("one statement yields one report"))
    }

    /// Evaluates each `(session, query)` request — possibly for different
    /// users, groups and views — against their (shared) document as
    /// **one batch**: one snapshot on a DOM engine, one sequential scan
    /// on a stream engine (see [`BatchAnswer`]).
    ///
    /// Every session must belong to this engine and target the same
    /// catalog entry; mixing documents or engines is a
    /// [`EngineError::BatchMismatch`] (one batch serves one document).
    /// Plans are resolved per request through the shared plan cache, so a
    /// busy serving mix pays at most one compilation per distinct
    /// `(scope, query)` pair.
    pub fn evaluate_batch(
        self: &Arc<Self>,
        requests: &[(&Session, &str)],
    ) -> Result<BatchAnswer, EngineError> {
        let Some((first, _)) = requests.first() else {
            return Ok(BatchAnswer {
                answers: Vec::new(),
                events: 0,
            });
        };
        let entry = &first.entry;
        let mut plans: Vec<Planned<'_>> = Vec::with_capacity(requests.len());
        for (session, query) in requests {
            if !Arc::ptr_eq(&session.engine, self) || !Arc::ptr_eq(&session.entry, entry) {
                return Err(EngineError::BatchMismatch);
            }
            let (plan, cached) = self.plan_tracked(entry, &session.user, query)?;
            plans.push((&session.user, plan, cached));
        }
        let result = self.execute(
            entry,
            &plans,
            false,
            &WorkBudget::unlimited(),
            &mut NoopObserver,
        );
        // Cross-session batches account each answer to its own tenant
        // (the per-session `query_batch` path records through
        // `record_batch` instead).
        match &result {
            Ok(batch) => {
                for ((session, _), answer) in requests.iter().zip(&batch.answers) {
                    self.tenants.record_query(&session.user, Ok(answer));
                }
            }
            Err(e) => {
                for (session, _) in requests {
                    self.tenants.record_query(&session.user, Err(e));
                }
            }
        }
        result
    }

    /// The one query pipeline: takes the entry's **one** source snapshot
    /// (document + TAX index travel together inside the `LoadedSource`),
    /// evaluates every plan against it under `budget`, and — only when
    /// `serialize` is set — renders each answer's XML from that same
    /// snapshot, safely for the plan's principal (raw subtrees for
    /// admins, the view image for groups).
    /// Node ids are only meaningful relative to the snapshot they were
    /// computed on, so nothing downstream may take another one.
    ///
    /// * A **DOM** engine picks scan or jump per plan ([`pick_mode`]) and
    ///   runs every plan through the one DOM driver, the plans
    ///   partitioned across [`EngineConfig::eval_threads`] scoped
    ///   workers — inline, with no thread spawned, when that is 1 or the
    ///   batch is a single plan. The source text is never opened.
    /// * A **stream** engine feeds every plan the same single StAX scan.
    ///
    /// `observer` watches single-plan evaluations (batch fronts pass
    /// [`NoopObserver`]). An interrupted evaluation surfaces the opaque
    /// [`EngineError::DeadlineExceeded`] / [`EngineError::Cancelled`];
    /// abandonment drops only evaluator-local state.
    fn execute(
        &self,
        entry: &Arc<DocumentEntry>,
        plans: &[Planned<'_>],
        serialize: bool,
        budget: &WorkBudget,
        observer: &mut dyn EvalObserver,
    ) -> Result<BatchAnswer, EngineError> {
        debug_assert!(plans.len() == 1 || observer.is_noop());
        if plans.is_empty() {
            return Ok(BatchAnswer {
                answers: Vec::new(),
                events: 0,
            });
        }
        let source = entry.snapshot()?;
        let mut events = 0;
        let mut answers: Vec<Answer> = match self.config.mode {
            DocumentMode::Dom => {
                let observed = !observer.is_noop();
                let mut answers: Vec<Answer> = plans
                    .iter()
                    .map(|(_, plan, cached)| Answer {
                        nodes: Vec::new(),
                        stats: EvalStats::default(),
                        plan_cached: *cached,
                        mode: pick_mode(&source.doc, source.tax.as_deref(), plan, observed),
                        xml: None,
                    })
                    .collect();
                let options = DomOptions {
                    tax: source.tax.as_deref(),
                };
                let walk = |plan: &CompiledMfa,
                            answer: &mut Answer,
                            observer: &mut dyn EvalObserver|
                 -> Result<(), EngineError> {
                    let (nodes, stats) = evaluate_mfa_plan_budgeted(
                        &source.doc,
                        plan,
                        &options,
                        answer.mode,
                        observer,
                        budget,
                    )
                    .map_err(|interrupt| EngineError::from(interrupt.kind))?;
                    answer.nodes = nodes.into_vec();
                    answer.stats = stats;
                    Ok(())
                };
                let threads = self.config.eval_threads.min(plans.len());
                if threads <= 1 {
                    for ((_, plan, _), answer) in plans.iter().zip(&mut answers) {
                        walk(plan, answer, &mut *observer)?;
                    }
                } else {
                    let mut pending: Vec<_> = plans.iter().zip(&mut answers).collect();
                    let chunk = pending.len().div_ceil(threads);
                    std::thread::scope(|scope| {
                        let workers: Vec<_> = pending
                            .chunks_mut(chunk)
                            .map(|lane| {
                                scope.spawn(|| {
                                    lane.iter_mut().try_for_each(|((_, plan, _), answer)| {
                                        walk(plan, answer, &mut NoopObserver)
                                    })
                                })
                            })
                            .collect();
                        workers
                            .into_iter()
                            .try_for_each(|worker| worker.join().expect("batch worker panicked"))
                    })?;
                }
                answers
            }
            DocumentMode::Stream => {
                // When XML is asked for, admin lanes buffer it during the
                // scan; group answers are rendered through their view from
                // the snapshot's DOM below (the raw buffered subtrees
                // would leak hidden descendants and be discarded anyway).
                // Node ids are mode-independent by the parity invariant.
                let lanes: Vec<(&CompiledMfa, StreamOptions)> = plans
                    .iter()
                    .map(|(user, plan, _)| {
                        let want_xml = serialize && matches!(user, User::Admin);
                        (plan.as_ref(), StreamOptions { want_xml })
                    })
                    .collect();
                let mut idle = vec![NoopObserver; plans.len() - 1];
                let mut observers: Vec<&mut dyn EvalObserver> = Vec::with_capacity(plans.len());
                observers.push(&mut *observer);
                observers.extend(idle.iter_mut().map(|o| o as &mut dyn EvalObserver));
                let outcome = evaluate_batch_stream_plans_budgeted(
                    source.doc.raw_source().as_bytes(),
                    &lanes,
                    &self.vocab,
                    &mut observers,
                    budget,
                )
                .map_err(|e| match e {
                    // Parse failures keep their detail; budget interrupts
                    // collapse to the opaque deadline/cancel variants.
                    DriverError::Xml(e) => EngineError::Xml(e),
                    DriverError::Interrupted(interrupt) => interrupt.kind.into(),
                })?;
                events = outcome.events;
                outcome
                    .outcomes
                    .into_iter()
                    .zip(plans)
                    .map(|(out, (_, _, cached))| Answer {
                        nodes: out.answers.into_iter().map(NodeId).collect(),
                        stats: out.stats,
                        plan_cached: *cached,
                        mode: ExecMode::Compiled,
                        xml: out.answer_xml,
                    })
                    .collect()
            }
        };
        if serialize {
            for ((user, _, _), answer) in plans.iter().zip(&mut answers) {
                if answer.xml.is_none() {
                    answer.xml = Some(render_xml(entry, user, &source, &answer.nodes, budget)?);
                }
            }
        }
        Ok(BatchAnswer { answers, events })
    }
}

/// Picks the DOM traversal for one plan over a document and the TAX index
/// built over it, from facts alone: jump when the index carries
/// positional lists for this document and the plan has a DFA to navigate
/// them ([`jump_available`]); otherwise the scan walker. Observed
/// evaluations always scan (a jump produces no per-node event stream for
/// the observer).
fn pick_mode(
    doc: &Document,
    tax: Option<&TaxIndex>,
    plan: &CompiledMfa,
    observed: bool,
) -> ExecMode {
    if !observed && jump_available(doc, plan, tax) {
        ExecMode::Jump
    } else {
        ExecMode::Compiled
    }
}

/// Serializes each answer node **safely for `user`**: the raw source
/// subtree for admins ([`smoqe_xml::serialize::write_subtree_into`]), the
/// view image for group members, written by the view's compiled
/// [`ViewRenderer`] (hidden descendants filtered out — serving the raw
/// subtree would leak them). Neither builds anything: each answer is
/// written into one reused buffer and copied out once, so a render
/// allocates one `String` per answer.
///
/// Rendering is metered against `budget` like evaluation, one tick per
/// node written: an interrupt is the same opaque
/// [`EngineError::DeadlineExceeded`] / [`EngineError::Cancelled`].
fn render_xml(
    entry: &Arc<DocumentEntry>,
    user: &User,
    source: &LoadedSource,
    nodes: &[NodeId],
    budget: &WorkBudget,
) -> Result<Vec<String>, EngineError> {
    let mut meter = budget.meter();
    let mut tick = || match meter.tick() {
        Some(interrupt) => Err(EngineError::from(interrupt)),
        None => Ok(()),
    };
    let renderer = match user {
        User::Admin => None,
        User::Group(group) => Some(entry.view_renderer(group)?),
    };
    let mut scratch = RenderScratch::default();
    let mut buffer = String::new();
    let mut answers = Vec::with_capacity(nodes.len());
    for &n in nodes {
        buffer.clear();
        match &renderer {
            None => {
                smoqe_xml::serialize::write_subtree_into(&source.doc, n, &mut buffer, &mut tick)?
            }
            Some(view) => view.render(&source.doc, n, &mut buffer, &mut scratch, &mut tick)?,
        }
        answers.push(buffer.as_str().to_owned());
    }
    Ok(answers)
}

impl Session {
    pub(crate) fn new(engine: Arc<Engine>, entry: Arc<DocumentEntry>, user: User) -> Self {
        Session {
            engine,
            entry,
            user,
        }
    }

    /// The session's user.
    pub fn user(&self) -> &User {
        &self.user
    }

    /// The catalog name of the document this session queries.
    pub fn document_name(&self) -> &str {
        self.entry.name()
    }

    /// The engine this session belongs to.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Plans one query (cached) and runs it through the engine's pipeline
    /// as a batch of one, accounting it to this session's tenant.
    fn run_one(
        &self,
        query: &str,
        serialize: bool,
        budget: &WorkBudget,
        observer: &mut dyn EvalObserver,
    ) -> Result<Answer, EngineError> {
        let result = self
            .engine
            .plan_tracked(&self.entry, &self.user, query)
            .and_then(|(plan, cached)| {
                self.engine.execute(
                    &self.entry,
                    &[(&self.user, plan, cached)],
                    serialize,
                    budget,
                    observer,
                )
            })
            .map(|mut batch| batch.answers.pop().expect("one plan in, one answer out"));
        self.engine
            .tenants
            .record_query(&self.user, result.as_ref());
        result
    }

    /// Plans a whole batch (cached) and runs it through the engine's
    /// pipeline, accounting it to this session's tenant.
    fn run_batch(
        &self,
        queries: &[&str],
        serialize: bool,
        budget: &WorkBudget,
    ) -> Result<BatchAnswer, EngineError> {
        let result = queries
            .iter()
            .map(|query| {
                let (plan, cached) = self.engine.plan_tracked(&self.entry, &self.user, query)?;
                Ok((&self.user, plan, cached))
            })
            .collect::<Result<Vec<Planned<'_>>, EngineError>>()
            .and_then(|plans| {
                self.engine
                    .execute(&self.entry, &plans, serialize, budget, &mut NoopObserver)
            });
        self.engine
            .tenants
            .record_batch(&self.user, queries.len(), result.as_ref());
        result
    }

    /// Answers a Regular XPath query. Group sessions are rewritten through
    /// their view; admin sessions run directly on the document.
    pub fn query(&self, query: &str) -> Result<Answer, EngineError> {
        self.query_observed(query, &mut NoopObserver)
    }

    /// Like [`Session::query`], reporting evaluation events to `observer`
    /// (the iSMOQE monitoring hook).
    pub fn query_observed(
        &self,
        query: &str,
        observer: &mut dyn EvalObserver,
    ) -> Result<Answer, EngineError> {
        self.run_one(query, false, &WorkBudget::unlimited(), observer)
    }

    /// Answers a whole batch of queries against **one snapshot** of the
    /// document — evaluated on the tree by a DOM engine, in one shared
    /// sequential scan by a stream engine (see [`BatchAnswer`]). Answers
    /// come back in query order, each identical to what
    /// [`Session::query`] would have returned.
    pub fn query_batch(&self, queries: &[&str]) -> Result<BatchAnswer, EngineError> {
        self.query_batch_budgeted(queries, &WorkBudget::unlimited())
    }

    /// [`Session::query_batch`] under a [`WorkBudget`] shared by every
    /// plan in the batch (one snapshot, one deadline).
    pub fn query_batch_budgeted(
        &self,
        queries: &[&str],
        budget: &WorkBudget,
    ) -> Result<BatchAnswer, EngineError> {
        self.run_batch(queries, false, budget)
    }

    /// Like [`Session::query`], with `xml` always filled **safely for
    /// this principal**: raw source subtrees for admin sessions, the view
    /// image (hidden descendants filtered) for group sessions — the
    /// answer and its serialization come from one source snapshot. This
    /// is the evaluation the network server runs for the `Query` op: a
    /// remote client only ever receives what [`Session::query_xml`] would
    /// have shown it.
    pub fn query_serialized(&self, query: &str) -> Result<Answer, EngineError> {
        self.query_serialized_budgeted(query, &WorkBudget::unlimited())
    }

    /// [`Session::query_serialized`] under a [`WorkBudget`] — the serving
    /// path for requests carrying a deadline or a cancel token. An
    /// interrupted evaluation surfaces the opaque
    /// [`EngineError::DeadlineExceeded`] / [`EngineError::Cancelled`]
    /// within one budget check interval of the trigger.
    pub fn query_serialized_budgeted(
        &self,
        query: &str,
        budget: &WorkBudget,
    ) -> Result<Answer, EngineError> {
        self.run_one(query, true, budget, &mut NoopObserver)
    }

    /// Like [`Session::query_batch`], with every answer's `xml` filled
    /// safely for this principal (see [`Session::query_serialized`]),
    /// rendered from the same snapshot the batch was evaluated on.
    pub fn query_batch_serialized(&self, queries: &[&str]) -> Result<BatchAnswer, EngineError> {
        self.query_batch_serialized_budgeted(queries, &WorkBudget::unlimited())
    }

    /// [`Session::query_batch_serialized`] under a [`WorkBudget`] shared
    /// by the whole batch.
    pub fn query_batch_serialized_budgeted(
        &self,
        queries: &[&str],
        budget: &WorkBudget,
    ) -> Result<BatchAnswer, EngineError> {
        self.run_batch(queries, true, budget)
    }

    /// The compiled/rewritten (and possibly cached) MFA for a query, for
    /// inspection.
    pub fn plan(&self, query: &str) -> Result<Arc<Mfa>, EngineError> {
        self.engine.plan_on(&self.entry, &self.user, query)
    }

    /// Applies one update statement (`insert <f> into|before|after p`,
    /// `delete p`, `replace p with <f>`) **subject to this session's
    /// access policy**.
    ///
    /// Admin sessions mutate the document directly. Group sessions
    /// resolve the target path against their security view, so an update
    /// can only ever touch nodes the session may read; a statement whose
    /// target is hidden, conditionally hidden, or non-existent fails with
    /// the same opaque [`EngineError::UpdateDenied`] — denials do not
    /// reveal whether anything matched. Accepted updates incrementally
    /// patch the TAX index, bump only this document's generation (every
    /// cached plan stays valid) and never block
    /// concurrent readers, which finish on their pre-update snapshot.
    pub fn update(&self, update: &str) -> Result<UpdateReport, EngineError> {
        let mut reports = self
            .engine
            .apply_updates_on(&self.entry, &self.user, &[update])?;
        Ok(reports.pop().expect("one statement yields one report"))
    }

    /// Applies a sequence of update statements **transactionally** under
    /// this session's policy: each statement resolves against the
    /// document (and view) as left by the previous one, and any failure —
    /// including a denial of a later statement — installs nothing (see
    /// [`DocHandle::update_batch`] for the admin counterpart).
    pub fn update_batch(&self, updates: &[&str]) -> Result<Vec<UpdateReport>, EngineError> {
        self.engine
            .apply_updates_on(&self.entry, &self.user, updates)
    }

    /// Answers a query and serializes each answer **safely for this
    /// session**: admin sessions get the raw source subtrees, group
    /// sessions get the *view image* of each answer node (hidden
    /// descendants filtered out — serializing the raw subtree would leak
    /// them).
    pub fn query_xml(&self, query: &str) -> Result<Vec<String>, EngineError> {
        let answer = self.query_serialized(query)?;
        Ok(answer.xml.expect("serialized answers carry their xml"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{hospital, org};

    fn engine_with_sample() -> Arc<Engine> {
        let engine = Engine::with_defaults();
        engine.load_dtd(smoqe_xml::HOSPITAL_DTD).unwrap();
        engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        engine
            .register_policy("researchers", smoqe_view::HOSPITAL_POLICY)
            .unwrap();
        engine
    }

    /// Renders `nodes` for `user` on the default document under `budget`.
    fn render_under(
        engine: &Arc<Engine>,
        user: &User,
        nodes: &[NodeId],
        budget: &WorkBudget,
    ) -> Result<Vec<String>, EngineError> {
        let entry = engine.default_entry();
        let source = entry.snapshot().unwrap();
        render_xml(&entry, user, &source, nodes, budget)
    }

    #[test]
    fn an_expired_budget_at_render_time_is_a_deadline() {
        let engine = engine_with_sample();
        let expired = WorkBudget {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            cancel: None,
            check_interval: 1,
        };
        for (user, query) in [
            (User::Admin, "//patient"),
            (User::Group("researchers".into()), "hospital/patient"),
        ] {
            let nodes = engine.session(user.clone()).query(query).unwrap().nodes;
            assert!(!nodes.is_empty(), "`{query}` answers");
            assert!(matches!(
                render_under(&engine, &user, &nodes, &expired),
                Err(EngineError::DeadlineExceeded)
            ));
            let cancelled = WorkBudget {
                check_interval: 1,
                ..WorkBudget::with_cancel(Arc::new(std::sync::atomic::AtomicBool::new(true)))
            };
            assert!(matches!(
                render_under(&engine, &user, &nodes, &cancelled),
                Err(EngineError::Cancelled)
            ));
        }
    }

    #[test]
    fn a_generous_budget_renders_the_unlimited_bytes() {
        let engine = engine_with_sample();
        let generous = WorkBudget {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
            cancel: Some(Arc::new(std::sync::atomic::AtomicBool::new(false))),
            check_interval: 1,
        };
        for (user, query) in [
            (User::Admin, "//patient"),
            (User::Group("researchers".into()), "hospital/patient"),
        ] {
            let session = engine.session(user.clone());
            let nodes = session.query(query).unwrap().nodes;
            let unlimited = render_under(&engine, &user, &nodes, &WorkBudget::unlimited()).unwrap();
            assert_eq!(
                render_under(&engine, &user, &nodes, &generous).unwrap(),
                unlimited
            );
            assert_eq!(session.query_xml(query).unwrap(), unlimited);
        }
    }

    #[test]
    fn admin_sees_everything() {
        let engine = engine_with_sample();
        let admin = engine.session(User::Admin);
        let names = admin.query("hospital/patient/pname").unwrap();
        assert!(names.len() >= 2);
    }

    #[test]
    fn group_queries_are_rewritten() {
        let engine = engine_with_sample();
        let session = engine.session(User::Group("researchers".into()));
        // pname is hidden from the view.
        assert!(session.query("//pname").unwrap().is_empty());
        // treatments of autism patients are visible.
        let meds = session
            .query("hospital/patient/treatment/medication")
            .unwrap();
        assert!(!meds.is_empty());
    }

    #[test]
    fn unknown_group_is_an_error() {
        let engine = engine_with_sample();
        let session = engine.session(User::Group("nosuch".into()));
        assert!(matches!(
            session.query("hospital"),
            Err(EngineError::UnknownGroup(_))
        ));
    }

    #[test]
    fn tax_round_trip_through_engine() {
        let engine = engine_with_sample();
        engine.build_tax_index().unwrap();
        let dir = std::env::temp_dir().join("smoqe-core-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.tax");
        engine.save_tax_index(&path).unwrap();
        engine.load_tax_index(&path).unwrap();
        assert!(engine.tax_index().is_some());
        std::fs::remove_file(&path).ok();
        // Query still correct with the loaded index.
        let admin = engine.session(User::Admin);
        assert!(!admin.query("//medication").unwrap().is_empty());
    }

    #[test]
    fn stream_mode_agrees_with_dom_mode() {
        let dom = engine_with_sample();
        let stream = Engine::new(EngineConfig::streaming());
        stream.load_dtd(smoqe_xml::HOSPITAL_DTD).unwrap();
        stream.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        stream
            .register_policy("researchers", smoqe_view::HOSPITAL_POLICY)
            .unwrap();
        for q in ["//medication", "hospital/patient/treatment"] {
            let a = dom
                .session(User::Group("researchers".into()))
                .query(q)
                .unwrap();
            let b = stream
                .session(User::Group("researchers".into()))
                .query_serialized(q)
                .unwrap();
            assert_eq!(a.nodes, b.nodes, "query {q}");
            assert!(b.xml.is_some());
        }
    }

    #[test]
    fn hand_authored_view_spec_mode() {
        let engine = engine_with_sample();
        engine
            .register_view_spec(
                "meds-only",
                "<!ELEMENT hospital (medication*)>\n\
                 <!ELEMENT medication (#PCDATA)>\n\
                 sigma(hospital, medication) = patient/visit/treatment/medication\n",
            )
            .unwrap();
        let session = engine.session(User::Group("meds-only".into()));
        let meds = session.query("hospital/medication").unwrap();
        assert_eq!(meds.len(), 4); // all four medications in the sample
        assert!(session.query("//patient").unwrap().is_empty());
    }

    #[test]
    fn plan_exposes_rewritten_mfa() {
        let engine = engine_with_sample();
        let session = engine.session(User::Group("researchers".into()));
        let mfa = session.plan("hospital/patient/treatment").unwrap();
        // The rewritten automaton navigates through hidden `visit` nodes.
        let vocab = engine.vocabulary();
        let visit = vocab.lookup("visit").unwrap();
        let uses_visit = mfa.nfas().any(|(_, nfa)| {
            nfa.states().any(|s| {
                nfa.transitions(s).iter().any(|t| {
                    t.test.matches(visit) && !matches!(t.test, smoqe_automata::LabelTest::Wildcard)
                })
            })
        });
        assert!(uses_visit, "rewritten plan should traverse visit");
    }

    #[test]
    fn loading_new_document_invalidates_index() {
        let engine = engine_with_sample();
        engine.build_tax_index().unwrap();
        assert!(engine.tax_index().is_some());
        engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        assert!(engine.tax_index().is_none());
    }

    #[test]
    fn catalog_serves_multiple_documents_and_groups() {
        let engine = Engine::with_defaults();
        let hosp = engine.open_document("hospital");
        hosp.load_dtd(hospital::DTD).unwrap();
        hosp.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        hosp.register_policy("researchers", hospital::POLICY)
            .unwrap();
        let orgdoc = engine.open_document("org");
        orgdoc.load_dtd(org::DTD).unwrap();
        orgdoc.load_document(org::SAMPLE_DOCUMENT).unwrap();
        orgdoc.register_policy("staff", org::POLICY).unwrap();

        assert_eq!(engine.document_names(), vec!["hospital", "org"]);

        let meds = hosp
            .session(User::Group("researchers".into()))
            .query("//medication")
            .unwrap();
        assert!(!meds.is_empty());
        let salaries = orgdoc
            .session(User::Group("staff".into()))
            .query("//salary")
            .unwrap();
        assert!(salaries.is_empty(), "salaries are confidential");
        // Groups are per document: the hospital group does not exist on
        // the org document.
        assert!(matches!(
            engine
                .session_on("org", User::Group("researchers".into()))
                .unwrap()
                .query("//emp"),
            Err(EngineError::UnknownGroup(_))
        ));
        // Dropping a document forgets it.
        assert!(engine.drop_document("org"));
        assert!(engine.session_on("org", User::Admin).is_err());
        assert!(matches!(
            engine.document_handle("org"),
            Err(EngineError::UnknownDocument(_))
        ));
    }

    #[test]
    fn repeated_queries_hit_the_plan_cache() {
        let engine = engine_with_sample();
        let session = engine.session(User::Group("researchers".into()));
        let first = session.query("//medication").unwrap();
        assert!(!first.plan_cached);
        let second = session.query("//medication").unwrap();
        assert!(second.plan_cached);
        assert_eq!(first.nodes, second.nodes);
        let m = engine.cache_metrics();
        assert!(m.hits >= 1, "{m:?}");
        assert!(m.entries >= 1, "{m:?}");
    }

    #[test]
    fn document_replacement_keeps_cached_plans() {
        let engine = engine_with_sample();
        let query = "//treatment[medication/text() = 'autism']";
        let session = engine.session(User::Admin);
        assert_eq!(session.query(query).unwrap().len(), 2);
        assert!(session.query(query).unwrap().plan_cached);
        let generation = engine
            .document_handle(DEFAULT_DOCUMENT)
            .unwrap()
            .generation();
        engine
            .load_document(&hospital::SAMPLE_DOCUMENT.replace("headache", "autism"))
            .unwrap();
        engine.load_dtd(hospital::DTD).unwrap();
        let doc = engine.document_handle(DEFAULT_DOCUMENT).unwrap();
        assert!(doc.generation() > generation);
        // The plan cached before the reload and the DTD load is still a
        // hit, and answers the new document.
        let after = session.query(query).unwrap();
        assert!(after.plan_cached, "a reload keeps the cached plan");
        assert_eq!(after.len(), 4);
        assert_eq!(engine.cache_metrics().invalidations, 0);
    }

    #[test]
    fn view_reregistration_invalidates_only_that_group() {
        let engine = engine_with_sample();
        let researchers = engine.session(User::Group("researchers".into()));
        let admin = engine.session(User::Admin);
        researchers.query("//medication").unwrap();
        admin.query("//medication").unwrap();
        engine
            .register_policy("researchers", hospital::POLICY)
            .unwrap();
        assert!(
            !researchers.query("//medication").unwrap().plan_cached,
            "re-registration must invalidate the group's plans"
        );
        assert!(
            admin.query("//medication").unwrap().plan_cached,
            "admin plans are untouched by a view change"
        );
    }

    #[test]
    fn query_batch_agrees_with_serial_queries() {
        let dom_at = |eval_threads| EngineConfig {
            eval_threads,
            ..EngineConfig::default()
        };
        let configs = [1, 2, 4, 8]
            .map(dom_at)
            .into_iter()
            .chain([EngineConfig::streaming()]);
        for config in configs {
            let engine = Engine::new(config);
            engine.load_dtd(smoqe_xml::HOSPITAL_DTD).unwrap();
            engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
            engine
                .register_policy("researchers", smoqe_view::HOSPITAL_POLICY)
                .unwrap();
            let session = engine.session(User::Group("researchers".into()));
            let queries: Vec<&str> = hospital::VIEW_QUERIES.iter().map(|(_, q)| *q).collect();
            let batch = session.query_batch(&queries).unwrap();
            assert_eq!(batch.answers.len(), queries.len());
            for (q, batched) in queries.iter().zip(&batch.answers) {
                let serial = session.query(q).unwrap();
                assert_eq!(batched.nodes, serial.nodes, "batched `{q}` diverged");
                assert_eq!(batched.xml, serial.xml, "xml of batched `{q}` diverged");
            }
            let single = session.query_batch(&queries[..1]).unwrap();
            match config.mode {
                // A DOM engine evaluates on its snapshot: nothing is
                // parsed, at any thread count.
                DocumentMode::Dom => {
                    assert_eq!(batch.events, 0, "@{} threads", config.eval_threads);
                    assert_eq!(single.events, 0);
                }
                // The scan is shared: a batch of one reports the same
                // event count as the full batch.
                DocumentMode::Stream => {
                    assert!(batch.events > 0);
                    assert_eq!(batch.events, single.events, "batch must not re-scan");
                }
            }
        }
    }

    #[test]
    fn query_batch_filters_view_xml_in_stream_mode() {
        let engine = Engine::new(EngineConfig::streaming());
        engine.load_dtd(org::DTD).unwrap();
        engine.load_document(org::SAMPLE_DOCUMENT).unwrap();
        engine.register_policy("staff", org::POLICY).unwrap();
        let session = engine.session(User::Group("staff".into()));
        let batch = session
            .query_batch_serialized(&["//review", "//ename"])
            .unwrap();
        let reviews = batch.answers[0].xml.as_ref().unwrap();
        assert_eq!(reviews.len(), 2);
        for xml in reviews {
            assert!(xml.contains("public") && !xml.contains("private"));
        }
    }

    #[test]
    fn cross_session_batch_spans_groups_but_not_documents() {
        let engine = Engine::with_defaults();
        let hosp = engine.open_document("hospital");
        hosp.load_dtd(hospital::DTD).unwrap();
        hosp.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        hosp.register_policy("researchers", hospital::POLICY)
            .unwrap();
        let admin = hosp.session(User::Admin);
        let researcher = hosp.session(User::Group("researchers".into()));
        let requests: Vec<(&Session, &str)> = vec![
            (&admin, "//pname"),
            (&researcher, "//pname"),
            (&admin, "//medication"),
            (&researcher, "//medication"),
        ];
        let batch = engine.evaluate_batch(&requests).unwrap();
        for ((session, q), batched) in requests.iter().zip(&batch.answers) {
            assert_eq!(
                batched.nodes,
                session.query(q).unwrap().nodes,
                "cross-session batch diverged on `{q}` as {:?}",
                session.user()
            );
        }
        // Admin sees names, the researcher view hides them — in one batch.
        assert!(!batch.answers[0].is_empty());
        assert!(batch.answers[1].is_empty());

        // A second document cannot ride the same scan.
        let orgdoc = engine.open_document("org");
        org::install_sample(&orgdoc).unwrap();
        let org_admin = orgdoc.session(User::Admin);
        assert!(matches!(
            engine.evaluate_batch(&[(&admin, "//pname"), (&org_admin, "//ename")]),
            Err(EngineError::BatchMismatch)
        ));
        // Nor can a session of a different engine.
        let other = Engine::with_defaults();
        other.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        let foreign = other.session(User::Admin);
        assert!(matches!(
            engine.evaluate_batch(&[(&admin, "//pname"), (&foreign, "//pname")]),
            Err(EngineError::BatchMismatch)
        ));

        let empty = engine.evaluate_batch(&[]).unwrap();
        assert!(empty.answers.is_empty());
        assert_eq!(empty.events, 0);
    }

    #[test]
    fn admin_updates_mutate_the_document() {
        let engine = engine_with_sample();
        let doc = engine.document_handle(DEFAULT_DOCUMENT).unwrap();
        let admin = engine.session(User::Admin);
        let before = admin.query("//patient").unwrap().len();
        let report = doc
            .update(
                "insert <patient><pname>Zoe</pname>\
                 <visit><treatment><medication>autism</medication></treatment>\
                 <date>2006-06-01</date></visit></patient> into hospital",
            )
            .unwrap();
        assert_eq!(report.applied, 1);
        assert!(report.nodes_after > report.nodes_before);
        assert_eq!(admin.query("//patient").unwrap().len(), before + 1);
        assert_eq!(
            admin
                .query("hospital/patient[pname = 'Zoe']")
                .unwrap()
                .len(),
            1
        );

        // delete + replace round out the primitives.
        doc.update("replace hospital/patient[pname = 'Zoe']/pname with <pname>Zed</pname>")
            .unwrap();
        assert!(admin.query("//patient[pname = 'Zoe']").unwrap().is_empty());
        doc.update("delete hospital/patient[pname = 'Zed']")
            .unwrap();
        assert_eq!(admin.query("//patient").unwrap().len(), before);
    }

    #[test]
    fn updates_are_dtd_checked() {
        let engine = engine_with_sample();
        let doc = engine.document_handle(DEFAULT_DOCUMENT).unwrap();
        // A patient inside a treatment violates the hospital DTD.
        let err = doc
            .update("insert <patient><pname>X</pname></patient> into //treatment")
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Update(smoqe_update::UpdateError::Schema(_))
        ));
        // Nothing was installed.
        let admin = engine.session(User::Admin);
        assert!(admin.query("//treatment/patient").unwrap().is_empty());
    }

    #[test]
    fn group_updates_go_through_the_view() {
        let engine = engine_with_sample();
        let session = engine.session(User::Group("researchers".into()));
        // Accessible target (a visible medication), view-side path.
        let report = session
            .update("replace hospital/patient/treatment/medication with <medication>autism</medication>")
            .unwrap();
        assert!(report.applied >= 1);
        // Hidden target and non-existent target: the SAME opaque denial.
        let hidden = session.update("delete //pname").unwrap_err();
        let missing = session.update("delete //nonexistent-thing").unwrap_err();
        assert!(matches!(hidden, EngineError::UpdateDenied));
        assert!(matches!(missing, EngineError::UpdateDenied));
        assert_eq!(hidden.to_string(), missing.to_string());
        // Schema violations are opaque for groups too.
        let invalid = session
            .update("insert <medication>x</medication> into hospital/patient/treatment")
            .unwrap_err();
        assert!(matches!(invalid, EngineError::UpdateDenied));
        // The document is intact after every denial.
        let admin = engine.session(User::Admin);
        assert!(!admin.query("//pname").unwrap().is_empty());
    }

    #[test]
    fn update_bumps_only_the_affected_documents_generation() {
        let engine = Engine::with_defaults();
        let hosp = engine.open_document("hospital");
        hospital::install_sample(&hosp).unwrap();
        let orgdoc = engine.open_document("org");
        org::install_sample(&orgdoc).unwrap();
        let hosp_admin = hosp.session(User::Admin);
        let org_admin = orgdoc.session(User::Admin);
        hosp_admin.query("//medication").unwrap();
        org_admin.query("//salary").unwrap();
        assert!(hosp_admin.query("//medication").unwrap().plan_cached);
        assert!(org_admin.query("//salary").unwrap().plan_cached);

        let (hosp_generation, org_generation) = (hosp.generation(), orgdoc.generation());
        let medications = hosp_admin.query("//medication").unwrap().len();
        hosp.update("delete hospital/patient[pname = 'Bob']")
            .unwrap();
        assert!(hosp.generation() > hosp_generation);
        assert_eq!(orgdoc.generation(), org_generation);

        // Both documents' plans survive the write; the updated document's
        // plan answers the post-write document.
        let after = hosp_admin.query("//medication").unwrap();
        assert!(after.plan_cached, "a write keeps the cached plan");
        assert_eq!(after.len(), medications - 1, "Bob's one medication is gone");
        assert!(org_admin.query("//salary").unwrap().plan_cached);
        assert_eq!(engine.cache_metrics().invalidations, 0);
    }

    #[test]
    fn update_patches_the_tax_index_incrementally() {
        let engine = engine_with_sample();
        engine.build_tax_index().unwrap();
        let doc = engine.document_handle(DEFAULT_DOCUMENT).unwrap();
        let report = doc
            .update("insert <visit><treatment><test>mri</test></treatment><date>d</date></visit> into hospital/patient[pname = 'Bob']")
            .unwrap();
        assert!(report.tax_patched, "the index must ride along");
        let tax = engine.tax_index().expect("index survives the update");
        let current = engine.document().unwrap();
        assert_eq!(tax.node_count(), current.node_count());
        // The patched index equals a rebuild, node for node.
        let rebuilt = TaxIndex::build(&current);
        for n in current.all_nodes() {
            assert_eq!(
                tax.descendant_labels(n).iter().collect::<Vec<_>>(),
                rebuilt.descendant_labels(n).iter().collect::<Vec<_>>()
            );
        }
        // And TAX-pruned answers stay correct.
        let admin = engine.session(User::Admin);
        assert_eq!(admin.query("//test").unwrap().len(), 2);
    }

    #[test]
    fn update_batch_is_all_or_nothing() {
        let engine = engine_with_sample();
        let doc = engine.document_handle(DEFAULT_DOCUMENT).unwrap();
        let before = engine.document().unwrap().to_xml();
        let err = doc
            .update_batch(&[
                "delete hospital/patient[pname = 'Bob']",
                "delete //no-such-element",
            ])
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Update(smoqe_update::UpdateError::NoTarget)
        ));
        assert_eq!(
            engine.document().unwrap().to_xml(),
            before,
            "a failing batch must install nothing"
        );
        // A good batch applies in order: the second statement sees the
        // first one's effect.
        let reports = doc
            .update_batch(&[
                "insert <patient><pname>New</pname><visit><treatment><test>blood</test>\
                 </treatment><date>d</date></visit></patient> into hospital",
                "replace hospital/patient[pname = 'New']/pname with <pname>Renamed</pname>",
            ])
            .unwrap();
        assert_eq!(reports.len(), 2);
        let admin = engine.session(User::Admin);
        assert_eq!(
            admin.query("//patient[pname = 'Renamed']").unwrap().len(),
            1
        );
        assert!(admin.query("//patient[pname = 'New']").unwrap().is_empty());
    }

    #[test]
    fn updates_serve_stream_mode_sessions_too() {
        let engine = Engine::new(EngineConfig::streaming());
        engine.load_dtd(smoqe_xml::HOSPITAL_DTD).unwrap();
        engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        engine
            .register_policy("researchers", smoqe_view::HOSPITAL_POLICY)
            .unwrap();
        engine
            .update("delete hospital/patient[pname = 'Cal']")
            .unwrap();
        // Streaming needs a raw source: the update must have regenerated it.
        let admin = engine.session(User::Admin);
        let answer = admin.query_serialized("//patient").unwrap();
        assert_eq!(answer.len(), 3); // Ann, Pat (nested), Bob
        assert!(answer.xml.is_some(), "stream mode serializes answers");
    }

    #[test]
    fn update_on_an_empty_entry_is_no_document() {
        let engine = Engine::with_defaults();
        let doc = engine.open_document("empty");
        assert!(matches!(
            doc.update("delete //x"),
            Err(EngineError::NoDocument)
        ));
    }

    /// A default engine over a generated 4 000-node hospital document
    /// (`test` is rare in it, `patient` blankets it), without an index.
    fn engine_with_generated() -> Arc<Engine> {
        let engine = Engine::with_defaults();
        engine.load_dtd(smoqe_xml::HOSPITAL_DTD).unwrap();
        let doc = hospital::generate_document(engine.vocabulary(), 9, 4_000);
        engine.load_document_tree(doc).unwrap();
        engine
    }

    #[test]
    fn queries_jump_once_an_index_exists_unless_observed_and_report_it() {
        let engine = engine_with_generated();
        let admin = engine.session(User::Admin);
        // No TAX index yet: no positional lists, so everything scans.
        let scanned = admin.query("//test").unwrap();
        assert_eq!(scanned.mode, ExecMode::Compiled);
        let scanned_patients = admin.query("//patient").unwrap();
        assert_eq!(scanned_patients.mode, ExecMode::Compiled);
        engine.build_tax_index().unwrap();
        // With the index every DFA plan jumps, rare label or not, and
        // answers what the scan answered.
        let jumped = admin.query("//test").unwrap();
        assert_eq!(jumped.mode, ExecMode::Jump, "indexed queries jump");
        assert_eq!(jumped.nodes, scanned.nodes);
        assert!(
            jumped.stats.nodes_visited <= scanned.stats.nodes_visited,
            "jump visited {} > scan {}",
            jumped.stats.nodes_visited,
            scanned.stats.nodes_visited
        );
        // `//patient` blankets the document and jumps all the same.
        let patients = admin.query("//patient").unwrap();
        assert_eq!(patients.mode, ExecMode::Jump);
        assert_eq!(patients.nodes, scanned_patients.nodes);
        // An observer needs the per-node event stream: observed queries
        // scan, index or not.
        let mut trace = smoqe_viz::TraceCollector::new();
        let observed = admin.query_observed("//test", &mut trace).unwrap();
        assert_eq!(observed.mode, ExecMode::Compiled);
        assert_eq!(observed.nodes, jumped.nodes);
    }

    #[test]
    fn guarded_and_rewritten_plans_jump_with_reference_answers() {
        let engine = engine_with_generated();
        engine
            .register_policy("researchers", smoqe_view::HOSPITAL_POLICY)
            .unwrap();
        engine.build_tax_index().unwrap();
        let doc = engine.document().unwrap();
        let reference = |q: &str| {
            let path = parse_path(q, engine.vocabulary()).unwrap();
            smoqe_rxpath::evaluate(&doc, &path).into_vec()
        };
        let admin = engine.session(User::Admin);
        // Predicated plans jump too (guard-stripped DFA + exact
        // re-verification at candidates); answers stay correct.
        let q = "//visit[treatment/test = 'mri']/date";
        let guarded = admin.query(q).unwrap();
        assert_eq!(guarded.mode, ExecMode::Jump);
        assert!(!guarded.is_empty());
        assert_eq!(guarded.nodes, reference(q));
        // Rewritten (view) plans ride the same pick transparently.
        let group = engine.session(User::Group("researchers".into()));
        let view = engine.materialize_view("researchers").unwrap();
        for (_, q) in hospital::VIEW_QUERIES {
            let path = parse_path(q, engine.vocabulary()).unwrap();
            let expected = view.origins_of(smoqe_rxpath::evaluate(&view.doc, &path).iter());
            assert_eq!(group.query(q).unwrap().nodes, expected, "view query `{q}`");
        }
    }

    #[test]
    fn the_target_resolver_answers_what_the_naive_oracles_answer() {
        // One resolver for every principal: an admin's targets are what
        // `smoqe_rxpath::evaluate` selects on the document, a group's the
        // origins of what it selects on the materialized view — whether
        // the plan scans or jumps on the TAX index.
        let engine = engine_with_generated();
        engine
            .register_policy("researchers", smoqe_view::HOSPITAL_POLICY)
            .unwrap();
        let spec = engine.view("researchers").unwrap();
        let targets = hospital::DOC_QUERIES
            .iter()
            .chain(hospital::VIEW_QUERIES)
            .map(|(_, q)| *q)
            .chain([
                "hospital",
                "hospital/patient[pname = 'Ann']/visit",
                "hospital/patient[treatment/medication = 'flu']",
                "//visit[treatment/test = 'mri']/date",
                "//nothing",
            ]);
        for indexed in [false, true] {
            if indexed {
                engine.build_tax_index().unwrap();
            }
            let doc = engine.document().unwrap();
            let tax = engine.tax_index();
            let view = materialize(&spec, &doc).unwrap();
            for q in targets.clone() {
                let path = parse_path(q, engine.vocabulary()).unwrap();
                assert_eq!(
                    engine.resolve_targets(&doc, tax.as_deref(), &path, None),
                    smoqe_rxpath::evaluate(&doc, &path).into_vec(),
                    "admin `{q}`, indexed: {indexed}"
                );
                assert_eq!(
                    engine.resolve_targets(&doc, tax.as_deref(), &path, Some(&spec)),
                    view.origins_of(smoqe_rxpath::evaluate(&view.doc, &path).iter()),
                    "group `{q}`, indexed: {indexed}"
                );
            }
        }
    }

    #[test]
    fn parallel_dom_batch_agrees_with_serial_and_merges_stats() {
        let queries: Vec<&str> = hospital::DOC_QUERIES.iter().map(|(_, q)| *q).collect();
        let serial = {
            let engine = engine_with_sample();
            engine.build_tax_index().unwrap();
            engine.session(User::Admin).query_batch(&queries).unwrap()
        };
        for threads in [2, 4] {
            let engine = Engine::new(EngineConfig {
                eval_threads: threads,
                ..EngineConfig::default()
            });
            engine.load_dtd(smoqe_xml::HOSPITAL_DTD).unwrap();
            engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
            engine.build_tax_index().unwrap();
            let session = engine.session(User::Admin);
            let batch = session.query_batch(&queries).unwrap();
            assert_eq!(batch.events, 0, "a DOM batch does not parse");
            assert_eq!(batch.answers.len(), serial.answers.len());
            for ((q, serial_answer), parallel_answer) in
                queries.iter().zip(&serial.answers).zip(&batch.answers)
            {
                assert_eq!(
                    parallel_answer.nodes, serial_answer.nodes,
                    "parallel batch diverged on `{q}` at {threads} threads"
                );
                // Each parallel answer equals what a lone query returns.
                assert_eq!(parallel_answer.nodes, session.query(q).unwrap().nodes);
            }
            let merged = batch.merged_stats();
            assert_eq!(
                merged.nodes_visited,
                batch
                    .answers
                    .iter()
                    .map(|a| a.stats.nodes_visited)
                    .sum::<usize>()
            );
            assert_eq!(merged.tree_passes, queries.len());
        }
    }

    #[test]
    fn loaded_tax_index_reattaches_the_positional_lists() {
        let engine = engine_with_generated();
        let admin = engine.session(User::Admin);
        let scanned = admin.query("//test").unwrap();
        engine.build_tax_index().unwrap();
        let dir = std::env::temp_dir().join("smoqe-jump-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reattach.tax");
        engine.save_tax_index(&path).unwrap();
        engine.load_tax_index(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let tax = engine.tax_index().unwrap();
        assert!(
            tax.label_index().is_some(),
            "loading through the engine must rebuild the label index"
        );
        // And the jump scan works on the loaded index.
        let jumped = admin.query("//test").unwrap();
        assert_eq!(jumped.mode, ExecMode::Jump);
        assert_eq!(jumped.nodes, scanned.nodes);
    }

    #[test]
    fn sessions_are_send_sync_and_clonable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        assert_send_sync::<Engine>();
        assert_send_sync::<DocHandle>();
        let engine = engine_with_sample();
        let session = engine.session(User::Admin);
        let clone = session.clone();
        let handle = std::thread::spawn(move || clone.query("//medication").unwrap().len());
        let here = session.query("//medication").unwrap().len();
        assert_eq!(handle.join().unwrap(), here);
    }
}
