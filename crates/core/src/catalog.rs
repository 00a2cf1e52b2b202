//! The multi-tenant document catalog.
//!
//! The paper's Fig. 1 shows SMOQE as a *server*: one engine, many
//! documents, many user groups whose queries are transparently rewritten
//! against their security views. The catalog is the engine-side realization
//! of that picture: it maps document *names* to [`DocumentEntry`] values,
//! each owning its DTD, its document, its TAX index and the views
//! registered for its user groups.
//!
//! Every entry carries **generation counters**: the document generation is
//! bumped whenever the DTD or the document changes (a load or an accepted
//! update), and each registered view carries the generation at which it
//! was (re)registered. The [plan cache](crate::plancache) keys a group's
//! compiled plans by its view generation, so re-registering a view
//! retires exactly that group's plans without any cross-lock
//! coordination; no plan depends on the document generation.

use crate::engine::{Answer, Engine, Session, UpdateReport, User};
use crate::error::EngineError;
use crate::sync::{Mutex, RwLock};
use crate::viewcount::ViewCounts;
use smoqe_automata::Mfa;
use smoqe_tax::TaxIndex;
use smoqe_view::{ViewRenderer, ViewSpec};
use smoqe_xml::{Document, Dtd};
use std::collections::HashMap;
use std::path::Path as FsPath;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A loaded document and the TAX index built over exactly this document.
/// Shared out of the entry as one [`Arc`] snapshot so evaluation never
/// holds entry locks and can never pair a document with an index built
/// over a different one. Stream mode scans the document's own buffer.
#[derive(Clone)]
pub(crate) struct LoadedSource {
    pub(crate) doc: Arc<Document>,
    /// TAX index over `doc`, if built or loaded.
    pub(crate) tax: Option<Arc<TaxIndex>>,
    /// Whether `doc` is **known to conform** to the entry's current DTD:
    /// set by a whole-document validation that passed (a validated load,
    /// or an update that had to validate everything), kept by updates
    /// that validated what they wrote on top of a conforming document,
    /// cleared whenever the DTD is replaced. The one place conformance is
    /// remembered — an update on an unmarked document validates all of
    /// it, an update on a marked one only its own dirty set.
    pub(crate) conforms: bool,
}

impl LoadedSource {
    /// The same source with `tax` attached.
    pub(crate) fn with_tax(&self, tax: Arc<TaxIndex>) -> Self {
        LoadedSource {
            tax: Some(tax),
            ..self.clone()
        }
    }
}

/// How a view came to be registered — kept so checkpoints can persist
/// the *registration text* and recovery can re-derive the view through
/// the exact path (policy derivation or spec parsing) that produced it.
#[derive(Clone)]
pub(crate) enum ViewSource {
    /// `register_policy`: the access-control policy text.
    Policy(Arc<str>),
    /// `register_view_spec`: the view specification text.
    Spec(Arc<str>),
}

/// A registered view plus the generation at which it was registered.
pub(crate) struct ViewSlot {
    pub(crate) spec: Arc<ViewSpec>,
    /// `spec`'s renderer, made at registration (each σ compiled once,
    /// on first use, and kept while the registration lasts): how the
    /// group's answers are rendered.
    pub(crate) renderer: Arc<ViewRenderer>,
    pub(crate) generation: u64,
    /// The registration text (policy or spec) behind `spec`.
    pub(crate) source: ViewSource,
}

/// Source of [`DocumentEntry::id`] values: unique across every entry an
/// engine process ever creates, so a dropped-and-reopened document name
/// can never alias a prior entry's plan-cache keys.
static NEXT_ENTRY_ID: AtomicU64 = AtomicU64::new(0);

/// One named document and everything scoped to it: DTD, source (with its
/// TAX index), per-group views, and the generation counters (a view's
/// generation is part of its group's plan-cache keys).
pub struct DocumentEntry {
    name: String,
    id: u64,
    pub(crate) dtd: RwLock<Option<Arc<Dtd>>>,
    /// The DTD's source text, kept alongside the parsed form so
    /// checkpoints persist exactly what was registered.
    pub(crate) dtd_text: RwLock<Option<Arc<str>>>,
    pub(crate) source: RwLock<Option<Arc<LoadedSource>>>,
    pub(crate) views: RwLock<HashMap<String, ViewSlot>>,
    /// Bumped on every DTD load, document load and accepted update.
    generation: AtomicU64,
    /// Source of view generations (also bumped by document replacement so
    /// view generations are unique per entry lifetime).
    counter: AtomicU64,
    /// Serializes the entry's *writers* (updates, loads, DTD swaps) so a
    /// read-modify-write update can never race another writer, and guards
    /// the one piece of state only writers keep: the groups' view node
    /// counts, carried from update to update. Readers only ever take `Arc`
    /// snapshots and never touch this lock.
    pub(crate) write_serial: Mutex<ViewCounts>,
    /// Set when the entry is removed from the catalog. Sessions still
    /// bound to it keep working, but their plans no longer enter the
    /// shared plan cache — a dropped document must not keep (or regrow)
    /// cache residency.
    dropped: AtomicBool,
}

impl DocumentEntry {
    pub(crate) fn new(name: &str) -> Self {
        DocumentEntry {
            name: name.to_string(),
            id: NEXT_ENTRY_ID.fetch_add(1, Ordering::Relaxed),
            dtd: RwLock::new(None),
            dtd_text: RwLock::new(None),
            source: RwLock::new(None),
            views: RwLock::new(HashMap::new()),
            generation: AtomicU64::new(0),
            counter: AtomicU64::new(0),
            write_serial: Mutex::default(),
            dropped: AtomicBool::new(false),
        }
    }

    /// The catalog name of this document.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The process-unique identity of this entry (survives nothing — a
    /// re-opened name gets a fresh id).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The current document generation (bumped on every DTD load,
    /// document load and accepted update).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    pub(crate) fn bump_generation(&self) {
        let next = self.counter.fetch_add(1, Ordering::AcqRel) + 1;
        self.generation.store(next, Ordering::Release);
    }

    pub(crate) fn next_view_generation(&self) -> u64 {
        self.counter.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The raw value of the generation-source counter (checkpointing).
    pub(crate) fn counter_value(&self) -> u64 {
        self.counter.load(Ordering::Acquire)
    }

    /// Overwrites both counters with checkpointed values (recovery only:
    /// rebuilding the entry bumped them from zero, but sessions of the
    /// original process saw the stored values).
    pub(crate) fn restore_counters(&self, generation: u64, counter: u64) {
        self.counter
            .store(counter.max(generation), Ordering::Release);
        self.generation.store(generation, Ordering::Release);
    }

    /// The registered view for `group`, with its generation.
    pub(crate) fn view_slot(&self, group: &str) -> Result<(Arc<ViewSpec>, u64), EngineError> {
        self.views
            .read()
            .get(group)
            .map(|slot| (slot.spec.clone(), slot.generation))
            .ok_or_else(|| EngineError::UnknownGroup(group.to_string()))
    }

    /// The compiled renderer of `group`'s registered view.
    pub(crate) fn view_renderer(&self, group: &str) -> Result<Arc<ViewRenderer>, EngineError> {
        self.views
            .read()
            .get(group)
            .map(|slot| slot.renderer.clone())
            .ok_or_else(|| EngineError::UnknownGroup(group.to_string()))
    }

    /// A snapshot of the loaded source, independent of the entry's locks.
    pub(crate) fn snapshot(&self) -> Result<Arc<LoadedSource>, EngineError> {
        self.source.read().clone().ok_or(EngineError::NoDocument)
    }

    /// Whether the entry has been removed from the catalog.
    pub(crate) fn is_dropped(&self) -> bool {
        self.dropped.load(Ordering::Acquire)
    }

    pub(crate) fn mark_dropped(&self) {
        self.dropped.store(true, Ordering::Release);
    }
}

/// The name → entry map. Engine-internal; reached through
/// [`Engine::open_document`] and the `DocHandle` it returns.
#[derive(Default)]
pub(crate) struct Catalog {
    entries: RwLock<HashMap<String, Arc<DocumentEntry>>>,
}

impl Catalog {
    /// Returns the entry for `name`, creating an empty one if absent.
    pub(crate) fn entry_or_create(&self, name: &str) -> Arc<DocumentEntry> {
        self.entry_or_create_tracked(name).0
    }

    /// Like [`Catalog::entry_or_create`], also reporting whether the
    /// entry was created by this call (the WAL logs creations).
    pub(crate) fn entry_or_create_tracked(&self, name: &str) -> (Arc<DocumentEntry>, bool) {
        if let Some(entry) = self.entries.read().get(name) {
            return (entry.clone(), false);
        }
        let mut entries = self.entries.write();
        let mut created = false;
        let entry = entries
            .entry(name.to_string())
            .or_insert_with(|| {
                created = true;
                Arc::new(DocumentEntry::new(name))
            })
            .clone();
        (entry, created)
    }

    /// The entry for `name`, or `UnknownDocument`.
    pub(crate) fn entry(&self, name: &str) -> Result<Arc<DocumentEntry>, EngineError> {
        self.entries
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnknownDocument(name.to_string()))
    }

    /// Removes `name`, returning the removed entry's id. Live sessions
    /// bound to the entry keep their handle; only the catalog forgets it.
    /// The entry is marked dropped so those sessions stop populating the
    /// shared plan cache.
    pub(crate) fn remove(&self, name: &str) -> Option<u64> {
        let entry = self.entries.write().remove(name)?;
        entry.mark_dropped();
        Some(entry.id())
    }

    /// Every entry, sorted by name (the checkpoint capture order — and
    /// therefore the multi-entry lock acquisition order).
    pub(crate) fn entries_sorted(&self) -> Vec<Arc<DocumentEntry>> {
        let mut entries: Vec<Arc<DocumentEntry>> = self.entries.read().values().cloned().collect();
        entries.sort_by(|a, b| a.name().cmp(b.name()));
        entries
    }

    /// Sorted catalog names.
    pub(crate) fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.read().keys().cloned().collect();
        names.sort();
        names
    }
}

/// An owned, thread-safe handle to one named document of an engine.
///
/// Handles are cheap to clone and `Send + Sync`; they are the write path
/// of the catalog (loading DTDs/documents, building indexes, registering
/// views) and mint [`Session`]s for the read path.
#[derive(Clone)]
pub struct DocHandle {
    pub(crate) engine: Arc<Engine>,
    pub(crate) entry: Arc<DocumentEntry>,
}

impl DocHandle {
    /// The catalog name of this document.
    pub fn name(&self) -> &str {
        self.entry.name()
    }

    /// The engine this handle belongs to.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The document's current generation (bumped by every successful
    /// mutation; checkpoints persist it and recovery restores it). Cached
    /// plans do not depend on it: they survive every mutation.
    pub fn generation(&self) -> u64 {
        self.entry.generation()
    }

    /// Parses and installs the document DTD. Cached plans stay valid: a
    /// plan depends on the query and the view, not on the DTD.
    pub fn load_dtd(&self, dtd_text: &str) -> Result<(), EngineError> {
        self.engine.load_dtd_on(&self.entry, dtd_text)
    }

    /// The installed DTD, if any.
    pub fn dtd(&self) -> Option<Arc<Dtd>> {
        self.entry.dtd.read().clone()
    }

    /// Loads a document from XML text, validating against the DTD when one
    /// is installed. Cached plans stay valid.
    pub fn load_document(&self, xml: &str) -> Result<(), EngineError> {
        self.engine.load_document_on(&self.entry, xml)
    }

    /// Loads (and validates) a document from a file.
    pub fn load_document_file(&self, path: impl AsRef<FsPath>) -> Result<(), EngineError> {
        self.engine
            .load_document_file_on(&self.entry, path.as_ref())
    }

    /// Installs an already-built document (e.g. from the generator).
    pub fn load_document_tree(&self, doc: Document) -> Result<(), EngineError> {
        self.engine.load_document_tree_on(&self.entry, doc)
    }

    /// The loaded document.
    pub fn document(&self) -> Result<Arc<Document>, EngineError> {
        Ok(self.entry.snapshot()?.doc.clone())
    }

    /// Builds the TAX index over the loaded document.
    pub fn build_tax_index(&self) -> Result<Arc<TaxIndex>, EngineError> {
        self.engine.build_tax_index_on(&self.entry)
    }

    /// The TAX index, if built or loaded.
    pub fn tax_index(&self) -> Option<Arc<TaxIndex>> {
        self.entry
            .source
            .read()
            .as_ref()
            .and_then(|s| s.tax.clone())
    }

    /// Persists the TAX index to disk.
    pub fn save_tax_index(&self, path: impl AsRef<FsPath>) -> Result<(), EngineError> {
        self.engine.save_tax_index_on(&self.entry, path.as_ref())
    }

    /// Loads a TAX index from disk.
    pub fn load_tax_index(&self, path: impl AsRef<FsPath>) -> Result<(), EngineError> {
        self.engine.load_tax_index_on(&self.entry, path.as_ref())
    }

    /// Registers a user group by access-control policy; the view is
    /// derived automatically. Re-registering invalidates the group's
    /// cached plans.
    pub fn register_policy(&self, group: &str, policy_text: &str) -> Result<(), EngineError> {
        self.engine
            .register_policy_on(&self.entry, group, policy_text)
    }

    /// Registers a user group with a hand-authored view specification.
    pub fn register_view_spec(&self, group: &str, spec_text: &str) -> Result<(), EngineError> {
        self.engine
            .register_view_spec_on(&self.entry, group, spec_text)
    }

    /// The view spec registered for `group`.
    pub fn view(&self, group: &str) -> Result<Arc<ViewSpec>, EngineError> {
        Ok(self.entry.view_slot(group)?.0)
    }

    /// Materializes the view of `group` (tests and baselines only).
    pub fn materialize_view(
        &self,
        group: &str,
    ) -> Result<smoqe_view::MaterializedView, EngineError> {
        let spec = self.view(group)?;
        let doc = self.document()?;
        Ok(smoqe_view::materialize(&spec, &doc)?)
    }

    /// Compiles (and caches) the plan `user` would run for `query` on this
    /// document.
    pub fn plan(&self, user: &User, query: &str) -> Result<Arc<Mfa>, EngineError> {
        self.engine.plan_on(&self.entry, user, query)
    }

    /// Answers `query` as `user` without constructing a session.
    pub fn query(&self, user: &User, query: &str) -> Result<Answer, EngineError> {
        self.session(user.clone()).query(query)
    }

    /// Answers a whole batch of queries as `user` against one snapshot
    /// of this document (see [`Session::query_batch`]).
    pub fn query_batch(
        &self,
        user: &User,
        queries: &[&str],
    ) -> Result<crate::engine::BatchAnswer, EngineError> {
        self.session(user.clone()).query_batch(queries)
    }

    /// Applies one update statement **as an administrator** (no policy
    /// filter): targets are resolved directly against the document. The
    /// TAX index (if built) is incrementally patched and this entry's
    /// generation is bumped; cached plans stay valid. Concurrent readers
    /// keep their snapshot.
    pub fn update(&self, update: &str) -> Result<UpdateReport, EngineError> {
        let mut reports = self
            .engine
            .apply_updates_on(&self.entry, &User::Admin, &[update])?;
        Ok(reports.pop().expect("one statement yields one report"))
    }

    /// Applies a sequence of update statements **transactionally**: each
    /// statement's targets are resolved against the document as left by
    /// the previous one, nothing is installed until every statement has
    /// applied and the result validates against the DTD, and any failure
    /// leaves the document (and its index and generation) exactly as
    /// before — all-or-nothing.
    pub fn update_batch(&self, updates: &[&str]) -> Result<Vec<UpdateReport>, EngineError> {
        self.engine
            .apply_updates_on(&self.entry, &User::Admin, updates)
    }

    /// Opens an owned session for `user` on this document.
    pub fn session(&self, user: User) -> Session {
        Session::new(self.engine.clone(), self.entry.clone(), user)
    }
}
