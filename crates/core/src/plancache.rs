//! The shared compiled-plan cache.
//!
//! Planning a query — parse, rewrite through the group's security view,
//! compile to an MFA, optimize — is pure: its output depends only on the
//! query text, the view spec (or admin scope), and the optimizer flag.
//! SMOQE's serving scenario (many users of a few groups issuing similar
//! queries) therefore repeats identical planning work constantly. This
//! cache memoizes `Arc<CompiledMfa>` plans engine-wide (the dense-table
//! executable form — compiling the tables once here is what amortizes the
//! ε-closure/subset-construction/required-label analyses across every
//! session, batch lane and thread that runs the plan), keyed by document +
//! view
//! **generation counters** so that replacing a document, its DTD or a view
//! invalidates exactly the affected entries — a stale generation simply
//! never matches again, no lock coordination with the catalog required.
//!
//! At capacity the cache first drops stale entries (whose generation can
//! never be hit again), then evicts **live plans oldest-first** from an
//! insertion-order queue — live plans of unrelated documents are never
//! flushed wholesale. Hit/miss/invalidation/eviction counters are exposed
//! through [`CacheMetrics`] (the plan-level analogue of the evaluator's
//! `EvalStats`).

use crate::engine::User;
use crate::sync::RwLock;
use smoqe_automata::compile::CompiledMfa;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which principal a plan was compiled for.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum PlanScope {
    /// Compiled directly against the document.
    Admin,
    /// Rewritten through the view `group` was holding at `view_generation`.
    Group { group: String, view_generation: u64 },
}

/// The full identity of a compiled plan.
///
/// `entry_id` is the catalog entry's process-unique identity: generation
/// counters restart at zero for every entry, so a document name that is
/// dropped and re-opened would otherwise reproduce old `(name, generation)`
/// pairs and let a session still bound to the *old* entry repopulate keys
/// the new entry then hits.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    pub(crate) document: String,
    pub(crate) entry_id: u64,
    pub(crate) doc_generation: u64,
    pub(crate) scope: PlanScope,
    pub(crate) query: String,
}

impl PlanKey {
    pub(crate) fn scope_of(user: &User, view_generation: u64) -> PlanScope {
        match user {
            User::Admin => PlanScope::Admin,
            User::Group(g) => PlanScope::Group {
                group: g.clone(),
                view_generation,
            },
        }
    }
}

/// Point-in-time counters of the plan cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Lookups answered from the cache (full pipeline skipped).
    pub hits: u64,
    /// Lookups that had to run parse → rewrite → compile → optimize.
    pub misses: u64,
    /// Entries dropped because their document, DTD or view was replaced —
    /// their generation went stale and they could never be hit again.
    pub invalidations: u64,
    /// *Live* entries dropped oldest-first to make room at capacity (they
    /// could still have been hit; capacity pressure, not staleness).
    pub evictions: u64,
    /// Plans currently resident.
    pub entries: usize,
}

impl CacheMetrics {
    /// Fraction of lookups served from cache (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The plan map plus the insertion-order queue driving eviction. The two
/// are kept in sync: every key in `plans` appears exactly once in `order`
/// (evictions pop both; invalidations retain both).
#[derive(Default)]
struct CacheInner {
    plans: HashMap<PlanKey, Arc<CompiledMfa>>,
    /// Keys in insertion order, oldest at the front.
    order: VecDeque<PlanKey>,
}

impl CacheInner {
    /// Drops every entry failing `keep`, returning how many were dropped.
    fn retain(&mut self, mut keep: impl FnMut(&PlanKey) -> bool) -> u64 {
        let before = self.plans.len();
        self.plans.retain(|k, _| keep(k));
        let plans = &self.plans;
        self.order.retain(|k| plans.contains_key(k));
        (before - self.plans.len()) as u64
    }
}

/// The engine-wide plan cache. All methods are `&self`; internal locking
/// only guards the map itself, never a compilation.
pub(crate) struct PlanCache {
    inner: RwLock<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (0 disables caching).
    pub(crate) fn new(capacity: usize) -> Self {
        PlanCache {
            inner: RwLock::new(CacheInner::default()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, counting a hit or a miss.
    pub(crate) fn get(&self, key: &PlanKey) -> Option<Arc<CompiledMfa>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        match self.inner.read().plans.get(key) {
            Some(plan) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(plan.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly compiled plan. At capacity, entries of this
    /// document whose generation went stale are dropped first (they can
    /// never be hit again — counted as invalidations); if the cache is
    /// still full, **live plans are evicted oldest-first** (counted
    /// separately as evictions) until the new plan fits. Live plans of
    /// unrelated documents are never flushed wholesale.
    pub(crate) fn insert(&self, key: PlanKey, plan: Arc<CompiledMfa>, live_generation: u64) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.write();
        if inner.plans.len() >= self.capacity && !inner.plans.contains_key(&key) {
            let stale =
                inner.retain(|k| k.entry_id != key.entry_id || k.doc_generation == live_generation);
            self.invalidations.fetch_add(stale, Ordering::Relaxed);
            while inner.plans.len() >= self.capacity {
                // `order` and `plans` are kept in exact sync (every purge
                // goes through `retain`), so the oldest queued key is
                // always resident; the guard is belt-and-braces against a
                // future desync, not a live code path.
                let Some(oldest) = inner.order.pop_front() else {
                    break;
                };
                let removed = inner.plans.remove(&oldest);
                debug_assert!(removed.is_some(), "eviction queue out of sync");
                if removed.is_some() {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if inner.plans.insert(key.clone(), plan).is_none() {
            inner.order.push_back(key);
        }
    }

    /// Drops every plan cached for `document`, counting invalidations.
    /// Generation keys already guarantee stale plans never match; purging
    /// just releases their memory eagerly.
    pub(crate) fn purge_document(&self, document: &str) {
        let dropped = self.inner.write().retain(|k| k.document != document);
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
    }

    /// Drops every plan cached for `group` on `document`.
    pub(crate) fn purge_view(&self, document: &str, group: &str) {
        let dropped = self.inner.write().retain(|k| {
            k.document != document
                || !matches!(&k.scope, PlanScope::Group { group: g, .. } if g == group)
        });
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
    }

    /// Current counters.
    pub(crate) fn metrics(&self) -> CacheMetrics {
        CacheMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.read().plans.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_rxpath::parse_path;
    use smoqe_xml::Vocabulary;

    fn plan_for(query: &str) -> Arc<CompiledMfa> {
        let vocab = Vocabulary::new();
        let path = parse_path(query, &vocab).unwrap();
        Arc::new(CompiledMfa::compile(&smoqe_automata::compile(
            &path, &vocab,
        )))
    }

    fn key(doc: &str, doc_gen: u64, query: &str) -> PlanKey {
        PlanKey {
            document: doc.to_string(),
            entry_id: 0,
            doc_generation: doc_gen,
            scope: PlanScope::Admin,
            query: query.to_string(),
        }
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = PlanCache::new(16);
        let k = key("d", 0, "a/b");
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), plan_for("a/b"), 0);
        assert!(cache.get(&k).is_some());
        let m = cache.metrics();
        assert_eq!((m.hits, m.misses, m.entries), (1, 1, 1));
        assert!((m.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn generation_change_is_a_miss() {
        let cache = PlanCache::new(16);
        cache.insert(key("d", 0, "a"), plan_for("a"), 0);
        assert!(cache.get(&key("d", 1, "a")).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        let k = key("d", 0, "a");
        cache.insert(k.clone(), plan_for("a"), 0);
        assert!(cache.get(&k).is_none());
        assert_eq!(cache.metrics().entries, 0);
    }

    fn key_on(doc: &str, entry_id: u64, query: &str) -> PlanKey {
        PlanKey {
            entry_id,
            ..key(doc, 0, query)
        }
    }

    #[test]
    fn capacity_flush_prefers_stale_entries() {
        let cache = PlanCache::new(2);
        cache.insert(key("d", 0, "a"), plan_for("a"), 0);
        cache.insert(key("d", 0, "b"), plan_for("b"), 0);
        // Generation moved to 1: the two gen-0 entries are stale and give
        // way without touching live ones.
        cache.insert(key("d", 1, "c"), plan_for("c"), 1);
        let m = cache.metrics();
        assert_eq!(m.entries, 1);
        assert_eq!(m.invalidations, 2);
        assert_eq!(m.evictions, 0, "stale drops are not evictions");
        assert!(cache.get(&key("d", 1, "c")).is_some());
    }

    #[test]
    fn capacity_evicts_oldest_live_plan_first() {
        let cache = PlanCache::new(2);
        cache.insert(key("d", 0, "a"), plan_for("a"), 0);
        cache.insert(key("d", 0, "b"), plan_for("b"), 0);
        // Everything is live: only the oldest entry gives way.
        cache.insert(key("d", 0, "c"), plan_for("c"), 0);
        let m = cache.metrics();
        assert_eq!(m.entries, 2);
        assert_eq!(m.evictions, 1);
        assert_eq!(m.invalidations, 0, "live evictions are not invalidations");
        assert!(cache.get(&key("d", 0, "a")).is_none(), "oldest evicted");
        assert!(cache.get(&key("d", 0, "b")).is_some());
        assert!(cache.get(&key("d", 0, "c")).is_some());
    }

    #[test]
    fn eviction_never_flushes_unrelated_live_plans() {
        // Regression: the old capacity fallback was `plans.clear()`, which
        // flushed live plans of *other* documents and miscounted them as
        // invalidations.
        let cache = PlanCache::new(3);
        cache.insert(key_on("d1", 1, "a"), plan_for("a"), 0);
        cache.insert(key_on("d2", 2, "b"), plan_for("b"), 0);
        cache.insert(key_on("d1", 1, "c"), plan_for("c"), 0);
        cache.insert(key_on("d1", 1, "d"), plan_for("d"), 0);
        let m = cache.metrics();
        assert_eq!(m.entries, 3);
        assert_eq!((m.evictions, m.invalidations), (1, 0));
        assert!(cache.get(&key_on("d1", 1, "a")).is_none(), "oldest evicted");
        assert!(
            cache.get(&key_on("d2", 2, "b")).is_some(),
            "the other document's live plan must survive capacity pressure"
        );
        assert!(cache.get(&key_on("d1", 1, "c")).is_some());
        assert!(cache.get(&key_on("d1", 1, "d")).is_some());
    }

    #[test]
    fn purged_keys_do_not_confuse_the_eviction_queue() {
        let cache = PlanCache::new(2);
        cache.insert(key_on("d1", 1, "a"), plan_for("a"), 0);
        cache.insert(key_on("d2", 2, "b"), plan_for("b"), 0);
        cache.purge_document("d1");
        assert_eq!(cache.metrics().entries, 1);
        // Two more inserts: "b" (now oldest) is evicted, not a ghost of
        // the purged "a".
        cache.insert(key_on("d2", 2, "c"), plan_for("c"), 0);
        cache.insert(key_on("d2", 2, "d"), plan_for("d"), 0);
        let m = cache.metrics();
        assert_eq!(m.entries, 2);
        assert_eq!(m.evictions, 1);
        assert!(cache.get(&key_on("d2", 2, "b")).is_none());
        assert!(cache.get(&key_on("d2", 2, "c")).is_some());
        assert!(cache.get(&key_on("d2", 2, "d")).is_some());
    }

    #[test]
    fn reinserting_a_resident_key_does_not_evict() {
        let cache = PlanCache::new(2);
        cache.insert(key("d", 0, "a"), plan_for("a"), 0);
        cache.insert(key("d", 0, "b"), plan_for("b"), 0);
        // Same key again (e.g. two sessions raced on the same miss): no
        // capacity pressure, nothing evicted.
        cache.insert(key("d", 0, "b"), plan_for("b"), 0);
        let m = cache.metrics();
        assert_eq!(m.entries, 2);
        assert_eq!(m.evictions, 0);
        assert!(cache.get(&key("d", 0, "a")).is_some());
    }

    #[test]
    fn purge_document_and_view_are_scoped() {
        let cache = PlanCache::new(16);
        cache.insert(key("d1", 0, "a"), plan_for("a"), 0);
        cache.insert(key("d2", 0, "a"), plan_for("a"), 0);
        let group_key = PlanKey {
            scope: PlanScope::Group {
                group: "g".into(),
                view_generation: 1,
            },
            ..key("d2", 0, "b")
        };
        cache.insert(group_key.clone(), plan_for("b"), 0);
        cache.purge_view("d2", "g");
        assert!(cache.get(&group_key).is_none());
        assert!(cache.get(&key("d2", 0, "a")).is_some());
        cache.purge_document("d1");
        assert!(cache.get(&key("d1", 0, "a")).is_none());
        assert!(cache.get(&key("d2", 0, "a")).is_some());
        assert_eq!(cache.metrics().invalidations, 2);
    }
}
