//! The shared compiled-plan cache.
//!
//! Planning a query — parse, rewrite through the group's security view,
//! compile to an MFA, optimize — is pure: compiling reads only the path
//! and the engine-wide vocabulary, rewriting only the path and the view
//! spec. The vocabulary is append-only, and labels interned after a plan
//! was compiled fall into its wildcard column; the value tables a plan
//! carries (`CompiledMfa::step_values`) are built from the plan alone,
//! with every other per-plan analysis, before it is cached. So a plan
//! depends on the catalog entry, the principal's scope and the query
//! text — never on the document's content, its DTD or any write.
//! SMOQE's serving scenario (many users of a few groups issuing similar
//! queries) therefore repeats identical planning work constantly. This
//! cache memoizes `Arc<CompiledMfa>` plans engine-wide (the dense-table
//! executable form — compiling the tables once here is what amortizes the
//! ε-closure/subset-construction/required-label analyses across every
//! session, batch lane and thread that runs the plan), keyed by exactly
//! what a plan depends on ([`PlanKey`]). Updates, document reloads and
//! DTD loads leave every plan resident and valid.
//!
//! At capacity an insert evicts the **oldest** entry from an
//! insertion-order queue, in O(1). A view re-registration gives the group
//! a new view generation, so the old keys can never match again; they are
//! purged eagerly (as are a dropped entry's) only to release memory — left
//! alone they would age out in the same FIFO order. Hit/miss/invalidation/
//! eviction counters are exposed through [`CacheMetrics`] (the plan-level
//! analogue of the evaluator's `EvalStats`).

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

/// The full identity of a compiled plan: what it was planned from, and
/// nothing else.
///
/// `entry_id` is the catalog entry's process-unique identity: a document
/// name that is dropped and re-opened gets a fresh id, so a session still
/// bound to the *old* entry can never populate keys the new entry hits.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    pub(crate) entry_id: u64,
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
    /// Entries purged eagerly because their document was dropped or their
    /// group's view re-registered — they could never be hit again.
    pub invalidations: u64,
    /// Entries dropped oldest-first to make room at capacity (capacity
    /// pressure, not staleness).
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
/// (an eviction pops both; a purge retains both by the same predicate).
#[derive(Default)]
struct CacheInner {
    plans: HashMap<PlanKey, Arc<CompiledMfa>>,
    /// Keys in insertion order, oldest at the front.
    order: VecDeque<PlanKey>,
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

    /// Inserts a freshly compiled plan. At capacity the oldest entry is
    /// evicted first; no other resident entry is touched. A key already
    /// resident (two sessions raced on the same miss and compiled the
    /// same plan) keeps its plan and its place.
    pub(crate) fn insert(&self, key: PlanKey, plan: Arc<CompiledMfa>) {
        if self.capacity == 0 {
            return;
        }
        let inner = &mut *self.inner.write();
        if inner.plans.contains_key(&key) {
            return;
        }
        if inner.plans.len() >= self.capacity {
            if let Some(oldest) = inner.order.pop_front() {
                inner.plans.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.order.push_back(key.clone());
        inner.plans.insert(key, plan);
    }

    /// Drops every entry failing `keep`, counting invalidations.
    fn purge(&self, keep: impl Fn(&PlanKey) -> bool) {
        let inner = &mut *self.inner.write();
        let before = inner.plans.len();
        inner.plans.retain(|k, _| keep(k));
        inner.order.retain(|k| keep(k));
        let dropped = (before - inner.plans.len()) as u64;
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
    }

    /// Drops every plan cached for catalog entry `entry_id` (a dropped
    /// document).
    pub(crate) fn purge_entry(&self, entry_id: u64) {
        self.purge(|k| k.entry_id != entry_id);
    }

    /// Drops every plan cached for `group` on catalog entry `entry_id` (a
    /// re-registered view).
    pub(crate) fn purge_view(&self, entry_id: u64, group: &str) {
        self.purge(|k| {
            k.entry_id != entry_id
                || !matches!(&k.scope, PlanScope::Group { group: g, .. } if g == group)
        });
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

    /// An admin key on catalog entry `entry_id`.
    fn key(entry_id: u64, query: &str) -> PlanKey {
        PlanKey {
            entry_id,
            scope: PlanScope::Admin,
            query: query.to_string(),
        }
    }

    /// A key of `group`'s view at `view_generation` on entry `entry_id`.
    fn group_key(entry_id: u64, group: &str, view_generation: u64, query: &str) -> PlanKey {
        PlanKey {
            scope: PlanScope::Group {
                group: group.to_string(),
                view_generation,
            },
            ..key(entry_id, query)
        }
    }

    /// `order` holds exactly the resident keys, each once.
    fn assert_in_sync(cache: &PlanCache) {
        let inner = cache.inner.read();
        assert_eq!(inner.order.len(), inner.plans.len());
        let queued: std::collections::HashSet<&PlanKey> = inner.order.iter().collect();
        assert_eq!(queued.len(), inner.order.len(), "a key queued twice");
        assert!(inner.order.iter().all(|k| inner.plans.contains_key(k)));
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = PlanCache::new(16);
        let k = key(0, "a/b");
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), plan_for("a/b"));
        assert!(cache.get(&k).is_some());
        let m = cache.metrics();
        assert_eq!((m.hits, m.misses, m.entries), (1, 1, 1));
        assert!((m.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn generation_change_is_a_miss() {
        let cache = PlanCache::new(16);
        cache.insert(group_key(0, "g", 1, "a"), plan_for("a"));
        assert!(cache.get(&group_key(0, "g", 2, "a")).is_none());
        assert!(cache.get(&group_key(0, "g", 1, "a")).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        let k = key(0, "a");
        cache.insert(k.clone(), plan_for("a"));
        assert!(cache.get(&k).is_none());
        assert_eq!(cache.metrics().entries, 0);
    }

    #[test]
    fn stale_view_generation_keys_age_out_in_fifo_order() {
        let cache = PlanCache::new(2);
        cache.insert(group_key(0, "g", 1, "a"), plan_for("a"));
        cache.insert(group_key(0, "g", 1, "b"), plan_for("b"));
        // The view moved to generation 2 without a purge: the generation-1
        // keys never match again, and give way oldest-first as evictions
        // like any other entry.
        assert!(cache.get(&group_key(0, "g", 2, "a")).is_none());
        cache.insert(group_key(0, "g", 2, "a"), plan_for("a"));
        assert!(
            cache.get(&group_key(0, "g", 1, "a")).is_none(),
            "oldest out"
        );
        assert!(cache.get(&group_key(0, "g", 1, "b")).is_some());
        cache.insert(group_key(0, "g", 2, "c"), plan_for("c"));
        assert!(cache.get(&group_key(0, "g", 1, "b")).is_none());
        let m = cache.metrics();
        assert_eq!((m.entries, m.evictions, m.invalidations), (2, 2, 0));
        assert!(cache.get(&group_key(0, "g", 2, "a")).is_some());
        assert!(cache.get(&group_key(0, "g", 2, "c")).is_some());
        assert_in_sync(&cache);
    }

    #[test]
    fn capacity_evicts_oldest_live_plan_first() {
        let cache = PlanCache::new(2);
        cache.insert(key(0, "a"), plan_for("a"));
        cache.insert(key(0, "b"), plan_for("b"));
        // At full capacity exactly the oldest entry gives way.
        cache.insert(key(0, "c"), plan_for("c"));
        let m = cache.metrics();
        assert_eq!(m.entries, 2);
        assert_eq!(m.evictions, 1);
        assert_eq!(m.invalidations, 0, "evictions are not invalidations");
        assert!(cache.get(&key(0, "a")).is_none(), "oldest evicted");
        assert!(cache.get(&key(0, "b")).is_some());
        assert!(cache.get(&key(0, "c")).is_some());
        assert_in_sync(&cache);
    }

    #[test]
    fn eviction_never_flushes_unrelated_live_plans() {
        // Regression: the old capacity fallback was `plans.clear()`, which
        // flushed live plans of *other* documents and miscounted them as
        // invalidations.
        let cache = PlanCache::new(3);
        cache.insert(key(1, "a"), plan_for("a"));
        cache.insert(key(2, "b"), plan_for("b"));
        cache.insert(key(1, "c"), plan_for("c"));
        cache.insert(key(1, "d"), plan_for("d"));
        let m = cache.metrics();
        assert_eq!(m.entries, 3);
        assert_eq!((m.evictions, m.invalidations), (1, 0));
        assert!(cache.get(&key(1, "a")).is_none(), "oldest evicted");
        assert!(
            cache.get(&key(2, "b")).is_some(),
            "the other document's live plan must survive capacity pressure"
        );
        assert!(cache.get(&key(1, "c")).is_some());
        assert!(cache.get(&key(1, "d")).is_some());
    }

    #[test]
    fn purged_keys_do_not_confuse_the_eviction_queue() {
        let cache = PlanCache::new(2);
        cache.insert(key(1, "a"), plan_for("a"));
        cache.insert(key(2, "b"), plan_for("b"));
        cache.purge_entry(1);
        assert_eq!(cache.metrics().entries, 1);
        assert_in_sync(&cache);
        // Two more inserts: "b" (now oldest) is evicted, not a ghost of
        // the purged "a".
        cache.insert(key(2, "c"), plan_for("c"));
        cache.insert(key(2, "d"), plan_for("d"));
        let m = cache.metrics();
        assert_eq!(m.entries, 2);
        assert_eq!(m.evictions, 1);
        assert!(cache.get(&key(2, "b")).is_none());
        assert!(cache.get(&key(2, "c")).is_some());
        assert!(cache.get(&key(2, "d")).is_some());
        assert_in_sync(&cache);
    }

    #[test]
    fn reinserting_a_resident_key_does_not_evict() {
        let cache = PlanCache::new(2);
        cache.insert(key(0, "a"), plan_for("a"));
        cache.insert(key(0, "b"), plan_for("b"));
        // Same key again (e.g. two sessions raced on the same miss): no
        // capacity pressure, nothing evicted, the queue unchanged.
        cache.insert(key(0, "b"), plan_for("b"));
        let m = cache.metrics();
        assert_eq!(m.entries, 2);
        assert_eq!(m.evictions, 0);
        assert!(cache.get(&key(0, "a")).is_some());
        assert_in_sync(&cache);
        // "a" is still the oldest: the next insert evicts it, not "b".
        cache.insert(key(0, "c"), plan_for("c"));
        assert!(cache.get(&key(0, "a")).is_none());
        assert!(cache.get(&key(0, "b")).is_some());
    }

    #[test]
    fn purge_document_and_view_are_scoped() {
        let cache = PlanCache::new(16);
        cache.insert(key(1, "a"), plan_for("a"));
        cache.insert(key(2, "a"), plan_for("a"));
        cache.insert(group_key(2, "g", 1, "b"), plan_for("b"));
        cache.insert(group_key(2, "h", 1, "b"), plan_for("b"));
        cache.insert(group_key(1, "g", 1, "b"), plan_for("b"));
        // One group on one entry: the other group, the same group on the
        // other entry, and the admin plans all stay.
        cache.purge_view(2, "g");
        assert!(cache.get(&group_key(2, "g", 1, "b")).is_none());
        assert!(cache.get(&group_key(2, "h", 1, "b")).is_some());
        assert!(cache.get(&group_key(1, "g", 1, "b")).is_some());
        assert!(cache.get(&key(2, "a")).is_some());
        assert_in_sync(&cache);
        // One entry: every scope on it goes, the other entry stays.
        cache.purge_entry(1);
        assert!(cache.get(&key(1, "a")).is_none());
        assert!(cache.get(&group_key(1, "g", 1, "b")).is_none());
        assert!(cache.get(&key(2, "a")).is_some());
        assert!(cache.get(&group_key(2, "h", 1, "b")).is_some());
        let m = cache.metrics();
        assert_eq!((m.entries, m.invalidations, m.evictions), (2, 3, 0));
        assert_in_sync(&cache);
    }
}
