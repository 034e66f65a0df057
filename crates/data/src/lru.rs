//! Byte-budgeted, least-recently-used caching.
//!
//! An [`LruCache`] bounds a map by an approximate **byte budget**: every
//! entry is inserted with a caller-estimated weight, a hit refreshes the
//! entry's recency, and an insert that pushes the cache over budget evicts
//! least-recently-used entries until it fits again.
//!
//! A [`MemoCache`] is the one memo an audit engine runs: a single
//! [`LruCache`] behind a single lock holding every per-query artifact the
//! engine and its probabilistic kernel derive (`crit(Q)` sets, candidate
//! spaces, symmetry-class verdicts, witness-mask compilations, pool
//! columns, whole audits), keyed by [`MemoKey`] — (artifact kind, canonical
//! form, domain size). One recency order and one budget cover all of them,
//! so `cache_budget_bytes` bounds the resident bytes it names, and the memo
//! is the one place that counts hits, misses and evictions per
//! [`MemoKind`].
//!
//! Three properties the serving layer relies on:
//!
//! * **Transparency** — eviction only ever discards *derived* state; a later
//!   request for an evicted key misses and recomputes, so verdicts are
//!   byte-identical under any budget (property-tested in the core crate).
//! * **Determinism** — recency ticks are a plain monotone counter, so the
//!   same request sequence always evicts the same entries.
//! * **A real bound** — after every insert, the resident bytes fit the
//!   budget or exactly one entry is resident. An entry larger than the
//!   whole budget is still admitted (and everything else evicted): the
//!   request that produced it must be served, and the next insert will
//!   evict it like any other entry.

use std::any::Any;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};

/// One cached value with its byte weight and last-used tick.
#[derive(Debug, Clone)]
struct Slot<V> {
    value: V,
    bytes: usize,
    last_used: u64,
}

/// A byte-budgeted LRU map. See the [module docs](self).
#[derive(Debug)]
pub struct LruCache<K, V> {
    slots: HashMap<K, Slot<V>>,
    /// Byte budget; `None` never evicts.
    budget: Option<usize>,
    resident_bytes: usize,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache. `budget` of `None` never evicts.
    pub fn new(budget: Option<usize>) -> Self {
        LruCache {
            slots: HashMap::new(),
            budget,
            resident_bytes: 0,
            tick: 0,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Approximate bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Fetches `key`, refreshing its recency.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.tick += 1;
        let tick = self.tick;
        self.slots.get_mut(key).map(|slot| {
            slot.last_used = tick;
            &slot.value
        })
    }

    /// Fetches `key` **without** refreshing its recency — a read-only probe
    /// for introspection surfaces (`explain`) that must not perturb
    /// eviction order.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.slots.get(key).map(|slot| &slot.value)
    }

    /// Iterates the resident keys with their byte weights, in unspecified
    /// order, without touching recency (introspection only).
    pub fn entries(&self) -> impl Iterator<Item = (&K, usize)> {
        self.slots.iter().map(|(k, slot)| (k, slot.bytes))
    }

    /// Inserts `value` under `key` with an approximate byte weight, then
    /// evicts least-recently-used entries until the budget holds. If the key
    /// is already present its value is **kept** (racing duplicate inserts
    /// are harmless) and the resident value is returned. Also returns the
    /// evicted entries' keys and weights, in eviction order.
    pub fn insert(&mut self, key: K, value: V, bytes: usize) -> (&V, Vec<(K, usize)>) {
        self.tick += 1;
        let tick = self.tick;
        let slot = self.slots.entry(key.clone()).or_insert_with(|| {
            self.resident_bytes += bytes;
            Slot {
                value,
                bytes,
                last_used: 0,
            }
        });
        slot.last_used = tick;
        let evicted = self.enforce_budget(&key);
        (&self.slots[&key].value, evicted)
    }

    /// Re-weighs an existing entry (used for values that grow after
    /// insertion, like shared class-verdict caches) and re-enforces the
    /// budget, returning what that evicted. The re-weighed entry itself is
    /// protected from this pass.
    pub fn set_bytes<Q>(&mut self, key: &Q, bytes: usize) -> Vec<(K, usize)>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ToOwned<Owned = K> + ?Sized,
    {
        let Some(slot) = self.slots.get_mut(key) else {
            return Vec::new();
        };
        self.resident_bytes = self.resident_bytes - slot.bytes + bytes;
        slot.bytes = bytes;
        self.enforce_budget(&key.to_owned())
    }

    /// Evicts least-recently-used entries until `resident_bytes` fits the
    /// budget, never evicting `protect` (the entry serving the current
    /// request), and returns the evicted keys with their weights.
    fn enforce_budget(&mut self, protect: &K) -> Vec<(K, usize)> {
        let mut evicted = Vec::new();
        let Some(budget) = self.budget else {
            return evicted;
        };
        while self.resident_bytes > budget && self.slots.len() > 1 {
            let victim = self
                .slots
                .iter()
                .filter(|(k, _)| *k != protect)
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(slot) = self.slots.remove(&victim) {
                self.resident_bytes -= slot.bytes;
                evicted.push((victim, slot.bytes));
            }
        }
        debug_assert!(self.resident_bytes <= budget || self.slots.len() == 1);
        evicted
    }
}

/// The artifact kinds an engine memoizes. Each kind holds values of one
/// type, fixed by the code that inserts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoKind {
    /// Materialized `crit_D(Q)` sets.
    CritSet,
    /// Interned candidate (subgoal-grounding) spaces.
    CandidateSpace,
    /// Shared symmetry-class verdict caches (domain-size independent).
    ClassVerdicts,
    /// Witness-mask compilations of the probabilistic kernel.
    Compiled,
    /// Answer-bit columns over the kernel's shared sample pool.
    PoolColumn,
    /// Whole probabilistic audits.
    Audit,
}

impl MemoKind {
    /// Every kind, in declaration order.
    const ALL: [MemoKind; 6] = [
        MemoKind::CritSet,
        MemoKind::CandidateSpace,
        MemoKind::ClassVerdicts,
        MemoKind::Compiled,
        MemoKind::PoolColumn,
        MemoKind::Audit,
    ];
}

/// The identity of one memoized artifact: its kind, the canonical form it
/// was derived from, and the active-domain size it enumerates (0 for kinds
/// that do not depend on one).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// What the artifact is.
    pub kind: MemoKind,
    /// The canonical form (or, for whole audits, the joined forms) it was
    /// derived from.
    pub form: String,
    /// The active-domain size it enumerates, or 0.
    pub domain_size: usize,
}

impl MemoKey {
    /// The key of `kind` for `form` at `domain_size`.
    pub fn new(kind: MemoKind, form: impl Into<String>, domain_size: usize) -> Self {
        MemoKey {
            kind,
            form: form.into(),
            domain_size,
        }
    }
}

/// Counters of one artifact kind, or a sum over kinds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that found nothing (the caller then computes and inserts).
    pub misses: u64,
    /// Entries evicted under the byte budget.
    pub evictions: u64,
    /// Approximate bytes evicted.
    pub evicted_bytes: u64,
    /// Entries resident now.
    pub entries: usize,
    /// Approximate bytes resident now (a gauge).
    pub resident_bytes: u64,
}

impl MemoStats {
    fn add(&mut self, other: &MemoStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.evicted_bytes += other.evicted_bytes;
        self.entries += other.entries;
        self.resident_bytes += other.resident_bytes;
    }
}

/// A point-in-time copy of a [`MemoCache`]'s per-kind counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoSnapshot {
    kinds: [MemoStats; MemoKind::ALL.len()],
}

impl MemoSnapshot {
    /// The counters of `kind`.
    pub fn of(&self, kind: MemoKind) -> MemoStats {
        self.kinds[kind as usize]
    }

    /// The counters of `kinds`, summed.
    pub fn sum(&self, kinds: &[MemoKind]) -> MemoStats {
        let mut total = MemoStats::default();
        for &kind in kinds {
            total.add(&self.kinds[kind as usize]);
        }
        total
    }

    /// The counters of every kind, summed.
    pub fn total(&self) -> MemoStats {
        self.sum(&MemoKind::ALL)
    }
}

/// A memoized value: each [`MemoKind`] stores one concrete type.
type MemoValue = Arc<dyn Any + Send + Sync>;

#[derive(Debug)]
struct MemoState {
    lru: LruCache<MemoKey, MemoValue>,
    /// Per-kind hits, misses and evictions; `entries` and `resident_bytes`
    /// are read off the LRU when a snapshot is taken.
    counters: [MemoStats; MemoKind::ALL.len()],
}

impl MemoState {
    fn count_evictions(&mut self, evicted: Vec<(MemoKey, usize)>) {
        for (key, bytes) in evicted {
            let counters = &mut self.counters[key.kind as usize];
            counters.evictions += 1;
            counters.evicted_bytes += bytes as u64;
        }
    }
}

/// The one byte-budgeted LRU of an audit engine, shared by its artifact
/// store and its probabilistic kernel. See the [module docs](self).
#[derive(Debug)]
pub struct MemoCache {
    state: Mutex<MemoState>,
}

impl Default for MemoCache {
    fn default() -> Self {
        MemoCache::new(None)
    }
}

impl MemoCache {
    /// An empty memo bounded by `budget` bytes (`None` never evicts).
    pub fn new(budget: Option<usize>) -> Self {
        MemoCache {
            state: Mutex::new(MemoState {
                lru: LruCache::new(budget),
                counters: [MemoStats::default(); MemoKind::ALL.len()],
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, MemoState> {
        self.state.lock().expect("memo lock poisoned")
    }

    /// Fetches `key`, refreshing its recency and counting a hit or a miss
    /// for its kind.
    pub fn get<T: Any + Send + Sync>(&self, key: &MemoKey) -> Option<Arc<T>> {
        let mut state = self.lock();
        let found = state.lru.get(key).cloned();
        let counters = &mut state.counters[key.kind as usize];
        if found.is_some() {
            counters.hits += 1;
        } else {
            counters.misses += 1;
        }
        drop(state);
        found.map(downcast)
    }

    /// Inserts `value` under `key` with an approximate byte weight and
    /// evicts least-recently-used entries until the budget holds. A key
    /// already resident keeps its value, which is returned instead.
    pub fn insert<T: Any + Send + Sync>(
        &self,
        key: MemoKey,
        value: Arc<T>,
        bytes: usize,
    ) -> Arc<T> {
        let mut state = self.lock();
        let (resident, evicted) = state.lru.insert(key, value, bytes);
        let resident = Arc::clone(resident);
        state.count_evictions(evicted);
        drop(state);
        downcast(resident)
    }

    /// Re-weighs a resident entry whose value grew after insertion and
    /// re-enforces the budget (a no-op when the key is not resident).
    pub fn set_bytes(&self, key: &MemoKey, bytes: usize) {
        let mut state = self.lock();
        let evicted = state.lru.set_bytes(key, bytes);
        state.count_evictions(evicted);
    }

    /// Calls `f` with every resident key, in unspecified order, without
    /// touching recency or any counter (introspection only).
    pub fn for_each_key(&self, mut f: impl FnMut(&MemoKey)) {
        for (key, _) in self.lock().lru.entries() {
            f(key);
        }
    }

    /// A snapshot of every kind's counters and residency.
    pub fn stats(&self) -> MemoSnapshot {
        let state = self.lock();
        let mut snapshot = MemoSnapshot {
            kinds: state.counters,
        };
        for (key, bytes) in state.lru.entries() {
            let kind = &mut snapshot.kinds[key.kind as usize];
            kind.entries += 1;
            kind.resident_bytes += bytes as u64;
        }
        snapshot
    }
}

/// Recovers a memoized value's concrete type. Each [`MemoKind`] is only
/// ever inserted with one type, so a mismatch is a bug in the caller.
fn downcast<T: Any + Send + Sync>(value: MemoValue) -> Arc<T> {
    value
        .downcast()
        .expect("a memo kind holds values of one type")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_caches_never_evict() {
        let mut cache: LruCache<u32, u32> = LruCache::new(None);
        for i in 0..100 {
            let (_, evicted) = cache.insert(i, i, 1 << 20);
            assert!(evicted.is_empty());
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.resident_bytes(), 100 << 20);
    }

    #[test]
    fn over_budget_inserts_evict_the_least_recently_used() {
        let mut cache: LruCache<&str, u32> = LruCache::new(Some(30));
        cache.insert("a", 1, 10);
        cache.insert("b", 2, 10);
        cache.insert("c", 3, 10);
        assert_eq!(cache.len(), 3);
        // Touch "a" so "b" is now the LRU entry.
        assert_eq!(cache.get("a"), Some(&1));
        let (_, evicted) = cache.insert("d", 4, 10);
        assert_eq!(evicted, vec![("b", 10)], "LRU entry evicted");
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("a"), Some(&1));
        assert_eq!(cache.get("d"), Some(&4));
        assert_eq!(cache.resident_bytes(), 30);
    }

    #[test]
    fn oversized_entries_are_admitted_and_evict_everything_else() {
        let mut cache: LruCache<&str, u32> = LruCache::new(Some(10));
        cache.insert("small", 1, 4);
        let (_, evicted) = cache.insert("huge", 2, 1000);
        assert_eq!(evicted, vec![("small", 4)]);
        assert_eq!(cache.len(), 1, "only the oversized entry survives");
        assert_eq!(cache.get("huge"), Some(&2));
    }

    #[test]
    fn peek_reads_without_refreshing_recency() {
        let mut cache: LruCache<&str, u32> = LruCache::new(Some(30));
        cache.insert("a", 1, 10);
        cache.insert("b", 2, 10);
        cache.insert("c", 3, 10);
        // Peeking "a" must NOT save it from eviction (get would).
        assert_eq!(cache.peek("a"), Some(&1));
        cache.insert("d", 4, 10);
        assert_eq!(cache.peek("a"), None, "peek left `a` the LRU victim");
        assert_eq!(cache.peek("missing"), None);
    }

    #[test]
    fn duplicate_inserts_keep_the_resident_value() {
        let mut cache: LruCache<&str, u32> = LruCache::new(Some(100));
        cache.insert("k", 1, 10);
        let resident = *cache.insert("k", 2, 10).0;
        assert_eq!(resident, 1, "racing duplicate insert is ignored");
        assert_eq!(cache.resident_bytes(), 10, "no double accounting");
    }

    #[test]
    fn set_bytes_reweighs_and_re_enforces() {
        let mut cache: LruCache<String, u32> = LruCache::new(Some(20));
        cache.insert("a".to_string(), 1, 5);
        cache.insert("b".to_string(), 2, 5);
        let evicted = cache.set_bytes("b", 19);
        assert_eq!(evicted, vec![("a".to_string(), 5)], "growth of b evicted a");
        assert_eq!(cache.get("b"), Some(&2));
        assert_eq!(cache.resident_bytes(), 19);
    }

    #[test]
    fn eviction_order_is_deterministic_under_tick_ties() {
        // Ticks are strictly monotone, so there are no real ties; two
        // identically-driven caches evict identically.
        let drive = || {
            let mut cache: LruCache<u32, u32> = LruCache::new(Some(25));
            let mut evicted = Vec::new();
            for i in 0..20 {
                evicted.extend(cache.insert(i % 7, i, 10).1);
            }
            evicted
        };
        assert_eq!(drive(), drive());
    }

    fn key(kind: MemoKind, form: &str) -> MemoKey {
        MemoKey::new(kind, form, 0)
    }

    #[test]
    fn one_budget_bounds_every_kind_and_counts_each_event_once() {
        let memo = MemoCache::new(Some(100));
        let crit = key(MemoKind::CritSet, "q");
        let audit = key(MemoKind::Audit, "q");
        assert!(memo.get::<u32>(&crit).is_none());
        memo.insert(crit.clone(), Arc::new(1u32), 60);
        // Same form, another kind: a distinct entry of another type.
        assert!(memo.get::<String>(&audit).is_none());
        memo.insert(audit.clone(), Arc::new("verdict".to_string()), 30);
        assert_eq!(memo.get::<u32>(&crit).as_deref(), Some(&1));
        // 60 + 30 + 40 > 100: the least recently used entry, the audit,
        // goes, whatever its kind.
        memo.insert(key(MemoKind::Compiled, "v"), Arc::new(2u32), 40);
        let stats = memo.stats();
        assert_eq!(stats.of(MemoKind::Audit).entries, 0);
        assert_eq!(stats.of(MemoKind::CritSet).hits, 1);
        assert_eq!(stats.of(MemoKind::CritSet).misses, 1);
        assert_eq!(stats.of(MemoKind::Audit).misses, 1);
        assert_eq!(stats.of(MemoKind::Audit).evictions, 1);
        assert_eq!(stats.of(MemoKind::Audit).evicted_bytes, 30);
        let total = stats.total();
        assert_eq!((total.hits, total.misses, total.evictions), (1, 2, 1));
        assert_eq!((total.entries, total.resident_bytes), (2, 100));
    }

    #[test]
    fn probes_move_no_counter_and_no_recency() {
        let memo = MemoCache::new(Some(20));
        let (a, b) = (key(MemoKind::CritSet, "a"), key(MemoKind::CritSet, "b"));
        memo.insert(a.clone(), Arc::new(1u32), 10);
        memo.insert(b.clone(), Arc::new(2u32), 10);
        let before = memo.stats();
        let resident = |k: &MemoKey| {
            let mut found = false;
            memo.for_each_key(|key| found |= key == k);
            found
        };
        assert!(resident(&a) && resident(&b));
        assert_eq!(memo.stats(), before);
        // `a` is still the LRU entry: the probe did not refresh it.
        memo.insert(key(MemoKind::CritSet, "c"), Arc::new(3u32), 10);
        assert!(!resident(&a));
        assert!(resident(&b));
    }

    #[test]
    fn an_unbounded_memo_never_evicts_and_keeps_racing_inserts_single() {
        let memo = MemoCache::default();
        for i in 0..100 {
            memo.insert(
                key(MemoKind::Compiled, &i.to_string()),
                Arc::new(i),
                1 << 20,
            );
        }
        let first = memo.insert(key(MemoKind::Compiled, "0"), Arc::new(7), 1 << 20);
        assert_eq!(*first, 0, "the resident value wins a racing insert");
        let total = memo.stats().total();
        assert_eq!((total.entries, total.evictions), (100, 0));
        assert_eq!(total.resident_bytes, 100 << 20);
    }
}
