//! First-class compiled artifacts, memoized engine-wide.
//!
//! Everything expensive an audit derives from a query is a *compiled
//! artifact* with a well-defined identity:
//!
//! | artifact | identity | domain-size dependent? |
//! |---|---|---|
//! | interned candidate space (subgoal groundings) | ([`CanonicalKey::form`], active-domain size) | yes — it enumerates `tup(D)` |
//! | materialized `crit_D(Q)` set | ([`CanonicalKey::form`], active-domain size) | yes |
//! | symmetry-class criticality verdicts ([`ClassVerdictCache`]) | [`CanonicalKey::form`] alone | **no** — the Appendix A decision freezes fresh constants, never enumerating the domain |
//! | witness-mask compilation (`qvsec_prob::kernel::CompiledQuery`) | (canonical form, tuple space) | keyed inside the engine's `ProbKernel`, whose space is fixed |
//!
//! [`CompiledArtifacts`] owns the first three and hands them out as shared
//! `Arc`s. The class-verdict layer is what makes the crit cache useful
//! *across* active-domain sizes: two audits of the same view against
//! different secrets generally see different Proposition 4.9 paddings, so
//! their `(form, |D|)` keys miss — but every symmetry class the first audit
//! decided is reused verbatim by the second, which only re-*derives* (i.e.
//! re-enumerates class members), never re-*decides*.
//!
//! ## Bounded caches
//!
//! Each layer is a byte-budgeted [`ShardedLruCache`] split into
//! [`MEMO_SHARDS`] shards by a deterministic hash of the canonical form,
//! so concurrent tenants looking up structurally different queries contend
//! on different locks. With an [`ArtifactBudget`] configured (see
//! `AuditEngineBuilder::cache_budget_bytes`), each shard owns a fixed
//! slice of the layer's budget; inserting past it evicts that shard's
//! least-recently-used entries, and a later request for an evicted
//! artifact simply misses and recomputes — eviction is **transparent** to
//! every verdict (property-tested in `tests/eviction_equivalence.rs`, and
//! byte-identical under thread contention in
//! `tests/sharded_memo_stress.rs`). With no budget the caches keep the
//! historical append-only behaviour. Hit/miss/eviction counters and
//! resident bytes are read through [`CompiledArtifacts::counters`].
//!
//! Artifacts are never persisted: each is a pure function of (query,
//! domain, dictionary), so one that is not resident — after a restart or
//! an eviction — is recomputed on first use. The durable store of a
//! server holds tenant state only (the serving layer's journal).

use crate::critical::{self, ClassVerdictCache, CritStats};
use crate::Result;
use qvsec_cq::{CanonicalKey, ConjunctiveQuery};
use qvsec_data::{Domain, ShardedLruCache, Tuple, TupleSpace};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shards each memo layer is split into: enough that concurrent tenants
/// touching distinct canonical forms rarely contend on one lock, few enough
/// that per-shard byte budgets stay meaningful under small totals.
pub const MEMO_SHARDS: usize = 8;

/// A per-domain memo keyed by (canonical query form, active-domain size),
/// split into canonical-form-hash shards, each bounded by its slice of the
/// layer's byte budget.
type DomainMemo<T> = ShardedLruCache<(String, usize), Arc<T>>;

/// Approximate heap footprint of one tuple.
fn tuple_bytes(t: &Tuple) -> usize {
    std::mem::size_of::<Tuple>() + std::mem::size_of_val(t.values.as_slice())
}

/// Approximate heap footprint of a materialized `crit_D(Q)` set.
fn crit_set_bytes(set: &BTreeSet<Tuple>) -> usize {
    // ~2 words of BTree node overhead per entry on top of the tuples.
    set.iter().map(tuple_bytes).sum::<usize>() + 16 * set.len()
}

/// Approximate heap footprint of an interned candidate space (sorted tuple
/// vector plus the index map).
fn space_bytes(space: &TupleSpace) -> usize {
    space.iter().map(|t| 2 * tuple_bytes(t)).sum::<usize>() + 48 * space.len()
}

/// Per-layer byte budgets for the artifact store. `None` fields never evict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtifactBudget {
    /// Budget for materialized `crit_D(Q)` sets.
    pub crit_bytes: Option<usize>,
    /// Budget for interned candidate spaces.
    pub space_bytes: Option<usize>,
    /// Budget for shared symmetry-class verdict caches.
    pub class_bytes: Option<usize>,
}

impl ArtifactBudget {
    /// The append-only (never-evicting) configuration.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Splits one total budget across the three layers: half to the crit
    /// sets (the largest artifacts), a quarter each to candidate spaces and
    /// class-verdict caches.
    pub fn split(total: usize) -> Self {
        ArtifactBudget {
            crit_bytes: Some(total / 2),
            space_bytes: Some(total / 4),
            class_bytes: Some(total - total / 2 - total / 4),
        }
    }
}

/// The engine-wide store of compiled per-query artifacts. See the
/// [module docs](self) for the identity of each layer and the eviction
/// policy.
#[derive(Debug)]
pub struct CompiledArtifacts {
    /// Materialized `crit_D(Q)` sets.
    crit_sets: DomainMemo<BTreeSet<Tuple>>,
    /// Interned candidate (subgoal-grounding) spaces.
    spaces: DomainMemo<TupleSpace>,
    /// Domain-size-independent symmetry-class verdicts, per canonical form
    /// (order-free queries only).
    class_verdicts: ShardedLruCache<String, Arc<ClassVerdictCache>>,
    /// Engine-lifetime pruning counters of the `crit(Q)` kernel.
    crit_stats: CritStats,
    crit_hits: AtomicU64,
    crit_misses: AtomicU64,
    space_hits: AtomicU64,
    space_misses: AtomicU64,
}

impl Default for CompiledArtifacts {
    fn default() -> Self {
        Self::with_budget(ArtifactBudget::unbounded())
    }
}

impl CompiledArtifacts {
    /// An empty, unbounded (append-only) artifact store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty artifact store bounded by `budget`.
    pub fn with_budget(budget: ArtifactBudget) -> Self {
        CompiledArtifacts {
            crit_sets: ShardedLruCache::new(MEMO_SHARDS, budget.crit_bytes),
            spaces: ShardedLruCache::new(MEMO_SHARDS, budget.space_bytes),
            class_verdicts: ShardedLruCache::new(MEMO_SHARDS, budget.class_bytes),
            crit_stats: CritStats::new(),
            crit_hits: AtomicU64::new(0),
            crit_misses: AtomicU64::new(0),
            space_hits: AtomicU64::new(0),
            space_misses: AtomicU64::new(0),
        }
    }

    /// The shared `crit(Q)` kernel counters.
    pub fn crit_stats(&self) -> &CritStats {
        &self.crit_stats
    }

    /// Number of distinct `crit(Q)` sets currently memoized.
    pub fn cached_crit_sets(&self) -> usize {
        self.crit_sets.len()
    }

    /// Number of canonical forms with a shared class-verdict cache.
    pub fn cached_class_caches(&self) -> usize {
        self.class_verdicts.len()
    }

    /// Number of shards each memo layer is split into.
    pub fn memo_shards(&self) -> usize {
        self.crit_sets.num_shards()
    }

    /// Per-shard lifetime eviction counters, summed across the three
    /// artifact layers (shards are index-aligned). The total equals the
    /// aggregate `evictions` counter the engine always reported, so
    /// sharding never hides an eviction.
    pub fn per_shard_evictions(&self) -> Vec<u64> {
        let mut out = self.crit_sets.per_shard_evictions();
        for (slot, e) in out.iter_mut().zip(self.spaces.per_shard_evictions()) {
            *slot += e;
        }
        for (slot, e) in out
            .iter_mut()
            .zip(self.class_verdicts.per_shard_evictions())
        {
            *slot += e;
        }
        out
    }

    /// The shared class-verdict cache of `key`'s canonical form, or `None`
    /// when the query uses order comparisons (class verdicts are not
    /// domain-permutation invariant there).
    fn class_cache_for(&self, key: &CanonicalKey) -> Option<Arc<ClassVerdictCache>> {
        if !key.order_free() {
            return None;
        }
        let mut caches = self.class_verdicts.shard(key.form());
        if let Some(hit) = caches.get(key.form()) {
            return Some(Arc::clone(hit));
        }
        let fresh = Arc::new(ClassVerdictCache::new());
        Some(Arc::clone(caches.insert(
            key.form().to_string(),
            fresh,
            key.form().len() + 64,
        )))
    }

    /// Computes (or fetches) `crit_D(query)` over `active`, memoized under
    /// the query's canonical form and the active-domain size, with symmetry
    /// -class verdicts shared across domain sizes through the query's
    /// [`ClassVerdictCache`].
    pub fn crit(
        &self,
        query: &ConjunctiveQuery,
        active: &Domain,
        cap: usize,
    ) -> Result<Arc<BTreeSet<Tuple>>> {
        let key = CanonicalKey::of(query);
        let memo_key = (key.form().to_string(), active.len());
        if let Some(hit) = self.crit_sets.shard(&memo_key).get(&memo_key) {
            self.crit_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        self.crit_misses.fetch_add(1, Ordering::Relaxed);
        // Compute outside the lock so concurrent audits of distinct queries
        // do not serialize; a racing duplicate insert is harmless.
        let kernel_span = qvsec_obs::Span::enter("crit.kernel");
        let classes = self.class_cache_for(&key);
        let computed = Arc::new(critical::critical_tuples_shared(
            query,
            active,
            cap,
            &self.crit_stats,
            classes.as_deref(),
        )?);
        drop(kernel_span);
        // The kernel may have grown the shared class cache; re-weigh it so
        // the class-layer budget sees the growth.
        if let Some(classes) = &classes {
            self.class_verdicts
                .shard(key.form())
                .set_bytes(key.form(), classes.approx_bytes());
        }
        let bytes = crit_set_bytes(&computed) + memo_key.0.len();
        let mut memo = self.crit_sets.shard(&memo_key);
        Ok(Arc::clone(memo.insert(memo_key.clone(), computed, bytes)))
    }

    /// Computes (or fetches) the interned candidate space of `query` over
    /// `active` — the sorted universe of its subgoal groundings.
    pub fn candidate_space(
        &self,
        query: &ConjunctiveQuery,
        active: &Domain,
        cap: usize,
    ) -> Result<Arc<TupleSpace>> {
        let memo_key = (qvsec_cq::canonical_form(query), active.len());
        if let Some(hit) = self.spaces.shard(&memo_key).get(&memo_key) {
            self.space_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        self.space_misses.fetch_add(1, Ordering::Relaxed);
        let space_span = qvsec_obs::Span::enter("crit.space");
        let computed = Arc::new(critical::candidate_space(query, active, cap)?);
        drop(space_span);
        let bytes = space_bytes(&computed) + memo_key.0.len();
        let mut memo = self.spaces.shard(&memo_key);
        Ok(Arc::clone(memo.insert(memo_key.clone(), computed, bytes)))
    }

    /// A snapshot of the artifact-layer hit/miss/eviction counters and
    /// resident bytes.
    pub fn counters(&self) -> ArtifactCounters {
        let (crit_evictions, crit_evicted, crit_resident) = (
            self.crit_sets.evictions(),
            self.crit_sets.evicted_bytes(),
            self.crit_sets.resident_bytes(),
        );
        let (space_evictions, space_evicted, space_resident) = (
            self.spaces.evictions(),
            self.spaces.evicted_bytes(),
            self.spaces.resident_bytes(),
        );
        let (class_evictions, class_evicted, class_resident) = (
            self.class_verdicts.evictions(),
            self.class_verdicts.evicted_bytes(),
            self.class_verdicts.resident_bytes(),
        );
        ArtifactCounters {
            crit_cache_hits: self.crit_hits.load(Ordering::Relaxed),
            crit_cache_misses: self.crit_misses.load(Ordering::Relaxed),
            space_cache_hits: self.space_hits.load(Ordering::Relaxed),
            space_cache_misses: self.space_misses.load(Ordering::Relaxed),
            evictions: crit_evictions + space_evictions + class_evictions,
            evicted_bytes: crit_evicted + space_evicted + class_evicted,
            resident_bytes: (crit_resident + space_resident + class_resident) as u64,
        }
    }
}

/// Whether a read-only `explain` probe found an artifact resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArtifactTier {
    /// Not resident; the next request recomputes it.
    Uncached,
    /// Resident in the in-memory memo.
    Memory,
}

impl ArtifactTier {
    /// The wire spelling (`memory` | `uncached`).
    pub fn as_str(self) -> &'static str {
        match self {
            ArtifactTier::Memory => "memory",
            ArtifactTier::Uncached => "uncached",
        }
    }
}

/// The result of probing every artifact layer for one canonical form —
/// the payload of the `explain` wire op and `SHOW CANONICAL`. Probes are
/// strictly read-only: they never refresh LRU recency or bump a hit/miss
/// counter, so issuing `explain` cannot change any later verdict or
/// eviction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArtifactProbe {
    /// The probed canonical form.
    pub form: String,
    /// Whether a materialized `crit_D(Q)` set for the form is resident (at
    /// any active-domain size).
    pub crit: ArtifactTier,
    /// Active-domain sizes with a cached `crit_D(Q)` set, ascending.
    pub crit_domain_sizes: Vec<usize>,
    /// Whether an interned candidate space for the form is resident.
    pub space: ArtifactTier,
    /// Whether the form's shared symmetry-class verdict cache (the
    /// memoized per-class criticality *decisions*, reused across domain
    /// sizes) is resident. Always `Uncached` for order-constrained queries.
    pub class_verdicts: ArtifactTier,
}

impl CompiledArtifacts {
    /// Probes every layer for `query`'s canonical form without recomputing
    /// or counting anything. See [`ArtifactProbe`].
    pub fn probe(&self, query: &ConjunctiveQuery) -> ArtifactProbe {
        let form = qvsec_cq::canonical_form(query);
        let mut crit_sizes: BTreeSet<usize> = BTreeSet::new();
        let mut crit = ArtifactTier::Uncached;
        let mut space = ArtifactTier::Uncached;
        self.crit_sets.for_each_key(|(f, size)| {
            if *f == form {
                crit_sizes.insert(*size);
                crit = ArtifactTier::Memory;
            }
        });
        self.spaces.for_each_key(|(f, _)| {
            if *f == form {
                space = ArtifactTier::Memory;
            }
        });
        let class_verdicts = if self
            .class_verdicts
            .shard(form.as_str())
            .peek(&form)
            .is_some()
        {
            ArtifactTier::Memory
        } else {
            ArtifactTier::Uncached
        };
        ArtifactProbe {
            form,
            crit,
            crit_domain_sizes: crit_sizes.into_iter().collect(),
            space,
            class_verdicts,
        }
    }
}

/// Hit/miss/eviction counters of the [`CompiledArtifacts`] memo layers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtifactCounters {
    /// `crit(Q)` requests served from the memo.
    pub crit_cache_hits: u64,
    /// `crit(Q)` requests that ran the kernel.
    pub crit_cache_misses: u64,
    /// Candidate-space requests served from the memo.
    pub space_cache_hits: u64,
    /// Candidate-space requests that enumerated groundings.
    pub space_cache_misses: u64,
    /// Artifacts evicted under the byte budget (all three layers).
    #[serde(default)]
    pub evictions: u64,
    /// Approximate bytes evicted over the store's lifetime.
    #[serde(default)]
    pub evicted_bytes: u64,
    /// Approximate bytes currently resident (a gauge, not a counter).
    #[serde(default)]
    pub resident_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical::critical_tuples;
    use qvsec_cq::parse_query;
    use qvsec_data::Schema;

    fn setup() -> (Schema, Domain) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        (schema, Domain::with_constants(["a", "b"]))
    }

    #[test]
    fn crit_artifacts_are_transparent_and_shared() {
        let (schema, mut domain) = setup();
        let artifacts = CompiledArtifacts::new();
        let q = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let got = artifacts.crit(&q, &domain, 10_000).unwrap();
        assert_eq!(*got, critical_tuples(&q, &domain).unwrap());
        let again = artifacts.crit(&q, &domain, 10_000).unwrap();
        assert!(Arc::ptr_eq(&got, &again));
        let counters = artifacts.counters();
        assert_eq!(counters.crit_cache_hits, 1);
        assert_eq!(counters.crit_cache_misses, 1);
        assert_eq!(counters.evictions, 0, "unbounded store never evicts");
        assert!(counters.resident_bytes > 0);
    }

    #[test]
    fn class_verdicts_are_reused_when_the_domain_grows() {
        let (schema, mut domain) = setup();
        let artifacts = CompiledArtifacts::new();
        let q = parse_query("V(x) :- R(x, 'a')", &schema, &mut domain).unwrap();
        let small = artifacts.crit(&q, &domain, 100_000).unwrap();
        assert_eq!(*small, critical_tuples(&q, &domain).unwrap());
        let decided_small = artifacts.crit_stats().snapshot().decisions_run;

        // Grow the domain: the (form, |D|) memo misses, but every symmetry
        // class seen at the small size is reused — only classes that are
        // NEW at the larger size get decided.
        let mut grown = domain.clone();
        for c in ["c", "d", "e"] {
            grown.add(c);
        }
        let big = artifacts.crit(&q, &grown, 100_000).unwrap();
        assert_eq!(*big, critical_tuples(&q, &grown).unwrap());
        let snap = artifacts.crit_stats().snapshot();
        assert!(
            snap.class_verdicts_reused > 0,
            "grown-domain audit must reuse class verdicts: {snap:?}"
        );
        assert!(
            snap.decisions_run >= decided_small,
            "counters only accumulate"
        );
        assert_eq!(artifacts.cached_crit_sets(), 2, "one set per domain size");
        assert_eq!(artifacts.cached_class_caches(), 1, "one shared class map");
    }

    #[test]
    fn order_queries_do_not_share_class_caches() {
        let (schema, mut domain) = setup();
        let artifacts = CompiledArtifacts::new();
        let q = parse_query("Q() :- R(x, y), x < y", &schema, &mut domain).unwrap();
        let got = artifacts.crit(&q, &domain, 100_000).unwrap();
        assert_eq!(*got, critical_tuples(&q, &domain).unwrap());
        assert_eq!(artifacts.cached_class_caches(), 0);
        assert_eq!(artifacts.crit_stats().snapshot().class_verdicts_reused, 0);
    }

    #[test]
    fn candidate_spaces_are_memoized() {
        let (schema, mut domain) = setup();
        let artifacts = CompiledArtifacts::new();
        let q = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let a = artifacts.candidate_space(&q, &domain, 10_000).unwrap();
        let b = artifacts.candidate_space(&q, &domain, 10_000).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 4);
        let counters = artifacts.counters();
        assert_eq!(counters.space_cache_hits, 1);
        assert_eq!(counters.space_cache_misses, 1);
    }

    #[test]
    fn tiny_budgets_evict_but_stay_transparent() {
        let (schema, mut domain) = setup();
        // A 1-byte budget per layer, split across the memo shards: a shard
        // holding more than one entry evicts on every insert (a lone entry
        // stays resident — the LRU never evicts its last slot).
        let artifacts = CompiledArtifacts::with_budget(ArtifactBudget::split(3));
        // More distinct canonical forms than shards, so by pigeonhole at
        // least one shard receives two keys and must evict.
        let texts = [
            "V(x) :- R(x, y)",
            "S(y) :- R(x, y)",
            "V(x, y) :- R(x, y)",
            "V() :- R(x, y)",
            "V(x) :- R(x, 'a')",
            "V(x) :- R(x, 'b')",
            "V(x) :- R('a', x)",
            "V(x) :- R('b', x)",
            "V() :- R('a', 'b')",
            "V() :- R('b', 'a')",
        ];
        let queries: Vec<_> = texts
            .iter()
            .map(|t| parse_query(t, &schema, &mut domain).unwrap())
            .collect();
        assert!(queries.len() > artifacts.memo_shards());
        for round in 0..3 {
            for q in &queries {
                let got = artifacts.crit(q, &domain, 10_000).unwrap();
                assert_eq!(
                    *got,
                    critical_tuples(q, &domain).unwrap(),
                    "round {round}: eviction must be transparent"
                );
            }
        }
        let counters = artifacts.counters();
        assert!(
            counters.evictions > 0,
            "tiny budget must evict: {counters:?}"
        );
        assert!(counters.evicted_bytes > 0);
        assert!(
            artifacts.cached_crit_sets() <= artifacts.memo_shards(),
            "each shard retains at most one entry under a tiny budget"
        );
        assert_eq!(
            artifacts.per_shard_evictions().iter().sum::<u64>(),
            counters.evictions,
            "per-shard eviction counters must sum to the aggregate"
        );
    }

    #[test]
    fn budget_split_covers_the_total() {
        let b = ArtifactBudget::split(100);
        assert_eq!(
            b.crit_bytes.unwrap() + b.space_bytes.unwrap() + b.class_bytes.unwrap(),
            100
        );
    }
}
