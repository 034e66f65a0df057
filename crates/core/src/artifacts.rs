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
//! | witness-mask compilation (`qvsec_prob::kernel::CompiledQuery`) | (canonical form, tuple space) | memoized by the engine's `ProbKernel`, whose space is fixed, in the same memo |
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
//! Every artifact lives in the engine's one [`MemoCache`], keyed by
//! ([`MemoKind`], canonical form, active-domain size) and shared with the
//! engine's probabilistic kernel: one lock, one recency order and one byte
//! budget (see `AuditEngineBuilder::cache_budget_bytes`). Inserting past
//! the budget evicts the least-recently-used artifacts of any kind, and a
//! later request for an evicted artifact simply misses and recomputes —
//! eviction is **transparent** to every verdict (property-tested in
//! `tests/eviction_equivalence.rs`, and byte-identical under thread
//! contention in `tests/sharded_memo_stress.rs`). With no budget the memo
//! is append-only. Hits, misses, evictions and resident bytes per kind are
//! read through [`MemoCache::stats`].
//!
//! Artifacts are never persisted: each is a pure function of (query,
//! domain, dictionary), so one that is not resident — after a restart or
//! an eviction — is recomputed on first use. The durable store of a
//! server holds tenant state only (the serving layer's journal).

use crate::critical::{self, ClassVerdictCache, CritStats};
use crate::Result;
use qvsec_cq::{CanonicalKey, ConjunctiveQuery};
use qvsec_data::{Domain, MemoCache, MemoKey, MemoKind, Tuple, TupleSpace};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

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

/// The engine-wide store of compiled per-query artifacts. See the
/// [module docs](self) for the identity of each layer and the eviction
/// policy.
#[derive(Debug)]
pub struct CompiledArtifacts {
    /// The engine's memo: crit sets, candidate spaces and class verdicts
    /// here, the kernel's artifacts beside them.
    cache: Arc<MemoCache>,
    /// Engine-lifetime pruning counters of the `crit(Q)` kernel.
    crit_stats: CritStats,
}

impl Default for CompiledArtifacts {
    fn default() -> Self {
        Self::with_cache(Arc::new(MemoCache::default()))
    }
}

impl CompiledArtifacts {
    /// An empty store over its own unbounded (append-only) memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store over `cache`, which it may share with a kernel.
    pub fn with_cache(cache: Arc<MemoCache>) -> Self {
        CompiledArtifacts {
            cache,
            crit_stats: CritStats::new(),
        }
    }

    /// The memo the store keeps its artifacts in.
    pub fn cache(&self) -> &Arc<MemoCache> {
        &self.cache
    }

    /// The shared `crit(Q)` kernel counters.
    pub fn crit_stats(&self) -> &CritStats {
        &self.crit_stats
    }

    /// Number of distinct `crit(Q)` sets currently memoized.
    pub fn cached_crit_sets(&self) -> usize {
        self.cache.stats().of(MemoKind::CritSet).entries
    }

    /// Number of canonical forms with a shared class-verdict cache.
    pub fn cached_class_caches(&self) -> usize {
        self.cache.stats().of(MemoKind::ClassVerdicts).entries
    }

    /// The shared class-verdict cache of `key`'s canonical form, or `None`
    /// when the query uses order comparisons (class verdicts are not
    /// domain-permutation invariant there).
    fn class_cache_for(&self, key: &CanonicalKey) -> Option<Arc<ClassVerdictCache>> {
        if !key.order_free() {
            return None;
        }
        let memo_key = MemoKey::new(MemoKind::ClassVerdicts, key.form(), 0);
        if let Some(hit) = self.cache.get(&memo_key) {
            return Some(hit);
        }
        let bytes = key.form().len() + 64;
        Some(
            self.cache
                .insert(memo_key, Arc::new(ClassVerdictCache::new()), bytes),
        )
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
        let memo_key = MemoKey::new(MemoKind::CritSet, key.form(), active.len());
        if let Some(hit) = self.cache.get(&memo_key) {
            return Ok(hit);
        }
        // Compute outside the lock so concurrent audits do not serialize;
        // a racing duplicate insert is harmless.
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
        // the budget sees the growth.
        if let Some(classes) = &classes {
            let class_key = MemoKey::new(MemoKind::ClassVerdicts, key.form(), 0);
            self.cache.set_bytes(&class_key, classes.approx_bytes());
        }
        let bytes = crit_set_bytes(&computed) + memo_key.form.len();
        Ok(self.cache.insert(memo_key, computed, bytes))
    }

    /// Computes (or fetches) the interned candidate space of `query` over
    /// `active` — the sorted universe of its subgoal groundings.
    pub fn candidate_space(
        &self,
        query: &ConjunctiveQuery,
        active: &Domain,
        cap: usize,
    ) -> Result<Arc<TupleSpace>> {
        let memo_key = MemoKey::new(
            MemoKind::CandidateSpace,
            qvsec_cq::canonical_form(query),
            active.len(),
        );
        if let Some(hit) = self.cache.get(&memo_key) {
            return Ok(hit);
        }
        let space_span = qvsec_obs::Span::enter("crit.space");
        let computed = Arc::new(critical::candidate_space(query, active, cap)?);
        drop(space_span);
        let bytes = space_bytes(&computed) + memo_key.form.len();
        Ok(self.cache.insert(memo_key, computed, bytes))
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
        let mut space = ArtifactTier::Uncached;
        let mut class_verdicts = ArtifactTier::Uncached;
        self.cache.for_each_key(|key| {
            if key.form != form {
                return;
            }
            match key.kind {
                MemoKind::CritSet => {
                    crit_sizes.insert(key.domain_size);
                }
                MemoKind::CandidateSpace => space = ArtifactTier::Memory,
                MemoKind::ClassVerdicts => class_verdicts = ArtifactTier::Memory,
                _ => {}
            }
        });
        let crit = if crit_sizes.is_empty() {
            ArtifactTier::Uncached
        } else {
            ArtifactTier::Memory
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
        let stats = artifacts.cache().stats();
        assert_eq!(stats.of(MemoKind::CritSet).hits, 1);
        assert_eq!(stats.of(MemoKind::CritSet).misses, 1);
        assert_eq!(stats.total().evictions, 0, "unbounded store never evicts");
        assert!(stats.total().resident_bytes > 0);
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
        let spaces = artifacts.cache().stats().of(MemoKind::CandidateSpace);
        assert_eq!(spaces.hits, 1);
        assert_eq!(spaces.misses, 1);
    }

    #[test]
    fn tiny_budgets_evict_but_stay_transparent() {
        let (schema, mut domain) = setup();
        // A 3-byte budget: every insert evicts whatever else is resident
        // (a lone entry stays — the LRU never evicts its last slot).
        let artifacts = CompiledArtifacts::with_cache(Arc::new(MemoCache::new(Some(3))));
        let texts = [
            "V(x) :- R(x, y)",
            "S(y) :- R(x, y)",
            "V(x, y) :- R(x, y)",
            "V() :- R(x, y)",
            "V(x) :- R(x, 'a')",
            "V(x) :- R(x, 'b')",
        ];
        let queries: Vec<_> = texts
            .iter()
            .map(|t| parse_query(t, &schema, &mut domain).unwrap())
            .collect();
        for round in 0..3 {
            for q in &queries {
                let got = artifacts.crit(q, &domain, 10_000).unwrap();
                assert_eq!(
                    *got,
                    critical_tuples(q, &domain).unwrap(),
                    "round {round}: eviction must be transparent"
                );
                assert_eq!(artifacts.cache().stats().total().entries, 1);
            }
        }
        let total = artifacts.cache().stats().total();
        assert!(total.evictions > 0, "tiny budget must evict: {total:?}");
        assert!(total.evicted_bytes > 0);
    }
}
