//! The owned, thread-safe audit engine.
//!
//! [`AuditEngine`] is the workspace's production entry point: it owns its
//! [`Schema`] / [`Domain`] (and optionally a [`Dictionary`]) behind `Arc`s,
//! is `Send + Sync`, and serves any number of audits — sequentially via
//! [`AuditEngine::audit`] or in parallel via [`AuditEngine::audit_batch`] —
//! against that shared context.
//!
//! ## Staged, budgeted evaluation
//!
//! Every audit runs the paper's procedures as an escalation ladder bounded
//! by the requested [`AuditDepth`]:
//!
//! | depth | procedures run | cost |
//! |---|---|---|
//! | [`AuditDepth::Fast`] | §4.2 pairwise subgoal unification | linear-ish, always conclusive when it certifies security |
//! | [`AuditDepth::Exact`] | + Theorem 4.5 critical-tuple criterion | exponential in subgoal overlap, memoized |
//! | [`AuditDepth::Probabilistic`] | + Definition 4.1 independence (Theorems 4.5 + 4.8 over the dictionary's space), §6.1 leakage, total-disclosure test | critical tuples of the kernel's compilations; one space evaluation for dependent pairs only |
//!
//! The fast check always runs first. When it certifies security the exact
//! stage is skipped entirely — soundly, since "no unifiable subgoal pair"
//! implies `crit(S) ∩ crit(V̄) = ∅` — and the exact verdict is synthesized
//! with an empty witness set. When the fast check is inconclusive and the
//! budget stops at `Fast`, the report says so (`conclusive == false`)
//! rather than guessing.
//!
//! Every stage assumes tuple-independent instances. Key constraints break
//! that assumption (§5.2 Application 2: a pair secure by Theorem 4.5 can
//! disclose under a key), so an engine whose schema declares keys refuses
//! to audit and points at Corollary 5.3,
//! [`crate::prior::keys::secure_under_keys`].
//!
//! ## Compiled artifacts
//!
//! The exact stage needs `crit_D(Q)` for the secret and every view. The
//! engine memoizes these sets — together with interned candidate spaces —
//! in its [`CompiledArtifacts`] store, keyed by
//! ([`qvsec_cq::canonical_form`], active-domain size): a key that is
//! invariant under variable renaming, the cosmetic query name and most
//! subgoal reorderings (ties between structurally identical subgoals can
//! miss, never falsely hit), and sound because the critical-tuple set
//! depends only on the query structure and the number of domain constants.
//! Republishing the same view across thousands of audit requests therefore
//! computes its critical tuples exactly once, and — for order-free
//! queries — symmetry-class verdicts are shared across *domain sizes*, so
//! even a grown active domain only re-derives class members rather than
//! re-deciding representatives. The memo lives in memory only: every
//! artifact is a pure function of (query, domain, dictionary), so a fresh
//! engine — after a restart, or on a server with a durable store of tenant
//! state — recomputes each one on first use.
//!
//! Cache misses are served by the parallel, pruned `crit(Q)` kernel of
//! [`crate::critical`] (streaming pattern grouping, unification prefilter,
//! comparison-constraint propagation), and the engine accumulates the
//! kernel's pruning counters for its whole lifetime — see
//! [`AuditEngine::crit_stats`]; every cache layer's hit/miss counters are
//! combined in [`AuditEngine::cache_stats`].
//!
//! ## Sessions
//!
//! [`AuditEngine::open_session`] returns an [`AuditSession`] — the
//! incremental-publication handle for the paper's §6 collusion flow
//! ("V₁…Vₖ are public; is it safe to *also* publish Vₖ₊₁?"), which answers
//! each marginal question over the warm artifact store. See
//! [`crate::session`].
//!
//! ## The probabilistic kernel
//!
//! The `Probabilistic` stage routes through the shared-sample kernel of
//! [`qvsec_prob::kernel`]. It decides Definition 4.1 from the critical
//! tuples of its compiled queries over the dictionary's space (Theorems
//! 4.5 and 4.8), so an independent pair is answered without evaluating a
//! world. For a dependent pair, tuple spaces up to the configured cutover
//! are streamed exactly as bit masks (no `Instance` per world, one
//! enumeration serving leakage *and* total disclosure); larger spaces cut
//! over to Monte-Carlo estimation of the leakage from one seeded sample
//! pool shared across every audit — including all requests of an
//! [`AuditEngine::audit_batch`] — the engine serves. There, total
//! disclosure is reported only when it is refuted or established, and is
//! `None` otherwise. Each report carries [`EstimatorReport`] metadata
//! saying which estimator produced it, and [`AuditEngine::prob_stats`]
//! exposes the kernel's lifetime counters (worlds streamed, samples
//! drawn/reused, cutovers).

use crate::artifacts::CompiledArtifacts;
use crate::critical::CritStatsSnapshot;
use crate::fast_check::{fast_check, FastVerdict};
use crate::leakage::LeakageReport;
use crate::report::{classify, default_minute_threshold, DisclosureClass};
use crate::security::{active_domain, SecurityVerdict};
use crate::session::AuditSession;
use crate::{QvsError, Result};
use qvsec_cq::{ConjunctiveQuery, ViewSet};
use qvsec_data::{Dictionary, Domain, MemoCache, MemoKind, Ratio, Schema, Tuple};
use qvsec_prob::kernel::{
    EstimatorReport, IndependenceVerdict, KernelConfig, ProbKernel, ProbStatsSnapshot,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Whether two sorted tuple slices (interned candidate spaces) share no
/// element — a single merge walk, no hashing, no cloning.
fn sorted_disjoint(mut a: &[Tuple], mut b: &[Tuple]) -> bool {
    while let (Some(x), Some(y)) = (a.first(), b.first()) {
        match x.cmp(y) {
            std::cmp::Ordering::Less => a = &a[1..],
            std::cmp::Ordering::Greater => b = &b[1..],
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// How deep an audit is allowed to escalate.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum AuditDepth {
    /// Only the Section 4.2 pairwise-unification check.
    Fast,
    /// Escalate to the exact Theorem 4.5 critical-tuple criterion.
    #[default]
    Exact,
    /// Escalate further to the dictionary-level checks: Definition 4.1
    /// independence, the Section 6.1 leakage measure and the
    /// total-disclosure (determinacy) test. Requires the engine to hold a
    /// dictionary.
    Probabilistic,
}

/// Per-request options; unset fields fall back to the engine's defaults.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AuditOptions {
    /// Maximum stage to escalate to.
    pub depth: Option<AuditDepth>,
    /// Threshold separating minute from partial disclosures.
    pub minute_threshold: Option<Ratio>,
    /// Cap on the candidate critical-tuple enumeration.
    pub candidate_cap: Option<usize>,
}

/// One audit: a secret query, the views about to be published, and options.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditRequest {
    /// Label echoed into the report (useful for batch audits).
    pub name: String,
    /// The secret query `S`.
    pub secret: ConjunctiveQuery,
    /// The views `V̄` about to be published.
    pub views: ViewSet,
    /// Per-request options.
    pub options: AuditOptions,
}

impl AuditRequest {
    /// An audit of `secret` against `views` with default options, labelled
    /// after the secret query.
    pub fn new(secret: ConjunctiveQuery, views: impl Into<ViewSet>) -> Self {
        AuditRequest {
            name: secret.name.clone(),
            secret,
            views: views.into(),
            options: AuditOptions::default(),
        }
    }

    /// Overrides the report label.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Overrides the escalation depth.
    pub fn with_depth(mut self, depth: AuditDepth) -> Self {
        self.options.depth = Some(depth);
        self
    }

    /// Overrides the minute-vs-partial threshold.
    pub fn with_minute_threshold(mut self, threshold: Ratio) -> Self {
        self.options.minute_threshold = Some(threshold);
        self
    }
}

/// The machine-readable result of one audit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditReport {
    /// The request's label.
    pub name: String,
    /// The depth the audit was allowed to escalate to.
    pub depth: AuditDepth,
    /// Whether the verdict is definitive. Only `false` when the budget
    /// stopped at [`AuditDepth::Fast`] and some subgoal pair unified (the
    /// fast check alone cannot distinguish real from spurious overlaps).
    pub conclusive: bool,
    /// The definitive security verdict when known: `Some(true)` means
    /// query-view secure for every tuple-independent distribution.
    pub secure: Option<bool>,
    /// Table 1 style classification. When `conclusive` is `false` this is
    /// the conservative assumption [`DisclosureClass::Partial`].
    pub class: DisclosureClass,
    /// The Section 4.2 fast verdict (always present).
    pub fast: FastVerdict,
    /// The Theorem 4.5 verdict (present from [`AuditDepth::Exact`] up).
    pub security: Option<SecurityVerdict>,
    /// The Definition 4.1 verdict over the dictionary's space, decided by
    /// Theorems 4.5 and 4.8 (present at [`AuditDepth::Probabilistic`]).
    pub independence: Option<IndependenceVerdict>,
    /// The Section 6.1 leakage report (present at
    /// [`AuditDepth::Probabilistic`]).
    pub leakage: Option<LeakageReport>,
    /// Whether the views determine the secret answer over the dictionary.
    /// Present at [`AuditDepth::Probabilistic`] unless the Monte-Carlo
    /// path could neither refute nor establish it.
    pub totally_disclosed: Option<bool>,
    /// Which estimator served the probabilistic stage — exact mask
    /// streaming or shared-pool Monte-Carlo — with sample count, seed and
    /// standard-error bound (present at [`AuditDepth::Probabilistic`]).
    #[serde(default)]
    pub estimator: Option<EstimatorReport>,
    /// Human-readable renderings of the common critical tuples witnessing
    /// insecurity (empty when secure or not escalated).
    pub witnesses: Vec<String>,
}

impl AuditReport {
    /// A multi-line human-readable rendering, suitable for audit logs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("audit                 : {}\n", self.name));
        out.push_str(&format!(
            "classification        : {}{}\n",
            self.class,
            if self.conclusive {
                ""
            } else {
                " (inconclusive: fast check only)"
            }
        ));
        out.push_str(&format!(
            "fast check            : {}\n",
            if self.fast.is_certainly_secure() {
                "secure (no unifiable subgoal pair)"
            } else {
                "possibly insecure (some subgoals unify)"
            }
        ));
        if let Some(sec) = &self.security {
            out.push_str(&format!("exact criterion       : {}\n", sec.summary()));
        }
        if let Some(ind) = &self.independence {
            out.push_str(&format!(
                "statistical check     : {} (Theorems 4.5 + 4.8)\n",
                if ind.independent {
                    "independent"
                } else {
                    "dependent"
                }
            ));
        }
        if let Some(leak) = &self.leakage {
            out.push_str(&format!(
                "leakage (Section 6.1) : {} (~{:.4})\n",
                leak.max_leak,
                leak.max_leak_f64()
            ));
            let total = self
                .totally_disclosed
                .map_or("not established".to_string(), |t| t.to_string());
            out.push_str(&format!("totally disclosed     : {total}\n"));
        }
        if let Some(est) = &self.estimator {
            out.push_str(&match est.mode {
                qvsec_prob::kernel::EstimatorMode::Exact => format!(
                    "estimator             : exact ({} worlds streamed)\n",
                    est.worlds_streamed
                ),
                qvsec_prob::kernel::EstimatorMode::MonteCarlo => format!(
                    "estimator             : monte-carlo ({} samples, seed {}, std error <= {:.4})\n",
                    est.sample_count,
                    est.seed.unwrap_or_default(),
                    est.std_error
                ),
            });
        }
        if !self.witnesses.is_empty() {
            out.push_str(&format!(
                "witnesses             : {}\n",
                self.witnesses.join(", ")
            ));
        }
        out
    }
}

/// Builder for [`AuditEngine`].
#[derive(Debug, Clone)]
pub struct AuditEngineBuilder {
    schema: Arc<Schema>,
    domain: Arc<Domain>,
    dictionary: Option<Arc<Dictionary>>,
    minute_threshold: Ratio,
    candidate_cap: usize,
    default_depth: AuditDepth,
    prob_config: KernelConfig,
    cache_budget: Option<usize>,
}

impl AuditEngineBuilder {
    /// Starts a builder from an owned (or shared) schema and domain.
    pub fn new(schema: impl Into<Arc<Schema>>, domain: impl Into<Arc<Domain>>) -> Self {
        AuditEngineBuilder {
            schema: schema.into(),
            domain: domain.into(),
            dictionary: None,
            minute_threshold: default_minute_threshold(),
            candidate_cap: crate::critical::DEFAULT_CANDIDATE_CAP,
            default_depth: AuditDepth::default(),
            // The engine always memoizes whole kernel audits: session steps
            // and multi-tenant serving repeat identical `(secret, views)`
            // audits constantly, and the memo is what moves the warm/cold
            // ratio of probabilistic steps off ≈1 (unbounded here; a byte
            // budget arrives with `cache_budget_bytes`).
            prob_config: KernelConfig {
                audit_memo: true,
                ..KernelConfig::default()
            },
            cache_budget: None,
        }
    }

    /// Attaches the dictionary enabling [`AuditDepth::Probabilistic`].
    pub fn dictionary(mut self, dict: impl Into<Arc<Dictionary>>) -> Self {
        self.dictionary = Some(dict.into());
        self
    }

    /// Overrides the default minute-vs-partial threshold.
    pub fn minute_threshold(mut self, threshold: Ratio) -> Self {
        self.minute_threshold = threshold;
        self
    }

    /// Overrides the default candidate-enumeration cap.
    pub fn candidate_cap(mut self, cap: usize) -> Self {
        self.candidate_cap = cap;
        self
    }

    /// Overrides the default escalation depth used when a request does not
    /// specify one.
    pub fn default_depth(mut self, depth: AuditDepth) -> Self {
        self.default_depth = depth;
        self
    }

    /// Largest tuple-space size the probabilistic stage evaluates exactly;
    /// bigger spaces cut over to Monte-Carlo estimation (default:
    /// [`qvsec_data::bitset::MAX_ENUMERABLE`]).
    pub fn exact_cutover(mut self, tuples: usize) -> Self {
        self.prob_config.exact_cutover = tuples;
        self
    }

    /// Number of worlds drawn into the probabilistic kernel's shared sample
    /// pool (Monte-Carlo path).
    pub fn mc_samples(mut self, samples: usize) -> Self {
        self.prob_config.samples = samples;
        self
    }

    /// Seed of the shared sample pool; a fixed seed makes every
    /// Monte-Carlo report byte-reproducible.
    pub fn mc_seed(mut self, seed: u64) -> Self {
        self.prob_config.seed = seed;
        self
    }

    /// Bounds the engine's memo — every crit set, candidate space, class
    /// verdict cache, kernel compilation, pool column and memoized audit —
    /// by one total byte budget. After every insert the resident bytes fit
    /// `total`, or the one entry just inserted is all that is resident.
    /// Inserting past the budget evicts the least-recently-used artifacts
    /// of any kind; eviction is transparent — any evicted artifact is
    /// recomputed on the next request, and every verdict is byte-identical
    /// to an unbounded engine's (see `tests/eviction_equivalence.rs`).
    /// Without this call the memo is append-only for the engine's lifetime.
    pub fn cache_budget_bytes(mut self, total: usize) -> Self {
        self.cache_budget = Some(total);
        self
    }

    /// Caps the *reported* leak-entry list of probabilistic audits.
    /// `max_leak`, the witness pair and `pairs_checked` still cover every
    /// pair; the cap only bounds how many entries are materialized (lazily
    /// — answers are cloned for surviving entries only) and serialized. `0`
    /// keeps the witness and drops the list. Unset, every entry is listed.
    pub fn report_cap(mut self, cap: usize) -> Self {
        self.prob_config.report_cap = Some(cap);
        self
    }

    /// Builds the engine.
    pub fn build(self) -> AuditEngine {
        AuditEngine {
            schema: self.schema,
            domain: self.domain,
            dictionary: self.dictionary,
            minute_threshold: self.minute_threshold,
            candidate_cap: self.candidate_cap,
            default_depth: self.default_depth,
            prob_config: self.prob_config,
            artifacts: CompiledArtifacts::with_cache(Arc::new(MemoCache::new(self.cache_budget))),
            prob_kernel: OnceLock::new(),
        }
    }
}

/// An owned, `Send + Sync` audit engine bound to one schema, domain and
/// optional dictionary. See the [module docs](self) for the staging and
/// caching model.
///
/// ```
/// use qvsec::{AuditEngine, AuditRequest};
/// use qvsec_cq::{parse_query, ViewSet};
/// use qvsec_data::{Domain, Schema};
///
/// let mut schema = Schema::new();
/// schema.add_relation("Employee", &["name", "department", "phone"]);
/// let mut domain = Domain::new();
/// let v = parse_query("V(n, d) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
/// let s = parse_query("S(d) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
///
/// let engine = AuditEngine::builder(schema, domain).build();
/// let report = engine.audit(&AuditRequest::new(s, ViewSet::single(v))).unwrap();
/// assert_eq!(report.secure, Some(false), "Table 1 row 1: total disclosure");
///
/// // The exact stage ran the crit(Q) kernel and memoized its results:
/// assert!(engine.crit_stats().candidates_examined > 0);
/// assert_eq!(engine.cached_crit_sets(), 2);
/// ```
#[derive(Debug)]
pub struct AuditEngine {
    schema: Arc<Schema>,
    domain: Arc<Domain>,
    dictionary: Option<Arc<Dictionary>>,
    minute_threshold: Ratio,
    candidate_cap: usize,
    default_depth: AuditDepth,
    /// Probabilistic kernel configuration (cutover, samples, seed).
    prob_config: KernelConfig,
    /// First-class compiled artifacts: `crit(Q)` sets and candidate spaces
    /// memoized by (canonical form, active-domain size), plus the
    /// domain-size-independent symmetry-class verdict caches. Its memo is
    /// the engine's one cache, which the kernel shares.
    artifacts: CompiledArtifacts,
    /// The shared-sample probabilistic kernel, built on the first
    /// `Probabilistic` audit over the engine's memo and reused (pool
    /// included) for the engine's whole lifetime.
    prob_kernel: OnceLock<Arc<ProbKernel>>,
}

// The engine is shared across audit worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AuditEngine>();
};

impl AuditEngine {
    /// Shorthand for [`AuditEngineBuilder::new`].
    pub fn builder(
        schema: impl Into<Arc<Schema>>,
        domain: impl Into<Arc<Domain>>,
    ) -> AuditEngineBuilder {
        AuditEngineBuilder::new(schema, domain)
    }

    /// The engine's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The engine's domain of constants.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The engine's dictionary, when configured.
    pub fn dictionary(&self) -> Option<&Dictionary> {
        self.dictionary.as_deref()
    }

    /// Number of distinct `crit(Q)` sets currently memoized.
    pub fn cached_crit_sets(&self) -> usize {
        self.artifacts.cached_crit_sets()
    }

    /// The engine's compiled-artifact store (crit sets, candidate spaces,
    /// class-verdict caches).
    pub fn artifacts(&self) -> &CompiledArtifacts {
        &self.artifacts
    }

    /// The engine's one memo, holding every artifact kind under the
    /// builder's byte budget.
    pub fn cache(&self) -> &MemoCache {
        self.artifacts.cache()
    }

    /// A snapshot of the engine-lifetime `crit(Q)` kernel counters:
    /// candidates examined, pruned (symmetry / prefilter / comparisons) and
    /// fine instances actually frozen, accumulated across every audit served
    /// so far. Cache hits do no kernel work, so a hot engine's counters grow
    /// sublinearly in the number of audits.
    pub fn crit_stats(&self) -> CritStatsSnapshot {
        self.artifacts.crit_stats().snapshot()
    }

    /// A combined snapshot of every artifact/cache layer the engine runs:
    /// crit-set and candidate-space memo hits, cross-domain class-verdict
    /// reuses, probabilistic compile-cache hits and shared-pool sample
    /// reuse, counted since this engine was built. This is the only place
    /// the counters are read; no audit or session report carries them.
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        let memo = self.cache().stats();
        let (crit_sets, spaces) = (
            memo.of(MemoKind::CritSet),
            memo.of(MemoKind::CandidateSpace),
        );
        let total = memo.total();
        let crit = self.artifacts.crit_stats().snapshot();
        let prob = self.prob_stats();
        CacheStatsSnapshot {
            crit_cache_hits: crit_sets.hits,
            crit_cache_misses: crit_sets.misses,
            space_cache_hits: spaces.hits,
            space_cache_misses: spaces.misses,
            class_verdicts_reused: crit.class_verdicts_reused,
            compile_cache_hits: prob.compile_cache_hits,
            queries_compiled: prob.queries_compiled,
            mc_samples_drawn: prob.samples_drawn,
            mc_samples_reused: prob.samples_reused,
            pool_columns_built: prob.pool_columns_built,
            pool_column_hits: prob.pool_column_hits,
            kernel_audit_hits: prob.audit_memo_hits,
            evictions: total.evictions,
            evicted_bytes: total.evicted_bytes,
            resident_bytes: total.resident_bytes,
        }
    }

    /// Opens an [`AuditSession`] for `secret`: a long-lived handle that
    /// accumulates published views and answers "is it safe to *also*
    /// publish V?" incrementally over this engine's compiled artifacts.
    pub fn open_session(self: &Arc<Self>, secret: ConjunctiveQuery) -> AuditSession {
        AuditSession::new(Arc::clone(self), secret, AuditOptions::default())
    }

    /// [`AuditEngine::open_session`] with per-session audit options.
    pub fn open_session_with(
        self: &Arc<Self>,
        secret: ConjunctiveQuery,
        options: AuditOptions,
    ) -> AuditSession {
        AuditSession::new(Arc::clone(self), secret, options)
    }

    /// A snapshot of the engine-lifetime probabilistic-kernel counters:
    /// exact worlds streamed, samples drawn into the shared pool, samples
    /// served from it instead of freshly drawn, and exact→Monte-Carlo
    /// cutovers. All zeros until the first `Probabilistic` audit.
    pub fn prob_stats(&self) -> ProbStatsSnapshot {
        self.prob_kernel
            .get()
            .map(|k| k.stats())
            .unwrap_or_default()
    }

    /// The probabilistic kernel, built against the engine's dictionary and
    /// over the engine's memo on first use.
    fn kernel(&self, dict: &Arc<Dictionary>) -> &Arc<ProbKernel> {
        self.prob_kernel.get_or_init(|| {
            let cache = Arc::clone(self.artifacts.cache());
            Arc::new(ProbKernel::with_cache(
                Arc::clone(dict),
                self.prob_config,
                cache,
            ))
        })
    }

    /// Computes (or fetches) `crit_D(Q)` over `active` through the
    /// artifact store (memoized per (canonical form, active-domain size),
    /// class verdicts shared across domain sizes).
    fn crit_cached(
        &self,
        query: &ConjunctiveQuery,
        active: &Domain,
        cap: usize,
    ) -> Result<Arc<BTreeSet<Tuple>>> {
        self.artifacts.crit(query, active, cap)
    }

    /// The exact Theorem 4.5 verdict computed through the memo cache:
    /// `crit(S) ∩ (crit(V1) ∪ ... ∪ crit(Vk))` over the Proposition 4.9
    /// active domain.
    ///
    /// The cheap candidate (subgoal-grounding) intersection is checked
    /// first: critical tuples are always subgoal groundings, so a view
    /// whose candidates are disjoint from the secret's cannot contribute a
    /// common critical tuple and no exponential `is_critical` work is spent
    /// on it. Only views with overlapping candidates pay for the full,
    /// memoized `crit(Q)` sets.
    fn exact_security(
        &self,
        secret: &ConjunctiveQuery,
        views: &ViewSet,
        active: &Domain,
        cap: usize,
    ) -> Result<SecurityVerdict> {
        let secret_space = self.artifacts.candidate_space(secret, active, cap)?;
        let mut crit_s = None;
        let mut common: BTreeSet<Tuple> = BTreeSet::new();
        for v in views.iter() {
            let view_space = self.artifacts.candidate_space(v, active, cap)?;
            if sorted_disjoint(secret_space.tuples(), view_space.tuples()) {
                continue;
            }
            let crit_s = match &crit_s {
                Some(c) => c,
                None => crit_s.insert(self.crit_cached(secret, active, cap)?),
            };
            let crit_v = self.crit_cached(v, active, cap)?;
            common.extend(crit_s.intersection(&crit_v).cloned());
        }
        Ok(SecurityVerdict {
            secure: common.is_empty(),
            common_critical_tuples: common.into_iter().collect(),
            active_domain_size: active.len(),
        })
    }

    /// Probes every artifact-cache layer for `query`'s canonical form —
    /// the engine half of the `explain` wire op. Strictly read-only: no
    /// recomputation, no LRU refresh, no counter movement.
    pub fn explain(&self, query: &ConjunctiveQuery) -> crate::artifacts::ArtifactProbe {
        self.artifacts.probe(query)
    }

    /// Runs one audit to the requested (or default) depth. Errors when the
    /// schema declares key constraints: no stage's verdict holds under keys.
    pub fn audit(&self, request: &AuditRequest) -> Result<AuditReport> {
        qvsec_obs::counter("audit.requests").inc();
        if !self.schema.keys().is_empty() {
            return Err(QvsError::Invalid(
                "the schema declares key constraints, under which Theorem 4.5 verdicts do \
                 not hold; decide security by Corollary 5.3 with \
                 `qvsec::prior::keys::secure_under_keys`"
                    .to_string(),
            ));
        }
        let depth = request.options.depth.unwrap_or(self.default_depth);
        let threshold = request
            .options
            .minute_threshold
            .unwrap_or(self.minute_threshold);
        let cap = request.options.candidate_cap.unwrap_or(self.candidate_cap);
        let secret = &request.secret;
        let views = &request.views;

        // Stage 1 — always: the Section 4.2 fast check.
        let fast_span = qvsec_obs::Span::enter("audit.fast");
        let fast = fast_check(secret, views);
        let fast_secure = fast.is_certainly_secure();
        drop(fast_span);

        // Stage 2 — the exact criterion, unless the fast check already
        // certified security (soundness: no unifiable pair ⇒ no common
        // critical tuple) or the budget stops at Fast. The active domain is
        // the engine domain padded to the Proposition 4.9 bound; witnesses
        // are rendered against it since padded constants can occur in them.
        let active = active_domain(secret, views, &self.domain);
        let security = if depth >= AuditDepth::Exact {
            if fast_secure {
                Some(SecurityVerdict {
                    secure: true,
                    common_critical_tuples: Vec::new(),
                    active_domain_size: active.len(),
                })
            } else {
                let _span = qvsec_obs::Span::enter("audit.exact");
                Some(self.exact_security(secret, views, &active, cap)?)
            }
        } else {
            None
        };

        let secure: Option<bool> = if fast_secure {
            Some(true)
        } else {
            security.as_ref().map(|s| s.secure)
        };

        // Stage 3 — dictionary-level checks, served by the shared-sample
        // probabilistic kernel: independence from critical tuples, then —
        // for dependent pairs only — one space evaluation (exact mask
        // streaming or pooled Monte-Carlo) for leakage and total disclosure.
        let (independence, leakage, totally_disclosed, estimator) =
            if depth >= AuditDepth::Probabilistic {
                let _span = qvsec_obs::Span::enter("audit.prob");
                let dict = self
                    .dictionary
                    .as_ref()
                    .ok_or(QvsError::DictionaryRequired)?;
                let audit = self.kernel(dict).evaluate(secret, views)?;
                (
                    Some(audit.independence),
                    Some(LeakageReport::from(audit.leakage)),
                    audit.totally_disclosed,
                    Some(audit.estimator),
                )
            } else {
                (None, None, None, None)
            };

        let class = classify(
            secure == Some(true),
            totally_disclosed == Some(true),
            leakage.as_ref().map(|l| l.max_leak),
            threshold,
        );
        let witnesses = security
            .as_ref()
            .map(|s| {
                s.common_critical_tuples
                    .iter()
                    .map(|t| t.display(&self.schema, &active).to_string())
                    .collect()
            })
            .unwrap_or_default();

        Ok(AuditReport {
            name: request.name.clone(),
            depth,
            conclusive: secure.is_some(),
            secure,
            class,
            fast,
            security,
            independence,
            leakage,
            totally_disclosed,
            estimator,
            witnesses,
        })
    }

    /// Audits a whole batch in parallel. Reports come back in request
    /// order; a per-request error does not abort the rest of the batch.
    pub fn audit_batch(&self, requests: &[AuditRequest]) -> Vec<Result<AuditReport>> {
        requests.par_iter().map(|r| self.audit(r)).collect()
    }

    /// [`AuditEngine::audit_batch`], failing on the first per-request error.
    pub fn try_audit_batch(&self, requests: &[AuditRequest]) -> Result<Vec<AuditReport>> {
        self.audit_batch(requests).into_iter().collect()
    }
}

/// A combined, serializable snapshot of every cache layer the engine runs.
/// Monotone over the engine's lifetime; [`CacheStatsSnapshot::delta_since`]
/// brackets one serial operation (with concurrent audits on the same
/// engine, the delta also absorbs their traffic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStatsSnapshot {
    /// `crit(Q)` requests served from the (form, domain-size) memo.
    pub crit_cache_hits: u64,
    /// `crit(Q)` requests that ran the kernel.
    pub crit_cache_misses: u64,
    /// Candidate-space requests served from the memo.
    pub space_cache_hits: u64,
    /// Candidate-space requests that enumerated groundings.
    pub space_cache_misses: u64,
    /// Symmetry-class verdicts served from a shared class cache (typically
    /// a prior audit at another active-domain size).
    pub class_verdicts_reused: u64,
    /// Probabilistic witness-mask compilations served from the kernel memo.
    pub compile_cache_hits: u64,
    /// Probabilistic witness-mask compilations actually run.
    pub queries_compiled: u64,
    /// Worlds drawn into the shared Monte-Carlo pool.
    pub mc_samples_drawn: u64,
    /// Pooled worlds reused instead of freshly drawn.
    pub mc_samples_reused: u64,
    /// Per-query pooled answer-bit columns evaluated (Monte-Carlo misses).
    pub pool_columns_built: u64,
    /// Pooled answer-bit columns served from the kernel memo.
    pub pool_column_hits: u64,
    /// Whole probabilistic audits served from the kernel's verdict memo —
    /// no world streamed, no sample touched, no marginal walked.
    #[serde(default)]
    pub kernel_audit_hits: u64,
    /// Entries evicted under the engine's cache byte budgets (artifact
    /// store + kernel caches); 0 forever on an unbounded engine.
    #[serde(default)]
    pub evictions: u64,
    /// Approximate bytes evicted over the engine's lifetime.
    #[serde(default)]
    pub evicted_bytes: u64,
    /// Approximate bytes currently resident across every cache layer. A
    /// gauge, not a counter: [`CacheStatsSnapshot::delta_since`] yields the
    /// growth since the earlier snapshot (clamped at zero when eviction
    /// shrank the caches).
    #[serde(default)]
    pub resident_bytes: u64,
}

impl CacheStatsSnapshot {
    /// The field-wise difference `self − earlier` (saturating, so a stale
    /// `earlier` never underflows).
    pub fn delta_since(&self, earlier: &CacheStatsSnapshot) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            crit_cache_hits: self.crit_cache_hits.saturating_sub(earlier.crit_cache_hits),
            crit_cache_misses: self
                .crit_cache_misses
                .saturating_sub(earlier.crit_cache_misses),
            space_cache_hits: self
                .space_cache_hits
                .saturating_sub(earlier.space_cache_hits),
            space_cache_misses: self
                .space_cache_misses
                .saturating_sub(earlier.space_cache_misses),
            class_verdicts_reused: self
                .class_verdicts_reused
                .saturating_sub(earlier.class_verdicts_reused),
            compile_cache_hits: self
                .compile_cache_hits
                .saturating_sub(earlier.compile_cache_hits),
            queries_compiled: self
                .queries_compiled
                .saturating_sub(earlier.queries_compiled),
            mc_samples_drawn: self
                .mc_samples_drawn
                .saturating_sub(earlier.mc_samples_drawn),
            mc_samples_reused: self
                .mc_samples_reused
                .saturating_sub(earlier.mc_samples_reused),
            pool_columns_built: self
                .pool_columns_built
                .saturating_sub(earlier.pool_columns_built),
            pool_column_hits: self
                .pool_column_hits
                .saturating_sub(earlier.pool_column_hits),
            kernel_audit_hits: self
                .kernel_audit_hits
                .saturating_sub(earlier.kernel_audit_hits),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            evicted_bytes: self.evicted_bytes.saturating_sub(earlier.evicted_bytes),
            resident_bytes: self.resident_bytes.saturating_sub(earlier.resident_bytes),
        }
    }

    /// Whether any layer served anything from cache.
    pub fn any_reuse(&self) -> bool {
        self.crit_cache_hits
            + self.space_cache_hits
            + self.class_verdicts_reused
            + self.compile_cache_hits
            + self.mc_samples_reused
            + self.pool_column_hits
            + self.kernel_audit_hits
            > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical::critical_tuples;
    use qvsec_cq::parse_query;
    use qvsec_data::TupleSpace;

    fn employee_schema() -> Schema {
        let mut schema = Schema::new();
        schema.add_relation("Employee", &["name", "department", "phone"]);
        schema.add_relation("R", &["x", "y"]);
        schema
    }

    fn engine_for(domain: &Domain) -> AuditEngine {
        AuditEngine::builder(employee_schema(), domain.clone()).build()
    }

    #[test]
    fn fast_depth_is_conclusive_only_when_it_certifies_security() {
        let schema = employee_schema();
        let mut domain = Domain::new();
        let v4 = parse_query("V4(n) :- Employee(n, 'Mgmt', p)", &schema, &mut domain).unwrap();
        let s4 = parse_query("S4(n) :- Employee(n, 'HR', p)", &schema, &mut domain).unwrap();
        let engine = engine_for(&domain);
        let report = engine
            .audit(&AuditRequest::new(s4, ViewSet::single(v4)).with_depth(AuditDepth::Fast))
            .unwrap();
        assert_eq!(report.secure, Some(true));
        assert!(report.conclusive);
        assert_eq!(report.class, DisclosureClass::NoDisclosure);
        assert!(report.security.is_none(), "no escalation at Fast depth");

        let mut domain = Domain::new();
        let v1 = parse_query("V1(n, d) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
        let s1 = parse_query("S1(d) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
        let engine = engine_for(&domain);
        let report = engine
            .audit(&AuditRequest::new(s1, ViewSet::single(v1)).with_depth(AuditDepth::Fast))
            .unwrap();
        assert_eq!(report.secure, None, "fast check alone cannot condemn");
        assert!(!report.conclusive);
        assert_eq!(report.class, DisclosureClass::Partial, "conservative class");
        assert!(report.render().contains("inconclusive"));
    }

    #[test]
    fn exact_depth_matches_the_free_function_criterion() {
        let schema = employee_schema();
        let mut domain = Domain::new();
        let v1 = parse_query("V1(n, d) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
        let s1 = parse_query("S1(d) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
        let views = ViewSet::single(v1);
        let engine = engine_for(&domain);
        let report = engine
            .audit(&AuditRequest::new(s1.clone(), views.clone()))
            .unwrap();
        let free =
            crate::security::secure_for_all_distributions(&s1, &views, &schema, &domain).unwrap();
        let sec = report.security.unwrap();
        assert_eq!(sec.secure, free.secure);
        assert_eq!(sec.active_domain_size, free.active_domain_size);
        assert_eq!(
            sec.common_critical_tuples.iter().collect::<BTreeSet<_>>(),
            free.common_critical_tuples.iter().collect::<BTreeSet<_>>()
        );
        assert!(!report.witnesses.is_empty());
    }

    #[test]
    fn crit_cache_returns_results_identical_to_uncached_critical_tuples() {
        let schema = employee_schema();
        let mut domain = Domain::with_constants(["a", "b"]);
        let engine = engine_for(&domain);
        let queries = [
            "V(x) :- R(x, y)",
            "S(y) :- R(x, y)",
            "Q() :- R('a', x)",
            "W(x) :- R(x, 'b'), x != 'a'",
        ];
        for text in queries {
            let q = parse_query(text, &schema, &mut domain).unwrap();
            let cached = engine.crit_cached(&q, &domain, 100_000).unwrap();
            let uncached = critical_tuples(&q, &domain).unwrap();
            assert_eq!(*cached, uncached, "cache must be transparent for {text}");
            // Second fetch hits the cache and returns the same allocation.
            let again = engine.crit_cached(&q, &domain, 100_000).unwrap();
            assert!(Arc::ptr_eq(&cached, &again));
        }
    }

    #[test]
    fn crit_cache_is_shared_across_renamed_queries() {
        let schema = employee_schema();
        let mut domain = Domain::with_constants(["a", "b"]);
        let engine = engine_for(&domain);
        let q1 = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let q2 = parse_query("W(u) :- R(u, w)", &schema, &mut domain).unwrap();
        let c1 = engine.crit_cached(&q1, &domain, 100_000).unwrap();
        let c2 = engine.crit_cached(&q2, &domain, 100_000).unwrap();
        assert!(Arc::ptr_eq(&c1, &c2), "α-equivalent queries share an entry");
        assert_eq!(engine.cached_crit_sets(), 1);
    }

    #[test]
    fn crit_stats_accumulate_and_cache_hits_do_no_kernel_work() {
        let schema = employee_schema();
        let mut domain = Domain::with_constants(["a", "b"]);
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let engine = engine_for(&domain);
        assert_eq!(engine.crit_stats().candidates_examined, 0);
        let request = AuditRequest::new(s, ViewSet::single(v));
        engine.audit(&request).unwrap();
        let after_first = engine.crit_stats();
        assert!(
            after_first.candidates_examined > 0,
            "exact stage ran the kernel"
        );
        assert!(
            after_first.pruned_by_symmetry > 0,
            "projection workload collapses symmetric candidates: {after_first:?}"
        );
        engine.audit(&request).unwrap();
        let after_second = engine.crit_stats();
        assert_eq!(
            after_first, after_second,
            "a crit-cache hit does no kernel work"
        );
    }

    #[test]
    fn keyed_schemas_are_refused_in_favour_of_corollary_5_3() {
        // §5.2 Application 2: without the key the pair is secure for every
        // distribution; knowing `key` is a key, V true implies S false.
        let mut schema = Schema::new();
        let r = schema.add_relation("R", &["key", "value"]);
        schema.add_key(r, &[0]).unwrap();
        let mut domain = Domain::with_constants(["a", "b", "c"]);
        let s = parse_query("S() :- R('a', 'b')", &schema, &mut domain).unwrap();
        let v = parse_query("V() :- R('a', 'c')", &schema, &mut domain).unwrap();
        let space = qvsec_prob::lineage::support_space(&[&s, &v], &domain, 100).unwrap();
        let views = ViewSet::single(v);
        let corollary = crate::prior::secure_under_keys(&s, &views, &schema, &space).unwrap();
        assert!(!corollary.secure);
        let engine = AuditEngine::builder(schema, domain).build();
        for depth in [AuditDepth::Fast, AuditDepth::Exact] {
            let err = engine
                .audit(&AuditRequest::new(s.clone(), views.clone()).with_depth(depth))
                .unwrap_err();
            let reason = err.to_string();
            assert!(matches!(err, QvsError::Invalid(_)), "{reason}");
            assert!(reason.contains("Corollary 5.3"), "{reason}");
            assert!(reason.contains("secure_under_keys"), "{reason}");
        }
    }

    #[test]
    fn probabilistic_depth_requires_a_dictionary() {
        let schema = employee_schema();
        let mut domain = Domain::with_constants(["a", "b"]);
        let s = parse_query("S(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let engine = engine_for(&domain);
        let err = engine
            .audit(&AuditRequest::new(s, ViewSet::single(v)).with_depth(AuditDepth::Probabilistic))
            .unwrap_err();
        assert!(matches!(err, QvsError::DictionaryRequired));
    }

    #[test]
    fn probabilistic_depth_produces_the_full_report() {
        let schema = employee_schema();
        let mut domain = Domain::with_constants(["a", "b"]);
        let s = parse_query("S(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let space = qvsec_prob::lineage::support_space(&[&s, &v], &domain, 100).unwrap();
        let dict = Dictionary::half(space);
        let engine = AuditEngine::builder(schema, domain)
            .dictionary(dict)
            .default_depth(AuditDepth::Probabilistic)
            .build();
        let report = engine
            .audit(&AuditRequest::new(s, ViewSet::single(v)))
            .unwrap();
        assert_eq!(report.secure, Some(false));
        assert!(!report.independence.as_ref().unwrap().independent);
        assert!(report.leakage.as_ref().unwrap().max_leak > Ratio::ZERO);
        assert_eq!(report.totally_disclosed, Some(false));
        assert_ne!(report.class, DisclosureClass::NoDisclosure);
        let rendered = report.render();
        assert!(rendered.contains("leakage"));
        assert!(rendered.contains("statistical check"));
    }

    #[test]
    fn probabilistic_reports_match_the_enumeration_baseline_and_carry_estimator_metadata() {
        let schema = employee_schema();
        let mut domain = Domain::with_constants(["a", "b"]);
        let s = parse_query("S(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let space = qvsec_prob::lineage::support_space(&[&s, &v], &domain, 100).unwrap();
        let views = ViewSet::single(v);
        let dict = Dictionary::half(space);
        let engine = AuditEngine::builder(schema, domain)
            .dictionary(dict.clone())
            .default_depth(AuditDepth::Probabilistic)
            .build();
        let report = engine
            .audit(&AuditRequest::new(s.clone(), views.clone()))
            .unwrap();
        // Exact-path estimator metadata.
        let est = report
            .estimator
            .expect("probabilistic depth sets estimator");
        assert_eq!(est.mode, qvsec_prob::kernel::EstimatorMode::Exact);
        assert_eq!(est.worlds_streamed, 1 << dict.len());
        assert_eq!(est.sample_count, 0);
        assert_eq!(est.std_error, 0.0);
        assert!(report.render().contains("estimator"));
        // The kernel's verdicts are identical to the preserved enumeration
        // baseline.
        let base_ind = qvsec_prob::independence::check_independence(&s, &views, &dict).unwrap();
        let base_leak = crate::leakage::leakage_exact(&s, &views, &dict).unwrap();
        let base_total = crate::report::is_totally_disclosed(&s, &views, &dict).unwrap();
        assert_eq!(
            report.independence.unwrap().independent,
            base_ind.independent
        );
        let leak = report.leakage.unwrap();
        assert_eq!(leak.max_leak, base_leak.max_leak);
        assert_eq!(leak.positive_entries, base_leak.positive_entries);
        assert_eq!(leak.pairs_checked, base_leak.pairs_checked);
        assert_eq!(leak.witness, base_leak.witness);
        assert_eq!(report.totally_disclosed, Some(base_total));
        // Lifetime counters saw the streamed worlds.
        let stats = engine.prob_stats();
        assert_eq!(stats.exact_worlds_streamed, 1 << dict.len());
        assert_eq!(stats.cutovers, 0);
    }

    #[test]
    fn large_spaces_cut_over_to_monte_carlo_and_share_the_pool_across_batches() {
        let schema = employee_schema();
        // |D| = 5 makes the full R-space 25 tuples — beyond MAX_ENUMERABLE,
        // so the pre-kernel engine refused this audit outright.
        let mut domain = Domain::with_size(5);
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let support = qvsec_prob::lineage::support_space(&[&s, &v], &domain, 10_000).unwrap();
        assert!(support.len() > qvsec_data::bitset::MAX_ENUMERABLE);
        let dict = Dictionary::uniform(support, Ratio::new(1, 5)).unwrap();
        let engine = AuditEngine::builder(schema, domain)
            .dictionary(dict)
            .default_depth(AuditDepth::Probabilistic)
            .mc_samples(2000)
            .mc_seed(7)
            .build();
        let request = AuditRequest::new(s, ViewSet::single(v));
        let batch = engine
            .try_audit_batch(&[request.clone(), request.clone()])
            .unwrap();
        let est = batch[0].estimator.unwrap();
        assert_eq!(est.mode, qvsec_prob::kernel::EstimatorMode::MonteCarlo);
        assert_eq!(est.sample_count, 2000);
        assert_eq!(est.seed, Some(7));
        assert!(est.std_error > 0.0);
        let stats = engine.prob_stats();
        assert_eq!(stats.samples_drawn, 2000, "one pool serves the whole batch");
        assert!(stats.samples_reused >= 2 * 2000, "passes share the pool");
        // The engine memoizes whole audits: the duplicate request is served
        // from the verdict memo unless the parallel batch raced it past the
        // memo check — either way every audit is a cutover or a memo hit.
        assert_eq!(stats.cutovers + stats.audit_memo_hits, 2);
        // Shared pool + chunked seeding: both reports are identical.
        assert_eq!(
            serde_json::to_string(&batch[0]).unwrap(),
            serde_json::to_string(&batch[1]).unwrap()
        );
        // A sequential re-audit on the warm engine hits the memo for sure,
        // and reproduces the batch reports byte-for-byte.
        let hits_before = engine.prob_stats().audit_memo_hits;
        let report = engine.audit(&request).unwrap();
        assert_eq!(engine.prob_stats().audit_memo_hits, hits_before + 1);
        assert_eq!(
            serde_json::to_string(&batch[0]).unwrap(),
            serde_json::to_string(&report).unwrap()
        );
    }

    #[test]
    fn batch_verdicts_are_identical_to_sequential_audits() {
        let schema = employee_schema();
        let mut domain = Domain::with_constants(["a", "b"]);
        let texts = [
            ("S(y) :- R(x, y)", "V(x) :- R(x, y)"),
            ("S(y) :- R(y, 'a')", "V(x) :- R(x, 'b')"),
            (
                "S(n) :- Employee(n, 'HR', p)",
                "V(n) :- Employee(n, 'Mgmt', p)",
            ),
            (
                "S(n, p) :- Employee(n, d, p)",
                "V(n, d) :- Employee(n, d, p)",
            ),
        ];
        let requests: Vec<AuditRequest> = texts
            .iter()
            .map(|(s, v)| {
                let s = parse_query(s, &schema, &mut domain).unwrap();
                let v = parse_query(v, &schema, &mut domain).unwrap();
                AuditRequest::new(s, ViewSet::single(v))
            })
            .collect();
        let engine = AuditEngine::builder(schema, domain).build();
        let batch = engine.try_audit_batch(&requests).unwrap();
        for (req, from_batch) in requests.iter().zip(&batch) {
            let solo = engine.audit(req).unwrap();
            assert_eq!(solo.secure, from_batch.secure);
            assert_eq!(solo.class, from_batch.class);
            assert_eq!(
                solo.security.as_ref().map(|s| &s.common_critical_tuples),
                from_batch
                    .security
                    .as_ref()
                    .map(|s| &s.common_critical_tuples)
            );
        }
    }

    #[test]
    fn reports_serialize_to_json_and_back() {
        let schema = employee_schema();
        let mut domain = Domain::with_constants(["a", "b"]);
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let space = qvsec_prob::lineage::support_space(&[&s, &v], &domain, 100).unwrap();
        let dict = Dictionary::half(space);
        let engine = AuditEngine::builder(schema, domain)
            .dictionary(dict)
            .default_depth(AuditDepth::Probabilistic)
            .build();
        let report = engine
            .audit(&AuditRequest::new(s, ViewSet::single(v)))
            .unwrap();
        let text = serde_json::to_string(&report).unwrap();
        let back: AuditReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.secure, report.secure);
        assert_eq!(back.class, report.class);
        assert_eq!(
            back.leakage.as_ref().unwrap().max_leak,
            report.leakage.as_ref().unwrap().max_leak
        );
        assert_eq!(back.witnesses, report.witnesses);
    }

    #[test]
    fn engine_is_usable_from_multiple_threads() {
        let schema = employee_schema();
        let mut domain = Domain::with_constants(["a", "b"]);
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let engine = Arc::new(AuditEngine::builder(schema, domain).build());
        let req = AuditRequest::new(s, ViewSet::single(v));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let engine = Arc::clone(&engine);
            let req = req.clone();
            handles.push(std::thread::spawn(move || {
                engine.audit(&req).unwrap().secure
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), Some(false));
        }
        let _ = TupleSpace::full(engine.schema(), engine.domain());
    }
}
