//! The shared-sample probabilistic kernel behind `AuditDepth::Probabilistic`.
//!
//! The kernel answers the three dictionary-level questions of an audit —
//! Definition 4.1 independence, the Section 6.1 leakage measure and total
//! disclosure (determinacy) — over the dictionary's tuple space:
//!
//! * **Definition 4.1 is decided, not evaluated.** Every query the engine
//!   accepts is monotone, so for a dictionary with `0 < p < 1` everywhere
//!   `S` and `V̄` are independent iff `crit(S) ∩ ⋃ crit(Vᵢ) = ∅`
//!   (Theorems 4.5 and 4.8). The critical tuples over the space are the
//!   union of each query's minimal witnesses ([`compile`]); a degenerate
//!   dictionary (some `p ∈ {0, 1}`) first conditions the witnesses on its
//!   fixed tuples. No world is looked at, whatever the estimator.
//! * **Secure pairs stop there.** By Theorem 4.5 every posterior equals its
//!   prior, so the leak is 0 with no entries, the secret is determined iff
//!   `crit(S) = ∅`, and `pairs_checked` has a closed form.
//! * **Insecure pairs, exact path** (spaces up to the configured cutover):
//!   every world is streamed as a `u64` mask and evaluated against
//!   per-answer witness masks, accumulating the joint distribution of
//!   `(S(I), V̄(I))` keyed by packed answer bits ([`exact`]). Leakage and
//!   determinacy are aggregations over its (typically few) signatures.
//! * **Insecure pairs, Monte-Carlo path** (larger spaces): leakage is
//!   estimated over the worlds of a seeded, lazily-built [`SamplePool`]
//!   shared by every audit the kernel serves ([`montecarlo`]), as exact
//!   count ratios behind a 3σ filter. Determinacy is never read off the
//!   samples as `true`: it is refuted by a critical tuple of `S` no view
//!   depends on or by two pooled worlds, established by a sufficient
//!   condition on the witnesses, and otherwise reported as not
//!   established (`None`).
//!
//! Every audit reports which estimator served it ([`EstimatorReport`]),
//! and the kernel keeps lifetime counters of worlds streamed, samples
//! drawn/reused and exact→Monte-Carlo cutovers ([`ProbStats`]). Its
//! artifacts — compilations, pool columns, whole audits — live in a
//! [`MemoCache`]: the engine's one memo, shared with its artifact store
//! under one byte budget, or an unbounded one of its own for a standalone
//! kernel. They live in memory only: a fresh kernel recomputes each entry
//! on first use.

pub mod compile;
pub mod exact;
pub(crate) mod leakage;
pub(crate) mod marginals;
#[cfg(test)]
mod mc_oracle;
pub mod montecarlo;
pub mod pool;
pub mod stats;

pub use compile::CompiledQuery;
pub use exact::{stream_exact, stream_exact_counts, SignatureCounts, SignatureDistribution};
pub use montecarlo::{answer_flags, world_column};
pub use pool::{SamplePool, POOL_CHUNK};
pub use stats::{ProbStats, ProbStatsSnapshot};

use leakage::AnswerBitmaps;
use qvsec_cq::eval::Answer;
use qvsec_cq::{canonical_form, ConjunctiveQuery, ViewSet};
use qvsec_data::bitset::{BitSet, MAX_ENUMERABLE};
use qvsec_data::{
    DataError, Dictionary, MemoCache, MemoKey, MemoKind, Ratio, Result, TupleSpace, Value,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// Kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelConfig {
    /// Largest tuple-space size evaluated exactly; bigger spaces cut over
    /// to Monte-Carlo estimation. Clamped to [`MAX_ENUMERABLE`].
    pub exact_cutover: usize,
    /// Worlds drawn into the shared sample pool (Monte-Carlo path).
    pub samples: usize,
    /// Seed of the shared sample pool.
    pub seed: u64,
    /// Cap on the *reported* leak-entry list. `max_leak`, the witness pair
    /// and `pairs_checked` are computed over **all** pairs regardless; the
    /// cap only bounds how many entries are materialized and serialized —
    /// `Some(0)` keeps the witness and drops the list. `None` (the default)
    /// reports every entry, byte-identical to the enumeration baseline.
    #[serde(default)]
    pub report_cap: Option<usize>,
    /// Memoize whole [`KernelAudit`]s keyed by the canonical forms of
    /// `(secret, views)`: a repeated audit — a warm session step, a second
    /// tenant running the same script — returns the cached verdict without
    /// streaming a single world. Off by default so the kernel's counters in
    /// unit tests reflect raw computation; the engine turns it on.
    #[serde(default)]
    pub audit_memo: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            exact_cutover: MAX_ENUMERABLE,
            samples: 8192,
            seed: 0x9ec4_51ec,
            report_cap: None,
            audit_memo: false,
        }
    }
}

/// Which estimator produced a probabilistic verdict. Serializes as the
/// variant name (`"Exact"` / `"MonteCarlo"`), like every other report enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EstimatorMode {
    /// Exhaustive mask streaming: probabilities are exact rationals.
    Exact,
    /// Shared-pool Monte-Carlo: probabilities are sample-count ratios.
    MonteCarlo,
}

/// Estimator metadata attached to every kernel verdict (and surfaced on
/// `AuditReport`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EstimatorReport {
    /// Exact streaming or Monte-Carlo.
    pub mode: EstimatorMode,
    /// Tuples in the dictionary's space.
    pub space_size: usize,
    /// Worlds streamed by the exact path (`2^space_size`), 0 for Monte-Carlo.
    pub worlds_streamed: u64,
    /// Pooled samples used, 0 for the exact path.
    pub sample_count: usize,
    /// Seed of the shared pool (Monte-Carlo only).
    pub seed: Option<u64>,
    /// Worst-case standard error of any estimated probability
    /// (`0.5 / √samples`); 0 for the exact path.
    pub std_error: f64,
}

/// One `(s, v̄)` leakage entry, kernel form (mirrors the core crate's
/// `LeakEntry` field-for-field; the engine converts).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelLeakEntry {
    /// The secret answer tuple `s`.
    pub query_answer: Answer,
    /// One answer tuple per view (`v̄`).
    pub view_answers: Vec<Answer>,
    /// `P[s ⊆ S(I)]`.
    pub prior: Ratio,
    /// `P[s ⊆ S(I) | v̄ ⊆ V̄(I)]`.
    pub posterior: Ratio,
    /// `(posterior − prior) / prior`.
    pub relative_increase: Ratio,
}

/// The kernel's Section 6.1 leakage verdict.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelLeakage {
    /// `leak(S, V̄)` over the examined pairs.
    pub max_leak: Ratio,
    /// The pair attaining the supremum.
    pub witness: Option<KernelLeakEntry>,
    /// Every pair with a strictly positive (and, under Monte-Carlo,
    /// significant) relative increase, sorted by decreasing increase.
    pub positive_entries: Vec<KernelLeakEntry>,
    /// Number of `(s, v̄)` pairs examined.
    pub pairs_checked: usize,
}

/// The Definition 4.1 verdict: whether `S` and `V̄` are statistically
/// independent under the kernel's dictionary, decided by Theorems 4.5 and
/// 4.8 from the critical tuples over the dictionary's space. The literal
/// definition, [`crate::check_independence`], is its test oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndependenceVerdict {
    /// Whether `S |_P V̄` (Definition 4.1).
    pub independent: bool,
}

/// Everything the Probabilistic stage needs, from at most one space
/// evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelAudit {
    /// The Definition 4.1 verdict.
    pub independence: IndependenceVerdict,
    /// The Section 6.1 leakage verdict.
    pub leakage: KernelLeakage,
    /// Whether the view answers determine the secret answer over the worlds
    /// of positive probability. `None` when the Monte-Carlo path could
    /// neither refute nor establish it.
    pub totally_disclosed: Option<bool>,
    /// Which estimator produced the verdicts above.
    pub estimator: EstimatorReport,
}

impl KernelAudit {
    /// Bytes a memoized copy holds: its `Arc` allocation plus the answer
    /// vectors of the witness and of every listed leak entry. A clone
    /// carries no spare capacity, so this is what one allocates.
    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let answer = |a: &Answer| a.len() * size_of::<Value>();
        let held = |e: &KernelLeakEntry| {
            answer(&e.query_answer)
                + e.view_answers.len() * size_of::<Answer>()
                + e.view_answers.iter().map(answer).sum::<usize>()
        };
        let listed: usize = self
            .leakage
            .positive_entries
            .iter()
            .map(|e| size_of::<KernelLeakEntry>() + held(e))
            .sum();
        let witness = self.leakage.witness.as_ref().map_or(0, held);
        2 * size_of::<usize>() + size_of::<Self>() + witness + listed
    }
}

/// The memo kinds a kernel owns.
const KERNEL_KINDS: [MemoKind; 3] = [MemoKind::Compiled, MemoKind::PoolColumn, MemoKind::Audit];

/// The memo key of a kernel artifact. The kernel owns exactly one tuple
/// space, so the space half of a compilation's identity `(canonical form,
/// space)` is implicit and the domain-size slot stays 0.
fn kernel_key(kind: MemoKind, form: impl Into<String>) -> MemoKey {
    MemoKey::new(kind, form, 0)
}

/// The shared-sample probabilistic kernel: owns the dictionary, the interned
/// tuple space, the lazily-built sample pool and the lifetime counters.
#[derive(Debug)]
pub struct ProbKernel {
    dict: Arc<Dictionary>,
    space: Arc<TupleSpace>,
    config: KernelConfig,
    stats: ProbStats,
    pool: OnceLock<Arc<SamplePool>>,
    /// The dictionary's `p = 0` and `p = 1` tuples, when it has any: the
    /// critical-tuple test runs on witnesses conditioned on them.
    degenerate: Option<(BitSet, BitSet)>,
    /// The memo of the kernel's artifacts, by canonical form: witness-mask
    /// compilations, answer-bit columns over the shared pool (Monte-Carlo
    /// path) and — when [`KernelConfig::audit_memo`] is on — whole audits,
    /// keyed by the `\u{1}`-joined forms of `(secret, views…)`, order-
    /// sensitive exactly like the verdict itself. Eviction is transparent:
    /// a later audit recompiles, re-evaluates or recomputes what it needs.
    cache: Arc<MemoCache>,
}

impl ProbKernel {
    /// Builds a kernel over `dict` with the given configuration and an
    /// unbounded memo of its own.
    pub fn new(dict: Arc<Dictionary>, config: KernelConfig) -> Self {
        Self::with_cache(dict, config, Arc::new(MemoCache::default()))
    }

    /// Builds a kernel over `dict` whose artifacts live in `cache` — the
    /// engine's one memo, under its byte budget.
    pub fn with_cache(dict: Arc<Dictionary>, config: KernelConfig, cache: Arc<MemoCache>) -> Self {
        let space = Arc::new(dict.space().clone());
        let fixed_at = |p: Ratio| {
            let mut tuples = BitSet::new(space.len());
            for (i, &q) in dict.probabilities().iter().enumerate() {
                if q == p {
                    tuples.insert(i);
                }
            }
            tuples
        };
        let (absent, present) = (fixed_at(Ratio::ZERO), fixed_at(Ratio::ONE));
        let degenerate = (!absent.is_empty() || !present.is_empty()).then_some((absent, present));
        ProbKernel {
            dict,
            space,
            config,
            stats: ProbStats::new(),
            pool: OnceLock::new(),
            degenerate,
            cache,
        }
    }

    /// The dictionary the kernel evaluates against.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// The kernel's configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// A snapshot of the lifetime counters, including the memo's hits,
    /// misses, evictions and resident bytes for the kernel's artifacts.
    pub fn stats(&self) -> ProbStatsSnapshot {
        let memo = self.cache.stats();
        let (compiled, columns) = (memo.of(MemoKind::Compiled), memo.of(MemoKind::PoolColumn));
        let kernel = memo.sum(&KERNEL_KINDS);
        ProbStatsSnapshot {
            queries_compiled: compiled.misses,
            compile_cache_hits: compiled.hits,
            pool_columns_built: columns.misses,
            pool_column_hits: columns.hits,
            audit_memo_hits: memo.of(MemoKind::Audit).hits,
            evictions: kernel.evictions,
            evicted_bytes: kernel.evicted_bytes,
            resident_bytes: kernel.resident_bytes,
            ..self.stats.snapshot()
        }
    }

    /// Whether audits against this dictionary run the exact path.
    pub fn is_exact(&self) -> bool {
        self.space.len() <= self.config.exact_cutover.min(MAX_ENUMERABLE)
    }

    /// The shared sample pool, built exactly once on first use
    /// (`get_or_init` serializes racing first callers, so concurrent batch
    /// audits never generate throwaway pools). Later calls — further
    /// passes, further audits, other threads — reuse the same worlds and
    /// are counted as reuses.
    pub fn shared_pool(&self) -> Arc<SamplePool> {
        let mut drawn_here = false;
        let pool = self.pool.get_or_init(|| {
            drawn_here = true;
            Arc::new(SamplePool::generate(
                &self.dict,
                Arc::clone(&self.space),
                self.config.samples,
                self.config.seed,
            ))
        });
        if drawn_here {
            self.stats.add_samples_drawn(pool.len() as u64);
        } else {
            self.stats.add_samples_reused(pool.len() as u64);
        }
        Arc::clone(pool)
    }

    /// Fetches (or compiles and memoizes) the witness masks of `query`
    /// against the kernel's tuple space. The memo key is the query's
    /// [`canonical_form`], so α-renamed republications of a view share one
    /// compilation; equal forms compile to identical masks because the
    /// homomorphism search sees the same structure. Hits and misses are
    /// counted by the memo and reported through [`ProbKernel::stats`].
    pub fn compile_cached(&self, query: &ConjunctiveQuery) -> Arc<CompiledQuery> {
        self.compile_cached_keyed(canonical_form(query), query)
    }

    fn compile_cached_keyed(&self, form: String, query: &ConjunctiveQuery) -> Arc<CompiledQuery> {
        let key = kernel_key(MemoKind::Compiled, form);
        if let Some(hit) = self.cache.get(&key) {
            return hit;
        }
        // Compile outside the lock; a racing duplicate insert is harmless.
        let compile_span = qvsec_obs::Span::enter("kernel.compile");
        let fresh = Arc::new(CompiledQuery::compile(query, &self.space));
        drop(compile_span);
        let bytes = fresh.approx_bytes() + key.form.len();
        self.cache.insert(key, fresh, bytes)
    }

    /// Fetches (or evaluates and memoizes) `query`'s answer-bit column over
    /// the shared pool — the per-world signatures every Monte-Carlo audit
    /// of this query concatenates from.
    fn column_cached(&self, form: &str, pool: &SamplePool, query: &CompiledQuery) -> Arc<Vec<u64>> {
        let key = kernel_key(MemoKind::PoolColumn, form);
        if let Some(hit) = self.cache.get(&key) {
            return hit;
        }
        let fresh = Arc::new(montecarlo::world_column(pool, query));
        let bytes = 8 * fresh.len() + form.len() + 24;
        self.cache.insert(key, fresh, bytes)
    }

    /// Runs the full Probabilistic stage for one audit: independence,
    /// leakage and total disclosure.
    pub fn evaluate(&self, secret: &ConjunctiveQuery, views: &ViewSet) -> Result<KernelAudit> {
        let queries: Vec<&ConjunctiveQuery> = std::iter::once(secret).chain(views.iter()).collect();
        let keys: Vec<String> = queries.iter().map(|q| canonical_form(q)).collect();
        // Whole-audit memo: an identical `(secret, views)` audit returns
        // the cached verdict before any compilation, streaming or sampling
        // accounting runs, so memoized audits honestly report zero work.
        let memo_key = self
            .config
            .audit_memo
            .then(|| kernel_key(MemoKind::Audit, keys.join("\u{1}")));
        if let Some(key) = &memo_key {
            if let Some(hit) = self.cache.get::<KernelAudit>(key) {
                return Ok(KernelAudit::clone(&hit));
            }
        }
        let audit = self.evaluate_fresh(&queries, &keys)?;
        if let Some(key) = memo_key {
            let bytes = audit.approx_bytes() + key.form.len();
            self.cache.insert(key, Arc::new(audit.clone()), bytes);
        }
        Ok(audit)
    }

    fn evaluate_fresh(
        &self,
        queries: &[&ConjunctiveQuery],
        keys: &[String],
    ) -> Result<KernelAudit> {
        let compiled: Vec<Arc<CompiledQuery>> = queries
            .iter()
            .zip(keys)
            .map(|(q, k)| self.compile_cached_keyed(k.clone(), q))
            .collect();
        let answers: Vec<usize> = compiled.iter().map(|q| q.num_answers()).collect();
        let Some(combos) = leakage::checked_combos(&answers) else {
            return Err(DataError::Invalid(format!(
                "leakage over {} views: secret answers times view answer combos overflows u64",
                compiled.len() - 1
            )));
        };
        // Definition 4.1 by Theorems 4.5 and 4.8: independent iff no
        // critical tuple of the secret is critical for a view.
        let lineage: Vec<Cow<'_, CompiledQuery>> =
            compiled.iter().map(|q| self.conditioned(q)).collect();
        let mut view_crit = BitSet::new(self.space.len());
        for view in &lineage[1..] {
            view_crit = view_crit.union(view.critical());
        }
        let secret = &lineage[0];
        if secret.critical().is_disjoint_from(&view_crit) {
            return Ok(self.independent_audit(secret, combos));
        }
        let offsets = sig_offsets(&compiled);
        let cap = self.config.report_cap;
        if self.is_exact() {
            let _span = qvsec_obs::Span::enter("kernel.exact");
            // Uniform-`1/2` dictionaries (the paper's models) give every
            // world the same mass, so the signature distribution is a plain
            // count histogram and the whole analysis runs on integers.
            let (leakage, totally_disclosed) = if self.uniform_half() {
                let counts = stream_exact_counts(&self.dict, &compiled, &self.stats)?;
                let (sigs, weights): (Vec<&[u64]>, Vec<u64>) = counts
                    .counts
                    .iter()
                    .map(|(sig, &c)| (sig.as_slice(), c))
                    .unzip();
                let maps = AnswerBitmaps::from_signatures(&compiled, &offsets, &sigs);
                let leakage = leakage::leakage_counts(
                    &compiled,
                    &maps,
                    Some(&weights),
                    counts.total,
                    false,
                    cap,
                );
                (leakage, determined(sigs.iter().copied(), &offsets))
            } else {
                let dist = stream_exact(&self.dict, &compiled, &self.stats)?;
                let (sigs, masses): (Vec<&[u64]>, Vec<Ratio>) = dist
                    .entries
                    .iter()
                    .map(|(sig, &p)| (sig.as_slice(), p))
                    .unzip();
                let maps = AnswerBitmaps::from_signatures(&compiled, &offsets, &sigs);
                let leakage = leakage::leakage_masses(&compiled, &maps, &masses, cap);
                (leakage, determined(sigs.iter().copied(), &offsets))
            };
            Ok(KernelAudit {
                independence: IndependenceVerdict { independent: false },
                leakage,
                totally_disclosed: Some(totally_disclosed),
                estimator: self.estimator(EstimatorMode::Exact, 1u64 << self.space.len(), None),
            })
        } else {
            let _span = qvsec_obs::Span::enter("kernel.mc");
            self.stats.add_cutover();
            let pool = self.shared_pool();
            // Per-query world columns are memoized alongside the
            // compilations: only queries never audited against this pool
            // pay the per-world witness tests.
            let columns: Vec<Arc<Vec<u64>>> = compiled
                .iter()
                .zip(keys)
                .map(|(q, k)| self.column_cached(k, &pool, q))
                .collect();
            let maps = AnswerBitmaps::from_columns(&compiled, &columns, pool.len());
            let n = pool.len().max(1) as u64;
            let leakage = leakage::leakage_counts(&compiled, &maps, None, n, true, cap);
            let totally_disclosed = self.sampled_determinacy(&lineage, &view_crit, || {
                // A second pass over the pool, after the leakage walk's.
                self.stats.add_samples_reused(pool.len() as u64);
                refuted_by(&columns, &compiled, pool.len())
            });
            Ok(KernelAudit {
                independence: IndependenceVerdict { independent: false },
                leakage,
                totally_disclosed,
                estimator: self.estimator(EstimatorMode::MonteCarlo, 0, Some(&pool)),
            })
        }
    }

    /// `q` conditioned on the dictionary's `p = 0` and `p = 1` tuples — `q`
    /// itself when there are none.
    fn conditioned<'a>(&self, q: &'a CompiledQuery) -> Cow<'a, CompiledQuery> {
        match &self.degenerate {
            None => Cow::Borrowed(q),
            Some((absent, present)) => Cow::Owned(q.conditioned(absent, present)),
        }
    }

    /// The audit of an independent pair, from Theorem 4.5 alone: every
    /// posterior equals its prior, so no pair leaks, and the secret is
    /// determined iff it is constant (`crit(S) = ∅`). `secret` is the
    /// conditioned compilation, whose answers are exactly those of positive
    /// prior. No world is streamed or sampled.
    fn independent_audit(&self, secret: &CompiledQuery, combos: u64) -> KernelAudit {
        let mode = if self.is_exact() {
            EstimatorMode::Exact
        } else {
            EstimatorMode::MonteCarlo
        };
        KernelAudit {
            independence: IndependenceVerdict { independent: true },
            leakage: KernelLeakage {
                pairs_checked: secret.num_answers() * combos as usize,
                ..KernelLeakage::default()
            },
            totally_disclosed: Some(secret.critical().is_empty()),
            estimator: self.estimator(mode, 0, None),
        }
    }

    /// Determinacy on the Monte-Carlo path of a dependent pair, by the
    /// first test that applies (`lineage` is conditioned, secret first):
    ///
    /// 1. a critical tuple `t` of `S` that no view depends on refutes it —
    ///    `I` and `I − {t}` agree on every view and differ on `S`;
    /// 2. two pooled worlds with equal view answers and different secret
    ///    answers refute it (`refuted`);
    /// 3. if every critical tuple of `S` is the only minimal witness of
    ///    some view answer, the views reveal `I ∩ crit(S)`, on which `S(I)`
    ///    depends alone, so it holds;
    /// 4. otherwise it is not established (`None`): samples that fail to
    ///    refute determinacy do not prove it.
    fn sampled_determinacy(
        &self,
        lineage: &[Cow<'_, CompiledQuery>],
        view_crit: &BitSet,
        refuted: impl FnOnce() -> bool,
    ) -> Option<bool> {
        let secret_crit = lineage[0].critical();
        if !secret_crit.is_subset_of(view_crit) {
            return Some(false);
        }
        if refuted() {
            return Some(false);
        }
        let mut revealed = BitSet::new(self.space.len());
        for view in &lineage[1..] {
            revealed = revealed.union(&view.revealed());
        }
        secret_crit.is_subset_of(&revealed).then_some(true)
    }

    /// Whether every tuple probability is exactly `1/2` — then all `2^n`
    /// worlds carry identical mass and the exact path can count instead of
    /// accumulating rationals. (The tuple-space size is already capped at
    /// [`MAX_ENUMERABLE`] ≤ 31, so counts fit the packed analysis bound.)
    fn uniform_half(&self) -> bool {
        let half = Ratio::new(1, 2);
        let probs = self.dict.probabilities();
        !probs.is_empty() && probs.iter().all(|&p| p == half)
    }

    /// The estimator block: `worlds` streamed exactly, or the pool's
    /// samples under Monte-Carlo.
    fn estimator(
        &self,
        mode: EstimatorMode,
        worlds: u64,
        pool: Option<&SamplePool>,
    ) -> EstimatorReport {
        let samples = pool.map_or(0, |p| p.len());
        EstimatorReport {
            mode,
            space_size: self.space.len(),
            worlds_streamed: worlds,
            sample_count: samples,
            seed: pool.map(|p| p.seed()),
            std_error: pool.map_or(0.0, |_| 0.5 / (samples.max(1) as f64).sqrt()),
        }
    }
}

/// Word offsets of each compiled query's slice within a signature.
fn sig_offsets(compiled: &[Arc<CompiledQuery>]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(compiled.len() + 1);
    offsets.push(0);
    for q in compiled {
        offsets.push(offsets.last().unwrap() + q.sig_words());
    }
    offsets
}

/// Whether the secret slice of every signature is a function of the view
/// slices — determinacy over the streamed worlds (the exact path's
/// total-disclosure test).
fn determined<'a>(sigs: impl Iterator<Item = &'a [u64]>, offsets: &[usize]) -> bool {
    let split = offsets[1];
    let mut by_view: std::collections::HashMap<&[u64], &[u64]> = std::collections::HashMap::new();
    for sig in sigs {
        let (secret_part, view_part) = sig.split_at(split);
        match by_view.get(view_part) {
            Some(&existing) if existing != secret_part => return false,
            Some(_) => {}
            None => {
                by_view.insert(view_part, secret_part);
            }
        }
    }
    true
}

/// Whether two of the first `worlds` pooled worlds have equal view answers
/// and different secret answers, read from the queries' columns (secret
/// first): sorted by view answers, such worlds become neighbours.
fn refuted_by(columns: &[Arc<Vec<u64>>], compiled: &[Arc<CompiledQuery>], worlds: usize) -> bool {
    let part = |q: usize, w: usize| {
        let words = compiled[q].sig_words();
        &columns[q][w * words..(w + 1) * words]
    };
    let views = |w: usize| (1..compiled.len()).map(move |q| part(q, w));
    let mut order: Vec<usize> = (0..worlds).collect();
    order.sort_unstable_by(|&a, &b| views(a).cmp(views(b)));
    order
        .windows(2)
        .any(|pair| views(pair[0]).eq(views(pair[1])) && part(0, pair[0]) != part(0, pair[1]))
}

/// Whether `q − p` exceeds three combined standard errors for binomial
/// estimates over `n` (prior `p`) and `n_cond` (posterior `q`) samples. The
/// packed count path feeds `c/n` divisions directly; they are bit-identical
/// to `to_f64` of the reduced `Ratio`s (IEEE division of the same rational
/// value rounds to the same double).
pub(crate) fn significant_f64(p: f64, q: f64, n: f64, n_cond: f64) -> bool {
    let sigma = (p * (1.0 - p) / n).sqrt() + (q * (1.0 - q) / n_cond).sqrt();
    (q - p).abs() > 3.0 * sigma
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::independence::check_independence;
    use qvsec_cq::parse_query;
    use qvsec_data::{Domain, Schema};

    fn setup() -> (Schema, Domain, Arc<Dictionary>) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let domain = Domain::with_constants(["a", "b"]);
        let space = TupleSpace::full(&schema, &domain).unwrap();
        (schema, domain, Arc::new(Dictionary::half(space)))
    }

    #[test]
    fn exact_kernel_reproduces_the_example_4_2_independence_report() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let views = ViewSet::single(v);
        let kernel = ProbKernel::new(Arc::clone(&dict), KernelConfig::default());
        let audit = kernel.evaluate(&s, &views).unwrap();
        let baseline = check_independence(&s, &views, &dict).unwrap();
        assert!(!baseline.independent);
        assert_eq!(audit.independence.independent, baseline.independent);
        assert_eq!(audit.estimator.mode, EstimatorMode::Exact);
        assert_eq!(audit.estimator.worlds_streamed, 16);
        assert_eq!(audit.totally_disclosed, Some(false));
        assert!(audit.leakage.max_leak > Ratio::ZERO);
        assert_eq!(kernel.stats().exact_worlds_streamed, 16);
        assert_eq!(kernel.stats().cutovers, 0);
    }

    #[test]
    fn exact_kernel_certifies_the_example_4_3_secure_pair() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(y) :- R(y, 'a')", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, 'b')", &schema, &mut domain).unwrap();
        let kernel = ProbKernel::new(dict, KernelConfig::default());
        let audit = kernel.evaluate(&s, &ViewSet::single(v)).unwrap();
        assert!(audit.independence.independent);
        assert!(audit.leakage.max_leak.is_zero());
        assert!(audit.leakage.witness.is_none());
        // Both secret answers have a positive prior; the view has two.
        assert_eq!(audit.leakage.pairs_checked, 2 * 2);
        assert_eq!(audit.totally_disclosed, Some(false));
        // Theorem 4.5 decides the pair: no world is streamed.
        assert_eq!(audit.estimator.worlds_streamed, 0);
        assert_eq!(kernel.stats().exact_worlds_streamed, 0);
    }

    #[test]
    fn identity_view_is_totally_disclosing() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
        let views = ViewSet::single(v);
        let kernel = ProbKernel::new(Arc::clone(&dict), KernelConfig::default());
        assert_eq!(
            kernel.evaluate(&s, &views).unwrap().totally_disclosed,
            Some(true)
        );
        // On the Monte-Carlo path samples can only fail to refute
        // determinacy; the identity view reveals every critical tuple of the
        // secret, which establishes it.
        let config = KernelConfig {
            exact_cutover: 0,
            samples: 64,
            ..KernelConfig::default()
        };
        let mc = ProbKernel::new(dict, config).evaluate(&s, &views).unwrap();
        assert_eq!(mc.totally_disclosed, Some(true));
    }

    #[test]
    fn cutover_runs_monte_carlo_and_reuses_the_pool() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let views = ViewSet::single(v);
        let config = KernelConfig {
            exact_cutover: 0, // force Monte-Carlo even on the tiny space
            samples: 4000,
            seed: 17,
            ..KernelConfig::default()
        };
        let kernel = ProbKernel::new(dict, config);
        assert!(!kernel.is_exact());
        let first = kernel.evaluate(&s, &views).unwrap();
        assert_eq!(first.estimator.mode, EstimatorMode::MonteCarlo);
        assert_eq!(first.estimator.sample_count, 4000);
        assert_eq!(first.estimator.seed, Some(17));
        assert!(first.estimator.std_error > 0.0);
        assert!(!first.independence.independent);
        // Determinacy reads the pool a second time, and refutes it there.
        assert_eq!(first.totally_disclosed, Some(false));
        let after_one = kernel.stats();
        assert_eq!(after_one.samples_drawn, 4000);
        assert_eq!(after_one.samples_reused, 4000);
        assert_eq!(after_one.cutovers, 1);
        let second = kernel.evaluate(&s, &views).unwrap();
        let after_two = kernel.stats();
        assert_eq!(after_two.samples_drawn, 4000, "pool drawn once");
        assert_eq!(after_two.samples_reused, 3 * 4000);
        assert_eq!(after_two.cutovers, 2);
        // Same pool, same signatures: the two audits are identical.
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap()
        );
    }

    #[test]
    fn monte_carlo_does_not_flag_the_secure_pair() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(y) :- R(y, 'a')", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, 'b')", &schema, &mut domain).unwrap();
        let config = KernelConfig {
            exact_cutover: 0,
            samples: 4000,
            seed: 23,
            ..KernelConfig::default()
        };
        let kernel = ProbKernel::new(dict, config);
        let audit = kernel.evaluate(&s, &ViewSet::single(v)).unwrap();
        assert!(audit.independence.independent);
        assert!(audit.leakage.max_leak.is_zero());
        // A secure pair touches neither the pool nor a column.
        assert_eq!(audit.estimator.sample_count, 0);
        let stats = kernel.stats();
        assert_eq!((stats.samples_drawn, stats.cutovers), (0, 0));
        assert_eq!(stats.pool_columns_built, 0);
    }

    #[test]
    fn an_audit_whose_pairs_overflow_u64_is_refused_not_a_panic() {
        // 18 constants: a 324-tuple space, so the Monte-Carlo path, with a
        // sparse dictionary that keeps the combo walk cheap. The secret and
        // every view have 324 answers; 7 views make 324⁸ ≈ 1.2·10²⁰ pairs.
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let mut domain = Domain::with_constants((0..18).map(|i| format!("c{i}")));
        let space = TupleSpace::full(&schema, &domain).unwrap();
        let dict = Arc::new(Dictionary::uniform(space, Ratio::new(1, 128)).unwrap());
        let s = parse_query("S(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
        let views = ViewSet::from_views(vec![v; 7]);
        let config = KernelConfig {
            samples: 512,
            seed: 7,
            ..KernelConfig::default()
        };
        let kernel = ProbKernel::new(dict, config);
        assert!(!kernel.is_exact());
        match kernel.evaluate(&s, &views) {
            Err(DataError::Invalid(msg)) => assert!(msg.contains("7 views"), "{msg}"),
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    #[test]
    fn audit_memo_serves_repeats_and_evicts_transparently() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let views = ViewSet::single(v);
        let config = KernelConfig {
            audit_memo: true,
            ..KernelConfig::default()
        };
        let kernel = ProbKernel::new(Arc::clone(&dict), config);
        let first = kernel.evaluate(&s, &views).unwrap();
        assert_eq!(kernel.stats().exact_worlds_streamed, 16);
        assert_eq!(kernel.stats().audit_memo_hits, 0);
        let second = kernel.evaluate(&s, &views).unwrap();
        let snap = kernel.stats();
        assert_eq!(snap.exact_worlds_streamed, 16, "memo hit streams nothing");
        assert_eq!(snap.audit_memo_hits, 1);
        assert_eq!(first.independence, second.independence);
        assert_eq!(first.leakage, second.leakage);
        assert_eq!(first.totally_disclosed, second.totally_disclosed);

        // Under a one-byte budget every insert evicts everything else, so
        // two alternating audits thrash the memo: every evaluation
        // recomputes, and the verdicts stay identical (eviction
        // transparency).
        let tight = Arc::new(MemoCache::new(Some(1)));
        let evicting = ProbKernel::with_cache(dict, config, tight);
        let s2 = parse_query("S2(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
        let a = evicting.evaluate(&s, &views).unwrap();
        let _ = evicting.evaluate(&s2, &views).unwrap();
        let b = evicting.evaluate(&s, &views).unwrap();
        let snap = evicting.stats();
        assert_eq!(snap.audit_memo_hits, 0, "each insert evicts the other");
        assert_eq!(snap.exact_worlds_streamed, 48, "all three recompute");
        assert!(snap.evictions >= 2);
        assert_eq!(a.independence, b.independence);
        assert_eq!(a.leakage, b.leakage);
    }

    #[test]
    fn estimator_report_serializes() {
        let rep = EstimatorReport {
            mode: EstimatorMode::MonteCarlo,
            space_size: 36,
            worlds_streamed: 0,
            sample_count: 8192,
            seed: Some(42),
            std_error: 0.005,
        };
        let json = serde_json::to_string(&rep).unwrap();
        assert!(json.contains("MonteCarlo"));
        let back: EstimatorReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
    }
}
