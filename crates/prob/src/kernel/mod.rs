//! The shared-sample probabilistic kernel behind `AuditDepth::Probabilistic`.
//!
//! The kernel serves the three dictionary-level checks of an audit — the
//! literal Definition 4.1 independence test, the Section 6.1 leakage
//! measure, and the total-disclosure (determinacy) test — from **one**
//! evaluation of the tuple space per audit:
//!
//! * **Exact path** (spaces up to the configured cutover): every world is
//!   streamed as a `u64` mask and evaluated against per-answer witness
//!   masks ([`compile`]), accumulating a *signature distribution* — the
//!   joint distribution of `(S(I), V̄(I))` keyed by packed answer bits
//!   ([`exact`]). No `Instance` is ever materialized and no homomorphism
//!   search runs per world; all three checks are aggregations over the
//!   (typically tiny) set of distinct signatures.
//! * **Monte-Carlo path** (larger spaces): the same signatures are counted
//!   over the worlds of a seeded, lazily-built [`SamplePool`] shared across
//!   the three passes *and* across every audit the kernel serves
//!   ([`montecarlo`]), with estimates reported as exact count ratios plus a
//!   standard-error bound.
//!
//! Every audit reports which estimator produced it ([`EstimatorReport`]),
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
pub use exact::{stream_exact, stream_exact_counts, SignatureDistribution};
pub use montecarlo::{answer_flags, count_signatures_from_columns, world_column, SignatureCounts};
pub use pool::{SamplePool, POOL_CHUNK};
pub use stats::{ProbStats, ProbStatsSnapshot};

use crate::independence::IndependenceReport;
use leakage::AnswerBitmaps;
use qvsec_cq::eval::Answer;
use qvsec_cq::{canonical_form, ConjunctiveQuery, ViewSet};
use qvsec_data::bitset::MAX_ENUMERABLE;
use qvsec_data::{DataError, Dictionary, MemoCache, MemoKey, MemoKind, Ratio, Result, TupleSpace};
use serde::{Deserialize, Serialize};
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
    /// Cap on the *reported* leak-entry and independence-violation lists.
    /// Verdicts (`independent`, `max_leak`, the witness pair,
    /// `pairs_checked`) are computed over **all** pairs regardless; the cap
    /// only bounds how many entries are materialized and serialized —
    /// `Some(0)` keeps the witness and drops the lists entirely. `None`
    /// (the default) reports everything, byte-identical to the enumeration
    /// baseline.
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

/// Everything the Probabilistic stage needs, from one space evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelAudit {
    /// The Definition 4.1 independence verdict.
    pub independence: IndependenceReport,
    /// The Section 6.1 leakage verdict.
    pub leakage: KernelLeakage,
    /// Whether the view answers determine the secret answer over the
    /// evaluated worlds.
    pub totally_disclosed: bool,
    /// Which estimator produced the verdicts above.
    pub estimator: EstimatorReport,
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
        ProbKernel {
            dict,
            space,
            config,
            stats: ProbStats::new(),
            pool: OnceLock::new(),
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
    /// leakage and total disclosure from a single space evaluation.
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
            let bytes = approx_audit_bytes(&audit) + key.form.len();
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
        if leakage::checked_combos(&answers).is_none() {
            return Err(DataError::Invalid(format!(
                "leakage over {} views: secret answers times view answer combos overflows u64",
                compiled.len() - 1
            )));
        }
        let offsets = sig_offsets(&compiled);
        if self.is_exact() {
            let _span = qvsec_obs::Span::enter("kernel.exact");
            // Uniform-`1/2` dictionaries (the paper's models) give every
            // world the same mass, so the signature distribution is a plain
            // count histogram and the whole analysis runs on integers.
            if self.uniform_half() {
                let counts = stream_exact_counts(&self.dict, &compiled, &self.stats)?;
                Ok(self.analyse_exact_counts(&compiled, &offsets, &counts))
            } else {
                let dist = stream_exact(&self.dict, &compiled, &self.stats)?;
                Ok(self.analyse_exact(&compiled, &offsets, dist))
            }
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
            let counts = count_signatures_from_columns(&columns, &compiled, pool.len());
            // The leakage and total-disclosure passes are served from the
            // same pooled worlds the independence pass counted: leakage
            // walks the columns transposed into per-answer bitmaps.
            self.stats.add_samples_reused(2 * pool.len() as u64);
            let maps = AnswerBitmaps::from_columns(&compiled, &columns, pool.len());
            Ok(analyse_mc_packed(
                &compiled,
                &offsets,
                &counts,
                &maps,
                &pool,
                self.space.len(),
                self.config.report_cap,
            ))
        }
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

    fn exact_estimator(&self) -> EstimatorReport {
        EstimatorReport {
            mode: EstimatorMode::Exact,
            space_size: self.space.len(),
            worlds_streamed: 1u64 << self.space.len(),
            sample_count: 0,
            seed: None,
            std_error: 0.0,
        }
    }

    /// Exact analysis over mass-weighted signatures (general dictionaries):
    /// packed marginals with `Ratio` weights.
    fn analyse_exact(
        &self,
        compiled: &[Arc<CompiledQuery>],
        offsets: &[usize],
        dist: SignatureDistribution,
    ) -> KernelAudit {
        let entries: Vec<(Vec<u64>, Ratio)> = dist.entries.into_iter().collect();
        let borrowed: Vec<(&[u64], Ratio)> = entries
            .iter()
            .map(|(sig, p)| (sig.as_slice(), *p))
            .collect();
        let independence = marginals::independence_packed_masses(
            compiled,
            offsets,
            &borrowed,
            self.config.report_cap,
        );
        let sigs: Vec<&[u64]> = borrowed.iter().map(|(sig, _)| *sig).collect();
        let masses: Vec<Ratio> = borrowed.iter().map(|(_, p)| *p).collect();
        let leakage = leakage::leakage_masses(
            compiled,
            &AnswerBitmaps::from_signatures(compiled, offsets, &sigs),
            &masses,
            self.config.report_cap,
        );
        let totally_disclosed = determined(sigs.iter().copied(), offsets);
        KernelAudit {
            independence,
            leakage,
            totally_disclosed,
            estimator: self.exact_estimator(),
        }
    }

    /// Exact analysis over count-weighted signatures (uniform-`1/2`
    /// dictionaries): integer marginal accumulators end to end, `Ratio`s
    /// built only for the reported entries.
    fn analyse_exact_counts(
        &self,
        compiled: &[Arc<CompiledQuery>],
        offsets: &[usize],
        counts: &SignatureCounts,
    ) -> KernelAudit {
        let entries: Vec<(&[u64], u64)> = counts
            .counts
            .iter()
            .map(|(sig, &c)| (sig.as_slice(), c))
            .collect();
        let independence = marginals::independence_packed_counts(
            compiled,
            offsets,
            &entries,
            counts.total,
            false,
            self.config.report_cap,
        );
        let sigs: Vec<&[u64]> = entries.iter().map(|(sig, _)| *sig).collect();
        let weights: Vec<u64> = entries.iter().map(|(_, c)| *c).collect();
        let leakage = leakage::leakage_counts(
            compiled,
            &AnswerBitmaps::from_signatures(compiled, offsets, &sigs),
            Some(&weights),
            counts.total,
            false,
            self.config.report_cap,
        );
        let totally_disclosed = determined(sigs.iter().copied(), offsets);
        KernelAudit {
            independence,
            leakage,
            totally_disclosed,
            estimator: self.exact_estimator(),
        }
    }
}

/// Approximate resident bytes of a memoized audit: a fixed overhead for
/// the report scaffolding plus a per-entry charge for the materialized
/// violation and leak lists (answer tuples, three/two `Ratio`s each).
fn approx_audit_bytes(audit: &KernelAudit) -> usize {
    256 + 160 * audit.independence.violations.len() + 200 * audit.leakage.positive_entries.len()
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
/// slices — determinacy over the evaluated worlds (the total-disclosure
/// test).
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

/// Whether `q − p` exceeds three combined standard errors for binomial
/// estimates over `n` (prior `p`) and `n_cond` (posterior `q`) samples. The
/// packed count path feeds `c/n` divisions directly; they are bit-identical
/// to `to_f64` of the reduced `Ratio`s (IEEE division of the same rational
/// value rounds to the same double).
pub(crate) fn significant_f64(p: f64, q: f64, n: f64, n_cond: f64) -> bool {
    let sigma = (p * (1.0 - p) / n).sqrt() + (q * (1.0 - q) / n_cond).sqrt();
    (q - p).abs() > 3.0 * sigma
}

/// The Monte-Carlo analysis: the three verdicts from pooled signature
/// counts (independence, total disclosure) and per-answer world bitmaps
/// (leakage), reported as exact count ratios with a 3σ significance filter
/// on violations and leak entries — integer marginals, `u128`
/// cross-multiplied tests, and no `AnswerSet` decoded until a violation or
/// leak entry is reported.
fn analyse_mc_packed(
    compiled: &[Arc<CompiledQuery>],
    offsets: &[usize],
    counts: &SignatureCounts,
    maps: &AnswerBitmaps,
    pool: &SamplePool,
    space_size: usize,
    report_cap: Option<usize>,
) -> KernelAudit {
    let n = counts.total.max(1);
    let entries: Vec<(&[u64], u64)> = counts
        .counts
        .iter()
        .map(|(sig, &c)| (sig.as_slice(), c))
        .collect();
    let independence =
        marginals::independence_packed_counts(compiled, offsets, &entries, n, true, report_cap);
    let leakage = leakage::leakage_counts(compiled, maps, None, n, true, report_cap);
    let totally_disclosed = determined(entries.iter().map(|(sig, _)| *sig), offsets);
    KernelAudit {
        independence,
        leakage,
        totally_disclosed,
        estimator: EstimatorReport {
            mode: EstimatorMode::MonteCarlo,
            space_size,
            worlds_streamed: 0,
            sample_count: pool.len(),
            seed: Some(pool.seed()),
            std_error: 0.5 / (n as f64).sqrt(),
        },
    }
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
        assert_eq!(audit.independence.independent, baseline.independent);
        assert_eq!(audit.independence.pairs_checked, baseline.pairs_checked);
        assert_eq!(audit.independence.violations, baseline.violations);
        assert_eq!(audit.estimator.mode, EstimatorMode::Exact);
        assert_eq!(audit.estimator.worlds_streamed, 16);
        assert!(!audit.totally_disclosed);
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
        assert!(!audit.totally_disclosed);
    }

    #[test]
    fn identity_view_is_totally_disclosing() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
        let kernel = ProbKernel::new(dict, KernelConfig::default());
        let audit = kernel.evaluate(&s, &ViewSet::single(v)).unwrap();
        assert!(audit.totally_disclosed);
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
        // Example 4.2 dependence is strong; 4000 samples find it.
        assert!(!first.independence.independent);
        let after_one = kernel.stats();
        assert_eq!(after_one.samples_drawn, 4000);
        assert_eq!(after_one.samples_reused, 2 * 4000);
        assert_eq!(after_one.cutovers, 1);
        let second = kernel.evaluate(&s, &views).unwrap();
        let after_two = kernel.stats();
        assert_eq!(after_two.samples_drawn, 4000, "pool drawn once");
        assert_eq!(after_two.samples_reused, 5 * 4000);
        assert_eq!(after_two.cutovers, 2);
        // Same pool, same signatures: the two audits are identical.
        assert_eq!(
            first.independence.violations,
            second.independence.violations
        );
        assert_eq!(first.leakage, second.leakage);
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
        assert!(
            audit.independence.independent,
            "3σ filter must not flag a perfectly secure pair: {:?}",
            audit.independence.violations
        );
        assert!(audit.leakage.max_leak.is_zero());
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
        assert_eq!(
            first.independence.violations,
            second.independence.violations
        );
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
        assert_eq!(a.independence.violations, b.independence.violations);
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
