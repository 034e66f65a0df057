//! Monte-Carlo estimation checked end to end against exact values.
//!
//! The crate's one Monte-Carlo estimator is the kernel's seeded
//! [`SamplePool`]: single events are counted over it with [`answer_flags`]
//! (as `leakage_estimate` and `estimate_mu_n` do in the core crate), and
//! whole audits with per-answer bitmaps once the space is past the exact
//! cutover. These tests hold both to the exact probabilities of
//! [`crate::probability`] and pin that one seed yields one answer.

mod tests {
    use crate::kernel::{
        answer_flags, CompiledQuery, KernelAudit, KernelConfig, KernelLeakEntry, ProbKernel,
        SamplePool, POOL_CHUNK,
    };
    use crate::probability::{boolean_probability, event_probability};
    use qvsec_cq::eval::evaluate;
    use qvsec_cq::{parse_query, ConjunctiveQuery, ViewSet};
    use qvsec_data::{Dictionary, Domain, Ratio, Schema, TupleSpace, Value};
    use std::sync::Arc;

    fn setup() -> (Schema, Domain, Dictionary) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let domain = Domain::with_constants(["a", "b"]);
        let space = TupleSpace::full(&schema, &domain).unwrap();
        (schema, domain, Dictionary::half(space))
    }

    fn pool(dict: &Dictionary, samples: usize, seed: u64) -> SamplePool {
        SamplePool::generate(dict, Arc::new(dict.space().clone()), samples, seed)
    }

    /// The fraction of pooled worlds whose answer to `q` contains `answer`
    /// (or, with `None`, is non-empty).
    fn frequency(pool: &SamplePool, q: &ConjunctiveQuery, answer: Option<&[Value]>) -> f64 {
        let flags = answer_flags(pool, &CompiledQuery::compile(q, pool.space()), answer);
        flags.iter().filter(|&&b| b).count() as f64 / flags.len().max(1) as f64
    }

    /// Audits `(s, views)` on a fresh kernel forced onto the Monte-Carlo
    /// path, so two calls share nothing but the configuration.
    fn mc_audit(
        dict: &Dictionary,
        s: &ConjunctiveQuery,
        views: &ViewSet,
        samples: usize,
        seed: u64,
    ) -> KernelAudit {
        let config = KernelConfig {
            exact_cutover: 0,
            samples,
            seed,
            ..KernelConfig::default()
        };
        ProbKernel::new(Arc::new(dict.clone()), config)
            .evaluate(s, views)
            .unwrap()
    }

    /// The reported leakage entry of the pair `(s, (v))`, if any.
    fn entry<'a>(audit: &'a KernelAudit, s: &[Value], v: &[Value]) -> Option<&'a KernelLeakEntry> {
        audit
            .leakage
            .positive_entries
            .iter()
            .find(|e| e.query_answer == s && e.view_answers == [v.to_vec()])
    }

    #[test]
    fn monte_carlo_agrees_with_exact_probability() {
        let (schema, mut domain, dict) = setup();
        let q = parse_query("Q() :- R('a', x), R(x, x)", &schema, &mut domain).unwrap();
        let exact = boolean_probability(&q, &dict).unwrap().to_f64();
        let pool = pool(&dict, 8000, 11);
        let est = frequency(&pool, &q, None);
        assert!(
            (est - exact).abs() < 0.03,
            "estimate {est} too far from exact {exact}"
        );
        // A boolean query is true exactly when it contains the empty answer.
        assert_eq!(frequency(&pool, &q, Some(&[])), est);
    }

    #[test]
    fn conditional_estimates_detect_dependence() {
        // Exact: P[R(a,b)] = 1/2, P[R(a,b) | R(a,a) ∨ R(a,b)] = 2/3.
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S() :- R('a', 'b')", &schema, &mut domain).unwrap();
        let v = parse_query("V() :- R('a', x)", &schema, &mut domain).unwrap();
        let audit = mc_audit(&dict, &s, &ViewSet::single(v), 6000, 5);
        assert!(!audit.independence.independent);
        let shift = entry(&audit, &[], &[]).expect("S true given V true leaks");
        let (prior, posterior) = (shift.prior.to_f64(), shift.posterior.to_f64());
        assert!(
            posterior > prior + 0.05,
            "posterior {posterior} vs prior {prior}"
        );
    }

    #[test]
    fn relative_leakage_is_deterministic_for_a_fixed_seed() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let (a, b) = (domain.get("a").unwrap(), domain.get("b").unwrap());
        let views = ViewSet::single(v);
        let first = mc_audit(&dict, &s, &views, 2000, 41);
        let second = mc_audit(&dict, &s, &views, 2000, 41);
        assert_eq!(
            first.leakage, second.leakage,
            "one seed, one shared sample set, one answer"
        );
        assert!(entry(&first, &[a, b], &[a]).is_some());
        let zero = mc_audit(&dict, &s, &views, 0, 41);
        assert!(zero.leakage.witness.is_none());
    }

    #[test]
    fn relative_leakage_is_nonnegative_for_positive_dependence() {
        // Exact: observing (a) ∈ V raises P[(a, b) ∈ S] from 1/2 to 2/3.
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let (a, b) = (domain.get("a").unwrap(), domain.get("b").unwrap());
        let audit = mc_audit(&dict, &s, &ViewSet::single(v), 6000, 17);
        let leak = entry(&audit, &[a, b], &[a])
            .expect("the positive increase is reported")
            .relative_increase;
        assert!(
            (leak.to_f64() - 1.0 / 3.0).abs() < 0.1,
            "observing the projection must raise the estimate by ~1/3: {leak}"
        );
        assert!(audit.leakage.max_leak >= leak);
    }

    #[test]
    fn zero_samples_yield_zero_estimates() {
        let (schema, mut domain, dict) = setup();
        let q = parse_query("Q() :- R(x, y)", &schema, &mut domain).unwrap();
        let pool = pool(&dict, 0, 1);
        assert!(pool.is_empty());
        assert_eq!(frequency(&pool, &q, None), 0.0);
    }

    #[test]
    fn answer_inclusion_probability_matches_exact_value() {
        // P[(a) ∈ V(I)] for V(x) :- R(x, y) is P[R(a,a) ∨ R(a,b)] = 3/4,
        // and V(I) is non-empty unless all four tuples are absent: 15/16.
        let (schema, mut domain, dict) = setup();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let a = domain.get("a").unwrap();
        let inclusion = event_probability(&dict, |i| evaluate(&v, i).contains(&vec![a])).unwrap();
        let truth = event_probability(&dict, |i| !evaluate(&v, i).is_empty()).unwrap();
        assert_eq!((inclusion, truth), (Ratio::new(3, 4), Ratio::new(15, 16)));
        let pool = pool(&dict, 8000, 23);
        let est = frequency(&pool, &v, Some(&[a]));
        assert!((est - inclusion.to_f64()).abs() < 0.03, "estimate {est}");
        let est = frequency(&pool, &v, None);
        assert!((est - truth.to_f64()).abs() < 0.03, "estimate {est}");
        // An answer V can never produce is never included.
        assert_eq!(frequency(&pool, &v, Some(&[a, a])), 0.0);
    }

    #[test]
    fn derived_seeds_and_samples_are_reproducible() {
        // Every chunk of the pool draws from a seed derived from the pool
        // seed, so kernels configured alike hold the same worlds as a pool
        // drawn directly.
        let (_, _, dict) = setup();
        let samples = 2 * POOL_CHUNK + 10;
        let config = KernelConfig {
            samples,
            seed: 99,
            ..KernelConfig::default()
        };
        let dict = Arc::new(dict);
        let first = ProbKernel::new(Arc::clone(&dict), config).shared_pool();
        let second = ProbKernel::new(Arc::clone(&dict), config).shared_pool();
        let direct = pool(&dict, samples, 99);
        assert_eq!((first.len(), first.seed()), (samples, 99));
        for ((x, y), z) in first
            .worlds()
            .iter()
            .zip(second.worlds())
            .zip(direct.worlds())
        {
            assert_eq!(x.bits(), y.bits());
            assert_eq!(x.bits(), z.bits());
        }
    }
}
