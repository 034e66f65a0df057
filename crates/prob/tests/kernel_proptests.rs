//! Property-based validation of the shared-sample probabilistic kernel.
//!
//! On randomly generated query/view pairs over a tiny domain:
//!
//! * the kernel's exact path reproduces the preserved enumeration baseline
//!   — the signature distribution aggregates to exactly the
//!   `joint_distribution` of Eq. (2), and the Definition 4.1 independence
//!   report (violations, priors, posteriors, pair counts) is identical to
//!   `check_independence`;
//! * the kernel's Monte-Carlo path never contradicts an exact independence
//!   verdict (the 3σ significance filter suppresses sampling noise), and
//!   single-event estimates over the shared sample pool converge to exact
//!   probabilities.

mod common;

use common::{domain, parse, query_text, schema};
use proptest::prelude::*;
use qvsec_cq::eval::AnswerSet;
use qvsec_cq::ViewSet;
use qvsec_data::{Dictionary, Ratio, TupleSpace};
use qvsec_prob::independence::check_independence;
use qvsec_prob::kernel::{
    answer_flags, stream_exact, CompiledQuery, EstimatorMode, KernelConfig, ProbKernel, ProbStats,
    SamplePool,
};
use qvsec_prob::probability::{boolean_probability, joint_distribution};
use std::collections::BTreeMap;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The streamed signature distribution aggregates to exactly the
    // enumeration baseline's joint distribution of `(S(I), V̄(I))`.
    #[test]
    fn exact_signatures_reproduce_the_joint_distribution(
        s_text in query_text(),
        v_text in query_text(),
    ) {
        let schema = schema();
        let mut domain = domain();
        let s = parse(&s_text, &schema, &mut domain);
        let v = parse(&v_text, &schema, &mut domain);
        let space = TupleSpace::full(&schema, &domain).unwrap();
        let dict = Dictionary::half(space.clone());
        let views = ViewSet::single(v);

        let compiled: Vec<std::sync::Arc<CompiledQuery>> = std::iter::once(&s)
            .chain(views.iter())
            .map(|q| std::sync::Arc::new(CompiledQuery::compile(q, &space)))
            .collect();
        let stats = ProbStats::new();
        let dist = stream_exact(&dict, &compiled, &stats).unwrap();

        // Decode every signature and rebuild the joint distribution.
        let mut rebuilt: BTreeMap<(AnswerSet, Vec<AnswerSet>), Ratio> = BTreeMap::new();
        for (sig, p) in &dist.entries {
            let mut offset = 0usize;
            let mut parts: Vec<AnswerSet> = Vec::new();
            for q in &compiled {
                parts.push(q.decode(&sig[offset..offset + q.sig_words()]));
                offset += q.sig_words();
            }
            let s_ans = parts.remove(0);
            *rebuilt.entry((s_ans, parts)).or_insert(Ratio::ZERO) += *p;
        }

        let baseline = joint_distribution(&s, &views, &dict, |_| true).unwrap();
        let baseline_map: BTreeMap<(AnswerSet, Vec<AnswerSet>), Ratio> = baseline
            .iter()
            .map(|(k, p)| (k.clone(), p))
            .collect();
        prop_assert_eq!(rebuilt, baseline_map);
        prop_assert!(dist.total_mass().is_one());
    }

    // The kernel's exact independence report is identical to the literal
    // Definition 4.1 check.
    #[test]
    fn exact_kernel_independence_equals_the_enumeration_baseline(
        s_text in query_text(),
        v_text in query_text(),
    ) {
        let schema = schema();
        let mut domain = domain();
        let s = parse(&s_text, &schema, &mut domain);
        let v = parse(&v_text, &schema, &mut domain);
        let space = TupleSpace::full(&schema, &domain).unwrap();
        let dict = Arc::new(Dictionary::half(space));
        let views = ViewSet::single(v);

        let kernel = ProbKernel::new(Arc::clone(&dict), KernelConfig::default());
        let audit = kernel.evaluate(&s, &views).unwrap();
        prop_assert_eq!(audit.estimator.mode, EstimatorMode::Exact);
        let baseline = check_independence(&s, &views, &dict).unwrap();
        prop_assert_eq!(audit.independence.independent, baseline.independent);
        prop_assert_eq!(audit.independence.pairs_checked, baseline.pairs_checked);
        prop_assert_eq!(audit.independence.violations, baseline.violations);
    }

}

// A second block: the vendored proptest macro's expansion depth grows with
// the number of tests per block.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The Monte-Carlo path never contradicts an exact "independent"
    // verdict: its 3σ filter suppresses sampling noise, and its leakage
    // entries vanish on secure pairs.
    #[test]
    fn monte_carlo_respects_exact_independence_verdicts(
        s_text in query_text(),
        v_text in query_text(),
    ) {
        let schema = schema();
        let mut domain = domain();
        let s = parse(&s_text, &schema, &mut domain);
        let v = parse(&v_text, &schema, &mut domain);
        let space = TupleSpace::full(&schema, &domain).unwrap();
        let dict = Arc::new(Dictionary::half(space));
        let views = ViewSet::single(v);

        let exact = ProbKernel::new(Arc::clone(&dict), KernelConfig::default())
            .evaluate(&s, &views)
            .unwrap();
        let mc_config = KernelConfig { exact_cutover: 0, samples: 4000, seed: 7, ..KernelConfig::default() };
        let mc = ProbKernel::new(Arc::clone(&dict), mc_config)
            .evaluate(&s, &views)
            .unwrap();
        prop_assert_eq!(mc.estimator.mode, EstimatorMode::MonteCarlo);
        if exact.independence.independent {
            prop_assert!(
                mc.independence.independent,
                "3σ filter flagged a secure pair: {:?}",
                mc.independence.violations
            );
            prop_assert!(mc.leakage.max_leak.is_zero());
        }
    }

    // Pooled Monte-Carlo estimates of `P[Q(I) ≠ ∅]` converge within 4σ of
    // the exact value.
    #[test]
    fn monte_carlo_probability_estimates_converge_within_three_sigma(
        q_text in query_text(),
    ) {
        let schema = schema();
        let mut domain = domain();
        let q = parse(&q_text, &schema, &mut domain);
        let space = Arc::new(TupleSpace::full(&schema, &domain).unwrap());
        let dict = Dictionary::half(TupleSpace::clone(&space));
        let exact = boolean_probability(&q, &dict).unwrap().to_f64();
        let samples = 6000usize;
        let pool = SamplePool::generate(&dict, Arc::clone(&space), samples, 13);
        let hits = answer_flags(&pool, &CompiledQuery::compile(&q, &space), None)
            .into_iter()
            .filter(|&b| b)
            .count();
        let est = hits as f64 / samples as f64;
        let sigma = (exact * (1.0 - exact) / samples as f64).sqrt();
        // The vendored proptest shim seeds by (test name, case), so the
        // generated queries and hence this assertion are deterministic.
        // The bound is still kept at 4σ (~6e-5 tail) rather than 3σ so a
        // future re-seeding (renamed test, real proptest) cannot introduce
        // a plausible flake.
        prop_assert!(
            (est - exact).abs() <= 4.0 * sigma + 1e-9,
            "estimate {est} vs exact {exact} (4σ = {})",
            4.0 * sigma
        );
    }
}
