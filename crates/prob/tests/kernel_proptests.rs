//! Property-based validation of the shared-sample probabilistic kernel.
//!
//! On randomly generated query/view pairs over a tiny domain:
//!
//! * the kernel's exact path reproduces the preserved enumeration baseline
//!   — the signature distribution aggregates to exactly the
//!   `joint_distribution` of Eq. (2);
//! * Definition 4.1, decided by Theorems 4.5 and 4.8 from critical tuples,
//!   equals the literal `check_independence` on both paths, over the ½,
//!   a non-uniform and a degenerate dictionary, with one to three views;
//! * Monte-Carlo determinacy, when it reports one, agrees with the exact
//!   path's, and single-event estimates over the shared sample pool
//!   converge to exact probabilities.

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

    // Definition 4.1 from critical tuples equals the literal definition on
    // the exact and the Monte-Carlo path, for one to three views, over the
    // ½ dictionary, tuple probabilities in {1/3, 2/3} and a degenerate
    // dictionary (p in {0, 1} on half the tuples); Monte-Carlo determinacy
    // is `true` or `false` only where the exact path says the same.
    #[test]
    fn exact_kernel_independence_equals_the_enumeration_baseline(
        s_text in query_text(),
        v1_text in query_text(),
        v2_text in query_text(),
        v3_text in query_text(),
    ) {
        let schema = schema();
        let mut domain = domain();
        let s = parse(&s_text, &schema, &mut domain);
        let views = [v1_text, v2_text, v3_text].map(|t| parse(&t, &schema, &mut domain));
        let space = TupleSpace::full(&schema, &domain).unwrap();
        let cycle = |ps: [Ratio; 4]| (0..space.len()).map(|i| ps[i % 4]).collect::<Vec<_>>();
        let third = Ratio::new(1, 3);
        let dicts = [
            Dictionary::half(space.clone()),
            Dictionary::from_probabilities(
                space.clone(),
                cycle([third, Ratio::new(2, 3), Ratio::new(2, 3), third]),
            )
            .unwrap(),
            Dictionary::from_probabilities(
                space.clone(),
                cycle([Ratio::ZERO, Ratio::new(1, 2), Ratio::ONE, third]),
            )
            .unwrap(),
        ];
        let mc_config = KernelConfig { exact_cutover: 0, samples: 256, seed: 7, ..KernelConfig::default() };
        for dict in dicts.map(Arc::new) {
            for k in 1..=views.len() {
                let views = ViewSet::from_views(views[..k].to_vec());
                let literal = check_independence(&s, &views, &dict).unwrap().independent;
                let exact = ProbKernel::new(Arc::clone(&dict), KernelConfig::default())
                    .evaluate(&s, &views)
                    .unwrap();
                let mc = ProbKernel::new(Arc::clone(&dict), mc_config).evaluate(&s, &views).unwrap();
                prop_assert_eq!(exact.estimator.mode, EstimatorMode::Exact);
                prop_assert_eq!(mc.estimator.mode, EstimatorMode::MonteCarlo);
                prop_assert_eq!(exact.independence.independent, literal);
                prop_assert_eq!(mc.independence.independent, literal);
                prop_assert!(exact.totally_disclosed.is_some());
                if mc.totally_disclosed.is_some() {
                    prop_assert_eq!(mc.totally_disclosed, exact.totally_disclosed);
                }
            }
        }
    }

}

// A second block: the vendored proptest macro's expansion depth grows with
// the number of tests per block.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The Monte-Carlo path never contradicts an exact "independent"
    // verdict, and its leakage entries vanish on secure pairs.
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
            prop_assert!(mc.independence.independent);
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
