//! Differential proptests: the exact path's Definition 4.1 and determinacy
//! verdicts are byte-identical to the literal definitions.
//!
//! The kernel decides Definition 4.1 from critical tuples (Theorems 4.5 and
//! 4.8) and, on an independent pair, reads determinacy off `crit(S) = ∅`
//! without evaluating a world. [`check_independence`] is the definition
//! itself: it evaluates `S` and every view on every instance of the space
//! and walks every `(s, v̄)` pair of the joint distribution; determinacy is
//! read off the same joint distribution (every view answer of positive
//! probability fixes one secret answer). On randomly generated secret/view
//! pairs, one view and two, the kernel's verdicts must serialize to the
//! same bytes as the literal ones on:
//!
//! * the uniform-`1/2` dictionary, and
//! * a non-uniform dictionary (tuple probabilities 1/4, 1/2 and 3/4).
//!
//! An independent pair must also report no leak. Section 6.1 is held to its
//! literal definition through the engine (`crates/core/tests/proptests.rs`);
//! the Monte-Carlo path has its own oracle over the pooled worlds
//! (`kernel::mc_oracle`) and is compared with these verdicts in
//! `kernel_proptests.rs`.

mod common;

use common::{domain, parse, query_text, schema};
use proptest::prelude::*;
use qvsec_cq::eval::AnswerSet;
use qvsec_cq::{ConjunctiveQuery, ViewSet};
use qvsec_data::{Dictionary, Ratio, TupleSpace};
use qvsec_prob::check_independence;
use qvsec_prob::kernel::{EstimatorMode, IndependenceVerdict, KernelConfig, ProbKernel};
use qvsec_prob::probability::joint_distribution;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Whether the view answers determine the secret answer over the worlds of
/// positive probability, read off the joint distribution of `(S(I), V̄(I))`.
fn literal_determinacy(s: &ConjunctiveQuery, views: &ViewSet, dict: &Dictionary) -> bool {
    let joint = joint_distribution(s, views, dict, |_| true).unwrap();
    let mut secrets: BTreeMap<&Vec<AnswerSet>, BTreeSet<&AnswerSet>> = BTreeMap::new();
    for ((s_ans, v_ans), _) in joint.iter() {
        secrets.entry(v_ans).or_default().insert(s_ans);
    }
    secrets.values().all(|answers| answers.len() == 1)
}

/// Audits `s` against one view and against both on a fresh exact kernel
/// and compares the serialized Definition 4.1 verdict and determinacy with
/// the literal definitions'. The audit memo stays off (the default), so
/// every evaluation runs the full analysis.
fn assert_verdicts_match_the_definitions(
    dict: Dictionary,
    s: &ConjunctiveQuery,
    v1: &ConjunctiveQuery,
    v2: &ConjunctiveQuery,
) {
    let dict = Arc::new(dict);
    for views in [
        ViewSet::single(v1.clone()),
        ViewSet::from_views(vec![v1.clone(), v2.clone()]),
    ] {
        let kernel = ProbKernel::new(Arc::clone(&dict), KernelConfig::default());
        let audit = kernel.evaluate(s, &views).unwrap();
        assert_eq!(audit.estimator.mode, EstimatorMode::Exact);
        let literal = check_independence(s, &views, &dict).unwrap();
        assert_eq!(literal.independent, literal.violations.is_empty());
        let expected = IndependenceVerdict {
            independent: literal.independent,
        };
        assert_eq!(
            serde_json::to_string(&(audit.independence, audit.totally_disclosed)).unwrap(),
            serde_json::to_string(&(expected, Some(literal_determinacy(s, &views, &dict))))
                .unwrap()
        );
        if literal.independent {
            assert!(audit.leakage.max_leak.is_zero());
            assert!(audit.leakage.witness.is_none());
            assert!(audit.leakage.positive_entries.is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn exact_uniform_half_audits_are_byte_identical(
        s_text in query_text(),
        v1_text in query_text(),
        v2_text in query_text(),
    ) {
        let schema = schema();
        let mut domain = domain();
        let s = parse(&s_text, &schema, &mut domain);
        let v1 = parse(&v1_text, &schema, &mut domain);
        let v2 = parse(&v2_text, &schema, &mut domain);
        let space = TupleSpace::full(&schema, &domain).unwrap();
        assert_verdicts_match_the_definitions(Dictionary::half(space), &s, &v1, &v2);
    }

    // Tuple probabilities of 1/4, 1/2 and 3/4 give worlds unequal masses.
    #[test]
    fn exact_nonuniform_audits_are_byte_identical(
        s_text in query_text(),
        v1_text in query_text(),
        v2_text in query_text(),
    ) {
        let schema = schema();
        let mut domain = domain();
        let s = parse(&s_text, &schema, &mut domain);
        let v1 = parse(&v1_text, &schema, &mut domain);
        let v2 = parse(&v2_text, &schema, &mut domain);
        let space = TupleSpace::full(&schema, &domain).unwrap();
        let probs: Vec<Ratio> = (0..space.len())
            .map(|i| Ratio::new(1 + (i as i128 % 3), 4))
            .collect();
        let dict = Dictionary::from_probabilities(space, probs).unwrap();
        assert_verdicts_match_the_definitions(dict, &s, &v1, &v2);
    }
}
