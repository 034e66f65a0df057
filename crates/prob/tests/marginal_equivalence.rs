//! Differential proptests: the exact path's packed-signature marginals are
//! byte-identical to the literal Definition 4.1 walk.
//!
//! On the exact path the kernel computes Definition 4.1 from packed
//! signature marginals and never decodes an `AnswerSet` it does not report.
//! [`check_independence`] is the definition itself: it evaluates `S` and
//! every view on every instance of the space, builds the joint distribution
//! of decoded answer sets and walks every `(s, v̄)` pair. On randomly
//! generated secret/view pairs, one view and two, the kernel's independence
//! report must serialize to the same bytes — verdict, every violation with
//! its prior and posterior, their order, and the pair count — on:
//!
//! * the uniform-`1/2` dictionary (packed integer counts), and
//! * a non-uniform dictionary (packed mass-weighted marginals).
//!
//! Section 6.1 and determinacy are held to their literal definitions
//! through the engine (`crates/core/tests/proptests.rs`); the Monte-Carlo
//! path has its own oracle over the pooled worlds (`kernel::mc_oracle`).

mod common;

use common::{domain, parse, query_text, schema};
use proptest::prelude::*;
use qvsec_cq::{ConjunctiveQuery, ViewSet};
use qvsec_data::{Dictionary, Ratio, TupleSpace};
use qvsec_prob::check_independence;
use qvsec_prob::kernel::{EstimatorMode, KernelConfig, ProbKernel};
use std::sync::Arc;

/// Audits `s` against one view and against both on a fresh exact kernel
/// and compares each serialized independence report with the literal
/// definition's. The audit memo stays off (the default), so every
/// evaluation runs the full analysis.
fn assert_marginals_match_definition_4_1(
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
        assert_eq!(
            serde_json::to_string(&audit.independence).unwrap(),
            serde_json::to_string(&literal).unwrap()
        );
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
        assert_marginals_match_definition_4_1(Dictionary::half(space), &s, &v1, &v2);
    }

    // Tuple probabilities of 1/4, 1/2 and 3/4 give worlds unequal masses,
    // so the kernel runs the mass-weighted signature distribution instead
    // of integer counts.
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
        assert_marginals_match_definition_4_1(dict, &s, &v1, &v2);
    }
}
