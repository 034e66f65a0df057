//! Monte-Carlo audits on a space small enough for the exact path too:
//! `R(x, y)` over four constants (16 tuples) at tuple probability ½,
//! forced onto the Monte-Carlo path with `exact_cutover(0)` (seed 7, lists
//! capped at 16 as served audits are). Each case is one where a verdict
//! read off 512 or 8,192 samples contradicts the exact path's.

use qvsec::{AuditDepth, AuditEngine, AuditReport, AuditRequest, DisclosureClass};
use qvsec_cq::{parse_query, ConjunctiveQuery, ViewSet};
use qvsec_data::{Dictionary, Domain, Schema, TupleSpace};

/// The six one-column views, in publication order.
const VIEWS: [&str; 6] = [
    "V1(x) :- R(x, 'b')",
    "V2(y) :- R('b', y)",
    "V3(x) :- R(x, 'c')",
    "V4(y) :- R(y, y)",
    "V5(x) :- R(x, 'd')",
    "V6(y) :- R('c', y)",
];

/// Audits `secret` against the first `k` views at `samples` samples.
fn audit(secret: &str, k: usize, samples: usize) -> AuditReport {
    let mut schema = Schema::new();
    schema.add_relation("R", &["x", "y"]);
    let mut domain = Domain::with_constants(["a", "b", "c", "d"]);
    let mut parse = |text: &str| parse_query(text, &schema, &mut domain).unwrap();
    let secret = parse(secret);
    let views: Vec<ConjunctiveQuery> = VIEWS[..k].iter().map(|v| parse(v)).collect();
    let space = TupleSpace::full(&schema, &domain).unwrap();
    let engine = AuditEngine::builder(schema, domain)
        .dictionary(Dictionary::half(space))
        .default_depth(AuditDepth::Probabilistic)
        .report_cap(16)
        .exact_cutover(0)
        .mc_samples(samples)
        .mc_seed(7)
        .build();
    let request = AuditRequest::new(secret, ViewSet::from_views(views));
    engine.audit(&request).unwrap()
}

#[test]
fn forced_monte_carlo_never_reports_a_total_disclosure_the_exact_path_refutes() {
    // At six views no two of 512 sampled worlds refute determinacy for any
    // of the three, which the exact path classifies Partial, Partial and
    // Minute. R(d, a) is critical for each secret and for no view, which
    // refutes it without a sample.
    for secret in ["S(x) :- R(x, 'a')", "S(x, y) :- R(x, y)", "S(x) :- R(x, y)"] {
        for k in 1..=VIEWS.len() {
            let report = audit(secret, k, 512);
            assert_eq!(report.totally_disclosed, Some(false), "{secret}, {k} views");
            assert_ne!(report.class, DisclosureClass::Total, "{secret}, {k} views");
        }
    }
}

#[test]
fn the_identity_secret_is_dependent_on_one_column_views_at_any_sample_count() {
    for (samples, k) in [(512, 1), (8192, 1), (8192, 2)] {
        let report = audit("S(x, y) :- R(x, y)", k, samples);
        let independent = report.independence.unwrap().independent;
        assert!(!independent, "{samples} samples, {k} views");
    }
}

#[test]
fn a_secure_pair_is_independent_at_512_samples() {
    let report = audit("S(x) :- R(x, 'a')", 1, 512);
    assert!(report.independence.unwrap().independent);
    assert_eq!(report.class, DisclosureClass::NoDisclosure);
    let leakage = report.leakage.unwrap();
    assert!(leakage.max_leak.is_zero() && leakage.positive_entries.is_empty());
    assert_eq!(report.estimator.unwrap().sample_count, 0);
}
