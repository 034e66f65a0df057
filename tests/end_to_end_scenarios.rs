//! Integration test: the data-exchange scenarios of the introduction, run
//! end to end through the workload builders, the analyzer and the collusion
//! audit.

use qvsec::engine::{AuditDepth, AuditEngine, AuditRequest};
use qvsec::practical::{practical_security, PracticalVerdict};
use qvsec::security::secure_for_all_distributions;
use qvsec_cq::{parse_query, ViewSet};
use qvsec_data::{Dictionary, Domain, Ratio};
use qvsec_prob::lineage::support_space;
use qvsec_workload::paper::{intro_collusion, manufacturing_views, section_2_1};
use qvsec_workload::scenarios::{collusion_audit, minimal_unsafe_coalitions};
use qvsec_workload::schemas::{employee_schema, manufacturing_schema};

#[test]
fn manufacturing_exchange_is_safe_for_the_cost_secret() {
    let schema = manufacturing_schema();
    let (secret, views, domain) = manufacturing_views();
    let named: Vec<(String, qvsec_cq::ConjunctiveQuery)> = views
        .iter()
        .cloned()
        .zip(["suppliers", "retailers", "tax"])
        .map(|(v, who)| (who.to_string(), v))
        .collect();
    let reports = collusion_audit(&secret, &named, &schema, &domain).unwrap();
    assert_eq!(reports.len(), 7);
    assert!(reports.iter().all(|r| r.verdict.secure));
    assert!(minimal_unsafe_coalitions(&reports).is_empty());
}

#[test]
fn manufacturing_exchange_is_unsafe_for_a_labor_cost_secret() {
    // If the secret is the labor cost itself, the tax consultant's view
    // (and any coalition containing them) discloses it.
    let schema = manufacturing_schema();
    let (_, views, mut domain) = manufacturing_views();
    let secret = parse_query("S(pr, c) :- Labor(pr, op, c)", &schema, &mut domain).unwrap();
    let named: Vec<(String, qvsec_cq::ConjunctiveQuery)> = views
        .iter()
        .cloned()
        .zip(["suppliers", "retailers", "tax"])
        .map(|(v, who)| (who.to_string(), v))
        .collect();
    let reports = collusion_audit(&secret, &named, &schema, &domain).unwrap();
    for r in &reports {
        let has_tax = r.members.iter().any(|m| m == "tax");
        assert_eq!(!r.verdict.secure, has_tax, "coalition {:?}", r.members);
    }
    let minimal = minimal_unsafe_coalitions(&reports);
    assert_eq!(minimal.len(), 1);
    assert_eq!(minimal[0].members, vec!["tax".to_string()]);
}

#[test]
fn bob_and_carol_collusion_is_detected_and_quantified() {
    let schema = employee_schema();
    let (secret, views, domain) = intro_collusion();
    let verdict = secure_for_all_distributions(&secret, &views, &schema, &domain).unwrap();
    assert!(!verdict.secure);

    // quantify over a tiny dictionary: the collusion leaks strictly more than
    // the name-only view of Table 1 row 3
    let mut d = domain.clone();
    d.pad_to(2);
    let mut queries: Vec<&qvsec_cq::ConjunctiveQuery> = vec![&secret];
    queries.extend(views.iter());
    let space = support_space(&queries, &d, 1 << 12).unwrap();
    let dict = Dictionary::uniform(space, Ratio::new(1, 2)).unwrap();
    let analysis = AuditEngine::builder(schema, d)
        .dictionary(dict)
        .default_depth(AuditDepth::Probabilistic)
        .build()
        .audit(&AuditRequest::new(secret.clone(), views.clone()))
        .unwrap();
    assert_eq!(analysis.secure, Some(false));
    assert!(analysis.leakage.as_ref().unwrap().max_leak > Ratio::ZERO);
    assert_eq!(
        analysis.totally_disclosed,
        Some(false),
        "the association is not fully determined"
    );
}

#[test]
fn section_2_1_disclosure_is_detected_by_every_layer() {
    let schema = employee_schema();
    let (secret, view, domain) = section_2_1();
    let views = ViewSet::single(view.clone());
    // criterion
    assert!(
        !secure_for_all_distributions(&secret, &views, &schema, &domain)
            .unwrap()
            .secure
    );
    // statistics over the support dictionary: the posterior must exceed the prior
    let space = support_space(&[&secret, &view], &domain, 1 << 12).unwrap();
    let dict = Dictionary::uniform(space, Ratio::new(1, 3)).unwrap();
    let analysis = AuditEngine::builder(schema, domain)
        .dictionary(dict)
        .default_depth(AuditDepth::Probabilistic)
        .build()
        .audit(&AuditRequest::new(secret.clone(), views.clone()))
        .unwrap();
    assert!(!analysis.independence.unwrap().independent);
    let worst = analysis.leakage.unwrap().witness.unwrap();
    assert!(worst.posterior > worst.prior);
}

#[test]
fn practical_security_reclassifies_the_minute_disclosures() {
    // Under the Section 6.2 expected-size model, the "is this specific person
    // in the database" secret is practically secure with respect to the
    // department-membership view, even though it fails perfect secrecy.
    let mut schema = qvsec_data::Schema::new();
    schema.add_relation("Employee", &["name", "department", "phone"]);
    let mut domain = Domain::new();
    let secret = parse_query("S() :- Employee('alice', 'HR', 'p1')", &schema, &mut domain).unwrap();
    let view = parse_query("V() :- Employee(n, 'HR', p)", &schema, &mut domain).unwrap();
    assert!(
        !secure_for_all_distributions(&secret, &ViewSet::single(view.clone()), &schema, &domain)
            .unwrap()
            .secure
    );
    match practical_security(&secret, &view, &schema, 50.0).unwrap() {
        PracticalVerdict::PracticallySecure => {}
        other => panic!("expected practical security, got {other:?}"),
    }
}
