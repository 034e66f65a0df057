//! Hospital-style privacy audit over `Patient(name, disease)`.
//!
//! ```text
//! cargo run -p qvsec-examples --example medical_privacy
//! ```
//!
//! The hospital wants to publish (a) the list of patient names (admissions
//! roster) and (b) the list of diseases treated (public-health reporting),
//! while keeping the name–disease association secret (the Section 2.1 /
//! Sweeney-style threat). The example:
//!
//! * checks perfect query-view security for each view and for the collusion,
//! * reproduces the Section 2.1 effect: a boolean view can sharply raise the
//!   probability of a specific secret fact without determining it,
//! * measures the leakage (Section 6.1) and the Theorem 6.1 bound, and
//! * shows how the Section 6.2 expected-size model classifies the same
//!   disclosures as "practically secure" when the domain grows.

use qvsec::engine::{AuditDepth, AuditEngine, AuditRequest};
use qvsec::leakage::{epsilon_for, theorem_6_1_bound};
use qvsec::practical::{asymptotics, practical_security, PracticalVerdict};
use qvsec_cq::{parse_query, ViewSet};
use qvsec_data::{Dictionary, Domain, Ratio, Tuple, TupleSpace};
use qvsec_workload::schemas::patient_schema;

fn main() {
    let schema = patient_schema();
    let mut domain = Domain::with_constants(["ann", "bo", "flu", "asthma"]);

    let names_view = parse_query("Names(n) :- Patient(n, d)", &schema, &mut domain).unwrap();
    let disease_view = parse_query("Diseases(d) :- Patient(n, d)", &schema, &mut domain).unwrap();
    let secret = parse_query("S(n, d) :- Patient(n, d)", &schema, &mut domain).unwrap();

    // One engine serves the whole audit: it owns the schema, the domain and
    // the 2x2 dictionary, and escalates per request. The dictionary's tuple
    // space is *typed* — names {ann, bo} x diseases {flu, asthma}, the
    // Section 2.1 shape — rather than the full 4x4 cross of the untyped
    // domain, which keeps the exhaustive Definition 4.1 check tractable.
    let patient = schema.relation_by_name("Patient").unwrap();
    let names = ["ann", "bo"].map(|n| domain.get(n).unwrap());
    let diseases = ["flu", "asthma"].map(|d| domain.get(d).unwrap());
    let space = TupleSpace::from_tuples(
        names
            .iter()
            .flat_map(|&n| {
                diseases
                    .iter()
                    .map(move |&d| Tuple::new(patient, vec![n, d]))
            })
            .collect(),
    );
    let dict = Dictionary::uniform(space.clone(), Ratio::new(1, 4)).unwrap();
    let engine = AuditEngine::builder(schema.clone(), domain.clone())
        .dictionary(dict)
        .build();

    println!("=== Perfect security (Theorem 4.5, exact depth) ===\n");
    for (label, views) in [
        ("names only", ViewSet::single(names_view.clone())),
        ("diseases only", ViewSet::single(disease_view.clone())),
        (
            "names + diseases (collusion)",
            ViewSet::from_views(vec![names_view.clone(), disease_view.clone()]),
        ),
    ] {
        let report = engine
            .audit(&AuditRequest::new(secret.clone(), views).with_depth(AuditDepth::Exact))
            .unwrap();
        println!(
            "  {:<30} -> {}",
            label,
            report.security.expect("exact depth").summary()
        );
    }

    println!("\n=== Escalating to the dictionary (Definition 4.1 + Section 6.1) ===\n");
    println!(
        "  tuple space: {} possible Patient tuples, {} instances",
        space.len(),
        1u64 << space.len()
    );
    let views = ViewSet::from_views(vec![names_view.clone(), disease_view.clone()]);
    let full = engine
        .audit(
            &AuditRequest::new(secret.clone(), views.clone())
                .named("names+diseases")
                .with_depth(AuditDepth::Probabilistic),
        )
        .unwrap();
    let report = full.independence.as_ref().expect("probabilistic depth");
    println!(
        "  statistically independent: {} (Theorems 4.5 + 4.8)",
        report.independent
    );
    let leak = full.leakage.as_ref().expect("probabilistic depth");
    println!(
        "  leak(S, {{Names, Diseases}}) = {} (~{:.4})",
        leak.max_leak,
        leak.max_leak_f64()
    );
    if let Some(w) = &leak.witness {
        println!(
            "  attained at secret answer {:?} given view answers {:?}",
            w.query_answer, w.view_answers
        );
    }
    let dict = engine.dictionary().expect("engine holds the dictionary");
    let ann = domain.get("ann").unwrap();
    let flu = domain.get("flu").unwrap();
    if let Some(eps) = epsilon_for(
        &secret,
        &views,
        dict,
        &domain,
        &[ann, flu],
        &[vec![ann], vec![flu]],
    )
    .unwrap()
    {
        println!(
            "  ε of Theorem 6.1 for (ann, flu): {} (~{:.4})",
            eps,
            eps.to_f64()
        );
        if let Some(bound) = theorem_6_1_bound(eps) {
            println!(
                "  Theorem 6.1 leakage bound: {} (~{:.4})",
                bound,
                bound.to_f64()
            );
        }
    }

    println!("\n=== Practical security as the domain grows (Section 6.2) ===\n");
    let mut d2 = Domain::new();
    let s_bool = parse_query("Sb() :- Patient('ann', 'flu')", &schema, &mut d2).unwrap();
    let v_bool = parse_query("Vb() :- Patient(n, 'flu')", &schema, &mut d2).unwrap();
    let a_s = asymptotics(&s_bool, &schema, 100.0).unwrap();
    let a_v = asymptotics(&v_bool, &schema, 100.0).unwrap();
    println!("  μ_n[Sb] decays like 1/n^{}", a_s.exponent);
    println!("  μ_n[Vb] decays like 1/n^{}", a_v.exponent);
    match practical_security(&s_bool, &v_bool, &schema, 100.0).unwrap() {
        PracticalVerdict::PracticallySecure => {
            println!("  publishing Vb is PRACTICALLY SECURE for Sb: lim μ_n[Sb | Vb] = 0")
        }
        PracticalVerdict::PracticalDisclosure { estimated_limit } => {
            println!("  practical disclosure: lim μ_n[Sb | Vb] ≈ {estimated_limit:.3}")
        }
    }
}
