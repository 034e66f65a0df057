//! Security in the presence of prior knowledge (Section 5).
//!
//! ```text
//! cargo run -p qvsec-examples --example prior_knowledge_audit
//! ```
//!
//! Walks through the five applications of Section 5.2 on executable
//! instances: no knowledge, key constraints, cardinality constraints,
//! protective disclosure of critical tuples, and relative security with
//! respect to a previously published view.

use qvsec::engine::{AuditDepth, AuditEngine, AuditRequest};
use qvsec::prior::{
    cardinality_destroys_security, protective_knowledge_absent, secure_given_knowledge,
    secure_given_knowledge_all_distributions_boolean, secure_under_keys, CardinalityConstraint,
    Knowledge,
};
use qvsec_cq::{parse_query, ConjunctiveQuery, ViewSet};
use qvsec_data::{Dictionary, Domain, Schema, TupleSpace};
use qvsec_prob::lineage::support_space;

/// The baseline (no prior knowledge) verdict, served by an [`AuditEngine`]
/// at exact depth. The engine refuses schemas that declare keys, so a keyed
/// example passes its schema without them.
fn baseline(
    secret: &ConjunctiveQuery,
    views: &ViewSet,
    schema: &Schema,
    domain: &Domain,
) -> qvsec::security::SecurityVerdict {
    let engine = AuditEngine::builder(schema.clone(), domain.clone()).build();
    engine
        .audit(&AuditRequest::new(secret.clone(), views.clone()).with_depth(AuditDepth::Exact))
        .expect("audit succeeds")
        .security
        .expect("exact depth carries a security verdict")
}

fn main() {
    application_1_and_2();
    application_3();
    application_4();
    application_5();
}

fn application_1_and_2() {
    println!("=== Applications 1 & 2: key constraints can destroy security ===\n");
    let mut plain_schema = Schema::new();
    let r = plain_schema.add_relation("R", &["key", "value"]);
    let mut schema = plain_schema.clone();
    schema.add_key(r, &[0]).unwrap();
    let mut domain = Domain::with_constants(["a", "b", "c"]);
    let s = parse_query("S() :- R('a', 'b')", &schema, &mut domain).unwrap();
    let v = parse_query("V() :- R('a', 'c')", &schema, &mut domain).unwrap();

    let plain = baseline(&s, &ViewSet::single(v.clone()), &plain_schema, &domain);
    println!("  without prior knowledge : {}", plain.summary());

    let space = support_space(&[&s, &v], &domain, 1 << 10).unwrap();
    let keys = Knowledge::Keys(schema.keys().to_vec());
    let with_keys =
        secure_given_knowledge_all_distributions_boolean(&s, &v, &keys, &space).unwrap();
    println!(
        "  knowing `key` is a key  : {}",
        if with_keys {
            "still secure"
        } else {
            "NOT secure (V true implies S false)"
        }
    );
    let corollary = secure_under_keys(&s, &ViewSet::single(v), &schema, &space).unwrap();
    println!(
        "  Corollary 5.3 verdict   : secure = {}, violating ≡_K pairs = {}\n",
        corollary.secure,
        corollary.violating_pairs.len()
    );
}

fn application_3() {
    println!("=== Application 3: cardinality knowledge destroys all security ===\n");
    let mut schema = Schema::new();
    schema.add_relation("R", &["x", "y"]);
    let mut domain = Domain::with_constants(["a", "b"]);
    let s = parse_query("S() :- R('a', 'a')", &schema, &mut domain).unwrap();
    let v = parse_query("V() :- R('b', 'b')", &schema, &mut domain).unwrap();
    println!(
        "  the pair is otherwise secure: {}",
        baseline(&s, &ViewSet::single(v.clone()), &schema, &domain).secure
    );
    let space = TupleSpace::full(&schema, &domain).unwrap();
    for constraint in [
        CardinalityConstraint::AtMost(1),
        CardinalityConstraint::Exactly(2),
        CardinalityConstraint::AtLeast(3),
    ] {
        let k = Knowledge::Cardinality(constraint);
        let secure = secure_given_knowledge_all_distributions_boolean(&s, &v, &k, &space).unwrap();
        println!("  knowing {constraint:?}: secure = {secure}");
    }
    println!(
        "  (the paper's blanket statement applies: {})\n",
        cardinality_destroys_security(&s, &ViewSet::single(v))
    );
}

fn application_4() {
    println!("=== Application 4: protecting a secret by disclosing critical tuples ===\n");
    let mut schema = Schema::new();
    schema.add_relation("R", &["x", "y"]);
    let mut domain = Domain::with_constants(["a", "b"]);
    let s = parse_query("S() :- R('a', x)", &schema, &mut domain).unwrap();
    let v = parse_query("V() :- R(x, 'b')", &schema, &mut domain).unwrap();
    let views = ViewSet::single(v.clone());
    println!(
        "  before: {}",
        baseline(&s, &views, &schema, &domain).summary()
    );
    let k = protective_knowledge_absent(&s, &views, &domain).unwrap();
    println!("  announced knowledge: {k:?}");
    let dict = Dictionary::half(TupleSpace::full(&schema, &domain).unwrap());
    let report = secure_given_knowledge(&s, &views, &k, &dict).unwrap();
    println!(
        "  after announcing it, Definition 5.1 independence holds: {}\n",
        report.independent
    );
}

fn application_5() {
    println!("=== Application 5: relative security w.r.t. a prior view ===\n");
    let mut schema = Schema::new();
    schema.add_relation("R1", &["x", "y"]);
    schema.add_relation("R2", &["x", "y"]);
    let mut domain = Domain::with_constants(["a", "b"]);
    let u = parse_query("U() :- R1('a', x), R2('a', y)", &schema, &mut domain).unwrap();
    let s = parse_query("S() :- R1(z1, z2), R2('a', 'b')", &schema, &mut domain).unwrap();
    let v = parse_query("V() :- R1('a', 'b'), R2(w1, w2)", &schema, &mut domain).unwrap();
    for (label, query, other) in [("U", &u, &s), ("V", &v, &s)] {
        let verdict = baseline(other, &ViewSet::single(query.clone()), &schema, &domain);
        println!("  S secure w.r.t. {label} alone: {}", verdict.secure);
    }
    let space = support_space(&[&u, &s, &v], &domain, 1 << 10).unwrap();
    let relative = qvsec::prior::secure_given_prior_view_boolean(&u, &s, &v, &space).unwrap();
    println!("  but given that U was already published, V adds nothing: U : S | V = {relative}");
}
