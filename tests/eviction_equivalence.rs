//! Bounded-cache ≡ unbounded-cache equivalence.
//!
//! The acceptance criterion of the serving layer's evicting caches: **with
//! any byte budget**, every engine/session verdict is byte-identical to the
//! unbounded-cache baseline — eviction may cost recomputation, never
//! correctness. Random view sequences are audited through engines with
//! random budgets (including absurdly tiny ones that evict on every
//! insert), and the snapshot/restore regression pins the specific
//! interaction the ISSUE calls out: a restored session must re-derive
//! evicted artifacts transparently.

use proptest::prelude::*;
use qvsec::engine::{AuditDepth, AuditEngine, AuditRequest};
use qvsec_cq::{parse_query, ConjunctiveQuery, ViewSet};
use qvsec_data::{Dictionary, Domain, Schema, TupleSpace};
use std::sync::Arc;

fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_relation("R", &["x", "y"]);
    s
}

/// Random view text over R/2.
fn view_text() -> impl Strategy<Value = String> {
    let term = prop_oneof![
        3 => Just("x0".to_string()),
        3 => Just("x1".to_string()),
        2 => Just("'a'".to_string()),
        2 => Just("'b'".to_string()),
    ];
    let atom = (term.clone(), term).prop_map(|(a, b)| format!("R({a}, {b})"));
    (proptest::collection::vec(atom, 1..3), proptest::bool::ANY).prop_map(|(atoms, boolean)| {
        let body = atoms.join(", ");
        let head_var = atoms
            .iter()
            .flat_map(|a| {
                a.trim_start_matches("R(")
                    .trim_end_matches(')')
                    .split(',')
                    .map(|s| s.trim().to_string())
            })
            .find(|t| t.starts_with('x'));
        match (boolean, head_var) {
            (false, Some(v)) => format!("Q({v}) :- {body}"),
            _ => format!("Q() :- {body}"),
        }
    })
}

fn parse(text: &str, schema: &Schema, domain: &mut Domain) -> ConjunctiveQuery {
    parse_query(text, schema, domain).expect("generated query parses")
}

fn engine(schema: &Schema, domain: &Domain, budget: Option<usize>) -> AuditEngine {
    let space = TupleSpace::full(schema, domain).unwrap();
    let mut builder = AuditEngine::builder(schema.clone(), domain.clone())
        .dictionary(Dictionary::half(space))
        .default_depth(AuditDepth::Probabilistic);
    if let Some(total) = budget {
        builder = builder.cache_budget_bytes(total);
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_byte_budget_yields_byte_identical_audit_reports(
        texts in proptest::collection::vec(view_text(), 1..5),
        budget in prop_oneof![
            2 => (1usize..64).prop_map(Some),          // evicts constantly
            2 => (1024usize..65536).prop_map(Some),    // evicts sometimes
            1 => Just(None),                           // control: unbounded
        ],
    ) {
        let schema = schema();
        let mut domain = Domain::with_constants(["a", "b"]);
        let secret = parse("S(x0, x1) :- R(x0, x1)", &schema, &mut domain);
        let views: Vec<ConjunctiveQuery> =
            texts.iter().map(|t| parse(t, &schema, &mut domain)).collect();

        let bounded = engine(&schema, &domain, budget);
        let unbounded = engine(&schema, &domain, None);
        // Audit every prefix twice (the second round replays over whatever
        // the budget left resident) and compare against the unbounded
        // engine request-for-request.
        for round in 0..2 {
            for k in 0..views.len() {
                let request = AuditRequest::new(
                    secret.clone(),
                    ViewSet::from_views(views[..=k].to_vec()),
                ).named(format!("r{round}k{k}"));
                let a = bounded.audit(&request).unwrap();
                let b = unbounded.audit(&request).unwrap();
                prop_assert_eq!(
                    serde_json::to_string(&a).unwrap(),
                    serde_json::to_string(&b).unwrap(),
                    "budget {:?}, round {}, prefix {}: verdicts diverged", budget, round, k
                );
            }
        }
        // Sanity on the accounting: tiny budgets must actually evict, and
        // evictions must be visible through cache_stats.
        let stats = bounded.cache_stats();
        if budget == Some(1) {
            prop_assert!(stats.evictions > 0, "1-byte budget never evicted: {:?}", stats);
        }
        if budget.is_none() {
            prop_assert_eq!(stats.evictions, 0);
        }
    }

    #[test]
    fn budgeted_sessions_match_unbounded_sessions_step_for_step(
        texts in proptest::collection::vec(view_text(), 1..4),
        budget in 1usize..4096,
    ) {
        let schema = schema();
        let mut domain = Domain::with_constants(["a", "b"]);
        let secret = parse("S(x0, x1) :- R(x0, x1)", &schema, &mut domain);
        let views: Vec<ConjunctiveQuery> =
            texts.iter().map(|t| parse(t, &schema, &mut domain)).collect();

        let bounded = Arc::new(engine(&schema, &domain, Some(budget)));
        let unbounded = Arc::new(engine(&schema, &domain, None));
        let mut bounded_session = bounded.open_session(secret.clone()).named("s");
        let mut unbounded_session = unbounded.open_session(secret).named("s");
        for view in &views {
            let a = bounded_session.publish(view.clone()).unwrap();
            let b = unbounded_session.publish(view.clone()).unwrap();
            prop_assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "budget {}: session report diverged at step {}", budget, a.step
            );
        }
    }
}

/// The ISSUE's snapshot/restore × eviction regression: snapshot, force
/// eviction with a tiny byte budget, restore, and assert the replayed
/// reports are byte-identical to an unbounded engine's.
#[test]
fn restored_sessions_rederive_evicted_artifacts_transparently() {
    let schema = schema();
    let mut domain = Domain::with_constants(["a", "b"]);
    let secret = parse("S(x0, x1) :- R(x0, x1)", &schema, &mut domain);
    let v1 = parse("V1(x0) :- R(x0, x1)", &schema, &mut domain);
    let v2 = parse("V2(x1) :- R(x0, x1)", &schema, &mut domain);
    let churn: Vec<ConjunctiveQuery> = [
        "W1(x0) :- R(x0, 'a')",
        "W2(x0) :- R(x0, 'b')",
        "W3() :- R(x0, x0)",
        "W4(x0) :- R('a', x0)",
    ]
    .iter()
    .map(|t| parse(t, &schema, &mut domain))
    .collect();

    // A budget small enough that the churn audits evict v1/v2's artifacts.
    let bounded = Arc::new(engine(&schema, &domain, Some(256)));
    let unbounded = Arc::new(engine(&schema, &domain, None));
    let mut session = bounded.open_session(secret.clone()).named("evict");
    let mut baseline = unbounded.open_session(secret).named("evict");

    let first = session.publish(v1.clone()).unwrap();
    baseline.publish(v1).unwrap();
    let snap = session.snapshot();
    let base_snap = baseline.snapshot();

    // Churn the caches: each audit inserts fresh artifacts, evicting the
    // snapshot's under the tiny budget.
    let evictions_before = bounded.cache_stats().evictions;
    for view in &churn {
        session.audit_candidate(view).unwrap();
    }
    assert!(
        bounded.cache_stats().evictions > evictions_before,
        "churn must evict under a 256-byte budget: {:?}",
        bounded.cache_stats()
    );

    // Restore and replay: the rewound session re-derives whatever was
    // evicted; reports match the unbounded baseline byte-for-byte.
    session.restore(&snap);
    baseline.restore(&base_snap);
    assert_eq!(session.views_published(), 1);
    let replayed = session.publish(v2.clone()).unwrap();
    let expected = baseline.publish(v2).unwrap();
    assert_eq!(
        serde_json::to_string(&replayed).unwrap(),
        serde_json::to_string(&expected).unwrap(),
        "restored session diverged after eviction"
    );
    // And the step-1 verdict is still reproducible from scratch.
    let re_audit = bounded
        .audit(&AuditRequest::new(
            session.secret().clone(),
            ViewSet::from_views(vec![session.published()[0].query.clone()]),
        ))
        .unwrap();
    assert_eq!(re_audit.secure, first.report.secure);
}
