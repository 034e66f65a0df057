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
use qvsec_serve::SessionRegistry;
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

/// A multi-tenant drive through one registry over a Monte-Carlo engine, so
/// every artifact kind is memoized: four tenants publish four views in
/// rotated orders, auditing each as a candidate first. Calls `after` with
/// the engine after every request and returns the report stream.
fn drive_tenants(budget: Option<usize>, mut after: impl FnMut(&AuditEngine)) -> Vec<String> {
    let schema = schema();
    let mut domain = Domain::with_constants(["a", "b", "c"]);
    let secret = parse("S(x0, x1) :- R(x0, x1)", &schema, &mut domain);
    let views: Vec<ConjunctiveQuery> = [
        "V1(x0) :- R(x0, x1)",
        "V2(x1) :- R(x0, x1)",
        "V3(x0) :- R(x0, 'a')",
        "V4() :- R('b', x1)",
    ]
    .iter()
    .map(|t| parse(t, &schema, &mut domain))
    .collect();
    let space = TupleSpace::full(&schema, &domain).unwrap();
    let mut builder = AuditEngine::builder(schema, domain)
        .dictionary(Dictionary::half(space))
        .default_depth(AuditDepth::Probabilistic)
        .exact_cutover(4)
        .mc_samples(256)
        .mc_seed(3);
    if let Some(total) = budget {
        builder = builder.cache_budget_bytes(total);
    }
    let engine = Arc::new(builder.build());
    let registry = SessionRegistry::new(Arc::clone(&engine));
    let mut reports = Vec::new();
    for tenant in 0..4 {
        let name = format!("tenant-{tenant}");
        registry.open(&name, &secret).unwrap();
        after(&engine);
        for k in 0..views.len() {
            let view = &views[(tenant + k) % views.len()];
            let candidate = registry.audit_candidate(&name, None, view).unwrap();
            after(&engine);
            let published = registry.publish(&name, None, None, view.clone()).unwrap();
            after(&engine);
            reports.push(serde_json::to_string(&candidate).unwrap());
            reports.push(serde_json::to_string(&published).unwrap());
        }
    }
    reports
}

#[test]
fn a_budget_bounds_residency_after_every_request_of_a_multi_tenant_drive() {
    // Below the drive's ~86 KiB working set, above any single artifact.
    const BUDGET: usize = 16 * 1024;
    let unbounded = drive_tenants(None, |_| {});
    let mut evictions = 0;
    let bounded = drive_tenants(Some(BUDGET), |engine| {
        let memo = engine.cache().stats().total();
        assert_eq!(memo.resident_bytes, engine.cache_stats().resident_bytes);
        assert!(
            memo.resident_bytes <= BUDGET as u64 || memo.entries == 1,
            "{} B resident in {} entries under a {BUDGET} B budget",
            memo.resident_bytes,
            memo.entries
        );
        evictions = memo.evictions;
    });
    assert!(evictions > 0, "the budget must be tight enough to evict");
    assert_eq!(bounded, unbounded);
}

#[test]
fn a_budget_that_holds_the_working_set_evicts_nothing() {
    let mut working_set = 0;
    let unbounded = drive_tenants(None, |engine| {
        working_set = working_set.max(engine.cache_stats().resident_bytes);
    });
    let mut last = None;
    let bounded = drive_tenants(Some(working_set as usize), |engine| {
        last = Some(engine.cache_stats());
    });
    let stats = last.unwrap();
    assert_eq!(stats.evictions, 0, "{stats:?}");
    assert_eq!(stats.resident_bytes, working_set);
    assert_eq!(bounded, unbounded);
}
