//! Session ≡ stateless-engine equivalence.
//!
//! An [`AuditSession`] is an *optimization layer*: its cumulative verdicts
//! must be byte-identical to a fresh engine auditing the same published
//! prefix from scratch. These properties pin that down on randomly
//! generated view sequences, together with the snapshot/restore round-trip
//! and the correctness of cross-domain-size class-verdict reuse.

use proptest::prelude::*;
use qvsec::critical::critical_tuples;
use qvsec::engine::{AuditDepth, AuditEngine, AuditOptions, AuditRequest};
use qvsec::CompiledArtifacts;
use qvsec_cq::{parse_query, ConjunctiveQuery, ViewSet};
use qvsec_data::{Dictionary, Domain, Schema, TupleSpace};
use std::sync::Arc;

fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_relation("R", &["x", "y"]);
    s
}

/// Random view text over R/2 (same shape as the core crate's proptests).
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

fn prob_engine(schema: &Schema, domain: &Domain) -> AuditEngine {
    let space = TupleSpace::full(schema, domain).unwrap();
    AuditEngine::builder(schema.clone(), domain.clone())
        .dictionary(Dictionary::half(space))
        .default_depth(AuditDepth::Probabilistic)
        .build()
}

fn parse(text: &str, schema: &Schema, domain: &mut Domain) -> ConjunctiveQuery {
    parse_query(text, schema, domain).expect("generated query parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Each session step's cumulative report is byte-identical to a fresh
    // engine running `audit_batch` over the same prefix.
    #[test]
    fn session_verdicts_equal_fresh_engine_prefix_batches(
        view_texts in proptest::collection::vec(view_text(), 1..4)
    ) {
        let schema = schema();
        let mut domain = Domain::with_constants(["a", "b"]);
        let secret = parse("S(x0, x1) :- R(x0, x1)", &schema, &mut domain);
        let views: Vec<ConjunctiveQuery> = view_texts
            .iter()
            .map(|t| parse(t, &schema, &mut domain))
            .collect();

        let engine = Arc::new(prob_engine(&schema, &domain));
        let mut session = engine.open_session(secret.clone()).named("eq");
        let mut step_reports = Vec::new();
        for v in &views {
            step_reports.push(session.publish(v.clone()).unwrap());
        }

        let fresh = prob_engine(&schema, &domain);
        let requests: Vec<AuditRequest> = (0..views.len())
            .map(|k| AuditRequest {
                name: format!("eq#{}", k + 1),
                secret: secret.clone(),
                views: ViewSet::from_views(views[..=k].to_vec()),
                options: AuditOptions::default(),
            })
            .collect();
        let baseline = fresh.try_audit_batch(&requests).unwrap();
        for (k, (step, base)) in step_reports.iter().zip(&baseline).enumerate() {
            prop_assert_eq!(
                serde_json::to_string(&step.report).unwrap(),
                serde_json::to_string(base).unwrap(),
                "session step {} != stateless baseline for views {:?}",
                k + 1,
                view_texts
            );
        }
    }

    // snapshot() → mutate → restore() → snapshot() reproduces the captured
    // state exactly, and the replayed steps reach the same cumulative
    // verdicts.
    #[test]
    fn snapshot_restore_round_trips_and_replays_identically(
        prefix in proptest::collection::vec(view_text(), 1..3),
        speculative in proptest::collection::vec(view_text(), 1..3)
    ) {
        let schema = schema();
        let mut domain = Domain::with_constants(["a", "b"]);
        let secret = parse("S(x0, x1) :- R(x0, x1)", &schema, &mut domain);
        let prefix: Vec<ConjunctiveQuery> =
            prefix.iter().map(|t| parse(t, &schema, &mut domain)).collect();
        let speculative: Vec<ConjunctiveQuery> =
            speculative.iter().map(|t| parse(t, &schema, &mut domain)).collect();

        let engine = Arc::new(prob_engine(&schema, &domain));
        let mut session = engine.open_session(secret).named("spec");
        for v in &prefix {
            session.publish(v.clone()).unwrap();
        }
        let snap = session.snapshot();
        prop_assert_eq!(snap.views_published(), prefix.len());

        let mut speculative_reports = Vec::new();
        for v in &speculative {
            speculative_reports.push(session.publish(v.clone()).unwrap());
        }
        session.restore(&snap);
        prop_assert_eq!(
            serde_json::to_string(&session.snapshot()).unwrap(),
            serde_json::to_string(&snap).unwrap(),
            "restore must round-trip the snapshot"
        );

        // Replaying the speculative branch reproduces every step report
        // byte for byte (the engine's artifact caches are append-only, so
        // the replay is warm — but transparently so).
        for (v, earlier) in speculative.iter().zip(&speculative_reports) {
            let replay = session.publish(v.clone()).unwrap();
            prop_assert_eq!(
                serde_json::to_string(&replay).unwrap(),
                serde_json::to_string(earlier).unwrap()
            );
        }
    }

    // Cross-domain-size class-verdict reuse is transparent: a query's crit
    // set over a grown domain, derived from cached class verdicts, equals
    // the freshly computed set.
    #[test]
    fn class_verdict_reuse_is_transparent_across_domain_sizes(
        text in view_text(),
        extra in 1usize..4
    ) {
        let schema = schema();
        let mut domain = Domain::with_constants(["a", "b"]);
        let q = parse(&text, &schema, &mut domain);
        let artifacts = CompiledArtifacts::new();
        let small = artifacts.crit(&q, &domain, 100_000).unwrap();
        prop_assert_eq!(&*small, &critical_tuples(&q, &domain).unwrap());

        let mut grown = domain.clone();
        for i in 0..extra {
            grown.add(&format!("g{i}"));
        }
        let big = artifacts.crit(&q, &grown, 100_000).unwrap();
        prop_assert_eq!(
            &*big,
            &critical_tuples(&q, &grown).unwrap(),
            "class-verdict reuse changed the grown-domain crit set for {}",
            text
        );
    }
}
