//! Multi-party collusion auditing (the first data-exchange scenario of the
//! introduction).
//!
//! Alice publishes view `V_i` to party `i`. Which coalitions of parties can,
//! by pooling their views, learn something about the secret `S`? Because
//! query-view security is closed under collusion (Theorem 4.5: `S | V̄` iff
//! `S | V_i` for every `i`), a coalition violates the secret iff at least one
//! of its members' views does individually — and the audit below reports
//! both the per-view verdicts and the resulting minimal unsafe coalitions.

use qvsec::engine::{AuditDepth, AuditEngine, AuditRequest};
use qvsec::security::SecurityVerdict;
use qvsec::session::SessionReport;
use qvsec::Result;
use qvsec_cq::{ConjunctiveQuery, ViewSet};
use qvsec_data::{Domain, Schema};
use std::sync::Arc;

/// The audit result for one named recipient/coalition.
#[derive(Debug, Clone)]
pub struct CoalitionReport {
    /// Names of the recipients in the coalition.
    pub members: Vec<String>,
    /// The security verdict for the union of their views.
    pub verdict: SecurityVerdict,
}

/// Audits every non-empty coalition of recipients. `views` associates a
/// recipient name with the view published to them. Coalitions are returned
/// in increasing size order.
pub fn collusion_audit(
    secret: &ConjunctiveQuery,
    views: &[(String, ConjunctiveQuery)],
    schema: &Schema,
    domain: &Domain,
) -> Result<Vec<CoalitionReport>> {
    let n = views.len();
    assert!(n <= 16, "collusion audit enumerates 2^n coalitions");
    // One engine across all 2^n coalitions: every view's critical-tuple set
    // is computed once and served from the engine's memo cache for each of
    // the 2^(n-1) coalitions it participates in.
    let engine = AuditEngine::builder(schema.clone(), domain.clone()).build();
    let requests: Vec<(Vec<String>, AuditRequest)> = (1u32..(1u32 << n))
        .map(|mask| {
            let members: Vec<String> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| views[i].0.clone())
                .collect();
            let coalition_views = ViewSet::from_views(
                (0..n)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| views[i].1.clone())
                    .collect(),
            );
            let request = AuditRequest::new(secret.clone(), coalition_views)
                .named(members.join("+"))
                .with_depth(AuditDepth::Exact);
            (members, request)
        })
        .collect();
    let audit_requests: Vec<AuditRequest> = requests.iter().map(|(_, r)| r.clone()).collect();
    let audited = engine.try_audit_batch(&audit_requests)?;
    let mut reports: Vec<CoalitionReport> = requests
        .into_iter()
        .zip(audited)
        .map(|((members, _), report)| CoalitionReport {
            members,
            verdict: report
                .security
                .expect("Exact-depth reports carry a security verdict"),
        })
        .collect();
    reports.sort_by_key(|r| r.members.len());
    Ok(reports)
}

/// The §6 collusion scenario as an incremental publication session: the
/// publisher releases the named views **one at a time**, asking before each
/// whether it is safe to *also* publish it given everything already out.
///
/// Returns one [`SessionReport`] per publication, in order. Step `k`'s
/// cumulative verdict equals the [`collusion_audit`] verdict of the
/// coalition `{views[0..=k]}` (Theorem 4.5 closure under collusion), and
/// every step after the first is served warm from the engine's compiled
/// artifacts.
pub fn session_publication_audit(
    secret: &ConjunctiveQuery,
    views: &[(String, ConjunctiveQuery)],
    schema: &Schema,
    domain: &Domain,
) -> Result<Vec<SessionReport>> {
    let engine = Arc::new(AuditEngine::builder(schema.clone(), domain.clone()).build());
    let mut session = engine
        .open_session(secret.clone())
        .named(format!("collusion:{}", secret.name));
    let mut reports = Vec::with_capacity(views.len());
    for (who, view) in views {
        reports.push(session.publish_named(who.clone(), view.clone())?);
    }
    Ok(reports)
}

/// The serving-layer collusion scenario: `tenants` independent publishers
/// release the same view sequence through one shared
/// [`qvsec_serve::SessionRegistry`] — the multi-tenant shape of the §6
/// question ("is it safe for *this* tenant to also publish V?"), where
/// every tenant is its own adversary coalition accumulating views.
///
/// All tenants share one engine, so tenant `k`'s steps are served from the
/// artifacts tenants `< k` compiled; per-tenant verdicts are nevertheless
/// **identical** to a dedicated single-tenant session (asserted by the
/// tests here and measured by `bench_serve`). Returns each tenant's
/// reports in publication order, tenants sorted by id.
pub fn multi_tenant_publication_audit(
    secret: &ConjunctiveQuery,
    views: &[(String, ConjunctiveQuery)],
    schema: &Schema,
    domain: &Domain,
    tenants: usize,
) -> Result<Vec<(String, Vec<SessionReport>)>> {
    let engine = Arc::new(AuditEngine::builder(schema.clone(), domain.clone()).build());
    let registry = qvsec_serve::SessionRegistry::new(engine);
    let mut out = Vec::with_capacity(tenants);
    for t in 0..tenants {
        let tenant = format!("tenant-{t:03}");
        let mut reports = Vec::with_capacity(views.len());
        for (who, view) in views {
            reports.push(
                registry
                    .publish(&tenant, Some(secret), Some(who.clone()), view.clone())
                    .expect("workload publications audit cleanly"),
            );
        }
        out.push((tenant, reports));
    }
    Ok(out)
}

/// The minimal unsafe coalitions: unsafe coalitions none of whose proper
/// subsets are unsafe.
pub fn minimal_unsafe_coalitions(reports: &[CoalitionReport]) -> Vec<&CoalitionReport> {
    let unsafe_sets: Vec<&CoalitionReport> = reports.iter().filter(|r| !r.verdict.secure).collect();
    unsafe_sets
        .iter()
        .filter(|r| {
            !unsafe_sets.iter().any(|other| {
                other.members.len() < r.members.len()
                    && other.members.iter().all(|m| r.members.contains(m))
            })
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemas::employee_schema;
    use qvsec_cq::parse_query;

    #[test]
    fn collusion_audit_of_the_introduction_scenario() {
        // Bob gets (name, department), Carol gets (department, phone), Dana
        // gets the management-only name list. Secret: (name, phone).
        let schema = employee_schema();
        let mut domain = Domain::new();
        let secret = parse_query("S(n, p) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
        let views = vec![
            (
                "bob".to_string(),
                parse_query("VBob(n, d) :- Employee(n, d, p)", &schema, &mut domain).unwrap(),
            ),
            (
                "carol".to_string(),
                parse_query("VCarol(d, p) :- Employee(n, d, p)", &schema, &mut domain).unwrap(),
            ),
            (
                "dana".to_string(),
                parse_query("VDana(n) :- Employee(n, 'Mgmt', p)", &schema, &mut domain).unwrap(),
            ),
        ];
        let reports = collusion_audit(&secret, &views, &schema, &domain).unwrap();
        assert_eq!(reports.len(), 7, "all non-empty coalitions are audited");
        // every coalition containing bob or carol is unsafe; dana alone...
        // note: even VDana(n) overlaps the secret on management employees'
        // names, so it is individually unsafe under perfect secrecy.
        for r in &reports {
            let expected_unsafe = r
                .members
                .iter()
                .any(|m| m == "bob" || m == "carol" || m == "dana");
            assert_eq!(
                !r.verdict.secure, expected_unsafe,
                "coalition {:?}",
                r.members
            );
        }
        let minimal = minimal_unsafe_coalitions(&reports);
        assert!(minimal.iter().all(|r| r.members.len() == 1));
    }

    #[test]
    fn session_steps_agree_with_coalition_audits() {
        let schema = employee_schema();
        let mut domain = Domain::new();
        let secret = parse_query("S(n, p) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
        let views = vec![
            (
                "bob".to_string(),
                parse_query("VBob(n, d) :- Employee(n, d, p)", &schema, &mut domain).unwrap(),
            ),
            (
                "carol".to_string(),
                parse_query("VCarol(d, p) :- Employee(n, d, p)", &schema, &mut domain).unwrap(),
            ),
            (
                "dana".to_string(),
                parse_query("VDana(n) :- Employee(n, 'Mgmt', p)", &schema, &mut domain).unwrap(),
            ),
        ];
        let steps = session_publication_audit(&secret, &views, &schema, &domain).unwrap();
        assert_eq!(steps.len(), 3);
        let coalitions = collusion_audit(&secret, &views, &schema, &domain).unwrap();
        for (k, step) in steps.iter().enumerate() {
            let members: Vec<String> = views[..=k].iter().map(|(w, _)| w.clone()).collect();
            let coalition = coalitions
                .iter()
                .find(|r| r.members == members)
                .expect("prefix coalition audited");
            assert_eq!(
                step.report.secure,
                Some(coalition.verdict.secure),
                "session step {} disagrees with the {:?} coalition",
                k + 1,
                members
            );
        }
    }

    #[test]
    fn multi_tenant_reports_match_dedicated_sessions() {
        let schema = employee_schema();
        let mut domain = Domain::new();
        let secret = parse_query("S(n, p) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
        let views = vec![
            (
                "bob".to_string(),
                parse_query("VBob(n, d) :- Employee(n, d, p)", &schema, &mut domain).unwrap(),
            ),
            (
                "carol".to_string(),
                parse_query("VCarol(d, p) :- Employee(n, d, p)", &schema, &mut domain).unwrap(),
            ),
        ];
        let tenants = multi_tenant_publication_audit(&secret, &views, &schema, &domain, 3).unwrap();
        assert_eq!(tenants.len(), 3);
        let dedicated = session_publication_audit(&secret, &views, &schema, &domain).unwrap();
        // Reports differ only in the session label baked into `name`.
        let unlabelled = |report: &qvsec::AuditReport| {
            let value = serde_json::to_value(report).unwrap();
            let serde_json::Value::Object(entries) = value else {
                panic!("reports serialize to objects")
            };
            let kept: Vec<_> = entries.into_iter().filter(|(k, _)| k != "name").collect();
            serde_json::to_string(&serde_json::Value::Object(kept)).unwrap()
        };
        for (tenant, reports) in &tenants {
            assert_eq!(reports.len(), views.len());
            for (step, expected) in reports.iter().zip(&dedicated) {
                assert_eq!(
                    unlabelled(&step.report),
                    unlabelled(&expected.report),
                    "{tenant} step {} diverged from a dedicated session",
                    step.step
                );
            }
        }
    }

    #[test]
    fn secure_views_produce_no_unsafe_coalitions() {
        let schema = employee_schema();
        let mut domain = Domain::new();
        let secret = parse_query("S(n) :- Employee(n, 'HR', p)", &schema, &mut domain).unwrap();
        let views = vec![
            (
                "mgmt".to_string(),
                parse_query("V1(n) :- Employee(n, 'Mgmt', p)", &schema, &mut domain).unwrap(),
            ),
            (
                "sales".to_string(),
                parse_query("V2(n) :- Employee(n, 'Sales', p)", &schema, &mut domain).unwrap(),
            ),
        ];
        let reports = collusion_audit(&secret, &views, &schema, &domain).unwrap();
        assert!(reports.iter().all(|r| r.verdict.secure));
        assert!(minimal_unsafe_coalitions(&reports).is_empty());
    }

    #[test]
    fn collusion_closure_property_holds() {
        // Theorem 4.5: a coalition is unsafe iff some member is unsafe.
        let schema = employee_schema();
        let mut domain = Domain::new();
        let secret = parse_query("S(n, p) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
        let views = vec![
            (
                "safe".to_string(),
                parse_query(
                    "V1(n) :- Employee(n, 'Mgmt', x), x != x",
                    &schema,
                    &mut domain,
                )
                .unwrap(),
            ),
            (
                "unsafe".to_string(),
                parse_query("V2(n, p) :- Employee(n, d, p)", &schema, &mut domain).unwrap(),
            ),
        ];
        let reports = collusion_audit(&secret, &views, &schema, &domain).unwrap();
        for r in &reports {
            let member_unsafe = r.members.iter().any(|m| m == "unsafe");
            assert_eq!(!r.verdict.secure, member_unsafe);
        }
    }
}
