//! Incremental view publication: the paper's §6 collusion scenario as a
//! long-lived, stateful API.
//!
//! A publisher has already released views `V₁ … Vₖ` and asks: *is it safe
//! to also publish `Vₖ₊₁`?* The stateless [`AuditEngine::audit`] answers
//! that question from scratch every time; an [`AuditSession`] instead
//! accumulates the published views and answers each marginal question over
//! the engine's warm [`CompiledArtifacts`](crate::artifacts::CompiledArtifacts):
//! the secret's critical set is decided once, every previously published
//! view's compilation and crit set is served from the memo, and the shared
//! Monte-Carlo pool persists across steps. A [`SessionReport`] is a pure
//! function of the secret, the published prefix and the engine's
//! configuration: cache reuse is read from the engine's counters
//! ([`AuditEngine::cache_stats`]), never from a report, so replaying a
//! script reproduces every report byte whatever else ran on the engine.
//!
//! Three kinds of question:
//!
//! * [`AuditSession::publish`] — audit the secret against everything
//!   published **plus** the new view, then commit the view;
//! * [`AuditSession::audit_candidate`] — the same audit *without*
//!   committing (what-if);
//! * [`AuditSession::snapshot`] / [`AuditSession::restore`] — save and
//!   rewind the published-prefix state for speculative exploration (the
//!   engine's artifact caches are append-only and survive a rewind — a
//!   replayed step is served warm).
//!
//! Cumulative session verdicts are **identical** to a fresh engine auditing
//! the same prefix: caches are transparent and the Monte-Carlo pool is
//! seed-deterministic (property-tested in `tests/session_equivalence.rs`).

use crate::engine::{AuditEngine, AuditOptions, AuditReport, AuditRequest};
use crate::Result;
use qvsec_cq::{ConjunctiveQuery, ViewSet};
use qvsec_data::Ratio;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One committed publication step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PublishedView {
    /// Recipient / publication label.
    pub name: String,
    /// The published view definition.
    pub query: ConjunctiveQuery,
}

/// How a step changed the session's disclosure posture relative to the
/// previously published prefix.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MarginalDisclosure {
    /// The definitive verdict before this step (`None` before any
    /// conclusive step).
    pub prev_secure: Option<bool>,
    /// Whether this step flipped the session from secure to insecure — the
    /// marginal violation the §6 collusion question asks about.
    pub newly_insecure: bool,
    /// `leak(S, V̄)` before this step (probabilistic depth only).
    pub prev_max_leak: Option<Ratio>,
    /// `leak(S, V̄)` including this step's view.
    pub max_leak: Option<Ratio>,
    /// `max_leak − prev_max_leak`: the leakage attributable to publishing
    /// this view on top of everything already public.
    pub marginal_leak: Option<Ratio>,
}

/// The result of one session step: the cumulative audit report plus the
/// step's marginal-disclosure metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionReport {
    /// The session's label.
    pub session: String,
    /// 1-based step number (for a candidate audit: the step it *would* be).
    pub step: usize,
    /// The audited view's label.
    pub view: String,
    /// `true` for [`AuditSession::publish`], `false` for
    /// [`AuditSession::audit_candidate`].
    pub committed: bool,
    /// Views published after this step (committed steps only).
    pub views_published: usize,
    /// The cumulative audit of the secret against the whole prefix
    /// including this view — estimator metadata included.
    pub report: AuditReport,
    /// How this step moved the disclosure posture.
    pub marginal: MarginalDisclosure,
}

impl SessionReport {
    /// A compact, human-readable rendering of the step.
    pub fn render(&self) -> String {
        let mut out = format!(
            "session {} step {} ({}{})\n",
            self.session,
            self.step,
            self.view,
            if self.committed { "" } else { ", what-if" }
        );
        out.push_str(&self.report.render());
        if self.marginal.newly_insecure {
            out.push_str("marginal              : this view broke security\n");
        }
        if let (Some(prev), Some(now)) = (self.marginal.prev_max_leak, self.marginal.max_leak) {
            out.push_str(&format!(
                "marginal leakage      : {} -> {} (+{})\n",
                prev,
                now,
                self.marginal.marginal_leak.unwrap_or(Ratio::ZERO)
            ));
        }
        out
    }
}

/// A frozen copy of a session's mutable state, for speculative exploration.
/// Restoring rewinds the published prefix; the engine's artifact caches are
/// append-only and unaffected.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSnapshot {
    published: Vec<PublishedView>,
    steps_taken: usize,
    prev_secure: Option<bool>,
    prev_max_leak: Option<Ratio>,
}

impl SessionSnapshot {
    /// Number of views published in the captured state.
    pub fn views_published(&self) -> usize {
        self.published.len()
    }
}

/// An owned, `Send + Sync` handle for incremental view publication over a
/// shared [`AuditEngine`]. See the [module docs](self).
///
/// ```
/// use qvsec::{AuditEngine};
/// use qvsec_cq::parse_query;
/// use qvsec_data::{Domain, Schema};
/// use std::sync::Arc;
///
/// let mut schema = Schema::new();
/// schema.add_relation("Employee", &["name", "department", "phone"]);
/// let mut domain = Domain::new();
/// let s = parse_query("S(n, p) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
/// let bob = parse_query("VBob(n, d) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
/// let carol = parse_query("VCarol(d, p) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
///
/// let engine = Arc::new(AuditEngine::builder(schema, domain).build());
/// let mut session = engine.open_session(s);
/// let first = session.publish(bob).unwrap();
/// assert_eq!(first.report.secure, Some(false));
/// // The second step reuses the secret's compiled artifacts:
/// let before = engine.cache_stats();
/// session.publish(carol).unwrap();
/// assert!(engine.cache_stats().delta_since(&before).crit_cache_hits > 0);
/// assert_eq!(session.views_published(), 2);
/// ```
#[derive(Debug)]
pub struct AuditSession {
    engine: Arc<AuditEngine>,
    name: String,
    secret: ConjunctiveQuery,
    options: AuditOptions,
    published: Vec<PublishedView>,
    steps_taken: usize,
    prev_secure: Option<bool>,
    prev_max_leak: Option<Ratio>,
}

// Sessions move between serving threads; read-only what-ifs may be shared.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AuditSession>();
};

impl AuditSession {
    /// Opens a session on `engine` for `secret` (the usual entry point is
    /// [`AuditEngine::open_session`]).
    pub fn new(engine: Arc<AuditEngine>, secret: ConjunctiveQuery, options: AuditOptions) -> Self {
        let name = format!("session:{}", secret.name);
        AuditSession {
            engine,
            name,
            secret,
            options,
            published: Vec::new(),
            steps_taken: 0,
            prev_secure: None,
            prev_max_leak: None,
        }
    }

    /// Overrides the session label used in reports.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The engine this session audits against.
    pub fn engine(&self) -> &Arc<AuditEngine> {
        &self.engine
    }

    /// The session's secret query.
    pub fn secret(&self) -> &ConjunctiveQuery {
        &self.secret
    }

    /// The committed publications, in order.
    pub fn published(&self) -> &[PublishedView] {
        &self.published
    }

    /// Number of committed publications.
    pub fn views_published(&self) -> usize {
        self.published.len()
    }

    /// The cumulative [`AuditRequest`] a step audits: the secret against
    /// every published view plus (optionally) one more.
    fn request_with(&self, extra: Option<&ConjunctiveQuery>) -> AuditRequest {
        let mut views: Vec<ConjunctiveQuery> =
            self.published.iter().map(|p| p.query.clone()).collect();
        if let Some(v) = extra {
            views.push(v.clone());
        }
        AuditRequest {
            name: format!(
                "{}#{}",
                self.name,
                self.published.len() + extra.is_some() as usize
            ),
            secret: self.secret.clone(),
            views: ViewSet::from_views(views),
            options: self.options.clone(),
        }
    }

    /// Audits the secret against the published prefix plus `view` and
    /// builds the step report, without mutating the session.
    fn step_report(
        &self,
        view_name: &str,
        view: &ConjunctiveQuery,
        committed: bool,
    ) -> Result<SessionReport> {
        let report = self.engine.audit(&self.request_with(Some(view)))?;
        let max_leak = report.leakage.as_ref().map(|l| l.max_leak);
        let marginal = MarginalDisclosure {
            prev_secure: self.prev_secure,
            newly_insecure: self.prev_secure != Some(false) && report.secure == Some(false),
            prev_max_leak: self.prev_max_leak,
            max_leak,
            marginal_leak: match (self.prev_max_leak, max_leak) {
                (Some(prev), Some(now)) => Some(now - prev),
                (None, Some(now)) => Some(now),
                _ => None,
            },
        };
        Ok(SessionReport {
            session: self.name.clone(),
            step: self.steps_taken + 1,
            view: view_name.to_string(),
            committed,
            views_published: self.published.len() + committed as usize,
            report,
            marginal,
        })
    }

    /// Publishes `view` (labelled after its query name): audits the secret
    /// against everything already published **plus** `view`, commits the
    /// view, and returns the step report.
    pub fn publish(&mut self, view: ConjunctiveQuery) -> Result<SessionReport> {
        let name = view.name.clone();
        self.publish_named(name, view)
    }

    /// [`AuditSession::publish`] with an explicit recipient/publication
    /// label.
    pub fn publish_named(
        &mut self,
        name: impl Into<String>,
        view: ConjunctiveQuery,
    ) -> Result<SessionReport> {
        let name = name.into();
        let report = self.step_report(&name, &view, true)?;
        self.published.push(PublishedView { name, query: view });
        self.steps_taken += 1;
        self.prev_secure = report.report.secure.or(self.prev_secure);
        if let Some(leak) = report.marginal.max_leak {
            self.prev_max_leak = Some(leak);
        }
        Ok(report)
    }

    /// What-if: the audit [`AuditSession::publish`] would run for `view`,
    /// without committing anything. Candidate audits still warm the
    /// engine's artifact caches, so a later `publish` of the same view is
    /// served almost entirely from memo.
    pub fn audit_candidate(&self, view: &ConjunctiveQuery) -> Result<SessionReport> {
        self.step_report(&view.name.clone(), view, false)
    }

    /// Re-audits the current prefix without adding a view (e.g. after a
    /// restore, to re-establish the cumulative verdict). Errors if nothing
    /// has been published yet.
    pub fn current_report(&self) -> Result<AuditReport> {
        self.engine.audit(&self.request_with(None))
    }

    /// Captures the session's mutable state for later [`AuditSession::restore`].
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            published: self.published.clone(),
            steps_taken: self.steps_taken,
            prev_secure: self.prev_secure,
            prev_max_leak: self.prev_max_leak,
        }
    }

    /// Rewinds the session to a previously captured snapshot. Engine-side
    /// artifact caches are untouched (they are append-only), so replaying
    /// the rewound steps is served warm.
    pub fn restore(&mut self, snapshot: &SessionSnapshot) {
        self.published = snapshot.published.clone();
        self.steps_taken = snapshot.steps_taken;
        self.prev_secure = snapshot.prev_secure;
        self.prev_max_leak = snapshot.prev_max_leak;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AuditDepth, CacheStatsSnapshot};
    use crate::report::DisclosureClass;
    use qvsec_cq::parse_query;
    use qvsec_data::{Dictionary, Domain, Schema};

    fn setup() -> (Schema, Domain) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        schema.add_relation("Employee", &["name", "department", "phone"]);
        (schema, Domain::with_constants(["a", "b"]))
    }

    fn prob_engine() -> (Arc<AuditEngine>, Vec<ConjunctiveQuery>, ConjunctiveQuery) {
        let (schema, mut domain) = setup();
        let s = parse_query("S(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v1 = parse_query("V1(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let v2 = parse_query("V2(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let space = qvsec_prob::lineage::support_space(&[&s, &v1, &v2], &domain, 100).unwrap();
        let dict = Dictionary::half(space);
        let engine = Arc::new(
            AuditEngine::builder(schema, domain)
                .dictionary(dict)
                .default_depth(AuditDepth::Probabilistic)
                .build(),
        );
        (engine, vec![v1, v2], s)
    }

    /// Runs `step` and returns its result with the engine's cache traffic
    /// while it ran (these tests are serial, so that is the step's own).
    fn with_cache_delta<T>(
        engine: &AuditEngine,
        step: impl FnOnce() -> T,
    ) -> (T, CacheStatsSnapshot) {
        let before = engine.cache_stats();
        let out = step();
        (out, engine.cache_stats().delta_since(&before))
    }

    #[test]
    fn publish_accumulates_views_and_reuses_artifacts() {
        let (engine, views, s) = prob_engine();
        let mut session = engine.open_session(s).named("demo");
        let (first, cache) =
            with_cache_delta(&engine, || session.publish(views[0].clone()).unwrap());
        assert_eq!(first.step, 1);
        assert!(first.committed);
        assert_eq!(first.views_published, 1);
        assert_eq!(cache.crit_cache_hits, 0, "cold start");
        assert!(cache.queries_compiled >= 2, "secret + view compiled");
        assert!(first.marginal.newly_insecure);

        let (second, cache) =
            with_cache_delta(&engine, || session.publish(views[1].clone()).unwrap());
        assert_eq!(second.step, 2);
        assert_eq!(second.views_published, 2);
        assert!(
            cache.crit_cache_hits > 0,
            "warm step reuses crit sets: {cache:?}"
        );
        assert!(
            cache.compile_cache_hits >= 2,
            "secret + first view compile from memo: {cache:?}"
        );
        assert!(!second.marginal.newly_insecure, "already insecure");
        assert!(second.marginal.marginal_leak.is_some());
        assert_eq!(session.views_published(), 2);
        assert!(second.render().contains("marginal leakage"));
    }

    #[test]
    fn session_reports_match_fresh_engine_audits() {
        let (engine, views, s) = prob_engine();
        let mut session = engine.open_session(s.clone()).named("eq");
        let mut session_reports = Vec::new();
        for v in &views {
            session_reports.push(session.publish(v.clone()).unwrap());
        }
        // A fresh engine over the same context, audited statelessly.
        let fresh = Arc::new(
            AuditEngine::builder(engine.schema().clone(), engine.domain().clone())
                .dictionary(engine.dictionary().unwrap().clone())
                .default_depth(AuditDepth::Probabilistic)
                .build(),
        );
        for (k, step) in session_reports.iter().enumerate() {
            let request = AuditRequest {
                name: format!("eq#{}", k + 1),
                secret: s.clone(),
                views: ViewSet::from_views(views[..=k].to_vec()),
                options: AuditOptions::default(),
            };
            let baseline = fresh.audit(&request).unwrap();
            assert_eq!(
                serde_json::to_string(&step.report).unwrap(),
                serde_json::to_string(&baseline).unwrap(),
                "step {} diverges from the stateless baseline",
                k + 1
            );
        }
    }

    #[test]
    fn audit_candidate_does_not_commit() {
        let (engine, views, s) = prob_engine();
        let mut session = engine.open_session(s).named("whatif");
        session.publish(views[0].clone()).unwrap();
        let what_if = session.audit_candidate(&views[1]).unwrap();
        assert!(!what_if.committed);
        assert_eq!(what_if.step, 2, "the step it would be");
        assert_eq!(session.views_published(), 1, "nothing committed");
        // Committing afterwards is served warm from the candidate's work:
        // the crit memo answers the criticality stage, and the kernel's
        // audit memo returns the candidate's whole verdict without even
        // touching the compile cache.
        let (committed, cache) =
            with_cache_delta(&engine, || session.publish(views[1].clone()).unwrap());
        assert!(cache.crit_cache_hits > 0);
        assert_eq!(cache.crit_cache_misses, 0, "served entirely from memo");
        assert!(cache.kernel_audit_hits > 0);
        assert_eq!(
            serde_json::to_string(&what_if.report).unwrap(),
            serde_json::to_string(&committed.report).unwrap(),
            "what-if and committed audits see the same cumulative prefix"
        );
    }

    #[test]
    fn snapshot_restore_round_trips_state() {
        let (engine, views, s) = prob_engine();
        let mut session = engine.open_session(s).named("spec");
        session.publish(views[0].clone()).unwrap();
        let snap = session.snapshot();
        assert_eq!(snap.views_published(), 1);

        session.publish(views[1].clone()).unwrap();
        assert_eq!(session.views_published(), 2);
        session.restore(&snap);
        assert_eq!(session.views_published(), 1);
        let replay = session.snapshot();
        assert_eq!(
            serde_json::to_string(&replay).unwrap(),
            serde_json::to_string(&snap).unwrap(),
            "snapshot → restore → snapshot round-trips"
        );
        // Replaying the rewound step is served warm and reaches the same
        // cumulative verdict.
        let (replayed, cache) =
            with_cache_delta(&engine, || session.publish(views[1].clone()).unwrap());
        assert!(cache.any_reuse());
        assert_eq!(replayed.report.secure, Some(false));
    }

    #[test]
    fn exact_depth_sessions_work_without_a_dictionary() {
        let (schema, mut domain) = setup();
        let s = parse_query("S(n, p) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
        let bob = parse_query("VBob(n, d) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
        let carol = parse_query("VCarol(d, p) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
        let engine = Arc::new(AuditEngine::builder(schema, domain).build());
        let mut session = engine.open_session(s);
        let first = session.publish_named("bob", bob).unwrap();
        assert_eq!(first.report.secure, Some(false));
        assert_eq!(first.report.class, DisclosureClass::Partial);
        assert!(first.marginal.max_leak.is_none(), "no dictionary, no leak");
        let (_, cache) =
            with_cache_delta(&engine, || session.publish_named("carol", carol).unwrap());
        assert!(cache.crit_cache_hits > 0);
        assert_eq!(session.published()[1].name, "carol");
        let cumulative = session.current_report().unwrap();
        assert_eq!(cumulative.secure, Some(false));
    }

    #[test]
    fn session_reports_serialize_round_trip() {
        let (engine, views, s) = prob_engine();
        let mut session = engine.open_session(s).named("serde");
        let report = session.publish(views[0].clone()).unwrap();
        let text = serde_json::to_string(&report).unwrap();
        let back: SessionReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.session, report.session);
        assert_eq!(back.step, report.step);
        assert_eq!(back.report.secure, report.report.secure);
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }
}
