//! # qvsec — query-view security
//!
//! A from-scratch implementation of Miklau & Suciu, *A Formal Analysis of
//! Information Disclosure in Data Exchange* (SIGMOD 2004; JCSS 2007).
//!
//! Alice wants to publish views `V1, ..., Vk` over her database while keeping
//! the answer to a query `S` secret from an adversary who knows the view
//! definitions, the published answers, the domain and the tuple-probability
//! dictionary. The paper's standard — *query-view security* — asks that the
//! views reveal **nothing** about `S`: `P[S(I) = s] = P[S(I) = s | V̄(I) = v̄]`
//! for every possible pair of answers (Definition 4.1, a database analogue of
//! Shannon's perfect secrecy).
//!
//! The public entry point is the owned, `Send + Sync` [`AuditEngine`]: it is
//! built once from a schema, a domain and (optionally) a dictionary, and
//! serves audits — one [`AuditRequest`] in, one machine-readable
//! [`AuditReport`] out — sequentially or in parallel batches. Evaluation is
//! **staged**: every audit runs the cheap §4.2 pairwise-unification check
//! first and escalates to the exact Theorem 4.5 criterion and the
//! dictionary-level checks only as far as the request's [`AuditDepth`]
//! allows, with critical-tuple sets memoized across requests under
//! canonicalized query keys.
//!
//! The underlying procedures mirror the paper's sections:
//!
//! | Module | Paper | Contents |
//! |---|---|---|
//! | [`engine`] | — | the owned `AuditEngine`: staged audits, `crit(Q)` memo cache, parallel batches, serde reports |
//! | [`critical`] | §4.2, Def. 4.4, App. A | the parallel, pruned `crit_D(Q)` kernel: interned candidates, fine-instance decision, symmetry collapse, pruning counters |
//! | [`critical_bruteforce`] | Def. 4.4 | literal, exhaustive reference implementation |
//! | [`security`] | Thm 4.5, Thm 4.8, Prop. 4.9 | the dictionary-independent security criterion `crit(S) ∩ crit(V̄) = ∅` |
//! | [`mod@fast_check`] | §4.2 | the "practical algorithm": pairwise subgoal unification |
//! | [`report`] | §1.1, Table 1 | Total/Partial/Minute/None classification |
//! | [`prior`] | §5.1–5.3 | security under prior knowledge: Theorem 5.2, keys (Cor. 5.3), cardinality, protective disclosure (Cor. 5.4), prior views (Cor. 5.5) |
//! | [`encrypted`] | §5.4 | attribute-wise encrypted views |
//! | [`leakage`] | §6.1 | the `leak(S, V̄)` measure and the Theorem 6.1 bound |
//! | [`practical`] | §6.2 | asymptotic (expected-constant-size) model: exponents of `μ_n[Q]`, practical security |
//! | [`cnf`], [`hardness`] | Thm 4.10, App. A | ∀∃3-CNF formulas and the reduction to tuple non-criticality |
//!
//! ## Quick example
//!
//! ```
//! use qvsec_data::{Domain, Schema};
//! use qvsec_cq::{parse_query, ViewSet};
//! use qvsec::{AuditEngine, AuditRequest};
//!
//! let mut schema = Schema::new();
//! schema.add_relation("Employee", &["name", "department", "phone"]);
//! let mut domain = Domain::new();
//!
//! // Table 1, rows (4) and (1): a secure pair and a totally-disclosing one.
//! let v4 = parse_query("V4(n) :- Employee(n, 'Mgmt', p)", &schema, &mut domain).unwrap();
//! let s4 = parse_query("S4(n) :- Employee(n, 'HR', p)", &schema, &mut domain).unwrap();
//! let v1 = parse_query("V1(n, d) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
//! let s1 = parse_query("S1(d) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
//!
//! // One owned engine serves both audits (and could serve them from
//! // different threads); verdicts come back as serializable reports.
//! let engine = AuditEngine::builder(schema, domain).build();
//! let reports = engine.try_audit_batch(&[
//!     AuditRequest::new(s4, ViewSet::single(v4)),
//!     AuditRequest::new(s1, ViewSet::single(v1)),
//! ]).unwrap();
//! assert_eq!(reports[0].secure, Some(true));
//! assert_eq!(reports[1].secure, Some(false));
//! assert!(serde_json::to_string(&reports).unwrap().contains("NoDisclosure"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod answerability;
pub mod artifacts;
pub mod cnf;
pub mod critical;
pub mod critical_bruteforce;
pub mod encrypted;
pub mod engine;
pub mod error;
pub mod fast_check;
pub mod hardness;
pub mod leakage;
pub mod practical;
pub mod prior;
pub mod report;
pub mod security;
pub mod session;

pub use answerability::{answerable_as_projection, answerable_from_views, determined_by};
pub use artifacts::CompiledArtifacts;
pub use critical::{critical_tuples, is_critical, CritStats, CritStatsSnapshot};
pub use engine::{
    AuditDepth, AuditEngine, AuditEngineBuilder, AuditOptions, AuditReport, AuditRequest,
    CacheStatsSnapshot,
};
pub use error::QvsError;
pub use fast_check::{fast_check, FastVerdict};
pub use leakage::{leakage_exact, LeakageReport};
pub use report::DisclosureClass;
pub use security::{secure_for_all_distributions, SecurityVerdict};
pub use session::{AuditSession, MarginalDisclosure, SessionReport, SessionSnapshot};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, QvsError>;
