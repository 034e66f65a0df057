//! The literal Definition 4.1 / Definition 5.1 independence test.
//!
//! A query `S` is secure w.r.t. views `V̄` under a dictionary `P` iff for all
//! possible answers `s` and `v̄`:
//!
//! ```text
//! P[S(I) = s] = P[S(I) = s | V̄(I) = v̄]          (Definition 4.1)
//! P[S(I) = s | K] = P[S(I) = s | V̄(I) = v̄ ∧ K]   (Definition 5.1)
//! ```
//!
//! This module decides these conditions *exactly* by enumerating the joint
//! distribution over a small tuple space. It is exponential and only usable
//! on the reduced supports of small examples — which is exactly its role:
//! it is the ground truth against which the polynomial-time-ish criteria of
//! Theorem 4.5 (critical-tuple disjointness) are cross-validated, and it
//! produces the concrete numbers of the paper's worked examples.

use crate::probability::{joint_distribution, JointDistribution};
use qvsec_cq::eval::AnswerSet;
use qvsec_cq::{ConjunctiveQuery, ViewSet};
use qvsec_data::{Dictionary, Instance, Ratio, Result};
use serde::{Deserialize, Serialize};

/// One violation of the independence condition: an answer pair whose
/// posterior differs from its prior.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// The secret query answer `s`.
    pub query_answer: AnswerSet,
    /// The view answers `v̄`.
    pub view_answers: Vec<AnswerSet>,
    /// `P[S(I) = s (| K)]`.
    pub prior: Ratio,
    /// `P[S(I) = s | V̄(I) = v̄ (∧ K)]`.
    pub posterior: Ratio,
}

impl Violation {
    /// The absolute probability change caused by observing the views.
    pub fn absolute_change(&self) -> Ratio {
        (self.posterior - self.prior).abs()
    }

    /// The relative increase `(posterior − prior) / prior` (the quantity
    /// whose supremum is the leakage measure of Section 6.1), when the prior
    /// is non-zero.
    pub fn relative_increase(&self) -> Option<Ratio> {
        if self.prior.is_zero() {
            None
        } else {
            Some((self.posterior - self.prior) / self.prior)
        }
    }
}

/// The outcome of an exhaustive independence check.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IndependenceReport {
    /// Whether `S` and `V̄` are statistically independent (i.e. `S |_P V̄`).
    pub independent: bool,
    /// Every violating answer pair, sorted by decreasing absolute change.
    pub violations: Vec<Violation>,
    /// Number of `(s, v̄)` answer pairs examined.
    pub pairs_checked: usize,
}

impl IndependenceReport {
    /// The most severe violation (largest absolute probability change).
    pub fn worst_violation(&self) -> Option<&Violation> {
        self.violations.first()
    }
}

/// The Definition 4.1 pair walk over a joint distribution: every `(s, v̄)`
/// pair with `P[V̄(I) = v̄] > 0` is checked, and the violating pairs are
/// reported sorted by decreasing absolute change (stable over the
/// `BTreeMap` emission order). The pair walk records borrowed keys plus
/// ratios; the (heap-heavy) answer sets are cloned only once the violation
/// list is final.
pub(crate) fn analyse(joint: &JointDistribution) -> IndependenceReport {
    let mass = joint.total_mass;
    let marginal_q = joint.marginal_query();
    let marginal_v = joint.marginal_views();
    // Group the joint entries by secret answer once, so the Θ(|S| · |V̄|)
    // pair walk below looks masses up by reference — `joint.joint(s, v)`
    // would clone both (heap-heavy) keys per pair, which dominated
    // many-answer workloads.
    let mut by_secret: std::collections::BTreeMap<
        &AnswerSet,
        std::collections::BTreeMap<&Vec<AnswerSet>, Ratio>,
    > = std::collections::BTreeMap::new();
    for (key, p) in joint.iter() {
        by_secret.entry(&key.0).or_default().insert(&key.1, p);
    }
    let mut violating: Vec<(&AnswerSet, &Vec<AnswerSet>, Ratio, Ratio)> = Vec::new();
    let mut pairs = 0usize;
    for (s_ans, &p_s) in &marginal_q {
        let prior = p_s / mass;
        let row = by_secret.get(s_ans);
        for (v_ans, &p_v) in &marginal_v {
            if p_v.is_zero() {
                continue;
            }
            pairs += 1;
            let p_joint = row
                .and_then(|r| r.get(v_ans))
                .copied()
                .unwrap_or(Ratio::ZERO);
            let posterior = p_joint / p_v;
            if posterior != prior {
                violating.push((s_ans, v_ans, prior, posterior));
            }
        }
    }
    let independent = violating.is_empty();
    violating
        .sort_by_key(|(_, _, prior, posterior)| std::cmp::Reverse((*posterior - *prior).abs()));
    let violations = violating
        .iter()
        .map(|(s_ans, v_ans, prior, posterior)| Violation {
            query_answer: (*s_ans).clone(),
            view_answers: (*v_ans).clone(),
            prior: *prior,
            posterior: *posterior,
        })
        .collect();
    IndependenceReport {
        independent,
        violations,
        pairs_checked: pairs,
    }
}

/// Checks Definition 4.1 exactly: is `S` statistically independent of `V̄`
/// under `dict`?
pub fn check_independence(
    secret: &ConjunctiveQuery,
    views: &ViewSet,
    dict: &Dictionary,
) -> Result<IndependenceReport> {
    let joint = joint_distribution(secret, views, dict, |_| true)?;
    Ok(analyse(&joint))
}

/// Checks Definition 5.1 exactly: is `S` independent of `V̄` *given* the
/// prior knowledge predicate `K`? Instances violating `K` are discarded and
/// all probabilities are conditioned on `K`.
///
/// If `K` has probability zero the report is trivially independent (there is
/// nothing to learn from an impossible world).
pub fn check_independence_given<F>(
    secret: &ConjunctiveQuery,
    views: &ViewSet,
    dict: &Dictionary,
    prior: F,
) -> Result<IndependenceReport>
where
    F: FnMut(&Instance) -> bool,
{
    let joint = joint_distribution(secret, views, dict, prior)?;
    if joint.total_mass.is_zero() {
        return Ok(IndependenceReport {
            independent: true,
            violations: Vec::new(),
            pairs_checked: 0,
        });
    }
    Ok(analyse(&joint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvsec_cq::parse_query;
    use qvsec_data::{Domain, Schema, TupleSpace};

    fn setup() -> (Schema, Domain, Dictionary) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let domain = Domain::with_constants(["a", "b"]);
        let space = TupleSpace::full(&schema, &domain).unwrap();
        let dict = Dictionary::half(space);
        (schema, domain, dict)
    }

    #[test]
    fn example_4_2_is_not_independent() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let report = check_independence(&s, &ViewSet::single(v), &dict).unwrap();
        assert!(!report.independent);
        assert!(!report.violations.is_empty());
        // the specific violation of Example 4.2: prior 3/16 vs posterior 1/3
        let a = domain.get("a").unwrap();
        let b = domain.get("b").unwrap();
        let s_target: AnswerSet = [vec![a]].into_iter().collect();
        let v_target: AnswerSet = [vec![b]].into_iter().collect();
        let hit = report
            .violations
            .iter()
            .find(|viol| {
                viol.query_answer == s_target && viol.view_answers == vec![v_target.clone()]
            })
            .expect("the Example 4.2 pair must violate independence");
        assert_eq!(hit.prior, Ratio::new(3, 16));
        assert_eq!(hit.posterior, Ratio::new(1, 3));
        assert!(hit.relative_increase().unwrap() > Ratio::ZERO);
    }

    #[test]
    fn example_4_3_is_independent() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(y) :- R(y, 'a')", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, 'b')", &schema, &mut domain).unwrap();
        let report = check_independence(&s, &ViewSet::single(v), &dict).unwrap();
        assert!(report.independent, "Example 4.3 must be secure");
        assert!(report.worst_violation().is_none());
        assert!(report.pairs_checked > 0);
    }

    #[test]
    fn independence_is_symmetric() {
        // Section 4.1.1: S | V iff V | S (Bayes). Check on both examples.
        let (schema, mut domain, dict) = setup();
        for (s_text, v_text) in [
            ("S(y) :- R(x, y)", "V(x) :- R(x, y)"),
            ("S(y) :- R(y, 'a')", "V(x) :- R(x, 'b')"),
        ] {
            let s = parse_query(s_text, &schema, &mut domain).unwrap();
            let v = parse_query(v_text, &schema, &mut domain).unwrap();
            let fwd = check_independence(&s, &ViewSet::single(v.clone()), &dict).unwrap();
            let bwd = check_independence(&v, &ViewSet::single(s), &dict).unwrap();
            assert_eq!(fwd.independent, bwd.independent);
        }
    }

    #[test]
    fn section_2_1_boolean_disclosure() {
        // S() :- R('a','b') vs V() :- R('a', p), R(n, 'b'): V true makes S
        // substantially more likely (the Jane/Shipping example shape).
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S() :- R('a', 'b')", &schema, &mut domain).unwrap();
        let v = parse_query("V() :- R('a', p), R(n, 'b')", &schema, &mut domain).unwrap();
        let report = check_independence(&s, &ViewSet::single(v), &dict).unwrap();
        assert!(!report.independent);
        let worst = report.worst_violation().unwrap();
        assert!(worst.absolute_change() > Ratio::ZERO);
    }

    #[test]
    fn prior_knowledge_of_the_critical_tuple_restores_independence() {
        // Corollary 5.4 instance: S() :- R('a', _), V() :- R(_, 'b') share the
        // critical tuple R(a,b); disclosing whether R(a,b) ∈ I restores
        // security. Here K = "R(a,b) ∉ I".
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S() :- R('a', x)", &schema, &mut domain).unwrap();
        let v = parse_query("V() :- R(x, 'b')", &schema, &mut domain).unwrap();
        let t_ab = qvsec_data::Tuple::from_names(&schema, &domain, "R", &["a", "b"]).unwrap();
        let insecure = check_independence(&s, &ViewSet::single(v.clone()), &dict).unwrap();
        assert!(!insecure.independent);
        let secure_given_absent =
            check_independence_given(&s, &ViewSet::single(v.clone()), &dict, |i| {
                !i.contains(&t_ab)
            })
            .unwrap();
        assert!(secure_given_absent.independent);
        let secure_given_present =
            check_independence_given(&s, &ViewSet::single(v), &dict, |i| i.contains(&t_ab))
                .unwrap();
        assert!(secure_given_present.independent);
    }

    #[test]
    fn impossible_prior_knowledge_is_trivially_independent() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let report = check_independence_given(&s, &ViewSet::single(v), &dict, |_| false).unwrap();
        assert!(report.independent);
        assert_eq!(report.pairs_checked, 0);
    }

    #[test]
    fn multi_view_collusion_detects_dependence() {
        // Bob's and Carol's projections (Table 1, row 2) jointly leak about
        // the name-phone association: with the pair query S(x, y) :- R(x, y)
        // and the two unary projections, independence fails.
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v1 = parse_query("V1(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let v2 = parse_query("V2(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let views = ViewSet::from_views(vec![v1, v2]);
        let report = check_independence(&s, &views, &dict).unwrap();
        assert!(!report.independent);
    }
}
