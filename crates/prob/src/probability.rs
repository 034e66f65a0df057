//! Exact probabilities of query answers (Eqs. (1) and (2)).
//!
//! All functions in this module enumerate every instance of the dictionary's
//! tuple space (at most `2^24` by construction of
//! [`qvsec_data::bitset::MAX_ENUMERABLE`], and in practice far fewer because
//! the spaces are built from query supports). They are exact — probabilities
//! are [`Ratio`]s — and are the ground truth against which the symbolic
//! criteria (critical tuples, polynomials) are validated.

use qvsec_cq::eval::{evaluate, AnswerSet};
use qvsec_cq::{ConjunctiveQuery, ViewSet};
use qvsec_data::{Dictionary, Instance, Ratio, Result};
use std::collections::BTreeMap;

/// The probability of an arbitrary event (a predicate over instances) under
/// a dictionary: `Σ { P[I] : event(I) }`.
pub fn event_probability<F>(dict: &Dictionary, mut event: F) -> Result<Ratio>
where
    F: FnMut(&Instance) -> bool,
{
    let mut total = Ratio::ZERO;
    for (mask, instance) in dict.space().instances()? {
        if event(&instance) {
            total += dict.instance_probability_mask(mask);
        }
    }
    Ok(total)
}

/// The probability that a boolean query is true (Eq. (2) restricted to the
/// answer `true`).
pub fn boolean_probability(query: &ConjunctiveQuery, dict: &Dictionary) -> Result<Ratio> {
    event_probability(dict, |i| qvsec_cq::evaluate_boolean(query, i))
}

/// The conditional probability `P[event | given]`, or `None` if the
/// conditioning event has probability zero.
pub fn conditional_probability<F, G>(
    dict: &Dictionary,
    mut event: F,
    mut given: G,
) -> Result<Option<Ratio>>
where
    F: FnMut(&Instance) -> bool,
    G: FnMut(&Instance) -> bool,
{
    let mut joint = Ratio::ZERO;
    let mut cond = Ratio::ZERO;
    for (mask, instance) in dict.space().instances()? {
        if given(&instance) {
            let p = dict.instance_probability_mask(mask);
            cond += p;
            if event(&instance) {
                joint += p;
            }
        }
    }
    if cond.is_zero() {
        Ok(None)
    } else {
        Ok(Some(joint / cond))
    }
}

/// The exact distribution of a query's answer set: `P[S(I) = s]` for every
/// answer set `s` that occurs with positive probability (Eq. (2)).
pub fn answer_distribution(
    query: &ConjunctiveQuery,
    dict: &Dictionary,
) -> Result<BTreeMap<AnswerSet, Ratio>> {
    let mut dist: BTreeMap<AnswerSet, Ratio> = BTreeMap::new();
    for (mask, instance) in dict.space().instances()? {
        let p = dict.instance_probability_mask(mask);
        if p.is_zero() {
            continue;
        }
        let ans = evaluate(query, &instance);
        *dist.entry(ans).or_insert(Ratio::ZERO) += p;
    }
    Ok(dist)
}

/// The joint distribution of `(S(I), V̄(I))` over a dictionary, optionally
/// restricted to instances satisfying a prior-knowledge predicate `K`.
#[derive(Debug, Clone, Default)]
pub struct JointDistribution {
    entries: BTreeMap<(AnswerSet, Vec<AnswerSet>), Ratio>,
    /// The total probability mass covered (1 unless restricted by prior
    /// knowledge, in which case it is `P[K]`).
    pub total_mass: Ratio,
}

impl JointDistribution {
    /// Iterates over `((s, v̄), probability)` entries with positive mass.
    pub fn iter(&self) -> impl Iterator<Item = (&(AnswerSet, Vec<AnswerSet>), Ratio)> + '_ {
        self.entries.iter().map(|(k, &p)| (k, p))
    }

    /// The joint probability `P[S(I) = s ∧ V̄(I) = v̄ (∧ K)]`.
    pub fn joint(&self, s: &AnswerSet, v: &[AnswerSet]) -> Ratio {
        self.entries
            .get(&(s.clone(), v.to_vec()))
            .copied()
            .unwrap_or(Ratio::ZERO)
    }

    /// The marginal distribution of the secret query's answer.
    pub fn marginal_query(&self) -> BTreeMap<AnswerSet, Ratio> {
        let mut out: BTreeMap<AnswerSet, Ratio> = BTreeMap::new();
        for ((s, _), &p) in &self.entries {
            *out.entry(s.clone()).or_insert(Ratio::ZERO) += p;
        }
        out
    }

    /// The marginal distribution of the views' answers.
    pub fn marginal_views(&self) -> BTreeMap<Vec<AnswerSet>, Ratio> {
        let mut out: BTreeMap<Vec<AnswerSet>, Ratio> = BTreeMap::new();
        for ((_, v), &p) in &self.entries {
            *out.entry(v.clone()).or_insert(Ratio::ZERO) += p;
        }
        out
    }

    /// Number of distinct `(s, v̄)` outcomes with positive probability.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the distribution is empty (e.g. prior knowledge with
    /// probability zero).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Builds the joint distribution of `(S(I), V̄(I))` over the dictionary,
/// restricted to instances satisfying `prior` (pass `|_| true` for no prior
/// knowledge). Probabilities are *not* renormalised by `P[K]`; use
/// [`JointDistribution::total_mass`] to condition.
pub fn joint_distribution<F>(
    secret: &ConjunctiveQuery,
    views: &ViewSet,
    dict: &Dictionary,
    mut prior: F,
) -> Result<JointDistribution>
where
    F: FnMut(&Instance) -> bool,
{
    let mut out = JointDistribution::default();
    for (mask, instance) in dict.space().instances()? {
        if !prior(&instance) {
            continue;
        }
        let p = dict.instance_probability_mask(mask);
        if p.is_zero() {
            continue;
        }
        out.total_mass += p;
        let s_ans = evaluate(secret, &instance);
        let v_ans: Vec<AnswerSet> = views.iter().map(|v| evaluate(v, &instance)).collect();
        *out.entries.entry((s_ans, v_ans)).or_insert(Ratio::ZERO) += p;
    }
    Ok(out)
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
    fn example_4_2_prior_probability_is_3_16() {
        // P[S(I) = {(a)}] = 3/16 for S(y) :- R(x, y) over D={a,b}, p=1/2.
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let dist = answer_distribution(&s, &dict).unwrap();
        let a = domain.get("a").unwrap();
        let target: AnswerSet = [vec![a]].into_iter().collect();
        assert_eq!(dist.get(&target).copied(), Some(Ratio::new(3, 16)));
        // the distribution is a probability distribution
        let total: Ratio = dist.values().copied().sum();
        assert!(total.is_one());
    }

    #[test]
    fn example_4_2_posterior_probability_is_1_3() {
        // P[S(I) = {(a)} | V(I) = {(b)}] = 1/3 for V(x) :- R(x, y).
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let a = domain.get("a").unwrap();
        let b = domain.get("b").unwrap();
        let s_target: AnswerSet = [vec![a]].into_iter().collect();
        let v_target: AnswerSet = [vec![b]].into_iter().collect();
        let posterior = conditional_probability(
            &dict,
            |i| evaluate(&s, i) == s_target,
            |i| evaluate(&v, i) == v_target,
        )
        .unwrap()
        .unwrap();
        assert_eq!(posterior, Ratio::new(1, 3));
    }

    #[test]
    fn example_4_3_posterior_equals_prior() {
        // V(x) :- R(x, 'b'), S(y) :- R(y, 'a'): P[S={(a)}] = 1/4 with or
        // without V = {(b)}.
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(y) :- R(y, 'a')", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, 'b')", &schema, &mut domain).unwrap();
        let a = domain.get("a").unwrap();
        let b = domain.get("b").unwrap();
        let s_target: AnswerSet = [vec![a]].into_iter().collect();
        let v_target: AnswerSet = [vec![b]].into_iter().collect();
        let prior = event_probability(&dict, |i| evaluate(&s, i) == s_target).unwrap();
        assert_eq!(prior, Ratio::new(1, 4));
        let posterior = conditional_probability(
            &dict,
            |i| evaluate(&s, i) == s_target,
            |i| evaluate(&v, i) == v_target,
        )
        .unwrap()
        .unwrap();
        assert_eq!(posterior, Ratio::new(1, 4));
    }

    #[test]
    fn boolean_probability_of_single_tuple_assertion() {
        let (schema, mut domain, dict) = setup();
        let q = parse_query("Q() :- R('a', 'b')", &schema, &mut domain).unwrap();
        assert_eq!(boolean_probability(&q, &dict).unwrap(), Ratio::new(1, 2));
        let q2 = parse_query("Q2() :- R(x, y)", &schema, &mut domain).unwrap();
        // P[database non-empty] = 1 − (1/2)^4 = 15/16
        assert_eq!(boolean_probability(&q2, &dict).unwrap(), Ratio::new(15, 16));
    }

    #[test]
    fn conditioning_on_impossible_event_returns_none() {
        let (_, _, dict) = setup();
        let res = conditional_probability(&dict, |_| true, |_| false).unwrap();
        assert!(res.is_none());
    }

    #[test]
    fn joint_distribution_marginals_are_consistent() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let joint = joint_distribution(&s, &ViewSet::single(v), &dict, |_| true).unwrap();
        assert!(joint.total_mass.is_one());
        let total: Ratio = joint.iter().map(|(_, p)| p).sum();
        assert!(total.is_one());
        let mq: Ratio = joint.marginal_query().values().copied().sum();
        assert!(mq.is_one());
        let mv: Ratio = joint.marginal_views().values().copied().sum();
        assert!(mv.is_one());
        assert!(!joint.is_empty());
        assert!(joint.len() >= 4);
    }

    #[test]
    fn joint_distribution_with_prior_restricts_mass() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        // prior knowledge: the database is non-empty
        let joint = joint_distribution(&s, &ViewSet::single(v), &dict, |i| !i.is_empty()).unwrap();
        assert_eq!(joint.total_mass, Ratio::new(15, 16));
    }
}
