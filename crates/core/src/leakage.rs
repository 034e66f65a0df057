//! Measuring partial disclosures: the `leak(S, V̄)` measure of Section 6.1.
//!
//! Perfect query-view security is an exacting standard; most practical
//! query/view pairs fail it while disclosing only a negligible amount of
//! information (Table 1, rows 2 and 3). Section 6.1 quantifies the
//! *positive* disclosure as
//!
//! ```text
//! leak(S, V̄) = sup_{s, v̄}  ( P[s ⊆ S(I) | v̄ ⊆ V̄(I)] − P[s ⊆ S(I)] ) / P[s ⊆ S(I)]
//! ```
//!
//! and Theorem 6.1 bounds it by `ε² / (1 − ε²)` where `ε` bounds the
//! conditional probability that some *common critical tuple* of the frozen
//! events is present. This module computes:
//!
//! * the exact leakage over a dictionary, with `s` and `v̄` ranging over the
//!   single-answer atomic events used by the paper's Examples 6.2/6.3
//!   ([`leakage_exact`]),
//! * the `ε` of Theorem 6.1 for specific or worst-case answer pairs and the
//!   induced bound ([`epsilon_for`], [`theorem_6_1_bound`]), and
//! * Monte-Carlo estimates for dictionaries too large to enumerate
//!   ([`leakage_estimate`]).

use crate::critical::critical_tuples;
use crate::{QvsError, Result};
use qvsec_cq::eval::{evaluate, Answer};
use qvsec_cq::{ConjunctiveQuery, Term, ViewSet};
use qvsec_data::{Dictionary, Domain, Instance, Ratio, Tuple, Value};
use qvsec_prob::kernel::{answer_flags, CompiledQuery, SamplePool};
use qvsec_prob::probability::event_probability;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One `(s, v̄)` pair together with its prior, posterior and relative
/// increase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeakEntry {
    /// The secret answer tuple `s`.
    pub query_answer: Answer,
    /// One answer tuple per view (`v̄`).
    pub view_answers: Vec<Answer>,
    /// `P[s ⊆ S(I)]`.
    pub prior: Ratio,
    /// `P[s ⊆ S(I) | v̄ ⊆ V̄(I)]`.
    pub posterior: Ratio,
    /// `(posterior − prior) / prior`.
    pub relative_increase: Ratio,
}

/// The result of an exact leakage computation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LeakageReport {
    /// `leak(S, V̄)`: the supremum of the relative increase over all examined
    /// answer pairs (zero when the query is perfectly secure).
    pub max_leak: Ratio,
    /// The pair attaining the supremum.
    pub witness: Option<LeakEntry>,
    /// Every pair with a strictly positive relative increase, sorted by
    /// decreasing increase.
    pub positive_entries: Vec<LeakEntry>,
    /// Number of `(s, v̄)` pairs examined.
    pub pairs_checked: usize,
}

impl LeakageReport {
    /// `leak(S, V̄)` as an `f64` for display.
    pub fn max_leak_f64(&self) -> f64 {
        self.max_leak.to_f64()
    }
}

impl From<qvsec_prob::kernel::KernelLeakEntry> for LeakEntry {
    fn from(e: qvsec_prob::kernel::KernelLeakEntry) -> Self {
        LeakEntry {
            query_answer: e.query_answer,
            view_answers: e.view_answers,
            prior: e.prior,
            posterior: e.posterior,
            relative_increase: e.relative_increase,
        }
    }
}

impl From<qvsec_prob::kernel::KernelLeakage> for LeakageReport {
    /// Adopts a kernel leakage verdict. On the kernel's exact path the
    /// result is identical to [`leakage_exact`] (same pairs, same order,
    /// same exact rationals); on the Monte-Carlo path the entries are
    /// sample-count estimates filtered for significance.
    fn from(k: qvsec_prob::kernel::KernelLeakage) -> Self {
        LeakageReport {
            max_leak: k.max_leak,
            witness: k.witness.map(LeakEntry::from),
            positive_entries: k
                .positive_entries
                .into_iter()
                .map(LeakEntry::from)
                .collect(),
            pairs_checked: k.pairs_checked,
        }
    }
}

/// Freezes a query's head to a specific answer, producing the boolean query
/// `S_s(I) ≡ (s ∈ S(I))` used throughout Section 6.1. Returns `None` if a
/// constant in the head contradicts the requested answer.
pub fn bind_head(query: &ConjunctiveQuery, answer: &[Value]) -> Option<ConjunctiveQuery> {
    if answer.len() != query.head.len() {
        return None;
    }
    let mut bound = query.clone();
    bound.name = format!("{}_bound", query.name);
    // map head variables to answer values; verify constants agree
    let mut mapping: Vec<Option<Value>> = vec![None; query.num_vars()];
    for (term, &value) in query.head.iter().zip(answer.iter()) {
        match term {
            Term::Const(c) => {
                if *c != value {
                    return None;
                }
            }
            Term::Var(v) => match mapping[v.index()] {
                Some(existing) if existing != value => return None,
                _ => mapping[v.index()] = Some(value),
            },
        }
    }
    let substitute = |t: &Term| -> Term {
        match t {
            Term::Var(v) => match mapping[v.index()] {
                Some(val) => Term::Const(val),
                None => *t,
            },
            Term::Const(_) => *t,
        }
    };
    for atom in &mut bound.atoms {
        for t in &mut atom.terms {
            *t = substitute(t);
        }
    }
    for cmp in &mut bound.comparisons {
        cmp.lhs = substitute(&cmp.lhs);
        cmp.rhs = substitute(&cmp.rhs);
    }
    bound.head.clear();
    Some(bound)
}

/// The answers of a query that occur on at least one instance of the
/// dictionary's tuple space (i.e. have positive inclusion probability under
/// a non-degenerate dictionary).
pub fn possible_answers(query: &ConjunctiveQuery, dict: &Dictionary) -> Result<BTreeSet<Answer>> {
    let saturated = Instance::from_tuples(dict.space().iter().cloned());
    Ok(evaluate(query, &saturated).into_iter().collect())
}

fn cartesian(per_view: &[Vec<Answer>]) -> Vec<Vec<Answer>> {
    let mut combos: Vec<Vec<Answer>> = vec![Vec::new()];
    for answers in per_view {
        let mut next = Vec::new();
        for combo in &combos {
            for a in answers {
                let mut c = combo.clone();
                c.push(a.clone());
                next.push(c);
            }
        }
        combos = next;
    }
    combos
}

/// Computes the exact leakage `leak(S, V̄)` over a dictionary, with `s`
/// ranging over the possible single answers of `S` and `v̄` over one possible
/// answer per view (the atomic monotone events of Section 6.1).
pub fn leakage_exact(
    secret: &ConjunctiveQuery,
    views: &ViewSet,
    dict: &Dictionary,
) -> Result<LeakageReport> {
    let s_answers = possible_answers(secret, dict)?;
    let per_view: Vec<Vec<Answer>> = views
        .iter()
        .map(|v| possible_answers(v, dict).map(|s| s.into_iter().collect::<Vec<_>>()))
        .collect::<Result<_>>()?;
    let combos = cartesian(&per_view);

    let mut report = LeakageReport::default();
    for s_ans in &s_answers {
        let prior = event_probability(dict, |i| evaluate(secret, i).contains(s_ans))?;
        if prior.is_zero() {
            continue;
        }
        for combo in &combos {
            report.pairs_checked += 1;
            let cond = event_probability(dict, |i| {
                views
                    .iter()
                    .zip(combo.iter())
                    .all(|(v, ans)| evaluate(v, i).contains(ans))
            })?;
            if cond.is_zero() {
                continue;
            }
            let joint = event_probability(dict, |i| {
                evaluate(secret, i).contains(s_ans)
                    && views
                        .iter()
                        .zip(combo.iter())
                        .all(|(v, ans)| evaluate(v, i).contains(ans))
            })?;
            let posterior = joint / cond;
            let relative = (posterior - prior) / prior;
            let entry = LeakEntry {
                query_answer: s_ans.clone(),
                view_answers: combo.clone(),
                prior,
                posterior,
                relative_increase: relative,
            };
            if relative > report.max_leak {
                report.max_leak = relative;
                report.witness = Some(entry.clone());
            }
            if relative > Ratio::ZERO {
                report.positive_entries.push(entry);
            }
        }
    }
    report
        .positive_entries
        .sort_by_key(|e| std::cmp::Reverse(e.relative_increase));
    Ok(report)
}

/// Computes the `ε` of Theorem 6.1 for one specific answer pair:
/// `ε = P[L(I) | S_s(I) ∧ V_v̄(I)]` where `L(I)` says that some common
/// critical tuple of the frozen events is present in `I`. Returns `None`
/// when the conditioning event has probability zero or an answer cannot be
/// frozen.
pub fn epsilon_for(
    secret: &ConjunctiveQuery,
    views: &ViewSet,
    dict: &Dictionary,
    domain: &Domain,
    query_answer: &[Value],
    view_answers: &[Answer],
) -> Result<Option<Ratio>> {
    let Some(s_bound) = bind_head(secret, query_answer) else {
        return Ok(None);
    };
    let mut v_bound = Vec::new();
    for (v, ans) in views.iter().zip(view_answers.iter()) {
        match bind_head(v, ans) {
            Some(b) => v_bound.push(b),
            None => return Ok(None),
        }
    }
    // T_{s,v̄} = crit(S_s) ∩ crit(V_v̄)
    let crit_s = critical_tuples(&s_bound, domain)?;
    let mut crit_v: BTreeSet<Tuple> = BTreeSet::new();
    for vb in &v_bound {
        crit_v.extend(critical_tuples(vb, domain)?);
    }
    let common: Vec<Tuple> = crit_s.intersection(&crit_v).cloned().collect();
    let in_common = |i: &Instance| common.iter().any(|t| i.contains(t));
    let both_true = |i: &Instance| {
        qvsec_cq::evaluate_boolean(&s_bound, i)
            && v_bound.iter().all(|vb| qvsec_cq::evaluate_boolean(vb, i))
    };
    let cond = event_probability(dict, both_true)?;
    if cond.is_zero() {
        return Ok(None);
    }
    let joint = event_probability(dict, |i| in_common(i) && both_true(i))?;
    Ok(Some(joint / cond))
}

/// The Theorem 6.1 bound `ε² / (1 − ε²)`; `None` when `ε ≥ 1` (the bound is
/// vacuous).
pub fn theorem_6_1_bound(epsilon: Ratio) -> Option<Ratio> {
    if epsilon >= Ratio::ONE {
        return None;
    }
    let sq = epsilon * epsilon;
    Some(sq / (Ratio::ONE - sq))
}

/// Estimates the relative increase `(P[s ⊆ S | v̄ ⊆ V̄] − P[s ⊆ S]) /
/// P[s ⊆ S]` for a *specific* answer pair by Monte-Carlo sampling (for
/// dictionaries too large for [`leakage_exact`]). Prior and posterior are
/// counted over one seeded [`SamplePool`] of `samples` worlds, so a fixed
/// seed yields one answer. `None` when no pooled world has `s ⊆ S(I)` or
/// `v̄ ⊆ V̄(I)`.
pub fn leakage_estimate(
    secret: &ConjunctiveQuery,
    views: &ViewSet,
    dict: &Dictionary,
    query_answer: &[Value],
    view_answers: &[Answer],
    samples: usize,
    seed: u64,
) -> Option<f64> {
    let space = Arc::new(dict.space().clone());
    let pool = SamplePool::generate(dict, Arc::clone(&space), samples, seed);
    let flags = |q: &ConjunctiveQuery, answer: &[Value]| {
        answer_flags(&pool, &CompiledQuery::compile(q, &space), Some(answer))
    };
    let s_in = flags(secret, query_answer);
    let mut v_in = vec![true; pool.len()];
    for (v, answer) in views.iter().zip(view_answers) {
        for (all, now) in v_in.iter_mut().zip(flags(v, answer)) {
            *all &= now;
        }
    }
    let s_hits = s_in.iter().filter(|&&b| b).count();
    let v_hits = v_in.iter().filter(|&&b| b).count();
    if s_hits == 0 || v_hits == 0 {
        return None;
    }
    let joint_hits = s_in.iter().zip(&v_in).filter(|(s, v)| **s && **v).count();
    let prior = s_hits as f64 / pool.len() as f64;
    let posterior = joint_hits as f64 / v_hits as f64;
    Some((posterior - prior) / prior)
}

/// Guard helper: exact leakage is only meaningful over enumerable spaces.
pub fn ensure_enumerable(dict: &Dictionary) -> Result<()> {
    if dict.len() > qvsec_data::bitset::MAX_ENUMERABLE {
        return Err(QvsError::Data(qvsec_data::DataError::EnumerationTooLarge(
            dict.len(),
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvsec_cq::parse_query;
    use qvsec_data::{Schema, TupleSpace};

    fn setup() -> (Schema, Domain, Dictionary) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let domain = Domain::with_constants(["a", "b"]);
        let space = TupleSpace::full(&schema, &domain).unwrap();
        (schema, domain, Dictionary::half(space))
    }

    #[test]
    fn bind_head_freezes_head_variables() {
        let (schema, mut domain, _) = setup();
        let s = parse_query("S(x, y) :- R(x, y), R(y, x)", &schema, &mut domain).unwrap();
        let a = domain.get("a").unwrap();
        let b = domain.get("b").unwrap();
        let bound = bind_head(&s, &[a, b]).unwrap();
        assert!(bound.is_boolean());
        assert!(bound.atoms.iter().all(|at| at.is_ground()));
        // a head constant that conflicts with the requested answer yields None
        let s2 = parse_query("S2(x, 'a') :- R(x, 'a')", &schema, &mut domain).unwrap();
        assert!(bind_head(&s2, &[b, b]).is_none());
        assert!(bind_head(&s2, &[b, a]).is_some());
        // arity mismatch
        assert!(bind_head(&s, &[a]).is_none());
        // conflicting repetition: head (x, x) with two different values
        let s3 = parse_query("S3(x, x) :- R(x, x)", &schema, &mut domain).unwrap();
        assert!(bind_head(&s3, &[a, b]).is_none());
        assert!(bind_head(&s3, &[a, a]).is_some());
    }

    #[test]
    fn secure_pairs_have_zero_leakage() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(y) :- R(y, 'a')", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, 'b')", &schema, &mut domain).unwrap();
        let report = leakage_exact(&s, &ViewSet::single(v), &dict).unwrap();
        assert!(report.max_leak.is_zero());
        assert!(report.witness.is_none());
        assert!(report.positive_entries.is_empty());
        assert!(report.pairs_checked > 0);
    }

    #[test]
    fn insecure_pairs_have_positive_leakage() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let report = leakage_exact(&s, &ViewSet::single(v), &dict).unwrap();
        assert!(report.max_leak > Ratio::ZERO);
        let witness = report.witness.as_ref().unwrap();
        assert!(witness.posterior > witness.prior);
    }

    #[test]
    fn collusion_increases_leakage() {
        // Example 6.3: publishing both projections leaks more about the
        // name-phone association than publishing only one.
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v_left = parse_query("V1(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let v_right = parse_query("V2(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let single = leakage_exact(&s, &ViewSet::single(v_left.clone()), &dict).unwrap();
        let colluded =
            leakage_exact(&s, &ViewSet::from_views(vec![v_left, v_right]), &dict).unwrap();
        assert!(
            colluded.max_leak >= single.max_leak,
            "collusion must not decrease leakage: {} vs {}",
            colluded.max_leak,
            single.max_leak
        );
        assert!(colluded.max_leak > Ratio::ZERO);
    }

    #[test]
    fn epsilon_and_theorem_6_1_bound() {
        // Example 6.2 shape over Emp(n, d, p) with D = {a, b}: the secret is
        // the name-phone association, the view publishes departments;
        // ε = P[L | S_s ∧ V_v] with L = "the single common critical tuple
        // Emp(a, a, b) is present" is strictly between 0 and 1.
        let mut schema = Schema::new();
        schema.add_relation("Emp", &["n", "d", "p"]);
        let mut domain = Domain::with_constants(["a", "b"]);
        let s = parse_query("S(n, p) :- Emp(n, d, p)", &schema, &mut domain).unwrap();
        let v = parse_query("V(d) :- Emp(n, d, p)", &schema, &mut domain).unwrap();
        let space = TupleSpace::full(&schema, &domain).unwrap();
        let dict = Dictionary::half(space);
        let a = domain.get("a").unwrap();
        let b = domain.get("b").unwrap();
        let eps = epsilon_for(
            &s,
            &ViewSet::single(v.clone()),
            &dict,
            &domain,
            &[a, b],
            &[vec![a]],
        )
        .unwrap()
        .expect("conditioning event has positive probability");
        assert!(eps > Ratio::ZERO && eps < Ratio::ONE, "ε = {eps}");
        let bound = theorem_6_1_bound(eps).unwrap();
        assert!(bound > Ratio::ZERO);
        // Example 6.3: conditioning on the more specific view V'(n, d) raises ε
        // (the view now names the secret's subject), signalling more leakage.
        let v_nd = parse_query("Vnd(n, d) :- Emp(n, d, p)", &schema, &mut domain).unwrap();
        let eps_nd = epsilon_for(
            &s,
            &ViewSet::single(v_nd),
            &dict,
            &domain,
            &[a, b],
            &[vec![a, a]],
        )
        .unwrap()
        .unwrap();
        assert!(
            eps_nd >= eps,
            "ε must not decrease for the more revealing view: {eps_nd} vs {eps}"
        );
        // the bound formula itself
        assert_eq!(
            theorem_6_1_bound(Ratio::new(1, 2)).unwrap(),
            Ratio::new(1, 3)
        );
        assert!(theorem_6_1_bound(Ratio::ONE).is_none());
    }

    #[test]
    fn monte_carlo_leakage_estimate_is_finite_for_insecure_pairs() {
        let (schema, mut domain, dict) = setup();
        let s = parse_query("S(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let a = domain.get("a").unwrap();
        let b = domain.get("b").unwrap();
        let views = ViewSet::single(v);
        let estimate =
            |samples| leakage_estimate(&s, &views, &dict, &[a, b], &[vec![a]], samples, 7);
        // Exact: prior P[R(a,b)] = 1/2, posterior given R(a,a) ∨ R(a,b) is
        // 2/3, so the relative increase is 1/3.
        let est = estimate(4000).unwrap();
        assert!((est - 1.0 / 3.0).abs() < 0.1, "estimate {est}");
        assert_eq!(estimate(4000), Some(est), "one seed, one pool, one answer");
        assert_eq!(estimate(0), None, "no worlds, no estimate");
    }

    #[test]
    fn enumerability_guard() {
        let (_, _, dict) = setup();
        assert!(ensure_enumerable(&dict).is_ok());
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let big = Domain::with_size(6);
        let space = TupleSpace::full_with_cap(&schema, &big, 100).unwrap();
        let big_dict = Dictionary::half(space);
        assert!(ensure_enumerable(&big_dict).is_err());
    }
}
