//! The Monte-Carlo path against the paper's definitions, evaluated on the
//! pooled worlds themselves.
//!
//! The kernel estimates Section 6.1 from per-answer bitmaps over its shared
//! `SamplePool`. This oracle recomputes it from scratch over the same
//! worlds: each pooled world becomes an [`Instance`], `S` and every view are
//! evaluated on it with [`evaluate`], and a Section 6.1 loop counts prior,
//! conditioning and joint worlds per `(s, v̄)` pair, keeping exactly the
//! pairs that pass [`significant_f64`] with the arguments the packed path
//! passes. A dependent pair's leakage must equal the oracle's; an
//! independent pair's is 0 with no entries. Determinacy is never `true`
//! where the pooled worlds refute it, and `false` wherever they do.

use super::{significant_f64, KernelConfig, KernelLeakEntry, KernelLeakage, ProbKernel};
use proptest::prelude::*;
use qvsec_cq::eval::{evaluate, Answer, AnswerSet};
use qvsec_cq::{parse_query, ConjunctiveQuery, ViewSet};
use qvsec_data::{Dictionary, Domain, Instance, Ratio, Schema, TupleSpace};
use std::collections::BTreeMap;
use std::sync::Arc;

type Outcome = (AnswerSet, Vec<AnswerSet>);

/// The Section 6.1 measure over the pooled worlds: every possible secret
/// answer against every combination of one possible answer per view
/// (earlier views varying slowest), keeping the positive increases that
/// pass the 3σ test.
fn leakage_oracle(
    outcomes: &[Outcome],
    space: &TupleSpace,
    s: &ConjunctiveQuery,
    views: &ViewSet,
) -> KernelLeakage {
    let n = outcomes.len() as i128;
    let n_f = n as f64;
    let saturated = Instance::from_tuples(space.iter().cloned());
    let possible =
        |q: &ConjunctiveQuery| -> Vec<Answer> { evaluate(q, &saturated).into_iter().collect() };
    let mut combos: Vec<Vec<Answer>> = vec![Vec::new()];
    for v in views.iter() {
        let answers = possible(v);
        combos = combos
            .iter()
            .flat_map(|c| {
                answers.iter().map(move |a| {
                    let mut next = c.clone();
                    next.push(a.clone());
                    next
                })
            })
            .collect();
    }
    let mut report = KernelLeakage::default();
    let mut positives: Vec<KernelLeakEntry> = Vec::new();
    for s_ans in possible(s) {
        let c_prior = outcomes.iter().filter(|o| o.0.contains(&s_ans)).count() as i128;
        if c_prior == 0 {
            continue;
        }
        let prior = Ratio::new(c_prior, n);
        for combo in &combos {
            report.pairs_checked += 1;
            let given: Vec<&Outcome> = outcomes
                .iter()
                .filter(|o| o.1.iter().zip(combo).all(|(set, a)| set.contains(a)))
                .collect();
            if given.is_empty() {
                continue;
            }
            let c_cond = given.len() as i128;
            let c_joint = given.iter().filter(|o| o.0.contains(&s_ans)).count() as i128;
            let posterior = Ratio::new(c_joint, c_cond);
            let relative = (posterior - prior) / prior;
            if relative > Ratio::ZERO
                && significant_f64(
                    prior.to_f64(),
                    posterior.to_f64(),
                    n_f,
                    (Ratio::new(c_cond, n).to_f64() * n_f).max(1.0),
                )
            {
                positives.push(KernelLeakEntry {
                    query_answer: s_ans.clone(),
                    view_answers: combo.clone(),
                    prior,
                    posterior,
                    relative_increase: relative,
                });
            }
        }
    }
    positives.sort_by_key(|e| std::cmp::Reverse(e.relative_increase));
    if let Some(top) = positives.first() {
        report.max_leak = top.relative_increase;
        report.witness = Some(top.clone());
    }
    report.positive_entries = positives;
    report
}

/// Runs the kernel's Monte-Carlo audit of `(s, views)` and checks it
/// against the oracle over the kernel's own pool: uncapped field for field,
/// and under report caps 0 and 3 on the verdicts and the head of each list.
fn assert_matches_oracle(
    dict: &Arc<Dictionary>,
    samples: usize,
    seed: u64,
    s: &ConjunctiveQuery,
    views: &ViewSet,
) {
    let kernel = |report_cap| {
        let config = KernelConfig {
            exact_cutover: 0,
            samples,
            seed,
            report_cap,
            ..KernelConfig::default()
        };
        ProbKernel::new(Arc::clone(dict), config)
    };
    let uncapped = kernel(None);
    let audit = uncapped.evaluate(s, views).unwrap();
    let pool = uncapped.shared_pool();
    let outcomes: Vec<Outcome> = pool
        .worlds()
        .iter()
        .map(|w| {
            let world = Instance::from_tuples(w.iter().cloned());
            let view_answers = views.iter().map(|v| evaluate(v, &world)).collect();
            (evaluate(s, &world), view_answers)
        })
        .collect();

    if audit.independence.independent {
        assert!(audit.leakage.max_leak.is_zero());
        assert!(audit.leakage.witness.is_none());
        assert!(audit.leakage.positive_entries.is_empty());
    } else {
        assert_eq!(
            audit.leakage,
            leakage_oracle(&outcomes, pool.space(), s, views)
        );
    }
    let mut secret_of: BTreeMap<&Vec<AnswerSet>, &AnswerSet> = BTreeMap::new();
    let sampled = outcomes
        .iter()
        .all(|(s_out, v_out)| *secret_of.entry(v_out).or_insert(s_out) == s_out);
    if !sampled {
        assert_eq!(audit.totally_disclosed, Some(false));
    }
    if audit.totally_disclosed == Some(true) {
        assert!(sampled);
    }

    let head = |list_len: usize, cap: usize| cap.min(list_len);
    for cap in [0, 3] {
        let capped = kernel(Some(cap)).evaluate(s, views).unwrap();
        assert_eq!(capped.independence, audit.independence);
        assert_eq!(capped.totally_disclosed, audit.totally_disclosed);
        let leak = &capped.leakage;
        assert_eq!(leak.max_leak, audit.leakage.max_leak);
        assert_eq!(leak.witness, audit.leakage.witness);
        assert_eq!(leak.pairs_checked, audit.leakage.pairs_checked);
        let listed = &audit.leakage.positive_entries;
        let kept = head(listed.len(), cap);
        assert_eq!(leak.positive_entries[..], listed[..kept]);
    }
}

/// Random conjunctive query text over R/2 (same shape as the kernel
/// proptests).
fn query_text() -> impl Strategy<Value = String> {
    let term = prop_oneof![
        3 => Just("x0".to_string()),
        3 => Just("x1".to_string()),
        2 => Just("x2".to_string()),
        2 => Just("'a'".to_string()),
        2 => Just("'b'".to_string()),
    ];
    let atom = (term.clone(), term).prop_map(|(a, b)| format!("R({a}, {b})"));
    (proptest::collection::vec(atom, 1..3), proptest::bool::ANY).prop_map(|(atoms, boolean)| {
        let body = atoms.join(", ");
        if boolean {
            return format!("Q() :- {body}");
        }
        let head_var = atoms[0]
            .trim_start_matches("R(")
            .trim_end_matches(')')
            .split(',')
            .map(|s| s.trim().to_string())
            .find(|t| t.starts_with('x'));
        match head_var {
            Some(v) => format!("Q({v}) :- {body}"),
            None => format!("Q() :- {body}"),
        }
    })
}

/// Audits `S` against `V1`, `(V1, V2)` and `(V1, V2, V3)` over the uniform
/// dictionary with tuple probability `p` on R/2 × `constants`.
fn check_one_to_three_views(
    (constants, p): (&[&str], Ratio),
    texts: [&str; 4],
    samples: usize,
    seed: u64,
) {
    let mut schema = Schema::new();
    schema.add_relation("R", &["x", "y"]);
    let mut domain = Domain::with_constants(constants.iter().copied());
    let [s, v1, v2, v3] =
        texts.map(|t| parse_query(t, &schema, &mut domain).expect("generated query parses"));
    let space = TupleSpace::full(&schema, &domain).unwrap();
    let dict = Arc::new(Dictionary::uniform(space, p).unwrap());
    let views = [v1, v2, v3];
    for k in 1..=views.len() {
        let prefix = ViewSet::from_views(views[..k].to_vec());
        assert_matches_oracle(&dict, samples, seed, &s, &prefix);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // A 2,048-world pool: the audit equals the definitions on its worlds.
    #[test]
    fn monte_carlo_audits_equal_the_empirical_definitions(
        s_text in query_text(),
        v1_text in query_text(),
        v2_text in query_text(),
        v3_text in query_text(),
        seed in 0u64..1024,
    ) {
        let texts = [&*s_text, &v1_text, &v2_text, &v3_text];
        check_one_to_three_views((&["a", "b"], Ratio::new(1, 2)), texts, 2048, seed);
    }

    // The 3σ significance edge: a tiny pool makes the sampled deviations
    // noisy, so many pairs land near the threshold — the packed path must
    // make the oracle's keep/suppress call on every one of them. Over three
    // constants at tuple probability 1/8 a tiny pool also leaves view combos
    // no world supports, so the leakage walk prunes whole subtrees (a third
    // of the three-view checks prune before a reported leak entry).
    #[test]
    fn tiny_pool_three_sigma_edge_cases_equal_the_empirical_definitions(
        s_text in query_text(),
        v1_text in query_text(),
        v2_text in query_text(),
        v3_text in query_text(),
        seed in 0u64..4096,
        samples in 32usize..256,
    ) {
        let texts = [&*s_text, &v1_text, &v2_text, &v3_text];
        check_one_to_three_views((&["a", "b", "c"], Ratio::new(1, 8)), texts, samples, seed);
    }
}
