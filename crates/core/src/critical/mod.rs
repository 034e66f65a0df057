//! Critical tuples (Definition 4.4) — the criterion-based decision procedure.
//!
//! A tuple `t ∈ tup(D)` is *critical* for a query `Q` if there exists an
//! instance `I` with `Q(I − {t}) ≠ Q(I)`. Critical tuples are the bridge
//! between probability and logic: Theorem 4.5 shows that `S` is secure with
//! respect to `V̄` for **every** tuple-independent distribution iff
//! `crit_D(S) ∩ crit_D(V̄) = ∅`.
//!
//! Deciding criticality is Πᵖ₂-complete in the size of the query
//! (Theorem 4.10), so any exact procedure is exponential in the worst case.
//! The procedure implemented here follows the structure of the Appendix A
//! proof rather than enumerating all instances:
//!
//! 1. Only *minimal* instances (images `h(Q)` of the query itself) and among
//!    those only *fine* instances need to be considered (Proposition A.1).
//!    A fine instance is determined by the set `G` of subgoals mapped onto
//!    `t`: the variables of `G` are bound by unifying `G` with `t`, every
//!    other variable is frozen to a distinct fresh constant.
//! 2. `t` is critical iff for some non-empty, simultaneously unifiable `G`
//!    there is **no** homomorphism from `Q` into `I_G − {t}` that reproduces
//!    the head answer `h_G(head)`.
//!
//! The search is exponential only in the number of subgoals that unify with
//! `t` (usually one or two), not in the domain or instance size.
//!
//! ### The kernel
//!
//! The module is organised as a pipeline (one submodule per stage):
//!
//! | stage | submodule | job |
//! |---|---|---|
//! | enumerate | `candidates` | interned candidate space, subgoal-shape dedup, exact cap accounting |
//! | decide | `decide` | the fine-instance procedure with a unification prefilter, comparison-constraint propagation and duplicate-subgoal dedup |
//! | schedule | `kernel` | symmetry collapse (pattern classes) + `rayon`-parallel filtering with a deterministic merge |
//! | account | `stats` | [`CritStats`] pruning counters feeding `BENCH_crit.json` |
//!
//! Every pruning layer is a pure optimization: verdicts are cross-validated
//! against the literal Definition 4.4 oracle in
//! [`crate::critical_bruteforce`] and against the preserved sequential
//! baseline [`critical_tuples_seq`] by unit and property tests.
//!
//! ### Comparison predicates
//!
//! Equality and disequality comparisons are handled exactly. Order
//! predicates (`<`, `<=`) are honoured under the canonical placement of fresh
//! constants (fresh constants are pairwise distinct and larger than all
//! existing constants); this placement is sufficient for the query classes
//! used in the paper, and the brute-force procedure in
//! [`crate::critical_bruteforce`] remains the reference oracle for small
//! domains (the two are cross-checked by property tests). Symmetry collapse
//! is disabled whenever a query uses order predicates.

mod candidates;
mod decide;
mod kernel;
mod stats;

pub use candidates::{candidate_space, critical_candidates, DEFAULT_CANDIDATE_CAP};
pub use decide::{is_critical, is_critical_traced};
pub use kernel::{
    common_critical_tuples, common_critical_tuples_traced, critical_tuples, critical_tuples_seq,
    critical_tuples_shared, critical_tuples_traced, critical_tuples_with_cap, ClassVerdictCache,
};
pub use stats::{CritStats, CritStatsSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QvsError;
    use qvsec_cq::{parse_query, ViewSet};
    use qvsec_data::{Domain, Schema, Tuple};
    use std::collections::BTreeSet;

    fn setup() -> (Schema, Domain) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        schema.add_relation("T", &["a", "b", "c", "d", "e"]);
        schema.add_relation("Employee", &["name", "department", "phone"]);
        (schema, Domain::with_constants(["a", "b"]))
    }

    fn t(schema: &Schema, domain: &Domain, rel: &str, vals: &[&str]) -> Tuple {
        Tuple::from_names(schema, domain, rel, vals).unwrap()
    }

    #[test]
    fn every_tuple_is_critical_for_full_projection_views() {
        // Example 4.6: for V(x) :- R(x, y) and S(y) :- R(x, y) every tuple of
        // tup(D) is critical.
        let (schema, mut domain) = setup();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        for rel_tuple in [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")] {
            let tuple = t(&schema, &domain, "R", &[rel_tuple.0, rel_tuple.1]);
            assert!(is_critical(&v, &tuple, &domain), "{tuple} critical for V");
            assert!(is_critical(&s, &tuple, &domain), "{tuple} critical for S");
        }
        assert_eq!(critical_tuples(&v, &domain).unwrap().len(), 4);
    }

    #[test]
    fn example_4_7_critical_sets_are_disjoint() {
        // V(x) :- R(x, 'b'): crit = {R(a,b), R(b,b)};
        // S(y) :- R(y, 'a'): crit = {R(a,a), R(b,a)}.
        let (schema, mut domain) = setup();
        let v = parse_query("V(x) :- R(x, 'b')", &schema, &mut domain).unwrap();
        let s = parse_query("S(y) :- R(y, 'a')", &schema, &mut domain).unwrap();
        let crit_v = critical_tuples(&v, &domain).unwrap();
        let crit_s = critical_tuples(&s, &domain).unwrap();
        let expected_v: BTreeSet<Tuple> = [
            t(&schema, &domain, "R", &["a", "b"]),
            t(&schema, &domain, "R", &["b", "b"]),
        ]
        .into_iter()
        .collect();
        let expected_s: BTreeSet<Tuple> = [
            t(&schema, &domain, "R", &["a", "a"]),
            t(&schema, &domain, "R", &["b", "a"]),
        ]
        .into_iter()
        .collect();
        assert_eq!(crit_v, expected_v);
        assert_eq!(crit_s, expected_s);
        assert!(crit_v.is_disjoint(&crit_s));
        let common = common_critical_tuples(&s, &ViewSet::single(v), &domain, 1000).unwrap();
        assert!(common.is_empty());
    }

    #[test]
    fn section_4_2_example_tuple_is_not_critical() {
        // Q() :- T(x,y,z,z,u), T(x,x,x,y,y) and t = T(a,a,b,b,c): the paper
        // shows t is a homomorphic image of the first subgoal yet NOT
        // critical, because any instance mapping the first subgoal to t
        // forces T(a,a,a,a,a) to be present, which also satisfies the query.
        let (schema, mut domain) = setup();
        domain.add("c");
        let q = parse_query(
            "Q() :- T(x, y, z, z, u), T(x, x, x, y, y)",
            &schema,
            &mut domain,
        )
        .unwrap();
        let tuple = t(&schema, &domain, "T", &["a", "a", "b", "b", "c"]);
        assert!(!is_critical(&q, &tuple, &domain));
        // whereas the collapsed tuple T(a,a,a,a,a) IS critical
        let diag = t(&schema, &domain, "T", &["a", "a", "a", "a", "a"]);
        assert!(is_critical(&q, &diag, &domain));
    }

    #[test]
    fn simple_boolean_query_criticality() {
        // Q() :- R('a', x): every tuple R(a, v) is critical, tuples R(b, v)
        // are not (they are not even candidates).
        let (schema, mut domain) = setup();
        let q = parse_query("Q() :- R('a', x)", &schema, &mut domain).unwrap();
        assert!(is_critical(
            &q,
            &t(&schema, &domain, "R", &["a", "a"]),
            &domain
        ));
        assert!(is_critical(
            &q,
            &t(&schema, &domain, "R", &["a", "b"]),
            &domain
        ));
        assert!(!is_critical(
            &q,
            &t(&schema, &domain, "R", &["b", "a"]),
            &domain
        ));
        let crit = critical_tuples(&q, &domain).unwrap();
        assert_eq!(crit.len(), 2);
    }

    #[test]
    fn selection_views_have_disjoint_critical_sets_across_departments() {
        // Table 1 row (4): V4(n) :- Employee(n,'Mgmt',p) vs
        // S4(n) :- Employee(n,'HR',p).
        let (schema, mut domain) = setup();
        let v = parse_query("V4(n) :- Employee(n, 'Mgmt', p)", &schema, &mut domain).unwrap();
        let s = parse_query("S4(n) :- Employee(n, 'HR', p)", &schema, &mut domain).unwrap();
        let common = common_critical_tuples(&s, &ViewSet::single(v), &domain, 10_000).unwrap();
        assert!(common.is_empty());
    }

    #[test]
    fn redundant_subgoal_does_not_create_phantom_criticality() {
        // Q(x) :- R(x, y), R(x, w): the second subgoal is redundant; critical
        // tuples are exactly those of Q(x) :- R(x, y).
        let (schema, mut domain) = setup();
        let q = parse_query("Q(x) :- R(x, y), R(x, w)", &schema, &mut domain).unwrap();
        let q_min = parse_query("Qm(x) :- R(x, y)", &schema, &mut domain).unwrap();
        assert_eq!(
            critical_tuples(&q, &domain).unwrap(),
            critical_tuples(&q_min, &domain).unwrap()
        );
    }

    #[test]
    fn comparisons_restrict_critical_tuples() {
        // Q() :- R(x, y), x != y : the diagonal tuples R(a,a), R(b,b) are not
        // critical, the off-diagonal ones are.
        let (schema, mut domain) = setup();
        let q = parse_query("Q() :- R(x, y), x != y", &schema, &mut domain).unwrap();
        assert!(is_critical(
            &q,
            &t(&schema, &domain, "R", &["a", "b"]),
            &domain
        ));
        assert!(is_critical(
            &q,
            &t(&schema, &domain, "R", &["b", "a"]),
            &domain
        ));
        assert!(!is_critical(
            &q,
            &t(&schema, &domain, "R", &["a", "a"]),
            &domain
        ));
        assert!(!is_critical(
            &q,
            &t(&schema, &domain, "R", &["b", "b"]),
            &domain
        ));
    }

    #[test]
    fn ground_query_is_critical_only_for_its_own_tuple() {
        let (schema, mut domain) = setup();
        let q = parse_query("Q() :- R('a', 'b')", &schema, &mut domain).unwrap();
        let crit = critical_tuples(&q, &domain).unwrap();
        assert_eq!(crit.len(), 1);
        assert!(crit.contains(&t(&schema, &domain, "R", &["a", "b"])));
    }

    #[test]
    fn candidate_cap_is_enforced() {
        let (schema, mut domain) = setup();
        let q = parse_query("Q() :- T(a, b, c, d, e)", &schema, &mut domain).unwrap();
        let big_domain = Domain::with_size(20);
        // 20^5 candidates is far above a cap of 1000
        assert!(matches!(
            critical_tuples_with_cap(&q, &big_domain, 1000),
            Err(QvsError::CandidateSpaceTooLarge { .. })
        ));
        // but fine over the 2-constant domain
        assert!(critical_tuples(&q, &domain).is_ok());
    }

    #[test]
    fn tuples_of_other_relations_are_never_critical() {
        let (schema, mut domain) = setup();
        let q = parse_query("Q(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let other = t(&schema, &domain, "Employee", &["a", "a", "a"]);
        assert!(!is_critical(&q, &other, &domain));
    }

    #[test]
    fn kernel_matches_the_sequential_baseline_and_reports_pruning() {
        let (schema, mut domain) = setup();
        domain.add("c");
        domain.add("d");
        let texts = [
            "Q1(x) :- R(x, y)",
            "Q2() :- R('a', x), R(x, x)",
            "Q3() :- R(x, y), x != y",
            "Q4(x) :- R(x, y), R(x, w)",
            "Q5() :- R(x, y), x < y",
        ];
        for text in texts {
            let q = parse_query(text, &schema, &mut domain).unwrap();
            let stats = CritStats::new();
            let kernel = critical_tuples_traced(&q, &domain, 100_000, &stats).unwrap();
            let seq = critical_tuples_seq(&q, &domain, 100_000).unwrap();
            assert_eq!(kernel, seq, "kernel diverges from baseline on {text}");
            let ordered_kernel: Vec<&Tuple> = kernel.iter().collect();
            let ordered_seq: Vec<&Tuple> = seq.iter().collect();
            assert_eq!(
                ordered_kernel, ordered_seq,
                "iteration order differs on {text}"
            );
            let snap = stats.snapshot();
            assert_eq!(
                snap.candidates_examined as usize,
                critical_candidates(&q, &domain, 100_000).unwrap().len(),
                "candidate accounting for {text}"
            );
            if !q.has_order_comparisons() {
                assert!(
                    snap.pruned_by_symmetry > 0,
                    "symmetry collapse expected for {text}, got {snap:?}"
                );
                assert!(snap.decisions_run < snap.candidates_examined);
            } else {
                assert_eq!(
                    snap.pruned_by_symmetry, 0,
                    "order predicates disable symmetry"
                );
            }
        }
    }

    #[test]
    fn common_critical_tuples_are_sorted_and_match_pairwise_decisions() {
        let (schema, mut domain) = setup();
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let views = ViewSet::single(v.clone());
        let common = common_critical_tuples(&s, &views, &domain, 1000).unwrap();
        assert_eq!(
            common.len(),
            4,
            "every tuple is critical for both projections"
        );
        let mut sorted = common.clone();
        sorted.sort();
        assert_eq!(common, sorted, "result comes back in canonical order");
        for tuple in &common {
            assert!(is_critical(&s, tuple, &domain));
            assert!(is_critical(&v, tuple, &domain));
        }
    }
}
