//! The per-tuple criticality decision (Definition 4.4) with pruning layers.
//!
//! The fine-instance procedure of Appendix A is exponential only in the
//! number of subgoals that unify with the tuple under test — but the
//! expensive unit of work is *freezing* a fine instance `I_G` and searching
//! it for a surviving homomorphism. Three pruning layers run before any
//! freeze:
//!
//! 1. **Unification prefilter** — `O(atoms · arity)`: a tuple no subgoal
//!    unifies with is rejected immediately (no subset walk at all).
//! 2. **Comparison-constraint propagation** — a subgoal whose own binding
//!    already violates a grounded comparison is dropped from the walk (every
//!    superset extends the binding, so every superset fails too); during the
//!    walk, each unified subset's pinned bindings are checked against the
//!    grounded comparisons *before* freezing.
//! 3. **Duplicate-subgoal dedup** — syntactically identical subgoals
//!    constrain `I_G` identically, so only one representative enters the
//!    `2^k` walk (each duplicate removed halves the walk).
//!
//! The layers are pure optimizations: they never change the verdict, which
//! is cross-validated against the literal Definition 4.4 oracle
//! ([`crate::critical_bruteforce`]) by unit and property tests.

use super::stats::CritStats;
use qvsec_cq::comparisons::{check_all, check_grounded};
use qvsec_cq::indexed::IndexedInstance;
use qvsec_cq::unification::{unify_atom_with_tuple, unify_atoms_with_tuple, Substitution};
use qvsec_cq::{Atom, CanonicalDatabase, ConjunctiveQuery, VarId};
use qvsec_data::{Domain, Tuple, Value};
use std::collections::HashMap;

/// Decides whether `tuple` is critical for `query` (Definition 4.4), using
/// the pruned fine-instance procedure described in the module documentation.
///
/// `domain` must contain every constant of the query and of the tuple; fresh
/// constants needed for freezing are drawn from a private extension and never
/// leak into `domain`.
pub fn is_critical(query: &ConjunctiveQuery, tuple: &Tuple, domain: &Domain) -> bool {
    is_critical_traced(query, tuple, domain, &CritStats::new())
}

/// [`is_critical`] with pruning counters recorded into `stats`.
pub fn is_critical_traced(
    query: &ConjunctiveQuery,
    tuple: &Tuple,
    domain: &Domain,
    stats: &CritStats,
) -> bool {
    stats.add_decision();
    let var_count = query.variables().count();
    // Layers 2a/2b and the post-freeze comparison check are no-ops for
    // comparison-free queries (the common case); skip their allocations.
    let has_comparisons = !query.comparisons.is_empty();

    // Layer 1: the O(atoms) unification prefilter.
    let unifiable: Vec<(&Atom, Substitution)> = query
        .atoms
        .iter()
        .filter_map(|atom| unify_atom_with_tuple(atom, tuple).map(|s| (atom, s)))
        .collect();
    if unifiable.is_empty() {
        stats.add_prefilter_prune();
        return false;
    }

    // Layer 2a: drop subgoals whose own binding already violates a grounded
    // comparison — every subset containing them extends the same binding.
    let surviving: Vec<&Atom> = unifiable
        .iter()
        .filter(|(_, subst)| {
            if !has_comparisons {
                return true;
            }
            let assignment = partial_assignment(subst, var_count);
            let ok = check_grounded(&query.comparisons, &assignment);
            if !ok {
                stats.add_comparison_prune();
            }
            ok
        })
        .map(|(atom, _)| *atom)
        .collect();
    if surviving.is_empty() {
        return false;
    }

    // Layer 3: one representative per syntactically identical subgoal.
    let mut atoms: Vec<&Atom> = Vec::with_capacity(surviving.len());
    for atom in surviving {
        if atoms.contains(&atom) {
            stats.add_duplicate_atoms(1);
        } else {
            atoms.push(atom);
        }
    }

    // Enumerate every non-empty subset G of the remaining subgoals.
    let k = atoms.len();
    for mask in 1u64..(1u64 << k) {
        stats.add_subset_walked();
        let subset: Vec<&Atom> = (0..k)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| atoms[i])
            .collect();
        let Some(subst) = unify_atoms_with_tuple(&subset, tuple) else {
            continue;
        };
        // Layer 2b: pinned bindings vs. grounded comparisons, before freeze.
        if has_comparisons {
            let assignment = partial_assignment(&subst, var_count);
            if !check_grounded(&query.comparisons, &assignment) {
                stats.add_comparison_prune();
                continue;
            }
        }
        stats.add_freeze();
        let pinned: HashMap<VarId, Value> = subst.iter().collect();
        let canon = CanonicalDatabase::freeze_with(query, domain, &pinned);
        // The frozen assignment must satisfy the query's comparisons for I_G
        // to witness Q(I_G) ≠ ∅ through h_G (order comparisons can only be
        // settled once fresh constants are placed).
        if has_comparisons {
            let full: Vec<Option<Value>> =
                query.variables().map(|v| Some(canon.value_of(v))).collect();
            if !check_all(&query.comparisons, &full) {
                continue;
            }
        }
        debug_assert!(canon.instance.contains(tuple), "I_G must contain t");
        // t is critical iff the answer h_G(head) does not survive removing
        // t. The fine instance is interned as a bitset-indexed tuple space:
        // each atom's candidates are one contiguous slice and `I_G − {t}`
        // is a cleared bit (no per-candidate tuple compares).
        let indexed = IndexedInstance::build(&canon.instance);
        if !indexed.answer_survives(query, &canon.head_answer, Some(tuple)) {
            return true;
        }
    }
    false
}

fn partial_assignment(subst: &Substitution, var_count: usize) -> Vec<Option<Value>> {
    let mut assignment = vec![None; var_count];
    for (v, val) in subst.iter() {
        assignment[v.index()] = Some(val);
    }
    assignment
}

/// The symmetry class of a candidate tuple relative to a sorted list of
/// anchored constants (the constants the queries mention, which domain
/// symmetries must fix).
///
/// Two tuples with equal patterns are related by a domain permutation fixing
/// every anchor, and criticality is invariant under such permutations as
/// long as no query involved uses order comparisons (`=`/`!=` are preserved
/// by any bijection; `<`/`<=` are not). The kernel therefore decides one
/// representative per pattern and copies the verdict to the whole class.
///
/// Patterns for tuples of arity ≤ 12 over ≤ 16 anchors pack into a single
/// `u64` (5 bits per position: anchor index, or `16 + i` for the `i`-th
/// distinct unanchored value), so the per-candidate grouping key costs no
/// heap allocation on realistic schemas; wider shapes fall back to an
/// explicit token vector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum TuplePattern {
    /// ≤ 12 positions, ≤ 16 anchors: 5 bits per position under a sentinel.
    Packed {
        /// The tuple's relation.
        relation: u32,
        /// Sentinel-prefixed 5-bit token stream.
        bits: u64,
    },
    /// The general shape: one token per position.
    Wide {
        /// The tuple's relation.
        relation: u32,
        /// `(is_class, anchor index or class index)` per position.
        tokens: Vec<(bool, u32)>,
    },
}

const PACKED_MAX_ARITY: usize = 12;
const PACKED_MAX_ANCHORS: usize = 16;

/// Computes the [`TuplePattern`] of `tuple` given the sorted anchors.
pub(crate) fn tuple_pattern(anchors: &[Value], tuple: &Tuple) -> TuplePattern {
    tuple_pattern_values(anchors, tuple.relation.0, &tuple.values)
}

/// [`tuple_pattern`] over a borrowed value slice — the form the streaming
/// grounding enumeration feeds (no `Tuple` is materialized to classify a
/// candidate).
pub(crate) fn tuple_pattern_values(
    anchors: &[Value],
    relation: u32,
    values: &[Value],
) -> TuplePattern {
    debug_assert!(anchors.windows(2).all(|w| w[0] < w[1]), "anchors sorted");
    if values.len() <= PACKED_MAX_ARITY && anchors.len() <= PACKED_MAX_ANCHORS {
        let mut classes: [Value; PACKED_MAX_ARITY] = [Value(0); PACKED_MAX_ARITY];
        let mut class_count = 0usize;
        let mut bits: u64 = 1; // length sentinel
        for &v in values {
            let token = match anchors.binary_search(&v) {
                Ok(i) => i as u64,
                Err(_) => {
                    let idx = match classes[..class_count].iter().position(|&c| c == v) {
                        Some(i) => i,
                        None => {
                            classes[class_count] = v;
                            class_count += 1;
                            class_count - 1
                        }
                    };
                    16 + idx as u64
                }
            };
            bits = (bits << 5) | token;
        }
        TuplePattern::Packed { relation, bits }
    } else {
        let mut classes: Vec<Value> = Vec::new();
        let tokens = values
            .iter()
            .map(|&v| match anchors.binary_search(&v) {
                Ok(i) => (false, i as u32),
                Err(_) => {
                    let idx = match classes.iter().position(|&c| c == v) {
                        Some(i) => i,
                        None => {
                            classes.push(v);
                            classes.len() - 1
                        }
                    };
                    (true, idx as u32)
                }
            })
            .collect();
        TuplePattern::Wide { relation, tokens }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvsec_cq::parse_query;
    use qvsec_data::Schema;

    #[test]
    fn tuple_patterns_collapse_symmetric_tuples_and_keep_anchors_apart() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let mut domain = Domain::with_constants(["a", "b", "c", "d"]);
        let q = parse_query("Q(x) :- R(x, 'a')", &schema, &mut domain).unwrap();
        let anchors: Vec<Value> = q.constants().into_iter().collect();
        let t = |x: &str, y: &str| Tuple::from_names(&schema, &domain, "R", &[x, y]).unwrap();
        // (b, c) and (c, d) are symmetric: two distinct unanchored values.
        assert_eq!(
            tuple_pattern(&anchors, &t("b", "c")),
            tuple_pattern(&anchors, &t("c", "d"))
        );
        // (b, b) is a different class shape.
        assert_ne!(
            tuple_pattern(&anchors, &t("b", "c")),
            tuple_pattern(&anchors, &t("b", "b"))
        );
        // the anchored constant 'a' never merges with unanchored values.
        assert_ne!(
            tuple_pattern(&anchors, &t("a", "b")),
            tuple_pattern(&anchors, &t("c", "b"))
        );
        // same shape with the anchor in the same position collapses.
        assert_eq!(
            tuple_pattern(&anchors, &t("a", "b")),
            tuple_pattern(&anchors, &t("a", "d"))
        );
    }

    #[test]
    fn pruned_decision_counts_its_work() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        schema.add_relation("Other", &["z"]);
        let mut domain = Domain::with_constants(["a", "b"]);
        let q = parse_query("Q(x) :- R(x, y), R(x, w)", &schema, &mut domain).unwrap();
        let stats = CritStats::new();
        let t = Tuple::from_names(&schema, &domain, "R", &["a", "b"]).unwrap();
        assert!(is_critical_traced(&q, &t, &domain, &stats));
        let snap = stats.snapshot();
        assert_eq!(snap.decisions_run, 1);
        assert_eq!(snap.duplicate_atoms_skipped, 0, "R(x,y) and R(x,w) differ");
        // prefilter rejects tuples of other relations without a walk
        let other = Tuple::from_names(&schema, &domain, "Other", &["a"]).unwrap();
        assert!(!is_critical_traced(&q, &other, &domain, &stats));
        let snap = stats.snapshot();
        assert_eq!(snap.pruned_by_prefilter, 1);
        assert_eq!(
            snap.subsets_walked, 3,
            "only the first decision walked subsets"
        );
    }

    #[test]
    fn exactly_duplicate_subgoals_are_walked_once() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let mut domain = Domain::with_constants(["a", "b"]);
        let q = parse_query("Q() :- R(x, y), R(x, y)", &schema, &mut domain).unwrap();
        let stats = CritStats::new();
        let t = Tuple::from_names(&schema, &domain, "R", &["a", "b"]).unwrap();
        assert!(is_critical_traced(&q, &t, &domain, &stats));
        assert_eq!(stats.snapshot().duplicate_atoms_skipped, 1);
    }

    #[test]
    fn comparison_propagation_rejects_before_freezing() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let mut domain = Domain::with_constants(["a", "b"]);
        let q = parse_query("Q() :- R(x, y), x != y", &schema, &mut domain).unwrap();
        let stats = CritStats::new();
        let diag = Tuple::from_names(&schema, &domain, "R", &["a", "a"]).unwrap();
        assert!(!is_critical_traced(&q, &diag, &domain, &stats));
        let snap = stats.snapshot();
        assert_eq!(snap.instances_frozen, 0, "x != y prunes before any freeze");
        assert!(snap.pruned_by_comparisons >= 1);
    }
}
