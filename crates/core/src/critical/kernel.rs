//! The parallel, pruned `crit(Q)` kernel.
//!
//! [`critical_tuples`] and [`common_critical_tuples`] funnel every security
//! verdict of the engine through this module. The kernel interns the
//! candidate space once ([`super::candidates::candidate_space`]), then runs
//! the per-tuple decision of [`super::decide`] over it with two scheduling
//! layers on top:
//!
//! * **Symmetry collapse.** When no query involved uses order comparisons,
//!   criticality is invariant under domain permutations that fix the
//!   queries' constants, so candidates are grouped by
//!   [`super::decide::tuple_pattern`] and only one representative per group
//!   is decided — the verdict is copied to the rest. On projection-style
//!   workloads this collapses `O(|D|^arity)` decisions into a handful.
//! * **Parallel filter.** Representatives (or, with order comparisons, all
//!   candidates) are decided with `rayon`'s parallel iterator. Work is
//!   partitioned over contiguous chunks and the verdict vector is collected
//!   in input order, so the final `BTreeSet` merge is deterministic: the
//!   result is byte-identical to the sequential filter regardless of thread
//!   count.
//!
//! [`critical_tuples_seq`] preserves the pre-kernel sequential path (no
//! pruning layers, no parallelism) as the benchmark baseline; property tests
//! assert `kernel ≡ seq ≡ brute force`.

use super::candidates::{
    atom_grounding_key, candidate_space, critical_candidates, DEFAULT_CANDIDATE_CAP,
};
use super::decide::{is_critical_traced, tuple_pattern, tuple_pattern_values, TuplePattern};
use super::stats::CritStats;
use crate::{QvsError, Result};
use qvsec_cq::homomorphism::answer_survives;
use qvsec_cq::unification::unify_atoms_with_tuple;
use qvsec_cq::{CanonicalDatabase, ConjunctiveQuery, VarId, ViewSet};
use qvsec_data::{CandidateSet, Domain, RelationId, Tuple, Value};
use qvsec_prob::lineage::for_each_grounding;
use rayon::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// Computes `crit_D(Q)` exactly over the given domain (with the default
/// candidate cap).
///
/// ```
/// use qvsec::critical::critical_tuples;
/// use qvsec_cq::parse_query;
/// use qvsec_data::{Domain, Schema};
///
/// let mut schema = Schema::new();
/// schema.add_relation("R", &["x", "y"]);
/// let mut domain = Domain::with_constants(["a", "b"]);
///
/// // Example 4.7: crit(V) for V(x) :- R(x, 'b') is {R(a,b), R(b,b)}.
/// let v = parse_query("V(x) :- R(x, 'b')", &schema, &mut domain).unwrap();
/// let crit = critical_tuples(&v, &domain).unwrap();
/// let rendered: Vec<String> = crit
///     .iter()
///     .map(|t| t.display(&schema, &domain).to_string())
///     .collect();
/// assert_eq!(rendered, ["R(a, b)", "R(b, b)"]);
/// ```
pub fn critical_tuples(query: &ConjunctiveQuery, domain: &Domain) -> Result<BTreeSet<Tuple>> {
    critical_tuples_with_cap(query, domain, DEFAULT_CANDIDATE_CAP)
}

/// Computes `crit_D(Q)` with an explicit cap on the candidate enumeration.
pub fn critical_tuples_with_cap(
    query: &ConjunctiveQuery,
    domain: &Domain,
    cap: usize,
) -> Result<BTreeSet<Tuple>> {
    critical_tuples_traced(query, domain, cap, &CritStats::new())
}

/// [`critical_tuples_with_cap`] with pruning counters recorded into `stats`.
pub fn critical_tuples_traced(
    query: &ConjunctiveQuery,
    domain: &Domain,
    cap: usize,
    stats: &CritStats,
) -> Result<BTreeSet<Tuple>> {
    critical_tuples_shared(query, domain, cap, stats, None)
}

/// Shared, domain-size-independent symmetry-class verdicts for **one**
/// canonical query form (see [`qvsec_cq::CanonicalKey`]).
///
/// The criticality of a candidate depends only on its symmetry pattern —
/// which anchor constants it repeats and how its unanchored values alias —
/// never on how many constants the domain holds: the fine-instance decision
/// of Appendix A freezes variables to *fresh* constants, so the verdict of a
/// pattern class computed over a domain of size 4 is equally valid over a
/// domain of size 40. A `ClassVerdictCache` records those verdicts so a
/// query audited again over a **grown** active domain re-derives its
/// critical set from the cached classes instead of re-deciding
/// representatives.
///
/// Only order-free queries may share a cache (order predicates are not
/// preserved by domain bijections); [`critical_tuples_shared`] ignores the
/// cache when the query uses `<`/`<=`.
#[derive(Debug, Default)]
pub struct ClassVerdictCache {
    verdicts: Mutex<HashMap<TuplePattern, bool, FxBuild>>,
}

impl ClassVerdictCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pattern classes with a memoized verdict.
    pub fn len(&self) -> usize {
        self.verdicts.lock().expect("class cache poisoned").len()
    }

    /// Whether no verdict has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint, for the engine's byte-budgeted artifact
    /// layer (patterns are usually packed into a single word; wide patterns
    /// add their token vectors).
    pub fn approx_bytes(&self) -> usize {
        let known = self.verdicts.lock().expect("class cache poisoned");
        64 + known
            .keys()
            .map(|p| {
                32 + match p {
                    TuplePattern::Packed { .. } => 0,
                    TuplePattern::Wide { tokens, .. } => 8 * tokens.len(),
                }
            })
            .sum::<usize>()
    }
}

/// One symmetry class discovered by the streaming grounding pass.
struct ClassGroup {
    pattern: TuplePattern,
    representative: Tuple,
}

/// `m · (m−1) ··· (m−k+1)`: the number of tuples in a pattern class with `k`
/// distinct unanchored values over a domain with `m` non-anchor constants.
fn falling_factorial(m: u64, k: u64) -> u64 {
    (0..k).map(|i| m.saturating_sub(i)).product()
}

/// Number of distinct unanchored values in a candidate's value slice.
fn distinct_unanchored(values: &[Value], anchors: &[Value]) -> u64 {
    let mut seen: Vec<Value> = Vec::with_capacity(values.len());
    for &v in values {
        if anchors.binary_search(&v).is_err() && !seen.contains(&v) {
            seen.push(v);
        }
    }
    seen.len() as u64
}

/// Materializes every member of the representative's symmetry class into
/// `out`: anchor positions stay fixed, the `k` distinct unanchored values
/// range over all injective assignments of non-anchor domain constants.
fn emit_class_members(
    relation: RelationId,
    rep_values: &[Value],
    anchors: &[Value],
    non_anchor: &[Value],
    out: &mut BTreeSet<Tuple>,
) {
    // Per position: the fixed anchor value, or the index of the distinct
    // unanchored value driving it (first-occurrence order).
    let mut class_vals: Vec<Value> = Vec::new();
    let slots: Vec<std::result::Result<Value, usize>> = rep_values
        .iter()
        .map(|&v| {
            if anchors.binary_search(&v).is_ok() {
                Ok(v)
            } else {
                Err(match class_vals.iter().position(|&c| c == v) {
                    Some(i) => i,
                    None => {
                        class_vals.push(v);
                        class_vals.len() - 1
                    }
                })
            }
        })
        .collect();
    let k = class_vals.len();
    let mut chosen: Vec<Value> = Vec::with_capacity(k);
    emit_injective(relation, &slots, k, non_anchor, &mut chosen, out);
}

fn emit_injective(
    relation: RelationId,
    slots: &[std::result::Result<Value, usize>],
    k: usize,
    non_anchor: &[Value],
    chosen: &mut Vec<Value>,
    out: &mut BTreeSet<Tuple>,
) {
    if chosen.len() == k {
        out.insert(Tuple::new(
            relation,
            slots
                .iter()
                .map(|slot| match slot {
                    Ok(v) => *v,
                    Err(i) => chosen[*i],
                })
                .collect(),
        ));
        return;
    }
    for &v in non_anchor {
        if !chosen.contains(&v) {
            chosen.push(v);
            emit_injective(relation, slots, k, non_anchor, chosen, out);
            chosen.pop();
        }
    }
}

/// [`critical_tuples_traced`] with an optional shared [`ClassVerdictCache`]
/// serving symmetry-class verdicts across calls (and across active-domain
/// sizes).
///
/// For order-free queries the kernel **streams** subgoal groundings straight
/// into the pattern-grouping pass: each grounding is classified from a
/// borrowed value buffer and only the first member of a class materializes a
/// heap [`Tuple`] (the class representative). Class sizes are counted in
/// closed form (each atom's grounding set is a union of complete pattern
/// classes — any anchor-fixing domain permutation maps groundings to
/// groundings), so the candidate accounting and the cap check stay exact
/// without enumerating a candidate set. Members of critical classes are
/// materialized once, directly into the sorted result.
///
/// With order comparisons the kernel falls back to the materializing
/// per-candidate filter (no symmetry, no class sharing).
pub fn critical_tuples_shared(
    query: &ConjunctiveQuery,
    domain: &Domain,
    cap: usize,
    stats: &CritStats,
    classes: Option<&ClassVerdictCache>,
) -> Result<BTreeSet<Tuple>> {
    let Some(anchors) = symmetry_anchors(std::iter::once(query)) else {
        // Order comparisons: decide every candidate individually.
        let candidate_set = critical_candidates(query, domain, cap)?;
        stats.add_candidates(candidate_set.len() as u64);
        let candidates: Vec<&Tuple> = candidate_set.iter().collect();
        let verdicts = decide_all(&candidates, None, stats, |t| {
            is_critical_traced(query, t, domain, stats)
        });
        return Ok(candidates
            .iter()
            .zip(&verdicts)
            .filter(|(_, &critical)| critical)
            .map(|(t, _)| (*t).clone())
            .collect());
    };

    let non_anchor: Vec<Value> = domain
        .values()
        .filter(|v| anchors.binary_search(v).is_err())
        .collect();
    let mut group_of: HashMap<TuplePattern, usize, FxBuild> = HashMap::default();
    let mut groups: Vec<ClassGroup> = Vec::new();
    let mut total: u64 = 0;
    let mut seen_shapes: BTreeSet<(u32, Vec<(u8, u32)>)> = BTreeSet::new();
    for atom in &query.atoms {
        if !seen_shapes.insert(atom_grounding_key(atom)) {
            continue; // identical grounding set already streamed
        }
        let per_atom = (domain.len() as u128).saturating_pow(atom.variables().len() as u32);
        if per_atom > cap as u128 {
            return Err(QvsError::CandidateSpaceTooLarge {
                required: per_atom,
                cap,
            });
        }
        let mut overflow = false;
        for_each_grounding(atom, domain, |values| {
            let pattern = tuple_pattern_values(&anchors, atom.relation.0, values);
            if !group_of.contains_key(&pattern) {
                // Classes partition the candidate union, so summing their
                // closed-form sizes counts distinct candidates exactly.
                total += falling_factorial(
                    non_anchor.len() as u64,
                    distinct_unanchored(values, &anchors),
                );
                group_of.insert(pattern.clone(), groups.len());
                groups.push(ClassGroup {
                    pattern,
                    representative: Tuple::new(atom.relation, values.to_vec()),
                });
            }
            overflow = total > cap as u64;
            !overflow
        });
        if overflow {
            return Err(QvsError::CandidateSpaceTooLarge {
                required: total as u128,
                cap,
            });
        }
    }
    stats.add_candidates(total);
    stats.add_symmetry_pruned(total - groups.len() as u64);

    // Serve verdicts from the shared cache where possible, decide the rest.
    let mut verdicts: Vec<Option<bool>> = vec![None; groups.len()];
    if let Some(cache) = classes {
        let known = cache.verdicts.lock().expect("class cache poisoned");
        let mut reused = 0u64;
        for (g, group) in groups.iter().enumerate() {
            if let Some(&v) = known.get(&group.pattern) {
                verdicts[g] = Some(v);
                reused += 1;
            }
        }
        stats.add_class_verdicts_reused(reused);
    }
    let undecided: Vec<usize> = verdicts
        .iter()
        .enumerate()
        .filter(|(_, v)| v.is_none())
        .map(|(g, _)| g)
        .collect();
    let fresh: Vec<bool> = undecided
        .par_iter()
        .map(|&g| is_critical_traced(query, &groups[g].representative, domain, stats))
        .collect();
    for (&g, &v) in undecided.iter().zip(&fresh) {
        verdicts[g] = Some(v);
    }
    if let Some(cache) = classes {
        let mut known = cache.verdicts.lock().expect("class cache poisoned");
        for (&g, &v) in undecided.iter().zip(&fresh) {
            known.insert(groups[g].pattern.clone(), v);
        }
    }

    let mut out = BTreeSet::new();
    for (group, verdict) in groups.iter().zip(&verdicts) {
        if verdict.unwrap_or(false) {
            emit_class_members(
                group.representative.relation,
                &group.representative.values,
                &anchors,
                &non_anchor,
                &mut out,
            );
        }
    }
    Ok(out)
}

/// Computes `crit_D(S) ∩ crit_D(V̄)` — the common critical tuples whose
/// emptiness characterises dictionary-independent security (Theorem 4.5).
///
/// Candidates are restricted to tuples that are subgoal instantiations of
/// **both** sides, so the enumeration stays proportional to the overlap.
/// The result is sorted (the candidate spaces' canonical order).
pub fn common_critical_tuples(
    secret: &ConjunctiveQuery,
    views: &ViewSet,
    domain: &Domain,
    cap: usize,
) -> Result<Vec<Tuple>> {
    common_critical_tuples_traced(secret, views, domain, cap, &CritStats::new())
}

/// [`common_critical_tuples`] with pruning counters recorded into `stats`.
pub fn common_critical_tuples_traced(
    secret: &ConjunctiveQuery,
    views: &ViewSet,
    domain: &Domain,
    cap: usize,
    stats: &CritStats,
) -> Result<Vec<Tuple>> {
    let secret_space = Arc::new(candidate_space(secret, domain, cap)?);
    // Mark, over the interned secret space, every candidate some view can
    // also instantiate — no tuple is cloned while intersecting.
    let mut overlap = CandidateSet::empty(Arc::clone(&secret_space));
    for view in views.iter() {
        for tuple in critical_candidates(view, domain, cap)? {
            overlap.insert(&tuple);
        }
    }
    stats.add_candidates(overlap.len() as u64);
    let candidates: Vec<&Tuple> = overlap.iter().collect();
    let anchors = symmetry_anchors(std::iter::once(secret).chain(views.iter()));
    let verdicts = decide_all(&candidates, anchors.as_deref(), stats, |t| {
        is_critical_traced(secret, t, domain, stats)
            && views
                .iter()
                .any(|v| is_critical_traced(v, t, domain, stats))
    });
    Ok(candidates
        .iter()
        .zip(&verdicts)
        .filter(|(_, &common)| common)
        .map(|(t, _)| (*t).clone())
        .collect())
}

/// The sorted anchor list enabling symmetry collapse, or `None` when some
/// query uses order comparisons (bijections that are not monotone do not
/// preserve `<`/`<=`, so pattern classes are not verdict classes there).
fn symmetry_anchors<'a>(queries: impl Iterator<Item = &'a ConjunctiveQuery>) -> Option<Vec<Value>> {
    let mut anchors = BTreeSet::new();
    for q in queries {
        if q.has_order_comparisons() {
            return None;
        }
        anchors.extend(q.constants());
    }
    Some(anchors.into_iter().collect())
}

/// A minimal Fx-style multiply-xor hasher for the pattern-grouping map: the
/// keys are tiny (a relation id and a packed word), the map is rebuilt per
/// kernel call, and SipHash dominates the grouping cost otherwise. No random
/// state — grouping is fully deterministic.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

type FxBuild = std::hash::BuildHasherDefault<FxHasher>;

/// Decides `decide` for every candidate, in parallel, collapsing symmetric
/// candidates onto one representative when `anchors` is available. Verdicts
/// come back in candidate order, making downstream merges deterministic
/// (groups are formed in first-occurrence order, independent of thread
/// count or hash iteration order).
fn decide_all<F>(
    candidates: &[&Tuple],
    anchors: Option<&[Value]>,
    stats: &CritStats,
    decide: F,
) -> Vec<bool>
where
    F: Fn(&Tuple) -> bool + Sync,
{
    match anchors {
        Some(anchors) => {
            let mut group_of: HashMap<TuplePattern, usize, FxBuild> = HashMap::default();
            let mut groups: Vec<Vec<usize>> = Vec::new();
            for (i, t) in candidates.iter().enumerate() {
                let group = *group_of
                    .entry(tuple_pattern(anchors, t))
                    .or_insert_with(|| {
                        groups.push(Vec::new());
                        groups.len() - 1
                    });
                groups[group].push(i);
            }
            stats.add_symmetry_pruned((candidates.len() - groups.len()) as u64);
            let representatives: Vec<&Tuple> =
                groups.iter().map(|ids| candidates[ids[0]]).collect();
            let class_verdicts: Vec<bool> = representatives.par_iter().map(|t| decide(t)).collect();
            let mut verdicts = vec![false; candidates.len()];
            for (ids, &verdict) in groups.iter().zip(&class_verdicts) {
                if verdict {
                    for &i in ids {
                        verdicts[i] = true;
                    }
                }
            }
            verdicts
        }
        None => candidates.par_iter().map(|t| decide(t)).collect(),
    }
}

/// The pre-kernel sequential path, kept verbatim as the benchmark baseline
/// and equivalence witness: enumerate candidates, then filter with the
/// unpruned fine-instance decision, one tuple at a time on one thread.
pub fn critical_tuples_seq(
    query: &ConjunctiveQuery,
    domain: &Domain,
    cap: usize,
) -> Result<BTreeSet<Tuple>> {
    let candidates = critical_candidates(query, domain, cap)?;
    Ok(candidates
        .into_iter()
        .filter(|t| is_critical_baseline(query, t, domain))
        .collect())
}

/// The historical (pre-kernel) decision: no prefilter accounting, no
/// comparison propagation, no duplicate-subgoal dedup — every unifiable
/// subset is frozen and searched.
fn is_critical_baseline(query: &ConjunctiveQuery, tuple: &Tuple, domain: &Domain) -> bool {
    let unifiable: Vec<usize> = query
        .atoms
        .iter()
        .enumerate()
        .filter(|(_, atom)| qvsec_cq::unify_atom_with_tuple(atom, tuple).is_some())
        .map(|(i, _)| i)
        .collect();
    if unifiable.is_empty() {
        return false;
    }
    let k = unifiable.len();
    for mask in 1u64..(1u64 << k) {
        let atoms: Vec<&qvsec_cq::Atom> = (0..k)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| &query.atoms[unifiable[i]])
            .collect();
        let Some(subst) = unify_atoms_with_tuple(&atoms, tuple) else {
            continue;
        };
        let pinned: HashMap<VarId, Value> = subst.iter().collect();
        let canon = CanonicalDatabase::freeze_with(query, domain, &pinned);
        let assignment: Vec<Option<Value>> =
            query.variables().map(|v| Some(canon.value_of(v))).collect();
        if !qvsec_cq::comparisons::check_all(&query.comparisons, &assignment) {
            continue;
        }
        if !answer_survives(query, &canon.instance, &canon.head_answer, Some(tuple)) {
            return true;
        }
    }
    false
}
