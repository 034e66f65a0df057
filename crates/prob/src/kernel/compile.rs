//! Query compilation: from a conjunctive query to per-answer witness masks.
//!
//! The enumeration baseline evaluates `Q(I)` with a fresh homomorphism
//! search on every one of the `2^n` worlds. The kernel instead runs the
//! search **once**, against the saturated instance (every tuple of the
//! space present): each homomorphism contributes its head image (a possible
//! answer) and its body image (a witness — a set of space indices). By
//! monotonicity of conjunctive queries, `a ∈ Q(I)` iff some witness of `a`
//! is contained in `I`, so evaluating a compiled query against a world is a
//! handful of mask containment tests (`w & m == w`) instead of a search.
//!
//! This is exactly the lineage construction of Example 4.12
//! (`Q = t1 ∨ (t2 ∧ t4)`), generalised from boolean queries to one DNF per
//! possible answer.
//!
//! The same witnesses give `crit(Q)` over the space: `t` is critical iff it
//! lies in a minimal witness of some answer. (If `t ∈ W` for a minimal
//! witness `W` of `a`, then `a ∈ Q(W)` but `a ∉ Q(W − {t})`; conversely, an
//! answer lost by removing `t` from `I` had every witness inside `I`
//! through `t`, minimal ones included.) The kernel decides Definition 4.1
//! from these sets by Theorems 4.5 and 4.8.

use qvsec_cq::eval::Answer;
use qvsec_cq::homomorphism::find_homomorphisms;
use qvsec_cq::ConjunctiveQuery;
use qvsec_data::bitset::BitSet;
use qvsec_data::{Instance, TupleSpace};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A query compiled against a tuple space.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// Every answer with at least one witness, in canonical (sorted) order —
    /// the same order as `possible_answers` iteration over a `BTreeSet`.
    answers: Vec<Answer>,
    /// Per answer: the minimal witnesses as sorted space-index lists.
    witnesses: Vec<Vec<Vec<usize>>>,
    /// Per answer: the same witnesses as `u64` masks (populated only when
    /// the space has at most 64 tuples — always true for the exact path,
    /// which is capped at `MAX_ENUMERABLE`).
    masks: Option<Vec<Vec<u64>>>,
    /// Per answer: the same witnesses as chunked bitsets (any space size);
    /// used to evaluate sampled worlds.
    bits: Vec<Vec<BitSet>>,
    /// Words needed to store one answer-membership signature.
    sig_words: usize,
    /// `crit(Q)` over the space: the union of the minimal witnesses.
    critical: BitSet,
}

/// Keeps only witnesses not strictly containing another witness (the
/// minimality filter of `lineage_dnf`), in their sorted order. A strict
/// subset of a sorted witness starts at one of that witness's elements, so
/// each witness is tested only against the shorter witnesses that start
/// at one of its elements.
fn minimal(witnesses: BTreeSet<Vec<usize>>) -> Vec<Vec<usize>> {
    let all: Vec<Vec<usize>> = witnesses.into_iter().collect();
    // The empty witness (sorted first) is a strict subset of every other.
    if all.first().is_some_and(|w| w.is_empty()) {
        return vec![Vec::new()];
    }
    let mut by_first: HashMap<usize, Vec<&[usize]>> = HashMap::new();
    for w in &all {
        by_first.entry(w[0]).or_default().push(w);
    }
    let contains_shorter = |w: &[usize]| {
        w.iter().any(|first| {
            by_first.get(first).is_some_and(|starting| {
                starting
                    .iter()
                    .any(|other| other.len() < w.len() && other.iter().all(|x| w.contains(x)))
            })
        })
    };
    all.iter()
        .filter(|w| !contains_shorter(w))
        .cloned()
        .collect()
}

impl CompiledQuery {
    /// Compiles `query` against `space`: one homomorphism search against the
    /// saturated instance, grouped by head answer.
    pub fn compile(query: &ConjunctiveQuery, space: &TupleSpace) -> CompiledQuery {
        let saturated = Instance::from_tuples(space.iter().cloned());
        let mut by_answer: BTreeMap<Answer, BTreeSet<Vec<usize>>> = BTreeMap::new();
        for hom in find_homomorphisms(query, &saturated) {
            let (Some(answer), Some(image)) = (hom.head_image(query), hom.body_image(query)) else {
                continue;
            };
            let mut indices: Vec<usize> = image.iter().filter_map(|t| space.index_of(t)).collect();
            indices.sort_unstable();
            indices.dedup();
            if indices.len() == image.len() {
                by_answer.entry(answer).or_default().insert(indices);
            }
        }
        let mut answers = Vec::with_capacity(by_answer.len());
        let mut witnesses = Vec::with_capacity(by_answer.len());
        for (answer, wits) in by_answer {
            answers.push(answer);
            witnesses.push(minimal(wits));
        }
        CompiledQuery::from_parts(answers, witnesses, space.len())
    }

    /// Builds a compilation from its sorted answers and their minimal
    /// witnesses against a space of `space_len` tuples, deriving the
    /// evaluation forms (`u64` masks, chunked bitsets, signature width);
    /// [`CompiledQuery::compile`] builds through it.
    pub fn from_parts(
        answers: Vec<Answer>,
        witnesses: Vec<Vec<Vec<usize>>>,
        space_len: usize,
    ) -> CompiledQuery {
        let masks = (space_len <= 64).then(|| {
            witnesses
                .iter()
                .map(|per_answer| {
                    per_answer
                        .iter()
                        .map(|w| w.iter().fold(0u64, |m, &i| m | (1u64 << i)))
                        .collect()
                })
                .collect()
        });
        let bits = witnesses
            .iter()
            .map(|per_answer| {
                per_answer
                    .iter()
                    .map(|w| {
                        let mut b = BitSet::new(space_len);
                        for &i in w {
                            b.insert(i);
                        }
                        b
                    })
                    .collect()
            })
            .collect();
        let sig_words = answers.len().div_ceil(64);
        let mut critical = BitSet::new(space_len);
        for &t in witnesses.iter().flatten().flatten() {
            critical.insert(t);
        }
        CompiledQuery {
            answers,
            witnesses,
            masks,
            bits,
            sig_words,
            critical,
        }
    }

    /// The compilation conditioned on a degenerate dictionary: witnesses
    /// holding an `absent` (p = 0) tuple are dropped, `present` (p = 1)
    /// tuples are removed from the rest, and only the minimal ones are
    /// kept. Answers left without a witness never occur and are dropped.
    /// Over the worlds of positive probability the result answers exactly
    /// as `self` does, and its critical tuples are those of the query as a
    /// function of the remaining tuples.
    pub(crate) fn conditioned(&self, absent: &BitSet, present: &BitSet) -> CompiledQuery {
        let mut answers = Vec::new();
        let mut witnesses = Vec::new();
        for (answer, wits) in self.answers.iter().zip(&self.witnesses) {
            let kept: BTreeSet<Vec<usize>> = wits
                .iter()
                .filter(|w| w.iter().all(|&t| !absent.contains(t)))
                .map(|w| {
                    w.iter()
                        .copied()
                        .filter(|&t| !present.contains(t))
                        .collect()
                })
                .collect();
            if !kept.is_empty() {
                answers.push(answer.clone());
                witnesses.push(minimal(kept));
            }
        }
        CompiledQuery::from_parts(answers, witnesses, self.critical.capacity())
    }

    /// The possible answers, sorted.
    pub fn answers(&self) -> &[Answer] {
        &self.answers
    }

    /// Approximate heap footprint of the compilation, for the kernel's
    /// byte-budgeted compile cache.
    pub fn approx_bytes(&self) -> usize {
        let answers: usize = self
            .answers
            .iter()
            .map(|a| 24 + std::mem::size_of_val(a.as_slice()))
            .sum();
        let witnesses: usize = self
            .witnesses
            .iter()
            .flat_map(|per_answer| per_answer.iter())
            .map(|w| 24 + 8 * w.len())
            .sum();
        let bits: usize = self
            .bits
            .iter()
            .flat_map(|per_answer| per_answer.iter())
            .chain([&self.critical])
            .map(|b| 32 + b.capacity().div_ceil(64) * 8)
            .sum();
        answers + witnesses + bits + std::mem::size_of::<Self>()
    }

    /// Number of possible answers.
    pub fn num_answers(&self) -> usize {
        self.answers.len()
    }

    /// The minimal witnesses of answer `i`, as sorted space-index lists.
    pub fn witnesses_of(&self, i: usize) -> &[Vec<usize>] {
        &self.witnesses[i]
    }

    /// `crit(Q)` over the space: every tuple of some minimal witness.
    pub(crate) fn critical(&self) -> &BitSet {
        &self.critical
    }

    /// The tuples `t` for which some answer's only minimal witness is
    /// `{t}`: that answer is present exactly when `t` is, so publishing the
    /// query reveals whether `t` is in the instance.
    pub(crate) fn revealed(&self) -> BitSet {
        let mut out = BitSet::new(self.critical.capacity());
        for wits in &self.witnesses {
            if let [only] = wits.as_slice() {
                if let [t] = only.as_slice() {
                    out.insert(*t);
                }
            }
        }
        out
    }

    /// `u64` words needed for this query's slice of a signature.
    pub fn sig_words(&self) -> usize {
        self.sig_words
    }

    /// Appends this query's answer-membership bits for the world `mask`
    /// onto `sig`: bit `i` is set iff answer `i` is in the query's answer
    /// set on that world.
    ///
    /// # Panics
    /// Panics if the space had more than 64 tuples (no mask form).
    pub fn push_answer_bits_mask(&self, mask: u64, sig: &mut Vec<u64>) {
        let masks = self
            .masks
            .as_ref()
            .expect("mask evaluation requires a space of at most 64 tuples");
        let base = sig.len();
        sig.resize(base + self.sig_words, 0);
        for (i, per_answer) in masks.iter().enumerate() {
            if per_answer.iter().any(|&w| w & !mask == 0) {
                sig[base + i / 64] |= 1u64 << (i % 64);
            }
        }
    }

    /// Appends this query's answer-membership bits for a sampled world given
    /// as a bitset over the same space.
    pub fn push_answer_bits_world(&self, world: &BitSet, sig: &mut Vec<u64>) {
        let base = sig.len();
        sig.resize(base + self.sig_words, 0);
        for (i, per_answer) in self.bits.iter().enumerate() {
            if per_answer.iter().any(|w| w.is_subset_of(world)) {
                sig[base + i / 64] |= 1u64 << (i % 64);
            }
        }
    }

    /// Whether answer `i` is marked present in this query's signature slice
    /// (`sig` must start at this query's first word).
    pub fn answer_bit(&self, sig: &[u64], i: usize) -> bool {
        sig[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Decodes this query's signature slice into the full answer set.
    pub fn decode(&self, sig: &[u64]) -> qvsec_cq::eval::AnswerSet {
        self.answers
            .iter()
            .enumerate()
            .filter(|(i, _)| self.answer_bit(sig, *i))
            .map(|(_, a)| a.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvsec_cq::eval::evaluate;
    use qvsec_cq::parse_query;
    use qvsec_data::{Domain, Schema};

    fn setup() -> (Schema, Domain, TupleSpace) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let domain = Domain::with_constants(["a", "b"]);
        let space = TupleSpace::full(&schema, &domain).unwrap();
        (schema, domain, space)
    }

    #[test]
    fn compiled_answers_match_saturated_evaluation() {
        let (schema, mut domain, space) = setup();
        for text in [
            "V(x) :- R(x, y)",
            "S(y) :- R(x, y)",
            "Q() :- R('a', x), R(x, x)",
            "P(x, y) :- R(x, y), x != y",
        ] {
            let q = parse_query(text, &schema, &mut domain).unwrap();
            let compiled = CompiledQuery::compile(&q, &space);
            let saturated = Instance::from_tuples(space.iter().cloned());
            let expected: Vec<Answer> = evaluate(&q, &saturated).into_iter().collect();
            assert_eq!(compiled.answers(), &expected[..], "{text}");
        }
    }

    #[test]
    fn mask_evaluation_matches_instance_evaluation_on_every_world() {
        let (schema, mut domain, space) = setup();
        let q = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let compiled = CompiledQuery::compile(&q, &space);
        for (mask, instance) in space.instances().unwrap() {
            let mut sig = Vec::new();
            compiled.push_answer_bits_mask(mask, &mut sig);
            let decoded = compiled.decode(&sig);
            assert_eq!(decoded, evaluate(&q, &instance), "world {mask:b}");
            // the bitset form agrees with the mask form
            let world = qvsec_data::bitset::BitSet::from_mask(space.len(), mask);
            let mut sig_b = Vec::new();
            compiled.push_answer_bits_world(&world, &mut sig_b);
            assert_eq!(sig, sig_b);
        }
    }

    #[test]
    fn boolean_queries_compile_to_a_single_conditional_answer() {
        let (schema, mut domain, space) = setup();
        let q = parse_query("Q() :- R('a', x), R(x, x)", &schema, &mut domain).unwrap();
        let compiled = CompiledQuery::compile(&q, &space);
        assert_eq!(compiled.num_answers(), 1, "boolean: the empty answer");
        // Example 4.12: witnesses are {t0} and {t1, t3} in space order.
        let wits = compiled.witnesses_of(0);
        assert_eq!(wits.len(), 2);
        let sizes: Vec<usize> = wits.iter().map(|w| w.len()).collect();
        assert!(sizes.contains(&1) && sizes.contains(&2));
    }

    #[test]
    fn from_parts_rebuilds_an_identical_compilation() {
        let (schema, mut domain, space) = setup();
        let q = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let compiled = CompiledQuery::compile(&q, &space);
        let witnesses = (0..compiled.num_answers())
            .map(|i| compiled.witnesses_of(i).to_vec())
            .collect();
        let revived =
            CompiledQuery::from_parts(compiled.answers().to_vec(), witnesses, space.len());
        assert_eq!(revived.answers(), compiled.answers());
        assert_eq!(revived.sig_words(), compiled.sig_words());
        assert_eq!(revived.approx_bytes(), compiled.approx_bytes());
        for (mask, _) in space.instances().unwrap() {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            compiled.push_answer_bits_mask(mask, &mut a);
            revived.push_answer_bits_mask(mask, &mut b);
            assert_eq!(a, b, "world {mask:b}");
            let world = qvsec_data::bitset::BitSet::from_mask(space.len(), mask);
            let mut c = Vec::new();
            revived.push_answer_bits_world(&world, &mut c);
            assert_eq!(a, c);
        }
    }

    /// The minimality filter as defined: compare every pair of witnesses.
    fn minimal_by_every_pair(witnesses: &BTreeSet<Vec<usize>>) -> Vec<Vec<usize>> {
        witnesses
            .iter()
            .filter(|w| {
                !witnesses
                    .iter()
                    .any(|other| other.len() < w.len() && other.iter().all(|x| w.contains(x)))
            })
            .cloned()
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        // Random witness sets over 10 tuples, in one case of eight with the
        // empty witness: the first-element index keeps exactly the
        // witnesses the pairwise filter keeps, in the same order.
        #[test]
        fn minimal_equals_the_pairwise_filter(
            raw in proptest::collection::vec(proptest::collection::vec(0usize..10, 1..5), 0..40),
            empty in 0u8..8,
        ) {
            let mut witnesses: BTreeSet<Vec<usize>> = raw
                .into_iter()
                .map(|mut w| {
                    w.sort_unstable();
                    w.dedup();
                    w
                })
                .collect();
            if empty == 0 {
                witnesses.insert(Vec::new());
            }
            proptest::prop_assert_eq!(minimal(witnesses.clone()), minimal_by_every_pair(&witnesses));
        }
    }

    #[test]
    fn unsatisfiable_queries_compile_to_no_answers() {
        let (schema, mut domain, space) = setup();
        let q = parse_query("Q() :- R(x, x), x != x", &schema, &mut domain).unwrap();
        let compiled = CompiledQuery::compile(&q, &space);
        assert_eq!(compiled.num_answers(), 0);
        assert_eq!(compiled.sig_words(), 0);
        let mut sig = Vec::new();
        compiled.push_answer_bits_mask(0b1111, &mut sig);
        assert!(sig.is_empty());
        assert!(compiled.decode(&sig).is_empty());
    }
}
