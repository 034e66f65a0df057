//! Definition 4.1 marginals computed directly over packed signatures, and
//! the bounded top-K selection the Definition 4.1 and Section 6.1 reports
//! share.
//!
//! The literal definition walks `(AnswerSet, Vec<AnswerSet>)` keys over
//! `BTreeMap`s of heap-heavy sets. This module computes the same verdict
//! without materializing a single `AnswerSet` until a violation is actually
//! reported:
//!
//! * marginals are accumulated per packed **slice** (the secret's words,
//!   the concatenated view words) in one pass over the signature list;
//! * the pair grid is walked in *decoded order* via [`cmp_packed`], a
//!   comparator that reproduces the `BTreeSet<Answer>` lexicographic order
//!   straight from the bits (compiled answers are sorted, so bit index
//!   equals answer rank);
//! * with uniform world mass (the paper's `p = 1/2` dictionaries, and the
//!   Monte-Carlo pool) weights stay `u64` counts end to end — the
//!   independence test is one `u128` cross-multiplication per pair and the
//!   `Ratio` normalization (gcd) is deferred to the at-most-`cap` entries
//!   that survive;
//! * the violation sort is replaced by a bounded top-K selection
//!   ([`TopViolations`], ordered by an explicit emission rank) whose output
//!   provably equals the head of the literal definition's stable sort.
//!
//! The Section 6.1 leakage measure is computed by [`super::leakage`], one
//! depth-first walk over the view combos that keeps its top entries in the
//! same [`TopViolations`] under [`FracKey`] or `Ratio` keys.
//!
//! The oracles are the definitions themselves. On the exact path the
//! engine's reports are proptested equal to `check_independence`,
//! `leakage_exact` and `is_totally_disclosed` (`crates/core/tests/
//! proptests.rs`, ½ and non-uniform dictionaries, one to three views), and
//! the kernel's own Definition 4.1 report serializes to the same bytes as
//! `check_independence` (`crates/prob/tests/marginal_equivalence.rs`). On
//! the Monte-Carlo path `super::mc_oracle` evaluates `S` and `V̄` on every
//! pooled world with `qvsec_cq::eval::evaluate`, runs the Definition 4.1
//! walk over the empirical joint distribution and a Section 6.1 loop over
//! the same worlds, and applies [`super::significant_f64`] with the very
//! arguments used here and in [`super::leakage`].

use super::compile::CompiledQuery;
use super::significant_f64;
use crate::independence::{IndependenceReport, Violation};
use qvsec_data::Ratio;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Compares two equal-width packed answer slices in the order of their
/// *decoded* `BTreeSet<Answer>`s (set-lexicographic over ascending answer
/// rank). Compiled answers are sorted, so the i-th bit is the i-th smallest
/// answer; the sets agree below the lowest differing bit `d`, whose holder
/// contributes `d` where the other side contributes either its next member
/// above `d` (larger) or nothing (exhausted, hence smaller).
pub(crate) fn cmp_packed(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    for w in 0..a.len() {
        if a[w] != b[w] {
            let d = (a[w] ^ b[w]).trailing_zeros();
            let a_holds = a[w] & (1u64 << d) != 0;
            let counter = if a_holds { b } else { a };
            let above_mask = !((1u64 << d) | ((1u64 << d) - 1));
            let counter_has_above =
                counter[w] & above_mask != 0 || counter[w + 1..].iter().any(|&word| word != 0);
            let holder = if counter_has_above {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            return if a_holds { holder } else { holder.reverse() };
        }
    }
    Ordering::Equal
}

/// Compares two concatenated view parts per view slice, in view order —
/// the packed equivalent of `Vec<AnswerSet>` lexicographic comparison.
fn cmp_view_parts(a: &[u64], b: &[u64], widths: &[usize]) -> Ordering {
    let mut at = 0;
    for &w in widths {
        match cmp_packed(&a[at..at + w], &b[at..at + w]) {
            Ordering::Equal => at += w,
            other => return other,
        }
    }
    Ordering::Equal
}

/// Distinct secret slices and view parts of a signature list, sorted in
/// decoded order, with rank lookup maps.
struct PackedIndex<'a> {
    secrets: Vec<&'a [u64]>,
    views: Vec<&'a [u64]>,
    secret_rank: HashMap<&'a [u64], u32>,
    view_rank: HashMap<&'a [u64], u32>,
}

fn build_index<'a, W>(entries: &[(&'a [u64], W)], offsets: &[usize]) -> PackedIndex<'a> {
    let split = offsets[1];
    let widths: Vec<usize> = offsets[1..].windows(2).map(|w| w[1] - w[0]).collect();
    let mut secret_rank: HashMap<&[u64], u32> = HashMap::new();
    let mut view_rank: HashMap<&[u64], u32> = HashMap::new();
    for (sig, _) in entries {
        let (s, v) = sig.split_at(split);
        secret_rank.entry(s).or_insert(0);
        view_rank.entry(v).or_insert(0);
    }
    let mut secrets: Vec<&[u64]> = secret_rank.keys().copied().collect();
    secrets.sort_unstable_by(|a, b| cmp_packed(a, b));
    let mut views: Vec<&[u64]> = view_rank.keys().copied().collect();
    views.sort_unstable_by(|a, b| cmp_view_parts(a, b, &widths));
    for (i, s) in secrets.iter().enumerate() {
        secret_rank.insert(s, i as u32);
    }
    for (i, v) in views.iter().enumerate() {
        view_rank.insert(v, i as u32);
    }
    PackedIndex {
        secrets,
        views,
        secret_rank,
        view_rank,
    }
}

/// A non-negative fraction kept unreduced (`|posterior − prior|` for
/// Definition 4.1, the relative increase for Section 6.1); ordering by
/// cross-multiplication is exact and allocation-free. Safe for totals up to
/// `2^31` (numerator and denominator then fit `2^62`, products `2^124`).
#[derive(Clone, Copy)]
pub(super) struct FracKey {
    pub(super) num: u128,
    pub(super) den: u128,
}

impl Ord for FracKey {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl PartialOrd for FracKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for FracKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for FracKey {}

/// One reported pair: its sort key, emission rank (for the stable
/// tie-break) and whatever the report needs to materialize it. `Ord` is
/// "better first": larger key, then earlier emission.
pub(super) struct Cand<K, T> {
    key: K,
    pub(super) idx: u64,
    pub(super) item: T,
}

impl<K: Ord, T> Ord for Cand<K, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

impl<K: Ord, T> PartialOrd for Cand<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, T> PartialEq for Cand<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K: Ord, T> Eq for Cand<K, T> {}

/// Collects reported pairs, keeping either everything (`cap = None`) or a
/// bounded top-K whose final order equals the head of a stable
/// `sort_by_key(Reverse(key))` over emission order. Emission ranks must be
/// distinct and increase in the definition's emission order.
pub(super) struct TopViolations<K: Ord + Copy, T> {
    cap: Option<usize>,
    all: Vec<Cand<K, T>>,
    heap: BinaryHeap<Reverse<Cand<K, T>>>,
    total: usize,
}

impl<K: Ord + Copy, T> TopViolations<K, T> {
    pub(super) fn new(cap: Option<usize>) -> Self {
        TopViolations {
            cap,
            all: Vec::new(),
            heap: BinaryHeap::new(),
            total: 0,
        }
    }

    pub(super) fn push(&mut self, key: K, idx: u64, item: T) {
        let cand = Cand { key, idx, item };
        self.total += 1;
        match self.cap {
            None => self.all.push(cand),
            Some(cap) => {
                if self.heap.len() < cap {
                    self.heap.push(Reverse(cand));
                } else if let Some(worst) = self.heap.peek() {
                    if cand > worst.0 {
                        self.heap.pop();
                        self.heap.push(Reverse(cand));
                    }
                }
            }
        }
    }

    /// The kept candidates, best first (identical to the first
    /// `min(cap, total)` entries of the stable sort), and the number pushed.
    pub(super) fn into_sorted(self) -> (Vec<Cand<K, T>>, usize) {
        let total = self.total;
        let sorted = match self.cap {
            None => {
                let mut all = self.all;
                all.sort_by(|a, b| b.cmp(a));
                all
            }
            Some(_) => self
                .heap
                .into_sorted_vec()
                .into_iter()
                .map(|r| r.0)
                .collect(),
        };
        (sorted, total)
    }
}

/// Joint-weight lookup: a dense rank-by-rank matrix up to this many cells,
/// a hash map beyond it.
const DENSE_LIMIT: usize = 1 << 22;

enum Joint<W> {
    Dense(Vec<W>, usize),
    Sparse(HashMap<(u32, u32), W>),
}

impl<W: Copy + Default + std::ops::AddAssign> Joint<W> {
    fn build<'a>(entries: &[(&'a [u64], W)], index: &PackedIndex<'a>, split: usize) -> Joint<W> {
        let (ns, nv) = (index.secrets.len(), index.views.len());
        if ns.saturating_mul(nv) <= DENSE_LIMIT {
            let mut cells = vec![W::default(); ns * nv];
            for (sig, w) in entries {
                let (s, v) = sig.split_at(split);
                let si = index.secret_rank[s] as usize;
                let vi = index.view_rank[v] as usize;
                cells[si * nv + vi] += *w;
            }
            Joint::Dense(cells, nv)
        } else {
            let mut cells: HashMap<(u32, u32), W> = HashMap::new();
            for (sig, w) in entries {
                let (s, v) = sig.split_at(split);
                *cells
                    .entry((index.secret_rank[s], index.view_rank[v]))
                    .or_default() += *w;
            }
            Joint::Sparse(cells)
        }
    }

    fn get(&self, s: u32, v: u32) -> W {
        match self {
            Joint::Dense(cells, nv) => cells[s as usize * nv + v as usize],
            Joint::Sparse(cells) => cells.get(&(s, v)).copied().unwrap_or_default(),
        }
    }
}

fn materialize_violations<K: Ord + Copy>(
    kept: Vec<Cand<K, (u32, u32)>>,
    compiled: &[Arc<CompiledQuery>],
    offsets: &[usize],
    index: &PackedIndex<'_>,
    ratios: impl Fn(u32, u32) -> (Ratio, Ratio),
) -> Vec<Violation> {
    let widths: Vec<usize> = offsets[1..].windows(2).map(|w| w[1] - w[0]).collect();
    kept.into_iter()
        .map(|c| {
            let (s, v) = c.item;
            let (prior, posterior) = ratios(s, v);
            let view_part = index.views[v as usize];
            let mut at = 0;
            let view_answers = compiled[1..]
                .iter()
                .zip(&widths)
                .map(|(q, &w)| {
                    let ans = q.decode(&view_part[at..at + w]);
                    at += w;
                    ans
                })
                .collect();
            Violation {
                query_answer: compiled[0].decode(index.secrets[s as usize]),
                view_answers,
                prior,
                posterior,
            }
        })
        .collect()
}

/// The Definition 4.1 independence verdict from **count** weights (uniform
/// world mass: the exact path over an all-`1/2` dictionary with `total =
/// 2^n`, or the Monte-Carlo pool with `total = |pool|`). With `mc_filter`
/// only deviations passing the 3σ test [`significant_f64`] are violations.
pub(crate) fn independence_packed_counts(
    compiled: &[Arc<CompiledQuery>],
    offsets: &[usize],
    entries: &[(&[u64], u64)],
    total: u64,
    mc_filter: bool,
    cap: Option<usize>,
) -> IndependenceReport {
    assert!(total <= 1 << 31, "count totals above 2^31 are unsupported");
    let split = offsets[1];
    let index = build_index(entries, offsets);
    let mut secret_mass = vec![0u64; index.secrets.len()];
    let mut view_mass = vec![0u64; index.views.len()];
    for (sig, c) in entries {
        let (s, v) = sig.split_at(split);
        secret_mass[index.secret_rank[s] as usize] += c;
        view_mass[index.view_rank[v] as usize] += c;
    }
    let joint = Joint::<u64>::build(entries, &index, split);

    let n_f = total as f64;
    let mut top = TopViolations::new(cap);
    let mut pairs = 0usize;
    for (si, &c_s) in secret_mass.iter().enumerate() {
        for (vi, &c_v) in view_mass.iter().enumerate() {
            pairs += 1;
            let c_j = joint.get(si as u32, vi as u32);
            // posterior != prior  ⟺  c_j/c_v != c_s/total, cross-multiplied.
            let lhs = c_j as u128 * total as u128;
            let rhs = c_s as u128 * c_v as u128;
            if lhs == rhs {
                continue;
            }
            if mc_filter
                && !significant_f64(c_s as f64 / n_f, c_j as f64 / c_v as f64, n_f, c_v as f64)
            {
                continue;
            }
            top.push(
                FracKey {
                    num: lhs.abs_diff(rhs),
                    den: c_v as u128 * total as u128,
                },
                pairs as u64,
                (si as u32, vi as u32),
            );
        }
    }
    let (kept, violating) = top.into_sorted();
    let violations = materialize_violations(kept, compiled, offsets, &index, |s, v| {
        (
            Ratio::new(secret_mass[s as usize] as i128, total as i128),
            Ratio::new(joint.get(s, v) as i128, view_mass[v as usize] as i128),
        )
    });
    IndependenceReport {
        independent: violating == 0,
        violations,
        pairs_checked: pairs,
    }
}

/// The Definition 4.1 independence verdict from exact **mass** weights
/// (general dictionaries on the exact path). Same walk as the count path,
/// with `Ratio` marginals and `(posterior − prior).abs()` sort keys.
pub(crate) fn independence_packed_masses(
    compiled: &[Arc<CompiledQuery>],
    offsets: &[usize],
    entries: &[(&[u64], Ratio)],
    cap: Option<usize>,
) -> IndependenceReport {
    let split = offsets[1];
    let index = build_index(entries, offsets);
    let mut secret_mass = vec![Ratio::ZERO; index.secrets.len()];
    let mut view_mass = vec![Ratio::ZERO; index.views.len()];
    let mut total = Ratio::ZERO;
    for (sig, p) in entries {
        let (s, v) = sig.split_at(split);
        secret_mass[index.secret_rank[s] as usize] += *p;
        view_mass[index.view_rank[v] as usize] += *p;
        total += *p;
    }
    let joint = Joint::<Ratio>::build(entries, &index, split);

    let mut top = TopViolations::new(cap);
    let mut pairs = 0usize;
    let mut priors = Vec::with_capacity(index.secrets.len());
    for &p_s in &secret_mass {
        priors.push(p_s / total);
    }
    let posterior_of = |s: u32, v: u32| joint.get(s, v) / view_mass[v as usize];
    for (si, prior) in priors.iter().copied().enumerate() {
        for (vi, p_v) in view_mass.iter().enumerate() {
            if p_v.is_zero() {
                continue;
            }
            pairs += 1;
            let posterior = posterior_of(si as u32, vi as u32);
            if posterior != prior {
                top.push(
                    (posterior - prior).abs(),
                    pairs as u64,
                    (si as u32, vi as u32),
                );
            }
        }
    }
    let (kept, violating) = top.into_sorted();
    let violations = materialize_violations(kept, compiled, offsets, &index, |s, v| {
        (priors[s as usize], joint.get(s, v) / view_mass[v as usize])
    });
    IndependenceReport {
        independent: violating == 0,
        violations,
        pairs_checked: pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvsec_cq::eval::AnswerSet;

    /// Decodes a slice over `n` synthetic single-value answers, mirroring
    /// how compiled bit ranks map onto sorted answers.
    fn decode_set(slice: &[u64], n: usize) -> AnswerSet {
        (0..n)
            .filter(|i| slice[i / 64] & (1u64 << (i % 64)) != 0)
            .map(|i| vec![qvsec_data::Value(i as u32)])
            .collect()
    }

    #[test]
    fn packed_order_matches_decoded_btreeset_order_exhaustively() {
        // Every pair of 6-bit subsets, single word.
        for a in 0u64..64 {
            for b in 0u64..64 {
                let (sa, sb) = (decode_set(&[a], 6), decode_set(&[b], 6));
                assert_eq!(cmp_packed(&[a], &[b]), sa.cmp(&sb), "a={a:b} b={b:b}");
            }
        }
    }

    #[test]
    fn packed_order_matches_decoded_order_across_word_boundaries() {
        // 70-answer space: bits spill into a second word.
        let patterns: Vec<[u64; 2]> = vec![
            [0, 0],
            [1, 0],
            [1 << 63, 0],
            [0, 1],
            [0, 3],
            [u64::MAX, 0],
            [u64::MAX, 0x3f],
            [1 << 63, 1],
            [5, 2],
            [4, 2],
        ];
        for a in &patterns {
            for b in &patterns {
                let (sa, sb) = (decode_set(a, 70), decode_set(b, 70));
                assert_eq!(cmp_packed(a, b), sa.cmp(&sb), "a={a:?} b={b:?}");
            }
        }
    }

    #[test]
    fn frac_key_orders_like_exact_fractions() {
        let k = |num: u128, den: u128| FracKey { num, den };
        assert!(k(1, 3) < k(1, 2));
        assert!(k(2, 4) == k(1, 2));
        assert!(k(3, 4) > k(2, 3));
        assert!(k(0, 7) == k(0, 9));
    }

    #[test]
    fn top_k_selection_equals_the_stable_sort_head() {
        // Keys with many ties: the kept list must match the first K of a
        // stable descending sort over emission order.
        let keys: Vec<u64> = vec![5, 3, 5, 1, 4, 5, 3, 2, 4, 5, 0, 4];
        for cap in 0..keys.len() + 2 {
            let mut capped = TopViolations::new(Some(cap));
            let mut full = TopViolations::new(None);
            for (i, &k) in keys.iter().enumerate() {
                capped.push(k, i as u64, ());
                full.push(k, i as u64, ());
            }
            let (kept, total) = capped.into_sorted();
            let (all, _) = full.into_sorted();
            assert_eq!(total, keys.len());
            let want: Vec<(u64, u64)> = all.iter().take(cap).map(|c| (c.key, c.idx)).collect();
            let got: Vec<(u64, u64)> = kept.iter().map(|c| (c.key, c.idx)).collect();
            assert_eq!(got, want, "cap {cap}");
        }
    }
}
