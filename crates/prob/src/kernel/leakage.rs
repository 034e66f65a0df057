//! The Section 6.1 leakage measure as one depth-first walk over the view
//! combos, on vertical answer bitmaps.
//!
//! `leak(S, V̄)` is a supremum over every pair of one secret answer `s` and
//! one answer per view `v̄` (a *combo*). The walk keeps one bitmap per
//! `(query, answer)` over the audit's rows — the pooled worlds on the
//! Monte-Carlo path, the distinct signatures on the exact paths — and visits
//! the combos in the enumeration baseline's order (earlier views vary
//! slowest). Each prefix's AND is computed once and shared by all its
//! extensions, and a prefix no row supports is skipped whole: every combo
//! below it has conditioning mass 0, which the definition skips anyway.
//!
//! At a combo the conditioning mass and each secret answer's joint mass are
//! sums over the supporting rows — popcounts when every row is one world.
//! With count weights the per-pair test is integer (`c_j·total >
//! c_prior·c_cond` in `u128`), the Monte-Carlo filter gets the same `f64`
//! arguments the definition's `Ratio`s would give it, and a bounded top-K
//! keeps the stable head of the descending sort. `Ratio`s are built only
//! for the kept entries and the witness; `pairs_checked` is a closed form.

use super::compile::CompiledQuery;
use super::marginals::{FracKey, TopViolations};
use super::{significant_f64, KernelLeakEntry, KernelLeakage};
use qvsec_data::Ratio;
use std::sync::Arc;

/// `∏ answers[1..]` (the view combos), provided `answers[0]` times it —
/// the number of §6.1 pairs, secret first — fits a `u64`.
pub(crate) fn checked_combos(answers: &[usize]) -> Option<u64> {
    answers[1..]
        .iter()
        .try_fold(1u64, |acc, &n| acc.checked_mul(n as u64))
        .filter(|c| c.checked_mul(answers[0] as u64).is_some())
}

/// One bitmap per `(query, answer)` over a fixed list of rows: bit `r` of
/// answer `a`'s bitmap is set iff row `r`'s answer set holds `a`.
pub(crate) struct AnswerBitmaps {
    rows: usize,
    words: usize,
    /// Per query (secret first): its number of answers.
    answers: Vec<usize>,
    /// Per query: `answers × words` words, answer-major.
    maps: Vec<Vec<u64>>,
}

impl AnswerBitmaps {
    /// Transposes row-major answer bits: `slice(q, r)` is query `q`'s packed
    /// answer slice on row `r`.
    fn transpose<'a>(
        compiled: &[Arc<CompiledQuery>],
        rows: usize,
        slice: impl Fn(usize, usize) -> &'a [u64],
    ) -> Self {
        let words = rows.div_ceil(64);
        let maps = compiled
            .iter()
            .enumerate()
            .map(|(q, query)| {
                let mut map = vec![0u64; query.num_answers() * words];
                for r in 0..rows {
                    for_each_set_bit(slice(q, r).iter().copied(), |a| {
                        map[a * words + r / 64] |= 1u64 << (r % 64);
                    });
                }
                map
            })
            .collect();
        AnswerBitmaps {
            rows,
            words,
            answers: compiled.iter().map(|q| q.num_answers()).collect(),
            maps,
        }
    }

    /// Rows are the pool's worlds, read from each query's world-major
    /// column (`sig_words` words per world).
    pub(crate) fn from_columns(
        compiled: &[Arc<CompiledQuery>],
        columns: &[Arc<Vec<u64>>],
        worlds: usize,
    ) -> Self {
        Self::transpose(compiled, worlds, |q, r| {
            let w = compiled[q].sig_words();
            &columns[q][r * w..(r + 1) * w]
        })
    }

    /// Rows are the given signatures, in order; `offsets` are the word
    /// offsets of each query's slice.
    pub(crate) fn from_signatures(
        compiled: &[Arc<CompiledQuery>],
        offsets: &[usize],
        sigs: &[&[u64]],
    ) -> Self {
        Self::transpose(compiled, sigs.len(), |q, r| {
            &sigs[r][offsets[q]..offsets[q + 1]]
        })
    }

    fn map(&self, q: usize, a: usize) -> &[u64] {
        &self.maps[q][a * self.words..(a + 1) * self.words]
    }

    /// Number of combos, `∏ answers` over the views (1 with no views).
    /// Every emission rank (see [`emission`]) is below `answers[0]` times
    /// this; [`super::ProbKernel::evaluate`] refuses audits where that
    /// product overflows a `u64` ([`checked_combos`]).
    fn combos(&self) -> u64 {
        checked_combos(&self.answers).expect("leakage pairs overflow u64")
    }

    /// Calls `leaf(rank, support)` for every combo some row supports, in
    /// rank order, where `rank` is the combo's mixed-radix rank (earlier
    /// views most significant) and `support` holds the rows carrying every
    /// answer of the combo. With no views the one (empty) combo is
    /// supported by every row.
    fn walk(&self, leaf: &mut impl FnMut(u64, &[u64])) {
        let mut levels = vec![0u64; self.answers.len() * self.words];
        for (i, word) in levels[..self.words].iter_mut().enumerate() {
            // Rows 64·i onwards; the last word holds 1 to 64 of them.
            *word = u64::MAX >> (64 - (self.rows - 64 * i).min(64));
        }
        self.descend(1, 0, &mut levels, leaf);
    }

    fn descend(&self, q: usize, rank: u64, levels: &mut [u64], leaf: &mut impl FnMut(u64, &[u64])) {
        let (prefix, rest) = levels.split_at_mut(self.words);
        if q == self.answers.len() {
            return leaf(rank, prefix);
        }
        let n = self.answers[q];
        for a in 0..n {
            let mut any = 0;
            for ((next, &p), &m) in rest.iter_mut().zip(&*prefix).zip(self.map(q, a)) {
                *next = p & m;
                any |= *next;
            }
            if any != 0 {
                self.descend(q + 1, rank * n as u64 + a as u64, rest, leaf);
            }
        }
    }

    /// The answer-index combo of a mixed-radix rank.
    fn combo_of(&self, mut rank: u64) -> Vec<usize> {
        let mut combo: Vec<usize> = self.answers[1..]
            .iter()
            .rev()
            .map(|&n| {
                let a = (rank % n as u64) as usize;
                rank /= n as u64;
                a
            })
            .collect();
        combo.reverse();
        combo
    }
}

/// Calls `f` with the index of every set bit of `words`, ascending.
fn for_each_set_bit(words: impl Iterator<Item = u64>, mut f: impl FnMut(usize)) {
    for (wi, word) in words.enumerate() {
        let mut b = word;
        while b != 0 {
            f(wi * 64 + b.trailing_zeros() as usize);
            b &= b - 1;
        }
    }
}

/// Total count of the rows set in `bits`: `weights[r]` worlds for row `r`,
/// or one world per row (`None`), which is a popcount.
fn count(bits: impl Iterator<Item = u64>, weights: Option<&[u64]>) -> u64 {
    match weights {
        None => bits.map(|b| b.count_ones() as u64).sum(),
        Some(weights) => {
            let mut total = 0;
            for_each_set_bit(bits, |r| total += weights[r]);
            total
        }
    }
}

/// Total mass of the rows set in `bits`, added in row order.
fn mass(bits: impl Iterator<Item = u64>, weights: &[Ratio]) -> Ratio {
    let mut total = Ratio::ZERO;
    for_each_set_bit(bits, |r| total += weights[r]);
    total
}

/// The rows of `support` that also hold answer `a` of the secret.
fn joint<'a>(
    maps: &'a AnswerBitmaps,
    support: &'a [u64],
    a: usize,
) -> impl Iterator<Item = u64> + 'a {
    support.iter().zip(maps.map(0, a)).map(|(s, m)| s & m)
}

/// Assembles the report from the kept candidates (best first): the head is
/// the witness, the first `cap` are the reported entries. `ratios` gives a
/// candidate's prior, posterior and relative increase.
fn finish<K: Ord + Copy, T>(
    compiled: &[Arc<CompiledQuery>],
    maps: &AnswerBitmaps,
    top: TopViolations<K, T>,
    live: usize,
    cap: Option<usize>,
    ratios: impl Fn(usize, &T) -> (Ratio, Ratio, Ratio),
) -> KernelLeakage {
    let combos = maps.combos();
    let (kept, _) = top.into_sorted();
    let entry = |idx: u64, item: &T| {
        let answer = (idx / combos) as usize;
        let (prior, posterior, relative_increase) = ratios(answer, item);
        KernelLeakEntry {
            query_answer: compiled[0].answers()[answer].clone(),
            view_answers: compiled[1..]
                .iter()
                .zip(maps.combo_of(idx % combos))
                .map(|(v, a)| v.answers()[a].clone())
                .collect(),
            prior,
            posterior,
            relative_increase,
        }
    };
    let mut report = KernelLeakage {
        pairs_checked: live * combos as usize,
        ..KernelLeakage::default()
    };
    if let Some(head) = kept.first() {
        let witness = entry(head.idx, &head.item);
        report.max_leak = witness.relative_increase;
        report.witness = Some(witness);
    }
    let keep = cap.unwrap_or(usize::MAX).min(kept.len());
    report.positive_entries = kept[..keep].iter().map(|c| entry(c.idx, &c.item)).collect();
    report
}

/// The top-K store of one walk: everything with `cap = None`, else the
/// best `cap` — but at least one, so the witness survives `Some(0)`.
fn top_store<K: Ord + Copy, T>(cap: Option<usize>) -> TopViolations<K, T> {
    TopViolations::new(cap.map(|c| c.max(1)))
}

/// Emission rank of the pair (secret answer `a`, combo `rank`): the
/// definition emits answer-major, so ties keep that order.
fn emission(a: usize, combos: u64, rank: u64) -> u64 {
    a as u64 * combos + rank
}

/// The Section 6.1 measure from **count** weights: `weights[r]` worlds per
/// row (the exact path over an all-`1/2` dictionary, `total = 2^n`) or one
/// world per row (`None`, the Monte-Carlo pool, `total = |pool|`). With
/// `mc_filter` only increases passing the 3σ test [`significant_f64`] are
/// reported.
pub(crate) fn leakage_counts(
    compiled: &[Arc<CompiledQuery>],
    maps: &AnswerBitmaps,
    weights: Option<&[u64]>,
    total: u64,
    mc_filter: bool,
    cap: Option<usize>,
) -> KernelLeakage {
    assert!(total <= 1 << 31, "count totals above 2^31 are unsupported");
    let combos = maps.combos();
    let priors: Vec<u64> = (0..maps.answers[0])
        .map(|a| count(maps.map(0, a).iter().copied(), weights))
        .collect();
    let live: Vec<usize> = (0..priors.len()).filter(|&a| priors[a] > 0).collect();
    let n_f = total as f64;
    let mut top = top_store(cap);
    maps.walk(&mut |rank, support| {
        let c_cond = count(support.iter().copied(), weights);
        if c_cond == 0 {
            return;
        }
        for &a in &live {
            let c_j = count(joint(maps, support, a), weights);
            // posterior > prior  ⟺  c_j/c_cond > c_prior/total.
            let gain = c_j as u128 * total as u128;
            let base = priors[a] as u128 * c_cond as u128;
            if gain <= base {
                continue;
            }
            if mc_filter
                && !significant_f64(
                    priors[a] as f64 / n_f,
                    c_j as f64 / c_cond as f64,
                    n_f,
                    (c_cond as f64 / n_f * n_f).max(1.0),
                )
            {
                continue;
            }
            let key = FracKey {
                num: gain - base,
                den: base,
            };
            top.push(key, emission(a, combos, rank), (c_j, c_cond));
        }
    });
    finish(compiled, maps, top, live.len(), cap, |a, &(c_j, c_cond)| {
        let prior = Ratio::new(priors[a] as i128, total as i128);
        let posterior = Ratio::new(c_j as i128, c_cond as i128);
        (prior, posterior, (posterior - prior) / prior)
    })
}

/// The Section 6.1 measure from exact **mass** weights (general
/// dictionaries on the exact path): `weights[r]` is row `r`'s probability.
/// Every positive relative increase is reported.
pub(crate) fn leakage_masses(
    compiled: &[Arc<CompiledQuery>],
    maps: &AnswerBitmaps,
    weights: &[Ratio],
    cap: Option<usize>,
) -> KernelLeakage {
    let combos = maps.combos();
    let priors: Vec<Ratio> = (0..maps.answers[0])
        .map(|a| mass(maps.map(0, a).iter().copied(), weights))
        .collect();
    let live: Vec<usize> = (0..priors.len())
        .filter(|&a| !priors[a].is_zero())
        .collect();
    let mut top = top_store(cap);
    maps.walk(&mut |rank, support| {
        let cond = mass(support.iter().copied(), weights);
        if cond.is_zero() {
            return;
        }
        for &a in &live {
            let posterior = mass(joint(maps, support, a), weights) / cond;
            let relative = (posterior - priors[a]) / priors[a];
            if relative > Ratio::ZERO {
                top.push(relative, emission(a, combos, rank), posterior);
            }
        }
    });
    finish(compiled, maps, top, live.len(), cap, |a, &posterior| {
        let relative = (posterior - priors[a]) / priors[a];
        (priors[a], posterior, relative)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A compiled query with `n` synthetic answers and no witnesses: only
    /// its answer count matters to the bitmaps.
    fn query(n: usize) -> Arc<CompiledQuery> {
        let answers = (0..n).map(|i| vec![qvsec_data::Value(i as u32)]).collect();
        Arc::new(CompiledQuery::from_parts(answers, vec![Vec::new(); n], 4))
    }

    #[test]
    fn the_walk_visits_supported_combos_in_enumeration_order() {
        // Secret with one answer, views with 2 and 3 answers; rows give
        // each view one answer, so row r supports exactly one combo.
        let compiled = vec![query(1), query(2), query(3)];
        let offsets = [0, 1, 2, 3];
        let rows: Vec<[u64; 3]> = vec![[1, 0b10, 0b100], [1, 0b01, 0b010], [1, 0b10, 0b001]];
        let sigs: Vec<&[u64]> = rows.iter().map(|r| r.as_slice()).collect();
        let maps = AnswerBitmaps::from_signatures(&compiled, &offsets, &sigs);
        assert_eq!(maps.combos(), 6);
        let mut seen = Vec::new();
        maps.walk(&mut |rank, support| seen.push((rank, maps.combo_of(rank), support[0])));
        assert_eq!(
            seen,
            vec![
                (1, vec![0, 1], 0b010),
                (3, vec![1, 0], 0b100),
                (5, vec![1, 2], 0b001),
            ]
        );
    }

    #[test]
    fn no_views_is_one_combo_over_every_row_and_an_empty_view_is_none() {
        let rows: Vec<[u64; 2]> = (0..70).map(|r| [1, r % 2]).collect();
        let sigs: Vec<&[u64]> = rows.iter().map(|r| r.as_slice()).collect();
        let alone = AnswerBitmaps::from_signatures(&[query(1)], &[0, 1], &sigs);
        let mut leaves = Vec::new();
        alone.walk(&mut |rank, support| leaves.push((rank, count(support.iter().copied(), None))));
        assert_eq!(leaves, vec![(0, 70)]);

        let empty_view = AnswerBitmaps::from_signatures(&[query(1), query(0)], &[0, 1, 1], &sigs);
        assert_eq!(empty_view.combos(), 0);
        empty_view.walk(&mut |_, _| panic!("a view without answers has no combos"));
    }
}
