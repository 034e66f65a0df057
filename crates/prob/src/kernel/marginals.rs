//! The bounded top-K selection and the exact fraction keys behind the
//! Section 6.1 report.
//!
//! The leakage walk ([`super::leakage`]) emits every pair with a positive
//! relative increase in the literal definition's order. Sorting them all
//! would cost memory in the number of pairs, which grows with the product
//! of the views' answer counts; [`TopViolations`] keeps a bounded top-K
//! (ordered by an explicit emission rank) whose output provably equals the
//! head of the definition's stable sort. With count weights the sort key is
//! a [`FracKey`], an unreduced fraction compared by cross-multiplication,
//! so no `Ratio` is built for a pair that is not reported.
//!
//! The oracles are the definitions themselves: on the exact path the
//! engine's reports are proptested equal to `leakage_exact` and
//! `is_totally_disclosed` (`crates/core/tests/proptests.rs`), and on the
//! Monte-Carlo path `super::mc_oracle` re-runs a Section 6.1 loop over the
//! pooled worlds with the very [`super::significant_f64`] arguments used
//! by the walk.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A non-negative fraction kept unreduced (the relative increase of a
/// Section 6.1 pair); ordering by cross-multiplication is exact and
/// allocation-free. Safe for totals up to
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

#[cfg(test)]
mod tests {
    use super::*;

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
