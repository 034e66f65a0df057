//! The exact path: stream every world of the tuple space as a `u64` mask.
//!
//! The enumeration baseline materializes an [`qvsec_data::Instance`] per
//! world (one `BTreeSet` plus `n` tuple clones each) and runs a fresh
//! homomorphism search per query per world. The kernel instead walks the
//! `2^n` masks directly: a world's answer signature is a few witness-mask
//! containment tests, and its probability is either a popcount table lookup
//! (uniform dictionaries — the paper's `p = 1/2` models) or one product of
//! per-tuple factors. The leakage and total-disclosure passes are both
//! served from the resulting **signature distribution**, so the tuple space
//! is enumerated exactly once per audit instead of once per
//! `(answer, view-answer)` pair. Only dependent pairs get here: the kernel
//! decides independence from critical tuples first.

use super::compile::CompiledQuery;
use super::stats::ProbStats;
use qvsec_data::bitset::MAX_ENUMERABLE;
use qvsec_data::{DataError, Dictionary, Ratio};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// The joint distribution of answer signatures: one entry per distinct
/// `(S(I), V̄(I))` outcome, keyed by the packed answer-membership bits of
/// every compiled query (secret first, then each view).
#[derive(Debug, Clone, Default)]
pub struct SignatureDistribution {
    /// Signature → accumulated probability mass (only positive masses).
    pub entries: HashMap<Vec<u64>, Ratio>,
}

impl SignatureDistribution {
    /// Total accumulated mass (1 for a dictionary without degenerate
    /// tuples; still 1 with them, since zero-probability worlds carry no
    /// mass).
    pub fn total_mass(&self) -> Ratio {
        self.entries.values().copied().sum()
    }
}

/// Signature → number of streamed worlds exhibiting it (uniform-mass
/// dictionaries, where a count stands for `count / total` of the mass).
#[derive(Debug, Clone, Default)]
pub struct SignatureCounts {
    /// Distinct signatures with their multiplicities.
    pub counts: HashMap<Vec<u64>, u64>,
    /// Total number of worlds counted (`2^n`).
    pub total: u64,
}

/// Per-world probability evaluation, with a popcount fast path for uniform
/// dictionaries.
enum MaskProbability {
    /// All tuples share one probability: `P[mask] = p^k (1-p)^(n-k)` depends
    /// only on the popcount `k`; the table holds all `n + 1` values.
    Uniform(Vec<Ratio>),
    /// General per-tuple probabilities (`probs[i]`, `complements[i]`).
    General(Vec<Ratio>, Vec<Ratio>),
}

impl MaskProbability {
    fn build(dict: &Dictionary) -> MaskProbability {
        let probs = dict.probabilities();
        if let Some(&first) = probs.first() {
            if probs.iter().all(|&p| p == first) {
                let n = probs.len();
                let q = first.complement();
                let table = (0..=n)
                    .map(|k| first.pow(k as u32) * q.pow((n - k) as u32))
                    .collect();
                return MaskProbability::Uniform(table);
            }
        }
        MaskProbability::General(
            probs.to_vec(),
            probs.iter().map(|p| p.complement()).collect(),
        )
    }

    fn of(&self, mask: u64) -> Ratio {
        match self {
            MaskProbability::Uniform(table) => table[mask.count_ones() as usize],
            MaskProbability::General(probs, complements) => {
                let mut p = Ratio::ONE;
                for (i, (&yes, &no)) in probs.iter().zip(complements).enumerate() {
                    p *= if mask & (1u64 << i) != 0 { yes } else { no };
                    if p.is_zero() {
                        return Ratio::ZERO;
                    }
                }
                p
            }
        }
    }
}

/// Streams every world of the dictionary's tuple space and accumulates the
/// signature distribution of the compiled queries. Worlds with zero
/// probability are skipped (they carry no mass). Errors if the space
/// exceeds [`MAX_ENUMERABLE`].
pub fn stream_exact(
    dict: &Dictionary,
    compiled: &[Arc<CompiledQuery>],
    stats: &ProbStats,
) -> Result<SignatureDistribution, DataError> {
    let prob = MaskProbability::build(dict);
    let entries = stream(dict.len(), compiled, stats, Ratio::ZERO, |mask| {
        Some(prob.of(mask)).filter(|p| !p.is_zero())
    })?;
    Ok(SignatureDistribution { entries })
}

/// Streams every world of a **uniform-mass** dictionary (all tuple
/// probabilities `1/2`, so every mask carries `2^-n`) and counts the
/// signature histogram — no `Ratio` arithmetic per world at all. The
/// resulting [`SignatureCounts`] with `total = 2^n` carries exactly the
/// information of [`stream_exact`]'s distribution (each mass is
/// `count / 2^n`); the analysis defers that normalization to the reported
/// entries. Chunking matches [`stream_exact`], so the counts are
/// independent of the worker-thread count.
pub fn stream_exact_counts(
    dict: &Dictionary,
    compiled: &[Arc<CompiledQuery>],
    stats: &ProbStats,
) -> Result<SignatureCounts, DataError> {
    debug_assert!(
        dict.probabilities().iter().all(|&p| p == Ratio::new(1, 2)),
        "count streaming requires uniform 1/2 tuple probabilities"
    );
    let counts = stream(dict.len(), compiled, stats, 0, |_| Some(1))?;
    Ok(SignatureCounts {
        counts,
        total: 1u64 << dict.len(),
    })
}

/// Streams the `2^n` world masks and sums `weight(mask)` per signature,
/// skipping worlds it weighs `None`. Fixed-size chunks of the mask range
/// are accumulated by the workers and merged in chunk order; the chunk
/// count is independent of the thread count, so the arithmetic (hence the
/// result) never depends on scheduling.
fn stream<W: Copy + Send + Sync + std::ops::AddAssign>(
    n: usize,
    compiled: &[Arc<CompiledQuery>],
    stats: &ProbStats,
    zero: W,
    weight: impl Fn(u64) -> Option<W> + Sync,
) -> Result<HashMap<Vec<u64>, W>, DataError> {
    if n > MAX_ENUMERABLE {
        return Err(DataError::EnumerationTooLarge(n));
    }
    let worlds: u64 = 1u64 << n;
    let chunk_len: u64 = (worlds >> 6).clamp(1, 1 << 14);
    let chunks: Vec<u64> = (0..worlds.div_ceil(chunk_len)).collect();
    let partials: Vec<HashMap<Vec<u64>, W>> = chunks
        .par_iter()
        .map(|&c| {
            let lo = c * chunk_len;
            let hi = (lo + chunk_len).min(worlds);
            let mut local: HashMap<Vec<u64>, W> = HashMap::new();
            let mut sig = Vec::new();
            for mask in lo..hi {
                let Some(w) = weight(mask) else { continue };
                sig.clear();
                for q in compiled {
                    q.push_answer_bits_mask(mask, &mut sig);
                }
                *local.entry(sig.clone()).or_insert(zero) += w;
            }
            local
        })
        .collect();
    let mut out = HashMap::new();
    for partial in partials {
        for (sig, w) in partial {
            *out.entry(sig).or_insert(zero) += w;
        }
    }
    stats.add_exact_worlds(worlds);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvsec_cq::parse_query;
    use qvsec_data::{Domain, Schema, TupleSpace};

    #[test]
    fn uniform_and_general_probability_paths_agree() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let domain = Domain::with_constants(["a", "b"]);
        let space = TupleSpace::full(&schema, &domain).unwrap();
        let uniform = Dictionary::half(space.clone());
        let skewed = Dictionary::from_probabilities(
            space,
            vec![
                Ratio::new(1, 2),
                Ratio::new(1, 3),
                Ratio::new(2, 3),
                Ratio::ZERO,
            ],
        )
        .unwrap();
        let up = MaskProbability::build(&uniform);
        let gp = MaskProbability::build(&skewed);
        assert!(matches!(up, MaskProbability::Uniform(_)));
        assert!(matches!(gp, MaskProbability::General(..)));
        let mut total_u = Ratio::ZERO;
        let mut total_g = Ratio::ZERO;
        for mask in 0..16u64 {
            assert_eq!(up.of(mask), uniform.instance_probability_mask(mask));
            assert_eq!(gp.of(mask), skewed.instance_probability_mask(mask));
            total_u += up.of(mask);
            total_g += gp.of(mask);
        }
        assert!(total_u.is_one());
        assert!(total_g.is_one());
    }

    #[test]
    fn signature_distribution_mass_is_one() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let mut domain = Domain::with_constants(["a", "b"]);
        let space = TupleSpace::full(&schema, &domain).unwrap();
        let dict = Dictionary::half(space.clone());
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let compiled = vec![
            Arc::new(CompiledQuery::compile(&s, &space)),
            Arc::new(CompiledQuery::compile(&v, &space)),
        ];
        let stats = ProbStats::new();
        let dist = stream_exact(&dict, &compiled, &stats).unwrap();
        assert!(dist.total_mass().is_one());
        assert_eq!(stats.snapshot().exact_worlds_streamed, 16);
        assert!(!dist.entries.is_empty());
    }

    #[test]
    fn count_streaming_matches_the_mass_distribution() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let mut domain = Domain::with_constants(["a", "b"]);
        let space = TupleSpace::full(&schema, &domain).unwrap();
        let dict = Dictionary::half(space.clone());
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let compiled = vec![
            Arc::new(CompiledQuery::compile(&s, &space)),
            Arc::new(CompiledQuery::compile(&v, &space)),
        ];
        let stats = ProbStats::new();
        let dist = stream_exact(&dict, &compiled, &stats).unwrap();
        let counts = stream_exact_counts(&dict, &compiled, &stats).unwrap();
        assert_eq!(counts.total, 16);
        assert_eq!(counts.counts.len(), dist.entries.len());
        for (sig, &c) in &counts.counts {
            assert_eq!(
                dist.entries[sig],
                Ratio::new(c as i128, counts.total as i128),
                "mass of {sig:?}"
            );
        }
    }

    #[test]
    fn oversized_spaces_are_refused() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let domain = Domain::with_size(6);
        let space = TupleSpace::full_with_cap(&schema, &domain, 100).unwrap();
        let dict = Dictionary::half(space);
        let stats = ProbStats::new();
        assert!(stream_exact(&dict, &[], &stats).is_err());
    }
}
