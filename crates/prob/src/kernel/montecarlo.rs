//! The Monte-Carlo path: batched signature counting over the shared pool.
//!
//! Above the exact cutover the kernel estimates the same signature
//! distribution the exact path streams, from the worlds of the shared
//! [`super::SamplePool`]. Every world is evaluated **once** against every
//! compiled query (a few bitset containment tests), and the independence,
//! leakage and total-disclosure passes are all computed from the resulting
//! counts — the passes share one sample set by construction, where the
//! pre-kernel code re-sampled per pass and per view.
//!
//! The pool is also the workspace's only Monte-Carlo estimator outside the
//! audit path: single-event estimates (`leakage_estimate`, `estimate_mu_n`)
//! count over [`answer_flags`].

use super::compile::CompiledQuery;
use super::pool::SamplePool;
use qvsec_data::Value;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Signature → number of pooled worlds exhibiting it.
#[derive(Debug, Clone, Default)]
pub struct SignatureCounts {
    /// Distinct signatures with their multiplicities.
    pub counts: HashMap<Vec<u64>, u64>,
    /// Total number of worlds counted (the pool size).
    pub total: u64,
}

/// One query's answer bits over every world of the pool, world-major
/// (`sig_words` words per world). A column depends only on (pool, query),
/// so the kernel memoizes it per canonical query form: republished views
/// and later session steps skip the per-world witness tests entirely and
/// their signatures become plain word concatenations.
pub fn world_column(pool: &SamplePool, q: &CompiledQuery) -> Vec<u64> {
    let worlds = pool.worlds();
    let chunk_len = super::pool::POOL_CHUNK;
    let chunks: Vec<usize> = (0..worlds.len().div_ceil(chunk_len.max(1))).collect();
    let per_chunk: Vec<Vec<u64>> = chunks
        .par_iter()
        .map(|&c| {
            let lo = c * chunk_len;
            let hi = (lo + chunk_len).min(worlds.len());
            let mut out = Vec::with_capacity((hi - lo) * q.sig_words());
            for world in &worlds[lo..hi] {
                q.push_answer_bits_world(world.bits(), &mut out);
            }
            out
        })
        .collect();
    per_chunk.into_iter().flatten().collect()
}

/// One flag per pooled world, in draw order: whether `q`'s answer set on
/// that world contains `answer` or, with `answer = None`, is non-empty (a
/// boolean query is true). An answer `q` can never produce is never
/// contained.
pub fn answer_flags(pool: &SamplePool, q: &CompiledQuery, answer: Option<&[Value]>) -> Vec<bool> {
    let words = q.sig_words();
    let index = match answer {
        None => None,
        Some(a) => match q.answers().binary_search_by(|x| x.as_slice().cmp(a)) {
            Ok(i) => Some(i),
            Err(_) => return vec![false; pool.len()],
        },
    };
    if words == 0 {
        return vec![false; pool.len()];
    }
    world_column(pool, q)
        .chunks(words)
        .map(|bits| match index {
            Some(i) => q.answer_bit(bits, i),
            None => bits.iter().any(|&w| w != 0),
        })
        .collect()
}

/// Counts signatures by concatenating the queries' precomputed world
/// columns — no witness test runs here, only word copies. Chunked by world
/// index, so the result is independent of the worker-thread count.
pub fn count_signatures_from_columns(
    columns: &[Arc<Vec<u64>>],
    compiled: &[Arc<CompiledQuery>],
    total_worlds: usize,
) -> SignatureCounts {
    debug_assert_eq!(columns.len(), compiled.len());
    let words: Vec<usize> = compiled.iter().map(|q| q.sig_words()).collect();
    let chunk_len = super::pool::POOL_CHUNK;
    let chunks: Vec<usize> = (0..total_worlds.div_ceil(chunk_len.max(1))).collect();
    let partials: Vec<HashMap<Vec<u64>, u64>> = chunks
        .par_iter()
        .map(|&c| {
            let lo = c * chunk_len;
            let hi = (lo + chunk_len).min(total_worlds);
            let mut local: HashMap<Vec<u64>, u64> = HashMap::new();
            let mut sig = Vec::new();
            for w in lo..hi {
                sig.clear();
                for (column, &n) in columns.iter().zip(&words) {
                    sig.extend_from_slice(&column[w * n..(w + 1) * n]);
                }
                *local.entry(sig.clone()).or_insert(0) += 1;
            }
            local
        })
        .collect();
    let mut out = SignatureCounts {
        counts: HashMap::new(),
        total: total_worlds as u64,
    };
    for partial in partials {
        for (sig, c) in partial {
            *out.counts.entry(sig).or_insert(0) += c;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvsec_cq::parse_query;
    use qvsec_data::{Dictionary, Domain, Schema, TupleSpace};
    use std::sync::Arc;

    #[test]
    fn counts_cover_the_whole_pool_and_are_deterministic() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let mut domain = Domain::with_constants(["a", "b"]);
        let space = TupleSpace::full(&schema, &domain).unwrap();
        let dict = Dictionary::half(space.clone());
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let compiled = vec![Arc::new(CompiledQuery::compile(&s, &space))];
        let arc_space = Arc::new(space);
        let pool = SamplePool::generate(&dict, Arc::clone(&arc_space), 3000, 11);
        let count = || {
            let columns = vec![Arc::new(world_column(&pool, &compiled[0]))];
            count_signatures_from_columns(&columns, &compiled, pool.len())
        };
        let (a, b) = (count(), count());
        assert_eq!(a.total, 3000);
        assert_eq!(a.counts.values().sum::<u64>(), 3000);
        assert_eq!(a.counts, b.counts);
    }
}
