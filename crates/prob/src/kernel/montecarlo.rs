//! The Monte-Carlo path: per-query answer columns over the shared pool.
//!
//! Above the exact cutover the kernel estimates Section 6.1 from the worlds
//! of the shared [`super::SamplePool`]. Every world is evaluated **once**
//! against each compiled query (a few bitset containment tests) into that
//! query's column; the leakage walk transposes the columns into per-answer
//! bitmaps, and the determinacy test compares them world by world. Columns
//! are memoized per query, so a republished view or a later session step
//! evaluates no world at all.
//!
//! The pool is also the workspace's only Monte-Carlo estimator outside the
//! audit path: single-event estimates (`leakage_estimate`, `estimate_mu_n`)
//! count over [`answer_flags`].

use super::compile::CompiledQuery;
use super::pool::SamplePool;
use qvsec_data::Value;
use rayon::prelude::*;

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
        let compiled = CompiledQuery::compile(&s, &space);
        let pool = SamplePool::generate(&dict, Arc::new(space), 3000, 11);
        let (a, b) = (
            world_column(&pool, &compiled),
            world_column(&pool, &compiled),
        );
        assert_eq!(a.len(), 3000 * compiled.sig_words());
        assert_eq!(a, b);
        // World by world, the column holds the world's answer bits.
        for (world, bits) in pool.worlds().iter().zip(a.chunks(compiled.sig_words())) {
            let mut sig = Vec::new();
            compiled.push_answer_bits_world(world.bits(), &mut sig);
            assert_eq!(sig, bits);
        }
    }
}
