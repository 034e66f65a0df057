//! Concurrency stress tests for the engine's memo.
//!
//! The crit/space/class artifacts of [`CompiledArtifacts`] and the kernel's
//! compilations, columns and audits share one byte-budgeted [`MemoCache`]
//! behind one lock. These tests drive it from several threads at once and
//! assert the properties concurrency must preserve:
//!
//! 1. **byte-identity** — every artifact a concurrent run hands out is
//!    byte-identical to a single-threaded replay of the same requests;
//! 2. **no lost insertions** — under an unbounded budget, every distinct
//!    canonical form ends up resident, exactly as many as the replay;
//! 3. **honest counters** — every request is counted as exactly one hit or
//!    one miss, and a tight budget still bounds residency.

use qvsec::artifacts::CompiledArtifacts;
use qvsec_cq::{parse_query, ConjunctiveQuery, ViewSet};
use qvsec_data::{Dictionary, Domain, MemoCache, MemoKind, Schema, TupleSpace};
use qvsec_prob::{KernelConfig, ProbKernel};
use std::sync::Arc;
use std::thread;

const THREADS: usize = 4;
const ROUNDS: usize = 3;

fn setup() -> (Schema, Domain) {
    let mut schema = Schema::new();
    schema.add_relation("R", &["x", "y"]);
    (schema, Domain::with_constants(["a", "b"]))
}

/// Thirteen distinct canonical forms, more than a tight budget holds.
fn query_texts() -> Vec<String> {
    let mut texts: Vec<String> = [
        "V(x) :- R(x, y)",
        "S(y) :- R(x, y)",
        "V(x, y) :- R(x, y)",
        "V() :- R(x, y)",
        "V(x) :- R(x, 'a')",
        "V(x) :- R(x, 'b')",
        "V(x) :- R('a', x)",
        "V(x) :- R('b', x)",
        "V() :- R('a', 'b')",
        "V() :- R('b', 'a')",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    for n in 2..=4 {
        let body: Vec<String> = (0..n).map(|i| format!("R(v{i}, v{})", i + 1)).collect();
        texts.push(format!("C(v0) :- {}", body.join(", ")));
    }
    texts
}

fn parse_all(schema: &Schema, domain: &mut Domain) -> Vec<ConjunctiveQuery> {
    query_texts()
        .iter()
        .map(|t| parse_query(t, schema, domain).unwrap())
        .collect()
}

/// Single-threaded replay: what every concurrent run must reproduce.
fn reference_artifacts(
    queries: &[ConjunctiveQuery],
    domain: &Domain,
) -> (Vec<String>, Vec<String>, usize) {
    let artifacts = CompiledArtifacts::new();
    let crit: Vec<String> = queries
        .iter()
        .map(|q| serde_json::to_string(&*artifacts.crit(q, domain, 10_000).unwrap()).unwrap())
        .collect();
    let spaces: Vec<String> = queries
        .iter()
        .map(|q| {
            let space = artifacts.candidate_space(q, domain, 10_000).unwrap();
            serde_json::to_string(space.tuples()).unwrap()
        })
        .collect();
    (crit, spaces, artifacts.cached_crit_sets())
}

fn stress(
    artifacts: &CompiledArtifacts,
    queries: &[ConjunctiveQuery],
    domain: &Domain,
) -> Vec<Vec<(String, String)>> {
    thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    // Each thread walks the forms in a rotated order so the
                    // threads interleave on different keys each round.
                    let mut out = Vec::new();
                    for round in 0..ROUNDS {
                        for i in 0..queries.len() {
                            let q = &queries[(i + t + round) % queries.len()];
                            let crit = artifacts.crit(q, domain, 10_000).unwrap();
                            let space = artifacts.candidate_space(q, domain, 10_000).unwrap();
                            if round == ROUNDS - 1 {
                                out.push((
                                    serde_json::to_string(&*crit).unwrap(),
                                    serde_json::to_string(space.tuples()).unwrap(),
                                ));
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn tight_budget_concurrent_artifacts_are_byte_identical_to_replay() {
    let (schema, mut domain) = setup();
    let queries = parse_all(&schema, &mut domain);
    let (ref_crit, ref_spaces, _) = reference_artifacts(&queries, &domain);

    // A few hundred bytes: the memo thrashes, so the run exercises
    // eviction under contention.
    const BUDGET: usize = 600;
    let artifacts = CompiledArtifacts::with_cache(Arc::new(MemoCache::new(Some(BUDGET))));
    let per_thread = stress(&artifacts, &queries, &domain);

    for (t, results) in per_thread.iter().enumerate() {
        for (i, (crit, space)) in results.iter().enumerate() {
            let qi = (i + t + (ROUNDS - 1)) % queries.len();
            assert_eq!(
                crit, &ref_crit[qi],
                "thread {t}: crit set for form {qi} diverged from the replay"
            );
            assert_eq!(
                space, &ref_spaces[qi],
                "thread {t}: candidate space for form {qi} diverged from the replay"
            );
        }
    }

    let stats = artifacts.cache().stats();
    let total = stats.total();
    assert!(
        total.evictions > 0,
        "a tight budget must evict under stress: {total:?}"
    );
    assert!(
        total.resident_bytes <= BUDGET as u64 || total.entries == 1,
        "the budget bounds residency: {total:?}"
    );
    let requests = (THREADS * ROUNDS * queries.len()) as u64;
    let (crit, space) = (
        stats.of(MemoKind::CritSet),
        stats.of(MemoKind::CandidateSpace),
    );
    assert_eq!(
        crit.hits + crit.misses,
        requests,
        "every crit request counts as exactly one hit or one miss"
    );
    assert_eq!(
        space.hits + space.misses,
        requests,
        "every space request counts as exactly one hit or one miss"
    );
}

#[test]
fn unbounded_concurrent_artifacts_lose_no_insertions() {
    let (schema, mut domain) = setup();
    let queries = parse_all(&schema, &mut domain);
    let (_, _, expected_resident) = reference_artifacts(&queries, &domain);

    let artifacts = CompiledArtifacts::new();
    let _ = stress(&artifacts, &queries, &domain);

    let crit_stats = || artifacts.cache().stats().of(MemoKind::CritSet);
    assert_eq!(
        artifacts.cache().stats().total().evictions,
        0,
        "an unbounded memo never evicts"
    );
    assert_eq!(
        artifacts.cached_crit_sets(),
        expected_resident,
        "every distinct canonical form must stay resident"
    );
    // Warm re-requests from one more thread are all hits.
    let before = crit_stats();
    for q in &queries {
        let _ = artifacts.crit(q, &domain, 10_000).unwrap();
    }
    let after = crit_stats();
    assert_eq!(after.hits - before.hits, queries.len() as u64);
    assert_eq!(after.misses, before.misses);
}

#[test]
fn concurrent_kernel_audits_match_a_single_threaded_replay() {
    let (schema, mut domain) = setup();
    let space = TupleSpace::full(&schema, &domain).unwrap();
    let dict = Arc::new(Dictionary::half(space));
    let queries = parse_all(&schema, &mut domain);
    let view = parse_query("W(x) :- R(x, y)", &schema, &mut domain).unwrap();
    let views = ViewSet::single(view);

    let config = KernelConfig {
        audit_memo: true,
        ..KernelConfig::default()
    };
    let replay = ProbKernel::new(Arc::clone(&dict), config);
    let expected: Vec<String> = queries
        .iter()
        .map(|s| serde_json::to_string(&replay.evaluate(s, &views).unwrap()).unwrap())
        .collect();

    let kernel = ProbKernel::new(dict, config);
    let per_thread: Vec<Vec<String>> = thread::scope(|scope| {
        let kernel = &kernel;
        let queries = &queries;
        let views = &views;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    (0..queries.len())
                        .map(|i| {
                            let s = &queries[(i + t) % queries.len()];
                            serde_json::to_string(&kernel.evaluate(s, views).unwrap()).unwrap()
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, results) in per_thread.iter().enumerate() {
        for (i, audit) in results.iter().enumerate() {
            let qi = (i + t) % queries.len();
            assert_eq!(
                audit, &expected[qi],
                "thread {t}: audit of secret {qi} diverged from the replay"
            );
        }
    }
    // Concurrency may race duplicate computations past the memo check, but
    // every request resolves as a memo hit or a full evaluation — nothing
    // is silently dropped.
    let snap = kernel.stats();
    assert!(snap.audit_memo_hits > 0, "repeat audits must hit the memo");
}
