//! Lifetime counters of the probabilistic kernel.
//!
//! Mirrors the `CritStats` pattern of the `crit(Q)` kernel: the kernel
//! accumulates cheap atomic counters for its whole lifetime, and callers
//! (the `AuditEngine`, the bench harness) snapshot them to see *how* the
//! Probabilistic stage was served — how many worlds the exact path streamed,
//! how often the estimator cut over to Monte-Carlo, and how much sampling
//! work the shared pool saved. Memo hits and misses are not counted here:
//! the kernel's memo counts them, and [`super::ProbKernel::stats`] folds
//! them into the snapshot.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe lifetime counters of a [`super::ProbKernel`].
#[derive(Debug, Default)]
pub struct ProbStats {
    samples_drawn: AtomicU64,
    samples_reused: AtomicU64,
    exact_worlds_streamed: AtomicU64,
    cutovers: AtomicU64,
}

impl ProbStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        ProbStats::default()
    }

    pub(crate) fn add_samples_drawn(&self, n: u64) {
        self.samples_drawn.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_samples_reused(&self, n: u64) {
        self.samples_reused.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_exact_worlds(&self, n: u64) {
        self.exact_worlds_streamed.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_cutover(&self) {
        self.cutovers.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters; the memo fields read 0 (the
    /// kernel fills them in).
    pub fn snapshot(&self) -> ProbStatsSnapshot {
        ProbStatsSnapshot {
            samples_drawn: self.samples_drawn.load(Ordering::Relaxed),
            samples_reused: self.samples_reused.load(Ordering::Relaxed),
            exact_worlds_streamed: self.exact_worlds_streamed.load(Ordering::Relaxed),
            cutovers: self.cutovers.load(Ordering::Relaxed),
            ..ProbStatsSnapshot::default()
        }
    }
}

/// A serializable snapshot of [`ProbStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbStatsSnapshot {
    /// Worlds actually sampled into the shared pool (paid once per pool).
    pub samples_drawn: u64,
    /// Sampled worlds served from the shared pool instead of freshly drawn:
    /// one credit per pooled world per estimation pass after the first, so
    /// the independence, leakage and total-disclosure passes of one audit —
    /// and every later audit against the same dictionary — all count.
    pub samples_reused: u64,
    /// Worlds the exact path streamed as bit masks (`2^n` per exact audit).
    pub exact_worlds_streamed: u64,
    /// Number of audits that cut over from exact enumeration to Monte-Carlo
    /// because the tuple space exceeded the configured cutover.
    pub cutovers: u64,
    /// Witness-mask compilations actually run (one homomorphism search
    /// against the saturated instance each) — cache misses.
    #[serde(default)]
    pub queries_compiled: u64,
    /// Compilations served from the kernel's canonical-form memo instead of
    /// re-running the homomorphism search (republished views, later session
    /// steps, α-renamed queries).
    #[serde(default)]
    pub compile_cache_hits: u64,
    /// Per-query answer-bit columns evaluated over the shared pool (one
    /// pass of per-world witness tests each) — cache misses.
    #[serde(default)]
    pub pool_columns_built: u64,
    /// Column requests served from the memo: the query's pooled signatures
    /// were reused without touching a single world.
    #[serde(default)]
    pub pool_column_hits: u64,
    /// Whole audits served from the kernel's verdict memo: the exact
    /// `(secret, views)` canonical forms were evaluated before, so no
    /// world was streamed, sampled or re-analysed at all. Memoized audits
    /// deliberately count **no** cutover, world or sample-reuse traffic —
    /// the counters stay an honest record of computation performed.
    #[serde(default)]
    pub audit_memo_hits: u64,
    /// Compilations, columns and audits evicted under the memo's byte
    /// budget.
    #[serde(default)]
    pub evictions: u64,
    /// Approximate bytes evicted over the kernel's lifetime.
    #[serde(default)]
    pub evicted_bytes: u64,
    /// Approximate bytes of the kernel's artifacts currently resident in the
    /// memo (a gauge).
    #[serde(default)]
    pub resident_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let stats = ProbStats::new();
        assert_eq!(stats.snapshot(), ProbStatsSnapshot::default());
        stats.add_samples_drawn(10);
        stats.add_samples_reused(20);
        stats.add_exact_worlds(512);
        stats.add_cutover();
        stats.add_cutover();
        let snap = stats.snapshot();
        assert_eq!(snap.samples_drawn, 10);
        assert_eq!(snap.samples_reused, 20);
        assert_eq!(snap.exact_worlds_streamed, 512);
        assert_eq!(snap.cutovers, 2);
        let json = serde_json::to_string(&snap).unwrap();
        let back: ProbStatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
