//! Per-layer metrics of the traced run.
//!
//! Times are mean microseconds per timed request (a layer that does no
//! work on a workload reads 0), so they compare across layers and against
//! `serve.request_us`. Self times subtract child spans only where the
//! nesting is fixed: `serve.request` ⊃ `audit.*` ⊃ `crit.*`/`kernel.*`,
//! and `store.journal.append` ⊃ `store.append`.

use crate::replay::{Record, Replay};
use qvsec::engine::CacheStatsSnapshot;
use qvsec_serve::SessionRegistry;

/// Counters read straight from the engine, the registry and the obs plane.
#[derive(Debug, Clone)]
pub struct Counts {
    cache: CacheStatsSnapshot,
    decisions: u64,
    appends: u64,
    journal_records: u64,
    journal_bytes: u64,
}

impl Counts {
    /// Reads every counter the per-layer metrics difference.
    pub fn read(registry: &SessionRegistry) -> Counts {
        let engine = registry.engine();
        let stats = registry.stats();
        Counts {
            cache: engine.cache_stats(),
            decisions: engine.crit_stats().decisions_run,
            appends: qvsec_obs::counter("store.appends").get(),
            journal_records: stats.journal_records,
            journal_bytes: stats.journal_bytes,
        }
    }
}

/// Everything the per-layer metrics are computed from.
pub struct Inputs<'a> {
    /// The spans-off replay (the correctness oracle).
    pub oracle: &'a Replay,
    /// The spans-on replay of the same lists.
    pub traced: &'a Replay,
    /// Counters around the traced replay's timed phase.
    pub before: &'a Counts,
    pub after: &'a Counts,
    /// Wire round trip minus the server's own handling nanos, per request
    /// of each class.
    pub wire_candidate_ns: &'a [u64],
    pub wire_publish_ns: &'a [u64],
    /// On-disk bytes of the durable store after the last round.
    pub store_bytes: u64,
    /// Seconds `build_registry` took over a copy of the seeded store.
    pub rehydrate_s: f64,
}

fn median_ns(mut values: Vec<u64>) -> f64 {
    values.sort_unstable();
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2] as f64,
        n => (values[n / 2 - 1] + values[n / 2]) as f64 / 2.0,
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Mean over records of `f` (nanos), in microseconds.
fn mean_us(records: &[Record], f: impl Fn(&Record) -> u64) -> f64 {
    let total: u64 = records.iter().map(f).sum();
    total as f64 / records.len().max(1) as f64 / 1e3
}

/// `parent − Σ children`, clamped at zero (spans are read with separate
/// clock calls, so a fully covered parent can come out a few ns short).
fn self_ns(r: &Record, parent: &str, children: &[&str]) -> u64 {
    let covered: u64 = children.iter().map(|c| r.stage(c)).sum();
    r.stage(parent).saturating_sub(covered)
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn per_layer(i: &Inputs) -> Vec<(String, f64, &'static str)> {
    let t = &i.traced.records;
    let o = &i.oracle.records;
    let (b, a) = (&i.before.cache, &i.after.cache);
    let request_ns: u64 = t.iter().map(|r| r.stage("serve.request")).sum();
    let kernel_stages = ["kernel.compile", "kernel.exact", "kernel.mc"];
    let kernel_ns: u64 = t
        .iter()
        .flat_map(|r| kernel_stages.iter().map(|s| r.stage(s)))
        .sum();
    let prob_audits = t.iter().filter(|r| r.stage("audit.prob") > 0).count() as u64;
    let journal_records = i.after.journal_records - i.before.journal_records;
    let journal_bytes = i.after.journal_bytes - i.before.journal_bytes;
    let m = |name: &str, value: f64, unit: &'static str| (name.to_string(), value, unit);
    // Mean µs per timed request under one span, or one span's self time.
    let span = |stage: &str| mean_us(t, |r| r.stage(stage));
    let self_us = |parent: &str, children: &[&str]| mean_us(t, |r| self_ns(r, parent, children));
    let top_level = [
        "audit.fast",
        "audit.exact",
        "audit.prob",
        "cq.parse",
        "sql.parse",
        "store.journal.append",
    ];
    let memo_hits = a.kernel_audit_hits - b.kernel_audit_hits;
    let response_bytes: usize = o.iter().map(|r| r.response_bytes).sum();
    let overhead = i.traced.wall_ns as f64 / i.oracle.wall_ns.max(1) as f64 - 1.0;
    vec![
        m(
            "server.wire_us.candidate",
            median_ns(i.wire_candidate_ns.to_vec()) / 1e3,
            "us",
        ),
        m(
            "server.wire_us.publish",
            median_ns(i.wire_publish_ns.to_vec()) / 1e3,
            "us",
        ),
        m("protocol.decode_us", mean_us(o, |r| r.decode_ns), "us"),
        m("protocol.encode_us", mean_us(o, |r| r.encode_ns), "us"),
        m(
            "protocol.response_kb",
            response_bytes as f64 / o.len().max(1) as f64 / 1024.0,
            "KiB",
        ),
        m("sql.parse_us", span("sql.parse"), "us"),
        m("cq.parse_us", span("cq.parse"), "us"),
        m("cq.canonical_us", span("cq.canonicalize"), "us"),
        m("serve.request_us", span("serve.request"), "us"),
        m(
            "serve.residual_us",
            self_us("serve.request", &top_level),
            "us",
        ),
        m("engine.fast_us", span("audit.fast"), "us"),
        m(
            "engine.exact_self_us",
            self_us("audit.exact", &["crit.space", "crit.kernel"]),
            "us",
        ),
        m(
            "engine.crit_hit_ratio",
            ratio(
                a.crit_cache_hits - b.crit_cache_hits,
                a.crit_cache_misses - b.crit_cache_misses,
            ),
            "ratio",
        ),
        m(
            "engine.space_hit_ratio",
            ratio(
                a.space_cache_hits - b.space_cache_hits,
                a.space_cache_misses - b.space_cache_misses,
            ),
            "ratio",
        ),
        m("crit.space_us", span("crit.space"), "us"),
        m("crit.kernel_us", span("crit.kernel"), "us"),
        m(
            "crit.decisions",
            (i.after.decisions - i.before.decisions) as f64,
            "count",
        ),
        m("kernel.compile_us", span("kernel.compile"), "us"),
        m("kernel.mc_us", span("kernel.mc"), "us"),
        m("kernel.exact_us", span("kernel.exact"), "us"),
        m(
            "kernel.prob_self_us",
            self_us("audit.prob", &kernel_stages),
            "us",
        ),
        m(
            "kernel.share_pct",
            100.0 * kernel_ns as f64 / request_ns.max(1) as f64,
            "%",
        ),
        m(
            "kernel.audit_memo_hit_ratio",
            ratio(memo_hits, prob_audits.saturating_sub(memo_hits)),
            "ratio",
        ),
        m("kernel.samples_drawn", a.mc_samples_drawn as f64, "count"),
        m(
            "store.journal_us",
            self_us("store.journal.append", &["store.append"]),
            "us",
        ),
        m("store.append_us", span("store.append"), "us"),
        m(
            "store.appends",
            (i.after.appends - i.before.appends) as f64,
            "count",
        ),
        m(
            "store.event_kb",
            journal_bytes as f64 / journal_records.max(1) as f64 / 1024.0,
            "KiB",
        ),
        m(
            "store.disk_mb",
            i.store_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        m("store.rehydrate_s", i.rehydrate_s, "s"),
        m("trace.overhead_pct", 100.0 * overhead, "%"),
    ]
}
