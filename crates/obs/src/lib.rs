//! # qvsec-obs — the observability plane
//!
//! Every layer of the workspace (cq parsing, the crit kernel, the
//! probabilistic kernel's compile/exact/Monte-Carlo stages, the store
//! journal, the serve request loop) reports into one process-global
//! [`MetricsRegistry`] through two primitives:
//!
//! * **Counters** — always-on relaxed atomics, bumped unconditionally.
//!   A counter bump is one atomic add; the registry lookup behind it is
//!   one `RwLock` read + `BTreeMap` walk, cheap enough for per-request
//!   paths (hot sites may cache the returned `&'static Counter`).
//! * **Spans** — RAII stage timers ([`Span::enter`]) recording elapsed
//!   monotonic time into fixed-bucket latency [`Histogram`]s. Spans are
//!   **zero-cost when tracing is disabled**: [`Span::enter`] reads one
//!   atomic flag and never touches the clock unless [`set_tracing`] turned
//!   tracing on.
//!
//! The engine's memo is the one exception: it counts its own hits, misses
//! and evictions per artifact kind under the lock it already holds, and
//! the serving layer merges them in as `cache.*` and `kernel.*` gauges at
//! collect time.
//!
//! On top of spans sits a per-request trace: a thread installs a
//! [`TraceGuard`] around one request, every span closed on that thread
//! while the guard is live is appended to the request's stage breakdown,
//! and [`TraceGuard::finish`] returns the [`TraceSummary`] (stage → nanos,
//! plus string annotations like the request's canonical form). Work the
//! engine fans out to rayon workers reports only into the global
//! histograms — the per-request breakdown covers the dispatching thread.
//!
//! **Determinism contract.** Nothing in this crate may change the bytes of
//! a server response: counters and histograms are side channels, spans are
//! timing-only, and the wall clock is never read outside a span. The serve
//! layer's opt-in `timing` envelope member is the one surface where trace
//! data enters a response, and it is stripped by every determinism diff.
//!
//! Snapshots ([`MetricsRegistry::snapshot`]) are rendered two ways:
//! [`MetricsSnapshot::to_json`] for the NDJSON `metrics` op and
//! [`MetricsSnapshot::to_prometheus`] for the `--metrics-addr` HTTP
//! endpoint's text exposition.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod metrics;
mod prometheus;
mod span;

pub use metrics::{
    counter, gauge, histogram, registry, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry, MetricsSnapshot,
};
pub use span::{
    annotate, begin_request_trace, note_capture_enabled, set_note_capture, set_tracing,
    tracing_enabled, Span, TraceGuard, TraceSummary,
};
