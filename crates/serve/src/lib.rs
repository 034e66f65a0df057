//! # qvsec-serve — the multi-tenant serving layer
//!
//! The paper's audit question is inherently *online*: a curator decides,
//! request after request, whether publishing the next view is safe. The
//! core crate's [`qvsec::AuditSession`] is the single-tenant handle for
//! that flow; this crate turns it into a **server**:
//!
//! * [`SessionRegistry`] — an owned, `Send + Sync`, sharded map of tenant
//!   id → [`qvsec::AuditSession`] over one shared [`qvsec::AuditEngine`].
//!   Tenants are hashed onto independent shard locks (and each tenant has
//!   its own session lock), so concurrent tenants never contend; idle
//!   sessions expire; per-tenant accounting (views published, snapshots
//!   held, requests, journal footprint) is surfaced through
//!   [`registry::RegistryStats`]. The engine's cache counters are not part
//!   of it: they live in the metrics plane ([`metrics::collect_metrics`]).
//! * a newline-delimited-JSON TCP front end ([`server::Server`]) — a
//!   `std::net::TcpListener` that serves each connection on a thread of
//!   its own, speaking the request/response schema of [`protocol`]
//!   (`publish` / `candidate` / `snapshot` / `restore` / `stats`, mirroring
//!   the CLI session-script steps, plus the `qvsec-sql` front end: queries
//!   and secrets in safe-SQL form, a `sql` analysis op, and `show_tables` /
//!   `show_columns` schema introspection). No async runtime: plain blocking
//!   sockets and threads, like the rest of the workspace.
//!
//! Because every tenant shares the engine's compiled artifacts — crit sets,
//! candidate spaces, class verdicts, witness-mask compilations, the Monte-
//! Carlo pool — a warm registry serves a tenant's *first* request at the
//! cost of a stateless deployment's *hottest* one (measured in
//! `BENCH_serve.json`). Long-lived servers bound that sharing with the
//! engine's byte-budgeted memo (`cache_budget_bytes`): eviction is
//! transparent to every verdict, so the registry trades memory for
//! recomputation, never for correctness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod server;

pub use journal::TenantStoreUsage;
pub use metrics::{collect_metrics, serve_metrics_http};
pub use protocol::{
    closing_notice, error_response, error_response_with_detail, handle_request,
    handle_request_traced, ErrorKind, WireRequest, PROTOCOL_VERSION,
};
pub use registry::{RegistryConfig, RegistryStats, ServeError, SessionRegistry, TenantStats};
pub use server::{
    drive_scripts, is_notice, request_lines, request_lines_pipelined, DriveOutcome, Server,
    ServerConfig, ServerCounters, ServerHandle, ServerStats,
};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServeError>;
