//! The serve-layer telemetry bridge.
//!
//! [`collect_metrics`] folds the workspace's legacy counter bags — the
//! server's connection counters, the registry's lifecycle accounting and
//! the engine's cache statistics — into one [`MetricsSnapshot`] alongside
//! the process-global counters and span histograms, under the same dotted
//! naming scheme (`serve.*`, `registry.*`, `cache.*`, `kernel.*`,
//! `store.*`). The bags are merged as gauges *into the snapshot copy*, so
//! collection never mutates global state and two back-to-back scrapes of a
//! quiesced server render identical text.
//!
//! [`serve_metrics_http`] exposes that snapshot in Prometheus text
//! exposition format over a minimal HTTP/1.1 listener, for `--metrics-addr`.

use crate::registry::SessionRegistry;
use crate::server::ServerCounters;
use qvsec_obs::MetricsSnapshot;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long one scrape may take to send its request head. Scrapes are
/// answered one at a time, so this bounds how long a client that connects
/// and sends nothing holds up every scrape behind it.
const SCRAPE_DEADLINE: Duration = Duration::from_secs(2);

/// Cap on one scrape's request head (request line plus headers), in bytes;
/// reading stops there, so a head with no end costs constant memory.
const MAX_SCRAPE_HEAD_BYTES: usize = 8 << 10;

/// One unified snapshot: the global obs registry (counters + span
/// histograms) plus every legacy counter bag merged in as gauges.
pub fn collect_metrics(
    registry: &SessionRegistry,
    counters: Option<&ServerCounters>,
) -> MetricsSnapshot {
    let mut snap = qvsec_obs::registry().snapshot();

    let stats = registry.stats();
    snap.set_gauge("registry.tenants", stats.tenants.len() as u64);
    snap.set_gauge("registry.shards", stats.shard_count as u64);
    snap.set_gauge("registry.requests_served", stats.requests_served);
    snap.set_gauge("registry.sessions_expired", stats.sessions_expired);
    snap.set_gauge("store.journal.records", stats.journal_records);
    snap.set_gauge("store.journal.bytes", stats.journal_bytes);

    let cache = registry.engine().cache_stats();
    snap.set_gauge("cache.crit.hits", cache.crit_cache_hits);
    snap.set_gauge("cache.crit.misses", cache.crit_cache_misses);
    snap.set_gauge("cache.space.hits", cache.space_cache_hits);
    snap.set_gauge("cache.space.misses", cache.space_cache_misses);
    snap.set_gauge("cache.class.reused", cache.class_verdicts_reused);
    snap.set_gauge("cache.compile.hits", cache.compile_cache_hits);
    snap.set_gauge("cache.evictions", cache.evictions);
    snap.set_gauge("cache.evicted_bytes", cache.evicted_bytes);
    snap.set_gauge("cache.resident_bytes", cache.resident_bytes);
    snap.set_gauge("kernel.queries_compiled", cache.queries_compiled);
    snap.set_gauge("kernel.mc.samples_drawn", cache.mc_samples_drawn);
    snap.set_gauge("kernel.mc.samples_reused", cache.mc_samples_reused);
    snap.set_gauge("kernel.pool.columns_built", cache.pool_columns_built);
    snap.set_gauge("kernel.pool.column_hits", cache.pool_column_hits);
    snap.set_gauge("kernel.audit.hits", cache.kernel_audit_hits);

    if let Some(counters) = counters {
        let s = counters.snapshot();
        snap.set_gauge("serve.connections.accepted", s.accepted);
        snap.set_gauge("serve.connections.rejected_busy", s.rejected_busy);
        snap.set_gauge("serve.connections.active", s.active_connections);
        snap.set_gauge("serve.connections.dropped_idle", s.dropped_idle);
        snap.set_gauge(
            "serve.connections.closed_request_limit",
            s.closed_request_limit,
        );
        snap.set_gauge("serve.connections.closed_byte_limit", s.closed_byte_limit);
        snap.set_gauge("serve.responses_written", s.responses_written);
    }

    snap
}

/// Reads an HTTP request head — through the blank line that ends the
/// headers, EOF, or [`MAX_SCRAPE_HEAD_BYTES`], whichever comes first —
/// failing with `TimedOut` once [`SCRAPE_DEADLINE`] has passed.
fn read_head(stream: &mut TcpStream) -> io::Result<Vec<u8>> {
    let deadline = Instant::now() + SCRAPE_DEADLINE;
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    let ended = |head: &[u8]| {
        head.windows(2).any(|w| w == b"\n\n") || head.windows(4).any(|w| w == b"\r\n\r\n")
    };
    while head.len() < MAX_SCRAPE_HEAD_BYTES && !ended(&head) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        let room = chunk.len().min(MAX_SCRAPE_HEAD_BYTES - head.len());
        match stream.read(&mut chunk[..room])? {
            0 => break,
            n => head.extend_from_slice(&chunk[..n]),
        }
    }
    Ok(head)
}

/// Answers one HTTP exchange on `stream`: any well-formed GET gets a
/// `200 text/plain` Prometheus exposition; anything else gets a 400/405.
/// A client that has not sent its request head by [`SCRAPE_DEADLINE`] is
/// dropped unanswered.
fn answer_scrape(
    mut stream: TcpStream,
    registry: &SessionRegistry,
    counters: &ServerCounters,
) -> io::Result<()> {
    let head = read_head(&mut stream)?;
    let request_line = head.split(|&b| b == b'\n').next().unwrap_or_default();
    let (status, body) = match String::from_utf8_lossy(request_line)
        .split_whitespace()
        .next()
    {
        Some("GET") => (
            "200 OK",
            collect_metrics(registry, Some(counters)).to_prometheus(),
        ),
        Some(_) => ("405 Method Not Allowed", String::from("GET only\n")),
        None => ("400 Bad Request", String::from("empty request\n")),
    };
    stream.set_write_timeout(Some(SCRAPE_DEADLINE))?;
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Binds `addr` and serves Prometheus scrapes on a detached thread for the
/// life of the process. Returns the bound address (so `:0` works in tests).
///
/// The scrape plane is deliberately independent of the NDJSON server: it
/// holds only `Arc`s, never touches tenant state, and cannot perturb any
/// response byte.
pub fn serve_metrics_http(
    addr: impl ToSocketAddrs,
    registry: Arc<SessionRegistry>,
    counters: Arc<ServerCounters>,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    thread::Builder::new()
        .name("qvsec-metrics-http".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                // One scrape at a time: scrapes are tiny and serializing
                // them keeps the plane at a single extra thread.
                let _ = answer_scrape(stream, &registry, &counters);
            }
        })?;
    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvsec::engine::AuditEngine;
    use qvsec_data::{Domain, Schema};
    use std::io::Read;

    fn sample_registry() -> SessionRegistry {
        let mut schema = Schema::new();
        schema.add_relation("Employee", &["name", "department", "phone"]);
        let engine = Arc::new(AuditEngine::builder(schema, Domain::new()).build());
        SessionRegistry::new(engine)
    }

    #[test]
    fn collect_merges_legacy_bags_as_gauges() {
        let registry = sample_registry();
        let snap = collect_metrics(&registry, None);
        assert_eq!(snap.gauges["registry.tenants"], 0);
        assert!(snap.gauges.contains_key("cache.crit.hits"));
        assert!(snap.gauges.contains_key("kernel.mc.samples_drawn"));
        assert!(
            !snap.gauges.contains_key("serve.responses_written"),
            "server gauges only appear when counters are supplied"
        );
    }

    #[test]
    fn http_endpoint_serves_prometheus_text() {
        let registry = Arc::new(sample_registry());
        let counters = Arc::new(ServerCounters::default());
        let addr = serve_metrics_http("127.0.0.1:0", registry, counters).unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.1 200 OK"));
        assert!(body.contains("text/plain"));
        assert!(body.contains("qvsec_registry_tenants 0"));
    }

    #[test]
    fn a_silent_client_does_not_wedge_later_scrapes() {
        let registry = Arc::new(sample_registry());
        let counters = Arc::new(ServerCounters::default());
        let addr = serve_metrics_http("127.0.0.1:0", registry, counters).unwrap();
        // Connects first and sends nothing: its scrape holds the plane's
        // only thread until the deadline drops it.
        let _silent = TcpStream::connect(addr).unwrap();
        let start = Instant::now();
        let mut stream = TcpStream::connect(addr).unwrap();
        // The client's own bound, so a wedged plane fails the test rather
        // than hanging it.
        let bound = SCRAPE_DEADLINE * 3;
        stream.set_read_timeout(Some(bound)).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        stream
            .read_to_string(&mut body)
            .expect("the second scrape is answered while the silent client stays connected");
        assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
        assert!(start.elapsed() < bound);
    }

    #[test]
    fn non_get_requests_are_refused() {
        let registry = Arc::new(sample_registry());
        let counters = Arc::new(ServerCounters::default());
        let addr = serve_metrics_http("127.0.0.1:0", registry, counters).unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.1 405"));
    }
}
