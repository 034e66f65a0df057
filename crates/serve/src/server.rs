//! The concurrent TCP front end: blocking sockets, newline-delimited JSON,
//! one thread per connection.
//!
//! Each accepted connection runs on one thread of its own (the
//! `std::thread` idiom the workspace already uses — no async runtime, no
//! extra dependencies), in one request loop: read a line, answer it, write
//! the response, then apply the connection rules. Responses therefore go
//! out strictly in request order. A client may pipeline: lines it sends
//! ahead wait in the kernel's socket buffer, which pushes back on the
//! client once full, so nothing buffers without bound.
//!
//! The connection rules — keep-alive request/byte limits, idle drops, and
//! shutdown draining — all end with a structured `connection_closing`
//! notice (see [`crate::protocol::closing_notice`]) written after the last
//! response. The idle clock runs only while the loop waits for the next
//! request, never while one computes. A response write that blocks longer
//! than a fixed write deadline (a client that pipelines without reading
//! has filled the socket buffers) ends the connection without a notice,
//! like a vanished client. An accept gate caps concurrent connections at
//! [`ServerConfig::max_connections`].
//!
//! A `{"op": "shutdown"}` request (or [`ServerHandle::shutdown`], which the
//! CLI wires to SIGTERM) answers, flips the shutdown flag and wakes the
//! accept loop with a loop-back connection; the server then stops
//! accepting, lets every connection answer the lines still arriving (for at
//! most a drain window, plus the write deadline for a response already
//! stalled), flushes the store journal, and returns. Requests a
//! client pipelines *behind its own* `shutdown` op are answered with a
//! structured `shutting_down` error rather than silence.

use crate::protocol::{closing_notice, error_response, handle_request_traced, ErrorKind};
use crate::registry::SessionRegistry;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Hard cap on one request line, in bytes (the newline excluded). A longer
/// line is answered with a structured `line_too_long` error and discarded
/// up to its newline, so the connection — and the requests behind it —
/// survive; without the cap a single unterminated line would buffer without
/// bound.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// A connection's wake-up tick: how often a blocked read re-checks the
/// shutdown flag and advances the idle clock.
const READ_TICK: Duration = Duration::from_millis(50);

/// How long a draining connection keeps answering lines that are still
/// arriving before it closes anyway (bounds graceful shutdown against a
/// client that never pauses).
const DRAIN_WINDOW: Duration = Duration::from_secs(1);

/// How long writing one response line may take. A client that stops
/// reading fills the socket buffers and stalls the next response; when the
/// stall outlasts this, the connection ends as if the client had vanished,
/// so it cannot hold a drain open.
const WRITE_DEADLINE: Duration = Duration::from_secs(3);

/// How long the accept gate waits for a slot before rejecting a connection
/// (absorbs the close/accept race of back-to-back clients).
const ACCEPT_GATE_GRACE: Duration = Duration::from_millis(250);

/// Connection-lifecycle configuration for the TCP front end.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Accept gate: connections beyond this many concurrent ones are turned
    /// away with a `connection_closing` notice (after a short grace wait
    /// for a slot).
    pub max_connections: usize,
    /// Keep-alive limit: close (with a notice) after this many requests.
    pub max_requests_per_conn: Option<u64>,
    /// Keep-alive limit: close (with a notice) after this many request
    /// bytes (newlines included).
    pub max_bytes_per_conn: Option<u64>,
    /// Drop connections that send no bytes this long while the server waits
    /// for their next request, with a notice.
    pub idle_timeout: Option<Duration>,
    /// Slow-query threshold: requests whose total handling time crosses
    /// this many milliseconds are logged as one NDJSON line on stderr,
    /// with the span stage breakdown and the view's canonical form.
    /// Requires span tracing ([`qvsec_obs::set_tracing`]) to be on, and
    /// the op/tenant/canonical context additionally needs note capture
    /// ([`qvsec_obs::set_note_capture`]) — the CLI's `--slow-ms` flag
    /// enables all of it together.
    pub slow_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 1024,
            max_requests_per_conn: None,
            max_bytes_per_conn: None,
            idle_timeout: None,
            slow_ms: None,
        }
    }
}

/// Live connection counters, shared by the accept loop and every
/// connection thread. Surfaced only through the metrics plane (the
/// `serve.*` gauges of the `metrics` op and the Prometheus endpoint) and
/// [`ServerHandle::stats`]; process-local by design — never journaled, so a
/// restart zeroes them.
#[derive(Debug, Default)]
pub struct ServerCounters {
    accepted: AtomicU64,
    rejected_busy: AtomicU64,
    active_connections: AtomicU64,
    dropped_idle: AtomicU64,
    closed_request_limit: AtomicU64,
    closed_byte_limit: AtomicU64,
    responses_written: AtomicU64,
}

/// A point-in-time snapshot of [`ServerCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Connections admitted past the accept gate.
    pub accepted: u64,
    /// Connections turned away by the accept gate.
    pub rejected_busy: u64,
    /// Connections currently being served.
    pub active_connections: u64,
    /// Connections dropped by the idle timeout.
    pub dropped_idle: u64,
    /// Connections closed by the keep-alive request limit.
    pub closed_request_limit: u64,
    /// Connections closed by the keep-alive byte limit.
    pub closed_byte_limit: u64,
    /// Responses written back (notices excluded; oversize and non-UTF-8
    /// lines count, as they are answered with structured errors).
    pub responses_written: u64,
}

impl ServerCounters {
    /// Snapshots every counter (relaxed loads; the snapshot is advisory).
    pub fn snapshot(&self) -> ServerStats {
        ServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            active_connections: self.active_connections.load(Ordering::Relaxed),
            dropped_idle: self.dropped_idle.load(Ordering::Relaxed),
            closed_request_limit: self.closed_request_limit.load(Ordering::Relaxed),
            closed_byte_limit: self.closed_byte_limit.load(Ordering::Relaxed),
            responses_written: self.responses_written.load(Ordering::Relaxed),
        }
    }
}

/// A bound (but not yet running) server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    registry: Arc<SessionRegistry>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    counters: Arc<ServerCounters>,
}

/// A cloneable handle onto a running (or about-to-run) server: its address,
/// shutdown flag and counters. Used by tests, the bench harness and
/// embedders that run the server on a background thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    counters: Arc<ServerCounters>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful shutdown and wakes the accept loop: requests
    /// being computed still get their responses, then the store journal is
    /// flushed. Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // A loop-back connection unblocks the (blocking) accept call.
        let _ = TcpStream::connect(self.addr);
    }

    /// A snapshot of the server's connection counters.
    pub fn stats(&self) -> ServerStats {
        self.counters.snapshot()
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7070`, or port 0 for an ephemeral
    /// port) over `registry`, admitting at most `max_connections`
    /// concurrent connections; the rest of the lifecycle keeps
    /// [`ServerConfig`] defaults (see [`Server::bind_with`]).
    pub fn bind(
        registry: Arc<SessionRegistry>,
        addr: &str,
        max_connections: usize,
    ) -> io::Result<Server> {
        Server::bind_with(
            registry,
            addr,
            ServerConfig {
                max_connections,
                ..ServerConfig::default()
            },
        )
    }

    /// [`Server::bind`] with the full connection-lifecycle configuration.
    pub fn bind_with(
        registry: Arc<SessionRegistry>,
        addr: &str,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            registry,
            config: ServerConfig {
                max_connections: config.max_connections.max(1),
                ..config
            },
            shutdown: Arc::new(AtomicBool::new(false)),
            counters: Arc::new(ServerCounters::default()),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's shared connection counters — the metrics HTTP endpoint
    /// ([`crate::metrics::serve_metrics_http`]) folds them into scrapes.
    pub fn counters(&self) -> Arc<ServerCounters> {
        Arc::clone(&self.counters)
    }

    /// A handle for shutting the server down (and reading its counters)
    /// from another thread.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.local_addr()?,
            shutdown: Arc::clone(&self.shutdown),
            counters: Arc::clone(&self.counters),
        })
    }

    /// Runs the accept loop until shutdown, spawning one thread per
    /// connection. Blocks the calling thread.
    ///
    /// With an idle timeout configured on the registry, a background
    /// sweeper expires idle tenants in **every** shard — the in-dispatch
    /// sweeps only cover the shard a request happens to hash to, so without
    /// this a low-traffic shard would retain its sessions forever.
    ///
    /// On shutdown the accept loop stops, every connection answers the
    /// lines still arriving (each connection ending with a
    /// `connection_closing` notice), and the registry's
    /// durable store — when there is one — is flushed before returning, so
    /// a SIGTERM'd server can be restarted over its own journal.
    pub fn run(self) -> io::Result<()> {
        let addr = self.local_addr()?;
        let sweeper = self.registry.idle_timeout().map(|max_idle| {
            let registry = Arc::clone(&self.registry);
            let shutdown = Arc::clone(&self.shutdown);
            thread::spawn(move || {
                // Sweep a few times per timeout period; sleep in short
                // slices so shutdown is observed promptly.
                let tick = (max_idle / 4).clamp(Duration::from_millis(50), Duration::from_secs(10));
                let slice = tick.min(Duration::from_millis(200));
                let mut slept = Duration::ZERO;
                while !shutdown.load(Ordering::SeqCst) {
                    thread::sleep(slice);
                    slept += slice;
                    if slept >= tick {
                        registry.sweep_idle(max_idle);
                        slept = Duration::ZERO;
                    }
                }
            })
        });
        let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    // Small newline-framed writes both ways: without
                    // TCP_NODELAY, Nagle + delayed ACKs put a ~40ms floor
                    // under every synchronous request.
                    let _ = stream.set_nodelay(true);
                    if !reserve_slot(&gate, self.config.max_connections) {
                        self.counters.rejected_busy.fetch_add(1, Ordering::Relaxed);
                        reject_busy(stream);
                        continue;
                    }
                    self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .active_connections
                        .fetch_add(1, Ordering::Relaxed);
                    let registry = Arc::clone(&self.registry);
                    let shutdown = Arc::clone(&self.shutdown);
                    let counters = Arc::clone(&self.counters);
                    let gate = Arc::clone(&gate);
                    let config = self.config;
                    thread::spawn(move || {
                        serve_connection(&registry, stream, &shutdown, addr, &config, &counters);
                        counters.active_connections.fetch_sub(1, Ordering::Relaxed);
                        let (slots, freed) = &*gate;
                        *slots.lock().expect("accept gate poisoned") -= 1;
                        freed.notify_all();
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => return Err(e),
            }
        }
        // Drain: every connection observes the shutdown flag once its
        // current request is answered (or within a read tick), answers the
        // lines still arriving, notices, and exits.
        {
            let (slots, freed) = &*gate;
            let mut live = slots.lock().expect("accept gate poisoned");
            while *live > 0 {
                let (guard, _) = freed
                    .wait_timeout(live, Duration::from_millis(200))
                    .expect("accept gate poisoned");
                live = guard;
            }
        }
        if let Some(sweeper) = sweeper {
            let _ = sweeper.join();
        }
        // Flush the journal so a restart over the same store resumes
        // exactly where this process stopped.
        self.registry
            .flush_store()
            .map_err(|e| io::Error::other(e.to_string()))?;
        Ok(())
    }
}

/// Claims an accept-gate slot, waiting briefly for one to free up.
fn reserve_slot(gate: &Arc<(Mutex<usize>, Condvar)>, max_connections: usize) -> bool {
    let (slots, freed) = &**gate;
    let deadline = Instant::now() + ACCEPT_GATE_GRACE;
    let mut live = slots.lock().expect("accept gate poisoned");
    loop {
        if *live < max_connections {
            *live += 1;
            return true;
        }
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        let (guard, _) = freed
            .wait_timeout(live, deadline - now)
            .expect("accept gate poisoned");
        live = guard;
    }
}

/// Turns a connection away at the accept gate with a structured notice.
fn reject_busy(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut text =
        serde_json::to_string(&closing_notice("server_at_capacity")).expect("JSON renders");
    text.push('\n');
    let _ = stream.write_all(text.as_bytes());
}

/// Serves one connection on the calling thread: reads a request line,
/// answers it, writes the response, then applies the connection rules —
/// until the client's EOF, a failed write, or a rule that closes the
/// connection with a `connection_closing` notice after the last response.
fn serve_connection(
    registry: &SessionRegistry,
    stream: TcpStream,
    shutdown: &AtomicBool,
    addr: SocketAddr,
    config: &ServerConfig,
    counters: &ServerCounters,
) {
    if stream.set_read_timeout(Some(READ_TICK)).is_err()
        || stream.set_write_timeout(Some(WRITE_DEADLINE)).is_err()
    {
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    let mut oversize = false;
    let mut idle = Duration::ZERO;
    let mut requests: u64 = 0;
    let mut bytes: u64 = 0;
    let mut drain_deadline: Option<Instant> = None;
    let mut saw_shutdown_op = false;
    let close = loop {
        if drain_deadline.is_none() && shutdown.load(Ordering::SeqCst) {
            // Graceful drain: keep answering lines still arriving, but
            // close at the first quiet tick (or the window's end).
            drain_deadline = Some(Instant::now() + DRAIN_WINDOW);
        }
        if drain_deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            break Some("shutting_down");
        }
        let (consumed, complete) = match reader.fill_buf() {
            // EOF (with or without a half-read line) is the client's
            // orderly close: every request it completed has its answer.
            Ok([]) => break None,
            Ok(chunk) => match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if !oversize {
                        line.extend_from_slice(&chunk[..pos]);
                    }
                    (pos + 1, true)
                }
                None => {
                    if !oversize {
                        line.extend_from_slice(chunk);
                    }
                    (chunk.len(), false)
                }
            },
            // A quiet read tick: no bytes for READ_TICK.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if drain_deadline.is_some() {
                    break Some("shutting_down");
                }
                idle += READ_TICK;
                if config.idle_timeout.is_some_and(|max| idle >= max) {
                    counters.dropped_idle.fetch_add(1, Ordering::Relaxed);
                    break Some("idle_timeout");
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break None,
        };
        reader.consume(consumed);
        bytes = bytes.saturating_add(consumed as u64);
        idle = Duration::ZERO;
        if !oversize && line.len() > MAX_REQUEST_LINE_BYTES {
            // Stop buffering: an unbounded line costs constant memory; the
            // error goes out when its newline arrives.
            oversize = true;
            line = Vec::new();
        }
        if !complete {
            continue;
        }
        let (response, stop) = if std::mem::take(&mut oversize) {
            let reason = format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes");
            (error_response(ErrorKind::LineTooLong, reason), false)
        } else {
            match String::from_utf8(std::mem::take(&mut line)) {
                Ok(text) if text.trim().is_empty() => continue, // keep-alive noise
                Ok(_) if saw_shutdown_op => {
                    let reason = "the server is draining after this connection's `shutdown` \
                                  request; pipeline no requests behind it";
                    (
                        error_response(ErrorKind::ShuttingDown, reason.to_string()),
                        false,
                    )
                }
                Ok(text) => {
                    let (response, stop, trace) =
                        handle_request_traced(registry, Some(counters), &text);
                    if let (Some(slow_ms), Some(trace)) = (config.slow_ms, trace.as_ref()) {
                        maybe_log_slow(slow_ms, trace);
                    }
                    (response, stop)
                }
                Err(_) => {
                    let reason = "request line is not UTF-8".to_string();
                    (error_response(ErrorKind::BadRequest, reason), false)
                }
            }
        };
        if write_line(reader.get_ref(), &response).is_err() {
            break None; // the client is gone, or stopped reading
        }
        counters.responses_written.fetch_add(1, Ordering::Relaxed);
        if stop {
            saw_shutdown_op = true;
            shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(addr);
        }
        requests += 1;
        if config
            .max_requests_per_conn
            .is_some_and(|max| requests >= max)
        {
            counters
                .closed_request_limit
                .fetch_add(1, Ordering::Relaxed);
            break Some("request_limit");
        }
        if config.max_bytes_per_conn.is_some_and(|max| bytes >= max) {
            counters.closed_byte_limit.fetch_add(1, Ordering::Relaxed);
            break Some("byte_limit");
        }
    };
    let stream = reader.get_ref();
    if let Some(reason) = close {
        let _ = write_line(stream, &closing_notice(reason));
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Emits one NDJSON slow-query line on stderr when the traced request's
/// total handling time (`serve.request` span) crossed `slow_ms`. The line
/// carries the op, the tenant, the total nanos, the per-stage breakdown,
/// and — for `publish`/`candidate` — the view's canonical form, so a slow
/// audit can be correlated with its cache identity without re-running it.
fn maybe_log_slow(slow_ms: u64, trace: &qvsec_obs::TraceSummary) {
    let total_nanos = trace.stage_nanos("serve.request").unwrap_or(0);
    if total_nanos < slow_ms.saturating_mul(1_000_000) {
        return;
    }
    qvsec_obs::counter("serve.slow_queries").inc();
    let note = |key: &str| {
        trace
            .notes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let mut entries = vec![
        ("slow_query".to_string(), Value::Bool(true)),
        (
            "total_nanos".to_string(),
            Value::Int(i128::from(total_nanos)),
        ),
    ];
    for key in ["op", "tenant", "canonical"] {
        if let Some(value) = note(key) {
            entries.push((key.to_string(), Value::Str(value)));
        }
    }
    entries.push((
        "stages".to_string(),
        Value::Array(
            trace
                .stages
                .iter()
                .map(|(stage, nanos)| {
                    Value::Object(vec![
                        ("stage".to_string(), Value::Str(stage.clone())),
                        ("nanos".to_string(), Value::Int(i128::from(*nanos))),
                    ])
                })
                .collect(),
        ),
    ));
    if let Ok(text) = serde_json::to_string(&Value::Object(entries)) {
        eprintln!("{text}");
    }
}

/// Serializes `value` and writes it as one response line, failing with
/// `TimedOut` once the line has taken [`WRITE_DEADLINE`]. The socket's write
/// timeout bounds each blocking write, not their sum, so after a partial
/// write the timeout shrinks to what is left of the deadline.
fn write_line(mut writer: &TcpStream, value: &Value) -> io::Result<()> {
    let mut text = serde_json::to_string(value).expect("JSON rendering is infallible");
    text.push('\n');
    let deadline = Instant::now() + WRITE_DEADLINE;
    let mut rest = text.as_bytes();
    loop {
        match writer.write(rest) {
            Ok(n) if n == rest.len() => break,
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => rest = &rest[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        writer.set_write_timeout(Some(left))?;
    }
    if rest.len() < text.len() {
        writer.set_write_timeout(Some(WRITE_DEADLINE))?;
    }
    Ok(())
}

/// True for server lines that answer no request (connection notices).
pub fn is_notice(line: &str) -> bool {
    line.starts_with(r#"{"notice""#)
}

/// Client helper: sends each request line over one connection and returns
/// the response lines, in order — strictly synchronous, one request in
/// flight. Used by `qvsec-cli request` and the smoke tests.
pub fn request_lines(addr: &str, lines: &[String]) -> io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(lines.len());
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let mut response = String::new();
        if reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-script",
            ));
        }
        let response = response.trim_end();
        if is_notice(response) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                format!("connection closed by the server: {response}"),
            ));
        }
        responses.push(response.to_string());
    }
    Ok(responses)
}

/// Client helper: writes the whole script up front (pipelining; the lines
/// wait in the server's socket buffer), then reads one response per
/// request, in order. The response stream is byte-identical to [`request_lines`]
/// over the same script — pipelining changes scheduling, never answers.
pub fn request_lines_pipelined(addr: &str, lines: &[String]) -> io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut expected = 0usize;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        expected += 1;
    }
    writer.flush()?;
    let _ = writer.shutdown(std::net::Shutdown::Write);
    let mut responses = Vec::with_capacity(expected);
    let mut response = String::new();
    while responses.len() < expected {
        response.clear();
        if reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "server closed after {} of {expected} responses",
                    responses.len()
                ),
            ));
        }
        let trimmed = response.trim_end();
        if is_notice(trimmed) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                format!("connection closed by the server: {trimmed}"),
            ));
        }
        responses.push(trimmed.to_string());
    }
    Ok(responses)
}

/// What [`drive_scripts`] measured: per-connection response streams,
/// pooled per-request latencies, and how many requests never got answered.
#[derive(Debug, Default)]
pub struct DriveOutcome {
    /// Response lines per script, in request order.
    pub responses: Vec<Vec<String>>,
    /// One request→response round-trip time per answered request, pooled
    /// across connections (unordered).
    pub latencies_nanos: Vec<u64>,
    /// Requests that got no response (connection refused, closed early, or
    /// a `connection_closing` notice arrived instead).
    pub dropped: usize,
}

/// Drives `scripts` concurrently — one keep-alive connection per script,
/// each synchronous per request so a latency sample is one clean
/// request→response round trip. The saturation workhorse shared by
/// `qvsec-cli request --connections` and the bench harness.
pub fn drive_scripts(addr: &str, scripts: &[Vec<String>]) -> DriveOutcome {
    let mut outcome = DriveOutcome::default();
    let results: Vec<(Vec<String>, Vec<u64>, usize)> = thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| scope.spawn(move || drive_one(addr, script)))
            .collect();
        handles
            .into_iter()
            .zip(scripts)
            .map(|(handle, script)| {
                handle
                    .join()
                    .unwrap_or_else(|_| (Vec::new(), Vec::new(), live_lines(script)))
            })
            .collect()
    });
    for (responses, latencies, dropped) in results {
        outcome.responses.push(responses);
        outcome.latencies_nanos.extend(latencies);
        outcome.dropped += dropped;
    }
    outcome
}

fn live_lines(script: &[String]) -> usize {
    script.iter().filter(|l| !l.trim().is_empty()).count()
}

fn drive_one(addr: &str, script: &[String]) -> (Vec<String>, Vec<u64>, usize) {
    let expected = live_lines(script);
    let Ok(stream) = TcpStream::connect(addr) else {
        return (Vec::new(), Vec::new(), expected);
    };
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return (Vec::new(), Vec::new(), expected);
    };
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(expected);
    let mut latencies = Vec::with_capacity(expected);
    'script: for request in script {
        if request.trim().is_empty() {
            continue;
        }
        let start = Instant::now();
        if writer.write_all(request.as_bytes()).is_err()
            || writer.write_all(b"\n").is_err()
            || writer.flush().is_err()
        {
            break;
        }
        let mut response = String::new();
        match reader.read_line(&mut response) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                let trimmed = response.trim_end();
                if is_notice(trimmed) {
                    break 'script; // this request (and the rest) is dropped
                }
                latencies.push(start.elapsed().as_nanos() as u64);
                responses.push(trimmed.to_string());
            }
        }
    }
    let dropped = expected - responses.len();
    (responses, latencies, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvsec::engine::AuditEngine;
    use qvsec_data::{Domain, Schema};

    fn registry() -> Arc<SessionRegistry> {
        let mut schema = Schema::new();
        schema.add_relation("Employee", &["name", "department", "phone"]);
        let engine = Arc::new(AuditEngine::builder(schema, Domain::new()).build());
        Arc::new(SessionRegistry::new(engine))
    }

    fn spawn_server(max_connections: usize) -> (ServerHandle, thread::JoinHandle<io::Result<()>>) {
        spawn_server_with(ServerConfig {
            max_connections,
            ..ServerConfig::default()
        })
    }

    fn spawn_server_with(
        config: ServerConfig,
    ) -> (ServerHandle, thread::JoinHandle<io::Result<()>>) {
        let server = Server::bind_with(registry(), "127.0.0.1:0", config).unwrap();
        let handle = server.handle().unwrap();
        let join = thread::spawn(move || server.run());
        (handle, join)
    }

    #[test]
    fn serves_a_script_over_tcp_and_shuts_down() {
        let (handle, join) = spawn_server(2);
        let addr = handle.addr().to_string();
        let script: Vec<String> = [
            r#"{"op": "publish", "tenant": "a", "secret": "S(n, p) :- Employee(n, d, p)", "view": "V(n, d) :- Employee(n, d, p)"}"#,
            r#"{"op": "candidate", "tenant": "a", "view": "W(d, p) :- Employee(n, d, p)"}"#,
            r#"{"op": "stats"}"#,
        ]
        .into_iter()
        .map(String::from)
        .collect();
        let first = request_lines(&addr, &script).unwrap();
        assert_eq!(first.len(), 3);
        for response in &first {
            assert!(response.starts_with(r#"{"ok":true,"v":1"#), "{response}");
        }
        // Connection counters stay in the metrics plane: `stats` is the
        // same over TCP as embedded, and the `metrics` op carries them.
        assert!(!first[2].contains(r#""server""#), "{}", first[2]);
        let metrics = request_lines(&addr, &[r#"{"op": "metrics"}"#.to_string()]).unwrap();
        let gauges = serde_json::parse(&metrics[0]).unwrap();
        let gauges = gauges.field("metrics").field("gauges");
        assert_eq!(gauges.field("serve.connections.accepted").as_int(), Some(2));
        assert_eq!(gauges.field("serve.responses_written").as_int(), Some(3));
        // A second connection sees the same tenant state.
        let ping = request_lines(&addr, &[r#"{"op": "ping"}"#.to_string()]).unwrap();
        assert!(ping[0].contains(r#""tenants":1"#), "{}", ping[0]);
        // Shutdown over the wire stops the accept loop.
        let bye = request_lines(&addr, &[r#"{"op": "shutdown"}"#.to_string()]).unwrap();
        assert!(bye[0].contains(r#""shutdown":true"#));
        join.join().unwrap().unwrap();
        let stats = handle.stats();
        assert_eq!(stats.accepted, 4);
        assert_eq!(stats.responses_written, 6);
        assert_eq!(stats.active_connections, 0, "every connection drained");
    }

    #[test]
    fn the_background_sweeper_expires_idle_tenants_in_every_shard() {
        use crate::registry::RegistryConfig;
        let mut schema = Schema::new();
        schema.add_relation("Employee", &["name", "department", "phone"]);
        let engine = Arc::new(
            qvsec::engine::AuditEngine::builder(schema, qvsec_data::Domain::new()).build(),
        );
        let registry = Arc::new(crate::registry::SessionRegistry::with_config(
            engine,
            RegistryConfig {
                shards: 16,
                idle_timeout: Some(std::time::Duration::from_millis(50)),
            },
        ));
        let server = Server::bind(Arc::clone(&registry), "127.0.0.1:0", 4).unwrap();
        let handle = server.handle().unwrap();
        let addr = handle.addr().to_string();
        let join = thread::spawn(move || server.run());
        // Open sessions for tenants landing (with near-certainty) in many
        // different shards, then go idle: the sweeper must clear them all,
        // not just whichever shard a later request touches.
        let opens: Vec<String> = (0..8)
            .map(|i| format!(
                r#"{{"op": "open", "tenant": "tenant-{i}", "secret": "S(n, p) :- Employee(n, d, p)"}}"#
            ))
            .collect();
        let responses = request_lines(&addr, &opens).unwrap();
        assert!(responses.iter().all(|r| r.starts_with(r#"{"ok":true"#)));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while registry.tenant_count() > 0 && std::time::Instant::now() < deadline {
            thread::sleep(std::time::Duration::from_millis(25));
        }
        assert_eq!(registry.tenant_count(), 0, "sweeper must clear all shards");
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_lines_get_a_structured_error_and_the_connection_survives() {
        let (handle, join) = spawn_server(1);
        let addr = handle.addr().to_string();
        let stream = TcpStream::connect(&addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // One line just over the cap (no valid JSON needed: the server must
        // reject on size alone, before parsing), then a normal request.
        let huge = vec![b'a'; MAX_REQUEST_LINE_BYTES + 16];
        writer.write_all(&huge).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.write_all(b"{\"op\": \"ping\"}\n").unwrap();
        writer.flush().unwrap();
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        assert!(first.starts_with(r#"{"ok":false"#), "{first}");
        assert!(first.contains(r#""kind":"line_too_long""#), "{first}");
        assert!(first.contains("exceeds"), "{first}");
        let mut second = String::new();
        reader.read_line(&mut second).unwrap();
        assert!(second.starts_with(r#"{"ok":true"#), "{second}");
        drop(writer);
        drop(reader);
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn malformed_lines_get_error_responses_without_killing_the_connection() {
        let (handle, join) = spawn_server(1);
        let addr = handle.addr().to_string();
        let script: Vec<String> = ["this is not json", r#"{"op": "ping"}"#]
            .into_iter()
            .map(String::from)
            .collect();
        let responses = request_lines(&addr, &script).unwrap();
        assert!(responses[0].starts_with(r#"{"ok":false"#));
        assert!(responses[0].contains(r#""kind":"bad_request""#));
        assert!(responses[1].starts_with(r#"{"ok":true"#));
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn pipelined_scripts_get_the_same_responses_in_order() {
        let (handle, join) = spawn_server(2);
        let addr = handle.addr().to_string();
        let script: Vec<String> = [
            r#"{"op": "publish", "tenant": "p", "secret": "S(n, p) :- Employee(n, d, p)", "view": "V(n, d) :- Employee(n, d, p)"}"#,
            r#"{"op": "candidate", "tenant": "p", "view": "W(d, p) :- Employee(n, d, p)"}"#,
            r#"{"op": "snapshot", "tenant": "p", "label": "s1"}"#,
            r#"{"op": "candidate", "tenant": "p", "view": "X(n) :- Employee(n, d, p)"}"#,
            r#"{"op": "restore", "tenant": "p", "label": "s1"}"#,
        ]
        .into_iter()
        .map(String::from)
        .collect();
        let pipelined = request_lines_pipelined(&addr, &script).unwrap();
        assert_eq!(pipelined.len(), 5);
        // Ordering is observable through op-specific fields.
        assert!(
            pipelined[2].contains(r#""snapshot":"s1""#),
            "{}",
            pipelined[2]
        );
        assert!(pipelined[3].contains(r#""report""#), "{}", pipelined[3]);
        assert!(
            pipelined[4].contains(r#""restore":"s1""#),
            "{}",
            pipelined[4]
        );
        // And the stream matches a synchronous drive of the same script on
        // a fresh tenant byte for byte (tenant-renamed so state does not
        // overlap; the second drive runs warm, which no response shows).
        let renamed: Vec<String> = script
            .iter()
            .map(|l| l.replace(r#""p""#, r#""q""#))
            .collect();
        let sync = request_lines(&addr, &renamed).unwrap();
        for (a, b) in pipelined.iter().zip(&sync) {
            let a = a
                .replace(r#""tenant":"p""#, r#""tenant":"q""#)
                .replace("tenant:p", "tenant:q");
            assert_eq!(&a, b, "pipelining changed a response");
        }
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn requests_pipelined_behind_shutdown_get_a_shutting_down_error() {
        let (handle, join) = spawn_server(1);
        let addr = handle.addr().to_string();
        let script: Vec<String> = [
            r#"{"op": "ping"}"#,
            r#"{"op": "shutdown"}"#,
            r#"{"op": "ping"}"#,
        ]
        .into_iter()
        .map(String::from)
        .collect();
        let responses = request_lines_pipelined(&addr, &script).unwrap();
        assert!(responses[0].starts_with(r#"{"ok":true"#));
        assert!(responses[1].contains(r#""shutdown":true"#));
        assert!(
            responses[2].contains(r#""kind":"shutting_down""#),
            "{}",
            responses[2]
        );
        join.join().unwrap().unwrap();
    }

    #[test]
    fn a_client_that_never_reads_cannot_hold_the_drain_open() {
        let (handle, join) = spawn_server(2);
        let addr = handle.addr().to_string();
        // `Server::run` reports back over a channel, so a wedged drain
        // fails the test instead of hanging it.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let waiter = thread::spawn(move || done_tx.send(join.join()));
        // Pipeline pings without reading a response until our own writes
        // stall: the server has stopped reading because its response
        // writes filled the socket buffers.
        let hog = TcpStream::connect(&addr).unwrap();
        hog.set_write_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let batch = b"{\"op\": \"ping\"}\n".repeat(1024);
        let mut writer = &hog;
        for _ in 0..4096 {
            if writer.write_all(&batch).is_err() {
                break;
            }
        }
        let bye = request_lines(&addr, &[r#"{"op": "shutdown"}"#.to_string()]).unwrap();
        assert!(bye[0].contains(r#""shutdown":true"#), "{}", bye[0]);
        let bound = WRITE_DEADLINE + DRAIN_WINDOW + Duration::from_secs(2);
        match done_rx.recv_timeout(bound) {
            Ok(run) => run.unwrap().unwrap(),
            Err(_) => panic!("the server still had not drained {bound:?} after `shutdown`"),
        }
        waiter.join().unwrap().unwrap();
        drop(hog);
    }

    #[test]
    fn keep_alive_limits_close_with_a_structured_notice() {
        let (handle, join) = spawn_server_with(ServerConfig {
            max_connections: 2,
            max_requests_per_conn: Some(2),
            ..ServerConfig::default()
        });
        let addr = handle.addr().to_string();
        let stream = TcpStream::connect(&addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for _ in 0..4 {
            writer.write_all(b"{\"op\": \"ping\"}\n").unwrap();
        }
        writer.flush().unwrap();
        let mut lines = Vec::new();
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 {
            lines.push(line.trim_end().to_string());
            line.clear();
        }
        // Two responses, then the closing notice, then EOF: the 3rd and
        // 4th requests were never read.
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].starts_with(r#"{"ok":true"#));
        assert!(lines[1].starts_with(r#"{"ok":true"#));
        assert!(is_notice(&lines[2]), "{}", lines[2]);
        assert!(
            lines[2].contains(r#""reason":"request_limit""#),
            "{}",
            lines[2]
        );
        handle.shutdown();
        join.join().unwrap().unwrap();
        assert_eq!(handle.stats().closed_request_limit, 1);
    }

    #[test]
    fn idle_connections_are_dropped_with_a_notice() {
        let (handle, join) = spawn_server_with(ServerConfig {
            max_connections: 2,
            idle_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        });
        let addr = handle.addr().to_string();
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream);
        // Send nothing: the first line the server ever sends is the notice.
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(is_notice(line.trim_end()), "{line}");
        assert!(line.contains(r#""reason":"idle_timeout""#), "{line}");
        handle.shutdown();
        join.join().unwrap().unwrap();
        assert_eq!(handle.stats().dropped_idle, 1);
    }

    #[test]
    fn the_accept_gate_turns_away_excess_connections() {
        let (handle, join) = spawn_server(1);
        let addr = handle.addr().to_string();
        // Hold the only slot open with a live, half-driven connection.
        let stream = TcpStream::connect(&addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{\"op\": \"ping\"}\n").unwrap();
        writer.flush().unwrap();
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        assert!(first.starts_with(r#"{"ok":true"#), "{first}");
        // The second connection is turned away (after the gate's grace).
        let extra = TcpStream::connect(&addr).unwrap();
        let mut extra_reader = BufReader::new(extra);
        let mut notice = String::new();
        extra_reader.read_line(&mut notice).unwrap();
        assert!(is_notice(notice.trim_end()), "{notice}");
        assert!(notice.contains("server_at_capacity"), "{notice}");
        drop(writer);
        drop(reader);
        handle.shutdown();
        join.join().unwrap().unwrap();
        let stats = handle.stats();
        assert_eq!(stats.rejected_busy, 1);
        assert_eq!(stats.accepted, 1);
    }

    #[test]
    fn drive_scripts_reports_latencies_and_drops() {
        let (handle, join) = spawn_server(8);
        let addr = handle.addr().to_string();
        let scripts: Vec<Vec<String>> = (0..4)
            .map(|i| {
                vec![
                    format!(
                        r#"{{"op": "open", "tenant": "d{i}", "secret": "S(n, p) :- Employee(n, d, p)"}}"#
                    ),
                    r#"{"op": "ping"}"#.to_string(),
                ]
            })
            .collect();
        let outcome = drive_scripts(&addr, &scripts);
        assert_eq!(outcome.dropped, 0);
        assert_eq!(outcome.responses.len(), 4);
        assert_eq!(outcome.latencies_nanos.len(), 8);
        assert!(outcome.responses.iter().all(|r| r.len() == 2));
        assert!(outcome.latencies_nanos.iter().all(|&n| n > 0));
        handle.shutdown();
        join.join().unwrap().unwrap();
    }
}
