//! The serving-layer benchmark harness behind `BENCH_serve.json`.
//!
//! Measures the tentpole claim of `qvsec-serve`: a warm multi-tenant
//! [`SessionRegistry`] — T tenants publishing through **one** shared
//! engine — serves the whole request stream several times faster than the
//! stateless deployment shape (a **fresh engine per request**, recompiling
//! every artifact, redrawing every pool), with byte-identical verdicts.
//! Tenant 1 warms the artifact store; tenants 2..T are served almost
//! entirely from it, which is exactly what a server fronting many curators
//! of one schema sees.
//!
//! A second axis sweeps **eviction pressure**: the same multi-tenant drive
//! under shrinking engine byte budgets must keep verdicts identical to the
//! unbounded run while the eviction counters climb — the bounded memo
//! trades wall-clock for memory, never correctness, and a budget that holds
//! the unbounded working set evicts nothing.
//!
//! A third axis drives **concurrent clients**: N real client threads over
//! the NDJSON TCP server, each serving a disjoint slice of the tenants.
//! Contention on the engine's one memo lock would show up here as
//! throughput — and the per-tenant response streams have to stay
//! byte-identical to the single-client drive at every thread count.
//!
//! The binary `bench_serve` runs this harness and writes
//! `BENCH_serve.json`, mirroring the other committed bench artifacts.

use crate::session::{depth_name, employee_collusion_workload, prob_collusion_workload, Workload};
use qvsec::engine::{AuditOptions, AuditRequest};
use qvsec_cq::ConjunctiveQuery;
use qvsec_serve::{
    drive_scripts, request_lines, Server, ServerConfig, ServerStats, SessionRegistry,
};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Default number of tenants driven through the registry.
pub const DEFAULT_TENANTS: usize = 6;

/// One workload's registry-vs-fresh-engines measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeWorkloadReport {
    /// Workload label, e.g. `collusion-exact/employee`.
    pub name: String,
    /// Audit depth the tenants run at.
    pub depth: String,
    /// Total requests in the stream (tenants × publish steps).
    pub requests: usize,
    /// Best-of-N wall clock of the stateless shape: a fresh engine per
    /// request auditing the tenant's cumulative prefix, nanoseconds.
    pub cold_nanos: u64,
    /// Best-of-N wall clock of the shared registry serving the same
    /// stream (engine build included), nanoseconds.
    pub warm_nanos: u64,
    /// `cold_nanos / warm_nanos`.
    pub speedup: f64,
    /// Whether every registry report is byte-identical (modulo the request
    /// label) to the fresh engine's.
    pub verdicts_match: bool,
}

/// One point of the eviction-pressure sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvictionPoint {
    /// Engine byte budget (`None` = unbounded).
    pub budget_bytes: Option<usize>,
    /// Best-of-N wall clock of the multi-tenant drive under this budget.
    pub warm_nanos: u64,
    /// Entries evicted during one drive.
    pub evictions: u64,
    /// Approximate bytes evicted during one drive.
    pub evicted_bytes: u64,
    /// Approximate bytes resident after the drive.
    pub resident_bytes: u64,
    /// Whether every verdict matched the unbounded drive.
    pub verdicts_match: bool,
}

/// One client-thread count of the concurrent-serving sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConcurrentPoint {
    /// Real client threads driving the server (server workers match).
    pub client_threads: usize,
    /// Best-of-N wall clock of the full drive — server build, every
    /// tenant's script, shutdown — nanoseconds.
    pub nanos: u64,
    /// Requests per second over one drive.
    pub throughput_rps: f64,
    /// Single-client wall clock over this point's (`nanos` ≥ 1).
    pub speedup_vs_1: f64,
    /// Whether every tenant's response stream was byte-identical to the
    /// single-client drive.
    pub responses_match: bool,
}

/// The concurrent-client measurement: N client threads over the NDJSON
/// TCP server, tenants partitioned round-robin across clients.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConcurrentReport {
    /// Cores available on the recording machine
    /// ([`std::thread::available_parallelism`]) — speedup floors only
    /// bind when this is at least the client count.
    pub cores: usize,
    /// Tenants driven through the server.
    pub tenants: usize,
    /// Total request lines across all tenant scripts.
    pub requests: usize,
    /// One point per swept client-thread count.
    pub points: Vec<ConcurrentPoint>,
}

/// One connection count of the saturation sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SaturationPoint {
    /// Concurrent keep-alive connections held open for the whole drive.
    pub connections: usize,
    /// Total requests across every connection's script.
    pub requests: usize,
    /// Best-of-N wall clock of the drive (connections up to last response),
    /// nanoseconds.
    pub nanos: u64,
    /// Requests per second over the best drive.
    pub throughput_rps: f64,
    /// Median per-request latency over the best drive, microseconds.
    pub p50_micros: u64,
    /// 99th-percentile per-request latency over the best drive,
    /// microseconds.
    pub p99_micros: u64,
    /// This point's throughput over the single-connection point's (≥ 1 is
    /// the saturation claim; floors only bind when cores allow).
    pub speedup_vs_1: f64,
    /// Requests that never got a response (must be 0: keep-alive
    /// connections under the default lifecycle are never shed).
    pub dropped_responses: usize,
    /// Whether every connection's response stream was byte-identical to a
    /// sequential one-connection-at-a-time drive of the same scripts.
    pub responses_match: bool,
    /// The server's connection counters after the verification drive.
    pub server: ServerStats,
}

/// The saturation measurement: 32–128 concurrent pipethrough keep-alive
/// connections against one server, each replaying a tenant-disjoint
/// script.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SaturationReport {
    /// Cores available on the recording machine — throughput floors only
    /// bind when this is at least 4.
    pub cores: usize,
    /// Requests each connection's script carries.
    pub requests_per_connection: usize,
    /// One point per swept connection count.
    pub points: Vec<SaturationPoint>,
}

/// The instrumentation-overhead measurement: the same embedded
/// multi-tenant drive with the telemetry plane fully enabled — span
/// tracing on, every span feeding the latency histograms — against the
/// default path with tracing off. The responses must be byte-identical
/// either way, and the enabled drive must retain at least 95% of the
/// disabled drive's throughput.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstrumentationReport {
    /// Requests per drive (tenants × script length).
    pub requests: usize,
    /// Median wall clock of one drive with tracing off, nanoseconds.
    pub off_nanos: u64,
    /// Median wall clock of one drive with tracing on, nanoseconds.
    pub on_nanos: u64,
    /// Requests per second with tracing off, from `off_nanos`.
    pub off_rps: f64,
    /// Requests per second with tracing on, from `on_nanos`.
    pub on_rps: f64,
    /// The median over pairs of back-to-back drives of the throughput
    /// retained with the telemetry plane fully enabled, `off / on` drive
    /// time (1.0 = free; the gate holds this at ≥ 0.95).
    pub retained_throughput: f64,
    /// Whether the traced drive's responses were byte-identical to the
    /// untraced drive's.
    pub responses_match: bool,
}

/// The full harness report serialized into `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// Worker threads available to the engine's parallel stages.
    pub threads: usize,
    /// Iterations per measurement (best-of).
    pub iterations: usize,
    /// Tenants driven through the registry per workload.
    pub tenants: usize,
    /// Per-workload measurements.
    pub workloads: Vec<ServeWorkloadReport>,
    /// Geometric mean of the per-workload speedups.
    pub geomean_speedup: f64,
    /// Whether every workload's verdicts matched the stateless baseline.
    pub all_verdicts_match: bool,
    /// The eviction-pressure sweep (run on the first workload).
    pub eviction_sweep: Vec<EvictionPoint>,
    /// Whether every budgeted drive matched the unbounded one.
    pub eviction_verdicts_match: bool,
    /// The concurrent-client sweep over the NDJSON server (run on the
    /// probabilistic workload, where each request carries real work).
    pub concurrent: ConcurrentReport,
    /// The saturation sweep: 32–128 concurrent keep-alive connections over
    /// the NDJSON server (run on the cheap exact workload, so the front
    /// end — accept gate, reader threads, in-flight queues — is what gets
    /// measured, not the audits).
    pub saturation: SaturationReport,
    /// The instrumentation-overhead measurement (run on the cheap exact
    /// workload — the worst case for relative overhead, since every span
    /// wraps near-free work).
    pub instrumentation: InstrumentationReport,
}

fn best_of<F: FnMut()>(iterations: usize, mut f: F) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..iterations.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

/// A serialized report with the request/session label removed (the only
/// field that legitimately differs between serving shapes).
fn unlabelled(report: &qvsec::AuditReport) -> String {
    let value = serde_json::to_value(report).expect("reports serialize");
    let Value::Object(entries) = value else {
        panic!("reports serialize to objects")
    };
    let kept: Vec<_> = entries.into_iter().filter(|(k, _)| k != "name").collect();
    serde_json::to_string(&Value::Object(kept)).expect("rendering is infallible")
}

/// Drives `tenants` tenants through a fresh registry over a fresh engine.
/// With `collect` the unlabelled per-request reports come back in stream
/// order (the verification pass); the timed passes skip the serialization
/// so it cannot dilute the measured ratio. The workloads themselves are
/// shared with the session harness (`crate::session`), so both committed
/// artifacts measure the same audit streams.
fn drive_registry(
    workload: &Workload,
    tenants: usize,
    budget: Option<usize>,
    collect: bool,
) -> (Vec<String>, u64, u64, u64) {
    let engine = Arc::new(workload.engine_with_budget(budget));
    let registry = SessionRegistry::new(Arc::clone(&engine));
    let mut reports = Vec::new();
    for t in 0..tenants {
        let tenant = format!("tenant-{t:03}");
        registry.open(&tenant, &workload.secret).expect("open");
        for (who, view) in &workload.steps {
            let report = registry
                .publish(&tenant, None, Some(who.clone()), view.clone())
                .expect("bench workloads audit cleanly");
            if collect {
                reports.push(unlabelled(&report.report));
            }
        }
    }
    let stats = engine.cache_stats();
    (
        reports,
        stats.evictions,
        stats.evicted_bytes,
        stats.resident_bytes,
    )
}

/// The stateless shape: a fresh engine per request, each auditing the
/// tenant's cumulative prefix.
fn drive_fresh_engines(workload: &Workload, tenants: usize, collect: bool) -> Vec<String> {
    let mut reports = Vec::new();
    for t in 0..tenants {
        let tenant = format!("tenant-{t:03}");
        let mut published: Vec<ConjunctiveQuery> = Vec::new();
        for (k, (_, view)) in workload.steps.iter().enumerate() {
            published.push(view.clone());
            let request = AuditRequest {
                name: format!("{tenant}#{}", k + 1),
                secret: workload.secret.clone(),
                views: qvsec_cq::ViewSet::from_views(published.clone()),
                options: AuditOptions::default(),
            };
            let report = workload
                .engine_with_budget(None)
                .audit(&request)
                .expect("audits");
            if collect {
                reports.push(unlabelled(&report));
            }
        }
    }
    reports
}

/// One protocol request line with string fields, serialized through the
/// JSON printer so query text is escaped like any client would send it.
fn wire_line(fields: &[(&str, &str)]) -> String {
    let entries = fields
        .iter()
        .map(|(k, v)| ((*k).to_string(), Value::Str((*v).to_string())))
        .collect();
    serde_json::to_string(&Value::Object(entries)).expect("rendering is infallible")
}

/// One NDJSON script per tenant: open, the workload's publish steps, and a
/// tenant-distinct chain view (length `1 + t % 4`) so concurrent clients
/// carry fresh compile work into the memo instead of racing on pure cache
/// hits.
fn tenant_scripts(workload: &Workload, tenants: usize) -> Vec<Vec<String>> {
    let secret = workload
        .secret
        .display(&workload.schema, &workload.domain)
        .to_string();
    let steps: Vec<(String, String)> = workload
        .steps
        .iter()
        .map(|(who, view)| {
            (
                who.clone(),
                view.display(&workload.schema, &workload.domain).to_string(),
            )
        })
        .collect();
    (0..tenants)
        .map(|t| {
            let tenant = format!("tenant-{t:03}");
            let mut lines = vec![wire_line(&[
                ("op", "open"),
                ("tenant", &tenant),
                ("secret", &secret),
            ])];
            for (who, view) in &steps {
                lines.push(wire_line(&[
                    ("op", "publish"),
                    ("tenant", &tenant),
                    ("view", view),
                    ("name", who),
                ]));
            }
            let n = 1 + t % 4;
            let body: Vec<String> = (0..n).map(|i| format!("R(v{i}, v{})", i + 1)).collect();
            let chain = format!("C{n}(v0) :- {}", body.join(", "));
            lines.push(wire_line(&[
                ("op", "publish"),
                ("tenant", &tenant),
                ("view", &chain),
                ("name", "chain"),
            ]));
            lines
        })
        .collect()
}

/// Drives every tenant script through a fresh server with `clients` real
/// client threads (client `c` serves tenants `c, c + clients, ...`) and
/// `clients` server workers. Returns the raw response lines in tenant
/// order, independent of which client carried them.
fn drive_concurrent(
    workload: &Workload,
    scripts: &[Vec<String>],
    clients: usize,
) -> Vec<Vec<String>> {
    let engine = Arc::new(workload.engine_with_budget(None));
    let registry = Arc::new(SessionRegistry::new(engine));
    let server = Server::bind(registry, "127.0.0.1:0", clients).expect("bind loopback");
    let handle = server.handle().expect("server handle");
    let addr = handle.addr().to_string();
    let join = thread::spawn(move || server.run());
    let collected: Vec<(usize, Vec<String>)> = thread::scope(|scope| {
        let addr = addr.as_str();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for t in (c..scripts.len()).step_by(clients) {
                        let lines = request_lines(addr, &scripts[t]).expect("client request");
                        out.push((t, lines));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    handle.shutdown();
    join.join().expect("server thread").expect("server run");
    let mut responses = vec![Vec::new(); scripts.len()];
    for (t, lines) in collected {
        responses[t] = lines;
    }
    responses
}

/// The concurrent-client sweep: 1, 2 and 4 client threads over the same
/// tenant scripts, verified against the single-client drive.
fn run_concurrent(workload: &Workload, tenants: usize, iterations: usize) -> ConcurrentReport {
    let scripts = tenant_scripts(workload, tenants);
    let requests: usize = scripts.iter().map(Vec::len).sum();
    let baseline = drive_concurrent(workload, &scripts, 1);
    let mut points = Vec::new();
    let mut single_nanos = 0u64;
    for clients in [1usize, 2, 4] {
        let responses_match = drive_concurrent(workload, &scripts, clients) == baseline;
        let nanos = best_of(iterations, || {
            drive_concurrent(workload, &scripts, clients);
        });
        if clients == 1 {
            single_nanos = nanos;
        }
        points.push(ConcurrentPoint {
            client_threads: clients,
            nanos,
            throughput_rps: requests as f64 * 1e9 / nanos.max(1) as f64,
            speedup_vs_1: single_nanos as f64 / nanos.max(1) as f64,
            responses_match,
        });
    }
    ConcurrentReport {
        cores: thread::available_parallelism().map_or(1, |n| n.get()),
        tenants,
        requests,
        points,
    }
}

/// Runs the concurrent-client sweep standalone on the probabilistic
/// collusion workload — the thread-invariance smoke tests call this
/// directly so they need not pay for the full harness.
pub fn run_concurrent_bench(
    iterations: usize,
    tenants: usize,
    mc_samples: usize,
) -> ConcurrentReport {
    run_concurrent(&prob_collusion_workload(3, mc_samples), tenants, iterations)
}

/// One cheap keep-alive script per connection: open a connection-disjoint
/// tenant, publish the workload's steps, then one candidate re-asking the
/// first view. Every op is tenant-local, so a concurrent drive and a
/// sequential one must answer identically.
fn saturation_scripts(workload: &Workload, connections: usize) -> Vec<Vec<String>> {
    let secret = workload
        .secret
        .display(&workload.schema, &workload.domain)
        .to_string();
    let steps: Vec<(String, String)> = workload
        .steps
        .iter()
        .map(|(who, view)| {
            (
                who.clone(),
                view.display(&workload.schema, &workload.domain).to_string(),
            )
        })
        .collect();
    (0..connections)
        .map(|c| {
            let tenant = format!("sat-{c:03}");
            let mut lines = vec![wire_line(&[
                ("op", "open"),
                ("tenant", &tenant),
                ("secret", &secret),
            ])];
            for (who, view) in &steps {
                lines.push(wire_line(&[
                    ("op", "publish"),
                    ("tenant", &tenant),
                    ("view", view),
                    ("name", who),
                ]));
            }
            lines.push(wire_line(&[
                ("op", "candidate"),
                ("tenant", &tenant),
                ("view", &steps[0].1),
            ]));
            lines
        })
        .collect()
}

/// One saturation drive: a fresh server sized for the connection count,
/// every script driven concurrently over its own keep-alive connection.
/// Returns the drive outcome, the server's counters and the wall clock of
/// the drive itself (server build and shutdown excluded).
fn drive_saturation(
    workload: &Workload,
    scripts: &[Vec<String>],
) -> (qvsec_serve::DriveOutcome, ServerStats, u64) {
    let engine = Arc::new(workload.engine_with_budget(None));
    let registry = Arc::new(SessionRegistry::new(engine));
    let server = Server::bind_with(
        registry,
        "127.0.0.1:0",
        ServerConfig {
            max_connections: scripts.len().max(4),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let handle = server.handle().expect("server handle");
    let addr = handle.addr().to_string();
    let join = thread::spawn(move || server.run());
    let start = Instant::now();
    let outcome = drive_scripts(&addr, scripts);
    let nanos = start.elapsed().as_nanos() as u64;
    handle.shutdown();
    join.join().expect("server thread").expect("server run");
    // Counters are final only once every connection thread has exited —
    // i.e. after the drain `run()` performs — so snapshot after the join.
    let stats = handle.stats();
    (outcome, stats, nanos)
}

/// A sequential ground-truth drive of the same scripts: one connection at
/// a time against a fresh server.
fn sequential_baseline(workload: &Workload, scripts: &[Vec<String>]) -> Vec<Vec<String>> {
    let engine = Arc::new(workload.engine_with_budget(None));
    let registry = Arc::new(SessionRegistry::new(engine));
    let server = Server::bind(registry, "127.0.0.1:0", 4).expect("bind loopback");
    let handle = server.handle().expect("server handle");
    let addr = handle.addr().to_string();
    let join = thread::spawn(move || server.run());
    let responses: Vec<Vec<String>> = scripts
        .iter()
        .map(|script| request_lines(&addr, script).expect("sequential drive"))
        .collect();
    handle.shutdown();
    join.join().expect("server thread").expect("server run");
    responses
}

fn percentile_micros(sorted_nanos: &[u64], p: f64) -> u64 {
    if sorted_nanos.is_empty() {
        return 0;
    }
    let rank = ((sorted_nanos.len() - 1) as f64 * p).round() as usize;
    sorted_nanos[rank] / 1_000
}

/// The saturation sweep over `connection_counts` (the first count is the
/// speedup baseline). Each point verifies against a sequential drive, then
/// keeps the latency distribution and counters of the best-of-N timed
/// drive.
fn run_saturation(
    workload: &Workload,
    iterations: usize,
    connection_counts: &[usize],
) -> SaturationReport {
    let mut points = Vec::new();
    let mut single_rps = 0.0f64;
    for &connections in connection_counts {
        let scripts = saturation_scripts(workload, connections);
        let requests: usize = scripts.iter().map(Vec::len).sum();
        let baseline = sequential_baseline(workload, &scripts);
        let (verify_outcome, verify_stats, mut best_nanos) = drive_saturation(workload, &scripts);
        let responses_match = verify_outcome.dropped == 0 && verify_outcome.responses == baseline;
        let mut best_latencies = verify_outcome.latencies_nanos.clone();
        let mut dropped = verify_outcome.dropped;
        for _ in 1..iterations.max(1) {
            let (outcome, _, nanos) = drive_saturation(workload, &scripts);
            if nanos < best_nanos {
                best_nanos = nanos;
                best_latencies = outcome.latencies_nanos.clone();
                dropped = outcome.dropped;
            }
        }
        best_latencies.sort_unstable();
        let throughput_rps = requests as f64 * 1e9 / best_nanos.max(1) as f64;
        if points.is_empty() {
            single_rps = throughput_rps;
        }
        points.push(SaturationPoint {
            connections,
            requests,
            nanos: best_nanos,
            throughput_rps,
            p50_micros: percentile_micros(&best_latencies, 0.50),
            p99_micros: percentile_micros(&best_latencies, 0.99),
            speedup_vs_1: throughput_rps / single_rps.max(1e-9),
            dropped_responses: dropped,
            responses_match,
            server: verify_stats,
        });
    }
    SaturationReport {
        cores: thread::available_parallelism().map_or(1, |n| n.get()),
        requests_per_connection: workload.steps.len() + 2,
        points,
    }
}

/// Runs the saturation sweep standalone on the cheap exact workload — the
/// smoke tests call this directly with a reduced connection list so they
/// need not pay for the full harness.
pub fn run_saturation_bench(iterations: usize, connection_counts: &[usize]) -> SaturationReport {
    run_saturation(
        &employee_collusion_workload(64),
        iterations,
        connection_counts,
    )
}

/// Drives every tenant script through the embedded dispatcher over a
/// fresh registry — the full instrumented request path (span enters,
/// counters, histograms) without TCP scheduling noise. With `collect`
/// the exact response bytes come back in stream order.
fn drive_embedded(workload: &Workload, scripts: &[Vec<String>], collect: bool) -> Vec<String> {
    let engine = Arc::new(workload.engine_with_budget(None));
    let registry = SessionRegistry::new(engine);
    let mut responses = Vec::new();
    for script in scripts {
        for line in script {
            let (value, _) = qvsec_serve::handle_request(&registry, line);
            if collect {
                responses.push(serde_json::to_string(&value).expect("rendering is infallible"));
            }
        }
    }
    responses
}

/// Time each shape of the instrumentation measurement runs per round.
const INSTRUMENTATION_ROUND: Duration = Duration::from_millis(50);

/// The median of `values` (the upper one of an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Measures the cost of the telemetry plane: the same embedded drive with
/// span tracing off and fully on. Verifies byte-identity first (the
/// observability-transparency claim), then times `iterations` rounds in
/// which each shape runs for at least [`INSTRUMENTATION_ROUND`]. Within a
/// round the shapes alternate drive by drive, in pairs whose order also
/// alternates, so a change in the host's speed that outlasts one ~2 ms
/// drive hits both members of a pair alike. The reported ratio is the
/// median of the per-pair ratios, which the pairs a speed change splits do
/// not move. Leaves the process-global tracing flag off.
fn run_instrumentation(
    workload: &Workload,
    tenants: usize,
    iterations: usize,
) -> InstrumentationReport {
    let scripts = tenant_scripts(workload, tenants);
    let requests: usize = scripts.iter().map(Vec::len).sum();
    qvsec_obs::set_tracing(false);
    let off_responses = drive_embedded(workload, &scripts, true);
    qvsec_obs::set_tracing(true);
    let on_responses = drive_embedded(workload, &scripts, true);
    let responses_match = off_responses == on_responses;
    let timed_drive = |tracing: bool| {
        qvsec_obs::set_tracing(tracing);
        let start = Instant::now();
        drive_embedded(workload, &scripts, false);
        start.elapsed().as_nanos() as u64
    };
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    let round = INSTRUMENTATION_ROUND.as_nanos() as u64;
    for _ in 0..iterations.max(1) {
        let (mut off_total, mut on_total) = (0, 0);
        while off_total < round || on_total < round {
            let pair = if pairs.len().is_multiple_of(2) {
                let off = timed_drive(false);
                (off, timed_drive(true))
            } else {
                let on = timed_drive(true);
                (timed_drive(false), on)
            };
            off_total += pair.0;
            on_total += pair.1;
            pairs.push(pair);
        }
    }
    qvsec_obs::set_tracing(false);
    let off_nanos = median(pairs.iter().map(|p| p.0 as f64).collect()) as u64;
    let on_nanos = median(pairs.iter().map(|p| p.1 as f64).collect()) as u64;
    let retained = median(
        pairs
            .iter()
            .map(|&(off, on)| off as f64 / on.max(1) as f64)
            .collect(),
    );
    InstrumentationReport {
        requests,
        off_nanos,
        on_nanos,
        off_rps: requests as f64 * 1e9 / off_nanos.max(1) as f64,
        on_rps: requests as f64 * 1e9 / on_nanos.max(1) as f64,
        retained_throughput: retained,
        responses_match,
    }
}

/// Runs the instrumentation-overhead measurement standalone on the cheap
/// exact workload — the transparency smoke tests call this directly so
/// they need not pay for the full harness.
pub fn run_instrumentation_bench(iterations: usize, tenants: usize) -> InstrumentationReport {
    run_instrumentation(&employee_collusion_workload(64), tenants, iterations)
}

/// Runs the harness: registry-vs-fresh-engines per workload, then the
/// eviction-pressure sweep on the employee workload.
pub fn run_serve_bench(iterations: usize, tenants: usize, mc_samples: usize) -> ServeBenchReport {
    let workloads = [
        employee_collusion_workload(mc_samples),
        prob_collusion_workload(3, mc_samples),
    ];
    let mut reports = Vec::with_capacity(workloads.len());
    for w in &workloads {
        let (warm_reports, ..) = drive_registry(w, tenants, None, true);
        let cold_reports = drive_fresh_engines(w, tenants, true);
        let verdicts_match = warm_reports == cold_reports;
        let warm_nanos = best_of(iterations, || {
            drive_registry(w, tenants, None, false);
        });
        let cold_nanos = best_of(iterations, || {
            drive_fresh_engines(w, tenants, false);
        });
        reports.push(ServeWorkloadReport {
            name: w.name.clone(),
            depth: depth_name(w.depth).to_string(),
            requests: tenants * w.steps.len(),
            cold_nanos,
            warm_nanos,
            speedup: cold_nanos as f64 / warm_nanos.max(1) as f64,
            verdicts_match,
        });
    }
    let geomean_speedup = {
        let logs: Vec<f64> = reports.iter().map(|r| r.speedup.ln()).collect();
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    };

    // Eviction pressure: shrink the budget on the employee workload; the
    // verdicts must track the unbounded drive at every point.
    let sweep_workload = &workloads[0];
    let (unbounded_reports, ..) = drive_registry(sweep_workload, tenants, None, true);
    let mut eviction_sweep = Vec::new();
    for budget in [None, Some(64 * 1024), Some(4 * 1024)] {
        let (reports_b, evictions, evicted_bytes, resident_bytes) =
            drive_registry(sweep_workload, tenants, budget, true);
        let warm_nanos = best_of(iterations, || {
            drive_registry(sweep_workload, tenants, budget, false);
        });
        eviction_sweep.push(EvictionPoint {
            budget_bytes: budget,
            warm_nanos,
            evictions,
            evicted_bytes,
            resident_bytes,
            verdicts_match: reports_b == unbounded_reports,
        });
    }

    // Concurrent clients are measured on the probabilistic workload too:
    // its requests carry enough per-request work for parallel serving to
    // matter, and the chain views insert fresh artifacts concurrently.
    let concurrent = run_concurrent(&workloads[1], tenants, iterations);

    // Saturation runs on the cheap exact workload: with near-free audits,
    // req/s and tail latency measure the front end itself.
    let saturation = run_saturation(&workloads[0], iterations, &[1, 32, 64, 128]);

    // Instrumentation overhead runs on the same cheap workload — every
    // span wraps near-free work, so the relative cost is at its worst.
    let instrumentation = run_instrumentation(&workloads[0], tenants, iterations.max(5));

    ServeBenchReport {
        threads: rayon::current_num_threads(),
        iterations: iterations.max(1),
        tenants,
        geomean_speedup,
        all_verdicts_match: reports.iter().all(|r| r.verdicts_match),
        workloads: reports,
        eviction_verdicts_match: eviction_sweep.iter().all(|p| p.verdicts_match),
        eviction_sweep,
        concurrent,
        saturation,
        instrumentation,
    }
}

/// Renders a compact human-readable table of the report.
pub fn render_report(report: &ServeBenchReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "warm multi-tenant registry vs fresh engine per request ({} tenants, {} threads, best of {}):",
        report.tenants, report.threads, report.iterations
    );
    let _ = writeln!(
        out,
        "{:<26} {:<14} {:>9} {:>12} {:>12} {:>8} {:>6}",
        "workload", "depth", "requests", "cold µs", "warm µs", "speedup", "match"
    );
    for w in &report.workloads {
        let _ = writeln!(
            out,
            "{:<26} {:<14} {:>9} {:>12.1} {:>12.1} {:>7.1}x {:>6}",
            w.name,
            w.depth,
            w.requests,
            w.cold_nanos as f64 / 1000.0,
            w.warm_nanos as f64 / 1000.0,
            w.speedup,
            w.verdicts_match,
        );
    }
    let _ = writeln!(
        out,
        "geomean speedup {:.2}x, verdicts match: {}",
        report.geomean_speedup, report.all_verdicts_match
    );
    let _ = writeln!(
        out,
        "eviction-pressure sweep ({}):",
        report.workloads[0].name
    );
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>10} {:>14} {:>14} {:>6}",
        "budget", "warm µs", "evictions", "evicted B", "resident B", "match"
    );
    for p in &report.eviction_sweep {
        let budget = match p.budget_bytes {
            Some(b) => format!("{b}"),
            None => "unbounded".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<16} {:>12.1} {:>10} {:>14} {:>14} {:>6}",
            budget,
            p.warm_nanos as f64 / 1000.0,
            p.evictions,
            p.evicted_bytes,
            p.resident_bytes,
            p.verdicts_match,
        );
    }
    let c = &report.concurrent;
    let _ = writeln!(
        out,
        "concurrent clients over the NDJSON server ({} tenants, {} requests, {} cores):",
        c.tenants, c.requests, c.cores
    );
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>12} {:>6}",
        "client threads", "drive µs", "req/s", "vs 1 client", "match"
    );
    for p in &c.points {
        let _ = writeln!(
            out,
            "{:<16} {:>12.1} {:>12.0} {:>11.2}x {:>6}",
            p.client_threads,
            p.nanos as f64 / 1000.0,
            p.throughput_rps,
            p.speedup_vs_1,
            p.responses_match,
        );
    }
    let s = &report.saturation;
    let _ = writeln!(
        out,
        "saturation: concurrent keep-alive connections ({} requests/conn, {} cores):",
        s.requests_per_connection, s.cores
    );
    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>12} {:>10} {:>10} {:>11} {:>8} {:>6}",
        "connections", "requests", "req/s", "p50 µs", "p99 µs", "vs 1 conn", "dropped", "match"
    );
    for p in &s.points {
        let _ = writeln!(
            out,
            "{:<12} {:>9} {:>12.0} {:>10} {:>10} {:>10.2}x {:>8} {:>6}",
            p.connections,
            p.requests,
            p.throughput_rps,
            p.p50_micros,
            p.p99_micros,
            p.speedup_vs_1,
            p.dropped_responses,
            p.responses_match,
        );
    }
    let i = &report.instrumentation;
    let _ = writeln!(
        out,
        "instrumentation overhead ({} requests, embedded drive): off {:.0} req/s, \
         tracing+metrics on {:.0} req/s, {:.1}% retained, responses match: {}",
        i.requests,
        i.off_rps,
        i.on_rps,
        i.retained_throughput * 100.0,
        i.responses_match,
    );
    out
}
