//! `qvsec-perfbench`: the end-to-end and per-layer benchmark of
//! `qvsec-cli serve`. See `perfbench/NOTES.md` for the design and
//! `perfbench/run.py` for the entry point that builds both binaries.
//!
//! ```text
//! qvsec-perfbench --workload <wire_mix|deep_sessions|durable_restart>
//!     --seed <n> --seconds <s> --trace <0|1> [--size tiny]
//!     --server-bin <qvsec-cli> --spec-dir <perfbench/specs> --work-dir <dir>
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and the metrics (the gated end-to-end ones with `--trace 0`,
//! per-layer with `--trace 1`).

mod layers;
mod lists;
mod replay;
mod server;

use lists::{Class, Plan, Size, Workload};
use qvsec_store::StoreConfig;
use server::{Conn, Result, ServerProc};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Server set-ups (or, durable, restarts) per run; `setup_s` is their
/// median, and the last server serves the timed phase.
const SETUPS: usize = 7;
const PING: &str = r#"{"op": "ping"}"#;
const METRICS: &str = r#"{"op": "metrics"}"#;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    server_bin: PathBuf,
    spec_dir: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    let (mut server_bin, mut spec_dir, mut work_dir) = (None, None, None);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--size" => match value()?.as_str() {
                "tiny" => tiny = true,
                "full" => tiny = false,
                other => return Err(format!("--size takes tiny or full, not `{other}`")),
            },
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            "--spec-dir" => spec_dir = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
        size: if tiny {
            Size::Tiny
        } else {
            Size::Full(seconds)
        },
        server_bin: server_bin.ok_or("missing --server-bin")?,
        spec_dir: spec_dir.ok_or("missing --spec-dir")?,
        work_dir: work_dir.ok_or("missing --work-dir")?,
    })
}

/// The run's scratch directory (the durable stores); removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn create(path: PathBuf) -> Result<RunDir> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let path = path
            .canonicalize()
            .map_err(|e| format!("resolve {}: {e}", path.display()))?;
        Ok(RunDir(path))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn is_ok(response: &str) -> bool {
    response.starts_with(r#"{"ok":true"#)
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// A response's gauge from the `metrics` op.
fn gauge(metrics: &serde_json::Value, name: &str) -> u64 {
    metrics
        .field("metrics")
        .field("gauges")
        .field(name)
        .as_int()
        .map_or(0, |v| v as u64)
}

fn metrics_of(conn: &mut Conn) -> Result<serde_json::Value> {
    let line = conn.call_ok(METRICS)?;
    serde_json::parse(&line).map_err(|e| format!("metrics response: {e}"))
}

/// What the wire phase of a run measured.
#[derive(Default)]
struct Wire {
    /// One value per set-up (warm workloads) or restart (durable).
    setup_s: Vec<f64>,
    /// Round trip nanos per class, in list order.
    candidate_ns: Vec<u64>,
    publish_ns: Vec<u64>,
    /// Round trip minus the server's own handling nanos per class, from
    /// the traced pass's `timing` members.
    candidate_wire_ns: Vec<u64>,
    publish_wire_ns: Vec<u64>,
    /// Wall time of the timed phase.
    timed_ns: u64,
    /// Per request, in list order: whether it was `ok`, and its
    /// [`replay::digest`].
    responses: Vec<(bool, u64)>,
    /// Server `VmHWM` (KiB) after the timed phase.
    rss_kib: u64,
    /// `metrics` op responses around the timed phase.
    before: Option<serde_json::Value>,
    after: Option<serde_json::Value>,
    /// The live store after the timed phase (durable only).
    store_bytes: u64,
}

/// `line` asking for the opt-in `timing` member.
fn with_timing(line: &str) -> String {
    let body = line.strip_suffix('}').unwrap_or(line);
    format!("{body}, \"timing\": true}}")
}

/// Drives the timed list closed-loop on one connection: each request leaves
/// only after the previous response arrived. With `timing`, every request
/// asks for the server's handling nanos.
fn drive(conn: &mut Conn, plan: &Plan, timing: bool, wire: &mut Wire) -> Result<()> {
    let lines: Vec<String> = plan
        .timed
        .iter()
        .map(|r| {
            if timing {
                with_timing(&r.line)
            } else {
                r.line.clone()
            }
        })
        .collect();
    let start = Instant::now();
    for (req, line) in plan.timed.iter().zip(&lines) {
        let sent = Instant::now();
        let response = conn.call(line)?;
        let ns = u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX);
        wire.responses
            .push((is_ok(response), replay::digest(response)));
        let handled = replay::handled_nanos(response);
        let (round_trips, wire_ns) = match req.class {
            Class::Candidate => (&mut wire.candidate_ns, &mut wire.candidate_wire_ns),
            Class::Publish => (&mut wire.publish_ns, &mut wire.publish_wire_ns),
            Class::Other => continue,
        };
        round_trips.push(ns);
        wire_ns.extend(handled.map(|h| ns.saturating_sub(h)));
    }
    wire.timed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| format!("read {}: {e}", from.display()))?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Where `durable_restart` keeps its stores, all under the run directory.
struct Stores {
    /// The store as the seeding server left it.
    pristine: PathBuf,
    /// The store a restarted server runs over (a fresh copy of pristine).
    live: PathBuf,
}

/// `durable_restart`'s seeding: a server over an empty store runs the
/// set-up script on one connection and drains; what it leaves is copied
/// before every restart and never between commits.
fn seed_store(args: &Args, plan: &Plan, spec: &Path, run: &Path) -> Result<Stores> {
    let stores = Stores {
        pristine: run.join("store-pristine"),
        live: run.join("store-live"),
    };
    let seeder = ServerProc::spawn(&args.server_bin, spec, Some(&stores.pristine))?;
    let mut conn = seeder.connect()?;
    for line in &plan.setup {
        conn.call_ok(line)?;
    }
    drop(conn);
    seeder.shutdown()?;
    Ok(stores)
}

/// Sets up [`SETUPS`] servers and keeps the last for the timed phase. One
/// set-up is spawn → the warm-up on one connection (warm workloads) or the
/// restart's journal replay and prewarm over a fresh copy of the seeded
/// store (durable) → one `ping` answered.
fn set_up(
    args: &Args,
    plan: &Plan,
    spec: &Path,
    stores: Option<&Stores>,
    wire: &mut Wire,
) -> Result<(ServerProc, Conn)> {
    let mut live = None;
    for _ in 0..SETUPS {
        drop(live.take());
        if let Some(stores) = stores {
            copy_dir(&stores.pristine, &stores.live)?;
        }
        let start = Instant::now();
        let server = ServerProc::spawn(&args.server_bin, spec, stores.map(|s| s.live.as_path()))?;
        let mut conn = server.connect()?;
        if stores.is_none() {
            for line in &plan.setup {
                conn.call_ok(line)?;
            }
        }
        conn.call_ok(PING)?;
        wire.setup_s.push(secs(start));
        live = Some((server, conn));
    }
    Ok(live.expect("at least one set-up"))
}

/// The wire phase: set up, then drive the timed list, reading the
/// `metrics` op around it.
fn wire_phase(args: &Args, plan: &Plan, spec: &Path, stores: Option<&Stores>) -> Result<Wire> {
    let mut wire = Wire::default();
    let (server, mut conn) = set_up(args, plan, spec, stores, &mut wire)?;
    wire.before = Some(metrics_of(&mut conn)?);
    drive(&mut conn, plan, args.trace, &mut wire)?;
    wire.after = Some(metrics_of(&mut conn)?);
    wire.rss_kib = server.vm_hwm_kib()?;
    drop(conn);
    drop(server);
    if let Some(stores) = stores {
        wire.store_bytes = dir_bytes(&stores.live);
    }
    Ok(wire)
}

/// Nearest-rank percentile of unsorted nanos, in milliseconds.
fn percentile_ms(samples: &[u64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e6
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Builds the in-process registry for a replay: fresh from the spec plus
/// the set-up list, or — durable — rehydrated from a copy of the seeded
/// store, compacting as `serve --store` does only if `compacting`.
/// Returns it with the seconds the rehydration took.
fn replay_registry(
    plan: &Plan,
    spec: &Path,
    stores: Option<&Stores>,
    run: &Path,
    tag: &str,
    compacting: bool,
) -> Result<(qvsec_serve::SessionRegistry, f64)> {
    match stores {
        Some(stores) => {
            let store = run.join(format!("store-{tag}"));
            copy_dir(&stores.pristine, &store)?;
            let mut config = StoreConfig::log_at(store.display().to_string());
            if !compacting {
                config.compact_threshold_bytes = Some(0);
            }
            let start = Instant::now();
            let registry = replay::build_registry(spec, Some(config))?;
            Ok((registry, secs(start)))
        }
        None => {
            let registry = replay::build_registry(spec, None)?;
            replay::run_setup(&registry, &plan.setup)?;
            Ok((registry, 0.0))
        }
    }
}

/// Phase guards: counters that must stay flat across the timed phase.
fn guard_failures(plan: &Plan, wire: &Wire) -> Vec<String> {
    let (Some(before), Some(after)) = (&wire.before, &wire.after) else {
        return vec!["no metrics around the timed phase".to_string()];
    };
    let flat: &[&str] = match plan.workload {
        // Warm-up must have memoized every crit set and candidate space.
        Workload::WireMix => &["cache.crit.misses", "cache.space.misses"],
        // Set-up must have drawn the pool and compiled every query.
        Workload::DeepSessions => &["kernel.mc.samples_drawn", "kernel.queries_compiled"],
        Workload::DurableRestart => &[],
    };
    flat.iter()
        .filter_map(|name| {
            let (b, a) = (gauge(before, name), gauge(after, name));
            (a != b).then(|| format!("{name} moved {b} -> {a} during the timed phase"))
        })
        .collect()
}

/// Compares every wire response with the oracle's; returns the count of
/// failed requests (not ok, missing, or different from the oracle's).
fn count_failures(wire: &Wire, expected: &[u64]) -> usize {
    let missing = expected.len().saturating_sub(wire.responses.len());
    let wrong = wire
        .responses
        .iter()
        .zip(expected)
        .filter(|((ok, digest), want)| !ok || digest != *want)
        .count();
    missing + wrong
}

/// Type, as `/proc/mounts` names it, of the filesystem holding `path`.
fn fs_type(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (_, point, kind) = (parts.next()?, parts.next()?, parts.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

fn run(args: &Args) -> Result<Outcome> {
    let plan = Plan::build(args.workload, args.seed, args.size);
    let name = args.workload.name();
    let spec = args.spec_dir.join(format!("{}.json", args.workload.spec()));
    if !spec.is_file() {
        return Err(format!("missing serve spec {}", spec.display()));
    }
    let run_dir = RunDir::create(args.work_dir.join(format!("{name}-{}", std::process::id())))?;
    let run = run_dir.0.as_path();
    println!(
        "workload {name} seed {} seconds {} trace {} set-ups {SETUPS} cores {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let stores = match args.workload {
        Workload::DurableRestart => {
            let stores = seed_store(args, &plan, &spec, run)?;
            println!(
                "store on {} ({}); traffic sends no persist, so the only fsyncs are \
                 LogStore's compactions; store deleted after the run",
                stores.live.display(),
                fs_type(run)
            );
            Some(stores)
        }
        _ => None,
    };
    let wire = wire_phase(args, &plan, &spec, stores.as_ref())?;

    // The oracle: a sequential in-process replay, spans off. Compaction
    // changes no response, so an untraced run's oracle skips it (half the
    // run's disk writes); a traced run's compacts, like the traced replay
    // that `trace.overhead_pct` compares it with.
    qvsec_obs::set_tracing(false);
    let (registry, rehydrate_s) =
        replay_registry(&plan, &spec, stores.as_ref(), run, "oracle", args.trace)?;
    let oracle = replay::replay_timed(&registry, &plan)?;
    drop(registry);
    let mut failed = count_failures(&wire, &oracle.digests);
    let guards = guard_failures(&plan, &wire);
    for g in &guards {
        eprintln!("phase guard failed: {g}");
    }
    let attempted = plan.timed.len();
    for (class, got) in [
        (Class::Candidate, &wire.candidate_ns),
        (Class::Publish, &wire.publish_ns),
    ] {
        let want = plan.samples(class);
        if got.len() != want {
            eprintln!("{class:?}: {} samples, the list holds {want}", got.len());
            failed += want.abs_diff(got.len());
        }
    }
    println!(
        "samples candidate {} publish {} requests {attempted} failed {failed}",
        wire.candidate_ns.len(),
        wire.publish_ns.len(),
    );

    let metrics = if args.trace {
        qvsec_obs::set_tracing(true);
        let (registry, _) = replay_registry(&plan, &spec, stores.as_ref(), run, "traced", true)?;
        let before = layers::Counts::read(&registry);
        let traced = replay::replay_timed(&registry, &plan)?;
        let after = layers::Counts::read(&registry);
        qvsec_obs::set_tracing(false);
        layers::per_layer(&layers::Inputs {
            oracle: &oracle,
            traced: &traced,
            before: &before,
            after: &after,
            wire_candidate_ns: &wire.candidate_wire_ns,
            wire_publish_ns: &wire.publish_wire_ns,
            store_bytes: wire.store_bytes,
            rehydrate_s,
        })
    } else {
        // Printed for reading but not gated: on the reference box these
        // moved with the host's state by more than the largest bound
        // (`perfbench/NOTES.md`, "Measured spreads").
        for (name, samples, q) in [
            ("candidate_p90_ms", &wire.candidate_ns, 0.9),
            ("publish_p50_ms", &wire.publish_ns, 0.5),
            ("publish_p90_ms", &wire.publish_ns, 0.9),
        ] {
            println!("{name} = {} ms (not gated)", percentile_ms(samples, q));
        }
        vec![
            ("setup_s".to_string(), median(&wire.setup_s), "s"),
            (
                "throughput_rps".to_string(),
                attempted as f64 / (wire.timed_ns.max(1) as f64 / 1e9),
                "req/s",
            ),
            (
                "candidate_p50_ms".to_string(),
                percentile_ms(&wire.candidate_ns, 0.5),
                "ms",
            ),
            (
                "peak_rss_mb".to_string(),
                wire.rss_kib as f64 / 1024.0,
                "MiB",
            ),
        ]
    };
    Ok(Outcome {
        correct: failed == 0 && guards.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            let mut members = Vec::new();
            for (name, value, unit) in &outcome.metrics {
                let value = if value.is_finite() { *value } else { 0.0 };
                println!("{name} = {value} {unit}");
                members.push(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ));
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                outcome.correct,
                outcome.attempted,
                outcome.failed,
                members.join(", ")
            );
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
