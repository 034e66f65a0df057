//! Crash-safe rehydration equivalence.
//!
//! A durable `SessionRegistry` is an *availability layer*: killing the
//! process after any prefix of a request script and restarting it over the
//! same store must answer the remainder of the script byte-identically to
//! a process that never died — verdicts and registry stats included, raw
//! response bytes compared. These properties pin that down on randomly generated
//! publish/candidate/snapshot/restore scripts (kill-and-rehydrate at
//! every prefix), repeat the exercise against the on-disk log store, and
//! check that a torn final journal record (a crash mid-append) recovers
//! to the last whole record so the client can simply retry.

use proptest::prelude::*;
use qvsec::engine::AuditEngine;
use qvsec_data::{Domain, Schema};
use qvsec_serve::protocol::handle_request;
use qvsec_serve::{RegistryConfig, SessionRegistry, NS_JOURNAL};
use qvsec_store::{LogStore, MemStore, StoreBackend, DEFAULT_COMPACT_THRESHOLD};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_relation("R", &["x", "y"]);
    s
}

fn domain() -> Domain {
    let mut d = Domain::new();
    d.add("a");
    d.add("b");
    d
}

/// A fresh scratch directory for an on-disk store (the store crate's own
/// helper is test-private, so the pattern is repeated here).
fn scratch_dir(label: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("qvsec-persist-{label}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A registry journaling its tenants to `store` — the shape
/// `qvsec-cli serve --store` builds.
fn registry_over(store: &Arc<dyn StoreBackend>) -> SessionRegistry {
    let engine = Arc::new(AuditEngine::builder(schema(), domain()).build());
    SessionRegistry::with_store(engine, RegistryConfig::default(), Arc::clone(store))
        .expect("replay from store")
}

fn log_store(dir: &std::path::Path) -> Arc<dyn StoreBackend> {
    Arc::new(LogStore::open(dir, DEFAULT_COMPACT_THRESHOLD).expect("open log store"))
}

fn respond(registry: &SessionRegistry, line: &str) -> String {
    let (response, _shutdown) = handle_request(registry, line);
    serde_json::to_string(&response).expect("responses serialize")
}

/// Random view text over R/2 (same shape as `session_equivalence.rs`),
/// with the head renamed per pool slot so scripts publish distinct names.
fn view_text(slot: usize) -> impl Strategy<Value = String> {
    let term = prop_oneof![
        3 => Just("x0".to_string()),
        3 => Just("x1".to_string()),
        2 => Just("'a'".to_string()),
        2 => Just("'b'".to_string()),
    ];
    let atom = (term.clone(), term).prop_map(|(a, b)| format!("R({a}, {b})"));
    (proptest::collection::vec(atom, 1..3), proptest::bool::ANY).prop_map(
        move |(atoms, boolean)| {
            let body = atoms.join(", ");
            let head_var = atoms
                .iter()
                .flat_map(|a| {
                    a.trim_start_matches("R(")
                        .trim_end_matches(')')
                        .split(',')
                        .map(|s| s.trim().to_string())
                })
                .find(|t| t.starts_with('x'));
            match (boolean, head_var) {
                (false, Some(v)) => format!("V{slot}({v}) :- {body}"),
                _ => format!("V{slot}() :- {body}"),
            }
        },
    )
}

fn view_pool() -> impl Strategy<Value = Vec<String>> {
    (view_text(0), view_text(1), view_text(2)).prop_map(|(a, b, c)| vec![a, b, c])
}

/// One raw script step: (tenant slot, op kind, view slot, label slot).
type RawOp = (usize, usize, usize, usize);

fn raw_ops() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec((0..2usize, 0..4usize, 0..3usize, 0..2usize), 1..5)
}

const SECRET: &str = "S(x) :- R(x, y)";
const TENANTS: [&str; 2] = ["alice", "bravo"];
const LABELS: [&str; 2] = ["base", "mid"];

/// Renders raw ops into an all-succeeding NDJSON request script: both
/// tenants open first, and a `restore` to a label the tenant never
/// snapshotted becomes a `snapshot` (failed requests are deliberately not
/// journaled, so only committed scripts are restart-equivalent). Ends with
/// `stats` so registry-wide counters join the byte comparison.
fn render_script(views: &[String], ops: &[RawOp]) -> Vec<String> {
    let mut lines: Vec<String> = TENANTS
        .iter()
        .map(|t| format!(r#"{{"op": "open", "tenant": "{t}", "secret": "{SECRET}"}}"#))
        .collect();
    let mut snapped: [HashSet<usize>; 2] = [HashSet::new(), HashSet::new()];
    for &(t, kind, v, l) in ops {
        let tenant = TENANTS[t];
        let label = LABELS[l];
        let line = match kind {
            0 => format!(
                r#"{{"op": "publish", "tenant": "{tenant}", "view": "{}"}}"#,
                views[v]
            ),
            1 => format!(
                r#"{{"op": "candidate", "tenant": "{tenant}", "view": "{}"}}"#,
                views[v]
            ),
            3 if snapped[t].contains(&l) => {
                format!(r#"{{"op": "restore", "tenant": "{tenant}", "label": "{label}"}}"#)
            }
            _ => {
                snapped[t].insert(l);
                format!(r#"{{"op": "snapshot", "tenant": "{tenant}", "label": "{label}"}}"#)
            }
        };
        lines.push(line);
    }
    lines.push(r#"{"op": "stats"}"#.to_string());
    lines
}

/// Runs `lines` end to end on one registry over `store`.
fn run_uninterrupted(store: &Arc<dyn StoreBackend>, lines: &[String]) -> Vec<String> {
    let registry = registry_over(store);
    lines.iter().map(|l| respond(&registry, l)).collect()
}

/// Runs `lines`, killing the process after `k` requests: the first
/// registry is dropped without ceremony and a second one rehydrates from
/// the same store to answer the rest. Returns all responses in order.
fn run_killed_at(store: &Arc<dyn StoreBackend>, lines: &[String], k: usize) -> Vec<String> {
    let mut responses = Vec::with_capacity(lines.len());
    {
        let registry = registry_over(store);
        for line in &lines[..k] {
            responses.push(respond(&registry, line));
        }
    }
    let rehydrated = registry_over(store);
    for line in &lines[k..] {
        responses.push(respond(&rehydrated, line));
    }
    responses
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Kill-and-rehydrate at *every* prefix of a random script answers the
    // whole script byte-identically to a process that never died.
    #[test]
    fn rehydration_at_every_prefix_is_byte_identical(
        views in view_pool(),
        ops in raw_ops(),
    ) {
        let lines = render_script(&views, &ops);
        let baseline_store: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
        let baseline = run_uninterrupted(&baseline_store, &lines);
        for k in 0..=lines.len() {
            let store: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
            let responses = run_killed_at(&store, &lines, k);
            prop_assert_eq!(
                &responses, &baseline,
                "killed after {} of {} requests", k, lines.len()
            );
        }
    }
}

// The same every-prefix property against the on-disk log store: each kill
// drops every handle (journal writes go straight to the file, as a SIGKILL
// would leave them) and the restart re-reads the directory from scratch.
#[test]
fn rehydration_from_disk_at_every_prefix_is_byte_identical() {
    let views = vec![
        "V0(x0) :- R(x0, y0)".to_string(),
        "V1(x0) :- R(x0, 'a')".to_string(),
        "V2() :- R('a', 'b')".to_string(),
    ];
    let ops: Vec<RawOp> = vec![
        (0, 0, 0, 0), // alice publishes V0
        (1, 0, 1, 0), // bravo publishes V1
        (0, 2, 0, 1), // alice snapshots "mid"
        (0, 1, 2, 0), // alice audits candidate V2
        (0, 3, 0, 1), // alice restores "mid"
        (1, 0, 2, 0), // bravo publishes V2
    ];
    let lines = render_script(&views, &ops);
    let baseline_dir = scratch_dir("disk-baseline");
    let baseline = run_uninterrupted(&log_store(&baseline_dir), &lines);
    for k in 0..=lines.len() {
        let dir = scratch_dir("disk-prefix");
        let responses = {
            let store = log_store(&dir);
            let mut responses = Vec::new();
            {
                let registry = registry_over(&store);
                for line in &lines[..k] {
                    responses.push(respond(&registry, line));
                }
            }
            drop(store); // the crash drops every handle to the directory
            let rehydrated = registry_over(&log_store(&dir));
            for line in &lines[k..] {
                responses.push(respond(&rehydrated, line));
            }
            responses
        };
        assert_eq!(
            responses,
            baseline,
            "killed after {k} of {} requests",
            lines.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&baseline_dir);
}

// A crash mid-append leaves a torn final journal record. Reopening the
// store discards it, the registry replays the intact prefix, and a client
// that retries its unacknowledged request gets a response byte-identical
// to the one the dead process would have sent — stats included.
#[test]
fn a_torn_final_journal_record_recovers_to_a_retryable_prefix() {
    let script = [
        format!(r#"{{"op": "open", "tenant": "alice", "secret": "{SECRET}"}}"#),
        r#"{"op": "publish", "tenant": "alice", "view": "V0(x0) :- R(x0, y0)"}"#.to_string(),
        r#"{"op": "candidate", "tenant": "alice", "view": "V1() :- R('a', y0)"}"#.to_string(),
        // The store holds the journal only, so the final request's one
        // durable trace is the journal record the crash tears.
        r#"{"op": "snapshot", "tenant": "alice", "label": "base"}"#.to_string(),
    ];
    let stats_line = r#"{"op": "stats"}"#;

    let baseline_dir = scratch_dir("torn-baseline");
    let (baseline, baseline_stats) = {
        let registry = registry_over(&log_store(&baseline_dir));
        let responses: Vec<String> = script.iter().map(|l| respond(&registry, l)).collect();
        let stats = respond(&registry, stats_line);
        (responses, stats)
    };

    let dir = scratch_dir("torn");
    {
        let registry = registry_over(&log_store(&dir));
        for line in &script {
            respond(&registry, line);
        }
    }
    // Tear the final journal record: the crash wrote its length header but
    // not the full payload.
    let journal_path = dir.join("registry%2fjournal.log");
    let full = std::fs::read(&journal_path).expect("journal file exists");
    std::fs::write(&journal_path, &full[..full.len() - 1]).expect("truncate journal");

    let rehydrated = registry_over(&log_store(&dir));
    // The retried final request answers exactly as the dead process would
    // have, and afterwards the registries are indistinguishable.
    assert_eq!(
        respond(&rehydrated, script.last().unwrap()),
        *baseline.last().unwrap()
    );
    assert_eq!(respond(&rehydrated, stats_line), baseline_stats);

    let _ = std::fs::remove_dir_all(&baseline_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

// The durable store holds tenant state and nothing else: compiled
// artifacts (crit sets, candidate spaces, class verdicts) stay in memory,
// so a script that computes them leaves exactly one namespace file
// behind — the journal.
#[test]
fn a_durable_store_holds_the_journal_and_nothing_else() {
    let script = [
        format!(r#"{{"op": "open", "tenant": "alice", "secret": "{SECRET}"}}"#),
        r#"{"op": "publish", "tenant": "alice", "view": "V0(x0) :- R(x0, y0)"}"#.to_string(),
        r#"{"op": "snapshot", "tenant": "alice", "label": "base"}"#.to_string(),
        r#"{"op": "candidate", "tenant": "alice", "view": "V1() :- R('a', y0)"}"#.to_string(),
        r#"{"op": "publish", "tenant": "alice", "view": "V2(x0) :- R(x0, 'b')"}"#.to_string(),
        r#"{"op": "restore", "tenant": "alice", "label": "base"}"#.to_string(),
        r#"{"op": "persist"}"#.to_string(),
    ];
    let dir = scratch_dir("journal-only");
    {
        let registry = registry_over(&log_store(&dir));
        for line in &script {
            let response = respond(&registry, line);
            assert!(response.contains(r#""ok":true"#), "{line} -> {response}");
        }
        assert!(
            registry.engine().cached_crit_sets() > 0,
            "the script computed crit sets"
        );
    }
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    files.sort();
    assert_eq!(files, ["registry%2fjournal.log"]);
    let _ = std::fs::remove_dir_all(&dir);
}

// Tenant state is keyed by tenant and overwritten in place: however long a
// script runs, the store holds one record per tenant, one per labelled
// snapshot and one for the registry totals, and a restart over it answers
// the rest of the script byte-identically to the uninterrupted process.
#[test]
fn a_long_history_leaves_one_record_per_tenant_and_snapshot() {
    let mut history: Vec<String> = TENANTS
        .iter()
        .map(|t| format!(r#"{{"op": "open", "tenant": "{t}", "secret": "{SECRET}"}}"#))
        .collect();
    let views = [
        "V0(x0) :- R(x0, y0)",
        "V1(x0) :- R(x0, 'a')",
        "V2() :- R('a', 'b')",
    ];
    for cycle in 0..50 {
        for tenant in TENANTS {
            let label = LABELS[cycle % 2];
            let view = views[cycle % 3];
            history.extend([
                format!(r#"{{"op": "snapshot", "tenant": "{tenant}", "label": "{label}"}}"#),
                format!(r#"{{"op": "publish", "tenant": "{tenant}", "view": "{view}"}}"#),
                format!(r#"{{"op": "restore", "tenant": "{tenant}", "label": "{label}"}}"#),
            ]);
        }
    }
    let rest = [
        r#"{"op": "publish", "tenant": "alice", "view": "V0(x0) :- R(x0, y0)"}"#.to_string(),
        r#"{"op": "candidate", "tenant": "bravo", "view": "V2() :- R('a', 'b')"}"#.to_string(),
        r#"{"op": "restore", "tenant": "alice", "label": "mid"}"#.to_string(),
        r#"{"op": "stats"}"#.to_string(),
    ];
    let lines: Vec<String> = history.iter().chain(&rest).cloned().collect();
    let baseline_dir = scratch_dir("keyed-baseline");
    let baseline = run_uninterrupted(&log_store(&baseline_dir), &lines);

    let dir = scratch_dir("keyed");
    {
        let registry = registry_over(&log_store(&dir));
        for line in &history {
            let response = respond(&registry, line);
            assert!(response.contains(r#""ok":true"#), "{line} -> {response}");
        }
    }
    let store = log_store(&dir);
    let keys: Vec<String> = store
        .scan(NS_JOURNAL)
        .expect("scan")
        .into_iter()
        .map(|(key, _)| key)
        .collect();
    assert_eq!(
        keys,
        [
            "registry",
            "snapshot/alice/base",
            "snapshot/alice/mid",
            "snapshot/bravo/base",
            "snapshot/bravo/mid",
            "tenant/alice",
            "tenant/bravo"
        ]
    );
    let rehydrated = registry_over(&store);
    let responses: Vec<String> = rest.iter().map(|l| respond(&rehydrated, l)).collect();
    assert_eq!(responses, baseline[history.len()..]);

    let _ = std::fs::remove_dir_all(&baseline_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
