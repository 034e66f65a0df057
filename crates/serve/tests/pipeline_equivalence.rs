//! Differential proptests for the pipelined front end: a server driven by
//! concurrent, pipelined keep-alive connections must hand every tenant a
//! response stream **byte-identical** to a synchronous, one-request-at-a-
//! time drive of the same script against a fresh server.
//!
//! What makes this non-trivial: under pipelining a client's lines queue in
//! the server's socket buffer ahead of the request being answered, many
//! connections interleave on one shared engine, and the accept loop and
//! keep-alive bookkeeping sit between the socket and the registry. None of
//! that machinery may reorder, drop, duplicate or rewrite a response: the
//! raw response lines must match byte for byte. Cache traffic does depend
//! on the interleaving, but no response carries it.
//!
//! A second property covers mid-stream connection drops: clients that
//! write a prefix of their script and vanish without reading must not
//! perturb the streams of the connections that stay.

#![recursion_limit = "256"]

use proptest::prelude::*;
use qvsec::engine::AuditEngine;
use qvsec_data::{Domain, Schema};
use qvsec_serve::{
    request_lines, request_lines_pipelined, Server, ServerConfig, ServerHandle, SessionRegistry,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;

/// Fixed view pool the scripts draw from; every constant is declared in
/// the server's domain, so all of these parse.
const VIEWS: &[&str] = &[
    "V(n) :- Employee(n, 'Mgmt', p)",
    "V(n, d) :- Employee(n, d, p)",
    "V(d) :- Employee(n, d, p)",
    "V(n, p) :- Employee(n, d, p)",
];

const SECRET: &str = "S(n) :- Employee(n, 'HR', p)";

fn spawn_server() -> (ServerHandle, thread::JoinHandle<std::io::Result<()>>) {
    let mut schema = Schema::new();
    schema.add_relation("Employee", &["name", "department", "phone"]);
    let domain = Domain::with_constants(["Mgmt", "HR"]);
    let engine = Arc::new(AuditEngine::builder(schema, domain).build());
    let registry = Arc::new(SessionRegistry::new(engine));
    let server = Server::bind_with(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let handle = server.handle().unwrap();
    let join = thread::spawn(move || server.run());
    (handle, join)
}

/// One script step, pre-wire-format. `Restore` falls back to a candidate
/// op when the script has not snapshotted yet.
#[derive(Debug, Clone)]
enum Step {
    Publish(usize),
    Candidate(usize),
    Snapshot,
    Restore,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0..VIEWS.len()).prop_map(Step::Publish),
        3 => (0..VIEWS.len()).prop_map(Step::Candidate),
        1 => Just(Step::Snapshot),
        1 => Just(Step::Restore),
    ]
}

/// Renders a tenant's steps as NDJSON request lines. Snapshot labels are
/// deterministic (`s<i>`), and a restore targets the latest snapshot so
/// the whole script is deterministic tenant-locally.
fn wire_script(tenant: &str, steps: &[Step]) -> Vec<String> {
    let mut lines = vec![format!(
        r#"{{"op": "open", "tenant": "{tenant}", "secret": "{SECRET}"}}"#
    )];
    let mut snapshots: Vec<String> = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let line = match step {
            Step::Publish(v) => format!(
                r#"{{"op": "publish", "tenant": "{tenant}", "view": "{}", "name": "v{i}"}}"#,
                VIEWS[*v]
            ),
            Step::Candidate(v) => format!(
                r#"{{"op": "candidate", "tenant": "{tenant}", "view": "{}"}}"#,
                VIEWS[*v]
            ),
            Step::Snapshot => {
                let label = format!("s{i}");
                let line =
                    format!(r#"{{"op": "snapshot", "tenant": "{tenant}", "label": "{label}"}}"#);
                snapshots.push(label);
                line
            }
            Step::Restore => match snapshots.last() {
                Some(label) => {
                    format!(r#"{{"op": "restore", "tenant": "{tenant}", "label": "{label}"}}"#)
                }
                None => format!(
                    r#"{{"op": "candidate", "tenant": "{tenant}", "view": "{}"}}"#,
                    VIEWS[0]
                ),
            },
        };
        lines.push(line);
    }
    lines
}

/// Synchronous ground truth: a fresh server answers every tenant's script
/// one request at a time, tenants in order.
fn sync_baseline(scripts: &[Vec<String>]) -> Vec<Vec<String>> {
    let (handle, join) = spawn_server();
    let addr = handle.addr().to_string();
    let baseline = scripts
        .iter()
        .map(|script| request_lines(&addr, script).unwrap())
        .collect();
    handle.shutdown();
    join.join().unwrap().unwrap();
    baseline
}

/// Pipelined, concurrent drives are byte-identical to the synchronous
/// baseline at 1, 2 and 4 client threads.
/// Plain function so the `proptest!` bodies stay macro-cheap.
fn check_pipelined_matches_sync(steps: &[Vec<Step>]) {
    let scripts: Vec<Vec<String>> = steps
        .iter()
        .enumerate()
        .map(|(t, steps)| wire_script(&format!("t{t}"), steps))
        .collect();
    let baseline = sync_baseline(&scripts);

    for clients in [1usize, 2, 4] {
        let (handle, join) = spawn_server();
        let addr = handle.addr().to_string();
        // `clients` concurrent connections; each drives one or more
        // tenants' scripts pipelined, in tenant order.
        let streams: Vec<(usize, Vec<String>)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let scripts = &scripts;
                    let addr = &addr;
                    scope.spawn(move || {
                        let mut answered = Vec::new();
                        for (t, script) in scripts.iter().enumerate() {
                            if t % clients == c {
                                let responses = request_lines_pipelined(addr, script).unwrap();
                                answered.push((t, responses));
                            }
                        }
                        answered
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        handle.shutdown();
        join.join().unwrap().unwrap();

        for (tenant, responses) in streams {
            prop_assert_eq!(
                &responses,
                &baseline[tenant],
                "tenant {} diverged at {} clients",
                tenant,
                clients
            );
        }
    }
}

/// Connections that write a prefix of their script and drop without
/// reading leave the surviving connections' streams untouched.
fn check_drops_leave_survivors_intact(steps: &[Vec<Step>], cut: usize) {
    let scripts: Vec<Vec<String>> = steps
        .iter()
        .enumerate()
        .map(|(t, steps)| wire_script(&format!("t{t}"), steps))
        .collect();
    let baseline = sync_baseline(&scripts);

    let (handle, join) = spawn_server();
    let addr = handle.addr().to_string();
    let survivors: Vec<(usize, Vec<String>)> = thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(t, script)| {
                let addr = &addr;
                scope.spawn(move || {
                    if t % 2 == 1 {
                        // Dropper: write a prefix, vanish unread.
                        let mut stream = TcpStream::connect(addr).unwrap();
                        for line in script.iter().take(cut.min(script.len())) {
                            stream.write_all(line.as_bytes()).unwrap();
                            stream.write_all(b"\n").unwrap();
                        }
                        drop(stream);
                        None
                    } else {
                        Some((t, request_lines_pipelined(addr, script).unwrap()))
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("client thread"))
            .collect()
    });

    // The server survives the drops: a fresh connection still works.
    let alive = request_lines(&addr, &[r#"{"op": "ping"}"#.to_string()]).unwrap();
    prop_assert!(alive[0].starts_with(r#"{"ok":true"#));

    handle.shutdown();
    join.join().unwrap().unwrap();

    for (tenant, responses) in survivors {
        prop_assert_eq!(
            &responses,
            &baseline[tenant],
            "surviving tenant {} diverged past {} dropped connections",
            tenant,
            cut
        );
    }
}

proptest! {
    // Each case spins several servers; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn pipelined_streams_match_synchronous_drive(
        steps in proptest::collection::vec(
            proptest::collection::vec(step_strategy(), 3..8), 4),
    ) {
        check_pipelined_matches_sync(&steps);
    }

    #[test]
    fn mid_stream_drops_do_not_perturb_survivors(
        steps in proptest::collection::vec(
            proptest::collection::vec(step_strategy(), 3..8), 4),
        cut in 1usize..4,
    ) {
        check_drops_leave_survivors_intact(&steps, cut);
    }
}
