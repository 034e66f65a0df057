//! End-to-end smoke tests: run the compiled `qvsec-cli` binary on the
//! checked-in spec files and validate its JSON output.

use std::process::Command;

fn repo_root() -> std::path::PathBuf {
    // crates/cli -> crates -> repo root
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root exists")
        .to_path_buf()
}

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_qvsec-cli"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("qvsec-cli runs")
}

fn check_table1_reports(stdout: &[u8]) {
    let text = std::str::from_utf8(stdout).expect("UTF-8 output");
    let value = serde_json::parse(text).expect("stdout is valid JSON");
    let reports = value.as_array().expect("a JSON array of reports");
    assert_eq!(reports.len(), 4);
    let by_name = |name: &str| {
        reports
            .iter()
            .find(|r| r.field("name").as_str() == Some(name))
            .unwrap_or_else(|| panic!("report `{name}` present"))
    };
    // The paper's verdicts: rows 1-3 are insecure (total/partial/minute),
    // row 4 is perfectly secure.
    assert_eq!(by_name("row1-total").field("class").as_str(), Some("Total"));
    assert_eq!(
        by_name("row2-partial-collusion").field("class").as_str(),
        Some("Partial")
    );
    assert_eq!(
        by_name("row3-minute").field("class").as_str(),
        Some("Minute")
    );
    let row4 = by_name("row4-secure");
    assert_eq!(row4.field("class").as_str(), Some("NoDisclosure"));
    assert_eq!(row4.field("secure"), &serde_json::Value::Bool(true));
}

#[test]
fn audits_the_json_table1_spec() {
    let out = run_cli(&["audit", "--spec", "specs/table1.json"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    check_table1_reports(&out.stdout);
    let pretty = run_cli(&["audit", "--spec", "specs/table1.json", "--pretty"]);
    assert!(pretty.status.success());
    check_table1_reports(&pretty.stdout);
}

#[test]
fn sequential_flag_changes_nothing() {
    let par = run_cli(&["audit", "--spec", "specs/table1.json"]);
    let seq = run_cli(&["audit", "--spec", "specs/table1.json", "--sequential"]);
    assert_eq!(par.stdout, seq.stdout);
}

#[test]
fn bad_invocations_fail_with_diagnostics() {
    let out = run_cli(&["audit"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--spec"));
    let out = run_cli(&["audit", "--spec", "/nonexistent/spec.json"]);
    assert!(!out.status.success());
    let out = run_cli(&["frobnicate"]);
    assert!(!out.status.success());
    let out = run_cli(&[
        "session",
        "--spec",
        "specs/session_collusion.json",
        "--sequential",
    ]);
    assert!(!out.status.success(), "--sequential is audit-only");
}

#[test]
fn store_flag_only_applies_to_serve() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("refused-store");
    let dir_arg = dir.to_str().expect("UTF-8 path");
    for args in [
        &["session", "--spec", "specs/session_collusion.json"][..],
        &["audit", "--spec", "specs/table1.json"],
        &["request", "--addr", "127.0.0.1:9"],
        &[
            "sql",
            "--spec",
            "specs/table1.json",
            "--query",
            "SHOW TABLES",
        ],
        &["top", "--addr", "127.0.0.1:9"],
    ] {
        let out = run_cli(&[args, &["--store", dir_arg]].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?} --store is refused");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--store only applies to `serve`"),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert!(!dir.exists(), "a refused --store opens nothing");
}

#[test]
fn serves_the_committed_request_script_deterministically() {
    // One full server lifecycle per run: spawn `serve` on an ephemeral
    // port (`:0` — a fixed port would collide with concurrent checkouts or
    // a developer's own server), read the bound address from the stderr
    // announcement, drive the committed two-tenant script with `request`,
    // shut it down, and repeat. Two runs must produce byte-identical
    // response streams, and the small committed cache budget must show
    // evictions in the metrics plane.
    use std::io::BufRead;

    let run_once = || -> (Vec<u8>, serde_json::Value) {
        let mut server = Command::new(env!("CARGO_BIN_EXE_qvsec-cli"))
            .args([
                "serve",
                "--spec",
                "specs/serve_employee.json",
                "--addr",
                "127.0.0.1:0",
                "--max-connections",
                "2",
            ])
            .current_dir(repo_root())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("server spawns");
        // The bind announcement carries the ephemeral port.
        let stderr = server.stderr.take().expect("stderr piped");
        let mut lines = std::io::BufReader::new(stderr).lines();
        let first = lines.next().expect("server announces").expect("readable");
        let addr = first
            .strip_prefix("qvsec-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected announcement: {first}"))
            .trim()
            .to_string();

        let out = run_cli(&[
            "request",
            "--addr",
            &addr,
            "--file",
            "specs/serve_requests.ndjson",
        ]);
        assert!(
            out.status.success(),
            "request failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Read the metrics plane, then shut the server down over the wire
        // and reap it.
        let bye = Command::new(env!("CARGO_BIN_EXE_qvsec-cli"))
            .args(["request", "--addr", &addr])
            .current_dir(repo_root())
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("shutdown client spawns");
        use std::io::Write;
        bye.stdin
            .as_ref()
            .expect("stdin piped")
            .write_all(b"{\"op\": \"metrics\"}\n{\"op\": \"shutdown\"}\n")
            .expect("metrics and shutdown requests sent");
        let bye = bye.wait_with_output().expect("client exits");
        assert!(bye.status.success());
        assert!(server.wait().expect("server exits").success());
        let metrics = std::str::from_utf8(&bye.stdout)
            .expect("UTF-8 output")
            .lines()
            .next()
            .map(|l| serde_json::parse(l).expect("the metrics response is JSON"))
            .expect("a metrics response");
        (out.stdout, metrics)
    };

    let (first, metrics) = run_once();
    let (second, _) = run_once();
    assert_eq!(
        first, second,
        "two server lifecycles must agree byte-for-byte"
    );

    let text = std::str::from_utf8(&first).expect("UTF-8 output");
    let responses: Vec<serde_json::Value> = text
        .lines()
        .map(|l| serde_json::parse(l).expect("each response line is JSON"))
        .collect();
    assert_eq!(responses.len(), 9, "one response per request line");
    for r in &responses {
        assert_eq!(r.field("ok"), &serde_json::Value::Bool(true), "{r:?}");
    }
    // Both tenants' first publishes are insecure (Bob/Carol collusion).
    for i in [1usize, 2] {
        assert_eq!(
            responses[i].field("report").field("report").field("secure"),
            &serde_json::Value::Bool(false)
        );
    }
    // The committed spec's byte budget is deliberately tiny, so this run
    // demonstrates eviction (not warmth — the unbounded warm path is
    // pinned down by the registry and bench tests): evictions must show in
    // the metrics plane, and both tenants are accounted in the stats.
    let stats = responses[8].field("stats");
    assert_eq!(stats.field("tenants").as_array().unwrap().len(), 2);
    let gauges = metrics.field("metrics").field("gauges");
    assert!(
        gauges.field("cache.evictions").as_int().unwrap() > 0,
        "4 KiB budget must evict: {gauges:?}"
    );
    let alice = &stats.field("tenants").as_array().unwrap()[0];
    assert_eq!(alice.field("tenant").as_str(), Some("alice"));
    assert_eq!(alice.field("views_published").as_int(), Some(2));
    assert_eq!(alice.field("snapshots_held").as_int(), Some(1));
}

#[test]
fn replays_the_committed_session_script() {
    let out = run_cli(&["session", "--spec", "specs/session_collusion.json"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::str::from_utf8(&out.stdout).expect("UTF-8 output");
    let value = serde_json::parse(text).expect("stdout is valid JSON");
    let entries = value.as_array().expect("a JSON array of step entries");
    assert_eq!(entries.len(), 6, "one entry per script step");

    // Steps 1-2: publishes; both insecure (the Bob/Carol collusion).
    for (i, name) in [(0usize, "bob"), (1, "carol")] {
        let e = &entries[i];
        assert_eq!(e.field("view").as_str(), Some(name));
        assert_eq!(e.field("committed"), &serde_json::Value::Bool(true));
        assert_eq!(
            e.field("report").field("secure"),
            &serde_json::Value::Bool(false)
        );
    }
    // Snapshot / candidate / restore / replayed publish.
    assert_eq!(entries[2].field("snapshot").as_str(), Some("pre-dana"));
    assert_eq!(
        entries[3].field("committed"),
        &serde_json::Value::Bool(false),
        "candidate step does not commit"
    );
    assert_eq!(entries[4].field("restored").as_str(), Some("pre-dana"));
    let dana = &entries[5];
    assert_eq!(dana.field("view").as_str(), Some("dana"));
    // The candidate and the committed replay audit the same prefix: their
    // cumulative reports agree.
    assert_eq!(
        serde_json::to_string(entries[3].field("report")).unwrap(),
        serde_json::to_string(dana.field("report")).unwrap()
    );

    // Deterministic: replaying the script reproduces the bytes.
    let again = run_cli(&["session", "--spec", "specs/session_collusion.json"]);
    assert_eq!(out.stdout, again.stdout);
}
