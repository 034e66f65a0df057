//! Satellite: the committed SQL spec translations are byte-equivalent to
//! their datalog originals.
//!
//! `specs/table1_sql.json` and `specs/serve_requests_sql.ndjson` restate
//! `specs/table1.json` and `specs/serve_requests.ndjson` in the safe-SQL
//! front end. Because both spellings compile to the same canonical
//! conjunctive queries, the responses they produce must be byte-identical.
//! CI replays the same pair over a real TCP server.

use serde_json::Value;
use std::path::PathBuf;

fn spec_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../specs")
        .join(name)
}

fn read_spec(name: &str) -> String {
    let path = spec_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

#[test]
fn table1_sql_spec_reports_are_byte_identical_to_the_datalog_original() {
    let datalog = qvsec_cli::run_spec(&read_spec("table1.json"), false).unwrap();
    let sql = qvsec_cli::run_spec(&read_spec("table1_sql.json"), false).unwrap();
    assert_eq!(
        serde_json::to_string(&datalog).unwrap(),
        serde_json::to_string(&sql).unwrap(),
        "SQL-spelled Table 1 audits must hit the same canonical queries"
    );
}

#[test]
fn serve_request_sql_script_responses_match_the_datalog_script() {
    let spec = qvsec_cli::parse_serve_spec(&read_spec("serve_employee.json")).unwrap();
    let drive = |script: &str| -> Vec<String> {
        let registry = qvsec_cli::build_registry(&spec).unwrap();
        script
            .lines()
            .filter(|line| !line.trim().is_empty())
            .map(|line| {
                let (response, shutdown) = qvsec_serve::handle_request(&registry, line);
                assert!(!shutdown);
                assert_eq!(
                    response.field("ok"),
                    &Value::Bool(true),
                    "{line} -> {response:?}"
                );
                serde_json::to_string(&response).unwrap()
            })
            .collect()
    };
    let datalog = drive(&read_spec("serve_requests.ndjson"));
    let sql = drive(&read_spec("serve_requests_sql.ndjson"));
    assert_eq!(datalog.len(), sql.len());
    for (i, (d, s)) in datalog.iter().zip(&sql).enumerate() {
        assert_eq!(d, s, "response #{i} diverged between the two front ends");
    }
}
