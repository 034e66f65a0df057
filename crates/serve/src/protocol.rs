//! The newline-delimited JSON wire protocol, v1.
//!
//! One request per line, one response per line, in order. Requests mirror
//! the CLI session-script steps, plus registry-level operations:
//!
//! ```json
//! {"op": "open",      "tenant": "alice", "secret": "S(n, p) :- Employee(n, d, p)"}
//! {"op": "publish",   "tenant": "alice", "view": "V(n, d) :- Employee(n, d, p)", "name": "bob"}
//! {"op": "candidate", "tenant": "alice", "view": "W(d) :- Employee(n, d, p)"}
//! {"op": "snapshot",  "tenant": "alice", "label": "pre-carol"}
//! {"op": "restore",   "tenant": "alice", "label": "pre-carol"}
//! {"op": "stats"}
//! {"op": "ping"}
//! {"op": "persist"}
//! {"op": "shutdown"}
//! ```
//!
//! ## The safe-SQL front end
//!
//! Wherever an op takes a datalog query, it alternatively takes a safe-SQL
//! statement (see `qvsec-sql`): `"sql"` replaces `"view"` on
//! `publish`/`candidate` (the compiled view is named by `"name"`, default
//! `V`), and `"secret_sql"` replaces `"secret"` (named by `"secret_name"`,
//! default `S`). Three ops serve the front end directly:
//!
//! ```json
//! {"op": "sql", "sql": "SELECT name FROM Employee WHERE department = 'HR'"}
//! {"op": "show_tables"}
//! {"op": "show_columns", "table": "Employee"}
//! ```
//!
//! `sql` is pure analysis — it compiles the statement (or answers a
//! `SHOW ...` statement passed as SQL text) and returns each resulting
//! conjunctive query's name, datalog rendering and canonical form, without
//! touching any session. A statement outside the subset fails as
//! `bad_request` whose `error.detail` carries the structured rejection
//! (see below). `show_tables`/`show_columns` answer from the engine's
//! schema.
//!
//! ## The telemetry plane
//!
//! Two read-only ops surface the observability plane (`qvsec-obs`):
//!
//! ```json
//! {"op": "metrics"}
//! {"op": "explain", "view": "V(n) :- Employee(n, d, p)"}
//! ```
//!
//! `metrics` returns the unified snapshot — process-global counters, span
//! histograms, and every legacy counter bag folded in as gauges (see
//! [`crate::metrics::collect_metrics`]). It is the only op that carries
//! cache or connection counters. `explain` takes a query in either
//! spelling (`view` or `sql`, like `publish`) and reports, per resulting
//! conjunctive query, its canonical form and whether each compiled
//! artifact is resident (`memory`) or would be recomputed (`uncached`) —
//! the crit sets (with the cached active-domain sizes), the candidate
//! space, and the memoized symmetry-class verdicts. The probe is strictly
//! read-only: it refreshes no LRU recency and bumps no counter, so
//! `explain` can never change a later verdict or an eviction.
//! `SHOW CANONICAL SELECT ...` through the `sql` op answers with the same
//! shape.
//!
//! Any request may additionally carry `"timing": true` to receive a
//! `"timing"` member on its response — total handling nanos plus, when
//! span tracing is enabled, the per-stage breakdown. Timing is off by
//! default and is the only nondeterministic member any non-`metrics`
//! response can carry.
//!
//! ## The envelope
//!
//! Requests may carry a `"v"` field naming the protocol version they were
//! written against; a version this server does not speak is rejected with a
//! stated reason (a missing `"v"` means "current"). Every response opens
//! with the same two fields — `"ok"` and `"v"` — so clients can dispatch on
//! a fixed prefix:
//!
//! ```json
//! {"ok": true,  "v": 1, ...}
//! {"ok": false, "v": 1, "error": {"kind": "bad_request", "reason": "..."}}
//! ```
//!
//! Failures carry a structured error: a machine-readable [`ErrorKind`]
//! plus a human-readable reason, and — when the failure has machine-usable
//! structure, such as a SQL rejection — an *optional* `detail` object.
//! `detail` is additive: v1 clients that only read `kind`/`reason` keep
//! working unchanged. For SQL rejections it carries the closed-enum reason
//! code and the byte span of the offending construct:
//!
//! ```json
//! {"ok": false, "v": 1, "error": {"kind": "bad_request", "reason": "...",
//!   "detail": {"reason": "unsupported_or", "span": {"start": 38, "end": 40}}}}
//! ```
//!
//! The server may also emit a line that is
//! *not* a response to any request — a connection-lifecycle notice,
//! distinguished by its leading `"notice"` field:
//!
//! ```json
//! {"notice": "connection_closing", "v": 1, "reason": "idle_timeout"}
//! ```
//!
//! `persist` flushes the durable store (when the server was started with
//! one — see the CLI's `--store`) and reports the backend name; without a
//! store it answers `{"ok": true, "v": 1, "persisted": false}`.
//!
//! `publish`/`candidate` on a tenant with no session require a `secret`
//! field (which opens one); established tenants omit it. `report` carries
//! the full serialized [`qvsec::SessionReport`] for audits; `stats` carries
//! a [`crate::registry::RegistryStats`].
//!
//! Audit and `stats` responses are a pure function of the request script:
//! they carry no timestamps and no process counters, so replaying a script
//! — over one connection or many, pipelined or not, across a restart over
//! the same store — reproduces every byte (the CI smoke jobs replay the
//! committed two-tenant script and `cmp` the streams).
//!
//! *v1 amendment.* Earlier v1 servers also sent engine cache counters —
//! as `report.cache` on audits, as `stats.tenants[].cache` and as an
//! engine-wide object in `stats` — and connection counters under a `stats`
//! response's `"server"` member. Those members are gone; the same values
//! are the `cache.*`, `kernel.*` and `serve.*` gauges of the `metrics` op.
//! Responses still say `"v": 1`.

use crate::registry::SessionRegistry;
use crate::server::ServerCounters;
use crate::ServeError;
use qvsec_cq::ConjunctiveQuery;
use serde::Deserialize;
use serde_json::Value;

/// The protocol version this server speaks. Responses echo it; requests
/// naming any other version are rejected with [`ErrorKind::BadRequest`].
pub const PROTOCOL_VERSION: i128 = 1;

/// Machine-readable error classes for the `error.kind` field of a failure
/// response. One closed enum replaces the ad-hoc error strings of protocol
/// v0 — clients branch on the kind and show the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The line was not valid JSON, named an unknown op or protocol
    /// version, omitted a required field, or was otherwise malformed.
    BadRequest,
    /// The request line exceeded [`crate::server::MAX_REQUEST_LINE_BYTES`].
    LineTooLong,
    /// A query mentioned constants outside the server's declared domain.
    UndeclaredConstant,
    /// The tenant has no live session (never opened, or idle-retired);
    /// re-open it by re-sending the `secret`.
    TenantRetired,
    /// The server is draining after a `shutdown` request; this request was
    /// not processed.
    ShuttingDown,
    /// The audit engine or durable store failed; not the client's fault.
    Internal,
}

impl ErrorKind {
    /// The wire spelling (`snake_case`).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::LineTooLong => "line_too_long",
            ErrorKind::UndeclaredConstant => "undeclared_constant",
            ErrorKind::TenantRetired => "tenant_retired",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses the wire spelling back into the enum (for clients).
    pub fn from_wire(text: &str) -> Option<ErrorKind> {
        Some(match text {
            "bad_request" => ErrorKind::BadRequest,
            "line_too_long" => ErrorKind::LineTooLong,
            "undeclared_constant" => ErrorKind::UndeclaredConstant,
            "tenant_retired" => ErrorKind::TenantRetired,
            "shutting_down" => ErrorKind::ShuttingDown,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One parsed request line. Unknown *ops* produce an error response;
/// unknown (e.g. typo'd) *fields* are ignored by deserialization, like
/// most JSON APIs — clients must not rely on field-name validation.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct WireRequest {
    /// The operation: `open` | `publish` | `candidate` | `snapshot` |
    /// `restore` | `sql` | `show_tables` | `show_columns` | `explain` |
    /// `metrics` | `stats` | `ping` | `persist` | `shutdown`.
    pub op: String,
    /// Protocol version the request was written against (optional; absent
    /// means [`PROTOCOL_VERSION`]).
    pub v: Option<i128>,
    /// Tenant id (required for every per-tenant op).
    pub tenant: Option<String>,
    /// Secret query, datalog syntax (opens a session on first contact).
    pub secret: Option<String>,
    /// Secret query, safe-SQL syntax — the front-end alternative to
    /// `secret`; exactly one of the two may be present.
    pub secret_sql: Option<String>,
    /// Query name for a `secret_sql` secret (defaults to `S`, matching the
    /// conventional datalog spelling `S(...) :- ...`).
    pub secret_name: Option<String>,
    /// View query, datalog syntax (`publish` / `candidate`).
    pub view: Option<String>,
    /// View query, safe-SQL syntax — the front-end alternative to `view`
    /// on `publish`/`candidate`, and the statement analysed by the `sql`
    /// op. Exactly one of `view`/`sql` may be present per request.
    pub sql: Option<String>,
    /// Recipient label for `publish` (defaults to the view's query name);
    /// also names the query a `sql` view compiles to (default `V`).
    pub name: Option<String>,
    /// Snapshot label (`snapshot` / `restore`).
    pub label: Option<String>,
    /// Relation name for `show_columns`.
    pub table: Option<String>,
    /// Opt-in per-response timing: when `true`, the response gains a
    /// `"timing"` member carrying the total handling nanos and — when span
    /// tracing is on — the per-stage breakdown. Off by default; timing
    /// values are nondeterministic, so byte-comparing scripts strip the
    /// member.
    pub timing: Option<bool>,
}

fn ok(fields: Vec<(String, Value)>) -> Value {
    let mut entries = vec![
        ("ok".to_string(), Value::Bool(true)),
        ("v".to_string(), Value::Int(PROTOCOL_VERSION)),
    ];
    entries.extend(fields);
    Value::Object(entries)
}

/// Builds a structured failure response:
/// `{"ok": false, "v": 1, "error": {"kind": ..., "reason": ...}}`.
pub fn error_response(kind: ErrorKind, reason: String) -> Value {
    error_response_with_detail(kind, reason, None)
}

/// [`error_response`] with an optional machine-usable `detail` member
/// inside `error` — e.g. the reason code and byte span of a SQL rejection.
/// `detail` is additive to the v1 envelope: clients that only read
/// `kind`/`reason` are unaffected when it appears.
pub fn error_response_with_detail(kind: ErrorKind, reason: String, detail: Option<Value>) -> Value {
    let mut error = vec![
        ("kind".to_string(), Value::Str(kind.as_str().to_string())),
        ("reason".to_string(), Value::Str(reason)),
    ];
    if let Some(detail) = detail {
        error.push(("detail".to_string(), detail));
    }
    Value::Object(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("v".to_string(), Value::Int(PROTOCOL_VERSION)),
        ("error".to_string(), Value::Object(error)),
    ])
}

/// Builds a connection-lifecycle notice — a line that answers no request:
/// `{"notice": "connection_closing", "v": 1, "reason": ...}`. Clients
/// recognise notices by the leading `"notice"` field.
pub fn closing_notice(reason: &str) -> Value {
    Value::Object(vec![
        (
            "notice".to_string(),
            Value::Str("connection_closing".to_string()),
        ),
        ("v".to_string(), Value::Int(PROTOCOL_VERSION)),
        ("reason".to_string(), Value::Str(reason.to_string())),
    ])
}

fn err(e: &ServeError) -> Value {
    let detail = match e {
        ServeError::Sql(sql) => Some(Value::Object(vec![
            (
                "reason".to_string(),
                Value::Str(sql.reason.code().to_string()),
            ),
            (
                "span".to_string(),
                Value::Object(vec![
                    ("start".to_string(), Value::Int(sql.span.start as i128)),
                    ("end".to_string(), Value::Int(sql.span.end as i128)),
                ]),
            ),
        ])),
        _ => None,
    };
    error_response_with_detail(e.kind(), e.to_string(), detail)
}

fn require<'a>(field: &'a Option<String>, what: &str) -> crate::Result<&'a str> {
    field
        .as_deref()
        .ok_or_else(|| ServeError::Parse(format!("missing required field `{what}`")))
}

/// `{"name": ..., "columns": [...]}` for one relation of the schema.
fn relation_value(relation: &qvsec_data::RelationSchema) -> Value {
    Value::Object(vec![
        ("name".to_string(), Value::Str(relation.name.clone())),
        (
            "columns".to_string(),
            Value::Array(
                relation
                    .attributes
                    .iter()
                    .map(|a| Value::Str(a.clone()))
                    .collect(),
            ),
        ),
    ])
}

/// Response fields for `show_tables`: every relation with its columns, in
/// schema declaration order.
fn show_tables_fields(registry: &SessionRegistry) -> Vec<(String, Value)> {
    let schema = registry.engine().schema();
    let tables = schema
        .relation_ids()
        .map(|id| relation_value(schema.relation(id)))
        .collect();
    vec![("tables".to_string(), Value::Array(tables))]
}

/// Response fields for `show_columns`, resolving `table` the same way the
/// SQL compiler resolves relation names: exact match first, then a unique
/// case-insensitive match. `span` (present when the request arrived as a
/// `SHOW COLUMNS` statement) locates the table name in the SQL source so
/// an unknown table fails with the standard structured rejection.
fn show_columns_fields(
    registry: &SessionRegistry,
    table: &str,
    span: Option<qvsec_sql::Span>,
) -> crate::Result<Vec<(String, Value)>> {
    let schema = registry.engine().schema();
    let resolved = schema.relation_by_name(table).or_else(|| {
        let mut hits = schema
            .relation_ids()
            .filter(|id| schema.relation(*id).name.eq_ignore_ascii_case(table));
        match (hits.next(), hits.next()) {
            (Some(id), None) => Some(id),
            _ => None,
        }
    });
    match resolved {
        Some(id) => {
            let relation = schema.relation(id);
            Ok(vec![
                ("table".to_string(), Value::Str(relation.name.clone())),
                (
                    "columns".to_string(),
                    Value::Array(
                        relation
                            .attributes
                            .iter()
                            .map(|a| Value::Str(a.clone()))
                            .collect(),
                    ),
                ),
            ])
        }
        None => {
            let known: Vec<&str> = schema
                .relation_ids()
                .map(|id| schema.relation(id).name.as_str())
                .collect();
            let message = format!("unknown table `{table}` (schema has: {})", known.join(", "));
            Err(ServeError::Sql(qvsec_sql::SqlError::new(
                qvsec_sql::RejectReason::UnknownTable,
                span.unwrap_or_else(|| qvsec_sql::Span::point(0)),
                message,
            )))
        }
    }
}

/// Resolves the one view a `publish`/`candidate` request names, from
/// either its datalog (`view`) or safe-SQL (`sql`) spelling.
fn parse_view(
    registry: &SessionRegistry,
    request: &WireRequest,
) -> crate::Result<ConjunctiveQuery> {
    match (&request.view, &request.sql) {
        (Some(_), Some(_)) => Err(ServeError::Parse(
            "fields `view` and `sql` are mutually exclusive; send exactly one".to_string(),
        )),
        (Some(text), None) => registry.parse(text),
        (None, Some(text)) => {
            registry.parse_sql_single(text, request.name.as_deref().unwrap_or("V"))
        }
        (None, None) => Err(ServeError::Parse(
            "missing required field `view` (or its SQL form, `sql`)".to_string(),
        )),
    }
}

/// Renders one query's explain entry: name, datalog, canonical form and
/// the read-only artifact probe (`explain` op and `SHOW CANONICAL` share
/// this, so both surfaces answer identically).
fn explain_value(registry: &SessionRegistry, query: &ConjunctiveQuery) -> Value {
    let engine = registry.engine();
    let probe = engine.explain(query);
    Value::Object(vec![
        ("name".to_string(), Value::Str(query.name.clone())),
        (
            "datalog".to_string(),
            Value::Str(query.display(engine.schema(), engine.domain()).to_string()),
        ),
        ("canonical".to_string(), Value::Str(probe.form.clone())),
        (
            "artifacts".to_string(),
            Value::Object(vec![
                (
                    "crit".to_string(),
                    Value::Str(probe.crit.as_str().to_string()),
                ),
                (
                    "crit_domain_sizes".to_string(),
                    Value::Array(
                        probe
                            .crit_domain_sizes
                            .iter()
                            .map(|s| Value::Int(*s as i128))
                            .collect(),
                    ),
                ),
                (
                    "space".to_string(),
                    Value::Str(probe.space.as_str().to_string()),
                ),
                (
                    "class_verdicts".to_string(),
                    Value::Str(probe.class_verdicts.as_str().to_string()),
                ),
            ]),
        ),
    ])
}

/// `{"queries": [...]}` of explain entries.
fn explain_fields(
    registry: &SessionRegistry,
    queries: &[ConjunctiveQuery],
) -> Vec<(String, Value)> {
    vec![(
        "queries".to_string(),
        Value::Array(queries.iter().map(|q| explain_value(registry, q)).collect()),
    )]
}

/// Compiles the SELECT inside a `SHOW CANONICAL`, applying the registry's
/// closed-domain policy (spans in rejections reference the full statement
/// source, so carets land on the original text).
fn compile_show_canonical(
    registry: &SessionRegistry,
    stmt: &qvsec_sql::SelectStmt,
    source: &str,
    name: &str,
) -> crate::Result<Vec<ConjunctiveQuery>> {
    registry.compile_closed(source, |schema, domain| {
        qvsec_sql::compile_select(stmt, schema, domain, name, source).map_err(ServeError::Sql)
    })
}

fn dispatch(
    registry: &SessionRegistry,
    counters: Option<&ServerCounters>,
    request: &WireRequest,
) -> crate::Result<Value> {
    let parsed_secret = match (&request.secret, &request.secret_sql) {
        (Some(_), Some(_)) => {
            return Err(ServeError::Parse(
                "fields `secret` and `secret_sql` are mutually exclusive; send exactly one"
                    .to_string(),
            ))
        }
        (Some(text), None) => Some(registry.parse(text)?),
        (None, Some(text)) => {
            Some(registry.parse_sql_single(text, request.secret_name.as_deref().unwrap_or("S"))?)
        }
        (None, None) => None,
    };
    match request.op.as_str() {
        "ping" => Ok(ok(vec![(
            "tenants".to_string(),
            Value::Int(registry.tenant_count() as i128),
        )])),
        "stats" => Ok(ok(vec![(
            "stats".to_string(),
            serde_json::to_value(&registry.stats())
                .map_err(|e| ServeError::Parse(e.to_string()))?,
        )])),
        "open" => {
            let tenant = require(&request.tenant, "tenant")?;
            let secret = parsed_secret
                .as_ref()
                .ok_or_else(|| ServeError::SecretRequired(tenant.to_string()))?;
            let views = registry.open(tenant, secret)?;
            Ok(ok(vec![
                ("tenant".to_string(), Value::Str(tenant.to_string())),
                ("views_published".to_string(), Value::Int(views as i128)),
            ]))
        }
        "publish" | "candidate" => {
            let tenant = require(&request.tenant, "tenant")?;
            let view = parse_view(registry, request)?;
            // Slow-query log context; rendering the canonical form costs
            // real time per request, so it waits for note capture (the
            // slow log's own switch), not just tracing.
            if qvsec_obs::note_capture_enabled() {
                qvsec_obs::annotate("canonical", qvsec_cq::canonical_form(&view));
            }
            let report = if request.op == "publish" {
                registry.publish(tenant, parsed_secret.as_ref(), request.name.clone(), view)?
            } else {
                registry.audit_candidate(tenant, parsed_secret.as_ref(), &view)?
            };
            Ok(ok(vec![
                ("tenant".to_string(), Value::Str(tenant.to_string())),
                (
                    "report".to_string(),
                    serde_json::to_value(&report).map_err(|e| ServeError::Parse(e.to_string()))?,
                ),
            ]))
        }
        "snapshot" | "restore" => {
            let tenant = require(&request.tenant, "tenant")?;
            let label = require(&request.label, "label")?;
            let views = if request.op == "snapshot" {
                registry.snapshot(tenant, label)?
            } else {
                registry.restore(tenant, label)?
            };
            Ok(ok(vec![
                ("tenant".to_string(), Value::Str(tenant.to_string())),
                (request.op.clone(), Value::Str(label.to_string())),
                ("views_published".to_string(), Value::Int(views as i128)),
            ]))
        }
        "persist" => match registry.flush_store()? {
            Some(backend) => Ok(ok(vec![
                ("persisted".to_string(), Value::Bool(true)),
                ("backend".to_string(), Value::Str(backend.to_string())),
            ])),
            None => Ok(ok(vec![("persisted".to_string(), Value::Bool(false))])),
        },
        "shutdown" => Ok(ok(vec![("shutdown".to_string(), Value::Bool(true))])),
        "metrics" => Ok(ok(vec![(
            "metrics".to_string(),
            crate::metrics::collect_metrics(registry, counters).to_json(),
        )])),
        "explain" => {
            let queries = match (&request.view, &request.sql) {
                (Some(_), Some(_)) => {
                    return Err(ServeError::Parse(
                        "fields `view` and `sql` are mutually exclusive; send exactly one"
                            .to_string(),
                    ))
                }
                (Some(text), None) => vec![registry.parse(text)?],
                (None, Some(text)) => {
                    registry.parse_sql(text, request.name.as_deref().unwrap_or("Q"))?
                }
                (None, None) => {
                    return Err(ServeError::Parse(
                        "missing required field `view` (or its SQL form, `sql`)".to_string(),
                    ))
                }
            };
            Ok(ok(explain_fields(registry, &queries)))
        }
        "sql" => {
            let text = require(&request.sql, "sql")?;
            match qvsec_sql::parse_statement(text).map_err(ServeError::Sql)? {
                // SHOW statements sent as SQL text answer exactly like the
                // dedicated introspection ops.
                qvsec_sql::Statement::ShowTables => Ok(ok(show_tables_fields(registry))),
                qvsec_sql::Statement::ShowColumns { table, table_span } => Ok(ok(
                    show_columns_fields(registry, &table, Some(table_span))?,
                )),
                qvsec_sql::Statement::ShowCanonical(stmt) => {
                    let name = request.name.as_deref().unwrap_or("Q");
                    let queries = compile_show_canonical(registry, &stmt, text, name)?;
                    Ok(ok(explain_fields(registry, &queries)))
                }
                qvsec_sql::Statement::Select(_) => {
                    let name = request.name.as_deref().unwrap_or("Q");
                    let queries = registry.parse_sql(text, name)?;
                    let engine = registry.engine();
                    let rendered = queries
                        .iter()
                        .map(|q| {
                            Value::Object(vec![
                                ("name".to_string(), Value::Str(q.name.clone())),
                                (
                                    "datalog".to_string(),
                                    Value::Str(
                                        q.display(engine.schema(), engine.domain()).to_string(),
                                    ),
                                ),
                                (
                                    "canonical".to_string(),
                                    Value::Str(qvsec_cq::canonical_form(q)),
                                ),
                            ])
                        })
                        .collect();
                    Ok(ok(vec![("queries".to_string(), Value::Array(rendered))]))
                }
            }
        }
        "show_tables" => Ok(ok(show_tables_fields(registry))),
        "show_columns" => {
            let table = require(&request.table, "table")?;
            Ok(ok(show_columns_fields(registry, table, None)?))
        }
        other => Err(ServeError::Parse(format!(
            "unknown op `{other}` (expected open | publish | candidate | snapshot | restore | sql | show_tables | show_columns | explain | metrics | stats | ping | persist | shutdown)"
        ))),
    }
}

/// Appends the opt-in `"timing"` member to a response object.
fn append_timing(
    response: &mut Value,
    total_nanos: u64,
    summary: Option<&qvsec_obs::TraceSummary>,
) {
    let stages = summary
        .map(|s| {
            s.stages
                .iter()
                .map(|(stage, nanos)| {
                    Value::Object(vec![
                        ("stage".to_string(), Value::Str(stage.clone())),
                        ("nanos".to_string(), Value::Int(*nanos as i128)),
                    ])
                })
                .collect()
        })
        .unwrap_or_default();
    let timing = Value::Object(vec![
        ("total_nanos".to_string(), Value::Int(total_nanos as i128)),
        ("stages".to_string(), Value::Array(stages)),
    ]);
    if let Value::Object(entries) = response {
        entries.push(("timing".to_string(), timing));
    }
}

/// Parses one request line and dispatches it, mapping every failure onto a
/// structured `{"ok": false}` response (a malformed line never tears down
/// the connection). `counters`, when given, surfaces the TCP front end's
/// connection counters through the `metrics` op. Returns the
/// response, whether the request asked the server to shut down, and — when
/// span tracing is enabled — the request's stage breakdown (the server's
/// slow-query log feeds off it).
///
/// Instrumentation here is side-channel only: the `serve.requests` /
/// `serve.errors` counters and the `serve.request` span never change a
/// response byte. The one response-visible addition is the `"timing"`
/// member, and only when the request carried `"timing": true`.
pub fn handle_request_traced(
    registry: &SessionRegistry,
    counters: Option<&ServerCounters>,
    line: &str,
) -> (Value, bool, Option<qvsec_obs::TraceSummary>) {
    qvsec_obs::counter("serve.requests").inc();
    let request: WireRequest =
        match serde_json::parse(line).and_then(|v| serde_json::from_value(&v)) {
            Ok(request) => request,
            Err(e) => {
                qvsec_obs::counter("serve.errors").inc();
                return (
                    error_response(ErrorKind::BadRequest, format!("bad request: {e}")),
                    false,
                    None,
                );
            }
        };
    if let Some(v) = request.v {
        if v != PROTOCOL_VERSION {
            qvsec_obs::counter("serve.errors").inc();
            return (
                error_response(
                    ErrorKind::BadRequest,
                    format!("unsupported protocol version {v} (this server speaks v={PROTOCOL_VERSION})"),
                ),
                false,
                None,
            );
        }
    }
    let timing_requested = request.timing.unwrap_or(false);
    let guard = qvsec_obs::begin_request_trace();
    // The clock is read here only when the caller opted into timing — the
    // merely-traced path gets its total from the serve.request span.
    let start = timing_requested.then(std::time::Instant::now);
    let span = qvsec_obs::Span::enter("serve.request");
    if qvsec_obs::note_capture_enabled() {
        qvsec_obs::annotate("op", request.op.clone());
        if let Some(tenant) = &request.tenant {
            qvsec_obs::annotate("tenant", tenant.clone());
        }
    }
    let shutdown = request.op == "shutdown";
    let (mut response, shutdown) = match dispatch(registry, counters, &request) {
        Ok(response) => (response, shutdown),
        Err(e) => {
            qvsec_obs::counter("serve.errors").inc();
            (err(&e), false)
        }
    };
    drop(span);
    let summary = guard.finish();
    if timing_requested {
        let total_nanos = start
            .map(|s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        append_timing(&mut response, total_nanos, summary.as_ref());
    }
    (response, shutdown, summary)
}

/// [`handle_request_traced`] without connection counters or the trace
/// summary — the embedded (in-process) entry point used by tests and the
/// bench harness.
pub fn handle_request(registry: &SessionRegistry, line: &str) -> (Value, bool) {
    let (response, shutdown, _) = handle_request_traced(registry, None, line);
    (response, shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvsec::engine::AuditEngine;
    use qvsec_data::{Domain, Schema};
    use std::sync::Arc;

    fn registry() -> SessionRegistry {
        let mut schema = Schema::new();
        schema.add_relation("Employee", &["name", "department", "phone"]);
        let engine = Arc::new(AuditEngine::builder(schema, Domain::new()).build());
        SessionRegistry::new(engine)
    }

    fn error_kind(response: &Value) -> &str {
        response
            .field("error")
            .field("kind")
            .as_str()
            .expect("structured error carries a kind")
    }

    #[test]
    fn a_two_tenant_script_runs_end_to_end() {
        let reg = registry();
        let script = [
            r#"{"op": "ping"}"#,
            r#"{"op": "publish", "tenant": "a", "secret": "S(n, p) :- Employee(n, d, p)", "view": "VBob(n, d) :- Employee(n, d, p)", "name": "bob"}"#,
            r#"{"op": "publish", "tenant": "b", "secret": "S(n, p) :- Employee(n, d, p)", "view": "VCarol(d, p) :- Employee(n, d, p)"}"#,
            r#"{"op": "snapshot", "tenant": "a", "label": "s1"}"#,
            r#"{"op": "candidate", "tenant": "a", "view": "VCarol(d, p) :- Employee(n, d, p)"}"#,
            r#"{"op": "restore", "tenant": "a", "label": "s1"}"#,
            r#"{"op": "stats"}"#,
        ];
        let mut responses = Vec::new();
        for line in script {
            let (response, shutdown) = handle_request(&reg, line);
            assert!(!shutdown);
            assert_eq!(
                response.field("ok"),
                &Value::Bool(true),
                "{line} -> {response:?}"
            );
            assert_eq!(
                response.field("v"),
                &Value::Int(PROTOCOL_VERSION),
                "every response carries the envelope version"
            );
            responses.push(response);
        }
        assert_eq!(
            responses[1].field("report").field("report").field("secure"),
            &Value::Bool(false)
        );
        let stats = responses[6].field("stats");
        assert_eq!(stats.field("tenants").as_array().unwrap().len(), 2);
        assert_eq!(stats.field("requests_served").as_int(), Some(5));
        // Counters live in the metrics plane only.
        assert!(responses[2].field("report").field("cache").is_null());
        assert!(responses[6].field("server").is_null());
        let Value::Object(members) = stats else {
            panic!("stats is an object")
        };
        let names: Vec<&str> = members.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            [
                "tenants",
                "shard_count",
                "requests_served",
                "sessions_expired",
                "store_backend",
                "journal_records",
                "journal_bytes"
            ]
        );
        assert!(
            reg.engine().cache_stats().crit_cache_hits > 0,
            "second tenant is served from the shared engine's warm caches"
        );
    }

    #[test]
    fn deeply_nested_json_is_a_bad_request_not_a_stack_overflow() {
        // A line of 200,000 `[` is well under the request-line cap. The JSON
        // parser recurses once per nesting level, so without its depth cap
        // this line overflows a default-size thread's stack and aborts the
        // whole process.
        let line = "[".repeat(200_000);
        assert!(line.len() < crate::server::MAX_REQUEST_LINE_BYTES);
        let reg = Arc::new(registry());
        let worker = Arc::clone(&reg);
        let response = std::thread::spawn(move || handle_request(&worker, &line).0)
            .join()
            .expect("the request thread survives");
        assert_eq!(error_kind(&response), "bad_request");
        let (pong, _) = handle_request(&reg, r#"{"op": "ping"}"#);
        assert_eq!(pong.field("ok"), &Value::Bool(true), "still serving");
    }

    #[test]
    fn failures_map_onto_structured_error_kinds() {
        let reg = registry();
        // An established tenant, so unknown-snapshot is reachable below.
        let (opened, _) = handle_request(
            &reg,
            r#"{"op": "open", "tenant": "z", "secret": "S(n, p) :- Employee(n, d, p)"}"#,
        );
        assert_eq!(opened.field("ok"), &Value::Bool(true));
        for (line, kind) in [
            ("not json", "bad_request"),
            (r#"{"op": "warp"}"#, "bad_request"),
            (
                r#"{"op": "publish", "tenant": "a", "view": "V(n) :- Employee(n, d, p)"}"#,
                "tenant_retired",
            ),
            (
                r#"{"op": "publish", "tenant": "a", "secret": "S(n) :- Employee(n, d, p)"}"#,
                "bad_request",
            ),
            (
                r#"{"op": "restore", "tenant": "a", "label": "x"}"#,
                "tenant_retired",
            ),
            (
                r#"{"op": "restore", "tenant": "z", "label": "x"}"#,
                "bad_request",
            ),
            (
                r#"{"op": "candidate", "tenant": "ghost", "view": "V(n) :- Employee(n, d, p)"}"#,
                "tenant_retired",
            ),
            (
                r#"{"op": "open", "tenant": "a", "secret": "S(n) :- Employee(n, 'Skunkworks', p)"}"#,
                "undeclared_constant",
            ),
        ] {
            let (response, shutdown) = handle_request(&reg, line);
            assert!(!shutdown);
            assert_eq!(
                response.field("ok"),
                &Value::Bool(false),
                "{line} should fail: {response:?}"
            );
            assert_eq!(error_kind(&response), kind, "{line} -> {response:?}");
            assert!(
                !response.field("error").field("reason").is_null(),
                "every error states a reason: {response:?}"
            );
            assert!(
                ErrorKind::from_wire(error_kind(&response)).is_some(),
                "kinds round-trip through the enum"
            );
        }
        // The shutdown marker round-trips.
        let (response, shutdown) = handle_request(&reg, r#"{"op": "shutdown"}"#);
        assert!(shutdown);
        assert_eq!(response.field("ok"), &Value::Bool(true));
    }

    #[test]
    fn unknown_protocol_versions_are_rejected_with_a_stated_reason() {
        let reg = registry();
        // The current version is accepted, spelled explicitly or omitted.
        let (response, _) = handle_request(&reg, r#"{"op": "ping", "v": 1}"#);
        assert_eq!(response.field("ok"), &Value::Bool(true));
        // Any other version is a bad request naming both versions.
        let (response, shutdown) = handle_request(&reg, r#"{"op": "ping", "v": 2}"#);
        assert!(!shutdown);
        assert_eq!(response.field("ok"), &Value::Bool(false));
        assert_eq!(error_kind(&response), "bad_request");
        let reason = response.field("error").field("reason").as_str().unwrap();
        assert!(reason.contains("version 2"), "{reason}");
        assert!(reason.contains("v=1"), "{reason}");
        // Even a shutdown op under a wrong version does not shut down.
        let (_, shutdown) = handle_request(&reg, r#"{"op": "shutdown", "v": 99}"#);
        assert!(!shutdown);
    }

    fn registry_with_domain() -> SessionRegistry {
        let mut schema = Schema::new();
        schema.add_relation("Employee", &["name", "department", "phone"]);
        schema.add_relation("Dept", &["id", "floor"]);
        let engine =
            Arc::new(AuditEngine::builder(schema, Domain::with_constants(["HR", "Mgmt"])).build());
        SessionRegistry::new(engine)
    }

    #[test]
    fn sql_op_compiles_and_reports_canonical_forms() {
        let reg = registry_with_domain();
        let (response, _) = handle_request(
            &reg,
            r#"{"op": "sql", "sql": "SELECT name, phone FROM Employee WHERE department = 'HR'"}"#,
        );
        assert_eq!(response.field("ok"), &Value::Bool(true), "{response:?}");
        let queries = response.field("queries").as_array().unwrap();
        assert_eq!(queries.len(), 1);
        assert_eq!(queries[0].field("name").as_str(), Some("Q"));
        assert_eq!(
            queries[0].field("datalog").as_str(),
            Some("Q(name, phone) :- Employee(name, 'HR', phone)")
        );
        // The canonical form is exactly what the equivalent hand-written
        // datalog query canonicalises to — the cache-identity contract.
        let hand = reg.parse("Q(n, p) :- Employee(n, 'HR', p)").unwrap();
        assert_eq!(
            queries[0].field("canonical").as_str(),
            Some(qvsec_cq::canonical_form(&hand).as_str())
        );
        // An IN list expands to one query per member, names suffixed.
        let (response, _) = handle_request(
            &reg,
            r#"{"op": "sql", "sql": "SELECT name FROM Employee WHERE department IN ('HR', 'Mgmt')", "name": "W"}"#,
        );
        let queries = response.field("queries").as_array().unwrap();
        assert_eq!(queries.len(), 2);
        assert_eq!(queries[0].field("name").as_str(), Some("W_1"));
        assert_eq!(queries[1].field("name").as_str(), Some("W_2"));
    }

    #[test]
    fn sql_rejections_carry_detail_with_reason_and_span() {
        let reg = registry_with_domain();
        let sql_text = "SELECT name FROM Employee WHERE department = 'HR' OR phone = '5'";
        let line = format!(r#"{{"op": "sql", "sql": "{sql_text}"}}"#);
        let (response, _) = handle_request(&reg, &line);
        assert_eq!(response.field("ok"), &Value::Bool(false));
        assert_eq!(error_kind(&response), "bad_request");
        let detail = response.field("error").field("detail");
        assert_eq!(detail.field("reason").as_str(), Some("unsupported_or"));
        let start = detail.field("span").field("start").as_int().unwrap() as usize;
        let end = detail.field("span").field("end").as_int().unwrap() as usize;
        assert_eq!(&sql_text[start..end], "OR", "span locates the construct");
        // Constants outside the closed domain keep their dedicated kind.
        let (response, _) = handle_request(
            &reg,
            r#"{"op": "sql", "sql": "SELECT name FROM Employee WHERE department = 'Skunkworks'"}"#,
        );
        assert_eq!(error_kind(&response), "undeclared_constant");
        // Plain bad requests (no SQL structure) carry no detail member.
        let (response, _) = handle_request(&reg, r#"{"op": "warp"}"#);
        assert!(response.field("error").field("detail").is_null());
    }

    #[test]
    fn show_tables_and_show_columns_answer_from_the_schema() {
        let reg = registry_with_domain();
        let (response, _) = handle_request(&reg, r#"{"op": "show_tables"}"#);
        let tables = response.field("tables").as_array().unwrap();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].field("name").as_str(), Some("Employee"));
        assert_eq!(
            tables[0].field("columns").as_array().unwrap().len(),
            3,
            "columns ride along in declaration order"
        );
        // Resolution is exact-first, then unique case-insensitive — the
        // same policy the SQL compiler applies to FROM clauses.
        let (response, _) = handle_request(&reg, r#"{"op": "show_columns", "table": "employee"}"#);
        assert_eq!(response.field("table").as_str(), Some("Employee"));
        let columns = response.field("columns").as_array().unwrap();
        assert_eq!(columns[1].as_str(), Some("department"));
        let (response, _) = handle_request(&reg, r#"{"op": "show_columns", "table": "Payroll"}"#);
        assert_eq!(error_kind(&response), "bad_request");
        assert_eq!(
            response
                .field("error")
                .field("detail")
                .field("reason")
                .as_str(),
            Some("unknown_table")
        );
        // SHOW statements through the `sql` op answer identically.
        let (via_sql, _) = handle_request(&reg, r#"{"op": "sql", "sql": "SHOW TABLES"}"#);
        assert_eq!(
            serde_json::to_string(&via_sql).unwrap(),
            serde_json::to_string(&handle_request(&reg, r#"{"op": "show_tables"}"#).0).unwrap()
        );
        let (via_sql, _) =
            handle_request(&reg, r#"{"op": "sql", "sql": "SHOW COLUMNS FROM Dept"}"#);
        assert_eq!(via_sql.field("table").as_str(), Some("Dept"));
    }

    #[test]
    fn sql_and_datalog_publishes_produce_identical_reports() {
        let datalog_reg = registry_with_domain();
        let sql_reg = registry_with_domain();
        let (datalog, _) = handle_request(
            &datalog_reg,
            r#"{"op": "publish", "tenant": "a", "secret": "S(n, p) :- Employee(n, d, p)", "view": "V(n, p) :- Employee(n, 'HR', p)", "name": "bob"}"#,
        );
        let (sql, _) = handle_request(
            &sql_reg,
            r#"{"op": "publish", "tenant": "a", "secret_sql": "SELECT name, phone FROM Employee", "sql": "SELECT name, phone FROM Employee WHERE department = 'HR'", "name": "bob"}"#,
        );
        assert_eq!(datalog.field("ok"), &Value::Bool(true), "{datalog:?}");
        assert_eq!(sql.field("ok"), &Value::Bool(true), "{sql:?}");
        assert_eq!(
            serde_json::to_string(&datalog.field("report")).unwrap(),
            serde_json::to_string(&sql.field("report")).unwrap(),
            "the front end compiles to the same audit, byte for byte"
        );
        // A SQL candidate against the SQL-opened session audits cleanly.
        let (candidate, _) = handle_request(
            &sql_reg,
            r#"{"op": "candidate", "tenant": "a", "sql": "SELECT department FROM Employee"}"#,
        );
        assert_eq!(candidate.field("ok"), &Value::Bool(true), "{candidate:?}");
        // view and sql at once is malformed, not silently resolved.
        let (both, _) = handle_request(
            &sql_reg,
            r#"{"op": "candidate", "tenant": "a", "view": "W(d) :- Employee(n, d, p)", "sql": "SELECT department FROM Employee"}"#,
        );
        assert_eq!(error_kind(&both), "bad_request");
    }

    #[test]
    fn explain_reports_canonical_forms_and_cache_tiers_without_perturbing() {
        let reg = registry_with_domain();
        let explain_line = r#"{"op": "explain", "view": "V(n, p) :- Employee(n, 'HR', p)"}"#;
        // Cold start: every artifact layer reports uncached.
        let (response, _) = handle_request(&reg, explain_line);
        assert_eq!(response.field("ok"), &Value::Bool(true), "{response:?}");
        let queries = response.field("queries").as_array().unwrap();
        assert_eq!(queries.len(), 1);
        let hand = reg.parse("V(n, p) :- Employee(n, 'HR', p)").unwrap();
        assert_eq!(
            queries[0].field("canonical").as_str(),
            Some(qvsec_cq::canonical_form(&hand).as_str())
        );
        let artifacts = queries[0].field("artifacts");
        assert_eq!(artifacts.field("crit").as_str(), Some("uncached"));
        assert_eq!(
            artifacts
                .field("crit_domain_sizes")
                .as_array()
                .unwrap()
                .len(),
            0
        );
        // Auditing the view warms its crit set; explain now sees it.
        let (published, _) = handle_request(
            &reg,
            r#"{"op": "publish", "tenant": "a", "secret": "S(n, p) :- Employee(n, d, p)", "view": "V(n, p) :- Employee(n, 'HR', p)"}"#,
        );
        assert_eq!(published.field("ok"), &Value::Bool(true), "{published:?}");
        let (response, _) = handle_request(&reg, explain_line);
        let queries = response.field("queries").as_array().unwrap();
        let artifacts = queries[0].field("artifacts");
        assert_eq!(artifacts.field("crit").as_str(), Some("memory"));
        assert!(!artifacts
            .field("crit_domain_sizes")
            .as_array()
            .unwrap()
            .is_empty());
        // The probe is strictly read-only: repeating it moves no counter.
        let before = reg.engine().cache_stats();
        for _ in 0..3 {
            handle_request(&reg, explain_line);
        }
        assert_eq!(
            reg.engine().cache_stats(),
            before,
            "explain probes count nothing"
        );
    }

    #[test]
    fn show_canonical_matches_the_explain_op() {
        let reg = registry_with_domain();
        let (via_sql, _) = handle_request(
            &reg,
            r#"{"op": "sql", "sql": "SHOW CANONICAL SELECT name FROM Employee WHERE department = 'HR'"}"#,
        );
        assert_eq!(via_sql.field("ok"), &Value::Bool(true), "{via_sql:?}");
        let (via_explain, _) = handle_request(
            &reg,
            r#"{"op": "explain", "sql": "SELECT name FROM Employee WHERE department = 'HR'"}"#,
        );
        assert_eq!(
            serde_json::to_string(&via_sql).unwrap(),
            serde_json::to_string(&via_explain).unwrap(),
            "both surfaces share one rendering"
        );
        let queries = via_sql.field("queries").as_array().unwrap();
        assert!(queries[0].field("canonical").as_str().is_some());
        assert!(queries[0]
            .field("artifacts")
            .field("class_verdicts")
            .as_str()
            .is_some());
        // Rejections keep the structured SQL detail.
        let (rejected, _) = handle_request(
            &reg,
            r#"{"op": "sql", "sql": "SHOW CANONICAL SELECT name FROM Employee WHERE department = 'Skunkworks'"}"#,
        );
        assert_eq!(error_kind(&rejected), "undeclared_constant");
    }

    #[test]
    fn metrics_op_returns_the_unified_snapshot() {
        let reg = registry_with_domain();
        handle_request(&reg, r#"{"op": "ping"}"#);
        let (response, _) = handle_request(&reg, r#"{"op": "metrics"}"#);
        assert_eq!(response.field("ok"), &Value::Bool(true), "{response:?}");
        let metrics = response.field("metrics");
        assert!(!metrics.field("counters").is_null());
        assert!(!metrics.field("histograms").is_null());
        // Legacy bags are folded in as gauges, consistent with `stats`.
        let gauges = metrics.field("gauges");
        assert_eq!(
            gauges.field("registry.requests_served").as_int(),
            Some(reg.stats().requests_served as i128)
        );
        assert_eq!(
            gauges.field("cache.crit.hits").as_int(),
            Some(reg.engine().cache_stats().crit_cache_hits as i128)
        );
        // The process-global request counter has seen this test's traffic.
        assert!(
            metrics
                .field("counters")
                .field("serve.requests")
                .as_int()
                .unwrap()
                >= 2
        );
    }

    #[test]
    fn timing_member_appears_only_on_request() {
        let reg = registry_with_domain();
        let (untimed, _) = handle_request(&reg, r#"{"op": "ping"}"#);
        assert!(untimed.field("timing").is_null());
        let (timed, _) = handle_request(&reg, r#"{"op": "ping", "timing": true}"#);
        let timing = timed.field("timing");
        assert!(timing.field("total_nanos").as_int().is_some());
        assert!(!timing.field("stages").is_null());
        // Stripping the member recovers the untimed response, byte for
        // byte — the contract the CI diff relies on.
        let stripped = match &timed {
            Value::Object(entries) => Value::Object(
                entries
                    .iter()
                    .filter(|(name, _)| name != "timing")
                    .cloned()
                    .collect(),
            ),
            other => other.clone(),
        };
        assert_eq!(
            serde_json::to_string(&stripped).unwrap(),
            serde_json::to_string(&untimed).unwrap()
        );
        // `"timing": false` is the same as omitting it.
        let (off, _) = handle_request(&reg, r#"{"op": "ping", "timing": false}"#);
        assert!(off.field("timing").is_null());
    }

    #[test]
    fn persist_reports_the_store_backend_or_its_absence() {
        let reg = registry();
        let (response, _) = handle_request(&reg, r#"{"op": "persist"}"#);
        assert_eq!(response.field("ok"), &Value::Bool(true));
        assert_eq!(response.field("persisted"), &Value::Bool(false));

        let store: Arc<dyn qvsec_store::StoreBackend> = Arc::new(qvsec_store::MemStore::new());
        let mut schema = Schema::new();
        schema.add_relation("Employee", &["name", "department", "phone"]);
        let engine = Arc::new(AuditEngine::builder(schema, Domain::new()).build());
        let durable =
            SessionRegistry::with_store(engine, crate::registry::RegistryConfig::default(), store)
                .unwrap();
        let (response, _) = handle_request(&durable, r#"{"op": "persist"}"#);
        assert_eq!(response.field("persisted"), &Value::Bool(true));
        assert_eq!(response.field("backend"), &Value::Str("mem".to_string()));
    }
}
