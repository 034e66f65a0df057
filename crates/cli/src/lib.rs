//! Library behind the `qvsec-cli` binary: JSON audit-spec parsing and
//! execution against an [`AuditEngine`].
//!
//! A spec declares a schema, optional domain constants, an optional
//! dictionary, engine defaults, and a list of audits:
//!
//! ```json
//! {
//!   "relations": [
//!     {"name": "Employee", "attributes": ["name", "department", "phone"]}
//!   ],
//!   "defaults": {"depth": "exact"},
//!   "audits": [
//!     {
//!       "name": "table1-row4",
//!       "secret": "S4(n) :- Employee(n, 'HR', p)",
//!       "views": ["V4(n) :- Employee(n, 'Mgmt', p)"]
//!     }
//!   ]
//! }
//! ```
//!
//! Queries are written in the workspace's datalog syntax and parsed with
//! [`qvsec_cq::parse_query`] — or, anywhere a query string is accepted, in
//! the safe-SQL subset of `qvsec-sql` via the object form
//! `{"sql": "SELECT name FROM Employee WHERE department = 'HR'", "name": "S4"}`
//! (`name` is optional; see [`QuerySpec`]). Both spellings compile to the
//! same canonical conjunctive queries, so reports are byte-identical
//! across them.

use qvsec::engine::{AuditDepth, AuditEngine, AuditEngineBuilder, AuditRequest};
use qvsec::QvsError;
use qvsec_cq::{parse_query, ConjunctiveQuery, ViewSet};
use qvsec_data::{Dictionary, Domain, Ratio, Schema, TupleSpace};
use serde::Deserialize;
use std::fmt;
use std::sync::Arc;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// The spec file could not be parsed.
    Spec(String),
    /// A query inside the spec failed to parse or analyze.
    Audit(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Spec(m) => write!(f, "spec error: {m}"),
            CliError::Audit(m) => write!(f, "audit error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Spec(e.to_string())
    }
}

impl From<QvsError> for CliError {
    fn from(e: QvsError) -> Self {
        CliError::Audit(e.to_string())
    }
}

/// One relation declaration.
#[derive(Debug, Clone, Deserialize)]
pub struct RelationSpec {
    /// Relation name.
    pub name: String,
    /// Attribute names.
    pub attributes: Vec<String>,
}

/// Spec-level defaults applied to every audit unless overridden.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct DefaultsSpec {
    /// Default escalation depth (`"fast"`, `"exact"`, `"probabilistic"`).
    pub depth: Option<String>,
    /// Default minute-vs-partial threshold as `[numerator, denominator]`.
    pub minute_threshold: Option<(i128, i128)>,
    /// Default candidate-enumeration cap.
    pub candidate_cap: Option<usize>,
}

/// Dictionary construction directive: a uniform distribution over the
/// support space of every query in the spec.
#[derive(Debug, Clone, Deserialize)]
pub struct DictionarySpec {
    /// Uniform per-tuple probability as `[numerator, denominator]`
    /// (default `[1, 2]`).
    pub probability: Option<(i128, i128)>,
    /// Cap on the constructed tuple-space size (default 4096).
    pub cap: Option<usize>,
    /// Largest tuple-space size the probabilistic stage evaluates exactly;
    /// bigger spaces cut over to Monte-Carlo estimation (default 24).
    pub exact_cutover: Option<usize>,
    /// Worlds drawn into the shared Monte-Carlo sample pool (default 8192).
    pub samples: Option<usize>,
    /// Seed of the shared sample pool; fixing it makes Monte-Carlo reports
    /// byte-reproducible.
    pub seed: Option<u64>,
    /// Cap on the reported leak-entry list (max leak, the witness pair and
    /// `pairs_checked` always cover every answer pair; unset reports every
    /// entry).
    pub report_cap: Option<usize>,
}

/// A query inside a spec, in either front-end syntax. Deserializes from a
/// plain JSON string (datalog, the historical form) or from an object
/// `{"sql": "SELECT ...", "name": "Q"}` (safe SQL; `name` labels the
/// compiled query and is optional). Both compile to the same canonical
/// conjunctive queries, so swapping one spelling for the other leaves
/// every report byte-identical.
#[derive(Debug, Clone)]
pub enum QuerySpec {
    /// Datalog syntax, e.g. `"V(n, d) :- Employee(n, d, p)"`.
    Datalog(String),
    /// Safe-SQL syntax, compiled through `qvsec-sql`.
    Sql {
        /// The SQL text.
        sql: String,
        /// Name for the compiled query; defaults per context (`S` for
        /// secrets, `V` for views).
        name: Option<String>,
    },
}

impl serde::Deserialize for QuerySpec {
    fn deserialize(value: &serde::json::Json) -> Result<Self, serde::Error> {
        use serde::json::Json;
        match value {
            Json::Str(text) => Ok(QuerySpec::Datalog(text.clone())),
            Json::Object(_) => {
                let sql = value
                    .field("sql")
                    .as_str()
                    .ok_or_else(|| {
                        serde::Error::custom("query object form needs a string `sql` field")
                    })?
                    .to_string();
                let name = match value.field("name") {
                    Json::Null => None,
                    other => Some(
                        other
                            .as_str()
                            .ok_or_else(|| serde::Error::custom("query `name` must be a string"))?
                            .to_string(),
                    ),
                };
                Ok(QuerySpec::Sql { sql, name })
            }
            _ => Err(serde::Error::custom(
                "expected a datalog string or a {\"sql\": ...} object",
            )),
        }
    }
}

impl QuerySpec {
    /// The raw query text, for error messages.
    pub fn text(&self) -> &str {
        match self {
            QuerySpec::Datalog(text) => text,
            QuerySpec::Sql { sql, .. } => sql,
        }
    }

    /// Compiles to exactly one conjunctive query (SQL `IN` lists that
    /// expand to a union are rejected here).
    pub fn compile_single(
        &self,
        schema: &Schema,
        domain: &mut Domain,
        default_name: &str,
    ) -> Result<ConjunctiveQuery, String> {
        match self {
            QuerySpec::Datalog(text) => {
                parse_query(text, schema, domain).map_err(|e| format!("{e}"))
            }
            QuerySpec::Sql { sql, name } => qvsec_sql::compile_query_single(
                sql,
                schema,
                domain,
                name.as_deref().unwrap_or(default_name),
            )
            .map_err(|e| format!("sql rejected: {e}")),
        }
    }

    /// Compiles to one or more conjunctive queries: a SQL `IN` list
    /// expands to one query per (consistent) combination, suffixed
    /// `_1`, `_2`, ...; datalog always yields exactly one.
    pub fn compile_multi(
        &self,
        schema: &Schema,
        domain: &mut Domain,
        default_name: &str,
    ) -> Result<Vec<ConjunctiveQuery>, String> {
        match self {
            QuerySpec::Datalog(text) => parse_query(text, schema, domain)
                .map(|q| vec![q])
                .map_err(|e| format!("{e}")),
            QuerySpec::Sql { sql, name } => qvsec_sql::compile_query(
                sql,
                schema,
                domain,
                name.as_deref().unwrap_or(default_name),
            )
            .map_err(|e| format!("sql rejected: {e}")),
        }
    }
}

/// One audit case.
#[derive(Debug, Clone, Deserialize)]
pub struct AuditCaseSpec {
    /// Label for the report (defaults to the secret query's name).
    pub name: Option<String>,
    /// The secret query, datalog or safe-SQL syntax.
    pub secret: QuerySpec,
    /// The views about to be published, datalog or safe-SQL syntax (a SQL
    /// view with an `IN` list contributes every expanded disjunct).
    pub views: Vec<QuerySpec>,
    /// Per-audit depth override.
    pub depth: Option<String>,
    /// Per-audit minute threshold override.
    pub minute_threshold: Option<(i128, i128)>,
}

/// A full audit specification.
#[derive(Debug, Clone, Deserialize)]
pub struct AuditSpec {
    /// The schema's relations.
    pub relations: Vec<RelationSpec>,
    /// Domain constants interned before query parsing (query constants are
    /// added on demand).
    pub constants: Option<Vec<String>>,
    /// Dictionary directive; required for `"probabilistic"` depth.
    pub dictionary: Option<DictionarySpec>,
    /// Engine defaults.
    pub defaults: Option<DefaultsSpec>,
    /// The audits to run.
    pub audits: Vec<AuditCaseSpec>,
}

fn parse_depth(text: &str) -> Result<AuditDepth, CliError> {
    match text.to_ascii_lowercase().as_str() {
        "fast" => Ok(AuditDepth::Fast),
        "exact" => Ok(AuditDepth::Exact),
        "probabilistic" | "prob" => Ok(AuditDepth::Probabilistic),
        other => Err(CliError::Spec(format!(
            "unknown depth `{other}` (expected fast | exact | probabilistic)"
        ))),
    }
}

/// Parses a JSON audit spec.
pub fn parse_spec(text: &str) -> Result<AuditSpec, CliError> {
    Ok(serde_json::from_str(text)?)
}

/// Everything built from a spec: the engine and the parsed requests.
pub struct PreparedAudit {
    /// The engine, bound to the spec's schema/domain/dictionary.
    pub engine: AuditEngine,
    /// The parsed audit requests, in spec order.
    pub requests: Vec<AuditRequest>,
}

/// Builds the schema and initial domain a spec declares.
fn build_schema_domain(
    relations: &[RelationSpec],
    constants: &Option<Vec<String>>,
) -> Result<(Schema, Domain), CliError> {
    let mut schema = Schema::new();
    for rel in relations {
        let attrs: Vec<&str> = rel.attributes.iter().map(String::as_str).collect();
        schema
            .try_add_relation(&rel.name, &attrs)
            .map_err(|e| CliError::Spec(e.to_string()))?;
    }
    let domain = match constants {
        Some(constants) => Domain::with_constants(constants),
        None => Domain::new(),
    };
    Ok((schema, domain))
}

/// Opens the durable store a serve spec (or `serve --store`) selects.
fn open_spec_store(
    config: &qvsec_store::StoreConfig,
) -> Result<std::sync::Arc<dyn qvsec_store::StoreBackend>, CliError> {
    qvsec_store::open_store(config).map_err(|e| CliError::Spec(format!("store: {e}")))
}

/// The engine builder a spec's `defaults` and `dictionary` declare: the
/// default depth, minute threshold and candidate cap, and a uniform
/// dictionary over the tuple space `space` builds for the dictionary's
/// `cap`, with its estimator knobs.
fn engine_builder(
    schema: &Schema,
    domain: &Domain,
    defaults: Option<&DefaultsSpec>,
    dictionary: Option<&DictionarySpec>,
    space: impl FnOnce(usize) -> Result<TupleSpace, CliError>,
) -> Result<AuditEngineBuilder, CliError> {
    let mut builder = AuditEngine::builder(schema.clone(), domain.clone());
    let defaults = defaults.cloned().unwrap_or_default();
    if let Some(depth) = &defaults.depth {
        builder = builder.default_depth(parse_depth(depth)?);
    }
    if let Some((n, d)) = defaults.minute_threshold {
        builder = builder.minute_threshold(Ratio::new(n, d));
    }
    if let Some(cap) = defaults.candidate_cap {
        builder = builder.candidate_cap(cap);
    }
    if let Some(dict_spec) = dictionary {
        let (n, d) = dict_spec.probability.unwrap_or((1, 2));
        let dict = Dictionary::uniform(space(dict_spec.cap.unwrap_or(4096))?, Ratio::new(n, d))
            .map_err(|e| CliError::Spec(format!("dictionary: {e}")))?;
        builder = builder.dictionary(dict);
        if let Some(cutover) = dict_spec.exact_cutover {
            builder = builder.exact_cutover(cutover);
        }
        if let Some(samples) = dict_spec.samples {
            builder = builder.mc_samples(samples);
        }
        if let Some(seed) = dict_spec.seed {
            builder = builder.mc_seed(seed);
        }
    }
    Ok(builder)
}

/// Builds an engine bound to `schema`/`domain` with the spec's defaults and
/// (when declared) a uniform dictionary over the support space of
/// `queries`.
fn build_engine(
    schema: &Schema,
    domain: &Domain,
    defaults: Option<&DefaultsSpec>,
    dictionary: Option<&DictionarySpec>,
    queries: &[&ConjunctiveQuery],
) -> Result<AuditEngine, CliError> {
    let mut builder = engine_builder(schema, domain, defaults, dictionary, |cap| {
        qvsec_prob::lineage::support_space(queries, domain, cap)
            .map_err(|e| CliError::Spec(format!("dictionary support space: {e}")))
    })?;
    if let Some(cap) = dictionary.and_then(|d| d.report_cap) {
        builder = builder.report_cap(cap);
    }
    Ok(builder.build())
}

/// Builds the engine and requests declared by a spec.
pub fn prepare(spec: &AuditSpec) -> Result<PreparedAudit, CliError> {
    let (schema, mut domain) = build_schema_domain(&spec.relations, &spec.constants)?;
    let mut parsed = Vec::new();
    for (i, case) in spec.audits.iter().enumerate() {
        let secret = case
            .secret
            .compile_single(&schema, &mut domain, "S")
            .map_err(|e| {
                CliError::Spec(format!(
                    "audit #{i}: bad secret `{}`: {e}",
                    case.secret.text()
                ))
            })?;
        let mut views = ViewSet::new();
        for v in &case.views {
            let compiled = v
                .compile_multi(&schema, &mut domain, "V")
                .map_err(|e| CliError::Spec(format!("audit #{i}: bad view `{}`: {e}", v.text())))?;
            for q in compiled {
                views.push(q);
            }
        }
        if views.is_empty() {
            return Err(CliError::Spec(format!("audit #{i}: no views given")));
        }
        parsed.push((secret, views));
    }

    let queries: Vec<&ConjunctiveQuery> = parsed
        .iter()
        .flat_map(|(s, vs)| std::iter::once(s).chain(vs.iter()))
        .collect();
    let engine = build_engine(
        &schema,
        &domain,
        spec.defaults.as_ref(),
        spec.dictionary.as_ref(),
        &queries,
    )?;

    let mut requests = Vec::new();
    for (case, (secret, views)) in spec.audits.iter().zip(parsed) {
        let mut request = AuditRequest::new(secret, views);
        if let Some(name) = &case.name {
            request = request.named(name.clone());
        }
        if let Some(depth) = &case.depth {
            request = request.with_depth(parse_depth(depth)?);
        }
        if let Some((n, d)) = case.minute_threshold {
            request = request.with_minute_threshold(Ratio::new(n, d));
        }
        requests.push(request);
    }
    Ok(PreparedAudit { engine, requests })
}

/// Parses a spec, runs every audit (in parallel unless `sequential`), and
/// returns the JSON array of reports.
pub fn run_spec(text: &str, sequential: bool) -> Result<serde_json::Value, CliError> {
    let spec = parse_spec(text)?;
    let prepared = prepare(&spec)?;
    let reports = if sequential {
        prepared
            .requests
            .iter()
            .map(|r| prepared.engine.audit(r))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        prepared.engine.try_audit_batch(&prepared.requests)?
    };
    Ok(serde_json::to_value(&reports)?)
}

/// One step of a session script. Exactly one of the four action fields must
/// be set:
///
/// * `publish` — audit the secret against everything published plus this
///   view, then commit it (optional `name` labels the recipient);
/// * `candidate` — the same audit without committing (what-if);
/// * `snapshot` — save the session state under the given label;
/// * `restore` — rewind to the labelled snapshot.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct SessionStepSpec {
    /// View to publish, datalog or safe-SQL syntax.
    pub publish: Option<QuerySpec>,
    /// View to what-if audit, datalog or safe-SQL syntax.
    pub candidate: Option<QuerySpec>,
    /// Label to snapshot the session under.
    pub snapshot: Option<String>,
    /// Label of the snapshot to rewind to.
    pub restore: Option<String>,
    /// Recipient label for `publish` (defaults to the view's query name).
    pub name: Option<String>,
}

/// A session script: one secret, a sequence of publication steps.
#[derive(Debug, Clone, Deserialize)]
pub struct SessionSpec {
    /// The schema's relations.
    pub relations: Vec<RelationSpec>,
    /// Domain constants interned before query parsing.
    pub constants: Option<Vec<String>>,
    /// Dictionary directive; required for `"probabilistic"` depth. The
    /// support space covers the secret and every step's view.
    pub dictionary: Option<DictionarySpec>,
    /// Engine defaults (the session audits at the default depth).
    pub defaults: Option<DefaultsSpec>,
    /// Session label echoed into every step report.
    pub name: Option<String>,
    /// The secret query, datalog or safe-SQL syntax.
    pub secret: QuerySpec,
    /// The publication steps, replayed in order.
    pub steps: Vec<SessionStepSpec>,
}

/// Parses a JSON session script.
pub fn parse_session_spec(text: &str) -> Result<SessionSpec, CliError> {
    Ok(serde_json::from_str(text)?)
}

/// Replays a session script and returns one JSON entry per step: the
/// serialized [`qvsec::SessionReport`] for `publish`/`candidate` steps,
/// `{"snapshot": label}` / `{"restored": label}` markers otherwise.
pub fn run_session_spec(text: &str) -> Result<serde_json::Value, CliError> {
    let spec = parse_session_spec(text)?;
    let (schema, mut domain) = build_schema_domain(&spec.relations, &spec.constants)?;

    let secret = spec
        .secret
        .compile_single(&schema, &mut domain, "S")
        .map_err(|e| CliError::Spec(format!("bad secret `{}`: {e}", spec.secret.text())))?;
    let mut step_views: Vec<Option<ConjunctiveQuery>> = Vec::with_capacity(spec.steps.len());
    for (i, step) in spec.steps.iter().enumerate() {
        let actions = [
            step.publish.is_some(),
            step.candidate.is_some(),
            step.snapshot.is_some(),
            step.restore.is_some(),
        ]
        .iter()
        .filter(|a| **a)
        .count();
        if actions != 1 {
            return Err(CliError::Spec(format!(
                "step #{i}: exactly one of publish | candidate | snapshot | restore required"
            )));
        }
        step_views.push(match step.publish.as_ref().or(step.candidate.as_ref()) {
            Some(view) => Some(
                view.compile_single(&schema, &mut domain, "V")
                    .map_err(|e| {
                        CliError::Spec(format!("step #{i}: bad view `{}`: {e}", view.text()))
                    })?,
            ),
            None => None,
        });
    }

    let queries: Vec<&ConjunctiveQuery> = std::iter::once(&secret)
        .chain(step_views.iter().flatten())
        .collect();
    let engine = Arc::new(build_engine(
        &schema,
        &domain,
        spec.defaults.as_ref(),
        spec.dictionary.as_ref(),
        &queries,
    )?);

    let mut session = engine.open_session(secret);
    if let Some(name) = &spec.name {
        session = session.named(name.clone());
    }
    let mut snapshots: std::collections::HashMap<String, qvsec::SessionSnapshot> =
        std::collections::HashMap::new();
    let mut out = Vec::with_capacity(spec.steps.len());
    for (step, view) in spec.steps.iter().zip(step_views) {
        let marker = |kind: &str, label: &str, views: usize| {
            serde_json::Value::Object(vec![
                (kind.to_string(), serde_json::Value::Str(label.to_string())),
                (
                    "views_published".to_string(),
                    serde_json::Value::Int(views as i128),
                ),
            ])
        };
        if let Some(label) = &step.snapshot {
            snapshots.insert(label.clone(), session.snapshot());
            out.push(marker("snapshot", label, session.views_published()));
            continue;
        }
        if let Some(label) = &step.restore {
            let snap = snapshots
                .get(label)
                .ok_or_else(|| CliError::Spec(format!("restore of unknown snapshot `{label}`")))?;
            session.restore(snap);
            out.push(marker("restored", label, session.views_published()));
            continue;
        }
        let view = view.expect("publish/candidate steps parsed a view");
        let report = if step.publish.is_some() {
            let name = step.name.clone().unwrap_or_else(|| view.name.clone());
            session.publish_named(name, view)?
        } else {
            session.audit_candidate(&view)?
        };
        out.push(serde_json::to_value(&report)?);
    }
    Ok(serde_json::Value::Array(out))
}

/// The schema/constants prelude shared by every spec format — all
/// `analyze_sql` needs, whatever else the spec declares.
#[derive(Debug, Clone, Deserialize)]
struct SchemaOnlySpec {
    relations: Vec<RelationSpec>,
    constants: Option<Vec<String>>,
}

/// Renders a SQL rejection as the wire protocol's `error` object, with the
/// structured `detail` (closed-enum reason code + byte span).
fn sql_error_value(e: &qvsec_sql::SqlError) -> serde_json::Value {
    use serde_json::Value;
    Value::Object(vec![(
        "error".to_string(),
        Value::Object(vec![
            (
                "kind".to_string(),
                Value::Str(qvsec_serve::ErrorKind::BadRequest.as_str().to_string()),
            ),
            (
                "reason".to_string(),
                Value::Str(format!("sql rejected: {e}")),
            ),
            (
                "detail".to_string(),
                Value::Object(vec![
                    (
                        "reason".to_string(),
                        Value::Str(e.reason.code().to_string()),
                    ),
                    (
                        "span".to_string(),
                        Value::Object(vec![
                            ("start".to_string(), Value::Int(e.span.start as i128)),
                            ("end".to_string(), Value::Int(e.span.end as i128)),
                        ]),
                    ),
                ]),
            ),
        ]),
    )])
}

/// Compiles a safe-SQL statement against the schema any spec file declares
/// (audit, session, or server spec — only `relations` and `constants` are
/// read) and returns `(body, ok)`. On success the body mirrors the server
/// `sql` op: `{"queries": [{"name", "datalog", "canonical"}]}` for SELECT
/// statements, the `show_tables`/`show_columns` shapes for SHOW
/// statements. On rejection the body is the wire `error` object with its
/// structured `detail`, and `ok` is false. Unlike the server, constants in
/// the statement need not be pre-declared: the local domain grows on
/// demand, matching how audit specs parse their own queries.
pub fn analyze_sql(
    spec_text: &str,
    sql: &str,
    name: &str,
) -> Result<(serde_json::Value, bool), CliError> {
    use serde_json::Value;
    let schema_spec: SchemaOnlySpec = serde_json::from_str(spec_text)?;
    let (schema, mut domain) = build_schema_domain(&schema_spec.relations, &schema_spec.constants)?;
    let columns_value = |rel: &Schema, id: qvsec_data::RelationId| -> Value {
        Value::Array(
            rel.relation(id)
                .attributes
                .iter()
                .map(|a| Value::Str(a.clone()))
                .collect(),
        )
    };
    match qvsec_sql::parse_statement(sql) {
        Err(e) => Ok((sql_error_value(&e), false)),
        Ok(qvsec_sql::Statement::ShowTables) => {
            let tables = schema
                .relation_ids()
                .map(|id| {
                    Value::Object(vec![
                        (
                            "name".to_string(),
                            Value::Str(schema.relation(id).name.clone()),
                        ),
                        ("columns".to_string(), columns_value(&schema, id)),
                    ])
                })
                .collect();
            Ok((
                Value::Object(vec![("tables".to_string(), Value::Array(tables))]),
                true,
            ))
        }
        Ok(qvsec_sql::Statement::ShowColumns { table, table_span }) => {
            let resolved = schema.relation_by_name(&table).or_else(|| {
                let mut hits = schema
                    .relation_ids()
                    .filter(|id| schema.relation(*id).name.eq_ignore_ascii_case(&table));
                match (hits.next(), hits.next()) {
                    (Some(id), None) => Some(id),
                    _ => None,
                }
            });
            match resolved {
                Some(id) => Ok((
                    Value::Object(vec![
                        (
                            "table".to_string(),
                            Value::Str(schema.relation(id).name.clone()),
                        ),
                        ("columns".to_string(), columns_value(&schema, id)),
                    ]),
                    true,
                )),
                None => {
                    let e = qvsec_sql::SqlError::new(
                        qvsec_sql::RejectReason::UnknownTable,
                        table_span,
                        format!("unknown table `{table}`"),
                    );
                    Ok((sql_error_value(&e), false))
                }
            }
        }
        Ok(qvsec_sql::Statement::Select(_)) => {
            match qvsec_sql::compile_query(sql, &schema, &mut domain, name) {
                Err(e) => Ok((sql_error_value(&e), false)),
                Ok(queries) => Ok((render_compiled_queries(&queries, &schema, &domain), true)),
            }
        }
        // Locally there is no engine and no cache to probe, so
        // `SHOW CANONICAL` reduces to the canonical-form rendering; the
        // tier-annotated variant lives behind the server's `explain` op.
        Ok(qvsec_sql::Statement::ShowCanonical(stmt)) => {
            match qvsec_sql::compile_select(&stmt, &schema, &mut domain, name, sql) {
                Err(e) => Ok((sql_error_value(&e), false)),
                Ok(queries) => Ok((render_compiled_queries(&queries, &schema, &domain), true)),
            }
        }
    }
}

/// The `{"queries": [{"name", "datalog", "canonical"}]}` body shared by
/// `SELECT` analysis and local `SHOW CANONICAL`.
fn render_compiled_queries(
    queries: &[qvsec_cq::ConjunctiveQuery],
    schema: &Schema,
    domain: &qvsec_data::Domain,
) -> serde_json::Value {
    use serde_json::Value;
    let rendered = queries
        .iter()
        .map(|q| {
            Value::Object(vec![
                ("name".to_string(), Value::Str(q.name.clone())),
                (
                    "datalog".to_string(),
                    Value::Str(q.display(schema, domain).to_string()),
                ),
                (
                    "canonical".to_string(),
                    Value::Str(qvsec_cq::canonical_form(q)),
                ),
            ])
        })
        .collect();
    Value::Object(vec![("queries".to_string(), Value::Array(rendered))])
}

/// A server specification: the schema/domain/dictionary context every
/// tenant audits in, plus registry and cache-budget knobs. Unlike audit and
/// session specs there are no queries here — secrets and views arrive over
/// the wire at runtime (and may only use constants declared in
/// `constants`). The dictionary, when given, is built over the **full**
/// tuple space of the declared schema and constants.
#[derive(Debug, Clone, Deserialize)]
pub struct ServeSpec {
    /// The schema's relations.
    pub relations: Vec<RelationSpec>,
    /// Domain constants runtime queries may mention.
    pub constants: Option<Vec<String>>,
    /// Dictionary over the full tuple space; required for
    /// `"probabilistic"` depth.
    pub dictionary: Option<DictionarySpec>,
    /// Engine defaults (tenant sessions audit at the default depth).
    pub defaults: Option<DefaultsSpec>,
    /// Total byte budget for the engine's artifact and kernel caches;
    /// unset keeps them append-only.
    pub cache_budget_bytes: Option<usize>,
    /// Cap on the reported leak-entry list (serving knob; unset, the
    /// dictionary's `report_cap`, else [`DEFAULT_SERVE_REPORT_CAP`]).
    pub report_cap: Option<usize>,
    /// Registry shard count (default 16).
    pub shards: Option<usize>,
    /// Sessions idle longer than this many seconds are expired (demoted to
    /// the store, when one is configured).
    pub idle_timeout_secs: Option<u64>,
    /// Durable store of the tenant journal: a log store at the block's
    /// required `path`, e.g. `{"path": "/var/lib/qvsec"}`. The CLI's
    /// `serve --store <PATH>` overrides this with a log store at PATH.
    pub store: Option<qvsec_store::StoreConfig>,
    /// Connection-lifecycle knobs for the TCP front end; every field is
    /// optional and falls back to the server's defaults.
    pub server: Option<ServerSpec>,
}

/// The `server` block of a [`ServeSpec`]: connection-lifecycle knobs for
/// the NDJSON TCP front end, mirroring [`qvsec_serve::ServerConfig`].
#[derive(Debug, Clone, Default, Deserialize)]
pub struct ServerSpec {
    /// Accept gate: concurrent connections beyond this are turned away
    /// with a `server_at_capacity` notice (default 1024). The CLI's
    /// `--max-connections <N>` flag overrides this.
    pub max_connections: Option<usize>,
    /// Keep-alive limit: close (with a `request_limit` notice) after this
    /// many requests on one connection.
    pub max_requests_per_conn: Option<u64>,
    /// Keep-alive limit: close (with a `byte_limit` notice) after this
    /// many request bytes on one connection.
    pub max_bytes_per_conn: Option<u64>,
    /// Drop connections that send no bytes for this many milliseconds
    /// while the server waits for their next request, with an
    /// `idle_timeout` notice. Distinct from the registry-level
    /// `idle_timeout_secs`, which expires tenant *sessions*, not sockets.
    pub conn_idle_timeout_millis: Option<u64>,
    /// Slow-query threshold in milliseconds: requests handled slower than
    /// this are logged as NDJSON lines on stderr with their span stage
    /// breakdown. The CLI's `--slow-ms <N>` flag overrides this; either
    /// spelling also turns span tracing on.
    pub slow_ms: Option<u64>,
}

/// Resolves a spec's `server` block (and the CLI `--max-connections`
/// override, when given) onto a full [`qvsec_serve::ServerConfig`].
pub fn server_config(
    spec: &ServeSpec,
    max_connections_override: Option<usize>,
) -> qvsec_serve::ServerConfig {
    let block = spec.server.clone().unwrap_or_default();
    let defaults = qvsec_serve::ServerConfig::default();
    qvsec_serve::ServerConfig {
        max_connections: max_connections_override
            .or(block.max_connections)
            .unwrap_or(defaults.max_connections),
        max_requests_per_conn: block.max_requests_per_conn,
        max_bytes_per_conn: block.max_bytes_per_conn,
        idle_timeout: block
            .conn_idle_timeout_millis
            .map(std::time::Duration::from_millis),
        slow_ms: block.slow_ms,
    }
}

/// Parses a JSON server spec.
pub fn parse_serve_spec(text: &str) -> Result<ServeSpec, CliError> {
    Ok(serde_json::from_str(text)?)
}

/// Leak entries a served audit lists when its spec sets no `report_cap`.
/// `max_leak`, the witness pair and `pairs_checked` still cover every pair;
/// an uncapped list grows with the product of the views' answer counts, so
/// one client could otherwise make the server materialize responses of
/// hundreds of megabytes.
pub const DEFAULT_SERVE_REPORT_CAP: usize = 16;

/// Builds the engine and sharded registry a server spec declares. With a
/// `store` block the registry journals each tenant's state to it and
/// reloads everything journaled before, so a restart is invisible to
/// clients; the engine's compiled artifacts stay in memory and are
/// recomputed on first use.
pub fn build_registry(spec: &ServeSpec) -> Result<qvsec_serve::SessionRegistry, CliError> {
    let (schema, domain) = build_schema_domain(&spec.relations, &spec.constants)?;
    let store = spec.store.as_ref().map(open_spec_store).transpose()?;
    let mut builder = engine_builder(
        &schema,
        &domain,
        spec.defaults.as_ref(),
        spec.dictionary.as_ref(),
        |cap| {
            TupleSpace::full_with_cap(&schema, &domain, cap)
                .map_err(|e| CliError::Spec(format!("dictionary tuple space: {e}")))
        },
    )?;
    if let Some(total) = spec.cache_budget_bytes {
        builder = builder.cache_budget_bytes(total);
    }
    // The top-level knob wins; a cap on the dictionary table (the spot
    // audit/session specs use) is honored rather than silently dropped.
    let report_cap = spec
        .report_cap
        .or(spec.dictionary.as_ref().and_then(|d| d.report_cap))
        .unwrap_or(DEFAULT_SERVE_REPORT_CAP);
    builder = builder.report_cap(report_cap);
    let config = qvsec_serve::RegistryConfig {
        shards: spec.shards.unwrap_or(16),
        idle_timeout: spec.idle_timeout_secs.map(std::time::Duration::from_secs),
    };
    let engine = Arc::new(builder.build());
    match store {
        Some(store) => qvsec_serve::SessionRegistry::with_store(engine, config, store)
            .map_err(|e| CliError::Audit(e.to_string())),
        None => Ok(qvsec_serve::SessionRegistry::with_config(engine, config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const JSON_SPEC: &str = r#"{
        "relations": [
            {"name": "Employee", "attributes": ["name", "department", "phone"]}
        ],
        "defaults": {"depth": "exact"},
        "audits": [
            {
                "name": "row1",
                "secret": "S1(d) :- Employee(n, d, p)",
                "views": ["V1(n, d) :- Employee(n, d, p)"]
            },
            {
                "name": "row4",
                "secret": "S4(n) :- Employee(n, 'HR', p)",
                "views": ["V4(n) :- Employee(n, 'Mgmt', p)"]
            }
        ]
    }"#;

    #[test]
    fn json_spec_runs_and_reports() {
        let out = run_spec(JSON_SPEC, false).unwrap();
        let reports = out.as_array().unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].field("name").as_str(), Some("row1"));
        assert_eq!(reports[0].field("secure"), &serde_json::Value::Bool(false));
        assert_eq!(reports[1].field("secure"), &serde_json::Value::Bool(true));
        assert_eq!(reports[1].field("class").as_str(), Some("NoDisclosure"));
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let a = run_spec(JSON_SPEC, false).unwrap();
        let b = run_spec(JSON_SPEC, true).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn probabilistic_specs_build_a_support_dictionary() {
        let spec = r#"{
            "relations": [{"name": "R", "attributes": ["x", "y"]}],
            "constants": ["a", "b"],
            "dictionary": {"probability": [1, 2]},
            "defaults": {"depth": "probabilistic", "minute_threshold": [1, 10]},
            "audits": [
                {"secret": "S(y) :- R(x, y)", "views": ["V(x) :- R(x, y)"]}
            ]
        }"#;
        let out = run_spec(spec, false).unwrap();
        let report = &out.as_array().unwrap()[0];
        assert!(!report.field("leakage").is_null());
        assert_eq!(
            report.field("totally_disclosed"),
            &serde_json::Value::Bool(false)
        );
        // The estimator metadata is surfaced in the report: a 4-tuple space
        // is evaluated exactly, streaming all 16 worlds.
        let estimator = report.field("estimator");
        assert_eq!(estimator.field("mode").as_str(), Some("Exact"));
        assert_eq!(estimator.field("worlds_streamed").as_int(), Some(16));
    }

    #[test]
    fn dictionary_estimator_knobs_force_and_configure_monte_carlo() {
        let spec = r#"{
            "relations": [{"name": "R", "attributes": ["x", "y"]}],
            "constants": ["a", "b"],
            "dictionary": {"probability": [1, 2], "exact_cutover": 0,
                           "samples": 1500, "seed": 99},
            "defaults": {"depth": "probabilistic"},
            "audits": [
                {"secret": "S(y) :- R(x, y)", "views": ["V(x) :- R(x, y)"]}
            ]
        }"#;
        let out = run_spec(spec, false).unwrap();
        let report = &out.as_array().unwrap()[0];
        let estimator = report.field("estimator");
        assert_eq!(estimator.field("mode").as_str(), Some("MonteCarlo"));
        assert_eq!(estimator.field("sample_count").as_int(), Some(1500));
        assert_eq!(estimator.field("seed").as_int(), Some(99));
        // Same spec, same seed: byte-identical output.
        assert_eq!(out, run_spec(spec, false).unwrap());
    }

    #[test]
    fn session_specs_replay_snapshots_and_candidates() {
        let spec = r#"{
            "relations": [{"name": "R", "attributes": ["x", "y"]}],
            "constants": ["a", "b"],
            "dictionary": {"probability": [1, 2]},
            "defaults": {"depth": "probabilistic"},
            "secret": "S(x, y) :- R(x, y)",
            "steps": [
                {"publish": "V1(x) :- R(x, y)"},
                {"snapshot": "s1"},
                {"publish": "V2(y) :- R(x, y)"},
                {"restore": "s1"},
                {"candidate": "V2(y) :- R(x, y)"}
            ]
        }"#;
        let out = run_session_spec(spec).unwrap();
        let entries = out.as_array().unwrap();
        assert_eq!(entries.len(), 5);
        let second = &entries[2];
        assert_eq!(second.field("step").as_int(), Some(2));
        assert!(second.field("cache").is_null(), "no counters in reports");
        assert_eq!(entries[3].field("restored").as_str(), Some("s1"));
        assert_eq!(
            out,
            run_session_spec(spec).unwrap(),
            "replay is deterministic"
        );
        // The candidate after the restore re-audits the same prefix as the
        // committed step 2: identical cumulative reports.
        assert_eq!(
            serde_json::to_string(entries[4].field("report")).unwrap(),
            serde_json::to_string(second.field("report")).unwrap()
        );
    }

    #[test]
    fn bad_session_specs_are_rejected() {
        let two_actions = r#"{
            "relations": [{"name": "R", "attributes": ["x"]}],
            "secret": "S(x) :- R(x)",
            "steps": [{"publish": "V(x) :- R(x)", "candidate": "W(x) :- R(x)"}]
        }"#;
        assert!(matches!(
            run_session_spec(two_actions),
            Err(CliError::Spec(_))
        ));
        let unknown_restore = r#"{
            "relations": [{"name": "R", "attributes": ["x"]}],
            "secret": "S(x) :- R(x)",
            "steps": [{"restore": "nope"}]
        }"#;
        assert!(matches!(
            run_session_spec(unknown_restore),
            Err(CliError::Spec(_))
        ));
    }

    #[test]
    fn serve_specs_build_budgeted_registries() {
        let spec = parse_serve_spec(
            r#"{
            "relations": [{"name": "R", "attributes": ["x", "y"]}],
            "constants": ["a", "b"],
            "dictionary": {"probability": [1, 2], "samples": 256, "seed": 3},
            "defaults": {"depth": "probabilistic"},
            "cache_budget_bytes": 65536,
            "shards": 4
        }"#,
        )
        .unwrap();
        let registry = build_registry(&spec).unwrap();
        assert_eq!(registry.shard_count(), 4);
        let secret = registry.parse("S(x, y) :- R(x, y)").unwrap();
        let view = registry.parse("V(x) :- R(x, y)").unwrap();
        let report = registry.publish("t", Some(&secret), None, view).unwrap();
        assert_eq!(report.report.secure, Some(false));
        assert!(report.report.leakage.is_some(), "probabilistic depth ran");
        // Runtime constants outside the declared domain are rejected.
        assert!(registry.parse("W(x) :- R(x, 'z')").is_err());
    }

    #[test]
    fn serve_specs_with_a_store_block_rehydrate_across_builds() {
        // The key `backend` is no longer read: a `store` block is a log
        // store at its path, so this older spelling keeps working.
        let dir = std::env::temp_dir().join(format!("qvsec-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let text = format!(
            r#"{{
            "relations": [{{"name": "R", "attributes": ["x", "y"]}}],
            "constants": ["a", "b"],
            "store": {{"backend": "log", "path": {}}}
        }}"#,
            serde_json::to_string(&dir.display().to_string()).unwrap()
        );
        let spec = parse_serve_spec(&text).unwrap();
        let registry = build_registry(&spec).unwrap();
        let secret = registry.parse("S(x, y) :- R(x, y)").unwrap();
        let view = registry.parse("V(x) :- R(x, y)").unwrap();
        registry.publish("t", Some(&secret), None, view).unwrap();
        let before = serde_json::to_string(&registry.stats()).unwrap();
        drop(registry);

        // A second build over the same spec replays the journal.
        let reborn = build_registry(&spec).unwrap();
        assert_eq!(reborn.tenant_count(), 1);
        assert_eq!(serde_json::to_string(&reborn.stats()).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_specs_whose_store_block_names_only_a_path_rehydrate_across_builds() {
        let dir = std::env::temp_dir().join(format!("qvsec-cli-path-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let text = format!(
            r#"{{
            "relations": [{{"name": "R", "attributes": ["x", "y"]}}],
            "constants": ["a", "b"],
            "store": {{"path": {}}}
        }}"#,
            serde_json::to_string(&dir.display().to_string()).unwrap()
        );
        let spec = parse_serve_spec(&text).unwrap();
        let registry = build_registry(&spec).unwrap();
        let secret = registry.parse("S(x, y) :- R(x, y)").unwrap();
        let view = registry.parse("V(x) :- R(x, y)").unwrap();
        registry.publish("t", Some(&secret), None, view).unwrap();
        let before = serde_json::to_string(&registry.stats()).unwrap();
        assert!(before.contains(r#""store_backend":"log""#), "{before}");
        drop(registry);

        let reborn = build_registry(&spec).unwrap();
        assert_eq!(reborn.tenant_count(), 1);
        assert_eq!(serde_json::to_string(&reborn.stats()).unwrap(), before);
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, ["registry%2fjournal.log"]);
        let _ = std::fs::remove_dir_all(&dir);

        // A block without a path is refused.
        let pathless =
            parse_serve_spec(r#"{"relations": [{"name": "R", "attributes": ["x"]}], "store": {}}"#)
                .unwrap();
        let err = build_registry(&pathless).unwrap_err().to_string();
        assert!(err.contains("`path`"), "{err}");
    }

    #[test]
    fn served_leak_lists_are_capped_when_the_spec_sets_no_report_cap() {
        // 18 constants under a sparse dictionary: identity views have
        // hundreds of answers, and the uncapped leak lists made responses of
        // 196 KB at one view and 2.8 MB at two (98 MB at four).
        let constants: Vec<String> = (0..18).map(|i| format!(r#""c{i}""#)).collect();
        let text = format!(
            r#"{{
            "relations": [{{"name": "R", "attributes": ["x", "y"]}}],
            "constants": [{}],
            "dictionary": {{"probability": [1, 128], "samples": 512, "seed": 7}},
            "defaults": {{"depth": "probabilistic"}}
        }}"#,
            constants.join(", ")
        );
        let registry = build_registry(&parse_serve_spec(&text).unwrap()).unwrap();
        let secret = registry.parse("S(x, y) :- R(x, y)").unwrap();
        for name in ["V1", "V2"] {
            let view = registry.parse(&format!("{name}(x, y) :- R(x, y)")).unwrap();
            let step = registry.publish("t", Some(&secret), None, view).unwrap();
            let report = serde_json::to_value(&step.report).unwrap();
            let leaks = report
                .field("leakage")
                .field("positive_entries")
                .as_array()
                .unwrap()
                .len();
            assert!(
                leaks > 0 && leaks <= DEFAULT_SERVE_REPORT_CAP,
                "{name}: {leaks}"
            );
            // The independence verdict lists nothing.
            let independence = report.field("independence").as_object().unwrap();
            assert_eq!(independence.len(), 1, "{name}: {independence:?}");
            // The verdict still covers every pair.
            let pairs = report.field("leakage").field("pairs_checked").as_int();
            assert!(pairs > Some(100_000), "{name}: {pairs:?} pairs");
            assert_eq!(report.field("secure"), &serde_json::Value::Bool(false));
        }
    }

    #[test]
    fn a_secure_served_session_is_independent_and_never_totally_disclosed() {
        // Every step of this tenant is certified secure by the fast check.
        // The committed serve spec's 27 tuples put each audit on the
        // Monte-Carlo path at 512 samples, where a Definition 4.1 walk over
        // the sampled worlds finds 6 to 16 spurious violations and no two
        // sampled worlds refute determinacy at four views: both verdicts
        // must come from the critical tuples instead.
        let text = include_str!("../../../specs/serve_employee.json");
        let registry = build_registry(&parse_serve_spec(text).unwrap()).unwrap();
        let secret = registry.parse("S(p) :- Employee('ann', d, p)").unwrap();
        for text in [
            "V1(p) :- Employee('bea', d, p)",
            "V2(d) :- Employee('bea', d, p)",
            "V3(d, p) :- Employee('Mgmt', d, p)",
            "V4(n, d) :- Employee('bea', d, n)",
        ] {
            let view = registry.parse(text).unwrap();
            let step = registry
                .publish("probe", Some(&secret), None, view)
                .unwrap();
            let report = serde_json::to_value(&step.report).unwrap();
            let yes = serde_json::Value::Bool(true);
            assert_eq!(report.field("secure"), &yes, "{text}");
            assert_eq!(report.field("independence").field("independent"), &yes);
            let no = serde_json::Value::Bool(false);
            assert_eq!(report.field("totally_disclosed"), &no, "{text}");
        }
    }

    #[test]
    fn bad_specs_produce_spec_errors() {
        assert!(matches!(parse_spec("{"), Err(CliError::Spec(_))));
        let missing_view = r#"{
            "relations": [{"name": "R", "attributes": ["x"]}],
            "audits": [{"secret": "S(x) :- R(x)", "views": []}]
        }"#;
        let spec = parse_spec(missing_view).unwrap();
        assert!(matches!(prepare(&spec), Err(CliError::Spec(_))));
        let bad_depth = r#"{
            "relations": [{"name": "R", "attributes": ["x"]}],
            "defaults": {"depth": "warp"},
            "audits": [{"secret": "S(x) :- R(x)", "views": ["V(x) :- R(x)"]}]
        }"#;
        let spec = parse_spec(bad_depth).unwrap();
        assert!(matches!(prepare(&spec), Err(CliError::Spec(_))));
    }
}
