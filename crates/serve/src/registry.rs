//! The sharded, multi-tenant session registry.
//!
//! One [`SessionRegistry`] owns one shared [`AuditEngine`] and maps tenant
//! ids to live [`AuditSession`]s. The map is split into shards selected by
//! a deterministic hash of the tenant id; each shard is its own mutex, and
//! each tenant behind it is another — a shard lock is held only for the map
//! lookup (microseconds), the audit itself runs under the tenant's own
//! lock. Concurrent tenants therefore never serialize on each other, while
//! two racing requests for the *same* tenant are ordered by its lock (the
//! per-tenant report stream is a serial session history, exactly like the
//! single-node `AuditSession`).
//!
//! The registry also owns what the engine does not: per-tenant labelled
//! snapshots (the wire protocol's `snapshot`/`restore`), per-tenant request
//! accounting, and idle expiry ([`SessionRegistry::sweep_idle`]) —
//! an expired tenant's next request simply reopens its session against the
//! still-warm engine caches. Eviction of engine artifacts is equally
//! transparent: a restored session re-derives anything evicted (see
//! `tests/eviction_equivalence.rs` in the workspace root).

use crate::journal::{Journal, RegistryRecord, StoredTenant, TenantRecord};
use qvsec::engine::{AuditEngine, AuditOptions};
use qvsec::session::{AuditSession, SessionReport, SessionSnapshot};
use qvsec::QvsError;
use qvsec_cq::{canonical_form, ConjunctiveQuery};
use qvsec_data::{Domain, Schema};
use qvsec_store::StoreBackend;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Errors surfaced to serving clients.
#[derive(Debug)]
pub enum ServeError {
    /// A query failed to parse, a required field was missing, or the
    /// request line was not a request at all.
    Parse(String),
    /// A SQL statement fell outside the safe subset or failed to compile;
    /// carries the structured reason and source span so the wire layer can
    /// attach a machine-readable `detail` object.
    Sql(qvsec_sql::SqlError),
    /// A query mentioned constants the server's build-time domain never
    /// declared (kept distinct from [`ServeError::Parse`] so clients can
    /// tell a typo from a policy rejection).
    UndeclaredConstant(String),
    /// An operation needed an existing session but the tenant has none.
    UnknownTenant(String),
    /// `publish`/`candidate` on a new tenant without a `secret`.
    SecretRequired(String),
    /// A `secret` that disagrees with the tenant's registered secret.
    SecretMismatch(String),
    /// `restore` of a label never snapshotted.
    UnknownSnapshot(String),
    /// The underlying audit failed.
    Audit(QvsError),
    /// The durable store failed (journal write/load, demoted-tenant
    /// revival). The store holds the tenant journal only; compiled
    /// artifacts are never persisted.
    Store(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Parse(m) => write!(f, "parse error: {m}"),
            ServeError::Sql(e) => write!(f, "sql rejected: {e}"),
            ServeError::UndeclaredConstant(q) => write!(
                f,
                "query `{q}` uses constants outside the server's declared domain"
            ),
            ServeError::UnknownTenant(t) => {
                write!(
                    f,
                    "tenant `{t}` has no session (send a `secret` to open one)"
                )
            }
            ServeError::SecretRequired(t) => {
                write!(f, "tenant `{t}` is new: a `secret` query is required")
            }
            ServeError::SecretMismatch(t) => write!(
                f,
                "tenant `{t}` already audits a different secret (one secret per session)"
            ),
            ServeError::UnknownSnapshot(l) => write!(f, "no snapshot labelled `{l}`"),
            ServeError::Audit(e) => write!(f, "audit error: {e}"),
            ServeError::Store(m) => write!(f, "store error: {m}"),
        }
    }
}

impl ServeError {
    /// The wire-protocol error kind this error maps onto (the `kind` field
    /// of a structured error response — see [`crate::protocol::ErrorKind`]).
    pub fn kind(&self) -> crate::protocol::ErrorKind {
        use crate::protocol::ErrorKind;
        match self {
            ServeError::Parse(_) | ServeError::Sql(_) => ErrorKind::BadRequest,
            ServeError::UndeclaredConstant(_) => ErrorKind::UndeclaredConstant,
            // A missing session means the tenant was never opened *or* was
            // retired (idle-swept without a store); either way the client's
            // remedy is the same — re-open with the secret.
            ServeError::UnknownTenant(_) => ErrorKind::TenantRetired,
            ServeError::SecretRequired(_)
            | ServeError::SecretMismatch(_)
            | ServeError::UnknownSnapshot(_) => ErrorKind::BadRequest,
            ServeError::Audit(_) | ServeError::Store(_) => ErrorKind::Internal,
        }
    }
}

impl std::error::Error for ServeError {}

impl From<QvsError> for ServeError {
    fn from(e: QvsError) -> Self {
        ServeError::Audit(e)
    }
}

/// Registry configuration.
#[derive(Debug, Clone, Copy)]
pub struct RegistryConfig {
    /// Number of shards the tenant map is split into (rounded up to a power
    /// of two, minimum 1).
    pub shards: usize,
    /// Sessions idle longer than this are removed by
    /// [`SessionRegistry::sweep_idle`] (and opportunistically on request
    /// dispatch). `None` keeps sessions forever.
    pub idle_timeout: Option<Duration>,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            shards: 16,
            idle_timeout: None,
        }
    }
}

/// One tenant's live state: the session plus registry-side bookkeeping.
#[derive(Debug)]
struct Tenant {
    session: AuditSession,
    snapshots: HashMap<String, SessionSnapshot>,
    last_used: Instant,
    requests: u64,
    /// Set (under the tenant lock) when idle expiry demotes this tenant:
    /// its state has already moved to the journal and the entry left the
    /// shard map, so any request that raced past the map lookup must
    /// re-dispatch instead of mutating this zombie — a mutation here would
    /// be silently lost at the next revival.
    retired: bool,
}

type Shard = Mutex<HashMap<String, Arc<Mutex<Tenant>>>>;

/// An owned, `Send + Sync`, sharded registry of tenant sessions over one
/// shared engine. See the [module docs](self).
#[derive(Debug)]
pub struct SessionRegistry {
    engine: Arc<AuditEngine>,
    options: AuditOptions,
    shards: Box<[Shard]>,
    shard_mask: usize,
    idle_timeout: Option<Duration>,
    requests: AtomicU64,
    expired: AtomicU64,
    /// The durable lifecycle journal ([`SessionRegistry::with_store`]);
    /// `None` keeps today's purely in-memory behaviour.
    journal: Option<Journal>,
    /// Ids of tenants demoted to the store by idle expiry. Only the id
    /// stays resident; the state lives in the tenant's store record until
    /// its next request revives it.
    demoted: Mutex<HashSet<String>>,
}

// The registry is the shared state of the serving threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SessionRegistry>();
};

/// Deterministic FNV-1a over the tenant id (no per-process hash seeds, so a
/// request trace shards identically on every run).
fn shard_hash(tenant: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl SessionRegistry {
    /// A registry over `engine` with default configuration.
    pub fn new(engine: Arc<AuditEngine>) -> Self {
        Self::with_config(engine, RegistryConfig::default())
    }

    /// A registry over `engine`, sharded and expiring per `config`.
    pub fn with_config(engine: Arc<AuditEngine>, config: RegistryConfig) -> Self {
        let shards = config.shards.max(1).next_power_of_two();
        SessionRegistry {
            engine,
            options: AuditOptions::default(),
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_mask: shards - 1,
            idle_timeout: config.idle_timeout,
            requests: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            journal: None,
            demoted: Mutex::new(HashSet::new()),
        }
    }

    /// A durable registry: loads every tenant's state from `store`, then
    /// writes each further op's state to it.
    ///
    /// Loading restores, per tenant, the state after its last completed
    /// request — session prefix, labelled snapshots, request count — plus
    /// the registry-wide request and expiry totals, so a SIGKILLed process
    /// restarted over the same store answers the remainder of a request
    /// script byte-identically to a process that never died. It decodes the
    /// live records only, O(tenants + snapshots); a store written by an
    /// earlier release is migrated once (see [`crate::journal`]). Tenant
    /// state is all the store holds: the engine's compiled artifacts are
    /// pure functions of the queries, so the first requests after a restart
    /// recompute the ones they use.
    pub fn with_store(
        engine: Arc<AuditEngine>,
        config: RegistryConfig,
        store: Arc<dyn StoreBackend>,
    ) -> crate::Result<Self> {
        let (journal, loaded) = Journal::load(store)?;
        let mut registry = Self::with_config(engine, config);
        for stored in loaded.live {
            let id = stored.record.tenant.clone();
            let tenant = registry.tenant_from_store(stored);
            registry
                .shard_of(&id)
                .lock()
                .expect("shard poisoned")
                .insert(id, Arc::new(Mutex::new(tenant)));
        }
        registry
            .requests
            .store(loaded.totals.requests, Ordering::Relaxed);
        registry
            .expired
            .store(loaded.totals.expired, Ordering::Relaxed);
        registry.demoted = Mutex::new(loaded.demoted.into_iter().collect());
        registry.journal = Some(journal);
        Ok(registry)
    }

    /// Rebuilds one tenant from its store record: a fresh session restored
    /// to the recorded state.
    fn tenant_from_store(&self, stored: StoredTenant) -> Tenant {
        let StoredTenant { record, snapshots } = stored;
        let mut session = AuditSession::new(
            Arc::clone(&self.engine),
            record.secret,
            self.options.clone(),
        )
        .named(format!("tenant:{}", record.tenant));
        session.restore(&record.state);
        Tenant {
            session,
            snapshots,
            last_used: Instant::now(),
            requests: record.requests,
            retired: false,
        }
    }

    /// The shared engine every tenant audits against.
    pub fn engine(&self) -> &Arc<AuditEngine> {
        &self.engine
    }

    /// Number of shards the tenant map is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configured idle timeout, if any (the server runs a background
    /// sweeper off this; in-dispatch sweeps only cover the shard a request
    /// hashes to).
    pub fn idle_timeout(&self) -> Option<Duration> {
        self.idle_timeout
    }

    /// Number of live tenant sessions.
    pub fn tenant_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").len())
            .sum()
    }

    /// Runs `compile` against a copy of the engine's domain and refuses the
    /// result, as [`ServeError::UndeclaredConstant`] naming `text`, when the
    /// copy grew — the closed-domain policy of [`SessionRegistry::parse`].
    /// Every query a request carries goes through here.
    pub(crate) fn compile_closed<T>(
        &self,
        text: &str,
        compile: impl FnOnce(&Schema, &mut Domain) -> crate::Result<T>,
    ) -> crate::Result<T> {
        let mut domain = self.engine.domain().clone();
        let before = domain.len();
        let compiled = compile(self.engine.schema(), &mut domain)?;
        if domain.len() != before {
            return Err(ServeError::UndeclaredConstant(text.to_string()));
        }
        Ok(compiled)
    }

    /// Parses a runtime query against the engine's schema and domain,
    /// rejecting queries that mention constants the server never declared
    /// (the engine's domain is fixed at build time; silently growing a
    /// private copy would make verdicts depend on request order).
    pub fn parse(&self, text: &str) -> crate::Result<ConjunctiveQuery> {
        self.compile_closed(text, |schema, domain| {
            qvsec_cq::parse_query(text, schema, domain)
                .map_err(|e| ServeError::Parse(format!("bad query `{text}`: {e}")))
        })
    }

    /// Compiles a safe-SQL statement against the engine's schema, applying
    /// the same closed-domain policy as [`SessionRegistry::parse`]: a
    /// statement whose constants were never declared is rejected rather
    /// than silently growing a private domain copy. `IN`-lists expand to
    /// one query per choice.
    pub fn parse_sql(&self, text: &str, name: &str) -> crate::Result<Vec<ConjunctiveQuery>> {
        self.compile_closed(text, |schema, domain| {
            qvsec_sql::compile_query(text, schema, domain, name).map_err(ServeError::Sql)
        })
    }

    /// Like [`SessionRegistry::parse_sql`] but for contexts needing exactly
    /// one conjunctive query (secrets, `publish`, `candidate`): a statement
    /// that expands through `IN`-lists is rejected with a structured
    /// `multiple_queries` reason.
    pub fn parse_sql_single(&self, text: &str, name: &str) -> crate::Result<ConjunctiveQuery> {
        self.compile_closed(text, |schema, domain| {
            qvsec_sql::compile_query_single(text, schema, domain, name).map_err(ServeError::Sql)
        })
    }

    fn shard_of(&self, tenant: &str) -> &Shard {
        &self.shards[(shard_hash(tenant) as usize) & self.shard_mask]
    }

    /// Fetches the tenant's entry, opening a session when `secret` is given
    /// and none exists. Sweeps the shard's idle entries on the way when an
    /// idle timeout is configured — including the requesting tenant itself:
    /// a session idle past the timeout is expired and the request reopens a
    /// fresh one (secret required), exactly as the protocol documents.
    fn tenant_entry(
        &self,
        tenant: &str,
        secret: Option<&ConjunctiveQuery>,
    ) -> crate::Result<Arc<Mutex<Tenant>>> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard_of(tenant);
        let mut map = shard.lock().expect("shard poisoned");
        if let Some(max_idle) = self.idle_timeout {
            self.sweep_shard(&mut map, Instant::now(), max_idle);
        }
        if let Some(entry) = map.get(tenant) {
            if let Some(secret) = secret {
                let entry = Arc::clone(entry);
                drop(map);
                let t = entry.lock().expect("tenant poisoned");
                if canonical_form(t.session.secret()) != canonical_form(secret) {
                    return Err(ServeError::SecretMismatch(tenant.to_string()));
                }
                drop(t);
                return Ok(entry);
            }
            return Ok(Arc::clone(entry));
        }
        // A demoted tenant revives transparently from its store record —
        // no secret required, exactly like a live session.
        let demoted = self
            .demoted
            .lock()
            .expect("demoted index poisoned")
            .remove(tenant);
        if demoted {
            match self.revive_demoted(tenant, secret) {
                Ok(t) => {
                    let entry = Arc::new(Mutex::new(t));
                    map.insert(tenant.to_string(), Arc::clone(&entry));
                    return Ok(entry);
                }
                Err(e) => {
                    self.demoted
                        .lock()
                        .expect("demoted index poisoned")
                        .insert(tenant.to_string());
                    return Err(e);
                }
            }
        }
        let Some(secret) = secret else {
            return Err(ServeError::UnknownTenant(tenant.to_string()));
        };
        let session = AuditSession::new(
            Arc::clone(&self.engine),
            secret.clone(),
            self.options.clone(),
        )
        .named(format!("tenant:{tenant}"));
        let entry = Arc::new(Mutex::new(Tenant {
            session,
            snapshots: HashMap::new(),
            last_used: Instant::now(),
            requests: 0,
            retired: false,
        }));
        map.insert(tenant.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Reads the demoted tenant's record and snapshots back from the store
    /// and rebuilds the live tenant from them.
    fn revive_demoted(
        &self,
        tenant: &str,
        secret: Option<&ConjunctiveQuery>,
    ) -> crate::Result<Tenant> {
        let journal = self
            .journal
            .as_ref()
            .ok_or_else(|| ServeError::Store("demoted tenant without a journal".to_string()))?;
        let stored = journal.stored(tenant)?;
        if let Some(secret) = secret {
            if canonical_form(&stored.record.secret) != canonical_form(secret) {
                return Err(ServeError::SecretMismatch(tenant.to_string()));
            }
        }
        Ok(self.tenant_from_store(stored))
    }

    /// Writes `tenant`'s state after a completed operation (and the
    /// snapshot a `snapshot` op captured under `snapshot_label`) to the
    /// journal. A no-op without one; with one, failures surface to the
    /// caller.
    fn journal_op(
        &self,
        tenant: &str,
        t: &Tenant,
        snapshot_label: Option<&str>,
        demoted: bool,
    ) -> crate::Result<()> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let mut labels: Vec<String> = t.snapshots.keys().cloned().collect();
        labels.sort();
        let record = TenantRecord {
            tenant: tenant.to_string(),
            secret: t.session.secret().clone(),
            state: t.session.snapshot(),
            requests: t.requests,
            snapshots: labels,
            demoted,
            usage: Default::default(),
        };
        let snapshot = snapshot_label.and_then(|l| t.snapshots.get(l).map(|s| (l, s)));
        let totals = RegistryRecord {
            requests: self.requests.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
        };
        journal.write(record, snapshot, totals)
    }

    fn with_tenant<R>(
        &self,
        tenant: &str,
        secret: Option<&ConjunctiveQuery>,
        f: impl FnOnce(&mut Tenant) -> crate::Result<(R, Option<String>)>,
    ) -> crate::Result<R> {
        let mut f = Some(f);
        loop {
            let entry = self.tenant_entry(tenant, secret)?;
            let mut t = entry.lock().expect("tenant poisoned");
            if t.retired {
                // An idle sweep demoted this tenant between the shard-map
                // lookup and the tenant lock. Its state already lives in
                // the journal and the entry left the map, so re-dispatch:
                // the next lookup revives the demoted state (or reopens),
                // and the operation lands on live state instead of being
                // silently dropped at the next revival.
                continue;
            }
            let (out, snapshot_label) =
                (f.take().expect("operation retried after success"))(&mut t)?;
            t.last_used = Instant::now();
            t.requests += 1;
            self.journal_op(tenant, &t, snapshot_label.as_deref(), false)?;
            return Ok(out);
        }
    }

    /// Opens (or re-validates) `tenant`'s session for `secret` without
    /// auditing anything.
    pub fn open(&self, tenant: &str, secret: &ConjunctiveQuery) -> crate::Result<usize> {
        self.with_tenant(tenant, Some(secret), |t| {
            Ok((t.session.views_published(), None))
        })
    }

    /// Publishes `view` for `tenant`: audits the secret against everything
    /// the tenant already published plus `view`, commits it, and returns
    /// the step report. A `secret` opens the session on first contact.
    pub fn publish(
        &self,
        tenant: &str,
        secret: Option<&ConjunctiveQuery>,
        name: Option<String>,
        view: ConjunctiveQuery,
    ) -> crate::Result<SessionReport> {
        self.with_tenant(tenant, secret, |t| {
            let name = name.unwrap_or_else(|| view.name.clone());
            Ok((t.session.publish_named(name, view)?, None))
        })
    }

    /// The what-if audit: [`SessionRegistry::publish`] without committing.
    pub fn audit_candidate(
        &self,
        tenant: &str,
        secret: Option<&ConjunctiveQuery>,
        view: &ConjunctiveQuery,
    ) -> crate::Result<SessionReport> {
        self.with_tenant(tenant, secret, |t| {
            Ok((t.session.audit_candidate(view)?, None))
        })
    }

    /// Saves `tenant`'s session state under `label`; returns the number of
    /// views in the captured state.
    pub fn snapshot(&self, tenant: &str, label: &str) -> crate::Result<usize> {
        self.with_tenant(tenant, None, |t| {
            let snap = t.session.snapshot();
            let views = snap.views_published();
            t.snapshots.insert(label.to_string(), snap);
            Ok((views, Some(label.to_string())))
        })
    }

    /// Rewinds `tenant`'s session to the labelled snapshot; returns the
    /// restored view count. Engine artifacts evicted since the snapshot are
    /// re-derived transparently on the next audit.
    pub fn restore(&self, tenant: &str, label: &str) -> crate::Result<usize> {
        self.with_tenant(tenant, None, |t| {
            let snap = t
                .snapshots
                .get(label)
                .ok_or_else(|| ServeError::UnknownSnapshot(label.to_string()))?
                .clone();
            t.session.restore(&snap);
            Ok((t.session.views_published(), None))
        })
    }

    /// Demotes one expiring tenant to the store: rewrites its record with
    /// `demoted: true` (its snapshots already sit under their own keys) and
    /// keeps only its id resident. Write failures are swallowed — the
    /// tenant then reloads as live from its last record, which is still
    /// correct, just not demoted.
    fn demote_expired(&self, tenant: &str, t: &Tenant) {
        if self.journal.is_some() && self.journal_op(tenant, t, None, true).is_ok() {
            self.demoted
                .lock()
                .expect("demoted index poisoned")
                .insert(tenant.to_string());
        }
    }

    /// Expires idle entries of one shard map (demoting them when a store
    /// is configured). A tenant mid-request (its lock held) is spared.
    fn sweep_shard(
        &self,
        map: &mut HashMap<String, Arc<Mutex<Tenant>>>,
        now: Instant,
        max_idle: Duration,
    ) -> usize {
        let mut expired_ids = Vec::new();
        for (id, entry) in map.iter() {
            if let Ok(mut t) = entry.try_lock() {
                if now.duration_since(t.last_used) > max_idle {
                    // Counted before journaling, so the demoted record's
                    // registry totals include this very expiry.
                    self.expired.fetch_add(1, Ordering::Relaxed);
                    self.demote_expired(id, &t);
                    // Marked under the tenant lock: a request that cloned
                    // this entry out of the map before we removed it sees
                    // the flag when it finally locks, and re-dispatches.
                    t.retired = true;
                    expired_ids.push(id.clone());
                }
            }
        }
        for id in &expired_ids {
            map.remove(id);
        }
        expired_ids.len()
    }

    /// Removes sessions idle longer than `max_idle`; returns how many were
    /// expired. A tenant mid-request (its lock held) is never expired.
    /// With a store configured the expired tenants are demoted — their
    /// state moves to the journal and their next request revives them —
    /// instead of discarded.
    pub fn sweep_idle(&self, max_idle: Duration) -> usize {
        let now = Instant::now();
        let mut removed = 0;
        for shard in self.shards.iter() {
            let mut map = shard.lock().expect("shard poisoned");
            removed += self.sweep_shard(&mut map, now, max_idle);
        }
        removed
    }

    /// Flushes the durable store behind the journal to disk. Returns the
    /// backend name, or `None` when the registry has no store.
    pub fn flush_store(&self) -> crate::Result<Option<&'static str>> {
        let Some(journal) = &self.journal else {
            return Ok(None);
        };
        journal
            .store()
            .flush()
            .map_err(|e| ServeError::Store(format!("flush: {e}")))?;
        Ok(Some(journal.store().backend_name()))
    }

    /// A deterministic snapshot of the registry: per-tenant accounting
    /// (sorted by tenant id) and registry-wide totals. Engine cache
    /// counters are not part of it: read them from
    /// [`AuditEngine::cache_stats`] (the metrics plane).
    /// With a store configured, each tenant also reports its journal
    /// footprint, and demoted tenants — state in the store, nothing
    /// resident — appear alongside live ones with `demoted: true`.
    pub fn stats(&self) -> RegistryStats {
        let usage = |id: &str| {
            self.journal
                .as_ref()
                .map(|j| j.usage_of(id))
                .unwrap_or_default()
        };
        let mut tenants = Vec::new();
        for shard in self.shards.iter() {
            let map = shard.lock().expect("shard poisoned");
            for (id, entry) in map.iter() {
                let t = entry.lock().expect("tenant poisoned");
                let u = usage(id);
                tenants.push(TenantStats {
                    tenant: id.clone(),
                    views_published: t.session.views_published(),
                    snapshots_held: t.snapshots.len(),
                    requests: t.requests,
                    store_records: u.records,
                    store_bytes: u.bytes,
                    demoted: false,
                });
            }
        }
        // Demoted tenants report from their store record; a record that
        // fails to fetch is skipped (it will fail the same way — loudly —
        // when the tenant's next request tries to revive it).
        let demoted: Vec<String> = self
            .demoted
            .lock()
            .expect("demoted index poisoned")
            .iter()
            .cloned()
            .collect();
        for id in demoted {
            let Some(journal) = &self.journal else { break };
            let Ok(record) = journal.record(&id) else {
                continue;
            };
            let u = usage(&id);
            tenants.push(TenantStats {
                tenant: id,
                views_published: record.state.views_published(),
                snapshots_held: record.snapshots.len(),
                requests: record.requests,
                store_records: u.records,
                store_bytes: u.bytes,
                demoted: true,
            });
        }
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let journal_totals = self
            .journal
            .as_ref()
            .map(|j| j.totals())
            .unwrap_or_default();
        RegistryStats {
            tenants,
            shard_count: self.shards.len(),
            requests_served: self.requests.load(Ordering::Relaxed),
            sessions_expired: self.expired.load(Ordering::Relaxed),
            store_backend: self
                .journal
                .as_ref()
                .map(|j| j.store().backend_name().to_string()),
            journal_records: journal_totals.records,
            journal_bytes: journal_totals.bytes,
        }
    }
}

/// Per-tenant accounting surfaced by [`SessionRegistry::stats`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantStats {
    /// The tenant id.
    pub tenant: String,
    /// Views the tenant has committed.
    pub views_published: usize,
    /// Labelled snapshots the tenant holds.
    pub snapshots_held: usize,
    /// Requests the tenant has issued (audits, snapshots, restores).
    pub requests: u64,
    /// Journal records this tenant has accrued in the durable store.
    #[serde(default)]
    pub store_records: u64,
    /// Serialized bytes of those journal records.
    #[serde(default)]
    pub store_bytes: u64,
    /// `true` when the tenant's state lives only in the store (demoted by
    /// idle expiry); its next request revives it transparently.
    #[serde(default)]
    pub demoted: bool,
}

/// A registry-wide accounting snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegistryStats {
    /// Per-tenant accounting, sorted by tenant id.
    pub tenants: Vec<TenantStats>,
    /// Number of shards the tenant map is split into.
    pub shard_count: usize,
    /// Requests dispatched over the registry's lifetime.
    pub requests_served: u64,
    /// Sessions removed by idle expiry.
    pub sessions_expired: u64,
    /// The durable store's backend name, when one is configured.
    #[serde(default)]
    pub store_backend: Option<String>,
    /// Lifecycle records journaled across all tenants.
    #[serde(default)]
    pub journal_records: u64,
    /// Serialized bytes of the journaled records.
    #[serde(default)]
    pub journal_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{decode_event, NS_JOURNAL};
    use qvsec_data::{Domain, Schema};

    fn engine() -> Arc<AuditEngine> {
        let mut schema = Schema::new();
        schema.add_relation("Employee", &["name", "department", "phone"]);
        let mut domain = Domain::new();
        // Declare the constants runtime queries may use.
        domain.add("Mgmt");
        Arc::new(AuditEngine::builder(schema, domain).build())
    }

    fn registry() -> SessionRegistry {
        SessionRegistry::new(engine())
    }

    #[test]
    fn publish_routes_through_per_tenant_sessions() {
        let reg = registry();
        let secret = reg.parse("S(n, p) :- Employee(n, d, p)").unwrap();
        let bob = reg.parse("VBob(n, d) :- Employee(n, d, p)").unwrap();
        let carol = reg.parse("VCarol(d, p) :- Employee(n, d, p)").unwrap();

        let r1 = reg
            .publish("alice", Some(&secret), Some("bob".into()), bob.clone())
            .unwrap();
        assert_eq!(r1.step, 1);
        assert_eq!(r1.report.secure, Some(false));
        // A second tenant opens its own session; the engine's caches are
        // already warm from the first.
        let before = reg.engine().cache_stats();
        let r2 = reg
            .publish("zoe", Some(&secret), Some("bob".into()), bob)
            .unwrap();
        assert_eq!(r2.step, 1);
        let cache = reg.engine().cache_stats().delta_since(&before);
        assert!(cache.crit_cache_hits > 0, "shared artifacts: {cache:?}");
        // Established tenants need no secret.
        let r3 = reg.publish("alice", None, None, carol).unwrap();
        assert_eq!(r3.step, 2);
        assert_eq!(reg.tenant_count(), 2);

        let stats = reg.stats();
        assert_eq!(stats.tenants.len(), 2);
        assert_eq!(stats.tenants[0].tenant, "alice");
        assert_eq!(stats.tenants[0].views_published, 2);
        assert_eq!(stats.tenants[0].requests, 2);
        assert_eq!(stats.requests_served, 3);
    }

    #[test]
    fn unknown_tenants_and_mismatched_secrets_are_rejected() {
        let reg = registry();
        let secret = reg.parse("S(n, p) :- Employee(n, d, p)").unwrap();
        let other = reg.parse("S2(d) :- Employee(n, d, p)").unwrap();
        let view = reg.parse("V(n, d) :- Employee(n, d, p)").unwrap();

        assert!(matches!(
            reg.audit_candidate("ghost", None, &view),
            Err(ServeError::UnknownTenant(_))
        ));
        reg.open("alice", &secret).unwrap();
        assert!(matches!(
            reg.publish("alice", Some(&other), None, view.clone()),
            Err(ServeError::SecretMismatch(_))
        ));
        // Re-presenting the same secret (α-renamed) is fine.
        let renamed = reg.parse("S(a, b) :- Employee(a, c, b)").unwrap();
        assert!(reg.publish("alice", Some(&renamed), None, view).is_ok());
    }

    #[test]
    fn undeclared_constants_are_rejected_at_parse() {
        let reg = registry();
        assert!(reg.parse("V(n) :- Employee(n, 'Mgmt', p)").is_ok());
        let err = reg
            .parse("V(n) :- Employee(n, 'Skunkworks', p)")
            .unwrap_err();
        assert!(matches!(err, ServeError::UndeclaredConstant(_)));
        assert_eq!(err.kind(), crate::protocol::ErrorKind::UndeclaredConstant);
        assert!(err.to_string().contains("declared domain"));
    }

    #[test]
    fn snapshot_restore_round_trips_through_the_registry() {
        let reg = registry();
        let secret = reg.parse("S(n, p) :- Employee(n, d, p)").unwrap();
        let v1 = reg.parse("V1(n, d) :- Employee(n, d, p)").unwrap();
        let v2 = reg.parse("V2(d, p) :- Employee(n, d, p)").unwrap();
        reg.publish("t", Some(&secret), None, v1).unwrap();
        assert_eq!(reg.snapshot("t", "base").unwrap(), 1);
        reg.publish("t", None, None, v2.clone()).unwrap();
        assert_eq!(reg.restore("t", "base").unwrap(), 1);
        assert!(matches!(
            reg.restore("t", "nope"),
            Err(ServeError::UnknownSnapshot(_))
        ));
        // Replaying after the restore reaches the same cumulative verdict.
        let before = reg.engine().cache_stats();
        let replay = reg.publish("t", None, None, v2).unwrap();
        assert_eq!(replay.step, 2);
        assert!(
            reg.engine().cache_stats().delta_since(&before).any_reuse(),
            "replay is served warm"
        );
    }

    #[test]
    fn idle_sessions_expire_and_reopen_transparently() {
        let reg = registry();
        let secret = reg.parse("S(n, p) :- Employee(n, d, p)").unwrap();
        let view = reg.parse("V(n, d) :- Employee(n, d, p)").unwrap();
        let first = reg.publish("t", Some(&secret), None, view.clone()).unwrap();
        assert_eq!(reg.tenant_count(), 1);
        assert_eq!(reg.sweep_idle(Duration::ZERO), 1);
        assert_eq!(reg.tenant_count(), 0);
        assert_eq!(reg.stats().sessions_expired, 1);
        // The tenant's next request reopens at step 1, warm.
        let before = reg.engine().cache_stats();
        let again = reg.publish("t", Some(&secret), None, view).unwrap();
        assert_eq!(again.step, 1);
        assert_eq!(
            serde_json::to_string(&again.report).unwrap(),
            serde_json::to_string(&first.report).unwrap(),
            "reopened session reproduces the same verdict"
        );
        assert!(
            reg.engine().cache_stats().delta_since(&before).any_reuse(),
            "engine caches survived expiry"
        );
    }

    #[test]
    fn a_stale_requesting_tenant_is_itself_expired() {
        // The in-dispatch sweep must not spare the requester: a session
        // idle past the timeout is gone, and the next request either
        // reopens fresh (secret present) or is told to.
        let mut schema = Schema::new();
        schema.add_relation("Employee", &["name", "department", "phone"]);
        let engine = Arc::new(AuditEngine::builder(schema, Domain::new()).build());
        let reg = SessionRegistry::with_config(
            engine,
            RegistryConfig {
                shards: 4,
                idle_timeout: Some(Duration::ZERO),
            },
        );
        let secret = reg.parse("S(n, p) :- Employee(n, d, p)").unwrap();
        let v1 = reg.parse("V1(n, d) :- Employee(n, d, p)").unwrap();
        let v2 = reg.parse("V2(d, p) :- Employee(n, d, p)").unwrap();
        let first = reg.publish("t", Some(&secret), None, v1).unwrap();
        assert_eq!(first.step, 1);
        // Without a secret the expired tenant is reported as unknown ...
        assert!(matches!(
            reg.publish("t", None, None, v2.clone()),
            Err(ServeError::UnknownTenant(_))
        ));
        // ... and with one, the session reopens at step 1, not step 2.
        let reopened = reg.publish("t", Some(&secret), None, v2).unwrap();
        assert_eq!(reopened.step, 1, "stale session must not survive");
        assert!(reg.stats().sessions_expired >= 1);
    }

    fn durable_registry(store: &Arc<dyn StoreBackend>) -> SessionRegistry {
        SessionRegistry::with_store(engine(), RegistryConfig::default(), Arc::clone(store)).unwrap()
    }

    #[test]
    fn a_registry_rehydrated_from_its_store_reports_identical_stats() {
        let store: Arc<dyn StoreBackend> = Arc::new(qvsec_store::MemStore::new());
        let reg = durable_registry(&store);
        let secret = reg.parse("S(n, p) :- Employee(n, d, p)").unwrap();
        let v1 = reg.parse("V1(n, d) :- Employee(n, d, p)").unwrap();
        let v2 = reg.parse("V2(d, p) :- Employee(n, d, p)").unwrap();
        reg.publish("alice", Some(&secret), None, v1.clone())
            .unwrap();
        reg.snapshot("alice", "base").unwrap();
        reg.publish("alice", None, None, v2.clone()).unwrap();
        reg.publish("zoe", Some(&secret), None, v1).unwrap();
        let before = serde_json::to_string(&reg.stats()).unwrap();
        drop(reg);

        // A new process over the same store: replay, not re-audit.
        let reg2 = durable_registry(&store);
        assert_eq!(reg2.tenant_count(), 2);
        let after = serde_json::to_string(&reg2.stats()).unwrap();
        assert_eq!(after, before, "restart must be invisible in stats");
        // The rewind path survives too: the labelled snapshot replayed.
        assert_eq!(reg2.restore("alice", "base").unwrap(), 1);
        let replay = reg2.publish("alice", None, None, v2).unwrap();
        assert_eq!(replay.step, 2);
    }

    #[test]
    fn a_restarted_registry_continues_a_script_like_an_uninterrupted_one() {
        // Same script, two executions: one straight through, one SIGKILL-
        // shaped (drop the registry mid-script, rehydrate from the store).
        // The post-restart responses must serialize identically.
        let script = |reg: &SessionRegistry| {
            let secret = reg.parse("S(n, p) :- Employee(n, d, p)").unwrap();
            let v1 = reg.parse("V1(n, d) :- Employee(n, d, p)").unwrap();
            (secret, v1)
        };
        let continuous_store: Arc<dyn StoreBackend> = Arc::new(qvsec_store::MemStore::new());
        let continuous = durable_registry(&continuous_store);
        let (secret, v1) = script(&continuous);
        let v2 = continuous.parse("V2(d, p) :- Employee(n, d, p)").unwrap();
        continuous
            .publish("t", Some(&secret), None, v1.clone())
            .unwrap();
        let want = continuous.publish("t", None, None, v2.clone()).unwrap();

        let store: Arc<dyn StoreBackend> = Arc::new(qvsec_store::MemStore::new());
        let reg = durable_registry(&store);
        let (secret, v1) = script(&reg);
        reg.publish("t", Some(&secret), None, v1).unwrap();
        drop(reg); // the "kill" between requests
        let reg2 = durable_registry(&store);
        let got = reg2.publish("t", None, None, v2).unwrap();
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&want).unwrap(),
            "post-restart response must be byte-identical"
        );
    }

    #[test]
    fn expired_tenants_demote_to_the_store_and_revive_transparently() {
        let store: Arc<dyn StoreBackend> = Arc::new(qvsec_store::MemStore::new());
        let reg = durable_registry(&store);
        let secret = reg.parse("S(n, p) :- Employee(n, d, p)").unwrap();
        let v1 = reg.parse("V1(n, d) :- Employee(n, d, p)").unwrap();
        let v2 = reg.parse("V2(d, p) :- Employee(n, d, p)").unwrap();
        reg.publish("alice", Some(&secret), None, v1).unwrap();
        reg.snapshot("alice", "base").unwrap();
        assert_eq!(reg.sweep_idle(Duration::ZERO), 1);
        assert_eq!(reg.tenant_count(), 0, "nothing stays resident");

        // Demoted tenants still appear in stats, served from the store.
        let stats = reg.stats();
        assert_eq!(stats.store_backend.as_deref(), Some("mem"));
        let alice = &stats.tenants[0];
        assert!(alice.demoted);
        assert_eq!(alice.views_published, 1);
        assert_eq!(alice.snapshots_held, 1);
        assert!(alice.store_records >= 3, "open+snapshot+expire journaled");

        // Restart: the demoted index itself rehydrates ...
        drop(reg);
        let reg2 = durable_registry(&store);
        assert_eq!(reg2.tenant_count(), 0);
        assert!(reg2.stats().tenants[0].demoted);
        // ... and the next request revives, no secret needed, snapshots
        // intact.
        let r = reg2.publish("alice", None, None, v2).unwrap();
        assert_eq!(r.step, 2);
        assert!(!reg2.stats().tenants[0].demoted);
        assert_eq!(reg2.restore("alice", "base").unwrap(), 1);
    }

    /// Two journal records exactly as the previous release wrote them: an
    /// `expire` carrying the tenant's labelled snapshots, then a `publish`.
    /// Both still carry the engine's cache counters, per event and inside
    /// every session snapshot.
    const PARENT_FORMAT_JOURNAL: [&str; 2] = [
        // expire (bob, with its labelled snapshot)
        concat!(
            r#"{"op":"expire","tenant":"bob","secret":{"name":"S","head":[{"Var":0},{"Var":1}],"#,
            r#""atoms":[{"relation":0,"terms":[{"Var":0},{"Var":2},{"Var":1}]}],"comparisons":[],"#,
            r#""var_names":["n","p","d"]},"state":{"published":[{"name":"V1","query":{"name":"V1","#,
            r#""head":[{"Var":0},{"Var":1}],"atoms":[{"relation":0,"terms":[{"Var":0},{"Var":1},"#,
            r#"{"Var":2}]}],"comparisons":[],"var_names":["n","d","p"]}}],"steps_taken":1,"#,
            r#""prev_secure":false,"prev_max_leak":null,"cumulative_cache":{"crit_cache_hits":0,"#,
            r#""crit_cache_misses":2,"space_cache_hits":0,"space_cache_misses":2,"#,
            r#""class_verdicts_reused":0,"compile_cache_hits":0,"queries_compiled":0,"#,
            r#""mc_samples_drawn":0,"mc_samples_reused":0,"pool_columns_built":0,"#,
            r#""pool_column_hits":0,"kernel_audit_hits":0,"evictions":0,"evicted_bytes":0,"#,
            r#""resident_bytes":11112}},"snapshot_label":null,"#,
            r#""snapshots":{"base":{"published":[{"name":"V1","query":{"name":"V1","#,
            r#""head":[{"Var":0},{"Var":1}],"atoms":[{"relation":0,"terms":[{"Var":0},{"Var":1},"#,
            r#"{"Var":2}]}],"comparisons":[],"var_names":["n","d","p"]}}],"steps_taken":1,"#,
            r#""prev_secure":false,"prev_max_leak":null,"cumulative_cache":{"crit_cache_hits":0,"#,
            r#""crit_cache_misses":2,"space_cache_hits":0,"space_cache_misses":2,"#,
            r#""class_verdicts_reused":0,"compile_cache_hits":0,"queries_compiled":0,"#,
            r#""mc_samples_drawn":0,"mc_samples_reused":0,"pool_columns_built":0,"#,
            r#""pool_column_hits":0,"kernel_audit_hits":0,"evictions":0,"evicted_bytes":0,"#,
            r#""resident_bytes":11112}}},"tenant_requests":2,"registry_requests":2,"#,
            r#""registry_expired":1,"engine_cache":{"crit_cache_hits":0,"crit_cache_misses":2,"#,
            r#""space_cache_hits":0,"space_cache_misses":2,"class_verdicts_reused":0,"#,
            r#""compile_cache_hits":0,"queries_compiled":0,"mc_samples_drawn":0,"#,
            r#""mc_samples_reused":0,"pool_columns_built":0,"pool_column_hits":0,"#,
            r#""kernel_audit_hits":0,"evictions":0,"evicted_bytes":0,"resident_bytes":11112}}"#,
        ),
        // publish (alice)
        concat!(
            r#"{"op":"publish","tenant":"alice","secret":{"name":"S","head":[{"Var":0},{"Var":1}],"#,
            r#""atoms":[{"relation":0,"terms":[{"Var":0},{"Var":2},{"Var":1}]}],"comparisons":[],"#,
            r#""var_names":["n","p","d"]},"state":{"published":[{"name":"V1","query":{"name":"V1","#,
            r#""head":[{"Var":0},{"Var":1}],"atoms":[{"relation":0,"terms":[{"Var":0},{"Var":1},"#,
            r#"{"Var":2}]}],"comparisons":[],"var_names":["n","d","p"]}}],"steps_taken":1,"#,
            r#""prev_secure":false,"prev_max_leak":null,"cumulative_cache":{"crit_cache_hits":2,"#,
            r#""crit_cache_misses":0,"space_cache_hits":2,"space_cache_misses":0,"#,
            r#""class_verdicts_reused":0,"compile_cache_hits":0,"queries_compiled":0,"#,
            r#""mc_samples_drawn":0,"mc_samples_reused":0,"pool_columns_built":0,"#,
            r#""pool_column_hits":0,"kernel_audit_hits":0,"evictions":0,"evicted_bytes":0,"#,
            r#""resident_bytes":0}},"snapshot_label":null,"snapshots":null,"tenant_requests":1,"#,
            r#""registry_requests":3,"registry_expired":1,"engine_cache":{"crit_cache_hits":2,"#,
            r#""crit_cache_misses":2,"space_cache_hits":2,"space_cache_misses":2,"#,
            r#""class_verdicts_reused":0,"compile_cache_hits":0,"queries_compiled":0,"#,
            r#""mc_samples_drawn":0,"mc_samples_reused":0,"pool_columns_built":0,"#,
            r#""pool_column_hits":0,"kernel_audit_hits":0,"evictions":0,"evicted_bytes":0,"#,
            r#""resident_bytes":11112}}"#,
        ),
    ];

    fn seeded_store(records: &[String]) -> Arc<dyn StoreBackend> {
        let store: Arc<dyn StoreBackend> = Arc::new(qvsec_store::MemStore::new());
        let ops = records
            .iter()
            .enumerate()
            .map(|(seq, r)| qvsec_store::StoreOp::put(format!("{seq:016x}"), r.as_bytes().to_vec()))
            .collect();
        store.append_batch(NS_JOURNAL, ops).unwrap();
        store
    }

    #[test]
    fn journals_in_the_previous_format_still_replay() {
        use crate::protocol::handle_request;
        use serde_json::Value;

        let old: Vec<String> = PARENT_FORMAT_JOURNAL
            .iter()
            .map(|r| r.to_string())
            .collect();
        // The same events in today's format: decoded, then re-encoded.
        let new: Vec<String> = old
            .iter()
            .map(|r| serde_json::to_string(&decode_event("old", r.as_bytes()).unwrap()).unwrap())
            .collect();
        for (o, n) in old.iter().zip(&new) {
            assert!(n.len() < o.len(), "today's records carry no counters");
        }
        let old_reg = durable_registry(&seeded_store(&old));
        let new_reg = durable_registry(&seeded_store(&new));
        for reg in [&old_reg, &new_reg] {
            let stats = reg.stats();
            assert_eq!(stats.requests_served, 3);
            assert_eq!(stats.sessions_expired, 1);
            let [alice, bob] = &stats.tenants[..] else {
                panic!("two tenants rehydrate: {stats:?}")
            };
            assert_eq!(
                (alice.tenant.as_str(), alice.views_published, alice.requests),
                ("alice", 1, 1)
            );
            assert!(!alice.demoted);
            assert_eq!(
                (
                    bob.tenant.as_str(),
                    bob.views_published,
                    bob.snapshots_held,
                    bob.requests
                ),
                ("bob", 1, 1, 2)
            );
            assert!(bob.demoted);
        }
        // What follows answers byte for byte alike on both: a candidate on
        // the live tenant, one that revives the demoted tenant, and a
        // restore of the labelled snapshot the expire record carried.
        let script = [
            r#"{"op": "candidate", "tenant": "alice", "view": "V2(d, p) :- Employee(n, d, p)"}"#,
            r#"{"op": "candidate", "tenant": "bob", "view": "V2(d, p) :- Employee(n, d, p)"}"#,
            r#"{"op": "restore", "tenant": "bob", "label": "base"}"#,
        ];
        for line in script {
            let (a, _) = handle_request(&old_reg, line);
            let (b, _) = handle_request(&new_reg, line);
            assert_eq!(a.field("ok"), &Value::Bool(true), "{a:?}");
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "{line}"
            );
            if !a.field("report").is_null() {
                assert_eq!(
                    a.field("report").field("step").as_int(),
                    Some(2),
                    "the published view rehydrated: {line}"
                );
            }
        }
    }

    /// The event an earlier release journaled after `op` on `tenant` of
    /// `reg`, carrying the tenant's state as that release's `journal_op`
    /// and `demote_expired` wrote it.
    fn legacy_event(reg: &SessionRegistry, op: &str, tenant: &str, label: Option<&str>) -> String {
        let entry = Arc::clone(&reg.shard_of(tenant).lock().unwrap()[tenant]);
        let t = entry.lock().unwrap();
        serde_json::to_string(&crate::journal::JournalEvent {
            op: op.to_string(),
            tenant: tenant.to_string(),
            secret: t.session.secret().clone(),
            state: t.session.snapshot(),
            snapshot_label: label.map(str::to_string),
            snapshots: (op == "expire").then(|| t.snapshots.clone()),
            tenant_requests: t.requests,
            registry_requests: reg.requests.load(Ordering::Relaxed),
            registry_expired: reg.expired.load(Ordering::Relaxed) + u64::from(op == "expire"),
        })
        .unwrap()
    }

    fn journal_keys(store: &Arc<dyn StoreBackend>) -> Vec<String> {
        store
            .scan(NS_JOURNAL)
            .unwrap()
            .into_iter()
            .map(|(key, _)| key)
            .collect()
    }

    #[test]
    fn a_sequence_keyed_journal_migrates_once_and_reloads_identically() {
        use crate::protocol::handle_request;

        // A sequence-keyed log in the format of the previous release: two
        // tenants with labelled snapshots, the second demoted by expiry.
        let reg = registry();
        let secret = reg.parse("S(n, p) :- Employee(n, d, p)").unwrap();
        let v1 = reg.parse("V1(n, d) :- Employee(n, d, p)").unwrap();
        let v2 = reg.parse("V2(d, p) :- Employee(n, d, p)").unwrap();
        let mut log = Vec::new();
        reg.publish("alice", Some(&secret), None, v1.clone())
            .unwrap();
        log.push(legacy_event(&reg, "publish", "alice", None));
        reg.snapshot("alice", "base").unwrap();
        log.push(legacy_event(&reg, "snapshot", "alice", Some("base")));
        reg.publish("alice", None, None, v2).unwrap();
        log.push(legacy_event(&reg, "publish", "alice", None));
        reg.publish("bob", Some(&secret), None, v1).unwrap();
        log.push(legacy_event(&reg, "publish", "bob", None));
        reg.snapshot("bob", "b/1").unwrap();
        log.push(legacy_event(&reg, "snapshot", "bob", Some("b/1")));
        log.push(legacy_event(&reg, "expire", "bob", None));

        // The first restart migrates it: no sequence key is left.
        let store = seeded_store(&log);
        let first = durable_registry(&store);
        assert_eq!(
            journal_keys(&store),
            [
                "registry",
                "snapshot/alice/base",
                "snapshot/bob/b%2f1",
                "tenant/alice",
                "tenant/bob"
            ]
        );
        let stats = first.stats();
        assert_eq!((stats.requests_served, stats.sessions_expired), (5, 1));
        assert_eq!(stats.journal_records, 6);
        let [alice, bob] = &stats.tenants[..] else {
            panic!("two tenants migrate: {stats:?}")
        };
        assert_eq!((alice.views_published, alice.snapshots_held), (2, 1));
        assert!(!alice.demoted);
        assert_eq!((bob.views_published, bob.snapshots_held), (1, 1));
        assert!(bob.demoted);

        // A second restart, over a store already migrated, answers the rest
        // of the script byte for byte like the first, stats included.
        let migrated = seeded_store(&log);
        drop(durable_registry(&migrated));
        let second = durable_registry(&migrated);
        let script = [
            r#"{"op": "stats"}"#,
            r#"{"op": "candidate", "tenant": "alice", "view": "V3(n) :- Employee(n, d, p)"}"#,
            r#"{"op": "restore", "tenant": "alice", "label": "base"}"#,
            r#"{"op": "candidate", "tenant": "bob", "view": "V2(d, p) :- Employee(n, d, p)"}"#,
            r#"{"op": "restore", "tenant": "bob", "label": "b/1"}"#,
            r#"{"op": "stats"}"#,
        ];
        for line in script {
            let (a, _) = handle_request(&first, line);
            let (b, _) = handle_request(&second, line);
            assert_eq!(a.field("ok"), &serde_json::Value::Bool(true), "{a:?}");
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "{line}"
            );
        }
    }

    #[test]
    fn tenant_ids_and_labels_with_slashes_and_percents_never_share_a_key() {
        let store: Arc<dyn StoreBackend> = Arc::new(qvsec_store::MemStore::new());
        let reg = durable_registry(&store);
        let secret = reg.parse("S(n, p) :- Employee(n, d, p)").unwrap();
        let views: Vec<ConjunctiveQuery> = ["V1(n, d)", "V2(d, p)", "V3(n)", "V4(p)", "V5(d)"]
            .iter()
            .map(|h| reg.parse(&format!("{h} :- Employee(n, d, p)")).unwrap())
            .collect();
        // Joined naively as `<tenant>/<label>`, all four collide.
        let pairs = [("a/b", "c"), ("a", "b/c"), ("a%2fb", "c"), ("a%2Fb", "c")];
        for (i, (tenant, label)) in pairs.iter().enumerate() {
            for view in &views[..=i] {
                reg.publish(tenant, Some(&secret), None, view.clone())
                    .unwrap();
            }
            reg.snapshot(tenant, label).unwrap();
            reg.publish(tenant, None, None, views[4].clone()).unwrap();
        }
        // One record per tenant and per snapshot, plus the registry's.
        assert_eq!(journal_keys(&store).len(), 2 * pairs.len() + 1);
        let before = serde_json::to_string(&reg.stats()).unwrap();
        drop(reg);

        let reg = durable_registry(&store);
        assert_eq!(serde_json::to_string(&reg.stats()).unwrap(), before);
        for (i, (tenant, label)) in pairs.iter().enumerate() {
            assert_eq!(reg.restore(tenant, label).unwrap(), i + 1, "{tenant}");
        }
    }

    #[test]
    fn tenants_hash_to_stable_shards() {
        let reg = registry();
        assert_eq!(reg.shard_count(), 16);
        let a = shard_hash("alice");
        assert_eq!(a, shard_hash("alice"), "hash is deterministic");
        assert_ne!(a, shard_hash("alicf"));
    }

    /// The sweep/dispatch race, replayed deterministically through the
    /// private dispatch path: a request's shard-map lookup hands it the
    /// tenant entry, an idle sweep demotes the tenant before the request
    /// locks it, and the request must re-dispatch onto the revived state
    /// instead of mutating the zombie (whose state already moved to the
    /// journal — a mutation there would vanish at the next revival).
    #[test]
    fn a_sweep_racing_a_dispatched_request_retires_the_entry() {
        let store: Arc<dyn StoreBackend> = Arc::new(qvsec_store::MemStore::new());
        let reg = durable_registry(&store);
        let secret = reg.parse("S(n, p) :- Employee(n, d, p)").unwrap();
        let v1 = reg.parse("V1(n, d) :- Employee(n, d, p)").unwrap();
        let v2 = reg.parse("V2(d, p) :- Employee(n, d, p)").unwrap();
        reg.publish("t", Some(&secret), None, v1).unwrap();

        // Interleaving step 1: the request's map lookup completes.
        let stale = reg.tenant_entry("t", None).unwrap();
        // Interleaving step 2: an idle sweep demotes the tenant.
        assert_eq!(reg.sweep_idle(Duration::ZERO), 1);
        assert_eq!(reg.tenant_count(), 0, "the entry left the shard map");
        // Interleaving step 3: the request locks the entry it was handed —
        // and finds it retired, the exact flag `with_tenant` re-dispatches
        // on.
        assert!(
            stale.lock().unwrap().retired,
            "the sweep must retire the demoted entry under its lock"
        );
        // The re-dispatched publish revives the demoted state and lands.
        let r = reg.publish("t", None, None, v2).unwrap();
        assert_eq!(r.step, 2, "the raced publish lands on the revived session");
        assert_eq!(reg.stats().tenants[0].views_published, 2);
    }

    /// The same race under real threads: a sweeper demoting the tenant as
    /// fast as it can while a client publishes view after view. Every
    /// publish must land on live state — step numbers advance by exactly
    /// one — no matter where the demotions interleave.
    #[test]
    fn concurrent_sweeps_never_lose_a_published_view() {
        use std::sync::atomic::AtomicBool;

        let store: Arc<dyn StoreBackend> = Arc::new(qvsec_store::MemStore::new());
        let reg = durable_registry(&store);
        let secret = reg.parse("S(n, p) :- Employee(n, d, p)").unwrap();
        let heads = [
            "V1(n, d)", "V2(d, p)", "V3(n)", "V4(p)", "V5(d)", "V6(n, p)",
        ];
        let views: Vec<ConjunctiveQuery> = heads
            .iter()
            .map(|h| reg.parse(&format!("{h} :- Employee(n, d, p)")).unwrap())
            .collect();

        let done = AtomicBool::new(false);
        let steps = std::thread::scope(|scope| {
            let reg = &reg;
            let done = &done;
            let sweeper = scope.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    reg.sweep_idle(Duration::ZERO);
                    std::thread::yield_now();
                }
            });
            let mut steps = Vec::new();
            for (i, v) in views.iter().enumerate() {
                let open_secret = (i == 0).then_some(&secret);
                steps.push(reg.publish("t", open_secret, None, v.clone()).unwrap().step);
            }
            done.store(true, Ordering::Relaxed);
            sweeper.join().unwrap();
            steps
        });
        assert_eq!(
            steps,
            (1..=views.len()).collect::<Vec<_>>(),
            "a published view was lost to a racing sweep"
        );
        let total: usize = reg.stats().tenants.iter().map(|t| t.views_published).sum();
        assert_eq!(total, views.len());
    }
}
