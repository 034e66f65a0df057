//! The durable tenant store.
//!
//! With a store configured, every successful registry operation — `open`,
//! `publish`, `candidate`, `snapshot`, `restore`, plus idle-expiry
//! demotions — writes one atomic batch to a [`StoreBackend`]. The store
//! holds each tenant's *latest state*, keyed by tenant and overwritten in
//! place, not a history of events:
//!
//! | key | value |
//! |---|---|
//! | `tenant/<id>` | the secret, the session state after the op, the request count, the snapshot labels, the demoted flag and the tenant's journal usage |
//! | `snapshot/<id>/<label>` | the labelled [`SessionSnapshot`], written by `snapshot` |
//! | `registry` | the registry-wide request and expiry totals, written by every op |
//!
//! `<id>` and `<label>` are percent-encoded with
//! [`qvsec_store::encode_component`], which escapes `/` and `%`, so no
//! choice of tenant ids and labels makes two keys collide.
//!
//! Records carry state, not commands, so a restart
//! ([`SessionRegistry::with_store`](crate::SessionRegistry::with_store))
//! never re-runs an audit: it decodes the live records and nothing else,
//! O(tenants + snapshots) however long the history that produced them, and
//! the log store's compaction reclaims the superseded ones. A batch is
//! recovered whole or not at all (the store backends discard torn trailing
//! records), so a process SIGKILLed mid-script rehydrates to byte-identical
//! state for every *completed* request, and the remainder of the script
//! answers exactly as the uninterrupted process would have. Engine cache
//! counters are process-local and never stored: they live only in the
//! metrics plane.
//!
//! **Usage.** A tenant's journal usage is the number of ops written for it
//! and the bytes of the records those ops wrote (its own record, a
//! `snapshot` op's snapshot record and the registry record). Each tenant
//! record carries that usage minus its own length, and loading adds the
//! length back, so `stats` reports the same figures after a restart
//! without the history.
//!
//! **Older stores.** Releases before keyed state wrote a sequence-keyed
//! event log instead: `{seq:016x}` → one JSON event per op. Loading refuses
//! a store that still holds such a key, with an error naming that format,
//! and writes nothing to it.
//!
//! The journal is all a durable store holds: compiled artifacts are pure
//! functions of the queries, stay in memory and are recomputed after a
//! restart. A failed write therefore surfaces as an error, and the registry
//! takes the tenant out of memory, so its next request finds it as the
//! store holds it: losing tenant state silently would void the cumulative
//! audit.

use crate::ServeError;
use qvsec::session::SessionSnapshot;
use qvsec_cq::ConjunctiveQuery;
use qvsec_store::{encode_component, StoreBackend, StoreOp};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Key of the registry-totals record.
const REGISTRY_KEY: &str = "registry";
const TENANT_PREFIX: &str = "tenant/";
const SNAPSHOT_PREFIX: &str = "snapshot/";

fn tenant_key(tenant: &str) -> String {
    format!("{TENANT_PREFIX}{}", encode_component(tenant))
}

fn snapshot_key(tenant: &str, label: &str) -> String {
    format!(
        "{SNAPSHOT_PREFIX}{}/{}",
        encode_component(tenant),
        encode_component(label)
    )
}

/// Whether `key` belongs to the sequence-keyed event log of releases before
/// keyed state.
fn is_sequence_key(key: &str) -> bool {
    key.len() == 16 && key.bytes().all(|b| b.is_ascii_hexdigit())
}

/// `tenant/<id>`: one tenant's state after its latest op.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct TenantRecord {
    /// The tenant id.
    pub tenant: String,
    /// The tenant's registered secret.
    pub secret: ConjunctiveQuery,
    /// The tenant's session state.
    pub state: SessionSnapshot,
    /// The tenant's request count.
    pub requests: u64,
    /// The labels of the tenant's snapshots, sorted; each is stored under
    /// `snapshot/<id>/<label>`.
    pub snapshots: Vec<String>,
    /// `true` once idle expiry moved the tenant out of memory.
    pub demoted: bool,
    /// The tenant's journal usage, not counting this record's own bytes.
    pub usage: TenantStoreUsage,
}

/// `registry`: registry-wide totals at the latest op.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub(crate) struct RegistryRecord {
    /// Requests dispatched.
    pub requests: u64,
    /// Sessions expired.
    pub expired: u64,
}

/// One tenant read back from the store: its record and its labelled
/// snapshots.
#[derive(Debug)]
pub(crate) struct StoredTenant {
    pub record: TenantRecord,
    pub snapshots: HashMap<String, SessionSnapshot>,
}

/// Everything [`Journal::load`] recovers besides the journal itself.
#[derive(Debug, Default)]
pub(crate) struct Loaded {
    /// Tenants resident at the last op, with their snapshots.
    pub live: Vec<StoredTenant>,
    /// Ids of demoted tenants; their records stay in the store until the
    /// tenant's next request revives them.
    pub demoted: Vec<String>,
    /// The registry-wide totals.
    pub totals: RegistryRecord,
}

/// Per-tenant journal usage, surfaced through registry stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantStoreUsage {
    /// Ops written for this tenant.
    pub records: u64,
    /// Bytes of the records those ops wrote.
    pub bytes: u64,
}

fn encode<T: Serialize>(value: &T) -> crate::Result<Vec<u8>> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| ServeError::Store(format!("journal encode: {e}")))
}

fn decode<T: Deserialize>(key: &str, bytes: &[u8]) -> crate::Result<T> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| ServeError::Store(format!("journal record {key}: not UTF-8")))?;
    serde_json::from_str(text).map_err(|e| ServeError::Store(format!("journal record {key}: {e}")))
}

/// Reads `record`'s labelled snapshots through `get`. A label without a
/// record is left out: earlier releases kept the label of a `snapshot` op
/// whose write failed, and the tenant's next record listed it.
fn snapshots_of(
    record: &TenantRecord,
    mut get: impl FnMut(&str) -> crate::Result<Option<Vec<u8>>>,
) -> crate::Result<HashMap<String, SessionSnapshot>> {
    let mut snapshots = HashMap::new();
    for label in &record.snapshots {
        let key = snapshot_key(&record.tenant, label);
        if let Some(bytes) = get(&key)? {
            snapshots.insert(label.clone(), decode(&key, &bytes)?);
        }
    }
    Ok(snapshots)
}

/// The keyed tenant state of one store backend, with per-tenant usage
/// accounting.
#[derive(Debug)]
pub(crate) struct Journal {
    store: Arc<dyn StoreBackend>,
    usage: Mutex<BTreeMap<String, TenantStoreUsage>>,
}

impl Journal {
    /// Loads the tenant state `store` holds. Undecodable records are an
    /// error — the backends already discard torn trailing records, so a
    /// record that scans but does not decode means real corruption, not a
    /// crash artifact — and so is the sequence-keyed log of an earlier
    /// release. Loading writes nothing.
    pub(crate) fn load(store: Arc<dyn StoreBackend>) -> crate::Result<(Journal, Loaded)> {
        let entries: BTreeMap<String, Vec<u8>> = store
            .scan()
            .map_err(|e| ServeError::Store(format!("journal scan: {e}")))?
            .into_iter()
            .collect();
        let mut loaded = Loaded::default();
        let mut usage = BTreeMap::new();
        for (key, bytes) in &entries {
            if key == REGISTRY_KEY {
                loaded.totals = decode(key, bytes)?;
            } else if key.starts_with(TENANT_PREFIX) {
                let record: TenantRecord = decode(key, bytes)?;
                usage.insert(
                    record.tenant.clone(),
                    TenantStoreUsage {
                        records: record.usage.records,
                        bytes: record.usage.bytes + bytes.len() as u64,
                    },
                );
                if record.demoted {
                    loaded.demoted.push(record.tenant);
                } else {
                    let snapshots = snapshots_of(&record, |k| Ok(entries.get(k).cloned()))?;
                    loaded.live.push(StoredTenant { record, snapshots });
                }
            } else if is_sequence_key(key) {
                return Err(ServeError::Store(format!(
                    "journal record {key}: the store holds a sequence-keyed event log \
                     ({{seq:016x}} keys) of a release before keyed state, which this \
                     release does not read"
                )));
            } else if !key.starts_with(SNAPSHOT_PREFIX) {
                return Err(ServeError::Store(format!(
                    "journal record {key}: unknown key"
                )));
            }
        }
        let journal = Journal {
            store,
            usage: Mutex::new(usage),
        };
        Ok((journal, loaded))
    }

    /// The backing store.
    pub(crate) fn store(&self) -> &Arc<dyn StoreBackend> {
        &self.store
    }

    /// Writes one op's batch: the tenant's record, the snapshot a
    /// `snapshot` op captured, and the registry totals. `record.usage` is
    /// filled in here. Callers serialize writes per tenant (the registry
    /// holds the tenant's lock).
    pub(crate) fn write(
        &self,
        mut record: TenantRecord,
        snapshot: Option<(&str, &SessionSnapshot)>,
        totals: RegistryRecord,
    ) -> crate::Result<()> {
        let _span = qvsec_obs::Span::enter("store.journal.append");
        qvsec_obs::counter("store.journal.appends").inc();
        let mut ops = Vec::with_capacity(3);
        let mut written = 0;
        if let Some((label, state)) = snapshot {
            let text = encode(state)?;
            written += text.len() as u64;
            ops.push(StoreOp::put(snapshot_key(&record.tenant, label), text));
        }
        let text = encode(&totals)?;
        written += text.len() as u64;
        ops.push(StoreOp::put(REGISTRY_KEY, text));
        let before = self.usage_of(&record.tenant);
        record.usage = TenantStoreUsage {
            records: before.records + 1,
            bytes: before.bytes + written,
        };
        let text = encode(&record)?;
        let after = TenantStoreUsage {
            records: record.usage.records,
            bytes: record.usage.bytes + text.len() as u64,
        };
        ops.push(StoreOp::put(tenant_key(&record.tenant), text));
        self.store
            .append_batch(ops)
            .map_err(|e| ServeError::Store(format!("journal append: {e}")))?;
        self.usage
            .lock()
            .expect("journal usage poisoned")
            .insert(record.tenant, after);
        Ok(())
    }

    /// Reads `tenant`'s record back from the store.
    pub(crate) fn record(&self, tenant: &str) -> crate::Result<TenantRecord> {
        let key = tenant_key(tenant);
        let bytes = self
            .get(&key)?
            .ok_or_else(|| ServeError::Store(format!("missing journal record {key}")))?;
        decode(&key, &bytes)
    }

    /// Reads `tenant`'s record and its labelled snapshots back from the
    /// store (the revival of a demoted tenant).
    pub(crate) fn stored(&self, tenant: &str) -> crate::Result<StoredTenant> {
        let record = self.record(tenant)?;
        let snapshots = snapshots_of(&record, |k| self.get(k))?;
        Ok(StoredTenant { record, snapshots })
    }

    /// Whether the store holds a record for `tenant`. A store that fails to
    /// answer is taken to hold one, so that the tenant's next request
    /// reaches the store and fails there rather than opening it afresh.
    pub(crate) fn holds(&self, tenant: &str) -> bool {
        !matches!(self.get(&tenant_key(tenant)), Ok(None))
    }

    fn get(&self, key: &str) -> crate::Result<Option<Vec<u8>>> {
        self.store
            .get(key)
            .map_err(|e| ServeError::Store(format!("journal get: {e}")))
    }

    /// This journal's usage for `tenant`.
    pub(crate) fn usage_of(&self, tenant: &str) -> TenantStoreUsage {
        self.usage
            .lock()
            .expect("journal usage poisoned")
            .get(tenant)
            .copied()
            .unwrap_or_default()
    }

    /// Total ops and bytes written across all tenants.
    pub(crate) fn totals(&self) -> TenantStoreUsage {
        let usage = self.usage.lock().expect("journal usage poisoned");
        usage
            .values()
            .fold(TenantStoreUsage::default(), |mut acc, u| {
                acc.records += u.records;
                acc.bytes += u.bytes;
                acc
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvsec::engine::{AuditEngine, AuditOptions};
    use qvsec::session::AuditSession;
    use qvsec_data::{Domain, Schema};

    fn sample_record(tenant: &str, labels: &[&str]) -> TenantRecord {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let mut domain = Domain::new();
        let secret = qvsec_cq::parse_query("S(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let engine = Arc::new(AuditEngine::builder(schema, domain).build());
        let session = AuditSession::new(engine, secret.clone(), AuditOptions::default());
        TenantRecord {
            tenant: tenant.to_string(),
            secret,
            state: session.snapshot(),
            requests: 1,
            snapshots: labels.iter().map(|l| l.to_string()).collect(),
            demoted: false,
            usage: TenantStoreUsage::default(),
        }
    }

    fn keys(store: &Arc<dyn StoreBackend>) -> Vec<String> {
        store.scan().unwrap().into_iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn writes_overwrite_tenant_state_in_place() {
        let store: Arc<dyn StoreBackend> = Arc::new(qvsec_store::MemStore::new());
        let (journal, loaded) = Journal::load(Arc::clone(&store)).unwrap();
        assert!(loaded.live.is_empty() && loaded.demoted.is_empty());
        let totals = |requests| RegistryRecord {
            requests,
            expired: 0,
        };
        let a = sample_record("a", &[]);
        journal.write(a.clone(), None, totals(1)).unwrap();
        journal
            .write(sample_record("b", &[]), None, totals(2))
            .unwrap();
        let snapped = sample_record("a", &["base"]);
        journal
            .write(snapped.clone(), Some(("base", &a.state)), totals(3))
            .unwrap();
        journal.write(snapped, None, totals(4)).unwrap();
        assert_eq!(journal.usage_of("a").records, 3);
        assert!(journal.usage_of("a").bytes > 0);
        // Four ops, three live records plus the registry's.
        assert_eq!(
            keys(&store),
            ["registry", "snapshot/a/base", "tenant/a", "tenant/b"]
        );

        // A successor reloads the same state and the same usage.
        let (successor, loaded) = Journal::load(Arc::clone(&store)).unwrap();
        assert_eq!(loaded.totals.requests, 4);
        let mut live: Vec<(&str, usize)> = loaded
            .live
            .iter()
            .map(|t| (t.record.tenant.as_str(), t.snapshots.len()))
            .collect();
        live.sort();
        assert_eq!(live, [("a", 1), ("b", 0)]);
        for tenant in ["a", "b"] {
            assert_eq!(successor.usage_of(tenant), journal.usage_of(tenant));
        }
        assert_eq!(successor.totals(), journal.totals());
    }

    #[test]
    fn corrupt_records_surface_as_store_errors() {
        for key in ["tenant/a", "0000000000000000"] {
            let store: Arc<dyn StoreBackend> = Arc::new(qvsec_store::MemStore::new());
            store
                .append_batch(vec![StoreOp::put(key, b"{not json".to_vec())])
                .unwrap();
            assert!(
                matches!(Journal::load(store), Err(ServeError::Store(_))),
                "{key}"
            );
        }
    }
}
