//! The durable tenant-lifecycle journal.
//!
//! Every successful registry operation — `open`, `publish`, `candidate`,
//! `snapshot`, `restore`, plus idle-expiry demotions — appends one
//! [`JournalEvent`] to the `registry/journal` namespace of a
//! [`StoreBackend`], keyed by a zero-padded hex sequence number so a plain
//! key-ordered scan replays the history in order.
//!
//! Events are *state-carrying*, not command-carrying: each one embeds the
//! tenant's full post-operation [`SessionSnapshot`], so replay never
//! re-runs an audit — it restores the last snapshot per tenant, rebuilds
//! the labelled-snapshot map from `snapshot` events, and re-installs the
//! registry-wide request and expiry totals from the final event. Engine
//! cache counters are process-local and never journaled: they live only in
//! the metrics plane. A process SIGKILLed mid-script therefore rehydrates to
//! byte-identical state for every *completed* request (the store backends
//! discard torn trailing records), and the remainder of the script answers
//! exactly as the uninterrupted process would have.
//!
//! The journal is all a durable store holds: compiled artifacts are pure
//! functions of the queries, stay in memory and are recomputed after a
//! restart. A failed append therefore surfaces as an error, since losing a
//! lifecycle event silently would cost tenant state.

use crate::ServeError;
use qvsec::session::SessionSnapshot;
use qvsec_cq::ConjunctiveQuery;
use qvsec_store::{StoreBackend, StoreOp};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Store namespace holding the registry's lifecycle journal.
pub const NS_JOURNAL: &str = "registry/journal";

/// One journaled lifecycle event. Every event carries the tenant's full
/// post-operation state and the registry's totals at append time, so the
/// *last* event per tenant (and the last event overall) suffice to
/// rehydrate. Decoding looks members up by name and ignores unknown ones,
/// so records that still carry the engine counters earlier releases
/// journaled decode unchanged.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JournalEvent {
    /// `open` | `publish` | `candidate` | `snapshot` | `restore` | `expire`.
    pub op: String,
    /// The tenant id.
    pub tenant: String,
    /// The tenant's registered secret.
    pub secret: ConjunctiveQuery,
    /// The tenant's session state after the operation.
    pub state: SessionSnapshot,
    /// The label of a `snapshot` operation (replay stores `state` under
    /// it, since capturing does not change the session).
    #[serde(default)]
    pub snapshot_label: Option<String>,
    /// An `expire` event's full labelled-snapshot map, making demotion
    /// self-contained: revival needs no earlier events.
    #[serde(default)]
    pub snapshots: Option<HashMap<String, SessionSnapshot>>,
    /// The tenant's request count after the operation.
    pub tenant_requests: u64,
    /// Registry-wide requests dispatched, at append time.
    pub registry_requests: u64,
    /// Registry-wide sessions expired, at append time.
    #[serde(default)]
    pub registry_expired: u64,
}

/// Per-tenant journal usage, surfaced through registry stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantStoreUsage {
    /// Journal records appended for this tenant.
    pub records: u64,
    /// Serialized bytes of those records.
    pub bytes: u64,
}

/// Everything [`Journal::replay`] recovers from a store.
#[derive(Debug, Default)]
pub struct Replayed {
    /// `(sequence number, event)` pairs, in sequence order.
    pub events: Vec<(u64, JournalEvent)>,
    /// The next append sequence number.
    pub next_seq: u64,
    /// Per-tenant record/byte accounting over the scanned journal.
    pub usage: BTreeMap<String, TenantStoreUsage>,
}

/// Decodes one journal record; `key` only labels the error.
pub(crate) fn decode_event(key: &str, bytes: &[u8]) -> crate::Result<JournalEvent> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| ServeError::Store(format!("journal record {key}: not UTF-8")))?;
    let value = serde_json::parse(text)
        .map_err(|e| ServeError::Store(format!("journal record {key}: {e}")))?;
    serde_json::from_value(&value)
        .map_err(|e| ServeError::Store(format!("journal record {key}: {e}")))
}

/// An append-ordered event log over one store backend, with per-tenant
/// usage accounting.
#[derive(Debug)]
pub struct Journal {
    store: Arc<dyn StoreBackend>,
    seq: AtomicU64,
    usage: Mutex<BTreeMap<String, TenantStoreUsage>>,
}

impl Journal {
    /// A journal resuming after `replayed` (use `Replayed::default()` for
    /// a fresh store).
    pub fn new(store: Arc<dyn StoreBackend>, replayed: &Replayed) -> Self {
        Journal {
            store,
            seq: AtomicU64::new(replayed.next_seq),
            usage: Mutex::new(replayed.usage.clone()),
        }
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<dyn StoreBackend> {
        &self.store
    }

    /// Appends one event durably, returning its sequence number; sequence
    /// numbers are allocated atomically so concurrent tenants never collide.
    pub fn append(&self, event: &JournalEvent) -> crate::Result<u64> {
        let _span = qvsec_obs::Span::enter("store.journal.append");
        qvsec_obs::counter("store.journal.appends").inc();
        let text = serde_json::to_string(event)
            .map_err(|e| ServeError::Store(format!("journal encode: {e}")))?;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let key = format!("{seq:016x}");
        {
            let mut usage = self.usage.lock().expect("journal usage poisoned");
            let entry = usage.entry(event.tenant.clone()).or_default();
            entry.records += 1;
            entry.bytes += text.len() as u64;
        }
        self.store
            .append_batch(NS_JOURNAL, vec![StoreOp::put(&key, text.into_bytes())])
            .map_err(|e| ServeError::Store(format!("journal append: {e}")))?;
        Ok(seq)
    }

    /// This journal's per-tenant usage for `tenant`.
    pub fn usage_of(&self, tenant: &str) -> TenantStoreUsage {
        self.usage
            .lock()
            .expect("journal usage poisoned")
            .get(tenant)
            .copied()
            .unwrap_or_default()
    }

    /// Total records/bytes journaled across all tenants.
    pub fn totals(&self) -> TenantStoreUsage {
        let usage = self.usage.lock().expect("journal usage poisoned");
        usage
            .values()
            .fold(TenantStoreUsage::default(), |mut acc, u| {
                acc.records += u.records;
                acc.bytes += u.bytes;
                acc
            })
    }

    /// Scans a store's journal namespace in sequence order and decodes
    /// every event. Undecodable records are an error — the backends already
    /// discard torn trailing records, so a record that scans but does not
    /// decode means real corruption, not a crash artifact.
    pub fn replay(store: &Arc<dyn StoreBackend>) -> crate::Result<Replayed> {
        let records = store
            .scan(NS_JOURNAL)
            .map_err(|e| ServeError::Store(format!("journal scan: {e}")))?;
        let mut replayed = Replayed::default();
        for (key, bytes) in records {
            let seq = u64::from_str_radix(&key, 16).map_err(|_| {
                ServeError::Store(format!("journal record {key}: bad sequence key"))
            })?;
            let event = decode_event(&key, &bytes)?;
            let entry = replayed.usage.entry(event.tenant.clone()).or_default();
            entry.records += 1;
            entry.bytes += bytes.len() as u64;
            replayed.next_seq = replayed.next_seq.max(seq + 1);
            replayed.events.push((seq, event));
        }
        Ok(replayed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvsec::engine::{AuditEngine, AuditOptions};
    use qvsec::session::AuditSession;
    use qvsec_data::{Domain, Schema};

    fn sample_event(tenant: &str, op: &str) -> JournalEvent {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let mut domain = Domain::new();
        let secret = qvsec_cq::parse_query("S(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let engine = Arc::new(AuditEngine::builder(schema, domain).build());
        let session = AuditSession::new(engine, secret.clone(), AuditOptions::default());
        JournalEvent {
            op: op.to_string(),
            tenant: tenant.to_string(),
            secret,
            state: session.snapshot(),
            snapshot_label: None,
            snapshots: None,
            tenant_requests: 1,
            registry_requests: 1,
            registry_expired: 0,
        }
    }

    #[test]
    fn append_then_replay_round_trips_in_order() {
        let store: Arc<dyn StoreBackend> = Arc::new(qvsec_store::MemStore::new());
        let journal = Journal::new(Arc::clone(&store), &Replayed::default());
        journal.append(&sample_event("a", "open")).unwrap();
        journal.append(&sample_event("b", "open")).unwrap();
        journal.append(&sample_event("a", "publish")).unwrap();
        assert_eq!(journal.usage_of("a").records, 2);
        assert!(journal.usage_of("a").bytes > 0);

        let replayed = Journal::replay(&store).unwrap();
        assert_eq!(replayed.next_seq, 3);
        let ops: Vec<(u64, &str, &str)> = replayed
            .events
            .iter()
            .map(|(seq, e)| (*seq, e.tenant.as_str(), e.op.as_str()))
            .collect();
        assert_eq!(
            ops,
            vec![(0, "a", "open"), (1, "b", "open"), (2, "a", "publish")]
        );
        assert_eq!(replayed.usage["a"], journal.usage_of("a"));

        // A successor journal continues the sequence without overwriting.
        let successor = Journal::new(Arc::clone(&store), &replayed);
        successor.append(&sample_event("a", "candidate")).unwrap();
        assert_eq!(Journal::replay(&store).unwrap().events.len(), 4);
    }

    #[test]
    fn corrupt_records_surface_as_store_errors() {
        let store: Arc<dyn StoreBackend> = Arc::new(qvsec_store::MemStore::new());
        store
            .append_batch(
                NS_JOURNAL,
                vec![StoreOp::put("0000000000000000", b"{not json".to_vec())],
            )
            .unwrap();
        assert!(matches!(Journal::replay(&store), Err(ServeError::Store(_))));
    }
}
