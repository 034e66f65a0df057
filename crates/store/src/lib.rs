//! # qvsec-store — the durable tenant store
//!
//! The paper's audit question is cumulative: whether the next view is safe
//! depends on *every* view already published, so a serving process that
//! loses session history on restart silently invalidates the security
//! guarantee for any tenant that keeps publishing afterward. This crate
//! keeps that history: one keyed store of key → bytes behind a small
//! [`StoreBackend`] trait (point reads, an ordered scan, atomic batch
//! append, flush), with two implementations —
//!
//! * [`LogStore`] — the store: one append-only file of length-prefixed and
//!   checksummed records, crash-tolerant truncated-tail recovery, and
//!   compaction past a size threshold and on flush. It is memory-resident:
//!   every live value stays in memory, and opening streams the file.
//! * [`MemStore`] — an in-process map under the same contract, the fake
//!   the serving layer's tests run over. Its state dies with the process.
//!
//! The serving registry keeps its tenants' latest state in the store,
//! keyed by tenant and overwritten in place, and that state is all it
//! stores (compiled artifacts are recomputed, never persisted). It only
//! assumes the trait contract:
//!
//! * `scan` returns the live entries in ascending key order — a key's
//!   latest put, none for a deleted key — so a restart reads the current
//!   state, not the history that led to it;
//! * `append_batch` is atomic — after a crash, either the whole batch is
//!   recovered or none of it (the [`LogStore`] frames a batch as a single
//!   checksummed record and truncates any torn tail on reopen);
//! * a failed `append_batch` changes nothing: its batch is not live, and no
//!   later batch is lost to it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod log;
mod mem;

pub use log::LogStore;
pub use mem::MemStore;

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors surfaced by store backends.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(String),
    /// The store configuration is unusable (a `store` block without a
    /// `path`).
    Config(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store io error: {m}"),
            StoreError::Config(m) => write!(f, "store config error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StoreError>;

/// One mutation inside an atomic batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOp {
    /// Insert or overwrite `key`.
    Put {
        /// The key.
        key: String,
        /// The value bytes.
        value: Vec<u8>,
    },
    /// Remove `key` (a no-op when absent).
    Delete {
        /// The key.
        key: String,
    },
}

impl StoreOp {
    /// Shorthand for a `Put`.
    pub fn put(key: impl Into<String>, value: impl Into<Vec<u8>>) -> Self {
        StoreOp::Put {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Shorthand for a `Delete`.
    pub fn delete(key: impl Into<String>) -> Self {
        StoreOp::Delete { key: key.into() }
    }
}

/// Applies `ops` in order to the live map `map`.
pub(crate) fn apply(map: &mut BTreeMap<String, Vec<u8>>, ops: Vec<StoreOp>) {
    for op in ops {
        match op {
            StoreOp::Put { key, value } => {
                map.insert(key, value);
            }
            StoreOp::Delete { key } => {
                map.remove(&key);
            }
        }
    }
}

/// The persistence contract every backend implements: key → bytes with an
/// ordered scan and atomic batch appends.
///
/// Implementations must be `Send + Sync` — the serving layer appends from
/// many worker threads.
pub trait StoreBackend: Send + Sync + fmt::Debug {
    /// Reads one key. `Ok(None)` when absent.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>>;

    /// All live entries, in ascending key order.
    fn scan(&self) -> Result<Vec<(String, Vec<u8>)>>;

    /// Applies `ops` atomically: after a crash, recovery observes either
    /// the whole batch or none of it. On an error none of it is live, and
    /// no later batch is lost to it.
    fn append_batch(&self, ops: Vec<StoreOp>) -> Result<()>;

    /// Forces buffered writes down to the backing medium. A backend may
    /// instead rewrite its storage to the live entries and sync that; a
    /// flush that fails leaves every acknowledged batch in place.
    fn flush(&self) -> Result<()>;

    /// A short static name (`"log"`, or `"mem"` for the test fake) for
    /// stats and logs.
    fn backend_name(&self) -> &'static str;
}

/// Where the durable store lives, deserializable straight out of a CLI spec
/// (`{"path": "/var/lib/qvsec"}`): a [`LogStore`] rooted at `path`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreConfig {
    /// Root directory of the store; a block without one is refused.
    pub path: Option<String>,
    /// Compaction threshold: before an append would take the store's file
    /// past this many bytes, and on a flush once the file is more than
    /// twice its live contents, the file is rewritten to those contents
    /// (default 8 MiB; `0` disables compaction).
    pub compact_threshold_bytes: Option<u64>,
}

impl StoreConfig {
    /// A store rooted at `path` with default compaction.
    pub fn log_at(path: impl Into<String>) -> Self {
        StoreConfig {
            path: Some(path.into()),
            compact_threshold_bytes: None,
        }
    }
}

/// Default [`LogStore`] compaction threshold (8 MiB).
pub const DEFAULT_COMPACT_THRESHOLD: u64 = 8 * 1024 * 1024;

/// Opens the [`LogStore`] a [`StoreConfig`] describes.
pub fn open_store(config: &StoreConfig) -> Result<Arc<dyn StoreBackend>> {
    let path = config
        .path
        .as_deref()
        .ok_or_else(|| StoreError::Config("a `store` block needs a `path`".to_string()))?;
    Ok(Arc::new(LogStore::open(
        path,
        config
            .compact_threshold_bytes
            .unwrap_or(DEFAULT_COMPACT_THRESHOLD),
    )?))
}

/// Percent-encodes a key part: `[A-Za-z0-9._-]` pass through, everything
/// else becomes `%XX`. The encoding is injective and its output never
/// holds `/`, so callers use it to join client-chosen parts into one key
/// without collisions (and the output is a filesystem-safe name).
pub fn encode_component(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'.' | b'_' | b'-' => out.push(b as char),
            other => out.push_str(&format!("%{other:02x}")),
        }
    }
    out
}

/// FNV-1a over `bytes`, 32-bit (the log record checksum).
pub(crate) fn fnv1a_32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in bytes {
        h ^= *b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    /// A fresh scratch directory under the system temp dir (no `tempfile`
    /// dependency; unique per process + call).
    pub fn scratch_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qvsec-store-{label}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exercises the full trait contract against one backend.
    fn contract(store: &dyn StoreBackend) {
        assert_eq!(store.get("a").unwrap(), None);
        assert!(store.scan().unwrap().is_empty(), "a new store scans empty");
        store
            .append_batch(vec![
                StoreOp::put("b", b"2".to_vec()),
                StoreOp::put("a", b"1".to_vec()),
            ])
            .unwrap();
        assert_eq!(store.get("a").unwrap(), Some(b"1".to_vec()));
        // Scans are key-ordered regardless of insertion order.
        let entries = store.scan().unwrap();
        assert_eq!(
            entries,
            vec![
                ("a".to_string(), b"1".to_vec()),
                ("b".to_string(), b"2".to_vec())
            ]
        );
        // Overwrite and delete in one batch.
        store
            .append_batch(vec![
                StoreOp::put("a", b"11".to_vec()),
                StoreOp::delete("b"),
            ])
            .unwrap();
        assert_eq!(store.get("a").unwrap(), Some(b"11".to_vec()));
        assert_eq!(store.get("b").unwrap(), None);
        assert_eq!(store.scan().unwrap().len(), 1);
        store.flush().unwrap();
    }

    #[test]
    fn mem_satisfies_the_contract() {
        contract(&MemStore::new());
    }

    #[test]
    fn log_satisfies_the_contract() {
        let dir = testutil::scratch_dir("contract-log");
        contract(&LogStore::open(dir.clone(), 0).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_factory_maps_config_onto_backends() {
        let dir = testutil::scratch_dir("factory");
        let log = open_store(&StoreConfig::log_at(dir.display().to_string())).unwrap();
        assert_eq!(log.backend_name(), "log");
        log.append_batch(vec![StoreOp::put("k", b"v".to_vec())])
            .unwrap();
        drop(log);

        // A block naming only a path opens the same durable store.
        let path_only = StoreConfig {
            path: Some(dir.display().to_string()),
            compact_threshold_bytes: None,
        };
        let reopened = open_store(&path_only).unwrap();
        assert_eq!(reopened.backend_name(), "log");
        assert_eq!(reopened.get("k").unwrap(), Some(b"v".to_vec()));

        // A block without a path is refused, whatever else it sets.
        let err = open_store(&StoreConfig {
            path: None,
            compact_threshold_bytes: Some(0),
        })
        .unwrap_err();
        assert!(matches!(err, StoreError::Config(_)), "{err}");
        assert!(err.to_string().contains("`path`"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn component_encoding_is_filesystem_safe_and_injective() {
        assert_eq!(encode_component("artifacts/crit"), "artifacts%2fcrit");
        assert_eq!(encode_component("plain-name_1.log"), "plain-name_1.log");
        // Distinct inputs stay distinct (the escape char itself is escaped).
        assert_ne!(encode_component("a%2fb"), encode_component("a/b"));
    }
}
