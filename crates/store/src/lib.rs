//! # qvsec-store — pluggable durable persistence
//!
//! The paper's audit question is cumulative: whether the next view is safe
//! depends on *every* view already published, so a serving process that
//! loses session history on restart silently invalidates the security
//! guarantee for any tenant that keeps publishing afterward. This crate is
//! the durability seam the rest of the workspace plugs into: one small
//! [`StoreBackend`] trait (namespaced key → bytes, ordered scan, atomic
//! batch append, flush) with two interchangeable implementations —
//!
//! * [`MemStore`] — in-process maps; the zero-config default, behaviour-
//!   identical to running without a store at all.
//! * [`LogStore`] — one append-only file per namespace with length-prefixed
//!   and checksummed records, crash-tolerant truncated-tail recovery and
//!   threshold-triggered compaction. The production-shaped backend. It is
//!   memory-resident: each loaded namespace's live values stay in memory.
//!
//! Callers never see which backend they run over. The serving registry
//! keeps its tenants' latest state in one namespace, keyed by tenant and
//! overwritten in place, and that state is all it stores (compiled
//! artifacts are recomputed, never persisted). It only assumes the trait
//! contract:
//!
//! * `scan` returns the live entries in ascending key order — a key's
//!   latest put, none for a deleted key — so a restart reads the current
//!   state, not the history that led to it (and the fixed-width sequence
//!   keys of journals written by earlier releases come back in append
//!   order, which is how they are migrated);
//! * `append_batch` is atomic — after a crash, either the whole batch is
//!   recovered or none of it (the [`LogStore`] frames a batch as a single
//!   checksummed record and truncates any torn tail on reopen).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod log;
mod mem;

pub use log::LogStore;
pub use mem::MemStore;

use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Errors surfaced by store backends.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(String),
    /// A stored record failed validation beyond what tail-truncation
    /// recovery handles (e.g. an unreadable compacted file).
    Corrupt(String),
    /// The store configuration is unusable (e.g. a file backend without a
    /// path).
    Config(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store io error: {m}"),
            StoreError::Corrupt(m) => write!(f, "store corruption: {m}"),
            StoreError::Config(m) => write!(f, "store config error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StoreError>;

/// One mutation inside an atomic batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOp {
    /// Insert or overwrite `key`.
    Put {
        /// The key within the namespace.
        key: String,
        /// The value bytes.
        value: Vec<u8>,
    },
    /// Remove `key` (a no-op when absent).
    Delete {
        /// The key within the namespace.
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

    /// The key this op touches.
    pub fn key(&self) -> &str {
        match self {
            StoreOp::Put { key, .. } | StoreOp::Delete { key } => key,
        }
    }
}

/// The persistence contract every backend implements: namespaced key →
/// bytes with ordered scans and atomic batch appends.
///
/// Namespaces are flat UTF-8 strings (`"registry/journal"`, ...);
/// backends may encode them into paths however they like.
/// Implementations must be `Send + Sync` — the serving layer appends from
/// many worker threads.
pub trait StoreBackend: Send + Sync + fmt::Debug {
    /// Reads one key. `Ok(None)` when absent.
    fn get(&self, ns: &str, key: &str) -> Result<Option<Vec<u8>>>;

    /// All live entries of a namespace, in ascending key order. An unknown
    /// namespace is an empty scan, not an error.
    fn scan(&self, ns: &str) -> Result<Vec<(String, Vec<u8>)>>;

    /// Applies `ops` atomically: after a crash, recovery observes either
    /// the whole batch or none of it.
    fn append_batch(&self, ns: &str, ops: Vec<StoreOp>) -> Result<()>;

    /// Forces buffered writes down to the backing medium.
    fn flush(&self) -> Result<()>;

    /// A short static name (`"mem"` / `"log"`) for stats and logs.
    fn backend_name(&self) -> &'static str;
}

/// Which backend a [`StoreConfig`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// [`MemStore`] — volatile, zero-config default.
    Mem,
    /// [`LogStore`] — append-only files, crash-safe.
    Log,
}

/// Declarative store selection, deserializable straight out of a CLI spec
/// (`{"backend": "log", "path": "/var/lib/qvsec"}`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreConfig {
    /// Backend name: `"mem"` (default) or `"log"`.
    pub backend: Option<String>,
    /// Root directory for file-backed backends.
    pub path: Option<String>,
    /// `LogStore` compaction threshold: a namespace file growing past this
    /// many bytes is rewritten to its live contents (default 8 MiB; `0`
    /// disables compaction).
    pub compact_threshold_bytes: Option<u64>,
}

impl StoreConfig {
    /// A `LogStore` rooted at `path` with default compaction.
    pub fn log_at(path: impl Into<String>) -> Self {
        StoreConfig {
            backend: Some("log".to_string()),
            path: Some(path.into()),
            compact_threshold_bytes: None,
        }
    }

    /// The parsed backend kind.
    pub fn kind(&self) -> Result<BackendKind> {
        match self.backend.as_deref() {
            None | Some("mem") => Ok(BackendKind::Mem),
            Some("log") => Ok(BackendKind::Log),
            Some(other) => Err(StoreError::Config(format!(
                "unknown store backend `{other}` (expected mem | log)"
            ))),
        }
    }
}

/// Default [`LogStore`] compaction threshold (8 MiB).
pub const DEFAULT_COMPACT_THRESHOLD: u64 = 8 * 1024 * 1024;

/// Opens the backend a [`StoreConfig`] describes.
pub fn open_store(config: &StoreConfig) -> Result<Arc<dyn StoreBackend>> {
    let path = || -> Result<PathBuf> {
        config
            .path
            .as_deref()
            .map(PathBuf::from)
            .ok_or_else(|| StoreError::Config("file-backed store needs a `path`".to_string()))
    };
    Ok(match config.kind()? {
        BackendKind::Mem => Arc::new(MemStore::new()),
        BackendKind::Log => Arc::new(LogStore::open(
            path()?,
            config
                .compact_threshold_bytes
                .unwrap_or(DEFAULT_COMPACT_THRESHOLD),
        )?),
    })
}

/// Encodes a namespace (or any key-ish string) into a filesystem-safe file
/// name: `[A-Za-z0-9._-]` pass through, everything else becomes `%XX`. The
/// encoding is injective and its output never holds `/`, so callers also
/// use it to join client-chosen parts into one key without collisions.
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
        assert_eq!(store.get("ns", "a").unwrap(), None);
        assert!(
            store.scan("ns").unwrap().is_empty(),
            "unknown ns scans empty"
        );
        store
            .append_batch(
                "ns",
                vec![
                    StoreOp::put("b", b"2".to_vec()),
                    StoreOp::put("a", b"1".to_vec()),
                ],
            )
            .unwrap();
        store
            .append_batch("other", vec![StoreOp::put("a", b"x".to_vec())])
            .unwrap();
        assert_eq!(store.get("ns", "a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(store.get("other", "a").unwrap(), Some(b"x".to_vec()));
        // Scans are key-ordered regardless of insertion order.
        let entries = store.scan("ns").unwrap();
        assert_eq!(
            entries,
            vec![
                ("a".to_string(), b"1".to_vec()),
                ("b".to_string(), b"2".to_vec())
            ]
        );
        // Overwrite and delete in one batch.
        store
            .append_batch(
                "ns",
                vec![StoreOp::put("a", b"11".to_vec()), StoreOp::delete("b")],
            )
            .unwrap();
        assert_eq!(store.get("ns", "a").unwrap(), Some(b"11".to_vec()));
        assert_eq!(store.get("ns", "b").unwrap(), None);
        assert_eq!(store.scan("ns").unwrap().len(), 1);
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
        let mem = open_store(&StoreConfig {
            backend: None,
            path: None,
            compact_threshold_bytes: None,
        })
        .unwrap();
        assert_eq!(mem.backend_name(), "mem");

        let dir = testutil::scratch_dir("factory");
        let log = open_store(&StoreConfig::log_at(dir.display().to_string())).unwrap();
        assert_eq!(log.backend_name(), "log");

        assert!(matches!(
            open_store(&StoreConfig {
                backend: Some("log".to_string()),
                path: None,
                compact_threshold_bytes: None,
            }),
            Err(StoreError::Config(_))
        ));
        for retired in ["warp", "kv"] {
            let err = open_store(&StoreConfig {
                backend: Some(retired.to_string()),
                path: Some(dir.display().to_string()),
                compact_threshold_bytes: None,
            })
            .unwrap_err();
            assert!(
                err.to_string().contains("expected mem | log"),
                "{retired}: {err}"
            );
        }
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
