//! The append-only log backend.
//!
//! One file per namespace under the store's root directory. Every
//! [`append_batch`](crate::StoreBackend::append_batch) becomes exactly one
//! **record**:
//!
//! ```text
//! [u32 LE payload_len] [u32 LE fnv1a-32(payload)] [payload]
//! payload = op*   op = [u8 tag (0=put, 1=delete)]
//!                      [u32 LE key_len]  [key bytes]
//!                      [u32 LE val_len]  [val bytes]      (puts only)
//! ```
//!
//! Atomicity falls out of the framing: a crash mid-write leaves a torn
//! final record whose length or checksum cannot validate, and reopening
//! truncates the file back to the last valid record boundary — the batch
//! is recovered whole or not at all, never partially. The live state is a
//! replay of every surviving record in file order.
//!
//! A namespace file growing past the compaction threshold is rewritten to
//! a single record holding its live entries (written to a temp file,
//! synced, renamed over the original, then the directory synced), so
//! deletes and overwrites do not pin disk forever. The next compaction
//! waits until the file has also doubled since the last rewrite (or since
//! it was loaded), so a live set past the threshold — an append-only
//! journal, say — is rewritten O(log n) times, not on every append.
//!
//! Residency: a namespace file is read whole on first touch — every record
//! checksummed, superseded values dropped — and its live entries stay in
//! memory, so `get` and `scan` never read the file again. A namespace
//! costs memory in proportion to its live set, not its history: for the
//! serving registry's tenant state, O(tenants + snapshots).
//!
//! Durability: appends are written, not synced, so they survive the
//! process being killed at any point. [`flush`](crate::StoreBackend::flush)
//! syncs every loaded namespace file and then the root directory (so a
//! namespace file created since the last flush keeps its directory entry),
//! and a compaction syncs its rewrite and the directory before returning:
//! after power loss the store holds every record up to the last flush or
//! compaction.

use crate::{encode_component, fnv1a_32, Result, StoreBackend, StoreError, StoreOp};
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const TAG_PUT: u8 = 0;
const TAG_DELETE: u8 = 1;
const FRAME_HEADER: usize = 8;

/// One namespace's replayed state plus its open append handle.
#[derive(Debug)]
struct NsState {
    map: BTreeMap<String, Vec<u8>>,
    file: File,
    file_bytes: u64,
    /// File size the last compaction wrote (the replayed size on load);
    /// the next compaction waits for twice this.
    compacted_bytes: u64,
}

/// Append-only-file store with checksummed records and tail-truncation
/// recovery; record framing and compaction are documented in the
/// module-level docs above.
#[derive(Debug)]
pub struct LogStore {
    root: PathBuf,
    compact_threshold: u64,
    spaces: Mutex<HashMap<String, NsState>>,
}

fn encode_ops(ops: &[StoreOp]) -> Vec<u8> {
    let mut payload = Vec::new();
    for op in ops {
        match op {
            StoreOp::Put { key, value } => {
                payload.push(TAG_PUT);
                payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
                payload.extend_from_slice(key.as_bytes());
                payload.extend_from_slice(&(value.len() as u32).to_le_bytes());
                payload.extend_from_slice(value);
            }
            StoreOp::Delete { key } => {
                payload.push(TAG_DELETE);
                payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
                payload.extend_from_slice(key.as_bytes());
            }
        }
    }
    payload
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at + 4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Decodes one record payload into ops. `None` marks a malformed payload
/// (treated like a torn tail: the record and everything after it is
/// discarded).
fn decode_ops(payload: &[u8]) -> Option<Vec<StoreOp>> {
    let mut ops = Vec::new();
    let mut at = 0;
    while at < payload.len() {
        let tag = payload[at];
        at += 1;
        let key_len = read_u32(payload, at)? as usize;
        at += 4;
        let key = String::from_utf8(payload.get(at..at + key_len)?.to_vec()).ok()?;
        at += key_len;
        match tag {
            TAG_PUT => {
                let val_len = read_u32(payload, at)? as usize;
                at += 4;
                let value = payload.get(at..at + val_len)?.to_vec();
                at += val_len;
                ops.push(StoreOp::Put { key, value });
            }
            TAG_DELETE => ops.push(StoreOp::Delete { key }),
            _ => return None,
        }
    }
    Some(ops)
}

/// Replays `bytes` record by record. Returns the live map and the offset of
/// the first invalid byte (== `bytes.len()` for a clean file).
fn replay(bytes: &[u8]) -> (BTreeMap<String, Vec<u8>>, u64) {
    let mut map = BTreeMap::new();
    let mut at = 0usize;
    while let Some(payload_len) = read_u32(bytes, at) {
        let payload_len = payload_len as usize;
        let Some(checksum) = read_u32(bytes, at + 4) else {
            break;
        };
        let start = at + FRAME_HEADER;
        let Some(payload) = bytes.get(start..start + payload_len) else {
            break; // torn tail: the record was not fully written
        };
        if fnv1a_32(payload) != checksum {
            break; // torn or corrupted record
        }
        let Some(ops) = decode_ops(payload) else {
            break;
        };
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
        at = start + payload_len;
    }
    (map, at as u64)
}

impl LogStore {
    /// Opens (creating if needed) a log store rooted at `root`. Namespace
    /// files are replayed lazily on first touch. `compact_threshold` of `0`
    /// disables compaction.
    pub fn open(root: impl Into<PathBuf>, compact_threshold: u64) -> Result<LogStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| StoreError::Io(format!("create {}: {e}", root.display())))?;
        Ok(LogStore {
            root,
            compact_threshold,
            spaces: Mutex::new(HashMap::new()),
        })
    }

    fn ns_path(&self, ns: &str) -> PathBuf {
        self.root.join(format!("{}.log", encode_component(ns)))
    }

    /// Loads (replaying + truncating any torn tail) or returns the cached
    /// state of `ns`. The caller holds the `spaces` lock.
    fn load<'a>(
        &self,
        spaces: &'a mut HashMap<String, NsState>,
        ns: &str,
    ) -> Result<&'a mut NsState> {
        if !spaces.contains_key(ns) {
            let path = self.ns_path(ns);
            let mut file = OpenOptions::new()
                .read(true)
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| StoreError::Io(format!("open {}: {e}", path.display())))?;
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)
                .map_err(|e| StoreError::Io(format!("read {}: {e}", path.display())))?;
            let (map, valid_end) = replay(&bytes);
            if valid_end < bytes.len() as u64 {
                // Torn tail: drop the invalid suffix so the next append
                // starts on a clean record boundary.
                truncate_to(&path, valid_end)?;
                file = OpenOptions::new()
                    .read(true)
                    .append(true)
                    .open(&path)
                    .map_err(|e| StoreError::Io(format!("reopen {}: {e}", path.display())))?;
            }
            spaces.insert(
                ns.to_string(),
                NsState {
                    map,
                    file,
                    file_bytes: valid_end,
                    compacted_bytes: valid_end,
                },
            );
        }
        Ok(spaces.get_mut(ns).expect("just inserted"))
    }

    /// Syncs the root directory, making its entries — namespace files
    /// created since the last sync, a compaction's rename — durable.
    /// Directories cannot be opened for syncing off Unix; there this is a
    /// no-op.
    fn sync_dir(&self) -> Result<()> {
        #[cfg(unix)]
        File::open(&self.root)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| StoreError::Io(format!("sync {}: {e}", self.root.display())))?;
        Ok(())
    }

    /// Rewrites `ns` to a single record of its live entries.
    fn compact(&self, ns: &str, state: &mut NsState) -> Result<()> {
        let ops: Vec<StoreOp> = state
            .map
            .iter()
            .map(|(k, v)| StoreOp::put(k.clone(), v.clone()))
            .collect();
        let frame = frame_record(&ops);
        let path = self.ns_path(ns);
        let tmp = self.root.join(format!("{}.compact", encode_component(ns)));
        {
            let mut out = File::create(&tmp)
                .map_err(|e| StoreError::Io(format!("create {}: {e}", tmp.display())))?;
            out.write_all(&frame)
                .and_then(|_| out.sync_all())
                .map_err(|e| StoreError::Io(format!("write {}: {e}", tmp.display())))?;
        }
        std::fs::rename(&tmp, &path)
            .map_err(|e| StoreError::Io(format!("rename {}: {e}", path.display())))?;
        self.sync_dir()?;
        state.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| StoreError::Io(format!("reopen {}: {e}", path.display())))?;
        state.file_bytes = frame.len() as u64;
        state.compacted_bytes = state.file_bytes;
        Ok(())
    }
}

fn frame_record(ops: &[StoreOp]) -> Vec<u8> {
    let payload = encode_ops(ops);
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a_32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn truncate_to(path: &Path, len: u64) -> Result<()> {
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| StoreError::Io(format!("open {}: {e}", path.display())))?;
    file.set_len(len)
        .map_err(|e| StoreError::Io(format!("truncate {}: {e}", path.display())))?;
    Ok(())
}

impl StoreBackend for LogStore {
    fn get(&self, ns: &str, key: &str) -> Result<Option<Vec<u8>>> {
        let mut spaces = self.spaces.lock().expect("log store poisoned");
        Ok(self.load(&mut spaces, ns)?.map.get(key).cloned())
    }

    fn scan(&self, ns: &str) -> Result<Vec<(String, Vec<u8>)>> {
        let mut spaces = self.spaces.lock().expect("log store poisoned");
        Ok(self
            .load(&mut spaces, ns)?
            .map
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect())
    }

    fn append_batch(&self, ns: &str, ops: Vec<StoreOp>) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let _span = qvsec_obs::Span::enter("store.append");
        qvsec_obs::counter("store.appends").inc();
        let mut spaces = self.spaces.lock().expect("log store poisoned");
        let threshold = self.compact_threshold;
        let frame = frame_record(&ops);
        qvsec_obs::counter("store.appended_bytes").add(frame.len() as u64);
        let state = self.load(&mut spaces, ns)?;
        state
            .file
            .write_all(&frame)
            .map_err(|e| StoreError::Io(format!("append {ns}: {e}")))?;
        state.file_bytes += frame.len() as u64;
        for op in ops {
            match op {
                StoreOp::Put { key, value } => {
                    state.map.insert(key, value);
                }
                StoreOp::Delete { key } => {
                    state.map.remove(&key);
                }
            }
        }
        if threshold > 0 && state.file_bytes > threshold.max(2 * state.compacted_bytes) {
            self.compact(ns, state)?;
        }
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        let _span = qvsec_obs::Span::enter("store.flush");
        qvsec_obs::counter("store.flushes").inc();
        let spaces = self.spaces.lock().expect("log store poisoned");
        for (ns, state) in spaces.iter() {
            state
                .file
                .sync_all()
                .map_err(|e| StoreError::Io(format!("sync {ns}: {e}")))?;
        }
        self.sync_dir()
    }

    fn backend_name(&self) -> &'static str {
        "log"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scratch_dir;

    fn reopen(dir: &Path) -> LogStore {
        LogStore::open(dir.to_path_buf(), 0).unwrap()
    }

    #[test]
    fn state_survives_reopen() {
        let dir = scratch_dir("log-reopen");
        {
            let store = reopen(&dir);
            store
                .append_batch(
                    "a/b",
                    vec![
                        StoreOp::put("k1", b"v1".to_vec()),
                        StoreOp::put("k2", b"v2".to_vec()),
                    ],
                )
                .unwrap();
            store
                .append_batch("a/b", vec![StoreOp::delete("k1")])
                .unwrap();
            store.flush().unwrap();
        }
        let store = reopen(&dir);
        assert_eq!(store.get("a/b", "k1").unwrap(), None);
        assert_eq!(store.get("a/b", "k2").unwrap(), Some(b"v2".to_vec()));
        assert_eq!(store.scan("a/b").unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_byte_offset_recovers_a_record_prefix() {
        let dir = scratch_dir("log-torn");
        let store = reopen(&dir);
        // Three batches → three records; remember state after each.
        store
            .append_batch("ns", vec![StoreOp::put("a", b"1".to_vec())])
            .unwrap();
        store
            .append_batch(
                "ns",
                vec![StoreOp::put("b", b"22".to_vec()), StoreOp::delete("a")],
            )
            .unwrap();
        store
            .append_batch("ns", vec![StoreOp::put("c", b"333".to_vec())])
            .unwrap();
        store.flush().unwrap();
        let path = dir.join("ns.log");
        let full = std::fs::read(&path).unwrap();
        // Record boundaries, recomputed from the framing.
        let mut boundaries = vec![0usize];
        let mut at = 0usize;
        while at < full.len() {
            let len = u32::from_le_bytes(full[at..at + 4].try_into().unwrap()) as usize;
            at += FRAME_HEADER + len;
            boundaries.push(at);
        }
        drop(store);
        for cut in 0..=full.len() {
            // Simulate a crash that left only the first `cut` bytes.
            std::fs::write(&path, &full[..cut]).unwrap();
            let store = reopen(&dir);
            let entries = store.scan("ns").unwrap();
            // Recovery lands on the last whole record at or before the cut.
            let records = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            let expected: Vec<(String, Vec<u8>)> = match records {
                0 => vec![],
                1 => vec![("a".into(), b"1".to_vec())],
                2 => vec![("b".into(), b"22".to_vec())],
                _ => vec![("b".into(), b"22".to_vec()), ("c".into(), b"333".to_vec())],
            };
            assert_eq!(entries, expected, "cut at byte {cut}");
            // The truncated store accepts appends cleanly.
            store
                .append_batch("ns", vec![StoreOp::put("z", b"9".to_vec())])
                .unwrap();
            assert_eq!(store.get("ns", "z").unwrap(), Some(b"9".to_vec()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupted_checksum_truncates_that_record_and_its_suffix() {
        let dir = scratch_dir("log-corrupt");
        let store = reopen(&dir);
        store
            .append_batch("ns", vec![StoreOp::put("a", b"1".to_vec())])
            .unwrap();
        store
            .append_batch("ns", vec![StoreOp::put("b", b"2".to_vec())])
            .unwrap();
        store.flush().unwrap();
        drop(store);
        let path = dir.join("ns.log");
        let mut bytes = std::fs::read(&path).unwrap();
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize + FRAME_HEADER;
        // Flip a payload byte of the *second* record.
        bytes[first_len + FRAME_HEADER] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let store = reopen(&dir);
        assert_eq!(store.get("ns", "a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(store.get("ns", "b").unwrap(), None, "bad record dropped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_shrinks_the_file_and_preserves_live_state() {
        let dir = scratch_dir("log-compact");
        // Threshold small enough that churn triggers compaction.
        let store = LogStore::open(dir.clone(), 256).unwrap();
        for round in 0..64 {
            store
                .append_batch(
                    "ns",
                    vec![StoreOp::put("hot", format!("value-{round}").into_bytes())],
                )
                .unwrap();
        }
        store.flush().unwrap();
        let size = std::fs::metadata(dir.join("ns.log")).unwrap().len();
        assert!(size <= 256 + 64, "file stays near one live record: {size}");
        assert_eq!(
            store.get("ns", "hot").unwrap(),
            Some(b"value-63".to_vec()),
            "live value survives compaction"
        );
        drop(store);
        let store = reopen(&dir);
        assert_eq!(store.get("ns", "hot").unwrap(), Some(b"value-63".to_vec()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_live_set_past_the_threshold_is_rewritten_logarithmically_often() {
        // Distinct keys leave no garbage, so once the live set passes the
        // threshold a compaction reclaims nothing. Rewrites must then wait
        // for the file to double instead of firing on every append.
        let dir = scratch_dir("log-no-garbage");
        let store = LogStore::open(dir.clone(), 256).unwrap();
        let path = dir.join("ns.log");
        let appends = 400;
        let mut rewrites = 0;
        let mut size = 0;
        for i in 0..appends {
            let ops = vec![StoreOp::put(format!("key-{i:04}"), b"value".to_vec())];
            let frame = frame_record(&ops).len() as u64;
            store.append_batch("ns", ops).unwrap();
            let now = std::fs::metadata(&path).unwrap().len();
            // An append grows the file by its frame; a rewrite folds every
            // record into one, dropping the other frames' headers.
            if now != size + frame {
                assert!(now < size + frame, "append {i}: {size} + {frame} -> {now}");
                rewrites += 1;
            }
            size = now;
        }
        assert!(rewrites >= 1, "the threshold was crossed");
        assert!(
            rewrites <= 8,
            "{rewrites} rewrites for {appends} appends of distinct keys"
        );
        drop(store);
        let store = reopen(&dir);
        assert_eq!(store.scan("ns").unwrap().len(), appends);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn namespaces_map_to_disjoint_files() {
        let dir = scratch_dir("log-ns");
        let store = reopen(&dir);
        store
            .append_batch("x/y", vec![StoreOp::put("k", b"1".to_vec())])
            .unwrap();
        store
            .append_batch("x%2fy", vec![StoreOp::put("k", b"2".to_vec())])
            .unwrap();
        assert_eq!(store.get("x/y", "k").unwrap(), Some(b"1".to_vec()));
        assert_eq!(store.get("x%2fy", "k").unwrap(), Some(b"2".to_vec()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
