//! The append-only log backend.
//!
//! One file under the store's root directory. Every
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
//! is recovered whole or not at all, never partially. An append whose write
//! fails part-way leaves the same partial frame behind; the next append
//! truncates it first, so no later record lands behind it (where reopening
//! would drop it too). The live state is a replay of every surviving record
//! in file order.
//!
//! Compaction rewrites the file to a single record holding its live
//! entries (written to a temp file, synced, renamed over the original, then
//! the directory synced), so deletes and overwrites do not pin disk
//! forever. It runs at two points:
//!
//! * Before an append would take the file past the compaction threshold. A
//!   rewrite that fails fails that append before any of it is written. The
//!   next such compaction waits until the file has also doubled since the
//!   last rewrite (or since it was loaded), so a live set past the
//!   threshold — an append-only journal, say — is rewritten O(log n) times,
//!   not on every append.
//! * On [`flush`](crate::StoreBackend::flush), in place of syncing the
//!   file, when the file is more than twice the record its live entries
//!   would make. Only the live bytes are synced, and a drained server's
//!   next restart reads nothing else. A rewrite that fails fails the flush
//!   and leaves the file as it was.
//!
//! A threshold of `0` disables both.
//!
//! Residency: [`LogStore::open`] replays the file through a buffered
//! reader, one record at a time — every record checksummed, superseded
//! values dropped as it goes — so it holds the live entries plus one
//! record, never the whole file. Every live value stays in memory, so `get`
//! and `scan` never read the file again. The store costs memory in
//! proportion to its live set, not its history: for the serving registry's
//! tenant state, O(tenants + snapshots), demoted tenants included. Opening
//! still reads and checksums every byte of the file: after a flush at most
//! twice the live set, after a crash the history since the last compaction.
//!
//! Durability: appends are written, not synced, so they survive the
//! process being killed at any point. [`flush`](crate::StoreBackend::flush)
//! syncs the file (or its rewrite) and then the root directory (so a file
//! created since the last flush keeps its directory entry), and a
//! compaction syncs its rewrite and the directory before returning: after
//! power loss the store holds every record up to the last flush or
//! compaction.

use crate::{apply, fnv1a_32, Result, StoreBackend, StoreError, StoreOp};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const TAG_PUT: u8 = 0;
const TAG_DELETE: u8 = 1;
const FRAME_HEADER: usize = 8;

/// The store's file under its root. The name is the percent-encoded
/// `registry/journal` namespace earlier releases filed the journal under,
/// so their store directories open unchanged.
const FILE_NAME: &str = "registry%2fjournal.log";
/// The temp file a compaction writes before renaming it over the file.
const COMPACT_NAME: &str = "registry%2fjournal.compact";

/// The replayed state plus the open append handle.
#[derive(Debug)]
struct State {
    map: BTreeMap<String, Vec<u8>>,
    file: File,
    file_bytes: u64,
    /// File size the last compaction wrote (the replayed size on open);
    /// the next compaction waits for twice this.
    compacted_bytes: u64,
    /// Set when an append failed: the file may hold part of its frame past
    /// `file_bytes`, which the next append cuts off before writing.
    torn: bool,
}

/// Append-only-file store with checksummed records and tail-truncation
/// recovery; record framing and compaction are documented in the
/// module-level docs above.
#[derive(Debug)]
pub struct LogStore {
    root: PathBuf,
    compact_threshold: u64,
    state: Mutex<State>,
}

/// One op borrowed for encoding: its key, and its value (`None` deletes).
type OpRef<'a> = (&'a str, Option<&'a [u8]>);

fn op_ref(op: &StoreOp) -> OpRef<'_> {
    match op {
        StoreOp::Put { key, value } => (key, Some(value)),
        StoreOp::Delete { key } => (key, None),
    }
}

/// The live entries of `map`, as the puts of one record.
fn live_ops(map: &BTreeMap<String, Vec<u8>>) -> impl Iterator<Item = OpRef<'_>> + Clone {
    map.iter().map(|(k, v)| (k.as_str(), Some(v.as_slice())))
}

/// Bytes of the record that frames `ops`.
fn frame_len<'a>(ops: impl Iterator<Item = OpRef<'a>>) -> usize {
    let op_len = |(key, value): OpRef| 1 + 4 + key.len() + value.map_or(0, |v| 4 + v.len());
    FRAME_HEADER + ops.map(op_len).sum::<usize>()
}

/// Frames `ops` as one record, encoding each op once, straight into the
/// frame: the header is reserved, the ops written after it, then the
/// payload's length and checksum patched in.
fn frame_record<'a>(ops: impl Iterator<Item = OpRef<'a>> + Clone) -> Result<Vec<u8>> {
    let len = frame_len(ops.clone());
    // Every key and value length fits in a u32 once the payload's does.
    let payload_len = u32::try_from(len - FRAME_HEADER).map_err(|_| {
        StoreError::Io(format!("a {len}-byte record exceeds the 4 GiB frame limit"))
    })?;
    let mut frame = Vec::with_capacity(len);
    frame.extend_from_slice(&[0; FRAME_HEADER]);
    for (key, value) in ops {
        frame.push(if value.is_some() { TAG_PUT } else { TAG_DELETE });
        frame.extend_from_slice(&(key.len() as u32).to_le_bytes());
        frame.extend_from_slice(key.as_bytes());
        if let Some(value) = value {
            frame.extend_from_slice(&(value.len() as u32).to_le_bytes());
            frame.extend_from_slice(value);
        }
    }
    let checksum = fnv1a_32(&frame[FRAME_HEADER..]);
    frame[..4].copy_from_slice(&payload_len.to_le_bytes());
    frame[4..FRAME_HEADER].copy_from_slice(&checksum.to_le_bytes());
    Ok(frame)
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

/// Replays the file `reader` yields record by record, holding the live map
/// and one record. `file_len`, the file's size, bounds every frame: one
/// whose header or payload would run past it is a torn tail, and its
/// claimed length is never allocated. Returns the live map and the end of
/// the last valid record (`file_len` for a clean file); a read error is
/// returned, not taken for a torn tail.
fn replay(
    mut reader: impl Read,
    file_len: u64,
) -> std::io::Result<(BTreeMap<String, Vec<u8>>, u64)> {
    let mut map = BTreeMap::new();
    let mut payload = Vec::new();
    let mut at = 0u64;
    while file_len - at >= FRAME_HEADER as u64 {
        let mut header = [0; FRAME_HEADER];
        reader.read_exact(&mut header)?;
        let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
        let payload_len = u32::from_le_bytes([l0, l1, l2, l3]);
        let end = at + FRAME_HEADER as u64 + u64::from(payload_len);
        if end > file_len {
            break; // torn tail: the record was not fully written
        }
        payload.resize(payload_len as usize, 0);
        reader.read_exact(&mut payload)?;
        if fnv1a_32(&payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
            break; // torn or corrupted record
        }
        let Some(ops) = decode_ops(&payload) else {
            break;
        };
        apply(&mut map, ops);
        at = end;
    }
    Ok((map, at))
}

/// Opens `path` for appending (and reading), creating it when absent.
fn open_append(path: &Path) -> Result<File> {
    OpenOptions::new()
        .read(true)
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| StoreError::Io(format!("open {}: {e}", path.display())))
}

/// Truncates `path` to `len` bytes, through a handle of its own: an append
/// handle may not truncate off Unix.
fn truncate(path: &Path, len: u64) -> Result<()> {
    OpenOptions::new()
        .write(true)
        .open(path)
        .and_then(|f| f.set_len(len))
        .map_err(|e| StoreError::Io(format!("truncate {}: {e}", path.display())))
}

impl LogStore {
    /// Opens (creating if needed) the log store rooted at `root` and
    /// replays its file record by record, truncating any torn tail so the
    /// next append starts on a clean record boundary; a read error fails
    /// the open. `compact_threshold` of `0` disables compaction.
    pub fn open(root: impl Into<PathBuf>, compact_threshold: u64) -> Result<LogStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| StoreError::Io(format!("create {}: {e}", root.display())))?;
        let path = root.join(FILE_NAME);
        let file = open_append(&path)?;
        let read_error = |e| StoreError::Io(format!("read {}: {e}", path.display()));
        let file_len = file.metadata().map_err(read_error)?.len();
        let (map, valid_end) = replay(BufReader::new(&file), file_len).map_err(read_error)?;
        if valid_end < file_len {
            truncate(&path, valid_end)?;
        }
        Ok(LogStore {
            root,
            compact_threshold,
            state: Mutex::new(State {
                map,
                file,
                file_bytes: valid_end,
                compacted_bytes: valid_end,
                torn: false,
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("log store poisoned")
    }

    /// Syncs the root directory, making its entries — the file when created
    /// since the last sync, a compaction's rename — durable. Directories
    /// cannot be opened for syncing off Unix; there this is a no-op.
    fn sync_dir(&self) -> Result<()> {
        #[cfg(unix)]
        File::open(&self.root)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| StoreError::Io(format!("sync {}: {e}", self.root.display())))?;
        Ok(())
    }

    /// Rewrites the file to a single record of the live entries. Up to the
    /// rename a failure leaves the file as it was; after it, `state`
    /// already appends to the rewrite.
    fn compact(&self, state: &mut State) -> Result<()> {
        let frame = frame_record(live_ops(&state.map))?;
        let path = self.root.join(FILE_NAME);
        let tmp = self.root.join(COMPACT_NAME);
        {
            let mut out = File::create(&tmp)
                .map_err(|e| StoreError::Io(format!("create {}: {e}", tmp.display())))?;
            out.write_all(&frame)
                .and_then(|_| out.sync_all())
                .map_err(|e| StoreError::Io(format!("write {}: {e}", tmp.display())))?;
        }
        let file = open_append(&tmp)?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| StoreError::Io(format!("rename {}: {e}", path.display())))?;
        state.file = file;
        state.file_bytes = frame.len() as u64;
        state.compacted_bytes = state.file_bytes;
        self.sync_dir()
    }
}

impl StoreBackend for LogStore {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        Ok(self.lock().map.get(key).cloned())
    }

    fn scan(&self) -> Result<Vec<(String, Vec<u8>)>> {
        let state = self.lock();
        Ok(state
            .map
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect())
    }

    fn append_batch(&self, ops: Vec<StoreOp>) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let _span = qvsec_obs::Span::enter("store.append");
        qvsec_obs::counter("store.appends").inc();
        let frame = frame_record(ops.iter().map(op_ref))?;
        qvsec_obs::counter("store.appended_bytes").add(frame.len() as u64);
        let mut state = self.lock();
        if state.torn {
            // Left in place, a failed append's partial frame would end the
            // next open's replay, dropping every record written after it.
            truncate(&self.root.join(FILE_NAME), state.file_bytes)?;
            state.torn = false;
        }
        // Compact before the append that would cross the threshold, so a
        // failed compaction fails the batch before any of it is written.
        let grown = state.file_bytes + frame.len() as u64;
        let threshold = self.compact_threshold;
        if threshold > 0 && grown > threshold.max(2 * state.compacted_bytes) {
            self.compact(&mut state)?;
        }
        if let Err(e) = state.file.write_all(&frame) {
            state.torn = true;
            return Err(StoreError::Io(format!("append {FILE_NAME}: {e}")));
        }
        state.file_bytes += frame.len() as u64;
        apply(&mut state.map, ops);
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        let _span = qvsec_obs::Span::enter("store.flush");
        qvsec_obs::counter("store.flushes").inc();
        let mut state = self.lock();
        let live_bytes = frame_len(live_ops(&state.map)) as u64;
        if self.compact_threshold > 0 && state.file_bytes > 2 * live_bytes {
            // Mostly superseded records: sync only the live ones.
            return self.compact(&mut state);
        }
        state
            .file
            .sync_all()
            .map_err(|e| StoreError::Io(format!("sync {FILE_NAME}: {e}")))?;
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
                .append_batch(vec![
                    StoreOp::put("k1", b"v1".to_vec()),
                    StoreOp::put("k2", b"v2".to_vec()),
                ])
                .unwrap();
            store.append_batch(vec![StoreOp::delete("k1")]).unwrap();
            store.flush().unwrap();
        }
        let store = reopen(&dir);
        assert_eq!(store.get("k1").unwrap(), None);
        assert_eq!(store.get("k2").unwrap(), Some(b"v2".to_vec()));
        assert_eq!(store.scan().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_byte_offset_recovers_a_record_prefix() {
        let dir = scratch_dir("log-torn");
        let store = reopen(&dir);
        // Three batches → three records; remember state after each.
        store
            .append_batch(vec![StoreOp::put("a", b"1".to_vec())])
            .unwrap();
        store
            .append_batch(vec![
                StoreOp::put("b", b"22".to_vec()),
                StoreOp::delete("a"),
            ])
            .unwrap();
        store
            .append_batch(vec![StoreOp::put("c", b"333".to_vec())])
            .unwrap();
        store.flush().unwrap();
        let path = dir.join(FILE_NAME);
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
            let entries = store.scan().unwrap();
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
                .append_batch(vec![StoreOp::put("z", b"9".to_vec())])
                .unwrap();
            assert_eq!(store.get("z").unwrap(), Some(b"9".to_vec()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupted_checksum_truncates_that_record_and_its_suffix() {
        let dir = scratch_dir("log-corrupt");
        let store = reopen(&dir);
        store
            .append_batch(vec![StoreOp::put("a", b"1".to_vec())])
            .unwrap();
        store
            .append_batch(vec![StoreOp::put("b", b"2".to_vec())])
            .unwrap();
        store.flush().unwrap();
        drop(store);
        let path = dir.join(FILE_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize + FRAME_HEADER;
        // Flip a payload byte of the *second* record.
        bytes[first_len + FRAME_HEADER] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let store = reopen(&dir);
        assert_eq!(store.get("a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(store.get("b").unwrap(), None, "bad record dropped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_shrinks_the_file_and_preserves_live_state() {
        let dir = scratch_dir("log-compact");
        // Threshold small enough that churn triggers compaction.
        let store = LogStore::open(dir.clone(), 256).unwrap();
        for round in 0..64 {
            store
                .append_batch(vec![StoreOp::put(
                    "hot",
                    format!("value-{round}").into_bytes(),
                )])
                .unwrap();
        }
        store.flush().unwrap();
        let size = std::fs::metadata(dir.join(FILE_NAME)).unwrap().len();
        assert!(size <= 256 + 64, "file stays near one live record: {size}");
        assert_eq!(
            store.get("hot").unwrap(),
            Some(b"value-63".to_vec()),
            "live value survives compaction"
        );
        drop(store);
        let store = reopen(&dir);
        assert_eq!(store.get("hot").unwrap(), Some(b"value-63".to_vec()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_compaction_fails_its_batch_before_writing_it() {
        let dir = scratch_dir("log-compact-fails");
        let store = LogStore::open(dir.clone(), 256).unwrap();
        store
            .append_batch(vec![StoreOp::put("a", b"1".to_vec())])
            .unwrap();
        // A directory where the rewrite's temp file goes: compaction fails.
        std::fs::create_dir(dir.join(COMPACT_NAME)).unwrap();
        let past_threshold = vec![StoreOp::put("b", vec![0; 512])];
        assert!(store.append_batch(past_threshold).is_err());
        assert!(
            store.get("b").unwrap().is_none(),
            "the failed batch is live"
        );
        std::fs::remove_dir(dir.join(COMPACT_NAME)).unwrap();
        store
            .append_batch(vec![StoreOp::put("c", b"3".to_vec())])
            .unwrap();
        drop(store);
        let expected = vec![("a".into(), b"1".to_vec()), ("c".into(), b"3".to_vec())];
        assert_eq!(reopen(&dir).scan().unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_rewrites_a_file_past_twice_its_live_record_unless_compaction_is_off() {
        for threshold in [0, 1 << 20] {
            let dir = scratch_dir("log-flush-compacts");
            let path = dir.join(FILE_NAME);
            let store = LogStore::open(dir.clone(), threshold).unwrap();
            for round in 0..3 {
                let hot = format!("value-{round}").into_bytes();
                store
                    .append_batch(vec![StoreOp::put("hot", hot), StoreOp::put("cold", b"c")])
                    .unwrap();
            }
            let history = std::fs::read(&path).unwrap();
            store.flush().unwrap();
            let flushed = std::fs::read(&path).unwrap();
            if threshold == 0 {
                assert_eq!(flushed, history, "threshold 0 never rewrites");
            } else {
                let live = frame_record(live_ops(&store.lock().map)).unwrap();
                assert_eq!(flushed, live, "one record of the live entries");
            }
            store.flush().unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                flushed,
                "flushing a compact file changes no byte"
            );
            store.append_batch(vec![StoreOp::delete("cold")]).unwrap();
            drop(store);
            let expected = vec![("hot".to_string(), b"value-2".to_vec())];
            assert_eq!(reopen(&dir).scan().unwrap(), expected);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_failed_compacting_flush_leaves_the_file_as_it_was() {
        let dir = scratch_dir("log-flush-fails");
        let path = dir.join(FILE_NAME);
        let store = LogStore::open(dir.clone(), 1 << 20).unwrap();
        for round in 0..3 {
            store
                .append_batch(vec![StoreOp::put("a", vec![round; 16])])
                .unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        // A directory where the rewrite's temp file goes: compaction fails.
        std::fs::create_dir(dir.join(COMPACT_NAME)).unwrap();
        assert!(store.flush().is_err(), "the flush's rewrite cannot succeed");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "the file is untouched"
        );
        store
            .append_batch(vec![StoreOp::put("b", b"2".to_vec())])
            .unwrap();
        drop(store);
        let expected = vec![("a".into(), vec![2; 16]), ("b".into(), b"2".to_vec())];
        assert_eq!(reopen(&dir).scan().unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_append_leaves_no_partial_frame_before_the_next() {
        let dir = scratch_dir("log-failed-append");
        let path = dir.join(FILE_NAME);
        let store = reopen(&dir);
        store
            .append_batch(vec![StoreOp::put("a", b"1".to_vec())])
            .unwrap();
        // An append that fails part-way: the head of its frame reaches the
        // file, then the write errors (here on a read-only handle).
        let failed = vec![StoreOp::put("lost", b"x".to_vec())];
        OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(&frame_record(failed.iter().map(op_ref)).unwrap()[..5]))
            .unwrap();
        let handle = std::mem::replace(&mut store.lock().file, File::open(&path).unwrap());
        assert!(store.append_batch(failed).is_err());
        store.lock().file = handle;
        store
            .append_batch(vec![StoreOp::put("b", b"2".to_vec())])
            .unwrap();
        drop(store);
        let expected = vec![("a".into(), b"1".to_vec()), ("b".into(), b"2".to_vec())];
        assert_eq!(reopen(&dir).scan().unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_live_set_past_the_threshold_is_rewritten_logarithmically_often() {
        // Distinct keys leave no garbage, so once the live set passes the
        // threshold a compaction reclaims nothing. Rewrites must then wait
        // for the file to double instead of firing on every append.
        let dir = scratch_dir("log-no-garbage");
        let store = LogStore::open(dir.clone(), 256).unwrap();
        let path = dir.join(FILE_NAME);
        let appends = 400;
        let mut rewrites = 0;
        let mut size = 0;
        for i in 0..appends {
            let ops = vec![StoreOp::put(format!("key-{i:04}"), b"value".to_vec())];
            let frame = frame_len(ops.iter().map(op_ref)) as u64;
            store.append_batch(ops).unwrap();
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
        assert_eq!(store.scan().unwrap().len(), appends);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
