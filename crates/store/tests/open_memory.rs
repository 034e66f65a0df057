//! `LogStore::open` holds its live entries plus one record, never the whole
//! file. A counting global allocator measures the heap `open` adds on the
//! calling thread (it spawns none), so the tests in this binary may run in
//! parallel.

use qvsec_store::{LogStore, StoreBackend, StoreOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

/// The store's file under its root (the on-disk name the format fixes).
const FILE_NAME: &str = "registry%2fjournal.log";

/// A larger single request fails (aborting the test) instead of committing
/// the memory a length read from a torn header could claim.
const LARGEST_ALLOCATION: usize = 64 << 20;

thread_local! {
    /// Heap bytes this thread holds, and their peak since the last reset.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn shrank(bytes: usize) {
    // A block freed on another thread than the one that allocated it
    // leaves this thread's count low; it never wraps.
    LIVE.with(|l| l.set(l.get().saturating_sub(bytes)));
}

struct Counting;

// SAFETY: both methods forward to `System` with the caller's pointer and
// layout unchanged, or return null (an allocation failure the contract
// allows); the default `realloc` goes through them. The bookkeeping only
// touches const-initialised thread-locals without destructors, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > LARGEST_ALLOCATION {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller upholds `alloc`'s contract, which is `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the most heap it held on this thread
/// beyond what the thread held before.
fn peak_heap_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qvsec-store-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn open_holds_the_live_entries_not_the_history() {
    let dir = scratch_dir("open-history");
    let value = vec![7u8; 1024];
    {
        // Threshold 0 never compacts, so every superseded record stays.
        let store = LogStore::open(dir.clone(), 0).unwrap();
        for i in 0..8 * 1024 {
            store
                .append_batch(vec![StoreOp::put(format!("k{}", i % 4), value.clone())])
                .unwrap();
        }
    }
    let file_len = std::fs::metadata(dir.join(FILE_NAME)).unwrap().len();
    assert!(file_len >= 8 << 20, "{file_len} B of history");
    let (store, peak) = peak_heap_of(|| LogStore::open(dir.clone(), 0).unwrap());
    assert!(
        peak < 1 << 20,
        "open held {peak} B of heap replaying a {file_len} B file"
    );
    let entries = store.scan().unwrap();
    assert_eq!(entries.len(), 4);
    assert!(entries.iter().all(|(_, v)| *v == value));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_header_claiming_four_gib_is_truncated_without_allocating_it() {
    let dir = scratch_dir("open-torn-header");
    let path = dir.join(FILE_NAME);
    let mut keys = 0;
    {
        let store = LogStore::open(dir.clone(), 0).unwrap();
        while std::fs::metadata(&path).unwrap().len() < 1024 - 8 {
            store
                .append_batch(vec![StoreOp::put(format!("k{keys}"), b"v".to_vec())])
                .unwrap();
            keys += 1;
        }
    }
    let valid = std::fs::read(&path).unwrap();
    // The last header claims a u32::MAX-byte payload that was never written.
    let mut torn = valid.clone();
    torn.extend_from_slice(&u32::MAX.to_le_bytes());
    torn.extend_from_slice(&0u32.to_le_bytes());
    std::fs::write(&path, &torn).unwrap();
    let (store, peak) = peak_heap_of(|| LogStore::open(dir.clone(), 0).unwrap());
    assert!(
        peak < 64 << 10,
        "open held {peak} B of heap for a 1 KiB file"
    );
    assert_eq!(std::fs::read(&path).unwrap(), valid, "torn frame truncated");
    assert_eq!(store.scan().unwrap().len(), keys);
    let _ = std::fs::remove_dir_all(&dir);
}
