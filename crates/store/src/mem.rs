//! The in-process backend: one ordered map behind one mutex.
//!
//! `MemStore` is the test fake of the [`StoreBackend`] contract: it keeps
//! the live state a [`crate::LogStore`] would, in memory only, so its state
//! dies with the process.

use crate::{apply, Result, StoreBackend, StoreOp};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Volatile store: one ordered key map.
#[derive(Debug, Default)]
pub struct MemStore {
    map: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }
}

impl StoreBackend for MemStore {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        Ok(self
            .map
            .lock()
            .expect("mem store poisoned")
            .get(key)
            .cloned())
    }

    fn scan(&self) -> Result<Vec<(String, Vec<u8>)>> {
        let map = self.map.lock().expect("mem store poisoned");
        Ok(map.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
    }

    fn append_batch(&self, ops: Vec<StoreOp>) -> Result<()> {
        apply(&mut self.map.lock().expect("mem store poisoned"), ops);
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        Ok(())
    }

    fn backend_name(&self) -> &'static str {
        "mem"
    }
}
