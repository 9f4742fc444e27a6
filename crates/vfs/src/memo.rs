//! Content-addressed memo store for incremental analyze.
//!
//! A campaign that splits `analyze` into declared sub-steps needs a
//! place to park each sub-step's serialized artifact, keyed by *what
//! the sub-step read* — the [`crate::ReadLedger`] fingerprint stream
//! of its input files. This store is that place: a thin key → value
//! index over the same content-addressed [`BlobStore`] tier the
//! checkpoint store rides, so identical artifacts dedup across
//! sub-steps, campaigns, and processes, and a disk-backed store
//! directory is shareable between worker processes exactly like the
//! checkpoint store's.
//!
//! ## Shape
//!
//! * **Keys** are opaque byte strings (the caller encodes app name,
//!   sub-step name, and ledger fingerprints); they are hashed to a
//!   32-byte address. The index maps key address → value blob hash.
//! * **Values** are opaque byte strings stored in the [`BlobStore`]
//!   (memory tier + optional CRC-framed disk tier).
//! * **Single flight** — [`MemoStore::get_or_compute`] guarantees one
//!   computation per key across racing threads: late arrivals block on
//!   a condvar until the builder publishes (or fails, in which case one
//!   waiter takes over). Same idiom as `CheckpointStore::get_or_build`.
//! * **Counters** — hits, misses, and invalidations
//!   ([`MemoStats`]) ride alongside the blob tier's [`BlobStats`];
//!   campaigns surface both. An *invalidation* is recorded by the
//!   campaign layer when a fault injection dirties a sub-step whose
//!   golden artifact was cached — the dirty-cascade counter.
//!
//! ## Disk layout
//!
//! `<dir>/index/<2 hex>/<64 hex>.memo` holds one `key address → value
//! hash` entry, framed `magic | key 32B | value 32B | crc32`; values
//! live under `<dir>/blobs/` in standard blob frames. Torn or
//! bit-rotted index frames are deleted and read as a miss — corruption
//! costs a recompute, never a wrong artifact, because the value fetch
//! re-verifies content hashes end to end.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::blobs::{hash_hex, install_once, sha256, BlobHash, BlobStats, BlobStore};
use crate::codec::{crc32, Reader};

const INDEX_MAGIC: &[u8; 8] = b"FFISMEM1";

/// Hit/miss/invalidation counters for a [`MemoStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the store (memory or disk tier).
    pub hits: u64,
    /// Lookups that required a fresh computation.
    pub misses: u64,
    /// Cached sub-step artifacts a fault injection dirtied — the
    /// dirty-cascade counter, recorded by the campaign layer via
    /// [`MemoStore::note_invalidations`].
    pub invalidations: u64,
}

impl MemoStats {
    /// Merge another snapshot (for aggregating across stores/cells).
    pub fn merge(&mut self, other: &MemoStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
    }
}

/// Key → artifact memo store over a content-addressed blob tier.
#[derive(Debug)]
pub struct MemoStore {
    blobs: BlobStore,
    index: Mutex<HashMap<BlobHash, BlobHash>>,
    building: Mutex<HashMap<BlobHash, ()>>,
    cond: Condvar,
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for MemoStore {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl MemoStore {
    /// Memory-only store (no persistence).
    pub fn in_memory() -> Self {
        MemoStore {
            blobs: BlobStore::in_memory(),
            index: Mutex::new(HashMap::new()),
            building: Mutex::new(HashMap::new()),
            cond: Condvar::new(),
            dir: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Disk-backed store rooted at `dir` (created if missing). The
    /// directory may be shared by any number of processes; entries are
    /// published with temp-file + rename, so racing writers converge
    /// on identical frames.
    pub fn at_dir(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir.join("index"))?;
        let blobs = BlobStore::at_dir(&dir.join("blobs"))?;
        let mut store = Self::in_memory();
        store.blobs = blobs;
        store.dir = Some(dir.to_path_buf());
        Ok(store)
    }

    /// The disk-tier root, when this store has one.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn index_path(&self, key: &BlobHash) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        let hex = hash_hex(key);
        Some(dir.join("index").join(&hex[..2]).join(format!("{}.memo", hex)))
    }

    /// Look `key` up without counting a hit or miss (internal; the
    /// public entry points do the accounting).
    fn lookup(&self, key: &BlobHash) -> Option<Arc<Vec<u8>>> {
        let cached = self.index.lock().unwrap_or_else(|e| e.into_inner()).get(key).copied();
        let value_hash = match cached {
            Some(h) => h,
            None => {
                let h = self.load_index_frame(key)?;
                self.index.lock().unwrap_or_else(|e| e.into_inner()).insert(*key, h);
                h
            }
        };
        // A missing value blob (pruned or corrupt disk tier) degrades
        // to a miss: the caller recomputes and re-publishes.
        self.blobs.get(&value_hash)
    }

    fn load_index_frame(&self, key: &BlobHash) -> Option<BlobHash> {
        let path = self.index_path(key)?;
        let raw = std::fs::read(&path).ok()?;
        match decode_index_frame(&raw, key) {
            Some(value) => Some(value),
            None => {
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    fn publish(&self, key: BlobHash, value: &[u8]) {
        let value_hash = self.blobs.put(value);
        self.index.lock().unwrap_or_else(|e| e.into_inner()).insert(key, value_hash);
        if let Some(path) = self.index_path(&key) {
            // Best-effort persistence, like the blob tier: a failed
            // index write degrades sharing, never a campaign.
            let _ = write_index_frame(&path, &key, &value_hash);
        }
    }

    /// Fetch the artifact stored under `key_material`, counting a hit
    /// or miss.
    pub fn get(&self, key_material: &[u8]) -> Option<Arc<Vec<u8>>> {
        let key = sha256(key_material);
        match self.lookup(&key) {
            Some(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store `value` under `key_material` (no counters; pairs with a
    /// preceding [`MemoStore::get`] miss).
    pub fn put(&self, key_material: &[u8], value: &[u8]) {
        self.publish(sha256(key_material), value);
    }

    /// Fetch the artifact under `key_material`, computing and
    /// publishing it on a miss. Racing callers for the same key
    /// compute once: late arrivals block until the builder publishes.
    /// A failed computation propagates to its caller and wakes one
    /// waiter to take over the build.
    pub fn get_or_compute(
        &self,
        key_material: &[u8],
        compute: impl FnOnce() -> Result<Vec<u8>, String>,
    ) -> Result<Arc<Vec<u8>>, String> {
        let key = sha256(key_material);
        loop {
            if let Some(value) = self.lookup(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(value);
            }
            let mut building = self.building.lock().unwrap_or_else(|e| e.into_inner());
            if building.contains_key(&key) {
                let _guard = self.cond.wait(building).unwrap_or_else(|e| e.into_inner());
                continue; // re-check the index; builder may have failed
            }
            building.insert(key, ());
            break;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Clear the building mark on every exit path (including a
        // panicking `compute`) so waiters are never stranded.
        struct BuildGuard<'a> {
            store: &'a MemoStore,
            key: BlobHash,
        }
        impl Drop for BuildGuard<'_> {
            fn drop(&mut self) {
                self.store.building.lock().unwrap_or_else(|e| e.into_inner()).remove(&self.key);
                self.store.cond.notify_all();
            }
        }
        let _guard = BuildGuard { store: self, key };
        let value = compute()?;
        self.publish(key, &value);
        Ok(Arc::new(value))
    }

    /// Record `n` dirty-cascade invalidations (cached sub-step
    /// artifacts a fault injection made unusable for one run).
    pub fn note_invalidations(&self, n: u64) {
        self.invalidations.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` artifact reuses served from plan-resident handles to
    /// store entries — callers that pin `Arc`s to hot artifacts at
    /// plan time report their per-run reuse here instead of re-hashing
    /// the key on every run.
    pub fn note_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Accounting for the underlying value blob tier.
    pub fn blob_stats(&self) -> BlobStats {
        self.blobs.stats()
    }
}

fn write_index_frame(path: &Path, key: &BlobHash, value: &BlobHash) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(8 + 32 + 32 + 4);
    frame.extend_from_slice(INDEX_MAGIC);
    frame.extend_from_slice(key);
    frame.extend_from_slice(value);
    let crc = crc32(&frame[8..]);
    frame.extend_from_slice(&crc.to_le_bytes());
    install_once(path, &frame)
}

fn decode_index_frame(raw: &[u8], expect_key: &BlobHash) -> Option<BlobHash> {
    let mut r = Reader::new(raw);
    if r.bytes(INDEX_MAGIC.len())? != INDEX_MAGIC {
        return None;
    }
    let addresses = r.bytes(64)?;
    if r.u32()? != crc32(addresses) || r.remaining() != 0 || addresses[..32] != expect_key[..] {
        return None;
    }
    addresses[32..].try_into().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_round_trip_counts_hits_and_misses() {
        let store = MemoStore::in_memory();
        assert!(store.get(b"k1").is_none());
        store.put(b"k1", b"artifact-1");
        assert_eq!(store.get(b"k1").unwrap().as_slice(), b"artifact-1");
        assert_eq!(store.stats(), MemoStats { hits: 1, misses: 1, invalidations: 0 });
        store.note_invalidations(3);
        assert_eq!(store.stats().invalidations, 3);
    }

    #[test]
    fn identical_values_dedup_in_the_blob_tier() {
        let store = MemoStore::in_memory();
        store.put(b"key-a", b"same bytes");
        store.put(b"key-b", b"same bytes");
        let stats = store.blob_stats();
        assert_eq!(stats.blobs, 1);
        assert_eq!(stats.dedup_hits, 1);
        assert_eq!(store.get(b"key-a").unwrap(), store.get(b"key-b").unwrap());
    }

    #[test]
    fn get_or_compute_is_single_flight() {
        let store = Arc::new(MemoStore::in_memory());
        let computed = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let store = Arc::clone(&store);
            let computed = Arc::clone(&computed);
            handles.push(std::thread::spawn(move || {
                store
                    .get_or_compute(b"shared-key", || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(b"built-once".to_vec())
                    })
                    .unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap().as_slice(), b"built-once");
        }
        assert_eq!(computed.load(Ordering::SeqCst), 1);
        let stats = store.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn failed_compute_wakes_a_waiter_to_take_over() {
        let store = MemoStore::in_memory();
        let err = store.get_or_compute(b"k", || Err::<Vec<u8>, _>("boom".into())).unwrap_err();
        assert_eq!(err, "boom");
        // The key is not poisoned: the next caller computes fresh.
        let ok = store.get_or_compute(b"k", || Ok(b"second try".to_vec())).unwrap();
        assert_eq!(ok.as_slice(), b"second try");
    }

    /// Byte pin: one memo index frame. Memo directories written by any
    /// earlier build must keep reopening, so these bytes are frozen.
    #[test]
    fn index_frame_bytes_are_pinned() {
        let dir = std::env::temp_dir().join(format!("ffis-memo-pin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        MemoStore::at_dir(&dir).unwrap().put(b"pin-key", b"pin-value");
        let hex = hash_hex(&sha256(b"pin-key"));
        let frame = dir.join("index").join(&hex[..2]).join(format!("{hex}.memo"));
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let pinned = concat!(
            "464649534d454d31", // magic "FFISMEM1"
            "90fb23de9c3d22d6b90b3d45d388524927569e2a0c4151090d3b173b8b1f6db8", // sha256(key)
            "2153ffce7a0419af789d7ddedb267e6a3398546326063fbb6469d66fc0ae42a8", // sha256(value)
            "6eaeb5e2",         // CRC over key and value addresses
        );
        assert_eq!(hex(&std::fs::read(&frame).unwrap()), pinned);
        let reopened = MemoStore::at_dir(&dir).unwrap();
        assert_eq!(reopened.get(b"pin-key").unwrap().as_slice(), b"pin-value");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_survives_a_fresh_store_and_discards_corrupt_frames() {
        let dir = std::env::temp_dir().join(format!("ffis-memo-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = MemoStore::at_dir(&dir).unwrap();
            store.put(b"persisted", b"value-bytes");
        }
        let reopened = MemoStore::at_dir(&dir).unwrap();
        assert_eq!(reopened.get(b"persisted").unwrap().as_slice(), b"value-bytes");
        assert_eq!(reopened.stats().hits, 1);

        // Corrupt the index frame: the entry reads as a miss and the
        // frame is deleted, never a wrong artifact.
        let key = sha256(b"persisted");
        let hex = hash_hex(&key);
        let frame = dir.join("index").join(&hex[..2]).join(format!("{}.memo", hex));
        let mut bytes = std::fs::read(&frame).unwrap();
        bytes[40] ^= 0xFF;
        std::fs::write(&frame, &bytes).unwrap();
        let torn = MemoStore::at_dir(&dir).unwrap();
        assert!(torn.get(b"persisted").is_none());
        assert!(!frame.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
