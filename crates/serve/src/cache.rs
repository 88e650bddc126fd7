//! The content-addressed result cache: a bounded in-memory LRU tier in
//! front of an optional crash-safe disk tier.
//!
//! The key is an FNV-1a hash over the serialized program image plus the
//! canonical configuration parameters; the value is the complete
//! rendered response body. Because the simulator is deterministic, a
//! hit and the miss that populated it return byte-identical bodies —
//! the service-level analogue of the paper's reuse buffer, where a
//! recognized (program, config) pair short-circuits re-execution. And
//! like the paper's RB, the buffer is *managed*: both tiers are
//! bounded (entries and bytes in memory, bytes on disk) with LRU
//! eviction, so a hostile or merely long-lived workload cannot grow
//! the cache without bound.
//!
//! A memory hit answers `X-Cache: hit`; a disk hit (after a restart,
//! or after memory eviction) re-verifies the stored frame, promotes
//! the body back into memory, and answers `X-Cache: hit-disk`. A
//! corrupted disk entry is quarantined by the store and surfaces here
//! as a plain miss — never wrong bytes, never a panic.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::store::{DiskStore, StoreStats};

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a sequence of byte chunks, hashing a separator byte
/// between chunks so `["ab", "c"]` and `["a", "bc"]` differ.
pub fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut hash = FNV_OFFSET_BASIS;
    let mut step = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    };
    for (i, chunk) in chunks.iter().enumerate() {
        if i > 0 {
            step(0xff);
        }
        for &byte in *chunk {
            step(byte);
        }
    }
    hash
}

/// Which tier answered a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitTier {
    /// Answered from the in-memory LRU (`X-Cache: hit`).
    Memory,
    /// Answered from the disk store (`X-Cache: hit-disk`).
    Disk,
}

struct MemEntry {
    body: Arc<String>,
    seq: u64,
}

struct MemInner {
    /// key → body + recency sequence.
    map: BTreeMap<u64, MemEntry>,
    /// recency sequence → key (ascending = least recently used first).
    recency: BTreeMap<u64, u64>,
    next_seq: u64,
    bytes: u64,
    evicted: u64,
}

impl MemInner {
    fn touch(&mut self, key: u64) {
        let Some(entry) = self.map.get_mut(&key) else {
            return;
        };
        self.recency.remove(&entry.seq);
        entry.seq = self.next_seq;
        self.recency.insert(self.next_seq, key);
        self.next_seq += 1;
    }

    fn insert(&mut self, key: u64, body: Arc<String>, max_entries: usize, max_bytes: u64) {
        let body_bytes = body.len() as u64;
        if body_bytes > max_bytes || max_entries == 0 {
            return; // never cacheable in memory; the disk tier may still hold it
        }
        if let Some(old) = self.map.remove(&key) {
            self.recency.remove(&old.seq);
            self.bytes = self.bytes.saturating_sub(old.body.len() as u64);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.map.insert(key, MemEntry { body, seq });
        self.recency.insert(seq, key);
        self.bytes += body_bytes;
        while self.map.len() > max_entries || self.bytes > max_bytes {
            let Some((&victim_seq, &victim_key)) = self.recency.iter().next() else {
                break;
            };
            if victim_key == key {
                break; // never evict the entry just inserted
            }
            self.recency.remove(&victim_seq);
            if let Some(old) = self.map.remove(&victim_key) {
                self.bytes = self.bytes.saturating_sub(old.body.len() as u64);
            }
            self.evicted += 1;
        }
    }
}

/// The two-tier bounded result cache.
pub struct ResultCache {
    mem: Mutex<MemInner>,
    max_entries: usize,
    max_bytes: u64,
    store: Option<DiskStore>,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("entries", &self.len())
            .field("max_entries", &self.max_entries)
            .field("max_bytes", &self.max_bytes)
            .field("store", &self.store)
            .finish()
    }
}

impl ResultCache {
    /// An empty cache holding at most `max_entries` bodies totalling at
    /// most `max_bytes` in memory, with `store` as the durable tier.
    pub fn new(max_entries: usize, max_bytes: u64, store: Option<DiskStore>) -> ResultCache {
        ResultCache {
            mem: Mutex::new(MemInner {
                map: BTreeMap::new(),
                recency: BTreeMap::new(),
                next_seq: 0,
                bytes: 0,
                evicted: 0,
            }),
            max_entries,
            max_bytes,
            store,
        }
    }

    /// Looks up `key`: memory first, then the disk tier (promoting a
    /// verified disk body back into memory).
    pub fn get(&self, key: u64) -> Option<(Arc<String>, HitTier)> {
        {
            let mut mem = self.lock();
            if let Some(entry) = mem.map.get(&key) {
                let body = Arc::clone(&entry.body);
                mem.touch(key);
                return Some((body, HitTier::Memory));
            }
        }
        let store = self.store.as_ref()?;
        let bytes = store.load(key)?;
        // The frame checksum already vouched for these bytes; they were
        // written from a `String`, so this conversion cannot fail in
        // practice — but a failure must still read as a miss.
        let body = Arc::new(String::from_utf8(bytes).ok()?);
        self.lock()
            .insert(key, Arc::clone(&body), self.max_entries, self.max_bytes);
        Some((body, HitTier::Disk))
    }

    /// Inserts `body` under `key` into both tiers.
    pub fn insert(&self, key: u64, body: Arc<String>) {
        if let Some(store) = &self.store {
            store.insert(key, body.as_bytes());
        }
        self.lock()
            .insert(key, body, self.max_entries, self.max_bytes);
    }

    /// Number of entries currently held in memory.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the memory tier holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total body bytes currently held in memory.
    pub fn mem_bytes(&self) -> u64 {
        self.lock().bytes
    }

    /// Entries evicted from the memory tier since startup.
    pub fn mem_evicted(&self) -> u64 {
        self.lock().evicted
    }

    /// Disk-tier statistics, when a disk tier is configured.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(DiskStore::stats)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemInner> {
        // A panicking job cannot hold this lock (jobs touch the cache
        // only after simulation finishes), but stay poison-safe anyway.
        self.mem.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    fn body(text: &str) -> Arc<String> {
        Arc::new(text.to_string())
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/scratch/cache")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv_distinguishes_chunk_boundaries() {
        assert_ne!(fnv1a64(&[b"ab", b"c"]), fnv1a64(&[b"a", b"bc"]));
        assert_ne!(fnv1a64(&[b"ab"]), fnv1a64(&[b"ab", b""]));
        assert_eq!(fnv1a64(&[b"ab", b"c"]), fnv1a64(&[b"ab", b"c"]));
        // Reference vector: FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a64(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn lru_evicts_the_coldest_entry_at_the_entry_bound() {
        let cache = ResultCache::new(2, 1 << 20, None);
        assert!(cache.is_empty());
        cache.insert(1, body("one"));
        cache.insert(2, body("two"));
        // Touch 1 so 2 is the LRU victim when 3 arrives.
        assert!(cache.get(1).is_some());
        cache.insert(3, body("three"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.mem_evicted(), 1);
        assert!(cache.get(2).is_none(), "LRU entry evicted");
        assert_eq!(
            cache.get(1).map(|(b, _)| b.to_string()),
            Some("one".to_string())
        );
        assert_eq!(
            cache.get(3).map(|(b, _)| b.to_string()),
            Some("three".to_string())
        );
    }

    #[test]
    fn byte_bound_holds_even_for_few_entries() {
        let cache = ResultCache::new(1024, 10, None);
        cache.insert(1, body("aaaa"));
        cache.insert(2, body("bbbb"));
        cache.insert(3, body("cccc"));
        assert!(cache.mem_bytes() <= 10, "bytes: {}", cache.mem_bytes());
        assert_eq!(cache.mem_evicted(), 1);
        // A body over the byte budget is simply not retained.
        cache.insert(4, body("xxxxxxxxxxxxxxxx"));
        assert!(cache.get(4).is_none());
        // Re-inserting an existing key replaces, not duplicates.
        cache.insert(3, body("c'"));
        assert_eq!(
            cache.get(3).map(|(b, _)| b.to_string()),
            Some("c'".to_string())
        );
    }

    #[test]
    fn disk_tier_answers_after_memory_eviction_and_promotes() {
        let dir = scratch("promote");
        let store = DiskStore::open(&dir, 1 << 20, None).expect("open");
        let cache = ResultCache::new(1, 1 << 20, Some(store));
        cache.insert(1, body("first"));
        cache.insert(2, body("second")); // evicts 1 from memory; disk keeps both
        let (b, tier) = cache.get(1).expect("disk hit");
        assert_eq!(tier, HitTier::Disk);
        assert_eq!(b.as_str(), "first");
        // Promoted back into memory: the next hit is a memory hit.
        let (_, tier) = cache.get(1).expect("mem hit");
        assert_eq!(tier, HitTier::Memory);
    }
}
