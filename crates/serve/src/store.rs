//! The disk tier of the content-addressed result cache.
//!
//! Every entry is one file under the configured cache directory,
//! written atomically (temp file + fsync + rename) and framed so that
//! a partial or corrupted file is *detected*, never served:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "VPSC"
//!      4     4  format version (u32 LE, currently 1)
//!      8     8  cache key (u64 LE) — must match the file name
//!     16     8  write sequence (u64 LE) — rebuilds LRU order on open
//!     24     8  body length in bytes (u64 LE)
//!     32     8  FNV-1a 64 checksum of the body (u64 LE)
//!     40     …  body bytes
//! ```
//!
//! A record that fails any check (magic, version, key, length,
//! checksum) is **quarantined**: renamed to `<name>.quarantine`,
//! dropped from the index, and counted — the caller sees a plain miss
//! and re-simulates, so corruption can cost latency but never
//! correctness. Crash safety follows from the write protocol: a
//! `kill -9` mid-write leaves only a `*.tmp` file (deleted on the next
//! open), so at most the in-flight entry is lost and every previously
//! completed entry is served back byte-identically after restart.
//!
//! Total disk usage is bounded: inserts evict least-recently-used
//! entries (by the persisted write sequence, refreshed on every hit)
//! until the configured byte budget is met.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::cache::fnv1a64;

const MAGIC: &[u8; 4] = b"VPSC";
const VERSION: u32 = 1;
/// Header bytes before the body.
pub const HEADER_BYTES: u64 = 40;

/// Deterministic fault injection for the chaos tests and the CI chaos
/// step: the *next* entry written to disk is damaged after the atomic
/// rename completes, exactly as latent media corruption would present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFault {
    /// Flip one byte in the middle of the stored body.
    CorruptNext,
    /// Truncate the stored file to half its length.
    TruncateNext,
}

impl StoreFault {
    /// Parses the `--inject-fault` vocabulary for the service.
    pub fn parse(spec: &str) -> Result<StoreFault, String> {
        match spec {
            "corrupt-store" => Ok(StoreFault::CorruptNext),
            "truncate-store" => Ok(StoreFault::TruncateNext),
            other => Err(format!(
                "unknown serve fault `{other}` (valid: corrupt-store, truncate-store)"
            )),
        }
    }
}

/// Point-in-time store statistics for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries currently indexed.
    pub entries: u64,
    /// Total file bytes currently indexed (headers included).
    pub bytes: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Entries quarantined after failing a frame check.
    pub quarantined: u64,
}

struct DiskMeta {
    seq: u64,
    file_bytes: u64,
}

struct StoreInner {
    /// key → metadata for every well-framed entry on disk.
    entries: BTreeMap<u64, DiskMeta>,
    /// recency sequence → key (ascending = least recently used first).
    recency: BTreeMap<u64, u64>,
    next_seq: u64,
    total_bytes: u64,
    evictions: u64,
    quarantined: u64,
    fault: Option<StoreFault>,
}

/// A bounded, crash-safe, content-addressed store of rendered response
/// bodies. All operations are infallible from the caller's view: any
/// I/O or framing problem degrades to a miss (plus a counter), because
/// the store is a cache, not a system of record.
pub struct DiskStore {
    dir: PathBuf,
    max_bytes: u64,
    inner: Mutex<StoreInner>,
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("DiskStore")
            .field("dir", &self.dir)
            .field("max_bytes", &self.max_bytes)
            .field("stats", &stats)
            .finish()
    }
}

impl DiskStore {
    /// Opens (creating if needed) the store under `dir`, rebuilding the
    /// index from the entry files already present: leftover `*.tmp`
    /// files from an interrupted write are deleted, files with an
    /// unreadable or inconsistent header are quarantined immediately,
    /// and LRU order is restored from each entry's persisted sequence.
    pub fn open(
        dir: &Path,
        max_bytes: u64,
        fault: Option<StoreFault>,
    ) -> std::io::Result<DiskStore> {
        fs::create_dir_all(dir)?;
        let mut inner = StoreInner {
            entries: BTreeMap::new(),
            recency: BTreeMap::new(),
            next_seq: 0,
            total_bytes: 0,
            evictions: 0,
            quarantined: 0,
            fault,
        };
        for item in fs::read_dir(dir)? {
            let Ok(item) = item else { continue };
            let path = item.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".tmp") {
                // A write was interrupted before its atomic rename; the
                // entry never existed as far as readers are concerned.
                let _ = fs::remove_file(&path);
                continue;
            }
            if !name.ends_with(".vpc") {
                continue;
            }
            match read_header(&path) {
                Some(header) if header_consistent(&header, name, &path) => {
                    let file_bytes = HEADER_BYTES + header.body_len;
                    let mut seq = header.seq;
                    while inner.recency.contains_key(&seq) {
                        seq += 1;
                    }
                    inner.recency.insert(seq, header.key);
                    inner
                        .entries
                        .insert(header.key, DiskMeta { seq, file_bytes });
                    inner.total_bytes += file_bytes;
                    inner.next_seq = inner.next_seq.max(seq + 1);
                }
                _ => {
                    quarantine_file(&path);
                    inner.quarantined += 1;
                }
            }
        }
        let store = DiskStore {
            dir: dir.to_path_buf(),
            max_bytes,
            inner: Mutex::new(inner),
        };
        // An older run may have written more than the current budget.
        store.with_inner(|inner, dir| evict_to_fit(inner, dir, max_bytes, None));
        Ok(store)
    }

    /// Loads the body stored under `key`, verifying the full frame
    /// (magic, version, key, length, checksum). Any failure quarantines
    /// the entry and reads as a miss.
    pub fn load(&self, key: u64) -> Option<Vec<u8>> {
        let path = self.entry_path(key);
        self.with_inner(|inner, _| {
            if !inner.entries.contains_key(&key) {
                return None;
            }
            match read_verified_body(&path, key) {
                Some(body) => {
                    touch(inner, key);
                    Some(body)
                }
                None => {
                    quarantine_file(&path);
                    inner.quarantined += 1;
                    remove_from_index(inner, key);
                    None
                }
            }
        })
    }

    /// Writes `body` under `key` atomically, then evicts LRU entries
    /// until the store fits its byte budget again. Failures are
    /// swallowed (the store is a cache); an oversized body is simply
    /// not persisted.
    pub fn insert(&self, key: u64, body: &[u8]) {
        let file_bytes = HEADER_BYTES + body.len() as u64;
        if file_bytes > self.max_bytes {
            return;
        }
        let final_path = self.entry_path(key);
        let tmp_path = self.dir.join(format!("{key:016x}.vpc.tmp"));
        self.with_inner(|inner, dir| {
            let seq = inner.next_seq;
            inner.next_seq += 1;
            let record = frame(key, seq, body);
            if write_atomic(&tmp_path, &final_path, dir, &record).is_err() {
                let _ = fs::remove_file(&tmp_path);
                return;
            }
            if let Some(fault) = inner.fault.take() {
                apply_fault(&final_path, fault, body.len());
            }
            if let Some(old) = inner.entries.remove(&key) {
                inner.recency.remove(&old.seq);
                inner.total_bytes = inner.total_bytes.saturating_sub(old.file_bytes);
            }
            inner.entries.insert(key, DiskMeta { seq, file_bytes });
            inner.recency.insert(seq, key);
            inner.total_bytes += file_bytes;
            evict_to_fit(inner, dir, self.max_bytes, Some(seq));
        });
    }

    /// Current statistics (entries, bytes, evictions, quarantined).
    pub fn stats(&self) -> StoreStats {
        self.with_inner(|inner, _| StoreStats {
            entries: inner.entries.len() as u64,
            bytes: inner.total_bytes,
            evictions: inner.evictions,
            quarantined: inner.quarantined,
        })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.vpc"))
    }

    fn with_inner<T>(&self, f: impl FnOnce(&mut StoreInner, &Path) -> T) -> T {
        // Nothing run under this lock can panic (all file errors are
        // handled), but recover from poisoning anyway.
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut guard, &self.dir)
    }
}

/// Refreshes `key`'s recency to now.
fn touch(inner: &mut StoreInner, key: u64) {
    let Some(meta) = inner.entries.get_mut(&key) else {
        return;
    };
    let old_seq = meta.seq;
    let seq = inner.next_seq;
    inner.next_seq += 1;
    meta.seq = seq;
    inner.recency.remove(&old_seq);
    inner.recency.insert(seq, key);
}

fn remove_from_index(inner: &mut StoreInner, key: u64) {
    if let Some(meta) = inner.entries.remove(&key) {
        inner.recency.remove(&meta.seq);
        inner.total_bytes = inner.total_bytes.saturating_sub(meta.file_bytes);
    }
}

/// Deletes least-recently-used entries until the budget is met.
/// `keep_seq` protects the entry just inserted from evicting itself.
fn evict_to_fit(inner: &mut StoreInner, dir: &Path, max_bytes: u64, keep_seq: Option<u64>) {
    while inner.total_bytes > max_bytes {
        let Some((&seq, &key)) = inner.recency.iter().next() else {
            break;
        };
        if Some(seq) == keep_seq {
            break;
        }
        inner.recency.remove(&seq);
        if let Some(meta) = inner.entries.remove(&key) {
            inner.total_bytes = inner.total_bytes.saturating_sub(meta.file_bytes);
        }
        let _ = fs::remove_file(dir.join(format!("{key:016x}.vpc")));
        inner.evictions += 1;
    }
}

struct Header {
    key: u64,
    seq: u64,
    body_len: u64,
    checksum: u64,
}

fn frame(key: u64, seq: u64, body: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(HEADER_BYTES as usize + body.len());
    record.extend_from_slice(MAGIC);
    record.extend_from_slice(&VERSION.to_le_bytes());
    record.extend_from_slice(&key.to_le_bytes());
    record.extend_from_slice(&seq.to_le_bytes());
    record.extend_from_slice(&(body.len() as u64).to_le_bytes());
    record.extend_from_slice(&fnv1a64(&[body]).to_le_bytes());
    record.extend_from_slice(body);
    record
}

fn parse_header(bytes: &[u8]) -> Option<Header> {
    if bytes.get(..4) != Some(MAGIC.as_slice()) {
        return None;
    }
    let version = u32::from_le_bytes(bytes.get(4..8)?.try_into().ok()?);
    if version != VERSION {
        return None;
    }
    Some(Header {
        key: u64::from_le_bytes(bytes.get(8..16)?.try_into().ok()?),
        seq: u64::from_le_bytes(bytes.get(16..24)?.try_into().ok()?),
        body_len: u64::from_le_bytes(bytes.get(24..32)?.try_into().ok()?),
        checksum: u64::from_le_bytes(bytes.get(32..40)?.try_into().ok()?),
    })
}

/// Reads and parses just the header of an entry file.
fn read_header(path: &Path) -> Option<Header> {
    use std::io::Read as _;
    let mut file = fs::File::open(path).ok()?;
    let mut head = [0u8; HEADER_BYTES as usize];
    file.read_exact(&mut head).ok()?;
    parse_header(&head)
}

/// Startup check: the header must name this file and declare exactly
/// the bytes the file holds (a truncated tail fails here).
fn header_consistent(header: &Header, name: &str, path: &Path) -> bool {
    let named_key = name
        .strip_suffix(".vpc")
        .and_then(|stem| u64::from_str_radix(stem, 16).ok());
    let Ok(meta) = fs::metadata(path) else {
        return false;
    };
    named_key == Some(header.key) && meta.len() == HEADER_BYTES + header.body_len
}

/// Full read + verification of one entry: every frame field is checked
/// and the body checksum recomputed before a single byte is trusted.
fn read_verified_body(path: &Path, key: u64) -> Option<Vec<u8>> {
    let bytes = fs::read(path).ok()?;
    let header = parse_header(&bytes)?;
    if header.key != key {
        return None;
    }
    let body = bytes.get(HEADER_BYTES as usize..)?;
    if body.len() as u64 != header.body_len {
        return None;
    }
    if fnv1a64(&[body]) != header.checksum {
        return None;
    }
    Some(body.to_vec())
}

/// temp file + write + fsync + rename (+ best-effort directory fsync):
/// the entry either exists completely or not at all.
fn write_atomic(
    tmp_path: &Path,
    final_path: &Path,
    dir: &Path,
    record: &[u8],
) -> std::io::Result<()> {
    let mut file = fs::File::create(tmp_path)?;
    file.write_all(record)?;
    file.sync_all()?;
    drop(file);
    fs::rename(tmp_path, final_path)?;
    // Persist the rename itself. Failure here only widens the crash
    // window back to "entry may be lost", which is already tolerated.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

fn quarantine_file(path: &Path) {
    let mut quarantined = path.as_os_str().to_os_string();
    quarantined.push(".quarantine");
    if fs::rename(path, &quarantined).is_err() {
        // Renaming failed (e.g. the file vanished); removing is just as
        // good — the only requirement is that it stops being an entry.
        let _ = fs::remove_file(path);
    }
}

fn apply_fault(path: &Path, fault: StoreFault, body_len: usize) {
    match fault {
        StoreFault::CorruptNext => {
            let Ok(mut bytes) = fs::read(path) else {
                return;
            };
            let at = HEADER_BYTES as usize + body_len / 2;
            if let Some(byte) = bytes.get_mut(at) {
                *byte ^= 0x40;
                let _ = fs::write(path, &bytes);
            }
        }
        StoreFault::TruncateNext => {
            let Ok(bytes) = fs::read(path) else { return };
            let keep = bytes.len() / 2;
            let _ = fs::write(path, bytes.get(..keep).unwrap_or(&[]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/scratch/store")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_across_a_reopen() {
        let dir = scratch("reopen");
        let store = DiskStore::open(&dir, 1 << 20, None).expect("open");
        store.insert(7, b"hello world");
        store.insert(9, b"second entry");
        assert_eq!(store.load(7).as_deref(), Some(b"hello world".as_slice()));
        drop(store);

        let store = DiskStore::open(&dir, 1 << 20, None).expect("reopen");
        assert_eq!(store.stats().entries, 2);
        assert_eq!(store.load(7).as_deref(), Some(b"hello world".as_slice()));
        assert_eq!(store.load(9).as_deref(), Some(b"second entry".as_slice()));
        assert_eq!(store.load(8), None, "unknown key is a miss");
    }

    #[test]
    fn corrupted_and_truncated_entries_are_quarantined_as_misses() {
        let dir = scratch("quarantine");
        let store = DiskStore::open(&dir, 1 << 20, Some(StoreFault::CorruptNext)).expect("open");
        store.insert(1, b"will be corrupted");
        store.insert(2, b"stays clean");
        // The corrupted entry fails its checksum on load — a miss, and
        // the file is quarantined so it is never re-read.
        assert_eq!(store.load(1), None);
        assert_eq!(store.stats().quarantined, 1);
        assert_eq!(store.load(1), None, "stays a miss after quarantine");
        assert_eq!(store.load(2).as_deref(), Some(b"stays clean".as_slice()));

        // Truncation is caught at reopen time by the length check.
        let store = DiskStore::open(&dir, 1 << 20, Some(StoreFault::TruncateNext)).expect("open");
        store.insert(3, b"will be truncated to half");
        drop(store);
        let store = DiskStore::open(&dir, 1 << 20, None).expect("reopen");
        assert_eq!(store.load(3), None);
        assert_eq!(
            store.stats().quarantined,
            1,
            "fresh instance counts its own quarantine"
        );
        assert!(
            dir.read_dir()
                .expect("dir")
                .filter_map(|e| e.ok())
                .any(|e| e.file_name().to_string_lossy().ends_with(".quarantine")),
            "quarantined file is renamed, not deleted"
        );
    }

    #[test]
    fn leftover_tmp_files_are_removed_on_open() {
        let dir = scratch("tmp-cleanup");
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join("00000000000000aa.vpc.tmp"), b"partial write").expect("tmp");
        let store = DiskStore::open(&dir, 1 << 20, None).expect("open");
        assert_eq!(store.stats().entries, 0);
        assert!(!dir.join("00000000000000aa.vpc.tmp").exists());
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_first() {
        let dir = scratch("evict");
        // Budget fits two ~(40+10)-byte entries but not three.
        let store = DiskStore::open(&dir, 110, None).expect("open");
        store.insert(1, b"aaaaaaaaaa");
        store.insert(2, b"bbbbbbbbbb");
        // Touch 1 so 2 becomes the LRU victim.
        assert!(store.load(1).is_some());
        store.insert(3, b"cccccccccc");
        let stats = store.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert_eq!(store.load(2), None, "LRU entry was evicted");
        assert!(store.load(1).is_some());
        assert!(store.load(3).is_some());
        assert!(stats.bytes <= 110);

        // Oversized bodies are skipped outright, not stored then evicted.
        store.insert(4, &[b'x'; 200]);
        assert_eq!(store.load(4), None);
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn reopen_honors_a_shrunken_budget() {
        let dir = scratch("shrink");
        let store = DiskStore::open(&dir, 1 << 20, None).expect("open");
        store.insert(1, b"aaaaaaaaaa");
        store.insert(2, b"bbbbbbbbbb");
        drop(store);
        let store = DiskStore::open(&dir, 60, None).expect("reopen smaller");
        let stats = store.stats();
        assert_eq!(
            stats.entries, 1,
            "oldest entry evicted to fit the new budget"
        );
        assert!(store.load(2).is_some(), "newest entry survives");
    }
}
