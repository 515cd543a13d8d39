//! The store: a single file holding many named B+trees (tables) plus a
//! catalog on the meta page.
//!
//! TReX keeps its four tables — `Elements`, `PostingLists`, `RPLs`, `ERPLs` —
//! as tables of one store, mirroring the paper's use of BerkeleyDB databases
//! inside one environment.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::btree::{BTree, Cursor};
use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{PageId, HEADER_LEN, PAGE_SIZE};
use crate::pager::Pager;
use crate::wal::{CrashPoint, PendingIngest, RecoveryReport};

const MAGIC: &[u8; 8] = b"TREXSTOR";
const VERSION: u16 = 1;
/// Longest table name storable in the catalog.
pub const MAX_TABLE_NAME: usize = 64;

type Catalog = Arc<Mutex<HashMap<String, PageId>>>;

/// How to create or open a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Buffer pool capacity in pages.
    pub pool_pages: usize,
    /// Crash injection armed before the store (and recovery, on open)
    /// touches the file: the nth occurrence of the crash point tears that
    /// operation and kills the store. Test instrumentation.
    pub inject_crash: Option<(CrashPoint, u32)>,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            pool_pages: 128,
            inject_crash: None,
        }
    }
}

impl StoreOptions {
    /// Options with the given pool capacity (no injection).
    pub fn with_pool(pool_pages: usize) -> StoreOptions {
        StoreOptions {
            pool_pages,
            ..StoreOptions::default()
        }
    }
}

/// A store file: buffer pool + table catalog.
pub struct Store {
    pool: Arc<BufferPool>,
    catalog: Catalog,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("pages", &self.pool.page_count())
            .field("tables", &self.table_names())
            .finish()
    }
}

impl Store {
    /// Creates a new store file (truncating an existing one), with a buffer
    /// pool of `pool_capacity` pages and a write-ahead log.
    pub fn create(path: &Path, pool_capacity: usize) -> Result<Store> {
        Self::create_with(path, StoreOptions::with_pool(pool_capacity))
    }

    /// Creates a new store file with explicit [`StoreOptions`].
    pub fn create_with(path: &Path, opts: StoreOptions) -> Result<Store> {
        let mut pager = Pager::create(path)?;
        if let Some((point, nth)) = opts.inject_crash {
            pager.inject_crash(point, nth);
        }
        let pool = Arc::new(BufferPool::new(pager, opts.pool_pages));
        let store = Store {
            pool,
            catalog: Arc::new(Mutex::new(HashMap::new())),
        };
        store.write_meta()?;
        Ok(store)
    }

    /// Opens an existing store file, running WAL redo recovery first (see
    /// [`crate::wal`]): an interrupted checkpoint is rolled forward if its
    /// log was sealed, rolled back otherwise — either way the store serves
    /// exactly its last durable checkpoint. [`Store::recovery_report`]
    /// says which, when recovery had anything to do.
    pub fn open(path: &Path, pool_capacity: usize) -> Result<Store> {
        Self::open_with(path, StoreOptions::with_pool(pool_capacity))
    }

    /// Opens an existing store file with explicit [`StoreOptions`].
    pub fn open_with(path: &Path, opts: StoreOptions) -> Result<Store> {
        let mut pager = Pager::open(path, opts.inject_crash)?;
        let (catalog, free_head) = {
            let mut meta = crate::page::PageBuf::zeroed();
            pager.read_page(0, &mut meta)?;
            Self::parse_meta(meta.bytes())?
        };
        pager.set_free_head(free_head);
        let pool = Arc::new(BufferPool::new(pager, opts.pool_pages));
        Ok(Store {
            pool,
            catalog: Arc::new(Mutex::new(catalog)),
        })
    }

    fn parse_meta(bytes: &[u8; PAGE_SIZE]) -> Result<(HashMap<String, PageId>, PageId)> {
        fn truncated(what: &str) -> StorageError {
            StorageError::Corrupt(format!("store catalog truncated reading {what}"))
        }
        let payload = &bytes[HEADER_LEN..];
        if payload.get(..8).ok_or_else(|| truncated("magic"))? != MAGIC {
            return Err(StorageError::Corrupt("bad store magic".into()));
        }
        let version = u16::from_le_bytes([payload[8], payload[9]]);
        if version != VERSION {
            return Err(StorageError::Corrupt(format!(
                "unsupported store version {version}"
            )));
        }
        let free_head = u32::from_le_bytes(payload[10..14].try_into().unwrap());
        let count = u16::from_le_bytes([payload[14], payload[15]]) as usize;
        let mut catalog = HashMap::with_capacity(count.min(256));
        let mut off = 16usize;
        for _ in 0..count {
            // Every slice below is bounds-checked: a bit-flipped `count` or
            // `name_len` byte must surface as Corrupt, not a panic.
            let name_len = *payload.get(off).ok_or_else(|| truncated("name length"))? as usize;
            off += 1;
            let name_bytes = payload
                .get(off..off + name_len)
                .ok_or_else(|| truncated("table name"))?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| StorageError::Corrupt("non-utf8 table name".into()))?
                .to_string();
            off += name_len;
            let root_bytes = payload
                .get(off..off + 4)
                .ok_or_else(|| truncated("table root"))?;
            let root = u32::from_le_bytes(root_bytes.try_into().unwrap());
            off += 4;
            catalog.insert(name, root);
        }
        Ok((catalog, free_head))
    }

    fn write_meta(&self) -> Result<()> {
        let catalog = self.catalog.lock();
        let mut payload = Vec::with_capacity(PAGE_SIZE - HEADER_LEN);
        payload.extend_from_slice(MAGIC);
        payload.extend_from_slice(&VERSION.to_le_bytes());
        let free_head = self.pool.free_head();
        payload.extend_from_slice(&free_head.to_le_bytes());
        payload.extend_from_slice(&(catalog.len() as u16).to_le_bytes());
        let mut names: Vec<_> = catalog.iter().collect();
        names.sort(); // deterministic on-disk layout
        for (name, root) in names {
            payload.push(name.len() as u8);
            payload.extend_from_slice(name.as_bytes());
            payload.extend_from_slice(&root.to_le_bytes());
        }
        if payload.len() > PAGE_SIZE - HEADER_LEN {
            return Err(StorageError::CatalogFull);
        }
        drop(catalog);

        let meta = self.pool.fetch(0)?;
        {
            let mut buf = meta.buf.write();
            buf.bytes_mut()[HEADER_LEN..HEADER_LEN + payload.len()].copy_from_slice(&payload);
        }
        meta.mark_dirty();
        Ok(())
    }

    /// Creates a new empty table. Errors if the name exists or is too long.
    pub fn create_table(&self, name: &str) -> Result<Table> {
        if name.len() > MAX_TABLE_NAME {
            return Err(StorageError::KeyTooLarge(name.len()));
        }
        {
            let catalog = self.catalog.lock();
            if catalog.contains_key(name) {
                return Err(StorageError::TableExists(name.to_string()));
            }
        }
        let tree = BTree::create(self.pool.clone())?;
        self.catalog.lock().insert(name.to_string(), tree.root());
        Ok(Table {
            name: name.to_string(),
            tree,
            catalog: self.catalog.clone(),
        })
    }

    /// Opens an existing table by name.
    pub fn open_table(&self, name: &str) -> Result<Table> {
        let root = self
            .catalog
            .lock()
            .get(name)
            .copied()
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
        Ok(Table {
            name: name.to_string(),
            tree: BTree::open(self.pool.clone(), root),
            catalog: self.catalog.clone(),
        })
    }

    /// Opens the table, creating it if absent.
    pub fn open_or_create_table(&self, name: &str) -> Result<Table> {
        match self.open_table(name) {
            Ok(t) => Ok(t),
            Err(StorageError::UnknownTable(_)) => self.create_table(name),
            Err(e) => Err(e),
        }
    }

    /// Whether a table with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.catalog.lock().contains_key(name)
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.catalog.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Drops a table: removes it from the catalog and frees its pages.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let root = self
            .catalog
            .lock()
            .remove(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
        BTree::open(self.pool.clone(), root).destroy()
    }

    /// Persists the catalog and all dirty pages. With the WAL enabled this
    /// is a checkpoint: the catalog and every dirty page are appended to
    /// the log, sealed with a commit record, fsynced, folded into the data
    /// file, and the log is truncated. The whole flush lands atomically —
    /// a crash anywhere inside it reopens as either the previous or this
    /// checkpoint, never a mix.
    pub fn flush(&self) -> Result<()> {
        self.write_meta()?;
        self.pool.flush()
    }

    /// [`Store::flush`] whose checkpoint also consumes the WAL's pending
    /// ingest records with doc id below `ingest_watermark`. A fold calls
    /// this once after rewriting the tables: the folded pages and the
    /// ingest consumption commit in the same checkpoint, so recovery either
    /// sees the documents in the tables (roll forward) or back in the
    /// pending set (roll back) — never both, never neither.
    pub fn flush_consuming_ingests(&self, ingest_watermark: u64) -> Result<()> {
        self.write_meta()?;
        self.pool.flush_consuming_ingests(ingest_watermark)
    }

    /// Logs one ingested document to the WAL, fsynced — durable before the
    /// caller acknowledges the ingest.
    pub fn log_ingest(&self, doc_id: u32, xml: &[u8]) -> Result<()> {
        self.pool.log_ingest(doc_id, xml)
    }

    /// The WAL's logged-but-not-yet-folded ingested documents, in log
    /// order. The index layer replays these into its delta index at open.
    pub fn pending_ingests(&self) -> Vec<PendingIngest> {
        self.pool.pending_ingests()
    }

    /// What WAL recovery did when this store was opened: `None` after a
    /// clean shutdown, `Some` when a log had to be
    /// rolled forward (`completed_checkpoint`) or discarded.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.pool.recovery_report()
    }

    /// Arms crash injection (see [`CrashPoint`]): the nth occurrence of
    /// `point` tears that operation and kills the store — every later file
    /// operation errors, simulating a killed process. Test instrumentation.
    pub fn inject_crash(&self, point: CrashPoint, nth: u32) {
        self.pool.inject_crash(point, nth);
    }

    /// The shared buffer pool (exposed for I/O statistics in benchmarks).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The storage-layer observability counters (shared across the pager,
    /// buffer pool, and every B+-tree of this store).
    pub fn counters(&self) -> &Arc<trex_obs::StorageCounters> {
        self.pool.counters()
    }

    /// The storage-layer latency histograms (page read/write, fsync, WAL
    /// append, checkpoint), shared across the pager and buffer pool.
    pub fn timers(&self) -> &Arc<trex_obs::StorageTimers> {
        self.pool.timers()
    }

    /// Total pages in the store file — the disk-space measure used by the
    /// self-managing advisor (paper §4: `S_RPL`, `S_ERPL` are measured in
    /// disk space consumed).
    pub fn page_count(&self) -> u32 {
        self.pool.page_count()
    }
}

/// A named ordered (key → value) table inside a [`Store`].
pub struct Table {
    name: String,
    tree: BTree,
    catalog: Catalog,
}

impl Table {
    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Inserts `key -> value`, replacing an existing binding.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let before = self.tree.root();
        self.tree.insert(key, value)?;
        let after = self.tree.root();
        if before != after {
            self.catalog.lock().insert(self.name.clone(), after);
        }
        Ok(())
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.tree.get(key)
    }

    /// Removes `key`; returns whether it was present.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        self.tree.delete(key)
    }

    /// Cursor at the first entry with key `>= key`.
    pub fn seek(&self, key: &[u8]) -> Result<Cursor> {
        self.tree.seek(key)
    }

    /// Cursor at the smallest key.
    pub fn scan(&self) -> Result<Cursor> {
        self.tree.scan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("trex-store-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn tables_survive_reopen() {
        let path = temp("reopen");
        {
            let store = Store::create(&path, 64).unwrap();
            let mut t = store.create_table("elements").unwrap();
            for i in 0..500u32 {
                t.insert(&i.to_be_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            store.flush().unwrap();
        }
        let store = Store::open(&path, 64).unwrap();
        let t = store.open_table("elements").unwrap();
        assert_eq!(t.get(&42u32.to_be_bytes()).unwrap().unwrap(), b"v42");
        assert_eq!(t.get(&499u32.to_be_bytes()).unwrap().unwrap(), b"v499");
        assert!(t.get(&500u32.to_be_bytes()).unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_duplicate_table_fails() {
        let path = temp("dup");
        let store = Store::create(&path, 64).unwrap();
        store.create_table("t").unwrap();
        assert!(matches!(
            store.create_table("t"),
            Err(StorageError::TableExists(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_table_errors() {
        let path = temp("unknown");
        let store = Store::create(&path, 64).unwrap();
        assert!(matches!(
            store.open_table("nope"),
            Err(StorageError::UnknownTable(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drop_table_frees_pages_for_reuse() {
        let path = temp("drop");
        let store = Store::create(&path, 64).unwrap();
        let mut t = store.create_table("big").unwrap();
        for i in 0..3000u32 {
            t.insert(&i.to_be_bytes(), &[0u8; 64]).unwrap();
        }
        drop(t);
        let pages_before = store.page_count();
        store.drop_table("big").unwrap();
        assert!(!store.has_table("big"));
        // Recreating a similar table should not grow the file much, since
        // freed pages are reused.
        let mut t2 = store.create_table("big2").unwrap();
        for i in 0..3000u32 {
            t2.insert(&i.to_be_bytes(), &[0u8; 64]).unwrap();
        }
        assert!(store.page_count() <= pages_before + 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn catalog_tracks_root_splits_across_reopen() {
        let path = temp("rootsplit");
        {
            let store = Store::create(&path, 64).unwrap();
            let mut t = store.create_table("t").unwrap();
            // Enough entries to split the root several times.
            for i in 0..20_000u32 {
                t.insert(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
            }
            store.flush().unwrap();
        }
        let store = Store::open(&path, 64).unwrap();
        let t = store.open_table("t").unwrap();
        for i in (0..20_000u32).step_by(997) {
            assert_eq!(t.get(&i.to_be_bytes()).unwrap().unwrap(), i.to_le_bytes());
        }
        std::fs::remove_file(&path).ok();
    }

    /// A syntactically valid meta page with one catalog entry.
    fn valid_meta() -> Box<[u8; PAGE_SIZE]> {
        let mut bytes = Box::new([0u8; PAGE_SIZE]);
        let p = &mut bytes[HEADER_LEN..];
        p[..8].copy_from_slice(MAGIC);
        p[8..10].copy_from_slice(&VERSION.to_le_bytes());
        p[10..14].copy_from_slice(&7u32.to_le_bytes()); // free head
        p[14..16].copy_from_slice(&1u16.to_le_bytes()); // one entry
        p[16] = 8; // name_len
        p[17..25].copy_from_slice(b"elements");
        p[25..29].copy_from_slice(&3u32.to_le_bytes()); // root
        bytes
    }

    #[test]
    fn parse_meta_reads_a_valid_catalog() {
        let (catalog, free_head) = Store::parse_meta(&valid_meta()).unwrap();
        assert_eq!(free_head, 7);
        assert_eq!(catalog.get("elements"), Some(&3));
    }

    /// Regression for the unchecked-indexing panic: a bit-flipped `count`
    /// or `name_len` byte used to run `payload[off..off + n]` off the page
    /// end. Every corruption must now surface as `Corrupt`.
    #[test]
    fn parse_meta_rejects_corrupt_catalogs_without_panicking() {
        // Huge entry count: walks off the end of the payload.
        let mut m = valid_meta();
        m[HEADER_LEN + 14..HEADER_LEN + 16].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            Store::parse_meta(&m),
            Err(StorageError::Corrupt(_))
        ));

        // Catalog that walks off the page: enough zero-length entries to
        // push `off` past the payload end (each reads name_len + root, so
        // 2000 entries × 5 bytes > 8176 bytes of payload).
        let mut m = valid_meta();
        m[HEADER_LEN + 14..HEADER_LEN + 16].copy_from_slice(&2000u16.to_le_bytes());
        assert!(matches!(
            Store::parse_meta(&m),
            Err(StorageError::Corrupt(_))
        ));

        // A name slice overrunning the page end: fill the catalog area with
        // 'a' (0x61), so every entry parses as a 97-byte name + root until
        // one entry's name would cross the payload boundary.
        let mut m = valid_meta();
        m[HEADER_LEN + 14..HEADER_LEN + 16].copy_from_slice(&100u16.to_le_bytes());
        for b in m[HEADER_LEN + 16..].iter_mut() {
            *b = b'a'; // name_len 97 + name + root = 102 bytes per entry
        }
        assert!(matches!(
            Store::parse_meta(&m),
            Err(StorageError::Corrupt(_))
        ));

        // Each single-bit flip in the fixed header region must yield a
        // clean error (bad magic / version / truncation), never a panic.
        for byte in 0..16 {
            for bit in 0..8 {
                let mut m = valid_meta();
                m[HEADER_LEN + byte] ^= 1 << bit;
                let _ = Store::parse_meta(&m); // must not panic
            }
        }
    }

    #[test]
    fn table_names_are_sorted() {
        let path = temp("names");
        let store = Store::create(&path, 64).unwrap();
        store.create_table("zeta").unwrap();
        store.create_table("alpha").unwrap();
        assert_eq!(store.table_names(), vec!["alpha", "zeta"]);
        std::fs::remove_file(&path).ok();
    }
}
