//! The pager: reads and writes fixed-size pages of a single store file and
//! manages page allocation with a free list.
//!
//! Page 0 is the meta page and is owned by [`crate::store::Store`]; the pager
//! only reserves it at file creation. Freed pages are chained through their
//! `next_page` header field; the head of the chain lives in the meta page and
//! is handed to the pager at open time.
//!
//! # Durability
//!
//! Every pager runs with a write-ahead log beside its data file (see
//! [`crate::wal`]): page writes become log appends, reads consult the log's
//! page table first, and [`Pager::checkpoint`] atomically folds the logged
//! images into the data file. [`Pager::open`] runs redo recovery before the
//! first read, so a store killed at *any* write or fsync boundary reopens
//! in exactly its last checkpointed state.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use trex_obs::{StorageCounters, StorageTimers};

use crate::error::{Result, StorageError};
use crate::page::{PageBuf, PageId, PageType, NO_PAGE, PAGE_SIZE};
use crate::wal::{CrashCheck, CrashPoint, CrashState, RecoveryReport, Wal};

/// Low-level page file access and allocation.
pub struct Pager {
    file: File,
    page_count: u32,
    /// Page count as of the last fsync that covered file metadata
    /// (`sync_all`). When `page_count` has grown past this, the next sync
    /// must be `sync_all`, not `sync_data`: a grown file whose new length
    /// is not yet durable can lose its tail pages on crash.
    synced_page_count: u32,
    free_head: PageId,
    /// Shared observability counters; page reads/writes land in
    /// `page_reads` / `page_writes`. The [`crate::buffer::BufferPool`]
    /// wrapping this pager shares the same group, so one snapshot covers
    /// the whole storage layer.
    obs: Arc<StorageCounters>,
    /// Shared I/O latency histograms (page read/write, fsync, WAL append,
    /// checkpoint), owned here and shared outward exactly like `obs`.
    timers: Arc<StorageTimers>,
    /// Failure injection: the next `inject_write_failures` calls to
    /// [`Pager::write_page`] fail with an I/O error before touching the
    /// file. Zero (the default) disables injection.
    inject_write_failures: u32,
    /// Crash injection shared with the WAL (see [`CrashPoint`]).
    crash: CrashState,
    /// The write-ahead log every page write goes through.
    wal: Wal,
    /// What recovery did at open, when it had anything to do.
    recovery: Option<RecoveryReport>,
}

impl Pager {
    /// Creates a new store file (truncating any existing one) with an
    /// initialised meta page, synced to stable storage so a crash right
    /// after creation cannot leave a zero-length store behind, and creates
    /// (truncating) the write-ahead log beside it.
    pub fn create(path: &Path) -> Result<Pager> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let wal = Wal::create(&crate::wal::wal_path(path))?;
        let mut pager = Pager {
            file,
            page_count: 1,
            synced_page_count: 0,
            free_head: NO_PAGE,
            obs: Arc::new(StorageCounters::new()),
            timers: Arc::new(StorageTimers::new()),
            inject_write_failures: 0,
            crash: CrashState::default(),
            wal,
            recovery: None,
        };
        let mut meta = PageBuf::zeroed();
        meta.init(PageType::Meta);
        // The meta page goes straight to the data file: a store is born as
        // its own first checkpoint.
        Self::write_data_page(
            &mut pager.file,
            &mut pager.crash,
            &mut pager.inject_write_failures,
            0,
            &meta,
        )?;
        pager.obs.page_writes.incr();
        pager.file.sync_all()?;
        pager.synced_page_count = 1;
        Ok(pager)
    }

    /// Opens an existing store file with its write-ahead log, running redo
    /// recovery first: a log sealed by a commit record is replayed into the
    /// data file (completing the interrupted checkpoint and repairing any
    /// torn data pages); anything else is discarded, leaving the data file
    /// as the previous checkpoint. `inject_crash` arms the crash switch
    /// *before* recovery runs, so tests can kill recovery itself.
    ///
    /// `free_head` is read from the meta page by the store and installed
    /// via [`Pager::set_free_head`]. A file whose length is not a whole
    /// number of pages after recovery has a torn tail page that no sealed
    /// log covers, and is rejected as corrupt.
    pub fn open(path: &Path, inject_crash: Option<(CrashPoint, u32)>) -> Result<Pager> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut crash = CrashState::default();
        if let Some((point, nth)) = inject_crash {
            crash.arm(point, nth);
        }
        let obs = Arc::new(StorageCounters::new());
        let (wal, scan) = Wal::open(&crate::wal::wal_path(path))?;

        let mut pager = Pager {
            file,
            page_count: 0,
            synced_page_count: 0,
            free_head: NO_PAGE,
            obs,
            timers: Arc::new(StorageTimers::new()),
            inject_write_failures: 0,
            crash,
            wal,
            recovery: None,
        };

        let mut replayed = 0u32;
        if scan.replay {
            // Roll forward: write every committed image in place.
            let mut buf = PageBuf::zeroed();
            for id in pager.wal.entries() {
                pager.wal.load(id, &mut buf)?;
                Self::write_data_page(
                    &mut pager.file,
                    &mut pager.crash,
                    &mut pager.inject_write_failures,
                    id,
                    &buf,
                )?;
                replayed += 1;
            }
            // The replay may have grown the file; make length durable too.
            Self::sync_data_file(&mut pager.file, &mut pager.crash, true)?;
            pager.obs.recoveries_run.incr();
        }
        // Either way the log is now spent (roll forward applied, roll back
        // discarded); truncate it so appends start from a clean checkpoint.
        // Pending ingest records survive the reset: the scan already dropped
        // any the replayed commit consumed, and the rest are carried into
        // the fresh log (they are durable until a fold consumes them).
        pager.wal.reset(&mut pager.crash, 0)?;

        let len = pager.file.metadata()?.len();
        Self::check_tail(len)?;
        pager.page_count = ((len / PAGE_SIZE as u64) as u32).max(1);
        pager.synced_page_count = pager.page_count;
        if scan.replay || scan.discarded_records > 0 {
            pager.recovery = Some(RecoveryReport {
                replayed_pages: replayed,
                wal_bytes_scanned: scan.bytes_scanned,
                discarded_records: scan.discarded_records,
                completed_checkpoint: scan.replay,
            });
        }
        Ok(pager)
    }

    fn check_tail(len: u64) -> Result<()> {
        if !len.is_multiple_of(PAGE_SIZE as u64) {
            return Err(StorageError::Corrupt(format!(
                "torn tail page: file length {len} is not a multiple of the \
                 {PAGE_SIZE}-byte page size (crashed partial write)"
            )));
        }
        Ok(())
    }

    /// Number of pages in the file (including the meta page and free pages).
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Head of the free-page chain.
    pub fn free_head(&self) -> PageId {
        self.free_head
    }

    /// Installs the free-list head (read from the meta page at open).
    pub fn set_free_head(&mut self, head: PageId) {
        self.free_head = head;
    }

    /// What recovery did when this pager was opened (None after a clean
    /// shutdown).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Reads page `id` into `buf`: from the WAL page table when the page
    /// has an un-checkpointed version, from the data file otherwise.
    pub fn read_page(&mut self, id: PageId, buf: &mut PageBuf) -> Result<()> {
        self.crash.ensure_alive()?;
        let sw = self.timers.start();
        if !self.wal.read_page(id, buf)? {
            self.file
                .seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
            self.file.read_exact(buf.bytes_mut().as_mut_slice())?;
        }
        self.obs.page_reads.incr();
        self.timers.page_read.observe(&sw);
        Ok(())
    }

    /// Arms failure injection: the next `n` [`Pager::write_page`] calls
    /// fail with an I/O error without touching the file. Used by tests to
    /// exercise the buffer pool's dirty write-back error paths.
    pub fn inject_write_failures(&mut self, n: u32) {
        self.inject_write_failures = n;
    }

    /// Arms crash injection: the `nth` occurrence of `point` tears that
    /// operation and kills the pager — every later file operation fails,
    /// simulating a killed process. Reopen the store to recover.
    pub fn inject_crash(&mut self, point: CrashPoint, nth: u32) {
        self.crash.arm(point, nth);
    }

    /// Writes `buf` to page `id` as an append to the WAL (log-before-data:
    /// the data file is only touched by [`Pager::checkpoint`] and recovery).
    pub fn write_page(&mut self, id: PageId, buf: &PageBuf) -> Result<()> {
        if self.inject_write_failures > 0 {
            self.inject_write_failures -= 1;
            return Err(std::io::Error::other("injected write failure").into());
        }
        self.crash.ensure_alive()?;
        let sw = self.timers.start();
        self.wal.append_image(id, buf, &mut self.crash, &self.obs)?;
        self.timers.wal_append.observe(&sw);
        self.obs.page_writes.incr();
        self.timers.page_write.observe(&sw);
        Ok(())
    }

    /// In-place data-file page write with crash-point tearing. Not counted
    /// in `page_writes` when called from checkpoint/recovery write-back
    /// (those pages were already counted when logged).
    fn write_data_page(
        file: &mut File,
        crash: &mut CrashState,
        inject_write_failures: &mut u32,
        id: PageId,
        buf: &PageBuf,
    ) -> Result<()> {
        if *inject_write_failures > 0 {
            *inject_write_failures -= 1;
            return Err(std::io::Error::other("injected write failure").into());
        }
        let tear = matches!(crash.check(CrashPoint::DataWrite)?, CrashCheck::Tear);
        file.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
        if tear {
            file.write_all(&buf.bytes()[..PAGE_SIZE / 2])?;
            return Err(std::io::Error::other("injected crash: torn data page").into());
        }
        file.write_all(buf.bytes().as_slice())?;
        Ok(())
    }

    /// Data-file fsync with crash-point injection; `sync_all` when `grew`
    /// (file length changed since the last full sync), `sync_data`
    /// otherwise.
    fn sync_data_file(file: &mut File, crash: &mut CrashState, grew: bool) -> Result<()> {
        if matches!(crash.check(CrashPoint::DataSync)?, CrashCheck::Tear) {
            return Err(std::io::Error::other("injected crash: at data fsync").into());
        }
        if grew {
            file.sync_all()?;
        } else {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Allocates a page: pops the free list if possible, otherwise extends
    /// the store by one page — a 17-byte `Alloc` record in the WAL; the
    /// data file grows only when the image set is checkpointed. The
    /// returned page's contents are unspecified; callers must `init` it.
    pub fn allocate(&mut self) -> Result<PageId> {
        self.crash.ensure_alive()?;
        if self.free_head != NO_PAGE {
            let id = self.free_head;
            let mut buf = PageBuf::zeroed();
            self.read_page(id, &mut buf)?;
            self.free_head = buf.next_page();
            return Ok(id);
        }
        let id = self.page_count;
        let sw = self.timers.start();
        self.wal.append_alloc(id, &mut self.crash, &self.obs)?;
        self.timers.wal_append.observe(&sw);
        self.page_count += 1;
        Ok(id)
    }

    /// Returns page `id` to the free list.
    pub fn free(&mut self, id: PageId) -> Result<()> {
        debug_assert_ne!(id, 0, "cannot free the meta page");
        let mut buf = PageBuf::zeroed();
        buf.init(PageType::Free);
        buf.set_next_page(self.free_head);
        self.write_page(id, &buf)?;
        self.free_head = id;
        Ok(())
    }

    /// Flushes the data file's OS buffers to stable storage. Uses
    /// `sync_all` whenever the file has grown since the last full sync (a
    /// `sync_data` would leave the new length — and with it the tail pages
    /// — volatile).
    fn sync(&mut self) -> Result<()> {
        let grew = self.page_count > self.synced_page_count;
        let sw = self.timers.start();
        Self::sync_data_file(&mut self.file, &mut self.crash, grew)?;
        self.timers.fsync.observe(&sw);
        self.synced_page_count = self.page_count;
        Ok(())
    }

    /// Makes everything written so far durable by running the checkpoint
    /// protocol:
    ///
    /// 1. seal the logged image set with a commit record, **fsync the WAL**;
    /// 2. write every logged image in place into the data file;
    /// 3. **fsync the data file** (`sync_all` when it grew);
    /// 4. truncate the log and stamp a fresh checkpoint record.
    ///
    /// A crash before step 1 completes rolls back to the previous
    /// checkpoint on reopen; a crash at or after it rolls forward to this
    /// one. Either way the store reopens consistent.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.checkpoint_consuming(0)
    }

    /// [`Pager::checkpoint`] that additionally consumes the pending ingest
    /// records whose doc id is below `ingest_watermark`: the commit record
    /// carries the watermark (so recovery that rolls this checkpoint forward
    /// drops them too) and the post-checkpoint log reset discards them. Used
    /// by the index layer's fold, whose page writes this checkpoint seals.
    pub fn checkpoint_consuming(&mut self, ingest_watermark: u64) -> Result<()> {
        self.crash.ensure_alive()?;
        if self.wal.entries().is_empty() && ingest_watermark == 0 {
            // Nothing logged since the last checkpoint; just be durable.
            return self.sync();
        }
        let sw_ckpt = self.timers.start();
        self.wal.commit(&mut self.crash, ingest_watermark)?;
        let mut buf = PageBuf::zeroed();
        for id in self.wal.entries() {
            self.wal.load(id, &mut buf)?;
            Self::write_data_page(
                &mut self.file,
                &mut self.crash,
                &mut self.inject_write_failures,
                id,
                &buf,
            )?;
        }
        self.sync()?;
        self.wal.reset(&mut self.crash, ingest_watermark)?;
        self.obs.checkpoints.incr();
        self.timers.checkpoint.observe(&sw_ckpt);
        Ok(())
    }

    /// Logs one ingested document to the WAL, fsynced and individually
    /// durable.
    pub fn log_ingest(&mut self, doc_id: u32, xml: &[u8]) -> Result<()> {
        self.crash.ensure_alive()?;
        let sw = self.timers.start();
        self.wal
            .append_ingest(doc_id, xml, &mut self.crash, &self.obs)?;
        self.timers.wal_append.observe(&sw);
        Ok(())
    }

    /// The logged ingested documents no fold has consumed yet, in log
    /// order.
    pub fn pending_ingests(&self) -> Vec<crate::wal::PendingIngest> {
        self.wal.pending_ingests().to_vec()
    }

    /// (reads, writes) performed since open — used by benchmarks to report
    /// I/O alongside wall-clock time.
    pub fn io_counters(&self) -> (u64, u64) {
        (self.obs.page_reads.get(), self.obs.page_writes.get())
    }

    /// The storage-layer counter group this pager reports into.
    pub fn counters(&self) -> &Arc<StorageCounters> {
        &self.obs
    }

    /// The storage-layer latency histograms this pager records into.
    pub fn timers(&self) -> &Arc<StorageTimers> {
        &self.timers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("trex-pager-{name}-{}", std::process::id()));
        p
    }

    fn cleanup(path: &Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(crate::wal::wal_path(path)).ok();
    }

    #[test]
    fn create_write_read_round_trip() {
        let path = temp_path("rt");
        let mut pager = Pager::create(&path).unwrap();
        let id = pager.allocate().unwrap();
        let mut page = PageBuf::zeroed();
        page.init(PageType::Leaf);
        page.set_next_page(99);
        pager.write_page(id, &page).unwrap();

        let mut back = PageBuf::zeroed();
        pager.read_page(id, &mut back).unwrap();
        assert_eq!(back.page_type().unwrap(), PageType::Leaf);
        assert_eq!(back.next_page(), 99);
        cleanup(&path);
    }

    #[test]
    fn allocate_reuses_freed_pages_lifo() {
        let path = temp_path("free");
        let mut pager = Pager::create(&path).unwrap();
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        assert_ne!(a, b);
        pager.free(a).unwrap();
        pager.free(b).unwrap();
        assert_eq!(pager.allocate().unwrap(), b);
        assert_eq!(pager.allocate().unwrap(), a);
        // Free list exhausted: next allocation extends the file.
        let c = pager.allocate().unwrap();
        assert_eq!(c, 3);
        cleanup(&path);
    }

    #[test]
    fn reopen_preserves_page_count() {
        let path = temp_path("reopen");
        {
            let mut pager = Pager::create(&path).unwrap();
            pager.allocate().unwrap();
            pager.allocate().unwrap();
            pager.checkpoint().unwrap();
        }
        let pager = Pager::open(&path, None).unwrap();
        assert_eq!(pager.page_count(), 3);
        cleanup(&path);
    }

    #[test]
    fn io_counters_track_activity() {
        let path = temp_path("io");
        let mut pager = Pager::create(&path).unwrap();
        let (_, w0) = pager.io_counters();
        let id = pager.allocate().unwrap();
        let mut page = PageBuf::zeroed();
        page.init(PageType::Leaf);
        pager.write_page(id, &page).unwrap();
        pager.read_page(id, &mut page).unwrap();
        let (r1, w1) = pager.io_counters();
        assert!(r1 >= 1);
        assert!(w1 > w0);
        cleanup(&path);
    }

    #[test]
    fn torn_tail_page_is_rejected() {
        let path = temp_path("torn");
        {
            let mut pager = Pager::create(&path).unwrap();
            pager.allocate().unwrap();
            pager.checkpoint().unwrap();
        }
        // Append a partial page: a crashed write that no sealed log covers.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xAB; 100]).unwrap();
        }
        let err = match Pager::open(&path, None) {
            Err(e) => e,
            Ok(_) => panic!("torn tail must be rejected"),
        };
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("torn tail"), "{err}");
        cleanup(&path);
    }

    #[test]
    fn create_syncs_the_fresh_meta_page() {
        let path = temp_path("create-sync");
        let pager = Pager::create(&path).unwrap();
        // The fresh store is its own first checkpoint: the meta page is on
        // disk and the sync covers the file length (sync_all at creation).
        assert_eq!(pager.synced_page_count, 1);
        assert_eq!(pager.page_count(), 1);
        cleanup(&path);
    }

    #[test]
    fn sync_uses_sync_all_while_file_grows() {
        let path = temp_path("grow-sync");
        let mut pager = Pager::create(&path).unwrap();
        pager.allocate().unwrap();
        pager.allocate().unwrap();
        assert!(
            pager.page_count > pager.synced_page_count,
            "growth must be pending before the sync"
        );
        pager.sync().unwrap();
        assert_eq!(
            pager.synced_page_count, pager.page_count,
            "sync must cover the grown length"
        );
        cleanup(&path);
    }

    #[test]
    fn wal_mode_serves_logged_pages_and_defers_data_writes() {
        let path = temp_path("walmode");
        let mut pager = Pager::create(&path).unwrap();
        let data_len_before = pager.file.metadata().unwrap().len();
        let id = pager.allocate().unwrap();
        let mut page = PageBuf::zeroed();
        page.init(PageType::Leaf);
        page.set_next_page(4242);
        pager.write_page(id, &page).unwrap();
        // The data file has not grown: the write went to the log.
        assert_eq!(pager.file.metadata().unwrap().len(), data_len_before);
        let mut back = PageBuf::zeroed();
        pager.read_page(id, &mut back).unwrap();
        assert_eq!(back.next_page(), 4242, "read must be served from the log");
        // Checkpoint folds the image into the data file.
        pager.checkpoint().unwrap();
        assert_eq!(
            pager.file.metadata().unwrap().len(),
            2 * PAGE_SIZE as u64,
            "checkpoint extends the data file"
        );
        let mut back = PageBuf::zeroed();
        pager.read_page(id, &mut back).unwrap();
        assert_eq!(back.next_page(), 4242);
        cleanup(&path);
    }

    #[test]
    fn wal_reopen_discards_uncheckpointed_writes() {
        let path = temp_path("waldiscard");
        let id;
        {
            let mut pager = Pager::create(&path).unwrap();
            id = pager.allocate().unwrap();
            let mut page = PageBuf::zeroed();
            page.init(PageType::Leaf);
            page.set_next_page(7);
            pager.write_page(id, &page).unwrap();
            pager.checkpoint().unwrap();
            // A second write, never checkpointed: must vanish on reopen.
            page.set_next_page(8);
            pager.write_page(id, &page).unwrap();
        }
        let mut pager = Pager::open(&path, None).unwrap();
        let mut back = PageBuf::zeroed();
        pager.read_page(id, &mut back).unwrap();
        assert_eq!(back.next_page(), 7, "uncommitted write must roll back");
        assert!(pager.recovery_report().is_some());
        assert!(!pager.recovery_report().unwrap().completed_checkpoint);
        cleanup(&path);
    }
}
