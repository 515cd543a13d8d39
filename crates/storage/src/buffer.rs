//! Sharded LRU buffer pool over the [`Pager`].
//!
//! The pool caches up to `capacity` page images across N lock-striped
//! shards. A page id is hashed (modulo) to one shard; each shard owns its
//! own map + LRU queue behind its own mutex, so concurrent readers touching
//! different shards never contend. The pager — the only component doing
//! file I/O — stays behind a single narrow mutex that is only taken on a
//! miss, an eviction write-back, an allocation, or a flush.
//!
//! A fetched page is handed out as a [`PageRef`] (an `Arc` clone), so nested
//! accesses — e.g. a B+tree descent holding a parent while reading a child —
//! are safe. Eviction only considers pages that no one else holds
//! (`Arc::strong_count == 1`), writing them back if dirty *before* removing
//! them from the shard map, so a failed write-back never loses the page.
//!
//! # Locking protocol
//!
//! Two lock levels, strictly ordered: **shard → pager**.
//!
//! * A thread may take the pager mutex while holding one shard mutex
//!   (eviction write-back, flush), never the reverse.
//! * No thread ever holds two shard mutexes at once (flush visits shards
//!   one at a time).
//! * The miss path keeps the shard mutex held across the disk read and the
//!   insert. Releasing it in between would open a lost-update window: a
//!   racing fetch could fault the page in, mutate it through its handle,
//!   and have eviction write it back and drop it from the shard — all
//!   before this thread inserts its now-stale image. Holding the shard
//!   lock means a miss serialises against same-shard access for one page
//!   read; other shards are unaffected.
//! * When every page of a shard is pinned, the shard grows past its
//!   capacity temporarily instead of deadlocking (the escape hatch the
//!   B+tree descent relies on).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use trex_obs::{ShardCounters, ShardSnapshot, StorageCounters, StorageTimers};

use crate::error::Result;
use crate::page::{PageBuf, PageId};
use crate::pager::Pager;

/// Smallest per-shard capacity: a B+tree descent (root → leaf plus a
/// sibling) must always fit in the shard its pages hash to.
const MIN_SHARD_CAPACITY: usize = 8;

/// Upper bound on the shard count picked by [`BufferPool::new`].
const MAX_SHARDS: usize = 16;

/// A cached page: the image plus a dirty flag.
pub struct CachedPage {
    /// The page image. Take a read lock for lookups, a write lock for edits.
    pub buf: RwLock<PageBuf>,
    dirty: AtomicBool,
}

impl CachedPage {
    /// Marks the page as needing write-back on eviction or flush.
    pub fn mark_dirty(&self) {
        self.dirty.store(true, Ordering::Release);
    }

    fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }

    fn clear_dirty(&self) {
        self.dirty.store(false, Ordering::Release);
    }
}

/// A handle to a cached page.
pub type PageRef = Arc<CachedPage>;

struct Slot {
    page: PageRef,
    /// Logical timestamp of the most recent touch; entries in the LRU queue
    /// with an older stamp are stale and skipped.
    touch: u64,
}

struct PoolInner {
    map: HashMap<PageId, Slot>,
    /// (page, touch-stamp) in touch order; front = least recently used.
    lru: VecDeque<(PageId, u64)>,
    clock: u64,
}

impl PoolInner {
    fn touch(&mut self, id: PageId) {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(slot) = self.map.get_mut(&id) {
            slot.touch = stamp;
        }
        self.lru.push_back((id, stamp));
    }
}

/// One lock stripe: its own map + LRU plus its own cache counters.
struct Shard {
    inner: Mutex<PoolInner>,
    /// Per-shard hit/miss/eviction accounting. Every event also lands in
    /// the pool-level [`StorageCounters`], so the shard groups always sum
    /// exactly to the global `pool_*` counters.
    obs: ShardCounters,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            inner: Mutex::new(PoolInner {
                map: HashMap::new(),
                lru: VecDeque::new(),
                clock: 0,
            }),
            obs: ShardCounters::new(),
        }
    }
}

/// The sharded buffer pool. Also the single owner of the [`Pager`].
pub struct BufferPool {
    pager: Mutex<Pager>,
    shards: Box<[Shard]>,
    /// Eviction threshold per shard; total capacity is
    /// `shard_capacity * shards.len()`.
    shard_capacity: usize,
    /// Counter group shared with the wrapped pager (and, via
    /// [`BufferPool::counters`], with the B+-tree layer above): cache
    /// hits/misses/evictions accrue here next to the pager's page I/O.
    obs: Arc<StorageCounters>,
    /// Shared I/O latency histograms, adopted from the pager like `obs`.
    timers: Arc<StorageTimers>,
}

impl BufferPool {
    /// Wraps `pager` with a pool caching up to `capacity` pages, picking a
    /// shard count automatically: the largest power of two that keeps every
    /// shard at `MIN_SHARD_CAPACITY` pages or more, capped at
    /// `MAX_SHARDS`. Small pools (≤ 15 pages) get a single shard and
    /// behave exactly like the unsharded pool.
    pub fn new(pager: Pager, capacity: usize) -> BufferPool {
        let capacity = capacity.max(MIN_SHARD_CAPACITY);
        let mut shards = 1usize;
        while shards * 2 <= MAX_SHARDS && capacity / (shards * 2) >= MIN_SHARD_CAPACITY {
            shards *= 2;
        }
        Self::with_shards(pager, capacity, shards)
    }

    /// Wraps `pager` with an explicit shard count (clamped to ≥ 1). Each
    /// shard gets `ceil(capacity / shards)` pages, floored at
    /// `MIN_SHARD_CAPACITY` so tree descents always fit; the effective
    /// [`BufferPool::capacity`] is never below the requested one.
    pub fn with_shards(pager: Pager, capacity: usize, shards: usize) -> BufferPool {
        let shards = shards.max(1);
        let shard_capacity = capacity.div_ceil(shards).max(MIN_SHARD_CAPACITY);
        let obs = pager.counters().clone();
        let timers = pager.timers().clone();
        BufferPool {
            pager: Mutex::new(pager),
            shards: (0..shards).map(|_| Shard::new()).collect(),
            shard_capacity,
            obs,
            timers,
        }
    }

    #[inline]
    fn shard(&self, id: PageId) -> &Shard {
        &self.shards[id as usize % self.shards.len()]
    }

    /// The storage-layer counter group (shared with the pager). Snapshot it
    /// before and after a unit of work to attribute storage activity.
    pub fn counters(&self) -> &Arc<StorageCounters> {
        &self.obs
    }

    /// The shared storage-layer latency histograms (see [`Pager::timers`]).
    pub fn timers(&self) -> &Arc<StorageTimers> {
        &self.timers
    }

    /// Fetches page `id`, reading it from disk on a miss.
    pub fn fetch(&self, id: PageId) -> Result<PageRef> {
        let shard = self.shard(id);
        let mut inner = shard.inner.lock();
        if let Some(slot) = inner.map.get(&id) {
            let page = slot.page.clone();
            inner.touch(id);
            self.obs.pool_hits.incr();
            shard.obs.hits.incr();
            return Ok(page);
        }
        self.obs.pool_misses.incr();
        shard.obs.misses.incr();
        // Read while still holding the shard lock (shard → pager order).
        // Dropping it here would let a racing fetch fault the page in,
        // mutate it, and have eviction write it back and remove it from the
        // shard — all between this read and the insert below — so the image
        // read here would silently shadow the newer one (lost update).
        let mut buf = PageBuf::zeroed();
        self.pager.lock().read_page(id, &mut buf)?;
        let page = Arc::new(CachedPage {
            buf: RwLock::new(buf),
            dirty: AtomicBool::new(false),
        });
        self.evict_if_needed(shard, &mut inner)?;
        inner.map.insert(
            id,
            Slot {
                page: page.clone(),
                touch: 0,
            },
        );
        inner.touch(id);
        Ok(page)
    }

    /// Allocates a fresh page and returns its id plus a cached handle. The
    /// page image is zeroed; callers must `init` it and mark it dirty.
    pub fn allocate(&self) -> Result<(PageId, PageRef)> {
        let id = self.pager.lock().allocate()?;
        let page = Arc::new(CachedPage {
            buf: RwLock::new(PageBuf::zeroed()),
            dirty: AtomicBool::new(false),
        });
        let shard = self.shard(id);
        let mut inner = shard.inner.lock();
        if let Err(e) = self.evict_if_needed(shard, &mut inner) {
            // The pager already handed out `id`; return it to the free list
            // (best-effort) so a failed dirty write-back doesn't leak a page
            // in the file forever.
            let _ = self.pager.lock().free(id);
            return Err(e);
        }
        inner.map.insert(
            id,
            Slot {
                page: page.clone(),
                touch: 0,
            },
        );
        inner.touch(id);
        Ok((id, page))
    }

    /// Returns page `id` to the pager's free list and drops it from the cache.
    pub fn free(&self, id: PageId) -> Result<()> {
        self.shard(id).inner.lock().map.remove(&id);
        self.pager.lock().free(id)
    }

    /// Evicts until the shard is under its capacity. Dirty victims are
    /// written back *before* removal: if the write fails, the page stays in
    /// the shard (re-stamped into the LRU) with its dirty bit set, so the
    /// data survives and a later eviction or flush retries the write.
    fn evict_if_needed(&self, shard: &Shard, inner: &mut PoolInner) -> Result<()> {
        while inner.map.len() >= self.shard_capacity {
            let Some(victim) = Self::pick_victim(inner) else {
                // Everything is pinned; allow the shard to grow temporarily.
                return Ok(());
            };
            let page = inner.map.get(&victim).expect("victim in map").page.clone();
            if page.is_dirty() {
                let buf = page.buf.read();
                if let Err(e) = self.pager.lock().write_page(victim, &buf) {
                    // pick_victim popped the victim's LRU entry; re-stamp it
                    // so it stays reachable for the retry.
                    drop(buf);
                    inner.touch(victim);
                    return Err(e);
                }
                page.clear_dirty();
            }
            inner.map.remove(&victim);
            self.obs.pool_evictions.incr();
            shard.obs.evictions.incr();
        }
        Ok(())
    }

    fn pick_victim(inner: &mut PoolInner) -> Option<PageId> {
        let mut requeue: Vec<(PageId, u64)> = Vec::new();
        let mut found = None;
        while let Some((id, stamp)) = inner.lru.pop_front() {
            match inner.map.get(&id) {
                None => continue,                              // freed page
                Some(slot) if slot.touch != stamp => continue, // stale entry
                Some(slot) => {
                    if Arc::strong_count(&slot.page) == 1 {
                        found = Some(id);
                        break;
                    }
                    requeue.push((id, stamp)); // pinned: keep its LRU position
                }
            }
        }
        // Restore pinned entries at the front, preserving their order.
        for e in requeue.into_iter().rev() {
            inner.lru.push_front(e);
        }
        found
    }

    /// Writes back all dirty pages and checkpoints the pager. Visits shards
    /// one at a time (shard → pager lock order, never two shards at once).
    ///
    /// The write-backs are WAL appends, and [`Pager::checkpoint`] then
    /// makes them durable atomically (log-before-data).
    pub fn flush(&self) -> Result<()> {
        self.flush_consuming_ingests(0)
    }

    /// [`BufferPool::flush`] whose checkpoint additionally consumes the
    /// WAL's pending ingest records below `ingest_watermark` (a fold's
    /// durability point — the folded rows and the consumption commit
    /// atomically together).
    pub fn flush_consuming_ingests(&self, ingest_watermark: u64) -> Result<()> {
        for shard in self.shards.iter() {
            let inner = shard.inner.lock();
            let mut pager = self.pager.lock();
            for (&id, slot) in inner.map.iter() {
                if slot.page.is_dirty() {
                    let buf = slot.page.buf.read();
                    pager.write_page(id, &buf)?;
                    slot.page.clear_dirty();
                }
            }
        }
        self.pager.lock().checkpoint_consuming(ingest_watermark)
    }

    /// Logs one ingested document to the WAL (fsynced, individually
    /// durable).
    pub fn log_ingest(&self, doc_id: u32, xml: &[u8]) -> Result<()> {
        self.pager.lock().log_ingest(doc_id, xml)
    }

    /// The logged ingested documents no fold has consumed yet.
    pub fn pending_ingests(&self) -> Vec<crate::wal::PendingIngest> {
        self.pager.lock().pending_ingests()
    }

    /// (hits, misses) since pool creation.
    pub fn cache_counters(&self) -> (u64, u64) {
        (self.obs.pool_hits.get(), self.obs.pool_misses.get())
    }

    /// (disk reads, disk writes) since the pager was opened.
    pub fn io_counters(&self) -> (u64, u64) {
        self.pager.lock().io_counters()
    }

    /// Head of the pager's free-page list (persisted in the meta page).
    pub fn free_head(&self) -> PageId {
        self.pager.lock().free_head()
    }

    /// Total pages in the underlying file.
    pub fn page_count(&self) -> u32 {
        self.pager.lock().page_count()
    }

    /// Number of pages currently cached, across all shards.
    pub fn cached_pages(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().map.len()).sum()
    }

    /// Maximum number of cached pages before eviction kicks in (total
    /// across shards). Never below the capacity requested at construction:
    /// the per-shard share rounds up, and every shard holds at least
    /// `MIN_SHARD_CAPACITY` pages.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// Number of lock-striped shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Point-in-time per-shard cache counters, in shard order. Their
    /// field-wise sums equal the pool-level `pool_hits` / `pool_misses` /
    /// `pool_evictions` exactly, under any thread interleaving.
    pub fn shard_counters(&self) -> Vec<ShardSnapshot> {
        self.shards.iter().map(|s| s.obs.snapshot()).collect()
    }

    /// Arms pager write-failure injection (see
    /// [`Pager::inject_write_failures`]); test instrumentation.
    pub fn inject_write_failures(&self, n: u32) {
        self.pager.lock().inject_write_failures(n);
    }

    /// Arms pager crash injection (see [`Pager::inject_crash`]): the nth
    /// occurrence of `point` tears that operation and kills the store.
    pub fn inject_crash(&self, point: crate::wal::CrashPoint, nth: u32) {
        self.pager.lock().inject_crash(point, nth);
    }

    /// What WAL recovery did when the underlying pager was opened (None
    /// after a clean shutdown).
    pub fn recovery_report(&self) -> Option<crate::wal::RecoveryReport> {
        self.pager.lock().recovery_report().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageType;

    fn pool(name: &str, cap: usize) -> (BufferPool, std::path::PathBuf) {
        let mut p = std::env::temp_dir();
        p.push(format!("trex-buffer-{name}-{}", std::process::id()));
        let pager = Pager::create(&p).unwrap();
        (BufferPool::new(pager, cap), p)
    }

    fn cleanup(path: &std::path::Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(crate::wal::wal_path(path)).ok();
    }

    #[test]
    fn fetch_caches_and_hits() {
        let (pool, path) = pool("hit", 16);
        let (id, page) = pool.allocate().unwrap();
        page.buf.write().init(PageType::Leaf);
        page.mark_dirty();
        drop(page);
        let _p1 = pool.fetch(id).unwrap();
        let _p2 = pool.fetch(id).unwrap();
        let (hits, _) = pool.cache_counters();
        assert!(hits >= 2);
        cleanup(&path);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (pool, path) = pool("evict", 8);
        assert_eq!(pool.shard_count(), 1, "cap 8 = one shard");
        let mut ids = Vec::new();
        for i in 0..32u32 {
            let (id, page) = pool.allocate().unwrap();
            {
                let mut buf = page.buf.write();
                buf.init(PageType::Leaf);
                buf.set_next_page(i + 1000);
            }
            page.mark_dirty();
            ids.push(id);
        }
        assert!(pool.cached_pages() <= 9);
        // Early pages were evicted; refetch and confirm contents survived.
        let first = pool.fetch(ids[0]).unwrap();
        assert_eq!(first.buf.read().next_page(), 1000);
        cleanup(&path);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let (pool, path) = pool("pin", 8);
        let (id, pinned) = pool.allocate().unwrap();
        pinned.buf.write().init(PageType::Leaf);
        pinned.mark_dirty();
        for _ in 0..32 {
            let (_, p) = pool.allocate().unwrap();
            p.buf.write().init(PageType::Leaf);
            p.mark_dirty();
        }
        // The pinned handle must still observe its image in cache.
        let again = pool.fetch(id).unwrap();
        assert!(Arc::ptr_eq(&pinned, &again));
        cleanup(&path);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let (pool, path) = pool("order", 8);
        let mut ids = Vec::new();
        for _ in 0..8 {
            let (id, p) = pool.allocate().unwrap();
            p.buf.write().init(PageType::Leaf);
            p.mark_dirty();
            ids.push(id);
        }
        // Touch the first page so it is the most recently used.
        drop(pool.fetch(ids[0]).unwrap());
        // Trigger one eviction.
        let (_, p) = pool.allocate().unwrap();
        p.buf.write().init(PageType::Leaf);
        p.mark_dirty();
        // ids[1] (the oldest untouched) must have been the victim; fetching
        // it again is a miss, fetching ids[0] is a hit.
        let (_, misses_before) = pool.cache_counters();
        drop(pool.fetch(ids[0]).unwrap());
        let (_, misses_mid) = pool.cache_counters();
        assert_eq!(misses_before, misses_mid, "ids[0] should still be cached");
        drop(pool.fetch(ids[1]).unwrap());
        let (_, misses_after) = pool.cache_counters();
        assert_eq!(
            misses_after,
            misses_mid + 1,
            "ids[1] should have been evicted"
        );
        cleanup(&path);
    }

    #[test]
    fn flush_persists_everything() {
        let (pool, path) = pool("flush", 8);
        let (id, page) = pool.allocate().unwrap();
        {
            let mut buf = page.buf.write();
            buf.init(PageType::Internal);
            buf.set_right_child(424242);
        }
        page.mark_dirty();
        drop(page);
        pool.flush().unwrap();
        // Bypass the cache: reopen the file.
        drop(pool);
        let mut pager = Pager::open(&path, None).unwrap();
        let mut buf = PageBuf::zeroed();
        pager.read_page(id, &mut buf).unwrap();
        assert_eq!(buf.right_child(), 424242);
        cleanup(&path);
    }

    #[test]
    fn default_shard_count_scales_with_capacity() {
        let (small, p1) = pool("sh-small", 8);
        assert_eq!(small.shard_count(), 1);
        let (mid, p2) = pool("sh-mid", 64);
        assert_eq!(mid.shard_count(), 8);
        assert_eq!(mid.capacity(), 64);
        let (big, p3) = pool("sh-big", 4096);
        assert_eq!(big.shard_count(), 16);
        assert_eq!(big.capacity(), 4096);
        for p in [p1, p2, p3] {
            cleanup(&p);
        }
    }

    #[test]
    fn capacity_never_rounds_below_request() {
        // 100 / 8 shards floors to 12 × 8 = 96; the per-shard share must
        // round up instead (13 × 8 = 104 ≥ 100).
        let (pool, path) = pool("cap-ceil", 100);
        assert!(
            pool.capacity() >= 100,
            "capacity {} < requested 100",
            pool.capacity()
        );
        cleanup(&path);
    }

    #[test]
    fn shard_counters_sum_to_global() {
        let (pool, path) = pool("sh-sum", 64);
        let mut ids = Vec::new();
        for _ in 0..128u32 {
            let (id, p) = pool.allocate().unwrap();
            p.buf.write().init(PageType::Leaf);
            p.mark_dirty();
            ids.push(id);
        }
        for &id in ids.iter().rev() {
            drop(pool.fetch(id).unwrap());
        }
        let shards = pool.shard_counters();
        let (hits, misses) = pool.cache_counters();
        let evictions = pool.counters().pool_evictions.get();
        assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), hits);
        assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), misses);
        assert_eq!(shards.iter().map(|s| s.evictions).sum::<u64>(), evictions);
        assert!(evictions > 0, "churn must evict");
        cleanup(&path);
    }

    #[test]
    fn failed_write_back_keeps_dirty_page_cached() {
        let (pool, path) = pool("wbfail", 8);
        // Overfill the single shard with dirty pages; the 9th allocation
        // evicts ids[0] (write-back succeeds, injection not armed yet).
        let mut ids = Vec::new();
        for i in 0..9u32 {
            let (id, p) = pool.allocate().unwrap();
            {
                let mut buf = p.buf.write();
                buf.init(PageType::Leaf);
                buf.set_next_page(i + 7000);
            }
            p.mark_dirty();
            ids.push(id);
        }
        // Refetching ids[0] faults it in and must evict dirty ids[1]; arm
        // the injection so that write-back fails.
        pool.inject_write_failures(1);
        let err = match pool.fetch(ids[0]) {
            Err(e) => e,
            Ok(_) => panic!("fetch must fail on write-back error"),
        };
        assert!(err.to_string().contains("injected"), "{err}");
        // Regression (the pre-shard pool removed the victim from the map
        // before writing it back, silently dropping the dirty image): the
        // victim must still be cached with its data intact.
        let victim = pool.fetch(ids[1]).unwrap();
        assert_eq!(victim.buf.read().next_page(), 7001);
        drop(victim);
        // With the failure cleared, eviction and flush succeed and the data
        // reaches disk.
        pool.flush().unwrap();
        drop(pool);
        let mut pager = Pager::open(&path, None).unwrap();
        let mut buf = PageBuf::zeroed();
        pager.read_page(ids[1], &mut buf).unwrap();
        assert_eq!(buf.next_page(), 7001);
        cleanup(&path);
    }

    #[test]
    fn allocate_returns_id_to_free_list_on_eviction_failure() {
        let (pool, path) = pool("allocfail", 8);
        assert_eq!(pool.shard_count(), 1, "cap 8 = one shard");
        // Fill the shard with dirty, unpinned pages.
        let mut ids = Vec::new();
        for _ in 0..8u32 {
            let (id, p) = pool.allocate().unwrap();
            p.buf.write().init(PageType::Leaf);
            p.mark_dirty();
            ids.push(id);
        }
        // Seed the free list so the failing allocate below pops a page that
        // must go back to the free list, instead of extending the store.
        let (scratch, p) = pool.allocate().unwrap();
        drop(p);
        pool.free(scratch).unwrap();
        // Refill the shard to capacity so the next allocate must evict.
        drop(pool.fetch(ids[0]).unwrap());
        let pages_before = pool.page_count();

        pool.inject_write_failures(1);
        let err = match pool.allocate() {
            Err(e) => e,
            Ok(_) => panic!("allocate must fail on dirty write-back error"),
        };
        assert!(err.to_string().contains("injected"), "{err}");
        // Regression: the pager had already handed out `scratch`; the failed
        // allocate must return it to the free list instead of leaking it.
        assert_eq!(pool.free_head(), scratch);
        assert_eq!(pool.page_count(), pages_before, "file must not grow");
        // With the failure cleared, the next allocate reuses the freed id.
        let (id, _p) = pool.allocate().unwrap();
        assert_eq!(id, scratch);
        assert_eq!(pool.page_count(), pages_before);
        cleanup(&path);
    }

    #[test]
    fn concurrent_fetches_share_one_image() {
        let (pool, path) = pool("concurrent", 64);
        let (id, page) = pool.allocate().unwrap();
        page.buf.write().init(PageType::Leaf);
        page.mark_dirty();
        drop(page);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let first = pool.fetch(id).unwrap();
                    for _ in 0..100 {
                        let again = pool.fetch(id).unwrap();
                        assert!(Arc::ptr_eq(&first, &again));
                    }
                });
            }
        });
        let (hits, misses) = pool.cache_counters();
        assert_eq!(hits + misses, 8 * 101, "every fetch is a hit or a miss");
        cleanup(&path);
    }
}
