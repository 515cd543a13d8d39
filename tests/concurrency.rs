//! Concurrency stress tests for the sharded buffer pool: many threads
//! performing pin / evict / free churn on a capacity-constrained pool must
//! lose no page images (in cache or on disk) and must keep the per-shard
//! cache counters summing *exactly* to the pool-level totals.
//!
//! The page payload protocol: every long-lived page stores a version number
//! in its `next_page` header field. Each page has exactly one owner thread;
//! the owner increments the version once per round, so the final on-disk
//! value must equal the round count — any torn update, lost write-back, or
//! aliased page image shows up as a wrong version.

use std::sync::atomic::{AtomicU64, Ordering};

use trex::storage::buffer::BufferPool;
use trex::storage::page::{PageBuf, PageId, PageType};
use trex::storage::pager::Pager;

const THREADS: usize = 8;
const PAGES: usize = 256;
const ROUNDS: u32 = 30;

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("trex-conc-{name}-{}.db", std::process::id()))
}

fn cleanup(path: &std::path::Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(trex::storage::wal_path(path)).ok();
}

#[test]
fn eight_thread_pin_evict_free_churn_loses_nothing() {
    let path = temp("churn");
    let pager = Pager::create(&path).unwrap();
    // 8 shards × 8 pages: far below the 256-page working set, so every
    // round is dominated by evictions and dirty write-backs.
    let pool = BufferPool::with_shards(pager, 64, THREADS);
    assert_eq!(pool.shard_count(), THREADS);

    // Build the working set: PAGES pages, version 0, all dirty.
    let ids: Vec<PageId> = (0..PAGES)
        .map(|_| {
            let (id, page) = pool.allocate().unwrap();
            {
                let mut buf = page.buf.write();
                buf.init(PageType::Leaf);
                buf.set_next_page(0);
            }
            page.mark_dirty();
            id
        })
        .collect();

    let total_fetches = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = &pool;
            let ids = &ids;
            let total_fetches = &total_fetches;
            s.spawn(move || {
                let owned: Vec<PageId> = ids
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(i, _)| i % THREADS == t)
                    .map(|(_, id)| id)
                    .collect();
                let mut fetches = 0u64;
                let mut rng = 0x9e3779b97f4a7c15u64.wrapping_mul(t as u64 + 1);
                for round in 0..ROUNDS {
                    // Writer churn: bump the version of every owned page.
                    for &id in &owned {
                        let page = pool.fetch(id).unwrap();
                        fetches += 1;
                        {
                            let mut buf = page.buf.write();
                            let v = buf.next_page();
                            assert_eq!(v, round, "page {id}: lost an update");
                            buf.set_next_page(v + 1);
                        }
                        page.mark_dirty();
                    }

                    // Pin churn: hold one page across foreign reads; the
                    // pinned frame must not be evicted while held.
                    let pinned_id = owned[round as usize % owned.len()];
                    let pin = pool.fetch(pinned_id).unwrap();
                    fetches += 1;
                    for _ in 0..8 {
                        rng = rng
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let id = ids[(rng >> 33) as usize % PAGES];
                        let page = pool.fetch(id).unwrap();
                        fetches += 1;
                        let v = page.buf.read().next_page();
                        assert!(v <= ROUNDS, "page {id}: corrupt version {v}");
                    }
                    let again = pool.fetch(pinned_id).unwrap();
                    fetches += 1;
                    assert!(
                        std::sync::Arc::ptr_eq(&pin, &again),
                        "pinned page {pinned_id} was evicted while held"
                    );
                    drop((pin, again));

                    // Free churn: allocate a scratch page, dirty it, return
                    // it to the free list (possibly reused by a neighbour).
                    let (scratch_id, scratch) = pool.allocate().unwrap();
                    {
                        let mut buf = scratch.buf.write();
                        buf.init(PageType::Leaf);
                        buf.set_next_page(0xDEAD);
                    }
                    scratch.mark_dirty();
                    drop(scratch);
                    pool.free(scratch_id).unwrap();
                }
                total_fetches.fetch_add(fetches, Ordering::Relaxed);
            });
        }
    });

    // Exact accounting: every fetch was either a hit or a miss, and the
    // per-shard counters sum to the pool-level totals — no event lost.
    let (hits, misses) = pool.cache_counters();
    assert_eq!(hits + misses, total_fetches.load(Ordering::Relaxed));
    let shards = pool.shard_counters();
    let evictions: u64 = pool.counters().pool_evictions.get();
    assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), hits);
    assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), misses);
    assert_eq!(shards.iter().map(|s| s.evictions).sum::<u64>(), evictions);
    assert!(evictions > 0, "working set never pressured the pool");
    assert!(
        pool.cached_pages() <= pool.capacity(),
        "pool over capacity with no pins held"
    );

    // No page lost in cache: every owned page reads back its final version.
    for &id in &ids {
        let page = pool.fetch(id).unwrap();
        assert_eq!(page.buf.read().next_page(), ROUNDS, "page {id} in cache");
    }

    // No page lost on disk: flush, reopen the raw file, check every image.
    pool.flush().unwrap();
    drop(pool);
    let mut pager = Pager::open(&path, None).unwrap();
    for &id in &ids {
        let mut buf = PageBuf::zeroed();
        pager.read_page(id, &mut buf).unwrap();
        assert_eq!(buf.next_page(), ROUNDS, "page {id} on disk");
    }
    cleanup(&path);
}

/// Pins can exceed a shard's capacity: eviction skips pinned frames and the
/// shard grows temporarily, shrinking back once the pins drop.
#[test]
fn pinned_pages_survive_capacity_pressure() {
    let path = temp("pins");
    let pager = Pager::create(&path).unwrap();
    // Single shard of 8 pages so every page contends for the same stripe.
    let pool = BufferPool::with_shards(pager, 8, 1);

    let ids: Vec<PageId> = (0..24)
        .map(|_| {
            let (id, page) = pool.allocate().unwrap();
            page.buf.write().init(PageType::Leaf);
            page.mark_dirty();
            id
        })
        .collect();

    // Pin more pages than the shard holds; fetching the rest forces the
    // shard past capacity instead of evicting a pinned frame.
    let pins: Vec<_> = ids[..12]
        .iter()
        .map(|&id| pool.fetch(id).unwrap())
        .collect();
    for &id in &ids[12..] {
        pool.fetch(id).unwrap();
    }
    assert!(pool.cached_pages() > pool.capacity());
    for (pin, &id) in pins.iter().zip(&ids[..12]) {
        let again = pool.fetch(id).unwrap();
        assert!(std::sync::Arc::ptr_eq(pin, &again));
    }

    // With the pins gone, churning the remaining pages drains the excess.
    drop(pins);
    for &id in &ids[12..] {
        pool.fetch(id).unwrap();
    }
    assert!(pool.cached_pages() <= pool.capacity());
    cleanup(&path);
}
