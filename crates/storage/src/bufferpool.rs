//! A read-only LRU page cache over a file.
//!
//! The pool holds at most `capacity` pages of an immutable file (a published
//! checkpoint). A fetch hands out an `Arc<Page>`, so a reader keeps its page
//! alive even after the pool evicts it: eviction never waits on a reader and
//! never fails, and memory stays bounded by `capacity` plus the pages that
//! in-flight reads hold.

use crate::disk::DiskManager;
use crate::error::Result;
use crate::metrics::{CacheCounters, Metrics};
use crate::page::{Page, PageId};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Resident pages, in least-recently-used order.
#[derive(Default)]
struct Frames {
    /// Page → (contents, last-use tick).
    pages: HashMap<PageId, (Arc<Page>, u64)>,
    /// Last-use tick → page; the first entry is the LRU victim.
    by_tick: BTreeMap<u64, PageId>,
    tick: u64,
}

impl Frames {
    /// Make `id` (holding `page`) the most recently used frame.
    fn touch(&mut self, id: PageId, page: Arc<Page>) {
        self.tick += 1;
        if let Some((_, old)) = self.pages.insert(id, (page, self.tick)) {
            self.by_tick.remove(&old);
        }
        self.by_tick.insert(self.tick, id);
    }
}

/// A fixed-capacity LRU cache of the pages of a [`DiskManager`]'s file,
/// recording `bufferpool.{lookups,hits,misses,evictions}`.
pub struct BufferPool {
    disk: Arc<DiskManager>,
    capacity: usize,
    frames: Mutex<Frames>,
    counters: CacheCounters,
}

impl BufferPool {
    /// A pool of `capacity` frames over `disk`, recording into `metrics`.
    pub fn with_metrics(
        disk: Arc<DiskManager>,
        capacity: usize,
        metrics: &Metrics,
    ) -> Arc<BufferPool> {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        Arc::new(BufferPool {
            disk,
            capacity,
            frames: Mutex::new(Frames::default()),
            counters: CacheCounters::resolve(metrics, "bufferpool"),
        })
    }

    /// The page `id`, from memory or read from the file. On a miss with
    /// every frame full, the least recently used page is evicted first.
    pub fn fetch(&self, id: PageId) -> Result<Arc<Page>> {
        let mut frames = self.frames.lock();
        if let Some(page) = frames.pages.get(&id).map(|(page, _)| page.clone()) {
            self.counters.hit();
            frames.touch(id, page.clone());
            return Ok(page);
        }
        self.counters.miss();
        // Read under the lock: one reader per page fault keeps the pool a
        // plain map, and checkpoint reads are sequential scans anyway.
        let page = Arc::new(self.disk.read(id)?);
        if frames.pages.len() >= self.capacity {
            let (_, victim) = frames.by_tick.pop_first().expect("full pool has a victim");
            frames.pages.remove(&victim);
            self.counters.evict();
        }
        frames.touch(id, page.clone());
        Ok(page)
    }

    /// Number of resident frames.
    pub fn resident(&self) -> usize {
        self.frames.lock().pages.len()
    }

    /// The pool's frame capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    /// A pool over a file of `pages` pages, page `i` filled with byte `i`.
    /// The file is unlinked once open; the pool's handle keeps it readable.
    fn setup(capacity: usize, pages: usize, tag: &str) -> (Arc<BufferPool>, Metrics) {
        let path = std::env::temp_dir().join(format!(
            "backbone-bufferpool-test-{tag}-{}",
            std::process::id()
        ));
        let bytes: Vec<u8> = (0..pages * PAGE_SIZE)
            .map(|i| (i / PAGE_SIZE) as u8)
            .collect();
        std::fs::write(&path, bytes).unwrap();
        let disk = Arc::new(DiskManager::open_file(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
        let metrics = Metrics::new();
        let pool = BufferPool::with_metrics(disk, capacity, &metrics);
        (pool, metrics)
    }

    #[test]
    fn fetch_hit_and_miss_accounting() {
        let (pool, metrics) = setup(2, 2, "accounting");
        pool.fetch(0).unwrap();
        pool.fetch(0).unwrap();
        assert_eq!(metrics.value("bufferpool.misses"), 1);
        assert_eq!(metrics.value("bufferpool.hits"), 1);
    }

    #[test]
    fn eviction_when_full() {
        let (pool, metrics) = setup(2, 3, "evict");
        for id in 0..3 {
            pool.fetch(id).unwrap();
        }
        assert_eq!(pool.resident(), 2);
        assert_eq!(metrics.value("bufferpool.evictions"), 1);
        // Page 0 was least recently used, so it went: fetching it misses.
        pool.fetch(0).unwrap();
        assert_eq!(metrics.value("bufferpool.misses"), 4);
    }

    #[test]
    fn pinned_pages_survive_eviction() {
        // A reader holding a page keeps reading it after the pool evicts
        // it, and holding it never blocks the pool from admitting others.
        let (pool, metrics) = setup(1, 3, "held");
        let held = pool.fetch(0).unwrap();
        let other = pool.fetch(1).unwrap();
        pool.fetch(2).unwrap();
        assert_eq!(pool.resident(), 1);
        assert_eq!(metrics.value("bufferpool.evictions"), 2);
        assert_eq!(held.read_at(0, 4), [0; 4]);
        assert_eq!(other.read_at(PAGE_SIZE - 4, 4), [1; 4]);
    }

    #[test]
    fn shared_registry_mirrors_pool_stats() {
        let (pool, metrics) = setup(2, 3, "registry");
        for id in (0..3).chain(0..3) {
            pool.fetch(id).unwrap();
        }
        // LRU over a loop one larger than the pool never hits.
        assert_eq!(metrics.value("bufferpool.hits"), 0);
        assert_eq!(metrics.value("bufferpool.misses"), 6);
        assert_eq!(metrics.value("bufferpool.evictions"), 4);
        assert_eq!(
            metrics.value("bufferpool.lookups"),
            metrics.value("bufferpool.hits") + metrics.value("bufferpool.misses"),
        );
    }

    #[test]
    fn hit_rate_improves_with_capacity() {
        // The zero→aha demonstration of buffering: same trace, bigger pool,
        // fewer disk reads.
        let trace: Vec<u64> = (0..200).map(|i| i % 8).collect();
        let mut rates = Vec::new();
        for cap in [2usize, 4, 8] {
            let (pool, metrics) = setup(cap, 8, &format!("rate{cap}"));
            for &id in &trace {
                pool.fetch(id).unwrap();
            }
            rates.push(metrics.value("bufferpool.hits") as f64 / trace.len() as f64);
        }
        assert!(
            rates[0] < rates[2],
            "hit rate should rise with capacity: {rates:?}"
        );
        assert!(rates[2] > 0.9);
    }
}
