//! Byte-range reads over a page file, served through the buffer pool.
//!
//! [`PagedFile`] is the bridge between the byte-oriented checkpoint codec
//! and the page-oriented [`BufferPool`]: callers ask for `(offset, len)`
//! byte ranges and the pager assembles them from `PAGE_SIZE` pages fetched
//! one at a time — a read holds at most one page outside the pool at any
//! moment, so a scan over an arbitrarily large checkpoint file holds
//! `O(pool capacity)` memory, never `O(file)`. Hot pages (the directory, a
//! group read twice) are served from the pool without touching the disk;
//! cold ones charge a miss and an eviction, which is exactly the traffic the
//! `bufferpool.*` metrics expose in EXPLAIN ANALYZE.

use crate::bufferpool::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{PageId, PAGE_SIZE};
use std::sync::Arc;

/// A read-only byte view of a file whose pages stream through a
/// [`BufferPool`].
#[derive(Clone)]
pub struct PagedFile {
    pool: Arc<BufferPool>,
    len: u64,
}

impl std::fmt::Debug for PagedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedFile")
            .field("len", &self.len)
            .field("pool_capacity", &self.pool.capacity())
            .finish_non_exhaustive()
    }
}

impl PagedFile {
    /// Wrap a pool whose disk manager is the file to read. `len` is the
    /// file length in bytes (the addressable range; pages past it error).
    pub fn new(pool: Arc<BufferPool>, len: u64) -> PagedFile {
        PagedFile { pool, len }
    }

    /// File length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read `len` bytes starting at `offset`, one page at a time.
    pub fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let end = offset
            .checked_add(len as u64)
            .ok_or_else(|| StorageError::Corrupt("paged read overflows u64".into()))?;
        if end > self.len {
            return Err(StorageError::Corrupt(format!(
                "paged read [{offset}, {end}) past end of file ({} bytes)",
                self.len
            )));
        }
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        while pos < end {
            let page_id = pos / PAGE_SIZE as u64;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let take = ((end - pos) as usize).min(PAGE_SIZE - in_page);
            let page = self.pool.fetch(page_id as PageId)?;
            out.extend_from_slice(page.read_at(in_page, take));
            pos += take as u64;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;
    use crate::metrics::Metrics;

    /// A pager over a file holding `bytes`. The file is unlinked once open;
    /// the pool's handle keeps it readable.
    fn paged_fixture(bytes: &[u8], capacity: usize) -> (PagedFile, Arc<BufferPool>, Metrics) {
        let path = std::env::temp_dir().join(format!(
            "backbone-pager-test-{}-{}",
            std::process::id(),
            bytes.len()
        ));
        std::fs::write(&path, bytes).unwrap();
        let disk = Arc::new(DiskManager::open_file(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
        let len = disk.len_bytes();
        let metrics = Metrics::new();
        let pool = BufferPool::with_metrics(disk, capacity, &metrics);
        (PagedFile::new(pool.clone(), len), pool, metrics)
    }

    #[test]
    fn read_at_crosses_page_boundaries() {
        let data: Vec<u8> = (0..3 * PAGE_SIZE + 100).map(|i| (i % 251) as u8).collect();
        let (file, _pool, _metrics) = paged_fixture(&data, 2);
        // Whole file, a straddling range, and the tail.
        assert_eq!(file.read_at(0, data.len()).unwrap(), data);
        let straddle = file.read_at(PAGE_SIZE as u64 - 7, 20).unwrap();
        assert_eq!(straddle, &data[PAGE_SIZE - 7..PAGE_SIZE + 13]);
        let tail = file.read_at(3 * PAGE_SIZE as u64, 100).unwrap();
        assert_eq!(tail, &data[3 * PAGE_SIZE..]);
        // Past-end reads error instead of zero-filling silently.
        assert!(file.read_at(3 * PAGE_SIZE as u64, 101).is_err());
    }

    #[test]
    fn chunks_stream_with_bounded_pool() {
        let data: Vec<u8> = (0..10 * PAGE_SIZE).map(|i| (i % 13) as u8).collect();
        let (file, pool, metrics) = paged_fixture(&data, 2);
        let mut seen = Vec::new();
        for page in 0..10u64 {
            seen.extend(file.read_at(page * PAGE_SIZE as u64, PAGE_SIZE).unwrap());
        }
        assert_eq!(seen, data);
        // Ten pages streamed through a two-frame pool: evictions happened
        // and residency stayed bounded.
        assert!(pool.resident() <= 2);
        assert!(metrics.value("bufferpool.evictions") >= 8);
    }

    #[test]
    fn more_concurrent_readers_than_frames_all_succeed() {
        // Four threads each read 3-page ranges through a 2-frame pool: a
        // page another reader holds never makes a read fail or wait.
        let data: Vec<u8> = (0..8 * PAGE_SIZE).map(|i| (i % 241) as u8).collect();
        let (file, pool, _metrics) = paged_fixture(&data, 2);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (file, data, start) = (&file, &data, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..2000u64 {
                        let offset = (t * 977 + i * 4093) % (5 * PAGE_SIZE as u64) + 1;
                        let len = 2 * PAGE_SIZE + 10;
                        let from = offset as usize;
                        assert_eq!(file.read_at(offset, len).unwrap(), &data[from..from + len]);
                    }
                });
            }
        });
        assert!(pool.resident() <= 2);
    }
}
