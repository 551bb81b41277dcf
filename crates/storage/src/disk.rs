//! Page reads from an immutable file: the "disk" under the buffer pool.
//!
//! [`DiskManager`] maps page `id` to the `PAGE_SIZE` bytes at offset
//! `id * PAGE_SIZE`, which is how a published checkpoint file streams
//! through the pool without being loaded whole.

use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, PAGE_SIZE};
use parking_lot::Mutex;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// A read-only page view of a file. The final partial page (if the file
/// length is not a multiple of [`PAGE_SIZE`]) reads back zero-padded.
#[derive(Debug)]
pub struct DiskManager {
    file: Mutex<File>,
    len: u64,
}

impl DiskManager {
    /// Open the file at `path` for page reads.
    pub fn open_file(path: impl AsRef<Path>) -> Result<DiskManager> {
        let file = File::open(path.as_ref()).map_err(|e| StorageError::Io(e.to_string()))?;
        let len = file
            .metadata()
            .map_err(|e| StorageError::Io(e.to_string()))?
            .len();
        Ok(DiskManager {
            file: Mutex::new(file),
            len,
        })
    }

    /// Length of the file in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Read a page by id; a page past the end of the file is
    /// [`StorageError::PageNotFound`].
    pub fn read(&self, id: PageId) -> Result<Page> {
        let offset = id * PAGE_SIZE as u64;
        if offset >= self.len {
            return Err(StorageError::PageNotFound(id));
        }
        let want = (self.len - offset).min(PAGE_SIZE as u64) as usize;
        let mut page = Page::zeroed();
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(offset))
            .map_err(|e| StorageError::Io(e.to_string()))?;
        f.read_exact(&mut page.bytes_mut()[..want])
            .map_err(|e| StorageError::Io(e.to_string()))?;
        Ok(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_page_errors() {
        let path = std::env::temp_dir().join(format!("backbone-disk-empty-{}", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let disk = DiskManager::open_file(&path).unwrap();
        assert!(matches!(disk.read(0), Err(StorageError::PageNotFound(0))));
        assert!(matches!(disk.read(9), Err(StorageError::PageNotFound(9))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backed_pages_map_offsets_and_pad_tail() {
        let dir = std::env::temp_dir().join(format!("backbone-disk-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        // One full page of 0xAB plus a 10-byte tail of 0xCD.
        let mut bytes = vec![0xABu8; PAGE_SIZE];
        bytes.extend_from_slice(&[0xCD; 10]);
        std::fs::write(&path, &bytes).unwrap();

        let disk = DiskManager::open_file(&path).unwrap();
        assert_eq!(disk.len_bytes(), (PAGE_SIZE + 10) as u64);
        assert_eq!(disk.read(0).unwrap().read_at(0, 4), [0xAB; 4]);
        let tail = disk.read(1).unwrap();
        assert_eq!(tail.read_at(0, 10), [0xCD; 10]);
        // Past end-of-file within the last page is zero-padded.
        assert_eq!(tail.read_at(10, 4), [0u8; 4]);
        // Past the last page is an error.
        assert!(matches!(disk.read(2), Err(StorageError::PageNotFound(2))));

        std::fs::remove_dir_all(&dir).ok();
    }
}
