//! Fixed-size pages, the unit of buffering and I/O.

/// Size of a page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page within a page store.
pub type PageId = u64;

/// A fixed-size page of bytes.
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A zeroed page.
    pub fn zeroed() -> Page {
        Page {
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }

    /// Mutably borrow the page bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    /// Read `len` bytes at `offset`, truncated at the page boundary.
    pub fn read_at(&self, offset: usize, len: usize) -> &[u8] {
        if offset >= PAGE_SIZE {
            return &[];
        }
        let n = len.min(PAGE_SIZE - offset);
        &self.data[offset..offset + n]
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page({} bytes)", PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut p = Page::zeroed();
        p.bytes_mut()[10..15].copy_from_slice(b"hello");
        assert_eq!(p.read_at(10, 5), b"hello");
    }

    #[test]
    fn read_truncates_at_boundary() {
        let mut p = Page::zeroed();
        p.bytes_mut()[PAGE_SIZE - 3..].copy_from_slice(b"abc");
        assert_eq!(p.read_at(PAGE_SIZE - 3, 10), b"abc");
    }

    #[test]
    fn read_past_end_is_empty() {
        let p = Page::zeroed();
        assert_eq!(p.read_at(PAGE_SIZE, 1), b"");
    }
}
