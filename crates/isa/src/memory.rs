//! Sparse byte-addressable memory.
//!
//! Memory is organised as 4 KiB pages allocated on demand, which keeps large
//! but sparsely-used address spaces (data, stack, trace pages) cheap. All
//! accesses are little-endian.
//!
//! The page table ([`PageTable`]) is a `Vec` sorted by page index rather
//! than a hash map: kernels touch a handful of pages with strong locality.
//! A 16-entry hint, direct-mapped by the low page bits, remembers where
//! recently touched pages sit in the table, so the stack and table pages a
//! kernel alternates between each stay one compare away; only a hint miss
//! pays the binary search. All multi-byte accessors copy through fixed
//! stack buffers — nothing on the read path allocates.

use crate::instr::MemWidth;
use std::cell::Cell;

/// Size of a memory page in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// Sparse, paged, byte-addressable memory.
///
/// Unwritten locations read as zero.
///
/// # Examples
///
/// ```
/// use cassandra_isa::memory::Memory;
///
/// let mut mem = Memory::new();
/// mem.write_u64(0x1000, 0xdead_beef_cafe_f00d);
/// assert_eq!(mem.read_u64(0x1000), 0xdead_beef_cafe_f00d);
/// assert_eq!(mem.read_u8(0x1000), 0x0d); // little endian
/// assert_eq!(mem.read_u64(0x9999), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Memory {
    /// Allocated pages.
    pages: PageTable<[u8; PAGE_SIZE as usize]>,
}

/// Entries of the page hint (a power of two).
const HINTS: usize = 16;

/// A hint slot that matches no page (page indices are `addr / PAGE_SIZE`).
const NO_HINT: (u64, usize) = (u64::MAX, 0);

/// The index a hint slot records for a page that is not allocated.
const ABSENT: usize = usize::MAX;

/// A sparse table of per-page records, sorted by page index, behind a
/// 16-entry page hint: the page store of [`Memory`], and of any other
/// per-page state that follows the same addresses (the timing model's
/// taint bitmap).
///
/// Slot `page % 16` of the hint remembers where `page` sits in the table,
/// or that it is absent, so a lookup of a recently used page is one
/// compare; a hint miss pays a binary search. The hint is a pure cache:
/// never observable, hence interior-mutable behind `&self` lookups and
/// excluded from equality.
#[derive(Debug, Clone)]
pub struct PageTable<T> {
    /// `(page index, record)` pairs, sorted by page index.
    pages: Vec<(u64, Box<T>)>,
    /// `(page, index into pages or ABSENT)`, slot `page % HINTS`.
    hints: [Cell<(u64, usize)>; HINTS],
}

impl<T> Default for PageTable<T> {
    fn default() -> Self {
        PageTable {
            pages: Vec::new(),
            hints: std::array::from_fn(|_| Cell::new(NO_HINT)),
        }
    }
}

impl<T: PartialEq> PartialEq for PageTable<T> {
    fn eq(&self, other: &Self) -> bool {
        self.pages == other.pages
    }
}

impl<T: Eq> Eq for PageTable<T> {}

impl<T> PageTable<T> {
    /// Number of pages present.
    #[inline]
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True if no page is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The record of `page`, if present.
    #[inline(always)]
    pub fn get(&self, page: u64) -> Option<&T> {
        self.slot(page).map(|i| &*self.pages[i].1)
    }

    /// The record of `page`, if present, for writing.
    #[inline(always)]
    pub fn get_mut(&mut self, page: u64) -> Option<&mut T> {
        self.slot(page).map(|i| &mut *self.pages[i].1)
    }

    /// The record of `page`, inserting `init()` first if it is absent.
    #[inline(always)]
    pub fn get_or_insert_with(&mut self, page: u64, init: impl FnOnce() -> Box<T>) -> &mut T {
        let i = match self.slot(page) {
            Some(i) => i,
            None => self.insert(page, init()),
        };
        &mut self.pages[i].1
    }

    /// Index of `page` in the table, trying its hint slot first.
    #[inline(always)]
    fn slot(&self, page: u64) -> Option<usize> {
        let (p, i) = self.hints[page as usize % HINTS].get();
        if p == page {
            return (i != ABSENT).then_some(i);
        }
        self.search(page)
    }

    /// The hint-miss half of [`PageTable::slot`]: a binary search whose
    /// answer, found or [`ABSENT`], is remembered in the page's hint slot.
    #[cold]
    #[inline(never)]
    fn search(&self, page: u64) -> Option<usize> {
        let found = self.pages.binary_search_by_key(&page, |(p, _)| *p).ok();
        self.hints[page as usize % HINTS].set((page, found.unwrap_or(ABSENT)));
        found
    }

    /// Inserts the absent `page` and returns its index.
    #[cold]
    #[inline(never)]
    fn insert(&mut self, page: u64, record: Box<T>) -> usize {
        let i = self
            .pages
            .binary_search_by_key(&page, |(p, _)| *p)
            .unwrap_err();
        self.pages.insert(i, (page, record));
        // Every page at or after `i` moved up one slot.
        for hint in &self.hints {
            hint.set(NO_HINT);
        }
        self.hints[page as usize % HINTS].set((page, i));
        i
    }
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of allocated pages (for tests and statistics).
    #[inline]
    pub fn allocated_pages(&self) -> usize {
        self.pages.len()
    }

    /// The backing array of `page`, if allocated.
    #[inline(always)]
    fn page(&self, page: u64) -> Option<&[u8; PAGE_SIZE as usize]> {
        self.pages.get(page)
    }

    /// The backing array of `page`, allocating a zeroed page on first write.
    #[inline(always)]
    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_SIZE as usize] {
        self.pages
            .get_or_insert_with(page, || Box::new([0u8; PAGE_SIZE as usize]))
    }

    /// Reads a single byte.
    #[inline(always)]
    pub fn read_u8(&self, addr: u64) -> u8 {
        let off = (addr % PAGE_SIZE) as usize;
        self.page(addr / PAGE_SIZE).map_or(0, |p| p[off])
    }

    /// Writes a single byte.
    #[inline(always)]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let off = (addr % PAGE_SIZE) as usize;
        self.page_mut(addr / PAGE_SIZE)[off] = value;
    }

    /// Fills `buf` with the bytes starting at `addr`, page by page, without
    /// allocating. Unallocated ranges read as zero.
    pub fn read_into(&self, addr: u64, buf: &mut [u8]) {
        let mut addr = addr;
        let mut buf = buf;
        while !buf.is_empty() {
            let off = (addr % PAGE_SIZE) as usize;
            let n = buf.len().min(PAGE_SIZE as usize - off);
            match self.page(addr / PAGE_SIZE) {
                Some(p) => buf[..n].copy_from_slice(&p[off..off + n]),
                None => buf[..n].fill(0),
            }
            buf = &mut buf[n..];
            addr += n as u64;
        }
    }

    /// Reads `n` bytes starting at `addr` (little-endian order preserved).
    ///
    /// Allocates the returned buffer; hot paths should prefer
    /// [`Memory::read_into`] with a stack buffer.
    pub fn read_bytes(&self, addr: u64, n: usize) -> Vec<u8> {
        let mut buf = vec![0u8; n];
        self.read_into(addr, &mut buf);
        buf
    }

    /// Writes a byte slice starting at `addr`, page by page.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut addr = addr;
        let mut bytes = bytes;
        while !bytes.is_empty() {
            let off = (addr % PAGE_SIZE) as usize;
            let n = bytes.len().min(PAGE_SIZE as usize - off);
            self.page_mut(addr / PAGE_SIZE)[off..off + n].copy_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            addr += n as u64;
        }
    }

    /// Reads a little-endian `u32`.
    #[inline(always)]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let off = (addr % PAGE_SIZE) as usize;
        if off <= PAGE_SIZE as usize - 4 {
            // Within one page: read straight out of the backing array.
            return match self.page(addr / PAGE_SIZE) {
                Some(p) => u32::from_le_bytes(p[off..off + 4].try_into().unwrap()),
                None => 0,
            };
        }
        let mut buf = [0u8; 4];
        self.read_into(addr, &mut buf);
        u32::from_le_bytes(buf)
    }

    /// Writes a little-endian `u32`.
    #[inline(always)]
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        let off = (addr % PAGE_SIZE) as usize;
        if off <= PAGE_SIZE as usize - 4 {
            self.page_mut(addr / PAGE_SIZE)[off..off + 4].copy_from_slice(&value.to_le_bytes());
            return;
        }
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    #[inline(always)]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr % PAGE_SIZE) as usize;
        if off <= PAGE_SIZE as usize - 8 {
            // Within one page: read straight out of the backing array.
            return match self.page(addr / PAGE_SIZE) {
                Some(p) => u64::from_le_bytes(p[off..off + 8].try_into().unwrap()),
                None => 0,
            };
        }
        let mut buf = [0u8; 8];
        self.read_into(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Writes a little-endian `u64`.
    #[inline(always)]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let off = (addr % PAGE_SIZE) as usize;
        if off <= PAGE_SIZE as usize - 8 {
            self.page_mut(addr / PAGE_SIZE)[off..off + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a value of the given width, zero-extended to 64 bits.
    #[inline(always)]
    pub fn read(&self, addr: u64, width: MemWidth) -> u64 {
        match width {
            MemWidth::Byte => u64::from(self.read_u8(addr)),
            MemWidth::Word => u64::from(self.read_u32(addr)),
            MemWidth::Double => self.read_u64(addr),
        }
    }

    /// Writes the low bytes of `value` with the given width.
    #[inline(always)]
    pub fn write(&mut self, addr: u64, value: u64, width: MemWidth) {
        match width {
            MemWidth::Byte => self.write_u8(addr, value as u8),
            MemWidth::Word => self.write_u32(addr, value as u32),
            MemWidth::Double => self.write_u64(addr, value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let mem = Memory::new();
        assert_eq!(mem.read_u64(0), 0);
        assert_eq!(mem.read_u8(12345), 0);
        assert_eq!(mem.allocated_pages(), 0);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut mem = Memory::new();
        mem.write_u64(8, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(8), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u8(8), 0x08);
        assert_eq!(mem.read_u8(15), 0x01);
        mem.write_u32(100, 0xaabbccdd);
        assert_eq!(mem.read_u32(100), 0xaabbccdd);
        assert_eq!(mem.read(100, MemWidth::Word), 0xaabbccdd);
        mem.write(200, 0x1ff, MemWidth::Byte);
        assert_eq!(mem.read_u8(200), 0xff);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = Memory::new();
        let addr = PAGE_SIZE - 4;
        mem.write_u64(addr, u64::MAX);
        assert_eq!(mem.read_u64(addr), u64::MAX);
        assert_eq!(mem.allocated_pages(), 2);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut mem = Memory::new();
        let data: Vec<u8> = (0..=255u8).collect();
        mem.write_bytes(0x2000, &data);
        assert_eq!(mem.read_bytes(0x2000, 256), data);
    }

    #[test]
    fn width_masks_value() {
        let mut mem = Memory::new();
        mem.write(0, 0xffff_ffff_ffff_ffff, MemWidth::Word);
        assert_eq!(mem.read_u64(0), 0xffff_ffff);
    }

    #[test]
    fn read_into_spans_allocated_and_missing_pages() {
        let mut mem = Memory::new();
        // Allocate only the second of three touched pages.
        mem.write_u8(PAGE_SIZE, 0xaa);
        mem.write_u8(2 * PAGE_SIZE - 1, 0xbb);
        let mut buf = [0xffu8; 3 * PAGE_SIZE as usize];
        mem.read_into(0, &mut buf);
        assert_eq!(buf[0], 0, "missing leading page reads as zero");
        assert_eq!(buf[PAGE_SIZE as usize], 0xaa);
        assert_eq!(buf[2 * PAGE_SIZE as usize - 1], 0xbb);
        assert_eq!(buf[2 * PAGE_SIZE as usize], 0, "missing trailing page");
        assert_eq!(mem.allocated_pages(), 1);
    }

    #[test]
    fn hint_survives_interleaved_pages() {
        let mut mem = Memory::new();
        mem.write_u64(0, 1);
        mem.write_u64(5 * PAGE_SIZE, 2);
        mem.write_u64(3 * PAGE_SIZE, 3);
        // Alternating reads across pages keep hitting the right data even
        // though each read moves the last-page hint.
        for _ in 0..4 {
            assert_eq!(mem.read_u64(0), 1);
            assert_eq!(mem.read_u64(5 * PAGE_SIZE), 2);
            assert_eq!(mem.read_u64(3 * PAGE_SIZE), 3);
        }
        let clone = mem.clone();
        assert_eq!(clone, mem, "equality ignores the hint");
    }
}
