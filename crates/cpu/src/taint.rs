//! Page-granular taint bitmap for speculative memory state.
//!
//! The pipeline tracks secret taint per 8-byte memory granule (the store
//! forwarding granularity). A `HashSet<u64>` of granule addresses works but
//! hashes on every load and — worse — must be cloned wholesale to checkpoint
//! around wrong-path excursions. [`TaintSet`] instead mirrors the sparse
//! page layout of [`cassandra_isa::memory::Memory`]: one 512-bit granule
//! bitmap per page in the same [`PageTable`], so a probe of a recently
//! touched page is one hint compare and two array indexings, with no
//! hashing.

use cassandra_isa::memory::{PageTable, PAGE_SIZE};

/// One bit per 8-byte granule: 512 bits = eight `u64` words per page.
const WORDS_PER_PAGE: usize = (PAGE_SIZE / 8 / 64) as usize;

/// Sparse per-granule taint bits, organised as 4 KiB pages.
///
/// Addresses passed in must be granule-aligned (the pipeline always masks
/// with `granule()` first); the low three bits are ignored regardless.
#[derive(Debug, Clone, Default)]
pub struct TaintSet {
    /// Granule bitmaps of the pages that ever held a tainted granule.
    pages: PageTable<[u64; WORDS_PER_PAGE]>,
}

impl TaintSet {
    /// Creates an empty taint set.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn split(addr: u64) -> (u64, usize, u64) {
        let page = addr / PAGE_SIZE;
        let bit = ((addr % PAGE_SIZE) / 8) as usize;
        (page, bit / 64, 1u64 << (bit % 64))
    }

    /// Whether the granule containing `addr` is tainted.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        let (page, word, mask) = Self::split(addr);
        self.pages
            .get(page)
            .is_some_and(|bits| bits[word] & mask != 0)
    }

    /// Marks the granule containing `addr` as tainted.
    #[inline]
    pub fn insert(&mut self, addr: u64) {
        let (page, word, mask) = Self::split(addr);
        self.pages
            .get_or_insert_with(page, || Box::new([0; WORDS_PER_PAGE]))[word] |= mask;
    }

    /// Clears the taint of the granule containing `addr`. Emptied pages are
    /// kept: stores churn the same working set, so the page is about to be
    /// reused anyway.
    #[inline]
    pub fn remove(&mut self, addr: u64) {
        let (page, word, mask) = Self::split(addr);
        if let Some(bits) = self.pages.get_mut(page) {
            bits[word] &= !mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut t = TaintSet::new();
        assert!(!t.contains(0x1000));
        t.insert(0x1000);
        t.insert(0x1008);
        assert!(t.contains(0x1000));
        assert!(t.contains(0x1008));
        assert!(!t.contains(0x1010));
        t.remove(0x1000);
        assert!(!t.contains(0x1000));
        assert!(t.contains(0x1008));
    }

    #[test]
    fn low_bits_are_ignored() {
        let mut t = TaintSet::new();
        t.insert(0x2000);
        assert!(t.contains(0x2007), "same granule");
        assert!(!t.contains(0x2008), "next granule");
        t.remove(0x2003);
        assert!(!t.contains(0x2000));
    }

    #[test]
    fn spans_many_pages() {
        let mut t = TaintSet::new();
        let addrs: Vec<u64> = (0..32).map(|i| i * 3 * PAGE_SIZE + 8 * i).collect();
        for &a in &addrs {
            t.insert(a);
        }
        for &a in &addrs {
            assert!(t.contains(a));
            assert!(!t.contains(a + 8));
        }
        // Interleave across pages so the hint keeps moving.
        for &a in addrs.iter().rev() {
            t.remove(a);
            assert!(!t.contains(a));
        }
    }
}
