//! Set-associative cache model and the four-level hierarchy of Table 3.
//!
//! Replacement is exact LRU kept as a last-use stamp per way (see
//! [`Cache`]): a hit writes one stamp instead of reordering its set, and a
//! miss evicts the smallest stamp. Hits are inline at every call site; the
//! set scan and the L2/L3/memory walk after an L1 miss are out of line.
//! `tests/cache_lru_differential.rs` checks every level and the hierarchy
//! against an ordered-list LRU.

use crate::config::{CacheConfig, CpuConfig};
use serde::{Deserialize, Serialize};

/// Statistics of one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of accesses.
    pub accesses: u64,
    /// Number of hits.
    pub hits: u64,
    /// Number of misses.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Sentinel for "no line": real line numbers are `addr >> log2(line_bytes)`
/// and never reach `u64::MAX`.
const NO_LINE: u64 = u64::MAX;

/// Entries of the line → way memo (a power of two).
const MEMO_ENTRIES: usize = 1024;

/// One set-associative cache with exact LRU replacement.
///
/// Set storage is sparse: `slot_of[set]` maps a set to a 1-based group in
/// a grow-on-demand arena of `ways`-sized way groups (0 = never touched),
/// so constructing a cache zeroes 4 bytes per set instead of a full tag
/// array — the 30 MiB L3 of the paper's Table 3 has 30 720 sets, and sweeps
/// pay that construction once per cell. When the geometry is a power of
/// two (every configured level), set indexing is shift/mask instead of
/// hardware division.
///
/// LRU order is kept as a last-use *stamp* per way, taken from a per-cache
/// counter: the least recently used line of a set is the way with the
/// smallest stamp, and an empty way (stamp 0) is chosen before any resident
/// line. A hit writes one stamp instead of shifting the set, and only a
/// miss scans the set for its victim. This is exactly the order a
/// most-recent-last list would keep.
///
/// Two fast paths sit in front of the set scan. `mru_line` is the most
/// recently accessed line: re-accessing it is a guaranteed hit whose stamp
/// is already the largest in its set, so nothing moves. `memo` remembers
/// the arena way each recently accessed line landed in, indexed by the low
/// line bits; a memo entry is only trusted when that way still holds the
/// line, so a stale entry costs one compare and never a wrong answer.
#[derive(Debug, Clone)]
pub struct Cache {
    /// set → 1-based arena group of its ways; 0 = set never accessed.
    slot_of: Vec<u32>,
    /// Arena of `ways`-sized groups, one per touched set.
    arena: Vec<Way>,
    /// Low line bits → arena way of the line last accessed there.
    memo: Vec<u32>,
    /// The stamp the next access writes; starts at 1 so empty ways sort
    /// first.
    next_stamp: u64,
    ways: usize,
    set_count: u64,
    /// `set_count - 1` when `set_count` is a power of two.
    set_mask: u64,
    sets_pow2: bool,
    line_bytes: u64,
    /// `log2(line_bytes)` when `line_bytes` is a power of two.
    line_shift: u32,
    line_pow2: bool,
    /// The line of the most recent `access` (`NO_LINE` after flush). Pure
    /// fast-path cache: that line is resident and MRU in its set.
    mru_line: u64,
    latency: u64,
    hits: u64,
    misses: u64,
}

/// One way of a set: its resident line (`NO_LINE` while empty) and the
/// stamp of its last use (0 while empty).
#[derive(Debug, Clone, Copy)]
struct Way {
    line: u64,
    stamp: u64,
}

impl Way {
    const EMPTY: Way = Way {
        line: NO_LINE,
        stamp: 0,
    };
}

impl Cache {
    /// Builds a cache from its configuration.
    pub fn new(config: &CacheConfig) -> Self {
        let lines = (config.size_bytes / config.line_bytes).max(1);
        let set_count = (lines / config.ways).max(1) as u64;
        let line_bytes = config.line_bytes as u64;
        Cache {
            slot_of: vec![0; set_count as usize],
            arena: Vec::new(),
            memo: vec![0; MEMO_ENTRIES],
            next_stamp: 1,
            ways: config.ways,
            set_count,
            set_mask: set_count.wrapping_sub(1),
            sets_pow2: set_count.is_power_of_two(),
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            line_pow2: line_bytes.is_power_of_two(),
            mru_line: NO_LINE,
            latency: config.latency,
            hits: 0,
            misses: 0,
        }
    }

    /// Hit latency of this level.
    #[inline]
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Accumulated statistics.
    #[inline]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            accesses: self.hits + self.misses,
            hits: self.hits,
            misses: self.misses,
        }
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        if self.line_pow2 {
            addr >> self.line_shift
        } else {
            addr / self.line_bytes
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (if self.sets_pow2 {
            line & self.set_mask
        } else {
            line % self.set_count
        }) as usize
    }

    #[inline]
    fn memo_index(line: u64) -> usize {
        line as usize & (MEMO_ENTRIES - 1)
    }

    /// Accesses `addr`, returns `true` on hit, inserting the line (LRU) in
    /// either case.
    ///
    /// The MRU and memo hits are inline; a set scan (a memo miss or a real
    /// cache miss) goes through the out-of-line `Cache::access_set`.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        if line == self.mru_line {
            // Still resident and still MRU: nothing was accessed since.
            self.hits += 1;
            return true;
        }
        self.mru_line = line;
        let memo = self.memo[Self::memo_index(line)] as usize;
        if let Some(way) = self.arena.get_mut(memo) {
            if way.line == line {
                way.stamp = self.next_stamp;
                self.next_stamp += 1;
                self.hits += 1;
                return true;
            }
        }
        self.access_set(line)
    }

    /// The set-scan half of [`Cache::access`]: finds `line` in its set (a
    /// hit) or replaces the set's least recently used way with it (a miss),
    /// allocating the set's ways on first touch.
    #[cold]
    #[inline(never)]
    fn access_set(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let group = match self.slot_of[set] {
            0 => {
                let group = self.arena.len() / self.ways;
                self.slot_of[set] = (group + 1) as u32;
                self.arena.resize(self.arena.len() + self.ways, Way::EMPTY);
                group
            }
            slot => (slot - 1) as usize,
        };
        let base = group * self.ways;
        let ways = &mut self.arena[base..base + self.ways];
        let hit = ways.iter().position(|w| w.line == line);
        // On a miss the victim is the first way with the smallest stamp:
        // the first empty way, else the least recently used line.
        let way =
            hit.unwrap_or_else(|| (0..ways.len()).min_by_key(|&w| ways[w].stamp).unwrap_or(0));
        ways[way] = Way {
            line,
            stamp: self.next_stamp,
        };
        self.next_stamp += 1;
        self.memo[Self::memo_index(line)] = (base + way) as u32;
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit.is_some()
    }

    /// Whether the address is currently cached (does not update LRU or stats;
    /// used by the side-channel observer).
    pub fn probe(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let slot = self.slot_of[self.set_of(line)];
        if slot == 0 {
            return false;
        }
        let base = (slot - 1) as usize * self.ways;
        self.arena[base..base + self.ways]
            .iter()
            .any(|w| w.line == line)
    }

    /// Invalidates the whole cache.
    pub fn flush(&mut self) {
        self.slot_of.fill(0);
        self.arena.clear();
        self.mru_line = NO_LINE;
    }
}

/// Aggregated statistics of the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// L1 instruction cache.
    pub l1i: CacheStats,
    /// L1 data cache.
    pub l1d: CacheStats,
    /// Unified L2.
    pub l2: CacheStats,
    /// Last-level cache.
    pub l3: CacheStats,
}

/// The L1I/L1D/L2/L3 hierarchy with a flat memory behind it.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    memory_latency: u64,
}

impl CacheHierarchy {
    /// Builds the hierarchy from the CPU configuration.
    pub fn new(config: &CpuConfig) -> Self {
        CacheHierarchy {
            l1i: Cache::new(&config.l1i),
            l1d: Cache::new(&config.l1d),
            l2: Cache::new(&config.l2),
            l3: Cache::new(&config.l3),
            memory_latency: config.memory_latency,
        }
    }

    /// Folds `n` same-line instruction-fetch hits into the L1I statistics.
    ///
    /// The pipeline short-circuits fetches that stay on the line of the
    /// previous fetch: that line is the L1I's MRU line, so each such access
    /// would be a guaranteed hit at base latency with no replacement-state
    /// change — only the counters move, and they can move in bulk.
    pub fn note_instr_hits(&mut self, n: u64) {
        self.l1i.hits += n;
    }

    /// Access latency for an instruction fetch at byte address `addr`.
    #[inline(always)]
    pub fn access_instr(&mut self, addr: u64) -> u64 {
        if self.l1i.access(addr) {
            return self.l1i.latency();
        }
        self.lower_levels(addr, self.l1i.latency())
    }

    /// Access latency for a data access at byte address `addr`.
    #[inline(always)]
    pub fn access_data(&mut self, addr: u64) -> u64 {
        if self.l1d.access(addr) {
            return self.l1d.latency();
        }
        self.lower_levels(addr, self.l1d.latency())
    }

    /// The L2/L3/memory walk after an L1 miss, kept out of line so the L1
    /// hit path stays small where it is inlined.
    #[cold]
    #[inline(never)]
    fn lower_levels(&mut self, addr: u64, l1_latency: u64) -> u64 {
        if self.l2.access(addr) {
            return l1_latency + self.l2.latency();
        }
        if self.l3.access(addr) {
            return l1_latency + self.l2.latency() + self.l3.latency();
        }
        l1_latency + self.l2.latency() + self.l3.latency() + self.memory_latency
    }

    /// Whether a data address currently hits in the L1D (the attacker's
    /// flush+reload style probe for the security tests).
    pub fn probe_data(&self, addr: u64) -> bool {
        self.l1d.probe(addr)
    }

    /// Statistics of all levels.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            l3: self.l3.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> CacheConfig {
        CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            ways: 2,
            latency: 3,
        }
    }

    #[test]
    fn hit_after_miss() {
        let mut c = Cache::new(&small_config());
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x13f), "same line");
        assert!(!c.access(0x2000));
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_evicts_oldest_way() {
        let mut c = Cache::new(&small_config());
        // 1024/64 = 16 lines, 2 ways → 8 sets. Lines mapping to set 0:
        // line numbers 0, 8, 16 (addresses 0, 0x200, 0x400).
        c.access(0x000);
        c.access(0x200);
        c.access(0x400); // evicts line of 0x000
        assert!(!c.probe(0x000));
        assert!(c.probe(0x200));
        assert!(c.probe(0x400));
    }

    #[test]
    fn flush_clears_contents() {
        let mut c = Cache::new(&small_config());
        c.access(0x40);
        assert!(c.probe(0x40));
        c.flush();
        assert!(!c.probe(0x40));
    }

    #[test]
    fn hierarchy_latencies_accumulate() {
        let config = CpuConfig::golden_cove_like();
        let mut h = CacheHierarchy::new(&config);
        let cold = h.access_data(0x1_0000);
        assert_eq!(
            cold,
            config.l1d.latency + config.l2.latency + config.l3.latency + config.memory_latency
        );
        let warm = h.access_data(0x1_0000);
        assert_eq!(warm, config.l1d.latency);
        let instr = h.access_instr(0x40);
        assert!(instr > config.l1i.latency, "cold instruction fetch misses");
    }

    #[test]
    fn probe_reflects_presence() {
        let config = CpuConfig::golden_cove_like();
        let mut h = CacheHierarchy::new(&config);
        assert!(!h.probe_data(0x5000));
        h.access_data(0x5000);
        assert!(h.probe_data(0x5000));
    }

    #[test]
    fn hit_rate_computation() {
        let mut c = Cache::new(&small_config());
        c.access(0);
        c.access(0);
        c.access(0);
        c.access(4096);
        let s = c.stats();
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }
}
