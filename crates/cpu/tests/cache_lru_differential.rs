//! Differential test of the cache model's replacement against a plain LRU.
//!
//! The reference keeps each set as an ordered list, least recently used
//! first, and evicts its head — LRU by definition, with no cleverness to get
//! wrong. Seeded address streams mix a hot set hammered with more distinct
//! lines than it has ways (conflict misses), a sweep over more lines than
//! the cache holds (capacity misses) and a small reused pool (hits), so
//! every geometry below evicts lines on every level. Hit/miss must agree
//! access by access, the statistics at the end, and `probe` must agree both
//! during the stream and after a `flush`.

use cassandra_cpu::cache::{Cache, CacheHierarchy, CacheStats};
use cassandra_cpu::config::{CacheConfig, CpuConfig};

/// SplitMix64: a tiny seeded generator, enough to drive address streams.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The reference: one ordered list per set, least recently used first.
struct ReferenceLru {
    sets: Vec<Vec<u64>>,
    ways: usize,
    line_bytes: u64,
    stats: CacheStats,
}

impl ReferenceLru {
    fn new(config: &CacheConfig) -> Self {
        let lines = (config.size_bytes / config.line_bytes).max(1);
        let set_count = (lines / config.ways).max(1);
        ReferenceLru {
            sets: vec![Vec::new(); set_count],
            ways: config.ways,
            line_bytes: config.line_bytes as u64,
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let ways = self.ways;
        let set = self.set_of(line);
        let set = &mut self.sets[set];
        self.stats.accesses += 1;
        let hit = match set.iter().position(|&l| l == line) {
            Some(pos) => {
                set.remove(pos);
                true
            }
            None => {
                if set.len() == ways {
                    set.remove(0);
                }
                false
            }
        };
        set.push(line);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    fn probe(&self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        self.sets[self.set_of(line)].contains(&line)
    }

    fn flush(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }
}

/// A seeded stream over a cache with `set_count` sets of `ways` ways:
/// one third conflict traffic on a single set (`2 × ways` distinct lines
/// cycling through it), one third a sequential sweep over `3/2` of the
/// capacity, and one third reuse of a small pool.
fn address_stream(seed: u64, len: usize, set_count: u64, ways: u64, line_bytes: u64) -> Vec<u64> {
    let mut rng = Rng(seed);
    let capacity_lines = set_count * ways;
    let hot_set = rng.below(set_count);
    let mut sweep = 0u64;
    (0..len)
        .map(|_| {
            let line = match rng.below(3) {
                0 => hot_set + set_count * rng.below(2 * ways),
                1 => {
                    sweep = (sweep + 1) % (capacity_lines * 3 / 2 + 1);
                    sweep
                }
                _ => rng.below(ways + 2) * 7,
            };
            line * line_bytes + rng.below(line_bytes)
        })
        .collect()
}

fn config(set_count: usize, ways: usize, line_bytes: usize) -> CacheConfig {
    CacheConfig {
        size_bytes: set_count * ways * line_bytes,
        line_bytes,
        ways,
        latency: 1,
    }
}

/// Drives `cache` and the reference through `stream`, comparing every
/// access and periodically every `probe`.
fn drive(cache: &mut Cache, reference: &mut ReferenceLru, stream: &[u64], what: &str) {
    for (i, &addr) in stream.iter().enumerate() {
        assert_eq!(
            cache.access(addr),
            reference.access(addr),
            "{what}: access {i} to {addr:#x}"
        );
        if i % 97 == 0 {
            for &probe in &stream[i.saturating_sub(64)..=i] {
                assert_eq!(
                    cache.probe(probe),
                    reference.probe(probe),
                    "{what}: probe of {probe:#x} after access {i}"
                );
            }
        }
    }
    assert_eq!(cache.stats(), reference.stats, "{what}: statistics");
}

#[test]
fn cache_replacement_matches_an_ordered_list_lru() {
    // (sets, ways, line bytes): direct-mapped, 2-way, the 12-way L1D and the
    // 16-way levels, each with power-of-two and non-power-of-two set counts
    // (1,280 sets is the configured L2), plus a non-power-of-two line.
    let geometries = [
        (64, 1, 64),
        (5, 1, 64),
        (8, 2, 64),
        (7, 2, 64),
        (64, 12, 64),
        (3, 12, 64),
        (1280, 16, 64),
        (16, 16, 64),
        (6, 4, 48),
    ];
    for (set_count, ways, line_bytes) in geometries {
        let config = config(set_count, ways, line_bytes);
        for seed in 1..=3u64 {
            let what = format!("{set_count} sets x {ways} ways x {line_bytes} B, seed {seed}");
            let len = (set_count * ways * 4).clamp(4_000, 120_000);
            let stream =
                address_stream(seed, len, set_count as u64, ways as u64, line_bytes as u64);
            let mut cache = Cache::new(&config);
            let mut reference = ReferenceLru::new(&config);
            drive(&mut cache, &mut reference, &stream, &what);
            assert!(
                reference.stats.misses > (set_count * ways) as u64,
                "{what}: the stream must evict"
            );

            cache.flush();
            reference.flush();
            for &addr in &stream {
                assert!(!cache.probe(addr), "{what}: {addr:#x} survived a flush");
            }
            // The flushed cache refills exactly like a cold one.
            let mut cold = Cache::new(&config);
            let mut cold_reference = ReferenceLru::new(&config);
            let refill = &stream[..stream.len() / 2];
            for &addr in refill {
                assert_eq!(cache.access(addr), cold.access(addr), "{what}: refill");
                assert_eq!(cold_reference.access(addr), reference.access(addr));
            }
            for &addr in refill {
                assert_eq!(cache.probe(addr), reference.probe(addr), "{what}: refill");
            }
        }
    }
}

#[test]
fn hierarchy_latencies_match_a_reference_hierarchy() {
    // Shrunken levels so every one of them evicts: a 4-set 2-way L1I, a
    // 3-set 12-way L1D, a 10-set (non-power-of-two) 16-way L2 and a 16-set
    // 16-way L3.
    let mut cpu = CpuConfig::golden_cove_like();
    cpu.l1i = config(4, 2, 64);
    cpu.l1d = config(3, 12, 64);
    cpu.l2 = config(10, 16, 64);
    cpu.l3 = config(16, 16, 64);
    cpu.l1i.latency = 4;
    cpu.l1d.latency = 5;
    cpu.l2.latency = 14;
    cpu.l3.latency = 40;
    let mut hierarchy = CacheHierarchy::new(&cpu);
    let mut l1i = ReferenceLru::new(&cpu.l1i);
    let mut l1d = ReferenceLru::new(&cpu.l1d);
    let mut l2 = ReferenceLru::new(&cpu.l2);
    let mut l3 = ReferenceLru::new(&cpu.l3);

    let mut rng = Rng(7);
    // Capacity of the L3 is 256 lines: the streams cover ~2× that.
    let data = address_stream(11, 60_000, 16, 32, 64);
    for (i, &addr) in data.iter().enumerate() {
        let instr = rng.below(2) == 0;
        let addr = if instr { addr & !3 } else { addr };
        let (l1, l1_latency) = if instr {
            (&mut l1i, cpu.l1i.latency)
        } else {
            (&mut l1d, cpu.l1d.latency)
        };
        let expected = if l1.access(addr) {
            l1_latency
        } else if l2.access(addr) {
            l1_latency + cpu.l2.latency
        } else if l3.access(addr) {
            l1_latency + cpu.l2.latency + cpu.l3.latency
        } else {
            l1_latency + cpu.l2.latency + cpu.l3.latency + cpu.memory_latency
        };
        let got = if instr {
            hierarchy.access_instr(addr)
        } else {
            hierarchy.access_data(addr)
        };
        assert_eq!(got, expected, "access {i} to {addr:#x} (instr: {instr})");
        if !instr {
            assert_eq!(hierarchy.probe_data(addr), l1d.probe(addr));
        }
    }
    let stats = hierarchy.stats();
    assert_eq!(stats.l1i, l1i.stats);
    assert_eq!(stats.l1d, l1d.stats);
    assert_eq!(stats.l2, l2.stats);
    assert_eq!(stats.l3, l3.stats);
    for stats in [l1i.stats, l1d.stats, l2.stats, l3.stats] {
        assert!(stats.misses > 256, "every level evicts: {stats:?}");
    }
}
