//! Stable content fingerprints for programs.
//!
//! The evaluation session API in `cassandra-core` memoizes Algorithm-2
//! analyses per program: two workloads built from the same kernel with the
//! same inputs share one analysis. The cache key is the
//! [`program_fingerprint`] — a 64-bit hash of the complete program content
//! (text, labels, data image and security annotations), so any input or code
//! change produces a different key.

use cassandra_isa::program::Program;
use std::hash::{Hash, Hasher};

/// A multiply-xor (Fx-style) hasher: a few arithmetic ops per word instead
/// of SipHash rounds. The fingerprints key *in-process* caches only — no
/// DoS-resistance or cross-process stability is required — and the lookup
/// sits on the per-cell sweep path, where re-hashing a multi-thousand-
/// instruction program with `DefaultHasher` was measurable against the
/// simulation itself.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// Odd multiplier with well-mixed bits (2^64 / φ).
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so `"ab"` and `"ab\0"` differ.
            self.add(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A 64-bit content hash of a complete program.
///
/// Stable within one process run; intended for in-memory cache keys, not
/// for persistent storage.
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut hasher = FxHasher::default();
    program.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cassandra_isa::builder::ProgramBuilder;
    use cassandra_isa::reg::{A0, ZERO};

    fn counting_loop(name: &str, n: u64) -> Program {
        let mut b = ProgramBuilder::new(name);
        b.begin_crypto();
        b.li(A0, n);
        b.label("l");
        b.addi(A0, A0, -1);
        b.bne(A0, ZERO, "l");
        b.end_crypto();
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn identical_programs_share_a_fingerprint() {
        let a = counting_loop("loop", 10);
        let b = counting_loop("loop", 10);
        assert_eq!(program_fingerprint(&a), program_fingerprint(&b));
    }

    #[test]
    fn different_inputs_change_the_fingerprint() {
        let a = counting_loop("loop", 10);
        let b = counting_loop("loop", 11);
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
        let c = counting_loop("renamed", 10);
        assert_ne!(program_fingerprint(&a), program_fingerprint(&c));
    }
}
