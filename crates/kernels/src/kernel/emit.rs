//! Shared code-emission helpers used by the ISA kernels.
//!
//! These helpers expand to short, constant-time instruction sequences; they
//! never emit branches, so they do not change the branch-trace structure of
//! the kernels that use them.

use cassandra_isa::builder::ProgramBuilder;
use cassandra_isa::reg::Reg;

/// Mask for 32-bit arithmetic.
pub const MASK32: i64 = 0xffff_ffff;

/// Emits `rd = (rs1 + rs2) mod 2^32`.
pub fn add32(b: &mut ProgramBuilder, rd: Reg, rs1: Reg, rs2: Reg) {
    b.add(rd, rs1, rs2);
    b.andi(rd, rd, MASK32);
}

/// Emits a 32-bit rotate-left by a constant amount: `rd = rotl32(rs1, amount)`.
///
/// `tmp` must be distinct from `rd` and `rs1`.
pub fn rotl32_imm(b: &mut ProgramBuilder, rd: Reg, rs1: Reg, amount: u32, tmp: Reg) {
    assert!(amount > 0 && amount < 32, "rotate amount must be in 1..32");
    assert!(tmp != rd && tmp != rs1, "tmp register must not alias");
    b.srli(tmp, rs1, i64::from(32 - amount));
    b.slli(rd, rs1, i64::from(amount));
    b.or(rd, rd, tmp);
    b.andi(rd, rd, MASK32);
}

/// Emits a 32-bit rotate-right by a constant amount: `rd = rotr32(rs1, amount)`.
pub fn rotr32_imm(b: &mut ProgramBuilder, rd: Reg, rs1: Reg, amount: u32, tmp: Reg) {
    assert!(amount > 0 && amount < 32, "rotate amount must be in 1..32");
    rotl32_imm(b, rd, rs1, 32 - amount, tmp);
}

/// Emits a constant-time select: `rd = if bit == 1 { a } else { b }`, where
/// `bit` holds 0 or 1. Clobbers `tmp`.
pub fn select_bit(b: &mut ProgramBuilder, rd: Reg, bit: Reg, a: Reg, tmp: Reg, other: Reg) {
    // mask = -bit ; rd = (a & mask) | (other & !mask)
    b.sub(tmp, cassandra_isa::reg::ZERO, bit);
    b.xor(rd, a, other);
    b.and(rd, rd, tmp);
    b.xor(rd, rd, other);
}

/// Emits `rd = 0 - rs1` (two's complement negation).
pub fn neg(b: &mut ProgramBuilder, rd: Reg, rs1: Reg) {
    b.sub(rd, cassandra_isa::reg::ZERO, rs1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cassandra_isa::exec::Executor;
    use cassandra_isa::reg::{A0, A1, A2, A3, T0};

    fn run(build: impl FnOnce(&mut ProgramBuilder)) -> Executor<'static> {
        let mut b = ProgramBuilder::new("emit-test");
        build(&mut b);
        b.halt();
        let p = Box::leak(Box::new(b.build().unwrap()));
        let mut e = Executor::new(p);
        e.run(10_000).unwrap();
        e
    }

    #[test]
    fn rotl32_matches_rust() {
        for amount in [1u32, 7, 8, 12, 16, 31] {
            let value: u32 = 0x89ab_cdef;
            let e = run(|b| {
                b.li(A1, u64::from(value));
                rotl32_imm(b, A0, A1, amount, T0);
            });
            assert_eq!(
                e.reg(A0),
                u64::from(value.rotate_left(amount)),
                "amount {amount}"
            );
        }
    }

    #[test]
    fn rotr32_matches_rust() {
        for amount in [2u32, 6, 11, 25] {
            let value: u32 = 0x0102_0304;
            let e = run(|b| {
                b.li(A1, u64::from(value));
                rotr32_imm(b, A0, A1, amount, T0);
            });
            assert_eq!(
                e.reg(A0),
                u64::from(value.rotate_right(amount)),
                "amount {amount}"
            );
        }
    }

    #[test]
    fn add32_wraps() {
        let e = run(|b| {
            b.li(A1, 0xffff_ffff);
            b.li(A2, 2);
            add32(b, A0, A1, A2);
        });
        assert_eq!(e.reg(A0), 1);
    }

    #[test]
    fn select_bit_selects() {
        for (bit, expect) in [(0u64, 222u64), (1, 111)] {
            let e = run(|b| {
                b.li(A1, bit);
                b.li(A2, 111);
                b.li(A3, 222);
                select_bit(b, A0, A1, A2, T0, A3);
            });
            assert_eq!(e.reg(A0), expect, "bit {bit}");
        }
    }

    #[test]
    fn neg_is_twos_complement() {
        let e = run(|b| {
            b.li(A1, 5);
            neg(b, A0, A1);
        });
        assert_eq!(e.reg(A0), (-5i64) as u64);
    }
}
