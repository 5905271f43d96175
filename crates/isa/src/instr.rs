//! Instruction definitions.
//!
//! The instruction set is deliberately small but covers everything the
//! constant-time kernels and the Spectre gadget programs need: integer ALU
//! operations, loads/stores of several widths, conditional direct branches,
//! unconditional jumps, indirect jumps, calls and returns, plus a
//! `declassify` marker mirroring the paper's Listing 1.

use crate::reg::Reg;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift left (shift amount taken modulo 64).
    Sll,
    /// Logical shift right (shift amount taken modulo 64).
    Srl,
    /// Arithmetic shift right (shift amount taken modulo 64).
    Sra,
    /// Rotate left (amount modulo 64).
    Rotl,
    /// Rotate right (amount modulo 64).
    Rotr,
    /// Low 64 bits of the product.
    Mul,
    /// High 64 bits of the unsigned 128-bit product.
    Mulhu,
    /// Set-less-than, signed (`1` if `rs1 < rs2` else `0`).
    Slt,
    /// Set-less-than, unsigned.
    Sltu,
}

impl AluOp {
    /// Applies the operation to two 64-bit operands.
    ///
    /// All operations are total: shifts and rotates mask the shift amount,
    /// arithmetic wraps. This keeps the functional executor free of
    /// data-dependent faults, as expected from constant-time code.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl((b & 63) as u32),
            AluOp::Srl => a.wrapping_shr((b & 63) as u32),
            AluOp::Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
            AluOp::Rotl => a.rotate_left((b & 63) as u32),
            AluOp::Rotr => a.rotate_right((b & 63) as u32),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Mulhu => (((a as u128) * (b as u128)) >> 64) as u64,
            AluOp::Slt => u64::from((a as i64) < (b as i64)),
            AluOp::Sltu => u64::from(a < b),
        }
    }

    /// Execution latency of the operation in cycles, used by the timing model.
    #[inline]
    pub fn latency(self) -> u64 {
        match self {
            AluOp::Mul | AluOp::Mulhu => 3,
            _ => 1,
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Rotl => "rotl",
            AluOp::Rotr => "rotr",
            AluOp::Mul => "mul",
            AluOp::Mulhu => "mulhu",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        };
        f.write_str(s)
    }
}

/// Conditions for conditional direct branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchCond {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if less than (signed).
    Lt,
    /// Branch if greater or equal (signed).
    Ge,
    /// Branch if less than (unsigned).
    Ltu,
    /// Branch if greater or equal (unsigned).
    Geu,
}

impl BranchCond {
    /// Evaluates the branch condition on two operand values.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }

    /// The negated condition.
    pub fn negate(self) -> Self {
        match self {
            BranchCond::Eq => BranchCond::Ne,
            BranchCond::Ne => BranchCond::Eq,
            BranchCond::Lt => BranchCond::Ge,
            BranchCond::Ge => BranchCond::Lt,
            BranchCond::Ltu => BranchCond::Geu,
            BranchCond::Geu => BranchCond::Ltu,
        }
    }
}

impl fmt::Display for BranchCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        };
        f.write_str(s)
    }
}

/// Access width for loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemWidth {
    /// 1 byte.
    Byte,
    /// 4 bytes, little endian, zero extended.
    Word,
    /// 8 bytes, little endian.
    Double,
}

impl MemWidth {
    /// Number of bytes accessed.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Word => 4,
            MemWidth::Double => 8,
        }
    }
}

/// Classification of control-flow instructions, matching the speculation
/// primitives discussed in the paper (§2.2): the PHT predicts conditional
/// direct branches, the BTB predicts indirect jumps and calls, and the RSB
/// predicts returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchKind {
    /// Conditional direct branch (`beq`, `bne`, ...). Predicted by the PHT.
    CondDirect,
    /// Unconditional direct jump. Always single-target.
    UncondDirect,
    /// Indirect jump through a register. Predicted by the BTB.
    Indirect,
    /// Direct call. Single-target, but pushes a return address.
    Call,
    /// Indirect call through a register. Predicted by the BTB.
    CallIndirect,
    /// Return. Predicted by the RSB.
    Return,
}

impl BranchKind {
    /// Whether the instruction can have more than one dynamic target.
    pub fn is_potentially_multi_target(self) -> bool {
        !matches!(self, BranchKind::UncondDirect | BranchKind::Call)
    }
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchKind::CondDirect => "cond-direct",
            BranchKind::UncondDirect => "uncond-direct",
            BranchKind::Indirect => "indirect",
            BranchKind::Call => "call",
            BranchKind::CallIndirect => "call-indirect",
            BranchKind::Return => "return",
        };
        f.write_str(s)
    }
}

/// The source registers read by one instruction, stored inline.
///
/// No instruction reads more than two registers, so the set fits in a fixed
/// two-element array plus a length — [`Instr::sources`] is called once per
/// fetched instruction on the simulator hot loop, and returning a `Vec`
/// there would put a heap allocation on every simulated instruction.
/// Dereferences to `&[Reg]`, so it iterates and indexes like a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceRegs {
    regs: [Reg; 2],
    len: u8,
}

impl SourceRegs {
    const NONE: SourceRegs = SourceRegs {
        regs: [crate::reg::ZERO; 2],
        len: 0,
    };

    #[inline]
    const fn one(r: Reg) -> SourceRegs {
        SourceRegs {
            regs: [r, crate::reg::ZERO],
            len: 1,
        }
    }

    #[inline]
    const fn two(a: Reg, b: Reg) -> SourceRegs {
        SourceRegs {
            regs: [a, b],
            len: 2,
        }
    }

    /// The sources as a slice, in operand order.
    #[inline]
    pub fn as_slice(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }
}

impl std::ops::Deref for SourceRegs {
    type Target = [Reg];

    #[inline]
    fn deref(&self) -> &[Reg] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a SourceRegs {
    type Item = &'a Reg;
    type IntoIter = std::slice::Iter<'a, Reg>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A single instruction.
///
/// Control-flow targets are instruction indices into the owning
/// [`crate::program::Program`]. Every variant's payload is plain data, so
/// instructions are `Copy`: the simulator executes fetched instructions by
/// value instead of cloning them out of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Instr {
    /// Register-register ALU operation: `rd = op(rs1, rs2)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// Register-immediate ALU operation: `rd = op(rs1, imm)`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Immediate operand (sign-extended to 64 bits).
        imm: i64,
    },
    /// Load immediate: `rd = imm`.
    LoadImm {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        imm: u64,
    },
    /// Memory load: `rd = mem[rs1 + offset]`.
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i64,
        /// Access width.
        width: MemWidth,
    },
    /// Memory store: `mem[base + offset] = src`.
    Store {
        /// Source register holding the value to store.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i64,
        /// Access width.
        width: MemWidth,
    },
    /// Conditional direct branch to `target` if `cond(rs1, rs2)` holds.
    Branch {
        /// Branch condition.
        cond: BranchCond,
        /// First operand register.
        rs1: Reg,
        /// Second operand register.
        rs2: Reg,
        /// Target instruction index when taken.
        target: usize,
    },
    /// Unconditional direct jump.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Indirect jump: `pc = rs1` (value interpreted as an instruction index).
    JumpIndirect {
        /// Register holding the target instruction index.
        rs1: Reg,
    },
    /// Direct call: pushes the return address on the stack and jumps.
    Call {
        /// Target instruction index of the callee.
        target: usize,
    },
    /// Indirect call through a register.
    CallIndirect {
        /// Register holding the callee instruction index.
        rs1: Reg,
    },
    /// Return: pops the return address from the stack and jumps to it.
    Ret,
    /// Declassification marker: `rd = rs1`, clearing any secret taint.
    ///
    /// Mirrors `declassify` in the paper's Listing 1; architecturally a move.
    Declassify {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
    },
    /// No operation.
    Nop,
    /// Stops the program.
    Halt,
}

impl Instr {
    /// Returns the branch kind if this is a control-flow instruction.
    #[inline]
    pub fn branch_kind(&self) -> Option<BranchKind> {
        match self {
            Instr::Branch { .. } => Some(BranchKind::CondDirect),
            Instr::Jump { .. } => Some(BranchKind::UncondDirect),
            Instr::JumpIndirect { .. } => Some(BranchKind::Indirect),
            Instr::Call { .. } => Some(BranchKind::Call),
            Instr::CallIndirect { .. } => Some(BranchKind::CallIndirect),
            Instr::Ret => Some(BranchKind::Return),
            _ => None,
        }
    }

    /// True for any control-flow instruction.
    #[inline]
    pub fn is_branch(&self) -> bool {
        self.branch_kind().is_some()
    }

    /// True for loads.
    #[inline]
    pub fn is_load(&self) -> bool {
        matches!(self, Instr::Load { .. })
    }

    /// True for stores. `call` also writes memory (the return address) but is
    /// not reported here; the timing model special-cases it.
    #[inline]
    pub fn is_store(&self) -> bool {
        matches!(self, Instr::Store { .. })
    }

    /// True for instructions that access data memory, including the implicit
    /// stack accesses of `call` and `ret`.
    #[inline]
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::Call { .. }
                | Instr::CallIndirect { .. }
                | Instr::Ret
        )
    }

    /// Source registers read by the instruction (excluding the implicit stack
    /// pointer of `call`/`ret`, which is reported separately by the timing
    /// model). Returned inline — no allocation.
    #[inline]
    pub fn sources(&self) -> SourceRegs {
        match *self {
            Instr::Alu { rs1, rs2, .. } => SourceRegs::two(rs1, rs2),
            Instr::AluImm { rs1, .. } => SourceRegs::one(rs1),
            Instr::LoadImm { .. } => SourceRegs::NONE,
            Instr::Load { base, .. } => SourceRegs::one(base),
            Instr::Store { src, base, .. } => SourceRegs::two(src, base),
            Instr::Branch { rs1, rs2, .. } => SourceRegs::two(rs1, rs2),
            Instr::Jump { .. } => SourceRegs::NONE,
            Instr::JumpIndirect { rs1 } => SourceRegs::one(rs1),
            Instr::Call { .. } => SourceRegs::NONE,
            Instr::CallIndirect { rs1 } => SourceRegs::one(rs1),
            Instr::Ret => SourceRegs::NONE,
            Instr::Declassify { rs1, .. } => SourceRegs::one(rs1),
            Instr::Nop | Instr::Halt => SourceRegs::NONE,
        }
    }

    /// Destination register written by the instruction, if any.
    #[inline]
    pub fn dest(&self) -> Option<Reg> {
        match *self {
            Instr::Alu { rd, .. }
            | Instr::AluImm { rd, .. }
            | Instr::LoadImm { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::Declassify { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// Execution latency in cycles used by the timing model (cache misses add
    /// to this for memory operations).
    #[inline]
    pub fn base_latency(&self) -> u64 {
        match self {
            Instr::Alu { op, .. } | Instr::AluImm { op, .. } => op.latency(),
            Instr::Load { .. } => 1,
            Instr::Store { .. } => 1,
            Instr::Branch { .. } => 1,
            Instr::Jump { .. } | Instr::JumpIndirect { .. } => 1,
            Instr::Call { .. } | Instr::CallIndirect { .. } | Instr::Ret => 1,
            Instr::LoadImm { .. } | Instr::Declassify { .. } | Instr::Nop => 1,
            Instr::Halt => 1,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Alu { op, rd, rs1, rs2 } => write!(f, "{op} {rd}, {rs1}, {rs2}"),
            Instr::AluImm { op, rd, rs1, imm } => write!(f, "{op}i {rd}, {rs1}, {imm}"),
            Instr::LoadImm { rd, imm } => write!(f, "li {rd}, {imm}"),
            Instr::Load {
                rd,
                base,
                offset,
                width,
            } => write!(f, "ld{:?} {rd}, {offset}({base})", width),
            Instr::Store {
                src,
                base,
                offset,
                width,
            } => write!(f, "st{:?} {src}, {offset}({base})", width),
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => write!(f, "{cond} {rs1}, {rs2}, @{target}"),
            Instr::Jump { target } => write!(f, "j @{target}"),
            Instr::JumpIndirect { rs1 } => write!(f, "jr {rs1}"),
            Instr::Call { target } => write!(f, "call @{target}"),
            Instr::CallIndirect { rs1 } => write!(f, "callr {rs1}"),
            Instr::Ret => write!(f, "ret"),
            Instr::Declassify { rd, rs1 } => write!(f, "declassify {rd}, {rs1}"),
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{A0, A1, A2};

    #[test]
    fn alu_ops_basic() {
        assert_eq!(AluOp::Add.apply(3, 4), 7);
        assert_eq!(AluOp::Sub.apply(3, 4), u64::MAX);
        assert_eq!(AluOp::Xor.apply(0b1010, 0b0110), 0b1100);
        assert_eq!(AluOp::And.apply(0b1010, 0b0110), 0b0010);
        assert_eq!(AluOp::Or.apply(0b1010, 0b0110), 0b1110);
        assert_eq!(AluOp::Sll.apply(1, 8), 256);
        assert_eq!(AluOp::Srl.apply(256, 8), 1);
        assert_eq!(AluOp::Sra.apply((-8i64) as u64, 1), (-4i64) as u64);
        assert_eq!(AluOp::Rotl.apply(0x8000_0000_0000_0001, 1), 3);
        assert_eq!(AluOp::Rotr.apply(3, 1), 0x8000_0000_0000_0001);
        assert_eq!(AluOp::Mul.apply(1 << 40, 1 << 30), 0, "2^70 mod 2^64");
        assert_eq!(AluOp::Mulhu.apply(1 << 40, 1 << 30), 1 << 6);
        assert_eq!(AluOp::Slt.apply((-1i64) as u64, 1), 1);
        assert_eq!(AluOp::Sltu.apply((-1i64) as u64, 1), 0);
    }

    #[test]
    fn shift_amounts_are_masked() {
        assert_eq!(AluOp::Sll.apply(1, 64), 1);
        assert_eq!(AluOp::Srl.apply(2, 65), 1);
    }

    #[test]
    fn branch_cond_eval_and_negate() {
        assert!(BranchCond::Eq.eval(5, 5));
        assert!(BranchCond::Ne.eval(5, 6));
        assert!(BranchCond::Lt.eval((-1i64) as u64, 0));
        assert!(!BranchCond::Ltu.eval((-1i64) as u64, 0));
        assert!(BranchCond::Ge.eval(0, 0));
        assert!(BranchCond::Geu.eval(u64::MAX, 1));
        for cond in [
            BranchCond::Eq,
            BranchCond::Ne,
            BranchCond::Lt,
            BranchCond::Ge,
            BranchCond::Ltu,
            BranchCond::Geu,
        ] {
            for (a, b) in [(0u64, 0u64), (1, 2), (u64::MAX, 0)] {
                assert_ne!(cond.eval(a, b), cond.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn branch_kind_classification() {
        let b = Instr::Branch {
            cond: BranchCond::Eq,
            rs1: A0,
            rs2: A1,
            target: 3,
        };
        assert_eq!(b.branch_kind(), Some(BranchKind::CondDirect));
        assert_eq!(Instr::Ret.branch_kind(), Some(BranchKind::Return));
        assert_eq!(
            Instr::Call { target: 0 }.branch_kind(),
            Some(BranchKind::Call)
        );
        assert_eq!(
            Instr::Jump { target: 0 }.branch_kind(),
            Some(BranchKind::UncondDirect)
        );
        assert_eq!(
            Instr::Alu {
                op: AluOp::Add,
                rd: A0,
                rs1: A1,
                rs2: A2
            }
            .branch_kind(),
            None
        );
        assert!(!BranchKind::UncondDirect.is_potentially_multi_target());
        assert!(BranchKind::Return.is_potentially_multi_target());
    }

    #[test]
    fn sources_and_dest() {
        let i = Instr::Alu {
            op: AluOp::Add,
            rd: A0,
            rs1: A1,
            rs2: A2,
        };
        assert_eq!(i.sources().as_slice(), &[A1, A2]);
        assert_eq!(i.dest(), Some(A0));
        let s = Instr::Store {
            src: A0,
            base: A1,
            offset: 8,
            width: MemWidth::Double,
        };
        assert_eq!(s.sources().as_slice(), &[A0, A1]);
        assert_eq!(s.dest(), None);
        assert!(s.is_store() && s.is_mem() && !s.is_load());
    }

    #[test]
    fn latencies() {
        assert_eq!(AluOp::Mul.latency(), 3);
        assert_eq!(AluOp::Add.latency(), 1);
        let i = Instr::AluImm {
            op: AluOp::Mulhu,
            rd: A0,
            rs1: A1,
            imm: 3,
        };
        assert_eq!(i.base_latency(), 3);
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::Byte.bytes(), 1);
        assert_eq!(MemWidth::Word.bytes(), 4);
        assert_eq!(MemWidth::Double.bytes(), 8);
    }

    #[test]
    fn display_is_nonempty() {
        let instrs = vec![
            Instr::Nop,
            Instr::Halt,
            Instr::Ret,
            Instr::Jump { target: 7 },
            Instr::LoadImm { rd: A0, imm: 42 },
        ];
        for i in instrs {
            assert!(!i.to_string().is_empty());
        }
    }
}
