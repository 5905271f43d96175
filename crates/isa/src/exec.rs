//! Functional (architectural) executor.
//!
//! The executor implements the sequential execution model of the ISA: one
//! instruction at a time, in program order, with no speculation. It is used
//! for three purposes:
//!
//! 1. as the golden reference for kernel correctness tests,
//! 2. as the instrumentation vehicle for branch-trace collection
//!    (`cassandra-trace`), standing in for Intel Pin / gem5 trace capture,
//! 3. to produce the contract traces `⟦p⟧^seq_ct(σ)` consumed by the security
//!    checker in `cassandra-core`.

use crate::error::IsaError;
use crate::instr::{BranchKind, Instr, MemWidth};
use crate::memory::Memory;
use crate::observe::{BranchOutcome, MemAccess, NullObserver, Observer};
use crate::program::{Program, STACK_TOP};
use crate::reg::{Reg, NUM_REGS, SP};

/// Default step budget used by [`Executor::run`]'s callers in this workspace.
pub const DEFAULT_STEP_LIMIT: u64 = 50_000_000;

/// Result of executing a single instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction executed and the program continues.
    Continue,
    /// A `halt` instruction was executed.
    Halted,
}

/// The architectural state and sequential execution engine.
///
/// # Examples
///
/// ```
/// use cassandra_isa::builder::ProgramBuilder;
/// use cassandra_isa::exec::Executor;
/// use cassandra_isa::reg::A0;
///
/// # fn main() -> Result<(), cassandra_isa::error::IsaError> {
/// let mut b = ProgramBuilder::new("answer");
/// b.li(A0, 42);
/// b.halt();
/// let p = b.build()?;
/// let mut exec = Executor::new(&p);
/// exec.run(10)?;
/// assert_eq!(exec.reg(A0), 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Executor<'p> {
    program: &'p Program,
    regs: [u64; NUM_REGS],
    pc: usize,
    memory: Memory,
    halted: bool,
    steps: u64,
    call_depth: usize,
}

impl<'p> Executor<'p> {
    /// Creates an executor with the program's initial data image loaded and
    /// the stack pointer set to [`STACK_TOP`].
    pub fn new(program: &'p Program) -> Self {
        let mut memory = Memory::new();
        for region in &program.data {
            memory.write_bytes(region.addr, &region.bytes);
        }
        let mut regs = [0u64; NUM_REGS];
        regs[SP.index()] = STACK_TOP;
        Executor {
            program,
            regs,
            pc: 0,
            memory,
            halted: false,
            steps: 0,
            call_depth: 0,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        self.program
    }

    /// Current program counter (instruction index).
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Number of instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Reads a register (the zero register always reads 0).
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes a register (writes to the zero register are ignored).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Shared access to data memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Runs until `halt` or until `max_steps` instructions have executed.
    ///
    /// # Errors
    ///
    /// Returns an error if the program runs off the end of the text, exceeds
    /// the step budget, or executes `ret` with an empty call stack.
    pub fn run(&mut self, max_steps: u64) -> Result<u64, IsaError> {
        self.run_with_observer(max_steps, &mut NullObserver)
    }

    /// Runs with an observer receiving branch and memory events.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`].
    pub fn run_with_observer<O: Observer>(
        &mut self,
        max_steps: u64,
        observer: &mut O,
    ) -> Result<u64, IsaError> {
        let start = self.steps;
        while !self.halted {
            if self.steps - start >= max_steps {
                return Err(IsaError::StepLimitExceeded { limit: max_steps });
            }
            self.step(observer)?;
        }
        Ok(self.steps - start)
    }

    /// Executes a single instruction, invoking the observer hooks.
    ///
    /// # Errors
    ///
    /// Returns an error for PC out of range or return-stack underflow.
    pub fn step<O: Observer>(&mut self, observer: &mut O) -> Result<StepOutcome, IsaError> {
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        let pc = self.pc;
        let instr = *self.program.instr(pc).ok_or(IsaError::PcOutOfRange {
            pc,
            len: self.program.len(),
        })?;
        let is_crypto = self.program.is_crypto_pc(pc);
        observer.on_step(pc, is_crypto);
        self.steps += 1;

        let mut next_pc = pc + 1;
        match instr {
            Instr::Alu { op, rd, rs1, rs2 } => {
                let v = op.apply(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let v = op.apply(self.reg(rs1), imm as u64);
                self.set_reg(rd, v);
            }
            Instr::LoadImm { rd, imm } => {
                self.set_reg(rd, imm);
            }
            Instr::Declassify { rd, rs1 } => {
                let v = self.reg(rs1);
                self.set_reg(rd, v);
            }
            Instr::Load {
                rd,
                base,
                offset,
                width,
            } => {
                let addr = self.reg(base).wrapping_add(offset as u64);
                let v = self.memory.read(addr, width);
                self.set_reg(rd, v);
                observer.on_mem(&MemAccess {
                    pc,
                    addr,
                    width,
                    is_store: false,
                    is_crypto,
                    is_secret: self.program.is_secret_addr(addr),
                });
            }
            Instr::Store {
                src,
                base,
                offset,
                width,
            } => {
                let addr = self.reg(base).wrapping_add(offset as u64);
                let v = self.reg(src);
                self.memory.write(addr, v, width);
                observer.on_mem(&MemAccess {
                    pc,
                    addr,
                    width,
                    is_store: true,
                    is_crypto,
                    is_secret: self.program.is_secret_addr(addr),
                });
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let taken = cond.eval(self.reg(rs1), self.reg(rs2));
                next_pc = if taken { target } else { pc + 1 };
                observer.on_branch(&BranchOutcome {
                    pc,
                    kind: BranchKind::CondDirect,
                    taken,
                    target: next_pc,
                    is_crypto,
                });
            }
            Instr::Jump { target } => {
                next_pc = target;
                observer.on_branch(&BranchOutcome {
                    pc,
                    kind: BranchKind::UncondDirect,
                    taken: true,
                    target: next_pc,
                    is_crypto,
                });
            }
            Instr::JumpIndirect { rs1 } => {
                next_pc = self.reg(rs1) as usize;
                observer.on_branch(&BranchOutcome {
                    pc,
                    kind: BranchKind::Indirect,
                    taken: true,
                    target: next_pc,
                    is_crypto,
                });
            }
            Instr::Call { target } => {
                next_pc = target;
                self.push_return_addr(pc, pc + 1, is_crypto, observer);
                observer.on_branch(&BranchOutcome {
                    pc,
                    kind: BranchKind::Call,
                    taken: true,
                    target: next_pc,
                    is_crypto,
                });
            }
            Instr::CallIndirect { rs1 } => {
                next_pc = self.reg(rs1) as usize;
                self.push_return_addr(pc, pc + 1, is_crypto, observer);
                observer.on_branch(&BranchOutcome {
                    pc,
                    kind: BranchKind::CallIndirect,
                    taken: true,
                    target: next_pc,
                    is_crypto,
                });
            }
            Instr::Ret => {
                if self.call_depth == 0 {
                    return Err(IsaError::ReturnWithoutCall { pc });
                }
                self.call_depth -= 1;
                let sp = self.reg(SP);
                let ret = self.memory.read_u64(sp);
                self.set_reg(SP, sp.wrapping_add(8));
                observer.on_mem(&MemAccess {
                    pc,
                    addr: sp,
                    width: MemWidth::Double,
                    is_store: false,
                    is_crypto,
                    is_secret: self.program.is_secret_addr(sp),
                });
                next_pc = ret as usize;
                observer.on_branch(&BranchOutcome {
                    pc,
                    kind: BranchKind::Return,
                    taken: true,
                    target: next_pc,
                    is_crypto,
                });
            }
            Instr::Nop => {}
            Instr::Halt => {
                self.halted = true;
                return Ok(StepOutcome::Halted);
            }
        }
        self.pc = next_pc;
        Ok(StepOutcome::Continue)
    }

    fn push_return_addr<O: Observer>(
        &mut self,
        pc: usize,
        ret_addr: usize,
        is_crypto: bool,
        observer: &mut O,
    ) {
        let sp = self.reg(SP).wrapping_sub(8);
        self.set_reg(SP, sp);
        self.memory.write_u64(sp, ret_addr as u64);
        self.call_depth += 1;
        observer.on_mem(&MemAccess {
            pc,
            addr: sp,
            width: MemWidth::Double,
            is_store: true,
            is_crypto,
            is_secret: self.program.is_secret_addr(sp),
        });
    }
}

/// Runs a program to completion and returns the contract trace under the
/// constant-time leakage model (`⟦p⟧^seq_ct(σ)`).
///
/// # Errors
///
/// Propagates any executor error (step budget, PC out of range, ...).
pub fn contract_trace(
    program: &Program,
    max_steps: u64,
) -> Result<crate::observe::ContractTrace, IsaError> {
    let mut exec = Executor::new(program);
    let mut obs = crate::observe::ContractObserver::new();
    exec.run_with_observer(max_steps, &mut obs)?;
    Ok(obs.trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::observe::{ContractObserver, Obs};
    use crate::reg::{A0, A1, A2, T0, ZERO};

    #[test]
    fn zero_register_is_immutable() {
        let mut b = ProgramBuilder::new("zero");
        b.li(ZERO, 55);
        b.addi(A0, ZERO, 7);
        b.halt();
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        e.run(10).unwrap();
        assert_eq!(e.reg(ZERO), 0);
        assert_eq!(e.reg(A0), 7);
    }

    #[test]
    fn step_limit_enforced() {
        let mut b = ProgramBuilder::new("spin");
        b.label("l");
        b.j("l");
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        assert_eq!(e.run(100), Err(IsaError::StepLimitExceeded { limit: 100 }));
    }

    #[test]
    fn return_without_call_errors() {
        let mut b = ProgramBuilder::new("badret");
        b.ret();
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        assert_eq!(e.run(10), Err(IsaError::ReturnWithoutCall { pc: 0 }));
    }

    #[test]
    fn pc_out_of_range_errors() {
        let mut b = ProgramBuilder::new("falloff");
        b.nop();
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        assert!(matches!(e.run(10), Err(IsaError::PcOutOfRange { .. })));
    }

    #[test]
    fn nested_calls_preserve_return_addresses() {
        let mut b = ProgramBuilder::new("nested");
        b.li(A0, 0);
        b.call("outer");
        b.halt();
        b.func("outer");
        b.addi(A0, A0, 1);
        b.call("inner");
        b.addi(A0, A0, 100);
        b.ret();
        b.func("inner");
        b.addi(A0, A0, 10);
        b.ret();
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        e.run(100).unwrap();
        assert_eq!(e.reg(A0), 111);
    }

    #[test]
    fn data_image_is_loaded() {
        let mut b = ProgramBuilder::new("data");
        let addr = b.alloc_u64s("tab", &[7, 8, 9]);
        b.li(A1, addr);
        b.ld(A0, A1, 16);
        b.halt();
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        e.run(10).unwrap();
        assert_eq!(e.reg(A0), 9);
    }

    #[test]
    fn contract_trace_contains_cf_and_mem() {
        let mut b = ProgramBuilder::new("ct");
        let addr = b.alloc_u64s("x", &[1]);
        b.begin_crypto();
        b.li(A1, addr);
        b.ld(A0, A1, 0);
        b.li(A2, 2);
        b.label("loop");
        b.addi(A2, A2, -1);
        b.bne(A2, ZERO, "loop");
        b.end_crypto();
        b.halt();
        let p = b.build().unwrap();
        let trace = contract_trace(&p, 1000).unwrap();
        let cf: Vec<_> = trace
            .iter()
            .filter(|t| matches!(t.obs, Obs::Cf(_)))
            .collect();
        let mem: Vec<_> = trace
            .iter()
            .filter(|t| matches!(t.obs, Obs::Mem(_)))
            .collect();
        assert_eq!(cf.len(), 2, "two dynamic executions of the loop branch");
        assert_eq!(mem.len(), 1, "one load");
        assert!(trace.iter().all(|t| t.crypto));
    }

    #[test]
    fn contract_trace_is_secret_independent_for_ct_code() {
        // A constant-time conditional select: both secret values lead to the
        // same observations.
        let build = |secret: u64| {
            let mut b = ProgramBuilder::new("ctsel");
            let s = b.alloc_secret_u64s("secret", &[secret]);
            b.begin_crypto();
            b.li(A1, s);
            b.ld(A0, A1, 0);
            // mask = 0 - (secret & 1); result = (x & mask) | (y & !mask)
            b.andi(T0, A0, 1);
            b.sub(T0, ZERO, T0);
            b.li(A2, 0xAAAA);
            b.and(A2, A2, T0);
            b.end_crypto();
            b.halt();
            b.build().unwrap()
        };
        let t0 = contract_trace(&build(0), 1000).unwrap();
        let t1 = contract_trace(&build(1), 1000).unwrap();
        assert_eq!(t0, t1);
    }

    #[test]
    fn observer_sees_stack_traffic_for_calls() {
        let mut b = ProgramBuilder::new("stack");
        b.call("f");
        b.halt();
        b.func("f");
        b.ret();
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        let mut obs = ContractObserver::new();
        e.run_with_observer(100, &mut obs).unwrap();
        let stores = obs
            .trace
            .iter()
            .filter(|t| matches!(t.obs, Obs::Mem(crate::observe::MemObs::Store(_))))
            .count();
        let loads = obs
            .trace
            .iter()
            .filter(|t| matches!(t.obs, Obs::Mem(crate::observe::MemObs::Load(_))))
            .count();
        assert_eq!(stores, 1, "call pushes the return address");
        assert_eq!(loads, 1, "ret pops the return address");
    }

    #[test]
    fn word_and_byte_accesses() {
        let mut b = ProgramBuilder::new("widths");
        let addr = b.alloc_u32s("w", &[0xdead_beef, 0x1234_5678]);
        b.li(A1, addr);
        b.lw(A0, A1, 4);
        b.lb(A2, A1, 3);
        b.sw(A0, A1, 0);
        b.halt();
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        e.run(10).unwrap();
        assert_eq!(e.reg(A0), 0x1234_5678);
        assert_eq!(e.reg(A2), 0xde);
        assert_eq!(e.memory().read_u32(addr), 0x1234_5678);
    }
}
