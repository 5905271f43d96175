//! The cycle-approximate out-of-order pipeline model.
//!
//! The model is *functional-directed*: instructions are executed functionally
//! in fetch order against a speculative architectural state (so wrong-path
//! execution, cache pollution and transient leaks are real), while timing is
//! computed with per-instruction ready-time scheduling constrained by fetch
//! and commit width, frontend depth, ROB occupancy, cache latencies and the
//! defense policy in effect. Mispredicted branches trigger a bounded
//! wrong-path excursion whose memory accesses pollute the caches and are
//! recorded as transient observations; the squash restores the speculative
//! state and charges the redirect penalty.
//!
//! The absolute cycle counts are not gem5's, but every mechanism the paper's
//! evaluation depends on is present: branch misprediction penalties, frontend
//! stalls, BTU-driven fetch redirection, store-to-load forwarding (and its
//! removal), SPT-style transmitter delays and ProSpeCT-style taint blocking.
//!
//! # The correct-path loop
//!
//! [`Simulator::run`] and the multi-tenant quantum driver share one loop,
//! `Simulator::run_until`, and it is nearly the whole cost of a
//! simulation. It is written to keep the per-instruction work small and
//! its state out of the simulator's fields:
//!
//! * `Simulator::new` decodes the program once into a table of `Decoded`
//!   instructions. Each entry folds the ALU operation, memory width or
//!   branch condition into a flat `Op`, carries its register slots and
//!   immediate, and knows whether its PC lies in a crypto range. The loop
//!   dispatches on `Op` exactly once per instruction; register-immediate
//!   ALU operations read a constant-zero register slot as their second
//!   operand, so they share the register-register arms.
//! * The PC, the commit count and a `Clock` of the per-instruction timing
//!   scalars (fetch and commit cycles, slot counts, ROB head, the
//!   speculation-window bound, the next periodic BTU switch and the
//!   same-line fetch filter) live in locals for the whole run and are
//!   written back to the simulator when the loop exits.
//! * The loop is a nest. The inner loop executes a straight-line stretch
//!   up to and including the next control-flow instruction and inlines
//!   fetch, issue, the L1 hit, the page lookups and commit; its out-of-line
//!   calls are cold (cache misses, page-table searches, periodic BTU
//!   switches) or rare (the store-queue scan the forwarding filter cannot
//!   rule out). The outer loop hands the branch to the frontend, which may
//!   run a wrong-path excursion, and commits it.
//! * The store queue is a fixed ring of `sq_entries` slots.
//!
//! Every simulated cycle, counter and access trace is the same as a
//! straightforward per-instruction interpreter would produce; the paper
//! suite's statistics and trace digests are pinned by
//! `tests/golden/paper_stats.jsonl`.

use crate::cache::CacheHierarchy;
use crate::config::CpuConfig;
use crate::frontend::{BranchEvent, FetchOutcome, Frontend};
use crate::policy::DefensePolicy;
use crate::stats::SimStats;
use crate::taint::TaintSet;
use cassandra_btu::unit::{BranchTraceUnit, ContextBtuStats};
use cassandra_isa::error::IsaError;
use cassandra_isa::instr::{AluOp, BranchCond, BranchKind, Instr, MemWidth};
use cassandra_isa::memory::Memory;
use cassandra_isa::program::{Program, STACK_TOP};
use cassandra_isa::reg::{Reg, NUM_REGS, SP};
use serde::{Deserialize, Serialize};

/// Maximum number of wrong-path instructions executed per misprediction.
const WRONG_PATH_CAP: u64 = 64;

/// Register-file slots: the architectural registers, then the write sink of
/// the zero register (`SINK_SLOT`), then a constant-zero operand
/// (`IMM_SLOT`) that no instruction ever writes. One slot per `u8` value, so
/// indexing with a decoded register byte needs no bounds check; the slots
/// past `IMM_SLOT` are never touched.
const REG_SLOTS: usize = 256;
/// The slots that can hold a non-zero value: the architectural registers,
/// `SINK_SLOT` and `IMM_SLOT`. A wrong-path excursion checkpoints only
/// these.
const LIVE_SLOTS: usize = NUM_REGS + 2;
/// Where writes of the architectural zero register land.
const SINK_SLOT: usize = NUM_REGS;
/// The second operand of a decoded register-immediate ALU operation: its
/// value is 0, its taint false and its ready cycle 0, so `regs[IMM_SLOT] +
/// imm` is the immediate and the operation times like its register form.
const IMM_SLOT: u8 = (NUM_REGS + 1) as u8;

/// The result of a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Timing and event statistics.
    pub stats: SimStats,
    /// Data addresses touched by committed (architectural) execution, in
    /// order. Part of the attacker-visible trace.
    pub architectural_accesses: Vec<u64>,
    /// Data addresses touched only by squashed wrong-path execution, in
    /// order. The transient side channel.
    pub transient_accesses: Vec<u64>,
    /// True if the program executed its `halt` instruction within the budget.
    pub halted: bool,
    /// Per-context BTU statistics, populated only when the run registered
    /// application contexts on the BTU (context-switching and multi-tenant
    /// runs); empty — and omitted from the serialized form — otherwise, so
    /// single-tenant outcomes are byte-identical to pre-multi-tenant ones.
    #[serde(skip_if_default)]
    pub btu_contexts: Vec<ContextBtuStats>,
}

impl SimOutcome {
    /// The full attacker-visible sequence of data-cache accesses
    /// (architectural and transient, in program order of occurrence).
    ///
    /// Borrows both underlying traces — callers that only compare or scan
    /// the sequence (the security differ does this once per run) allocate
    /// nothing; collect explicitly if an owned `Vec` is needed.
    pub fn attacker_visible_accesses(&self) -> impl Iterator<Item = u64> + '_ {
        self.architectural_accesses
            .iter()
            .chain(&self.transient_accesses)
            .copied()
    }
}

/// An instruction's operation with its ALU operation, memory width or
/// branch condition folded in, so the correct-path loop dispatches once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Rotl,
    Rotr,
    Mul,
    Mulhu,
    Slt,
    Sltu,
    LoadImm,
    Declassify,
    LoadByte,
    LoadWord,
    LoadDouble,
    StoreByte,
    StoreWord,
    StoreDouble,
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    Jump,
    JumpIndirect,
    Call,
    CallIndirect,
    Ret,
    Nop,
    Halt,
}

impl Op {
    fn alu(op: AluOp) -> Op {
        match op {
            AluOp::Add => Op::Add,
            AluOp::Sub => Op::Sub,
            AluOp::And => Op::And,
            AluOp::Or => Op::Or,
            AluOp::Xor => Op::Xor,
            AluOp::Sll => Op::Sll,
            AluOp::Srl => Op::Srl,
            AluOp::Sra => Op::Sra,
            AluOp::Rotl => Op::Rotl,
            AluOp::Rotr => Op::Rotr,
            AluOp::Mul => Op::Mul,
            AluOp::Mulhu => Op::Mulhu,
            AluOp::Slt => Op::Slt,
            AluOp::Sltu => Op::Sltu,
        }
    }

    fn load(width: MemWidth) -> Op {
        match width {
            MemWidth::Byte => Op::LoadByte,
            MemWidth::Word => Op::LoadWord,
            MemWidth::Double => Op::LoadDouble,
        }
    }

    fn store(width: MemWidth) -> Op {
        match width {
            MemWidth::Byte => Op::StoreByte,
            MemWidth::Word => Op::StoreWord,
            MemWidth::Double => Op::StoreDouble,
        }
    }

    fn branch(cond: BranchCond) -> Op {
        match cond {
            BranchCond::Eq => Op::Beq,
            BranchCond::Ne => Op::Bne,
            BranchCond::Lt => Op::Blt,
            BranchCond::Ge => Op::Bge,
            BranchCond::Ltu => Op::Bltu,
            BranchCond::Geu => Op::Bgeu,
        }
    }
}

/// One instruction as the correct-path loop consumes it (16 bytes).
#[derive(Debug, Clone, Copy)]
struct Decoded {
    op: Op,
    /// Destination register: the slot whose ready cycle the result sets.
    rd: u8,
    /// Destination value slot: `rd`, or `SINK_SLOT` for the zero register.
    rd_slot: u8,
    /// First source: ALU/branch operand, load/store base, indirect target.
    rs1: u8,
    /// Second source: ALU/branch operand (`IMM_SLOT` for an immediate
    /// form) or the stored register.
    rs2: u8,
    /// Whether the PC lies inside a crypto range.
    is_crypto: bool,
    /// ALU immediate (0 in register form), memory offset, load-immediate
    /// value or direct target.
    imm: u64,
}

impl Decoded {
    fn new(instr: Instr, is_crypto: bool) -> Self {
        let r = |reg: Reg| reg.index() as u8;
        let none = Decoded {
            op: Op::Nop,
            rd: 0,
            rd_slot: SINK_SLOT as u8,
            rs1: 0,
            rs2: 0,
            is_crypto,
            imm: 0,
        };
        let writes = |op, rd: Reg, rs1, rs2, imm| Decoded {
            op,
            rd: r(rd),
            rd_slot: if rd.is_zero() { SINK_SLOT as u8 } else { r(rd) },
            rs1,
            rs2,
            imm,
            ..none
        };
        match instr {
            Instr::Alu { op, rd, rs1, rs2 } => writes(Op::alu(op), rd, r(rs1), r(rs2), 0),
            Instr::AluImm { op, rd, rs1, imm } => {
                writes(Op::alu(op), rd, r(rs1), IMM_SLOT, imm as u64)
            }
            Instr::LoadImm { rd, imm } => writes(Op::LoadImm, rd, 0, 0, imm),
            Instr::Declassify { rd, rs1 } => writes(Op::Declassify, rd, r(rs1), 0, 0),
            Instr::Load {
                rd,
                base,
                offset,
                width,
            } => writes(Op::load(width), rd, r(base), 0, offset as u64),
            Instr::Store {
                src,
                base,
                offset,
                width,
            } => Decoded {
                op: Op::store(width),
                rs1: r(base),
                rs2: r(src),
                imm: offset as u64,
                ..none
            },
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => Decoded {
                op: Op::branch(cond),
                rs1: r(rs1),
                rs2: r(rs2),
                imm: target as u64,
                ..none
            },
            Instr::Jump { target } => Decoded {
                op: Op::Jump,
                imm: target as u64,
                ..none
            },
            Instr::JumpIndirect { rs1 } => Decoded {
                op: Op::JumpIndirect,
                rs1: r(rs1),
                ..none
            },
            Instr::Call { target } => Decoded {
                op: Op::Call,
                imm: target as u64,
                ..none
            },
            Instr::CallIndirect { rs1 } => Decoded {
                op: Op::CallIndirect,
                rs1: r(rs1),
                ..none
            },
            Instr::Ret => Decoded {
                op: Op::Ret,
                ..none
            },
            Instr::Nop => none,
            Instr::Halt => Decoded {
                op: Op::Halt,
                ..none
            },
        }
    }

    /// The decoded text of `program`.
    fn table(program: &Program) -> Vec<Decoded> {
        program
            .instrs
            .iter()
            .enumerate()
            .map(|(pc, &instr)| Decoded::new(instr, program.is_crypto_pc(pc)))
            .collect()
    }
}

/// The per-instruction timing scalars: a local of the correct-path loop,
/// parked in [`Simulator`] between runs.
#[derive(Debug, Clone, Copy)]
struct Clock {
    fetch_cycle: u64,
    fetch_slots_used: u64,
    /// The L1I line of the most recent correct-path fetch. Mirrors the
    /// L1I's MRU line exactly (every instruction access flows through
    /// `Simulator::fetch`), so a fetch staying on this line is a
    /// guaranteed hit at base latency and skips the cache model entirely.
    cur_fetch_line: u64,
    commit_cycle: u64,
    commits_in_cycle: u64,
    /// Next slot of the ROB ring (see `Simulator::rob`).
    rob_head: usize,
    /// Resolve cycle of the youngest branch that opened a speculation
    /// window: instructions issuing earlier are speculative.
    older_branches_resolved: u64,
    /// The commit count after which the next periodic BTU switch of the
    /// Q4 experiment happens (`u64::MAX` without one).
    next_switch: u64,
}

/// The instruction in flight in the correct-path loop: its PC and the
/// cycles it was fetched and dispatched at.
#[derive(Debug, Clone, Copy)]
struct Step {
    pc: usize,
    fetch_cycle: u64,
    dispatch: u64,
}

/// A control-flow instruction the inner loop has executed, waiting for the
/// frontend to resolve it: its event, fetch cycle and resolve cycle.
#[derive(Debug, Clone, Copy)]
struct Branch {
    event: BranchEvent,
    fetch_cycle: u64,
    resolve: u64,
}

impl Branch {
    /// A taken branch of `kind` at `at` to `actual_target`, resolving at
    /// `resolve`, with no decode-time target.
    #[inline(always)]
    fn new(d: &Decoded, at: Step, kind: BranchKind, actual_target: usize, resolve: u64) -> Self {
        Branch {
            event: BranchEvent {
                pc: at.pc,
                kind,
                taken: true,
                actual_target,
                direct_target: None,
                fallthrough: at.pc + 1,
                is_crypto: d.is_crypto,
            },
            fetch_cycle: at.fetch_cycle,
            resolve,
        }
    }

    /// The same branch with its decode-time target.
    #[inline(always)]
    fn direct(mut self, target: usize) -> Self {
        self.event.direct_target = Some(target);
        self
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct InflightStore {
    granule: u64,
    data_ready: u64,
    commit_cycle: u64,
}

/// One wrong-path store's rollback record: the overwritten bytes, inline.
///
/// Wrong-path writes are at most 8 bytes (the widest store, or the return
/// address pushed by `call`), so the snapshot fits in a fixed array and the
/// undo log is a flat `Vec<UndoEntry>` the simulator reuses across
/// squashes — truncated, never reallocated, on the per-misprediction path.
#[derive(Debug, Clone, Copy)]
struct UndoEntry {
    addr: u64,
    len: u8,
    bytes: [u8; 8],
}

/// One parked tenant's per-context state in a multi-program run: everything
/// its architectural stream depends on (registers, memory, taint, PC, call
/// depth), its private slice of the frontend (the BPU), and its own access
/// traces. Exchanged with the live pipeline state by
/// [`Simulator::swap_tenant`] on each context switch.
#[derive(Debug)]
pub(crate) struct TenantCheckpoint<'p> {
    program: &'p Program,
    decoded: Vec<Decoded>,
    regs: [u64; REG_SLOTS],
    reg_taint: [bool; REG_SLOTS],
    mem: Memory,
    mem_taint: TaintSet,
    call_depth: u64,
    pc: usize,
    halted: bool,
    architectural_accesses: Vec<u64>,
    transient_accesses: Vec<u64>,
    /// The tenant's branch predictor, `None` until its first switch-out.
    bpu: Option<crate::bpu::BranchPredictionUnit>,
}

impl<'p> TenantCheckpoint<'p> {
    /// A not-yet-started tenant: zeroed registers with SP at the stack top,
    /// the program's initial data image, PC 0 — exactly the state
    /// [`Simulator::new`] starts from, so an interleaved tenant's first
    /// quantum begins where a solo run would.
    pub(crate) fn fresh(program: &'p Program) -> Self {
        let mut mem = Memory::new();
        for region in &program.data {
            mem.write_bytes(region.addr, &region.bytes);
        }
        let mut regs = [0u64; REG_SLOTS];
        regs[SP.index()] = STACK_TOP;
        TenantCheckpoint {
            program,
            decoded: Decoded::table(program),
            regs,
            reg_taint: [false; REG_SLOTS],
            mem,
            mem_taint: TaintSet::new(),
            call_depth: 0,
            pc: 0,
            halted: false,
            architectural_accesses: Vec::new(),
            transient_accesses: Vec::new(),
            bpu: None,
        }
    }

    /// Whether this tenant's program has halted.
    pub(crate) fn halted(&self) -> bool {
        self.halted
    }

    /// The parked BPU's statistics (zeroed before the tenant's first
    /// activation).
    pub(crate) fn bpu_stats(&self) -> crate::bpu::BpuStats {
        self.bpu.as_ref().map(|bpu| bpu.stats()).unwrap_or_default()
    }

    /// Consumes the checkpoint into the tenant's two access traces.
    pub(crate) fn into_traces(self) -> (Vec<u64>, Vec<u64>) {
        (self.architectural_accesses, self.transient_accesses)
    }
}

/// Functional + timing state of one simulated core.
#[derive(Debug)]
pub struct Simulator<'p> {
    program: &'p Program,
    /// `program`'s text as the correct-path loop reads it.
    decoded: Vec<Decoded>,
    config: CpuConfig,
    /// The defense policy, resolved once from `config.defense`; the pipeline
    /// consults only this (and the frontend below), never the mode itself.
    policy: DefensePolicy,
    /// The frontend steering fetch at branches.
    frontend: Frontend,
    caches: CacheHierarchy,
    stats: SimStats,

    // Speculative architectural state (correct path).
    //
    // The register file carries two extra slots (see `REG_SLOTS`): writes
    // to the architectural zero register land in the sink slot instead of
    // being guarded by a data-dependent `is_zero` branch, so reads are
    // plain loads — slot 0 provably stays `0`/untainted.
    regs: [u64; REG_SLOTS],
    reg_taint: [bool; REG_SLOTS],
    mem: Memory,
    mem_taint: TaintSet,
    call_depth: u64,
    pc: usize,
    halted: bool,
    /// Reusable wrong-path store undo log; always empty between excursions.
    mem_undo: Vec<UndoEntry>,

    // Timing state.
    clock: Clock,
    /// `log2(l1i.line_bytes)` when that is a power of two, else 0: the
    /// same-line fetch short-circuit in [`Self::fetch`] then only catches a
    /// refetch of the same address, which is just as surely an MRU hit.
    fetch_line_shift: u32,
    reg_ready: [u64; REG_SLOTS],
    /// Commit cycles of the last `rob_entries` instructions, as a flat ring:
    /// `rob[clock.rob_head]` is the slot of the instruction `rob_entries`
    /// back (zero while the window is still filling — a no-op under `max`),
    /// so the "stall dispatch until the oldest ROB entry retires" rule is
    /// one read and one write per instruction.
    rob: Vec<u64>,
    /// The store queue: a ring of `max(sq_entries, 1)` slots holding the
    /// `sq_len` youngest stores, the oldest at `sq_head`.
    store_queue: Vec<InflightStore>,
    sq_head: usize,
    sq_len: usize,
    /// Counting filter over the store-queue granules: bucket
    /// [`Self::filter_bucket`] holds how many queued stores hash there. A
    /// load whose bucket is zero provably has no forwarding match and skips
    /// the store-queue scan entirely (the queue sits at `sq_entries` ≈ 100
    /// in steady state, so the scan — not the cache — dominated load cost).
    store_filter: Vec<u32>,
    /// Per-bucket upper bound on the `commit_cycle` of the bucket's queued
    /// stores: monotone under pushes and deliberately left stale on
    /// eviction, so it only ever over-approximates. A load whose bucket
    /// bound is `<= start` provably cannot match the scan's
    /// `commit_cycle > start` condition — this is what filters the common
    /// "reload of a long-retired spill slot" case a membership count alone
    /// cannot.
    store_filter_bound: Vec<u64>,
    /// The application context currently "running" for the periodic
    /// context-switch experiment (Q4 partition-reassignment variant).
    current_context: u64,
    /// XORed into every address before it reaches a *timing* structure (the
    /// caches, the store-queue granules, the same-line fetch filter). Zero
    /// for single-tenant runs — a no-op. The multi-tenant simulator sets a
    /// distinct high-bit salt per tenant so tenants whose programs reuse the
    /// same virtual addresses do not alias in the shared caches or forward
    /// stores to each other; functional state and the recorded access traces
    /// always use the real addresses.
    addr_salt: u64,

    // Attacker-visible traces.
    architectural_accesses: Vec<u64>,
    transient_accesses: Vec<u64>,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator for `program` with traces pre-loaded into the BTU
    /// when the configured defense uses one.
    pub fn new(program: &'p Program, config: CpuConfig, btu: Option<BranchTraceUnit>) -> Self {
        let mut mem = Memory::new();
        for region in &program.data {
            mem.write_bytes(region.addr, &region.bytes);
        }
        let mut regs = [0u64; REG_SLOTS];
        regs[SP.index()] = STACK_TOP;
        let policy = config.resolved_policy();
        let mut frontend = Frontend::new(program, &config, btu);
        if config.btu_switch_contexts > 0 {
            // Register the initial context on its partition up front, so the
            // first periodic switch cannot hand context 0's warm partition
            // to the incoming context.
            frontend.on_context_switch(0);
        }
        // Pre-size every hot-loop collection so the steady state never
        // grows: the access traces gain at most one entry per committed /
        // squashed instruction (capped so a huge budget cannot balloon the
        // up-front reservation), the ROB and store queue are bounded by
        // their configured depths, and the undo log by the wrong-path cap.
        let access_hint = config.max_instructions.min(1 << 16) as usize;
        Simulator {
            program,
            decoded: Decoded::table(program),
            frontend,
            policy,
            caches: CacheHierarchy::new(&config),
            stats: SimStats::default(),
            regs,
            reg_taint: [false; REG_SLOTS],
            mem,
            mem_taint: TaintSet::new(),
            call_depth: 0,
            pc: 0,
            halted: false,
            mem_undo: Vec::with_capacity(2 * WRONG_PATH_CAP as usize),
            clock: Clock {
                fetch_cycle: 0,
                fetch_slots_used: 0,
                cur_fetch_line: u64::MAX,
                commit_cycle: 0,
                commits_in_cycle: 0,
                rob_head: 0,
                older_branches_resolved: 0,
                next_switch: match config.btu_flush_interval {
                    0 => u64::MAX,
                    interval => interval,
                },
            },
            fetch_line_shift: if config.l1i.line_bytes.is_power_of_two() {
                config.l1i.line_bytes.trailing_zeros()
            } else {
                0
            },
            reg_ready: [0; REG_SLOTS],
            rob: vec![0; config.rob_entries.max(1)],
            store_queue: vec![InflightStore::default(); config.sq_entries.max(1)],
            sq_head: 0,
            sq_len: 0,
            store_filter: vec![0; Self::FILTER_BUCKETS],
            store_filter_bound: vec![0; Self::FILTER_BUCKETS],
            current_context: 0,
            addr_salt: 0,
            architectural_accesses: Vec::with_capacity(access_hint),
            transient_accesses: Vec::with_capacity(access_hint),
            config,
        }
    }

    /// Runs the program to completion (or until the instruction budget is
    /// exhausted) and returns the outcome.
    ///
    /// # Errors
    ///
    /// Returns an error if the architectural path leaves the program text or
    /// underflows the call stack (wrong-path faults are swallowed, as in
    /// hardware).
    pub fn run(mut self) -> Result<SimOutcome, IsaError> {
        self.run_until(self.config.max_instructions)?;
        Ok(self.into_outcome())
    }

    /// Runs up to `budget` more committed instructions (or until the active
    /// program halts) and returns how many were committed. The multi-tenant
    /// simulator drives one quantum at a time through this.
    pub(crate) fn run_bounded(&mut self, budget: u64) -> Result<u64, IsaError> {
        let start = self.stats.committed_instructions;
        self.run_until(start.saturating_add(budget))?;
        Ok(self.stats.committed_instructions - start)
    }

    /// Folds the deferred counters into the statistics and consumes the
    /// simulator into its outcome.
    pub(crate) fn into_outcome(mut self) -> SimOutcome {
        self.stats.cycles = self.current_cycle();
        // Every committed instruction was fetched exactly once, and only
        // the fetches that left the previous fetch's line reached the L1I
        // model: the rest were same-line hits, counted here in bulk.
        let modelled = self.caches.stats().l1i.accesses;
        self.caches
            .note_instr_hits(self.stats.committed_instructions - modelled);
        self.stats.bpu = self.frontend.bpu_stats();
        if let Some(btu) = self.frontend.btu_stats() {
            self.stats.btu = btu;
        }
        self.stats.caches = self.caches.stats();
        SimOutcome {
            stats: self.stats,
            architectural_accesses: self.architectural_accesses,
            transient_accesses: self.transient_accesses,
            halted: self.halted,
            btu_contexts: self.frontend.btu_context_stats(),
        }
    }

    /// The cycle the run has reached so far (commit or fetch, whichever is
    /// further); monotone, so quantum deltas attribute cycles to tenants.
    pub(crate) fn current_cycle(&self) -> u64 {
        self.clock.commit_cycle.max(self.clock.fetch_cycle)
    }

    /// Whether the active program has halted.
    pub(crate) fn active_halted(&self) -> bool {
        self.halted
    }

    /// Direct access to the frontend (the multi-tenant simulator registers
    /// tenant contexts, switches them and installs the steal-victim policy
    /// through this).
    pub(crate) fn frontend_mut(&mut self) -> &mut Frontend {
        &mut self.frontend
    }

    /// Records one counted context switch in the statistics.
    pub(crate) fn note_context_switch(&mut self) {
        self.stats.context_switches += 1;
    }

    /// Exchanges the live per-tenant state with a parked checkpoint (a
    /// multi-tenant context switch): the running tenant's architectural
    /// state, access traces and BPU move into the slot, and the slot's
    /// become live. Shared structures — the caches, the BTU, the timing
    /// state (ROB ring, store queue, register ready times) — deliberately
    /// stay put: the model switches without draining the machine, and the
    /// per-tenant `salt` keeps the tenants' cache lines and store-queue
    /// granules disjoint (distinct physical pages behind equal virtual
    /// addresses).
    pub(crate) fn swap_tenant(&mut self, slot: &mut TenantCheckpoint<'p>, salt: u64) {
        std::mem::swap(&mut self.program, &mut slot.program);
        std::mem::swap(&mut self.decoded, &mut slot.decoded);
        std::mem::swap(&mut self.regs, &mut slot.regs);
        std::mem::swap(&mut self.reg_taint, &mut slot.reg_taint);
        std::mem::swap(&mut self.mem, &mut slot.mem);
        std::mem::swap(&mut self.mem_taint, &mut slot.mem_taint);
        std::mem::swap(&mut self.call_depth, &mut slot.call_depth);
        std::mem::swap(&mut self.pc, &mut slot.pc);
        std::mem::swap(&mut self.halted, &mut slot.halted);
        std::mem::swap(
            &mut self.architectural_accesses,
            &mut slot.architectural_accesses,
        );
        std::mem::swap(&mut self.transient_accesses, &mut slot.transient_accesses);
        self.frontend.swap_tenant(self.program, &mut slot.bpu);
        self.addr_salt = salt;
        // The same-line fetch filter mirrors the L1I's MRU line for the
        // *previous* tenant's salted text; invalidate it so the incoming
        // tenant's first fetch consults the cache model.
        self.clock.cur_fetch_line = u64::MAX;
    }

    // ------------------------------------------------------------ registers

    #[inline(always)]
    fn reg(&self, r: Reg) -> u64 {
        // Slot 0 is never written (zero-register writes go to the sink slot),
        // so the architectural "reads as zero" rule needs no branch here.
        self.regs[r.index()]
    }

    #[inline(always)]
    fn set_reg(&mut self, r: Reg, value: u64, tainted: bool) {
        // Redirect zero-register writes to the sink slot; the index select
        // compiles to a cmov instead of a data-dependent branch.
        let slot = if r.is_zero() { SINK_SLOT } else { r.index() };
        self.regs[slot] = value;
        self.reg_taint[slot] = tainted;
    }

    #[inline(always)]
    fn taint_of(&self, r: Reg) -> bool {
        self.reg_taint[r.index()]
    }

    /// Writes a decoded instruction's result: value and taint to its value
    /// slot, the ready cycle to its register.
    #[inline(always)]
    fn write_rd(&mut self, d: &Decoded, value: u64, tainted: bool, ready: u64) {
        self.regs[d.rd_slot as usize] = value;
        self.reg_taint[d.rd_slot as usize] = tainted;
        self.reg_ready[d.rd as usize] = ready;
    }

    fn granule(addr: u64) -> u64 {
        addr & !7
    }

    /// The address as the *timing* structures (caches, store queue, fetch
    /// filter) see it. The per-tenant salt is zero outside multi-tenant
    /// runs — a no-op; with it, tenants' equal virtual addresses land on
    /// disjoint lines and granules, like distinct physical pages.
    #[inline(always)]
    fn salted(&self, addr: u64) -> u64 {
        addr ^ self.addr_salt
    }

    /// Number of `store_filter` buckets; power of two, ~36× the configured
    /// store-queue depth so collision-driven false positives stay rare.
    const FILTER_BUCKETS: usize = 4096;

    /// The `store_filter` bucket of a granule (Fibonacci hash of the high
    /// bits; counts, so false positives only cost a scan — never wrong
    /// timing).
    #[inline]
    fn filter_bucket(granule: u64) -> usize {
        ((granule >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as usize
    }

    // ------------------------------------------------------------- frontend

    /// Allocates a fetch slot for the instruction at `pc`, accounting for
    /// fetch width and instruction-cache misses. Returns the fetch cycle.
    #[inline(always)]
    fn fetch(&mut self, clock: &mut Clock, pc: usize) -> u64 {
        let addr = self.salted(Program::byte_addr(pc));
        let line = addr >> self.fetch_line_shift;
        if line == clock.cur_fetch_line {
            // Same line as the previous fetch: a guaranteed L1I hit at base
            // latency (the line is the L1I's MRU line and repeated MRU
            // accesses change no replacement state), so only the fetch-width
            // bookkeeping remains; `into_outcome` counts the hit.
        } else {
            clock.cur_fetch_line = line;
            let latency = self.caches.access_instr(addr);
            let extra = latency.saturating_sub(self.config.l1i.latency);
            if extra > 0 {
                clock.fetch_cycle += extra;
                clock.fetch_slots_used = 0;
            }
        }
        if clock.fetch_slots_used >= self.config.fetch_width {
            clock.fetch_cycle += 1;
            clock.fetch_slots_used = 0;
        }
        clock.fetch_slots_used += 1;
        clock.fetch_cycle
    }

    // ------------------------------------------------------------ main loop

    /// Issue cycle of an instruction dispatched at `dispatch` whose operands
    /// are ready at `ready`, applying the defense policies that delay
    /// execution while speculative. `is_mem_or_branch` and `tainted_source`
    /// are the per-instruction predicates those policies test.
    #[inline(always)]
    fn issue_at(
        &mut self,
        clock: &Clock,
        dispatch: u64,
        ready: u64,
        is_mem_or_branch: bool,
        tainted_source: bool,
    ) -> u64 {
        let start = dispatch.max(ready);
        // SPT delays speculative transmitters, ProSpeCT speculative
        // instructions with a tainted operand, until older branches resolve.
        let held = (self.policy.delay_transmitters && is_mem_or_branch)
            || (self.policy.block_tainted && tainted_source);
        if held && start < clock.older_branches_resolved {
            self.stats.defense_delayed_instructions += 1;
            return clock.older_branches_resolved;
        }
        start
    }

    /// Fetches, functionally executes, times and commits correct-path
    /// instructions until `limit` instructions have committed in total or
    /// the program halts.
    ///
    /// The PC, the commit count and the [`Clock`] stay in locals for the
    /// whole run, and the decoded text and ROB ring are moved out of `self`
    /// for its duration, so the per-instruction state never round-trips
    /// through the simulator. The loop is a nest: the inner loop runs the
    /// straight-line stretch up to and including the next control-flow
    /// instruction, whose arm executes it and leaves with its
    /// [`BranchEvent`]; the outer loop resolves that branch — the one hot
    /// call, into the frontend — and commits it. With no hot call left in
    /// the inner loop, the host keeps the clock in registers there. Each
    /// `Op` arm computes its own operand readiness, defense delay, latency
    /// and functional effect; the ALU operation, width or condition is a
    /// constant in its arm.
    fn run_until(&mut self, limit: u64) -> Result<(), IsaError> {
        let mut limit = if self.halted {
            self.stats.committed_instructions
        } else {
            limit
        };
        let decoded = std::mem::take(&mut self.decoded);
        let mut rob = std::mem::take(&mut self.rob);
        let mut clock = self.clock;
        let mut pc = self.pc;
        let mut committed = self.stats.committed_instructions;

        let result = 'run: loop {
            let branch = loop {
                if committed >= limit {
                    break 'run Ok(());
                }
                let Some(d) = decoded.get(pc) else {
                    break 'run Err(IsaError::PcOutOfRange {
                        pc,
                        len: decoded.len(),
                    });
                };
                let fetch_cycle = self.fetch(&mut clock, pc);
                // Dispatch is limited by the frontend depth and ROB
                // occupancy: the slot about to be overwritten holds the
                // commit cycle of the instruction `rob_entries` back (0
                // while the window fills).
                let dispatch = (fetch_cycle + self.config.frontend_depth).max(rob[clock.rob_head]);
                let at = Step {
                    pc,
                    fetch_cycle,
                    dispatch,
                };
                let complete = match d.op {
                    Op::Add => self.alu(&clock, d, at, AluOp::Add),
                    Op::Sub => self.alu(&clock, d, at, AluOp::Sub),
                    Op::And => self.alu(&clock, d, at, AluOp::And),
                    Op::Or => self.alu(&clock, d, at, AluOp::Or),
                    Op::Xor => self.alu(&clock, d, at, AluOp::Xor),
                    Op::Sll => self.alu(&clock, d, at, AluOp::Sll),
                    Op::Srl => self.alu(&clock, d, at, AluOp::Srl),
                    Op::Sra => self.alu(&clock, d, at, AluOp::Sra),
                    Op::Rotl => self.alu(&clock, d, at, AluOp::Rotl),
                    Op::Rotr => self.alu(&clock, d, at, AluOp::Rotr),
                    Op::Mul => self.alu(&clock, d, at, AluOp::Mul),
                    Op::Mulhu => self.alu(&clock, d, at, AluOp::Mulhu),
                    Op::Slt => self.alu(&clock, d, at, AluOp::Slt),
                    Op::Sltu => self.alu(&clock, d, at, AluOp::Sltu),
                    Op::LoadImm => {
                        let complete = self.issue_at(&clock, dispatch, 0, false, false) + 1;
                        self.write_rd(d, d.imm, false, complete);
                        complete
                    }
                    Op::Declassify => {
                        let rs1 = d.rs1 as usize;
                        let ready = self.reg_ready[rs1];
                        let tainted = self.reg_taint[rs1];
                        let complete = self.issue_at(&clock, dispatch, ready, false, tainted) + 1;
                        self.write_rd(d, self.regs[rs1], false, complete);
                        complete
                    }
                    Op::LoadByte => self.load(&clock, d, at, MemWidth::Byte),
                    Op::LoadWord => self.load(&clock, d, at, MemWidth::Word),
                    Op::LoadDouble => self.load(&clock, d, at, MemWidth::Double),
                    Op::StoreByte => self.store(&clock, d, at, MemWidth::Byte),
                    Op::StoreWord => self.store(&clock, d, at, MemWidth::Word),
                    Op::StoreDouble => self.store(&clock, d, at, MemWidth::Double),
                    Op::Nop => self.issue_at(&clock, dispatch, 0, false, false) + 1,
                    Op::Halt => {
                        // The run ends once the `halt` commits.
                        self.halted = true;
                        limit = committed + 1;
                        self.issue_at(&clock, dispatch, 0, false, false) + 1
                    }
                    Op::Beq => break self.cond_branch(&clock, d, at, BranchCond::Eq),
                    Op::Bne => break self.cond_branch(&clock, d, at, BranchCond::Ne),
                    Op::Blt => break self.cond_branch(&clock, d, at, BranchCond::Lt),
                    Op::Bge => break self.cond_branch(&clock, d, at, BranchCond::Ge),
                    Op::Bltu => break self.cond_branch(&clock, d, at, BranchCond::Ltu),
                    Op::Bgeu => break self.cond_branch(&clock, d, at, BranchCond::Geu),
                    Op::Jump => {
                        let complete = self.issue_at(&clock, dispatch, 0, true, false)
                            + self.config.branch_resolve_latency;
                        let target = d.imm as usize;
                        break Branch::new(d, at, BranchKind::UncondDirect, target, complete)
                            .direct(target);
                    }
                    Op::JumpIndirect => {
                        let rs1 = d.rs1 as usize;
                        let ready = self.reg_ready[rs1];
                        let tainted = self.reg_taint[rs1];
                        let complete = self.issue_at(&clock, dispatch, ready, true, tainted)
                            + self.config.branch_resolve_latency;
                        let target = self.regs[rs1] as usize;
                        break Branch::new(d, at, BranchKind::Indirect, target, complete);
                    }
                    Op::Call => break self.call(&clock, d, at, false),
                    Op::CallIndirect => break self.call(&clock, d, at, true),
                    Op::Ret => {
                        if self.call_depth == 0 {
                            break 'run Err(IsaError::ReturnWithoutCall { pc });
                        }
                        break self.ret(&clock, d, at);
                    }
                };
                self.commit(&mut clock, &mut rob, &mut committed, complete);
                pc += 1;
            };

            let (redirect, opens_window) =
                self.resolve_branch(&decoded, &branch.event, branch.fetch_cycle, branch.resolve);
            if redirect > clock.fetch_cycle {
                clock.fetch_cycle = redirect;
                clock.fetch_slots_used = 0;
            }
            if opens_window {
                clock.older_branches_resolved = clock.older_branches_resolved.max(branch.resolve);
            }
            self.commit(&mut clock, &mut rob, &mut committed, branch.resolve);
            pc = branch.event.actual_target;
        };

        self.decoded = decoded;
        self.rob = rob;
        self.clock = clock;
        self.pc = pc;
        self.stats.committed_instructions = committed;
        result
    }

    /// In-order commit of an instruction that completes at `complete`, under
    /// the commit-width constraint, and the periodic BTU switch it may
    /// trigger.
    ///
    /// Written as a `max` and a select rather than an if/else ladder:
    /// whether an instruction advances the commit cycle alternates
    /// data-dependently, which made that branch a steady source of host
    /// mispredictions.
    #[inline(always)]
    fn commit(&mut self, clock: &mut Clock, rob: &mut [u64], committed: &mut u64, complete: u64) {
        // The instruction commits once it completes, and no earlier than
        // the next cycle when this one already holds `commit_width`
        // commits; it opens a new commit cycle unless it joins the current.
        let full = clock.commits_in_cycle >= self.config.commit_width;
        let cycle = (complete + 1).max(clock.commit_cycle + u64::from(full));
        clock.commits_in_cycle = if cycle == clock.commit_cycle {
            clock.commits_in_cycle + 1
        } else {
            1
        };
        clock.commit_cycle = cycle;
        rob[clock.rob_head] = clock.commit_cycle;
        clock.rob_head += 1;
        if clock.rob_head == rob.len() {
            clock.rob_head = 0;
        }
        *committed += 1;
        if *committed == clock.next_switch {
            clock.next_switch += self.config.btu_flush_interval;
            self.periodic_switch();
        }
    }

    /// A register-register or register-immediate ALU operation; `op` is a
    /// constant at every call site, so `apply` and `latency` fold away.
    #[inline(always)]
    fn alu(&mut self, clock: &Clock, d: &Decoded, at: Step, op: AluOp) -> u64 {
        let (rs1, rs2) = (d.rs1 as usize, d.rs2 as usize);
        let ready = self.reg_ready[rs1].max(self.reg_ready[rs2]);
        let tainted = self.reg_taint[rs1] | self.reg_taint[rs2];
        let complete = self.issue_at(clock, at.dispatch, ready, false, tainted) + op.latency();
        let value = op.apply(self.regs[rs1], self.regs[rs2].wrapping_add(d.imm));
        self.write_rd(d, value, tainted, complete);
        complete
    }

    /// A load of `width` bytes at `rs1 + imm`.
    #[inline(always)]
    fn load(&mut self, clock: &Clock, d: &Decoded, at: Step, width: MemWidth) -> u64 {
        let base = d.rs1 as usize;
        let (ready, tainted) = (self.reg_ready[base], self.reg_taint[base]);
        let start = self.issue_at(clock, at.dispatch, ready, true, tainted);
        let addr = self.regs[base].wrapping_add(d.imm);
        let value = self.mem.read(addr, width);
        let secret =
            self.program.is_secret_addr(addr) || self.mem_taint.contains(Self::granule(addr));
        let complete = self.time_load(start, addr);
        self.write_rd(d, value, secret, complete);
        self.architectural_accesses.push(addr);
        complete
    }

    /// A store of `width` bytes of `rs2` at `rs1 + imm`.
    #[inline(always)]
    fn store(&mut self, clock: &Clock, d: &Decoded, at: Step, width: MemWidth) -> u64 {
        let (base, src) = (d.rs1 as usize, d.rs2 as usize);
        let ready = self.reg_ready[src].max(self.reg_ready[base]);
        let src_tainted = self.reg_taint[src];
        let tainted = src_tainted | self.reg_taint[base];
        let start = self.issue_at(clock, at.dispatch, ready, true, tainted);
        let addr = self.regs[base].wrapping_add(d.imm);
        self.mem.write(addr, self.regs[src], width);
        if src_tainted {
            self.mem_taint.insert(Self::granule(addr));
        } else {
            self.mem_taint.remove(Self::granule(addr));
        }
        let complete = start + 1;
        self.record_store(addr, complete);
        let timing_addr = self.salted(addr);
        let _ = self.caches.access_data(timing_addr);
        self.architectural_accesses.push(addr);
        complete
    }

    /// A conditional direct branch; `cond` is a constant at every call site.
    #[inline(always)]
    fn cond_branch(&mut self, clock: &Clock, d: &Decoded, at: Step, cond: BranchCond) -> Branch {
        let (rs1, rs2) = (d.rs1 as usize, d.rs2 as usize);
        let ready = self.reg_ready[rs1].max(self.reg_ready[rs2]);
        let tainted = self.reg_taint[rs1] | self.reg_taint[rs2];
        let complete = self.issue_at(clock, at.dispatch, ready, true, tainted)
            + self.config.branch_resolve_latency;
        let taken = cond.eval(self.regs[rs1], self.regs[rs2]);
        let target = d.imm as usize;
        let next_pc = if taken { target } else { at.pc + 1 };
        let mut branch =
            Branch::new(d, at, BranchKind::CondDirect, next_pc, complete).direct(target);
        branch.event.taken = taken;
        branch
    }

    /// A direct or indirect call: pushes the return address.
    #[inline(always)]
    fn call(&mut self, clock: &Clock, d: &Decoded, at: Step, indirect: bool) -> Branch {
        let rs1 = d.rs1 as usize;
        let sp_ready = self.reg_ready[SP.index()];
        let (ready, tainted) = if indirect {
            (self.reg_ready[rs1].max(sp_ready), self.reg_taint[rs1])
        } else {
            (sp_ready, false)
        };
        let complete = self.issue_at(clock, at.dispatch, ready, true, tainted)
            + self.config.branch_resolve_latency;
        // The target is read before SP moves (`callr sp`).
        let target = if indirect {
            self.regs[rs1] as usize
        } else {
            d.imm as usize
        };
        let sp = self.regs[SP.index()].wrapping_sub(8);
        self.set_reg(SP, sp, false);
        self.mem.write_u64(sp, (at.pc + 1) as u64);
        self.call_depth += 1;
        self.record_store(sp, complete);
        let timing_sp = self.salted(sp);
        let _ = self.caches.access_data(timing_sp);
        self.architectural_accesses.push(sp);
        self.reg_ready[SP.index()] = complete;
        if indirect {
            Branch::new(d, at, BranchKind::CallIndirect, target, complete)
        } else {
            Branch::new(d, at, BranchKind::Call, target, complete).direct(target)
        }
    }

    /// A return (the caller has checked the call depth): pops the return
    /// address.
    #[inline(always)]
    fn ret(&mut self, clock: &Clock, d: &Decoded, at: Step) -> Branch {
        let ready = self.reg_ready[SP.index()];
        let start = self.issue_at(clock, at.dispatch, ready, true, false);
        self.call_depth -= 1;
        let sp = self.regs[SP.index()];
        let target = self.mem.read_u64(sp) as usize;
        self.set_reg(SP, sp.wrapping_add(8), false);
        let complete = (start + self.config.branch_resolve_latency).max(self.time_load(start, sp));
        self.reg_ready[SP.index()] = complete;
        self.architectural_accesses.push(sp);
        Branch::new(d, at, BranchKind::Return, target, complete)
    }

    /// Store-to-load forwarding / memory timing for a load starting at
    /// `start` and accessing `addr`.
    #[inline(always)]
    fn time_load(&mut self, start: u64, addr: u64) -> u64 {
        let addr = self.salted(addr);
        let granule = Self::granule(addr);
        // Zero bucket ⇒ no queued store shares this granule; bound ≤ start
        // ⇒ no member can pass the scan's `commit_cycle > start` test. In
        // either case the scan provably cannot match; otherwise the exact
        // scan runs, so the filter never changes which store (if any)
        // forwards.
        let bucket = Self::filter_bucket(granule);
        let forwarding =
            if self.store_filter[bucket] == 0 || self.store_filter_bound[bucket] <= start {
                None
            } else {
                self.forwarding_store(granule, start)
            };
        let latency = self.caches.access_data(addr);
        match forwarding {
            Some(store) if self.policy.stl_forwarding => {
                self.stats.stl_forwards += 1;
                start.max(store.data_ready) + 1
            }
            Some(store) => {
                // Forwarding disabled (Cassandra+STL): the load always sends a
                // request to the cache and may not bypass the unresolved
                // store — it waits until the store's data is available and
                // then pays the cache access latency.
                start.max(store.data_ready) + latency
            }
            None => start + latency,
        }
    }

    /// The youngest queued store to `granule` that commits after `start`.
    #[inline(never)]
    fn forwarding_store(&self, granule: u64, start: u64) -> Option<InflightStore> {
        let cap = self.store_queue.len();
        (0..self.sq_len).rev().find_map(|age| {
            let mut slot = self.sq_head + age;
            if slot >= cap {
                slot -= cap;
            }
            let store = self.store_queue[slot];
            (store.granule == granule && store.commit_cycle > start).then_some(store)
        })
    }

    #[inline(always)]
    fn record_store(&mut self, addr: u64, data_ready: u64) {
        let addr = self.salted(addr);
        let commit_cycle = data_ready + self.config.frontend_depth;
        let cap = self.store_queue.len();
        let slot = if self.sq_len == cap {
            // Full: the oldest store leaves and its slot takes the new one.
            let slot = self.sq_head;
            let evicted = self.store_queue[slot].granule;
            self.store_filter[Self::filter_bucket(evicted)] -= 1;
            self.sq_head = if slot + 1 == cap { 0 } else { slot + 1 };
            slot
        } else {
            let slot = self.sq_head + self.sq_len;
            self.sq_len += 1;
            if slot >= cap {
                slot - cap
            } else {
                slot
            }
        };
        let granule = Self::granule(addr);
        let bucket = Self::filter_bucket(granule);
        self.store_filter[bucket] += 1;
        self.store_filter_bound[bucket] = self.store_filter_bound[bucket].max(commit_cycle);
        self.store_queue[slot] = InflightStore {
            granule,
            data_ready,
            commit_cycle,
        };
    }

    /// One periodic context switch of the Q4 experiment: price it either as
    /// a whole-unit flush (the paper's model) or as a BTU partition
    /// reassignment rotating through `btu_switch_contexts` applications.
    #[cold]
    #[inline(never)]
    fn periodic_switch(&mut self) {
        if self.config.btu_switch_contexts > 0 {
            self.current_context = (self.current_context + 1) % self.config.btu_switch_contexts;
            if self.frontend.on_context_switch(self.current_context) {
                self.stats.context_switches += 1;
            }
        } else if self.frontend.flush() {
            self.stats.periodic_btu_flushes += 1;
        }
    }

    /// Frontend behaviour at a committed branch: the [`Frontend`] decides
    /// (replay, prediction, integrity stall, fence); the pipeline only
    /// interprets the decision — wrong-path excursions and squash recovery
    /// here, the fetch redirect and speculation window in the returned
    /// verdict. No defense-specific branching lives here.
    ///
    /// Returns the cycle fetch resumes at (0 when fetch is not redirected)
    /// and whether the branch opens a speculation window.
    #[inline(never)]
    fn resolve_branch(
        &mut self,
        decoded: &[Decoded],
        event: &BranchEvent,
        fetch_cycle: u64,
        resolve: u64,
    ) -> (u64, bool) {
        self.stats.committed_branches += 1;
        if event.is_crypto {
            self.stats.committed_crypto_branches += 1;
        }
        let decision = self.frontend.on_branch(event);
        let mut squash_after_commit = false;
        let redirect = match decision.outcome {
            FetchOutcome::Proceed { extra_latency } => {
                if extra_latency > 0 {
                    fetch_cycle + extra_latency
                } else {
                    0
                }
            }
            FetchOutcome::Mispredict { wrong_target } => {
                // Misprediction: execute a bounded wrong path, then squash.
                self.stats.mispredictions += 1;
                let window = (resolve.saturating_sub(fetch_cycle) + 1) * self.config.fetch_width;
                let budget = window
                    .min(WRONG_PATH_CAP)
                    .min(self.config.rob_entries as u64);
                self.run_wrong_path(decoded, wrong_target, budget);
                squash_after_commit = true;
                resolve + self.config.mispredict_redirect_penalty
            }
            FetchOutcome::Stall => {
                // No usable target: fetch waits for the branch to resolve.
                self.stats.fetch_stalls += 1;
                resolve + 1
            }
        };
        // The mispredicted branch itself retires architecturally: commit its
        // frontend state *before* the squash, so frontends whose crypto
        // branches can mispredict (a cold tournament branch) roll their
        // speculative cursors back to a checkpoint that already includes
        // this execution.
        self.frontend.on_commit(event);
        if squash_after_commit {
            self.frontend.on_squash();
        }
        // Replayed branches do not open a speculation window (§6.2); every
        // other branch keeps younger instructions speculative until resolve.
        (redirect, decision.opens_speculation_window)
    }

    /// Records the bytes a wrong-path store is about to overwrite in the
    /// reusable undo log.
    #[inline]
    fn snapshot_for_undo(&mut self, addr: u64, len: usize) {
        let mut bytes = [0u8; 8];
        self.mem.read_into(addr, &mut bytes[..len]);
        self.mem_undo.push(UndoEntry {
            addr,
            len: len as u8,
            bytes,
        });
    }

    /// Executes up to `budget` wrong-path instructions starting at `start_pc`
    /// with full state rollback afterwards. Their data accesses pollute the
    /// caches and are recorded as transient observations.
    ///
    /// Register state is checkpointed by value (the `LIVE_SLOTS` prefix of
    /// the register file); memory writes are undone from the flat
    /// `mem_undo` log. `mem_taint` needs no checkpoint at all: wrong-path
    /// loads only *read* it and wrong-path stores deliberately skip the
    /// taint update (a squashed store must not change which granules the
    /// architectural path considers secret), so the taint delta of an
    /// excursion is empty by construction. A wrong-path branch takes its
    /// crypto-range flag from the decoded text.
    fn run_wrong_path(&mut self, decoded: &[Decoded], start_pc: usize, budget: u64) {
        let mut saved_regs = [0u64; LIVE_SLOTS];
        saved_regs.copy_from_slice(&self.regs[..LIVE_SLOTS]);
        let mut saved_taint = [false; LIVE_SLOTS];
        saved_taint.copy_from_slice(&self.reg_taint[..LIVE_SLOTS]);
        let saved_call_depth = self.call_depth;
        debug_assert!(self.mem_undo.is_empty());

        let mut pc = start_pc;
        let mut executed = 0u64;
        while executed < budget {
            let Some(&instr) = self.program.instr(pc) else {
                break;
            };
            executed += 1;
            // SPT delays transmitters until they are non-speculative, so
            // wrong-path loads, stores and branches never execute before the
            // squash — the excursion ends at the first one.
            if self.policy.delay_transmitters && (instr.is_mem() || instr.is_branch()) {
                break;
            }
            let mut next_pc = pc + 1;
            match instr {
                Instr::Alu { op, rd, rs1, rs2 } => {
                    let v = op.apply(self.reg(rs1), self.reg(rs2));
                    let t = self.taint_of(rs1) || self.taint_of(rs2);
                    self.set_reg(rd, v, t);
                }
                Instr::AluImm { op, rd, rs1, imm } => {
                    let v = op.apply(self.reg(rs1), imm as u64);
                    let t = self.taint_of(rs1);
                    self.set_reg(rd, v, t);
                }
                Instr::LoadImm { rd, imm } => self.set_reg(rd, imm, false),
                Instr::Declassify { rd, rs1 } => {
                    let v = self.reg(rs1);
                    self.set_reg(rd, v, false);
                }
                Instr::Load {
                    rd,
                    base,
                    offset,
                    width,
                } => {
                    let addr = self.reg(base).wrapping_add(offset as u64);
                    // ProSpeCT blocks speculative execution of instructions
                    // with tainted operands, so a wrong-path load with a
                    // tainted address never reaches the cache.
                    if self.policy.block_tainted && self.taint_of(base) {
                        break;
                    }
                    let v = self.mem.read(addr, width);
                    let tainted = self.program.is_secret_addr(addr)
                        || self.mem_taint.contains(Self::granule(addr));
                    self.set_reg(rd, v, tainted);
                    let timing_addr = self.salted(addr);
                    let _ = self.caches.access_data(timing_addr);
                    self.transient_accesses.push(addr);
                }
                Instr::Store {
                    src,
                    base,
                    offset,
                    width,
                } => {
                    let addr = self.reg(base).wrapping_add(offset as u64);
                    // Stores do not modify the cache or memory before commit;
                    // record the old bytes for rollback of the speculative
                    // memory image.
                    self.snapshot_for_undo(addr, width.bytes() as usize);
                    let v = self.reg(src);
                    self.mem.write(addr, v, width);
                }
                Instr::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    let taken = cond.eval(self.reg(rs1), self.reg(rs2));
                    next_pc = if taken { target } else { pc + 1 };
                }
                Instr::Jump { target } => next_pc = target,
                Instr::JumpIndirect { rs1 } => next_pc = self.reg(rs1) as usize,
                Instr::Call { target } => {
                    let sp = self.reg(SP).wrapping_sub(8);
                    self.snapshot_for_undo(sp, 8);
                    self.set_reg(SP, sp, false);
                    self.mem.write_u64(sp, (pc + 1) as u64);
                    self.call_depth += 1;
                    next_pc = target;
                }
                Instr::CallIndirect { rs1 } => {
                    let sp = self.reg(SP).wrapping_sub(8);
                    self.snapshot_for_undo(sp, 8);
                    let target = self.reg(rs1) as usize;
                    self.set_reg(SP, sp, false);
                    self.mem.write_u64(sp, (pc + 1) as u64);
                    self.call_depth += 1;
                    next_pc = target;
                }
                Instr::Ret => {
                    if self.call_depth == 0 {
                        break;
                    }
                    self.call_depth -= 1;
                    let sp = self.reg(SP);
                    let ret = self.mem.read_u64(sp) as usize;
                    self.set_reg(SP, sp.wrapping_add(8), false);
                    self.transient_accesses.push(sp);
                    let timing_sp = self.salted(sp);
                    let _ = self.caches.access_data(timing_sp);
                    next_pc = ret;
                }
                Instr::Nop => {}
                Instr::Halt => break,
            }
            // A wrong-path branch may advance speculative frontend state
            // (the BTU's fetch cursor); the squash below rolls it back.
            if instr.is_branch() {
                self.frontend
                    .on_wrong_path_branch(pc, decoded[pc].is_crypto);
            }
            self.stats.squashed_instructions += 1;
            pc = next_pc;
        }

        // Roll back the speculative state. The undo log is drained in
        // reverse so overlapping wrong-path stores unwind correctly, then
        // handed back to keep its buffer for the next excursion.
        let mut undo = std::mem::take(&mut self.mem_undo);
        for entry in undo.drain(..).rev() {
            self.mem
                .write_bytes(entry.addr, &entry.bytes[..entry.len as usize]);
        }
        self.mem_undo = undo;
        self.regs[..LIVE_SLOTS].copy_from_slice(&saved_regs);
        self.reg_taint[..LIVE_SLOTS].copy_from_slice(&saved_taint);
        self.call_depth = saved_call_depth;
    }
}

/// Convenience entry point: simulates `program` under `config`, loading the
/// provided BTU traces when the defense uses them.
///
/// # Errors
///
/// Propagates architectural execution errors.
pub fn simulate(
    program: &Program,
    config: CpuConfig,
    btu: Option<BranchTraceUnit>,
) -> Result<SimOutcome, IsaError> {
    Simulator::new(program, config, btu).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DefenseMode as Mode;
    use cassandra_btu::encode::EncodedTraces;
    use cassandra_isa::builder::ProgramBuilder;
    use cassandra_isa::exec::Executor;
    use cassandra_isa::reg::{A0, A1, A2, ZERO};
    use cassandra_trace::genproc::generate_traces;

    /// Defenses are selected by label here, round-tripping the `FromStr`
    /// impl — and keeping this file free of per-mode references.
    fn defense(label: &str) -> Mode {
        label.parse().expect("known defense label")
    }

    fn loop_program(iters: u64) -> Program {
        let mut b = ProgramBuilder::new("timing-loop");
        b.begin_crypto();
        let data = b.alloc_u64s("data", &(0..64u64).collect::<Vec<_>>());
        b.li(A0, iters);
        b.li(A1, data);
        b.li(A2, 0);
        b.label("l");
        b.ld(cassandra_isa::reg::T0, A1, 0);
        b.add(A2, A2, cassandra_isa::reg::T0);
        b.addi(A1, A1, 8);
        b.andi(A1, A1, !7);
        b.addi(A0, A0, -1);
        b.bne(A0, ZERO, "l");
        b.end_crypto();
        b.halt();
        b.build().unwrap()
    }

    /// A BTU over `program`'s traces with `cfg`'s geometry.
    fn btu_for(program: &Program, cfg: &CpuConfig) -> BranchTraceUnit {
        let bundle = generate_traces(program, None, 10_000_000).unwrap();
        let encoded = EncodedTraces::from_bundle(program, &bundle);
        BranchTraceUnit::new(cfg.btu, encoded)
    }

    /// Simulates `program` under `label`'s defense with a matching BTU.
    fn simulate_as(program: &Program, label: &str) -> SimOutcome {
        let cfg = CpuConfig::golden_cove_like().with_defense(defense(label));
        simulate(program, cfg, Some(btu_for(program, &cfg))).unwrap()
    }

    #[test]
    fn functional_result_matches_the_reference_executor() {
        // The pipeline's speculative state must end architecturally identical
        // to the sequential executor (stores committed, registers final).
        let program = loop_program(20);
        let mut reference = Executor::new(&program);
        reference.run(1_000_000).unwrap();

        let outcome = simulate(&program, CpuConfig::golden_cove_like(), None).unwrap();
        assert!(outcome.halted);
        // The committed instruction count matches the executor's step count.
        assert_eq!(outcome.stats.committed_instructions, reference.steps());
    }

    #[test]
    fn all_defenses_commit_the_same_instructions() {
        let program = loop_program(32);
        let baseline = simulate(&program, CpuConfig::golden_cove_like(), None).unwrap();
        for mode in Mode::ALL {
            let cfg = CpuConfig::golden_cove_like().with_defense(mode);
            let btu = if mode.uses_btu() {
                Some(btu_for(&program, &cfg))
            } else {
                None
            };
            let outcome = simulate(&program, cfg, btu).unwrap();
            assert_eq!(
                outcome.stats.committed_instructions, baseline.stats.committed_instructions,
                "{mode:?} must not change architectural behaviour"
            );
            assert_eq!(
                outcome.architectural_accesses, baseline.architectural_accesses,
                "{mode:?} must not change the architectural access trace"
            );
            assert!(outcome.halted);
        }
    }

    #[test]
    fn cassandra_has_no_crypto_mispredictions() {
        let program = loop_program(64);
        let cfg = CpuConfig::golden_cove_like().with_defense(defense("Cassandra"));
        let outcome = simulate(&program, cfg, Some(btu_for(&program, &cfg))).unwrap();
        assert_eq!(outcome.stats.mispredictions, 0);
        assert_eq!(outcome.stats.squashed_instructions, 0);
        assert!(outcome.stats.btu.lookups > 0);
    }

    #[test]
    fn fence_stalls_every_branch_and_never_speculates() {
        let program = loop_program(64);
        let base = simulate(&program, CpuConfig::golden_cove_like(), None).unwrap();
        let cfg = CpuConfig::golden_cove_like().with_defense(defense("Fence"));
        let fence = simulate(&program, cfg, None).unwrap();
        assert_eq!(fence.stats.mispredictions, 0);
        assert_eq!(fence.stats.squashed_instructions, 0);
        assert!(fence.transient_accesses.is_empty());
        assert_eq!(
            fence.stats.fetch_stalls, fence.stats.committed_branches,
            "every branch stalls fetch until resolve"
        );
        assert!(fence.stats.cycles > base.stats.cycles);
    }

    #[test]
    fn zero_entry_trace_cache_pays_the_miss_penalty_per_lookup() {
        let program = loop_program(64);
        let full = simulate_as(&program, "Cassandra");
        let no_tc = simulate_as(&program, "Cassandra-noTC");
        // Replay is still exact (no mispredictions), but every multi-target
        // lookup misses and the runtime pays for the streaming.
        assert_eq!(no_tc.stats.mispredictions, 0);
        assert!(no_tc.stats.btu.misses > full.stats.btu.misses);
        assert_eq!(no_tc.stats.btu.hits, 0);
        assert!(no_tc.stats.cycles > full.stats.cycles);
    }

    #[test]
    fn tournament_promotes_the_hot_loop_branch() {
        let program = loop_program(64);
        let baseline = simulate(&program, CpuConfig::golden_cove_like(), None).unwrap();
        let cfg = CpuConfig::golden_cove_like().with_defense(defense("Tournament"));
        let outcome = simulate(&program, cfg, Some(btu_for(&program, &cfg))).unwrap();
        // Architectural behaviour is untouched; both components saw work.
        assert_eq!(
            outcome.stats.committed_instructions,
            baseline.stats.committed_instructions
        );
        assert_eq!(
            outcome.architectural_accesses,
            baseline.architectural_accesses
        );
        assert!(outcome.stats.btu.lookups > 0, "hot executions replay");
        assert!(
            outcome.stats.bpu.pht_lookups > 0,
            "cold executions hit the BPU"
        );
        // The hot loop branch is promoted long before the mispredicted exit,
        // so the tournament avoids the baseline's loop-exit squash.
        assert!(outcome.stats.mispredictions <= baseline.stats.mispredictions);
    }

    #[test]
    fn partition_reassignment_is_cheaper_than_whole_flushes() {
        let program = loop_program(64);
        let base = CpuConfig::golden_cove_like();
        let flush_cfg = base
            .with_defense(defense("Cassandra"))
            .with_btu_flush_interval(50);
        let flushed = simulate(&program, flush_cfg, Some(btu_for(&program, &flush_cfg))).unwrap();
        let part_cfg = base
            .with_defense(defense("Cassandra-part"))
            .with_btu_flush_interval(50)
            .with_btu_switch_contexts(2);
        let partitioned = simulate(&program, part_cfg, Some(btu_for(&program, &part_cfg))).unwrap();

        assert!(flushed.stats.periodic_btu_flushes > 1, "flushes happened");
        assert_eq!(partitioned.stats.periodic_btu_flushes, 0);
        assert!(partitioned.stats.context_switches > 1, "switches happened");
        assert!(partitioned.stats.btu.partition_switches > 1);
        // Same architectural behaviour, and the reassignment variant never
        // pays more Trace Cache misses than the whole-unit flush.
        assert_eq!(
            partitioned.stats.committed_instructions,
            flushed.stats.committed_instructions
        );
        assert_eq!(
            partitioned.architectural_accesses,
            flushed.architectural_accesses
        );
        assert!(partitioned.stats.btu.misses <= flushed.stats.btu.misses);
        assert!(partitioned.stats.cycles <= flushed.stats.cycles);
    }

    #[test]
    fn single_context_rotation_counts_no_switches() {
        // `btu_switch_contexts: 1` rotates through one context: every
        // periodic "switch" re-activates the already-active context, which
        // must count nothing anywhere — the pipeline's `context_switches`
        // and the BTU's `partition_switches` agree at zero, and the run is
        // timing-identical to one with no rotation at all.
        let program = loop_program(64);
        let base = CpuConfig::golden_cove_like();
        let cfg = base
            .with_defense(defense("Cassandra-part"))
            .with_btu_flush_interval(50)
            .with_btu_switch_contexts(1);
        let outcome = simulate(&program, cfg, Some(btu_for(&program, &cfg))).unwrap();
        assert_eq!(outcome.stats.context_switches, 0);
        assert_eq!(outcome.stats.btu.partition_switches, 0);
        assert_eq!(outcome.stats.periodic_btu_flushes, 0);
        assert_eq!(outcome.stats.btu.flushes, 0);

        let quiet_cfg = base.with_defense(defense("Cassandra-part"));
        let quiet = simulate(&program, quiet_cfg, Some(btu_for(&program, &quiet_cfg))).unwrap();
        assert_eq!(outcome.stats.cycles, quiet.stats.cycles);
        assert_eq!(outcome.stats.btu.misses, quiet.stats.btu.misses);
    }

    #[test]
    fn baseline_mispredicts_at_least_the_loop_exit() {
        let program = loop_program(64);
        let outcome = simulate(&program, CpuConfig::golden_cove_like(), None).unwrap();
        assert!(outcome.stats.mispredictions >= 1);
        assert!(outcome.stats.bpu.pht_lookups > 0);
    }

    #[test]
    fn spt_is_slower_than_baseline_on_branchy_code() {
        let program = loop_program(128);
        let base = simulate(&program, CpuConfig::golden_cove_like(), None).unwrap();
        let spt = simulate(
            &program,
            CpuConfig::golden_cove_like().with_defense(defense("SPT")),
            None,
        )
        .unwrap();
        assert!(spt.stats.cycles >= base.stats.cycles);
        assert!(spt.stats.defense_delayed_instructions > 0);
        assert!(
            spt.transient_accesses.is_empty(),
            "SPT never executes wrong-path transmitters"
        );
    }

    #[test]
    fn cassandra_lite_stalls_multi_target_branches() {
        let program = loop_program(64);
        let lite = simulate_as(&program, "Cassandra-lite");
        let full = simulate_as(&program, "Cassandra");
        assert!(lite.stats.fetch_stalls > 0);
        assert!(lite.stats.cycles >= full.stats.cycles);
    }

    #[test]
    fn instruction_budget_is_respected() {
        let mut b = ProgramBuilder::new("spin");
        b.label("l");
        b.j("l");
        let program = b.build().unwrap();
        let mut cfg = CpuConfig::golden_cove_like();
        cfg.max_instructions = 1000;
        let outcome = simulate(&program, cfg, None).unwrap();
        assert!(!outcome.halted);
        assert_eq!(outcome.stats.committed_instructions, 1000);
    }
}
