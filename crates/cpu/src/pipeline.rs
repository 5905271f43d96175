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

use crate::cache::CacheHierarchy;
use crate::config::CpuConfig;
use crate::frontend::{BranchEvent, FetchOutcome, Frontend};
use crate::policy::DefensePolicy;
use crate::stats::SimStats;
use crate::taint::TaintSet;
use cassandra_btu::unit::{BranchTraceUnit, ContextBtuStats};
use cassandra_isa::error::IsaError;
use cassandra_isa::instr::{BranchKind, Instr};
use cassandra_isa::memory::Memory;
use cassandra_isa::program::{Program, STACK_TOP};
use cassandra_isa::reg::{Reg, NUM_REGS, SP};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Maximum number of wrong-path instructions executed per misprediction.
const WRONG_PATH_CAP: u64 = 64;

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

#[derive(Debug, Clone, Copy)]
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
    regs: [u64; NUM_REGS + 1],
    reg_taint: [bool; NUM_REGS + 1],
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
        let mut regs = [0u64; NUM_REGS + 1];
        regs[SP.index()] = STACK_TOP;
        TenantCheckpoint {
            program,
            regs,
            reg_taint: [false; NUM_REGS + 1],
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
    // The register file carries one extra slot: writes to the architectural
    // zero register land in slot `NUM_REGS` (a write sink) instead of being
    // guarded by a data-dependent `is_zero` branch, so reads are plain
    // loads — slot 0 provably stays `0`/untainted. Operand registers vary
    // per instruction, which made the old read-side guard an unpredictable
    // host branch on the interpreter's hottest path.
    regs: [u64; NUM_REGS + 1],
    reg_taint: [bool; NUM_REGS + 1],
    mem: Memory,
    mem_taint: TaintSet,
    call_depth: u64,
    pc: usize,
    halted: bool,
    /// Reusable wrong-path store undo log; always empty between excursions.
    mem_undo: Vec<UndoEntry>,

    // Timing state.
    fetch_cycle: u64,
    fetch_slots_used: u64,
    /// `log2(l1i.line_bytes)` when that is a power of two — enables the
    /// same-line fetch short-circuit in [`Self::fetch_slot`].
    fetch_line_shift: Option<u32>,
    /// The L1I line of the most recent correct-path fetch. Mirrors the
    /// L1I's MRU line exactly (every instruction access flows through
    /// `fetch_slot`), so a fetch staying on this line is a guaranteed hit
    /// at base latency and skips the cache model entirely.
    cur_fetch_line: u64,
    /// Same-line fetch hits not yet folded into the L1I counters; drained
    /// once at the end of `run` via `CacheHierarchy::note_instr_hits`.
    pending_fetch_hits: u64,
    reg_ready: [u64; NUM_REGS],
    /// Commit cycles of the last `rob_entries` instructions, as a flat ring:
    /// `rob[rob_head]` is the slot of the instruction `rob_entries` back
    /// (zero while the window is still filling — a no-op under `max`), so
    /// the "stall dispatch until the oldest ROB entry retires" rule is one
    /// read and one write per instruction instead of `VecDeque` traffic.
    rob: Vec<u64>,
    rob_head: usize,
    commit_cycle: u64,
    commits_in_cycle: u64,
    inflight_stores: VecDeque<InflightStore>,
    /// Counting filter over `inflight_stores` granules: bucket
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
    older_branches_resolved: u64,
    committed_since_flush: u64,
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
        let mut regs = [0u64; NUM_REGS + 1];
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
            frontend,
            policy,
            caches: CacheHierarchy::new(&config),
            stats: SimStats::default(),
            regs,
            reg_taint: [false; NUM_REGS + 1],
            mem,
            mem_taint: TaintSet::new(),
            call_depth: 0,
            pc: 0,
            halted: false,
            mem_undo: Vec::with_capacity(2 * WRONG_PATH_CAP as usize),
            fetch_cycle: 0,
            fetch_slots_used: 0,
            fetch_line_shift: (config.l1i.line_bytes as u64)
                .is_power_of_two()
                .then(|| (config.l1i.line_bytes as u64).trailing_zeros()),
            cur_fetch_line: u64::MAX,
            pending_fetch_hits: 0,
            reg_ready: [0; NUM_REGS],
            rob: vec![0; config.rob_entries.max(1)],
            rob_head: 0,
            commit_cycle: 0,
            commits_in_cycle: 0,
            inflight_stores: VecDeque::with_capacity(config.sq_entries + 1),
            store_filter: vec![0; Self::FILTER_BUCKETS],
            store_filter_bound: vec![0; Self::FILTER_BUCKETS],
            older_branches_resolved: 0,
            committed_since_flush: 0,
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
        while !self.halted && self.stats.committed_instructions < self.config.max_instructions {
            self.step_correct_path()?;
        }
        Ok(self.into_outcome())
    }

    /// Runs up to `budget` more committed instructions (or until the active
    /// program halts) and returns how many were committed. The multi-tenant
    /// simulator drives one quantum at a time through this.
    pub(crate) fn run_bounded(&mut self, budget: u64) -> Result<u64, IsaError> {
        let start = self.stats.committed_instructions;
        while !self.halted && self.stats.committed_instructions - start < budget {
            self.step_correct_path()?;
        }
        Ok(self.stats.committed_instructions - start)
    }

    /// Folds the deferred counters into the statistics and consumes the
    /// simulator into its outcome.
    pub(crate) fn into_outcome(mut self) -> SimOutcome {
        self.stats.cycles = self.commit_cycle.max(self.fetch_cycle);
        self.caches.note_instr_hits(self.pending_fetch_hits);
        self.pending_fetch_hits = 0;
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
        self.commit_cycle.max(self.fetch_cycle)
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
        self.cur_fetch_line = u64::MAX;
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
        // Redirect zero-register writes to the sink slot `NUM_REGS`; the
        // index select compiles to a cmov instead of a data-dependent branch.
        let slot = if r.is_zero() { NUM_REGS } else { r.index() };
        self.regs[slot] = value;
        self.reg_taint[slot] = tainted;
    }

    #[inline(always)]
    fn taint_of(&self, r: Reg) -> bool {
        self.reg_taint[r.index()]
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
    fn fetch_slot(&mut self, pc: usize) -> u64 {
        let addr = self.salted(Program::byte_addr(pc));
        if let Some(shift) = self.fetch_line_shift {
            if addr >> shift == self.cur_fetch_line {
                // Same line as the previous fetch: a guaranteed L1I hit at
                // base latency (the line is the L1I's MRU line and repeated
                // MRU accesses change no replacement state), so only the
                // fetch-width bookkeeping and a deferred hit count remain.
                self.pending_fetch_hits += 1;
                if self.fetch_slots_used >= self.config.fetch_width {
                    self.fetch_cycle += 1;
                    self.fetch_slots_used = 0;
                }
                self.fetch_slots_used += 1;
                return self.fetch_cycle;
            }
            self.cur_fetch_line = addr >> shift;
        }
        let latency = self.caches.access_instr(addr);
        let extra = latency.saturating_sub(self.config.l1i.latency);
        if extra > 0 {
            self.fetch_cycle += extra;
            self.fetch_slots_used = 0;
        }
        if self.fetch_slots_used >= self.config.fetch_width {
            self.fetch_cycle += 1;
            self.fetch_slots_used = 0;
        }
        self.fetch_slots_used += 1;
        self.fetch_cycle
    }

    /// Redirects fetch to resume at `cycle` (stall or squash recovery).
    fn redirect_fetch(&mut self, cycle: u64) {
        if cycle > self.fetch_cycle {
            self.fetch_cycle = cycle;
            self.fetch_slots_used = 0;
        }
    }

    // ------------------------------------------------------------ main step

    /// Issue cycle of an instruction dispatched at `dispatch` whose operands
    /// are ready at `ready`, applying the defense policies that delay
    /// execution while speculative. `is_mem_or_branch` and `tainted_source`
    /// are the per-instruction predicates those policies test (the caller
    /// knows them statically per opcode, so no opcode re-dispatch happens
    /// here).
    #[inline(always)]
    fn issue_at(
        &mut self,
        dispatch: u64,
        ready: u64,
        is_mem_or_branch: bool,
        tainted_source: bool,
    ) -> u64 {
        let mut start = dispatch.max(ready);
        if self.policy.delay_transmitters
            && is_mem_or_branch
            && start < self.older_branches_resolved
        {
            start = self.older_branches_resolved;
            self.stats.defense_delayed_instructions += 1;
        }
        if self.policy.block_tainted && tainted_source && start < self.older_branches_resolved {
            start = self.older_branches_resolved;
            self.stats.defense_delayed_instructions += 1;
        }
        start
    }

    /// Fetches, functionally executes and times one correct-path instruction.
    ///
    /// The opcode is dispatched exactly once: every arm computes its own
    /// operand readiness, defense delay, latency and functional effect
    /// inline. The interpreter's cost is dominated by indirect-branch
    /// mispredictions on the host, so folding the former `sources()` /
    /// `is_mem()` / `base_latency()` pre-passes into the one `match` — they
    /// each re-dispatched on the opcode — is a measured win, not a style
    /// choice.
    fn step_correct_path(&mut self) -> Result<(), IsaError> {
        let pc = self.pc;
        let instr = *self.program.instr(pc).ok_or(IsaError::PcOutOfRange {
            pc,
            len: self.program.len(),
        })?;
        let fetch_cycle = self.fetch_slot(pc);

        // Dispatch is limited by the frontend depth and ROB occupancy: the
        // slot about to be overwritten holds the commit cycle of the
        // instruction `rob_entries` back (0 while the window fills).
        let dispatch = (fetch_cycle + self.config.frontend_depth).max(self.rob[self.rob_head]);
        let brl = self.config.branch_resolve_latency;

        let complete;
        let mut next_pc = pc + 1;
        let mut branch_outcome: Option<(BranchKind, bool, usize, Option<usize>)> = None;

        match instr {
            Instr::Alu { op, rd, rs1, rs2 } => {
                let ready = self.reg_ready[rs1.index()].max(self.reg_ready[rs2.index()]);
                let t = self.taint_of(rs1) || self.taint_of(rs2);
                let start = self.issue_at(dispatch, ready, false, t);
                complete = start + op.latency();
                let v = op.apply(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v, t);
                self.reg_ready[rd.index()] = complete;
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let ready = self.reg_ready[rs1.index()];
                let t = self.taint_of(rs1);
                let start = self.issue_at(dispatch, ready, false, t);
                complete = start + op.latency();
                let v = op.apply(self.reg(rs1), imm as u64);
                self.set_reg(rd, v, t);
                self.reg_ready[rd.index()] = complete;
            }
            Instr::LoadImm { rd, imm } => {
                let start = self.issue_at(dispatch, 0, false, false);
                complete = start + 1;
                self.set_reg(rd, imm, false);
                self.reg_ready[rd.index()] = complete;
            }
            Instr::Declassify { rd, rs1 } => {
                let ready = self.reg_ready[rs1.index()];
                let start = self.issue_at(dispatch, ready, false, self.taint_of(rs1));
                complete = start + 1;
                let v = self.reg(rs1);
                self.set_reg(rd, v, false);
                self.reg_ready[rd.index()] = complete;
            }
            Instr::Load {
                rd,
                base,
                offset,
                width,
            } => {
                let ready = self.reg_ready[base.index()];
                let start = self.issue_at(dispatch, ready, true, self.taint_of(base));
                let addr = self.reg(base).wrapping_add(offset as u64);
                let v = self.mem.read(addr, width);
                let tainted = self.program.is_secret_addr(addr)
                    || self.mem_taint.contains(Self::granule(addr));
                self.set_reg(rd, v, tainted);
                complete = self.time_load(start, addr);
                self.reg_ready[rd.index()] = complete;
                self.architectural_accesses.push(addr);
            }
            Instr::Store {
                src,
                base,
                offset,
                width,
            } => {
                let ready = self.reg_ready[src.index()].max(self.reg_ready[base.index()]);
                let t = self.taint_of(src) || self.taint_of(base);
                let start = self.issue_at(dispatch, ready, true, t);
                let addr = self.reg(base).wrapping_add(offset as u64);
                let v = self.reg(src);
                self.mem.write(addr, v, width);
                if self.taint_of(src) {
                    self.mem_taint.insert(Self::granule(addr));
                } else {
                    self.mem_taint.remove(Self::granule(addr));
                }
                complete = start + 1;
                self.record_store(addr, complete);
                let timing_addr = self.salted(addr);
                let _ = self.caches.access_data(timing_addr);
                self.architectural_accesses.push(addr);
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let ready = self.reg_ready[rs1.index()].max(self.reg_ready[rs2.index()]);
                let t = self.taint_of(rs1) || self.taint_of(rs2);
                let start = self.issue_at(dispatch, ready, true, t);
                complete = start + brl;
                let taken = cond.eval(self.reg(rs1), self.reg(rs2));
                next_pc = if taken { target } else { pc + 1 };
                branch_outcome = Some((BranchKind::CondDirect, taken, next_pc, Some(target)));
            }
            Instr::Jump { target } => {
                let start = self.issue_at(dispatch, 0, true, false);
                complete = start + brl;
                next_pc = target;
                branch_outcome = Some((BranchKind::UncondDirect, true, target, Some(target)));
            }
            Instr::JumpIndirect { rs1 } => {
                let ready = self.reg_ready[rs1.index()];
                let start = self.issue_at(dispatch, ready, true, self.taint_of(rs1));
                complete = start + brl;
                next_pc = self.reg(rs1) as usize;
                branch_outcome = Some((BranchKind::Indirect, true, next_pc, None));
            }
            Instr::Call { target } => {
                let ready = self.reg_ready[SP.index()];
                let start = self.issue_at(dispatch, ready, true, false);
                complete = start + brl;
                next_pc = target;
                let sp = self.reg(SP).wrapping_sub(8);
                self.set_reg(SP, sp, false);
                self.mem.write_u64(sp, (pc + 1) as u64);
                self.call_depth += 1;
                self.record_store(sp, complete);
                let timing_sp = self.salted(sp);
                let _ = self.caches.access_data(timing_sp);
                self.architectural_accesses.push(sp);
                self.reg_ready[SP.index()] = complete;
                branch_outcome = Some((BranchKind::Call, true, target, Some(target)));
            }
            Instr::CallIndirect { rs1 } => {
                let ready = self.reg_ready[rs1.index()].max(self.reg_ready[SP.index()]);
                let start = self.issue_at(dispatch, ready, true, self.taint_of(rs1));
                complete = start + brl;
                next_pc = self.reg(rs1) as usize;
                let sp = self.reg(SP).wrapping_sub(8);
                self.set_reg(SP, sp, false);
                self.mem.write_u64(sp, (pc + 1) as u64);
                self.call_depth += 1;
                self.record_store(sp, complete);
                let timing_sp = self.salted(sp);
                let _ = self.caches.access_data(timing_sp);
                self.architectural_accesses.push(sp);
                self.reg_ready[SP.index()] = complete;
                branch_outcome = Some((BranchKind::CallIndirect, true, next_pc, None));
            }
            Instr::Ret => {
                if self.call_depth == 0 {
                    return Err(IsaError::ReturnWithoutCall { pc });
                }
                let ready = self.reg_ready[SP.index()];
                let start = self.issue_at(dispatch, ready, true, false);
                self.call_depth -= 1;
                let sp = self.reg(SP);
                let ret = self.mem.read_u64(sp) as usize;
                self.set_reg(SP, sp.wrapping_add(8), false);
                complete = (start + brl).max(self.time_load(start, sp));
                self.reg_ready[SP.index()] = complete;
                self.architectural_accesses.push(sp);
                next_pc = ret;
                branch_outcome = Some((BranchKind::Return, true, ret, None));
            }
            Instr::Nop => {
                let start = self.issue_at(dispatch, 0, false, false);
                complete = start + 1;
            }
            Instr::Halt => {
                let start = self.issue_at(dispatch, 0, false, false);
                complete = start + 1;
                self.halted = true;
            }
        }

        // Branch handling: frontend redirection, prediction and penalties.
        if let Some((kind, taken, actual_target, direct_target)) = branch_outcome {
            // Only branches consult the crypto ranges; keep the range scan
            // off the straight-line path.
            let is_crypto = self.program.is_crypto_pc(pc);
            self.stats.committed_branches += 1;
            if is_crypto {
                self.stats.committed_crypto_branches += 1;
            }
            let event = BranchEvent {
                pc,
                kind,
                taken,
                actual_target,
                direct_target,
                fallthrough: pc + 1,
                is_crypto,
            };
            self.handle_branch_frontend(&event, fetch_cycle, complete);
        }

        // In-order commit with commit-width constraint. Written with
        // conditional moves rather than an if/else ladder: whether an
        // instruction advances the commit cycle alternates data-dependently,
        // which made this branch a steady source of host mispredictions.
        let proposed = complete + 1;
        let advanced = proposed > self.commit_cycle;
        let width_full = !advanced && self.commits_in_cycle >= self.config.commit_width;
        self.commit_cycle = if advanced {
            proposed
        } else {
            self.commit_cycle + u64::from(width_full)
        };
        self.commits_in_cycle = if advanced || width_full {
            1
        } else {
            self.commits_in_cycle + 1
        };
        self.rob[self.rob_head] = self.commit_cycle;
        self.rob_head += 1;
        if self.rob_head == self.rob.len() {
            self.rob_head = 0;
        }
        self.stats.committed_instructions += 1;

        // Periodic context-switch experiment (Q4): price each switch either
        // as a whole-unit flush (the paper's model) or as a BTU partition
        // reassignment rotating through `btu_switch_contexts` applications.
        if self.config.btu_flush_interval > 0 {
            self.committed_since_flush += 1;
            if self.committed_since_flush >= self.config.btu_flush_interval {
                self.committed_since_flush = 0;
                if self.config.btu_switch_contexts > 0 {
                    self.current_context =
                        (self.current_context + 1) % self.config.btu_switch_contexts;
                    if self.frontend.on_context_switch(self.current_context) {
                        self.stats.context_switches += 1;
                    }
                } else if self.frontend.flush() {
                    self.stats.periodic_btu_flushes += 1;
                }
            }
        }

        self.pc = next_pc;
        Ok(())
    }

    /// Store-to-load forwarding / memory timing for a load starting at
    /// `start` and accessing `addr`.
    fn time_load(&mut self, start: u64, addr: u64) -> u64 {
        let addr = self.salted(addr);
        let granule = Self::granule(addr);
        // Zero bucket ⇒ no queued store shares this granule; bound ≤ start
        // ⇒ no member can pass the scan's `commit_cycle > start` test. In
        // either case the scan below provably cannot match; otherwise it
        // falls through to the exact scan, so the filter never changes
        // which store (if any) forwards.
        let bucket = Self::filter_bucket(granule);
        let forwarding =
            if self.store_filter[bucket] == 0 || self.store_filter_bound[bucket] <= start {
                None
            } else {
                self.inflight_stores
                    .iter()
                    .rev()
                    .find(|s| s.granule == granule && s.commit_cycle > start)
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

    fn record_store(&mut self, addr: u64, data_ready: u64) {
        let addr = self.salted(addr);
        let commit_cycle = data_ready + self.config.frontend_depth;
        if self.inflight_stores.len() >= self.config.sq_entries {
            if let Some(evicted) = self.inflight_stores.pop_front() {
                self.store_filter[Self::filter_bucket(evicted.granule)] -= 1;
            }
        }
        let granule = Self::granule(addr);
        let bucket = Self::filter_bucket(granule);
        self.store_filter[bucket] += 1;
        self.store_filter_bound[bucket] = self.store_filter_bound[bucket].max(commit_cycle);
        self.inflight_stores.push_back(InflightStore {
            granule,
            data_ready,
            commit_cycle,
        });
    }

    /// Frontend behaviour at a branch: the [`Frontend`] decides (replay, prediction, integrity stall, fence); the pipeline
    /// only interprets the decision — redirects, wrong-path excursions and
    /// squash recovery. No defense-specific branching lives here.
    fn handle_branch_frontend(&mut self, event: &BranchEvent, fetch_cycle: u64, resolve: u64) {
        let decision = self.frontend.on_branch(event);
        let mut squash_after_commit = false;
        match decision.outcome {
            FetchOutcome::Proceed { extra_latency } => {
                if extra_latency > 0 {
                    self.redirect_fetch(fetch_cycle + extra_latency);
                }
            }
            FetchOutcome::Mispredict { wrong_target } => {
                // Misprediction: execute a bounded wrong path, then squash.
                self.stats.mispredictions += 1;
                let window = (resolve.saturating_sub(fetch_cycle) + 1) * self.config.fetch_width;
                let budget = window
                    .min(WRONG_PATH_CAP)
                    .min(self.config.rob_entries as u64);
                self.run_wrong_path(wrong_target, budget);
                self.redirect_fetch(resolve + self.config.mispredict_redirect_penalty);
                squash_after_commit = true;
            }
            FetchOutcome::Stall => {
                // No usable target: fetch waits for the branch to resolve.
                self.stats.fetch_stalls += 1;
                self.redirect_fetch(resolve + 1);
            }
        }
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
        if decision.opens_speculation_window {
            self.older_branches_resolved = self.older_branches_resolved.max(resolve);
        }
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
    /// Register state is checkpointed by value; memory writes are undone
    /// from the flat `mem_undo` log. `mem_taint` needs no checkpoint at all:
    /// wrong-path loads only *read* it and wrong-path stores deliberately
    /// skip the taint update (a squashed store must not change which
    /// granules the architectural path considers secret), so the taint
    /// delta of an excursion is empty by construction.
    fn run_wrong_path(&mut self, start_pc: usize, budget: u64) {
        let saved_regs = self.regs;
        let saved_taint = self.reg_taint;
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
                    .on_wrong_path_branch(pc, self.program.is_crypto_pc(pc));
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
        self.regs = saved_regs;
        self.reg_taint = saved_taint;
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
