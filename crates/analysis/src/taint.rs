//! The forward secret-taint dataflow: abstract domain, transfer function
//! and the architectural fixpoint.
//!
//! The analysis runs a classic worklist iteration over the [`Cfg`], joining
//! abstract states at merge points until nothing changes. The domain tracks,
//! per register, a taint bit plus a small value lattice
//! (`Const ⊑ Region ⊑ Unknown`) — the constant layer folds immediates
//! through [`AluOp::apply`](cassandra_isa::instr::AluOp::apply) so
//! statically-dead branch edges (a gadget's
//! never-taken `beq` on constants) are pruned from the architectural pass,
//! and the region layer keeps pointer-plus-counter address arithmetic
//! precise enough to certify real constant-time kernels.
//!
//! Memory is abstracted at data-region granularity: one taint bit per
//! builder-allocated [`DataRegion`](cassandra_isa::program::DataRegion)
//! (plus a synthetic stack region below
//! [`STACK_TOP`]), seeded from the
//! program's ProSpeCT-style `secret_ranges`, with a global bit for tainted
//! stores through unresolvable pointers. Loads through pointers the
//! analysis cannot attribute to any region conservatively return taint
//! whenever the program holds any secret at all. The one deliberate
//! unsoundness is the standard object-bounds assumption: pointer arithmetic
//! is assumed to stay inside its region (a `Region`-valued pointer never
//! silently walks into a neighbouring secret region).
//!
//! Leak events follow the constant-time contract: a **secret-tainted branch
//! condition** (or indirect-jump target) and a **secret-tainted load/store
//! address** are the only sinks; tainted *values* may flow freely through
//! registers and memory.

use crate::cfg::Cfg;
use crate::report::FindingKind;
use cassandra_isa::instr::Instr;
use cassandra_isa::program::{Program, STACK_TOP};
use cassandra_isa::reg::{Reg, NUM_REGS, SP};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Bytes of stack modelled below `STACK_TOP` as the synthetic stack region.
const STACK_SPAN: u64 = 1 << 16;

/// The value half of the abstract domain: a known constant, a pointer into
/// a *set* of tracked memory regions, or anything.
///
/// The region set is a bitmask over [`MemoryMap`] indices (bit `i` =
/// region `i`), which keeps joins cheap and — crucially — keeps functions
/// called with different buffer pointers precise: the merged argument is
/// "one of these regions" rather than `Unknown`, so a tainted store
/// through it taints those regions only instead of poisoning all memory.
/// Programs with more than 64 data regions degrade gracefully to
/// `Unknown` (see [`MemoryMap::region_mask`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsValue {
    /// Exactly this 64-bit value.
    Const(u64),
    /// Some address inside one of the regions in this non-empty bitmask.
    Regions(u64),
    /// No information.
    Unknown,
}

/// One abstract register: taint bit × abstract value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsReg {
    /// Whether the value may depend on a secret.
    pub tainted: bool,
    /// What is known about the value itself.
    pub value: AbsValue,
}

impl AbsReg {
    const fn untainted(value: AbsValue) -> AbsReg {
        AbsReg {
            tainted: false,
            value,
        }
    }
}

/// The region table: address ranges of every builder-allocated data region
/// plus the synthetic stack region (always the last entry).
#[derive(Debug, Clone)]
pub struct MemoryMap {
    ranges: Vec<(u64, u64)>,
    secret_any: bool,
}

impl MemoryMap {
    /// Builds the region table of `program` and the initial per-region
    /// taint (true where the region overlaps a declared secret range).
    pub fn build(program: &Program) -> (MemoryMap, Vec<bool>) {
        let mut ranges: Vec<(u64, u64)> = program
            .data
            .iter()
            .map(|r| (r.addr, r.addr + r.bytes.len() as u64))
            .collect();
        ranges.push((STACK_TOP - STACK_SPAN, STACK_TOP));
        let initial: Vec<bool> = ranges
            .iter()
            .map(|&(start, end)| {
                program
                    .secret_ranges
                    .iter()
                    .any(|s| s.start < end && start < s.end)
            })
            .collect();
        let map = MemoryMap {
            ranges,
            secret_any: !program.secret_ranges.is_empty(),
        };
        (map, initial)
    }

    /// Index of the region containing `addr`, if any.
    pub fn region_of(&self, addr: u64) -> Option<usize> {
        self.ranges
            .iter()
            .position(|&(start, end)| (start..end).contains(&addr))
    }

    /// Bitmask of the region containing `addr` — `None` when the address
    /// is outside every region or the region index exceeds the 64-bit
    /// mask (the graceful-degradation path for huge programs).
    pub fn region_mask(&self, addr: u64) -> Option<u64> {
        let i = self.region_of(addr)?;
        (i < 64).then(|| 1u64 << i)
    }

    /// Bitmask of region index `i`, if representable.
    pub fn mask_of(&self, i: usize) -> Option<u64> {
        (i < 64 && i < self.ranges.len()).then(|| 1u64 << i)
    }

    /// Index of the synthetic stack region.
    pub fn stack_region(&self) -> usize {
        self.ranges.len() - 1
    }

    /// True if the program declares any secret range at all.
    pub fn has_secrets(&self) -> bool {
        self.secret_any
    }
}

/// One abstract machine state: registers plus the region-granular memory
/// taint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    regs: [AbsReg; NUM_REGS],
    region_tainted: Vec<bool>,
    /// A tainted value was stored through a pointer the analysis could not
    /// attribute to any region — from here on every load may be tainted.
    unknown_tainted: bool,
}

impl State {
    /// The program entry state: registers zero, `sp` pointing into the
    /// stack region, memory taint seeded from the secret ranges.
    pub fn entry(map: &MemoryMap, initial_taint: &[bool]) -> State {
        let mut regs = [AbsReg::untainted(AbsValue::Const(0)); NUM_REGS];
        regs[SP.index()] = AbsReg::untainted(stack_value(map));
        State {
            regs,
            region_tainted: initial_taint.to_vec(),
            unknown_tainted: false,
        }
    }

    /// The abstract value of `r` (`r0` is pinned to constant zero).
    pub fn reg(&self, r: Reg) -> AbsReg {
        if r.is_zero() {
            AbsReg::untainted(AbsValue::Const(0))
        } else {
            self.regs[r.index()]
        }
    }

    fn set_reg(&mut self, r: Reg, v: AbsReg) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Joins `other` into `self`; true if anything changed.
    pub(crate) fn join_from(&mut self, other: &State, map: &MemoryMap) -> bool {
        let mut changed = false;
        for (mine, theirs) in self.regs.iter_mut().zip(other.regs.iter()) {
            let joined = AbsReg {
                tainted: mine.tainted || theirs.tainted,
                value: join_value(mine.value, theirs.value, map),
            };
            if joined != *mine {
                *mine = joined;
                changed = true;
            }
        }
        for (mine, theirs) in self
            .region_tainted
            .iter_mut()
            .zip(other.region_tainted.iter())
        {
            if *theirs && !*mine {
                *mine = true;
                changed = true;
            }
        }
        if other.unknown_tainted && !self.unknown_tainted {
            self.unknown_tainted = true;
            changed = true;
        }
        changed
    }

    /// Taint of a load through the abstract address `addr`.
    fn load_taint(&self, addr: AbsValue, map: &MemoryMap, program: &Program) -> bool {
        if self.unknown_tainted {
            return true;
        }
        match addr {
            AbsValue::Const(a) => {
                program.is_secret_addr(a)
                    || map.region_of(a).is_some_and(|i| self.region_tainted[i])
            }
            AbsValue::Regions(mask) => self.any_region_tainted(mask),
            // A wild load may read anything: tainted as soon as any region
            // is (secret seeding included) or the program has secrets the
            // regions do not cover.
            AbsValue::Unknown => map.has_secrets() || self.region_tainted.iter().any(|&t| t),
        }
    }

    /// Records a store of a value with taint `tainted` through `addr`.
    fn store(&mut self, addr: AbsValue, tainted: bool, map: &MemoryMap) {
        if !tainted {
            return;
        }
        match addr {
            AbsValue::Const(a) => match map.region_of(a) {
                Some(i) => self.region_tainted[i] = true,
                None => self.unknown_tainted = true,
            },
            AbsValue::Regions(mask) => {
                for (i, t) in self.region_tainted.iter_mut().enumerate() {
                    if i < 64 && mask & (1 << i) != 0 {
                        *t = true;
                    }
                }
            }
            AbsValue::Unknown => self.unknown_tainted = true,
        }
    }

    /// True if any region in `mask` is currently tainted.
    fn any_region_tainted(&self, mask: u64) -> bool {
        self.region_tainted
            .iter()
            .enumerate()
            .any(|(i, &t)| t && i < 64 && mask & (1 << i) != 0)
    }
}

/// The abstract `sp` value: a pointer into the synthetic stack region
/// (or `Unknown` if the region table overflows the 64-bit mask).
fn stack_value(map: &MemoryMap) -> AbsValue {
    map.mask_of(map.stack_region())
        .map_or(AbsValue::Unknown, AbsValue::Regions)
}

/// The value-lattice join (`Const ⊑ Regions ⊑ Unknown`): equal constants
/// stay constant, region-resident addresses generalise to the union of
/// their region sets, anything else loses to `Unknown`.
fn join_value(a: AbsValue, b: AbsValue, map: &MemoryMap) -> AbsValue {
    use AbsValue::*;
    match (a, b) {
        (Const(x), Const(y)) if x == y => Const(x),
        (Const(x), Const(y)) => match (map.region_mask(x), map.region_mask(y)) {
            (Some(i), Some(j)) => Regions(i | j),
            _ => Unknown,
        },
        (Regions(i), Regions(j)) => Regions(i | j),
        (Const(x), Regions(j)) | (Regions(j), Const(x)) => match map.region_mask(x) {
            Some(i) => Regions(i | j),
            None => Unknown,
        },
        _ => Unknown,
    }
}

/// ALU combine: fold constants through [`AluOp::apply`], keep add/sub
/// pointer arithmetic inside its region set, give up otherwise.
///
/// A `Const` operand that happens to live inside a tracked region is
/// treated as a pointer when combined with a non-constant offset
/// (`table_base + computed_index` must stay a pointer into the table, or
/// every computed-offset access in a called function degrades to
/// `Unknown` and a single tainted store poisons all of memory).
fn combine(op: cassandra_isa::instr::AluOp, a: AbsReg, b: AbsReg, map: &MemoryMap) -> AbsReg {
    use cassandra_isa::instr::AluOp;
    use AbsValue::*;
    let additive = matches!(op, AluOp::Add | AluOp::Sub);
    let value = match (a.value, b.value) {
        (Const(x), Const(y)) => Const(op.apply(x, y)),
        // Pointer ± offset stays in the object (the documented bounds
        // assumption); only the left operand may be the pointer for `sub`,
        // and pointer + pointer is meaningless, so `Unknown`.
        (Regions(_), Regions(_)) => Unknown,
        (Regions(i), _) if additive => Regions(i),
        (_, Regions(i)) if op == AluOp::Add => Regions(i),
        (Const(x), _) if additive && map.region_mask(x).is_some() => {
            Regions(map.region_mask(x).expect("checked"))
        }
        (_, Const(y)) if op == AluOp::Add && map.region_mask(y).is_some() => {
            Regions(map.region_mask(y).expect("checked"))
        }
        _ => Unknown,
    };
    AbsReg {
        tainted: a.tainted || b.tainted,
        value,
    }
}

/// The abstract address of a `base + offset` access.
fn address(base: AbsValue, offset: i64) -> AbsValue {
    match base {
        AbsValue::Const(a) => AbsValue::Const(a.wrapping_add(offset as u64)),
        other => other,
    }
}

/// Which successor edges of a conditional branch the abstract state admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feasibility {
    /// The condition is not statically decided: both edges live.
    Both,
    /// Constant operands prove the branch taken: only the target edge.
    TakenOnly,
    /// Constant operands prove the branch not taken: only fall-through.
    FallOnly,
}

/// Control successor of one abstract step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Fall through to `pc + 1`.
    Fall,
    /// `halt` — no successor.
    Halted,
    /// Conditional branch with its target and edge feasibility.
    CondBranch {
        /// Taken-edge target.
        target: usize,
        /// Which edges the in-state admits.
        feasible: Feasibility,
    },
    /// Direct jump: the single target.
    Jump(usize),
    /// Direct call: the function entry.
    Call(usize),
    /// Indirect jump: the constant target when the register value is
    /// known, otherwise the full indirect-target set applies.
    Indirect(Option<usize>),
    /// Indirect call, same target resolution as [`Next::Indirect`].
    IndirectCall(Option<usize>),
    /// Return: the matching return sites (see [`Cfg::ret_targets`]).
    Ret,
}

/// A leak event observed while stepping the abstract machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// Instruction index of the sink.
    pub pc: usize,
    /// Which kind of sink fired.
    pub kind: FindingKind,
}

/// The shared abstract transfer function. `transient` switches to
/// wrong-path semantics: a transient `declassify` does **not** clear taint
/// (ProSpeCT semantics — declassification is an architectural commitment,
/// so a mispredicted window still handles the secret).
pub struct Transfer<'a> {
    program: &'a Program,
    map: &'a MemoryMap,
    transient: bool,
}

impl<'a> Transfer<'a> {
    /// A transfer function with architectural (`transient = false`) or
    /// wrong-path (`transient = true`) semantics.
    pub fn new(program: &'a Program, map: &'a MemoryMap, transient: bool) -> Transfer<'a> {
        Transfer {
            program,
            map,
            transient,
        }
    }

    /// The region table this transfer function resolves addresses with.
    pub fn memory_map(&self) -> &'a MemoryMap {
        self.map
    }

    /// Steps `state` over the instruction at `pc`, appending leak events
    /// and returning the control successor.
    pub fn apply(&self, pc: usize, state: &mut State, events: &mut Vec<Event>) -> Next {
        let Some(instr) = self.program.instr(pc) else {
            return Next::Halted;
        };
        match *instr {
            Instr::Alu { op, rd, rs1, rs2 } => {
                let v = combine(op, state.reg(rs1), state.reg(rs2), self.map);
                state.set_reg(rd, v);
                Next::Fall
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let v = combine(
                    op,
                    state.reg(rs1),
                    AbsReg::untainted(AbsValue::Const(imm as u64)),
                    self.map,
                );
                state.set_reg(rd, v);
                Next::Fall
            }
            Instr::LoadImm { rd, imm } => {
                state.set_reg(rd, AbsReg::untainted(AbsValue::Const(imm)));
                Next::Fall
            }
            Instr::Declassify { rd, rs1 } => {
                let src = state.reg(rs1);
                state.set_reg(
                    rd,
                    AbsReg {
                        tainted: self.transient && src.tainted,
                        value: src.value,
                    },
                );
                Next::Fall
            }
            Instr::Load {
                rd, base, offset, ..
            } => {
                let b = state.reg(base);
                if b.tainted {
                    events.push(Event {
                        pc,
                        kind: FindingKind::LoadAddress,
                    });
                }
                let addr = address(b.value, offset);
                let tainted = state.load_taint(addr, self.map, self.program);
                state.set_reg(
                    rd,
                    AbsReg {
                        tainted,
                        value: AbsValue::Unknown,
                    },
                );
                Next::Fall
            }
            Instr::Store {
                src, base, offset, ..
            } => {
                let b = state.reg(base);
                if b.tainted {
                    events.push(Event {
                        pc,
                        kind: FindingKind::StoreAddress,
                    });
                }
                let addr = address(b.value, offset);
                let tainted = state.reg(src).tainted;
                state.store(addr, tainted, self.map);
                Next::Fall
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let a = state.reg(rs1);
                let b = state.reg(rs2);
                if a.tainted || b.tainted {
                    events.push(Event {
                        pc,
                        kind: FindingKind::BranchCondition,
                    });
                }
                let feasible = match (a.value, b.value) {
                    (AbsValue::Const(x), AbsValue::Const(y)) => {
                        if cond.eval(x, y) {
                            Feasibility::TakenOnly
                        } else {
                            Feasibility::FallOnly
                        }
                    }
                    _ => Feasibility::Both,
                };
                Next::CondBranch { target, feasible }
            }
            Instr::Jump { target } => Next::Jump(target),
            Instr::Call { target } => {
                // The call pushes an untainted return address; `sp` keeps
                // pointing into the stack region.
                state.set_reg(SP, AbsReg::untainted(stack_value(self.map)));
                Next::Call(target)
            }
            Instr::JumpIndirect { rs1 } | Instr::CallIndirect { rs1 } => {
                let v = state.reg(rs1);
                if v.tainted {
                    events.push(Event {
                        pc,
                        kind: FindingKind::BranchCondition,
                    });
                }
                let is_call = matches!(instr, Instr::CallIndirect { .. });
                if is_call {
                    state.set_reg(SP, AbsReg::untainted(stack_value(self.map)));
                }
                let target = match v.value {
                    AbsValue::Const(t) if (t as usize) < self.program.len() => Some(t as usize),
                    _ => None,
                };
                if is_call {
                    Next::IndirectCall(target)
                } else {
                    Next::Indirect(target)
                }
            }
            Instr::Ret => {
                state.set_reg(SP, AbsReg::untainted(stack_value(self.map)));
                Next::Ret
            }
            Instr::Nop => Next::Fall,
            Instr::Halt => Next::Halted,
        }
    }

    /// Expands a [`Next`] into concrete successor indices, honouring
    /// constant-pruned branch edges.
    pub fn successors(&self, pc: usize, next: Next, cfg: &Cfg, out: &mut Vec<usize>) {
        out.clear();
        let n = self.program.len();
        match next {
            Next::Fall => {
                if pc + 1 < n {
                    out.push(pc + 1);
                }
            }
            Next::Halted => {}
            Next::CondBranch { target, feasible } => {
                if feasible != Feasibility::TakenOnly && pc + 1 < n {
                    out.push(pc + 1);
                }
                if feasible != Feasibility::FallOnly && target < n {
                    out.push(target);
                }
            }
            Next::Jump(t) | Next::Call(t) => {
                if t < n {
                    out.push(t);
                }
            }
            Next::Indirect(Some(t)) | Next::IndirectCall(Some(t)) => {
                if t < n {
                    out.push(t);
                }
            }
            Next::Indirect(None) | Next::IndirectCall(None) => {
                out.extend_from_slice(cfg.indirect_targets())
            }
            Next::Ret => out.extend_from_slice(cfg.ret_targets(pc)),
        }
    }
}

/// The result of the architectural fixpoint.
#[derive(Debug, Clone)]
pub struct ArchAnalysis {
    /// Per-instruction in-state (`None` where unreachable).
    pub in_states: Vec<Option<State>>,
    /// Deduplicated architectural leak events.
    pub events: BTreeSet<Event>,
    /// Per reachable conditional branch: whether its condition is tainted.
    pub branch_taint: BTreeMap<usize, bool>,
}

impl ArchAnalysis {
    /// True if the branch at `pc` was reached with an untainted condition
    /// only (unreachable branches count as untainted).
    pub fn branch_is_untainted(&self, pc: usize) -> bool {
        !self.branch_taint.get(&pc).copied().unwrap_or(false)
    }
}

/// Runs the architectural taint dataflow to a fixpoint.
pub fn arch_fixpoint(program: &Program, map: &MemoryMap, cfg: &Cfg) -> ArchAnalysis {
    let n = program.len();
    let (_, initial_taint) = MemoryMap::build(program);
    let transfer = Transfer::new(program, map, false);
    let interproc = Interproc::build(program, cfg);
    let mut in_states: Vec<Option<State>> = vec![None; n];
    let mut events: BTreeSet<Event> = BTreeSet::new();
    let mut branch_taint: BTreeMap<usize, bool> = BTreeMap::new();
    let mut worklist: VecDeque<usize> = VecDeque::new();
    let mut queued = vec![false; n];

    if n == 0 {
        return ArchAnalysis {
            in_states,
            events,
            branch_taint,
        };
    }
    in_states[0] = Some(State::entry(map, &initial_taint));
    worklist.push_back(0);
    queued[0] = true;

    let mut step_events = Vec::new();
    let mut succ_buf = Vec::new();
    while let Some(pc) = worklist.pop_front() {
        queued[pc] = false;
        let Some(in_state) = in_states[pc].clone() else {
            continue;
        };
        let mut state = in_state;
        step_events.clear();
        let next = transfer.apply(pc, &mut state, &mut step_events);
        events.extend(step_events.iter().copied());
        if let Some(Instr::Branch { rs1, rs2, .. }) = program.instr(pc) {
            let tainted = state.reg(*rs1).tainted || state.reg(*rs2).tainted;
            let entry = branch_taint.entry(pc).or_insert(false);
            *entry = *entry || tainted;
        }

        let enqueue = |succ: usize,
                       incoming: &State,
                       in_states: &mut Vec<Option<State>>,
                       worklist: &mut VecDeque<usize>,
                       queued: &mut Vec<bool>| {
            let changed = match &mut in_states[succ] {
                Some(existing) => existing.join_from(incoming, map),
                slot @ None => {
                    *slot = Some(incoming.clone());
                    true
                }
            };
            if changed && !queued[succ] {
                worklist.push_back(succ);
                queued[succ] = true;
            }
        };

        // Return edges are interprocedural: registers the callee (and its
        // transitive callees) never write bypass the function body and
        // flow from the matching call site instead; memory taint flows
        // through the callee. Everything else uses plain CFG successors.
        if matches!(next, Next::Ret) {
            if let Some(edges) = interproc.ret_edges.get(&pc) {
                for &(site, writeset) in edges {
                    let Some(call_in) = in_states[site - 1].as_ref() else {
                        continue; // the matching call is (so far) unreachable
                    };
                    let merged = bypass_merge(call_in, &state, writeset, map);
                    enqueue(site, &merged, &mut in_states, &mut worklist, &mut queued);
                }
            } else {
                // No known caller reaches this ret: conservative fallback
                // to every return site with the full state.
                transfer.successors(pc, next, cfg, &mut succ_buf);
                for &succ in &succ_buf {
                    enqueue(succ, &state, &mut in_states, &mut worklist, &mut queued);
                }
            }
        } else {
            transfer.successors(pc, next, cfg, &mut succ_buf);
            for &succ in &succ_buf {
                enqueue(succ, &state, &mut in_states, &mut worklist, &mut queued);
            }
            // A call site's state feeds its own return site through the
            // bypass merge, so when it changes the callee's rets must be
            // reconsidered even if the callee itself has stabilised.
            if matches!(next, Next::Call(_) | Next::IndirectCall(_)) {
                if let Some(rets) = interproc.call_rets.get(&pc) {
                    for &ret_pc in rets {
                        if in_states[ret_pc].is_some() && !queued[ret_pc] {
                            worklist.push_back(ret_pc);
                            queued[ret_pc] = true;
                        }
                    }
                }
            }
        }
    }

    ArchAnalysis {
        in_states,
        events,
        branch_taint,
    }
}

/// The return-site state of a call with callee write-set `writeset`:
/// written registers come from the callee's `ret` state, everything else
/// from the caller's state at the call (with `sp` restored to the stack
/// pointer the call discipline guarantees); memory taint flows through
/// the callee.
pub(crate) fn bypass_merge(
    call_in: &State,
    ret_out: &State,
    writeset: u32,
    map: &MemoryMap,
) -> State {
    let mut merged = ret_out.clone();
    for i in 0..NUM_REGS {
        if writeset & (1 << i) == 0 {
            merged.regs[i] = call_in.regs[i];
        }
    }
    merged.regs[SP.index()] = AbsReg::untainted(stack_value(map));
    merged
}

/// Interprocedural structure: which return sites each `ret` serves, and
/// which registers each function (transitively) writes.
pub(crate) struct Interproc {
    /// `ret` pc → (return site, callee register write-set) pairs.
    pub(crate) ret_edges: BTreeMap<usize, Vec<(usize, u32)>>,
    /// Call pc → `ret` pcs of the called function(s).
    pub(crate) call_rets: BTreeMap<usize, Vec<usize>>,
}

impl Interproc {
    pub(crate) fn build(program: &Program, cfg: &Cfg) -> Interproc {
        let n = program.len();
        let indirect = cfg.indirect_targets();

        // Call sites per entry (direct targets; an indirect call may enter
        // any label).
        let mut sites: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut call_targets: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (pc, instr) in program.instrs.iter().enumerate() {
            let targets: Vec<usize> = match instr {
                Instr::Call { target } if *target < n => vec![*target],
                Instr::CallIndirect { .. } => indirect.to_vec(),
                _ => continue,
            };
            for &t in &targets {
                if pc + 1 < n {
                    sites.entry(t).or_default().push(pc + 1);
                }
            }
            call_targets.insert(pc, targets);
        }

        // Per entry: intraprocedurally reachable pcs, direct register
        // writes, contained rets and nested call targets.
        struct Func {
            rets: Vec<usize>,
            writes: u32,
            nested: Vec<usize>,
        }
        let mut funcs: BTreeMap<usize, Func> = BTreeMap::new();
        for &entry in sites.keys() {
            let mut seen = vec![false; n];
            let mut stack = vec![entry];
            seen[entry] = true;
            let mut f = Func {
                rets: Vec::new(),
                writes: 0,
                nested: Vec::new(),
            };
            while let Some(pc) = stack.pop() {
                let instr = &program.instrs[pc];
                if let Some(rd) = instr.dest() {
                    f.writes |= 1 << rd.index();
                }
                let nexts: Vec<usize> = match instr {
                    Instr::Branch { target, .. } => vec![pc + 1, *target],
                    Instr::Jump { target } => vec![*target],
                    Instr::Call { .. } | Instr::CallIndirect { .. } => {
                        f.nested.extend(call_targets[&pc].iter().copied());
                        vec![pc + 1]
                    }
                    Instr::JumpIndirect { .. } => indirect.to_vec(),
                    Instr::Ret => {
                        f.rets.push(pc);
                        Vec::new()
                    }
                    Instr::Halt => Vec::new(),
                    _ => vec![pc + 1],
                };
                for t in nexts {
                    if t < n && !seen[t] {
                        seen[t] = true;
                        stack.push(t);
                    }
                }
            }
            funcs.insert(entry, f);
        }

        // Transitive write-sets over the call graph.
        let mut writesets: BTreeMap<usize, u32> =
            funcs.iter().map(|(&e, f)| (e, f.writes)).collect();
        loop {
            let mut changed = false;
            for (&entry, f) in &funcs {
                let mut w = writesets[&entry];
                for t in &f.nested {
                    w |= writesets.get(t).copied().unwrap_or(u32::MAX);
                }
                if w != writesets[&entry] {
                    writesets.insert(entry, w);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let mut ret_edges: BTreeMap<usize, Vec<(usize, u32)>> = BTreeMap::new();
        for (&entry, f) in &funcs {
            for &ret_pc in &f.rets {
                let edges = ret_edges.entry(ret_pc).or_default();
                for &site in &sites[&entry] {
                    edges.push((site, writesets[&entry]));
                }
            }
        }
        for edges in ret_edges.values_mut() {
            edges.sort_unstable();
            edges.dedup();
        }

        let call_rets: BTreeMap<usize, Vec<usize>> = call_targets
            .iter()
            .map(|(&pc, targets)| {
                let mut rets: Vec<usize> = targets
                    .iter()
                    .filter_map(|t| funcs.get(t))
                    .flat_map(|f| f.rets.iter().copied())
                    .collect();
                rets.sort_unstable();
                rets.dedup();
                (pc, rets)
            })
            .collect();

        Interproc {
            ret_edges,
            call_rets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cassandra_isa::builder::ProgramBuilder;
    use cassandra_isa::reg::{A0, A1, A2, T0, ZERO};

    fn analyze(program: &Program) -> ArchAnalysis {
        let cfg = Cfg::build(program);
        let (map, _) = MemoryMap::build(program);
        arch_fixpoint(program, &map, &cfg)
    }

    #[test]
    fn secret_branch_condition_is_flagged() {
        let mut b = ProgramBuilder::new("leaky-branch");
        let s = b.alloc_secret_u64s("key", &[42]);
        b.li(T0, s);
        b.ld(A0, T0, 0);
        let branch_pc = b.here();
        b.beq(A0, ZERO, "end");
        b.nop();
        b.label("end");
        b.halt();
        let p = b.build().unwrap();
        let a = analyze(&p);
        assert!(a.events.contains(&Event {
            pc: branch_pc,
            kind: FindingKind::BranchCondition
        }));
        assert!(!a.branch_is_untainted(branch_pc));
    }

    #[test]
    fn secret_indexed_load_is_flagged() {
        let mut b = ProgramBuilder::new("leaky-load");
        let s = b.alloc_secret_u64s("key", &[3]);
        let table = b.alloc_bytes("table", &[0; 64]);
        b.li(T0, s);
        b.ld(A0, T0, 0); // A0 = secret
        b.li(A1, table);
        b.add(A1, A1, A0); // secret-indexed pointer
        let load_pc = b.here();
        b.lb(A2, A1, 0);
        b.halt();
        let p = b.build().unwrap();
        let a = analyze(&p);
        assert!(a.events.contains(&Event {
            pc: load_pc,
            kind: FindingKind::LoadAddress
        }));
    }

    #[test]
    fn public_table_lookup_with_counter_index_is_clean() {
        let mut b = ProgramBuilder::new("ct-lookup");
        let _s = b.alloc_secret_u64s("key", &[9]);
        let table = b.alloc_bytes("table", &[1; 16]);
        b.li(A1, table);
        b.li(A2, 16);
        b.label("loop");
        b.lb(A0, A1, 0);
        b.addi(A1, A1, 1); // pointer joins to Region(table)
        b.addi(A2, A2, -1);
        b.bne(A2, ZERO, "loop");
        b.halt();
        let p = b.build().unwrap();
        let a = analyze(&p);
        assert!(a.events.is_empty(), "{:?}", a.events);
    }

    #[test]
    fn constant_branch_prunes_the_dead_edge() {
        let mut b = ProgramBuilder::new("dead-edge");
        let s = b.alloc_secret_u64s("key", &[1]);
        b.li(T0, 1);
        b.beq(T0, ZERO, "dead"); // provably not taken
        b.halt();
        b.label("dead");
        // Architecturally unreachable secret-dependent load.
        b.li(T0, s);
        b.ld(A0, T0, 0);
        b.li(A1, 0);
        b.add(A1, A1, A0);
        b.ld(A2, A1, 0);
        b.halt();
        let p = b.build().unwrap();
        let a = analyze(&p);
        assert!(a.events.is_empty(), "{:?}", a.events);
        // The dead block has no in-state.
        assert!(a.in_states[p.label("dead").unwrap()].is_none());
    }

    #[test]
    fn declassified_value_is_untainted_architecturally() {
        let mut b = ProgramBuilder::new("declass");
        let s = b.alloc_secret_u64s("key", &[7]);
        b.li(T0, s);
        b.ld(A0, T0, 0);
        b.declassify(A0, A0);
        b.beq(A0, ZERO, "end"); // branching on declassified data is fine
        b.label("end");
        b.halt();
        let p = b.build().unwrap();
        let a = analyze(&p);
        assert!(a.events.is_empty(), "{:?}", a.events);
    }

    #[test]
    fn tainted_store_taints_the_target_region_only() {
        let mut b = ProgramBuilder::new("store-taint");
        let s = b.alloc_secret_u64s("key", &[7]);
        let out = b.alloc_zeros("out", 8);
        let clean = b.alloc_u64s("clean", &[5]);
        b.li(T0, s);
        b.ld(A0, T0, 0); // tainted
        b.li(T0, out);
        b.sd(A0, T0, 0); // out region now tainted
        b.li(T0, out);
        b.ld(A1, T0, 0); // tainted load back
        b.beq(A1, ZERO, "x"); // flagged
        b.label("x");
        b.li(T0, clean);
        b.ld(A2, T0, 0); // still clean
        b.beq(A2, ZERO, "end"); // not flagged
        b.label("end");
        b.halt();
        let p = b.build().unwrap();
        let a = analyze(&p);
        let flagged: Vec<usize> = a
            .events
            .iter()
            .filter(|e| e.kind == FindingKind::BranchCondition)
            .map(|e| e.pc)
            .collect();
        assert_eq!(flagged.len(), 1, "{:?}", a.events);
    }
}
