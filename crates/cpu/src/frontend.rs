//! The pluggable branch-source layer.
//!
//! A [`BranchSource`] is the frontend's answer to "what happens when a
//! branch is fetched?". The pipeline core never looks at the configured
//! [`crate::config::DefenseMode`]; it resolves the mode's
//! [`crate::policy::DefensePolicy`] once at construction, builds the matching
//! source with [`build_source`], and from then on only interprets
//! [`FrontendDecision`]s. Adding a new frontend scenario means implementing
//! this trait (or describing a policy that maps onto an existing source) —
//! not editing the pipeline.
//!
//! Five sources ship with the model:
//!
//! * [`BpuSource`] — the speculative baseline: PHT/BTB/RSB predict every
//!   branch (UnsafeBaseline, SPT, ProSpeCT);
//! * [`BtuSource`] — full Cassandra: crypto branches are replayed from the
//!   Branch Trace Unit, non-crypto branches use the BPU behind the
//!   crypto-range integrity check (Cassandra, +STL, +ProSpeCT, -noTC, and
//!   the way-partitioned `Cassandra-part` deployment);
//! * [`LiteSource`] — Cassandra-lite: only single-target crypto hints are
//!   honoured, every other crypto branch stalls fetch until resolve;
//! * [`FenceSource`] — the serializing lower bound: every branch stalls
//!   fetch until it resolves, so nothing ever executes speculatively;
//! * [`TournamentSource`] — the hybrid tournament: per-PC confidence
//!   counters arbitrate each crypto branch between BTU replay (hot branches
//!   that earned a trace) and the speculative BPU (cold branches).

use crate::bpu::{BpuStats, BranchPredictionUnit};
use crate::config::CpuConfig;
use crate::policy::FrontendKind;
use cassandra_btu::unit::{BranchTraceUnit, BtuStats, ContextBtuStats, VictimPolicy};
use cassandra_isa::instr::BranchKind;
use cassandra_isa::program::Program;
use cassandra_trace::hints::BranchHint;
use std::fmt;

/// The per-tenant slice of a source's frontend state, checkpointed and
/// restored by the multi-tenant simulator on each context switch. The BPU
/// (PHT counters, global history, BTB, RSB) is per-tenant architectural
/// state; the BTU is deliberately *not* here — it is the shared, partitioned
/// unit the tenants contend over.
#[derive(Debug, Default)]
pub struct TenantFrontendState {
    /// The tenant's branch predictor, `None` until its first switch-out.
    pub bpu: Option<BranchPredictionUnit>,
}

/// The per-program facts a frontend source keeps after construction: the
/// crypto PC ranges (the integrity guard) and the text length (PC-indexed
/// table sizing). Owned — sources carry no borrow of the program, so the
/// multi-tenant simulator can retarget a source at the incoming tenant's
/// program on each context switch.
#[derive(Debug, Clone, Default)]
pub struct ProgramProfile {
    crypto_ranges: Vec<std::ops::Range<usize>>,
    len: usize,
}

impl ProgramProfile {
    /// Captures `program`'s crypto ranges and text length.
    pub fn of(program: &Program) -> Self {
        ProgramProfile {
            crypto_ranges: program.crypto_ranges.clone(),
            len: program.len(),
        }
    }

    /// Whether instruction index `pc` lies inside a crypto range.
    fn is_crypto_pc(&self, pc: usize) -> bool {
        self.crypto_ranges.iter().any(|r| r.contains(&pc))
    }
}

/// One branch reaching the frontend, together with its resolved outcome.
///
/// The pipeline model is functional-directed: the architectural outcome of
/// the branch is known when it is fetched, so sources receive prediction
/// inputs and resolution feedback in one event and train themselves
/// immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchEvent {
    /// PC of the branch instruction.
    pub pc: usize,
    /// Static kind of the branch.
    pub kind: BranchKind,
    /// Resolved direction (always true for unconditional branches).
    pub taken: bool,
    /// Resolved next PC.
    pub actual_target: usize,
    /// Decode-time target for direct branches.
    pub direct_target: Option<usize>,
    /// Fall-through PC (`pc + 1`).
    pub fallthrough: usize,
    /// True if the branch lives in a crypto PC range.
    pub is_crypto: bool,
}

/// What fetch does at this branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// Fetch was steered onto the correct path (predicted correctly or
    /// trace-replayed), paying `extra_latency` additional frontend cycles
    /// (e.g. Trace Cache miss streaming).
    Proceed {
        /// Extra frontend cycles before fetch resumes.
        extra_latency: u64,
    },
    /// Fetch was redirected to the wrong target: the pipeline executes a
    /// bounded wrong path from `wrong_target` and squashes at resolve.
    Mispredict {
        /// The wrongly predicted next PC.
        wrong_target: usize,
    },
    /// The frontend has no usable target: fetch stalls until the branch
    /// resolves.
    Stall,
}

/// A source's full decision for one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendDecision {
    /// What fetch does.
    pub outcome: FetchOutcome,
    /// Whether this branch keeps younger instructions speculative until it
    /// resolves. BTU-replayed crypto branches do not open a speculation
    /// window (§6.2: they are replayed, not predicted); every other branch
    /// does.
    pub opens_speculation_window: bool,
}

impl FrontendDecision {
    fn speculative(outcome: FetchOutcome) -> Self {
        FrontendDecision {
            outcome,
            opens_speculation_window: true,
        }
    }

    fn replayed(outcome: FetchOutcome) -> Self {
        FrontendDecision {
            outcome,
            opens_speculation_window: false,
        }
    }
}

/// The pluggable frontend: decides fetch behaviour at branches and tracks
/// the speculation state that must survive commits, squashes and flushes.
pub trait BranchSource: fmt::Debug {
    /// Predicts and resolves one correct-path branch (the model is
    /// functional-directed, so both happen in one call): returns the fetch
    /// decision and applies any training/speculative-cursor updates.
    fn on_branch(&mut self, event: &BranchEvent) -> FrontendDecision;

    /// The branch retired: commit architectural frontend state (the BTU's
    /// Checkpoint Table position). Called for every committed branch.
    fn on_commit(&mut self, _event: &BranchEvent) {}

    /// A wrong-path branch was fetched: advance speculative-only state (the
    /// BTU's fetch cursor); it will be rolled back by [`on_squash`].
    ///
    /// [`on_squash`]: BranchSource::on_squash
    fn on_wrong_path_branch(&mut self, _pc: usize, _is_crypto: bool) {}

    /// A misprediction squash: roll speculative frontend state back to the
    /// committed checkpoints.
    fn on_squash(&mut self) {}

    /// Whole-unit flush (context switch between crypto applications, Q4).
    /// Returns true if the source had flushable state.
    fn flush(&mut self) -> bool {
        false
    }

    /// A context switch priced as a BTU partition reassignment instead of a
    /// whole-unit flush (the Q4 partition variant): activate `context`'s
    /// partition, leaving the other partitions' residency warm. Returns true
    /// if the source had state to switch. Sources without partition support
    /// fall back to their whole-unit [`flush`] — a context switch is never
    /// cheaper than the flush-priced model just because a source ignores it.
    ///
    /// [`flush`]: BranchSource::flush
    fn on_context_switch(&mut self, _context: u64) -> bool {
        self.flush()
    }

    /// Retargets the source at the incoming tenant's program (multi-tenant
    /// context switch): the crypto-range integrity guard and any PC-indexed
    /// tables must consult the program that is about to run. Sources that
    /// never look at the program ignore this.
    fn retarget_program(&mut self, _profile: ProgramProfile) {}

    /// Exchanges the source's per-tenant frontend state (the BPU) with the
    /// given checkpoint slot: the current state moves into the slot and the
    /// slot's state (or a fresh one, on a tenant's first activation) becomes
    /// current. Sources without per-tenant state ignore this.
    fn swap_tenant_state(&mut self, _slot: &mut TenantFrontendState) {}

    /// Installs a steal-victim policy on the source's BTU, if it drives one
    /// (the OS-scheduler model of the multi-tenant simulator).
    fn set_btu_victim_policy(&mut self, _policy: VictimPolicy) {}

    /// Registers `context`'s own encoded traces on the source's BTU, if it
    /// drives one (multi-tenant consolidation: each tenant replays its own
    /// program's traces through the shared unit).
    fn register_btu_context(
        &mut self,
        _context: u64,
        _encoded: std::sync::Arc<cassandra_btu::encode::EncodedTraces>,
    ) {
    }

    /// Accumulated branch-predictor statistics.
    fn bpu_stats(&self) -> BpuStats {
        BpuStats::default()
    }

    /// Accumulated BTU statistics, if this source drives one.
    fn btu_stats(&self) -> Option<BtuStats> {
        None
    }

    /// Per-context BTU statistics, if this source drives a BTU that has
    /// seen context switches (empty otherwise).
    fn btu_context_stats(&self) -> Vec<ContextBtuStats> {
        Vec::new()
    }
}

/// Swaps a source's BPU with a tenant checkpoint slot, materializing a
/// fresh same-geometry predictor on a tenant's first activation.
fn swap_bpu(bpu: &mut BranchPredictionUnit, slot: &mut TenantFrontendState) {
    let incoming = slot.bpu.take().unwrap_or_else(|| bpu.fresh_like());
    slot.bpu = Some(std::mem::replace(bpu, incoming));
}

/// BPU prediction with resolution feedback, shared by every source that
/// predicts non-crypto branches. When `crypto_guard` is set, predictions
/// that would speculatively redirect fetch into a crypto PC range are
/// converted into stalls (the Cassandra integrity check).
fn bpu_outcome(
    bpu: &mut BranchPredictionUnit,
    event: &BranchEvent,
    crypto_guard: Option<&ProgramProfile>,
) -> FetchOutcome {
    let prediction = bpu.predict(event.pc, event.kind, event.direct_target, event.fallthrough);
    if let (Some(profile), Some(target)) = (crypto_guard, prediction.target) {
        if profile.is_crypto_pc(target) {
            bpu.update(event.pc, event.kind, event.taken, event.actual_target);
            return FetchOutcome::Stall;
        }
    }
    let outcome = match prediction.target {
        Some(predicted) if predicted == event.actual_target => {
            FetchOutcome::Proceed { extra_latency: 0 }
        }
        Some(predicted) => FetchOutcome::Mispredict {
            wrong_target: predicted,
        },
        // No prediction available (BTB/RSB miss): wait for resolution.
        None => FetchOutcome::Stall,
    };
    bpu.update(event.pc, event.kind, event.taken, event.actual_target);
    outcome
}

/// The configured BPU geometry, shared by every source that predicts.
fn bpu_for(config: &CpuConfig) -> BranchPredictionUnit {
    BranchPredictionUnit::new(config.pht_entries, config.btb_entries, config.rsb_entries)
}

/// Flushes an optional BTU; true if there was one to flush.
fn flush_btu(btu: &mut Option<BranchTraceUnit>) -> bool {
    match btu {
        Some(btu) => {
            btu.flush();
            true
        }
        None => false,
    }
}

/// The speculative baseline: the BPU predicts every branch.
#[derive(Debug)]
pub struct BpuSource {
    bpu: BranchPredictionUnit,
}

impl BpuSource {
    /// A BPU source with the configured table geometry.
    pub fn new(config: &CpuConfig) -> Self {
        BpuSource {
            bpu: bpu_for(config),
        }
    }
}

impl BranchSource for BpuSource {
    fn on_branch(&mut self, event: &BranchEvent) -> FrontendDecision {
        FrontendDecision::speculative(bpu_outcome(&mut self.bpu, event, None))
    }

    fn swap_tenant_state(&mut self, slot: &mut TenantFrontendState) {
        swap_bpu(&mut self.bpu, slot);
    }

    fn bpu_stats(&self) -> BpuStats {
        self.bpu.stats()
    }
}

/// Full Cassandra: crypto branches replay the BTU trace, non-crypto branches
/// use the BPU behind the crypto-range integrity check.
#[derive(Debug)]
pub struct BtuSource {
    profile: ProgramProfile,
    bpu: BranchPredictionUnit,
    btu: Option<BranchTraceUnit>,
}

impl BtuSource {
    /// A BTU-backed source; `btu` is `None` when no traces were provided
    /// (every crypto branch then stalls until it resolves).
    pub fn new(program: &Program, config: &CpuConfig, btu: Option<BranchTraceUnit>) -> Self {
        BtuSource {
            profile: ProgramProfile::of(program),
            bpu: bpu_for(config),
            btu,
        }
    }
}

impl BranchSource for BtuSource {
    fn on_branch(&mut self, event: &BranchEvent) -> FrontendDecision {
        if !event.is_crypto {
            return FrontendDecision::speculative(bpu_outcome(
                &mut self.bpu,
                event,
                Some(&self.profile),
            ));
        }
        let outcome = match &mut self.btu {
            Some(btu) => {
                let lookup = btu.fetch_lookup(event.pc);
                if lookup.needs_stall {
                    // No usable trace: stall until the branch resolves
                    // (footnote 4 / §4.3).
                    FetchOutcome::Stall
                } else {
                    debug_assert_eq!(
                        lookup.next_pc,
                        Some(event.actual_target),
                        "BTU must replay the sequential trace (branch at {})",
                        event.pc
                    );
                    FetchOutcome::Proceed {
                        extra_latency: lookup.extra_latency,
                    }
                }
            }
            None => FetchOutcome::Stall,
        };
        FrontendDecision::replayed(outcome)
    }

    fn on_commit(&mut self, event: &BranchEvent) {
        if event.is_crypto {
            if let Some(btu) = &mut self.btu {
                btu.commit_branch(event.pc);
            }
        }
    }

    fn on_wrong_path_branch(&mut self, pc: usize, is_crypto: bool) {
        // A wrong-path crypto branch consults the BTU and advances its
        // speculative cursor; the squash rolls it back.
        if is_crypto {
            if let Some(btu) = &mut self.btu {
                let _ = btu.fetch_lookup(pc);
            }
        }
    }

    fn on_squash(&mut self) {
        if let Some(btu) = &mut self.btu {
            btu.squash();
        }
    }

    fn flush(&mut self) -> bool {
        flush_btu(&mut self.btu)
    }

    fn on_context_switch(&mut self, context: u64) -> bool {
        // Forward the BTU's verdict: registering the first context or
        // re-activating the current one is not a switch, so the pipeline's
        // `context_switches` agrees with the BTU's `partition_switches`.
        match &mut self.btu {
            Some(btu) => btu.switch_context(context),
            None => false,
        }
    }

    fn retarget_program(&mut self, profile: ProgramProfile) {
        self.profile = profile;
    }

    fn swap_tenant_state(&mut self, slot: &mut TenantFrontendState) {
        swap_bpu(&mut self.bpu, slot);
    }

    fn set_btu_victim_policy(&mut self, policy: VictimPolicy) {
        if let Some(btu) = &mut self.btu {
            btu.set_victim_policy(policy);
        }
    }

    fn register_btu_context(
        &mut self,
        context: u64,
        encoded: std::sync::Arc<cassandra_btu::encode::EncodedTraces>,
    ) {
        if let Some(btu) = &mut self.btu {
            btu.register_context(context, encoded);
        }
    }

    fn bpu_stats(&self) -> BpuStats {
        self.bpu.stats()
    }

    fn btu_stats(&self) -> Option<BtuStats> {
        self.btu.as_ref().map(BranchTraceUnit::stats)
    }

    fn btu_context_stats(&self) -> Vec<ContextBtuStats> {
        self.btu
            .as_ref()
            .map_or_else(Vec::new, |btu| btu.context_stats().to_vec())
    }
}

/// Cassandra-lite (Q3): single-target crypto branches follow their hint,
/// every other crypto branch stalls fetch until it resolves. No Trace Cache
/// or Checkpoint Table is modelled — the unit only reads hint bytes.
#[derive(Debug)]
pub struct LiteSource {
    profile: ProgramProfile,
    bpu: BranchPredictionUnit,
    btu: Option<BranchTraceUnit>,
}

impl LiteSource {
    /// A hint-only source; `btu` supplies the encoded hints when present.
    pub fn new(program: &Program, config: &CpuConfig, btu: Option<BranchTraceUnit>) -> Self {
        LiteSource {
            profile: ProgramProfile::of(program),
            bpu: bpu_for(config),
            btu,
        }
    }
}

impl BranchSource for LiteSource {
    fn on_branch(&mut self, event: &BranchEvent) -> FrontendDecision {
        if !event.is_crypto {
            return FrontendDecision::speculative(bpu_outcome(
                &mut self.bpu,
                event,
                Some(&self.profile),
            ));
        }
        let hint = self.btu.as_ref().and_then(|b| b.hint(event.pc));
        let outcome = match hint {
            Some(BranchHint::SingleTarget { .. }) => FetchOutcome::Proceed { extra_latency: 0 },
            _ => FetchOutcome::Stall,
        };
        FrontendDecision::replayed(outcome)
    }

    fn flush(&mut self) -> bool {
        flush_btu(&mut self.btu)
    }

    fn retarget_program(&mut self, profile: ProgramProfile) {
        self.profile = profile;
    }

    fn swap_tenant_state(&mut self, slot: &mut TenantFrontendState) {
        swap_bpu(&mut self.bpu, slot);
    }

    fn bpu_stats(&self) -> BpuStats {
        self.bpu.stats()
    }

    fn btu_stats(&self) -> Option<BtuStats> {
        self.btu.as_ref().map(BranchTraceUnit::stats)
    }
}

/// The serializing lower bound: every branch stalls fetch until it resolves,
/// so no instruction ever executes speculatively.
#[derive(Debug, Default)]
pub struct FenceSource;

impl BranchSource for FenceSource {
    fn on_branch(&mut self, _event: &BranchEvent) -> FrontendDecision {
        FrontendDecision::speculative(FetchOutcome::Stall)
    }
}

/// Default number of executions a crypto branch needs before the tournament
/// frontend trusts its BTU trace over the BPU (its trace is "installed").
pub const TOURNAMENT_PROMOTE_THRESHOLD: u32 = 4;

/// The hybrid tournament frontend: per-PC confidence counters arbitrate each
/// crypto branch between BTU replay and the speculative BPU, modelling a
/// deployment where only hot crypto branches earn traces.
///
/// A crypto branch starts *cold*: the BPU predicts it speculatively (no
/// crypto-range guard — its targets live inside the range by construction),
/// so it can mispredict and leak transiently, exactly like the unsafe
/// baseline. Every execution increments its confidence counter; once the
/// counter saturates at the promotion threshold the branch is *hot* and all
/// further executions replay the BTU trace without opening a speculation
/// window. The BTU's replay cursors are advanced from the very first
/// execution (the unit observes the branch while its trace is being
/// installed), so promotion resumes the trace at the correct position.
/// Non-crypto branches use the guarded BPU, as under full Cassandra.
#[derive(Debug)]
pub struct TournamentSource {
    profile: ProgramProfile,
    bpu: BranchPredictionUnit,
    btu: Option<BranchTraceUnit>,
    /// Per-context confidence tables, keyed by application context: each
    /// context's counters survive switches away and back, exactly like its
    /// BTU partition's residency (a whole-unit flush drops them all). Each
    /// table is dense, indexed by PC — crypto branches hit it on every
    /// execution, so the counter must be one load away. Tables grow on
    /// demand so a retarget at a longer tenant program cannot index out of
    /// bounds.
    confidence: std::collections::BTreeMap<u64, Vec<u32>>,
    active_context: u64,
    threshold: u32,
}

impl TournamentSource {
    /// A tournament source with the given promotion threshold; `btu` is
    /// `None` when no traces were provided (every crypto branch then stays
    /// on the BPU forever — nothing can be promoted).
    pub fn new(
        program: &Program,
        config: &CpuConfig,
        btu: Option<BranchTraceUnit>,
        threshold: u32,
    ) -> Self {
        TournamentSource {
            profile: ProgramProfile::of(program),
            bpu: bpu_for(config),
            btu,
            confidence: std::collections::BTreeMap::new(),
            active_context: 0,
            threshold,
        }
    }

    /// The promotion threshold in use.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// The active context's confidence counter of a branch (saturates at the
    /// threshold).
    pub fn confidence(&self, pc: usize) -> u32 {
        self.confidence
            .get(&self.active_context)
            .and_then(|table| table.get(pc))
            .copied()
            .unwrap_or(0)
    }
}

impl BranchSource for TournamentSource {
    fn on_branch(&mut self, event: &BranchEvent) -> FrontendDecision {
        if !event.is_crypto {
            return FrontendDecision::speculative(bpu_outcome(
                &mut self.bpu,
                event,
                Some(&self.profile),
            ));
        }
        // The BTU tracks the branch from its first execution so that the
        // replay position is correct at promotion time; the *decision* below
        // arbitrates which component steers fetch.
        let lookup = self.btu.as_mut().map(|btu| btu.fetch_lookup(event.pc));
        let len = self.profile.len.max(event.pc + 1);
        let table = self.confidence.entry(self.active_context).or_default();
        if table.len() < len {
            table.resize(len, 0);
        }
        let conf = &mut table[event.pc];
        let hot = *conf >= self.threshold;
        *conf = (*conf + 1).min(self.threshold);
        if hot {
            let outcome = match lookup {
                Some(lookup) if !lookup.needs_stall => {
                    debug_assert_eq!(
                        lookup.next_pc,
                        Some(event.actual_target),
                        "promoted branch at {} must replay the sequential trace",
                        event.pc
                    );
                    FetchOutcome::Proceed {
                        extra_latency: lookup.extra_latency,
                    }
                }
                // Promoted but unreplayable (input-dependent hint / no
                // trace): stall until resolve, as under full Cassandra.
                _ => FetchOutcome::Stall,
            };
            FrontendDecision::replayed(outcome)
        } else {
            FrontendDecision::speculative(bpu_outcome(&mut self.bpu, event, None))
        }
    }

    fn on_commit(&mut self, event: &BranchEvent) {
        if event.is_crypto {
            if let Some(btu) = &mut self.btu {
                btu.commit_branch(event.pc);
            }
        }
    }

    fn on_wrong_path_branch(&mut self, pc: usize, is_crypto: bool) {
        if is_crypto {
            if let Some(btu) = &mut self.btu {
                let _ = btu.fetch_lookup(pc);
            }
        }
    }

    fn on_squash(&mut self) {
        if let Some(btu) = &mut self.btu {
            btu.squash();
        }
    }

    fn flush(&mut self) -> bool {
        // A whole-unit flush drops every context's confidence table with the
        // traces: all branches start cold again.
        self.confidence.clear();
        flush_btu(&mut self.btu)
    }

    fn on_context_switch(&mut self, context: u64) -> bool {
        // Each context keeps its own confidence table (selected here), just
        // as its BTU partition keeps its residency. The BTU's verdict is
        // forwarded: registration and same-context re-activation count
        // nothing.
        self.active_context = context;
        match &mut self.btu {
            Some(btu) => btu.switch_context(context),
            None => false,
        }
    }

    fn retarget_program(&mut self, profile: ProgramProfile) {
        self.profile = profile;
    }

    fn swap_tenant_state(&mut self, slot: &mut TenantFrontendState) {
        swap_bpu(&mut self.bpu, slot);
    }

    fn set_btu_victim_policy(&mut self, policy: VictimPolicy) {
        if let Some(btu) = &mut self.btu {
            btu.set_victim_policy(policy);
        }
    }

    fn register_btu_context(
        &mut self,
        context: u64,
        encoded: std::sync::Arc<cassandra_btu::encode::EncodedTraces>,
    ) {
        if let Some(btu) = &mut self.btu {
            btu.register_context(context, encoded);
        }
    }

    fn bpu_stats(&self) -> BpuStats {
        self.bpu.stats()
    }

    fn btu_stats(&self) -> Option<BtuStats> {
        self.btu.as_ref().map(BranchTraceUnit::stats)
    }

    fn btu_context_stats(&self) -> Vec<ContextBtuStats> {
        self.btu
            .as_ref()
            .map_or_else(Vec::new, |btu| btu.context_stats().to_vec())
    }
}

/// Builds the branch source selected by the already-resolved defense
/// policy, applying any Trace Cache geometry override.
pub fn build_source(
    program: &Program,
    config: &CpuConfig,
    policy: &crate::policy::DefensePolicy,
    mut btu: Option<BranchTraceUnit>,
) -> Box<dyn BranchSource> {
    if let (Some(entries), Some(btu)) = (policy.trace_cache_entries, btu.as_mut()) {
        btu.set_trace_cache_entries(entries);
    }
    if let (Some(partitions), Some(btu)) = (policy.btu_partitions, btu.as_mut()) {
        btu.set_partitions(partitions);
    }
    match policy.frontend {
        FrontendKind::Bpu => Box::new(BpuSource::new(config)),
        FrontendKind::Btu => Box::new(BtuSource::new(program, config, btu)),
        FrontendKind::BtuLite => Box::new(LiteSource::new(program, config, btu)),
        FrontendKind::Fence => Box::new(FenceSource),
        FrontendKind::Tournament => Box::new(TournamentSource::new(
            program,
            config,
            btu,
            policy
                .tournament_threshold
                .unwrap_or(TOURNAMENT_PROMOTE_THRESHOLD),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cassandra_isa::builder::ProgramBuilder;

    fn event(pc: usize, taken: bool, actual: usize, direct: Option<usize>) -> BranchEvent {
        BranchEvent {
            pc,
            kind: BranchKind::CondDirect,
            taken,
            actual_target: actual,
            direct_target: direct,
            fallthrough: pc + 1,
            is_crypto: false,
        }
    }

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new("tiny");
        b.begin_crypto();
        b.nop();
        b.end_crypto();
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn fence_source_stalls_everything() {
        let mut src = FenceSource;
        let decision = src.on_branch(&event(4, true, 9, Some(9)));
        assert_eq!(decision.outcome, FetchOutcome::Stall);
        assert!(decision.opens_speculation_window);
        assert_eq!(src.bpu_stats(), BpuStats::default());
        assert!(src.btu_stats().is_none());
        assert!(!src.flush());
    }

    #[test]
    fn bpu_source_predicts_and_trains() {
        let config = CpuConfig::golden_cove_like();
        let mut src = BpuSource::new(&config);
        // Weakly-taken initial state: a taken branch is predicted correctly.
        let d = src.on_branch(&event(10, true, 2, Some(2)));
        assert_eq!(d.outcome, FetchOutcome::Proceed { extra_latency: 0 });
        // A never-taken branch mispredicts while the counter is taken.
        let d = src.on_branch(&event(20, false, 21, Some(99)));
        assert_eq!(d.outcome, FetchOutcome::Mispredict { wrong_target: 99 });
        assert!(src.bpu_stats().pht_lookups >= 2);
        assert!(src.bpu_stats().updates >= 2);
    }

    #[test]
    fn btu_source_without_traces_stalls_crypto_branches() {
        let program = tiny_program();
        let config = CpuConfig::golden_cove_like();
        let mut src = BtuSource::new(&program, &config, None);
        let mut e = event(0, true, 0, Some(0));
        e.is_crypto = true;
        let d = src.on_branch(&e);
        assert_eq!(d.outcome, FetchOutcome::Stall);
        assert!(
            !d.opens_speculation_window,
            "replayed branches open no window"
        );
        assert!(!src.flush(), "nothing to flush without a BTU");
    }

    fn nested_crypto_program() -> Program {
        use cassandra_isa::reg::{A0, A1, ZERO};
        let mut b = ProgramBuilder::new("nested");
        b.begin_crypto();
        b.li(A0, 3);
        b.label("outer");
        b.li(A1, 2);
        b.label("inner");
        b.addi(A1, A1, -1);
        b.bne(A1, ZERO, "inner");
        b.addi(A0, A0, -1);
        b.bne(A0, ZERO, "outer");
        b.end_crypto();
        b.halt();
        b.build().unwrap()
    }

    fn btu_for(program: &Program) -> BranchTraceUnit {
        use cassandra_btu::encode::EncodedTraces;
        use cassandra_btu::unit::BtuConfig;
        let bundle = cassandra_trace::genproc::generate_traces(program, None, 100_000).unwrap();
        let encoded = EncodedTraces::from_bundle(program, &bundle);
        BranchTraceUnit::new(BtuConfig::default(), encoded)
    }

    #[test]
    fn tournament_promotes_a_branch_after_the_threshold() {
        // The inner-loop branch of the nested program (PC 3) executes six
        // times; with a threshold of 2 the first two decisions are
        // speculative (BPU) and every later one is a BTU replay.
        let program = nested_crypto_program();
        let raw = cassandra_trace::collect::collect_raw_traces(&program, 100_000).unwrap();
        let inner_pc = 3;
        let targets: &[usize] = raw
            .iter()
            .find(|(pc, _)| **pc == inner_pc)
            .map(|(_, t)| t.targets.as_slice())
            .unwrap();
        let config = CpuConfig::golden_cove_like();
        let mut src = TournamentSource::new(&program, &config, Some(btu_for(&program)), 2);
        for (i, &target) in targets.iter().enumerate() {
            let mut e = event(inner_pc, target != inner_pc + 1, target, Some(targets[0]));
            e.is_crypto = true;
            let d = src.on_branch(&e);
            src.on_commit(&e);
            if i < 2 {
                assert!(
                    d.opens_speculation_window,
                    "execution {i} must still be speculative (cold)"
                );
            } else {
                assert!(
                    !d.opens_speculation_window,
                    "execution {i} must be a BTU replay (hot)"
                );
                assert_eq!(
                    d.outcome,
                    FetchOutcome::Proceed { extra_latency: 0 },
                    "execution {i} replays the exact trace"
                );
            }
        }
        assert_eq!(src.confidence(inner_pc), src.threshold(), "saturated");
        assert!(
            src.bpu_stats().pht_lookups >= 2,
            "the BPU handled cold runs"
        );
        assert!(src.btu_stats().unwrap().lookups >= targets.len() as u64);
    }

    #[test]
    fn tournament_without_traces_never_promotes() {
        let program = tiny_program();
        let config = CpuConfig::golden_cove_like();
        let mut src = TournamentSource::new(&program, &config, None, 0);
        let mut e = event(0, true, 0, Some(0));
        e.is_crypto = true;
        // Threshold 0 means instantly hot, but with no BTU the replay falls
        // back to a stall (as under trace-less Cassandra).
        let d = src.on_branch(&e);
        assert_eq!(d.outcome, FetchOutcome::Stall);
        assert!(!d.opens_speculation_window);
        assert!(!src.on_context_switch(1), "no partition state to switch");
    }

    #[test]
    fn tournament_confidence_is_per_context() {
        // Promotion earned by context 0 must not leak to context 1, and must
        // survive switching away and back — mirroring partition residency.
        let program = nested_crypto_program();
        let config = CpuConfig::golden_cove_like();
        let mut src = TournamentSource::new(&program, &config, Some(btu_for(&program)), 1);
        // Register the initial context (not a counted switch).
        assert!(!src.on_context_switch(0));
        let mut e = event(3, true, 2, Some(2));
        e.is_crypto = true;
        src.on_branch(&e);
        src.on_commit(&e);
        assert_eq!(src.confidence(3), 1, "context 0 promoted the branch");
        assert!(src.on_context_switch(1));
        assert_eq!(src.confidence(3), 0, "context 1 starts cold");
        assert!(src.on_context_switch(0));
        assert_eq!(src.confidence(3), 1, "context 0's table survived");
        // A whole-unit flush drops every context's table.
        assert!(src.flush());
        assert_eq!(src.confidence(3), 0);
    }

    #[test]
    fn lite_source_prices_context_switches_as_flushes() {
        // LiteSource has no partition state: the conservative default routes
        // a context switch through its whole-unit flush.
        let program = nested_crypto_program();
        let config = CpuConfig::golden_cove_like();
        let mut src = LiteSource::new(&program, &config, Some(btu_for(&program)));
        assert!(src.on_context_switch(1));
        assert_eq!(src.btu_stats().unwrap().flushes, 1);
    }

    #[test]
    fn btu_source_forwards_context_switches() {
        let program = nested_crypto_program();
        let config = CpuConfig::golden_cove_like();
        let mut src = BtuSource::new(&program, &config, Some(btu_for(&program)));
        // The first call registers the initial context: nothing counted.
        assert!(!src.on_context_switch(1));
        assert_eq!(src.btu_stats().unwrap().partition_switches, 0);
        // A real change forwards the BTU's verdict and counts once.
        assert!(src.on_context_switch(2));
        assert_eq!(src.btu_stats().unwrap().partition_switches, 1);
        // Re-activating the active context is a no-op, in agreement.
        assert!(!src.on_context_switch(2));
        assert_eq!(src.btu_stats().unwrap().partition_switches, 1);
        let mut none = BtuSource::new(&program, &config, None);
        assert!(!none.on_context_switch(1));
    }

    #[test]
    fn swap_tenant_state_exchanges_the_bpu() {
        let config = CpuConfig::golden_cove_like();
        let mut src = BpuSource::new(&config);
        src.on_branch(&event(10, true, 2, Some(2)));
        let trained = src.bpu_stats();
        assert!(trained.pht_lookups >= 1);
        // Switching to a fresh tenant materializes an untrained BPU…
        let mut tenant_a = TenantFrontendState::default();
        src.swap_tenant_state(&mut tenant_a);
        assert_eq!(src.bpu_stats(), BpuStats::default());
        assert!(tenant_a.bpu.is_some(), "the trained BPU went into the slot");
        // …and swapping back restores the trained one exactly.
        src.swap_tenant_state(&mut tenant_a);
        assert_eq!(src.bpu_stats(), trained);
    }

    #[test]
    fn integrity_check_blocks_speculative_entry_into_crypto_ranges() {
        let program = tiny_program(); // PC 0 is crypto.
        let config = CpuConfig::golden_cove_like();
        let mut src = BtuSource::new(&program, &config, None);
        // Non-crypto branch whose predicted target (taken, direct target 0)
        // lands inside the crypto range: the frontend must stall instead of
        // redirecting speculatively.
        let e = event(5, true, 0, Some(0));
        let d = src.on_branch(&e);
        assert_eq!(d.outcome, FetchOutcome::Stall);
        assert!(d.opens_speculation_window);
    }
}
