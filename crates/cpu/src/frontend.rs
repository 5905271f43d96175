//! The frontend: what happens when a branch is fetched.
//!
//! One decision sits at each fetched branch, and [`Frontend::on_branch`]
//! makes it by the configured [`FrontendKind`]:
//!
//! * `Bpu` — the speculative baseline: PHT/BTB/RSB predict every branch
//!   (UnsafeBaseline, SPT, ProSpeCT);
//! * `Btu` — full Cassandra: crypto branches replay the Branch Trace Unit's
//!   trace, non-crypto branches use the BPU behind the crypto-range
//!   integrity check (Cassandra, +STL, +ProSpeCT, -noTC and the
//!   way-partitioned `Cassandra-part`, whose BTU geometry comes from
//!   [`CpuConfig::btu`]);
//! * `BtuLite` — Cassandra-lite: only single-target crypto hints are
//!   honoured, every other crypto branch stalls fetch until it resolves;
//! * `Fence` — the serializing lower bound: every branch stalls fetch until
//!   it resolves, so nothing ever executes speculatively;
//! * `Tournament` — per-PC confidence counters arbitrate each crypto branch
//!   between BTU replay (hot branches that earned a trace) and the
//!   speculative BPU (cold branches).
//!
//! The pipeline core never looks at the configured
//! [`crate::config::DefenseMode`]; it builds one [`Frontend`] at
//! construction and from then on only interprets [`FrontendDecision`]s.

use crate::bpu::{BpuStats, BranchPredictionUnit};
use crate::config::CpuConfig;
use crate::policy::FrontendKind;
use cassandra_btu::encode::EncodedTraces;
use cassandra_btu::unit::{BranchTraceUnit, BtuLookup, BtuStats, ContextBtuStats, VictimPolicy};
use cassandra_isa::instr::BranchKind;
use cassandra_isa::program::Program;
use cassandra_trace::hints::BranchHint;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// One branch reaching the frontend, together with its resolved outcome.
///
/// The pipeline model is functional-directed: the architectural outcome of
/// the branch is known when it is fetched, so the frontend receives prediction
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

/// The frontend's full decision for one branch.
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

/// The frontend of one simulated core: the program's crypto ranges, the
/// BPU, the optional BTU and the tournament's confidence counters, driven by
/// the configured [`FrontendKind`]. It decides fetch behaviour at branches
/// and tracks the speculation state that must survive commits, squashes,
/// flushes and context switches.
#[derive(Debug)]
pub struct Frontend {
    kind: FrontendKind,
    /// The running program's crypto PC ranges (the integrity guard).
    crypto_ranges: Vec<Range<usize>>,
    /// The running program's text length (sizes the confidence tables).
    program_len: usize,
    /// The branch predictor; `None` under `Fence`, which never predicts.
    bpu: Option<BranchPredictionUnit>,
    /// The trace unit; `None` for frontends that read no traces, or when no
    /// traces were provided (every crypto branch then stalls, and no
    /// tournament branch can be promoted).
    btu: Option<BranchTraceUnit>,
    /// The tournament's per-context confidence tables, keyed by application
    /// context: each context's counters survive switches away and back,
    /// exactly like its BTU partition's residency (a whole-unit flush drops
    /// them all). Each table is dense, indexed by PC — crypto branches hit
    /// it on every execution, so the counter must be one load away. Tables
    /// grow on demand so a longer tenant program cannot index out of bounds.
    confidence: BTreeMap<u64, Vec<u32>>,
    active_context: u64,
    threshold: u32,
}

impl Frontend {
    /// The frontend `config`'s defense selects, for `program`. `btu` must be
    /// built with `config.btu` (as `AnalysisBundle::make_btu` does); it is
    /// dropped by frontends that read no traces.
    pub fn new(program: &Program, config: &CpuConfig, btu: Option<BranchTraceUnit>) -> Self {
        let kind = config.resolved_policy().frontend;
        let btu = btu.filter(|_| kind.uses_btu());
        if let Some(btu) = &btu {
            debug_assert_eq!(
                btu.config(),
                config.btu,
                "BTU geometry must match the config"
            );
        }
        Frontend {
            kind,
            crypto_ranges: program.crypto_ranges.clone(),
            program_len: program.len(),
            bpu: (kind != FrontendKind::Fence).then(|| {
                BranchPredictionUnit::new(
                    config.pht_entries,
                    config.btb_entries,
                    config.rsb_entries,
                )
            }),
            btu,
            confidence: BTreeMap::new(),
            active_context: 0,
            threshold: config.tournament_threshold,
        }
    }

    /// Predicts and resolves one correct-path branch (the model is
    /// functional-directed, so both happen in one call): returns the fetch
    /// decision and applies any training/speculative-cursor updates.
    #[inline]
    pub fn on_branch(&mut self, event: &BranchEvent) -> FrontendDecision {
        match self.kind {
            FrontendKind::Fence => FrontendDecision::speculative(FetchOutcome::Stall),
            FrontendKind::Bpu => self.predict(event, false),
            _ if !event.is_crypto => self.predict(event, true),
            FrontendKind::Btu => {
                let lookup = self.btu.as_mut().map(|btu| btu.fetch_lookup(event.pc));
                FrontendDecision::replayed(replay_outcome(lookup, event))
            }
            FrontendKind::BtuLite => {
                let hint = self.btu.as_ref().and_then(|btu| btu.hint(event.pc));
                FrontendDecision::replayed(match hint {
                    Some(BranchHint::SingleTarget { .. }) => {
                        FetchOutcome::Proceed { extra_latency: 0 }
                    }
                    _ => FetchOutcome::Stall,
                })
            }
            FrontendKind::Tournament => {
                // The BTU tracks the branch from its first execution so that
                // the replay position is correct at promotion time; the
                // counter arbitrates which component steers fetch. A cold
                // branch is predicted without the crypto-range guard: its
                // targets live inside the range by construction.
                let lookup = self.btu.as_mut().map(|btu| btu.fetch_lookup(event.pc));
                let len = self.program_len.max(event.pc + 1);
                let table = self.confidence.entry(self.active_context).or_default();
                if table.len() < len {
                    table.resize(len, 0);
                }
                let conf = &mut table[event.pc];
                let hot = *conf >= self.threshold;
                *conf = (*conf + 1).min(self.threshold);
                if hot {
                    FrontendDecision::replayed(replay_outcome(lookup, event))
                } else {
                    self.predict(event, false)
                }
            }
        }
    }

    /// A BPU prediction with resolution feedback. With `guarded`,
    /// predictions that would speculatively redirect fetch into a crypto PC
    /// range become stalls (the Cassandra integrity check).
    fn predict(&mut self, event: &BranchEvent, guarded: bool) -> FrontendDecision {
        let bpu = self
            .bpu
            .as_mut()
            .expect("every frontend but Fence predicts");
        let prediction = bpu.predict(event.pc, event.kind, event.direct_target, event.fallthrough);
        let outcome = match prediction.target {
            Some(target) if guarded && self.crypto_ranges.iter().any(|r| r.contains(&target)) => {
                FetchOutcome::Stall
            }
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
        FrontendDecision::speculative(outcome)
    }

    /// The BTU when this frontend replays traces through it; Cassandra-lite
    /// only reads hint bytes and keeps no cursors.
    fn replay_unit(&mut self) -> Option<&mut BranchTraceUnit> {
        match self.kind {
            FrontendKind::Btu | FrontendKind::Tournament => self.btu.as_mut(),
            _ => None,
        }
    }

    /// The branch retired: commit architectural frontend state (the BTU's
    /// Checkpoint Table position). Called for every committed branch.
    #[inline]
    pub fn on_commit(&mut self, event: &BranchEvent) {
        if event.is_crypto {
            if let Some(btu) = self.replay_unit() {
                btu.commit_branch(event.pc);
            }
        }
    }

    /// A wrong-path branch was fetched: a crypto branch consults the BTU and
    /// advances its speculative cursor, which [`Frontend::on_squash`] rolls
    /// back.
    pub(crate) fn on_wrong_path_branch(&mut self, pc: usize, is_crypto: bool) {
        if is_crypto {
            if let Some(btu) = self.replay_unit() {
                let _ = btu.fetch_lookup(pc);
            }
        }
    }

    /// A misprediction squash: roll speculative frontend state back to the
    /// committed checkpoints.
    pub(crate) fn on_squash(&mut self) {
        if let Some(btu) = self.replay_unit() {
            btu.squash();
        }
    }

    /// Whole-unit flush (context switch between crypto applications, Q4):
    /// drops the Trace Cache residency and every confidence table, so all
    /// tournament branches start cold again. Returns true if there was a
    /// BTU to flush.
    pub(crate) fn flush(&mut self) -> bool {
        self.confidence.clear();
        match &mut self.btu {
            Some(btu) => {
                btu.flush();
                true
            }
            None => false,
        }
    }

    /// Switches to application `context`. Replaying frontends forward the
    /// BTU's partition-reassignment verdict (registering the first context
    /// or re-activating the current one is not a switch, so the pipeline's
    /// `context_switches` agrees with the BTU's `partition_switches`), and
    /// the tournament selects the context's confidence table. Cassandra-lite
    /// serves the incoming context's hints and, having no partitions, prices
    /// the switch as a whole-unit [`Frontend::flush`] — a context switch is
    /// never cheaper than the flush-priced model.
    pub(crate) fn on_context_switch(&mut self, context: u64) -> bool {
        self.active_context = context;
        match self.kind {
            FrontendKind::Btu | FrontendKind::Tournament => self
                .btu
                .as_mut()
                .is_some_and(|btu| btu.switch_context(context)),
            _ => {
                if let Some(btu) = &mut self.btu {
                    btu.serve_image_of(context);
                }
                self.flush()
            }
        }
    }

    /// Exchanges the running tenant for another on a multi-tenant context
    /// switch: the integrity guard and the confidence tables consult the
    /// incoming `program`, and the current BPU moves into `parked_bpu` while
    /// the parked one (or a fresh one, on a tenant's first activation)
    /// becomes current. The BTU is shared and stays.
    pub(crate) fn swap_tenant(
        &mut self,
        program: &Program,
        parked_bpu: &mut Option<BranchPredictionUnit>,
    ) {
        self.crypto_ranges.clone_from(&program.crypto_ranges);
        self.program_len = program.len();
        if let Some(bpu) = &mut self.bpu {
            let incoming = parked_bpu.take().unwrap_or_else(|| bpu.fresh_like());
            *parked_bpu = Some(std::mem::replace(bpu, incoming));
        }
    }

    /// Installs a steal-victim policy on the BTU, if there is one (the
    /// OS-scheduler model of the multi-tenant simulator).
    pub(crate) fn set_btu_victim_policy(&mut self, policy: VictimPolicy) {
        if let Some(btu) = &mut self.btu {
            btu.set_victim_policy(policy);
        }
    }

    /// Registers `context`'s own encoded traces on the BTU, if there is one
    /// (multi-tenant consolidation: each tenant replays, or reads the hints
    /// of, its own program through the shared unit).
    pub(crate) fn register_btu_context(&mut self, context: u64, encoded: Arc<EncodedTraces>) {
        if let Some(btu) = &mut self.btu {
            btu.register_context(context, encoded);
        }
    }

    /// The active context's tournament confidence counter of a branch
    /// (saturates at the threshold).
    pub fn confidence(&self, pc: usize) -> u32 {
        self.confidence
            .get(&self.active_context)
            .and_then(|table| table.get(pc))
            .copied()
            .unwrap_or(0)
    }

    /// Accumulated branch-predictor statistics.
    pub(crate) fn bpu_stats(&self) -> BpuStats {
        self.bpu
            .as_ref()
            .map(BranchPredictionUnit::stats)
            .unwrap_or_default()
    }

    /// Accumulated BTU statistics, if this frontend drives one.
    pub(crate) fn btu_stats(&self) -> Option<BtuStats> {
        self.btu.as_ref().map(BranchTraceUnit::stats)
    }

    /// Per-context BTU statistics (empty until the BTU sees a context
    /// switch).
    pub(crate) fn btu_context_stats(&self) -> Vec<ContextBtuStats> {
        self.btu
            .as_ref()
            .map_or_else(Vec::new, |btu| btu.context_stats().to_vec())
    }
}

/// Fetch at a crypto branch whose next PC the BTU dictates: proceed along
/// the replayed trace, or stall until resolve when there is no usable trace
/// (no BTU, an input-dependent hint, footnote 4 / §4.3).
fn replay_outcome(lookup: Option<BtuLookup>, event: &BranchEvent) -> FetchOutcome {
    match lookup {
        Some(lookup) if !lookup.needs_stall => {
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
        _ => FetchOutcome::Stall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DefenseMode;
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

    fn crypto_event(pc: usize, taken: bool, actual: usize, direct: Option<usize>) -> BranchEvent {
        BranchEvent {
            is_crypto: true,
            ..event(pc, taken, actual, direct)
        }
    }

    fn config(defense: DefenseMode) -> CpuConfig {
        CpuConfig::golden_cove_like().with_defense(defense)
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
        let mut src = Frontend::new(&tiny_program(), &config(DefenseMode::Fence), None);
        assert!(src.bpu.is_none(), "Fence builds no predictor");
        let decision = src.on_branch(&event(4, true, 9, Some(9)));
        assert_eq!(decision.outcome, FetchOutcome::Stall);
        assert!(decision.opens_speculation_window);
        assert_eq!(src.bpu_stats(), BpuStats::default());
        assert!(src.btu_stats().is_none());
        assert!(!src.flush());
    }

    #[test]
    fn bpu_source_predicts_and_trains() {
        let program = tiny_program();
        let mut src = Frontend::new(&program, &config(DefenseMode::UnsafeBaseline), None);
        // Weakly-taken initial state: a taken branch is predicted correctly.
        let d = src.on_branch(&event(10, true, 2, Some(2)));
        assert_eq!(d.outcome, FetchOutcome::Proceed { extra_latency: 0 });
        // A never-taken branch mispredicts while the counter is taken.
        let d = src.on_branch(&event(20, false, 21, Some(99)));
        assert_eq!(d.outcome, FetchOutcome::Mispredict { wrong_target: 99 });
        assert!(src.bpu_stats().pht_lookups >= 2);
        assert!(src.bpu_stats().updates >= 2);
        // The baseline reads no traces, so a provided BTU is dropped.
        let with_btu = Frontend::new(
            &nested_crypto_program(),
            &config(DefenseMode::UnsafeBaseline),
            Some(btu_for(&nested_crypto_program())),
        );
        assert!(with_btu.btu_stats().is_none());
    }

    #[test]
    fn btu_source_without_traces_stalls_crypto_branches() {
        let program = tiny_program();
        let mut src = Frontend::new(&program, &config(DefenseMode::Cassandra), None);
        let d = src.on_branch(&crypto_event(0, true, 0, Some(0)));
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

    fn encoded_for(program: &Program) -> EncodedTraces {
        let bundle = cassandra_trace::genproc::generate_traces(program, None, 100_000).unwrap();
        EncodedTraces::from_bundle(program, &bundle)
    }

    fn btu_for(program: &Program) -> BranchTraceUnit {
        BranchTraceUnit::new(Default::default(), encoded_for(program))
    }

    fn tournament(program: &Program, threshold: u32) -> Frontend {
        let cfg = config(DefenseMode::Tournament).with_tournament_threshold(threshold);
        Frontend::new(program, &cfg, Some(btu_for(program)))
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
        let mut src = tournament(&program, 2);
        for (i, &target) in targets.iter().enumerate() {
            let e = crypto_event(inner_pc, target != inner_pc + 1, target, Some(targets[0]));
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
        assert_eq!(src.confidence(inner_pc), 2, "saturated");
        assert!(
            src.bpu_stats().pht_lookups >= 2,
            "the BPU handled cold runs"
        );
        assert!(src.btu_stats().unwrap().lookups >= targets.len() as u64);
    }

    #[test]
    fn tournament_without_traces_never_promotes() {
        let program = tiny_program();
        let cfg = config(DefenseMode::Tournament).with_tournament_threshold(0);
        let mut src = Frontend::new(&program, &cfg, None);
        // Threshold 0 means instantly hot, but with no BTU the replay falls
        // back to a stall (as under trace-less Cassandra).
        let d = src.on_branch(&crypto_event(0, true, 0, Some(0)));
        assert_eq!(d.outcome, FetchOutcome::Stall);
        assert!(!d.opens_speculation_window);
        assert!(!src.on_context_switch(1), "no partition state to switch");
    }

    #[test]
    fn tournament_confidence_is_per_context() {
        // Promotion earned by context 0 must not leak to context 1, and must
        // survive switching away and back — mirroring partition residency.
        let program = nested_crypto_program();
        let mut src = tournament(&program, 1);
        // Register the initial context (not a counted switch).
        assert!(!src.on_context_switch(0));
        let e = crypto_event(3, true, 2, Some(2));
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
        // Cassandra-lite has no partition state: a context switch is priced
        // as a whole-unit flush.
        let program = nested_crypto_program();
        let mut src = Frontend::new(
            &program,
            &config(DefenseMode::CassandraLite),
            Some(btu_for(&program)),
        );
        assert!(src.on_context_switch(1));
        assert_eq!(src.btu_stats().unwrap().flushes, 1);
    }

    /// A crypto program whose branch at PC 3 is single-target (to PC 4)
    /// when `single` is set, and multi-target (a loop back-edge) otherwise.
    fn lite_tenant(single: bool) -> Program {
        use cassandra_isa::reg::{A0, ZERO};
        let mut b = ProgramBuilder::new(if single { "single" } else { "multi" });
        b.begin_crypto();
        b.li(A0, if single { 1 } else { 3 });
        b.label("loop");
        b.addi(A0, A0, -1);
        b.nop();
        b.bne(A0, ZERO, "loop");
        b.end_crypto();
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn lite_source_serves_the_incoming_tenants_hints() {
        let (a, b) = (lite_tenant(false), lite_tenant(true));
        let hint_at_3 = |p: &Program| encoded_for(p).hint(3);
        assert!(matches!(
            hint_at_3(&a),
            Some(BranchHint::MultiTarget { .. })
        ));
        assert_eq!(hint_at_3(&b), Some(BranchHint::SingleTarget { target: 4 }));
        let mut src = Frontend::new(&a, &config(DefenseMode::CassandraLite), Some(btu_for(&a)));
        src.register_btu_context(0, Arc::new(encoded_for(&a)));
        src.register_btu_context(1, Arc::new(encoded_for(&b)));
        let branch = crypto_event(3, false, 4, Some(1));
        assert_eq!(src.on_branch(&branch).outcome, FetchOutcome::Stall);
        // Tenant B runs next: its single-target hint lets fetch proceed.
        assert!(src.on_context_switch(1), "still priced as a flush");
        assert_eq!(
            src.on_branch(&branch).outcome,
            FetchOutcome::Proceed { extra_latency: 0 }
        );
        assert!(src.on_context_switch(0));
        assert_eq!(src.on_branch(&branch).outcome, FetchOutcome::Stall);
        assert_eq!(src.btu_stats().unwrap().flushes, 2);
    }

    #[test]
    fn btu_source_forwards_context_switches() {
        let program = nested_crypto_program();
        let cfg = config(DefenseMode::Cassandra);
        let mut src = Frontend::new(&program, &cfg, Some(btu_for(&program)));
        // The first call registers the initial context: nothing counted.
        assert!(!src.on_context_switch(1));
        assert_eq!(src.btu_stats().unwrap().partition_switches, 0);
        // A real change forwards the BTU's verdict and counts once.
        assert!(src.on_context_switch(2));
        assert_eq!(src.btu_stats().unwrap().partition_switches, 1);
        // Re-activating the active context is a no-op, in agreement.
        assert!(!src.on_context_switch(2));
        assert_eq!(src.btu_stats().unwrap().partition_switches, 1);
        let mut none = Frontend::new(&program, &cfg, None);
        assert!(!none.on_context_switch(1));
    }

    #[test]
    fn swap_tenant_state_exchanges_the_bpu() {
        let program = tiny_program();
        let mut src = Frontend::new(&program, &config(DefenseMode::UnsafeBaseline), None);
        src.on_branch(&event(10, true, 2, Some(2)));
        let trained = src.bpu_stats();
        assert!(trained.pht_lookups >= 1);
        // Switching to a fresh tenant materializes an untrained BPU…
        let mut tenant_a = None;
        src.swap_tenant(&program, &mut tenant_a);
        assert_eq!(src.bpu_stats(), BpuStats::default());
        assert!(tenant_a.is_some(), "the trained BPU went into the slot");
        // …and swapping back restores the trained one exactly.
        src.swap_tenant(&program, &mut tenant_a);
        assert_eq!(src.bpu_stats(), trained);
    }

    #[test]
    fn integrity_check_blocks_speculative_entry_into_crypto_ranges() {
        let program = tiny_program(); // PC 0 is crypto.
        let mut src = Frontend::new(&program, &config(DefenseMode::Cassandra), None);
        // Non-crypto branch whose predicted target (taken, direct target 0)
        // lands inside the crypto range: the frontend must stall instead of
        // redirecting speculatively.
        let d = src.on_branch(&event(5, true, 0, Some(0)));
        assert_eq!(d.outcome, FetchOutcome::Stall);
        assert!(d.opens_speculation_window);
    }
}
