//! Multi-program (consolidated) simulation: N mutually-distrusting tenants
//! round-robin over **one** shared pipeline and Branch Trace Unit.
//!
//! This is the paper's deployment story — many crypto services packed onto
//! one core — made concrete. Each tenant is a distinct [`Program`] with its
//! own encoded traces; the scheduler hands out fixed instruction quanta at
//! the flush-interval boundary and, on every switch, checkpoints the
//! outgoing tenant's full architectural state (PC, registers, memory, taint,
//! call depth, BPU history, access traces) and restores the incoming one's.
//! The caches, the BTU, and the pipeline's timing state are *shared*: that
//! is where the contention the consolidation experiment measures comes from.
//!
//! Tenant isolation invariants (pinned by the determinism tests):
//!
//! * a tenant's committed instruction stream and architectural access trace
//!   are identical to a solo run of the same program — interleaving may
//!   change *when* things happen, never *what* happens;
//! * timing structures never alias across tenants: per-tenant address salts
//!   model distinct physical pages behind equal virtual addresses, so one
//!   tenant's lines and store-queue entries cannot serve another's.

use crate::bpu::BpuStats;
use crate::config::CpuConfig;
use crate::pipeline::{Simulator, TenantCheckpoint};
use crate::stats::SimStats;
use cassandra_btu::encode::EncodedTraces;
use cassandra_btu::unit::{BranchTraceUnit, ContextBtuStats, VictimPolicy};
use cassandra_isa::error::IsaError;
use cassandra_isa::program::Program;
use std::sync::Arc;

/// Scheduling quantum (committed instructions per turn) when the
/// configuration does not specify a flush interval.
pub const DEFAULT_QUANTUM: u64 = 5_000;

/// How the shared BTU is handed between tenants at a quantum boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchPolicy {
    /// Whole-unit flush per switch: the paper's conservative model. With a
    /// single shared Trace Cache partition every context change degrades to
    /// a flush-equivalent, so each incoming tenant starts cold.
    Flush,
    /// Cassandra-part: the Trace Cache is way-partitioned per context and a
    /// switch only reassigns the active partition; the steal victim is the
    /// partition furthest from the active one (round-robin under two
    /// partitions).
    Partition,
    /// Scheduler-driven: way-partitioned like [`SwitchPolicy::Partition`],
    /// but the OS scheduler picks steal victims from the observed
    /// per-context BTU working-set size — the smallest resident set loses
    /// its partition, not whoever is furthest in the rotation.
    WorkingSet,
}

impl SwitchPolicy {
    /// Stable lowercase label for reports and experiment keys.
    pub fn label(&self) -> &'static str {
        match self {
            SwitchPolicy::Flush => "flush",
            SwitchPolicy::Partition => "partition",
            SwitchPolicy::WorkingSet => "scheduler",
        }
    }
}

/// One tenant of a consolidated run: a program plus its own encoded traces
/// for the shared BTU (`None` for defenses that do not replay).
#[derive(Debug)]
pub struct Tenant<'p> {
    /// The tenant's program.
    pub program: &'p Program,
    /// The tenant's own BTU traces, registered under its context id.
    pub traces: Option<Arc<EncodedTraces>>,
}

/// One tenant's slice of a consolidated run's outcome.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// The tenant's context id (its index in the tenant list).
    pub context: u64,
    /// Instructions this tenant committed.
    pub committed_instructions: u64,
    /// Core cycles attributed to this tenant: the sum of the cycle deltas
    /// of its quanta. Comparing against a solo run of the same program
    /// gives the tenant's consolidation slowdown.
    pub attributed_cycles: u64,
    /// True if the tenant's program executed its `halt` instruction.
    pub halted: bool,
    /// The tenant's own committed-path data accesses, in order.
    pub architectural_accesses: Vec<u64>,
    /// The tenant's own squashed wrong-path accesses, in order.
    pub transient_accesses: Vec<u64>,
}

/// The outcome of a consolidated multi-tenant run.
#[derive(Debug, Clone)]
pub struct MultiTenantOutcome {
    /// Whole-core statistics: totals across every tenant, the shared BTU
    /// and cache counters, and the context-switch count.
    pub stats: SimStats,
    /// Per-tenant slices, indexed by context id.
    pub tenants: Vec<TenantOutcome>,
    /// Per-context BTU statistics (hits, misses, evictions, steals
    /// suffered, working-set estimate), one entry per context the BTU saw.
    pub btu_contexts: Vec<ContextBtuStats>,
}

impl MultiTenantOutcome {
    /// The BTU's per-context statistics for `context`, if the unit saw it.
    pub fn context_stats(&self, context: u64) -> Option<&ContextBtuStats> {
        self.btu_contexts.iter().find(|c| c.context == context)
    }
}

/// The per-tenant address salt: a high-bit tag far above any program text or
/// data address, preserving line/granule alignment under XOR.
fn salt_of(context: usize) -> u64 {
    (context as u64) << 44
}

/// Round-robins N tenants over one shared pipeline + BTU, switching at the
/// configured flush-interval boundary.
///
/// `config.max_instructions` is the *per-tenant* budget (as in a solo run);
/// `config.btu_flush_interval` is the scheduling quantum
/// ([`DEFAULT_QUANTUM`] if zero). The BTU partition count comes from
/// `config.btu` (one shared partition under plain Cassandra, two under
/// Cassandra-part's preset), exactly as in single-tenant runs; the
/// [`SwitchPolicy`] selects the steal-victim policy on top.
#[derive(Debug)]
pub struct MultiTenantSimulator<'p> {
    sim: Simulator<'p>,
    /// `parked[i]` holds tenant `i`'s checkpoint for every `i != active`;
    /// `parked[active]` holds a placeholder whose contents are dead until
    /// the next switch moves the outgoing tenant's state into it.
    parked: Vec<TenantCheckpoint<'p>>,
    active: usize,
    quantum: u64,
    budget_per_tenant: u64,
    committed: Vec<u64>,
    cycles: Vec<u64>,
}

impl<'p> MultiTenantSimulator<'p> {
    /// Builds a consolidated run over `tenants` (at least one). `btu` is the
    /// shared unit (typically constructed from the first tenant's traces,
    /// with `config.btu`'s geometry);
    /// each tenant's own traces are registered under its context id, and
    /// tenant 0 is the initially active context.
    pub fn new(
        tenants: Vec<Tenant<'p>>,
        config: CpuConfig,
        policy: SwitchPolicy,
        btu: Option<BranchTraceUnit>,
    ) -> Self {
        assert!(!tenants.is_empty(), "a consolidated run needs tenants");
        let quantum = if config.btu_flush_interval > 0 {
            config.btu_flush_interval
        } else {
            DEFAULT_QUANTUM
        };
        let budget_per_tenant = config.max_instructions;
        // The inner pipeline must not also rotate synthetic contexts or
        // flush periodically — the scheduler here drives every switch.
        let mut inner_cfg = config;
        inner_cfg.btu_flush_interval = 0;
        inner_cfg.btu_switch_contexts = 0;
        let n = tenants.len();
        let mut sim = Simulator::new(tenants[0].program, inner_cfg, btu);
        for (context, tenant) in tenants.iter().enumerate() {
            if let Some(traces) = &tenant.traces {
                sim.frontend_mut()
                    .register_btu_context(context as u64, Arc::clone(traces));
            }
        }
        if policy == SwitchPolicy::WorkingSet {
            sim.frontend_mut()
                .set_btu_victim_policy(VictimPolicy::SmallestWorkingSet);
        }
        // Tenant 0's first activation registers its context and is never
        // counted as a switch: nothing was running before it. Replaying
        // frontends report it as no switch; Cassandra-lite prices it as a
        // flush of the still-empty unit, as a single-tenant rotation does.
        sim.frontend_mut().on_context_switch(0);
        let parked = tenants
            .iter()
            .map(|t| TenantCheckpoint::fresh(t.program))
            .collect();
        MultiTenantSimulator {
            sim,
            parked,
            active: 0,
            quantum,
            budget_per_tenant,
            committed: vec![0; n],
            cycles: vec![0; n],
        }
    }

    /// Whether tenant `i` still has work and budget.
    fn runnable(&self, i: usize) -> bool {
        let halted = if i == self.active {
            self.sim.active_halted()
        } else {
            self.parked[i].halted()
        };
        !halted && self.committed[i] < self.budget_per_tenant
    }

    /// Parks the active tenant and restores tenant `next`, charging the
    /// switch to the configured policy.
    fn switch_to(&mut self, next: usize) {
        // `parked[next]` holds tenant `next`: one swap makes it live and
        // leaves the outgoing tenant's state in that slot; the slot swap
        // then restores the "`parked[i]` is tenant `i`" invariant.
        self.sim.swap_tenant(&mut self.parked[next], salt_of(next));
        self.parked.swap(self.active, next);
        if self.sim.frontend_mut().on_context_switch(next as u64) {
            self.sim.note_context_switch();
        }
        self.active = next;
    }

    /// Runs every tenant to completion (or its per-tenant budget) and
    /// returns the consolidated outcome.
    ///
    /// # Errors
    ///
    /// Propagates the first tenant's architectural execution error.
    pub fn run(mut self) -> Result<MultiTenantOutcome, IsaError> {
        let n = self.parked.len();
        loop {
            if self.runnable(self.active) {
                let quantum = self
                    .quantum
                    .min(self.budget_per_tenant - self.committed[self.active]);
                let cycle_before = self.sim.current_cycle();
                let done = self.sim.run_bounded(quantum)?;
                self.committed[self.active] += done;
                self.cycles[self.active] += self.sim.current_cycle() - cycle_before;
            }
            // Round-robin to the next runnable tenant; staying on the only
            // remaining one costs no switch.
            let next = (1..=n)
                .map(|k| (self.active + k) % n)
                .find(|&i| self.runnable(i));
            match next {
                None => break,
                Some(i) if i == self.active => {}
                Some(i) => self.switch_to(i),
            }
        }
        self.finish()
    }

    /// Parks the last active tenant and assembles the outcome.
    fn finish(mut self) -> Result<MultiTenantOutcome, IsaError> {
        let active = self.active;
        // The placeholder becomes live and is discarded with the simulator;
        // every tenant's state is now in its own slot.
        self.sim.swap_tenant(&mut self.parked[active], 0);
        let core = self.sim.into_outcome();
        let mut stats = core.stats;
        // The live BPU at finalization was the placeholder's; the real
        // predictors are parked. Aggregate them for the whole-core view.
        let mut bpu = BpuStats::default();
        for slot in &self.parked {
            let s = slot.bpu_stats();
            bpu.pht_lookups += s.pht_lookups;
            bpu.btb_lookups += s.btb_lookups;
            bpu.rsb_lookups += s.rsb_lookups;
            bpu.updates += s.updates;
        }
        stats.bpu = bpu;
        let tenants = self
            .parked
            .into_iter()
            .enumerate()
            .map(|(context, slot)| {
                let halted = slot.halted();
                let (architectural_accesses, transient_accesses) = slot.into_traces();
                TenantOutcome {
                    context: context as u64,
                    committed_instructions: self.committed[context],
                    attributed_cycles: self.cycles[context],
                    halted,
                    architectural_accesses,
                    transient_accesses,
                }
            })
            .collect();
        Ok(MultiTenantOutcome {
            stats,
            tenants,
            btu_contexts: core.btu_contexts,
        })
    }
}

/// Convenience entry point: consolidates `tenants` under `config` and the
/// given switch policy.
///
/// # Errors
///
/// Propagates architectural execution errors.
pub fn simulate_multi<'p>(
    tenants: Vec<Tenant<'p>>,
    config: CpuConfig,
    policy: SwitchPolicy,
    btu: Option<BranchTraceUnit>,
) -> Result<MultiTenantOutcome, IsaError> {
    MultiTenantSimulator::new(tenants, config, policy, btu).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DefenseMode;
    use crate::pipeline::simulate;
    use cassandra_isa::builder::ProgramBuilder;
    use cassandra_isa::reg::{A0, A1, A2, T0, ZERO};
    use cassandra_trace::genproc::generate_traces;

    fn defense(label: &str) -> DefenseMode {
        label.parse().expect("known defense label")
    }

    /// A crypto loop over `words` data words, `iters` iterations; distinct
    /// `seed`s give tenants distinct data images and footprints.
    fn tenant_program(name: &str, iters: u64, words: u64, seed: u64) -> Program {
        let mut b = ProgramBuilder::new(name);
        b.begin_crypto();
        let data = b.alloc_u64s(
            "data",
            &(0..words).map(|i| i.wrapping_mul(seed)).collect::<Vec<_>>(),
        );
        b.li(A0, iters);
        b.label("outer");
        b.li(A1, data);
        b.li(A2, 0);
        let mut inner = words;
        b.label("inner");
        b.ld(T0, A1, 0);
        b.add(A2, A2, T0);
        b.addi(A1, A1, 8);
        b.addi(A0, A0, 0); // keep the loop body width distinct per program
        let _ = &mut inner;
        b.li(T0, data + 8 * words);
        b.bne(A1, T0, "inner");
        b.addi(A0, A0, -1);
        b.bne(A0, ZERO, "outer");
        b.end_crypto();
        b.halt();
        b.build().unwrap()
    }

    fn encoded_for(program: &Program) -> EncodedTraces {
        let bundle = generate_traces(program, None, 10_000_000).unwrap();
        EncodedTraces::from_bundle(program, &bundle)
    }

    fn tenants_for<'p>(programs: &'p [Program]) -> Vec<Tenant<'p>> {
        programs
            .iter()
            .map(|p| Tenant {
                program: p,
                traces: Some(Arc::new(encoded_for(p))),
            })
            .collect()
    }

    /// The shared unit, over the first tenant's traces with `cfg`'s
    /// geometry.
    fn shared_btu(programs: &[Program], cfg: &CpuConfig) -> Option<BranchTraceUnit> {
        Some(BranchTraceUnit::new(cfg.btu, encoded_for(&programs[0])))
    }

    fn mix() -> Vec<Program> {
        vec![
            tenant_program("t0", 12, 8, 3),
            tenant_program("t1", 9, 16, 5),
            tenant_program("t2", 15, 4, 7),
        ]
    }

    fn consolidation_cfg(defense: DefenseMode) -> CpuConfig {
        CpuConfig::golden_cove_like()
            .with_defense(defense)
            .with_btu_flush_interval(40)
    }

    /// Interleaving N tenants then taking one context's committed stream
    /// equals running that tenant alone, under both the flush and the
    /// partition switch policies, and under Cassandra-lite, which prices
    /// every switch (the first activation included) as a flush.
    #[test]
    fn interleaved_tenants_match_their_solo_runs() {
        let programs = mix();
        for (policy, label) in [
            (SwitchPolicy::Flush, defense("Cassandra")),
            (SwitchPolicy::Flush, defense("Cassandra-lite")),
            (SwitchPolicy::Partition, defense("Cassandra-part")),
        ] {
            let cfg = consolidation_cfg(label);
            let outcome = simulate_multi(
                tenants_for(&programs),
                cfg,
                policy,
                shared_btu(&programs, &cfg),
            )
            .unwrap();
            assert_eq!(outcome.tenants.len(), programs.len());
            for (i, program) in programs.iter().enumerate() {
                let mut solo_cfg = cfg;
                solo_cfg.btu_flush_interval = 0;
                let solo = simulate(
                    program,
                    solo_cfg,
                    Some(BranchTraceUnit::new(cfg.btu, encoded_for(program))),
                )
                .unwrap();
                let tenant = &outcome.tenants[i];
                assert!(tenant.halted, "tenant {i} under {policy:?} must finish");
                assert_eq!(
                    tenant.committed_instructions, solo.stats.committed_instructions,
                    "tenant {i} under {policy:?}: committed stream length"
                );
                assert_eq!(
                    tenant.architectural_accesses, solo.architectural_accesses,
                    "tenant {i} under {policy:?}: architectural access trace"
                );
            }
        }
    }

    /// The consolidated run actually switches contexts, agrees with the BTU
    /// on the count, and surfaces per-context statistics for every tenant.
    #[test]
    fn consolidation_counts_switches_and_surfaces_per_context_stats() {
        let programs = mix();
        let cfg = consolidation_cfg(defense("Cassandra-part"));
        let outcome = simulate_multi(
            tenants_for(&programs),
            cfg,
            SwitchPolicy::Partition,
            shared_btu(&programs, &cfg),
        )
        .unwrap();
        assert!(outcome.stats.context_switches > 1, "switches happened");
        assert_eq!(
            outcome.stats.context_switches, outcome.stats.btu.partition_switches,
            "pipeline and BTU must agree on what counts as a switch"
        );
        for tenant in &outcome.tenants {
            let ctx = outcome
                .context_stats(tenant.context)
                .unwrap_or_else(|| panic!("context {} has BTU stats", tenant.context));
            assert!(ctx.lookups > 0, "context {} replayed", tenant.context);
        }
        let total: u64 = outcome
            .tenants
            .iter()
            .map(|t| t.committed_instructions)
            .sum();
        assert_eq!(total, outcome.stats.committed_instructions);
    }

    /// Under the scheduler-driven policy the victim choice is working-set
    /// aware; the run completes with the same architectural streams.
    #[test]
    fn working_set_policy_preserves_architectural_behaviour() {
        let programs = mix();
        let cfg = consolidation_cfg(defense("Cassandra-part"));
        let partition = simulate_multi(
            tenants_for(&programs),
            cfg,
            SwitchPolicy::Partition,
            shared_btu(&programs, &cfg),
        )
        .unwrap();
        let scheduler = simulate_multi(
            tenants_for(&programs),
            cfg,
            SwitchPolicy::WorkingSet,
            shared_btu(&programs, &cfg),
        )
        .unwrap();
        for (p, s) in partition.tenants.iter().zip(&scheduler.tenants) {
            assert_eq!(p.architectural_accesses, s.architectural_accesses);
            assert_eq!(p.committed_instructions, s.committed_instructions);
        }
        assert_eq!(
            scheduler.stats.context_switches,
            partition.stats.context_switches
        );
    }
}
