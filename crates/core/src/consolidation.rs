//! The consolidation experiment: N-tenant multiprogramming on one core.
//!
//! The paper's deployment story packs many mutually-distrusting crypto
//! services onto one physical core; this experiment measures what that
//! costs. A mix of tenants (cycled from the given workload suite) is
//! round-robined over one shared pipeline and Branch Trace Unit by
//! [`cassandra_cpu::multi::MultiTenantSimulator`], under each of the three
//! switch policies the repo models:
//!
//! * `flush` — plain Cassandra, one shared Trace Cache partition; every
//!   context switch degrades to a whole-unit flush (the paper's Q4 model);
//! * `partition` — Cassandra-part, the Trace Cache way-partitioned per
//!   context with the documented furthest-from-active steal victim;
//! * `scheduler` — Cassandra-part with OS-scheduler-driven victim choice:
//!   the context with the smallest observed BTU working set loses its
//!   partition.
//!
//! Each tenant's consolidation slowdown is its attributed cycles over a solo
//! run of the same workload under the same defense; per-context BTU
//! hit/steal/eviction statistics come straight from the shared unit.

use crate::eval::SweepExecutor;
use cassandra_btu::unit::ContextBtuStats;
use cassandra_cpu::config::{CpuConfig, DefenseMode};
use cassandra_cpu::multi::{simulate_multi, SwitchPolicy, Tenant};
use cassandra_isa::error::IsaError;
use cassandra_kernels::workload::Workload;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Default tenant count of the standard registry experiment (the smallest
/// mix the acceptance bar calls "consolidated").
pub const CONSOLIDATION_TENANTS: usize = 4;

/// Default scheduling quantum (committed instructions per turn).
pub const CONSOLIDATION_QUANTUM: u64 = 5_000;

/// The (switch policy, defense) pairs the experiment sweeps, in reporting
/// order.
pub const CONSOLIDATION_POLICIES: [(SwitchPolicy, DefenseMode); 3] = [
    (SwitchPolicy::Flush, DefenseMode::Cassandra),
    (SwitchPolicy::Partition, DefenseMode::CassandraPartitioned),
    (SwitchPolicy::WorkingSet, DefenseMode::CassandraPartitioned),
];

/// One tenant's row of a consolidated run: its share of the core and its
/// view of the shared BTU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsolidationTenantRow {
    /// Workload name of this tenant's program.
    pub workload: String,
    /// The tenant's context id (its slot in the mix).
    pub context: u64,
    /// Instructions the tenant committed.
    pub committed_instructions: u64,
    /// Core cycles attributed to this tenant's quanta.
    pub attributed_cycles: u64,
    /// Cycles of a solo run of the same workload under the same defense.
    pub solo_cycles: u64,
    /// Consolidation slowdown: attributed over solo cycles (1.0 = free).
    pub slowdown: f64,
    /// The shared BTU's per-context statistics for this tenant.
    pub btu: ContextBtuStats,
}

/// The consolidated mix evaluated under one switch policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsolidationPolicyResult {
    /// Switch-policy label (`flush`, `partition`, `scheduler`).
    pub policy: String,
    /// The defense the mix ran under.
    pub defense: DefenseMode,
    /// Context switches the scheduler performed.
    pub context_switches: u64,
    /// Whole-core cycles of the consolidated run.
    pub total_cycles: u64,
    /// Geometric-mean per-tenant slowdown vs solo.
    pub geomean_slowdown: f64,
    /// Per-tenant rows, indexed by context id.
    pub tenants: Vec<ConsolidationTenantRow>,
}

/// The full consolidation experiment: one tenant mix × every switch policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsolidationResult {
    /// Tenants in the mix.
    pub tenant_count: usize,
    /// Scheduling quantum (committed instructions per turn).
    pub quantum: u64,
    /// One result per swept (policy, defense) pair.
    pub policies: Vec<ConsolidationPolicyResult>,
}

/// Runs the consolidation experiment through a sweep executor: a
/// `tenant_count`-tenant mix cycled from `workloads`, scheduled with
/// `quantum`-instruction turns, under every [`CONSOLIDATION_POLICIES`]
/// pair. Solo baselines reuse the store's memoized analyses.
///
/// # Errors
///
/// Propagates analysis or simulation errors.
pub fn consolidation_with(
    ex: &SweepExecutor<'_>,
    workloads: &[Workload],
    tenant_count: usize,
    quantum: u64,
) -> Result<ConsolidationResult, IsaError> {
    let quantum = quantum.max(1);
    let mut result = ConsolidationResult {
        tenant_count,
        quantum,
        policies: Vec::new(),
    };
    if workloads.is_empty() || tenant_count == 0 {
        return Ok(result);
    }
    // The mix cycles the suite so any suite size yields `tenant_count`
    // tenants; repeated programs share one analysis through the store.
    let picks: Vec<&Workload> = (0..tenant_count)
        .map(|i| &workloads[i % workloads.len()])
        .collect();
    let analyses = picks
        .iter()
        .map(|w| Ok(ex.store().entry(&w.kernel.program, w.kernel.step_limit)?.0))
        .collect::<Result<Vec<_>, IsaError>>()?;
    let budget = picks
        .iter()
        .map(|w| w.kernel.step_limit)
        .max()
        .unwrap_or_default();

    for (policy, defense) in CONSOLIDATION_POLICIES {
        let solo_cfg = CpuConfig::golden_cove_like().with_defense(defense);
        let mut cfg = solo_cfg.with_btu_flush_interval(quantum);
        cfg.max_instructions = cfg.max_instructions.max(budget);
        let tenants: Vec<Tenant<'_>> = picks
            .iter()
            .zip(&analyses)
            .map(|(w, a)| Tenant {
                program: &w.kernel.program,
                traces: Some(Arc::clone(&a.encoded)),
            })
            .collect();
        let btu = defense.uses_btu().then(|| analyses[0].make_btu(&cfg));
        let outcome = simulate_multi(tenants, cfg, policy, btu)?;

        // Solo baselines, one per distinct workload in the mix.
        let mut solo: HashMap<&str, u64> = HashMap::new();
        for w in &picks {
            if !solo.contains_key(w.name.as_str()) {
                let cycles = ex.simulate(w, &solo_cfg)?.stats.cycles;
                solo.insert(w.name.as_str(), cycles);
            }
        }

        let mut log_sum = 0.0;
        let tenants: Vec<ConsolidationTenantRow> = picks
            .iter()
            .zip(&outcome.tenants)
            .map(|(w, t)| {
                let solo_cycles = solo[w.name.as_str()];
                let slowdown = t.attributed_cycles as f64 / solo_cycles.max(1) as f64;
                log_sum += slowdown.max(f64::MIN_POSITIVE).ln();
                let btu = outcome
                    .context_stats(t.context)
                    .copied()
                    .unwrap_or(ContextBtuStats {
                        context: t.context,
                        ..ContextBtuStats::default()
                    });
                ConsolidationTenantRow {
                    workload: w.name.clone(),
                    context: t.context,
                    committed_instructions: t.committed_instructions,
                    attributed_cycles: t.attributed_cycles,
                    solo_cycles,
                    slowdown,
                    btu,
                }
            })
            .collect();
        result.policies.push(ConsolidationPolicyResult {
            policy: policy.label().to_string(),
            defense,
            context_switches: outcome.stats.context_switches,
            total_cycles: outcome.stats.cycles,
            geomean_slowdown: (log_sum / tenants.len().max(1) as f64).exp(),
            tenants,
        });
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::AnalysisStore;
    use crate::experiments::quick_workloads;

    #[test]
    fn consolidation_covers_every_policy_and_tenant() {
        let workloads = quick_workloads();
        let store = AnalysisStore::new();
        let result = consolidation_with(&SweepExecutor::new(&store), &workloads, 4, 2_000).unwrap();
        assert_eq!(result.tenant_count, 4);
        assert_eq!(result.policies.len(), 3);
        assert_eq!(
            result
                .policies
                .iter()
                .map(|p| p.policy.as_str())
                .collect::<Vec<_>>(),
            ["flush", "partition", "scheduler"]
        );
        for policy in &result.policies {
            assert_eq!(policy.tenants.len(), 4);
            assert!(
                policy.context_switches > 0,
                "{}: a 4-tenant mix must switch",
                policy.policy
            );
            for t in &policy.tenants {
                assert!(t.committed_instructions > 0, "{}", t.workload);
                assert!(t.solo_cycles > 0, "{}", t.workload);
                assert!(
                    t.slowdown.is_finite() && t.slowdown > 0.0,
                    "{}: slowdown {}",
                    t.workload,
                    t.slowdown
                );
                assert!(
                    t.btu.lookups > 0,
                    "{}: context {} must replay through the BTU",
                    t.workload,
                    t.context
                );
                let rate = t.btu.hit_rate();
                assert!((0.0..=1.0).contains(&rate), "hit rate {rate}");
            }
            assert!(policy.geomean_slowdown.is_finite());
        }
        // Solo baselines ran through the shared store: four distinct
        // programs analyzed once each, everything else a hit.
        assert_eq!(store.stats().misses, 4);
    }

    #[test]
    fn empty_inputs_yield_an_empty_result() {
        let store = AnalysisStore::new();
        let ex = SweepExecutor::new(&store);
        let result = consolidation_with(&ex, &[], 4, 1_000).unwrap();
        assert!(result.policies.is_empty());
        let workloads = quick_workloads();
        let result = consolidation_with(&ex, &workloads, 0, 1_000).unwrap();
        assert!(result.policies.is_empty());
    }
}
