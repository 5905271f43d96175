//! Experiment drivers that regenerate every table and figure of the paper's
//! evaluation (§7) plus the discussion experiments (Q3, Q4).
//!
//! Each driver is a `*_with(&SweepExecutor, ..)` function, the form the
//! [`crate::registry`] experiments call: analyses are shared through the
//! executor's [`AnalysisStore`](crate::eval::AnalysisStore), so running
//! several experiments over the same suite analyzes each program exactly
//! once.
//!
//! Each driver takes the list of workloads to evaluate so that tests can use
//! small inputs while the `full_evaluation` example uses the paper-sized
//! suite from [`cassandra_kernels::suite::full_suite`].

use crate::eval::SweepExecutor;
use cassandra_cpu::config::{CpuConfig, DefenseMode};
use cassandra_cpu::power::{power_area_report, PowerAreaReport};
use cassandra_cpu::stats::SimStats;
use cassandra_isa::error::IsaError;
use cassandra_kernels::suite;
use cassandra_kernels::synthetic::{self, CryptoVariant, MixPoint};
use cassandra_kernels::workload::{Workload, WorkloadGroup};
use cassandra_trace::stats::{summary_row, BranchAnalysisRow};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// The four designs compared in Figure 7.
pub const FIG7_DESIGNS: [DefenseMode; 4] = [
    DefenseMode::UnsafeBaseline,
    DefenseMode::Cassandra,
    DefenseMode::CassandraStl,
    DefenseMode::Spt,
];

// ---------------------------------------------------------------- Table 1

/// One Table-1 row together with its workload group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Workload group (BearSSL / OpenSSL / PQC).
    pub group: WorkloadGroup,
    /// The branch-analysis statistics.
    pub row: BranchAnalysisRow,
}

/// The complete Table-1 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Result {
    /// Per-workload rows.
    pub rows: Vec<Table1Row>,
    /// The aggregated "All" row.
    pub all: BranchAnalysisRow,
}

/// Regenerates Table 1 (branch analysis / trace compression) on an
/// executor.
///
/// # Errors
///
/// Propagates analysis errors.
pub fn table1_with(
    ex: &SweepExecutor<'_>,
    workloads: &[Workload],
) -> Result<Table1Result, IsaError> {
    let mut rows = Vec::new();
    for w in workloads {
        let (analysis, _) = ex.store().entry(&w.kernel.program, w.kernel.step_limit)?;
        let mut row = analysis.branch_row();
        row.program = w.name.clone();
        rows.push(Table1Row {
            group: w.group,
            row,
        });
    }
    let all = summary_row(&rows.iter().map(|r| r.row.clone()).collect::<Vec<_>>());
    Ok(Table1Result { rows, all })
}

// ---------------------------------------------------------------- Figure 7

/// One workload's execution times under the Figure-7 designs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Row {
    /// Workload name.
    pub workload: String,
    /// Workload group.
    pub group: WorkloadGroup,
    /// Cycle counts per design label.
    pub cycles: BTreeMap<String, u64>,
    /// Execution time normalised to the unsafe baseline.
    pub normalized: BTreeMap<String, f64>,
}

/// The complete Figure-7 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Result {
    /// Per-workload rows.
    pub rows: Vec<Fig7Row>,
    /// Geometric mean of the normalised execution time per design.
    pub geomean: BTreeMap<String, f64>,
}

impl Fig7Result {
    /// The average speedup (negative = slowdown) of a design versus the
    /// unsafe baseline, in percent.
    pub fn speedup_pct(&self, design: DefenseMode) -> f64 {
        self.speedup_pct_of(design.label())
    }

    /// [`Fig7Result::speedup_pct`] by design label — the one place the
    /// speedup formula lives (reports reuse it per swept design).
    pub fn speedup_pct_of(&self, label: &str) -> f64 {
        self.geomean
            .get(label)
            .map_or(0.0, |norm| (1.0 - norm) * 100.0)
    }
}

/// Regenerates Figure 7 (normalised execution time of the crypto benchmarks)
/// on an executor.
///
/// # Errors
///
/// Propagates analysis or simulation errors.
pub fn figure7_with(
    ex: &SweepExecutor<'_>,
    workloads: &[Workload],
    designs: &[DefenseMode],
) -> Result<Fig7Result, IsaError> {
    let base_cfg = CpuConfig::golden_cove_like();
    let mut rows = Vec::new();
    for w in workloads {
        let mut cycles = BTreeMap::new();
        for design in designs {
            let cfg = base_cfg.with_defense(*design);
            let outcome = ex.simulate(w, &cfg)?;
            cycles.insert(design.label().to_string(), outcome.stats.cycles);
        }
        let base = *cycles
            .get(DefenseMode::UnsafeBaseline.label())
            .unwrap_or(&1)
            .max(&1);
        let normalized = cycles
            .iter()
            .map(|(k, v)| (k.clone(), *v as f64 / base as f64))
            .collect();
        rows.push(Fig7Row {
            workload: w.name.clone(),
            group: w.group,
            cycles,
            normalized,
        });
    }
    let mut geomean = BTreeMap::new();
    for design in designs {
        let label = design.label().to_string();
        let product: f64 = rows
            .iter()
            .filter_map(|r| r.normalized.get(&label))
            .map(|v| v.ln())
            .sum();
        let count = rows.len().max(1) as f64;
        geomean.insert(label, (product / count).exp());
    }
    Ok(Fig7Result { rows, geomean })
}

// ---------------------------------------------------------------- Figure 8

/// One point of Figure 8: a sandbox/crypto mix under one crypto variant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Point {
    /// Crypto variant ("chacha20" with a public stack, "curve25519" with a
    /// secret stack).
    pub variant: String,
    /// Mix label ("90s/10c" … "all-crypto").
    pub mix: String,
    /// ProSpeCT execution-time overhead versus the unsafe baseline (percent;
    /// negative values are speedups).
    pub prospect_overhead_pct: f64,
    /// Cassandra+ProSpeCT overhead versus the unsafe baseline (percent).
    pub cassandra_prospect_overhead_pct: f64,
}

/// Regenerates Figure 8 (synthetic SpectreGuard-style benchmarks) on an
/// executor.
///
/// # Errors
///
/// Propagates analysis or simulation errors.
pub fn figure8_with(ex: &SweepExecutor<'_>, scale: u32) -> Result<Vec<Fig8Point>, IsaError> {
    let base_cfg = CpuConfig::golden_cove_like();
    let mut points = Vec::new();
    for variant in [CryptoVariant::ChaChaLike, CryptoVariant::CurveLike] {
        for mix in MixPoint::figure8_points() {
            let kernel = synthetic::build_mix(variant, mix, scale);
            let workload = Workload::new(
                format!("{}-{}", variant.label(), mix.label()),
                WorkloadGroup::Synthetic,
                kernel,
            );
            let mut cycles = BTreeMap::new();
            for design in [
                DefenseMode::UnsafeBaseline,
                DefenseMode::Prospect,
                DefenseMode::CassandraProspect,
            ] {
                let cfg = base_cfg.with_defense(design);
                let outcome = ex.simulate(&workload, &cfg)?;
                cycles.insert(design, outcome.stats.cycles);
            }
            let base = cycles[&DefenseMode::UnsafeBaseline].max(1) as f64;
            let overhead = |d: DefenseMode| (cycles[&d] as f64 / base - 1.0) * 100.0;
            points.push(Fig8Point {
                variant: variant.label().to_string(),
                mix: mix.label(),
                prospect_overhead_pct: overhead(DefenseMode::Prospect),
                cassandra_prospect_overhead_pct: overhead(DefenseMode::CassandraProspect),
            });
        }
    }
    Ok(points)
}

// ---------------------------------------------------------------- Figure 9

/// The power/area comparison of Figure 9.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9Result {
    /// Power/area of the unsafe baseline (aggregated over the workloads).
    pub baseline: PowerAreaReport,
    /// Power/area of the Cassandra design.
    pub cassandra: PowerAreaReport,
    /// Relative power change of Cassandra versus the baseline (percent;
    /// negative = reduction).
    pub power_delta_pct: f64,
    /// Area overhead of the BTU relative to the baseline core (percent).
    pub area_overhead_pct: f64,
}

fn accumulate(total: &mut SimStats, s: &SimStats) {
    total.cycles += s.cycles;
    total.committed_instructions += s.committed_instructions;
    total.committed_branches += s.committed_branches;
    total.squashed_instructions += s.squashed_instructions;
    total.mispredictions += s.mispredictions;
    total.bpu.pht_lookups += s.bpu.pht_lookups;
    total.bpu.btb_lookups += s.bpu.btb_lookups;
    total.bpu.rsb_lookups += s.bpu.rsb_lookups;
    total.bpu.updates += s.bpu.updates;
    total.btu.lookups += s.btu.lookups;
    total.btu.commits += s.btu.commits;
    total.caches.l1d.accesses += s.caches.l1d.accesses;
    total.caches.l1d.hits += s.caches.l1d.hits;
    total.caches.l1d.misses += s.caches.l1d.misses;
}

/// Regenerates Figure 9 (power and area of Cassandra vs the baseline) on
/// an executor.
///
/// # Errors
///
/// Propagates analysis or simulation errors.
pub fn figure9_with(
    ex: &SweepExecutor<'_>,
    workloads: &[Workload],
) -> Result<Fig9Result, IsaError> {
    let base_cfg = CpuConfig::golden_cove_like();
    let cass_cfg = base_cfg.with_defense(DefenseMode::Cassandra);
    let mut base_stats = SimStats::default();
    let mut cass_stats = SimStats::default();
    for w in workloads {
        accumulate(&mut base_stats, &ex.simulate(w, &base_cfg)?.stats);
        accumulate(&mut cass_stats, &ex.simulate(w, &cass_cfg)?.stats);
    }
    let baseline = power_area_report(&base_cfg, &base_stats);
    let cassandra = power_area_report(&cass_cfg, &cass_stats);
    let power_delta_pct = (cassandra.total_power / baseline.total_power - 1.0) * 100.0;
    let area_overhead_pct = (cassandra.total_area / baseline.total_area - 1.0) * 100.0;
    Ok(Fig9Result {
        baseline,
        cassandra,
        power_delta_pct,
        area_overhead_pct,
    })
}

// ----------------------------------------- Q3: restricted-frontend variants

/// The restricted-frontend variants the Q3 experiment compares against full
/// Cassandra by default: the paper's Cassandra-lite, plus the serializing
/// Fence lower bound and the zero-Trace-Cache Cassandra-noTC scenario.
pub const Q3_VARIANTS: [DefenseMode; 3] = [
    DefenseMode::CassandraLite,
    DefenseMode::Fence,
    DefenseMode::CassandraNoTc,
];

/// One row of the restricted-frontend comparison (discussion Q3): a
/// workload under one variant, versus full Cassandra.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Q3Row {
    /// Workload name.
    pub workload: String,
    /// Workload group.
    pub group: WorkloadGroup,
    /// Label of the compared variant.
    pub design: String,
    /// Cycles under full Cassandra.
    pub cassandra_cycles: u64,
    /// Cycles under the variant.
    pub variant_cycles: u64,
    /// Slowdown of the variant over Cassandra, in percent.
    pub slowdown_pct: f64,
}

/// Regenerates the Q3 comparison on an executor: every
/// workload under full Cassandra versus each `variant`. New frontend
/// policies run through here unchanged — pass their modes.
///
/// # Errors
///
/// Propagates analysis or simulation errors.
pub fn q3_with(
    ex: &SweepExecutor<'_>,
    workloads: &[Workload],
    variants: &[DefenseMode],
) -> Result<Vec<Q3Row>, IsaError> {
    let base_cfg = CpuConfig::golden_cove_like();
    let mut rows = Vec::new();
    for w in workloads {
        let full = ex.simulate(w, &base_cfg.with_defense(DefenseMode::Cassandra))?;
        for variant in variants {
            let restricted = ex.simulate(w, &base_cfg.with_defense(*variant))?;
            rows.push(Q3Row {
                workload: w.name.clone(),
                group: w.group,
                design: variant.label().to_string(),
                cassandra_cycles: full.stats.cycles,
                variant_cycles: restricted.stats.cycles,
                slowdown_pct: (restricted.stats.cycles as f64 / full.stats.cycles.max(1) as f64
                    - 1.0)
                    * 100.0,
            });
        }
    }
    Ok(rows)
}

// ----------------------------------------------- Q4: context-switch pricing

/// The Q4 context-switch interval in committed instructions.
pub const Q4_FLUSH_INTERVAL: u64 = 50_000;

/// Default number of application contexts the Q4 partition-reassignment
/// variant rotates through — one per partition of the `Cassandra-part`
/// design point, so the rotation never steals.
pub const Q4_PARTITION_CONTEXTS: u64 = DefenseMode::PARTITIONED_BTU_CONTEXTS as u64;

/// The Q4 result: Cassandra's speedup without context switches, and with
/// context switches priced two ways — as whole-BTU flushes (the paper's Q4
/// model) and as per-context partition reassignments (the partitioned-BTU
/// deployment), side by side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Q4Result {
    /// Geomean speedup of Cassandra without context switches (percent).
    pub speedup_no_flush_pct: f64,
    /// Geomean speedup when every context switch flushes the whole BTU
    /// (percent).
    pub speedup_with_flush_pct: f64,
    /// Geomean speedup when every context switch is a partition
    /// reassignment on the way-partitioned BTU (percent).
    pub speedup_with_partition_pct: f64,
    /// The context-switch interval used (committed instructions).
    pub flush_interval: u64,
    /// Number of application contexts rotated through by the partition
    /// variant.
    pub partition_contexts: u64,
}

/// Regenerates the Q4 experiment on an executor: Cassandra's
/// speedup with context switches priced as whole-unit flushes versus as
/// partition reassignments rotating through `partition_contexts` contexts.
///
/// # Errors
///
/// Propagates analysis or simulation errors.
pub fn q4_with(
    ex: &SweepExecutor<'_>,
    workloads: &[Workload],
    flush_interval: u64,
    partition_contexts: u64,
) -> Result<Q4Result, IsaError> {
    let base_cfg = CpuConfig::golden_cove_like();
    let flush_cfg = base_cfg
        .with_defense(DefenseMode::Cassandra)
        .with_btu_flush_interval(flush_interval);
    let part_cfg = base_cfg
        .with_defense(DefenseMode::CassandraPartitioned)
        .with_btu_flush_interval(flush_interval)
        .with_btu_switch_contexts(partition_contexts.max(1));
    let mut log_sum_no_flush = 0.0;
    let mut log_sum_flush = 0.0;
    let mut log_sum_part = 0.0;
    for w in workloads {
        let base = ex.simulate(w, &base_cfg)?.stats.cycles.max(1);
        let cass = ex
            .simulate(w, &base_cfg.with_defense(DefenseMode::Cassandra))?
            .stats
            .cycles
            .max(1);
        let flushed = ex.simulate(w, &flush_cfg)?.stats.cycles.max(1);
        let partitioned = ex.simulate(w, &part_cfg)?.stats.cycles.max(1);
        log_sum_no_flush += (cass as f64 / base as f64).ln();
        log_sum_flush += (flushed as f64 / base as f64).ln();
        log_sum_part += (partitioned as f64 / base as f64).ln();
    }
    let n = workloads.len().max(1) as f64;
    let speedup = |log_sum: f64| (1.0 - (log_sum / n).exp()) * 100.0;
    Ok(Q4Result {
        speedup_no_flush_pct: speedup(log_sum_no_flush),
        speedup_with_flush_pct: speedup(log_sum_flush),
        speedup_with_partition_pct: speedup(log_sum_part),
        flush_interval,
        partition_contexts: partition_contexts.max(1),
    })
}

// --------------------------------------------------- §7.5: trace generation

/// Per-workload trace-generation timing (the paper's §7.5).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceGenRow {
    /// Workload name.
    pub workload: String,
    /// Static branch detection (step A).
    pub detect: Duration,
    /// Raw trace collection (step B).
    pub collect: Duration,
    /// Vanilla trace construction (step C).
    pub vanilla: Duration,
    /// DNA encoding + k-mers compression (steps D-E).
    pub kmers: Duration,
    /// Number of analyzed branches.
    pub branches: usize,
}

/// Measures the trace-generation procedure for each workload on an
/// executor. Workloads its store already analyzed report their cached
/// timing.
///
/// # Errors
///
/// Propagates analysis errors.
pub fn trace_generation_timing_with(
    ex: &SweepExecutor<'_>,
    workloads: &[Workload],
) -> Result<Vec<TraceGenRow>, IsaError> {
    let mut rows = Vec::new();
    for w in workloads {
        let (analysis, _) = ex.store().entry(&w.kernel.program, w.kernel.step_limit)?;
        let t = analysis.summary.timing;
        rows.push(TraceGenRow {
            workload: w.name.clone(),
            detect: t.detect,
            collect: t.collect,
            vanilla: t.vanilla,
            kmers: t.kmers,
            branches: analysis.analyzed_branches(),
        });
    }
    Ok(rows)
}

/// A small subset of the suite used by tests and quick demos.
pub fn quick_workloads() -> Vec<Workload> {
    vec![
        suite::chacha20_workload(128),
        suite::sha256_workload(128),
        suite::poly1305_workload(64),
        suite::des_workload(8),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::AnalysisStore;

    #[test]
    fn table1_quick_suite_compresses_traces() {
        let store = AnalysisStore::new();
        let result = table1_with(&SweepExecutor::new(&store), &quick_workloads()).unwrap();
        assert_eq!(result.rows.len(), 4);
        assert!(result.all.compression_avg >= 1.0);
        assert!(result.all.vanilla_max >= result.all.kmers_max);
        // The headline property: compressed traces are small.
        assert!(
            result.all.kmers_avg < 64.0,
            "kmers avg {}",
            result.all.kmers_avg
        );
    }

    #[test]
    fn figure7_quick_suite_shapes() {
        let workloads = vec![suite::chacha20_workload(128), suite::sha256_workload(128)];
        let store = AnalysisStore::new();
        let result = figure7_with(&SweepExecutor::new(&store), &workloads, &FIG7_DESIGNS).unwrap();
        assert_eq!(result.rows.len(), 2);
        // The baseline normalises to 1.0 by construction.
        for row in &result.rows {
            assert!((row.normalized[DefenseMode::UnsafeBaseline.label()] - 1.0).abs() < 1e-12);
        }
        // Cassandra must not be slower than the baseline on crypto kernels
        // (the paper reports a small speedup).
        let cass = result.geomean[DefenseMode::Cassandra.label()];
        assert!(cass <= 1.02, "Cassandra normalised time {cass}");
        // SPT must not be faster than Cassandra.
        assert!(result.geomean[DefenseMode::Spt.label()] >= cass - 1e-9);
    }

    #[test]
    fn figure9_reports_small_area_and_power_effects() {
        let workloads = vec![suite::chacha20_workload(64)];
        let store = AnalysisStore::new();
        let f9 = figure9_with(&SweepExecutor::new(&store), &workloads).unwrap();
        assert!(f9.area_overhead_pct > 0.0 && f9.area_overhead_pct < 3.0);
        assert!(
            f9.power_delta_pct < 1.0,
            "power delta {}",
            f9.power_delta_pct
        );
    }

    #[test]
    fn q3_lite_is_not_faster_than_full_cassandra() {
        let store = AnalysisStore::new();
        let rows = q3_with(
            &SweepExecutor::new(&store),
            &[suite::sha256_workload(96)],
            &[DefenseMode::CassandraLite],
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].design, DefenseMode::CassandraLite.label());
        assert!(rows[0].slowdown_pct >= 0.0);
    }

    #[test]
    fn q3_compares_every_restricted_variant_against_cassandra() {
        let workloads = [suite::chacha20_workload(64)];
        let store = AnalysisStore::new();
        let rows = q3_with(&SweepExecutor::new(&store), &workloads, &Q3_VARIANTS).unwrap();
        assert_eq!(rows.len(), Q3_VARIANTS.len());
        for (row, variant) in rows.iter().zip(Q3_VARIANTS) {
            assert_eq!(row.design, variant.label());
            assert!(
                row.slowdown_pct >= 0.0,
                "{}: a restricted frontend cannot beat full Cassandra",
                row.design
            );
        }
        // The serializing Fence baseline is strictly slower than Cassandra.
        let fence = rows
            .iter()
            .find(|r| r.design == DefenseMode::Fence.label())
            .unwrap();
        assert!(fence.variant_cycles > fence.cassandra_cycles);
    }

    #[test]
    fn q4_flush_costs_at_most_a_little() {
        let workloads = vec![suite::chacha20_workload(64)];
        let store = AnalysisStore::new();
        let q4 = q4_with(
            &SweepExecutor::new(&store),
            &workloads,
            5_000,
            Q4_PARTITION_CONTEXTS,
        )
        .unwrap();
        assert!(q4.speedup_with_flush_pct <= q4.speedup_no_flush_pct + 1e-9);
        assert_eq!(q4.partition_contexts, Q4_PARTITION_CONTEXTS);
    }

    #[test]
    fn q4_partition_reassignment_beats_whole_flushes() {
        // A short switch interval makes the whole-unit flush pay many Trace
        // Cache refills; the partitioned BTU keeps every context's partition
        // warm across switches and must not be slower.
        let workloads = vec![suite::chacha20_workload(64)];
        let store = AnalysisStore::new();
        let q4 = q4_with(&SweepExecutor::new(&store), &workloads, 2_000, 2).unwrap();
        assert!(
            q4.speedup_with_partition_pct >= q4.speedup_with_flush_pct - 1e-9,
            "partition {} vs flush {}",
            q4.speedup_with_partition_pct,
            q4.speedup_with_flush_pct
        );
        assert!(q4.speedup_with_partition_pct <= q4.speedup_no_flush_pct + 1e-9);
    }

    #[test]
    fn trace_generation_timing_is_collected() {
        let store = AnalysisStore::new();
        let rows =
            trace_generation_timing_with(&SweepExecutor::new(&store), &[suite::des_workload(4)])
                .unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].branches > 0);
    }

    #[test]
    fn session_drivers_share_one_analysis_per_workload() {
        let workloads = quick_workloads();
        let store = AnalysisStore::new();
        let ex = SweepExecutor::new(&store);
        table1_with(&ex, &workloads).unwrap();
        figure7_with(&ex, &workloads, &FIG7_DESIGNS).unwrap();
        figure9_with(&ex, &workloads).unwrap();
        q3_with(&ex, &workloads, &Q3_VARIANTS).unwrap();
        q4_with(&ex, &workloads, Q4_FLUSH_INTERVAL, Q4_PARTITION_CONTEXTS).unwrap();
        trace_generation_timing_with(&ex, &workloads).unwrap();
        assert_eq!(
            store.stats().misses,
            workloads.len() as u64,
            "each workload analyzed exactly once across six experiments"
        );
        assert!(store.stats().hits > 0);
    }
}
