//! Cross-crate integration tests: the full analyze → encode → simulate
//! pipeline on real kernels, across all defense designs, differentially
//! checked against the golden baseline stream via the shared harness.

mod common;

use cassandra::kernels::suite;
use cassandra::prelude::*;

/// Every design must preserve architectural behaviour: same committed
/// instruction count, same architectural access trace as the golden
/// baseline. The matrix runner covers the whole standard registry —
/// including `Tournament` and `Cassandra-part` — without listing variants.
#[test]
fn all_designs_preserve_architectural_behaviour() {
    let workloads = [suite::poly1305_workload(64)];
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    common::assert_standard_matrix_preserves_goldens(&ex, &workloads);
}

/// Cassandra's headline property on real kernels: zero mispredictions, zero
/// squashes, and all crypto branch redirections served by the BTU or hints.
#[test]
fn cassandra_replays_crypto_branches_without_speculation() {
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let cfg = CpuConfig::golden_cove_like().with_defense(DefenseMode::Cassandra);
    for workload in common::quick_workloads() {
        let outcome = ex.simulate(&workload, &cfg).unwrap();
        assert_eq!(outcome.stats.mispredictions, 0, "{}", workload.name);
        assert_eq!(outcome.stats.squashed_instructions, 0, "{}", workload.name);
        assert!(
            outcome.stats.btu.single_target_lookups <= outcome.stats.btu.lookups,
            "single-target lookups are a subset of all BTU lookups"
        );
        assert_eq!(
            outcome.stats.btu.stall_lookups, 0,
            "{}: every crypto branch must have a usable hint or trace",
            workload.name
        );
        assert!(
            outcome.stats.committed_crypto_branches > 0,
            "{} must execute crypto branches",
            workload.name
        );
    }
}

/// The baseline speculates: crypto kernels show BPU activity and at least the
/// loop-exit mispredictions that Cassandra avoids.
#[test]
fn baseline_speculates_on_crypto_branches() {
    let workload = suite::sha256_workload(192);
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let golden = common::capture_golden(&ex, &workload);
    assert!(golden.outcome.stats.bpu.pht_lookups > 0);
    assert!(golden.outcome.stats.mispredictions > 0);
}

/// Cassandra must not be slower than the unsafe baseline on the quick suite
/// (the paper reports a small speedup on the full suite).
#[test]
fn cassandra_is_not_slower_than_the_baseline_on_crypto_kernels() {
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let cass_cfg = CpuConfig::golden_cove_like().with_defense(DefenseMode::Cassandra);
    for workload in suite::quick_suite() {
        let golden = common::capture_golden(&ex, &workload);
        let cassandra = ex.simulate(&workload, &cass_cfg).unwrap();
        common::assert_matches_golden(&golden, &cassandra, "Cassandra");
        assert!(
            cassandra.stats.cycles as f64 <= golden.outcome.stats.cycles as f64 * 1.02,
            "{}: Cassandra {} cycles vs baseline {}",
            workload.name,
            cassandra.stats.cycles,
            golden.outcome.stats.cycles
        );
    }
}

/// The synthetic Figure-8 workloads run end to end under the ProSpeCT
/// combinations and preserve architectural behaviour.
#[test]
fn synthetic_mixes_run_under_prospect_designs() {
    use cassandra::kernels::synthetic::{build_mix, CryptoVariant, MixPoint};
    use cassandra::kernels::workload::{Workload, WorkloadGroup};
    let mix = MixPoint {
        sandbox_pct: 50,
        crypto_pct: 50,
    };
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    for variant in [CryptoVariant::ChaChaLike, CryptoVariant::CurveLike] {
        let kernel = build_mix(variant, mix, 4);
        let workload = Workload::new("mix", WorkloadGroup::Synthetic, kernel);
        let golden = common::capture_golden(&ex, &workload);
        for defense in [DefenseMode::Prospect, DefenseMode::CassandraProspect] {
            let cfg = CpuConfig::golden_cove_like().with_defense(defense);
            let outcome = ex.simulate(&workload, &cfg).unwrap();
            common::assert_matches_golden(&golden, &outcome, defense.label());
        }
    }
}
