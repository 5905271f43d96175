//! Invariants of the pluggable frontend/defense-policy layer, driven by the
//! shared differential-test harness in `common`.
//!
//! Every policy registered in the standard [`PolicyRegistry`] — including
//! the `Fence`, `Cassandra-noTC`, `Tournament` and `Cassandra-part`
//! scenarios added purely as policies — must preserve architectural
//! behaviour exactly (the golden committed stream), run through the existing
//! experiment drivers without driver edits, and sit where the paper's
//! performance ordering expects.

mod common;

use cassandra::core::experiments::{figure7_with, q3_with};
use cassandra::core::security::security_sweep_with;
use cassandra::kernels::gadgets::{BranchSite, LeakGadget};
use cassandra::kernels::suite;
use cassandra::prelude::*;

/// The sweep-matrix invariant: every registered policy commits the
/// identical instruction stream and the identical architectural data-access
/// trace as the unsafe baseline — defenses change timing, never semantics.
/// The matrix runner re-checks this for every policy anyone registers.
#[test]
fn every_registered_policy_preserves_the_architectural_trace() {
    let workloads = [suite::chacha20_workload(64), suite::des_workload(4)];
    let registry = PolicyRegistry::standard();
    assert_eq!(registry.len(), DefenseMode::ALL.len());
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    common::run_policy_matrix(&ex, &workloads, &registry, |_, _, _, _| {});
}

/// Standard-registry labels are unique and every one round-trips through
/// `DefenseMode::from_str`, including the two new design points.
#[test]
fn registry_labels_are_unique_and_round_trip() {
    let registry = PolicyRegistry::standard();
    let mut labels = registry.labels();
    assert!(labels.contains(&"Tournament"));
    assert!(labels.contains(&"Cassandra-part"));
    for label in &labels {
        let mode: DefenseMode = label.parse().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(mode.label(), *label, "label must round-trip exactly");
        assert_eq!(
            registry.get(label).expect("registered").config.defense,
            mode
        );
    }
    labels.sort_unstable();
    labels.dedup();
    assert_eq!(labels.len(), registry.len(), "labels must be unique");
}

/// The policy-only scenarios run through the existing Figure-7 driver with
/// no driver edits, and the performance ordering holds: `Fence` is strictly
/// slower than Cassandra (serializing lower bound), restricted Trace Cache
/// variants cannot beat the full one.
#[test]
fn new_policies_run_through_fig7_unchanged() {
    let workloads = vec![suite::chacha20_workload(64), suite::sha256_workload(96)];
    let designs = [
        DefenseMode::UnsafeBaseline,
        DefenseMode::Cassandra,
        DefenseMode::Fence,
        DefenseMode::CassandraNoTc,
        DefenseMode::CassandraPartitioned,
        DefenseMode::Tournament,
    ];
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let fig7 = figure7_with(&ex, &workloads, &designs).unwrap();
    let cassandra = fig7.geomean[DefenseMode::Cassandra.label()];
    let fence = fig7.geomean[DefenseMode::Fence.label()];
    let no_tc = fig7.geomean[DefenseMode::CassandraNoTc.label()];
    let partitioned = fig7.geomean[DefenseMode::CassandraPartitioned.label()];
    assert!(
        fence > cassandra,
        "Fence ({fence:.4}) must be strictly slower than Cassandra ({cassandra:.4})"
    );
    assert!(
        no_tc >= cassandra,
        "a zero-entry Trace Cache cannot beat the full one"
    );
    assert!(
        partitioned >= cassandra - 1e-12,
        "halving the per-context Trace Cache cannot beat the full one"
    );
    // Per-workload, not just in the geomean.
    for row in &fig7.rows {
        assert!(
            row.cycles[DefenseMode::Fence.label()] > row.cycles[DefenseMode::Cassandra.label()],
            "{}: Fence must be strictly slower",
            row.workload
        );
    }
}

/// Same for the Q3 driver: the new policies are just more variants.
#[test]
fn new_policies_run_through_q3_unchanged() {
    let workloads = [suite::chacha20_workload(64)];
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let rows = q3_with(
        &ex,
        &workloads,
        &[
            DefenseMode::Fence,
            DefenseMode::CassandraNoTc,
            DefenseMode::CassandraPartitioned,
        ],
    )
    .unwrap();
    assert_eq!(rows.len(), 3);
    let fence = &rows[0];
    assert_eq!(fence.design, DefenseMode::Fence.label());
    assert!(
        fence.variant_cycles > fence.cassandra_cycles,
        "Fence strictly slower than Cassandra"
    );
    assert!(rows[1].slowdown_pct >= 0.0);
    assert_eq!(rows[2].design, DefenseMode::CassandraPartitioned.label());
    assert!(
        rows[2].slowdown_pct >= -1e-9,
        "a way-partitioned Trace Cache cannot beat the unpartitioned one"
    );
}

/// `Cassandra-noTC` replays exactly like Cassandra but pays a Trace Cache
/// miss on every multi-target lookup: nonzero `BtuStats::misses`, zero hits.
#[test]
fn cassandra_no_tc_streams_every_multi_target_lookup() {
    let w = suite::sha256_workload(96);
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let base = CpuConfig::golden_cove_like();
    let full = ex
        .simulate(&w, &base.with_defense(DefenseMode::Cassandra))
        .unwrap();
    let no_tc = ex
        .simulate(&w, &base.with_defense(DefenseMode::CassandraNoTc))
        .unwrap();
    assert_eq!(no_tc.stats.mispredictions, 0, "replay is still exact");
    assert!(no_tc.stats.btu.misses > 0, "every lookup streams");
    assert_eq!(no_tc.stats.btu.hits, 0, "nothing is ever resident");
    assert!(no_tc.stats.btu.misses > full.stats.btu.misses);
    assert!(no_tc.stats.cycles >= full.stats.cycles);
}

/// A grid axis overrides the defense's preset geometry: `Cassandra-noTC`
/// swept over `btu_entries: [8]` gets an 8-entry Trace Cache, so it hits
/// and runs exactly like `Cassandra+btu8`, not like plain `Cassandra-noTC`.
#[test]
fn grid_btu_entries_give_cassandra_no_tc_a_trace_cache() {
    let w = suite::chacha20_workload(64);
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let grid =
        GridSweep::over([DefenseMode::CassandraNoTc, DefenseMode::Cassandra]).btu_entries([8]);
    let stats: Vec<_> = grid
        .design_points()
        .iter()
        .map(|point| {
            (
                point.label.clone(),
                ex.simulate(&w, &point.config).unwrap().stats,
            )
        })
        .collect();
    assert_eq!(stats[0].0, "Cassandra-noTC+btu8");
    assert_eq!(stats[1].0, "Cassandra+btu8");
    assert!(stats[0].1.btu.hits > 0, "the 8-entry Trace Cache hits");
    assert_eq!(stats[0].1, stats[1].1);
    let no_tc = ex
        .simulate(
            &w,
            &CpuConfig::golden_cove_like().with_defense(DefenseMode::CassandraNoTc),
        )
        .unwrap();
    assert_eq!(no_tc.stats.btu.hits, 0);
    assert!(no_tc.stats.cycles > stats[0].1.cycles);
}

/// The tournament frontend exercises both of its components on a real
/// kernel: cold crypto branches train the BPU, hot ones replay the BTU, and
/// the architectural stream still matches the golden baseline (checked by
/// the matrix runner above; re-checked here against the captured golden).
#[test]
fn tournament_uses_both_components_and_matches_the_golden_stream() {
    let w = suite::sha256_workload(96);
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let golden = common::capture_golden(&ex, &w);
    let outcome = ex
        .simulate(
            &w,
            &CpuConfig::golden_cove_like().with_defense(DefenseMode::Tournament),
        )
        .unwrap();
    common::assert_matches_golden(&golden, &outcome, "Tournament");
    assert!(outcome.stats.btu.lookups > 0, "hot branches replay the BTU");
    assert!(
        outcome.stats.bpu.pht_lookups > 0,
        "cold branches hit the BPU"
    );
    // Full Cassandra never opens a crypto speculation window; the tournament
    // may (cold branches), but promotion keeps it at or below the baseline's
    // squash behaviour.
    let baseline = &golden.outcome;
    assert!(outcome.stats.mispredictions <= baseline.stats.mispredictions);
}

/// The new policies run through the existing security sweep unchanged:
/// `Fence` never speculates (all eight scenarios protected);
/// `Cassandra-part` protects exactly what Cassandra protects (partitioning
/// changes residency, not replay); `Tournament` trades security for trace
/// storage — its cold crypto branches speculate, so it must NOT protect the
/// crypto-branch scenarios that full Cassandra blocks.
#[test]
fn new_policies_run_through_the_security_sweep_unchanged() {
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let designs = [
        DefenseMode::Fence,
        DefenseMode::CassandraNoTc,
        DefenseMode::CassandraPartitioned,
        DefenseMode::Tournament,
    ];
    let matrix = security_sweep_with(&ex, &designs).unwrap();
    assert_eq!(matrix.cells.len(), 8 * designs.len());
    assert!(matrix.all_protected_under(DefenseMode::Fence.label()));
    for cell in &matrix.cells {
        if cell.design == DefenseMode::Fence.label() {
            assert!(
                !cell.verdict.transient_activity,
                "{}: Fence never executes a wrong path",
                cell.scenario
            );
        }
    }
    for label in [
        DefenseMode::CassandraNoTc.label(),
        DefenseMode::CassandraPartitioned.label(),
    ] {
        let leaks: Vec<_> = matrix
            .cells
            .iter()
            .filter(|c| c.design == label && !c.verdict.is_protected())
            .collect();
        assert_eq!(leaks.len(), 1, "{label}: {leaks:?}");
        assert_eq!(leaks[0].site, BranchSite::NonCrypto);
        assert_eq!(leaks[0].gadget, LeakGadget::NonCryptoMemory);
    }
    // The tournament's modeled weakness: a once-executed (cold) crypto
    // branch speculates and leaks like the baseline.
    let tournament_crypto_leak = matrix.cells.iter().any(|c| {
        c.design == DefenseMode::Tournament.label()
            && c.site == BranchSite::Crypto
            && !c.verdict.is_protected()
    });
    assert!(
        tournament_crypto_leak,
        "cold tournament crypto branches must still leak transiently"
    );
}

/// The policy registry drives the sweep: one record per workload ×
/// registered policy, in registry order.
#[test]
fn builder_policies_sweep_the_whole_registry() {
    let registry = PolicyRegistry::standard();
    let store = AnalysisStore::new();
    let records = SweepExecutor::new(&store)
        .sweep_matrix(&[suite::chacha20_workload(64)], registry.designs())
        .unwrap();
    assert_eq!(records.len(), registry.len());
    let labels: Vec<&str> = records.iter().map(|r| r.design.as_str()).collect();
    assert_eq!(labels, registry.labels());
    assert_eq!(
        store.stats().misses,
        1,
        "one analysis, {} designs",
        registry.len()
    );
}
