//! The successive-halving differential harness: on the quick workload
//! suite, `AdaptiveSearch` must report a frontier **identical** to the
//! exhaustive `FrontierResult` while simulating strictly fewer full-suite
//! cells, and a repeat adaptive run must be served entirely from the
//! shared `AnalysisStore` (zero new cache misses).

mod common;

use cassandra::core::frontier::{frontier_with, standard_grid, AdaptiveSearch};
use cassandra::prelude::*;

#[test]
fn adaptive_frontier_matches_exhaustive_with_fewer_full_suite_cells() {
    let workloads = common::quick_workloads();
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let cancel = CancelToken::new();

    let exhaustive = frontier_with(&ex, &workloads, &standard_grid(), None, &cancel, |_| {})
        .expect("exhaustive run")
        .expect("not cancelled");
    assert_eq!(
        exhaustive.cells_simulated_full, exhaustive.cells_total,
        "the exhaustive search scores every cell on the full suite"
    );

    let adaptive = frontier_with(
        &ex,
        &workloads,
        &standard_grid(),
        Some(AdaptiveSearch::default()),
        &cancel,
        |_| {},
    )
    .expect("adaptive run")
    .expect("not cancelled");

    // The headline: identical frontier (labels, defenses, bit-identical
    // slowdowns — the smoke subset is a workload prefix, so survivors'
    // geomeans sum in the same order), strictly fewer full-suite cells.
    assert_eq!(
        adaptive.frontier, exhaustive.frontier,
        "successive halving changed the Pareto frontier"
    );
    let saved = exhaustive
        .cells_simulated_full
        .checked_sub(adaptive.cells_simulated_full)
        .expect("adaptive must not simulate more full-suite cells");
    assert!(
        saved > 0,
        "successive halving saved no full-suite cells ({} vs {})",
        adaptive.cells_simulated_full,
        exhaustive.cells_simulated_full
    );
    assert_eq!(adaptive.rungs.len(), 2, "smoke rung + survivor rung");
    assert!(
        adaptive.rungs[0].cells_kept < adaptive.rungs[0].cells_in,
        "the smoke rung must prune: {:?}",
        adaptive.rungs
    );

    // A repeat adaptive run re-simulates but re-analyzes nothing: pure
    // AnalysisStore cache hits.
    let misses_before = store.stats().misses;
    let repeat = frontier_with(
        &ex,
        &workloads,
        &standard_grid(),
        Some(AdaptiveSearch::default()),
        &cancel,
        |_| {},
    )
    .expect("repeat run")
    .expect("not cancelled");
    assert_eq!(repeat, adaptive, "the repeat run must reproduce the result");
    assert_eq!(
        store.stats().misses,
        misses_before,
        "the repeat adaptive run must be pure analysis-cache hits"
    );
}
