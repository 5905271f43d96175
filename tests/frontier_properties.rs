//! Frontier dominance property tests over seeded random grids.
//!
//! The invariants, checked with an independent re-implementation of the
//! dominance relation:
//!
//! * no returned frontier point is dominated by **any** swept cell,
//! * every non-frontier full-suite cell is dominated by at least one
//!   frontier point, and
//! * the frontier (in fact the whole `FrontierResult`) is deterministic
//!   across worker-thread counts (`threads=1` vs `threads=4`), for both the
//!   exhaustive and the successive-halving search.
//!
//! Grids are generated from the shared seeded xorshift generator, so a
//! failure is replayable from the printed seed.

mod common;

use cassandra::core::frontier::{frontier_with, standard_grid, AdaptiveSearch, FrontierResult};
use cassandra::prelude::*;

/// Independent dominance oracle: no worse on both axes, strictly better on
/// at least one (deliberately not the library's helper).
fn dominated_by(a: (f64, usize), b: (f64, usize)) -> bool {
    b.0 <= a.0 && b.1 <= a.1 && (b.0 < a.0 || b.1 < a.1)
}

fn run(
    store: &AnalysisStore,
    workloads: &[Workload],
    grid: &GridSweep,
    adaptive: Option<AdaptiveSearch>,
    threads: usize,
) -> FrontierResult {
    frontier_with(
        &SweepExecutor::new(store).with_threads(Some(threads)),
        workloads,
        grid,
        adaptive,
        &CancelToken::new(),
        |_| {},
    )
    .expect("frontier run")
    .expect("not cancelled")
}

/// Asserts the dominance invariants of one result.
fn assert_frontier_invariants(result: &FrontierResult, context: &str) {
    assert!(!result.frontier.is_empty(), "{context}: empty frontier");
    let full_cells: Vec<_> = result.cells.iter().filter(|c| c.full_suite).collect();
    // No frontier point is dominated by any swept full-suite cell. (Pruned
    // smoke-only cells carry incomparable smoke-subset scores, and the
    // exhaustive search has none.)
    for point in &result.frontier {
        for cell in &full_cells {
            assert!(
                !dominated_by(
                    (point.geomean_slowdown, point.security_leaks),
                    (cell.geomean_slowdown, cell.security_leaks),
                ),
                "{context}: frontier point {} is dominated by swept cell {}",
                point.label,
                cell.label
            );
        }
    }
    // Every non-frontier full-suite cell is dominated by >= 1 frontier point.
    for cell in &full_cells {
        if cell.on_frontier {
            continue;
        }
        assert!(
            result.frontier.iter().any(|p| dominated_by(
                (cell.geomean_slowdown, cell.security_leaks),
                (p.geomean_slowdown, p.security_leaks),
            )),
            "{context}: non-frontier cell {} is dominated by no frontier point",
            cell.label
        );
        assert!(
            cell.dominated_by >= 1,
            "{context}: non-frontier cell {} has dominated_by == 0",
            cell.label
        );
    }
    // The frontier is exactly the set of non-dominated full-suite cells.
    assert_eq!(
        result.frontier.len(),
        full_cells.iter().filter(|c| c.on_frontier).count(),
        "{context}: frontier/cell bookkeeping diverged"
    );
}

/// A seeded random grid: two distinct defenses plus random knob axes.
fn random_grid(rng: &mut common::Rng) -> GridSweep {
    let pool = [
        DefenseMode::UnsafeBaseline,
        DefenseMode::Cassandra,
        DefenseMode::Fence,
        DefenseMode::Tournament,
    ];
    let first = pool[rng.range(0, pool.len() as u64) as usize];
    let second = loop {
        let candidate = pool[rng.range(0, pool.len() as u64) as usize];
        if candidate != first {
            break candidate;
        }
    };
    let mut pick = |values: &[u64]| -> Vec<u64> {
        let count = rng.range(0, 3) as usize;
        let mut chosen: Vec<u64> = Vec::new();
        for _ in 0..count {
            let v = values[rng.range(0, values.len() as u64) as usize];
            if !chosen.contains(&v) {
                chosen.push(v);
            }
        }
        chosen
    };
    let entries = pick(&[4, 8, 16, 32]);
    let misses = pick(&[10, 20, 40]);
    let redirects = pick(&[6, 12]);
    GridSweep::over([first, second])
        .btu_entries(entries.iter().map(|&e| e as usize))
        .miss_penalties(misses.iter().copied())
        .redirect_penalties(redirects.iter().copied())
}

#[test]
fn random_grid_frontiers_satisfy_the_dominance_invariants() {
    const SEED: u64 = 0x5eed_f00d;
    let workloads = common::quick_workloads();
    let mut rng = common::Rng::new(SEED);
    let store = AnalysisStore::new();
    for round in 0..3 {
        let grid = random_grid(&mut rng);
        let context = format!("seed {SEED:#x} round {round}");
        let serial = run(&store, &workloads, &grid, None, 1);
        assert_frontier_invariants(&serial, &context);
        // Thread-count determinism: the whole result — scores, dominance
        // counts, frontier order — is identical under 4 workers.
        let threaded = run(&store, &workloads, &grid, None, 4);
        assert_eq!(
            serial, threaded,
            "{context}: thread count changed the result"
        );
    }
}

#[test]
fn adaptive_search_is_deterministic_across_thread_counts() {
    let workloads = common::quick_workloads();
    let store = AnalysisStore::new();
    let adaptive = Some(AdaptiveSearch::default());
    let serial = run(&store, &workloads, &standard_grid(), adaptive, 1);
    assert_frontier_invariants(&serial, "adaptive standard grid");
    let threaded = run(&store, &workloads, &standard_grid(), adaptive, 4);
    assert_eq!(serial, threaded);
    assert!(serial.adaptive && serial.rungs.len() == 2);
}
