//! Pareto-frontier search over grid-sweep expansions: which defense/knob
//! combinations give the best performance at a given security posture?
//!
//! The frontier experiment scores every cell of a [`GridSweep`] expansion on
//! two axes:
//!
//! * **performance** — the geometric-mean slowdown of the cell's
//!   configuration versus `UnsafeBaseline` over a workload group (the same
//!   ln-sum geomean the Figure-7 driver uses), and
//! * **security** — a proxy from the existing empirical security sweep: the
//!   number of leaking (scenario, design) pairs of the cell's defense on the
//!   Table-2 gadget matrix (see [`crate::security::security_sweep_with`]).
//!
//! Cell `A` *dominates* cell `B` when `A` is no worse on both axes and
//! strictly better on at least one; the **frontier** is the non-dominated
//! set. Ties (equal coordinates) are both on the frontier.
//!
//! Two search strategies share one engine:
//!
//! * **Exhaustive** ([`frontier_with`] with `adaptive: None`) simulates every
//!   cell on the full workload group.
//! * **Successive halving** ([`AdaptiveSearch`]) first evaluates *all* cells
//!   on a cheap smoke subset of the workloads (rung 0), keeps the top
//!   [`AdaptiveSearch::keep_fraction`] per security level, and only runs the
//!   survivors on the remaining workloads (rung 1). Smoke-subset cycle
//!   counts are reused — the smoke workloads are a prefix of the group, so a
//!   survivor's full-suite geomean is bit-identical to the exhaustive one —
//!   and every rung streams through the shared
//!   [`AnalysisStore`](crate::eval::AnalysisStore), so analyses run at most
//!   once across rungs, runs and strategies.
//!
//! Both strategies honor a [`CancelToken`] between cells (and between
//! security probes), which is how the evaluation server prunes an in-flight
//! frontier search mid-rung, and both report progress as
//! `{cells_done, cells_total}` simulation counts.
//!
//! Nothing in this module registers into a
//! [`PolicyRegistry`](crate::policies::PolicyRegistry): the grid expansion
//! is consumed as plain design points, so a frontier run (cancelled or not)
//! leaves no registry residue by construction.

use crate::eval::{CancelToken, DesignPoint, SweepExecutor, SweepOutcome};
use crate::policies::GridSweep;
use crate::security;
use cassandra_cpu::config::DefenseMode;
use cassandra_isa::error::IsaError;
use cassandra_kernels::workload::Workload;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default fraction of cells kept per security level after the smoke rung.
pub const DEFAULT_KEEP_FRACTION: f64 = 0.5;

/// Successive-halving configuration for the adaptive frontier search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveSearch {
    /// Fraction of the cells at each security level that survive the smoke
    /// rung (clamped to `(0, 1]`; at least one cell per level always
    /// survives).
    pub keep_fraction: f64,
    /// Number of leading workloads forming the smoke subset; `0` means
    /// automatic (a quarter of the group, rounded up).
    pub smoke_len: usize,
}

impl Default for AdaptiveSearch {
    fn default() -> Self {
        AdaptiveSearch {
            keep_fraction: DEFAULT_KEEP_FRACTION,
            smoke_len: 0,
        }
    }
}

impl AdaptiveSearch {
    fn resolved_smoke_len(&self, workloads: usize) -> usize {
        let auto = workloads.div_ceil(4);
        let requested = if self.smoke_len == 0 {
            auto
        } else {
            self.smoke_len
        };
        requested.clamp(1, workloads.max(1))
    }

    fn kept_of(&self, level_size: usize) -> usize {
        let fraction = if self.keep_fraction > 0.0 && self.keep_fraction <= 1.0 {
            self.keep_fraction
        } else {
            DEFAULT_KEEP_FRACTION
        };
        (((level_size as f64) * fraction).ceil() as usize).clamp(1, level_size.max(1))
    }
}

/// Progress of an in-flight frontier search: completed versus planned
/// simulation cells (baseline reference runs included). Streamed frontier
/// runs emit one line per completed cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontierProgress {
    /// Simulation cells completed so far.
    pub cells_done: usize,
    /// Total simulation cells this run will execute (fixed once the rung
    /// plan is known, before the first simulation).
    pub cells_total: usize,
}

/// One scored grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierCell {
    /// Design-point label of the cell (from the grid expansion).
    pub label: String,
    /// The cell's base defense.
    pub defense: DefenseMode,
    /// Geomean slowdown versus `UnsafeBaseline` over the workloads this cell
    /// was evaluated on (the full group for full-suite cells, the smoke
    /// subset for cells pruned by the adaptive search).
    pub geomean_slowdown: f64,
    /// Security proxy: leaking (scenario, design) pairs of the cell's
    /// defense on the gadget matrix (lower is better).
    pub security_leaks: usize,
    /// True when `geomean_slowdown` covers the full workload group.
    pub full_suite: bool,
    /// True when no full-suite cell dominates this one. Always `false` for
    /// pruned (smoke-only) cells — their scores are not comparable.
    pub on_frontier: bool,
    /// Full-suite cells this cell dominates.
    pub dominates: usize,
    /// Full-suite cells dominating this cell.
    pub dominated_by: usize,
}

/// One non-dominated design point, without dominance bookkeeping — the part
/// of the result the adaptive search must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Design-point label.
    pub label: String,
    /// The point's base defense.
    pub defense: DefenseMode,
    /// Geomean slowdown versus `UnsafeBaseline` over the full group.
    pub geomean_slowdown: f64,
    /// Security proxy (leaking pairs; lower is better).
    pub security_leaks: usize,
}

/// One successive-halving rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RungSummary {
    /// Workloads evaluated in this rung (rung 0: the smoke subset; rung 1:
    /// the rest of the group).
    pub workloads: usize,
    /// Candidate cells entering the rung.
    pub cells_in: usize,
    /// Cells surviving the rung.
    pub cells_kept: usize,
}

/// The result of a frontier search: every scored cell, the non-dominated
/// set, and the rung plan that produced them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierResult {
    /// Names of the swept workload group, in evaluation order.
    pub workloads: Vec<String>,
    /// Every scored cell, in (deduplicated) grid-expansion order.
    pub cells: Vec<FrontierCell>,
    /// The non-dominated set, sorted by (security asc, slowdown asc, label).
    pub frontier: Vec<FrontierPoint>,
    /// The rung plan (one rung for exhaustive runs, two for adaptive).
    pub rungs: Vec<RungSummary>,
    /// Distinct grid cells scored (`cells.len()`).
    pub cells_total: usize,
    /// Cells whose performance was simulated on the full workload group —
    /// the quantity successive halving exists to shrink.
    pub cells_simulated_full: usize,
    /// True when this result came from the adaptive (successive-halving)
    /// search.
    pub adaptive: bool,
}

/// `a` dominates `b`: no worse on both axes, strictly better on one.
fn dominates(a: (f64, usize), b: (f64, usize)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
}

fn geomean_slowdown(cycles: &[u64], base: &[u64]) -> f64 {
    let n = cycles.len().max(1) as f64;
    let sum: f64 = cycles
        .iter()
        .zip(base)
        .map(|(&c, &b)| (c.max(1) as f64 / b.max(1) as f64).ln())
        .sum();
    (sum / n).exp()
}

/// The default frontier grid: the unsafe baseline and Cassandra, swept over
/// BTU geometry and Trace Cache miss penalty. Small enough for `run_all`,
/// and it pins the paper's headline: on crypto kernels Cassandra cells
/// dominate the unsafe baseline outright (faster *and* safer).
pub fn standard_grid() -> GridSweep {
    GridSweep::over([DefenseMode::UnsafeBaseline, DefenseMode::Cassandra])
        .btu_entries([8, 32])
        .miss_penalties([10, 40])
}

/// Runs the frontier search over `workloads` on `ex` (its store shares
/// the analyses; its thread count drives the sweeps); `Ok(None)` when
/// `cancel` stopped the run early.
///
/// `progress` is invoked after every completed simulation cell (baseline
/// reference runs included) with a fixed `cells_total`.
///
/// # Errors
///
/// Propagates analysis or simulation errors.
#[allow(clippy::too_many_lines)]
pub fn frontier_with<P>(
    ex: &SweepExecutor<'_>,
    workloads: &[Workload],
    grid: &GridSweep,
    adaptive: Option<AdaptiveSearch>,
    cancel: &CancelToken,
    mut progress: P,
) -> Result<Option<FrontierResult>, IsaError>
where
    P: FnMut(FrontierProgress) + Send,
{
    // Deduplicate same-labelled cells (labels derive from the
    // configuration, so equal labels mean equal cells) without registering
    // anything anywhere.
    let mut cells: Vec<DesignPoint> = Vec::new();
    for point in grid.design_points() {
        if !cells.iter().any(|c| c.label == point.label) {
            cells.push(point);
        }
    }
    let n_workloads = workloads.len();
    let n_cells = cells.len();
    if n_workloads == 0 || n_cells == 0 {
        return Ok(Some(FrontierResult {
            workloads: workloads.iter().map(|w| w.name.clone()).collect(),
            cells: Vec::new(),
            frontier: Vec::new(),
            rungs: Vec::new(),
            cells_total: 0,
            cells_simulated_full: 0,
            adaptive: adaptive.is_some(),
        }));
    }

    // Security proxy, once per distinct defense; every cell inherits its
    // defense's gadget-matrix leak count.
    let mut leaks_by_defense: BTreeMap<&'static str, usize> = BTreeMap::new();
    for cell in &cells {
        let mode = cell.config.defense;
        if leaks_by_defense.contains_key(mode.label()) {
            continue;
        }
        if cancel.is_cancelled() {
            return Ok(None);
        }
        let matrix = security::security_sweep_with(ex, &[mode])?;
        leaks_by_defense.insert(mode.label(), matrix.leak_count());
    }
    let cell_leaks: Vec<usize> = cells
        .iter()
        .map(|c| leaks_by_defense[c.config.defense.label()])
        .collect();

    // Rung plan. Survivor counts per security level depend only on level
    // sizes, so the total simulation count is fixed before the first cell.
    let smoke_len = adaptive.map(|a| a.resolved_smoke_len(n_workloads));
    let planned_full = match adaptive {
        None => n_cells,
        Some(a) => {
            let mut level_sizes: BTreeMap<usize, usize> = BTreeMap::new();
            for &leaks in &cell_leaks {
                *level_sizes.entry(leaks).or_insert(0) += 1;
            }
            level_sizes.values().map(|&size| a.kept_of(size)).sum()
        }
    };
    let cells_total_sims = match smoke_len {
        None => n_workloads + n_cells * n_workloads,
        Some(smoke) => n_workloads + n_cells * smoke + planned_full * (n_workloads - smoke),
    };

    let mut done = 0usize;

    // Streams one workload × design sub-matrix, appending cycle counts in
    // matrix order and reporting progress per cell.
    let mut run_sweep =
        |wl: &[Workload], designs: &[DesignPoint]| -> Result<Option<Vec<u64>>, IsaError> {
            let mut cycles = Vec::with_capacity(wl.len() * designs.len());
            let outcome = ex.sweep_stream(wl, designs, cancel, |record| {
                cycles.push(record.stats.cycles);
                done += 1;
                progress(FrontierProgress {
                    cells_done: done,
                    cells_total: cells_total_sims,
                });
                true
            })?;
            match outcome {
                SweepOutcome::Complete => Ok(Some(cycles)),
                SweepOutcome::Cancelled => Ok(None),
            }
        };

    // Baseline reference: UnsafeBaseline cycles per workload.
    let baseline = [DesignPoint::from_defense(DefenseMode::UnsafeBaseline)];
    let Some(base_cycles) = run_sweep(workloads, &baseline)? else {
        return Ok(None);
    };

    // Rungs. `full_slowdown[i]` is `Some` exactly when cell `i` was
    // simulated on the full group; `smoke_slowdown` covers every cell in
    // adaptive runs.
    let mut full_slowdown: Vec<Option<f64>> = vec![None; n_cells];
    let mut smoke_slowdown: Vec<f64> = Vec::new();
    let mut rungs: Vec<RungSummary> = Vec::new();

    match smoke_len {
        None => {
            let Some(cycles) = run_sweep(workloads, &cells)? else {
                return Ok(None);
            };
            for (i, slot) in full_slowdown.iter_mut().enumerate() {
                let per_workload: Vec<u64> = (0..n_workloads)
                    .map(|wi| cycles[wi * n_cells + i])
                    .collect();
                *slot = Some(geomean_slowdown(&per_workload, &base_cycles));
            }
            rungs.push(RungSummary {
                workloads: n_workloads,
                cells_in: n_cells,
                cells_kept: n_cells,
            });
        }
        Some(smoke) => {
            let search = adaptive.expect("smoke_len implies adaptive");
            // Rung 0: every cell on the smoke prefix.
            let Some(smoke_cycles) = run_sweep(&workloads[..smoke], &cells)? else {
                return Ok(None);
            };
            smoke_slowdown = (0..n_cells)
                .map(|i| {
                    let per_workload: Vec<u64> = (0..smoke)
                        .map(|wi| smoke_cycles[wi * n_cells + i])
                        .collect();
                    geomean_slowdown(&per_workload, &base_cycles[..smoke])
                })
                .collect();

            // Keep the top fraction per security level, smoke-fastest first
            // (ties broken by label for determinism).
            let mut by_level: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (i, &leaks) in cell_leaks.iter().enumerate() {
                by_level.entry(leaks).or_default().push(i);
            }
            let mut survivors: Vec<usize> = Vec::new();
            for members in by_level.values() {
                let mut ranked = members.clone();
                ranked.sort_by(|&a, &b| {
                    smoke_slowdown[a]
                        .total_cmp(&smoke_slowdown[b])
                        .then_with(|| cells[a].label.cmp(&cells[b].label))
                });
                survivors.extend(&ranked[..search.kept_of(members.len())]);
            }
            survivors.sort_unstable();
            debug_assert_eq!(survivors.len(), planned_full);
            rungs.push(RungSummary {
                workloads: smoke,
                cells_in: n_cells,
                cells_kept: survivors.len(),
            });

            // Rung 1: survivors on the rest of the group; smoke cycles are
            // reused, so the full-suite geomean matches the exhaustive one
            // bit for bit.
            let kept: Vec<DesignPoint> = survivors.iter().map(|&i| cells[i].clone()).collect();
            let rest_cycles = if smoke < n_workloads {
                match run_sweep(&workloads[smoke..], &kept)? {
                    Some(cycles) => cycles,
                    None => return Ok(None),
                }
            } else {
                Vec::new()
            };
            for (j, &i) in survivors.iter().enumerate() {
                let mut per_workload: Vec<u64> = (0..smoke)
                    .map(|wi| smoke_cycles[wi * n_cells + i])
                    .collect();
                per_workload
                    .extend((0..n_workloads - smoke).map(|wi| rest_cycles[wi * kept.len() + j]));
                full_slowdown[i] = Some(geomean_slowdown(&per_workload, &base_cycles));
            }
            rungs.push(RungSummary {
                workloads: n_workloads - smoke,
                cells_in: survivors.len(),
                cells_kept: survivors.len(),
            });
        }
    }

    // Dominance among full-suite cells.
    let full: Vec<usize> = (0..n_cells)
        .filter(|&i| full_slowdown[i].is_some())
        .collect();
    let coord = |i: usize| (full_slowdown[i].expect("full-suite cell"), cell_leaks[i]);
    let mut out_cells = Vec::with_capacity(n_cells);
    for i in 0..n_cells {
        let (slowdown, full_suite) = match full_slowdown[i] {
            Some(s) => (s, true),
            None => (smoke_slowdown[i], false),
        };
        let (mut dominates_n, mut dominated_by) = (0, 0);
        if full_suite {
            for &j in &full {
                if j == i {
                    continue;
                }
                if dominates(coord(i), coord(j)) {
                    dominates_n += 1;
                }
                if dominates(coord(j), coord(i)) {
                    dominated_by += 1;
                }
            }
        }
        out_cells.push(FrontierCell {
            label: cells[i].label.clone(),
            defense: cells[i].config.defense,
            geomean_slowdown: slowdown,
            security_leaks: cell_leaks[i],
            full_suite,
            on_frontier: full_suite && dominated_by == 0,
            dominates: dominates_n,
            dominated_by,
        });
    }

    let mut frontier: Vec<FrontierPoint> = out_cells
        .iter()
        .filter(|c| c.on_frontier)
        .map(|c| FrontierPoint {
            label: c.label.clone(),
            defense: c.defense,
            geomean_slowdown: c.geomean_slowdown,
            security_leaks: c.security_leaks,
        })
        .collect();
    frontier.sort_by(|a, b| {
        a.security_leaks
            .cmp(&b.security_leaks)
            .then_with(|| a.geomean_slowdown.total_cmp(&b.geomean_slowdown))
            .then_with(|| a.label.cmp(&b.label))
    });

    Ok(Some(FrontierResult {
        workloads: workloads.iter().map(|w| w.name.clone()).collect(),
        cells: out_cells,
        frontier,
        rungs,
        cells_total: n_cells,
        cells_simulated_full: full.len(),
        adaptive: adaptive.is_some(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::AnalysisStore;
    use cassandra_kernels::suite;

    fn quick() -> Vec<Workload> {
        vec![suite::chacha20_workload(64), suite::des_workload(4)]
    }

    fn run(
        grid: &GridSweep,
        adaptive: Option<AdaptiveSearch>,
    ) -> (FrontierResult, Vec<FrontierProgress>) {
        let mut seen = Vec::new();
        let result = frontier_with(
            &SweepExecutor::new(&AnalysisStore::new()),
            &quick(),
            grid,
            adaptive,
            &CancelToken::new(),
            |p| seen.push(p),
        )
        .unwrap()
        .expect("not cancelled");
        (result, seen)
    }

    #[test]
    fn exhaustive_frontier_is_non_dominated_and_security_diverse() {
        let (result, progress) = run(&standard_grid(), None);
        assert_eq!(result.cells_total, result.cells.len());
        assert_eq!(result.cells_simulated_full, result.cells_total);
        assert!(!result.adaptive);
        assert_eq!(result.rungs.len(), 1);
        // Every cell is full-suite; frontier cells are exactly the
        // non-dominated ones.
        for cell in &result.cells {
            assert!(cell.full_suite);
            assert_eq!(cell.on_frontier, cell.dominated_by == 0, "{}", cell.label);
        }
        // On crypto kernels Cassandra is both faster and safer than the
        // unsafe baseline (the paper's headline result), so every baseline
        // cell is strictly dominated and the frontier is Cassandra-only.
        for cell in &result.cells {
            if cell.defense == DefenseMode::UnsafeBaseline {
                assert!(cell.dominated_by >= 1, "{}", cell.label);
                assert!(!cell.on_frontier, "{}", cell.label);
            }
        }
        assert!(result
            .frontier
            .iter()
            .all(|p| p.defense == DefenseMode::Cassandra));
        assert!(!result.frontier.is_empty());
        // Progress counted every simulation with a fixed total.
        let total = quick().len() * (1 + result.cells_total);
        assert_eq!(progress.len(), total);
        assert_eq!(progress.last().unwrap().cells_done, total);
        assert!(progress.iter().all(|p| p.cells_total == total));
    }

    #[test]
    fn adaptive_skips_full_suite_cells_but_keeps_the_frontier() {
        let adaptive = AdaptiveSearch {
            keep_fraction: 0.5,
            smoke_len: 1,
        };
        let (exhaustive, _) = run(&standard_grid(), None);
        let (halved, _) = run(&standard_grid(), Some(adaptive));
        assert!(halved.adaptive);
        assert_eq!(halved.rungs.len(), 2);
        assert!(
            halved.cells_simulated_full < exhaustive.cells_simulated_full,
            "halving must save full-suite cells ({} vs {})",
            halved.cells_simulated_full,
            exhaustive.cells_simulated_full
        );
        assert_eq!(halved.frontier, exhaustive.frontier);
    }

    #[test]
    fn cancelled_runs_return_none() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let store = AnalysisStore::new();
        let ex = SweepExecutor::new(&store);
        let result = frontier_with(&ex, &quick(), &standard_grid(), None, &cancel, |_| {}).unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn empty_grids_and_workload_sets_yield_empty_results() {
        let store = AnalysisStore::new();
        let ex = SweepExecutor::new(&store);
        let empty = frontier_with(
            &ex,
            &quick(),
            &GridSweep::default(),
            None,
            &CancelToken::new(),
            |_| {},
        )
        .unwrap()
        .unwrap();
        assert!(empty.cells.is_empty() && empty.frontier.is_empty());
        let no_workloads = frontier_with(
            &ex,
            &[],
            &standard_grid(),
            None,
            &CancelToken::new(),
            |_| {},
        )
        .unwrap()
        .unwrap();
        assert_eq!(no_workloads.cells_total, 0);
    }

    #[test]
    fn dominance_is_strict_in_at_least_one_axis() {
        assert!(dominates((1.0, 1), (2.0, 1)));
        assert!(dominates((1.0, 1), (1.0, 2)));
        assert!(!dominates((1.0, 1), (1.0, 1)), "ties dominate nothing");
        assert!(
            !dominates((0.5, 3), (1.0, 1)),
            "axis trade-offs are incomparable"
        );
    }
}
