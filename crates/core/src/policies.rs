//! The defense-policy registry and grid-sweep expansion.
//!
//! A registered policy is a named [`DesignPoint`]: a label plus the complete
//! [`CpuConfig`] that realises it. The
//! [`PolicyRegistry`] is how sweeps, the security experiment, reports and
//! the example binaries enumerate the modelled defense scenarios — instead
//! of hand-listing `DefenseMode` variants at every call site. The standard
//! registry holds one entry per [`DefenseMode::ALL`] element; custom
//! scenarios (different BTU geometry, memory latency, flush intervals, …)
//! are additional registrations on a registry of the caller's own.
//!
//! [`GridSweep`] generates those custom registrations in bulk: a grid
//! specification over the policy-parameterised knobs (tournament promotion
//! threshold, BTU partition count, BTU geometry, Trace Cache miss penalty,
//! mispredict redirect penalty) expands into one design point per grid cell,
//! so fig7-style sensitivity frontiers come from a single sweep invocation
//! instead of hand-built config lists. An expansion is a registry of its
//! own: the evaluation server sweeps it for one `GridSweep` request and
//! then drops it, so its session's policy set stays the standard one.

use crate::eval::DesignPoint;
use cassandra_cpu::config::{CpuConfig, DefenseMode};
use serde::{Deserialize, Serialize};

/// An enumerable, label-addressed collection of defense design points.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRegistry {
    designs: Vec<DesignPoint>,
}

impl PolicyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        PolicyRegistry {
            designs: Vec::new(),
        }
    }

    /// One design point per modelled defense, over the Table-3 baseline, in
    /// [`DefenseMode::ALL`] reporting order.
    ///
    /// ```
    /// use cassandra_core::policies::PolicyRegistry;
    /// use cassandra_cpu::config::DefenseMode;
    ///
    /// let registry = PolicyRegistry::standard();
    /// assert_eq!(registry.len(), DefenseMode::ALL.len());
    /// let cassandra = registry.get("Cassandra").expect("registered");
    /// assert_eq!(cassandra.config.defense, DefenseMode::Cassandra);
    /// ```
    pub fn standard() -> Self {
        let mut registry = Self::new();
        for mode in DefenseMode::ALL {
            registry.register(DesignPoint::from_defense(mode));
        }
        registry
    }

    /// Adds a design point, replacing any previous one with the same label.
    pub fn register(&mut self, design: DesignPoint) {
        self.designs.retain(|d| d.label != design.label);
        self.designs.push(design);
    }

    /// The registered design points, in registration order.
    pub fn designs(&self) -> &[DesignPoint] {
        &self.designs
    }

    /// The defense of every registered design, in order (for drivers that
    /// take plain `DefenseMode` lists).
    pub fn defenses(&self) -> Vec<DefenseMode> {
        self.designs.iter().map(|d| d.config.defense).collect()
    }

    /// The registered labels, in order.
    pub fn labels(&self) -> Vec<&str> {
        self.designs.iter().map(|d| d.label.as_str()).collect()
    }

    /// Looks up a design point by its label (the same string
    /// `DefenseMode::label` / `CpuConfig::design_label` produce).
    pub fn get(&self, label: &str) -> Option<&DesignPoint> {
        self.designs.iter().find(|d| d.label == label)
    }

    /// Number of registered policies.
    pub fn len(&self) -> usize {
        self.designs.len()
    }

    /// True if no policy is registered.
    pub fn is_empty(&self) -> bool {
        self.designs.is_empty()
    }
}

impl Default for PolicyRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

impl IntoIterator for PolicyRegistry {
    type Item = DesignPoint;
    type IntoIter = std::vec::IntoIter<DesignPoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.designs.into_iter()
    }
}

// -------------------------------------------------------------- grid sweeps

/// A sensitivity-sweep grid over the policy-parameterised knobs.
///
/// Each axis is a list of values to sweep; an **empty axis means "keep the
/// defense's preset value"** and contributes exactly one (non-)setting, so
/// the expansion size is the product of the non-empty axes times the number
/// of base defenses. Expansion is deterministic: defenses vary slowest, then
/// (in order) tournament threshold, BTU partitions, BTU entries, miss
/// penalty and redirect penalty. Labels come from
/// [`CpuConfig::design_label`], so every grid cell is self-describing
/// (`Tournament+btu8+thr8`, `Cassandra+redir12+miss40`, …) and two cells
/// share a label exactly when their configurations are equal, so equal
/// cells collapse onto one registry entry.
///
/// Every axis sets one plain [`CpuConfig`] field on top of
/// `golden_cove_like().with_defense(defense)`, so an axis value overrides
/// the defense's preset (`btu_entries: [8]` gives `Cassandra-noTC` an 8-entry
/// Trace Cache) and a value equal to the preset collapses onto the defense's
/// own label. Knobs a frontend never reads still label the cell (a `Fence`
/// point with a tournament threshold prices identically to plain `Fence`).
///
/// ```
/// use cassandra_core::policies::GridSweep;
/// use cassandra_cpu::config::DefenseMode;
///
/// let grid = GridSweep::over([DefenseMode::Tournament])
///     .tournament_thresholds([2, 8])
///     .btu_entries([8, 16]);
/// assert_eq!(grid.len(), Some(4));
///
/// let registry = grid.expand();
/// assert_eq!(
///     registry.labels(),
///     [
///         "Tournament+btu8+thr2",
///         "Tournament+thr2",
///         "Tournament+btu8+thr8",
///         "Tournament+thr8",
///     ]
/// );
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GridSweep {
    /// Base defenses expanded at every grid cell.
    pub defenses: Vec<DefenseMode>,
    /// Tournament promotion-threshold axis.
    pub tournament_thresholds: Vec<u32>,
    /// BTU partition-count axis.
    pub btu_partitions: Vec<usize>,
    /// BTU entry-count (geometry) axis.
    pub btu_entries: Vec<usize>,
    /// Trace Cache miss-penalty axis (cycles).
    pub miss_penalties: Vec<u64>,
    /// Mispredict redirect-penalty axis (cycles).
    pub redirect_penalties: Vec<u64>,
}

impl GridSweep {
    /// A grid over `defenses` with every axis at its baseline value.
    pub fn over(defenses: impl IntoIterator<Item = DefenseMode>) -> Self {
        GridSweep {
            defenses: defenses.into_iter().collect(),
            ..GridSweep::default()
        }
    }

    /// Sweeps the tournament promotion threshold over `values`.
    #[must_use]
    pub fn tournament_thresholds(mut self, values: impl IntoIterator<Item = u32>) -> Self {
        self.tournament_thresholds = values.into_iter().collect();
        self
    }

    /// Sweeps the BTU partition count over `values`.
    #[must_use]
    pub fn btu_partitions(mut self, values: impl IntoIterator<Item = usize>) -> Self {
        self.btu_partitions = values.into_iter().collect();
        self
    }

    /// Sweeps the BTU entry count over `values`.
    #[must_use]
    pub fn btu_entries(mut self, values: impl IntoIterator<Item = usize>) -> Self {
        self.btu_entries = values.into_iter().collect();
        self
    }

    /// Sweeps the Trace Cache miss penalty over `values`.
    #[must_use]
    pub fn miss_penalties(mut self, values: impl IntoIterator<Item = u64>) -> Self {
        self.miss_penalties = values.into_iter().collect();
        self
    }

    /// Sweeps the mispredict redirect penalty over `values`.
    #[must_use]
    pub fn redirect_penalties(mut self, values: impl IntoIterator<Item = u64>) -> Self {
        self.redirect_penalties = values.into_iter().collect();
        self
    }

    /// Number of grid cells (before same-label collapsing), or `None` when
    /// the product of the axis lengths overflows `usize`.
    pub fn len(&self) -> Option<usize> {
        [
            self.tournament_thresholds.len(),
            self.btu_partitions.len(),
            self.btu_entries.len(),
            self.miss_penalties.len(),
            self.redirect_penalties.len(),
        ]
        .into_iter()
        .try_fold(self.defenses.len(), |cells, axis| {
            cells.checked_mul(axis.max(1))
        })
    }

    /// True if the grid has no base defense (and therefore expands to
    /// nothing).
    pub fn is_empty(&self) -> bool {
        self.defenses.is_empty()
    }

    /// The grid cells as design points, in expansion order (defense-major).
    pub fn design_points(&self) -> Vec<DesignPoint> {
        fn axis<T: Copy>(values: &[T]) -> Vec<Option<T>> {
            if values.is_empty() {
                vec![None]
            } else {
                values.iter().copied().map(Some).collect()
            }
        }
        let thresholds = axis(&self.tournament_thresholds);
        let partitions = axis(&self.btu_partitions);
        let entries = axis(&self.btu_entries);
        let misses = axis(&self.miss_penalties);
        let redirects = axis(&self.redirect_penalties);

        let mut points = Vec::with_capacity(self.len().unwrap_or(0));
        for &defense in &self.defenses {
            for &thr in &thresholds {
                for &part in &partitions {
                    for &ent in &entries {
                        for &miss in &misses {
                            for &redir in &redirects {
                                let mut cfg = CpuConfig::golden_cove_like().with_defense(defense);
                                if let Some(t) = thr {
                                    cfg = cfg.with_tournament_threshold(t);
                                }
                                if let Some(p) = part {
                                    cfg = cfg.with_btu_partitions(p);
                                }
                                if let Some(e) = ent {
                                    cfg = cfg.with_btu_entries(e);
                                }
                                if let Some(m) = miss {
                                    cfg = cfg.with_btu_miss_penalty(m);
                                }
                                if let Some(r) = redir {
                                    cfg = cfg.with_mispredict_redirect_penalty(r);
                                }
                                points.push(DesignPoint::from_config(cfg));
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// Expands the grid into a registry (same-labelled cells collapse:
    /// labels derive from the configuration, so equal labels mean equal
    /// cells).
    pub fn expand(&self) -> PolicyRegistry {
        let mut registry = PolicyRegistry::new();
        for point in self.design_points() {
            registry.register(point);
        }
        registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cassandra_cpu::config::CpuConfig;

    #[test]
    fn standard_registry_covers_every_mode() {
        let registry = PolicyRegistry::standard();
        assert_eq!(registry.len(), DefenseMode::ALL.len());
        for mode in DefenseMode::ALL {
            let design = registry
                .get(mode.label())
                .unwrap_or_else(|| panic!("missing policy {}", mode.label()));
            assert_eq!(design.config.defense, mode);
        }
        assert_eq!(registry.defenses(), DefenseMode::ALL.to_vec());
    }

    #[test]
    fn register_replaces_by_label() {
        let mut registry = PolicyRegistry::standard();
        let n = registry.len();
        let tweaked = DesignPoint::new(
            "Cassandra",
            CpuConfig::golden_cove_like()
                .with_defense(DefenseMode::Cassandra)
                .with_memory_latency(500),
        );
        registry.register(tweaked.clone());
        assert_eq!(registry.len(), n);
        assert_eq!(registry.get("Cassandra"), Some(&tweaked));
    }

    #[test]
    fn grid_sweep_expands_the_axis_product() {
        let grid = GridSweep::over([DefenseMode::Cassandra, DefenseMode::Tournament])
            .miss_penalties([10, 20, 40])
            .redirect_penalties([6, 12]);
        assert_eq!(grid.len(), Some(12));
        let points = grid.design_points();
        assert_eq!(points.len(), 12);
        // Defense-major, then miss penalty, then redirect penalty.
        assert_eq!(points[0].config.defense, DefenseMode::Cassandra);
        assert_eq!(points[0].config.btu.miss_penalty, 10);
        assert_eq!(points[0].config.mispredict_redirect_penalty, 6);
        assert_eq!(points[1].config.mispredict_redirect_penalty, 12);
        assert_eq!(points[6].config.defense, DefenseMode::Tournament);
        // Baseline values (miss 20, redirect 6) contribute no suffix.
        assert_eq!(points[2].label, "Cassandra");
        assert_eq!(points[11].label, "Tournament+redir12+miss40");
    }

    #[test]
    fn grid_sweep_cells_collapse_by_label_on_expand() {
        // Overriding Cassandra-part's partition count with its own default
        // (2) resolves to the registered baseline config: both cells share
        // one label and the expansion dedupes them.
        let grid = GridSweep::over([DefenseMode::CassandraPartitioned]).btu_partitions([2, 4]);
        assert_eq!(grid.len(), Some(2));
        let registry = grid.expand();
        assert_eq!(
            registry.labels(),
            ["Cassandra-part", "Cassandra-part+part4"]
        );
        let baseline = registry.get("Cassandra-part").unwrap();
        assert_eq!(
            *baseline,
            DesignPoint::from_defense(DefenseMode::CassandraPartitioned)
        );
        assert_eq!(
            registry
                .get("Cassandra-part+part4")
                .unwrap()
                .config
                .btu
                .partitions,
            4
        );
    }

    #[test]
    fn grid_cells_share_a_label_exactly_when_their_configs_are_equal() {
        let points = GridSweep::over(DefenseMode::ALL)
            .btu_entries([0, 8])
            .btu_partitions([1, 4])
            .tournament_thresholds([2])
            .design_points();
        assert_eq!(points.len(), DefenseMode::ALL.len() * 4);
        for a in &points {
            for b in &points {
                assert_eq!(
                    a.label == b.label,
                    a.config == b.config,
                    "`{}` vs `{}`",
                    a.label,
                    b.label
                );
            }
        }
        // The label names the geometry that runs: an axis value overrides
        // the defense's preset.
        let no_tc = points
            .iter()
            .find(|p| p.label == "Cassandra-noTC+btu8+thr2+part4")
            .expect("noTC cell with an 8-entry Trace Cache");
        assert_eq!(no_tc.config.btu.entries, 8);
        assert_eq!(no_tc.config.btu.partitions, 4);
        let part = points
            .iter()
            .find(|p| p.label == "Cassandra-part+btu0+thr2+part1")
            .expect("unpartitioned part cell");
        assert_eq!(part.config.btu.partitions, 1);
    }

    #[test]
    fn empty_grid_expands_to_nothing() {
        let grid = GridSweep::default().tournament_thresholds([1, 2, 3]);
        assert!(grid.is_empty());
        assert_eq!(grid.len(), Some(0));
        assert!(grid.expand().is_empty());
    }

    #[test]
    fn grid_sweep_round_trips_through_serde() {
        let grid = GridSweep::over([DefenseMode::Tournament])
            .tournament_thresholds([2, 8])
            .btu_partitions([1, 2])
            .btu_entries([8])
            .miss_penalties([40])
            .redirect_penalties([12]);
        let json = serde_json::to_string(&grid).unwrap();
        let back: GridSweep = serde_json::from_str(&json).unwrap();
        assert_eq!(back, grid);
        assert_eq!(back.expand().labels(), grid.expand().labels());
    }

    #[test]
    fn custom_scenarios_extend_the_enumeration() {
        let mut registry = PolicyRegistry::standard();
        let custom = DesignPoint::from_config(
            CpuConfig::golden_cove_like()
                .with_defense(DefenseMode::Cassandra)
                .with_btu_flush_interval(5_000),
        );
        registry.register(custom.clone());
        assert!(registry.labels().contains(&"Cassandra+flush5000"));
        assert_eq!(registry.into_iter().last(), Some(custom));
    }
}
