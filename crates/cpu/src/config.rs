//! Processor configuration (the paper's Table 3) and defense selection.

use crate::policy::{DefensePolicy, FrontendKind};
use cassandra_btu::unit::BtuConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Which secure-speculation design the pipeline models (§7).
///
/// A mode is only a *name*: the mechanisms it enables are described by the
/// [`DefensePolicy`] returned from [`DefenseMode::policy`], which the
/// pipeline resolves once at construction. The flag methods below
/// (`uses_btu`, `disables_stl`, …) are thin views over that policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DefenseMode {
    /// Unprotected out-of-order baseline: the BPU predicts every branch,
    /// store-to-load forwarding is enabled, nothing is delayed.
    UnsafeBaseline,
    /// Cassandra: crypto branches are redirected by the BTU (never the BPU);
    /// non-crypto branches use the BPU but may not speculatively redirect
    /// fetch into the crypto PC ranges.
    Cassandra,
    /// Cassandra plus data-flow protection: store-to-load forwarding is
    /// disabled and bypassing loads wait for older store addresses.
    CassandraStl,
    /// Cassandra-lite (discussion Q3): only single-target crypto branches are
    /// redirected from hints; multi-target crypto branches stall fetch until
    /// they resolve (no BTU).
    CassandraLite,
    /// SPT-like hardware-only defense under the constant-time policy:
    /// transmitters (loads and branches) are delayed until they become
    /// non-speculative.
    Spt,
    /// ProSpeCT-like defense: instructions whose operands are tainted by
    /// annotated secret memory may not execute while speculative.
    Prospect,
    /// Cassandra combined with ProSpeCT for the non-crypto part (§7.3).
    CassandraProspect,
    /// Serializing lower bound: every branch stalls fetch until it resolves.
    /// No speculation ever happens, at the classic fence-everything cost.
    Fence,
    /// Cassandra with a zero-entry Trace Cache: every multi-target crypto
    /// branch streams its trace from the data pages and pays the miss
    /// penalty on every lookup.
    CassandraNoTc,
    /// Hybrid tournament frontend: per-PC confidence counters arbitrate each
    /// crypto branch between BTU replay and the speculative BPU, modelling a
    /// deployment where only hot crypto branches earn traces. Cold crypto
    /// branches speculate (and may leak) until they are promoted.
    Tournament,
    /// Cassandra with the BTU's Trace Cache ways split into per-context
    /// partitions (discussion Q4): context switches between crypto
    /// applications cost a partition reassignment instead of a whole-unit
    /// flush.
    CassandraPartitioned,
}

impl DefenseMode {
    /// Every modelled defense, in reporting order. Design matrices, sweeps
    /// and CLI helpers enumerate this instead of hand-listing variants.
    pub const ALL: [DefenseMode; 11] = [
        DefenseMode::UnsafeBaseline,
        DefenseMode::Fence,
        DefenseMode::Cassandra,
        DefenseMode::CassandraStl,
        DefenseMode::CassandraLite,
        DefenseMode::CassandraNoTc,
        DefenseMode::CassandraPartitioned,
        DefenseMode::Tournament,
        DefenseMode::Spt,
        DefenseMode::Prospect,
        DefenseMode::CassandraProspect,
    ];

    /// The number of BTU partitions the `Cassandra-part` design point splits
    /// the Trace Cache into (two co-resident crypto applications, Q4).
    pub const PARTITIONED_BTU_CONTEXTS: usize = 2;

    /// The structured mechanism description of this defense, resolved once
    /// by the pipeline at construction. The BTU geometry a defense presets
    /// (`Cassandra-noTC`'s empty Trace Cache, `Cassandra-part`'s partitions)
    /// is not part of the policy: [`CpuConfig::with_defense`] writes it into
    /// [`CpuConfig::btu`].
    pub const fn policy(self) -> DefensePolicy {
        let base = DefensePolicy::baseline();
        match self {
            DefenseMode::UnsafeBaseline => base,
            DefenseMode::Cassandra => base.with_frontend(FrontendKind::Btu),
            DefenseMode::CassandraStl => base
                .with_frontend(FrontendKind::Btu)
                .without_stl_forwarding(),
            DefenseMode::CassandraLite => base.with_frontend(FrontendKind::BtuLite),
            DefenseMode::Spt => base.delaying_transmitters(),
            DefenseMode::Prospect => base.blocking_tainted(),
            DefenseMode::CassandraProspect => {
                base.with_frontend(FrontendKind::Btu).blocking_tainted()
            }
            DefenseMode::Fence => base.with_frontend(FrontendKind::Fence),
            DefenseMode::CassandraNoTc | DefenseMode::CassandraPartitioned => {
                base.with_frontend(FrontendKind::Btu)
            }
            DefenseMode::Tournament => base.with_frontend(FrontendKind::Tournament),
        }
    }

    /// True if crypto branches are driven by the BTU / hints instead of the BPU.
    pub fn uses_btu(self) -> bool {
        self.policy().frontend.uses_btu()
    }

    /// True if store-to-load forwarding is disabled (data-flow protection).
    pub fn disables_stl(self) -> bool {
        !self.policy().stl_forwarding
    }

    /// True if ProSpeCT-style taint blocking is active.
    pub fn prospect_taint(self) -> bool {
        self.policy().block_tainted
    }

    /// True if SPT-style transmitter delaying is active.
    pub fn spt_delay(self) -> bool {
        self.policy().delay_transmitters
    }

    /// Short label used in reports and figures. Round-trips through
    /// [`FromStr`], so CLI arguments and config files can use these names.
    pub fn label(self) -> &'static str {
        match self {
            DefenseMode::UnsafeBaseline => "UnsafeBaseline",
            DefenseMode::Cassandra => "Cassandra",
            DefenseMode::CassandraStl => "Cassandra+STL",
            DefenseMode::CassandraLite => "Cassandra-lite",
            DefenseMode::Spt => "SPT",
            DefenseMode::Prospect => "ProSpeCT",
            DefenseMode::CassandraProspect => "Cassandra+ProSpeCT",
            DefenseMode::Fence => "Fence",
            DefenseMode::CassandraNoTc => "Cassandra-noTC",
            DefenseMode::Tournament => "Tournament",
            DefenseMode::CassandraPartitioned => "Cassandra-part",
        }
    }
}

/// Error returned when parsing an unknown defense label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDefenseModeError {
    /// The rejected input.
    pub input: String,
}

impl fmt::Display for ParseDefenseModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let labels: Vec<&str> = DefenseMode::ALL.iter().map(|d| d.label()).collect();
        write!(
            f,
            "unknown defense `{}`; expected one of: {}",
            self.input,
            labels.join(", ")
        )
    }
}

impl std::error::Error for ParseDefenseModeError {}

impl FromStr for DefenseMode {
    type Err = ParseDefenseModeError;

    /// Parses a defense by its [`DefenseMode::label`] (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DefenseMode::ALL
            .iter()
            .copied()
            .find(|d| d.label().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseDefenseModeError {
                input: s.to_string(),
            })
    }
}

/// Cache geometry and latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways).
    pub ways: usize,
    /// Hit latency in cycles.
    pub latency: u64,
}

/// The full processor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u64,
    /// Instructions committed per cycle.
    pub commit_width: u64,
    /// Frontend depth in cycles (fetch-to-dispatch).
    pub frontend_depth: u64,
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Issue queue entries.
    pub iq_entries: usize,
    /// Load queue entries.
    pub lq_entries: usize,
    /// Store queue entries.
    pub sq_entries: usize,
    /// Extra cycles to redirect fetch after a misprediction squash.
    pub mispredict_redirect_penalty: u64,
    /// Cycles from issue to resolution for control-flow instructions
    /// (issue-queue select, execute and result broadcast).
    pub branch_resolve_latency: u64,
    /// Level-1 instruction cache.
    pub l1i: CacheConfig,
    /// Level-1 data cache.
    pub l1d: CacheConfig,
    /// Unified level-2 cache.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub l3: CacheConfig,
    /// Main-memory latency in cycles.
    pub memory_latency: u64,
    /// Branch-predictor PHT size (entries).
    pub pht_entries: usize,
    /// Branch target buffer entries.
    pub btb_entries: usize,
    /// Return stack buffer depth.
    pub rsb_entries: usize,
    /// The defense configuration being simulated.
    pub defense: DefenseMode,
    /// BTU geometry (used by the Cassandra modes). `entries` is the Trace
    /// Cache size (`0` under `Cassandra-noTC`) and `partitions` its
    /// per-context way split (`2` under `Cassandra-part`).
    pub btu: BtuConfig,
    /// How many executions a crypto branch needs before the tournament
    /// frontend trusts its BTU trace over the BPU (4; only the Tournament
    /// defense reads it).
    pub tournament_threshold: u32,
    /// If non-zero, a context switch happens every `btu_flush_interval`
    /// committed instructions (models the 250 Hz context-switch experiment,
    /// Q4). What a switch costs depends on `btu_switch_contexts`.
    pub btu_flush_interval: u64,
    /// How the periodic context switch is modelled: `0` flushes the whole
    /// BTU (the paper's Q4 pricing); `n > 0` instead rotates the active
    /// context through `n` application contexts via BTU partition
    /// reassignment, leaving the other partitions' residency warm.
    pub btu_switch_contexts: u64,
    /// Maximum committed instructions before the simulation stops.
    pub max_instructions: u64,
}

impl CpuConfig {
    /// The Golden-Cove-like configuration of the paper's Table 3.
    pub fn golden_cove_like() -> Self {
        CpuConfig {
            fetch_width: 8,
            commit_width: 8,
            frontend_depth: 6,
            rob_entries: 512,
            iq_entries: 96,
            lq_entries: 192,
            sq_entries: 114,
            mispredict_redirect_penalty: 6,
            branch_resolve_latency: 4,
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                ways: 8,
                latency: 5,
            },
            l1d: CacheConfig {
                size_bytes: 48 * 1024,
                line_bytes: 64,
                ways: 12,
                latency: 5,
            },
            l2: CacheConfig {
                size_bytes: 1280 * 1024,
                line_bytes: 64,
                ways: 16,
                latency: 14,
            },
            l3: CacheConfig {
                size_bytes: 30 * 1024 * 1024,
                line_bytes: 64,
                ways: 16,
                latency: 40,
            },
            memory_latency: 160,
            pht_entries: 16 * 1024,
            btb_entries: 4096,
            rsb_entries: 32,
            defense: DefenseMode::UnsafeBaseline,
            btu: BtuConfig::default(),
            tournament_threshold: 4,
            btu_flush_interval: 0,
            btu_switch_contexts: 0,
            max_instructions: 200_000_000,
        }
    }

    /// The same configuration with a different defense and that defense's
    /// preset BTU geometry: a Trace Cache of Table 3's 16 entries (none
    /// under `Cassandra-noTC`) in one partition (two under
    /// `Cassandra-part`). Builders applied *afterwards* override the preset.
    pub fn with_defense(mut self, defense: DefenseMode) -> Self {
        let table3 = BtuConfig::default();
        self.defense = defense;
        self.btu.entries = match defense {
            DefenseMode::CassandraNoTc => 0,
            _ => table3.entries,
        };
        self.btu.partitions = match defense {
            DefenseMode::CassandraPartitioned => DefenseMode::PARTITIONED_BTU_CONTEXTS,
            _ => table3.partitions,
        };
        self
    }

    /// The policy the pipeline resolves at construction.
    pub fn resolved_policy(&self) -> DefensePolicy {
        self.defense.policy()
    }

    /// The same configuration with a different tournament promotion
    /// threshold (how many executions a crypto branch needs before its BTU
    /// trace is trusted over the BPU). Only read by
    /// [`FrontendKind::Tournament`].
    pub fn with_tournament_threshold(mut self, threshold: u32) -> Self {
        self.tournament_threshold = threshold;
        self
    }

    /// The same configuration with the BTU's Trace Cache ways split into
    /// `partitions` per-context partitions (at least one; the Q4
    /// partition-reassignment model).
    pub fn with_btu_partitions(mut self, partitions: usize) -> Self {
        self.btu.partitions = partitions.max(1);
        self
    }

    /// The same configuration with a different BTU entry count (Pattern
    /// Table / Trace Cache / Checkpoint Table entries; `0` leaves no Trace
    /// Cache, as under `Cassandra-noTC`).
    pub fn with_btu_entries(mut self, entries: usize) -> Self {
        self.btu.entries = entries;
        self
    }

    /// The same configuration with a different Trace Cache miss penalty
    /// (extra frontend cycles when a multi-target trace streams from the
    /// data pages).
    pub fn with_btu_miss_penalty(mut self, penalty: u64) -> Self {
        self.btu.miss_penalty = penalty;
        self
    }

    /// The same configuration with a different mispredict redirect penalty.
    pub fn with_mispredict_redirect_penalty(mut self, penalty: u64) -> Self {
        self.mispredict_redirect_penalty = penalty;
        self
    }

    /// The same configuration with a different BTU geometry.
    pub fn with_btu(mut self, btu: BtuConfig) -> Self {
        self.btu = btu;
        self
    }

    /// The same configuration with a periodic BTU flush every `interval`
    /// committed instructions (0 disables flushing; the Q4 experiment).
    pub fn with_btu_flush_interval(mut self, interval: u64) -> Self {
        self.btu_flush_interval = interval;
        self
    }

    /// The same configuration with the periodic context switch priced as a
    /// BTU partition reassignment rotating through `contexts` application
    /// contexts instead of a whole-unit flush (0 restores the flush model;
    /// the Q4 partition-reassignment variant).
    pub fn with_btu_switch_contexts(mut self, contexts: u64) -> Self {
        self.btu_switch_contexts = contexts;
        self
    }

    /// The same configuration with a different main-memory latency.
    pub fn with_memory_latency(mut self, memory_latency: u64) -> Self {
        self.memory_latency = memory_latency;
        self
    }

    /// A short label describing how this configuration differs from
    /// `golden_cove_like().with_defense(defense)`, used by design-point
    /// sweeps to name columns. Every knob contributes its own suffix, in the
    /// order `+flush`, `+ctx`, `+mem`, `+redir`, `+btu`, `+miss`, `+thr`,
    /// `+part`, so grid-expanded design points get distinct, self-describing
    /// labels and a value equal to the defense's preset adds none.
    pub fn design_label(&self) -> String {
        let preset = CpuConfig::golden_cove_like().with_defense(self.defense);
        let mut label = self.defense.label().to_string();
        type Knob = fn(&CpuConfig) -> u64;
        let knobs: [(&str, Knob); 8] = [
            ("flush", |c| c.btu_flush_interval),
            ("ctx", |c| c.btu_switch_contexts),
            ("mem", |c| c.memory_latency),
            ("redir", |c| c.mispredict_redirect_penalty),
            ("btu", |c| c.btu.entries as u64),
            ("miss", |c| c.btu.miss_penalty),
            ("thr", |c| c.tournament_threshold.into()),
            ("part", |c| c.btu.partitions as u64),
        ];
        for (suffix, knob) in knobs {
            let value = knob(self);
            if value != knob(&preset) {
                label.push_str(&format!("+{suffix}{value}"));
            }
        }
        label
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::golden_cove_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values() {
        let c = CpuConfig::golden_cove_like();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.rob_entries, 512);
        assert_eq!(c.iq_entries, 96);
        assert_eq!(c.lq_entries, 192);
        assert_eq!(c.sq_entries, 114);
        assert_eq!(c.l1d.size_bytes, 48 * 1024);
        assert_eq!(c.l1d.ways, 12);
        assert_eq!(c.l2.latency, 14);
        assert_eq!(c.l3.size_bytes, 30 * 1024 * 1024);
        assert_eq!(c.btu.entries, 16);
    }

    #[test]
    fn defense_mode_flags() {
        assert!(DefenseMode::Cassandra.uses_btu());
        assert!(DefenseMode::CassandraLite.uses_btu());
        assert!(DefenseMode::CassandraNoTc.uses_btu());
        assert!(DefenseMode::Tournament.uses_btu());
        assert!(DefenseMode::CassandraPartitioned.uses_btu());
        assert!(!DefenseMode::UnsafeBaseline.uses_btu());
        assert!(!DefenseMode::Fence.uses_btu());
        assert!(DefenseMode::CassandraStl.disables_stl());
        assert!(!DefenseMode::Cassandra.disables_stl());
        assert!(DefenseMode::Prospect.prospect_taint());
        assert!(DefenseMode::CassandraProspect.prospect_taint());
        assert!(DefenseMode::Spt.spt_delay());
        assert_eq!(DefenseMode::CassandraStl.label(), "Cassandra+STL");
    }

    #[test]
    fn every_mode_is_listed_exactly_once() {
        let mut labels: Vec<&str> = DefenseMode::ALL.iter().map(|d| d.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), DefenseMode::ALL.len());
    }

    #[test]
    fn labels_round_trip_through_from_str() {
        for mode in DefenseMode::ALL {
            assert_eq!(mode.label().parse::<DefenseMode>(), Ok(mode));
            // Case-insensitive for CLI friendliness.
            assert_eq!(
                mode.label().to_ascii_lowercase().parse::<DefenseMode>(),
                Ok(mode)
            );
        }
        let err = "NotADefense".parse::<DefenseMode>().unwrap_err();
        assert!(err.to_string().contains("NotADefense"));
        assert!(err.to_string().contains("Cassandra"));
    }

    #[test]
    fn policies_describe_the_new_scenarios() {
        use crate::policy::FrontendKind;
        assert_eq!(DefenseMode::Fence.policy().frontend, FrontendKind::Fence);
        assert!(DefenseMode::CassandraStl.policy().frontend.uses_btu());
        assert!(!DefenseMode::CassandraStl.policy().stl_forwarding);
        assert_eq!(
            DefenseMode::Tournament.policy().frontend,
            FrontendKind::Tournament
        );
        // Cassandra-noTC and Cassandra-part are Cassandra's policy over the
        // BTU geometry `with_defense` presets.
        let preset = |d| CpuConfig::golden_cove_like().with_defense(d).btu;
        for derived in [
            DefenseMode::CassandraNoTc,
            DefenseMode::CassandraPartitioned,
        ] {
            assert_eq!(derived.policy(), DefenseMode::Cassandra.policy());
        }
        assert_eq!(preset(DefenseMode::CassandraNoTc).entries, 0);
        assert_eq!(preset(DefenseMode::CassandraNoTc).partitions, 1);
        assert_eq!(
            preset(DefenseMode::CassandraPartitioned).partitions,
            DefenseMode::PARTITIONED_BTU_CONTEXTS
        );
        assert_eq!(preset(DefenseMode::CassandraPartitioned).entries, 16);
        assert_eq!(preset(DefenseMode::Tournament), BtuConfig::default());
    }

    #[test]
    fn context_switch_knobs_shape_the_design_label() {
        let cfg = CpuConfig::golden_cove_like()
            .with_defense(DefenseMode::CassandraPartitioned)
            .with_btu_flush_interval(5_000)
            .with_btu_switch_contexts(2);
        assert_eq!(cfg.design_label(), "Cassandra-part+flush5000+ctx2");
    }

    #[test]
    fn with_defense_builder() {
        let c = CpuConfig::golden_cove_like().with_defense(DefenseMode::Spt);
        assert_eq!(c.defense, DefenseMode::Spt);
    }

    #[test]
    fn knob_builders_resolve_and_label() {
        let base = CpuConfig::golden_cove_like().with_defense(DefenseMode::Tournament);
        assert_eq!(base.resolved_policy(), DefenseMode::Tournament.policy());
        assert_eq!(base.design_label(), "Tournament");

        let cfg = base.with_tournament_threshold(8).with_btu_partitions(4);
        assert_eq!(cfg.tournament_threshold, 8);
        assert_eq!(cfg.btu.partitions, 4);
        // The knobs are plain fields: the policy stays the defense's own.
        assert_eq!(cfg.resolved_policy(), DefenseMode::Tournament.policy());
        assert_eq!(cfg.design_label(), "Tournament+thr8+part4");

        // with_defense restores the defense's preset geometry; the threshold
        // no defense presets keeps its value.
        let reset = cfg.with_defense(DefenseMode::Cassandra);
        assert_eq!(reset.btu, BtuConfig::default());
        assert_eq!(reset.design_label(), "Cassandra+thr8");
    }

    #[test]
    fn geometry_and_penalty_builders_shape_the_label() {
        let cfg = CpuConfig::golden_cove_like()
            .with_defense(DefenseMode::Cassandra)
            .with_btu_entries(8)
            .with_btu_miss_penalty(40)
            .with_mispredict_redirect_penalty(12);
        assert_eq!(cfg.btu.entries, 8);
        assert_eq!(cfg.btu.miss_penalty, 40);
        assert_eq!(cfg.mispredict_redirect_penalty, 12);
        assert_eq!(cfg.design_label(), "Cassandra+redir12+btu8+miss40");
    }

    #[test]
    fn override_matching_the_derived_policy_adds_no_suffix() {
        // A value equal to the defense's preset must not change the label
        // (grid points collapse onto the registered baseline instead of
        // duplicating it): Cassandra-part presets 2 partitions, every
        // defense presets threshold 4 and Cassandra-noTC an empty Trace
        // Cache.
        let part = CpuConfig::golden_cove_like().with_defense(DefenseMode::CassandraPartitioned);
        assert_eq!(
            part.with_btu_partitions(DefenseMode::PARTITIONED_BTU_CONTEXTS),
            part
        );
        assert_eq!(
            part.with_btu_partitions(DefenseMode::PARTITIONED_BTU_CONTEXTS)
                .design_label(),
            "Cassandra-part"
        );
        let tournament = CpuConfig::golden_cove_like().with_defense(DefenseMode::Tournament);
        assert_eq!(
            tournament
                .with_tournament_threshold(4)
                .with_btu_partitions(1),
            tournament
        );
        let no_tc = CpuConfig::golden_cove_like().with_defense(DefenseMode::CassandraNoTc);
        assert_eq!(no_tc.with_btu_entries(0).design_label(), "Cassandra-noTC");
        assert_eq!(
            no_tc.with_btu_entries(16).design_label(),
            "Cassandra-noTC+btu16"
        );
    }
}
