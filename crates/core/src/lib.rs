//! # cassandra-core
//!
//! The top-level API of the Cassandra reproduction. It ties the workspace
//! together: branch analysis (`cassandra-trace`), trace encoding
//! (`cassandra-btu`), the processor model (`cassandra-cpu`) and the workload
//! suite (`cassandra-kernels`).
//!
//! ## The session API (start here)
//!
//! The primary entry point is [`eval::Evaluator`]: a builder-constructed
//! evaluation session holding a workload set, a design matrix of
//! [`eval::DesignPoint`]s (`DefenseMode` × `CpuConfig` overrides) and an
//! analysis cache. The session runs the paper's Algorithm 2 **once per
//! distinct program** — memoized by content fingerprint — no matter how many
//! design points, sweeps or experiments consume the result, and sweeps the
//! design matrix in parallel.
//!
//! Under the facade, the session is two composable layers (see
//! [`eval`]): a thread-safe [`eval::AnalysisStore`] (exactly-once analysis
//! under concurrency, serializable for warm-starts) and stateless
//! [`eval::SweepExecutor`]s that borrow it (streaming, cancellable
//! sweeps via [`eval::CancelToken`]). Sessions built with
//! [`eval::EvaluatorBuilder::store`] share one store — the evaluation
//! server runs N concurrent requests against a single cache this way.
//!
//! On top of it, [`registry::ExperimentRegistry`] unifies every paper
//! experiment (Table 1, Figures 7–9, Q3, Q4, the Table-2 security sweep and
//! the §7.5 trace-generation timing) behind the [`registry::Experiment`]
//! trait, [`policies::PolicyRegistry`] enumerates the modelled defense
//! scenarios as named design points (so sweeps and the security experiment
//! never hand-list `DefenseMode` variants), and [`report`] renders any
//! [`registry::ExperimentOutput`] to text, CSV or JSON.
//!
//! ```
//! use cassandra_core::eval::Evaluator;
//! use cassandra_core::registry::ExperimentRegistry;
//! use cassandra_core::report;
//! use cassandra_cpu::config::DefenseMode;
//! use cassandra_kernels::suite;
//!
//! # fn main() -> Result<(), cassandra_isa::error::IsaError> {
//! let mut session = Evaluator::builder()
//!     .workloads([suite::chacha20_workload(64), suite::des_workload(4)])
//!     .defense_matrix([DefenseMode::UnsafeBaseline, DefenseMode::Cassandra])
//!     .build();
//!
//! // The uniform record stream of the workload × design sweep …
//! let records = session.sweep()?;
//! assert_eq!(records.len(), 4);
//!
//! // … and the full experiment suite, sharing the same analysis cache.
//! let runs = ExperimentRegistry::standard().run_all(&mut session)?;
//! assert_eq!(runs.len(), 11);
//! println!("{}", report::render_text(&runs[0].output));
//! assert_eq!(session.cache_stats().misses, 2 + 10 + 16); // each program once
//! # Ok(())
//! # }
//! ```

pub mod consolidation;
pub mod eval;
pub mod experiments;
pub mod frontier;
pub mod lint;
pub mod policies;
pub mod registry;
pub mod report;
pub mod security;

use cassandra_btu::encode::EncodedTraces;
use cassandra_btu::unit::BranchTraceUnit;
use cassandra_cpu::config::CpuConfig;
use cassandra_trace::stats::{BranchAnalysisRow, TraceSummary};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

pub use consolidation::{consolidation_with, ConsolidationResult};
pub use eval::{
    AnalysisSnapshot, AnalysisStore, CancelToken, DesignPoint, EvalRecord, Evaluator,
    SweepExecutor, SweepOutcome,
};
pub use frontier::{
    frontier_with, AdaptiveSearch, FrontierCell, FrontierPoint, FrontierProgress, FrontierResult,
};
pub use policies::{GridSweep, PolicyConflict, PolicyRegistry};
pub use registry::{Experiment, ExperimentOutput, ExperimentRegistry};

/// Default profiling step budget for trace generation.
pub const ANALYSIS_STEP_LIMIT: u64 = 200_000_000;

/// The result of the software side of Cassandra for one program, in the
/// form it is replayed from: the flat hardware encoding of the traces and
/// hints, which every Branch Trace Unit built from this analysis shares,
/// plus the program name and timing of the Algorithm 2 run. The encoding
/// also keeps each branch's two Table 1 sizes. The vanilla and k-mers
/// traces themselves are dropped once it is built;
/// [`cassandra_trace::genproc::generate_traces`] still returns them whole.
///
/// Serializable so an [`eval::AnalysisStore`] can snapshot its contents for
/// warm-starts (see [`eval::AnalysisSnapshot`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisBundle {
    /// Program name and §7.5 timing.
    pub summary: TraceSummary,
    /// Hardware encoding of the traces and hints (§5.2), with each
    /// branch's Table 1 sizes.
    pub encoded: Arc<EncodedTraces>,
}

impl AnalysisBundle {
    /// Builds a fresh Branch Trace Unit replaying these traces; the unit
    /// shares the encoding instead of copying it.
    pub fn make_btu(&self, config: &CpuConfig) -> BranchTraceUnit {
        BranchTraceUnit::new(config.btu, Arc::clone(&self.encoded))
    }

    /// Number of crypto branches that were analyzed (appeared in profiling).
    pub fn analyzed_branches(&self) -> usize {
        self.encoded.analyzed_branches()
    }

    /// This program's Table 1 row.
    pub fn branch_row(&self) -> BranchAnalysisRow {
        BranchAnalysisRow::from_sizes(
            &self.summary.program_name,
            self.encoded
                .trace_sizes()
                .map(|t| (t.vanilla_len, t.kmers_size)),
            self.encoded.single_target_count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cassandra_cpu::config::DefenseMode;
    use cassandra_kernels::suite;

    #[test]
    fn analyze_and_simulate_chacha20_under_all_designs() {
        let workload = suite::chacha20_workload(64);
        let mut ev = Evaluator::new();
        let analysis = ev.analysis(&workload).unwrap();
        assert!(analysis.analyzed_branches() > 0);
        let base_cfg = CpuConfig::golden_cove_like();
        let base = ev.simulate_cached(&workload, &base_cfg).unwrap();
        assert!(base.halted);
        for defense in [
            DefenseMode::Cassandra,
            DefenseMode::CassandraStl,
            DefenseMode::Spt,
        ] {
            let cfg = base_cfg.with_defense(defense);
            let outcome = ev.simulate_cached(&workload, &cfg).unwrap();
            assert!(outcome.halted, "{defense:?}");
            assert_eq!(
                outcome.stats.committed_instructions, base.stats.committed_instructions,
                "architectural behaviour must not change under {defense:?}"
            );
        }
    }

    #[test]
    fn cassandra_eliminates_crypto_mispredictions_on_a_real_kernel() {
        let workload = suite::sha256_workload(96);
        let cfg = CpuConfig::golden_cove_like().with_defense(DefenseMode::Cassandra);
        let outcome = Evaluator::new().simulate_cached(&workload, &cfg).unwrap();
        assert_eq!(outcome.stats.mispredictions, 0);
        assert_eq!(outcome.stats.squashed_instructions, 0);
    }
}
