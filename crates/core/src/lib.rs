//! # cassandra-core
//!
//! The top-level API of the Cassandra reproduction. It ties the workspace
//! together: branch analysis (`cassandra-trace`), trace encoding
//! (`cassandra-btu`), the processor model (`cassandra-cpu`) and the workload
//! suite (`cassandra-kernels`).
//!
//! ## The evaluation API (start here)
//!
//! Cassandra analyzes each program once (Algorithm 2) and then replays its
//! compressed traces on every run. The API has one layer for each half
//! (see [`eval`]):
//!
//! * [`eval::AnalysisStore`] — analyse once. A thread-safe cache that runs
//!   Algorithm 2 **once per distinct program**, memoized by content
//!   fingerprint, however many design points, sweeps, experiments or
//!   concurrent server requests consume the result; serializable for
//!   warm-starts.
//! * [`eval::SweepExecutor`] — simulate many. A stateless engine borrowing
//!   a store that simulates single cells or whole workload × design
//!   matrices of [`eval::DesignPoint`]s (a label plus a complete
//!   `CpuConfig`), in parallel, as streaming sweeps cancellable through
//!   [`eval::CancelToken`]. The evaluation server runs N concurrent
//!   requests against one store this way.
//!
//! On top of it, the [`registry::Experiment`] enum names every paper
//! experiment (Table 1, Figures 7–9, Q3, Q4, the Table-2 security sweep and
//! the §7.5 trace-generation timing), each run on an executor with its
//! workloads passed explicitly; [`policies::PolicyRegistry`] enumerates the
//! modelled defense scenarios as named design points (so sweeps and the
//! security experiment never hand-list `DefenseMode` variants), and
//! [`report`] renders any [`registry::ExperimentOutput`] to text, CSV or
//! JSON.
//!
//! ```
//! use cassandra_core::eval::{AnalysisStore, DesignPoint, SweepExecutor};
//! use cassandra_core::registry::Experiment;
//! use cassandra_core::report;
//! use cassandra_cpu::config::DefenseMode;
//! use cassandra_kernels::suite;
//!
//! # fn main() -> Result<(), cassandra_isa::error::IsaError> {
//! let store = AnalysisStore::new();
//! let ex = SweepExecutor::new(&store);
//! let workloads = [suite::chacha20_workload(64), suite::des_workload(4)];
//! let designs = [DefenseMode::UnsafeBaseline, DefenseMode::Cassandra]
//!     .map(DesignPoint::from_defense);
//!
//! // The uniform record stream of the workload × design sweep …
//! let records = ex.sweep_matrix(&workloads, &designs)?;
//! assert_eq!(records.len(), 4);
//!
//! // … and the full experiment suite, sharing the same analysis store.
//! let runs = Experiment::standard()
//!     .iter()
//!     .map(|experiment| experiment.run(&ex, &workloads))
//!     .collect::<Result<Vec<_>, _>>()?;
//! assert_eq!(runs.len(), 11);
//! println!("{}", report::render_text(&runs[0].output));
//! assert_eq!(store.stats().misses, 2 + 10 + 16); // each program once
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
use cassandra_isa::error::IsaError;
use cassandra_isa::program::Program;
use cassandra_trace::genproc::generate_traces;
use cassandra_trace::stats::{BranchAnalysisRow, TraceSummary};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

pub use consolidation::{consolidation_with, ConsolidationResult};
pub use eval::{
    AnalysisSnapshot, AnalysisStore, CancelToken, DesignPoint, EvalRecord, SweepExecutor,
    SweepOutcome,
};
pub use frontier::{
    frontier_with, AdaptiveSearch, FrontierCell, FrontierPoint, FrontierProgress, FrontierResult,
};
pub use policies::{GridSweep, PolicyRegistry};
pub use registry::{Experiment, ExperimentOutput};

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
    /// Runs Algorithm 2 on `program` once, touching no store, and keeps its
    /// replay form (the `TraceBundle` is dropped): the primitive behind
    /// every [`eval::AnalysisStore`] miss.
    ///
    /// # Errors
    ///
    /// Propagates profiling-run errors from Algorithm 2.
    pub fn analyze(program: &Program, step_limit: u64) -> Result<Self, IsaError> {
        let traces = generate_traces(program, None, step_limit)?;
        Ok(AnalysisBundle {
            summary: TraceSummary::from_bundle(&traces),
            encoded: Arc::new(EncodedTraces::from_bundle(program, &traces)),
        })
    }

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
        let store = AnalysisStore::new();
        let ex = SweepExecutor::new(&store);
        let kernel = &workload.kernel;
        let (analysis, _) = store.entry(&kernel.program, kernel.step_limit).unwrap();
        assert!(analysis.analyzed_branches() > 0);
        let base_cfg = CpuConfig::golden_cove_like();
        let base = ex.simulate(&workload, &base_cfg).unwrap();
        assert!(base.halted);
        for defense in [
            DefenseMode::Cassandra,
            DefenseMode::CassandraStl,
            DefenseMode::Spt,
        ] {
            let cfg = base_cfg.with_defense(defense);
            let outcome = ex.simulate(&workload, &cfg).unwrap();
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
        let store = AnalysisStore::new();
        let outcome = SweepExecutor::new(&store)
            .simulate(&workload, &cfg)
            .unwrap();
        assert_eq!(outcome.stats.mispredictions, 0);
        assert_eq!(outcome.stats.squashed_instructions, 0);
    }
}
