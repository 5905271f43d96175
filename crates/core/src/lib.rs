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
//! design matrix in parallel when the `parallel` feature (default) is on.
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
//!
//! ## Deprecated path: the stateless free functions
//!
//! [`analyze_workload`] / [`analyze_program`] / [`simulate_workload`] /
//! [`simulate_program`] predate the session API. They are kept as thin
//! shims delegating to a one-shot [`eval::Evaluator`] so existing code
//! keeps compiling, but they re-derive the analysis on every call — new
//! code should hold an `Evaluator` instead. They may be removed in a future
//! major version.
//!
//! ```
//! use cassandra_core::{analyze_workload, simulate_workload};
//! use cassandra_cpu::config::{CpuConfig, DefenseMode};
//! use cassandra_kernels::suite;
//!
//! # fn main() -> Result<(), cassandra_isa::error::IsaError> {
//! let workload = suite::chacha20_workload(64);
//! let analysis = analyze_workload(&workload)?;
//! let cfg = CpuConfig::golden_cove_like().with_defense(DefenseMode::Cassandra);
//! let outcome = simulate_workload(&workload, &analysis, &cfg)?;
//! assert_eq!(outcome.stats.mispredictions, 0);
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
use cassandra_cpu::pipeline::SimOutcome;
use cassandra_isa::error::IsaError;
use cassandra_isa::program::Program;
use cassandra_kernels::workload::Workload;
use cassandra_trace::stats::{BranchAnalysisRow, TraceSummary};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

pub use consolidation::{consolidation, consolidation_with, ConsolidationResult};
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

/// Runs the branch analysis (Algorithm 2) on an arbitrary program.
///
/// Deprecated path: delegates to [`Evaluator::analyze_once`]; prefer a
/// session's [`Evaluator::analyze_program`], which memoizes.
///
/// # Errors
///
/// Propagates profiling-run errors (step budget, malformed program).
pub fn analyze_program(program: &Program, step_limit: u64) -> Result<AnalysisBundle, IsaError> {
    Evaluator::analyze_once(program, step_limit)
}

/// Runs the branch analysis on a workload's kernel.
///
/// Deprecated path: delegates to a one-shot [`Evaluator`]; prefer
/// [`Evaluator::analysis`], which memoizes.
///
/// # Errors
///
/// Propagates profiling-run errors.
pub fn analyze_workload(workload: &Workload) -> Result<AnalysisBundle, IsaError> {
    analyze_program(&workload.kernel.program, workload.kernel.step_limit)
}

/// Simulates an arbitrary program under `config`, loading `analysis` traces
/// into a BTU when the configured defense uses one.
///
/// Deprecated path: thin shim over [`Evaluator::simulate_program`].
///
/// # Errors
///
/// Propagates simulation errors.
pub fn simulate_program(
    program: &Program,
    analysis: Option<&AnalysisBundle>,
    config: &CpuConfig,
) -> Result<SimOutcome, IsaError> {
    Evaluator::simulate_program(program, analysis, config)
}

/// Simulates a workload's kernel under `config`.
///
/// Deprecated path: prefer [`Evaluator::simulate_cached`] or
/// [`Evaluator::eval`], which reuse cached analyses.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn simulate_workload(
    workload: &Workload,
    analysis: &AnalysisBundle,
    config: &CpuConfig,
) -> Result<SimOutcome, IsaError> {
    let mut cfg = *config;
    cfg.max_instructions = cfg.max_instructions.max(workload.kernel.step_limit);
    simulate_program(&workload.kernel.program, Some(analysis), &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cassandra_cpu::config::DefenseMode;
    use cassandra_kernels::suite;

    #[test]
    fn analyze_and_simulate_chacha20_under_all_designs() {
        let workload = suite::chacha20_workload(64);
        let analysis = analyze_workload(&workload).unwrap();
        assert!(analysis.analyzed_branches() > 0);
        let base_cfg = CpuConfig::golden_cove_like();
        let base = simulate_workload(&workload, &analysis, &base_cfg).unwrap();
        assert!(base.halted);
        for defense in [
            DefenseMode::Cassandra,
            DefenseMode::CassandraStl,
            DefenseMode::Spt,
        ] {
            let cfg = base_cfg.with_defense(defense);
            let outcome = simulate_workload(&workload, &analysis, &cfg).unwrap();
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
        let analysis = analyze_workload(&workload).unwrap();
        let cfg = CpuConfig::golden_cove_like().with_defense(DefenseMode::Cassandra);
        let outcome = simulate_workload(&workload, &analysis, &cfg).unwrap();
        assert_eq!(outcome.stats.mispredictions, 0);
        assert_eq!(outcome.stats.squashed_instructions, 0);
    }
}
