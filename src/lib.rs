//! # Cassandra (reproduction)
//!
//! Facade crate for the Cassandra reproduction. Re-exports the public API of the
//! workspace crates so that examples and downstream users only need a single
//! dependency.
//!
//! The paper: *Cassandra: Efficient Enforcement of Sequential Execution for
//! Cryptographic Programs*, ISCA 2025.
//!
//! ## Quickstart: analyse once, simulate many
//!
//! ```
//! use cassandra::prelude::*;
//!
//! // One store caches the Algorithm-2 analysis of each program; executors
//! // over it simulate workloads × designs.
//! let store = AnalysisStore::new();
//! let workloads = [cassandra::kernels::suite::chacha20_workload(64)];
//! let designs = [DefenseMode::UnsafeBaseline, DefenseMode::Cassandra]
//!     .map(DesignPoint::from_defense);
//! let records = SweepExecutor::new(&store)
//!     .sweep_matrix(&workloads, &designs)
//!     .expect("sweep");
//! assert_eq!(records.len(), 2);
//! assert!(records.iter().all(|r| r.stats.committed_instructions > 0));
//! assert_eq!(store.stats().misses, 1); // analyzed once, simulated twice
//! ```

pub use cassandra_analysis as analysis;
pub use cassandra_btu as btu;
pub use cassandra_core as core;
pub use cassandra_cpu as cpu;
pub use cassandra_isa as isa;
pub use cassandra_kernels as kernels;
pub use cassandra_server as server;
pub use cassandra_trace as trace;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use cassandra_analysis::{analyze, StaticReport, StaticVerdict};
    pub use cassandra_core::eval::{
        AnalysisSnapshot, AnalysisStore, CancelToken, DesignPoint, EvalRecord, SweepExecutor,
        SweepOutcome,
    };
    pub use cassandra_core::frontier::{
        frontier_with, AdaptiveSearch, FrontierCell, FrontierPoint, FrontierProgress,
        FrontierResult,
    };
    pub use cassandra_core::lint::LintRow;
    pub use cassandra_core::policies::{GridSweep, PolicyRegistry};
    pub use cassandra_core::registry::{Experiment, ExperimentOutput};
    pub use cassandra_core::report::{self, ReportFormat};
    pub use cassandra_core::AnalysisBundle;
    pub use cassandra_cpu::config::{CpuConfig, DefenseMode};
    pub use cassandra_cpu::frontend::{BranchEvent, FetchOutcome, Frontend, FrontendDecision};
    pub use cassandra_cpu::pipeline::SimOutcome;
    pub use cassandra_cpu::policy::{DefensePolicy, FrontendKind};
    pub use cassandra_isa::program::Program;
    pub use cassandra_kernels::workload::Workload;
}
