//! The static-lint experiment: per-workload constant-time and
//! speculative-leakage verdicts from the [`cassandra_analysis`] static
//! analyzer, served through the shared
//! [`AnalysisStore`](crate::eval::AnalysisStore) so each distinct program is
//! linted at most once per store, however many executors or server requests
//! ask for it.
//!
//! The verdicts over-approximate: a `ct-clean` row is a guarantee (no
//! secret-dependent branch condition or access address exists on any
//! architectural or bounded wrong-path execution the analyzer models),
//! while `arch-leak`/`transient-leak` rows may include false positives.
//! The differential tests in `tests/static_differential.rs` pin the
//! direction: every leak the dynamic security sweep observes must be
//! statically flagged, never the converse.

use crate::eval::SweepExecutor;
use cassandra_analysis::{StaticReport, StaticVerdict};
use cassandra_kernels::workload::{Workload, WorkloadGroup};
use serde::{Deserialize, Serialize};

/// One row of the lint table: a workload's static verdict plus the summary
/// counters that explain it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintRow {
    /// Workload name (unique within a suite).
    pub workload: String,
    /// Workload grouping (paper table / synthetic family).
    pub group: WorkloadGroup,
    /// The headline verdict: `ct-clean`, `arch-leak` or `transient-leak`.
    pub verdict: StaticVerdict,
    /// Static instruction count of the kernel program.
    pub instructions: usize,
    /// Conditional branches in the program.
    pub conditional_branches: usize,
    /// Conditional branches whose condition is secret-tainted somewhere.
    pub tainted_branches: usize,
    /// Findings on architecturally reachable paths.
    pub arch_findings: usize,
    /// Findings reachable only inside speculative wrong-path windows.
    pub transient_findings: usize,
}

impl LintRow {
    /// Builds a row from a workload and its static report.
    pub fn from_report(workload: &Workload, report: &StaticReport) -> Self {
        LintRow {
            workload: workload.name.clone(),
            group: workload.group,
            verdict: report.verdict(),
            instructions: report.instructions,
            conditional_branches: report.conditional_branches,
            tainted_branches: report.tainted_branches.len(),
            arch_findings: report.arch_findings().count(),
            transient_findings: report.transient_findings().count(),
        }
    }
}

/// Lints every workload through the executor's shared store and returns
/// one row per workload, in input order.
pub fn lint_with(ex: &SweepExecutor<'_>, workloads: &[Workload]) -> Vec<LintRow> {
    workloads
        .iter()
        .map(|w| LintRow::from_report(w, &ex.store().lint(&w.kernel.program)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::AnalysisStore;
    use cassandra_kernels::suite;

    #[test]
    fn lint_rows_summarize_the_reports_and_memoize() {
        let store = AnalysisStore::new();
        let w = suite::chacha20_workload(64);
        let first = store.lint(&w.kernel.program);
        let again = store.lint(&w.kernel.program);
        assert!(
            std::sync::Arc::ptr_eq(&first, &again),
            "repeat lints must be served from the store"
        );
        let row = LintRow::from_report(&w, &first);
        assert_eq!(row.verdict, StaticVerdict::CtClean);
        assert_eq!(row.workload, w.name);
        assert!(row.instructions > 0);
        assert!(row.conditional_branches >= row.tainted_branches);
    }

    #[test]
    fn lint_does_not_touch_algorithm2_counters() {
        let store = AnalysisStore::new();
        let workloads = [suite::chacha20_workload(64), suite::des_workload(4)];
        let rows = lint_with(&SweepExecutor::new(&store), &workloads);
        assert_eq!(rows.len(), 2);
        let stats = store.stats();
        assert_eq!(stats.misses, 0, "static lint must never run Algorithm 2");
        assert_eq!(store.len(), 0);
        assert_eq!(store.linted_programs(), 2);
    }
}
