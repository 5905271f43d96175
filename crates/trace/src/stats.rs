//! Branch-analysis statistics (the paper's Table 1).
//!
//! For each program the table reports, over all multi-target static branches
//! (single-target branches are excluded, as in the paper): the average and
//! maximum vanilla-trace size, the average and maximum k-mers trace size
//! (trace + pattern set), and the resulting compression rates.
//!
//! Those statistics need only each branch's two sizes. An analysis store
//! keeps them beside the branch's BTU encoding and keeps a [`TraceSummary`]
//! (program name and §7.5 timing) of the rest, dropping the vanilla and
//! k-mers traces once the encoding is built.

use crate::genproc::{GenTiming, TraceBundle};
use serde::{Deserialize, Serialize};

/// What an analysis store keeps of one Algorithm 2 run besides the BTU
/// encoding: the program name and the step timing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Name of the analyzed program.
    pub program_name: String,
    /// Timing breakdown of the generation steps.
    pub timing: GenTiming,
}

impl TraceSummary {
    /// Summarizes an Algorithm 2 result.
    pub fn from_bundle(bundle: &TraceBundle) -> Self {
        TraceSummary {
            program_name: bundle.program_name.clone(),
            timing: bundle.timing,
        }
    }
}

/// One row of the Table-1 style branch analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BranchAnalysisRow {
    /// Program name.
    pub program: String,
    /// Number of multi-target branches analyzed.
    pub multi_target_branches: usize,
    /// Number of single-target branches (excluded from the size statistics).
    pub single_target_branches: usize,
    /// Average vanilla trace size.
    pub vanilla_avg: f64,
    /// Maximum vanilla trace size.
    pub vanilla_max: usize,
    /// Average k-mers representation size (trace + pattern set).
    pub kmers_avg: f64,
    /// Maximum k-mers representation size.
    pub kmers_max: usize,
    /// Average compression rate (vanilla size / k-mers size, per branch).
    pub compression_avg: f64,
    /// Maximum compression rate.
    pub compression_max: f64,
}

impl BranchAnalysisRow {
    /// Computes the row for one analyzed program.
    pub fn from_bundle(bundle: &TraceBundle) -> Self {
        Self::from_sizes(
            &bundle.program_name,
            bundle
                .branches
                .values()
                .map(|data| (data.vanilla.len(), data.kmers.total_size())),
            bundle.hints.single_target_count(),
        )
    }

    /// Computes the row from the `(vanilla length, k-mers size)` of every
    /// multi-target branch with a stored trace, in PC order, and the number
    /// of single-target branches.
    pub fn from_sizes(
        program: &str,
        sizes: impl IntoIterator<Item = (usize, usize)>,
        single_target_branches: usize,
    ) -> Self {
        let mut vanilla_sizes: Vec<usize> = Vec::new();
        let mut kmers_sizes: Vec<usize> = Vec::new();
        let mut rates: Vec<f64> = Vec::new();
        for (v, k) in sizes {
            let k = k.max(1);
            vanilla_sizes.push(v);
            kmers_sizes.push(k);
            rates.push(v as f64 / k as f64);
        }
        let avg = |xs: &[usize]| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<usize>() as f64 / xs.len() as f64
            }
        };
        let avg_f = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        BranchAnalysisRow {
            program: program.to_string(),
            multi_target_branches: vanilla_sizes.len(),
            single_target_branches,
            vanilla_avg: avg(&vanilla_sizes),
            vanilla_max: vanilla_sizes.iter().copied().max().unwrap_or(0),
            kmers_avg: avg(&kmers_sizes),
            kmers_max: kmers_sizes.iter().copied().max().unwrap_or(0),
            compression_avg: avg_f(&rates),
            compression_max: rates.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// Aggregates several rows into an "All" summary row (averages of averages,
/// maxima of maxima — matching how the paper reports the final row).
pub fn summary_row(rows: &[BranchAnalysisRow]) -> BranchAnalysisRow {
    let n = rows.len().max(1) as f64;
    BranchAnalysisRow {
        program: "All".to_string(),
        multi_target_branches: rows.iter().map(|r| r.multi_target_branches).sum(),
        single_target_branches: rows.iter().map(|r| r.single_target_branches).sum(),
        vanilla_avg: rows.iter().map(|r| r.vanilla_avg).sum::<f64>() / n,
        vanilla_max: rows.iter().map(|r| r.vanilla_max).max().unwrap_or(0),
        kmers_avg: rows.iter().map(|r| r.kmers_avg).sum::<f64>() / n,
        kmers_max: rows.iter().map(|r| r.kmers_max).max().unwrap_or(0),
        compression_avg: rows.iter().map(|r| r.compression_avg).sum::<f64>() / n,
        compression_max: rows.iter().map(|r| r.compression_max).fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genproc::generate_traces;
    use cassandra_isa::builder::ProgramBuilder;
    use cassandra_isa::reg::{A0, A1, ZERO};

    fn looping_program(outer: u64, inner: u64) -> cassandra_isa::program::Program {
        let mut b = ProgramBuilder::new("stats-loops");
        b.begin_crypto();
        b.li(A0, outer);
        b.label("outer");
        b.li(A1, inner);
        b.label("inner");
        b.addi(A1, A1, -1);
        b.bne(A1, ZERO, "inner");
        b.addi(A0, A0, -1);
        b.bne(A0, ZERO, "outer");
        b.end_crypto();
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn row_reflects_compression() {
        let p = looping_program(10, 20);
        let bundle = generate_traces(&p, None, 1_000_000).unwrap();
        let row = BranchAnalysisRow::from_bundle(&bundle);
        assert_eq!(row.multi_target_branches, 2);
        assert!(
            row.vanilla_avg >= row.kmers_avg,
            "compression should not inflate"
        );
        assert!(row.compression_avg >= 1.0);
        assert!(row.vanilla_max >= row.vanilla_avg as usize);
    }

    #[test]
    fn summary_aggregates() {
        let p1 = looping_program(4, 6);
        let p2 = looping_program(8, 3);
        let r1 = BranchAnalysisRow::from_bundle(&generate_traces(&p1, None, 100_000).unwrap());
        let r2 = BranchAnalysisRow::from_bundle(&generate_traces(&p2, None, 100_000).unwrap());
        let all = summary_row(&[r1.clone(), r2.clone()]);
        assert_eq!(all.program, "All");
        assert_eq!(
            all.multi_target_branches,
            r1.multi_target_branches + r2.multi_target_branches
        );
        assert!(all.vanilla_max >= r1.vanilla_max.max(r2.vanilla_max));
    }

    #[test]
    fn empty_bundle_gives_zero_row() {
        let bundle = TraceBundle::default();
        let row = BranchAnalysisRow::from_bundle(&bundle);
        assert_eq!(row.multi_target_branches, 0);
        assert_eq!(row.vanilla_avg, 0.0);
        assert_eq!(row.kmers_max, 0);
    }
}
