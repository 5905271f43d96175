//! The automatic trace generation procedure of the paper's Algorithm 2
//! (steps A–E) plus its timing breakdown (§7.5).
//!
//! The procedure detects static branches, collects raw traces, builds vanilla
//! traces and the DNA view, runs the k-mers compression, diffs the result
//! against a second profiling input to find input-dependent branches, and
//! finally produces the per-branch hint information that is "embedded in the
//! binary" (here: carried alongside the program in a [`TraceBundle`]).

use crate::collect::collect_raw_traces;
use crate::hints::{BranchHint, BranchHints};
use crate::kmers::{compress, KmersConfig, KmersTrace};
use crate::vanilla::VanillaTrace;
use cassandra_isa::error::IsaError;
use cassandra_isa::instr::BranchKind;
use cassandra_isa::program::Program;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Number of Trace Cache elements per entry; traces at most this long get the
/// short-trace mark (§5.2).
pub const SHORT_TRACE_ELEMENTS: usize = 16;

/// The analyzed trace data of one multi-target crypto branch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchTraceData {
    /// Branch PC.
    pub pc: usize,
    /// Branch classification.
    pub kind: BranchKind,
    /// The vanilla (RLE) trace.
    pub vanilla: VanillaTrace,
    /// The compressed k-mers trace.
    pub kmers: KmersTrace,
}

/// Wall-clock timing of the trace-generation steps (the paper's §7.5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenTiming {
    /// Step A: static branch detection.
    pub detect: Duration,
    /// Step B: raw trace collection (both profiling runs).
    pub collect: Duration,
    /// Step C: vanilla trace construction.
    pub vanilla: Duration,
    /// Steps D–E: DNA encoding and k-mers compression.
    pub kmers: Duration,
}

impl GenTiming {
    /// Total trace-generation time.
    pub fn total(&self) -> Duration {
        self.detect + self.collect + self.vanilla + self.kmers
    }
}

/// The output of Algorithm 2: per-branch compressed traces plus hints.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceBundle {
    /// Name of the analyzed program.
    pub program_name: String,
    /// Compressed traces for multi-target crypto branches with stable traces.
    pub branches: BTreeMap<usize, BranchTraceData>,
    /// Hints for every static crypto branch that appeared during profiling.
    pub hints: BranchHints,
    /// Timing breakdown of the generation steps.
    pub timing: GenTiming,
}

impl TraceBundle {
    /// Number of crypto branches that were analyzed (appeared in profiling).
    pub fn analyzed_branches(&self) -> usize {
        self.hints.len()
    }
}

/// Runs Algorithm 2 on `program`.
///
/// `second_input` is an optional second build of the same program with
/// different inputs (same text, different data); branches whose compressed
/// traces differ between the two runs are marked input dependent. When it is
/// `None` the single profiling run is used alone (all traces are treated as
/// stable), which matches the common case of fully static control flow.
///
/// # Errors
///
/// Propagates executor errors from the profiling runs.
pub fn generate_traces(
    program: &Program,
    second_input: Option<&Program>,
    max_steps: u64,
) -> Result<TraceBundle, IsaError> {
    generate_traces_with_config(program, second_input, max_steps, &KmersConfig::default())
}

/// [`generate_traces`] with an explicit compression configuration.
///
/// # Errors
///
/// Propagates executor errors from the profiling runs.
pub fn generate_traces_with_config(
    program: &Program,
    second_input: Option<&Program>,
    max_steps: u64,
    config: &KmersConfig,
) -> Result<TraceBundle, IsaError> {
    let mut timing = GenTiming::default();

    // Step A: detect static branches.
    let t0 = Instant::now();
    let crypto_branches = program.crypto_branches();
    timing.detect = t0.elapsed();

    // Step B: collect raw traces (for both profiling inputs).
    let t0 = Instant::now();
    let raw1 = collect_raw_traces(program, max_steps)?;
    let raw2 = match second_input {
        Some(p2) => Some(collect_raw_traces(p2, max_steps)?),
        None => None,
    };
    timing.collect = t0.elapsed();

    let mut bundle = TraceBundle {
        program_name: program.name.clone(),
        ..TraceBundle::default()
    };

    for branch in &crypto_branches {
        let Some(raw) = raw1.get(&branch.pc) else {
            bundle
                .hints
                .hints
                .insert(branch.pc, BranchHint::NotExecuted);
            continue;
        };

        // Step C: vanilla traces.
        let t0 = Instant::now();
        let vanilla = VanillaTrace::from_raw(raw);
        timing.vanilla += t0.elapsed();

        if vanilla.is_single_target() {
            let target = vanilla.distinct_targets().first().copied().unwrap_or(0);
            bundle
                .hints
                .hints
                .insert(branch.pc, BranchHint::SingleTarget { target });
            continue;
        }

        // Steps D-E: DNA encoding + k-mers compression.
        let t0 = Instant::now();
        let kmers = compress(&vanilla, config);
        let stable = match &raw2 {
            None => true,
            Some(r2) => match r2.get(&branch.pc) {
                // The branch must exist in the second run and compress to the
                // same trace; otherwise it is input dependent.
                Some(raw_b) => {
                    let vanilla_b = VanillaTrace::from_raw(raw_b);
                    compress(&vanilla_b, config) == kmers
                }
                None => false,
            },
        };
        timing.kmers += t0.elapsed();

        if !stable {
            bundle
                .hints
                .hints
                .insert(branch.pc, BranchHint::InputDependent);
            continue;
        }

        let short_trace = kmers.total_size() <= SHORT_TRACE_ELEMENTS;
        bundle
            .hints
            .hints
            .insert(branch.pc, BranchHint::MultiTarget { short_trace });
        bundle.branches.insert(
            branch.pc,
            BranchTraceData {
                pc: branch.pc,
                kind: branch.kind,
                vanilla,
                kmers,
            },
        );
    }

    bundle.timing = timing;
    Ok(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cassandra_isa::builder::ProgramBuilder;
    use cassandra_isa::reg::{A0, A1, ZERO};

    fn nested_loop_program(outer: u64, inner: u64) -> Program {
        let mut b = ProgramBuilder::new("nested");
        b.begin_crypto();
        b.li(A0, outer);
        b.label("outer");
        b.li(A1, inner);
        b.label("inner");
        b.addi(A1, A1, -1);
        b.bne(A1, ZERO, "inner");
        b.addi(A0, A0, -1);
        b.bne(A0, ZERO, "outer");
        b.call("leaf");
        b.end_crypto();
        b.halt();
        b.func("leaf");
        b.ret();
        b.build().unwrap()
    }

    #[test]
    fn loop_branches_get_multi_target_traces() {
        let p = nested_loop_program(5, 7);
        let bundle = generate_traces(&p, None, 100_000).unwrap();
        // Crypto branches: inner bne (multi-target), outer bne (multi-target),
        // call (single target). The leaf's `ret` sits outside the crypto
        // region and is therefore not analyzed.
        assert_eq!(bundle.hints.multi_target_count(), 2);
        assert_eq!(bundle.hints.single_target_count(), 1);
        assert_eq!(bundle.hints.stalled_count(), 0);
        for data in bundle.branches.values() {
            assert!(data.kmers.total_size() <= 16, "loop traces are tiny");
            assert_eq!(
                data.kmers.expand(),
                data.vanilla.expand(),
                "compression is lossless"
            );
        }
    }

    #[test]
    fn stable_traces_across_identical_inputs() {
        let p1 = nested_loop_program(5, 7);
        let p2 = nested_loop_program(5, 7);
        let bundle = generate_traces(&p1, Some(&p2), 100_000).unwrap();
        assert_eq!(bundle.hints.stalled_count(), 0);
    }

    #[test]
    fn input_dependent_branches_are_detected() {
        // The inner loop count differs between the two profiling inputs, so
        // the inner branch (and the outer one whose trace also changes) must
        // be marked input dependent.
        let p1 = nested_loop_program(5, 7);
        let p2 = nested_loop_program(5, 9);
        let bundle = generate_traces(&p1, Some(&p2), 100_000).unwrap();
        assert!(bundle.hints.stalled_count() >= 1);
        assert!(bundle.branches.len() < 2);
    }

    #[test]
    fn non_crypto_branches_are_ignored() {
        let mut b = ProgramBuilder::new("mixed");
        b.li(A0, 3);
        b.label("l");
        b.addi(A0, A0, -1);
        b.bne(A0, ZERO, "l");
        b.begin_crypto();
        b.li(A1, 2);
        b.label("c");
        b.addi(A1, A1, -1);
        b.bne(A1, ZERO, "c");
        b.end_crypto();
        b.halt();
        let p = b.build().unwrap();
        let bundle = generate_traces(&p, None, 10_000).unwrap();
        assert_eq!(
            bundle.analyzed_branches(),
            1,
            "only the crypto branch is analyzed"
        );
    }

    #[test]
    fn timing_is_recorded() {
        let p = nested_loop_program(3, 3);
        let bundle = generate_traces(&p, None, 100_000).unwrap();
        assert!(bundle.timing.total() > Duration::ZERO);
    }

    #[test]
    fn kernel_suite_traces_are_compact() {
        // The headline claim of Table 1: compressed traces are tiny compared
        // to vanilla traces for real kernels.
        let workload = cassandra_kernels::suite::chacha20_workload(256);
        let bundle =
            generate_traces(&workload.kernel.program, None, workload.kernel.step_limit).unwrap();
        assert!(bundle.analyzed_branches() > 0);
        for data in bundle.branches.values() {
            assert!(
                data.kmers.total_size() <= 64,
                "branch {} compresses to {} elements",
                data.pc,
                data.kmers.total_size()
            );
            assert_eq!(data.kmers.expand(), data.vanilla.expand());
        }
    }
}
