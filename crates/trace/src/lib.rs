//! # cassandra-trace
//!
//! The software half of Cassandra (§4 of the paper): branch-trace collection,
//! run-length-encoded *vanilla traces*, the DNA-sequence view of a trace, the
//! iterative *k*-mers compression of Algorithm 1, the automatic trace
//! generation procedure of Algorithm 2 (two-input differencing and hint
//! embedding), and the Table-1 statistics.
//!
//! The entry point for most users is [`genproc::generate_traces`], which
//! takes a program (plus an optional second build with different inputs) and
//! produces a [`genproc::TraceBundle`]: per-branch compressed traces and the
//! per-branch hint information that the `cassandra-btu` crate consumes.
//!
//! ```
//! use cassandra_isa::builder::ProgramBuilder;
//! use cassandra_isa::reg::{A0, ZERO};
//! use cassandra_trace::genproc::generate_traces;
//!
//! # fn main() -> Result<(), cassandra_isa::error::IsaError> {
//! let mut b = ProgramBuilder::new("loop");
//! b.begin_crypto();
//! b.li(A0, 10);
//! b.label("l");
//! b.addi(A0, A0, -1);
//! b.bne(A0, ZERO, "l");
//! b.end_crypto();
//! b.halt();
//! let program = b.build()?;
//!
//! let bundle = generate_traces(&program, None, 100_000)?;
//! assert_eq!(bundle.analyzed_branches(), 1);
//! # Ok(())
//! # }
//! ```

pub mod collect;
pub mod dna;
pub mod fingerprint;
pub mod genproc;
pub mod hints;
pub mod kmers;
pub mod stats;
pub mod vanilla;

pub use collect::{collect_raw_traces, RawTraces};
pub use fingerprint::program_fingerprint;
pub use genproc::{generate_traces, TraceBundle};
pub use hints::{BranchHint, BranchHints};
pub use kmers::{KmersTrace, PatternSet};
pub use stats::TraceSummary;
pub use vanilla::{VanillaElement, VanillaTrace};
