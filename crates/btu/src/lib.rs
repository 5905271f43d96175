//! # cassandra-btu
//!
//! The Branch Trace Unit (BTU) of the Cassandra microarchitecture (§5 of the
//! paper): the element encodings of Figure 4, the conversion from compressed
//! k-mers traces to Pattern Table / Trace Cache contents, and the runtime
//! unit with its fetch, commit, squash, eviction and flush flows.
//!
//! The BTU answers one question for the frontend: *given that a crypto branch
//! at PC `p` is being fetched, what is the next PC according to the recorded
//! sequential trace?* It never consults the branch predictor, and it tracks
//! two positions per branch — the speculative fetch position and the
//! committed position (checkpointed in the Checkpoint Table) — so that
//! squashes caused by non-crypto mispredictions or interrupts can be rolled
//! back precisely.
//!
//! ```
//! use cassandra_btu::encode::EncodedTraces;
//! use cassandra_btu::unit::{BranchTraceUnit, BtuConfig};
//! use cassandra_isa::builder::ProgramBuilder;
//! use cassandra_isa::reg::{A0, ZERO};
//! use cassandra_trace::genproc::generate_traces;
//!
//! # fn main() -> Result<(), cassandra_isa::error::IsaError> {
//! let mut b = ProgramBuilder::new("loop");
//! b.begin_crypto();
//! b.li(A0, 3);
//! b.label("l");
//! b.addi(A0, A0, -1);
//! b.bne(A0, ZERO, "l");
//! b.end_crypto();
//! b.halt();
//! let program = b.build()?;
//! let bundle = generate_traces(&program, None, 10_000)?;
//! let encoded = EncodedTraces::from_bundle(&program, &bundle);
//! let mut btu = BranchTraceUnit::new(BtuConfig::default(), encoded);
//!
//! // The loop branch at pc 2 is taken twice (target 1) and then falls through.
//! assert_eq!(btu.fetch_lookup(2).next_pc, Some(1));
//! btu.commit_branch(2);
//! assert_eq!(btu.fetch_lookup(2).next_pc, Some(1));
//! btu.commit_branch(2);
//! assert_eq!(btu.fetch_lookup(2).next_pc, Some(3));
//! # Ok(())
//! # }
//! ```

pub mod cursor;
pub mod element;
pub mod encode;
pub mod unit;

pub use element::{CheckpointElement, PatternElement, TraceElement};
pub use encode::{BranchTrace, EncodedBranchTrace, EncodedTraces, TraceSizes};
pub use unit::{BranchTraceUnit, BtuConfig, BtuLookup, BtuStats};
