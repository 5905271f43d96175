//! # cassandra-cpu
//!
//! A cycle-approximate out-of-order processor model for the Cassandra
//! reproduction: branch prediction (PHT/BTB/RSB), a four-level cache
//! hierarchy, the Cassandra Branch Trace Unit integration, the defense models
//! compared in the paper's evaluation (unsafe baseline, Cassandra,
//! Cassandra+STL, Cassandra-lite, SPT, ProSpeCT, Cassandra+ProSpeCT, plus
//! the Fence and Cassandra-noTC scenarios) and an analytic power/area model.
//!
//! Defenses are layered: a [`config::DefenseMode`] is only a *name*; the
//! mechanisms it enables live in a [`policy::DefensePolicy`] (resolved once
//! at pipeline construction), whose [`policy::FrontendKind`] selects the
//! decision the one [`frontend::Frontend`] makes at each fetched branch.
//! Every tunable — BTU geometry, tournament threshold, penalties — is a
//! plain [`config::CpuConfig`] field that [`config::CpuConfig::with_defense`]
//! presets. The pipeline core never matches on the mode — new defense
//! scenarios are new policy values.
//!
//! The main entry point is [`pipeline::simulate`]:
//!
//! ```
//! use cassandra_cpu::config::{CpuConfig, DefenseMode};
//! use cassandra_cpu::pipeline::simulate;
//! use cassandra_isa::builder::ProgramBuilder;
//! use cassandra_isa::reg::{A0, ZERO};
//!
//! # fn main() -> Result<(), cassandra_isa::error::IsaError> {
//! let mut b = ProgramBuilder::new("count");
//! b.li(A0, 100);
//! b.label("l");
//! b.addi(A0, A0, -1);
//! b.bne(A0, ZERO, "l");
//! b.halt();
//! let program = b.build()?;
//!
//! let outcome = simulate(&program, CpuConfig::golden_cove_like(), None)?;
//! assert!(outcome.halted);
//! assert!(outcome.stats.ipc() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod bpu;
pub mod cache;
pub mod config;
pub mod frontend;
pub mod multi;
pub mod pipeline;
pub mod policy;
pub mod power;
pub mod stats;
pub mod taint;

pub use config::{CpuConfig, DefenseMode, ParseDefenseModeError};
pub use frontend::{BranchEvent, FetchOutcome, Frontend, FrontendDecision};
pub use multi::{
    simulate_multi, MultiTenantOutcome, MultiTenantSimulator, SwitchPolicy, Tenant, TenantOutcome,
};
pub use pipeline::{simulate, SimOutcome, Simulator};
pub use policy::{DefensePolicy, FrontendKind};
pub use power::{power_area_report, PowerAreaReport};
pub use stats::SimStats;
