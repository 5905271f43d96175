//! Empirical security analysis: the paper's Figure 6 / Table 2 scenarios and
//! a testable form of Theorem 1.
//!
//! The adversary model matches §6: the attacker observes the microarchitectural
//! context — here the sequence of data-cache accesses, including those made by
//! squashed wrong-path instructions. A program *leaks* under a design if two
//! runs that differ only in a secret produce different attacker-visible
//! access sequences.

use crate::eval::{simulate_program, AnalysisStore, SweepExecutor};
use cassandra_cpu::config::{CpuConfig, DefenseMode};
use cassandra_cpu::pipeline::SimOutcome;
use cassandra_isa::error::IsaError;
use cassandra_isa::exec::contract_trace;
use cassandra_isa::observe::ContractTrace;
use cassandra_isa::program::Program;
use cassandra_kernels::gadgets::{scenario, BranchSite, GadgetProgram, LeakGadget};
use serde::{Deserialize, Serialize};

/// The attacker-visible result of running one program build. Holds the
/// simulation outcome by value — the access traces are borrowed from it, so
/// building and comparing observations allocates nothing beyond the run
/// itself (the security differ compares one pair per sweep cell).
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageObservation {
    /// Sequential (architectural) contract trace under the ct leakage model.
    pub contract: ContractTrace,
    /// The full simulation outcome, including both access traces.
    pub outcome: SimOutcome,
}

impl LeakageObservation {
    /// Attacker-visible data-access sequence (architectural + transient),
    /// borrowed — compare with `Iterator::eq`, collect only if needed.
    pub fn attacker_accesses(&self) -> impl Iterator<Item = u64> + '_ {
        self.outcome.attacker_visible_accesses()
    }

    /// Accesses made only by squashed wrong-path execution.
    pub fn transient_accesses(&self) -> &[u64] {
        &self.outcome.transient_accesses
    }
}

/// Profiling step budget for the small gadget programs.
const GADGET_STEP_LIMIT: u64 = 10_000_000;

/// Runs a program under `config` and collects the attacker-visible traces.
/// The program's analysis is served from (and recorded in) the executor's
/// store.
///
/// # Errors
///
/// Propagates analysis or simulation errors.
pub fn observe_with(
    ex: &SweepExecutor<'_>,
    program: &Program,
    config: &CpuConfig,
) -> Result<LeakageObservation, IsaError> {
    let analysis = if config.resolved_policy().frontend.uses_btu() {
        Some(ex.store().entry(program, GADGET_STEP_LIMIT)?.0)
    } else {
        None
    };
    let outcome = simulate_program(program, analysis.as_deref(), config)?;
    Ok(LeakageObservation {
        contract: contract_trace(program, GADGET_STEP_LIMIT)?,
        outcome,
    })
}

/// The verdict for one gadget scenario under one design.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioVerdict {
    /// Human-readable scenario name.
    pub scenario: String,
    /// Whether the two secret-differing runs produced identical contract
    /// traces (they must, for constant-time programs).
    pub contract_equal: bool,
    /// Whether the attacker-visible access sequences were identical.
    pub attacker_trace_equal: bool,
    /// Whether any wrong-path (transient) accesses happened at all.
    pub transient_activity: bool,
    /// The offending addresses when the attacker traces differ: at each
    /// position where the two access sequences disagree (including length
    /// overhang), both sides' addresses, capped at
    /// [`MAX_DIVERGENT_ACCESSES`] entries. Empty exactly when
    /// `attacker_trace_equal` — this is what makes a differential-test
    /// failure debuggable instead of a bare leak count.
    #[serde(default)]
    pub divergent_accesses: Vec<u64>,
}

/// Cap on [`ScenarioVerdict::divergent_accesses`]: enough to localise a
/// leaking gadget without dragging full megabyte-scale traces into reports.
pub const MAX_DIVERGENT_ACCESSES: usize = 8;

impl ScenarioVerdict {
    /// Builds the verdict by comparing the observations of two builds of the
    /// same scenario differing only in the secret.
    pub fn from_observations(
        scenario: impl Into<String>,
        o0: &LeakageObservation,
        o1: &LeakageObservation,
    ) -> Self {
        let mut divergent_accesses = Vec::new();
        let (mut a, mut b) = (o0.attacker_accesses(), o1.attacker_accesses());
        loop {
            let pair = (a.next(), b.next());
            if pair == (None, None) || divergent_accesses.len() >= MAX_DIVERGENT_ACCESSES {
                break;
            }
            if pair.0 != pair.1 {
                divergent_accesses.extend([pair.0, pair.1].into_iter().flatten());
            }
        }
        divergent_accesses.truncate(MAX_DIVERGENT_ACCESSES);
        ScenarioVerdict {
            scenario: scenario.into(),
            contract_equal: o0.contract == o1.contract,
            attacker_trace_equal: divergent_accesses.is_empty(),
            transient_activity: !o0.transient_accesses().is_empty()
                || !o1.transient_accesses().is_empty(),
            divergent_accesses,
        }
    }

    /// A design protects a scenario when equal contract traces imply equal
    /// attacker-visible traces (the hardware satisfies the contract on this
    /// program pair).
    pub fn is_protected(&self) -> bool {
        !self.contract_equal || self.attacker_trace_equal
    }
}

/// Evaluates one gadget builder under a design by comparing two secrets.
///
/// # Errors
///
/// Propagates analysis or simulation errors.
pub fn evaluate_scenario(
    name: &str,
    build: impl Fn(u64) -> GadgetProgram,
    config: &CpuConfig,
) -> Result<ScenarioVerdict, IsaError> {
    let g0 = build(0x0000_0000_0000_0000);
    let g1 = build(0xffff_ffff_ffff_ffff);
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let o0 = observe_with(&ex, &g0.program, config)?;
    let o1 = observe_with(&ex, &g1.program, config)?;
    Ok(ScenarioVerdict::from_observations(name, &o0, &o1))
}

/// Empirical statement of Theorem 1 for a concrete program pair: if the two
/// builds have equal contract traces, their hardware observations under a
/// Cassandra-enabled processor must be equal as well.
///
/// # Errors
///
/// Propagates analysis or simulation errors.
pub fn check_contract_satisfaction(
    program_a: &Program,
    program_b: &Program,
    config: &CpuConfig,
) -> Result<bool, IsaError> {
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let oa = observe_with(&ex, program_a, config)?;
    let ob = observe_with(&ex, program_b, config)?;
    if oa.contract != ob.contract {
        // Different contract traces: the premise is vacuous.
        return Ok(true);
    }
    Ok(oa.attacker_accesses().eq(ob.attacker_accesses()))
}

// ------------------------------------------------------------ Table-2 sweep

/// The designs the paper's Table 2 compares on the gadget scenarios.
pub const SECURITY_SWEEP_DESIGNS: [DefenseMode; 2] =
    [DefenseMode::UnsafeBaseline, DefenseMode::Cassandra];

/// One cell of the security matrix: a gadget scenario under one design.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecurityCell {
    /// Human-readable scenario name (`BR→gadget`).
    pub scenario: String,
    /// Where the mispredicted branch lives.
    pub site: BranchSite,
    /// The leak gadget on the transient path.
    pub gadget: LeakGadget,
    /// Design label.
    pub design: String,
    /// The per-scenario verdict.
    pub verdict: ScenarioVerdict,
}

/// The full Figure-6 / Table-2 matrix: every gadget scenario under every
/// swept design.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecurityMatrix {
    /// One cell per (scenario, design) pair, scenario-major.
    pub cells: Vec<SecurityCell>,
}

impl SecurityMatrix {
    /// True if every scenario is protected under `design_label`.
    pub fn all_protected_under(&self, design_label: &str) -> bool {
        self.cells
            .iter()
            .filter(|c| c.design == design_label)
            .all(|c| c.verdict.is_protected())
    }

    /// Number of (scenario, design) cells whose scenario leaks.
    pub fn leak_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| !c.verdict.is_protected())
            .count()
    }
}

/// Evaluates every gadget scenario (the paper's eight `BranchSite` ×
/// `LeakGadget` combinations) under each design, sharing gadget analyses
/// through the executor's store.
///
/// # Errors
///
/// Propagates analysis or simulation errors.
pub fn security_sweep_with(
    ex: &SweepExecutor<'_>,
    designs: &[DefenseMode],
) -> Result<SecurityMatrix, IsaError> {
    let sites = [BranchSite::Crypto, BranchSite::NonCrypto];
    let gadgets = [
        LeakGadget::CryptoRegister,
        LeakGadget::CryptoMemory,
        LeakGadget::NonCryptoRegister,
        LeakGadget::NonCryptoMemory,
    ];
    let mut cells = Vec::new();
    for site in sites {
        for gadget in gadgets {
            let name = format!("{site:?}->{gadget:?}");
            let g0 = scenario(site, gadget, 0x0000_0000_0000_0000);
            let g1 = scenario(site, gadget, 0xffff_ffff_ffff_ffff);
            for design in designs {
                let cfg = CpuConfig::golden_cove_like().with_defense(*design);
                let o0 = observe_with(ex, &g0.program, &cfg)?;
                let o1 = observe_with(ex, &g1.program, &cfg)?;
                cells.push(SecurityCell {
                    scenario: name.clone(),
                    site,
                    gadget,
                    design: design.label().to_string(),
                    verdict: ScenarioVerdict::from_observations(name.clone(), &o0, &o1),
                });
            }
        }
    }
    Ok(SecurityMatrix { cells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cassandra_cpu::config::{CpuConfig, DefenseMode};
    use cassandra_kernels::kernel::chacha20;

    fn cfg(defense: DefenseMode) -> CpuConfig {
        CpuConfig::golden_cove_like().with_defense(defense)
    }

    #[test]
    fn unsafe_baseline_leaks_the_crypto_register_gadget() {
        let verdict = evaluate_scenario(
            "BR1->R1",
            |secret| scenario(BranchSite::Crypto, LeakGadget::CryptoRegister, secret),
            &cfg(DefenseMode::UnsafeBaseline),
        )
        .unwrap();
        assert!(verdict.contract_equal, "the program is constant-time");
        assert!(verdict.transient_activity, "the baseline speculates");
        assert!(
            !verdict.attacker_trace_equal,
            "the transient register leak must be visible on the baseline"
        );
        assert!(!verdict.is_protected());
        assert!(
            !verdict.divergent_accesses.is_empty()
                && verdict.divergent_accesses.len() <= MAX_DIVERGENT_ACCESSES,
            "a leaking cell must name the offending addresses: {verdict:?}"
        );
    }

    #[test]
    fn cassandra_blocks_the_crypto_register_gadget() {
        let verdict = evaluate_scenario(
            "BR1->R1",
            |secret| scenario(BranchSite::Crypto, LeakGadget::CryptoRegister, secret),
            &cfg(DefenseMode::Cassandra),
        )
        .unwrap();
        assert!(verdict.contract_equal);
        assert!(verdict.attacker_trace_equal, "no secret-dependent accesses");
        assert!(verdict.is_protected());
        assert!(
            verdict.divergent_accesses.is_empty(),
            "equal traces must report no divergent addresses"
        );
    }

    #[test]
    fn cassandra_blocks_the_non_crypto_branch_to_crypto_memory_gadget() {
        // Scenario 5: BR2 -> M1 is protected by the integrity check.
        let verdict = evaluate_scenario(
            "BR2->M1",
            |secret| scenario(BranchSite::NonCrypto, LeakGadget::CryptoMemory, secret),
            &cfg(DefenseMode::Cassandra),
        )
        .unwrap();
        assert!(verdict.is_protected());
    }

    #[test]
    fn security_sweep_matches_the_papers_table2() {
        let store = AnalysisStore::new();
        let matrix =
            security_sweep_with(&SweepExecutor::new(&store), &SECURITY_SWEEP_DESIGNS).unwrap();
        assert_eq!(matrix.cells.len(), 8 * SECURITY_SWEEP_DESIGNS.len());
        // Cassandra protects every scenario except scenario 8 (non-crypto
        // branch to non-crypto memory gadget — software isolation, which the
        // paper leaves to a companion defense); the baseline leaks more.
        let cassandra_leaks: Vec<&SecurityCell> = matrix
            .cells
            .iter()
            .filter(|c| c.design == DefenseMode::Cassandra.label() && !c.verdict.is_protected())
            .collect();
        assert_eq!(cassandra_leaks.len(), 1, "{cassandra_leaks:?}");
        assert_eq!(cassandra_leaks[0].site, BranchSite::NonCrypto);
        assert_eq!(cassandra_leaks[0].gadget, LeakGadget::NonCryptoMemory);
        assert!(!matrix.all_protected_under(DefenseMode::UnsafeBaseline.label()));
        let baseline_leaks = matrix
            .cells
            .iter()
            .filter(|c| {
                c.design == DefenseMode::UnsafeBaseline.label() && !c.verdict.is_protected()
            })
            .count();
        assert!(
            baseline_leaks > 1,
            "the baseline must leak more than Cassandra"
        );
        // Only the Cassandra runs need analyses: 8 scenarios × 2 secrets.
        assert_eq!(store.stats().misses, 16);
    }

    #[test]
    fn theorem1_holds_for_chacha20_under_cassandra() {
        // Two ChaCha20 builds differing only in the key have identical
        // contract traces; Cassandra must produce identical attacker traces.
        let nonce = [7u8; 12];
        let msg = vec![0u8; 64];
        let k_a = chacha20::build(&[0u8; 32], 1, &nonce, &msg);
        let k_b = chacha20::build(&[0xffu8; 32], 1, &nonce, &msg);
        assert!(check_contract_satisfaction(
            &k_a.program,
            &k_b.program,
            &cfg(DefenseMode::Cassandra)
        )
        .unwrap());
    }

    #[test]
    fn theorem1_holds_for_chacha20_even_on_the_baseline() {
        // ChaCha20 has no mispredictable secret-dependent branches, so even
        // the unsafe baseline satisfies the contract on this pair — the
        // paper's point is about gadgets like Figure 5, covered above.
        let nonce = [9u8; 12];
        let msg = vec![0u8; 64];
        let k_a = chacha20::build(&[1u8; 32], 1, &nonce, &msg);
        let k_b = chacha20::build(&[2u8; 32], 1, &nonce, &msg);
        assert!(check_contract_satisfaction(
            &k_a.program,
            &k_b.program,
            &cfg(DefenseMode::UnsafeBaseline)
        )
        .unwrap());
    }
}
