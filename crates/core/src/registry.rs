//! The unified experiment registry.
//!
//! Every paper experiment implements [`Experiment`]: a name plus a
//! `run(&SweepExecutor, &[Workload])` that produces a typed
//! [`ExperimentOutput`]. The [`ExperimentRegistry`] holds the standard set
//! (Table 1, Figures 7–9, Q3, Q4, the Table-2 security sweep, the §7.5
//! trace-generation timing, the static constant-time lint, the
//! consolidation study and the Pareto frontier search), so examples,
//! benches and the [`ExperimentRegistry::run_all`] entry point enumerate
//! the evaluation generically instead of hard-coding one driver per
//! figure. Because all experiments run on one [`SweepExecutor`] over
//! one [`AnalysisStore`](crate::eval::AnalysisStore), a full `run_all`
//! analyzes each distinct program exactly once.
//!
//! Outputs are serde-serializable; [`crate::report`] renders any of them to
//! text, CSV or JSON.

use crate::consolidation::{self, ConsolidationResult};
use crate::eval::{CancelToken, DesignPoint, EvalRecord, SweepExecutor};
use crate::experiments::{
    self, Fig7Result, Fig8Point, Fig9Result, Q3Row, Q4Result, Table1Result, TraceGenRow,
    FIG7_DESIGNS, Q3_VARIANTS,
};
use crate::frontier::{self, AdaptiveSearch, FrontierResult};
use crate::lint::{self, LintRow};
use crate::policies::PolicyRegistry;
use crate::security::{self, SecurityMatrix};
use cassandra_cpu::config::DefenseMode;
use cassandra_isa::error::IsaError;
use cassandra_kernels::workload::Workload;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// The typed output of any experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExperimentOutput {
    /// Table 1: branch analysis / trace compression.
    Table1(Table1Result),
    /// Figure 7: normalised execution time of the crypto benchmarks.
    Fig7(Fig7Result),
    /// Figure 8: synthetic sandbox/crypto mixes vs ProSpeCT.
    Fig8(Vec<Fig8Point>),
    /// Figure 9: power and area.
    Fig9(Fig9Result),
    /// Q3: Cassandra-lite vs Cassandra.
    Q3(Vec<Q3Row>),
    /// Q4: periodic BTU flushes.
    Q4(Q4Result),
    /// Figure 6 / Table 2: the gadget-scenario security matrix.
    Security(SecurityMatrix),
    /// §7.5: trace-generation timing.
    TraceGen(Vec<TraceGenRow>),
    /// Static constant-time & speculative-leakage lint verdicts.
    Lint(Vec<LintRow>),
    /// N-tenant consolidation: one shared core under every switch policy.
    Consolidation(ConsolidationResult),
    /// A raw design-point sweep (the uniform [`EvalRecord`] stream).
    Records(Vec<EvalRecord>),
    /// Performance × security Pareto frontier of a grid-sweep expansion.
    Frontier(FrontierResult),
}

/// What [`Experiment::run`] returns.
type RunResult = Result<ExperimentOutput, IsaError>;

/// One paper experiment, runnable on any executor over any workload set.
pub trait Experiment {
    /// Stable registry key (`table1`, `fig7`, …).
    fn name(&self) -> &'static str;

    /// Human-readable title used by reports.
    fn title(&self) -> &'static str;

    /// Runs the experiment over `workloads` on `ex`. Experiments with a
    /// workload set of their own (Figure 8's synthetic mixes, the security
    /// gadgets) ignore `workloads`.
    ///
    /// # Errors
    ///
    /// Propagates analysis or simulation errors.
    fn run(
        &self,
        ex: &SweepExecutor<'_>,
        workloads: &[Workload],
    ) -> Result<ExperimentOutput, IsaError>;
}

// --------------------------------------------------------- the experiments

/// Table 1: branch analysis of the cryptographic programs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table1Experiment;

impl Experiment for Table1Experiment {
    fn name(&self) -> &'static str {
        "table1"
    }
    fn title(&self) -> &'static str {
        "Table 1: branch analysis of cryptographic programs"
    }
    fn run(&self, ex: &SweepExecutor<'_>, workloads: &[Workload]) -> RunResult {
        experiments::table1_with(ex, workloads).map(ExperimentOutput::Table1)
    }
}

/// Figure 7: normalised execution time under the compared designs.
#[derive(Debug, Clone)]
pub struct Fig7Experiment {
    /// The designs to sweep (defaults to the paper's four).
    pub designs: Vec<DefenseMode>,
}

impl Default for Fig7Experiment {
    fn default() -> Self {
        Fig7Experiment {
            designs: FIG7_DESIGNS.to_vec(),
        }
    }
}

impl Experiment for Fig7Experiment {
    fn name(&self) -> &'static str {
        "fig7"
    }
    fn title(&self) -> &'static str {
        "Figure 7: normalized execution time (crypto benchmarks)"
    }
    fn run(&self, ex: &SweepExecutor<'_>, workloads: &[Workload]) -> RunResult {
        experiments::figure7_with(ex, workloads, &self.designs).map(ExperimentOutput::Fig7)
    }
}

/// Figure 8: synthetic SpectreGuard-style sandbox/crypto mixes.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Experiment {
    /// Size scale of the synthetic kernels (the example uses 20, tests 4).
    pub scale: u32,
}

impl Default for Fig8Experiment {
    fn default() -> Self {
        Fig8Experiment { scale: 4 }
    }
}

impl Experiment for Fig8Experiment {
    fn name(&self) -> &'static str {
        "fig8"
    }
    fn title(&self) -> &'static str {
        "Figure 8: synthetic sandbox/crypto mixes (ProSpeCT comparison)"
    }
    fn run(&self, ex: &SweepExecutor<'_>, _: &[Workload]) -> RunResult {
        experiments::figure8_with(ex, self.scale).map(ExperimentOutput::Fig8)
    }
}

/// Figure 9: power and area.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig9Experiment;

impl Experiment for Fig9Experiment {
    fn name(&self) -> &'static str {
        "fig9"
    }
    fn title(&self) -> &'static str {
        "Figure 9: power and area"
    }
    fn run(&self, ex: &SweepExecutor<'_>, workloads: &[Workload]) -> RunResult {
        experiments::figure9_with(ex, workloads).map(ExperimentOutput::Fig9)
    }
}

/// Q3: restricted frontends (Cassandra-lite, Fence, Cassandra-noTC, …) vs
/// full Cassandra.
#[derive(Debug, Clone)]
pub struct Q3Experiment {
    /// The restricted-frontend variants to compare against Cassandra.
    pub variants: Vec<DefenseMode>,
}

impl Default for Q3Experiment {
    fn default() -> Self {
        Q3Experiment {
            variants: Q3_VARIANTS.to_vec(),
        }
    }
}

impl Experiment for Q3Experiment {
    fn name(&self) -> &'static str {
        "q3"
    }
    fn title(&self) -> &'static str {
        "Q3: restricted frontends vs Cassandra"
    }
    fn run(&self, ex: &SweepExecutor<'_>, workloads: &[Workload]) -> RunResult {
        experiments::q3_with(ex, workloads, &self.variants).map(ExperimentOutput::Q3)
    }
}

/// Q4: periodic context switches, priced as whole-BTU flushes versus
/// partition reassignments on the way-partitioned BTU.
#[derive(Debug, Clone, Copy)]
pub struct Q4Experiment {
    /// Context-switch interval in committed instructions.
    pub flush_interval: u64,
    /// Application contexts rotated through by the partition variant.
    pub partition_contexts: u64,
}

impl Default for Q4Experiment {
    fn default() -> Self {
        Q4Experiment {
            flush_interval: 50_000,
            partition_contexts: experiments::Q4_PARTITION_CONTEXTS,
        }
    }
}

impl Experiment for Q4Experiment {
    fn name(&self) -> &'static str {
        "q4"
    }
    fn title(&self) -> &'static str {
        "Q4: context switches (whole-BTU flush vs partition reassignment)"
    }
    fn run(&self, ex: &SweepExecutor<'_>, workloads: &[Workload]) -> RunResult {
        experiments::q4_with(ex, workloads, self.flush_interval, self.partition_contexts)
            .map(ExperimentOutput::Q4)
    }
}

/// Figure 6 / Table 2: the gadget-scenario security sweep.
#[derive(Debug, Clone)]
pub struct SecurityExperiment {
    /// The designs to compare on the gadget scenarios. The default
    /// enumerates the standard policy registry, so every registered defense
    /// (including new frontend policies) is security-checked without edits
    /// here.
    pub designs: Vec<DefenseMode>,
}

impl Default for SecurityExperiment {
    fn default() -> Self {
        SecurityExperiment {
            designs: PolicyRegistry::standard().defenses(),
        }
    }
}

impl Experiment for SecurityExperiment {
    fn name(&self) -> &'static str {
        "security"
    }
    fn title(&self) -> &'static str {
        "Table 2: gadget scenarios (empirical security analysis)"
    }
    fn run(&self, ex: &SweepExecutor<'_>, _: &[Workload]) -> RunResult {
        security::security_sweep_with(ex, &self.designs).map(ExperimentOutput::Security)
    }
}

/// §7.5: trace-generation timing.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceGenExperiment;

impl Experiment for TraceGenExperiment {
    fn name(&self) -> &'static str {
        "tracegen"
    }
    fn title(&self) -> &'static str {
        "§7.5: trace generation runtime"
    }
    fn run(&self, ex: &SweepExecutor<'_>, workloads: &[Workload]) -> RunResult {
        experiments::trace_generation_timing_with(ex, workloads).map(ExperimentOutput::TraceGen)
    }
}

/// Static constant-time & speculative-leakage lint of the given workloads.
///
/// Unlike every other experiment, this never executes a program: verdicts
/// come from the pure static pass in [`cassandra_analysis`], memoized on
/// the executor's shared [`AnalysisStore`](crate::eval::AnalysisStore).
/// Algorithm-2 cache counters are untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct LintExperiment;

impl Experiment for LintExperiment {
    fn name(&self) -> &'static str {
        "lint"
    }
    fn title(&self) -> &'static str {
        "Static lint: constant-time & speculative-leakage verdicts"
    }
    fn run(&self, ex: &SweepExecutor<'_>, workloads: &[Workload]) -> RunResult {
        Ok(ExperimentOutput::Lint(lint::lint_with(ex, workloads)))
    }
}

/// N-tenant consolidation: a mix cycled from the given workloads,
/// round-robined over one shared pipeline + BTU under the flush,
/// partition-reassignment and scheduler-driven switch policies.
#[derive(Debug, Clone, Copy)]
pub struct ConsolidationExperiment {
    /// Tenants in the mix (the suite is cycled to fill it).
    pub tenants: usize,
    /// Scheduling quantum in committed instructions.
    pub quantum: u64,
}

impl Default for ConsolidationExperiment {
    fn default() -> Self {
        ConsolidationExperiment {
            tenants: consolidation::CONSOLIDATION_TENANTS,
            quantum: consolidation::CONSOLIDATION_QUANTUM,
        }
    }
}

impl Experiment for ConsolidationExperiment {
    fn name(&self) -> &'static str {
        "consolidation"
    }
    fn title(&self) -> &'static str {
        "Consolidation: N-tenant mixes on one shared core"
    }
    fn run(&self, ex: &SweepExecutor<'_>, workloads: &[Workload]) -> RunResult {
        consolidation::consolidation_with(ex, workloads, self.tenants, self.quantum)
            .map(ExperimentOutput::Consolidation)
    }
}

/// Performance × security Pareto frontier of a grid-sweep expansion over
/// the given workloads (see [`crate::frontier`]): exhaustive by default,
/// successive-halving when `adaptive` is set.
#[derive(Debug, Clone)]
pub struct FrontierExperiment {
    /// The grid whose expansion is scored.
    pub grid: crate::policies::GridSweep,
    /// Successive-halving configuration; `None` sweeps every cell on the
    /// full workload group.
    pub adaptive: Option<AdaptiveSearch>,
}

impl Default for FrontierExperiment {
    fn default() -> Self {
        FrontierExperiment {
            grid: frontier::standard_grid(),
            adaptive: None,
        }
    }
}

impl Experiment for FrontierExperiment {
    fn name(&self) -> &'static str {
        "frontier"
    }
    fn title(&self) -> &'static str {
        "Frontier: performance × security Pareto search over a design grid"
    }
    fn run(&self, ex: &SweepExecutor<'_>, workloads: &[Workload]) -> RunResult {
        let result = frontier::frontier_with(
            ex,
            workloads,
            &self.grid,
            self.adaptive,
            &CancelToken::new(),
            |_| {},
        )?;
        Ok(ExperimentOutput::Frontier(
            result.expect("an un-cancelled frontier run always completes"),
        ))
    }
}

/// The raw workload × design sweep (the uniform [`EvalRecord`] stream).
#[derive(Debug, Clone)]
pub struct SweepExperiment {
    /// The design matrix to sweep (defaults to every design point of the
    /// standard policy registry).
    pub designs: Vec<DesignPoint>,
}

impl Default for SweepExperiment {
    fn default() -> Self {
        SweepExperiment {
            designs: PolicyRegistry::standard().designs().to_vec(),
        }
    }
}

impl Experiment for SweepExperiment {
    fn name(&self) -> &'static str {
        "sweep"
    }
    fn title(&self) -> &'static str {
        "Raw design-point sweep (EvalRecord stream)"
    }
    fn run(&self, ex: &SweepExecutor<'_>, workloads: &[Workload]) -> RunResult {
        ex.sweep_matrix(workloads, &self.designs)
            .map(ExperimentOutput::Records)
    }
}

// -------------------------------------------------------------- registry

/// A completed experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRun {
    /// Registry key of the experiment.
    pub name: String,
    /// Human-readable title.
    pub title: String,
    /// The typed output.
    pub output: ExperimentOutput,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

/// An ordered collection of experiments, enumerable by name.
pub struct ExperimentRegistry {
    experiments: Vec<Box<dyn Experiment>>,
}

impl Default for ExperimentRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

impl ExperimentRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ExperimentRegistry {
            experiments: Vec::new(),
        }
    }

    /// The paper's standard experiment set, in reporting order.
    pub fn standard() -> Self {
        let mut registry = Self::new();
        registry.register(Table1Experiment);
        registry.register(Fig7Experiment::default());
        registry.register(Fig8Experiment::default());
        registry.register(Fig9Experiment);
        registry.register(Q3Experiment::default());
        registry.register(Q4Experiment::default());
        registry.register(SecurityExperiment::default());
        registry.register(TraceGenExperiment);
        registry.register(LintExperiment);
        registry.register(ConsolidationExperiment::default());
        registry.register(FrontierExperiment::default());
        registry
    }

    /// Adds an experiment (replacing any previous one with the same name).
    pub fn register(&mut self, experiment: impl Experiment + 'static) {
        self.experiments.retain(|e| e.name() != experiment.name());
        self.experiments.push(Box::new(experiment));
    }

    /// The registered experiment names, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.experiments.iter().map(|e| e.name()).collect()
    }

    /// Looks up an experiment by name.
    pub fn get(&self, name: &str) -> Option<&dyn Experiment> {
        self.experiments
            .iter()
            .find(|e| e.name() == name)
            .map(AsRef::as_ref)
    }

    /// Runs one experiment by name over `workloads` on `ex`.
    ///
    /// # Errors
    ///
    /// Propagates analysis or simulation errors; `Ok(None)` if the name is
    /// unknown.
    pub fn run(
        &self,
        name: &str,
        ex: &SweepExecutor<'_>,
        workloads: &[Workload],
    ) -> Result<Option<ExperimentRun>, IsaError> {
        match self.get(name) {
            Some(experiment) => run_one(experiment, ex, workloads).map(Some),
            None => Ok(None),
        }
    }

    /// Runs every registered experiment over `workloads` on one executor,
    /// in registration order.
    ///
    /// # Errors
    ///
    /// Propagates analysis or simulation errors.
    pub fn run_all(
        &self,
        ex: &SweepExecutor<'_>,
        workloads: &[Workload],
    ) -> Result<Vec<ExperimentRun>, IsaError> {
        self.experiments
            .iter()
            .map(|experiment| run_one(experiment.as_ref(), ex, workloads))
            .collect()
    }
}

fn run_one(
    experiment: &dyn Experiment,
    ex: &SweepExecutor<'_>,
    workloads: &[Workload],
) -> Result<ExperimentRun, IsaError> {
    let start = Instant::now();
    let output = experiment.run(ex, workloads)?;
    Ok(ExperimentRun {
        name: experiment.name().to_string(),
        title: experiment.title().to_string(),
        output,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::AnalysisStore;
    use cassandra_kernels::suite;

    #[test]
    fn standard_registry_lists_the_paper_experiments() {
        let registry = ExperimentRegistry::standard();
        assert_eq!(
            registry.names(),
            [
                "table1",
                "fig7",
                "fig8",
                "fig9",
                "q3",
                "q4",
                "security",
                "tracegen",
                "lint",
                "consolidation",
                "frontier"
            ]
        );
        assert!(registry.get("fig7").is_some());
        assert!(registry.get("nope").is_none());
    }

    #[test]
    fn register_replaces_by_name() {
        let mut registry = ExperimentRegistry::standard();
        let before = registry.names().len();
        registry.register(Q4Experiment {
            flush_interval: 7,
            ..Q4Experiment::default()
        });
        assert_eq!(registry.names().len(), before);
    }

    #[test]
    fn run_all_analyzes_each_workload_exactly_once() {
        let workloads = vec![suite::chacha20_workload(64), suite::des_workload(4)];
        let n_workloads = workloads.len() as u64;
        let store = AnalysisStore::new();
        let registry = ExperimentRegistry::standard();
        let runs = registry
            .run_all(&SweepExecutor::new(&store), &workloads)
            .unwrap();
        assert_eq!(runs.len(), 11);

        // Distinct programs analyzed: the given workloads (once each,
        // shared by table1/fig7/fig9/q3/q4/tracegen/consolidation/frontier),
        // the fig8 synthetic mixes (2 variants × 5 mixes) and the security
        // gadgets (8 scenarios × 2 secrets, shared by the security and
        // frontier experiments). No program is ever analyzed twice, and the
        // static lint experiment contributes zero — it never runs
        // Algorithm 2.
        let stats = store.stats();
        assert_eq!(stats.misses, n_workloads + 10 + 16);
        assert_eq!(store.len() as u64, stats.misses);
        assert!(
            stats.hits >= 5 * n_workloads,
            "experiments after table1 must hit the cache ({stats:?})"
        );
    }

    #[test]
    fn run_by_name_matches_run_all_entry() {
        let workloads = vec![suite::des_workload(4)];
        let store = AnalysisStore::new();
        let ex = SweepExecutor::new(&store);
        let registry = ExperimentRegistry::standard();
        let run = registry.run("table1", &ex, &workloads).unwrap().unwrap();
        assert_eq!(run.name, "table1");
        assert!(matches!(run.output, ExperimentOutput::Table1(_)));
        assert!(registry.run("unknown", &ex, &workloads).unwrap().is_none());
    }
}
