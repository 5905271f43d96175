//! The paper's experiments as one closed enum.
//!
//! Every paper experiment is an [`Experiment`] variant: a name plus a
//! `run(&SweepExecutor, &[Workload])` that produces a typed
//! [`ExperimentOutput`]. [`Experiment::standard`] lists the standard set
//! (Table 1, Figures 7–9, Q3, Q4, the Table-2 security sweep, the §7.5
//! trace-generation timing, the static constant-time lint, the
//! consolidation study and the Pareto frontier search), so examples,
//! benches and the server enumerate the evaluation generically instead of
//! hard-coding one driver per figure. Because all experiments run on one
//! [`SweepExecutor`] over one [`AnalysisStore`](crate::eval::AnalysisStore),
//! running the whole standard set analyzes each distinct program exactly
//! once.
//!
//! Only three variants carry a parameter, the ones callers set: Figure 8's
//! synthetic-kernel scale, the frontier's adaptive search and the raw
//! sweep's design matrix. Every other experiment runs at the paper's
//! constants ([`FIG7_DESIGNS`], [`Q3_VARIANTS`], [`Q4_FLUSH_INTERVAL`], …).
//!
//! Outputs are serde-serializable; [`crate::report`] renders any of them to
//! text, CSV or JSON.

use crate::consolidation::{self, ConsolidationResult};
use crate::eval::{CancelToken, DesignPoint, EvalRecord, SweepExecutor};
use crate::experiments::{
    self, Fig7Result, Fig8Point, Fig9Result, Q3Row, Q4Result, Table1Result, TraceGenRow,
    FIG7_DESIGNS, Q3_VARIANTS, Q4_FLUSH_INTERVAL, Q4_PARTITION_CONTEXTS,
};
use crate::frontier::{self, AdaptiveSearch, FrontierResult};
use crate::lint::{self, LintRow};
use crate::policies::PolicyRegistry;
use crate::security::{self, SecurityMatrix};
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

/// One paper experiment, runnable on any executor over any workload set.
#[derive(Debug, Clone, PartialEq)]
pub enum Experiment {
    /// Table 1: branch analysis of the cryptographic programs.
    Table1,
    /// Figure 7: normalised execution time under [`FIG7_DESIGNS`].
    Fig7,
    /// Figure 8: synthetic SpectreGuard-style sandbox/crypto mixes.
    Fig8 {
        /// Size scale of the synthetic kernels (the standard set uses 4,
        /// the full-suite example 20).
        scale: u32,
    },
    /// Figure 9: power and area.
    Fig9,
    /// Q3: the restricted frontends of [`Q3_VARIANTS`] vs full Cassandra.
    Q3,
    /// Q4: context switches every [`Q4_FLUSH_INTERVAL`] instructions,
    /// priced as whole-BTU flushes versus partition reassignments on the
    /// way-partitioned BTU.
    Q4,
    /// Figure 6 / Table 2: the gadget-scenario security sweep over every
    /// defense of the standard policy registry.
    Security,
    /// §7.5: trace-generation timing.
    TraceGen,
    /// Static constant-time & speculative-leakage lint. Unlike every other
    /// experiment, this never executes a program: verdicts come from the
    /// pure static pass in [`cassandra_analysis`], memoized on the
    /// executor's shared [`AnalysisStore`](crate::eval::AnalysisStore).
    /// Algorithm-2 cache counters are untouched.
    Lint,
    /// N-tenant consolidation: a mix cycled from the given workloads,
    /// round-robined over one shared pipeline + BTU under the flush,
    /// partition-reassignment and scheduler-driven switch policies.
    Consolidation,
    /// Performance × security Pareto frontier of
    /// [`frontier::standard_grid`] over the given workloads.
    Frontier {
        /// Successive halving with [`AdaptiveSearch::default`] instead of
        /// sweeping every cell on the full workload group.
        adaptive: bool,
    },
    /// The raw workload × design sweep (the uniform [`EvalRecord`] stream).
    Sweep {
        /// The design matrix to sweep.
        designs: Vec<DesignPoint>,
    },
}

impl Experiment {
    /// The paper's standard experiment set, in reporting order.
    pub fn standard() -> Vec<Experiment> {
        vec![
            Experiment::Table1,
            Experiment::Fig7,
            Experiment::Fig8 { scale: 4 },
            Experiment::Fig9,
            Experiment::Q3,
            Experiment::Q4,
            Experiment::Security,
            Experiment::TraceGen,
            Experiment::Lint,
            Experiment::Consolidation,
            Experiment::Frontier { adaptive: false },
        ]
    }

    /// Looks up a standard experiment by name.
    pub fn named(name: &str) -> Option<Experiment> {
        Self::standard().into_iter().find(|e| e.name() == name)
    }

    /// Stable key (`table1`, `fig7`, …).
    pub fn name(&self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Fig7 => "fig7",
            Experiment::Fig8 { .. } => "fig8",
            Experiment::Fig9 => "fig9",
            Experiment::Q3 => "q3",
            Experiment::Q4 => "q4",
            Experiment::Security => "security",
            Experiment::TraceGen => "tracegen",
            Experiment::Lint => "lint",
            Experiment::Consolidation => "consolidation",
            Experiment::Frontier { .. } => "frontier",
            Experiment::Sweep { .. } => "sweep",
        }
    }

    /// Human-readable title used by reports.
    pub fn title(&self) -> &'static str {
        match self {
            Experiment::Table1 => "Table 1: branch analysis of cryptographic programs",
            Experiment::Fig7 => "Figure 7: normalized execution time (crypto benchmarks)",
            Experiment::Fig8 { .. } => {
                "Figure 8: synthetic sandbox/crypto mixes (ProSpeCT comparison)"
            }
            Experiment::Fig9 => "Figure 9: power and area",
            Experiment::Q3 => "Q3: restricted frontends vs Cassandra",
            Experiment::Q4 => "Q4: context switches (whole-BTU flush vs partition reassignment)",
            Experiment::Security => "Table 2: gadget scenarios (empirical security analysis)",
            Experiment::TraceGen => "§7.5: trace generation runtime",
            Experiment::Lint => "Static lint: constant-time & speculative-leakage verdicts",
            Experiment::Consolidation => "Consolidation: N-tenant mixes on one shared core",
            Experiment::Frontier { .. } => {
                "Frontier: performance × security Pareto search over a design grid"
            }
            Experiment::Sweep { .. } => "Raw design-point sweep (EvalRecord stream)",
        }
    }

    /// Runs the experiment over `workloads` on `ex`. Experiments with a
    /// workload set of their own (Figure 8's synthetic mixes, the security
    /// gadgets) ignore `workloads`.
    ///
    /// # Errors
    ///
    /// Propagates analysis or simulation errors.
    pub fn run(
        &self,
        ex: &SweepExecutor<'_>,
        workloads: &[Workload],
    ) -> Result<ExperimentRun, IsaError> {
        let start = Instant::now();
        let output = match self {
            Experiment::Table1 => {
                ExperimentOutput::Table1(experiments::table1_with(ex, workloads)?)
            }
            Experiment::Fig7 => {
                ExperimentOutput::Fig7(experiments::figure7_with(ex, workloads, &FIG7_DESIGNS)?)
            }
            Experiment::Fig8 { scale } => {
                ExperimentOutput::Fig8(experiments::figure8_with(ex, *scale)?)
            }
            Experiment::Fig9 => ExperimentOutput::Fig9(experiments::figure9_with(ex, workloads)?),
            Experiment::Q3 => {
                ExperimentOutput::Q3(experiments::q3_with(ex, workloads, &Q3_VARIANTS)?)
            }
            Experiment::Q4 => ExperimentOutput::Q4(experiments::q4_with(
                ex,
                workloads,
                Q4_FLUSH_INTERVAL,
                Q4_PARTITION_CONTEXTS,
            )?),
            Experiment::Security => ExperimentOutput::Security(security::security_sweep_with(
                ex,
                &PolicyRegistry::standard().defenses(),
            )?),
            Experiment::TraceGen => ExperimentOutput::TraceGen(
                experiments::trace_generation_timing_with(ex, workloads)?,
            ),
            Experiment::Lint => ExperimentOutput::Lint(lint::lint_with(ex, workloads)),
            Experiment::Consolidation => {
                ExperimentOutput::Consolidation(consolidation::consolidation_with(
                    ex,
                    workloads,
                    consolidation::CONSOLIDATION_TENANTS,
                    consolidation::CONSOLIDATION_QUANTUM,
                )?)
            }
            Experiment::Frontier { adaptive } => {
                let result = frontier::frontier_with(
                    ex,
                    workloads,
                    &frontier::standard_grid(),
                    adaptive.then(AdaptiveSearch::default),
                    &CancelToken::new(),
                    |_| {},
                )?;
                ExperimentOutput::Frontier(
                    result.expect("an un-cancelled frontier run always completes"),
                )
            }
            Experiment::Sweep { designs } => {
                ExperimentOutput::Records(ex.sweep_matrix(workloads, designs)?)
            }
        };
        Ok(ExperimentRun {
            name: self.name().to_string(),
            title: self.title().to_string(),
            output,
            elapsed: start.elapsed(),
        })
    }
}

/// A completed experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRun {
    /// Key of the experiment.
    pub name: String,
    /// Human-readable title.
    pub title: String,
    /// The typed output.
    pub output: ExperimentOutput,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::AnalysisStore;
    use cassandra_kernels::suite;

    #[test]
    fn standard_registry_lists_the_paper_experiments() {
        let names: Vec<&str> = Experiment::standard()
            .iter()
            .map(Experiment::name)
            .collect();
        assert_eq!(
            names,
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
        assert!(Experiment::named("fig7").is_some());
        assert!(Experiment::named("nope").is_none());
    }

    #[test]
    fn run_all_analyzes_each_workload_exactly_once() {
        let workloads = vec![suite::chacha20_workload(64), suite::des_workload(4)];
        let n_workloads = workloads.len() as u64;
        let store = AnalysisStore::new();
        let ex = SweepExecutor::new(&store);
        let runs = Experiment::standard()
            .iter()
            .map(|e| e.run(&ex, &workloads))
            .collect::<Result<Vec<_>, _>>()
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
        let run = Experiment::named("table1")
            .unwrap()
            .run(&ex, &workloads)
            .unwrap();
        assert_eq!(run.name, "table1");
        assert!(matches!(run.output, ExperimentOutput::Table1(_)));
        assert!(Experiment::named("unknown").is_none());
    }
}
