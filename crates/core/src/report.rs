//! Report rendering: plain text (the same rows and series the paper
//! reports), CSV and JSON.
//!
//! The `format_*` functions render the individual result types; [`render`]
//! (and the [`render_text`] / [`render_csv`] / [`render_json`] shorthands)
//! accept any [`ExperimentOutput`] from the registry, so `run_all` output
//! can be dumped uniformly in every format.

use crate::consolidation::ConsolidationResult;
use crate::eval::EvalRecord;
use crate::experiments::{
    Fig7Result, Fig8Point, Fig9Result, Q3Row, Q4Result, Table1Result, TraceGenRow,
};
use crate::frontier::FrontierResult;
use crate::lint::LintRow;
use crate::registry::ExperimentOutput;
use crate::security::SecurityMatrix;
use cassandra_analysis::StaticVerdict;
use cassandra_cpu::config::DefenseMode;

/// Output format selector for [`render`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Fixed-width plain text, matching the paper's layout.
    Text,
    /// RFC-4180-style CSV (header row + data rows).
    Csv,
    /// Pretty-printed JSON via serde.
    Json,
}

/// Renders Table 1 (branch analysis / compression rates).
pub fn format_table1(result: &Table1Result) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>6} {:>12} {:>12} {:>10} {:>10} {:>14} {:>14}\n",
        "Program",
        "Group",
        "VanillaAvg",
        "VanillaMax",
        "KmersAvg",
        "KmersMax",
        "CompRateAvg",
        "CompRateMax"
    ));
    for row in &result.rows {
        let r = &row.row;
        out.push_str(&format!(
            "{:<22} {:>6} {:>12.1} {:>12} {:>10.1} {:>10} {:>14.1} {:>14.1}\n",
            r.program,
            row.group.to_string(),
            r.vanilla_avg,
            r.vanilla_max,
            r.kmers_avg,
            r.kmers_max,
            r.compression_avg,
            r.compression_max
        ));
    }
    let a = &result.all;
    out.push_str(&format!(
        "{:<22} {:>6} {:>12.1} {:>12} {:>10.1} {:>10} {:>14.1} {:>14.1}\n",
        "All",
        "",
        a.vanilla_avg,
        a.vanilla_max,
        a.kmers_avg,
        a.kmers_max,
        a.compression_avg,
        a.compression_max
    ));
    out
}

/// Renders Figure 7 (normalised execution times and the geomean line).
pub fn format_fig7(result: &Fig7Result) -> String {
    let designs: Vec<&String> = result.geomean.keys().collect();
    let mut out = String::new();
    out.push_str(&format!("{:<22} {:>8}", "Workload", "Group"));
    for d in &designs {
        out.push_str(&format!(" {:>18}", d));
    }
    out.push('\n');
    for row in &result.rows {
        out.push_str(&format!(
            "{:<22} {:>8}",
            row.workload,
            row.group.to_string()
        ));
        for d in &designs {
            out.push_str(&format!(
                " {:>18.4}",
                row.normalized.get(*d).unwrap_or(&f64::NAN)
            ));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<22} {:>8}", "geomean", ""));
    for d in &designs {
        out.push_str(&format!(" {:>18.4}", result.geomean[*d]));
    }
    out.push('\n');
    // One speedup line per swept design (negative = slowdown) — whatever
    // policies the sweep enumerated, not a hand-listed subset.
    let baseline = DefenseMode::UnsafeBaseline.label();
    out.push('\n');
    for label in result.geomean.keys() {
        if label == baseline {
            continue;
        }
        out.push_str(&format!(
            "{label} speedup vs {baseline}: {:+.2}%\n",
            result.speedup_pct_of(label)
        ));
    }
    out
}

/// Renders Figure 8 (synthetic benchmark overheads).
pub fn format_fig8(points: &[Fig8Point]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<12} {:>14} {:>24}\n",
        "Variant", "Mix", "ProSpeCT[%]", "Cassandra+ProSpeCT[%]"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<14} {:<12} {:>14.2} {:>24.2}\n",
            p.variant, p.mix, p.prospect_overhead_pct, p.cassandra_prospect_overhead_pct
        ));
    }
    out
}

/// Renders Figure 9 (power and area breakdown).
pub fn format_fig9(result: &Fig9Result) -> String {
    let mut out = String::new();
    out.push_str("Unit breakdown (area, power) — UnsafeBaseline vs Cassandra\n");
    for unit in &result.baseline.units {
        let cass_power = result.cassandra.unit_power(&unit.name);
        out.push_str(&format!(
            "{:<24} area {:>7.1}   power {:>8.3} -> {:>8.3}\n",
            unit.name, unit.area, unit.power, cass_power
        ));
    }
    for unit in &result.cassandra.units {
        if result.baseline.unit_area(&unit.name) == 0.0 {
            out.push_str(&format!(
                "{:<24} area {:>7.1}   power {:>8} -> {:>8.3}   (Cassandra only)\n",
                unit.name, unit.area, "-", unit.power
            ));
        }
    }
    out.push_str(&format!(
        "\nTotal power change: {:+.2}%   BTU area overhead: {:+.2}%\n",
        result.power_delta_pct, result.area_overhead_pct
    ));
    out
}

/// Renders the Q3 restricted-frontend comparison.
pub fn format_q3(rows: &[Q3Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>8} {:<18} {:>14} {:>14} {:>12}\n",
        "Workload", "Group", "Variant", "Cassandra", "Variant", "Slowdown[%]"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>8} {:<18} {:>14} {:>14} {:>12.2}\n",
            r.workload,
            r.group.to_string(),
            r.design,
            r.cassandra_cycles,
            r.variant_cycles,
            r.slowdown_pct
        ));
    }
    out
}

/// Renders the Q4 context-switch experiment (flush vs partition variants).
pub fn format_q4(result: &Q4Result) -> String {
    format!(
        "Cassandra speedup without context switches: {:+.2}%\n\
         Context switch every {} instructions, priced as ...\n\
         ... a whole-BTU flush:                    {:+.2}%\n\
         ... a partition reassignment ({} ctx):     {:+.2}%\n",
        result.speedup_no_flush_pct,
        result.flush_interval,
        result.speedup_with_flush_pct,
        result.partition_contexts,
        result.speedup_with_partition_pct
    )
}

/// Renders the §7.5 trace-generation timing table.
pub fn format_trace_gen(rows: &[TraceGenRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>9} {:>12} {:>12} {:>12} {:>12}\n",
        "Workload", "Branches", "Detect[µs]", "Collect[µs]", "Vanilla[µs]", "Kmers[µs]"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>9} {:>12} {:>12} {:>12} {:>12}\n",
            r.workload,
            r.branches,
            r.detect.as_micros(),
            r.collect.as_micros(),
            r.vanilla.as_micros(),
            r.kmers.as_micros()
        ));
    }
    out
}

/// Renders the Table-2 security matrix.
pub fn format_security(matrix: &SecurityMatrix) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<36} {:<18} {:>9} {:>9} {:>10} {:>10}\n",
        "Scenario", "Design", "CtEqual", "ObsEqual", "Transient", "Verdict"
    ));
    for c in &matrix.cells {
        out.push_str(&format!(
            "{:<36} {:<18} {:>9} {:>9} {:>10} {:>10}",
            c.scenario,
            c.design,
            c.verdict.contract_equal,
            c.verdict.attacker_trace_equal,
            c.verdict.transient_activity,
            if c.verdict.is_protected() {
                "protected"
            } else {
                "LEAK"
            }
        ));
        if !c.verdict.divergent_accesses.is_empty() {
            out.push_str(&format!(
                "  diverging: {}",
                hex_list(&c.verdict.divergent_accesses)
            ));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "\n{} leaking (scenario, design) pairs\n",
        matrix.leak_count()
    ));
    out
}

/// Renders the static-lint verdict table (workloads × verdicts).
pub fn format_lint(rows: &[LintRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>10} {:>15} {:>7} {:>7} {:>8} {:>6} {:>10}\n",
        "Workload", "Group", "Verdict", "Instrs", "CondBr", "Tainted", "Arch", "Transient"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>10} {:>15} {:>7} {:>7} {:>8} {:>6} {:>10}\n",
            r.workload,
            r.group.to_string(),
            r.verdict.to_string(),
            r.instructions,
            r.conditional_branches,
            r.tainted_branches,
            r.arch_findings,
            r.transient_findings
        ));
    }
    let clean = rows
        .iter()
        .filter(|r| r.verdict == StaticVerdict::CtClean)
        .count();
    out.push_str(&format!(
        "\n{clean}/{} workloads certified ct-clean (verdicts over-approximate: \
         ct-clean is a guarantee, leak verdicts may be conservative)\n",
        rows.len()
    ));
    out
}

/// Renders the consolidation experiment (per-policy, per-tenant rows).
pub fn format_consolidation(result: &ConsolidationResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Consolidation: {} tenants, quantum {} instructions\n",
        result.tenant_count, result.quantum
    ));
    for p in &result.policies {
        out.push_str(&format!(
            "\nPolicy {:<10} ({}): {} context switches, {} total cycles, \
             geomean slowdown {:.3}x\n",
            p.policy,
            p.defense.label(),
            p.context_switches,
            p.total_cycles,
            p.geomean_slowdown
        ));
        out.push_str(&format!(
            "  {:>3} {:<22} {:>10} {:>12} {:>12} {:>9} {:>11} {:>8} {:>9} {:>7}\n",
            "Ctx",
            "Workload",
            "Committed",
            "Cycles",
            "Solo",
            "Slowdown",
            "BtuLookups",
            "HitRate",
            "Evictions",
            "Steals"
        ));
        for t in &p.tenants {
            out.push_str(&format!(
                "  {:>3} {:<22} {:>10} {:>12} {:>12} {:>8.3}x {:>11} {:>8.3} {:>9} {:>7}\n",
                t.context,
                t.workload,
                t.committed_instructions,
                t.attributed_cycles,
                t.solo_cycles,
                t.slowdown,
                t.btu.lookups,
                t.btu.hit_rate(),
                t.btu.evictions,
                t.btu.steals_suffered
            ));
        }
    }
    out
}

/// Renders a raw design-point sweep.
pub fn format_records(records: &[EvalRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>10} {:<18} {:>12} {:>8} {:>10} {:>8}\n",
        "Workload", "Group", "Design", "Cycles", "IPC", "Mispred", "Cached"
    ));
    for r in records {
        out.push_str(&format!(
            "{:<22} {:>10} {:<18} {:>12} {:>8.3} {:>10} {:>8}\n",
            r.workload,
            r.group.to_string(),
            r.design,
            r.stats.cycles,
            r.stats.ipc(),
            r.stats.mispredictions,
            r.timing.analysis_cached
        ));
    }
    out
}

/// Renders a Pareto-frontier search result (rung plan, frontier, cells).
pub fn format_frontier(result: &FrontierResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Pareto frontier over {} workloads: {} grid cells, {} full-suite ({})\n",
        result.workloads.len(),
        result.cells_total,
        result.cells_simulated_full,
        if result.adaptive {
            "successive halving"
        } else {
            "exhaustive"
        }
    ));
    for (i, rung) in result.rungs.iter().enumerate() {
        out.push_str(&format!(
            "  rung {i}: {} cells on {} workloads -> kept {}\n",
            rung.cells_in, rung.workloads, rung.cells_kept
        ));
    }
    out.push_str(&format!(
        "\nFrontier ({} points, security asc then slowdown asc):\n",
        result.frontier.len()
    ));
    out.push_str(&format!(
        "{:<28} {:<18} {:>10} {:>7}\n",
        "Design", "Defense", "Slowdown", "Leaks"
    ));
    for p in &result.frontier {
        out.push_str(&format!(
            "{:<28} {:<18} {:>10.4} {:>7}\n",
            p.label,
            p.defense.label(),
            p.geomean_slowdown,
            p.security_leaks
        ));
    }
    out.push_str(&format!(
        "\nAll cells ({}):\n{:<28} {:>10} {:>7} {:>6} {:>9} {:>10} {:>11}\n",
        result.cells.len(),
        "Design",
        "Slowdown",
        "Leaks",
        "Full",
        "Frontier",
        "Dominates",
        "DominatedBy"
    ));
    for c in &result.cells {
        out.push_str(&format!(
            "{:<28} {:>10.4} {:>7} {:>6} {:>9} {:>10} {:>11}\n",
            c.label,
            c.geomean_slowdown,
            c.security_leaks,
            c.full_suite,
            c.on_frontier,
            c.dominates,
            c.dominated_by
        ));
    }
    out
}

// --------------------------------------------------------------- dispatch

/// Renders any experiment output as plain text.
pub fn render_text(output: &ExperimentOutput) -> String {
    match output {
        ExperimentOutput::Table1(r) => format_table1(r),
        ExperimentOutput::Fig7(r) => format_fig7(r),
        ExperimentOutput::Fig8(r) => format_fig8(r),
        ExperimentOutput::Fig9(r) => format_fig9(r),
        ExperimentOutput::Q3(r) => format_q3(r),
        ExperimentOutput::Q4(r) => format_q4(r),
        ExperimentOutput::Security(r) => format_security(r),
        ExperimentOutput::TraceGen(r) => format_trace_gen(r),
        ExperimentOutput::Lint(r) => format_lint(r),
        ExperimentOutput::Consolidation(r) => format_consolidation(r),
        ExperimentOutput::Records(r) => format_records(r),
        ExperimentOutput::Frontier(r) => format_frontier(r),
    }
}

fn hex_list(addrs: &[u64]) -> String {
    addrs
        .iter()
        .map(|a| format!("{a:#x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn csv_escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

fn csv_table(header: &[&str], rows: Vec<Vec<String>>) -> String {
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        let escaped: Vec<String> = row.iter().map(|f| csv_escape(f)).collect();
        out.push_str(&escaped.join(","));
        out.push('\n');
    }
    out
}

/// Renders any experiment output as CSV (header row + data rows).
pub fn render_csv(output: &ExperimentOutput) -> String {
    match output {
        ExperimentOutput::Table1(r) => csv_table(
            &[
                "program",
                "group",
                "multi_target",
                "single_target",
                "vanilla_avg",
                "vanilla_max",
                "kmers_avg",
                "kmers_max",
                "compression_avg",
                "compression_max",
            ],
            r.rows
                .iter()
                .map(|row| {
                    vec![
                        row.row.program.clone(),
                        row.group.to_string(),
                        row.row.multi_target_branches.to_string(),
                        row.row.single_target_branches.to_string(),
                        row.row.vanilla_avg.to_string(),
                        row.row.vanilla_max.to_string(),
                        row.row.kmers_avg.to_string(),
                        row.row.kmers_max.to_string(),
                        row.row.compression_avg.to_string(),
                        row.row.compression_max.to_string(),
                    ]
                })
                .collect(),
        ),
        ExperimentOutput::Fig7(r) => {
            let designs: Vec<&String> = r.geomean.keys().collect();
            let mut header: Vec<&str> = vec!["workload", "group"];
            header.extend(designs.iter().map(|d| d.as_str()));
            let mut rows: Vec<Vec<String>> = r
                .rows
                .iter()
                .map(|row| {
                    let mut cells = vec![row.workload.clone(), row.group.to_string()];
                    cells.extend(designs.iter().map(|d| {
                        row.normalized
                            .get(*d)
                            .map_or_else(String::new, f64::to_string)
                    }));
                    cells
                })
                .collect();
            let mut geomean = vec!["geomean".to_string(), String::new()];
            geomean.extend(designs.iter().map(|d| r.geomean[*d].to_string()));
            rows.push(geomean);
            csv_table(&header, rows)
        }
        ExperimentOutput::Fig8(points) => csv_table(
            &[
                "variant",
                "mix",
                "prospect_overhead_pct",
                "cassandra_prospect_overhead_pct",
            ],
            points
                .iter()
                .map(|p| {
                    vec![
                        p.variant.clone(),
                        p.mix.clone(),
                        p.prospect_overhead_pct.to_string(),
                        p.cassandra_prospect_overhead_pct.to_string(),
                    ]
                })
                .collect(),
        ),
        ExperimentOutput::Fig9(r) => {
            let mut rows: Vec<Vec<String>> = Vec::new();
            for unit in &r.baseline.units {
                rows.push(vec![
                    unit.name.clone(),
                    unit.area.to_string(),
                    unit.power.to_string(),
                    r.cassandra.unit_power(&unit.name).to_string(),
                ]);
            }
            for unit in &r.cassandra.units {
                if r.baseline.unit_area(&unit.name) == 0.0 {
                    rows.push(vec![
                        unit.name.clone(),
                        unit.area.to_string(),
                        String::new(),
                        unit.power.to_string(),
                    ]);
                }
            }
            rows.push(vec![
                "TOTAL".to_string(),
                r.baseline.total_area.to_string(),
                r.baseline.total_power.to_string(),
                r.cassandra.total_power.to_string(),
            ]);
            csv_table(&["unit", "area", "baseline_power", "cassandra_power"], rows)
        }
        ExperimentOutput::Q3(rows) => csv_table(
            &[
                "workload",
                "group",
                "design",
                "cassandra_cycles",
                "variant_cycles",
                "slowdown_pct",
            ],
            rows.iter()
                .map(|r| {
                    vec![
                        r.workload.clone(),
                        r.group.to_string(),
                        r.design.clone(),
                        r.cassandra_cycles.to_string(),
                        r.variant_cycles.to_string(),
                        r.slowdown_pct.to_string(),
                    ]
                })
                .collect(),
        ),
        ExperimentOutput::Q4(r) => csv_table(
            &[
                "flush_interval",
                "partition_contexts",
                "speedup_no_flush_pct",
                "speedup_with_flush_pct",
                "speedup_with_partition_pct",
            ],
            vec![vec![
                r.flush_interval.to_string(),
                r.partition_contexts.to_string(),
                r.speedup_no_flush_pct.to_string(),
                r.speedup_with_flush_pct.to_string(),
                r.speedup_with_partition_pct.to_string(),
            ]],
        ),
        ExperimentOutput::Security(matrix) => csv_table(
            &[
                "scenario",
                "design",
                "contract_equal",
                "attacker_trace_equal",
                "transient_activity",
                "protected",
                "divergent_accesses",
            ],
            matrix
                .cells
                .iter()
                .map(|c| {
                    vec![
                        c.scenario.clone(),
                        c.design.clone(),
                        c.verdict.contract_equal.to_string(),
                        c.verdict.attacker_trace_equal.to_string(),
                        c.verdict.transient_activity.to_string(),
                        c.verdict.is_protected().to_string(),
                        c.verdict
                            .divergent_accesses
                            .iter()
                            .map(|a| format!("{a:#x}"))
                            .collect::<Vec<_>>()
                            .join(";"),
                    ]
                })
                .collect(),
        ),
        ExperimentOutput::TraceGen(rows) => csv_table(
            &[
                "workload",
                "branches",
                "detect_us",
                "collect_us",
                "vanilla_us",
                "kmers_us",
            ],
            rows.iter()
                .map(|r| {
                    vec![
                        r.workload.clone(),
                        r.branches.to_string(),
                        r.detect.as_micros().to_string(),
                        r.collect.as_micros().to_string(),
                        r.vanilla.as_micros().to_string(),
                        r.kmers.as_micros().to_string(),
                    ]
                })
                .collect(),
        ),
        ExperimentOutput::Lint(rows) => csv_table(
            &[
                "workload",
                "group",
                "verdict",
                "instructions",
                "conditional_branches",
                "tainted_branches",
                "arch_findings",
                "transient_findings",
            ],
            rows.iter()
                .map(|r| {
                    vec![
                        r.workload.clone(),
                        r.group.to_string(),
                        r.verdict.to_string(),
                        r.instructions.to_string(),
                        r.conditional_branches.to_string(),
                        r.tainted_branches.to_string(),
                        r.arch_findings.to_string(),
                        r.transient_findings.to_string(),
                    ]
                })
                .collect(),
        ),
        ExperimentOutput::Consolidation(r) => csv_table(
            &[
                "policy",
                "defense",
                "context",
                "workload",
                "committed_instructions",
                "attributed_cycles",
                "solo_cycles",
                "slowdown",
                "context_switches",
                "btu_lookups",
                "btu_hit_rate",
                "btu_evictions",
                "btu_steals_suffered",
                "btu_partition_switches",
            ],
            r.policies
                .iter()
                .flat_map(|p| {
                    p.tenants.iter().map(move |t| {
                        vec![
                            p.policy.clone(),
                            p.defense.label().to_string(),
                            t.context.to_string(),
                            t.workload.clone(),
                            t.committed_instructions.to_string(),
                            t.attributed_cycles.to_string(),
                            t.solo_cycles.to_string(),
                            t.slowdown.to_string(),
                            p.context_switches.to_string(),
                            t.btu.lookups.to_string(),
                            t.btu.hit_rate().to_string(),
                            t.btu.evictions.to_string(),
                            t.btu.steals_suffered.to_string(),
                            t.btu.partition_switches.to_string(),
                        ]
                    })
                })
                .collect(),
        ),
        ExperimentOutput::Records(records) => csv_table(
            &[
                "workload",
                "group",
                "design",
                "defense",
                "cycles",
                "ipc",
                "mispredictions",
                "squashed",
                "analysis_cached",
                "simulate_us",
            ],
            records
                .iter()
                .map(|r| {
                    vec![
                        r.workload.clone(),
                        r.group.to_string(),
                        r.design.clone(),
                        r.defense.label().to_string(),
                        r.stats.cycles.to_string(),
                        r.stats.ipc().to_string(),
                        r.stats.mispredictions.to_string(),
                        r.stats.squashed_instructions.to_string(),
                        r.timing.analysis_cached.to_string(),
                        r.timing.simulate.as_micros().to_string(),
                    ]
                })
                .collect(),
        ),
        ExperimentOutput::Frontier(r) => csv_table(
            &[
                "design",
                "defense",
                "geomean_slowdown",
                "security_leaks",
                "full_suite",
                "on_frontier",
                "dominates",
                "dominated_by",
            ],
            r.cells
                .iter()
                .map(|c| {
                    vec![
                        c.label.clone(),
                        c.defense.label().to_string(),
                        c.geomean_slowdown.to_string(),
                        c.security_leaks.to_string(),
                        c.full_suite.to_string(),
                        c.on_frontier.to_string(),
                        c.dominates.to_string(),
                        c.dominated_by.to_string(),
                    ]
                })
                .collect(),
        ),
    }
}

/// Renders any experiment output as pretty-printed JSON.
///
/// # Errors
///
/// Propagates serialization errors (none in the vendored shim).
pub fn render_json(output: &ExperimentOutput) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(output)
}

/// Renders any experiment output in the requested format.
///
/// # Errors
///
/// Propagates JSON serialization errors.
pub fn render(
    output: &ExperimentOutput,
    format: ReportFormat,
) -> Result<String, serde_json::Error> {
    match format {
        ReportFormat::Text => Ok(render_text(output)),
        ReportFormat::Csv => Ok(render_csv(output)),
        ReportFormat::Json => render_json(output),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{AnalysisStore, DesignPoint, SweepExecutor};
    use crate::experiments::{self, quick_workloads, FIG7_DESIGNS};
    use cassandra_kernels::suite;

    #[test]
    fn table1_rendering_contains_programs_and_all_row() {
        let store = AnalysisStore::new();
        let ex = SweepExecutor::new(&store);
        let result = experiments::table1_with(&ex, &quick_workloads()[..2]).unwrap();
        let text = format_table1(&result);
        assert!(text.contains("ChaCha20_ct"));
        assert!(text.contains("All"));
        assert!(text.contains("CompRateAvg"));
    }

    #[test]
    fn fig7_rendering_contains_geomean() {
        let workloads = vec![suite::des_workload(8)];
        let store = AnalysisStore::new();
        let ex = SweepExecutor::new(&store);
        let result = experiments::figure7_with(&ex, &workloads, &FIG7_DESIGNS).unwrap();
        let text = format_fig7(&result);
        assert!(text.contains("geomean"));
        assert!(text.contains("Cassandra speedup"));
    }

    #[test]
    fn every_format_renders_every_output() {
        let workloads = vec![suite::des_workload(4)];
        let mut registry = crate::registry::ExperimentRegistry::standard();
        registry.register(crate::registry::SweepExperiment {
            designs: vec![DesignPoint::from_defense(
                cassandra_cpu::config::DefenseMode::Cassandra,
            )],
        });
        let store = AnalysisStore::new();
        let runs = registry
            .run_all(&SweepExecutor::new(&store), &workloads)
            .unwrap();
        assert_eq!(runs.len(), 12);
        for run in &runs {
            let text = render_text(&run.output);
            assert!(!text.is_empty(), "{}: empty text", run.name);
            let csv = render_csv(&run.output);
            assert!(csv.lines().count() >= 2, "{}: no CSV rows", run.name);
            let json = render_json(&run.output).unwrap();
            assert!(json.starts_with('{'), "{}: bad JSON", run.name);
        }
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn q4_rendering_mentions_interval_and_both_variants() {
        let q4 = experiments::Q4Result {
            speedup_no_flush_pct: 1.85,
            speedup_with_flush_pct: 1.80,
            speedup_with_partition_pct: 1.83,
            flush_interval: 400_000,
            partition_contexts: 2,
        };
        let text = format_q4(&q4);
        assert!(text.contains("400000"));
        assert!(text.contains("whole-BTU flush"));
        assert!(text.contains("partition reassignment"));
    }
}
