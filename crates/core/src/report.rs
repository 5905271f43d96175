//! Report rendering: plain text (the same rows and series the paper
//! reports), CSV and JSON.
//!
//! Each [`ExperimentOutput`] is described once, as one table: a line per
//! column (text header, width, alignment and precision, CSV header, and the
//! typed cell it reads from a row; a mark if one format only shows it),
//! plus text-only lead and trail lines. [`render`] prints that table as
//! text or CSV; JSON stays on serde.

use std::borrow::Cow;
use std::fmt::Write;

use crate::registry::ExperimentOutput;
use cassandra_analysis::StaticVerdict;
use cassandra_cpu::config::DefenseMode;
use serde_json::Error;

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

/// One typed cell.
enum Cell<'a> {
    /// Text, the same in both formats.
    Str(Cow<'a, str>),
    /// A number: the column's precision in text, in full in CSV.
    Num(f64),
    /// Text that differs per format: (text, CSV).
    Split(Cow<'a, str>, Cow<'a, str>),
}

/// A string cell borrowed from the output.
fn b(text: &str) -> Cell<'_> {
    Cell::Str(Cow::Borrowed(text))
}

/// A cell of any other displayed value: a number, flag or label.
fn s<'a>(value: impl ToString) -> Cell<'a> {
    Cell::Str(Cow::Owned(value.to_string()))
}

/// A column's headers and text layout.
#[derive(Default)]
struct Column<'a> {
    text: &'a str,
    csv: &'a str,
    /// The one format that shows this column, if not both.
    only: Option<ReportFormat>,
    left: bool,
    width: usize,
    prec: usize,
    /// Text before the cell, after the space between columns (if any).
    sep: &'static str,
}

/// A right-aligned column (`l`: left-aligned; `csv`: shown in CSV only).
fn r<'a>(text: &'a str, csv: &'a str, width: usize) -> Column<'a> {
    Column {
        text,
        csv,
        width,
        ..Column::default()
    }
}

fn l<'a>(text: &'a str, csv: &'a str, width: usize) -> Column<'a> {
    Column {
        left: true,
        ..r(text, csv, width)
    }
}

fn csv(header: &str) -> Column<'_> {
    Column {
        only: Some(ReportFormat::Csv),
        ..r("", header, 0)
    }
}

impl Column<'_> {
    fn prec(self, prec: usize) -> Self {
        Column { prec, ..self }
    }
}

/// A column with the cell it reads from a row.
type Col<'a, R> = (Column<'a>, Box<dyn Fn(&R) -> Cell<'a> + 'a>);

/// One output as a table over rows of type `R`, each with the one format
/// that shows it (if not both) and a text section lead: a table with
/// section leads prints its header after each lead, not at the top.
struct Table<'a, R> {
    rows: Vec<(Option<ReportFormat>, String, R)>,
    cols: Vec<Col<'a, R>>,
}

fn table<'a, R>(items: impl IntoIterator<Item = R>) -> Table<'a, R> {
    let rows = items.into_iter().map(|item| (None, String::new(), item));
    let (rows, cols) = (rows.collect(), Vec::new());
    Table { rows, cols }
}

impl<'a, R> Table<'a, R> {
    /// Appends a row that only one format prints.
    fn row(mut self, only: ReportFormat, item: R) -> Self {
        self.rows.push((Some(only), String::new(), item));
        self
    }

    fn sections(mut self, lead: impl Fn(&R) -> Option<String>) -> Self {
        for row in &mut self.rows {
            row.1 = lead(&row.2).unwrap_or_default();
        }
        self
    }

    fn col(mut self, column: Column<'a>, cell: impl Fn(&R) -> Cell<'a> + 'a) -> Self {
        self.cols.push((column, Box::new(cell)));
        self
    }

    /// The columns and rows a format shows, by index.
    fn shown(&self, format: ReportFormat) -> (Vec<&Col<'a, R>>, Vec<usize>) {
        let shows = |only: Option<ReportFormat>| only.is_none_or(|f| f == format);
        let cols = self.cols.iter().filter(|(c, _)| shows(c.only)).collect();
        let rows = (0..self.rows.len()).filter(|&i| shows(self.rows[i].0));
        (cols, rows.collect())
    }

    /// Writes one text line, the header for no `row`: each cell padded to
    /// its column's width after a space (none before the first) and the
    /// column's `sep`. A zero-width column's empty cell is left out.
    fn line(&self, out: &mut String, cols: &[&Col<'a, R>], row: Option<usize>) {
        for (i, (c, cell)) in cols.iter().enumerate() {
            let cell = row.map_or_else(|| b(c.text), |row| cell(&self.rows[row].2));
            if c.width == 0 && matches!(&cell, Cell::Str(t) | Cell::Split(t, _) if t.is_empty()) {
                continue;
            }
            out.push_str(if i > 0 { " " } else { "" });
            out.push_str(c.sep);
            let (w, p) = (c.width, c.prec);
            let _ = match &cell {
                Cell::Num(x) if c.left => write!(out, "{x:<w$.p$}"),
                Cell::Num(x) => write!(out, "{x:>w$.p$}"),
                Cell::Str(t) | Cell::Split(t, _) if c.left => write!(out, "{t:<w$}"),
                Cell::Str(t) | Cell::Split(t, _) => write!(out, "{t:>w$}"),
            };
        }
        out.push('\n');
    }

    /// Prints the table in `format`; text puts `lead` and `trail` around it.
    fn render(&self, format: ReportFormat, lead: &str, trail: &str) -> String {
        if format != ReportFormat::Text {
            return self.csv();
        }
        let (cols, rows) = self.shown(ReportFormat::Text);
        let mut header = String::new();
        if cols.iter().any(|(c, _)| !c.text.is_empty()) {
            self.line(&mut header, &cols, None);
        }
        let mut out = lead.to_string();
        if self.rows.iter().all(|row| row.1.is_empty()) {
            out.push_str(&header);
        }
        for i in rows {
            if !self.rows[i].1.is_empty() {
                out.push_str(&self.rows[i].1);
                out.push_str(&header);
            }
            self.line(&mut out, &cols, Some(i));
        }
        out + trail
    }

    fn csv(&self) -> String {
        let (cols, rows) = self.shown(ReportFormat::Csv);
        let mut out = String::new();
        for row in std::iter::once(None).chain(rows.into_iter().map(Some)) {
            for (j, (c, cell)) in cols.iter().enumerate() {
                out.push_str(if j == 0 { "" } else { "," });
                let _ = match row.map_or_else(|| b(c.csv), |row| cell(&self.rows[row].2)) {
                    Cell::Num(x) => write!(out, "{x}"),
                    Cell::Str(t) | Cell::Split(_, t) => write!(out, "{}", csv_escape(&t)),
                };
            }
            out.push('\n');
        }
        out
    }
}

/// Renders an output as text or CSV from its one table description, a
/// column per line (left unformatted so that it reads as a table).
#[rustfmt::skip]
fn render_table(output: &ExperimentOutput, format: ReportFormat) -> String {
    use Cell::{Num, Split};
    use ReportFormat::{Csv, Text};
    match output {
        ExperimentOutput::Table1(t) => table(t.rows.iter().map(|row| (Some(&row.group), &row.row)))
            .row(Text, (None, &t.all))
            .col(l("Program", "program", 22), |x| b(&x.1.program))
            .col(r("Group", "group", 6), |x| x.0.map_or(b(""), s))
            .col(csv("multi_target"), |x| s(x.1.multi_target_branches))
            .col(csv("single_target"), |x| s(x.1.single_target_branches))
            .col(r("VanillaAvg", "vanilla_avg", 12).prec(1), |x| Num(x.1.vanilla_avg))
            .col(r("VanillaMax", "vanilla_max", 12), |x| s(x.1.vanilla_max))
            .col(r("KmersAvg", "kmers_avg", 10).prec(1), |x| Num(x.1.kmers_avg))
            .col(r("KmersMax", "kmers_max", 10), |x| s(x.1.kmers_max))
            .col(r("CompRateAvg", "compression_avg", 14).prec(1), |x| Num(x.1.compression_avg))
            .col(r("CompRateMax", "compression_max", 14).prec(1), |x| Num(x.1.compression_max))
            .render(format, "", ""),
        ExperimentOutput::Fig7(f) => {
            let rows = f.rows.iter().map(|row| (&*row.workload, Some(&row.group), &row.normalized));
            let mut t = table(rows.chain([("geomean", None, &f.geomean)]))
                .col(l("Workload", "workload", 22), |x| b(x.0))
                .col(r("Group", "group", 8), |x| x.1.map_or(b(""), s));
            for d in f.geomean.keys() {
                t = t.col(r(d, d, 18).prec(4), |x| x.2.get(d).map_or(Split("NaN".into(), "".into()), |v| Num(*v)));
            }
            // One speedup line per swept design (negative = slowdown).
            let baseline = DefenseMode::UnsafeBaseline.label();
            let speedups = f.geomean.keys().filter(|label| *label != baseline)
                .map(|label| format!("{label} speedup vs {baseline}: {:+.2}%\n", f.speedup_pct_of(label)));
            t.render(format, "", &format!("\n{}", speedups.collect::<String>()))
        }
        ExperimentOutput::Fig8(points) => table(points)
            .col(l("Variant", "variant", 14), |p| b(&p.variant))
            .col(l("Mix", "mix", 12), |p| b(&p.mix))
            .col(r("ProSpeCT[%]", "prospect_overhead_pct", 14).prec(2), |p| Num(p.prospect_overhead_pct))
            .col(r("Cassandra+ProSpeCT[%]", "cassandra_prospect_overhead_pct", 24).prec(2), |p| Num(p.cassandra_prospect_overhead_pct))
            .render(format, "", ""),
        ExperimentOutput::Fig9(f) => {
            let (base, cass) = (&f.baseline, &f.cassandra);
            let units = base.units.iter().map(|u| (&*u.name, u.area, Some(u.power), cass.unit_power(&u.name)));
            let cass_only = cass.units.iter().filter(|u| base.unit_area(&u.name) == 0.0);
            table(units.chain(cass_only.map(|u| (&*u.name, u.area, None, u.power))))
                .row(Csv, ("TOTAL", base.total_area, Some(base.total_power), cass.total_power))
                .col(l("", "unit", 24), |x| b(x.0))
                .col(Column { sep: "area ", ..r("", "area", 7).prec(1) }, |x| Num(x.1))
                .col(Column { sep: "  power ", ..r("", "baseline_power", 8).prec(3) }, |x| x.2.map_or(Split("-".into(), "".into()), Num))
                .col(Column { sep: "-> ", ..r("", "cassandra_power", 8).prec(3) }, |x| Num(x.3))
                .col(Column { sep: "  ", only: Some(Text), ..l("", "", 0) }, |x| b(x.2.map_or("(Cassandra only)", |_| "")))
                .render(format, "Unit breakdown (area, power) — UnsafeBaseline vs Cassandra\n", &format!(
                    "\nTotal power change: {:+.2}%   BTU area overhead: {:+.2}%\n",
                    f.power_delta_pct, f.area_overhead_pct))
        }
        ExperimentOutput::Q3(rows) => table(rows)
            .col(l("Workload", "workload", 22), |x| b(&x.workload))
            .col(r("Group", "group", 8), |x| s(x.group))
            .col(l("Variant", "design", 18), |x| b(&x.design))
            .col(r("Cassandra", "cassandra_cycles", 14), |x| s(x.cassandra_cycles))
            .col(r("Variant", "variant_cycles", 14), |x| s(x.variant_cycles))
            .col(r("Slowdown[%]", "slowdown_pct", 12).prec(2), |x| Num(x.slowdown_pct))
            .render(format, "", ""),
        ExperimentOutput::Q4(q) => table(None)
            .row(Csv, q)
            .col(csv("flush_interval"), |q| s(q.flush_interval))
            .col(csv("partition_contexts"), |q| s(q.partition_contexts))
            .col(csv("speedup_no_flush_pct"), |q| Num(q.speedup_no_flush_pct))
            .col(csv("speedup_with_flush_pct"), |q| Num(q.speedup_with_flush_pct))
            .col(csv("speedup_with_partition_pct"), |q| Num(q.speedup_with_partition_pct))
            .render(format, &format!("Cassandra speedup without context switches: {:+.2}%\n\
                Context switch every {} instructions, priced as ...\n\
                ... a whole-BTU flush:                    {:+.2}%\n\
                ... a partition reassignment ({} ctx):     {:+.2}%\n",
                q.speedup_no_flush_pct, q.flush_interval, q.speedup_with_flush_pct,
                q.partition_contexts, q.speedup_with_partition_pct), ""),
        ExperimentOutput::Security(m) => table(&m.cells)
            .col(l("Scenario", "scenario", 36), |c| b(&c.scenario))
            .col(l("Design", "design", 18), |c| b(&c.design))
            .col(r("CtEqual", "contract_equal", 9), |c| s(c.verdict.contract_equal))
            .col(r("ObsEqual", "attacker_trace_equal", 9), |c| s(c.verdict.attacker_trace_equal))
            .col(r("Transient", "transient_activity", 10), |c| s(c.verdict.transient_activity))
            .col(r("Verdict", "protected", 10), |c| match c.verdict.is_protected() {
                true => Split("protected".into(), "true".into()),
                false => Split("LEAK".into(), "false".into()),
            })
            .col(Column { sep: " ", ..l("", "divergent_accesses", 0) }, |c| {
                let addrs = &c.verdict.divergent_accesses;
                let hex = |sep| addrs.iter().map(|a| format!("{a:#x}")).collect::<Vec<_>>().join(sep);
                let text = if addrs.is_empty() { String::new() } else { format!("diverging: {}", hex(" ")) };
                Split(text.into(), hex(";").into())
            })
            .render(format, "", &format!("\n{} leaking (scenario, design) pairs\n", m.leak_count())),
        ExperimentOutput::TraceGen(rows) => table(rows)
            .col(l("Workload", "workload", 22), |x| b(&x.workload))
            .col(r("Branches", "branches", 9), |x| s(x.branches))
            .col(r("Detect[µs]", "detect_us", 12), |x| s(x.detect.as_micros()))
            .col(r("Collect[µs]", "collect_us", 12), |x| s(x.collect.as_micros()))
            .col(r("Vanilla[µs]", "vanilla_us", 12), |x| s(x.vanilla.as_micros()))
            .col(r("Kmers[µs]", "kmers_us", 12), |x| s(x.kmers.as_micros()))
            .render(format, "", ""),
        ExperimentOutput::Lint(rows) => table(rows)
            .col(l("Workload", "workload", 22), |x| b(&x.workload))
            .col(r("Group", "group", 10), |x| s(x.group))
            .col(r("Verdict", "verdict", 15), |x| b(x.verdict.as_str()))
            .col(r("Instrs", "instructions", 7), |x| s(x.instructions))
            .col(r("CondBr", "conditional_branches", 7), |x| s(x.conditional_branches))
            .col(r("Tainted", "tainted_branches", 8), |x| s(x.tainted_branches))
            .col(r("Arch", "arch_findings", 6), |x| s(x.arch_findings))
            .col(r("Transient", "transient_findings", 10), |x| s(x.transient_findings))
            .render(format, "", &format!("\n{}/{} workloads certified ct-clean (verdicts over-approximate: \
                ct-clean is a guarantee, leak verdicts may be conservative)\n",
                rows.iter().filter(|r| r.verdict == StaticVerdict::CtClean).count(), rows.len())),
        ExperimentOutput::Consolidation(c) => {
            let lead = format!("Consolidation: {} tenants, quantum {} instructions\n", c.tenant_count, c.quantum);
            table(c.policies.iter().flat_map(|p| p.tenants.iter().enumerate().map(move |(i, t)| (p, i, t))))
                .sections(|&(p, i, _)| (i == 0).then(|| format!(
                    "\nPolicy {:<10} ({}): {} context switches, {} total cycles, geomean slowdown {:.3}x\n",
                    p.policy, p.defense.label(), p.context_switches, p.total_cycles, p.geomean_slowdown)))
                .col(csv("policy"), |x| b(&x.0.policy))
                .col(csv("defense"), |x| b(x.0.defense.label()))
                .col(Column { sep: "  ", ..r("Ctx", "context", 3) }, |x| s(x.2.context))
                .col(l("Workload", "workload", 22), |x| b(&x.2.workload))
                .col(r("Committed", "committed_instructions", 10), |x| s(x.2.committed_instructions))
                .col(r("Cycles", "attributed_cycles", 12), |x| s(x.2.attributed_cycles))
                .col(r("Solo", "solo_cycles", 12), |x| s(x.2.solo_cycles))
                .col(r("Slowdown", "slowdown", 9), |x| Split(format!("{:.3}x", x.2.slowdown).into(), x.2.slowdown.to_string().into()))
                .col(csv("context_switches"), |x| s(x.0.context_switches))
                .col(r("BtuLookups", "btu_lookups", 11), |x| s(x.2.btu.lookups))
                .col(r("HitRate", "btu_hit_rate", 8).prec(3), |x| Num(x.2.btu.hit_rate()))
                .col(r("Evictions", "btu_evictions", 9), |x| s(x.2.btu.evictions))
                .col(r("Steals", "btu_steals_suffered", 7), |x| s(x.2.btu.steals_suffered))
                .col(csv("btu_partition_switches"), |x| s(x.2.btu.partition_switches))
                .render(format, &lead, "")
        }
        ExperimentOutput::Records(records) => table(records)
            .col(l("Workload", "workload", 22), |x| b(&x.workload))
            .col(r("Group", "group", 10), |x| s(x.group))
            .col(l("Design", "design", 18), |x| b(&x.design))
            .col(csv("defense"), |x| b(x.defense.label()))
            .col(r("Cycles", "cycles", 12), |x| s(x.stats.cycles))
            .col(r("IPC", "ipc", 8).prec(3), |x| Num(x.stats.ipc()))
            .col(r("Mispred", "mispredictions", 10), |x| s(x.stats.mispredictions))
            .col(csv("squashed"), |x| s(x.stats.squashed_instructions))
            .col(r("Cached", "analysis_cached", 8), |x| s(x.timing.analysis_cached))
            .col(csv("simulate_us"), |x| s(x.timing.simulate.as_micros()))
            .render(format, "", ""),
        ExperimentOutput::Frontier(f) => {
            let search = if f.adaptive { "successive halving" } else { "exhaustive" };
            let (workloads, cells, full) = (f.workloads.len(), f.cells_total, f.cells_simulated_full);
            let mut lead = format!("Pareto frontier over {workloads} workloads: {cells} grid cells, {full} full-suite ({search})\n");
            for (i, rung) in f.rungs.iter().enumerate() {
                let _ = writeln!(lead, "  rung {i}: {} cells on {} workloads -> kept {}", rung.cells_in, rung.workloads, rung.cells_kept);
            }
            let _ = writeln!(lead, "\nFrontier ({} points, security asc then slowdown asc):", f.frontier.len());
            lead += &table(&f.frontier)
                .col(l("Design", "", 28), |p| b(&p.label))
                .col(l("Defense", "", 18), |p| b(p.defense.label()))
                .col(r("Slowdown", "", 10).prec(4), |p| Num(p.geomean_slowdown))
                .col(r("Leaks", "", 7), |p| s(p.security_leaks))
                .render(Text, "", "");
            let _ = writeln!(lead, "\nAll cells ({}):", f.cells.len());
            table(&f.cells)
                .col(l("Design", "design", 28), |c| b(&c.label))
                .col(csv("defense"), |c| b(c.defense.label()))
                .col(r("Slowdown", "geomean_slowdown", 10).prec(4), |c| Num(c.geomean_slowdown))
                .col(r("Leaks", "security_leaks", 7), |c| s(c.security_leaks))
                .col(r("Full", "full_suite", 6), |c| s(c.full_suite))
                .col(r("Frontier", "on_frontier", 9), |c| s(c.on_frontier))
                .col(r("Dominates", "dominates", 10), |c| s(c.dominates))
                .col(r("DominatedBy", "dominated_by", 11), |c| s(c.dominated_by))
                .render(format, &lead, "")
        }
    }
}

fn csv_escape(field: &str) -> Cow<'_, str> {
    match field.contains([',', '"', '\n']) {
        true => Cow::Owned(format!("\"{}\"", field.replace('"', "\"\""))),
        false => Cow::Borrowed(field),
    }
}

/// Renders any experiment output as plain text.
pub fn render_text(output: &ExperimentOutput) -> String {
    render_table(output, ReportFormat::Text)
}

/// Renders any experiment output as pretty-printed JSON.
///
/// # Errors
///
/// Propagates serialization errors (none in the vendored shim).
pub fn render_json(output: &ExperimentOutput) -> Result<String, Error> {
    serde_json::to_string_pretty(output)
}

/// Renders any experiment output in the requested format.
///
/// # Errors
///
/// Propagates JSON serialization errors.
pub fn render(output: &ExperimentOutput, format: ReportFormat) -> Result<String, Error> {
    match format {
        ReportFormat::Json => render_json(output),
        _ => Ok(render_table(output, format)),
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
        let text = render_text(&ExperimentOutput::Table1(result));
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
        let text = render_text(&ExperimentOutput::Fig7(result));
        assert!(text.contains("geomean"));
        assert!(text.contains("Cassandra speedup"));
    }

    #[test]
    fn every_format_renders_every_output() {
        let mut experiments = crate::registry::Experiment::standard();
        let designs = vec![DesignPoint::from_defense(DefenseMode::Cassandra)];
        experiments.push(crate::registry::Experiment::Sweep { designs });
        let store = AnalysisStore::new();
        let ex = SweepExecutor::new(&store);
        let runs = experiments
            .iter()
            .map(|e| e.run(&ex, &[suite::des_workload(4)]))
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(runs.len(), 12);
        for run in &runs {
            let text = render_text(&run.output);
            assert!(!text.is_empty(), "{}: empty text", run.name);
            let csv = render(&run.output, ReportFormat::Csv).unwrap();
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
        let text = render_text(&ExperimentOutput::Q4(q4));
        assert!(text.contains("400000"));
        assert!(text.contains("whole-BTU flush"));
        assert!(text.contains("partition reassignment"));
    }
}
