//! Byte-exact pinning of the text and CSV reports of every experiment: the
//! standard registry plus a two-design sweep, over two small workloads, one
//! `=== name ===` section per output in `tests/golden/report.txt` and
//! `tests/golden/report.csv`. Wall-clock durations and the cache-order flag
//! are set to fixed values first, so the fixtures hold on any machine.
//!
//! Regenerate (only when a report change is intended and reviewed) with
//! `BLESS_GOLDEN=1 cargo test --test report_golden`.

use std::time::Duration;

use cassandra::kernels::suite;
use cassandra::prelude::*;
use ReportFormat::{Csv, Text};

#[test]
fn every_experiment_renders_text_and_csv_as_blessed() {
    let workloads = vec![suite::chacha20_workload(64), suite::des_workload(4)];
    let mut experiments = Experiment::standard();
    experiments.push(Experiment::Sweep {
        designs: [DefenseMode::UnsafeBaseline, DefenseMode::Cassandra]
            .map(DesignPoint::from_defense)
            .to_vec(),
    });
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let mut runs = experiments
        .iter()
        .map(|experiment| experiment.run(&ex, &workloads))
        .collect::<Result<Vec<_>, _>>()
        .expect("every experiment runs");
    assert_eq!(runs.len(), 12, "one run per output kind");
    let us = Duration::from_micros;
    for run in &mut runs {
        match &mut run.output {
            ExperimentOutput::TraceGen(rows) => {
                for row in rows {
                    (row.detect, row.collect, row.vanilla, row.kmers) =
                        (us(11), us(222), us(3_333), us(44_444));
                }
            }
            ExperimentOutput::Records(records) => {
                for r in records {
                    (r.timing.analysis, r.timing.simulate) = (us(500), us(1_234));
                    r.timing.analysis_cached = true;
                }
            }
            _ => {}
        }
    }

    for (format, file) in [(Text, "report.txt"), (Csv, "report.csv")] {
        let mut rendered = String::new();
        for run in &runs {
            let report = report::render(&run.output, format).expect("renders");
            rendered += &format!("=== {} ===\n{report}", run.name);
        }
        if format == Text {
            assert!(rendered.contains("speedup vs"), "fig7 speedup lines");
            assert!(rendered.contains("  diverging: 0x"), "a leak row");
        }
        let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
        if std::env::var_os("BLESS_GOLDEN").is_some() {
            std::fs::write(&path, &rendered).unwrap();
        }
        let golden = std::fs::read_to_string(&path)
            .expect("golden fixture missing; regenerate with BLESS_GOLDEN=1");
        // Each section starts with its experiment's name.
        for (got, want) in rendered.split("=== ").zip(golden.split("=== ")) {
            assert_eq!(got, want, "{file}: a report diverged from the fixture");
        }
        assert_eq!(rendered, golden, "{file}: the section count diverged");
    }
}
