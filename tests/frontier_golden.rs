//! Byte-exact pinning of the frontier experiment's record stream.
//!
//! The registry's `frontier` experiment over the quick workload suite is
//! serialized one JSON line per scored cell and compared byte-for-byte
//! against a blessed fixture: any drift in a slowdown, a leak count, a
//! dominance count or the frontier membership of a cell fails here with the
//! exact cell named. Frontier results carry no wall-clock timing, so the
//! stream is byte-stable across machines and thread counts.
//!
//! Regenerate (only when a scoring change is intended and reviewed) with
//! `BLESS_GOLDEN=1 cargo test --test frontier_golden`.

mod common;

use cassandra::core::registry::ExperimentOutput;
use cassandra::prelude::*;

#[test]
fn frontier_experiment_stream_matches_the_blessed_golden_fixture() {
    let store = AnalysisStore::new();
    let workloads = common::quick_workloads();
    let run = Experiment::named("frontier")
        .expect("frontier is a standard experiment")
        .run(&SweepExecutor::new(&store), &workloads)
        .expect("frontier experiment");
    let ExperimentOutput::Frontier(result) = &run.output else {
        panic!("frontier produced the wrong output kind");
    };

    let mut lines: Vec<String> = Vec::new();
    for cell in &result.cells {
        lines.push(serde_json::to_string(cell).expect("serializable cell"));
    }
    for point in &result.frontier {
        lines.push(serde_json::to_string(point).expect("serializable point"));
    }

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/frontier_report.jsonl"
    );
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(golden_path, lines.join("\n") + "\n").unwrap();
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden fixture missing; regenerate with BLESS_GOLDEN=1");
    let golden_lines: Vec<&str> = golden.lines().collect();
    assert_eq!(
        lines.len(),
        golden_lines.len(),
        "line count diverged from the golden fixture"
    );
    for (got, want) in lines.iter().zip(&golden_lines) {
        assert_eq!(got, *want, "a frontier record diverged from the fixture");
    }
}
