//! Byte-exact `SimOutcome` pinning across the full policy matrix.
//!
//! The hot-loop optimization work (PR 7: `Copy` instructions, dense memory
//! backing, the flat squash-undo log, the slot-indexed BTU) must change
//! **no observable behavior**: statistics, both access traces and the halt
//! flag of every (workload × policy) cell are pinned byte-for-byte against
//! a golden fixture blessed on the *pre-optimization* simulator. A diff in
//! any serialized field — a cycle count, a single transient address — fails
//! here with the exact cell named.
//!
//! Regenerate (only when a behavioral change is intended and reviewed) with
//! `BLESS_GOLDEN=1 cargo test --test sim_outcome_golden`.

mod common;

use cassandra::prelude::*;
use serde::Serialize;

/// One serialized matrix cell: the workload, the design label and the full
/// simulation outcome (stats + both access traces + the halt flag).
#[derive(Serialize)]
struct GoldenCell {
    workload: String,
    design: String,
    outcome: SimOutcome,
}

/// Every `SimOutcome` of the quick-workload × standard-registry matrix,
/// serialized as one JSON line per cell, must match the committed fixture.
#[test]
fn policy_matrix_outcomes_match_the_blessed_golden_fixture() {
    let workloads = common::quick_workloads();
    let registry = PolicyRegistry::standard();
    assert_eq!(
        registry.len(),
        DefenseMode::ALL.len(),
        "the fixture must cover every registered defense"
    );

    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let mut lines: Vec<String> = Vec::new();
    for workload in &workloads {
        for design in registry.designs() {
            let outcome = ex
                .simulate(workload, &design.config)
                .unwrap_or_else(|e| panic!("{} under {}: {e:?}", workload.name, design.label));
            let cell = GoldenCell {
                workload: workload.name.clone(),
                design: design.label.clone(),
                outcome,
            };
            lines.push(serde_json::to_string(&cell).expect("serializable outcome"));
        }
    }

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/sim_outcomes.jsonl"
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
        "cell count diverged from the golden fixture"
    );
    for (got, want) in lines.iter().zip(&golden_lines) {
        assert_eq!(
            got, *want,
            "a simulation outcome diverged from the pre-optimization fixture"
        );
    }
}
