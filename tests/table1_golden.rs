//! Table 1 pinning: the branch-analysis row of every paper program, as the
//! analysis store computes it, must match a fixture blessed before the
//! store moved to its flat replay form. A diff in any per-branch size the
//! store keeps (vanilla length, k-mers size, branch counts) shows up here.
//!
//! Regenerate (only when a behavioral change is intended and reviewed) with
//! `BLESS_GOLDEN=1 cargo test --test table1_golden`.

use cassandra::core::AnalysisBundle;
use cassandra::kernels::suite;

#[test]
fn paper_program_table1_rows_match_the_golden_fixture() {
    let lines: Vec<String> = suite::full_suite()
        .iter()
        .map(|w| {
            let kernel = &w.kernel;
            let analysis = AnalysisBundle::analyze(&kernel.program, kernel.step_limit)
                .unwrap_or_else(|e| panic!("{}: {e:?}", w.name));
            serde_json::to_string(&analysis.branch_row()).expect("serializable row")
        })
        .collect();
    assert_eq!(lines.len(), 21, "the paper's 21 programs");

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/table1_rows.jsonl"
    );
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(golden_path, lines.join("\n") + "\n").unwrap();
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden fixture missing; regenerate with BLESS_GOLDEN=1");
    let golden_lines: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), golden_lines.len(), "row count diverged");
    for (got, want) in lines.iter().zip(&golden_lines) {
        assert_eq!(got, *want, "a Table 1 row diverged from the fixture");
    }
}
