//! Byte-exact `SimStats` pinning over the full 21-program paper suite.
//!
//! The quick-workload fixtures (`sim_outcomes.jsonl`, `sweep_records.jsonl`)
//! run kernels small enough that no cache level ever evicts a line and the
//! store queue rarely fills. This fixture covers every paper program under
//! the seven frontend families the `wire-paper` benchmark sweeps, so the
//! long-running cells (kyber, sphincs, rsa) that exercise eviction, the full
//! store queue and deep wrong paths are pinned too. Each line holds the full
//! statistics plus the length and an FNV-1a digest of both access traces,
//! which keeps the fixture small while still catching a single moved
//! address.
//!
//! Regenerate (only when a behavioral change is intended and reviewed) with
//! `BLESS_GOLDEN=1 cargo test --test paper_stats_golden`.

use cassandra::cpu::stats::SimStats;
use cassandra::kernels::suite;
use cassandra::prelude::*;
use serde::Serialize;

/// The design points of the `wire-paper` benchmark: one per frontend family.
const POLICIES: [&str; 7] = [
    "UnsafeBaseline",
    "Fence",
    "SPT",
    "ProSpeCT",
    "Cassandra",
    "Cassandra-lite",
    "Tournament",
];

/// Length and FNV-1a digest (over the little-endian address bytes) of one
/// access trace.
#[derive(Serialize)]
struct TraceDigest {
    len: usize,
    fnv: String,
}

impl TraceDigest {
    fn of(trace: &[u64]) -> Self {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in trace.iter().flat_map(|addr| addr.to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TraceDigest {
            len: trace.len(),
            fnv: format!("{hash:016x}"),
        }
    }
}

/// One serialized cell.
#[derive(Serialize)]
struct PaperCell {
    workload: String,
    design: String,
    halted: bool,
    stats: SimStats,
    architectural: TraceDigest,
    transient: TraceDigest,
}

#[test]
fn paper_suite_stats_match_the_blessed_golden_fixture() {
    let registry = PolicyRegistry::standard();
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let mut lines: Vec<String> = Vec::new();
    for workload in suite::full_suite() {
        for label in POLICIES {
            let design = registry
                .get(label)
                .unwrap_or_else(|| panic!("`{label}` missing from the standard registry"));
            let outcome = ex
                .simulate(&workload, &design.config)
                .unwrap_or_else(|e| panic!("{} under {label}: {e:?}", workload.name));
            let cell = PaperCell {
                workload: workload.name.clone(),
                design: label.to_string(),
                halted: outcome.halted,
                stats: outcome.stats,
                architectural: TraceDigest::of(&outcome.architectural_accesses),
                transient: TraceDigest::of(&outcome.transient_accesses),
            };
            lines.push(serde_json::to_string(&cell).expect("serializable cell"));
        }
    }
    assert_eq!(lines.len(), 21 * POLICIES.len());

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/paper_stats.jsonl"
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
        assert_eq!(got, *want, "a paper-suite cell diverged from the fixture");
    }
}
