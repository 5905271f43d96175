//! Integration tests for the evaluation API: analysis caching,
//! registry/driver parity, and JSON round-trips.

mod common;

use cassandra::core::eval::simulate_program;
use cassandra::core::experiments::{self, FIG7_DESIGNS, Q3_VARIANTS};
use cassandra::core::registry::ExperimentRun;
use cassandra::core::security;
use cassandra::kernels::suite;
use cassandra::prelude::*;
use cassandra::trace::genproc::generate_traces;
use cassandra::trace::stats::BranchAnalysisRow;
use common::quick_workloads;
use std::time::Duration;

/// Runs every experiment of `experiments` over `workloads` on `ex`.
fn run_all(
    experiments: &[Experiment],
    ex: &SweepExecutor<'_>,
    workloads: &[Workload],
) -> Vec<ExperimentRun> {
    experiments
        .iter()
        .map(|experiment| experiment.run(ex, workloads).unwrap())
        .collect()
}

/// The headline cache property: a full multi-experiment evaluation analyzes
/// each distinct program exactly once, however many designs and experiments
/// consume it.
#[test]
fn full_registry_run_analyzes_each_program_exactly_once() {
    let workloads = quick_workloads();
    let n = workloads.len() as u64;
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let mut experiments = Experiment::standard();
    experiments.push(Experiment::Sweep {
        designs: FIG7_DESIGNS.map(DesignPoint::from_defense).to_vec(),
    });
    let runs = run_all(&experiments, &ex, &workloads);
    assert_eq!(runs.len(), 12);

    let stats = store.stats();
    // The workloads + 10 fig8 synthetics + 16 security gadget builds.
    assert_eq!(
        stats.misses,
        n + 10 + 16,
        "exactly one analysis per program"
    );
    assert_eq!(store.len() as u64, stats.misses);
    // Every experiment after the first re-uses the workloads'
    // analyses: table1/fig7(4 designs)/fig9(2)/q3(2)/q4(3)/tracegen/sweep.
    assert!(stats.hits > 10 * n, "cache hits {} too low", stats.hits);

    // Running the whole registry again must add zero analyses.
    run_all(&experiments, &ex, &workloads);
    assert_eq!(store.stats().misses, stats.misses);
}

/// Runs `driver` on a fresh executor over a store of its own.
fn fresh<T, E: std::fmt::Debug>(driver: impl FnOnce(&SweepExecutor<'_>) -> Result<T, E>) -> T {
    driver(&SweepExecutor::new(&AnalysisStore::new())).unwrap()
}

/// The registry path must reproduce the `*_with` drivers, each run on a
/// fresh store, bit-for-bit (same structs, same floats) on a small suite.
#[test]
fn registry_outputs_match_legacy_free_functions() {
    let workloads = quick_workloads();
    let store = AnalysisStore::new();
    let scaled: Vec<Experiment> = Experiment::standard()
        .into_iter()
        .map(|experiment| match experiment {
            Experiment::Fig8 { .. } => Experiment::Fig8 { scale: 2 },
            other => other,
        })
        .collect();
    let runs = run_all(&scaled, &SweepExecutor::new(&store), &workloads);
    let by_name = |name: &str| {
        runs.iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("missing run {name}"))
            .output
            .clone()
    };

    assert_eq!(
        by_name("table1"),
        ExperimentOutput::Table1(fresh(|ex| experiments::table1_with(ex, &workloads)))
    );
    assert_eq!(
        by_name("fig7"),
        ExperimentOutput::Fig7(fresh(|ex| experiments::figure7_with(
            ex,
            &workloads,
            &FIG7_DESIGNS
        )))
    );
    assert_eq!(
        by_name("fig8"),
        ExperimentOutput::Fig8(fresh(|ex| experiments::figure8_with(ex, 2)))
    );
    assert_eq!(
        by_name("fig9"),
        ExperimentOutput::Fig9(fresh(|ex| experiments::figure9_with(ex, &workloads)))
    );
    assert_eq!(
        by_name("q3"),
        ExperimentOutput::Q3(fresh(|ex| experiments::q3_with(
            ex,
            &workloads,
            &Q3_VARIANTS
        )))
    );
    assert_eq!(
        by_name("q4"),
        ExperimentOutput::Q4(fresh(|ex| experiments::q4_with(
            ex,
            &workloads,
            experiments::Q4_FLUSH_INTERVAL,
            experiments::Q4_PARTITION_CONTEXTS
        )))
    );
    // The registry's security default enumerates the full policy registry;
    // the driver reproduces it when handed the same design list.
    assert_eq!(
        by_name("security"),
        ExperimentOutput::Security(fresh(|ex| security::security_sweep_with(
            ex,
            &PolicyRegistry::standard().defenses()
        )))
    );
    // And the paper's two-design Table 2 is still a plain subset call.
    let table2 = fresh(|ex| security::security_sweep_with(ex, &security::SECURITY_SWEEP_DESIGNS));
    assert_eq!(table2.cells.len(), 16);
}

/// Every experiment output serializes to JSON and deserializes back to an
/// equal value (timing-carrying outputs round-trip too: durations are
/// exact `{secs, nanos}` pairs and floats use shortest-roundtrip text).
#[test]
fn experiment_outputs_round_trip_through_json() {
    let store = AnalysisStore::new();
    let mut experiments = Experiment::standard();
    experiments.push(Experiment::Sweep {
        designs: [DefenseMode::UnsafeBaseline, DefenseMode::Cassandra]
            .map(DesignPoint::from_defense)
            .to_vec(),
    });
    let runs = run_all(
        &experiments,
        &SweepExecutor::new(&store),
        &quick_workloads(),
    );
    for run in runs {
        let json = report::render_json(&run.output).unwrap();
        let back: ExperimentOutput = serde_json::from_str(&json).unwrap();
        assert_eq!(back, run.output, "JSON round trip of {}", run.name);
    }
}

/// EvalRecords carry everything the figures need, and the sweep honours the
/// given matrix ordering.
#[test]
fn sweep_records_are_complete_and_ordered() {
    let workloads = quick_workloads();
    let n = workloads.len();
    let designs = [
        DesignPoint::from_defense(DefenseMode::UnsafeBaseline),
        DesignPoint::new(
            "Cassandra+flush",
            CpuConfig::golden_cove_like()
                .with_defense(DefenseMode::Cassandra)
                .with_btu_flush_interval(5_000),
        ),
    ];
    let store = AnalysisStore::new();
    let records = SweepExecutor::new(&store)
        .sweep_matrix(&workloads, &designs)
        .unwrap();
    assert_eq!(records.len(), 2 * n);
    for pair in records.chunks(2) {
        assert_eq!(pair[0].workload, pair[1].workload);
        assert_eq!(pair[0].design, "UnsafeBaseline");
        assert_eq!(pair[1].design, "Cassandra+flush");
        assert_eq!(pair[1].defense, DefenseMode::Cassandra);
        assert_eq!(
            pair[0].stats.committed_instructions, pair[1].stats.committed_instructions,
            "defenses must not change architectural behaviour"
        );
        assert_eq!(pair[1].stats.mispredictions, 0);
    }
}

/// Each record's wire form with wall-clock times zeroed.
fn zeroed_lines(records: &[EvalRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.timing.analysis = Duration::ZERO;
            r.timing.simulate = Duration::ZERO;
            serde_json::to_string(&r).unwrap()
        })
        .collect()
}

/// The serial path and the scoped-thread workers stream identical records
/// (wall-times zeroed) over the golden fixture's workloads and designs.
#[test]
fn serial_and_parallel_sweeps_stream_identical_records() {
    let workloads = [suite::chacha20_workload(64), suite::des_workload(4)];
    let designs = PolicyRegistry::standard().designs().to_vec();
    let stream = |threads| {
        let store = AnalysisStore::new();
        let records = SweepExecutor::new(&store)
            .with_threads(Some(threads))
            .sweep_matrix(&workloads, &designs)
            .unwrap();
        zeroed_lines(&records)
    };
    let serial = stream(1);
    assert_eq!(serial.len(), workloads.len() * designs.len());
    assert_eq!(serial, stream(4));
}

/// `SweepExecutor::sweep_matrix` output is pinned byte-for-byte (wall-times zeroed)
/// against a committed golden fixture captured before the
/// AnalysisStore/SweepExecutor split, so refactors of the evaluation layer
/// cannot silently change a single record field. Besides the standard
/// registry, every defense also runs with a periodic context switch every
/// 500 committed instructions, once priced as a whole-unit flush and once
/// as a partition switch between two contexts, so the frontend's flush and
/// context-switch paths are pinned too. Regenerate with
/// `BLESS_GOLDEN=1 cargo test --test eval_api sweep_matches`.
#[test]
fn sweep_matches_committed_golden_records() {
    let switching = DefenseMode::ALL.into_iter().flat_map(|defense| {
        let flushed = CpuConfig::golden_cove_like()
            .with_defense(defense)
            .with_btu_flush_interval(500);
        [flushed, flushed.with_btu_switch_contexts(2)].map(DesignPoint::from_config)
    });
    let mut designs = PolicyRegistry::standard().designs().to_vec();
    designs.extend(switching);
    let store = AnalysisStore::new();
    let records = SweepExecutor::new(&store)
        .sweep_matrix(
            &[suite::chacha20_workload(64), suite::des_workload(4)],
            &designs,
        )
        .unwrap();
    let lines = zeroed_lines(&records);

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/sweep_records.jsonl"
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
        "record count diverged from the golden fixture"
    );
    for (i, (got, want)) in lines.iter().zip(&golden_lines).enumerate() {
        assert_eq!(
            got, *want,
            "record {i} diverged from the golden fixture (wall-times zeroed)"
        );
    }
}

/// The uncached primitives (`AnalysisBundle::analyze` and
/// `simulate_program`) and the executor over a store produce identical
/// simulation statistics.
#[test]
fn free_function_shims_match_the_session() {
    let w = suite::poly1305_workload(32);
    let cfg = CpuConfig::golden_cove_like().with_defense(DefenseMode::CassandraStl);

    let legacy_analysis = AnalysisBundle::analyze(&w.kernel.program, w.kernel.step_limit).unwrap();
    let mut legacy_cfg = cfg;
    legacy_cfg.max_instructions = legacy_cfg.max_instructions.max(w.kernel.step_limit);
    let legacy = simulate_program(&w.kernel.program, Some(&legacy_analysis), &legacy_cfg).unwrap();

    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let outcome = ex.simulate(&w, &cfg).unwrap();
    assert_eq!(outcome.stats, legacy.stats);

    let record = ex
        .sweep_matrix(std::slice::from_ref(&w), &[DesignPoint::new("stl", cfg)])
        .unwrap()
        .remove(0);
    assert_eq!(record.stats, legacy.stats);
    assert!(record.timing.analysis_cached, "second use hits the cache");

    // The one-shot analysis and the store's cached one are identical in
    // full replay form, once the wall-clock timing is normalised.
    let (stored_analysis, _) = store.entry(&w.kernel.program, w.kernel.step_limit).unwrap();
    let mut legacy_analysis = legacy_analysis;
    legacy_analysis.summary.timing = stored_analysis.summary.timing;
    assert_eq!(
        legacy_analysis, *stored_analysis,
        "one-shot and stored analyses must replay the same traces"
    );
}

/// A store keeps each analysis as the BTU encoding, whose trace records
/// carry each branch's Table 1 sizes; for every paper program, the row
/// rebuilt from that stored form (also
/// after a journal round trip) equals the row of the full Algorithm 2
/// output, f64 compression rates included, and so does the §7.5 branch
/// count.
#[test]
fn stored_summaries_reproduce_table1_for_the_paper_suite() {
    let store = AnalysisStore::new();
    let suite = suite::full_suite();
    assert_eq!(suite.len(), 21);
    let mut expected = Vec::new();
    for w in &suite {
        let kernel = &w.kernel;
        let traces = generate_traces(&kernel.program, None, kernel.step_limit).unwrap();
        let (analysis, _) = store.entry(&kernel.program, kernel.step_limit).unwrap();
        assert_eq!(analysis.analyzed_branches(), traces.analyzed_branches());
        let sizes: Vec<_> = traces
            .branches
            .values()
            .map(|d| (d.pc, d.vanilla.len(), d.kmers.total_size()))
            .collect();
        let stored: Vec<_> = analysis
            .encoded
            .trace_sizes()
            .map(|b| (b.pc, b.vanilla_len, b.kmers_size))
            .collect();
        assert_eq!(stored, sizes, "{}", w.name);
        expected.push(BranchAnalysisRow::from_bundle(&traces));
    }
    let json = serde_json::to_string(&store.snapshot()).unwrap();
    let replayed = AnalysisStore::new();
    replayed.absorb(serde_json::from_str(&json).unwrap());
    for from_store in [&store, &replayed] {
        for (w, want) in suite.iter().zip(&expected) {
            let kernel = &w.kernel;
            let (analysis, _) = from_store
                .entry(&kernel.program, kernel.step_limit)
                .unwrap();
            let row = analysis.branch_row();
            assert_eq!(&row, want, "{}", w.name);
            for (got, want) in [
                (row.vanilla_avg, want.vanilla_avg),
                (row.kmers_avg, want.kmers_avg),
                (row.compression_avg, want.compression_avg),
                (row.compression_max, want.compression_max),
            ] {
                assert_eq!(got.to_bits(), want.to_bits(), "{}", w.name);
            }
        }
    }
    assert_eq!(
        replayed.stats().misses,
        0,
        "the replayed store never re-analyzes"
    );
}
