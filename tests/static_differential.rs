//! Differential validation of the static analyzer against the simulator.
//!
//! The contract between `cassandra-analysis` and the dynamic stack has a
//! fixed direction: the static pass **over-approximates**. Concretely:
//!
//! * zero false negatives — every leak the dynamic security sweep observes
//!   (under *any* registered defense) must be statically flagged;
//! * a `ct-clean` verdict is a guarantee — secret-differing builds of a
//!   statically clean kernel must produce identical attacker-visible access
//!   traces under **every** defense mode, speculation included;
//! * the static CFG contains every dynamically executed control-flow edge,
//!   and a statically untainted branch never has a secret-dependent outcome
//!   at runtime (property-tested over seeded random programs).

mod common;

use cassandra::analysis::{analyze, Cfg, StaticVerdict};
use cassandra::core::security::{self, ScenarioVerdict};
use cassandra::isa::exec::Executor;
use cassandra::isa::instr::BranchKind;
use cassandra::isa::observe::{BranchOutcome, Observer};
use cassandra::kernels::gadgets;
use cassandra::kernels::kernel::{chacha20, feistel, modexp, poly1305};
use cassandra::kernels::suite;
use cassandra::prelude::*;
use common::{random_taint_program, Rng};
use std::collections::BTreeMap;

// ------------------------------------------------------ static ground truth

/// The paper's workloads get the expected verdicts through the facade: the
/// crypto kernels certify clean, table-based AES is an architectural leak,
/// and every secret-transmitting gadget is a transient transmitter with the
/// finding attributed to its mispredictable branch.
#[test]
fn suite_and_gadget_static_verdicts() {
    for w in suite::full_suite() {
        let report = analyze(&w.kernel.program);
        let expected = if w.name.contains("AES") || w.name.contains("CBC") {
            StaticVerdict::ArchLeak
        } else {
            StaticVerdict::CtClean
        };
        assert_eq!(
            report.verdict(),
            expected,
            "{}: {:#?}",
            w.name,
            report.findings
        );
    }
    for g in gadgets::all_scenarios(0x5a5a) {
        let report = analyze(&g.program);
        if g.gadget == cassandra::kernels::gadgets::LeakGadget::NonCryptoRegister {
            // Leaks only an architecturally declassified constant.
            assert_eq!(report.verdict(), StaticVerdict::CtClean);
        } else {
            assert!(report.is_transient_transmitter(), "{}", report.program_name);
            assert!(
                report
                    .transient_findings()
                    .any(|f| f.branch_pc == Some(g.branch_pc)),
                "{}: finding not attributed to the trigger branch",
                report.program_name
            );
        }
    }
    let listing1 = gadgets::listing1_decrypt(0xdead_beef, 8);
    assert_eq!(
        analyze(&listing1.program).verdict(),
        StaticVerdict::TransientLeak
    );
}

// ----------------------------------------------- zero static false negatives

/// Sweeps every gadget scenario under **all** registered defense modes and
/// checks that each dynamically observed leak is statically flagged, with
/// the offending addresses attached to the failing cell (satellite: the
/// matrix no longer reports bare counts).
#[test]
fn every_dynamic_leak_is_statically_flagged_across_all_defenses() {
    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let matrix = security::security_sweep_with(&ex, &DefenseMode::ALL).unwrap();
    assert_eq!(matrix.cells.len(), 8 * DefenseMode::ALL.len());

    let mut leaks = 0;
    for cell in &matrix.cells {
        if cell.verdict.is_protected() {
            continue;
        }
        leaks += 1;
        assert!(
            !cell.verdict.divergent_accesses.is_empty(),
            "{} under {}: a leaking cell must name its divergent addresses",
            cell.scenario,
            cell.design
        );
        // The static analyzer never under-approximates: rebuild the
        // scenario program and demand a leak verdict.
        let g = gadgets::scenario(cell.site, cell.gadget, 0x5a5a);
        let report = analyze(&g.program);
        assert_ne!(
            report.verdict(),
            StaticVerdict::CtClean,
            "dynamic leak of {} under {} has no static finding",
            cell.scenario,
            cell.design
        );
    }
    assert!(leaks > 0, "the unsafe baseline must witness leaks");
}

// ------------------------------------------- ct-clean verdict is a guarantee

/// Secret-differing builds of statically certified kernels: under every
/// defense mode the attacker-visible access traces must be identical (the
/// paper's empty-diff condition), speculative execution included. AES rides
/// along as the negative control — statically `arch-leak`, and dynamically
/// its S-box accesses diverge even on hardware that blocks every transient
/// channel.
#[test]
fn statically_clean_kernels_never_leak_under_any_defense() {
    let msg = [0x5au8; 32];
    let block = [0x5au8; 64];
    let pairs = [
        (
            "chacha20",
            chacha20::build(&[0u8; 32], 1, &[7u8; 12], &block),
            chacha20::build(&[0xffu8; 32], 1, &[7u8; 12], &block),
        ),
        (
            "feistel",
            feistel::build(0, &[1, 2]),
            feistel::build(u64::MAX, &[1, 2]),
        ),
        (
            "poly1305",
            poly1305::build(&[0u8; 32], &msg),
            poly1305::build(&[0xffu8; 32], &msg),
        ),
        (
            "modexp",
            modexp::build((1 << 61) - 1, 3, &[0x0000], 16),
            modexp::build((1 << 61) - 1, 3, &[0xffff], 16),
        ),
    ];

    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    for (name, k0, k1) in &pairs {
        let report = analyze(&k0.program);
        assert!(report.is_ct_clean(), "{name}: {:#?}", report.findings);
        for defense in DefenseMode::ALL {
            let cfg = CpuConfig::golden_cove_like().with_defense(defense);
            let o0 = security::observe_with(&ex, &k0.program, &cfg).unwrap();
            let o1 = security::observe_with(&ex, &k1.program, &cfg).unwrap();
            let v = ScenarioVerdict::from_observations(*name, &o0, &o1);
            assert!(v.contract_equal, "{name}: not constant-time?");
            assert!(
                v.attacker_trace_equal,
                "{name} under {defense:?}: statically clean kernel leaked at {:x?}",
                v.divergent_accesses
            );
        }
    }

    // Negative control: table AES is statically arch-leak and its dynamic
    // attacker traces diverge on secret-differing keys even under defenses.
    let a0 = cassandra::kernels::kernel::aes128::build(&[0u8; 16], 1, &msg);
    let a1 = cassandra::kernels::kernel::aes128::build(&[0xffu8; 16], 1, &msg);
    assert_eq!(analyze(&a0.program).verdict(), StaticVerdict::ArchLeak);
    for defense in [DefenseMode::UnsafeBaseline, DefenseMode::Cassandra] {
        let cfg = CpuConfig::golden_cove_like().with_defense(defense);
        let o0 = security::observe_with(&ex, &a0.program, &cfg).unwrap();
        let o1 = security::observe_with(&ex, &a1.program, &cfg).unwrap();
        let v = ScenarioVerdict::from_observations("aes128", &o0, &o1);
        assert!(
            !v.attacker_trace_equal && !v.divergent_accesses.is_empty(),
            "table AES must leak architecturally under {defense:?}"
        );
    }
}

// ----------------------------------------------------------- property tests

/// Records every executed control-flow edge and, per conditional branch,
/// the sequence of taken/not-taken outcomes.
#[derive(Default)]
struct EdgeObserver {
    edges: Vec<(usize, usize)>,
    outcomes: BTreeMap<usize, Vec<bool>>,
}

impl Observer for EdgeObserver {
    fn on_branch(&mut self, o: &BranchOutcome) {
        self.edges.push((o.pc, o.target));
        if o.kind == BranchKind::CondDirect {
            self.outcomes.entry(o.pc).or_default().push(o.taken);
        }
    }
}

fn run_edges(p: &Program) -> EdgeObserver {
    let mut exec = Executor::new(p);
    let mut obs = EdgeObserver::default();
    exec.run_with_observer(1_000_000, &mut obs)
        .expect("generated program halts");
    obs
}

/// Seeded property test over random taint programs: (1) every dynamically
/// executed control-flow edge exists in the static CFG; (2) a branch the
/// analyzer leaves untainted has bit-identical outcome sequences across
/// secret-differing runs — static under-tainting would show up here as a
/// divergence on an "untainted" branch; (3) every branch `trace::genproc`
/// profiles is a CFG node with successors.
#[test]
fn random_programs_respect_the_static_cfg_and_taint_verdicts() {
    let seeds = [1u64, 2, 3, 42, 7777, 0x5eed, 0xdead_beef, 0xfeed_f00d];
    let mut saw_tainted = false;
    let mut saw_untainted = false;

    for seed in seeds {
        // Same rng stream, different secrets: identical code, differing data.
        let p0 = random_taint_program(&mut Rng::new(seed), 0x0123_4567_89ab_cdef);
        let p1 = random_taint_program(&mut Rng::new(seed), u64::MAX);
        assert_eq!(p0.instrs, p1.instrs, "seed {seed}: code must match");

        let cfg = Cfg::build(&p0);
        let report = analyze(&p0);
        let o0 = run_edges(&p0);
        let o1 = run_edges(&p1);

        for (obs, which) in [(&o0, "secret0"), (&o1, "secret1")] {
            for &(from, to) in &obs.edges {
                assert!(
                    cfg.has_edge(from, to),
                    "seed {seed} ({which}): dynamic edge {from}->{to} missing from static CFG"
                );
            }
        }

        // Outcome sequences of statically *untainted* branches must be
        // secret-independent.
        let untainted = |obs: &EdgeObserver| -> BTreeMap<usize, Vec<bool>> {
            obs.outcomes
                .iter()
                .filter(|(pc, _)| !report.branch_is_tainted(**pc))
                .map(|(pc, taken)| (*pc, taken.clone()))
                .collect()
        };
        assert_eq!(
            untainted(&o0),
            untainted(&o1),
            "seed {seed}: a statically untainted branch had a secret-dependent outcome"
        );

        saw_tainted |= !report.tainted_branches.is_empty();
        saw_untainted |= o0.outcomes.keys().any(|pc| !report.branch_is_tainted(*pc));

        // genproc ties in: every branch it profiles is a static CFG node.
        let bundle = cassandra::trace::genproc::generate_traces(&p0, Some(&p1), 1_000_000).unwrap();
        for &pc in bundle.branches.keys() {
            assert!(
                !cfg.successors(pc).is_empty(),
                "seed {seed}: genproc branch {pc} unknown to the static CFG"
            );
        }
    }

    assert!(
        saw_tainted && saw_untainted,
        "generator must exercise both tainted and untainted branches"
    );
}

// -------------------------------------------------------------- golden lint

/// The lint experiment's rows are pinned byte-for-byte against a committed
/// golden fixture (the report is fully deterministic — no wall-times to
/// zero). Regenerate with
/// `BLESS_GOLDEN=1 cargo test --test static_differential lint_report`.
#[test]
fn lint_report_matches_committed_golden() {
    let workloads = [
        suite::chacha20_workload(64),
        suite::des_workload(4),
        suite::aes_ctr_workload(32),
    ];
    let store = AnalysisStore::new();
    let run = Experiment::named("lint")
        .expect("lint is a standard experiment")
        .run(&SweepExecutor::new(&store), &workloads)
        .unwrap();
    let ExperimentOutput::Lint(rows) = &run.output else {
        panic!("lint produced {:?}", run.output);
    };
    assert_eq!(store.stats().misses, 0, "lint must stay static");
    let lines: Vec<String> = rows
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/lint_report.jsonl"
    );
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(golden_path, lines.join("\n") + "\n").unwrap();
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden fixture missing; regenerate with BLESS_GOLDEN=1");
    assert_eq!(
        lines,
        golden.lines().map(str::to_string).collect::<Vec<_>>(),
        "lint rows diverged from the golden fixture"
    );
}
