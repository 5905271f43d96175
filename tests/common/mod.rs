//! The shared differential-test harness.
//!
//! Every integration-test binary (`policy_invariants`, `end_to_end`,
//! `security_scenarios`, `property_tests`, …) compiles this module via
//! `mod common;` instead of carrying its own copy of the program builders,
//! golden-stream capture and policy-matrix runner. The central idea: the
//! **unsafe baseline's committed instruction stream and architectural
//! data-access trace are the golden reference**, and every registered
//! defense policy — present and future — is differentially checked against
//! it. A new policy registered in `PolicyRegistry::standard()` is picked up
//! here automatically; no test edits required.

// Each test binary uses a subset of the harness; the rest would otherwise
// trip `-D warnings` on dead code.
#![allow(dead_code)]

use cassandra::kernels::gadgets::{scenario, BranchSite, GadgetProgram, LeakGadget};
use cassandra::kernels::suite;
use cassandra::prelude::*;

// ------------------------------------------------------- program builders

/// The small workload set shared by the integration tests: one workload per
/// library group plus a hint-heavy table cipher, sized for sub-second runs.
pub fn quick_workloads() -> Vec<Workload> {
    vec![
        suite::chacha20_workload(64),
        suite::sha256_workload(96),
        suite::poly1305_workload(64),
        suite::des_workload(4),
    ]
}

/// The four kernel families a server is sent as fresh `Submit`s, each at
/// several input sizes up to 2 KiB: the store-footprint sample.
pub fn submit_sample() -> Vec<Workload> {
    let mut sample = Vec::new();
    for size in [64, 640, 1280, 2048] {
        sample.push(suite::chacha20_workload(size));
    }
    for size in [16, 512, 1024, 2048] {
        sample.push(suite::poly1305_workload(size));
    }
    for size in [1, 100, 1000, 2048] {
        sample.push(suite::sha256_workload(size));
    }
    for size in [1, 64, 128, 256] {
        sample.push(suite::des_workload(size));
    }
    sample
}

/// A deterministically seeded nested-loop crypto program: `outer` iterations
/// of an inner loop whose trip count varies per builder call. Used by the
/// property tests to generate arbitrarily many distinct multi-target branch
/// traces without proptest.
pub fn nested_loop_program(name: &str, outer: u64, inner: u64) -> Program {
    use cassandra::isa::builder::ProgramBuilder;
    use cassandra::isa::reg::{A0, A1, ZERO};
    let mut b = ProgramBuilder::new(name);
    b.begin_crypto();
    b.li(A0, outer.max(1));
    b.label("outer");
    b.li(A1, inner.max(1));
    b.label("inner");
    b.addi(A1, A1, -1);
    b.bne(A1, ZERO, "inner");
    b.addi(A0, A0, -1);
    b.bne(A0, ZERO, "outer");
    b.end_crypto();
    b.halt();
    b.build().expect("valid generated program")
}

// --------------------------------------------------------- golden streams

/// The golden architectural reference of one workload: the unsafe baseline's
/// committed instruction stream and architectural data-access trace.
pub struct Golden {
    /// Workload name (for assertion messages).
    pub workload: String,
    /// The full baseline outcome.
    pub outcome: SimOutcome,
}

/// Captures the golden committed stream of a workload through the executor
/// (the analysis is cached, so capturing goldens never re-runs Algorithm 2).
pub fn capture_golden(ex: &SweepExecutor<'_>, workload: &Workload) -> Golden {
    let outcome = ex
        .simulate(workload, &CpuConfig::golden_cove_like())
        .expect("baseline simulation");
    assert!(outcome.halted, "{}: baseline must halt", workload.name);
    Golden {
        workload: workload.name.clone(),
        outcome,
    }
}

/// Asserts that an outcome commits the identical instruction stream and the
/// identical architectural access trace as the golden baseline — defenses
/// change timing, never semantics.
pub fn assert_matches_golden(golden: &Golden, outcome: &SimOutcome, design: &str) {
    assert!(outcome.halted, "{}: {design} did not halt", golden.workload);
    assert_eq!(
        outcome.stats.committed_instructions, golden.outcome.stats.committed_instructions,
        "{}: {design} changed the committed instruction stream",
        golden.workload
    );
    assert_eq!(
        outcome.architectural_accesses, golden.outcome.architectural_accesses,
        "{}: {design} changed the architectural access trace",
        golden.workload
    );
}

// ----------------------------------------------------- policy-matrix runs

/// Runs every design of `registry` over every workload, differentially
/// checking each outcome against the workload's golden stream, and hands
/// `(workload, design, golden, outcome)` to the caller for policy-specific
/// assertions.
pub fn run_policy_matrix(
    ex: &SweepExecutor<'_>,
    workloads: &[Workload],
    registry: &PolicyRegistry,
    mut check: impl FnMut(&Workload, &DesignPoint, &Golden, &SimOutcome),
) {
    for w in workloads {
        let golden = capture_golden(ex, w);
        for design in registry.designs() {
            let outcome = ex
                .simulate(w, &design.config)
                .unwrap_or_else(|e| panic!("{}: {} failed: {e:?}", w.name, design.label));
            assert_matches_golden(&golden, &outcome, &design.label);
            check(w, design, &golden, &outcome);
        }
    }
}

/// [`run_policy_matrix`] over the standard registry with no extra checks:
/// the plain sweep-matrix invariant.
pub fn assert_standard_matrix_preserves_goldens(ex: &SweepExecutor<'_>, workloads: &[Workload]) {
    run_policy_matrix(ex, workloads, &PolicyRegistry::standard(), |_, _, _, _| {});
}

// --------------------------------------------------------- security sweep

/// Evaluates one gadget scenario under one defense (both secrets, verdict by
/// trace comparison) — shared by the security tests and demos.
pub fn verdict(
    defense: DefenseMode,
    site: BranchSite,
    gadget: LeakGadget,
) -> cassandra::core::security::ScenarioVerdict {
    let cfg = CpuConfig::golden_cove_like().with_defense(defense);
    cassandra::core::security::evaluate_scenario(
        &format!("{site:?}->{gadget:?}"),
        |secret| scenario(site, gadget, secret),
        &cfg,
    )
    .expect("scenario evaluation")
}

/// Builds one gadget scenario program (used by tests that inspect traces
/// directly instead of going through the verdict helper).
pub fn gadget(site: BranchSite, leak: LeakGadget, secret: u64) -> GadgetProgram {
    scenario(site, leak, secret)
}

/// A deterministically random program mixing public bounded loops,
/// secret-dependent branches, calls to a shared helper and loads from both
/// public and secret data — the input space of the static/dynamic
/// differential property tests. Two calls with the same `rng` stream and
/// different `secret` values build programs with **identical code** (labels,
/// branch pcs, loop bounds) differing only in the secret data words, so
/// per-pc dynamic behaviour is directly comparable across the pair.
///
/// Every generated program halts on every input: loop trip counts come from
/// the rng (never the secret), and secret-dependent branches only skip
/// straight-line arithmetic.
pub fn random_taint_program(rng: &mut Rng, secret: u64) -> Program {
    use cassandra::isa::builder::ProgramBuilder;
    use cassandra::isa::reg::{A0, A1, A2, A3, A4, T0, T1, ZERO};
    let mut b = ProgramBuilder::new("random-taint");
    let secret_base = b.alloc_secret_u64s("sec", &[secret, secret ^ 0x1234]);
    let pub_words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    let pub_base = b.alloc_u64s("pub", &pub_words);
    let out = b.alloc_zeros("out", 16);

    b.begin_crypto();
    b.li(T0, secret_base);
    b.ld(A0, T0, 0); // A0 = secret (tainted)
    b.li(T1, pub_base);
    b.ld(A1, T1, 0); // A1 = public
    let blocks = rng.range(2, 6);
    for i in 0..blocks {
        match rng.range(0, 4) {
            0 => {
                // Public bounded loop: statically untainted branch.
                let label = format!("loop{i}");
                b.li(A2, rng.range(1, 5));
                b.label(label.clone());
                b.addi(A1, A1, 7);
                b.addi(A2, A2, -1);
                b.bne(A2, ZERO, &label);
            }
            1 => {
                // Secret-dependent branch skipping straight-line code:
                // statically tainted, outcome differs across secrets.
                let label = format!("skip{i}");
                b.andi(A3, A0, 1 << (i % 8));
                b.beq(A3, ZERO, &label);
                b.xori(A1, A1, 0x55);
                b.addi(A1, A1, 1);
                b.label(label);
            }
            2 => {
                // Call/ret pair: exercises return edges in the CFG.
                b.call("helper");
            }
            _ => {
                // Public-indexed load: address derived from untainted data.
                b.andi(A4, A1, 0x18);
                b.add(A4, A4, T1);
                b.ld(A4, A4, 0);
                b.xor(A1, A1, A4);
            }
        }
    }
    // Store the public accumulator; constant target address.
    b.li(A4, out);
    b.sd(A1, A4, 0);
    b.end_crypto();
    b.halt();
    b.func("helper");
    b.muli(A1, A1, 3);
    b.addi(A1, A1, 11);
    b.ret();
    b.build().expect("valid generated program")
}

// ------------------------------------------------- deterministic generator

/// Deterministic xorshift64* PRNG; good enough for test-case generation.
/// Seeded per property so failures are replayable from the printed seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}
