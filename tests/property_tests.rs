//! Property-style tests over the core data structures and invariants:
//! losslessness of every trace representation, BTU replay fidelity under
//! partition churn, tournament confidence saturation, and constant-time
//! invariants of the kernels.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these use the deterministic seeded generator from the shared `common`
//! harness: each property is checked over a fixed number of pseudo-random
//! cases (randomly generated programs included). Failures print the seed of
//! the offending case so it can be replayed.

mod common;

use cassandra::btu::cursor::TraceCursor;
use cassandra::btu::encode::{EncodedBranchTrace, EncodedTraces};
use cassandra::btu::unit::{BranchTraceUnit, BtuConfig};
use cassandra::trace::genproc::generate_traces;
use cassandra::trace::kmers::{compress, KmersConfig};
use cassandra::trace::vanilla::VanillaTrace;
use common::Rng;

/// A plausible branch-target sequence — loop-like runs of a few distinct
/// targets, as produced by real (constant-time) code. Mirrors the old
/// proptest strategy: 1..40 runs of (target in 0..6, length in 1..20).
fn target_sequence(rng: &mut Rng) -> Vec<usize> {
    let runs = rng.range(1, 40);
    let mut out = Vec::new();
    for _ in 0..runs {
        let target = rng.range(0, 6) as usize * 7 + 1;
        let len = rng.range(1, 20) as usize;
        out.extend(std::iter::repeat_n(target, len));
    }
    out
}

const CASES: u64 = 64;

/// Run-length encoding of raw traces is lossless.
#[test]
fn vanilla_rle_roundtrips() {
    for seed in 1..=CASES {
        let targets = target_sequence(&mut Rng::new(seed));
        let vanilla = VanillaTrace::from_targets(&targets);
        assert_eq!(vanilla.expand(), targets, "seed {seed}");
    }
}

/// The k-mers compression of Algorithm 1 is lossless and never produces a
/// longer trace than the vanilla representation.
#[test]
fn kmers_compression_is_lossless() {
    for seed in 1..=CASES {
        let targets = target_sequence(&mut Rng::new(seed));
        let vanilla = VanillaTrace::from_targets(&targets);
        let kmers = compress(&vanilla, &KmersConfig::default());
        assert_eq!(kmers.expand(), vanilla.expand(), "seed {seed}");
        assert!(
            kmers.trace_size() <= vanilla.len().max(1),
            "seed {seed}: compressed trace grew"
        );
    }
}

/// The hardware encoding (pattern elements + trace elements) expands back to
/// exactly the recorded target sequence, and the BTU cursor replays it in
/// order — Cassandra's core correctness property.
#[test]
fn btu_encoding_and_cursor_replay_the_trace() {
    for seed in 1..=CASES {
        let mut rng = Rng::new(seed);
        let targets = target_sequence(&mut rng);
        let branch_pc = rng.range(0, 512) as usize;
        let vanilla = VanillaTrace::from_targets(&targets);
        let kmers = compress(&vanilla, &KmersConfig::default());
        let encoded = EncodedBranchTrace::from_kmers(branch_pc, &kmers);
        assert_eq!(encoded.as_trace().expand_targets(), targets, "seed {seed}");

        let mut cursor = TraceCursor::new();
        let replay: Vec<usize> = (0..targets.len())
            .map(|_| {
                cursor
                    .next_target(encoded.as_trace())
                    .expect("trace has elements")
            })
            .collect();
        assert_eq!(replay, targets, "seed {seed}");
    }
}

/// Pattern-element repetition counts always fit the 8-bit hardware field.
#[test]
fn pattern_repetitions_fit_hardware() {
    for seed in 1..=CASES {
        let targets = target_sequence(&mut Rng::new(seed));
        let vanilla = VanillaTrace::from_targets(&targets);
        let kmers = compress(&vanilla, &KmersConfig::default());
        let encoded = EncodedBranchTrace::from_kmers(100, &kmers);
        for p in &encoded.patterns {
            assert!(u64::from(p.repetitions) <= 255, "seed {seed}");
        }
    }
}

// ------------------------------------------- generated-program BTU churn

/// A seeded random nested-loop program plus the recorded target sequences of
/// its two multi-target branches (inner at PC 3, outer at PC 5).
fn generated_case(rng: &mut Rng) -> (BranchTraceUnit, Vec<(usize, Vec<usize>)>, BtuConfig) {
    let outer = rng.range(2, 6);
    let inner = rng.range(2, 6);
    let program = common::nested_loop_program("generated", outer, inner);
    let raw = cassandra::trace::collect::collect_raw_traces(&program, 100_000).unwrap();
    let expected: Vec<(usize, Vec<usize>)> =
        raw.iter().map(|(pc, t)| (*pc, t.targets.clone())).collect();
    let bundle = generate_traces(&program, None, 100_000).unwrap();
    let encoded = EncodedTraces::from_bundle(&program, &bundle);
    let config = BtuConfig {
        entries: rng.range(1, 6) as usize,
        miss_penalty: rng.range(1, 30),
        partitions: rng.range(1, 4) as usize,
    };
    (BranchTraceUnit::new(config, encoded), expected, config)
}

/// Partition eviction bounds: whatever sequence of lookups, context
/// switches, reassignments and flushes a generated program drives, no
/// partition ever holds more residents than its way capacity — and the
/// replayed targets still follow each branch's recorded sequence exactly.
#[test]
fn generated_partition_churn_bounds_occupancy_and_keeps_replay_exact() {
    for seed in 1..=CASES {
        let mut rng = Rng::new(seed);
        let (mut btu, expected, _) = generated_case(&mut rng);
        let mut position: Vec<usize> = vec![0; expected.len()];
        loop {
            // Pick a branch that still has recorded executions left.
            let live: Vec<usize> = (0..expected.len())
                .filter(|&i| position[i] < expected[i].1.len())
                .collect();
            let Some(&choice) = live.get(rng.range(0, live.len().max(1) as u64) as usize) else {
                break;
            };
            // Random context churn between committed executions.
            match rng.range(0, 5) {
                0 => {
                    btu.switch_context(rng.range(0, 4));
                }
                1 => {
                    let idx = rng.range(0, btu.config().partitions as u64) as usize;
                    btu.reassign(rng.range(0, 4), idx);
                }
                2 => btu.flush(),
                _ => {}
            }
            let (pc, targets) = &expected[choice];
            let lookup = btu.fetch_lookup(*pc);
            btu.commit_branch(*pc);
            assert_eq!(
                lookup.next_pc,
                Some(targets[position[choice]]),
                "seed {seed}: branch {pc} execution {}",
                position[choice]
            );
            position[choice] += 1;
            // The eviction invariant, after every single operation.
            for (idx, occupancy) in btu.partition_occupancy().iter().enumerate() {
                assert!(
                    *occupancy <= btu.partition_capacity(idx),
                    "seed {seed}: partition {idx} over capacity"
                );
            }
        }
        let total: usize = expected.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(btu.stats().commits as usize, total, "seed {seed}");
    }
}

/// Reassignment under squash: speculative run-ahead followed by arbitrary
/// partition churn and a squash always resumes the replay at the committed
/// checkpoint — partitioning changes residency (latency), never positions.
#[test]
fn generated_reassignment_under_squash_restores_checkpoints() {
    for seed in 1..=CASES {
        let mut rng = Rng::new(seed);
        let (mut btu, expected, config) = generated_case(&mut rng);
        let (pc, targets) = expected
            .iter()
            .max_by_key(|(_, t)| t.len())
            .expect("has branches");
        let committed = rng.range(0, targets.len() as u64 - 1) as usize;
        for (i, want) in targets.iter().enumerate().take(committed) {
            let lookup = btu.fetch_lookup(*pc);
            btu.commit_branch(*pc);
            assert_eq!(lookup.next_pc, Some(*want), "seed {seed}: warm-up {i}");
        }
        // Speculative run-ahead past the committed point (never committed).
        let ahead = rng.range(1, 4).min((targets.len() - committed) as u64);
        for _ in 0..ahead {
            btu.fetch_lookup(*pc);
        }
        // Arbitrary partition churn while speculation is in flight.
        btu.switch_context(rng.range(1, 4));
        btu.reassign(0, rng.range(0, config.partitions as u64) as usize);
        if rng.range(0, 2) == 0 {
            btu.flush();
        }
        // Squash: the next lookup must replay the committed position.
        btu.squash();
        let lookup = btu.fetch_lookup(*pc);
        assert_eq!(
            lookup.next_pc,
            Some(targets[committed]),
            "seed {seed}: replay must resume at committed execution {committed}"
        );
    }
}

/// Tournament confidence saturation: for any generated program and any
/// threshold, exactly the first `threshold` executions of a crypto branch
/// are speculative (BPU) and every later one is a replayed BTU redirect;
/// the counter saturates at the threshold.
#[test]
fn generated_tournament_confidence_saturates_at_the_threshold() {
    use cassandra::cpu::config::{CpuConfig, DefenseMode};
    use cassandra::cpu::frontend::{BranchEvent, Frontend};
    use cassandra::isa::instr::BranchKind;
    for seed in 1..=CASES {
        let mut rng = Rng::new(seed);
        let outer = rng.range(2, 5);
        let inner = rng.range(2, 5);
        let program = common::nested_loop_program("generated", outer, inner);
        let raw = cassandra::trace::collect::collect_raw_traces(&program, 100_000).unwrap();
        let inner_pc = 3usize;
        let targets: Vec<usize> = raw
            .iter()
            .find(|(pc, _)| **pc == inner_pc)
            .map(|(_, t)| t.targets.clone())
            .unwrap();
        let bundle = generate_traces(&program, None, 100_000).unwrap();
        let encoded = EncodedTraces::from_bundle(&program, &bundle);
        let btu = BranchTraceUnit::new(BtuConfig::default(), encoded);
        let threshold = rng.range(0, targets.len() as u64 + 2) as u32;
        let config = CpuConfig::golden_cove_like()
            .with_defense(DefenseMode::Tournament)
            .with_tournament_threshold(threshold);
        let mut src = Frontend::new(&program, &config, Some(btu));
        for (i, &target) in targets.iter().enumerate() {
            let event = BranchEvent {
                pc: inner_pc,
                kind: BranchKind::CondDirect,
                taken: target != inner_pc + 1,
                actual_target: target,
                direct_target: Some(2),
                fallthrough: inner_pc + 1,
                is_crypto: true,
            };
            let decision = src.on_branch(&event);
            src.on_commit(&event);
            assert_eq!(
                decision.opens_speculation_window,
                (i as u32) < threshold,
                "seed {seed}: execution {i}, threshold {threshold}"
            );
            assert_eq!(
                src.confidence(inner_pc),
                ((i + 1) as u32).min(threshold),
                "seed {seed}: counter saturates at the threshold"
            );
        }
        assert_eq!(
            src.confidence(inner_pc),
            threshold.min(targets.len() as u32),
            "seed {seed}: saturated at min(threshold, executions)"
        );
    }
}

/// The ChaCha20 kernel executes the same number of instructions for any key —
/// the executable-level constant-time property the paper relies on.
#[test]
fn chacha20_kernel_is_constant_time_in_the_key() {
    use cassandra::kernels::kernel::chacha20;
    let nonce = [5u8; 12];
    let msg = vec![0u8; 64];
    let mut rng = Rng::new(0xC0FFEE);
    let mut baseline = None;
    for _ in 0..8 {
        let key_byte = rng.range(0, 256) as u8;
        let kernel = chacha20::build(&[key_byte; 32], 1, &nonce, &msg);
        let (_, steps) = kernel.run_functional_counted().unwrap();
        match baseline {
            None => baseline = Some(steps),
            Some(expected) => assert_eq!(steps, expected, "key byte {key_byte}"),
        }
    }
}

/// Montgomery-ladder exponentiation in the kernel matches the reference for
/// arbitrary exponents (functional correctness under randomisation).
#[test]
fn modexp_kernel_matches_reference() {
    use cassandra::kernels::kernel::modexp;
    use cassandra::kernels::reference::modexp as reference;
    const P61: u64 = (1 << 61) - 1;
    let mut rng = Rng::new(0xBADC0DE);
    for case in 0..8 {
        let exp = [rng.next_u64(), rng.next_u64()];
        let kernel = modexp::build(P61, 3, &exp, 128);
        let out = kernel.run_functional().unwrap();
        let got = u64::from_le_bytes(out.try_into().unwrap());
        assert_eq!(got, reference::mod_exp(P61, 3, &exp, 128), "case {case}");
    }
}
